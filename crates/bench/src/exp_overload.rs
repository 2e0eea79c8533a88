//! E21 — shed vs collapse: what bounded admission buys under overload.
//!
//! One daemon with a deliberately slow bulk verb (`work`, 10 ms inside the
//! handler, so capacity is ~100 calls/s) is offered rising load by impatient
//! clients: each call carries the client's timeout as its `deadline=`
//! budget, and a client that times out abandons the link and re-offers at
//! once — the behavior that drives real queue collapse.  `acebench` offers
//! the whole building its rated load; it has no arm that overdrives one
//! daemon fourfold, which is why this stays an experiment.
//!
//! Two server configurations face the same storm:
//!
//! * **uncontrolled** — [`AdmissionConfig::uncontrolled`]: effectively
//!   unbounded queue, no deadline enforcement.  Every abandoned call stays
//!   queued and is eventually *executed for nobody*; once the standing queue
//!   exceeds the client timeout, goodput collapses toward zero.
//! * **controlled** — the default [`AdmissionConfig`]: bounded lanes,
//!   CoDel-style queue-wait shedding, deadline-expired commands dropped at
//!   dequeue.  Excess offers come back as instant retryable `E_BUSY`; the
//!   standing queue stays short, so admitted calls finish inside their
//!   budget and goodput holds near capacity.

use crate::util::*;
use ace_core::prelude::*;
use ace_core::AdmissionConfig;
use ace_security::keys::KeyPair;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Handler time per `work` call.
const WORK: Duration = Duration::from_millis(10);
/// Client patience; also the stamped `deadline=` budget.
const CLIENT_TIMEOUT: Duration = Duration::from_millis(150);

struct SlowWork;
impl ServiceBehavior for SlowWork {
    fn semantics(&self) -> Semantics {
        Semantics::new().with(CmdSpec::new("work", "burn handler time"))
    }
    fn handle(&mut self, _ctx: &mut ServiceCtx, _cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        std::thread::sleep(WORK);
        Reply::ok()
    }
}

/// What the clients of one storm saw, and what the daemon counted.
#[derive(Default)]
struct Storm {
    attempts: u64,
    goodput: u64,
    shed: u64,
    timeouts: u64,
    latencies_ms: Vec<f64>,
    /// `shed.bulkFull` + `shed.queueWait` on the daemon.
    queue_shed: u64,
    /// `shed.deadline` on the daemon: expired in the queue, never run.
    queue_expired: u64,
}

/// Offer one daemon the closed-loop load of `workers` impatient clients;
/// only what happens inside the `measure` window after `warmup` is counted.
fn storm(workers: usize, admission: AdmissionConfig, warmup: Duration, measure: Duration) -> Storm {
    let net = SimNet::new();
    net.add_host("h");
    let daemon = Daemon::spawn(
        &net,
        DaemonConfig::new("victim", "Service.SlowWork", "room", "h", 6200)
            .with_admission(admission),
        Box::new(SlowWork),
    )
    .expect("spawn victim");

    let addr = daemon.addr();
    let stop = AtomicBool::new(false);
    let measuring = AtomicBool::new(false);
    let mut total = Storm::default();
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..workers)
            .map(|_| scope.spawn(|| impatient_client(&net, addr, &stop, &measuring)))
            .collect();
        std::thread::sleep(warmup);
        measuring.store(true, Ordering::SeqCst);
        std::thread::sleep(measure);
        measuring.store(false, Ordering::SeqCst);
        stop.store(true, Ordering::SeqCst);
        for client in clients {
            let seen = client.join().expect("client thread");
            total.attempts += seen.attempts;
            total.goodput += seen.goodput;
            total.shed += seen.shed;
            total.timeouts += seen.timeouts;
            total.latencies_ms.extend(seen.latencies_ms);
        }
    });

    // Server-side accounting via the priority lane (answerable even with a
    // drowning bulk lane — that is the point).
    let me = KeyPair::generate(&mut rand::thread_rng());
    let mut probe =
        ServiceClient::connect(&net, &"h".into(), daemon.addr().clone(), &me).expect("probe");
    let report = StatsReport::from_cmdline(&probe.call(&CmdLine::new("aceStats")).expect("stats"));
    let counter = |k: &str| report.counters.get(k).copied().unwrap_or(0);
    total.queue_shed = counter("shed.bulkFull") + counter("shed.queueWait");
    total.queue_expired = counter("shed.deadline");
    daemon.shutdown();
    total
}

fn impatient_client(net: &SimNet, addr: &Addr, stop: &AtomicBool, measuring: &AtomicBool) -> Storm {
    let me = KeyPair::generate(&mut rand::thread_rng());
    let mut seen = Storm::default();
    let mut client: Option<ServiceClient> = None;
    while !stop.load(Ordering::SeqCst) {
        let Some(link) = client.as_mut() else {
            match ServiceClient::connect(net, &"h".into(), addr.clone(), &me) {
                Ok(mut c) => {
                    c.set_timeout(CLIENT_TIMEOUT);
                    client = Some(c);
                }
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
            continue;
        };
        let counted = measuring.load(Ordering::SeqCst) as u64;
        seen.attempts += counted;
        let t0 = Instant::now();
        match link.call(&CmdLine::new("work")) {
            Ok(_) => {
                seen.goodput += counted;
                if counted == 1 {
                    seen.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                }
            }
            Err(ClientError::Service { code, .. }) if code.is_retryable() => {
                seen.shed += counted;
                // Impatient re-offer: the shed reply came back fast, so the
                // client is free to hammer again.
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(ClientError::Service { code, msg }) => {
                panic!("unexpected service error {code}: {msg}");
            }
            Err(ClientError::Link(_)) => {
                // Timed out (or severed): abandon the link and re-offer on a
                // fresh one — the queued command is now a zombie the server
                // may still execute.
                seen.timeouts += counted;
                client = None;
            }
        }
    }
    seen
}

/// E21: goodput and admitted latency at 1×, 2× and 4× offered load, with
/// and without the admission gate.
pub fn e21() {
    header("E21", "§9, PR 7", "overload: shed vs collapse");
    const WARMUP: Duration = Duration::from_secs(1);
    const MEASURE: Duration = Duration::from_secs(3);
    println!(
        "  capacity {:.0} calls/s; client timeout and deadline {} ms; {} s measured per row",
        1.0 / WORK.as_secs_f64(),
        CLIENT_TIMEOUT.as_millis(),
        MEASURE.as_secs(),
    );
    row(
        "mode, offered load (clients)",
        &[
            "offered/s".into(),
            "goodput/s".into(),
            "shed/s".into(),
            "timeouts/s".into(),
            "p50/p99 ms".into(),
            "shed+expired".into(),
        ],
    );
    // 4 closed-loop clients sit at capacity (the 1× baseline); N impatient
    // clients re-offer at least N/0.15 s even when every call times out, so
    // 20 and 40 clients pin offered load at or above 2× and 4× capacity.
    for (load, workers) in [("1x", 4), ("2x", 20), ("4x", 40)] {
        for (mode, admission) in [
            ("uncontrolled", AdmissionConfig::uncontrolled()),
            ("controlled", AdmissionConfig::default()),
        ] {
            let s = storm(workers, admission, WARMUP, MEASURE);
            let per_sec = |n: u64| format!("{:.0}", n as f64 / MEASURE.as_secs_f64());
            let ms = |q| percentile(&s.latencies_ms, q).map_or("—".into(), |v| format!("{v:.1}"));
            row(
                &format!("{mode} {load} ({workers})"),
                &[
                    per_sec(s.attempts),
                    per_sec(s.goodput),
                    per_sec(s.shed),
                    per_sec(s.timeouts),
                    format!("{}/{}", ms(0.5), ms(0.99)),
                    format!("{}+{}", s.queue_shed, s.queue_expired),
                ],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One short 1×-load row: the storm still spawns, offers, counts and
    /// reads the daemon's shed counters after an API change.
    #[test]
    fn one_row_at_rated_load() {
        let s = storm(
            4,
            AdmissionConfig::default(),
            Duration::from_millis(200),
            Duration::from_millis(600),
        );
        assert!(s.goodput > 0, "no call completed at rated load");
        assert_eq!(s.goodput as usize, s.latencies_ms.len());
        assert_eq!(s.attempts, s.goodput + s.shed + s.timeouts);
        let p50 = percentile(&s.latencies_ms, 0.5).expect("samples");
        assert!(
            p50 >= WORK.as_secs_f64() * 1e3,
            "a call cannot beat the handler: p50 {p50} ms"
        );
    }
}
