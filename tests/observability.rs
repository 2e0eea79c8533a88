//! The unified observability layer, end to end: `aceStats` round-trips on
//! directory, store, and media daemons; notify fan-out survives a dead
//! subscriber with counted (never silent) drops; stats are pulled, never
//! pushed; and typed events land in the Net Logger as queryable records.

use ace_core::prelude::*;
use ace_core::protocol::LOGGER_PORT;
use ace_directory::LoggerClient;
use ace_media::Frame;
use ace_net::history::poll_until;
use ace_net::{FaultKind, FaultPlan};
use ace_security::keys::KeyPair;
use ace_store::{DiskImage, MemStorage, StorageHandle, StoreClient, StoreReplica, WalConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn keypair() -> KeyPair {
    KeyPair::generate(&mut rand::thread_rng())
}

/// How often a wait below asks again.
const POLL: Duration = Duration::from_millis(20);

/// Fetch and decode one daemon's `aceStats`.
fn ace_stats(client: &mut ServiceClient, prefix: Option<&str>) -> StatsReport {
    let mut cmd = CmdLine::new("aceStats");
    if let Some(p) = prefix {
        cmd.push_arg("prefix", p);
    }
    let reply = client.call(&cmd).expect("aceStats answers");
    StatsReport::from_cmdline(&reply)
}

fn assert_sane_quantiles(report: &StatsReport, name: &str, min_count: u64) {
    let h = report
        .histograms
        .get(name)
        .unwrap_or_else(|| panic!("histogram `{name}` missing: {:?}", report.histograms.keys()));
    assert!(
        h.count >= min_count,
        "{name}: count {} < {min_count}",
        h.count
    );
    assert!(
        h.p50_us <= h.p90_us && h.p90_us <= h.p99_us,
        "{name}: quantiles out of order: {h:?}"
    );
    assert!(h.p99_us <= h.max_us as f64, "{name}: p99 above max: {h:?}");
}

/// ASD: per-verb latency histograms, queue gauges, and the per-verb reply
/// byte counters all move after traffic, and the prefix filter narrows the
/// reply.
#[test]
fn ace_stats_roundtrip_asd() {
    let net = SimNet::new();
    net.add_host("core");
    let daemon = Daemon::spawn(
        &net,
        DaemonConfig::new("asd", "Service.Directory.ASD", "machine", "core", 4300),
        Box::new(ace_directory::Asd::new(Duration::from_secs(60))),
    )
    .unwrap();
    let me = keypair();
    let mut client =
        ServiceClient::connect(&net, &"core".into(), daemon.addr().clone(), &me).unwrap();

    for _ in 0..8 {
        client.call(&CmdLine::new("ping")).unwrap();
    }

    let report = ace_stats(&mut client, None);
    assert_sane_quantiles(&report, "cmd.ping", 8);
    assert!(
        report
            .counters
            .get("wire.reply.ping.bytes")
            .copied()
            .unwrap_or(0)
            > 0,
        "reply byte counter never moved: {:?}",
        report.counters
    );
    assert!(
        report.gauges.contains_key("control.queueDepth"),
        "queue depth gauge missing: {:?}",
        report.gauges
    );
    assert_sane_quantiles(&report, "control.queueWait", 8);

    let narrowed = ace_stats(&mut client, Some("cmd."));
    assert!(narrowed.histograms.keys().all(|k| k.starts_with("cmd.")));
    assert!(narrowed.counters.keys().all(|k| k.starts_with("cmd.")));
    assert!(!narrowed.histograms.is_empty());

    daemon.shutdown();
}

/// A daemon surfaces the `runtime.*` gauge family of the pool it runs on
/// through `aceStats`.
#[test]
fn ace_stats_roundtrip_runtime_gauges() {
    let net = SimNet::new();
    net.add_host("core");
    let pool = ace_core::Runtime::new(2);
    let shared = Daemon::spawn(
        &net,
        DaemonConfig::new("shared", "Service.Directory.ASD", "machine", "core", 4310)
            .with_runtime_pool(pool.clone()),
        Box::new(ace_directory::Asd::new(Duration::from_secs(60))),
    )
    .unwrap();
    let me = keypair();

    let mut client =
        ServiceClient::connect(&net, &"core".into(), shared.addr().clone(), &me).unwrap();
    for _ in 0..4 {
        client.call(&CmdLine::new("ping")).unwrap();
    }
    let report = ace_stats(&mut client, Some("runtime."));
    // The daemon contributes two tasks: its main task plus its notifier.
    assert!(
        report.gauges.get("runtime.tasksLive").copied().unwrap_or(0) >= 2,
        "daemon must report live runtime tasks: {:?}",
        report.gauges
    );
    assert!(
        report.gauges.get("runtime.workers").copied().unwrap_or(0) >= 2,
        "worker pool size missing: {:?}",
        report.gauges
    );
    assert!(
        report.gauges.get("runtime.polls").copied().unwrap_or(0) > 0,
        "poll counter never moved: {:?}",
        report.gauges
    );
    for key in [
        "runtime.readyQueue",
        "runtime.timerFires",
        "runtime.workerParks",
        "runtime.longPolls",
        "runtime.workersInjected",
    ] {
        assert!(
            report.gauges.contains_key(key),
            "{key} missing from aceStats: {:?}",
            report.gauges
        );
    }

    shared.shutdown();
    pool.shutdown();
}

/// A WAL-backed store replica re-exports WAL batch stats through `aceStats`.
#[test]
fn ace_stats_roundtrip_store_replica() {
    let net = SimNet::new();
    net.add_host("store");
    let storage = StorageHandle::Memory(MemStorage::new());
    let (disk, _report) = DiskImage::open(&storage, WalConfig::default()).unwrap();
    let daemon = Daemon::spawn(
        &net,
        DaemonConfig::new("store_a", "Service.Store", "machine", "store", 4310),
        Box::new(StoreReplica::new(disk, Duration::from_secs(3600))),
    )
    .unwrap();

    let mut store = StoreClient::new(net.clone(), "store", keypair(), vec![daemon.addr().clone()]);
    for i in 0..5 {
        store
            .put("ns", &format!("key{i}"), format!("value{i}").as_bytes())
            .unwrap();
    }

    let me = keypair();
    let mut client =
        ServiceClient::connect(&net, &"store".into(), daemon.addr().clone(), &me).unwrap();
    let report = ace_stats(&mut client, None);
    // Gauges are keyed by daemon identity so co-located replicas never
    // collapse into one series.
    assert!(
        report
            .gauges
            .get("store.store_a.entries")
            .copied()
            .unwrap_or(0)
            >= 5,
        "store entries gauge: {:?}",
        report.gauges
    );
    assert!(
        report
            .gauges
            .get("wal.store_a.appends")
            .copied()
            .unwrap_or(0)
            >= 5,
        "wal append gauge: {:?}",
        report.gauges
    );
    assert!(
        !report.histograms.is_empty(),
        "no per-verb histograms after traffic"
    );

    daemon.shutdown();
}

/// Two replicas of the same class on one host must publish *distinct*
/// `store.*`/`wal.*` series — keyed by daemon name — so an aggregator that
/// merges their registries sees both, not one overwriting the other.
#[test]
fn store_gauges_are_distinct_series_per_daemon() {
    let net = SimNet::new();
    net.add_host("store");
    let mut daemons = Vec::new();
    for (name, port, writes) in [("store_a", 4330u16, 3usize), ("store_b", 4331, 7)] {
        let storage = StorageHandle::Memory(MemStorage::new());
        let (disk, _report) = DiskImage::open(&storage, WalConfig::default()).unwrap();
        let daemon = Daemon::spawn(
            &net,
            DaemonConfig::new(name, "Service.Store", "machine", "store", port),
            Box::new(StoreReplica::new(disk, Duration::from_secs(3600))),
        )
        .unwrap();
        let mut store =
            StoreClient::new(net.clone(), "store", keypair(), vec![daemon.addr().clone()]);
        for i in 0..writes {
            store.put("ns", &format!("k{i}"), b"v").unwrap();
        }
        daemons.push(daemon);
    }

    let me = keypair();
    let mut merged = std::collections::BTreeMap::new();
    for daemon in &daemons {
        let mut client =
            ServiceClient::connect(&net, &"store".into(), daemon.addr().clone(), &me).unwrap();
        merged.extend(ace_stats(&mut client, None).gauges);
    }
    assert_eq!(merged.get("store.store_a.entries").copied(), Some(3));
    assert_eq!(merged.get("store.store_b.entries").copied(), Some(7));
    assert!(merged.get("wal.store_a.appends").copied().unwrap_or(0) >= 3);
    assert!(merged.get("wal.store_b.appends").copied().unwrap_or(0) >= 7);
    assert!(
        !merged.contains_key("store.entries") && !merged.contains_key("wal.appends"),
        "unkeyed legacy series must be gone: {merged:?}"
    );

    for daemon in daemons {
        daemon.shutdown();
    }
}

/// A media daemon (the mixer) reports per-verb latency plus its own gauges.
#[test]
fn ace_stats_roundtrip_media_mixer() {
    let net = SimNet::new();
    net.add_host("av");
    let daemon = Daemon::spawn(
        &net,
        DaemonConfig::new("mixer", "Service.Media.Mixer", "hawk", "av", 4320),
        Box::new(ace_media::services::AudioMixer::new("out")),
    )
    .unwrap();
    let me = keypair();
    let mut client =
        ServiceClient::connect(&net, &"av".into(), daemon.addr().clone(), &me).unwrap();

    client
        .call_ok(&CmdLine::new("addInput").arg("stream", "mic1"))
        .unwrap();
    for seq in 0..6i64 {
        let frame = Frame {
            stream: "mic1".into(),
            seq,
            data: vec![0, 1, 2, 3],
        };
        client.call(&frame.to_cmd()).unwrap();
    }

    let report = ace_stats(&mut client, None);
    assert_sane_quantiles(&report, "cmd.push", 6);
    assert_eq!(report.gauges.get("mixer.inputs").copied(), Some(1));
    assert!(
        report.gauges.get("mixer.mixed").copied().unwrap_or(0) >= 6,
        "mixer gauges: {:?}",
        report.gauges
    );

    daemon.shutdown();
}

struct Poker;
impl ServiceBehavior for Poker {
    fn semantics(&self) -> Semantics {
        Semantics::new().with(CmdSpec::new("poke", "fire a watched command"))
    }
    fn handle(&mut self, _ctx: &mut ServiceCtx, _cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        Reply::ok()
    }
}

struct Recorder(Arc<AtomicU64>);
impl ServiceBehavior for Recorder {
    fn semantics(&self) -> Semantics {
        Semantics::new().with(
            CmdSpec::new("observe", "record one notification")
                .optional("service", ArgType::Word, "originating service")
                .optional("cmd", ArgType::Word, "executed command"),
        )
    }
    fn handle(&mut self, _ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        match cmd.name() {
            "observe" => {
                self.0.fetch_add(1, Ordering::SeqCst);
                Reply::ok()
            }
            other => Reply::err(ErrorCode::Internal, format!("unrouted command `{other}`")),
        }
    }
}

/// One crashed subscriber must not stall or starve fan-out to the healthy
/// one, and every failed delivery is counted on the origin — never silent.
#[test]
fn notify_fanout_survives_dead_subscriber() {
    let net = SimNet::new();
    for h in ["origin", "alive", "dead", "tester"] {
        net.add_host(h);
    }
    let origin = Daemon::spawn(
        &net,
        DaemonConfig::new("poker", "Service.Test", "room", "origin", 4400),
        Box::new(Poker),
    )
    .unwrap();
    let seen = Arc::new(AtomicU64::new(0));
    let alive = Daemon::spawn(
        &net,
        DaemonConfig::new("rec_alive", "Service.Test", "room", "alive", 4401),
        Box::new(Recorder(Arc::clone(&seen))),
    )
    .unwrap();
    let doomed = Daemon::spawn(
        &net,
        DaemonConfig::new("rec_dead", "Service.Test", "room", "dead", 4402),
        Box::new(Recorder(Arc::new(AtomicU64::new(0)))),
    )
    .unwrap();

    let me = keypair();
    let mut client =
        ServiceClient::connect(&net, &"tester".into(), origin.addr().clone(), &me).unwrap();
    for (service, addr) in [("rec_alive", alive.addr()), ("rec_dead", doomed.addr())] {
        client
            .call_ok(
                &CmdLine::new("addNotification")
                    .arg("cmd", "poke")
                    .arg("service", service)
                    .arg("host", addr.host.as_str())
                    .arg("port", addr.port as i64)
                    .arg("notifyCmd", "observe"),
            )
            .unwrap();
    }

    // The subscriber on `dead` goes down before any notification flows.
    let plan = FaultPlan::new(Duration::from_millis(100))
        .at(Duration::ZERO, FaultKind::Crash("dead".into()));
    plan.spawn(&net).join();

    const POKES: u64 = 20;
    for _ in 0..POKES {
        client.call_ok(&CmdLine::new("poke")).unwrap();
    }

    // Delivery is asynchronous: the healthy subscriber must receive every
    // single notification despite the dead peer ahead of it in the queue.
    assert!(
        poll_until(net.clock(), Duration::from_secs(10), POLL, || {
            seen.load(Ordering::SeqCst) >= POKES
        }),
        "healthy subscriber starved: got {} of {POKES}",
        seen.load(Ordering::SeqCst)
    );

    // The origin's registry owns the evidence: deliveries and drops both
    // counted.
    let accounted = poll_until(net.clock(), Duration::from_secs(5), POLL, || {
        let report = ace_stats(&mut client, Some("notify."));
        report
            .counters
            .get("notify.delivered")
            .copied()
            .unwrap_or(0)
            >= POKES
            && report.counters.get("notify.drops").copied().unwrap_or(0) >= 1
    });
    if !accounted {
        let report = ace_stats(&mut client, Some("notify."));
        panic!(
            "origin never accounted the dead subscriber: {:?}",
            report.counters
        );
    }

    origin.shutdown();
    alive.shutdown();
}

/// Stats are pulled: after traffic, `aceStats` on the daemon itself carries
/// its per-verb latency and the runtime gauges.
#[test]
fn stats_are_pulled_from_the_daemon() {
    let net = SimNet::new();
    net.add_host("core");
    net.add_host("podium");
    let logger = Daemon::spawn(
        &net,
        DaemonConfig::new(
            "netlogger",
            "Service.Logger",
            "machine",
            "core",
            LOGGER_PORT,
        ),
        Box::new(ace_directory::NetLogger::new(1000)),
    )
    .unwrap();

    let cam = Daemon::spawn(
        &net,
        DaemonConfig::new("cam1", "Service.Device.PTZCamera", "hawk", "podium", 4410)
            .with_logger(logger.addr().clone()),
        Box::new(ace_env::PtzCamera::new(ace_env::CameraModel::Vcc4)),
    )
    .unwrap();

    let me = keypair();
    let mut cam_client =
        ServiceClient::connect(&net, &"podium".into(), cam.addr().clone(), &me).unwrap();

    for _ in 0..4 {
        cam_client.call(&CmdLine::new("ping")).unwrap();
    }
    let report = ace_stats(&mut cam_client, None);
    assert_sane_quantiles(&report, "cmd.ping", 4);
    for key in ["runtime.tasksLive", "runtime.workers", "runtime.polls"] {
        assert!(
            report.gauges.contains_key(key),
            "{key} missing from aceStats: {:?}",
            report.gauges
        );
    }

    cam.shutdown();
    logger.shutdown();
}

/// Nothing leaves a daemon unasked: configured with a Net Logger and left
/// idle past two of what was the push interval (1 s), a daemon has sent the
/// logger nothing after its start record — the logger has served one
/// `log`, no other verb and no refused command, and its one record is
/// `cam1`'s start.  (Fails if a daemon casts the logger a `log` or an
/// `event` on every tick.)
#[test]
fn an_idle_daemon_with_a_logger_sends_it_nothing() {
    let net = SimNet::new();
    net.add_host("core");
    net.add_host("podium");
    let logger = Daemon::spawn(
        &net,
        DaemonConfig::new(
            "netlogger",
            "Service.Logger",
            "machine",
            "core",
            LOGGER_PORT,
        ),
        Box::new(ace_directory::NetLogger::new(1000)),
    )
    .unwrap();
    let cam = Daemon::spawn(
        &net,
        DaemonConfig::new("cam1", "Service.Device.PTZCamera", "hawk", "podium", 4410)
            .with_logger(logger.addr().clone()),
        Box::new(ace_env::PtzCamera::new(ace_env::CameraModel::Vcc4)),
    )
    .unwrap();

    std::thread::sleep(Duration::from_millis(2500));

    let me = keypair();
    let mut to_logger =
        ServiceClient::connect(&net, &"core".into(), logger.addr().clone(), &me).unwrap();
    let served = ace_stats(&mut to_logger, Some("cmd."));
    let verbs: Vec<(&str, u64)> = (served.histograms.iter())
        .filter(|(verb, _)| verb.as_str() != "cmd.aceStats")
        .map(|(verb, h)| (verb.as_str(), h.count))
        .collect();
    assert_eq!(
        verbs,
        [("cmd.log", 1)],
        "the logger served more than the start record"
    );
    let refused: Vec<_> = (served.counters.iter()).filter(|(_, n)| **n > 0).collect();
    assert!(
        refused.is_empty(),
        "the logger refused commands: {refused:?}"
    );
    let mut log_client =
        LoggerClient::connect(&net, &"core".into(), logger.addr().clone(), &me).unwrap();
    let rows = log_client.tail(10, None).unwrap();
    assert_eq!(rows.len(), 1, "records: {rows:?}");
    assert_eq!(rows[0].2, "cam1");

    cam.shutdown();
    logger.shutdown();
}

/// Asks the directory where it is itself, as often as told.
struct Asker;
impl ServiceBehavior for Asker {
    fn semantics(&self) -> Semantics {
        Semantics::new().with(CmdSpec::new("ask", "ctx.lookup_one").required(
            "times",
            ArgType::Int,
            "identical lookups to make",
        ))
    }
    fn handle(&mut self, ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        let me = ctx.name().to_string();
        for _ in 0..cmd.get_int("times").expect("validated") {
            if !matches!(ctx.lookup_one(&me), Ok(Some(_))) {
                return Reply::err(ErrorCode::NotFound, "the ASD does not list this daemon");
            }
        }
        Reply::ok()
    }
}

/// `aceStats prefix=resolve.` answers "is this daemon asking the
/// directory": the second of two identical lookups is served from the
/// answer the first one was given, and a daemon that never asks has no
/// `resolve.*` row at all — the cache and its counters are made by the
/// first lookup, not at spawn.
#[test]
fn ace_stats_counts_lookups_answered_from_the_held_answer() {
    let net = SimNet::new();
    net.add_host("core");
    let fw = ace_directory::bootstrap(&net, "core", Duration::from_secs(60)).unwrap();
    let me = keypair();
    let spawn = |name: &str, port: u16| {
        let config = fw.service_config(name, "Service.Asker", "machine", "core", port);
        let daemon = Daemon::spawn(&net, config, Box::new(Asker)).unwrap();
        let client = ServiceClient::connect(&net, &"core".into(), daemon.addr().clone(), &me);
        (daemon, client.unwrap())
    };
    let (asker, mut to_asker) = spawn("asker", 4500);
    let (silent, mut to_silent) = spawn("silent", 4501);

    to_asker
        .call_ok(&CmdLine::new("ask").arg("times", 2))
        .unwrap();
    to_silent
        .call_ok(&CmdLine::new("ask").arg("times", 0))
        .unwrap();

    let asked = ace_stats(&mut to_asker, Some("resolve.")).counters;
    assert_eq!(asked.get("resolve.cache_misses"), Some(&1), "{asked:?}");
    assert_eq!(asked.get("resolve.cache_hits"), Some(&1), "{asked:?}");
    let never = ace_stats(&mut to_silent, Some("resolve."));
    assert!(never.counters.is_empty(), "{:?}", never.counters);

    asker.shutdown();
    silent.shutdown();
    fw.shutdown();
}
