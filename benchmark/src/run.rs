//! One workload run: set-up, warm-up, open loop, closed loop, verification,
//! and the metrics that come out of it.

use crate::building::{
    access_host, room_name, user_name, Building, DeviceKind, REPLICATION, STORE_NS, VALUE_BYTES,
};
use crate::disturb::{DisturbanceLog, Disturber, CRASH_VICTIM, REBUILT_REPLICA};
use crate::drive::{status_cmd, status_matches, Lane, LaneEnv, Ledger, Phase, Sample};
use crate::layers::{
    client_delta, probe, ratio, sweep_targets, DaemonDeltas, DeepSnapshot, EdgeSnapshot,
    ProbeReport,
};
use crate::schedule::{
    Class, LaneGen, Op, Workload, MEDIA_FRAME_BYTES, STORE_BATCH_KEYS, STORE_BATCH_VALUE_BYTES,
};
use crate::sink::LANES;
use crate::stats::{median, percentile, windowed_percentile};
use crate::trace::{span_cost_ns, summarize, TraceSummary};
use ace_core::prelude::*;
use ace_core::Runtime;
use std::collections::BTreeMap;
use std::sync::{Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};

/// Phase lengths of one run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Operations of the warm-up, both lanes together, issued back to back.
    pub warm_ops: usize,
    pub open: Duration,
    pub closed: Duration,
    pub trace: bool,
    /// How many times the building is set up (the last one is used).
    pub setups: usize,
}

/// Windows the open phase's percentiles are taken in (half a second each at
/// the contract's run length).  The reported value is the median window, so
/// the anti-entropy rounds and batch writes that fall into a phase, or a
/// neighbour on the box for a few seconds, do not move it.
pub const OPEN_WINDOWS: usize = 20;
/// Windows the closed phase's completions are printed in (not aggregated:
/// goodput is all completions over the whole measured span).
const CLOSED_WINDOWS: usize = 6;
/// An operation sent more than this after it was due counts as late.
const LATE_US: f64 = 1000.0;
/// Pause between the warm-up, which saturates the building, and the open
/// phase: queues drain and the lanes start from an idle system.
const SETTLE: Duration = Duration::from_millis(250);

impl Plan {
    /// Unmeasured start of the closed loop.  Going from the open loop's
    /// part load to saturation, the box takes a second or two to reach its
    /// full speed (the first windows of a closed phase read 15–30 % below
    /// the rest, whatever the caches hold), so goodput is taken after that.
    pub fn closed_lead(&self) -> Duration {
        self.closed / 5
    }

    /// The plan for `--seconds`: that many seconds are measured, half of
    /// them open loop and half closed loop, after the workload's counted
    /// warm-up (shortened in proportion below the contract's 20 s).  A
    /// traced run sets the building up once, since `setup_s` is not among
    /// its metrics.
    ///
    /// At the contract's 20 s the open phase is 10 s: exactly two rounds of
    /// the store's 5 s anti-entropy, whatever their phase, so the bytes and
    /// CPU those rounds cost are the same in every run.
    pub fn for_seconds(workload: Workload, seconds: f64, trace: bool) -> Plan {
        let half = Duration::from_secs_f64(seconds / 2.0);
        Plan {
            warm_ops: (workload.warm_ops() as f64 * (seconds / 20.0).min(1.0)) as usize,
            open: half,
            closed: half,
            trace,
            setups: if trace { 1 } else { 3 },
        }
    }
}

/// A named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    /// The generator's timed numbers (a prefix of the per-layer list),
    /// which an untraced run prints beside the gated metrics: measured
    /// with tracing off, as an end-to-end number should be.
    pub timed: Vec<Metric>,
    /// Every per-layer metric; only a traced run has them.
    pub per_layer: Vec<Metric>,
    /// Operations of all phases by kind: how many verified, how many not.
    pub by_kind: BTreeMap<&'static str, (u64, u64)>,
    /// Output checks that did not hold; any entry makes `correct` false.
    pub violations: Vec<String>,
    /// First failure messages of the lanes.
    pub failures: Vec<String>,
    /// Free-form facts worth printing (busiest daemon, set-up stages, …).
    pub notes: Vec<String>,
    pub trace_json: Option<String>,
}

fn m(name: &'static str, value: f64) -> Metric {
    Metric { name, value }
}

impl RunResult {
    /// Fold what the lanes saw inline into the verdict.  A wrong answer is
    /// a violation on every workload.  An operation that failed any other
    /// way (refused, shed, timed out) is one too unless the workload
    /// disturbs the building on purpose: `building_day` counts those in
    /// `failed` and goes on.
    fn judge(&mut self, workload: Workload, ledgers: &[&Ledger]) {
        let wrong_total: u64 = ledgers.iter().map(|l| l.wrong_total).sum();
        let kept = ledgers.iter().map(|l| l.wrong.len() as u64).sum();
        for ledger in ledgers {
            self.failures.extend(ledger.failures.iter().cloned());
            self.violations
                .extend(ledger.wrong.iter().map(|w| format!("wrong answer: {w}")));
        }
        if wrong_total > kept {
            self.violations
                .push(format!("… and {} more wrong answers", wrong_total - kept));
        }
        if workload != Workload::BuildingDay && self.failed > wrong_total {
            self.violations.push(format!(
                "{} of {} operations failed with nothing disturbing the building",
                self.failed - wrong_total,
                self.attempted
            ));
        }
        self.correct = self.violations.is_empty();
    }
}

/// Run `workload` once.
pub fn run(workload: Workload, seed: u64, plan: Plan) -> Result<RunResult, String> {
    let process_started = Instant::now();
    let mut result = RunResult::default();

    // Schedules first: nothing below can influence what will be sent.
    let mut gens: Vec<LaneGen> = (0..LANES)
        .map(|lane| LaneGen::new(workload, seed, lane))
        .collect();
    let warm_ups: Vec<Vec<Op>> = gens
        .iter_mut()
        .map(|g| g.take(plan.warm_ops / LANES))
        .collect();
    let open_us = plan.open.as_micros() as u64;
    let schedules: Vec<Vec<Op>> = gens.iter_mut().map(|g| g.take_span(open_us)).collect();

    // Set-up, `plan.setups` times; the reported time is the median.
    let mut setup_times = Vec::new();
    let mut building = None;
    for round in 0..plan.setups {
        if let Some(previous) = building.take() {
            Building::shutdown(previous);
        }
        let started = if round == 0 {
            process_started
        } else {
            Instant::now()
        };
        let built = Building::build(seed)?;
        setup_times.push(started.elapsed().as_secs_f64());
        building = Some(built);
    }
    let mut building = building.expect("at least one set-up");
    result.notes.push(format!(
        "set-up stages (s): {}",
        building
            .setup
            .stages
            .iter()
            .map(|(name, s)| format!("{name} {s:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let disturber = match workload {
        Workload::BuildingDay => Some(Disturber::prepare(&building)?),
        _ => None,
    };

    let env = LaneEnv::of(&building);
    let admin_pool = Arc::new(LinkPool::new(&building.env.net, "core", building.env.admin));
    let targets = sweep_targets(&building);
    if plan.trace {
        // A dry sweep dials the 190-odd links and lets the guarded devices
        // decide (and cache) that the admin may read their stats, so the
        // two sweeps at the edges of the open phase cost one warm round
        // trip per daemon.
        DeepSnapshot::take(&building, &admin_pool, &targets, false);
    }

    // The phases.  Lanes and this thread meet at three barriers: after the
    // warm-up, after the open loop (so the closing snapshot brackets exactly
    // the open phase) and before the closed loop.  Whoever leaves a barrier
    // first fixes the instant the next measured span starts, for everyone.
    let epoch = Instant::now();
    let (open_cell, closed_cell) = (OnceLock::new(), OnceLock::new());
    let agreed =
        |cell: &OnceLock<Instant>, lead: Duration| *cell.get_or_init(|| Instant::now() + lead);
    let after_warm = Barrier::new(LANES + 1);
    let after_open = Barrier::new(LANES + 1);
    let closed_go = Barrier::new(LANES + 1);
    let mut edge_before = None;
    let mut edge_after = None;
    let mut deep_before = None;
    let mut deep_after = None;
    let mut disturbance = DisturbanceLog::default();
    let (mut open_start, mut closed_start) = (epoch, epoch);
    let mut lanes: Vec<Lane> = std::thread::scope(|scope| {
        let handles: Vec<_> = gens
            .into_iter()
            .enumerate()
            .map(|(id, mut gen)| {
                let env = env.clone();
                let (warm_up, ops) = (&warm_ups[id], &schedules[id]);
                let (after_warm, after_open, closed_go) = (&after_warm, &after_open, &closed_go);
                let (agreed, open_cell, closed_cell) = (&agreed, &open_cell, &closed_cell);
                std::thread::Builder::new()
                    .name(format!("lane-{id}"))
                    .spawn_scoped(scope, move || {
                        let mut lane = Lane::new(id, env, plan.trace, epoch);
                        lane.run_warm(warm_up);
                        after_warm.wait();
                        lane.run_open(ops, agreed(open_cell, SETTLE));
                        after_open.wait();
                        closed_go.wait();
                        let measure_from = agreed(closed_cell, plan.closed_lead());
                        lane.run_closed(&mut gen, measure_from, measure_from + plan.closed);
                        lane
                    })
                    .expect("spawn lane")
            })
            .collect();

        after_warm.wait();
        open_start = agreed(&open_cell, SETTLE);
        if plan.trace {
            // Inside the settling pause, so the sweep's own round trips are
            // not in the phase it opens.
            deep_before = Some(DeepSnapshot::take(&building, &admin_pool, &targets, false));
        }
        if let Some(wait) = open_start.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        edge_before = Some(EdgeSnapshot::take(&building.env.net));
        if let Some(disturber) = &disturber {
            disturbance = disturber.run(&mut building, epoch, open_start, plan.open);
        }
        after_open.wait();
        edge_after = Some(EdgeSnapshot::take(&building.env.net));
        if plan.trace {
            deep_after = Some(DeepSnapshot::take(&building, &admin_pool, &targets, true));
        }
        closed_go.wait();
        closed_start = agreed(&closed_cell, plan.closed_lead());
        handles
            .into_iter()
            .map(|h| h.join().expect("lane panicked"))
            .collect()
    });
    let (edge_before, edge_after) = (
        edge_before.expect("taken above"),
        edge_after.expect("taken above"),
    );

    // -- output verification ---------------------------------------------------
    result
        .violations
        .extend(disturbance.violations.iter().cloned());
    verify(workload, &building, &mut lanes, &mut result.violations);

    // -- end-to-end metrics ------------------------------------------------------
    let samples: Vec<Sample> = lanes
        .iter()
        .flat_map(|l| l.samples.iter().copied())
        .collect();
    let open: Vec<&Sample> = samples.iter().filter(|s| s.phase == Phase::Open).collect();
    let closed: Vec<&Sample> = samples
        .iter()
        .filter(|s| s.phase == Phase::Closed)
        .collect();
    // Every operation sent counts, warm-up and lead-in included.
    result.attempted = samples.len() as u64;
    result.failed = samples.iter().filter(|s| !s.ok).count() as u64;
    for sample in &samples {
        let (verified, not) = result.by_kind.entry(sample.kind).or_default();
        *(if sample.ok { verified } else { not }) += 1;
    }
    result.notes.push(format!(
        "operations verified / not, all phases: {}",
        result
            .by_kind
            .iter()
            .map(|(kind, (ok, not))| format!("{kind} {ok}/{not}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let open_ok = open.iter().filter(|s| s.ok).count();
    let open_secs = plan.open.as_secs_f64();
    let open_from = open_start.duration_since(epoch).as_secs_f64();
    let latency: Vec<(f64, f64)> = open
        .iter()
        .filter(|s| s.ok)
        .map(|s| (s.due_s - open_from, s.latency_us()))
        .collect();
    let edge_secs = edge_after.at.duration_since(edge_before.at).as_secs_f64();
    let per_op = |total: f64| total / open_ok.max(1) as f64;
    let wire_bytes = (edge_after.net.frame_bytes - edge_before.net.frame_bytes)
        + (edge_after.net.datagram_bytes - edge_before.net.datagram_bytes);
    let closed_from = closed_start.duration_since(epoch).as_secs_f64();
    let closed_secs = plan.closed.as_secs_f64();
    // Completion times of the verified operations that ended inside the
    // measured part of the closed phase.
    let completions: Vec<(f64, f64)> = closed
        .iter()
        .filter(|s| s.ok)
        .map(|s| (s.end_s - closed_from, 0.0))
        .filter(|&(at, _)| at < closed_secs)
        .collect();
    let per_window = |q: f64| {
        crate::stats::window_values(&latency, open_secs, OPEN_WINDOWS)
            .iter()
            .map(|w| format!("{:.0}", percentile(w, q).unwrap_or(0.0)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    result.notes.push(format!(
        "open-loop windows (us): p50 {} | p90 {}; closed-loop windows (ops/s): {}",
        per_window(0.5),
        per_window(0.9),
        crate::stats::window_values(&completions, closed_secs, CLOSED_WINDOWS)
            .iter()
            .map(|w| format!(
                "{:.0}",
                w.len() as f64 * CLOSED_WINDOWS as f64 / closed_secs
            ))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    result.notes.push(format!(
        "set-up times (s): {}",
        setup_times
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    // Gated: the metrics that repeat on this box (and set-up time, which
    // the contract gates whatever it does).  `rss_mb` is read where the
    // open phase ends: up to there every run has executed the operations
    // its schedule fixed, while the closed phase executes as many as the
    // box's speed of the minute allows and its in-memory disks grow with
    // them.
    result.end_to_end = vec![
        m("setup_s", median(&setup_times).unwrap_or(0.0)),
        m("wire_bytes_per_op", per_op(wire_bytes as f64)),
        m("rss_mb", edge_after.proc.rss_peak_mb),
    ];
    let windowed = |q: f64| windowed_percentile(&latency, open_secs, OPEN_WINDOWS, q);
    result.timed = vec![
        m(
            "loadgen.goodput_ops_s",
            completions.len() as f64 / closed_secs,
        ),
        m("loadgen.p50_us", windowed(0.5).unwrap_or(0.0)),
        m("loadgen.p90_us", windowed(0.9).unwrap_or(0.0)),
        m(
            "loadgen.cpu_us_per_op",
            per_op((edge_after.proc.cpu_s - edge_before.proc.cpu_s) * 1e6),
        ),
        m("loadgen.fail_share", ratio(result.failed, result.attempted)),
    ];

    // -- per-layer metrics -------------------------------------------------------
    if let (Some(before), Some(after)) = (&deep_before, &deep_after) {
        let (summary, trace_json) = {
            let tracers: Vec<&crate::trace::Tracer> = lanes.iter().map(|l| &l.tracer).collect();
            (
                summarize(&tracers),
                crate::trace::to_json(workload.name(), seed, &tracers),
            )
        };
        let probes = probe(&building, &schedules[0]);
        let deltas = DaemonDeltas::between(before, after);
        let inputs = LayerInputs {
            plan,
            open: &open,
            scheduled: schedules.iter().map(Vec::len).sum(),
            timed: &result.timed,
            summary: &summary,
            probes: &probes,
            deltas: &deltas,
            before,
            after,
            edge_before: &edge_before,
            edge_after: &edge_after,
            edge_secs,
            disturbance: &disturbance,
            lanes: &mut lanes,
            building: &building,
            wire_bytes,
        };
        result.per_layer = per_layer(inputs, &mut result.notes);
        if summary.coverage() < 0.9 {
            result.violations.push(format!(
                "child spans cover {:.1} % of operation time, below 90 %",
                summary.coverage() * 100.0
            ));
        }
        result.trace_json = Some(trace_json);
    }

    let ledgers: Vec<&Ledger> = lanes.iter().map(|l| &l.ledger).collect();
    result.judge(workload, &ledgers);
    drop(lanes);
    if let Some(disturber) = disturber {
        disturber.shutdown();
    }
    building.shutdown();
    Ok(result)
}

// ---------------------------------------------------------------------------
// Verification
// ---------------------------------------------------------------------------

/// End-of-run output checks; every violation is one line.
fn verify(workload: Workload, building: &Building, lanes: &mut [Lane], bad: &mut Vec<String>) {
    let rates = workload.rates();
    let net = &building.env.net;
    let admin = building.env.admin;

    if rates.login > 0.0 {
        // One `workspaceReady` per accepted press — no more (nothing for
        // unknown fingers), no fewer — once the cascade has drained.
        //
        // A lane that does not see the workspace within its wait presses
        // again and counts the press as a lost cascade.  With nothing
        // disturbing the building that can only be a late one (the box
        // stood still for a moment), so every event must still arrive.
        // Under `building_day`'s live upgrades a cascade can really lose an
        // event (a notification that meets a quiescing daemon is bounced
        // and not re-sent), so up to that many may be missing.
        let accepted: u64 = lanes.iter().map(|l| l.tallies.accepted_presses).sum();
        let unseen: u64 = lanes.iter().map(|l| l.tallies.lost_chains).sum();
        let may_miss = if workload == Workload::BuildingDay {
            unseen
        } else {
            0
        };
        let deadline = Instant::now() + Duration::from_secs(2);
        while building.sink_state.total() + may_miss < accepted && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        std::thread::sleep(Duration::from_millis(50));
        let seen = building.sink_state.total();
        if seen > accepted || seen + may_miss < accepted {
            bad.push(format!(
                "{accepted} presses were accepted ({unseen} pressed again for want of a workspace, {may_miss} may have lost their cascade) but the access points saw {seen} workspaceReady events"
            ));
        }
        if building.sink_state.malformed() > 0 {
            bad.push(format!(
                "{} workspaceReady events without user or access host",
                building.sink_state.malformed()
            ));
        }
        for lane in lanes.iter() {
            for event in building.sink_state.drain(lane.id) {
                // Late twins of re-pressed logins are legitimate; an event
                // for a user this lane never logged in is not.
                if !lane.last_room.contains_key(&event.user) {
                    bad.push(format!(
                        "workspaceReady for u{:04} at {}, who never logged in",
                        event.user, event.access_host
                    ));
                }
            }
        }
        match building
            .env
            .client("wss")
            .and_then(|mut c| c.call(&CmdLine::new("wssStats")))
        {
            Ok(stats) if stats.get_int("shows") == Some(seen as i64) => {}
            Ok(stats) => bad.push(format!(
                "wssStats.shows is {:?}, the access points saw {seen} workspaceReady events",
                stats.get_int("shows")
            )),
            Err(e) => bad.push(format!("wssStats: {e}")),
        }
        // The AUD's idea of where 50 sampled users are.
        match building.env.client("aud") {
            Ok(mut aud) => {
                for lane in lanes.iter() {
                    let mut users: Vec<(&u32, &u8)> = lane.last_room.iter().collect();
                    users.sort();
                    let step = (users.len() / 25).max(1);
                    for (&user, &room) in users.into_iter().step_by(step) {
                        let reply = aud.call(
                            &CmdLine::new("getLocation").arg("username", user_name(user as usize)),
                        );
                        let at = reply.as_ref().ok().and_then(|r| r.get_text("room"));
                        if at != Some(room_name(room as usize).as_str()) {
                            bad.push(format!(
                                "AUD places u{user:04} at {at:?}, last login was in {}",
                                room_name(room as usize)
                            ));
                        }
                        let host = reply.as_ref().ok().and_then(|r| r.get_text("host"));
                        if host != Some(access_host(room as usize).as_str()) {
                            bad.push(format!("AUD has u{user:04} at access host {host:?}"));
                        }
                    }
                }
            }
            Err(e) => bad.push(format!("connect AUD: {e}")),
        }
    }

    if rates.device > 0.0 {
        // Every device shows what its single writer last told it.
        for lane in lanes.iter() {
            let mut devices: Vec<(&(DeviceKind, u8), _)> = lane.device_last.iter().collect();
            devices.sort_by_key(|(k, _)| **k);
            for (&(kind, room), &cmd) in devices {
                if workload == Workload::BuildingDay && (kind, room as usize) == CRASH_VICTIM {
                    // Crashed and restarted from nothing: its state is gone
                    // by design of the disturbance.
                    continue;
                }
                let name = kind.daemon_name(room as usize);
                let status = ServiceClient::connect(
                    net,
                    &"core".into(),
                    Building::device_addr(kind, room as usize),
                    &admin,
                )
                .and_then(|mut c| c.call(&status_cmd(kind)));
                match status {
                    Ok(status) => {
                        if let Err(why) = status_matches(kind, &status, cmd) {
                            bad.push(format!("{name} at end of run: {why}"));
                        }
                    }
                    Err(e) => bad.push(format!("{name} status at end of run: {e}")),
                }
            }
            let intruders = lane
                .samples
                .iter()
                .filter(|s| s.kind == "device.denied")
                .count() as u64;
            if lane.tallies.denied_as_expected != intruders {
                bad.push(format!(
                    "lane {}: {} of {intruders} attempts without a credential were denied",
                    lane.id, lane.tallies.denied_as_expected
                ));
            }
        }
    }

    if rates.store > 0.0 {
        for lane in lanes.iter_mut() {
            bad.extend(lane.sweep_store().into_iter().take(10));
            bad.extend(lane.sweep_media(10));
        }
        if workload == Workload::BuildingDay {
            // No acknowledged write may be missing from the group whose
            // replica was rebuilt: a majority of its disks hold it.
            let (g, _) = REBUILT_REPLICA;
            let mut missing = 0;
            for lane in lanes.iter() {
                for (&key, state) in &lane.keys {
                    let name = crate::building::store_key(key as usize);
                    if building.store.placement.group_for(STORE_NS, &name) != g {
                        continue;
                    }
                    let holders = building.store.groups[g]
                        .iter()
                        .filter(|(_, disk)| {
                            disk.get(&(STORE_NS.to_string(), name.clone()))
                                .is_some_and(|v| state.accepts(key, &v.data))
                        })
                        .count();
                    if holders < REPLICATION / 2 + 1 {
                        missing += 1;
                    }
                }
            }
            if missing > 0 {
                bad.push(format!(
                    "{missing} acknowledged writes are on fewer than a majority of group {g}'s disks"
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Per-layer metrics
// ---------------------------------------------------------------------------

struct LayerInputs<'a> {
    plan: Plan,
    open: &'a [&'a Sample],
    scheduled: usize,
    timed: &'a [Metric],
    summary: &'a TraceSummary,
    probes: &'a ProbeReport,
    deltas: &'a DaemonDeltas,
    before: &'a DeepSnapshot,
    after: &'a DeepSnapshot,
    edge_before: &'a EdgeSnapshot,
    edge_after: &'a EdgeSnapshot,
    edge_secs: f64,
    disturbance: &'a DisturbanceLog,
    lanes: &'a mut Vec<Lane>,
    building: &'a Building,
    wire_bytes: u64,
}

const ALL: &[&str] = &[""];
const SHARD_REPLICAS: &[&str] = &["store-s"];
const ASD_SHARDS: &[&str] = &["asd-s"];
const DEVICES: &[&str] = &["camera_", "projector_"];

fn per_layer(x: LayerInputs<'_>, notes: &mut Vec<String>) -> Vec<Metric> {
    let n = x.open.iter().filter(|s| s.ok).count().max(1) as f64;
    let per_op = |count: u64| count as f64 / n;
    let d = x.deltas;
    let s = x.summary;
    let p = x.probes;
    let client = |name: &str| client_delta(x.before, x.after, name);
    let mut out = Vec::new();

    // generator
    let latencies: Vec<f64> = x
        .open
        .iter()
        .filter(|s| s.ok)
        .map(|s| s.latency_us())
        .collect();
    let lateness: Vec<f64> = x.open.iter().map(|s| s.lateness_us()).collect();
    let late = lateness.iter().filter(|&&us| us > LATE_US).count();
    let op_time_us = s.op_time_us.max(1.0);
    let represses: u64 = x.lanes.iter().map(|l| l.tallies.represses).sum();
    out.extend([
        m(
            "loadgen.offered_ops_s",
            x.scheduled as f64 / x.plan.open.as_secs_f64(),
        ),
        m(
            "loadgen.late_p99_us",
            percentile(&lateness, 0.99).unwrap_or(0.0),
        ),
        m(
            "loadgen.late_share",
            late as f64 / lateness.len().max(1) as f64,
        ),
    ]);
    out.extend(x.timed.iter().cloned());
    out.extend([
        m(
            "loadgen.p99_us",
            percentile(&latencies, 0.99).unwrap_or(0.0),
        ),
        m("loadgen.max_us", percentile(&latencies, 1.0).unwrap_or(0.0)),
        m("loadgen.samples", latencies.len() as f64),
        m(
            "loadgen.trace_overhead_share",
            s.spans as f64 * span_cost_ns() / 1e3 / op_time_us,
        ),
        m("loadgen.span_coverage", s.coverage()),
        m("loadgen.represses", represses as f64),
    ]);

    // lang, cipher, keynote, protocol: probes
    let (auth_hits, auth_misses) = (
        d.counter(DEVICES, "auth.cache_hits"),
        d.counter(DEVICES, "auth.cache_misses"),
    );
    out.extend([
        m("lang.parse_ns_per_cmd", p.parse_ns_per_cmd),
        m("lang.validate_ns_per_cmd", p.validate_ns_per_cmd),
        m("lang.render_ns_per_cmd", p.render_ns_per_cmd),
        m("lang.wire_bytes_per_cmd", p.wire_bytes_per_cmd),
        m("cipher.seal_ns_per_frame", p.seal_ns_per_frame),
        m("cipher.open_ns_per_frame", p.open_ns_per_frame),
        m("cipher.handshake_us", p.handshake_us),
        m("cipher.resume_us", p.resume_us),
        m("keynote.check_miss_us", p.keynote_miss_us),
        m("keynote.check_hit_us", p.keynote_hit_us),
        m(
            "keynote.cache_hit_ratio",
            ratio(auth_hits, auth_hits + auth_misses),
        ),
        m(
            "keynote.credential_fetches_per_op",
            per_op(d.histogram(&["authdb"], "cmd.fetchCredentials").0),
        ),
        m("protocol.hex_encode_ns_per_kib", p.hex_encode_ns_per_kib),
        m("protocol.hex_decode_ns_per_kib", p.hex_decode_ns_per_kib),
    ]);

    // net
    let net = x.edge_after.net.since(&x.edge_before.net);
    out.extend([
        m("net.frames_per_op", per_op(net.frames)),
        m("net.bytes_per_frame", ratio(net.frame_bytes, net.frames)),
        m("net.connections_per_op", per_op(net.connections)),
        m("net.datagrams_per_op", per_op(net.datagrams)),
    ]);
    debug_assert_eq!(net.frame_bytes + net.datagram_bytes, x.wire_bytes);

    // core::link / core::pool (client side)
    let (resumes, handshakes) = (client("link.resume_hits"), client("link.full_handshakes"));
    out.extend([
        m("link.ping_rtt_us", p.ping_rtt_us),
        m("pool.checkout_us", s.mean_us("pool.checkout")),
        m(
            "pool.reuse_ratio",
            ratio(client("pool.reused"), client("pool.checkouts")),
        ),
        m("link.resume_ratio", ratio(resumes, resumes + handshakes)),
        m("link.full_handshakes", handshakes as f64),
    ]);

    // core::daemon, core::admission
    let (busiest, busy_share) = d.busiest(Duration::from_secs_f64(x.edge_secs));
    notes.push(format!(
        "busiest daemon: {busiest} ({:.1} % of the open phase executing commands)",
        busy_share * 100.0
    ));
    notes.push(format!(
        "commands served over the open phase: {}",
        d.commands()
            .iter()
            .map(|(command, calls)| format!("{command} {calls}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    // The slowest single service times any daemon has on record (since it
    // started, so set-up counts): where to look after a stall.
    let mut slowest: Vec<(u64, &String, &String)> = x
        .after
        .daemons
        .iter()
        .flat_map(|(daemon, report)| {
            report
                .histograms
                .iter()
                .map(move |(name, row)| (row.max_us, daemon, name))
        })
        .collect();
    slowest.sort_unstable_by(|a, b| b.cmp(a));
    notes.push(format!(
        "slowest on record: {}",
        slowest
            .iter()
            .take(6)
            .map(|(us, daemon, name)| format!("{daemon} {name} {:.1} ms", *us as f64 / 1e3))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let shed = d.counter(ALL, "shed.bulkFull")
        + d.counter(ALL, "shed.priorityFull")
        + d.counter(ALL, "shed.queueWait");
    out.extend([
        m(
            "daemon.queue_wait_mean_us",
            d.mean_us(ALL, "control.queueWait"),
        ),
        m(
            "daemon.shell_overhead_us",
            (p.ping_rtt_us - p.ping_service_us).max(0.0),
        ),
        m("daemon.busy_share_max", busy_share),
        m("daemon.cmd_errors", d.counter(ALL, "cmd.errors") as f64),
        m("daemon.cmd_rejected", d.counter(ALL, "cmd.rejected") as f64),
        m(
            "admission.admitted_per_op",
            per_op(d.counter(ALL, "admit.bulk") + d.counter(ALL, "admit.priority")),
        ),
        m("admission.shed_per_op", per_op(shed)),
        m(
            "admission.deadline_shed_per_op",
            per_op(d.counter(ALL, "shed.deadline")),
        ),
    ]);

    // core::notify
    let hops = d.histogram(&["idmonitor"], "cmd.onIdentified").0
        + d.histogram(&["wss"], "cmd.onUserAt").0
        + d.histogram(&["sink"], "cmd.onWorkspaceReady").0;
    out.extend([
        m(
            "notify.delivered_per_op",
            per_op(d.counter(ALL, "notify.delivered")),
        ),
        m(
            "notify.drops",
            (d.counter(ALL, "notify.drops") + d.counter(ALL, "notify.shed")) as f64,
        ),
        m("notify.latency_mean_us", d.mean_us(ALL, "notify.latency")),
        m("notify.chain_us", s.percentile_us("notify.chain", 0.5)),
        m("notify.hops_per_op", per_op(hops)),
    ]);

    // core::failover / breaker / retry (client side)
    let (hits, misses) = (client("resolve.cache_hits"), client("resolve.cache_misses"));
    let repeated = d.counter(ALL, "upgrade.rejected") + shed + client("pool.stale");
    out.extend([
        m("failover.resolutions_per_op", per_op(misses)),
        m("failover.cache_hit_ratio", ratio(hits, hits + misses)),
        m("failover.retries_per_op", per_op(repeated)),
        m("breaker.fast_fails", client("breaker.rejected") as f64),
    ]);

    // core::runtime
    let runtime = Runtime::global();
    out.extend([
        m(
            "runtime.polls_per_op",
            per_op(x.edge_after.polls - x.edge_before.polls),
        ),
        m(
            "runtime.long_polls",
            (x.edge_after.long_polls - x.edge_before.long_polls) as f64,
        ),
        m("runtime.tasks_live", runtime.tasks_live() as f64),
        m("runtime.workers", runtime.workers_live() as f64),
    ]);

    // core::supervise and the demoted stall metric
    let pauses: Vec<f64> = x
        .disturbance
        .upgrades
        .iter()
        .map(|u| u.stats.pause.as_secs_f64() * 1e3)
        .collect();
    let restores: Vec<f64> = x
        .disturbance
        .upgrades
        .iter()
        .map(|u| u.stats.restore.as_secs_f64() * 1e3)
        .collect();
    let stalls: Vec<f64> = x
        .disturbance
        .upgrades
        .iter()
        .filter_map(|u| {
            let addressed = |s: &&&Sample| match u.service {
                "idmonitor" | "sal" => s.class == Class::Login && s.kind != "login.unknown",
                service => s
                    .device
                    .is_some_and(|kind| kind.daemon_name(s.room as usize) == service),
            };
            x.open
                .iter()
                .filter(addressed)
                .filter(|s| s.due_s <= u.end_s && s.end_s >= u.start_s)
                .map(|s| s.latency_us() / 1e3)
                .max_by(f64::total_cmp)
        })
        .collect();
    if !x.disturbance.upgrades.is_empty() {
        notes.push(format!(
            "upgrades: {}; {} of {} had an operation in flight",
            x.disturbance
                .upgrades
                .iter()
                .map(|u| format!("{} {:.1} ms", u.service, u.stats.pause.as_secs_f64() * 1e3))
                .collect::<Vec<_>>()
                .join(", "),
            stalls.len(),
            x.disturbance.upgrades.len()
        ));
    }
    out.extend([
        m(
            "supervise.upgrade_pause_p50_ms",
            median(&pauses).unwrap_or(0.0),
        ),
        m("supervise.restore_p50_ms", median(&restores).unwrap_or(0.0)),
        m(
            "supervise.crash_recovery_ms",
            x.disturbance.crash_recovery_ms,
        ),
        m("upgrade.stall_ms", median(&stalls).unwrap_or(0.0)),
    ]);

    // directory
    // What the shards were asked, not what the schedule meant to ask: every
    // `lookup` a shard replica served, less the name lookups behind the
    // clients' resolution-cache misses (one replica each), is a class /
    // room query, and each of those goes to every shard.
    let fanouts = d
        .histogram(ASD_SHARDS, "cmd.lookup")
        .0
        .saturating_sub(misses) as f64
        / crate::building::SHARDS as f64;
    out.extend([
        m("directory.lookup_name_us", p.lookup_name_us),
        m(
            "directory.lookup_fanout_us",
            s.percentile_us("directory.lookup_fanout", 0.5),
        ),
        m("directory.register_us", x.building.setup.register_us),
        m("directory.fanouts_per_op", fanouts / n),
        m(
            "directory.repairs",
            (x.after.registrar_repairs - x.before.registrar_repairs) as f64,
        ),
        m(
            "directory.replica_failover_ms",
            x.disturbance.replica_failover_ms,
        ),
        m(
            "directory.partial_answers",
            x.lanes
                .iter()
                .map(|l| l.tallies.partial_lookups)
                .sum::<u64>() as f64,
        ),
        m(
            "asd.lookup_service_mean_us",
            d.mean_us(ASD_SHARDS, "cmd.lookup"),
        ),
        m(
            "asd.entries",
            d.gauge_sum(ASD_SHARDS, "asd.leases") as f64 / REPLICATION as f64,
        ),
    ]);

    // identity / workspace / resources / Net Logger
    out.extend([
        m(
            "identity.press_sync_us",
            s.percentile_us("identity.press", 0.5),
        ),
        m(
            "identity.press_service_mean_us",
            d.mean_us(&["fiu_"], "cmd.press"),
        ),
        m(
            "identity.find_service_mean_us",
            d.mean_us(&["aud"], "cmd.findByFingerprint"),
        ),
        m(
            "identity.set_location_service_mean_us",
            d.mean_us(&["aud"], "cmd.setLocation"),
        ),
        m(
            "workspace.user_at_service_mean_us",
            d.mean_us(&["wss"], "cmd.onUserAt"),
        ),
        m(
            "resources.launch_service_mean_us",
            d.mean_us(&["sal"], "cmd.launch"),
        ),
        m(
            "netlogger.log_service_mean_us",
            d.mean_us(&["netlogger"], "cmd.log"),
        ),
        m(
            "netlogger.shed_records",
            d.counter(&["netlogger"], "shed.records") as f64,
        ),
    ]);

    // store
    let mut sharded = ace_store::ShardedStats::default();
    let mut degraded = 0;
    for lane in x.lanes.iter_mut() {
        if let Some((stats, lane_degraded)) = lane.store_stats() {
            sharded.leased_reads += stats.leased_reads;
            sharded.quorum_fallbacks += stats.quorum_fallbacks;
            sharded.lease_grants += stats.lease_grants;
            sharded.lease_losses += stats.lease_losses;
            degraded += lane_degraded;
        }
    }
    out.extend([
        m("store.get_p50_us", s.percentile_us("store.get", 0.5)),
        m("store.get_p90_us", s.percentile_us("store.get", 0.9)),
        m("store.put_p50_us", s.percentile_us("store.put", 0.5)),
        m("store.put_p90_us", s.percentile_us("store.put", 0.9)),
        m(
            "store.put_many_us_per_key",
            s.mean_us("store.put_many") / STORE_BATCH_KEYS as f64,
        ),
        m("store.ingest_p50_us", s.percentile_us("store.ingest", 0.5)),
        m(
            "store.leased_read_ratio",
            ratio(
                sharded.leased_reads,
                sharded.leased_reads + sharded.quorum_fallbacks,
            ),
        ),
        m("store.lease_grants", sharded.lease_grants as f64),
        m("store.lease_losses", sharded.lease_losses as f64),
        m("store.quorum_fallbacks", sharded.quorum_fallbacks as f64),
        m("store.degraded_writes", degraded as f64),
        m("store.rebuild_ms", x.disturbance.rebuild_ms),
        m(
            "replica.put_service_mean_us",
            d.mean_us(SHARD_REPLICAS, "cmd.psPut"),
        ),
        m(
            "replica.get_leased_service_mean_us",
            d.mean_us(SHARD_REPLICAS, "cmd.psGetLeased"),
        ),
        m(
            "replica.put_batch_service_mean_us",
            d.mean_us(SHARD_REPLICAS, "cmd.psPutBatch"),
        ),
    ]);

    // store::wal
    let count = |kind: &str| x.open.iter().filter(|s| s.ok && s.kind == kind).count() as u64;
    let (puts, batches, pushes) = (
        count("store.put"),
        count("store.put_many"),
        count("store.push"),
    );
    let user_records = puts + batches * STORE_BATCH_KEYS as u64 + pushes;
    let user_bytes = puts * VALUE_BYTES as u64
        + batches * (STORE_BATCH_KEYS * STORE_BATCH_VALUE_BYTES) as u64
        + pushes * MEDIA_FRAME_BYTES as u64;
    let wal = |f: fn(&ace_store::WalStats) -> u64| f(&x.after.wal).saturating_sub(f(&x.before.wal));
    out.extend([
        m(
            "wal.appends_per_write",
            ratio(wal(|w| w.appends), user_records),
        ),
        m(
            "wal.records_per_fsync",
            ratio(wal(|w| w.appends), wal(|w| w.fsyncs)),
        ),
        m(
            "wal.bytes_per_user_byte",
            ratio(wal(|w| w.append_bytes), user_bytes),
        ),
        m("wal.compactions", wal(|w| w.compactions) as f64),
        m("wal.apply_us", p.wal_apply_us),
    ]);

    // process
    out.extend([
        m("proc.threads", x.edge_after.proc.threads as f64),
        m(
            "proc.ctx_switches_per_op",
            per_op(x.edge_after.proc.ctx_switches - x.edge_before.proc.ctx_switches),
        ),
    ]);

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::building::value_bytes;
    use crate::drive::{check_get, Fault, KeyState};

    fn after(attempted: u64, failed: u64) -> RunResult {
        RunResult {
            attempted,
            failed,
            ..RunResult::default()
        }
    }

    #[test]
    fn a_wrong_reply_or_an_undisturbed_failure_makes_the_run_incorrect() {
        // A replica answers a read with the version before the last
        // acknowledged one.
        let state = KeyState {
            version: 2,
            len: VALUE_BYTES,
            maybe: None,
        };
        let stale = check_get(7, state, Ok(value_bytes(7, 1, VALUE_BYTES))).unwrap_err();
        assert!(matches!(stale, Fault::Wrong(_)));
        let refused = Fault::Failed("connection refused".into());

        for workload in Workload::ALL {
            let name = workload.name();
            let mut clean = after(1000, 0);
            clean.judge(workload, &[&Ledger::default(), &Ledger::default()]);
            assert!(clean.correct, "{name}");

            let mut ledger = Ledger::default();
            ledger.note(7, "store.get", &stale);
            let mut run = after(1000, 1);
            run.judge(workload, &[&Ledger::default(), &ledger]);
            assert!(!run.correct, "{name}: a stale read went through");
            assert_eq!(run.violations.len(), 1, "{name}: {:?}", run.violations);

            // Refused connections are violations unless the workload takes
            // daemons down on purpose.
            let mut ledger = Ledger::default();
            ledger.note(9, "device.warm", &refused);
            let mut run = after(1000, 1);
            run.judge(workload, &[&ledger]);
            assert_eq!(run.correct, workload == Workload::BuildingDay, "{name}");
            assert_eq!(run.failures.len(), 1);
        }

        // More wrong answers than messages kept: the rest are counted.
        let mut ledger = Ledger::default();
        for op in 0..30 {
            ledger.note(op, "store.get", &stale);
        }
        let mut run = after(1000, 30);
        run.judge(Workload::BuildingDay, &[&ledger]);
        assert_eq!(run.violations.len(), 21);
        assert!(run.violations[20].contains("10 more"));
    }
}
