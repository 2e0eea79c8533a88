//! Per-layer numbers, all taken from outside the crates under test.
//!
//! Three sources, matching the README's layer table:
//!
//! * **C** — before/after deltas of surfaces the system already exposes:
//!   every daemon's `aceStats`, `SimNet::metrics()`, the runtime's poll
//!   counters, `DiskImage::wal_stats()`, the client-side registry the
//!   pools and caches count in, and `/proc/self`;
//! * **P** — probes: after the traced phase, inputs the schedule really
//!   sent are replayed through a layer's public function in a tight loop;
//! * **S** — spans (see [`crate::trace`]).
//!
//! From `aceStats` histograms only `count` and `mean_us` are used — their
//! quantiles are power-of-two-bucket estimates.

use crate::building::{
    room_name, store_key, value_bytes, Building, DeviceKind, DeviceShell, STORE_NS, VALUE_BYTES,
};
use crate::schedule::{Action, DeviceCmd, LoginMethod, Op};
use ace_core::prelude::*;
use ace_core::protocol::{base_semantics, hex_decode, hex_encode};
use ace_core::{action_env_for, Runtime, StatsReport};
use ace_identity::{Fiu, IButtonReader, RemoteCredentials, ScannerDevice};
use ace_net::MetricsSnapshot;
use ace_security::cipher::{SecureChannel, SessionKey};
use ace_security::keynote::{ActionEnv, Assertion, KeyNoteEngine, Licensees, POLICY};
use ace_security::keys::KeyPair;
use ace_store::{DiskImage, MemStorage, StorageHandle, StoreReplica, WalConfig, WalStats};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// /proc/self
// ---------------------------------------------------------------------------

/// Process-wide CPU time, context switches, thread count and peak resident
/// set size (`VmHWM`) so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSnapshot {
    pub cpu_s: f64,
    pub ctx_switches: u64,
    pub threads: u64,
    pub rss_peak_mb: f64,
}

fn status_field(text: &str, field: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

impl ProcSnapshot {
    pub fn take() -> ProcSnapshot {
        // utime + stime of the whole process, in clock ticks (USER_HZ is
        // 100 on every Linux this runs on).
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        let after_comm = stat.rsplit(')').next().unwrap_or("");
        let fields: Vec<&str> = after_comm.split_whitespace().collect();
        let ticks = |i: usize| {
            fields
                .get(i)
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        let cpu_s = (ticks(11) + ticks(12)) / 100.0;
        // Context switches are per thread; sum over the task directory.
        let mut ctx_switches = 0;
        if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
            for task in tasks.flatten() {
                if let Ok(status) = std::fs::read_to_string(task.path().join("status")) {
                    ctx_switches += status_field(&status, "voluntary_ctxt_switches").unwrap_or(0)
                        + status_field(&status, "nonvoluntary_ctxt_switches").unwrap_or(0);
                }
            }
        }
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        ProcSnapshot {
            cpu_s,
            ctx_switches,
            threads: status_field(&status, "Threads").unwrap_or(0),
            rss_peak_mb: status_field(&status, "VmHWM").unwrap_or(0) as f64 / 1024.0,
        }
    }
}

// ---------------------------------------------------------------------------
// Counter snapshots
// ---------------------------------------------------------------------------

/// The cheap snapshot every run takes at the edges of the open phase.
#[derive(Debug, Clone, Copy)]
pub struct EdgeSnapshot {
    pub at: Instant,
    pub proc: ProcSnapshot,
    pub net: MetricsSnapshot,
    pub polls: u64,
    pub long_polls: u64,
}

impl EdgeSnapshot {
    pub fn take(net: &SimNet) -> EdgeSnapshot {
        EdgeSnapshot {
            at: Instant::now(),
            proc: ProcSnapshot::take(),
            net: net.metrics().snapshot(),
            polls: Runtime::global().polls(),
            long_polls: Runtime::global().long_polls(),
        }
    }
}

/// `aceStats` of every daemon in the building plus the in-process
/// surfaces, taken at the edges of a traced phase.
pub struct DeepSnapshot {
    pub daemons: BTreeMap<String, StatsReport>,
    pub client: ace_core::RegistrySnapshot,
    pub wal: WalStats,
    pub registrar_repairs: u64,
}

/// Every daemon of the building by name.  The AuthDB comes last: sweeping
/// the KeyNote-guarded devices makes them fetch the admin's (empty)
/// credential set once, and those fetches must land outside the window the
/// AuthDB's own counters bracket.
pub fn sweep_targets(building: &Building) -> Vec<(String, Addr)> {
    let mut targets: Vec<(String, Addr)> = Vec::new();
    let mut push = |h: &DaemonHandle| targets.push((h.name().to_string(), h.addr().clone()));
    for h in building.env.daemons.values() {
        if h.name() != "authdb" {
            push(h);
        }
    }
    for h in [
        &building.env.fw.asd,
        &building.env.fw.roomdb,
        &building.env.fw.logger,
    ] {
        push(h);
    }
    for (h, _) in building.env.store.iter().flat_map(|c| c.replicas.iter()) {
        push(h);
    }
    for h in building.directory.handles.iter().flatten() {
        push(h);
    }
    for (h, _) in building.store.groups.iter().flatten() {
        push(h);
    }
    for room in &building.rooms {
        push(&room.fiu);
        push(&room.ibutton);
    }
    for h in [&building.sink, &building.media, &building.invalidator] {
        push(h);
    }
    targets.sort();
    let authdb = &building.env.daemons["authdb"];
    targets.push((authdb.name().to_string(), authdb.addr().clone()));
    targets
}

/// Sum of the write-ahead-log counters over every store replica the
/// building holds a disk image of (both planes).
fn wal_totals(building: &Building) -> WalStats {
    let disks = building
        .store
        .groups
        .iter()
        .flatten()
        .map(|(_, disk)| disk)
        .chain(
            building
                .env
                .store
                .iter()
                .flat_map(|c| c.replicas.iter().map(|(_, disk)| disk)),
        );
    let mut total = WalStats::default();
    for stats in disks.filter_map(DiskImage::wal_stats) {
        total.appends += stats.appends;
        total.append_bytes += stats.append_bytes;
        total.compactions += stats.compactions;
        total.batches += stats.batches;
        total.fsyncs += stats.fsyncs;
    }
    total
}

impl DeepSnapshot {
    /// `reverse` walks the targets back to front, so the AuthDB is read
    /// first on the closing sweep (see [`sweep_targets`]).
    pub fn take(
        building: &Building,
        pool: &Arc<LinkPool>,
        targets: &[(String, Addr)],
        reverse: bool,
    ) -> DeepSnapshot {
        let mut daemons = BTreeMap::new();
        let order: Vec<&(String, Addr)> = if reverse {
            targets.iter().rev().collect()
        } else {
            targets.iter().collect()
        };
        for (name, addr) in order {
            // A daemon that is down right now (mid-swap, crashed) simply
            // has no row; deltas treat a missing side as zero.
            if let Ok(reply) = pool
                .checkout(addr)
                .and_then(|mut link| link.call(&CmdLine::new("aceStats")))
            {
                daemons.insert(name.clone(), StatsReport::from_cmdline(&reply));
            }
        }
        DeepSnapshot {
            daemons,
            client: building.client_metrics.snapshot(),
            wal: wal_totals(building),
            registrar_repairs: building.registrar.repairs(),
        }
    }
}

/// A counter's growth between two readings.  A reading lower than the one
/// before means the daemon restarted in between (a live upgrade gives the
/// replacement a fresh registry): what it counted since then is the delta.
fn grown(before: u64, after: u64) -> u64 {
    if after >= before {
        after - before
    } else {
        after
    }
}

/// Deltas of every daemon's counters and histogram totals over a phase.
pub struct DaemonDeltas {
    /// daemon → counter → growth.
    counters: BTreeMap<String, BTreeMap<String, u64>>,
    /// daemon → histogram → (count growth, µs growth).
    histograms: BTreeMap<String, BTreeMap<String, (u64, f64)>>,
    /// Gauges as of the closing sweep.
    gauges: BTreeMap<String, BTreeMap<String, i64>>,
}

impl DaemonDeltas {
    pub fn between(before: &DeepSnapshot, after: &DeepSnapshot) -> DaemonDeltas {
        let mut counters = BTreeMap::new();
        let mut histograms = BTreeMap::new();
        let mut gauges = BTreeMap::new();
        let empty = StatsReport::default();
        for (name, end) in &after.daemons {
            let start = before.daemons.get(name).unwrap_or(&empty);
            let restarted = end.gauges.get("daemon.incarnation")
                != start.gauges.get("daemon.incarnation")
                && !start.gauges.is_empty();
            let c: BTreeMap<String, u64> = end
                .counters
                .iter()
                .map(|(k, &v)| {
                    let was = if restarted {
                        0
                    } else {
                        start.counters.get(k).copied().unwrap_or(0)
                    };
                    (k.clone(), grown(was, v))
                })
                .collect();
            let h: BTreeMap<String, (u64, f64)> = end
                .histograms
                .iter()
                .map(|(k, row)| {
                    let (c0, s0) = match start.histograms.get(k) {
                        Some(r) if !restarted && r.count <= row.count => {
                            (r.count, r.count as f64 * r.mean_us)
                        }
                        _ => (0, 0.0),
                    };
                    let sum = row.count as f64 * row.mean_us - s0;
                    (k.clone(), (row.count - c0, sum.max(0.0)))
                })
                .collect();
            counters.insert(name.clone(), c);
            histograms.insert(name.clone(), h);
            gauges.insert(name.clone(), end.gauges.clone());
        }
        DaemonDeltas {
            counters,
            histograms,
            gauges,
        }
    }

    /// Sum of counter `name` over daemons whose name starts with any of
    /// `prefixes` (`[""]` selects all).
    pub fn counter(&self, prefixes: &[&str], name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(d, _)| prefixes.iter().any(|p| d.starts_with(p)))
            .filter_map(|(_, c)| c.get(name))
            .sum()
    }

    /// (calls, total µs) of histogram `name` over the selected daemons.
    pub fn histogram(&self, prefixes: &[&str], name: &str) -> (u64, f64) {
        self.histograms
            .iter()
            .filter(|(d, _)| prefixes.iter().any(|p| d.starts_with(p)))
            .filter_map(|(_, h)| h.get(name))
            .fold((0, 0.0), |acc, &(c, s)| (acc.0 + c, acc.1 + s))
    }

    /// Mean µs of histogram `name` over the selected daemons (0 if idle).
    pub fn mean_us(&self, prefixes: &[&str], name: &str) -> f64 {
        let (calls, total) = self.histogram(prefixes, name);
        if calls == 0 {
            0.0
        } else {
            total / calls as f64
        }
    }

    /// Calls of every command over the phase, all daemons together, most
    /// frequent first.
    pub fn commands(&self) -> Vec<(String, u64)> {
        let mut calls: BTreeMap<&str, u64> = BTreeMap::new();
        for (name, &(count, _)) in self.histograms.values().flatten() {
            if let Some(command) = name.strip_prefix("cmd.") {
                *calls.entry(command).or_default() += count;
            }
        }
        let mut calls: Vec<(String, u64)> = calls
            .into_iter()
            .filter(|&(_, n)| n > 0)
            .map(|(c, n)| (c.to_string(), n))
            .collect();
        calls.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        calls
    }

    pub fn gauge_sum(&self, prefixes: &[&str], name: &str) -> i64 {
        self.gauges
            .iter()
            .filter(|(d, _)| prefixes.iter().any(|p| d.starts_with(p)))
            .filter_map(|(_, g)| g.get(name))
            .sum()
    }

    /// The daemon whose control loop spent the largest share of `span`
    /// executing commands (sum of its `cmd.*` service times), and that
    /// share.
    pub fn busiest(&self, span: Duration) -> (String, f64) {
        self.histograms
            .iter()
            .map(|(daemon, h)| {
                let busy_us: f64 = h
                    .iter()
                    .filter(|(name, _)| name.starts_with("cmd."))
                    .map(|(_, &(_, us))| us)
                    .sum();
                (daemon.clone(), busy_us / (span.as_secs_f64() * 1e6))
            })
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap_or_default()
    }
}

/// Growth of a client-side counter between two registry snapshots.
pub fn client_delta(before: &DeepSnapshot, after: &DeepSnapshot, name: &str) -> u64 {
    grown(
        before.client.counters.get(name).copied().unwrap_or(0),
        after.client.counters.get(name).copied().unwrap_or(0),
    )
}

pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

// ---------------------------------------------------------------------------
// Probes
// ---------------------------------------------------------------------------

/// What the probes measured; every field is a per-layer metric.
#[derive(Debug, Default, Clone)]
pub struct ProbeReport {
    pub parse_ns_per_cmd: f64,
    pub validate_ns_per_cmd: f64,
    pub render_ns_per_cmd: f64,
    pub wire_bytes_per_cmd: f64,
    pub seal_ns_per_frame: f64,
    pub open_ns_per_frame: f64,
    pub handshake_us: f64,
    pub resume_us: f64,
    pub keynote_miss_us: f64,
    pub keynote_hit_us: f64,
    pub hex_encode_ns_per_kib: f64,
    pub hex_decode_ns_per_kib: f64,
    pub ping_rtt_us: f64,
    pub ping_service_us: f64,
    pub lookup_name_us: f64,
    pub wal_apply_us: f64,
}

const PROBE_COMMANDS: usize = 10_000;

/// The command each of the first [`PROBE_COMMANDS`] scheduled operations
/// put on the wire first, paired with the vocabulary of the service that
/// received it.  Store operations are represented by the `psPut`/`psGet`
/// the store client sends on their behalf.
fn recorded_commands(ops: &[Op]) -> Vec<(CmdLine, usize)> {
    ops.iter()
        .take(PROBE_COMMANDS)
        .map(|op| match &op.action {
            Action::Login { user, method, .. } => match method {
                LoginMethod::IButton => (
                    CmdLine::new("touch").arg(
                        "serial",
                        Value::Str(crate::building::serial_of(*user as usize)),
                    ),
                    1,
                ),
                _ => (
                    CmdLine::new("press").arg(
                        "template",
                        Value::Str(crate::building::template_of(*user as usize)),
                    ),
                    0,
                ),
            },
            Action::Device { cmd, .. } => match *cmd {
                DeviceCmd::PtzMove { x, y, zoom } => (
                    CmdLine::new("ptzMove")
                        .arg("x", x)
                        .arg("y", y)
                        .arg("zoom", zoom),
                    2,
                ),
                DeviceCmd::ProjInput { source } => {
                    (CmdLine::new("projInput").arg("source", source), 3)
                }
            },
            Action::Intruder { .. } => (CmdLine::new("ptzMove").arg("x", 90.0), 2),
            Action::Get { key } => (
                CmdLine::new("psGetLeased")
                    .arg("ns", STORE_NS)
                    .arg("key", Value::Str(store_key(*key as usize))),
                4,
            ),
            Action::Put { key } | Action::PutMany { keys: [key, ..] } => (
                CmdLine::new("psPut")
                    .arg("ns", STORE_NS)
                    .arg("key", Value::Str(store_key(*key as usize)))
                    .arg("version", 2)
                    .arg("writer", Value::Str("rsa:probe".into()))
                    .arg("data", hex_encode(&value_bytes(*key, 1, VALUE_BYTES))),
                4,
            ),
            Action::MediaPush { seq } => (
                CmdLine::new("push")
                    .arg("stream", "cam0")
                    .arg("seq", *seq as i64)
                    .arg(
                        "data",
                        hex_encode(&crate::drive::Lane::media_frame(0, *seq)),
                    ),
                5,
            ),
        })
        .map(|(mut cmd, service)| {
            // What every client stamps before sending.
            cmd.set_deadline_ms(2000);
            (cmd, service)
        })
        .collect()
}

fn per_item_ns(started: Instant, items: usize) -> f64 {
    started.elapsed().as_nanos() as f64 / items.max(1) as f64
}

/// Run every probe.  `ops` is the open-phase schedule of one lane.
pub fn probe(building: &Building, ops: &[Op]) -> ProbeReport {
    let mut report = ProbeReport::default();
    let vocabularies: Vec<Semantics> = {
        let behaviors: [Box<dyn ServiceBehavior>; 6] = [
            Box::new(Fiu::new(ScannerDevice::default())),
            Box::new(IButtonReader::new()),
            Box::new(DeviceShell::new(DeviceKind::Camera)),
            Box::new(DeviceShell::new(DeviceKind::Projector)),
            Box::new(StoreReplica::new(
                DiskImage::new(),
                Duration::from_secs(3600),
            )),
            Box::new(ace_apps::FileStorage::new(Vec::new())),
        ];
        behaviors
            .iter()
            .map(|b| b.semantics().inheriting(&base_semantics()))
            .collect()
    };
    let commands = recorded_commands(ops);
    let n = commands.len();

    // lang: render, parse, validate — the three passes every command pays.
    let started = Instant::now();
    let wires: Vec<String> = commands.iter().map(|(c, _)| c.to_wire()).collect();
    report.render_ns_per_cmd = per_item_ns(started, n);
    report.wire_bytes_per_cmd =
        wires.iter().map(String::len).sum::<usize>() as f64 / n.max(1) as f64;
    let started = Instant::now();
    let parsed: Vec<CmdLine> = wires
        .iter()
        .map(|w| CmdLine::parse(black_box(w)).expect("own wire form parses"))
        .collect();
    report.parse_ns_per_cmd = per_item_ns(started, n);
    let started = Instant::now();
    for (cmd, (_, service)) in parsed.iter().zip(&commands) {
        black_box(vocabularies[*service].validate(black_box(cmd)))
            .expect("recorded commands are valid");
    }
    report.validate_ns_per_cmd = per_item_ns(started, n);

    // security::cipher: seal and open the same frames.
    let key = SessionKey::from_seed(0xace);
    let (mut tx, mut rx) = (SecureChannel::new(key), SecureChannel::new(key));
    let started = Instant::now();
    let sealed: Vec<Vec<u8>> = wires
        .iter()
        .map(|w| tx.seal(black_box(w.as_bytes())))
        .collect();
    report.seal_ns_per_frame = per_item_ns(started, n);
    let started = Instant::now();
    for frame in &sealed {
        black_box(rx.open(black_box(frame)).expect("own frames open"));
    }
    report.open_ns_per_frame = per_item_ns(started, n);

    // core::protocol hex codec, per KiB of the values the schedule carried.
    let blobs: Vec<Vec<u8>> = (0..512u32)
        .map(|i| value_bytes(i, 1, VALUE_BYTES))
        .collect();
    let started = Instant::now();
    let hexed: Vec<String> = blobs.iter().map(|b| hex_encode(black_box(b))).collect();
    report.hex_encode_ns_per_kib = per_item_ns(started, blobs.len());
    let started = Instant::now();
    for h in &hexed {
        black_box(hex_decode(black_box(h)).expect("own hex decodes"));
    }
    report.hex_decode_ns_per_kib = per_item_ns(started, hexed.len());

    let net = &building.env.net;
    let admin = building.env.admin;
    let from: HostId = "core".into();

    // core::link against an idle daemon: full handshake, resumed
    // handshake, and the round trip of the cheapest command there is.
    let target = building.invalidator.addr().clone();
    const DIALS: usize = 100;
    let started = Instant::now();
    for _ in 0..DIALS {
        black_box(ServiceClient::connect(net, &from, target.clone(), &admin).is_ok());
    }
    report.handshake_us = per_item_ns(started, DIALS) / 1e3;
    let tickets = TicketCache::new();
    let prime = ServiceClient::connect_resumable(net, &from, target.clone(), &admin, &tickets);
    drop(prime);
    let started = Instant::now();
    let mut resumed = 0;
    for _ in 0..DIALS {
        if let Ok(c) =
            ServiceClient::connect_resumable(net, &from, target.clone(), &admin, &tickets)
        {
            resumed += c.resumed() as usize;
        }
    }
    report.resume_us = if resumed == DIALS {
        per_item_ns(started, DIALS) / 1e3
    } else {
        0.0
    };
    if let Ok(mut link) = ServiceClient::connect(net, &from, target.clone(), &admin) {
        const PINGS: usize = 2000;
        let ping = CmdLine::new("ping");
        let before = building
            .invalidator
            .metrics()
            .histogram("cmd.ping")
            .snapshot();
        let started = Instant::now();
        for _ in 0..PINGS {
            black_box(link.call(&ping).is_ok());
        }
        report.ping_rtt_us = per_item_ns(started, PINGS) / 1e3;
        let after = building
            .invalidator
            .metrics()
            .histogram("cmd.ping")
            .snapshot();
        report.ping_service_us =
            (after.sum_us - before.sum_us) as f64 / (after.count - before.count).max(1) as f64;
    }

    // security::keynote + core::auth: the device guard's decision, with the
    // credential fetch from the live AuthDB (miss) and from its cache (hit).
    let user = &building.users[0];
    let envs: Vec<ActionEnv> = parsed
        .iter()
        .zip(&commands)
        .filter(|(_, (_, service))| *service == 2 || *service == 3)
        .take(300)
        .map(|(cmd, _)| {
            action_env_for(
                "camera_r00",
                "Service.Device.PTZCamera.VCC4",
                &room_name(0),
                cmd,
            )
        })
        .collect();
    let envs = if envs.is_empty() {
        vec![action_env_for(
            "camera_r00",
            "Service.Device.PTZCamera.VCC4",
            &room_name(0),
            &CmdLine::new("ptzMove").arg("x", 30.0),
        )]
    } else {
        envs
    };
    let guard = |cached: bool| {
        let mut engine = KeyNoteEngine::new();
        engine
            .add_policy(
                Assertion::new(POLICY, Licensees::Principal(admin.principal()), "true")
                    .expect("constant policy parses"),
            )
            .expect("policy assertions need no signature");
        let source = RemoteCredentials::new(
            net.clone(),
            from.clone(),
            building.authdb_addr.clone(),
            KeyPair::generate(&mut rand::thread_rng()),
        );
        let authorizer = Authorizer::with_source(engine, Arc::new(source));
        if cached {
            authorizer
        } else {
            authorizer.without_cache()
        }
    };
    let principal = user.key.principal();
    let uncached = guard(false);
    black_box(uncached.check(&principal, &envs[0])); // dial the AuthDB
    let started = Instant::now();
    for env in &envs {
        assert!(
            uncached.check(&principal, black_box(env)),
            "credentialed user denied"
        );
    }
    report.keynote_miss_us = per_item_ns(started, envs.len()) / 1e3;
    let cached = guard(true);
    for env in &envs {
        black_box(cached.check(&principal, env));
    }
    let started = Instant::now();
    for env in &envs {
        assert!(cached.check(&principal, black_box(env)));
    }
    report.keynote_hit_us = per_item_ns(started, envs.len()) / 1e3;

    // directory: a name lookup touches one shard.
    let pool = Arc::new(LinkPool::new(net, "core", admin));
    let mut directory = building.directory.client(pool);
    const LOOKUPS: usize = 400;
    let names: Vec<String> = (0..LOOKUPS)
        .map(|i| DeviceKind::Camera.daemon_name(i % crate::building::ROOMS))
        .collect();
    black_box(directory.lookup(Some(&names[0]), None, None).is_ok());
    let started = Instant::now();
    for name in &names {
        black_box(directory.lookup(Some(name), None, None).is_ok());
    }
    report.lookup_name_us = per_item_ns(started, LOOKUPS) / 1e3;

    // store::wal: one 1 KiB record through apply + log on a scratch disk.
    if let Ok((disk, _)) = DiskImage::open(
        &StorageHandle::Memory(MemStorage::new()),
        WalConfig::default(),
    ) {
        const RECORDS: u32 = 2000;
        let started = Instant::now();
        for i in 0..RECORDS {
            let _ = disk.apply(
                (STORE_NS.to_string(), store_key(i as usize)),
                ace_store::Versioned {
                    data: value_bytes(i, 1, VALUE_BYTES),
                    version: 1,
                    writer: "probe".into(),
                    deleted: false,
                },
            );
        }
        report.wal_apply_us = per_item_ns(started, RECORDS as usize) / 1e3;
    }
    report
}
