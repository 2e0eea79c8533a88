//! `building_day`'s fixed disturbance script.
//!
//! One extra, mostly idle controller (the run's main thread) walks a fixed
//! timetable over the open-loop phase while both lanes keep offering load:
//! six live upgrades, one sharded-store replica stopped and rebuilt by
//! snapshot shipping, one directory shard replica crashed and respawned,
//! and one room device crashed and brought back by a [`Supervisor`].
//!
//! The upgrade targets are the daemons on the workloads' paths that *can*
//! be hot-swapped without losing the building: the room devices (through
//! [`DeviceShell`], which carries their state), the ID Monitor and the SAL.
//! The AUD, WSS, AuthDB and FIU keep their users, workspaces, credentials
//! and templates only in memory and implement no `snapshot_state`, so a
//! live upgrade would empty them (see the README's findings).

use crate::building::{Building, DeviceKind, DeviceShell, SUPERVISOR_PORT};
use ace_core::prelude::*;
use ace_core::{Respawn, SupervisedSpec, Supervisor};
use ace_identity::IdMonitor;
use std::time::{Duration, Instant};

/// The daemon the supervisor has to bring back.
pub const CRASH_VICTIM: (DeviceKind, usize) = (DeviceKind::Camera, 3);
/// The sharded-store replica that is stopped and rebuilt.
pub const REBUILT_REPLICA: (usize, usize) = (1, 2);
/// The directory shard replica that is crashed and respawned.
pub const CRASHED_ASD_REPLICA: (usize, usize) = (2, 1);

#[derive(Debug, Clone, Copy)]
enum Step {
    Upgrade(&'static str),
    StopStoreReplica,
    RebuildStoreReplica,
    CrashDirectoryReplica,
    RespawnDirectoryReplica,
    CrashDevice,
}

/// When each step fires, as a fraction of the open phase.
const TIMETABLE: [(f64, Step); 11] = [
    (0.06, Step::Upgrade("camera_r00")),
    (0.10, Step::StopStoreReplica),
    (0.18, Step::Upgrade("projector_r00")),
    (0.22, Step::RebuildStoreReplica),
    (0.30, Step::Upgrade("idmonitor")),
    (0.36, Step::CrashDirectoryReplica),
    (0.42, Step::Upgrade("sal")),
    (0.48, Step::RespawnDirectoryReplica),
    (0.54, Step::Upgrade("camera_r01")),
    (0.62, Step::Upgrade("projector_r01")),
    (0.70, Step::CrashDevice),
];

/// One completed live upgrade.  Times are seconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct UpgradeRecord {
    pub service: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    pub stats: UpgradeStats,
}

/// What the script did and measured.
#[derive(Debug, Default)]
pub struct DisturbanceLog {
    pub upgrades: Vec<UpgradeRecord>,
    pub rebuild_ms: f64,
    pub replica_failover_ms: f64,
    pub crash_recovery_ms: f64,
    /// Anything that did not go as the script expects (a failed swap, an
    /// incarnation that went backwards): verification failures.
    pub violations: Vec<String>,
}

pub struct Disturber {
    supervisor: DaemonHandle,
    net: SimNet,
}

impl Disturber {
    /// Bring up the supervisor that watches [`CRASH_VICTIM`].
    pub fn prepare(building: &Building) -> Result<Disturber, String> {
        let (kind, room) = CRASH_VICTIM;
        let config = building.device_config(kind, room);
        let mut incarnation = 0;
        let spec = SupervisedSpec::new(
            kind.daemon_name(room),
            Box::new(move |net: &SimNet| {
                incarnation += 1;
                Daemon::spawn(
                    net,
                    config.clone().with_incarnation(incarnation),
                    Box::new(DeviceShell::new(kind)),
                )
                .map(Respawn::from)
            }),
        );
        let supervisor = Daemon::spawn(
            &building.env.net,
            building.env.fw.service_config(
                "supervisor",
                "Service.Supervisor",
                "machineroom",
                "core",
                SUPERVISOR_PORT,
            ),
            Box::new(Supervisor::new(vec![spec], RestartPolicy::default())),
        )
        .map_err(|e| format!("supervisor: {e}"))?;
        Ok(Disturber {
            supervisor,
            net: building.env.net.clone(),
        })
    }

    /// Walk the timetable over `[open_start, open_start + open)`.
    pub fn run(
        &self,
        building: &mut Building,
        epoch: Instant,
        open_start: Instant,
        open: Duration,
    ) -> DisturbanceLog {
        let mut log = DisturbanceLog::default();
        let secs = |at: Instant| at.saturating_duration_since(epoch).as_secs_f64();
        let mut crashed_at: Option<Instant> = None;
        for (fraction, step) in TIMETABLE {
            let at = open_start + open.mul_f64(fraction);
            if let Some(wait) = at.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            match step {
                Step::Upgrade(service) => self.upgrade(building, service, &secs, &mut log),
                Step::StopStoreReplica => {
                    let (g, r) = REBUILT_REPLICA;
                    building.store.stop_replica(g, r);
                }
                Step::RebuildStoreReplica => {
                    let (g, r) = REBUILT_REPLICA;
                    let started = Instant::now();
                    match building.store.rebuild_replica(&building.env.net, g, r) {
                        Ok(_) => log.rebuild_ms = started.elapsed().as_secs_f64() * 1e3,
                        Err(e) => log
                            .violations
                            .push(format!("rebuild of store-s{g}r{r}: {e}")),
                    }
                }
                Step::CrashDirectoryReplica => {
                    let (s, r) = CRASHED_ASD_REPLICA;
                    building.directory.handles[s][r].crash();
                    log.replica_failover_ms = self.first_lookup_after_crash(building, s);
                }
                Step::RespawnDirectoryReplica => {
                    let (s, r) = CRASHED_ASD_REPLICA;
                    if let Err(e) = building.directory.respawn_replica(&building.env.net, s, r) {
                        log.violations.push(format!("respawn of asd-s{s}r{r}: {e}"));
                    }
                }
                Step::CrashDevice => {
                    let (kind, room) = CRASH_VICTIM;
                    building.env.daemons[&kind.daemon_name(room)].crash();
                    crashed_at = Some(Instant::now());
                }
            }
        }
        // The crash is the script's last step: watch the supervisor bring
        // the device back, until the end of the phase at the latest.
        if let Some(since) = crashed_at {
            let give_up = open_start + open;
            while log.crash_recovery_ms == 0.0 {
                if self.restarts() > 0 {
                    log.crash_recovery_ms = since.elapsed().as_secs_f64() * 1e3;
                } else if Instant::now() > give_up {
                    log.violations
                        .push("supervisor never restarted the crashed device".into());
                    break;
                } else {
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
        log
    }

    fn upgrade(
        &self,
        building: &mut Building,
        service: &'static str,
        secs: &dyn Fn(Instant) -> f64,
        log: &mut DisturbanceLog,
    ) {
        let before = building.env.daemons[service].incarnation();
        let replacement: Option<Box<dyn ServiceBehavior>> = match service {
            "idmonitor" => Some(Box::new(IdMonitor::new())),
            s if s.starts_with("camera_") => Some(Box::new(DeviceShell::new(DeviceKind::Camera))),
            s if s.starts_with("projector_") => {
                Some(Box::new(DeviceShell::new(DeviceKind::Projector)))
            }
            _ => building
                .env
                .default_replacement(&building.env.daemons[service]),
        };
        let Some(replacement) = replacement else {
            log.violations
                .push(format!("{service}: no replacement behavior"));
            return;
        };
        let started = Instant::now();
        match building.env.upgrade_daemon(service, replacement) {
            Ok(stats) => {
                let ended = Instant::now();
                log.upgrades.push(UpgradeRecord {
                    service,
                    start_s: secs(started),
                    end_s: secs(ended),
                    stats,
                });
                // Incarnations only move forward, and the new one answers.
                let now = building.env.daemons[service].incarnation();
                let answering = building
                    .env
                    .client(service)
                    .and_then(|mut c| c.call(&CmdLine::new("ping")))
                    .ok()
                    .and_then(|r| r.get_int("incarnation"));
                if now != before + 1 || answering != Some(now as i64) {
                    log.violations.push(format!(
                        "{service}: incarnation {before} → {now}, ping says {answering:?}"
                    ));
                }
            }
            Err(e) => log.violations.push(format!("upgrade of {service}: {e}")),
        }
    }

    /// Time a name lookup on the shard that just lost a replica, from a
    /// client that has never talked to it: the cost of failing over.
    fn first_lookup_after_crash(&self, building: &Building, shard: usize) -> f64 {
        let name = (0..crate::building::ROOMS)
            .map(|r| DeviceKind::Projector.daemon_name(r))
            .find(|n| building.directory.map.shard_for(n) == shard);
        let Some(name) = name else { return 0.0 };
        let pool =
            std::sync::Arc::new(LinkPool::new(&building.env.net, "core", building.env.admin));
        let mut client = building.directory.client(pool);
        // Three lookups rotate the read over all three replicas, so one of
        // them starts at the dead one.
        let started = Instant::now();
        for _ in 0..crate::building::REPLICATION {
            let _ = client.lookup(Some(&name), None, None);
        }
        started.elapsed().as_secs_f64() * 1e3 / crate::building::REPLICATION as f64
    }

    fn restarts(&self) -> i64 {
        ServiceClient::connect(
            &self.net,
            &"core".into(),
            self.supervisor.addr().clone(),
            self.supervisor.identity(),
        )
        .and_then(|mut c| c.call(&CmdLine::new("superviseStats")))
        .ok()
        .and_then(|r| r.get_int("restarts"))
        .unwrap_or(0)
    }

    pub fn shutdown(self) {
        self.supervisor.shutdown();
    }
}
