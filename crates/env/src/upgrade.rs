//! Building-wide rolling upgrades over a running [`AceEnvironment`].
//!
//! The environment-level face of the live-upgrade subsystem
//! (`ace_core::supervise::live_upgrade`): every daemon is hot-swapped
//! one at a time — quiesce, snapshot, restore-validate, retire, respawn
//! under the next incarnation — while the rest of the building keeps
//! serving.

use crate::environment::AceEnvironment;
use ace_core::prelude::*;
use ace_directory::{Asd, NetLogger, RoomDb};
use ace_resources::{Hal, HostProfile, Hrm, Sal, Srm};

/// Builds the replacement behavior for one daemon in a rolling sweep;
/// `None` skips that daemon.
pub type ReplacementFactory<'a> =
    &'a mut dyn FnMut(&AceEnvironment, &DaemonHandle) -> Option<Box<dyn ServiceBehavior>>;

/// The upgrade-pause record of one daemon in a rolling sweep.
#[derive(Debug, Clone)]
pub struct RollingEntry {
    pub name: String,
    pub stats: UpgradeStats,
    /// Incarnation the replacement is serving under.
    pub incarnation: u64,
}

impl AceEnvironment {
    /// The one place a daemon's handle is found by name: the service
    /// daemons, the store replicas (`store_1`…), the framework tier.
    fn handle(&self, name: &str) -> Option<&DaemonHandle> {
        (self.daemons.values())
            .chain(self.store.iter().flatten().map(|(handle, _)| handle))
            .chain([&self.fw.logger, &self.fw.roomdb, &self.fw.asd])
            .find(|handle| handle.name() == name)
    }

    fn handle_mut(&mut self, name: &str) -> Option<&mut DaemonHandle> {
        let replicas = self.store.iter_mut().flat_map(|c| &mut c.replicas);
        (self.daemons.values_mut())
            .chain(replicas.map(|(handle, _)| handle))
            .chain([&mut self.fw.logger, &mut self.fw.roomdb, &mut self.fw.asd])
            .find(|handle| handle.name() == name)
    }

    /// Hot-swap one named daemon (including store replicas addressed as
    /// `store_1`…) with `replacement`.  On success the environment's handle
    /// is replaced; every error except a replacement-spawn failure leaves
    /// the old incarnation serving.
    pub fn upgrade_daemon(
        &mut self,
        name: &str,
        replacement: Box<dyn ServiceBehavior>,
    ) -> Result<UpgradeStats, UpgradeError> {
        let Some(old) = self.handle(name) else {
            return Err(UpgradeError::Protocol(format!("no daemon named {name}")));
        };
        let (fresh, stats) = ace_core::live_upgrade(
            &self.net,
            &"core".into(),
            &self.admin,
            old,
            old.config().clone(),
            replacement,
        )?;
        *self.handle_mut(name).expect("found above") = fresh;
        Ok(stats)
    }

    /// The stock replacement behavior for a daemon, by service class.
    /// Covers every service whose state is either carried by the upgrade
    /// snapshot or reconstructible from scratch (monitors, launchers, the
    /// framework tier); `None` means "this class holds state the snapshot
    /// protocol does not carry — supply your own replacement".
    pub fn default_replacement(&self, handle: &DaemonHandle) -> Option<Box<dyn ServiceBehavior>> {
        match handle.config().class.as_str() {
            "Service.Monitor.HRM" => Some(Box::new(Hrm::new(HostProfile::default()))),
            "Service.Launcher.HAL" => Some(Box::new(Hal::new())),
            "Service.Monitor.SRM" => Some(Box::new(Srm::default())),
            "Service.Launcher.SAL" => Some(Box::new(Sal::new())),
            "Service.ServiceDirectory" => Some(Box::new(Asd::new(self.config.lease))),
            "Service.Database.Room" => Some(Box::new(RoomDb::new())),
            "Service.Logger" => Some(Box::new(NetLogger::default())),
            "Service.Database.PersistentStore" => {
                let cluster = self.store.as_ref()?;
                let i = (cluster.iter()).position(|(h, _)| h.name() == handle.name())?;
                Some(Box::new(cluster.replica(i)))
            }
            _ => None,
        }
    }

    /// Roll an upgrade across the whole building, one daemon at a time:
    /// every service daemon in spawn order, then the store replicas.
    /// `factory` builds each replacement (see [`Self::default_replacement`]
    /// for the stock ones); returning `None` skips that daemon.  The sweep
    /// stops at the first failed swap.
    pub fn rolling_upgrade(
        &mut self,
        factory: ReplacementFactory<'_>,
    ) -> Result<Vec<RollingEntry>, UpgradeError> {
        // Framework tier last — Net Logger, Room DB, then the ASD itself:
        // during the ASD's quiesce window every other daemon's lease
        // renewal bounces with retryable E_UPGRADING, and the restored
        // leases come back with fresh deadlines.
        let replicas = self.store.iter().flatten();
        let names: Vec<String> = (self.teardown_order.iter().cloned())
            .chain(replicas.map(|(handle, _)| handle.name().to_string()))
            .chain(["netlogger", "roomdb", "asd"].map(String::from))
            .collect();
        let mut rolled = Vec::new();
        for name in names {
            let Some(replacement) = self.handle(&name).and_then(|old| factory(self, old)) else {
                continue;
            };
            let stats = self.upgrade_daemon(&name, replacement)?;
            let incarnation = self.handle(&name).map_or(0, DaemonHandle::incarnation);
            rolled.push(RollingEntry {
                name,
                stats,
                incarnation,
            });
        }
        Ok(rolled)
    }
}
