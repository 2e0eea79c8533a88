//! # ace-directory — the ACE directory tier
//!
//! The three framework services every daemon talks to at startup (Fig. 9):
//!
//! * [`Asd`] — the ACE Service Directory (§2.4): registration, leases,
//!   lease-expiry purging, and lookup by name/class/room;
//! * [`RoomDb`] — the Room Database (§4.11): buildings, rooms, dimensions,
//!   and service placements;
//! * [`NetLogger`] — the Network Logger (§4.14): the bounded activity
//!   history used for security auditing and debugging.
//!
//! [`bootstrap`] brings all three up in dependency order on a given host —
//! the first thing every environment (and most tests) does.
//!
//! For environments that outgrow a single directory daemon, [`shardmap`]
//! partitions the ASD across replicated shards ([`spawn_sharded_asd`],
//! [`ShardedAsdClient`]) while keeping the same wire protocol per shard.

pub mod asd;
pub mod netlogger;
pub mod roomdb;
pub mod shardmap;

pub use ace_core::directory::subscribe_expiry as subscribe_invalidation_all;
pub use asd::{Asd, AsdClient};
pub use netlogger::{LogRow, LoggerClient, NetLogger};
pub use roomdb::{Placement, RoomDb, RoomDbClient, RoomInfo};
pub use shardmap::{spawn_sharded_asd, ShardMap, ShardedAsdClient, ShardedDirectory};

use ace_core::prelude::*;
use ace_core::protocol::{ASD_PORT, LOGGER_PORT, ROOMDB_PORT};
use ace_core::SpawnError;
use std::time::Duration;

/// Handles to the three framework daemons plus the addresses services need.
pub struct Framework {
    pub asd: DaemonHandle,
    pub roomdb: DaemonHandle,
    pub logger: DaemonHandle,
    pub asd_addr: Addr,
    pub roomdb_addr: Addr,
    pub logger_addr: Addr,
}

impl Framework {
    /// The bootstrap ASD as a directory: one group of one replica.
    pub fn directory(&self) -> GroupMap {
        GroupMap::new(0, vec![vec![self.asd_addr.clone()]])
    }

    /// Configure a service daemon with all three framework registrations.
    pub fn service_config(
        &self,
        name: &str,
        class: &str,
        room: &str,
        host: impl Into<HostId>,
        port: u16,
    ) -> DaemonConfig {
        DaemonConfig::new(name, class, room, host, port)
            .with_directory(self.directory())
            .with_roomdb(self.roomdb_addr.clone())
            .with_logger(self.logger_addr.clone())
    }

    /// Gracefully stop the tier (reverse dependency order).
    pub fn shutdown(self) {
        self.logger.shutdown();
        self.roomdb.shutdown();
        self.asd.shutdown();
    }
}

/// Bring up ASD → Room DB → Net Logger on `host` with the given ASD lease.
///
/// The ASD registers with nothing (it is the root); the Room DB and Logger
/// register with the ASD so they are discoverable like any other service.
pub fn bootstrap(
    net: &SimNet,
    host: impl Into<HostId>,
    lease: Duration,
) -> Result<Framework, SpawnError> {
    let host = host.into();
    let asd_addr = Addr::new(host.clone(), ASD_PORT);
    let roomdb_addr = Addr::new(host.clone(), ROOMDB_PORT);
    let logger_addr = Addr::new(host.clone(), LOGGER_PORT);

    let directory = GroupMap::new(0, vec![vec![asd_addr.clone()]]);
    let asd = Daemon::spawn(
        net,
        DaemonConfig::new(
            "asd",
            "Service.ServiceDirectory",
            "machineroom",
            host.clone(),
            ASD_PORT,
        ),
        Box::new(Asd::new(lease)),
    )?;
    let roomdb = Daemon::spawn(
        net,
        DaemonConfig::new(
            "roomdb",
            "Service.Database.Room",
            "machineroom",
            host.clone(),
            ROOMDB_PORT,
        )
        .with_directory(directory.clone()),
        Box::new(RoomDb::new()),
    )?;
    let logger = Daemon::spawn(
        net,
        DaemonConfig::new(
            "netlogger",
            "Service.Logger",
            "machineroom",
            host.clone(),
            LOGGER_PORT,
        )
        .with_directory(directory)
        .with_roomdb(roomdb_addr.clone()),
        Box::new(NetLogger::default()),
    )?;

    Ok(Framework {
        asd,
        roomdb,
        logger,
        asd_addr,
        roomdb_addr,
        logger_addr,
    })
}
