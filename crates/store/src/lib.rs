//! # ace-store — the ACE persistent store
//!
//! "A cluster of three persistent store servers shall work together to
//! provide redundant and robust storage of ACE service and application
//! state, providing the foundation for ACE robust applications and
//! services" (§6, Fig. 17).
//!
//! * [`StoreReplica`] — one replica daemon over a [`DiskImage`] (the
//!   simulated disk that survives crash/restart), running pull-based
//!   anti-entropy against its peers;
//! * [`StoreClient`] — quorum writes (majority; one round when the client
//!   remembers the key's version), newest-wins reads with read repair;
//!   reads keep working while *any* replica is up, writes while a majority
//!   is;
//! * versioning — client-assigned `(version, writer)` pairs with a total
//!   order, so concurrent writers converge deterministically;
//! * the "straightforward object-oriented namespace approach": keys live
//!   under namespaces (`appstate`, `workspace`, …).
//!
//! [`spawn_store_cluster`] brings up the canonical three-replica cluster.

pub mod client;
pub mod placement;
pub mod replica;
pub mod version;
pub mod wal;

pub use client::{ClientStats, StoreClient, StoreError};
pub use placement::{ShardedStats, ShardedStoreClient, StorePlacement};
pub use replica::{sync_tree, DigestRow, DiskImage, StoreReplica, SyncTree, SYNC_BUCKETS};
pub use version::{StoreKey, Versioned};
pub use wal::{MemStorage, RecoveryReport, StorageHandle, Wal, WalConfig, WalStats};

use ace_core::prelude::*;
use ace_core::SpawnError;
use ace_directory::Framework;
use ace_security::keys::KeyPair;
use std::time::Duration;

/// Conventional replica port.
pub const STORE_PORT: u16 = 5800;

/// Base port of the sharded store plane (replica `r` of group `g` listens
/// on `SHARDED_STORE_PORT + g * replication + r`).
pub const SHARDED_STORE_PORT: u16 = 6100;

/// Service class of sharded-plane replicas, as `describe` replies and
/// KeyNote's action environment name it.  Shard replicas are not
/// registered, and no replica finds its peers by class: each syncs with
/// the rest of its group, fixed at spawn.
pub const SHARD_CLASS: &str = "Service.Database.PersistentStoreShard";

/// A running store cluster: daemon handles plus each replica's disk image
/// and the storage handle behind it (needed to restart a crashed replica
/// with its data recovered from the write-ahead log).
pub struct StoreCluster {
    pub replicas: Vec<(DaemonHandle, DiskImage)>,
    pub addrs: Vec<Addr>,
    /// One reopenable storage handle per replica, index-aligned with
    /// `replicas`.
    pub storages: Vec<StorageHandle>,
}

impl StoreCluster {
    /// Gracefully stop every replica.
    pub fn shutdown(self) {
        for (handle, _) in self.replicas {
            handle.shutdown();
        }
    }
}

/// Spawn one replica per host (the paper's cluster is three) with the
/// default durability policy.  The replicas are one group: each syncs with
/// the others, at [`STORE_PORT`] on their hosts.
pub fn spawn_store_cluster(
    net: &SimNet,
    fw: &Framework,
    hosts: &[&str],
    sync_interval: Duration,
) -> Result<StoreCluster, SpawnError> {
    let addrs: Vec<Addr> = hosts.iter().map(|h| Addr::new(*h, STORE_PORT)).collect();
    let mut replicas = Vec::with_capacity(hosts.len());
    let mut storages = Vec::with_capacity(hosts.len());
    for (i, host) in hosts.iter().enumerate() {
        // Durable by default: every replica writes ahead to a simulated
        // disk wired into the network's storage-fault hub, so chaos plans
        // can tear its appends and respawns can recover from the log.
        let storage = StorageHandle::Memory(
            MemStorage::new().with_faults(net.storage_faults(), (*host).into()),
        );
        let (disk, _) =
            DiskImage::open(&storage, WalConfig::default()).map_err(storage_spawn_err)?;
        let peers = addrs.iter().filter(|a| **a != addrs[i]).cloned().collect();
        let handle = respawn_replica(net, fw, i, host, disk.clone(), peers, sync_interval)?;
        replicas.push((handle, disk));
        storages.push(storage);
    }
    Ok(StoreCluster {
        replicas,
        addrs,
        storages,
    })
}

/// Adapt a storage failure into the daemon-spawn error space (spawning a
/// replica *is* what failed, just below the network layer).  Public so
/// custom respawn factories can use the same mapping.
pub fn storage_spawn_err(e: StoreError) -> SpawnError {
    SpawnError::Register {
        step: "storage",
        error: ClientError::Service {
            code: ErrorCode::Internal,
            msg: e.to_string(),
        },
    }
}

// ---------------------------------------------------------------------------
// The sharded store plane
// ---------------------------------------------------------------------------

/// A running sharded store: `groups × replication` durable replicas, each
/// carrying the full [`StorePlacement`] and syncing only with its own
/// group (a shard replica must never pull another shard's keys).
pub struct ShardedStoreCluster {
    pub placement: StorePlacement,
    /// `groups[g][r]` — daemon handle + disk image of replica `r` of
    /// group `g`.
    pub groups: Vec<Vec<(DaemonHandle, DiskImage)>>,
    /// Reopenable storage handles, shape-aligned with `groups`.
    pub storages: Vec<Vec<StorageHandle>>,
    sync_interval: Duration,
    config: WalConfig,
}

/// What a snapshot-ship rebuild moved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebuildReport {
    /// The peer that served the snapshot and the top-up.
    pub peer: Addr,
    /// Validated snapshot size on the wire.
    pub snapshot_bytes: usize,
    /// Chunked frames the snapshot travelled in.
    pub snapshot_chunks: usize,
    /// Entries the snapshot carried.
    pub snapshot_records: usize,
    /// Values the top-up pulled: written on the peer after the cut.
    pub pulled: usize,
}

/// Bring up a sharded store plane: `groups × replication` durable
/// replicas spread round-robin across `hosts`, every replica carrying the
/// full placement map (any replica bootstraps a client via `psPlacement`).
pub fn spawn_sharded_store(
    net: &SimNet,
    hosts: &[HostId],
    groups: usize,
    replication: usize,
    sync_interval: Duration,
    config: WalConfig,
) -> Result<ShardedStoreCluster, SpawnError> {
    let map = GroupMap::spread(hosts, groups, replication, SHARDED_STORE_PORT);
    let mut cluster = ShardedStoreCluster {
        placement: StorePlacement(map),
        groups: Vec::with_capacity(groups),
        storages: Vec::with_capacity(groups),
        sync_interval,
        config,
    };
    for g in 0..groups {
        let mut handles = Vec::with_capacity(replication);
        let mut storages = Vec::with_capacity(replication);
        for r in 0..replication {
            let (storage, disk) = cluster.fresh_disk(net, g, r)?;
            handles.push((cluster.spawn_replica(net, g, r, disk.clone(), 0)?, disk));
            storages.push(storage);
        }
        cluster.groups.push(handles);
        cluster.storages.push(storages);
    }
    Ok(cluster)
}

impl ShardedStoreCluster {
    /// A routing client over this plane's placement.
    pub fn client(
        &self,
        net: &SimNet,
        from_host: impl Into<HostId>,
        identity: KeyPair,
        pool: std::sync::Arc<LinkPool>,
    ) -> ShardedStoreClient {
        ShardedStoreClient::new(
            net.clone(),
            from_host,
            identity,
            pool,
            self.placement.clone(),
        )
    }

    /// A fresh, empty disk for replica `r` of group `g`, wired into the
    /// network's storage-fault hub under the replica's host.
    fn fresh_disk(
        &self,
        net: &SimNet,
        g: usize,
        r: usize,
    ) -> Result<(StorageHandle, DiskImage), SpawnError> {
        let host = self.placement.replicas(g)[r].host.clone();
        let storage =
            StorageHandle::Memory(MemStorage::new().with_faults(net.storage_faults(), host));
        let (disk, _) =
            DiskImage::open(&storage, self.config.clone()).map_err(storage_spawn_err)?;
        Ok((storage, disk))
    }

    /// Spawn replica `r` of group `g` over `disk` as generation
    /// `incarnation`: fixed peers (its own group minus itself) and the
    /// full placement map.
    fn spawn_replica(
        &self,
        net: &SimNet,
        g: usize,
        r: usize,
        disk: DiskImage,
        incarnation: u64,
    ) -> Result<DaemonHandle, SpawnError> {
        let addr = &self.placement.replicas(g)[r];
        Daemon::spawn(
            net,
            DaemonConfig::new(
                format!("store-s{g}r{r}"),
                SHARD_CLASS,
                "machineroom",
                addr.host.clone(),
                addr.port,
            )
            .with_incarnation(incarnation),
            Box::new(
                StoreReplica::new(disk, self.sync_interval)
                    .with_peers(self.placement.peers_of(g, addr))
                    .with_placement(self.placement.clone()),
            ),
        )
    }

    /// Gracefully stop one replica (rebuild drills take it down on
    /// purpose; chaos plans kill it for real).
    pub fn stop_replica(&self, g: usize, r: usize) {
        self.groups[g][r].0.shutdown();
    }

    /// Rebuild replica `r` of group `g` in place via **snapshot
    /// shipping**: start from an empty disk (the dead one may be torn
    /// mid-record), stream a consistent snapshot cut from a live group
    /// peer in chunked frames, install it through the corrupt-refusing
    /// decode path, top up with one hash-tree round against that peer (what
    /// it applied after the cut), then respawn the daemon.  Cost is
    /// proportional to the *keyspace*, not the write history the old
    /// anti-entropy replay paid.  Writes that land after the top-up are
    /// anti-entropy's, as they are for every replica.
    pub fn rebuild_replica(
        &mut self,
        net: &SimNet,
        g: usize,
        r: usize,
    ) -> Result<RebuildReport, SpawnError> {
        let addr = self.placement.replicas(g)[r].clone();
        let (storage, disk) = self.fresh_disk(net, g, r)?;
        let identity = KeyPair::generate(&mut rand::thread_rng());
        let mut report = None;
        let mut last_err = ClientError::Service {
            code: ErrorCode::Internal,
            msg: "no live group peer to ship a snapshot from".into(),
        };
        for peer in &self.placement.peers_of(g, &addr) {
            match ship_snapshot(net, &addr.host, &identity, peer, &disk) {
                Ok(shipped) => {
                    report = Some(shipped);
                    break;
                }
                Err(err) => last_err = err,
            }
        }
        let Some(report) = report else {
            return Err(SpawnError::Register {
                step: "rebuild",
                error: last_err,
            });
        };
        let incarnation = self.groups[g][r].0.incarnation() + 1;
        let handle = self.spawn_replica(net, g, r, disk.clone(), incarnation)?;
        self.groups[g][r] = (handle, disk);
        self.storages[g][r] = storage;
        Ok(report)
    }

    /// Stop every replica.
    pub fn shutdown(self) {
        for group in self.groups {
            for (handle, _) in group {
                handle.shutdown();
            }
        }
    }
}

/// Stream `peer`'s state into `disk`: chunked snapshot fetch, validated
/// decode (corrupt bytes refuse the whole ship — the caller tries the
/// next peer), one snapshot install, then the [`replica::top_up`] against the
/// same peer over the same link for what it applied after the cut — a
/// top-up that fails or leaves a newer key behind refuses the ship too.
fn ship_snapshot(
    net: &SimNet,
    from_host: &HostId,
    identity: &KeyPair,
    peer: &Addr,
    disk: &DiskImage,
) -> Result<RebuildReport, ClientError> {
    let failed = |msg: &str| ClientError::Service {
        code: ErrorCode::Internal,
        msg: msg.to_string(),
    };
    let mut client = ServiceClient::connect(net, from_host, peer.clone(), identity)?;
    // Offset 0 cuts (and caches) a consistent image on the peer; further
    // offsets stream the immutable bytes.
    let mut bytes: Vec<u8> = Vec::new();
    let mut chunks = 0usize;
    loop {
        let fetch = CmdLine::new("psSnapFetch").arg("offset", bytes.len() as i64);
        let reply = client.call(&fetch)?;
        let total = reply.get_int("total").unwrap_or(0).max(0) as usize;
        let chunk = reply
            .get_blob("data")
            .ok_or_else(|| failed("malformed psSnapFetch reply from snapshot peer"))?;
        chunks += 1;
        bytes.extend_from_slice(&chunk);
        if bytes.len() >= total {
            break;
        }
        if chunk.is_empty() {
            return Err(failed("stalled psSnapFetch stream from snapshot peer"));
        }
    }
    let entries = crate::wal::decode_snapshot(&bytes)
        .map_err(|detail| failed(&format!("shipped snapshot failed validation: {detail}")))?
        .unwrap_or_default();
    let snapshot_records = entries.len();
    disk.install_snapshot(entries)
        .map_err(|e| failed(&format!("snapshot install failed locally: {e}")))?;
    let pulled = replica::top_up(|cmd| client.call(cmd), disk)?;
    Ok(RebuildReport {
        peer: peer.clone(),
        snapshot_bytes: bytes.len(),
        snapshot_chunks: chunks,
        snapshot_records,
        pulled,
    })
}

/// Spawn replica `index` of the unsharded cluster on `host` over `disk`,
/// syncing with `peers` (the rest of the cluster): the first spawn, and
/// the respawn of a crashed replica with the disk image it left behind
/// (the recovery path of experiment E15).
pub fn respawn_replica(
    net: &SimNet,
    fw: &Framework,
    index: usize,
    host: &str,
    disk: DiskImage,
    peers: Vec<Addr>,
    sync_interval: Duration,
) -> Result<DaemonHandle, SpawnError> {
    Daemon::spawn(
        net,
        fw.service_config(
            &format!("store_{}", index + 1),
            "Service.Database.PersistentStore",
            "machineroom",
            host,
            STORE_PORT,
        ),
        Box::new(StoreReplica::new(disk, sync_interval).with_peers(peers)),
    )
}
