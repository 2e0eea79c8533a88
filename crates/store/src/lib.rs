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
//!   under namespaces (`appstate`, `workspace`, …);
//! * [`StoreCluster`] — one replica group, the one place a replica is
//!   spawned, respawned, replaced or rebuilt: the canonical three-replica
//!   cluster ([`spawn_store_cluster`]) or one shard ([`spawn_sharded_store`]).

pub mod client;
pub mod placement;
pub mod replica;
pub mod version;
pub mod wal;

pub use client::{ClientStats, StoreClient, StoreError};
pub use placement::{ShardedStats, ShardedStoreClient, StorePlacement};
pub use replica::{
    sync_tree, DigestRow, DiskBytes, DiskImage, StoreReplica, SyncTree, SYNC_BUCKETS,
};
pub use version::{StoreKey, Versioned};
pub use wal::{MemStorage, RecoveryReport, StorageHandle, Wal, WalConfig, WalStats};

use ace_core::prelude::*;
use ace_core::supervise::{Respawn, RespawnFn};
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

/// One replica group (the framework cluster, or one shard), the one place
/// its replicas are spawned, respawned, replaced and rebuilt.  Replica `i`
/// listens at `addrs[i]` over a durable disk of its own, syncs with the
/// rest of the group and serves the placement.  It derefs to `replicas`.
pub struct StoreCluster {
    /// Daemon handle and disk image of each replica.
    pub replicas: Vec<(DaemonHandle, DiskImage)>,
    /// Where each replica listens, index-aligned with `replicas`.
    pub addrs: Vec<Addr>,
    members: Vec<Member>,
}

/// What one replica is built from but its disk, owned so a respawn factory
/// can outlive the group's borrow.
#[derive(Clone)]
struct Member {
    /// Spawn-time: a respawn changes only the incarnation, so a restarted
    /// replica gets a fresh identity and ticket vault.
    config: DaemonConfig,
    /// Under its disk; a respawn reopens it.
    storage: StorageHandle,
    peers: Vec<Addr>,
    placement: StorePlacement,
    sync_interval: Duration,
    wal: WalConfig,
}

impl Member {
    fn behavior(&self, disk: DiskImage) -> StoreReplica {
        StoreReplica::new(disk, self.sync_interval)
            .with_group(self.peers.clone(), self.placement.clone())
    }

    fn spawn(&self, net: &SimNet, disk: DiskImage, at: u64) -> Result<DaemonHandle, SpawnError> {
        let config = self.config.clone().with_incarnation(at);
        Daemon::spawn(net, config, Box::new(self.behavior(disk)))
    }

    /// Reopen the storage (WAL recovery; a corrupt log resets for
    /// anti-entropy), which fences every image opened over it before, and
    /// spawn over what it recovered; the recovery report is the note.
    fn reopen(&self, net: &SimNet, at: u64) -> Result<(Respawn, DiskImage), SpawnError> {
        let (disk, report) =
            DiskImage::open_or_reset(&self.storage, self.wal.clone()).map_err(storage_spawn_err)?;
        let handle = self.spawn(net, disk.clone(), at)?;
        Ok((Respawn::with_note(handle, report.to_string()), disk))
    }
}

/// A fresh, empty disk on `host`, wired into the network's storage-fault
/// hub so chaos plans can tear its appends.
fn fresh_disk(
    net: &SimNet,
    host: &HostId,
    wal: &WalConfig,
) -> Result<(StorageHandle, DiskImage), SpawnError> {
    let faulty = MemStorage::new().with_faults(net.storage_faults(), host.clone());
    let storage = StorageHandle::Memory(faulty);
    let (disk, _) = DiskImage::open(&storage, wal.clone()).map_err(storage_spawn_err)?;
    Ok((storage, disk))
}

impl StoreCluster {
    /// Spawn group `group` of `placement` over fresh disks, replica `i` at
    /// `addr` from `config(i, addr)`.
    fn spawn(
        net: &SimNet,
        placement: &StorePlacement,
        group: usize,
        sync_interval: Duration,
        wal: &WalConfig,
        config: impl Fn(usize, &Addr) -> DaemonConfig,
    ) -> Result<StoreCluster, SpawnError> {
        let addrs = placement.replicas(group).to_vec();
        let (mut replicas, mut members) = (Vec::new(), Vec::new());
        for (i, addr) in addrs.iter().enumerate() {
            let (storage, disk) = fresh_disk(net, &addr.host, wal)?;
            let member = Member {
                config: config(i, addr),
                storage,
                peers: placement.peers_of(group, addr),
                placement: placement.clone(),
                sync_interval,
                wal: wal.clone(),
            };
            replicas.push((member.spawn(net, disk.clone(), 0)?, disk));
            members.push(member);
        }
        Ok(StoreCluster {
            replicas,
            addrs,
            members,
        })
    }

    /// Replica `i`'s behaviour over its live disk: what a live upgrade
    /// swaps in.
    pub fn replica(&self, i: usize) -> StoreReplica {
        self.members[i].behavior(self.replicas[i].1.clone())
    }

    /// The Supervisor's factory for replica `i`: each call respawns it as
    /// [`StoreCluster::respawn`] does, one incarnation above the last.
    pub fn respawn_fn(&self, i: usize) -> RespawnFn {
        let member = self.members[i].clone();
        let mut incarnation = self.replicas[i].0.incarnation();
        Box::new(move |net: &SimNet| {
            let (respawn, _) = member.reopen(net, incarnation + 1)?;
            incarnation = respawn.handle.incarnation();
            Ok(respawn)
        })
    }

    /// Restart replica `i` over the storage it left behind, at the next
    /// incarnation.  What still runs of it is crashed first: its goodbye
    /// would remove its successor's registration.
    pub fn respawn(&mut self, net: &SimNet, i: usize) -> Result<(), SpawnError> {
        let replaced = &self.replicas[i].0;
        replaced.crash();
        let (respawn, disk) = self.members[i].reopen(net, replaced.incarnation() + 1)?;
        self.replicas[i] = (respawn.handle, disk);
        Ok(())
    }

    /// Gracefully stop replica `i` (a rebuild drill's first step).
    pub fn stop_replica(&self, i: usize) {
        self.replicas[i].0.shutdown();
    }

    /// Rebuild replica `i` in place via **snapshot shipping**: on an empty
    /// disk (the dead one may be torn mid-record), install a consistent
    /// snapshot cut a live group peer streams in chunks, top up with one
    /// hash-tree round against that peer, then respawn at the next
    /// incarnation.  It costs the *keyspace*, not the write history; writes
    /// after the top-up are anti-entropy's, as for every replica.
    pub fn rebuild_replica(&mut self, net: &SimNet, i: usize) -> Result<RebuildReport, SpawnError> {
        let member = &self.members[i];
        let host = &member.config.host;
        let (storage, disk) = fresh_disk(net, host, &member.wal)?;
        let identity = KeyPair::generate(&mut rand::thread_rng());
        let mut error = internal("no live group peer to ship a snapshot from");
        let report = (member.peers.iter())
            .find_map(|peer| {
                let shipped = ship_snapshot(net, host, &identity, peer, &disk);
                shipped.map_err(|err| error = err).ok()
            })
            .ok_or(SpawnError::Register {
                step: "rebuild",
                error,
            })?;
        let handle = member.spawn(net, disk.clone(), self.replicas[i].0.incarnation() + 1)?;
        self.replicas[i] = (handle, disk);
        self.members[i].storage = storage;
        Ok(report)
    }

    /// Gracefully stop every replica.
    pub fn shutdown(self) {
        for (handle, _) in self.replicas {
            handle.shutdown();
        }
    }
}

impl std::ops::Deref for StoreCluster {
    type Target = [(DaemonHandle, DiskImage)];
    fn deref(&self) -> &Self::Target {
        &self.replicas
    }
}

impl<'a> IntoIterator for &'a StoreCluster {
    type Item = &'a (DaemonHandle, DiskImage);
    type IntoIter = std::slice::Iter<'a, (DaemonHandle, DiskImage)>;
    fn into_iter(self) -> Self::IntoIter {
        self.replicas.iter()
    }
}

/// Spawn one replica per host (the paper's cluster is three) with the
/// default durability policy: one group, registered as `store_1`,
/// `store_2`, … at [`STORE_PORT`], serving a one-group placement.
pub fn spawn_store_cluster(
    net: &SimNet,
    fw: &Framework,
    hosts: &[&str],
    sync_interval: Duration,
) -> Result<StoreCluster, SpawnError> {
    let addrs = hosts.iter().map(|h| Addr::new(*h, STORE_PORT)).collect();
    let placement = StorePlacement::new(0, vec![addrs]);
    let wal = WalConfig::default();
    StoreCluster::spawn(net, &placement, 0, sync_interval, &wal, |i, addr| {
        let name = format!("store_{}", i + 1);
        let class = "Service.Database.PersistentStore";
        fw.service_config(&name, class, "machineroom", addr.host.clone(), addr.port)
    })
}

/// Adapt a storage failure into the daemon-spawn error space (spawning a
/// replica *is* what failed, just below the network layer).
fn storage_spawn_err(e: StoreError) -> SpawnError {
    SpawnError::Register {
        step: "storage",
        error: internal(e.to_string()),
    }
}

/// A failure below the wire: storage, or a rebuild with nothing shipped.
fn internal(msg: impl Into<String>) -> ClientError {
    ClientError::Service {
        code: ErrorCode::Internal,
        msg: msg.into(),
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
    /// One [`StoreCluster`] per group: `groups[g][r]` is the daemon handle
    /// and disk image of replica `r` of group `g`.
    pub groups: Vec<StoreCluster>,
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
    let placement = StorePlacement(map);
    let groups = (0..groups)
        .map(|g| {
            StoreCluster::spawn(net, &placement, g, sync_interval, &config, |r, addr| {
                let (name, host) = (format!("store-s{g}r{r}"), addr.host.clone());
                DaemonConfig::new(name, SHARD_CLASS, "machineroom", host, addr.port)
            })
        })
        .collect::<Result<_, _>>()?;
    Ok(ShardedStoreCluster { placement, groups })
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

    /// Gracefully stop replica `r` of group `g`.
    pub fn stop_replica(&self, g: usize, r: usize) {
        self.groups[g].stop_replica(r);
    }

    /// Rebuild replica `r` of group `g` ([`StoreCluster::rebuild_replica`]).
    pub fn rebuild_replica(
        &mut self,
        net: &SimNet,
        g: usize,
        r: usize,
    ) -> Result<RebuildReport, SpawnError> {
        self.groups[g].rebuild_replica(net, r)
    }

    /// Stop every replica.
    pub fn shutdown(self) {
        self.groups.into_iter().for_each(StoreCluster::shutdown);
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
            .ok_or_else(|| internal("malformed psSnapFetch reply from snapshot peer"))?;
        chunks += 1;
        bytes.extend_from_slice(&chunk);
        if bytes.len() >= total {
            break;
        }
        if chunk.is_empty() {
            return Err(internal("stalled psSnapFetch stream from snapshot peer"));
        }
    }
    let entries = crate::wal::decode_snapshot(&bytes)
        .map_err(|detail| internal(format!("shipped snapshot failed validation: {detail}")))?
        .unwrap_or_default();
    let snapshot_records = entries.len();
    disk.install_snapshot(entries)
        .map_err(|e| internal(format!("snapshot install failed locally: {e}")))?;
    let pulled = replica::top_up(|cmd| client.call(cmd), disk)?;
    Ok(RebuildReport {
        peer: peer.clone(),
        snapshot_bytes: bytes.len(),
        snapshot_chunks: chunks,
        snapshot_records,
        pulled,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_directory::bootstrap;

    /// What a replica is spawned as: the literals each plane's spawn helper
    /// produced before the two planes shared one group type.
    #[test]
    fn every_replica_spawns_as_it_always_did() {
        let net = SimNet::new();
        for h in ["core", "s1", "s2", "s3", "h0", "h1", "h2", "h3"] {
            net.add_host(h);
        }
        let fw = bootstrap(&net, "core", Duration::from_secs(10)).unwrap();
        let sync = Duration::from_secs(3600);
        let cluster = spawn_store_cluster(&net, &fw, &["s1", "s2", "s3"], sync).unwrap();
        let hosts: Vec<HostId> = ["h0", "h1", "h2", "h3"].map(HostId::from).to_vec();
        let plane = spawn_sharded_store(&net, &hosts, 2, 3, sync, WalConfig::default()).unwrap();

        let pinned = |c: &DaemonConfig| {
            format!(
                "{} {} {} {}:{} {:?} {:?} {:?} {} {} {}",
                c.name,
                c.class,
                c.room,
                c.host.as_str(),
                c.port,
                c.directory,
                c.roomdb,
                c.logger,
                c.incarnation,
                c.identity.is_some(),
                c.ticket_vault.is_some()
            )
        };
        assert_eq!(
            pinned(cluster[1].0.config()),
            "store_2 Service.Database.PersistentStore machineroom s2:5800 \
             Some(GroupMap { epoch: 0, groups: [[Addr { host: HostId(\"core\"), port: 5000 }]] }) \
             Some(Addr { host: HostId(\"core\"), port: 5001 }) \
             Some(Addr { host: HostId(\"core\"), port: 5002 }) 0 false false"
        );
        assert_eq!(
            pinned(plane.groups[1][1].0.config()),
            "store-s1r1 Service.Database.PersistentStoreShard machineroom h0:6104 \
             None None None 0 false false"
        );

        plane.shutdown();
        cluster.shutdown();
        fw.shutdown();
    }
}
