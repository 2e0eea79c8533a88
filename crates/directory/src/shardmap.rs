//! The sharded, replicated directory plane.
//!
//! One ASD daemon answering every lookup in the building is the hard
//! ceiling on environment scale: §2.4's central directory serializes the
//! resolution path of every client.  This module partitions the
//! registration space across N shards and replicates each shard, so the
//! directory plane scales horizontally and survives replica crashes:
//!
//! * [`ShardMap`] — the plane's [`GroupMap`] (layout, rendezvous hash, row
//!   codec and fetch all live in [`ace_core::placement`]), keyed by service
//!   name and served by every replica under the `shardMap` verb.
//! * [`ShardedAsdClient`] — the directory's rules
//!   ([`ace_core::directory`], the ones every daemon follows) over the
//!   shared [`LinkPool`], plus what a client remembers: the names it
//!   registered, a rotating read start and its counters.
//! * [`spawn_sharded_asd`] — brings the plane up: `shards × replication`
//!   ASD daemons spread across hosts, one [`ReplicaGroup`] of
//!   [`AsdMember`]s per shard — the group type the store's replicas are
//!   started, respawned and supervised through, so a directory replica
//!   restarts fenced, at the next incarnation, as a store replica does.
//!
//! # Why the name is the key
//!
//! The name is the directory's unique key and the production resolution
//! path (`FailoverClient` resolves by name on every cache miss), so name
//! lookups touch exactly one shard — that is what makes aggregate lookup
//! throughput scale with the shard count.  Room and class-segment remain
//! *filter* dimensions: each shard keeps the PR 5 inverted indexes over its
//! own registrations, and room/class queries fan out to all shards,
//! intersect server-side, and merge client-side.  (Placing by room or
//! class-segment instead would send every *name* lookup to every shard and
//! cap aggregate throughput at a single shard's, while renames of a room
//! would migrate registrations; see DESIGN.md "Directory plane".)
//!
//! # Replication and repair
//!
//! Each shard is a replica group with majority-quorum writes and
//! per-name incarnation fencing: a register/renew carrying a stale
//! incarnation is rejected with `E_BADSTATE` by any replica that knows
//! better.  A replica that restarts empty is repaired by the renewal
//! traffic itself: a renew answered with `E_NOTFOUND` triggers an
//! immediate re-register on that replica — the directory analog of the
//! store's anti-entropy pull, driven by the writers that own the data.
//! Reads are served by any replica under the rule
//! [`directory::lookup_any_replica`] states, so a repairing replica never
//! manufactures a false `NotFound`.  All of it is [`ace_core::directory`]'s:
//! a daemon configured with this plane's map follows the same rules.

use crate::asd::Asd;
use ace_core::directory;
use ace_core::metrics::Histogram;
use ace_core::prelude::*;
use ace_core::protocol::ServiceEntry;
use ace_core::{Recipe, ReplicaGroup, SpawnError};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------------
// The shard map
// ---------------------------------------------------------------------------

/// The directory plane layout: a [`GroupMap`] whose groups are shards,
/// keyed by service name and served under the `shardMap` verb.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap(GroupMap);

impl std::ops::Deref for ShardMap {
    type Target = GroupMap;
    fn deref(&self) -> &GroupMap {
        &self.0
    }
}

impl ShardMap {
    /// A map over the given replica sets.
    pub fn new(epoch: u64, shards: Vec<Vec<Addr>>) -> ShardMap {
        ShardMap(GroupMap::new(epoch, shards))
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.count()
    }

    /// The shard owning `name`: [`GroupMap::owner`] of the name's bytes.
    pub fn shard_for(&self, name: &str) -> usize {
        self.owner(name.as_bytes())
    }

    /// The replica set owning `name`.
    pub fn replicas_for(&self, name: &str) -> &[Addr] {
        self.replicas(self.shard_for(name))
    }

    /// The `shardMap` verb reply (rows under `shards=`).
    pub fn to_reply(&self) -> Reply {
        self.0.to_reply("shards")
    }

    /// Fetch the map from any replica (clients bootstrap by asking the
    /// well-known directory address).
    pub fn fetch(pool: &Arc<LinkPool>, replica: &Addr) -> Result<ShardMap, ClientError> {
        GroupMap::fetch(pool, replica, "shardMap", "shards").map(ShardMap)
    }
}

// ---------------------------------------------------------------------------
// The sharded client
// ---------------------------------------------------------------------------

/// A directory client that routes per-shard and writes with a quorum.
///
/// Registrations made through this client are remembered (name → entry +
/// incarnation) so renewals can repair replicas that answer `E_NOTFOUND`
/// after a restart.
pub struct ShardedAsdClient {
    pool: Arc<LinkPool>,
    map: ShardMap,
    registered: HashMap<String, (ServiceEntry, u64)>,
    /// Rotating start replica for reads, spreading lookup load across a
    /// shard's whole replica set.
    read_rr: usize,
    lookup_hist: Option<Arc<Histogram>>,
    fanouts: u64,
    repairs: u64,
}

impl ShardedAsdClient {
    /// A client over `map`, checking links out of `pool` per call.
    pub fn new(pool: Arc<LinkPool>, map: ShardMap) -> ShardedAsdClient {
        ShardedAsdClient {
            pool,
            map,
            registered: HashMap::new(),
            read_rr: 0,
            lookup_hist: None,
            fanouts: 0,
            repairs: 0,
        }
    }

    /// Record per-lookup latency into `metrics` (`dir.lookup` histogram).
    pub fn with_metrics(mut self, metrics: &MetricsRegistry) -> ShardedAsdClient {
        self.lookup_hist = Some(metrics.histogram("dir.lookup"));
        self
    }

    /// The shard map this client routes with.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Cross-shard fan-out queries performed.
    pub fn fanouts(&self) -> u64 {
        self.fanouts
    }

    /// Replicas repaired by renew-time re-registration.
    pub fn repairs(&self) -> u64 {
        self.repairs
    }

    fn call_replica(&self, addr: &Addr, cmd: &CmdLine) -> Result<CmdLine, ClientError> {
        self.pool.checkout(addr)?.call(cmd)
    }

    fn no_shards() -> ClientError {
        ClientError::Service {
            code: ErrorCode::Unavailable,
            msg: "empty shard map".into(),
        }
    }

    /// Register `entry` on its owning shard ([`directory::register`]).
    pub fn register(
        &mut self,
        entry: &ServiceEntry,
        incarnation: u64,
    ) -> Result<Duration, ClientError> {
        let mut ask = |addr: &Addr, cmd: &CmdLine| self.call_replica(addr, cmd);
        let lease = directory::register(&mut ask, &self.map, entry, incarnation)?;
        self.registered
            .insert(entry.name.clone(), (entry.clone(), incarnation));
        Ok(lease.unwrap_or_default())
    }

    /// Renew `name` on its owning shard, repairing any replica that lost
    /// the registration ([`directory::renew`]).
    pub fn renew(&mut self, name: &str) -> Result<(), ClientError> {
        let Some((entry, incarnation)) = self.registered.get(name) else {
            return Err(ClientError::Service {
                code: ErrorCode::NotFound,
                msg: format!("{name} was not registered through this client"),
            });
        };
        let mut ask = |addr: &Addr, cmd: &CmdLine| self.call_replica(addr, cmd);
        self.repairs += directory::renew(&mut ask, &self.map, entry, *incarnation)? as u64;
        Ok(())
    }

    /// Deregister `name` ([`directory::deregister`]).
    pub fn remove(&mut self, name: &str) -> Result<(), ClientError> {
        self.registered.remove(name);
        let mut ask = |addr: &Addr, cmd: &CmdLine| self.call_replica(addr, cmd);
        directory::deregister(&mut ask, &self.map, name)
    }

    /// Look up services by any combination of name/class/room
    /// ([`directory::lookup`]): a name touches exactly the owning shard,
    /// anything else fans out to every shard and merges.  Reads start at a
    /// rotating replica, so lookup load spreads over each replica set.
    pub fn lookup(
        &mut self,
        name: Option<&str>,
        class: Option<&str>,
        room: Option<&str>,
    ) -> Result<Vec<ServiceEntry>, ClientError> {
        let started = self.pool.clock().now();
        self.read_rr = self.read_rr.wrapping_add(1);
        if name.is_none() {
            self.fanouts += 1;
        }
        let mut ask = |addr: &Addr, cmd: &CmdLine| self.call_replica(addr, cmd);
        let result = directory::lookup(&mut ask, &self.map, self.read_rr, name, class, room);
        if let Some(hist) = &self.lookup_hist {
            hist.record(self.pool.clock().now().saturating_duration_since(started));
        }
        Ok(result?.0)
    }

    /// Find one service by exact name.
    pub fn find(&mut self, name: &str) -> Result<Option<ServiceEntry>, ClientError> {
        Ok(self.lookup(Some(name), None, None)?.into_iter().next())
    }

    /// All registered names across every shard, sorted.
    pub fn list(&mut self) -> Result<Vec<String>, ClientError> {
        if self.map.shard_count() == 0 {
            return Err(Self::no_shards());
        }
        let cmd = CmdLine::new("listServices");
        let mut names: HashSet<String> = HashSet::new();
        for shard in 0..self.map.shard_count() {
            let replicas = self.map.replicas(shard).to_vec();
            let mut answered = false;
            let mut last_err: Option<ClientError> = None;
            for addr in &replicas {
                match self.call_replica(addr, &cmd) {
                    Ok(reply) => {
                        if let Some(v) = reply.get_vector("names") {
                            names.extend(v.iter().filter_map(|s| s.as_text().map(str::to_string)));
                        }
                        answered = true;
                        break;
                    }
                    Err(err) => last_err = Some(err),
                }
            }
            if !answered {
                return Err(last_err.unwrap_or(Self::no_shards()));
            }
        }
        let mut names: Vec<String> = names.into_iter().collect();
        names.sort();
        Ok(names)
    }
}

impl std::fmt::Debug for ShardedAsdClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ShardedAsdClient({} shards, epoch {})",
            self.map.shard_count(),
            self.map.epoch()
        )
    }
}

// ---------------------------------------------------------------------------
// Spawning the plane
// ---------------------------------------------------------------------------

/// A running sharded directory plane: the map plus one replica group per
/// shard, `handles[shard][replica]` in spawn order.
pub struct ShardedDirectory {
    pub map: ShardMap,
    pub handles: Vec<ReplicaGroup<AsdMember>>,
}

/// What one directory replica is built from: an ASD at its map address,
/// granting `lease` and carrying the full shard map.
#[derive(Clone)]
pub struct AsdMember {
    config: DaemonConfig,
    lease: Duration,
    map: ShardMap,
}

impl Recipe for AsdMember {
    type Replica = DaemonHandle;

    /// A first start is an empty ASD; a restart is an empty ASD `rejoining`
    /// a shard whose other replicas are live: its leases repopulate through
    /// renewal-driven repair, and for the one lease that takes it answers
    /// name lookups only (`Asd::rejoining`).
    fn start(&self, net: &SimNet, at: u64) -> Result<(DaemonHandle, Option<String>), SpawnError> {
        let mut asd = Asd::new(self.lease).with_shard_map(self.map.clone());
        if at > 0 {
            asd = asd.rejoining(net.clock().now());
        }
        let config = self.config.clone().with_incarnation(at);
        Ok((Daemon::spawn(net, config, Box::new(asd))?, None))
    }
}

impl ShardedDirectory {
    /// A routing client over this plane's shared link pool.
    pub fn client(&self, pool: Arc<LinkPool>) -> ShardedAsdClient {
        ShardedAsdClient::new(pool, self.map.clone())
    }

    /// The host a given replica runs on.
    pub fn replica_host(&self, shard: usize, replica: usize) -> HostId {
        self.map.replicas(shard)[replica].host.clone()
    }

    /// Restart replica `r` of shard `s` in place ([`ReplicaGroup::respawn`]).
    pub fn respawn_replica(&mut self, net: &SimNet, s: usize, r: usize) -> Result<(), SpawnError> {
        self.handles[s].respawn(net, r)
    }

    /// Stop every replica.
    pub fn shutdown(self) {
        self.handles.into_iter().for_each(ReplicaGroup::shutdown);
    }
}

/// Bring up `shards × replication` ASD daemons spread round-robin across
/// `hosts`, each granting `lease` and carrying the full shard map.  Ports
/// are `base_port + shard * replication + replica`.
pub fn spawn_sharded_asd(
    net: &SimNet,
    hosts: &[HostId],
    shards: usize,
    replication: usize,
    lease: Duration,
    base_port: u16,
) -> Result<ShardedDirectory, SpawnError> {
    let map = ShardMap(GroupMap::spread(hosts, shards, replication, base_port));
    let handles = (0..shards)
        .map(|s| {
            ReplicaGroup::spawn(net, map.replicas(s), |r, addr| AsdMember {
                config: DaemonConfig::new(
                    format!("asd-s{s}r{r}"),
                    "Service.ServiceDirectory.Shard",
                    "machineroom",
                    addr.host.clone(),
                    addr.port,
                ),
                lease,
                map: map.clone(),
            })
        })
        .collect::<Result<_, _>>()?;
    Ok(ShardedDirectory { map, handles })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What `ShardMap` adds to [`GroupMap`]: the name's bytes are the key,
    /// and the map travels as the `shardMap` reply with its rows under
    /// `shards=` — byte for byte what the verb answered before the map
    /// moved into `ace_core::placement`.
    #[test]
    fn shard_map_keys_by_name_and_serves_shards_rows() {
        let layout = |base: usize| {
            (0..2)
                .map(|r| Addr::new(format!("h{}", base + r), 5900 + (base + r) as u16))
                .collect()
        };
        let m = ShardMap::new(7, vec![layout(0), layout(2)]);
        for name in ["svc0", "svc1", "camera_hawk", ""] {
            assert_eq!(m.shard_for(name), m.owner(name.as_bytes()));
            assert_eq!(m.replicas_for(name), m.replicas(m.shard_for(name)));
        }
        assert_eq!(m.shard_count(), 2);
        assert_eq!(
            m.to_reply().to_wire(),
            "ok epoch=7 count=2 shards={{\"0\",\"h0\",\"5900\"},{\"0\",\"h1\",\"5901\"},\
             {\"1\",\"h2\",\"5902\"},{\"1\",\"h3\",\"5903\"}};"
        );
    }

    /// What a directory replica is spawned as: the literal the plane's
    /// spawn produced before its shards became replica groups.
    #[test]
    fn every_directory_replica_spawns_as_it_always_did() {
        let net = SimNet::new();
        let hosts: Vec<HostId> = ["h0", "h1", "h2", "h3"].map(HostId::from).to_vec();
        for h in &hosts {
            net.add_host(h.as_str());
        }
        let dir = spawn_sharded_asd(&net, &hosts, 2, 3, Duration::from_secs(10), 5900).unwrap();
        let c = dir.handles[1][1].config();
        let pinned = format!(
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
        );
        assert_eq!(
            pinned,
            "asd-s1r1 Service.ServiceDirectory.Shard machineroom h0:5904 None None None 0 false false"
        );
        dir.shutdown();
    }
}
