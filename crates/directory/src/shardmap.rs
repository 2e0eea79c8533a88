//! The sharded, replicated directory plane.
//!
//! One ASD daemon answering every lookup in the building is the hard
//! ceiling on environment scale: §2.4's central directory serializes the
//! resolution path of every client.  This module partitions the
//! registration space across N shards and replicates each shard, so the
//! directory plane scales horizontally and survives replica crashes:
//!
//! * [`ShardMap`] — the cluster layout (replica addresses per shard) with
//!   rendezvous-hash placement.  Every replica of every shard carries the
//!   full map and serves it via the `shardMap` verb, so clients bootstrap
//!   from any well-known replica.
//! * [`ShardedAsdClient`] — routes registrations and name lookups to the
//!   owning shard through the shared [`LinkPool`] fast path, writes with a
//!   majority quorum ([`ace_core::quorum`] — the same discipline as the
//!   persistent store's replica client), and fans cross-shard queries out
//!   to every shard with smallest-set-first merging.
//! * [`spawn_sharded_asd`] — brings the plane up: `shards × replication`
//!   ASD daemons spread across hosts.
//!
//! # Placement
//!
//! Registrations are placed by **rendezvous (HRW) hash of the service
//! name**.  The name is the directory's unique key and the production
//! resolution path (`FailoverClient` resolves by name on every cache
//! miss), so name lookups touch exactly one shard — that is what makes
//! aggregate lookup throughput scale with the shard count.  Room and
//! class-segment remain *filter* dimensions: each shard keeps the PR 5
//! inverted indexes over its own registrations, and room/class queries
//! fan out to all shards, intersect server-side, and merge client-side.
//! (Placing by room or class-segment instead would send every *name*
//! lookup to every shard and cap aggregate throughput at a single
//! shard's, while renames of a room would migrate registrations; see
//! DESIGN.md "Directory plane".)
//!
//! # Replication and repair
//!
//! Each shard is a replica group with majority-quorum writes and
//! per-name incarnation fencing (PR 6): a register/renew carrying a
//! stale incarnation is rejected with `E_BADSTATE` by any replica that
//! knows better.  A replica that restarts empty is repaired by the
//! renewal traffic itself: a renew answered with `E_NOTFOUND` triggers
//! an immediate re-register on that replica — the directory analog of
//! the store's anti-entropy pull, driven by the writers that own the
//! data.  Reads are served by any replica (rotating round-robin), and a
//! name lookup that comes back empty falls through to the remaining
//! replicas before concluding the name is unregistered, so a repairing
//! replica never manufactures a false `NotFound`.

use crate::asd::Asd;
use ace_core::metrics::Histogram;
use ace_core::prelude::*;
use ace_core::protocol::{self, ServiceEntry};
use ace_core::SpawnError;
use ace_security::hash::fnv64;
use ace_security::keys::KeyPair;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// The shard map
// ---------------------------------------------------------------------------

/// The directory plane layout: replica addresses per shard, plus a map
/// epoch so clients can tell a newer layout from an older one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    epoch: u64,
    /// `shards[s]` is the replica set of shard `s`, in spawn order.
    shards: Vec<Vec<Addr>>,
}

impl ShardMap {
    /// A map over the given replica sets.
    pub fn new(epoch: u64, shards: Vec<Vec<Addr>>) -> ShardMap {
        ShardMap { epoch, shards }
    }

    /// The map epoch (bumped whenever the layout changes).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The replica set of shard `s`.
    pub fn replicas(&self, s: usize) -> &[Addr] {
        &self.shards[s]
    }

    /// Rendezvous (highest-random-weight) placement: every shard scores
    /// the name, the highest score owns it.  Unlike `hash % n`, adding a
    /// shard only moves the ~1/n of names the new shard now wins.
    pub fn shard_for(&self, name: &str) -> usize {
        let mut best = 0usize;
        let mut best_score = 0u64;
        for s in 0..self.shards.len() {
            let mut material = Vec::with_capacity(name.len() + 9);
            material.extend_from_slice(name.as_bytes());
            material.push(0);
            material.extend_from_slice(&(s as u64).to_le_bytes());
            let score = fnv64(&material);
            if s == 0 || score > best_score {
                best = s;
                best_score = score;
            }
        }
        best
    }

    /// The replica set owning `name`.
    pub fn replicas_for(&self, name: &str) -> &[Addr] {
        self.replicas(self.shard_for(name))
    }

    /// Majority quorum of shard `s`'s replica set.
    pub fn quorum(&self, s: usize) -> usize {
        ace_core::quorum::majority(self.shards[s].len())
    }

    /// Every replica address of every shard.
    pub fn all_replicas(&self) -> impl Iterator<Item = &Addr> {
        self.shards.iter().flatten()
    }

    /// Wire encoding: `{{shard,host,port},…}` rows.
    pub fn to_value(&self) -> Value {
        Value::Array(
            self.shards
                .iter()
                .enumerate()
                .flat_map(|(s, replicas)| {
                    replicas.iter().map(move |addr| {
                        vec![
                            Scalar::Str(s.to_string()),
                            Scalar::Str(addr.host.to_string()),
                            Scalar::Str(addr.port.to_string()),
                        ]
                    })
                })
                .collect(),
        )
    }

    /// Decode the `shards=` rows.  Malformed rows or a non-contiguous
    /// shard numbering reject the whole map — routing on a half-decoded
    /// layout would misplace registrations silently.
    pub fn from_value(epoch: u64, value: &Value) -> Option<ShardMap> {
        let rows = match value {
            v if v.as_vector().is_some_and(|s| s.is_empty()) => {
                return Some(ShardMap::new(epoch, Vec::new()))
            }
            v => v.as_array()?,
        };
        let mut shards: Vec<Vec<Addr>> = Vec::new();
        for row in rows {
            if row.len() != 3 {
                return None;
            }
            let s: usize = row[0].as_text()?.parse().ok()?;
            let port: u16 = row[2].as_text()?.parse().ok()?;
            if s > shards.len() {
                return None; // shard indexes must arrive contiguously
            }
            if s == shards.len() {
                shards.push(Vec::new());
            }
            shards[s].push(Addr::new(row[1].as_text()?, port));
        }
        if shards.iter().any(Vec::is_empty) {
            return None;
        }
        Some(ShardMap::new(epoch, shards))
    }

    /// The `shardMap` verb reply.
    pub fn to_reply(&self) -> Reply {
        let epoch = self.epoch as i64;
        let count = self.shard_count() as i64;
        let value = self.to_value();
        Reply::ok_with(|c| {
            c.arg("epoch", epoch)
                .arg("count", count)
                .arg("shards", value)
        })
    }

    /// Decode a `shardMap` reply.
    pub fn from_reply(reply: &CmdLine) -> Option<ShardMap> {
        let epoch = reply.get_int("epoch")?.max(0) as u64;
        Self::from_value(epoch, reply.get("shards")?)
    }

    /// Fetch the map from any replica (clients bootstrap by asking the
    /// well-known directory address).
    pub fn fetch(pool: &Arc<LinkPool>, replica: &Addr) -> Result<ShardMap, ClientError> {
        let reply = pool.checkout(replica)?.call(&CmdLine::new("shardMap"))?;
        ShardMap::from_reply(&reply).ok_or(ClientError::Service {
            code: ErrorCode::Internal,
            msg: "malformed shardMap reply".into(),
        })
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

    /// Register `entry` on its owning shard with a majority quorum.
    /// `E_BADSTATE` from any replica (a newer incarnation is registered)
    /// outranks the quorum count: a fenced writer must stop, not win by
    /// outvoting the replica that knows better.
    pub fn register(
        &mut self,
        entry: &ServiceEntry,
        incarnation: u64,
    ) -> Result<Duration, ClientError> {
        if self.map.shard_count() == 0 {
            return Err(Self::no_shards());
        }
        let shard = self.map.shard_for(&entry.name);
        let cmd = protocol::register_cmd(entry, Some(incarnation));
        let mut round = QuorumRound::new(self.map.replicas(shard).len(), self.map.quorum(shard));
        let mut lease_ms = 0i64;
        let mut fenced: Option<ClientError> = None;
        for addr in self.map.replicas(shard).to_vec() {
            match self.call_replica(&addr, &cmd) {
                Ok(reply) => {
                    round.ack();
                    lease_ms = reply.get_int("lease").unwrap_or(lease_ms);
                }
                Err(err) if err.code() == Some(ErrorCode::BadState) => fenced = Some(err),
                Err(_) => {}
            }
        }
        if let Some(err) = fenced {
            return Err(err);
        }
        if !round.reached() {
            return Err(ClientError::Service {
                code: ErrorCode::Unavailable,
                msg: format!(
                    "register {}: {}/{} replicas acked, quorum {}",
                    entry.name,
                    round.acked(),
                    self.map.replicas(shard).len(),
                    round.quorum()
                ),
            });
        }
        self.registered
            .insert(entry.name.clone(), (entry.clone(), incarnation));
        Ok(Duration::from_millis(lease_ms.max(0) as u64))
    }

    /// Renew `name` on its owning shard with a majority quorum, repairing
    /// any replica that lost the registration (restart) by re-registering
    /// it on the spot.
    pub fn renew(&mut self, name: &str) -> Result<(), ClientError> {
        if self.map.shard_count() == 0 {
            return Err(Self::no_shards());
        }
        let (entry, incarnation) =
            self.registered
                .get(name)
                .cloned()
                .ok_or(ClientError::Service {
                    code: ErrorCode::NotFound,
                    msg: format!("{name} was not registered through this client"),
                })?;
        let shard = self.map.shard_for(name);
        let cmd = CmdLine::new("renewLease")
            .arg("name", name)
            .arg("incarnation", incarnation as i64);
        let mut round = QuorumRound::new(self.map.replicas(shard).len(), self.map.quorum(shard));
        let mut fenced: Option<ClientError> = None;
        for addr in self.map.replicas(shard).to_vec() {
            match self.call_replica(&addr, &cmd) {
                Ok(_) => round.ack(),
                Err(err) if err.code() == Some(ErrorCode::NotFound) => {
                    // The replica restarted without this lease: repair it
                    // with a full re-register (renewal-driven anti-entropy).
                    let reg = protocol::register_cmd(&entry, Some(incarnation));
                    if self.call_replica(&addr, &reg).is_ok() {
                        self.repairs += 1;
                        round.ack();
                    }
                }
                Err(err) if err.code() == Some(ErrorCode::BadState) => fenced = Some(err),
                Err(_) => {}
            }
        }
        if let Some(err) = fenced {
            return Err(err);
        }
        if round.reached() {
            Ok(())
        } else {
            Err(ClientError::Service {
                code: ErrorCode::Unavailable,
                msg: format!(
                    "renew {name}: {}/{} replicas acked, quorum {}",
                    round.acked(),
                    self.map.replicas(shard).len(),
                    round.quorum()
                ),
            })
        }
    }

    /// Deregister `name`.  A replica answering `E_NOTFOUND` already lacks
    /// the lease, which is the desired end state — it counts as an ack.
    pub fn remove(&mut self, name: &str) -> Result<(), ClientError> {
        if self.map.shard_count() == 0 {
            return Err(Self::no_shards());
        }
        let shard = self.map.shard_for(name);
        let cmd = CmdLine::new("removeService").arg("name", name);
        let mut round = QuorumRound::new(self.map.replicas(shard).len(), self.map.quorum(shard));
        for addr in self.map.replicas(shard).to_vec() {
            match self.call_replica(&addr, &cmd) {
                Ok(_) => round.ack(),
                Err(err) if err.code() == Some(ErrorCode::NotFound) => round.ack(),
                Err(_) => {}
            }
        }
        self.registered.remove(name);
        if round.reached() {
            Ok(())
        } else {
            Err(ClientError::Service {
                code: ErrorCode::Unavailable,
                msg: format!("remove {name}: quorum not reached"),
            })
        }
    }

    /// One shard's answer, trying replicas round-robin from a rotating
    /// start so read load spreads over the whole replica set.  When
    /// `retry_empty` is set (name lookups), an empty answer falls through
    /// to the remaining replicas: a freshly restarted replica that has
    /// not been repaired yet must not manufacture a false `NotFound`.
    fn lookup_shard(
        &mut self,
        shard: usize,
        cmd: &CmdLine,
        retry_empty: bool,
    ) -> Result<Vec<ServiceEntry>, ClientError> {
        let replicas = self.map.replicas(shard).to_vec();
        self.read_rr = self.read_rr.wrapping_add(1);
        let start = self.read_rr % replicas.len();
        let mut first_empty: Option<Vec<ServiceEntry>> = None;
        let mut last_err: Option<ClientError> = None;
        for i in 0..replicas.len() {
            let addr = &replicas[(start + i) % replicas.len()];
            match self.call_replica(addr, cmd) {
                Ok(reply) => {
                    let entries = protocol::entries_from_reply(&reply)?;
                    if entries.is_empty() && retry_empty {
                        first_empty.get_or_insert(entries);
                        continue;
                    }
                    return Ok(entries);
                }
                Err(err) => last_err = Some(err),
            }
        }
        if let Some(empty) = first_empty {
            return Ok(empty); // every reachable replica agreed: not there
        }
        Err(last_err.unwrap_or(Self::no_shards()))
    }

    /// Look up services by any combination of name/class/room.
    ///
    /// A name lookup touches exactly the owning shard; class/room/
    /// unfiltered queries fan out to every shard and merge.  A fan-out
    /// fails if any shard has no reachable replica — a silently partial
    /// directory answer is worse than an error.
    pub fn lookup(
        &mut self,
        name: Option<&str>,
        class: Option<&str>,
        room: Option<&str>,
    ) -> Result<Vec<ServiceEntry>, ClientError> {
        if self.map.shard_count() == 0 {
            return Err(Self::no_shards());
        }
        let started = Instant::now();
        let cmd = protocol::lookup_cmd(name, class, room);
        let result = match name {
            Some(n) => {
                let shard = self.map.shard_for(n);
                self.lookup_shard(shard, &cmd, true)
            }
            None => {
                self.fanouts += 1;
                let mut partials: Vec<Vec<ServiceEntry>> = Vec::new();
                for shard in 0..self.map.shard_count() {
                    partials.push(self.lookup_shard(shard, &cmd, false)?);
                }
                // Smallest-set-first merge: start from the smallest
                // partial so the dedup set stays minimal for as long as
                // possible, then present one sorted directory answer.
                partials.sort_by_key(Vec::len);
                let mut seen: HashSet<String> = HashSet::new();
                let mut merged: Vec<ServiceEntry> = Vec::new();
                for partial in partials {
                    for entry in partial {
                        if seen.insert(entry.name.clone()) {
                            merged.push(entry);
                        }
                    }
                }
                merged.sort_by(|a, b| a.name.cmp(&b.name));
                Ok(merged)
            }
        };
        if let Some(hist) = &self.lookup_hist {
            hist.record(started.elapsed());
        }
        result
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

/// A running sharded directory plane: the map plus daemon handles,
/// `handles[shard][replica]` in spawn order.
pub struct ShardedDirectory {
    pub map: ShardMap,
    pub handles: Vec<Vec<DaemonHandle>>,
    lease: Duration,
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

    /// A [`FailoverClient`] for `service_name` that resolves through the
    /// owning shard's full replica set.
    pub fn failover_client(
        &self,
        net: &SimNet,
        from_host: impl Into<HostId>,
        identity: KeyPair,
        service_name: &str,
    ) -> FailoverClient {
        let replicas = self.map.replicas_for(service_name).to_vec();
        FailoverClient::bind(
            net.clone(),
            from_host,
            identity,
            replicas[0].clone(),
            service_name,
        )
        .with_directory_replicas(replicas)
    }

    /// Re-spawn one replica in place (post-crash recovery): a fresh empty
    /// ASD at the same address, carrying the same shard map.  Its leases
    /// repopulate through renewal-driven repair.
    pub fn respawn_replica(
        &mut self,
        net: &SimNet,
        shard: usize,
        replica: usize,
    ) -> Result<(), SpawnError> {
        let addr = self.map.replicas(shard)[replica].clone();
        let handle = Daemon::spawn(
            net,
            DaemonConfig::new(
                format!("asd-s{shard}r{replica}"),
                "Service.ServiceDirectory.Shard",
                "machineroom",
                addr.host.clone(),
                addr.port,
            ),
            Box::new(Asd::new(self.lease).with_shard_map(self.map.clone())),
        )?;
        self.handles[shard][replica] = handle;
        Ok(())
    }

    /// Stop every replica.
    pub fn shutdown(self) {
        for shard in self.handles {
            for handle in shard {
                handle.shutdown();
            }
        }
    }
}

/// Subscribe a [`ResolutionInvalidator`] listener to the `serviceExpired`
/// event of **every** replica of every shard, so lease expiry anywhere in
/// the plane evicts the matching cache entry.  Returns how many replicas
/// accepted the subscription.
pub fn subscribe_invalidation_all(
    net: &SimNet,
    from_host: &HostId,
    identity: &KeyPair,
    map: &ShardMap,
    listener_name: &str,
    listener_addr: &Addr,
) -> Result<usize, ClientError> {
    let mut subscribed = 0;
    let mut last_err: Option<ClientError> = None;
    for replica in map.all_replicas() {
        let attempt = ServiceClient::connect(net, from_host, replica.clone(), identity).and_then(
            |mut client| {
                ace_core::subscribe_expiry_invalidation(&mut client, listener_name, listener_addr)
            },
        );
        match attempt {
            Ok(()) => subscribed += 1,
            Err(err) => last_err = Some(err),
        }
    }
    if subscribed == 0 {
        if let Some(err) = last_err {
            return Err(err);
        }
    }
    Ok(subscribed)
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
    assert!(shards > 0 && replication > 0, "empty plane");
    assert!(!hosts.is_empty(), "no hosts to place replicas on");
    let layout: Vec<Vec<Addr>> = (0..shards)
        .map(|s| {
            (0..replication)
                .map(|r| {
                    let idx = s * replication + r;
                    Addr::new(hosts[idx % hosts.len()].clone(), base_port + idx as u16)
                })
                .collect()
        })
        .collect();
    let map = ShardMap::new(1, layout);
    let mut handles = Vec::with_capacity(shards);
    for s in 0..shards {
        let mut shard_handles = Vec::with_capacity(replication);
        for (r, addr) in map.replicas(s).iter().enumerate() {
            let handle = Daemon::spawn(
                net,
                DaemonConfig::new(
                    format!("asd-s{s}r{r}"),
                    "Service.ServiceDirectory.Shard",
                    "machineroom",
                    addr.host.clone(),
                    addr.port,
                ),
                Box::new(Asd::new(lease).with_shard_map(map.clone())),
            )?;
            shard_handles.push(handle);
        }
        handles.push(shard_handles);
    }
    Ok(ShardedDirectory {
        map,
        handles,
        lease,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(shards: usize, replication: usize) -> ShardMap {
        ShardMap::new(
            1,
            (0..shards)
                .map(|s| {
                    (0..replication)
                        .map(|r| Addr::new(format!("d{}", s * replication + r), 5900 + r as u16))
                        .collect()
                })
                .collect(),
        )
    }

    #[test]
    fn rendezvous_placement_is_stable_and_balanced() {
        let m = map(4, 3);
        // Deterministic.
        for i in 0..50 {
            let name = format!("svc{i}");
            assert_eq!(m.shard_for(&name), m.shard_for(&name));
        }
        // Roughly balanced: each of 4 shards should own a fair share of
        // 4,000 names (loose bound — FNV is not adversarial-grade).
        let mut counts = [0usize; 4];
        for i in 0..4000 {
            counts[m.shard_for(&format!("svc{i}"))] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                (500..=1800).contains(&c),
                "shard {s} owns {c} of 4000 names — badly unbalanced"
            );
        }
    }

    #[test]
    fn growing_the_plane_only_moves_the_new_shards_share() {
        let before = map(4, 1);
        let layout: Vec<Vec<Addr>> = (0..5)
            .map(|s| vec![Addr::new(format!("d{s}"), 5900)])
            .collect();
        let after = ShardMap::new(2, layout);
        let total = 4000;
        let moved = (0..total)
            .filter(|i| {
                let name = format!("svc{i}");
                before.shard_for(&name) != after.shard_for(&name)
            })
            .count();
        // HRW moves ~1/5 of names to the new shard; `hash % n` would
        // reshuffle ~4/5.  Allow generous slack.
        assert!(
            moved < total * 2 / 5,
            "{moved}/{total} names moved — placement is not rendezvous-stable"
        );
    }

    #[test]
    fn shard_map_roundtrips_over_the_wire() {
        let m = map(3, 2);
        let reply = m.to_reply();
        let Reply::Ok(cmd) = reply else {
            panic!("map reply must be ok")
        };
        let decoded = ShardMap::from_reply(&cmd).expect("decode");
        assert_eq!(decoded, m);

        // Empty map (unsharded ASD) decodes as zero shards.
        let empty = ShardMap::from_value(0, &Value::Vector(Vec::new())).expect("empty");
        assert_eq!(empty.shard_count(), 0);

        // Non-contiguous shard numbering is rejected wholesale.
        let bad = Value::Array(vec![vec![
            Scalar::Str("1".into()),
            Scalar::Str("h".into()),
            Scalar::Str("5900".into()),
        ]]);
        assert!(ShardMap::from_value(1, &bad).is_none());
    }
}
