//! Store scale-out: consistent-hash shard placement and the routing client.
//!
//! One three-replica group holding the whole keyspace caps write
//! throughput at a single quorum group (§6).  This module partitions the
//! keyspace across independent replica groups, the store analog of the
//! directory's sharded plane (PR 9):
//!
//! * [`StorePlacement`] — the plane's [`GroupMap`] (layout, rendezvous
//!   hash, row codec and fetch all live in [`ace_core::placement`]), keyed
//!   by `namespace/key` and served by every replica under `psPlacement`.
//! * [`ShardedStoreClient`] — routes `put`/`get`/`delete` to the owning
//!   group, splits `put_many` batches per shard and commits them in
//!   **parallel** quorum rounds, and serves healthy-shard reads through a
//!   **read lease** (one replica round-trip) with quorum-scan fallback.
//!
//! Keys place by the full `ns ++ 0 ++ key`, so single-key operations — the
//! hot path — touch exactly one group; `list` is the fan-out that pays for
//! it (namespaces span groups by design).
//!
//! # Read leases
//!
//! A client grants a time-bounded lease to one replica of a group through
//! the quorum path (`psLeaseGrant` to every replica, majority + holder
//! ack required).  While the lease is fresh, `get` asks only the holder
//! (`psGetLeased`); the holder refuses with `E_BADSTATE` unless it is the
//! live leaseholder, and the client then falls back to the quorum scan.
//! Writes stay quorum-committed; a write the holder did **not** ack —
//! unreachable, or it refused the proposal for something newer it holds —
//! revokes the lease (best-effort at the holder, unconditionally at the
//! client), so leased reads can trail a committed write by at most one
//! lease TTL, and only while the holder is alive yet unreachable from the
//! writer.  Every leased reply also tells the group client the key's
//! version and bytes, so the next write of that key proposes above it
//! without asking, and the next read offers the name of the value it holds
//! — answered `same=true`, without the bytes, when the holder holds exactly
//! that (see [`crate::client`]).  See DESIGN.md "Store scale-out" for the
//! full safety argument.

use crate::client::{StoreClient, StoreError};
use ace_core::prelude::*;
use ace_security::keys::KeyPair;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A batch slice tagged with each item's index in the caller's input order.
type IndexedBatch = Vec<(usize, (String, Vec<u8>))>;
/// One group's split-batch outcome: the input indices it owned, and the
/// versions its quorum round assigned (or the error that stopped it).
type GroupBatchResult = (Vec<usize>, Result<Vec<u64>, StoreError>);

// ---------------------------------------------------------------------------
// The placement map
// ---------------------------------------------------------------------------

/// The store plane layout: a [`GroupMap`] keyed by `namespace/key` and
/// served under the `psPlacement` verb.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorePlacement(pub(crate) GroupMap);

impl std::ops::Deref for StorePlacement {
    type Target = GroupMap;
    fn deref(&self) -> &GroupMap {
        &self.0
    }
}

impl StorePlacement {
    /// A placement over the given replica groups.
    pub fn new(epoch: u64, groups: Vec<Vec<Addr>>) -> StorePlacement {
        StorePlacement(GroupMap::new(epoch, groups))
    }

    /// Number of shard groups.
    pub fn group_count(&self) -> usize {
        self.count()
    }

    /// The group owning `ns/key`: [`GroupMap::owner`] of `ns ++ 0 ++ key`,
    /// so the same key under two namespaces is free to land on two groups.
    pub fn group_for(&self, ns: &str, key: &str) -> usize {
        self.owner(&[ns.as_bytes(), &[0], key.as_bytes()].concat())
    }

    /// The `psPlacement` verb reply (rows under `groups=`).
    pub fn to_reply(&self) -> Reply {
        self.0.to_reply("groups")
    }

    /// Fetch the placement from any replica (clients bootstrap by asking a
    /// well-known replica address).
    pub fn fetch(pool: &Arc<LinkPool>, replica: &Addr) -> Result<StorePlacement, ClientError> {
        GroupMap::fetch(pool, replica, "psPlacement", "groups").map(StorePlacement)
    }
}

// ---------------------------------------------------------------------------
// The sharded client
// ---------------------------------------------------------------------------

/// Sharded-client health counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardedStats {
    /// Reads served by the leaseholder in one round-trip.
    pub leased_reads: u64,
    /// Reads that fell back to the quorum scan (no lease, stale lease, or
    /// holder refused/unreachable).
    pub quorum_fallbacks: u64,
    /// Leases granted (majority + holder ack).
    pub lease_grants: u64,
    /// Leases dropped because the holder missed a quorum write.
    pub lease_losses: u64,
    /// Leased reads the holder answered `same=true`: the bytes were the
    /// value the group client held, and did not cross the wire.
    pub held_reads: u64,
    /// `put_many` calls that spanned more than one shard group.
    pub split_batches: u64,
}

/// How long a granted read lease lasts at its holder.
const LEASE_TTL: Duration = Duration::from_secs(2);

/// The read lease a client holds over one group.
#[derive(Debug, Clone)]
struct GroupLease {
    /// Replica index within the group.
    holder: usize,
    epoch: u64,
    granted_at: Instant,
}

impl GroupLease {
    /// Conservatively fresh at `now`: the client started its clock
    /// before the holder did, so it stops using the lease at 3/4 of the
    /// TTL while the holder keeps honouring it until the full TTL.
    fn fresh(&self, now: Instant) -> bool {
        now.saturating_duration_since(self.granted_at) < LEASE_TTL * 3 / 4
    }
}

/// What a leased read attempt concluded.
enum LeasedOutcome {
    Value(Vec<u8>),
    NotFound,
    /// Holder refused or was unreachable: drop the lease, scan the quorum.
    Fallback,
}

/// A store client that routes per shard group and reads through leases.
///
/// One pooled [`StoreClient`] per group does the quorum work; this layer
/// owns routing, batch splitting, and the lease protocol.
pub struct ShardedStoreClient {
    placement: StorePlacement,
    pool: Arc<LinkPool>,
    groups: Vec<StoreClient>,
    leases: Vec<Option<GroupLease>>,
    /// Monotone grant epoch shared across groups (simpler than per-group
    /// counters, and replicas only compare epochs within one group).
    lease_epoch: u64,
    /// Rotates lease holders so read load spreads over a group's replicas.
    holder_rr: usize,
    stats: ShardedStats,
}

impl ShardedStoreClient {
    /// A routing client over `placement`, one pooled group client each.
    pub fn new(
        net: SimNet,
        from_host: impl Into<HostId>,
        identity: KeyPair,
        pool: Arc<LinkPool>,
        placement: StorePlacement,
    ) -> ShardedStoreClient {
        let from_host = from_host.into();
        let groups = (0..placement.group_count())
            .map(|g| {
                StoreClient::new(
                    net.clone(),
                    from_host.clone(),
                    identity,
                    placement.replicas(g).to_vec(),
                )
                .with_pool(Arc::clone(&pool))
            })
            .collect();
        let leases = (0..placement.group_count()).map(|_| None).collect();
        ShardedStoreClient {
            placement,
            pool,
            groups,
            leases,
            lease_epoch: 0,
            holder_rr: 0,
            stats: ShardedStats::default(),
        }
    }

    /// The placement this client routes with.
    pub fn placement(&self) -> &StorePlacement {
        &self.placement
    }

    /// Sharded-client health counters.
    pub fn stats(&self) -> ShardedStats {
        self.stats
    }

    /// The per-group quorum client (tests and benchmarks reach through).
    pub fn group_client(&mut self, g: usize) -> &mut StoreClient {
        &mut self.groups[g]
    }

    /// The group owning `ns/key`.
    pub fn group_for(&self, ns: &str, key: &str) -> usize {
        self.placement.group_for(ns, key)
    }

    /// Which replica of group `g` currently holds this client's read
    /// lease (tests aim faults at it).
    pub fn lease_holder(&self, g: usize) -> Option<usize> {
        self.leases[g].as_ref().map(|l| l.holder)
    }

    fn no_groups() -> StoreError {
        StoreError::QuorumFailed {
            acked: 0,
            quorum: 1,
        }
    }

    /// Write a value to its owning group (majority quorum there).
    pub fn put(&mut self, ns: &str, key: &str, data: &[u8]) -> Result<u64, StoreError> {
        if self.placement.group_count() == 0 {
            return Err(Self::no_groups());
        }
        let g = self.placement.group_for(ns, key);
        let result = self.groups[g].put(ns, key, data);
        self.enforce_holder_ack(g);
        result
    }

    /// Tombstone a key on its owning group.
    pub fn delete(&mut self, ns: &str, key: &str) -> Result<u64, StoreError> {
        if self.placement.group_count() == 0 {
            return Err(Self::no_groups());
        }
        let g = self.placement.group_for(ns, key);
        let result = self.groups[g].delete(ns, key);
        self.enforce_holder_ack(g);
        result
    }

    /// Read a key: one leaseholder round-trip on a healthy shard, quorum
    /// scan (with read repair) when the lease is stale or refused.
    pub fn get(&mut self, ns: &str, key: &str) -> Result<Vec<u8>, StoreError> {
        if self.placement.group_count() == 0 {
            return Err(StoreError::AllReplicasDown);
        }
        let g = self.placement.group_for(ns, key);
        if let Some(holder) = self.ensure_lease(g) {
            match self.leased_get(g, holder, ns, key) {
                LeasedOutcome::Value(data) => {
                    self.stats.leased_reads += 1;
                    return Ok(data);
                }
                LeasedOutcome::NotFound => {
                    self.stats.leased_reads += 1;
                    return Err(StoreError::NotFound);
                }
                LeasedOutcome::Fallback => self.leases[g] = None,
            }
        }
        self.stats.quorum_fallbacks += 1;
        self.groups[g].get(ns, key)
    }

    /// Write a run of values: the batch splits by owning group and the
    /// per-group `psPutBatch` quorum rounds run **in parallel**, so a
    /// multi-shard batch costs one group's latency, not the sum.  Returns
    /// versions index-aligned with `items`.  An `Err` means at least one
    /// group failed its quorum — per-group batches are all-or-nothing, but
    /// *other* groups may have committed (cross-shard batches are not
    /// atomic; see DESIGN.md).
    pub fn put_many(
        &mut self,
        ns: &str,
        items: &[(String, Vec<u8>)],
    ) -> Result<Vec<u64>, StoreError> {
        if self.placement.group_count() == 0 {
            return Err(Self::no_groups());
        }
        if items.is_empty() {
            return Ok(Vec::new());
        }
        let n = self.placement.group_count();
        let mut per_group: Vec<IndexedBatch> = (0..n).map(|_| Vec::new()).collect();
        for (i, (key, data)) in items.iter().enumerate() {
            let g = self.placement.group_for(ns, key);
            per_group[g].push((i, (key.clone(), data.clone())));
        }
        let wrote: Vec<bool> = per_group.iter().map(|w| !w.is_empty()).collect();
        if wrote.iter().filter(|&&w| w).count() > 1 {
            self.stats.split_batches += 1;
        }
        let mut versions = vec![0u64; items.len()];
        let results: Vec<GroupBatchResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .groups
                .iter_mut()
                .zip(per_group)
                .filter(|(_, work)| !work.is_empty())
                .map(|(client, work)| {
                    scope.spawn(move || {
                        let idxs: Vec<usize> = work.iter().map(|(i, _)| *i).collect();
                        let batch: Vec<(String, Vec<u8>)> =
                            work.into_iter().map(|(_, kv)| kv).collect();
                        (idxs, client.put_many(ns, &batch))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard batch thread"))
                .collect()
        });
        let mut first_err = None;
        for (idxs, result) in results {
            match result {
                Ok(assigned) => {
                    for (i, v) in idxs.into_iter().zip(assigned) {
                        versions[i] = v;
                    }
                }
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        for (g, wrote) in wrote.into_iter().enumerate() {
            if wrote {
                self.enforce_holder_ack(g);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(versions),
        }
    }

    /// Live keys of `ns` across every group, merged and sorted.  Fails if
    /// any group has no reachable replica — a silently partial listing is
    /// worse than an error.
    pub fn list(&mut self, ns: &str) -> Result<Vec<String>, StoreError> {
        if self.placement.group_count() == 0 {
            return Err(StoreError::AllReplicasDown);
        }
        let mut merged: BTreeSet<String> = BTreeSet::new();
        for client in &mut self.groups {
            merged.extend(client.list(ns)?);
        }
        Ok(merged.into_iter().collect())
    }

    // -- the lease protocol -------------------------------------------------

    /// A fresh lease's holder index, granting one if needed.  `None` means
    /// no lease could be granted right now (reads fall back to quorum).
    fn ensure_lease(&mut self, g: usize) -> Option<usize> {
        if let Some(lease) = &self.leases[g] {
            if lease.fresh(self.pool.clock().now()) {
                return Some(lease.holder);
            }
        }
        self.grant_lease(g)
    }

    /// Grant a lease over group `g` through the quorum path: every replica
    /// learns the holder, and the grant stands only with a majority *and*
    /// the holder itself acking — a holder that never heard of its lease
    /// would refuse every leased read.
    fn grant_lease(&mut self, g: usize) -> Option<usize> {
        let replicas = self.placement.replicas(g).to_vec();
        if replicas.is_empty() {
            return None;
        }
        self.lease_epoch += 1;
        self.holder_rr = self.holder_rr.wrapping_add(1);
        let holder = self.holder_rr % replicas.len();
        let holder_addr = &replicas[holder];
        let granted_at = self.pool.clock().now();
        let cmd = CmdLine::new("psLeaseGrant")
            .arg(
                "holder",
                Value::Str(format!("{}:{}", holder_addr.host, holder_addr.port)),
            )
            .arg("epoch", self.lease_epoch as i64)
            .arg("ttlMs", LEASE_TTL.as_millis() as i64);
        let mut round = QuorumRound::new(replicas.len(), self.placement.quorum(g));
        let mut holder_acked = false;
        for (idx, addr) in replicas.iter().enumerate() {
            let reply = self
                .pool
                .checkout(addr)
                .and_then(|mut link| link.call(&cmd));
            match reply {
                Ok(_) => {
                    round.ack();
                    if idx == holder {
                        holder_acked = true;
                    }
                }
                Err(err) if err.code() == Some(ErrorCode::BadState) => {
                    // Another granter holds a newer lease there; adopt its
                    // epoch so the next grant outbids instead of losing
                    // the same race forever.
                    if let Some(theirs) = trailing_epoch(&err) {
                        self.lease_epoch = self.lease_epoch.max(theirs);
                    }
                }
                Err(_) => {}
            }
        }
        if round.reached() && holder_acked {
            self.stats.lease_grants += 1;
            self.leases[g] = Some(GroupLease {
                holder,
                epoch: self.lease_epoch,
                granted_at,
            });
            Some(holder)
        } else {
            None
        }
    }

    /// One leaseholder read.  `E_NOTFOUND` from the live holder is
    /// authoritative (within the documented ≤TTL staleness bound);
    /// `E_BADSTATE` or an unreachable holder falls back to the quorum.
    /// When the group client holds a value of the key it offers its name,
    /// and a holder holding exactly that answers `same=true`: the bytes are
    /// the held ones.
    fn leased_get(&mut self, g: usize, holder: usize, ns: &str, key: &str) -> LeasedOutcome {
        let addr = self.placement.replicas(g)[holder].clone();
        let mut cmd = CmdLine::new("psGetLeased")
            .arg("ns", ns)
            .arg("key", Value::Str(key.into()));
        let offered = match self.groups[g].held(ns, key) {
            Some((version, writer, _)) => {
                cmd.push_arg("version", version as i64);
                cmd.push_arg("writer", Value::Str(writer.into()));
                true
            }
            None => false,
        };
        match self
            .pool
            .checkout(&addr)
            .and_then(|mut link| link.call(&cmd))
        {
            Ok(reply) if reply.get_bool("same") == Some(true) => {
                match self.groups[g].held(ns, key).filter(|_| offered) {
                    Some((_, _, bytes)) => {
                        self.stats.held_reads += 1;
                        LeasedOutcome::Value(bytes.to_vec())
                    }
                    // `same` as what?  Not an answer.
                    None => LeasedOutcome::Fallback,
                }
            }
            Ok(reply) => match crate::replica::versioned_from_reply(&reply) {
                Some(v) => {
                    // What the next write of this key proposes above, and
                    // what the next read of it offers.
                    self.groups[g].saw(ns, key, &v);
                    if v.deleted {
                        LeasedOutcome::NotFound
                    } else {
                        LeasedOutcome::Value(v.data)
                    }
                }
                None => LeasedOutcome::Fallback,
            },
            Err(err) if err.code() == Some(ErrorCode::NotFound) => LeasedOutcome::NotFound,
            Err(_) => LeasedOutcome::Fallback,
        }
    }

    /// Lease safety after a write: if the holder was **not** among the
    /// ackers of the quorum write just performed on group `g`, its copy
    /// may be stale — revoke at the holder (best-effort: a cast, since no
    /// answer would change what happens here) and drop the lease locally
    /// so leased reads stop until a fresh grant.
    fn enforce_holder_ack(&mut self, g: usize) {
        let Some(lease) = self.leases[g].clone() else {
            return;
        };
        if self.groups[g]
            .last_write_acks()
            .get(lease.holder)
            .copied()
            .unwrap_or(false)
        {
            return;
        }
        self.leases[g] = None;
        self.stats.lease_losses += 1;
        let addr = self.placement.replicas(g)[lease.holder].clone();
        let cmd = CmdLine::new("psLeaseRevoke")
            .arg("holder", Value::Str(format!("{}:{}", addr.host, addr.port)))
            .arg("epoch", lease.epoch as i64);
        if let Ok(mut link) = self.pool.checkout(&addr) {
            let _ = link.cast(&cmd);
        }
    }
}

impl std::fmt::Debug for ShardedStoreClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ShardedStoreClient({} groups, epoch {})",
            self.placement.group_count(),
            self.placement.epoch()
        )
    }
}

/// Parse the epoch a fencing `E_BADSTATE` reply names ("… at epoch N").
fn trailing_epoch(err: &ClientError) -> Option<u64> {
    let ClientError::Service { msg, .. } = err else {
        return None;
    };
    msg.rsplit(' ').next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn placement(groups: usize) -> StorePlacement {
        let layout = |g: usize| {
            (0..2)
                .map(|r| Addr::new(format!("h{}", g * 2 + r), 6100 + (g * 2 + r) as u16))
                .collect()
        };
        StorePlacement::new(7, (0..groups).map(layout).collect())
    }

    /// What `StorePlacement` adds to [`GroupMap`]: `ns ++ 0 ++ key` is the
    /// key, and the map travels as the `psPlacement` reply with its rows
    /// under `groups=` — byte for byte what the verb answered before the
    /// map moved into `ace_core::placement`.
    #[test]
    fn placement_keys_by_ns_and_key_and_serves_groups_rows() {
        let p = placement(2);
        for (ns, key) in [
            ("app", "key0"),
            ("app", "key1"),
            ("workspace", "alice"),
            ("", ""),
        ] {
            let bytes = format!("{ns}\0{key}");
            assert_eq!(p.group_for(ns, key), p.owner(bytes.as_bytes()));
        }
        assert_eq!(p.group_count(), 2);
        assert_eq!(
            p.to_reply().to_wire(),
            "ok epoch=7 count=2 groups={{\"0\",\"h0\",\"6100\"},{\"0\",\"h1\",\"6101\"},\
             {\"1\",\"h2\",\"6102\"},{\"1\",\"h3\",\"6103\"}};"
        );
    }

    #[test]
    fn namespace_and_key_both_place() {
        let p = placement(4);
        // The same key under different namespaces must be free to land on
        // different groups (the hash covers ns ++ 0 ++ key).
        let spread: BTreeSet<usize> = (0..64)
            .map(|i| p.group_for(&format!("ns{i}"), "shared-key"))
            .collect();
        assert!(spread.len() > 1, "namespace is not part of placement");
    }
}
