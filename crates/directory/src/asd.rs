//! The ACE Service Directory (§2.4, Fig. 7).
//!
//! "A central listing or directory of services currently available and
//! running within the ACE environment."  Services register on startup,
//! renew leases periodically, deregister on shutdown, and are purged
//! automatically when their lease expires — "this mechanism accounts for
//! system failures whereby daemons that become inactive due to malfunction
//! are automatically removed from the ASD once their service lease expires."
//!
//! # Indexing
//!
//! The directory sits on every client's resolution path, so its command
//! cost matters.  Three structures keep it flat as the environment grows:
//!
//! * an **expiry min-heap** replaces the per-command full-map expiry scan —
//!   each purge pops only entries whose deadline has actually passed (stale
//!   heap entries from renewals are validated against the live lease and
//!   skipped, the classic lazy-deletion heap);
//! * a **room index** (`room → names`) and a **class-segment inverted
//!   index** (each dot-segment of the class path, plus the full path,
//!   `→ names`) make the corresponding `lookup` filters O(matches) instead
//!   of O(all leases).
//!
//! A `lookup` reply also carries the granted `lease` duration, which lets
//! clients bound how long a resolution may be cached.

use ace_core::prelude::*;
use ace_core::protocol::{self, ServiceEntry};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::time::{Duration, Instant};

/// One live registration.
#[derive(Debug, Clone)]
struct Lease {
    entry: ServiceEntry,
    /// `None` only between a restore and the daemon's start, which gives
    /// every restored lease its deadline (see `restore_state`).
    expires: Option<Instant>,
    /// Spawn generation of the registrant.  Monotone per name: a lower
    /// incarnation is a stale instance (pre-restart or pre-upgrade) whose
    /// late register/renew must not clobber its replacement.
    incarnation: u64,
}

/// Below this heap size compaction is never worth the rebuild.
const HEAP_COMPACT_MIN: usize = 128;

/// The ASD service behavior.
pub struct Asd {
    lease_duration: Duration,
    leases: HashMap<String, Lease>,
    /// Expiry deadlines, oldest first.  Lazy deletion: renewing pushes a
    /// fresh entry without removing the old one, so a popped deadline is
    /// only acted on when it still matches the live lease.  Bounded by
    /// [`Asd::maybe_compact_heap`]: when stale entries outnumber live
    /// leases the heap is rebuilt from the lease map.
    expiry: BinaryHeap<Reverse<(Instant, String)>>,
    /// room → registered names in that room.
    by_room: HashMap<String, HashSet<String>>,
    /// class segment (each dot-segment and the full path) → names.
    by_class_segment: HashMap<String, HashSet<String>>,
    /// Registrations since start (monotonic; for experiments).
    total_registrations: u64,
    /// Lazy-deletion heap rebuilds (surfaced as `asd.heapCompactions`).
    heap_compactions: u64,
    /// When this ASD is one shard of a partitioned directory plane, the
    /// full shard map it serves to clients via the `shardMap` verb.
    shard_map: Option<crate::shardmap::ShardMap>,
    /// A replica respawned empty beside live peers refuses listings (class,
    /// room and unfiltered `lookup`, `listServices`) until this instant, one
    /// lease after it came up: see [`Asd::rejoining`].
    listing_from: Option<Instant>,
}

impl Asd {
    /// An ASD granting leases of the given duration.
    pub fn new(lease_duration: Duration) -> Asd {
        Asd {
            lease_duration,
            leases: HashMap::new(),
            expiry: BinaryHeap::new(),
            by_room: HashMap::new(),
            by_class_segment: HashMap::new(),
            total_registrations: 0,
            heap_compactions: 0,
            shard_map: None,
            listing_from: None,
        }
    }

    /// This ASD takes the place of a crashed shard replica: it starts empty
    /// while its peers hold the shard's registrations, and renewals repair
    /// it one name at a time.  A name it lacks is safe to ask it for — an
    /// empty answer falls through to a peer — but a *listing* cut from what
    /// has been repaired so far looks like a whole answer and is not.  So
    /// for one lease it refuses listings with `E_UNAVAILABLE`, which sends
    /// the asker on to a peer like any other error.  After one lease every
    /// live registration has renewed through it (and been repaired) or has
    /// expired everywhere: it then knows what its peers know.  `now` is
    /// when it comes up.
    pub(crate) fn rejoining(mut self, now: Instant) -> Asd {
        self.listing_from = Some(now + self.lease_duration);
        self
    }

    /// The refusal a rejoining replica gives a listing at `now`, if it
    /// still is one.
    fn not_listing_yet(&self, now: Instant) -> Option<Reply> {
        let left = self.listing_from?.checked_duration_since(now)?;
        Some(Reply::err(
            ErrorCode::Unavailable,
            format!(
                "rejoined empty; listings resume in {} ms, ask a peer replica",
                left.as_millis()
            ),
        ))
    }

    /// Serve `map` from the `shardMap` verb: every replica of every shard
    /// carries the full map, so clients can bootstrap from any of them.
    pub fn with_shard_map(mut self, map: crate::shardmap::ShardMap) -> Asd {
        self.shard_map = Some(map);
        self
    }

    /// The full path plus every dot-segment — the keys under which a class
    /// is indexed, mirroring [`Asd::class_matches`].
    fn class_keys(class_path: &str) -> impl Iterator<Item = &str> {
        std::iter::once(class_path)
            .chain(class_path.split('.'))
            .filter(|k| !k.is_empty())
    }

    fn index_insert(&mut self, entry: &ServiceEntry) {
        self.by_room
            .entry(entry.room.clone())
            .or_default()
            .insert(entry.name.clone());
        for key in Self::class_keys(&entry.class) {
            self.by_class_segment
                .entry(key.to_string())
                .or_default()
                .insert(entry.name.clone());
        }
    }

    fn index_remove(&mut self, entry: &ServiceEntry) {
        if let Some(names) = self.by_room.get_mut(&entry.room) {
            names.remove(&entry.name);
            if names.is_empty() {
                self.by_room.remove(&entry.room);
            }
        }
        // Drop only the keys this entry emptied (mirroring the room path
        // above) — a blanket `retain` over the whole index is O(all
        // segments) per unregister and dominates at 100k services.
        for key in Self::class_keys(&entry.class) {
            if let Some(names) = self.by_class_segment.get_mut(key) {
                names.remove(&entry.name);
                if names.is_empty() {
                    self.by_class_segment.remove(key);
                }
            }
        }
    }

    /// Drop a lease and its index entries, returning the removed lease.
    fn remove_lease(&mut self, name: &str) -> Option<Lease> {
        let lease = self.leases.remove(name)?;
        self.index_remove(&lease.entry);
        Some(lease)
    }

    /// Keep the lazy-deletion heap bounded.  Every renewal strands one
    /// stale entry, so under a renew-heavy workload the heap would grow
    /// without limit; once stale entries outnumber live leases (heap more
    /// than twice the lease count) rebuild it from the live deadlines.
    /// Amortised O(1) per renewal: a rebuild costs O(n) but only happens
    /// after O(n) strandings.
    fn maybe_compact_heap(&mut self) {
        if self.expiry.len() < HEAP_COMPACT_MIN
            || self.expiry.len() < self.leases.len().saturating_mul(2)
        {
            return;
        }
        self.expiry = self
            .leases
            .iter()
            .filter_map(|(name, lease)| Some(Reverse((lease.expires?, name.clone()))))
            .collect();
        self.heap_compactions += 1;
    }

    /// Renew the lease for `name` at `now` (the `renewLease` verb body;
    /// free of `ServiceCtx` so tests can drive renewal storms directly).
    fn apply_renewal(&mut self, name: &str, incarnation: u64, now: Instant) -> Reply {
        match self.leases.get_mut(name) {
            Some(lease) if incarnation < lease.incarnation => Reply::err(
                ErrorCode::BadState,
                format!(
                    "stale incarnation {incarnation} for {name} (registered: {})",
                    lease.incarnation
                ),
            ),
            Some(lease) => {
                let expires = now + self.lease_duration;
                lease.expires = Some(expires);
                // The old heap entry goes stale and is skipped by the
                // lazy-deletion check on pop.
                self.expiry.push(Reverse((expires, name.to_string())));
                self.maybe_compact_heap();
                Reply::ok_with(|c| c.arg("lease", self.lease_duration.as_millis() as i64))
            }
            None => Reply::err(ErrorCode::NotFound, format!("no lease for {name}")),
        }
    }

    /// Drop the leases expired at `now`, returning their names in
    /// deadline order.  Pops genuinely expired leases off the heap: cost is
    /// O(expired · log n) rather than a scan of every lease per command.
    fn expire(&mut self, now: Instant) -> Vec<String> {
        let mut expired = Vec::new();
        while let Some(Reverse((deadline, _))) = self.expiry.peek() {
            if *deadline > now {
                break;
            }
            let Reverse((deadline, name)) = self.expiry.pop().expect("peeked");
            // Lazy deletion: only act when this deadline is the lease's
            // *current* one — renewals and re-registrations leave stale
            // heap entries behind.
            let live = self
                .leases
                .get(&name)
                .is_some_and(|l| l.expires == Some(deadline));
            if live {
                self.remove_lease(&name);
                expired.push(name);
            }
        }
        expired
    }

    /// [`Asd::expire`] at the clock's now, logging each lapse and firing
    /// `serviceExpired` for it.
    fn purge_expired(&mut self, ctx: &mut ServiceCtx) {
        for name in self.expire(ctx.net().clock().now()) {
            ctx.log("warn", format!("lease expired for service {name}"));
            // Listeners can watch `serviceExpired` to react to failures
            // (the restart-watcher service does exactly this).
            ctx.fire_event(CmdLine::new("serviceExpired").arg("name", name.as_str()));
        }
    }

    /// Does `class_path` match a query `class`?  A query matches the full
    /// path or any segment of it, so `lookup class=PTZCamera` finds a
    /// `Service.Device.PTZCamera.VCC3` (the Fig. 6 hierarchy).
    fn class_matches(class_path: &str, query: &str) -> bool {
        class_path == query || class_path.split('.').any(|seg| seg == query)
    }

    /// The smallest index set matching the lookup filters, or `None` for an
    /// unfiltered listing.  Name lookups hit the lease map directly; room
    /// and class queries use their indexes.
    fn candidate_names(
        &self,
        name: Option<&str>,
        class: Option<&str>,
        room: Option<&str>,
    ) -> Option<Vec<String>> {
        if let Some(n) = name {
            return Some(if self.leases.contains_key(n) {
                vec![n.to_string()]
            } else {
                Vec::new()
            });
        }
        let room_set = room.map(|r| self.by_room.get(r));
        let class_set = class.map(|c| self.by_class_segment.get(c));
        // A filter whose key has no index entry matches nothing.
        if matches!(room_set, Some(None)) || matches!(class_set, Some(None)) {
            return Some(Vec::new());
        }
        match (room_set.flatten(), class_set.flatten()) {
            // Both filtered: intersect starting from the smaller set.
            (Some(r), Some(c)) => {
                let (small, large) = if r.len() <= c.len() { (r, c) } else { (c, r) };
                Some(
                    small
                        .iter()
                        .filter(|n| large.contains(*n))
                        .cloned()
                        .collect(),
                )
            }
            (Some(r), None) => Some(r.iter().cloned().collect()),
            (None, Some(c)) => Some(c.iter().cloned().collect()),
            (None, None) => None,
        }
    }
}

impl ServiceBehavior for Asd {
    fn semantics(&self) -> Semantics {
        protocol::asd_semantics()
    }

    /// Restored leases get their deadline: one lease from now.
    fn on_start(&mut self, ctx: &mut ServiceCtx) {
        let expires = ctx.net().clock().now() + self.lease_duration;
        for (name, lease) in &mut self.leases {
            if lease.expires.is_none() {
                lease.expires = Some(expires);
                self.expiry.push(Reverse((expires, name.clone())));
            }
        }
    }

    fn on_tick(&mut self, ctx: &mut ServiceCtx) {
        self.purge_expired(ctx);
    }

    fn on_stats(&mut self, ctx: &mut ServiceCtx) {
        let m = ctx.metrics();
        m.gauge("asd.leases").set(self.leases.len() as i64);
        m.gauge("asd.expiryHeap").set(self.expiry.len() as i64);
        m.gauge("asd.heapCompactions")
            .set(self.heap_compactions as i64);
        m.gauge("asd.registrations")
            .set(self.total_registrations as i64);
    }

    fn handle(&mut self, ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        self.purge_expired(ctx);
        match cmd.name() {
            "register" => {
                let name = req_text!(cmd, "name").to_string();
                let incarnation = cmd.get_int("incarnation").unwrap_or(0).max(0) as u64;
                // Incarnation fence: a restarted/upgraded instance registers
                // under a higher generation; a stale instance's late
                // re-register (e.g. its lease loop saw NotFound mid-swap)
                // must not clobber the replacement's address.
                if let Some(existing) = self.leases.get(&name) {
                    if incarnation < existing.incarnation {
                        return Reply::err(
                            ErrorCode::BadState,
                            format!(
                                "stale incarnation {incarnation} for {name} (registered: {})",
                                existing.incarnation
                            ),
                        );
                    }
                }
                let entry = ServiceEntry {
                    name: name.clone(),
                    addr: Addr::new(req_text!(cmd, "host"), req_int!(cmd, "port") as u16),
                    class: req_text!(cmd, "class").to_string(),
                    room: req_text!(cmd, "room").to_string(),
                };
                // Re-registration may change room or class: drop the old
                // index entries before inserting the new ones.
                self.remove_lease(&name);
                let expires = ctx.net().clock().now() + self.lease_duration;
                self.index_insert(&entry);
                self.leases.insert(
                    name.clone(),
                    Lease {
                        entry,
                        expires: Some(expires),
                        incarnation,
                    },
                );
                self.expiry.push(Reverse((expires, name)));
                self.maybe_compact_heap();
                self.total_registrations += 1;
                Reply::ok_with(|c| c.arg("lease", self.lease_duration.as_millis() as i64))
            }
            "renewLease" => {
                let name = req_text!(cmd, "name").to_string();
                let incarnation = cmd.get_int("incarnation").unwrap_or(0).max(0) as u64;
                self.apply_renewal(&name, incarnation, ctx.net().clock().now())
            }
            "removeService" => {
                let name = req_text!(cmd, "name");
                if self.remove_lease(name).is_some() {
                    Reply::ok()
                } else {
                    Reply::err(ErrorCode::NotFound, format!("{name} not registered"))
                }
            }
            "lookup" => {
                let name = cmd.get_text("name");
                let class = cmd.get_text("class");
                let room = cmd.get_text("room");
                let now = ctx.net().clock().now();
                if let (None, Some(refusal)) = (name, self.not_listing_yet(now)) {
                    return refusal;
                }
                let mut matches: Vec<ServiceEntry> = match self.candidate_names(name, class, room) {
                    Some(candidates) => candidates
                        .iter()
                        .filter_map(|n| self.leases.get(n))
                        .map(|l| &l.entry)
                        // The indexes narrow; the filters still decide —
                        // a name hit must also satisfy class/room, and a
                        // class-segment hit re-checks the hierarchy rule.
                        .filter(|e| name.is_none_or(|n| e.name == n))
                        .filter(|e| class.is_none_or(|c| Self::class_matches(&e.class, c)))
                        .filter(|e| room.is_none_or(|r| e.room == r))
                        .cloned()
                        .collect(),
                    None => self.leases.values().map(|l| l.entry.clone()).collect(),
                };
                matches.sort_by(|a, b| a.name.cmp(&b.name));
                Reply::ok_with(|c| {
                    c.arg("count", matches.len() as i64)
                        .arg("services", protocol::entries_to_value(&matches))
                        // Resolution-cache TTL bound: an entry the client
                        // caches can be trusted at most one lease long.
                        .arg("lease", self.lease_duration.as_millis() as i64)
                })
            }
            "shardMap" => match &self.shard_map {
                Some(map) => map.to_reply(),
                // An unsharded ASD answers with an empty map, which decodes
                // as no shards.
                None => {
                    Reply::ok_with(|c| c.arg("epoch", 0).arg("shards", Value::Array(Vec::new())))
                }
            },
            "listServices" => {
                if let Some(refusal) = self.not_listing_yet(ctx.net().clock().now()) {
                    return refusal;
                }
                let mut names: Vec<Scalar> =
                    self.leases.keys().map(|n| Scalar::Str(n.clone())).collect();
                names.sort_by(|a, b| match (a, b) {
                    (Scalar::Str(x), Scalar::Str(y)) => x.cmp(y),
                    _ => std::cmp::Ordering::Equal,
                });
                Reply::ok_with(|c| {
                    c.arg("count", names.len() as i64)
                        .arg("names", Value::Vector(names))
                })
            }
            other => Reply::err(ErrorCode::Internal, format!("unrouted command `{other}`")),
        }
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        // Rows sorted by name so the snapshot is deterministic; the
        // incarnation vector is index-aligned with the services array.
        let mut leases: Vec<&Lease> = self.leases.values().collect();
        leases.sort_by(|a, b| a.entry.name.cmp(&b.entry.name));
        let entries: Vec<ServiceEntry> = leases.iter().map(|l| l.entry.clone()).collect();
        let incarnations: Vec<Scalar> = leases
            .iter()
            .map(|l| Scalar::Int(l.incarnation as i64))
            .collect();
        let state = CmdLine::new("asdState")
            .arg("total", self.total_registrations)
            .arg("services", protocol::entries_to_value(&entries))
            .arg("incarnations", Value::Vector(incarnations));
        Some(protocol::seal_snapshot("asd", state))
    }

    fn restore_state(&mut self, snapshot: &[u8]) -> Result<(), String> {
        let state = protocol::open_snapshot("asd", snapshot)?;
        let entries = state
            .get("services")
            .and_then(protocol::entries_from_value)
            .ok_or_else(|| "asd snapshot: malformed services".to_string())?;
        let incarnations: Vec<u64> = state
            .get("incarnations")
            .and_then(Value::as_vector)
            .ok_or_else(|| "asd snapshot: malformed incarnations".to_string())?
            .iter()
            .map(|s| match s {
                Scalar::Int(i) if *i >= 0 => Ok(*i as u64),
                _ => Err("asd snapshot: malformed incarnations".to_string()),
            })
            .collect::<Result<_, _>>()?;
        if incarnations.len() != entries.len() {
            return Err("asd snapshot: incarnations do not align with services".to_string());
        }
        let total = state
            .get_int("total")
            .ok_or_else(|| "asd snapshot: missing total".to_string())?;
        self.leases.clear();
        self.expiry.clear();
        self.by_room.clear();
        self.by_class_segment.clear();
        // Every restored lease gets a fresh full deadline when the daemon
        // starts (`on_start`): registrants keep renewing against the
        // replacement, and anything truly dead still expires one lease
        // after the swap.
        for (entry, incarnation) in entries.into_iter().zip(incarnations) {
            self.index_insert(&entry);
            self.leases.insert(
                entry.name.clone(),
                Lease {
                    entry,
                    expires: None,
                    incarnation,
                },
            );
        }
        self.total_registrations = total.max(0) as u64;
        Ok(())
    }
}

/// Typed read-only client for the ASD: one session its actor holds.  It
/// writes nothing — registrations, renewals and removals follow the
/// directory's rules in [`ace_core::directory`].
pub struct AsdClient {
    client: ServiceClient,
}

impl AsdClient {
    /// Connect to the ASD at `asd`.
    pub fn connect(
        net: &SimNet,
        from_host: &HostId,
        asd: Addr,
        identity: &ace_security::keys::KeyPair,
    ) -> Result<AsdClient, ClientError> {
        Ok(AsdClient {
            client: ServiceClient::connect(net, from_host, asd, identity)?,
        })
    }

    /// Look up services by any combination of name/class/room.
    pub fn lookup(
        &mut self,
        name: Option<&str>,
        class: Option<&str>,
        room: Option<&str>,
    ) -> Result<Vec<ServiceEntry>, ClientError> {
        let reply = self.client.call(&protocol::lookup_cmd(name, class, room))?;
        protocol::entries_from_reply(&reply)
    }

    /// Find one service by exact name.
    pub fn find(&mut self, name: &str) -> Result<Option<ServiceEntry>, ClientError> {
        Ok(self.lookup(Some(name), None, None)?.into_iter().next())
    }

    /// All registered service names.
    pub fn list(&mut self) -> Result<Vec<String>, ClientError> {
        let reply = self.client.call(&CmdLine::new("listServices"))?;
        let names = reply
            .get_vector("names")
            .map(|v| {
                v.iter()
                    .filter_map(|s| s.as_text().map(str::to_string))
                    .collect()
            })
            .unwrap_or_default();
        Ok(names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_net::Clock;

    #[test]
    fn class_matching_follows_hierarchy() {
        assert!(Asd::class_matches(
            "Service.Device.PTZCamera.VCC3",
            "PTZCamera"
        ));
        assert!(Asd::class_matches("Service.Device.PTZCamera.VCC3", "VCC3"));
        assert!(Asd::class_matches(
            "Service.Device.PTZCamera.VCC3",
            "Service"
        ));
        assert!(Asd::class_matches(
            "Service.Device.PTZCamera.VCC3",
            "Service.Device.PTZCamera.VCC3"
        ));
        assert!(!Asd::class_matches("Service.Device.PTZCamera.VCC3", "PTZ"));
        assert!(!Asd::class_matches(
            "Service.Device.PTZCamera.VCC3",
            "Projector"
        ));
    }

    fn entry(name: &str, class: &str, room: &str) -> ServiceEntry {
        ServiceEntry {
            name: name.to_string(),
            addr: Addr::new("host", 1),
            class: class.to_string(),
            room: room.to_string(),
        }
    }

    fn seeded() -> Asd {
        let mut asd = Asd::new(Duration::from_secs(30));
        for e in [
            entry("cam1", "Service.Device.PTZCamera.VCC3", "hawk"),
            entry("cam2", "Service.Device.PTZCamera.EVI30", "dove"),
            entry("proj1", "Service.Device.Projector", "hawk"),
        ] {
            asd.index_insert(&e);
            let expires = Clock::real().now() + asd.lease_duration;
            asd.expiry.push(Reverse((expires, e.name.clone())));
            asd.leases.insert(
                e.name.clone(),
                Lease {
                    entry: e,
                    expires: Some(expires),
                    incarnation: 0,
                },
            );
        }
        asd
    }

    #[test]
    fn candidate_indexes_narrow_correctly() {
        let asd = seeded();
        // Name: direct hit.
        assert_eq!(
            asd.candidate_names(Some("cam1"), None, None),
            Some(vec!["cam1".to_string()])
        );
        assert_eq!(asd.candidate_names(Some("nope"), None, None), Some(vec![]));
        // Room index.
        let mut hawk = asd.candidate_names(None, None, Some("hawk")).unwrap();
        hawk.sort();
        assert_eq!(hawk, vec!["cam1".to_string(), "proj1".to_string()]);
        // Class-segment index.
        let mut cams = asd.candidate_names(None, Some("PTZCamera"), None).unwrap();
        cams.sort();
        assert_eq!(cams, vec!["cam1".to_string(), "cam2".to_string()]);
        // Intersection.
        assert_eq!(
            asd.candidate_names(None, Some("PTZCamera"), Some("hawk")),
            Some(vec!["cam1".to_string()])
        );
        // Unknown index keys: empty, not full-scan.
        assert_eq!(
            asd.candidate_names(None, Some("Toaster"), None),
            Some(vec![])
        );
        // No filters: full listing.
        assert_eq!(asd.candidate_names(None, None, None), None);
    }

    #[test]
    fn index_follows_reregistration_and_removal() {
        let mut asd = seeded();
        // cam1 moves rooms via re-registration.
        let moved = entry("cam1", "Service.Device.PTZCamera.VCC3", "dove");
        asd.remove_lease("cam1");
        asd.index_insert(&moved);
        let expires = Clock::real().now() + asd.lease_duration;
        asd.expiry.push(Reverse((expires, moved.name.clone())));
        asd.leases.insert(
            moved.name.clone(),
            Lease {
                entry: moved,
                expires: Some(expires),
                incarnation: 0,
            },
        );
        assert_eq!(
            asd.candidate_names(None, None, Some("hawk")),
            Some(vec!["proj1".to_string()])
        );
        let mut dove = asd.candidate_names(None, None, Some("dove")).unwrap();
        dove.sort();
        assert_eq!(dove, vec!["cam1".to_string(), "cam2".to_string()]);

        // Removal cleans both indexes.
        asd.remove_lease("cam2");
        let cams = asd.candidate_names(None, Some("PTZCamera"), None).unwrap();
        assert_eq!(cams, vec!["cam1".to_string()]);
        assert_eq!(asd.candidate_names(None, Some("EVI30"), None), Some(vec![]));
    }

    /// A renewal strands its old deadline in the heap; expiring at that
    /// deadline must skip it, because the lease's current deadline is
    /// later.  (Fails if `expire` drops the lazy-deletion check
    /// `l.expires == Some(deadline)`.)
    #[test]
    fn expiry_heap_skips_stale_renewal_entries() {
        let mut asd = Asd::new(Duration::from_millis(40));
        let e = entry("svc", "Service.Test", "lab");
        let first = Clock::real().now() + asd.lease_duration;
        asd.index_insert(&e);
        asd.leases.insert(
            "svc".to_string(),
            Lease {
                entry: e,
                expires: Some(first),
                incarnation: 0,
            },
        );
        asd.expiry.push(Reverse((first, "svc".to_string())));
        // Renew: fresh deadline, stale heap entry left behind.
        let renewed = first + Duration::from_millis(200);
        asd.leases.get_mut("svc").unwrap().expires = Some(renewed);
        asd.expiry.push(Reverse((renewed, "svc".to_string())));

        let purged = asd.expire(first + Duration::from_millis(1));
        assert!(
            purged.is_empty(),
            "renewed lease must survive its stale heap entry"
        );
        assert!(asd.leases.contains_key("svc"));
        assert_eq!(asd.expire(renewed), vec!["svc".to_string()]);
        assert!(asd.leases.is_empty());
    }

    /// Full index-consistency check: every indexed name is a live lease
    /// indexed under exactly its keys, every lease is fully indexed, and
    /// no index bucket is empty (emptied keys must be dropped eagerly —
    /// the O(all-segments) `retain` this replaces hid leaks like that).
    fn assert_indexes_consistent(asd: &Asd) {
        for (room, names) in &asd.by_room {
            assert!(!names.is_empty(), "empty room bucket {room:?} leaked");
            for name in names {
                let lease = asd.leases.get(name).expect("indexed name has no lease");
                assert_eq!(&lease.entry.room, room);
            }
        }
        for (key, names) in &asd.by_class_segment {
            assert!(!names.is_empty(), "empty class bucket {key:?} leaked");
            for name in names {
                let lease = asd.leases.get(name).expect("indexed name has no lease");
                assert!(
                    Asd::class_keys(&lease.entry.class).any(|k| k == key),
                    "{name} indexed under foreign key {key:?}"
                );
            }
        }
        for lease in asd.leases.values() {
            assert!(asd.by_room[&lease.entry.room].contains(&lease.entry.name));
            for key in Asd::class_keys(&lease.entry.class) {
                assert!(
                    asd.by_class_segment[key].contains(&lease.entry.name),
                    "{} missing from class key {key:?}",
                    lease.entry.name
                );
            }
        }
    }

    #[test]
    fn unregister_drops_only_emptied_class_keys() {
        let mut asd = Asd::new(Duration::from_secs(30));
        // Overlapping segment sets: removing one entry must only delete
        // keys it emptied, never buckets other entries still occupy.
        for i in 0..40 {
            let e = entry(
                &format!("svc{i}"),
                &format!("Service.Device.Kind{}.Model{i}", i % 4),
                &format!("room{}", i % 5),
            );
            asd.index_insert(&e);
            let expires = Clock::real().now() + asd.lease_duration;
            asd.leases.insert(
                e.name.clone(),
                Lease {
                    entry: e,
                    expires: Some(expires),
                    incarnation: 0,
                },
            );
        }
        assert_indexes_consistent(&asd);
        for i in (0..40).step_by(2) {
            assert!(asd.remove_lease(&format!("svc{i}")).is_some());
            assert_indexes_consistent(&asd);
        }
        // Shared segments survive while any holder remains…
        assert!(asd.by_class_segment.contains_key("Service"));
        assert!(asd.by_class_segment.contains_key("Kind1"));
        // …and per-entry keys vanish with their entry.
        assert!(!asd.by_class_segment.contains_key("Model0"));
        assert!(asd.by_class_segment.contains_key("Model1"));
        for i in (1..40).step_by(2) {
            assert!(asd.remove_lease(&format!("svc{i}")).is_some());
        }
        assert!(asd.by_class_segment.is_empty(), "all buckets must drain");
        assert!(asd.by_room.is_empty());
    }

    #[test]
    fn renewal_storm_keeps_expiry_heap_bounded() {
        let mut asd = Asd::new(Duration::from_secs(30));
        for i in 0..10 {
            let e = entry(&format!("svc{i}"), "Service.Test", "lab");
            asd.index_insert(&e);
            let expires = Clock::real().now() + asd.lease_duration;
            asd.expiry.push(Reverse((expires, e.name.clone())));
            asd.leases.insert(
                e.name.clone(),
                Lease {
                    entry: e,
                    expires: Some(expires),
                    incarnation: 0,
                },
            );
        }
        // 5,000 renewals used to strand 5,000 stale heap entries.
        let clock = Clock::real();
        for round in 0..500 {
            for i in 0..10 {
                let reply = asd.apply_renewal(&format!("svc{i}"), 0, clock.now());
                assert!(reply.is_ok(), "renewal failed on round {round}");
            }
        }
        assert!(
            asd.expiry.len() <= HEAP_COMPACT_MIN,
            "heap must stay bounded under renewals, got {}",
            asd.expiry.len()
        );
        assert!(
            asd.heap_compactions > 0,
            "soak must actually exercise compaction"
        );
        // Compaction preserves exactly the live deadlines: every lease
        // keeps a heap entry matching its current expiry.
        for (name, lease) in &asd.leases {
            assert!(
                asd.expiry
                    .iter()
                    .any(|Reverse((at, n))| n == name && Some(*at) == lease.expires),
                "live deadline for {name} lost by compaction"
            );
        }
    }

    #[test]
    fn snapshot_roundtrips_leases_and_incarnations() {
        let mut asd = seeded();
        asd.leases.get_mut("cam1").unwrap().incarnation = 3;
        asd.total_registrations = 7;
        let blob = asd.snapshot_state().expect("asd is stateful");

        let mut restored = Asd::new(Duration::from_secs(30));
        restored.restore_state(&blob).expect("restore");
        assert_eq!(restored.leases.len(), 3);
        assert_eq!(restored.leases["cam1"].incarnation, 3);
        assert_eq!(restored.leases["cam2"].incarnation, 0);
        assert_eq!(restored.total_registrations, 7);
        // Indexes are rebuilt, not just the lease map.
        let mut hawk = restored.candidate_names(None, None, Some("hawk")).unwrap();
        hawk.sort();
        assert_eq!(hawk, vec!["cam1".to_string(), "proj1".to_string()]);

        // A flipped byte refuses the snapshot.
        let mut torn = blob.clone();
        let mid = torn.len() / 2;
        torn[mid] ^= 0x40;
        let mut fresh = Asd::new(Duration::from_secs(30));
        assert!(fresh.restore_state(&torn).is_err());
    }
}
