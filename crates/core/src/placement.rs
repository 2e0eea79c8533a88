//! Rendezvous placement of keys over replica groups.
//!
//! The sharded directory plane and the sharded store plane are the same
//! shape: an epoch-stamped list of replica groups, a rule for which group
//! owns a key, and a verb every replica answers with the whole map so a
//! client can bootstrap from any address it knows.  [`GroupMap`] is that
//! shape, once.  Each plane wraps it in a newtype that adds only what is
//! its own — the bytes it hashes and the verb it serves the map under
//! (`ace_directory::ShardMap`, `ace_store::StorePlacement`) — and the
//! wrapper type keeps a directory map from ever routing a store key.
//!
//! # The score
//!
//! [`GroupMap::owner`] is highest-random-weight hashing: group `g` scores
//! a key as `fnv64(key ++ 0x00 ++ g as u64 little-endian)`, the highest
//! score owns the key, and the first group wins a tie.  Unlike `hash % n`,
//! adding a group only moves the ~1/n of keys the new group now wins.
//! **The score's bytes are pinned** (`owner_is_pinned_byte_for_byte`
//! below): registrations and stored values live on the group this function
//! named when they were written, so a change to the separator, the index
//! width or the tie-break silently strands every one of them.
//!
//! # The rows
//!
//! On the wire a map is `epoch`, `count` and one `{group,host,port}` row
//! per replica, group indexes ascending.  Decoding refuses the whole map
//! on a malformed row or a numbering that skips a group — routing on a
//! half-decoded layout would misplace keys silently — and reads the empty
//! vector as a map of zero groups (an unsharded daemon's answer).

use crate::client::ClientError;
use crate::pool::LinkPool;
use ace_lang::{CmdLine, ErrorCode, Reply, Scalar, Value};
use ace_net::{Addr, HostId};
use ace_security::hash::Fnv64Stream;
use std::sync::Arc;

/// A plane's layout: replica addresses per group, plus an epoch so clients
/// can tell a newer layout from an older one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupMap {
    epoch: u64,
    /// `groups[g]` is the replica set of group `g`, in spawn order.
    groups: Vec<Vec<Addr>>,
}

impl GroupMap {
    /// A map over the given replica groups.
    pub fn new(epoch: u64, groups: Vec<Vec<Addr>>) -> GroupMap {
        GroupMap { epoch, groups }
    }

    /// The epoch-1 layout of a fresh plane: `groups × replication`
    /// replicas dealt round-robin over `hosts`, replica `r` of group `g`
    /// on port `base_port + g * replication + r`.
    pub fn spread(hosts: &[HostId], groups: usize, replication: usize, base_port: u16) -> GroupMap {
        assert!(groups > 0 && replication > 0, "empty plane");
        assert!(!hosts.is_empty(), "no hosts to place replicas on");
        let layout = (0..groups)
            .map(|g| {
                (0..replication)
                    .map(|r| {
                        let idx = g * replication + r;
                        Addr::new(hosts[idx % hosts.len()].clone(), base_port + idx as u16)
                    })
                    .collect()
            })
            .collect();
        GroupMap::new(1, layout)
    }

    /// The map epoch (bumped whenever the layout changes).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of groups.
    pub fn count(&self) -> usize {
        self.groups.len()
    }

    /// The replica set of group `g`.
    pub fn replicas(&self, g: usize) -> &[Addr] {
        &self.groups[g]
    }

    /// Majority quorum of group `g`'s replica set.
    pub fn quorum(&self, g: usize) -> usize {
        crate::quorum::majority(self.groups[g].len())
    }

    /// Every replica address of every group.
    pub fn all_replicas(&self) -> impl Iterator<Item = &Addr> {
        self.groups.iter().flatten()
    }

    /// Group `g` minus `addr`: the peers a replica syncs with and rebuilds
    /// from.
    pub fn peers_of(&self, g: usize, addr: &Addr) -> Vec<Addr> {
        self.groups[g]
            .iter()
            .filter(|a| *a != addr)
            .cloned()
            .collect()
    }

    /// The group owning `key` (see the module docs for the score).  Zero
    /// for a map of zero groups; callers check [`GroupMap::count`] first.
    pub fn owner(&self, key: &[u8]) -> usize {
        // The key is hashed once; each group continues a copy of the stream.
        let mut keyed = Fnv64Stream::unkeyed();
        keyed.update(key);
        keyed.update(&[0]);
        let mut best = 0usize;
        let mut best_score = 0u64;
        for g in 0..self.groups.len() {
            let mut score = keyed;
            score.update(&(g as u64).to_le_bytes());
            let score = score.raw();
            if g == 0 || score > best_score {
                best = g;
                best_score = score;
            }
        }
        best
    }

    fn to_rows(&self) -> Value {
        Value::Array(
            self.groups
                .iter()
                .enumerate()
                .flat_map(|(g, replicas)| {
                    replicas.iter().map(move |addr| {
                        vec![
                            Scalar::Str(g.to_string()),
                            Scalar::Str(addr.host.to_string()),
                            Scalar::Str(addr.port.to_string()),
                        ]
                    })
                })
                .collect(),
        )
    }

    fn from_rows(epoch: u64, value: &Value) -> Option<GroupMap> {
        let rows = match value {
            v if v.as_vector().is_some_and(|s| s.is_empty()) => {
                return Some(GroupMap::new(epoch, Vec::new()))
            }
            v => v.as_array()?,
        };
        let mut groups: Vec<Vec<Addr>> = Vec::new();
        for row in rows {
            if row.len() != 3 {
                return None;
            }
            let g: usize = row[0].as_text()?.parse().ok()?;
            let port: u16 = row[2].as_text()?.parse().ok()?;
            if g > groups.len() {
                return None; // group indexes must arrive contiguously
            }
            if g == groups.len() {
                groups.push(Vec::new());
            }
            groups[g].push(Addr::new(row[1].as_text()?, port));
        }
        Some(GroupMap::new(epoch, groups))
    }

    /// The reply of a plane's map verb: `epoch`, `count`, and the rows
    /// under the plane's field name (`shards`, `groups`).
    pub fn to_reply(&self, rows: &str) -> Reply {
        Reply::ok_with(|c| {
            c.arg("epoch", self.epoch as i64)
                .arg("count", self.count() as i64)
                .arg(rows, self.to_rows())
        })
    }

    /// Decode a map-verb reply whose rows travel under `rows`.
    pub fn from_reply(reply: &CmdLine, rows: &str) -> Option<GroupMap> {
        let epoch = reply.get_int("epoch")?.max(0) as u64;
        Self::from_rows(epoch, reply.get(rows)?)
    }

    /// Fetch the map from any replica by calling `verb` (clients bootstrap
    /// by asking a well-known address).
    pub fn fetch(
        pool: &Arc<LinkPool>,
        replica: &Addr,
        verb: &str,
        rows: &str,
    ) -> Result<GroupMap, ClientError> {
        let reply = pool.checkout(replica)?.call(&CmdLine::new(verb))?;
        GroupMap::from_reply(&reply, rows).ok_or(ClientError::Service {
            code: ErrorCode::Internal,
            msg: format!("malformed {verb} reply"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_security::hash::fnv64;

    fn map(groups: usize, replication: usize) -> GroupMap {
        let hosts: Vec<HostId> = (0..groups * replication)
            .map(|i| HostId::from(format!("h{i}").as_str()))
            .collect();
        GroupMap::spread(&hosts, groups, replication, 5900)
    }

    /// The score as both planes computed it before they shared this module:
    /// one buffer per group, one `fnv64` over it.
    fn owner_by_allocation(groups: usize, key: &[u8]) -> usize {
        let score = |g: usize| {
            let mut material = key.to_vec();
            material.push(0);
            material.extend_from_slice(&(g as u64).to_le_bytes());
            fnv64(&material)
        };
        // First-highest wins.
        (0..groups).fold(0, |best, g| if score(g) > score(best) { g } else { best })
    }

    /// Invariant: `owner` names the same group for the same bytes as it did
    /// when the first registration and the first stored value were placed.
    /// The table was taken at the commit before this module existed
    /// (`ShardMap::shard_for("svcN")`, `StorePlacement::group_for("app",
    /// "keyN")` over four groups).  Dropping the `0x00` separator or hashing
    /// the group index as a `u32` both break it.
    #[test]
    fn owner_is_pinned_byte_for_byte() {
        let m = map(4, 1);
        let names: Vec<usize> = (0..16)
            .map(|i| m.owner(format!("svc{i}").as_bytes()))
            .collect();
        assert_eq!(names, [1, 0, 3, 2, 2, 3, 0, 1, 2, 3, 1, 3, 0, 1, 3, 2]);
        let keys: Vec<usize> = (0..16)
            .map(|i| m.owner(format!("app\0key{i}").as_bytes()))
            .collect();
        assert_eq!(keys, [2, 3, 1, 0, 0, 1, 2, 3, 0, 0, 3, 2, 0, 1, 1, 0]);
        assert_eq!(m.owner(b""), 0);
        assert_eq!(m.owner(b"\0"), 2);

        // Differential arm: the running fold is the allocate-and-hash form.
        for groups in [1, 2, 3, 4, 7, 12] {
            let m = map(groups, 1);
            for i in 0..500 {
                let key = format!("ns{}\0k{i}", i % 7);
                assert_eq!(
                    m.owner(key.as_bytes()),
                    owner_by_allocation(groups, key.as_bytes()),
                    "{groups} groups, key {key:?}"
                );
            }
        }
    }

    #[test]
    fn rendezvous_placement_is_stable_and_balanced() {
        let m = map(4, 3);
        for i in 0..50 {
            let key = format!("svc{i}");
            assert_eq!(m.owner(key.as_bytes()), m.owner(key.as_bytes()));
        }
        // Roughly balanced: each of 4 groups should own a fair share of
        // 4,000 keys (loose bound — FNV is not adversarial-grade).
        let mut counts = [0usize; 4];
        for i in 0..4000 {
            counts[m.owner(format!("svc{i}").as_bytes())] += 1;
        }
        for (g, &c) in counts.iter().enumerate() {
            assert!(
                (500..=1800).contains(&c),
                "group {g} owns {c} of 4000 keys — badly unbalanced"
            );
        }
    }

    #[test]
    fn growing_the_plane_only_moves_the_new_groups_share() {
        let (before, after) = (map(4, 1), map(5, 1));
        let total = 4000;
        let moved = (0..total)
            .filter(|i| {
                let key = format!("svc{i}");
                before.owner(key.as_bytes()) != after.owner(key.as_bytes())
            })
            .count();
        // HRW moves ~1/5 of keys to the new group; `hash % n` would
        // reshuffle ~4/5.  Allow generous slack.
        assert!(
            moved < total * 2 / 5,
            "{moved}/{total} keys moved — placement is not rendezvous-stable"
        );
    }

    #[test]
    fn map_roundtrips_over_the_wire() {
        let m = map(3, 2);
        let Reply::Ok(cmd) = m.to_reply("rows") else {
            panic!("map reply must be ok")
        };
        assert_eq!(GroupMap::from_reply(&cmd, "rows"), Some(m));
        assert_eq!(GroupMap::from_reply(&cmd, "other"), None);

        // Empty map (an unsharded daemon) decodes as zero groups.
        let empty = GroupMap::from_rows(0, &Value::Vector(Vec::new())).expect("empty");
        assert_eq!(empty.count(), 0);

        let row = |cells: &[&str]| cells.iter().map(|c| Scalar::Str((*c).into())).collect();
        // Non-contiguous group numbering is rejected wholesale.
        let skipped = Value::Array(vec![row(&["1", "h", "5900"])]);
        assert_eq!(GroupMap::from_rows(1, &skipped), None);
        // So is a malformed row: short, or with an unparsable port.
        let short = Value::Array(vec![row(&["0", "h"])]);
        assert_eq!(GroupMap::from_rows(1, &short), None);
        let bad_port = Value::Array(vec![row(&["0", "h", "port"])]);
        assert_eq!(GroupMap::from_rows(1, &bad_port), None);
    }

    #[test]
    fn spread_deals_replicas_round_robin_and_peers_exclude_self() {
        let hosts: Vec<HostId> = ["a", "b", "c"].into_iter().map(HostId::from).collect();
        let m = GroupMap::spread(&hosts, 2, 2, 6100);
        assert_eq!((m.epoch(), m.count(), m.quorum(1)), (1, 2, 2));
        assert_eq!(m.replicas(0), [Addr::new("a", 6100), Addr::new("b", 6101)]);
        assert_eq!(m.replicas(1), [Addr::new("c", 6102), Addr::new("a", 6103)]);
        assert_eq!(m.peers_of(1, &m.replicas(1)[0]), [Addr::new("a", 6103)]);
    }
}
