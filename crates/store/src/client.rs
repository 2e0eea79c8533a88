//! The store client: quorum writes, newest-wins reads, read repair.
//!
//! "If for any reason, one or two of the servers fail or crash, ACE
//! services may still access the stored information within them" (§6):
//! reads succeed while *any* replica answers; writes require a majority so
//! a partitioned minority can never diverge silently.
//!
//! # The write path
//!
//! A write is **one quorum round** whenever the client already knows the
//! key's newest version.  It remembers, per key, the highest version it has
//! seen or proposed — its own writes, a `get`'s winning digest, the version
//! of every leased read the sharded client makes — proposes one above that,
//! and sends the value straight to the replicas; only a key never seen asks
//! them first, as every write used to.  A replica that holds something the
//! proposal does not beat says what in its refusal (`applied=false version=
//! writer=`), which is exactly what the read round would have fetched: a
//! stale memory costs one refused round, and the next proposes above it
//! (three rounds, then [`StoreError::QuorumFailed`]).  Two rules make that
//! safe.  *An ack that did not apply is not an ack*: a reply counts toward
//! the quorum, and toward [`StoreClient::last_write_acks`], only if the
//! replica applied the write or holds exactly the proposed `(version,
//! writer)` — so a lease holder that refused loses its lease.  *A version
//! once proposed is never proposed again*, quorum or no quorum, memory
//! forgotten or not: `(version, writer)` names one value.  What is not
//! promised: two client processes sharing one principal can still collide
//! on `(version, writer)`, exactly as before.  And only a round no replica
//! took is proposed again — none took it, and none it went out to failed to
//! answer: a value one replica took, a reader may have seen, and proposed
//! again above the write that beat it, it would come back after that write
//! — such a write fails, as one that missed its quorum does.  DESIGN.md § "Store
//! scale-out", "The write path", has the argument; `race_model` below
//! checks it.
//!
//! # Held values
//!
//! The same memory keeps, beside a key's newest version, the *bytes* of that
//! version when this client has them — its own write that reached quorum,
//! or a read.  A leased read offers their name, `(version, writer)`, and a
//! holder that holds exactly that answers `same=true` instead of sending
//! the bytes again; a quorum read whose winning digest is that name skips
//! its value fetch.  A held value is always the value of the newest version
//! the memory knows: whatever raises the version — a proposal, a refusal, a
//! digest, a reply — lets the bytes go, so the name offered is never a name
//! for other bytes.  Keyed by the exact `ns/key`; bounded by
//! [`StoreClient::HELD_BYTES`].  DESIGN.md § "Store scale-out",
//! "Conditional leased reads", has the argument; `race_model` checks it too.

use crate::version::{StoreKey, Versioned};
use ace_core::client::DEFAULT_CALL_TIMEOUT;
use ace_core::prelude::*;
use ace_security::keys::KeyPair;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Store-level failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Fewer than `quorum` replicas acknowledged a write.
    QuorumFailed { acked: usize, quorum: usize },
    /// No replica could be reached at all.
    AllReplicasDown,
    /// The key does not exist (or is deleted).
    NotFound,
    /// Stored bytes failed validation (CRC mismatch, malformed record).
    /// Never silently skipped: the holder must reset and resynchronize.
    Corrupt { offset: u64, detail: String },
    /// A storage backend failed (torn write, crashed disk, fenced handle).
    Io(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::QuorumFailed { acked, quorum } => {
                write!(f, "write acked by {acked} replicas, quorum is {quorum}")
            }
            StoreError::AllReplicasDown => write!(f, "no persistent-store replica reachable"),
            StoreError::NotFound => write!(f, "key not found"),
            StoreError::Corrupt { offset, detail } => {
                write!(f, "storage corrupt at byte {offset}: {detail}")
            }
            StoreError::Io(detail) => write!(f, "storage i/o failed: {detail}"),
        }
    }
}
impl std::error::Error for StoreError {}

/// Client-side health counters (unit-tested; surfaced by chaos runs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Writes that reached quorum.
    pub writes: u64,
    /// Writes that reached quorum but not the *full* replica set — data is
    /// durable yet redundancy is reduced until anti-entropy catches up.
    pub degraded_writes: u64,
    /// Writes that failed to reach quorum at all.
    pub quorum_failures: u64,
    /// Replica replies dropped because they failed validation (missing or
    /// malformed fields).  Non-zero means a replica is misbehaving.
    pub corrupt_replies: u64,
    /// `put_many` calls that reached quorum (each is one wire command and
    /// one WAL batch per replica, however many records it carried).
    pub batch_writes: u64,
    /// Records shipped inside those batches.
    pub batched_records: u64,
    /// Write rounds that missed quorum because a replica held something
    /// newer than this client remembered; each cost one more round.
    pub refused_rounds: u64,
}

/// A connected store client.
pub struct StoreClient {
    replicas: Vec<Addr>,
    quorum: usize,
    writer_id: String,
    /// Every replica (and logger) call checks a link out of this pool: a
    /// private one, or the shared one [`StoreClient::with_pool`] injects.
    pool: Arc<LinkPool>,
    /// Liveness memory: did the last call reach replica i?
    reachable: Vec<bool>,
    /// Which replicas acked the most recent quorum write (index-aligned
    /// with `replicas`).  The sharded client reads this to tell whether
    /// the leaseholder saw the write it will serve reads over.
    last_acks: Vec<bool>,
    /// The newest version seen or proposed per key — what lets a write skip
    /// its read round — and the bytes of that version when this client has
    /// them, which lets a read skip the value.
    memory: VersionMemory,
    stats: ClientStats,
    /// Network Logger address for degraded-write warnings.
    logger: Option<Addr>,
}

impl StoreClient {
    /// How many keys a client remembers the newest version of.  Full, it
    /// forgets them all: a forgotten key costs its next write the read
    /// round back and nothing else.
    pub const REMEMBERED_KEYS: usize = 4096;

    /// How many value bytes a client holds.  Full, it lets every value go
    /// and keeps the versions: a value no longer held costs its next read
    /// the bytes and nothing else.
    pub const HELD_BYTES: usize = 1 << 20;

    /// Client over a fixed replica set with majority quorum.
    pub fn new(
        net: SimNet,
        from_host: impl Into<HostId>,
        identity: KeyPair,
        replicas: Vec<Addr>,
    ) -> StoreClient {
        StoreClient {
            quorum: ace_core::quorum::majority(replicas.len()),
            writer_id: identity.principal(),
            pool: Arc::new(LinkPool::new(&net, from_host, identity)),
            reachable: vec![false; replicas.len()],
            replicas,
            last_acks: Vec::new(),
            memory: VersionMemory::default(),
            stats: ClientStats::default(),
            logger: None,
        }
    }

    /// Report degraded quorum writes to the Network Logger at `addr`.  A
    /// logger outage never affects store operations.
    pub fn with_logger(mut self, addr: Addr) -> StoreClient {
        self.logger = Some(addr);
        self
    }

    /// Client-side health counters.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Override the write quorum (tests exercise degraded modes).
    pub fn with_quorum(mut self, quorum: usize) -> StoreClient {
        self.quorum = quorum.clamp(1, self.replicas.len().max(1));
        self
    }

    /// The configured replica addresses.
    pub fn replicas(&self) -> &[Addr] {
        &self.replicas
    }

    /// Per-replica acks of the most recent write (`put`/`delete`/
    /// `put_many`), index-aligned with [`StoreClient::replicas`].  Empty
    /// until the first write.
    pub fn last_write_acks(&self) -> &[bool] {
        &self.last_acks
    }

    /// Route replica calls through this shared [`LinkPool`] instead of the
    /// client's private one, so many clients reuse each other's links and
    /// resumption tickets.
    pub fn with_pool(mut self, pool: Arc<LinkPool>) -> StoreClient {
        self.pool = pool;
        self
    }

    /// One command to replica `idx` through [`LinkPool::call`]: one
    /// immediate second attempt after a dropped connection or a shed —
    /// enough to ride either out without stalling a quorum scan on a
    /// genuinely dead replica.  `None` for no reply or an error reply.
    fn call_replica(&mut self, idx: usize, cmd: &CmdLine) -> Option<CmdLine> {
        let outcome = self
            .pool
            .call(&self.replicas[idx], cmd, DEFAULT_CALL_TIMEOUT);
        // Any answer, even an error, came from a live replica.
        self.reachable[idx] = !matches!(outcome, Err(ClientError::Link(_)));
        outcome.ok()
    }

    /// Read the newest version of a key across all reachable replicas, with
    /// read repair of stale ones.
    ///
    /// The scan fans out a **version-only digest** — replicas answer
    /// `(version, writer, deleted)` without the value bytes — and the
    /// full value then travels once, from a replica holding the newest
    /// version — or not at all, when the winning digest names the value this
    /// client holds.  Before, every replica shipped its full copy on every
    /// read, so an n-replica group paid n value transfers per `get`.
    pub fn get(&mut self, ns: &str, key: &str) -> Result<Vec<u8>, StoreError> {
        let digest = CmdLine::new("psGet")
            .arg("ns", ns)
            .arg("key", Value::Str(key.into()))
            .arg("digest", true);
        // (replica index, version, writer, deleted)
        let mut answers: Vec<(usize, u64, String, bool)> = Vec::new();
        let mut missing: Vec<usize> = Vec::new();
        for idx in 0..self.replicas.len() {
            let Some(reply) = self.call_replica(idx, &digest) else {
                // Down *or* missing the key; candidates for read repair.
                missing.push(idx);
                continue;
            };
            match digest_fields(&reply) {
                Some((version, writer, deleted)) => answers.push((idx, version, writer, deleted)),
                None => {
                    // Malformed reply: never substitute defaults for
                    // missing fields — count it and mark the replica for
                    // read repair like one that lacked the key.
                    self.stats.corrupt_replies += 1;
                    missing.push(idx);
                }
            }
        }
        let Some((_, best_version, best_writer, best_deleted)) = answers
            .iter()
            .max_by(|(_, av, aw, _), (_, bv, bw, _)| (av, aw.as_str()).cmp(&(bv, bw.as_str())))
            .cloned()
        else {
            // Nothing answered anywhere: every replica was unreachable or
            // lacks the key.  Distinguish by the liveness the scan just
            // recorded.
            return Err(if self.reachable.contains(&true) {
                StoreError::NotFound
            } else {
                StoreError::AllReplicasDown
            });
        };
        self.memory.note(ns, key, best_version);
        // The winner is the value this client holds: nothing to fetch.
        let held = self
            .memory
            .held(ns, key)
            .filter(|&(v, w, _)| !best_deleted && (v, w) == (best_version, best_writer.as_str()))
            .map(|(_, _, data)| Versioned {
                data: data.to_vec(),
                version: best_version,
                writer: best_writer.clone(),
                deleted: false,
            });
        // Otherwise fetch the value once, from any replica whose digest
        // matched the winner (it may crash between rounds — try each in
        // turn).
        let full = CmdLine::new("psGet")
            .arg("ns", ns)
            .arg("key", Value::Str(key.into()));
        let mut best = held;
        for (idx, version, writer, _) in &answers {
            if best.is_some() {
                break;
            }
            if (*version, writer.as_str()) != (best_version, best_writer.as_str()) {
                continue;
            }
            if let Some(reply) = self.call_replica(*idx, &full) {
                match crate::replica::versioned_from_reply(&reply) {
                    Some(value) => best = Some(value),
                    None => self.stats.corrupt_replies += 1,
                }
            }
        }
        let Some(best) = best else {
            // Every newest holder vanished between the digest round and
            // the fetch; whoever is left holds only older versions, which
            // newest-wins must not serve as current.
            return Err(StoreError::AllReplicasDown);
        };
        self.saw(ns, key, &best);
        // Stale answers plus replicas that missed the key entirely.
        let mut stale = missing;
        for (idx, version, writer, _) in &answers {
            if (best.version, best.writer.as_str()) > (*version, writer.as_str()) {
                stale.push(*idx);
            }
        }
        // Read repair: push the winning version to replicas that lacked
        // it.  A winning tombstone repairs as a delete — repairing it as
        // a put would resurrect the key on the stale replica.
        let repair = if best.deleted {
            CmdLine::new("psDelete")
                .arg("ns", ns)
                .arg("key", Value::Str(key.into()))
                .arg("version", best.version as i64)
                .arg("writer", Value::Str(best.writer.clone()))
        } else {
            CmdLine::new("psPut")
                .arg("ns", ns)
                .arg("key", Value::Str(key.into()))
                .arg("data", best.data.clone())
                .arg("version", best.version as i64)
                .arg("writer", Value::Str(best.writer.clone()))
        };
        for idx in stale {
            let _ = self.call_replica(idx, &repair);
        }
        if best.deleted {
            return Err(StoreError::NotFound);
        }
        Ok(best.data)
    }

    /// Newest version number of a key (0 if absent anywhere).  Digest
    /// reads only — no value bytes travel.
    fn newest_version(&mut self, ns: &str, key: &str) -> u64 {
        let cmd = CmdLine::new("psGet")
            .arg("ns", ns)
            .arg("key", Value::Str(key.into()))
            .arg("digest", true);
        let mut best = 0;
        for idx in 0..self.replicas.len() {
            if let Some(reply) = self.call_replica(idx, &cmd) {
                best = best.max(reply.get_int("version").unwrap_or(0) as u64);
            }
        }
        best
    }

    /// [`StoreClient::newest_version`] of a batch's keys (index-aligned),
    /// by a key-scoped digest: each replica reports the versions of these
    /// keys only, so the read costs O(batch), not O(keyspace), however
    /// much the replica holds.
    fn newest_versions(&mut self, ns: &str, keys: &[&str]) -> Vec<u64> {
        let mut newest: HashMap<&str, u64> = keys.iter().map(|k| (*k, 0)).collect();
        let wanted: Vec<Scalar> = keys.iter().map(|k| Scalar::Str(k.to_string())).collect();
        let digest = CmdLine::new("psDigest")
            .arg("ns", ns)
            .arg("keys", Value::Vector(wanted));
        for idx in 0..self.replicas.len() {
            let Some(reply) = self.call_replica(idx, &digest) else {
                continue;
            };
            let Some(rows) = crate::replica::digest_from_reply(&reply) else {
                self.stats.corrupt_replies += 1;
                continue;
            };
            for (row_ns, key, version, _) in rows {
                if row_ns == ns {
                    if let Some(best) = newest.get_mut(key.as_str()) {
                        *best = (*best).max(version);
                    }
                }
            }
        }
        keys.iter().map(|k| newest[k]).collect()
    }

    /// A read returned `value` for `ns/key` (the sharded client reports
    /// what its leased reads saw): remember its version, and hold its bytes
    /// if it is the newest version known.
    pub(crate) fn saw(&mut self, ns: &str, key: &str, value: &Versioned) {
        let bytes = (!value.deleted).then_some(value.data.as_slice());
        self.memory
            .saw(ns, key, value.version, &value.writer, bytes);
    }

    /// The value this client holds of `ns/key`, under its name: `(version,
    /// writer, bytes)`.
    pub(crate) fn held(&self, ns: &str, key: &str) -> Option<(u64, &str, &[u8])> {
        self.memory.held(ns, key)
    }

    /// Whether this client knows `ns/key` above `(version, writer)`: above
    /// the name of the value it holds, or else above the newest version it
    /// has seen or proposed.  A leased answer below it missed a write this
    /// client knows of.
    pub(crate) fn knows_above(&self, ns: &str, key: &str, version: u64, writer: &str) -> bool {
        let Some(known) = self.memory.keys.get(&id(ns, key)) else {
            return false;
        };
        let held = known.value.as_ref().map_or("", |(w, _)| w.as_str());
        (version, writer) < (known.newest, held)
    }

    /// Keys whose newest version this client remembers.
    pub fn remembered_keys(&self) -> usize {
        self.memory.keys.len()
    }

    /// Value bytes this client holds (at most [`StoreClient::HELD_BYTES`]).
    pub fn held_bytes(&self) -> usize {
        self.memory.held_bytes
    }

    /// The one write path: `put`, `delete` and `put_many` all end here.
    ///
    /// Each key is proposed one version above the newest this client has
    /// seen of it and the proposal goes straight to the quorum round.  Only
    /// a key never seen asks first — the miss arm, every write's first half
    /// before this client had a memory.  A replica that knows better says
    /// what it holds in its refusal; that is the read round's answer, so
    /// the next round proposes above it.  A round that reaches quorum leaves
    /// its own bytes held (a delete, nothing); proposing let go of what was
    /// held before.  Returns the versions that reached quorum, index-aligned
    /// with the write's keys.
    fn write(&mut self, ns: &str, what: Write<'_>) -> Result<Vec<u64>, StoreError> {
        let keys = what.keys();
        if keys.iter().any(|key| !self.memory.knows(ns, key)) {
            let newest = match what {
                Write::Batch(_) => self.newest_versions(ns, &keys),
                Write::Put(key, _) | Write::Delete(key) => vec![self.newest_version(ns, key)],
            };
            for (key, version) in keys.iter().zip(newest) {
                self.memory.note(ns, key, version);
            }
        }
        let writer = self.writer_id.clone();
        let mut acked = 0;
        for _ in 0..WRITE_ROUNDS {
            // Burnt before it is sent: whatever becomes of this round, these
            // numbers are never proposed again.
            let versions: Vec<u64> = keys.iter().map(|k| self.memory.propose(ns, k)).collect();
            let proposal = Proposal {
                ns,
                writer: &writer,
                keys: &keys,
                versions: &versions,
            };
            let cmd = what.cmd(ns, &proposal);
            let mut round = WriteRound::new(self.replicas.len(), self.quorum);
            for idx in 0..self.replicas.len() {
                // A replica the last call did not reach is dialled first: if
                // that fails, the proposal never goes out to it, and a round
                // it took no part in may be proposed again.
                if !self.reachable[idx] && self.pool.checkout(&self.replicas[idx]).is_err() {
                    continue;
                }
                let Some(reply) = self.call_replica(idx, &cmd) else {
                    round.lost();
                    continue;
                };
                match what.held_instead(&reply) {
                    Some(held) => round.hear(idx, &proposal, &held, &mut self.memory),
                    None => {
                        self.stats.corrupt_replies += 1;
                        round.lost();
                    }
                }
            }
            acked = round.count.acked();
            let outcome = round.outcome();
            self.last_acks = round.acks;
            match outcome {
                Outcome::Reached => {
                    for (at, (key, &version)) in keys.iter().zip(&versions).enumerate() {
                        self.memory.saw(ns, key, version, &writer, what.value(at));
                    }
                    self.committed(&cmd, ns, &what, round.count);
                    return Ok(versions);
                }
                Outcome::Refused => self.stats.refused_rounds += 1,
                Outcome::Missed => break,
            }
        }
        self.stats.quorum_failures += 1;
        Err(StoreError::QuorumFailed {
            acked,
            quorum: self.quorum,
        })
    }

    /// A write reached quorum: the counters, and a warning to the Network
    /// Logger when it committed with reduced redundancy.
    fn committed(&mut self, cmd: &CmdLine, ns: &str, what: &Write<'_>, count: QuorumRound) {
        self.stats.writes += 1;
        if count.degraded() {
            self.stats.degraded_writes += 1;
            let msg = format!(
                "degraded {} {ns}/{}: {}/{} replicas acked (quorum {})",
                cmd.name(),
                what.label(),
                count.acked(),
                self.replicas.len(),
                self.quorum
            );
            self.log_best_effort("warn", msg);
        }
    }

    /// Ship one line to the Network Logger as a cast: one frame, answered
    /// only if the logger refuses it, and dropped silently if the logger is
    /// down.  Nobody waits for the line, so a refusal is left for the next
    /// checkout's probe to find and discard with the link.
    fn log_best_effort(&mut self, level: &str, msg: String) {
        if let Some(logger) = &self.logger {
            if let Ok(mut link) = self.pool.checkout(logger) {
                let _ = link.cast(&ace_core::protocol::log_cmd(level, msg, None));
            }
        }
    }

    /// Write a value (one above the newest version seen, majority quorum).
    pub fn put(&mut self, ns: &str, key: &str, data: &[u8]) -> Result<u64, StoreError> {
        self.write(ns, Write::Put(key, data)).map(|v| v[0])
    }

    /// Write a run of values to one namespace in a single quorum round.
    /// One `psPutBatch` command per replica carries every record, and the
    /// replica commits the run through one WAL batch — the fsync is paid
    /// once per replica, not once per record.  Versions are assigned as for
    /// [`StoreClient::put`]; when a key of the batch has never been seen the
    /// read half is one digest of the batch's own keys per replica.
    /// Returns the assigned versions (index-aligned with `items`, which
    /// should not repeat keys); `Err` means *no* record may be treated as
    /// stored.
    pub fn put_many(
        &mut self,
        ns: &str,
        items: &[(String, Vec<u8>)],
    ) -> Result<Vec<u64>, StoreError> {
        if items.is_empty() {
            return Ok(Vec::new());
        }
        let versions = self.write(ns, Write::Batch(items))?;
        self.stats.batch_writes += 1;
        self.stats.batched_records += items.len() as u64;
        Ok(versions)
    }

    /// Delete a key (tombstone write, majority quorum).
    pub fn delete(&mut self, ns: &str, key: &str) -> Result<u64, StoreError> {
        self.write(ns, Write::Delete(key)).map(|v| v[0])
    }

    /// Live keys of a namespace as seen by the first reachable replica.
    pub fn list(&mut self, ns: &str) -> Result<Vec<String>, StoreError> {
        let cmd = CmdLine::new("psList").arg("ns", ns);
        for idx in 0..self.replicas.len() {
            if let Some(reply) = self.call_replica(idx, &cmd) {
                return Ok(reply
                    .get_vector("keys")
                    .map(|v| {
                        v.iter()
                            .filter_map(|s| s.as_text().map(str::to_string))
                            .collect()
                    })
                    .unwrap_or_default());
            }
        }
        Err(StoreError::AllReplicasDown)
    }
}

/// How many versions one write proposes before it surfaces `QuorumFailed`.
const WRITE_ROUNDS: usize = 3;

/// What this client knows of each key it has met, by the exact `(ns, key)`:
/// the newest version it has *seen or proposed*, and the value of that
/// version when it has seen it.
///
/// *Versions.*  Proposing from the memory is safe whatever it holds: too
/// low costs one refused round (the refusal names the real number), too high
/// leaves a gap in a sequence nobody reads as dense.  The one thing it must
/// never do is hand out the same number twice — `(version, writer)` names one
/// value — so a proposal is remembered before it is sent, and forgetting
/// raises `floor`.
///
/// *Values.*  A held value is the value of the key's newest version, so
/// `(newest, writer)` is its name — which is only true if the bytes go the
/// moment the version rises: [`VersionMemory::note`] lets them go, and
/// every way the version rises (a proposal, a refusal, a digest, a read)
/// goes through it.  Only [`VersionMemory::saw`] puts bytes back, and only
/// under the newest version.  The key is exact: two keys sharing a hash
/// would otherwise share a name, and serve each other's bytes.
#[derive(Debug, Default)]
struct VersionMemory {
    keys: HashMap<StoreKey, Known>,
    /// Above every version ever forgotten; proposals start above it.
    floor: u64,
    /// Bytes of the values held, at most [`StoreClient::HELD_BYTES`].
    held_bytes: usize,
}

/// One key in the [`VersionMemory`].
#[derive(Debug, Default)]
struct Known {
    newest: u64,
    /// `(writer, bytes)` of version `newest`, when this client has them.
    value: Option<(String, Vec<u8>)>,
}

fn id(ns: &str, key: &str) -> StoreKey {
    (ns.to_string(), key.to_string())
}

impl VersionMemory {
    fn knows(&self, ns: &str, key: &str) -> bool {
        self.keys.contains_key(&id(ns, key))
    }

    /// Forget every key.  Safe at any moment: the floor keeps what was
    /// proposed from being proposed again, and a forgotten key's next write
    /// asks the replicas first.
    fn forget(&mut self) {
        self.floor = self
            .keys
            .values()
            .map(|k| k.newest)
            .fold(self.floor, u64::max);
        self.keys.clear();
        self.held_bytes = 0;
    }

    /// Raise what is remembered of `ns/key` to at least `version`; if that
    /// raises it, the value held of the old version goes.
    fn note(&mut self, ns: &str, key: &str, version: u64) {
        let id = id(ns, key);
        if self.keys.len() >= StoreClient::REMEMBERED_KEYS && !self.keys.contains_key(&id) {
            self.forget();
        }
        let known = self.keys.entry(id).or_default();
        if version > known.newest {
            known.newest = version;
            if let Some((_, bytes)) = known.value.take() {
                self.held_bytes -= bytes.len();
            }
        }
    }

    /// The next version to propose for `ns/key` — remembered at once, so it
    /// is never proposed again whether or not its round reaches quorum.
    fn propose(&mut self, ns: &str, key: &str) -> u64 {
        let seen = self.keys.get(&id(ns, key)).map_or(0, |k| k.newest);
        let version = seen.max(self.floor) + 1;
        self.note(ns, key, version);
        version
    }

    /// Version `version` of `ns/key` is `bytes` by `writer` (`None`: a
    /// tombstone) — a round that reached quorum wrote it, or a read returned
    /// it.  Held if it is the newest version known and fits; a full memory
    /// lets every value go first and keeps the versions.
    fn saw(&mut self, ns: &str, key: &str, version: u64, writer: &str, bytes: Option<&[u8]>) {
        self.note(ns, key, version);
        let bytes = bytes.filter(|b| b.len() <= StoreClient::HELD_BYTES);
        if self.held_bytes + bytes.map_or(0, <[u8]>::len) > StoreClient::HELD_BYTES {
            self.keys.values_mut().for_each(|k| k.value = None);
            self.held_bytes = 0;
        }
        let known = self.keys.get_mut(&id(ns, key)).expect("noted above");
        if known.newest != version {
            return;
        }
        if let Some((_, old)) = known.value.take() {
            self.held_bytes -= old.len();
        }
        if let Some(bytes) = bytes {
            self.held_bytes += bytes.len();
            known.value = Some((writer.to_string(), bytes.to_vec()));
        }
    }

    /// The held value of `ns/key` under its name: `(version, writer, bytes)`.
    fn held(&self, ns: &str, key: &str) -> Option<(u64, &str, &[u8])> {
        let known = self.keys.get(&id(ns, key))?;
        let (writer, bytes) = known.value.as_ref()?;
        Some((known.newest, writer, bytes))
    }
}

/// What a write carries: the three verbs of the one write path.
enum Write<'a> {
    Put(&'a str, &'a [u8]),
    Delete(&'a str),
    Batch(&'a [(String, Vec<u8>)]),
}

impl<'a> Write<'a> {
    fn keys(&self) -> Vec<&'a str> {
        match self {
            Write::Put(key, _) | Write::Delete(key) => vec![key],
            Write::Batch(items) => items.iter().map(|(key, _)| key.as_str()).collect(),
        }
    }

    /// The bytes written under the `at`-th key; `None` for a tombstone.
    fn value(&self, at: usize) -> Option<&'a [u8]> {
        match self {
            Write::Put(_, data) => Some(data),
            Write::Delete(_) => None,
            Write::Batch(items) => Some(&items[at].1),
        }
    }

    /// How the degraded-write warning names what was written.
    fn label(&self) -> String {
        match self {
            Write::Put(key, _) | Write::Delete(key) => key.to_string(),
            Write::Batch(items) => format!("batch[{} records]", items.len()),
        }
    }

    /// The command making `proposal` (whose keys are this write's).
    fn cmd(&self, ns: &str, proposal: &Proposal<'_>) -> CmdLine {
        let (writer, versions) = (proposal.writer, proposal.versions);
        let single = |verb: &str, key: &str| {
            CmdLine::new(verb)
                .arg("ns", ns)
                .arg("key", Value::Str(key.into()))
                .arg("version", versions[0] as i64)
                .arg("writer", Value::Str(writer.into()))
        };
        match self {
            Write::Put(key, data) => single("psPut", key).arg("data", *data),
            Write::Delete(key) => single("psDelete", key),
            Write::Batch(items) => {
                let (rows, data) =
                    pack_values(items.iter().zip(versions).map(|((key, data), version)| {
                        let row = vec![
                            Scalar::Str(key.clone()),
                            Scalar::Str(version.to_string()),
                            Scalar::Str(writer.into()),
                        ];
                        (row, data.as_slice())
                    }));
                CmdLine::new("psPutBatch")
                    .arg("ns", ns)
                    .arg("items", Value::Array(rows))
                    .arg("data", data)
            }
        }
    }

    /// What the replica holds *instead of* the proposal, as `(key, version,
    /// writer)` rows: empty when everything applied.  `None` for a reply
    /// that says neither.
    fn held_instead(&self, reply: &CmdLine) -> Option<Vec<(String, u64, String)>> {
        match self {
            Write::Put(key, _) | Write::Delete(key) => {
                if reply.get_bool("applied")? {
                    return Some(Vec::new());
                }
                let version = reply.get_int("version")?.max(0) as u64;
                Some(vec![(
                    key.to_string(),
                    version,
                    reply.get_text("writer")?.to_string(),
                )])
            }
            Write::Batch(_) => {
                reply.get_int("applied")?;
                if reply.get("entries").is_none() {
                    return Some(Vec::new());
                }
                let rows = crate::replica::digest_from_reply(reply)?;
                Some(rows.into_iter().map(|(_, k, v, w)| (k, v, w)).collect())
            }
        }
    }
}

/// The batch row form of `psPutBatch`: every row ends in a cell holding its
/// value's length, and the values travel concatenated, in row order, as a
/// single blob argument beside the array.  Returns `(rows, blob)`.
pub(crate) fn pack_values<'a>(
    rows: impl Iterator<Item = (Vec<Scalar>, &'a [u8])>,
) -> (Vec<Vec<Scalar>>, Vec<u8>) {
    let mut blob = Vec::new();
    let rows = rows
        .map(|(mut row, value)| {
            row.push(Scalar::Str(value.len().to_string()));
            blob.extend_from_slice(value);
            row
        })
        .collect();
    (rows, blob)
}

/// Undo [`pack_values`]: each row (its length cell still last) with its
/// value.  `None` unless every row has `cells` cells plus a length and the
/// lengths use up the blob exactly.
pub(crate) fn unpack_values<'a>(
    rows: &'a [Vec<Scalar>],
    mut blob: &'a [u8],
    cells: usize,
) -> Option<Vec<(&'a [Scalar], &'a [u8])>> {
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        let (len, row) = row.split_last()?;
        let len: usize = len.as_text()?.parse().ok()?;
        if row.len() != cells || len > blob.len() {
            return None;
        }
        let (value, rest) = blob.split_at(len);
        blob = rest;
        out.push((row, value));
    }
    blob.is_empty().then_some(out)
}

/// One round's proposal: `versions` of `keys` in `ns`, index-aligned, under
/// `writer`.
struct Proposal<'a> {
    ns: &'a str,
    writer: &'a str,
    keys: &'a [&'a str],
    versions: &'a [u64],
}

/// One quorum round of a write as its replies come in.
struct WriteRound {
    count: QuorumRound,
    /// Who acked, index-aligned with the replicas.
    acks: Vec<bool>,
    /// Some replica held something the proposal did not beat — and said
    /// what, so a further round can propose above it.
    refused: bool,
    /// Some replica took some key of the proposal, or may have: the
    /// proposal went out to it and no answer came back.
    took: bool,
}

/// How a round ended.
enum Outcome {
    /// A quorum acked: the write is committed.
    Reached,
    /// No quorum, a refusal said what to beat, and no replica took the
    /// proposal or may have: propose again.
    Refused,
    /// No quorum, and nothing that may be proposed again: the write failed.
    /// Either nothing was learned (replicas down), or a replica took the
    /// proposal — or may have, its answer lost — while a newer write beat it
    /// at the others.  What a replica took, a reader may have seen; proposed
    /// again above the newer write, it would come back after it.  A replica
    /// the proposal never went out to took nothing.
    Missed,
}

impl WriteRound {
    fn new(replicas: usize, quorum: usize) -> WriteRound {
        WriteRound {
            count: QuorumRound::new(replicas, quorum),
            acks: vec![false; replicas],
            refused: false,
            took: false,
        }
    }

    fn outcome(&self) -> Outcome {
        match (self.count.reached(), self.refused && !self.took) {
            (true, _) => Outcome::Reached,
            (false, true) => Outcome::Refused,
            (false, false) => Outcome::Missed,
        }
    }

    /// Replica `idx` answered that it holds `held` instead of what was
    /// proposed.  **An ack that did not apply is not an ack**: the reply
    /// counts only if every key applied or is held *exactly* as proposed —
    /// a re-send after a lost reply, or read repair got there first.
    /// Anything else lost to a newer write: the replica is not an acker (a
    /// lease holder among them loses its lease), and what it holds goes
    /// into `memory` so the next proposal beats it.
    fn hear(
        &mut self,
        idx: usize,
        proposal: &Proposal<'_>,
        held: &[(String, u64, String)],
        memory: &mut VersionMemory,
    ) {
        let mut exact = true;
        let mut beaten = 0;
        for (key, version, writer) in held {
            let at = proposal.keys.iter().position(|k| k == key);
            if at.is_some() {
                memory.note(proposal.ns, key, *version);
            }
            let proposed = at.map(|at| (proposal.versions[at], proposal.writer));
            if proposed != Some((*version, writer.as_str())) {
                exact = false;
                self.refused = true;
                beaten += usize::from(at.is_some());
            }
        }
        self.took |= beaten < proposal.keys.len();
        if exact {
            self.count.ack();
            self.acks[idx] = true;
        }
    }

    /// The proposal went out to a replica and no answer that says what it
    /// holds came back: it may have taken the proposal.
    fn lost(&mut self) {
        self.took = true;
    }
}

/// Parse a digest-mode `psGet` reply: `(version, writer, deleted)`.
fn digest_fields(reply: &CmdLine) -> Option<(u64, String, bool)> {
    Some((
        reply.get_int("version")?.max(0) as u64,
        reply.get_text("writer")?.to_string(),
        reply.get_bool("deleted")?,
    ))
}

impl fmt::Debug for StoreClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "StoreClient({} replicas, quorum {})",
            self.replicas.len(),
            self.quorum
        )
    }
}

/// A model check of the write path and of held values: three bare
/// [`DiskImage`]s, two clients, two keys, and a seeded interleaving of the
/// steps `StoreClient::write` takes — each replica of the read round, each
/// replica of each proposal round, puts and deletes — and of reads, each one
/// step: a leased read that offers the client's held value to one holder
/// ([`already_held`] decides, as the replica does), or a quorum read that
/// skips its fetch when the winner is the held value.  Driven through the
/// client's own pieces ([`VersionMemory`], [`WriteRound::hear`],
/// [`WriteRound::outcome`], [`WRITE_ROUNDS`]) and the replica's
/// ([`DiskImage::propose`], [`already_held`]).  The schedule also forgets a
/// client's memory at any moment, skips a replica (unreachable: the proposal
/// never goes out to it), delivers a
/// proposal twice (the reply to the first was lost) and loses a reply
/// outright.
///
/// What must hold, whatever the schedule:
///
/// * **an ack took effect** — every `Ok(v)` was held, exactly as `(v,
///   writer, data)`, by a quorum of replicas;
/// * **an ack is readable** — the quorum read straight after `Ok(v)` returns
///   `(v, writer, data)` or something that beats it;
/// * **an ack respects the acks before it** — it beats every write of its
///   key that had returned `Ok` before it began;
/// * **a name names one value** — two different values are never sent under
///   one `(key, version, writer)`;
/// * **a stale memory is one round, not a failure** — a put nobody disturbs
///   returns `Ok`, however far behind its writer's memory is, unless a
///   replica the newest write had not reached took its proposal;
/// * **a value taken is never proposed again** — once a replica took a
///   value under `(version, writer)`, no round sends it under another
///   version;
/// * **a held value is named right** — whatever a memory holds of a key
///   under `(version, writer)` is exactly what was sent under that name, and
///   that name is a value, not a tombstone;
/// * **a read returns what is held** — every `Ok(bytes)` is exactly the
///   bytes the answering replica holds (a quorum read: some replica held)
///   under the answered `(version, writer)`, and no read is older than a
///   write of its key acked before it began.  A leased read is made only
///   from a holder the lease rule would let stand — one holding everything
///   acked so far — and otherwise falls back to the quorum read, as the
///   sharded client does.
///
/// Fails under "count `applied=false` as an ack" (`hear`: `exact` always
/// true), "reuse a version whose round failed" (`propose` without its
/// `note`), "a refusal does not say what is held" (`DiskImage::propose`
/// answering version 0), with the rules the client had before it had a
/// memory (every write asks first, every reply is an ack) — and, for held
/// values, under "held values keyed by a hash that collides" (`id` drops the
/// key), "the holder compares the version only" ([`already_held`]), "a value
/// is kept across a refused or missed round" (`propose` raises the version
/// and keeps the bytes) and "a held value survives a delete" (a tombstone
/// leaves the bytes in place) — and, for values taken, under "propose again
/// after any refused round" (`WriteRound::outcome` as it was), "… after a
/// round whose answer was lost" (`lost` a no-op) and "… after a round a
/// replica took" (`hear` leaves `took` alone).
#[cfg(test)]
mod race_model {
    use super::*;
    use crate::replica::{already_held, DiskImage};
    use rand::rngs::SmallRng;
    use rand::Rng;
    use std::collections::HashSet;

    const NS: &str = "app";
    /// Two keys, so that a memory that confuses them is caught.
    const KEYS: [&str; 2] = ["k", "j"];
    const REPLICAS: usize = 3;
    const QUORUM: usize = 2;

    /// A value of the model: its text, or `None` for a tombstone.
    type Data = Option<String>;
    /// `(version, writer, value)` as a replica holds it.
    type Triple = (u64, String, Data);

    fn triple(v: Versioned) -> Triple {
        let data = (!v.deleted).then(|| String::from_utf8(v.data).unwrap());
        (v.version, v.writer, data)
    }

    fn bytes(data: &Data) -> Option<&[u8]> {
        data.as_deref().map(str::as_bytes)
    }

    struct World {
        disks: Vec<DiskImage>,
        /// Everything each replica has ever held, with its key.
        held: Vec<HashSet<(String, Triple)>>,
        /// The value sent under each `(key, version, writer)`.
        sent: HashMap<(String, u64, String), Data>,
        /// `(key, version, writer)` of every write that returned `Ok`, in
        /// order.
        acked: Vec<(String, u64, String)>,
        /// What happened, for the failure message.
        story: Vec<String>,
        /// The `(key, version)` under which a replica first took each value.
        taken: HashMap<String, (String, u64)>,
    }

    impl World {
        fn new() -> World {
            World {
                disks: (0..REPLICAS).map(|_| DiskImage::new()).collect(),
                held: vec![HashSet::new(); REPLICAS],
                sent: HashMap::new(),
                acked: Vec::new(),
                story: Vec::new(),
                taken: HashMap::new(),
            }
        }

        fn require(&self, holds: bool, what: impl FnOnce() -> String) {
            assert!(holds, "{}\n  {}", what(), self.story.join("\n  "));
        }

        /// Replica `idx` receives a proposal; what it holds instead.
        fn deliver(
            &mut self,
            idx: usize,
            key: &str,
            writer: &str,
            version: u64,
            data: &Data,
        ) -> Held {
            let name = (key.to_string(), version, writer.to_string());
            let first = self.sent.entry(name).or_insert_with(|| data.clone());
            let first = first.clone();
            self.require(first == *data, || {
                format!("{first:?} and {data:?} both went out as {key} ({version}, {writer})")
            });
            let value = Versioned {
                data: bytes(data).unwrap_or_default().to_vec(),
                version,
                writer: writer.to_string(),
                deleted: data.is_none(),
            };
            let id = (NS.to_string(), key.to_string());
            if let Some((at_key, at)) = data.as_ref().and_then(|d| self.taken.get(d)) {
                let (at_key, at) = (at_key.clone(), *at);
                self.require((at_key.as_str(), at) == (key, version), || {
                    format!("{data:?}, taken as {at_key} ({at}), proposed again as ({version})")
                });
            }
            let refusal = self.disks[idx].propose(id.clone(), value).unwrap();
            if let (None, Some(data)) = (&refusal, data) {
                let first = (key.to_string(), version);
                self.taken.entry(data.clone()).or_insert(first);
            }
            let now = self.disks[idx].get(&id).unwrap();
            self.story.push(format!(
                "r{idx} <- {key} ({version}, {writer}, {data:?}): {}; holds ({}, {})",
                if refusal.is_none() {
                    "applied"
                } else {
                    "refused"
                },
                now.version,
                now.writer
            ));
            self.held[idx].insert((key.to_string(), triple(now)));
            refusal
                .into_iter()
                .map(|(version, writer)| (key.to_string(), version, writer))
                .collect()
        }

        fn now(&self, idx: usize, key: &str) -> Option<Versioned> {
            self.disks[idx].get(&(NS.to_string(), key.to_string()))
        }

        /// Newest-wins over all three replicas, as `StoreClient::get` reads.
        fn newest(&self, key: &str) -> Option<Versioned> {
            (0..REPLICAS)
                .filter_map(|idx| self.now(idx, key))
                .max_by(|a, b| (a.version, &a.writer).cmp(&(b.version, &b.writer)))
        }

        /// The newest of the first `before` acks of `key`.
        fn newest_acked(&self, key: &str, before: usize) -> Option<(u64, &str)> {
            self.acked[..before]
                .iter()
                .filter(|(k, _, _)| k == key)
                .map(|(_, v, w)| (*v, w.as_str()))
                .max()
        }

        /// Writer `id`'s write of `data` to `key`, begun when `before` writes
        /// had returned, came back `Ok(version)`.
        fn returned_ok(&mut self, key: &str, id: &str, version: u64, data: &Data, before: usize) {
            let this = (key.to_string(), (version, id.to_string(), data.clone()));
            let holders = self.held.iter().filter(|h| h.contains(&this)).count();
            self.require(holders >= QUORUM, || {
                format!("Ok({version}) by {id} was held by {holders} replicas: a lost write acked")
            });
            let read = triple(self.newest(key).expect("something is held"));
            self.require(
                read == this.1 || (read.0, read.1.as_str()) > (version, id),
                || format!("Ok({version}) by {id} then reads {read:?}"),
            );
            if let Some((v, w)) = self.newest_acked(key, before) {
                self.require((version, id) > (v, w), || {
                    format!("Ok({version}) by {id} began after Ok({v}) by {w} had returned")
                });
            }
            self.story.push(format!("{id}: {key} Ok({version})"));
            self.acked.push((key.to_string(), version, id.to_string()));
        }

        /// Whatever `memory` holds is exactly what was sent under its name,
        /// and that name is a value.
        fn check_held(&self, who: &str, memory: &VersionMemory) {
            for key in KEYS {
                let Some((version, writer, held)) = memory.held(NS, key) else {
                    continue;
                };
                let held = String::from_utf8(held.to_vec()).unwrap();
                let named = self
                    .sent
                    .get(&(key.to_string(), version, writer.to_string()));
                self.require(named == Some(&Some(held.clone())), || {
                    format!("{who} holds `{held}` as {key} ({version}, {writer}), which named {named:?}")
                });
            }
        }

        /// Client `who` reads `key` with `memory`: leased from `holder` if
        /// the lease would stand there, the quorum read otherwise.
        fn read(
            &mut self,
            who: &str,
            memory: &mut VersionMemory,
            key: &str,
            holder: Option<usize>,
        ) {
            let floor = self
                .newest_acked(key, self.acked.len())
                .map(|(v, w)| (v, w.to_string()));
            let stands = |v: &Option<Versioned>| match (&floor, v) {
                (None, _) => true,
                (Some(_), None) => false,
                (Some((fv, fw)), Some(v)) => (v.version, &v.writer) >= (*fv, fw),
            };
            let holder = holder.filter(|&h| stands(&self.now(h, key)));
            let answer: Option<Triple> = match holder {
                Some(h) => match self.now(h, key) {
                    None => None,
                    Some(v) => {
                        let offered = memory.held(NS, key);
                        if already_held(
                            (v.version, &v.writer, v.deleted),
                            offered.map(|(ver, w, _)| (ver, w)),
                        ) {
                            // `same=true`: the bytes are the held ones, under
                            // the name offered.
                            let (ver, w, b) = offered.unwrap();
                            let held = String::from_utf8(b.to_vec()).unwrap();
                            self.require((v.version, v.writer.as_str()) == (ver, w), || {
                                format!(
                                    "{who}: r{h} said `same` to {key} ({ver}, {w}) holding ({}, {})",
                                    v.version, v.writer
                                )
                            });
                            Some((ver, w.to_string(), Some(held)))
                        } else {
                            let v = triple(v);
                            memory.saw(NS, key, v.0, &v.1, bytes(&v.2));
                            Some(v)
                        }
                    }
                },
                None => self.newest(key).map(|best| {
                    memory.note(NS, key, best.version);
                    let held = memory
                        .held(NS, key)
                        .filter(|&(v, w, _)| {
                            !best.deleted && (v, w) == (best.version, &best.writer)
                        })
                        .map(|(_, _, b)| String::from_utf8(b.to_vec()).unwrap());
                    let best = match held {
                        Some(held) => (best.version, best.writer, Some(held)),
                        None => triple(best),
                    };
                    memory.saw(NS, key, best.0, &best.1, bytes(&best.2));
                    best
                }),
            };
            let how = holder.map_or("quorum".to_string(), |h| format!("leased r{h}"));
            self.story
                .push(format!("{who}: {how} read of {key}: {answer:?}"));
            if let Some((version, writer, Some(data))) = &answer {
                let named = self.sent.get(&(key.to_string(), *version, writer.clone()));
                self.require(named == Some(&Some(data.clone())), || {
                    format!(
                        "{who} read `{data}` as {key} ({version}, {writer}), which named {named:?}"
                    )
                });
            }
            let answered = answer.as_ref().map(|(v, w, _)| (*v, w.as_str()));
            if let Some((v, w)) = &floor {
                self.require(answered >= Some((*v, w.as_str())), || {
                    format!("{who} read {key} as {answered:?} after Ok({v}) by {w} had returned")
                });
            }
        }
    }

    type Held = Vec<(String, u64, String)>;

    /// One write in flight: where `StoreClient::write` is in its loop.
    struct Write {
        key: &'static str,
        /// The value, or `None` for a delete.
        data: Data,
        /// How many writes had returned `Ok` when this one began.
        before: usize,
        /// The miss arm: next replica to ask, newest version heard so far.
        asking: Option<(usize, u64)>,
        /// The proposal round: version, tally, next replica to send to.
        round: Option<(u64, WriteRound, usize)>,
        rounds: usize,
    }

    struct Client {
        id: String,
        memory: VersionMemory,
        write: Option<Write>,
        ops: usize,
        /// A replica took the last round of the last write.
        took: bool,
    }

    impl Client {
        fn new(id: &str) -> Client {
            Client {
                id: id.to_string(),
                memory: VersionMemory::default(),
                write: None,
                ops: 0,
                took: false,
            }
        }

        /// Begin a put of a fresh value to `key`, or a delete of it.
        fn begin(&mut self, world: &World, key: &'static str, delete: bool) {
            self.ops += 1;
            self.write = Some(Write {
                key,
                data: (!delete).then(|| format!("{}#{}", self.id, self.ops)),
                before: world.acked.len(),
                asking: (!self.memory.knows(NS, key)).then_some((0, 0)),
                round: None,
                rounds: 0,
            });
        }

        /// Take the next step of the write in flight.  `faults` rolls the
        /// dice on a skipped replica, a twice-delivered proposal and a reply
        /// that never arrives.  `Some(ok)` when the write returned.
        fn step(&mut self, world: &mut World, faults: Option<&mut SmallRng>) -> Option<bool> {
            let (skip, twice, unheard) = match faults {
                Some(rng) => (rng.gen_bool(0.15), rng.gen_bool(0.15), rng.gen_bool(0.1)),
                None => (false, false, false),
            };
            let write = self.write.as_mut().expect("a write in flight");
            let key = write.key;
            if let Some((idx, newest)) = &mut write.asking {
                if !skip {
                    let held = world.now(*idx, key).map_or(0, |v| v.version);
                    *newest = (*newest).max(held);
                }
                *idx += 1;
                if *idx == REPLICAS {
                    self.memory.note(NS, key, *newest);
                    write.asking = None;
                }
                return None;
            }
            let (version, round, idx) = write.round.get_or_insert_with(|| {
                let version = self.memory.propose(NS, key);
                (version, WriteRound::new(REPLICAS, QUORUM), 0)
            });
            if !skip {
                if twice {
                    world.deliver(*idx, key, &self.id, *version, &write.data);
                }
                let held = world.deliver(*idx, key, &self.id, *version, &write.data);
                let proposal = Proposal {
                    ns: NS,
                    writer: &self.id,
                    keys: &[key],
                    versions: &[*version],
                };
                match unheard {
                    true => round.lost(),
                    false => round.hear(*idx, &proposal, &held, &mut self.memory),
                }
            }
            *idx += 1;
            if *idx < REPLICAS {
                return None;
            }
            write.rounds += 1;
            self.took = round.took;
            let ok = match round.outcome() {
                Outcome::Reached => {
                    self.memory
                        .saw(NS, key, *version, &self.id, bytes(&write.data));
                    world.returned_ok(key, &self.id, *version, &write.data, write.before);
                    true
                }
                Outcome::Refused if write.rounds < WRITE_ROUNDS => {
                    write.round = None;
                    return None;
                }
                Outcome::Refused | Outcome::Missed => {
                    world.story.push(format!("{}: {key} QuorumFailed", self.id));
                    false
                }
            };
            self.write = None;
            Some(ok)
        }
    }

    fn run(seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut world = World::new();
        world.story.push(format!("seed {seed}"));
        let mut clients = [Client::new("wa"), Client::new("wb")];
        // Some schedules take turns, some let one client run far ahead.
        let lean = [0.5, 0.85, 0.15][(seed % 3) as usize];
        let busy = |c: &Client| c.ops < 10 || c.write.is_some();
        while clients.iter().any(busy) {
            let c = &mut clients[usize::from(rng.gen_bool(lean))];
            if !busy(c) {
                continue;
            }
            if rng.gen_bool(0.03) {
                world.story.push(format!("{}: forgets", c.id));
                c.memory.forget();
            }
            if c.write.is_some() {
                c.step(&mut world, Some(&mut rng));
            } else {
                let key = KEYS[usize::from(rng.gen_bool(0.3))];
                if rng.gen_bool(0.4) {
                    c.ops += 1;
                    let holder = rng.gen_bool(0.8).then(|| rng.gen_range(0..REPLICAS));
                    world.read(&c.id, &mut c.memory, key, holder);
                } else {
                    c.begin(&world, key, rng.gen_bool(0.2));
                }
            }
            world.check_held(&c.id, &c.memory);
        }
        // Whatever each remembers by now, an undisturbed put lands.
        for c in &mut clients {
            c.begin(&world, KEYS[0], false);
            let ok = loop {
                if let Some(ok) = c.step(&mut world, None) {
                    break ok;
                }
            };
            // Unless a replica the newest write had not reached took the
            // proposal: then the put is ambiguous, not proposed again.
            world.require(ok || c.took, || {
                format!("{}'s undisturbed put failed", c.id)
            });
            world.check_held(&c.id, &c.memory);
        }
    }

    #[test]
    fn every_ack_took_effect_and_no_name_names_two_values() {
        for seed in 0..3000 {
            run(seed);
        }
    }
}

#[cfg(test)]
mod batch_rows {
    use super::*;

    fn row(key: &str, version: u64) -> Vec<Scalar> {
        vec![Scalar::Str(key.into()), Scalar::Str(version.to_string())]
    }

    /// Rows and values come back as they went — through the frame, through
    /// the text form (where the blob is a hex word), and with no rows at all
    /// — and a blob or a row that does not fit gives no rows.
    #[test]
    fn rows_round_trip_and_a_misfit_gives_none() {
        let items: [(Vec<Scalar>, &[u8]); 3] = [
            (row("a", 3), b"a line; with a semicolon"),
            (row("b", 4), &[0u8, b';', 0xff]),
            (row("c", 9), b""),
        ];
        let (rows, data) = pack_values(items.iter().map(|(r, v)| (r.clone(), *v)));
        let batch = CmdLine::new("psPutBatch")
            .arg("items", Value::Array(rows))
            .arg("data", data);
        for sent in [
            CmdLine::parse_frame(&batch.to_frame()).unwrap(),
            CmdLine::parse(&batch.to_wire()).unwrap(),
        ] {
            let rows = sent.get("items").and_then(Value::as_array).unwrap();
            let blob = sent.get_blob("data").unwrap();
            let back = unpack_values(rows, &blob, 2).unwrap();
            let expected: Vec<(&[Scalar], &[u8])> =
                items.iter().map(|(r, v)| (r.as_slice(), *v)).collect();
            assert_eq!(back, expected);
        }
        assert_eq!(unpack_values(&[], &[], 2), Some(Vec::new()));

        let (rows, data) = pack_values(items.iter().map(|(r, v)| (r.clone(), *v)));
        // Lengths that do not use up the blob exactly: no rows.
        assert_eq!(unpack_values(&rows, &data[..data.len() - 1], 2), None);
        assert_eq!(unpack_values(&rows, &[&data[..], b"x"].concat(), 2), None);
        assert_eq!(unpack_values(&rows, b"x", 2), None);
        // The wrong cell count, or no length cell at all: no rows.
        assert_eq!(unpack_values(&rows, &data, 1), None);
        assert_eq!(unpack_values(&rows, &data, 3), None);
        assert_eq!(unpack_values(&[Vec::new()], &[], 0), None);
    }
}
