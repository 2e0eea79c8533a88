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
//! on `(version, writer)`, exactly as before.  DESIGN.md § "Store
//! scale-out", "The write path", has the argument; `race_model` below
//! checks it.

use crate::version::Versioned;
use ace_core::prelude::*;
use ace_security::keys::KeyPair;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

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
    /// The newest version seen or proposed per key: what lets a write skip
    /// its read round.
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

    fn call_replica(&mut self, idx: usize, cmd: &CmdLine) -> Option<CmdLine> {
        // One immediate reconnect per replica per command — enough to
        // ride out a dropped connection without stalling a quorum scan
        // on a genuinely dead replica.
        let mut retry = RetryPolicy::fixed(Duration::ZERO)
            .with_max_attempts(1)
            .start();
        loop {
            let outcome = self
                .pool
                .checkout(&self.replicas[idx])
                .and_then(|mut link| link.call(cmd));
            // Any answer, even an error, came from a live replica.  After a
            // link failure the broken link is already discarded; the retry
            // checks out a fresh one.
            self.reachable[idx] = !matches!(outcome, Err(ClientError::Link(_)));
            match outcome {
                Ok(reply) => return Some(reply),
                // A real answer, e.g. NotFound.
                Err(ClientError::Service { code, .. }) if !code.is_retryable() => return None,
                // A link failure, or the replica shed the command before
                // executing it (E_BUSY / E_DEADLINE / E_UPGRADING): back
                // off and retry within the schedule.
                Err(_) => {}
            }
            if !retry.backoff() {
                return None;
            }
        }
    }

    /// Read the newest version of a key across all reachable replicas, with
    /// read repair of stale ones.
    ///
    /// The scan fans out a **version-only digest** — replicas answer
    /// `(version, writer, deleted)` without the value bytes — and the
    /// full value then travels once, from a replica holding the newest
    /// version.  Before, every replica shipped its full copy on every
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
        let Some((_, best_version, best_writer, _)) = answers
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
        self.memory.note(slot_of(ns, key), best_version);
        // Fetch the value once, from any replica whose digest matched the
        // winner (it may crash between rounds — try each in turn).
        let full = CmdLine::new("psGet")
            .arg("ns", ns)
            .arg("key", Value::Str(key.into()));
        let mut best: Option<Versioned> = None;
        for (idx, version, writer, _) in &answers {
            if (*version, writer.as_str()) != (best_version, best_writer.as_str()) {
                continue;
            }
            if let Some(reply) = self.call_replica(*idx, &full) {
                match crate::replica::versioned_from_reply(&reply) {
                    Some(value) => {
                        best = Some(value);
                        break;
                    }
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

    /// Raise what this client remembers of `ns/key` to at least `version`
    /// (the sharded client reports what its leased reads saw).
    pub(crate) fn note_version(&mut self, ns: &str, key: &str, version: u64) {
        self.memory.note(slot_of(ns, key), version);
    }

    /// Keys whose newest version this client remembers.
    pub fn remembered_keys(&self) -> usize {
        self.memory.newest.len()
    }

    /// The one write path: `put`, `delete` and `put_many` all end here.
    ///
    /// Each key is proposed one version above the newest this client has
    /// seen of it and the proposal goes straight to the quorum round.  Only
    /// a key never seen asks first — the miss arm, every write's first half
    /// before this client had a memory.  A replica that knows better says
    /// what it holds in its refusal; that is the read round's answer, so
    /// the next round proposes above it.  Returns the versions that reached
    /// quorum, index-aligned with the write's keys.
    fn write(&mut self, ns: &str, what: Write<'_>) -> Result<Vec<u64>, StoreError> {
        let keys = what.keys();
        let slots: Vec<u64> = keys.iter().map(|key| slot_of(ns, key)).collect();
        if slots.iter().any(|&slot| !self.memory.knows(slot)) {
            let newest = match what {
                Write::Batch(_) => self.newest_versions(ns, &keys),
                Write::Put(key, _) | Write::Delete(key) => vec![self.newest_version(ns, key)],
            };
            for (&slot, version) in slots.iter().zip(newest) {
                self.memory.note(slot, version);
            }
        }
        let writer = self.writer_id.clone();
        let mut acked = 0;
        for _ in 0..WRITE_ROUNDS {
            // Burnt before it is sent: whatever becomes of this round, these
            // numbers are never proposed again.
            let versions: Vec<u64> = slots.iter().map(|&s| self.memory.propose(s)).collect();
            let proposal = Proposal {
                writer: &writer,
                keys: &keys,
                slots: &slots,
                versions: &versions,
            };
            let cmd = what.cmd(ns, &proposal);
            let mut round = WriteRound::new(self.replicas.len(), self.quorum);
            for idx in 0..self.replicas.len() {
                let Some(reply) = self.call_replica(idx, &cmd) else {
                    continue;
                };
                match what.held_instead(&reply) {
                    Some(held) => round.hear(idx, &proposal, &held, &mut self.memory),
                    None => self.stats.corrupt_replies += 1,
                }
            }
            acked = round.count.acked();
            let outcome = round.outcome();
            self.last_acks = round.acks;
            match outcome {
                Outcome::Reached => {
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

    /// Ship one line to the Network Logger; dropped silently if the logger
    /// is down.
    fn log_best_effort(&mut self, level: &str, msg: String) {
        if let Some(logger) = &self.logger {
            if let Ok(mut link) = self.pool.checkout(logger) {
                let _ = link.call(&ace_core::protocol::log_cmd(level, msg, None));
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

/// A key's name in the version memory: the hash of `ns\0key`.  Two keys that
/// collide share a number that only ever rises — indistinguishable from a
/// stale memory of either, and as safe.
fn slot_of(ns: &str, key: &str) -> u64 {
    crate::replica::key_hash(ns, key).finish()
}

/// The newest version this client has *seen or proposed* of each key.
///
/// Proposing from it is safe whatever it holds: too low costs one refused
/// round (the refusal names the real number), too high leaves a gap in a
/// sequence nobody reads as dense.  The one thing it must never do is hand
/// out the same number twice — `(version, writer)` names one value — so a
/// proposal is remembered before it is sent, and forgetting raises `floor`.
#[derive(Debug, Default)]
struct VersionMemory {
    newest: HashMap<u64, u64>,
    /// Above every version ever forgotten; proposals start above it.
    floor: u64,
}

impl VersionMemory {
    fn knows(&self, slot: u64) -> bool {
        self.newest.contains_key(&slot)
    }

    /// Forget every key.  Safe at any moment: the floor keeps what was
    /// proposed from being proposed again, and a forgotten key's next write
    /// asks the replicas first.
    fn forget(&mut self) {
        self.floor = self.newest.values().copied().fold(self.floor, u64::max);
        self.newest.clear();
    }

    /// Raise what is remembered of `slot` to at least `version`.
    fn note(&mut self, slot: u64, version: u64) {
        if self.newest.len() >= StoreClient::REMEMBERED_KEYS && !self.knows(slot) {
            self.forget();
        }
        let newest = self.newest.entry(slot).or_insert(0);
        *newest = (*newest).max(version);
    }

    /// The next version to propose for `slot` — remembered at once, so it
    /// is never proposed again whether or not its round reaches quorum.
    fn propose(&mut self, slot: u64) -> u64 {
        let seen = self.newest.get(&slot).copied().unwrap_or(0);
        let version = seen.max(self.floor) + 1;
        self.note(slot, version);
        version
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
                let (rows, data) = crate::replica::pack_values(items.iter().zip(versions).map(
                    |((key, data), version)| {
                        let row = vec![
                            Scalar::Str(key.clone()),
                            Scalar::Str(version.to_string()),
                            Scalar::Str(writer.into()),
                        ];
                        (row, data.as_slice())
                    },
                ));
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

/// One round's proposal: `versions` of `keys` (and their memory `slots`),
/// index-aligned, under `writer`.
struct Proposal<'a> {
    writer: &'a str,
    keys: &'a [&'a str],
    slots: &'a [u64],
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
}

/// How a round ended.
enum Outcome {
    /// A quorum acked: the write is committed.
    Reached,
    /// No quorum, but a refusal said what to beat: propose again.
    Refused,
    /// No quorum and nothing learned (replicas down): the write failed.
    Missed,
}

impl WriteRound {
    fn new(replicas: usize, quorum: usize) -> WriteRound {
        WriteRound {
            count: QuorumRound::new(replicas, quorum),
            acks: vec![false; replicas],
            refused: false,
        }
    }

    fn outcome(&self) -> Outcome {
        match (self.count.reached(), self.refused) {
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
        for (key, version, writer) in held {
            let at = proposal.keys.iter().position(|k| k == key);
            if let Some(at) = at {
                memory.note(proposal.slots[at], *version);
            }
            let proposed = at.map(|at| (proposal.versions[at], proposal.writer));
            if proposed != Some((*version, writer.as_str())) {
                exact = false;
                self.refused = true;
            }
        }
        if exact {
            self.count.ack();
            self.acks[idx] = true;
        }
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

/// A model check of the write path: three bare [`DiskImage`]s, two writers,
/// one key, and a seeded interleaving of the steps `StoreClient::write`
/// takes — each replica of the read round, each replica of each proposal
/// round — driven through the client's own pieces ([`VersionMemory`],
/// [`WriteRound::hear`], [`WriteRound::outcome`], [`WRITE_ROUNDS`]) and the
/// replica's ([`DiskImage::propose`]).  The schedule also forgets a
/// writer's memory at any moment, skips a replica (unreachable), delivers a
/// proposal twice (the reply to the first was lost) and loses a reply
/// outright.
///
/// What must hold, whatever the schedule:
///
/// * **an ack took effect** — every `Ok(v)` was held, exactly as `(v,
///   writer, data)`, by a quorum of replicas;
/// * **an ack is readable** — the quorum read straight after `Ok(v)` returns
///   `(v, writer, data)` or something that beats it;
/// * **an ack respects the acks before it** — it beats every write that had
///   returned `Ok` before it began;
/// * **a name names one value** — two different values are never sent under
///   one `(version, writer)`;
/// * **a stale memory is one round, not a failure** — a put nobody disturbs
///   returns `Ok`, however far behind its writer's memory is.
///
/// Fails under "count `applied=false` as an ack" (`hear`: `exact` always
/// true), "reuse a version whose round failed" (`propose` without its
/// `note`), "a refusal does not say what is held" (`DiskImage::propose`
/// answering version 0), and with the rules the client had before it had a
/// memory (every write asks first, every reply is an ack).
#[cfg(test)]
mod race_model {
    use super::*;
    use crate::replica::DiskImage;
    use crate::version::Versioned;
    use rand::rngs::SmallRng;
    use rand::Rng;
    use std::collections::HashSet;

    const NS: &str = "app";
    const KEY: &str = "k";
    const REPLICAS: usize = 3;
    const QUORUM: usize = 2;

    /// `(version, writer, value)` — the model's values are text.
    type Triple = (u64, String, String);

    fn triple(v: Versioned) -> Triple {
        (v.version, v.writer, String::from_utf8(v.data).unwrap())
    }

    fn key() -> (String, String) {
        (NS.to_string(), KEY.to_string())
    }

    struct World {
        disks: Vec<DiskImage>,
        /// Everything each replica has ever held.
        held: Vec<HashSet<Triple>>,
        /// The value sent under each `(version, writer)`.
        sent: HashMap<(u64, String), String>,
        /// `(version, writer)` of every put that returned `Ok`, in order.
        acked: Vec<(u64, String)>,
        /// What happened, for the failure message.
        story: Vec<String>,
    }

    impl World {
        fn new() -> World {
            World {
                disks: (0..REPLICAS).map(|_| DiskImage::new()).collect(),
                held: vec![HashSet::new(); REPLICAS],
                sent: HashMap::new(),
                acked: Vec::new(),
                story: Vec::new(),
            }
        }

        fn require(&self, holds: bool, what: impl FnOnce() -> String) {
            assert!(holds, "{}\n  {}", what(), self.story.join("\n  "));
        }

        /// Replica `idx` receives a proposal; what it holds instead.
        fn deliver(&mut self, idx: usize, writer: &str, version: u64, data: &str) -> Held {
            let name = (version, writer.to_string());
            let first = self.sent.entry(name).or_insert_with(|| data.to_string());
            let first = first.clone();
            self.require(first == data, || {
                format!("`{first}` and `{data}` both went out as ({version}, {writer})")
            });
            let value = Versioned {
                data: data.as_bytes().to_vec(),
                version,
                writer: writer.to_string(),
                deleted: false,
            };
            let refusal = self.disks[idx].propose(key(), value).unwrap();
            let now = self.disks[idx].get(&key()).unwrap();
            self.story.push(format!(
                "r{idx} <- ({version}, {writer}, {data}): {}; holds ({}, {})",
                if refusal.is_none() {
                    "applied"
                } else {
                    "refused"
                },
                now.version,
                now.writer
            ));
            self.held[idx].insert(triple(now));
            refusal
                .into_iter()
                .map(|(version, writer)| (KEY.to_string(), version, writer))
                .collect()
        }

        /// Newest-wins over all three replicas, as `StoreClient::get` reads.
        fn quorum_read(&self) -> Option<Triple> {
            self.disks
                .iter()
                .filter_map(|disk| disk.get(&key()))
                .map(triple)
                .max()
        }

        /// Writer `id`'s put of `data`, begun when `before` puts had
        /// returned, came back `Ok(version)`.
        fn returned_ok(&mut self, id: &str, version: u64, data: &str, before: usize) {
            let this = (version, id.to_string(), data.to_string());
            let holders = self.held.iter().filter(|h| h.contains(&this)).count();
            self.require(holders >= QUORUM, || {
                format!("Ok({version}) by {id} was held by {holders} replicas: a lost write acked")
            });
            let read = self.quorum_read().expect("something is held");
            self.require(
                read == this || (read.0, read.1.as_str()) > (version, id),
                || format!("Ok({version}) by {id} then reads {read:?}"),
            );
            for (v, w) in &self.acked[..before] {
                self.require((version, id) > (*v, w.as_str()), || {
                    format!("Ok({version}) by {id} began after Ok({v}) by {w} had returned")
                });
            }
            self.story.push(format!("{id}: Ok({version})"));
            self.acked.push((version, id.to_string()));
        }
    }

    type Held = Vec<(String, u64, String)>;

    /// One `put` in flight: where `StoreClient::write` is in its loop.
    struct Put {
        data: String,
        /// How many puts had returned `Ok` when this one began.
        before: usize,
        /// The miss arm: next replica to ask, newest version heard so far.
        asking: Option<(usize, u64)>,
        /// The proposal round: version, tally, next replica to send to.
        round: Option<(u64, WriteRound, usize)>,
        rounds: usize,
    }

    struct Writer {
        id: String,
        memory: VersionMemory,
        put: Option<Put>,
        puts: usize,
    }

    impl Writer {
        fn new(id: &str) -> Writer {
            Writer {
                id: id.to_string(),
                memory: VersionMemory::default(),
                put: None,
                puts: 0,
            }
        }

        /// Take the next step of the current put (beginning one if none is
        /// in flight).  `faults` rolls the dice on a skipped replica, a
        /// twice-delivered proposal and a reply that never arrives.
        /// `Some(ok)` when the put returned.
        fn step(&mut self, world: &mut World, faults: Option<&mut SmallRng>) -> Option<bool> {
            let slot = slot_of(NS, KEY);
            let (skip, twice, unheard) = match faults {
                Some(rng) => (rng.gen_bool(0.15), rng.gen_bool(0.15), rng.gen_bool(0.1)),
                None => (false, false, false),
            };
            let put = self.put.get_or_insert_with(|| {
                self.puts += 1;
                Put {
                    data: format!("{}#{}", self.id, self.puts),
                    before: world.acked.len(),
                    asking: (!self.memory.knows(slot)).then_some((0, 0)),
                    round: None,
                    rounds: 0,
                }
            });
            if let Some((idx, newest)) = &mut put.asking {
                if !skip {
                    let held = world.disks[*idx].get(&key()).map_or(0, |v| v.version);
                    *newest = (*newest).max(held);
                }
                *idx += 1;
                if *idx == REPLICAS {
                    self.memory.note(slot, *newest);
                    put.asking = None;
                }
                return None;
            }
            let (version, round, idx) = put.round.get_or_insert_with(|| {
                let version = self.memory.propose(slot);
                (version, WriteRound::new(REPLICAS, QUORUM), 0)
            });
            if !skip {
                if twice {
                    world.deliver(*idx, &self.id, *version, &put.data);
                }
                let held = world.deliver(*idx, &self.id, *version, &put.data);
                let proposal = Proposal {
                    writer: &self.id,
                    keys: &[KEY],
                    slots: &[slot],
                    versions: &[*version],
                };
                if !unheard {
                    round.hear(*idx, &proposal, &held, &mut self.memory);
                }
            }
            *idx += 1;
            if *idx < REPLICAS {
                return None;
            }
            put.rounds += 1;
            let ok = match round.outcome() {
                Outcome::Reached => {
                    world.returned_ok(&self.id, *version, &put.data, put.before);
                    true
                }
                Outcome::Refused if put.rounds < WRITE_ROUNDS => {
                    put.round = None;
                    return None;
                }
                Outcome::Refused | Outcome::Missed => {
                    world.story.push(format!("{}: QuorumFailed", self.id));
                    false
                }
            };
            self.put = None;
            Some(ok)
        }
    }

    fn run(seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut world = World::new();
        world.story.push(format!("seed {seed}"));
        let mut writers = [Writer::new("wa"), Writer::new("wb")];
        // Some schedules take turns, some let one writer run far ahead.
        let lean = [0.5, 0.85, 0.15][(seed % 3) as usize];
        let busy = |w: &Writer| w.puts < 6 || w.put.is_some();
        while writers.iter().any(busy) {
            let w = &mut writers[usize::from(rng.gen_bool(lean))];
            if !busy(w) {
                continue;
            }
            if rng.gen_bool(0.03) {
                world.story.push(format!("{}: forgets", w.id));
                w.memory.forget();
            }
            w.step(&mut world, Some(&mut rng));
        }
        // Whatever each remembers by now, an undisturbed put lands.
        for w in &mut writers {
            let ok = loop {
                if let Some(ok) = w.step(&mut world, None) {
                    break ok;
                }
            };
            world.require(ok, || format!("{}'s undisturbed put failed", w.id));
        }
    }

    #[test]
    fn every_ack_took_effect_and_no_name_names_two_values() {
        for seed in 0..3000 {
            run(seed);
        }
    }
}
