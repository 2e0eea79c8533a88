//! The store client: quorum writes, newest-wins reads, read repair.
//!
//! "If for any reason, one or two of the servers fail or crash, ACE
//! services may still access the stored information within them" (§6):
//! reads succeed while *any* replica answers; writes require a majority so
//! a partitioned minority can never diverge silently.

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
    stats: ClientStats,
    /// Network Logger address for degraded-write warnings.
    logger: Option<Addr>,
}

impl StoreClient {
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

    fn write(
        &mut self,
        cmd_name: &str,
        ns: &str,
        key: &str,
        data: &[u8],
    ) -> Result<u64, StoreError> {
        let version = self.newest_version(ns, key) + 1;
        let mut cmd = CmdLine::new(cmd_name)
            .arg("ns", ns)
            .arg("key", Value::Str(key.into()))
            .arg("version", version as i64)
            .arg("writer", Value::Str(self.writer_id.clone()));
        if cmd_name == "psPut" {
            cmd.push_arg("data", data);
        }
        self.commit(&cmd, ns, key)?;
        Ok(version)
    }

    /// The quorum round every write ends in: `cmd` to every replica, the
    /// acks remembered for the sharded client's lease check, the counters,
    /// and a warning to the Network Logger when the write committed with
    /// reduced redundancy.  `what` names the written key(s) in that warning.
    fn commit(&mut self, cmd: &CmdLine, ns: &str, what: &str) -> Result<(), StoreError> {
        let mut round = QuorumRound::new(self.replicas.len(), self.quorum);
        let mut acks = vec![false; self.replicas.len()];
        for (idx, ack) in acks.iter_mut().enumerate() {
            if self.call_replica(idx, cmd).is_some() {
                round.ack();
                *ack = true;
            }
        }
        self.last_acks = acks;
        if !round.reached() {
            self.stats.quorum_failures += 1;
            return Err(StoreError::QuorumFailed {
                acked: round.acked(),
                quorum: self.quorum,
            });
        }
        self.stats.writes += 1;
        if round.degraded() {
            self.stats.degraded_writes += 1;
            let msg = format!(
                "degraded {} {ns}/{what}: {}/{} replicas acked (quorum {})",
                cmd.name(),
                round.acked(),
                self.replicas.len(),
                self.quorum
            );
            self.log_best_effort("warn", msg);
        }
        Ok(())
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

    /// Write a value (read-max-plus-one versioning, majority quorum).
    pub fn put(&mut self, ns: &str, key: &str, data: &[u8]) -> Result<u64, StoreError> {
        self.write("psPut", ns, key, data)
    }

    /// Write a run of values to one namespace in a single quorum round.
    /// One `psPutBatch` command per replica carries every record, and the
    /// replica commits the run through one WAL batch — the fsync is paid
    /// once per replica, not once per record.  Versions are still
    /// read-max-plus-one, with the read half amortised into one digest of
    /// the batch's own keys per replica.  Returns the assigned versions (index-aligned
    /// with `items`, which should not repeat keys); `Err` means *no*
    /// record may be treated as stored.
    pub fn put_many(
        &mut self,
        ns: &str,
        items: &[(String, Vec<u8>)],
    ) -> Result<Vec<u64>, StoreError> {
        if items.is_empty() {
            return Ok(Vec::new());
        }
        let mut newest: HashMap<&str, u64> = items.iter().map(|(k, _)| (k.as_str(), 0)).collect();
        // Key-scoped digest: each replica reports the versions of this
        // batch's keys only, so the read half costs O(batch), not
        // O(keyspace), however much the replica holds.
        let keys: Vec<Scalar> = items.iter().map(|(k, _)| Scalar::Str(k.clone())).collect();
        let digest = CmdLine::new("psDigest")
            .arg("ns", ns)
            .arg("keys", Value::Vector(keys));
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
        let versions: Vec<u64> = items.iter().map(|(k, _)| newest[k.as_str()] + 1).collect();
        let (rows, data) = crate::replica::pack_values(items.iter().zip(&versions).map(
            |((key, data), version)| {
                let row = vec![
                    Scalar::Str(key.clone()),
                    Scalar::Str(version.to_string()),
                    Scalar::Str(self.writer_id.clone()),
                ];
                (row, data.as_slice())
            },
        ));
        let cmd = CmdLine::new("psPutBatch")
            .arg("ns", ns)
            .arg("items", Value::Array(rows))
            .arg("data", data);
        self.commit(&cmd, ns, &format!("batch[{} records]", items.len()))?;
        self.stats.batch_writes += 1;
        self.stats.batched_records += items.len() as u64;
        Ok(versions)
    }

    /// Delete a key (tombstone write, majority quorum).
    pub fn delete(&mut self, ns: &str, key: &str) -> Result<u64, StoreError> {
        self.write("psDelete", ns, key, &[])
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
