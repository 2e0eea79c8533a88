//! The directory's rules, stated once (§2.4).
//!
//! A directory is a [`GroupMap`] keyed by service name: the bootstrap ASD
//! is the map of one group of one replica, the sharded plane the map its
//! replicas serve under `shardMap`.  Every directory user — the daemon
//! shell's start-up registration, its lease renewal and goodbye,
//! [`crate::ServiceCtx::lookup`], the Supervisor's probe,
//! [`crate::FailoverClient`] and the sharded client — goes through the
//! functions below and hands them its own way of sending one command to one
//! replica (an [`Ask`]): its link, its retry policy and its `deadline=` stay
//! its own, and no frame differs from what that caller sent before.
//!
//! * **Writes** go to every replica of the group owning the name and
//!   succeed on a majority ([`crate::quorum`]).  `E_BADSTATE` — a newer
//!   incarnation holds the name — outranks the count: a fenced writer
//!   stops, it does not win by outvoting the replica that knows better.
//!   A round that misses its quorum fails with the error of the last
//!   replica that did not ack.
//! * **Renewal repairs.**  A replica that answers a renewal `E_NOTFOUND`
//!   restarted without the lease; it is re-registered on the spot — the
//!   directory's anti-entropy, driven by the writers that own the data.
//! * **Deregistration** counts `E_NOTFOUND` as an ack: the name is already
//!   gone there, which is the end state asked for.
//! * **Reads** follow [`lookup_any_replica`]: a name is asked of the group
//!   owning it, a class or room query of every group, merged by name.

use crate::client::{ClientError, ServiceClient};
use crate::placement::GroupMap;
use crate::protocol::{self, ServiceEntry};
use crate::quorum::QuorumRound;
use ace_lang::{CmdLine, ErrorCode};
use ace_net::{Addr, HostId, SimNet};
use ace_security::keys::KeyPair;
use std::collections::HashSet;
use std::time::Duration;

/// One command to one directory replica, answered by the caller's own link
/// and policy.
pub type Ask<'a> = dyn FnMut(&Addr, &CmdLine) -> Answer + 'a;

/// A replica's reply, or why there is none.
pub type Answer = Result<CmdLine, ClientError>;

fn unavailable(msg: &str) -> ClientError {
    ClientError::Service {
        code: ErrorCode::Unavailable,
        msg: msg.into(),
    }
}

const NO_REPLICA: &str = "no directory replica configured";

/// One quorum write of `cmd` to the group owning `name`.  `acked` judges
/// each replica's answer (and may ask that replica again); `E_BADSTATE`
/// never reaches it.
fn quorum_write(
    ask: &mut Ask<'_>,
    map: &GroupMap,
    name: &str,
    cmd: &CmdLine,
    mut acked: impl FnMut(&mut Ask<'_>, &Addr, Answer) -> Result<(), ClientError>,
) -> Result<(), ClientError> {
    if map.count() == 0 {
        return Err(unavailable("empty directory map"));
    }
    let group = map.owner(name.as_bytes());
    let replicas = map.replicas(group);
    let mut round = QuorumRound::new(replicas.len(), map.quorum(group));
    let (mut fenced, mut missed) = (None, None);
    for addr in replicas {
        match ask(addr, cmd) {
            Err(err) if err.code() == Some(ErrorCode::BadState) => fenced = Some(err),
            reply => match acked(ask, addr, reply) {
                Ok(()) => round.ack(),
                Err(err) => missed = Some(err),
            },
        }
    }
    match fenced {
        Some(err) => Err(err),
        None if round.reached() => Ok(()),
        None => Err(missed.unwrap_or_else(|| unavailable(NO_REPLICA))),
    }
}

/// Register `entry` at `incarnation` (Fig. 9 step 3).  Returns the lease a
/// replica granted, if one said.
pub fn register(
    ask: &mut Ask<'_>,
    map: &GroupMap,
    entry: &ServiceEntry,
    incarnation: u64,
) -> Result<Option<Duration>, ClientError> {
    let cmd = protocol::register_cmd(entry, incarnation);
    let mut lease = None;
    quorum_write(ask, map, &entry.name, &cmd, |_, _, reply| {
        let granted = reply?.get_int("lease").map(|ms| ms.max(0) as u64);
        lease = granted.map(Duration::from_millis).or(lease);
        Ok(())
    })?;
    Ok(lease)
}

/// Renew `entry`'s lease, re-registering it on every replica that answers
/// `E_NOTFOUND`.  Returns how many replicas were repaired.
pub fn renew(
    ask: &mut Ask<'_>,
    map: &GroupMap,
    entry: &ServiceEntry,
    incarnation: u64,
) -> Result<usize, ClientError> {
    let cmd = CmdLine::new("renewLease")
        .arg("name", entry.name.as_str())
        .arg("incarnation", incarnation);
    let mut repaired = 0;
    let mut repair = |ask: &mut Ask<'_>, addr: &Addr, reply: Answer| match reply {
        Err(err) if err.code() == Some(ErrorCode::NotFound) => {
            ask(addr, &protocol::register_cmd(entry, incarnation))?;
            repaired += 1;
            Ok(())
        }
        reply => reply.map(drop),
    };
    quorum_write(ask, map, &entry.name, &cmd, &mut repair)?;
    Ok(repaired)
}

/// Remove `name` from the directory (a graceful stop).
pub fn deregister(ask: &mut Ask<'_>, map: &GroupMap, name: &str) -> Result<(), ClientError> {
    let cmd = CmdLine::new("removeService").arg("name", name);
    quorum_write(ask, map, name, &cmd, |_, _, reply| match reply {
        Err(err) if err.code() == Some(ErrorCode::NotFound) => Ok(()),
        reply => reply.map(drop),
    })
}

/// Look services up by any combination of name, class and room.  A name is
/// asked of the group owning it; anything else of every group, and the
/// answers are merged by name, sorted — a fan-out fails if any group has
/// no replica that answers, because a silently partial directory is worse
/// than an error.  Each group is read from `start` under
/// [`lookup_any_replica`].  Returns the entries and the shortest `lease`
/// (ms) an answering replica stamped.
pub fn lookup(
    ask: &mut Ask<'_>,
    map: &GroupMap,
    start: usize,
    name: Option<&str>,
    class: Option<&str>,
    room: Option<&str>,
) -> Result<(Vec<ServiceEntry>, Option<i64>), ClientError> {
    if map.count() == 0 {
        return Err(unavailable("empty directory map"));
    }
    let cmd = protocol::lookup_cmd(name, class, room);
    if let Some(name) = name {
        let group = map.owner(name.as_bytes());
        return lookup_any_replica(ask, map.replicas(group), start, &cmd);
    }
    let mut partials = Vec::with_capacity(map.count());
    let mut lease: Option<i64> = None;
    for group in 0..map.count() {
        let (entries, granted) = lookup_any_replica(ask, map.replicas(group), start, &cmd)?;
        lease = lease.into_iter().chain(granted).min();
        partials.push(entries);
    }
    // Smallest-set-first: the dedup set stays small for as long as it can.
    partials.sort_by_key(Vec::len);
    let mut seen: HashSet<String> = HashSet::new();
    let mut merged: Vec<ServiceEntry> = partials
        .into_iter()
        .flatten()
        .filter(|entry| seen.insert(entry.name.clone()))
        .collect();
    merged.sort_by(|a, b| a.name.cmp(&b.name));
    Ok((merged, lease))
}

/// One `lookup` against one replica group — the any-replica read rule.
/// Replicas are asked in order from `start` (wrapping) and the first
/// well-formed answer wins, with one exception: a lookup by **name** that
/// comes back empty falls through to the remaining replicas, and is empty
/// only when every reachable replica agrees.  A replica that restarted
/// without its leases is repaired by the next renewal, not before; until
/// then its empty answer must not unregister a name the rest of its group
/// still holds.  Class and room queries take the first answer as it is:
/// empty is their common case.
///
/// Returns the entries and the `lease` (ms) the answering replica stamped.
pub fn lookup_any_replica(
    ask: &mut Ask<'_>,
    replicas: &[Addr],
    start: usize,
    cmd: &CmdLine,
) -> Result<(Vec<ServiceEntry>, Option<i64>), ClientError> {
    let by_name = cmd.get("name").is_some();
    let n = replicas.len();
    let mut empty = None;
    let mut last_err = None;
    for addr in replicas.iter().cycle().skip(start % n.max(1)).take(n) {
        let answer = ask(addr, cmd).and_then(|reply| {
            Ok((
                protocol::entries_from_reply(&reply)?,
                reply.get_int("lease"),
            ))
        });
        match answer {
            Ok(answer) if by_name && answer.0.is_empty() => empty = Some(answer),
            Ok(answer) => return Ok(answer),
            Err(err) => last_err = Some(err),
        }
    }
    match (empty, last_err) {
        (Some(answer), _) => Ok(answer),
        (None, Some(err)) => Err(err),
        (None, None) => Err(unavailable(NO_REPLICA)),
    }
}

/// Subscribe the daemon `listener_name` at `listener_addr` to the
/// `serviceExpired` event of **every** replica of `map`, as
/// `onServiceExpired` notifications — how a Supervisor or a
/// [`crate::ResolutionInvalidator`] hears of a lease lapse anywhere in the
/// directory.  Each replica is dialed from `from_host` as `identity`.
/// Returns how many replicas accepted; an error only when none did.
pub fn subscribe_expiry(
    net: &SimNet,
    from_host: &HostId,
    identity: &KeyPair,
    map: &GroupMap,
    listener_name: &str,
    listener_addr: &Addr,
) -> Result<usize, ClientError> {
    let cmd = protocol::subscribe_cmd(
        "serviceExpired",
        listener_name,
        listener_addr,
        "onServiceExpired",
    );
    let mut subscribed = 0;
    let mut last_err = None;
    for replica in map.all_replicas() {
        let attempt = ServiceClient::connect(net, from_host, replica.clone(), identity)
            .and_then(|mut client| client.call_ok(&cmd));
        match attempt {
            Ok(()) => subscribed += 1,
            Err(err) => last_err = Some(err),
        }
    }
    match last_err {
        Some(err) if subscribed == 0 => Err(err),
        _ => Ok(subscribed),
    }
}
