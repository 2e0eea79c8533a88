//! The chaos harness: what every chaos suite shares, beside [`crate::fault`].
//!
//! * **Seeds.**  [`env_seeds`] runs a suite once per seed `CHAOS_SEEDS`
//!   lists (comma-separated, decimal or `0x`-hex), and is the one reader of
//!   that variable.
//! * **One poll.**  [`poll_until`] asks a condition at a cadence until it
//!   holds or a deadline passes, sleeping on the net's [`Clock`];
//!   [`await_true`] is the same wait, failing the test at the deadline.
//! * **A history.**  [`History`] records what a suite's clients did: for
//!   each operation its invoke and complete instants, read from the net's
//!   [`Clock`], the client, the key (or a daemon's name), the [`Act`] — the
//!   name of the value written or read — and its [`Outcome`].
//! * **Two checkers** over it.  [`History::check_registers`] holds every key
//!   to be a register of put, delete and get whose operations are
//!   linearizable, with the store's one relaxation for a leased read.
//!   [`History::check_incarnations`] holds what a name answers at never to
//!   go down in real-time order, and to rise across a restart.
//!
//! # The register check
//!
//! It is Wing & Gong's search ("Testing and verifying concurrent objects",
//! 1993), run per key: a register's history is linearizable exactly when
//! each key's is, so the search never meets two keys at once.  The
//! polynomial check for a register whose every write has a unique name
//! does not apply: a delete leaves the key absent, and so does every other
//! delete and the key's start, so "absent" is one value written many times
//! and a read of it does not name its write.  The search carries two
//! prunings, both sound for a register: a read that the current value
//! satisfies is placed at once (placing it later only removes options),
//! and an ambiguous write is placed only where it changes the value.  An
//! ambiguous put whose value no read returned is dropped: a linearization
//! that contains it can leave it out, since no read sits between it and
//! the next write.
//!
//! What the checker holds is DESIGN.md § Store scale-out's contract:
//!
//! * an `Ok` put, delete or non-leased get is linearizable;
//! * a write that failed is [`Outcome::Ambiguous`]: it may take effect at
//!   any point after its invoke (anti-entropy may land it later), or never;
//! * a get the read lease served may miss a *different* client's write for
//!   at most the lease's TTL, passed in as `lease_ttl`: it may be placed as
//!   early as `lease_ttl` before its invoke, but never before its own
//!   client's last write of the key that completed before it was invoked.

use crate::Clock;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Run `run` once for each seed the `CHAOS_SEEDS` environment variable
/// lists, naming each on stderr; nothing when it is unset.  `suite` names
/// the suite in that line.
pub fn env_seeds(suite: &str, mut run: impl FnMut(u64)) {
    let Ok(spec) = std::env::var("CHAOS_SEEDS") else {
        return;
    };
    for seed in parse_seeds(&spec) {
        eprintln!("{suite}: running env seed {seed:#x}");
        run(seed);
    }
}

/// The seeds of a `CHAOS_SEEDS` value; panics on one it cannot read.
fn parse_seeds(spec: &str) -> Vec<u64> {
    let parse = |token: &str| {
        match token.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => token.parse(),
        }
        .unwrap_or_else(|_| panic!("CHAOS_SEEDS: unparsable seed `{token}`"))
    };
    spec.split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .map(parse)
        .collect()
}

/// Ask `cond` every `every` until it holds (`true`) or `within` has passed
/// since the first ask (`false`), sleeping on `clock` in between.
pub fn poll_until(
    clock: &Clock,
    within: Duration,
    every: Duration,
    mut cond: impl FnMut() -> bool,
) -> bool {
    let deadline = clock.now() + within;
    loop {
        if cond() {
            return true;
        }
        if clock.now() >= deadline {
            return false;
        }
        clock.sleep(every);
    }
}

/// [`poll_until`] every 10 ms, failing with "timed out waiting for
/// `what`" if `cond` does not hold within `within`.
pub fn await_true(clock: &Clock, what: &str, within: Duration, cond: impl FnMut() -> bool) {
    let held = poll_until(clock, within, Duration::from_millis(10), cond);
    assert!(held, "timed out waiting for {what}");
}

/// What one operation did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Act {
    /// Wrote the value named `.0`.
    Put(String),
    /// Deleted the key: it reads absent after.
    Delete,
    /// Read the key: the name of the value returned (`None`: absent), and
    /// whether a read lease served it.
    Get { read: Option<String>, leased: bool },
    /// Found the name answering at this incarnation (or at any count the
    /// name promises never to lower).
    Incarnation(u64),
    /// Restarted the name: what answers after answers above what answered
    /// before.
    Restart,
}

/// How an operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// It completed, and its result is what [`Act`] says.
    Ok,
    /// It had no effect and returned nothing (a read that got no answer).
    Failed,
    /// It may have taken effect, at any point after its invoke, or never (a
    /// write that reported failure).
    Ambiguous,
}

/// One recorded operation.
#[derive(Debug, Clone)]
pub struct Op {
    pub client: usize,
    /// The key (register check) or the daemon's name (incarnation check).
    pub key: String,
    pub act: Act,
    pub outcome: Outcome,
    pub invoked: Instant,
    pub completed: Instant,
}

/// What a checker found wrong, with the operations that show it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation(pub String);

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Violation {}

/// What a passing register check covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checked {
    pub keys: usize,
    /// Operations the search ordered: failed reads, and ambiguous puts no
    /// read returned, are left out.
    pub ops: usize,
    pub leased_reads: usize,
    /// The least lease bound the history needs, to the millisecond: how far
    /// behind the most stale leased read was.
    pub staleness: Duration,
}

/// The operations a chaos run's clients made, shared by every client thread.
pub struct History {
    clock: Clock,
    origin: Instant,
    ops: Mutex<Vec<Op>>,
}

impl History {
    /// An empty history stamped by `clock` (the net's).
    pub fn new(clock: Clock) -> History {
        let origin = clock.now();
        History {
            clock,
            origin,
            ops: Mutex::new(Vec::new()),
        }
    }

    /// The instant an operation is invoked: take it before the call.
    pub fn invoke(&self) -> Instant {
        self.clock.now()
    }

    /// Record an operation invoked at `invoked` as completing now.
    pub fn record(&self, invoked: Instant, client: usize, key: &str, act: Act, outcome: Outcome) {
        let completed = self.clock.now();
        self.push(Op {
            client,
            key: key.to_string(),
            act,
            outcome,
            invoked,
            completed,
        });
    }

    /// Run a write and record it: [`Outcome::Ambiguous`] when `run` reports
    /// failure.  Returns what `run` did.
    pub fn write(&self, client: usize, key: &str, act: Act, run: impl FnOnce() -> bool) -> bool {
        let invoked = self.invoke();
        let ok = run();
        let outcome = if ok { Outcome::Ok } else { Outcome::Ambiguous };
        self.record(invoked, client, key, act, outcome);
        ok
    }

    /// Record an operation with both its instants given.
    fn push(&self, op: Op) {
        self.ops
            .lock()
            .expect("a history recorder panicked")
            .push(op);
    }

    /// Everything recorded so far, in completion order.
    pub fn ops(&self) -> Vec<Op> {
        self.ops
            .lock()
            .expect("a history recorder panicked")
            .clone()
    }

    /// Every key's put, delete and get operations form a linearizable
    /// register, a leased get allowed to trail another client's write by
    /// up to `lease_ttl` (see the module documentation).
    pub fn check_registers(&self, lease_ttl: Duration) -> Result<Checked, Violation> {
        let ops = self.ops();
        let mut by_key: BTreeMap<&str, Vec<&Op>> = BTreeMap::new();
        for op in &ops {
            if matches!(op.act, Act::Put(_) | Act::Delete | Act::Get { .. }) {
                by_key.entry(op.key.as_str()).or_default().push(op);
            }
        }
        let mut checked = Checked {
            keys: by_key.len(),
            ops: 0,
            leased_reads: 0,
            staleness: Duration::ZERO,
        };
        for (key, key_ops) in &by_key {
            let register = Register::new(self.origin, key, key_ops)?;
            register.check(lease_ttl)?;
            checked.ops += register.entries.len();
            checked.leased_reads += register.leased.len();
            checked.staleness = checked.staleness.max(register.staleness(lease_ttl));
        }
        Ok(checked)
    }

    /// No name's incarnation goes down in real-time order: an observation
    /// invoked after another completed reads at least as high.  And across
    /// a [`Act::Restart`] it rises: every observation invoked after the
    /// restart completed reads above every one completed before it was
    /// invoked.  Returns the number of names checked.
    pub fn check_incarnations(&self) -> Result<usize, Violation> {
        let ops = self.ops();
        let mut by_name: BTreeMap<&str, Vec<&Op>> = BTreeMap::new();
        for op in &ops {
            if matches!(op.act, Act::Incarnation(_) | Act::Restart) && op.outcome == Outcome::Ok {
                by_name.entry(op.key.as_str()).or_default().push(op);
            }
        }
        for (name, name_ops) in &by_name {
            let mut seen: Vec<(Instant, u64, &Op)> = name_ops
                .iter()
                .filter_map(|op| match op.act {
                    Act::Incarnation(at) => Some((op.completed, at, *op)),
                    _ => None,
                })
                .collect();
            seen.sort_by_key(|&(completed, _, _)| completed);
            // The highest incarnation completed by each prefix.
            let mut highest: Vec<(u64, &Op)> = Vec::with_capacity(seen.len());
            for &(_, at, op) in &seen {
                let best = match highest.last() {
                    Some(&(top, top_op)) if top >= at => (top, top_op),
                    _ => (at, op),
                };
                highest.push(best);
            }
            let before = |t: Instant| {
                let n = seen.partition_point(|&(completed, _, _)| completed < t);
                n.checked_sub(1).map(|i| highest[i])
            };
            for &(_, at, op) in &seen {
                if let Some((_, top_op)) = before(op.invoked).filter(|&(top, _)| top > at) {
                    return Err(Violation(format!(
                        "{name}: incarnation went down: {} after {}",
                        self.show(op),
                        self.show(top_op)
                    )));
                }
            }
            for restart in name_ops.iter().filter(|op| op.act == Act::Restart) {
                let Some((top, top_op)) = before(restart.invoked) else {
                    continue;
                };
                let after = seen
                    .iter()
                    .find(|&&(_, at, op)| op.invoked > restart.completed && at <= top);
                if let Some(&(_, _, op)) = after {
                    return Err(Violation(format!(
                        "{name}: incarnation did not rise across {}: {} after {}",
                        self.show(restart),
                        self.show(op),
                        self.show(top_op)
                    )));
                }
            }
        }
        Ok(by_name.len())
    }

    fn show(&self, op: &Op) -> String {
        show(self.origin, op)
    }
}

/// An operation as a violation prints it: client, act, outcome and its
/// interval in milliseconds from the history's start.
fn show(origin: Instant, op: &Op) -> String {
    let ms = |t: Instant| t.saturating_duration_since(origin).as_secs_f64() * 1e3;
    let act = match &op.act {
        Act::Put(name) => format!("put {name}"),
        Act::Delete => "delete".to_string(),
        Act::Get { read, leased } => format!(
            "{}get -> {}",
            if *leased { "leased " } else { "" },
            read.as_deref().unwrap_or("absent")
        ),
        Act::Incarnation(at) => format!("at incarnation {at}"),
        Act::Restart => "restart".to_string(),
    };
    format!(
        "client {} {act} {:?} [{:.3}, {:.3}] ms",
        op.client,
        op.outcome,
        ms(op.invoked),
        ms(op.completed)
    )
}

/// A value as the search holds it: 0 is absent, each written name a number.
type Value = u32;
const ABSENT: Value = 0;
/// The completion time of an ambiguous write: never.
const NEVER: u64 = u64::MAX;

/// One key's operations as the search reads them, in nanoseconds from the
/// history's start, sorted by invoke.
struct Register<'a> {
    key: &'a str,
    origin: Instant,
    entries: Vec<Entry<'a>>,
    /// Indices of the leased reads, with the completion of their client's
    /// last write of the key before them (0: none).
    leased: Vec<(usize, u64)>,
}

#[derive(Clone, Copy)]
struct Entry<'a> {
    op: &'a Op,
    call: u64,
    ret: u64,
    /// `Some(v)`: a write of `v`; `None`: a read of `read`.
    write: Option<Value>,
    read: Value,
    /// May be left out (an ambiguous write).
    optional: bool,
}

impl<'a> Register<'a> {
    fn new(origin: Instant, key: &'a str, ops: &[&'a Op]) -> Result<Register<'a>, Violation> {
        let ns = |t: Instant| t.saturating_duration_since(origin).as_nanos() as u64;
        let mut names: HashMap<&str, Value> = HashMap::new();
        for op in ops {
            if let Act::Put(name) = &op.act {
                let next = names.len() as Value + 1;
                names.entry(name.as_str()).or_insert(next);
            }
        }
        let read_names: HashSet<&str> = ops
            .iter()
            .filter(|op| op.outcome == Outcome::Ok)
            .filter_map(|op| match &op.act {
                Act::Get {
                    read: Some(name), ..
                } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        let mut entries = Vec::new();
        for op in ops {
            let ambiguous = op.outcome == Outcome::Ambiguous;
            let (write, read) = match (&op.act, op.outcome) {
                (Act::Get { .. }, Outcome::Failed | Outcome::Ambiguous) => continue,
                (Act::Put(_) | Act::Delete, Outcome::Failed) => continue,
                (Act::Put(name), _) if ambiguous && !read_names.contains(name.as_str()) => continue,
                (Act::Put(name), _) => (Some(names[name.as_str()]), ABSENT),
                (Act::Delete, _) => (Some(ABSENT), ABSENT),
                (Act::Get { read: None, .. }, _) => (None, ABSENT),
                (
                    Act::Get {
                        read: Some(name), ..
                    },
                    _,
                ) => match names.get(name.as_str()) {
                    Some(&v) => (None, v),
                    None => {
                        return Err(Violation(format!(
                            "key {key}: a read of {name}, which nobody wrote: {}",
                            show(origin, op)
                        )))
                    }
                },
                _ => continue,
            };
            entries.push(Entry {
                op,
                call: ns(op.invoked),
                ret: if ambiguous { NEVER } else { ns(op.completed) },
                write,
                read,
                optional: ambiguous,
            });
        }
        entries.sort_by_key(|e| (e.call, e.ret));
        let leased = (0..entries.len())
            .filter(|&i| matches!(entries[i].op.act, Act::Get { leased: true, .. }))
            .map(|i| {
                let own = entries
                    .iter()
                    .filter(|w| w.write.is_some() && !w.optional)
                    .filter(|w| w.op.client == entries[i].op.client && w.ret < entries[i].call)
                    .map(|w| w.ret + 1)
                    .max()
                    .unwrap_or(0);
                (i, own)
            })
            .collect();
        Ok(Register {
            key,
            origin,
            entries,
            leased,
        })
    }

    /// The entries with each leased read's invoke moved back by `ttl`, but
    /// not before its own client's last write.
    fn relaxed(&self, ttl: Duration) -> Vec<Entry<'a>> {
        let mut entries = self.entries.clone();
        for &(i, own) in &self.leased {
            let e = &mut entries[i];
            e.call = e.call.saturating_sub(ttl.as_nanos() as u64).max(own);
        }
        entries.sort_by_key(|e| (e.call, e.ret));
        entries
    }

    fn check(&self, ttl: Duration) -> Result<(), Violation> {
        let entries = self.relaxed(ttl);
        match search(&entries) {
            Ok(()) => Ok(()),
            Err(stuck) => {
                let at = &entries[stuck];
                // What it follows or overlaps: the last few to start before
                // it ended.
                let mut near: Vec<&Entry> = entries.iter().filter(|e| e.call <= at.ret).collect();
                near.sort_by_key(|e| e.op.invoked);
                let skip = near.len().saturating_sub(12);
                let lines: String = near[skip..]
                    .iter()
                    .map(|e| format!("\n  {}", show(self.origin, e.op)))
                    .collect();
                Err(Violation(format!(
                    "key {}: not linearizable (lease bound {ttl:?}): no order places {}; \
                     the operations up to it:{lines}",
                    self.key,
                    show(self.origin, at.op),
                )))
            }
        }
    }

    /// The least bound, to the millisecond, under which the register
    /// passes; `ttl` itself when only that passes.  Passing only grows
    /// with the bound, so bisection finds it.
    fn staleness(&self, ttl: Duration) -> Duration {
        if self.leased.is_empty() || search(&self.relaxed(Duration::ZERO)).is_ok() {
            return Duration::ZERO;
        }
        let (mut lo, mut hi) = (0u64, ttl.as_millis() as u64);
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            match search(&self.relaxed(Duration::from_millis(mid))) {
                Ok(()) => hi = mid,
                Err(_) => lo = mid,
            }
        }
        Duration::from_millis(hi)
    }
}

/// Wing & Gong's search over `entries` (sorted by call): is there an order
/// of them, each placed between its call and its return, in which every
/// read returns the last value written before it (absent at the start),
/// and which places every entry that is not optional?  On failure, the
/// index of the first entry (by call) that the deepest order got stuck
/// before.
fn search(entries: &[Entry]) -> Result<(), usize> {
    let n = entries.len();
    let words = n.div_ceil(64);
    let is_set = |done: &[u64], i: usize| done[i / 64] & (1 << (i % 64)) != 0;
    let mut seen: HashSet<(Vec<u64>, Value)> = HashSet::new();
    let mut stack = vec![(vec![0u64; words], ABSENT)];
    let (mut deepest, mut stuck) = (0usize, 0usize);
    while let Some((mut done, value)) = stack.pop() {
        // Place every read the value satisfies, as soon as it may go.
        loop {
            let bound = next_bound(entries, &done);
            let mut placed = false;
            for (i, e) in entries.iter().enumerate() {
                if e.call >= bound {
                    break;
                }
                if e.write.is_none() && e.read == value && !is_set(&done, i) {
                    done[i / 64] |= 1 << (i % 64);
                    placed = true;
                }
            }
            if !placed {
                break;
            }
        }
        let first_open = (0..n).find(|&i| !is_set(&done, i) && !entries[i].optional);
        let Some(first_open) = first_open else {
            return Ok(());
        };
        let placed = (0..n).filter(|&i| is_set(&done, i)).count();
        if placed >= deepest {
            (deepest, stuck) = (placed, first_open);
        }
        let bound = next_bound(entries, &done);
        for (i, e) in entries.iter().enumerate() {
            if e.call >= bound {
                break;
            }
            let Some(v) = e.write else { continue };
            if is_set(&done, i) || (e.optional && v == value) {
                continue;
            }
            let mut next = done.clone();
            next[i / 64] |= 1 << (i % 64);
            if seen.insert((next.clone(), v)) {
                stack.push((next, v));
            }
        }
    }
    Err(stuck)
}

/// The earliest return among the entries not yet placed: only an entry
/// called before it may be placed next.
fn next_bound(entries: &[Entry], done: &[u64]) -> u64 {
    entries
        .iter()
        .enumerate()
        .filter(|&(i, _)| done[i / 64] & (1 << (i % 64)) == 0)
        .map(|(_, e)| e.ret)
        .min()
        .unwrap_or(NEVER)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TTL: Duration = Duration::from_secs(2);

    /// A history built by hand: operations at millisecond offsets.
    struct Built {
        history: History,
        start: Instant,
    }

    impl Built {
        fn new() -> Built {
            let clock = Clock::real();
            let history = History::new(clock);
            let start = history.origin;
            Built { history, start }
        }

        fn push(
            self,
            client: usize,
            key: &str,
            act: Act,
            outcome: Outcome,
            span: (u64, u64),
        ) -> Built {
            let at = |ms: u64| self.start + Duration::from_millis(ms);
            self.history.push(Op {
                client,
                key: key.into(),
                act,
                outcome,
                invoked: at(span.0),
                completed: at(span.1),
            });
            self
        }

        fn op(self, client: usize, act: Act, outcome: Outcome, from: u64, to: u64) -> Built {
            self.push(client, "k", act, outcome, (from, to))
        }

        fn put(self, client: usize, name: &str, from: u64, to: u64) -> Built {
            self.op(client, Act::Put(name.into()), Outcome::Ok, from, to)
        }

        fn get(self, client: usize, read: Option<&str>, from: u64, to: u64) -> Built {
            let act = Act::Get {
                read: read.map(str::to_string),
                leased: false,
            };
            self.op(client, act, Outcome::Ok, from, to)
        }

        fn leased(self, client: usize, read: Option<&str>, from: u64, to: u64) -> Built {
            let act = Act::Get {
                read: read.map(str::to_string),
                leased: true,
            };
            self.op(client, act, Outcome::Ok, from, to)
        }

        fn at(self, client: usize, name: &str, incarnation: u64, from: u64, to: u64) -> Built {
            let act = Act::Incarnation(incarnation);
            self.push(client, name, act, Outcome::Ok, (from, to))
        }

        fn registers(&self) -> Result<Checked, Violation> {
            self.history.check_registers(TTL)
        }
    }

    #[test]
    fn the_seed_list_reads_decimal_and_hex() {
        assert_eq!(
            parse_seeds("0xACE3, 0xACE4,42,,1001 "),
            vec![0xACE3, 0xACE4, 42, 1001]
        );
        assert!(parse_seeds("").is_empty());
    }

    #[test]
    #[should_panic(expected = "unparsable seed `4x2`")]
    fn an_unreadable_seed_fails() {
        parse_seeds("1,4x2");
    }

    #[test]
    fn a_poll_returns_when_its_condition_holds_or_its_deadline_passes() {
        let clock = Clock::real();
        let mut asked = 0;
        let held = poll_until(&clock, Duration::from_secs(5), Duration::ZERO, || {
            asked += 1;
            asked == 3
        });
        assert!(held);
        assert_eq!(asked, 3);
        let never = poll_until(
            &clock,
            Duration::from_millis(5),
            Duration::from_millis(1),
            || false,
        );
        assert!(!never);
    }

    /// Concurrent writers, a delete, reads that overlap the writes, an
    /// ambiguous write that landed and one that did not.
    #[test]
    fn a_linearizable_history_passes() {
        let h = Built::new()
            .get(3, None, 0, 1)
            .put(1, "a1", 2, 10)
            .put(2, "b1", 4, 12)
            .get(3, Some("a1"), 5, 11)
            .get(3, Some("b1"), 13, 14)
            .op(1, Act::Delete, Outcome::Ok, 15, 16)
            .get(2, None, 17, 18)
            .op(1, Act::Put("a2".into()), Outcome::Ambiguous, 19, 20)
            .op(2, Act::Put("b2".into()), Outcome::Ambiguous, 21, 22)
            .get(3, Some("b2"), 30, 31)
            .get(3, Some("b2"), 32, 33)
            .op(
                3,
                Act::Get {
                    read: None,
                    leased: false,
                },
                Outcome::Failed,
                34,
                35,
            );
        let checked = h.registers().expect("linearizable");
        assert_eq!(checked.keys, 1);
        // The failed read and the unread ambiguous put are not placed.
        assert_eq!(checked.ops, 10);
    }

    #[test]
    fn a_read_stale_after_a_write_completed_fails() {
        let h = Built::new()
            .put(1, "a1", 0, 1)
            .put(2, "b1", 2, 3)
            .get(3, Some("a1"), 4, 5);
        let v = h.registers().unwrap_err();
        assert!(v.0.contains("not linearizable"), "{v}");
    }

    #[test]
    fn a_lost_acked_write_fails() {
        let h = Built::new().put(1, "a1", 0, 1).get(2, None, 2, 3);
        h.registers().unwrap_err();
        let deleted = Built::new()
            .put(1, "a1", 0, 1)
            .op(1, Act::Delete, Outcome::Ok, 2, 3)
            .get(2, Some("a1"), 4, 5);
        deleted.registers().unwrap_err();
    }

    #[test]
    fn a_read_of_a_value_nobody_wrote_fails() {
        let h = Built::new().put(1, "a1", 0, 1).get(2, Some("z9"), 2, 3);
        let v = h.registers().unwrap_err();
        assert!(v.0.contains("nobody wrote"), "{v}");
    }

    #[test]
    fn a_leased_read_that_misses_its_own_clients_write_fails() {
        let h = Built::new()
            .put(2, "b1", 0, 1)
            .put(1, "a1", 10, 11)
            .leased(1, Some("b1"), 12, 13);
        h.registers().unwrap_err();
    }

    #[test]
    fn a_leased_read_stale_beyond_the_lease_fails() {
        let beyond = 11 + TTL.as_millis() as u64 + 5;
        let h = Built::new().put(1, "a1", 0, 1).put(2, "b1", 10, 11).leased(
            1,
            Some("a1"),
            beyond,
            beyond + 1,
        );
        h.registers().unwrap_err();
    }

    #[test]
    fn a_leased_read_stale_within_the_lease_against_another_clients_write_passes() {
        let within = 11 + TTL.as_millis() as u64 / 2;
        let h = Built::new().put(1, "a1", 0, 1).put(2, "b1", 10, 11).leased(
            1,
            Some("a1"),
            within,
            within + 1,
        );
        let checked = h.registers().expect("within the lease bound");
        assert_eq!(checked.leased_reads, 1);
        // It needed the bound back to b1's invoke, to the millisecond.
        assert_eq!(checked.staleness, Duration::from_millis(within - 10));
        // The same read unleased is stale.
        let unleased = Built::new().put(1, "a1", 0, 1).put(2, "b1", 10, 11).get(
            1,
            Some("a1"),
            within,
            within + 1,
        );
        unleased.registers().unwrap_err();
    }

    #[test]
    fn an_incarnation_that_goes_down_after_a_higher_one_completed_fails() {
        let ok = Built::new()
            .at(1, "srm", 0, 0, 1)
            .at(2, "srm", 2, 1, 5)
            // Overlaps the read of 2: may be ordered before it.
            .at(1, "srm", 1, 2, 3)
            .at(1, "srm", 2, 6, 7)
            .at(1, "asd", 0, 8, 9);
        assert_eq!(ok.history.check_incarnations(), Ok(2));
        let down = ok.at(3, "srm", 1, 8, 9);
        let v = down.history.check_incarnations().unwrap_err();
        assert!(v.0.contains("srm: incarnation went down"), "{v}");
    }

    #[test]
    fn an_incarnation_that_does_not_rise_across_a_restart_fails() {
        let restarted = |after: u64| {
            Built::new()
                .at(1, "s0r1", 3, 0, 1)
                .push(1, "s0r1", Act::Restart, Outcome::Ok, (2, 3))
                .at(1, "s0r1", after, 4, 5)
        };
        assert_eq!(restarted(4).history.check_incarnations(), Ok(1));
        let v = restarted(3).history.check_incarnations().unwrap_err();
        assert!(v.0.contains("did not rise across"), "{v}");
    }
}
