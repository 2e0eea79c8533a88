//! The repository's structural guards.  Each `#[test]` here keeps out one
//! fork that an earlier change deleted: a second copy of a rule, a second
//! path beside the one every caller takes, or a knob that was folded away.
//! A failure names that change (numbered as in `CHANGES.md`) and prints
//! every offending line as `grep -rn` would, `file:line:text`.
//!
//! A guard reads the tree from `CARGO_MANIFEST_DIR` with `std::fs` and
//! matches lines with [`re`], a small matcher for the part of POSIX regular
//! expressions the patterns are written in, or with [`fixed`] for a literal.
//! A scan skips two things only: `target/` directories, which are build
//! output, and this file (and a copy of it in a checkout inside the tree,
//! such as a benchmark build's), whose own string literals would match the
//! patterns.  A named file or directory that does not exist fails the
//! guard, so a rename cannot leave a guard checking nothing.

use std::fmt;
use std::fs;
use std::path::Path;

const THIS_FILE: &str = "tests/guards.rs";

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// A line a guard matched.  It prints as `grep -rn` prints it, which is
/// also the form the `grep -v` style exclusions below are matched against.
struct Hit {
    file: String,
    line: usize,
    text: String,
}

impl fmt::Display for Hit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.file, self.line, self.text)
    }
}

/// Every file under `scope` (paths relative to the repository root, as the
/// guard's shell line named them), sorted.  A `*` component stands for
/// each entry of its directory, as the shell expands it.
fn files(scope: &[&str]) -> Vec<String> {
    let mut out = Vec::new();
    for path in scope {
        let expanded = expand(path);
        assert!(!expanded.is_empty(), "guard scope `{path}` does not exist");
        for rel in expanded {
            walk(&rel, &mut out);
        }
    }
    out.sort();
    out
}

fn expand(path: &str) -> Vec<String> {
    let mut found = vec![String::new()];
    for part in path.split('/') {
        found = found
            .into_iter()
            .flat_map(|base| {
                let join = |name: &str| match base.as_str() {
                    "" => name.to_string(),
                    _ => format!("{base}/{name}"),
                };
                if part != "*" {
                    return vec![join(part)];
                }
                let mut names: Vec<String> = fs::read_dir(root().join(&base))
                    .map(|entries| {
                        entries
                            .map(|e| e.expect("a directory entry"))
                            .map(|e| e.file_name().to_string_lossy().into_owned())
                            .filter(|name| !name.starts_with('.'))
                            .collect()
                    })
                    .unwrap_or_default();
                names.sort();
                names.iter().map(|name| join(name)).collect()
            })
            .filter(|rel| root().join(rel).exists())
            .collect();
    }
    found
}

fn walk(rel: &str, out: &mut Vec<String>) {
    let path = root().join(rel);
    let kind = fs::symlink_metadata(&path)
        .unwrap_or_else(|e| panic!("guard scope `{rel}`: {e}"))
        .file_type();
    if kind.is_dir() {
        for entry in fs::read_dir(&path).expect("a readable directory") {
            let name = entry.expect("a directory entry").file_name();
            let name = name.to_string_lossy();
            match (rel, name.as_ref()) {
                (_, "target") => {}
                (".", name) => walk(name, out),
                (rel, name) => walk(&format!("{rel}/{name}"), out),
            }
        }
    } else if kind.is_file() && !Path::new(rel).ends_with(THIS_FILE) {
        out.push(rel.to_string());
    }
}

/// The lines of `files` that `matches` accepts.
fn grep(files: &[String], matches: impl Fn(&str) -> bool) -> Vec<Hit> {
    let mut hits = Vec::new();
    for file in files {
        let bytes = fs::read(root().join(file)).expect("a readable file");
        let text = String::from_utf8_lossy(&bytes);
        for (i, line) in text.split_terminator('\n').enumerate() {
            if matches(line) {
                hits.push(Hit {
                    file: file.clone(),
                    line: i + 1,
                    text: line.to_string(),
                });
            }
        }
    }
    hits
}

/// The lines of `file` inside the ranges awk's `/start/,/end/` selects: from
/// each line `start` accepts through the next line `end` accepts.
fn ranges(file: &str, start: impl Fn(&str) -> bool, end: impl Fn(&str) -> bool) -> Vec<Hit> {
    let mut inside = false;
    let mut hits = grep(&files(&[file]), |_| true);
    hits.retain(|hit| {
        let keep = inside || start(&hit.text);
        inside = keep && !end(&hit.text);
        keep
    });
    hits
}

/// Drop the hits whose `file:line:text` form `pattern` accepts (`grep -v`).
fn except(mut hits: Vec<Hit>, pattern: impl Fn(&str) -> bool) -> Vec<Hit> {
    hits.retain(|hit| !pattern(&hit.to_string()));
    hits
}

/// A literal (`grep -F`).
fn fixed(needle: &'static str) -> impl Fn(&str) -> bool {
    move |line| line.contains(needle)
}

/// A line matcher for the part of POSIX regular expressions the guards are
/// written in: literals, `\`-escapes, `.`, bracket classes with ranges, the
/// `*`, `+` and `?` repeats, the `^` and `$` anchors, and `|` between whole
/// alternatives.  It has no groups: a guard spells a group out as
/// alternatives.  A basic pattern (`grep` without `-E`) is written with `|`
/// for its `\|`; none of those uses `+`, `?` or a group.
fn re(pattern: &'static str) -> impl Fn(&str) -> bool {
    let alternatives: Vec<Alternative> = pattern.split('|').map(Alternative::parse).collect();
    move |line| alternatives.iter().any(|a| a.is_match(line))
}

/// One character position: any character, or one of a set of ranges.
enum Class {
    Any,
    Set(Vec<(char, char)>),
}

impl Class {
    fn matches(&self, c: char) -> bool {
        match self {
            Class::Any => true,
            Class::Set(ranges) => ranges.iter().any(|&(lo, hi)| lo <= c && c <= hi),
        }
    }
}

/// A class repeated between `min` and `max` times.
struct Atom {
    class: Class,
    min: usize,
    max: usize,
}

struct Alternative {
    at_start: bool,
    at_end: bool,
    atoms: Vec<Atom>,
    /// The literal the alternative starts with: a match can start only
    /// where it occurs.
    prefix: String,
}

impl Alternative {
    fn parse(pattern: &str) -> Alternative {
        let mut chars = pattern.chars().peekable();
        let at_start = chars.next_if_eq(&'^').is_some();
        let mut at_end = false;
        let mut atoms = Vec::new();
        while let Some(c) = chars.next() {
            let class = match c {
                '$' if chars.peek().is_none() => {
                    at_end = true;
                    break;
                }
                '.' => Class::Any,
                '\\' => {
                    let c = chars.next().expect("a character after `\\`");
                    Class::Set(vec![(c, c)])
                }
                '[' => {
                    let mut ranges = Vec::new();
                    loop {
                        let lo = chars.next().expect("a closing `]`");
                        if lo == ']' {
                            break;
                        }
                        let hi = match chars.next_if_eq(&'-') {
                            Some(_) => chars.next().expect("a range's upper end"),
                            None => lo,
                        };
                        ranges.push((lo, hi));
                    }
                    Class::Set(ranges)
                }
                c => Class::Set(vec![(c, c)]),
            };
            let (min, max) = match chars.next_if(|c| matches!(c, '*' | '+' | '?')) {
                Some('*') => (0, usize::MAX),
                Some('+') => (1, usize::MAX),
                Some(_) => (0, 1),
                None => (1, 1),
            };
            atoms.push(Atom { class, min, max });
        }
        let prefix = atoms
            .iter()
            .map_while(|atom| match (&atom.class, atom.min, atom.max) {
                (Class::Set(set), 1, 1) if set.len() == 1 && set[0].0 == set[0].1 => Some(set[0].0),
                _ => None,
            })
            .collect();
        Alternative {
            at_start,
            at_end,
            atoms,
            prefix,
        }
    }

    fn is_match(&self, line: &str) -> bool {
        if self.at_start {
            return self.matches_at(&self.atoms, line);
        }
        line.match_indices(self.prefix.as_str())
            .any(|(at, _)| self.matches_at(&self.atoms, &line[at..]))
    }

    /// Greedy with backtracking: each atom takes as many characters as it
    /// can, then gives them back one at a time until the rest matches.
    fn matches_at(&self, atoms: &[Atom], text: &str) -> bool {
        let Some((atom, rest)) = atoms.split_first() else {
            return !self.at_end || text.is_empty();
        };
        // `ends[k]` is where the text continues after `k` characters.
        let mut ends = vec![0];
        for (i, c) in text.char_indices() {
            if ends.len() > atom.max || !atom.class.matches(c) {
                break;
            }
            ends.push(i + c.len_utf8());
        }
        ends.iter()
            .skip(atom.min)
            .rev()
            .any(|&end| self.matches_at(rest, &text[end..]))
    }
}

/// Fail unless `ok`, naming the fork the guard keeps out and every line it
/// matched.
fn check(ok: bool, message: String, hits: &[Hit]) {
    let lines: String = hits.iter().map(|hit| format!("\n  {hit}")).collect();
    assert!(ok, "{message}{lines}");
}

/// The guard must match nothing.
fn none(fork: &str, hits: Vec<Hit>) {
    check(hits.is_empty(), format!("{fork}, growing back:"), &hits);
}

/// The guard must match exactly `n` lines.
fn exactly(n: usize, fork: &str, hits: Vec<Hit>) {
    let message = format!(
        "{fork}: {n} matching line(s) expected, {} found:",
        hits.len()
    );
    check(hits.len() == n, message, &hits);
}

/// The guard's matches must lie in `expected` files, one line each
/// (`cut -d: -f1` of the matches, in order).
fn in_files(expected: &[&str], fork: &str, hits: Vec<Hit>) {
    let found: Vec<&str> = hits.iter().map(|hit| hit.file.as_str()).collect();
    let message = format!("{fork}: matches expected in {expected:?} only, found:");
    check(found == expected, message, &hits);
}

/// The files the guard matches must be exactly `expected` (`grep -rl`).
fn only_files(expected: &[&str], fork: &str, hits: Vec<Hit>) {
    let mut found: Vec<&str> = hits.iter().map(|hit| hit.file.as_str()).collect();
    found.dedup();
    let message = format!("{fork}: matches expected in {expected:?} only, found:");
    check(found == expected, message, &hits);
}

// ── One measurement stack (PR 16) ────────────────────────────────────────

/// Numbers come from acebench (`benchmark/`) or from `experiments`; a new
/// artifact file would be a third place.  `BENCH_pr` is the per-change
/// artifact dialect the five retired bench bins wrote.
#[test]
fn no_per_change_bench_artifact() {
    let sources: Vec<String> = files(&["."])
        .into_iter()
        .filter(|f| f.ends_with(".rs") || f == "Cargo.toml" || f.ends_with("/Cargo.toml"))
        .collect();
    none(
        "PR 16: a per-change bench artifact (`BENCH_pr`)",
        grep(&sources, fixed("BENCH_pr")),
    );
}

/// Numbers come from acebench (`benchmark/`) or from `experiments`; a new
/// bench bin would be a third place.
#[test]
fn experiments_is_the_one_bench_bin() {
    let bins = expand("crates/bench/src/bin/*");
    assert_eq!(
        bins,
        ["crates/bench/src/bin/experiments.rs"],
        "PR 16: a second bench bin beside `experiments` is growing back"
    );
}

// ── One outbound path (PR 18) ────────────────────────────────────────────

/// A daemon or composite client reaches its peers through `LinkPool`; a
/// per-address client cache or a Direct/Pooled selector is the fork PR 18
/// deleted growing back.
#[test]
fn one_outbound_path() {
    none(
        "PR 18: a per-address client cache or a Direct/Pooled selector",
        grep(
            &files(&["crates/*/src"]),
            re("HashMap<Addr, ServiceClient>|enum Conn|enum AsdConn"),
        ),
    );
}

// ── One placement layer (PR 20) ──────────────────────────────────────────

/// The rendezvous score lives in `ace_core::placement` alone; `fnv64` in
/// either plane's map module is the second copy PR 20 merged away growing
/// back.
#[test]
fn one_placement_layer() {
    none(
        "PR 20: a second rendezvous score (`fnv64` in a plane's map module)",
        grep(
            &files(&[
                "crates/directory/src/shardmap.rs",
                "crates/store/src/placement.rs",
            ]),
            re("fnv64"),
        ),
    );
}

// ── One directory cache (PR 21) ──────────────────────────────────────────

/// A behaviour asks `ctx.lookup` each time and lets the daemon's
/// lease-bounded `ResolutionCache` answer; a peer address assigned to a
/// field (`self.x = ctx.lookup…`) is the held-for-the-life-of-the-process
/// cache PR 21 deleted six of growing back.
#[test]
fn no_peer_address_held_in_a_field() {
    none(
        "PR 21: a peer address held in a field for the life of the process",
        grep(
            &files(&["crates/*/src"]),
            re("self\\.[a-z_]+ = ctx\\.lookup"),
        ),
    );
}

// ── PR 22: the granted lease, the blob event, one store write ────────────

/// A daemon renews at a third of the lease the directory granted: a
/// constant cadence in `daemon.rs` is the 200 ms default growing back.
#[test]
fn no_constant_renewal_cadence() {
    none(
        "PR 22: the constant 200 ms renewal cadence",
        grep(
            &files(&["crates/core/src/daemon.rs"]),
            re("from_millis(200)"),
        ),
    );
}

/// What a service's context sends (its events, casts and log records)
/// carries its bytes as they are: `hex_encode` in `behavior.rs` is a
/// hex-doubled payload, like the one the retired stats push built,
/// growing back.
#[test]
fn the_service_ctx_sends_no_hex() {
    none(
        "a hex-doubled payload built by the service context",
        grep(&files(&["crates/core/src/behavior.rs"]), re("hex_encode")),
    );
}

/// Every store write (`put`, `delete`, `put_many`) goes through the one
/// `StoreClient::write`: a second is the read-first path beside the
/// remembered-version one.
#[test]
fn one_store_write() {
    exactly(
        1,
        "PR 22: a second store write path (`fn write(`)",
        grep(&files(&["crates/store/src/client.rs"]), re("fn write(")),
    );
}

// ── PR 23: casts, one reply path ─────────────────────────────────────────

/// The notifier casts and never waits: a `.call(` in `notify.rs` is a
/// runtime worker parked on a listener again.
#[test]
fn the_notifier_never_waits() {
    none(
        "PR 23: a notifier that waits on its listener",
        grep(
            &files(&["crates/core/src/notify.rs"]),
            re("\\.call\\(|\\.call_ok\\("),
        ),
    );
}

/// The shell answers a frame in one place, which is where "a cast is
/// answered iff it did not run" lives: a second `fn send_reply(` is a path
/// that forgets it.
#[test]
fn one_reply_path() {
    exactly(
        1,
        "PR 23: a second reply path (`fn send_reply(`)",
        grep(&files(&["crates/core/src/daemon.rs"]), re("fn send_reply(")),
    );
}

/// The ID Monitor's `setLocation` stays a cast: a `ctx.call` there is the
/// discarded reply growing back.
#[test]
fn set_location_stays_a_cast() {
    none(
        "PR 23: the ID Monitor's discarded `setLocation` reply",
        grep(
            &files(&["crates/identity/src/idmonitor.rs"]),
            re("ctx.call"),
        ),
    );
}

// ── PR 24: the daemon task owns its queue ────────────────────────────────

/// The daemon task owns its admission queue: a lock, a waker or a receiver
/// half in `admission.rs` is the cross-thread channel of the four-thread
/// shell growing back.
#[test]
fn the_admission_queue_is_owned() {
    none(
        "PR 24: the admission queue's cross-thread channel",
        grep(
            &files(&["crates/core/src/admission.rs"]),
            re("Mutex|WakeCell|AdmissionReceiver|AdmitError"),
        ),
    );
}

/// A stop is the `stop` flag, never a message.
#[test]
fn a_stop_is_a_flag() {
    none(
        "PR 24: a stop sent as a message",
        grep(
            &files(&["crates/core/src/daemon.rs"]),
            re("ControlMsg::Stop|force_priority|control_tx"),
        ),
    );
}

/// The queue is dequeued in one place (`settle_next`).
#[test]
fn one_dequeue() {
    exactly(
        1,
        "PR 24: a second dequeue (`queue.pop()`)",
        grep(&files(&["crates/core/src/daemon.rs"]), re("queue.pop()")),
    );
}

/// The upgrade snapshot is a blob: `hex_` in `supervise.rs` or `daemon.rs`
/// is the four-fold payload growing back.
#[test]
fn the_upgrade_snapshot_is_a_blob() {
    none(
        "PR 24: the hex-encoded upgrade snapshot",
        grep(
            &files(&["crates/core/src/supervise.rs", "crates/core/src/daemon.rs"]),
            re("hex_"),
        ),
    );
}

/// `ServiceCtx::new` takes the daemon's one `Arc<DaemonConfig>`, not its
/// fields one by one.
#[test]
fn the_service_ctx_takes_the_config() {
    none(
        "PR 24: a `ServiceCtx::new` taking the config's fields one by one",
        grep(
            &files(&["crates/core/src/behavior.rs"]),
            re("too_many_arguments"),
        ),
    );
}

// ── PR 25: one held value, the Net Logger's rows ─────────────────────────

/// A store client holds the value of a key's newest version in one place,
/// `Known` inside `VersionMemory`: a second `Vec<u8>` field in `client.rs`
/// is a second cache whose names can drift from its bytes.
#[test]
fn one_held_value_field() {
    exactly(
        1,
        "PR 25: a second held value (`Vec<u8>` field) in the store client",
        grep(
            &files(&["crates/store/src/client.rs"]),
            re("^    [a-z_]+: .*Vec<u8>.*,$"),
        ),
    );
}

/// A map of bytes in `placement.rs` is a second cache of values beside the
/// store client's `VersionMemory`.
#[test]
fn no_value_map_in_placement() {
    none(
        "PR 25: a map of values in the store's placement",
        grep(
            &files(&["crates/store/src/placement.rs"]),
            re("Map<.*Vec<u8>"),
        ),
    );
}

/// The Net Logger answers in rows of plain strings: `hex_` in
/// `netlogger.rs` is a hex-doubled payload growing back.
#[test]
fn the_logger_rows_are_not_hex() {
    none(
        "PR 25: the hex-doubled `queryEvents` rows",
        grep(&files(&["crates/directory/src/netlogger.rs"]), re("hex_")),
    );
}

// ── PR 27: stats pulled, wire counts per daemon ──────────────────────────

/// Stats are pulled, never pushed: `aceStats` is the one way a daemon's
/// metrics leave it.  `push_stats_event`, `to_event_payload` or a
/// `stats_interval` anywhere but the benchmark's no-op shim is the
/// once-a-second push growing back.
#[test]
fn stats_are_pulled() {
    let hits = grep(
        &files(&["crates", "tests", "examples"]),
        re("push_stats_event|to_event_payload|stats_interval"),
    );
    none(
        "PR 27: the once-a-second stats push",
        except(
            hits,
            re("^crates/core/src/daemon.rs:[0-9]*:    pub fn with_stats_interval(self, _interval: Duration) -> Self {$"),
        ),
    );
}

/// `aceStats` is also the one way a *service's* counters leave it: they
/// are gauges set in its `on_stats`.  A `CmdSpec` for a `…Stats` verb under
/// `crates/*/src` other than `aceStats` is a private stats verb, with its
/// own reply dialect, growing back.  `wssStats` and `superviseStats` stay
/// until `acebench` reads their `wss.*`/`supervise.*` rows (ROADMAP item
/// 1(a)); the change after it deletes them (ROADMAP small leftovers).  A
/// spec split over two lines is caught by its name's line.
#[test]
fn one_stats_verb() {
    let hits = grep(
        &files(&["crates/*/src"]),
        re("CmdSpec::new(\"[A-Za-z]*Stats\"|^ *\"[A-Za-z]*Stats\",$"),
    );
    none(
        "a service's own `…Stats` verb beside `aceStats`",
        except(hits, re("\"aceStats\"|\"wssStats\"|\"superviseStats\"")),
    );
}

/// What a daemon sends is counted by verb in its own registry (`wire.*`);
/// a `static` in `link.rs` is the process-global by-verb map, once patched
/// in by hand for every table, growing back.
#[test]
fn no_global_wire_counts() {
    none(
        "PR 27: the process-global by-verb map",
        grep(
            &files(&["crates/core/src/link.rs"]),
            re("static [A-Za-z_]+ *:"),
        ),
    );
}

/// `vncDraw` reads its `data` as a blob: `hex_` in `vnc.rs` is the doubled
/// payload growing back.
#[test]
fn vnc_draw_is_a_blob() {
    none(
        "PR 27: the hex-doubled `vncDraw` payload",
        grep(&files(&["crates/workspace/src/vnc.rs"]), re("hex_")),
    );
}

// ── PR 30: one copy per replica, no idle grid, one FNV step ──────────────

/// A store replica holds each value once, in its map: the WAL-tail ring and
/// `psWalTail` are gone.
#[test]
fn no_wal_tail_ring() {
    none(
        "PR 30: the WAL-tail ring (`psWalTail`)",
        grep(
            &files(&["crates", "tests", "examples"]),
            re("TailRing|tail_since|psWalTail|tail_records"),
        ),
    );
}

/// A rebuild tops up with the one hash-tree round anti-entropy runs, so
/// `"psDigest").arg("root"` appears once in the store.
#[test]
fn one_hash_tree_round() {
    exactly(
        1,
        "PR 30: a second hash-tree round (`\"psDigest\").arg(\"root\"`)",
        grep(
            &files(&["crates/store/src"]),
            fixed("\"psDigest\").arg(\"root\""),
        ),
    );
}

/// A blank workspace holds no tile grid: the first write allocates it, the
/// one `vec![Tile::default()` in `framebuffer.rs`.
#[test]
fn no_idle_tile_grid() {
    exactly(
        1,
        "PR 30: a tile grid allocated before the first write",
        grep(
            &files(&["crates/workspace/src/framebuffer.rs"]),
            fixed("vec![Tile::default()"),
        ),
    );
}

/// The FNV-1a step is written once, in `ace_security::hash`: its prime
/// anywhere else under `crates` is a second copy of the loop.
#[test]
fn one_fnv_step() {
    only_files(
        &["crates/security/src/hash.rs"],
        "PR 30: a second FNV-1a loop (its prime `100000001b3`)",
        grep(&files(&["crates"]), re("100000001b3")),
    );
}

// ── PR 28: one copy per replica, one count per byte ──────────────────────

/// The in-memory disk keeps the snapshot it is handed: its three
/// `fn replace` bodies are the ones the next guard reads.
#[test]
fn three_snapshot_replaces() {
    exactly(
        3,
        "PR 28: a `fn replace` the snapshot-copy guard does not read",
        grep(
            &files(&["crates/store/src/wal.rs"]),
            re("fn replace(&mut self, bytes: Vec<u8>)"),
        ),
    );
}

/// The in-memory disk keeps the snapshot it is handed, not a `to_vec` of
/// it.
#[test]
fn a_replaced_snapshot_is_not_copied() {
    let inside = ranges(
        "crates/store/src/wal.rs",
        re("fn replace\\(&mut self, bytes: Vec<u8>\\)"),
        re("^    }$"),
    );
    none(
        "PR 28: a second copy of a replaced snapshot (`to_vec`)",
        inside
            .into_iter()
            .filter(|hit| hit.text.contains("to_vec"))
            .collect(),
    );
}

/// `link.sealedBytes` was a second count of `wire.reply.*`; the name is
/// that double count growing back.
#[test]
fn no_sealed_bytes_count() {
    none(
        "PR 28: the double byte count `link.sealedBytes`",
        grep(&files(&["crates", "tests", "examples"]), re("sealedBytes")),
    );
}

/// O-Phone voice datagrams carry raw samples: `hex_` in `ophone.rs` is the
/// doubled frame.
#[test]
fn voice_frames_are_raw() {
    none(
        "PR 28: the hex-doubled voice frame",
        grep(&files(&["crates/apps/src/ophone.rs"]), re("hex_")),
    );
}

// ── One call loop (PR 29) ────────────────────────────────────────────────
//
// `ctx.call`, `FailoverClient`, the start-up registrations and
// `LinkPool::call` (hence the store client) all send through
// `LinkPool::call_with`, each handing it its policy as data.

/// A second `.backoff()` outside `retry.rs` is a retry loop growing back.
#[test]
fn one_backoff_outside_retry() {
    let hits = grep(&files(&["crates/*/src"]), re("\\.backoff()"));
    in_files(
        &["crates/core/src/pool.rs"],
        "PR 29: a second retry loop (`.backoff()`)",
        except(hits, re("^crates/core/src/retry.rs:")),
    );
}

/// A `for attempt in` in `pool.rs` is a retry loop growing back.
#[test]
fn no_attempt_loop_in_the_pool() {
    none(
        "PR 29: a second retry loop in the pool",
        grep(&files(&["crates/core/src/pool.rs"]), re("for attempt in")),
    );
}

/// The failover client's held-link helpers are a retry loop growing back.
#[test]
fn no_held_link_helpers_in_failover() {
    none(
        "PR 29: the failover client's held-link helpers",
        grep(
            &files(&["crates/core/src/failover.rs"]),
            re("fn connect_current|note_upgrading|note_link_failure|note_target_"),
        ),
    );
}

/// A command cloned to stamp its `deadline=` is a retry loop growing back.
#[test]
fn no_command_cloned_to_stamp() {
    none(
        "PR 29: a command cloned to stamp its deadline",
        grep(
            &files(&["crates/core/src/behavior.rs", "crates/core/src/pool.rs"]),
            re("cmd.clone()"),
        ),
    );
}

// ── One pairing rule (PR 31) ─────────────────────────────────────────────
//
// A reply answers the call it was sent for, and `ServiceClient` alone keeps
// that so: a link failure closes the client in one place.

/// A second `closed = true` in `client.rs` is a second place a link
/// failure closes the client.
#[test]
fn one_place_closes_a_client() {
    exactly(
        1,
        "PR 31: a second place that closes a client",
        grep(&files(&["crates/core/src/client.rs"]), re("closed = true")),
    );
}

/// A `broken` flag in `pool.rs` is a second copy of the pairing rule.
#[test]
fn no_broken_flag_in_the_pool() {
    none(
        "PR 31: the pool's `broken` flag",
        grep(&files(&["crates/core/src/pool.rs"]), re("broken")),
    );
}

/// A failure latch in the rebuild's top-up is a second copy of the pairing
/// rule.
#[test]
fn no_failure_latch_in_the_top_up() {
    none(
        "PR 31: the top-up's failure latch",
        grep(
            &files(&["crates/store/src/replica.rs"]),
            re("failed = Some"),
        ),
    );
}

/// A `Mutex<Option<…Client>>` with its own reconnect loop is a second copy
/// of the pairing rule.
#[test]
fn no_client_behind_a_lock() {
    none(
        "PR 31: a locked client with its own reconnect loop",
        grep(&files(&["crates/*/src"]), re("Mutex<Option<.*Client>>")),
    );
}

// ── One clock (PR 34) ────────────────────────────────────────────────────

/// Every time read and every timed sleep under `crates/*/src` goes through
/// `ace_net::Clock` (the net's, or the runtime's), and a decision takes
/// `now` from its caller.  An `Instant::now()`, `.elapsed()` or
/// `thread::sleep` anywhere else under `crates/*/src`, test modules
/// included, is a second time source growing back (`bench` and `baselines`
/// time themselves).
#[test]
fn one_time_source() {
    let hits = grep(
        &files(&["crates/*/src"]),
        re("Instant::now\\(\\)|\\.elapsed\\(\\)|thread::sleep"),
    );
    none(
        "PR 34: a second time source",
        except(
            hits,
            re("^crates/net/src/clock\\.rs|^crates/bench/|^crates/baselines/"),
        ),
    );
}

/// Outside test modules a `Clock::real()` anywhere but `SimNet::new` and
/// `Runtime::new` is a caller choosing its own clock.  A file's test module
/// starts at its first `#[cfg(test)]` line.
#[test]
fn the_real_clock_is_built_in_two_places() {
    let test_module = re("^#\\[cfg\\(test\\)\\]");
    let mut hits = Vec::new();
    for file in files(&["crates/*/src"]) {
        if !file.ends_with(".rs") {
            continue;
        }
        let first = grep(&[file], |_| true)
            .into_iter()
            .take_while(|hit| !test_module(&hit.text))
            .find(|hit| hit.text.contains("Clock::real()"));
        hits.extend(first);
    }
    only_files(
        &["crates/core/src/runtime.rs", "crates/net/src/net.rs"],
        "PR 34: a caller choosing its own clock (`Clock::real()`)",
        hits,
    );
}

// ── One lock per disk (PR 35) ────────────────────────────────────────────

/// A replica's write is checked, logged, published and compacted in one
/// hold of its image lock, and the `Wal` is a plain struct the image owns.
/// A `Condvar`, a `CommitQueue`, a `maybe_compact_when` or an `in_flight`
/// gate under `crates/store/src` is the group-commit engine and its
/// two-lock split growing back.
#[test]
fn no_group_commit_engine() {
    none(
        "PR 35: the group-commit engine and its two-lock split",
        grep(
            &files(&["crates/store/src"]),
            re("Condvar|CommitQueue|maybe_compact_when|in_flight"),
        ),
    );
}

/// A `max_batch_bytes` / `max_batch_delay` knob anywhere is the
/// group-commit engine growing back.
#[test]
fn no_group_commit_knobs() {
    none(
        "PR 35: the group-commit knobs",
        grep(
            &files(&["crates", "tests", "examples"]),
            re("max_batch_bytes|max_batch_delay"),
        ),
    );
}

// ── One snapshot per disk, one group per replica (PR 36) ─────────────────

/// A replica's disk is a log plus one snapshot: `SEG_SNAP_B`,
/// `active_slot`, `slot_lens` or `snap_b` under `crates/store` is the
/// second slot growing back.
#[test]
fn one_snapshot_slot() {
    none(
        "PR 36: the second snapshot slot",
        grep(
            &files(&["crates/store"]),
            re("SEG_SNAP_B|active_slot|slot_lens|snap_b"),
        ),
    );
}

/// `fsync_on_commit` anywhere is the knob that let an acknowledged append
/// go unsynced.
#[test]
fn no_fsync_knob() {
    none(
        "PR 36: the `fsync_on_commit` knob",
        grep(
            &files(&["crates", "tests", "examples"]),
            re("fsync_on_commit"),
        ),
    );
}

/// Every replica syncs with its group, named at spawn: a `lookup_cmd` in
/// `crates/store/src` is anti-entropy asking the directory for its peers
/// again.
#[test]
fn anti_entropy_does_not_ask_the_directory() {
    none(
        "PR 36: anti-entropy asking the directory for its peers",
        grep(&files(&["crates/store/src"]), re("lookup_cmd")),
    );
}

// ── One set of directory rules (PR 37) ───────────────────────────────────
//
// Quorum register, renew with repair, deregister, the `E_BADSTATE` fence and
// the any-replica read live in `ace_core::directory`, and every directory
// user — the daemon shell, `ServiceCtx::lookup`, the Supervisor's probe,
// `FailoverClient` and `ShardedAsdClient` — hands them its own send.

/// A `renewLease` or `removeService` built, or a `register_cmd(` called,
/// anywhere else under `crates/*/src` is a second write path growing back.
#[test]
fn one_directory_write_path() {
    let hits = grep(
        &files(&["crates/*/src"]),
        re("CmdLine::new\\(\"renewLease\"\\)|CmdLine::new\\(\"removeService\"\\)|register_cmd\\("),
    );
    let hits = except(hits, re("^crates/core/src/directory.rs:"));
    none(
        "PR 37: a second directory write path",
        except(
            hits,
            re("^crates/core/src/protocol.rs:[0-9]*:pub fn register_cmd("),
        ),
    );
}

/// `with_asd` or `asd_addr(` is a daemon tied to one ASD address again; a
/// `wire_watcher`, `wire_supervisor` (with its `SuperviseError`) or
/// `subscribe_expiry_invalidation` is a second expiry subscription.
#[test]
fn no_single_asd_and_one_expiry_subscription() {
    none(
        "PR 37: a daemon tied to one ASD, or a second expiry subscription",
        grep(
            &files(&["crates", "tests", "examples"]),
            re("with_asd|asd_addr\\(|fn wire_watcher|fn wire_supervisor|SuperviseError|fn subscribe_expiry_invalidation"),
        ),
    );
}

/// A second `fn lookup_any_replica` is a second read rule.
#[test]
fn one_read_rule() {
    exactly(
        1,
        "PR 37: a second directory read rule",
        grep(
            &files(&["crates", "tests", "examples"]),
            re("fn lookup_any_replica"),
        ),
    );
}

// ── One watchdog (PR 38) ─────────────────────────────────────────────────
//
// The Supervisor is the §9 watcher: every relaunched application is a
// `SupervisedSpec`, and a robust one checkpoints through its daemon's pool.

/// A `Watcher`, `WatchSpec`, `AppClass`, `watcherStats`, `Checkpoint`
/// struct or `lifecycle` module is the apps crate's restart service growing
/// back.
#[test]
fn no_second_restart_service() {
    none(
        "PR 38: the apps crate's restart service",
        grep(
            &files(&["crates", "tests", "examples"]),
            re("struct Watcher|WatchSpec|AppClass|watcherStats|struct Checkpoint|mod lifecycle"),
        ),
    );
}

/// An `"onServiceExpired" =>` arm anywhere but `supervise.rs` is a second
/// behaviour that relaunches on a lapse (`ResolutionInvalidator` matches
/// the verb with `==`).
#[test]
fn one_behaviour_relaunches_on_a_lapse() {
    only_files(
        &["crates/core/src/supervise.rs"],
        "PR 38: a second behaviour that relaunches on a lapse",
        grep(&files(&["crates/*/src"]), fixed("\"onServiceExpired\" =>")),
    );
}

// ── One store group (PR 39) ──────────────────────────────────────────────
//
// The framework cluster and every shard group are a `StoreCluster`, the one
// place a replica is spawned, respawned, replaced and rebuilt.

/// A `StoreReplica::new(` or `DiskImage::open_or_reset(` under
/// `crates/*/src` or `examples` outside `crates/store/src` is a hand-built
/// replica or respawn factory growing back.
#[test]
fn replicas_are_built_by_their_cluster() {
    let hits = grep(
        &files(&["crates/*/src", "examples"]),
        re("StoreReplica::new\\(|DiskImage::open_or_reset\\("),
    );
    none(
        "PR 39: a hand-built replica or respawn factory",
        except(hits, re("^crates/store/src/")),
    );
}

/// A `fn respawn_replica` under `crates/store` is the respawn that reused
/// the live image and fenced nothing.
#[test]
fn no_unfenced_respawn() {
    none(
        "PR 39: the respawn that reused the live image",
        grep(&files(&["crates/store"]), re("fn respawn_replica")),
    );
}

/// A second `fn fresh_disk` is a second spawn helper.
#[test]
fn one_fresh_disk() {
    exactly(
        1,
        "PR 39: a second spawn helper (`fn fresh_disk`)",
        grep(
            &files(&["crates", "tests", "examples"]),
            re("fn fresh_disk"),
        ),
    );
}

/// A second durable disk wired to the fault hub is a second spawn helper.
#[test]
fn one_disk_wired_to_the_fault_hub() {
    exactly(
        1,
        "PR 39: a second durable disk wired to the fault hub",
        grep(
            &files(&["crates/*/src", "examples"]),
            fixed("with_faults(net.storage_faults()"),
        ),
    );
}

// ── One compaction rule (PR 40) ──────────────────────────────────────────

/// A replica compacts its log once compacting would at least halve its
/// disk, between a 256 KiB floor and the cap `compact_threshold` names, in
/// `Wal::maybe_compact` alone: a second read of `config.compact_threshold`
/// in `wal.rs` is a second gate growing back.
#[test]
fn one_compaction_gate() {
    exactly(
        1,
        "PR 40: a second compaction gate",
        grep(
            &files(&["crates/store/src/wal.rs"]),
            re("config.compact_threshold"),
        ),
    );
}

/// A snapshot is one buffer sized from the live state, its records framed
/// in place: `encode_payload(` inside `encode_snapshot` is the per-record
/// `Vec` growing back.
#[test]
fn a_snapshot_frames_its_records_in_place() {
    let inside = ranges(
        "crates/store/src/wal.rs",
        re("fn encode_snapshot\\("),
        re("^}$"),
    );
    none(
        "PR 40: a per-record `Vec` in `encode_snapshot`",
        inside
            .into_iter()
            .filter(|hit| hit.text.contains("encode_payload("))
            .collect(),
    );
}

// ── Nothing kept that nothing uses ───────────────────────────────────────

/// `AceEnvironment::upgrade_daemon` is the one driver of a live upgrade: a
/// `live_upgrade(` call anywhere else under `crates/*/src` is a second
/// driver, like the Supervisor's `upgradeService`, growing back.
#[test]
fn one_upgrade_driver() {
    let hits = grep(&files(&["crates/*/src"]), fixed("live_upgrade("));
    in_files(
        &["crates/env/src/upgrade.rs"],
        "a second live-upgrade driver (`live_upgrade(` outside the environment)",
        except(hits, fixed("pub fn live_upgrade(")),
    );
}

/// The Net Logger keeps records only (§4.14): an `"event"` or
/// `"queryEvents"` arm, or an `EventRecord`, is the typed-event store that
/// no daemon sent anything to growing back.
#[test]
fn the_logger_keeps_records_only() {
    none(
        "the Net Logger's typed-event store",
        grep(
            &files(&["crates/directory/src/netlogger.rs"]),
            re("\"event\"|\"queryEvents\"|EventRecord"),
        ),
    );
}

/// A swap writes nothing that nothing reads: a `PersistFn` or an
/// `UpgradeError::Persist` is the sealed snapshot written to the store
/// inside the swap's pause growing back.
#[test]
fn no_upgrade_snapshot_persist() {
    none(
        "the write-only upgrade snapshot",
        grep(
            &files(&["crates", "tests", "examples", "src", "benchmark/src"]),
            re("PersistFn|UpgradeError::Persist"),
        ),
    );
}

// ── No discarded reply ───────────────────────────────────────────────────

/// A reply nobody reads is a failure nobody sees: the HAL's load report
/// discarded its answer from the start, so a report that failed left no
/// trace.  A call's failure is handled (counted, logged); a send whose
/// answer nobody needs is a cast, and its comment names the counter at the
/// receiver, by verb, that reads its failure.
#[test]
fn no_discarded_reply() {
    none(
        "a discarded call reply (`let _ = ctx.call`, the HAL's load report)",
        grep(&files(&["crates/*/src"]), fixed("let _ = ctx.call")),
    );
}

// ── The matcher itself ───────────────────────────────────────────────────

#[test]
fn the_matcher_reads_patterns_as_grep_does() {
    let cases: &[(&'static str, &str, bool)] = &[
        ("ctx.call", "ctx.call(", true),
        ("ctx.call", "ctx_call", true),
        ("\\.call\\(", "x.call(", true),
        ("\\.call\\(", "x_call(", false),
        (
            "self\\.[a-z_]+ = ctx\\.lookup",
            "self.hal = ctx.lookup(x)",
            true,
        ),
        (
            "self\\.[a-z_]+ = ctx\\.lookup",
            "self. = ctx.lookup(x)",
            false,
        ),
        (
            "^    [a-z_]+: .*Vec<u8>.*,$",
            "    value: Option<Vec<u8>>,",
            true,
        ),
        ("^    [a-z_]+: .*Vec<u8>.*,$", "     value: Vec<u8>,", false),
        (
            "^    [a-z_]+: .*Vec<u8>.*,$",
            "    value: Vec<u8>, // x",
            false,
        ),
        ("static [A-Za-z_]+ *:", "static WIRE: X", true),
        ("static [A-Za-z_]+ *:", "static mut X: Y", false),
        ("^    }$", "    }", true),
        ("^    }$", "    },", false),
        ("a|b", "b", true),
        ("Map<.*Vec<u8>", "HashMap<K, Vec<u8>>", true),
        ("fn replace(&mut self)", "fn replace(&mut self)", true),
    ];
    for &(pattern, line, expected) in cases {
        assert_eq!(re(pattern)(line), expected, "`{pattern}` on `{line}`");
    }
}
