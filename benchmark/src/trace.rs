//! Spans recorded by the generator around its calls into the system.
//!
//! One root span per operation (id, kind, due/start/end) with one child per
//! call the lane makes on the operation's behalf.  A lane is sequential, so
//! children never overlap and an operation's *self time* is simply its
//! duration minus the sum of its children.  Spans stay in memory and are
//! written to `out/trace-<workload>.json` when the run ends.
//!
//! With tracing off, `begin` returns `None` and nothing is recorded; the
//! end-to-end metrics always come from an untraced run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Child {
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug, Clone, Copy)]
pub struct Root {
    pub op: u32,
    pub kind: &'static str,
    pub due_ns: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub ok: bool,
}

/// One lane's span recorder.
pub struct Tracer {
    /// Spans are recorded only while this is set.
    pub enabled: bool,
    epoch: Instant,
    pub roots: Vec<Root>,
    pub children: Vec<Child>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            roots: Vec::new(),
            children: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Start a child span; pass the token to [`Tracer::end`].
    #[inline]
    pub fn begin(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    #[inline]
    pub fn end(&mut self, token: Option<Instant>, op: u32, name: &'static str) {
        if let Some(start) = token {
            let child = Child {
                op,
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(Instant::now()),
            };
            self.children.push(child);
        }
    }

    pub fn root(
        &mut self,
        op: u32,
        kind: &'static str,
        due: Instant,
        start: Instant,
        end: Instant,
        ok: bool,
    ) {
        if self.enabled {
            let root = Root {
                op,
                kind,
                due_ns: self.ns(due),
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                ok,
            };
            self.roots.push(root);
        }
    }
}

/// What the spans of a phase add up to.
#[derive(Debug, Default)]
pub struct TraceSummary {
    /// Child durations in µs by span name.
    pub by_name: BTreeMap<&'static str, Vec<f64>>,
    /// Per operation kind: (operations, total µs, µs inside children).
    pub by_kind: BTreeMap<&'static str, (u64, f64, f64)>,
    pub spans: u64,
    pub op_time_us: f64,
    pub child_time_us: f64,
}

impl TraceSummary {
    /// Share of operation time (start → end) that child spans account for.
    pub fn coverage(&self) -> f64 {
        if self.op_time_us > 0.0 {
            self.child_time_us / self.op_time_us
        } else {
            0.0
        }
    }

    pub fn mean_us(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .and_then(|v| crate::stats::mean(v))
            .unwrap_or(0.0)
    }

    pub fn percentile_us(&self, name: &str, q: f64) -> f64 {
        self.by_name
            .get(name)
            .and_then(|v| crate::stats::percentile(v, q))
            .unwrap_or(0.0)
    }

    pub fn count(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |v| v.len() as u64)
    }
}

pub fn summarize(tracers: &[&Tracer]) -> TraceSummary {
    let mut summary = TraceSummary::default();
    for tracer in tracers {
        let mut child_by_op: BTreeMap<u32, f64> = BTreeMap::new();
        for child in &tracer.children {
            let us = (child.end_ns - child.start_ns) as f64 / 1e3;
            summary.by_name.entry(child.name).or_default().push(us);
            *child_by_op.entry(child.op).or_default() += us;
            summary.spans += 1;
        }
        for root in &tracer.roots {
            let us = (root.end_ns - root.start_ns) as f64 / 1e3;
            let inside = child_by_op.get(&root.op).copied().unwrap_or(0.0);
            let kind = summary.by_kind.entry(root.kind).or_default();
            kind.0 += 1;
            kind.1 += us;
            kind.2 += inside;
            summary.op_time_us += us;
            summary.child_time_us += inside;
            summary.spans += 1;
        }
    }
    summary
}

/// Cost of recording one child span, measured on a scratch tracer: the
/// per-span price the traced run paid, which times the span count over
/// total operation time is `loadgen.trace_overhead_share`.
pub fn span_cost_ns() -> f64 {
    const N: u32 = 200_000;
    let mut scratch = Tracer::new(true, Instant::now());
    scratch.children.reserve(N as usize);
    let started = Instant::now();
    for op in 0..N {
        let token = scratch.begin();
        scratch.end(std::hint::black_box(token), op, "calibration");
    }
    let elapsed = started.elapsed().as_nanos() as f64;
    std::hint::black_box(&scratch.children);
    elapsed / N as f64
}

/// The trace file: one object per operation, children inline, times in ns
/// since the start of the traced phase's warm-up.
pub fn to_json(workload: &str, seed: u64, tracers: &[&Tracer]) -> String {
    let mut out = String::with_capacity(1 << 20);
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"time_unit\":\"ns since warm-up start\",\
         \"span_fields\":[\"name\",\"start\",\"end\"],\"ops\":["
    );
    let mut first = true;
    for (lane, tracer) in tracers.iter().enumerate() {
        let mut children: BTreeMap<u32, Vec<&Child>> = BTreeMap::new();
        for child in &tracer.children {
            children.entry(child.op).or_default().push(child);
        }
        for root in &tracer.roots {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n{{\"id\":{},\"lane\":{lane},\"kind\":\"{}\",\"due\":{},\"start\":{},\"end\":{},\"ok\":{},\"spans\":[",
                root.op, root.kind, root.due_ns, root.start_ns, root.end_ns, root.ok
            );
            for (i, child) in children.get(&root.op).into_iter().flatten().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "[\"{}\",{},{}]",
                    child.name, child.start_ns, child.end_ns
                );
            }
            out.push_str("]}");
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_root_minus_children() {
        let epoch = Instant::now();
        let mut t = Tracer::new(true, epoch);
        let at = |us: u64| epoch + Duration::from_micros(us);
        t.children.push(Child {
            op: 1,
            name: "a",
            start_ns: 10_000,
            end_ns: 40_000,
        });
        t.children.push(Child {
            op: 1,
            name: "b",
            start_ns: 50_000,
            end_ns: 90_000,
        });
        t.root(1, "kind", at(0), at(5), at(105), true);
        let s = summarize(&[&t]);
        assert_eq!(s.by_kind["kind"].0, 1);
        assert!((s.op_time_us - 100.0).abs() < 1e-9);
        assert!((s.child_time_us - 70.0).abs() < 1e-9);
        assert!((s.coverage() - 0.7).abs() < 1e-9);
        assert_eq!(s.count("a"), 1);
        assert!((s.mean_us("b") - 40.0).abs() < 1e-9);
        let json = to_json("w", 3, &[&t]);
        assert!(json.contains("\"kind\":\"kind\"") && json.contains("[\"a\",10000,40000]"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let token = t.begin();
        assert!(token.is_none());
        t.end(token, 1, "x");
        t.root(1, "k", Instant::now(), Instant::now(), Instant::now(), true);
        assert!(t.roots.is_empty() && t.children.is_empty());
        assert!(span_cost_ns() > 0.0);
    }
}
