//! Unified per-daemon observability (§2.4 Net Logger companion).
//!
//! Every daemon owns one [`MetricsRegistry`] — a lock-cheap bag of named
//! [`Counter`]s, [`Gauge`]s, and fixed-bucket latency [`Histogram`]s that the
//! runtime feeds automatically: per-verb service time, control-queue depth and
//! wait, notify fan-out latency and drops, link seal/open bytes, retry
//! backoffs, and (via [`ServiceBehavior::on_stats`]) whatever the service
//! itself wants to export, e.g. WAL batch stats from the store.
//!
//! The registry is pulled, never pushed: the standard `aceStats` verb
//! answers with a [`RegistrySnapshot`] rendered as homogeneous string arrays
//! (`counters`, `gauges`, `histograms`), optionally narrowed by `prefix=`
//! and parseable back via [`StatsReport::from_cmdline`].  Nothing leaves a
//! daemon unasked, so a series costs no wire bytes until someone reads it —
//! which is what lets every daemon keep what it sends by verb:
//! `wire.<verb>.frames|bytes` for frames out through its `LinkPool`,
//! `wire.reply.<verb>.frames|bytes` for its answers to `<verb>`
//! (`aceStats prefix=wire.`).
//!
//! Handles are `Arc`s over atomics: the registry lock is touched only on
//! first use of a name, never on the hot path.
//!
//! [`ServiceBehavior::on_stats`]: crate::behavior::ServiceBehavior::on_stats
//!
//! ```
//! use ace_core::metrics::MetricsRegistry;
//! use std::time::Duration;
//!
//! let reg = MetricsRegistry::new();
//! reg.counter("cmd.errors").incr();
//! reg.gauge("queue.depth").set(3);
//! let h = reg.histogram("cmd.ping");
//! h.record(Duration::from_micros(120));
//! let snap = reg.snapshot();
//! assert_eq!(snap.counters["cmd.errors"], 1);
//! assert_eq!(snap.histograms["cmd.ping"].count, 1);
//! ```

use ace_lang::{CmdLine, Reply, Scalar, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Duration;

/// A monotonically increasing event count.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Add one.
    pub fn incr(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

/// An instantaneous signed level (queue depth, bytes resident, …).
#[derive(Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    pub fn new() -> Gauge {
        Gauge(AtomicI64::new(0))
    }

    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjust by `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for Gauge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gauge({})", self.get())
    }
}

/// Number of histogram buckets.  Bucket `i ≥ 1` covers durations in
/// `[2^(i-1), 2^i)` microseconds; bucket 0 is exactly 0µs.  The top bucket
/// (`2^26`µs ≈ 67s and beyond) is open-ended — far past any command timeout.
pub const HISTOGRAM_BUCKETS: usize = 28;

/// A fixed-bucket latency histogram over power-of-two microsecond buckets.
///
/// Recording is three relaxed atomic ops (bucket, count+sum, max); quantile
/// extraction walks the 28 buckets with linear interpolation inside the
/// target bucket, so p99 error is bounded by the bucket width (≤ 2x).
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }

    fn bucket_index(us: u64) -> usize {
        ((64 - us.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Inclusive lower bound of bucket `i`, in microseconds.
    fn bucket_floor(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Exclusive upper bound of bucket `i`, in microseconds.
    fn bucket_ceil(i: usize) -> u64 {
        1u64 << i
    }

    /// Record one observation.
    pub fn record(&self, d: Duration) {
        self.record_us(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Record one observation given directly in microseconds.
    pub fn record_us(&self, us: u64) {
        self.buckets[Self::bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy suitable for quantile extraction.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum_us: self.sum_us.load(Ordering::Relaxed),
            max_us: self.max_us.load(Ordering::Relaxed),
        }
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.snapshot();
        write!(
            f,
            "Histogram(count={}, p50={:.0}us, p99={:.0}us, max={}us)",
            s.count,
            s.quantile(0.5),
            s.quantile(0.99),
            s.max_us
        )
    }
}

/// Frozen histogram state with quantile extraction.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    pub count: u64,
    pub sum_us: u64,
    pub max_us: u64,
}

impl HistogramSnapshot {
    /// The `q`-quantile (`q` in `[0, 1]`) in microseconds, interpolated
    /// linearly inside the covering bucket and clamped to the observed max.
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).max(1.0);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let next = cum + n;
            if (next as f64) >= rank {
                let lo = Histogram::bucket_floor(i) as f64;
                let hi = Histogram::bucket_ceil(i) as f64;
                let frac = (rank - cum as f64) / n as f64;
                return (lo + (hi - lo) * frac).min(self.max_us as f64);
            }
            cum = next;
        }
        self.max_us as f64
    }

    /// Arithmetic mean in microseconds (0 for an empty histogram).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }
}

/// A lock-cheap bag of named metrics.  Lookup by name takes a read lock;
/// callers hold the returned `Arc` handle and thereafter touch only atomics.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
    /// `wire.*`: what this registry's pools send, made by the first pool.
    wire_out: OnceLock<Arc<WireCounts>>,
    /// `wire.reply.*`: what the daemon answers, made by its first session.
    wire_replies: OnceLock<Arc<WireCounts>>,
}

fn get_or_create<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(v) = map
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .get(name)
        .cloned()
    {
        return v;
    }
    let mut w = map.write().unwrap_or_else(|e| e.into_inner());
    Arc::clone(w.entry(name.to_string()).or_default())
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Get-or-create the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_create(&self.counters, name)
    }

    /// Get-or-create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_create(&self.gauges, name)
    }

    /// Get-or-create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_create(&self.histograms, name)
    }

    /// Where the links of a pool count what they send: `wire.<verb>.*`.
    pub(crate) fn wire_out(&self) -> Arc<WireCounts> {
        let counts = self.wire_out.get_or_init(|| WireCounts::new("wire."));
        Arc::clone(counts)
    }

    /// Where a daemon's sessions count its answers: `wire.reply.<verb>.*`.
    pub(crate) fn wire_replies(&self) -> Arc<WireCounts> {
        let counts = self
            .wire_replies
            .get_or_init(|| WireCounts::new("wire.reply."));
        Arc::clone(counts)
    }

    /// Freeze every metric into a point-in-time snapshot.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let mut counters: BTreeMap<String, u64> = self
            .counters
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        for wire in [&self.wire_out, &self.wire_replies] {
            if let Some(wire) = wire.get() {
                wire.render_into(&mut counters);
            }
        }
        RegistrySnapshot {
            counters,
            gauges: self
                .gauges
                .read()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

impl fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("MetricsRegistry")
    }
}

/// Frames sent and their sealed bytes (the unit of `SimNet::metrics()`), by
/// verb, for every link that counts here.  A snapshot reads them as the
/// counters `<prefix><verb>.frames` and `<prefix><verb>.bytes`; they are not
/// counters of the registry's own map, because a daemon pays for each of
/// those a name, a handle and a map slot, and E22 packs 10,000 daemons into
/// one process.  A frame takes this table's read lock, never the registry's
/// lock; a verb's first frame takes its write lock once.
pub(crate) struct WireCounts {
    prefix: &'static str,
    verbs: RwLock<Vec<WireLine>>,
}

struct WireLine {
    verb: Box<str>,
    frames: AtomicU64,
    bytes: AtomicU64,
}

impl WireLine {
    fn add(&self, bytes: usize) {
        self.frames.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

impl WireCounts {
    fn new(prefix: &'static str) -> Arc<WireCounts> {
        Arc::new(WireCounts {
            prefix,
            verbs: RwLock::new(Vec::new()),
        })
    }

    /// One frame of `verb`, `bytes` long as sealed.
    pub(crate) fn count(&self, verb: &str, bytes: usize) {
        let find = |lines: &[WireLine]| lines.iter().position(|line| *line.verb == *verb);
        {
            let lines = self.verbs.read().unwrap_or_else(|e| e.into_inner());
            if let Some(at) = find(&lines) {
                return lines[at].add(bytes);
            }
        }
        let mut lines = self.verbs.write().unwrap_or_else(|e| e.into_inner());
        // Another link may have added the verb between the two locks.
        let at = find(&lines).unwrap_or_else(|| {
            // A table holds a handful of verbs: grow by one, not four.
            lines.reserve_exact(1);
            lines.push(WireLine {
                verb: verb.into(),
                frames: AtomicU64::new(0),
                bytes: AtomicU64::new(0),
            });
            lines.len() - 1
        });
        lines[at].add(bytes);
    }

    fn render_into(&self, counters: &mut BTreeMap<String, u64>) {
        let lines = self.verbs.read().unwrap_or_else(|e| e.into_inner());
        for line in lines.iter() {
            let (verb, prefix) = (&line.verb, self.prefix);
            let frames = line.frames.load(Ordering::Relaxed);
            counters.insert(format!("{prefix}{verb}.frames"), frames);
            let bytes = line.bytes.load(Ordering::Relaxed);
            counters.insert(format!("{prefix}{verb}.bytes"), bytes);
        }
    }
}

/// A frozen registry, ready to encode as an `aceStats` reply.
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

fn str_row(cells: Vec<String>) -> Vec<Scalar> {
    cells.into_iter().map(Scalar::Str).collect()
}

impl RegistrySnapshot {
    /// Drop every metric whose name does not start with `prefix`.
    pub fn retain_prefix(&mut self, prefix: &str) {
        self.counters.retain(|k, _| k.starts_with(prefix));
        self.gauges.retain(|k, _| k.starts_with(prefix));
        self.histograms.retain(|k, _| k.starts_with(prefix));
    }

    /// The `aceStats` reply for this snapshot: three wire arrays whose rows
    /// are homogeneous all-string cells (the array grammar requires one
    /// scalar type across the whole array, and metric names are dotted, so
    /// nothing fits a bare word).
    pub fn to_reply(&self) -> Reply {
        let counters: Vec<Vec<Scalar>> = self
            .counters
            .iter()
            .map(|(k, v)| str_row(vec![k.clone(), v.to_string()]))
            .collect();
        let gauges: Vec<Vec<Scalar>> = self
            .gauges
            .iter()
            .map(|(k, v)| str_row(vec![k.clone(), v.to_string()]))
            .collect();
        let histograms: Vec<Vec<Scalar>> = self
            .histograms
            .iter()
            .map(|(k, h)| {
                str_row(vec![
                    k.clone(),
                    h.count.to_string(),
                    format!("{:.1}", h.quantile(0.50)),
                    format!("{:.1}", h.quantile(0.90)),
                    format!("{:.1}", h.quantile(0.99)),
                    h.max_us.to_string(),
                    format!("{:.1}", h.mean_us()),
                ])
            })
            .collect();
        Reply::ok_with(|mut cmd| {
            if !counters.is_empty() {
                cmd.push_arg("counters", Value::Array(counters));
            }
            if !gauges.is_empty() {
                cmd.push_arg("gauges", Value::Array(gauges));
            }
            if !histograms.is_empty() {
                cmd.push_arg("histograms", Value::Array(histograms));
            }
            cmd
        })
    }
}

/// Per-histogram quantiles as decoded from an `aceStats` reply.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileRow {
    pub count: u64,
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
    pub max_us: u64,
    pub mean_us: f64,
}

/// Client-side decoded view of an `aceStats` reply (or of any command
/// carrying its three arrays).
#[derive(Debug, Clone, Default)]
pub struct StatsReport {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub histograms: BTreeMap<String, QuantileRow>,
}

impl StatsReport {
    /// Decode the three stats arrays out of a reply result.
    /// Rows that do not parse are skipped (forward compatibility beats
    /// strictness on the read side).
    pub fn from_cmdline(cmd: &CmdLine) -> StatsReport {
        fn cell(row: &[Scalar], i: usize) -> Option<&str> {
            row.get(i).and_then(Scalar::as_text)
        }
        let mut report = StatsReport::default();
        if let Some(rows) = cmd.get_array("counters") {
            for row in rows {
                if let (Some(name), Some(v)) = (cell(row, 0), cell(row, 1)) {
                    if let Ok(v) = v.parse::<u64>() {
                        report.counters.insert(name.to_string(), v);
                    }
                }
            }
        }
        if let Some(rows) = cmd.get_array("gauges") {
            for row in rows {
                if let (Some(name), Some(v)) = (cell(row, 0), cell(row, 1)) {
                    if let Ok(v) = v.parse::<i64>() {
                        report.gauges.insert(name.to_string(), v);
                    }
                }
            }
        }
        if let Some(rows) = cmd.get_array("histograms") {
            for row in rows {
                let parsed = (|| {
                    Some((
                        cell(row, 0)?.to_string(),
                        QuantileRow {
                            count: cell(row, 1)?.parse().ok()?,
                            p50_us: cell(row, 2)?.parse().ok()?,
                            p90_us: cell(row, 3)?.parse().ok()?,
                            p99_us: cell(row, 4)?.parse().ok()?,
                            max_us: cell(row, 5)?.parse().ok()?,
                            mean_us: cell(row, 6)?.parse().ok()?,
                        },
                    ))
                })();
                if let Some((name, row)) = parsed {
                    report.histograms.insert(name, row);
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let reg = MetricsRegistry::new();
        reg.counter("a").incr();
        reg.counter("a").add(4);
        reg.gauge("g").set(7);
        reg.gauge("g").add(-2);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["a"], 5);
        assert_eq!(snap.gauges["g"], 5);
        // Handles are shared, not cloned-by-value.
        let h = reg.counter("a");
        h.incr();
        assert_eq!(reg.snapshot().counters["a"], 6);
    }

    #[test]
    fn histogram_buckets_cover_the_line() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        for i in 1..HISTOGRAM_BUCKETS - 1 {
            // Floors and ceils tile the line with no gaps.
            assert_eq!(
                Histogram::bucket_ceil(i - 1),
                Histogram::bucket_floor(i).max(1)
            );
        }
    }

    #[test]
    fn histogram_quantiles_are_sane() {
        let h = Histogram::new();
        for us in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 10_000] {
            h.record_us(us);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10);
        assert_eq!(s.max_us, 10_000);
        let p50 = s.quantile(0.50);
        let p90 = s.quantile(0.90);
        let p99 = s.quantile(0.99);
        assert!(p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
        assert!(p99 <= s.max_us as f64);
        // p50 of mostly-tens values sits in the tens, not the thousands.
        assert!((8.0..=128.0).contains(&p50), "{p50}");
        // p99 must land in the outlier's bucket region.
        assert!(p99 >= 1_000.0, "{p99}");
        assert!((s.mean_us() - 1_045.0).abs() < 1.0);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.mean_us(), 0.0);
    }

    #[test]
    fn snapshot_round_trips_through_reply() {
        let reg = MetricsRegistry::new();
        reg.counter("cmd.errors").add(3);
        reg.gauge("queue.depth").set(2);
        let h = reg.histogram("cmd.ping");
        for us in [100u64, 200, 300] {
            h.record_us(us);
        }
        let reply = reg.snapshot().to_reply();
        let result = reply.result().expect("ok reply").clone();
        // The encoded form survives the wire grammar.
        let wire = result.to_wire();
        let parsed = CmdLine::parse(&wire).expect("wire parse");
        let report = StatsReport::from_cmdline(&parsed);
        assert_eq!(report.counters["cmd.errors"], 3);
        assert_eq!(report.gauges["queue.depth"], 2);
        let row = &report.histograms["cmd.ping"];
        assert_eq!(row.count, 3);
        assert!(row.p50_us <= row.p99_us);
        assert_eq!(row.max_us, 300);
    }

    #[test]
    fn retain_prefix_filters_all_kinds() {
        let reg = MetricsRegistry::new();
        reg.counter("cmd.a").incr();
        reg.counter("notify.drops").incr();
        reg.gauge("cmd.depth").set(1);
        reg.histogram("notify.latency").record_us(5);
        let mut snap = reg.snapshot();
        snap.retain_prefix("notify.");
        assert_eq!(snap.counters.len(), 1);
        assert!(snap.gauges.is_empty());
        assert_eq!(snap.histograms.len(), 1);
    }
}
