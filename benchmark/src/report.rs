//! Metric manifest, output formats, and `acebench compare`.

use crate::json::{self, Json};
use crate::run::{Metric, RunResult};
use crate::schedule::Workload;
use crate::stats::{iqr_over_median, median};
use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

use Better::{Higher, Lower};

/// The gated metrics, at the bounds the issue fixed for them — except
/// `setup_s`, which the benchmark contract wants gated whatever it does and
/// given the largest bound (its spread over ten runs is 4–24 % here).
///
/// The issue named six more.  It also ruled that a metric which cannot be
/// made to repeat inside its bound is demoted to a printed per-layer
/// metric and its bound is not widened, and on this box no timed metric
/// repeats inside 10 %: the host changes speed by a fifth to a third for
/// minutes at a time (README, "Metrics the issue named that are not
/// gated").  `goodput_ops_s`, `p50_us`, `p90_us`, `cpu_us_per_op`,
/// `fail_share` and `stall_ms` are therefore the first `loadgen.*` rows
/// and `upgrade.stall_ms` of [`PER_LAYER`].
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "wire_bytes_per_op",
        unit: "B",
        better: Lower,
        bound: 0.03,
    },
    EndToEnd {
        name: "rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.10,
    },
];

const fn l(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The ungated per-layer metrics, in the order of the README's layer table.
pub const PER_LAYER: &[PerLayer] = &[
    l("loadgen.offered_ops_s", "ops/s", Higher),
    l("loadgen.late_p99_us", "us", Lower),
    l("loadgen.late_share", "ratio", Lower),
    l("loadgen.goodput_ops_s", "ops/s", Higher),
    l("loadgen.p50_us", "us", Lower),
    l("loadgen.p90_us", "us", Lower),
    l("loadgen.cpu_us_per_op", "us", Lower),
    l("loadgen.fail_share", "ratio", Lower),
    l("loadgen.p99_us", "us", Lower),
    l("loadgen.max_us", "us", Lower),
    l("loadgen.samples", "count", Higher),
    l("loadgen.trace_overhead_share", "ratio", Lower),
    l("loadgen.span_coverage", "ratio", Higher),
    l("loadgen.represses", "count", Lower),
    l("lang.parse_ns_per_cmd", "ns", Lower),
    l("lang.validate_ns_per_cmd", "ns", Lower),
    l("lang.render_ns_per_cmd", "ns", Lower),
    l("lang.wire_bytes_per_cmd", "B", Lower),
    l("cipher.seal_ns_per_frame", "ns", Lower),
    l("cipher.open_ns_per_frame", "ns", Lower),
    l("cipher.handshake_us", "us", Lower),
    l("cipher.resume_us", "us", Lower),
    l("keynote.check_miss_us", "us", Lower),
    l("keynote.check_hit_us", "us", Lower),
    l("keynote.cache_hit_ratio", "ratio", Higher),
    l("keynote.credential_fetches_per_op", "1/op", Lower),
    l("protocol.hex_encode_ns_per_kib", "ns", Lower),
    l("protocol.hex_decode_ns_per_kib", "ns", Lower),
    l("net.frames_per_op", "1/op", Lower),
    l("net.bytes_per_frame", "B", Lower),
    l("net.connections_per_op", "1/op", Lower),
    l("net.datagrams_per_op", "1/op", Lower),
    l("link.ping_rtt_us", "us", Lower),
    l("pool.checkout_us", "us", Lower),
    l("pool.reuse_ratio", "ratio", Higher),
    l("link.resume_ratio", "ratio", Higher),
    l("link.full_handshakes", "count", Lower),
    l("daemon.queue_wait_mean_us", "us", Lower),
    l("daemon.shell_overhead_us", "us", Lower),
    l("daemon.busy_share_max", "ratio", Lower),
    l("daemon.cmd_errors", "count", Lower),
    l("daemon.cmd_rejected", "count", Lower),
    l("admission.admitted_per_op", "1/op", Lower),
    l("admission.shed_per_op", "1/op", Lower),
    l("admission.deadline_shed_per_op", "1/op", Lower),
    l("notify.delivered_per_op", "1/op", Lower),
    l("notify.drops", "count", Lower),
    l("notify.latency_mean_us", "us", Lower),
    l("notify.chain_us", "us", Lower),
    l("notify.hops_per_op", "1/op", Lower),
    l("failover.resolutions_per_op", "1/op", Lower),
    l("failover.cache_hit_ratio", "ratio", Higher),
    l("failover.retries_per_op", "1/op", Lower),
    l("breaker.fast_fails", "count", Lower),
    l("runtime.polls_per_op", "1/op", Lower),
    l("runtime.long_polls", "count", Lower),
    l("runtime.tasks_live", "count", Lower),
    l("runtime.workers", "count", Lower),
    l("supervise.upgrade_pause_p50_ms", "ms", Lower),
    l("supervise.restore_p50_ms", "ms", Lower),
    l("supervise.crash_recovery_ms", "ms", Lower),
    l("upgrade.stall_ms", "ms", Lower),
    l("directory.lookup_name_us", "us", Lower),
    l("directory.lookup_fanout_us", "us", Lower),
    l("directory.register_us", "us", Lower),
    l("directory.fanouts_per_op", "1/op", Lower),
    l("directory.repairs", "count", Lower),
    l("directory.replica_failover_ms", "ms", Lower),
    l("directory.partial_answers", "count", Lower),
    l("asd.lookup_service_mean_us", "us", Lower),
    l("asd.entries", "count", Lower),
    l("identity.press_sync_us", "us", Lower),
    l("identity.press_service_mean_us", "us", Lower),
    l("identity.find_service_mean_us", "us", Lower),
    l("identity.set_location_service_mean_us", "us", Lower),
    l("workspace.user_at_service_mean_us", "us", Lower),
    l("resources.launch_service_mean_us", "us", Lower),
    l("netlogger.log_service_mean_us", "us", Lower),
    l("netlogger.shed_records", "count", Lower),
    l("store.get_p50_us", "us", Lower),
    l("store.get_p90_us", "us", Lower),
    l("store.put_p50_us", "us", Lower),
    l("store.put_p90_us", "us", Lower),
    l("store.put_many_us_per_key", "us", Lower),
    l("store.ingest_p50_us", "us", Lower),
    l("store.leased_read_ratio", "ratio", Higher),
    l("store.lease_grants", "count", Lower),
    l("store.lease_losses", "count", Lower),
    l("store.quorum_fallbacks", "count", Lower),
    l("store.degraded_writes", "count", Lower),
    l("store.rebuild_ms", "ms", Lower),
    l("replica.put_service_mean_us", "us", Lower),
    l("replica.get_leased_service_mean_us", "us", Lower),
    l("replica.put_batch_service_mean_us", "us", Lower),
    l("wal.appends_per_write", "1/op", Lower),
    l("wal.records_per_fsync", "ratio", Higher),
    l("wal.bytes_per_user_byte", "ratio", Lower),
    l("wal.compactions", "count", Lower),
    l("wal.apply_us", "us", Lower),
    l("proc.threads", "count", Lower),
    l("proc.ctx_switches_per_op", "1/op", Lower),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|e| (e.name, e.unit))
        .chain(PER_LAYER.iter().map(|p| (p.name, p.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// Why each workload exists, for `BENCHMARK.json`.
pub fn why(workload: Workload) -> &'static str {
    match workload {
        Workload::LoginRush => "500 logins/s open loop: the six-daemon notification cascade (FIU, AUD, ID Monitor, WSS, SAL, sink) on tiny messages; directory, store and KeyNote idle",
        Workload::DeviceRoam => "2500 device commands/s by 200 roaming users: shell floor on small commands, directory fan-out, resolution cache, pooled and resumed links, KeyNote with AuthDB fetch; store and notify idle",
        Workload::StoreMixed => "500 store ops/s, Zipf keys: leased gets, 1 KiB quorum puts, media frames, 0.3 % batches; hex codec, WAL. O(keyspace) digest cost held down on purpose: 4000 keys not 20000, anti-entropy 5 s not 200 ms",
        Workload::BuildingDay => "150 logins + 600 device + 300 store ops/s at once under six live upgrades, a store replica rebuild, a directory replica crash and a supervised restart: every layer used contended and disturbed",
    }
}

/// `BENCHMARK.json`, generated from the constants above so the file and
/// the program cannot drift apart (`acebench manifest`).
pub fn manifest(run_seconds: u32) -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {run_seconds},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in Workload::ALL.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"why\": {}}}{}",
            json::quote(w.name()),
            json::quote(why(*w)),
            if i + 1 < Workload::ALL.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, e) in END_TO_END.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{}",
            e.name,
            e.unit,
            e.better.word(),
            e.bound,
            if i + 1 < END_TO_END.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, p) in PER_LAYER.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{}",
            p.name,
            p.unit,
            p.better.word(),
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

fn metrics_object(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json::quote(m.name),
                json::number(m.value),
                json::quote(unit_of(m.name))
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// The driver contract's last line: exactly `correct`, `attempted`,
/// `failed`, `metrics`.
pub fn driver_line(result: &RunResult, trace: bool) -> String {
    let metrics = if trace {
        &result.per_layer
    } else {
        &result.end_to_end
    };
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        result.correct,
        result.attempted,
        result.failed,
        metrics_object(metrics)
    )
}

/// `workload metric value unit`, one line per metric.
pub fn metric_lines(workload: Workload, metrics: &[Metric]) -> String {
    let mut out = String::new();
    for metric in metrics {
        let _ = writeln!(
            out,
            "{} {} {} {}",
            workload.name(),
            metric.name,
            json::number(metric.value),
            unit_of(metric.name)
        );
    }
    out
}

// ---------------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------------

/// `workload → metric → value` of one results file.
pub type Values = BTreeMap<String, BTreeMap<String, f64>>;

pub fn read_results(text: &str) -> Result<Values, String> {
    let doc = json::parse(text)?;
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_object)
        .ok_or("results file has no `workloads` object")?;
    let mut out = Values::new();
    for (workload, entry) in workloads {
        let metrics = entry
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or_else(|| format!("{workload}: no `metrics` object"))?;
        let values = metrics
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect();
        out.insert(workload.clone(), values);
    }
    Ok(out)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Improved,
    Regression,
    /// The runs of one set disagree among themselves by more than the
    /// bound: the comparison cannot tell, which is not the same as "no
    /// change".
    Unresolved,
}

#[derive(Debug, Clone)]
pub struct Comparison {
    pub workload: String,
    pub metric: String,
    pub median_a: f64,
    pub median_b: f64,
    /// How much worse B's median is than A's, as a share of A's (negative
    /// when B is better).
    pub worse_by: f64,
    pub spread_a: f64,
    pub spread_b: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Spread of a set of runs as a share of their median: the inter-quartile
/// range from four runs up, the full range below that (three runs have no
/// quartiles worth the name).
fn spread(values: &[f64]) -> f64 {
    if values.len() >= 4 {
        return iqr_over_median(values).unwrap_or(0.0);
    }
    let mid = median(values).unwrap_or(0.0);
    let (lo, hi) = values
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    if mid == 0.0 || values.is_empty() {
        0.0
    } else {
        (hi - lo) / mid.abs()
    }
}

/// Compare two sets of runs of the same workloads, gated metric by gated
/// metric, against the bounds of [`END_TO_END`].
pub fn compare(a: &[Values], b: &[Values]) -> Vec<Comparison> {
    let workloads: Vec<&String> = a.first().map(|v| v.keys().collect()).unwrap_or_default();
    workloads
        .into_iter()
        .flat_map(|w| END_TO_END.iter().map(move |e| (w, e)))
        .filter_map(|(workload, metric)| compare_metric(workload, metric, a, b))
        .collect()
}

fn compare_metric(
    workload: &str,
    metric: &EndToEnd,
    a: &[Values],
    b: &[Values],
) -> Option<Comparison> {
    let &EndToEnd {
        name,
        bound,
        better,
        ..
    } = metric;
    let series = |set: &[Values]| -> Vec<f64> {
        set.iter()
            .filter_map(|v| v.get(workload)?.get(name).copied())
            .collect()
    };
    let (va, vb) = (series(a), series(b));
    let (median_a, median_b) = (median(&va)?, median(&vb)?);
    let raw = if median_a == 0.0 {
        0.0
    } else {
        (median_b - median_a) / median_a.abs()
    };
    let worse_by = match better {
        Lower => raw,
        Higher => -raw,
    };
    let (spread_a, spread_b) = (spread(&va), spread(&vb));
    let is_worse = |x: f64, y: f64| match better {
        Lower => x > y,
        Higher => x < y,
    };
    // Every run of one side beats every run of the other.
    let separated = |winner: &[f64], loser: &[f64]| {
        winner
            .iter()
            .all(|&w| loser.iter().all(|&l| is_worse(l, w)))
    };
    let noisy = spread_a > bound || spread_b > bound;
    let verdict = if worse_by > bound {
        if noisy && !separated(&va, &vb) {
            Verdict::Unresolved
        } else {
            Verdict::Regression
        }
    } else if worse_by < -bound {
        if noisy && !separated(&vb, &va) {
            Verdict::Unresolved
        } else {
            Verdict::Improved
        }
    } else if noisy {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    };
    Some(Comparison {
        workload: workload.to_string(),
        metric: name.to_string(),
        median_a,
        median_b,
        worse_by,
        spread_a,
        spread_b,
        bound,
        verdict,
    })
}

pub fn comparison_table(rows: &[Comparison]) -> String {
    let mut out = String::from(
        "workload       metric              median A     median B   worse by  spread A  spread B   bound  verdict\n",
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<14} {:<18} {:>12.4} {:>12.4} {:>+9.2}% {:>8.2}% {:>8.2}% {:>6.1}%  {}",
            r.workload,
            r.metric,
            r.median_a,
            r.median_b,
            r.worse_by * 100.0,
            r.spread_a * 100.0,
            r.spread_b * 100.0,
            r.bound * 100.0,
            match r.verdict {
                Verdict::Unchanged => "unchanged",
                Verdict::Improved => "improved",
                Verdict::Regression => "REGRESSION",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(values: &[f64]) -> Vec<Values> {
        values
            .iter()
            .map(|&v| {
                let metrics = [("rss_mb".to_string(), v), ("rate".to_string(), v)].into();
                [("login_rush".to_string(), metrics)].into()
            })
            .collect()
    }

    fn verdict_of(rows: &[Comparison], metric: &str) -> Verdict {
        rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn compare_flags_regressions_improvements_and_noise() {
        // `rss_mb` is gated at 10 %, lower is better.
        let rss = |a: &[f64], b: &[f64]| verdict_of(&compare(&set(a), &set(b)), "rss_mb");
        let tight = [100.0, 101.0, 99.0];
        assert_eq!(rss(&tight, &[120.0, 121.0, 119.0]), Verdict::Regression);
        assert_eq!(rss(&tight, &[80.0, 81.0, 79.0]), Verdict::Improved);
        assert_eq!(rss(&tight, &[104.0, 105.0, 103.0]), Verdict::Unchanged);
        // Same medians, but one set disagrees with itself by 30 %.
        assert_eq!(rss(&[100.0, 115.0, 85.0], &tight), Verdict::Unresolved);
        // Noisy but fully separated: still a regression.
        let rows = compare(&set(&[100.0, 112.0, 90.0]), &set(&[150.0, 170.0, 140.0]));
        assert_eq!(verdict_of(&rows, "rss_mb"), Verdict::Regression);
        assert!(comparison_table(&rows).contains("REGRESSION"));
        // Every gated metric the files hold gets a row, and only those.
        assert_eq!(rows.len(), 1);

        // Where higher is better, +20 % is the improvement.
        let rate = EndToEnd {
            name: "rate",
            unit: "1/s",
            better: Higher,
            bound: 0.10,
        };
        let up = compare_metric(
            "login_rush",
            &rate,
            &set(&tight),
            &set(&[120.0, 121.0, 119.0]),
        );
        assert_eq!(up.unwrap().verdict, Verdict::Improved);
        let down = compare_metric("login_rush", &rate, &set(&tight), &set(&[80.0, 81.0, 79.0]));
        assert_eq!(down.unwrap().verdict, Verdict::Regression);
    }

    #[test]
    fn manifest_is_valid_json_with_unique_bounded_names() {
        let doc = json::parse(&manifest(20)).unwrap();
        let keys: Vec<&String> = doc.as_object().unwrap().keys().collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|e| e.name)
            .chain(PER_LAYER.iter().map(|p| p.name))
            .chain(Workload::ALL.iter().map(|w| w.name()))
            .collect();
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        // The issue's bounds; set-up time alone carries the contract's cap.
        let bounds: Vec<(&str, f64)> = END_TO_END.iter().map(|e| (e.name, e.bound)).collect();
        assert_eq!(
            bounds,
            [
                ("setup_s", 0.25),
                ("wire_bytes_per_op", 0.03),
                ("rss_mb", 0.10)
            ]
        );
        let ok_char = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        assert!(names
            .iter()
            .all(|n| n.len() <= 64 && n.chars().all(ok_char)));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(Workload::ALL.iter().all(|w| why(*w).len() <= 200));
    }

    #[test]
    fn results_round_trip_through_the_reader() {
        let result = RunResult {
            correct: true,
            attempted: 10,
            failed: 0,
            end_to_end: vec![Metric {
                name: "rss_mb",
                value: 123.456,
            }],
            per_layer: vec![Metric {
                name: "loadgen.samples",
                value: 10.0,
            }],
            notes: vec!["a \"note\"".into()],
            ..RunResult::default()
        };
        let line = driver_line(&result, false);
        let file = format!("{{\"workloads\":{{\"login_rush\":{line}}}}}");
        let values = read_results(&file).unwrap();
        assert_eq!(values["login_rush"]["rss_mb"], 123.456);
        assert!(!values["login_rush"].contains_key("loadgen.samples"));
        assert!(driver_line(&result, true).contains("loadgen.samples"));
        let doc = json::parse(&line).unwrap();
        assert_eq!(
            doc.get("metrics")
                .unwrap()
                .get("rss_mb")
                .unwrap()
                .get("unit")
                .unwrap()
                .as_str(),
            Some("MB")
        );
    }
}
