//! A short traced run of every workload: outputs verify, every metric the
//! manifest names comes out, and each layer is idle where the README's
//! layer table says it is.

use acebench::report::{END_TO_END, PER_LAYER};
use acebench::run::{run, Plan, RunResult};
use acebench::schedule::Workload;
use std::time::Duration;

fn value(result: &RunResult, name: &str) -> f64 {
    result
        .end_to_end
        .iter()
        .chain(&result.per_layer)
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .value
}

fn smoke(workload: Workload, open: Duration) -> RunResult {
    let plan = Plan {
        warm_ops: 400,
        open,
        closed: Duration::from_secs(1),
        trace: true,
        setups: 1,
    };
    let result = run(workload, 42, plan).expect("run completes");
    let name = workload.name();
    assert!(
        result.violations.is_empty(),
        "{name}: output checks failed: {:#?}",
        result.violations
    );
    assert!(result.correct, "{name}: not correct");
    assert_eq!(result.failed, 0, "{name}: {:#?}", result.failures);
    assert!(
        result.attempted > 100,
        "{name}: only {} operations",
        result.attempted
    );

    // Exactly the manifest's metrics, in its order, all finite.
    let got: Vec<&str> = result.end_to_end.iter().map(|m| m.name).collect();
    let want: Vec<&str> = END_TO_END.iter().map(|e| e.name).collect();
    assert_eq!(got, want, "{name}: end-to-end metrics");
    let got: Vec<&str> = result.per_layer.iter().map(|m| m.name).collect();
    let want: Vec<&str> = PER_LAYER.iter().map(|p| p.name).collect();
    assert_eq!(got, want, "{name}: per-layer metrics");
    for metric in result.end_to_end.iter().chain(&result.per_layer) {
        assert!(
            metric.value.is_finite(),
            "{name}: {} is not finite",
            metric.name
        );
        assert!(
            !acebench::report::unit_of(metric.name).is_empty(),
            "{name}: {} has no unit",
            metric.name
        );
    }
    for metric in &result.end_to_end {
        assert!(metric.value > 0.0, "{name}: {} is zero", metric.name);
    }
    assert!(
        value(&result, "loadgen.span_coverage") >= 0.9,
        "{name}: span coverage"
    );
    assert!(result
        .trace_json
        .as_deref()
        .is_some_and(|t| t.contains("\"ops\":[")));
    result
}

fn assert_idle(result: &RunResult, workload: Workload, metrics: &[&str]) {
    for name in metrics {
        assert_eq!(
            value(result, name),
            0.0,
            "{}: {name} should be idle",
            workload.name()
        );
    }
}

/// The building is process-wide state (one shared runtime, its size read
/// from the environment once), so the four runs share one test and go one
/// after the other.
#[test]
fn all_four_workloads_verify_and_report_every_metric() {
    std::env::set_var("ACE_RUNTIME", "shared");
    std::env::set_var("ACE_RUNTIME_WORKERS", "64");
    let second = Duration::from_secs(1);

    let login = smoke(Workload::LoginRush, second);
    assert_idle(
        &login,
        Workload::LoginRush,
        &[
            "keynote.credential_fetches_per_op",
            "directory.fanouts_per_op",
            "failover.resolutions_per_op",
            "wal.appends_per_write",
            "store.get_p50_us",
            "supervise.upgrade_pause_p50_ms",
        ],
    );
    assert!(
        value(&login, "notify.hops_per_op") > 2.5,
        "three hops per login"
    );
    assert!(value(&login, "notify.chain_us") > 0.0);

    let roam = smoke(Workload::DeviceRoam, second);
    assert_idle(
        &roam,
        Workload::DeviceRoam,
        &[
            "notify.hops_per_op",
            "identity.press_sync_us",
            "wal.appends_per_write",
            "store.put_p50_us",
            "supervise.upgrade_pause_p50_ms",
        ],
    );
    assert!(value(&roam, "keynote.credential_fetches_per_op") > 0.0);
    assert!(value(&roam, "directory.fanouts_per_op") > 0.1);
    assert!(value(&roam, "directory.lookup_fanout_us") > 0.0);

    let store = smoke(Workload::StoreMixed, second);
    assert_idle(
        &store,
        Workload::StoreMixed,
        &[
            "notify.hops_per_op",
            "keynote.credential_fetches_per_op",
            "directory.fanouts_per_op",
            "identity.press_sync_us",
            "supervise.upgrade_pause_p50_ms",
        ],
    );
    assert!(
        value(&store, "wal.appends_per_write") > 2.0,
        "three replicas log each write"
    );
    assert!(value(&store, "store.leased_read_ratio") > 0.5);
    // At least one batch write went out and, like every write, was read
    // back by the end-of-run sweep.
    assert!(
        store.by_kind["store.put_many"].0 >= 1,
        "{:?}",
        store.by_kind
    );

    // The disturbance script needs room for the supervisor's probes.
    let day = smoke(Workload::BuildingDay, Duration::from_secs(3));
    for name in [
        "supervise.upgrade_pause_p50_ms",
        "supervise.crash_recovery_ms",
        "store.rebuild_ms",
        "notify.hops_per_op",
        "keynote.credential_fetches_per_op",
        "wal.appends_per_write",
    ] {
        assert!(
            value(&day, name) > 0.0,
            "building_day: {name} should be busy"
        );
    }
}
