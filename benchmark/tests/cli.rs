//! The command line: schedules are a function of the seed, the manifest
//! matches the `BENCHMARK.json` on disk, `compare` reads what `run` writes.

use std::process::Command;

fn acebench(args: &[&str]) -> (bool, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_acebench"))
        .args(args)
        .output()
        .expect("run acebench");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    )
}

#[test]
fn gen_is_byte_identical_for_equal_seeds_and_differs_across_seeds() {
    for workload in ["login_rush", "device_roam", "store_mixed", "building_day"] {
        let gen = |seed: &str| {
            let (ok, out) = acebench(&[
                "gen",
                "--workload",
                workload,
                "--seed",
                seed,
                "--seconds",
                "2",
            ]);
            assert!(ok, "gen {workload} failed");
            out
        };
        let (a, b, c) = (gen("11"), gen("11"), gen("12"));
        assert!(
            a.lines().count() > 1000,
            "{workload}: schedule is too short"
        );
        assert_eq!(a, b, "{workload}: equal seeds gave different schedules");
        assert_ne!(a, c, "{workload}: the seed does not reach the schedule");
    }
}

#[test]
fn manifest_is_the_benchmark_json_on_disk() {
    let (ok, manifest) = acebench(&["manifest"]);
    assert!(ok);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside benchmark/");
    assert_eq!(
        manifest, on_disk,
        "BENCHMARK.json is stale: regenerate it with `acebench manifest`"
    );
}

#[test]
fn compare_reads_result_files_and_flags_a_regression() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let write = |name: &str, rss: f64| {
        let path = dir.join(name);
        std::fs::write(
            &path,
            format!(
                "{{\"workloads\":{{\"login_rush\":{{\"correct\":true,\"attempted\":1,\"failed\":0,\
                 \"metrics\":{{\"rss_mb\":{{\"value\":{rss},\"unit\":\"MB\"}}}}}}}}}}"
            ),
        )
        .unwrap();
        path.to_string_lossy().into_owned()
    };
    let a = [
        write("a1.json", 100.0),
        write("a2.json", 101.0),
        write("a3.json", 99.0),
    ]
    .join(",");
    let same = [
        write("b1.json", 100.5),
        write("b2.json", 99.5),
        write("b3.json", 101.5),
    ]
    .join(",");
    let worse = [
        write("c1.json", 150.0),
        write("c2.json", 151.0),
        write("c3.json", 149.0),
    ]
    .join(",");
    let (ok, table) = acebench(&["compare", &a, &same]);
    assert!(ok && table.contains("unchanged"), "{table}");
    let (ok, table) = acebench(&["compare", &a, &worse]);
    assert!(!ok && table.contains("REGRESSION"), "{table}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_mistyped_option_is_refused_not_defaulted() {
    let output = Command::new(env!("CARGO_BIN_EXE_acebench"))
        .args(["gen", "--workload", "login_rush", "--sed", "5"])
        .output()
        .expect("run acebench");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty(), "nothing is generated");
    assert!(String::from_utf8_lossy(&output.stderr).contains("unknown option --sed"));
}
