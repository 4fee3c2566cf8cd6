//! perfbench: the end-to-end and per-layer benchmark of the HyperTP
//! reproduction.
//!
//! ```text
//! perfbench --workload <idle-fleet|hot-vm|inplace-m1|feed-year>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run builds the workload's inputs from the seed, runs one reference
//! op on a one-worker pool, then runs timed ops on a pool as wide as the
//! machine allows (at most two workers) until `--seconds` have passed.
//! Every op's output is checked, and every op must reproduce the
//! reference op's simulated results bit for bit; so must every earlier
//! run of the same build and seed in this directory. `--trace 1`
//! alternates untraced and traced ops: traced ops record spans around
//! each layer call and replay the op's inputs through the layers for the
//! per-layer ledger. The last line of standard output is the result as
//! one JSON object. See README.md for the workloads and metrics.

mod metrics;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use hypertp::sim::json::{self, Json};
use hypertp::sim::WorkerPool;

use metrics::{Metric, END_TO_END, PER_LAYER};
use trace::{Ledger, Tracer};
use workloads::{OpCtx, OpOut};

/// Widest worker pool a run uses (the machine's parallelism if lower).
const MAX_WIDTH: usize = 2;
/// Timed ops per run at least, however long they take.
const MIN_OPS: usize = 3;
/// Untraced/traced op pairs per traced run at least.
const MIN_TRACED_PAIRS: usize = 2;
/// Set-up samples behind `setup_s` at least; runs with fewer timed ops
/// build and drop extra inputs after the loop.
const MIN_SETUPS: usize = 9;
/// Where traces and determinism fingerprints go, under the working
/// directory.
const OUT_DIR: &str = ".bench_out";

const USAGE: &str = "usage: perfbench --workload <idle-fleet|hot-vm|inplace-m1|feed-year> \
                     --seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

/// Internal fan-outs that take no pool argument size themselves from
/// `HYPERTP_WORKERS`; keep them at the run's width. Called only between
/// ops, while no pool threads exist.
fn set_width(width: usize) -> WorkerPool {
    std::env::set_var("HYPERTP_WORKERS", width.to_string());
    WorkerPool::new(width)
}

/// Runs the benchmark; `Ok(false)` when an op failed or a determinism
/// guard tripped (the result line is still printed).
fn run(args: &Args) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let width = nproc.min(MAX_WIDTH);
    let mut workload = workloads::by_name(&args.workload, args.seed)
        .ok_or_else(|| format!("unknown workload {}", args.workload))?;
    let stamp = Json::obj()
        .with("workload", json::s(args.workload.as_str()))
        .with("seed", json::u(args.seed))
        .with("nproc", json::u(nproc as u64))
        .with("pool_width", json::u(width as u64))
        .with("rustc", json::s(env!("PERFBENCH_RUSTC")))
        .with("profile", json::s(env!("PERFBENCH_PROFILE")))
        .with("commit", json::s(env!("PERFBENCH_COMMIT")))
        .with("trace", json::u(u64::from(args.trace)))
        .encode();
    println!("stamp: {stamp}");

    let tracer = Tracer::new();
    let mut ledger = Ledger::default();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut op_id = 0u32;
    let mut one_op = |pool: WorkerPool, traced: bool, ledger: &mut Ledger| {
        tracer.set_enabled(traced);
        tracer.set_op(op_id);
        op_id += 1;
        attempted += 1;
        let mut ctx = OpCtx {
            pool,
            tracer: &tracer,
            ledger: traced.then_some(ledger),
        };
        let out = tracer.span("op", || workload.run_op(&mut ctx)).0;
        if let Err(e) = &out {
            failed += 1;
            eprintln!("op {}: failed: {e}", op_id - 1);
        }
        out.ok()
    };

    // The reference op runs on one worker. It also warms caches and lazy
    // set-up before anything is timed.
    let reference = one_op(set_width(1), false, &mut ledger).map(|o| o.fingerprint);
    let pool = set_width(width);
    let mut untraced: Vec<OpOut> = Vec::new();
    let mut traced: Vec<OpOut> = Vec::new();
    let mut mismatched = 0u64;
    let min_ops = if args.trace {
        2 * MIN_TRACED_PAIRS
    } else {
        MIN_OPS
    };
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut i = 0;
    while i < min_ops || start.elapsed() < budget {
        let trace_this = args.trace && i % 2 == 1;
        i += 1;
        let Some(out) = one_op(pool, trace_this, &mut ledger) else {
            continue;
        };
        if reference.as_ref() != Some(&out.fingerprint) {
            mismatched += 1;
            eprintln!("determinism: op results differ from the one-worker reference op");
            continue;
        }
        if trace_this {
            traced.push(out);
        } else {
            untraced.push(out);
        }
    }
    failed += mismatched;
    let across_runs = match &reference {
        Some(fp) => check_earlier_runs(&args.workload, args.seed, fp),
        None => Ok(()),
    };
    if let Err(e) = &across_runs {
        eprintln!("determinism: {e}");
    }
    let correct = failed == 0 && across_runs.is_ok();

    let mut setups: Vec<Duration> = untraced.iter().map(|o| o.setup).collect();
    while setups.len() < MIN_SETUPS && !untraced.is_empty() {
        setups.push(workload.setup_only()?);
    }
    let e2e = end_to_end(&untraced, &setups, attempted, failed);
    print_end_to_end(&e2e, untraced.len());
    let metrics: Vec<(Metric, f64)> = if args.trace {
        let calls =
            |ops: &[OpOut]| stats::median(&ops.iter().map(|o| secs_ms(o.call)).collect::<Vec<_>>());
        let (t, u) = (calls(&traced), calls(&untraced));
        if let (Some(t), Some(u)) = (t, u) {
            ledger.record("bench.op_ms_p50_traced", t);
            ledger.record("bench.op_ms_p50_untraced", u);
            ledger.record("bench.trace_overhead_ms", t - u);
        }
        ledger.record("sim.pool.workers", width as f64);
        let path =
            PathBuf::from(OUT_DIR).join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        tracer
            .write_jsonl(&path, &stamp)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!(
            "trace: {} spans written to {}",
            tracer.span_count(),
            path.display()
        );
        let layer: Vec<(Metric, f64)> = PER_LAYER
            .iter()
            .map(|m| (*m, ledger.median(m.name).unwrap_or(0.0)))
            .collect();
        print_layers(&layer, &ledger);
        layer
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                let v = e2e
                    .iter()
                    .find(|(name, ..)| *name == m.name)
                    .and_then(|(_, _, v)| *v);
                (*m, v.unwrap_or(0.0))
            })
            .collect()
    };
    println!("{}", result_json(correct, attempted, failed, &metrics));
    Ok(correct)
}

fn secs_ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Every end-to-end metric README.md lists, as (name, unit, value);
/// `None` where it does not apply to the workload or the run holds too
/// few ops for it.
fn end_to_end(
    ops: &[OpOut],
    setups: &[Duration],
    attempted: u64,
    failed: u64,
) -> Vec<(&'static str, &'static str, Option<f64>)> {
    let calls: Vec<f64> = ops.iter().map(|o| secs_ms(o.call)).collect();
    let setups: Vec<f64> = setups.iter().map(Duration::as_secs_f64).collect();
    let sim = ops.first().map(|o| o.sim).unwrap_or_default();
    let some = |v: Option<f64>| if ops.is_empty() { None } else { v };
    vec![
        ("setup_s", "s", stats::median(&setups)),
        ("op_ms_p50", "ms", stats::median(&calls)),
        ("op_ms_p90", "ms", stats::percentile(&calls, 90.0)),
        ("peak_rss_mb", "MB", peak_rss_mb()),
        (
            "failed_frac",
            "frac",
            Some(failed as f64 / attempted.max(1) as f64),
        ),
        ("sim_downtime_ms_mean", "sim_ms", some(sim.downtime_ms_mean)),
        ("sim_downtime_ms_max", "sim_ms", some(sim.downtime_ms_max)),
        ("sim_total_s", "sim_s", some(Some(sim.total_s))),
        ("wire_mb", "MB", some(sim.wire_mb)),
        ("exposure_vm_days", "vm_days", some(sim.exposure_vm_days)),
        ("disruption_min", "sim_min", some(sim.disruption_min)),
    ]
}

fn print_end_to_end(e2e: &[(&str, &str, Option<f64>)], samples: usize) {
    println!("end-to-end ({samples} timed ops):");
    for (name, unit, value) in e2e {
        match value {
            Some(v) => println!("  {name:<22} {v:>14.4} {unit}"),
            None => println!("  {name:<22} {:>14} {unit}", "absent"),
        }
    }
}

fn print_layers(layer: &[(Metric, f64)], ledger: &Ledger) {
    println!("per-layer (medians over traced ops):");
    for (m, v) in layer {
        let note = if ledger.median(m.name).is_none() {
            "  (not exercised)"
        } else {
            ""
        };
        println!("  {:<40} {v:>16.4} {}{note}", m.name, m.unit);
    }
    for name in ["bench.op_ms_p50_traced", "bench.op_ms_p50_untraced"] {
        if let Some(v) = ledger.median(name) {
            println!("  {name:<40} {v:>16.4} ms");
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}

/// Compares this run's reference fingerprint against the one an earlier
/// run of the same binary and seed left in this directory, and records it
/// for later runs. A rebuilt binary starts afresh.
fn check_earlier_runs(workload: &str, seed: u64, fingerprint: &str) -> Result<(), String> {
    let build = build_id();
    let digest = format!(
        "{:032x}",
        hypertp::sim::digest_bytes(fingerprint.as_bytes()).as_u128()
    );
    let path = Path::new(OUT_DIR)
        .join("fingerprints")
        .join(format!("{workload}-seed{seed}"));
    let line = format!("{build} {digest}");
    if let Ok(earlier) = std::fs::read_to_string(&path) {
        if let Some(previous) = earlier.trim().strip_prefix(&format!("{build} ")) {
            if previous != digest {
                return Err(format!(
                    "simulated results differ from an earlier run with seed {seed} ({previous} vs {digest})"
                ));
            }
            return Ok(());
        }
    }
    std::fs::create_dir_all(path.parent().expect("joined above"))
        .and_then(|()| std::fs::write(&path, line))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Identifies the running binary by its size and modification time.
fn build_id() -> String {
    std::env::current_exe()
        .and_then(std::fs::metadata)
        .map(|m| {
            let mtime = m
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_nanos());
            format!("{}-{mtime}", m.len())
        })
        .unwrap_or_else(|_| "unknown".into())
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[(Metric, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(m, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(argv("--workload hot-vm --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("hot-vm", 7, 12, true)
        );
        assert!(parse_args(argv("--workload nope")).is_err());
        assert!(parse_args(argv("--workload hot-vm --trace 2")).is_err());
        assert!(parse_args(argv("--workload hot-vm --seed")).is_err());
        assert!(parse_args(argv("--seed 1")).is_err());
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let m = Metric {
            name: "op_ms_p50",
            unit: "ms",
        };
        let line = result_json(true, 4, 0, &[(m, 1.0 / 3.0)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"op_ms_p50\": {\"value\": 0.3333333333333333, \"unit\": \"ms\"}}}"
        );
        Json::parse(&line).expect("valid JSON");
    }
}
