//! `perfbench`: the TIMBER reproduction's benchmark.
//!
//! Four workloads drive the public APIs a user reaches — the serving
//! engine (`sweep-cold`, `trials-heavy`, `zipf-open`) and the autotuner
//! (`tune-frontier`) — from one seeded process, check every output, and
//! print each end-to-end metric by name with its unit and sample count.
//! `--trace 1` runs a separate traced replay that times each layer from
//! outside, with a span around every call into a crate's public
//! functions, and prints the per-layer metrics and their closure.
//!
//! ```text
//! perfbench --workload <name|all> --seed N --seconds S --trace 0|1 [--out FILE]
//! perfbench --compare A.json B.json
//! ```
//!
//! The last line of a single-workload run is the result object
//! `{"correct", "attempted", "failed", "metrics"}`.

mod gen;
mod metrics;
mod report;
mod serve;
mod trace;
mod tune;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::{PER_LAYER, WORKLOADS};
use report::{Fingerprint, Metric, RunResult};

/// Everything a workload run needs to know.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Timed-phase length, seconds.
    pub seconds: f64,
    /// Engine and tuner worker threads (every logical CPU).
    pub threads: usize,
    /// The checkout root (the working directory).
    pub root: PathBuf,
    /// Scratch directory for journals, removed when the run ends.
    pub work: PathBuf,
}

impl Ctx {
    /// Whether a repeated set-up has run often enough: at least five
    /// times, then until 0.3 s have passed or 1001 repetitions.
    pub fn setup_done(&self, times: &[f64], started: Instant) -> bool {
        times.len() >= 5 && (started.elapsed() >= Duration::from_millis(300) || times.len() >= 1001)
    }

    /// Where a traced run writes its span log: beside the scratch
    /// directory, which is removed when the run ends.
    pub fn trace_path(&self, workload: &str) -> PathBuf {
        self.work
            .parent()
            .unwrap_or(&self.work)
            .join(format!("trace-{workload}.tsv"))
    }
}

/// Orders traced figures by the registry, reading 0 (with no samples)
/// for every layer the workload never reaches.
pub fn layer_metrics(found: Vec<(String, f64, usize)>) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|m| {
            let (value, samples) = found
                .iter()
                .find(|(n, _, _)| n == m.name)
                .map_or((0.0, 0), |(_, v, s)| (*v, *s));
            Metric {
                name: m.name.to_owned(),
                value,
                samples,
            }
        })
        .collect()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

const USAGE: &str =
    "usage: perfbench --workload <sweep-cold|trials-heavy|zipf-open|tune-frontier|all> \
--seed N --seconds S --trace 0|1 [--out FILE]\n       perfbench --compare A.json B.json";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut out = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if w != "all" && !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}"));
                }
                workload = Some(w);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        out,
    })
}

/// Runs one workload in this process.
fn run_one(ctx: &Ctx, workload: &str, traced: bool) -> std::io::Result<RunResult> {
    let kind = match workload {
        "sweep-cold" => serve::Kind::SweepCold,
        "trials-heavy" => serve::Kind::TrialsHeavy,
        "zipf-open" => serve::Kind::ZipfOpen,
        _ => {
            return if traced {
                tune::run_traced(ctx)
            } else {
                tune::run(ctx)
            }
        }
    };
    if traced {
        serve::run_traced(ctx, kind)
    } else {
        serve::run(ctx, kind)
    }
}

/// `--workload all`: each workload in its own process (so peak memory
/// is per workload); fails if any run fails.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut summary = Vec::new();
    for w in WORKLOADS {
        let mut child_args: Vec<String> = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if a == "--workload" || a == "--out" {
                it.next();
            } else {
                child_args.push(a.clone());
            }
        }
        child_args.extend(["--workload".to_owned(), w.to_owned()]);
        let out = std::process::Command::new(&exe).args(&child_args).output();
        match out {
            Ok(out) => {
                let text = String::from_utf8_lossy(&out.stdout);
                print!("{text}");
                let correct = out.status.success()
                    && text
                        .lines()
                        .last()
                        .is_some_and(|l| l.starts_with("{\"correct\":true"));
                ok &= correct;
                summary.push(format!("{w}: {}", if correct { "ok" } else { "FAILED" }));
            }
            Err(e) => {
                eprintln!("perfbench: cannot run {w}: {e}");
                ok = false;
            }
        }
    }
    println!("# summary: {}", summary.join(", "));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == "--compare") {
        let [_, a, b] = argv.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
        return match read(a).and_then(|a| read(b).and_then(|b| report::compare(&a, &b))) {
            Ok(table) => {
                print!("{table}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&argv);
    }

    let root = match std::env::current_dir() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: no working directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .map_or_else(|| root.join("perfbench/target"), |t| root.join(t));
    let work =
        target
            .join("perfbench-work")
            .join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        threads: report::threads(),
        root: root.clone(),
        work: work.clone(),
    };
    let fp = Fingerprint::probe(&root);
    println!(
        "# perfbench {} seed={} seconds={} trace={} threads={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        ctx.threads
    );
    println!("# host {}", fp.json());
    let before = report::cpu_jiffies();
    let result = run_one(&ctx, &args.workload, args.trace);
    let steal = report::steal_share(before, report::cpu_jiffies());
    let _ = std::fs::remove_dir_all(&work);
    // Time the host took the CPUs away from this machine: a run with a
    // high share is not comparable with a quiet one.
    println!(
        "# host steal {:.2}% of CPU time during the run",
        100.0 * steal
    );
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    print!("{}", result.human());
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, result.record(&fp)) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", result.line());
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
