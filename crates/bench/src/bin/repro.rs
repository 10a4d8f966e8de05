//! `repro` — regenerates every table and figure of the TIMBER paper.
//!
//! ```text
//! repro [table1|fig1|fig2|fig5|fig7|fig8|claims|compare|margin|\
//!        ablation-schedule|ablation-droop|metastability|validate|\
//!        bench|all] [--json] [--threads N]
//! repro bench [--json] [--threads N] [--out BENCH.json] [--batch {on,off}]
//! repro trace <claims|claims-netlist> [--telemetry OUT.json] [--threads N]
//! repro bench-check --fresh FRESH.json [--baseline BASE.json]
//!                   [--tolerance 0.15] [--max-overhead 0.5]
//! repro lint [--json] [--deny warn]
//! repro analyze [--json] [--deny warn] [--sabotage]
//! repro conform [--json] [--threads N] [--seed S] [--full] [--sabotage]
//! repro soak [--json] [--threads N] [--seed S] [--cycles N]
//!            [--checkpoint FILE] [--resume] [--stop-after N]
//!            [--inject-panic K] [--inject-hang K]
//!            [--retry-base MS] [--retry-cap MS] [--watchdog MS]
//! repro serve [--socket PATH] [--checkpoint FILE] [--resume]
//!             [--batch-size N] [--capacity N] [--threads N] [--seed S]
//!             [--retry-base MS] [--retry-cap MS] [--watchdog MS]
//! repro storm [--clients N] [--requests M] [--seed S] [--poison K]
//!             [--batch-size N] [--capacity N] [--threads N]
//!             [--chaos-seed S] [--retry-base MS] [--retry-cap MS]
//!             [--json] [--out REPORT.json]
//! repro chaos [--json] [--seed S] [--faults N] [--threads N]
//!             [--sabotage] [--out REPORT.json]
//! repro tune [--json] [--out FRONTIER.json] [--seed S] [--threads N]
//!            [--budget N] [--tolerance T] [--sabotage]
//! repro tune --frontier-check FRONTIER.json [--threads N]
//! ```
//!
//! `--threads N` sets the Monte-Carlo sweep worker count (default: all
//! cores; `0` also means all cores). The thread count never changes
//! any number, only wall-clock time. `bench` times the sweep engine
//! and writes the baseline to `--out` (default `BENCH_pipeline.json`;
//! CI writes to a scratch path so the committed baseline is never
//! clobbered); `--batch {on,off}` controls the bit-sliced 64-lane
//! batching measurement (default `on`; `off` records
//! `batched: null`). `bench-check` gates a fresh measurement: the
//! within-run hardware-independent checks (thread-count invariance,
//! telemetry overhead ratio vs `--max-overhead`, the multi-core
//! scaling floor, and scalar<->bit-sliced equivalence plus the
//! batching speed floor when the document carries a `batched` section)
//! always run and report every breach in one invocation, and with
//! `--baseline` the machine-dependent throughput comparison against a
//! committed document runs too (`--tolerance`, two-sided). `trace`
//! runs an experiment with telemetry attached and writes the JSON
//! trace (plus a CSV sibling) to the `--telemetry` path. `lint` runs
//! the `timber-lint` static design-rule checks over every shipped
//! generator config (`--deny warn` also fails on warnings; `--json`
//! emits the machine-readable report). `analyze` runs the
//! `timber-analyze` abstract-interpretation gate: a fixed-point
//! dataflow certifies worst-case borrow, relay-chain and consolidation
//! bounds for every shipped generator config at the gate and
//! overclocked operating points, explicit-state reachability proves the
//! governor ladder's published recovery and period bounds, and a
//! soundness harness replays the conformance surface asserting no
//! dynamic observation exceeds a static bound (`--sabotage` seeds an
//! off-by-one bound the harness must catch, so the run is expected to
//! exit 1; `--deny warn` and `--json` as for `lint`). `conform` runs the differential
//! conformance campaign: the same generated workloads through the
//! analytical simulator and the event-driven gate-level replay, over
//! every `(k_tb, k_ed)` grid point, scheme, and burst shape, failing on
//! any divergence, contract or metamorphic violation, or coverage hole
//! (`--full` triples the trials, `--sabotage` activates the seeded
//! model-B bug so the harness can prove it catches divergences; the
//! report is byte-identical for any `--threads N`). `soak` runs the
//! resilience soak campaign: every storm scenario × every scheme under
//! the escalation-ladder governor, through the hardened executor
//! (panic isolation, watchdog, retry, quarantine). `--checkpoint FILE`
//! logs completed trials; `--resume` pre-loads them so a killed
//! campaign finishes to a byte-identical report; `--stop-after N` is
//! the deterministic stand-in for `kill -9` in resume tests;
//! `--inject-panic K` / `--inject-hang K` append synthetic failing
//! trials that must all land in the quarantine ledger.
//!
//! `serve` starts the persistent evaluation daemon: JSONL requests on
//! stdin (or on a Unix socket with `--socket PATH`), one JSON response
//! line per request, answered from the content-addressed cache and
//! batched onto the hardened executor on a miss. `--checkpoint FILE`
//! doubles as the crash-safe result journal; `--resume` preloads it so
//! a restarted daemon answers warm. A `{"op":"stats"}` request returns
//! the service counters and latency quantiles; `{"op":"shutdown"}`
//! stops the daemon cleanly (EOF on stdin does too). `storm` is the
//! deterministic load generator and replay gate: `--requests M` drawn
//! from a seeded pool, dealt across `--clients N` simulated clients,
//! plus `--poison K` requests that must all quarantine. Its `--json`
//! report (and `--out` copy) is byte-identical for any `--threads`,
//! client count or batch interleaving of the same campaign — responses
//! are canonically ordered by request id and wall-clock latency stays
//! out of the document — and the gate also demands a cache hit rate
//! and a 10x warm-over-cold service-time speedup. With `--chaos-seed S`
//! the storm doubles as the chaos client: seeded per-request priorities
//! and deadlines run against a tight admission-control governor, and
//! every shed or deadline-rejected request is retried with the seeded
//! jittered backoff of `--retry-base`/`--retry-cap` until served.
//! `--retry-base MS` / `--retry-cap MS` set the deterministic
//! seeded-jitter backoff between evaluation attempts wherever the
//! hardened executor runs (`soak`, `serve`, `storm`), and
//! `--watchdog MS` the per-attempt wall-clock watchdog; `--seed S`
//! seeds that backoff's jitter in `serve`.
//!
//! `chaos` runs the deterministic fault-injection campaign against an
//! in-process server: a seeded `FaultPlan` (splitmix64 counter-mode)
//! flips cache bytes, tears and corrupts journal records, hangs and
//! stalls evaluation attempts, drops request lines mid-batch and
//! injects poison specs, and the gate demands exact accounting — every
//! injected fault detected and recovered or quarantined, zero corrupted
//! responses served, and the final replay byte-identical to an
//! unfaulted oracle for any `--threads N`. `--faults N` scales the
//! campaign, `--sabotage` disables the cache-read checksum so the
//! harness can prove it catches a served corruption (exit 1 *is* the
//! expected self-test outcome).
//!
//! `tune` runs the closed-loop Pareto autotuner over the TIMBER design
//! space: every `(checking period, k_tb, k_ed, δ-increment, seeding)`
//! candidate on both case-study netlists is lint-filtered, certified
//! by the abstract-interpretation analyzer, costed by STA + the power
//! model, storm-scored on the 64-lane Monte-Carlo engine, and folded
//! into a per-design non-dominated frontier over (energy/instr,
//! miss rate, ns/instr). The search validates itself: the frontier
//! must be minimal, the evaluation order must match the enumeration,
//! and the paper's §4 case-study schedules (immediate and deferred at
//! c=30%) must land within the `--tolerance` band of the frontier
//! (default 0.25). `--budget N` truncates the candidate list (the
//! evaluated prefix is unchanged — objective values never depend on
//! the budget), `--sabotage` leaks a seeded dominated point the
//! validation must catch (exit 1 *is* the expected self-test outcome),
//! and the `--json` document is byte-identical for any `--threads N`.
//! `--frontier-check FRONTIER.json` re-runs the search with the spec
//! recorded inside the committed golden document and fails on any byte
//! of drift.
//!
//! Exit codes: `0` success, `1` a gate failed (bench-check breach,
//! lint findings at the deny threshold, a conformance or storm
//! campaign that does not pass, or a tune run that fails validation or
//! drifts from its golden frontier), `2` usage error. Each subcommand
//! reads exactly the flags its usage line lists (`--f v` and `--f=v`
//! alike, before or after the subcommand); a flag it does not read is a
//! usage error naming the flag, as is an unknown one.

use std::env;
use std::str::FromStr;
use std::time::Duration;

use timber_bench::{
    ablations, analyzegate, experiments, lintgate, margin, perf, report, soak, trace, tune,
};

/// One flag: its name without `--`, and `None` for a switch or the
/// value hint of its "needs" error.
type Flag = (&'static str, Option<&'static str>);

/// Every flag `repro` knows. One row parses both `--flag value` and
/// `--flag=value`.
const FLAGS: &[Flag] = &[
    ("json", None),
    ("full", None),
    ("sabotage", None),
    ("resume", None),
    ("threads", Some("a number")),
    ("seed", Some("a number")),
    ("out", Some("a path")),
    ("batch", Some("`on` or `off`")),
    ("telemetry", Some("a path")),
    ("fresh", Some("a path")),
    ("baseline", Some("a path")),
    ("tolerance", Some("a fraction, e.g. 0.15")),
    ("max-overhead", Some("a fraction, e.g. 0.5")),
    ("deny", Some("`warn` or `error`")),
    ("cycles", Some("a number")),
    ("checkpoint", Some("a path")),
    ("stop-after", Some("a number")),
    ("inject-panic", Some("a count")),
    ("inject-hang", Some("a count")),
    ("retry-base", Some("milliseconds")),
    ("retry-cap", Some("milliseconds")),
    ("watchdog", Some("milliseconds")),
    ("socket", Some("a path")),
    ("batch-size", Some("a number")),
    ("capacity", Some("a number")),
    ("clients", Some("a number")),
    ("requests", Some("a number")),
    ("poison", Some("a count")),
    ("chaos-seed", Some("a number")),
    ("faults", Some("a count")),
    ("budget", Some("a number")),
    ("frontier-check", Some("a path")),
];

/// The paper experiments share one subcommand row because `all` runs
/// every one of them.
const EXPERIMENTS: &str = "all table1 fig1 fig2 fig5 fig7 fig8 claims claims-netlist margin \
    validate ablation-schedule ablation-droop dag glitch metastability compare";

/// One subcommand row: its space-separated names, how many positional
/// arguments follow the name, the space-separated flags it reads (any
/// other flag is a usage error), and its runner.
type Subcommand = (&'static str, usize, &'static str, fn(&Args));

/// Every subcommand, in the order the unknown-subcommand error lists
/// them.
#[rustfmt::skip]
const SUBCOMMANDS: &[Subcommand] = &[
    (EXPERIMENTS,   0, "json threads", run_experiments),
    ("bench",       0, "json threads out batch", run_bench),
    ("lint",        0, "json deny", run_lint),
    ("analyze",     0, "json deny sabotage", run_analyze),
    ("conform",     0, "json threads seed full sabotage", run_conform),
    ("soak",        0, "json threads seed cycles checkpoint resume stop-after inject-panic \
                        inject-hang retry-base retry-cap watchdog", run_soak),
    ("serve",       0, "socket checkpoint resume batch-size capacity threads seed retry-base \
                        retry-cap watchdog", run_serve),
    ("storm",       0, "clients requests seed poison threads batch-size capacity chaos-seed \
                        retry-base retry-cap json out", run_storm),
    ("chaos",       0, "json seed faults threads sabotage out", run_chaos),
    ("trace",       1, "threads telemetry", run_trace),
    ("tune",        0, "json out seed threads budget tolerance sabotage frontier-check", run_tune),
    ("bench-check", 0, "fresh baseline tolerance max-overhead", run_bench_check),
];

/// The pinned seed of the conform, serve, storm and chaos gates.
const DEFAULT_SEED: u64 = 7;

/// The parsed command line.
#[derive(Default)]
struct Args {
    /// Positional arguments in order; the first names the subcommand.
    positionals: Vec<String>,
    /// Every flag given, in order, with its value (empty for a switch).
    flags: Vec<(&'static Flag, String)>,
}

impl Args {
    fn parse(mut raw: impl Iterator<Item = String>) -> Args {
        let mut args = Args::default();
        while let Some(arg) = raw.next() {
            let Some(body) = arg.strip_prefix("--") else {
                args.positionals.push(arg);
                continue;
            };
            let (name, inline) = body
                .split_once('=')
                .map_or((body, None), |(n, v)| (n, Some(v)));
            // A switch never takes `=value`: `--json=1` is no flag at all.
            let flag = FLAGS
                .iter()
                .find(|(n, hint)| *n == name && (hint.is_some() || inline.is_none()))
                .unwrap_or_else(|| die(&format!("unknown flag --{body}")));
            let value = match (flag.1, inline) {
                (None, _) => String::new(),
                (Some(_), Some(value)) => value.to_owned(),
                (Some(_), None) => raw
                    .next()
                    .unwrap_or_else(|| die(&format!("--{name} needs a value"))),
            };
            args.flags.push((flag, value));
        }
        args
    }

    /// The subcommand name; `all` when none is given.
    fn subcommand(&self) -> &str {
        self.positionals.first().map_or("all", String::as_str)
    }

    fn last(&self, name: &str) -> Option<&(&'static Flag, String)> {
        self.flags.iter().rev().find(|((n, _), _)| *n == name)
    }

    /// Whether `--name` was given.
    fn on(&self, name: &str) -> bool {
        self.last(name).is_some()
    }

    /// The value of the last `--name` given.
    fn text(&self, name: &str) -> Option<&str> {
        self.last(name).map(|(_, value)| value.as_str())
    }

    /// The last `--name` parsed as `T`; a value that does not parse is a
    /// usage error naming the flag's hint.
    fn get<T: FromStr>(&self, name: &str) -> Option<T> {
        let ((_, hint), value) = self.last(name)?;
        let hint = hint.unwrap_or_default();
        Some(
            value
                .parse()
                .unwrap_or_else(|_| die(&format!("--{name} needs {hint}"))),
        )
    }
}

fn main() {
    let args = Args::parse(env::args().skip(1));
    let what = args.subcommand();
    let Some(&(_, positionals, flags, run)) = SUBCOMMANDS
        .iter()
        .find(|(names, ..)| names.split_whitespace().any(|n| n == what))
    else {
        let names: Vec<&str> = SUBCOMMANDS.iter().map(|(names, ..)| *names).collect();
        let names = names.join(" ").replace(' ', ", ");
        die(&format!(
            "unknown subcommand {what:?} (expected one of: {names})"
        ))
    };
    if let Some(extra) = args.positionals.get(1 + positionals) {
        die(&format!("unexpected argument {extra}"));
    }
    if let Some(((flag, _), _)) = args
        .flags
        .iter()
        .find(|((name, _), _)| !flags.split_whitespace().any(|f| f == *name))
    {
        die(&format!("--{flag} does not apply to {what}"));
    }
    run(&args);
}

/// The one exit path of the gates: writes the JSON document to `--out`
/// when given, prints it with `--json` and the rendered text otherwise,
/// and when the gate failed prints `diagnostic` to stderr and exits 1.
fn finish(args: &Args, doc: &str, text: &str, pass: bool, diagnostic: &str) {
    if let Some(path) = args.text("out") {
        std::fs::write(path, format!("{doc}\n"))
            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
    }
    if args.on("json") {
        println!("{doc}");
    } else {
        print!("{text}");
    }
    if !pass {
        eprint!("{diagnostic}");
        std::process::exit(1);
    }
}

/// `--threads`, where `0` (the default) means all cores.
fn threads(args: &Args) -> usize {
    args.get("threads").unwrap_or(0)
}

/// `--deny warn` also fails the gate on warnings; `error` is the default.
fn deny_warn(args: &Args) -> bool {
    match args.text("deny") {
        None | Some("error") => false,
        Some("warn") => true,
        Some(other) => die(&format!("--deny expects `warn` or `error`, got {other:?}")),
    }
}

/// Silences the default panic hook for the subcommands that run the
/// hardened executor or the serving engine. Those isolate every trial
/// and evaluation panic (poisoned specs panic on purpose) and keep its
/// message in the quarantine ledger or the response, so the hook's
/// per-panic backtrace would only pollute the report.
fn quiet_panics() {
    std::panic::set_hook(Box::new(|_| {}));
}

/// The seeded-jitter backoff of `--retry-base`/`--retry-cap` (10 ms and
/// 100 ms by default).
fn retry_policy(args: &Args, seed: u64) -> timber_resilience::RetryPolicy {
    timber_resilience::RetryPolicy::from_millis(
        args.get("retry-base").unwrap_or(10),
        args.get("retry-cap").unwrap_or(100),
        seed,
    )
}

/// `repro [experiment]`: prints the paper's tables, figures and claims.
fn run_experiments(args: &Args) {
    let what = args.subcommand();
    let json = args.on("json");
    let threads = threads(args);

    let run = |name: &str| what == "all" || what == name;
    let show = |doc: serde_json::Value, text: String| {
        println!("{}", if json { doc.to_string() } else { text });
    };

    if run("table1") {
        println!("== Table 1: comparison of online timing-error-resilience techniques ==");
        println!("{}", experiments::table1());
    }
    if run("fig1") {
        println!("== Fig. 1: critical-path distribution between flip-flops ==");
        let r = experiments::fig1();
        show(report::fig1_json(&r), r.render());
    }
    if run("fig2") {
        println!("== Fig. 2: checking-period schedules ==");
        println!("{}", experiments::fig2());
    }
    let waves = [
        (5, "flip-flop", experiments::fig5 as fn() -> _),
        (7, "latch", experiments::fig7),
    ];
    for (fig, style, wave) in waves {
        if run(&format!("fig{fig}")) {
            println!("== Fig. {fig}: two-stage timing error in a TIMBER {style} design ==");
            let r = wave();
            println!("{}", r.render);
            println!(
                "Err1 flags: {} (expected 0)   Err2 flags: {} (expected 1)   data correct: {}",
                r.err1_rises, r.err2_rises, r.data_correct
            );
            println!();
        }
    }
    if run("fig8") {
        println!("== Fig. 8: TIMBER overheads on the synthetic processor ==");
        let points = experiments::fig8();
        show(
            report::fig8_json(&points),
            experiments::render_fig8(&points),
        );
    }
    if run("claims") {
        println!("== §3/§4 claims: error rates, flagging policies, performance loss ==");
        let r = experiments::claims_threaded(1_000_000, threads);
        show(report::claims_json(&r), r.render());
    }
    if run("claims-netlist") {
        println!("== §3/§4 claims on netlist-derived stage profiles ==");
        let r = experiments::claims_netlist_backed_threaded(1_000_000, threads);
        show(report::claims_json(&r), r.render());
    }
    if run("margin") {
        println!("== Margin recovery: minimum safe operating period per scheme ==");
        let rows = margin::margin_recovery_threaded(300_000, threads);
        println!("{}", margin::render_margin(&rows));
    }
    if run("validate") {
        println!("== Corner-case circuit validation (paper §1: \"validated using corner-case circuit simulations\") ==");
        println!("{}", ablations::render_validation(&ablations::validation()));
    }
    if run("ablation-schedule") {
        println!("== Ablation: TB/ED interval split vs flagging policy ==");
        let rows = ablations::ablation_schedule_threaded(500_000, threads);
        println!("{}", ablations::render_ablation_schedule(&rows));
    }
    if run("ablation-droop") {
        println!("== Ablation: droop depth vs masking coverage ==");
        let rows = ablations::ablation_droop_threaded(500_000, threads);
        println!("{}", ablations::render_ablation_droop(&rows));
    }
    if run("dag") {
        println!("== Extension: reconvergent (diamond) topology with the DAG error relay ==");
        let r = ablations::ablation_dag(500_000);
        println!("{}", ablations::render_dag(&r));
    }
    if run("glitch") {
        println!("== Ablation: glitch propagation through the TIMBER latch (the §5.2 drawback) ==");
        let g = ablations::ablation_glitch_activity(200);
        println!("{}", ablations::render_glitch(&g));
    }
    if run("metastability") {
        println!("== Ablation: Razor metastability exposure vs TIMBER immunity ==");
        let r = ablations::ablation_metastability_threaded(500_000, threads);
        println!("{}", ablations::render_metastability(&r));
    }
    if run("compare") {
        println!("== Cross-scheme comparison under the identical stress environment ==");
        let rows = experiments::compare_threaded(1_000_000, threads);
        show(
            report::compare_json(&rows, experiments::PERIOD),
            experiments::render_compare(&rows, experiments::PERIOD),
        );
    }
}

/// `repro bench`: times the sweep engine and writes the baseline
/// document. Opt-in (not part of `all`): it measures the engine rather
/// than reproducing a paper figure.
fn run_bench(args: &Args) {
    let json = args.on("json");
    let threads = threads(args);
    let batch = args.text("batch").map_or(perf::BatchMode::On, |v| {
        v.parse().unwrap_or_else(|e| die(&format!("--batch {e}")))
    });
    // `--out` keeps CI measurement runs from clobbering the committed
    // baseline the gate compares against.
    let out_path = args.text("out").unwrap_or("BENCH_pipeline.json");
    // With `--json` the banner goes to stderr so stdout stays a single
    // machine-readable document (CI pipes it to a file).
    if json {
        eprintln!("== Sweep-engine baseline (writes {out_path}) ==");
    } else {
        println!("== Sweep-engine baseline (writes {out_path}) ==");
    }
    let r = perf::pipeline_baseline_threaded(2_000_000, threads, batch);
    let doc = perf::bench_json(&r);
    std::fs::write(out_path, format!("{doc}\n"))
        .unwrap_or_else(|e| die(&format!("cannot write {out_path}: {e}")));
    if json {
        println!("{doc}");
    } else {
        println!("{}", perf::render_bench(&r));
    }
    // Gate verdicts, not programming errors: exit 1 with a diagnostic
    // instead of unwinding through a panic.
    if !r.identical {
        eprintln!("repro bench FAILED: thread count changed sweep results");
        std::process::exit(1);
    }
    if r.batched.is_some_and(|b| !b.identical) {
        eprintln!("repro bench FAILED: scalar and bit-sliced engines diverged");
        std::process::exit(1);
    }
}

/// `repro lint`: the static design-rule gate over every shipped
/// generator config. Exit 1 when any config has findings at the deny
/// threshold.
fn run_lint(args: &Args) {
    let deny_warn = deny_warn(args);
    let reports = lintgate::lint_all();
    finish(
        args,
        &timber_lint::reports_json(&reports, deny_warn),
        &lintgate::render_reports(&reports, deny_warn),
        lintgate::gate_passes(&reports, deny_warn),
        "",
    );
}

/// `repro analyze`: the abstract-interpretation certification gate.
/// Exit 1 when any certificate, governor bound or soundness replay has
/// findings at the deny threshold (with `--sabotage`, exiting 1 *is*
/// the expected self-test outcome).
fn run_analyze(args: &Args) {
    let deny_warn = deny_warn(args);
    let gate = analyzegate::run(args.on("sabotage"));
    finish(
        args,
        &analyzegate::gate_json(&gate, deny_warn),
        &analyzegate::render(&gate, deny_warn),
        analyzegate::gate_passes(&gate, deny_warn),
        "",
    );
}

/// `repro conform`: the differential conformance campaign, the pinned
/// CI configuration or with `--full` the larger one. Exit 1 when the
/// report does not pass (divergence, contract or metamorphic violation,
/// or incomplete coverage).
fn run_conform(args: &Args) {
    use timber_conformance::{run_campaign, CampaignSpec};
    let seed = args.get("seed").unwrap_or(DEFAULT_SEED);
    let spec = if args.on("full") {
        CampaignSpec::full(seed)
    } else {
        CampaignSpec::pinned(seed)
    };
    let report = run_campaign(&spec.threads(threads(args)).sabotage(args.on("sabotage")));
    finish(args, &report.json(), &report.render(), report.pass(), "");
}

/// `repro soak`: the resilience soak campaign. Exit 1 when the report
/// does not pass (a real trial quarantined or missing, or an injected
/// failure escaping the ledger); checkpoint I/O problems are usage
/// errors (exit 2) naming the offending path.
fn run_soak(args: &Args) {
    let seed = args.get("seed").unwrap_or(soak::DEFAULT_SEED);
    let pinned = soak::SoakSpec::pinned(seed);
    let spec = soak::SoakSpec {
        cycles: args.get("cycles").unwrap_or(pinned.cycles),
        threads: threads(args),
        checkpoint: args.get("checkpoint"),
        resume: args.on("resume"),
        inject_panic: args.get("inject-panic").unwrap_or(pinned.inject_panic),
        inject_hang: args.get("inject-hang").unwrap_or(pinned.inject_hang),
        stop_after: args.get("stop-after"),
        retry: retry_policy(args, seed),
        watchdog: args
            .get("watchdog")
            .map_or(pinned.watchdog, Duration::from_millis),
        ..pinned
    };
    if spec.resume && spec.checkpoint.is_none() {
        die("--resume needs --checkpoint FILE");
    }
    quiet_panics();
    let report = soak::run(&spec).unwrap_or_else(|e| {
        let path = args.text("checkpoint").unwrap_or("<none>");
        die(&format!("cannot use checkpoint {path}: {e}"))
    });
    finish(args, &report.json(), &report.render(), report.pass(), "");
}

/// `repro serve`: the persistent evaluation daemon. Serves JSONL
/// requests on stdin (or `--socket PATH`) until a shutdown request or
/// EOF; journal/socket I/O problems are usage errors (exit 2) naming
/// the path.
fn run_serve(args: &Args) {
    let defaults = timber_serve::EngineConfig::default();
    let config = timber_serve::EngineConfig {
        result_capacity: args.get("capacity").unwrap_or(defaults.result_capacity),
        threads: threads(args),
        journal: args.get("checkpoint"),
        resume: args.on("resume"),
        retry: retry_policy(args, args.get("seed").unwrap_or(DEFAULT_SEED)),
        watchdog: args
            .get("watchdog")
            .map_or(defaults.watchdog, Duration::from_millis),
        ..defaults
    };
    let batch_size = args
        .get("batch-size")
        .unwrap_or(timber_serve::DEFAULT_BATCH_SIZE)
        .max(1);
    if config.resume && config.journal.is_none() {
        die("--resume needs --checkpoint FILE");
    }
    quiet_panics();
    let mut engine = timber_serve::Engine::new(config).unwrap_or_else(|e| {
        let journal = args.text("checkpoint").unwrap_or("<none>");
        die(&format!("cannot open journal {journal}: {e}"))
    });
    match args.text("socket") {
        Some(path) => {
            eprintln!("repro serve: listening on {path}");
            timber_serve::serve_unix(&mut engine, std::path::Path::new(path), batch_size)
                .unwrap_or_else(|e| die(&format!("cannot serve socket {path}: {e}")));
        }
        None => {
            let stdin = std::io::stdin().lock();
            let mut stdout = std::io::stdout().lock();
            timber_serve::serve_lines(&mut engine, stdin, &mut stdout, batch_size)
                .unwrap_or_else(|e| die(&format!("cannot serve stdin: {e}")));
        }
    }
}

/// `repro storm`: the deterministic load campaign against a fresh
/// engine. Exit 1 when the gate fails (a real request not answered
/// `ok`, a poisoned request escaping quarantine, or the hit-rate or
/// hit-speedup floor breached).
fn run_storm(args: &Args) {
    let pinned = timber_serve::StormSpec::pinned(args.get("seed").unwrap_or(DEFAULT_SEED));
    let spec = timber_serve::StormSpec {
        clients: args.get("clients").unwrap_or(pinned.clients),
        requests: args.get("requests").unwrap_or(pinned.requests),
        poison: args.get("poison").unwrap_or(pinned.poison),
        threads: threads(args),
        // The CLI batches like `serve`, not like the pinned CI campaign.
        batch_size: args
            .get("batch-size")
            .unwrap_or(timber_serve::DEFAULT_BATCH_SIZE),
        capacity: args.get("capacity").unwrap_or(pinned.capacity),
        chaos_seed: args.get("chaos-seed"),
        retry_base_ms: args.get("retry-base").unwrap_or(pinned.retry_base_ms),
        retry_cap_ms: args.get("retry-cap").unwrap_or(pinned.retry_cap_ms),
        ..pinned
    };
    quiet_panics();
    let report = timber_serve::storm::run(&spec).unwrap_or_else(|e| die(&format!("storm: {e}")));
    let text = report.render();
    let diagnostic = format!("repro storm FAILED:\n{text}\n");
    finish(args, &report.json(), &text, report.pass(), &diagnostic);
}

/// `repro chaos`: the deterministic fault-injection campaign against
/// an in-process engine. Exit 1 when the accounting gate fails (an
/// injected fault unaccounted for, a corrupted response served, or the
/// final replay drifting from the unfaulted oracle — with
/// `--sabotage`, which disables the cache-read checksum, exiting 1
/// *is* the expected self-test outcome).
fn run_chaos(args: &Args) {
    let spec = timber_chaos::ChaosSpec {
        seed: args.get("seed").unwrap_or(DEFAULT_SEED),
        faults: args.get("faults").unwrap_or(timber_chaos::DEFAULT_FAULTS),
        threads: threads(args),
        sabotage: args.on("sabotage"),
    };
    quiet_panics();
    let report = timber_chaos::run(&spec).unwrap_or_else(|e| die(&format!("chaos: {e}")));
    let text = report.render();
    let diagnostic = format!("repro chaos FAILED:\n{text}\n");
    finish(args, &report.json(), &text, report.pass(), &diagnostic);
}

/// `repro tune`: the design-space autotuner and its golden-frontier
/// gate. Exit 1 when the run fails its own validation (dominated
/// frontier member, paper anchor out of band — with `--sabotage`,
/// exiting 1 *is* the expected self-test outcome) or when
/// `--frontier-check` finds the recomputed document drifted from the
/// committed golden; unreadable or malformed goldens are usage errors.
fn run_tune(args: &Args) {
    // `tune` has its own defaults (seed 42, band tolerance 0.25),
    // distinct from the conform seed and the bench-check tolerance
    // that share the flag names.
    let defaults = timber_tune::TuneSpec::default();
    let spec = timber_tune::TuneSpec {
        seed: args.get("seed").unwrap_or(defaults.seed),
        budget: args.get("budget").unwrap_or(defaults.budget),
        threads: threads(args),
        tolerance: args.get("tolerance").unwrap_or(defaults.tolerance),
        sabotage: args.on("sabotage"),
    };
    if let Some(path) = args.text("frontier-check") {
        frontier_check(path, spec.threads);
        return;
    }
    let (report, doc) = tune::tune_document(&spec);
    let violations: String = report
        .violations()
        .iter()
        .map(|v| format!("  - {v}\n"))
        .collect();
    finish(
        args,
        doc.trim_end(),
        &timber_tune::render(&report),
        report.pass(),
        &format!("repro tune FAILED:\n{violations}"),
    );
}

/// `repro tune --frontier-check FILE`: recomputes the golden frontier
/// with the spec recorded inside it and fails on any byte of drift.
fn frontier_check(path: &str, threads: usize) {
    let golden =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    match tune::frontier_check(&golden, threads) {
        Ok(tune::FrontierCheck::Match) => {
            println!("repro tune: frontier check PASS ({path} reproduces byte-identically)");
        }
        Ok(tune::FrontierCheck::Drift {
            line,
            golden,
            fresh,
        }) => {
            eprintln!("repro tune FAILED: {path} drifted from the recomputed frontier");
            eprintln!("  first difference at line {line}:");
            eprintln!("  golden: {golden}");
            eprintln!("  fresh:  {fresh}");
            std::process::exit(1);
        }
        Ok(tune::FrontierCheck::Invalid(violations)) => {
            eprintln!("repro tune FAILED: recomputed frontier does not validate:");
            for v in &violations {
                eprintln!("  - {v}");
            }
            std::process::exit(1);
        }
        Err(msg) => die(&msg),
    }
}

/// `repro trace <experiment>`: runs the experiment with telemetry and
/// exports the trace.
fn run_trace(args: &Args) {
    let threads = threads(args);
    let experiment = args
        .positionals
        .get(1)
        .unwrap_or_else(|| die("trace needs an experiment, e.g. `repro trace claims`"));
    println!("== Telemetry trace: {experiment} ==");
    let t = trace::trace_experiment(experiment, 1_000_000, threads, trace::DEFAULT_RING_CAPACITY)
        .unwrap_or_else(|e| die(&e));
    print!("{}", t.render());
    if let Some(path) = args.text("telemetry") {
        std::fs::write(path, t.json())
            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        let csv_path = format!(
            "{}.csv",
            path.rsplit_once('.').map_or(path, |(stem, _)| stem)
        );
        std::fs::write(&csv_path, t.csv())
            .unwrap_or_else(|e| die(&format!("cannot write {csv_path}: {e}")));
        println!("wrote {path} and {csv_path}");
    }
}

/// `repro bench-check`: the CI regression gate over `BENCH_pipeline.json`
/// documents. Within-run checks always run; the cross-run throughput
/// comparison needs `--baseline`.
fn run_bench_check(args: &Args) {
    let tolerance = args.get("tolerance").unwrap_or(0.15);
    let max_overhead = args.get("max-overhead").unwrap_or(0.5);
    let fresh = args
        .text("fresh")
        .unwrap_or_else(|| die("bench-check needs --fresh FILE"));
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")))
    };
    let baseline = args.text("baseline").map(read);
    match perf::bench_check(baseline.as_deref(), &read(fresh), tolerance, max_overhead) {
        Ok(report) => print!("{report}"),
        Err(breaches) => {
            eprintln!("repro bench-check FAILED:\n{breaches}");
            std::process::exit(1);
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_subcommand_table_names_only_known_flags_and_uses_every_flag() {
        let used: Vec<&str> = SUBCOMMANDS
            .iter()
            .flat_map(|(_, _, flags, _)| flags.split_whitespace())
            .collect();
        for flag in &used {
            assert!(FLAGS.iter().any(|(name, _)| name == flag), "--{flag}");
        }
        for (name, _) in FLAGS {
            assert!(used.contains(name), "--{name} is read by no subcommand");
        }
    }
}
