//! The three `timber-serve` workloads — `sweep-cold`, `trials-heavy`
//! (closed loops) and `zipf-open` (open loop) — and their traced
//! replay through the service's public building blocks.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use timber::CheckingPeriod;
use timber_lint::{snap_period, ScheduleSpec};
use timber_netlist::{
    alu, array_multiplier, kogge_stone_adder, pipelined_datapath, random_dag, ripple_carry_adder,
    CellLibrary, DatapathSpec, Netlist, Picos, RandomDagSpec,
};
use timber_pipeline::montecarlo::splitmix64;
use timber_pipeline::{GovernorConfig, PipelineConfig, PipelineSim, RunStats};
use timber_proc::structural::{proxy_netlist, stage_profiles_from_netlist};
use timber_proc::PerfPoint;
use timber_resilience::{
    run_hardened, scan_log, HardenedSpec, JournalWriter, RetryPolicy, TrialJob,
};
use timber_schemes::Registry;
use timber_serve::engine::{
    DEFAULT_DESIGN_CAPACITY, DEFAULT_MAX_ATTEMPTS, DEFAULT_RESULT_CAPACITY, DEFAULT_WATCHDOG,
};
use timber_serve::{
    compile, evaluate, open, parse_request, seal, CacheKey, CompiledDesign, DesignId, Engine,
    EngineConfig, EvalSpec, LruCache, Request, Response, ServiceGovernor, ServiceGovernorConfig,
    ServiceLevel, DEFAULT_BATCH_SIZE,
};
use timber_sta::{ClockConstraint, HoldAnalysis, TimingAnalysis};
use timber_telemetry::ServiceCounter;
use timber_variability::{SensitizationModel, StagePathProfile, VariabilityBuilder};

use crate::gen::{self, HeavyStream, Req, Rng, SweepStream, ZipfPool};
use crate::report::{median, ns_to_ms, quantile, Metric, RunResult};
use crate::trace::{self, Tracer};
use crate::Ctx;

/// Open-loop arrival rate of `zipf-open`, requests per second. Fixed,
/// so runs on any commit offer the same load; low enough that even the
/// 90th-percentile request is a cache hit that did not wait behind a
/// miss (see `perfbench/README.md`).
pub const ZIPF_RATE: f64 = 500.0;

/// Requests a traced open-loop phase stops at: the replay keeps every
/// line, body digest and span in memory.
const TRACE_LIMIT: u64 = 40_000;

/// Requests in the seeded correctness sample of each run.
const SAMPLE: usize = 6;

/// FNV-1a digest of a response body.
fn digest(body: &str) -> u64 {
    gen::fnv1a(gen::FNV_START, body.as_bytes())
}

/// The content key a response body names.
fn body_key(body: &str) -> Option<&str> {
    let at = body.find("\"key\":\"")? + 7;
    body.get(at..at + 64)
}

/// Client-side checks on every response of a run.
struct Checker {
    /// Body digest first served for each key.
    bodies: HashMap<String, u64>,
    /// Seeded reservoir of `(request line, body)` pairs re-derived from
    /// scratch after the run.
    sample: Vec<(String, String)>,
    seen: u64,
    rng: Rng,
    /// Responses that were not `ok`.
    not_ok: u64,
    failures: Vec<String>,
}

impl Checker {
    fn new(seed: u64) -> Checker {
        Checker {
            bodies: HashMap::new(),
            sample: Vec::new(),
            seen: 0,
            rng: Rng::new(gen::mix(seed ^ 0xC4EC)),
            not_ok: 0,
            failures: Vec::new(),
        }
    }

    /// Checks one response to `line`.
    fn observe(&mut self, line: &str, r: &Response) {
        if !r.body.starts_with("\"status\":\"ok\"") {
            self.not_ok += 1;
            if self.failures.len() < 4 {
                self.failures
                    .push(format!("id {} not ok: {}", r.id, r.body));
            }
            return;
        }
        let Some(key) = body_key(&r.body) else {
            self.not_ok += 1;
            return;
        };
        let d = digest(&r.body);
        match self.bodies.get(key) {
            Some(&first) if first != d => {
                self.not_ok += 1;
                self.failures
                    .push(format!("key {key} served two different bodies"));
            }
            Some(_) => {}
            None => {
                self.bodies.insert(key.to_owned(), d);
            }
        }
        // Algorithm R over ok responses.
        self.seen += 1;
        if self.sample.len() < SAMPLE {
            self.sample.push((line.to_owned(), r.body.clone()));
        } else {
            let j = self.rng.below(self.seen as usize);
            if j < SAMPLE {
                self.sample[j] = (line.to_owned(), r.body.clone());
            }
        }
    }

    /// Re-derives every sampled body with a fresh compile + evaluate.
    fn verify_sample(&mut self) {
        for (line, body) in &self.sample {
            match parse_request(line, 0) {
                Ok(Request::Eval { spec, .. }) => {
                    if evaluate(&compile(&spec), &spec) != *body {
                        self.failures
                            .push(format!("fresh compile+evaluate differs for {line}"));
                    }
                }
                _ => self
                    .failures
                    .push(format!("sampled line does not parse: {line}")),
            }
        }
    }
}

/// One `process_batch` call as the client saw it.
#[derive(Debug, Clone, Copy)]
struct Batch {
    /// First request index and one past the last.
    from: usize,
    to: usize,
    /// Wall time of `process_batch` plus rendering, ns.
    dur: u64,
}

/// One measurement window: consecutive batches (closed loops) or one
/// second of the virtual clock (open loop).
#[derive(Debug, Clone, Copy, Default)]
struct Window {
    /// Responses that came back `ok`.
    ok: u64,
    /// Result-cache misses the engine counted.
    misses: u64,
    /// Service time (closed) or clock time (open) the window covers, ns.
    span: u64,
    /// Latency p50, p90 and p99 of the window's requests, ms.
    lat: [f64; 3],
    /// The window's requests, as a range of request indices.
    reqs: (usize, usize),
    /// Share of the host's CPU time stolen from this machine (closed
    /// loops; 0 in the open loop, whose windows are too short to tell).
    steal: f64,
}

impl Window {
    fn close(ok: u64, misses: u64, span: u64, latency: &[u64], reqs: (usize, usize)) -> Window {
        let ms = ns_to_ms(latency);
        Window {
            ok,
            misses,
            span,
            lat: [quantile(&ms, 0.5), quantile(&ms, 0.9), quantile(&ms, 0.99)],
            reqs,
            steal: 0.0,
        }
    }

    /// `ok` responses per second.
    fn rps(&self) -> f64 {
        self.ok as f64 / (self.span.max(1) as f64 / 1e9)
    }
}

/// What a timed loop recorded.
#[derive(Debug, Default)]
struct Timed {
    /// Requests sent, answered `ok`, and engine calls made.
    requests: u64,
    ok: u64,
    calls: u64,
    windows: Vec<Window>,
    /// Per-request latency, ns (closed loops; the open loop keeps only
    /// its window summaries, so memory does not grow with speed).
    latency: Vec<u64>,
    /// Per-call batches, and per-request queue waits and body digests
    /// (kept for the traced replay).
    batches: Vec<Batch>,
    queue_wait: Vec<u64>,
    bodies: Vec<u64>,
    /// Harness time between engine calls, ns (open loop, traced).
    late: Vec<u64>,
}

/// Runs one batch through the engine and renders it as the server
/// would; checks every response.
fn serve_batch(
    engine: &mut Engine,
    lines: &[String],
    checker: &mut Checker,
    bodies: Option<&mut Vec<u64>>,
) -> io::Result<(u64, u64, u64)> {
    let misses0 = engine.stats().counter(ServiceCounter::Misses);
    let t0 = Instant::now();
    let out = engine.process_batch(lines)?;
    let mut wire = String::with_capacity(out.responses.len() * 640);
    for r in &out.responses {
        wire.push_str(&r.render());
        wire.push('\n');
    }
    std::hint::black_box(&wire);
    let dur = t0.elapsed().as_nanos() as u64;
    let misses = engine.stats().counter(ServiceCounter::Misses) - misses0;
    let before = checker.not_ok;
    // Responses sort by id and ids are the line indices, so response
    // k answers line k.
    for (line, r) in lines.iter().zip(&out.responses) {
        checker.observe(line, r);
    }
    if out.responses.len() != lines.len() {
        checker.not_ok += lines.len().saturating_sub(out.responses.len()) as u64;
        checker.failures.push("a batch lost responses".to_owned());
    }
    if let Some(b) = bodies {
        b.extend(out.responses.iter().map(|r| digest(&r.body)));
    }
    let ok = lines.len() as u64 - (checker.not_ok - before).min(lines.len() as u64);
    Ok((dur, ok, misses))
}

/// Closed loop: one client sends the next batch when the last returns.
fn closed_loop(
    engine: &mut Engine,
    req: &dyn Fn(u64) -> Req,
    budget: Duration,
    checker: &mut Checker,
    keep_bodies: bool,
) -> io::Result<(Timed, Vec<String>)> {
    let mut t = Timed::default();
    let mut kept = Vec::new();
    let mut per_call: Vec<(u64, u64, u64)> = Vec::new();
    let mut jiffies = vec![crate::report::cpu_jiffies()];
    let start = Instant::now();
    while start.elapsed() < budget {
        let from = t.requests;
        let lines = gen::batch_lines(req, from);
        let bodies = keep_bodies.then_some(&mut t.bodies);
        let (dur, ok, misses) = serve_batch(engine, &lines, checker, bodies)?;
        let n = lines.len() as u64;
        t.latency.extend(std::iter::repeat_n(dur, n as usize));
        t.batches.push(Batch {
            from: from as usize,
            to: (from + n) as usize,
            dur,
        });
        per_call.push((dur, ok, misses));
        jiffies.push(crate::report::cpu_jiffies());
        t.requests += n;
        t.ok += ok;
        t.calls += 1;
        if keep_bodies {
            kept.extend(lines);
        }
    }
    // About ten windows of consecutive calls.
    let per = per_call.len().div_ceil(10).max(1);
    for (w, calls) in per_call.chunks(per).enumerate() {
        let (first, last) = (w * per, w * per + calls.len());
        let reqs = (t.batches[first].from, t.batches[last - 1].to);
        let mut window = Window::close(
            calls.iter().map(|c| c.1).sum(),
            calls.iter().map(|c| c.2).sum(),
            calls.iter().map(|c| c.0).sum(),
            &t.latency[reqs.0..reqs.1],
            reqs,
        );
        window.steal = crate::report::steal_share(jiffies[first], jiffies[last]);
        t.windows.push(window);
    }
    Ok((t, kept))
}

/// Open loop on a virtual clock: requests fall due on a Poisson
/// schedule whatever the engine is doing; each call takes every request
/// due by now, up to a batch. Service time is real; idle gaps are
/// skipped instead of slept, so generator wake-up jitter and host
/// stalls while idle stay out of the figures. Latency runs from each
/// request's due time on that clock; each second of the clock is one
/// window.
fn open_loop(
    engine: &mut Engine,
    arrivals: &mut dyn Iterator<Item = (u64, Req)>,
    budget: Duration,
    checker: &mut Checker,
    keep_bodies: bool,
) -> io::Result<(Timed, Vec<String>)> {
    const SECOND: u64 = 1_000_000_000;
    let mut t = Timed::default();
    let mut kept = Vec::new();
    let start = Instant::now();
    let mut next = arrivals.next().expect("the schedule is endless");
    let mut clock = 0u64;
    let mut window = (0u64, 0u64, Vec::new());
    let mut window_second = next.0 / SECOND;
    let mut last_return = Instant::now();
    while start.elapsed() < budget && !(keep_bodies && t.requests >= TRACE_LIMIT) {
        clock = clock.max(next.0);
        let from = t.requests;
        let (mut lines, mut due) = (Vec::new(), Vec::new());
        while next.0 <= clock && lines.len() < DEFAULT_BATCH_SIZE {
            lines.push(next.1.line(from + lines.len() as u64));
            due.push(next.0);
            next = arrivals.next().expect("the schedule is endless");
        }
        // Harness time between calls: how late a real-time generator
        // would have been.
        if keep_bodies {
            t.late.push(last_return.elapsed().as_nanos() as u64);
        }
        let bodies = keep_bodies.then_some(&mut t.bodies);
        let (dur, ok, misses) = serve_batch(engine, &lines, checker, bodies)?;
        last_return = Instant::now();
        // A call finishing in a later second closes the current window.
        let second = (clock + dur) / SECOND;
        if second > window_second {
            let (w_ok, w_misses, lat) = std::mem::take(&mut window);
            let span = (second - window_second) * SECOND;
            t.windows
                .push(Window::close(w_ok, w_misses, span, &lat, (0, 0)));
            window_second = second;
        }
        for &d in &due {
            window.2.push(clock + dur - d);
            if keep_bodies {
                t.queue_wait.push(clock - d);
            }
        }
        window.0 += ok;
        window.1 += misses;
        clock += dur;
        t.requests += lines.len() as u64;
        t.ok += ok;
        t.calls += 1;
        if keep_bodies {
            t.batches.push(Batch {
                from: from as usize,
                to: t.requests as usize,
                dur,
            });
            kept.extend(lines);
        }
    }
    // The last, partial second is dropped when there are full ones.
    if t.windows.is_empty() {
        t.windows.push(Window::close(
            window.0,
            window.1,
            (clock % SECOND).max(1),
            &window.2,
            (0, 0),
        ));
    }
    Ok((t, kept))
}

/// The three serve workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Distinct specs, design tier ~50% hits, journal written.
    SweepCold,
    /// Warm designs, 64 trials × 2000 cycles per request.
    TrialsHeavy,
    /// Zipf-popular specs at a fixed Poisson rate, journal resumed.
    ZipfOpen,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::SweepCold => "sweep-cold",
            Kind::TrialsHeavy => "trials-heavy",
            Kind::ZipfOpen => "zipf-open",
        }
    }

    /// Simulated cycles one result-cache miss costs.
    fn cycles_per_miss(self) -> u64 {
        match self {
            Kind::TrialsHeavy => gen::HEAVY_TRIALS as u64 * gen::HEAVY_CYCLES,
            Kind::SweepCold | Kind::ZipfOpen => 2 * 400,
        }
    }
}

/// A workload's generated inputs.
enum Input {
    Sweep(SweepStream),
    Heavy(HeavyStream),
    Zipf(ZipfPool),
}

fn engine_config(ctx: &Ctx, journal: &Path, resume: bool) -> EngineConfig {
    EngineConfig {
        threads: ctx.threads,
        journal: Some(journal.to_path_buf()),
        resume,
        ..EngineConfig::default()
    }
}

/// Writes the `zipf-open` resume journal: the pool's most popular
/// ranks, least popular first, so a resume keeps the popular head.
fn write_zipf_journal(ctx: &Ctx, pool: &ZipfPool, path: &Path) -> io::Result<()> {
    let _ = std::fs::remove_file(path);
    let mut engine = Engine::new(engine_config(ctx, path, false))?;
    let reqs: Vec<Req> = (0..gen::ZIPF_JOURNAL)
        .rev()
        .map(|r| pool.ranked(r))
        .collect();
    for (b, chunk) in reqs.chunks(DEFAULT_BATCH_SIZE).enumerate() {
        let lines: Vec<String> = chunk
            .iter()
            .enumerate()
            .map(|(k, r)| r.line((b * DEFAULT_BATCH_SIZE + k) as u64))
            .collect();
        let out = engine.process_batch(&lines)?;
        if out
            .responses
            .iter()
            .any(|r| !r.body.starts_with("\"status\":\"ok\""))
        {
            return Err(io::Error::other(
                "journal preparation produced a non-ok response",
            ));
        }
    }
    Ok(())
}

/// Puts the journal in its pre-run state: the prepared copy when the
/// workload resumes one, else an empty file (truncated in place, so no
/// file creation or deletion lands inside a timed set-up).
fn reset_journal(journal: &Path, prepared: Option<&Path>) -> io::Result<()> {
    match prepared {
        Some(src) => std::fs::copy(src, journal).map(drop),
        None => std::fs::File::create(journal).map(drop),
    }
}

/// The workload's set-up: engine construction (with the journal resume
/// for `zipf-open`) and the design warm-up for `trials-heavy`.
fn fresh_engine(ctx: &Ctx, kind: Kind, journal: &Path, resume: bool) -> io::Result<Engine> {
    let mut engine = Engine::new(engine_config(ctx, journal, resume))?;
    // The client starts once the service answers a `stats` request.
    let ready = engine.process_batch(&[r#"{"op":"stats"}"#.to_owned()])?;
    if !ready
        .responses
        .iter()
        .all(|r| r.body.starts_with("\"status\":\"ok\""))
    {
        return Err(io::Error::other(
            "the engine did not answer its readiness probe",
        ));
    }
    if kind == Kind::TrialsHeavy {
        let warm: Vec<String> = (0..DesignId::EVALUABLE.len())
            .map(|d| HeavyStream::warm_req(d).line(d as u64))
            .collect();
        let out = engine.process_batch(&warm)?;
        if out
            .responses
            .iter()
            .any(|r| !r.body.starts_with("\"status\":\"ok\""))
        {
            return Err(io::Error::other(
                "design warm-up produced a non-ok response",
            ));
        }
    }
    Ok(engine)
}

/// Runs the set-up repeatedly (see [`Ctx::setup_done`]); returns the
/// last engine and every set-up time in seconds.
fn set_up(
    ctx: &Ctx,
    kind: Kind,
    journal: &Path,
    prepared: Option<&Path>,
) -> io::Result<(Engine, Vec<f64>)> {
    // One reset serves every repetition: a set-up writes nothing to the
    // journal but `trials-heavy`'s warm-up records, which no resume
    // reads, so no file is created, copied or truncated inside a timing.
    reset_journal(journal, prepared)?;
    let mut times = Vec::new();
    let started = Instant::now();
    loop {
        let t0 = Instant::now();
        let engine = fresh_engine(ctx, kind, journal, prepared.is_some())?;
        times.push(t0.elapsed().as_secs_f64());
        if ctx.setup_done(&times, started) {
            return Ok((engine, times));
        }
    }
}

fn generate(ctx: &Ctx, kind: Kind) -> Input {
    match kind {
        Kind::SweepCold => Input::Sweep(SweepStream::new(ctx.seed)),
        Kind::TrialsHeavy => Input::Heavy(HeavyStream::new(ctx.seed)),
        Kind::ZipfOpen => Input::Zipf(ZipfPool::new(ctx.seed)),
    }
}

/// Runs a timed phase of `budget` against `engine`.
fn run_timed(
    ctx: &Ctx,
    engine: &mut Engine,
    input: &Input,
    budget: Duration,
    checker: &mut Checker,
    keep_bodies: bool,
) -> io::Result<(Timed, Vec<String>)> {
    match input {
        Input::Sweep(s) => closed_loop(engine, &|i| s.req(i), budget, checker, keep_bodies),
        Input::Heavy(h) => closed_loop(engine, &|i| h.req(i), budget, checker, keep_bodies),
        Input::Zipf(pool) => {
            let mut arrivals = gen::ZipfArrivals::new(ctx.seed, pool, ZIPF_RATE);
            open_loop(engine, &mut arrivals, budget, checker, keep_bodies)
        }
    }
}

/// The untraced run: every end-to-end metric.
pub fn run(ctx: &Ctx, kind: Kind) -> io::Result<RunResult> {
    let budget = Duration::from_secs_f64(ctx.seconds);
    let journal = ctx.work.join("journal.log");
    let input = generate(ctx, kind);
    let prepared = ctx.work.join("journal.prepared");
    let resume = if let Input::Zipf(pool) = &input {
        write_zipf_journal(ctx, pool, &prepared)?;
        Some(prepared.as_path())
    } else {
        None
    };
    let (mut engine, setup) = set_up(ctx, kind, &journal, resume)?;
    let mut checker = Checker::new(ctx.seed);
    let (t, _) = run_timed(ctx, &mut engine, &input, budget, &mut checker, false)?;
    checker.verify_sample();

    // Rates: the median over windows in a closed loop. In the open loop
    // the rate is the offered load unless the engine falls behind, and
    // one-second counts are coarse, so it is the whole run's total over
    // its clock time. Closed loops count each window's time net of the
    // share the host stole, and use the quieter half of their windows.
    let mut windows = t.windows.clone();
    if kind == Kind::ZipfOpen {
        windows = vec![windows.iter().fold(Window::default(), |a, w| Window {
            ok: a.ok + w.ok,
            misses: a.misses + w.misses,
            span: a.span + w.span,
            ..a
        })];
    } else {
        let steal: Vec<f64> = windows.iter().map(|w| w.steal).collect();
        windows = crate::report::quiet_half(&steal)
            .into_iter()
            .map(|i| Window {
                span: crate::report::net_of_steal(windows[i].span, windows[i].steal),
                ..windows[i]
            })
            .collect();
    }
    let rps: Vec<f64> = windows.iter().map(Window::rps).collect();
    let cycles = kind.cycles_per_miss() as f64;
    let mcps: Vec<f64> = windows
        .iter()
        .map(|w| w.misses as f64 * cycles / (w.span.max(1) as f64 / 1e9) / 1e6)
        .collect();
    // Closed loops: percentiles over every request. The open loop: the
    // median over one-second windows of each window's percentile, so a
    // burst of host contention in one second does not set the figure.
    let lat: Vec<f64> = windows
        .iter()
        .flat_map(|w| {
            let net: Vec<u64> = t.latency[w.reqs.0..w.reqs.1]
                .iter()
                .map(|&ns| crate::report::net_of_steal(ns, w.steal))
                .collect();
            ns_to_ms(&net)
        })
        .collect();
    let pct = |i: usize, q: f64| -> f64 {
        if kind == Kind::ZipfOpen {
            median(&t.windows.iter().map(|w| w.lat[i]).collect::<Vec<_>>())
        } else {
            quantile(&lat, q)
        }
    };
    let n = if kind == Kind::ZipfOpen {
        t.requests as usize
    } else {
        lat.len()
    };
    let metrics = vec![
        Metric {
            name: "throughput_rps".into(),
            value: median(&rps),
            samples: rps.len(),
        },
        Metric {
            name: "latency_p50_ms".into(),
            value: pct(0, 0.5),
            samples: n,
        },
        Metric {
            name: "latency_p90_ms".into(),
            value: pct(1, 0.9),
            samples: n,
        },
        Metric {
            name: "sim_mcycles_per_s".into(),
            value: median(&mcps),
            samples: mcps.len(),
        },
        Metric {
            name: "setup_s".into(),
            value: median(&setup),
            samples: setup.len(),
        },
        Metric {
            name: "peak_rss_mb".into(),
            value: crate::report::peak_rss_mb(),
            samples: 1,
        },
    ];
    let stats = engine.stats();
    let mut notes = vec![
        format!("latency_p99_ms {:.6} ms n={n}", pct(2, 0.99)),
        crate::report::setup_note(&setup),
        format!(
            "requests {} ok {} calls {} result_hits {} misses {} design_hits {} design_misses {}",
            t.requests,
            t.ok,
            t.calls,
            stats.counter(ServiceCounter::Hits),
            stats.counter(ServiceCounter::Misses),
            stats.counter(ServiceCounter::DesignHits),
            stats.counter(ServiceCounter::DesignMisses),
        ),
    ];
    if kind == Kind::ZipfOpen {
        notes.push(format!(
            "open loop at {ZIPF_RATE:.0} req/s offered (virtual clock)"
        ));
    } else {
        notes.push(format!(
            "windows used: {} of {} (the quieter half by host steal; theirs {:.2}%, all {:.2}%)",
            windows.len(),
            t.windows.len(),
            100.0 * median(&windows.iter().map(|w| w.steal).collect::<Vec<_>>()),
            100.0 * median(&t.windows.iter().map(|w| w.steal).collect::<Vec<_>>()),
        ));
    }
    let failed = checker.not_ok + checker.failures.len() as u64;
    Ok(RunResult {
        workload: kind.name().into(),
        seed: ctx.seed,
        trace: false,
        attempted: t.requests,
        failed,
        base: "requests",
        check_failures: checker.failures,
        metrics,
        notes,
    })
}

// ---------------------------------------------------------------------
// Traced replay
// ---------------------------------------------------------------------

// The compiler's private steps, restated so each public call inside them
// gets its own span. A traced run checks the result against
// `timber_serve::compile` and fails if they ever drift apart.

/// Stage-boundary count of the generator designs (as the compiler).
const STAGES: usize = 4;
/// Seed of the processor proxy netlist (as the compiler).
const PROC_SEED: u64 = 11;

/// The compiler's generator dispatch.
fn generator_netlist(design: DesignId) -> Netlist {
    let lib = CellLibrary::standard();
    match design {
        DesignId::Rca16 => ripple_carry_adder(&lib, 16).expect("generator"),
        DesignId::Ks16 => kogge_stone_adder(&lib, 16).expect("generator"),
        DesignId::Mul8 => array_multiplier(&lib, 8).expect("generator"),
        DesignId::Alu8 => alu(&lib, 8).expect("generator"),
        DesignId::RandomDag => random_dag(&lib, &RandomDagSpec::default()).expect("generator"),
        DesignId::Datapath => pipelined_datapath(&lib, &DatapathSpec::uniform(4, 12, 150, 0.7, 17))
            .expect("generator"),
        DesignId::Proc => proxy_netlist(PROC_SEED),
        DesignId::Poison => unreachable!("the benchmark never sends poison"),
    }
}

/// The compiler's STA-quantile stage profiles.
fn quantile_profiles(netlist: &Netlist, sta: &TimingAnalysis<'_>) -> Vec<StagePathProfile> {
    let mut arrivals: Vec<Picos> = netlist
        .flop_ids()
        .map(|f| sta.arrival(netlist.flop(f).d()))
        .filter(|&a| a > Picos::ZERO && a < Picos::MAX)
        .collect();
    let profile = if arrivals.is_empty() {
        StagePathProfile::from_critical(sta.worst_arrival())
    } else {
        arrivals.sort();
        let pick = |q: f64| arrivals[((arrivals.len() - 1) as f64 * q) as usize];
        let critical = *arrivals.last().expect("non-empty");
        let near = pick(0.90).min(critical);
        let typical = pick(0.50).min(near);
        StagePathProfile {
            critical,
            near_critical: near,
            typical,
            p_critical: 1e-3,
            p_near: 1e-2,
        }
    };
    vec![profile; STAGES]
}

/// `timber_serve::compile`, one public call per span.
fn compile_traced(spec: &EvalSpec, tr: &mut Tracer, req: u64) -> CompiledDesign {
    let schedule_spec = ScheduleSpec {
        checking_pct: spec.checking_pct,
        k_tb: spec.k_tb,
        k_ed: spec.k_ed,
        relay_increment: 1,
    };
    let netlist = tr.span("netlist.generate", req, || generator_netlist(spec.design));
    let sta = tr.span("sta.setup", req, || {
        TimingAnalysis::run(&netlist, &ClockConstraint::with_period(Picos(1_000_000)))
    });
    let raw = sta.worst_arrival().scale(1.05) + Picos(30);
    let period = tr.span("lint.snap_period", req, || snap_period(raw, &schedule_spec));
    let schedule = CheckingPeriod::new(period, spec.checking_pct, spec.k_tb, spec.k_ed)
        .expect("snapped period admits the validated schedule");
    let profiles = tr.span("proc.profiles", req, || {
        if spec.design == DesignId::Proc {
            stage_profiles_from_netlist(&netlist, PerfPoint::High)
        } else {
            quantile_profiles(&netlist, &sta)
        }
    });
    let plan = tr.span("sta.hold_plan", req, || {
        HoldAnalysis::run(&netlist, &ClockConstraint::with_period(period))
            .padding_plan(&netlist, schedule.checking())
    });
    CompiledDesign {
        design: spec.design,
        period,
        schedule,
        profiles,
        padding_floor: plan.floor,
        padding_endpoints: plan.deficits.len(),
        padding_total: plan.total_padding,
        flops: netlist.flop_ids().count(),
        nets: netlist.net_ids().count(),
    }
}

/// `timber_serve::evaluate`'s trial loop, one public call per span;
/// returns the merged statistics and the simulated cycle count.
fn evaluate_traced(
    compiled: &CompiledDesign,
    spec: &EvalSpec,
    tr: &mut Tracer,
    req: u64,
) -> RunStats {
    let stages = compiled.profiles.len();
    let registry = tr.span("schemes.registry", req, || {
        Registry::new(compiled.schedule, stages)
    });
    let mut totals = RunStats::default();
    for trial in 0..spec.trials {
        let seed = splitmix64(spec.seed, trial as u64);
        let mut scheme = tr.span("schemes.build", req, || registry.build(spec.scheme, seed));
        let (mut sens, mut var) = tr.span("variability.build", req, || {
            let sens = SensitizationModel::new(compiled.profiles.clone(), seed ^ 0x5EED);
            let var = match spec.storm {
                Some(storm) => storm.build(stages, seed),
                None => VariabilityBuilder::new(seed)
                    .voltage_droop(0.05, 500, 2000.0)
                    .local_jitter(0.005)
                    .build(),
            };
            (sens, var)
        });
        let mut config = PipelineConfig::new(stages, compiled.period);
        config.governor = Some(GovernorConfig::default());
        let stats = tr.span("pipeline.run", req, || {
            PipelineSim::new(config, scheme.as_mut(), &mut sens, &mut var).run(spec.cycles)
        });
        totals.merge(&stats);
    }
    totals
}

/// Whether a body's totals equal `t`.
fn totals_match(body: &str, t: &RunStats) -> bool {
    let Ok(doc) = serde_json::from_str(&format!("{{{body}}}")) else {
        return false;
    };
    let Some(got) = doc.get("totals") else {
        return false;
    };
    let want = [
        ("instructions", t.instructions),
        ("masked", t.masked),
        ("flagged", t.flagged),
        ("detected", t.detected),
        ("predicted", t.predicted),
        ("corrupted", t.corrupted),
        ("penalty_cycles", t.penalty_cycles),
        ("slow_cycles", t.slow_cycles),
        ("escalations", t.slowdown_episodes),
    ];
    want.iter()
        .all(|(k, v)| got.get(k).and_then(|x| x.as_u64()) == Some(*v))
        && got.get("sim_time_ps").and_then(|x| x.as_u64()) == Some(t.wall_time.as_ps() as u64)
}

/// Counters the mirror keeps, compared with the engine's.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Counts {
    hits: u64,
    misses: u64,
    design_hits: u64,
    design_misses: u64,
    evictions: u64,
}

/// The engine's batch flow rebuilt from the service's public parts —
/// parse, key, cache, integrity, compile, executor, journal, governor,
/// render — with a span around each call.
struct Mirror {
    results: LruCache<String>,
    designs: LruCache<CompiledDesign>,
    journal: JournalWriter,
    governor: ServiceGovernor,
    threads: usize,
    seq: u64,
    counts: Counts,
    /// Σ evaluation job busy time and Σ executor wall, ns.
    busy: u64,
    exec_wall: u64,
    /// `(design, compile ns)` per compile.
    compiles: Vec<(DesignId, u64)>,
    /// `(spec, compiled, body)` of evaluated misses (for the
    /// decomposition sample).
    evaluated: Vec<(EvalSpec, CompiledDesign, String)>,
    failures: Vec<String>,
}

impl Mirror {
    fn new(ctx: &Ctx, journal: &Path, resume: bool, tr: &mut Tracer) -> io::Result<Mirror> {
        let mut results = LruCache::new(DEFAULT_RESULT_CAPACITY);
        if resume {
            let (records, _) = tr.span("resilience.journal.scan", 0, || scan_log(journal))?;
            for (key, sealed) in records {
                let ok = tr.span("serve.integrity.open", 0, || open(&sealed, true).is_ok());
                match CacheKey::from_hex(&key) {
                    Some(key) if ok => {
                        tr.span("serve.cache.insert", 0, || results.insert(key, sealed));
                    }
                    _ => {}
                }
            }
        }
        Ok(Mirror {
            results,
            designs: LruCache::new(DEFAULT_DESIGN_CAPACITY),
            journal: tr.span("resilience.journal.open", 0, || {
                JournalWriter::append(journal)
            })?,
            governor: ServiceGovernor::new(ServiceGovernorConfig::default()),
            threads: ctx.threads,
            seq: 0,
            counts: Counts::default(),
            busy: 0,
            exec_wall: 0,
            compiles: Vec::new(),
            evaluated: Vec::new(),
            failures: Vec::new(),
        })
    }

    /// One server batch: `process_batch` plus rendering. Returns the
    /// responses in id order.
    fn batch(
        &mut self,
        lines: &[String],
        tr: &mut Tracer,
        batch_id: u64,
    ) -> io::Result<Vec<Response>> {
        let root = tr.enter("serve.engine.batch", batch_id);
        let mut responses: Vec<Response> = Vec::with_capacity(lines.len());
        let mut pending: BTreeMap<CacheKey, (EvalSpec, Vec<u64>)> = BTreeMap::new();
        let mut cold: BTreeSet<CacheKey> = BTreeSet::new();
        if self.governor.level() != ServiceLevel::Nominal {
            self.failures
                .push("service governor left nominal".to_owned());
        }
        for line in lines {
            let default_id = self.seq;
            self.seq += 1;
            let parsed = tr.span("serve.spec.parse", default_id, || {
                parse_request(line, default_id)
            });
            let Ok(Request::Eval { id, spec, .. }) = parsed else {
                self.failures
                    .push(format!("request does not parse as eval: {line}"));
                continue;
            };
            let key = tr.span("serve.key.hash", id, || spec.key());
            let probe = tr.enter("serve.cache.probe", id);
            let sealed = self.results.get(&key);
            tr.exit(probe);
            let cached = match sealed {
                Some(sealed) => tr.span("serve.integrity.open", id, || {
                    open(sealed, true).ok().map(str::to_owned)
                }),
                None => None,
            };
            if let Some(body) = cached {
                self.counts.hits += 1;
                responses.push(Response { id, body });
            } else if let Some((_, ids)) = pending.get_mut(&key) {
                self.counts.hits += 1;
                ids.push(id);
            } else {
                cold.insert(key);
                self.counts.misses += 1;
                pending.insert(key, (spec, vec![id]));
            }
        }
        self.run_pending(pending, &mut responses, tr)?;
        tr.span("serve.governor.observe", batch_id, || {
            self.governor.observe_batch(cold.len() as u64)
        });
        responses.sort_by_key(|r| r.id);
        let mut wire = String::with_capacity(responses.len() * 640);
        for r in &responses {
            let line = tr.span("serve.server.render", r.id, || r.render());
            wire.push_str(&line);
            wire.push('\n');
        }
        std::hint::black_box(&wire);
        tr.exit(root);
        Ok(responses)
    }

    fn run_pending(
        &mut self,
        pending: BTreeMap<CacheKey, (EvalSpec, Vec<u64>)>,
        responses: &mut Vec<Response>,
        tr: &mut Tracer,
    ) -> io::Result<()> {
        if pending.is_empty() {
            return Ok(());
        }
        let mut ready: Vec<(CacheKey, EvalSpec, Vec<u64>, CompiledDesign)> = Vec::new();
        for (key, (spec, ids)) in pending {
            let dkey = spec.design_key();
            let first = ids[0];
            let probe = tr.enter("serve.cache.design_probe", first);
            let hit = self.designs.get(&dkey).cloned();
            tr.exit(probe);
            let design = match hit {
                Some(d) => {
                    self.counts.design_hits += 1;
                    d
                }
                None => {
                    self.counts.design_misses += 1;
                    let c = tr.enter("serve.compile", first);
                    let d = compile_traced(&spec, tr, first);
                    tr.exit(c);
                    self.compiles
                        .push((spec.design, tr.spans()[c as usize].dur()));
                    tr.span("serve.cache.design_insert", first, || {
                        self.designs.insert(dkey, d.clone())
                    });
                    d
                }
            };
            ready.push((key, spec, ids, design));
        }

        // Evaluation jobs time themselves on the worker threads.
        let clock: Arc<Mutex<Vec<(usize, Instant, Instant)>>> = Arc::new(Mutex::new(Vec::new()));
        let jobs: Vec<TrialJob> = ready
            .iter()
            .enumerate()
            .map(|(pos, (_, spec, _, design))| {
                let (spec, design, clock) = (*spec, design.clone(), Arc::clone(&clock));
                let job: TrialJob = Arc::new(move || {
                    let t0 = Instant::now();
                    let body = evaluate(&design, &spec);
                    let t1 = Instant::now();
                    clock.lock().expect("job clock").push((pos, t0, t1));
                    Ok(body)
                });
                job
            })
            .collect();
        let exec = tr.enter("resilience.executor", ready[0].2[0]);
        let outcome = run_hardened(HardenedSpec {
            jobs,
            threads: self.threads,
            timeout: DEFAULT_WATCHDOG,
            max_attempts: DEFAULT_MAX_ATTEMPTS,
            retry: RetryPolicy::default_policy(),
            retry_hangs: false,
            completed: BTreeMap::new(),
            checkpoint: None,
            stop_after: None,
        })?;
        tr.exit(exec);
        self.exec_wall += tr.spans()[exec as usize].dur();
        for &(pos, t0, t1) in clock.lock().expect("job clock").iter() {
            self.busy += (t1 - t0).as_nanos() as u64;
            tr.record(trace::Span {
                name: "serve.evaluate",
                start: tr.at(t0),
                end: tr.at(t1),
                parent: exec,
                req: ready[pos].2[0],
            });
        }
        if outcome.retries > 0 || !outcome.quarantined.is_empty() {
            self.failures
                .push("executor retried or quarantined a job".to_owned());
        }

        for ((key, spec, ids, design), payload) in ready.into_iter().zip(outcome.payloads) {
            let Some(body) = payload else {
                self.failures
                    .push(format!("evaluation of {} did not complete", key.hex()));
                continue;
            };
            let first = ids[0];
            let sealed = tr.span("serve.integrity.seal", first, || seal(&body));
            let hex = key.hex();
            tr.span("resilience.journal.append", first, || {
                self.journal.record(&hex, &sealed)
            })?;
            let evicted = tr.span("serve.cache.insert", first, || {
                self.results.insert(key, sealed)
            });
            self.counts.evictions += evicted as u64;
            for id in ids {
                responses.push(Response {
                    id,
                    body: body.clone(),
                });
            }
            self.evaluated.push((spec, design, body));
        }
        Ok(())
    }
}

fn engine_counts(engine: &Engine) -> Counts {
    let s = engine.stats();
    Counts {
        hits: s.counter(ServiceCounter::Hits),
        misses: s.counter(ServiceCounter::Misses),
        design_hits: s.counter(ServiceCounter::DesignHits),
        design_misses: s.counter(ServiceCounter::DesignMisses),
        evictions: s.counter(ServiceCounter::Evictions),
    }
}

fn sub(a: Counts, b: Counts) -> Counts {
    Counts {
        hits: a.hits - b.hits,
        misses: a.misses - b.misses,
        design_hits: a.design_hits - b.design_hits,
        design_misses: a.design_misses - b.design_misses,
        evictions: a.evictions - b.evictions,
    }
}

fn median_us(tr: &Tracer, name: &str) -> (f64, usize) {
    let d = trace::durations(tr.spans(), name);
    (
        median(&d.iter().map(|&n| n as f64 / 1e3).collect::<Vec<_>>()),
        d.len(),
    )
}

/// `serve.engine.unattributed_frac`, overall and per design.
struct ClosureGap {
    overall: f64,
    samples: usize,
    per_design: Vec<(DesignId, f64)>,
}

/// Single cold requests replayed whole (a fresh engine) and decomposed
/// (a fresh mirror): the closure gap of the decomposition, overall and
/// per design.
fn closure_sample(
    ctx: &Ctx,
    lines: &[String],
    reps: usize,
    tr: &mut Tracer,
) -> io::Result<ClosureGap> {
    let mut whole_total = 0u64;
    let mut parts_total = 0u64;
    let mut per_design: Vec<(DesignId, u64, u64)> = Vec::new();
    let journal = ctx.work.join("closure.log");
    for line in lines {
        let Ok(Request::Eval { spec, .. }) = parse_request(line, 0) else {
            continue;
        };
        let single = std::slice::from_ref(line);
        let (mut whole, mut parts) = (Vec::new(), Vec::new());
        for rep in 0..reps {
            // Alternate which side runs first.
            for side in [rep % 2, 1 - rep % 2] {
                let _ = std::fs::remove_file(&journal);
                if side == 0 {
                    let mut engine = Engine::new(engine_config(ctx, &journal, false))?;
                    let t0 = Instant::now();
                    let out = engine.process_batch(single)?;
                    let rendered: Vec<String> =
                        out.responses.iter().map(Response::render).collect();
                    whole.push(t0.elapsed().as_nanos() as f64);
                    std::hint::black_box(rendered);
                } else {
                    let mut mirror = Mirror::new(ctx, &journal, false, tr)?;
                    let root = tr.enter("bench.request", 0);
                    mirror.batch(single, tr, 0)?;
                    tr.exit(root);
                    parts.push(trace::attributed(tr.spans(), root) as f64);
                }
            }
        }
        let (w, p) = (median(&whole) as u64, median(&parts) as u64);
        whole_total += w;
        parts_total += p;
        match per_design.iter_mut().find(|(d, _, _)| *d == spec.design) {
            Some(e) => {
                e.1 += w;
                e.2 += p;
            }
            None => per_design.push((spec.design, w, p)),
        }
    }
    let _ = std::fs::remove_file(&journal);
    Ok(ClosureGap {
        overall: 1.0 - parts_total as f64 / whole_total.max(1) as f64,
        samples: lines.len(),
        per_design: per_design
            .into_iter()
            .map(|(d, w, p)| (d, 1.0 - p as f64 / w.max(1) as f64))
            .collect(),
    })
}

/// The traced run: the workload through the engine for a third of the
/// budget, then the same batches replayed alternately through a fresh
/// engine and through the mirror with spans, then the closure and
/// evaluation-decomposition samples.
pub fn run_traced(ctx: &Ctx, kind: Kind) -> io::Result<RunResult> {
    let budget = Duration::from_secs_f64(ctx.seconds / 3.0);
    let journal = ctx.work.join("journal.log");
    let mirror_journal = ctx.work.join("journal.mirror");
    let prepared = ctx.work.join("journal.prepared");
    let input = generate(ctx, kind);
    if let Input::Zipf(pool) = &input {
        write_zipf_journal(ctx, pool, &prepared)?;
    }
    let resume = matches!(input, Input::Zipf(_));
    let (mut engine, _) = set_up(ctx, kind, &journal, resume.then_some(prepared.as_path()))?;
    let base = engine_counts(&engine);
    let mut checker = Checker::new(ctx.seed);

    // Phase 1: the workload as the untraced run drives it.
    let (whole, lines) = run_timed(ctx, &mut engine, &input, budget, &mut checker, true)?;
    let counts = sub(engine_counts(&engine), base);
    let stats = engine.stats();
    let shed = stats.counter(ServiceCounter::Shed);
    let retries = stats.counter(ServiceCounter::Retries);
    drop(engine);

    // Phase 2: the same batches, alternately through a fresh engine
    // (untraced) and the mirror (traced), so both see the same host.
    let prepared = resume.then_some(prepared.as_path());
    reset_journal(&journal, prepared)?;
    let mut replay = fresh_engine(ctx, kind, &journal, resume)?;
    reset_journal(&mirror_journal, prepared)?;
    let mut tr = Tracer::new();
    let mut mirror = Mirror::new(ctx, &mirror_journal, resume, &mut tr)?;
    if kind == Kind::TrialsHeavy {
        let warm: Vec<String> = (0..DesignId::EVALUABLE.len())
            .map(|d| HeavyStream::warm_req(d).line(d as u64))
            .collect();
        mirror.batch(&warm, &mut tr, u64::MAX)?;
        mirror.counts = Counts::default();
        mirror.evaluated.clear();
    }
    let (mut replay_wall, mut mirror_wall) = (0u64, 0u64);
    let mut mismatched = 0u64;
    let mut replay_checker = Checker::new(ctx.seed);
    for (b, batch) in whole.batches.iter().enumerate() {
        let slice = &lines[batch.from..batch.to];
        replay_wall += serve_batch(&mut replay, slice, &mut replay_checker, None)?.0;
        let root_index = tr.spans().len();
        let out = mirror.batch(slice, &mut tr, b as u64)?;
        mirror_wall += tr.spans()[root_index].dur();
        for (k, r) in out.iter().enumerate() {
            if whole.bodies.get(batch.from + k) != Some(&digest(&r.body)) {
                mismatched += 1;
            }
        }
    }
    drop(replay);
    let mut failures = std::mem::take(&mut checker.failures);
    if mismatched > 0 {
        failures.push(format!(
            "{mismatched} traced-replay bodies differ from the engine's"
        ));
    }
    if mirror.counts != counts {
        failures.push(format!(
            "traced replay counters {:?} differ from the engine's {:?}",
            mirror.counts, counts
        ));
    }
    failures.append(&mut mirror.failures);
    failures.append(&mut replay_checker.failures);
    // Decomposed compile equals the library's compile.
    let mut checked: Vec<DesignId> = Vec::new();
    for (spec, design, _) in &mirror.evaluated {
        if !checked.contains(&spec.design) {
            checked.push(spec.design);
            if format!("{design:?}") != format!("{:?}", compile(spec)) {
                failures.push(format!(
                    "decomposed compile differs for {}",
                    spec.design.name()
                ));
            }
        }
    }
    if !resume {
        tr.span("resilience.journal.scan", 0, || scan_log(&mirror_journal))?;
    }

    // Evaluation decomposition sample: the trial loop's parts.
    let mut rng = Rng::new(gen::mix(ctx.seed ^ 0xDEC0));
    let mut sim_ns = 0u64;
    let mut sim_cycles = 0u64;
    let picks = if kind == Kind::TrialsHeavy { 4 } else { 24 };
    for _ in 0..picks.min(mirror.evaluated.len()) {
        let (spec, design, body) = &mirror.evaluated[rng.below(mirror.evaluated.len())];
        let before = tr.spans().len();
        let totals = evaluate_traced(design, spec, &mut tr, 0);
        sim_ns += tr.spans()[before..]
            .iter()
            .filter(|s| s.name == "pipeline.run")
            .map(trace::Span::dur)
            .sum::<u64>();
        sim_cycles += spec.trials as u64 * spec.cycles;
        if !totals_match(body, &totals) {
            failures.push(format!(
                "decomposed evaluate differs for {}",
                spec.key().hex()
            ));
        }
    }

    // Closure: single cold requests, whole vs decomposed.
    let mut pick_rng = Rng::new(gen::mix(ctx.seed ^ 0xC105));
    let per_design = if kind == Kind::TrialsHeavy { 1 } else { 2 };
    let mut closure_lines = Vec::new();
    for d in DesignId::EVALUABLE {
        let of: Vec<&String> = lines
            .iter()
            .filter(|l| l.contains(&format!("\"design\":\"{}\"", d.name())))
            .collect();
        for _ in 0..per_design.min(of.len()) {
            closure_lines.push(of[pick_rng.below(of.len())].clone());
        }
    }
    let reps = 5;
    let gap = closure_sample(ctx, &closure_lines, reps, &mut tr)?;

    let spans = tr.spans();
    let us = |name: &str| median_us(&tr, name);
    let ms = |name: &str| {
        let (v, n) = median_us(&tr, name);
        (v / 1e3, n)
    };
    let ratio = |a: u64, b: u64| a as f64 / (a + b).max(1) as f64;
    let batch_ms: Vec<f64> = whole.batches.iter().map(|b| b.dur as f64 / 1e6).collect();
    let sizes: Vec<f64> = whole
        .batches
        .iter()
        .map(|b| (b.to - b.from) as f64)
        .collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let compile_all: Vec<f64> = mirror
        .compiles
        .iter()
        .map(|&(_, n)| n as f64 / 1e6)
        .collect();
    let mut m: Vec<(String, f64, usize)> = Vec::new();
    let mut put = |name: &str, (v, n): (f64, usize)| m.push((name.to_owned(), v, n));
    put("serve.spec.parse_us", us("serve.spec.parse"));
    put("serve.key.hash_us", us("serve.key.hash"));
    put("serve.cache.probe_us", us("serve.cache.probe"));
    put("serve.integrity.open_us", us("serve.integrity.open"));
    put("serve.server.render_us", us("serve.server.render"));
    let lookups = (counts.hits + counts.misses) as usize;
    put(
        "serve.cache.result_hit_ratio",
        (ratio(counts.hits, counts.misses), lookups),
    );
    put("serve.cache.evictions", (counts.evictions as f64, lookups));
    put(
        "serve.cache.design_hit_ratio",
        (
            ratio(counts.design_hits, counts.design_misses),
            (counts.design_hits + counts.design_misses) as usize,
        ),
    );
    put("netlist.generate_ms", ms("netlist.generate"));
    put("sta.setup_ms", ms("sta.setup"));
    put("sta.hold_plan_ms", ms("sta.hold_plan"));
    put(
        "serve.compile_ms",
        (median(&compile_all), compile_all.len()),
    );
    for d in DesignId::EVALUABLE {
        let of: Vec<f64> = mirror
            .compiles
            .iter()
            .filter(|(x, _)| *x == d)
            .map(|&(_, n)| n as f64 / 1e6)
            .collect();
        put(
            &format!("serve.compile_ms.{}", d.name()),
            (median(&of), of.len()),
        );
    }
    put("serve.integrity.seal_us", us("serve.integrity.seal"));
    put(
        "resilience.journal.append_us",
        us("resilience.journal.append"),
    );
    put("resilience.journal.scan_ms", ms("resilience.journal.scan"));
    put("serve.evaluate_ms", ms("serve.evaluate"));
    let builds = us("schemes.build");
    put(
        "pipeline.sim_mcycles_per_s",
        (
            sim_cycles as f64 / (sim_ns.max(1) as f64 / 1e9) / 1e6,
            trace::durations(spans, "pipeline.run").len(),
        ),
    );
    put("schemes.build_us", builds);
    put(
        "resilience.executor.parallel_eff",
        (
            mirror.busy as f64 / (ctx.threads as f64 * mirror.exec_wall.max(1) as f64),
            trace::durations(spans, "resilience.executor").len(),
        ),
    );
    put("serve.engine.batch_ms", (median(&batch_ms), batch_ms.len()));
    put("serve.engine.batch_size", (mean(&sizes), sizes.len()));
    let waits = ns_to_ms(&whole.queue_wait);
    put("serve.engine.queue_wait_ms", (median(&waits), waits.len()));
    put("serve.engine.unattributed_frac", (gap.overall, gap.samples));
    put("serve.governor.shed", (shed as f64, lookups));
    put("resilience.executor.retries", (retries as f64, lookups));
    let late = ns_to_ms(&whole.late);
    put("bench.gen_late_p99_ms", (quantile(&late, 0.99), late.len()));
    put(
        "bench.trace_overhead_frac",
        (
            mirror_wall as f64 / replay_wall.max(1) as f64 - 1.0,
            whole.batches.len(),
        ),
    );

    let mut notes = vec![format!(
        "replay of {} requests in {} batches: untraced engine {:.3} s, traced mirror {:.3} s",
        whole.requests,
        whole.batches.len(),
        replay_wall as f64 / 1e9,
        mirror_wall as f64 / 1e9
    )];
    for (d, g) in gap.per_design {
        notes.push(format!("unattributed_frac.{} {g:.4}", d.name()));
    }
    notes.extend(tr.layer_table());
    let path = ctx.trace_path(kind.name());
    tr.write_tsv(&path)?;
    notes.push(format!(
        "spans: {} written to {}",
        tr.spans().len(),
        path.display()
    ));
    let failed = checker.not_ok + failures.len() as u64;
    Ok(RunResult {
        workload: kind.name().into(),
        seed: ctx.seed,
        trace: true,
        attempted: whole.requests,
        failed,
        base: "requests",
        check_failures: failures,
        metrics: crate::layer_metrics(m),
        notes,
    })
}
