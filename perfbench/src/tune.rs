//! The `tune-frontier` workload: offline batches of `timber_tune::tune`
//! over the full candidate space, and its traced replay through the
//! tuner's public evaluation steps.

use std::collections::HashMap;
use std::io;
use std::time::{Duration, Instant};

use timber_analyze::{certify, AnalysisPoint, Interval};
use timber_batch::reference::run_scalar_reference;
use timber_batch::workload::splitmix64;
use timber_batch::{run_batched, BatchConfig, BatchScheme, BatchStageProfile, BatchWorkload};
use timber_lint::{lint, LintConfig, ReplacementPlan};
use timber_netlist::{fanin_cone, FlopId, Picos};
use timber_pipeline::PipelineConfig;
use timber_power::{PowerParams, ProcessorOverheads, ReplacementStats};
use timber_schemes::SchemeId;
use timber_sta::{classify_flops, ClockConstraint, PathDistribution, TimingAnalysis};
use timber_telemetry::TuneCounter;
use timber_tune::eval::{
    operating_point, workload_set, STORM_CYCLES, STORM_INTENSITIES, STORM_LANES,
};
use timber_tune::{
    enumerate, evaluate, report_json, tune, CandidateSpec, DesignContext, DesignId, Evaluation,
    Outcome, Seeding, TuneReport, TuneSpec,
};
use timber_variability::StagePathProfile;

use crate::gen;
use crate::report::{median, ns_to_ms, quantile, Metric, RunResult};
use crate::trace::{self, Tracer};
use crate::Ctx;

/// The document `repro tune --json` prints for a report (with its
/// trailing newline, the on-disk golden format).
fn document(report: &TuneReport) -> String {
    let doc = serde_json::to_string_pretty(&report_json(report)).expect("report serialises");
    format!("{doc}\n")
}

/// One timed `tune` call.
#[derive(Debug, Clone, Copy)]
struct Call {
    dur: u64,
    lane_cycles: u64,
    /// Host CPU jiffies `(steal, total)` when the call returned.
    jiffies: (u64, u64),
}

/// Compiles every design context `ctx.setup_reps()` times; the set-up
/// times in seconds.
fn set_up(ctx: &Ctx) -> Vec<f64> {
    let mut times = Vec::new();
    let started = Instant::now();
    loop {
        let t0 = Instant::now();
        let contexts: Vec<DesignContext> = DesignId::ALL
            .iter()
            .map(|&d| DesignContext::compile(d))
            .collect();
        std::hint::black_box(&contexts);
        times.push(t0.elapsed().as_secs_f64());
        if ctx.setup_done(&times, started) {
            return times;
        }
    }
}

/// The seed-42 frontier must equal the committed golden byte for byte.
fn golden_check(ctx: &Ctx) -> Option<String> {
    let path = ctx.root.join("FRONTIER_tune.json");
    let golden = match std::fs::read_to_string(&path) {
        Ok(g) => g,
        Err(e) => return Some(format!("cannot read {}: {e}", path.display())),
    };
    let fresh = document(&tune(&TuneSpec {
        threads: ctx.threads,
        ..TuneSpec::default()
    }));
    (fresh != golden).then(|| "seed-42 frontier differs from FRONTIER_tune.json".to_owned())
}

/// The untraced run.
pub fn run(ctx: &Ctx) -> io::Result<RunResult> {
    let seeds = gen::tune_seeds(ctx.seed);
    let candidates = enumerate().len() as u64;
    let setup = set_up(ctx);
    let budget = Duration::from_secs_f64(ctx.seconds);
    let mut calls: Vec<Call> = Vec::new();
    let mut docs: HashMap<u64, u64> = HashMap::new();
    let mut failures = Vec::new();
    let mut failed_calls = 0u64;
    let start_jiffies = crate::report::cpu_jiffies();
    let start = Instant::now();
    while start.elapsed() < budget {
        let seed = seeds[calls.len() % seeds.len()];
        let t0 = Instant::now();
        let report = tune(&TuneSpec {
            seed,
            threads: ctx.threads,
            ..TuneSpec::default()
        });
        let doc = document(&report);
        let dur = t0.elapsed().as_nanos() as u64;
        std::hint::black_box(&doc);
        let d = gen::fnv1a(gen::FNV_START, doc.as_bytes());
        let same = *docs.entry(seed).or_insert(d) == d;
        if !report.pass() || !same {
            failed_calls += 1;
            if failures.len() < 4 {
                failures.push(format!(
                    "tune seed {seed}: {}",
                    if same {
                        "self-validation failed"
                    } else {
                        "document changed within the run"
                    }
                ));
            }
        }
        calls.push(Call {
            dur,
            lane_cycles: report.stats.get(TuneCounter::StormLaneCycles),
            jiffies: crate::report::cpu_jiffies(),
        });
    }
    let golden = golden_check(ctx);
    let golden_failed = u64::from(golden.is_some());
    failures.extend(golden);

    // About ten windows of consecutive calls; the figures count each
    // window's time net of the share the host stole, and use the quieter
    // half of the windows.
    let per = calls.len().div_ceil(10).max(1);
    let all_windows: Vec<&[Call]> = calls.chunks(per).collect();
    let steal: Vec<f64> = all_windows
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let from = if i == 0 {
                start_jiffies
            } else {
                all_windows[i - 1][all_windows[i - 1].len() - 1].jiffies
            };
            crate::report::steal_share(from, w[w.len() - 1].jiffies)
        })
        .collect();
    let windows: Vec<(&[Call], f64)> = crate::report::quiet_half(&steal)
        .into_iter()
        .map(|i| (all_windows[i], steal[i]))
        .collect();
    let net = |c: &Call, steal: f64| crate::report::net_of_steal(c.dur, steal);
    let secs = |(w, steal): &(&[Call], f64)| {
        w.iter().map(|c| net(c, *steal)).sum::<u64>().max(1) as f64 / 1e9
    };
    let rps: Vec<f64> = windows.iter().map(|w| w.0.len() as f64 / secs(w)).collect();
    let mcps: Vec<f64> = windows
        .iter()
        .map(|w| w.0.iter().map(|c| c.lane_cycles).sum::<u64>() as f64 / secs(w) / 1e6)
        .collect();
    let lat = ns_to_ms(
        &windows
            .iter()
            .flat_map(|(w, steal)| w.iter().map(|c| net(c, *steal)))
            .collect::<Vec<_>>(),
    );
    let n = lat.len();
    let metrics = vec![
        Metric {
            name: "throughput_rps".into(),
            value: median(&rps),
            samples: rps.len(),
        },
        Metric {
            name: "latency_p50_ms".into(),
            value: quantile(&lat, 0.5),
            samples: n,
        },
        Metric {
            name: "latency_p90_ms".into(),
            value: quantile(&lat, 0.9),
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
    let notes = vec![
        crate::report::setup_note(&setup),
        format!(
            "windows used: {} of {} (the quieter half by host steal; theirs {:.2}%, all {:.2}%)",
            windows.len(),
            all_windows.len(),
            100.0 * median(&windows.iter().map(|w| w.1).collect::<Vec<_>>()),
            100.0 * median(&steal),
        ),
        format!("latency_p99_ms {:.6} ms n={n}", quantile(&lat, 0.99)),
        format!(
            "candidates_per_s {:.3} 1/s n={} ({} candidates per tune call; a request is one call)",
            median(&rps) * candidates as f64,
            rps.len(),
            candidates
        ),
    ];
    Ok(RunResult {
        workload: "tune-frontier".into(),
        seed: ctx.seed,
        trace: false,
        attempted: calls.len() as u64 * candidates,
        failed: (failed_calls + golden_failed) * candidates,
        base: "candidates",
        check_failures: failures,
        metrics,
        notes,
    })
}

/// The compiled context of `design`.
fn context_for(contexts: &[DesignContext], design: DesignId) -> &DesignContext {
    contexts
        .iter()
        .find(|c| c.design == design)
        .expect("every design has a context")
}

/// What the decomposed evaluation found for one candidate.
#[derive(Debug, PartialEq)]
enum Parts {
    Lint(Vec<String>),
    Cert,
    Scored {
        replaced: usize,
        power_pct: f64,
        lane_cycles: u64,
    },
}

/// `timber_tune::evaluate`, one public call per span, up to the
/// figures the objectives are built from.
fn decompose(
    ctx: &DesignContext,
    spec: &CandidateSpec,
    user_seed: u64,
    tr: &mut Tracer,
    req: u64,
) -> Parts {
    let sched = spec.schedule_spec();
    let schedule = tr.span("tune.operating_point", req, || {
        operating_point(spec, ctx.raw_critical)
    });
    let constraint = ClockConstraint::with_period(schedule.period());
    let sta = tr.span("tune.sta", req, || {
        TimingAnalysis::run(&ctx.netlist, &constraint)
    });
    let replaced: Vec<FlopId> = tr.span("tune.replacement", req, || match spec.seeding {
        Seeding::TopC => PathDistribution::replacement_set(&sta, &ctx.netlist, spec.c_pct()),
        Seeding::Workload { target_pct } => workload_set(
            &ctx.netlist,
            &sta,
            spec.c_pct(),
            f64::from(target_pct) / 100.0,
        ),
    });
    let plan = match spec.seeding {
        Seeding::TopC => ReplacementPlan::TopC,
        Seeding::Workload { .. } => ReplacementPlan::Explicit(replaced.clone()),
    };
    let config = LintConfig::new(spec.id(), sched, constraint).with_replacement(plan);
    let report = tr.span("lint.lint", req, || lint(&ctx.netlist, &config));
    let codes = report.error_codes();
    if !codes.is_empty() {
        return Parts::Lint(codes.iter().map(|c| (*c).to_owned()).collect());
    }
    let stages = schedule.k() as usize;
    let hull = Interval::new(Picos::ZERO, ctx.raw_critical);
    let point = AnalysisPoint::new(spec.id(), SchemeId::TimberFf, schedule, vec![hull; stages]);
    if !tr
        .span("analyze.certify", req, || certify(&point))
        .is_safe()
    {
        return Parts::Cert;
    }
    let threshold = schedule.period().scale(1.0 - spec.c_pct() / 100.0);
    let stats = tr.span("tune.replacement_stats", req, || {
        let classes = classify_flops(&sta, threshold);
        ReplacementStats {
            replaced: replaced.len(),
            total_flops: ctx.netlist.flop_count(),
            start_and_end: replaced
                .iter()
                .filter(|f| classes[f.0 as usize].starts_and_ends())
                .count(),
            relay_sources: replaced
                .iter()
                .map(|&f| {
                    fanin_cone(&ctx.netlist, f)
                        .into_iter()
                        .filter(|g| replaced.contains(g) && classes[g.0 as usize].starts_and_ends())
                        .count()
                })
                .collect(),
        }
    });
    let power_pct = tr.span("power.overhead", req, || {
        ProcessorOverheads::from_stats(
            &stats,
            schedule.period(),
            spec.c_pct(),
            schedule.k(),
            &PowerParams::default(),
        )
        .ff_power_overhead_pct()
    });
    let mut lane_cycles = 0;
    for config in storm_configs(spec, &schedule, ctx, user_seed) {
        let run = tr.span("batch.run_batched", req, || {
            run_batched(&config, STORM_CYCLES)
        });
        lane_cycles += run.totals().cycles;
    }
    Parts::Scored {
        replaced: replaced.len(),
        power_pct,
        lane_cycles,
    }
}

/// The storm battery's batch configurations for a candidate.
fn storm_configs(
    spec: &CandidateSpec,
    schedule: &timber::CheckingPeriod,
    ctx: &DesignContext,
    user_seed: u64,
) -> Vec<BatchConfig> {
    let stages = schedule.k() as usize;
    let seed = spec.content_seed(user_seed);
    STORM_INTENSITIES
        .iter()
        .enumerate()
        .map(|(i, intensity)| {
            let profile = StagePathProfile::from_critical(ctx.raw_critical.scale(*intensity));
            let profiles = vec![BatchStageProfile::from_profile(&profile); stages];
            BatchConfig {
                pipeline: PipelineConfig::new(stages, schedule.period()),
                scheme: BatchScheme::TimberFf(*schedule),
                workload: BatchWorkload::new(profiles, splitmix64(seed ^ (i as u64 + 1))),
                lanes: STORM_LANES,
            }
        })
        .collect()
}

fn agrees(e: &Evaluation, p: &Parts) -> bool {
    match (&e.outcome, p) {
        (Outcome::LintRejected(a), Parts::Lint(b)) => a == b,
        (Outcome::CertRejected, Parts::Cert) => true,
        (
            Outcome::Scored(_, d),
            Parts::Scored {
                replaced,
                power_pct,
                lane_cycles,
            },
        ) => {
            d.replaced == *replaced
                && d.power_overhead_pct == *power_pct
                && d.lane_cycles == *lane_cycles
        }
        _ => false,
    }
}

/// The traced run: whole `tune` calls (one thread) for half the budget,
/// then each seed replayed with a span per context and candidate, then
/// one seed decomposed into lint / certify / power / batch calls.
pub fn run_traced(ctx: &Ctx) -> io::Result<RunResult> {
    let seeds = gen::tune_seeds(ctx.seed);
    let all = enumerate();
    let budget = Duration::from_secs_f64(ctx.seconds / 2.0);
    let mut whole: Vec<Vec<u64>> = vec![Vec::new(); seeds.len()];
    let mut reports: Vec<Option<TuneReport>> = vec![None; seeds.len()];
    let mut failures = Vec::new();
    let start = Instant::now();
    let mut c = 0;
    while start.elapsed() < budget || c < seeds.len() {
        let i = c % seeds.len();
        let t0 = Instant::now();
        let report = tune(&TuneSpec {
            seed: seeds[i],
            threads: 1,
            ..TuneSpec::default()
        });
        whole[i].push(t0.elapsed().as_nanos() as u64);
        if !report.pass() {
            failures.push(format!("tune seed {} failed self-validation", seeds[i]));
        }
        reports[i].get_or_insert(report);
        c += 1;
    }

    // Whole-run replay with a span per context build and candidate.
    let mut tr = Tracer::new();
    let mut whole_ns = 0u64;
    let mut attributed = 0u64;
    let mut traced_ns = 0u64;
    let mut plain_ns = 0u64;
    let mut mismatched = 0usize;
    // The same calls without spans, for the tracing overhead.
    let plain = |seed: u64| {
        let t0 = Instant::now();
        let contexts: Vec<DesignContext> = DesignId::ALL
            .iter()
            .map(|&d| DesignContext::compile(d))
            .collect();
        for cand in &all {
            let ctx_d = context_for(&contexts, cand.design);
            std::hint::black_box(evaluate(ctx_d, cand, seed));
        }
        t0.elapsed().as_nanos() as u64
    };
    for (i, &seed) in seeds.iter().enumerate() {
        let report = reports[i].as_ref().expect("every seed ran");
        if i % 2 == 0 {
            plain_ns += plain(seed);
        }
        let root = tr.enter("tune.run", seed);
        let contexts: Vec<DesignContext> = DesignId::ALL
            .iter()
            .map(|&d| tr.span("tune.context", seed, || DesignContext::compile(d)))
            .collect();
        for (k, cand) in all.iter().enumerate() {
            let ctx_d = context_for(&contexts, cand.design);
            let e = tr.span("tune.candidate", k as u64, || evaluate(ctx_d, cand, seed));
            let design = report.designs.iter().find(|d| d.design == cand.design);
            let matches = match &e.outcome {
                Outcome::Scored(obj, detail) => design.is_some_and(|d| {
                    d.scored
                        .iter()
                        .any(|p| p.spec == *cand && p.objectives == *obj && p.detail == *detail)
                }),
                _ => design.is_some_and(|d| d.scored.iter().all(|p| p.spec != *cand)),
            };
            if !matches {
                mismatched += 1;
            }
        }
        tr.exit(root);
        if i % 2 == 1 {
            plain_ns += plain(seed);
        }
        attributed += trace::attributed(tr.spans(), root);
        traced_ns += tr.spans()[root as usize].dur();
        whole_ns += median(&whole[i].iter().map(|&n| n as f64).collect::<Vec<_>>()) as u64;
    }
    if mismatched > 0 {
        failures.push(format!(
            "{mismatched} replayed candidates differ from the tuner's report"
        ));
    }

    // One seed decomposed into the layers a candidate calls.
    let contexts: Vec<DesignContext> = DesignId::ALL
        .iter()
        .map(|&d| DesignContext::compile(d))
        .collect();
    let seed = seeds[0];
    let mut first_scored = None;
    for (k, cand) in all.iter().enumerate() {
        let ctx_d = context_for(&contexts, cand.design);
        let parts = decompose(ctx_d, cand, seed, &mut tr, k as u64);
        if !agrees(&evaluate(ctx_d, cand, seed), &parts) {
            failures.push(format!("decomposed evaluation differs for {}", cand.id()));
        }
        if first_scored.is_none() && matches!(parts, Parts::Scored { .. }) {
            first_scored = Some(k);
        }
    }
    // The bit-sliced engine against its scalar reference, on one
    // storm configuration of the first scored candidate.
    if let Some(k) = first_scored {
        let cand = &all[k];
        let ctx_d = context_for(&contexts, cand.design);
        let schedule = operating_point(cand, ctx_d.raw_critical);
        let config = &storm_configs(cand, &schedule, ctx_d, seed)[0];
        if run_batched(config, STORM_CYCLES)
            != run_scalar_reference(config, STORM_CYCLES, ctx.threads)
        {
            failures.push(format!(
                "bit-sliced batch differs from the scalar reference for {}",
                cand.id()
            ));
        }
    }

    let spans = tr.spans();
    let med = |name: &str, scale: f64| {
        let d = trace::durations(spans, name);
        (
            median(&d.iter().map(|&n| n as f64 / scale).collect::<Vec<_>>()),
            d.len(),
        )
    };
    let batch_ns: u64 = trace::durations(spans, "batch.run_batched").iter().sum();
    let batch_n = trace::durations(spans, "batch.run_batched").len();
    let lane_cycles = batch_n as u64 * STORM_LANES as u64 * STORM_CYCLES;
    let m = vec![
        (
            "tune.context_ms".to_owned(),
            med("tune.context", 1e6).0,
            med("tune.context", 1e6).1,
        ),
        (
            "tune.candidate_ms".to_owned(),
            med("tune.candidate", 1e6).0,
            med("tune.candidate", 1e6).1,
        ),
        (
            "lint.lint_ms".to_owned(),
            med("lint.lint", 1e6).0,
            med("lint.lint", 1e6).1,
        ),
        (
            "analyze.certify_ms".to_owned(),
            med("analyze.certify", 1e6).0,
            med("analyze.certify", 1e6).1,
        ),
        (
            "power.overhead_us".to_owned(),
            med("power.overhead", 1e3).0,
            med("power.overhead", 1e3).1,
        ),
        (
            "batch.lane_mcycles_per_s".to_owned(),
            lane_cycles as f64 / (batch_ns.max(1) as f64 / 1e9) / 1e6,
            batch_n,
        ),
        (
            "tune.unattributed_frac".to_owned(),
            1.0 - attributed as f64 / whole_ns.max(1) as f64,
            seeds.len(),
        ),
        (
            "bench.trace_overhead_frac".to_owned(),
            traced_ns as f64 / plain_ns.max(1) as f64 - 1.0,
            seeds.len(),
        ),
    ];
    let mut notes = vec![format!(
        "whole tune (1 thread): {} calls; over {} seeds: whole {:.3} s, untraced replay {:.3} s, traced replay {:.3} s",
        c,
        seeds.len(),
        whole_ns as f64 / 1e9,
        plain_ns as f64 / 1e9,
        traced_ns as f64 / 1e9
    )];
    notes.extend(tr.layer_table());
    let path = ctx.trace_path("tune-frontier");
    tr.write_tsv(&path)?;
    notes.push(format!(
        "spans: {} written to {}",
        tr.spans().len(),
        path.display()
    ));
    let candidates = all.len() as u64;
    Ok(RunResult {
        workload: "tune-frontier".into(),
        seed: ctx.seed,
        trace: true,
        attempted: c as u64 * candidates,
        failed: if failures.is_empty() { 0 } else { candidates },
        base: "candidates",
        check_failures: failures,
        metrics: crate::layer_metrics(m),
        notes,
    })
}
