//! Scratch profiling harness: times the hot-path components of one
//! claims-style trial in isolation so optimisation work targets the
//! real cost centres. The variability rows time both forms of every
//! source: `factor` once per stage (the per-coordinate definition) and
//! `scale_row` once per cycle. The last rows time what the simulator
//! runs for the serve nominal composite: `bound_row` per cycle plus
//! `settle` for the stages whose bounded arrival misses the on-time
//! limit, beside `scale_row`, with the share of stages that settle.
//! Run with `cargo run --release --example hotpath_profile`.

use std::time::Instant;

use timber::{CheckingPeriod, TimberFfScheme};
use timber_netlist::Picos;
use timber_pipeline::{PipelineConfig, PipelineSim, SequentialScheme};
use timber_variability::{DelaySource, SensitizationModel, VariabilityBuilder};

const CYCLES: u64 = 2_000_000;
const STAGES: usize = 5;
const PERIOD: Picos = Picos(1000);

fn main() {
    let mk_sens = || SensitizationModel::uniform(STAGES, Picos(970), 0x5EED);
    let droop = || {
        VariabilityBuilder::new(42)
            .voltage_droop(0.05, 500, 2000.0)
            .build()
    };
    let temp = || {
        VariabilityBuilder::new(42)
            .temperature(0.01, 1_000_000)
            .build()
    };
    let jitter = || VariabilityBuilder::new(42).local_jitter(0.005).build();
    let mk_var = || {
        VariabilityBuilder::new(42)
            .voltage_droop(0.05, 500, 2000.0)
            .temperature(0.01, 1_000_000)
            .local_jitter(0.005)
            .build()
    };

    // (a) full sim
    let sched = CheckingPeriod::deferred_flagging(PERIOD, 24.0).expect("valid");
    let mut scheme = TimberFfScheme::new(sched, STAGES);
    let mut sens = mk_sens();
    let mut var = mk_var();
    let cfg = PipelineConfig::new(STAGES, PERIOD);
    let t = Instant::now();
    let stats = PipelineSim::new(cfg, &mut scheme, &mut sens, &mut var).run(CYCLES);
    let full = t.elapsed().as_secs_f64();
    println!(
        "full sim:       {:.3}s  ({:.0} cycles/s) masked={}",
        full,
        CYCLES as f64 / full,
        stats.masked
    );

    // (b) sensitization sampling only
    let mut sens = mk_sens();
    let t = Instant::now();
    let mut acc = Picos::ZERO;
    for _ in 0..CYCLES {
        for s in 0..STAGES {
            acc += sens.sample(s).0;
        }
    }
    let tb = t.elapsed().as_secs_f64();
    println!(
        "sens only:      {:.3}s  ({:.0} cycles/s) acc={}",
        tb,
        CYCLES as f64 / tb,
        acc.as_ps()
    );

    // (c) variability only, per stage and per row
    time_variability("var only", &mut mk_var(), &mut mk_var());

    // (c2) individual sources
    for (name, mut src, mut row_src) in [
        ("var droop", droop(), droop()),
        ("var temp", temp(), temp()),
        ("var jitter", jitter(), jitter()),
    ] {
        time_variability(name, &mut src, &mut row_src);
    }

    // (c3) the simulator's bounded row plus settle, serve nominal
    time_bounded(&mut mk_sens());

    // (d) scheme only, fixed arrivals
    let sched = CheckingPeriod::deferred_flagging(PERIOD, 24.0).expect("valid");
    let mut scheme = TimberFfScheme::new(sched, STAGES);
    let t = Instant::now();
    let mut ok = 0u64;
    for c in 0..CYCLES {
        let ctx = timber_pipeline::CycleContext {
            cycle: c,
            period: PERIOD,
            nominal_period: PERIOD,
        };
        for s in 0..STAGES {
            let arr = Picos(600 + ((c as i64 + s as i64) & 63));
            if scheme.evaluate(s, arr, Picos::ZERO, &ctx) == timber_pipeline::StageOutcome::Ok {
                ok += 1;
            }
        }
    }
    let td = t.elapsed().as_secs_f64();
    println!(
        "scheme only:    {:.3}s  ({:.0} cycles/s) ok={}",
        td,
        CYCLES as f64 / td,
        ok
    );
}

/// Times one environment both ways over the same cycles: `factor` per
/// stage on `per_stage`, then `scale_row` per cycle on `per_row` (two
/// identical instances, since droop advances its event stream). Both
/// sums add the same factors in the same order, so the two `acc`
/// columns print identically.
fn time_variability(label: &str, per_stage: &mut dyn DelaySource, per_row: &mut dyn DelaySource) {
    let t = Instant::now();
    let mut facc = 0.0f64;
    for c in 0..CYCLES {
        for s in 0..STAGES {
            facc += per_stage.factor(c, s);
        }
    }
    let tf = t.elapsed().as_secs_f64();
    println!(
        "{label:<15} factor    {:.3}s  ({:.0} cycles/s) acc={:.2}",
        tf,
        CYCLES as f64 / tf,
        facc
    );

    let mut row = [1.0f64; STAGES];
    let t = Instant::now();
    let mut racc = 0.0f64;
    for c in 0..CYCLES {
        row.fill(1.0);
        per_row.scale_row(c, &mut row);
        for f in row {
            racc += f;
        }
    }
    let tr = t.elapsed().as_secs_f64();
    println!(
        "{label:<15} scale_row {:.3}s  ({:.0} cycles/s) acc={:.2}",
        tr,
        CYCLES as f64 / tr,
        racc
    );
}

/// Sampled base-delay rows replayed cyclically by [`time_bounded`].
const BASE_ROWS: usize = 4096;

/// Times the serve nominal composite (droop plus jitter) the way the
/// simulator fills a row for a scheme whose on-time limit is the
/// period, with no inherited borrow: `bound_row` once per cycle, then
/// `settle` for each stage whose bounded delay passes the limit. Beside
/// it, `scale_row` over the same cycles. The base delays come from a
/// pre-sampled table, so neither loop pays for sensitization. The
/// `acc` columns sum the exact factors of the settled stages and of
/// the truly late ones, which the settled stages include.
fn time_bounded(sens: &mut SensitizationModel) {
    let serve_nominal = || {
        VariabilityBuilder::new(42)
            .voltage_droop(0.05, 500, 2000.0)
            .local_jitter(0.005)
            .build()
    };
    let bases: Vec<Picos> = (0..BASE_ROWS * STAGES)
        .map(|i| sens.sample(i % STAGES).0)
        .collect();

    let mut var = serve_nominal();
    let mut row = [1.0f64; STAGES];
    let mut settled = 0u64;
    let t = Instant::now();
    let mut bacc = 0.0f64;
    for c in 0..CYCLES {
        row.fill(1.0);
        let bounded = var.bound_row(c, &mut row);
        let base_row = &bases[(c as usize % BASE_ROWS) * STAGES..][..STAGES];
        for (s, (&base, &bound)) in base_row.iter().zip(&row).enumerate() {
            if bounded && base.scale(bound) > PERIOD {
                settled += 1;
                bacc += var.settle(s);
            }
        }
    }
    let tb = t.elapsed().as_secs_f64();
    println!(
        "{:<15} bound_row {:.3}s  ({:.0} cycles/s) acc={:.2} settled {:.3}% of stages",
        "serve nominal",
        tb,
        CYCLES as f64 / tb,
        bacc,
        100.0 * settled as f64 / (CYCLES * STAGES as u64) as f64
    );

    let mut var = serve_nominal();
    let t = Instant::now();
    let mut racc = 0.0f64;
    for c in 0..CYCLES {
        row.fill(1.0);
        var.scale_row(c, &mut row);
        let base_row = &bases[(c as usize % BASE_ROWS) * STAGES..][..STAGES];
        for (&base, &factor) in base_row.iter().zip(&row) {
            if base.scale(factor) > PERIOD {
                racc += factor;
            }
        }
    }
    let tr = t.elapsed().as_secs_f64();
    println!(
        "{:<15} scale_row {:.3}s  ({:.0} cycles/s) acc={:.2}",
        "serve nominal",
        tr,
        CYCLES as f64 / tr,
        racc
    );
}
