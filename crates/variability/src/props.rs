//! Property-based tests (proptest) for the variability models.

#![cfg(test)]

use proptest::prelude::*;

use timber_netlist::Picos;

use crate::model::{
    Aging, DelaySource, LocalJitter, ProcessVariation, TemperatureDrift, VariabilityBuilder,
    VoltageDroop,
};
use crate::sensitization::{SensitizationModel, StagePathProfile};

/// Walks two identically built sources over a monotone cycle sequence
/// below `horizon` (gaps of 1..=`stride` cycles, like a simulator's
/// recovery bubbles), asserting that `row_src.scale_row` on a row of
/// 1.0s equals `stage_src.factor` at every stage, bit for bit.
fn assert_rows_match_factors(
    row_src: &mut dyn DelaySource,
    stage_src: &mut dyn DelaySource,
    stages: usize,
    horizon: u64,
    stride: u64,
) {
    let mut row = vec![1.0; stages];
    let mut cycle = 0u64;
    let mut step = 0u64;
    while cycle < horizon {
        row.fill(1.0);
        row_src.scale_row(cycle, &mut row);
        for (s, &got) in row.iter().enumerate() {
            let want = stage_src.factor(cycle, s);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{} cycle {cycle} stage {s}: row {got} vs factor {want}",
                row_src.name()
            );
        }
        step += 1;
        cycle += 1 + (step.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) % stride;
    }
}

/// One of the five sources alone, its parameters spread by `knob` in
/// [0, 1): droop resonance 2..=1001 cycles with mean event intervals
/// from 20 to ~12k cycles, so long walks cross many ripple periods,
/// many events, and event ages past the droop memo cap.
fn single_source(which: usize, stages: usize, seed: u64, knob: f64) -> Box<dyn DelaySource> {
    match which {
        0 => Box::new(ProcessVariation::new(stages.div_ceil(2), 0.05, seed)),
        1 => Box::new(VoltageDroop::new(
            0.15,
            2 + (knob * 1000.0) as u64,
            20.0 + knob * knob * 12_000.0,
            seed,
        )),
        2 => Box::new(TemperatureDrift::new(
            0.03,
            50 + (knob * 5000.0) as u64,
            seed,
        )),
        3 => Box::new(Aging::new(knob * 0.05)),
        _ => Box::new(LocalJitter::new(knob * 0.06, seed)),
    }
}

proptest! {
    /// Every composed environment yields positive, bounded factors.
    #[test]
    fn composite_factors_bounded(
        seed in 0u64..100,
        droop in 0.0f64..0.15,
        jitter in 0.0f64..0.03,
        cycle in 0u64..100_000,
        stage in 0usize..8,
    ) {
        let mut var = VariabilityBuilder::new(seed)
            .process(8, 0.03)
            .voltage_droop(droop.max(0.001), 500, 1000.0)
            .temperature(0.02, 1_000_000)
            .aging(0.002)
            .local_jitter(jitter)
            .build();
        let f = var.factor(cycle, stage);
        prop_assert!(f > 0.3, "factor {f} too small");
        prop_assert!(f < 2.5, "factor {f} too large");
    }

    /// Aging is monotone non-decreasing in time for any slope.
    #[test]
    fn aging_monotone(slope in 0.0f64..0.05, c1 in 0u64..1_000_000, c2 in 0u64..1_000_000) {
        let mut a = Aging::new(slope);
        let (lo, hi) = if c1 <= c2 { (c1, c2) } else { (c2, c1) };
        prop_assert!(a.factor(lo, 0) <= a.factor(hi, 0) + 1e-12);
    }

    /// Temperature drift never speeds the circuit up and never exceeds
    /// its amplitude.
    #[test]
    fn temperature_bounded(
        amp in 0.0f64..0.1,
        period in 1_000u64..10_000_000,
        seed in 0u64..50,
        cycle in 0u64..50_000_000,
    ) {
        let mut t = TemperatureDrift::new(amp, period, seed);
        let f = t.factor(cycle, 0);
        prop_assert!(f >= 1.0 - 1e-12);
        prop_assert!(f <= 1.0 + amp + 1e-12);
    }

    /// Local jitter is a pure function of (seed, cycle, stage).
    #[test]
    fn jitter_pure(
        sigma in 0.0f64..0.05,
        seed in 0u64..100,
        cycle in 0u64..1_000_000,
        stage in 0usize..16,
    ) {
        let mut j1 = LocalJitter::new(sigma, seed);
        let mut j2 = LocalJitter::new(sigma, seed);
        prop_assert_eq!(j1.factor(cycle, stage), j2.factor(cycle, stage));
    }

    /// Sensitized delays never exceed the critical delay and are always
    /// positive, for any valid profile.
    #[test]
    fn sensitization_bounded(
        crit in 100i64..5000,
        p_crit in 0.0f64..0.5,
        p_near in 0.0f64..0.5,
        seed in 0u64..50,
    ) {
        let mut profile = StagePathProfile::from_critical(Picos(crit));
        profile.p_critical = p_crit;
        profile.p_near = p_near.min(1.0 - p_crit);
        let mut m = SensitizationModel::new(vec![profile], seed);
        for _ in 0..200 {
            let (d, _) = m.sample(0);
            prop_assert!(d > Picos::ZERO);
            prop_assert!(d <= Picos(crit));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every source's row form equals its per-stage factor bit for bit,
    /// for every stage count 1..=9 (odd counts end on a half jitter
    /// pair; process rows shorter than the pipeline wrap).
    #[test]
    fn each_source_row_matches_per_stage_factors(
        which in 0usize..5,
        stages in 1usize..=9,
        seed in 0u64..1_000,
        knob in 0.0f64..1.0,
        horizon in 1u64..40_000,
        stride in 1u64..64,
    ) {
        let mut row_src = single_source(which, stages, seed, knob);
        let mut stage_src = single_source(which, stages, seed, knob);
        assert_rows_match_factors(&mut *row_src, &mut *stage_src, stages, horizon, stride);
    }

    /// Composites: the serve path's nominal stress (droop + jitter)
    /// and all five sources together, whose product is order-sensitive
    /// in the last bit. The row product equals the per-stage
    /// `Iterator::product` bit for bit.
    #[test]
    fn composite_rows_match_per_stage_factors(
        stages in 1usize..=9,
        seed in any::<u64>(),
        horizon in 1u64..20_000,
        stride in 1u64..16,
    ) {
        let serve = || {
            VariabilityBuilder::new(seed)
                .voltage_droop(0.05, 500, 2000.0)
                .local_jitter(0.005)
                .build()
        };
        let (mut row_src, mut stage_src) = (serve(), serve());
        assert_rows_match_factors(&mut row_src, &mut stage_src, stages, horizon, stride);
        let full = || {
            VariabilityBuilder::new(seed)
                .process(stages, 0.03)
                .voltage_droop(0.08, 64, 300.0)
                .temperature(0.02, 5_000)
                .aging(0.004)
                .local_jitter(0.01)
                .build()
        };
        let (mut row_src, mut stage_src) = (full(), full());
        assert_rows_match_factors(&mut row_src, &mut stage_src, stages, horizon, stride);
    }
}
