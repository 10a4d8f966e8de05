//! Storm scenario generators: stress environments that push the error
//! rate far past what the open-loop single-pulse throttle was tuned
//! for, exercising the [`crate::LadderGovernor`] escalation ladder.
//!
//! Each scenario is a named, seeded recipe over
//! `timber_variability::VariabilityBuilder`; one `(scenario, seed)`
//! pair reproduces the whole environment bit-for-bit.

use timber_variability::{CompositeVariability, VariabilityBuilder};

/// A named stress environment for soak campaigns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StormScenario {
    /// Dense resonant voltage-droop events: the paper's dominant
    /// slow-changing global source, cranked until droops overlap and
    /// several consecutive cycles flag together (multi-stage storms).
    DroopTrain,
    /// Aggressive aging slope plus moderate droop: delay drifts upward
    /// through the run, so a fixed margin that held at cycle 10² is
    /// gone by cycle 10⁵ — sustained escalation pressure, not bursts.
    AgingRamp,
    /// Heavy fast local jitter over per-stage process spread: dense
    /// uncorrelated single-stage flags — a high flag *rate* without a
    /// common-mode cause, probing estimator hysteresis.
    FlagSpikes,
}

impl StormScenario {
    /// All scenarios, in report order.
    pub const ALL: [StormScenario; 3] = [
        StormScenario::DroopTrain,
        StormScenario::AgingRamp,
        StormScenario::FlagSpikes,
    ];

    /// Stable machine-readable name (CLI flag value, report key).
    pub fn name(self) -> &'static str {
        match self {
            StormScenario::DroopTrain => "droop-train",
            StormScenario::AgingRamp => "aging-ramp",
            StormScenario::FlagSpikes => "flag-spikes",
        }
    }

    /// Parses a scenario name as produced by [`StormScenario::name`].
    pub fn parse(s: &str) -> Option<StormScenario> {
        StormScenario::ALL.into_iter().find(|sc| sc.name() == s)
    }

    /// Builds the delay-derating environment for `stages` pipeline
    /// stages, fully determined by `seed`.
    pub fn build(self, stages: usize, seed: u64) -> CompositeVariability {
        let b = VariabilityBuilder::new(seed);
        match self {
            StormScenario::DroopTrain => b
                // Deep droops arriving every ~60 cycles with a short
                // resonance period: events overlap into trains.
                .voltage_droop(0.20, 48, 60.0)
                .local_jitter(0.01)
                .build(),
            StormScenario::AgingRamp => b
                // 6% per decade: +18% by cycle 10³, +30% by 10⁵.
                .aging(0.06)
                .voltage_droop(0.08, 500, 400.0)
                .process(stages, 0.02)
                .build(),
            StormScenario::FlagSpikes => b
                // σ = 5% iid per (cycle, stage): frequent independent
                // overshoots with no global component.
                .local_jitter(0.05)
                .process(stages, 0.03)
                .build(),
        }
    }
}

impl std::fmt::Display for StormScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use timber_variability::DelaySource;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The simulators' row path (`scale_row` on a row of 1.0s)
        /// equals the per-stage `factor` of every storm bit for bit,
        /// over several droop periods and events, with gaps like a
        /// simulator's recovery bubbles.
        #[test]
        fn storm_rows_match_per_stage_factors(
            which in 0usize..3,
            stages in 1usize..=9,
            seed in any::<u64>(),
            horizon in 1u64..12_000,
            stride in 1u64..16,
        ) {
            let sc = StormScenario::ALL[which];
            let (mut rows, mut per_stage) = (sc.build(stages, seed), sc.build(stages, seed));
            let mut row = vec![1.0; stages];
            let mut cycle = 0u64;
            while cycle < horizon {
                row.fill(1.0);
                rows.scale_row(cycle, &mut row);
                for (s, &got) in row.iter().enumerate() {
                    let want = per_stage.factor(cycle, s);
                    prop_assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{} cycle {} stage {}",
                        sc,
                        cycle,
                        s
                    );
                }
                cycle += 1 + cycle.wrapping_mul(0x9E37_79B9_7F4A_7C15) % stride;
            }
        }
    }

    #[test]
    fn names_round_trip() {
        for sc in StormScenario::ALL {
            assert_eq!(StormScenario::parse(sc.name()), Some(sc));
        }
        assert_eq!(StormScenario::parse("quiet"), None);
    }

    #[test]
    fn environments_are_reproducible() {
        for sc in StormScenario::ALL {
            let mut a = sc.build(4, 17);
            let mut b = sc.build(4, 17);
            for c in 0..256u64 {
                for s in 0..4 {
                    assert_eq!(a.factor(c, s), b.factor(c, s), "{sc} cycle {c}");
                }
            }
        }
    }

    #[test]
    fn storms_actually_derate() {
        // Every scenario must push delays meaningfully past nominal
        // somewhere in the first few thousand cycles — a storm that
        // never slows anything exercises nothing.
        for sc in StormScenario::ALL {
            let mut env = sc.build(4, 3);
            let mut max = 0.0f64;
            for c in 0..4_000u64 {
                for s in 0..4 {
                    max = max.max(env.factor(c, s));
                }
            }
            assert!(max > 1.08, "{sc}: max factor {max} too tame");
        }
    }

    #[test]
    fn seeds_differentiate_runs() {
        let mut a = StormScenario::DroopTrain.build(4, 1);
        let mut b = StormScenario::DroopTrain.build(4, 2);
        let differs = (0..512u64).any(|c| a.factor(c, 0) != b.factor(c, 0));
        assert!(differs);
    }
}
