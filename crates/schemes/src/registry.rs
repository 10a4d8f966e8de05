//! The canonical scheme registry: one stable identifier per implemented
//! resilience technique, plus a factory that derives every technique's
//! parameters from a single [`CheckingPeriod`] the way the experiments
//! do (Razor window = the checking period, canary guard = 8% of the
//! clock, soft-edge transparency = one borrow interval).
//!
//! The registry exists so cross-cutting subsystems — the conformance
//! oracle, the bench experiments, future fuzzers — enumerate *the same*
//! eight design points instead of each hand-rolling its own list that
//! silently drifts.

use timber::{CheckingPeriod, TimberFfScheme, TimberLatchScheme};
use timber_netlist::Picos;
use timber_pipeline::reference::MarginedFlop;
use timber_pipeline::SequentialScheme;

use crate::baselines::{CanaryFf, LogicalMasking, RazorFf, SoftEdgeFf, TransitionDetectorFf};

/// Stable identifier of one implemented resilience technique.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeId {
    /// TIMBER flip-flop with discrete borrowing and the error relay.
    TimberFf,
    /// TIMBER pulsed latch with continuous borrowing.
    TimberLatch,
    /// Razor shadow-latch detection with local replay.
    RazorFf,
    /// Transition-detector detection with a global stall.
    TransitionDetectorFf,
    /// Canary prediction before the edge.
    CanaryFf,
    /// Design-time soft-edge transparency window.
    SoftEdgeFf,
    /// Logical error masking with redundant logic.
    LogicalMasking,
    /// Conventional margined flip-flop (the baseline design point).
    ConventionalFf,
}

impl SchemeId {
    /// Every implemented scheme, in the canonical comparison order used
    /// by the experiments and the conformance campaign.
    pub const ALL: [SchemeId; 8] = [
        SchemeId::TimberFf,
        SchemeId::TimberLatch,
        SchemeId::RazorFf,
        SchemeId::TransitionDetectorFf,
        SchemeId::CanaryFf,
        SchemeId::SoftEdgeFf,
        SchemeId::LogicalMasking,
        SchemeId::ConventionalFf,
    ];

    /// The scheme's stable name (matches each implementation's
    /// `SequentialScheme::name`).
    pub fn name(self) -> &'static str {
        match self {
            SchemeId::TimberFf => "timber-ff",
            SchemeId::TimberLatch => "timber-latch",
            SchemeId::RazorFf => "razor-ff",
            SchemeId::TransitionDetectorFf => "transition-detector-ff",
            SchemeId::CanaryFf => "canary-ff",
            SchemeId::SoftEdgeFf => "soft-edge-ff",
            SchemeId::LogicalMasking => "logical-masking",
            SchemeId::ConventionalFf => "conventional-ff",
        }
    }

    /// Resolves a stable name back to its identifier.
    pub fn from_name(name: &str) -> Option<SchemeId> {
        SchemeId::ALL.into_iter().find(|id| id.name() == name)
    }

    /// True when the scheme can mask violations by borrowing time
    /// (produces `StageOutcome::Masked`).
    pub fn is_masking(self) -> bool {
        matches!(
            self,
            SchemeId::TimberFf
                | SchemeId::TimberLatch
                | SchemeId::SoftEdgeFf
                | SchemeId::LogicalMasking
        )
    }

    /// True when the scheme recovers through pipeline bubbles
    /// (produces `StageOutcome::Detected`), which shifts the cycle
    /// numbering of everything downstream of a detection.
    pub fn is_detection(self) -> bool {
        matches!(self, SchemeId::RazorFf | SchemeId::TransitionDetectorFf)
    }
}

/// Factory building any [`SchemeId`] with parameters derived from one
/// checking-period schedule, exactly as the experiments derive them.
#[derive(Debug, Clone, Copy)]
pub struct Registry {
    schedule: CheckingPeriod,
    stages: usize,
    coverage: f64,
}

impl Registry {
    /// A registry deriving every parameter from `schedule` for a
    /// pipeline with `stages` boundaries. Logical-masking coverage
    /// defaults to the experiments' 0.8.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is zero.
    pub fn new(schedule: CheckingPeriod, stages: usize) -> Registry {
        assert!(stages > 0, "need at least one stage boundary");
        Registry {
            schedule,
            stages,
            coverage: 0.8,
        }
    }

    /// Overrides the logical-masking coverage fraction. The conformance
    /// oracle pins it to 1.0 so the scheme's internal RNG cannot make
    /// two otherwise-identical models diverge.
    ///
    /// # Panics
    ///
    /// Panics if `coverage` is outside `[0, 1]`.
    #[must_use]
    pub fn coverage(mut self, coverage: f64) -> Registry {
        assert!((0.0..=1.0).contains(&coverage), "coverage in [0,1]");
        self.coverage = coverage;
        self
    }

    /// The schedule parameters are derived from.
    pub fn schedule(&self) -> &CheckingPeriod {
        &self.schedule
    }

    /// Detection/masking window shared by Razor, the transition
    /// detector and logical masking: the full checking period.
    pub fn window(&self) -> Picos {
        self.schedule.checking()
    }

    /// Canary guard band: 8% of the clock period (the experiments'
    /// derivation in `timber-bench`'s margin sweep).
    pub fn guard(&self) -> Picos {
        self.schedule.period().scale(0.08)
    }

    /// Soft-edge transparency window: one borrow interval.
    pub fn soft_window(&self) -> Picos {
        self.schedule.interval()
    }

    /// Builds the scheme, seeding any internal randomness with `seed`.
    pub fn build(&self, id: SchemeId, seed: u64) -> Box<dyn SequentialScheme> {
        match id {
            SchemeId::TimberFf => Box::new(TimberFfScheme::new(self.schedule, self.stages)),
            SchemeId::TimberLatch => Box::new(TimberLatchScheme::new(self.schedule, self.stages)),
            SchemeId::RazorFf => Box::new(RazorFf::new(self.window())),
            SchemeId::TransitionDetectorFf => Box::new(TransitionDetectorFf::new(self.window())),
            SchemeId::CanaryFf => Box::new(CanaryFf::new(self.guard())),
            SchemeId::SoftEdgeFf => Box::new(SoftEdgeFf::new(self.soft_window())),
            SchemeId::LogicalMasking => {
                Box::new(LogicalMasking::new(self.coverage, self.window(), seed))
            }
            SchemeId::ConventionalFf => Box::new(MarginedFlop::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timber_pipeline::{CycleContext, StageOutcome};

    fn sched() -> CheckingPeriod {
        CheckingPeriod::new(Picos(1000), 24.0, 1, 2).unwrap()
    }

    #[test]
    fn names_are_unique_and_round_trip() {
        let mut seen = std::collections::HashSet::new();
        for id in SchemeId::ALL {
            assert!(seen.insert(id.name()), "duplicate name {}", id.name());
            assert_eq!(SchemeId::from_name(id.name()), Some(id));
        }
        assert_eq!(SchemeId::from_name("frobnicator-ff"), None);
    }

    #[test]
    fn built_scheme_names_match_ids() {
        let reg = Registry::new(sched(), 4);
        for id in SchemeId::ALL {
            let scheme = reg.build(id, 7);
            assert_eq!(scheme.name(), id.name(), "{id:?}");
        }
    }

    #[test]
    fn derived_parameters_follow_the_schedule() {
        let reg = Registry::new(sched(), 4);
        assert_eq!(reg.window(), Picos(240));
        assert_eq!(reg.guard(), Picos(80));
        assert_eq!(reg.soft_window(), Picos(80));
    }

    #[test]
    fn masking_and_detection_partitions_are_disjoint() {
        for id in SchemeId::ALL {
            assert!(!(id.is_masking() && id.is_detection()), "{id:?}");
        }
    }

    /// Builds a fresh scheme instance.
    type Factory = Box<dyn Fn() -> Box<dyn SequentialScheme>>;

    /// Every registry scheme at `period`, plus Razor with each
    /// metastability window, as fresh-instance factories.
    fn on_time_cases(period: i64) -> Vec<(String, Factory)> {
        let schedule = CheckingPeriod::new(Picos(period), 24.0, 1, 2).unwrap();
        let reg = Registry::new(schedule, 3);
        let mut cases: Vec<(String, Factory)> = SchemeId::ALL
            .into_iter()
            .map(|id| {
                let build: Factory = Box::new(move || reg.build(id, 11));
                (id.name().to_owned(), build)
            })
            .collect();
        for meta in [0, 1, 40] {
            let window = reg.window();
            cases.push((
                format!("razor-ff meta {meta}"),
                Box::new(move || Box::new(RazorFf::new(window).with_metastability(Picos(meta), 4))),
            ));
        }
        cases
    }

    /// Runs the contract's three cycles on a fresh scheme: cycle 0
    /// overruns every stage by 1 ps (so a TIMBER flop relays a select
    /// into cycle 1), cycle 1 feeds `arrival` with `borrow` to `stage`
    /// and 0 elsewhere, and cycles 2.. probe the state left behind with
    /// fixed arrivals around the edge. Returns the probed stage's
    /// outcome and every probe outcome.
    fn on_time_trial(
        scheme: &mut dyn SequentialScheme,
        period: i64,
        stage: usize,
        arrival: Picos,
        borrow: Picos,
    ) -> (StageOutcome, Vec<StageOutcome>) {
        let ctx = |cycle| CycleContext {
            cycle,
            period: Picos(period),
            nominal_period: Picos(period),
        };
        for s in 0..3 {
            let _ = scheme.evaluate(s, Picos(period + 1), Picos::ZERO, &ctx(0));
        }
        let mut probed = StageOutcome::Ok;
        for s in 0..3 {
            let (a, b) = if s == stage {
                (arrival, borrow)
            } else {
                (Picos::ZERO, Picos::ZERO)
            };
            let out = scheme.evaluate(s, a, b, &ctx(1));
            if s == stage {
                probed = out;
            }
        }
        let mut probes = Vec::new();
        for cycle in 2..10u64 {
            for s in 0..3 {
                let step = (cycle as i64 * 3 + s as i64) % 7;
                let a = Picos(period - 30 + step * (period / 40 + 5));
                probes.push(scheme.evaluate(s, a, Picos::ZERO, &ctx(cycle)));
            }
        }
        (probed, probes)
    }

    /// The on-time contract the simulator's skipped jitter draws rest
    /// on, checked exhaustively: every arrival up to the limit is `Ok`
    /// with or without an incoming borrow, leaves the same state as a
    /// zero arrival (the probe cycles see identical outcomes, including
    /// logical masking's coverage draws), and the limit is tight.
    #[test]
    fn every_scheme_keeps_its_on_time_contract() {
        for period in [97, 1000, 1003] {
            for (name, build) in on_time_cases(period) {
                let limit = build()
                    .on_time_limit(Picos(period))
                    .unwrap_or_else(|| panic!("{name} has no on-time limit"))
                    .as_ps();
                let trial = |stage, arrival, borrow| {
                    on_time_trial(build().as_mut(), period, stage, Picos(arrival), borrow)
                };
                let borrows = [Picos::ZERO, Picos(period / 10 + 1)];
                for (stage, borrow) in (0..3).flat_map(|s| borrows.map(|b| (s, b))) {
                    let (_, want) = trial(stage, 0, borrow);
                    for arrival in 0..=limit {
                        let (out, probes) = trial(stage, arrival, borrow);
                        let at = (&name, period, stage, arrival);
                        assert_eq!(out, StageOutcome::Ok, "{at:?}");
                        assert_eq!(probes, want, "{at:?}: state moved");
                    }
                    let (out, _) = trial(stage, limit + 1, borrow);
                    assert_ne!(out, StageOutcome::Ok, "{name} at {period} ps: loose limit");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "coverage in [0,1]")]
    fn coverage_is_validated() {
        let _ = Registry::new(sched(), 1).coverage(1.5);
    }
}
