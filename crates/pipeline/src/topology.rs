//! DAG pipeline topologies: reconvergent stage graphs.
//!
//! A real processor's stage boundaries form a DAG, not a chain —
//! execute results fan out to both the bypass network and the register
//! file, and reconvergent paths meet again at writeback. The TIMBER
//! error relay's *max over the fanin cone* consolidation rule (paper
//! §5.1, Fig. 4) only becomes visible on such topologies: a boundary
//! fed by two upstream TIMBER flops must prepare for the worse of
//! their borrowings.
//!
//! [`Topology`] describes the boundary DAG; [`TopologySim`] runs the
//! same per-cycle evaluation as the linear `PipelineSim` but propagates
//! borrowed time along DAG edges: time borrowed at boundary `p` in
//! cycle `t` delays the data launched toward every successor, so each
//! boundary's incoming borrow in cycle `t+1` is the **max** over its
//! predecessors' borrows.

use timber_netlist::Picos;
use timber_variability::{DelaySource, SensitizationModel};

use crate::scheme::{CycleContext, SequentialScheme, StageOutcome};
use crate::stats::RunStats;

/// A DAG of stage boundaries in topological index order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    preds: Vec<Vec<usize>>,
}

impl Topology {
    /// Builds a topology from per-boundary predecessor lists.
    ///
    /// # Panics
    ///
    /// Panics if `preds` is empty or any predecessor index is not
    /// strictly smaller than its boundary (indices must already be a
    /// topological order).
    pub fn new(preds: Vec<Vec<usize>>) -> Topology {
        assert!(!preds.is_empty(), "topology needs at least one boundary");
        for (b, ps) in preds.iter().enumerate() {
            for &p in ps {
                assert!(
                    p < b,
                    "predecessor {p} of boundary {b} violates topological order"
                );
            }
        }
        Topology { preds }
    }

    /// A linear chain of `n` boundaries (the classic 5-stage pipe).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn linear(n: usize) -> Topology {
        assert!(n > 0, "topology needs at least one boundary");
        Topology::new(
            (0..n)
                .map(|b| if b == 0 { vec![] } else { vec![b - 1] })
                .collect(),
        )
    }

    /// The canonical reconvergent shape: boundary 0 fans out to 1 and
    /// 2, which reconverge at 3 (execute → {bypass, regfile} →
    /// writeback).
    pub fn diamond() -> Topology {
        Topology::new(vec![vec![], vec![0], vec![0], vec![1, 2]])
    }

    /// Number of boundaries.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// True when the topology has no boundaries (never constructed).
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Predecessors of a boundary.
    pub fn preds(&self, b: usize) -> &[usize] {
        &self.preds[b]
    }

    /// Successor lists derived from the predecessor lists.
    pub fn successors(&self) -> Vec<Vec<usize>> {
        let mut succs = vec![Vec::new(); self.preds.len()];
        for (b, ps) in self.preds.iter().enumerate() {
            for &p in ps {
                succs[p].push(b);
            }
        }
        succs
    }
}

/// Cycle-level simulator over a DAG topology.
///
/// Statistics semantics match `PipelineSim` except for the chain
/// histogram: chains are counted along DAG *paths*, so a borrow that
/// forks to several successors contributes to every downstream path's
/// chain. The weighted histogram sum can therefore exceed the
/// masked-event count on reconvergent topologies (it equals it exactly
/// on linear chains).
pub struct TopologySim<'a> {
    topology: Topology,
    nominal_period: Picos,
    scheme: &'a mut dyn SequentialScheme,
    sensitization: &'a mut SensitizationModel,
    variability: &'a mut dyn DelaySource,
    /// Borrow flowing into each boundary this cycle.
    carry: Vec<Picos>,
    chain: Vec<usize>,
    /// Per-cycle scratch rows, allocated once: the variability factor
    /// of each boundary, the borrow and chain each boundary produced,
    /// the next cycle's carry/chain (swapped into `carry`/`chain`), and
    /// whether a successor consumed each boundary's borrow.
    factors: Vec<f64>,
    borrowed: Vec<Picos>,
    produced_chain: Vec<usize>,
    next_carry: Vec<Picos>,
    next_chain: Vec<usize>,
    consumed: Vec<bool>,
    cycle: u64,
}

impl std::fmt::Debug for TopologySim<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TopologySim")
            .field("topology", &self.topology)
            .field("scheme", &self.scheme.name())
            .field("cycle", &self.cycle)
            .finish_non_exhaustive()
    }
}

impl<'a> TopologySim<'a> {
    /// Creates a simulator over `topology`.
    ///
    /// # Panics
    ///
    /// Panics if the sensitization model covers fewer boundaries than
    /// the topology.
    pub fn new(
        topology: Topology,
        nominal_period: Picos,
        scheme: &'a mut dyn SequentialScheme,
        sensitization: &'a mut SensitizationModel,
        variability: &'a mut dyn DelaySource,
    ) -> TopologySim<'a> {
        assert!(
            sensitization.stage_count() >= topology.len(),
            "sensitization model must cover all {} boundaries",
            topology.len()
        );
        let n = topology.len();
        scheme.reset();
        TopologySim {
            topology,
            nominal_period,
            scheme,
            sensitization,
            variability,
            carry: vec![Picos::ZERO; n],
            chain: vec![0; n],
            factors: vec![1.0; n],
            borrowed: vec![Picos::ZERO; n],
            produced_chain: vec![0; n],
            next_carry: vec![Picos::ZERO; n],
            next_chain: vec![0; n],
            consumed: vec![false; n],
            cycle: 0,
        }
    }

    /// Runs `cycles` cycles and returns the statistics.
    pub fn run(&mut self, cycles: u64) -> RunStats {
        let mut stats = RunStats::default();
        let n = self.topology.len();
        for _ in 0..cycles {
            let t = self.cycle;
            self.cycle += 1;
            stats.cycles += 1;
            stats.wall_time += self.nominal_period;
            stats.energy += 1.0;
            let ctx = CycleContext {
                cycle: t,
                period: self.nominal_period,
                nominal_period: self.nominal_period,
            };
            // Per-boundary borrow/chain produced this cycle.
            self.borrowed.fill(Picos::ZERO);
            self.produced_chain.fill(0);
            self.factors.fill(1.0);
            self.variability.scale_row(t, &mut self.factors);
            for b in 0..n {
                let (base, _) = self.sensitization.sample(b);
                let arrival = self.carry[b] + base.scale(self.factors[b]);
                let outcome = self.scheme.evaluate(b, arrival, self.carry[b], &ctx);
                match outcome {
                    StageOutcome::Ok => {
                        if self.chain[b] > 0 {
                            stats.record_chain(self.chain[b]);
                        }
                    }
                    StageOutcome::Masked {
                        borrowed: amt,
                        flagged,
                    } => {
                        stats.masked += 1;
                        if flagged {
                            stats.flagged += 1;
                        }
                        self.borrowed[b] = amt;
                        self.produced_chain[b] = self.chain[b] + 1;
                    }
                    StageOutcome::Detected { recovery } => {
                        stats.detected += 1;
                        stats.record_chain(self.chain[b] + 1);
                        stats.penalty_cycles += u64::from(recovery.penalty_cycles());
                    }
                    StageOutcome::Predicted => {
                        stats.predicted += 1;
                    }
                    StageOutcome::Corrupted => {
                        stats.corrupted += 1;
                        stats.record_chain(self.chain[b] + 1);
                    }
                }
            }
            // Propagate along DAG edges for the next cycle.
            self.next_carry.fill(Picos::ZERO);
            self.next_chain.fill(0);
            self.consumed.fill(false);
            for b in 0..n {
                for &p in self.topology.preds(b) {
                    if self.borrowed[p] > self.next_carry[b] {
                        self.next_carry[b] = self.borrowed[p];
                    }
                    self.next_chain[b] = self.next_chain[b].max(self.produced_chain[p]);
                    if self.borrowed[p] > Picos::ZERO {
                        self.consumed[p] = true;
                    }
                }
            }
            // Chains whose borrow was not consumed by any successor
            // (sink boundaries) fall off the pipeline here; consumed
            // ones continue via `next_chain` at their successors.
            for b in 0..n {
                if self.produced_chain[b] > 0 && !self.consumed[b] {
                    stats.record_chain(self.produced_chain[b]);
                }
            }
            std::mem::swap(&mut self.carry, &mut self.next_carry);
            std::mem::swap(&mut self.chain, &mut self.next_chain);
            stats.instructions += 1;
        }
        for &len in &self.chain {
            if len > 0 {
                stats.record_chain(len);
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::MarginedFlop;
    use timber_variability::CompositeVariability;

    #[test]
    fn topology_constructors_validate() {
        let lin = Topology::linear(5);
        assert_eq!(lin.len(), 5);
        assert_eq!(lin.preds(0), &[] as &[usize]);
        assert_eq!(lin.preds(4), &[3]);
        let d = Topology::diamond();
        assert_eq!(d.preds(3), &[1, 2]);
        assert_eq!(d.successors()[0], vec![1, 2]);
        assert!(!d.is_empty());
    }

    #[test]
    #[should_panic(expected = "topological order")]
    fn forward_edges_rejected() {
        let _ = Topology::new(vec![vec![1], vec![]]);
    }

    #[test]
    fn nominal_run_is_clean_on_diamond() {
        let topo = Topology::diamond();
        let mut scheme = MarginedFlop::new();
        let mut sens = SensitizationModel::uniform(4, Picos(900), 3);
        let mut var = CompositeVariability::nominal();
        let stats =
            TopologySim::new(topo, Picos(1000), &mut scheme, &mut sens, &mut var).run(10_000);
        assert_eq!(stats.corrupted, 0);
        assert_eq!(stats.cycles, 10_000);
        assert_eq!(stats.instructions, 10_000);
    }

    /// A deterministic borrowing scheme for edge-propagation checks.
    #[derive(Debug)]
    struct BorrowAll;
    impl SequentialScheme for BorrowAll {
        fn name(&self) -> &str {
            "borrow-all"
        }
        fn evaluate(
            &mut self,
            _s: usize,
            arrival: Picos,
            _i: Picos,
            ctx: &CycleContext,
        ) -> StageOutcome {
            if arrival <= ctx.period {
                StageOutcome::Ok
            } else {
                StageOutcome::Masked {
                    borrowed: arrival - ctx.period,
                    flagged: false,
                }
            }
        }
        fn reset(&mut self) {}
    }

    #[test]
    fn reconvergence_takes_worst_incoming_borrow() {
        // Force the two middle boundaries of the diamond to borrow
        // different amounts; the sink must inherit the max.
        let topo = Topology::diamond();
        let mut scheme = BorrowAll;
        // Profiles: boundary 1 critical 1040, boundary 2 critical 1080,
        // others safe; p_critical = 1 to make it deterministic.
        let mut profiles = vec![
            timber_variability::StagePathProfile::from_critical(Picos(900)),
            timber_variability::StagePathProfile::from_critical(Picos(1040)),
            timber_variability::StagePathProfile::from_critical(Picos(1080)),
            timber_variability::StagePathProfile::from_critical(Picos(900)),
        ];
        for p in &mut profiles {
            p.p_critical = 1.0;
            p.p_near = 0.0;
        }
        let mut sens = SensitizationModel::new(profiles, 1);
        let mut var = CompositeVariability::nominal();
        let mut sim = TopologySim::new(topo, Picos(1000), &mut scheme, &mut sens, &mut var);
        let _ = sim.run(1);
        // After cycle 0: boundaries 1 and 2 borrowed 40 and 80; the
        // sink's incoming carry must be the max (80).
        assert_eq!(sim.carry[3], Picos(80));
        assert_eq!(sim.carry[1], Picos::ZERO, "boundary 0 was clean");
    }

    #[test]
    fn chains_span_dag_paths() {
        // All four boundaries always critical at 1040: every boundary
        // borrows every cycle, chains grow along 0 -> {1,2} -> 3.
        let topo = Topology::diamond();
        let mut scheme = BorrowAll;
        let mut profiles =
            vec![timber_variability::StagePathProfile::from_critical(Picos(1040)); 4];
        for p in &mut profiles {
            p.p_critical = 1.0;
            p.p_near = 0.0;
        }
        let mut sens = SensitizationModel::new(profiles, 1);
        let mut var = CompositeVariability::nominal();
        let stats = TopologySim::new(topo, Picos(1000), &mut scheme, &mut sens, &mut var).run(50);
        assert_eq!(stats.masked, 4 * 50);
        // Multi-boundary chains must appear.
        assert!(
            stats.chain_histogram.len() >= 3,
            "{:?}",
            stats.chain_histogram
        );
        assert_eq!(stats.corrupted, 0);
    }
}
