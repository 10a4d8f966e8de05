//! Delay-derating sources and their composition.
//!
//! Each source implements [`DelaySource`]: a multiplicative factor on a
//! pipeline stage's combinational delay at a given clock cycle. Factors
//! combine multiplicatively in [`CompositeVariability`].
//!
//! The taxonomy follows the paper's §1/§3 discussion:
//!
//! * **static** — [`ProcessVariation`]: fixed per stage, workload
//!   independent (handled at design/test time; included for baselines);
//! * **slow-changing global dynamic** — [`VoltageDroop`],
//!   [`TemperatureDrift`], [`Aging`]: affect many consecutive cycles and
//!   can therefore cause *multi-stage* timing errors;
//! * **fast-changing local dynamic** — [`LocalJitter`]: uncorrelated
//!   across cycles and stages, causing mostly *single-stage* errors.
//!
//! [`DelaySource::factor`] is the per-coordinate definition of every
//! source; [`DelaySource::scale_row`] is the row form the simulators
//! run, one call per source per cycle. Each source's row form performs
//! exactly the floating-point operations its `factor` does, so the two
//! agree bit for bit (DESIGN.md §12.5). [`DelaySource::bound_row`] is
//! the bounded row form: a composite multiplies in [`LocalJitter`]'s
//! clip instead of drawing it, and [`DelaySource::settle`] draws it for
//! the stages a caller needs exactly (DESIGN.md §12.6).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::math::box_muller;

/// A time- and stage-dependent multiplicative delay derating.
///
/// A factor of 1.0 is nominal; 1.10 means combinational delays are 10%
/// slower on that cycle at that stage.
pub trait DelaySource {
    /// Derating factor at `cycle` for pipeline `stage`.
    fn factor(&mut self, cycle: u64, stage: usize) -> f64;

    /// Multiplies `row[s]` by this source's factor at `(cycle, s)`, for
    /// every slot `s` of the row.
    ///
    /// The result must equal `row[s] * self.factor(cycle, s)` bit for
    /// bit; the default does exactly that, stage by stage. Sources
    /// override it to pay per-cycle work once per row instead of once
    /// per stage. Cycle-ordering rules are those of `factor`.
    fn scale_row(&mut self, cycle: u64, row: &mut [f64]) {
        for (s, slot) in row.iter_mut().enumerate() {
            *slot *= self.factor(cycle, s);
        }
    }

    /// Multiplies `row[s]` by an upper bound of this source's factor at
    /// `(cycle, s)`, and returns whether that bound may be loose.
    ///
    /// `false` means the row is exact, as [`DelaySource::scale_row`]
    /// leaves it; the default does exactly that. `true` means some
    /// slots hold a bound instead, and [`DelaySource::settle`] yields
    /// the exact factor of any stage on demand. Sources whose factors
    /// are expensive draw them only for the stages a caller settles.
    /// Cycle-ordering rules are those of `factor`.
    fn bound_row(&mut self, cycle: u64, row: &mut [f64]) -> bool {
        self.scale_row(cycle, row);
        false
    }

    /// The exact factor of `stage` at the cycle of the last
    /// [`DelaySource::bound_row`] that returned `true`: bit for bit the
    /// value `scale_row` would have multiplied that slot by.
    ///
    /// # Panics
    ///
    /// The default panics: it belongs to the default `bound_row`,
    /// which is always exact, so there is nothing to settle.
    fn settle(&mut self, stage: usize) -> f64 {
        let _ = stage;
        unreachable!("settle follows a bound_row that returned true")
    }

    /// The largest factor this source ever returns, when the source
    /// would rather be bounded than evaluated. `Some` also promises
    /// that `factor` is a pure function of `(cycle, stage)` that may
    /// be queried for any subset of a cycle's stages, so skipping a
    /// stage changes no other value. A [`CompositeVariability`] defers
    /// such sources: its `bound_row` uses this maximum, and its
    /// `settle` calls `factor`. Defaults to `None` (never deferred).
    fn deferred_max(&self) -> Option<f64> {
        None
    }

    /// Short, human-readable source name (for reports).
    fn name(&self) -> &str;
}

/// The row form of a stage-invariant source: every slot times `f`.
fn scale_all(row: &mut [f64], f: f64) {
    for slot in row {
        *slot *= f;
    }
}

/// Static process variation: a per-stage factor drawn once at
/// construction from N(1, sigma²), constant for the run.
#[derive(Debug, Clone)]
pub struct ProcessVariation {
    factors: Vec<f64>,
}

impl ProcessVariation {
    /// Draws per-stage factors for `stages` stages.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative.
    pub fn new(stages: usize, sigma: f64, seed: u64) -> ProcessVariation {
        assert!(sigma >= 0.0, "sigma must be non-negative");
        let mut rng = StdRng::seed_from_u64(seed);
        let factors = (0..stages)
            .map(|_| (1.0 + sigma * box_muller(&mut rng)).max(0.5))
            .collect();
        ProcessVariation { factors }
    }
}

impl DelaySource for ProcessVariation {
    fn factor(&mut self, _cycle: u64, stage: usize) -> f64 {
        self.factors[stage % self.factors.len()]
    }

    fn name(&self) -> &str {
        "process"
    }
}

/// Global supply-voltage droop: a resonant sinusoidal component plus
/// Poisson-arriving droop events with exponential recovery.
///
/// Voltage droop is the dominant *slow-changing global* source in the
/// paper's discussion: when a droop event hits, several consecutive
/// cycles slow down together, which is what makes multi-stage timing
/// errors possible at all.
#[derive(Debug, Clone)]
pub struct VoltageDroop {
    /// Peak derating of a droop event (e.g. 0.08 = 8% slower).
    depth: f64,
    /// Period of the resonant component, in cycles.
    resonance_cycles: u64,
    /// Mean cycles between droop events.
    mean_interval: f64,
    /// Exponential recovery time constant, in cycles.
    recovery_tau: f64,
    rng: StdRng,
    next_event: u64,
    /// Cycle at which the most recent droop event started.
    last_event: Option<u64>,
    last_cycle_seen: u64,
    /// Cycle the cached factor was computed for (`u64::MAX` = none).
    /// The factor is stage-independent, so per-stage `factor` queries
    /// within a cycle reuse one evaluation.
    cached_cycle: u64,
    cached_factor: f64,
    /// Ripple term by phase (`cycle % resonance_cycles`): the ripple
    /// repeats every period, so each phase's sinusoid is evaluated once.
    /// Filled lazily in phase order, at most [`DROOP_MEMO_CAP`] entries.
    ripple_memo: Vec<f64>,
    /// Recovery term by event age (cycles since the latest event
    /// started): every event decays along the same curve. Filled
    /// lazily in age order, at most [`DROOP_MEMO_CAP`] entries.
    recovery_memo: Vec<f64>,
}

/// Entries each [`VoltageDroop`] memo table may hold (32 KiB of `f64`).
/// Phases and ages at or past the cap are computed directly.
const DROOP_MEMO_CAP: u64 = 4096;

/// `table[index]`, first filling the table up to `index` with
/// `term(0..=index)` when `index` is below `cap`; `term(index)` itself
/// at or past the cap. Every entry is `term` of its own index, so a
/// memoized read returns the bits a direct evaluation would.
fn memoized(table: &mut Vec<f64>, index: u64, cap: u64, term: impl Fn(u64) -> f64) -> f64 {
    if index >= cap {
        return term(index);
    }
    let i = index as usize;
    while table.len() <= i {
        table.push(term(table.len() as u64));
    }
    table[i]
}

impl VoltageDroop {
    /// Creates a droop model.
    ///
    /// * `depth` — peak derating of an event (0.08 = up to 8% slower);
    /// * `resonance_cycles` — period of the small always-on resonant
    ///   ripple (its amplitude is `depth / 4`);
    /// * `mean_interval` — mean cycles between droop events.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is negative, `resonance_cycles` is zero, or
    /// `mean_interval` is not positive.
    pub fn new(depth: f64, resonance_cycles: u64, mean_interval: f64, seed: u64) -> VoltageDroop {
        assert!(depth >= 0.0, "droop depth must be non-negative");
        assert!(resonance_cycles > 0, "resonance period must be positive");
        assert!(mean_interval > 0.0, "mean interval must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let first = crate::math::exponential(&mut rng, 1.0 / mean_interval).ceil() as u64;
        VoltageDroop {
            depth,
            resonance_cycles,
            mean_interval,
            recovery_tau: (mean_interval / 20.0).max(4.0),
            rng,
            next_event: first,
            last_event: None,
            last_cycle_seen: 0,
            cached_cycle: u64::MAX,
            cached_factor: 1.0,
            ripple_memo: Vec::new(),
            recovery_memo: Vec::new(),
        }
    }

    /// The stage-independent droop factor at `cycle`.
    fn level(&mut self, cycle: u64) -> f64 {
        if cycle == self.cached_cycle {
            return self.cached_factor;
        }
        // Advance event schedule up to `cycle`. Queries must be
        // monotone in cycle (the pipeline simulator guarantees this).
        debug_assert!(
            cycle >= self.last_cycle_seen,
            "VoltageDroop must be queried with non-decreasing cycles"
        );
        self.last_cycle_seen = cycle;
        while cycle >= self.next_event {
            self.last_event = Some(self.next_event);
            let gap = crate::math::exponential(&mut self.rng, 1.0 / self.mean_interval);
            self.next_event += gap.ceil().max(1.0) as u64;
        }
        let (depth, period, tau) = (self.depth, self.resonance_cycles, self.recovery_tau);
        let phase = cycle % period;
        let ripple = memoized(&mut self.ripple_memo, phase, DROOP_MEMO_CAP, |phase| {
            (depth / 4.0)
                * (std::f64::consts::TAU * phase as f64 / period as f64)
                    .sin()
                    .max(0.0)
        });
        let event = match self.last_event {
            Some(start) => memoized(
                &mut self.recovery_memo,
                cycle - start,
                DROOP_MEMO_CAP,
                |age| depth * (-(age as f64) / tau).exp(),
            ),
            None => 0.0,
        };
        self.cached_cycle = cycle;
        self.cached_factor = 1.0 + ripple + event;
        self.cached_factor
    }
}

impl DelaySource for VoltageDroop {
    fn factor(&mut self, cycle: u64, _stage: usize) -> f64 {
        self.level(cycle)
    }

    fn scale_row(&mut self, cycle: u64, row: &mut [f64]) {
        scale_all(row, self.level(cycle));
    }

    fn name(&self) -> &str {
        "voltage-droop"
    }
}

/// Slow global temperature drift: a bounded sinusoid over a very long
/// period (thermal time constants are ~ms, i.e. millions of cycles).
#[derive(Debug, Clone)]
pub struct TemperatureDrift {
    amplitude: f64,
    period_cycles: u64,
    phase: f64,
    /// Cycle the cached factor was computed for (`u64::MAX` = none).
    /// Drift is a pure, stage-independent function of the cycle, so
    /// per-stage queries within a cycle reuse one sinusoid evaluation.
    cached_cycle: u64,
    cached_factor: f64,
}

impl TemperatureDrift {
    /// Creates a drift with the given amplitude (e.g. 0.03 = ±3%) and
    /// period in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `amplitude` is negative or `period_cycles` is zero.
    pub fn new(amplitude: f64, period_cycles: u64, seed: u64) -> TemperatureDrift {
        assert!(amplitude >= 0.0, "amplitude must be non-negative");
        assert!(period_cycles > 0, "period must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        TemperatureDrift {
            amplitude,
            period_cycles,
            phase: rng.gen_range(0.0..std::f64::consts::TAU),
            cached_cycle: u64::MAX,
            cached_factor: 1.0,
        }
    }

    /// The stage-independent drift factor at `cycle`.
    fn level(&mut self, cycle: u64) -> f64 {
        if cycle == self.cached_cycle {
            return self.cached_factor;
        }
        let theta = std::f64::consts::TAU * (cycle % self.period_cycles) as f64
            / self.period_cycles as f64
            + self.phase;
        self.cached_cycle = cycle;
        self.cached_factor = 1.0 + self.amplitude * theta.sin().max(0.0);
        self.cached_factor
    }
}

impl DelaySource for TemperatureDrift {
    fn factor(&mut self, cycle: u64, _stage: usize) -> f64 {
        self.level(cycle)
    }

    fn scale_row(&mut self, cycle: u64, row: &mut [f64]) {
        scale_all(row, self.level(cycle));
    }

    fn name(&self) -> &str {
        "temperature"
    }
}

/// Aging (NBTI-style) wearout: delay grows logarithmically with time.
#[derive(Debug, Clone)]
pub struct Aging {
    /// Derating added per decade of cycles.
    per_decade: f64,
}

impl Aging {
    /// Creates an aging model adding `per_decade` derating per factor-10
    /// increase in elapsed cycles.
    ///
    /// # Panics
    ///
    /// Panics if `per_decade` is negative.
    pub fn new(per_decade: f64) -> Aging {
        assert!(per_decade >= 0.0, "per-decade slope must be non-negative");
        Aging { per_decade }
    }

    /// The stage-independent aging factor at `cycle`.
    fn level(&self, cycle: u64) -> f64 {
        1.0 + self.per_decade * (1.0 + cycle as f64).log10()
    }
}

impl DelaySource for Aging {
    fn factor(&mut self, cycle: u64, _stage: usize) -> f64 {
        self.level(cycle)
    }

    fn scale_row(&mut self, cycle: u64, row: &mut [f64]) {
        scale_all(row, self.level(cycle));
    }

    fn name(&self) -> &str {
        "aging"
    }
}

/// Fast local noise: iid Gaussian derating per (cycle, stage), clipped
/// at ±4 sigma. Models crosstalk, local IR noise and PLL jitter.
#[derive(Debug, Clone)]
pub struct LocalJitter {
    sigma: f64,
    seed: u64,
    /// Counter-mode key of the cached Box–Muller pair
    /// (`u64::MAX` = none).
    cached_key: u64,
    /// One Box–Muller transform yields two independent normals; stages
    /// `2k` and `2k+1` of a cycle share a transform, so consecutive
    /// per-stage queries pay the `ln`/`sqrt`/`sin_cos` only once per
    /// pair. The two draws of a pair are exactly independent, so the
    /// per-coordinate statistics are unchanged.
    cached_pair: (f64, f64),
    /// Cycle of the last `bound_row`, which `settle` reads.
    bound_cycle: u64,
}

impl LocalJitter {
    /// Creates a jitter source with the given sigma (e.g. 0.01 = 1%).
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative.
    pub fn new(sigma: f64, seed: u64) -> LocalJitter {
        assert!(sigma >= 0.0, "sigma must be non-negative");
        LocalJitter {
            sigma,
            seed,
            cached_key: u64::MAX,
            cached_pair: (0.0, 0.0),
            bound_cycle: 0,
        }
    }

    /// One SplitMix64 step (counter-mode uniform source).
    #[inline]
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Counter-mode key of stage pair 0 at `cycle`; pair `p`'s key is
    /// this plus `p` steps of [`LocalJitter::PAIR_STEP`] (wrapping).
    #[inline]
    fn cycle_key(&self, cycle: u64) -> u64 {
        self.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(cycle.wrapping_mul(0xBF58_476D_1CE4_E5B9))
    }

    /// Key increment from one stage pair to the next.
    const PAIR_STEP: u64 = 0x94D0_49BB_1331_11EB;

    /// The Box–Muller pair for a (cycle, stage-pair) key.
    #[inline]
    fn draw_pair(key: u64) -> (f64, f64) {
        let mut state = key;
        // Uniforms in (0, 1]: offset by one ulp step so ln never sees 0.
        const SCALE: f64 = 1.0 / (1u64 << 53) as f64;
        let u1 = (Self::splitmix(&mut state) >> 11) as f64 * SCALE + SCALE;
        let u2 = (Self::splitmix(&mut state) >> 11) as f64 * SCALE;
        let r = (-2.0 * u1.ln()).sqrt();
        let (sin, cos) = (std::f64::consts::TAU * u2).sin_cos();
        (r * cos, r * sin)
    }

    /// The derating factor of one standard-normal draw.
    #[inline]
    fn derate(&self, z: f64) -> f64 {
        (1.0 + self.sigma * z.clamp(-4.0, 4.0)).max(0.5)
    }
}

impl DelaySource for LocalJitter {
    fn factor(&mut self, cycle: u64, stage: usize) -> f64 {
        // Counter-mode: hash (cycle, stage pair) so the factor is a
        // pure function of the coordinate regardless of query order.
        let pair = (stage / 2) as u64;
        let key = self
            .cycle_key(cycle)
            .wrapping_add(pair.wrapping_mul(Self::PAIR_STEP));
        if key != self.cached_key {
            self.cached_key = key;
            self.cached_pair = Self::draw_pair(key);
        }
        let (z0, z1) = self.cached_pair;
        self.derate(if stage.is_multiple_of(2) { z0 } else { z1 })
    }

    fn scale_row(&mut self, cycle: u64, row: &mut [f64]) {
        // One transform per stage pair, both draws applied in place.
        let mut key = self.cycle_key(cycle);
        for pair in row.chunks_mut(2) {
            let (z0, z1) = Self::draw_pair(key);
            pair[0] *= self.derate(z0);
            if let Some(odd) = pair.get_mut(1) {
                *odd *= self.derate(z1);
            }
            key = key.wrapping_add(Self::PAIR_STEP);
        }
    }

    fn bound_row(&mut self, cycle: u64, row: &mut [f64]) -> bool {
        scale_all(row, self.derate(4.0));
        self.bound_cycle = cycle;
        true
    }

    fn settle(&mut self, stage: usize) -> f64 {
        self.factor(self.bound_cycle, stage)
    }

    /// `derate(4.0)`: the clamp, the multiply by `sigma ≥ 0`, the add
    /// and the `max` are each monotone, so no draw derates further.
    fn deferred_max(&self) -> Option<f64> {
        Some(self.derate(4.0))
    }

    fn name(&self) -> &str {
        "local-jitter"
    }
}

/// Product of several [`DelaySource`]s.
///
/// Sources with a [`DelaySource::deferred_max`] are *deferred*: its
/// [`DelaySource::bound_row`] multiplies in their maximum instead of
/// evaluating them, and [`DelaySource::settle`] evaluates them for one
/// stage on demand. Rounded multiplication by a positive factor is
/// monotone, so with positive factors (every source here) the bounded
/// product covers the exact one (DESIGN.md §12.6).
pub struct CompositeVariability {
    sources: Vec<Box<dyn DelaySource + Send>>,
    /// Each source's `deferred_max`, read once at construction.
    deferred: Vec<Option<f64>>,
    /// Index of the first deferred source (`sources.len()` if none).
    first_deferred: usize,
    /// The row product of the sources, reused across cycles. After a
    /// bounded row it holds the exact product of the sources before
    /// the first deferred one.
    product_row: Vec<f64>,
    /// After a bounded row: one row per source from the first deferred
    /// one on (source-major), holding that source's factors (unused
    /// for a deferred source).
    tail_rows: Vec<f64>,
    /// The bounded product row, built before it scales the caller's.
    bound_row: Vec<f64>,
    /// Cycle of the last bounded row, which `settle` evaluates.
    bound_cycle: u64,
}

impl CompositeVariability {
    /// Creates a composite from boxed sources.
    pub fn new(sources: Vec<Box<dyn DelaySource + Send>>) -> CompositeVariability {
        let deferred: Vec<Option<f64>> = sources.iter().map(|s| s.deferred_max()).collect();
        let first_deferred = deferred
            .iter()
            .position(Option::is_some)
            .unwrap_or(sources.len());
        CompositeVariability {
            sources,
            deferred,
            first_deferred,
            product_row: Vec::new(),
            tail_rows: Vec::new(),
            bound_row: Vec::new(),
            bound_cycle: 0,
        }
    }

    /// A composite with no sources (always factor 1.0).
    pub fn nominal() -> CompositeVariability {
        CompositeVariability::new(Vec::new())
    }

    /// Names of the composed sources.
    pub fn source_names(&self) -> Vec<&str> {
        self.sources.iter().map(|s| s.name()).collect()
    }
}

impl std::fmt::Debug for CompositeVariability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompositeVariability")
            .field("sources", &self.source_names())
            .finish()
    }
}

impl DelaySource for CompositeVariability {
    fn factor(&mut self, cycle: u64, stage: usize) -> f64 {
        self.sources
            .iter_mut()
            .map(|s| s.factor(cycle, stage))
            .product()
    }

    fn scale_row(&mut self, cycle: u64, row: &mut [f64]) {
        // `product` is `fold(1.0, |a, b| a * b)`: a row of 1.0s scaled
        // by each source in order repeats those multiplications exactly,
        // and one final multiply applies the product to the caller's row.
        self.product_row.clear();
        self.product_row.resize(row.len(), 1.0);
        for source in &mut self.sources {
            source.scale_row(cycle, &mut self.product_row);
        }
        for (slot, f) in row.iter_mut().zip(&self.product_row) {
            *slot *= f;
        }
    }

    fn bound_row(&mut self, cycle: u64, row: &mut [f64]) -> bool {
        let first = self.first_deferred;
        if first == self.sources.len() {
            self.scale_row(cycle, row);
            return false;
        }
        // Every non-deferred source runs exactly once per cycle, as in
        // `scale_row`, so stream-stateful sources (droop) see the same
        // call sequence. The prefix folds into `product_row`; each
        // non-deferred source after the first deferred one keeps its
        // own row so `settle` can replay the product in source order.
        let n = row.len();
        self.product_row.clear();
        self.product_row.resize(n, 1.0);
        for source in &mut self.sources[..first] {
            source.scale_row(cycle, &mut self.product_row);
        }
        self.tail_rows.clear();
        self.tail_rows.resize(n * (self.sources.len() - first), 1.0);
        self.bound_row.clone_from(&self.product_row);
        // Products of positive factors are monotone in each factor, so
        // swapping a deferred factor for its maximum bounds the slot.
        let tail = self.sources[first..]
            .iter_mut()
            .zip(&self.deferred[first..]);
        for ((source, max), factors) in tail.zip(self.tail_rows.chunks_exact_mut(n)) {
            match *max {
                Some(max) => scale_all(&mut self.bound_row, max),
                None => {
                    source.scale_row(cycle, factors);
                    for (bound, f) in self.bound_row.iter_mut().zip(factors.iter()) {
                        *bound *= f;
                    }
                }
            }
        }
        for (slot, bound) in row.iter_mut().zip(&self.bound_row) {
            *slot *= bound;
        }
        self.bound_cycle = cycle;
        true
    }

    fn settle(&mut self, stage: usize) -> f64 {
        // `1.0 × f₁ × f₂ × …` in source order: the prefix product, then
        // each later source's factor, evaluated now if it was deferred.
        let first = self.first_deferred;
        let n = self.product_row.len();
        let mut product = self.product_row[stage];
        for (j, source) in self.sources[first..].iter_mut().enumerate() {
            product *= match self.deferred[first + j] {
                Some(_) => source.factor(self.bound_cycle, stage),
                None => self.tail_rows[j * n + stage],
            };
        }
        product
    }

    fn name(&self) -> &str {
        "composite"
    }
}

/// Builder for [`CompositeVariability`].
///
/// Every added source derives its seed from the builder seed, so one
/// seed reproduces the whole environment.
#[derive(Debug)]
pub struct VariabilityBuilder {
    seed: u64,
    next_salt: u64,
    sources: Vec<Box<dyn DelaySource + Send>>,
}

impl std::fmt::Debug for Box<dyn DelaySource + Send> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DelaySource({})", self.name())
    }
}

impl VariabilityBuilder {
    /// Starts a builder with a master seed.
    pub fn new(seed: u64) -> VariabilityBuilder {
        VariabilityBuilder {
            seed,
            next_salt: 1,
            sources: Vec::new(),
        }
    }

    fn salt(&mut self) -> u64 {
        let s = self
            .seed
            .wrapping_add(self.next_salt.wrapping_mul(0xA24B_AED4_963E_E407));
        self.next_salt += 1;
        s
    }

    /// Adds static process variation over `stages` stages.
    pub fn process(mut self, stages: usize, sigma: f64) -> VariabilityBuilder {
        let salt = self.salt();
        self.sources
            .push(Box::new(ProcessVariation::new(stages, sigma, salt)));
        self
    }

    /// Adds voltage droop (see [`VoltageDroop::new`]).
    pub fn voltage_droop(
        mut self,
        depth: f64,
        resonance_cycles: u64,
        mean_interval: f64,
    ) -> VariabilityBuilder {
        let salt = self.salt();
        self.sources.push(Box::new(VoltageDroop::new(
            depth,
            resonance_cycles,
            mean_interval,
            salt,
        )));
        self
    }

    /// Adds temperature drift.
    pub fn temperature(mut self, amplitude: f64, period_cycles: u64) -> VariabilityBuilder {
        let salt = self.salt();
        self.sources.push(Box::new(TemperatureDrift::new(
            amplitude,
            period_cycles,
            salt,
        )));
        self
    }

    /// Adds aging wearout.
    pub fn aging(mut self, per_decade: f64) -> VariabilityBuilder {
        self.sources.push(Box::new(Aging::new(per_decade)));
        self
    }

    /// Adds fast local jitter.
    pub fn local_jitter(mut self, sigma: f64) -> VariabilityBuilder {
        let salt = self.salt();
        self.sources.push(Box::new(LocalJitter::new(sigma, salt)));
        self
    }

    /// Finishes the composite.
    pub fn build(self) -> CompositeVariability {
        CompositeVariability::new(self.sources)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_variation_is_static() {
        let mut p = ProcessVariation::new(4, 0.05, 1);
        let f = p.factor(0, 2);
        assert_eq!(p.factor(100, 2), f);
        assert_eq!(p.factor(1_000_000, 2), f);
    }

    #[test]
    fn process_variation_zero_sigma_is_nominal() {
        let mut p = ProcessVariation::new(4, 0.0, 1);
        for s in 0..4 {
            assert!((p.factor(0, s) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn droop_events_decay() {
        // Events must be sparse relative to the 30-cycle observation
        // window, otherwise a fresh event can land between the peak and
        // the "later" sample and mask the recovery (with a 50-cycle
        // mean interval that happens for most seeds).
        let mut d = VoltageDroop::new(0.10, 1_000_000, 10_000.0, 3);
        // Find a cycle right at an event.
        let mut peak_cycle = None;
        let mut prev = 1.0;
        for c in 0..100_000u64 {
            let f = d.factor(c, 0);
            if f > prev && f > 1.05 {
                peak_cycle = Some(c);
                break;
            }
            prev = f;
        }
        let c = peak_cycle.expect("a droop event should occur in 100k cycles");
        let mut d2 = VoltageDroop::new(0.10, 1_000_000, 10_000.0, 3);
        let at_peak = d2.factor(c, 0);
        let later = d2.factor(c + 30, 0);
        assert!(at_peak > later, "droop must recover: {at_peak} -> {later}");
    }

    #[test]
    fn droop_factor_never_speeds_up() {
        let mut d = VoltageDroop::new(0.08, 500, 200.0, 9);
        for c in 0..5_000u64 {
            assert!(d.factor(c, 0) >= 1.0 - 1e-12);
        }
    }

    #[test]
    fn droop_memo_matches_direct_evaluation() {
        // Short and long ripple periods (the latter past the memo cap),
        // dense and sparse events (the latter aging past the cap).
        for (period, interval) in [(48, 60.0), (500, 2000.0), (1_000_000, 12_000.0)] {
            let mut d = VoltageDroop::new(0.2, period, interval, 5);
            let mut oldest = 0;
            for c in 0..40_000u64 {
                let got = d.level(c);
                let ripple = (d.depth / 4.0)
                    * (std::f64::consts::TAU * (c % period) as f64 / period as f64)
                        .sin()
                        .max(0.0);
                let event = d.last_event.map_or(0.0, |start| {
                    oldest = oldest.max(c - start);
                    d.depth * (-((c - start) as f64) / d.recovery_tau).exp()
                });
                assert_eq!(got.to_bits(), (1.0 + ripple + event).to_bits(), "cycle {c}");
            }
            assert!(d.ripple_memo.len() as u64 <= DROOP_MEMO_CAP.min(period));
            assert!(d.recovery_memo.len() as u64 <= DROOP_MEMO_CAP);
            if interval > 10_000.0 {
                assert!(oldest > DROOP_MEMO_CAP, "walk never aged past the cap");
            }
        }
    }

    #[test]
    fn nested_composite_rows_scale_by_the_exact_product() {
        let build = || {
            let inner = VariabilityBuilder::new(3)
                .voltage_droop(0.1, 40, 50.0)
                .local_jitter(0.03)
                .build();
            CompositeVariability::new(vec![Box::new(Aging::new(0.01)), Box::new(inner)])
        };
        let (mut rows, mut stages) = (build(), build());
        for c in 0..500u64 {
            let init: Vec<f64> = (0..5).map(|s| 0.75 + 0.1 * s as f64).collect();
            let mut row = init.clone();
            rows.scale_row(c, &mut row);
            for (s, (&got, &base)) in row.iter().zip(&init).enumerate() {
                let want = base * stages.factor(c, s);
                assert_eq!(got.to_bits(), want.to_bits(), "cycle {c} stage {s}");
            }
        }
    }

    #[test]
    fn bounded_rows_settle_to_the_exact_row() {
        // Jitter first, between and last; a second jitter source; a
        // composite with no deferred source; and jitter alone.
        let builds: [fn() -> Box<dyn DelaySource>; 6] = [
            || {
                Box::new(
                    VariabilityBuilder::new(3)
                        .local_jitter(0.05)
                        .process(5, 0.03)
                        .build(),
                )
            },
            || {
                Box::new(
                    VariabilityBuilder::new(4)
                        .voltage_droop(0.2, 48, 60.0)
                        .local_jitter(0.01)
                        .aging(0.02)
                        .build(),
                )
            },
            || {
                Box::new(
                    VariabilityBuilder::new(5)
                        .local_jitter(0.02)
                        .voltage_droop(0.1, 40, 50.0)
                        .local_jitter(0.03)
                        .process(5, 0.05)
                        .build(),
                )
            },
            || {
                Box::new(
                    VariabilityBuilder::new(6)
                        .aging(0.06)
                        .voltage_droop(0.08, 500, 400.0)
                        .build(),
                )
            },
            || Box::new(LocalJitter::new(0.04, 8)),
            || {
                Box::new(
                    VariabilityBuilder::new(7)
                        .voltage_droop(0.05, 500, 2000.0)
                        .local_jitter(0.005)
                        .build(),
                )
            },
        ];
        for (i, build) in builds.iter().enumerate() {
            let (mut exact, mut lazy) = (build(), build());
            for c in 0..800u64 {
                let mut want = [1.0f64; 5];
                exact.scale_row(c, &mut want);
                let mut bound = [1.0f64; 5];
                let bounded = lazy.bound_row(c, &mut bound);
                // Settle a cycle-dependent subset, in either order.
                let mut stages: Vec<usize> = (0..5).filter(|s| (c >> s) & 1 == 1).collect();
                if c % 3 == 0 {
                    stages.reverse();
                }
                for s in stages {
                    let got = if bounded { lazy.settle(s) } else { bound[s] };
                    assert_eq!(got.to_bits(), want[s].to_bits(), "build {i} cycle {c} {s}");
                }
                for (b, w) in bound.iter().zip(&want) {
                    assert!(b >= w, "build {i} cycle {c}: bound {b} < exact {w}");
                }
            }
        }
    }

    #[test]
    fn jitter_bound_is_the_clip_and_only_jitter_defers() {
        let j = LocalJitter::new(0.05, 1);
        assert_eq!(j.deferred_max(), Some(1.2));
        assert_eq!(Aging::new(0.01).deferred_max(), None);
        assert_eq!(CompositeVariability::nominal().deferred_max(), None);
        // The clip holds the bound for any draw, however extreme.
        for z in [-1e9, -4.0, 0.0, 3.99, 4.0, 4.01, 1e9] {
            assert!(j.derate(z) <= 1.2, "z = {z}");
        }
    }

    #[test]
    fn temperature_is_bounded_and_slow() {
        let mut t = TemperatureDrift::new(0.03, 1_000_000, 5);
        let mut min = f64::MAX;
        let mut max = f64::MIN;
        for c in (0..10_000_000u64).step_by(100_000) {
            let f = t.factor(c, 0);
            min = min.min(f);
            max = max.max(f);
        }
        assert!(min >= 1.0 - 1e-12);
        assert!(max <= 1.03 + 1e-12);
        // Adjacent cycles barely differ (slow drift).
        let a = t.factor(1_000, 0);
        let b = t.factor(1_001, 0);
        assert!((a - b).abs() < 1e-4);
    }

    #[test]
    fn aging_is_monotone() {
        let mut a = Aging::new(0.01);
        let early = a.factor(10, 0);
        let late = a.factor(1_000_000, 0);
        assert!(late > early);
        assert!((a.factor(0, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn local_jitter_is_deterministic_per_coordinate() {
        let mut j = LocalJitter::new(0.02, 11);
        let f1 = j.factor(123, 4);
        let f2 = j.factor(123, 4);
        assert_eq!(f1, f2);
        // Different coordinates give different factors (overwhelmingly).
        assert_ne!(j.factor(123, 4), j.factor(124, 4));
    }

    #[test]
    fn composite_multiplies_sources() {
        struct Fixed(f64);
        impl DelaySource for Fixed {
            fn factor(&mut self, _c: u64, _s: usize) -> f64 {
                self.0
            }
            fn name(&self) -> &str {
                "fixed"
            }
        }
        let mut c = CompositeVariability::new(vec![Box::new(Fixed(1.1)), Box::new(Fixed(1.2))]);
        assert!((c.factor(0, 0) - 1.32).abs() < 1e-12);
        assert_eq!(c.source_names(), vec!["fixed", "fixed"]);
    }

    #[test]
    fn nominal_composite_is_identity() {
        let mut c = CompositeVariability::nominal();
        assert_eq!(c.factor(42, 7), 1.0);
    }

    #[test]
    fn builder_produces_reproducible_environment() {
        let make = || {
            VariabilityBuilder::new(99)
                .process(4, 0.03)
                .voltage_droop(0.08, 500, 300.0)
                .local_jitter(0.01)
                .build()
        };
        let mut a = make();
        let mut b = make();
        for c in 0..200u64 {
            for s in 0..4 {
                assert_eq!(a.factor(c, s), b.factor(c, s));
            }
        }
    }
}
