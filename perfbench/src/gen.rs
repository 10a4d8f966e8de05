//! Seeded input generation: the only source of the benchmark's inputs.
//!
//! Every stream is a pure function of `(seed, workload name)`: the
//! workload name is folded into the seed once ([`stream_seed`]) and all
//! later draws come from a splitmix64 counter, so two runs with the same
//! seed feed the program byte-identical request lines.

use timber_resilience::StormScenario;
use timber_schemes::SchemeId;
use timber_serve::{DesignId, DEFAULT_BATCH_SIZE};

/// The splitmix64 finaliser.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The FNV-1a offset basis: the digest of no bytes.
pub const FNV_START: u64 = 0xCBF2_9CE4_8422_2325;

/// Continues an FNV-1a digest `h` over `bytes`.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3))
}

/// The seed of one workload's stream: the user seed mixed with an
/// FNV-1a digest of the workload name.
pub fn stream_seed(seed: u64, workload: &str) -> u64 {
    mix(seed ^ mix(fnv1a(FNV_START, workload.as_bytes())))
}

/// A counter-mode splitmix64 generator.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng { state: seed }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.state)
    }

    /// A uniform draw in `(0, 1]` (never 0, so `ln` is finite).
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// A uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// A seeded Fisher–Yates permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// A Zipf(s) distribution over ranks `0..n` (rank 0 most popular),
/// sampled by inverting its cumulative table.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution with `P(rank r) ∝ 1 / (r + 1)^s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// The rank a uniform draw `u ∈ (0, 1]` maps to.
    pub fn rank(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// One exponential inter-arrival gap, in nanoseconds, at `rate` per
/// second.
pub fn poisson_gap(rng: &mut Rng, rate: f64) -> f64 {
    -rng.unit().ln() / rate * 1e9
}

/// One evaluation request as sent on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Req {
    /// The netlist.
    pub design: DesignId,
    /// The sequential scheme.
    pub scheme: SchemeId,
    /// `None` is nominal stress.
    pub storm: Option<StormScenario>,
    /// Checking period, percent of the clock.
    pub pct: f64,
    /// Time-borrowing intervals.
    pub k_tb: u8,
    /// Error-detection intervals.
    pub k_ed: u8,
    /// Monte-Carlo trials.
    pub trials: usize,
    /// Cycles per trial.
    pub cycles: u64,
    /// Spec seed.
    pub seed: u64,
}

impl Req {
    /// The JSONL request line with id `id`; every spec field explicit.
    pub fn line(&self, id: u64) -> String {
        format!(
            "{{\"id\":{id},\"design\":\"{}\",\"scheme\":\"{}\",\"storm\":\"{}\",\
             \"checking_pct\":{:?},\"k_tb\":{},\"k_ed\":{},\"trials\":{},\"cycles\":{},\"seed\":{}}}",
            self.design.name(),
            self.scheme.name(),
            self.storm.map_or("none", |s| s.name()),
            self.pct,
            self.k_tb,
            self.k_ed,
            self.trials,
            self.cycles,
            self.seed,
        )
    }
}

/// The `(k_tb, k_ed)` interval splits the sweep walks.
pub const SPLITS: [(u8, u8); 8] = [
    (0, 1),
    (0, 2),
    (1, 1),
    (1, 2),
    (1, 3),
    (2, 2),
    (2, 3),
    (3, 3),
];

/// Checking percentages the sweep walks: 10% to 50% in 2.5% steps.
pub fn sweep_pcts() -> Vec<f64> {
    (0..17).map(|i| 10.0 + 2.5 * f64::from(i)).collect()
}

/// The two schemes every sweep point is evaluated under.
pub const SWEEP_SCHEMES: [SchemeId; 2] = [SchemeId::TimberFf, SchemeId::TimberLatch];

/// `sweep-cold`: every request a distinct spec. Requests come in
/// blocks of seven design points (one per design, seeded order); each
/// point — a design at a seeded `(checking_pct, k_tb, k_ed)` — is sent
/// under both sweep schemes back to back, so the second compile of a
/// point hits the design tier. Once the grid is exhausted the spec
/// seed advances, so no spec ever repeats.
#[derive(Debug, Clone)]
pub struct SweepStream {
    seed: u64,
    /// Per design, the seeded visiting order of the schedule grid.
    orders: Vec<Vec<usize>>,
    schedules: Vec<(f64, u8, u8)>,
}

impl SweepStream {
    /// The stream for a workload seed.
    pub fn new(seed: u64) -> SweepStream {
        let mut rng = Rng::new(stream_seed(seed, "sweep-cold"));
        let schedules: Vec<(f64, u8, u8)> = sweep_pcts()
            .into_iter()
            .flat_map(|p| SPLITS.iter().map(move |&(tb, ed)| (p, tb, ed)))
            .collect();
        let orders = DesignId::EVALUABLE
            .iter()
            .map(|_| rng.permutation(schedules.len()))
            .collect();
        SweepStream {
            seed: rng.next_u64(),
            orders,
            schedules,
        }
    }

    /// Request `i` of the stream.
    pub fn req(&self, i: u64) -> Req {
        let designs = DesignId::EVALUABLE.len() as u64;
        let point = i / 2;
        let block = point / designs;
        // Seeded design order within each block.
        let slot = mix(self.seed ^ block) as usize;
        let d = ((point % designs) as usize + slot) % designs as usize;
        let grid = self.schedules.len() as u64;
        let (pct, k_tb, k_ed) = self.schedules[self.orders[d][(block % grid) as usize]];
        Req {
            design: DesignId::EVALUABLE[d],
            scheme: SWEEP_SCHEMES[(i % 2) as usize],
            storm: None,
            pct,
            k_tb,
            k_ed,
            trials: 2,
            cycles: 400,
            seed: self.seed.wrapping_add(block / grid),
        }
    }
}

/// Trials per `trials-heavy` request (the service's ceiling).
pub const HEAVY_TRIALS: usize = timber_serve::spec::MAX_TRIALS;
/// Cycles per `trials-heavy` trial.
pub const HEAVY_CYCLES: u64 = 2000;

/// `trials-heavy`: one fixed `(design, schedule)` pair per design,
/// every request a fresh spec seed at the trial ceiling. Every batch
/// carries each `(scheme, stress)` combination exactly twice, in a
/// seeded order, and designs rotate through the batch, so the work per
/// batch hardly depends on the seed.
#[derive(Debug, Clone)]
pub struct HeavyStream {
    seed: u64,
    combos: Vec<(SchemeId, Option<StormScenario>)>,
}

/// The schedule every `trials-heavy` pair runs at.
pub const HEAVY_SCHEDULE: (f64, u8, u8) = (30.0, 1, 2);

impl HeavyStream {
    /// The stream for a workload seed.
    pub fn new(seed: u64) -> HeavyStream {
        let mut rng = Rng::new(stream_seed(seed, "trials-heavy"));
        let stresses = [
            None,
            Some(StormScenario::ALL[0]),
            Some(StormScenario::ALL[1]),
            Some(StormScenario::ALL[2]),
        ];
        let combos = SchemeId::ALL
            .iter()
            .flat_map(|&s| stresses.iter().map(move |&t| (s, t)))
            .collect();
        HeavyStream {
            seed: rng.next_u64(),
            combos,
        }
    }

    /// The warm-up line compiling design `d`'s pair (one cheap trial).
    pub fn warm_req(d: usize) -> Req {
        let (pct, k_tb, k_ed) = HEAVY_SCHEDULE;
        Req {
            design: DesignId::EVALUABLE[d],
            scheme: SchemeId::TimberFf,
            storm: None,
            pct,
            k_tb,
            k_ed,
            trials: 1,
            cycles: 1,
            seed: 0,
        }
    }

    /// Request `i` of the stream.
    pub fn req(&self, i: u64) -> Req {
        let batch = DEFAULT_BATCH_SIZE as u64;
        let (b, k) = (i / batch, (i % batch) as usize);
        let order = Rng::new(mix(self.seed ^ b)).permutation(DEFAULT_BATCH_SIZE);
        let (scheme, storm) = self.combos[order[k] % self.combos.len()];
        let designs = DesignId::EVALUABLE.len();
        Req {
            scheme,
            storm,
            trials: HEAVY_TRIALS,
            cycles: HEAVY_CYCLES,
            seed: mix(self.seed ^ i),
            ..HeavyStream::warm_req((k + b as usize) % designs)
        }
    }
}

/// Distinct specs in the `zipf-open` pool: 1.125× the result-cache
/// capacity, so the popular head stays cached, the tail evicts, and
/// about 2% of requests miss.
pub const ZIPF_POOL: usize = 1152;
/// Zipf exponent of spec popularity.
pub const ZIPF_S: f64 = 1.0;
/// Pool ranks the pre-written resume journal holds: all of them, least
/// popular first, so the resume keeps the popular head.
pub const ZIPF_JOURNAL: usize = ZIPF_POOL;

/// `zipf-open`: requests draw specs from a fixed pool by Zipf
/// popularity. Pool entry `j` fixes design, scheme and schedule by
/// coprime rotations (7 designs × 8 schemes × 4 schedules, 28 design
/// tier entries) and a distinct spec seed; which entry holds which
/// popularity rank is seeded.
#[derive(Debug, Clone)]
pub struct ZipfPool {
    seed: u64,
    /// `by_rank[r]` is the pool entry of popularity rank `r`.
    by_rank: Vec<usize>,
    zipf: Zipf,
}

impl ZipfPool {
    /// The pool for a workload seed.
    pub fn new(seed: u64) -> ZipfPool {
        let mut rng = Rng::new(stream_seed(seed, "zipf-open"));
        ZipfPool {
            by_rank: rng.permutation(ZIPF_POOL),
            seed: rng.next_u64(),
            zipf: Zipf::new(ZIPF_POOL, ZIPF_S),
        }
    }

    /// The spec of popularity rank `r`.
    pub fn ranked(&self, r: usize) -> Req {
        let j = self.by_rank[r];
        let (pct, k_tb, k_ed) = [(24.0, 1, 2), (30.0, 1, 2), (30.0, 0, 2), (40.0, 2, 2)][j % 4];
        Req {
            design: DesignId::EVALUABLE[j % 7],
            scheme: SchemeId::ALL[j % 8],
            storm: None,
            pct,
            k_tb,
            k_ed,
            trials: 2,
            cycles: 400,
            seed: self.seed.wrapping_add(j as u64),
        }
    }

    /// A popularity-weighted draw.
    pub fn draw(&self, rng: &mut Rng) -> Req {
        self.ranked(self.zipf.rank(rng.unit()))
    }
}

/// The open-loop schedule: an endless stream of `(due ns, spec)`
/// pairs, Poisson arrivals drawing Zipf-popular specs.
#[derive(Debug, Clone)]
pub struct ZipfArrivals<'p> {
    pool: &'p ZipfPool,
    rng: Rng,
    rate: f64,
    t: f64,
}

impl<'p> ZipfArrivals<'p> {
    /// The schedule for a workload seed at `rate` requests per second.
    pub fn new(seed: u64, pool: &'p ZipfPool, rate: f64) -> ZipfArrivals<'p> {
        ZipfArrivals {
            pool,
            rng: Rng::new(stream_seed(seed, "zipf-open/arrivals")),
            rate,
            t: 0.0,
        }
    }
}

impl Iterator for ZipfArrivals<'_> {
    type Item = (u64, Req);

    fn next(&mut self) -> Option<(u64, Req)> {
        self.t += poisson_gap(&mut self.rng, self.rate);
        Some((self.t as u64, self.pool.draw(&mut self.rng)))
    }
}

/// Seeds in the `tune-frontier` list (its calls cycle through them).
pub const TUNE_SEEDS: usize = 8;

/// `tune-frontier`: the list of tune seeds for a workload seed.
pub fn tune_seeds(seed: u64) -> Vec<u64> {
    let mut rng = Rng::new(stream_seed(seed, "tune-frontier"));
    (0..TUNE_SEEDS)
        .map(|_| rng.next_u64() % 1_000_000)
        .collect()
}

/// Request lines `from..from + DEFAULT_BATCH_SIZE` of a closed stream.
pub fn batch_lines(req: impl Fn(u64) -> Req, from: u64) -> Vec<String> {
    (from..from + DEFAULT_BATCH_SIZE as u64)
        .map(|i| req(i).line(i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_per_seed_and_differ_across_seeds() {
        let (a, b, c) = (
            SweepStream::new(1),
            SweepStream::new(1),
            SweepStream::new(2),
        );
        let lines = |s: &SweepStream| batch_lines(|i| s.req(i), 0);
        assert_eq!(lines(&a), lines(&b));
        assert_ne!(lines(&a), lines(&c));
        let (h1, h2) = (HeavyStream::new(5), HeavyStream::new(6));
        assert_eq!(h1.req(3), HeavyStream::new(5).req(3));
        assert_ne!(h1.req(3), h2.req(3));
        let (p1, p1b, p2) = (ZipfPool::new(9), ZipfPool::new(9), ZipfPool::new(10));
        let t1: Vec<(u64, Req)> = ZipfArrivals::new(9, &p1, 1000.0).take(500).collect();
        assert_eq!(
            t1,
            ZipfArrivals::new(9, &p1b, 1000.0)
                .take(500)
                .collect::<Vec<_>>()
        );
        assert_ne!(
            t1,
            ZipfArrivals::new(10, &p2, 1000.0)
                .take(500)
                .collect::<Vec<_>>()
        );
        assert_eq!(tune_seeds(3), tune_seeds(3));
        assert_ne!(tune_seeds(3), tune_seeds(4));
    }

    #[test]
    fn streams_depend_on_the_workload_name() {
        assert_ne!(stream_seed(1, "sweep-cold"), stream_seed(1, "trials-heavy"));
    }

    #[test]
    fn sweep_requests_are_distinct_and_pair_up_on_one_design_point() {
        let s = SweepStream::new(42);
        let n = 2 * 7 * 136 * 2 + 10;
        let lines: std::collections::BTreeSet<String> = (0..n).map(|i| s.req(i).line(0)).collect();
        assert_eq!(lines.len(), n as usize, "every sweep spec is distinct");
        for point in 0..200 {
            let (a, b) = (s.req(2 * point), s.req(2 * point + 1));
            assert_eq!(
                (a.design, a.pct, a.k_tb, a.k_ed),
                (b.design, b.pct, b.k_tb, b.k_ed)
            );
            assert_ne!(a.scheme, b.scheme);
        }
        // Each block of seven points covers every design once.
        for block in 0..20 {
            let mut ds: Vec<&str> = (0..7)
                .map(|k| s.req(2 * (7 * block + k)).design.name())
                .collect();
            ds.sort_unstable();
            ds.dedup();
            assert_eq!(ds.len(), 7);
        }
    }

    #[test]
    fn heavy_batches_carry_every_combination_twice() {
        let h = HeavyStream::new(3);
        for b in 0..3u64 {
            let mut seen: Vec<String> = (b * 64..b * 64 + 64)
                .map(|i| {
                    let r = h.req(i);
                    format!("{}/{:?}", r.scheme.name(), r.storm.map(|s| s.name()))
                })
                .collect();
            seen.sort();
            seen.dedup();
            assert_eq!(seen.len(), 32);
        }
    }

    #[test]
    fn zipf_ranks_follow_the_power_law() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = Rng::new(7);
        let mut counts = vec![0u32; 1000];
        let draws = 200_000;
        for _ in 0..draws {
            counts[z.rank(rng.unit())] += 1;
        }
        // P(rank 0) = 1 / H(1000) ≈ 0.1336; P(rank 1) half of it.
        let p0 = f64::from(counts[0]) / draws as f64;
        assert!((p0 - 0.1336).abs() < 0.005, "p0 = {p0}");
        let ratio = f64::from(counts[0]) / f64::from(counts[1]);
        assert!((ratio - 2.0).abs() < 0.1, "ratio = {ratio}");
        assert!(counts[0] > counts[9] && counts[9] > counts[99]);
        assert_eq!(z.rank(1.0), 999);
        assert_eq!(z.rank(f64::MIN_POSITIVE), 0);
    }

    #[test]
    fn poisson_gaps_have_the_rate_and_exponential_spread() {
        let pool = ZipfPool::new(11);
        let rate = 5000.0;
        let t: Vec<u64> = ZipfArrivals::new(11, &pool, rate)
            .map(|(t, _)| t)
            .take_while(|&t| t < 20_000_000_000)
            .collect();
        let n = t.len() as f64;
        assert!((n / 20.0 - rate).abs() < rate * 0.02, "{} arrivals", n);
        let gaps: Vec<f64> = t.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        // Exponential: coefficient of variation 1.
        let cv = var.sqrt() / mean;
        assert!((cv - 1.0).abs() < 0.03, "cv = {cv}");
        assert!(t.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn zipf_pool_fits_the_design_tier() {
        let p = ZipfPool::new(1);
        let designs: std::collections::BTreeSet<String> = (0..ZIPF_POOL)
            .map(|r| {
                let q = p.ranked(r);
                format!("{}{}{}{}", q.design.name(), q.pct, q.k_tb, q.k_ed)
            })
            .collect();
        assert!(designs.len() <= timber_serve::engine::DEFAULT_DESIGN_CAPACITY);
        let specs: std::collections::BTreeSet<String> =
            (0..ZIPF_POOL).map(|r| p.ranked(r).line(0)).collect();
        assert_eq!(specs.len(), ZIPF_POOL);
    }
}
