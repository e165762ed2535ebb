//! Seeded input generation. Every workload's inputs are a pure function
//! of `--seed`: the same seed gives byte-identical inputs (see
//! [`Inputs::to_bytes`]), and the program under test receives only what
//! is generated here.

/// SplitMix64: tiny, seedable, and stable across platforms.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: &str) -> Rng {
        let salt = stream.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        Rng(seed ^ salt)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in [lo, hi).
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

/// One synthetic kernel: its identity, device behaviour and invocation
/// size. `class` is the characterization category (0..8, the
/// `WorkloadClass::index` bit layout) its parameters are drawn for.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSpec {
    pub id: u64,
    pub class: u8,
    pub cpu_rate: f64,
    pub gpu_rate: f64,
    pub items: u64,
}

impl KernelSpec {
    pub fn memory_bound(&self) -> bool {
        self.class & 0b100 != 0
    }
}

/// Items per synthetic invocation.
pub const ITEMS: u64 = 200_000;

/// Draws a kernel whose first profiling observation should classify as
/// `class`: a device is "short" when the invocation's items finish well
/// under the classifier's 100 ms threshold on it, "long" when well over.
pub fn kernel_for_class(rng: &mut Rng, id: u64, class: u8) -> KernelSpec {
    let rate = |rng: &mut Rng, short: bool| {
        let seconds = if short {
            rng.range(0.004, 0.02)
        } else {
            rng.range(0.5, 2.5)
        };
        ITEMS as f64 / seconds
    };
    KernelSpec {
        id,
        class,
        cpu_rate: rate(rng, class & 0b010 != 0),
        gpu_rate: rate(rng, class & 0b001 != 0),
        items: ITEMS,
    }
}

/// The reuse-hot mix: one pool kernel per row of `results/telemetry.md`
/// (the desktop suite under EnergyDelay with decision telemetry), drawn
/// with that row's measured invocation count as its weight. Five kernels
/// ran once; SP, BFS and CC carry three quarters of the calls.
pub const REUSE_MIX: [(&str, u32); 12] = [
    ("FD", 69),
    ("CC", 825),
    ("BH", 1),
    ("BS", 500),
    ("MM", 1),
    ("MB", 1),
    ("NB", 101),
    ("SL", 1),
    ("SM", 100),
    ("SP", 996),
    ("RT", 1),
    ("BFS", 832),
];
/// Kernels in the reuse-hot pool.
pub const REUSE_POOL: usize = REUSE_MIX.len();
/// Per-stream draw sequence length (cycled by the closed loop).
pub const REUSE_DRAWS: usize = 1 << 16;
/// Distinct storm roots, and distinct fleet roots. A run records every
/// root the same number of times, and with this many the peak resident
/// set and the tail percentile do not hinge on one or two roots.
pub const ROOTS: usize = 40;
/// First-seen invocations per profile-cold pass.
pub const COLD_PASS: usize = 2048;

/// Everything one run's workloads consume.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    pub seed: u64,
    /// reuse-hot: the warm kernel pool, one kernel per [`REUSE_MIX`] row
    /// (every class represented), the same for every seed.
    pub reuse_pool: Vec<KernelSpec>,
    /// reuse-hot: per-stream indices into `reuse_pool`, drawn by the
    /// [`REUSE_MIX`] weights.
    pub reuse_draws: [Vec<u32>; 2],
    /// profile-cold: one pass of distinct, never-learned kernels, every
    /// class represented.
    pub cold_pass: Vec<KernelSpec>,
    /// storm: root seeds of the storms, cycled in whole rounds.
    pub storm_roots: Vec<u64>,
    /// fleet: root seeds of the fleet runs, cycled in whole rounds.
    pub fleet_roots: Vec<u64>,
}

impl Inputs {
    pub fn generate(seed: u64) -> Inputs {
        // The pool is the same for every seed, as the suite it mirrors
        // is; the seed varies the traffic.
        let mut rng = Rng::new(0, "reuse-pool");
        let reuse_pool: Vec<KernelSpec> = (0..REUSE_POOL as u64)
            .map(|i| kernel_for_class(&mut rng, 0x5e00_0000 + i, (i % 8) as u8))
            .collect();
        let total: u32 = REUSE_MIX.iter().map(|&(_, n)| n).sum();
        let draw = |rng: &mut Rng| -> u32 {
            let mut x = (rng.next_u64() % u64::from(total)) as u32;
            for (i, &(_, n)) in REUSE_MIX.iter().enumerate() {
                if x < n {
                    return i as u32;
                }
                x -= n;
            }
            unreachable!("a draw below the total weight lands on a kernel")
        };
        let mut streams = [
            Rng::new(seed, "reuse-draw-0"),
            Rng::new(seed, "reuse-draw-1"),
        ];
        let reuse_draws = [0, 1].map(|s| (0..REUSE_DRAWS).map(|_| draw(&mut streams[s])).collect());

        let mut rng = Rng::new(seed, "cold-pass");
        let cold_pass = (0..COLD_PASS as u64)
            .map(|i| {
                // Every class in every block of eight; the seed varies rates.
                kernel_for_class(&mut rng, 0xc0_0000_0000 + i, (i % 8) as u8)
            })
            .collect();

        let mut rng = Rng::new(seed, "roots");
        let storm_roots = (0..ROOTS).map(|_| rng.next_u64() % 1_000_000).collect();
        let fleet_roots = (0..ROOTS).map(|_| rng.next_u64() % 1_000_000).collect();
        Inputs {
            seed,
            reuse_pool,
            reuse_draws,
            cold_pass,
            storm_roots,
            fleet_roots,
        }
    }

    /// Canonical byte encoding of the generated inputs.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut put = |v: u64| out.extend_from_slice(&v.to_le_bytes());
        put(self.seed);
        for k in self.reuse_pool.iter().chain(&self.cold_pass) {
            put(k.id);
            put(u64::from(k.class));
            put(k.cpu_rate.to_bits());
            put(k.gpu_rate.to_bits());
            put(k.items);
        }
        for stream in &self.reuse_draws {
            stream.iter().for_each(|&d| put(u64::from(d)));
        }
        self.storm_roots.iter().for_each(|&r| put(r));
        self.fleet_roots.iter().for_each(|&r| put(r));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_inputs() {
        assert_eq!(
            Inputs::generate(7).to_bytes(),
            Inputs::generate(7).to_bytes()
        );
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        let (a, b) = (Inputs::generate(7), Inputs::generate(8));
        assert_ne!(a.to_bytes(), b.to_bytes());
        assert_ne!(a.reuse_draws, b.reuse_draws);
        assert_ne!(a.cold_pass, b.cold_pass);
        assert_ne!(a.storm_roots, b.storm_roots);
    }

    #[test]
    fn cold_pass_covers_every_class_with_distinct_kernels() {
        let inputs = Inputs::generate(3);
        let mut seen = [0usize; 8];
        inputs
            .cold_pass
            .iter()
            .for_each(|k| seen[k.class as usize] += 1);
        assert!(seen.iter().all(|&n| n > 0), "{seen:?}");
        let mut ids: Vec<u64> = inputs.cold_pass.iter().map(|k| k.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), COLD_PASS);
    }

    #[test]
    fn reuse_draw_follows_the_telemetry_mix() {
        let inputs = Inputs::generate(11);
        let total: u32 = REUSE_MIX.iter().map(|&(_, n)| n).sum();
        for stream in &inputs.reuse_draws {
            let mut seen = [0usize; REUSE_POOL];
            stream.iter().for_each(|&d| seen[d as usize] += 1);
            for (i, &(name, n)) in REUSE_MIX.iter().enumerate() {
                let want = f64::from(n) / f64::from(total);
                let got = seen[i] as f64 / REUSE_DRAWS as f64;
                assert!((got - want).abs() < 0.01, "{name}: {got} vs {want}");
            }
        }
    }
}
