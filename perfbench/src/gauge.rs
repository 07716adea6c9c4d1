//! The host gauge: a fixed computation, owned by the benchmark, that a
//! workload times in the pauses between slices of its window.
//!
//! On a shared host the speed of a core drifts by a third within
//! minutes as other tenants of the machine come and go, and every
//! wall-clock figure of a run drifts with it. The gauge samples that
//! speed next to the workload: its inputs never change, so its time
//! changes only with the host. The timed metrics are reported at the
//! host speed at which one gauge pass takes [`GAUGE_REF_S`], which
//! takes most of the drift out of them while leaving every change to
//! the program in. The gauge calls nothing of the program.
//!
//! One pass is a pointer chase through a 1 MiB random cycle (the
//! engines' scattered reads), bottom-up sums over a random tree and a
//! sort of 2^16 keys (their streaming passes and ALU work).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// A gauge pass's time, in seconds, at the reference host speed: about
/// a pass on a quiet core of the shared 2-vCPU Intel Xeon host the
/// bounds in `BENCHMARK.json` were set on.
pub const GAUGE_REF_S: f64 = 0.025;

/// Entries of the pointer-chase cycle (4 bytes each).
const CYCLE: usize = 1 << 18;
/// Steps of the chase per pass.
const CHASE_STEPS: usize = 1 << 20;
/// Vertices of the summed tree and keys of the sort.
const TREE_N: usize = 1 << 16;
/// Tree-sum and sort rounds per pass.
const ROUNDS: usize = 8;

/// Fixed inputs and scratch for the gauge pass.
pub struct Gauge {
    next: Vec<u32>,
    parents: Vec<u32>,
    keys: Vec<u64>,
    sums: Vec<u64>,
    sorted: Vec<u64>,
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

impl Gauge {
    /// The gauge's inputs, the same on every run whatever the seed.
    pub fn new() -> Self {
        let mut rng = StdRng::seed_from_u64(0x0067_6175_6765);
        let mut order: Vec<u32> = (0..CYCLE as u32).collect();
        for i in (1..CYCLE).rev() {
            order.swap(i, rng.gen_range(0..=i as u32) as usize);
        }
        let mut next = vec![0u32; CYCLE];
        for k in 0..CYCLE {
            next[order[k] as usize] = order[(k + 1) % CYCLE];
        }
        let parents = (0..TREE_N as u32)
            .map(|v| if v == 0 { 0 } else { rng.gen_range(0..v) })
            .collect();
        Gauge {
            next,
            parents,
            keys: (0..TREE_N).map(|_| rng.gen()).collect(),
            sums: Vec::with_capacity(TREE_N),
            sorted: Vec::with_capacity(TREE_N),
        }
    }

    /// Runs one pass and returns its wall time in seconds.
    pub fn time(&mut self) -> f64 {
        let t = Instant::now();
        black_box(self.pass());
        t.elapsed().as_secs_f64()
    }

    fn pass(&mut self) -> u64 {
        let mut at = 0u32;
        let mut acc = 0u64;
        for _ in 0..CHASE_STEPS {
            at = self.next[at as usize];
            acc = acc.wrapping_add(u64::from(at));
        }
        for _ in 0..ROUNDS {
            self.sums.clear();
            self.sums.resize(TREE_N, 1);
            for v in (1..TREE_N).rev() {
                let p = self.parents[v] as usize;
                self.sums[p] += self.sums[v];
            }
            self.sorted.clear();
            self.sorted.extend_from_slice(&self.keys);
            self.sorted.sort_unstable();
            acc = acc.wrapping_add(self.sums[0] ^ self.sorted[TREE_N / 2]);
        }
        acc
    }
}
