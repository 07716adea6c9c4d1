//! Seeded inputs: tenant trees and request streams. The stack receives
//! only what these functions generate, and the same seed always
//! generates the same inputs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spatial_session::Request;
use spatial_tree::{generators, Tree};

/// Mixes a sub-stream tag into the workload seed, so trees, requests
/// and session randomness draw from independent streams.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// `tenants` uniformly random trees of `n` vertices each.
pub fn trees(tenants: usize, n: u32, seed: u64) -> Vec<Tree> {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 1));
    (0..tenants)
        .map(|_| generators::uniform_random(n, &mut rng))
        .collect()
}

/// One read query over vertices `0..n`: 40% LCA, 30% subtree sum, 30%
/// rank.
pub fn query<R: Rng>(n: u32, rng: &mut R) -> Request {
    let v = rng.gen_range(0..n);
    match rng.gen_range(0..10u32) {
        0..=3 => Request::Lca(v, rng.gen_range(0..n)),
        4..=6 => Request::SubtreeSum(v),
        _ => Request::Rank(v),
    }
}

/// Generates jobs for a fleet of tenants, tracking each tenant's
/// vertex count so every query names an existing vertex (including
/// leaves inserted earlier in the same job).
#[derive(Debug, Clone)]
pub struct JobGen {
    rng: StdRng,
    sizes: Vec<u32>,
    job_len: usize,
    inserts: usize,
}

impl JobGen {
    /// A generator for `tenants` trees of `n` vertices: jobs of
    /// `job_len` requests, `inserts` of them leaf inserts.
    pub fn new(seed: u64, tenants: usize, n: u32, job_len: usize, inserts: usize) -> Self {
        assert!(inserts <= job_len, "more inserts than requests");
        JobGen {
            rng: StdRng::seed_from_u64(sub_seed(seed, 2)),
            sizes: vec![n; tenants],
            job_len,
            inserts,
        }
    }

    /// A job for `tenant` whose inserts are spread evenly: one at a
    /// random position in each of `inserts` equal stretches.
    pub fn job(&mut self, tenant: u32) -> Vec<Request> {
        self.job_with(tenant, self.inserts)
    }

    /// A read-only job for `tenant`.
    pub fn read_job(&mut self, tenant: u32) -> Vec<Request> {
        self.job_with(tenant, 0)
    }

    /// A job for a uniformly drawn tenant.
    pub fn next_job(&mut self) -> (u32, Vec<Request>) {
        let tenant = self.rng.gen_range(0..self.sizes.len() as u32);
        (tenant, self.job(tenant))
    }

    fn job_with(&mut self, tenant: u32, inserts: usize) -> Vec<Request> {
        let stretch = self.job_len / inserts.max(1);
        let at: Vec<usize> = (0..inserts)
            .map(|k| k * stretch + self.rng.gen_range(0..stretch))
            .collect();
        let n = &mut self.sizes[tenant as usize];
        (0..self.job_len)
            .map(|i| {
                if at.contains(&i) {
                    let req = Request::InsertLeaf {
                        parent: self.rng.gen_range(0..*n),
                        weight: self.rng.gen_range(1..=4),
                    };
                    *n += 1;
                    req
                } else {
                    query(*n, &mut self.rng)
                }
            })
            .collect()
    }
}
