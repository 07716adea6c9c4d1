//! PRAM simulation baseline on the spatial computer (§II-A).
//!
//! The paper compares its spatial algorithms against simulating
//! work-optimal PRAM algorithms: an algorithm with `p` processors, `m`
//! memory cells and `T_p` steps simulates in `O(p(√p + √m)·T_p)` energy
//! with poly-logarithmic depth overhead. The crucial point is that PRAM
//! algorithms address *shared memory*, which has no spatial locality:
//! every access travels an expected `Θ(√n)` grid distance. A
//! work-optimal `O(n)`-work algorithm therefore burns `Θ(n^{3/2})`
//! energy where the paper's layout-aware algorithms spend `O(n log n)`.
//!
//! [`PramEngine`] is the simulation machine as a flat-array engine: the
//! hashed cell placement and distance tables are built once, and every
//! run charges the machine through an [`engine::PramRun`] with batched
//! `read_batch`/`write_batch` access hooks. [`algorithms`]
//! implements the baselines used in experiment E8 — random-mate list
//! ranking, Blelloch prefix sums, Euler-tour subtree sums, and
//! sparse-table LCA (the standard `O(n log n)`-work PRAM construction;
//! the paper's `O(n)`-work Schieber–Vishkin variant would shave a log
//! factor off the energy but not change the `n^{3/2}` shape) — each as
//! a reusable, allocation-free engine. See `crates/pram/DESIGN.md` for
//! the cost model and the engine architecture, and `BENCH_pram.json`
//! (regenerated by `experiments -- bench-json-pram`) for the measured
//! E8 energy crossover against the spatial counterparts.
//!
//! The seed implementation is retained in [`reference`](mod@reference) and pinned by
//! the differential suite `tests/engine_vs_reference.rs`: identical
//! results, energy, depth, messages, work, and step counts across
//! seeds, sizes, and non-power-of-two `processors ≠ cells` shapes.

pub mod algorithms;
pub mod engine;
#[doc(hidden)]
pub mod reference;

pub use algorithms::{
    pram_lca_batch, pram_list_rank, pram_prefix_sum, pram_subtree_sums, PramLcaBatch,
    PramListRanker, PramPrefixSummer, PramTreefix,
};
pub use engine::{PramEngine, PramRun};
