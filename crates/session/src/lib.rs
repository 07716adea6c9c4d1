//! The session layer: one tree, one layout, a pool of retained
//! engines, and a scheduler that serves **mixed query batches** with
//! zero steady-state allocation.
//!
//! Every engine crate below this one answers a single workload
//! (batched LCA, treefix sums, list ranking, layout construction) and
//! leaves composition to the caller: build the layout, build each
//! engine, wire the machines, repeat per run. [`SpatialForest`] is
//! that composition, retained. It owns the tree and its (dynamic,
//! incrementally maintained) light-first layout, lazily builds the
//! engines it needs, and executes a mixed stream of [`Request`]s —
//! LCA pairs, subtree sums, Euler-tour ranks, dynamic leaf inserts —
//! in *charge-batched sessions*: all queries of one kind between two
//! tree mutations share a single charged engine run, so a batch of a
//! thousand LCA queries pays for one §VI-C pass, not a thousand.
//!
//! The engines follow the uniform `reset/reserve/run` lifecycle of
//! [`spatial_model::EngineLifecycle`]: the pool grows them
//! (amortized) when the tree grows, rebinds them when the tree
//! mutates, and reuses their flat buffers forever after. The buffers
//! an engine needs only while it runs, and the machines a session
//! charges, live in a [`SessionScratch`] that the forest borrows for
//! each execute: [`SpatialForest::execute`] uses the forest's own, and
//! [`SpatialForest::execute_with`] a caller's, so forests that run one
//! at a time can share one. The
//! steady-state query path performs **zero heap allocation**
//! (counting-allocator test `tests/alloc_free.rs`) and is pinned
//! against naive sequential answers and fresh-engine charge reports by
//! the workspace-wide differential fuzz harness
//! (`tests/integration_fuzz.rs` at the repository root).
//!
//! ```
//! use rand::SeedableRng;
//! use spatial_session::{QueryBatch, Request, Response, SpatialForest};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let tree = spatial_tree::generators::uniform_random(500, &mut rng);
//! let mut forest = SpatialForest::new(&tree);
//!
//! let mut batch = QueryBatch::new();
//! batch.lca(3, 77).subtree_sum(0).insert_leaf(5).rank(42);
//! let responses = forest.execute(batch.requests(), &mut rng);
//! assert_eq!(responses.len(), 4);
//! assert_eq!(responses[1], Response::SubtreeSum(500)); // unit weights
//! println!("{:?}", forest.last_report()); // per-batch energy/depth
//! ```
//!
//! See `DESIGN.md` (next to this crate's manifest) for the pool
//! lifecycle, the scheduling rules, and the charge-batching argument.

mod batch;
mod forest;
mod pool;

pub use batch::{QueryBatch, Request, Response, SessionReport};
pub use forest::{CheckpointStats, ForestOptions, ResidentBytes, SpatialForest};
pub use pool::{EnginePool, PoolStats, SessionScratch};
