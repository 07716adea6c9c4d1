//! Tree-respecting minimum cuts on the spatial computer — the
//! application the paper cites for its treefix and LCA primitives
//! (Karger \[28\]; Anderson & Blelloch \[1\]; Geissmann & Gianinazzi \[19\]).
//!
//! Karger's minimum-cut framework reduces global minimum cut to many
//! instances of: *given a spanning tree `T` of a weighted graph `G`,
//! find the minimum cut that crosses exactly one tree edge* (a
//! "1-respecting" cut). For the tree edge above vertex `v`, that cut's
//! weight is the total weight of graph edges with exactly one endpoint
//! in `v`'s subtree:
//!
//! ```text
//! cut(v) = wdeg(subtree(v)) − 2·internal(subtree(v))
//! ```
//!
//! where `wdeg` sums the weighted degrees over the subtree and
//! `internal` sums the weights of edges with *both* endpoints inside.
//! Both terms are treefix sums: `wdeg` directly, and `internal` after
//! observing that both endpoints of edge `e = (a, b)` lie in
//! `subtree(v)` iff `LCA(a, b)` does — so scattering each edge's weight
//! onto its LCA and running one more bottom-up treefix gives
//! `internal`. The pipeline is exactly the paper's toolbox:
//!
//! 1. batched LCA over the non-tree edges (§VI),
//! 2. two bottom-up treefix sums (§V),
//!
//! for `O((n + q) log n)` energy and `O(log² n)` depth w.h.p., where
//! `q` is the number of non-tree edges.
//!
//! The pipeline runs on the flat-array engines:
//! [`respect::MinCutPipeline`] holds a reusable
//! [`spatial_lca::LcaEngine`] (layer-indexed CSR subtree cover,
//! precomputed relay schedule) and shares its light-first child CSR
//! with the fused treefix, so repeated Las Vegas passes over the same
//! graph pay the structural setup once. The seed pipeline is retained
//! in [`reference`](mod@reference) and pinned by differential tests (identical cuts,
//! minima, and machine charges).

pub mod graph;
#[doc(hidden)]
pub mod reference;
pub mod respect;

pub use graph::{SpannedGraph, WeightedEdge};
pub use respect::{min_cut_host, one_respecting_cuts, MinCutPipeline, MinCutResult};
