//! Batched lowest common ancestors on the spatial computer (§VI).
//!
//! The paper's LCA algorithm avoids the non-local messaging of earlier
//! PEM/CGM approaches by covering the tree with subtrees derived from a
//! heavy-path decomposition: for every path in the decomposition, the
//! cover contains the subtree rooted at the path's head. Every vertex
//! lies in at most `O(log n)` cover subtrees, and for every query
//! `LCA(u, v) = w ∉ {u, v}` some cover subtree contains exactly one of
//! `u, v` and has `w` as its root's parent (Corollary 3).
//!
//! The four steps of §VI-C, all in the local messaging framework:
//!
//! 1. subtree sizes via bottom-up treefix → contiguous light-first
//!    ranges `r(u)`; ancestor/descendant queries answered immediately;
//! 2. every vertex local-broadcasts its range to its children;
//! 3. path-decomposition layers via top-down treefix;
//! 4. per layer: broadcast `(r(w), r(x))` inside every layer subtree
//!    (the Lemma 13 range broadcast), answer the queries it resolves,
//!    and barrier before the next layer.
//!
//! Total: `O(n log n)` energy and `O(log² n)` depth w.h.p. (Theorem 6),
//! assuming every vertex appears in `O(1)` queries.
//!
//! # Engine layout
//!
//! The implementation is a reusable flat-array engine
//! ([`batched::LcaEngine`]): the rng-independent structure — the
//! layer-indexed CSR [`SubtreeCover`], the heavy-path decomposition, and
//! the precomputed virtual-tree relay schedule — is read off the tree's
//! parents and light-first child CSR once per tree; each run then
//! charges the four §VI-C steps and resolves queries by walking their
//! `O(log n)`-long head chains. A [`batched::LcaStructure`] keeps only
//! that structure: a caller that keeps the tree lends it to every bind
//! and run ([`batched::LcaStructure::bind_parts`],
//! [`batched::LcaStructure::run_on`]), and [`batched::LcaEngine::new`]
//! keeps a copy of its own for [`batched::LcaEngine::run`]. The
//! answers read the sizes, heads and layers of that structure, so steps
//! 1 and 3 are charge-only outside builds with debug assertions: each
//! pays exactly a valued treefix pass (same charges, rng draws and
//! rounds) and computes no value
//! (`spatial_treefix::contraction::ContractionEngine::charge_only_run`).
//! Builds with debug assertions run both passes valued and check their
//! sizes and layers against the structure's. The seed implementation
//! is retained in [`reference`](mod@reference) and pinned by the
//! differential suite (`tests/engine_vs_reference.rs`): identical
//! answers, statistics, and machine charges.

pub mod batched;
pub mod cover;
pub mod host;
#[doc(hidden)]
pub mod reference;

pub use batched::{batched_lca, LcaEngine, LcaResult, LcaStats, LcaStructure};
pub use cover::{CoverSubtree, SubtreeCover};
pub use host::HostLca;
