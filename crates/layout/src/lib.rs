//! Spatial tree layouts (§III–IV of the paper).
//!
//! A [`Layout`] assigns every tree vertex a *slot* — a position along a
//! space-filling curve — and therefore a grid coordinate. The paper's
//! central construction is the **light-first layout**: vertices in
//! light-first order (children by increasing subtree size), lifted to the
//! grid by a distance-bound curve. Theorem 1 shows the parent→children
//! messaging kernel then costs `O(n)` energy; Theorem 2 extends this to
//! the Z-order curve.
//!
//! The crate provides:
//!
//! - [`layout::Layout`] with host-side constructors (light-first, BFS,
//!   DFS, random — the latter two being the paper's counterexamples);
//! - [`quality`]: the messaging-kernel energy and per-edge distance
//!   metrics used by experiment E1;
//! - [`builder`]: the §IV *on-machine* pipeline that computes the layout
//!   with Euler tours, spatial list ranking, prefix-sum compaction and a
//!   sorting-network permutation, charging `O(n^{3/2})` energy and
//!   `O(log n)` depth w.h.p. (Theorem 4).

pub mod builder;
pub mod dynamic;
pub mod engine;
pub mod layout;
pub mod quality;
#[doc(hidden)]
pub mod reference;

pub use builder::{build_light_first_spatial, SpatialBuildReport};
pub use dynamic::{DynamicLayout, DynamicStats};
pub use engine::LayoutEngine;
pub use layout::{Layout, LayoutKind, TreeParts};
pub use quality::{
    edge_distance_stats, edge_distance_stats_with_points, edge_distance_stats_with_points_into,
    local_kernel_energy, local_kernel_energy_with_points, EdgeDistanceStats,
};
