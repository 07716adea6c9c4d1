//! Euler tours and list ranking (§IV of the paper).
//!
//! The light-first layout is computed through Euler tours: duplicating
//! every tree edge into a *down* and an *up* dart and linking them in
//! traversal order yields a linked list whose ranks encode subtree sizes
//! and first occurrences. Ranking that list is the bottleneck of layout
//! creation; the paper adapts the randomized contraction algorithm of
//! Anderson & Miller to the spatial setting, obtaining `O(n^{3/2})`
//! energy and `O(log n)` depth with high probability (Theorem 5).
//!
//! This crate provides:
//!
//! - [`tour::EulerTour`]: dart-based tour construction for any child
//!   order (natural or light-first).
//! - [`ranking`]: list ranking as
//!   - a sequential walk ([`ranking::rank_sequential`]), and
//!   - the spatial random-mate contraction
//!     ([`ranking::RankingEngine`], one-shot wrapper
//!     [`ranking::rank_spatial`]) with full energy/depth accounting —
//!     the live list as an array of positions in list order, ranks
//!     read off the bind's positions while a run only charges, zero
//!     heap allocation after setup (the §IV cost bounds: `O(n^{3/2})`
//!     energy and `O(log n)` depth w.h.p., Theorem 5).
//! - [`tour`] helpers deriving subtree sizes and first-occurrence
//!   (DFS) orders from tour ranks — steps 1–3 of the §IV pipeline.
//!
//! The seed contraction (nested per-round splice `Vec`s, rank weights
//! carried through the splices) is retained in
//! [`reference`](mod@reference) and pinned by the `ranking_props`
//! differential suite.

pub mod ranking;
#[doc(hidden)]
pub mod reference;
pub mod tour;

pub use ranking::{rank_sequential, rank_spatial, RankingEngine, SpatialRanking};
pub use tour::{ChildOrder, EulerTour};
