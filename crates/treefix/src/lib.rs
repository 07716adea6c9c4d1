//! Treefix sums via spatial rake-and-compress tree contraction (§V).
//!
//! Given a value in every vertex, the **bottom-up treefix sum** computes
//! for each vertex the combination of all values in its subtree; the
//! **top-down treefix sum** (§V-D) computes the combination of values
//! along the root-to-vertex path. Both generalize prefix sums and are
//! the paper's building blocks for LCA, path decompositions, and the
//! minimum-cut applications it cites.
//!
//! The spatial algorithm adapts Miller–Reif rake/compress contraction:
//!
//! - [`contraction::ContractionEngine`] maintains supervertices with
//!   `O(1)` state per vertex (a live child list in one CSR indexed by
//!   light-first preorder, a partial sum at each representative, and a
//!   distributed contraction log stored on deactivated vertices —
//!   Fig. 6).
//! - `COMPACT` rounds (§V-A3) pick independent compressible vertices by
//!   random-mate, compress them, then rake leaf supervertices; `O(log n)`
//!   rounds suffice with high probability (Las Vegas: the result is
//!   always exact, only the cost is random).
//! - Uncontraction (§V-B) replays the log backwards, maintaining the
//!   invariant `sum(v) = P_v ⊕ A_v`.
//!
//! Costs on an energy-bound light-first layout: `O(n log n)` energy and
//! `O(log n)` depth for bounded-degree trees, `O(log² n)` depth in
//! general (Lemmas 10–12). All messages are charged on the [`Machine`],
//! with unbounded-degree fan-in/fan-out going through balanced relays
//! (Theorem 3 / the `spatial-messaging` crate).
//!
//! [`Machine`]: spatial_model::Machine
//!
//! The operator must form a **commutative monoid** ([`CommutativeMonoid`]):
//! the uncontraction merges sibling subtree aggregates out of order. The
//! engine stores pre-merge partial sums in the (deactivated) vertices
//! instead of subtracting like the paper's exposition, so non-group
//! monoids such as `max` work unchanged.

pub mod contraction;
pub mod expression;
pub mod host;
pub mod monoid;
#[doc(hidden)]
pub mod reference;
pub mod spatial;

pub use contraction::{ContractionStats, VALUED_CHECKS};
pub use expression::{
    evaluate_expression, evaluate_expression_host, ExprNode, ExprResult, ExprTree,
};
pub use host::{treefix_bottom_up_host, treefix_bottom_up_host_into, treefix_top_down_host};
pub use monoid::{Add, CommutativeMonoid, Max, Min, Xor};
pub use spatial::{treefix_bottom_up, treefix_top_down, TreefixResult};
