//! The local messaging framework of §III-D (Theorem 3).
//!
//! Trees of unbounded degree cannot store all children in one
//! constant-memory processor, and even if they could, direct
//! parent→children messaging would cost up to `Θ(n^{3/2})` energy on a
//! star. The paper's fix is the TRANSFORM virtual tree (Fig. 3): each
//! vertex keeps at most two *current* children and adopts at most two
//! *appended* children (siblings), so that every message fans out along
//! a balanced relay tree over the (light-first-contiguous) sibling list.
//!
//! Supported operations (the two the paper needs for treefix and LCA):
//!
//! - **Local broadcast** ([`local::local_broadcast`]): every vertex sends
//!   one identical message to all its children.
//! - **Local reduce** ([`local::local_reduce`]): every parent receives
//!   the (ordered, associative) reduction of its children's messages.
//!
//! Both take `O(n)` energy and `O(log n)` depth on an energy-bound
//! light-first layout. [`relay`] exposes the balanced relay charging for
//! arbitrary participant subsets (used by the treefix RAKE operation).

//! [`schedule::BroadcastSchedule`] precomputes the relay rounds as a
//! round-indexed CSR of slot pairs, so repeat broadcasters (the
//! batched-LCA engine) replay identical charges without rebuilding the
//! per-round message batches, and charge the Fig. 4 construction
//! exchange in closed form from the same pairs.

pub mod local;
pub mod relay;
pub mod schedule;
pub mod virtual_tree;

pub use local::{local_broadcast, local_reduce};
pub use schedule::BroadcastSchedule;
pub use virtual_tree::VirtualTree;
