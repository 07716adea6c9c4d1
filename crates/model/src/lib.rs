//! The spatial computer model (Gianinazzi et al.) as an instrumented
//! machine.
//!
//! The model considers a `√n × √n` grid of processors with constant-sized
//! local memory. In each round a processor sends/receives a constant
//! number of messages and performs a constant number of operations. The
//! two cost measures are:
//!
//! - **Energy** — the sum over all messages of the Manhattan distance
//!   between sender and receiver (distance-weighted communication
//!   volume).
//! - **Depth** — the longest chain of dependent messages.
//!
//! This crate implements the model *literally* as an accounting machine:
//! every algorithm in the workspace charges each message through
//! [`Machine::send`] or [`Machine::round`] (or a whole synchronous stage
//! through [`Machine::charge_bulk`] and [`Machine::advance_all`]), which
//! charge the exact Manhattan distance and maintain a per-processor
//! dependency clock. The depth of the computation is the maximum clock
//! value, which equals the longest chain of dependent messages by
//! construction. The [`Machine`] is the only way to charge: it is
//! single-threaded (`Send` but not `Sync`), and every buffer a charge
//! touches is allocated when it is built.
//!
//! The paper's foundational collectives (§II-A) — broadcast, reduce,
//! all-reduce, parallel prefix sum with `O(n)` energy and `O(log n)`
//! depth, and sorting with `Θ(n^{3/2})` energy and poly-log depth — are
//! implemented in [`collectives`] as real message patterns over the grid
//! and charged message-by-message (bulk-charged per network stage for the
//! sorting network, which would otherwise dominate simulation time). The
//! barrier and the batched LCA's layered broadcast also have closed
//! forms, bit-identical to those message replays.

pub mod collectives;
pub mod engine;
pub mod machine;
pub mod paging;
pub mod report;

pub use engine::{round_capacity, vec_bytes, EngineLifecycle};
pub use machine::{covering_side, Machine, MachineBuilder, Slot, TraceEvent};
pub use paging::{PagedMachine, PagingConfig, PagingReport};
pub use report::CostReport;

// Re-export the geometry the machine is built on so downstream crates can
// use one canonical `GridPoint`.
pub use spatial_sfc::{manhattan, CurveKind, GridPoint};
