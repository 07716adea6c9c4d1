//! The serving layer: many tenants'
//! [`SpatialForest`](spatial_session::SpatialForest)s sharded across a
//! fixed pool of worker threads, fed by bounded submission queues that
//! **coalesce** concurrent requests into charge-batched sessions.
//!
//! The session layer ([`spatial_session`]) serves one tree on one
//! thread. [`ForestService`] scales that out along the axis the
//! paper's machine model suggests: *spatial* partitioning. Each worker
//! thread **exclusively owns** its shard's forests — no lock is ever
//! taken on the query path; the only synchronization is the bounded
//! MPSC hand-off at the shard boundary, and that hand-off carries
//! whole request batches, not individual queries, so its cost is
//! amortized to nothing (measured in `DESIGN.md`; the floor is baked
//! in as [`MIN_COALESCED_BATCH`]).
//!
//! ```
//! use rand::SeedableRng;
//! use spatial_serve::{ForestService, ServiceOptions};
//! use spatial_session::{QueryBatch, Response};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let trees: Vec<_> = (0..4)
//!     .map(|_| spatial_tree::generators::uniform_random(200, &mut rng))
//!     .collect();
//! let service = ForestService::start(&trees, ServiceOptions::new(2));
//!
//! let mut batch = QueryBatch::new();
//! batch.lca(3, 77).subtree_sum(0);
//! let ticket = service.submit(1, batch.requests());
//! let answers = ticket.wait().expect("worker alive");
//! assert_eq!(answers[1], Response::SubtreeSum(200)); // unit weights
//! let report = service.shutdown();
//! assert_eq!(report.total_requests(), 2);
//! ```
//!
//! See `DESIGN.md` next to this crate's manifest for the shard
//! ownership argument, the coalescing queue, backpressure, and the
//! `Send`-refactor notes.

mod service;

pub use service::{
    tenant_seed, thread_cpu_time, DurabilityOptions, ForestService, ServeError, ServiceOptions,
    ServiceReport, ShardReport, TenantLog, Ticket, MIN_COALESCED_BATCH,
};
