//! Requests, responses, and the per-execute cost report.

use spatial_model::CostReport;
use spatial_tree::NodeId;

/// One request in a mixed stream. Queries are answered against the
/// tree as of their position in the stream: a query after an
/// [`Request::InsertLeaf`] sees the inserted leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Lowest common ancestor of two vertices (batched §VI-C engine).
    Lca(NodeId, NodeId),
    /// Sum of the per-vertex weights over the vertex's subtree
    /// (bottom-up treefix, §V), modulo 2⁶⁴: the sum wraps, as the
    /// [`spatial_treefix::Add`] monoid does, and never fails.
    SubtreeSum(NodeId),
    /// Position of the vertex's down dart on the light-first Euler
    /// tour (0 for the root), via the Theorem 5 list-ranking engine.
    Rank(NodeId),
    /// Append a new leaf under `parent` with the given subtree-sum
    /// weight; answers with the new vertex id. O(1) curve placement
    /// through the dynamic layout (§VII), amortized rebuilds.
    InsertLeaf {
        /// Parent of the new leaf (any existing vertex, including one
        /// inserted earlier in the same stream).
        parent: NodeId,
        /// Weight of the new leaf in subtree sums. Any `u64` is valid:
        /// sums wrap modulo 2⁶⁴ (see [`Request::SubtreeSum`]).
        weight: u64,
    },
}

/// The answer to the same-index [`Request`] of the executed stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Response {
    /// Answer to [`Request::Lca`].
    Lca(NodeId),
    /// Answer to [`Request::SubtreeSum`]: the subtree's weight sum
    /// modulo 2⁶⁴.
    SubtreeSum(u64),
    /// Answer to [`Request::Rank`].
    Rank(u64),
    /// Answer to [`Request::InsertLeaf`]: the new vertex id.
    InsertedLeaf(NodeId),
}

/// A reusable request buffer with a fluent builder API; `clear` and
/// refill it across batches to keep the caller allocation-free too.
#[derive(Debug, Default, Clone)]
pub struct QueryBatch {
    requests: Vec<Request>,
}

impl QueryBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty batch with room for `cap` requests.
    pub fn with_capacity(cap: usize) -> Self {
        QueryBatch {
            requests: Vec::with_capacity(cap),
        }
    }

    /// Removes all requests, keeping the buffer.
    pub fn clear(&mut self) {
        self.requests.clear();
    }

    /// Number of buffered requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Appends an LCA query.
    pub fn lca(&mut self, a: NodeId, b: NodeId) -> &mut Self {
        self.requests.push(Request::Lca(a, b));
        self
    }

    /// Appends a subtree-sum query.
    pub fn subtree_sum(&mut self, v: NodeId) -> &mut Self {
        self.requests.push(Request::SubtreeSum(v));
        self
    }

    /// Appends an Euler-tour rank query.
    pub fn rank(&mut self, v: NodeId) -> &mut Self {
        self.requests.push(Request::Rank(v));
        self
    }

    /// Appends a unit-weight leaf insert.
    pub fn insert_leaf(&mut self, parent: NodeId) -> &mut Self {
        self.insert_leaf_weighted(parent, 1)
    }

    /// Appends a weighted leaf insert.
    pub fn insert_leaf_weighted(&mut self, parent: NodeId, weight: u64) -> &mut Self {
        self.requests.push(Request::InsertLeaf { parent, weight });
        self
    }

    /// The buffered stream, in order.
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }
}

/// Machine charges and scheduling counters of one
/// [`crate::SpatialForest::execute`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionReport {
    /// Charges on the grid machine (LCA + treefix sessions), summed
    /// across the execute's sessions (depth adds: sessions chain).
    pub grid: CostReport,
    /// Charges on the 2-slots-per-vertex dart machine (ranking
    /// sessions).
    pub ranking: CostReport,
    /// Charges of the PRAM-baseline shadow runs (crossover mode only):
    /// the same subtree sums priced on the §I-C PRAM simulation.
    pub pram: Option<CostReport>,
    /// Out-of-core paging charges (forests with a
    /// [`crate::ForestOptions::paging`] config only): cold-page touches
    /// of slabs still mapped from a snapshot, priced as long-distance
    /// messages. `None` without a paging config — every other field of
    /// a paged run stays bit-identical to its fully-resident twin.
    pub paging: Option<spatial_model::PagingReport>,
    /// Charge-batched sessions flushed (mutation boundaries + 1,
    /// counting only sessions that ran at least one engine).
    pub sessions: u32,
    /// LCA queries answered.
    pub lca_queries: u32,
    /// Subtree-sum queries answered.
    pub sum_queries: u32,
    /// Rank queries answered.
    pub rank_queries: u32,
    /// Leaves inserted.
    pub inserts: u32,
}
