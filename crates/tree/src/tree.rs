//! The rooted tree representation.

/// Identifier of a tree vertex: a dense index in `0..n`.
pub type NodeId = u32;

/// Sentinel for "no vertex" (the root's parent).
pub const NIL: NodeId = u32::MAX;

/// A rooted tree over vertices `0..n` in CSR form.
///
/// Immutable after construction. Children are stored contiguously per
/// vertex, in the order given at construction time (generators produce
/// them in insertion order; layout code re-sorts copies as needed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tree {
    root: NodeId,
    parent: Vec<NodeId>,
    child_offsets: Vec<u32>,
    children: Vec<NodeId>,
}

impl Tree {
    /// Heap bytes the tree keeps resident: the parent array and the
    /// child CSR, by capacity.
    pub fn resident_bytes(&self) -> usize {
        (self.parent.capacity() + self.child_offsets.capacity() + self.children.capacity())
            * std::mem::size_of::<u32>()
    }

    /// Builds a tree from a parent array. `parent[root]` must be [`NIL`]
    /// and every other entry a valid vertex.
    ///
    /// # Panics
    /// Panics when the array does not describe a tree rooted at `root`
    /// (wrong root sentinel, out-of-range parents, cycles, or multiple
    /// components).
    pub fn from_parents(root: NodeId, parent: Vec<NodeId>) -> Self {
        let n = parent.len();
        assert!(n > 0, "a tree needs at least one vertex");
        assert!((root as usize) < n, "root {root} out of range 0..{n}");
        assert_eq!(parent[root as usize], NIL, "parent[root] must be NIL");

        let mut counts = vec![0u32; n];
        for (v, &p) in parent.iter().enumerate() {
            if v as NodeId == root {
                continue;
            }
            assert!((p as usize) < n, "vertex {v} has out-of-range parent {p}");
            counts[p as usize] += 1;
        }

        let mut child_offsets = vec![0u32; n + 1];
        for v in 0..n {
            child_offsets[v + 1] = child_offsets[v] + counts[v];
        }
        let mut cursor = child_offsets.clone();
        let mut children = vec![0 as NodeId; n - 1];
        for (v, &p) in parent.iter().enumerate() {
            if v as NodeId == root {
                continue;
            }
            children[cursor[p as usize] as usize] = v as NodeId;
            cursor[p as usize] += 1;
        }

        let tree = Tree {
            root,
            parent,
            child_offsets,
            children,
        };
        assert!(
            tree.is_connected(),
            "parent array contains a cycle or disconnected component"
        );
        tree
    }

    /// Builds a tree from undirected edges, rooting it at `root` with a
    /// BFS orientation.
    ///
    /// # Panics
    /// Panics when the edges do not form a tree on `n` vertices.
    pub fn from_edges(n: u32, root: NodeId, edges: &[(NodeId, NodeId)]) -> Self {
        assert_eq!(
            edges.len() as u32,
            n.saturating_sub(1),
            "a tree on {n} vertices has n-1 edges"
        );
        // Adjacency in CSR form.
        let mut deg = vec![0u32; n as usize];
        for &(a, b) in edges {
            assert!(a < n && b < n, "edge ({a}, {b}) out of range");
            deg[a as usize] += 1;
            deg[b as usize] += 1;
        }
        let mut off = vec![0u32; n as usize + 1];
        for v in 0..n as usize {
            off[v + 1] = off[v] + deg[v];
        }
        let mut adj = vec![0 as NodeId; 2 * edges.len()];
        let mut cur = off.clone();
        for &(a, b) in edges {
            adj[cur[a as usize] as usize] = b;
            cur[a as usize] += 1;
            adj[cur[b as usize] as usize] = a;
            cur[b as usize] += 1;
        }
        // BFS orientation from the root.
        let mut parent = vec![NIL; n as usize];
        let mut visited = vec![false; n as usize];
        let mut queue = std::collections::VecDeque::new();
        visited[root as usize] = true;
        queue.push_back(root);
        let mut seen = 1u32;
        while let Some(v) = queue.pop_front() {
            for i in off[v as usize]..off[v as usize + 1] {
                let u = adj[i as usize];
                if !visited[u as usize] {
                    visited[u as usize] = true;
                    parent[u as usize] = v;
                    seen += 1;
                    queue.push_back(u);
                }
            }
        }
        assert_eq!(seen, n, "edges do not connect all {n} vertices");
        Tree::from_parents(root, parent)
    }

    /// Number of vertices.
    pub fn n(&self) -> u32 {
        self.parent.len() as u32
    }

    /// The root vertex.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Parent of `v`, or `None` for the root.
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        let p = self.parent[v as usize];
        (p != NIL).then_some(p)
    }

    /// Raw parent array (`NIL` at the root).
    pub fn parents(&self) -> &[NodeId] {
        &self.parent
    }

    /// Children of `v`, in construction order.
    #[inline]
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        let lo = self.child_offsets[v as usize] as usize;
        let hi = self.child_offsets[v as usize + 1] as usize;
        &self.children[lo..hi]
    }

    /// Number of children of `v`.
    #[inline]
    pub fn num_children(&self, v: NodeId) -> u32 {
        self.child_offsets[v as usize + 1] - self.child_offsets[v as usize]
    }

    /// Degree of `v` counting parent and children (the paper's `deg(v)`).
    pub fn degree(&self, v: NodeId) -> u32 {
        self.num_children(v) + u32::from(v != self.root)
    }

    /// Maximum degree `Δ` over all vertices.
    pub fn max_degree(&self) -> u32 {
        (0..self.n()).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Whether `v` has no children.
    pub fn is_leaf(&self, v: NodeId) -> bool {
        self.num_children(v) == 0
    }

    /// Iterator over all vertices `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.n()
    }

    /// Iterator over all `(parent, child)` edges.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.vertices()
            .filter_map(move |v| self.parent(v).map(|p| (p, v)))
    }

    /// Number of descendants of each vertex including itself (the
    /// paper's `s(v)`). Iterative post-order accumulation.
    pub fn subtree_sizes(&self) -> Vec<u32> {
        let n = self.n() as usize;
        let mut sizes = vec![1u32; n];
        // Process vertices in reverse BFS order so every child is final
        // before its parent.
        let order = crate::traversal::bfs_order(self);
        for &v in order.iter().rev() {
            if let Some(p) = self.parent(v) {
                sizes[p as usize] += sizes[v as usize];
            }
        }
        sizes
    }

    /// Depth of each vertex (root = 0).
    pub fn depths(&self) -> Vec<u32> {
        let n = self.n() as usize;
        let mut depth = vec![0u32; n];
        for &v in crate::traversal::bfs_order(self).iter() {
            if let Some(p) = self.parent(v) {
                depth[v as usize] = depth[p as usize] + 1;
            }
        }
        depth
    }

    /// Height of the tree: maximum depth.
    pub fn height(&self) -> u32 {
        self.depths().into_iter().max().unwrap_or(0)
    }

    fn is_connected(&self) -> bool {
        crate::traversal::bfs_order(self).len() == self.n() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small fixed tree used across tests:
    ///         0
    ///       / | \
    ///      1  2  3
    ///     /|     |
    ///    4 5     6
    ///            |
    ///            7
    pub(crate) fn sample_tree() -> Tree {
        Tree::from_parents(0, vec![NIL, 0, 0, 0, 1, 1, 3, 6])
    }

    #[test]
    fn basic_accessors() {
        let t = sample_tree();
        assert_eq!(t.n(), 8);
        assert_eq!(t.root(), 0);
        assert_eq!(t.parent(0), None);
        assert_eq!(t.parent(7), Some(6));
        assert_eq!(t.children(0), &[1, 2, 3]);
        assert_eq!(t.children(1), &[4, 5]);
        assert_eq!(t.children(2), &[] as &[NodeId]);
        assert_eq!(t.num_children(3), 1);
        assert!(t.is_leaf(2));
        assert!(!t.is_leaf(3));
    }

    #[test]
    fn degree_counts_parent() {
        let t = sample_tree();
        assert_eq!(t.degree(0), 3, "root: three children, no parent");
        assert_eq!(t.degree(1), 3, "two children + parent");
        assert_eq!(t.degree(2), 1, "leaf: only parent");
        assert_eq!(t.max_degree(), 3);
    }

    #[test]
    fn subtree_sizes_and_depths() {
        let t = sample_tree();
        assert_eq!(t.subtree_sizes(), vec![8, 3, 1, 3, 1, 1, 2, 1]);
        assert_eq!(t.depths(), vec![0, 1, 1, 1, 2, 2, 2, 3]);
        assert_eq!(t.height(), 3);
    }

    #[test]
    fn edges_iterate_parent_child() {
        let t = sample_tree();
        let mut edges: Vec<_> = t.edges().collect();
        edges.sort();
        assert_eq!(
            edges,
            vec![(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (3, 6), (6, 7)]
        );
    }

    #[test]
    fn single_vertex_tree() {
        let t = Tree::from_parents(0, vec![NIL]);
        assert_eq!(t.n(), 1);
        assert_eq!(t.subtree_sizes(), vec![1]);
        assert_eq!(t.height(), 0);
        assert_eq!(t.max_degree(), 0);
    }

    #[test]
    fn non_zero_root() {
        let t = Tree::from_parents(2, vec![2, 2, NIL]);
        assert_eq!(t.root(), 2);
        assert_eq!(t.children(2), &[0, 1]);
    }

    #[test]
    fn from_edges_orients_bfs() {
        let t = Tree::from_edges(5, 0, &[(1, 0), (1, 2), (3, 2), (2, 4)]);
        assert_eq!(t.parent(1), Some(0));
        assert_eq!(t.parent(2), Some(1));
        assert_eq!(t.parent(3), Some(2));
        assert_eq!(t.parent(4), Some(2));
    }

    #[test]
    #[should_panic(expected = "parent[root] must be NIL")]
    fn rejects_bad_root() {
        let _ = Tree::from_parents(0, vec![1, NIL]);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn rejects_cycle() {
        // 1 → 2 → 1 cycle, disconnected from root 0.
        let _ = Tree::from_parents(0, vec![NIL, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "out-of-range parent")]
    fn rejects_out_of_range() {
        let _ = Tree::from_parents(0, vec![NIL, 9]);
    }

    #[test]
    #[should_panic(expected = "n-1 edges")]
    fn rejects_wrong_edge_count() {
        let _ = Tree::from_edges(3, 0, &[(0, 1)]);
    }

    #[test]
    #[should_panic(expected = "connect all")]
    fn rejects_disconnected_edges() {
        let _ = Tree::from_edges(4, 0, &[(0, 1), (2, 3), (2, 3)]);
    }
}
