//! Tree traversal orders: BFS, DFS, and the paper's light-first order.
//!
//! §III-A defines *light-first order*: a depth-first order in which each
//! vertex's children are visited in increasing order of subtree size.
//! Stored on a distance-bound space-filling curve, it makes parent→child
//! messaging energy linear (Theorem 1). BFS and DFS orders are provided
//! as the adversarial baselines the paper calls out: a perfect binary
//! tree in BFS order has `Ω(√n)` average neighbour distance, and a comb
//! in (arbitrary-child-order) DFS order fares similarly.
//!
//! Every order here is built sequentially on the calling thread. The
//! light-first constructor is iterative, so path-shaped trees cannot
//! overflow the stack.

use crate::tree::{NodeId, Tree, NIL};

/// Breadth-first order starting at the root, children in construction
/// order. The returned vector lists vertices in visit order.
pub fn bfs_order(tree: &Tree) -> Vec<NodeId> {
    let mut order = Vec::with_capacity(tree.n() as usize);
    let mut head = 0usize;
    order.push(tree.root());
    while head < order.len() {
        let v = order[head];
        head += 1;
        order.extend_from_slice(tree.children(v));
    }
    order
}

/// Iterative depth-first preorder, children in construction order.
pub fn dfs_preorder(tree: &Tree) -> Vec<NodeId> {
    let mut order = Vec::with_capacity(tree.n() as usize);
    let mut stack = vec![tree.root()];
    while let Some(v) = stack.pop() {
        order.push(v);
        // Push children reversed so the first child is visited first.
        for &c in tree.children(v).iter().rev() {
            stack.push(c);
        }
    }
    order
}

/// Children of every vertex sorted by increasing subtree size (ties by
/// vertex id, for determinism). This is the child order that defines
/// light-first order; the largest ("heavy") child comes last.
pub fn children_by_size(tree: &Tree, sizes: &[u32]) -> Vec<Vec<NodeId>> {
    (0..tree.n())
        .map(|v| {
            let mut cs: Vec<NodeId> = tree.children(v).to_vec();
            cs.sort_by_key(|&c| (sizes[c as usize], c));
            cs
        })
        .collect()
}

/// Flat (CSR) per-vertex child lists: two arrays instead of `n`
/// separately heap-allocated `Vec`s. Vertex `v`'s children occupy
/// `children[offsets[v] .. offsets[v + 1]]`. This is the arena
/// representation the contraction engine and the Euler tours consume —
/// one allocation, cache-contiguous, cheap to iterate.
#[derive(Debug, PartialEq, Eq)]
pub struct ChildrenCsr {
    offsets: Vec<u32>,
    children: Vec<NodeId>,
}

impl Clone for ChildrenCsr {
    fn clone(&self) -> Self {
        ChildrenCsr {
            offsets: self.offsets.clone(),
            children: self.children.clone(),
        }
    }

    /// Copies into the retained buffers (no allocation within their
    /// capacity).
    fn clone_from(&mut self, source: &Self) {
        self.offsets.clone_from(&source.offsets);
        self.children.clone_from(&source.children);
    }
}

/// The empty (zero-vertex) lists, to fill later in place.
impl Default for ChildrenCsr {
    fn default() -> Self {
        ChildrenCsr {
            offsets: vec![0],
            children: Vec::new(),
        }
    }
}

impl ChildrenCsr {
    /// Heap bytes the lists keep resident, by capacity.
    pub fn resident_bytes(&self) -> usize {
        (self.offsets.capacity() + self.children.capacity()) * std::mem::size_of::<u32>()
    }

    /// Builds the CSR lists with each vertex's children in the given
    /// order-defining key order: increasing `(sizes[c], c)` —
    /// light-first child order.
    pub fn by_size(tree: &Tree, sizes: &[u32]) -> Self {
        let mut csr = ChildrenCsr::default();
        csr.place_children(tree.parents(), &mut Vec::new());
        csr.sort_lists_by_size(sizes);
        csr
    }

    /// Refills the lists in place with the light-first child order of
    /// the tree given by `parents` (`NIL` at `root` only) — the lists
    /// [`ChildrenCsr::by_size`] builds — and writes its subtree sizes
    /// into `sizes`, accumulated bottom-up over a BFS (`bfs` is
    /// scratch). No heap allocation once every buffer holds
    /// `parents.len()` entries ([`ChildrenCsr::reserve`]).
    pub fn fill_light_first(
        &mut self,
        parents: &[NodeId],
        root: NodeId,
        sizes: &mut Vec<u32>,
        bfs: &mut Vec<NodeId>,
    ) {
        let n = parents.len();
        self.place_children(parents, sizes);
        bfs.clear();
        bfs.push(root);
        let mut head = 0usize;
        while head < bfs.len() {
            let v = bfs[head];
            head += 1;
            bfs.extend_from_slice(self.children(v));
        }
        debug_assert_eq!(bfs.len(), n, "parents must form one rooted tree");
        sizes.clear();
        sizes.resize(n, 1);
        for &v in bfs.iter().rev() {
            let p = parents[v as usize];
            if p != NIL {
                sizes[p as usize] += sizes[v as usize];
            }
        }
        self.sort_lists_by_size(sizes);
    }

    /// Counting sort of the vertices of `parents` into their parents'
    /// lists, each in increasing id order (`cursor` is scratch).
    fn place_children(&mut self, parents: &[NodeId], cursor: &mut Vec<u32>) {
        let n = parents.len();
        let ChildrenCsr { offsets, children } = self;
        offsets.clear();
        offsets.resize(n + 1, 0);
        for &p in parents {
            if p != NIL {
                offsets[p as usize + 1] += 1;
            }
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        children.clear();
        children.resize(n.saturating_sub(1), 0);
        cursor.clear();
        cursor.extend_from_slice(&offsets[..n]);
        for (v, &p) in parents.iter().enumerate() {
            if p != NIL {
                let at = &mut cursor[p as usize];
                children[*at as usize] = v as NodeId;
                *at += 1;
            }
        }
    }

    /// Sorts every list by `(sizes[c], c)`.
    fn sort_lists_by_size(&mut self, sizes: &[u32]) {
        for w in self.offsets.windows(2) {
            let list = &mut self.children[w[0] as usize..w[1] as usize];
            if list.len() > 1 {
                list.sort_unstable_by_key(|&c| (sizes[c as usize], c));
            }
        }
    }

    /// Reserves room for `n` vertices, so [`ChildrenCsr::fill_light_first`]
    /// and [`Clone::clone_from`] up to that size do not allocate.
    pub fn reserve(&mut self, n: usize) {
        self.offsets
            .reserve((n + 1).saturating_sub(self.offsets.len()));
        self.children
            .reserve(n.saturating_sub(1 + self.children.len()));
    }

    /// Builds the CSR lists in tree construction (natural) order.
    pub fn natural(tree: &Tree) -> Self {
        let n = tree.n() as usize;
        let mut offsets = Vec::with_capacity(n + 1);
        let mut children = Vec::with_capacity(n.saturating_sub(1));
        for v in tree.vertices() {
            offsets.push(children.len() as u32);
            children.extend_from_slice(tree.children(v));
        }
        offsets.push(children.len() as u32);
        ChildrenCsr { offsets, children }
    }

    /// The children of `v`, in the order the structure was built with.
    #[inline]
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        &self.children[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// Number of children of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> u32 {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Number of vertices covered.
    pub fn n(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// The flat child array (all vertices' lists back to back).
    pub fn flat_children(&self) -> &[NodeId] {
        &self.children
    }

    /// The per-vertex offsets into [`ChildrenCsr::flat_children`]
    /// (`n + 1` entries).
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }
}

/// Light-first order (§III-A): DFS preorder visiting children in
/// increasing subtree size. Sequential, iterative.
pub fn light_first_order(tree: &Tree) -> Vec<NodeId> {
    let sizes = tree.subtree_sizes();
    light_first_order_with_sizes(tree, &sizes)
}

/// Light-first order given precomputed subtree sizes.
pub fn light_first_order_with_sizes(tree: &Tree, sizes: &[u32]) -> Vec<NodeId> {
    let mut order = Vec::with_capacity(tree.n() as usize);
    let mut stack = vec![tree.root()];
    // Children are sorted on demand to avoid materializing all lists.
    let mut buf: Vec<NodeId> = Vec::new();
    while let Some(v) = stack.pop() {
        order.push(v);
        buf.clear();
        buf.extend_from_slice(tree.children(v));
        buf.sort_by_key(|&c| (sizes[c as usize], c));
        // Reverse push: smallest child on top of the stack.
        for &c in buf.iter().rev() {
            stack.push(c);
        }
    }
    order
}

/// Heavy-first order: DFS preorder visiting children in *decreasing*
/// subtree size — the mirror image of light-first, used as an ablation
/// control (it lacks light-first's "small subtrees stay near their
/// parent" property, so Theorem 1's recursion does not apply).
pub fn heavy_first_order(tree: &Tree) -> Vec<NodeId> {
    let sizes = tree.subtree_sizes();
    let mut order = Vec::with_capacity(tree.n() as usize);
    let mut stack = vec![tree.root()];
    let mut buf: Vec<NodeId> = Vec::new();
    while let Some(v) = stack.pop() {
        order.push(v);
        buf.clear();
        buf.extend_from_slice(tree.children(v));
        // Reverse of light-first: largest subtree first.
        buf.sort_by_key(|&c| std::cmp::Reverse((sizes[c as usize], c)));
        for &c in buf.iter().rev() {
            stack.push(c);
        }
    }
    order
}

/// Inverse of an order: `positions[v]` is the index of vertex `v`.
pub fn positions_of(order: &[NodeId]) -> Vec<u32> {
    let mut pos = vec![0u32; order.len()];
    for (i, &v) in order.iter().enumerate() {
        pos[v as usize] = i as u32;
    }
    pos
}

/// Checks the defining property of light-first order (§III-A): every
/// vertex `v` at position `p` has its `i`-th-smallest child at position
/// `1 + p + Σ_{j<i} s(c_j)`. Returns the first violating vertex.
pub fn verify_light_first(tree: &Tree, order: &[NodeId]) -> Result<(), NodeId> {
    let sizes = tree.subtree_sizes();
    let pos = positions_of(order);
    for v in tree.vertices() {
        let mut cs: Vec<NodeId> = tree.children(v).to_vec();
        cs.sort_by_key(|&c| (sizes[c as usize], c));
        let mut expected = pos[v as usize] + 1;
        for &c in &cs {
            if pos[c as usize] != expected {
                return Err(v);
            }
            expected += sizes[c as usize];
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::tree::{Tree, NIL};
    use rand::prelude::*;

    fn sample_tree() -> Tree {
        Tree::from_parents(0, vec![NIL, 0, 0, 0, 1, 1, 3, 6])
    }

    #[test]
    fn bfs_order_levels() {
        let t = sample_tree();
        assert_eq!(bfs_order(&t), vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn dfs_preorder_first_child_first() {
        let t = sample_tree();
        assert_eq!(dfs_preorder(&t), vec![0, 1, 4, 5, 2, 3, 6, 7]);
    }

    #[test]
    fn light_first_smallest_subtree_first() {
        let t = sample_tree();
        // Subtree sizes: 0→8, 1→3, 2→1, 3→3, 4,5→1, 6→2, 7→1.
        // Root children sorted: 2 (1), then 1 (3, id 1), then 3 (3, id 3).
        let order = light_first_order(&t);
        assert_eq!(order, vec![0, 2, 1, 4, 5, 3, 6, 7]);
        assert_eq!(verify_light_first(&t, &order), Ok(()));
    }

    #[test]
    fn heavy_first_mirrors_light_first() {
        let t = sample_tree();
        // Root children by decreasing (size, id): 3 (3), 1 (3), 2 (1).
        let order = heavy_first_order(&t);
        assert_eq!(order[0], 0);
        assert_eq!(order[1], 3, "heaviest child first");
        assert_eq!(*order.last().unwrap(), 2, "lightest child last");
        // Same vertex set as light-first.
        let mut a = order.clone();
        let mut b = light_first_order(&t);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn light_first_property_on_random_trees() {
        let mut rng = StdRng::seed_from_u64(3);
        for n in [2u32, 3, 10, 100, 1000] {
            let t = generators::uniform_random(n, &mut rng);
            let order = light_first_order(&t);
            assert_eq!(verify_light_first(&t, &order), Ok(()), "n={n}");
        }
    }

    #[test]
    fn verify_rejects_wrong_order() {
        let t = sample_tree();
        let bfs = bfs_order(&t);
        assert!(verify_light_first(&t, &bfs).is_err());
    }

    #[test]
    fn positions_invert_order() {
        let t = sample_tree();
        let order = light_first_order(&t);
        let pos = positions_of(&order);
        for (i, &v) in order.iter().enumerate() {
            assert_eq!(pos[v as usize] as usize, i);
        }
    }

    #[test]
    fn children_by_size_sorted() {
        let t = sample_tree();
        let sizes = t.subtree_sizes();
        let sorted = children_by_size(&t, &sizes);
        assert_eq!(sorted[0], vec![2, 1, 3]);
        assert_eq!(sorted[1], vec![4, 5]);
    }

    #[test]
    fn csr_matches_nested_lists() {
        let mut rng = StdRng::seed_from_u64(21);
        for n in [1u32, 2, 8, 100, 1000] {
            let t = generators::uniform_random(n, &mut rng);
            let sizes = t.subtree_sizes();
            let nested = children_by_size(&t, &sizes);
            let csr = ChildrenCsr::by_size(&t, &sizes);
            assert_eq!(csr.n(), n);
            for v in t.vertices() {
                assert_eq!(csr.children(v), &nested[v as usize][..], "n={n} v={v}");
                assert_eq!(csr.degree(v) as usize, nested[v as usize].len());
            }
            let natural = ChildrenCsr::natural(&t);
            for v in t.vertices() {
                assert_eq!(natural.children(v), t.children(v));
            }
        }
    }

    #[test]
    fn fill_light_first_matches_by_size() {
        // One retained CSR refilled across families and shrinking and
        // growing sizes: the lists and sizes of a fresh build each time.
        let mut rng = StdRng::seed_from_u64(22);
        let (mut csr, mut sizes, mut bfs) = (ChildrenCsr::default(), Vec::new(), Vec::new());
        assert_eq!(csr.n(), 0);
        for n in [1u32, 2, 300, 7, 1000] {
            for fam in generators::TreeFamily::ALL {
                let t = fam.generate(n, &mut rng);
                csr.fill_light_first(t.parents(), t.root(), &mut sizes, &mut bfs);
                assert_eq!(sizes, t.subtree_sizes(), "{fam} n={n}");
                assert_eq!(csr, ChildrenCsr::by_size(&t, &sizes), "{fam} n={n}");
            }
        }
    }
}
