//! Euler tour construction over darts (directed edge copies).
//!
//! Every non-root vertex `v` owns two darts: `down(v) = 2v` (the edge
//! `parent(v) → v`) and `up(v) = 2v + 1` (the edge `v → parent(v)`).
//! The tour links darts in traversal order for a chosen child order;
//! ranking the resulting list gives, per §IV:
//!
//! - the subtree size of `v`: "half the difference between the first and
//!   last index of `v` in the tour" —
//!   `s(v) = (rank(up(v)) − rank(down(v)) + 1) / 2`;
//! - the first-occurrence order of the vertices, which for a light-first
//!   child order *is* the light-first linear order.

use spatial_tree::{NodeId, Tree};

/// Sentinel dart id for "end of tour".
pub const END: u32 = u32::MAX;

/// Child order used when threading the tour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChildOrder {
    /// Children in tree construction order.
    Natural,
    /// Children in increasing subtree size (ties by id) — the order that
    /// makes the first-occurrence order light-first (§IV step 2).
    LightFirst,
}

/// An Euler tour of a rooted tree, as a successor-linked list of darts.
#[derive(Debug, Clone)]
pub struct EulerTour {
    /// Successor dart of each dart (`END` terminates; unused slots for
    /// the root's darts hold `END`).
    next: Vec<u32>,
    /// First dart of the tour (`END` for a single-vertex tree).
    start: u32,
    /// Number of darts in the list (`2(n−1)`).
    len: u32,
}

impl EulerTour {
    /// Threads the tour of `tree` with the given child order.
    pub fn new(tree: &Tree, order: ChildOrder) -> Self {
        match order {
            ChildOrder::Natural => Self::with_children(tree, |v| tree.children(v)),
            ChildOrder::LightFirst => {
                // Flat CSR child lists: one arena allocation instead of
                // n nested Vecs (the same representation the treefix
                // contraction engine consumes downstream).
                let sizes = tree.subtree_sizes();
                let sorted = spatial_tree::ChildrenCsr::by_size(tree, &sizes);
                Self::with_children(tree, |v| sorted.children(v))
            }
        }
    }

    /// Threads the light-first tour from prebuilt CSR child lists,
    /// letting callers that already hold a [`spatial_tree::ChildrenCsr`]
    /// (the contraction engine, the layout builder) avoid re-sorting:
    /// [`EulerTour::from_csr`] at the tree's root.
    pub fn light_first_from_csr(tree: &Tree, sorted: &spatial_tree::ChildrenCsr) -> Self {
        Self::from_csr(sorted, tree.root())
    }

    /// Threads the tour of the tree whose child lists, in tour order,
    /// are `children` and whose root is `root`: no [`Tree`] needed, so a
    /// caller that keeps a tree as a parent array and its light-first
    /// lists (the session forest) threads the tour from those alone.
    pub fn from_csr(children: &spatial_tree::ChildrenCsr, root: NodeId) -> Self {
        Self::thread(children.n(), root, |v| children.children(v))
    }

    /// Threads the tour with an explicit per-vertex child order.
    pub fn with_children<'a, F>(tree: &Tree, children_of: F) -> Self
    where
        F: Fn(NodeId) -> &'a [NodeId],
    {
        Self::thread(tree.n(), tree.root(), children_of)
    }

    /// Threads the tour of the `n`-vertex tree rooted at `root` whose
    /// child lists, in tour order, `children_of` gives.
    fn thread<'a, F>(n: u32, root: NodeId, children_of: F) -> Self
    where
        F: Fn(NodeId) -> &'a [NodeId],
    {
        let n = n as usize;
        let mut next = vec![END; 2 * n];

        for v in 0..n as NodeId {
            let cs = children_of(v);
            // Chain sibling darts: up(cᵢ) → down(cᵢ₊₁).
            for w in cs.windows(2) {
                next[up(w[0]) as usize] = down(w[1]);
            }
            if let Some(&first) = cs.first() {
                if v != root {
                    // Arriving at v continues into its first child.
                    next[down(v) as usize] = down(first);
                }
            }
            if let Some(&last) = cs.last() {
                // Leaving the last child returns to v, then upward.
                if v != root {
                    next[up(last) as usize] = up(v);
                } else {
                    next[up(last) as usize] = END;
                }
            }
            if v != root && cs.is_empty() {
                // Leaf: bounce straight back up.
                next[down(v) as usize] = up(v);
            }
        }

        let start = match children_of(root).first() {
            Some(&c) => down(c),
            None => END,
        };
        EulerTour {
            next,
            start,
            len: 2 * (n as u32 - 1),
        }
    }

    /// The successor array over darts (`END`-terminated).
    pub fn next_darts(&self) -> &[u32] {
        &self.next
    }

    /// First dart of the tour, or `END` when the tree has one vertex.
    pub fn start(&self) -> u32 {
        self.start
    }

    /// Number of darts in the tour.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether the tour is empty (single-vertex tree).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Walks the tour sequentially, returning darts in visit order.
    pub fn sequence(&self) -> Vec<u32> {
        let mut seq = Vec::with_capacity(self.len as usize);
        let mut at = self.start;
        while at != END {
            seq.push(at);
            at = self.next[at as usize];
        }
        seq
    }

    /// Rank of every dart (position in the tour), computed by a
    /// sequential walk. Unused darts get `u32::MAX`.
    pub fn ranks(&self) -> Vec<u32> {
        let mut rank = vec![u32::MAX; self.next.len()];
        for (i, d) in self.sequence().into_iter().enumerate() {
            rank[d as usize] = i as u32;
        }
        rank
    }
}

/// The down dart (`parent(v) → v`) of a non-root vertex.
#[inline]
pub fn down(v: NodeId) -> u32 {
    2 * v
}

/// The up dart (`v → parent(v)`) of a non-root vertex.
#[inline]
pub fn up(v: NodeId) -> u32 {
    2 * v + 1
}

/// The vertex owning a dart.
#[inline]
pub fn dart_vertex(d: u32) -> NodeId {
    d / 2
}

/// Whether a dart is a down dart.
#[inline]
pub fn is_down(d: u32) -> bool {
    d.is_multiple_of(2)
}

/// Subtree sizes from tour ranks (§IV step 1b): for non-root `v`,
/// `s(v) = (rank(up(v)) − rank(down(v)) + 1) / 2`; the root's size is `n`.
pub fn subtree_sizes_from_ranks(tree: &Tree, ranks: &[u32]) -> Vec<u32> {
    let n = tree.n();
    let mut sizes = vec![0u32; n as usize];
    for v in tree.vertices() {
        if v == tree.root() {
            sizes[v as usize] = n;
        } else {
            let first = ranks[down(v) as usize];
            let last = ranks[up(v) as usize];
            debug_assert!(last >= first, "up dart must come after down dart");
            debug_assert!((last - first) % 2 == 1, "dart span must be odd");
            sizes[v as usize] = (last - first).div_ceil(2);
        }
    }
    sizes
}

/// First-occurrence vertex order from tour ranks (§IV step 3): the root,
/// then every vertex in order of its down dart's rank. With a
/// light-first tour this is the light-first linear order.
pub fn first_occurrence_order(tree: &Tree, ranks: &[u32]) -> Vec<NodeId> {
    let n = tree.n() as usize;
    let root = tree.root();
    let mut keyed: Vec<(u32, NodeId)> = tree
        .vertices()
        .filter(|&v| v != root)
        .map(|v| (ranks[down(v) as usize], v))
        .collect();
    keyed.sort_unstable();
    let mut order = Vec::with_capacity(n);
    order.push(root);
    order.extend(keyed.into_iter().map(|(_, v)| v));
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use spatial_tree::generators;
    use spatial_tree::traversal;
    use spatial_tree::NIL;

    fn sample_tree() -> Tree {
        // 0 → {1, 2, 3}; 1 → {4, 5}; 3 → {6}; 6 → {7}.
        Tree::from_parents(0, vec![NIL, 0, 0, 0, 1, 1, 3, 6])
    }

    #[test]
    fn tour_visits_each_dart_once() {
        let t = sample_tree();
        let tour = EulerTour::new(&t, ChildOrder::Natural);
        let seq = tour.sequence();
        assert_eq!(seq.len(), 14);
        let mut seen = std::collections::HashSet::new();
        for d in &seq {
            assert!(seen.insert(*d), "dart {d} repeated");
        }
    }

    #[test]
    fn tour_natural_order_matches_dfs() {
        let t = sample_tree();
        let tour = EulerTour::new(&t, ChildOrder::Natural);
        let ranks = tour.ranks();
        let order = first_occurrence_order(&t, &ranks);
        assert_eq!(order, traversal::dfs_preorder(&t));
    }

    #[test]
    fn tour_light_first_order_matches() {
        let t = sample_tree();
        let tour = EulerTour::new(&t, ChildOrder::LightFirst);
        let ranks = tour.ranks();
        let order = first_occurrence_order(&t, &ranks);
        assert_eq!(order, traversal::light_first_order(&t));
    }

    #[test]
    fn subtree_sizes_from_tour() {
        let t = sample_tree();
        let tour = EulerTour::new(&t, ChildOrder::Natural);
        let sizes = subtree_sizes_from_ranks(&t, &tour.ranks());
        assert_eq!(sizes, t.subtree_sizes());
    }

    #[test]
    fn single_vertex_tour_is_empty() {
        let t = Tree::from_parents(0, vec![NIL]);
        let tour = EulerTour::new(&t, ChildOrder::Natural);
        assert!(tour.is_empty());
        assert_eq!(tour.start(), END);
        assert!(tour.sequence().is_empty());
        assert_eq!(subtree_sizes_from_ranks(&t, &tour.ranks()), vec![1]);
    }

    #[test]
    fn two_vertex_tour() {
        let t = Tree::from_parents(0, vec![NIL, 0]);
        let tour = EulerTour::new(&t, ChildOrder::Natural);
        assert_eq!(tour.sequence(), vec![down(1), up(1)]);
    }

    #[test]
    fn random_trees_roundtrip() {
        let mut rng = StdRng::seed_from_u64(77);
        for n in [2u32, 3, 17, 100, 1234] {
            for order in [ChildOrder::Natural, ChildOrder::LightFirst] {
                let t = generators::uniform_random(n, &mut rng);
                let tour = EulerTour::new(&t, order);
                let seq = tour.sequence();
                assert_eq!(seq.len() as u32, 2 * (n - 1), "n={n}");
                let sizes = subtree_sizes_from_ranks(&t, &tour.ranks());
                assert_eq!(sizes, t.subtree_sizes(), "n={n} {order:?}");
            }
        }
    }

    #[test]
    fn path_tour_goes_down_then_up() {
        let t = generators::path(4);
        let tour = EulerTour::new(&t, ChildOrder::Natural);
        assert_eq!(
            tour.sequence(),
            vec![down(1), down(2), down(3), up(3), up(2), up(1)]
        );
    }

    #[test]
    fn star_tour_bounces() {
        let t = generators::star(4);
        let tour = EulerTour::new(&t, ChildOrder::Natural);
        assert_eq!(
            tour.sequence(),
            vec![down(1), up(1), down(2), up(2), down(3), up(3)]
        );
    }

    #[test]
    fn dart_helpers() {
        assert_eq!(down(3), 6);
        assert_eq!(up(3), 7);
        assert_eq!(dart_vertex(6), 3);
        assert_eq!(dart_vertex(7), 3);
        assert!(is_down(6));
        assert!(!is_down(7));
    }
}
