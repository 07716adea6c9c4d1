//! Heavy path decomposition (§VI-A of the paper).
//!
//! The paper constructs its path decomposition directly from light-first
//! order: "always connect a vertex with its heaviest child. This is the
//! rightmost child in light-first order." Every time a root-to-leaf walk
//! leaves a path (crosses a *light* edge), the subtree size at least
//! halves, so the decomposition has `O(log n)` layers — the key to the
//! LCA algorithm's subtree cover.
//!
//! [`HeavyPathDecomposition::from_csr`] reads the decomposition off
//! the light-first child lists in one top-down pass: it is the
//! construction the batched-LCA engine runs on every bind, from the
//! child CSR an insert epoch already built for its layout. The engine
//! also *charges* the spatial construction (top-down treefix sums over
//! the light-edge indicator, in the `spatial-lca` crate) and checks it
//! against this one under debug assertions.

use crate::traversal::{bfs_order, ChildrenCsr};
use crate::tree::{NodeId, Tree, NIL};

/// A heavy path decomposition: a partition of the vertices into paths,
/// each path linked through heaviest children.
#[derive(Debug, Clone)]
pub struct HeavyPathDecomposition {
    /// `head[v]`: the topmost vertex of the path containing `v` (the
    /// root of the subtree the path induces in the subtree cover).
    pub head: Vec<NodeId>,
    /// `layer[v]`: the number of other paths the root-to-`v` path
    /// intersects (the paper's layer index; the root's path is layer 0).
    pub layer: Vec<u32>,
    /// `heavy_child[v]`: the child continuing `v`'s path (`NIL` at
    /// leaves).
    pub heavy_child: Vec<NodeId>,
}

impl HeavyPathDecomposition {
    /// Builds the decomposition, breaking subtree-size ties by vertex id
    /// exactly like light-first order does (the heavy child is the
    /// rightmost child in light-first order).
    pub fn new(tree: &Tree) -> Self {
        let sizes = tree.subtree_sizes();
        Self::with_sizes(tree, &sizes)
    }

    /// Builds the decomposition from precomputed subtree sizes.
    pub fn with_sizes(tree: &Tree, sizes: &[u32]) -> Self {
        Self::from_csr(&ChildrenCsr::by_size(tree, sizes), &bfs_order(tree))
    }

    /// Builds the decomposition from light-first child lists: the heavy
    /// child of a vertex is the last entry of its list (the rightmost
    /// child in light-first order), and heads and layers are assigned
    /// parent before child along `top_down` — the root first, then
    /// every vertex after its parent, e.g. a light-first layout's slot
    /// order.
    ///
    /// # Panics
    /// Panics when `top_down` does not list every vertex once, parents
    /// first.
    pub fn from_csr(sorted: &ChildrenCsr, top_down: &[NodeId]) -> Self {
        let n = sorted.n() as usize;
        assert_eq!(top_down.len(), n, "top-down order must list every vertex");
        let mut heavy_child = vec![NIL; n];
        let mut head = vec![NIL; n];
        let mut layer = vec![0u32; n];
        if let Some(&root) = top_down.first() {
            head[root as usize] = root;
        }
        for &v in top_down {
            let (h, l) = (head[v as usize], layer[v as usize]);
            assert_ne!(h, NIL, "vertex {v} listed before its parent");
            if let Some((&heavy, light)) = sorted.children(v).split_last() {
                heavy_child[v as usize] = heavy;
                head[heavy as usize] = h;
                layer[heavy as usize] = l;
                for &c in light {
                    head[c as usize] = c;
                    layer[c as usize] = l + 1;
                }
            }
        }

        HeavyPathDecomposition {
            head,
            layer,
            heavy_child,
        }
    }

    /// Number of layers (maximum layer index + 1).
    pub fn num_layers(&self) -> u32 {
        self.layer.iter().copied().max().unwrap_or(0) + 1
    }

    /// The heads of all paths on the given layer: these are the roots of
    /// the layer's subtrees in the subtree cover (§VI-B).
    pub fn layer_heads(&self, layer: u32) -> Vec<NodeId> {
        self.head
            .iter()
            .enumerate()
            .filter(|&(v, &h)| h == v as NodeId && self.layer[v] == layer)
            .map(|(v, _)| v as NodeId)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::prelude::*;

    #[test]
    fn figure8_decomposition() {
        // The tree of Fig. 8:
        //        0
        //       / \
        //      1   4
        //     / \   \
        //    2   3   6
        //        |nothing
        //    5 under 4? — paper: 0-(1,4), 1-(2,3), 4-(5,6), 6-(7)
        // Rebuild exactly: vertices 0..8 with edges per the figure:
        // 0→1, 0→4; 1→2, 1→3; 4→5, 4→6; 6→7.
        let t = Tree::from_parents(0, vec![NIL, 0, 1, 1, 0, 4, 4, 6]);
        let d = HeavyPathDecomposition::new(&t);
        // Subtree sizes: 0:8, 1:3, 4:4, 6:2 → heavy path from 0 goes via
        // 4 (size 4 > 3) then 6 then 7: the paper's yellow path
        // (0, 4, 6, 7) in layer 0.
        assert_eq!(d.layer[0], 0);
        assert_eq!(d.layer[4], 0);
        assert_eq!(d.layer[6], 0);
        assert_eq!(d.layer[7], 0);
        // Green paths (1, 3) and (5) in layer 1 (3 ≥ 2 by id tie-break:
        // children of 1 are 2 and 3, equal size 1, rightmost id 3 wins).
        assert_eq!(d.layer[1], 1);
        assert_eq!(d.layer[3], 1);
        assert_eq!(d.head[3], 1);
        assert_eq!(d.layer[5], 1);
        // Red path (2) in layer 2.
        assert_eq!(d.layer[2], 2);
        assert_eq!(d.num_layers(), 3);
    }

    #[test]
    fn path_is_single_layer() {
        let t = generators::path(100);
        let d = HeavyPathDecomposition::new(&t);
        assert_eq!(d.num_layers(), 1);
        assert!(d.head.iter().all(|&h| h == 0));
    }

    #[test]
    fn star_has_two_layers() {
        let t = generators::star(50);
        let d = HeavyPathDecomposition::new(&t);
        assert_eq!(d.num_layers(), 2);
        // Exactly one child is heavy (on layer 0); the rest head their
        // own singleton paths on layer 1.
        assert_eq!(d.layer_heads(1).len(), 48);
    }

    #[test]
    fn layers_logarithmic_on_random_trees() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [100u32, 1000, 10_000] {
            let t = generators::uniform_random(n, &mut rng);
            let d = HeavyPathDecomposition::new(&t);
            let bound = (n as f64).log2().ceil() as u32 + 1;
            assert!(
                d.num_layers() <= bound,
                "n={n}: {} layers > log bound {bound}",
                d.num_layers()
            );
        }
    }

    #[test]
    fn light_edges_halve_subtree_sizes() {
        let mut rng = StdRng::seed_from_u64(13);
        let t = generators::preferential_attachment(2000, &mut rng);
        let sizes = t.subtree_sizes();
        let d = HeavyPathDecomposition::new(&t);
        for v in t.vertices() {
            if let Some(p) = t.parent(v) {
                if d.heavy_child[p as usize] != v {
                    assert!(
                        2 * sizes[v as usize] <= sizes[p as usize],
                        "light edge ({p}, {v}) does not halve"
                    );
                }
            }
        }
    }

    #[test]
    fn heads_are_path_roots() {
        let mut rng = StdRng::seed_from_u64(19);
        let t = generators::uniform_random(500, &mut rng);
        let d = HeavyPathDecomposition::new(&t);
        for v in t.vertices() {
            let h = d.head[v as usize];
            assert_eq!(d.layer[h as usize], d.layer[v as usize]);
            // The head is an ancestor of v through heavy edges.
            let mut at = v;
            while at != h {
                let p = t.parent(at).expect("head must be an ancestor");
                assert_eq!(d.heavy_child[p as usize], at);
                at = p;
            }
        }
    }
}
