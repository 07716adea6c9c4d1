//! Host (non-spatial) reference implementations of treefix sums.
//!
//! Used to verify the spatial contraction algorithm, as the sequential
//! baseline in the wall-clock benchmarks, and as the answer pass of the
//! session forest's subtree sums, whose §V contraction only charges
//! ([`ContractionEngine::charge_only_run`]). Every pass runs on the
//! calling thread; the spatial algorithm's low depth is charged on the
//! machine, not forked on the host.
//!
//! [`treefix_bottom_up_host_into`] is the general bottom-up pass: any
//! parents-first order of the vertices (a BFS order, or the light-first
//! preorder a bound contraction engine numbers its vertices by,
//! [`ContractionEngine::preorder`]) and a caller's buffer, so a caller
//! that runs it every session allocates nothing once the buffer fits.
//! [`treefix_bottom_up_host`] is that pass over a [`Tree`]'s BFS order.
//!
//! [`ContractionEngine::charge_only_run`]: crate::contraction::ContractionEngine::charge_only_run
//! [`ContractionEngine::preorder`]: crate::contraction::ContractionEngine::preorder

use crate::monoid::CommutativeMonoid;
use spatial_tree::{NodeId, Tree, NIL};

/// Bottom-up treefix: `result[v] = ⊕ values over the subtree of v`.
/// Sequential, one pass over reverse BFS order
/// ([`treefix_bottom_up_host_into`] over a fresh buffer).
pub fn treefix_bottom_up_host<M: CommutativeMonoid>(tree: &Tree, values: &[M]) -> Vec<M> {
    assert_eq!(values.len() as u32, tree.n());
    let mut result = Vec::new();
    treefix_bottom_up_host_into(
        tree.parents(),
        &spatial_tree::traversal::bfs_order(tree),
        |v| values[v as usize],
        &mut result,
    );
    result
}

/// Bottom-up treefix into `out`: `out[v] = ⊕ value_of(u)` over the
/// vertices `u` of `v`'s subtree, for every vertex id `v` of the tree
/// given by `parents` ([`NIL`] at the root). `order` lists every vertex
/// once with each parent before its children (any such order gives the
/// same sums); the pass folds each vertex into its parent in reverse
/// `order`. `out` is overwritten and grows only when it holds fewer
/// than `parents.len()` entries.
pub fn treefix_bottom_up_host_into<M: CommutativeMonoid>(
    parents: &[NodeId],
    order: &[NodeId],
    value_of: impl Fn(NodeId) -> M,
    out: &mut Vec<M>,
) {
    assert_eq!(order.len(), parents.len(), "one order entry per vertex");
    out.clear();
    out.extend((0..parents.len() as NodeId).map(value_of));
    for &v in order.iter().rev() {
        let p = parents[v as usize];
        if p != NIL {
            out[p as usize] = out[p as usize].combine(out[v as usize]);
        }
    }
}

/// Top-down treefix: `result[v] = ⊕ values along the root → v path`
/// (inclusive). Sequential, one pass over BFS order.
pub fn treefix_top_down_host<M: CommutativeMonoid>(tree: &Tree, values: &[M]) -> Vec<M> {
    assert_eq!(values.len() as u32, tree.n());
    let mut result = values.to_vec();
    for &v in spatial_tree::traversal::bfs_order(tree).iter() {
        if let Some(p) = tree.parent(v) {
            result[v as usize] = result[p as usize].combine(values[v as usize]);
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monoid::{Add, Max};
    use rand::prelude::*;
    use spatial_tree::generators;

    #[test]
    fn bottom_up_sizes() {
        let t = generators::perfect_kary(2, 3);
        let ones = vec![Add(1); t.n() as usize];
        let sums = treefix_bottom_up_host(&t, &ones);
        let sizes: Vec<u64> = sums.iter().map(|a| a.0).collect();
        let expect: Vec<u64> = t.subtree_sizes().iter().map(|&s| s as u64).collect();
        assert_eq!(sizes, expect);
    }

    #[test]
    fn top_down_depths() {
        let t = generators::comb(20);
        let ones = vec![Add(1); 20];
        let sums = treefix_top_down_host(&t, &ones);
        let got: Vec<u64> = sums.iter().map(|a| a.0).collect();
        let expect: Vec<u64> = t.depths().iter().map(|&d| d as u64 + 1).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn any_parents_first_order_gives_the_same_sums() {
        // BFS order, a DFS preorder and the preorder with every sibling
        // list reversed, into one reused buffer that first served a
        // larger tree and then a smaller one.
        let mut rng = StdRng::seed_from_u64(3);
        let big = generators::uniform_random(500, &mut rng);
        let t = generators::uniform_random(200, &mut rng);
        let values: Vec<Add> = (0..200u64).map(|v| Add(v * 7 + 1)).collect();
        let want = treefix_bottom_up_host(&t, &values);
        let mut out = Vec::new();
        treefix_bottom_up_host_into(
            big.parents(),
            &spatial_tree::traversal::bfs_order(&big),
            |_| Add(1),
            &mut out,
        );
        assert_eq!(out[big.root() as usize], Add(500));
        let preorder = |reversed: bool| {
            let mut order = Vec::new();
            let mut stack = vec![t.root()];
            while let Some(v) = stack.pop() {
                order.push(v);
                let kids = t.children(v);
                if reversed {
                    stack.extend(kids.iter());
                } else {
                    stack.extend(kids.iter().rev());
                }
            }
            order
        };
        for order in [preorder(false), preorder(true)] {
            treefix_bottom_up_host_into(t.parents(), &order, |v| values[v as usize], &mut out);
            assert_eq!(out, want);
        }
    }

    #[test]
    fn bottom_up_max() {
        let t = generators::path(5);
        let vals: Vec<Max> = [3u64, 9, 1, 7, 2].iter().map(|&v| Max(v)).collect();
        let got = treefix_bottom_up_host(&t, &vals);
        assert_eq!(got, vec![Max(9), Max(9), Max(7), Max(7), Max(2)]);
    }
}
