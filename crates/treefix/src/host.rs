//! Host (non-spatial) reference implementations of treefix sums.
//!
//! Used to verify the spatial contraction algorithm and as the
//! sequential baseline in the wall-clock benchmarks. Both passes run on
//! the calling thread; the spatial algorithm's low depth is charged on
//! the machine, not forked on the host.

use crate::monoid::CommutativeMonoid;
use spatial_tree::Tree;

/// Bottom-up treefix: `result[v] = ⊕ values over the subtree of v`.
/// Sequential, one pass over reverse BFS order.
pub fn treefix_bottom_up_host<M: CommutativeMonoid>(tree: &Tree, values: &[M]) -> Vec<M> {
    assert_eq!(values.len() as u32, tree.n());
    let mut result = values.to_vec();
    let order = spatial_tree::traversal::bfs_order(tree);
    for &v in order.iter().rev() {
        if let Some(p) = tree.parent(v) {
            result[p as usize] = result[p as usize].combine(result[v as usize]);
        }
    }
    result
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
    fn bottom_up_max() {
        let t = generators::path(5);
        let vals: Vec<Max> = [3u64, 9, 1, 7, 2].iter().map(|&v| Max(v)).collect();
        let got = treefix_bottom_up_host(&t, &vals);
        assert_eq!(got, vec![Max(9), Max(9), Max(7), Max(7), Max(2)]);
    }
}
