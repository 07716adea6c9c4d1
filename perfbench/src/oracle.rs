//! Host-side answer oracle for one tenant: `HostLca` for LCA,
//! reverse-BFS weighted sums for subtree sums, and `rank_sequential`
//! over the light-first Euler tour for ranks. It follows the tenant's
//! inserts, so answers stay checkable across mutations.

use spatial_euler::ranking::rank_sequential;
use spatial_euler::tour::{down, EulerTour};
use spatial_lca::HostLca;
use spatial_session::{Request, Response};
use spatial_tree::traversal::bfs_order;
use spatial_tree::{ChildrenCsr, NodeId, Tree, NIL};

/// The expected answers of one tenant, maintained across inserts.
/// Each answer structure is built lazily on the current tree and
/// dropped by the next insert.
#[derive(Debug, Clone)]
pub struct Oracle {
    root: NodeId,
    parents: Vec<NodeId>,
    weights: Vec<u64>,
    tree: Option<Tree>,
    lca: Option<HostLca>,
    sums: Option<Vec<u64>>,
    ranks: Option<Vec<u64>>,
}

impl Oracle {
    /// An oracle over `tree` with unit weights (the forest's default).
    pub fn new(tree: &Tree) -> Self {
        Oracle {
            root: tree.root(),
            parents: tree.parents().to_vec(),
            weights: vec![1; tree.n() as usize],
            tree: None,
            lca: None,
            sums: None,
            ranks: None,
        }
    }

    /// Current number of vertices.
    pub fn n(&self) -> u32 {
        self.parents.len() as u32
    }

    /// The expected response to `req`, applying it if it is an insert.
    pub fn answer(&mut self, req: Request) -> Response {
        match req {
            Request::InsertLeaf { parent, weight } => {
                let v = self.n();
                self.parents.push(parent);
                self.weights.push(weight);
                self.tree = None;
                self.lca = None;
                self.sums = None;
                self.ranks = None;
                Response::InsertedLeaf(v)
            }
            Request::Lca(a, b) => {
                if self.lca.is_none() {
                    self.lca = Some(HostLca::new(self.tree()));
                }
                Response::Lca(self.lca.as_ref().expect("built above").query(a, b))
            }
            Request::SubtreeSum(v) => {
                if self.sums.is_none() {
                    let mut sums = self.weights.clone();
                    for &u in bfs_order(self.tree()).iter().rev() {
                        let p = self.parents[u as usize];
                        if p != NIL {
                            sums[p as usize] += sums[u as usize];
                        }
                    }
                    self.sums = Some(sums);
                }
                Response::SubtreeSum(self.sums.as_ref().expect("built above")[v as usize])
            }
            Request::Rank(v) => {
                if self.ranks.is_none() {
                    let tree = self.tree();
                    let csr = ChildrenCsr::by_size(tree, &tree.subtree_sizes());
                    let tour = EulerTour::light_first_from_csr(tree, &csr);
                    self.ranks = Some(rank_sequential(tour.next_darts(), tour.start()));
                }
                let rank = if v == self.root {
                    0
                } else {
                    self.ranks.as_ref().expect("built above")[down(v) as usize] + 1
                };
                Response::Rank(rank)
            }
        }
    }

    fn tree(&mut self) -> &Tree {
        if self.tree.is_none() {
            self.tree = Some(Tree::from_parents(self.root, self.parents.clone()));
        }
        self.tree.as_ref().expect("built above")
    }
}
