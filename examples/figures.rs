//! Regenerates the structural figures of the paper as ASCII art.
//!
//! - **Fig. 1**: a tree stored in Hilbert-light-first order — the
//!   smaller subtree first, mapped onto the curve.
//! - **Fig. 2**: 16 elements in Z-order, with the longest diagonal for
//!   `i = 6, j = 10` (`Ed(6, 10) = 4`).
//! - **Fig. 8**: the path decomposition / subtree cover example, with
//!   per-vertex light-first positions, layers, and subtree ranges.
//!
//! ```sh
//! cargo run --release --example figures
//! ```

use spatial_trees::lca::SubtreeCover;
use spatial_trees::prelude::*;
use spatial_trees::sfc::zorder::{longest_diagonal, ZOrderCurve};
use spatial_trees::sfc::{Curve, CurveKind};
use spatial_trees::tree::HeavyPathDecomposition;

fn main() {
    figure1();
    figure2();
    figure8();
}

/// Prints a grid with the vertex stored at each cell.
fn render_layout(layout: &spatial_trees::layout::Layout) {
    let side = layout.machine().side();
    let mut grid = vec![vec![String::from("  ."); side as usize]; side as usize];
    for v in 0..layout.n() {
        let p = layout.point(v);
        grid[p.y as usize][p.x as usize] = format!("{v:>3}");
    }
    for row in grid {
        println!("    {}", row.join(" "));
    }
}

fn figure1() {
    println!("== Figure 1: a tree in Hilbert-light-first order ==");
    // The tree from the figure: root r with a small subtree c1 and a
    // larger subtree c2. Concretely: r=0; c1=1 (2 leaves); c2=2 (a
    // 3-level subtree).
    let parents = vec![
        spatial_trees::tree::NIL, // 0 = r
        0,                        // 1 = c1
        0,                        // 2 = c2
        1,
        1, // c1's leaves
        2,
        2, // c2's children
        5,
        5,
        6,
        6, // c2's grandchildren
    ];
    let tree = Tree::from_parents(0, parents);
    let st = SpatialTree::new(tree);
    println!(
        "  light-first linear order (s(c1)={} ≤ s(c2)={} ⇒ c1 first):",
        st.sizes()[1],
        st.sizes()[2]
    );
    println!("    {:?}", st.layout().order());
    println!("  mapped onto the Hilbert curve:");
    render_layout(st.layout());
    println!(
        "  kernel energy: {} for {} edges (mean {:.2})\n",
        st.messaging_energy(),
        st.n() - 1,
        st.messaging_energy() as f64 / (st.n() - 1) as f64
    );
}

fn figure2() {
    println!("== Figure 2: 16 elements stored in Z-order ==");
    let c = ZOrderCurve::new(4);
    for y in 0..4 {
        let row: Vec<String> = (0..4)
            .map(|x| format!("{:>2}", c.index(spatial_trees::model::GridPoint::new(x, y))))
            .collect();
        println!("    {}", row.join(" "));
    }
    let ed = longest_diagonal(&c, 6, 10);
    println!("  longest diagonal between i=6 and j=10: Ed(6, 10) = {ed}");
    println!(
        "  (the jump 7 → 8 crosses from {} to {})\n",
        c.point(7),
        c.point(8)
    );
}

fn figure8() {
    println!("== Figure 8: path decomposition and subtree cover ==");
    // The 8-vertex tree of the figure: 0→(1,4), 1→(2,3), 4→(5,6), 6→7.
    let tree = Tree::from_parents(0, vec![spatial_trees::tree::NIL, 0, 1, 1, 0, 4, 4, 6]);
    let sizes = tree.subtree_sizes();
    let decomposition = HeavyPathDecomposition::with_sizes(&tree, &sizes);
    let layout = spatial_trees::layout::Layout::light_first(&tree, CurveKind::Hilbert);
    let cover = SubtreeCover::new(tree.parents(), &layout, &decomposition, &sizes);

    println!("  vertex: light-first position, layer");
    for v in tree.vertices() {
        println!(
            "    {v}: position {}, layer {}",
            layout.slot(v),
            decomposition.layer[v as usize]
        );
    }
    println!("  subtree cover (per layer, as light-first ranges):");
    for li in 0..cover.num_layers() {
        let ranges: Vec<String> = cover
            .layer(li)
            .map(|s| format!("S(root {}) = [{}, {}]", s.root, s.lo, s.hi - 1))
            .collect();
        println!("    layer {li}: {}", ranges.join(", "));
    }
    println!("  decomposition paths:");
    for li in 0..cover.num_layers() {
        for h in decomposition.layer_heads(li) {
            let mut path = vec![h];
            let mut at = h;
            while decomposition.heavy_child[at as usize] != spatial_trees::tree::NIL {
                at = decomposition.heavy_child[at as usize];
                path.push(at);
            }
            println!("    layer {li}: {path:?}");
        }
    }
}
