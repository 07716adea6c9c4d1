//! Counting-allocator proof that [`LayoutEngine::build_into`] performs
//! **zero heap allocation** after engine setup — the same harness as
//! the ranking and treefix engines' `alloc_free` tests.
//!
//! The gate opens right after [`LayoutEngine::new`] — the first build
//! is allocation-free too, since the engine's machines allocate their
//! clocks and round staging when `new` builds them — and closes before
//! the results are inspected.
//! This binary holds exactly one live `#[test]` so no concurrent test
//! can pollute the count.

use rand::prelude::*;
use spatial_layout::engine::LayoutEngine;
use spatial_model::CurveKind;
use spatial_tree::{generators, traversal};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::count_allocations;

#[test]
fn build_into_does_not_allocate() {
    for (n, tree_seed) in [(256u32, 1u64), (1000, 2), (4097, 3)] {
        let tree = generators::uniform_random(n, &mut StdRng::seed_from_u64(tree_seed));
        let mut engine = LayoutEngine::new(&tree, CurveKind::Hilbert);
        let mut rng = StdRng::seed_from_u64(7);

        // The first two runs, inside the gate: a fresh engine and a
        // reused one — both must be clean.
        let (reports, allocs) = count_allocations(|| {
            let r1 = engine.build_into(&mut rng);
            let r2 = engine.build_into(&mut rng);
            (r1, r2)
        });
        assert_eq!(
            engine.order(),
            &traversal::light_first_order(&tree)[..],
            "n = {n}: wrong layout"
        );
        assert!(reports.0.total().energy > 0 && reports.1.total().energy > 0);
        assert_eq!(
            allocs, 0,
            "n = {n}: build_into() allocated {allocs} times after setup"
        );
    }
}
