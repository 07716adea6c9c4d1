//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no crate registry, so the workspace ships
//! this minimal substitute. It holds only the parallel *iterator*
//! adapters (`par_iter`, `into_par_iter`, …), and they are the
//! equivalent sequential [`Iterator`] chains. No kernel forks: the
//! engines simulate the paper's depth on the machine's dependency
//! clocks, and a service's parallelism is one worker per shard.

/// Sequential stand-ins for rayon's parallel iterator traits.
pub mod iter {
    /// `into_par_iter()` for owned collections and ranges: yields the
    /// ordinary sequential iterator, so every adapter (`map`, `filter`,
    /// `step_by`, `sum`, `collect`, …) is the std one.
    pub trait IntoParallelIterator: IntoIterator + Sized {
        /// The "parallel" (here: sequential) iterator type.
        fn into_par_iter(self) -> Self::IntoIter {
            self.into_iter()
        }
    }

    impl<I: IntoIterator> IntoParallelIterator for I {}

    /// `par_iter()` for slices (and everything that derefs to one).
    pub trait ParallelSlice<T> {
        /// Sequential stand-in for `rayon`'s `par_iter`.
        fn par_iter(&self) -> std::slice::Iter<'_, T>;
    }

    impl<T> ParallelSlice<T> for [T] {
        fn par_iter(&self) -> std::slice::Iter<'_, T> {
            self.iter()
        }
    }
}

/// The commonly-imported names, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::iter::{IntoParallelIterator, ParallelSlice};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn iterator_adapters_compose() {
        let total: u64 = (0..100u64).into_par_iter().step_by(2).map(|v| v + 1).sum();
        assert_eq!(total, 2500);
        let v = [3u32, 1, 2];
        assert_eq!(v.par_iter().max(), Some(&3));
        let doubled: Vec<u32> = v.par_iter().map(|&x| 2 * x).collect();
        assert_eq!(doubled, vec![6, 2, 4]);
    }
}
