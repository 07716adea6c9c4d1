//! Commutative monoids for treefix sums.
//!
//! "Any associative operator may be used instead of a sum" (§V); the
//! uncontraction additionally needs commutativity because sibling
//! aggregates re-attach out of order. Each monoid is a `Copy` newtype so
//! the per-processor state stays a fixed-size value, honouring the
//! model's O(1) memory per processor.

/// A commutative monoid: an associative, commutative [`combine`] with an
/// [`identity`] element.
///
/// [`combine`]: CommutativeMonoid::combine
/// [`identity`]: CommutativeMonoid::identity
pub trait CommutativeMonoid: Copy + Send + Sync + PartialEq + std::fmt::Debug {
    /// The identity element (`identity ⊕ x = x`).
    fn identity() -> Self;
    /// The monoid operation.
    fn combine(self, other: Self) -> Self;
}

/// Addition over `u64` (wrapping, so huge synthetic workloads never
/// panic in debug builds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Add(pub u64);

impl CommutativeMonoid for Add {
    fn identity() -> Self {
        Add(0)
    }
    fn combine(self, other: Self) -> Self {
        Add(self.0.wrapping_add(other.0))
    }
}

/// Maximum over `u64` (identity 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Max(pub u64);

impl CommutativeMonoid for Max {
    fn identity() -> Self {
        Max(0)
    }
    fn combine(self, other: Self) -> Self {
        Max(self.0.max(other.0))
    }
}

/// Minimum over `u64` (identity `u64::MAX`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Min(pub u64);

impl CommutativeMonoid for Min {
    fn identity() -> Self {
        Min(u64::MAX)
    }
    fn combine(self, other: Self) -> Self {
        Min(self.0.min(other.0))
    }
}

/// Bitwise XOR over `u64` — a commutative *group*, handy for tests
/// because every element is its own inverse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Xor(pub u64);

impl CommutativeMonoid for Xor {
    fn identity() -> Self {
        Xor(0)
    }
    fn combine(self, other: Self) -> Self {
        Xor(self.0 ^ other.0)
    }
}

impl<A: CommutativeMonoid, B: CommutativeMonoid> CommutativeMonoid for (A, B) {
    fn identity() -> Self {
        (A::identity(), B::identity())
    }
    fn combine(self, other: Self) -> Self {
        (self.0.combine(other.0), self.1.combine(other.1))
    }
}

impl<A: CommutativeMonoid, B: CommutativeMonoid, C: CommutativeMonoid> CommutativeMonoid
    for (A, B, C)
{
    fn identity() -> Self {
        (A::identity(), B::identity(), C::identity())
    }
    fn combine(self, other: Self) -> Self {
        (
            self.0.combine(other.0),
            self.1.combine(other.1),
            self.2.combine(other.2),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_axioms<M: CommutativeMonoid>(items: &[M]) {
        for &a in items {
            assert_eq!(M::identity().combine(a), a, "left identity");
            assert_eq!(a.combine(M::identity()), a, "right identity");
            for &b in items {
                assert_eq!(a.combine(b), b.combine(a), "commutativity");
                for &c in items {
                    assert_eq!(
                        a.combine(b).combine(c),
                        a.combine(b.combine(c)),
                        "associativity"
                    );
                }
            }
        }
    }

    #[test]
    fn add_axioms() {
        check_axioms(&[Add(0), Add(1), Add(17), Add(u64::MAX)]);
    }

    #[test]
    fn max_axioms() {
        check_axioms(&[Max(0), Max(5), Max(u64::MAX)]);
    }

    #[test]
    fn min_axioms() {
        check_axioms(&[Min(0), Min(5), Min(u64::MAX)]);
    }

    #[test]
    fn xor_axioms() {
        check_axioms(&[Xor(0), Xor(0b1010), Xor(u64::MAX)]);
    }

    #[test]
    fn wrapping_add() {
        assert_eq!(Add(u64::MAX).combine(Add(2)), Add(1));
    }

    #[test]
    fn tuple_monoids() {
        check_axioms(&[(Add(1), Max(2)), (Add(0), Max(0)), (Add(9), Max(u64::MAX))]);
        check_axioms(&[(Add(1), Max(2), Min(3)), (Add(7), Max(0), Min(u64::MAX))]);
        // One fused treefix computes several aggregates at once.
        let combined = (Add(3), Max(5), Min(5)).combine((Add(4), Max(2), Min(2)));
        assert_eq!(combined, (Add(7), Max(5), Min(2)));
    }
}
