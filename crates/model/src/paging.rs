//! Model-charged paging: out-of-core residency priced in the machine's
//! own currency.
//!
//! When a forest serves queries out of an mmap-backed snapshot, the
//! slabs live "outside" the grid — a cold page touched mid-session is
//! a fetch from far-away storage. The spatial model already has a unit
//! for exactly that: a *long-distance message*. [`PagedMachine`] tracks
//! which pages of the mapped file are resident under a configurable
//! budget and charges every fault as one message whose energy is the
//! grid diameter `max(2·(side − 1), 1)` — the farthest two processors
//! can be — plus one unit of work and one unit of depth. Evictions are
//! free: the mapping is read-only, there is nothing to write back.
//!
//! Residency uses plain LRU. LRU is a stack algorithm (the resident
//! set under budget `k` is always a subset of the set under `k + 1`),
//! so fault counts are monotone non-increasing in the budget — a
//! property the differential suite pins (`tests/integration_ooc.rs`)
//! and the charge tables rely on to stay interpretable.
//!
//! Charges accumulate session-locally and are published in one batch
//! by [`PagedMachine::commit_session`], so a paging run's `SessionReport`
//! differs from its fully-resident twin *only* by the explicit
//! [`PagingReport`] rows — every other meter stays bit-identical.

use crate::engine::vec_bytes;
use crate::CostReport;
use std::ops::Add;

/// Residency configuration for a paged (mmap-backed) forest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PagingConfig {
    /// Bytes per page — the granularity of residency and fault
    /// charging.
    pub page_bytes: u64,
    /// How many pages may be resident at once; touching a cold page
    /// beyond this budget evicts the least-recently-used one.
    pub resident_pages: usize,
}

impl Default for PagingConfig {
    fn default() -> Self {
        PagingConfig {
            page_bytes: 4096,
            resident_pages: 64,
        }
    }
}

/// The paging meters: what out-of-core residency cost, in model terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PagingReport {
    /// The model charge for all faults (energy = diameter per fault).
    pub charge: CostReport,
    /// Cold-page touches (each is one long-distance message).
    pub faults: u64,
    /// Pages dropped to stay within the resident budget (free).
    pub evictions: u64,
}

impl Add for PagingReport {
    type Output = PagingReport;

    fn add(self, rhs: PagingReport) -> PagingReport {
        PagingReport {
            charge: self.charge + rhs.charge,
            faults: self.faults + rhs.faults,
            evictions: self.evictions + rhs.evictions,
        }
    }
}

/// An LRU residency tracker that prices cold-page touches as
/// long-distance messages. See the module docs for the model argument.
#[derive(Debug)]
pub struct PagedMachine {
    page_bytes: u64,
    budget: usize,
    /// Resident page ids, LRU at the front, MRU at the back. The
    /// budget is small by design (it *is* the out-of-core premise), so
    /// a linear scan beats a map.
    lru: Vec<u64>,
    session: PagingReport,
    lifetime: PagingReport,
}

impl PagedMachine {
    /// Heap bytes of the resident-set tracker.
    pub fn resident_bytes(&self) -> usize {
        vec_bytes(&self.lru)
    }

    /// A paged machine with an empty resident set.
    pub fn new(cfg: PagingConfig) -> Self {
        let budget = cfg.resident_pages.max(1);
        PagedMachine {
            page_bytes: cfg.page_bytes.max(1),
            budget,
            lru: Vec::with_capacity(budget),
            session: PagingReport::default(),
            lifetime: PagingReport::default(),
        }
    }

    /// Touches the byte range `[start, start + len)` of the mapped
    /// file. Every page in the range that is not resident faults:
    /// `fault_energy` (the grid diameter at touch time), one message,
    /// one work op, one depth step; the LRU page is evicted when the
    /// budget is full. Warm pages just move to MRU, free of charge.
    pub fn touch_range(&mut self, start: u64, len: u64, fault_energy: u64) {
        if len == 0 {
            return;
        }
        let first = start / self.page_bytes;
        let last = (start + len - 1) / self.page_bytes;
        for page in first..=last {
            self.touch_page(page, fault_energy);
        }
    }

    fn touch_page(&mut self, page: u64, fault_energy: u64) {
        if let Some(pos) = self.lru.iter().position(|&p| p == page) {
            // Warm hit: refresh recency only.
            self.lru.remove(pos);
            self.lru.push(page);
            return;
        }
        if self.lru.len() == self.budget {
            self.lru.remove(0);
            self.session.evictions += 1;
        }
        self.lru.push(page);
        self.session.faults += 1;
        self.session.charge.energy += fault_energy;
        self.session.charge.messages += 1;
        self.session.charge.work += 1;
        self.session.charge.depth += 1;
    }

    /// Publishes the session's accumulated paging charges in one batch,
    /// folds them into the lifetime meters, and resets the session
    /// meters. The resident
    /// set survives — residency is a property of the process, not the
    /// session.
    pub fn commit_session(&mut self) -> PagingReport {
        let session = self.session;
        self.lifetime = self.lifetime + session;
        self.session = PagingReport::default();
        session
    }

    /// Everything charged since construction, committed or not.
    pub fn lifetime(&self) -> PagingReport {
        self.lifetime + self.session
    }

    /// Currently resident page count.
    pub fn resident_pages(&self) -> usize {
        self.lru.len()
    }

    /// The configured residency budget in pages.
    pub fn budget(&self) -> usize {
        self.budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn touch_all(m: &mut PagedMachine, bytes: u64) {
        m.touch_range(0, bytes, 10);
    }

    #[test]
    fn cold_touches_fault_warm_touches_do_not() {
        let mut m = PagedMachine::new(PagingConfig {
            page_bytes: 64,
            resident_pages: 8,
        });
        m.touch_range(0, 256, 10); // pages 0..4, all cold
        assert_eq!(m.lifetime().faults, 4);
        assert_eq!(m.lifetime().charge.energy, 40);
        assert_eq!(m.lifetime().charge.messages, 4);
        assert_eq!(m.lifetime().charge.depth, 4);
        m.touch_range(0, 256, 10); // all warm now
        assert_eq!(m.lifetime().faults, 4);
        assert_eq!(m.lifetime().evictions, 0);
        assert_eq!(m.resident_pages(), 4);
    }

    #[test]
    fn range_boundaries_round_to_pages() {
        let mut m = PagedMachine::new(PagingConfig {
            page_bytes: 64,
            resident_pages: 8,
        });
        m.touch_range(63, 2, 1); // straddles pages 0 and 1
        assert_eq!(m.lifetime().faults, 2);
        m.touch_range(128, 0, 1); // empty touch is free
        assert_eq!(m.lifetime().faults, 2);
    }

    #[test]
    fn eviction_is_lru_and_free() {
        let mut m = PagedMachine::new(PagingConfig {
            page_bytes: 64,
            resident_pages: 2,
        });
        m.touch_range(0, 64, 5); // page 0
        m.touch_range(64, 64, 5); // page 1
        m.touch_range(0, 64, 5); // warm: page 0 becomes MRU
        m.touch_range(128, 64, 5); // page 2 evicts page 1 (LRU)
        assert_eq!(m.lifetime().evictions, 1);
        m.touch_range(0, 64, 5); // page 0 must still be resident
        assert_eq!(m.lifetime().faults, 3);
        m.touch_range(64, 64, 5); // page 1 was evicted: faults again
        assert_eq!(m.lifetime().faults, 4);
        // Eviction costs nothing beyond the faults themselves.
        assert_eq!(m.lifetime().charge.energy, 4 * 5);
    }

    #[test]
    fn commit_batches_like_local_charge() {
        let mut m = PagedMachine::new(PagingConfig {
            page_bytes: 64,
            resident_pages: 4,
        });
        touch_all(&mut m, 3 * 64);
        let first = m.commit_session();
        assert_eq!(first.faults, 3);
        // A second commit with no touches is empty…
        assert_eq!(m.commit_session(), PagingReport::default());
        // …but the resident set carried over: re-touching is free.
        touch_all(&mut m, 3 * 64);
        assert_eq!(m.commit_session(), PagingReport::default());
        assert_eq!(m.lifetime().faults, 3);
    }

    /// LRU is a stack algorithm: faults on the same touch trace are
    /// monotone non-increasing in the resident budget.
    #[test]
    fn faults_are_monotone_in_budget() {
        // A trace with reuse at several distances.
        let trace: Vec<u64> = [0u64, 1, 2, 3, 0, 1, 4, 5, 0, 2, 6, 1, 0, 3]
            .iter()
            .map(|p| p * 64)
            .collect();
        let mut prev = u64::MAX;
        for budget in 1..=8 {
            let mut m = PagedMachine::new(PagingConfig {
                page_bytes: 64,
                resident_pages: budget,
            });
            for &off in &trace {
                m.touch_range(off, 64, 1);
            }
            let faults = m.lifetime().faults;
            assert!(
                faults <= prev,
                "budget {budget}: {faults} faults > {prev} at smaller budget"
            );
            prev = faults;
        }
    }
}
