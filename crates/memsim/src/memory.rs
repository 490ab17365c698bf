//! The resident-page store: a capacity-bounded local memory.
//!
//! One page table holds every resident page. Its arena entry
//! (`Resident`) carries both the page's [`PageMeta`] and its
//! eviction-policy state, so a demand access is one index probe
//! (DESIGN.md §13).

use crate::evict::{EvictionPolicy, Evictor};
use crate::table::{PageTable, NIL};

/// Metadata kept per resident page for prefetch accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageMeta {
    /// Whether the page arrived via prefetch (vs. demand fetch).
    pub prefetched: bool,
    /// Whether the page has been demanded since arrival.
    pub touched: bool,
    /// Arrival tick.
    pub arrived: u64,
}

/// A resident page's table entry: its metadata and the state the
/// eviction policy keeps for it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Resident {
    /// Prefetch accounting.
    pub(crate) meta: PageMeta,
    /// LRU/FIFO: the next more recent page's slot (`NIL` = none).
    pub(crate) prev: u32,
    /// LRU/FIFO: the next less recent page's slot (`NIL` = none).
    pub(crate) next: u32,
    /// Random: the page's index in the victim vector.
    pub(crate) pos: u32,
    /// CLOCK: the second-chance bit.
    pub(crate) referenced: bool,
}

/// A capacity-bounded page memory with a pluggable eviction policy.
pub struct LocalMemory {
    capacity: usize,
    table: PageTable<Resident>,
    evictor: Evictor,
}

impl LocalMemory {
    /// Creates a memory of `capacity` pages with the given policy. The
    /// page table is allocated here, at its final size.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize, policy: EvictionPolicy) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            capacity,
            table: PageTable::with_capacity(capacity),
            evictor: Evictor::new(policy, capacity),
        }
    }

    /// Capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Resident page count.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.table.len() == 0
    }

    /// Whether `page` is resident.
    pub fn contains(&self, page: u64) -> bool {
        self.table.find(page).is_some()
    }

    /// Metadata of a resident page.
    pub fn meta(&self, page: u64) -> Option<&PageMeta> {
        let slot = self.table.find(page)?;
        Some(&self.table.slots()[slot as usize].value.meta)
    }

    /// Records a demand access to `page` and returns its metadata as it
    /// was *before* the access, or `None` (changing nothing) if the page
    /// is not resident. Marks the page as touched (useful-prefetch
    /// accounting) and notifies the eviction policy.
    pub fn access(&mut self, page: u64) -> Option<PageMeta> {
        let slot = self.table.find(page)?;
        let arena = self.table.slots_mut();
        let meta = &mut arena[slot as usize].value.meta;
        let before = *meta;
        meta.touched = true;
        self.evictor.on_access(arena, slot);
        Some(before)
    }

    /// Records a demand access to a resident page; returns `false` if
    /// the page is not resident. Marks prefetched pages as touched
    /// (useful-prefetch accounting).
    pub fn touch(&mut self, page: u64) -> bool {
        self.access(page).is_some()
    }

    /// Inserts `page`, evicting if full. Returns the evicted page's
    /// number and metadata, if any. Inserting a resident page is a
    /// no-op returning `None`.
    pub fn insert(&mut self, page: u64, prefetched: bool, now: u64) -> Option<(u64, PageMeta)> {
        if self.contains(page) {
            return None;
        }
        self.insert_absent(
            page,
            PageMeta {
                prefetched,
                touched: false,
                arrived: now,
            },
        )
    }

    /// [`insert`](Self::insert) of a page the caller knows is not
    /// resident, with its initial metadata. Inserting with `touched`
    /// set is the same as inserting and then [`touch`](Self::touch)ing:
    /// a fresh page is already the most recent and referenced one.
    pub(crate) fn insert_absent(&mut self, page: u64, meta: PageMeta) -> Option<(u64, PageMeta)> {
        // Evict before allocating, so the victim's slot is the one
        // reused (CLOCK sweeps slots in order; DESIGN.md §13).
        let evicted = if self.table.len() >= self.capacity {
            let victim = self.evictor.evict(self.table.slots_mut());
            let (victim_page, r) = self.table.remove(victim);
            Some((victim_page, r.meta))
        } else {
            None
        };
        let slot = self.table.insert(
            page,
            Resident {
                meta,
                prev: NIL,
                next: NIL,
                pos: NIL,
                referenced: false,
            },
        );
        self.evictor.on_insert(self.table.slots_mut(), slot);
        evicted
    }

    /// Invalidates a page (e.g. remote revocation in the disaggregated
    /// system). Returns its metadata if it was resident.
    pub fn invalidate(&mut self, page: u64) -> Option<PageMeta> {
        let slot = self.table.find(page)?;
        self.evictor.remove(self.table.slots_mut(), slot);
        Some(self.table.remove(slot).1.meta)
    }

    /// Drops every resident page (a node crash/restart loses local
    /// memory). Capacity and policy survive; contents do not. Pages are
    /// released in ascending page order, which fixes the order their
    /// slots are reused in.
    pub fn flush(&mut self) {
        let mut resident: Vec<(u64, u32)> = self.table.live().map(|(s, p, _)| (p, s)).collect();
        resident.sort_unstable();
        for (_, slot) in resident {
            self.evictor.remove(self.table.slots_mut(), slot);
            self.table.remove(slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_until_capacity_then_evict() {
        let mut m = LocalMemory::new(3, EvictionPolicy::Lru);
        assert!(m.insert(1, false, 0).is_none());
        assert!(m.insert(2, false, 1).is_none());
        assert!(m.insert(3, false, 2).is_none());
        assert_eq!(m.len(), 3);
        let (victim, _) = m.insert(4, false, 3).expect("eviction");
        assert_eq!(victim, 1, "LRU victim");
        assert_eq!(m.len(), 3);
        assert!(!m.contains(1) && m.contains(4));
    }

    #[test]
    fn touch_refreshes_lru_order_and_marks_prefetch_used() {
        let mut m = LocalMemory::new(2, EvictionPolicy::Lru);
        m.insert(1, true, 0);
        m.insert(2, false, 1);
        assert!(m.touch(1));
        assert!(m.meta(1).unwrap().touched);
        let (victim, meta) = m.insert(3, false, 2).unwrap();
        assert_eq!(victim, 2, "2 is now least recent");
        assert!(!meta.prefetched);
    }

    #[test]
    fn touch_missing_page_is_false() {
        let mut m = LocalMemory::new(2, EvictionPolicy::Lru);
        assert!(!m.touch(99));
    }

    #[test]
    fn double_insert_is_noop() {
        let mut m = LocalMemory::new(2, EvictionPolicy::Lru);
        m.insert(1, false, 0);
        assert!(m.insert(1, true, 5).is_none());
        // Original metadata is preserved.
        assert!(!m.meta(1).unwrap().prefetched);
    }

    #[test]
    fn invalidate_removes_from_policy_too() {
        let mut m = LocalMemory::new(2, EvictionPolicy::Lru);
        m.insert(1, false, 0);
        m.insert(2, false, 0);
        assert!(m.invalidate(1).is_some());
        assert!(m.invalidate(1).is_none());
        // Room for two more inserts without eviction.
        assert!(m.insert(3, false, 1).is_none());
        let (victim, _) = m.insert(4, false, 2).unwrap();
        assert_eq!(victim, 2);
    }

    #[test]
    fn evicted_metadata_reports_unused_prefetch() {
        let mut m = LocalMemory::new(1, EvictionPolicy::Lru);
        m.insert(1, true, 0);
        let (victim, meta) = m.insert(2, false, 1).unwrap();
        assert_eq!(victim, 1);
        assert!(meta.prefetched && !meta.touched, "pollution case");
    }

    const POLICIES: [EvictionPolicy; 4] = [
        EvictionPolicy::Lru,
        EvictionPolicy::Fifo,
        EvictionPolicy::Clock,
        EvictionPolicy::Random(1),
    ];

    /// Fills a memory of `capacity` with pages `0..capacity`.
    fn filled(capacity: u64, policy: EvictionPolicy) -> LocalMemory {
        let mut m = LocalMemory::new(capacity as usize, policy);
        for p in 0..capacity {
            assert!(m.insert(p, false, p).is_none());
        }
        m
    }

    #[test]
    fn insert_contains_len_for_all_policies() {
        for policy in POLICIES {
            let mut m = filled(2, policy);
            assert!(m.contains(0) && m.contains(1), "{policy:?}");
            assert_eq!(m.len(), 2, "{policy:?}");
            m.invalidate(0);
            assert!(!m.contains(0), "{policy:?}");
            assert_eq!(m.len(), 1, "{policy:?}");
        }
    }

    #[test]
    fn every_policy_evicts_resident_pages_only_once() {
        for policy in POLICIES {
            let mut m = filled(50, policy);
            let mut victims = Vec::new();
            for p in 50..100u64 {
                let (v, _) = m.insert(p, false, p).expect("full memory evicts");
                assert!(v < p && !m.contains(v), "{policy:?}: victim {v}");
                victims.push(v);
            }
            victims.sort_unstable();
            victims.dedup();
            assert_eq!(victims.len(), 50, "{policy:?}: distinct victims");
            assert_eq!(m.len(), 50, "{policy:?}");
        }
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut m = filled(3, EvictionPolicy::Lru);
        m.touch(0); // Order now (recent->old): 0, 2, 1.
        let victims: Vec<u64> = (3..6u64)
            .map(|p| m.insert(p, false, p).map_or(u64::MAX, |(v, _)| v))
            .collect();
        assert_eq!(victims, vec![1, 2, 0]);
    }

    #[test]
    fn fifo_ignores_accesses() {
        let mut m = filled(2, EvictionPolicy::Fifo);
        m.touch(0);
        assert_eq!(m.insert(2, false, 2).map(|(v, _)| v), Some(0));
    }

    #[test]
    fn clock_gives_second_chance() {
        let mut m = filled(2, EvictionPolicy::Clock);
        // Both referenced: the sweep clears both bits, then evicts 0.
        assert_eq!(m.insert(2, false, 2).map(|(v, _)| v), Some(0));
        // 2 reuses slot 0 referenced; 1 (slot 1) was cleared, and the
        // hand stands at slot 1.
        assert_eq!(m.insert(3, false, 3).map(|(v, _)| v), Some(1));
        // 2 was referenced on insert and 3 (slot 1) too: a full sweep
        // clears both and evicts slot 0's page.
        m.touch(3);
        assert_eq!(m.insert(4, false, 4).map(|(v, _)| v), Some(2));
    }

    #[test]
    fn fifo_invalidate_then_evict_skips_the_removed_page() {
        let mut m = filled(2, EvictionPolicy::Fifo);
        m.invalidate(0);
        m.insert(2, false, 2);
        assert_eq!(m.insert(3, false, 3).map(|(v, _)| v), Some(1));
    }

    /// Regression: FIFO used to keep an invalidated page's stale queue
    /// entry, so a re-inserted page was evicted at its old position.
    #[test]
    fn fifo_reinserted_page_is_evicted_at_its_new_position() {
        let mut m = filled(4, EvictionPolicy::Fifo);
        m.invalidate(1);
        m.insert(1, false, 4);
        // Queue (oldest first): 0, 2, 3, 1.
        let victims: Vec<u64> = (10..14u64)
            .map(|p| m.insert(p, false, p).map_or(u64::MAX, |(v, _)| v))
            .collect();
        assert_eq!(victims, vec![0, 2, 3, 1]);

        let mut m = LocalMemory::new(3, EvictionPolicy::Fifo);
        for p in 1..=3 {
            m.insert(p, false, p);
        }
        m.invalidate(1);
        m.insert(1, false, 4);
        assert_eq!(m.insert(4, false, 5).map(|(v, _)| v), Some(2));
    }

    #[test]
    fn flush_empties_and_the_memory_refills_for_all_policies() {
        for policy in POLICIES {
            let mut m = filled(8, policy);
            m.flush();
            assert!(m.is_empty(), "{policy:?}");
            assert!(!m.contains(3), "{policy:?}");
            for p in 100..108u64 {
                assert!(m.insert(p, false, p).is_none(), "{policy:?}");
            }
            assert!(m.insert(200, false, 200).is_some(), "{policy:?}");
        }
    }

    #[test]
    fn access_returns_the_metadata_before_the_touch() {
        let mut m = LocalMemory::new(2, EvictionPolicy::Lru);
        m.insert(1, true, 7);
        let before = m.access(1).expect("resident");
        assert!(before.prefetched && !before.touched && before.arrived == 7);
        assert!(m.access(1).expect("resident").touched);
        assert_eq!(m.access(2), None);
    }
}
