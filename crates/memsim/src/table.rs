//! The simulator's page table: one open-addressed index from page
//! number to a slot in an entry arena.
//!
//! [`LocalMemory`](crate::memory::LocalMemory) keeps each resident
//! page's metadata *and* its eviction-policy state in one arena entry,
//! so a demand access costs one index probe. The simulator's in-flight
//! prefetch set is a second, smaller table of the same type.
//!
//! * **Index.** A power-of-two array of `(page, slot)` buckets with
//!   linear probing. The home bucket is the top bits of
//!   `page × 2⁶⁴/φ` (Fibonacci hashing): a fixed function, so bucket
//!   positions never depend on process state. Deletion shifts the rest
//!   of the probe run backwards, so there are no tombstones and probe
//!   lengths stay bounded by the load.
//! * **Load.** The index is sized once, at construction, to keep the
//!   load at or below ½ for the stated capacity. Inserting past that
//!   capacity doubles the index (a fallback for callers whose bound is
//!   only an estimate); the slot ids it maps to do not change.
//! * **Arena.** Entries live in a `Vec` indexed by slot id. Freed slots
//!   go on a LIFO free list and are reused before the arena grows, so
//!   slot assignment depends only on the insert/remove sequence. CLOCK
//!   sweeps the arena in slot order, which is why that order is part
//!   of the behaviour (DESIGN.md §13).
//! * **No hash-order iteration.** The only iteration is over the arena
//!   in slot order ([`PageTable::live`]); bucket order never reaches a
//!   caller.

/// "No slot": an empty bucket, and the null link of the policies'
/// intrusive lists.
pub(crate) const NIL: u32 = u32::MAX;

/// 2⁶⁴/φ, the Fibonacci-hashing multiplier.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Largest capacity that is preallocated up front; beyond it the index
/// grows on demand.
const MAX_PRESIZE: usize = 1 << 20;

#[derive(Debug, Clone, Copy)]
struct Bucket {
    page: u64,
    slot: u32,
}

const EMPTY: Bucket = Bucket { page: 0, slot: NIL };

/// One arena entry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot<T> {
    /// The page this entry belongs to (stale once freed).
    pub(crate) page: u64,
    /// Whether the entry is in use.
    pub(crate) live: bool,
    /// The caller's per-page state.
    pub(crate) value: T,
}

/// A deterministic map from page number to a `T`, stored in a
/// slot-addressed arena.
#[derive(Debug)]
pub(crate) struct PageTable<T> {
    buckets: Vec<Bucket>,
    /// `64 - log2(buckets.len())`: the hash keeps the top bits.
    shift: u32,
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T: Copy> PageTable<T> {
    /// A table preallocated for `capacity` entries at a load of at
    /// most ½.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        let presize = capacity.min(MAX_PRESIZE);
        let buckets = (2 * presize).next_power_of_two().max(2);
        Self {
            buckets: vec![EMPTY; buckets],
            shift: 64 - buckets.trailing_zeros(),
            slots: Vec::with_capacity(presize),
            free: Vec::with_capacity(presize),
            len: 0,
        }
    }

    /// Number of live entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    fn home(&self, page: u64) -> usize {
        (page.wrapping_mul(GOLDEN) >> self.shift) as usize
    }

    fn mask(&self) -> usize {
        self.buckets.len() - 1
    }

    /// The slot holding `page`, if present.
    pub(crate) fn find(&self, page: u64) -> Option<u32> {
        let mask = self.mask();
        let mut i = self.home(page);
        loop {
            let b = self.buckets[i];
            if b.slot == NIL {
                return None;
            }
            if b.page == page {
                return Some(b.slot);
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts `page`, which must be absent, and returns its slot: the
    /// most recently freed one, else a new one at the arena's end.
    pub(crate) fn insert(&mut self, page: u64, value: T) -> u32 {
        debug_assert!(self.find(page).is_none(), "page {page:#x} already present");
        if 2 * (self.len + 1) > self.buckets.len() {
            self.grow();
        }
        let entry = Slot {
            page,
            live: true,
            value,
        };
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = entry;
                s
            }
            None => {
                assert!(self.slots.len() < NIL as usize, "page table full");
                self.slots.push(entry);
                (self.slots.len() - 1) as u32
            }
        };
        self.place(Bucket { page, slot });
        self.len += 1;
        slot
    }

    fn place(&mut self, b: Bucket) {
        let mask = self.mask();
        let mut i = self.home(b.page);
        while self.buckets[i].slot != NIL {
            i = (i + 1) & mask;
        }
        self.buckets[i] = b;
    }

    /// Doubles the index and re-places every live entry, in slot order.
    fn grow(&mut self) {
        let buckets = self.buckets.len() * 2;
        self.buckets = vec![EMPTY; buckets];
        self.shift = 64 - buckets.trailing_zeros();
        for s in 0..self.slots.len() {
            let e = self.slots[s];
            if e.live {
                self.place(Bucket {
                    page: e.page,
                    slot: s as u32,
                });
            }
        }
    }

    /// Removes the live entry at `slot`, pushes the slot on the free
    /// list and returns the entry's page and value.
    pub(crate) fn remove(&mut self, slot: u32) -> (u64, T) {
        let e = &mut self.slots[slot as usize];
        // A free slot has no bucket: the search below would not end.
        assert!(e.live, "removing free slot {slot}");
        e.live = false;
        let (page, value) = (e.page, e.value);
        let mask = self.mask();
        let mut hole = self.home(page);
        while self.buckets[hole].slot != slot {
            hole = (hole + 1) & mask;
        }
        // Backward-shift deletion: pull each later bucket of the probe
        // run into the hole unless the hole lies before its home.
        let mut j = (hole + 1) & mask;
        loop {
            let b = self.buckets[j];
            if b.slot == NIL {
                break;
            }
            let from_home = j.wrapping_sub(self.home(b.page)) & mask;
            if from_home >= (j.wrapping_sub(hole) & mask) {
                self.buckets[hole] = b;
                hole = j;
            }
            j = (j + 1) & mask;
        }
        self.buckets[hole] = EMPTY;
        self.free.push(slot);
        self.len -= 1;
        (page, value)
    }

    /// The arena, in slot order (free entries included, `live == false`).
    pub(crate) fn slots(&self) -> &[Slot<T>] {
        &self.slots
    }

    /// The arena, mutably. Callers may change `value` only: `page` and
    /// `live` belong to the table.
    pub(crate) fn slots_mut(&mut self) -> &mut [Slot<T>] {
        &mut self.slots
    }

    /// The live entries as `(slot, page, value)`, in slot order.
    pub(crate) fn live(&self) -> impl Iterator<Item = (u32, u64, &T)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, e)| e.live)
            .map(|(s, e)| (s as u32, e.page, &e.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn freed_slots_are_reused_lifo() {
        let mut t = PageTable::with_capacity(4);
        let a = t.insert(10, ());
        let b = t.insert(20, ());
        let c = t.insert(30, ());
        assert_eq!((a, b, c), (0, 1, 2));
        t.remove(a);
        t.remove(c);
        assert_eq!(t.insert(40, ()), c, "last freed first");
        assert_eq!(t.insert(50, ()), a);
        assert_eq!(t.insert(60, ()), 3, "then the arena grows");
    }

    #[test]
    fn grows_past_its_presize_without_moving_slots() {
        let mut t = PageTable::with_capacity(1);
        for p in 0..100u64 {
            assert_eq!(t.insert(p * 7, p), p as u32);
        }
        for p in 0..100u64 {
            assert_eq!(t.find(p * 7), Some(p as u32));
        }
        assert_eq!(t.find(1), None);
    }

    #[test]
    fn colliding_pages_survive_deletion_from_the_middle_of_a_run() {
        // Four pages sharing one home bucket form a single probe run.
        let mut t = PageTable::with_capacity(4);
        let home = t.home(0);
        let pages: Vec<u64> = (0u64..).filter(|&p| t.home(p) == home).take(4).collect();
        let slots: Vec<u32> = pages.iter().map(|&p| t.insert(p, p)).collect();
        t.remove(slots[1]);
        assert_eq!(t.find(pages[1]), None);
        for i in [0, 2, 3] {
            assert_eq!(t.find(pages[i]), Some(slots[i]));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any insert/remove sequence agrees with an ordered map.
        #[test]
        fn matches_an_ordered_map(
            capacity in 1usize..32,
            ops in proptest::collection::vec((any::<bool>(), 0u64..48), 1..400),
        ) {
            let mut t = PageTable::with_capacity(capacity);
            let mut model: BTreeMap<u64, u32> = BTreeMap::new();
            for (remove, page) in ops {
                match (remove, model.get(&page).copied()) {
                    (true, Some(slot)) => {
                        prop_assert_eq!(t.remove(slot), (page, page));
                        model.remove(&page);
                    }
                    (false, None) => {
                        let slot = t.insert(page, page);
                        model.insert(page, slot);
                    }
                    _ => {}
                }
                prop_assert_eq!(t.len(), model.len());
                for p in 0u64..48 {
                    prop_assert_eq!(t.find(p), model.get(&p).copied());
                }
                let live: Vec<(u64, u32)> = t.live().map(|(s, p, _)| (p, s)).collect();
                let mut sorted = live.clone();
                sorted.sort_unstable();
                prop_assert_eq!(sorted, model.iter().map(|(&p, &s)| (p, s)).collect::<Vec<_>>());
            }
        }
    }
}
