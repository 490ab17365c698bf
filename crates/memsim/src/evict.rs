//! Residency/eviction policies.
//!
//! A policy picks a victim when the memory is full. LRU is the
//! reference policy (the paper's simulations use a plain
//! capacity-bounded memory); FIFO, CLOCK and random exist for
//! sensitivity studies.
//!
//! Policies keep no page index of their own: they work on the slot ids
//! of [`LocalMemory`](crate::memory::LocalMemory)'s page table, whose
//! arena entries carry each page's policy state (`Resident`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::memory::Resident;
use crate::table::{Slot, NIL};

/// Selects an eviction policy implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Least-recently-used.
    Lru,
    /// First-in-first-out.
    Fifo,
    /// CLOCK (second chance).
    Clock,
    /// Uniform random victim, seeded.
    Random(u64),
}

/// The page table's arena.
type Arena = [Slot<Resident>];

fn state(arena: &mut Arena, slot: u32) -> &mut Resident {
    &mut arena[slot as usize].value
}

/// A doubly linked list threaded through the arena's `prev`/`next`
/// links: head = most recently inserted (or, for LRU, used).
#[derive(Debug)]
pub(crate) struct List {
    head: u32,
    tail: u32,
}

impl List {
    fn push_front(&mut self, arena: &mut Arena, s: u32) {
        let old = self.head;
        let r = state(arena, s);
        r.prev = NIL;
        r.next = old;
        if old == NIL {
            self.tail = s;
        } else {
            state(arena, old).prev = s;
        }
        self.head = s;
    }

    fn unlink(&mut self, arena: &mut Arena, s: u32) {
        let Resident { prev, next, .. } = *state(arena, s);
        if prev == NIL {
            self.head = next;
        } else {
            state(arena, prev).next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            state(arena, next).prev = prev;
        }
    }
}

/// A policy's global state; per-page state lives in [`Resident`].
#[derive(Debug)]
pub(crate) enum Evictor {
    /// Evicts the list tail; an access moves the page to the head.
    Lru(List),
    /// Evicts the list tail; accesses do not reorder.
    Fifo(List),
    /// Sweeps the arena in slot order, clearing referenced bits, and
    /// evicts the first unreferenced page.
    Clock {
        /// Next slot the sweep inspects.
        hand: usize,
    },
    /// Evicts a uniformly drawn entry of `order` (resident slots; each
    /// page's `pos` is its index here).
    Random {
        /// Resident slots, in swap-remove order.
        order: Vec<u32>,
        /// Victim draws.
        rng: StdRng,
    },
}

impl Evictor {
    /// The policy's empty state for a memory of `capacity` pages.
    pub(crate) fn new(policy: EvictionPolicy, capacity: usize) -> Self {
        let list = List {
            head: NIL,
            tail: NIL,
        };
        match policy {
            EvictionPolicy::Lru => Evictor::Lru(list),
            EvictionPolicy::Fifo => Evictor::Fifo(list),
            EvictionPolicy::Clock => Evictor::Clock { hand: 0 },
            EvictionPolicy::Random(seed) => Evictor::Random {
                order: Vec::with_capacity(capacity),
                rng: StdRng::seed_from_u64(seed),
            },
        }
    }

    /// Registers the page just inserted at `slot`.
    pub(crate) fn on_insert(&mut self, arena: &mut Arena, slot: u32) {
        match self {
            Evictor::Lru(list) | Evictor::Fifo(list) => list.push_front(arena, slot),
            Evictor::Clock { .. } => state(arena, slot).referenced = true,
            Evictor::Random { order, .. } => {
                state(arena, slot).pos = order.len() as u32;
                order.push(slot);
            }
        }
    }

    /// Notes a demand access to the page at `slot`.
    pub(crate) fn on_access(&mut self, arena: &mut Arena, slot: u32) {
        match self {
            Evictor::Lru(list) => {
                if list.head != slot {
                    list.unlink(arena, slot);
                    list.push_front(arena, slot);
                }
            }
            Evictor::Clock { .. } => state(arena, slot).referenced = true,
            Evictor::Fifo(_) | Evictor::Random { .. } => {}
        }
    }

    /// Picks the victim, detaches it from the policy and returns its
    /// slot; the caller frees the slot. At least one page must be
    /// resident.
    pub(crate) fn evict(&mut self, arena: &mut Arena) -> u32 {
        match self {
            Evictor::Lru(list) | Evictor::Fifo(list) => {
                let victim = list.tail;
                list.unlink(arena, victim);
                victim
            }
            Evictor::Clock { hand } => loop {
                if *hand >= arena.len() {
                    *hand = 0;
                }
                let h = *hand;
                *hand += 1;
                let e = &mut arena[h];
                if e.live {
                    if e.value.referenced {
                        e.value.referenced = false;
                    } else {
                        return h as u32;
                    }
                }
            },
            Evictor::Random { order, rng } => {
                let i = rng.gen_range(0..order.len());
                Self::swap_remove(order, arena, i)
            }
        }
    }

    /// Detaches the page at `slot` (invalidation, flush).
    pub(crate) fn remove(&mut self, arena: &mut Arena, slot: u32) {
        match self {
            Evictor::Lru(list) | Evictor::Fifo(list) => list.unlink(arena, slot),
            Evictor::Clock { .. } => {}
            Evictor::Random { order, .. } => {
                let i = state(arena, slot).pos as usize;
                Self::swap_remove(order, arena, i);
            }
        }
    }

    fn swap_remove(order: &mut Vec<u32>, arena: &mut Arena, i: usize) -> u32 {
        let slot = order.swap_remove(i);
        if let Some(&moved) = order.get(i) {
            state(arena, moved).pos = i as u32;
        }
        slot
    }
}
