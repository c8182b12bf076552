//! The Enclave Page Cache.
//!
//! Current SGX implementations reserve 128 MiB of system memory for the EPC
//! of which ≈93 MiB are usable for enclave pages; the rest holds integrity
//! metadata (§2.3.3). The EPC is shared between *all* running enclaves.
//! When it is full, the driver evicts pages to untrusted memory, which is
//! expensive (re-encryption + extra transitions).
//!
//! This module models only occupancy and the eviction decision; costs and
//! event delivery live in [`machine`](crate::machine). It is the
//! machine's only record of which pages are resident: the machine's
//! per-page state holds kinds and permissions, and every residency
//! question, count and page-in goes through `Epc`.
//!
//! Every operation is O(1) (amortised), so neither a fleet of thousands
//! of enclaves nor the pages every ecall touches slow the bookkeeping
//! down. Each resident page carries a stamp, kept in a dense vector per
//! enclave; the eviction order is a queue of `(stamp, page)` entries,
//! oldest first. Re-stamping a page (an LRU access) or tearing down its
//! enclave (which drops the enclave's whole stamp vector) leaves the old
//! entry behind. Victim selection skips such stale entries lazily, and
//! the queue is compacted once they outnumber the live ones, so it never
//! holds more than twice the resident pages.

use std::collections::VecDeque;

use crate::machine::EnclaveId;

/// Usable EPC capacity in pages: 93 MiB / 4 KiB.
pub const DEFAULT_EPC_PAGES: usize = 93 * 256;

/// Which page the driver evicts when the EPC is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EvictionPolicy {
    /// Evict the page that has been resident longest (insertion order) —
    /// approximates the Linux SGX driver's simple reclaim behaviour.
    #[default]
    Fifo,
    /// Evict the least recently *accessed* page.
    Lru,
}

pub(crate) type PageKey = (EnclaveId, usize);

/// The stamp of a page that is not resident.
const ABSENT: u64 = u64::MAX;

/// One enclave's resident pages.
#[derive(Debug, Default)]
struct Resident {
    /// Page index -> stamp, [`ABSENT`] when the page is not resident.
    stamps: Vec<u64>,
    /// How many entries of `stamps` are not [`ABSENT`].
    count: usize,
}

/// Occupancy tracker for the EPC.
#[derive(Debug)]
pub(crate) struct Epc {
    capacity: usize,
    policy: EvictionPolicy,
    /// `(stamp, page)` in stamp order, oldest first. An entry is live
    /// while its stamp is still the page's stamp; the others are stale.
    order: VecDeque<(u64, PageKey)>,
    /// Enclave id -> its resident pages. Ids are small and dense (the
    /// machine hands them out in sequence), so a vector indexes them.
    enclaves: Vec<Resident>,
    /// Resident pages across all enclaves.
    resident: usize,
    next_stamp: u64,
}

/// The stamp of `key`, or [`ABSENT`].
fn stamp_of(enclaves: &[Resident], key: PageKey) -> u64 {
    enclaves
        .get(key.0 .0 as usize)
        .and_then(|r| r.stamps.get(key.1))
        .copied()
        .unwrap_or(ABSENT)
}

impl Epc {
    pub fn new(capacity: usize, policy: EvictionPolicy) -> Epc {
        assert!(capacity > 0, "EPC capacity must be positive");
        Epc {
            capacity,
            policy,
            order: VecDeque::new(),
            enclaves: Vec::new(),
            resident: 0,
            next_stamp: 0,
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn resident_count(&self) -> usize {
        self.resident
    }

    /// How many of `enclave`'s pages are currently resident. O(1).
    pub fn resident_of(&self, enclave: EnclaveId) -> usize {
        self.enclaves.get(enclave.0 as usize).map_or(0, |r| r.count)
    }

    pub fn contains(&self, key: PageKey) -> bool {
        stamp_of(&self.enclaves, key) != ABSENT
    }

    /// Makes `key` resident. If the EPC is full, first evicts the oldest
    /// (FIFO) or least recently used (LRU) page and returns it, so the
    /// caller can record the eviction. Returns `None` when nothing was
    /// evicted, including when `key` was already resident.
    pub fn insert(&mut self, key: PageKey) -> Option<PageKey> {
        if self.contains(key) {
            return None;
        }
        let victim = (self.resident >= self.capacity).then(|| self.evict_oldest());
        let enclave = key.0 .0 as usize;
        if enclave >= self.enclaves.len() {
            self.enclaves.resize_with(enclave + 1, Resident::default);
        }
        let r = &mut self.enclaves[enclave];
        if key.1 >= r.stamps.len() {
            r.stamps.resize(key.1 + 1, ABSENT);
        }
        r.count += 1;
        self.resident += 1;
        self.stamp(key);
        victim
    }

    /// Pops the oldest live entry and marks its page absent.
    fn evict_oldest(&mut self) -> PageKey {
        loop {
            let (stamp, key) = self
                .order
                .pop_front()
                .expect("EPC full implies a live entry");
            if stamp_of(&self.enclaves, key) == stamp {
                let r = &mut self.enclaves[key.0 .0 as usize];
                r.stamps[key.1] = ABSENT;
                r.count -= 1;
                self.resident -= 1;
                return key;
            }
        }
    }

    /// Gives the resident page `key` the next stamp.
    fn stamp(&mut self, key: PageKey) {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.enclaves[key.0 .0 as usize].stamps[key.1] = stamp;
        self.order.push_back((stamp, key));
    }

    /// Drops the stale queue entries once they outnumber the live ones.
    /// Each stale entry is dropped once, so this is O(1) amortised.
    fn compact(&mut self) {
        if self.order.len() > 2 * self.resident {
            let enclaves = &self.enclaves;
            self.order
                .retain(|&(stamp, key)| stamp_of(enclaves, key) == stamp);
        }
    }

    /// Records an access for LRU bookkeeping. No-op under FIFO.
    pub fn touch(&mut self, key: PageKey) {
        if self.policy == EvictionPolicy::Lru && self.contains(key) {
            self.stamp(key);
            self.compact();
        }
    }

    /// Removes every page of an enclave; returns how many were resident.
    pub fn remove_enclave(&mut self, enclave: EnclaveId) -> usize {
        let Some(r) = self.enclaves.get_mut(enclave.0 as usize) else {
            return 0;
        };
        let removed = std::mem::take(r).count;
        self.resident -= removed;
        self.compact();
        removed
    }
}

/// A reference model of [`Epc`] built from ordered maps: a stamp
/// `BTreeMap` for the eviction order, a hash map from page to stamp and
/// a per-enclave `BTreeSet`. The property test below holds `Epc` to it
/// on every victim.
#[cfg(test)]
mod reference {
    use std::collections::{BTreeMap, BTreeSet, HashMap};

    use super::{EvictionPolicy, PageKey};
    use crate::machine::EnclaveId;

    #[derive(Debug)]
    pub(super) struct ReferenceEpc {
        capacity: usize,
        policy: EvictionPolicy,
        by_stamp: BTreeMap<u64, PageKey>,
        stamps: HashMap<PageKey, u64>,
        per_enclave: HashMap<EnclaveId, BTreeSet<usize>>,
        next_stamp: u64,
    }

    impl ReferenceEpc {
        pub fn new(capacity: usize, policy: EvictionPolicy) -> ReferenceEpc {
            ReferenceEpc {
                capacity,
                policy,
                by_stamp: BTreeMap::new(),
                stamps: HashMap::new(),
                per_enclave: HashMap::new(),
                next_stamp: 0,
            }
        }

        pub fn resident_count(&self) -> usize {
            self.stamps.len()
        }

        pub fn resident_of(&self, enclave: EnclaveId) -> usize {
            self.per_enclave.get(&enclave).map_or(0, BTreeSet::len)
        }

        pub fn contains(&self, key: PageKey) -> bool {
            self.stamps.contains_key(&key)
        }

        pub fn insert(&mut self, key: PageKey) -> Option<PageKey> {
            if self.stamps.contains_key(&key) {
                return None;
            }
            if self.stamps.len() >= self.capacity {
                let (&stamp, &victim) = self.by_stamp.iter().next().expect("full");
                self.by_stamp.remove(&stamp);
                self.stamps.remove(&victim);
                self.unindex(victim);
                self.insert_fresh(key);
                return Some(victim);
            }
            self.insert_fresh(key);
            None
        }

        fn insert_fresh(&mut self, key: PageKey) {
            let stamp = self.next_stamp;
            self.next_stamp += 1;
            self.by_stamp.insert(stamp, key);
            self.stamps.insert(key, stamp);
            self.per_enclave.entry(key.0).or_default().insert(key.1);
        }

        fn unindex(&mut self, key: PageKey) {
            if let Some(set) = self.per_enclave.get_mut(&key.0) {
                set.remove(&key.1);
                if set.is_empty() {
                    self.per_enclave.remove(&key.0);
                }
            }
        }

        pub fn touch(&mut self, key: PageKey) {
            if self.policy != EvictionPolicy::Lru {
                return;
            }
            if let Some(stamp) = self.stamps.get(&key).copied() {
                self.by_stamp.remove(&stamp);
                self.insert_fresh(key);
            }
        }

        pub fn remove_enclave(&mut self, enclave: EnclaveId) -> usize {
            let Some(pages) = self.per_enclave.remove(&enclave) else {
                return 0;
            };
            let mut removed = 0;
            for page in pages {
                if let Some(stamp) = self.stamps.remove(&(enclave, page)) {
                    self.by_stamp.remove(&stamp);
                    removed += 1;
                }
            }
            removed
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::ReferenceEpc;
    use super::*;
    use proptest::prelude::*;

    fn eid(n: u32) -> EnclaveId {
        EnclaveId(n)
    }

    #[test]
    fn fills_to_capacity_without_eviction() {
        let mut epc = Epc::new(4, EvictionPolicy::Fifo);
        for i in 0..4 {
            assert_eq!(epc.insert((eid(1), i)), None);
        }
        assert_eq!(epc.resident_count(), 4);
    }

    #[test]
    fn fifo_evicts_oldest() {
        let mut epc = Epc::new(2, EvictionPolicy::Fifo);
        epc.insert((eid(1), 0));
        epc.insert((eid(1), 1));
        // Access page 0 — FIFO must ignore it.
        epc.touch((eid(1), 0));
        let victim = epc.insert((eid(1), 2));
        assert_eq!(victim, Some((eid(1), 0)));
        assert!(epc.contains((eid(1), 2)));
        assert!(!epc.contains((eid(1), 0)));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut epc = Epc::new(2, EvictionPolicy::Lru);
        epc.insert((eid(1), 0));
        epc.insert((eid(1), 1));
        epc.touch((eid(1), 0)); // page 1 is now the LRU victim
        let victim = epc.insert((eid(1), 2));
        assert_eq!(victim, Some((eid(1), 1)));
    }

    #[test]
    fn double_insert_is_idempotent() {
        let mut epc = Epc::new(2, EvictionPolicy::Fifo);
        assert_eq!(epc.insert((eid(1), 0)), None);
        assert_eq!(epc.insert((eid(1), 0)), None);
        assert_eq!(epc.resident_count(), 1);
    }

    #[test]
    fn remove_enclave_clears_only_that_enclave() {
        let mut epc = Epc::new(8, EvictionPolicy::Fifo);
        for i in 0..3 {
            epc.insert((eid(1), i));
        }
        epc.insert((eid(2), 0));
        assert_eq!(epc.remove_enclave(eid(1)), 3);
        assert_eq!(epc.resident_count(), 1);
        assert!(epc.contains((eid(2), 0)));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = Epc::new(0, EvictionPolicy::Fifo);
    }

    #[test]
    fn eviction_pressure_across_enclaves() {
        // Two enclaves sharing a tiny EPC evict each other's pages — the
        // multi-tenant scenario from §3.5.
        let mut epc = Epc::new(3, EvictionPolicy::Fifo);
        epc.insert((eid(1), 0));
        epc.insert((eid(1), 1));
        epc.insert((eid(2), 0));
        assert_eq!(epc.insert((eid(2), 1)), Some((eid(1), 0)));
        assert_eq!(epc.insert((eid(1), 0)), Some((eid(1), 1)));
    }

    #[test]
    fn per_enclave_index_tracks_evictions_and_removals() {
        let mut epc = Epc::new(3, EvictionPolicy::Fifo);
        epc.insert((eid(1), 0));
        epc.insert((eid(1), 1));
        epc.insert((eid(2), 0));
        assert_eq!(epc.resident_of(eid(1)), 2);
        assert_eq!(epc.resident_of(eid(2)), 1);
        // Eviction of enclave 1's oldest page must drop its index entry.
        assert_eq!(epc.insert((eid(2), 1)), Some((eid(1), 0)));
        assert_eq!(epc.resident_of(eid(1)), 1);
        assert_eq!(epc.resident_of(eid(2)), 2);
        // Teardown keeps the index consistent too.
        assert_eq!(epc.remove_enclave(eid(1)), 1);
        assert_eq!(epc.resident_of(eid(1)), 0);
        assert_eq!(epc.resident_of(eid(2)), 2);
        // LRU touch of a resident page must not double-count it.
        let mut lru = Epc::new(4, EvictionPolicy::Lru);
        lru.insert((eid(3), 0));
        lru.touch((eid(3), 0));
        assert_eq!(lru.resident_of(eid(3)), 1);
        assert_eq!(lru.remove_enclave(eid(3)), 1);
        assert_eq!(lru.resident_of(eid(3)), 0);
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Insert(u32, usize),
        Touch(u32, usize),
        RemoveEnclave(u32),
    }

    /// Few enclaves and pages, so operations collide with resident pages
    /// and with each other's stale entries.
    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u32..4, 0usize..12).prop_map(|(e, p)| Op::Insert(e, p)),
            (0u32..4, 0usize..12).prop_map(|(e, p)| Op::Insert(e, p)),
            (0u32..4, 0usize..12).prop_map(|(e, p)| Op::Touch(e, p)),
            (0u32..4, 0usize..12).prop_map(|(e, p)| Op::Touch(e, p)),
            (0u32..4).prop_map(Op::RemoveEnclave),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn agrees_with_the_reference_model(
            ops in proptest::collection::vec(arb_op(), 1..200),
            capacity in 1usize..10,
            lru in any::<bool>(),
        ) {
            let policy = if lru { EvictionPolicy::Lru } else { EvictionPolicy::Fifo };
            let mut epc = Epc::new(capacity, policy);
            let mut oracle = ReferenceEpc::new(capacity, policy);
            for (step, op) in ops.into_iter().enumerate() {
                match op {
                    Op::Insert(e, p) => prop_assert_eq!(
                        epc.insert((eid(e), p)),
                        oracle.insert((eid(e), p)),
                        "step {}: {:?} evicted a different victim", step, op
                    ),
                    Op::Touch(e, p) => {
                        epc.touch((eid(e), p));
                        oracle.touch((eid(e), p));
                    }
                    Op::RemoveEnclave(e) => prop_assert_eq!(
                        epc.remove_enclave(eid(e)),
                        oracle.remove_enclave(eid(e))
                    ),
                }
                prop_assert_eq!(epc.resident_count(), oracle.resident_count());
                // Stale entries never outnumber live ones.
                prop_assert!(epc.order.len() <= 2 * epc.resident_count());
                for e in 0..4 {
                    prop_assert_eq!(epc.resident_of(eid(e)), oracle.resident_of(eid(e)));
                    for p in 0..12 {
                        prop_assert_eq!(
                            epc.contains((eid(e), p)),
                            oracle.contains((eid(e), p)),
                            "step {}: residency of page {} of enclave {} differs", step, p, e
                        );
                    }
                }
            }
        }
    }
}
