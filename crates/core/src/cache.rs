//! The one cache type behind every budgeted [`WhyNotSession`] cache.
//!
//! An [`Lru`] is a hash map with an entry cap, least-recently-used
//! eviction and an eviction counter. Each entry carries a recency stamp
//! that the caller supplies from the session clock on every touch. The
//! clock bumps on every touch, so stamps are unique, and the victim (the
//! minimum stamp) never depends on the map's hash order.
//!
//! The map lives behind an `Arc`, so a parallel batch can take a
//! read-only [`Snapshot`] in O(1). Stamps are `AtomicU64`s written with
//! `Relaxed` ordering: a hit refreshes recency through `&self`, which
//! keeps a snapshot `Sync` and keeps hits off the `Arc::make_mut` path.
//! Mutations go through `Arc::make_mut`, which works in place while no
//! snapshot is alive.
//!
//! [`WhyNotSession`]: crate::WhyNotSession

use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// lint: allow(deterministic-iteration) — caches are probed by key; the
// iterations below pick victims by unique stamp, or only count and filter.
use std::collections::HashMap;

/// One cache entry: a value and its recency stamp.
pub(crate) struct Slot<V> {
    value: V,
    stamp: AtomicU64,
}

impl<V> Slot<V> {
    fn new(value: V, now: u64) -> Self {
        Slot {
            value,
            stamp: AtomicU64::new(now),
        }
    }

    /// The cached value.
    pub(crate) fn value(&self) -> &V {
        &self.value
    }

    fn stamp(&self) -> u64 {
        self.stamp.load(Ordering::Relaxed)
    }
}

impl<V: Clone> Clone for Slot<V> {
    fn clone(&self) -> Self {
        Slot::new(self.value.clone(), self.stamp())
    }
}

/// A read-only view of an [`Lru`]'s entries, shared in O(1).
// lint: allow(deterministic-iteration) — probed by key only.
pub(crate) type Snapshot<K, V> = Arc<HashMap<K, Slot<V>>>;

/// A hash cache capped at `cap` entries, evicting least-recently-used
/// entries first. A cap of 0 stores nothing; `usize::MAX` never evicts.
pub(crate) struct Lru<K, V> {
    map: Snapshot<K, V>,
    cap: usize,
    evicted: usize,
}

impl<K: Clone + Eq + Hash, V: Clone> Lru<K, V> {
    /// An empty cache holding at most `cap` entries.
    pub(crate) fn new(cap: usize) -> Self {
        Lru {
            map: Arc::default(),
            cap,
            evicted: 0,
        }
    }

    /// The value under `k`, marked used at `now`.
    pub(crate) fn get(&self, k: &K, now: u64) -> Option<&V> {
        self.map.get(k).map(|slot| {
            slot.stamp.store(now, Ordering::Relaxed);
            &slot.value
        })
    }

    /// Stores `v` under `k` at recency `now`, replacing any value there,
    /// then evicts down to the cap. Returns the evicted entries.
    pub(crate) fn insert(&mut self, k: K, v: V, now: u64) -> Vec<(K, V)> {
        if self.cap == 0 {
            return Vec::new();
        }
        Arc::make_mut(&mut self.map).insert(k, Slot::new(v, now));
        self.trim()
    }

    /// Stores `v` under `k` at recency `now` unless `k` is present, and
    /// reports whether it stored. Does not evict: a caller merging many
    /// entries calls [`trim`](Self::trim) once at the end.
    pub(crate) fn insert_if_absent(&mut self, k: K, v: V, now: u64) -> bool {
        if self.cap == 0 || self.map.contains_key(&k) {
            return false;
        }
        Arc::make_mut(&mut self.map).insert(k, Slot::new(v, now));
        true
    }

    /// Sets the entry cap and evicts down to it. Returns the evicted
    /// entries.
    pub(crate) fn set_cap(&mut self, cap: usize) -> Vec<(K, V)> {
        self.cap = cap;
        self.trim()
    }

    /// Evicts the `len − cap` least-recently-used entries, counting them,
    /// and returns them oldest first.
    pub(crate) fn trim(&mut self) -> Vec<(K, V)> {
        let excess = self.map.len().saturating_sub(self.cap);
        if excess == 0 {
            return Vec::new();
        }
        let mut by_age: Vec<(u64, &K)> = self.map.iter().map(|(k, s)| (s.stamp(), k)).collect();
        if excess < by_age.len() {
            by_age.select_nth_unstable_by_key(excess, |&(stamp, _)| stamp);
            by_age.truncate(excess);
        }
        by_age.sort_unstable_by_key(|&(stamp, _)| stamp);
        let victims: Vec<K> = by_age.into_iter().map(|(_, k)| k.clone()).collect();
        let map = Arc::make_mut(&mut self.map);
        let out: Vec<(K, V)> = victims
            .into_iter()
            .filter_map(|k| map.remove_entry(&k))
            .map(|(k, slot)| (k, slot.value))
            .collect();
        self.evicted += out.len();
        out
    }

    /// Keeps the entries `keep` accepts (it may update their values in
    /// place) and returns `(dropped, retained)`. Dropped entries are not
    /// evictions.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) -> (usize, usize) {
        let before = self.map.len();
        Arc::make_mut(&mut self.map).retain(|k, slot| keep(k, &mut slot.value));
        let after = self.map.len();
        (before - after, after)
    }

    /// Evicts every entry whose key matches `dead`, counting them, and
    /// returns how many went.
    pub(crate) fn evict_if(&mut self, mut dead: impl FnMut(&K) -> bool) -> usize {
        let (dropped, _) = self.retain(|k, _| !dead(k));
        self.evicted += dropped;
        dropped
    }

    /// Every entry, in hash order: callers only count or filter, or sort
    /// what they collect.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.map.iter().map(|(k, slot)| (k, &slot.value))
    }

    /// The number of cached entries.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Entries evicted so far to stay inside the cap.
    pub(crate) fn evicted(&self) -> usize {
        self.evicted
    }

    /// An O(1) read-only view of the current entries. Later mutations of
    /// the cache do not reach it; while it is alive they copy the map once.
    pub(crate) fn snapshot(&self) -> Snapshot<K, V> {
        Arc::clone(&self.map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(lru: &Lru<u32, &'static str>) -> Vec<u32> {
        let mut ks: Vec<u32> = lru.iter().map(|(k, _)| *k).collect();
        ks.sort_unstable();
        ks
    }

    #[test]
    fn the_victim_is_the_least_recently_used_entry() {
        let mut lru = Lru::new(2);
        assert!(lru.insert(1, "a", 1).is_empty());
        assert!(lru.insert(2, "b", 2).is_empty());
        // Touch 1: now 2 is the oldest.
        assert_eq!(lru.get(&1, 3), Some(&"a"));
        assert_eq!(lru.insert(3, "c", 4), vec![(2, "b")]);
        assert_eq!(keys(&lru), [1, 3]);
        assert_eq!(lru.evicted(), 1);
        // Replacing a value refreshes it without evicting: 3 is oldest.
        assert!(lru.insert(1, "A", 5).is_empty());
        assert_eq!(lru.insert(4, "d", 6), vec![(3, "c")]);
        assert_eq!(lru.get(&1, 7), Some(&"A"));
        assert_eq!(lru.evicted(), 2);
    }

    #[test]
    fn cap_zero_stores_nothing() {
        let mut lru = Lru::new(0);
        assert!(lru.insert(1, "a", 1).is_empty());
        assert!(!lru.insert_if_absent(2, "b", 2));
        assert_eq!(lru.len(), 0);
        assert_eq!(lru.get(&1, 3), None);
        assert_eq!(lru.evicted(), 0);
    }

    #[test]
    fn trim_evicts_oldest_first_and_counts() {
        let mut lru = Lru::new(usize::MAX);
        // Stamps out of key order, so hash order cannot fake the result.
        for (k, now) in [(1, 50), (2, 10), (3, 40), (4, 20), (5, 30)] {
            assert!(lru.insert_if_absent(k, "v", now));
        }
        assert!(!lru.insert_if_absent(1, "w", 60), "present keys are kept");
        assert!(lru.trim().is_empty(), "nothing over an unlimited cap");
        let gone: Vec<u32> = lru.set_cap(2).into_iter().map(|(k, _)| k).collect();
        assert_eq!(gone, [2, 4, 5]);
        assert_eq!(keys(&lru), [1, 3]);
        assert_eq!(lru.get(&1, 70), Some(&"v"));
        assert_eq!(lru.evicted(), 3);
        assert_eq!(lru.set_cap(0).len(), 2);
        assert_eq!(lru.evicted(), 5);
    }

    #[test]
    fn retain_counts_and_is_not_eviction() {
        let mut lru = Lru::new(usize::MAX);
        for k in 0..10u32 {
            lru.insert(k, "v", u64::from(k));
        }
        assert_eq!(
            lru.retain(|k, v| {
                *v = "kept";
                k % 3 == 0
            }),
            (6, 4)
        );
        assert_eq!(keys(&lru), [0, 3, 6, 9]);
        assert_eq!(lru.get(&3, 10), Some(&"kept"));
        assert_eq!(lru.evicted(), 0);
        assert_eq!(lru.evict_if(|k| *k > 5), 2);
        assert_eq!(keys(&lru), [0, 3]);
        assert_eq!(lru.evicted(), 2);
    }

    #[test]
    fn snapshots_are_isolated_and_dropped_snapshots_cost_nothing() {
        let mut lru = Lru::new(usize::MAX);
        lru.insert(1, "a", 1);
        let snap = lru.snapshot();
        lru.insert(2, "b", 2);
        assert_eq!(snap.len(), 1, "a live snapshot is untouched");
        assert_eq!(snap.get(&1).map(Slot::value), Some(&"a"));
        assert_eq!(lru.len(), 2);
        drop(snap);
        let before = Arc::as_ptr(&lru.snapshot());
        lru.insert(3, "c", 3);
        assert_eq!(
            Arc::as_ptr(&lru.snapshot()),
            before,
            "with no snapshot alive, inserts mutate in place"
        );
    }
}
