//! The in-memory content-addressed result cache of a
//! [`QueryService`](crate::QueryService).
//!
//! Cache keys are FNV-1a hashes ([`graphcore::fnv1a`]) of the canonical
//! `(snapshot id, query)` identity string — the same canonical-identity idiom
//! the bench harness uses for its on-disk result store
//! (`bench::store::CellSpec::key`). A hit is only served when the stored
//! identity string matches exactly, so a 64-bit key collision degrades to a
//! miss-and-replace, never to a wrong answer. Hit/miss counters are atomics, so concurrent
//! batch workers update them without taking the map lock twice.

use crate::service::QueryOutcome;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One cached result: the full identity string (collision guard) plus the
/// outcome to replay.
struct CacheEntry {
    identity: String,
    outcome: QueryOutcome,
}

/// The service-owned result cache: a keyed map behind a [`Mutex`] (held only
/// for lookups and inserts, never while enumerating) plus lock-free hit/miss
/// counters.
pub(crate) struct QueryCache {
    entries: Mutex<HashMap<u64, CacheEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl QueryCache {
    /// An empty cache.
    pub(crate) fn new() -> QueryCache {
        QueryCache {
            entries: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Returns the cached outcome for `key` when its stored identity matches
    /// `identity` exactly, counting a hit; otherwise counts a miss.
    pub(crate) fn lookup(&self, key: u64, identity: &str) -> Option<QueryOutcome> {
        let entries = self.entries.lock().expect("query cache lock poisoned");
        match entries.get(&key) {
            Some(entry) if entry.identity == identity => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.outcome.clone())
            }
            _ => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores `outcome` under `key`. An existing entry is replaced: either it
    /// carries the same identity (a concurrent duplicate computed the same
    /// deterministic outcome) or it was a 64-bit collision, which the
    /// identity guard in [`QueryCache::lookup`] already demoted to a miss.
    pub(crate) fn insert(&self, key: u64, identity: String, outcome: QueryOutcome) {
        let mut entries = self.entries.lock().expect("query cache lock poisoned");
        entries.insert(key, CacheEntry { identity, outcome });
    }

    /// Point-in-time counters and entry count.
    pub(crate) fn stats(&self) -> CacheStats {
        let entries = self.entries.lock().expect("query cache lock poisoned");
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: entries.len(),
        }
    }

    /// Drops every entry and zeroes the counters.
    pub(crate) fn clear(&self) {
        let mut entries = self.entries.lock().expect("query cache lock poisoned");
        entries.clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time view of a service's cache counters, returned by
/// [`QueryService::cache_stats`](crate::QueryService::cache_stats).
///
/// `hits + misses` equals the number of cache probes so far (one per executed
/// query); `entries` is the number of distinct results currently stored.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes answered from the cache (the enumeration was short-circuited).
    pub hits: u64,
    /// Probes that fell through to a fresh enumeration.
    pub misses: u64,
    /// Distinct results currently stored.
    pub entries: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_guards_against_key_collisions() {
        let cache = QueryCache::new();
        cache.insert(42, "a".to_string(), QueryOutcome::Count(1));
        assert_eq!(cache.lookup(42, "a"), Some(QueryOutcome::Count(1)));
        // Same key, different identity: a collision must read as a miss.
        assert_eq!(cache.lookup(42, "b"), None);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        cache.clear();
        assert_eq!(cache.stats(), CacheStats::default());
    }
}
