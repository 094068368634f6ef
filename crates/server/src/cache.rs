//! The content-addressed result cache: a sweep answered once is a
//! dictionary lookup forever.
//!
//! Just as LDBP-style last-value reuse short-circuits work whose outcome
//! is already determined, a job spec fully determines its result
//! document, so the daemon keys finished results by the FNV-1a hash of
//! the spec's canonical JSON
//! ([`fetchvp_experiments::JobSpec::canonical_hash`]). Lookups check a
//! bounded in-memory MRU list first, then an optional on-disk spill
//! directory next to the trace store, so a restarted daemon still answers
//! warm specs without re-simulating.
//!
//! Every served result, `bench` reports included, is a pure function of
//! its spec, so every finished job is cached. Failed jobs are never
//! cached — a panic is not a result.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use fetchvp_metrics::Json;

/// Version prefix of the spill directory. Bumping it orphans every older
/// on-disk entry instead of misreading or re-serving it — the same
/// invalidation story as the trace store's format version. Spills are keyed
/// by the spec alone, so bump it whenever a build changes the bytes of a
/// served output.
pub const RESULT_CACHE_VERSION: u32 = 2;

/// One cached result: the spec's hash, its full canonical text (kept to
/// detect 64-bit hash collisions instead of serving a wrong document),
/// and the result JSON.
#[derive(Debug, Clone)]
struct Entry {
    hash: u64,
    canonical: String,
    result: Json,
}

/// Cumulative effectiveness counters of one [`ResultCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResultCacheCounters {
    /// Lookups answered from memory.
    pub hits: u64,
    /// Lookups answered from the on-disk spill (also re-warms memory).
    pub disk_hits: u64,
    /// Lookups that found nothing; the job was simulated.
    pub misses: u64,
    /// Bytes written to the spill directory.
    pub bytes: u64,
}

/// A bounded MRU result cache with optional on-disk spill.
///
/// The in-memory tier is a small vector kept in most-recently-used order
/// (the same idiom as the server's sweep pool); inserts beyond
/// `capacity` evict from the tail. When built with a spill root, every
/// insert also writes `<root>/results-v2/<hash>.json` via a temp file and
/// atomic rename, and memory misses fall back to reading that file.
#[derive(Debug)]
pub struct ResultCache {
    capacity: usize,
    entries: Mutex<Vec<Entry>>,
    spill: Option<PathBuf>,
    hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    bytes: AtomicU64,
}

impl ResultCache {
    /// A cache holding at most `capacity` results in memory, spilling to
    /// `<spill_root>/results-v2/` when a root is given. `capacity` 0
    /// disables caching entirely (every lookup misses, nothing is
    /// stored).
    pub fn new(capacity: usize, spill_root: Option<&Path>) -> ResultCache {
        ResultCache {
            capacity,
            entries: Mutex::new(Vec::new()),
            spill: spill_root.map(|root| root.join(format!("results-v{RESULT_CACHE_VERSION}"))),
            hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// Whether caching is enabled at all.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Looks up the result for a spec, trying memory then the spill
    /// directory. `canonical` must be the spec's canonical text — it is
    /// compared on every candidate, so a hash collision degrades to a
    /// miss, never to a wrong answer.
    pub fn get(&self, hash: u64, canonical: &str) -> Option<Json> {
        if !self.enabled() {
            return None;
        }
        {
            let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(at) =
                entries.iter().position(|e| e.hash == hash && e.canonical == canonical)
            {
                let entry = entries.remove(at);
                let result = entry.result.clone();
                entries.insert(0, entry);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(result);
            }
        }
        if let Some(result) = self.load_spilled(hash, canonical) {
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
            self.remember(hash, canonical.to_string(), result.clone());
            return Some(result);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Stores a finished result under its spec hash, evicting the
    /// least-recently-used in-memory entry beyond capacity and writing the
    /// spill file when configured.
    pub fn insert(&self, hash: u64, canonical: String, result: &Json) {
        if !self.enabled() {
            return;
        }
        self.spill_to_disk(hash, &canonical, result);
        self.remember(hash, canonical, result.clone());
    }

    /// A snapshot of the cumulative counters — surfaced as
    /// `server.result_cache.*` gauges on `/metrics`.
    pub fn counters(&self) -> ResultCacheCounters {
        ResultCacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }

    fn remember(&self, hash: u64, canonical: String, result: Json) {
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        entries.retain(|e| e.hash != hash || e.canonical != canonical);
        entries.insert(0, Entry { hash, canonical, result });
        entries.truncate(self.capacity);
    }

    fn spill_path(&self, hash: u64) -> Option<PathBuf> {
        self.spill.as_ref().map(|dir| dir.join(format!("{hash:016x}.json")))
    }

    /// Writes `{"spec": <canonical object>, "result": …}` via temp file +
    /// atomic rename, so a concurrent reader never sees a torn document.
    /// Spill failures are swallowed: the disk tier is an accelerator, and
    /// a full disk must not fail the job that just completed.
    fn spill_to_disk(&self, hash: u64, canonical: &str, result: &Json) {
        let Some(path) = self.spill_path(hash) else { return };
        let Ok(spec) = Json::parse(canonical) else { return };
        let doc =
            Json::object([("spec".to_string(), spec), ("result".to_string(), result.clone())])
                .to_json();
        let Some(dir) = path.parent() else { return };
        if fs::create_dir_all(dir).is_err() {
            return;
        }
        let tmp = dir.join(format!(".{hash:016x}.tmp-{}", std::process::id()));
        let written = fs::File::create(&tmp)
            .and_then(|mut f| f.write_all(doc.as_bytes()).map(|()| doc.len() as u64));
        match written {
            Ok(bytes) if fs::rename(&tmp, &path).is_ok() => {
                self.bytes.fetch_add(bytes, Ordering::Relaxed);
            }
            _ => {
                let _ = fs::remove_file(&tmp);
            }
        }
    }

    /// Reads a spilled result back, verifying the stored spec matches the
    /// canonical text byte-for-byte. Unreadable, torn or mismatched files
    /// count as misses.
    fn load_spilled(&self, hash: u64, canonical: &str) -> Option<Json> {
        let path = self.spill_path(hash)?;
        let text = fs::read_to_string(path).ok()?;
        let doc = Json::parse(&text).ok()?;
        let stored_spec = doc.get("spec")?;
        if stored_spec.to_json() != canonical {
            return None;
        }
        Some(doc.get("result")?.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(tag: u64) -> Json {
        Json::object([("csv".to_string(), Json::UInt(tag))])
    }

    #[test]
    fn memory_tier_is_bounded_mru() {
        let cache = ResultCache::new(2, None);
        cache.insert(1, "a".to_string(), &result(1));
        cache.insert(2, "b".to_string(), &result(2));
        assert_eq!(cache.get(1, "a"), Some(result(1))); // touch 1 → MRU
        cache.insert(3, "c".to_string(), &result(3)); // evicts 2
        assert_eq!(cache.get(2, "b"), None);
        assert_eq!(cache.get(1, "a"), Some(result(1)));
        assert_eq!(cache.get(3, "c"), Some(result(3)));
        let counters = cache.counters();
        assert_eq!((counters.hits, counters.misses, counters.bytes), (3, 1, 0));
    }

    #[test]
    fn hash_collisions_miss_instead_of_lying() {
        let cache = ResultCache::new(4, None);
        cache.insert(7, "spec-a".to_string(), &result(1));
        // Same hash, different canonical text: must not serve spec-a's
        // result for spec-b.
        assert_eq!(cache.get(7, "spec-b"), None);
        assert_eq!(cache.counters().misses, 1);
    }

    #[test]
    fn zero_capacity_disables_everything() {
        let cache = ResultCache::new(0, None);
        cache.insert(1, "a".to_string(), &result(1));
        assert_eq!(cache.get(1, "a"), None);
        assert_eq!(cache.counters(), ResultCacheCounters::default());
        assert!(!cache.enabled());
    }

    #[test]
    fn spill_survives_a_cold_restart() {
        let dir = std::env::temp_dir().join(format!("fetchvp-result-spill-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        // Canonical text is always a `to_json` rendering (pretty-printed),
        // so normalize the literal the same way.
        let canonical =
            Json::parse(r#"{"experiment": "table3-1", "trace_len": 1000}"#).unwrap().to_json();
        let canonical = canonical.as_str();
        {
            let cache = ResultCache::new(4, Some(&dir));
            cache.insert(42, canonical.to_string(), &result(9));
            assert!(cache.counters().bytes > 0, "spill must write bytes");
        }
        // A fresh instance (empty memory) finds the entry on disk.
        let cache = ResultCache::new(4, Some(&dir));
        assert_eq!(cache.get(42, canonical), Some(result(9)));
        assert_eq!(cache.counters().disk_hits, 1);
        // …and the disk hit re-warmed memory.
        assert_eq!(cache.get(42, canonical), Some(result(9)));
        assert_eq!(cache.counters().hits, 1);
        // A different canonical text under the same hash is rejected.
        assert_eq!(cache.get(42, "something else"), None);
        let _ = fs::remove_dir_all(&dir);
    }
}
