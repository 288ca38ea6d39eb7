//! The session artifact store: content-addressed memoisation of expensive
//! intermediates.
//!
//! Every costly stage of the pipeline — generating a [`WorldDataset`]
//! (ect-data), training a pricing engine (ect-price), training a specialist
//! or generalist policy (ect-drl) — is a *pure function of its serialisable
//! inputs*: the same configuration always reproduces the same artifact bit
//! for bit (the workspace determinism contract, see `docs/ARCHITECTURE.md`).
//! That makes memoisation safe: an [`ArtifactStore`] keys each artifact by a
//! content hash of its inputs ([`ArtifactKey`]) and hands out `Arc`-shared
//! results, so experiments that request the same world, baselines or policy
//! share one computation instead of re-running it.
//!
//! The store is deliberately *type-erased* (`Arc<dyn Any>`): the core
//! [`Session`](crate::session::Session) memoises systems, worlds, held-out
//! baselines and trained policies through it, and downstream layers (the
//! `ect-bench` registry) memoise their own artifact types — e.g. the shared
//! pricing model — through the same store without `ect-core` knowing their
//! shape.
//!
//! Lookups resolve **memory → disk → build**: the store is internally
//! synchronised (shared-reference API, so experiments can run in parallel
//! over one session), and serialisable artifacts can additionally spill to
//! a persistent [`DiskCache`] so repeated *processes* skip the build too.
//! Concurrent requests for one key serialise on a per-key slot: exactly one
//! caller builds, everyone else blocks briefly and then hits. A builder may
//! request artifacts of *other* keys from the same store (the bench layer's
//! experiment results build on the shared pricing artifacts this way) as
//! long as kinds request each other acyclically; a builder that requests
//! its own key deadlocks on its slot.
//!
//! [`WorldDataset`]: ect_data::dataset::WorldDataset

use crate::cache::{CacheProvenance, DiskCache};
use parking_lot::Mutex;
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

/// Content-addressed identity of one artifact: the artifact kind (a short
/// static label such as `"world"` or `"generalist"`) plus an FNV-1a digest
/// of the serialised inputs that produce it.
///
/// Two keys are equal exactly when the kind matches and the inputs
/// serialise identically — any input change (a different seed, horizon,
/// scenario modifier, training budget, …) changes the digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArtifactKey {
    /// Artifact kind label (namespaces the digest).
    pub kind: &'static str,
    /// FNV-1a hash of the serialised inputs.
    pub digest: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

impl ArtifactKey {
    /// Keys an artifact by a content hash of its serialisable inputs.
    ///
    /// The inputs are serialised through the workspace serde stack, so the
    /// digest covers every field that participates in `Serialize` — exactly
    /// the fields that determine the artifact under the determinism
    /// contract.
    ///
    /// # Panics
    ///
    /// Panics if the inputs fail to serialise (the workspace value-tree
    /// serialiser is infallible for derived impls, so this indicates a bug).
    pub fn of<T: serde::Serialize + ?Sized>(kind: &'static str, inputs: &T) -> Self {
        let json = serde_json::to_string(inputs).expect("artifact inputs serialise");
        Self {
            kind,
            digest: fnv1a(json.as_bytes()),
        }
    }

    /// Like [`ArtifactKey::of`], but additionally folds a per-kind **code
    /// version** into the digest. Bump the version constant whenever the
    /// builder's algorithm changes shape (not just its inputs): every
    /// existing memo and disk entry for the kind silently becomes a miss,
    /// so stale artifacts built by the old code can never be served.
    ///
    /// # Panics
    ///
    /// Panics if the inputs fail to serialise (same contract as
    /// [`ArtifactKey::of`]).
    pub fn versioned<T: serde::Serialize + ?Sized>(
        kind: &'static str,
        version: u32,
        inputs: &T,
    ) -> Self {
        let json = serde_json::to_string(inputs).expect("artifact inputs serialise");
        let mut digest = fnv1a(json.as_bytes());
        for &b in &version.to_le_bytes() {
            digest ^= u64::from(b);
            digest = digest.wrapping_mul(FNV_PRIME);
        }
        Self { kind, digest }
    }

    /// The key as a stable display string, e.g. `world:9c3f21ab04d87e51`.
    pub fn display(&self) -> String {
        format!("{}:{:016x}", self.kind, self.digest)
    }
}

impl std::fmt::Display for ArtifactKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.display())
    }
}

/// Lookup counters of one artifact kind, split by where the artifact came
/// from: the in-process memo, the persistent disk cache, or a fresh build.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindStats {
    /// Lookups served from the in-memory store.
    pub memory_hits: usize,
    /// Lookups served from the persistent disk cache (deserialised, no
    /// build ran).
    pub disk_hits: usize,
    /// Lookups that ran the builder (the computation budget spent).
    pub builds: usize,
}

impl KindStats {
    /// Lookups that skipped the builder (memory + disk).
    pub fn hits(&self) -> usize {
        self.memory_hits + self.disk_hits
    }
}

/// One memo slot: concurrent requesters of the same key serialise on the
/// slot lock, so exactly one of them builds.
type Slot = Arc<Mutex<Option<Arc<dyn Any + Send + Sync>>>>;

#[derive(Default)]
struct Inner {
    entries: HashMap<ArtifactKey, Slot>,
    /// Keys whose slot is filled (tracked here so `contains`/`len` never
    /// have to take a slot lock that a long build might hold).
    complete: std::collections::HashSet<ArtifactKey>,
    stats: HashMap<&'static str, KindStats>,
}

/// Where a lookup was resolved (stats bookkeeping).
enum Resolution {
    Disk,
    Build,
}

/// A content-addressed memo store for expensive pipeline intermediates.
///
/// Artifacts are held as `Arc<dyn Any>` and recovered by their concrete
/// type through [`ArtifactStore::get_or_insert`]; the per-kind
/// memory/disk/build counters make work sharing observable (the acceptance
/// probes of the experiment harness assert on them). The store is
/// internally synchronised: all methods take `&self`, so one store can back
/// experiments running on parallel scheduler threads.
///
/// With an attached [`DiskCache`] (see [`ArtifactStore::with_disk`]),
/// [`ArtifactStore::get_or_insert_cached`] additionally persists artifacts
/// across processes: lookups resolve memory → disk → build, and any
/// unreadable or version-mismatched disk entry is a miss, never an error.
///
/// Unlike the LRU-bounded `WorldCache` (which serves the *unbounded*
/// domain-randomised spec space inside a single training run), the
/// in-memory side holds every artifact for the session's lifetime: the
/// artifact population of an experiment run is small and bounded by
/// construction — one entry per distinct `(kind, inputs)` pair that the
/// session touches. The disk side is bounded by the cache's byte budget.
#[derive(Default)]
pub struct ArtifactStore {
    inner: Mutex<Inner>,
    disk: Option<DiskCache>,
    provenance: CacheProvenance,
}

impl std::fmt::Debug for ArtifactStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("ArtifactStore")
            .field("len", &inner.complete.len())
            .field("stats", &inner.stats)
            .field("disk", &self.disk.as_ref().map(DiskCache::root))
            .finish()
    }
}

impl ArtifactStore {
    /// An empty in-memory store (no persistence).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty store that spills [`ArtifactStore::get_or_insert_cached`]
    /// artifacts to the given disk cache, stamping `provenance` into every
    /// entry it publishes.
    pub fn with_disk(disk: DiskCache, provenance: CacheProvenance) -> Self {
        Self {
            inner: Mutex::new(Inner::default()),
            disk: Some(disk),
            provenance,
        }
    }

    /// The attached persistent cache, if any.
    pub fn disk(&self) -> Option<&DiskCache> {
        self.disk.as_ref()
    }

    /// The slot of `key`, created empty on first request.
    fn slot(&self, key: ArtifactKey) -> Slot {
        Arc::clone(self.inner.lock().entries.entry(key).or_default())
    }

    fn note_memory_hit(&self, kind: &'static str) {
        self.inner.lock().stats.entry(kind).or_default().memory_hits += 1;
    }

    fn note_resolved(&self, key: ArtifactKey, how: Resolution) {
        let mut inner = self.inner.lock();
        let stats = inner.stats.entry(key.kind).or_default();
        match how {
            Resolution::Disk => stats.disk_hits += 1,
            Resolution::Build => stats.builds += 1,
        }
        inner.complete.insert(key);
    }

    fn downcast<T: Any + Send + Sync>(
        key: ArtifactKey,
        found: &Arc<dyn Any + Send + Sync>,
    ) -> Arc<T> {
        Arc::clone(found)
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("artifact {key} stored with a different type"))
    }

    /// The artifact under `key`, built by `build` on first request and
    /// served from the in-memory store afterwards. Concurrent requests for
    /// one key build exactly once (later callers block on the slot until
    /// the build finishes, then hit).
    ///
    /// # Errors
    ///
    /// Propagates the builder's error (nothing is cached on failure).
    ///
    /// # Panics
    ///
    /// Panics when the stored artifact under `key` has a different concrete
    /// type than `T` — two callers disagreeing on the payload type of one
    /// kind is a programming error, not a runtime condition.
    pub fn get_or_insert<T, F>(&self, key: ArtifactKey, build: F) -> ect_types::Result<Arc<T>>
    where
        T: Any + Send + Sync,
        F: FnOnce() -> ect_types::Result<T>,
    {
        let slot = self.slot(key);
        let mut guard = slot.lock();
        if let Some(found) = guard.as_ref() {
            let typed = Self::downcast::<T>(key, found);
            drop(guard);
            self.note_memory_hit(key.kind);
            ect_obs::event("artifact.memory_hit", &[("kind", key.kind)]);
            return Ok(typed);
        }
        let built = {
            let _span = ect_obs::span("artifact.build").field("kind", key.kind);
            Arc::new(build()?)
        };
        *guard = Some(Arc::clone(&built) as Arc<dyn Any + Send + Sync>);
        drop(guard);
        self.note_resolved(key, Resolution::Build);
        Ok(built)
    }

    /// The artifact under `key`, resolved **memory → disk → build**: like
    /// [`ArtifactStore::get_or_insert`], but with an attached [`DiskCache`]
    /// the artifact is also persisted across processes — a valid disk entry
    /// is deserialised instead of built (a *disk hit*, bit-identical to the
    /// build by the determinism contract), and fresh builds are published
    /// back to disk (atomic write-then-rename, LRU-evicted to the cache's
    /// byte budget). Without a disk cache this is exactly
    /// `get_or_insert`.
    ///
    /// Any unreadable, corrupted or version-mismatched disk entry is a
    /// miss, never an error.
    ///
    /// # Errors
    ///
    /// Propagates the builder's error (nothing is cached on failure).
    ///
    /// # Panics
    ///
    /// Panics on a concrete-type mismatch with an already-stored artifact
    /// (same contract as [`ArtifactStore::get_or_insert`]).
    pub fn get_or_insert_cached<T, F>(
        &self,
        key: ArtifactKey,
        build: F,
    ) -> ect_types::Result<Arc<T>>
    where
        T: Any + Send + Sync + Serialize + DeserializeOwned,
        F: FnOnce() -> ect_types::Result<T>,
    {
        let slot = self.slot(key);
        let mut guard = slot.lock();
        if let Some(found) = guard.as_ref() {
            let typed = Self::downcast::<T>(key, found);
            drop(guard);
            self.note_memory_hit(key.kind);
            ect_obs::event("artifact.memory_hit", &[("kind", key.kind)]);
            return Ok(typed);
        }
        if let Some(disk) = &self.disk {
            if let Some(value) = disk
                .load(&key)
                .and_then(|bytes| String::from_utf8(bytes).ok())
                .and_then(|json| serde_json::from_str::<T>(&json).ok())
            {
                let loaded = Arc::new(value);
                *guard = Some(Arc::clone(&loaded) as Arc<dyn Any + Send + Sync>);
                drop(guard);
                self.note_resolved(key, Resolution::Disk);
                ect_obs::event("artifact.disk_hit", &[("kind", key.kind)]);
                return Ok(loaded);
            }
        }
        let built = {
            let _span = ect_obs::span("artifact.build").field("kind", key.kind);
            Arc::new(build()?)
        };
        *guard = Some(Arc::clone(&built) as Arc<dyn Any + Send + Sync>);
        drop(guard);
        self.note_resolved(key, Resolution::Build);
        if let Some(disk) = &self.disk {
            if let Ok(json) = serde_json::to_string(&*built) {
                disk.store(&key, &self.provenance, json.as_bytes());
            }
        }
        Ok(built)
    }

    /// The artifact under `key`, if present in memory — a read-only peek
    /// that does not touch the counters.
    ///
    /// # Panics
    ///
    /// Panics when the stored artifact has a different concrete type than
    /// `T` (same contract as [`ArtifactStore::get_or_insert`]).
    pub fn get<T: Any + Send + Sync>(&self, key: &ArtifactKey) -> Option<Arc<T>> {
        let slot = {
            let inner = self.inner.lock();
            if !inner.complete.contains(key) {
                return None;
            }
            Arc::clone(inner.entries.get(key)?)
        };
        let guard = slot.lock();
        guard.as_ref().map(|found| Self::downcast::<T>(*key, found))
    }

    /// `true` when an artifact is stored in memory under `key`.
    pub fn contains(&self, key: &ArtifactKey) -> bool {
        self.inner.lock().complete.contains(key)
    }

    /// `true` when the artifact is available without a build: stored in
    /// memory, or present (though not yet validated) in the disk cache.
    pub fn available_without_build(&self, key: &ArtifactKey) -> bool {
        self.contains(key) || self.disk.as_ref().is_some_and(|disk| disk.contains(key))
    }

    /// Number of stored artifacts (in memory).
    pub fn len(&self) -> usize {
        self.inner.lock().complete.len()
    }

    /// `true` when nothing is stored yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookup counters of one artifact kind (zero when never touched).
    pub fn kind_stats(&self, kind: &str) -> KindStats {
        self.inner
            .lock()
            .stats
            .get(kind)
            .copied()
            .unwrap_or_default()
    }

    /// Every touched kind with its counters, sorted by kind — the
    /// per-kind breakdown `run_all` prints after a pass.
    pub fn stats_snapshot(&self) -> Vec<(&'static str, KindStats)> {
        let inner = self.inner.lock();
        let mut out: Vec<(&'static str, KindStats)> =
            inner.stats.iter().map(|(&k, &s)| (k, s)).collect();
        out.sort_by_key(|(kind, _)| *kind);
        out
    }

    /// Total lookups served without a build (memory + disk) across all
    /// kinds.
    pub fn hits(&self) -> usize {
        self.inner.lock().stats.values().map(KindStats::hits).sum()
    }

    /// Total lookups served from the persistent disk cache.
    pub fn disk_hits(&self) -> usize {
        self.inner.lock().stats.values().map(|s| s.disk_hits).sum()
    }

    /// Total builder invocations across all kinds — the computation budget
    /// actually spent.
    pub fn builds(&self) -> usize {
        self.inner.lock().stats.values().map(|s| s.builds).sum()
    }

    /// Historical alias of [`ArtifactStore::builds`] (every build used to
    /// be a "miss"; with the disk tier a miss may now be a disk hit).
    pub fn misses(&self) -> usize {
        self.builds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn keys_are_stable_and_input_sensitive() {
        let a = ArtifactKey::of("world", &(7u64, "baseline"));
        let b = ArtifactKey::of("world", &(7u64, "baseline"));
        assert_eq!(a, b);
        assert_eq!(a.display(), b.to_string());
        // Any input change moves the digest; a kind change moves the key.
        assert_ne!(a, ArtifactKey::of("world", &(8u64, "baseline")));
        assert_ne!(a, ArtifactKey::of("world", &(7u64, "heatwave")));
        assert_ne!(a, ArtifactKey::of("system", &(7u64, "baseline")));
    }

    #[test]
    fn versioned_keys_separate_code_versions() {
        let v1 = ArtifactKey::versioned("generalist", 1, &(7u64, "baseline"));
        assert_eq!(
            v1,
            ArtifactKey::versioned("generalist", 1, &(7u64, "baseline"))
        );
        // Bumping the code version moves the digest for identical inputs…
        assert_ne!(
            v1,
            ArtifactKey::versioned("generalist", 2, &(7u64, "baseline"))
        );
        // …and stays input-sensitive within one version.
        assert_ne!(
            v1,
            ArtifactKey::versioned("generalist", 1, &(8u64, "baseline"))
        );
        // A versioned key never collides with the unversioned form.
        assert_ne!(v1, ArtifactKey::of("generalist", &(7u64, "baseline")));
    }

    #[test]
    fn a_version_bump_invalidates_memo_and_disk_entries() {
        use crate::cache::{CacheProvenance, DiskCache};
        let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        dir.pop();
        dir.pop();
        dir.push("target");
        dir.push("cache-tests");
        dir.push(format!("store-version-bump-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let prov = CacheProvenance::default();

        // Old code version publishes its artifact to disk.
        let store = ArtifactStore::with_disk(DiskCache::new(&dir), prov.clone());
        let old_key = ArtifactKey::versioned("bumped", 1, &3u8);
        let _: Arc<Vec<u64>> = store
            .get_or_insert_cached(old_key, || Ok(vec![1, 2]))
            .unwrap();

        // New code version (fresh process): the old entry must not be
        // served — the lookup builds, it does not disk-hit.
        let store2 = ArtifactStore::with_disk(DiskCache::new(&dir), prov);
        let new_key = ArtifactKey::versioned("bumped", 2, &3u8);
        let rebuilt: Arc<Vec<u64>> = store2
            .get_or_insert_cached(new_key, || Ok(vec![1, 2, 3]))
            .unwrap();
        assert_eq!(rebuilt.len(), 3);
        assert_eq!(
            store2.kind_stats("bumped"),
            KindStats {
                memory_hits: 0,
                disk_hits: 0,
                builds: 1
            },
            "a version bump must invalidate persisted artifacts"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_builds_once_and_shares_the_arc() {
        let store = ArtifactStore::new();
        let key = ArtifactKey::of("demo", &42u64);
        let mut builds = 0usize;
        let first: Arc<Vec<u64>> = store
            .get_or_insert(key, || {
                builds += 1;
                Ok(vec![1, 2, 3])
            })
            .unwrap();
        let second: Arc<Vec<u64>> = store
            .get_or_insert(key, || {
                builds += 1;
                Ok(vec![9, 9, 9])
            })
            .unwrap();
        assert_eq!(builds, 1, "second lookup must not rebuild");
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(
            store.kind_stats("demo"),
            KindStats {
                memory_hits: 1,
                disk_hits: 0,
                builds: 1
            }
        );
        assert_eq!(store.kind_stats("demo").hits(), 1);
        assert_eq!(store.len(), 1);
        assert!(store.contains(&key));
        assert!(!store.is_empty());

        // get() peeks without counting.
        let peeked: Arc<Vec<u64>> = store.get(&key).expect("stored");
        assert!(Arc::ptr_eq(&peeked, &first));
        assert_eq!(store.kind_stats("demo").hits(), 1);
        assert!(store
            .get::<Vec<u64>>(&ArtifactKey::of("demo", &43u64))
            .is_none());
    }

    #[test]
    fn failed_builds_are_not_cached() {
        let store = ArtifactStore::new();
        let key = ArtifactKey::of("flaky", &1u8);
        let err: ect_types::Result<Arc<u32>> = store.get_or_insert(key, || {
            Err(ect_types::EctError::InvalidConfig("boom".into()))
        });
        assert!(err.is_err());
        assert!(!store.contains(&key));
        // The next attempt runs the builder again and succeeds.
        let ok: Arc<u32> = store.get_or_insert(key, || Ok(5)).unwrap();
        assert_eq!(*ok, 5);
        assert_eq!(
            store.kind_stats("flaky"),
            KindStats {
                memory_hits: 0,
                disk_hits: 0,
                builds: 1
            },
            "failures are not counted as builds"
        );
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_confusion_panics() {
        let store = ArtifactStore::new();
        let key = ArtifactKey::of("demo", &0u8);
        let _: Arc<u32> = store.get_or_insert(key, || Ok(1)).unwrap();
        let _: Arc<String> = store.get_or_insert(key, || Ok("no".into())).unwrap();
    }

    #[test]
    fn concurrent_requests_for_one_key_build_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let store = ArtifactStore::new();
        let key = ArtifactKey::of("contended", &0u8);
        let builds = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let got: Arc<u64> = store
                        .get_or_insert(key, || {
                            builds.fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(std::time::Duration::from_millis(2));
                            Ok(7)
                        })
                        .unwrap();
                    assert_eq!(*got, 7);
                });
            }
        });
        assert_eq!(builds.into_inner(), 1, "one build under contention");
        let stats = store.kind_stats("contended");
        assert_eq!(stats.builds, 1);
        assert_eq!(stats.memory_hits, 7);
    }

    #[test]
    fn cached_lookups_resolve_memory_then_disk_then_build() {
        use crate::cache::{CacheProvenance, DiskCache};
        let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        dir.pop();
        dir.pop();
        dir.push("target");
        dir.push("cache-tests");
        dir.push(format!("store-tiers-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let key = ArtifactKey::of("tiered", &11u8);
        let prov = CacheProvenance::default();

        // Process one: builds, publishes to disk, then memory-hits.
        let store = ArtifactStore::with_disk(DiskCache::new(&dir), prov.clone());
        let built: Arc<Vec<f64>> = store
            .get_or_insert_cached(key, || Ok(vec![1.5, -0.0, 310.25]))
            .unwrap();
        let again: Arc<Vec<f64>> = store
            .get_or_insert_cached(key, || panic!("memory hit must not rebuild"))
            .unwrap();
        assert!(Arc::ptr_eq(&built, &again));
        assert_eq!(
            store.kind_stats("tiered"),
            KindStats {
                memory_hits: 1,
                disk_hits: 0,
                builds: 1
            }
        );

        // "Process" two (fresh store, same cache dir): disk hit, no build,
        // bit-identical payload.
        let store2 = ArtifactStore::with_disk(DiskCache::new(&dir), prov.clone());
        let loaded: Arc<Vec<f64>> = store2
            .get_or_insert_cached(key, || panic!("disk hit must not rebuild"))
            .unwrap();
        assert_eq!(loaded.len(), 3);
        for (a, b) in loaded.iter().zip(built.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(
            store2.kind_stats("tiered"),
            KindStats {
                memory_hits: 0,
                disk_hits: 1,
                builds: 0
            }
        );
        assert!(store2.available_without_build(&key));

        // Corrupt the entry: process three falls back to a clean rebuild.
        let entry = dir.join("tiered").join(format!("{:016x}.ectc", key.digest));
        std::fs::write(&entry, b"ECTC1\ngarbage header\n[]").unwrap();
        let store3 = ArtifactStore::with_disk(DiskCache::new(&dir), prov);
        let rebuilt: Arc<Vec<f64>> = store3
            .get_or_insert_cached(key, || Ok(vec![1.5, -0.0, 310.25]))
            .unwrap();
        assert_eq!(rebuilt.len(), 3);
        assert_eq!(
            store3.kind_stats("tiered"),
            KindStats {
                memory_hits: 0,
                disk_hits: 0,
                builds: 1
            },
            "a corrupted entry is a miss, never an error"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn without_a_disk_cache_cached_lookups_are_plain_memoisation() {
        let store = ArtifactStore::new();
        let key = ArtifactKey::of("plain", &5u8);
        let _: Arc<u64> = store.get_or_insert_cached(key, || Ok(9)).unwrap();
        let _: Arc<u64> = store
            .get_or_insert_cached(key, || panic!("must hit"))
            .unwrap();
        assert_eq!(
            store.kind_stats("plain"),
            KindStats {
                memory_hits: 1,
                disk_hits: 0,
                builds: 1
            }
        );
        assert_eq!(store.disk_hits(), 0);
        assert_eq!(store.hits(), 1);
        assert_eq!(store.builds(), 1);
        assert_eq!(store.misses(), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Satellite contract: the key hash is a pure function of the
        /// serialised inputs — identical inputs collide, any change to any
        /// field separates the keys.
        #[test]
        fn key_hash_tracks_input_identity(
            seed_a in 0u64..1_000_000,
            seed_b in 0u64..1_000_000,
            name_a in 0usize..6,
            name_b in 0usize..6,
            scale in 0usize..4,
        ) {
            const NAMES: [&str; 6] =
                ["", "baseline", "heatwave", "winter-storm", "ev-surge", "outage"];
            let a = ArtifactKey::of("probe", &(seed_a, NAMES[name_a], scale));
            let a_again = ArtifactKey::of("probe", &(seed_a, NAMES[name_a], scale));
            prop_assert_eq!(a, a_again, "identical inputs must share one key");
            let b = ArtifactKey::of("probe", &(seed_b, NAMES[name_b], scale));
            if seed_a == seed_b && name_a == name_b {
                prop_assert_eq!(a, b);
            } else {
                prop_assert_ne!(a, b);
            }
        }
    }
}
