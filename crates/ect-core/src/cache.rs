//! The persistent content-addressed artifact cache.
//!
//! The in-memory [`ArtifactStore`](crate::artifact::ArtifactStore) memoises
//! expensive intermediates *within* one process; this module spills those
//! artifacts to disk so repeated **processes** — CI smoke runs, iterative
//! benchmarking, the re-anchor loop — skip retraining entirely. Entries are
//! keyed by the same FNV-1a [`ArtifactKey`] the store uses, live under one
//! root directory (`results/cache/` for the bench harness) as
//! `<root>/<kind>/<digest>.ectc`, and carry a versioned header with build
//! provenance.
//!
//! Design contract, in order of importance:
//!
//! 1. **A cache must never turn into an error.** Corrupted, truncated,
//!    version-mismatched or otherwise unreadable entries are *misses* (and
//!    are swept from disk); failed writes are silently dropped. The worst a
//!    broken cache can do is cost a rebuild.
//! 2. **Hits are bit-identical to rebuilds.** Payloads are the workspace
//!    serde JSON of the artifact; the vendored `serde_json` emits finite
//!    `f64`s via shortest-round-trip formatting and parses them back through
//!    `str::parse::<f64>` (correctly rounded), so a disk round trip
//!    reproduces the artifact bit for bit — the same determinism contract
//!    that makes the in-memory store safe.
//! 3. **Publication is atomic.** Entries are written to a dot-prefixed
//!    temporary file in the same directory and `rename`d into place, so a
//!    concurrent reader (another experiment thread, another process) sees
//!    either the whole entry or no entry.
//! 4. **Disk usage is bounded.** After every write the cache evicts
//!    least-recently-used entries (reads touch the file modification time)
//!    until the total payload is within the byte budget.
//!
//! ## Entry format
//!
//! ```text
//! ECTC1\n
//! {"format":1,"crate_version":"0.1.0","kind":"generalist", ...}\n
//! <payload bytes: workspace serde JSON of the artifact>
//! ```
//!
//! The header records the cache-format version, the producing crate
//! version, the key (kind + digest), provenance (producing experiment
//! label, master seed, run scale) and a checksum over the provenance and
//! the payload. Any mismatch between the header and the requested key, the
//! running crate version, or the checksum is a miss, so no single flipped
//! or truncated byte of an entry is ever served.

use crate::artifact::ArtifactKey;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::time::SystemTime;

/// Version of the on-disk entry format. Bump on any layout change: entries
/// written by other versions are treated as misses and swept.
pub const CACHE_FORMAT_VERSION: u32 = 2;

/// Magic first line of every cache entry.
const MAGIC: &str = "ECTC1";

/// File extension of published entries (temporaries are dot-prefixed and
/// never scanned).
const ENTRY_EXT: &str = "ectc";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Continues an FNV-1a hash from state `h` over `bytes`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over the provenance JSON followed by the payload bytes.
fn entry_checksum(provenance: &CacheProvenance, payload: &[u8]) -> Option<u64> {
    let provenance = serde_json::to_string(provenance).ok()?;
    Some(fnv1a(fnv1a(FNV_OFFSET, provenance.as_bytes()), payload))
}

/// Build provenance stamped into every entry header: which experiment (or
/// session label) produced the artifact, under which master seed, at which
/// run scale. Purely informational — provenance does not participate in
/// lookup (the content-addressed key already covers every input).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheProvenance {
    /// Producing experiment / session label.
    pub experiment: String,
    /// Master seed of the producing configuration.
    pub seed: u64,
    /// Run scale label (`smoke` / `quick` / `paper`).
    pub scale: String,
}

impl Default for CacheProvenance {
    fn default() -> Self {
        Self {
            experiment: "session".into(),
            seed: 0,
            scale: "quick".into(),
        }
    }
}

/// The versioned header of one on-disk entry.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CacheHeader {
    /// Cache-format version ([`CACHE_FORMAT_VERSION`]).
    format: u32,
    /// `CARGO_PKG_VERSION` of the producing ect-core.
    crate_version: String,
    /// Artifact kind label of the key.
    kind: String,
    /// FNV-1a digest of the key, `{:016x}`.
    digest: String,
    /// Payload length in bytes (truncation check).
    payload_len: u64,
    /// FNV-1a over the provenance JSON and the payload bytes (corruption
    /// check).
    checksum: u64,
    /// Build provenance.
    provenance: CacheProvenance,
}

/// A size-bounded, content-addressed disk cache of serialised artifacts.
///
/// See the module docs for the format and the never-an-error contract. The
/// cache is cheap to clone (it is a path plus a budget); clones share the
/// same on-disk state.
#[derive(Debug, Clone)]
pub struct DiskCache {
    root: PathBuf,
    budget_bytes: u64,
}

impl DiskCache {
    /// Default eviction budget: 2 GiB of published entries.
    pub const DEFAULT_BUDGET_BYTES: u64 = 2 * 1024 * 1024 * 1024;

    /// A cache rooted at `root` with the default byte budget. The directory
    /// is created lazily on first write.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self::with_budget(root, Self::DEFAULT_BUDGET_BYTES)
    }

    /// A cache rooted at `root` evicting down to `budget_bytes` of
    /// published entries after every write.
    pub fn with_budget(root: impl Into<PathBuf>, budget_bytes: u64) -> Self {
        Self {
            root: root.into(),
            budget_bytes,
        }
    }

    /// The cache root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The eviction byte budget.
    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }

    fn entry_path(&self, key: &ArtifactKey) -> PathBuf {
        self.root
            .join(key.kind)
            .join(format!("{:016x}.{ENTRY_EXT}", key.digest))
    }

    /// `true` when a published entry exists under `key` (without validating
    /// it — used to pick progress messages, not to promise a hit).
    pub fn contains(&self, key: &ArtifactKey) -> bool {
        self.entry_path(key).is_file()
    }

    /// Loads and validates the payload stored under `key`. Any failure —
    /// missing file, bad magic, unparsable or mismatched header, foreign
    /// crate version, truncation, checksum mismatch — is a **miss**
    /// (`None`), and invalid entries are swept from disk. A hit touches the
    /// entry's modification time (the LRU clock).
    pub fn load(&self, key: &ArtifactKey) -> Option<Vec<u8>> {
        let path = self.entry_path(key);
        let bytes = std::fs::read(&path).ok()?;
        match Self::validate(key, &bytes) {
            Some(payload_start) => {
                touch(&path);
                ect_obs::counter_add(
                    "cache.disk_read_bytes",
                    (bytes.len() - payload_start) as u64,
                );
                Some(bytes[payload_start..].to_vec())
            }
            None => {
                // Invalid entries are swept so they stop costing read time.
                let _ = std::fs::remove_file(&path);
                ect_obs::counter_add("cache.swept", 1);
                None
            }
        }
    }

    /// Validates an entry's bytes against `key`; returns the payload offset
    /// on success.
    fn validate(key: &ArtifactKey, bytes: &[u8]) -> Option<usize> {
        let magic_end = bytes.iter().position(|&b| b == b'\n')?;
        if &bytes[..magic_end] != MAGIC.as_bytes() {
            return None;
        }
        let header_end = magic_end + 1 + bytes[magic_end + 1..].iter().position(|&b| b == b'\n')?;
        let header_json = std::str::from_utf8(&bytes[magic_end + 1..header_end]).ok()?;
        let header: CacheHeader = serde_json::from_str(header_json).ok()?;
        let payload = &bytes[header_end + 1..];
        let valid = header.format == CACHE_FORMAT_VERSION
            && header.crate_version == env!("CARGO_PKG_VERSION")
            && header.kind == key.kind
            && header.digest == format!("{:016x}", key.digest)
            && header.payload_len == payload.len() as u64
            && Some(header.checksum) == entry_checksum(&header.provenance, payload);
        valid.then_some(header_end + 1)
    }

    /// Publishes `payload` under `key`: atomic write-then-rename, followed
    /// by LRU eviction down to the byte budget. Best-effort — failures are
    /// silently dropped (the cache must never turn into an error).
    pub fn store(&self, key: &ArtifactKey, provenance: &CacheProvenance, payload: &[u8]) {
        let Some(checksum) = entry_checksum(provenance, payload) else {
            return;
        };
        let header = CacheHeader {
            format: CACHE_FORMAT_VERSION,
            crate_version: env!("CARGO_PKG_VERSION").to_string(),
            kind: key.kind.to_string(),
            digest: format!("{:016x}", key.digest),
            payload_len: payload.len() as u64,
            checksum,
            provenance: provenance.clone(),
        };
        let Ok(header_json) = serde_json::to_string(&header) else {
            return;
        };
        let mut bytes = Vec::with_capacity(MAGIC.len() + header_json.len() + payload.len() + 2);
        bytes.extend_from_slice(MAGIC.as_bytes());
        bytes.push(b'\n');
        bytes.extend_from_slice(header_json.as_bytes());
        bytes.push(b'\n');
        bytes.extend_from_slice(payload);

        let path = self.entry_path(key);
        let Some(dir) = path.parent() else { return };
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        // Dot-prefixed temporary in the same directory (same filesystem, so
        // the rename is atomic); the pid suffix keeps concurrent processes
        // out of each other's way.
        let tmp = dir.join(format!(".tmp-{:016x}-{}", key.digest, std::process::id()));
        if std::fs::write(&tmp, &bytes).is_err() {
            let _ = std::fs::remove_file(&tmp);
            return;
        }
        if std::fs::rename(&tmp, &path).is_err() {
            let _ = std::fs::remove_file(&tmp);
            return;
        }
        ect_obs::counter_add("cache.disk_write_bytes", bytes.len() as u64);
        self.evict_to_budget(&path);
    }

    /// Every published entry as `(path, len, modified)`, oldest first.
    fn entries(&self) -> Vec<(PathBuf, u64, SystemTime)> {
        let mut out = Vec::new();
        let Ok(kinds) = std::fs::read_dir(&self.root) else {
            return out;
        };
        for kind in kinds.flatten() {
            let Ok(files) = std::fs::read_dir(kind.path()) else {
                continue;
            };
            for file in files.flatten() {
                let path = file.path();
                if path.extension().and_then(|e| e.to_str()) != Some(ENTRY_EXT) {
                    continue;
                }
                let Ok(meta) = file.metadata() else { continue };
                if !meta.is_file() {
                    continue;
                }
                let modified = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                out.push((path, meta.len(), modified));
            }
        }
        // Oldest first; ties (same-second writes) break by path so eviction
        // order is deterministic.
        out.sort_by(|a, b| a.2.cmp(&b.2).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Evicts least-recently-used entries until the total size is within
    /// the budget. The just-written entry (`keep`) is evicted only as a
    /// last resort — when it alone exceeds the whole budget — so the bound
    /// holds unconditionally.
    fn evict_to_budget(&self, keep: &Path) {
        let entries = self.entries();
        let mut total: u64 = entries.iter().map(|(_, len, _)| len).sum();
        if total <= self.budget_bytes {
            return;
        }
        for (path, len, _) in &entries {
            if total <= self.budget_bytes {
                break;
            }
            if path == keep {
                continue;
            }
            if std::fs::remove_file(path).is_ok() {
                total -= len;
                ect_obs::counter_add("cache.evictions", 1);
            }
        }
        if total > self.budget_bytes {
            let _ = std::fs::remove_file(keep);
            ect_obs::counter_add("cache.evictions", 1);
        }
    }

    /// Total bytes of published entries currently on disk.
    pub fn total_bytes(&self) -> u64 {
        self.entries().iter().map(|(_, len, _)| len).sum()
    }

    /// Number of published entries currently on disk.
    pub fn entry_count(&self) -> usize {
        self.entries().len()
    }
}

/// Best-effort LRU touch: bump the file's modification time to now.
fn touch(path: &Path) {
    if let Ok(file) = std::fs::File::options().write(true).open(path) {
        let _ = file.set_modified(SystemTime::now());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A unique scratch directory under the crate's target dir (tests must
    /// not write outside the workspace).
    fn scratch(tag: &str) -> PathBuf {
        static NONCE: AtomicU64 = AtomicU64::new(0);
        let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        dir.pop();
        dir.pop();
        dir.push("target");
        dir.push("cache-tests");
        dir.push(format!(
            "{tag}-{}-{}",
            std::process::id(),
            NONCE.fetch_add(1, Ordering::Relaxed)
        ));
        dir
    }

    fn key(kind: &'static str, n: u64) -> ArtifactKey {
        ArtifactKey::of(kind, &n)
    }

    #[test]
    fn store_then_load_round_trips_the_payload() {
        let dir = scratch("roundtrip");
        let cache = DiskCache::new(&dir);
        let k = key("demo", 7);
        assert!(!cache.contains(&k));
        assert_eq!(cache.load(&k), None, "cold cache is a miss");

        let payload = b"{\"reward\":310.25}".to_vec();
        cache.store(&k, &CacheProvenance::default(), &payload);
        assert!(cache.contains(&k));
        assert_eq!(
            cache.load(&k),
            Some(payload.clone()),
            "hit returns the exact bytes"
        );
        assert_eq!(cache.entry_count(), 1);
        assert!(cache.total_bytes() > payload.len() as u64, "header counted");

        // A different key misses without touching the stored entry.
        assert_eq!(cache.load(&key("demo", 8)), None);
        assert_eq!(cache.load(&key("other", 7)), None);
        assert!(cache.contains(&k));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_truncated_and_mismatched_entries_are_misses_and_swept() {
        let dir = scratch("corrupt");
        let cache = DiskCache::new(&dir);
        let k = key("demo", 1);
        let payload = b"[1.0,2.0,3.0]".to_vec();
        let path = cache.entry_path(&k);

        type Corruption = Box<dyn Fn(Vec<u8>) -> Vec<u8>>;
        let corruptions: Vec<(&str, Corruption)> = vec![
            ("flipped payload byte", {
                Box::new(|mut b: Vec<u8>| {
                    let last = b.len() - 2;
                    b[last] ^= 0x20;
                    b
                })
            }),
            (
                "truncated file",
                Box::new(|b: Vec<u8>| b[..b.len() / 2].to_vec()),
            ),
            ("wrong magic", {
                Box::new(|mut b: Vec<u8>| {
                    b[4] = b'9'; // ECTC1 -> ECTC9
                    b
                })
            }),
            ("format-version mismatch", {
                Box::new(|b: Vec<u8>| {
                    let text = String::from_utf8(b).unwrap();
                    let format = format!("\"format\":{CACHE_FORMAT_VERSION}");
                    text.replacen(&format, "\"format\":999", 1).into_bytes()
                })
            }),
            ("crate-version mismatch", {
                Box::new(|b: Vec<u8>| {
                    let text = String::from_utf8(b).unwrap();
                    text.replacen(
                        &format!("\"crate_version\":\"{}\"", env!("CARGO_PKG_VERSION")),
                        "\"crate_version\":\"0.0.0-foreign\"",
                        1,
                    )
                    .into_bytes()
                })
            }),
            ("header not json", {
                Box::new(|b: Vec<u8>| {
                    let magic_end = b.iter().position(|&x| x == b'\n').unwrap();
                    let mut out = b[..=magic_end].to_vec();
                    out.extend_from_slice(b"not a header\n");
                    out.extend_from_slice(&b[magic_end + 1..]);
                    out
                })
            }),
            ("empty file", Box::new(|_| Vec::new())),
        ];
        for (what, corrupt) in corruptions {
            cache.store(&k, &CacheProvenance::default(), &payload);
            let healthy = std::fs::read(&path).unwrap();
            std::fs::write(&path, corrupt(healthy)).unwrap();
            assert_eq!(cache.load(&k), None, "{what} must be a miss");
            assert!(!path.exists(), "{what} must be swept from disk");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_keeps_total_within_budget_lru_first() {
        let dir = scratch("evict");
        // Each entry is ~190 bytes (header) + payload; a 1 KiB budget holds
        // only a few.
        let cache = DiskCache::with_budget(&dir, 1024);
        let payload = vec![b'x'; 200];
        for n in 0..8 {
            cache.store(&key("demo", n), &CacheProvenance::default(), &payload);
            assert!(
                cache.total_bytes() <= 1024,
                "budget exceeded after insert {n}: {}",
                cache.total_bytes()
            );
        }
        // The newest entry always survives its own insertion.
        assert!(cache.contains(&key("demo", 7)));
        // And an entry larger than the whole budget is not kept at all.
        cache.store(
            &key("huge", 0),
            &CacheProvenance::default(),
            &vec![b'y'; 4096],
        );
        assert!(!cache.contains(&key("huge", 0)));
        assert!(cache.total_bytes() <= 1024);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn provenance_lands_in_the_header() {
        let dir = scratch("provenance");
        let cache = DiskCache::new(&dir);
        let k = key("generalist", 42);
        let prov = CacheProvenance {
            experiment: "run_all".into(),
            seed: 1234,
            scale: "smoke".into(),
        };
        cache.store(&k, &prov, b"{}");
        let raw = std::fs::read_to_string(cache.entry_path(&k)).unwrap();
        assert!(raw.starts_with("ECTC1\n"));
        assert!(raw.contains("\"experiment\":\"run_all\""));
        assert!(raw.contains("\"seed\":1234"));
        assert!(raw.contains("\"scale\":\"smoke\""));
        assert!(raw.contains("\"kind\":\"generalist\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Satellite contract: a disk round trip returns the artifact bit
        /// for bit — including awkward `f64`s (negative zero, subnormals,
        /// values needing all 17 digits), which must survive the JSON
        /// emit/parse pair exactly.
        #[test]
        fn disk_round_trip_is_bit_identical(
            bits in collection::vec(0u64..u64::MAX, 1..32),
            seed in 0u64..u64::MAX,
        ) {
            let values: Vec<f64> = bits
                .iter()
                .map(|&b| f64::from_bits(b))
                .filter(|f| f.is_finite())
                .collect();
            let dir = scratch("prop-roundtrip");
            let cache = DiskCache::new(&dir);
            let k = ArtifactKey::of("prop", &seed);
            let json = serde_json::to_string(&values).unwrap();
            cache.store(&k, &CacheProvenance::default(), json.as_bytes());
            let loaded = cache.load(&k).expect("fresh entry hits");
            prop_assert_eq!(&loaded, &json.clone().into_bytes(), "bytes round-trip");
            let back: Vec<f64> = serde_json::from_str(std::str::from_utf8(&loaded).unwrap()).unwrap();
            prop_assert_eq!(back.len(), values.len());
            for (a, b) in back.iter().zip(&values) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "f64 must round-trip bitwise");
            }
            let _ = std::fs::remove_dir_all(&dir);
        }

        /// Satellite contract: eviction never lets the published total
        /// exceed the configured byte budget, whatever the write sequence.
        #[test]
        fn eviction_never_exceeds_the_budget(
            budget in 256u64..4096,
            sizes in collection::vec(1usize..1024, 1..24),
        ) {
            let dir = scratch("prop-evict");
            let cache = DiskCache::with_budget(&dir, budget);
            for (n, size) in sizes.iter().enumerate() {
                let payload = vec![b'z'; *size];
                cache.store(&ArtifactKey::of("prop", &n), &CacheProvenance::default(), &payload);
                prop_assert!(
                    cache.total_bytes() <= budget,
                    "total {} exceeds budget {budget} after insert {n}",
                    cache.total_bytes()
                );
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// The bytes of one valid entry for `key`, as `store` publishes them.
    fn entry_bytes(key: &ArtifactKey, payload: &[u8]) -> Vec<u8> {
        let dir = scratch("entry");
        let cache = DiskCache::new(&dir);
        let provenance = CacheProvenance {
            experiment: "run_all".into(),
            seed: 1234,
            scale: "smoke".into(),
        };
        cache.store(key, &provenance, payload);
        let bytes = std::fs::read(cache.entry_path(key)).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary bytes — raw, or behind the magic line so the header
        /// parser sees them — never panic `load` and are swept as a miss.
        #[test]
        fn arbitrary_bytes_are_a_miss(
            raw in collection::vec(0u16..256, 0..256),
            behind_magic in 0u8..2,
        ) {
            let mut bytes = if behind_magic == 1 { b"ECTC1\n".to_vec() } else { Vec::new() };
            bytes.extend(raw.iter().map(|&b| b as u8));
            let dir = scratch("fuzz-load");
            let cache = DiskCache::new(&dir);
            let k = key("fuzz", 1);
            let path = cache.entry_path(&k);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &bytes).unwrap();
            prop_assert_eq!(cache.load(&k), None);
            prop_assert!(!path.exists(), "garbage must be swept");
            let _ = std::fs::remove_dir_all(&dir);
        }

        /// A valid entry with any single byte flipped is a miss.
        #[test]
        fn every_single_byte_flip_is_a_miss(mask in 1u16..256) {
            let k = key("fuzz", 2);
            let entry = entry_bytes(&k, b"[1.5,-0.0,3e-310]");
            prop_assert!(DiskCache::validate(&k, &entry).is_some());
            for at in 0..entry.len() {
                let mut flipped = entry.clone();
                flipped[at] ^= mask as u8;
                prop_assert_eq!(DiskCache::validate(&k, &flipped), None, "byte {} ^ {:#x}", at, mask);
            }
        }
    }

    #[test]
    fn every_truncation_is_a_miss() {
        let k = key("fuzz", 3);
        let entry = entry_bytes(&k, b"{\"reward\":310.25}");
        for cut in 0..entry.len() {
            assert_eq!(DiskCache::validate(&k, &entry[..cut]), None, "cut at {cut}");
        }
    }
}
