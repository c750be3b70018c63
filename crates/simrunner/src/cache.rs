//! Content-addressed result cache.
//!
//! Each cell result lives in its own file under
//! `<cache_dir>/<experiment>/<key>.json`, where `key` is the FNV-1a hash
//! of (experiment id, version tag, canonical cell params, seed). Entries
//! embed that identity alongside the value — plus, when the cell reported
//! any, a `scopes` array of its scope annotations, so a warm run's manifest
//! matches a cold one's — and a load verifies the identity matches
//! before trusting the payload — this catches hash collisions, stale
//! directories, and hand-edited files. Any unreadable, unparsable, or
//! mismatched entry is treated as a miss; the next store overwrites it.
//!
//! Writes go through a temp file + rename so a crash mid-write never
//! leaves a truncated entry under the final name.
//!
//! Corruption is never trusted and never silently destroyed: an entry
//! that exists but fails to parse (truncated by a crash, hand-edited,
//! bit-rotted) is renamed to `<key>.quarantine` — preserved for
//! post-mortem, off the hot path, counted via
//! [`Cache::quarantined_count`] (`runner.cache_quarantined` in the
//! metric catalogue). A *mismatched* identity under the same key is a
//! plain miss, not corruption: it is a hash collision or a stale slot,
//! and the next store legitimately claims it.

use crate::fnv1a64;
use serde::{Deserialize, Json, Serialize};
use simtrace::ScopeAnnotation;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The identity under which a cell result is stored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellIdentity<'a> {
    /// Experiment id (e.g. `fct_sweep`).
    pub experiment: &'a str,
    /// Code-relevant version tag; bump to invalidate old results.
    pub version: &'a str,
    /// Canonical parameter string of the cell.
    pub params: &'a str,
    /// The cell's seed.
    pub seed: u64,
}

impl CellIdentity<'_> {
    /// The stable content hash this identity is filed under.
    pub fn key(&self) -> u64 {
        let mut buf =
            Vec::with_capacity(self.experiment.len() + self.version.len() + self.params.len() + 27);
        buf.extend_from_slice(self.experiment.as_bytes());
        buf.push(0);
        buf.extend_from_slice(self.version.as_bytes());
        buf.push(0);
        buf.extend_from_slice(self.params.as_bytes());
        buf.push(0);
        buf.extend_from_slice(&self.seed.to_le_bytes());
        fnv1a64(&buf)
    }
}

/// An open per-experiment cache directory.
#[derive(Debug, Clone)]
pub struct Cache {
    dir: PathBuf,
    quarantined: Arc<AtomicU64>,
}

impl Cache {
    /// Open (creating if needed) the cache for `experiment` under `root`.
    pub fn open(root: &Path, experiment: &str) -> io::Result<Cache> {
        let dir = root.join(experiment);
        fs::create_dir_all(&dir)?;
        Ok(Cache {
            dir,
            quarantined: Arc::new(AtomicU64::new(0)),
        })
    }

    /// Corrupt entries quarantined by this handle (and its clones) so far.
    pub fn quarantined_count(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Move a corrupt entry aside (best effort) and count it. The rename
    /// keeps the bytes for post-mortem while freeing the slot for the
    /// next store.
    fn quarantine(&self, path: &Path) {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        let _ = fs::rename(path, path.with_extension("quarantine"));
    }

    /// The directory entries are stored in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for_key(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.json"))
    }

    /// The file an identity's entry is (or would be) stored in.
    pub fn entry_path(&self, id: &CellIdentity<'_>) -> PathBuf {
        self.path_for_key(id.key())
    }

    /// Load a cached value, or `None` on any miss/corruption/mismatch.
    ///
    /// A hit bumps the entry's mtime so the size-capped sweep
    /// ([`sweep_lru`]) evicts least-recently-*used* entries, not merely
    /// least-recently-written ones.
    pub fn load<T: Deserialize>(&self, id: &CellIdentity<'_>) -> Option<T> {
        self.load_with_scopes(id).map(|(value, _)| value)
    }

    /// [`load`](Self::load), also returning the scope annotations stored
    /// with the value (empty when the entry has none).
    pub(crate) fn load_with_scopes<T: Deserialize>(
        &self,
        id: &CellIdentity<'_>,
    ) -> Option<(T, Vec<ScopeAnnotation>)> {
        let path = self.path_for_key(id.key());
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            // Absent is the normal miss; any other read error (perms,
            // I/O) degrades to a miss without touching the file.
            Err(_) => return None,
        };
        // Entry present but structurally broken → quarantine, miss.
        let Some(json) = Json::parse(&text) else {
            self.quarantine(&path);
            return None;
        };
        let identity = (|| {
            let obj = json.as_obj()?;
            Some((
                Json::field(obj, "experiment")?.as_str()?,
                Json::field(obj, "version")?.as_str()?,
                Json::field(obj, "params")?.as_str()?,
                u64::from_json(Json::field(obj, "seed")?)?,
            ))
        })();
        let Some((experiment, version, params, seed)) = identity else {
            self.quarantine(&path);
            return None;
        };
        if experiment != id.experiment
            || version != id.version
            || params != id.params
            || seed != id.seed
        {
            // Collision or stale slot: a legitimate miss, next store
            // overwrites it.
            return None;
        }
        let payload = json.as_obj().and_then(|obj| {
            let value = T::from_json(Json::field(obj, "value")?)?;
            let scopes = match Json::field(obj, "scopes") {
                Some(s) => Vec::from_json(s)?,
                None => Vec::new(),
            };
            Some((value, scopes))
        });
        let Some(payload) = payload else {
            // Identity matches but the payload doesn't decode: the entry
            // is corrupt for exactly this reader.
            self.quarantine(&path);
            return None;
        };
        // Best-effort recency touch; a failure only skews eviction order.
        if let Ok(file) = fs::File::options().write(true).open(&path) {
            let _ = file.set_modified(std::time::SystemTime::now());
        }
        Some(payload)
    }

    /// Store a value under its identity (overwrites any previous entry).
    pub fn store<T: Serialize>(&self, id: &CellIdentity<'_>, value: &T) -> io::Result<()> {
        self.store_with_scopes(id, value, &[])
    }

    /// [`store`](Self::store) with the cell's scope annotations beside the
    /// value. An empty list adds nothing, so such an entry is
    /// byte-identical to a plain [`store`](Self::store).
    pub(crate) fn store_with_scopes<T: Serialize>(
        &self,
        id: &CellIdentity<'_>,
        value: &T,
        scopes: &[ScopeAnnotation],
    ) -> io::Result<()> {
        let mut fields = vec![
            (
                "experiment".to_string(),
                Json::Str(id.experiment.to_string()),
            ),
            ("version".to_string(), Json::Str(id.version.to_string())),
            ("params".to_string(), Json::Str(id.params.to_string())),
            ("seed".to_string(), Json::Num(id.seed as f64)),
            ("value".to_string(), value.to_json()),
        ];
        if !scopes.is_empty() {
            let scopes = scopes.iter().map(Serialize::to_json).collect();
            fields.push(("scopes".to_string(), Json::Arr(scopes)));
        }
        let entry = Json::Obj(fields);
        let path = self.path_for_key(id.key());
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, entry.render())?;
        fs::rename(&tmp, &path)
    }
}

/// What [`sweep_lru`] found and removed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Entry files present before the sweep.
    pub entries_before: usize,
    /// Total bytes on disk before the sweep.
    pub bytes_before: u64,
    /// Entry files deleted.
    pub entries_removed: usize,
    /// Bytes freed.
    pub bytes_removed: u64,
}

impl SweepStats {
    /// Entries remaining after the sweep.
    pub fn entries_after(&self) -> usize {
        self.entries_before - self.entries_removed
    }

    /// Bytes remaining after the sweep.
    pub fn bytes_after(&self) -> u64 {
        self.bytes_before - self.bytes_removed
    }
}

/// Evict least-recently-used entries under the cache `root` (all
/// experiment subdirectories) until the total size is at most
/// `max_bytes`.
///
/// Recency is file mtime: stores write it, and [`Cache::load`] bumps it
/// on every hit. Stray `.tmp` files from interrupted writes are always
/// removed. A missing root is an empty cache, not an error.
pub fn sweep_lru(root: &Path, max_bytes: u64) -> io::Result<SweepStats> {
    let mut entries: Vec<(std::time::SystemTime, u64, PathBuf)> = Vec::new();
    let mut stats = SweepStats::default();
    let dirs = match fs::read_dir(root) {
        Ok(d) => d,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(stats),
        Err(e) => return Err(e),
    };
    for dir in dirs {
        let dir = dir?;
        if !dir.file_type()?.is_dir() {
            continue;
        }
        for file in fs::read_dir(dir.path())? {
            let file = file?;
            let path = file.path();
            if path.extension().is_some_and(|e| e == "tmp") {
                let _ = fs::remove_file(&path);
                continue;
            }
            // Quarantined entries are dead weight kept only for
            // post-mortem; they age out through the same LRU budget.
            if path
                .extension()
                .is_none_or(|e| e != "json" && e != "quarantine")
            {
                continue;
            }
            let meta = file.metadata()?;
            let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
            entries.push((mtime, meta.len(), path));
            stats.entries_before += 1;
            stats.bytes_before += meta.len();
        }
    }
    // Oldest first: those go first when we're over budget.
    entries.sort();
    let mut total = stats.bytes_before;
    for (_, len, path) in entries {
        if total <= max_bytes {
            break;
        }
        fs::remove_file(&path)?;
        total -= len;
        stats.entries_removed += 1;
        stats.bytes_removed += len;
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "simrunner-cache-unit-{}-{name}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn keys_separate_every_identity_axis() {
        let base = CellIdentity {
            experiment: "e",
            version: "v1",
            params: "a=1",
            seed: 7,
        };
        let mut other = base.clone();
        other.seed = 8;
        assert_ne!(base.key(), other.key());
        let mut other = base.clone();
        other.version = "v2";
        assert_ne!(base.key(), other.key());
        let mut other = base.clone();
        other.params = "a=2";
        assert_ne!(base.key(), other.key());
        let mut other = base.clone();
        other.experiment = "f";
        assert_ne!(base.key(), other.key());
        assert_eq!(base.key(), base.clone().key());
    }

    #[test]
    fn roundtrip_and_miss() {
        let root = scratch("roundtrip");
        let cache = Cache::open(&root, "exp").unwrap();
        let id = CellIdentity {
            experiment: "exp",
            version: "v1",
            params: "size=1",
            seed: 3,
        };
        assert_eq!(cache.load::<f64>(&id), None);
        cache.store(&id, &1.25f64).unwrap();
        assert_eq!(cache.load::<f64>(&id), Some(1.25));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn sweep_evicts_oldest_first_and_clears_tmp() {
        let root = scratch("sweep");
        let cache = Cache::open(&root, "exp").unwrap();
        let mut paths = Vec::new();
        for seed in 0..4u64 {
            let id = CellIdentity {
                experiment: "exp",
                version: "v1",
                params: "p",
                seed,
            };
            cache.store(&id, &(seed as f64)).unwrap();
            let path = cache.entry_path(&id);
            // Deterministic mtimes: seed 0 is oldest.
            let t = std::time::UNIX_EPOCH + std::time::Duration::from_secs(1_000 + seed);
            fs::File::options()
                .write(true)
                .open(&path)
                .unwrap()
                .set_modified(t)
                .unwrap();
            paths.push(path);
        }
        fs::write(cache.dir().join("stale.tmp"), b"junk").unwrap();
        let per_entry = fs::metadata(&paths[0]).unwrap().len();
        // Budget for exactly two entries: seeds 0 and 1 must go.
        let stats = sweep_lru(&root, per_entry * 2).unwrap();
        assert_eq!(stats.entries_before, 4);
        assert_eq!(stats.entries_removed, 2);
        assert_eq!(stats.entries_after(), 2);
        assert!(!paths[0].exists() && !paths[1].exists());
        assert!(paths[2].exists() && paths[3].exists());
        assert!(!cache.dir().join("stale.tmp").exists());
        // Under budget: nothing further removed.
        let stats = sweep_lru(&root, u64::MAX).unwrap();
        assert_eq!(stats.entries_removed, 0);
        // Missing root is fine.
        let stats = sweep_lru(&root.join("nope"), 0).unwrap();
        assert_eq!(stats.entries_before, 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn load_touches_entry_mtime() {
        let root = scratch("touch");
        let cache = Cache::open(&root, "exp").unwrap();
        let id = CellIdentity {
            experiment: "exp",
            version: "v1",
            params: "p",
            seed: 9,
        };
        cache.store(&id, &1.0f64).unwrap();
        let path = cache.entry_path(&id);
        let old = std::time::UNIX_EPOCH + std::time::Duration::from_secs(1);
        fs::File::options()
            .write(true)
            .open(&path)
            .unwrap()
            .set_modified(old)
            .unwrap();
        assert_eq!(cache.load::<f64>(&id), Some(1.0));
        let touched = fs::metadata(&path).unwrap().modified().unwrap();
        assert!(touched > old, "hit must refresh recency");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_entry_is_quarantined_not_trusted() {
        let root = scratch("quarantine");
        let cache = Cache::open(&root, "exp").unwrap();
        let id = CellIdentity {
            experiment: "exp",
            version: "v1",
            params: "p",
            seed: 5,
        };
        cache.store(&id, &3.5f64).unwrap();
        let path = cache.entry_path(&id);
        // Truncate mid-entry, as a crash during a non-atomic writer would.
        fs::write(&path, "{\"experiment\":\"exp\",\"ver").unwrap();
        assert_eq!(cache.load::<f64>(&id), None, "corruption must miss");
        assert_eq!(cache.quarantined_count(), 1);
        assert!(!path.exists(), "corrupt entry must leave the hot slot");
        assert!(
            path.with_extension("quarantine").exists(),
            "corrupt bytes must be preserved for post-mortem"
        );
        // The slot is free again: a store and reload work normally.
        cache.store(&id, &4.5f64).unwrap();
        assert_eq!(cache.load::<f64>(&id), Some(4.5));
        assert_eq!(cache.quarantined_count(), 1);
        // A value that no longer decodes as the expected type is also
        // corruption (e.g. an encoding change without a version bump).
        fs::write(
            &path,
            "{\"experiment\":\"exp\",\"version\":\"v1\",\"params\":\"p\",\
             \"seed\":5,\"value\":\"not-a-float\"}",
        )
        .unwrap();
        assert_eq!(cache.load::<f64>(&id), None);
        assert_eq!(cache.quarantined_count(), 2);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn sweep_ages_out_quarantined_files() {
        let root = scratch("sweep-quarantine");
        let cache = Cache::open(&root, "exp").unwrap();
        let id = CellIdentity {
            experiment: "exp",
            version: "v1",
            params: "p",
            seed: 1,
        };
        cache.store(&id, &1.0f64).unwrap();
        fs::write(cache.entry_path(&id), "garbage").unwrap();
        assert_eq!(cache.load::<f64>(&id), None);
        let q = cache.entry_path(&id).with_extension("quarantine");
        assert!(q.exists());
        let stats = sweep_lru(&root, 0).unwrap();
        assert_eq!(stats.entries_removed, 1);
        assert!(!q.exists(), "quarantine files must respect the budget");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn mismatched_identity_under_same_key_is_a_miss() {
        // Forge a collision by writing an entry file whose embedded
        // identity differs from what the reader expects.
        let root = scratch("forge");
        let cache = Cache::open(&root, "exp").unwrap();
        let id = CellIdentity {
            experiment: "exp",
            version: "v1",
            params: "p",
            seed: 1,
        };
        cache.store(&id, &2.0f64).unwrap();
        let mut fake = id.clone();
        fake.params = "q";
        // Copy the real entry over the fake identity's slot.
        fs::copy(
            cache.dir().join(format!("{:016x}.json", id.key())),
            cache.dir().join(format!("{:016x}.json", fake.key())),
        )
        .unwrap();
        assert_eq!(
            cache.load::<f64>(&fake),
            None,
            "embedded identity must gate the hit"
        );
        let _ = fs::remove_dir_all(&root);
    }
}
