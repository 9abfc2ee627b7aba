//! The content-addressed on-disk run store.
//!
//! Layout under the store root:
//!
//! ```text
//! runs/<16-hex-fnv1a>.json       one RunDoc per simulated grid cell
//! machines/<16-hex-fnv1a>.json   one calibration document per machine
//! ```
//!
//! The filename stem *is* the content key (the FNV-1a hash of the run's
//! canonical config string, or of the machine's parameter dump), which
//! gives the store three properties for free: inserts are idempotent
//! (same config → same path), lookups are a single `stat`, and integrity
//! is checkable offline — [`RunStore::gc`] re-parses every document and
//! compares its recomputed hash against its filename.
//!
//! Writes go through a temp file + atomic rename so a crashed sweep never
//! leaves a half-written document behind a valid key.

use crate::doc::RunDoc;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Handle to a store root (directories created on open).
#[derive(Debug, Clone)]
pub struct RunStore {
    root: PathBuf,
}

/// The verdict of one integrity sweep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Documents that parsed and whose hash matches their filename.
    pub intact: usize,
    /// Files removed: unparsable, wrong schema, or hash/filename mismatch.
    pub removed: Vec<PathBuf>,
    /// Leftover temp files from interrupted writes, removed.
    pub stale_tmp: usize,
}

impl RunStore {
    /// Open (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<RunStore> {
        let root = root.into();
        fs::create_dir_all(root.join("runs"))?;
        fs::create_dir_all(root.join("machines"))?;
        Ok(RunStore { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn run_path(&self, hash: &str) -> PathBuf {
        self.root.join("runs").join(format!("{hash}.json"))
    }

    fn machine_path(&self, fp: &str) -> PathBuf {
        self.root.join("machines").join(format!("{fp}.json"))
    }

    /// The stored run with this config hash: `None` when there is none (a
    /// single `stat`), else the document or `(path, why it does not read
    /// or parse)`.
    pub fn get(&self, hash: &str) -> Option<Result<RunDoc, (PathBuf, String)>> {
        let path = self.run_path(hash);
        path.is_file()
            .then(|| read_doc(&path).map_err(|reason| (path, reason)))
    }

    /// Load a stored run by hash.
    pub fn load(&self, hash: &str) -> Option<RunDoc> {
        read_doc(&self.run_path(hash)).ok()
    }

    /// Persist a run document under its own hash (atomic; idempotent).
    pub fn insert(&self, doc: &RunDoc) -> std::io::Result<()> {
        write_atomic(&self.run_path(&doc.hash), doc.to_json().as_bytes())
    }

    /// Is this machine's calibration already stored?
    pub fn contains_machine(&self, fp: &str) -> bool {
        self.machine_path(fp).is_file()
    }

    /// Persist a machine calibration document under its fingerprint.
    pub fn insert_machine(&self, fp: &str, json: &str) -> std::io::Result<()> {
        write_atomic(&self.machine_path(fp), json.as_bytes())
    }

    /// All stored runs that read and parse, in filename (= hash) order.
    /// A document that does not is skipped; [`RunStore::scan`] names it.
    pub fn iter(&self) -> Vec<RunDoc> {
        self.scan().0
    }

    /// Every stored run, in filename (= hash) order: the documents that
    /// read and parse, and each one that does not as `(path, reason)`.
    pub fn scan(&self) -> (Vec<RunDoc>, Vec<(PathBuf, String)>) {
        let mut names: Vec<PathBuf> = match fs::read_dir(self.root.join("runs")) {
            Ok(rd) => rd
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|e| e == "json"))
                .collect(),
            Err(_) => return (Vec::new(), Vec::new()),
        };
        names.sort();
        let (mut docs, mut bad) = (Vec::new(), Vec::new());
        for path in names {
            match read_doc(&path) {
                Ok(doc) => docs.push(doc),
                Err(reason) => bad.push((path, reason)),
            }
        }
        (docs, bad)
    }

    /// Integrity sweep: every run document must parse and its recomputed
    /// content hash must equal its filename stem; violators are removed
    /// (the sweep can always re-simulate them). Stale temp files from
    /// interrupted writes are cleaned up too.
    pub fn gc(&self) -> std::io::Result<GcReport> {
        let mut report = GcReport::default();
        for dir in ["runs", "machines"] {
            for entry in fs::read_dir(self.root.join(dir))? {
                let path = entry?.path();
                if path.extension().is_some_and(|e| e == "tmp") {
                    fs::remove_file(&path)?;
                    report.stale_tmp += 1;
                }
            }
        }
        for entry in fs::read_dir(self.root.join("runs"))? {
            let path = entry?.path();
            if path.extension().is_none_or(|e| e != "json") {
                continue;
            }
            let stem = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or_default()
                .to_string();
            let ok = fs::read_to_string(&path)
                .ok()
                .and_then(|text| RunDoc::from_json(&text).ok())
                .is_some_and(|doc| doc.recomputed_hash() == stem && doc.hash == stem);
            if ok {
                report.intact += 1;
            } else {
                fs::remove_file(&path)?;
                report.removed.push(path);
            }
        }
        Ok(report)
    }
}

/// The run document at `path`, or why it does not read or parse.
fn read_doc(path: &Path) -> Result<RunDoc, String> {
    let text = fs::read_to_string(path).map_err(|e| e.to_string())?;
    RunDoc::from_json(&text)
}

/// Write `bytes` to `path` via a temp file + rename in the same
/// directory. The temp name carries a process-unique counter: two workers
/// racing to store the same key (both missed the `get` check) must
/// not share a temp file, or the loser's rename fails after the winner's
/// rename consumed it. Both renames landing is fine — same key, same
/// content.
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_extension(format!("{n}.tmp"));
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{machine_fingerprint, CellConfig, Workload};

    fn tmp_store(tag: &str) -> RunStore {
        let dir =
            std::env::temp_dir().join(format!("mpistudy-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        RunStore::open(dir).unwrap()
    }

    fn sample_doc(p: usize, seed: u64) -> RunDoc {
        let cfg = CellConfig {
            workload: Workload::Conv { steps: 3 },
            machine: "ideal".into(),
            p,
            seed,
        };
        let m = machine::presets::ideal();
        let fp = machine_fingerprint(&m);
        RunDoc::new(&cfg, &fp, &crate::pool::execute_cell(&cfg, &m))
    }

    #[test]
    fn insert_load_roundtrip_and_idempotence() {
        let store = tmp_store("roundtrip");
        let doc = sample_doc(2, 0);
        assert_eq!(store.get(&doc.hash), None);
        store.insert(&doc).unwrap();
        assert_eq!(store.get(&doc.hash), Some(Ok(doc.clone())));
        assert_eq!(store.load(&doc.hash).unwrap(), doc);
        store.insert(&doc).unwrap(); // same key, same content: fine
        assert_eq!(store.iter().len(), 1);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn gc_removes_corruption_and_keeps_the_intact() {
        let store = tmp_store("gc");
        let doc = sample_doc(2, 1);
        store.insert(&doc).unwrap();
        // A document filed under the wrong name (content/key mismatch).
        fs::write(
            store.root().join("runs").join("0000000000000000.json"),
            doc.to_json(),
        )
        .unwrap();
        // Garbage bytes behind a json extension, and an interrupted write.
        fs::write(
            store.root().join("runs").join("ffffffffffffffff.json"),
            "{oops",
        )
        .unwrap();
        fs::write(store.root().join("runs").join("abc.tmp"), "partial").unwrap();
        let report = store.gc().unwrap();
        assert_eq!(report.intact, 1);
        assert_eq!(report.removed.len(), 2);
        assert_eq!(report.stale_tmp, 1);
        assert_eq!(store.get(&doc.hash), Some(Ok(doc)));
        // A second sweep finds nothing left to clean.
        assert_eq!(
            store.gc().unwrap(),
            GcReport {
                intact: 1,
                ..Default::default()
            }
        );
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn machine_documents_store_under_fingerprint() {
        let store = tmp_store("machines");
        let m = machine::presets::ideal();
        let fp = machine_fingerprint(&m);
        assert!(!store.contains_machine(&fp));
        store
            .insert_machine(&fp, &machine::calibration::cached(&m).to_json())
            .unwrap();
        assert!(store.contains_machine(&fp));
        let _ = fs::remove_dir_all(store.root());
    }
}
