//! The content-addressed result store behind the resumable experiment runner.
//!
//! Every sweep cell — one `(experiment, workload, config, seed)` combination
//! — is cached as a single JSON file under a `results/` directory, keyed by
//! the FNV-1a hash of the cell's **canonical** identity (sorted-key JSON of
//! the experiment id, workload label, config object, seed, and the git
//! revision the binary ran at). `experiments -- perf --resume` consults the
//! store before running a cell and skips the ones that already completed at
//! the same key; any change to the config (or a new commit) changes the key,
//! so stale cells are never reused. Corrupted cells — truncated writes,
//! hand-edited files — fail to parse or fail the embedded-key check, and are
//! treated as misses: the cell simply re-runs.
//!
//! The design follows the checkpoint/resume frameworks of `mergeable-etcd`'s
//! EXPERIMENTS setup and `OpenAgentsInc/openagents`' `ExperimentRunner`
//! (SNIPPETS.md §2–3): per-config result files, seeds carried in the config,
//! and "remove the results directory" as the blunt cache-clear.

use crate::json::{self, Json};
use graphcore::fnv1a;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The identity of one sweep cell. Everything that can change the cell's
/// measured result (other than the host) is part of the identity; the store
/// key is a hash over the canonical rendering of all four fields plus the
/// git revision.
#[derive(Clone, Debug, PartialEq)]
pub struct CellSpec {
    /// Experiment family, e.g. `"enumeration"` or `"thread-scaling"`.
    pub experiment: String,
    /// Workload label, e.g. `"er(400,0.25)"`.
    pub workload: String,
    /// The full cell configuration (a JSON object; field order irrelevant).
    pub config: Json,
    /// RNG seed the cell runs with (also present in most configs; kept
    /// separate so sweeps over seeds are first-class).
    pub seed: u64,
}

impl CellSpec {
    /// The identity object: experiment, workload, config and seed. Compared
    /// and hashed only in canonical (key-sorted) form.
    pub(crate) fn identity(&self) -> Json {
        Json::obj(vec![
            ("experiment", Json::Str(self.experiment.clone())),
            ("workload", Json::Str(self.workload.clone())),
            ("config", self.config.clone()),
            ("seed", Json::Num(self.seed as f64)),
        ])
    }

    /// Reads the identity fields back from a stored record or trajectory
    /// cell.
    pub(crate) fn from_json(doc: &Json) -> Option<CellSpec> {
        Some(CellSpec {
            experiment: doc.get("experiment")?.as_str()?.to_string(),
            workload: doc.get("workload")?.as_str()?.to_string(),
            config: doc.get("config")?.clone(),
            seed: doc.get("seed")?.as_f64()? as u64,
        })
    }

    /// The cell's content hash at `git_rev`: FNV-1a 64 over the canonical
    /// JSON identity. Stable across config field reordering (objects are
    /// key-sorted first), different for any change to experiment, workload,
    /// config, seed or revision.
    pub fn key(&self, git_rev: &str) -> u64 {
        let mut identity = self.identity();
        identity.set("git_rev", Json::Str(git_rev.to_string()));
        fnv1a(identity.canonical().as_bytes())
    }

    /// The file name a cell is stored under: a slug of the experiment and
    /// workload (for humans browsing `results/`) plus the full key hash (for
    /// correctness).
    pub fn file_name(&self, git_rev: &str) -> String {
        format!(
            "{}--{}--{:016x}.json",
            slug(&self.experiment),
            slug(&self.workload),
            self.key(git_rev)
        )
    }
}

/// One completed cell: its spec, the revision it ran at, and the measured
/// metrics (a JSON object).
#[derive(Clone, Debug, PartialEq)]
pub struct CellRecord {
    /// The cell identity.
    pub spec: CellSpec,
    /// Git revision of the producing binary.
    pub git_rev: String,
    /// Measured metrics.
    pub metrics: Json,
}

impl CellRecord {
    /// Renders the record as the JSON document stored on disk (and as a
    /// trajectory cell). The embedded `key` is for humans browsing
    /// `results/`; [`ResultStore::load`] re-checks the identity itself.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("experiment", Json::Str(self.spec.experiment.clone())),
            ("workload", Json::Str(self.spec.workload.clone())),
            ("seed", Json::Num(self.spec.seed as f64)),
            ("config", self.spec.config.clone()),
            ("git_rev", Json::Str(self.git_rev.clone())),
            (
                "key",
                Json::Str(format!("{:016x}", self.spec.key(&self.git_rev))),
            ),
            ("metrics", self.metrics.clone()),
        ])
    }

    /// Reads a record back from a [`CellRecord::to_json`] document.
    pub(crate) fn from_json(doc: &Json) -> Option<CellRecord> {
        Some(CellRecord {
            spec: CellSpec::from_json(doc)?,
            git_rev: doc.get("git_rev")?.as_str()?.to_string(),
            metrics: doc.get("metrics")?.clone(),
        })
    }
}

/// A directory of completed cells, one JSON file per cell.
#[derive(Clone, Debug)]
pub struct ResultStore {
    root: PathBuf,
}

impl ResultStore {
    /// Opens (and lazily creates) a store rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> ResultStore {
        ResultStore { root: root.into() }
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Loads the completed cell for `spec` at `git_rev`, or `None` when the
    /// cell is missing **or corrupted** (unparseable JSON, or an identity
    /// that no longer matches the spec and revision it is filed under).
    /// Corrupted files are removed so the directory never accumulates junk —
    /// the cell re-runs and the fresh result overwrites them anyway.
    pub fn load(&self, spec: &CellSpec, git_rev: &str) -> Option<CellRecord> {
        let path = self.root.join(spec.file_name(git_rev));
        let text = fs::read_to_string(&path).ok()?;
        let record = json::parse(&text)
            .ok()
            .as_ref()
            .and_then(CellRecord::from_json);
        match record {
            Some(record) if record.spec == *spec && record.git_rev == git_rev => Some(record),
            _ => {
                // Corrupted or mislabelled: recover by dropping the file.
                let _ = fs::remove_file(&path);
                None
            }
        }
    }

    /// Writes a completed cell (atomically: temp file + rename, so a killed
    /// run can never leave a half-written cell that a later `--resume` would
    /// trust — at worst it leaves a `.tmp` the next save overwrites).
    pub fn save(&self, record: &CellRecord) -> io::Result<()> {
        fs::create_dir_all(&self.root)?;
        let path = self.root.join(record.spec.file_name(&record.git_rev));
        let tmp = path.with_extension("json.tmp");
        fs::write(&tmp, record.to_json().render())?;
        fs::rename(&tmp, &path)
    }
}

/// The git revision the harness keys its cells by: the `CLIQUELIST_GIT_REV`
/// override when set (tests and CI use this), else the commit hash read
/// straight out of `.git` (no subprocess), else `"unknown"`.
///
/// Reading `.git` directly keeps the harness runnable where no `git` binary
/// exists; the resolution is deliberately simple (HEAD → ref file →
/// packed-refs) — exotic layouts fall back to `"unknown"`, which only makes
/// the cache conservative, never wrong.
pub fn git_rev() -> String {
    if let Ok(rev) = std::env::var("CLIQUELIST_GIT_REV") {
        if !rev.is_empty() {
            return rev;
        }
    }
    read_git_rev(Path::new(".git")).unwrap_or_else(|| "unknown".to_string())
}

fn read_git_rev(git_dir: &Path) -> Option<String> {
    let head = fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        // Detached HEAD: the hash itself.
        return Some(head.to_string());
    };
    if let Ok(hash) = fs::read_to_string(git_dir.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    packed
        .lines()
        .filter(|line| !line.starts_with(['#', '^']))
        .find_map(|line| {
            let (hash, name) = line.split_once(' ')?;
            (name == reference).then(|| hash.to_string())
        })
}

fn slug(text: &str) -> String {
    let mut out: String = text
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    out.truncate(60);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cliquelist-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn spec() -> CellSpec {
        CellSpec {
            experiment: "enumeration".into(),
            workload: "er(400,0.25)".into(),
            config: json::parse(r#"{"p":4,"threads":2,"algorithm":"general"}"#).unwrap(),
            seed: 7,
        }
    }

    #[test]
    fn key_is_stable_across_config_field_reordering() {
        let a = spec();
        let mut b = spec();
        b.config = json::parse(r#"{"algorithm":"general","threads":2,"p":4}"#).unwrap();
        assert_ne!(a.config.render(), b.config.render());
        assert_eq!(a.key("rev1"), b.key("rev1"));
        assert_eq!(a.file_name("rev1"), b.file_name("rev1"));
    }

    #[test]
    fn key_changes_with_config_seed_and_rev() {
        let base = spec();
        let k = base.key("rev1");

        let mut config_change = spec();
        config_change.config.set("threads", Json::Num(4.0));
        assert_ne!(config_change.key("rev1"), k, "config change must miss");

        let mut seed_change = spec();
        seed_change.seed = 8;
        assert_ne!(seed_change.key("rev1"), k, "seed change must miss");

        assert_ne!(base.key("rev2"), k, "revision change must miss");

        let mut workload_change = spec();
        workload_change.workload = "er(600,0.18)".into();
        assert_ne!(workload_change.key("rev1"), k, "workload change must miss");
    }

    #[test]
    fn save_then_load_hits_on_the_identical_cell() {
        let store = ResultStore::new(temp_dir("hit"));
        let record = CellRecord {
            spec: spec(),
            git_rev: "rev1".into(),
            metrics: json::parse(r#"{"best_ms":1.5,"cliques":263564}"#).unwrap(),
        };
        assert!(store.load(&spec(), "rev1").is_none(), "cold store misses");
        store.save(&record).unwrap();
        let loaded = store.load(&spec(), "rev1").expect("cache hit");
        assert_eq!(loaded, record);
        // A different revision misses even though the file for rev1 exists.
        assert!(store.load(&spec(), "rev2").is_none());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn corrupted_cells_are_recovered_as_misses() {
        let store = ResultStore::new(temp_dir("corrupt"));
        let record = CellRecord {
            spec: spec(),
            git_rev: "rev1".into(),
            metrics: json::parse(r#"{"best_ms":1.5}"#).unwrap(),
        };
        store.save(&record).unwrap();
        let path = store.root().join(spec().file_name("rev1"));

        // Truncated write (killed process).
        fs::write(&path, &record.to_json().render()[..20]).unwrap();
        assert!(store.load(&spec(), "rev1").is_none(), "truncated → miss");
        assert!(!path.exists(), "corrupted file is removed");

        // Valid JSON whose content does not match the key it is filed under
        // (hand-edited metrics tampering with the seed).
        store.save(&record).unwrap();
        let mut doc = json::parse(&fs::read_to_string(&path).unwrap()).unwrap();
        doc.set("seed", Json::Num(99.0));
        fs::write(&path, doc.render()).unwrap();
        assert!(store.load(&spec(), "rev1").is_none(), "tampered → miss");

        // After recovery a fresh save hits again.
        store.save(&record).unwrap();
        assert!(store.load(&spec(), "rev1").is_some());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn env_override_pins_the_revision() {
        // Can't mutate the process environment safely in a test harness, but
        // the .git fallback must at least produce *something* stable.
        let a = git_rev();
        let b = git_rev();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }
}
