//! Consolidation of sweep results into the bench-trajectory artifact, and
//! the regression gate CI runs against it.
//!
//! `experiments -- report` renders the current sweep's cells **plus** the
//! historical ad-hoc artifacts (`BENCH_PR3.json` … `BENCH_PR5.json`) into one
//! `BENCH_TRAJECTORY.json`, embedding the per-metric thresholds the gate
//! enforces. `experiments -- check` re-runs the sweep (through the cache, so
//! a warm `results/` directory makes it cheap) and compares against the
//! committed trajectory:
//!
//! * **Deterministic metrics are gated exactly.** Clique counts, the
//!   embedded engine [`RunReport`](cliquelist::RunReport) JSON and the
//!   query-service batch payloads (`responses`) must match byte-for-byte —
//!   the headline invariant is that reports and query payloads are
//!   identical across thread counts and cache states, so baseline cells
//!   produced on a 1-core host gate runs on any host. Cells are matched on
//!   their identity with the host/build-dependent knobs (`threads`,
//!   `auto_threads`, `parallel_build`) stripped.
//! * **Timing metrics are gated by a generous ratio** (`best_ms` may grow by
//!   at most `time_factor`, default [`DEFAULT_TIME_FACTOR`]), and only
//!   between cells whose *full* config matches (same thread grant, same
//!   build flavour). Committed baselines come from a 1-core container — the
//!   factor absorbs host noise while still catching order-of-magnitude
//!   regressions.
//! * **Scaling evidence is required on multi-core hosts.** [`check_scaling`]
//!   fails the gate when a parallel-build sweep on a host with two or more
//!   cores produces no derived `speedup_vs_1_thread` cells — the multi-core
//!   CI leg cannot silently lose the scaling series — while 1-core hosts
//!   pass vacuously (their derived cells are tagged with
//!   `speedup_provenance: "1-core host"`, so they never masquerade as
//!   multi-core evidence).
//!
//! New cells (grid growth) and baseline cells with no fresh counterpart
//! (feature-gated series) are reported but never fail the gate.

use crate::json::{self, Json};
use crate::store::CellRecord;
use crate::sweep::Sweep;
use std::fs;
use std::path::Path;

/// Default multiplicative slack for timing metrics: fresh `best_ms` may be
/// up to this factor above baseline before `check` fails. Deliberately
/// generous — CI hosts differ wildly from the 1-core container the committed
/// baselines ran on; the gate exists to catch order-of-magnitude cliffs.
pub const DEFAULT_TIME_FACTOR: f64 = 10.0;

/// Config keys that are host- or build-dependent and therefore excluded
/// from the identity used for deterministic-metric matching.
const HOST_KEYS: &[&str] = &["threads", "auto_threads", "parallel_build"];

/// Metrics gated byte-exactly: clique counts, the embedded engine reports,
/// the query-service batch payloads (which exclude their execution reports,
/// so they too are thread- and cache-independent), the fault-sweep
/// retransmit-overhead counters (deterministic in `(graph, p, fault plan)`
/// by the fault replay contract), and the churn-sweep strategy decisions,
/// applied-change counts and delta-listing sizes (deterministic in
/// `(graph, batch_target)` by the churn differential contract). Metrics
/// absent from a baseline cell are skipped, so growing this list never
/// fails the gate against an older trajectory.
const DETERMINISTIC_METRICS: &[&str] = &[
    "churn_ppm",
    "cliques",
    "created_cliques",
    "deleted",
    "destroyed_cliques",
    "inserted",
    "report",
    "resolved_kernel",
    "responses",
    "retransmits",
    "simulated_rounds",
    "strategy",
];

/// The historical ad-hoc artifacts consolidated into the trajectory.
pub const HISTORY_FILES: &[&str] = &["BENCH_PR3.json", "BENCH_PR4.json", "BENCH_PR5.json"];

fn deterministic_identity(record: &CellRecord) -> String {
    let mut spec = record.spec.clone();
    if let Json::Obj(pairs) = &mut spec.config {
        pairs.retain(|(k, _)| !HOST_KEYS.contains(&k.as_str()));
    }
    spec.identity().canonical()
}

fn cell_label(record: &CellRecord) -> String {
    let threads = record
        .spec
        .config
        .get("threads")
        .and_then(Json::as_f64)
        .map(|t| format!(" threads={t}"))
        .unwrap_or_default();
    format!(
        "{}/{}{} seed={}",
        record.spec.experiment, record.spec.workload, threads, record.spec.seed
    )
}

/// A cell's config with one key removed, canonically rendered — the group
/// key of the speedup derivations (cells differing only in `threads`, or
/// only in `kernel`, form one series).
fn config_without(record: &CellRecord, key: &str) -> String {
    let mut config = record.spec.config.clone();
    if let Json::Obj(pairs) = &mut config {
        pairs.retain(|(k, _)| k != key);
    }
    config.canonical()
}

/// The host-provenance tag of a derived speedup: committed 1-core baselines
/// and real multi-core CI cells must be distinguishable in the artifact, so
/// every cell that gets a derived speedup also records which kind of host
/// produced it (from the `available_parallelism` metric the executor stamps
/// on every cell).
fn speedup_provenance(cell: &CellRecord) -> &'static str {
    let cores = cell
        .metrics
        .get("available_parallelism")
        .and_then(Json::as_f64)
        .unwrap_or(1.0);
    if cores > 1.0 {
        "multi-core host"
    } else {
        "1-core host"
    }
}

/// Adds `speedup_vs_1_thread` to every scaling cell whose series has a
/// `threads == 1` cell (same experiment, workload, seed and config apart
/// from the grant — so per-kernel series never cross-contaminate), and
/// `speedup_vs_recursive` to every kernel cell whose series has a
/// `kernel == "recursive"` cell. Each derived cell also records its
/// `speedup_provenance` (1-core vs multi-core host). Computed at
/// consolidation time from the cached cells, so a resumed sweep reports the
/// same speedups as the original run.
pub fn with_speedups(records: &[CellRecord]) -> Vec<CellRecord> {
    let mut out: Vec<CellRecord> = records.to_vec();
    for cell in &mut out {
        let best = cell.metrics.get("best_ms").and_then(Json::as_f64);
        let Some(best) = best.filter(|&ms| ms > 0.0) else {
            continue;
        };
        // The best time of the cell in this one's series (same experiment,
        // workload, seed and config apart from `key`) whose `key` is the
        // series baseline.
        let baseline_ms = |key: &str, is_baseline: fn(&Json) -> bool| {
            let group = config_without(cell, key);
            records
                .iter()
                .find(|r| {
                    r.spec.experiment == cell.spec.experiment
                        && r.spec.workload == cell.spec.workload
                        && r.spec.seed == cell.spec.seed
                        && config_without(r, key) == group
                        && r.spec.config.get(key).is_some_and(is_baseline)
                })
                .and_then(|r| r.metrics.get("best_ms").and_then(Json::as_f64))
                .filter(|&ms| ms > 0.0)
        };
        let mut speedups = Vec::new();
        if cell.spec.config.get("threads").is_some() {
            if let Some(base_ms) = baseline_ms("threads", |t| t.as_f64() == Some(1.0)) {
                speedups.push(("speedup_vs_1_thread", base_ms / best));
            }
        }
        if cell.spec.config.get("kernel").and_then(Json::as_str) == Some("trie") {
            if let Some(base_ms) = baseline_ms("kernel", |k| k.as_str() == Some("recursive")) {
                speedups.push(("speedup_vs_recursive", base_ms / best));
            }
        }
        if speedups.is_empty() {
            continue;
        }
        for (metric, speedup) in speedups {
            cell.metrics.set(metric, Json::Num(speedup));
        }
        let provenance = speedup_provenance(cell);
        cell.metrics
            .set("speedup_provenance", Json::Str(provenance.to_string()));
    }
    out
}

/// Reads whichever of [`HISTORY_FILES`] exist under `dir` and extracts their
/// `perf` experiment entries, normalising the two historical shapes (PR3/PR4
/// nest `experiments` under a `perf` key with `pr`/`note` metadata; PR5 has
/// `experiments` at top level).
pub fn load_history(dir: &Path) -> Vec<Json> {
    let mut history = Vec::new();
    for name in HISTORY_FILES {
        let Ok(text) = fs::read_to_string(dir.join(name)) else {
            continue;
        };
        let Ok(doc) = json::parse(&text) else {
            continue;
        };
        let experiments = doc
            .get("perf")
            .and_then(|p| p.get("experiments"))
            .or_else(|| doc.get("experiments"))
            .and_then(Json::as_arr)
            .unwrap_or(&[]);
        let perf_runs = experiments
            .iter()
            .find(|e| e.get("id").and_then(Json::as_str) == Some("perf"))
            .and_then(|e| e.get("runs"))
            .cloned()
            .unwrap_or(Json::Arr(Vec::new()));
        let mut entry = vec![("source", Json::Str((*name).to_string()))];
        if let Some(pr) = doc.get("pr") {
            entry.push(("pr", pr.clone()));
        }
        if let Some(note) = doc.get("note") {
            entry.push(("note", note.clone()));
        }
        entry.push(("runs", perf_runs));
        history.push(Json::obj(entry));
    }
    history
}

/// Renders the consolidated trajectory document: sweep identity, the
/// completed cells (with derived speedups), the embedded gate thresholds,
/// and the normalised history. Deterministic given the records — no
/// timestamps — which is what makes "killed, resumed, consolidated" byte-
/// identical to a from-scratch run.
pub fn consolidate(sweep: &Sweep, records: &[CellRecord], history: &[Json], git_rev: &str) -> Json {
    let cells = with_speedups(records);
    let cell_docs: Vec<Json> = cells.iter().map(CellRecord::to_json).collect();
    Json::obj(vec![
        ("schema", Json::Num(1.0)),
        ("id", Json::Str(sweep.id.clone())),
        ("claim", Json::Str(sweep.claim.clone())),
        ("git_rev", Json::Str(git_rev.to_string())),
        (
            "provenance",
            Json::Str(
                "committed baselines are recorded on a 1-core container: timings and \
                 speedup_vs_1_thread carry 1-thread provenance (the query-throughput batch \
                 fan-out included); deterministic metrics gate any host. Every cell with a \
                 derived speedup records its own speedup_provenance (1-core host vs \
                 multi-core host), so multi-core CI cells never alias the committed series"
                    .into(),
            ),
        ),
        (
            "thresholds",
            Json::obj(vec![
                (
                    "deterministic",
                    Json::Str(
                        "exact: cliques, engine reports, query-batch payloads, fault-sweep \
                         retransmit counters, and churn-sweep strategy decisions and delta \
                         counts must match baseline"
                            .into(),
                    ),
                ),
                ("time_factor", Json::Num(DEFAULT_TIME_FACTOR)),
                (
                    "time_metric",
                    Json::Str("best_ms, compared only between identical full configs".into()),
                ),
                (
                    "scaling",
                    Json::Str(
                        "on multi-core parallel-build hosts, every threads > 1 scaling cell \
                         must derive speedup_vs_1_thread; missing cells fail the gate"
                            .into(),
                    ),
                ),
            ]),
        ),
        ("cells", Json::Arr(cell_docs)),
        ("history", Json::Arr(history.to_vec())),
    ])
}

/// One gate violation: a metric of a fresh cell that regressed beyond its
/// threshold relative to the committed trajectory.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Human-readable cell label.
    pub cell: String,
    /// The metric that regressed.
    pub metric: String,
    /// What the committed trajectory recorded.
    pub baseline: String,
    /// What the fresh run produced.
    pub fresh: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} regressed (baseline {}, fresh {})",
            self.cell, self.metric, self.baseline, self.fresh
        )
    }
}

fn trajectory_cells(trajectory: &Json) -> Vec<CellRecord> {
    trajectory
        .get("cells")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(CellRecord::from_json)
        .collect()
}

/// Compares fresh sweep results against a committed trajectory document.
///
/// Returns the violations (empty = gate passes). `time_factor` overrides the
/// timing threshold; pass the trajectory's embedded default by giving
/// `None`. See the module docs for the exact matching and threshold rules.
pub fn check(trajectory: &Json, fresh: &[CellRecord], time_factor: Option<f64>) -> Vec<Violation> {
    let time_factor = time_factor
        .or_else(|| {
            trajectory
                .get("thresholds")
                .and_then(|t| t.get("time_factor"))
                .and_then(Json::as_f64)
        })
        .unwrap_or(DEFAULT_TIME_FACTOR);
    let baseline = trajectory_cells(trajectory);
    let fresh = with_speedups(fresh);
    let mut violations = Vec::new();

    for base in &baseline {
        // Deterministic gate: match on the host-independent identity.
        let base_id = deterministic_identity(base);
        let Some(new) = fresh.iter().find(|r| deterministic_identity(r) == base_id) else {
            // Feature-gated or removed cell: reported by the CLI, not a failure.
            continue;
        };
        for metric in DETERMINISTIC_METRICS {
            let (Some(b), Some(n)) = (base.metrics.get(metric), new.metrics.get(metric)) else {
                continue;
            };
            if b.canonical() != n.canonical() {
                violations.push(Violation {
                    cell: cell_label(base),
                    metric: metric.to_string(),
                    baseline: truncate(&b.canonical()),
                    fresh: truncate(&n.canonical()),
                });
            }
        }

        // Timing gate: only between cells whose full config matches.
        let base_full = base.spec.identity().canonical();
        let timed = fresh
            .iter()
            .find(|r| r.spec.identity().canonical() == base_full);
        let base_ms = base.metrics.get("best_ms").and_then(Json::as_f64);
        let new_ms = timed.and_then(|r| r.metrics.get("best_ms").and_then(Json::as_f64));
        if let (Some(base_ms), Some(new_ms)) = (base_ms, new_ms) {
            if base_ms > 0.0 && new_ms > base_ms * time_factor {
                violations.push(Violation {
                    cell: cell_label(base),
                    metric: "best_ms".to_string(),
                    baseline: format!("{base_ms:.2}ms (threshold {time_factor:.0}x)"),
                    fresh: format!("{new_ms:.2}ms"),
                });
            }
        }
    }
    violations
}

/// The multi-core scaling gate (PR 10): on a host with two or more cores, a
/// parallel-build sweep must actually produce the scaling evidence —
/// every `scaling-sweep`/`thread-scaling` cell with `threads > 1` must have
/// derived a `speedup_vs_1_thread`, and at least one such cell must exist.
/// A 1-core host (`host_threads < 2`) cannot measure speedup, so the gate
/// passes vacuously there — which is exactly why every derived cell also
/// carries `speedup_provenance`: committed 1-core numbers and multi-core CI
/// numbers never alias. The caller is expected to skip this on sequential
/// builds (where the scaling cells are feature-gated out).
pub fn check_scaling(fresh: &[CellRecord], host_threads: usize) -> Vec<Violation> {
    let mut violations = Vec::new();
    if host_threads < 2 {
        return violations;
    }
    let fresh = with_speedups(fresh);
    let mut saw_scaling_cell = false;
    for cell in fresh.iter().filter(|r| {
        matches!(
            r.spec.experiment.as_str(),
            "scaling-sweep" | "thread-scaling"
        )
    }) {
        if cell.metrics.get("skipped").is_some() {
            continue;
        }
        let threads = cell
            .spec
            .config
            .get("threads")
            .and_then(Json::as_f64)
            .unwrap_or(1.0);
        if threads <= 1.0 {
            continue;
        }
        saw_scaling_cell = true;
        if cell.metrics.get("speedup_vs_1_thread").is_none() {
            violations.push(Violation {
                cell: cell_label(cell),
                metric: "speedup_vs_1_thread".to_string(),
                baseline: "derivable (multi-core host, threads > 1)".to_string(),
                fresh: "missing".to_string(),
            });
        }
    }
    if !saw_scaling_cell {
        violations.push(Violation {
            cell: "scaling-sweep".to_string(),
            metric: "speedup_vs_1_thread".to_string(),
            baseline: "at least one threads > 1 scaling cell on a multi-core host".to_string(),
            fresh: "none ran".to_string(),
        });
    }
    violations
}

fn truncate(text: &str) -> String {
    if text.len() <= 96 {
        return text.to_string();
    }
    let mut end = 96;
    while !text.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}…", &text[..end])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::CellSpec;

    fn record(workload: &str, threads: Option<usize>, cliques: f64, best_ms: f64) -> CellRecord {
        let mut config = vec![
            ("kind", Json::Str("thread-scaling".into())),
            ("p", Json::Num(4.0)),
        ];
        if let Some(t) = threads {
            config.push(("threads", Json::Num(t as f64)));
        }
        CellRecord {
            spec: CellSpec {
                experiment: "thread-scaling".into(),
                workload: workload.into(),
                config: Json::obj(config),
                seed: 7,
            },
            git_rev: "base-rev".into(),
            metrics: Json::obj(vec![
                ("cliques", Json::Num(cliques)),
                ("best_ms", Json::Num(best_ms)),
            ]),
        }
    }

    fn sweep() -> Sweep {
        Sweep::new("perf", "test claim")
    }

    #[test]
    fn consolidation_is_deterministic_and_adds_speedups() {
        let records = vec![
            record("er(400,0.25)", Some(1), 100.0, 8.0),
            record("er(400,0.25)", Some(4), 100.0, 2.0),
        ];
        let a = consolidate(&sweep(), &records, &[], "rev");
        let b = consolidate(&sweep(), &records, &[], "rev");
        assert_eq!(a.render(), b.render());
        let cells = a.get("cells").and_then(Json::as_arr).unwrap();
        let speedup = cells[1]
            .get("metrics")
            .and_then(|m| m.get("speedup_vs_1_thread"))
            .and_then(Json::as_f64)
            .unwrap();
        assert!((speedup - 4.0).abs() < 1e-9);
    }

    fn scaling_record(kernel: &str, threads: usize, best_ms: f64, cores: f64) -> CellRecord {
        CellRecord {
            spec: CellSpec {
                experiment: "scaling-sweep".into(),
                workload: "turan(450,3)".into(),
                config: Json::obj(vec![
                    ("kind", Json::Str("scaling-sweep".into())),
                    ("p", Json::Num(4.0)),
                    ("kernel", Json::Str(kernel.into())),
                    ("threads", Json::Num(threads as f64)),
                ]),
                seed: 7,
            },
            git_rev: "rev".into(),
            metrics: Json::obj(vec![
                ("available_parallelism", Json::Num(cores)),
                ("cliques", Json::Num(0.0)),
                ("best_ms", Json::Num(best_ms)),
            ]),
        }
    }

    #[test]
    fn speedup_series_never_cross_kernels() {
        // Two kernels share the workload: each speedup must come from its
        // own kernel's 1-thread cell, and the trie cells additionally derive
        // speedup_vs_recursive from the recursive cell at the same grant.
        let records = vec![
            scaling_record("recursive", 1, 8.0, 4.0),
            scaling_record("recursive", 4, 4.0, 4.0),
            scaling_record("trie", 1, 4.0, 4.0),
            scaling_record("trie", 4, 1.0, 4.0),
        ];
        let out = with_speedups(&records);
        let speedup = |i: usize, key: &str| out[i].metrics.get(key).and_then(Json::as_f64);
        assert!((speedup(1, "speedup_vs_1_thread").unwrap() - 2.0).abs() < 1e-9);
        assert!((speedup(3, "speedup_vs_1_thread").unwrap() - 4.0).abs() < 1e-9);
        assert!((speedup(2, "speedup_vs_recursive").unwrap() - 2.0).abs() < 1e-9);
        assert!((speedup(3, "speedup_vs_recursive").unwrap() - 4.0).abs() < 1e-9);
        assert!(speedup(0, "speedup_vs_recursive").is_none());
        // The provenance tag distinguishes multi-core cells from the
        // committed 1-core series.
        assert_eq!(
            out[3]
                .metrics
                .get("speedup_provenance")
                .and_then(Json::as_str),
            Some("multi-core host")
        );
        let one_core = with_speedups(&[
            scaling_record("trie", 1, 4.0, 1.0),
            scaling_record("trie", 4, 4.0, 1.0),
        ]);
        assert_eq!(
            one_core[1]
                .metrics
                .get("speedup_provenance")
                .and_then(Json::as_str),
            Some("1-core host")
        );
    }

    #[test]
    fn scaling_gate_requires_speedups_on_multi_core_hosts() {
        let full = vec![
            scaling_record("trie", 1, 8.0, 4.0),
            scaling_record("trie", 4, 2.0, 4.0),
        ];
        // A 1-core host passes vacuously — it cannot measure speedup.
        assert!(check_scaling(&full, 1).is_empty());
        // A multi-core host with a derivable series passes.
        assert!(check_scaling(&full, 4).is_empty());
        // Dropping the 1-thread baseline makes the speedup underivable: the
        // threads > 1 cell is a violation.
        let headless = vec![scaling_record("trie", 4, 2.0, 4.0)];
        let violations = check_scaling(&headless, 4);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].metric, "speedup_vs_1_thread");
        // Losing the scaling cells entirely is itself a violation.
        let none = vec![scaling_record("trie", 1, 8.0, 4.0)];
        assert_eq!(check_scaling(&none, 4).len(), 1);
        assert!(check_scaling(&[], 4).len() == 1);
    }

    #[test]
    fn check_passes_on_identical_results() {
        let records = vec![record("er(400,0.25)", Some(1), 100.0, 8.0)];
        let trajectory = consolidate(&sweep(), &records, &[], "base-rev");
        assert!(check(&trajectory, &records, None).is_empty());
    }

    #[test]
    fn check_fails_on_deterministic_regression() {
        let baseline = vec![record("er(400,0.25)", Some(1), 100.0, 8.0)];
        let trajectory = consolidate(&sweep(), &baseline, &[], "base-rev");
        // A changed clique count is a correctness regression regardless of
        // how fast it ran.
        let mut broken = vec![record("er(400,0.25)", Some(1), 99.0, 1.0)];
        broken[0].git_rev = "new-rev".into();
        let violations = check(&trajectory, &broken, None);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].metric, "cliques");
    }

    fn query_record(responses: &str, auto_threads: usize) -> CellRecord {
        CellRecord {
            spec: CellSpec {
                experiment: "query-throughput".into(),
                workload: "er(300,0.2)".into(),
                config: Json::obj(vec![
                    ("kind", Json::Str("query-throughput".into())),
                    ("p", Json::Num(4.0)),
                    ("auto_threads", Json::Num(auto_threads as f64)),
                ]),
                seed: 19,
            },
            git_rev: "base-rev".into(),
            metrics: Json::obj(vec![
                ("cliques", Json::Num(50.0)),
                ("responses", json::parse(responses).unwrap()),
                ("best_ms", Json::Num(3.0)),
            ]),
        }
    }

    #[test]
    fn check_gates_query_payloads_exactly_across_thread_grants() {
        let baseline = vec![query_record("[{\"outcome\":{\"count\":50}}]", 1)];
        let trajectory = consolidate(&sweep(), &baseline, &[], "base-rev");
        // Same payloads from a 4-thread host: the deterministic identity
        // strips `auto_threads`, so the 1-core baseline still gates it.
        let same = vec![query_record("[{\"outcome\":{\"count\":50}}]", 4)];
        assert!(check(&trajectory, &same, None).is_empty());
        // A changed payload is a regression even when the counts agree.
        let changed = vec![query_record("[{\"outcome\":{\"count\":50},\"x\":1}]", 4)];
        let violations = check(&trajectory, &changed, None);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].metric, "responses");
    }

    #[test]
    fn check_fails_on_timing_cliff_but_tolerates_noise() {
        let baseline = vec![record("er(400,0.25)", Some(1), 100.0, 8.0)];
        let trajectory = consolidate(&sweep(), &baseline, &[], "base-rev");
        // 2x slower: inside the 10x budget.
        let noisy = vec![record("er(400,0.25)", Some(1), 100.0, 16.0)];
        assert!(check(&trajectory, &noisy, None).is_empty());
        // 20x slower: a cliff.
        let cliff = vec![record("er(400,0.25)", Some(1), 100.0, 160.0)];
        let violations = check(&trajectory, &cliff, None);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].metric, "best_ms");
        // A tighter explicit factor catches the 2x case too.
        assert_eq!(check(&trajectory, &noisy, Some(1.5)).len(), 1);
    }

    #[test]
    fn deterministic_gate_matches_across_thread_counts() {
        // Baseline ran on a 1-core host; fresh run uses 4 threads. The
        // deterministic identity strips the grant, so a wrong count is still
        // caught; timing is not compared (different full configs).
        let baseline = vec![record("er(400,0.25)", Some(1), 100.0, 8.0)];
        let trajectory = consolidate(&sweep(), &baseline, &[], "base-rev");
        let fresh = vec![record("er(400,0.25)", Some(4), 123.0, 1000.0)];
        let violations = check(&trajectory, &fresh, None);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].metric, "cliques");
    }

    #[test]
    fn missing_fresh_cells_do_not_fail_the_gate() {
        let baseline = vec![
            record("er(400,0.25)", Some(1), 100.0, 8.0),
            record("er(600,0.18)", Some(1), 500.0, 80.0),
        ];
        let trajectory = consolidate(&sweep(), &baseline, &[], "base-rev");
        let fresh = vec![record("er(400,0.25)", Some(1), 100.0, 8.0)];
        assert!(check(&trajectory, &fresh, None).is_empty());
    }
}
