//! Integration tests for the resumable experiment harness: a sweep that is
//! killed mid-run and resumed must consolidate to **byte-identical** output
//! compared to a from-scratch run.
//!
//! The executors here are synthetic and deterministic (real cell timings
//! differ run to run, which is exactly why the consolidated artifact is
//! built from the *cached* cells, not from a re-measurement).

use bench::json::Json;
use bench::store::{CellSpec, ResultStore};
use bench::sweep::{run_sweep, Interrupted, Sweep};
use bench::trajectory::{check, consolidate};
use std::fs;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cliquelist-harness-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// An 8-cell sweep mixing experiments, workloads, configs and seeds.
fn sweep() -> Sweep {
    let mut sweep = Sweep::new("perf", "synthetic trajectory");
    for (i, workload) in ["er(40,0.3)", "er(80,0.2)"].iter().enumerate() {
        for threads in [1u64, 2, 4] {
            sweep.cell(
                "thread-scaling",
                *workload,
                Json::obj(vec![
                    ("kind", Json::Str("thread-scaling".into())),
                    ("p", Json::Num(4.0)),
                    ("threads", Json::Num(threads as f64)),
                ]),
                10 + i as u64,
            );
        }
        sweep.cell(
            "enumeration",
            *workload,
            Json::obj(vec![
                ("kind", Json::Str("enumeration".into())),
                ("p", Json::Num(4.0)),
            ]),
            10 + i as u64,
        );
    }
    sweep
}

/// Deterministic synthetic measurement: metrics depend only on the cell
/// identity, standing in for "cached timing of the original run".
fn synthetic_metrics(spec: &CellSpec) -> Json {
    let threads = spec
        .config
        .get("threads")
        .and_then(Json::as_f64)
        .unwrap_or(1.0);
    Json::obj(vec![
        ("cliques", Json::Num(1000.0 + spec.seed as f64)),
        ("best_ms", Json::Num(64.0 / threads)),
        ("mean_ms", Json::Num(80.0 / threads)),
    ])
}

#[test]
fn killed_then_resumed_sweep_consolidates_byte_identically() {
    let sweep = sweep();
    let mut quiet = |_: usize, _: usize, _: &CellSpec, _: bool| {};
    let mut measure = |spec: &CellSpec| Ok(synthetic_metrics(spec));

    // From-scratch reference run.
    let scratch_store = ResultStore::new(temp_dir("scratch"));
    let scratch = run_sweep(
        &scratch_store,
        &sweep,
        "rev",
        true,
        &mut measure,
        &mut quiet,
    )
    .expect("uninterrupted run");
    assert_eq!(scratch.executed, sweep.cells.len());
    let scratch_doc = consolidate(&sweep, &scratch.records, &[], "rev").render();

    // Killed run: dies after 3 cells, resumed twice (the second resume also
    // dies, after 3 more), then completes.
    let killed_store = ResultStore::new(temp_dir("killed"));
    for _ in 0..2 {
        let mut ran = 0;
        let mut dying = |spec: &CellSpec| {
            if ran == 3 {
                return Err(Interrupted);
            }
            ran += 1;
            Ok(synthetic_metrics(spec))
        };
        let outcome = run_sweep(&killed_store, &sweep, "rev", true, &mut dying, &mut quiet);
        assert_eq!(outcome.unwrap_err(), Interrupted, "run must die mid-sweep");
    }
    let resumed = run_sweep(&killed_store, &sweep, "rev", true, &mut measure, &mut quiet)
        .expect("final resume completes");
    assert_eq!(
        resumed.skipped, 6,
        "two interrupted runs persisted 3 cells each"
    );
    assert_eq!(resumed.executed, sweep.cells.len() - 6);

    let resumed_doc = consolidate(&sweep, &resumed.records, &[], "rev").render();
    assert_eq!(
        scratch_doc, resumed_doc,
        "killed-then-resumed consolidation must be byte-identical to from-scratch"
    );

    // And the gate agrees the two are equivalent.
    let trajectory = bench::json::parse(&scratch_doc).expect("trajectory parses");
    assert!(check(&trajectory, &resumed.records, None).is_empty());

    let _ = fs::remove_dir_all(scratch_store.root());
    let _ = fs::remove_dir_all(killed_store.root());
}

#[test]
fn speedups_derived_from_cached_cells_survive_resume() {
    let sweep = sweep();
    let mut quiet = |_: usize, _: usize, _: &CellSpec, _: bool| {};
    let mut measure = |spec: &CellSpec| Ok(synthetic_metrics(spec));
    let store = ResultStore::new(temp_dir("speedup"));
    let outcome = run_sweep(&store, &sweep, "rev", true, &mut measure, &mut quiet).expect("run");
    let doc = consolidate(&sweep, &outcome.records, &[], "rev");
    let cells = doc.get("cells").and_then(Json::as_arr).expect("cells");
    // The threads=4 cell of each workload shows a 4x speedup over threads=1
    // (64/16 ms), computed at consolidation time from the cached cells.
    let four_thread_speedups: Vec<f64> = cells
        .iter()
        .filter(|c| {
            c.get("config")
                .and_then(|cfg| cfg.get("threads"))
                .and_then(Json::as_f64)
                == Some(4.0)
        })
        .map(|c| {
            c.get("metrics")
                .and_then(|m| m.get("speedup_vs_1_thread"))
                .and_then(Json::as_f64)
                .expect("speedup present")
        })
        .collect();
    assert_eq!(four_thread_speedups.len(), 2);
    assert!(four_thread_speedups.iter().all(|s| (s - 4.0).abs() < 1e-9));
    let _ = fs::remove_dir_all(store.root());
}
