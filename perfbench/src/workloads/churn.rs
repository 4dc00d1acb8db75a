//! `churn`: the write side of the clique index, edge batches and the clique
//! delta they cause.
//!
//! Set-up builds a snapshot of one Erdős–Rényi graph. Each op applies one
//! balanced batch (64 inserted non-edges, 64 deleted edges) to the current
//! snapshot with `apply_batch`, then lists the cliques the batch created and
//! destroyed with `delta_cliques`; the new snapshot is the next op's input.
//! Every 16th batch changes nothing (it inserts present edges and deletes
//! absent ones). There is no expander and no cache on this path.

use crate::harness::Workload;
use crate::rng::SplitMix64;
use crate::trace::Tracer;
use cliquelist::Parallelism;
use graphcore::cliques::{count_cliques, CliqueIndex};
use graphcore::{gen, EdgeBatch, Graph};
use query::{delta_cliques, ChurnReport, ChurnStrategy, CliqueDelta, GraphSnapshot};

/// Vertices of the graph.
pub const N: usize = 2000;
/// Edge probability of the initial graph (≈ 100k edges).
pub const EDGE_P: f64 = 0.05;
/// Inserts per batch; a batch deletes as many.
pub const BATCH: usize = 64;
/// Every `NOOP_EVERY`-th batch is a no-op; the clique census is checked on
/// the same ops.
pub const NOOP_EVERY: u64 = 16;
/// Clique size tracked.
pub const P: usize = 4;

const SALT: u64 = 0xC4_0A2B;

/// Edges as `(u, v)` pairs with `u < v`.
pub type EdgeList = Vec<(u32, u32)>;

/// The batch of op `op`: `(inserts, deletes)`. A regular batch inserts
/// [`BATCH`] absent edges and deletes [`BATCH`] present ones; a no-op batch
/// (every [`NOOP_EVERY`]-th) swaps the roles, so nothing changes.
pub fn batch(seed: u64, op: u64, graph: &Graph) -> (EdgeList, EdgeList) {
    let mut rng = SplitMix64::derived(seed, SALT, op);
    let n = graph.num_vertices();
    let mut present = Vec::with_capacity(BATCH);
    while present.len() < BATCH {
        let u = rng.below(n) as u32;
        let neighbors = graph.neighbors(u);
        if neighbors.is_empty() {
            continue;
        }
        let v = neighbors[rng.below(neighbors.len())];
        let edge = (u.min(v), u.max(v));
        if !present.contains(&edge) {
            present.push(edge);
        }
    }
    let mut absent = Vec::with_capacity(BATCH);
    while absent.len() < BATCH {
        let (u, v) = (rng.below(n) as u32, rng.below(n) as u32);
        let edge = (u.min(v), u.max(v));
        if u != v && !graph.has_edge(u, v) && !absent.contains(&edge) {
            absent.push(edge);
        }
    }
    if is_noop(op) {
        (present, absent)
    } else {
        (absent, present)
    }
}

/// Whether op `op` applies a no-op batch.
pub fn is_noop(op: u64) -> bool {
    op % NOOP_EVERY == NOOP_EVERY - 1
}

/// What one op returns: the new snapshot, how it was built, and the delta.
pub type ChurnOutput = Result<(GraphSnapshot, ChurnReport, CliqueDelta), String>;

/// The `churn` workload.
pub struct Churn {
    seed: u64,
    threads: usize,
    current: GraphSnapshot,
    /// `K_4` count of the graph at the last census.
    census: i64,
    /// `created − destroyed` summed since the last census.
    net: i64,
    noop_ops: u64,
    incremental_ops: u64,
    rows_reused: usize,
    rows_rebuilt: usize,
    created: Vec<f64>,
    destroyed: Vec<f64>,
}

impl Workload for Churn {
    type Input = EdgeBatch;
    type Output = ChurnOutput;

    fn setup(seed: u64, threads: usize, _tr: &mut Tracer) -> Self {
        let graph = gen::erdos_renyi(N, EDGE_P, seed);
        let current = GraphSnapshot::builder(graph)
            .prepare_p(P)
            .build()
            .expect("p=4 is a valid prepared size");
        Churn {
            seed,
            threads,
            current,
            census: 0,
            net: 0,
            noop_ops: 0,
            incremental_ops: 0,
            rows_reused: 0,
            rows_rebuilt: 0,
            created: Vec::new(),
            destroyed: Vec::new(),
        }
    }

    fn ground_truth(&mut self) {
        self.census = count_cliques(self.current.graph(), P) as i64;
    }

    fn min_ops(&self) -> u64 {
        NOOP_EVERY
    }

    fn input(&mut self, op: u64) -> EdgeBatch {
        let (inserts, deletes) = batch(self.seed, op, self.current.graph());
        EdgeBatch::new(&inserts, &deletes).expect("generated batches are valid")
    }

    fn execute(&self, batch: &EdgeBatch, tr: &mut Tracer) -> ChurnOutput {
        let (next, report) = tr
            .span("query.apply_batch", |_| self.current.apply_batch(batch))
            .map_err(|e| format!("apply_batch: {e}"))?;
        let delta = tr
            .span("query.delta_cliques", |_| {
                delta_cliques(&self.current, &next, P, Parallelism::Threads(self.threads))
            })
            .map_err(|e| format!("delta_cliques: {e}"))?;
        Ok((next, report, delta))
    }

    /// The two halves of `apply_batch` on the op's batch — the CSR patch and
    /// the incremental index patch — and the from-scratch index build the
    /// patch replaces.
    fn stages(&mut self, batch: &EdgeBatch, tr: &mut Tracer) {
        let Ok((graph, applied)) = tr.span("graph.apply_edge_batch", |_| {
            self.current.graph().apply_edge_batch(batch)
        }) else {
            return;
        };
        if applied.is_noop() {
            return;
        }
        let mut touched = vec![false; graph.num_vertices()];
        for &(u, v) in applied.inserted.iter().chain(&applied.deleted) {
            touched[u as usize] = true;
            touched[v as usize] = true;
        }
        tr.span("graph.build_incremental", |_| {
            CliqueIndex::build_incremental(&graph, self.current.index(), &touched)
        });
        tr.span("graph.index_build", |_| CliqueIndex::build(&graph));
    }

    fn check(
        &mut self,
        op: u64,
        _batch: &EdgeBatch,
        output: ChurnOutput,
        tr: &mut Tracer,
    ) -> Result<(), String> {
        let (next, report, delta) = output?;
        let expected = if is_noop(op) {
            ChurnStrategy::Noop
        } else {
            ChurnStrategy::Incremental
        };
        if report.strategy != expected {
            return Err(format!("strategy {}, expected {expected}", report.strategy));
        }
        match report.strategy {
            ChurnStrategy::Noop => {
                if !delta.is_empty() || next.id() != self.current.id() {
                    return Err("a no-op batch changed the snapshot".into());
                }
                self.noop_ops += 1;
            }
            _ => {
                if report.num_changes() != 2 * BATCH {
                    return Err(format!(
                        "{} effective changes, expected {}",
                        report.num_changes(),
                        2 * BATCH
                    ));
                }
                self.incremental_ops += 1;
                self.rows_reused += report.bitset_rows_reused;
                self.rows_rebuilt += report.bitset_rows_rebuilt;
            }
        }
        self.created.push(delta.created.len() as f64);
        self.destroyed.push(delta.destroyed.len() as f64);
        self.net += delta.created.len() as i64 - delta.destroyed.len() as i64;
        self.current = next;
        if is_noop(op) {
            let census = tr.span("bench.census", |_| count_cliques(self.current.graph(), P)) as i64;
            let expected = self.census + self.net;
            self.census = census;
            self.net = 0;
            if census != expected {
                return Err(format!(
                    "census {census} after op {op}, deltas since the last census predict {expected}"
                ));
            }
        }
        Ok(())
    }

    fn layer_metrics(&self, tr: &Tracer) -> Vec<(&'static str, f64)> {
        let rows = self.rows_reused + self.rows_rebuilt;
        vec![
            ("churn.apply_batch_ms", tr.p50_ms("query.apply_batch")),
            ("churn.graph_apply_ms", tr.p50_ms("graph.apply_edge_batch")),
            ("churn.index_patch_ms", tr.p50_ms("graph.build_incremental")),
            ("churn.delta_ms", tr.p50_ms("query.delta_cliques")),
            ("churn.rebuild_ms", tr.p50_ms("graph.index_build")),
            ("churn.noop_ops", self.noop_ops as f64),
            ("churn.incremental_ops", self.incremental_ops as f64),
            (
                "churn.rows_reused_ratio",
                if rows > 0 {
                    self.rows_reused as f64 / rows as f64
                } else {
                    0.0
                },
            ),
            ("churn.created", crate::stats::mean(&self.created)),
            ("churn.destroyed", crate::stats::mean(&self.destroyed)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_are_balanced_and_repeat_per_seed() {
        let graph = gen::erdos_renyi(200, 0.1, 3);
        for op in [0, 1, NOOP_EVERY - 1] {
            let (inserts, deletes) = batch(7, op, &graph);
            assert_eq!((inserts.len(), deletes.len()), (BATCH, BATCH));
            assert_eq!(batch(7, op, &graph), (inserts.clone(), deletes.clone()));
            let present = |e: &(u32, u32)| graph.has_edge(e.0, e.1);
            if is_noop(op) {
                assert!(inserts.iter().all(present) && !deletes.iter().any(present));
            } else {
                assert!(!inserts.iter().any(present) && deletes.iter().all(present));
            }
        }
        assert_ne!(batch(7, 0, &graph), batch(8, 0, &graph));
    }

    #[test]
    fn a_census_that_disagrees_with_the_deltas_fails_the_op() {
        let mut tr = Tracer::new(false);
        let mut w = Churn::setup(5, 1, &mut tr);
        w.ground_truth();
        w.census += 1;
        for op in 0..NOOP_EVERY {
            let input = w.input(op);
            let output = w.execute(&input, &mut tr);
            let verdict = w.check(op, &input, output, &mut tr);
            if is_noop(op) {
                assert!(verdict.unwrap_err().contains("census"));
            } else {
                verdict.unwrap();
            }
        }
    }
}
