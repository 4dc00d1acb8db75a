//! `stream`: `Engine::run` of `congested-clique` on clique-rich graphs, the
//! only workload that uses more than one thread.
//!
//! One op streams every `K_4` of one graph of a fixed pool of R-MAT graphs
//! into a counting sink under the run's thread grant. With millions of
//! cliques per graph the work is the enumeration kernel, the sharded
//! enumerator and the ordered replay that puts shard output back in
//! sequential order; there is no expander decomposition.

use crate::harness::Workload;
use crate::rng::SplitMix64;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{mean_over, round_metrics};
use cliquelist::{CountSink, Engine, Parallelism, RunReport};
use graphcore::cliques::{self, CliqueIndex};
use graphcore::{gen, Graph};

/// Graphs in the pool.
pub const POOL: usize = 8;
/// R-MAT scale: `2^13` vertices.
pub const SCALE: u32 = 13;
/// R-MAT edges per vertex.
pub const EDGE_FACTOR: usize = 8;
/// R-MAT quadrant probabilities.
pub const PROBS: (f64, f64, f64, f64) = (0.57, 0.19, 0.19, 0.05);
/// Clique size listed.
pub const P: usize = 4;

const SALT: u64 = 0x57_4EA3;

/// The pool: graph `i` is `rmat(SCALE, EDGE_FACTOR, PROBS, seed_i)`.
pub fn pool(seed: u64) -> Vec<Graph> {
    (0..POOL as u64)
        .map(|i| {
            let graph_seed = SplitMix64::derived(seed, SALT, i).next_u64();
            gen::rmat(SCALE, EDGE_FACTOR, PROBS, graph_seed)
        })
        .collect()
}

/// The `stream` workload.
pub struct Stream {
    engine: Engine,
    threads: usize,
    pool: Vec<Graph>,
    truth: Vec<u64>,
    first: Vec<Option<RunReport>>,
    /// Traced run: stage functions whose count disagreed with ground truth.
    stage_errors: Vec<String>,
    threads_used: Vec<f64>,
}

impl Workload for Stream {
    type Input = usize;
    type Output = (RunReport, u64);

    fn setup(seed: u64, threads: usize, _tr: &mut Tracer) -> Self {
        Stream {
            engine: Engine::builder()
                .p(P)
                .algorithm("congested-clique")
                .parallelism(Parallelism::Threads(threads))
                .build()
                .expect("congested-clique p=4 is a valid configuration"),
            threads,
            pool: pool(seed),
            truth: Vec::new(),
            first: vec![None; POOL],
            stage_errors: Vec::new(),
            threads_used: Vec::new(),
        }
    }

    fn ground_truth(&mut self) {
        self.truth = self
            .pool
            .iter()
            .map(|g| cliques::count_cliques(g, P) as u64)
            .collect();
    }

    fn min_ops(&self) -> u64 {
        POOL as u64
    }

    fn input(&mut self, op: u64) -> usize {
        (op % POOL as u64) as usize
    }

    fn execute(&self, &i: &usize, tr: &mut Tracer) -> (RunReport, u64) {
        tr.span("cliquelist.engine_run", |_| {
            let mut sink = CountSink::new();
            let report = self.engine.run(&self.pool[i], &mut sink);
            (report, sink.count)
        })
    }

    /// The layers under the engine, one call each on the op's graph: the
    /// index build, the sequential kernel, the unordered parallel count and
    /// the ordered parallel enumeration (which rebuilds its own index).
    fn stages(&mut self, &i: &usize, tr: &mut Tracer) {
        let graph = &self.pool[i];
        let threads = self.threads;
        tr.span("graph.index_build", |_| CliqueIndex::build(graph));
        let counts = [
            (
                "count_cliques",
                tr.span("graph.count_seq", |_| cliques::count_cliques(graph, P)),
            ),
            (
                "count_cliques_parallel",
                tr.span("graph.count_par", |_| {
                    cliques::count_cliques_parallel(graph, P, threads)
                }),
            ),
            (
                "for_each_clique_parallel",
                tr.span("graph.ordered_par", |_| {
                    let mut count = 0usize;
                    cliques::for_each_clique_parallel(graph, P, threads, |_| count += 1);
                    count
                }),
            ),
        ];
        for (stage, count) in counts {
            if count as u64 != self.truth[i] {
                self.stage_errors.push(format!(
                    "graph {i}: {stage} counted {count}, ground truth {}",
                    self.truth[i]
                ));
            }
        }
    }

    fn check(
        &mut self,
        _op: u64,
        &i: &usize,
        (report, count): (RunReport, u64),
        _tr: &mut Tracer,
    ) -> Result<(), String> {
        if !self.stage_errors.is_empty() {
            let errors: Vec<String> = self.stage_errors.drain(..).collect();
            return Err(errors.join("; "));
        }
        let truth = self.truth[i];
        if count != truth || report.sink.emitted != truth {
            return Err(format!(
                "graph {i}: listed {count} (report says {}), ground truth {truth}",
                report.sink.emitted
            ));
        }
        if let Some(reason) = report.parallelism.sequential_reason {
            return Err(format!("graph {i}: ran sequentially: {reason}"));
        }
        self.threads_used
            .push(report.parallelism.threads_used as f64);
        match &self.first[i] {
            Some(first) if first.rounds != report.rounds => Err(format!(
                "graph {i}: {} rounds, earlier run took {}",
                report.rounds.total(),
                first.rounds.total()
            )),
            Some(_) => Ok(()),
            None => {
                self.first[i] = Some(report);
                Ok(())
            }
        }
    }

    fn layer_metrics(&self, tr: &Tracer) -> Vec<(&'static str, f64)> {
        let reports: Vec<&RunReport> = self.first.iter().flatten().collect();
        let load = |f: fn(&cliquelist::CongestedCliqueStats) -> u64| {
            mean_over(&reports, |r| {
                r.congested_clique.map_or(0.0, |cc| f(&cc) as f64)
            })
        };
        let per_op = |a: &str, b: &str| -> Vec<f64> {
            let b = tr.ms_by_op(b);
            tr.ms_by_op(a)
                .iter()
                .filter_map(|(op, x)| b.get(op).map(|y| x - y))
                .collect()
        };
        let seq = tr.p50_ms("graph.count_seq");
        let ordered = tr.p50_ms("graph.ordered_par");
        let mut out = vec![
            ("graph.index_build_ms", tr.p50_ms("graph.index_build")),
            ("graph.count_seq_ms", seq),
            ("graph.count_par_ms", tr.p50_ms("graph.count_par")),
            ("graph.ordered_par_ms", ordered),
            (
                "graph.replay_ms",
                median(&per_op("graph.ordered_par", "graph.count_par")),
            ),
            (
                "graph.par_speedup",
                if ordered > 0.0 { seq / ordered } else { 0.0 },
            ),
            (
                "stream.engine_overhead_ms",
                median(&per_op("cliquelist.engine_run", "graph.ordered_par")),
            ),
            ("stream.threads_used", median(&self.threads_used)),
            ("stream.max_send", load(|cc| cc.max_send)),
            ("stream.max_recv", load(|cc| cc.max_recv)),
            (
                "stream.cliques_emitted",
                mean_over(&reports, |r| r.sink.emitted as f64),
            ),
        ];
        out.extend(round_metrics(&reports));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_pool_is_a_fixed_size_pure_function_of_the_seed() {
        let pool_1 = pool(1);
        assert_eq!(pool_1.len(), POOL);
        assert_eq!(pool(2).len(), POOL);
        assert_eq!(pool_1, pool(1));
        assert_ne!(pool_1, pool(2));
    }
}
