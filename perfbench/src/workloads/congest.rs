//! `congest`: the paper's CONGEST pipeline, `Engine::run` of `general`.
//!
//! One op lists the `K_4`s of one instance of a fixed pool of
//! `bench::workloads::listing_workload` graphs into a counting sink, at the
//! simulation scale the experiments use, with a grant of one thread. The pool
//! is run in order; a single instance's cost varies with its generator seed,
//! so the pool averages over many.

use crate::harness::Workload;
use crate::rng::SplitMix64;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{mean_over, round_metrics};
use cliquelist::list::list_once;
use cliquelist::{CountSink, Engine, Parallelism, RunReport};
use graphcore::{Graph, Orientation};

/// Instances in the pool.
pub const POOL: usize = 32;
/// Vertices per instance.
pub const N: usize = 300;
/// Clique size listed.
pub const P: usize = 4;

const SALT: u64 = 0xC0_6E57;

/// The pool: instance `i` is `listing_workload(N, P, seed_i)` with `seed_i`
/// derived from the workload seed.
pub fn pool(seed: u64) -> Vec<Graph> {
    (0..POOL as u64)
        .map(|i| {
            let instance_seed = SplitMix64::derived(seed, SALT, i).next_u64();
            bench::workloads::listing_workload(N, P, instance_seed).graph
        })
        .collect()
}

/// The `congest` workload.
pub struct Congest {
    engine: Engine,
    pool: Vec<Graph>,
    truth: Vec<u64>,
    /// The report of each instance's first run: later runs must repeat its
    /// rounds exactly.
    first: Vec<Option<RunReport>>,
}

impl Workload for Congest {
    type Input = usize;
    type Output = (RunReport, u64);

    fn setup(seed: u64, threads: usize, _tr: &mut Tracer) -> Self {
        Congest {
            engine: engine(threads),
            pool: pool(seed),
            truth: Vec::new(),
            first: vec![None; POOL],
        }
    }

    fn ground_truth(&mut self) {
        self.truth = self
            .pool
            .iter()
            .map(|g| graphcore::cliques::count_cliques(g, P) as u64)
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

    /// The stages of the first LIST iteration, on the op's instance: the
    /// degeneracy orientation, the expander decomposition at that
    /// iteration's δ, and the whole first LIST call (which contains it).
    fn stages(&mut self, &i: &usize, tr: &mut Tracer) {
        let graph = &self.pool[i];
        let config = self.engine.config();
        let n = graph.num_vertices();
        let orientation = tr.span("graph.degeneracy", |_| Orientation::from_degeneracy(graph));
        let a = orientation.max_out_degree().max(1);
        let slack = config.arboricity_slack(n);
        if (a as f64) / slack <= (n as f64).powf(config.termination_exponent()) {
            return;
        }
        // The δ `list_once` derives from the arboricity bound.
        let target = (a as f64 / slack).max(1.5);
        let delta = (target.ln() / (n as f64).ln()).clamp(0.05, 0.95);
        tr.span("expander.decompose", |_| {
            expander::decompose(graph, delta, &config.decomposition, config.seed)
        });
        tr.span("cliquelist.list_once", |_| {
            list_once(
                graph,
                &orientation,
                a,
                config,
                config.seed,
                &mut CountSink::new(),
            )
        });
    }

    fn check(
        &mut self,
        _op: u64,
        &i: &usize,
        (report, count): (RunReport, u64),
        _tr: &mut Tracer,
    ) -> Result<(), String> {
        let truth = self.truth[i];
        if count != truth || report.sink.emitted != truth {
            return Err(format!(
                "instance {i}: listed {count} (report says {}), ground truth {truth}",
                report.sink.emitted
            ));
        }
        if !report.outcome.is_complete() {
            return Err(format!("instance {i}: outcome {:?}", report.outcome));
        }
        match &self.first[i] {
            Some(first) if first.rounds != report.rounds => Err(format!(
                "instance {i}: {} rounds, earlier run took {}",
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
        let per_instance = |f: fn(&RunReport) -> usize| mean_over(&reports, |r| f(r) as f64);
        let degeneracy = tr.ms_by_op("graph.degeneracy");
        let list = tr.ms_by_op("cliquelist.list_once");
        // Per op: the part of the engine run the stage spans do not cover.
        let unattributed: Vec<f64> = tr
            .ms_by_op("cliquelist.engine_run")
            .iter()
            .map(|(op, run)| {
                run - degeneracy.get(op).unwrap_or(&0.0) - list.get(op).unwrap_or(&0.0)
            })
            .collect();
        let mut out = vec![
            ("graph.degeneracy_ms", tr.p50_ms("graph.degeneracy")),
            ("expander.decompose_ms", tr.p50_ms("expander.decompose")),
            ("cliquelist.list_once_ms", tr.p50_ms("cliquelist.list_once")),
            ("cliquelist.unattributed_ms", median(&unattributed)),
            ("congest.clusters", per_instance(|r| r.diagnostics.clusters)),
            (
                "congest.cluster_edges",
                per_instance(|r| r.diagnostics.cluster_edges),
            ),
            (
                "congest.bad_edges",
                per_instance(|r| r.diagnostics.bad_edges),
            ),
            (
                "congest.max_learned_words",
                mean_over(&reports, |r| r.diagnostics.max_learned_words as f64),
            ),
            (
                "congest.list_iterations",
                per_instance(|r| r.diagnostics.list_iterations),
            ),
            (
                "congest.arb_iterations",
                per_instance(|r| r.diagnostics.arb_iterations),
            ),
        ];
        out.extend(round_metrics(&reports));
        out
    }
}

/// The engine every op runs: `general`, p = 4, experiment scale, under the
/// run's thread grant (the CONGEST simulation itself runs on one thread).
pub fn engine(threads: usize) -> Engine {
    Engine::builder()
        .p(P)
        .algorithm("general")
        .experiment_scale()
        .parallelism(Parallelism::Threads(threads))
        .build()
        .expect("general p=4 at experiment scale is a valid configuration")
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
        assert!(pool_1.iter().all(|g| g.num_vertices() == N));
    }

    #[test]
    fn ops_cycle_the_pool_in_order_whatever_the_run_length() {
        let mut w = Congest::setup(1, 1, &mut Tracer::new(false));
        assert_eq!(w.min_ops(), POOL as u64);
        let inputs: Vec<usize> = (0..2 * POOL as u64).map(|op| w.input(op)).collect();
        let expected: Vec<usize> = (0..POOL).chain(0..POOL).collect();
        assert_eq!(inputs, expected);
    }

    #[test]
    fn a_wrong_ground_truth_fails_the_op() {
        let mut tr = Tracer::new(false);
        let mut w = Congest::setup(3, 1, &mut tr);
        w.ground_truth();
        let output = w.execute(&0, &mut tr);
        w.truth[0] += 1;
        let verdict = w.check(0, &0, output, &mut tr);
        assert!(verdict.unwrap_err().contains("ground truth"));
    }
}
