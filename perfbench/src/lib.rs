//! The clique-listing benchmark: four workloads, each run in a closed loop
//! by one client, with every output checked against ground truth.
//!
//! * `congest` — `Engine::run` of the paper's `general` CONGEST algorithm;
//! * `stream` — `Engine::run` of `congested-clique` on clique-rich graphs,
//!   under a two-thread grant;
//! * `query` — sessions of mixed queries against one snapshot;
//! * `churn` — edge batches applied to a snapshot, with the clique delta.
//!
//! A run with tracing off measures the end-to-end metrics; a traced run
//! repeats every op inside spans and reports the per-layer metrics (see
//! `METRICS.md`).

pub mod calibrate;
pub mod harness;
pub mod metrics;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod workloads;

use harness::{Outcome, RunConfig};
use workloads::{churn::Churn, congest::Congest, queries::Queries, stream::Stream};

/// The workloads by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    /// `Engine::run` of `general`.
    Congest,
    /// `Engine::run` of `congested-clique`.
    Stream,
    /// Query sessions against one snapshot.
    Query,
    /// Edge batches and clique deltas.
    Churn,
}

impl WorkloadKind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::Congest,
        WorkloadKind::Stream,
        WorkloadKind::Query,
        WorkloadKind::Churn,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Congest => "congest",
            WorkloadKind::Stream => "stream",
            WorkloadKind::Query => "query",
            WorkloadKind::Churn => "churn",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Self> {
        WorkloadKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The thread grant the workload asks for; a run grants the smaller of
    /// this and the host's available parallelism.
    pub fn default_threads(self) -> usize {
        match self {
            WorkloadKind::Stream => 2,
            _ => 1,
        }
    }

    /// Runs the workload once under `cfg`.
    pub fn run(self, cfg: &RunConfig) -> Outcome {
        match self {
            WorkloadKind::Congest => harness::run::<Congest>(cfg),
            WorkloadKind::Stream => harness::run::<Stream>(cfg),
            WorkloadKind::Query => harness::run::<Queries>(cfg),
            WorkloadKind::Churn => harness::run::<Churn>(cfg),
        }
    }
}
