//! The unified run report of the [`Engine`](crate::Engine) API.
//!
//! [`RunReport`] subsumes the pre-Engine `ListingResult` (rounds breakdown +
//! diagnostics) and `CongestedCliqueReport` (per-node send/receive loads and
//! the Theorem 1.3 prediction): one report type for every algorithm, with the
//! listed cliques streamed to a [`CliqueSink`](crate::CliqueSink) instead of
//! being materialised inside the report.
//!
//! The report derives the workspace `serde` markers, but the vendored
//! `serde` stand-in has no data format (see `DESIGN.md` §5), so
//! [`RunReport::to_json`] builds a [`graphcore::Json`] value and renders it
//! through the workspace's one JSON writer.

use crate::result::{Diagnostics, Rounds};
use graphcore::{Json, KernelChoice, KernelStrategy};
use serde::{Deserialize, Serialize};

/// The communication model an algorithm runs in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Model {
    /// The CONGEST model: the input graph is the communication graph,
    /// `O(log n)` bits per edge per round.
    Congest,
    /// The CONGESTED CLIQUE model: all-to-all communication, `O(log n)` bits
    /// per ordered pair per round.
    CongestedClique,
}

impl Model {
    /// Stable lower-case name (used in reports and JSON).
    pub fn name(self) -> &'static str {
        match self {
            Model::Congest => "congest",
            Model::CongestedClique => "congested-clique",
        }
    }
}

/// What happened at the sink boundary during a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SinkSummary {
    /// Number of distinct cliques emitted to the sink.
    pub emitted: u64,
    /// Whether the sink reported saturation before the enumeration finished
    /// (e.g. a `FirstK` sink that filled up).
    pub saturated: bool,
}

/// How a run's local enumeration was executed with respect to the
/// [`Parallelism`](crate::Parallelism) knob.
///
/// `supported` and `sequential_reason` are a pure function of the algorithm
/// and the build (never of the requested thread count or the host), so the
/// JSON rendered by [`RunReport::to_json`] is byte-identical across every
/// parallelism setting — the report artifact stays diffable.
/// `threads_granted` and `threads_used` are the host-dependent execution
/// details and are deliberately **not** serialised, for the same reason
/// timings are not.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParallelismSummary {
    /// Whether this algorithm in this build can shard its local enumeration.
    pub supported: bool,
    /// Why runs are pinned to sequential execution (`None` when sharding is
    /// available): either the algorithm's capability reason (CONGEST
    /// simulation) or the missing `parallel` feature.
    pub sequential_reason: Option<&'static str>,
    /// Worker threads the engine granted to the local enumeration (1 =
    /// sequential). An upper bound on what the enumeration actually fans out
    /// to: degenerate inputs (single-shard plans, saturated sinks) still run
    /// sequentially under a grant. Execution detail, excluded from
    /// [`RunReport::to_json`].
    pub threads_granted: usize,
    /// The largest worker fan-out any stage of the run actually reached
    /// (1 = every stage ran sequentially). Unlike `threads_granted` this is
    /// never an over-statement: a grant of 8 threads on a single-shard plan
    /// records 1 here, so scaling reports can attribute speedups (or their
    /// absence) to real fan-out rather than to the requested setting.
    /// Execution detail, excluded from [`RunReport::to_json`].
    pub threads_used: usize,
}

impl Default for ParallelismSummary {
    fn default() -> Self {
        ParallelismSummary {
            supported: false,
            sequential_reason: None,
            threads_granted: 1,
            threads_used: 1,
        }
    }
}

/// How a run's local enumerations selected their kernel with respect to the
/// [`KernelStrategy`] knob.
///
/// Like the thread counts of [`ParallelismSummary`], the whole summary is an
/// execution detail deliberately excluded from [`RunReport::to_json`]: both
/// kernels emit byte-identical listings (the kernel differential battery
/// holds them to it), so two runs differing only in their kernel setting
/// must produce byte-identical report artifacts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelSummary {
    /// The strategy the run was configured with.
    pub requested: KernelStrategy,
    /// What the strategy resolves to on the *input* graph (a pure function
    /// of the graph's degeneracy and the strategy — host-independent).
    /// Derived enumerations (cluster subgraphs, aggregate graphs) resolve
    /// per their own subgraph and may differ; this field records the
    /// top-level resolution so scaling reports can attribute wall-clock
    /// differences to the kernel that actually ran on the dominant input.
    pub resolved: KernelChoice,
    /// The input graph's degeneracy `resolved` was derived from. An
    /// algorithm that orders the input graph while running records it here
    /// so the engine does not compute a second ordering; the engine fills it
    /// otherwise, so it is `None` only on reports built outside
    /// [`Engine::run`](crate::Engine::run).
    pub degeneracy: Option<usize>,
}

impl Default for KernelSummary {
    fn default() -> Self {
        KernelSummary {
            requested: KernelStrategy::Auto,
            resolved: KernelChoice::Recursive,
            degeneracy: None,
        }
    }
}

/// CONGESTED CLIQUE load statistics (Theorem 1.3), present only on runs of
/// the `congested-clique` algorithm.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CongestedCliqueStats {
    /// Maximum number of words any node sent during the edge exchange.
    pub max_send: u64,
    /// Maximum number of words any node received during the edge exchange.
    pub max_recv: u64,
    /// The theoretical prediction `1 + m / n^{1+2/p}` (no polylog factors).
    pub predicted_rounds: f64,
}

/// How a run terminated with respect to the configured
/// [`Resilience`](crate::Resilience) envelope.
///
/// Fault-free runs (the default) always finish [`RunOutcome::Complete`], and
/// `Complete` is deliberately **not** serialised by [`RunReport::to_json`] so
/// that reports from fault-free runs stay byte-identical to reports produced
/// before the fault model existed. The degraded outcomes carry a
/// deterministic, host-independent reason string: the same `(seed, fault
/// plan)` pair reproduces the same outcome byte-for-byte at any thread grant.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunOutcome {
    /// The run finished the full listing within its budgets.
    #[default]
    Complete,
    /// The run produced a *partial* listing (or paid extra rounds) and says
    /// why: crash-stopped nodes whose cliques are missing, message loss with
    /// the reliable transport disabled, or a round budget that was exhausted
    /// after some output had been emitted.
    Degraded(String),
    /// The run produced no usable listing: every node crash-stopped, or the
    /// round budget was exhausted before anything was emitted.
    Aborted,
}

impl RunOutcome {
    /// True when the run finished without degradation.
    pub fn is_complete(&self) -> bool {
        matches!(self, RunOutcome::Complete)
    }
}

/// The outcome of one [`Engine`](crate::Engine) run: identity of the
/// algorithm, measured cost, pipeline diagnostics and the sink summary.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RunReport {
    /// Registry name of the algorithm that produced the report.
    pub algorithm: &'static str,
    /// Communication model the rounds are measured in.
    pub model: Option<Model>,
    /// Clique size listed.
    pub p: usize,
    /// Round breakdown by pipeline phase.
    pub rounds: Rounds,
    /// Pipeline diagnostics (bad edges, loads, iteration counts).
    pub diagnostics: Diagnostics,
    /// Sink-boundary summary, filled by the engine.
    pub sink: SinkSummary,
    /// How the local enumeration was executed (sharded or sequential, and
    /// why), filled by the engine.
    pub parallelism: ParallelismSummary,
    /// Which enumeration kernel the run requested and resolved to, filled by
    /// the engine. Execution detail, excluded from [`RunReport::to_json`]
    /// (see [`KernelSummary`]).
    pub kernel: KernelSummary,
    /// CONGESTED CLIQUE load statistics, when applicable.
    pub congested_clique: Option<CongestedCliqueStats>,
    /// How the run terminated under its [`Resilience`](crate::Resilience)
    /// envelope. Defaults to [`RunOutcome::Complete`], which is omitted from
    /// [`RunReport::to_json`] to keep fault-free reports byte-stable.
    pub outcome: RunOutcome,
}

impl RunReport {
    /// Creates an empty report for one algorithm/clique-size pair.
    pub fn new(algorithm: &'static str, model: Model, p: usize) -> Self {
        RunReport {
            algorithm,
            model: Some(model),
            p,
            ..RunReport::default()
        }
    }

    /// Total measured rounds across all phases.
    pub fn total_rounds(&self) -> u64 {
        self.rounds.total()
    }

    /// Renders the report as a single JSON object (stable field order).
    pub fn to_json(&self) -> String {
        self.json().render()
    }

    /// [`RunReport::to_json`] as a JSON value, for embedding in larger
    /// documents.
    pub fn json(&self) -> Json {
        let d = &self.diagnostics;
        let phases = self
            .rounds
            .iter()
            .map(|(phase, rounds)| (phase.to_string(), rounds.into()))
            .collect();
        let mut fields = vec![
            ("algorithm", self.algorithm.into()),
            ("model", self.model.map(Model::name).into()),
            ("p", self.p.into()),
            (
                "rounds",
                Json::obj(vec![
                    ("total", self.rounds.total().into()),
                    ("phases", Json::Obj(phases)),
                ]),
            ),
            (
                "diagnostics",
                Json::obj(vec![
                    ("bad_edges", d.bad_edges.into()),
                    ("cluster_edges", d.cluster_edges.into()),
                    ("bad_edge_fraction", d.bad_edge_fraction().into()),
                    ("max_learned_words", d.max_learned_words.into()),
                    ("decompositions", d.decompositions.into()),
                    ("clusters", d.clusters.into()),
                    ("list_iterations", d.list_iterations.into()),
                    ("arb_iterations", d.arb_iterations.into()),
                ]),
            ),
            (
                "sink",
                Json::obj(vec![
                    ("emitted", self.sink.emitted.into()),
                    ("saturated", self.sink.saturated.into()),
                ]),
            ),
            // `threads_granted`/`threads_used` are deliberately omitted: like
            // wall-clock timings they are host/execution details, and
            // including them would make otherwise byte-identical runs diff by
            // thread count.
            (
                "parallel",
                Json::obj(vec![
                    ("supported", self.parallelism.supported.into()),
                    (
                        "sequential_reason",
                        self.parallelism.sequential_reason.into(),
                    ),
                ]),
            ),
            (
                "congested_clique",
                self.congested_clique.map_or(Json::Null, |cc| {
                    Json::obj(vec![
                        ("max_send", cc.max_send.into()),
                        ("max_recv", cc.max_recv.into()),
                        ("predicted_rounds", cc.predicted_rounds.into()),
                    ])
                }),
            ),
        ];
        // `Complete` (the only outcome a fault-free run can have) is omitted
        // entirely so that pre-fault-model report bytes are reproduced
        // exactly; only degraded runs grow the extra field.
        match &self.outcome {
            RunOutcome::Complete => {}
            RunOutcome::Degraded(reason) => fields.push((
                "outcome",
                Json::obj(vec![
                    ("status", "degraded".into()),
                    ("reason", reason.as_str().into()),
                ]),
            )),
            RunOutcome::Aborted => {
                fields.push(("outcome", Json::obj(vec![("status", "aborted".into())])));
            }
        }
        Json::obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::phase;

    #[test]
    fn json_contains_identity_rounds_and_sink() {
        let mut report = RunReport::new("general", Model::Congest, 5);
        report.rounds.add(phase::DECOMPOSITION, 10);
        report.rounds.add(phase::PART_EXCHANGE, 5);
        report.sink.emitted = 42;
        let json = report.to_json();
        assert!(json.contains("\"algorithm\":\"general\""));
        assert!(json.contains("\"model\":\"congest\""));
        assert!(json.contains("\"p\":5"));
        assert!(json.contains("\"total\":15"));
        assert!(json.contains("\"decomposition\":10"));
        assert!(json.contains("\"emitted\":42"));
        assert!(json.contains("\"congested_clique\":null"));
        // Balanced braces (cheap well-formedness check).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON: {json}"
        );
    }

    #[test]
    fn congested_clique_stats_are_rendered() {
        let mut report = RunReport::new("congested-clique", Model::CongestedClique, 4);
        report.congested_clique = Some(CongestedCliqueStats {
            max_send: 7,
            max_recv: 9,
            predicted_rounds: 1.25,
        });
        let json = report.to_json();
        assert!(json.contains("\"max_send\":7"));
        assert!(json.contains("\"predicted_rounds\":1.25"));
        assert!(json.contains("\"model\":\"congested-clique\""));
    }

    #[test]
    fn parallelism_summary_is_rendered_without_thread_counts() {
        let mut report = RunReport::new("general", Model::Congest, 4);
        report.parallelism = ParallelismSummary {
            supported: false,
            sequential_reason: Some("CONGEST rounds are simulated sequentially"),
            threads_granted: 8,
            threads_used: 3,
        };
        let json = report.to_json();
        assert!(json.contains("\"parallel\":{\"supported\":false"));
        assert!(
            json.contains("\"sequential_reason\":\"CONGEST rounds are simulated sequentially\"")
        );
        // The thread counts (granted and used) are execution details and must
        // stay out of the diffable artifact.
        assert!(!json.contains("threads"));

        report.parallelism = ParallelismSummary {
            supported: true,
            sequential_reason: None,
            threads_granted: 4,
            threads_used: 4,
        };
        let json = report.to_json();
        assert!(json.contains("\"parallel\":{\"supported\":true,\"sequential_reason\":null}"));
    }

    #[test]
    fn kernel_summary_is_rendered_nowhere_in_json() {
        // Same contract as the thread counts: the kernel selection is an
        // execution detail, and reports differing only in it must serialise
        // byte-identically (the differential battery diffs these bytes).
        let mut report = RunReport::new("general", Model::Congest, 4);
        let baseline = report.to_json();
        report.kernel = KernelSummary {
            requested: KernelStrategy::Trie,
            resolved: KernelChoice::Trie,
            degeneracy: Some(40),
        };
        let json = report.to_json();
        assert_eq!(json, baseline);
        assert!(!json.to_lowercase().contains("kernel"));
        assert!(!json.to_lowercase().contains("trie"));
    }

    #[test]
    fn complete_outcome_is_invisible_in_json() {
        let report = RunReport::new("general", Model::Congest, 4);
        assert!(report.outcome.is_complete());
        assert!(!report.to_json().contains("outcome"));
    }

    #[test]
    fn degraded_and_aborted_outcomes_are_rendered() {
        let mut report = RunReport::new("general", Model::Congest, 4);
        report.outcome = RunOutcome::Degraded("2 node(s) crash-stopped".to_string());
        let json = report.to_json();
        assert!(json.ends_with(
            ",\"outcome\":{\"status\":\"degraded\",\"reason\":\"2 node(s) crash-stopped\"}}"
        ));
        report.outcome = RunOutcome::Aborted;
        let json = report.to_json();
        assert!(json.ends_with(",\"outcome\":{\"status\":\"aborted\"}}"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn string_escaping() {
        let mut report = RunReport::new("general", Model::Congest, 4);
        report.outcome = RunOutcome::Degraded("a\"b\\c\nd".to_string());
        assert!(report.to_json().ends_with(r#""reason":"a\"b\\c\nd"}}"#));
    }

    #[test]
    fn degraded_report_bytes_are_pinned() {
        // Pinned bytes of a degraded report — fractional floats, a
        // full-range integer and escaped free text. Recorded report
        // artifacts (BENCH_TRAJECTORY.json) depend on every one of them.
        let mut report = RunReport::new("congested-clique", Model::CongestedClique, 4);
        report.rounds.add(phase::DECOMPOSITION, 12);
        report.rounds.add(phase::RETRANSMIT, 3);
        report.diagnostics.bad_edges = 1;
        report.diagnostics.cluster_edges = 3;
        report.diagnostics.max_learned_words = u64::MAX;
        report.diagnostics.clusters = 2;
        report.sink.emitted = 7;
        report.sink.saturated = true;
        report.congested_clique = Some(CongestedCliqueStats {
            max_send: 5,
            max_recv: 6,
            predicted_rounds: 1.0 + 2f64.sqrt(),
        });
        report.outcome = RunOutcome::Degraded("1 node(s) \"crash\"-stopped\n\ttab\\".to_string());
        assert_eq!(
            report.to_json(),
            concat!(
                r#"{"algorithm":"congested-clique","model":"congested-clique","p":4,"#,
                r#""rounds":{"total":15,"phases":{"decomposition":12,"retransmit":3}},"#,
                r#""diagnostics":{"bad_edges":1,"cluster_edges":3,"#,
                r#""bad_edge_fraction":0.3333333333333333,"#,
                r#""max_learned_words":18446744073709551615,"decompositions":0,"#,
                r#""clusters":2,"list_iterations":0,"arb_iterations":0},"#,
                r#""sink":{"emitted":7,"saturated":true},"#,
                r#""parallel":{"supported":false,"sequential_reason":null},"#,
                r#""congested_clique":{"max_send":5,"max_recv":6,"#,
                r#""predicted_rounds":2.414213562373095},"#,
                r#""outcome":{"status":"degraded","reason":"1 node(s) \"crash\"-stopped\n\ttab\\"}}"#,
            )
        );
    }
}
