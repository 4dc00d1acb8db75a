//! The closed loop every workload runs in: one client, which issues the next
//! op only after the previous one returned and was checked.
//!
//! Per op the loop prepares the input (untimed), times the op with tracing
//! off, and checks its output against ground truth (untimed). The traced run
//! also repeats the op on the same input inside an `op` span, times the layer
//! stage functions as sibling spans, and checks the traced output instead;
//! the two timings of one input give the tracing overhead.

use crate::calibrate::Reference;
use crate::stats::median;
use crate::trace::Tracer;
use std::time::{Duration, Instant};

/// How many times a run builds its inputs; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// Fewest ops any run makes, whatever `--seconds` says, so the tail
/// percentile always has ten samples beyond it.
pub const MIN_OPS: u64 = 20;

/// What one run is asked to do.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunConfig {
    /// Workload seed: every input is a pure function of it.
    pub seed: u64,
    /// Measured time of the op loop.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Worker-thread grant of the workload.
    pub threads: usize,
}

/// One workload: inputs, the op, its check, and its per-layer metrics.
pub trait Workload: Sized {
    /// The input of one op.
    type Input;
    /// What one op returns.
    type Output;

    /// Builds the inputs from the seed: the part of a run `setup_s` times.
    fn setup(seed: u64, threads: usize, tr: &mut Tracer) -> Self;

    /// Computes what the checks compare against. Not part of `setup_s`.
    fn ground_truth(&mut self) {}

    /// Fewest ops a run makes besides [`MIN_OPS`] (e.g. one pass over an
    /// input pool).
    fn min_ops(&self) -> u64 {
        0
    }

    /// The input of op `op` (untimed).
    fn input(&mut self, op: u64) -> Self::Input;

    /// The op itself: the public calls a user of the system would make.
    fn execute(&self, input: &Self::Input, tr: &mut Tracer) -> Self::Output;

    /// Traced run only: times the layer stage functions on the op's input as
    /// spans beside the op span.
    fn stages(&mut self, _input: &Self::Input, _tr: &mut Tracer) {}

    /// Checks the op's output (untimed); `Err` says what was wrong.
    ///
    /// # Errors
    ///
    /// A description of the first mismatch against ground truth.
    fn check(
        &mut self,
        op: u64,
        input: &Self::Input,
        output: Self::Output,
        tr: &mut Tracer,
    ) -> Result<(), String>;

    /// The workload's per-layer metrics, from the traced run's spans and the
    /// counts the checks gathered.
    fn layer_metrics(&self, tr: &Tracer) -> Vec<(&'static str, f64)>;
}

/// Failed or wrong ops against ops attempted.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Ledger {
    attempted: u64,
    failures: Vec<(u64, String)>,
}

impl Ledger {
    /// Records the verdict on op `op`.
    pub fn record(&mut self, op: u64, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = verdict {
            self.failures.push((op, reason));
        }
    }

    /// Ops attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Ops that failed or answered wrongly.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// `failed / attempted` (0 before any op).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    /// The failed ops with the reason each was rejected.
    pub fn failures(&self) -> &[(u64, String)] {
        &self.failures
    }
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Seconds taken by each of the [`SETUP_REPEATS`] set-ups.
    pub setup_s: Vec<f64>,
    /// Wall time of every op with tracing off, ms.
    pub op_ms: Vec<f64>,
    /// Traced run only: wall time of every traced repeat, ms.
    pub traced_op_ms: Vec<f64>,
    /// Verdicts on every op.
    pub ledger: Ledger,
    /// Traced run only: the workload's per-layer metrics.
    pub layers: Vec<(&'static str, f64)>,
    /// The spans of the traced run (empty otherwise).
    pub tracer: Tracer,
    /// The host-speed reference sampled through the run.
    pub reference: Reference,
}

impl Outcome {
    /// Ops per second of op time: the throughput of the one client if its
    /// checks cost nothing.
    pub fn ops_per_s(&self) -> f64 {
        let total_ms: f64 = self.op_ms.iter().sum();
        if total_ms > 0.0 {
            self.op_ms.len() as f64 * 1e3 / total_ms
        } else {
            0.0
        }
    }

    /// Traced minus untraced wall time of the same inputs, median, ms.
    pub fn trace_overhead_ms(&self) -> f64 {
        let diffs: Vec<f64> = self
            .traced_op_ms
            .iter()
            .zip(&self.op_ms)
            .map(|(traced, plain)| traced - plain)
            .collect();
        median(&diffs)
    }
}

/// Runs workload `W` under `cfg`: set-up, ground truth, then the closed loop
/// for `cfg.seconds` (and at least [`Workload::min_ops`] ops).
pub fn run<W: Workload>(cfg: &RunConfig) -> Outcome {
    let mut tr = Tracer::new(cfg.trace);
    let mut reference = Reference::new();
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous copy first so set-up never holds two at once.
        drop(built.take());
        reference.sample();
        let start = Instant::now();
        built = Some(W::setup(cfg.seed, cfg.threads, &mut tr));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut workload = built.expect("SETUP_REPEATS is positive");
    workload.ground_truth();

    let mut quiet = Tracer::new(false);
    let mut op_ms = Vec::new();
    let mut traced_op_ms = Vec::new();
    let mut ledger = Ledger::default();
    let budget = Duration::from_secs_f64(cfg.seconds.max(0.0));
    let start = Instant::now();
    let mut op = 0u64;
    while op < workload.min_ops().max(MIN_OPS) || start.elapsed() < budget {
        reference.tick();
        let input = workload.input(op);
        let output = if cfg.trace {
            // Alternate which of the two runs of an input goes first, so the
            // one that finds the caches warm is not always the same.
            if !op.is_multiple_of(2) {
                drop(timed(&workload, &input, &mut quiet, &mut op_ms));
            }
            tr.set_op(op);
            let output = tr.span("op", |tr| timed(&workload, &input, tr, &mut traced_op_ms));
            if op.is_multiple_of(2) {
                drop(timed(&workload, &input, &mut quiet, &mut op_ms));
            }
            workload.stages(&input, &mut tr);
            output
        } else {
            timed(&workload, &input, &mut quiet, &mut op_ms)
        };
        let verdict = workload.check(op, &input, output, &mut tr);
        ledger.record(op, verdict);
        op += 1;
    }
    let layers = if cfg.trace {
        workload.layer_metrics(&tr)
    } else {
        Vec::new()
    };
    Outcome {
        setup_s,
        op_ms,
        traced_op_ms,
        ledger,
        layers,
        tracer: tr,
        reference,
    }
}

/// Runs `workload`'s op on `input` and appends its wall time (ms) to `times`.
fn timed<W: Workload>(
    workload: &W,
    input: &W::Input,
    tr: &mut Tracer,
    times: &mut Vec<f64>,
) -> W::Output {
    let start = Instant::now();
    let output = workload.execute(input, tr);
    times.push(start.elapsed().as_secs_f64() * 1e3);
    output
}

/// The process's peak resident set (`VmHWM`) in MiB, if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_counts_wrong_answers_against_attempts() {
        let mut ledger = Ledger::default();
        ledger.record(0, Ok(()));
        ledger.record(1, Err("count 5, expected 4".into()));
        ledger.record(2, Ok(()));
        ledger.record(3, Err("query failed".into()));
        assert_eq!(ledger.attempted(), 4);
        assert_eq!(ledger.failed(), 2);
        assert_eq!(ledger.error_rate(), 0.5);
        let ids: Vec<u64> = ledger.failures().iter().map(|f| f.0).collect();
        assert_eq!(ids, [1, 3]);
    }

    /// A workload whose op answers `op + 1` while the truth is `op`, on
    /// every third op: the loop must count exactly those ops as failed.
    struct OffByOne {
        min: u64,
    }

    impl Workload for OffByOne {
        type Input = u64;
        type Output = u64;
        fn setup(_seed: u64, _threads: usize, _tr: &mut Tracer) -> Self {
            OffByOne { min: 30 }
        }
        fn min_ops(&self) -> u64 {
            self.min
        }
        fn input(&mut self, op: u64) -> u64 {
            op
        }
        fn execute(&self, input: &u64, tr: &mut Tracer) -> u64 {
            tr.span("answer", |_| {
                if input.is_multiple_of(3) {
                    input + 1
                } else {
                    *input
                }
            })
        }
        fn check(
            &mut self,
            _op: u64,
            input: &u64,
            output: u64,
            _tr: &mut Tracer,
        ) -> Result<(), String> {
            if output == *input {
                Ok(())
            } else {
                Err(format!("answered {output}, expected {input}"))
            }
        }
        fn layer_metrics(&self, tr: &Tracer) -> Vec<(&'static str, f64)> {
            vec![("answers", tr.durations_ms("answer").len() as f64)]
        }
    }

    #[test]
    fn the_loop_counts_every_wrong_answer() {
        for trace in [false, true] {
            let cfg = RunConfig {
                seed: 1,
                seconds: 0.0,
                trace,
                threads: 1,
            };
            let out = run::<OffByOne>(&cfg);
            assert_eq!(out.ledger.attempted(), 30);
            assert_eq!(out.ledger.failed(), 10);
            assert!(out.ledger.failures().iter().all(|(op, _)| op % 3 == 0));
            assert_eq!(out.op_ms.len(), 30);
            assert_eq!(out.setup_s.len(), SETUP_REPEATS);
            if trace {
                assert_eq!(out.traced_op_ms.len(), 30);
                assert_eq!(out.layers, vec![("answers", 30.0)]);
                // One `op` span per op, each the parent of one `answer`.
                let ops = out.tracer.durations_ms("op").len();
                let parented = out
                    .tracer
                    .spans()
                    .iter()
                    .filter(|s| s.parent.is_some())
                    .count();
                assert_eq!((ops, parented), (30, 30));
            } else {
                assert!(out.tracer.spans().is_empty());
            }
        }
    }
}
