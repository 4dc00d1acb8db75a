//! Runs one workload of the benchmark and prints its metrics, ending with
//! one JSON line.
//!
//! ```text
//! perfbench --workload <congest|stream|query|churn> --seed <n> --seconds <s>
//!           --trace <0|1> [--threads <n>] [--commit <id>] [--spans-out <file>]
//! ```
//!
//! Exit status: 0 with a result line (which says whether every output was
//! correct), 2 on a usage error or a refused thread grant.

use perfbench::harness::{peak_rss_mb, Outcome, RunConfig};
use perfbench::metrics::{complete, result_line, END_TO_END, PER_LAYER};
use perfbench::stats::{median, tail};
use perfbench::WorkloadKind;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <congest|stream|query|churn> --seed <n> \
                     --seconds <s> --trace <0|1> [--threads <n>] [--commit <id>] [--spans-out <file>]";

struct Args {
    workload: WorkloadKind,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: Option<usize>,
    commit: String,
    spans_out: Option<String>,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut threads, mut commit, mut spans_out) = (None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(WorkloadKind::parse(&value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("expected a non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                });
            }
            "--threads" => threads = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--commit" => commit = Some(value),
            "--spans-out" => spans_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        threads,
        commit: commit.unwrap_or_else(|| "unknown".into()),
        spans_out,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let threads = args
        .threads
        .unwrap_or_else(|| args.workload.default_threads().min(nproc));
    if threads == 0 || threads > nproc {
        eprintln!(
            "perfbench: refusing a grant of {threads} threads on a host with nproc = {nproc}"
        );
        return ExitCode::from(2);
    }
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        threads,
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# stamp nproc={nproc} threads={threads} features=parallel commit={}",
        args.commit
    );

    let outcome = args.workload.run(&cfg);
    // Read before anything else allocates: the workload's own high-water mark.
    let rss = peak_rss_mb();
    if let Some(path) = &args.spans_out {
        if let Err(e) = std::fs::write(path, outcome.tracer.to_tsv()) {
            eprintln!("perfbench: cannot write spans to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    report(&args, &outcome, rss)
}

fn report(args: &Args, outcome: &Outcome, rss: Option<f64>) -> ExitCode {
    let ledger = &outcome.ledger;
    let tail = tail(&outcome.op_ms);
    println!(
        "# set-up: {} runs, median {:.4} s (ground truth excluded)",
        outcome.setup_s.len(),
        median(&outcome.setup_s)
    );
    let scale = outcome.reference.scale();
    println!(
        "# host speed: reference kernel median {:.4} ms over {} samples; timings scaled by {scale:.4}",
        median(outcome.reference.samples_ms()),
        outcome.reference.samples_ms().len()
    );
    println!(
        "# measured: op_p50 {:.4} ms, op_tail {:.4} ms, setup {:.4} s",
        median(&outcome.op_ms),
        tail.value,
        median(&outcome.setup_s)
    );
    println!(
        "# ops: {} attempted, {} failed, error_rate {}",
        ledger.attempted(),
        ledger.failed(),
        ledger.error_rate()
    );
    println!(
        "# op_tail_ms is p{:.2} of {} ops ({} beyond it)",
        tail.percentile, tail.samples, tail.beyond
    );
    for (op, reason) in ledger.failures() {
        println!("# failed op {op}: {reason}");
    }
    let values = if args.trace {
        print_spans(outcome);
        let mut values = vec![
            ("error_rate", ledger.error_rate()),
            ("op_samples", tail.samples as f64),
            ("op_tail_percentile", tail.percentile),
            ("trace.overhead_ms", outcome.trace_overhead_ms()),
            ("trace.child_coverage", outcome.tracer.child_coverage("op")),
            ("trace.op_self_ms", median(&outcome.tracer.self_ms("op"))),
            ("host.ref_kernel_ms", median(outcome.reference.samples_ms())),
        ];
        values.extend(outcome.layers.iter().copied());
        complete(PER_LAYER, &values).map(|mut metrics| {
            for (name, value, unit) in &mut metrics {
                if *unit == "ms" && !name.starts_with("host.") {
                    *value *= scale;
                }
            }
            metrics
        })
    } else {
        let Some(rss) = rss else {
            eprintln!("perfbench: the platform does not report peak RSS (/proc/self/status)");
            return ExitCode::FAILURE;
        };
        let values = [
            ("op_p50_ms", median(&outcome.op_ms) * scale),
            ("op_tail_ms", tail.value * scale),
            ("ops_per_s", outcome.ops_per_s() / scale),
            ("setup_s", median(&outcome.setup_s) * scale),
            ("peak_rss_mb", rss),
        ];
        complete(END_TO_END, &values)
    };
    let metrics = match values {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (name, value, unit) in &metrics {
        println!("# {name} = {value} {unit}");
    }
    println!(
        "{}",
        result_line(ledger.attempted(), ledger.failed(), &metrics)
    );
    ExitCode::SUCCESS
}

/// The per-span table of the traced run: wall and self time per name.
fn print_spans(outcome: &Outcome) {
    println!("# span                          count    p50_ms  p50_self_ms   total_ms  self_ms");
    for (name, s) in outcome.tracer.summary() {
        println!(
            "# {name:<28} {:>7} {:>9.4} {:>12.4} {:>10.1} {:>8.1}",
            s.count, s.p50_ms, s.p50_self_ms, s.total_ms, s.total_self_ms
        );
    }
}
