//! Metric names, units and the result line.
//!
//! Every workload prints every metric of the list its run belongs to: the
//! end-to-end list with tracing off, the per-layer list with tracing on. A
//! per-layer metric of a layer the workload does not exercise reads 0.
//! `METRICS.md` maps each per-layer metric to the layer it measures and the
//! end-to-end metric it should move.

use std::fmt::Write as _;

/// `(name, unit)` of the end-to-end metrics, measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of the per-layer metrics, measured by the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Every workload.
    ("error_rate", "ratio"),
    ("op_samples", "count"),
    ("op_tail_percentile", "pct"),
    ("trace.overhead_ms", "ms"),
    ("trace.child_coverage", "ratio"),
    ("trace.op_self_ms", "ms"),
    ("host.ref_kernel_ms", "ms"),
    // congest and stream: the paper's cost measure.
    ("rounds_per_op", "rounds"),
    ("rounds.decomposition", "rounds"),
    ("rounds.membership-broadcast", "rounds"),
    ("rounds.heavy-upload", "rounds"),
    ("rounds.light-probes", "rounds"),
    ("rounds.id-assignment", "rounds"),
    ("rounds.reshuffle", "rounds"),
    ("rounds.partition-broadcast", "rounds"),
    ("rounds.part-exchange", "rounds"),
    ("rounds.light-listing", "rounds"),
    ("rounds.final-broadcast", "rounds"),
    ("rounds.retransmit", "rounds"),
    // congest.
    ("graph.degeneracy_ms", "ms"),
    ("expander.decompose_ms", "ms"),
    ("cliquelist.list_once_ms", "ms"),
    ("cliquelist.unattributed_ms", "ms"),
    ("congest.clusters", "count"),
    ("congest.cluster_edges", "count"),
    ("congest.bad_edges", "count"),
    ("congest.max_learned_words", "words"),
    ("congest.list_iterations", "count"),
    ("congest.arb_iterations", "count"),
    // stream.
    ("graph.index_build_ms", "ms"),
    ("graph.count_seq_ms", "ms"),
    ("graph.count_par_ms", "ms"),
    ("graph.ordered_par_ms", "ms"),
    ("graph.replay_ms", "ms"),
    ("graph.par_speedup", "x"),
    ("stream.engine_overhead_ms", "ms"),
    ("stream.threads_used", "count"),
    ("stream.max_send", "words"),
    ("stream.max_recv", "words"),
    ("stream.cliques_emitted", "count"),
    // query.
    ("query.snapshot_build_ms", "ms"),
    ("query.vertex_ms", "ms"),
    ("query.edge_ms", "ms"),
    ("query.first_k_ms", "ms"),
    ("query.exists_ms", "ms"),
    ("query.hit_ms", "ms"),
    ("query.vertex_hub_ms", "ms"),
    ("index.vertex_direct_ms", "ms"),
    ("query.cache_hit_ratio", "ratio"),
    ("query.cache_entries", "count"),
    // churn.
    ("churn.apply_batch_ms", "ms"),
    ("churn.graph_apply_ms", "ms"),
    ("churn.index_patch_ms", "ms"),
    ("churn.delta_ms", "ms"),
    ("churn.rebuild_ms", "ms"),
    ("churn.noop_ops", "count"),
    ("churn.incremental_ops", "count"),
    ("churn.rows_reused_ratio", "ratio"),
    ("churn.created", "count"),
    ("churn.destroyed", "count"),
];

/// Fills `list` from `values`, reading 0 for names without a value.
///
/// # Errors
///
/// Names a value that is not in `list`, or is not finite: the result line
/// would break its contract.
pub fn complete(
    list: &[(&'static str, &'static str)],
    values: &[(&'static str, f64)],
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    for (name, value) in values {
        if !list.iter().any(|(known, _)| known == name) {
            return Err(format!("metric {name} is not in the metric list"));
        }
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
    }
    Ok(list
        .iter()
        .map(|&(name, unit)| {
            let value = values
                .iter()
                .rev()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v);
            (name, value, unit)
        })
        .collect())
}

/// The one-line JSON result the benchmark ends with.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0 && attempted > 0
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        for (i, name) in all.iter().enumerate() {
            assert!(!all[..i].contains(name), "{name} listed twice");
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn complete_fills_zeros_and_rejects_unknown_names() {
        let list = &[("a", "ms"), ("b", "count")];
        let filled = complete(list, &[("b", 3.0)]).unwrap();
        assert_eq!(filled, vec![("a", 0.0, "ms"), ("b", 3.0, "count")]);
        assert!(complete(list, &[("c", 1.0)]).is_err());
        assert!(complete(list, &[("a", f64::NAN)]).is_err());
    }

    #[test]
    fn result_line_marks_any_failure_incorrect() {
        let metrics = [("op_p50_ms", 1.25, "ms")];
        let ok = result_line(10, 0, &metrics);
        assert_eq!(
            ok,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"op_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        assert!(result_line(10, 1, &metrics).starts_with("{\"correct\": false"));
        assert!(result_line(0, 0, &metrics).starts_with("{\"correct\": false"));
    }
}
