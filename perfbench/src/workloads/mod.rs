//! The four workloads, one module each.

pub mod churn;
pub mod congest;
pub mod queries;
pub mod stream;

use crate::stats::mean;
use cliquelist::result::phase;
use cliquelist::RunReport;

/// The `rounds.<phase>` per-layer metric of every
/// `cliquelist::result::phase`.
pub const PHASE_METRICS: [(&str, &str); 11] = [
    ("rounds.decomposition", phase::DECOMPOSITION),
    ("rounds.membership-broadcast", phase::MEMBERSHIP),
    ("rounds.heavy-upload", phase::HEAVY_UPLOAD),
    ("rounds.light-probes", phase::LIGHT_PROBES),
    ("rounds.id-assignment", phase::ID_ASSIGNMENT),
    ("rounds.reshuffle", phase::RESHUFFLE),
    ("rounds.partition-broadcast", phase::PARTITION_BROADCAST),
    ("rounds.part-exchange", phase::PART_EXCHANGE),
    ("rounds.light-listing", phase::LIGHT_LISTING),
    ("rounds.final-broadcast", phase::FINAL_BROADCAST),
    ("rounds.retransmit", phase::RETRANSMIT),
];

/// The mean of `f` over `reports` (0 when there are none).
pub fn mean_over(reports: &[&RunReport], f: impl Fn(&RunReport) -> f64) -> f64 {
    mean(&reports.iter().map(|r| f(r)).collect::<Vec<_>>())
}

/// `rounds_per_op` and `rounds.<phase>`: mean rounds per run over `reports`,
/// one report per pool instance, so the means are a pure function of the
/// seed.
pub fn round_metrics(reports: &[&RunReport]) -> Vec<(&'static str, f64)> {
    let mut out = vec![(
        "rounds_per_op",
        mean_over(reports, |r| r.rounds.total() as f64),
    )];
    out.extend(PHASE_METRICS.iter().map(|&(name, phase)| {
        (
            name,
            mean_over(reports, |r| r.rounds.for_phase(phase) as f64),
        )
    }));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_metrics_are_named_after_their_phase() {
        for (name, phase) in PHASE_METRICS {
            assert_eq!(name, format!("rounds.{phase}"));
        }
    }
}
