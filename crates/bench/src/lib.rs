//! Shared helpers for the benchmark and experiment harness.
//!
//! The actual experiments live in the `experiments` binary (one subcommand per
//! experiment id from `DESIGN.md` §4). This library provides the pieces it
//! shares with the tests and the end-to-end benchmark: standard workloads,
//! log–log exponent fitting, plain-text table rendering, and the resumable
//! experiment harness (`json` / `store` / `sweep` / `sweeps` / `trajectory`)
//! behind `experiments -- perf --resume`, `report` and `check`. JSON values
//! are [`graphcore::Json`]; `json` adds only the parser.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fit;
pub mod json;
pub mod store;
pub mod sweep;
pub mod sweeps;
pub mod table;
pub mod trajectory;
pub mod workloads;

pub use fit::{fit_exponent, FitResult};
pub use json::Json;
pub use store::{git_rev, CellRecord, CellSpec, ResultStore};
pub use sweep::{run_sweep, Interrupted, Sweep, SweepOutcome};
pub use table::Table;
pub use workloads::{core_periphery_workload, listing_workload, two_communities, ListingWorkload};
