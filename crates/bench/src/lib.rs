//! Shared infrastructure for the experiment binaries that regenerate the paper's tables and
//! figures (`src/bin/fig*.rs`, `table*.rs`) and for the `perfsnap` snapshot harness
//! ([`perf`]).
//!
//! Every experiment binary prints a plain-text table with the same rows/series as the
//! corresponding paper figure; EXPERIMENTS.md records the paper-vs-measured comparison.

pub mod experiment;
pub mod perf;
pub mod table;

pub use experiment::{
    default_evaluator_settings, default_ribbon_settings, par_map, planner_suite, standard_spec,
    standard_workloads, strategy_suite, ExperimentContext,
};
pub use table::TextTable;
