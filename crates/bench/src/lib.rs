//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (see DESIGN.md's experiment index and EXPERIMENTS.md for the
//! measured results).
//!
//! The heavy lifting lives in [`runner`] — one variants × apps
//! [`Sweep`](runner::Sweep) every experiment runs its cells through; the
//! `experiments` binary exposes one subcommand per table/figure and prints
//! rows shaped like the paper's plots. The repo's own speed is measured by
//! the separate `benchmark/` package (see `BENCHMARK.json`), which drives
//! the same entry points.

#![warn(missing_docs)]

pub mod runner;
