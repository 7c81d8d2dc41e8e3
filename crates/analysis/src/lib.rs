//! `ix-analysis`: the workspace's own static analysis and concurrency
//! checking toolkit.
//!
//! Two halves:
//!
//! - [`rules`]: a lint pass built on a hand-rolled lexer ([`lexer`]), a
//!   lightweight workspace scanner ([`workspace`]), and a conservative
//!   whole-workspace call graph ([`callgraph`]). The rules encode
//!   repo-specific contracts — justified atomic orderings, the global
//!   lock-acquisition order, panic-free hot paths, exhaustive event
//!   matches, and a transitive determinism-taint pass from the engine's
//!   entry points — that `rustc` and `clippy` cannot express.
//! - [`sched`]: a bounded-interleaving model checker (mini-loom) with
//!   models of the engine's work-stealing cursor and telemetry registry,
//!   explored exhaustively up to a preemption bound.
//!
//! The `ix-analysis` binary fronts both: `check` runs the lint pass over
//! the workspace, `sched` runs the interleaving models, `rules` prints the
//! catalog. CI gates on all of them.

#![warn(missing_docs)]

pub mod callgraph;
pub mod lexer;
pub mod rules;
pub mod sched;
pub mod workspace;
