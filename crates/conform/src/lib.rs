//! Cross-layer conformance: differential testing of the exhaustive
//! checker against the round-based simulator and the socket runtime.
//!
//! The repository has three independent implementations of the same
//! semantics — the checker's enumerated transition relation
//! (`nonmask-checker`), the round-based simulator (`nonmask-sim`), and
//! the socket runtime (`nonmask-net`). This crate makes their agreement
//! a *checked* property rather than an assumption:
//!
//! - every action an execution layer takes is captured in a
//!   [`nonmask_program::StepLog`] and replayed through the checker's
//!   [`nonmask_checker::StepOracle`] — the state must be enumerable, the
//!   guard enabled, the effect exact ([`check`]);
//! - every step by a constraint's repair action must re-establish that
//!   constraint, and the checker must attribute the repair to it;
//! - once faults stop, the observed stabilization step count must stay
//!   inside the checker's worst-case convergence bound (plus an explicit
//!   granularity slack);
//! - when a run diverges, a deterministic delta-debugging shrinker
//!   ([`shrink`]) minimizes the seeded fault schedule ([`schedule`]) to
//!   a 1-minimal reproducing `(protocol, seed, schedule)` triple.
//!
//! The fixed-seed corpus ([`corpus`]) sweeps the worked protocols of the
//! paper through both layers; `nonmask-run conform` is the CLI entry.

pub mod check;
pub mod containment;
pub mod corpus;
pub mod runner;
pub mod schedule;
pub mod shrink;
pub mod spec;

pub use check::{check_run, Divergence, ProtocolOracle, RunReport};
pub use containment::{radii_agree, ContainmentError, ContainmentMap};
pub use corpus::{
    default_specs, run_corpus, CorpusConfig, CorpusReport, ProtocolResult, RunInput, RunRecord,
};
pub use runner::{run_net, run_sim, NetRunConfig, RunOutcome, SimRunConfig};
pub use schedule::{FaultSchedule, ScheduleEntry};
pub use shrink::{ddmin, shrink_schedule};
pub use spec::ProtocolSpec;
