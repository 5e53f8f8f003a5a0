//! Constraint-guided synthesis of convergence actions — the paper's
//! design method run *forward*, mechanically.
//!
//! The paper's recipe for nonmasking fault-tolerance is: decompose the
//! goal predicate `S` into constraints `c.1 … c.k`, then *design* one
//! convergence action per constraint such that the constraint graph
//! satisfies Theorem 1, 2, or 3. The rest of this workspace checks
//! hand-written designs; this crate derives the actions **from the
//! decomposition alone**:
//!
//! 1. **Grammar** ([`grammar`]) — enumerate a bounded space of candidate
//!    guarded commands per constraint: guards are `¬c ∧ q` (or
//!    `trigger ∨ (¬c ∧ q)` for merged/combined actions) with `q` drawn
//!    from comparisons over the constraint's variable pairs; effects are
//!    domain-safe repairs (copies, rotations, constants) of the
//!    constraint's writable variables.
//! 2. **Classify** ([`lattice`]) — order the constraints by extension
//!    inclusion. Strict implication chains become the hierarchical
//!    partition of Theorem 3 (e.g. the token ring's `x.(j-1) = x.j`
//!    constraints sit strictly above the `x.(j-1) ≥ x.j` layer).
//! 3. **Prune** ([`search`]) — one
//!    [`attribute_constraints`](nonmask_checker::attribute_constraints)
//!    sweep over a *pooled* state space (base program + every candidate)
//!    hard-prunes candidates that do not repair their constraint, exit
//!    the goal, or break a strictly lower layer.
//! 4. **Certify** — each survivor runs a per-candidate oracle battery
//!    (guard coverage of the required repair region, goal preservation,
//!    lower-layer preservation under the Theorem 3 assumption),
//!    distributed over worker threads with
//!    [`steal_tasks`](nonmask_checker::steal_tasks); verdicts are
//!    bit-identical for every thread count and chunk size.
//! 5. **Select & verify** — the cheapest certified candidate per
//!    constraint (fewest *extra* enabled states beyond the required
//!    region, then lowest grammar index) is assembled into a
//!    [`Design`](nonmask::Design) and re-verified end to end; the result
//!    carries the checker's [`ToleranceReport`](nonmask::ToleranceReport)
//!    as its certificate.
//!
//! The synthesizer re-derives the paper's hand-written token-ring and
//! diffusing-computation repairs from their decompositions, and produces
//! a certified recoloring action for proper tree coloring — see
//! [`specs`] and the crate's integration tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod grammar;
pub mod lattice;
pub mod search;
pub mod specs;

pub use grammar::{Candidate, SynthConstraint, SynthSpec};
pub use lattice::{classify, ImplicationLattice};
pub use search::{synthesize, ChosenAction, SynthMetrics, SynthOptions, SynthResult};

use nonmask::DesignError;
use nonmask_checker::CheckError;
use nonmask_graph::LayeringError;
use nonmask_lang::LangError;

/// Errors from synthesis.
#[derive(Debug)]
pub enum SynthError {
    /// The spec's expressions failed to compile against its program.
    Lang(LangError),
    /// Enumerating the pooled state space (e.g. budget exceeded) or a
    /// checker sweep failed.
    Check(CheckError),
    /// Assembling the winning design failed.
    Design(DesignError),
    /// The derived hierarchical partition was rejected.
    Layering(LayeringError),
    /// The spec itself is malformed (unknown variable, empty pairs, …).
    BadSpec {
        /// What is wrong with the spec.
        message: String,
    },
    /// No candidate for `constraint` survived pruning and certification.
    NoCertified {
        /// The constraint with an empty certified set.
        constraint: String,
    },
    /// Every assembled candidate combination failed final verification.
    VerifyFailed {
        /// How many combinations were tried.
        attempts: usize,
        /// The last report's summary.
        summary: String,
    },
}

impl std::fmt::Display for SynthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthError::Lang(e) => write!(f, "spec compilation failed: {e}"),
            SynthError::Check(e) => write!(f, "checker sweep failed: {e}"),
            SynthError::Design(e) => write!(f, "design assembly failed: {e}"),
            SynthError::Layering(e) => write!(f, "derived layering rejected: {e}"),
            SynthError::BadSpec { message } => write!(f, "bad spec: {message}"),
            SynthError::NoCertified { constraint } => {
                write!(f, "no certified candidate for constraint `{constraint}`")
            }
            SynthError::VerifyFailed { attempts, summary } => {
                write!(
                    f,
                    "no combination verified after {attempts} attempts: {summary}"
                )
            }
        }
    }
}

impl std::error::Error for SynthError {}

impl From<LangError> for SynthError {
    fn from(e: LangError) -> Self {
        SynthError::Lang(e)
    }
}

impl From<CheckError> for SynthError {
    fn from(e: CheckError) -> Self {
        SynthError::Check(e)
    }
}

impl From<DesignError> for SynthError {
    fn from(e: DesignError) -> Self {
        SynthError::Design(e)
    }
}

impl From<LayeringError> for SynthError {
    fn from(e: LayeringError) -> Self {
        SynthError::Layering(e)
    }
}
