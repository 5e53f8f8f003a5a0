//! Typed failures of checker passes.

use nonmask_program::{ActionId, Program};

use crate::space::SpaceIndex;

/// An error raised by a checker pass: state-space enumeration, predicate
/// caching, closure, convergence (resident or frontier), bounds,
/// containment, or fault-span computation. It is the checker's one error
/// type; every public entry point returns it.
///
/// The checker evaluates caller-supplied closures — predicates, guards,
/// action bodies — across worker threads. A panic inside one of those
/// closures used to abort the whole process via
/// `.join().expect("checker worker panicked")`; it is now caught (on both
/// the threaded and the single-chunk serial paths) and surfaced as
/// [`CheckError::WorkerFailed`] so a caller embedding the checker
/// survives a poisoned closure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// The program has an unbounded variable; its state space cannot be
    /// enumerated. Bound the variable (e.g. the `mod K` token-ring
    /// refinement) to check it.
    Unbounded {
        /// Name of the unbounded variable.
        var: String,
    },
    /// The state space has more states than a pass can number: `u32` ids
    /// number `u32::MAX + 1` states, and the residual analysis's `u32`
    /// DFS numbering `u32::MAX − 2`.
    TooLarge {
        /// The limit that was exceeded, in states.
        limit: usize,
    },
    /// A build phase would exceed the configured
    /// [`CheckOptions::memory_budget`](crate::CheckOptions::memory_budget).
    /// Raise the budget (or switch convergence-only queries to the
    /// frontier mode) to check larger instances.
    BudgetExceeded {
        /// Resident bytes the tripping phase would need.
        required: u64,
        /// The configured budget in bytes.
        budget: u64,
        /// Which phase tripped: `"columns"` (the footprint tables plus
        /// the per-state columns every resident verification holds: the
        /// `T` and `S` caches and the convergence peel's two bits a
        /// state), `"residual"` (the convergence pass's residual
        /// analysis: its ranks, ids and CSR and its search's column and
        /// stacks, charged as they grow), `"block tables"` (the footprint
        /// tables re-keyed by block, of the predicate caches, the
        /// preservation sweep or the convergence peel),
        /// `"frontier bitsets"` (the frontier mode's predicate, region,
        /// resolved and delta bitsets, and its action tables), or
        /// `"frontier rows"` (those plus one round's row buffer per
        /// worker).
        phase: &'static str,
    },
    /// An action or predicate depends on a variable outside its declared
    /// footprint: a guard or effect reads it, or an effect writes it,
    /// without the action declaring it in its reads or writes, or a
    /// predicate reads it without declaring it. Found by the footprint
    /// tables' audit, which is not exhaustive (see
    /// [`footprint`](crate::footprint)); declare the variable to check the
    /// program.
    UndeclaredVariable {
        /// `"action"` or `"predicate"`.
        kind: &'static str,
        /// The action's or predicate's name.
        name: String,
        /// The undeclared variable's name.
        var: String,
    },
    /// An action wrote a value outside its variable's domain, producing a
    /// successor that is not a state of the space. Domains must be closed
    /// under all actions.
    EscapedDomain {
        /// Name of the offending action.
        action: String,
        /// Name of the variable whose domain was escaped.
        var: String,
    },
    /// A worker panicked while evaluating a caller-supplied closure; the
    /// panic payload is captured instead of aborting the process.
    WorkerFailed {
        /// The panic payload, rendered as a string (non-string payloads
        /// are replaced by a placeholder).
        payload: String,
    },
    /// A containment sweep found a radius that fails to converge after a
    /// smaller radius already converged — the caller's goal family is not
    /// a restriction chain, so "the certified radius" is ill-defined.
    NonMonotoneContainment {
        /// The smaller radius that converged.
        certified: u64,
        /// The larger radius that failed.
        failed: u64,
    },
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::Unbounded { var } => write!(
                f,
                "variable `{var}` is unbounded; state space cannot be enumerated"
            ),
            CheckError::TooLarge { limit } => {
                write!(f, "state space exceeds the limit of {limit} states")
            }
            CheckError::BudgetExceeded {
                required,
                budget,
                phase,
            } => write!(
                f,
                "state space needs {required} resident bytes in the {phase} phase, over the \
                 memory budget of {budget} bytes; raise `CheckOptions::memory_budget` to check it"
            ),
            CheckError::UndeclaredVariable { kind, name, var } => write!(
                f,
                "{kind} `{name}` depends on `{var}`, which it does not declare; \
                 declare every variable it reads or writes"
            ),
            CheckError::EscapedDomain { action, var } => write!(
                f,
                "action `{action}` left the state space (wrote `{var}` outside its domain); \
                 domains must be closed under all actions"
            ),
            CheckError::WorkerFailed { payload } => {
                write!(f, "checker worker panicked: {payload}")
            }
            CheckError::NonMonotoneContainment { certified, failed } => {
                write!(
                    f,
                    "containment goal family is not monotone: radius {certified} converges but radius {failed} does not"
                )
            }
        }
    }
}

impl std::error::Error for CheckError {}

impl CheckError {
    /// The [`CheckError::EscapedDomain`] of `program`'s action `action`
    /// leaving variable `var`'s domain.
    pub(crate) fn escaped(
        program: &Program,
        index: &SpaceIndex,
        action: usize,
        var: usize,
    ) -> Self {
        CheckError::EscapedDomain {
            action: program
                .action(ActionId::from_index(action))
                .name()
                .to_string(),
            var: index.name(var).to_string(),
        }
    }
}

/// Render a caught panic payload as a string for
/// [`CheckError::WorkerFailed`].
pub(crate) fn payload_string(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
