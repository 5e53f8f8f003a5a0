//! Typed failures of checker passes.

use crate::space::SpaceError;

/// An error raised by a checker pass (predicate caching, closure,
/// convergence, bounds, fault-span computation).
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
    /// A row source failed mid-sweep: an action wrote outside its
    /// domain.
    Space(SpaceError),
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::WorkerFailed { payload } => {
                write!(f, "checker worker panicked: {payload}")
            }
            CheckError::NonMonotoneContainment { certified, failed } => {
                write!(
                    f,
                    "containment goal family is not monotone: radius {certified} converges but radius {failed} does not"
                )
            }
            CheckError::Space(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CheckError {}

impl From<SpaceError> for CheckError {
    fn from(e: SpaceError) -> Self {
        match e {
            SpaceError::WorkerFailed { payload } => CheckError::WorkerFailed { payload },
            other => CheckError::Space(other),
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
