//! Verification reports.

use std::time::Duration;

use nonmask_checker::{CheckCounters, ConvergenceResult, Violation};
use nonmask_graph::{EdgeId, NodeId, Shape};

/// Outcome of the closure checks (the Closure requirement of Section 3).
#[derive(Debug, Clone)]
pub struct ClosureReport {
    /// Violation of `S`-closure, if any.
    pub invariant: Option<Violation>,
    /// Violation of `T`-closure, if any.
    pub fault_span: Option<Violation>,
    /// Per constraint: a state in `T ∧ ¬c` where the paired convergence
    /// action is *not* enabled (the action fails to "independently check"
    /// its constraint), if any.
    pub unguarded_constraints: Vec<(usize, nonmask_program::State)>,
    /// Per constraint: a violation of "the convergence action establishes
    /// its constraint" (executing from `T ∧ guard` must yield `c`), if any.
    pub non_establishing: Vec<(usize, Violation)>,
}

impl ClosureReport {
    /// Whether every closure obligation holds.
    pub fn ok(&self) -> bool {
        self.invariant.is_none()
            && self.fault_span.is_none()
            && self.unguarded_constraints.is_empty()
            && self.non_establishing.is_empty()
    }
}

/// Which of the paper's sufficient conditions the design satisfies.
#[derive(Debug, Clone)]
pub enum TheoremOutcome {
    /// Theorem 1: out-tree constraint graph, closure actions preserve every
    /// constraint. `ranks[i]` is the rank of graph node `i`.
    Theorem1 {
        /// Node ranks per the proof of Theorem 1.
        ranks: Vec<u32>,
    },
    /// Theorem 2: self-looping constraint graph with a linear preservation
    /// order of the convergence actions targeting each node.
    Theorem2 {
        /// The witnessing order per node.
        orders: Vec<(NodeId, Vec<EdgeId>)>,
    },
    /// Theorem 3: hierarchical partition; per layer, a self-looping graph
    /// with per-node linear orders, and all lower layers preserved above.
    Theorem3 {
        /// Number of layers in the witnessing partition.
        layers: usize,
    },
    /// No sufficient condition applies; the reasons list what failed.
    /// (The design may still be tolerant — the model-check result in
    /// [`ToleranceReport::convergence`] is authoritative.)
    NotApplicable {
        /// Human-readable reasons each theorem's side conditions failed.
        reasons: Vec<String>,
    },
}

impl TheoremOutcome {
    /// Whether some theorem's sufficient conditions hold.
    pub fn applies(&self) -> bool {
        !matches!(self, TheoremOutcome::NotApplicable { .. })
    }

    /// Short display name, e.g. `"Theorem 1"`.
    pub fn name(&self) -> &'static str {
        match self {
            TheoremOutcome::Theorem1 { .. } => "Theorem 1",
            TheoremOutcome::Theorem2 { .. } => "Theorem 2",
            TheoremOutcome::Theorem3 { .. } => "Theorem 3",
            TheoremOutcome::NotApplicable { .. } => "none",
        }
    }
}

/// The full verdict of [`crate::Design::verify`]: the paper's method-level
/// conditions *and* the ground-truth model check.
#[derive(Debug, Clone)]
pub struct ToleranceReport {
    /// The constraint graph's shape.
    pub shape: Shape,
    /// Closure obligations.
    pub closure: ClosureReport,
    /// Which theorem's sufficient conditions hold (method-level).
    pub theorem: TheoremOutcome,
    /// Ground truth: convergence from `T` to `S` under the paper's weakly
    /// fair daemon.
    pub convergence: ConvergenceResult,
    /// Convergence under an unfair daemon (Section 8 remarks the derived
    /// programs need no fairness; this field checks that claim).
    pub convergence_unfair: ConvergenceResult,
    /// Worst-case number of moves outside `S` before convergence: `Some`
    /// exactly when [`ToleranceReport::convergence_unfair`] is
    /// `Converges`, `None` otherwise (a cycle, a deadlock, or an escape
    /// from `T`).
    pub worst_case_moves: Option<u64>,
    /// Number of states in `S`, in `T`, and in total (diagnostics).
    pub state_counts: StateCounts,
    /// Per-pass work counters (how much state space the verdict rests
    /// on). Implements [`nonmask_obs::CounterSet`](CheckCounters), so
    /// `report.counters.emit(&journal)` journals every field.
    pub counters: CheckCounters,
    /// Wall-clock time spent in each verification phase.
    pub timings: VerifyTimings,
}

/// Wall-clock breakdown of a [`crate::Design::verify`] run (diagnostics;
/// the values depend on [`crate::CheckOptions::threads`], nothing else in
/// the report does).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyTimings {
    /// Enumerating the state space (`None` when a pre-built space was
    /// passed to [`crate::Design::verify_with`]).
    pub enumerate: Option<Duration>,
    /// Evaluating `S`, `T`, and every constraint into per-state bit caches.
    pub predicate_eval: Duration,
    /// The closure obligations (part 1 of the report).
    pub closure: Duration,
    /// The theorem side conditions (part 2).
    pub theorem: Duration,
    /// Ground-truth convergence under both daemons and the worst-case
    /// move bound (part 3): one pass over the region answers all three.
    pub convergence: Duration,
    /// Always zero: the worst-case bound is computed inside the
    /// convergence pass and timed in [`VerifyTimings::convergence`].
    pub bounds: Duration,
    /// Everything above, end to end.
    pub total: Duration,
}

/// State-count diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateCounts {
    /// States satisfying the invariant `S`.
    pub invariant: usize,
    /// States satisfying the fault span `T`.
    pub fault_span: usize,
    /// All states.
    pub total: usize,
}

impl ToleranceReport {
    /// The definition of `T`-tolerance for `S`: closure holds and every
    /// (weakly fair) computation from `T` converges to `S`.
    pub fn is_tolerant(&self) -> bool {
        self.closure.invariant.is_none()
            && self.closure.fault_span.is_none()
            && self.convergence.converges()
    }

    /// Whether the design is *stabilizing*: tolerant with `T` covering the
    /// whole state space.
    pub fn is_stabilizing(&self) -> bool {
        self.is_tolerant() && self.state_counts.fault_span == self.state_counts.total
    }

    /// One-paragraph human-readable summary.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "constraint graph: {} | theorem: {} | closure: {} | convergence (fair): {} | convergence (unfair): {}",
            self.shape,
            self.theorem.name(),
            if self.closure.ok() { "ok" } else { "VIOLATED" },
            if self.convergence.converges() { "ok" } else { "FAILS" },
            if self.convergence_unfair.converges() { "ok" } else { "fails" },
        ));
        if let Some(m) = self.worst_case_moves {
            out.push_str(&format!(" | worst-case moves: {m}"));
        }
        out.push_str(&format!(
            " | |S|={} |T|={} |states|={}",
            self.state_counts.invariant, self.state_counts.fault_span, self.state_counts.total
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem_outcome_names() {
        assert_eq!(
            TheoremOutcome::Theorem1 { ranks: vec![] }.name(),
            "Theorem 1"
        );
        assert_eq!(
            TheoremOutcome::Theorem2 { orders: vec![] }.name(),
            "Theorem 2"
        );
        assert_eq!(TheoremOutcome::Theorem3 { layers: 2 }.name(), "Theorem 3");
        let na = TheoremOutcome::NotApplicable { reasons: vec![] };
        assert_eq!(na.name(), "none");
        assert!(!na.applies());
        assert!(TheoremOutcome::Theorem3 { layers: 2 }.applies());
    }

    #[test]
    fn closure_report_ok() {
        let r = ClosureReport {
            invariant: None,
            fault_span: None,
            unguarded_constraints: vec![],
            non_establishing: vec![],
        };
        assert!(r.ok());
    }
}
