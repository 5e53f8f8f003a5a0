//! Expected convergence time under a uniformly random daemon.
//!
//! The worst-case move count
//! ([`ConvergenceReport::worst_case_moves`](crate::ConvergenceReport::worst_case_moves))
//! bounds an *adversarial* daemon; the expected move count under a
//! *uniformly random* daemon is what simulation actually observes. This module solves
//! the absorbing-Markov-chain equations
//!
//! ```text
//! E[s] = 0                                   if s ∈ S
//! E[s] = 1 + (1/|enabled(s)|) Σ_a E[succ(s, a)]   otherwise
//! ```
//!
//! by Gauss–Seidel value iteration over the region `T ∧ ¬S`.

use nonmask_program::Predicate;

use crate::cache::region_states;
use crate::error::CheckError;
use crate::space::{StateId, StateSpace};

/// The result of an expected-moves analysis.
#[derive(Debug, Clone)]
pub struct ExpectedMoves {
    region: Vec<StateId>,
    values: Vec<f64>,
    converged: bool,
}

impl ExpectedMoves {
    /// Expected moves from the region state with space id `id`, `Some(0.0)`
    /// for states already in `S ∨ ¬T`… or `None` when `id` is outside the
    /// analyzed region (i.e. already converged / out of scope).
    pub fn from_state(&self, id: StateId) -> Option<f64> {
        self.region.binary_search(&id).ok().map(|i| self.values[i])
    }

    /// The maximum expected moves over the region (`0.0` if empty).
    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }

    /// The mean expected moves over the region (`0.0` if empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Whether value iteration converged (it fails to when some region
    /// state cannot reach `S` at all, e.g. a deadlock or inescapable
    /// cycle — the expectation is infinite there).
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Number of region states analyzed.
    pub fn region_len(&self) -> usize {
        self.region.len()
    }
}

/// Solve for the expected number of moves to reach `to` from every state
/// of `from ∧ ¬to`, under the uniformly random daemon.
///
/// `tolerance` is the Gauss–Seidel stopping threshold (e.g. `1e-9`);
/// `max_sweeps` caps the iteration count.
///
/// # Errors
///
/// [`CheckError::WorkerFailed`] if `from` or `to` panics.
pub fn expected_moves(
    space: &StateSpace,
    from: &Predicate,
    to: &Predicate,
    tolerance: f64,
    max_sweeps: u32,
) -> Result<ExpectedMoves, CheckError> {
    let region = region_states(space, from, to)?;
    let mut local = vec![usize::MAX; space.len()];
    for (li, id) in region.iter().enumerate() {
        local[id.index()] = li;
    }
    let n = region.len();
    let mut values = vec![0.0f64; n];
    if n == 0 {
        return Ok(ExpectedMoves {
            region,
            values,
            converged: true,
        });
    }

    // Precompute successor lists in region-local terms: Some(j) = region
    // state j, None = absorbed (reached `to` or left `from`).
    let mut rows = space.rows();
    let succs: Vec<Vec<Option<usize>>> = region
        .iter()
        .map(|&id| {
            rows.transitions(id)
                .succs()
                .iter()
                .map(|&t| {
                    let li = local[t.index()];
                    (li != usize::MAX).then_some(li)
                })
                .collect()
        })
        .collect();

    let mut converged = false;
    for _ in 0..max_sweeps {
        let mut delta: f64 = 0.0;
        for i in 0..n {
            if succs[i].is_empty() {
                // Deadlock outside S: infinite expectation; iteration
                // cannot converge.
                if !values[i].is_infinite() {
                    values[i] = f64::INFINITY;
                    delta = f64::INFINITY;
                }
                continue;
            }
            let mean: f64 = succs[i]
                .iter()
                .map(|s| s.map_or(0.0, |j| values[j]))
                .sum::<f64>()
                / succs[i].len() as f64;
            let next = 1.0 + mean;
            delta = delta.max((next - values[i]).abs());
            values[i] = next;
        }
        if delta < tolerance {
            converged = true;
            break;
        }
        if values.iter().any(|v| v.is_infinite()) {
            break;
        }
    }

    Ok(ExpectedMoves {
        region,
        values,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonmask_program::{Domain, Program};

    #[test]
    fn deterministic_chain_has_exact_expectation() {
        // One enabled action per state: expectation = distance.
        let mut b = Program::builder("down");
        let x = b.var("x", Domain::range(0, 5));
        b.convergence_action(
            "dec",
            [x],
            [x],
            move |s| s.get(x) > 0,
            move |s| {
                let v = s.get(x);
                s.set(x, v - 1);
            },
        );
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let s = Predicate::new("x=0", [x], move |st| st.get(x) == 0);
        let em = expected_moves(&space, &Predicate::always_true(), &s, 1e-12, 10_000).unwrap();
        assert!(em.converged());
        assert_eq!(em.region_len(), 5);
        assert!((em.max() - 5.0).abs() < 1e-9);
        assert!((em.mean() - 3.0).abs() < 1e-9, "mean of 1..=5");
        let id5 = space.id_of(&p.state_from([5]).unwrap()).unwrap();
        assert!((em.from_state(id5).unwrap() - 5.0).abs() < 1e-9);
        let id0 = space.id_of(&p.state_from([0]).unwrap()).unwrap();
        assert_eq!(em.from_state(id0), None, "already in S");
    }

    #[test]
    fn coin_flip_walk_expectation() {
        // From x=1: half the time exit (x=0), half the time go to x=2 which
        // deterministically returns to 1. E[1] = 1 + (E[2])/2, E[2] = 1 + E[1]
        // → E[1] = 3, E[2] = 4.
        let mut b = Program::builder("walk");
        let x = b.var("x", Domain::range(0, 2));
        b.convergence_action(
            "exit",
            [x],
            [x],
            move |s| s.get(x) == 1,
            move |s| s.set(x, 0),
        );
        b.convergence_action("up", [x], [x], move |s| s.get(x) == 1, move |s| s.set(x, 2));
        b.convergence_action(
            "down",
            [x],
            [x],
            move |s| s.get(x) == 2,
            move |s| s.set(x, 1),
        );
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let s = Predicate::new("x=0", [x], move |st| st.get(x) == 0);
        let em = expected_moves(&space, &Predicate::always_true(), &s, 1e-12, 100_000).unwrap();
        assert!(em.converged());
        let id1 = space.id_of(&p.state_from([1]).unwrap()).unwrap();
        let id2 = space.id_of(&p.state_from([2]).unwrap()).unwrap();
        assert!((em.from_state(id1).unwrap() - 3.0).abs() < 1e-6);
        assert!((em.from_state(id2).unwrap() - 4.0).abs() < 1e-6);
    }

    #[test]
    fn deadlock_fails_to_converge() {
        let mut b = Program::builder("stuck");
        let x = b.var("x", Domain::range(0, 1));
        let _ = x;
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let s = Predicate::new("x=0", [x], move |st| st.get(x) == 0);
        let em = expected_moves(&space, &Predicate::always_true(), &s, 1e-9, 100).unwrap();
        assert!(!em.converged());
    }

    #[test]
    fn empty_region_is_trivially_converged() {
        let mut b = Program::builder("t");
        b.var("x", Domain::Bool);
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let em = expected_moves(
            &space,
            &Predicate::always_true(),
            &Predicate::always_true(),
            1e-9,
            10,
        )
        .unwrap();
        assert!(em.converged());
        assert_eq!(em.region_len(), 0);
        assert_eq!(em.max(), 0.0);
        assert_eq!(em.mean(), 0.0);
    }

    #[test]
    fn panicking_predicate_is_a_typed_error() {
        let mut b = Program::builder("t");
        let x = b.var("x", Domain::range(0, 3));
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let boom = Predicate::new("boom", [x], move |s| {
            assert!(s.get(x) != 2, "predicate poisoned");
            false
        });
        let r = expected_moves(&space, &Predicate::always_true(), &boom, 1e-9, 10);
        assert!(matches!(r, Err(CheckError::WorkerFailed { .. })), "{r:?}");
    }
}
