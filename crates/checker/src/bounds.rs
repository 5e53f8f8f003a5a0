//! Variant functions.
//!
//! The paper's concluding remarks connect convergence proofs to *variant
//! functions*: mappings into a well-founded set that never increase and
//! eventually decrease along every computation. This module validates
//! candidate variant functions mechanically.
//!
//! The exact worst-case number of moves a program can spend outside its
//! invariant — the quantity the rank argument of Theorem 1 bounds — is not
//! here: it is [`ConvergenceReport::worst_case_moves`], the number of
//! rounds of the convergence pass's peel ([`check_convergence`]), which
//! answers both daemons from the same pass. [`check_variant`] runs a cycle search
//! of its own and shares no code with that pass, so the two can check each
//! other.
//!
//! [`ConvergenceReport::worst_case_moves`]: crate::ConvergenceReport::worst_case_moves
//! [`check_convergence`]: crate::check_convergence

use nonmask_program::{Predicate, State};

use crate::cache::region_states;
use crate::error::CheckError;
use crate::options::catching;
use crate::space::{StateId, StateSpace};

/// The result of validating a candidate variant function over a region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VariantReport {
    /// The function never increases along region transitions and cannot
    /// stay constant forever: it witnesses convergence.
    Valid,
    /// A region transition increased the function.
    Increases {
        /// State before the offending transition.
        before: State,
        /// State after it.
        after: State,
    },
    /// The function is non-increasing but some cycle keeps it constant, so
    /// it does not witness convergence under an unfair daemon.
    StuckPlateau {
        /// A state on the constant-value cycle.
        state: State,
    },
    /// A region state has no enabled action, so "eventually decreases"
    /// fails there.
    Deadlock {
        /// The stuck state.
        state: State,
    },
}

/// Validate a candidate variant function `f` over the region `from ∧ ¬to`:
/// `f` must never increase along any region transition and must not admit a
/// cycle of constant value (together these imply every unfair computation
/// eventually leaves the region).
///
/// # Errors
///
/// [`CheckError::WorkerFailed`] if `from`, `to` or `f` panics.
pub fn check_variant(
    space: &StateSpace,
    from: &Predicate,
    to: &Predicate,
    f: impl Fn(&State) -> u64,
) -> Result<VariantReport, CheckError> {
    let region = region_states(space, from, to)?;
    catching(|| variant_over(space, &region, f))
}

/// [`check_variant`] over its `region`, evaluating `f`.
fn variant_over(
    space: &StateSpace,
    region: &[StateId],
    f: impl Fn(&State) -> u64,
) -> VariantReport {
    let mut local = vec![u32::MAX; space.len()];
    for (li, id) in region.iter().enumerate() {
        local[id.index()] = li as u32;
    }

    // Non-increase along all transitions leaving region states (whether
    // they stay in the region or exit, the variant must not grow while
    // outside `to`). Build the constant-value internal adjacency as we go.
    let mut scratch = space.scratch_state();
    let mut succ_scratch = space.scratch_state();
    let mut flat_adj: Vec<Vec<u32>> = vec![Vec::new(); region.len()];
    let mut rows = space.rows();
    for (li, &id) in region.iter().enumerate() {
        space.decode_state(id, &mut scratch);
        let succs = rows.transitions(id).succs();
        if succs.is_empty() {
            return VariantReport::Deadlock {
                state: scratch.clone(),
            };
        }
        let fv = f(&scratch);
        for &t in succs {
            let tl = local[t.index()];
            if tl != u32::MAX {
                space.decode_state(t, &mut succ_scratch);
                let ftv = f(&succ_scratch);
                if ftv > fv {
                    return VariantReport::Increases {
                        before: scratch.clone(),
                        after: succ_scratch.clone(),
                    };
                }
                if ftv == fv {
                    flat_adj[li].push(tl);
                }
            }
        }
    }

    // A cycle among constant-value internal edges = plateau.
    if let Some(v) = find_cycle_vertex(&flat_adj) {
        return VariantReport::StuckPlateau {
            state: space.state(region[v]),
        };
    }
    VariantReport::Valid
}

/// Return a vertex on some cycle of `adj`, if any (iterative colored DFS).
fn find_cycle_vertex(adj: &[Vec<u32>]) -> Option<usize> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Grey,
        Black,
    }
    let n = adj.len();
    let mut color = vec![Color::White; n];
    for start in 0..n {
        if color[start] != Color::White {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        color[start] = Color::Grey;
        while let Some(&mut (v, ref mut ci)) = stack.last_mut() {
            if *ci < adj[v].len() {
                let w = adj[v][*ci] as usize;
                *ci += 1;
                match color[w] {
                    Color::White => {
                        color[w] = Color::Grey;
                        stack.push((w, 0));
                    }
                    Color::Grey => return Some(w),
                    Color::Black => {}
                }
            } else {
                color[v] = Color::Black;
                stack.pop();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonmask_program::{Domain, Program};

    fn countdown(max: i64) -> Program {
        let mut b = Program::builder("down");
        let x = b.var("x", Domain::range(0, max));
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
        b.build()
    }

    fn target(p: &Program) -> Predicate {
        let x = p.var_by_name("x").unwrap();
        Predicate::new("x=0", [x], move |s| s.get(x) == 0)
    }

    #[test]
    fn valid_variant_accepted() {
        let p = countdown(5);
        let space = StateSpace::enumerate(&p).unwrap();
        let r = check_variant(&space, &Predicate::always_true(), &target(&p), |s| {
            s.slots()[0] as u64
        });
        assert_eq!(r, Ok(VariantReport::Valid));
    }

    #[test]
    fn increasing_variant_rejected() {
        let p = countdown(5);
        let space = StateSpace::enumerate(&p).unwrap();
        let r = check_variant(&space, &Predicate::always_true(), &target(&p), |s| {
            10 - s.slots()[0] as u64
        });
        assert!(matches!(r, Ok(VariantReport::Increases { .. })));
    }

    #[test]
    fn plateau_variant_rejected() {
        // Region cycles while the candidate variant stays constant.
        let mut b = Program::builder("plateau");
        let x = b.var("x", Domain::Bool);
        let y = b.var("y", Domain::Bool);
        b.closure_action(
            "toggle",
            [x, y],
            [y],
            move |s| !s.get_bool(x),
            move |s| s.toggle(y),
        );
        b.convergence_action(
            "exit",
            [x],
            [x],
            move |s| !s.get_bool(x),
            move |s| s.set_bool(x, true),
        );
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let s = Predicate::new("x", [x], move |st| st.get_bool(x));
        let r = check_variant(&space, &Predicate::always_true(), &s, |_| 1);
        assert!(matches!(r, Ok(VariantReport::StuckPlateau { .. })));
    }

    #[test]
    fn deadlocked_variant_rejected() {
        let mut b = Program::builder("stuck");
        let x = b.var("x", Domain::range(0, 2));
        b.convergence_action("go", [x], [x], move |s| s.get(x) == 1, move |s| s.set(x, 0));
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let r = check_variant(&space, &Predicate::always_true(), &target(&p), |s| {
            s.slots()[0] as u64
        });
        assert!(matches!(r, Ok(VariantReport::Deadlock { .. })));
    }

    #[test]
    fn panicking_predicate_is_a_typed_error() {
        let p = countdown(5);
        let space = StateSpace::enumerate(&p).unwrap();
        let x = p.var_by_name("x").unwrap();
        let boom = Predicate::new("boom", [x], move |s| {
            assert!(s.get(x) != 3, "predicate poisoned");
            true
        });
        let r = check_variant(&space, &boom, &target(&p), |s| s.slots()[0] as u64);
        assert!(matches!(r, Err(CheckError::WorkerFailed { .. })), "{r:?}");
    }

    #[test]
    fn panicking_variant_is_a_typed_error() {
        let p = countdown(5);
        let space = StateSpace::enumerate(&p).unwrap();
        let r = check_variant(&space, &Predicate::always_true(), &target(&p), |s| {
            assert!(s.slots()[0] != 3, "variant poisoned");
            s.slots()[0] as u64
        });
        let Err(CheckError::WorkerFailed { payload }) = r else {
            panic!("expected WorkerFailed, got {r:?}");
        };
        assert!(payload.contains("variant poisoned"), "{payload}");
    }
}
