//! Worst-case convergence bounds and variant functions.
//!
//! The paper's concluding remarks connect convergence proofs to *variant
//! functions*: mappings into a well-founded set that never increase and
//! eventually decrease along every computation. This module validates
//! candidate variant functions mechanically and reports the exact
//! worst-case number of moves a program can spend outside its invariant —
//! the quantity the rank argument of Theorem 1 bounds.
//!
//! The bound runs no traversal of its own. It is the largest height
//! of the convergence pass
//! ([`check_convergence_bits`](crate::check_convergence_bits)), which answers
//! both daemons from the same region DFS. That pass reads the
//! resident CSR rows of a [`StateSpace`]. The out-of-core
//! [`check_convergence_frontier_stats`](crate::check_convergence_frontier_stats)
//! gives a convergence *verdict* for instances too large to hold their
//! transition table in memory, but no move counts.

use nonmask_program::{Predicate, Program, State};

use crate::convergence::check_convergence_report;
use crate::error::CheckError;
use crate::options::CheckOptions;
use crate::space::{StateId, StateSpace};

/// The worst-case number of steps an adversarial (unfair) daemon can keep
/// the program inside the region `from ∧ ¬to` before every continuation
/// reaches `to`.
///
/// Returns `None` exactly when the unfair daemon does not converge: the
/// region admits an infinite computation (a cycle or a deadlocked region
/// state), or a step leaves both `from` and `to`. `Some(0)` means the
/// region is empty.
///
/// This is the longest path through the region's transition graph, counting
/// the final exit step.
///
/// ```
/// use nonmask_program::{Domain, Predicate, Program};
/// use nonmask_checker::{worst_case_moves, StateSpace};
///
/// let mut b = Program::builder("down");
/// let x = b.var("x", Domain::range(0, 4));
/// b.convergence_action("dec", [x], [x],
///     move |s| s.get(x) > 0,
///     move |s| { let v = s.get(x); s.set(x, v - 1); });
/// let p = b.build();
/// let space = StateSpace::enumerate(&p)?;
/// let s = Predicate::new("x=0", [x], move |st| st.get(x) == 0);
/// let bound = worst_case_moves(&space, &p, &Predicate::always_true(), &s)?;
/// assert_eq!(bound, Some(4), "x=4 takes four decrements");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Errors
///
/// [`CheckError::WorkerFailed`] if a predicate panics at some state.
pub fn worst_case_moves(
    space: &StateSpace,
    program: &Program,
    from: &Predicate,
    to: &Predicate,
) -> Result<Option<u64>, CheckError> {
    let report = check_convergence_report(space, program, from, to, CheckOptions::default())?;
    Ok(report.worst_case_moves)
}

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
pub fn check_variant(
    space: &StateSpace,
    program: &Program,
    from: &Predicate,
    to: &Predicate,
    f: impl Fn(&State) -> u64,
) -> VariantReport {
    let _ = program;
    let mut local = vec![u32::MAX; space.len()];
    let mut region: Vec<StateId> = Vec::new();
    let mut scratch = space.scratch_state();
    for id in space.ids() {
        space.decode_state(id, &mut scratch);
        if from.holds(&scratch) && !to.holds(&scratch) {
            local[id.index()] = region.len() as u32;
            region.push(id);
        }
    }

    // Non-increase along all transitions leaving region states (whether
    // they stay in the region or exit, the variant must not grow while
    // outside `to`). Build the constant-value internal adjacency as we go.
    let mut succ_scratch = space.scratch_state();
    let mut flat_adj: Vec<Vec<u32>> = vec![Vec::new(); region.len()];
    for (li, &id) in region.iter().enumerate() {
        space.decode_state(id, &mut scratch);
        if space.successor_ids(id).is_empty() {
            return VariantReport::Deadlock {
                state: scratch.clone(),
            };
        }
        let fv = f(&scratch);
        for &t in space.successor_ids(id) {
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
    fn countdown_worst_case_is_max() {
        let p = countdown(7);
        let space = StateSpace::enumerate(&p).unwrap();
        let moves = worst_case_moves(&space, &p, &Predicate::always_true(), &target(&p)).unwrap();
        assert_eq!(moves, Some(7));
    }

    #[test]
    fn empty_region_is_zero_moves() {
        let p = countdown(3);
        let space = StateSpace::enumerate(&p).unwrap();
        let moves = worst_case_moves(&space, &p, &Predicate::always_false(), &target(&p)).unwrap();
        assert_eq!(moves, Some(0));
    }

    #[test]
    fn cycle_has_no_bound() {
        let mut b = Program::builder("cycle");
        let x = b.var("x", Domain::Bool);
        let y = b.var("y", Domain::Bool);
        b.closure_action(
            "toggle",
            [x, y],
            [y],
            move |s| !s.get_bool(x),
            move |s| s.toggle(y),
        );
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let s = Predicate::new("x", [x], move |st| st.get_bool(x));
        assert_eq!(
            worst_case_moves(&space, &p, &Predicate::always_true(), &s).unwrap(),
            None
        );
    }

    #[test]
    fn deadlock_has_no_bound() {
        let mut b = Program::builder("stuck");
        let x = b.var("x", Domain::range(0, 2));
        b.convergence_action("go", [x], [x], move |s| s.get(x) == 1, move |s| s.set(x, 0));
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let s = target(&p);
        assert_eq!(
            worst_case_moves(&space, &p, &Predicate::always_true(), &s).unwrap(),
            None
        );
    }

    #[test]
    fn branching_takes_longest_path() {
        // From x: either jump straight to 0 or step down by 1. Worst case
        // still walks all the way down.
        let mut b = Program::builder("branch");
        let x = b.var("x", Domain::range(0, 5));
        b.convergence_action(
            "jump",
            [x],
            [x],
            move |s| s.get(x) > 0,
            move |s| s.set(x, 0),
        );
        b.convergence_action(
            "step",
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
        assert_eq!(
            worst_case_moves(&space, &p, &Predicate::always_true(), &target(&p)).unwrap(),
            Some(5)
        );
    }

    #[test]
    fn escape_has_no_bound() {
        // T = x<=1, S = x=0, and `jump` leaves T ∪ S from x=1: the unfair
        // verdict is an escape, so no finite bound may stand beside it.
        let mut b = Program::builder("escape");
        let x = b.var("x", Domain::range(0, 2));
        b.closure_action(
            "jump",
            [x],
            [x],
            move |s| s.get(x) == 1,
            move |s| s.set(x, 2),
        );
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let t = Predicate::new("x<=1", [x], move |st| st.get(x) <= 1);
        assert_eq!(worst_case_moves(&space, &p, &t, &target(&p)).unwrap(), None);
    }

    #[test]
    fn parallel_bound_matches_serial() {
        let p = countdown(4999);
        let space = StateSpace::enumerate(&p).unwrap();
        let t = Predicate::always_true();
        let s = target(&p);
        let bound = |opts| {
            check_convergence_report(&space, &p, &t, &s, opts)
                .unwrap()
                .worst_case_moves
        };
        let serial = bound(CheckOptions::serial());
        assert_eq!(serial, Some(4999));
        for threads in [2, 4, 8] {
            assert_eq!(
                serial,
                bound(CheckOptions::default().threads(threads)),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn valid_variant_accepted() {
        let p = countdown(5);
        let space = StateSpace::enumerate(&p).unwrap();
        let r = check_variant(&space, &p, &Predicate::always_true(), &target(&p), |s| {
            s.slots()[0] as u64
        });
        assert_eq!(r, VariantReport::Valid);
    }

    #[test]
    fn increasing_variant_rejected() {
        let p = countdown(5);
        let space = StateSpace::enumerate(&p).unwrap();
        let r = check_variant(&space, &p, &Predicate::always_true(), &target(&p), |s| {
            10 - s.slots()[0] as u64
        });
        assert!(matches!(r, VariantReport::Increases { .. }));
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
        let r = check_variant(&space, &p, &Predicate::always_true(), &s, |_| 1);
        assert!(matches!(r, VariantReport::StuckPlateau { .. }));
    }

    #[test]
    fn deadlocked_variant_rejected() {
        let mut b = Program::builder("stuck");
        let x = b.var("x", Domain::range(0, 2));
        b.convergence_action("go", [x], [x], move |s| s.get(x) == 1, move |s| s.set(x, 0));
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let r = check_variant(&space, &p, &Predicate::always_true(), &target(&p), |s| {
            s.slots()[0] as u64
        });
        assert!(matches!(r, VariantReport::Deadlock { .. }));
    }
}
