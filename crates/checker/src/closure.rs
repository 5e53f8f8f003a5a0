//! The preservation oracle and closure checking.
//!
//! "An action of `p` preserves a state predicate `R` iff starting from any
//! state where the action is enabled and `R` holds, executing the action
//! yields a state where `R` holds. A state predicate `R` of `p` is closed
//! iff each action of `p` preserves `R`." (Section 2.)
//!
//! Every check is one scan over the rows of a [`RowSource`] (a `(action,
//! successor)` pair exists exactly when the action is enabled) and over
//! [`Bitset`] predicate caches (each predicate is evaluated once per state,
//! in parallel). Every source, thread count and segment size reports the
//! same violation: the lowest violating action, then its lowest state.

use nonmask_program::{ActionId, Predicate, Program, State};

use crate::cache::Bitset;
use crate::error::CheckError;
use crate::options::{steal_find, steal_tasks, CheckOptions};
use crate::space::{SpaceError, StateId, StateSpace};
use crate::successors::{RowSource, Successors};

/// A witnessed preservation failure: executing `action` at `before` (where
/// the checked predicate held) produced `after` (where it does not).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The violating action.
    pub action: ActionId,
    /// The state before execution (predicate held, guard held).
    pub before: State,
    /// The state after execution (predicate violated).
    pub after: State,
}

impl Violation {
    /// Render the violation against `program` for diagnostics.
    pub fn render(&self, program: &Program) -> String {
        format!(
            "action `{}` violated the predicate: {} -> {}",
            program.action(self.action).name(),
            program.render_state(&self.before),
            program.render_state(&self.after),
        )
    }
}

/// Does `action` preserve `pred`?
///
/// Checks every state of `space` where `pred` and the guard hold; returns
/// the first violation found, or `None` if the action preserves `pred`.
///
/// # Errors
///
/// [`CheckError::WorkerFailed`] if `pred` panics at some state.
pub fn preserves(
    space: &StateSpace,
    program: &Program,
    action: ActionId,
    pred: &Predicate,
) -> Result<Option<Violation>, CheckError> {
    preserves_given(space, program, action, pred, &Predicate::always_true())
}

/// Does `action` preserve `pred` in states where `assuming` also holds?
///
/// This is Theorem 3's conditional preservation: "each closure action of
/// `p` preserves each constraint in that partition *whenever all constraints
/// in lower numbered partitions hold*". Only states satisfying
/// `assuming ∧ pred ∧ guard` are considered.
pub fn preserves_given(
    space: &StateSpace,
    program: &Program,
    action: ActionId,
    pred: &Predicate,
    assuming: &Predicate,
) -> Result<Option<Violation>, CheckError> {
    let _ = program;
    let opts = CheckOptions::default();
    let pred_bits = Bitset::for_predicate(space, pred, opts)?;
    let assuming_bits = Bitset::for_predicate(space, assuming, opts)?;
    preserves_given_bits(space, action, &pred_bits, &assuming_bits, opts)
}

/// [`preserves_given`] over precomputed predicate caches.
///
/// `pred_bits` and `assuming_bits` must be evaluations of the predicates
/// over exactly this `space` (see [`Bitset::for_predicate`]). This is the
/// hot path shared by the closure report, the theorem side conditions, and
/// Theorem 3's layered obligations: one bit test per state and per
/// successor, no predicate evaluation at all.
pub fn preserves_given_bits(
    space: &StateSpace,
    action: ActionId,
    pred_bits: &Bitset,
    assuming_bits: &Bitset,
    opts: CheckOptions,
) -> Result<Option<Violation>, CheckError> {
    first_violation(space, pred_bits, Some(assuming_bits), Some(action), opts)
}

/// Is `pred` closed in `program` (preserved by *every* action)?
///
/// Returns the first violation found, or `None` when `pred` is closed.
/// This discharges the paper's Closure requirement for both the invariant
/// `S` and the fault-span `T`.
pub fn is_closed(
    space: &StateSpace,
    program: &Program,
    pred: &Predicate,
) -> Result<Option<Violation>, CheckError> {
    let _ = program;
    let opts = CheckOptions::default();
    is_closed_bits(space, &Bitset::for_predicate(space, pred, opts)?, opts)
}

/// [`is_closed`] over a precomputed predicate cache, on any row source: a
/// resident [`StateSpace`], a [`SegmentedSpace`](crate::SegmentedSpace)
/// (one built segment per worker, for tables over the memory budget) or a
/// [`Decoder`](crate::Decoder) (no table at all). A `SegmentedSpace` scans
/// with its own worker count, whatever `opts` asks, so its memory budget
/// holds.
///
/// # Errors
///
/// [`CheckError::WorkerFailed`] if a worker panics mid-scan;
/// [`CheckError::Space`] if a segment build exceeds the budget or an
/// action escapes its domain.
pub fn is_closed_bits<R: RowSource>(
    space: &R,
    pred_bits: &Bitset,
    opts: CheckOptions,
) -> Result<Option<Violation>, CheckError> {
    first_violation(space, pred_bits, None, None, opts)
}

/// The one closure scan: among transitions from a state in `pred_bits`
/// (and `assuming`, when given) to a state outside it — by action `only`,
/// when given — the one with the lowest action, then the lowest state.
fn first_violation<R: RowSource>(
    source: &R,
    pred_bits: &Bitset,
    assuming: Option<&Bitset>,
    only: Option<ActionId>,
    opts: CheckOptions,
) -> Result<Option<Violation>, CheckError> {
    let (plan, workers) = source.schedule(opts);
    // Actions `floor..limit` can still beat the best hit so far; a hit by
    // `floor` itself cannot be beaten.
    let (floor, limit) = only.map_or((0, usize::MAX), |a| (a.index(), a.index() + 1));
    let scan = |ti: usize| -> Result<Option<(ActionId, usize, StateId)>, SpaceError> {
        let range = plan.range(ti);
        let mut rows = source.rows(range.clone())?;
        let (mut limit, mut best) = (limit, None);
        for i in range {
            if limit == floor {
                break;
            }
            if !pred_bits.get(i) || assuming.is_some_and(|b| !b.get(i)) {
                continue;
            }
            for (a, succ) in rows.row(StateId::from_index(i))? {
                if (floor..limit).contains(&a.index()) && !pred_bits.contains(succ) {
                    limit = a.index();
                    best = Some((a, i, succ));
                }
            }
        }
        Ok(best)
    };
    let best = if only.is_some() {
        // Every hit is by the one action, so the lowest segment's hit is
        // the witness and later segments need not be scanned.
        steal_find(plan.count(), workers, |ti| scan(ti).transpose())?.transpose()?
    } else {
        // Segments come in id order, so on equal actions the earlier one
        // wins.
        let mut best: Option<(ActionId, usize, StateId)> = None;
        for hit in steal_tasks(plan.count(), workers, scan)? {
            if let Some(h) = hit? {
                if best.is_none_or(|b| h.0 < b.0) {
                    best = Some(h);
                }
            }
        }
        best
    };
    let index = source.index();
    Ok(best.map(|(action, i, succ)| Violation {
        action,
        before: index.state(StateId::from_index(i)),
        after: index.state(succ),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::SegmentedSpace;
    use nonmask_program::Domain;

    /// x, y in 0..=3; action `copy` sets y := x; action `bump` increments x
    /// (wrapping).
    fn program() -> Program {
        let mut b = Program::builder("p");
        let x = b.var("x", Domain::range(0, 3));
        let y = b.var("y", Domain::range(0, 3));
        b.closure_action(
            "copy",
            [x, y],
            [y],
            |_| true,
            move |s| {
                let v = s.get(x);
                s.set(y, v);
            },
        );
        b.closure_action(
            "bump",
            [x],
            [x],
            |_| true,
            move |s| {
                let v = s.get(x);
                s.set(x, (v + 1) % 4);
            },
        );
        b.build()
    }

    #[test]
    fn copy_preserves_equality_bump_does_not() {
        let p = program();
        let x = p.var_by_name("x").unwrap();
        let y = p.var_by_name("y").unwrap();
        let space = StateSpace::enumerate(&p).unwrap();
        let eq = Predicate::new("x=y", [x, y], move |s| s.get(x) == s.get(y));
        let copy = p.action_ids().next().unwrap();
        let bump = p.action_ids().nth(1).unwrap();

        assert!(preserves(&space, &p, copy, &eq).unwrap().is_none());
        let v = preserves(&space, &p, bump, &eq)
            .unwrap()
            .expect("bump breaks x=y");
        assert_eq!(v.action, bump);
        assert!(eq.holds(&v.before));
        assert!(!eq.holds(&v.after));
        assert!(v.render(&p).contains("bump"));
    }

    #[test]
    fn closure_of_trivial_predicates() {
        let p = program();
        let space = StateSpace::enumerate(&p).unwrap();
        assert!(is_closed(&space, &p, &Predicate::always_true())
            .unwrap()
            .is_none());
        // `false` is vacuously closed: it never holds before execution.
        assert!(is_closed(&space, &p, &Predicate::always_false())
            .unwrap()
            .is_none());
    }

    #[test]
    fn is_closed_finds_any_violator() {
        let p = program();
        let x = p.var_by_name("x").unwrap();
        let space = StateSpace::enumerate(&p).unwrap();
        let x0 = Predicate::new("x=0", [x], move |s| s.get(x) == 0);
        let v = is_closed(&space, &p, &x0)
            .unwrap()
            .expect("bump violates x=0");
        assert_eq!(p.action(v.action).name(), "bump");
    }

    #[test]
    fn conditional_preservation() {
        let p = program();
        let x = p.var_by_name("x").unwrap();
        let y = p.var_by_name("y").unwrap();
        let space = StateSpace::enumerate(&p).unwrap();
        let bump = p.action_ids().nth(1).unwrap();

        // bump does not preserve y<=x in general (x wraps 3 -> 0) …
        let le = Predicate::new("y<=x", [x, y], move |s| s.get(y) <= s.get(x));
        assert!(preserves(&space, &p, bump, &le).unwrap().is_some());
        // … but it does when assuming x<3 (no wrap happens).
        let small = Predicate::new("x<3", [x], move |s| s.get(x) < 3);
        assert!(preserves_given(&space, &p, bump, &le, &small)
            .unwrap()
            .is_none());
    }

    #[test]
    fn guard_restriction_matters() {
        // An action whose effect would break the predicate, but whose guard
        // never lets it run in predicate states, preserves the predicate.
        let mut b = Program::builder("g");
        let x = b.var("x", Domain::range(0, 3));
        b.closure_action(
            "wreck",
            [x],
            [x],
            move |s| s.get(x) > 1,
            move |s| s.set(x, 3),
        );
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let small = Predicate::new("x<=1", [x], move |s| s.get(x) <= 1);
        let a = p.action_ids().next().unwrap();
        assert!(preserves(&space, &p, a, &small).unwrap().is_none());
    }

    #[test]
    fn parallel_violation_matches_serial() {
        // A large space with many violations: every worker count must
        // report the sequentially-first witness.
        let mut b = Program::builder("big");
        let x = b.var("x", Domain::range(0, 9999));
        b.closure_action(
            "inc",
            [x],
            [x],
            move |s| s.get(x) < 9999,
            move |s| {
                let v = s.get(x);
                s.set(x, v + 1);
            },
        );
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let a = p.action_ids().next().unwrap();
        // "x is even" is broken at every even x < 9999.
        let even = Predicate::new("even", [x], move |s| s.get(x) % 2 == 0);
        let bits = Bitset::for_predicate(&space, &even, CheckOptions::serial()).unwrap();
        let everywhere = Bitset::ones(space.len());
        let serial = preserves_given_bits(&space, a, &bits, &everywhere, CheckOptions::serial())
            .unwrap()
            .unwrap();
        assert_eq!(serial.before.slots()[0], 0, "lowest-id witness");
        for threads in [2, 4, 8] {
            let par = preserves_given_bits(
                &space,
                a,
                &bits,
                &everywhere,
                CheckOptions::default().threads(threads),
            )
            .unwrap()
            .unwrap();
            assert_eq!(serial, par, "threads={threads}");
        }
    }

    #[test]
    fn segmented_closure_matches_monolithic_verdict() {
        let mut b = Program::builder("big");
        let x = b.var("x", Domain::range(0, 9999));
        b.closure_action(
            "inc",
            [x],
            [x],
            move |s| s.get(x) < 9999,
            move |s| {
                let v = s.get(x);
                s.set(x, v + 1);
            },
        );
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let even = Predicate::new("even", [x], move |s| s.get(x) % 2 == 0);
        let bits = Bitset::for_predicate(&space, &even, CheckOptions::default()).unwrap();
        // Broken at every even x: the segmented sweep must report the
        // lowest-id witness for every thread count and segment size.
        for threads in [1, 2, 8] {
            for seg in [512, 1000] {
                let opts = CheckOptions::default().threads(threads).segment_states(seg);
                let seg_space = SegmentedSpace::new(&p, opts).unwrap();
                let v = is_closed_bits(&seg_space, &bits, opts)
                    .unwrap()
                    .expect("inc breaks evenness");
                assert_eq!(v.before.slots()[0], 0, "threads={threads} seg={seg}");
                assert_eq!(v.after.slots()[0], 1);
            }
        }
        // A closed predicate passes.
        let all = Bitset::ones(space.len());
        let seg_space = SegmentedSpace::new(&p, CheckOptions::default()).unwrap();
        assert!(is_closed_bits(&seg_space, &all, CheckOptions::default())
            .unwrap()
            .is_none());
    }

    #[test]
    fn segmented_closure_keeps_the_space_worker_count() {
        let mut b = Program::builder("big");
        let x = b.var("x", Domain::range(0, 9999));
        b.closure_action(
            "inc",
            [x],
            [x],
            move |s| s.get(x) < 9999,
            move |s| {
                let v = s.get(x);
                s.set(x, v + 1);
            },
        );
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let even = Predicate::new("even", [x], move |s| s.get(x) % 2 == 0);
        let bits = Bitset::for_predicate(&space, &even, CheckOptions::default()).unwrap();
        // A budget that holds one resident segment but not two.
        let serial = CheckOptions::serial().segment_states(1000);
        let one = SegmentedSpace::new(&p, serial).unwrap();
        let segment_bytes = one.build_segment(0).unwrap().resident_bytes();
        let seg_space =
            SegmentedSpace::new(&p, serial.memory_budget(segment_bytes + 4096)).unwrap();
        // Asking for eight threads must not run more segments at once than
        // the budget was checked for.
        let eight = CheckOptions::default().threads(8);
        assert_eq!(seg_space.schedule(eight).1, 1);
        assert_eq!(space.schedule(eight).1, 8);
        let v = is_closed_bits(&seg_space, &bits, eight)
            .unwrap()
            .expect("inc breaks evenness");
        assert_eq!(v.before.slots()[0], 0);
        assert_eq!(v.after.slots()[0], 1);
    }

    #[test]
    fn poisoned_predicate_surfaces_as_worker_failed() {
        // A predicate that panics mid-scan must produce a typed error from
        // the public API, on both the serial and the threaded path.
        let mut b = Program::builder("big");
        let x = b.var("x", Domain::range(0, 9999));
        b.closure_action(
            "inc",
            [x],
            [x],
            move |s| s.get(x) < 9999,
            move |s| {
                let v = s.get(x);
                s.set(x, v + 1);
            },
        );
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let poisoned = Predicate::new("poisoned", [x], move |s| {
            if s.get(x) == 7777 {
                panic!("predicate poisoned at x=7777");
            }
            true
        });
        let err = is_closed(&space, &p, &poisoned).unwrap_err();
        assert!(
            matches!(err, CheckError::WorkerFailed { ref payload }
                if payload.contains("poisoned at x=7777")),
            "got {err:?}"
        );
        // Small spaces run the scan on the calling thread; the panic must
        // still be caught, not unwind through the caller.
        let mut b = Program::builder("small");
        let y = b.var("y", Domain::range(0, 3));
        let small = b.build();
        let small_space = StateSpace::enumerate(&small).unwrap();
        let always_panics = Predicate::new("boom", [y], |_| panic!("always boom"));
        let err = is_closed(&small_space, &small, &always_panics).unwrap_err();
        assert!(matches!(err, CheckError::WorkerFailed { .. }));
    }
}
