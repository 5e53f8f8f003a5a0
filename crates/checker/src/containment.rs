//! Byzantine-containment certification: restricted-region convergence.
//!
//! With Byzantine nodes modelled as unconstrained environment inputs
//! (havoc actions in the program's transition relation), global
//! stabilization is unattainable — the liars never heal. The question
//! shifts to *containment*: for which radius `r` does the sub-space
//! restricted to nodes at distance `> r` from every Byzantine node
//! still converge, from **any** state, under any Byzantine behaviour?
//!
//! [`certify_containment`] answers it by sweeping `r` upward and
//! running the ordinary convergence check ([`crate::convergence`])
//! from `true` into the caller-supplied restricted goal at each
//! radius. Restriction is monotone — growing `r` only drops conjuncts
//! — so the first converging radius is *the* certified containment
//! radius, and everything beyond it converges too (the sweep asserts
//! this rather than assuming it). The enumerated [`StateSpace`] is
//! shared across all radii, so the sweep costs one enumeration plus
//! one region analysis per radius.

use nonmask_obs::Journal;
use nonmask_program::{Predicate, Program};

use crate::convergence::{check_convergence_stats, ConvergenceResult, Fairness};
use crate::error::CheckError;
use crate::options::CheckOptions;
use crate::space::StateSpace;

/// The outcome of a containment sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContainmentVerdict {
    /// The least radius whose restricted goal converges, if any radius
    /// up to the sweep bound does.
    pub radius: Option<u64>,
    /// Every radius examined, in order, with its convergence verdict.
    /// Once the first radius converges the remaining radii are still
    /// checked (they must also converge, by monotonicity of
    /// restriction) so a non-monotone goal family is caught loudly.
    pub verdicts: Vec<(u64, bool)>,
}

impl ContainmentVerdict {
    /// Whether any examined radius converged.
    pub fn contained(&self) -> bool {
        self.radius.is_some()
    }
}

/// Certify the containment radius of `program` (typically one with
/// havoc actions standing in for Byzantine nodes): sweep
/// `r = 0..=max_radius`, checking convergence from every state into
/// `goal_at(r)` under `fairness`, and report the least converging
/// radius.
///
/// # Errors
///
/// Propagates [`CheckError`]s from the underlying convergence passes,
/// and reports a non-monotone goal family (a radius that fails after a
/// smaller one converged) as [`CheckError::NonMonotoneContainment`].
pub fn certify_containment(
    space: &StateSpace,
    program: &Program,
    goal_at: impl Fn(u64) -> Predicate,
    max_radius: u64,
    fairness: Fairness,
    opts: CheckOptions,
) -> Result<ContainmentVerdict, CheckError> {
    let from = Predicate::always_true();
    let mut verdicts = Vec::new();
    let mut radius = None;
    for r in 0..=max_radius {
        let goal = goal_at(r);
        let (result, _) = check_convergence_stats(
            space,
            program,
            &from,
            &goal,
            fairness,
            opts,
            &Journal::disabled(),
        )?;
        let converges = matches!(result, ConvergenceResult::Converges);
        if converges && radius.is_none() {
            radius = Some(r);
        }
        if let (false, Some(certified)) = (converges, radius) {
            return Err(CheckError::NonMonotoneContainment {
                certified,
                failed: r,
            });
        }
        verdicts.push((r, converges));
    }
    Ok(ContainmentVerdict { radius, verdicts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonmask_program::{Domain, ProcessId, VarId};

    /// A hand-built min+1 line `0 - 1 - 2 - 3` with the root at 0 and a
    /// havocked liar at 3. Legitimate distances through correct nodes
    /// are `[0, 1, 2]`; distances to the liar are `[3, 2, 1]`. Node 2
    /// is closer to the liar than to the root (`2 > 1`), so it can be
    /// dragged to 2's lie-fixpoint forever — the true containment
    /// radius is node 2's distance to the liar: 1.
    fn line_with_liar() -> (Program, Vec<VarId>) {
        let cap = 4i64;
        let mut b = Program::builder("minplus1-line-liar");
        let d: Vec<VarId> = (0..4)
            .map(|j| b.var_of(format!("d.{j}"), Domain::range(0, cap), ProcessId(j)))
            .collect();
        let d0 = d[0];
        b.convergence_action(
            "anchor@0",
            [d0],
            [d0],
            move |s| s.get(d0) != 0,
            move |s| s.set(d0, 0),
        );
        for j in [1usize, 2] {
            let (dj, dl, dr) = (d[j], d[j - 1], d[j + 1]);
            b.convergence_action(
                format!("minplus1@{j}"),
                [dj, dl, dr],
                [dj],
                move |s| s.get(dj) != (s.get(dl).min(s.get(dr)) + 1).min(cap),
                move |s| {
                    let t = (s.get(dl).min(s.get(dr)) + 1).min(cap);
                    s.set(dj, t);
                },
            );
        }
        let d3 = d[3];
        for v in 0..=cap {
            b.closure_action(
                format!("lie@3={v}"),
                [d3],
                [d3],
                move |s| s.get(d3) != v,
                move |s| s.set(d3, v),
            );
        }
        (b.build(), d)
    }

    /// The pins of every correct node at distance `> r` from the liar.
    fn goal_at(d: &[VarId], r: u64) -> Predicate {
        let legit = [0i64, 1, 2];
        let to_liar = [3u64, 2, 1];
        let pins: Vec<(VarId, i64)> = (0..3)
            .filter(|&v| to_liar[v] > r)
            .map(|v| (d[v], legit[v]))
            .collect();
        let reads: Vec<VarId> = pins.iter().map(|&(v, _)| v).collect();
        Predicate::new(format!("contained@r={r}"), reads, move |s| {
            pins.iter().all(|&(v, l)| s.get(v) == l)
        })
    }

    #[test]
    fn line_certifies_the_predicted_radius() {
        let (program, d) = line_with_liar();
        let space = StateSpace::enumerate(&program).unwrap();
        let verdict = certify_containment(
            &space,
            &program,
            |r| goal_at(&d, r),
            3,
            Fairness::WeaklyFair,
            CheckOptions::default(),
        )
        .unwrap();
        assert_eq!(verdict.radius, Some(1));
        assert_eq!(
            verdict.verdicts,
            vec![(0, false), (1, true), (2, true), (3, true)]
        );
    }

    #[test]
    fn non_monotone_family_is_rejected() {
        let (program, d) = line_with_liar();
        let space = StateSpace::enumerate(&program).unwrap();
        // Deliberately swap the family: the easy goal first, the
        // impossible radius-0 goal after it.
        let err = certify_containment(
            &space,
            &program,
            |r| goal_at(&d, if r == 0 { 2 } else { 0 }),
            1,
            Fairness::WeaklyFair,
            CheckOptions::default(),
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                CheckError::NonMonotoneContainment {
                    certified: 0,
                    failed: 1
                }
            ),
            "{err}"
        );
    }
}
