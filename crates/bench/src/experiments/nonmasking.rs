//! E11 — genuinely *nonmasking* (non-stabilizing) tolerance with a
//! mechanically derived fault span.
//!
//! Everything up to here verified *stabilizing* designs (`T = true`). The
//! paper's framework is more general: `T` is "the set of states that the
//! program can reach in the presence of faults" (§3). Here the fault model
//! is restricted — only some variables can be corrupted — and `T` is
//! *computed* as the reachability closure of `S` under program + fault
//! actions. The result is a strict sandwich `S ⊂ T ⊂ true`, closure of the
//! derived `T`, and convergence from `T` back to `S`: the textbook
//! nonmasking picture.

use nonmask_checker::{
    check_convergence, compute_fault_span, is_closed, CheckOptions, Fairness, StateSpace,
};
use nonmask_program::{Action, ActionKind, State};
use nonmask_protocols::diffusing::{DiffusingComputation, RED};
use nonmask_protocols::token_ring::windowed_design;
use nonmask_protocols::Tree;

use crate::table::Table;

fn yn(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "no"
    }
}

/// E11 — see the module docs.
pub fn e11() -> String {
    let mut t = Table::new(
        "E11: derived fault spans — nonmasking (non-stabilizing) tolerance",
        [
            "protocol / fault model",
            "|S|",
            "|T| (derived)",
            "|states|",
            "T closed",
            "conv T->S",
            "worst moves from T",
        ],
    );

    // Windowed token ring; faults corrupt only the LAST node's counter.
    {
        let (design, handles) = windowed_design(3, 3).expect("windowed");
        let program = design.program();
        let space = StateSpace::enumerate(program).expect("bounded");
        let s = design.invariant();
        let last = handles.x[2];
        let faults: Vec<Action> = (0..=3)
            .map(|v| {
                Action::new(
                    format!("fault: x.2 := {v}"),
                    ActionKind::Closure,
                    [last],
                    [last],
                    |_: &State| true,
                    move |st: &mut State| st.set(last, v),
                )
            })
            .collect();
        let span = compute_fault_span(&space, &s, &faults).expect("span");
        let t_pred = span.to_predicate(&space, "T");
        let closed = is_closed(&space, &t_pred).expect("closure").is_none();
        let conv = check_convergence(&space, program, &t_pred, &s, CheckOptions::default())
            .expect("convergence");
        t.row([
            "windowed ring n=3 / corrupt x.2 only".to_string(),
            space.count_satisfying(&s).expect("count").to_string(),
            span.len().to_string(),
            space.len().to_string(),
            yn(closed).to_string(),
            yn(conv.weakly_fair.converges()).to_string(),
            conv.worst_case_moves.map_or("∞".into(), |m| m.to_string()),
        ]);
    }

    // Diffusing computation; faults corrupt only leaf colors.
    {
        let tree = Tree::binary(5);
        let dc = DiffusingComputation::new(&tree);
        let space = StateSpace::enumerate(dc.program()).expect("bounded");
        let s = dc.invariant();
        let mut faults = Vec::new();
        for j in 0..tree.len() {
            if tree.is_leaf(j) {
                let c = dc.color_var(j);
                faults.push(Action::new(
                    format!("fault: redden leaf {j}"),
                    ActionKind::Closure,
                    [c],
                    [c],
                    |_: &State| true,
                    move |st: &mut State| st.set(c, RED),
                ));
            }
        }
        let span = compute_fault_span(&space, &s, &faults).expect("span");
        let t_pred = span.to_predicate(&space, "T");
        let closed = is_closed(&space, &t_pred).expect("closure").is_none();
        let conv = check_convergence(&space, dc.program(), &t_pred, &s, CheckOptions::default())
            .expect("convergence");
        t.row([
            "diffusing binary-5 / redden leaves".to_string(),
            space.count_satisfying(&s).expect("count").to_string(),
            span.len().to_string(),
            space.len().to_string(),
            yn(closed).to_string(),
            yn(conv.weakly_fair.converges()).to_string(),
            conv.worst_case_moves.map_or("∞".into(), |m| m.to_string()),
        ]);
    }

    let mut out = t.render();
    out.push_str(
        "\nBoth rows exhibit S ⊂ T ⊂ true: tolerance is nonmasking but not\nstabilizing — exactly the §3 taxonomy between masking (S = T) and\nstabilizing (T = true).\n",
    );
    out
}

/// A reusable sandwich check for tests: returns `(|S|, |T|, |states|)` for
/// the windowed-ring row.
pub fn ring_sandwich() -> (usize, usize, usize) {
    let (design, handles) = windowed_design(3, 3).expect("windowed");
    let program = design.program();
    let space = StateSpace::enumerate(program).expect("bounded");
    let s = design.invariant();
    let last = handles.x[2];
    let faults: Vec<Action> = (0..=3)
        .map(|v| {
            Action::new(
                format!("fault: x.2 := {v}"),
                ActionKind::Closure,
                [last],
                [last],
                |_: &State| true,
                move |st: &mut State| st.set(last, v),
            )
        })
        .collect();
    let span = compute_fault_span(&space, &s, &faults).expect("span");
    (
        space.count_satisfying(&s).expect("count"),
        span.len(),
        space.len(),
    )
}

/// The same check exposed as a [`nonmask_program::Predicate`]-level helper
/// used by tests.
pub fn ring_span_is_closed() -> bool {
    let (design, handles) = windowed_design(3, 3).expect("windowed");
    let program = design.program();
    let space = StateSpace::enumerate(program).expect("bounded");
    let s = design.invariant();
    let last = handles.x[2];
    let faults: Vec<Action> = (0..=3)
        .map(|v| {
            Action::new(
                "fault",
                ActionKind::Closure,
                [last],
                [last],
                |_: &State| true,
                move |st: &mut State| st.set(last, v),
            )
        })
        .collect();
    let span = compute_fault_span(&space, &s, &faults).expect("span");
    let t_pred = span.to_predicate(&space, "T");
    is_closed(&space, &t_pred).expect("closure").is_none()
        && check_convergence(&space, program, &t_pred, &s, CheckOptions::default())
            .expect("convergence")
            .verdict(Fairness::WeaklyFair)
            .converges()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sandwich_is_strict() {
        let (s, t, total) = ring_sandwich();
        assert!(s < t, "S strictly inside T");
        assert!(t < total, "T strictly inside the state space");
    }

    #[test]
    fn derived_span_is_closed_and_convergent() {
        assert!(ring_span_is_closed());
    }
}
