//! Deriving the fault span `T` mechanically — the nonmasking (but not
//! stabilizing) middle of the paper's §3 taxonomy.
//!
//! Faults here can only corrupt the last node's counter of a windowed
//! token ring. The fault span `T` is computed as the reachability closure
//! of `S` under program + fault actions; the result is a strict sandwich
//! `S ⊂ T ⊂ true`, with `T` closed and convergence from `T` back to `S`.
//!
//! ```text
//! cargo run --example fault_span
//! ```

use nonmask_checker::{
    check_convergence, compute_fault_span, is_closed, CheckOptions, Fairness, StateSpace,
};
use nonmask_program::{Action, ActionKind, State};
use nonmask_protocols::token_ring::windowed_design;

fn main() {
    let (design, handles) = windowed_design(3, 3).expect("windowed design");
    let program = design.program();
    let space = StateSpace::enumerate(program).expect("bounded");
    let s = design.invariant();

    // Fault model: the last counter can be overwritten with any value.
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

    println!("program: {} ({} states)", program.name(), space.len());
    println!("fault model: overwrite x.2 with an arbitrary value\n");

    let span = compute_fault_span(&space, &s, &faults).expect("span");
    let t = span.to_predicate(&space, "T");

    println!(
        "|S| = {:>3}   (legitimate states)",
        space.count_satisfying(&s).expect("count")
    );
    println!("|T| = {:>3}   (derived fault span)", span.len());
    println!("|U| = {:>3}   (all states)\n", space.len());

    let t_closed = is_closed(&space, &t).expect("closure").is_none();
    let report =
        check_convergence(&space, program, &t, &s, CheckOptions::default()).expect("convergence");
    let conv = report.verdict(Fairness::WeaklyFair);
    println!("T closed under program actions: {t_closed}");
    println!(
        "every fair computation from T reaches S: {}",
        conv.converges()
    );
    println!(
        "worst-case moves outside S: {:?}\n",
        report.worst_case_moves
    );

    assert!(t_closed && conv.converges());
    let s_count = space.count_satisfying(&s).expect("count");
    assert!(s_count < span.len() && span.len() < space.len());
    println!("S ⊂ T ⊂ true: the program is NONMASKING tolerant to this fault");
    println!("class — not masking (faults are visible), not stabilizing (states");
    println!("outside T are never entered, so tolerance need not cover them).");
}
