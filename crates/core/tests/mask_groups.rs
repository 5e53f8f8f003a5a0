//! Preservation questions past one mask group.
//!
//! `Design::verify` packs `[T, S, c_0, c_1, …]` into per-state masks of 64
//! predicates each, so 130 constraints span three groups: `c_0..c_61`
//! share group 0 with `T` and `S`, `c_62..c_125` fill group 1, and
//! `c_126..c_129` start group 2. A closure action that breaks constraints
//! on both sides of each group boundary must be reported for exactly
//! those constraints, in constraint order.

use nonmask::graph::NodePartition;
use nonmask::program::{Domain, Predicate, Program};
use nonmask::{Design, TheoremOutcome};

const BROKEN: [usize; 4] = [0, 63, 64, 129];

/// Two booleans; constraint `c_i` is `x` for `i` in [`BROKEN`] and `y`
/// otherwise, each with its own repair setting its variable to `true`.
/// The one closure action, `flip`, negates `x`, so it breaks exactly the
/// `x` constraints.
fn flip_design(constraints: usize) -> Design {
    let mut b = Program::builder("mask-groups");
    let x = b.var("x", Domain::Bool);
    let y = b.var("y", Domain::Bool);
    b.closure_action(
        "flip",
        [x],
        [x],
        |_| true,
        move |s| s.set_bool(x, !s.get_bool(x)),
    );
    let repairs: Vec<_> = (0..constraints)
        .map(|i| {
            let v = if BROKEN.contains(&i) { x } else { y };
            let action = b.convergence_action(
                format!("fix-{i}"),
                [v],
                [v],
                move |s| !s.get_bool(v),
                move |s| s.set_bool(v, true),
            );
            (
                Predicate::new(format!("c{i}"), [v], move |s| s.get_bool(v)),
                action,
            )
        })
        .collect();
    let mut design =
        Design::builder(b.build()).partition(NodePartition::new().group("x", [x]).group("y", [y]));
    for (i, (pred, action)) in repairs.into_iter().enumerate() {
        design = design.constraint(format!("c{i}"), pred, action);
    }
    design.build().unwrap()
}

#[test]
fn three_groups_report_exactly_the_broken_constraints() {
    let report = flip_design(130).verify().unwrap();
    let TheoremOutcome::NotApplicable { reasons } = &report.theorem else {
        panic!("flip breaks four constraints: {:?}", report.theorem);
    };
    assert_eq!(
        reasons,
        &[
            "action `flip` does not preserve constraint `c0`",
            "action `flip` does not preserve constraint `c63`",
            "action `flip` does not preserve constraint `c64`",
            "action `flip` does not preserve constraint `c129`",
            "constraint graph is self-looping, not an out-tree",
            "no layering supplied; Theorem 3 not attempted",
        ]
    );
    // `flip` is asked about all 130 constraints under `T`. Group 0's `T`
    // sweep ran before the theorem checks, so only groups 1 and 2 miss.
    assert_eq!(report.counters.cache_misses, 2);
    assert_eq!(report.counters.cache_hits, 128);
}
