//! Theorem 3 with hundreds of layers.
//!
//! Each layer of a layering is its own premise, and the one preservation
//! sweep answers every layer's questions from a state's layer depth. It
//! must tell every layer apart however many there are: a design with
//! more layers than a byte can count still produces a report, that
//! report is the one the per-layer obligations give, and the sweep reads
//! each row once whatever the number of layers.

use nonmask::graph::{ConstraintRef, Layering, NodePartition, Shape};
use nonmask::program::{Domain, Predicate, Program};
use nonmask::{Design, TheoremOutcome};

/// `layers` repairs over two booleans, alternately setting `x` and `y`
/// to `true` after reading both: the constraint graph is the 2-cycle
/// `x ⇄ y`, and each layer holds one constraint.
fn one_constraint_per_layer(layers: usize) -> Design {
    let mut b = Program::builder("many-layers");
    let x = b.var("x", Domain::Bool);
    let y = b.var("y", Domain::Bool);
    let repairs: Vec<_> = (0..layers)
        .map(|i| {
            let target = if i % 2 == 0 { x } else { y };
            let action = b.convergence_action(
                format!("fix-{i}"),
                [x, y],
                [target],
                move |s| !s.get_bool(target),
                move |s| s.set_bool(target, true),
            );
            let pred = Predicate::new(format!("c{i}"), [target], move |s| s.get_bool(target));
            (format!("c{i}"), pred, action)
        })
        .collect();
    let mut design =
        Design::builder(b.build()).partition(NodePartition::new().group("x", [x]).group("y", [y]));
    for (name, pred, action) in repairs {
        design = design.constraint(name, pred, action);
    }
    design
        .layering(Layering::new((0..layers).map(|i| vec![ConstraintRef(i)])).unwrap())
        .build()
        .unwrap()
}

#[test]
fn three_hundred_layers_verify() {
    let design = one_constraint_per_layer(300);
    assert_eq!(design.constraint_graph().unwrap().shape(), Shape::Cyclic);
    let report = design.verify().unwrap();
    // Every repair only sets a variable to `true`, so every action
    // preserves every constraint given any assumption, and each layer's
    // graph is a single edge: Theorem 3 holds with all 300 layers.
    assert!(
        matches!(report.theorem, TheoremOutcome::Theorem3 { layers: 300 }),
        "{:?}",
        report.theorem
    );
    assert!(report.is_tolerant());
    // The one sweep reads the 4 rows of the space once, and no witness
    // scan runs: every layer's question (do the higher layers' repairs
    // preserve its one constraint under its own premise?) is answered by
    // that read.
    assert_eq!(report.state_counts.total, 4);
    assert_eq!(report.counters.csr_rows_visited, 4);
}
