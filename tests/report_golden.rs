//! Verdict golden for `Design::verify`.
//!
//! Renders every `ToleranceReport` field of the experiments' designs
//! (E1, E2a, E3a, E3b, E11) and of a 300-layer design, witness states and
//! the ordered theorem `reasons` included, and compares the rendering with
//! `tests/golden/tolerance_reports.txt`. Left out are the wall-clock
//! `timings` and the three sweep-work counters (`cache_hits`,
//! `cache_misses`, `csr_rows_visited`), which measure how the checker
//! reached a verdict rather than the verdict itself.

use std::fmt::Write as _;

use nonmask::graph::{ConstraintRef, Layering, NodePartition};
use nonmask::{Design, ToleranceReport};
use nonmask_checker::{compute_fault_span, StateSpace};
use nonmask_program::{Action, ActionKind, Domain, Predicate, Program, State};
use nonmask_protocols::diffusing::{DiffusingComputation, GREEN, RED};
use nonmask_protocols::token_ring::windowed_design;
use nonmask_protocols::{xyz, Tree};

const GOLDEN: &str = include_str!("golden/tolerance_reports.txt");

fn render(name: &str, report: &ToleranceReport) -> String {
    let c = &report.counters;
    let mut out = format!("== {name}\n");
    writeln!(out, "shape: {:?}", report.shape).unwrap();
    writeln!(out, "closure: {:#?}", report.closure).unwrap();
    writeln!(out, "theorem: {:#?}", report.theorem).unwrap();
    writeln!(out, "convergence: {:#?}", report.convergence).unwrap();
    writeln!(out, "convergence_unfair: {:#?}", report.convergence_unfair).unwrap();
    writeln!(out, "worst_case_moves: {:?}", report.worst_case_moves).unwrap();
    writeln!(out, "state_counts: {:?}", report.state_counts).unwrap();
    writeln!(
        out,
        "counters: states={} transitions={} bitset_builds={} states_decoded={} \
         region_states={} peeled_states={} sccs_found={}",
        c.states,
        c.transitions,
        c.bitset_builds,
        c.states_decoded,
        c.region_states,
        c.peeled_states,
        c.sccs_found
    )
    .unwrap();
    out
}

/// `design` with fault span `t`, everything else kept; `invariant`
/// overrides `S` when the original design overrides it.
fn with_fault_span(design: &Design, t: Predicate, invariant: Option<Predicate>) -> Design {
    let mut b = Design::builder(design.program().clone())
        .partition(design.partition().clone())
        .fault_span(t);
    for c in design.constraints() {
        b = b.constraint(c.name(), c.predicate().clone(), c.action());
    }
    if let Some(layering) = design.layering() {
        b = b.layering(layering.clone());
    }
    if let Some(s) = invariant {
        b = b.invariant_override(s);
    }
    b.build().unwrap()
}

/// E3b's parent-writing repairs as a design: constraint `R.j` paired with
/// `repair-parent@j`, partitioned by process.
fn misdesigned(tree: &Tree) -> Design {
    let (program, _) = DiffusingComputation::misdesigned(tree);
    let var = |name: String| program.var_by_name(&name).unwrap();
    let mut b = Design::builder(program.clone()).partition(NodePartition::by_process(&program));
    for j in 1..tree.len() {
        let p = tree.parent(j);
        let (cj, snj) = (var(format!("c.{j}")), var(format!("sn.{j}")));
        let (cp, snp) = (var(format!("c.{p}")), var(format!("sn.{p}")));
        let r = Predicate::new(format!("R.{j}"), [cj, snj, cp, snp], move |s| {
            (s.get(cj) == s.get(cp) && s.get_bool(snj) == s.get_bool(snp))
                || (s.get(cj) == GREEN && s.get(cp) == RED)
        });
        let repair = program
            .action_ids()
            .find(|&a| program.action(a).name() == format!("repair-parent@{j}"))
            .unwrap();
        b = b.constraint(format!("R.{j}"), r, repair);
    }
    b.build().unwrap()
}

/// E11's fault-span designs: the span `T` derived from `S` under faults.
fn derived_span(design: &Design, faults: &[Action], keep_override: bool) -> Design {
    let space = StateSpace::enumerate(design.program()).unwrap();
    let s = design.invariant();
    let span = compute_fault_span(&space, &s, faults).unwrap();
    let t = span.to_predicate(&space, "T");
    with_fault_span(design, t, keep_override.then_some(s))
}

fn corrupt(name: String, var: nonmask_program::VarId, to: i64) -> Action {
    Action::new(
        name,
        ActionKind::Closure,
        [var],
        [var],
        |_: &State| true,
        move |st: &mut State| st.set(var, to),
    )
}

/// `layers` repairs over two booleans, alternately setting `x` and `y`,
/// one constraint per layer (the design of `crates/core/tests/many_layers.rs`).
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

/// The §4 out-tree xyz design plus two closure actions that break `S`
/// (`spin-y` before `drift-x` in action order) and a fault span `x < 3`
/// that `drift-x` leaves: the one design here whose `S` and `T` closure
/// checks report witnesses.
fn drifting_xyz() -> Design {
    let mut b = Program::builder("xyz-drift");
    let x = b.var("x", Domain::range(0, 3));
    let y = b.var("y", Domain::range(0, 3));
    let z = b.var("z", Domain::range(0, 3));
    let fix_y = b.convergence_action(
        "fix-y",
        [x, y],
        [y],
        move |s| s.get(x) == s.get(y),
        move |s| s.set(y, (s.get(y) + 1) % 4),
    );
    let fix_z = b.convergence_action(
        "fix-z",
        [x, z],
        [z],
        move |s| s.get(x) > s.get(z),
        move |s| s.set(z, s.get(x)),
    );
    b.closure_action(
        "spin-y",
        [y],
        [y],
        move |s| s.get(y) < 3,
        move |s| s.set(y, s.get(y) + 1),
    );
    b.closure_action(
        "drift-x",
        [x],
        [x],
        |_| true,
        move |s| s.set(x, (s.get(x) + 1) % 4),
    );
    let program = b.build();
    Design::builder(program)
        .partition(
            NodePartition::new()
                .group("x", [x])
                .group("y", [y])
                .group("z", [z]),
        )
        .fault_span(Predicate::new("x<3", [x], move |s| s.get(x) < 3))
        .constraint(
            "x!=y",
            Predicate::new("x!=y", [x, y], move |s| s.get(x) != s.get(y)),
            fix_y,
        )
        .constraint(
            "x<=z",
            Predicate::new("x<=z", [x, z], move |s| s.get(x) <= s.get(z)),
            fix_z,
        )
        .build()
        .unwrap()
}

fn designs() -> Vec<(String, Design)> {
    let mut out = Vec::new();
    for (name, tree) in [
        ("chain-3", Tree::chain(3)),
        ("chain-5", Tree::chain(5)),
        ("star-5", Tree::star(5)),
        ("binary-5", Tree::binary(5)),
    ] {
        let design = DiffusingComputation::new(&tree).design().unwrap();
        out.push((format!("E1 diffusing {name}"), design));
    }
    for (n, m) in [(3, 2), (3, 3), (4, 3)] {
        let (design, _) = windowed_design(n, m).unwrap();
        out.push((format!("E2a windowed ring n={n} m={m}"), design));
    }
    out.push(("E3a xyz out-tree".into(), xyz::out_tree().unwrap().0));
    out.push(("E3a xyz ordered".into(), xyz::ordered().unwrap().0));
    out.push(("E3a xyz interfering".into(), xyz::interfering().unwrap().0));
    out.push(("xyz with drifting closure actions".into(), drifting_xyz()));
    for (name, tree) in [
        ("chain-3", Tree::chain(3)),
        ("star-3", Tree::star(3)),
        ("binary-5", Tree::binary(5)),
    ] {
        out.push((format!("E3b misdesigned {name}"), misdesigned(&tree)));
    }
    let (ring, handles) = windowed_design(3, 3).unwrap();
    let last = handles.x[2];
    let faults: Vec<Action> = (0..=3)
        .map(|v| corrupt(format!("fault: x.2 := {v}"), last, v))
        .collect();
    out.push((
        "E11 windowed ring n=3 / corrupt x.2 only".into(),
        derived_span(&ring, &faults, true),
    ));
    let tree = Tree::binary(5);
    let dc = DiffusingComputation::new(&tree);
    let faults: Vec<Action> = (0..tree.len())
        .filter(|&j| tree.is_leaf(j))
        .map(|j| corrupt(format!("fault: redden leaf {j}"), dc.color_var(j), RED))
        .collect();
    out.push((
        "E11 diffusing binary-5 / redden leaves".into(),
        derived_span(&dc.design().unwrap(), &faults, false),
    ));
    out.push((
        "one constraint per layer, 300 layers".into(),
        one_constraint_per_layer(300),
    ));
    out
}

#[test]
fn tolerance_reports_match_golden() {
    let got: String = designs()
        .iter()
        .map(|(name, design)| render(name, &design.verify().unwrap()))
        .collect();
    for (i, (g, e)) in got.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(g, e, "line {} of tests/golden/tolerance_reports.txt", i + 1);
    }
    assert_eq!(got.lines().count(), GOLDEN.lines().count(), "line count");
}
