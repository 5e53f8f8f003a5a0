//! Footprint tables against direct evaluation, and the tables' audit.
//!
//! - Every row a [`StateSpace`] computes from its per-action footprint
//!   tables equals the [`Decoder`]'s row, which runs every guard and
//!   effect at the decoded state, in id order and in a shuffled order; and
//!   the transition count the tables give is the sum of the row lengths.
//!   This holds on every shipped protocol at a small size, on random
//!   programs whose action counts straddle guard-byte edges, and on
//!   actions and predicates too large to tabulate.
//! - Predicate caches filled from predicate tables equal direct
//!   evaluation.
//! - A planted undeclared dependency (a guard that reads, an effect that
//!   writes, a predicate that reads a variable outside its declaration)
//!   is a typed [`CheckError::UndeclaredVariable`] naming both the action
//!   or predicate and the variable, from the frontier check as from
//!   enumeration.

use nonmask::Design;
use nonmask_checker::{
    check_convergence_frontier_stats, Bitset, CheckError, CheckOptions, Decoder, Fairness, StateId,
    StateSpace, Successors, TABLE_CAP,
};
use nonmask_graph::Topology;
use nonmask_obs::Journal;
use nonmask_program::{Domain, Predicate, Program, State};
use nonmask_protocols::aggregate::WaveAggregation;
use nonmask_protocols::atomic::AtomicActions;
use nonmask_protocols::bfs::MinPlusOne;
use nonmask_protocols::coloring::TreeColoring;
use nonmask_protocols::diffusing::DiffusingComputation;
use nonmask_protocols::reset::DistributedReset;
use nonmask_protocols::spanning_tree::SpanningTree;
use nonmask_protocols::three_state::ThreeState;
use nonmask_protocols::token_ring::{windowed_design, TokenRing};
use nonmask_protocols::{xyz, Tree};
use proptest::prelude::*;

/// The ids `0..n` in a fixed pseudo-random order.
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut x = seed | 1;
    for i in (1..n).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        order.swap(i, (x % (i as u64 + 1)) as usize);
    }
    order
}

/// Assert that `program`'s table rows equal its decoded rows, in id order
/// and in a shuffled order, and that the table transition count is the
/// sum of the row lengths. Returns the transition count.
fn assert_rows_match(name: &str, program: &Program) -> usize {
    let space = StateSpace::enumerate(program).unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut decoded = Decoder::new(program, space.index());
    let mut table = space.rows();
    let mut total = 0;
    for id in space.ids() {
        let want = decoded.row(id).unwrap();
        let got = table.transitions(id);
        assert_eq!(got, want, "{name}: row {id}");
        total += got.len();
    }
    assert_eq!(space.transition_count(), total, "{name}: transition count");
    for i in shuffled(space.len(), total as u64) {
        let id = StateId::from_index(i);
        let want = decoded.row(id).unwrap();
        assert_eq!(table.transitions(id), want, "{name}: shuffled row {id}");
    }
    total
}

/// Assert that the caches of `preds` filled from predicate tables equal
/// direct evaluation at every state.
fn assert_caches_match(name: &str, program: &Program, preds: &[&Predicate]) {
    let space = StateSpace::enumerate(program).unwrap();
    let caches = Bitset::for_predicates(space.index(), preds, CheckOptions::default())
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    for id in space.ids() {
        let state = space.state(id);
        for (pred, cache) in preds.iter().zip(&caches) {
            assert_eq!(
                cache.contains(id),
                pred.holds(&state),
                "{name}: predicate `{}` at {id}",
                pred.name()
            );
        }
    }
}

/// Rows and caches of a design: its program, and its fault span,
/// constraints and invariant.
fn assert_design_matches(name: &str, design: &Design) {
    assert_rows_match(name, design.program());
    let invariant = design.invariant();
    let mut preds = vec![design.fault_span(), &invariant];
    preds.extend(design.constraints().iter().map(|c| c.predicate()));
    assert_caches_match(name, design.program(), &preds);
}

#[test]
fn table_rows_match_decoded_rows_on_every_shipped_protocol() {
    let tree = Tree::from_parents(vec![0, 0, 1]).unwrap();
    let designs: Vec<(&str, Design)> = vec![
        ("xyz out-tree", xyz::out_tree().unwrap().0),
        ("xyz ordered", xyz::ordered().unwrap().0),
        ("xyz interfering", xyz::interfering().unwrap().0),
        ("windowed token ring", windowed_design(3, 3).unwrap().0),
        (
            "diffusing",
            DiffusingComputation::new(&Tree::binary(5))
                .design()
                .unwrap(),
        ),
        ("coloring", TreeColoring::new(&tree, 3).design().unwrap()),
        (
            "reset",
            DistributedReset::new(&tree, 2, 0).design().unwrap(),
        ),
        (
            "aggregate",
            WaveAggregation::new(&tree, 2).design().unwrap(),
        ),
        ("atomic actions", AtomicActions::new(4).design().unwrap()),
    ];
    for (name, design) in &designs {
        assert_design_matches(name, design);
    }
    let programs = [
        ("token ring", TokenRing::new(4, 4).program().clone()),
        ("three-state", ThreeState::new(4).program().clone()),
        (
            "bfs",
            MinPlusOne::new(&Topology::line(4), 0).program().clone(),
        ),
        (
            "spanning tree",
            SpanningTree::new(&Topology::ring(4), 0).program().clone(),
        ),
    ];
    for (name, program) in &programs {
        assert!(
            assert_rows_match(name, program) > 0,
            "{name} has transitions"
        );
    }
}

/// A program over `bools` boolean variables whose one action and one
/// predicate read all of them, `2^bools` assignments: past the cap when
/// `2^bools > TABLE_CAP`, so both are evaluated per row. A second,
/// one-variable action keeps a table beside it.
fn wide_program(bools: usize) -> (Program, Predicate) {
    let mut b = Program::builder("wide");
    let vars: Vec<_> = (0..bools)
        .map(|i| b.var(format!("b{i}"), Domain::Bool))
        .collect();
    let hash = |s: &State| {
        s.slots().iter().fold(7u64, |h, &v| {
            (h ^ v as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 3
        })
    };
    let (first, last) = (vars[0], vars[bools - 1]);
    b.closure_action(
        "scramble",
        vars.clone(),
        [first],
        move |s| hash(s) % 3 != 0,
        move |s| s.toggle(first),
    );
    b.closure_action(
        "flip-last",
        [last],
        [last],
        |_| true,
        move |s| s.toggle(last),
    );
    let pred = Predicate::new("hashed", vars, move |s| hash(s) % 5 < 2);
    (b.build(), pred)
}

#[test]
fn actions_and_predicates_past_the_cap_are_evaluated_per_row() {
    for bools in [12, 13] {
        let (p, pred) = wide_program(bools);
        assert_eq!(1usize << bools > TABLE_CAP, bools == 13);
        assert_rows_match(&format!("wide-{bools}"), &p);
        let always = Predicate::always_true();
        assert_caches_match(&format!("wide-{bools}"), &p, &[&pred, &always]);
    }
}

/// A program over `domains` with one action per `(guard var, write var,
/// delta)`: the guard holds where its variable is above its minimum, and
/// the effect adds `delta` to the written variable, wrapping.
fn program_with_actions(domains: &[Domain], actions: &[(usize, usize, i64)]) -> Program {
    let mut b = Program::builder("random-actions");
    let vars: Vec<_> = domains
        .iter()
        .enumerate()
        .map(|(i, d)| b.var(format!("v{i}"), d.clone()))
        .collect();
    for (k, &(g, w, delta)) in actions.iter().enumerate() {
        let (gv, wv) = (vars[g % vars.len()], vars[w % vars.len()]);
        let gmin = domains[g % vars.len()].min_value();
        let wmin = domains[w % vars.len()].min_value();
        let size = domains[w % vars.len()].size().unwrap() as i64;
        b.closure_action(
            format!("a{k}"),
            [gv],
            [wv],
            move |s| s.get(gv) > gmin,
            move |s| s.set(wv, wmin + (s.get(wv) - wmin + delta).rem_euclid(size)),
        );
    }
    b.build()
}

fn domain_strategy() -> BoxedStrategy<Domain> {
    prop_oneof![
        Just(Domain::Bool),
        (-3i64..=3, 1i64..=4).prop_map(|(min, span)| Domain::range(min, min + span)),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random programs of 1–17 or 63–65 actions, so the last action sits
    /// on either side of a guard byte's edge: table rows equal decoded
    /// rows in both orders, and the count equals the rows' sum.
    #[test]
    fn random_programs_rows_match_across_guard_byte_edges(
        domains in proptest::collection::vec(domain_strategy(), 1..=4),
        actions in proptest::collection::vec((0usize..4, 0usize..4, 1i64..=3), 1..=4),
        total in prop_oneof![1usize..=17, 63usize..=65],
    ) {
        let repeated: Vec<_> = actions.iter().copied().cycle().take(total).collect();
        let p = program_with_actions(&domains, &repeated);
        prop_assert_eq!(p.action_count(), total);
        assert_rows_match("random", &p);
    }
}

/// Variables `x`, `y`, `z`, each `0..=2`, and the action `act` declared
/// to read and write `x` only.
fn planted(
    name: &str,
    guard: impl Fn(&State, [nonmask_program::VarId; 3]) -> bool + Send + Sync + 'static,
    effect: impl Fn(&mut State, [nonmask_program::VarId; 3]) + Send + Sync + 'static,
) -> Program {
    let mut b = Program::builder("planted");
    let vars = [
        b.var("x", Domain::range(0, 2)),
        b.var("y", Domain::range(0, 2)),
        b.var("z", Domain::range(0, 2)),
    ];
    b.closure_action(
        name,
        [vars[0]],
        [vars[0]],
        move |s| guard(s, vars),
        move |s| effect(s, vars),
    );
    b.build()
}

fn undeclared(kind: &'static str, name: &str, var: &str) -> CheckError {
    CheckError::UndeclaredVariable {
        kind,
        name: name.to_string(),
        var: var.to_string(),
    }
}

#[test]
fn a_guard_that_reads_an_undeclared_variable_is_named() {
    let p = planted(
        "peek",
        |s, [x, y, _]| s.get(x) < 2 && s.get(y) == 0,
        |s, [x, _, _]| s.set(x, s.get(x) + 1),
    );
    let err = StateSpace::enumerate(&p).unwrap_err();
    assert_eq!(err, undeclared("action", "peek", "y"));
    assert!(err.to_string().contains("`peek`") && err.to_string().contains("`y`"));
    // A read that shows only at a middle value of its domain: the guard
    // is false with `y` at either end, so only stepping `y` through its
    // whole domain finds it.
    let p = planted(
        "middle",
        |s, [x, y, _]| s.get(x) < 2 && s.get(y) == 1,
        |s, [x, _, _]| s.set(x, s.get(x) + 1),
    );
    assert_eq!(
        StateSpace::enumerate(&p).unwrap_err(),
        undeclared("action", "middle", "y")
    );
    // A read that shows only while another variable stays at its
    // minimum: raising all of them together hides it, raising it alone
    // does not.
    let p = planted(
        "lone",
        |s, [_, y, z]| s.get(y) == 2 && s.get(z) == 0,
        |_, _| {},
    );
    assert_eq!(
        StateSpace::enumerate(&p).unwrap_err(),
        undeclared("action", "lone", "y")
    );
    // Two undeclared reads that only matter together: no single one
    // changes the guard, both do, and raising them in turn names the
    // second.
    let p = planted(
        "pair",
        |s, [_, y, z]| s.get(y) == 2 && s.get(z) == 2,
        |_, _| {},
    );
    assert_eq!(
        StateSpace::enumerate(&p).unwrap_err(),
        undeclared("action", "pair", "z")
    );
}

#[test]
fn the_frontier_check_audits_its_action_tables() {
    // The frontier check computes its rows from the same tables as
    // enumeration, so the guard's undeclared read of `y` is the same
    // error, where rows evaluated without the audit would find the
    // states `x < 2 ∧ y ≠ 0` deadlocked outside `x = 2`.
    let p = planted(
        "peek",
        |s, [x, y, _]| s.get(x) < 2 && s.get(y) == 0,
        |s, [x, _, _]| s.set(x, s.get(x) + 1),
    );
    let x = p.var_by_name("x").unwrap();
    let goal = Predicate::new("x=2", [x], move |s| s.get(x) == 2);
    for threads in [1, 4] {
        let err = check_convergence_frontier_stats(
            &p,
            &Predicate::always_true(),
            &goal,
            Fairness::WeaklyFair,
            CheckOptions::default().threads(threads),
            &Journal::disabled(),
        )
        .unwrap_err();
        assert_eq!(err, undeclared("action", "peek", "y"), "threads={threads}");
        assert_eq!(err, StateSpace::enumerate(&p).unwrap_err());
    }
}

#[test]
fn an_effect_that_writes_an_undeclared_variable_is_named() {
    let p = planted(
        "spill",
        |_, _| true,
        |s, [x, _, z]| {
            s.set(x, 0);
            s.set(z, 0);
        },
    );
    assert_eq!(
        StateSpace::enumerate(&p).unwrap_err(),
        undeclared("action", "spill", "z")
    );
    // An effect whose written value depends on an undeclared read.
    let p = planted("copy", |_, _| true, |s, [x, y, _]| s.set(x, s.get(y)));
    assert_eq!(
        StateSpace::enumerate(&p).unwrap_err(),
        undeclared("action", "copy", "y")
    );
}

#[test]
fn a_predicate_that_reads_an_undeclared_variable_is_named() {
    let p = planted("ok", |_, _| false, |_, _| {});
    let space = StateSpace::enumerate(&p).unwrap();
    let [x, y] = ["x", "y"].map(|n| p.var_by_name(n).unwrap());
    let leaky = Predicate::new("leaky", [x], move |s| s.get(x) == s.get(y));
    let err =
        Bitset::for_predicates(space.index(), &[&leaky], CheckOptions::default()).unwrap_err();
    assert_eq!(err, undeclared("predicate", "leaky", "y"));
    assert_eq!(space.count_satisfying(&leaky).unwrap_err(), err);
    // A read that shows only at a middle value of `y`'s domain.
    let middle = Predicate::new("middle", [x], move |s| s.get(x) == 0 && s.get(y) == 1);
    assert_eq!(
        Bitset::for_predicates(space.index(), &[&middle], CheckOptions::default()).unwrap_err(),
        undeclared("predicate", "middle", "y")
    );
}
