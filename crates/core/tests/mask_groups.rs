//! Preservation questions past one mask group.
//!
//! `Design::verify` packs `[T, S, c_0, c_1, …]` into per-state masks of 64
//! predicates each, so 130 constraints span three groups: `c_0..c_61`
//! share group 0 with `T` and `S`, `c_62..c_125` fill group 1, and
//! `c_126..c_129` start group 2. A closure action that breaks constraints
//! on both sides of each group boundary must be reported for exactly
//! those constraints, in constraint order, and so must repairs that are
//! unguarded or do not establish their constraint, with the witnesses a
//! per-repair scan finds.

use nonmask::checker::StateSpace;
use nonmask::graph::NodePartition;
use nonmask::program::{Domain, Predicate, Program, State};
use nonmask::{CheckOptions, Design, TheoremOutcome};

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
    let design = flip_design(130);
    let report = design.verify().unwrap();
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
    // `flip` is asked about all 130 constraints under `T`, across three
    // mask columns, and the one sweep reads each of the 4 rows of
    // `T ∪ S` once for all of them. `flip` also breaks `S = x ∧ y`, whose
    // one state is the first the witness scan reads.
    let v = report.closure.invariant.as_ref().expect("flip breaks S");
    assert_eq!(design.program().action(v.action).name(), "flip");
    assert_eq!(report.counters.csr_rows_visited, 4 + 1);
}

const PLANTED: [usize; 4] = [0, 61, 62, 99];

/// `x ∈ 0..=99`, `y ∈ 0..=2`; constraint `c_k` is `x ≠ k`, repaired by
/// `fix-k`: enabled at `x = k`, it sets `x := k + 1 (mod 100)`. The repairs
/// of [`PLANTED`] constraints are wrong twice over: not enabled at
/// `y = 1` (unguarded at `(k, 1)`), and from `y = 2` they set `y := 0` and
/// leave `x` at `k` (not establishing `c_k` from `(k, 2)`). `c_0..c_61`
/// share mask group 0 with `T` and `S`; `c_62..c_99` are in group 1.
fn planted_design() -> Design {
    let mut b = Program::builder("planted-repairs");
    let x = b.var("x", Domain::range(0, 99));
    let y = b.var("y", Domain::range(0, 2));
    let repairs: Vec<_> = (0..100i64)
        .map(|k| {
            let planted = PLANTED.contains(&(k as usize));
            b.convergence_action(
                format!("fix-{k}"),
                [x, y],
                [x, y],
                move |s| s.get(x) == k && !(planted && s.get(y) == 1),
                move |s| {
                    if planted && s.get(y) == 2 {
                        s.set(y, 0);
                    } else {
                        s.set(x, (k + 1) % 100);
                    }
                },
            )
        })
        .collect();
    let mut design = Design::builder(b.build()).partition(NodePartition::new().group("xy", [x, y]));
    for (k, action) in repairs.into_iter().enumerate() {
        let k_value = k as i64;
        let c = Predicate::new(format!("x!={k}"), [x], move |s| s.get(x) != k_value);
        design = design.constraint(format!("c{k}"), c, action);
    }
    design.build().unwrap()
}

#[test]
fn repair_defects_past_the_first_group_have_the_brute_force_witnesses() {
    let design = planted_design();
    let p = design.program();
    let space = StateSpace::enumerate(p).unwrap();
    // Per constraint, scan the states in id order for the lowest state of
    // `¬c` where its repair is disabled, and the lowest transition of the
    // repair that leads outside `c` (`T` is `true`).
    let mut unguarded = Vec::new();
    let mut non_establishing = Vec::new();
    for (k, c) in design.constraints().iter().enumerate() {
        let a = c.action();
        let found = space.ids().find(|&id| {
            let before = space.state(id);
            !c.predicate().holds(&before) && space.successors(id).iter().all(|&(b, _)| b != a)
        });
        unguarded.extend(found.map(|id| (k, space.state(id))));
        let found = space.ids().find_map(|id| {
            let (_, succ) = space.successors(id).into_iter().find(|&(b, _)| b == a)?;
            let after = space.state(succ);
            (!c.predicate().holds(&after)).then(|| (space.state(id), after))
        });
        non_establishing.extend(found.map(|(before, after)| (k, a, before, after)));
    }
    let planted = |y| PLANTED.map(|k| (k, State::new(vec![k as i64, y])));
    assert_eq!(unguarded, planted(1));
    assert_eq!(non_establishing.len(), PLANTED.len());
    for threads in [1, 2] {
        let report = design
            .clone()
            .with_options(CheckOptions::default().threads(threads))
            .verify_with(&space)
            .unwrap();
        assert_eq!(report.closure.unguarded_constraints, unguarded);
        let reported: Vec<_> = report
            .closure
            .non_establishing
            .iter()
            .map(|(k, v)| (*k, v.action, v.before.clone(), v.after.clone()))
            .collect();
        assert_eq!(reported, non_establishing);
        for (i, (_, _, before, after)) in reported.iter().enumerate() {
            let k = PLANTED[i] as i64;
            assert_eq!((before.slots(), after.slots()), (&[k, 2][..], &[k, 0][..]));
        }
    }
}
