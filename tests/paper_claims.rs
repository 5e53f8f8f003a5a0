//! Integration tests keyed to the paper's claims, section by section.
//!
//! Each test names the claim it mechanizes; together they are the
//! "soundness ledger" of the reproduction (EXPERIMENTS.md cross-references
//! them).

use nonmask::{CandidateTriple, TheoremOutcome};
use nonmask_checker::{
    check_convergence, is_closed, CheckOptions, ConvergenceReport, ConvergenceResult, Fairness,
    StateSpace,
};
use nonmask_graph::Shape;
use nonmask_program::{Predicate, ProcessId, Program};
use nonmask_protocols::atomic::AtomicActions;
use nonmask_protocols::diffusing::DiffusingComputation;
use nonmask_protocols::token_ring::{windowed_design, TokenRing};
use nonmask_protocols::{xyz, Tree};

/// Convergence of `program` from every state to `s`: both daemons and the
/// worst-case bound.
fn stabilization(space: &StateSpace, program: &Program, s: &Predicate) -> ConvergenceReport {
    let t = Predicate::always_true();
    check_convergence(space, program, &t, s, CheckOptions::default()).unwrap()
}

/// §3: the definition of fault-tolerance classifies masking vs nonmasking
/// by whether S = T.
#[test]
fn section3_masking_vs_nonmasking_classification() {
    let (design, _) = xyz::out_tree().unwrap();
    let program = design.program().clone();
    let s = design.invariant();
    let space = StateSpace::enumerate(&program).unwrap();

    let nonmasking = CandidateTriple::stabilizing(program.clone(), s.clone());
    assert!(!nonmasking.is_masking(&space), "S != true here");

    let masking = CandidateTriple::new(program, s.clone(), s);
    assert!(masking.is_masking(&space));
}

/// §3: "this design problem is readily solved in the special case where we
/// can design actions that check whether ¬S holds and establish S" — the
/// one-shot global repair action.
#[test]
fn section3_global_repair_special_case() {
    use nonmask_program::{Domain, Program};
    let mut b = Program::builder("global-repair");
    let x = b.var("x", Domain::range(0, 7));
    let y = b.var("y", Domain::range(0, 7));
    // S: x = y = 0. One convergence action checks ¬S and establishes S.
    b.convergence_action(
        "not-S -> establish S",
        [x, y],
        [x, y],
        move |st| !(st.get(x) == 0 && st.get(y) == 0),
        move |st| {
            st.set(x, 0);
            st.set(y, 0);
        },
    );
    let p = b.build();
    let s = Predicate::new("S", [x, y], move |st| st.get(x) == 0 && st.get(y) == 0);
    let space = StateSpace::enumerate(&p).unwrap();
    assert!(
        is_closed(&space, &s).unwrap().is_none(),
        "trivially preserves S"
    );
    let r = stabilization(&space, &p, &s);
    assert!(r.weakly_fair.converges());
    assert_eq!(r.worst_case_moves, Some(1), "establishes S in one step");
}

/// §4: the example constraint graph — repairing x!=y by changing x "can
/// violate the second constraint", while the y/z repairs form the figure's
/// out-tree.
#[test]
fn section4_figure_and_interference_remark() {
    let (good, _) = xyz::out_tree().unwrap();
    assert_eq!(good.constraint_graph().unwrap().shape(), Shape::OutTree);

    let (bad, _) = xyz::interfering().unwrap();
    let report = bad.verify().unwrap();
    assert!(!report.convergence.converges());
}

/// §5 Theorem 1 on its flagship application: the diffusing computation is
/// `true`-tolerant for S on every tree we enumerate, and fairness is not
/// needed (§8 remark).
#[test]
fn section5_diffusing_theorem1_end_to_end() {
    for tree in [Tree::chain(4), Tree::star(5), Tree::binary(6)] {
        let dc = DiffusingComputation::new(&tree);
        let report = dc.design().unwrap().verify().unwrap();
        assert!(matches!(report.theorem, TheoremOutcome::Theorem1 { .. }));
        assert!(report.is_stabilizing());
        assert!(report.convergence_unfair.converges());
    }
}

/// §5's rank argument quantified: the worst-case number of moves outside S
/// is finite and grows with the tree, and any actual run stays within it.
#[test]
fn section5_rank_bound_dominates_real_runs() {
    use nonmask_program::scheduler::Random;
    use nonmask_program::{Executor, RunConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let tree = Tree::binary(5);
    let dc = DiffusingComputation::new(&tree);
    let s = dc.invariant();
    let space = StateSpace::enumerate(dc.program()).unwrap();
    let bound = stabilization(&space, dc.program(), &s)
        .worst_case_moves
        .expect("finite bound");

    let mut rng = StdRng::seed_from_u64(99);
    for seed in 0..30 {
        let start = dc.program().random_state(&mut rng);
        let report = Executor::new(dc.program()).run(
            start,
            &mut Random::seeded(seed),
            &RunConfig::default()
                .stop_when(&s, 1)
                .max_steps(10 * bound + 10),
        );
        assert!(
            report.steps <= bound,
            "run took {} steps, bound is {bound}",
            report.steps
        );
    }
}

/// §6 Theorem 2: the ordered xyz design (both repairs write x, one
/// decreases) converges; the naive pair livelocks.
#[test]
fn section6_ordering_separates_good_from_bad() {
    let (ordered, _) = xyz::ordered().unwrap();
    let r = ordered.verify().unwrap();
    assert!(matches!(r.theorem, TheoremOutcome::Theorem2 { .. }));
    assert!(r.is_tolerant());

    let (interfering, _) = xyz::interfering().unwrap();
    let r = interfering.verify().unwrap();
    assert!(!r.theorem.applies());
    assert!(matches!(
        r.convergence,
        ConvergenceResult::Divergence { .. }
    ));
}

/// §7 Theorem 3: the token ring's layered design validates, and the
/// resulting program really is Dijkstra's.
#[test]
fn section7_token_ring_layered_design() {
    let (design, handles) = windowed_design(4, 3).unwrap();
    let report = design.verify().unwrap();
    assert!(matches!(
        report.theorem,
        TheoremOutcome::Theorem3 { layers: 2 }
    ));
    assert!(report.is_tolerant());

    // The merged layer-2 action is the paper's final x.j != x.(j-1) →
    // x.j := x.(j-1): layer-1 repair + layer-2 copy have together exactly
    // that enabling condition.
    let p = design.program();
    let mut st = p.min_state();
    st.set(handles.x[0], 2);
    st.set(handles.x[1], 1);
    let l1 = p.action(handles.layer1[0]);
    let l2 = p.action(handles.layer2[0]);
    assert!(!l1.enabled(&st) && l2.enabled(&st), "x.0 > x.1: copy side");
    st.set(handles.x[1], 3);
    assert!(
        l1.enabled(&st) && !l2.enabled(&st),
        "x.0 < x.1: repair side"
    );
    st.set(handles.x[1], 2);
    assert!(!l1.enabled(&st) && !l2.enabled(&st), "equal: neither");
}

/// §7.1 specification, requirement (i): inside S exactly one node is
/// privileged — and the fault model "nodes spontaneously become privileged
/// or unprivileged" is recoverable.
#[test]
fn section7_token_ring_specification() {
    let ring = TokenRing::new(4, 4);
    let space = StateSpace::enumerate(ring.program()).unwrap();
    let s = ring.invariant();
    for id in space.satisfying(&s).unwrap() {
        assert_eq!(ring.privileges(&space.state(id)).len(), 1);
    }
    // Convergence from every state = recovery from arbitrary privilege
    // corruption.
    let r = stabilization(&space, ring.program(), &s);
    assert!(r.weakly_fair.converges());
}

/// §8: "the fairness requirement on program computations is often
/// unnecessary … each of the programs derived in this paper is correct
/// even when the fairness requirement is ignored." The atomic-action
/// protocol shows the remark does not generalize to every design.
#[test]
fn section8_fairness_remark() {
    let dc = DiffusingComputation::new(&Tree::binary(4));
    let space = StateSpace::enumerate(dc.program()).unwrap();
    let r = stabilization(&space, dc.program(), &dc.invariant());
    assert!(
        r.unfair.converges(),
        "diffusing computation needs no fairness"
    );

    let aa = AtomicActions::new(4);
    let space = StateSpace::enumerate(aa.program()).unwrap();
    let r = stabilization(&space, aa.program(), &aa.invariant());
    assert!(!r.unfair.converges() && r.weakly_fair.converges());
}

/// Abstract: the three named applications — diffusing computations, atomic
/// actions, token rings — all verify through the same pipeline.
#[test]
fn abstract_three_applications() {
    let dc = DiffusingComputation::new(&Tree::chain(3));
    assert!(dc.design().unwrap().verify().unwrap().is_tolerant());
    let (ring, _) = windowed_design(3, 2).unwrap();
    assert!(ring.verify().unwrap().is_tolerant());
    let aa = AtomicActions::new(2);
    assert!(aa.design().unwrap().verify().unwrap().is_tolerant());
}

/// Processes partition variables exactly as the paper's node labels do.
#[test]
fn node_labels_are_process_variable_sets() {
    let dc = DiffusingComputation::new(&Tree::chain(3));
    let design = dc.design().unwrap();
    let graph = design.constraint_graph().unwrap();
    for (j, node) in graph.nodes().iter().enumerate() {
        assert_eq!(node.vars().len(), 2, "c.j and sn.j");
        for &v in node.vars() {
            assert_eq!(design.program().var(v).process(), Some(ProcessId(j)));
        }
    }
}

/// §7's "convergence stair" refinement (Gouda & Multari): the token ring
/// converges in two stages — first the layer-1 conjunct (a non-increasing
/// sequence) is established and stays closed, then the second conjunct.
#[test]
fn section7_convergence_stair() {
    use nonmask::ConvergenceStair;
    let (design, handles) = windowed_design(3, 3).unwrap();
    let program = design.program().clone();
    let space = StateSpace::enumerate(&program).unwrap();

    let xs = handles.x.clone();
    let layer1 = Predicate::new("layer1", xs.iter().copied(), {
        let xs = xs.clone();
        move |s| (1..xs.len()).all(|j| s.get(xs[j - 1]) >= s.get(xs[j]))
    });
    let stair = ConvergenceStair::new([Predicate::always_true(), layer1, design.invariant()]);
    assert_eq!(stair.height(), 2);
    let report = stair
        .verify(&space, &program, Fairness::WeaklyFair)
        .unwrap();
    assert!(report.ok(), "{report:?}");
}
