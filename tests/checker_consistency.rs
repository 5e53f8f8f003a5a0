//! Cross-validation of the model checker against the execution engine on
//! randomly generated programs.
//!
//! For each seeded random program (3 boolean variables, table-driven
//! actions) and random target predicate `S`, the checker's verdict is
//! checked against ground behaviour:
//!
//! - `Converges` (weakly fair) ⇒ every round-robin run (round-robin is
//!   fair) from every state reaches `S`, and the expected-moves Markov
//!   analysis converges.
//! - `Converges` (unfair) ⇒ a finite worst-case bound exists and *no*
//!   scheduler (round-robin, random, adversarial with any priority
//!   rotation) exceeds it from any start.
//! - `DeadlockOutsideTarget` ⇒ the reported state really has no enabled
//!   action and violates `S`.
//! - `Divergence` ⇒ every witness state is outside `S` and has a successor
//!   inside the witness set (the cycle is real).

use nonmask_checker::{
    check_convergence, expected_moves, CheckOptions, ConvergenceReport, ConvergenceResult,
    StateSpace,
};
use nonmask_program::scheduler::{Adversarial, Random, RoundRobin};
use nonmask_program::{ActionKind, Domain, Executor, Predicate, Program, RunConfig, VarId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const VARS: usize = 3;

/// Index of a state in the 3-boolean truth table.
fn state_index(s: &nonmask_program::State) -> usize {
    (0..VARS).fold(0, |acc, i| {
        acc | ((s.get_bool(VarId::from_index(i)) as usize) << i)
    })
}

/// A random table-driven program: each action has a random guard mask and
/// writes one variable with a value drawn from a random truth table.
fn random_program(rng: &mut StdRng) -> Program {
    let n_actions = rng.gen_range(2..=4);
    let mut b = Program::builder("random");
    let vars: Vec<VarId> = (0..VARS)
        .map(|i| b.var(format!("v{i}"), Domain::Bool))
        .collect();
    for a in 0..n_actions {
        let guard_mask: u8 = rng.gen();
        let value_table: u8 = rng.gen();
        let target = vars[rng.gen_range(0..VARS)];
        let kind = if rng.gen_bool(0.5) {
            ActionKind::Closure
        } else {
            ActionKind::Convergence
        };
        b.add_action(nonmask_program::Action::new(
            format!("a{a}"),
            kind,
            vars.clone(),
            [target],
            move |s| guard_mask & (1 << state_index(s)) != 0,
            move |s| {
                let bit = value_table & (1 << state_index(s)) != 0;
                s.set_bool(target, bit);
            },
        ));
    }
    b.build()
}

fn random_target(rng: &mut StdRng) -> Predicate {
    // Nonempty, non-total mask so the region is nontrivial.
    let mask: u8 = loop {
        let m: u8 = rng.gen();
        if m != 0 && m != u8::MAX {
            break m;
        }
    };
    let reads: Vec<VarId> = (0..VARS).map(VarId::from_index).collect();
    Predicate::new(format!("S[{mask:08b}]"), reads, move |s| {
        mask & (1 << state_index(s)) != 0
    })
}

#[test]
fn checker_verdicts_match_execution() {
    let mut rng = StdRng::seed_from_u64(20260705);
    let mut converged_fair = 0;
    let mut converged_unfair = 0;
    let mut deadlocks = 0;
    let mut divergences = 0;

    for trial in 0..300u64 {
        let program = random_program(&mut rng);
        let s = random_target(&mut rng);
        let t = Predicate::always_true();
        let space = StateSpace::enumerate(&program).unwrap();

        let report = check_convergence(&space, &program, &t, &s, CheckOptions::default()).unwrap();
        let ConvergenceReport {
            weakly_fair: fair,
            unfair,
            worst_case_moves,
            ..
        } = report;

        // Unfair convergence implies fair convergence.
        if unfair.converges() {
            assert!(fair.converges(), "trial {trial}: unfair ⊂ fair");
        }

        match &fair {
            ConvergenceResult::Converges => {
                converged_fair += 1;
                // Round-robin (fair) reaches S from every state.
                for id in space.ids() {
                    let report = Executor::new(&program).run(
                        space.state(id),
                        &mut RoundRobin::new(),
                        &RunConfig::default().stop_when(&s, 1).max_steps(1_000),
                    );
                    // A deadlock is fine only if it happened inside S
                    // (e.g. the start state already satisfied S and nothing
                    // was enabled); convergence only promises reaching S.
                    assert!(
                        report.stop.is_stabilized() || s.holds(&report.final_state),
                        "trial {trial}: fair-convergent program failed from {:?} ({:?})",
                        space.state(id).slots(),
                        report.stop,
                    );
                }
                // The Markov analysis converges too.
                let em = expected_moves(&space, &t, &s, 1e-9, 1_000_000).unwrap();
                assert!(em.converged(), "trial {trial}: expected moves diverged");
            }
            ConvergenceResult::DeadlockOutsideTarget { state } => {
                deadlocks += 1;
                assert!(!s.holds(state), "trial {trial}: deadlock witness is in S");
                assert!(
                    program.enabled_actions(state).is_empty(),
                    "trial {trial}: deadlock witness has enabled actions"
                );
            }
            ConvergenceResult::Divergence { states, .. } => {
                divergences += 1;
                for w in states {
                    assert!(!s.holds(w), "trial {trial}: divergence witness inside S");
                    // The witness set is strongly connected: every member
                    // has an internal successor.
                    let has_internal = program.enabled_actions(w).iter().any(|&a| {
                        let next = program.action(a).successor(w);
                        states.contains(&next)
                    });
                    assert!(
                        has_internal,
                        "trial {trial}: witness state has no internal edge"
                    );
                }
            }
            ConvergenceResult::EscapesFaultSpan { .. } => {
                unreachable!("T = true cannot be escaped")
            }
        }

        if unfair.converges() {
            converged_unfair += 1;
            let bound = worst_case_moves.expect("unfair convergence implies a finite bound");
            // No daemon exceeds the bound from any start.
            for id in space.ids() {
                for variant in 0..3u64 {
                    let run = |sched: &mut dyn nonmask_program::Scheduler| {
                        Executor::new(&program).run(
                            space.state(id),
                            sched,
                            &RunConfig::default().stop_when(&s, 1).max_steps(bound + 1),
                        )
                    };
                    let report = match variant {
                        0 => run(&mut RoundRobin::new()),
                        1 => run(&mut Random::seeded(trial * 7 + variant)),
                        _ => {
                            let ids: Vec<_> = program.action_ids().collect();
                            let k = ids.len();
                            let order: Vec<_> =
                                (0..k).map(|i| ids[(i + trial as usize) % k]).collect();
                            run(&mut Adversarial::with_priority(order))
                        }
                    };
                    assert!(
                        report.stop.is_stabilized() || s.holds(&report.final_state),
                        "trial {trial}: bound {bound} exceeded (variant {variant})"
                    );
                }
            }
        }
    }

    // The random family is rich enough to exercise every verdict.
    assert!(converged_fair > 10, "converged(fair): {converged_fair}");
    assert!(
        converged_unfair > 5,
        "converged(unfair): {converged_unfair}"
    );
    assert!(deadlocks > 10, "deadlocks: {deadlocks}");
    assert!(divergences > 10, "divergences: {divergences}");
}

/// Serial and multi-threaded verification agree on *every* design in the
/// protocols crate: same verdicts, same witnesses, same counts and bounds.
/// (Timings are the only report fields allowed to differ.)
#[test]
fn st_and_mt_verdicts_identical_on_all_protocols() {
    use nonmask::Design;
    use nonmask_protocols::aggregate::WaveAggregation;
    use nonmask_protocols::atomic::AtomicActions;
    use nonmask_protocols::coloring::TreeColoring;
    use nonmask_protocols::diffusing::DiffusingComputation;
    use nonmask_protocols::reset::DistributedReset;
    use nonmask_protocols::token_ring::windowed_design;
    use nonmask_protocols::{xyz, Tree};

    let tree = Tree::from_parents(vec![0, 0, 1]).unwrap();
    let designs: Vec<(&str, Design)> = vec![
        ("xyz out-tree", xyz::out_tree().unwrap().0),
        ("xyz ordered", xyz::ordered().unwrap().0),
        ("xyz interfering", xyz::interfering().unwrap().0),
        ("windowed token ring", windowed_design(3, 3).unwrap().0),
        (
            "diffusing",
            DiffusingComputation::new(&tree).design().unwrap(),
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

    for (name, design) in designs {
        let st = design
            .clone()
            .with_options(CheckOptions::serial())
            .verify()
            .unwrap();
        for threads in [2usize, 4, 8] {
            let mt = design
                .clone()
                .with_options(CheckOptions::default().threads(threads))
                .verify()
                .unwrap();
            assert_eq!(st.shape, mt.shape, "{name}: shape ({threads} threads)");
            assert_eq!(
                st.closure.invariant, mt.closure.invariant,
                "{name}: S-closure witness ({threads} threads)"
            );
            assert_eq!(
                st.closure.fault_span, mt.closure.fault_span,
                "{name}: T-closure witness ({threads} threads)"
            );
            assert_eq!(
                st.closure.unguarded_constraints, mt.closure.unguarded_constraints,
                "{name}: unguarded constraints ({threads} threads)"
            );
            assert_eq!(
                st.closure.non_establishing, mt.closure.non_establishing,
                "{name}: non-establishing witnesses ({threads} threads)"
            );
            assert_eq!(
                format!("{:?}", st.theorem),
                format!("{:?}", mt.theorem),
                "{name}: theorem outcome ({threads} threads)"
            );
            assert_eq!(
                st.convergence, mt.convergence,
                "{name}: fair convergence ({threads} threads)"
            );
            assert_eq!(
                st.convergence_unfair, mt.convergence_unfair,
                "{name}: unfair convergence ({threads} threads)"
            );
            assert_eq!(
                st.worst_case_moves, mt.worst_case_moves,
                "{name}: worst-case bound ({threads} threads)"
            );
            assert_eq!(
                st.state_counts, mt.state_counts,
                "{name}: state counts ({threads} threads)"
            );
        }
    }
}

#[test]
fn worst_case_bound_is_tight_somewhere() {
    // For converging programs the bound is attained by SOME schedule: the
    // bound is a max over paths, so at least one adversarial path of that
    // length exists. We verify nondegenerate bounds appear.
    let mut rng = StdRng::seed_from_u64(99);
    let mut finite = 0;
    let mut max_bound = 0u64;
    for _ in 0..500 {
        let program = random_program(&mut rng);
        let s = random_target(&mut rng);
        let t = Predicate::always_true();
        let space = StateSpace::enumerate(&program).unwrap();
        let report = check_convergence(&space, &program, &t, &s, CheckOptions::default()).unwrap();
        if let Some(bound) = report.worst_case_moves {
            finite += 1;
            max_bound = max_bound.max(bound);
        }
    }
    // Unfair convergence is rare in this random family (cycles abound),
    // but it does occur, with nondegenerate bounds.
    assert!(finite >= 5, "finite bounds: {finite}");
    assert!(max_bound >= 1, "max bound observed: {max_bound}");
}
