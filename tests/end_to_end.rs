//! End-to-end integration across all crates: design → verify → execute →
//! inject faults → refine to message passing → run on threads.

use nonmask_checker::{check_convergence, CheckOptions, StateSpace};
use nonmask_program::fault::BurstCorruption;
use nonmask_program::scheduler::{Adversarial, Random, RoundRobin};
use nonmask_program::{Executor, Predicate, RunConfig, StopReason, TransientCorruption};
use nonmask_protocols::diffusing::DiffusingComputation;
use nonmask_protocols::token_ring::TokenRing;
use nonmask_protocols::Tree;
use nonmask_sim::threaded::run_threaded;
use nonmask_sim::{Refinement, SimConfig, Simulation};

/// The full lifecycle on one protocol: verification, fault-free closure,
/// fault recovery, refinement.
#[test]
fn diffusing_lifecycle() {
    let tree = Tree::binary(6);
    let dc = DiffusingComputation::new(&tree);
    let design = dc.design().unwrap();

    // 1. Verified tolerant.
    let report = design.verify().unwrap();
    assert!(report.is_tolerant());

    // 2. Fault-free runs keep S (closure), forever.
    let s = dc.invariant();
    let run = Executor::new(dc.program()).run(
        dc.initial_state(),
        &mut RoundRobin::new(),
        &RunConfig::default()
            .max_steps(500)
            .watch(&s)
            .validate_writes(true)
            .validate_domains(true),
    );
    assert_eq!(run.stop, StopReason::MaxSteps);
    assert_eq!(run.watch_hits[0], run.steps, "S held after every step");

    // 3. Burst corruption recovers.
    let mut faults = BurstCorruption::new([100, 300], 5, 7);
    let run = Executor::new(dc.program()).run_with_faults(
        dc.initial_state(),
        &mut Random::seeded(3),
        &mut faults,
        &RunConfig::default().max_steps(2_000).watch(&s),
    );
    assert!(run.fault_events > 0);
    assert!(s.holds(&run.final_state), "re-stabilized by the end");

    // 4. Message-passing refinement recovers too.
    let refinement = Refinement::new(dc.program()).unwrap();
    let mut sim = Simulation::new(
        dc.program(),
        refinement.clone(),
        dc.initial_state(),
        SimConfig {
            seed: 1,
            loss_rate: 0.1,
            ..SimConfig::default()
        },
    );
    sim.corrupt_process(3);
    sim.corrupt_process(5);
    let sim_report = sim.run_until_stable(&s, 5);
    assert!(sim_report.stabilized_at_round.is_some());

    // 5. Real threads observe S on a consistent snapshot.
    let threaded = run_threaded(
        dc.program(),
        &refinement,
        &dc.initial_state(),
        50_000_000,
        Some(&s),
    );
    assert!(threaded.stopped_on_predicate);
    assert!(s.holds(&threaded.final_state));
}

/// The adversarial scheduler cannot defeat the token ring (it converges
/// under the unfair daemon), and every adversarial run respects the
/// checker's worst-case bound.
#[test]
fn token_ring_adversarial_respects_bound() {
    let ring = TokenRing::new(4, 4);
    let s = ring.invariant();
    let space = StateSpace::enumerate(ring.program()).unwrap();
    let t = Predicate::always_true();
    let bound = check_convergence(&space, ring.program(), &t, &s, CheckOptions::default())
        .unwrap()
        .worst_case_moves
        .expect("finite bound");

    // Try several adversarial priority orders from several corrupt states.
    for (i, id) in space.ids().enumerate() {
        if i % 17 != 0 {
            continue; // sample the space
        }
        let start = space.state(id);
        for perm in 0..4u32 {
            let ids: Vec<_> = ring.program().action_ids().collect();
            let order: Vec<_> = (0..ids.len())
                .map(|i| ids[(i + perm as usize) % ids.len()])
                .collect();
            let mut sched = Adversarial::with_priority(order);
            let report = Executor::new(ring.program()).run(
                start.clone(),
                &mut sched,
                &RunConfig::default().stop_when(&s, 1).max_steps(bound + 1),
            );
            assert!(
                report.stop.is_stabilized() || s.holds(&report.final_state),
                "bound {bound} exceeded from {:?} with priority shift {perm}",
                start.slots()
            );
        }
    }
}

/// Sustained faults on the ring: availability stays high at low rates.
#[test]
fn token_ring_availability_under_load() {
    let ring = TokenRing::new(5, 5);
    let s = ring.invariant();
    let mut faults = TransientCorruption::new(0.005, 13);
    let report = Executor::new(ring.program()).run_with_faults(
        ring.initial_state(),
        &mut Random::seeded(5),
        &mut faults,
        &RunConfig::default().max_steps(20_000).watch(&s),
    );
    let availability = report.availability(0).unwrap();
    assert!(availability > 0.95, "availability {availability}");
}

/// The checker's worst-case bound is consistent between the windowed
/// design's report and a direct call.
#[test]
fn windowed_ring_bound_consistency() {
    let (design, _) = nonmask_protocols::token_ring::windowed_design(3, 3).unwrap();
    let report = design.verify().unwrap();
    let space = StateSpace::enumerate(design.program()).unwrap();
    let direct = check_convergence(
        &space,
        design.program(),
        design.fault_span(),
        &design.invariant(),
        CheckOptions::default(),
    )
    .unwrap();
    assert_eq!(report.worst_case_moves, direct.worst_case_moves);
}

/// States and domains serialize through `nonmask_program::json` (the
/// in-tree replacement for the old `serde` feature).
#[test]
fn json_roundtrips() {
    use nonmask_program::json;
    use nonmask_program::{Domain, State};
    let s = State::new(vec![3, 1, 4]);
    let back = json::state_from_json(&json::state_to_json(&s)).unwrap();
    assert_eq!(s, back);

    for d in [
        Domain::Bool,
        Domain::range(0, 7),
        Domain::enumeration(["green", "red"]),
        Domain::Unbounded,
    ] {
        let back = json::domain_from_json(&json::domain_to_json(&d)).unwrap();
        assert_eq!(d, back);
    }
}

/// A divergence witness can be expanded into a replayable counterexample
/// path from an initial state into the livelock.
#[test]
fn divergence_counterexample_path() {
    use nonmask_checker::{shortest_path_to, ConvergenceResult};
    let (design, _) = nonmask_protocols::xyz::interfering().unwrap();
    let program = design.program();
    let space = StateSpace::enumerate(program).unwrap();
    let s = design.invariant();
    let t = Predicate::always_true();
    let ConvergenceResult::Divergence { states, .. } =
        check_convergence(&space, program, &t, &s, CheckOptions::default())
            .unwrap()
            .weakly_fair
    else {
        panic!("interfering design should diverge");
    };
    let path = shortest_path_to(&space, &t, &states)
        .unwrap()
        .expect("reachable livelock");
    assert!(!path.is_empty());
    assert!(
        path[0].action.is_none(),
        "the start state has no incoming action"
    );
    // The path is a real computation that replays step by step: each
    // recorded action is enabled in the previous state and produces
    // exactly the next recorded state.
    for w in path.windows(2) {
        let a = w[1].action.expect("every later step records its action");
        assert!(
            program.enabled_actions(&w[0].state).contains(&a),
            "recorded action is not enabled"
        );
        assert_eq!(
            program.action(a).successor(&w[0].state),
            w[1].state,
            "replaying the recorded action diverges from the witness path"
        );
    }
    assert!(
        states.contains(&path.last().unwrap().state),
        "path ends in the livelock"
    );
}

/// Doubling `steps_per_round` never slows down stabilization (in rounds).
#[test]
fn sim_steps_per_round_speedup() {
    let ring = TokenRing::new(6, 6);
    let refinement = Refinement::new(ring.program()).unwrap();
    let corrupt = ring.program().state_from([5, 2, 0, 4, 1, 3]).unwrap();
    let rounds = |spr: usize| {
        let mut sim = Simulation::new(
            ring.program(),
            refinement.clone(),
            corrupt.clone(),
            SimConfig {
                steps_per_round: spr,
                ..SimConfig::default()
            },
        );
        sim.run_until_stable(&ring.invariant(), 3)
            .stabilized_at_round
            .expect("stabilizes")
    };
    assert!(rounds(2) <= rounds(1));
}

/// The convergence stair also verifies under the unfair daemon for the
/// countdown-style stages of the windowed ring.
#[test]
fn stair_verifies_unfair_too() {
    use nonmask::ConvergenceStair;
    use nonmask_checker::Fairness;
    let (design, handles) = nonmask_protocols::token_ring::windowed_design(3, 2).unwrap();
    let program = design.program().clone();
    let space = StateSpace::enumerate(&program).unwrap();
    let xs = handles.x.clone();
    let layer1 = Predicate::new("layer1", xs.iter().copied(), {
        let xs = xs.clone();
        move |s| (1..xs.len()).all(|j| s.get(xs[j - 1]) >= s.get(xs[j]))
    });
    let stair = ConvergenceStair::new([Predicate::always_true(), layer1, design.invariant()]);
    let report = stair.verify(&space, &program, Fairness::Unfair).unwrap();
    assert!(report.ok(), "{report:?}");
}

/// The event-driven engine's hold-window resets when the predicate is
/// re-violated before the window elapses.
#[test]
fn event_engine_window_resets() {
    use nonmask_sim::{EventConfig, EventSim};
    let ring = TokenRing::new(4, 4);
    let refinement = Refinement::new(ring.program()).unwrap();
    let corrupt = ring.program().state_from([2, 0, 3, 1]).unwrap();
    let mut sim = EventSim::new(
        ring.program(),
        refinement,
        corrupt,
        EventConfig {
            seed: 5,
            ..EventConfig::default()
        },
    );
    let report = sim.run_until_stable(&ring.invariant(), 3.0, 50_000.0);
    let at = report.stabilized_at.expect("stabilizes");
    // The invariant held continuously for the full window after `at`.
    assert!(report.end_time - at >= 3.0);
    // And the invariant is closed, so the final state is legitimate.
    assert_eq!(ring.privileges(&report.final_state).len(), 1);
}

/// CandidateTriple closure checking flags a fault span that program
/// actions escape.
#[test]
fn candidate_triple_detects_unclosed_span() {
    use nonmask::CandidateTriple;
    let ring = TokenRing::new(3, 3);
    let x0 = ring.counter_var(0);
    // "x.0 <= 1" is not closed: the root increments x.0 to 2.
    let bogus_span = Predicate::new("x0<=1", [x0], move |s| s.get(x0) <= 1);
    let triple = CandidateTriple::new(ring.program().clone(), ring.invariant(), bogus_span);
    let space = StateSpace::enumerate(triple.program()).unwrap();
    let (_, t_violation) = triple.check_closure(&space).unwrap();
    assert!(t_violation.is_some(), "the bogus span is escaped");
}
