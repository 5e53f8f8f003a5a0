//! Planted-bug self-test: prove the harness can actually catch a
//! divergent implementation, not merely bless healthy ones.
//!
//! Built only with `--features planted-bug`: the token-ring mutant whose
//! root increments by two is executed by the simulator while the healthy
//! ring serves as the oracle. The harness must (a) flag the divergence
//! as an invalid step the moment the mutated action fires, (b) shrink
//! the seeded fault schedule to a ≤5-event reproducer, and (c) replay
//! the shrunk schedule to the bit-identical divergence — twice.
#![cfg(feature = "planted-bug")]

use nonmask_conform::{
    check_run, run_sim, shrink_schedule, FaultSchedule, ProtocolOracle, ProtocolSpec, SimRunConfig,
};
use nonmask_obs::Journal;
use nonmask_program::Predicate;

fn harness() -> (ProtocolSpec, nonmask_program::Program, ProtocolOracle) {
    let spec = ProtocolSpec::token_ring(4, 4);
    let mutant = ProtocolSpec::token_ring_mutant_program(4, 4);
    let oracle = ProtocolOracle::build(&spec).expect("oracle");
    (spec, mutant, oracle)
}

/// Fixed horizon so the token always revisits the mutated root action.
fn horizon_cfg() -> (Predicate, SimRunConfig) {
    (
        Predicate::always_false(),
        SimRunConfig {
            max_rounds: 60,
            ..SimRunConfig::default()
        },
    )
}

#[test]
fn the_mutant_is_detected_as_a_wrong_effect() {
    let (spec, mutant, oracle) = harness();
    let (never, cfg) = horizon_cfg();
    let outcome = run_sim(
        &mutant,
        &never,
        7,
        &FaultSchedule::empty(),
        &cfg,
        &Journal::disabled(),
    )
    .unwrap();
    let report = check_run(&oracle, &spec, &outcome, false);
    assert!(!report.conforms(), "planted bug went undetected");
    let first = &report.divergences[0];
    assert_eq!(first.kind, "invalid-step");
    assert!(
        first.detail.contains("pass@0"),
        "divergence should name the mutated root action: {first}"
    );
}

#[test]
fn the_schedule_shrinks_to_at_most_five_events_and_replays_deterministically() {
    let (spec, mutant, oracle) = harness();
    let (never, cfg) = horizon_cfg();
    let seed = 11;
    let divergences_of = |schedule: &FaultSchedule| {
        let outcome = run_sim(&mutant, &never, seed, schedule, &cfg, &Journal::disabled()).unwrap();
        check_run(&oracle, &spec, &outcome, false).divergences
    };

    let schedule = FaultSchedule::random(&spec.program, 4, seed, 8, 40);
    assert!(
        !divergences_of(&schedule).is_empty(),
        "the full schedule must already diverge"
    );
    let shrunk = shrink_schedule(&schedule, |s| !divergences_of(s).is_empty());
    assert!(
        shrunk.len() <= 5,
        "shrunk schedule has {} events (> 5):\n{}",
        shrunk.len(),
        shrunk.render()
    );
    // The root misfires with no faults at all, so ddmin should reach
    // the true minimum.
    assert!(shrunk.is_empty(), "expected the empty schedule");

    // Deterministic reproducer: two replays, bit-identical divergences.
    let first = divergences_of(&shrunk);
    let second = divergences_of(&shrunk);
    assert!(!first.is_empty());
    assert_eq!(
        first, second,
        "replay of the shrunk schedule must be deterministic"
    );

    // And the triple survives serialization: parse(render(s)) replays
    // to the same divergences.
    let reparsed = FaultSchedule::parse(&shrunk.render()).unwrap();
    assert_eq!(divergences_of(&reparsed), first);
}

/// The second planted bug, on the spanning tree: node 2 adopts node 1
/// as its parent unconditionally — the "Byzantine node accepted as
/// parent" mistake. The healthy 4-ring spec is the oracle; the wrong
/// effect surfaces the first time node 2 repairs while its other
/// neighbor is strictly closer to the root.
#[test]
fn the_trusting_parent_mutant_is_detected_as_a_wrong_effect() {
    let spec = ProtocolSpec::spanning_tree();
    let mutant = ProtocolSpec::spanning_tree_mutant_program(2, 1);
    let oracle = ProtocolOracle::build(&spec).expect("oracle");
    let (never, cfg) = horizon_cfg();
    let outcome = run_sim(
        &mutant,
        &never,
        1,
        &FaultSchedule::empty(),
        &cfg,
        &Journal::disabled(),
    )
    .unwrap();
    let report = check_run(&oracle, &spec, &outcome, false);
    assert!(!report.conforms(), "planted parent bug went undetected");
    let first = &report.divergences[0];
    assert_eq!(first.kind, "invalid-step");
    assert!(
        first.detail.contains("adopt@2"),
        "divergence should name the trusting node's repair: {first}"
    );
}

#[test]
fn the_trusting_parent_schedule_shrinks_and_replays_deterministically() {
    let spec = ProtocolSpec::spanning_tree();
    let mutant = ProtocolSpec::spanning_tree_mutant_program(2, 1);
    let oracle = ProtocolOracle::build(&spec).expect("oracle");
    let (never, cfg) = horizon_cfg();
    let seed = 4;
    let divergences_of = |schedule: &FaultSchedule| {
        let outcome = run_sim(&mutant, &never, seed, schedule, &cfg, &Journal::disabled()).unwrap();
        check_run(&oracle, &spec, &outcome, false).divergences
    };

    let schedule = FaultSchedule::random(&spec.program, 4, seed, 8, 40);
    assert!(
        !divergences_of(&schedule).is_empty(),
        "the full schedule must already diverge"
    );
    let shrunk = shrink_schedule(&schedule, |s| !divergences_of(s).is_empty());
    assert!(
        shrunk.len() <= 5,
        "shrunk schedule has {} events (> 5):\n{}",
        shrunk.len(),
        shrunk.render()
    );
    // Seed 4's initial state already has node 3 closer to the root
    // than node 1, so the trusting repair misfires with no faults at
    // all and ddmin reaches the true minimum.
    assert!(shrunk.is_empty(), "expected the empty schedule");

    let first = divergences_of(&shrunk);
    let second = divergences_of(&shrunk);
    assert!(!first.is_empty());
    assert_eq!(first, second, "shrunk replay must be deterministic");
}
