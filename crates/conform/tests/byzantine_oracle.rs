//! The conformance oracle must tolerate Byzantine runs: liars never
//! execute program actions (their lies ride the coherence layer, not
//! the step log), and every correct node's repair validates against
//! the reference transition relation even when its view holds lied
//! values — a lie is an in-domain value of the liar's variable, so a
//! correct min+1 repair computed from it is still a legal step.

use nonmask_conform::{
    check_run, run_sim, FaultSchedule, ProtocolOracle, ProtocolSpec, SimRunConfig,
};
use nonmask_graph::Topology;
use nonmask_obs::Journal;
use nonmask_protocols::{ContainmentTheory, MinPlusOne};

/// min+1 BFS on a 4-line with the liar at the far end: the safe region
/// is {0, 1} and node 2 flaps with the lie stream forever.
fn byzantine_spec() -> (MinPlusOne, ProtocolSpec) {
    let topo = Topology::line(4);
    let proto = MinPlusOne::with_byzantine(&topo, 0, &[3]);
    let spec = ProtocolSpec {
        name: "bfs-4-byz".to_string(),
        program: proto.program().clone(),
        goal: proto.model().safe_goal(),
        constraints: proto.constraints(),
    };
    (proto, spec)
}

#[test]
fn byzantine_runs_conform_without_divergence() {
    let (proto, spec) = byzantine_spec();
    let oracle = ProtocolOracle::build(&spec).expect("oracle");
    let cfg = SimRunConfig {
        byzantine: vec![3],
        byzantine_seed: 0xB12A,
        ..SimRunConfig::default()
    };
    assert!(!cfg.envelope_applies(), "liars never heal");
    let outcome = run_sim(
        &spec.program,
        &spec.goal,
        23,
        &FaultSchedule::empty(),
        &cfg,
        &Journal::disabled(),
    )
    .expect("sim infrastructure");
    assert!(outcome.stabilized, "the safe region stabilizes");
    let report = check_run(&oracle, &spec, &outcome, true);
    assert!(
        report.conforms(),
        "byzantine run flagged: {:?}",
        report.divergences
    );
    assert!(report.steps_checked > 0, "correct nodes did repair");
    // The liar's steps are absent from the log by construction: every
    // validated step was executed by a correct node.
    assert!(outcome.steps.iter().all(|s| s.site != 3));
    // Safe nodes hold their legitimate distances in the final state.
    let legit = proto.model().legit_distances();
    for (j, safe) in proto.model().safe_set().iter().enumerate() {
        if *safe {
            assert_eq!(
                outcome.final_state.get(proto.dist_var(j)) as u64,
                legit[j].unwrap()
            );
        }
    }
}

#[test]
fn byzantine_sim_runs_are_bit_identical_for_the_same_input() {
    let (_, spec) = byzantine_spec();
    let cfg = SimRunConfig {
        byzantine: vec![3],
        byzantine_seed: 7,
        ..SimRunConfig::default()
    };
    let empty = FaultSchedule::empty();
    let run = || {
        run_sim(
            &spec.program,
            &spec.goal,
            5,
            &empty,
            &cfg,
            &Journal::disabled(),
        )
    };
    let (a, b) = (run().unwrap(), run().unwrap());
    assert_eq!(a.steps, b.steps);
    assert_eq!(a.final_state, b.final_state);
}
