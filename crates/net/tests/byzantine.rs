//! Byzantine nodes over real TCP loopback: permanently malicious nodes
//! broadcast seeded arbitrary values forever, and the runtime still
//! stabilizes on the protocol's safe region — the containment property
//! the checker certifies symbolically, observed on sockets.
//!
//! The lie stream is a stateless function of (seed, node, slot,
//! heartbeat-sequence), so the k-th lie a node tells is identical for
//! every shard count and batching; the tests here pin that end to end
//! by checking the liar's final reported value against the stream at
//! its own heartbeat counter.

use std::time::Duration;

use nonmask_graph::Topology;
use nonmask_net::{run, DetectorConfig, FaultConfig, NetConfig, NetReport};
use nonmask_program::byzantine_lie_in;
use nonmask_protocols::{ContainmentTheory, MinPlusOne};

const LIE_SEED: u64 = 0xB12A;

fn byz_config(seed: u64, byzantine: Vec<usize>, shards: usize) -> NetConfig {
    NetConfig {
        seed,
        faults: FaultConfig::default(),
        byzantine,
        byzantine_seed: LIE_SEED,
        shards,
        detector: DetectorConfig {
            stable_for: Duration::from_millis(120),
            ..DetectorConfig::default()
        },
        timeout: Duration::from_secs(60),
        ..NetConfig::default()
    }
}

fn run_line_with_liar(shards: usize) -> (MinPlusOne, NetReport) {
    // line(6) with the root at 0 and the liar at 5: the safe set is
    // [T,T,T,F,F,F] and the containment radius 2.
    let topo = Topology::line(6);
    let proto = MinPlusOne::with_byzantine(&topo, 0, &[5]);
    let config = byz_config(7, vec![5], shards);
    let initial = proto.program().min_state();
    let report = run(
        proto.program(),
        &initial,
        &proto.model().safe_goal(),
        &config,
    )
    .expect("run starts");
    (proto, report)
}

#[test]
fn safe_region_stabilizes_despite_a_liar() {
    let (proto, report) = run_line_with_liar(0);
    assert!(
        report.converged,
        "safe region did not converge: {}",
        report.render()
    );
    let legit = proto.model().legit_distances();
    for (j, safe) in proto.model().safe_set().iter().enumerate() {
        if *safe {
            assert_eq!(
                report.final_state.get(proto.dist_var(j)) as u64,
                legit[j].unwrap(),
                "safe node {j} holds its legitimate distance"
            );
        }
    }
}

/// The liar's final reported value must be the stateless stream at its
/// own heartbeat counter — for every shard count. This is what makes
/// the adversary shard-invariant: the k-th lie depends only on
/// (seed, node, slot, k), never on which worker serviced the node.
#[test]
fn lie_stream_is_pinned_to_the_heartbeat_counter_across_shard_counts() {
    for shards in [1, 4, 7] {
        let (proto, report) = run_line_with_liar(shards);
        let liar = 5usize;
        let hb = report.nodes[liar].counters.heartbeats;
        assert!(
            hb > 0,
            "the liar heartbeated at least once (shards {shards})"
        );
        let var = proto.dist_var(liar);
        let expect = byzantine_lie_in(
            proto.program().var(var).domain(),
            LIE_SEED,
            liar as u64,
            var.index() as u64,
            hb - 1,
        );
        assert_eq!(
            report.final_state.get(var),
            expect,
            "liar's final value is lie #{} of the stream (shards {shards})",
            hb - 1
        );
        // And the liar executed no program action at any shard count.
        assert_eq!(report.nodes[liar].counters.steps, 0);
    }
}

/// A goal that reads the liars' own variables can never stabilize —
/// lies change at every heartbeat. The run must time out rather than
/// converge, and shut down cleanly (quiescence gates lying off).
#[test]
fn a_goal_reading_liar_variables_times_out_cleanly() {
    let topo = Topology::line(3);
    // Byzantine-free *program*: the invariant pins all three distances.
    // The net marks 1 and 2 as liars, so the pinned values flap forever.
    let proto = MinPlusOne::new(&topo, 0);
    let config = NetConfig {
        timeout: Duration::from_millis(900),
        ..byz_config(3, vec![1, 2], 2)
    };
    let initial = proto.program().min_state();
    let report = run(proto.program(), &initial, &proto.invariant(), &config).expect("run starts");
    assert!(report.timed_out, "lied-about variables cannot stabilize");
    assert_eq!(report.nodes[1].counters.steps, 0, "liars never step");
    assert_eq!(report.nodes[2].counters.steps, 0, "liars never step");
}

#[test]
fn byzantine_node_out_of_range_is_rejected() {
    let topo = Topology::line(3);
    let proto = MinPlusOne::new(&topo, 0);
    let config = byz_config(1, vec![9], 1);
    let initial = proto.program().min_state();
    let err = run(proto.program(), &initial, &proto.invariant(), &config).unwrap_err();
    assert!(err.to_string().contains("byzantine node 9"), "{err}");
}
