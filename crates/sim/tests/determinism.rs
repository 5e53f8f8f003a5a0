//! Step-determinism regression pins for the two simulator engines.
//!
//! Both hot paths are allocation-free (in-place inbox rotation, reusable
//! buffers, slice-backed refinement lookups, a scratch ground-truth state)
//! and pick actions through the shared `RoundRobin` daemon. None of that
//! may change a single observable value: the RNG draw order, delivery
//! order, action order, and therefore every counter and the final state
//! must be bit-identical to the hand-written engines the constants below
//! were captured from; any drift is a regression.

use nonmask_program::{Predicate, Program, State};
use nonmask_protocols::diffusing::DiffusingComputation;
use nonmask_protocols::token_ring::TokenRing;
use nonmask_protocols::Tree;
use nonmask_sim::{EventConfig, EventSim, Refinement, SimConfig, Simulation};

struct Golden {
    stabilized_at_round: Option<u64>,
    rounds: u64,
    steps: u64,
    messages_delivered: u64,
    messages_dropped: u64,
    final_state: Vec<i64>,
}

fn run_ring(config: SimConfig) -> Golden {
    let ring = TokenRing::new(5, 5);
    let refinement = Refinement::new(ring.program()).unwrap();
    let corrupt = ring.program().state_from([3, 1, 4, 1, 2]).unwrap();
    let mut sim = Simulation::new(ring.program(), refinement, corrupt, config);
    sim.corrupt_process(2);
    sim.partition(&[0, 0, 0, 1, 1], 7);
    let report = sim.run_until_stable(&ring.invariant(), 3);
    Golden {
        stabilized_at_round: report.stabilized_at_round,
        rounds: report.rounds,
        steps: report.steps,
        messages_delivered: report.messages_delivered,
        messages_dropped: report.messages_dropped,
        final_state: report.final_state.slots().to_vec(),
    }
}

fn run_diffusing(config: SimConfig) -> Golden {
    let tree = Tree::binary(7);
    let dc = DiffusingComputation::new(&tree);
    let refinement = Refinement::new(dc.program()).unwrap();
    let mut sim = Simulation::new(dc.program(), refinement, dc.initial_state(), config);
    for _ in 0..10 {
        sim.round();
    }
    sim.corrupt_process(2);
    sim.corrupt_process(5);
    sim.crash_restart(6);
    let report = sim.run_until_stable(&dc.invariant(), 5);
    Golden {
        stabilized_at_round: report.stabilized_at_round,
        rounds: report.rounds,
        steps: report.steps,
        messages_delivered: report.messages_delivered,
        messages_dropped: report.messages_dropped,
        final_state: report.final_state.slots().to_vec(),
    }
}

#[test]
fn lossy_delayed_ring_golden() {
    // Lossy network + reordering delays + a partition + a process
    // corruption: every RNG consumer on the hot path fires.
    let g = run_ring(SimConfig {
        seed: 0x00D5_EA11,
        loss_rate: 0.25,
        max_delay: 3,
        ..SimConfig::default()
    });
    assert_eq!(g.stabilized_at_round, Some(3));
    assert_eq!(g.rounds, 6);
    assert_eq!(g.steps, 6);
    assert_eq!(g.messages_delivered, 17);
    assert_eq!(g.messages_dropped, 19);
    assert_eq!(g.final_state, vec![3, 3, 3, 4, 4]);
}

#[test]
fn diffusing_corruption_golden() {
    let g = run_diffusing(SimConfig {
        seed: 77,
        loss_rate: 0.1,
        max_delay: 2,
        steps_per_round: 2,
        heartbeat_period: 3,
        ..SimConfig::default()
    });
    assert_eq!(g.stabilized_at_round, Some(10));
    assert_eq!(g.rounds, 5);
    assert_eq!(g.steps, 22);
    assert_eq!(g.messages_delivered, 171);
    assert_eq!(g.messages_dropped, 16);
    assert_eq!(
        g.final_state,
        vec![1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
    );
}

/// `EventSim` counterpart of the round-engine goldens: the event queue,
/// the per-wake pick and every heartbeat broadcast consume the one seeded
/// RNG, so any change to their order moves these numbers.
fn run_events(program: &Program, s: &Predicate, initial: State, config: EventConfig) -> String {
    let refinement = Refinement::new(program).unwrap();
    let mut sim = EventSim::new(program, refinement, initial, config);
    let r = sim.run_until_stable(s, 5.0, 10_000.0);
    format!(
        "stabilized_at={:?} end_time={} steps={} delivered={} lost={} final={:?}",
        r.stabilized_at.map(f64::to_bits),
        r.end_time.to_bits(),
        r.steps,
        r.messages_delivered,
        r.messages_lost,
        r.final_state.slots()
    )
}

#[test]
fn event_engine_ring_golden() {
    let ring = TokenRing::new(5, 5);
    let corrupt = ring.program().state_from([3, 1, 4, 1, 2]).unwrap();
    let config = EventConfig {
        seed: 0x00D5_EA11,
        mean_latency: 2.0,
        loss_rate: 0.25,
        ..EventConfig::default()
    };
    assert_eq!(
        run_events(ring.program(), &ring.invariant(), corrupt, config),
        "stabilized_at=Some(4618460572246097244) end_time=4622408041237505902 \
         steps=12 delivered=40 lost=23 final=[4, 4, 3, 3, 3]"
    );
}

#[test]
fn event_engine_diffusing_golden() {
    // Two actions per process: the per-process round-robin pick matters.
    let dc = DiffusingComputation::new(&Tree::binary(7));
    let mut corrupt = dc.initial_state();
    corrupt.set(dc.color_var(2), nonmask_protocols::diffusing::RED);
    corrupt.set(dc.session_var(5), 1);
    let config = EventConfig {
        seed: 9,
        loss_rate: 0.1,
        ..EventConfig::default()
    };
    assert_eq!(
        run_events(dc.program(), &dc.invariant(), corrupt, config),
        "stabilized_at=Some(4616743855420822174) end_time=4621551951619649721 \
         steps=14 delivered=202 lost=31 final=[1, 1, 0, 1, 1, 1, 0, 1, 0, 1, 0, 1, 0, 1]"
    );
}
