//! Reactor-runtime integration tests: typed surfacing of a dead worker,
//! wall-clock heartbeat cadence, shard-count invariance of the logical
//! outcome, and convergence of large rings under churn.

use std::time::Duration;

use nonmask_net::{run, DetectorConfig, FaultConfig, NetConfig, NetError, NetEvent};
use nonmask_protocols::token_ring::TokenRing;

/// A worker thread that dies must surface as the typed
/// `ControlLoopFailed` error carrying the panic message — not as a
/// panic in `run`, and not masked by the controller's secondary timeout.
#[test]
fn sabotaged_worker_is_a_typed_control_loop_failure() {
    let ring = TokenRing::new(4, 4);
    let initial = ring.program().state_from([0, 0, 0, 0]).expect("in domain");
    let config = NetConfig {
        timeout: Duration::from_millis(400),
        sabotage_worker: Some(0),
        ..NetConfig::default()
    };
    match run(ring.program(), &initial, &ring.invariant(), &config) {
        Err(NetError::ControlLoopFailed(msg)) => {
            assert!(msg.contains("sabotaged"), "panic payload preserved: {msg}");
        }
        other => panic!("expected ControlLoopFailed, got {other:?}"),
    }
}

/// Heartbeat cadence is pinned to the wall clock: over a fixed window,
/// each node's beat count must match `window / (tick * heartbeat_every)`
/// closely in both directions. Absolute next-deadline scheduling holds
/// this under load; per-iteration sleeps would drift low by the loop's
/// work time every tick.
#[test]
fn heartbeat_cadence_holds_against_wall_clock() {
    let ring = TokenRing::new(3, 3);
    let initial = ring.program().state_from([0, 0, 0]).expect("in domain");
    let window = Duration::from_millis(500);
    let tick = Duration::from_micros(500);
    let hb_every = 4u64;
    let config = NetConfig {
        tick,
        heartbeat_every: hb_every,
        // A detector window longer than the timeout keeps the run open
        // for the whole measurement window.
        detector: DetectorConfig {
            stable_for: Duration::from_secs(60),
            ..DetectorConfig::default()
        },
        timeout: window,
        ..NetConfig::default()
    };
    let report = run(ring.program(), &initial, &ring.invariant(), &config).expect("runs");
    assert!(report.timed_out, "the run must span the whole window");
    let expected = (window.as_micros() / (tick * hb_every as u32).as_micros()) as u64;
    for node in &report.nodes {
        let beats = node.counters.heartbeats;
        assert!(
            beats >= expected * 3 / 5,
            "node {} beat {beats} times in {window:?}, expected ~{expected}: cadence drifted",
            node.node
        );
        assert!(
            beats <= expected * 6 / 5,
            "node {} beat {beats} times in {window:?}, expected ~{expected}: cadence ran hot",
            node.node
        );
    }
}

/// A 12-node ring spread over 4 shard workers converges through hostile
/// faults, a crash-restart, and a partition/heal — every episode, with
/// the fault bookkeeping intact.
#[test]
fn four_shards_converge_under_churn() {
    let ring = TokenRing::new(12, 12);
    let initial = ring
        .program()
        .state_from([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8])
        .expect("in domain");
    let mut groups = vec![0usize; 6];
    groups.extend(vec![1usize; 6]);
    let config = NetConfig {
        seed: 7,
        shards: 4,
        faults: FaultConfig::hostile(21, 0.15),
        events: vec![
            NetEvent::CrashRestart {
                node: 5,
                at_least: Duration::ZERO,
                down: Duration::from_millis(10),
            },
            NetEvent::Partition {
                groups,
                at_least: Duration::ZERO,
                heal_after: Duration::from_millis(20),
            },
        ],
        timeout: Duration::from_secs(30),
        ..NetConfig::default()
    };
    let report = run(ring.program(), &initial, &ring.invariant(), &config).expect("runs");
    assert!(
        report.converged,
        "every episode converged:\n{}",
        report.render()
    );
    assert_eq!(report.episodes.len(), 3);
    assert!(report.episodes.iter().all(|e| e.latency().is_some()));
    assert!(ring.invariant().holds(&report.final_state));
    let crashes: u64 = report.nodes.iter().map(|n| n.counters.crashes).sum();
    assert_eq!(crashes, 1, "exactly the scheduled crash");
    let dropped: u64 = report.nodes.iter().map(|n| n.counters.dropped).sum();
    assert!(dropped > 0, "hostile faults actually fired");
}

/// The shard count is physical transport only: a faultless run reaches
/// the same logical outcome (convergence, exact sent == received
/// balance, invariant final state) whether the nodes share one worker or
/// are spread over several.
#[test]
fn shard_count_is_invisible_to_logical_outcomes() {
    for shards in [1usize, 3] {
        let ring = TokenRing::new(9, 9);
        let initial = ring
            .program()
            .state_from([8, 6, 7, 5, 3, 0, 1, 2, 4])
            .expect("in domain");
        let config = NetConfig {
            seed: 11,
            shards,
            faults: FaultConfig::default(),
            timeout: Duration::from_secs(20),
            ..NetConfig::default()
        };
        let report = run(ring.program(), &initial, &ring.invariant(), &config).expect("runs");
        assert!(report.converged, "shards={shards}:\n{}", report.render());
        assert!(ring.invariant().holds(&report.final_state));
        let sent: u64 = report.nodes.iter().map(|n| n.counters.sent).sum();
        let received: u64 = report.nodes.iter().map(|n| n.counters.received).sum();
        assert_eq!(
            sent, received,
            "shards={shards}: a faultless run loses nothing in flight"
        );
    }
}

/// Two crash-restarts and two partition/heals; each event waits for the
/// previous episode to converge, so a run has five episodes.
fn churn(n: usize) -> Vec<NetEvent> {
    let half: Vec<usize> = (0..n).map(|i| usize::from(i >= n / 2)).collect();
    let shifted: Vec<usize> = (0..n)
        .map(|i| usize::from((i + n / 4) % n >= n / 2))
        .collect();
    let crash = |node| NetEvent::CrashRestart {
        node,
        at_least: Duration::ZERO,
        down: Duration::from_millis(20),
    };
    let partition = |groups| NetEvent::Partition {
        groups,
        at_least: Duration::ZERO,
        heal_after: Duration::from_millis(30),
    };
    vec![
        crash(n / 3),
        partition(half),
        crash(2 * n / 3),
        partition(shifted),
    ]
}

/// The logical outcome of a churn run: everything but wall-clock
/// latencies and traffic counters, which depend on scheduling.
#[derive(Debug, PartialEq)]
struct Outcome {
    nodes: usize,
    converged: bool,
    invariant_holds: bool,
    /// Label and converged flag of every episode.
    episodes: Vec<(String, bool)>,
    crashes: u64,
}

/// An `n`-node K-state ring (`k = n`) run from its legitimate all-zero
/// state through [`churn`] on a lossless transport, with the timing the
/// `net-churn-10k` benchmark workload uses. Asserts that every episode
/// converged and the final state is legitimate.
fn churn_run(n: usize, seed: u64, shards: usize) -> Outcome {
    let ring = TokenRing::new(n, n as i64);
    let initial = ring.program().state_from(vec![0; n]).expect("in domain");
    let config = NetConfig {
        seed,
        shards,
        tick: Duration::from_micros(500),
        cooldown_ticks: 2,
        heartbeat_every: 400,
        detector: DetectorConfig {
            stable_for: Duration::from_millis(120),
            stable_fraction: 0.9,
            ..DetectorConfig::default()
        },
        timeout: Duration::from_secs(120),
        events: churn(n),
        ..NetConfig::default()
    };
    let report = run(ring.program(), &initial, &ring.invariant(), &config).expect("runs");
    let outcome = Outcome {
        nodes: report.nodes.len(),
        converged: report.converged && !report.timed_out,
        invariant_holds: ring.invariant().holds(&report.final_state),
        episodes: report
            .episodes
            .iter()
            .map(|e| (e.label.clone(), e.latency().is_some()))
            .collect(),
        crashes: report.nodes.iter().map(|x| x.counters.crashes).sum(),
    };
    let label = format!("n={n} seed={seed:#x} shards={shards}");
    assert!(outcome.converged, "{label}:\n{}", report.render());
    assert!(outcome.invariant_holds, "{label}: final state illegitimate");
    assert_eq!(outcome.episodes.len(), 5, "{label}: {:?}", outcome.episodes);
    assert!(
        outcome.episodes.iter().all(|(_, converged)| *converged),
        "{label}: {:?}",
        outcome.episodes
    );
    outcome
}

/// A 100-node ring converges through every churn episode on one shard
/// and on two, with the same logical outcome.
#[test]
fn hundred_node_churn_outcome_is_shard_invariant() {
    let one = churn_run(100, 0xBE7_0001, 1);
    let two = churn_run(100, 0xBE7_0001, 2);
    assert_eq!(one, two);
    assert_eq!(one.crashes, 2, "exactly the scheduled crashes");
}

/// Five seeds each at 10^2 and 10^3 nodes; the 10^4-node run is the
/// `net-churn-10k` benchmark workload, which exits 2 on any unconverged
/// episode.
#[test]
#[ignore = "ten churn runs of up to a thousand nodes; run with --ignored"]
fn churn_converges_at_a_hundred_and_a_thousand_nodes() {
    for n in [100, 1000] {
        for trial in 0..5 {
            churn_run(n, 0xBE7_1000 + trial, 0);
        }
    }
}
