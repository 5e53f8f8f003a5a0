//! `net-churn-10k`: the socket runtime (`nonmask_net::run`) driving the
//! K-state token ring (n = k = 10⁴) through a churn schedule of two
//! crash-restarts and two partition/heals on a lossless transport. One
//! operation is one crash-restart episode, timed from the fault to the
//! detector's verdict.
//!
//! That latency is detector latency: the detector cannot declare an
//! episode converged before its `stable_for` window (120 ms) has passed,
//! so every figure carries that floor until repair time is stamped inside
//! the runtime. The traced run reports the floor itself
//! (`net.detect_floor_ms`, from the initial and heal episodes) and the
//! excess over it (`net.recover_excess_ms`).

use std::time::{Duration, Instant};

use nonmask_net::{run, DetectorConfig, NetConfig, NetEvent};
use nonmask_program::State;
use nonmask_protocols::token_ring::TokenRing;

use crate::workload::{Cx, Scale, TrialOutcome, Workload};

/// Seed stream of the per-trial restart-state seeds.
const NET_STREAM: u64 = 0x2E7;

/// The detector window every episode latency is floored at.
pub const STABLE_FOR: Duration = Duration::from_millis(120);

/// Episode label prefix of crash-restart episodes.
pub const CRASH_LABEL: &str = "crash-restart";

/// The net workload.
pub struct NetChurn {
    nodes: usize,
}

impl NetChurn {
    /// The ring size for `scale`.
    pub fn new(scale: Scale) -> Self {
        NetChurn {
            nodes: match scale {
                Scale::Full => 10_000,
                Scale::Tiny => 24,
            },
        }
    }
}

/// The ring, its legitimate all-zero start, and the run configuration.
pub struct NetInput {
    ring: TokenRing,
    initial: State,
    config: NetConfig,
}

/// Two crash-restarts and two partitions; each event waits for the
/// previous episode to converge, so a trial has five episodes.
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

impl Workload for NetChurn {
    type Input = NetInput;

    const WAIT_MS: f64 = STABLE_FOR.as_millis() as f64;

    fn prepare(&self, _cx: &Cx) -> Result<NetInput, String> {
        let n = self.nodes;
        let ring = TokenRing::new(n, n as i64);
        let initial = ring
            .program()
            .state_from(vec![0; n])
            .map_err(|e| e.to_string())?;
        // Fast ticks, a short cooldown and sparse heartbeats: the lossless
        // transport needs heartbeats only to heal post-partition staleness.
        let config = NetConfig {
            shards: crate::THREADS,
            tick: Duration::from_micros(500),
            cooldown_ticks: 2,
            heartbeat_every: 400,
            detector: DetectorConfig {
                stable_for: STABLE_FOR,
                stable_fraction: 0.9,
                ..DetectorConfig::default()
            },
            timeout: Duration::from_secs(120),
            events: churn(n),
            ..NetConfig::default()
        };
        Ok(NetInput {
            ring,
            initial,
            config,
        })
    }

    fn trial(&self, input: &NetInput, cx: &Cx) -> Result<TrialOutcome, String> {
        let config = NetConfig {
            seed: rand::split_seed(rand::split_seed(cx.seed, NET_STREAM), cx.index),
            journal: cx.journal.clone(),
            ..input.config.clone()
        };
        let started = Instant::now();
        let report = {
            let _span = cx.span("net.run");
            run(
                input.ring.program(),
                &input.initial,
                &input.ring.invariant(),
                &config,
            )
            .map_err(|e| e.to_string())?
        };
        let total = started.elapsed();
        cx.counter("net_wall_us", report.wall.as_micros() as u64);
        cx.counter("stable_for_us", STABLE_FOR.as_micros() as u64);

        let expected = 1 + config.events.len() as u64;
        let converged = report.episodes.iter().filter(|e| e.latency().is_some());
        let mut failed = expected.saturating_sub(converged.count() as u64);
        if report.timed_out || !input.ring.invariant().holds(&report.final_state) {
            eprintln!(
                "net-churn: timed_out={} final invariant holds={}",
                report.timed_out,
                input.ring.invariant().holds(&report.final_state)
            );
            failed = expected;
        }
        Ok(TrialOutcome {
            latency_ms: report
                .episodes
                .iter()
                .filter(|e| e.label.starts_with(CRASH_LABEL))
                .filter_map(|e| e.latency())
                .map(|d| d.as_secs_f64() * 1e3)
                .collect(),
            setup_s: Some(total.saturating_sub(report.wall).as_secs_f64()),
            attempted: expected,
            failed,
        })
    }
}
