//! E12 — expected vs worst-case convergence cost; E13 — network
//! sensitivity of the message-passing refinement.

use nonmask_checker::{check_convergence, expected_moves, CheckOptions, StateSpace};
use nonmask_program::scheduler::Random;
use nonmask_program::{Executor, Predicate, RunConfig};
use nonmask_protocols::diffusing::DiffusingComputation;
use nonmask_protocols::token_ring::TokenRing;
use nonmask_protocols::Tree;
use nonmask_sim::{EventConfig, EventSim, Refinement, SimConfig, Simulation};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::table::Table;

/// E12 — the adversarial worst case (longest region path) vs the expected
/// cost under a uniformly random daemon (absorbing Markov chain) vs the
/// empirical mean of simulated runs. The gap quantifies how pessimistic
/// the rank-style bounds are in practice.
pub fn e12() -> String {
    let mut t = Table::new(
        "E12: worst-case vs expected vs simulated convergence moves",
        [
            "protocol",
            "worst (adversarial)",
            "expected max (random daemon)",
            "expected mean",
            "simulated mean (200 runs)",
        ],
    );

    let mut row = |name: &str, program: &nonmask_program::Program, s: &Predicate| {
        let space = StateSpace::enumerate(program).expect("bounded");
        let t_pred = Predicate::always_true();
        let worst = check_convergence(&space, program, &t_pred, s, CheckOptions::default())
            .expect("bounds")
            .worst_case_moves;
        let em = expected_moves(&space, &t_pred, s, 1e-10, 100_000).expect("expected moves");
        // Simulated mean over uniformly random starts and schedules.
        let mut rng = StdRng::seed_from_u64(3);
        let mut total = 0u64;
        const RUNS: u64 = 200;
        for seed in 0..RUNS {
            let start = program.random_state(&mut rng);
            let report = Executor::new(program).run(
                start,
                &mut Random::seeded(seed),
                &RunConfig::default().stop_when(s, 1).max_steps(1_000_000),
            );
            total += report.steps;
        }
        t.row([
            name.to_string(),
            worst.map_or("∞".into(), |m| m.to_string()),
            format!("{:.2}", em.max()),
            format!("{:.2}", em.mean()),
            format!("{:.2}", total as f64 / RUNS as f64),
        ]);
    };

    for n in [3usize, 4, 5] {
        let ring = TokenRing::new(n, n as i64);
        row(
            &format!("token ring n={n}"),
            ring.program(),
            &ring.invariant(),
        );
    }
    for (name, tree) in [("chain-4", Tree::chain(4)), ("binary-5", Tree::binary(5))] {
        let dc = DiffusingComputation::new(&tree);
        row(&format!("diffusing {name}"), dc.program(), &dc.invariant());
    }
    t.render()
}

/// E13 — how message delay and loss stretch stabilization in the
/// refinement: median rounds to re-stabilize the n=6 token ring from a
/// fixed corrupt state, over a grid of `max_delay × loss_rate`.
pub fn e13() -> String {
    let mut t = Table::new(
        "E13: token ring (n=6) re-stabilization rounds vs network conditions",
        ["max_delay \\ loss", "loss=0.0", "loss=0.2", "loss=0.5"],
    );
    let ring = TokenRing::new(6, 6);
    let refinement = Refinement::new(ring.program()).expect("refinable");
    let corrupt = ring
        .program()
        .state_from([5, 2, 0, 4, 1, 3])
        .expect("in domain");

    for max_delay in [1u64, 2, 4, 8] {
        let mut cells = vec![format!("delay<={max_delay}")];
        for loss in [0.0f64, 0.2, 0.5] {
            let mut rounds: Vec<u64> = (0..7u64)
                .map(|seed| {
                    let config = SimConfig {
                        seed,
                        loss_rate: loss,
                        max_delay,
                        max_rounds: 100_000,
                        ..SimConfig::default()
                    };
                    let mut sim = Simulation::new(
                        ring.program(),
                        refinement.clone(),
                        corrupt.clone(),
                        config,
                    );
                    let report = sim.run_until_stable(&ring.invariant(), 3);
                    report.stabilized_at_round.unwrap_or(u64::MAX)
                })
                .collect();
            rounds.sort_unstable();
            let median = rounds[rounds.len() / 2];
            cells.push(if median == u64::MAX {
                "(never)".to_string()
            } else {
                median.to_string()
            });
        }
        t.row(cells);
    }
    t.render()
}

/// E14 — fully asynchronous execution: the event-driven engine sweeps the
/// ratio of message latency to process speed. Stabilization (in virtual
/// time) degrades gracefully as the network becomes slower than the
/// processes; convergence is never lost.
pub fn e14() -> String {
    let mut t = Table::new(
        "E14: event-driven stabilization (virtual time) vs latency/wake ratio",
        [
            "mean latency / wake",
            "ring n=6 median t",
            "diffusing binary-7 median t",
        ],
    );
    let ring = TokenRing::new(6, 6);
    let ring_ref = Refinement::new(ring.program()).expect("refinable");
    let ring_corrupt = ring
        .program()
        .state_from([5, 2, 0, 4, 1, 3])
        .expect("in domain");
    let dc = DiffusingComputation::new(&Tree::binary(7));
    let dc_ref = Refinement::new(dc.program()).expect("refinable");
    let mut dc_corrupt = dc.initial_state();
    for j in [1usize, 3, 4, 6] {
        dc_corrupt.set(dc.color_var(j), nonmask_protocols::diffusing::RED);
        dc_corrupt.set(dc.session_var(j), (j % 2) as i64);
    }

    for ratio in [0.1f64, 0.5, 2.0, 8.0] {
        let median = |program: &nonmask_program::Program,
                      refinement: &Refinement,
                      corrupt: &nonmask_program::State,
                      s: &Predicate|
         -> String {
            let mut times: Vec<f64> = (0..7u64)
                .map(|seed| {
                    let config = EventConfig {
                        seed,
                        mean_wake_interval: 1.0,
                        mean_latency: ratio,
                        ..EventConfig::default()
                    };
                    let mut sim =
                        EventSim::new(program, refinement.clone(), corrupt.clone(), config);
                    sim.run_until_stable(s, 10.0, 1_000_000.0)
                        .stabilized_at
                        .unwrap_or(f64::INFINITY)
                })
                .collect();
            times.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            let m = times[times.len() / 2];
            if m.is_finite() {
                format!("{m:.1}")
            } else {
                "(never)".to_string()
            }
        };
        t.row([
            format!("{ratio}"),
            median(ring.program(), &ring_ref, &ring_corrupt, &ring.invariant()),
            median(dc.program(), &dc_ref, &dc_corrupt, &dc.invariant()),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_never_exceeds_worst() {
        let ring = TokenRing::new(4, 4);
        let s = ring.invariant();
        let space = StateSpace::enumerate(ring.program()).unwrap();
        let t = Predicate::always_true();
        let worst = check_convergence(&space, ring.program(), &t, &s, CheckOptions::default())
            .expect("bounds")
            .worst_case_moves
            .expect("finite") as f64;
        let em = expected_moves(&space, &t, &s, 1e-10, 100_000).unwrap();
        assert!(em.converged());
        assert!(
            em.max() <= worst + 1e-9,
            "E_max {} <= worst {}",
            em.max(),
            worst
        );
        assert!(em.mean() <= em.max());
    }

    #[test]
    fn e13_stabilizes_under_all_conditions() {
        let out = e13();
        assert!(!out.contains("(never)"), "{out}");
    }

    #[test]
    fn e14_stabilizes_at_all_ratios() {
        let out = e14();
        assert!(!out.contains("(never)"), "{out}");
    }
}
