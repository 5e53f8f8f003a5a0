//! Convergence-cost measurements.

use nonmask_checker::{check_convergence, CheckOptions, ConvergenceReport, Fairness, StateSpace};
use nonmask_program::scheduler::{Random, RoundRobin};
use nonmask_program::{Executor, Predicate, Program, RunConfig};
use nonmask_protocols::diffusing::DiffusingComputation;
use nonmask_protocols::three_state::ThreeState;
use nonmask_protocols::token_ring::TokenRing;
use nonmask_protocols::Tree;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::table::Table;

/// E4 — the rank argument of Theorem 1, measured: after corrupting `k`
/// nodes of a diffusing computation, how many merged propagate/repair
/// executions occur before `S` first holds, against the rank-sum bound
/// `Σ_j rank(j)` (each edge's action quiesces in rank order).
pub fn e4() -> String {
    let mut t = Table::new(
        "E4: diffusing recovery cost vs the Theorem-1 rank argument",
        [
            "tree",
            "corrupted",
            "steps to S",
            "combined execs",
            "Σ ranks (non-root)",
        ],
    );
    for (name, tree) in [
        ("chain-6", Tree::chain(6)),
        ("star-6", Tree::star(6)),
        ("binary-7", Tree::binary(7)),
        ("binary-15", Tree::binary(15)),
    ] {
        let dc = DiffusingComputation::new(&tree);
        let design = dc.design().expect("design");
        let graph = design.constraint_graph().expect("graph");
        let ranks = graph.ranks().expect("out-tree ranks");
        let rank_sum: u32 = graph.edges().iter().map(|e| ranks[e.to().index()]).sum();
        let s = dc.invariant();
        let mut rng = StdRng::seed_from_u64(11);
        for k in [1, tree.len() / 2, tree.len()] {
            // Start legitimate, corrupt k random nodes' variables.
            let mut state = dc.initial_state();
            for _ in 0..k {
                let j = rand::Rng::gen_range(&mut rng, 0..tree.len());
                let cv = dc.color_var(j);
                let sv = dc.session_var(j);
                state.set(cv, dc.program().var(cv).domain().sample(&mut rng));
                state.set(sv, dc.program().var(sv).domain().sample(&mut rng));
            }
            let report = Executor::new(dc.program()).run(
                state,
                &mut RoundRobin::new(),
                &RunConfig::default().stop_when(&s, 1).max_steps(100_000),
            );
            t.row([
                name.to_string(),
                k.to_string(),
                report.steps.to_string(),
                report.kind_counts.combined.to_string(),
                rank_sum.to_string(),
            ]);
        }
    }
    t.render()
}

/// E5 — diffusing-computation convergence scaling: message-passing rounds
/// to re-stabilize after corrupting half the nodes, per tree shape and
/// size (median of 5 seeds).
pub fn e5() -> String {
    use nonmask_sim::{Refinement, SimConfig, Simulation};
    let mut t = Table::new(
        "E5: diffusing re-stabilization vs tree size/shape (message passing)",
        ["shape", "n", "height", "median rounds", "median messages"],
    );
    type TreeMaker = fn(usize) -> Tree;
    let shapes: [(&str, TreeMaker); 3] = [
        ("chain", Tree::chain),
        ("star", Tree::star),
        ("binary", Tree::binary),
    ];
    for (shape, mk) in shapes {
        for n in [3usize, 7, 15, 31] {
            let tree = mk(n);
            let dc = DiffusingComputation::new(&tree);
            let refinement = Refinement::new(dc.program()).expect("refinable");
            let mut rounds = Vec::new();
            let mut messages = Vec::new();
            for seed in 0..5u64 {
                let mut sim = Simulation::new(
                    dc.program(),
                    refinement.clone(),
                    dc.initial_state(),
                    SimConfig {
                        seed,
                        ..SimConfig::default()
                    },
                );
                for _ in 0..3 {
                    sim.round();
                }
                for j in 0..n / 2 + 1 {
                    sim.corrupt_process(j * 2 % n);
                }
                let before_msgs = sim.messages_delivered();
                let report = sim.run_until_stable(&dc.invariant(), 3);
                rounds.push(
                    report
                        .stabilized_at_round
                        .map_or(u64::MAX, |r| report.rounds.min(r + 3)),
                );
                messages.push(report.messages_delivered - before_msgs);
            }
            rounds.sort_unstable();
            messages.sort_unstable();
            t.row([
                shape.to_string(),
                n.to_string(),
                tree.height().to_string(),
                rounds[2].to_string(),
                messages[2].to_string(),
            ]);
        }
    }
    t.render()
}

/// E6 — token-ring stabilization cost vs ring size, plus the K-vs-n
/// stabilization crossover (Dijkstra's `K >= n` condition, probed
/// exhaustively).
pub fn e6() -> String {
    let mut t = Table::new(
        "E6a: token-ring stabilization cost (random corrupt starts, k=n)",
        [
            "n",
            "median steps to S",
            "max steps (20 trials)",
            "worst-case bound (checker)",
        ],
    );
    for n in [3usize, 4, 5, 6, 8] {
        let ring = TokenRing::new(n, n as i64);
        let s = ring.invariant();
        let mut steps: Vec<u64> = Vec::new();
        let mut rng = StdRng::seed_from_u64(5);
        for trial in 0..20u64 {
            let state = ring.program().random_state(&mut rng);
            let report = Executor::new(ring.program()).run(
                state,
                &mut Random::seeded(trial),
                &RunConfig::default().stop_when(&s, 1).max_steps(1_000_000),
            );
            steps.push(report.steps);
        }
        steps.sort_unstable();
        let bound = if n <= 5 {
            stabilizing(ring.program(), &s)
                .worst_case_moves
                .map_or("∞".to_string(), |m| m.to_string())
        } else {
            "(state space too large)".to_string()
        };
        t.row([
            n.to_string(),
            steps[steps.len() / 2].to_string(),
            steps[steps.len() - 1].to_string(),
            bound,
        ]);
    }
    let mut out = t.render();

    let mut t2 = Table::new(
        "E6b: does the mod-K ring stabilize? (weakly fair daemon, exhaustive)",
        ["n \\ k", "k=2", "k=3", "k=4", "k=5"],
    );
    for n in [3usize, 4, 5] {
        let mut cells = vec![format!("n={n}")];
        for k in [2i64, 3, 4, 5] {
            let ring = TokenRing::new(n, k);
            let r = stabilizing(ring.program(), &ring.invariant());
            let yes = r.verdict(Fairness::WeaklyFair).converges();
            cells.push(if yes { "yes" } else { "NO" }.to_string());
        }
        t2.row(cells);
    }
    out.push('\n');
    out.push_str(&t2.render());

    let mut t3 = Table::new(
        "E6c: Dijkstra's three-state line vs the mod-K ring (worst-case moves, exhaustive)",
        ["n", "3-state line", "K-state ring (k=n)"],
    );
    for n in [3usize, 4, 5] {
        let ts = ThreeState::new(n);
        let ts_bound = stabilizing(ts.program(), &ts.invariant()).worst_case_moves;
        let ring = TokenRing::new(n, n as i64);
        let ring_bound = stabilizing(ring.program(), &ring.invariant()).worst_case_moves;
        t3.row([
            n.to_string(),
            ts_bound.map_or("∞".into(), |m| m.to_string()),
            ring_bound.map_or("∞".into(), |m| m.to_string()),
        ]);
    }
    out.push('\n');
    out.push_str(&t3.render());
    out
}

/// The convergence report of `program` from every state to `s`,
/// enumerating its space.
fn stabilizing(program: &Program, s: &Predicate) -> ConvergenceReport {
    let space = StateSpace::enumerate(program).expect("bounded");
    let t = Predicate::always_true();
    check_convergence(&space, program, &t, s, CheckOptions::default()).expect("convergence")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e4_stabilizes_every_trial() {
        // Rendering would hide a MaxSteps run as a huge number; re-run one
        // configuration and assert stabilization directly.
        let tree = Tree::binary(7);
        let dc = DiffusingComputation::new(&tree);
        let s = dc.invariant();
        let mut state = dc.initial_state();
        state.set(dc.color_var(3), nonmask_protocols::diffusing::RED);
        let report = Executor::new(dc.program()).run(
            state,
            &mut RoundRobin::new(),
            &RunConfig::default().stop_when(&s, 1).max_steps(100_000),
        );
        assert!(report.stop.is_stabilized() || s.holds(&report.final_state));
    }

    #[test]
    fn e6_crossover_has_failures_and_successes() {
        let out = e6();
        assert!(out.contains("NO"), "small k fails:\n{out}");
        assert!(out.contains("yes"), "k >= n succeeds:\n{out}");
    }
}
