//! Shared-memory vs message-passing vs real-thread execution (E9).

use nonmask_program::scheduler::RoundRobin;
use nonmask_program::{Executor, Predicate, Program, RunConfig, State};
use nonmask_protocols::diffusing::DiffusingComputation;
use nonmask_protocols::token_ring::TokenRing;
use nonmask_protocols::Tree;
use nonmask_sim::threaded::run_threaded;
use nonmask_sim::{Refinement, SimConfig, Simulation};

use crate::table::Table;

fn compare(t: &mut Table, name: &str, program: &Program, s: &Predicate, corrupt: State) {
    // Shared memory: the paper's model, round-robin daemon.
    let shared = Executor::new(program).run(
        corrupt.clone(),
        &mut RoundRobin::new(),
        &RunConfig::default().stop_when(s, 1).max_steps(1_000_000),
    );

    // Message passing: cached neighbour state, one action per process per
    // round, heartbeats every round.
    let refinement = Refinement::new(program).expect("refinable");
    let mut sim = Simulation::new(
        program,
        refinement.clone(),
        corrupt.clone(),
        SimConfig::default(),
    );
    let mp = sim.run_until_stable(s, 3);

    // Real threads: lock-per-variable, low-atomicity reads, stopping at
    // the first consistent snapshot inside S.
    let threaded = run_threaded(program, &refinement, &corrupt, 50_000_000, Some(s));
    let threaded_ok = threaded.stopped_on_predicate && s.holds(&threaded.final_state);

    t.row([
        name.to_string(),
        shared.steps.to_string(),
        mp.stabilized_at_round
            .map_or("(none)".into(), |r| r.to_string()),
        mp.messages_delivered.to_string(),
        threaded.steps.to_string(),
        if threaded_ok { "yes" } else { "NO" }.to_string(),
    ]);
}

/// E9 — the §8 refinement remark, measured: the same corrupted start is
/// driven to `S` under (a) the paper's shared-memory model, (b) the
/// round-based message-passing refinement, and (c) an actually-concurrent
/// lock-per-variable execution.
pub fn e9() -> String {
    let mut t = Table::new(
        "E9: shared memory vs message passing vs threads",
        [
            "protocol",
            "shared-mem steps to S",
            "msg-passing rounds to S",
            "messages",
            "threaded steps to S",
            "threaded reached S",
        ],
    );

    let ring = TokenRing::new(5, 5);
    let corrupt = ring
        .program()
        .state_from([3, 1, 4, 1, 2])
        .expect("in domain");
    compare(
        &mut t,
        "token ring n=5",
        ring.program(),
        &ring.invariant(),
        corrupt,
    );

    let ring8 = TokenRing::new(8, 8);
    let corrupt8 = ring8
        .program()
        .state_from([7, 3, 1, 6, 2, 5, 0, 4])
        .expect("in domain");
    compare(
        &mut t,
        "token ring n=8",
        ring8.program(),
        &ring8.invariant(),
        corrupt8,
    );

    let dc = DiffusingComputation::new(&Tree::binary(7));
    let mut corrupt_dc = dc.initial_state();
    for j in [1usize, 3, 4, 6] {
        corrupt_dc.set(dc.color_var(j), nonmask_protocols::diffusing::RED);
        corrupt_dc.set(dc.session_var(j), (j % 2) as i64);
    }
    compare(
        &mut t,
        "diffusing binary-7",
        dc.program(),
        &dc.invariant(),
        corrupt_dc,
    );

    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e9_all_models_stabilize() {
        let out = e9();
        assert!(
            !out.contains("(none)"),
            "message passing stabilized:\n{out}"
        );
        assert!(!out.contains(" NO"), "threaded runs ended inside S:\n{out}");
    }
}
