//! Checker representation gates on CI-sized instances.
//!
//! - The resident space (its per-action footprint tables) stays at or
//!   under a committed bytes-per-state ceiling on each instance. Each
//!   ceiling sits ~15% over the measured value, so a layout regression
//!   (anything that stores bytes per state or per transition) fails.
//! - A decoded sweep over the segment plan sees exactly the table rows
//!   and the tables' transition count.
//! - The frontier convergence check of diffusing binary-9 converges at one
//!   and several threads, and its serial work is pinned.
//!
//! The 16.7M-state tier of the same gates, with the throughput-flatness
//! gate, is in `large_space.rs`.

mod common;

use nonmask_checker::{
    check_convergence_frontier_stats, CheckOptions, ConvergenceResult, Fairness,
};
use nonmask_obs::Journal;
use nonmask_program::Predicate;
use nonmask_protocols::diffusing::DiffusingComputation;
use nonmask_protocols::token_ring::TokenRing;
use nonmask_protocols::Tree;

/// Each instance keeps its state and transition counts and stays at or
/// under its bytes-per-state ceiling. The tables do not grow with the
/// state count, so the ceilings fall with size.
#[test]
fn csr_stays_under_the_committed_bytes_per_state_ceilings() {
    let dc = DiffusingComputation::new(&Tree::binary(9));
    let instances = [
        (
            "token-ring-n5-k5",
            TokenRing::new(5, 5).program().clone(),
            3_125,
            10_625,
            0.57,
        ),
        (
            "token-ring-n7-k7",
            TokenRing::new(7, 7).program().clone(),
            823_543,
            4_353_013,
            0.0048,
        ),
        (
            "diffusing-binary-9",
            dc.program().clone(),
            262_144,
            2_129_920,
            0.0217,
        ),
    ];
    for (name, program, states, transitions, ceiling) in instances {
        let f = common::enumerate(&program, CheckOptions::default());
        println!(
            "{name}: {} states, {} transitions, {:.6} B/state, {:.0} transitions/s",
            f.states,
            f.transitions,
            f.bytes_per_state,
            f.transitions_per_sec()
        );
        assert_eq!((f.states, f.transitions), (states, transitions), "{name}");
        assert!(
            f.bytes_per_state <= ceiling,
            "{name}: {:.6} bytes/state exceeds the committed ceiling {ceiling}",
            f.bytes_per_state
        );
    }
}

/// The frontier check converges at every thread count. Its round and
/// evaluation counts depend on how work-stealing workers fold
/// same-segment deltas into a round (on a 2-vCPU host, 10 rounds /
/// 12,018,966 evals at 2 threads and 11 / 12,601,606 at 4), so only the
/// serial run is pinned.
#[test]
fn diffusing_binary_9_frontier_converges_at_one_and_many_threads() {
    let dc = DiffusingComputation::new(&Tree::binary(9));
    let frontier = |opts| {
        let (result, stats) = check_convergence_frontier_stats(
            dc.program(),
            &Predicate::always_true(),
            &dc.invariant(),
            Fairness::Unfair,
            opts,
            &Journal::disabled(),
        )
        .expect("frontier mode stays within the default budget");
        assert!(
            matches!(result, ConvergenceResult::Converges),
            "{opts:?}: {result:?}"
        );
        (stats.rounds, stats.evals)
    };
    assert_eq!(frontier(CheckOptions::serial()), (7, 6_015_882));
    frontier(CheckOptions::default().threads(4));
}
