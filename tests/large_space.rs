//! Large-space acceptance: a full-size token ring (`8^8 = 16,777,216`
//! states) enumerates into the compact CSR representation and passes
//! closure + convergence within the default memory budget — and a
//! `2^28`-state diffusing computation, whose transition table does *not*
//! fit the default budget, still gets a full convergence verdict through
//! the out-of-core frontier mode.
//!
//! Ignored by default (they sweep 16.7M–268M states on one core); run
//! with `cargo test --release -- --ignored`.

use nonmask_checker::{
    check_convergence_bits_stats, check_convergence_frontier_stats, is_closed_bits, Bitset,
    CheckOptions, ConvergenceResult, Fairness, StateSpace, DEFAULT_MEMORY_BUDGET,
};
use nonmask_obs::Journal;
use nonmask_protocols::diffusing::DiffusingComputation;
use nonmask_protocols::token_ring::TokenRing;
use nonmask_protocols::Tree;

#[test]
#[ignore = "sweeps 16.7M states; run with --ignored"]
fn token_ring_16m_states_within_default_budget() {
    let ring = TokenRing::new(8, 8);
    let opts = CheckOptions::default();
    let space = StateSpace::enumerate_with_options(ring.program(), opts)
        .expect("8^8 states fit the default memory budget");
    assert_eq!(space.len(), 8usize.pow(8));

    let bytes = space.resident_bytes();
    assert!(
        bytes as u64 <= DEFAULT_MEMORY_BUDGET,
        "resident {bytes} bytes exceeds the default budget"
    );
    let per_state = bytes as f64 / space.len() as f64;
    assert!(
        per_state < 64.0,
        "CSR should stay under 64 bytes/state on the ring, got {per_state:.1}"
    );

    let s = ring.invariant();
    let s_bits = Bitset::for_predicate(&space, &s, opts).unwrap();
    assert!(
        is_closed_bits(&space, &s_bits, opts).unwrap().is_none(),
        "the invariant is closed"
    );
    let t_bits = Bitset::ones(space.len());
    let (r, _) = check_convergence_bits_stats(
        &space,
        ring.program(),
        &t_bits,
        &s_bits,
        Fairness::WeaklyFair,
        opts,
    )
    .unwrap();
    assert!(r.converges(), "{r:?}");
}

/// The headline out-of-core case: a 14-node diffusing computation has
/// `4^14 = 2^28 = 268,435,456` states and ~2.9G transitions, so its CSR
/// table (~24 GB) cannot be made resident under the default 8 GiB budget
/// — the in-core path must refuse with a budget error, and the frontier
/// mode must still deliver the full convergence verdict.
#[test]
#[ignore = "sweeps 2^28 states out-of-core; takes hours on one core"]
fn diffusing_2e28_states_converges_within_default_budget() {
    let dc = DiffusingComputation::new(&Tree::binary(14));
    let opts = CheckOptions::default();

    match StateSpace::enumerate_with_options(dc.program(), opts) {
        Err(nonmask_checker::SpaceError::BudgetExceeded {
            required, budget, ..
        }) => {
            assert!(required > budget, "refusal must be over-budget");
        }
        Ok(_) => panic!("2^28-state CSR must not fit the default budget"),
        Err(other) => panic!("expected BudgetExceeded, got {other}"),
    }

    // The paper's diffusing computation converges without fairness
    // (tests/paper_claims.rs), so the frontier peel resolves everything.
    let (r, _) = check_convergence_frontier_stats(
        dc.program(),
        &nonmask_program::Predicate::always_true(),
        &dc.invariant(),
        Fairness::Unfair,
        opts,
        &Journal::disabled(),
    )
    .expect("frontier mode stays within the default budget");
    assert!(matches!(r, ConvergenceResult::Converges), "{r:?}");
}
