//! Schedule-determinism pins for the shared-memory `Executor`.
//!
//! Every daemon picks its action through `Scheduler::select`. These
//! goldens fix what each daemon does on two protocols from fixed corrupt
//! states — stop reason, steps, the stabilization point, per-action
//! counts and the final state — so a change to how the daemons evaluate
//! guards or walk the action list cannot move a single step unnoticed.

use nonmask_program::scheduler::{Adversarial, Fixed, Random, RoundRobin, Scheduler};
use nonmask_program::{ActionId, Executor, Predicate, Program, RunConfig, State};
use nonmask_protocols::diffusing::{DiffusingComputation, RED};
use nonmask_protocols::token_ring::TokenRing;
use nonmask_protocols::Tree;

/// The five daemons, in a fixed order. The scripts run the action list
/// backwards three times, so the skipping script also ends the run early
/// and the strict one stops at its first disabled entry.
fn daemons(actions: usize) -> Vec<Box<dyn Scheduler>> {
    let backwards =
        || (0..3 * actions).map(move |i| ActionId::from_index(actions - 1 - i % actions));
    vec![
        Box::new(RoundRobin::new()),
        Box::new(Random::seeded(0x5EED)),
        Box::new(Adversarial::with_priority(
            (0..actions).rev().map(ActionId::from_index),
        )),
        Box::new(Fixed::skipping(backwards())),
        Box::new(Fixed::strict(backwards())),
    ]
}

fn describe(program: &Program, s: &Predicate, initial: &State, hold: u32) -> Vec<String> {
    let config = RunConfig::default().stop_when(s, hold).max_steps(10_000);
    daemons(program.action_count())
        .into_iter()
        .map(|mut daemon| {
            let r = Executor::new(program).run(initial.clone(), daemon.as_mut(), &config);
            format!(
                "{}: {:?} steps={} stabilized_at={:?} counts={:?} final={:?}",
                daemon.name(),
                r.stop,
                r.steps,
                r.stabilized_at,
                r.action_counts,
                r.final_state.slots()
            )
        })
        .collect()
}

#[test]
fn token_ring_daemons_golden() {
    let ring = TokenRing::new(5, 5);
    let corrupt = ring.program().state_from([3, 1, 4, 1, 2]).unwrap();
    let got = describe(ring.program(), &ring.invariant(), &corrupt, 4);
    assert_eq!(
        got,
        [
            "round-robin: Stabilized steps=6 stabilized_at=Some(2) \
             counts=[1, 2, 1, 1, 1] final=[4, 4, 3, 3, 3]",
            "random: Stabilized steps=7 stabilized_at=Some(3) \
             counts=[0, 1, 1, 2, 3] final=[3, 3, 3, 3, 3]",
            "adversarial: Stabilized steps=9 stabilized_at=Some(5) \
             counts=[0, 1, 2, 3, 3] final=[3, 3, 3, 3, 1]",
            "fixed: SchedulerStopped steps=9 stabilized_at=None \
             counts=[0, 1, 2, 3, 3] final=[3, 3, 3, 3, 1]",
            "fixed: SchedulerStopped steps=4 stabilized_at=None \
             counts=[0, 1, 1, 1, 1] final=[3, 3, 1, 4, 1]",
        ]
    );
}

#[test]
fn diffusing_daemons_golden() {
    let dc = DiffusingComputation::new(&Tree::binary(7));
    let mut corrupt = dc.initial_state();
    corrupt.set(dc.color_var(2), RED);
    corrupt.set(dc.session_var(5), 1);
    corrupt.set(dc.color_var(6), RED);
    let got = describe(dc.program(), &dc.invariant(), &corrupt, 3);
    assert_eq!(
        got,
        [
            "round-robin: Stabilized steps=8 stabilized_at=Some(5) \
             counts=[1, 1, 1, 1, 1, 0, 1, 0, 0, 0, 1, 1, 0, 0] \
             final=[1, 1, 1, 1, 1, 1, 0, 1, 0, 1, 0, 1, 1, 1]",
            "random: Stabilized steps=5 stabilized_at=Some(2) \
             counts=[1, 1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1] \
             final=[1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 1, 1, 1]",
            "adversarial: Stabilized steps=6 stabilized_at=Some(3) \
             counts=[1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1, 1] \
             final=[1, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0]",
            "fixed: Stabilized steps=7 stabilized_at=Some(4) \
             counts=[1, 1, 2, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 1] \
             final=[1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0]",
            "fixed: SchedulerStopped steps=1 stabilized_at=None \
             counts=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1] \
             final=[0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0]",
        ]
    );
}
