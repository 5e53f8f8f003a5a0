//! An actually-concurrent executor: one OS thread per process, one lock
//! per variable.
//!
//! This realizes the *read/write atomicity* refinement the paper's
//! concluding remarks point at: a process reads one remote variable at a
//! time (no action-wide atomicity), so guards are evaluated over
//! potentially inconsistent snapshots. The unidirectional-information-flow
//! protocols in this repository (token ring, diffusing computation)
//! stabilize regardless, which the tests observe on real threads. It is
//! the only engine that tests §8 read/write atomicity (experiment E9), so
//! unlike the others it does not pick through a `Scheduler`: each thread
//! tries its actions in turn on a snapshot read one variable at a time.
//!
//! Built on `std::thread::scope` (borrowing the program and locks without
//! `Arc` gymnastics) and `std::sync::Mutex` (one lock per variable).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use nonmask_program::{Predicate, Program, State};

use crate::refine::Refinement;

/// Outcome of a [`run_threaded`] execution.
#[derive(Debug, Clone)]
pub struct ThreadedReport {
    /// The final global state, assembled after all threads joined.
    pub final_state: State,
    /// Total action executions across all threads.
    pub steps: u64,
    /// Whether the run ended because the stop predicate was observed (on a
    /// consistent all-locks snapshot); `false` means the attempt budget ran
    /// out first.
    pub stopped_on_predicate: bool,
}

/// How often, in scheduling attempts per thread, a consistent snapshot is
/// taken to evaluate the stop predicate. Smaller detects stabilization
/// sooner but serializes on all locks more often.
const SNAPSHOT_PERIOD: u64 = 256;

/// Run `program` with one thread per process, starting from `initial`.
///
/// Each thread loops over its actions round-robin; per attempt it
/// snapshots the variables its next action reads (locking one variable at
/// a time — deliberately *not* an atomic multi-variable read), and if the
/// guard holds on the snapshot it applies the effect and publishes the
/// written values.
///
/// Threads run until either `stop_when` holds on a *consistent* snapshot
/// (all variable locks held in index order — a true linearization point)
/// or the shared budget of `attempts` scheduling attempts is exhausted;
/// without a predicate the whole budget runs down. A run that stops ends
/// exactly at that snapshot: an action still in flight, whose guard read
/// may predate it, publishes no write after it and is not counted. The
/// shared budget means no thread retires while others still work, so
/// before a stop late cross-thread updates are never silently dropped.
pub fn run_threaded(
    program: &Program,
    refinement: &Refinement,
    initial: &State,
    attempts: u64,
    stop_when: Option<&Predicate>,
) -> ThreadedReport {
    let locks: Vec<Mutex<i64>> = initial.slots().iter().map(|&v| Mutex::new(v)).collect();
    let steps = AtomicU64::new(0);
    let remaining = AtomicU64::new(attempts);
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for p in 0..refinement.process_count() {
            let actions = refinement.actions_of(p);
            let locks = &locks;
            let steps = &steps;
            let remaining = &remaining;
            let stop = &stop;
            scope.spawn(move || {
                if actions.is_empty() {
                    return;
                }
                let mut cursor = 0usize;
                let mut snapshot = State::zeroed(program.var_count());
                let mut attempt = 0u64;
                loop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    // Shared budget: claim one attempt; exit once none is
                    // left. The claim never takes the count below zero, so
                    // no thread can run an attempt past the budget.
                    if remaining
                        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |r| r.checked_sub(1))
                        .is_err()
                    {
                        break;
                    }
                    attempt += 1;

                    // Periodically take a consistent snapshot (all locks,
                    // index order) and evaluate the stop predicate.
                    if let Some(pred) = stop_when {
                        if attempt.is_multiple_of(SNAPSHOT_PERIOD) {
                            let guards: Vec<_> = locks.iter().map(|m| m.lock().unwrap()).collect();
                            let full: State = guards.iter().map(|g| **g).collect();
                            if pred.holds(&full) {
                                // Set while every lock is held: a writer
                                // that takes a lock after this reads the
                                // flag under it (the mutex orders the two).
                                stop.store(true, Ordering::Relaxed);
                                break;
                            }
                        }
                    }

                    let aid = actions[cursor];
                    cursor = (cursor + 1) % actions.len();
                    let action = program.action(aid);
                    // Low-atomicity read: one variable at a time.
                    for &r in action.reads() {
                        let v = *locks[r.index()].lock().unwrap();
                        snapshot.set(r, v);
                    }
                    if !action.enabled(&snapshot) {
                        continue;
                    }
                    action.apply(&mut snapshot);
                    for &w in action.writes() {
                        let mut slot = locks[w.index()].lock().unwrap();
                        // A write after the stop snapshot would move the
                        // final state off it; the run has ended.
                        if stop.load(Ordering::Relaxed) {
                            return;
                        }
                        *slot = snapshot.get(w);
                    }
                    steps.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });

    let final_state: State = locks.iter().map(|m| *m.lock().unwrap()).collect();
    ThreadedReport {
        final_state,
        steps: steps.into_inner(),
        stopped_on_predicate: stop.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonmask_program::{Domain, ProcessId};
    use nonmask_protocols::diffusing::DiffusingComputation;
    use nonmask_protocols::token_ring::TokenRing;
    use nonmask_protocols::Tree;

    #[test]
    fn token_ring_stabilizes_on_real_threads() {
        let ring = TokenRing::new(5, 5);
        let refinement = Refinement::new(ring.program()).unwrap();
        let corrupt = ring.program().state_from([3, 1, 4, 1, 2]).unwrap();
        let report = run_threaded(
            ring.program(),
            &refinement,
            &corrupt,
            50_000_000,
            Some(&ring.invariant()),
        );
        assert!(
            report.stopped_on_predicate,
            "threads observed stabilization before the budget ran out"
        );
        // The run ends at the snapshot that satisfied S.
        assert_eq!(
            ring.privileges(&report.final_state).len(),
            1,
            "final state: {:?}",
            report.final_state
        );
    }

    #[test]
    fn a_stopped_run_ends_inside_the_stop_predicate() {
        // Low-atomicity reads let an action whose guard read predates the
        // stop snapshot fire after it and leave S. Unless in-flight writes
        // are dropped at the stop, about 1 run in 70 ends outside S, so
        // the run is repeated until that race would show.
        let ring = TokenRing::new(5, 5);
        let refinement = Refinement::new(ring.program()).unwrap();
        let corrupt = ring.program().state_from([3, 1, 4, 1, 2]).unwrap();
        let s = ring.invariant();
        for run in 0..400 {
            let report = run_threaded(ring.program(), &refinement, &corrupt, 50_000_000, Some(&s));
            assert!(report.stopped_on_predicate, "run {run}");
            assert!(
                s.holds(&report.final_state),
                "run {run}: {:?}",
                report.final_state
            );
        }
    }

    #[test]
    fn diffusing_tree_state_remains_sane_under_concurrency() {
        let tree = Tree::binary(7);
        let dc = DiffusingComputation::new(&tree);
        let refinement = Refinement::new(dc.program()).unwrap();
        let report = run_threaded(
            dc.program(),
            &refinement,
            &dc.initial_state(),
            100_000,
            None,
        );
        dc.program().validate_state(&report.final_state).unwrap();
        assert!(report.steps > 0);
        assert!(!report.stopped_on_predicate);
    }

    #[test]
    fn shared_budget_is_never_overrun() {
        // Eight processes whose one action is always enabled: every
        // claimed attempt is a step, so the step count is exactly the
        // number of attempts the threads managed to claim.
        let mut b = Program::builder("always");
        for p in 0..8 {
            let x = b.var_of(format!("x{p}"), Domain::Bool, ProcessId(p));
            b.closure_action(
                format!("flip{p}"),
                [x],
                [x],
                |_| true,
                move |s| {
                    let v = s.get(x);
                    s.set(x, 1 - v);
                },
            );
        }
        let program = b.build();
        let refinement = Refinement::new(&program).unwrap();
        let initial = program.min_state();
        for _ in 0..40 {
            for attempts in 0..10 {
                let report = run_threaded(&program, &refinement, &initial, attempts, None);
                assert_eq!(report.steps, attempts);
            }
        }
    }

    #[test]
    fn zero_attempts_is_identity() {
        let ring = TokenRing::new(3, 3);
        let refinement = Refinement::new(ring.program()).unwrap();
        let initial = ring.initial_state();
        let report = run_threaded(ring.program(), &refinement, &initial, 0, None);
        assert_eq!(report.final_state, initial);
        assert_eq!(report.steps, 0);
    }
}
