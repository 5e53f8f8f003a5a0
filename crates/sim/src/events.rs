//! An event-driven (continuous virtual time) execution engine.
//!
//! The round-based [`crate::Simulation`] advances all processes in
//! lockstep; real distributed systems do not. This engine drives the same
//! refined programs from a priority queue of timestamped events:
//!
//! - **process wake-ups** — each process wakes at random
//!   (geometrically-spaced) virtual times and executes at most one enabled
//!   action on its view;
//! - **message deliveries** — updates travel with random per-message
//!   latency, so arrival order is completely decoupled from send order.
//!
//! Determinism is preserved: all randomness comes from the seeded RNG, and
//! ties in the event queue break by sequence number. That makes this the
//! engine that tests convergence under full asynchrony reproducibly
//! (experiment E14): no rounds, and every interleaving replays from its
//! seed. Each process picks its action through its own [`RoundRobin`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use nonmask_program::scheduler::RoundRobin;
use nonmask_program::{Predicate, Program, Scheduler, State, VarId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::refine::Refinement;

/// Configuration of an [`EventSim`].
#[derive(Debug, Clone)]
pub struct EventConfig {
    /// RNG seed.
    pub seed: u64,
    /// Mean virtual time between consecutive wake-ups of one process.
    pub mean_wake_interval: f64,
    /// Mean message latency (per-message, exponentially distributed).
    pub mean_latency: f64,
    /// Probability that a message is lost.
    pub loss_rate: f64,
}

impl Default for EventConfig {
    fn default() -> Self {
        EventConfig {
            seed: 0,
            mean_wake_interval: 1.0,
            mean_latency: 0.5,
            loss_rate: 0.0,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum EventKind {
    Wake {
        process: usize,
    },
    Deliver {
        process: usize,
        var: VarId,
        value: i64,
    },
}

/// Queue entry ordered by `(time, seq)`; `Reverse` turns the max-heap into
/// a min-heap.
#[derive(Debug, Clone, PartialEq)]
struct Event {
    time: f64,
    seq: u64,
    kind: EventKind,
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .partial_cmp(&other.time)
            .expect("event times are never NaN")
            .then(self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Outcome of [`EventSim::run_until_stable`].
#[derive(Debug, Clone)]
pub struct EventReport {
    /// Virtual time at which the predicate first held through the end of
    /// the observation window, if it stabilized.
    pub stabilized_at: Option<f64>,
    /// Virtual time when the run stopped.
    pub end_time: f64,
    /// Action executions.
    pub steps: u64,
    /// Messages delivered.
    pub messages_delivered: u64,
    /// Messages lost.
    pub messages_lost: u64,
    /// Final ground truth.
    pub final_state: State,
}

/// The pending events, ordered by `(time, seq)`.
#[derive(Debug, Default)]
struct Agenda {
    queue: BinaryHeap<Reverse<Event>>,
    seq: u64,
}

impl Agenda {
    fn push(&mut self, time: f64, kind: EventKind) {
        self.seq += 1;
        self.queue.push(Reverse(Event {
            time,
            seq: self.seq,
            kind,
        }));
    }
}

/// Inverse-CDF exponential sample with the given mean; u in (0, 1].
fn exp_sample(rng: &mut StdRng, mean: f64) -> f64 {
    let u: f64 = 1.0 - rng.gen::<f64>();
    -mean * u.ln().max(f64::MIN_POSITIVE.ln())
}

/// The event-driven simulator.
///
/// Each wake-up executes at most one action, the one the process's
/// [`RoundRobin`] daemon selects on its view, and then re-broadcasts the
/// process's own variables (the event-driven analogue of the round
/// engine's heartbeats; without it a single lost update could stall a
/// protocol forever).
#[derive(Debug)]
pub struct EventSim<'p> {
    program: &'p Program,
    refinement: Refinement,
    config: EventConfig,
    views: Vec<State>,
    agenda: Agenda,
    /// Per process: its daemon over its own actions.
    daemons: Vec<RoundRobin>,
    rng: StdRng,
    now: f64,
    steps: u64,
    messages_delivered: u64,
    messages_lost: u64,
}

impl<'p> EventSim<'p> {
    /// Create a simulator; every process gets an initial wake-up.
    pub fn new(
        program: &'p Program,
        refinement: Refinement,
        initial: State,
        config: EventConfig,
    ) -> Self {
        let n = refinement.process_count();
        let mut sim = EventSim {
            program,
            refinement,
            rng: StdRng::seed_from_u64(config.seed),
            config,
            views: vec![initial; n],
            agenda: Agenda::default(),
            daemons: vec![RoundRobin::new(); n],
            now: 0.0,
            steps: 0,
            messages_delivered: 0,
            messages_lost: 0,
        };
        for p in 0..n {
            sim.schedule_wake(p);
        }
        sim
    }

    fn schedule_wake(&mut self, process: usize) {
        let dt = exp_sample(&mut self.rng, self.config.mean_wake_interval);
        self.agenda.push(self.now + dt, EventKind::Wake { process });
    }

    /// Current virtual time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Action executions so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The god's-eye state assembled from authoritative views.
    pub fn ground_truth(&self) -> State {
        self.refinement.ground_truth(&self.views)
    }

    /// Assemble the god's-eye state into `out` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `out` has a different length than the program's states.
    pub fn ground_truth_into(&self, out: &mut State) {
        self.refinement.ground_truth_into(&self.views, out);
    }

    /// Process one event; returns `false` when the queue is empty (which
    /// cannot happen while wake-ups reschedule themselves).
    pub fn step(&mut self) -> bool {
        let Some(Reverse(event)) = self.agenda.queue.pop() else {
            return false;
        };
        self.now = event.time;
        match event.kind {
            EventKind::Deliver {
                process,
                var,
                value,
            } => {
                self.views[process].set(var, value);
                self.messages_delivered += 1;
            }
            EventKind::Wake { process } => {
                // `program` is copied out of `self`, so the action borrows
                // nothing of `self` while `broadcast` mutates it.
                let program = self.program;
                let actions = self.refinement.actions_of(process);
                if let Some(id) =
                    self.daemons[process].select(program, actions, &self.views[process])
                {
                    let action = program.action(id);
                    action.apply(&mut self.views[process]);
                    self.steps += 1;
                    for &var in action.writes() {
                        self.broadcast(var, self.views[process].get(var));
                    }
                }
                for i in 0..self.refinement.vars_of(process).len() {
                    let var = self.refinement.vars_of(process)[i];
                    self.broadcast(var, self.views[process].get(var));
                }
                self.schedule_wake(process);
            }
        }
        true
    }

    fn broadcast(&mut self, var: VarId, value: i64) {
        // Disjoint field borrows: the reader list borrows `refinement`
        // immutably while the loop body mutates `rng`/`agenda`/counters.
        for &reader in self.refinement.remote_readers_of(var) {
            if self.config.loss_rate > 0.0 && self.rng.gen_bool(self.config.loss_rate) {
                self.messages_lost += 1;
                continue;
            }
            let latency = exp_sample(&mut self.rng, self.config.mean_latency);
            self.agenda.push(
                self.now + latency,
                EventKind::Deliver {
                    process: reader,
                    var,
                    value,
                },
            );
        }
    }

    /// Run until `pred` holds on the ground truth continuously for
    /// `window` units of virtual time, or until `max_time`.
    pub fn run_until_stable(
        &mut self,
        pred: &Predicate,
        window: f64,
        max_time: f64,
    ) -> EventReport {
        let mut hold_start: Option<f64> = None;
        let mut stabilized_at = None;
        let mut truth = State::zeroed(self.program.var_count());
        while self.now < max_time {
            if !self.step() {
                break;
            }
            self.ground_truth_into(&mut truth);
            if pred.holds(&truth) {
                let start = *hold_start.get_or_insert(self.now);
                if self.now - start >= window {
                    stabilized_at = Some(start);
                    break;
                }
            } else {
                hold_start = None;
            }
        }
        EventReport {
            stabilized_at,
            end_time: self.now,
            steps: self.steps,
            messages_delivered: self.messages_delivered,
            messages_lost: self.messages_lost,
            final_state: self.ground_truth(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonmask_protocols::diffusing::DiffusingComputation;
    use nonmask_protocols::token_ring::TokenRing;
    use nonmask_protocols::Tree;

    #[test]
    fn token_ring_stabilizes_in_virtual_time() {
        let ring = TokenRing::new(5, 5);
        let refinement = Refinement::new(ring.program()).unwrap();
        let corrupt = ring.program().state_from([3, 1, 4, 1, 2]).unwrap();
        let mut sim = EventSim::new(ring.program(), refinement, corrupt, EventConfig::default());
        let report = sim.run_until_stable(&ring.invariant(), 5.0, 10_000.0);
        assert!(
            report.stabilized_at.is_some(),
            "end time {}",
            report.end_time
        );
        assert_eq!(ring.privileges(&report.final_state).len(), 1);
    }

    #[test]
    fn survives_loss_and_high_latency() {
        let ring = TokenRing::new(4, 4);
        let refinement = Refinement::new(ring.program()).unwrap();
        let corrupt = ring.program().state_from([2, 0, 3, 1]).unwrap();
        let config = EventConfig {
            seed: 3,
            mean_latency: 5.0, // much slower than wake-ups: heavy reordering
            loss_rate: 0.3,
            ..EventConfig::default()
        };
        let mut sim = EventSim::new(ring.program(), refinement, corrupt, config);
        let report = sim.run_until_stable(&ring.invariant(), 10.0, 100_000.0);
        assert!(report.stabilized_at.is_some());
        assert!(report.messages_lost > 0);
    }

    #[test]
    fn diffusing_recovers_event_driven() {
        let dc = DiffusingComputation::new(&Tree::binary(7));
        let refinement = Refinement::new(dc.program()).unwrap();
        let mut corrupt = dc.initial_state();
        corrupt.set(dc.color_var(2), nonmask_protocols::diffusing::RED);
        corrupt.set(dc.session_var(5), 1);
        let mut sim = EventSim::new(
            dc.program(),
            refinement,
            corrupt,
            EventConfig {
                seed: 9,
                ..EventConfig::default()
            },
        );
        let report = sim.run_until_stable(&dc.invariant(), 5.0, 10_000.0);
        assert!(report.stabilized_at.is_some());
    }

    #[test]
    fn time_is_monotone_and_seeded_deterministic() {
        let ring = TokenRing::new(3, 3);
        let refinement = Refinement::new(ring.program()).unwrap();
        let run = |seed| {
            let mut sim = EventSim::new(
                ring.program(),
                refinement.clone(),
                ring.initial_state(),
                EventConfig {
                    seed,
                    ..EventConfig::default()
                },
            );
            let mut last = 0.0;
            for _ in 0..500 {
                assert!(sim.step());
                assert!(sim.now() >= last, "virtual time is monotone");
                last = sim.now();
            }
            (sim.steps(), sim.ground_truth())
        };
        assert_eq!(run(4), run(4), "same seed, same run");
    }
}
