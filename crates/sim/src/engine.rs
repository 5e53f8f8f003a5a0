//! The round-based message-passing engine.
//!
//! This engine tests the §7.1 refinement: the shared-memory programs still
//! converge when each process acts on cached neighbour state that messages
//! refresh through a lossy, delaying, partitionable network (experiments
//! E9 and E13, and the simulator half of the conformance corpus). Each
//! process picks its actions through its own [`RoundRobin`].

use std::collections::VecDeque;

use nonmask_obs::{Event, Journal};
use nonmask_program::scheduler::RoundRobin;
use nonmask_program::{byzantine_lie_in, Predicate, Program, Scheduler, State, StepLog, VarId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::refine::Refinement;

/// Configuration of a [`Simulation`].
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// RNG seed (message loss and fault sampling).
    pub seed: u64,
    /// Probability that any single update message is dropped.
    pub loss_rate: f64,
    /// Maximum rounds for [`Simulation::run_until_stable`].
    pub max_rounds: u64,
    /// How many actions each process may execute per round.
    pub steps_per_round: usize,
    /// Every `heartbeat_period` rounds each process re-broadcasts all of
    /// its variables to their remote readers (refreshing stale caches even
    /// when no writes happen). `0` disables heartbeats.
    pub heartbeat_period: u64,
    /// Maximum message delay in rounds: each message is delivered after a
    /// uniformly random `1..=max_delay` rounds. With `max_delay > 1` the
    /// network is no longer FIFO (later messages can overtake earlier
    /// ones), which is exactly the reordering stabilizing protocols must
    /// survive.
    pub max_delay: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            loss_rate: 0.0,
            max_rounds: 100_000,
            steps_per_round: 1,
            heartbeat_period: 1,
            max_delay: 1,
        }
    }
}

/// Outcome of [`Simulation::run_until_stable`].
#[derive(Debug, Clone)]
pub struct SimReport {
    /// First round after which the predicate held continuously until the
    /// run stopped, if it stabilized.
    pub stabilized_at_round: Option<u64>,
    /// Rounds executed.
    pub rounds: u64,
    /// Action executions across all processes.
    pub steps: u64,
    /// Update messages sent (including heartbeats, excluding drops).
    pub messages_delivered: u64,
    /// Update messages dropped by the lossy network.
    pub messages_dropped: u64,
    /// The final ground-truth state.
    pub final_state: State,
}

/// A deterministic round-based message-passing simulation of a refinable
/// program.
///
/// Each process `p` keeps a *view* — a full state vector in which `p`'s
/// own variables are authoritative and remote variables are cached copies,
/// updated only by messages. Per round: deliver pending messages, let each
/// process execute up to [`SimConfig::steps_per_round`] enabled actions on
/// its view (round-robin over its actions), then broadcast writes (and
/// heartbeats) to remote readers through the lossy network.
#[derive(Debug)]
pub struct Simulation<'p> {
    program: &'p Program,
    refinement: Refinement,
    config: SimConfig,
    views: Vec<State>,
    /// Per process: messages awaiting delivery as `(deliver_round, var, value)`.
    inboxes: Vec<VecDeque<(u64, VarId, i64)>>,
    /// Per process: its daemon over its own actions.
    daemons: Vec<RoundRobin>,
    /// While `rounds < partition_until`, messages crossing partition
    /// groups are dropped.
    partition_until: u64,
    /// Partition-group id per process (all zero = no partition).
    partition_group: Vec<usize>,
    /// Per-process Byzantine flag (all false = every process correct).
    byzantine: Vec<bool>,
    /// Seed of the stateless lie stream the Byzantine processes draw from.
    byz_seed: u64,
    journal: Journal,
    step_log: Option<StepLog>,
    rng: StdRng,
    rounds: u64,
    steps: u64,
    messages_delivered: u64,
    messages_dropped: u64,
    /// Reusable write buffer for the broadcast phase; capacity persists
    /// across rounds so the steady-state hot path never allocates.
    outgoing: Vec<(VarId, i64)>,
}

impl<'p> Simulation<'p> {
    /// Create a simulation from `initial` (authoritative everywhere; all
    /// caches start coherent).
    pub fn new(
        program: &'p Program,
        refinement: Refinement,
        initial: State,
        config: SimConfig,
    ) -> Self {
        let n = refinement.process_count();
        Simulation {
            program,
            refinement,
            rng: StdRng::seed_from_u64(config.seed),
            config,
            views: vec![initial; n],
            inboxes: vec![VecDeque::new(); n],
            daemons: vec![RoundRobin::new(); n],
            partition_until: 0,
            partition_group: vec![0; n],
            byzantine: vec![false; n],
            byz_seed: 0,
            journal: Journal::disabled(),
            step_log: None,
            rounds: 0,
            steps: 0,
            messages_delivered: 0,
            messages_dropped: 0,
            outgoing: Vec::new(),
        }
    }

    /// Journal fault injections and stabilization episodes to `journal`.
    /// The default is [`Journal::disabled`] (no overhead).
    #[must_use]
    pub fn with_journal(mut self, journal: Journal) -> Self {
        self.journal = journal;
        self
    }

    /// Record every executed action into `log` — the process index, the
    /// round, and the executing process's view before and after the action
    /// — for differential conformance checking (`crates/conform`). Off by
    /// default; recording clones two states per step.
    #[must_use]
    pub fn with_step_log(mut self, log: StepLog) -> Self {
        self.step_log = Some(log);
        self
    }

    /// Mark `processes` as permanently Byzantine (malicious, never
    /// healing): they stop executing program actions, and each round
    /// every variable they own is rewritten to the seeded stateless lie
    /// stream ([`nonmask_program::byzantine_lie_in`], keyed by the round
    /// number) and broadcast to its remote readers like any other write.
    /// A run with Byzantine processes can only stabilize *outside* the
    /// liars' influence region — measuring that region's radius is the
    /// point of marking them.
    ///
    /// # Panics
    ///
    /// Panics if a process index is out of range.
    #[must_use]
    pub fn with_byzantine(mut self, processes: impl IntoIterator<Item = usize>, seed: u64) -> Self {
        self.byz_seed = seed;
        for p in processes {
            assert!(
                p < self.byzantine.len(),
                "byzantine process {p} out of range"
            );
            self.byzantine[p] = true;
            self.journal.emit_with(|| Event::Fault {
                kind: "byzantine".to_string(),
                detail: format!("process {p} (seed {seed})"),
            });
        }
        self
    }

    /// Whether process `p` was marked Byzantine.
    pub fn is_byzantine(&self, p: usize) -> bool {
        self.byzantine[p]
    }

    /// The god's-eye state: every variable read from its owner's view.
    pub fn ground_truth(&self) -> State {
        self.refinement.ground_truth(&self.views)
    }

    /// Assemble the god's-eye state into `out` — the allocation-free
    /// counterpart of [`ground_truth`](Simulation::ground_truth) for
    /// loops that poll it every round.
    ///
    /// # Panics
    ///
    /// Panics if `out` has a different length than the program's states.
    pub fn ground_truth_into(&self, out: &mut State) {
        self.refinement.ground_truth_into(&self.views, out);
    }

    /// The view (own variables + caches) of process `p`.
    pub fn view_of(&self, p: usize) -> &State {
        &self.views[p]
    }

    /// Rounds executed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Action executions so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Messages delivered so far (writes + heartbeats that were not
    /// dropped).
    pub fn messages_delivered(&self) -> u64 {
        self.messages_delivered
    }

    /// Messages dropped so far.
    pub fn messages_dropped(&self) -> u64 {
        self.messages_dropped
    }

    fn send(&mut self, var: VarId, value: i64) {
        let sender = self.refinement.owner_of(var);
        // Disjoint field borrows: the reader list borrows `refinement`
        // immutably while the loop body mutates `rng`/`inboxes`/counters.
        for &reader in self.refinement.remote_readers_of(var) {
            let partitioned = self.rounds < self.partition_until
                && self.partition_group[sender] != self.partition_group[reader];
            if partitioned
                || (self.config.loss_rate > 0.0 && self.rng.gen_bool(self.config.loss_rate))
            {
                self.messages_dropped += 1;
            } else {
                let delay = if self.config.max_delay <= 1 {
                    1
                } else {
                    self.rng.gen_range(1..=self.config.max_delay)
                };
                self.inboxes[reader].push_back((self.rounds + delay, var, value));
                self.messages_delivered += 1;
            }
        }
    }

    /// Partition the processes into groups for the next `rounds` rounds:
    /// messages crossing group boundaries are dropped until the partition
    /// heals. `groups[p]` is the group id of process `p`.
    ///
    /// # Panics
    ///
    /// Panics if `groups` does not cover every process.
    pub fn partition(&mut self, groups: &[usize], rounds: u64) {
        assert_eq!(groups.len(), self.views.len(), "one group id per process");
        self.partition_group.copy_from_slice(groups);
        self.partition_until = self.rounds + rounds;
        self.journal.emit_with(|| Event::Fault {
            kind: "partition".to_string(),
            detail: format!("groups {groups:?} for {rounds} rounds"),
        });
    }

    /// Execute one round: deliver, step every process, broadcast.
    ///
    /// The steady-state hot path is allocation-free: inboxes rotate in
    /// place, outgoing writes reuse one persistent buffer, and the
    /// refinement lookups are slice borrows. (Step logging is the
    /// documented exception — it clones two states per step.)
    pub fn round(&mut self) {
        // 1. Deliver the updates whose delay has elapsed, in send order.
        //    In-place rotation: pop each entry once; due entries apply,
        //    the rest re-queue behind — relative order is preserved and
        //    the deque's capacity is reused round after round.
        for p in 0..self.views.len() {
            for _ in 0..self.inboxes[p].len() {
                let Some((due, var, value)) = self.inboxes[p].pop_front() else {
                    break;
                };
                if due <= self.rounds {
                    self.views[p].set(var, value);
                } else {
                    self.inboxes[p].push_back((due, var, value));
                }
            }
        }

        // 2. Each process executes up to steps_per_round enabled actions.
        //    Byzantine processes never execute an action; they overwrite
        //    their own variables with the round-keyed lie stream and
        //    broadcast the lies like ordinary writes.
        debug_assert!(self.outgoing.is_empty());
        for p in 0..self.views.len() {
            if self.byzantine[p] {
                for i in 0..self.refinement.vars_of(p).len() {
                    let var = self.refinement.vars_of(p)[i];
                    let lie = byzantine_lie_in(
                        self.program.var(var).domain(),
                        self.byz_seed,
                        p as u64,
                        var.index() as u64,
                        self.rounds,
                    );
                    self.views[p].set(var, lie);
                    self.outgoing.push((var, lie));
                }
                continue;
            }
            let actions = self.refinement.actions_of(p);
            for _ in 0..self.config.steps_per_round {
                let Some(id) = self.daemons[p].select(self.program, actions, &self.views[p]) else {
                    break;
                };
                let action = self.program.action(id);
                let before = self.step_log.as_ref().map(|_| self.views[p].clone());
                action.apply(&mut self.views[p]);
                self.steps += 1;
                if let (Some(log), Some(before)) = (&self.step_log, before) {
                    log.push(p, self.rounds, id, before, self.views[p].clone());
                }
                for &w in action.writes() {
                    self.outgoing.push((w, self.views[p].get(w)));
                }
            }
        }
        for i in 0..self.outgoing.len() {
            let (var, value) = self.outgoing[i];
            self.send(var, value);
        }
        self.outgoing.clear();

        // 3. Heartbeats.
        if self.config.heartbeat_period > 0
            && self.rounds.is_multiple_of(self.config.heartbeat_period)
        {
            for p in 0..self.views.len() {
                for i in 0..self.refinement.vars_of(p).len() {
                    let var = self.refinement.vars_of(p)[i];
                    let value = self.views[p].get(var);
                    self.send(var, value);
                }
            }
        }

        self.rounds += 1;
    }

    /// Run rounds until `pred` holds on the ground truth for `hold`
    /// consecutive rounds (or the round budget is exhausted).
    ///
    /// # Panics
    ///
    /// Panics if `hold == 0`.
    pub fn run_until_stable(&mut self, pred: &Predicate, hold: u32) -> SimReport {
        assert!(hold > 0);
        self.journal.emit_with(|| Event::EpisodeStarted {
            label: pred.name().to_string(),
        });
        let mut held = 0u32;
        let mut hold_start = 0u64;
        let start_round = self.rounds;
        let mut stabilized_at_round = None;
        let mut truth = State::zeroed(self.program.var_count());
        while self.rounds - start_round < self.config.max_rounds {
            self.round();
            self.ground_truth_into(&mut truth);
            if pred.holds(&truth) {
                if held == 0 {
                    hold_start = self.rounds - 1;
                }
                held += 1;
                if held >= hold {
                    stabilized_at_round = Some(hold_start);
                    self.journal.emit_with(|| Event::Stabilized {
                        rounds: hold_start - start_round,
                    });
                    break;
                }
            } else {
                held = 0;
            }
        }
        SimReport {
            stabilized_at_round,
            rounds: self.rounds - start_round,
            steps: self.steps,
            messages_delivered: self.messages_delivered,
            messages_dropped: self.messages_dropped,
            final_state: self.ground_truth(),
        }
    }

    /// Corrupt every variable of process `p` to random domain values
    /// (authoritative copies only; caches elsewhere go stale, exactly like
    /// a real memory fault).
    pub fn corrupt_process(&mut self, p: usize) {
        for &var in self.refinement.vars_of(p) {
            let value = self.program.var(var).domain().sample(&mut self.rng);
            self.views[p].set(var, value);
        }
        self.journal.emit_with(|| Event::Fault {
            kind: "corrupt-process".to_string(),
            detail: format!("process {p}"),
        });
    }

    /// Overwrite one authoritative variable (targeted fault injection).
    pub fn corrupt_var(&mut self, var: VarId, value: i64) {
        let owner = self.refinement.owner_of(var);
        self.views[owner].set(var, value);
        self.journal.emit_with(|| Event::Fault {
            kind: "corrupt-var".to_string(),
            detail: format!("{} := {value}", self.program.var(var).name()),
        });
    }

    /// Crash-and-restart process `p`: its own variables reset to their
    /// domain minima and all of its caches are cleared to stale minima.
    pub fn crash_restart(&mut self, p: usize) {
        for var in self.program.var_ids() {
            // Own variables and cached remote views alike reset to the
            // domain minimum — the restarted process remembers nothing.
            let min = self.program.var(var).domain().min_value();
            self.views[p].set(var, min);
        }
        self.inboxes[p].clear();
        self.journal.emit_with(|| Event::Fault {
            kind: "crash-restart".to_string(),
            detail: format!("process {p}"),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonmask_protocols::diffusing::DiffusingComputation;
    use nonmask_protocols::token_ring::TokenRing;
    use nonmask_protocols::Tree;

    fn ring_sim(n: usize, k: i64, config: SimConfig) -> (TokenRing, Refinement) {
        let ring = TokenRing::new(n, k);
        let refinement = Refinement::new(ring.program()).unwrap();
        let _ = &config;
        (ring, refinement)
    }

    #[test]
    fn token_ring_stabilizes_over_messages() {
        let (ring, refinement) = ring_sim(5, 5, SimConfig::default());
        let corrupt = ring.program().state_from([3, 1, 4, 1, 2]).unwrap();
        let mut sim = Simulation::new(ring.program(), refinement, corrupt, SimConfig::default());
        let report = sim.run_until_stable(&ring.invariant(), 3);
        assert!(
            report.stabilized_at_round.is_some(),
            "no stabilization in {} rounds",
            report.rounds
        );
        assert_eq!(ring.privileges(&report.final_state).len(), 1);
    }

    #[test]
    fn token_ring_survives_lossy_network() {
        let config = SimConfig {
            loss_rate: 0.3,
            seed: 9,
            ..SimConfig::default()
        };
        let (ring, refinement) = ring_sim(4, 4, config.clone());
        let corrupt = ring.program().state_from([2, 0, 3, 1]).unwrap();
        let mut sim = Simulation::new(ring.program(), refinement, corrupt, config);
        let report = sim.run_until_stable(&ring.invariant(), 3);
        assert!(report.stabilized_at_round.is_some());
        assert!(
            report.messages_dropped > 0,
            "the lossy network dropped something"
        );
    }

    #[test]
    fn diffusing_computation_recovers_from_corruption() {
        let tree = Tree::binary(7);
        let dc = DiffusingComputation::new(&tree);
        let refinement = Refinement::new(dc.program()).unwrap();
        let mut sim = Simulation::new(
            dc.program(),
            refinement,
            dc.initial_state(),
            SimConfig {
                seed: 4,
                ..SimConfig::default()
            },
        );
        // Let the wave run, then corrupt three nodes.
        for _ in 0..10 {
            sim.round();
        }
        sim.corrupt_process(2);
        sim.corrupt_process(5);
        sim.corrupt_process(6);
        let report = sim.run_until_stable(&dc.invariant(), 5);
        assert!(
            report.stabilized_at_round.is_some(),
            "diffusing computation re-stabilized: {} rounds",
            report.rounds
        );
    }

    #[test]
    fn ground_truth_assembles_owner_views() {
        let (ring, refinement) = ring_sim(3, 3, SimConfig::default());
        let initial = ring.initial_state();
        let sim = Simulation::new(
            ring.program(),
            refinement,
            initial.clone(),
            SimConfig::default(),
        );
        assert_eq!(sim.ground_truth(), initial);
    }

    #[test]
    fn heartbeats_refresh_stale_caches() {
        // An inert program (its only action is never enabled): corruption
        // can only reach remote caches through heartbeats.
        use nonmask_program::{Domain, ProcessId, Program};
        let mut b = Program::builder("inert");
        let x0 = b.var_of("x.0", Domain::range(0, 5), ProcessId(0));
        let x1 = b.var_of("x.1", Domain::range(0, 5), ProcessId(1));
        b.closure_action("never@1", [x0, x1], [x1], |_| false, |_| {});
        let p = b.build();
        let refinement = Refinement::new(&p).unwrap();
        let mut sim = Simulation::new(&p, refinement, p.min_state(), SimConfig::default());

        sim.corrupt_var(x0, 3);
        assert_eq!(sim.ground_truth().get(x0), 3, "authoritative copy updated");
        assert_eq!(sim.view_of(1).get(x0), 0, "cache still stale");
        sim.round(); // heartbeat sends x.0 = 3 …
        sim.round(); // … delivered at the start of the next round
        assert_eq!(sim.view_of(1).get(x0), 3, "heartbeat refreshed the cache");
    }

    #[test]
    fn crash_restart_resets_node() {
        let (ring, refinement) = ring_sim(4, 4, SimConfig::default());
        let corrupt = ring.program().state_from([3, 2, 1, 0]).unwrap();
        let mut sim = Simulation::new(ring.program(), refinement, corrupt, SimConfig::default());
        sim.crash_restart(2);
        assert_eq!(sim.ground_truth().get(ring.counter_var(2)), 0);
        let report = sim.run_until_stable(&ring.invariant(), 3);
        assert!(report.stabilized_at_round.is_some());
    }

    #[test]
    fn metrics_accumulate() {
        let (ring, refinement) = ring_sim(3, 3, SimConfig::default());
        let mut sim = Simulation::new(
            ring.program(),
            refinement,
            ring.initial_state(),
            SimConfig::default(),
        );
        for _ in 0..5 {
            sim.round();
        }
        assert_eq!(sim.rounds(), 5);
        assert!(sim.steps() > 0);
        assert!(sim.messages_delivered() > 0);
        assert_eq!(sim.messages_dropped(), 0);
    }

    #[test]
    fn stabilizes_despite_message_delays() {
        // max_delay 4: messages reorder freely; the ring still converges.
        let config = SimConfig {
            seed: 21,
            max_delay: 4,
            ..SimConfig::default()
        };
        let (ring, refinement) = ring_sim(5, 5, config.clone());
        let corrupt = ring.program().state_from([3, 1, 4, 1, 2]).unwrap();
        let mut sim = Simulation::new(ring.program(), refinement, corrupt, config);
        let report = sim.run_until_stable(&ring.invariant(), 5);
        assert!(
            report.stabilized_at_round.is_some(),
            "{} rounds",
            report.rounds
        );
    }

    #[test]
    fn partition_blocks_then_heals() {
        let (ring, refinement) = ring_sim(4, 4, SimConfig::default());
        let corrupt = ring.program().state_from([2, 0, 3, 1]).unwrap();
        let mut sim = Simulation::new(ring.program(), refinement, corrupt, SimConfig::default());
        // Split the ring in half for 50 rounds: cross-group updates drop.
        sim.partition(&[0, 0, 1, 1], 50);
        for _ in 0..50 {
            sim.round();
        }
        assert!(sim.messages_dropped() > 0, "the partition dropped messages");
        // After healing, stabilization proceeds.
        let report = sim.run_until_stable(&ring.invariant(), 3);
        assert!(report.stabilized_at_round.is_some());
    }

    #[test]
    #[should_panic(expected = "one group id per process")]
    fn partition_arity_checked() {
        let (ring, refinement) = ring_sim(4, 4, SimConfig::default());
        let mut sim = Simulation::new(
            ring.program(),
            refinement,
            ring.initial_state(),
            SimConfig::default(),
        );
        sim.partition(&[0, 1], 10);
    }

    #[test]
    fn journal_records_faults_and_stabilization() {
        use nonmask_obs::{Event, Journal, Record};
        let (journal, buffer) = Journal::memory();
        let (ring, refinement) = ring_sim(4, 4, SimConfig::default());
        let corrupt = ring.program().state_from([2, 0, 3, 1]).unwrap();
        let mut sim = Simulation::new(ring.program(), refinement, corrupt, SimConfig::default())
            .with_journal(journal.clone());
        sim.crash_restart(1);
        sim.corrupt_var(ring.counter_var(2), 3);
        let report = sim.run_until_stable(&ring.invariant(), 3);
        assert!(report.stabilized_at_round.is_some());
        journal.flush();
        let records: Vec<Record> = buffer
            .contents()
            .lines()
            .map(|l| Event::parse_line(l).expect("well-formed journal line"))
            .collect();
        assert!(matches!(
            &records[0].event,
            Event::Fault { kind, detail } if kind == "crash-restart" && detail == "process 1"
        ));
        assert!(matches!(
            &records[1].event,
            Event::Fault { kind, .. } if kind == "corrupt-var"
        ));
        assert!(matches!(&records[2].event, Event::EpisodeStarted { .. }));
        assert!(matches!(
            records.last().map(|r| &r.event),
            Some(Event::Stabilized { .. })
        ));
    }

    #[test]
    fn step_log_captures_every_view_transition() {
        use nonmask_program::StepLog;
        let (ring, refinement) = ring_sim(3, 3, SimConfig::default());
        let log = StepLog::new();
        let mut sim = Simulation::new(
            ring.program(),
            refinement,
            ring.initial_state(),
            SimConfig::default(),
        )
        .with_step_log(log.clone());
        for _ in 0..5 {
            sim.round();
        }
        let steps = log.snapshot();
        assert_eq!(steps.len() as u64, sim.steps(), "one record per step");
        for s in &steps {
            let action = ring.program().action(s.action);
            assert!(action.enabled(&s.before), "guard held on the view");
            assert_eq!(action.successor(&s.before), s.after, "effect is exact");
        }
    }

    #[test]
    fn byzantine_liar_never_steps_and_broadcasts_the_lie_stream() {
        use nonmask_graph::Topology;
        use nonmask_program::{byzantine_lie_in, StepLog};
        use nonmask_protocols::MinPlusOne;
        let topo = Topology::line(4);
        let proto = MinPlusOne::with_byzantine(&topo, 0, &[3]);
        let refinement = Refinement::new(proto.program()).unwrap();
        let log = StepLog::new();
        let mut sim = Simulation::new(
            proto.program(),
            refinement,
            proto.program().min_state(),
            SimConfig::default(),
        )
        .with_byzantine([3], 77)
        .with_step_log(log.clone());
        let d3 = proto.dist_var(3);
        let mut cache_values = std::collections::BTreeSet::new();
        for _ in 0..32 {
            sim.round();
            cache_values.insert(sim.view_of(2).get(d3));
        }
        assert!(sim.is_byzantine(3));
        assert!(
            log.snapshot().iter().all(|s| s.site != 3),
            "the liar never executes a program action"
        );
        // The liar's authoritative value is exactly the stateless stream.
        let expect = byzantine_lie_in(
            proto.program().var(d3).domain(),
            77,
            3,
            d3.index() as u64,
            sim.rounds() - 1,
        );
        assert_eq!(sim.ground_truth().get(d3), expect);
        assert!(
            cache_values.len() > 1,
            "lies vary over rounds and reach the neighbour's cache"
        );
    }

    #[test]
    fn byzantine_run_stabilizes_exactly_on_the_safe_region() {
        use nonmask_graph::Topology;
        use nonmask_protocols::MinPlusOne;
        // line(6) with the liar at 5: safe set [T,T,T,F,F,F], radius 2.
        let topo = Topology::line(6);
        let proto = MinPlusOne::with_byzantine(&topo, 0, &[5]);
        let refinement = Refinement::new(proto.program()).unwrap();
        let mut sim = Simulation::new(
            proto.program(),
            refinement,
            proto.program().min_state(),
            SimConfig {
                seed: 11,
                max_rounds: 5_000,
                ..SimConfig::default()
            },
        )
        .with_byzantine([5], 13);
        let report = sim.run_until_stable(&proto.safe_goal(), 8);
        assert!(
            report.stabilized_at_round.is_some(),
            "safe region converged despite the liar ({} rounds)",
            report.rounds
        );
        let legit = proto.legit_distances();
        for (j, safe) in proto.safe_set().iter().enumerate() {
            if *safe {
                assert_eq!(
                    report.final_state.get(proto.dist_var(j)) as u64,
                    legit[j].unwrap(),
                    "safe node {j} holds its legitimate distance"
                );
            }
        }
    }

    #[test]
    fn byzantine_runs_are_deterministic() {
        use nonmask_graph::Topology;
        use nonmask_protocols::MinPlusOne;
        let topo = Topology::random_connected(9, 4, 3);
        let proto = MinPlusOne::with_byzantine(&topo, 0, &[4, 7]);
        let run = || {
            let refinement = Refinement::new(proto.program()).unwrap();
            let mut sim = Simulation::new(
                proto.program(),
                refinement,
                proto.program().min_state(),
                SimConfig {
                    seed: 2,
                    loss_rate: 0.1,
                    ..SimConfig::default()
                },
            )
            .with_byzantine([4, 7], 55);
            for _ in 0..200 {
                sim.round();
            }
            (sim.ground_truth(), sim.messages_delivered(), sim.steps())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn heartbeats_can_be_disabled() {
        let config = SimConfig {
            heartbeat_period: 0,
            ..SimConfig::default()
        };
        let (ring, refinement) = ring_sim(3, 3, config.clone());
        let mut sim = Simulation::new(ring.program(), refinement, ring.initial_state(), config);
        sim.round();
        // Only write-triggered messages flow: the single enabled action
        // (the root's pass) wrote x.0, read remotely by process 1.
        assert_eq!(sim.messages_delivered(), 1);
    }
}
