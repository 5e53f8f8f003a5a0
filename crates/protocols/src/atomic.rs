//! Stabilizing atomic actions (named in the paper's abstract; the worked
//! example appears only in the unpublished full version — see DESIGN.md's
//! substitution note).
//!
//! We design, with the paper's method, a lock-based atomic-action protocol
//! on a ring: process `j` executes its atomic action (*engages*) only
//! while holding both adjacent locks (`f.(j-1)` and `f.j`, dining-
//! philosophers style). Each lock `f.j`, stored with process `j`, is
//! `Free`, held by its left owner (`Left`, process `j`), or held by its
//! right owner (`Right`, process `j+1`).
//!
//! The invariant is the conjunction of per-process constraints
//!
//! ```text
//! c.j  =  pc.j = Engaged  ⇒  f.(j-1) = Right ∧ f.j = Left
//! ```
//!
//! (an engaged process holds both its locks — which also gives neighbour
//! mutual exclusion: adjacent processes would need the shared lock in two
//! states at once). Faults may corrupt program counters and lock fields
//! arbitrarily; the convergence action for `c.j` *demotes* `j` back to the
//! acquiring phase:
//!
//! ```text
//! ¬c.j  →  pc.j := Waiting
//! ```
//!
//! Each repair writes only node `j` and reads nodes `j-1` and `j`, so the
//! constraint-graph edges `j-1 → j` form a ring — a **cyclic** graph.
//! Splitting the constraints into even/odd layers makes each layer's graph
//! self-looping, and Theorem 3 validates the design (`E10`).
//!
//! Unlike the diffusing computation and the token ring, this protocol
//! *needs* weak fairness to converge: while `¬c.j` holds nothing but the
//! repair writes `pc.j`, so the repair is continuously enabled, but an
//! unfair daemon can run the other processes' closure actions forever
//! (experiment E8 shows the contrast).

use nonmask::{Design, DesignError};
use nonmask_graph::{ConstraintRef, Layering, NodePartition};
use nonmask_program::{ActionId, Domain, Predicate, ProcessId, Program, State, VarId};

/// Phase values of a process.
pub mod phase {
    /// Not interested in running its atomic action.
    pub const IDLE: i64 = 0;
    /// Wants to run its atomic action; acquiring locks.
    pub const WAITING: i64 = 1;
    /// Running its atomic action (must hold both locks).
    pub const ENGAGED: i64 = 2;
}

/// Lock-field values of `f.j` (the lock between `j` and `j+1`).
pub mod lock {
    /// Held by nobody.
    pub const FREE: i64 = 0;
    /// Held by its left owner, process `j`.
    pub const LEFT: i64 = 1;
    /// Held by its right owner, process `j+1`.
    pub const RIGHT: i64 = 2;
}

/// The stabilizing atomic-action protocol over a ring of `n` processes.
#[derive(Debug, Clone)]
pub struct AtomicActions {
    n: usize,
    program: Program,
    pc: Vec<VarId>,
    f: Vec<VarId>,
    repairs: Vec<ActionId>,
}

impl AtomicActions {
    /// Build the protocol for `n` processes.
    ///
    /// Lock acquisition is asymmetric at process `0` (it grabs its left
    /// lock first) to break the circular-wait deadlock, as usual for
    /// dining philosophers.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "a ring needs at least two processes");
        let mut b = Program::builder(format!("atomic-actions[{n}]"));
        let pc: Vec<VarId> = (0..n)
            .map(|j| {
                b.var_of(
                    format!("pc.{j}"),
                    Domain::enumeration(["idle", "waiting", "engaged"]),
                    ProcessId(j),
                )
            })
            .collect();
        let f: Vec<VarId> = (0..n)
            .map(|j| {
                b.var_of(
                    format!("f.{j}"),
                    Domain::enumeration(["free", "left", "right"]),
                    ProcessId(j),
                )
            })
            .collect();

        let left_of = |j: usize| (j + n - 1) % n;

        for j in 0..n {
            let pcj = pc[j];
            let fr = f[j]; // right lock of j (f.j, stored at j)
            let fl = f[left_of(j)]; // left lock of j (f.(j-1), stored at j-1)

            // Want to run the atomic action.
            b.closure_action(
                format!("request@{j}"),
                [pcj],
                [pcj],
                move |s| s.get(pcj) == phase::IDLE,
                move |s| s.set(pcj, phase::WAITING),
            );
            // Grab the right lock (f.j := Left means "held by j").
            b.closure_action(
                format!("grab-right@{j}"),
                [pcj, fr],
                [fr],
                move |s| s.get(pcj) == phase::WAITING && s.get(fr) == lock::FREE,
                move |s| s.set(fr, lock::LEFT),
            );
            // Grab the left lock (f.(j-1) := Right means "held by j").
            b.closure_action(
                format!("grab-left@{j}"),
                [pcj, fl],
                [fl],
                move |s| s.get(pcj) == phase::WAITING && s.get(fl) == lock::FREE,
                move |s| s.set(fl, lock::RIGHT),
            );
            // Engage: both locks held.
            b.closure_action(
                format!("engage@{j}"),
                [pcj, fl, fr],
                [pcj],
                move |s| {
                    s.get(pcj) == phase::WAITING
                        && s.get(fl) == lock::RIGHT
                        && s.get(fr) == lock::LEFT
                },
                move |s| s.set(pcj, phase::ENGAGED),
            );
            // Complete the atomic action and release both locks — only
            // from a state where the locks are properly held (improperly
            // engaged processes are handled by the repair).
            b.closure_action(
                format!("release@{j}"),
                [pcj, fl, fr],
                [pcj, fl, fr],
                move |s| {
                    s.get(pcj) == phase::ENGAGED
                        && s.get(fl) == lock::RIGHT
                        && s.get(fr) == lock::LEFT
                },
                move |s| {
                    s.set(pcj, phase::IDLE);
                    s.set(fl, lock::FREE);
                    s.set(fr, lock::FREE);
                },
            );
        }

        // Convergence actions: demote improperly engaged processes.
        let mut repairs = Vec::with_capacity(n);
        for j in 0..n {
            let pcj = pc[j];
            let fr = f[j];
            let fl = f[left_of(j)];
            repairs.push(b.convergence_action(
                format!("repair@{j}"),
                [pcj, fl, fr],
                [pcj],
                move |s| {
                    s.get(pcj) == phase::ENGAGED
                        && !(s.get(fl) == lock::RIGHT && s.get(fr) == lock::LEFT)
                },
                move |s| s.set(pcj, phase::WAITING),
            ));
        }

        AtomicActions {
            n,
            program: b.build(),
            pc,
            f,
            repairs,
        }
    }

    /// Number of processes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Never empty (`n >= 2`); provided for API completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The guarded-command program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The phase variable of process `j`.
    pub fn phase_var(&self, j: usize) -> VarId {
        self.pc[j]
    }

    /// The lock variable `f.j` (between `j` and `j+1`).
    pub fn lock_var(&self, j: usize) -> VarId {
        self.f[j]
    }

    /// The repair action of process `j`.
    pub fn repair_action(&self, j: usize) -> ActionId {
        self.repairs[j]
    }

    /// The constraint `c.j`: an engaged process holds both its locks.
    pub fn constraint(&self, j: usize) -> Predicate {
        let pcj = self.pc[j];
        let fr = self.f[j];
        let fl = self.f[(j + self.n - 1) % self.n];
        Predicate::new(format!("c.{j}"), [pcj, fl, fr], move |s| {
            s.get(pcj) != phase::ENGAGED || (s.get(fl) == lock::RIGHT && s.get(fr) == lock::LEFT)
        })
    }

    /// The invariant `S = (∀ j :: c.j)`.
    pub fn invariant(&self) -> Predicate {
        let cs: Vec<Predicate> = (0..self.n).map(|j| self.constraint(j)).collect();
        Predicate::all("S", cs.iter()).named("S")
    }

    /// Whether processes `j` and `j+1` are ever simultaneously engaged at
    /// `state` — within `S` this is impossible (mutual exclusion).
    pub fn neighbours_engaged(&self, state: &State) -> bool {
        (0..self.n).any(|j| {
            state.get(self.pc[j]) == phase::ENGAGED
                && state.get(self.pc[(j + 1) % self.n]) == phase::ENGAGED
        })
    }

    /// The all-idle, all-free initial state.
    pub fn initial_state(&self) -> State {
        State::zeroed(2 * self.n)
    }

    /// The complete [`Design`]: constraints `c.j`, ring-shaped constraint
    /// graph, even/odd layering for Theorem 3.
    ///
    /// The even/odd split needs `n` even to avoid two same-layer
    /// constraints sharing a node at the ring seam.
    ///
    /// # Errors
    ///
    /// Mirrors [`Design::builder`] validation.
    ///
    /// # Panics
    ///
    /// Panics if `n` is odd (the layering is only clean for even rings;
    /// the *protocol* works for any `n ≥ 2` — verify odd rings against
    /// [`AtomicActions::invariant`] with the checker directly).
    pub fn design(&self) -> Result<Design, DesignError> {
        assert!(
            self.n.is_multiple_of(2),
            "even/odd layering needs an even ring"
        );
        let partition = NodePartition::by_process(&self.program);
        let mut builder = Design::builder(self.program.clone()).partition(partition);
        for j in 0..self.n {
            builder = builder.constraint(format!("c.{j}"), self.constraint(j), self.repairs[j]);
        }
        let evens: Vec<ConstraintRef> = (0..self.n).step_by(2).map(ConstraintRef).collect();
        let odds: Vec<ConstraintRef> = (1..self.n).step_by(2).map(ConstraintRef).collect();
        let layering = Layering::new([evens, odds]).expect("disjoint, nonempty layers");
        builder.layering(layering).build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonmask::TheoremOutcome;
    use nonmask_checker::{check_convergence, CheckOptions, ConvergenceResult, StateSpace};
    use nonmask_graph::Shape;
    use nonmask_program::scheduler::Random;
    use nonmask_program::{Executor, RunConfig};

    #[test]
    fn graph_is_a_ring_hence_cyclic() {
        let aa = AtomicActions::new(4);
        let design = aa.design().unwrap();
        let graph = design.constraint_graph().unwrap();
        assert_eq!(graph.node_count(), 4);
        assert_eq!(graph.edge_count(), 4);
        assert_eq!(graph.shape(), Shape::Cyclic);
    }

    #[test]
    fn theorem3_applies_with_even_odd_layers() {
        let aa = AtomicActions::new(4);
        let design = aa.design().unwrap();
        let report = design.verify().unwrap();
        assert!(
            matches!(report.theorem, TheoremOutcome::Theorem3 { layers: 2 }),
            "expected Theorem 3, got {:?}",
            report.theorem
        );
        assert!(report.is_tolerant(), "{}", report.summary());
        assert!(report.is_stabilizing());
    }

    #[test]
    fn needs_fairness_unlike_the_other_protocols() {
        // Under an unfair daemon the other processes' closure actions can
        // run forever while an improperly-engaged process waits for its
        // repair.
        let aa = AtomicActions::new(4);
        let space = StateSpace::enumerate(aa.program()).unwrap();
        let r = check_convergence(
            &space,
            aa.program(),
            &Predicate::always_true(),
            &aa.invariant(),
            CheckOptions::default(),
        )
        .unwrap()
        .unfair;
        assert!(
            matches!(r, ConvergenceResult::Divergence { .. }),
            "unfair daemon diverges: {r:?}"
        );
    }

    #[test]
    fn mutual_exclusion_inside_invariant() {
        let aa = AtomicActions::new(4);
        let space = StateSpace::enumerate(aa.program()).unwrap();
        let s = aa.invariant();
        for id in space.satisfying(&s).unwrap() {
            assert!(
                !aa.neighbours_engaged(&space.state(id)),
                "S implies neighbour mutual exclusion"
            );
        }
    }

    #[test]
    fn closure_from_initial_state() {
        // Fault-free runs never leave S.
        let aa = AtomicActions::new(4);
        let s = aa.invariant();
        let report = Executor::new(aa.program()).run(
            aa.initial_state(),
            &mut Random::seeded(7),
            &RunConfig::default().max_steps(2_000).watch(&s),
        );
        assert_eq!(
            report.watch_hits[0], report.steps,
            "S held after every step"
        );
    }

    #[test]
    fn progress_under_fair_scheduling() {
        // Every process engages eventually (no livelock from the initial
        // state under a random daemon).
        let aa = AtomicActions::new(4);
        let mut engaged = [0u64; 4];
        let mut state = aa.initial_state();
        let mut sched = Random::seeded(3);
        let exec = Executor::new(aa.program());
        for _ in 0..4_000 {
            let report = exec.run(
                state.clone(),
                &mut sched,
                &RunConfig::default().max_steps(1),
            );
            state = report.final_state;
            for (j, count) in engaged.iter_mut().enumerate() {
                if state.get(aa.phase_var(j)) == phase::ENGAGED {
                    *count += 1;
                }
            }
        }
        for (j, &count) in engaged.iter().enumerate() {
            assert!(count > 0, "process {j} never engaged");
        }
    }

    #[test]
    fn odd_rings_verified_directly() {
        // The layering needs even rings, but the protocol itself
        // stabilizes for odd sizes too.
        let aa = AtomicActions::new(3);
        let space = StateSpace::enumerate(aa.program()).unwrap();
        let r = check_convergence(
            &space,
            aa.program(),
            &Predicate::always_true(),
            &aa.invariant(),
            CheckOptions::default(),
        )
        .unwrap()
        .weakly_fair;
        assert!(r.converges(), "{r:?}");
    }

    #[test]
    #[should_panic(expected = "even ring")]
    fn odd_design_panics() {
        let _ = AtomicActions::new(3).design();
    }

    #[test]
    fn repair_demotes() {
        let aa = AtomicActions::new(2);
        let mut st = aa.initial_state();
        st.set(aa.phase_var(0), phase::ENGAGED); // engaged without locks
        assert!(!aa.invariant().holds(&st));
        assert!(aa.program().action(aa.repair_action(0)).enabled(&st));
        aa.program().action(aa.repair_action(0)).apply(&mut st);
        assert_eq!(st.get(aa.phase_var(0)), phase::WAITING);
        assert!(aa.invariant().holds(&st));
    }
}
