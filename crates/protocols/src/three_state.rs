//! Dijkstra's *three-state* token protocol (his 1974 note's third
//! solution), mechanically verified.
//!
//! The paper's §7.1 reproduces Dijkstra's K-state ring, whose counter
//! domain must grow with the ring (`k >= n-1`; experiment E6b). Dijkstra's
//! third solution needs only **three** states per machine: machines
//! `0..n-1` in a line (with the top machine additionally reading the
//! bottom machine's state), `x.j ∈ {0,1,2}`, arithmetic mod 3:
//!
//! ```text
//! bottom (0):        x.0 + 1 = x.1                  → x.0 := x.0 + 2
//! middle (0<j<n-1):  x.j + 1 = x.(j-1)              → x.j := x.(j-1)
//!                    x.j + 1 = x.(j+1)              → x.j := x.(j+1)
//! top (n-1):         x.(n-2) = x.0 ∧
//!                    x.(n-2) + 1 ≠ x.(n-1)          → x.(n-1) := x.(n-2) + 1
//! ```
//!
//! Each rule's guard *is* a privilege. The module's tests verify, for
//! every line length enumerated: no state is deadlocked, the
//! one-privilege set is closed, and the protocol converges to it under
//! both the weakly fair and the **unfair** daemon (Dijkstra's central
//! daemon) — with no counter-size condition at all.
//!
//! The protocol is *not* expressed through the paper's constraint /
//! convergence decomposition (its legitimate-state structure resists
//! two-node constraints); it is included as a checker-verified baseline
//! showing the verification substrate is independent of the design
//! method. Historical note: this module's rules were themselves recovered
//! by model checking — candidate rule sets from memory were searched until
//! the checker accepted one, which turned out to be Dijkstra's original.

use nonmask_program::{ActionId, Domain, Predicate, ProcessId, Program, State, VarId};

/// Dijkstra's three-state protocol over a line of `n` machines.
#[derive(Debug, Clone)]
pub struct ThreeState {
    n: usize,
    program: Program,
    x: Vec<VarId>,
    actions_of: Vec<Vec<ActionId>>,
}

impl ThreeState {
    /// Build the protocol.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3` (bottom, top, and at least one middle machine).
    pub fn new(n: usize) -> Self {
        assert!(n >= 3, "the three-state protocol needs at least 3 machines");
        let mut b = Program::builder(format!("three-state[{n}]"));
        let x: Vec<VarId> = (0..n)
            .map(|j| b.var_of(format!("x.{j}"), Domain::range(0, 2), ProcessId(j)))
            .collect();

        let mut actions_of: Vec<Vec<ActionId>> = vec![Vec::new(); n];

        // Bottom machine: if S+1 = R then S := S+2.
        let (x0, x1) = (x[0], x[1]);
        actions_of[0].push(b.combined_action(
            "bottom@0",
            [x0, x1],
            [x0],
            move |s| (s.get(x0) + 1) % 3 == s.get(x1),
            move |s| {
                let v = (s.get(x0) + 2) % 3;
                s.set(x0, v);
            },
        ));

        // Middle machines: if S+1 = L then S := L; if S+1 = R then S := R.
        for j in 1..n - 1 {
            let (xl, xj, xr) = (x[j - 1], x[j], x[j + 1]);
            actions_of[j].push(b.combined_action(
                format!("middle-left@{j}"),
                [xl, xj],
                [xj],
                move |s| (s.get(xj) + 1) % 3 == s.get(xl),
                move |s| {
                    let v = s.get(xl);
                    s.set(xj, v);
                },
            ));
            actions_of[j].push(b.combined_action(
                format!("middle-right@{j}"),
                [xj, xr],
                [xj],
                move |s| (s.get(xj) + 1) % 3 == s.get(xr),
                move |s| {
                    let v = s.get(xr);
                    s.set(xj, v);
                },
            ));
        }

        // Top machine: if L = B and L+1 != S then S := L+1, where B is the
        // bottom machine's state.
        let (xt, xp, xb) = (x[n - 1], x[n - 2], x[0]);
        actions_of[n - 1].push(b.combined_action(
            format!("top@{}", n - 1),
            [xp, xt, xb],
            [xt],
            move |s| s.get(xp) == s.get(xb) && (s.get(xp) + 1) % 3 != s.get(xt),
            move |s| {
                let v = (s.get(xp) + 1) % 3;
                s.set(xt, v);
            },
        ));

        ThreeState {
            n,
            program: b.build(),
            x,
            actions_of,
        }
    }

    /// Number of machines.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Never empty (`n >= 3`); provided for API completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The guarded-command program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The state variable of machine `j`.
    pub fn state_var(&self, j: usize) -> VarId {
        self.x[j]
    }

    /// The actions of machine `j` (middles have two: left- and
    /// right-pulled).
    pub fn actions_of(&self, j: usize) -> &[ActionId] {
        &self.actions_of[j]
    }

    /// Number of privileges machine `j` holds at `state` (a middle machine
    /// can hold two).
    pub fn privileges_of(&self, state: &State, j: usize) -> usize {
        self.actions_of[j]
            .iter()
            .filter(|&&a| self.program.action(a).enabled(state))
            .count()
    }

    /// Total privileges at `state`.
    pub fn total_privileges(&self, state: &State) -> usize {
        (0..self.n).map(|j| self.privileges_of(state, j)).sum()
    }

    /// The invariant: exactly one privilege in the whole line.
    pub fn invariant(&self) -> Predicate {
        let program = self.program.clone();
        let reads: Vec<VarId> = self.x.clone();
        Predicate::new("one-privilege", reads, move |s| {
            program.enabled_actions(s).len() == 1
        })
    }

    /// A canonical legitimate state (all zero: only the top machine is
    /// privileged, since `x.(n-2) = x.0` and `x.(n-2)+1 ≠ x.(n-1)`).
    pub fn legitimate_state(&self) -> State {
        State::zeroed(self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonmask_checker::{check_convergence, is_closed, CheckOptions, Fairness, StateSpace};
    use nonmask_program::scheduler::Random;
    use nonmask_program::{Executor, RunConfig};

    #[test]
    fn stabilizes_for_all_small_sizes_even_unfair() {
        for n in [3usize, 4, 5, 6] {
            let ts = ThreeState::new(n);
            let space = StateSpace::enumerate(ts.program()).unwrap();
            let s = ts.invariant();
            assert!(
                is_closed(&space, &s).unwrap().is_none(),
                "n={n}: one-privilege set is closed"
            );
            let t = Predicate::always_true();
            let report =
                check_convergence(&space, ts.program(), &t, &s, CheckOptions::default()).unwrap();
            for fairness in [Fairness::WeaklyFair, Fairness::Unfair] {
                let r = report.verdict(fairness);
                assert!(r.converges(), "n={n} {fairness}: {r:?}");
            }
        }
    }

    #[test]
    fn no_counter_size_condition() {
        // The K-state ring needs k >= n-1 (E6b); three states suffice for
        // n = 7 machines (3^7 = 2187 states, exhaustive).
        let ts = ThreeState::new(7);
        let space = StateSpace::enumerate(ts.program()).unwrap();
        let r = check_convergence(
            &space,
            ts.program(),
            &Predicate::always_true(),
            &ts.invariant(),
            CheckOptions::default(),
        )
        .unwrap()
        .weakly_fair;
        assert!(r.converges());
    }

    #[test]
    fn legitimate_state_has_one_privilege() {
        let ts = ThreeState::new(5);
        let st = ts.legitimate_state();
        assert_eq!(ts.total_privileges(&st), 1);
        assert_eq!(ts.privileges_of(&st, 4), 1, "top holds the privilege");
        assert!(ts.invariant().holds(&st));
    }

    #[test]
    fn no_state_is_deadlocked() {
        // Some machine is always privileged: the line never halts.
        let ts = ThreeState::new(4);
        let space = StateSpace::enumerate(ts.program()).unwrap();
        for id in space.ids() {
            assert!(
                !space.successors(id).is_empty(),
                "state {:?} is deadlocked",
                space.state(id).slots()
            );
        }
    }

    #[test]
    fn privilege_bounces_between_ends() {
        // In legitimate operation the single privilege travels down to the
        // bottom and back up to the top, moving to an adjacent machine
        // each step.
        let ts = ThreeState::new(4);
        let mut state = ts.legitimate_state();
        let mut holders = Vec::new();
        for _ in 0..24 {
            let enabled = ts.program().enabled_actions(&state);
            assert_eq!(enabled.len(), 1);
            let holder = (0..4)
                .find(|&j| ts.actions_of(j).contains(&enabled[0]))
                .unwrap();
            holders.push(holder);
            ts.program().action(enabled[0]).apply(&mut state);
        }
        assert!(holders.contains(&0) && holders.contains(&3), "{holders:?}");
        for w in holders.windows(2) {
            assert!(w[0].abs_diff(w[1]) <= 1, "privilege jumped: {holders:?}");
        }
    }

    #[test]
    fn recovers_from_random_corruption() {
        let ts = ThreeState::new(6);
        let s = ts.invariant();
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(8);
        for seed in 0..10 {
            let start = ts.program().random_state(&mut rng);
            let report = Executor::new(ts.program()).run(
                start,
                &mut Random::seeded(seed),
                &RunConfig::default().stop_when(&s, 1).max_steps(100_000),
            );
            assert!(report.stop.is_stabilized());
        }
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn too_small_rejected() {
        let _ = ThreeState::new(2);
    }
}
