//! Stabilizing token rings (§7.1; the program is due to Dijkstra).
//!
//! `n` nodes `0 .. n-1` form a ring; node `j`'s successor is `j+1 mod n`.
//! Node `0` (the "root", Dijkstra's bottom machine) is privileged when
//! `x.0 = x.(n-1)`; node `j > 0` is privileged when `x.j ≠ x.(j-1)`.
//! Passing the privilege executes
//!
//! ```text
//! x.0 = x.(n-1)  →  x.0 := x.0 + 1          (root)
//! x.j ≠ x.(j-1)  →  x.j := x.(j-1)          (j > 0; merged closure/convergence)
//! ```
//!
//! Three flavours are provided:
//!
//! - [`TokenRing::new`] — the executable **mod-K** protocol (Dijkstra's
//!   K-state machine). Its invariant is *exactly one node is privileged*;
//!   the model checker verifies closure and convergence exhaustively.
//! - [`TokenRing::unbounded`] — the paper's literal program over unbounded
//!   integers, for simulation (unbounded state spaces cannot be
//!   enumerated).
//! - [`windowed_design`] — the paper's **layered design** made mechanical:
//!   counters live in a bounded window `0..=m` (the root stalls at the
//!   cap, a checker-window artifact documented in DESIGN.md), layer 1
//!   holds the constraints `x.(j-1) ≥ x.j`, layer 2 the constraints
//!   `x.(j-1) = x.j`, and Theorem 3 validates the convergence actions.

use nonmask::{Constraint, Design, DesignError};
use nonmask_graph::{ConstraintRef, Layering, NodePartition};
use nonmask_program::{ActionId, Domain, Predicate, ProcessId, Program, State, VarId};

/// Dijkstra's K-state token ring over `n` nodes (bounded counters).
#[derive(Debug, Clone)]
pub struct TokenRing {
    n: usize,
    k: i64,
    program: Program,
    x: Vec<VarId>,
    actions: Vec<ActionId>,
}

impl TokenRing {
    /// The mod-`k` protocol over `n` nodes.
    ///
    /// Dijkstra's theorem needs `k >= n` for stabilization from arbitrary
    /// states; smaller `k` is accepted (experiments probe the crossover)
    /// but not guaranteed to stabilize.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `k < 2`.
    pub fn new(n: usize, k: i64) -> Self {
        assert!(n >= 2, "a ring needs at least two nodes");
        assert!(k >= 2, "counters need at least two values");
        let mut b = Program::builder(format!("token-ring[n={n},k={k}]"));
        let x: Vec<VarId> = (0..n)
            .map(|j| b.var_of(format!("x.{j}"), Domain::range(0, k - 1), ProcessId(j)))
            .collect();

        let mut actions = Vec::with_capacity(n);
        let (x0, xl) = (x[0], x[n - 1]);
        actions.push(b.combined_action(
            "pass@0",
            [x0, xl],
            [x0],
            move |s| s.get(x0) == s.get(xl),
            move |s| {
                let v = s.get(x0);
                s.set(x0, (v + 1) % k);
            },
        ));
        for j in 1..n {
            let (xj, xp) = (x[j], x[j - 1]);
            actions.push(b.combined_action(
                format!("pass@{j}"),
                [xj, xp],
                [xj],
                move |s| s.get(xj) != s.get(xp),
                move |s| {
                    let v = s.get(xp);
                    s.set(xj, v);
                },
            ));
        }

        TokenRing {
            n,
            k,
            program: b.build(),
            x,
            actions,
        }
    }

    /// A deliberately broken mod-`k` ring for the conformance harness's
    /// planted-bug self-test (cargo feature `planted-bug`): identical to
    /// [`TokenRing::new`] except the root passes the privilege by
    /// incrementing its counter by **two** — the off-by-one a differential
    /// harness must catch. Variable and action layout match the reference
    /// exactly, so views recorded while executing the mutant can be
    /// validated against the reference program's transition relation.
    #[cfg(feature = "planted-bug")]
    pub fn planted_mutant(n: usize, k: i64) -> Self {
        assert!(n >= 2, "a ring needs at least two nodes");
        assert!(k >= 2, "counters need at least two values");
        let mut b = Program::builder(format!("token-ring-mutant[n={n},k={k}]"));
        let x: Vec<VarId> = (0..n)
            .map(|j| b.var_of(format!("x.{j}"), Domain::range(0, k - 1), ProcessId(j)))
            .collect();

        let mut actions = Vec::with_capacity(n);
        let (x0, xl) = (x[0], x[n - 1]);
        actions.push(b.combined_action(
            "pass@0",
            [x0, xl],
            [x0],
            move |s| s.get(x0) == s.get(xl),
            move |s| {
                let v = s.get(x0);
                // The planted bug: += 2 instead of += 1.
                s.set(x0, (v + 2) % k);
            },
        ));
        for j in 1..n {
            let (xj, xp) = (x[j], x[j - 1]);
            actions.push(b.combined_action(
                format!("pass@{j}"),
                [xj, xp],
                [xj],
                move |s| s.get(xj) != s.get(xp),
                move |s| {
                    let v = s.get(xp);
                    s.set(xj, v);
                },
            ));
        }

        TokenRing {
            n,
            k,
            program: b.build(),
            x,
            actions,
        }
    }

    /// The paper's literal unbounded-counter program (for simulation; its
    /// state space cannot be enumerated).
    pub fn unbounded(n: usize) -> Self {
        assert!(n >= 2, "a ring needs at least two nodes");
        let mut b = Program::builder(format!("token-ring-unbounded[n={n}]"));
        let x: Vec<VarId> = (0..n)
            .map(|j| b.var_of(format!("x.{j}"), Domain::Unbounded, ProcessId(j)))
            .collect();
        let mut actions = Vec::with_capacity(n);
        let (x0, xl) = (x[0], x[n - 1]);
        actions.push(b.combined_action(
            "pass@0",
            [x0, xl],
            [x0],
            move |s| s.get(x0) == s.get(xl),
            move |s| {
                let v = s.get(x0);
                s.set(x0, v + 1);
            },
        ));
        for j in 1..n {
            let (xj, xp) = (x[j], x[j - 1]);
            actions.push(b.combined_action(
                format!("pass@{j}"),
                [xj, xp],
                [xj],
                move |s| s.get(xj) != s.get(xp),
                move |s| {
                    let v = s.get(xp);
                    s.set(xj, v);
                },
            ));
        }
        TokenRing {
            n,
            k: i64::MAX,
            program: b.build(),
            x,
            actions,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Never empty (`n >= 2`); provided for API completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The counter modulus (`i64::MAX` for the unbounded flavour).
    pub fn modulus(&self) -> i64 {
        self.k
    }

    /// The guarded-command program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The counter variable of node `j`.
    pub fn counter_var(&self, j: usize) -> VarId {
        self.x[j]
    }

    /// The privilege-passing action of node `j`.
    pub fn pass_action(&self, j: usize) -> ActionId {
        self.actions[j]
    }

    /// Whether node `j` is privileged at `state`.
    pub fn is_privileged(&self, state: &State, j: usize) -> bool {
        if j == 0 {
            state.get(self.x[0]) == state.get(self.x[self.n - 1])
        } else {
            state.get(self.x[j]) != state.get(self.x[j - 1])
        }
    }

    /// The privileged nodes at `state`, in ring order.
    pub fn privileges(&self, state: &State) -> Vec<usize> {
        (0..self.n)
            .filter(|&j| self.is_privileged(state, j))
            .collect()
    }

    /// The token holder, if exactly one node is privileged.
    pub fn token_holder(&self, state: &State) -> Option<usize> {
        let p = self.privileges(state);
        (p.len() == 1).then(|| p[0])
    }

    /// The invariant: exactly one node is privileged (requirement (i) of
    /// the specification).
    pub fn invariant(&self) -> Predicate {
        let xs = self.x.clone();
        let n = self.n;
        Predicate::new("one-privilege", self.x.iter().copied(), move |s| {
            let mut count = 0;
            if s.get(xs[0]) == s.get(xs[n - 1]) {
                count += 1;
            }
            for j in 1..n {
                if s.get(xs[j]) != s.get(xs[j - 1]) {
                    count += 1;
                }
            }
            count == 1
        })
    }

    /// The agreement decomposition: `c.j ≡ x.j = x.(j-1)` for
    /// `j = 1 .. n-1`, each paired with `pass@j`, whose effect
    /// `x.j := x.(j-1)` re-establishes the boundary from any state. The
    /// constraint graph is the ring's chain, and where every `c.j` holds
    /// only the root is privileged (the shape of Theorem 2).
    pub fn constraints(&self) -> Vec<Constraint> {
        (1..self.n)
            .map(|j| {
                let (xj, xp) = (self.x[j], self.x[j - 1]);
                let name = format!("c.{j}");
                let agree = Predicate::new(name.clone(), [xj, xp], move |s| s.get(xj) == s.get(xp));
                Constraint::new(name, agree, self.actions[j])
            })
            .collect()
    }

    /// The all-zero legitimate state (root privileged).
    pub fn initial_state(&self) -> State {
        State::zeroed(self.n)
    }
}

/// Handles into the program built by [`windowed_design`].
#[derive(Debug, Clone)]
pub struct WindowedTokenRing {
    /// The counter variables `x.0 .. x.(n-1)`.
    pub x: Vec<VarId>,
    /// The root's increment action (closure).
    pub root: ActionId,
    /// Layer-1 repairs (`x.(j-1) < x.j → x.j := x.(j-1)`), `j = 1..n`.
    pub layer1: Vec<ActionId>,
    /// Layer-2 merged actions (`x.(j-1) > x.j → x.j := x.(j-1)`), `j = 1..n`.
    pub layer2: Vec<ActionId>,
}

/// The paper's layered token-ring design over counters in `0..=m`
/// (Section 7.1 made mechanical).
///
/// The invariant is the paper's
/// `S = (∀ j : x.(j-1) ≥ x.j) ∧ (x.0 = x.(n-1) ∨ x.0 = x.(n-1) + 1)`,
/// supplied via [`nonmask::DesignBuilder::invariant_override`] because the
/// second-layer constraints `x.(j-1) = x.j` imply — rather than equal —
/// the second conjunct. The root's increment carries the window guard
/// `x.0 < m`, so runs eventually park at the all-equal-`m` state (which
/// satisfies `S`); this cap is what makes the state space finite and the
/// theorem obligations checkable.
///
/// # Errors
///
/// Mirrors [`Design::builder`] validation (cannot fail for these inputs).
///
/// # Panics
///
/// Panics if `n < 2` or `m < 1`.
pub fn windowed_design(n: usize, m: i64) -> Result<(Design, WindowedTokenRing), DesignError> {
    assert!(n >= 2, "a ring needs at least two nodes");
    assert!(m >= 1, "the window needs at least two values");
    let mut b = Program::builder(format!("token-ring-windowed[n={n},m={m}]"));
    let x: Vec<VarId> = (0..n)
        .map(|j| b.var_of(format!("x.{j}"), Domain::range(0, m), ProcessId(j)))
        .collect();

    let (x0, xl) = (x[0], x[n - 1]);
    let root = b.closure_action(
        "root-increment",
        [x0, xl],
        [x0],
        move |s| s.get(x0) == s.get(xl) && s.get(x0) < m,
        move |s| {
            let v = s.get(x0);
            s.set(x0, v + 1);
        },
    );

    let mut layer1 = Vec::new();
    let mut layer2 = Vec::new();
    for j in 1..n {
        let (xj, xp) = (x[j], x[j - 1]);
        layer1.push(b.convergence_action(
            format!("repair-ge@{j}"),
            [xj, xp],
            [xj],
            move |s| s.get(xp) < s.get(xj),
            move |s| {
                let v = s.get(xp);
                s.set(xj, v);
            },
        ));
        layer2.push(b.combined_action(
            format!("copy@{j}"),
            [xj, xp],
            [xj],
            move |s| s.get(xp) > s.get(xj),
            move |s| {
                let v = s.get(xp);
                s.set(xj, v);
            },
        ));
    }
    let program = b.build();

    // S: non-increasing along the path, with x.0 ∈ {x.(n-1), x.(n-1)+1}:
    // one conjunct per pair of neighbours and one for the root's window,
    // so that a checker can tabulate each over its two variables.
    let mut conjuncts: Vec<Predicate> = (1..n)
        .map(|j| {
            let (xp, xj) = (x[j - 1], x[j]);
            Predicate::new(format!("x.{}>=x.{j}", j - 1), [xp, xj], move |s| {
                s.get(xp) >= s.get(xj)
            })
        })
        .collect();
    conjuncts.push(Predicate::new("root-window", [x0, xl], move |s| {
        s.get(x0) == s.get(xl) || s.get(x0) == s.get(xl) + 1
    }));
    let invariant = Predicate::all("S", &conjuncts);

    let partition = NodePartition::by_process(&program);
    let mut builder = Design::builder(program)
        .partition(partition)
        .invariant_override(invariant);
    for j in 1..n {
        let (xj, xp) = (x[j], x[j - 1]);
        builder = builder.constraint(
            format!("x.{}>=x.{j}", j - 1),
            Predicate::new(format!("x.{}>=x.{j}", j - 1), [xp, xj], move |s| {
                s.get(xp) >= s.get(xj)
            }),
            layer1[j - 1],
        );
    }
    for j in 1..n {
        let (xj, xp) = (x[j], x[j - 1]);
        builder = builder.constraint(
            format!("x.{}=x.{j}", j - 1),
            Predicate::new(format!("x.{}=x.{j}", j - 1), [xp, xj], move |s| {
                s.get(xp) == s.get(xj)
            }),
            layer2[j - 1],
        );
    }
    let layering = Layering::new([
        (0..n - 1).map(ConstraintRef).collect::<Vec<_>>(),
        (n - 1..2 * (n - 1)).map(ConstraintRef).collect::<Vec<_>>(),
    ])
    .expect("disjoint, nonempty layers");
    let design = builder.layering(layering).build()?;
    Ok((
        design,
        WindowedTokenRing {
            x,
            root,
            layer1,
            layer2,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonmask_checker::{check_convergence, CheckOptions, Fairness, StateSpace};
    use nonmask_program::scheduler::RoundRobin;
    use nonmask_program::{Executor, RunConfig};

    #[test]
    fn privileges_and_invariant_agree() {
        let ring = TokenRing::new(4, 4);
        let s0 = ring.initial_state();
        assert_eq!(ring.privileges(&s0), vec![0]);
        assert_eq!(ring.token_holder(&s0), Some(0));
        assert!(ring.invariant().holds(&s0));

        let bad = ring.program().state_from([0, 1, 0, 2]).unwrap();
        assert!(ring.privileges(&bad).len() > 1);
        assert!(!ring.invariant().holds(&bad));
        assert_eq!(ring.token_holder(&bad), None);
    }

    #[test]
    fn stabilizes_for_k_at_least_n() {
        for (n, k) in [(3, 3), (3, 4), (4, 4)] {
            let ring = TokenRing::new(n, k as i64);
            let space = StateSpace::enumerate(ring.program()).unwrap();
            let s = ring.invariant();
            let t = Predicate::always_true();
            let report =
                check_convergence(&space, ring.program(), &t, &s, CheckOptions::default()).unwrap();
            for fairness in [Fairness::WeaklyFair, Fairness::Unfair] {
                let r = report.verdict(fairness);
                assert!(r.converges(), "n={n} k={k} {fairness}: {r:?}");
            }
            assert!(
                report.worst_case_moves.is_some(),
                "n={n} k={k}: finite convergence bound"
            );
        }
    }

    #[test]
    fn invariant_is_closed() {
        let ring = TokenRing::new(4, 4);
        let space = StateSpace::enumerate(ring.program()).unwrap();
        let s = ring.invariant();
        assert!(nonmask_checker::is_closed(&space, &s).unwrap().is_none());
    }

    #[test]
    fn exactly_one_action_enabled_in_legitimate_states() {
        // In S, the privileged node's action is the only enabled one:
        // requirement (i) of the specification.
        let ring = TokenRing::new(4, 4);
        let space = StateSpace::enumerate(ring.program()).unwrap();
        let s = ring.invariant();
        for id in space.satisfying(&s).unwrap() {
            let st = space.state(id);
            let enabled = ring.program().enabled_actions(&st);
            assert_eq!(enabled.len(), 1);
            let holder = ring.token_holder(&st).unwrap();
            assert_eq!(enabled[0], ring.pass_action(holder));
        }
    }

    #[test]
    fn token_circulates_in_order() {
        // Requirement (ii): each privileged node eventually yields to its
        // successor.
        let ring = TokenRing::new(5, 5);
        let mut state = ring.initial_state();
        let mut holders = Vec::new();
        for _ in 0..10 {
            let h = ring.token_holder(&state).unwrap();
            holders.push(h);
            let enabled = ring.program().enabled_actions(&state);
            ring.program().action(enabled[0]).apply(&mut state);
        }
        assert_eq!(holders, vec![0, 1, 2, 3, 4, 0, 1, 2, 3, 4]);
    }

    #[test]
    fn recovers_after_corruption() {
        let ring = TokenRing::new(5, 5);
        let corrupt = ring.program().state_from([3, 1, 4, 1, 0]).unwrap();
        assert!(!ring.invariant().holds(&corrupt));
        let report = Executor::new(ring.program()).run(
            corrupt,
            &mut RoundRobin::new(),
            &RunConfig::default().stop_when(&ring.invariant(), 1),
        );
        assert!(report.stop.is_stabilized());
    }

    #[test]
    fn small_k_can_fail() {
        // With k << n the protocol is not guaranteed to stabilize; for
        // n=4, k=2 the checker finds a divergence.
        let ring = TokenRing::new(4, 2);
        let space = StateSpace::enumerate(ring.program()).unwrap();
        let r = check_convergence(
            &space,
            ring.program(),
            &Predicate::always_true(),
            &ring.invariant(),
            CheckOptions::default(),
        )
        .unwrap()
        .weakly_fair;
        assert!(!r.converges(), "k=2 < n=4 should admit divergence: {r:?}");
    }

    #[test]
    fn windowed_design_is_theorem3() {
        use nonmask::TheoremOutcome;
        use nonmask_graph::Shape;
        let (design, handles) = windowed_design(4, 3).unwrap();
        let graph = design.constraint_graph().unwrap();
        // Layer 1 and layer 2 edges overlap on the same path: two parallel
        // edges per node pair — not an out-tree, and per-layer analysis is
        // what the paper prescribes.
        assert_eq!(graph.edge_count(), 6);
        assert_ne!(graph.shape(), Shape::OutTree);
        let report = design.verify().unwrap();
        assert!(
            matches!(report.theorem, TheoremOutcome::Theorem3 { layers: 2 }),
            "expected Theorem 3, got {:?}",
            report.theorem
        );
        assert!(report.is_tolerant(), "{}", report.summary());
        assert!(report.convergence_unfair.converges(), "Section 8 remark");
        assert_eq!(handles.layer1.len(), 3);
        assert_eq!(handles.layer2.len(), 3);
    }

    #[test]
    fn windowed_invariant_matches_paper_shape() {
        let (design, handles) = windowed_design(3, 3).unwrap();
        let s = design.invariant();
        let p = design.program();
        let mk = |vals: [i64; 3]| {
            let mut st = p.min_state();
            for (j, v) in vals.into_iter().enumerate() {
                st.set(handles.x[j], v);
            }
            st
        };
        assert!(s.holds(&mk([2, 2, 2])), "all equal: root privileged");
        assert!(s.holds(&mk([3, 3, 2])), "descent at node 2, x.0 = x.2 + 1");
        assert!(s.holds(&mk([3, 2, 2])), "descent at node 1, x.0 = x.2 + 1");
        assert!(
            !s.holds(&mk([1, 2, 2])),
            "increasing violates the first conjunct"
        );
        assert!(
            !s.holds(&mk([3, 2, 1])),
            "x.0 = x.2 + 2 violates the second conjunct"
        );
        assert!(
            !s.holds(&mk([3, 3, 1])),
            "gap of two violates the second conjunct"
        );
    }

    #[test]
    fn unbounded_flavour_runs() {
        let ring = TokenRing::unbounded(4);
        assert!(!ring.program().is_bounded());
        let mut state = ring.initial_state();
        for _ in 0..20 {
            let enabled = ring.program().enabled_actions(&state);
            assert_eq!(enabled.len(), 1, "one privilege in legitimate states");
            ring.program().action(enabled[0]).apply(&mut state);
        }
        // After 20 steps of a 4-ring the root has incremented 5 times.
        assert_eq!(state.get(ring.counter_var(0)), 5);
    }
}
