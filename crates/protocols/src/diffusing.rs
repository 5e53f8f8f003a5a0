//! Stabilizing diffusing computations (§5.1).
//!
//! On a finite rooted tree, the root initiates a wave that colors nodes
//! *red* on the way down and *green* on the way back up, forever. Each
//! node `j` carries a color `c.j` and a boolean session number `sn.j`; the
//! invariant is `S = (∀ j :: R.j)` with
//!
//! ```text
//! R.j = (c.j = c.(P.j)  ∧  sn.j ≡ sn.(P.j))  ∨  (c.j = green ∧ c.(P.j) = red)
//! ```
//!
//! The closure actions are the root's *initiate*, the per-node
//! *propagate*, and the per-node *reflect*; the convergence action for
//! `R.j` copies the parent's state, which the paper merges with propagate
//! into the single combined action
//!
//! ```text
//! sn.j ≠ sn.(P.j) ∨ (c.j = red ∧ c.(P.j) = green) → c.j, sn.j := c.(P.j), sn.(P.j)
//! ```
//!
//! The constraint graph mirrors the process tree (an out-tree), so
//! Theorem 1 validates convergence; the program tolerates faults that
//! arbitrarily corrupt the state of any number of nodes.

use nonmask::{Constraint, Design, DesignError};
use nonmask_graph::NodePartition;
use nonmask_program::{ActionId, Domain, Predicate, ProcessId, Program, State, VarId};

use crate::topology::Tree;

/// Color values (`green` = 0, `red` = 1).
pub const GREEN: i64 = 0;
/// Color values (`green` = 0, `red` = 1).
pub const RED: i64 = 1;

/// A stabilizing diffusing computation over a rooted [`Tree`].
#[derive(Debug, Clone)]
pub struct DiffusingComputation {
    tree: Tree,
    program: Program,
    color: Vec<VarId>,
    session: Vec<VarId>,
    initiate: ActionId,
    combined: Vec<(usize, ActionId)>,
    reflect: Vec<ActionId>,
}

impl DiffusingComputation {
    /// Build the paper's program for `tree`.
    pub fn new(tree: &Tree) -> Self {
        let n = tree.len();
        let mut b = Program::builder(format!("diffusing[{n}]"));

        let mut color = Vec::with_capacity(n);
        let mut session = Vec::with_capacity(n);
        for j in 0..n {
            color.push(b.var_of(
                format!("c.{j}"),
                Domain::enumeration(["green", "red"]),
                ProcessId(j),
            ));
            session.push(b.var_of(format!("sn.{j}"), Domain::Bool, ProcessId(j)));
        }

        // Root initiates a new diffusing computation.
        let (c0, sn0) = (color[0], session[0]);
        let initiate = b.closure_action(
            "initiate@0",
            [c0, sn0],
            [c0, sn0],
            move |s| s.get(c0) == GREEN,
            move |s| {
                s.set(c0, RED);
                s.toggle(sn0);
            },
        );

        // Per non-root node: the merged propagate/repair action.
        let mut combined = Vec::new();
        for j in 1..n {
            let p = tree.parent(j);
            let (cj, snj, cp, snp) = (color[j], session[j], color[p], session[p]);
            let id = b.combined_action(
                format!("propagate/repair@{j}"),
                [cj, snj, cp, snp],
                [cj, snj],
                move |s| {
                    s.get_bool(snj) != s.get_bool(snp) || (s.get(cj) == RED && s.get(cp) == GREEN)
                },
                move |s| {
                    let (c, sn) = (s.get(cp), s.get(snp));
                    s.set(cj, c);
                    s.set(snj, sn);
                },
            );
            combined.push((j, id));
        }

        // Per node: reflect once every child has completed.
        let mut reflect = Vec::new();
        for j in 0..n {
            let kids = tree.children(j);
            let (cj, snj) = (color[j], session[j]);
            let kid_vars: Vec<(VarId, VarId)> =
                kids.iter().map(|&k| (color[k], session[k])).collect();
            let mut reads = vec![cj, snj];
            for &(ck, snk) in &kid_vars {
                reads.push(ck);
                reads.push(snk);
            }
            let id = b.closure_action(
                format!("reflect@{j}"),
                reads,
                [cj],
                move |s| {
                    s.get(cj) == RED
                        && kid_vars.iter().all(|&(ck, snk)| {
                            s.get(ck) == GREEN && s.get_bool(snk) == s.get_bool(snj)
                        })
                },
                move |s| s.set(cj, GREEN),
            );
            reflect.push(id);
        }

        DiffusingComputation {
            tree: tree.clone(),
            program: b.build(),
            color,
            session,
            initiate,
            combined,
            reflect,
        }
    }

    /// The underlying tree.
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// The guarded-command program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The color variable of node `j`.
    pub fn color_var(&self, j: usize) -> VarId {
        self.color[j]
    }

    /// The session-number variable of node `j`.
    pub fn session_var(&self, j: usize) -> VarId {
        self.session[j]
    }

    /// The root's initiate action.
    pub fn initiate_action(&self) -> ActionId {
        self.initiate
    }

    /// The reflect action of node `j`.
    pub fn reflect_action(&self, j: usize) -> ActionId {
        self.reflect[j]
    }

    /// The constraint `R.j` of non-root node `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is the root or out of range.
    pub fn constraint(&self, j: usize) -> Predicate {
        assert!(
            j > 0 && j < self.tree.len(),
            "R.j is defined for non-root nodes"
        );
        let p = self.tree.parent(j);
        let (cj, snj, cp, snp) = (
            self.color[j],
            self.session[j],
            self.color[p],
            self.session[p],
        );
        Predicate::new(format!("R.{j}"), [cj, snj, cp, snp], move |s| {
            (s.get(cj) == s.get(cp) && s.get_bool(snj) == s.get_bool(snp))
                || (s.get(cj) == GREEN && s.get(cp) == RED)
        })
    }

    /// The invariant `S = (∀ j :: R.j)`.
    pub fn invariant(&self) -> Predicate {
        let rs: Vec<Predicate> = (1..self.tree.len()).map(|j| self.constraint(j)).collect();
        Predicate::all("S", rs.iter()).named("S")
    }

    /// The decomposition of `S`: one constraint `R.j` per non-root node,
    /// in node order, each paired with the merged propagate/repair action
    /// at `j` that re-establishes it (the root drives the wave and has no
    /// constraint).
    pub fn constraints(&self) -> Vec<Constraint> {
        self.combined
            .iter()
            .map(|&(j, action)| Constraint::new(format!("R.{j}"), self.constraint(j), action))
            .collect()
    }

    /// The complete stabilizing [`Design`]: fault span `true`, the
    /// [`constraints`](Self::constraints), node partition by process.
    ///
    /// # Errors
    ///
    /// Mirrors [`Design::builder`] validation (cannot fail for programs
    /// built by [`DiffusingComputation::new`]).
    pub fn design(&self) -> Result<Design, DesignError> {
        Design::builder(self.program.clone())
            .partition(NodePartition::by_process(&self.program))
            .constraints(self.constraints())
            .build()
    }

    /// A mis-designed variant for the interference ablation (E3): each
    /// repair establishes `R.j` by overwriting the *parent's* state with
    /// the child's. The constraint-graph edges then point from child to
    /// parent; siblings' repairs target the same node and interfere, and
    /// the design livelocks (children endlessly re-writing their parent
    /// erase the root's progress).
    pub fn misdesigned(tree: &Tree) -> (Program, Predicate) {
        let n = tree.len();
        let mut b = Program::builder(format!("diffusing-misdesigned[{n}]"));
        let mut color = Vec::with_capacity(n);
        let mut session = Vec::with_capacity(n);
        for j in 0..n {
            color.push(b.var_of(
                format!("c.{j}"),
                Domain::enumeration(["green", "red"]),
                ProcessId(j),
            ));
            session.push(b.var_of(format!("sn.{j}"), Domain::Bool, ProcessId(j)));
        }
        let (c0, sn0) = (color[0], session[0]);
        b.closure_action(
            "initiate@0",
            [c0, sn0],
            [c0, sn0],
            move |s| s.get(c0) == GREEN,
            move |s| {
                s.set(c0, RED);
                s.toggle(sn0);
            },
        );
        for j in 1..n {
            let p = tree.parent(j);
            let (cj, snj, cp, snp) = (color[j], session[j], color[p], session[p]);
            // Repair R.j by writing the PARENT — the wrong end of the edge.
            b.convergence_action(
                format!("repair-parent@{j}"),
                [cj, snj, cp, snp],
                [cp, snp],
                move |s| {
                    !((s.get(cj) == s.get(cp) && s.get_bool(snj) == s.get_bool(snp))
                        || (s.get(cj) == GREEN && s.get(cp) == RED))
                },
                move |s| {
                    let (c, sn) = (s.get(cj), s.get(snj));
                    s.set(cp, c);
                    s.set(snp, sn);
                },
            );
        }
        for j in 0..n {
            let kids = tree.children(j);
            let (cj, snj) = (color[j], session[j]);
            let kid_vars: Vec<(VarId, VarId)> =
                kids.iter().map(|&k| (color[k], session[k])).collect();
            let mut reads = vec![cj, snj];
            for &(ck, snk) in &kid_vars {
                reads.push(ck);
                reads.push(snk);
            }
            b.closure_action(
                format!("reflect@{j}"),
                reads,
                [cj],
                move |s| {
                    s.get(cj) == RED
                        && kid_vars.iter().all(|&(ck, snk)| {
                            s.get(ck) == GREEN && s.get_bool(snk) == s.get_bool(snj)
                        })
                },
                move |s| s.set(cj, GREEN),
            );
        }
        let program = b.build();
        let rs: Vec<Predicate> = (1..n)
            .map(|j| {
                let p = tree.parent(j);
                let (cj, snj, cp, snp) = (color[j], session[j], color[p], session[p]);
                Predicate::new(format!("R.{j}"), [cj, snj, cp, snp], move |s| {
                    (s.get(cj) == s.get(cp) && s.get_bool(snj) == s.get_bool(snp))
                        || (s.get(cj) == GREEN && s.get(cp) == RED)
                })
            })
            .collect();
        let invariant = Predicate::all("S", rs.iter()).named("S");
        (program, invariant)
    }

    /// The all-green, equal-session initial state (the specification's
    /// starting point).
    pub fn initial_state(&self) -> State {
        self.program.min_state()
    }

    /// How many nodes are currently red.
    pub fn red_count(&self, state: &State) -> usize {
        self.color.iter().filter(|&&c| state.get(c) == RED).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonmask::TheoremOutcome;
    use nonmask_checker::{check_convergence, CheckOptions, Fairness, StateSpace};
    use nonmask_graph::Shape;
    use nonmask_program::scheduler::RoundRobin;
    use nonmask_program::{Executor, RunConfig, StopReason};

    #[test]
    fn design_is_theorem1_stabilizing_on_small_trees() {
        for tree in [Tree::chain(3), Tree::star(4), Tree::binary(5)] {
            let dc = DiffusingComputation::new(&tree);
            let design = dc.design().unwrap();
            let graph = design.constraint_graph().unwrap();
            assert_eq!(graph.shape(), Shape::OutTree, "tree {tree:?}");
            let report = design.verify().unwrap();
            assert!(
                matches!(report.theorem, TheoremOutcome::Theorem1 { .. }),
                "tree {:?}: {:?}",
                tree,
                report.theorem
            );
            assert!(report.is_tolerant(), "tree {tree:?}: {}", report.summary());
            assert!(report.is_stabilizing());
            assert!(
                report.convergence_unfair.converges(),
                "Section 8: fairness is unnecessary here"
            );
        }
    }

    #[test]
    fn constraint_graph_mirrors_tree() {
        let tree = Tree::binary(7);
        let dc = DiffusingComputation::new(&tree);
        let design = dc.design().unwrap();
        let graph = design.constraint_graph().unwrap();
        assert_eq!(graph.node_count(), 7);
        assert_eq!(graph.edge_count(), 6);
        let ranks = graph.ranks().unwrap();
        for (j, &rank) in ranks.iter().enumerate() {
            assert_eq!(rank as usize, tree.depth(j) + 1, "rank = depth + 1");
        }
    }

    #[test]
    fn ranks_match_tree_depth_on_random_trees() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..5 {
            let tree = Tree::random(8, &mut rng);
            let dc = DiffusingComputation::new(&tree);
            let graph = dc.design().unwrap().constraint_graph().unwrap();
            assert_eq!(graph.shape(), Shape::OutTree);
        }
    }

    #[test]
    fn wave_cycles_forever_from_initial_state() {
        let tree = Tree::chain(3);
        let dc = DiffusingComputation::new(&tree);
        let report = Executor::new(dc.program()).run(
            dc.initial_state(),
            &mut RoundRobin::new(),
            &RunConfig::default().max_steps(200).record_trace(true),
        );
        // The wave never terminates (MaxSteps) and the root initiates
        // multiple times.
        assert_eq!(report.stop, StopReason::MaxSteps);
        assert!(report.count_of(dc.initiate_action()) >= 2);
        // Every state along the way satisfies S (no faults injected).
        let s = dc.invariant();
        for st in report.trace.unwrap().states() {
            assert!(s.holds(st), "closure: S holds throughout fault-free runs");
        }
    }

    #[test]
    fn converges_from_every_state() {
        let tree = Tree::binary(4);
        let dc = DiffusingComputation::new(&tree);
        let space = StateSpace::enumerate(dc.program()).unwrap();
        let s = dc.invariant();
        let t = Predicate::always_true();
        let report =
            check_convergence(&space, dc.program(), &t, &s, CheckOptions::default()).unwrap();
        for fairness in [Fairness::WeaklyFair, Fairness::Unfair] {
            let r = report.verdict(fairness);
            assert!(r.converges(), "{fairness}: {r:?}");
        }
    }

    #[test]
    fn misdesigned_variant_fails() {
        // Writing the parent reverses the constraint-graph edges; sibling
        // repairs then target the same node and interfere. The failure
        // mode depends on the tree shape:
        // - a chain has one repair per target node, so it still converges;
        // - a star's sibling repairs ping-pong the root, but weak fairness
        //   escapes the cycle (divergence under the unfair daemon only);
        // - a deeper tree (binary, 5 nodes) livelocks even under weak
        //   fairness.
        let cases: [(_, _, Fairness, bool); 3] = [
            (Tree::chain(3), "chain", Fairness::Unfair, true),
            (Tree::star(3), "star", Fairness::Unfair, false),
            (Tree::binary(5), "binary", Fairness::WeaklyFair, false),
        ];
        for (tree, name, fairness, expect_converges) in cases {
            let (program, invariant) = DiffusingComputation::misdesigned(&tree);
            let space = StateSpace::enumerate(&program).unwrap();
            let t = Predicate::always_true();
            let report =
                check_convergence(&space, &program, &t, &invariant, CheckOptions::default())
                    .unwrap();
            let r = report.verdict(fairness);
            assert_eq!(
                r.converges(),
                expect_converges,
                "{name} under {fairness}: {r:?}"
            );
        }
    }

    #[test]
    fn red_count_tracks_wave() {
        let tree = Tree::chain(2);
        let dc = DiffusingComputation::new(&tree);
        let mut state = dc.initial_state();
        assert_eq!(dc.red_count(&state), 0);
        dc.program().action(dc.initiate_action()).apply(&mut state);
        assert_eq!(dc.red_count(&state), 1);
    }

    #[test]
    fn constraint_accessors() {
        let tree = Tree::chain(3);
        let dc = DiffusingComputation::new(&tree);
        let names: Vec<_> = dc
            .constraints()
            .iter()
            .map(|c| c.name().to_owned())
            .collect();
        assert_eq!(names, ["R.1", "R.2"], "the root has no constraint");
        assert_eq!(dc.tree().len(), 3);
        let r1 = dc.constraint(1);
        assert!(r1.holds(&dc.initial_state()));
    }

    #[test]
    #[should_panic(expected = "non-root")]
    fn root_constraint_panics() {
        let dc = DiffusingComputation::new(&Tree::chain(2));
        let _ = dc.constraint(0);
    }
}
