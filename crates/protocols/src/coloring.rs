//! Stabilizing tree coloring: a further Theorem-1 design, with a *silent*
//! (terminating) behaviour unlike the perpetual wave protocols.
//!
//! Every non-root node must differ in color from its parent:
//! `R.j = (c.j != c.(P.j))`. The convergence action recolors the node from
//! its parent: `c.j = c.(P.j) → c.j := c.(P.j) + 1 mod C`. There are no
//! closure actions at all — once every constraint holds the program is
//! *silent* (deadlocked inside `S`), the standard shape of stabilizing
//! graph algorithms.

use nonmask::{Design, DesignError};
use nonmask_graph::NodePartition;
use nonmask_program::{ActionId, Domain, Predicate, ProcessId, Program, State, VarId};

use crate::topology::Tree;

/// A stabilizing proper coloring of a rooted [`Tree`].
#[derive(Debug, Clone)]
pub struct TreeColoring {
    tree: Tree,
    program: Program,
    color: Vec<VarId>,
    colors: i64,
    repairs: Vec<(usize, ActionId)>,
}

impl TreeColoring {
    /// Build the protocol with `colors >= 2` available colors.
    ///
    /// # Panics
    ///
    /// Panics if `colors < 2`.
    pub fn new(tree: &Tree, colors: i64) -> Self {
        assert!(
            colors >= 2,
            "proper tree coloring needs at least two colors"
        );
        let n = tree.len();
        let mut b = Program::builder(format!("tree-coloring[{n},C={colors}]"));
        let color: Vec<VarId> = (0..n)
            .map(|j| b.var_of(format!("c.{j}"), Domain::range(0, colors - 1), ProcessId(j)))
            .collect();

        let mut repairs = Vec::new();
        for j in 1..n {
            let p = tree.parent(j);
            let (cj, cp) = (color[j], color[p]);
            let id = b.convergence_action(
                format!("recolor@{j}"),
                [cj, cp],
                [cj],
                move |s| s.get(cj) == s.get(cp),
                move |s| {
                    let v = s.get(cp);
                    s.set(cj, (v + 1) % colors);
                },
            );
            repairs.push((j, id));
        }

        TreeColoring {
            tree: tree.clone(),
            program: b.build(),
            color,
            colors,
            repairs,
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

    /// The number of available colors.
    pub fn colors(&self) -> i64 {
        self.colors
    }

    /// The color variable of node `j`.
    pub fn color_var(&self, j: usize) -> VarId {
        self.color[j]
    }

    /// The recoloring repair at non-root node `j`, if any.
    pub fn recolor_action(&self, j: usize) -> Option<ActionId> {
        self.repairs
            .iter()
            .find(|&&(node, _)| node == j)
            .map(|&(_, id)| id)
    }

    /// The constraint `R.j: c.j != c.(P.j)`.
    ///
    /// # Panics
    ///
    /// Panics for the root or out-of-range nodes.
    pub fn constraint(&self, j: usize) -> Predicate {
        assert!(
            j > 0 && j < self.tree.len(),
            "R.j is defined for non-root nodes"
        );
        let p = self.tree.parent(j);
        let (cj, cp) = (self.color[j], self.color[p]);
        Predicate::new(format!("R.{j}"), [cj, cp], move |s| s.get(cj) != s.get(cp))
    }

    /// The invariant: a proper coloring.
    pub fn invariant(&self) -> Predicate {
        let rs: Vec<Predicate> = (1..self.tree.len()).map(|j| self.constraint(j)).collect();
        Predicate::all("proper-coloring", rs.iter()).named("proper-coloring")
    }

    /// Whether `state` is a proper coloring.
    pub fn is_proper(&self, state: &State) -> bool {
        (1..self.tree.len())
            .all(|j| state.get(self.color[j]) != state.get(self.color[self.tree.parent(j)]))
    }

    /// The complete stabilizing [`Design`].
    ///
    /// # Errors
    ///
    /// Mirrors [`Design::builder`] validation.
    pub fn design(&self) -> Result<Design, DesignError> {
        let mut builder = Design::builder(self.program.clone())
            .partition(NodePartition::by_process(&self.program));
        for &(j, action) in &self.repairs {
            builder = builder.constraint(format!("R.{j}"), self.constraint(j), action);
        }
        builder.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonmask::TheoremOutcome;
    use nonmask_checker::{check_convergence, CheckOptions, StateSpace};
    use nonmask_graph::Shape;
    use nonmask_program::scheduler::Random;
    use nonmask_program::{Executor, RunConfig, StopReason};

    #[test]
    fn theorem1_applies_and_design_is_tolerant() {
        for colors in [2i64, 3] {
            let tc = TreeColoring::new(&Tree::binary(5), colors);
            let design = tc.design().unwrap();
            assert_eq!(design.constraint_graph().unwrap().shape(), Shape::OutTree);
            let report = design.verify().unwrap();
            assert!(matches!(report.theorem, TheoremOutcome::Theorem1 { .. }));
            assert!(report.is_tolerant(), "C={colors}: {}", report.summary());
        }
    }

    #[test]
    fn silent_once_proper() {
        // After stabilization no action is enabled: the protocol is
        // silent, and deadlock-inside-S is fine.
        let tc = TreeColoring::new(&Tree::chain(4), 2);
        let all_same = tc.program().state_from([1, 1, 1, 1]).unwrap();
        assert!(!tc.is_proper(&all_same));
        let report = Executor::new(tc.program()).run(
            all_same,
            &mut Random::seeded(1),
            &RunConfig::default().max_steps(1_000),
        );
        assert_eq!(report.stop, StopReason::Deadlock);
        assert!(tc.is_proper(&report.final_state));
    }

    #[test]
    fn worst_case_moves_bounded_by_tree_size() {
        // Each node recolors at most `depth` times (out-tree rank
        // argument); in particular the bound is finite.
        let tc = TreeColoring::new(&Tree::binary(6), 3);
        let space = StateSpace::enumerate(tc.program()).unwrap();
        let bound = check_convergence(
            &space,
            tc.program(),
            &Predicate::always_true(),
            &tc.invariant(),
            CheckOptions::default(),
        )
        .unwrap()
        .worst_case_moves
        .expect("finite");
        let rank_sum: u64 = (1..6).map(|j| tc.tree().depth(j) as u64).sum();
        assert!(bound <= rank_sum, "bound {bound} <= Σ depths {rank_sum}");
    }

    #[test]
    fn two_colors_alternate_levels() {
        let tc = TreeColoring::new(&Tree::chain(5), 2);
        let report = Executor::new(tc.program()).run(
            tc.program().state_from([0, 0, 0, 0, 0]).unwrap(),
            &mut Random::seeded(2),
            &RunConfig::default().max_steps(1_000),
        );
        let final_state = report.final_state;
        for j in 0..5 {
            assert_eq!(
                final_state.get(tc.color_var(j)),
                (tc.tree().depth(j) % 2) as i64,
                "chain 2-coloring alternates with depth"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least two colors")]
    fn one_color_rejected() {
        let _ = TreeColoring::new(&Tree::chain(2), 1);
    }

    #[test]
    fn accessors() {
        let tc = TreeColoring::new(&Tree::star(4), 3);
        assert_eq!(tc.colors(), 3);
        assert_eq!(tc.tree().len(), 4);
        let proper = tc.program().state_from([0, 1, 2, 1]).unwrap();
        assert!(tc.is_proper(&proper));
        assert!(tc.invariant().holds(&proper));
        assert!(tc.constraint(1).holds(&proper));
    }
}
