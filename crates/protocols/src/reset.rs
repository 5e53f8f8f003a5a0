//! Distributed reset: the flagship *application* of diffusing computations
//! (§5.1 names "global state snapshot, termination detection, deadlock
//! detection, and distributed reset"; the paper's citation \[12\] is
//! Arora & Gouda's distributed reset).
//!
//! Each node carries an application value `v.j`. The diffusing wave doubles
//! as a reset wave: when the red (downward) phase passes node `j`, the
//! node resets `v.j` to the default value. Because the application value
//! appears in *no* constraint, the reset layer rides on the verified
//! diffusing design unchanged — the constraint graph, theorem application,
//! and convergence proof are untouched, illustrating how the method
//! composes with application state.

use nonmask::{Design, DesignError};
use nonmask_graph::NodePartition;
use nonmask_program::{ActionId, Domain, Predicate, ProcessId, Program, State, VarId};

use crate::diffusing::{GREEN, RED};
use crate::topology::Tree;

/// A stabilizing distributed-reset protocol over a rooted [`Tree`].
#[derive(Debug, Clone)]
pub struct DistributedReset {
    tree: Tree,
    program: Program,
    color: Vec<VarId>,
    session: Vec<VarId>,
    value: Vec<VarId>,
    default_value: i64,
    initiate: ActionId,
    combined: Vec<(usize, ActionId)>,
}

impl DistributedReset {
    /// Build the protocol: application values in `0..=max_value`, reset to
    /// `default_value` by each wave.
    ///
    /// # Panics
    ///
    /// Panics if `default_value` is outside `0..=max_value`.
    pub fn new(tree: &Tree, max_value: i64, default_value: i64) -> Self {
        assert!(
            (0..=max_value).contains(&default_value),
            "default must lie in the value domain"
        );
        let n = tree.len();
        let mut b = Program::builder(format!("distributed-reset[{n}]"));

        let mut color = Vec::with_capacity(n);
        let mut session = Vec::with_capacity(n);
        let mut value = Vec::with_capacity(n);
        for j in 0..n {
            color.push(b.var_of(
                format!("c.{j}"),
                Domain::enumeration(["green", "red"]),
                ProcessId(j),
            ));
            session.push(b.var_of(format!("sn.{j}"), Domain::Bool, ProcessId(j)));
            value.push(b.var_of(format!("v.{j}"), Domain::range(0, max_value), ProcessId(j)));
        }

        // Root initiates a reset wave, resetting its own value.
        let (c0, sn0, v0) = (color[0], session[0], value[0]);
        let initiate = b.closure_action(
            "initiate-reset@0",
            [c0, sn0],
            [c0, sn0, v0],
            move |s| s.get(c0) == GREEN,
            move |s| {
                s.set(c0, RED);
                s.toggle(sn0);
                s.set(v0, default_value);
            },
        );

        // Merged propagate/repair, additionally resetting the value when
        // the red phase arrives.
        let mut combined = Vec::new();
        for j in 1..n {
            let p = tree.parent(j);
            let (cj, snj, vj) = (color[j], session[j], value[j]);
            let (cp, snp) = (color[p], session[p]);
            let id = b.combined_action(
                format!("propagate-reset@{j}"),
                [cj, snj, cp, snp],
                [cj, snj, vj],
                move |s| {
                    s.get_bool(snj) != s.get_bool(snp) || (s.get(cj) == RED && s.get(cp) == GREEN)
                },
                move |s| {
                    let (c, sn) = (s.get(cp), s.get(snp));
                    if c == RED {
                        s.set(vj, default_value);
                    }
                    s.set(cj, c);
                    s.set(snj, sn);
                },
            );
            combined.push((j, id));
        }

        // Reflect actions (unchanged from the diffusing computation).
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

        DistributedReset {
            tree: tree.clone(),
            program: b.build(),
            color,
            session,
            value,
            default_value,
            initiate,
            combined,
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

    /// The application-value variable of node `j`.
    pub fn value_var(&self, j: usize) -> VarId {
        self.value[j]
    }

    /// The color variable of node `j`.
    pub fn color_var(&self, j: usize) -> VarId {
        self.color[j]
    }

    /// The session variable of node `j`.
    pub fn session_var(&self, j: usize) -> VarId {
        self.session[j]
    }

    /// The root's initiate action.
    pub fn initiate_action(&self) -> ActionId {
        self.initiate
    }

    /// The default value waves reset to.
    pub fn default_value(&self) -> i64 {
        self.default_value
    }

    /// The wave-consistency constraint `R.j` (identical to the diffusing
    /// computation's; the application value is unconstrained).
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

    /// The complete stabilizing [`Design`].
    ///
    /// # Errors
    ///
    /// Mirrors [`Design::builder`] validation.
    pub fn design(&self) -> Result<Design, DesignError> {
        let mut builder = Design::builder(self.program.clone())
            .partition(NodePartition::by_process(&self.program));
        for &(j, action) in &self.combined {
            builder = builder.constraint(format!("R.{j}"), self.constraint(j), action);
        }
        builder.build()
    }

    /// All-green initial state with every value at the default.
    pub fn initial_state(&self) -> State {
        let mut s = self.program.min_state();
        for &v in &self.value {
            s.set(v, self.default_value);
        }
        s
    }

    /// Whether every node's application value equals the default.
    pub fn all_reset(&self, state: &State) -> bool {
        self.value
            .iter()
            .all(|&v| state.get(v) == self.default_value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonmask::TheoremOutcome;
    use nonmask_program::scheduler::RoundRobin;
    use nonmask_program::{Executor, RunConfig};

    #[test]
    fn design_is_still_theorem1() {
        let reset = DistributedReset::new(&Tree::binary(4), 3, 0);
        let report = reset.design().unwrap().verify().unwrap();
        assert!(matches!(report.theorem, TheoremOutcome::Theorem1 { .. }));
        assert!(report.is_tolerant(), "{}", report.summary());
        assert!(report.is_stabilizing());
    }

    #[test]
    fn wave_resets_application_values() {
        let tree = Tree::binary(7);
        let reset = DistributedReset::new(&tree, 9, 0);
        // Dirty the application values.
        let mut state = reset.initial_state();
        for j in 0..7 {
            state.set(reset.value_var(j), (j as i64 * 3 + 1) % 10);
        }
        assert!(!reset.all_reset(&state));

        // One full wave (or two) cleans everything: run until all values
        // are default again.
        let clean = Predicate::new("all-reset", (0..7).map(|j| reset.value_var(j)), {
            let vals: Vec<VarId> = (0..7).map(|j| reset.value_var(j)).collect();
            move |s: &State| vals.iter().all(|&v| s.get(v) == 0)
        });
        let report = Executor::new(reset.program()).run(
            state,
            &mut RoundRobin::new(),
            &RunConfig::default().stop_when(&clean, 1).max_steps(10_000),
        );
        assert!(report.stop.is_stabilized(), "values were reset by the wave");
        assert!(reset.all_reset(&report.final_state));
    }

    #[test]
    fn reset_tolerates_wave_corruption() {
        use nonmask_checker::{check_convergence, CheckOptions, StateSpace};
        let reset = DistributedReset::new(&Tree::chain(3), 1, 0);
        let space = StateSpace::enumerate(reset.program()).unwrap();
        let r = check_convergence(
            &space,
            reset.program(),
            &Predicate::always_true(),
            &reset.invariant(),
            CheckOptions::default(),
        )
        .unwrap()
        .weakly_fair;
        assert!(r.converges());
    }

    #[test]
    #[should_panic(expected = "default must lie")]
    fn bad_default_rejected() {
        let _ = DistributedReset::new(&Tree::chain(2), 3, 7);
    }

    #[test]
    fn accessors() {
        let reset = DistributedReset::new(&Tree::star(3), 5, 2);
        assert_eq!(reset.default_value(), 2);
        assert_eq!(reset.tree().len(), 3);
        let init = reset.initial_state();
        assert!(reset.all_reset(&init));
        assert!(reset.invariant().holds(&init));
        assert!(reset.constraint(1).holds(&init));
        assert!(reset
            .program()
            .action(reset.initiate_action())
            .enabled(&init));
    }
}
