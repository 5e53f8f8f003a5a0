//! The min+1 BFS distance protocol of Dubois, Masuzawa & Tixeuil
//! (arXiv:1104.4022), over arbitrary connected [`Topology`]s.
//!
//! Every node `j` maintains one variable `d.j`. The root anchors
//! `d.root = 0`; every other correct node repeatedly enforces
//! `d.j = min(cap, 1 + min_{k ∈ N(j)} d.k)` — the classic *min+1* rule,
//! clamped to the bounded domain so transient garbage cannot count to
//! infinity. With no Byzantine nodes this is a silent self-stabilizing
//! BFS: the unique fixpoint assigns every node its hop distance from
//! the root.
//!
//! # Byzantine containment
//!
//! [`MinPlusOne::with_byzantine`] marks a set of nodes *Byzantine*:
//! instead of the min+1 rule they get one *havoc* action per domain
//! value — the checker-side model of "arbitrary, never-healing lies"
//! (the sim and net layers realize the same adversary as seeded lie
//! streams). The quantity this protocol family makes measurable is the
//! *containment radius*: which correct nodes still pin their legitimate
//! distance no matter what the liars say?
//!
//! A correct node `v` is **safe** exactly when
//! `legit(v) <= dist(v, B)`, where `legit(v)` is `v`'s hop distance
//! from the root through correct nodes only and `dist(v, B)` its hop
//! distance to the nearest Byzantine node:
//!
//! - *lower bound*: a lie is still `>= 0`, so any value arriving at `v`
//!   through a liar has climbed to at least `dist(v, B)` by the time it
//!   arrives — it can never undercut `legit(v)`;
//! - *upper bound*: the root's anchor propagates `legit` values along a
//!   correct shortest path (whose nodes are safe whenever `v` is).
//!
//! Unsafe nodes sit closer to a liar than to the root and keep getting
//! dragged below their legitimate distance. The predicted radius is the
//! largest `dist(v, B)` over unsafe correct nodes: beyond that radius
//! every node stabilizes, which is what the checker certifies and the
//! sim/net journals measure. The comparison `≤` and the single pin
//! `d.v = legit(v)` are this protocol's two facts in the shared
//! [`ByzantineModel`], which derives the safe set, radius and goals.

use crate::byzantine::{ByzantineModel, Safety};
use nonmask_graph::Topology;
use nonmask_program::{ActionId, Domain, Predicate, ProcessId, Program, State, VarId};

/// The min+1 BFS protocol over a [`Topology`], optionally with
/// Byzantine (havoc-modelled) nodes.
#[derive(Debug, Clone)]
pub struct MinPlusOne {
    model: ByzantineModel,
    cap: i64,
    program: Program,
    dist: Vec<VarId>,
    repairs: Vec<(usize, ActionId)>,
}

/// The clamped min+1 target of node `j` given its neighbors' values.
fn min_plus_one(s: &State, neighbors: &[VarId], cap: i64) -> i64 {
    let m = neighbors.iter().map(|&v| s.get(v)).min().unwrap_or(cap - 1);
    (m + 1).min(cap)
}

impl MinPlusOne {
    /// The byzantine-free protocol: every node follows the min+1 rule.
    pub fn new(topology: &Topology, root: usize) -> Self {
        MinPlusOne::with_byzantine(topology, root, &[])
    }

    /// The protocol with the given nodes Byzantine: their min+1 action
    /// is replaced by one havoc action per domain value, modelling an
    /// adversary that may set the variable arbitrarily, forever.
    ///
    /// # Panics
    ///
    /// Panics on an empty or disconnected topology, an out-of-range
    /// root or Byzantine index, or a Byzantine root.
    pub fn with_byzantine(topology: &Topology, root: usize, byzantine: &[usize]) -> Self {
        let model = ByzantineModel::new("bfs", topology, root, byzantine, Safety::AtMost);
        let n = topology.len();
        // Legitimate distances are < n; clamping at n leaves one value
        // of headroom so transient garbage has somewhere finite to sit.
        let cap = n as i64;
        let mut b = Program::builder(format!(
            "min-plus-one[n={n},root={root},byz={}]",
            model.byzantine().len()
        ));
        let dist: Vec<VarId> = (0..n)
            .map(|j| b.var_of(format!("d.{j}"), Domain::range(0, cap), ProcessId(j)))
            .collect();

        let mut repairs = Vec::new();
        for j in 0..n {
            if model.is_byzantine(j) {
                // One havoc per value: the adversary's repertoire. The
                // guard keeps the transition relation loop-free.
                let dj = dist[j];
                for v in 0..=cap {
                    b.closure_action(
                        format!("lie@{j}={v}"),
                        [dj],
                        [dj],
                        move |s| s.get(dj) != v,
                        move |s| s.set(dj, v),
                    );
                }
            } else if j == root {
                let dr = dist[j];
                let id = b.convergence_action(
                    format!("anchor@{j}"),
                    [dr],
                    [dr],
                    move |s| s.get(dr) != 0,
                    move |s| s.set(dr, 0),
                );
                repairs.push((j, id));
            } else {
                let dj = dist[j];
                let around: Vec<VarId> = topology.neighbors(j).iter().map(|&k| dist[k]).collect();
                let mut reads = around.clone();
                reads.push(dj);
                let (ga, ea) = (around.clone(), around);
                let id = b.convergence_action(
                    format!("minplus1@{j}"),
                    reads,
                    [dj],
                    move |s| s.get(dj) != min_plus_one(s, &ga, cap),
                    move |s| {
                        let t = min_plus_one(s, &ea, cap);
                        s.set(dj, t);
                    },
                );
                repairs.push((j, id));
            }
        }

        MinPlusOne {
            model: model.pinned(|_, v, l| vec![(dist[v], l as i64)]),
            cap,
            program: b.build(),
            dist,
            repairs,
        }
    }

    /// The containment model: liar geometry, safe set, radius, goals.
    pub fn model(&self) -> &ByzantineModel {
        &self.model
    }

    /// The guarded-command program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The distance variable of node `j`.
    pub fn dist_var(&self, j: usize) -> VarId {
        self.dist[j]
    }

    /// The min+1 (or anchor) repair action of correct node `j`.
    pub fn fix_action(&self, j: usize) -> Option<ActionId> {
        self.repairs
            .iter()
            .find(|&&(node, _)| node == j)
            .map(|&(_, id)| id)
    }

    /// The local constraint of correct node `j`: the min+1 equation
    /// (`d.root = 0` at the root). Not defined for Byzantine nodes.
    ///
    /// # Panics
    ///
    /// Panics for Byzantine or out-of-range nodes.
    pub fn constraint(&self, j: usize) -> Predicate {
        let topology = self.model.topology();
        assert!(j < topology.len(), "node out of range");
        assert!(
            !self.model.is_byzantine(j),
            "Byzantine nodes have no constraint"
        );
        let dj = self.dist[j];
        if j == self.model.root() {
            return Predicate::new(format!("c.{j}"), [dj], move |s| s.get(dj) == 0);
        }
        let around: Vec<VarId> = topology
            .neighbors(j)
            .iter()
            .map(|&k| self.dist[k])
            .collect();
        let mut reads = around.clone();
        reads.push(dj);
        let cap = self.cap;
        Predicate::new(format!("c.{j}"), reads, move |s| {
            s.get(dj) == min_plus_one(s, &around, cap)
        })
    }

    /// The byzantine-free invariant: every local min+1 equation holds
    /// (equivalently, `d.j` is the BFS distance from the root).
    pub fn invariant(&self) -> Predicate {
        let cs: Vec<Predicate> = (0..self.model.topology().len())
            .filter(|&j| !self.model.is_byzantine(j))
            .map(|j| self.constraint(j))
            .collect();
        Predicate::all("bfs-distances", cs.iter()).named("bfs-distances")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::byzantine::ContainmentTheory;
    use nonmask_checker::{check_convergence, CheckOptions, Fairness, StateSpace};
    use nonmask_program::scheduler::Random;
    use nonmask_program::{Executor, RunConfig, StopReason};

    #[test]
    fn byzantine_free_protocol_is_silent_and_correct() {
        let t = Topology::random_connected(6, 3, 11);
        let p = MinPlusOne::new(&t, 0);
        let init = p
            .program()
            .state_from(vec![5i64; 6])
            .expect("in-domain start");
        let report = Executor::new(p.program()).run(
            init,
            &mut Random::seeded(3),
            &RunConfig::default().max_steps(10_000),
        );
        assert_eq!(report.stop, StopReason::Deadlock, "silent once stabilized");
        for v in 0..6 {
            assert_eq!(
                report.final_state.get(p.dist_var(v)),
                t.distance(0, v) as i64,
                "node {v} holds its BFS distance"
            );
        }
        assert!(p.invariant().holds(&report.final_state));
    }

    #[test]
    fn byzantine_free_convergence_is_checker_certified() {
        let t = Topology::ring(5);
        let p = MinPlusOne::new(&t, 0);
        let space = StateSpace::enumerate(p.program()).unwrap();
        let result = check_convergence(
            &space,
            p.program(),
            &Predicate::always_true(),
            &p.invariant(),
            CheckOptions::default(),
        )
        .unwrap()
        .weakly_fair;
        assert!(result.converges(), "{result:?}");
    }

    #[test]
    fn safe_set_and_radius_on_a_line() {
        // 0 - 1 - 2 - 3 - 4 - 5 with the liar at 5: node v has
        // legit(v) = v and dist-to-liar 5 - v, so v is safe iff
        // v <= 5 - v, i.e. nodes 0..=2; the unsafe nodes 3, 4 sit at
        // distances 2 and 1 from the liar, so the radius is 2.
        let t = Topology::line(6);
        let p = MinPlusOne::with_byzantine(&t, 0, &[5]);
        assert_eq!(
            p.model().safe_set(),
            [true, true, true, false, false, false]
        );
        assert_eq!(p.model().predicted_radius(), 2);
        assert_eq!(
            p.model().legit_distances(),
            [Some(0), Some(1), Some(2), Some(3), Some(4), None]
        );
    }

    #[test]
    fn checker_certifies_the_predicted_radius() {
        use nonmask_checker::{certify_containment, CheckOptions};
        // Line with the liar at the far end: predicted radius 2 (see
        // `safe_set_and_radius_on_a_line`, one node shorter here).
        let t = Topology::line(5);
        let p = MinPlusOne::with_byzantine(&t, 0, &[4]);
        let space = StateSpace::enumerate(p.program()).unwrap();
        let verdict = certify_containment(
            &space,
            p.program(),
            |r| p.model().containment_goal(r),
            t.diameter(),
            Fairness::WeaklyFair,
            CheckOptions::default(),
        )
        .unwrap();
        assert_eq!(verdict.radius, Some(p.model().predicted_radius()));
        for &(r, converges) in &verdict.verdicts {
            assert_eq!(converges, r >= p.model().predicted_radius(), "radius {r}");
        }
    }

    #[test]
    fn no_liars_means_radius_zero_and_all_safe() {
        let t = Topology::random_connected(8, 4, 5);
        let p = MinPlusOne::new(&t, 0);
        assert!(p.model().safe_set().iter().all(|&s| s));
        assert_eq!(p.model().predicted_radius(), 0);
    }

    #[test]
    #[should_panic(expected = "root must not be Byzantine")]
    fn byzantine_root_rejected() {
        let _ = MinPlusOne::with_byzantine(&Topology::line(3), 0, &[0]);
    }
}
