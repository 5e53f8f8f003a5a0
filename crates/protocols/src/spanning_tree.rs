//! Self-stabilizing BFS spanning-tree construction in the style of
//! Dubois, Masuzawa & Tixeuil (arXiv:1004.5256), over arbitrary
//! connected [`Topology`]s.
//!
//! Every node `j` maintains a distance `d.j` and a parent pointer
//! `prnt.j`. The root anchors `d = 0, prnt = root`; every other
//! correct node enforces the BFS equations in one atomic repair:
//!
//! ```text
//! m      = min over neighbors k of d.k
//! d.j    = min(cap, m + 1)
//! prnt.j = the lowest-id neighbor achieving m
//! ```
//!
//! The lowest-id tie-break makes the legitimate tree unique, so "node
//! `j` stabilized" is a pointwise equation rather than an existential
//! property — which is what lets the containment measurements compare
//! sim, net and checker verdicts exactly.
//!
//! # Byzantine containment
//!
//! [`SpanningTree::with_byzantine`] replaces marked nodes' repair with
//! per-value havoc actions on both variables. A correct node `v` is
//! *safe* here iff `legit(v) < dist(v, B)` — strictly closer to the
//! root than to any liar. The strictness (vs `<=` for the pure
//! distance protocol, [`crate::bfs::MinPlusOne`]) pays for the parent
//! pointer: a liar at distance exactly `legit(v)` could tie `v`'s
//! minimum with a forged distance and steal the tie-break, flapping
//! `prnt.v` forever even though `d.v` stays pinned.
//!
//! The comparison `<` and the pins `d.v = legit(v)`, `prnt.v =` the
//! lowest-id legitimate parent are this protocol's two facts in the
//! shared [`ByzantineModel`], which derives the safe set, radius and
//! goals. The strict rule is sound but not always tight: a node exactly
//! equidistant between root and liar is classed unsafe because a
//! tie-valued lie channel *may* steal its parent, yet on concrete
//! topologies the lowest-id tie-break can make stealing impossible (the
//! root's id 0 wins every tie it enters). The checker's
//! restricted-region sweep adjudicates the true radius, which may
//! therefore be smaller than the predicted one.

use crate::byzantine::{ByzantineModel, Safety};
use nonmask::Constraint;
use nonmask_graph::Topology;
use nonmask_program::{ActionId, Domain, Predicate, ProcessId, Program, State, VarId};

/// The stabilizing spanning-tree protocol over a [`Topology`],
/// optionally with Byzantine (havoc-modelled) nodes.
#[derive(Debug, Clone)]
pub struct SpanningTree {
    model: ByzantineModel,
    cap: i64,
    program: Program,
    dist: Vec<VarId>,
    parent: Vec<VarId>,
    repairs: Vec<(usize, ActionId)>,
}

/// The BFS target of node `j`: clamped min+1 distance and the
/// lowest-id neighbor achieving the minimum.
fn bfs_target(s: &State, neighbors: &[(usize, VarId)], cap: i64) -> (i64, i64) {
    let (mut m, mut arg) = (i64::MAX, neighbors[0].0 as i64);
    for &(id, var) in neighbors {
        let d = s.get(var);
        if d < m {
            m = d;
            arg = id as i64;
        }
    }
    ((m + 1).min(cap), arg)
}

impl SpanningTree {
    /// The byzantine-free protocol.
    pub fn new(topology: &Topology, root: usize) -> Self {
        SpanningTree::with_byzantine(topology, root, &[])
    }

    /// The protocol with the given nodes Byzantine: their repair is
    /// replaced by one havoc action per variable and value.
    ///
    /// # Panics
    ///
    /// Panics on an empty or disconnected topology, a topology with an
    /// isolated non-root node, an out-of-range root or Byzantine index,
    /// or a Byzantine root.
    pub fn with_byzantine(topology: &Topology, root: usize, byzantine: &[usize]) -> Self {
        SpanningTree::build(topology, root, byzantine, None)
    }

    /// The program builder behind [`SpanningTree::with_byzantine`] and
    /// the planted mutant: with `trust = Some((trusting, liar))`, node
    /// `trusting`'s repair adopts `liar` unconditionally.
    fn build(
        topology: &Topology,
        root: usize,
        byzantine: &[usize],
        trust: Option<(usize, usize)>,
    ) -> Self {
        let n = topology.len();
        assert!(n >= 2, "a spanning tree needs at least two nodes");
        let model = ByzantineModel::new("spanning-tree", topology, root, byzantine, Safety::Below);
        if let Some((trusting, liar)) = trust {
            assert!(trusting != root, "the root has no parent to corrupt");
            assert!(
                topology.has_edge(trusting, liar),
                "the trusting node must neighbor the liar"
            );
        }

        let cap = n as i64;
        let mut b = Program::builder(format!(
            "spanning-tree[n={n},root={root},byz={}]",
            model.byzantine().len()
        ));
        let mut dist = Vec::with_capacity(n);
        let mut parent = Vec::with_capacity(n);
        for j in 0..n {
            dist.push(b.var_of(format!("d.{j}"), Domain::range(0, cap), ProcessId(j)));
            parent.push(b.var_of(
                format!("prnt.{j}"),
                Domain::range(0, n as i64 - 1),
                ProcessId(j),
            ));
        }

        let mut repairs = Vec::new();
        for j in 0..n {
            let (dj, pj) = (dist[j], parent[j]);
            if model.is_byzantine(j) {
                for v in 0..=cap {
                    b.closure_action(
                        format!("lie-d@{j}={v}"),
                        [dj],
                        [dj],
                        move |s| s.get(dj) != v,
                        move |s| s.set(dj, v),
                    );
                }
                for v in 0..n as i64 {
                    b.closure_action(
                        format!("lie-p@{j}={v}"),
                        [pj],
                        [pj],
                        move |s| s.get(pj) != v,
                        move |s| s.set(pj, v),
                    );
                }
            } else if j == root {
                let anchor = root as i64;
                let id = b.convergence_action(
                    format!("anchor@{j}"),
                    [dj, pj],
                    [dj, pj],
                    move |s| s.get(dj) != 0 || s.get(pj) != anchor,
                    move |s| {
                        s.set(dj, 0);
                        s.set(pj, anchor);
                    },
                );
                repairs.push((j, id));
            } else {
                let around: Vec<(usize, VarId)> = topology
                    .neighbors(j)
                    .iter()
                    .map(|&k| (k, dist[k]))
                    .collect();
                let mut reads: Vec<VarId> = around.iter().map(|&(_, v)| v).collect();
                reads.push(dj);
                reads.push(pj);
                let (ga, ea) = (around.clone(), around);
                let trusted = trust
                    .filter(|&(trusting, _)| trusting == j)
                    .map(|(_, liar)| (liar as i64, dist[liar]));
                let id = b.convergence_action(
                    format!("adopt@{j}"),
                    reads,
                    [dj, pj],
                    move |s| (s.get(dj), s.get(pj)) != bfs_target(s, &ga, cap),
                    move |s| {
                        let (d, p) = match trusted {
                            // The planted bug: trust the liar
                            // unconditionally instead of taking the
                            // true minimum.
                            Some((liar, liar_dist)) => ((s.get(liar_dist) + 1).min(cap), liar),
                            None => bfs_target(s, &ea, cap),
                        };
                        s.set(dj, d);
                        s.set(pj, p);
                    },
                );
                repairs.push((j, id));
            }
        }

        let pins = |m: &ByzantineModel, v: usize, l: u64| {
            let p = m
                .legit_parent(v)
                .expect("a root-reachable node has a parent");
            vec![(dist[v], l as i64), (parent[v], p as i64)]
        };
        SpanningTree {
            model: model.pinned(pins),
            cap,
            program: b.build(),
            dist,
            parent,
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

    /// The parent variable of node `j`.
    pub fn parent_var(&self, j: usize) -> VarId {
        self.parent[j]
    }

    /// The decomposition of [`invariant`](Self::invariant): per correct
    /// node, in node order, the BFS equations `c.j` over `d.j` and
    /// `prnt.j`, paired with the node's single repair action. Byzantine
    /// nodes have no constraint.
    pub fn constraints(&self) -> Vec<Constraint> {
        self.repairs
            .iter()
            .map(|&(j, action)| Constraint::new(format!("c.{j}"), self.constraint(j), action))
            .collect()
    }

    /// The local constraint of correct node `j`: the BFS equations
    /// (`d = 0, prnt = root` at the root).
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
        let (dj, pj) = (self.dist[j], self.parent[j]);
        if j == self.model.root() {
            let anchor = j as i64;
            return Predicate::new(format!("c.{j}"), [dj, pj], move |s| {
                s.get(dj) == 0 && s.get(pj) == anchor
            });
        }
        let around: Vec<(usize, VarId)> = topology
            .neighbors(j)
            .iter()
            .map(|&k| (k, self.dist[k]))
            .collect();
        let mut reads: Vec<VarId> = around.iter().map(|&(_, v)| v).collect();
        reads.push(dj);
        reads.push(pj);
        let cap = self.cap;
        Predicate::new(format!("c.{j}"), reads, move |s| {
            (s.get(dj), s.get(pj)) == bfs_target(s, &around, cap)
        })
    }

    /// The byzantine-free invariant: the unique BFS tree (lowest-id
    /// tie-break) with exact distances.
    pub fn invariant(&self) -> Predicate {
        let cs: Vec<Predicate> = (0..self.model.topology().len())
            .filter(|&j| !self.model.is_byzantine(j))
            .map(|j| self.constraint(j))
            .collect();
        Predicate::all("bfs-tree", cs.iter()).named("bfs-tree")
    }
}

/// A deliberately broken spanning tree for the conformance harness's
/// planted-bug self-test (cargo feature `planted-bug`): identical to
/// [`SpanningTree::new`] except node `trusting` adopts node `liar` as
/// its parent unconditionally whenever they are neighbors — the
/// "Byzantine node accepted as parent" bug a differential harness must
/// catch. Built by the same builder as the reference, so variable and
/// action layout match it exactly.
///
/// # Panics
///
/// Panics under the same conditions as [`SpanningTree::new`], or when
/// `trusting` is the root or not adjacent to `liar` (the bug would be
/// dead code).
#[cfg(feature = "planted-bug")]
pub fn planted_trusting_mutant(
    topology: &Topology,
    root: usize,
    trusting: usize,
    liar: usize,
) -> Program {
    SpanningTree::build(topology, root, &[], Some((trusting, liar))).program
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::byzantine::ContainmentTheory;
    use nonmask_program::scheduler::Random;
    use nonmask_program::{Executor, RunConfig, StopReason};

    #[test]
    fn stabilizes_to_the_unique_bfs_tree() {
        let t = Topology::random_connected(6, 3, 42);
        let st = SpanningTree::new(&t, 0);
        let init = st
            .program()
            .state_from(vec![3i64; 12])
            .expect("in-domain start");
        let report = Executor::new(st.program()).run(
            init,
            &mut Random::seeded(9),
            &RunConfig::default().max_steps(20_000),
        );
        assert_eq!(report.stop, StopReason::Deadlock, "silent once stabilized");
        assert!(st.invariant().holds(&report.final_state));
        for v in 1..6 {
            let d = report.final_state.get(st.dist_var(v)) as u64;
            let p = report.final_state.get(st.parent_var(v)) as usize;
            assert_eq!(d, t.distance(0, v), "node {v} distance");
            assert!(t.has_edge(v, p), "parent of {v} is a neighbor");
            assert_eq!(t.distance(0, p), d - 1, "parent of {v} is one hop closer");
            assert_eq!(Some(p), st.model().legit_parent(v), "lowest-id tie-break");
        }
    }

    #[test]
    fn strict_safety_on_a_line() {
        // 0 - 1 - 2 - 3 - 4 with the liar at 4: strict safety keeps
        // nodes with v < 4 - v, i.e. 0 and 1; unsafe correct nodes 2, 3
        // sit at distances 2 and 1 from the liar.
        let t = Topology::line(5);
        let st = SpanningTree::with_byzantine(&t, 0, &[4]);
        assert_eq!(st.model().safe_set(), [true, true, false, false, false]);
        assert_eq!(st.model().predicted_radius(), 2);
    }

    #[test]
    fn legit_parent_prefers_lowest_id() {
        // Diamond: 0 - {1, 2} - 3; node 3 has both 1 and 2 at the same
        // legitimate depth, so its legitimate parent is 1.
        let mut t = Topology::new(4);
        t.add_edge(0, 1);
        t.add_edge(0, 2);
        t.add_edge(1, 3);
        t.add_edge(2, 3);
        let st = SpanningTree::new(&t, 0);
        assert_eq!(st.model().legit_parent(3), Some(1));
    }

    #[test]
    fn checker_certifies_at_most_the_predicted_radius() {
        use nonmask_checker::{certify_containment, CheckOptions, Fairness, StateSpace};
        // Ring 0-1-2-3 with the liar at 2: nodes 1 and 3 sit exactly
        // between root and liar, so the strict rule predicts radius 1.
        // But both reach the root directly and id 0 wins every value
        // tie, so no lie can steal a parent: the true radius is 0.
        let t = Topology::ring(4);
        let st = SpanningTree::with_byzantine(&t, 0, &[2]);
        assert_eq!(
            st.model().predicted_radius(),
            1,
            "strict rule counts the ties"
        );
        let space = StateSpace::enumerate(st.program()).unwrap();
        let verdict = certify_containment(
            &space,
            st.program(),
            |r| st.model().containment_goal(r),
            t.diameter(),
            Fairness::WeaklyFair,
            CheckOptions::default(),
        )
        .unwrap();
        assert_eq!(verdict.radius, Some(0), "the tie-break protects 1 and 3");
    }

    #[test]
    fn checker_certifies_the_predicted_radius_on_a_line() {
        use nonmask_checker::{certify_containment, CheckOptions, Fairness, StateSpace};
        // Line 0-1-2-3 with the liar at 3: node 2 is strictly closer
        // to the liar, and a small lie genuinely drags its distance
        // down — strict prediction and certified radius agree at 1.
        let t = Topology::line(4);
        let st = SpanningTree::with_byzantine(&t, 0, &[3]);
        assert_eq!(st.model().predicted_radius(), 1);
        let space = StateSpace::enumerate(st.program()).unwrap();
        let verdict = certify_containment(
            &space,
            st.program(),
            |r| st.model().containment_goal(r),
            t.diameter(),
            Fairness::WeaklyFair,
            CheckOptions::default(),
        )
        .unwrap();
        assert_eq!(verdict.radius, Some(1));
    }

    #[cfg(feature = "planted-bug")]
    #[test]
    fn mutant_layout_matches_reference() {
        let t = Topology::ring(4);
        let healthy = SpanningTree::new(&t, 0);
        let mutant = planted_trusting_mutant(&t, 0, 2, 1);
        assert_eq!(
            healthy.program().var_ids().count(),
            mutant.var_ids().count()
        );
        assert_eq!(
            healthy.program().action_ids().count(),
            mutant.action_ids().count()
        );
    }
}
