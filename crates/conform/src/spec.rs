//! Protocol specifications for the conformance corpus.
//!
//! A [`ProtocolSpec`] bundles everything the harness needs to run one
//! protocol through every layer and judge the result against the checker:
//! the guarded-command program, the stabilization goal, and the §4
//! constraint decomposition as the protocol itself declares it — a list
//! of [`Constraint`]s, each pairing a constraint `c.j` with the one
//! convergence action the design holds responsible for re-establishing
//! it. The constructors take that list from the protocol's own
//! `constraints()` (the list its `design()` certifies, where it has one),
//! so the harness never keeps a copy of the decomposition. Each pairing is
//! cross-validated against the checker's own constraint attribution when
//! the oracle is built ([`crate::check::ProtocolOracle::build`]), so a
//! spec cannot silently claim repairs the transition relation does not
//! deliver.

use nonmask::Constraint;
use nonmask_graph::Topology;
use nonmask_program::{Predicate, Program};
use nonmask_protocols::coloring::TreeColoring;
use nonmask_protocols::diffusing::DiffusingComputation;
use nonmask_protocols::token_ring::TokenRing;
use nonmask_protocols::{MinPlusOne, SpanningTree, Tree};

/// One protocol as the conformance harness sees it.
#[derive(Debug, Clone)]
pub struct ProtocolSpec {
    /// Corpus-facing name (`token-ring-4x4`, `diffusing-7`, ...).
    pub name: String,
    /// The reference program — the transition relation the checker
    /// enumerates and every executed step is validated against.
    pub program: Program,
    /// The stabilization goal (the protocol invariant).
    pub goal: Predicate,
    /// The constraint decomposition `c.1 ... c.m` from the paper's §4,
    /// each constraint carrying the repair action that must re-establish
    /// it whenever it executes.
    pub constraints: Vec<Constraint>,
}

impl ProtocolSpec {
    /// Dijkstra's K-state token ring on `n` processes with modulus `k`,
    /// decomposed by [`TokenRing::constraints`]: `c.j ≡ x.j = x.(j-1)`
    /// repaired by `pass@j`.
    pub fn token_ring(n: usize, k: i64) -> Self {
        let ring = TokenRing::new(n, k);
        ProtocolSpec {
            name: format!("token-ring-{n}x{k}"),
            program: ring.program().clone(),
            goal: ring.invariant(),
            constraints: ring.constraints(),
        }
    }

    /// The diffusing computation on a binary tree of `nodes` nodes,
    /// decomposed by [`DiffusingComputation::constraints`]: `R.j` per
    /// non-root node, repaired by the combined propagate/repair action.
    pub fn diffusing(nodes: usize) -> Self {
        let dc = DiffusingComputation::new(&Tree::binary(nodes));
        ProtocolSpec {
            name: format!("diffusing-{nodes}"),
            program: dc.program().clone(),
            goal: dc.invariant(),
            constraints: dc.constraints(),
        }
    }

    /// The stabilizing proper coloring on a binary tree of `nodes` nodes
    /// with `colors` colors, decomposed by [`TreeColoring::constraints`]:
    /// `R.j ≡ c.j ≠ c.(P.j)` repaired by `recolor@j`. Unlike the wave
    /// protocols this design is *silent* inside the invariant, so corpus
    /// runs exercise the termination path of both execution layers.
    pub fn coloring(nodes: usize, colors: i64) -> Self {
        let tc = TreeColoring::new(&Tree::binary(nodes), colors);
        ProtocolSpec {
            name: format!("coloring-{nodes}x{colors}"),
            program: tc.program().clone(),
            goal: tc.invariant(),
            constraints: tc.constraints(),
        }
    }

    /// The self-stabilizing min+1 BFS distance protocol on a fixed
    /// 6-node random connected graph (byzantine-free — the corpus
    /// exercises the healthy convergence path; Byzantine containment
    /// has its own battery in `tests/` and `nonmask-run byzantine`),
    /// decomposed by [`MinPlusOne::constraints`]: the min+1 equation
    /// per node, the root's anchor included.
    pub fn bfs() -> Self {
        let topo = Topology::random_connected(6, 2, 1);
        let proto = MinPlusOne::new(&topo, 0);
        ProtocolSpec {
            name: format!("bfs-{}", topo.len()),
            program: proto.program().clone(),
            goal: proto.invariant(),
            constraints: proto.constraints(),
        }
    }

    /// The self-stabilizing BFS spanning tree (distance + parent
    /// pointer, lowest-id tie-break) on a 4-ring, byzantine-free,
    /// decomposed by [`SpanningTree::constraints`]: the BFS equations per
    /// node, repaired by the node's single combined action.
    pub fn spanning_tree() -> Self {
        let topo = Topology::ring(4);
        let proto = SpanningTree::new(&topo, 0);
        ProtocolSpec {
            name: format!("spanning-tree-{}", topo.len()),
            program: proto.program().clone(),
            goal: proto.invariant(),
            constraints: proto.constraints(),
        }
    }

    /// The deliberately broken token ring (root increments by two), to be
    /// *executed* while the healthy [`ProtocolSpec::token_ring`] of the
    /// same shape serves as the oracle. The divergence shows up as a
    /// wrong-effect step the moment the mutant root fires.
    #[cfg(feature = "planted-bug")]
    pub fn token_ring_mutant_program(n: usize, k: i64) -> Program {
        TokenRing::planted_mutant(n, k).program().clone()
    }

    /// The deliberately broken spanning tree on the same 4-ring as
    /// [`ProtocolSpec::spanning_tree`]: node `trusting` adopts node
    /// `liar` as its parent unconditionally — the "Byzantine node
    /// accepted as parent" bug. Executed while the healthy spec serves
    /// as the oracle; the divergence is a wrong-effect step the moment
    /// the trusting node fires next to a liar holding a short distance.
    #[cfg(feature = "planted-bug")]
    pub fn spanning_tree_mutant_program(trusting: usize, liar: usize) -> Program {
        nonmask_protocols::spanning_tree::planted_trusting_mutant(
            &Topology::ring(4),
            0,
            trusting,
            liar,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every constraint's repair is an action of the spec's own program,
    /// and no two constraints share one.
    fn assert_one_repair_each(spec: &ProtocolSpec, expected: usize) {
        assert_eq!(spec.constraints.len(), expected, "{}", spec.name);
        let mut actions: Vec<_> = spec.constraints.iter().map(|c| c.action()).collect();
        assert!(actions
            .iter()
            .all(|a| a.index() < spec.program.action_count()));
        actions.sort_unstable_by_key(|a| a.index());
        actions.dedup();
        assert_eq!(actions.len(), expected, "{}: a shared repair", spec.name);
    }

    #[test]
    fn token_ring_spec_designates_every_boundary() {
        let spec = ProtocolSpec::token_ring(4, 4);
        assert_one_repair_each(&spec, 3);
        let names: Vec<_> = spec.constraints.iter().map(|c| c.name()).collect();
        assert_eq!(names, ["c.1", "c.2", "c.3"]);
    }

    #[test]
    fn coloring_spec_designates_every_edge() {
        assert_one_repair_each(&ProtocolSpec::coloring(7, 3), 6);
    }

    #[test]
    fn bfs_spec_designates_every_node() {
        // Every node of the 6-node graph, root included, carries its
        // min+1 (or anchor) equation and the matching repair.
        assert_one_repair_each(&ProtocolSpec::bfs(), 6);
    }

    #[test]
    fn spanning_tree_spec_designates_every_node() {
        assert_one_repair_each(&ProtocolSpec::spanning_tree(), 4);
    }

    #[test]
    fn diffusing_spec_skips_the_root() {
        // Binary tree of 7: six non-root nodes, one constraint each.
        assert_one_repair_each(&ProtocolSpec::diffusing(7), 6);
    }
}
