//! The Byzantine containment model shared by the Dubois–Masuzawa–Tixeuil
//! protocols, [`crate::bfs::MinPlusOne`] and
//! [`crate::spanning_tree::SpanningTree`].
//!
//! Both protocols share one liar geometry: every correct node `v` has a
//! *legitimate distance* `legit(v)`, its hop distance from the root
//! through correct nodes only, and a hop distance `dist(v, B)` to the
//! nearest Byzantine node. They differ in two facts, which each
//! protocol hands the model:
//!
//! - the [`Safety`] comparison that makes a node *safe* (immune to every
//!   lie): `legit(v) ≤ dist(v, B)` for min+1, `<` for the spanning tree
//!   (each protocol's module docs derive its rule);
//! - each correct node's *pins*: the `(variable, legitimate value)`
//!   pairs it holds once stabilized — `d.v` for min+1, `d.v` and
//!   `prnt.v` for the spanning tree.
//!
//! From these the model derives the safe set, the predicted radius, the
//! checker's restricted-region goals ([`ByzantineModel::containment_goal`])
//! and the run-time detection goal ([`ContainmentTheory::safe_goal`]).
//! The conformance harness's containment map reads the same pins and
//! safe set, so theory, goals and measurement cannot drift apart.

use nonmask_graph::Topology;
use nonmask_program::{Predicate, VarId};

/// The comparison of `legit(v)` against `dist(v, B)` that makes a
/// correct node safe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Safety {
    /// `legit(v) ≤ dist(v, B)` (min+1). Exact: the safe set is what the
    /// checker certifies.
    AtMost,
    /// `legit(v) < dist(v, B)` (spanning tree). A sound upper bound:
    /// a node equidistant from root and liar may still be protected by
    /// the lowest-id tie-break, so the certified radius can be smaller
    /// than the predicted one.
    Below,
}

impl Safety {
    fn admits(self, legit: u64, to_byzantine: u64) -> bool {
        match self {
            Safety::AtMost => legit <= to_byzantine,
            Safety::Below => legit < to_byzantine,
        }
    }
}

/// The liar geometry and legitimate pins of one Byzantine protocol
/// instance: the single source of its containment theory.
#[derive(Debug, Clone)]
pub struct ByzantineModel {
    protocol: &'static str,
    topology: Topology,
    root: usize,
    byzantine: Vec<usize>,
    safety: Safety,
    legit: Vec<Option<u64>>,
    to_byzantine: Vec<u64>,
    pins: Vec<Vec<(VarId, i64)>>,
}

impl ByzantineModel {
    /// Validate the instance and compute its distances; pins are added
    /// by [`ByzantineModel::pinned`] once the program's variables exist.
    ///
    /// # Panics
    ///
    /// Panics on a disconnected topology, an out-of-range root or
    /// Byzantine index, or a Byzantine root.
    pub(crate) fn new(
        protocol: &'static str,
        topology: &Topology,
        root: usize,
        byzantine: &[usize],
        safety: Safety,
    ) -> Self {
        let n = topology.len();
        assert!(topology.is_connected(), "the topology must be connected");
        assert!(root < n, "root out of range");
        let mut byzantine = byzantine.to_vec();
        byzantine.sort_unstable();
        byzantine.dedup();
        assert!(
            byzantine.iter().all(|&b| b < n),
            "Byzantine index out of range"
        );
        assert!(!byzantine.contains(&root), "the root must not be Byzantine");

        let mut legit = vec![None; n];
        let mut queue = std::collections::VecDeque::from([root]);
        legit[root] = Some(0u64);
        while let Some(v) = queue.pop_front() {
            let next = legit[v].map(|d| d + 1);
            for &w in topology.neighbors(v) {
                if legit[w].is_none() && byzantine.binary_search(&w).is_err() {
                    legit[w] = next;
                    queue.push_back(w);
                }
            }
        }
        let to_byzantine = topology.distances_from(&byzantine);
        ByzantineModel {
            protocol,
            topology: topology.clone(),
            root,
            byzantine,
            safety,
            legit,
            to_byzantine,
            pins: vec![Vec::new(); n],
        }
    }

    /// Attach each root-reachable correct node's pins, given the node
    /// and its legitimate distance.
    pub(crate) fn pinned(mut self, pins: impl Fn(&Self, usize, u64) -> Vec<(VarId, i64)>) -> Self {
        self.pins = (0..self.topology.len())
            .map(|v| self.legit[v].map_or_else(Vec::new, |l| pins(&self, v, l)))
            .collect();
        self
    }

    /// The protocol family's name (`bfs`, `spanning-tree`).
    pub fn protocol(&self) -> &'static str {
        self.protocol
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The root node.
    pub fn root(&self) -> usize {
        self.root
    }

    /// The sorted, deduplicated Byzantine node set.
    pub fn byzantine(&self) -> &[usize] {
        &self.byzantine
    }

    /// Whether node `v` is Byzantine.
    pub fn is_byzantine(&self, v: usize) -> bool {
        self.byzantine.binary_search(&v).is_ok()
    }

    /// The protocol's safety comparison.
    pub fn safety(&self) -> Safety {
        self.safety
    }

    /// The legitimate distance of every node: its hop distance from the
    /// root through correct nodes only. `None` for Byzantine nodes and
    /// for correct nodes the liars cut off from the root.
    pub fn legit_distances(&self) -> &[Option<u64>] {
        &self.legit
    }

    /// Hop distance of every node to the nearest Byzantine node
    /// ([`Topology::INFINITY`] when there are none).
    pub fn distance_to_byzantine(&self) -> &[u64] {
        &self.to_byzantine
    }

    /// The legitimate parent of root-reachable correct node `v`: the
    /// lowest-id neighbor one legitimate hop closer to the root (the
    /// root is its own parent).
    pub fn legit_parent(&self, v: usize) -> Option<usize> {
        let lv = self.legit[v]?;
        if v == self.root {
            return Some(self.root);
        }
        self.topology
            .neighbors(v)
            .iter()
            .copied()
            .find(|&k| self.legit[k] == Some(lv - 1))
    }

    /// The `(variable, value)` pairs node `v` holds once stabilized
    /// (empty for Byzantine and cut-off nodes, which never stabilize).
    pub fn pins(&self, v: usize) -> &[(VarId, i64)] {
        &self.pins[v]
    }

    /// The containment goal at radius `r`: every correct,
    /// root-reachable node at distance `> r` from every Byzantine node
    /// holds its pins. The checker's restricted-region convergence
    /// query asks for the least `r` whose goal converges.
    pub fn containment_goal(&self, r: u64) -> Predicate {
        self.pin_all(format!("contained@r={r}"), |v| self.to_byzantine[v] > r)
    }

    fn pin_all(&self, name: String, select: impl Fn(usize) -> bool) -> Predicate {
        let pins: Vec<Predicate> = (0..self.topology.len())
            .filter(|&v| select(v) && !self.pins[v].is_empty())
            .map(|v| {
                let pins = self.pins[v].clone();
                let reads: Vec<VarId> = pins.iter().map(|&(var, _)| var).collect();
                Predicate::new(format!("pin.{v}"), reads, move |s| {
                    pins.iter().all(|&(var, value)| s.get(var) == value)
                })
            })
            .collect();
        Predicate::all(name.clone(), pins.iter()).named(name)
    }
}

/// Which correct nodes of a [`ByzantineModel`]'s instance are safe, and
/// everything derived from that: the theory a containment measurement
/// judges a run against. The model is the protocols' theory; a test can
/// substitute a deliberately wrong one to show the agreement gate fires.
pub trait ContainmentTheory {
    /// The instance's geometry and pins.
    fn model(&self) -> &ByzantineModel;

    /// Whether node `v` is safe: correct, root-reachable, and pinned
    /// under any Byzantine behaviour.
    fn is_safe(&self, v: usize) -> bool;

    /// [`ContainmentTheory::is_safe`] for every node.
    fn safe_set(&self) -> Vec<bool> {
        (0..self.model().topology().len())
            .map(|v| self.is_safe(v))
            .collect()
    }

    /// The predicted containment radius: the largest distance-to-liar
    /// over correct nodes that are *not* safe (0 when every correct
    /// node is safe — in particular whenever there are no liars).
    fn predicted_radius(&self) -> u64 {
        let model = self.model();
        (0..model.topology().len())
            .filter(|&v| !model.is_byzantine(v) && !self.is_safe(v))
            .map(|v| model.to_byzantine[v])
            .max()
            .unwrap_or(0)
    }

    /// The goal detectable at run time: every safe node holds its pins
    /// (the containment goal at the predicted radius, extended to safe
    /// nodes inside it).
    fn safe_goal(&self) -> Predicate {
        self.model()
            .pin_all("safe-region".to_owned(), |v| self.is_safe(v))
    }
}

impl ContainmentTheory for ByzantineModel {
    fn model(&self) -> &ByzantineModel {
        self
    }

    fn is_safe(&self, v: usize) -> bool {
        matches!(self.legit[v], Some(l) if self.safety.admits(l, self.to_byzantine[v]))
    }
}
