//! Containment-radius measurement: per-node stabilization verdicts
//! keyed by graph distance to the nearest Byzantine node, emitted as
//! locked [`Event::Containment`] journal records.
//!
//! A correct node's verdict is `stabilized` when it holds its
//! legitimate value at shutdown **and** sits outside every liar's
//! influence region (the theory's safe set) — i.e. its value is
//! provably immune to any further lie, not merely coincident with the
//! legitimate one at sample time. Everything else is `unstable`: nodes
//! the theory places inside the influence region, and — the case the
//! cross-layer tests exist to catch — any supposedly safe node an
//! execution layer let the liars perturb. The **measured containment
//! radius** is the largest distance-to-liar among unstable nodes
//! (`0` when every correct node stabilized), so a containment
//! violation in either layer inflates that layer's radius and breaks
//! the sim/net/checker agreement loudly.
//!
//! Events are emitted in node order with no wall-clock content beyond
//! the journal's monotone stamp, so two runs that agree on verdicts
//! produce identical containment suffixes regardless of shard count or
//! thread interleaving.

use nonmask_obs::{Event, Journal};
use nonmask_program::{State, VarId};
use nonmask_protocols::{ContainmentTheory, Safety};

/// What one correct node must hold to count as stabilized.
#[derive(Debug, Clone)]
struct NodeExpect {
    node: usize,
    /// Hop distance to the nearest Byzantine node.
    distance: u64,
    /// Whether the node is outside every liar's influence region.
    safe: bool,
    /// The legitimate values the node must pin (empty for nodes the
    /// liars cut off from the root — those can never stabilize).
    pins: Vec<(VarId, i64)>,
}

/// The containment expectations of one Byzantine protocol instance:
/// every correct node's distance-to-liar, safety, and legitimate
/// values, ready to judge a final state from any execution layer.
#[derive(Debug, Clone)]
pub struct ContainmentMap {
    /// The corpus-facing protocol name carried into every event.
    pub protocol: String,
    nodes: Vec<NodeExpect>,
}

/// Why a protocol instance has no containment expectations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContainmentError {
    /// The instance has no Byzantine nodes: every distance to a liar
    /// would be infinite and the radius meaningless.
    NoByzantine {
        /// The instance's protocol name.
        protocol: String,
    },
}

impl std::fmt::Display for ContainmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContainmentError::NoByzantine { protocol } => {
                write!(
                    f,
                    "containment of {protocol} needs at least one Byzantine node"
                )
            }
        }
    }
}

impl std::error::Error for ContainmentError {}

impl ContainmentMap {
    /// Expectations for a Byzantine instance under `theory`: the
    /// model's distances and pins, and the theory's safe set.
    ///
    /// # Errors
    ///
    /// [`ContainmentError::NoByzantine`] when the instance has no
    /// Byzantine nodes.
    pub fn new(theory: &impl ContainmentTheory) -> Result<Self, ContainmentError> {
        let model = theory.model();
        let n = model.topology().len();
        let protocol = format!("{}-{n}", model.protocol());
        if model.byzantine().is_empty() {
            return Err(ContainmentError::NoByzantine { protocol });
        }
        let nodes = (0..n)
            .filter(|&v| !model.is_byzantine(v))
            .map(|v| NodeExpect {
                node: v,
                distance: model.distance_to_byzantine()[v],
                safe: theory.is_safe(v),
                pins: model.pins(v).to_vec(),
            })
            .collect();
        Ok(ContainmentMap { protocol, nodes })
    }

    /// Judge `final_state` and emit one [`Event::Containment`] per
    /// correct node, in node order; returns the measured radius: the
    /// largest distance-to-liar among nodes that did not stabilize.
    ///
    /// A node stabilized when it is safe and holds all its pins.
    pub fn emit(&self, final_state: &State, layer: &str, seed: u64, journal: &Journal) -> u64 {
        let mut radius = 0;
        for expect in &self.nodes {
            let stabilized = expect.safe
                && !expect.pins.is_empty()
                && expect
                    .pins
                    .iter()
                    .all(|&(var, value)| final_state.get(var) == value);
            if !stabilized {
                radius = radius.max(expect.distance);
            }
            journal.emit_with(|| Event::Containment {
                layer: layer.to_string(),
                protocol: self.protocol.clone(),
                seed,
                node: expect.node as u64,
                distance: expect.distance,
                verdict: if stabilized { "stabilized" } else { "unstable" }.to_string(),
            });
        }
        radius
    }
}

/// The containment battery's agreement rule for one instance: every
/// layer's `measured` radius equals the theory's predicted radius,
/// and the checker's `certified` radius, when given, equals the
/// measured one where the theory's safety rule is exact
/// ([`Safety::AtMost`]) and is at most the measured one where the rule
/// is a sound upper bound ([`Safety::Below`]). A larger certified
/// radius is a genuine containment violation.
pub fn radii_agree(
    theory: &impl ContainmentTheory,
    measured: &[u64],
    certified: Option<u64>,
) -> bool {
    let predicted = theory.predicted_radius();
    let exact = theory.model().safety() == Safety::AtMost;
    measured
        .iter()
        .all(|&m| m == predicted && certified.is_none_or(|c| if exact { c == m } else { c <= m }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonmask_graph::Topology;
    use nonmask_obs::{containment_radius, parse_journal};
    use nonmask_protocols::{MinPlusOne, SpanningTree};

    /// line(6), root 0, liar 5: safe set [T,T,T,F,F], radius 2.
    fn line_map() -> (MinPlusOne, ContainmentMap) {
        let proto = MinPlusOne::with_byzantine(&Topology::line(6), 0, &[5]);
        let map = ContainmentMap::new(proto.model()).unwrap();
        (proto, map)
    }

    #[test]
    fn bfs_without_liars_is_an_error() {
        let proto = MinPlusOne::with_byzantine(&Topology::line(4), 0, &[]);
        let err = ContainmentMap::new(proto.model()).unwrap_err();
        assert_eq!(
            err,
            ContainmentError::NoByzantine {
                protocol: "bfs-4".to_string()
            }
        );
        assert!(err.to_string().contains("at least one Byzantine node"));
    }

    #[test]
    fn spanning_tree_without_liars_is_an_error() {
        let proto = SpanningTree::with_byzantine(&Topology::line(4), 0, &[]);
        assert_eq!(
            ContainmentMap::new(proto.model()).unwrap_err(),
            ContainmentError::NoByzantine {
                protocol: "spanning-tree-4".to_string()
            }
        );
    }

    #[test]
    fn a_fully_legitimate_state_measures_the_predicted_radius() {
        let (proto, map) = line_map();
        // Even with every correct node on its legitimate value, the
        // unsafe nodes count as unstable: the next lie can move them.
        let mut state = proto.program().min_state();
        for (v, l) in proto.model().legit_distances().iter().enumerate() {
            if let Some(l) = l {
                state.set(proto.dist_var(v), *l as i64);
            }
        }
        assert_eq!(
            map.emit(&state, "sim", 9, &Journal::disabled()),
            proto.model().predicted_radius()
        );
    }

    #[test]
    fn a_perturbed_safe_node_inflates_the_radius() {
        let (proto, map) = line_map();
        let mut state = proto.program().min_state();
        for (v, l) in proto.model().legit_distances().iter().enumerate() {
            if let Some(l) = l {
                state.set(proto.dist_var(v), *l as i64);
            }
        }
        // Node 1 is safe at distance 4 from the liar; a wrong value
        // there is a containment violation and must dominate.
        state.set(proto.dist_var(1), 3);
        assert_eq!(map.emit(&state, "sim", 9, &Journal::disabled()), 4);
    }

    #[test]
    fn emitted_events_round_trip_to_the_same_radius() {
        let (proto, map) = line_map();
        let mut state = proto.program().min_state();
        for (v, l) in proto.model().legit_distances().iter().enumerate() {
            if let Some(l) = l {
                state.set(proto.dist_var(v), *l as i64);
            }
        }
        let (journal, buffer) = Journal::memory();
        let radius = map.emit(&state, "sim", 9, &journal);
        journal.flush();
        let records = parse_journal(&buffer.contents()).expect("locked schema");
        assert_eq!(records.len(), 5, "one event per correct node");
        assert_eq!(containment_radius(&records), Some(radius));
        assert_eq!(radius, proto.model().predicted_radius());
    }
}
