//! The paper's worked protocol designs, built with the [`nonmask`] method.
//!
//! | Module | Paper anchor | Constraint graph | Theorem |
//! |---|---|---|---|
//! | [`xyz`] | §4 figure, §6 examples | out-tree / self-looping / cyclic | 1 / 2 / none (livelock) |
//! | [`diffusing`] | §5.1 | out-tree mirroring the process tree | 1 |
//! | [`token_ring`] | §7.1 | path, two layers | 3 |
//! | [`atomic`] | named in the abstract (full version only) | ring, even/odd layers | 3 |
//! | [`reset`] | §5.1's application list, ref \[12\] | out-tree (rides on diffusing) | 1 |
//! | [`aggregate`] | §5.1's application list (snapshot / termination detection) | out-tree (rides on diffusing) | 1 |
//! | [`coloring`] | beyond the paper: a *silent* Theorem-1 design | out-tree | 1 |
//! | [`three_state`] | Dijkstra's 3-state line (checker-verified baseline) | (not constraint-based) | — |
//! | [`bfs`] | beyond the paper: Dubois–Masuzawa–Tixeuil min+1 BFS with Byzantine containment | (general graph) | — |
//! | [`spanning_tree`] | beyond the paper: DMT stabilizing spanning tree with Byzantine containment | (general graph) | — |
//! | [`byzantine`] | the containment model both DMT protocols share: liar geometry, safe set, radius, goals | — | — |
//!
//! Every protocol exposes its program, its invariant, and (where the
//! constraint decomposition exists) a complete [`nonmask::Design`] so that
//! the whole verification pipeline — closure checks, theorem side
//! conditions, ground-truth model checking — runs against it. Deliberately
//! *broken* variants ([`xyz::interfering`],
//! [`diffusing::DiffusingComputation::misdesigned`]) reproduce the paper's
//! interference counterexamples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod atomic;
pub mod bfs;
pub mod byzantine;
pub mod coloring;
pub mod diffusing;
pub mod reset;
pub mod spanning_tree;
pub mod three_state;
pub mod token_ring;
pub mod topology;
pub mod xyz;

pub use bfs::MinPlusOne;
pub use byzantine::{ByzantineModel, ContainmentTheory, Safety};
pub use spanning_tree::SpanningTree;
pub use topology::{Tree, TreeError};
