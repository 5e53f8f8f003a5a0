//! `nonmask-net`: the socket refinement — a real distributed runtime for
//! the paper's nonmasking fault-tolerant designs.
//!
//! [`nonmask-sim`](../nonmask_sim/index.html) does the paper's §7.1
//! message-passing exercise in-process; this crate does it over actual
//! sockets. [`run`] launches **one node per protocol process**, each an
//! OS thread that owns its process's variables and communicates
//! exclusively through TCP loopback connections:
//!
//! - [`wire`] — a length-prefixed, CRC-32-checked binary codec for
//!   variable-update, heartbeat, report, and control frames; truncated,
//!   oversized, and bit-flipped frames are rejected, never applied.
//! - [`fault`] — a send-side fault injector per link: seeded
//!   deterministic drop, duplicate, delay/reorder, and bit-corruption,
//!   plus dynamic partition/heal of node groups.
//! - nodes hold only their footprint — owned variables plus
//!   possibly-stale caches of the remote variables their actions read —
//!   execute their guarded commands on it, broadcast writes and periodic
//!   heartbeats to remote readers, and can be crash-restarted into an
//!   *arbitrary* state (the nonmasking scenario) by the controller.
//! - [`detect`] — a runtime stabilization detector over the
//!   asynchronously assembled god's-eye state, with wall-clock
//!   convergence-latency measurement per disturbance episode.
//! - [`NetReport`] — per-node counters (frames sent / received /
//!   dropped / corrupted / rejected, actions fired) and episode
//!   latencies, renderable as text or JSON.
//!
//! Of the repository's engines, this is the one that tests the designs
//! over real sockets (experiments E15 and N1): framing, transport faults
//! and a detector that sees only what nodes report. Each node picks its
//! actions through its own `RoundRobin` daemon, as the simulators do.
//!
//! The topology (who owns what, who caches what) is extracted with
//! [`nonmask_sim::Refinement`], so anything refinable in the simulator
//! runs here unchanged. The `nonmask-run` binary drives the token-ring
//! and diffusing-computation protocols from the command line with
//! configurable fault rates.
//!
//! # Example
//!
//! ```
//! use nonmask_net::{run, NetConfig};
//! use nonmask_protocols::token_ring::TokenRing;
//! use std::time::Duration;
//!
//! let ring = TokenRing::new(3, 3);
//! let corrupt = ring.program().state_from([2, 0, 1]).unwrap();
//! let config = NetConfig {
//!     timeout: Duration::from_secs(20),
//!     ..NetConfig::default()
//! };
//! let report = run(ring.program(), &corrupt, &ring.invariant(), &config).unwrap();
//! assert!(report.converged);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counters;
pub mod detect;
pub mod fault;
mod node;
mod reactor;
pub mod runtime;
pub mod wire;

pub use counters::CounterSnapshot;
pub use detect::{Detector, DetectorConfig, Episode};
pub use fault::{FaultConfig, PartitionMap};
// Re-exported so `NetConfig::journal` can be populated without a direct
// `nonmask-obs` dependency.
pub use nonmask_obs::{CounterSet, Journal};
pub use runtime::{run, NetConfig, NetError, NetEvent, NetReport, NodeReport};
pub use wire::{Frame, WireError};
