//! Multi-tenant fleet harness: batch-stepped simulation of millions of
//! lightweight protocol instances over a shared checker-verdict cache.
//!
//! The paper certifies convergence once per *program*; a deployment runs
//! that program many times over. This crate closes the gap at scale:
//!
//! - **Tenants, not simulators.** Each protocol instance ("tenant") is a
//!   few dozen bytes — its state slots in a flat per-slab `i64` arena
//!   plus a 24-byte metadata record (an 8-byte [`rand::SplitMix64`]
//!   fault stream, episode counters, a 4-byte `RoundRobin` daemon). No
//!   per-step allocation anywhere.
//! - **Batch stepping.** Tenants are grouped into slabs; a work-stealing
//!   pool (the checker's `steal_tasks`) claims slabs and bursts each
//!   tenant tens of ticks per visit so a slab's arena stays hot in
//!   cache.
//! - **Verdict cache.** Configurations are certified once: the first
//!   tenant of each `(protocol, parameters)` pair pays the exhaustive
//!   enumeration and the convergence pass's worst-case bound
//!   (`ConvergenceReport::worst_case_moves`); every other tenant hits
//!   the [`VerdictCache`]. Empirical stabilization latencies are then
//!   compared against the certified bound — the fleet is a
//!   million-sample experimental check of the checker.
//! - **Steps over the checker's rows.** Each configuration keeps the
//!   space its verdict was computed over and, on its first burst, lays it
//!   out as dense rows: a guard mask, a successor id per action, the goal
//!   bit and the variable digits per state. A tenant step is a transition
//!   the checker enumerated, taken on a state id; no guard, effect or
//!   goal closure runs per step.
//! - **Determinism.** Per-tenant fault streams are split from one master
//!   seed with [`rand::split_seed`]; a tenant's trajectory is a pure
//!   function of the fleet configuration and its tenant id. Counters and
//!   histograms merge as commutative monoids, so results are
//!   bit-identical across worker counts and slab sizes —
//!   [`FleetReport::digest`] pins this.
//!
//! ```
//! use nonmask_fleet::{run_fleet, FleetConfig, FleetProtocol};
//! use nonmask_obs::Journal;
//!
//! let config = FleetConfig {
//!     protocols: vec![FleetProtocol::TokenRing { nodes: 3, k: 3 }],
//!     tenants: 100,
//!     ..FleetConfig::default()
//! };
//! let report = run_fleet(&config, &Journal::disabled()).unwrap();
//! assert_eq!(report.counters.get("stabilized"), 100);
//! assert_eq!(report.enumerations, 1); // one miss, 99 cache hits
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod config;
mod engine;
mod hist;
mod report;
mod rows;

pub use cache::{ConfigRuntime, Verdict, VerdictCache};
pub use config::{FleetConfig, FleetProtocol};
pub use engine::run_fleet;
pub use hist::LatencyHistogram;
pub use report::{ConfigReport, FleetReport};

/// Errors a fleet run can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// The fleet configuration is invalid.
    Config(String),
    /// A checker enumeration or bound computation failed, or a
    /// configuration's rows could not be laid out.
    Check(String),
    /// A worker thread panicked.
    Worker(String),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Config(msg) => write!(f, "invalid fleet config: {msg}"),
            FleetError::Check(msg) => write!(f, "checker failed: {msg}"),
            FleetError::Worker(msg) => write!(f, "fleet worker failed: {msg}"),
        }
    }
}

impl std::error::Error for FleetError {}
