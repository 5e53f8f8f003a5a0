//! Exhaustive verification of closure and convergence.
//!
//! The paper's design method discharges two proof obligations per program
//! (Section 3):
//!
//! - **Closure** — the invariant `S` and the fault-span `T` are closed
//!   under every program action; each closure action moreover preserves
//!   each individual constraint (the first antecedent of Theorems 1–3).
//! - **Convergence** — every computation starting in `T` reaches `S`.
//!
//! The paper discharges these by hand; this crate discharges them
//! mechanically for programs over bounded domains, by enumerating the full
//! state space:
//!
//! - [`StateSpace`] — enumeration and indexing of every state.
//! - [`closure`] — the *preservation oracle* (`does action a preserve
//!   predicate c?`), plain and conditional (Theorem 3's "whenever all
//!   constraints in lower-numbered partitions hold").
//! - [`convergence`] — one call, [`check_convergence`], answers the
//!   convergence question under an unfair daemon (no cycle may exist
//!   outside `S`) and under the paper's weakly fair daemon (no
//!   *fair-admissible* cycle may exist: a strongly connected component
//!   every always-enabled action of which can be executed without leaving
//!   the component), with the worst-case move bound, in one
//!   [`ConvergenceReport`].
//! - [`bounds`] — variant-function validation (the concluding remarks'
//!   discussion of variant functions).
//!
//! # Performance model
//!
//! State ids are assigned *arithmetically*: a state's id is its mixed-radix
//! enumeration position, so reverse lookup ([`StateSpace::id_of`]) is a few
//! multiply-adds with no hash map, and the forward direction means states
//! are never materialized — [`StateSpace::state`] decodes any state from
//! its id on demand, and hot loops decode into reusable scratch buffers
//! ([`StateSpace::decode_state`]). Transitions live in flat CSR arrays
//! (`offsets` + parallel `actions`/`succs` columns): resident memory is
//! 4 bytes per state plus 8 per transition, gated by an explicit
//! [`CheckOptions::memory_budget`] instead of a blunt state-count cap (see
//! the [`space`] module docs).
//!
//! Every state-space sweep — enumeration, transition construction,
//! predicate evaluation, closure, and the convergence region's deadlock
//! and escape sweep — runs in parallel, controlled by
//! [`CheckOptions::threads`]; results are **bit-identical for every thread
//! count** because per-task results are reduced in task order (the
//! lowest-id witness always wins). Predicates are evaluated once per state
//! into [`Bitset`] caches (`*_bits` function variants) that callers can
//! share across passes and compose with bitwise `and`/`not`;
//! [`Bitset::for_predicates`] evaluates any number of them in one decode
//! pass. Convergence answers both daemons and the worst-case bound with
//! one DFS over the region's resident rows: it gives every region state
//! its height (the longest path out) or marks it infinite, holding two
//! `u32`s per state and nothing sized by the edge count. The infinite
//! states are the residual, empty in the common converging case, and only
//! they go to the per-daemon residual analysis (see the [`convergence`]
//! module docs).
//!
//! ## One transition source: resident or decoded
//!
//! Every pass reads transitions through the [`Successors`] trait — the
//! `(action, successor)` row of a state id, in action order — implemented
//! by the resident CSR ([`StateSpace`]) and by a [`Decoder`] that
//! evaluates guards and effects on demand (see [`successors`]). Closure
//! and the convergence residual analysis are written once on it.
//!
//! Whole-space sweeps split the id range into contiguous **segments**
//! ([`SegmentPlan`]), claimed by workers through a **work-stealing**
//! scheduler (an atomic claim counter; no fixed chunk assignment), which
//! keeps the cores busy even when transition density is skewed across the
//! id range — and because per-segment results are merged in segment
//! order, verdicts and witnesses remain bit-identical for every thread
//! count and claim order. [`is_closed_bits`], [`breaking_actions`] and
//! [`repair_obligations`] run on a [`Decoder`] as well as on a
//! [`StateSpace`], and report the same answer on each: with a decoder no
//! transition is stored, so closure questions reach spaces whose CSR
//! table does not fit the memory budget. A sweep asks as many questions
//! as it can: [`breaking_actions`] answers closure and preservation for
//! every action and up to 64 predicates (a [`MaskColumn`], 8 bytes per
//! state) in one pass over the assumed states, and
//! [`repair_obligations`] checks every constraint's repair in one pass
//! over `T`.
//!
//! For convergence-only queries on such instances,
//! [`check_convergence_frontier_stats`] ([`frontier`]) never materializes
//! transitions at all: it peels the region as a round-based fixpoint
//! over decoded rows, with five bitsets of live memory, and ends
//! in the resident checker's own residual analysis. Its verdicts,
//! witnesses, and statistics are bit-identical to the resident checker's.
//!
//! # Example: verifying a tiny stabilizing program
//!
//! ```
//! use nonmask_program::{Domain, Predicate, Program};
//! use nonmask_checker::{check_convergence, CheckOptions, ConvergenceResult, Fairness, StateSpace};
//!
//! // One variable that convergence actions drive to 0.
//! let mut b = Program::builder("to-zero");
//! let x = b.var("x", Domain::range(0, 3));
//! b.convergence_action("dec", [x], [x], move |s| s.get(x) > 0, move |s| {
//!     let v = s.get(x);
//!     s.set(x, v - 1);
//! });
//! let p = b.build();
//! let space = StateSpace::enumerate(&p).unwrap();
//! let s = Predicate::new("x=0", [x], move |st| st.get(x) == 0);
//! let t = Predicate::always_true();
//! let report = check_convergence(&space, &p, &t, &s, CheckOptions::default()).unwrap();
//! assert!(matches!(report.verdict(Fairness::WeaklyFair), ConvergenceResult::Converges));
//! assert_eq!(report.worst_case_moves, Some(3), "x=3 takes three steps");
//! ```
//!
//! # Observability
//!
//! The out-of-core passes accept a [`nonmask_obs::Journal`]
//! ([`StateSpace::enumerate_journaled`],
//! [`check_convergence_frontier_stats`]) and emit structured JSON-lines
//! events (CSR build phases, frontier rounds, convergence wave sizes).
//! The resident convergence pass journals nothing: its sizes come back in
//! [`ConvergenceReport::stats`], for a caller that keeps a journal to emit
//! as an [`Event::Wave`](nonmask_obs::Event::Wave). [`CheckCounters`]
//! aggregates per-pass work counts for reports. With the default disabled journal no event is ever
//! formatted, so instrumented paths cost near-nothing.
//!
//! A panic in a caller-supplied closure (predicate, guard, action body) no
//! longer aborts the process: every public entry point returns
//! [`CheckError::WorkerFailed`] with the captured payload instead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod cache;
pub mod closure;
pub mod containment;
pub mod convergence;
pub mod counters;
pub mod error;
pub mod expected;
pub mod frontier;
pub mod options;
pub mod oracle;
pub mod replay;
pub mod space;
pub mod span;
pub mod successors;

pub use bounds::{check_variant, VariantReport};
pub use cache::{Bitset, MaskColumn, OnesIter};
pub use closure::{
    breaking_actions, is_closed, is_closed_bits, preserves_given_bits, repair_obligations,
    RepairWitnesses, Violation,
};
pub use containment::{certify_containment, ContainmentVerdict};
pub use convergence::{
    check_convergence, check_convergence_bits, shortest_path_to, ConvergenceReport,
    ConvergenceResult, ConvergenceStats, Fairness, PathStep,
};
pub use counters::CheckCounters;
pub use error::CheckError;
pub use expected::{expected_moves, ExpectedMoves};
pub use frontier::{check_convergence_frontier_stats, FrontierStats};
pub use options::{
    steal_find, steal_tasks, CheckOptions, SegmentPlan, DEFAULT_MEMORY_BUDGET,
    DEFAULT_SEGMENT_STATES,
};
pub use oracle::{attribute_constraints, ConstraintAttribution, StepFault, StepOracle};
pub use replay::{replay_constraints, ConstraintTransition};
pub use space::{SpaceError, SpaceIndex, StateId, StateSpace, Transitions, TransitionsIter};
pub use span::{compute_fault_span, StateSet};
pub use successors::{Decoder, RowSource, Successors};
