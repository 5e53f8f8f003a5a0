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
//! ([`StateSpace::decode_state`]). No transition is stored: each action
//! keeps a small table indexed by the values of the variables it reads
//! and writes ([`footprint`]), and a row is one table load per action.
//! The space itself is a few kilobytes; what a verification holds is its
//! per-state columns (predicate caches, and the convergence peel's two
//! bits a state), gated by an explicit [`CheckOptions::memory_budget`] instead
//! of a blunt state-count cap (see the [`space`] module docs).
//!
//! Every whole-space sweep — predicate evaluation and closure — runs in
//! parallel, controlled by [`CheckOptions::threads`]; results are
//! **bit-identical for every thread count** because per-task results are
//! reduced in task order (the lowest-id witness always wins). Predicates
//! are evaluated once per state into [`Bitset`] caches (`*_bits` function
//! variants) that callers can share across passes and compose with
//! bitwise `and`/`not`; [`Bitset::for_predicates`] fills any number of
//! them from predicate footprint tables in one pass, a block of up to 64
//! states per table load. Convergence answers
//! both daemons and the worst-case bound over the same block tables:
//! Jacobi rounds peel the states with no successor left in the region,
//! and the first, which reads every block, also finds the region's
//! lowest-id deadlock or escape. A state peeled in round `k` has height
//! `k` (the longest path out). The pass holds two bits a state and
//! nothing sized by the depth or the edge count. What no round peels is
//! the residual, empty in the common converging case, and only it goes
//! to the per-daemon residual analysis (see the [`convergence`] module
//! docs).
//!
//! ## One block engine, and one row source
//!
//! The three whole-space passes of a resident verification — the
//! predicate caches, the [`preservation`] sweep and the convergence peel —
//! read no row. They read the footprint tables re-keyed by block (see
//! [`footprint`]): for a block of up to 64 states, one pattern per
//! predicate and, per action, a short list of `(δ, pattern)` groups. One
//! crate-private engine reads the action groups and splits the blocks
//! among workers for all three. [`preservation`] answers closure and
//! preservation for every action and predicate given `T`, given `S` and
//! given each of Theorem 3's layers, plus every constraint's repair
//! obligations (its action enabled where the constraint is false, and
//! establishing it).
//!
//! Every other pass reads rows through the [`Successors`] trait — the
//! `(action, successor)` row of a state id, in action order: the witness
//! scans ([`is_closed_bits`], [`first_leaving`], [`first_disabled`]), run
//! only for a violation the sweep found, the residual analysis, bounds,
//! fault spans and the frontier rounds. A [`TableRows`] reader serves
//! every production pass; a [`Decoder`] is the independent reference the
//! tables are tested against (see [`successors`]).
//!
//! Whole-space passes split the id range into contiguous **segments**
//! ([`SegmentPlan`]), claimed by workers through a **work-stealing**
//! scheduler (an atomic claim counter; no fixed chunk assignment), which
//! keeps the cores busy even when work is skewed across the id range —
//! and because per-segment results are merged in segment order, verdicts
//! and witnesses remain bit-identical for every thread count and claim
//! order.
//!
//! For convergence-only queries on instances whose per-state columns do
//! not fit the budget, [`check_convergence_frontier_stats`] ([`frontier`])
//! needs no [`StateSpace`] at all: it builds the program's action tables
//! (audited as enumeration audits them) and peels the region as a
//! round-based fixpoint over their rows, with five bitsets of live memory,
//! and ends in the resident checker's own residual analysis. Its verdicts,
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
//! events (the table build, frontier rounds, convergence wave sizes).
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
pub mod footprint;
pub mod frontier;
pub mod options;
pub mod oracle;
pub mod replay;
pub mod space;
pub mod span;
pub mod successors;
mod sweep;

pub use bounds::{check_variant, VariantReport};
pub use cache::{Bitset, OnesIter};
pub use closure::{
    first_disabled, first_leaving, is_closed, is_closed_bits, preservation, preserves_given_bits,
    Given, Preservation, Violation,
};
pub use containment::{certify_containment, ContainmentVerdict};
pub use convergence::{
    check_convergence, check_convergence_bits, shortest_path_to, ConvergenceReport,
    ConvergenceResult, ConvergenceStats, Fairness, PathStep,
};
pub use counters::CheckCounters;
pub use error::CheckError;
pub use expected::{expected_moves, ExpectedMoves};
pub use footprint::TABLE_CAP;
pub use frontier::{check_convergence_frontier_stats, FrontierStats};
pub use options::{
    steal_find, steal_tasks, CheckOptions, SegmentPlan, DEFAULT_MEMORY_BUDGET,
    DEFAULT_SEGMENT_STATES,
};
pub use oracle::{attribute_constraints, ConstraintAttribution, StepFault, StepOracle};
pub use replay::{replay_constraints, ConstraintTransition};
pub use space::{SpaceIndex, StateId, StateSpace, TableRows, Transitions, TransitionsIter};
pub use span::{compute_fault_span, StateSet};
pub use successors::{Decoder, RowSource, Successors};
