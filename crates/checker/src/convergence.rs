//! Convergence checking.
//!
//! The Convergence requirement (Section 3): *every computation of `p` that
//! starts at any state where `T` holds reaches a state where `S` holds.*
//!
//! Over a finite state space this reduces to analyzing the *region*
//! `T ∧ ¬S`. A computation can fail to reach `S` in exactly three ways:
//!
//! 1. it gets stuck at a region state with no enabled action (a finite
//!    maximal computation ending outside `S`),
//! 2. it leaves both `S` and `T` (only possible when `T` is not closed —
//!    reported so callers notice the missing closure proof), or
//! 3. it stays in the region forever, cycling.
//!
//! Case 3 depends on fairness. Under an **unfair** daemon any cycle inside
//! the region is a legal computation. Under the paper's **weakly fair**
//! daemon ("each action that is continuously enabled is eventually
//! executed"), an infinite computation confined to a strongly connected
//! component `Q` of the region is legal iff every action enabled at *all*
//! states of `Q` has at least one transition that stays inside `Q`: any
//! such action is continuously enabled, so it must be executed infinitely
//! often, and if each of its executions left `Q` the computation could not
//! remain in `Q`. (Conversely, when every always-enabled action has an
//! internal transition, a fair schedule staying in `Q` exists: tour all of
//! `Q` repeatedly, splicing in each always-enabled action's internal
//! transition.)
//!
//! # Pipeline
//!
//! The region is read a **block** of up to 64 states at a time, over the
//! same per-block action tables the preservation sweep reads (see
//! [`footprint`](crate::footprint)): each action's block table gives, per
//! successor-id delta `δ`, the pattern of the block's states where the
//! action is enabled and moves `δ` ids, so a set's bits at the successors
//! are one word, read at `x₀ + δ`. The pass has two steps.
//!
//! 1. **The peel.** A set `U` starts as the region, and each round
//!    removes, all at once, the states of `U` with no successor in `U`:
//!    per block, `stuck` is the OR over the groups of
//!    `pattern ∧ U ∧ U(x₀ + δ)`, read from the round's `U`, and the rest
//!    is peeled. The first round reads every block, and in it the region
//!    states with no enabled action are deadlocks, and those with a
//!    successor outside `T ∪ S` escape. The lowest such state, the
//!    witness a scan in id order would find, ends the pass; an escape's
//!    successor is the first outside `T ∪ S` in action order, read from
//!    that one state's row. Otherwise a state peeled in round `k` has
//!    *height* `k`, its longest path out of the region counting the exit
//!    step: its successors in the region were all peeled before round
//!    `k`, one of them in round `k − 1`. What is left when a round peels
//!    nothing is the greatest fixpoint of "has a successor in the set":
//!    exactly the states that can stay in the region forever, so every
//!    cycle lies among them. They are the *residual*. (Note the residual
//!    is *not* "states that cannot reach `S`": a cycle that could exit to
//!    `S` but need not is still a legal unfair divergence, and it stays.)
//!    A round after one that peeled few states reads only the blocks
//!    holding their predecessors, so a deep, narrow region costs a few
//!    blocks a round.
//! 2. **The residual analysis**, once per daemon, when the residual is
//!    not empty.
//!
//! The heights are a rank every region step lowers, as in Theorem 1's
//! proof, so the number of rounds that peeled a state is the worst-case
//! bound. In the common converging case the residual is empty, and one
//! pass ([`check_convergence_bits`]) has answered both daemons and the
//! bound. The pass holds two bits a state, `U` and one round's peeled
//! states, two lists of fewer blocks than the space has, and no stack:
//! nothing it holds is sized by the region's depth or by the edge count.
//!
//! A round that reads every block splits into the segments of the
//! [`SegmentPlan`], and a block that straddles two is read by each for
//! its own states; a round that reads listed blocks splits them into
//! runs of a segment's worth of states. A round reads only the previous
//! round's `U`, so every thread count and segment size peels the same
//! states in the same rounds and reports the same witness.
//!
//! The residual analysis numbers the residual by rank (per word, its
//! members in the words before), builds its edges as a residual-local
//! CSR, and runs an iterative Tarjan over it: a component is a slice of
//! the DFS stack, so a singleton allocates nothing. Everything it
//! allocates is charged against [`CheckOptions::memory_budget`] as it
//! grows (phase `"residual"`). It reads rows through [`Successors`], so
//! the out-of-core [`frontier`](crate::frontier) peel ends in this same
//! code, fed decoded rows instead of table rows.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use nonmask_program::{Action, ActionId, Predicate, Program, State};

use crate::cache::Bitset;
use crate::error::CheckError;
use crate::footprint::{per_row_groups, BlockTable, Blocks, Cursor};
use crate::options::{steal_tasks, CheckOptions, SegmentPlan};
use crate::space::{SpaceIndex, StateId, StateSpace};
use crate::successors::Successors;

/// The daemon assumption under which convergence is checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fairness {
    /// No fairness: every region cycle is a legal computation. Programs
    /// converging under this assumption satisfy Section 8's remark that
    /// "the fairness requirement … is often unnecessary".
    Unfair,
    /// Weak fairness over actions, the paper's computation model
    /// (Section 2).
    WeaklyFair,
}

impl std::fmt::Display for Fairness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fairness::Unfair => f.write_str("unfair"),
            Fairness::WeaklyFair => f.write_str("weakly-fair"),
        }
    }
}

/// The outcome of a convergence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConvergenceResult {
    /// Every computation from `T` reaches `S`.
    Converges,
    /// A maximal finite computation ends outside `S`: `state` is in the
    /// region and no action is enabled there.
    DeadlockOutsideTarget {
        /// The stuck state.
        state: State,
    },
    /// A transition leaves both `S` and `T` — the fault span is not closed,
    /// so the convergence question is ill-posed as stated.
    EscapesFaultSpan {
        /// Region state the transition starts from.
        before: State,
        /// Successor outside `S ∪ T`.
        after: State,
    },
    /// A legal infinite computation stays inside the region forever. The
    /// witness is one strongly connected component it can inhabit.
    Divergence {
        /// States of the witnessing component (or cycle).
        states: Vec<State>,
        /// The fairness assumption under which the witness is legal.
        fairness: Fairness,
    },
}

impl ConvergenceResult {
    /// Whether the check succeeded.
    pub fn converges(&self) -> bool {
        matches!(self, ConvergenceResult::Converges)
    }
}

/// Size counters for one convergence pass, produced by
/// [`check_convergence_bits`]: how much of the region the region pass
/// resolved before any residual analysis, and how many components that
/// analysis then examined. The resident pass journals nothing; a caller
/// that keeps a journal emits these sizes as an
/// [`Event::Wave`](nonmask_obs::Event::Wave).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConvergenceStats {
    /// States in the region `T ∧ ¬S`.
    pub region_states: u64,
    /// Region states with no infinite region path (all of them, in the
    /// common converging case).
    pub peeled_states: u64,
    /// Strongly connected components found in the residual subgraph.
    pub sccs_found: u64,
}

/// Both daemons' verdicts and the worst-case move bound, answered by one
/// pass over the region `T ∧ ¬S` ([`check_convergence_bits`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvergenceReport {
    /// The verdict under the paper's weakly fair daemon.
    pub weakly_fair: ConvergenceResult,
    /// The verdict under an unfair daemon.
    pub unfair: ConvergenceResult,
    /// The worst-case number of steps an unfair daemon can keep a
    /// computation inside the region, counting the step that leaves it:
    /// the longest path out of the region. `Some` exactly when
    /// [`ConvergenceReport::unfair`] is `Converges`; `Some(0)` means the
    /// region is empty.
    pub worst_case_moves: Option<u64>,
    /// Region, peel and SCC sizes of the pass.
    pub stats: ConvergenceStats,
}

impl ConvergenceReport {
    /// The verdict under `fairness`.
    pub fn verdict(&self, fairness: Fairness) -> &ConvergenceResult {
        match fairness {
            Fairness::Unfair => &self.unfair,
            Fairness::WeaklyFair => &self.weakly_fair,
        }
    }
}

/// Check that every computation of `program` from `from` (the fault span
/// `T`) reaches `to` (the invariant `S`): both daemons' verdicts, the
/// worst-case move bound and the pass's sizes, in one [`ConvergenceReport`].
///
/// Evaluates `from` and `to` into caches in one decode pass, then runs the
/// one region pass ([`check_convergence_bits`]). The report is identical
/// for every thread count. `Converges` under [`Fairness::Unfair`] implies
/// `Converges` under [`Fairness::WeaklyFair`]; divergence witnesses found
/// under `WeaklyFair` are also divergences under `Unfair`.
///
/// ```
/// use nonmask_program::{Domain, Predicate, Program};
/// use nonmask_checker::{check_convergence, CheckOptions, StateSpace};
///
/// let mut b = Program::builder("down");
/// let x = b.var("x", Domain::range(0, 4));
/// b.convergence_action("dec", [x], [x],
///     move |s| s.get(x) > 0,
///     move |s| { let v = s.get(x); s.set(x, v - 1); });
/// let p = b.build();
/// let space = StateSpace::enumerate(&p)?;
/// let s = Predicate::new("x=0", [x], move |st| st.get(x) == 0);
/// let report = check_convergence(&space, &p, &Predicate::always_true(), &s,
///     CheckOptions::default())?;
/// assert!(report.unfair.converges());
/// assert_eq!(report.worst_case_moves, Some(4), "x=4 takes four decrements");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Errors
///
/// [`CheckError::WorkerFailed`] if a predicate or action body panics.
pub fn check_convergence(
    space: &StateSpace,
    program: &Program,
    from: &Predicate,
    to: &Predicate,
    opts: CheckOptions,
) -> Result<ConvergenceReport, CheckError> {
    let [from_bits, to_bits] = Bitset::for_predicates(space.index(), &[from, to], opts)?
        .try_into()
        .expect("two predicates, two caches");
    check_convergence_bits(space, program, &from_bits, &to_bits, opts)
}

/// Every convergence question about the region `from ∧ ¬to` in one pass,
/// over precomputed predicate caches (evaluations of `from` and `to` over
/// exactly this `space`), so callers can share the caches across the
/// closure and convergence passes.
///
/// The region is read a block at a time (see the [module docs](self)).
/// One sweep in id order finds its lowest-id deadlock or escape; with
/// none, the peel removes, round by round, the region states with no
/// successor left in it, so a state peeled in round `k` has longest path
/// `k` out of the region. An empty residual means both daemons converge
/// and the bound is the number of rounds that peeled a state. Otherwise
/// the bound is `None`, and the verdicts are, per daemon, the residual
/// analysis's.
///
/// # Errors
///
/// [`CheckError::BudgetExceeded`] when the peel's two bits a state exceed
/// [`CheckOptions::memory_budget`] (phase `"columns"`), when the actions'
/// block tables would not fit it (phase `"block tables"`), or when the
/// residual analysis would pass it (phase `"residual"`);
/// [`CheckError::WorkerFailed`] if an action body panics.
///
/// # Panics
///
/// If a cache does not range over the states of `space`.
pub fn check_convergence_bits(
    space: &StateSpace,
    program: &Program,
    from_bits: &Bitset,
    to_bits: &Bitset,
    opts: CheckOptions,
) -> Result<ConvergenceReport, CheckError> {
    let len = space.len();
    assert!(
        from_bits.len() == len && to_bits.len() == len,
        "cache length mismatch"
    );
    // `U`, and one round's peeled states: two bits a state.
    let required = 2 * (len.div_ceil(64) as u64 * 8);
    if required > opts.memory_budget {
        return Err(CheckError::BudgetExceeded {
            required,
            budget: opts.memory_budget,
            phase: "columns",
        });
    }
    let mut peel = Bitset::zeros(len);
    for ((u, f), t) in peel
        .words
        .iter_mut()
        .zip(&from_bits.words)
        .zip(&to_bits.words)
    {
        *u = f & !t;
    }
    let mut stats = ConvergenceStats {
        region_states: peel.count_ones() as u64,
        ..ConvergenceStats::default()
    };
    let sweep = BlockSweep::new(space, opts)?;
    let rounds = match sweep.peel(&mut peel, from_bits, to_bits)? {
        Peeled::Rounds(rounds) => rounds,
        Peeled::Event(before) => {
            let mut rows = space.rows();
            let row = rows.transitions(before);
            let escape =
                (row.succs().iter()).find(|&&t| !from_bits.contains(t) && !to_bits.contains(t));
            let result = match escape {
                None => ConvergenceResult::DeadlockOutsideTarget {
                    state: space.state(before),
                },
                Some(&after) => ConvergenceResult::EscapesFaultSpan {
                    before: space.state(before),
                    after: space.state(after),
                },
            };
            return Ok(ConvergenceReport {
                weakly_fair: result.clone(),
                unfair: result,
                worst_case_moves: None,
                stats,
            });
        }
    };
    let residual = peel;
    stats.peeled_states = stats.region_states - residual.count_ones() as u64;
    if stats.peeled_states == stats.region_states {
        return Ok(ConvergenceReport {
            weakly_fair: ConvergenceResult::Converges,
            unfair: ConvergenceResult::Converges,
            worst_case_moves: Some(rounds),
            stats,
        });
    }
    // The round's peeled states are gone; `U` is the residual.
    let held = required / 2;
    let mut rows = space.rows();
    let mut analyze = |fairness| {
        let charge = Charge::new(held, opts.memory_budget);
        analyze_residual(
            &mut rows,
            program,
            space.index(),
            &residual,
            fairness,
            charge,
        )
    };
    let unfair = analyze(Fairness::Unfair)?;
    let weakly_fair = analyze(Fairness::WeaklyFair)?;
    stats.sccs_found = unfair.sccs_found;
    Ok(ConvergenceReport {
        weakly_fair: weakly_fair.result,
        unfair: unfair.result,
        worst_case_moves: None,
        stats,
    })
}

/// A space's action tables re-keyed by block, and the segments a sweep
/// over them splits into.
struct BlockSweep<'a> {
    index: &'a SpaceIndex,
    blocks: Blocks,
    groups: BlockTable<(i64, u64)>,
    per_row: &'a [(usize, Action)],
    actions: usize,
    plan: SegmentPlan,
    workers: usize,
}

/// One worker's cursor over a [`BlockSweep`]'s tables, and its scratch
/// for the actions evaluated per row.
struct BlockReader {
    cursor: Cursor,
    state: State,
    succ: State,
    row_groups: Vec<Vec<(i64, u64)>>,
    /// The successor-id deltas of the per-row groups read since the
    /// reader was made, ascending, or `None` past [`ROW_DELTAS`].
    row_deltas: Option<Vec<i64>>,
}

impl BlockReader {
    /// Add the deltas of the per-row groups last read to `row_deltas`.
    fn note_row_deltas(&mut self) {
        for &(delta, _) in self.row_groups.iter().flatten() {
            let Some(list) = &mut self.row_deltas else {
                return;
            };
            if let Err(at) = list.binary_search(&delta) {
                list.insert(at, delta);
                if list.len() > ROW_DELTAS {
                    self.row_deltas = None;
                }
            }
        }
    }
}

impl<'a> BlockSweep<'a> {
    fn new(space: &'a StateSpace, opts: CheckOptions) -> Result<Self, CheckError> {
        let index = space.index();
        let blocks = Blocks::of(index);
        let groups = space.tables().groups(index, &blocks, opts.memory_budget)?;
        let per_row = space.tables().per_row();
        Ok(BlockSweep {
            index,
            blocks,
            groups,
            per_row,
            actions: space.action_count(),
            plan: opts.segment_plan(index.len()),
            workers: opts.workers_for(index.len()),
        })
    }

    fn reader(&self) -> BlockReader {
        BlockReader {
            cursor: self.groups.cursor(&self.blocks),
            state: self.index.scratch_state(),
            succ: self.index.scratch_state(),
            row_groups: vec![Vec::new(); self.per_row.len()],
            row_deltas: Some(Vec::new()),
        }
    }

    /// Every action's `(δ, pattern)` groups at block `b`, in action
    /// order; the actions evaluated per row are evaluated at the states
    /// `live` marks, and the tabled ones' patterns are not masked.
    fn groups<'r>(
        &'r self,
        reader: &'r mut BlockReader,
        b: usize,
        live: u64,
    ) -> impl Iterator<Item = (i64, u64)> + 'r {
        self.groups.seek(&self.blocks, &mut reader.cursor, b);
        if !self.per_row.is_empty() {
            let scratch = (&mut reader.state, &mut reader.succ);
            let block = (b * self.blocks.states(), self.blocks.states());
            per_row_groups(
                self.index,
                self.per_row,
                block,
                live,
                scratch,
                &mut reader.row_groups,
            );
        }
        let (cursor, mut row_groups) = (&reader.cursor, reader.row_groups.iter());
        (0..self.actions)
            .flat_map(move |a| {
                let list = self.groups.values(cursor, a);
                list.unwrap_or_else(|| {
                    row_groups
                        .next()
                        .expect("one group list per per-row action")
                })
            })
            .copied()
    }

    /// Peel `set`, the region, to its greatest subset whose every state
    /// has a successor in it, one round at a time; the first round, which
    /// reads every block, also looks for the lowest state of the region
    /// with no enabled action, or with a successor outside `from ∪ to`,
    /// and ends the peel at it.
    ///
    /// A state can only be peeled in the round after one of its
    /// successors was. So when a round peels few states, the next reads
    /// only the blocks that hold a predecessor of one of them, found by
    /// the successor-id deltas of the set's transitions, and a long chain
    /// costs a block or two a round instead of every block of the set.
    /// Listing them costs a push per peeled state and delta, and reading
    /// every block a block each; the peel takes the cheaper. The deltas
    /// are the tables', and those the first round meets where it
    /// evaluates an action per row; past [`ROW_DELTAS`] of those, every
    /// round reads every block. A listed round splits its blocks into
    /// tasks of a segment's worth of states, and the readers, with their
    /// cursors and scratch, are kept from round to round.
    fn peel(&self, set: &mut Bitset, from: &Bitset, to: &Bitset) -> Result<Peeled, CheckError> {
        let (width, words) = (self.blocks.states(), set.words.len());
        let block_count = set.len() / width;
        let mut deltas: Option<Vec<i64>> = None;
        let chunk = self.plan.segment_states().div_ceil(width);
        // One round's peeled states. Each state is written by the one
        // task that owns it, and read after every task has joined.
        let peeled: Vec<AtomicU64> = (0..words).map(|_| AtomicU64::new(0)).collect();
        let readers = Mutex::new(Vec::new());
        // The blocks the next round reads, ascending, or `None` for all;
        // and the list the round after it fills.
        let (mut visit, mut preds): (Option<Vec<u32>>, Vec<u32>) = (None, Vec::new());
        let mut rounds = 0;
        loop {
            let (set_ref, first) = (&*set, rounds == 0);
            // Read `blocks`, each for its states in `range`: how many
            // states they peel, and the lowest event among them.
            let read = |blocks: &mut dyn Iterator<Item = usize>, range: &Range<usize>| {
                let popped = readers.lock().expect(POOL).pop();
                let mut reader = popped.unwrap_or_else(|| self.reader());
                let (mut count, mut event) = (0, None);
                for b in blocks {
                    let x0 = b * width;
                    let live = set_ref.word_at(x0 as i64) & self.blocks.in_range(b, range);
                    if live == 0 {
                        continue;
                    }
                    let (mut stuck, mut enabled, mut escapes) = (0, 0, 0);
                    for (delta, pattern) in self.groups(&mut reader, b, live) {
                        let (on, at) = (pattern & live, x0 as i64 + delta);
                        if first {
                            enabled |= on;
                            escapes |= on & !(from.word_at(at) | to.word_at(at));
                        } else if on & !stuck == 0 {
                            continue;
                        }
                        stuck |= on & set_ref.word_at(at);
                        if stuck == live && !first {
                            break;
                        }
                    }
                    if first {
                        reader.note_row_deltas();
                    }
                    let events = if first { live & !enabled | escapes } else { 0 };
                    if events != 0 {
                        event = Some(x0 + events.trailing_zeros() as usize);
                        break;
                    }
                    let gone = live & !stuck;
                    if gone != 0 {
                        count += gone.count_ones() as usize;
                        let (w, shift) = (x0 / 64, x0 % 64);
                        peeled[w].fetch_or(gone << shift, Ordering::Relaxed);
                        if shift != 0 && gone >> (64 - shift) != 0 {
                            peeled[w + 1].fetch_or(gone >> (64 - shift), Ordering::Relaxed);
                        }
                    }
                }
                readers.lock().expect(POOL).push(reader);
                (count, event)
            };
            let found = match &visit {
                None => steal_tasks(self.plan.count(), self.workers, |ti| {
                    let range = self.plan.range(ti);
                    read(&mut self.blocks.covering(&range), &range)
                })?,
                Some(list) => {
                    let all = 0..set_ref.len();
                    steal_tasks(list.len().div_ceil(chunk), self.workers, |i| {
                        let ours = &list[i * chunk..list.len().min((i + 1) * chunk)];
                        read(&mut ours.iter().map(|&b| b as usize), &all)
                    })?
                }
            };
            if let Some(event) = found.iter().filter_map(|&(_, event)| event).min() {
                return Ok(Peeled::Event(StateId::from_index(event)));
            }
            if first {
                let pool = readers.lock().expect(POOL);
                let met = pool.iter().try_fold(Vec::new(), |mut met, r| {
                    met.extend(r.row_deltas.as_ref()?);
                    Some(met)
                });
                deltas = met
                    .map(|mut met| {
                        met.sort_unstable();
                        met.dedup();
                        met
                    })
                    .filter(|met| met.len() <= ROW_DELTAS)
                    .map(|mut met| {
                        met.extend(self.groups.deltas());
                        met.sort_unstable();
                        met.dedup();
                        met
                    });
            }
            let now: usize = found.iter().map(|&(count, _)| count).sum();
            if now == 0 {
                return Ok(Peeled::Rounds(rounds));
            }
            rounds += 1;
            let next = deltas.as_ref().filter(|d| now * d.len() < block_count);
            // The words the round may have written, ascending.
            let (all, listed) = match &visit {
                None => (0..words, &[][..]),
                Some(list) => (0..0, &list[..]),
            };
            let touched = all.chain(listed.iter().flat_map(|&b| {
                let x0 = b as usize * width;
                x0 / 64..=(x0 + width - 1) / 64
            }));
            for w in touched {
                let mut gone = peeled[w].swap(0, Ordering::Relaxed);
                set.words[w] &= !gone;
                while let Some(d) = next.filter(|_| gone != 0) {
                    let y = w * 64 + gone.trailing_zeros() as usize;
                    gone &= gone - 1;
                    let x = d.iter().map(|&delta| y as i64 - delta);
                    let inside = x.filter(|&x| (0..set.len() as i64).contains(&x));
                    preds.extend(inside.map(|x| (x as usize / width) as u32));
                }
            }
            let spent = std::mem::replace(
                &mut visit,
                next.map(|_| {
                    preds.sort_unstable();
                    preds.dedup();
                    std::mem::take(&mut preds)
                }),
            );
            preds = spent.unwrap_or_default();
            preds.clear();
        }
    }
}

/// The most successor-id deltas the peel collects from the actions it
/// evaluates per row. It bounds the collection, a sorted insert per new
/// delta into a list per reader; whether a round lists its blocks is the
/// cost rule's call. A counter's chain has one delta.
const ROW_DELTAS: usize = 64;

/// Why the peel's reader pool cannot be poisoned.
const POOL: &str = "the reader pool is held only to pop or push a reader";

/// What [`BlockSweep::peel`] found.
enum Peeled {
    /// The lowest region state with no enabled action, or with a
    /// successor outside `from ∪ to`.
    Event(StateId),
    /// No such state: the number of rounds that peeled a state.
    Rounds(u64),
}

/// What [`analyze_residual`] found.
pub(crate) struct Residual {
    /// The verdict: the first divergent component, or convergence.
    pub result: ConvergenceResult,
    /// Strongly connected components of the residual subgraph.
    pub sccs_found: u64,
    /// Row pairs read to build the residual graph.
    pub evals: u64,
}

/// The residual analysis both convergence passes end in. `residual`
/// holds the region states the pass could not resolve: exactly those
/// starting an infinite region-confined path, so every cycle lies inside
/// it. Its members are numbered by rank, ascending. Tarjan runs over a
/// residual-local CSR (rows in action order, filtered to residual
/// targets), and only components with an internal edge are examined (a
/// residual chain state feeding a cycle is a singleton SCC and cannot host
/// one); the first such component that is a legal computation under
/// `fairness` is the divergence witness.
///
/// # Errors
///
/// [`CheckError::BudgetExceeded`] (phase `"residual"`) when the ranks,
/// ids, CSR and search would take `charge` past its budget: all but the
/// edges and the search's stacks are charged before the build, and those
/// as they grow; the first error of `rows`.
pub(crate) fn analyze_residual(
    rows: &mut impl Successors,
    program: &Program,
    index: &SpaceIndex,
    residual: &Bitset,
    fairness: Fairness,
    mut charge: Charge,
) -> Result<Residual, CheckError> {
    let n = residual.count_ones();
    let (mut result, mut sccs_found, mut evals) = (ConvergenceResult::Converges, 0u64, 0u64);
    if n == 0 {
        return Ok(Residual {
            result,
            sccs_found,
            evals,
        });
    }
    // Per word a rank, per member an id and a CSR offset, and a bit per
    // member for the component under test.
    let words = residual.words.len() as u64;
    charge.add(4 * words + 8 * n as u64 + 4 + n.div_ceil(64) as u64 * 8)?;
    let mut ranks = Vec::with_capacity(residual.words.len());
    let mut members = 0u32;
    for w in &residual.words {
        ranks.push(members);
        members += w.count_ones();
    }
    let local = |t: StateId| {
        let (w, bit) = (t.index() / 64, t.index() % 64);
        let word = residual.words[w];
        let below = word & ((1u64 << bit) - 1);
        (word >> bit & 1 == 1).then(|| ranks[w] as usize + below.count_ones() as usize)
    };
    let ids: Vec<StateId> = residual.iter_ones().map(StateId::from_index).collect();
    let mut offsets: Vec<u32> = Vec::with_capacity(n + 1);
    offsets.push(0);
    let mut edges: Vec<u32> = Vec::new();
    for &id in &ids {
        let row = rows.row(id)?;
        evals += row.len() as u64;
        charge.grow(&mut edges, row.len())?;
        edges.extend(
            row.succs()
                .iter()
                .filter_map(|&t| local(t))
                .map(|lt| lt as u32),
        );
        offsets.push(edges.len() as u32);
    }
    let mut scc_bits = Bitset::zeros(n);
    let row = |u: u32, out: &mut Vec<u32>| {
        let (lo, hi) = (
            offsets[u as usize] as usize,
            offsets[u as usize + 1] as usize,
        );
        out.extend_from_slice(&edges[lo..hi]);
        Ok(())
    };
    let component = |scc: &[u32], cyclic: bool| -> Result<(), CheckError> {
        sccs_found += 1;
        if !cyclic || !result.converges() {
            return Ok(());
        }
        let states = scc.iter().map(|&u| ids[u as usize]);
        let divergent = match fairness {
            Fairness::Unfair => true,
            Fairness::WeaklyFair => {
                scc.iter().for_each(|&u| scc_bits.set(u as usize));
                let in_scc = |t: StateId| local(t).is_some_and(|lt| scc_bits.get(lt));
                let admissible =
                    fair_admissible(rows, program.action_count(), states.clone(), in_scc)?;
                scc.iter().for_each(|&u| scc_bits.unset(u as usize));
                admissible
            }
        };
        if divergent {
            result = ConvergenceResult::Divergence {
                states: states.map(|id| index.state(id)).collect(),
                fairness,
            };
        }
        Ok(())
    };
    tarjan(n, program.action_count(), &mut charge, row, component)?;
    Ok(Residual {
        result,
        sccs_found,
        evals,
    })
}

/// Whether an SCC admits a weakly fair infinite computation: every action
/// enabled at all of its states must have a transition staying inside it.
/// Enabledness is read off the rows: an action is enabled at a state
/// exactly when the state's row holds a pair for it.
fn fair_admissible(
    rows: &mut impl Successors,
    actions: usize,
    scc: impl Iterator<Item = StateId>,
    in_scc: impl Fn(StateId) -> bool,
) -> Result<bool, CheckError> {
    let mut everywhere = vec![true; actions];
    let mut stays = vec![false; actions];
    let mut here = vec![false; actions];
    for id in scc {
        here.fill(false);
        for (a, t) in rows.row(id)? {
            here[a.index()] = true;
            stays[a.index()] |= in_scc(t);
        }
        for (e, &h) in everywhere.iter_mut().zip(&here) {
            *e &= h;
        }
    }
    // An action enabled everywhere in the SCC whose every execution leaves
    // it forces a fair computation out.
    Ok(everywhere.iter().zip(&stays).all(|(&e, &s)| !e || s))
}

/// One step of a replayable witness path produced by [`shortest_path_to`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathStep {
    /// The action whose execution reached [`PathStep::state`] from the
    /// previous step's state; `None` at the start of the path.
    pub action: Option<ActionId>,
    /// The state reached.
    pub state: State,
}

/// A breadth-first witness path: from some state satisfying `from` to the
/// first state in `targets`, following program transitions. Used to turn a
/// divergence witness (the SCC states of
/// [`ConvergenceResult::Divergence`]) into a full counterexample
/// computation a reader can replay: each step records the [`ActionId`]
/// executed, so `program.action(a).successor(&prev)` reproduces it.
///
/// Returns `Ok(None)` when no target is reachable from `from` (then the
/// divergence is only reachable via fault actions, not program steps).
///
/// # Errors
///
/// [`CheckError::WorkerFailed`] if `from` panics at some state.
pub fn shortest_path_to(
    space: &StateSpace,
    from: &Predicate,
    targets: &[State],
) -> Result<Option<Vec<PathStep>>, CheckError> {
    const NO_PARENT: u32 = u32::MAX;
    let mut target_ids = Bitset::zeros(space.len());
    for t in targets {
        if let Some(id) = space.id_of(t) {
            target_ids.set(id.index());
        }
    }
    let mut parent = vec![NO_PARENT; space.len()];
    let mut via = vec![ActionId::from_index(0); space.len()];
    let mut seen = Bitset::for_predicate(space, from, CheckOptions::default())?;
    let mut queue: std::collections::VecDeque<StateId> =
        seen.iter_ones().map(StateId::from_index).collect();
    let mut rows = space.rows();
    while let Some(id) = queue.pop_front() {
        if target_ids.contains(id) {
            // Rebuild the path; the start state (no parent) carries no
            // action.
            let mut path = Vec::new();
            let mut cur = id;
            loop {
                let p = parent[cur.index()];
                path.push(PathStep {
                    action: (p != NO_PARENT).then(|| via[cur.index()]),
                    state: space.state(cur),
                });
                if p == NO_PARENT {
                    break;
                }
                cur = StateId::from_index(p as usize);
            }
            path.reverse();
            return Ok(Some(path));
        }
        for (a, next) in rows.transitions(id) {
            if !seen.contains(next) {
                seen.set(next.index());
                parent[next.index()] = id.index() as u32;
                via[next.index()] = a;
                queue.push_back(next);
            }
        }
    }
    Ok(None)
}

/// The bytes a pass holds, and the budget they may not pass: the residual
/// analysis adds what it allocates as it allocates it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Charge {
    held: u64,
    budget: u64,
}

impl Charge {
    /// `held` bytes already held, against `budget`.
    pub(crate) fn new(held: u64, budget: u64) -> Self {
        Charge { held, budget }
    }

    /// Hold `bytes` more.
    ///
    /// # Errors
    ///
    /// [`CheckError::BudgetExceeded`] (phase `"residual"`) when they
    /// would pass the budget.
    fn add(&mut self, bytes: u64) -> Result<(), CheckError> {
        let held = self.held.saturating_add(bytes);
        if held > self.budget {
            return Err(CheckError::BudgetExceeded {
                required: held,
                budget: self.budget,
                phase: "residual",
            });
        }
        self.held = held;
        Ok(())
    }

    /// Make room for `more` items on `v`, doubling as a `Vec` does, and
    /// hold the bytes it grows by.
    ///
    /// # Errors
    ///
    /// As [`add`](Self::add).
    fn grow<T>(&mut self, v: &mut Vec<T>, more: usize) -> Result<(), CheckError> {
        let old = v.capacity();
        if old - v.len() >= more {
            return Ok(());
        }
        let cap = (v.len() + more).max(2 * old).max(16);
        self.add(((cap - old) * std::mem::size_of::<T>()) as u64)?;
        v.reserve_exact(cap - v.len());
        Ok(())
    }
}

/// Iterative Tarjan SCC over the nodes `0..n`, whose out-edges `row(v,
/// out)` appends to `out`, at most `width` a node. Components complete in
/// reverse topological order, and each is handed to `component` as its
/// members, sorted, with whether it is *cyclic* (two or more members, or a
/// self-loop). A component is a slice of the DFS stack, so a singleton
/// allocates nothing. The first `Err` from `row` or `component` ends the
/// search.
///
/// One `u32` per node, after Pearce's single-array variant: a node's DFS
/// number lives in its call frame, and `low` holds its lowlink while it is
/// on the stack, then `DONE`, above every lowlink. The unread out-edges of
/// the frames on the call stack share one edge stack, so a row is read
/// once, when its node is entered. The column is charged before the
/// search, and the three stacks, which grow as deep as the search goes
/// (the largest component, or the longest chain), as they grow.
///
/// # Errors
///
/// [`CheckError::TooLarge`] when `n` does not leave a `u32` DFS number
/// free above every node; [`CheckError::BudgetExceeded`] (phase
/// `"residual"`) when the column or the stacks would take `charge` past
/// its budget; otherwise the first error of `row` or `component`.
fn tarjan(
    n: usize,
    width: usize,
    charge: &mut Charge,
    mut row: impl FnMut(u32, &mut Vec<u32>) -> Result<(), CheckError>,
    mut component: impl FnMut(&[u32], bool) -> Result<(), CheckError>,
) -> Result<(), CheckError> {
    const UNSEEN: u32 = 0;
    const DONE: u32 = u32::MAX;
    // DFS numbers run from 1, so they stay between `UNSEEN` and `DONE`.
    if n >= u32::MAX as usize - 1 {
        return Err(CheckError::TooLarge {
            limit: u32::MAX as usize - 2,
        });
    }
    charge.add(4 * n as u64)?;
    let mut low = vec![UNSEEN; n];
    let mut stack: Vec<u32> = Vec::new();
    // Explicit DFS stack: (node, its DFS number, the start of its unread
    // out-edges on `edges`, whether it has a self-loop). A frame's unread
    // edges run from its start to the next frame's edges, or to the end of
    // `edges`.
    let mut call: Vec<(u32, u32, usize, bool)> = Vec::new();
    let mut edges: Vec<u32> = Vec::new();
    let mut next_index = UNSEEN;
    for root in 0..n as u32 {
        if low[root as usize] != UNSEEN {
            continue;
        }
        let mut enter = Some(root);
        loop {
            if let Some(w) = enter.take() {
                charge.grow(&mut stack, 1)?;
                charge.grow(&mut call, 1)?;
                charge.grow(&mut edges, width)?;
                next_index += 1;
                low[w as usize] = next_index;
                stack.push(w);
                // Reversed, so that popping reads them in row order.
                let start = edges.len();
                row(w, &mut edges)?;
                edges[start..].reverse();
                call.push((w, next_index, start, false));
            }
            let Some(&mut (v, _, start, ref mut self_loop)) = call.last_mut() else {
                break;
            };
            let v = v as usize;
            if edges.len() > start {
                let w = edges.pop().expect("an unread edge") as usize;
                if low[w] == UNSEEN {
                    enter = Some(w as u32);
                } else {
                    // A completed node's `DONE` leaves the lowlink alone.
                    low[v] = low[v].min(low[w]);
                    *self_loop |= w == v;
                }
                continue;
            }
            let (_, index, _, self_loop) = call.pop().expect("a frame was just read");
            if low[v] == index {
                let start = stack.iter().rposition(|&u| u as usize == v);
                let start = start.expect("v is on the stack");
                let members = &mut stack[start..];
                let cyclic = members.len() > 1 || self_loop;
                for &u in members.iter() {
                    low[u as usize] = DONE;
                }
                members.sort_unstable();
                component(members, cyclic)?;
                stack.truncate(start);
            }
            if let Some(&(parent, ..)) = call.last() {
                let p = parent as usize;
                low[p] = low[p].min(low[v]);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonmask_program::{Domain, Program};

    fn pred_eq(p: &Program, name: &str, var: &str, value: i64) -> Predicate {
        let v = p.var_by_name(var).unwrap();
        Predicate::new(name, [v], move |s| s.get(v) == value)
    }

    /// The report from `from` to `to` with the default options.
    fn check(
        space: &StateSpace,
        p: &Program,
        from: &Predicate,
        to: &Predicate,
    ) -> ConvergenceReport {
        check_convergence(space, p, from, to, CheckOptions::default()).unwrap()
    }

    /// x counts down from `max` to 0 by `dec`.
    fn countdown(max: i64) -> Program {
        let mut b = Program::builder("down");
        let x = b.var("x", Domain::range(0, max));
        b.convergence_action(
            "dec",
            [x],
            [x],
            move |s| s.get(x) > 0,
            move |s| {
                let v = s.get(x);
                s.set(x, v - 1);
            },
        );
        b.build()
    }

    #[test]
    fn converging_countdown() {
        let p = countdown(5);
        let space = StateSpace::enumerate(&p).unwrap();
        let s = pred_eq(&p, "x=0", "x", 0);
        let report = check(&space, &p, &Predicate::always_true(), &s);
        assert!(report.unfair.converges());
        assert!(report.weakly_fair.converges());
        assert_eq!(report.worst_case_moves, Some(5), "x=5 takes five steps");
        // The countdown peels its whole region.
        assert_eq!(
            report.stats,
            ConvergenceStats {
                region_states: 5,
                peeled_states: 5,
                sccs_found: 0,
            }
        );
    }

    #[test]
    fn deadlock_outside_target_detected() {
        // x=2 is absorbing with no enabled action, and not the target.
        let mut b = Program::builder("stuck");
        let x = b.var("x", Domain::range(0, 2));
        b.convergence_action("go", [x], [x], move |s| s.get(x) == 1, move |s| s.set(x, 0));
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let s = pred_eq(&p, "x=0", "x", 0);
        let report = check(&space, &p, &Predicate::always_true(), &s);
        assert!(
            matches!(report.weakly_fair, ConvergenceResult::DeadlockOutsideTarget { ref state } if state.slots() == [2])
        );
        assert_eq!(report.unfair, report.weakly_fair);
        assert_eq!(report.worst_case_moves, None, "a deadlock has no bound");
    }

    #[test]
    fn unfair_cycle_detected_but_fairness_rescues() {
        // Two actions at every ¬S state: `spin` toggles y and stays in the
        // region; `exit` jumps to the target. Unfair daemons can spin
        // forever; a weakly fair daemon must eventually run `exit`.
        //
        // This is also the soundness test for the residual: every region
        // state here *can* reach S (via `exit`), so a "cannot-reach-S"
        // residual would be empty and the unfair divergence missed. The
        // region pass keeps the spin cycle infinite.
        let mut b = Program::builder("spin");
        let x = b.var("x", Domain::Bool);
        let y = b.var("y", Domain::Bool);
        b.closure_action(
            "spin",
            [x, y],
            [y],
            move |s| !s.get_bool(x),
            move |s| s.toggle(y),
        );
        b.convergence_action(
            "exit",
            [x],
            [x],
            move |s| !s.get_bool(x),
            move |s| s.set_bool(x, true),
        );
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let s = Predicate::new("x", [x], move |st| st.get_bool(x));
        let report = check(&space, &p, &Predicate::always_true(), &s);
        assert!(
            matches!(report.unfair, ConvergenceResult::Divergence { ref states, fairness: Fairness::Unfair } if states.len() == 2)
        );
        let fair = report.verdict(Fairness::WeaklyFair);
        assert!(fair.converges(), "weak fairness forces `exit`: {fair:?}");
        assert_eq!(report.worst_case_moves, None);
    }

    #[test]
    fn fair_divergence_detected() {
        // The only enabled action in the region cycles within it: even fair
        // computations never reach the target.
        let mut b = Program::builder("livelock");
        let y = b.var("y", Domain::Bool);
        let x = b.var("x", Domain::Bool);
        b.closure_action(
            "toggle",
            [x, y],
            [y],
            move |s| !s.get_bool(x),
            move |s| s.toggle(y),
        );
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let s = Predicate::new("x", [x], move |st| st.get_bool(x));
        let report = check(&space, &p, &Predicate::always_true(), &s);
        let r = report.verdict(Fairness::WeaklyFair);
        assert!(
            matches!(
                r,
                ConvergenceResult::Divergence {
                    fairness: Fairness::WeaklyFair,
                    ..
                }
            ),
            "got {r:?}"
        );
        assert_eq!(report.worst_case_moves, None, "a cycle has no bound");
    }

    #[test]
    fn self_loop_divergence_under_unfair_only() {
        // `stay` leaves the state unchanged (self-loop); `exit` leaves the
        // region. Unfair: stay forever. Fair: exit eventually runs.
        let mut b = Program::builder("selfloop");
        let x = b.var("x", Domain::Bool);
        b.closure_action("stay", [x], [x], move |s| !s.get_bool(x), move |_s| {});
        b.convergence_action(
            "exit",
            [x],
            [x],
            move |s| !s.get_bool(x),
            move |s| s.set_bool(x, true),
        );
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let s = Predicate::new("x", [x], move |st| st.get_bool(x));
        let report = check(&space, &p, &Predicate::always_true(), &s);
        assert!(
            matches!(report.unfair, ConvergenceResult::Divergence { ref states, .. } if states.len() == 1)
        );
        assert!(report.weakly_fair.converges());
    }

    #[test]
    fn escape_from_fault_span_detected() {
        // T = x<=1, but the region action jumps to x=2 ∉ T ∪ S.
        let mut b = Program::builder("escape");
        let x = b.var("x", Domain::range(0, 2));
        b.closure_action(
            "jump",
            [x],
            [x],
            move |s| s.get(x) == 1,
            move |s| s.set(x, 2),
        );
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let s = pred_eq(&p, "x=0", "x", 0);
        let t = Predicate::new("x<=1", [x], move |st| st.get(x) <= 1);
        let report = check(&space, &p, &t, &s);
        let r = &report.weakly_fair;
        assert!(
            matches!(r, ConvergenceResult::EscapesFaultSpan { .. }),
            "got {r:?}"
        );
        // The unfair verdict is the same escape, so no finite bound may
        // stand beside it.
        assert_eq!(report.unfair, report.weakly_fair);
        assert_eq!(report.worst_case_moves, None);
    }

    #[test]
    fn empty_region_converges_trivially() {
        let p = countdown(3);
        let space = StateSpace::enumerate(&p).unwrap();
        let s = pred_eq(&p, "x=0", "x", 0);
        for (from, to) in [
            (Predicate::always_true(), Predicate::always_true()),
            (Predicate::always_false(), s),
        ] {
            let report = check(&space, &p, &from, &to);
            assert!(report.weakly_fair.converges());
            assert_eq!(report.worst_case_moves, Some(0), "an empty region");
        }
    }

    #[test]
    fn branching_takes_longest_path() {
        // From x: either jump straight to 0 or step down by 1. Worst case
        // still walks all the way down.
        let mut b = Program::builder("branch");
        let x = b.var("x", Domain::range(0, 5));
        b.convergence_action(
            "jump",
            [x],
            [x],
            move |s| s.get(x) > 0,
            move |s| s.set(x, 0),
        );
        b.convergence_action(
            "step",
            [x],
            [x],
            move |s| s.get(x) > 0,
            move |s| {
                let v = s.get(x);
                s.set(x, v - 1);
            },
        );
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let s = pred_eq(&p, "x=0", "x", 0);
        let report = check(&space, &p, &Predicate::always_true(), &s);
        assert_eq!(report.worst_case_moves, Some(5));
    }

    #[test]
    fn region_limited_to_fault_span() {
        // Outside T there is a livelock, but convergence is only claimed
        // from T, so it must not be reported.
        let mut b = Program::builder("scoped");
        let x = b.var("x", Domain::range(0, 2));
        // At x=2 (outside T=x<=1): spin forever via self-loop.
        b.closure_action("spin", [x], [x], move |s| s.get(x) == 2, move |_s| {});
        // At x=1: move to 0.
        b.convergence_action(
            "fix",
            [x],
            [x],
            move |s| s.get(x) == 1,
            move |s| s.set(x, 0),
        );
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let s = pred_eq(&p, "x=0", "x", 0);
        let t = Predicate::new("x<=1", [x], move |st| st.get(x) <= 1);
        let r = check(&space, &p, &t, &s).unfair;
        assert!(r.converges(), "got {r:?}");
    }

    #[test]
    fn multi_threaded_matches_single_threaded() {
        // 4096- and 5000-state countdowns (above the parallel threshold):
        // every report field must be bit-identical across worker counts.
        let mut b = Program::builder("mt");
        let x = b.var("x", Domain::range(0, 4095));
        b.convergence_action(
            "dec",
            [x],
            [x],
            move |s| s.get(x) > 1,
            move |s| {
                let v = s.get(x);
                s.set(x, v - 1);
            },
        );
        // x=1 deadlocks outside the target of the first: a witness exists,
        // and all thread counts must agree on it. The second converges,
        // and all must agree on its bound.
        for (p, deadlock, bound) in [
            (b.build(), true, None),
            (countdown(4999), false, Some(4999)),
        ] {
            let space = StateSpace::enumerate(&p).unwrap();
            let s = pred_eq(&p, "x=0", "x", 0);
            let t = Predicate::always_true();
            let serial = check_convergence(&space, &p, &t, &s, CheckOptions::serial()).unwrap();
            for threads in [2, 4, 8] {
                let opts = CheckOptions::default().threads(threads);
                let par = check_convergence(&space, &p, &t, &s, opts).unwrap();
                assert_eq!(serial, par, "threads={threads}");
            }
            assert_eq!(
                matches!(serial.weakly_fair, ConvergenceResult::DeadlockOutsideTarget { ref state } if state.slots() == [1]),
                deadlock
            );
            assert_eq!(serial.worst_case_moves, bound);
        }
    }

    #[test]
    fn divergence_witness_is_thread_count_invariant() {
        // A large region full of internal 2-cycles (spin on y) plus exits:
        // the residual keeps every cycle and each thread count must report the
        // identical witness SCC.
        let mut b = Program::builder("mt-div");
        let x = b.var("x", Domain::range(0, 4095));
        let y = b.var("y", Domain::Bool);
        b.closure_action(
            "spin",
            [x, y],
            [y],
            move |s| s.get(x) > 0,
            move |s| s.toggle(y),
        );
        b.convergence_action(
            "dec",
            [x],
            [x],
            move |s| s.get(x) > 0,
            move |s| {
                let v = s.get(x);
                s.set(x, v - 1);
            },
        );
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let s = pred_eq(&p, "x=0", "x", 0);
        let t = Predicate::always_true();
        let serial = check_convergence(&space, &p, &t, &s, CheckOptions::serial()).unwrap();
        assert!(
            matches!(serial.unfair, ConvergenceResult::Divergence { ref states, .. } if states.len() == 2),
            "got {:?}",
            serial.unfair
        );
        for threads in [2, 8] {
            let opts = CheckOptions::default().threads(threads);
            let par = check_convergence(&space, &p, &t, &s, opts).unwrap();
            assert_eq!(serial, par, "threads={threads}");
        }
    }

    #[test]
    fn residual_analysis_is_charged_against_the_budget() {
        // Twelve booleans; `flip` toggles the last one and never leaves the
        // region `v0 = 0`, so the whole region is residual: 1024
        // two-cycles, whose analysis needs ranks, ids and a CSR for 2048
        // states. The tables are a few entries, so they fit a budget the
        // analysis does not.
        let mut b = Program::builder("livelock");
        let v: Vec<_> = (0..12)
            .map(|i| b.var(format!("v{i}"), Domain::Bool))
            .collect();
        let last = v[11];
        b.closure_action("flip", [last], [last], |_| true, move |s| s.toggle(last));
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let s = pred_eq(&p, "v0", "v0", 1);
        let t = Predicate::always_true();
        // The peel's two bitsets, and a little room past them.
        let bitsets = 2 * 4096 / 8;
        let tight = CheckOptions::serial().memory_budget(bitsets + 64);
        match check_convergence(&space, &p, &t, &s, tight) {
            Err(CheckError::BudgetExceeded {
                required,
                budget,
                phase: "residual",
            }) => assert!(required > budget && budget == bitsets + 64),
            other => panic!("the residual must not fit 64 bytes, got {other:?}"),
        }
        let roomy = check_convergence(&space, &p, &t, &s, CheckOptions::serial()).unwrap();
        assert!(
            matches!(roomy.weakly_fair, ConvergenceResult::Divergence { ref states, .. } if states.len() == 2)
        );
        assert_eq!(roomy.stats, stats(2048, 0, 1024));
    }

    /// The widest row of `adj`.
    fn width(adj: &[Vec<u32>]) -> usize {
        adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    #[test]
    fn tarjan_charges_its_stacks_against_the_budget() {
        // A chain 0 -> 1 -> ... -> 9999 is searched 10,000 frames deep.
        let adj: Vec<Vec<u32>> = (0..10_000u32)
            .map(|v| if v < 9_999 { vec![v + 1] } else { vec![] })
            .collect();
        let search = |budget| {
            let mut sccs = 0;
            let found = tarjan(
                adj.len(),
                width(&adj),
                &mut Charge::new(1000, budget),
                |v, out| {
                    out.extend(&adj[v as usize]);
                    Ok(())
                },
                |scc, cyclic| {
                    assert!(scc.len() == 1 && !cyclic);
                    sccs += 1;
                    Ok(())
                },
            );
            found.map(|()| sccs)
        };
        match search(1000 + 64 * 1024) {
            Err(CheckError::BudgetExceeded {
                required,
                budget,
                phase: "residual",
            }) => assert!(required > budget && budget == 1000 + 64 * 1024),
            other => panic!("a 64 KiB room must refuse 10,000 frames, got {other:?}"),
        }
        // A megabyte holds them: a `u32` column, and a `u32` and a
        // 24-byte frame per level, with one doubling of slack.
        assert_eq!(search(1000 + (1 << 20)).unwrap(), 10_000);
    }

    /// Every component of `adj` in completion order, with its cyclic flag.
    fn tarjan_of(adj: &[Vec<u32>]) -> Vec<(Vec<u32>, bool)> {
        let mut sccs = Vec::new();
        tarjan(
            adj.len(),
            width(adj),
            &mut Charge::new(0, u64::MAX),
            |v, out| {
                out.extend(&adj[v as usize]);
                Ok(())
            },
            |scc, cyclic| {
                sccs.push((scc.to_vec(), cyclic));
                Ok(())
            },
        )
        .unwrap();
        sccs
    }

    /// Per node of `adj`, its height as the peel finds it: the number of
    /// nodes on its longest path, or `None` when a path from it reaches a
    /// cycle. Node `u` is the state `x = u + 1` of a program with one
    /// action per edge, and one to the target `x = 0` from each node
    /// without edges; the fault span is the target and the nodes `u`
    /// reaches, which is closed, so the worst case over it is `u`'s
    /// height.
    fn peel_heights(adj: &[Vec<u32>]) -> Vec<Option<u64>> {
        let edges: Vec<(i64, i64)> = (adj.iter().enumerate())
            .flat_map(|(u, out)| {
                let targets = out.iter().map(|&v| v as i64 + 1);
                let targets: Vec<i64> = if out.is_empty() {
                    vec![0]
                } else {
                    targets.collect()
                };
                targets.into_iter().map(move |v| (u as i64 + 1, v))
            })
            .collect();
        let p = graph(adj.len() as i64, &edges, false);
        let space = StateSpace::enumerate(&p).unwrap();
        let mut target = Bitset::zeros(space.len());
        target.set(0);
        (0..adj.len())
            .map(|u| {
                let mut span = target.clone();
                let mut todo = vec![u];
                while let Some(v) = todo.pop() {
                    if !span.get(v + 1) {
                        span.set(v + 1);
                        todo.extend(adj[v].iter().map(|&w| w as usize));
                    }
                }
                let opts = CheckOptions::serial();
                let report = check_convergence_bits(&space, &p, &span, &target, opts).unwrap();
                report.worst_case_moves
            })
            .collect()
    }

    #[test]
    fn tarjan_handles_multiple_components() {
        // 0 -> 1 -> 0 (SCC {0,1}); 2 -> 3 (two singletons); 4 self-loop.
        let adj = vec![vec![1], vec![0], vec![3], vec![], vec![4]];
        assert_eq!(
            tarjan_of(&adj),
            vec![
                (vec![0, 1], true),
                (vec![3], false),
                (vec![2], false),
                (vec![4], true),
            ]
        );
        assert_eq!(peel_heights(&adj), vec![None, None, Some(2), Some(1), None]);
    }

    #[test]
    fn tarjan_heights_cover_every_edge_kind() {
        // 0 -> 1 -> 2 -> 1 (a cycle fed by a chain) and 0 -> 3 -> 4; then
        // 5 -> 3 crosses into a done singleton, 6 -> 2 into a done cycle;
        // 7 -> 8 -> {9, 7} and 9 -> 8 back-edges two branches into one
        // component.
        let adj = vec![
            vec![1, 3],
            vec![2],
            vec![1],
            vec![4],
            vec![],
            vec![3],
            vec![2],
            vec![8],
            vec![9, 7],
            vec![8],
        ];
        assert_eq!(
            tarjan_of(&adj),
            vec![
                (vec![1, 2], true),
                (vec![4], false),
                (vec![3], false),
                (vec![0], false),
                (vec![5], false),
                (vec![6], false),
                (vec![7, 8, 9], true),
            ]
        );
        let inf = None;
        let (h1, h2, h3) = (Some(1), Some(2), Some(3));
        assert_eq!(
            peel_heights(&adj),
            vec![inf, inf, inf, h2, h1, h3, inf, inf, inf, inf]
        );
    }

    #[test]
    fn tarjan_matches_a_reachability_reference_on_random_graphs() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut self_loops = 0;
        for seed in 0..400u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(1..=24usize);
            let density = rng.gen_range(0.0..0.25);
            let adj: Vec<Vec<u32>> = (0..n)
                .map(|_| (0..n as u32).filter(|_| rng.gen_bool(density)).collect())
                .collect();

            // Reference: `reach[u][v]` iff a path of one or more edges
            // leads from u to v.
            let mut reach = vec![vec![false; n]; n];
            for (u, row) in reach.iter_mut().enumerate() {
                let mut todo = adj[u].clone();
                while let Some(v) = todo.pop() {
                    if !std::mem::replace(&mut row[v as usize], true) {
                        todo.extend(&adj[v as usize]);
                    }
                }
            }
            let cyclic = |u: usize| reach[u][u];
            let mut want: Vec<(Vec<u32>, bool)> = (0..n)
                .map(|u| {
                    let scc = (0..n)
                        .filter(|&v| v == u || (reach[u][v] && reach[v][u]))
                        .map(|v| v as u32)
                        .collect();
                    (scc, cyclic(u))
                })
                .collect();
            want.sort();
            want.dedup();

            let sccs = tarjan_of(&adj);
            // Components complete in reverse topological order: every edge
            // out of one leads into it or into one completed before it.
            let mut completed = vec![usize::MAX; n];
            for (k, (scc, _)) in sccs.iter().enumerate() {
                for &u in scc {
                    completed[u as usize] = k;
                }
                let edges = scc.iter().flat_map(|&u| &adj[u as usize]);
                assert!(
                    edges.into_iter().all(|&v| completed[v as usize] <= k),
                    "seed {seed}"
                );
            }
            let mut sorted = sccs.clone();
            sorted.sort();
            assert_eq!(sorted, want, "seed {seed}: {adj:?}");
            self_loops += (0..n).filter(|&u| adj[u].contains(&(u as u32))).count();

            // Heights: the longest path over the condensation, infinite
            // behind any cycle.
            fn height(u: usize, adj: &[Vec<u32>], memo: &mut [Option<u64>]) -> u64 {
                if let Some(h) = memo[u] {
                    return h;
                }
                let below = adj[u].iter().map(|&v| height(v as usize, adj, memo));
                let h = below.max().unwrap_or(0) + 1;
                memo[u] = Some(h);
                h
            }
            let mut memo = vec![None; n];
            let want_heights: Vec<Option<u64>> = (0..n)
                .map(|u| {
                    let infinite = cyclic(u) || (0..n).any(|v| reach[u][v] && cyclic(v));
                    (!infinite).then(|| height(u, &adj, &mut memo))
                })
                .collect();
            assert_eq!(peel_heights(&adj), want_heights, "seed {seed}: {adj:?}");
        }
        assert!(self_loops > 0, "the graphs have self-loops");
    }

    #[test]
    fn fairness_display() {
        assert_eq!(Fairness::Unfair.to_string(), "unfair");
        assert_eq!(Fairness::WeaklyFair.to_string(), "weakly-fair");
    }

    /// A program over `x ∈ 0..=max` with one action per edge `(a, b)`,
    /// enabled at `x = a` and setting `x := b`, plus, with `exit`, one
    /// action enabled at every `x > 0` that sets `x := 0`.
    fn graph(max: i64, edges: &[(i64, i64)], exit: bool) -> Program {
        let mut b = Program::builder("graph");
        let x = b.var("x", Domain::range(0, max));
        for &(from, to) in edges {
            b.convergence_action(
                format!("{from}->{to}"),
                [x],
                [x],
                move |s| s.get(x) == from,
                move |s| s.set(x, to),
            );
        }
        if exit {
            b.convergence_action(
                "exit",
                [x],
                [x],
                move |s| s.get(x) > 0,
                move |s| s.set(x, 0),
            );
        }
        b.build()
    }

    /// The one region pass over `T = x ≤ span` and `S = x ∈ goal`, serially
    /// and with four workers (which must agree), and the state `x = v` of
    /// the space, for witnesses.
    fn region_pass(
        p: &Program,
        span: i64,
        goal: &'static [i64],
    ) -> (ConvergenceReport, impl Fn(usize) -> State) {
        let space = StateSpace::enumerate(p).unwrap();
        let x = p.var_by_name("x").unwrap();
        let t = Predicate::new("T", [x], move |s| s.get(x) <= span);
        let s = Predicate::new("S", [x], move |s| goal.contains(&s.get(x)));
        let serial = check_convergence(&space, p, &t, &s, CheckOptions::serial()).unwrap();
        let par = CheckOptions::default().threads(4);
        assert_eq!(check_convergence(&space, p, &t, &s, par).unwrap(), serial);
        (serial, move |v| space.state(StateId::from_index(v)))
    }

    fn divergence(states: Vec<State>, fairness: Fairness) -> ConvergenceResult {
        ConvergenceResult::Divergence { states, fairness }
    }

    fn stats(region_states: u64, peeled_states: u64, sccs_found: u64) -> ConvergenceStats {
        ConvergenceStats {
            region_states,
            peeled_states,
            sccs_found,
        }
    }

    #[test]
    fn self_loop_singleton_is_residual() {
        // 3 -> 2 -> 1 -> 0 with a self-loop at 2: 2 and 3 can stay in the
        // region forever, 1 cannot. The self-loop is a cyclic singleton; a
        // weakly fair daemon must take 2 -> 1, enabled there.
        let p = graph(3, &[(1, 0), (2, 1), (2, 2), (3, 2)], false);
        let (report, st) = region_pass(&p, 3, &[0]);
        assert_eq!(
            report,
            ConvergenceReport {
                weakly_fair: ConvergenceResult::Converges,
                unfair: divergence(vec![st(2)], Fairness::Unfair),
                worst_case_moves: None,
                stats: stats(3, 1, 2),
            }
        );
    }

    #[test]
    fn chain_into_a_cycle_from_the_lowest_root_is_residual() {
        // The search starts at 1, the lowest region id, and reaches the
        // cycle 3 <-> 4 only through the chain 1 -> 2 -> 3. Both chain
        // states can exit to S, yet each starts an infinite region path.
        let p = graph(4, &[(1, 2), (1, 0), (2, 3), (2, 0), (3, 4), (4, 3)], false);
        let (report, st) = region_pass(&p, 4, &[0]);
        assert_eq!(
            report,
            ConvergenceReport {
                weakly_fair: divergence(vec![st(3), st(4)], Fairness::WeaklyFair),
                unfair: divergence(vec![st(3), st(4)], Fairness::Unfair),
                worst_case_moves: None,
                stats: stats(4, 0, 3),
            }
        );
    }

    #[test]
    fn cross_edge_into_a_completed_cycle_is_residual() {
        // The first root completes the cycle 1 <-> 2. Roots 3 and 4 come
        // later and reach it only by a cross edge into that completed
        // component, so they are infinite too. `exit`, enabled everywhere
        // in the cycle, rescues the weakly fair daemon.
        let p = graph(4, &[(1, 2), (2, 1), (3, 1), (4, 3)], true);
        let (report, st) = region_pass(&p, 4, &[0]);
        assert_eq!(
            report,
            ConvergenceReport {
                weakly_fair: ConvergenceResult::Converges,
                unfair: divergence(vec![st(1), st(2)], Fairness::Unfair),
                worst_case_moves: None,
                stats: stats(4, 0, 3),
            }
        );
    }

    #[test]
    fn back_edge_into_another_branch_joins_its_component() {
        // From 1 the search takes 1 -> 2 first; 2's back edge to 1 leaves
        // it on the stack after its branch returns. The second branch,
        // 1 -> 3, then meets 2 on the stack, so 3 joins {1, 2, 3}.
        let p = graph(3, &[(1, 2), (1, 3), (2, 1), (3, 2)], true);
        let (report, st) = region_pass(&p, 3, &[0]);
        assert_eq!(
            report,
            ConvergenceReport {
                weakly_fair: ConvergenceResult::Converges,
                unfair: divergence(vec![st(1), st(2), st(3)], Fairness::Unfair),
                worst_case_moves: None,
                stats: stats(3, 0, 1),
            }
        );
    }

    #[test]
    fn heights_count_the_exit_step_across_completed_successors() {
        // 4 -> 3 -> 2 -> 1 -> 0 plus the shortcut 4 -> 1. Every root after
        // the first meets only completed successors; the longest path out,
        // from 4, takes four steps.
        let p = graph(4, &[(1, 0), (2, 1), (3, 2), (4, 3), (4, 1)], false);
        let (report, _) = region_pass(&p, 4, &[0]);
        assert_eq!(
            report,
            ConvergenceReport {
                weakly_fair: ConvergenceResult::Converges,
                unfair: ConvergenceResult::Converges,
                worst_case_moves: Some(4),
                stats: stats(4, 4, 0),
            }
        );
    }

    #[test]
    fn lowest_id_event_wins() {
        // T = x ≤ 5. 2 and 4 escape to 6, outside T and S; 3 and 5 are
        // deadlocked. The escape at 2 is the lowest event; with 2 in S the
        // deadlock at 3 is. The region is counted in full either way.
        let p = graph(6, &[(1, 0), (2, 6), (4, 6), (6, 0)], false);
        let (report, st) = region_pass(&p, 5, &[0]);
        let escape = ConvergenceResult::EscapesFaultSpan {
            before: st(2),
            after: st(6),
        };
        assert_eq!(
            report,
            ConvergenceReport {
                weakly_fair: escape.clone(),
                unfair: escape,
                worst_case_moves: None,
                stats: stats(5, 0, 0),
            }
        );
        let (report, st) = region_pass(&p, 5, &[0, 2]);
        let deadlock = ConvergenceResult::DeadlockOutsideTarget { state: st(3) };
        assert_eq!(
            report,
            ConvergenceReport {
                weakly_fair: deadlock.clone(),
                unfair: deadlock,
                worst_case_moves: None,
                stats: stats(4, 0, 0),
            }
        );
    }
}
