//! Frontier convergence: the out-of-core convergence check.
//!
//! [`check_convergence`](crate::convergence::check_convergence)
//! runs over a resident [`StateSpace`](crate::StateSpace), whose
//! enumeration charges the per-state columns of a whole verification
//! against the memory budget. This module answers the same
//! question — does every computation from `T` reach `S`? — from a bare
//! [`SpaceIndex`] and the program's per-action
//! [footprint tables](crate::footprint), built and audited as
//! enumeration builds them: rows come from a [`TableRows`] reader over
//! the tables, segment by segment, and the only O(states) residency is
//! five bitsets (the two predicate caches, the region, the `resolved`
//! frontier and one round's deltas), under a byte per state. The
//! [`Decoder`](crate::Decoder), which evaluates every guard at every row,
//! is the reference the tables are tested against, not a row source here.
//!
//! Unlike enumeration, the table build does not reject a domain escape:
//! the tables keep every escaping entry, and a row raises one only when
//! it is read. The frontier reads the rows of region states alone, so an
//! action that escapes only outside the region does not fail the check.
//!
//! # Algorithm
//!
//! A region state is *resolved* (cannot stay in the region forever)
//! exactly when **all** of its internal successors are resolved; the
//! monolithic checker finds the same set as the states its block peel
//! removes. The frontier mode computes the fixpoint in
//! rounds. Each round, work-stealing workers sweep the
//! [segment plan](crate::CheckOptions::segment_plan): a worker buffers the
//! internal-successor rows of its segment's still-unresolved region states
//! (a throwaway compressed row buffer, dropped at segment end), then runs an in-segment
//! fixpoint against the shared immutable `resolved` set plus its own local
//! delta bits — so resolution chains *within* a segment collapse in one
//! round. Per-segment deltas are OR-merged after the round (OR is
//! commutative and associative, so the overlapping boundary words of
//! adjacent segments merge identically in any order). Rounds repeat until
//! no state resolves; what remains unresolved is exactly the monolithic
//! peel's residual.
//!
//! Round 1 doubles as the deadlock/escape sweep (every region state is
//! unresolved then, so every row is examined): the lowest-id event wins,
//! matching the monolithic witness. The residual — typically tiny, and
//! empty whenever the program converges — then goes through the resident
//! checker's own residual analysis (Tarjan and fair-admissibility), fed
//! table rows, so SCC order and witnesses are identical.
//!
//! # Determinism
//!
//! The resolved fixpoint is monotone, so its final value — and therefore
//! the verdict and every witness — is independent of thread count, segment
//! size, and claim order. With an explicit
//! [`segment_states`](crate::CheckOptions::segment_states) the per-round
//! journal events are invariant across thread counts too (the auto plan
//! sizes segments by worker count, which may change round boundaries but
//! never the verdict).

use nonmask_obs::{Event, Journal};
use nonmask_program::{Predicate, Program};

use crate::cache::Bitset;
use crate::convergence::{analyze_residual, Charge, ConvergenceResult, ConvergenceStats, Fairness};
use crate::error::CheckError;
use crate::footprint::{ActionPlan, ActionTables};
use crate::options::{steal_tasks, CheckOptions};
use crate::space::{scratch_bytes, SpaceIndex, StateId, TableRows, Transitions};
use crate::successors::Successors;

/// Table rows whose escapes are [`CheckError::EscapedDomain`] errors: the
/// frontier's tables keep the escapes of every state, and only those of
/// the region states it reads are raised.
struct Rows<'a> {
    table: TableRows<'a>,
    program: &'a Program,
    index: &'a SpaceIndex,
}

impl<'a> Rows<'a> {
    fn new(program: &'a Program, index: &'a SpaceIndex, tables: &'a ActionTables) -> Self {
        Rows {
            table: TableRows::new(index, tables),
            program,
            index,
        }
    }
}

impl Successors for Rows<'_> {
    fn row(&mut self, id: StateId) -> Result<Transitions<'_>, CheckError> {
        let (program, index) = (self.program, self.index);
        self.table
            .try_transitions(id)
            .map_err(|(a, v)| CheckError::escaped(program, index, a, v))
    }
}

/// Work and progress counters for one frontier convergence pass, wrapping
/// the monolithic [`ConvergenceStats`] so results stay comparable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontierStats {
    /// The monolithic-compatible sizes: region, peeled (= resolved at the
    /// fixpoint), residual SCCs.
    pub convergence: ConvergenceStats,
    /// Fixpoint rounds executed (0 when the region is empty).
    pub rounds: u64,
    /// Successor evaluations across all rounds — the frontier's unit of
    /// work, typically a small multiple of the region size.
    pub evals: u64,
}

/// [`check_convergence`](crate::convergence::check_convergence) for one
/// daemon without a resident transition relation: the same verdict,
/// witness and [`ConvergenceStats`], plus the frontier's own
/// [`FrontierStats`]. Journals one [`Event::Segment`] (phase
/// `"frontier-round"`) per round with the states resolved and successor
/// evaluations, plus a final [`Event::Wave`] with the stats.
///
/// # Errors
///
/// [`CheckError`] for unbounded/too-large programs, budget violations,
/// domain escapes at region states (an escape elsewhere is never read),
/// or worker panics; [`CheckError::UndeclaredVariable`] when the audit of
/// the action tables finds a guard or effect depending on an undeclared
/// variable, as for [`StateSpace::enumerate`](crate::StateSpace::enumerate).
pub fn check_convergence_frontier_stats(
    program: &Program,
    from: &Predicate,
    to: &Predicate,
    fairness: Fairness,
    options: CheckOptions,
    journal: &Journal,
) -> Result<(ConvergenceResult, FrontierStats), CheckError> {
    let index = SpaceIndex::of_program(program, options)?;
    let (tables, _) = ActionTables::build(program, &index, ActionPlan::of(program, &index))?;
    let [from_bits, to_bits] = Bitset::for_predicates(&index, &[from, to], options)?
        .try_into()
        .expect("two predicates, two caches");
    let mut stats = FrontierStats::default();
    let n = index.len();
    let region = from_bits.and(&to_bits.not());
    stats.convergence.region_states = region.count_ones() as u64;
    let emit_wave = |stats: &FrontierStats| {
        journal.emit_with(|| Event::Wave {
            fairness: fairness.to_string(),
            region: stats.convergence.region_states,
            peeled: stats.convergence.peeled_states,
            sccs: stats.convergence.sccs_found,
        });
    };
    if stats.convergence.region_states == 0 {
        emit_wave(&stats);
        return Ok((ConvergenceResult::Converges, stats));
    }

    let plan = options.segment_plan(n);
    let workers = options.workers_for(n);
    let nv = index.var_count();
    // Frontier residency floor: five full-range bitsets — from, to,
    // region, resolved, and the round's per-segment deltas, which together
    // span the range and stay resident until the merge — plus the action
    // tables and per-worker row scratch. Checked before the rounds
    // allocate anything; per-round row buffers are accounted after each
    // round, when their actual size is known.
    let resident = 5 * (n.div_ceil(64) as u64 * 8) + tables.bytes() as u64;
    let floor = resident + scratch_bytes(2 * workers as u64, nv);
    if floor > options.memory_budget {
        return Err(CheckError::BudgetExceeded {
            required: floor,
            budget: options.memory_budget,
            phase: "frontier bitsets",
        });
    }

    let mut resolved = Bitset::zeros(n);

    /// The lowest-id offending observation of the round-1 sweep, in the
    /// same precedence a sequential row scan has: the first offending
    /// successor (in action order) of the lowest offending state.
    enum RegionEvent {
        Deadlock,
        FaultEscape { after: StateId },
        DomainEscape(CheckError),
    }
    struct SegDelta {
        word_start: usize,
        delta: Vec<u64>,
        newly: u64,
        evals: u64,
        row_bytes: u64,
        event: Option<(usize, RegionEvent)>,
    }

    let mut round: u64 = 0;
    loop {
        round += 1;
        let resolved_ref = &resolved;
        let region_ref = &region;
        let results: Vec<SegDelta> = steal_tasks(plan.count(), workers, |ti| {
            let range = plan.range(ti);
            let word_start = range.start / 64;
            let word_end = range.end.div_ceil(64);
            let mut delta = vec![0u64; word_end - word_start];
            let mut rows = Rows::new(program, &index, &tables);
            // Buffered rows of this segment's unresolved region states:
            // global state id + the internal successors, in action order.
            let mut row_states: Vec<u32> = Vec::new();
            let mut row_offsets: Vec<u32> = vec![0];
            let mut row_succs: Vec<u32> = Vec::new();
            let mut evals = 0u64;
            let mut event: Option<(usize, RegionEvent)> = None;
            'states: for i in range.clone() {
                if !region_ref.get(i) || resolved_ref.get(i) {
                    continue;
                }
                let row = match rows.row(StateId::from_index(i)) {
                    Ok(row) if row.is_empty() => {
                        event = Some((i, RegionEvent::Deadlock));
                        break;
                    }
                    Ok(row) => row,
                    Err(e) => {
                        event = Some((i, RegionEvent::DomainEscape(e)));
                        break;
                    }
                };
                for &t in row.succs() {
                    evals += 1;
                    if to_bits.contains(t) {
                        continue; // exits into S: not an internal edge
                    }
                    if !from_bits.contains(t) {
                        event = Some((i, RegionEvent::FaultEscape { after: t }));
                        break 'states;
                    }
                    row_succs.push(t.index() as u32);
                }
                row_states.push(i as u32);
                row_offsets.push(row_succs.len() as u32);
            }
            let row_bytes = 4 * (row_states.len() + row_offsets.len() + row_succs.len()) as u64;
            let mut newly = 0u64;
            if event.is_none() {
                // In-segment fixpoint: a buffered state resolves when all
                // its internal successors are resolved — in the shared set
                // (previous rounds) or in this segment's own delta.
                let is_resolved = |t: usize, delta: &[u64]| -> bool {
                    let w = t / 64;
                    if w >= word_start
                        && w < word_end
                        && delta[w - word_start] & (1 << (t % 64)) != 0
                    {
                        return true;
                    }
                    resolved_ref.get(t)
                };
                loop {
                    let mut changed = false;
                    for (k, &s) in row_states.iter().enumerate() {
                        let s = s as usize;
                        if delta[s / 64 - word_start] & (1 << (s % 64)) != 0 {
                            continue;
                        }
                        let (lo, hi) = (row_offsets[k] as usize, row_offsets[k + 1] as usize);
                        if row_succs[lo..hi]
                            .iter()
                            .all(|&t| is_resolved(t as usize, &delta))
                        {
                            delta[s / 64 - word_start] |= 1 << (s % 64);
                            newly += 1;
                            changed = true;
                        }
                    }
                    if !changed {
                        break;
                    }
                }
            }
            SegDelta {
                word_start,
                delta,
                newly,
                evals,
                row_bytes,
                event,
            }
        })?;

        let round_evals: u64 = results.iter().map(|r| r.evals).sum();
        stats.evals += round_evals;
        stats.rounds = round;

        // Round-1 events: the results are in segment order and each
        // segment reports its first event, so the first Some is the
        // lowest-id witness — exactly the sequential one.
        if let Some((i, ev)) = results.iter().find_map(|r| r.event.as_ref()) {
            let before = index.state(StateId::from_index(*i));
            let result = match ev {
                RegionEvent::Deadlock => ConvergenceResult::DeadlockOutsideTarget { state: before },
                RegionEvent::FaultEscape { after } => ConvergenceResult::EscapesFaultSpan {
                    before,
                    after: index.state(*after),
                },
                RegionEvent::DomainEscape(e) => return Err(e.clone()),
            };
            emit_wave(&stats);
            return Ok((result, stats));
        }

        // Budget: the concurrent residency this round actually was —
        // bitsets and tables plus one row buffer per worker (post-hoc,
        // once the buffers' sizes are known).
        let peak_rows = results.iter().map(|r| r.row_bytes).max().unwrap_or(0);
        let required =
            resident + workers as u64 * peak_rows + scratch_bytes(2 * workers as u64, nv);
        if required > options.memory_budget {
            return Err(CheckError::BudgetExceeded {
                required,
                budget: options.memory_budget,
                phase: "frontier rows",
            });
        }

        let round_newly: u64 = results.iter().map(|r| r.newly).sum();
        journal.emit_with(|| Event::Segment {
            phase: "frontier-round".to_string(),
            index: round,
            states: round_newly,
            transitions: round_evals,
        });
        if round_newly == 0 {
            break; // fixpoint: the unresolved remainder is the residual
        }
        for r in &results {
            resolved.or_words(r.word_start, &r.delta);
        }
    }

    let residual = region.and(&resolved.not());
    stats.convergence.peeled_states =
        stats.convergence.region_states - residual.count_ones() as u64;
    let mut rows = Rows::new(program, &index, &tables);
    // The floor's five bitsets are now `from`, `to`, the region, the
    // resolved states and the residual.
    let charge = Charge::new(resident, options.memory_budget);
    let found = analyze_residual(&mut rows, program, &index, &residual, fairness, charge)?;
    stats.evals += found.evals;
    stats.convergence.sccs_found = found.sccs_found;
    emit_wave(&stats);
    Ok((found.result, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convergence::check_convergence;
    use crate::space::StateSpace;
    use nonmask_program::Domain;

    fn pred_eq(p: &Program, name: &str, var: &str, value: i64) -> Predicate {
        let v = p.var_by_name(var).unwrap();
        Predicate::new(name, [v], move |s| s.get(v) == value)
    }

    /// The frontier verdict alone, with a disabled journal.
    fn frontier(
        p: &Program,
        from: &Predicate,
        to: &Predicate,
        fairness: Fairness,
        opts: CheckOptions,
    ) -> Result<ConvergenceResult, CheckError> {
        check_convergence_frontier_stats(p, from, to, fairness, opts, &Journal::disabled())
            .map(|(result, _)| result)
    }

    /// A program whose region mixes chains, deadlocks, or cycles depending
    /// on the knobs, used to diff frontier against monolithic.
    fn countdown(max: i64, floor: i64) -> Program {
        let mut b = Program::builder("down");
        let x = b.var("x", Domain::range(0, max));
        b.convergence_action(
            "dec",
            [x],
            [x],
            move |s| s.get(x) > floor,
            move |s| {
                let v = s.get(x);
                s.set(x, v - 1);
            },
        );
        b.build()
    }

    fn check_both(
        p: &Program,
        from: &Predicate,
        to: &Predicate,
        fairness: Fairness,
        opts: CheckOptions,
    ) -> (ConvergenceResult, ConvergenceResult) {
        let space = StateSpace::enumerate_with_options(p, opts).unwrap();
        let mono = check_convergence(&space, p, from, to, opts).unwrap();
        let mono = mono.verdict(fairness).clone();
        let front = frontier(p, from, to, fairness, opts).unwrap();
        (mono, front)
    }

    #[test]
    fn converging_chain_matches_monolithic() {
        let p = countdown(4999, 0);
        let s = pred_eq(&p, "x=0", "x", 0);
        for threads in [1, 2, 8] {
            for seg in [512, 1000, 4096] {
                let opts = CheckOptions::default().threads(threads).segment_states(seg);
                let (mono, front) = check_both(
                    &p,
                    &Predicate::always_true(),
                    &s,
                    Fairness::WeaklyFair,
                    opts,
                );
                assert_eq!(mono, front, "threads={threads} seg={seg}");
                assert!(front.converges());
            }
        }
    }

    #[test]
    fn deadlock_witness_matches_monolithic() {
        // floor=1: x=1 deadlocks outside the target x=0.
        let p = countdown(4999, 1);
        let s = pred_eq(&p, "x=0", "x", 0);
        for threads in [1, 2, 8] {
            let opts = CheckOptions::default().threads(threads).segment_states(777);
            let (mono, front) = check_both(
                &p,
                &Predicate::always_true(),
                &s,
                Fairness::WeaklyFair,
                opts,
            );
            assert_eq!(mono, front, "threads={threads}");
            assert!(
                matches!(front, ConvergenceResult::DeadlockOutsideTarget { ref state } if state.slots() == [1])
            );
        }
    }

    #[test]
    fn escape_witness_matches_monolithic() {
        // T = x<=1, but `jump` at x=1 lands at x=2 outside S ∪ T.
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
        let s = pred_eq(&p, "x=0", "x", 0);
        let x_id = p.var_by_name("x").unwrap();
        let t = Predicate::new("x<=1", [x_id], move |st| st.get(x_id) <= 1);
        let (mono, front) = check_both(&p, &t, &s, Fairness::WeaklyFair, CheckOptions::default());
        assert_eq!(mono, front);
        assert!(matches!(front, ConvergenceResult::EscapesFaultSpan { .. }));
    }

    #[test]
    fn divergence_witness_matches_monolithic() {
        // Spin cycles everywhere in the region plus exits: unfair diverges
        // with a 2-state SCC, weak fairness rescues. Witness content must
        // match the monolithic checker's exactly.
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
        let s = pred_eq(&p, "x=0", "x", 0);
        for fairness in [Fairness::Unfair, Fairness::WeaklyFair] {
            for threads in [1, 8] {
                let opts = CheckOptions::default().threads(threads).segment_states(900);
                let (mono, front) = check_both(&p, &Predicate::always_true(), &s, fairness, opts);
                assert_eq!(mono, front, "fairness={fairness} threads={threads}");
            }
        }
    }

    #[test]
    fn fair_divergence_detected() {
        // The only region action cycles within it: even fair computations
        // diverge, and the frontier's on-demand admissibility test must say
        // so.
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
        let s = Predicate::new("x", [x], move |st| st.get_bool(x));
        let (mono, front) = check_both(
            &p,
            &Predicate::always_true(),
            &s,
            Fairness::WeaklyFair,
            CheckOptions::default(),
        );
        assert_eq!(mono, front);
        assert!(matches!(
            front,
            ConvergenceResult::Divergence {
                fairness: Fairness::WeaklyFair,
                ..
            }
        ));
    }

    #[test]
    fn stats_match_monolithic_and_rounds_are_journaled() {
        let p = countdown(4999, 0);
        let s = pred_eq(&p, "x=0", "x", 0);
        let opts = CheckOptions::default().segment_states(1000);
        let space = StateSpace::enumerate_with_options(&p, opts).unwrap();
        let mono_stats = check_convergence(&space, &p, &Predicate::always_true(), &s, opts)
            .unwrap()
            .stats;
        let (journal, buffer) = Journal::memory();
        let (result, stats) = check_convergence_frontier_stats(
            &p,
            &Predicate::always_true(),
            &s,
            Fairness::WeaklyFair,
            opts,
            &journal,
        )
        .unwrap();
        assert!(result.converges());
        assert_eq!(stats.convergence, mono_stats);
        assert!(stats.rounds >= 1);
        assert!(stats.evals >= stats.convergence.region_states);
        journal.flush();
        let events: Vec<Event> = buffer
            .contents()
            .lines()
            .map(|l| Event::parse_line(l).unwrap().event)
            .collect();
        let rounds = events
            .iter()
            .filter(|e| matches!(e, Event::Segment { phase, .. } if phase == "frontier-round"))
            .count() as u64;
        assert_eq!(rounds, stats.rounds);
        assert!(
            matches!(events.last(), Some(Event::Wave { region, peeled, .. })
                if *region == stats.convergence.region_states
                    && *peeled == stats.convergence.peeled_states),
            "the final Wave mirrors the stats"
        );
    }

    #[test]
    fn frontier_budget_floor_is_enforced() {
        let p = countdown(99_999, 0);
        let s = pred_eq(&p, "x=0", "x", 0);
        let err = frontier(
            &p,
            &Predicate::always_true(),
            &s,
            Fairness::WeaklyFair,
            CheckOptions::default().memory_budget(1024),
        )
        .unwrap_err();
        let CheckError::BudgetExceeded { phase, .. } = err else {
            panic!("expected BudgetExceeded, got {err:?}");
        };
        assert_eq!(phase, "frontier bitsets");
    }

    /// Heap bytes of `p`'s action tables, as the frontier's floor
    /// charges them.
    fn table_bytes(p: &Program) -> u64 {
        let index = SpaceIndex::of_program(p, CheckOptions::default()).unwrap();
        let plan = ActionPlan::of(p, &index);
        ActionTables::build(p, &index, plan).unwrap().0.bytes() as u64
    }

    #[test]
    fn frontier_budget_counts_the_round_deltas() {
        // A round's per-segment deltas add up to a fifth full-range bitset
        // held until the merge: a budget that fits four bitsets but not
        // five must trip at the floor, before any round runs.
        let p = countdown(99_999, 0);
        let s = pred_eq(&p, "x=0", "x", 0);
        let bitset = 100_000u64.div_ceil(64) * 8;
        let scratch = scratch_bytes(2, 1) + table_bytes(&p);
        let budget = 4 * bitset + scratch + bitset / 2;
        let err = frontier(
            &p,
            &Predicate::always_true(),
            &s,
            Fairness::WeaklyFair,
            CheckOptions::serial().memory_budget(budget),
        )
        .unwrap_err();
        let CheckError::BudgetExceeded {
            phase, required, ..
        } = err
        else {
            panic!("expected BudgetExceeded, got {err:?}");
        };
        assert_eq!(phase, "frontier bitsets");
        assert_eq!(required, 5 * bitset + scratch);
    }

    #[test]
    fn frontier_budget_counts_one_round_of_row_buffers() {
        // Past the bitset floor, each round checks the floor plus its
        // largest segment row buffer: 4 bytes per buffered state, per
        // offset and per internal successor. A full 25,000-state segment
        // of the countdown buffers 25,000 + 25,001 + 25,000 entries.
        let p = countdown(99_999, 0);
        let s = pred_eq(&p, "x=0", "x", 0);
        let floor = 5 * (100_000u64.div_ceil(64) * 8) + table_bytes(&p) + scratch_bytes(2, 1);
        let rows = 4 * (25_000 + 25_001 + 25_000);
        let opts = CheckOptions::serial().segment_states(25_000);
        let err = frontier(
            &p,
            &Predicate::always_true(),
            &s,
            Fairness::WeaklyFair,
            opts.memory_budget(floor + rows - 1),
        )
        .unwrap_err();
        let CheckError::BudgetExceeded {
            phase, required, ..
        } = err
        else {
            panic!("expected BudgetExceeded, got {err:?}");
        };
        assert_eq!(phase, "frontier rows");
        assert_eq!(required, floor + rows);
        let fits = frontier(
            &p,
            &Predicate::always_true(),
            &s,
            Fairness::WeaklyFair,
            opts.memory_budget(floor + rows),
        )
        .unwrap();
        assert!(fits.converges());
    }

    #[test]
    fn domain_escape_is_an_error() {
        let mut b = Program::builder("bad");
        let x = b.var("x", Domain::range(0, 2));
        b.closure_action("overflow", [x], [x], |_| true, move |s| s.set(x, 7));
        let p = b.build();
        let s = pred_eq(&p, "x=0", "x", 0);
        let err = frontier(
            &p,
            &Predicate::always_true(),
            &s,
            Fairness::WeaklyFair,
            CheckOptions::default(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            CheckError::EscapedDomain {
                action: "overflow".into(),
                var: "x".into()
            }
        );
    }

    #[test]
    fn domain_escape_outranks_an_earlier_fault_span_escape_in_its_row() {
        // At x=1, `jump` (action 0) leaves T = x<=1 and `overflow` (action
        // 1) leaves x's domain. The whole row is undefined, so the check
        // fails with the error enumeration raises, not with an
        // EscapesFaultSpan verdict for the first action.
        let mut b = Program::builder("both");
        let x = b.var("x", Domain::range(0, 2));
        b.closure_action(
            "jump",
            [x],
            [x],
            move |s| s.get(x) == 1,
            move |s| s.set(x, 2),
        );
        b.closure_action(
            "overflow",
            [x],
            [x],
            move |s| s.get(x) == 1,
            move |s| s.set(x, 7),
        );
        let p = b.build();
        let s = pred_eq(&p, "x=0", "x", 0);
        let x_id = p.var_by_name("x").unwrap();
        let t = Predicate::new("x<=1", [x_id], move |st| st.get(x_id) <= 1);
        let err = frontier(&p, &t, &s, Fairness::WeaklyFair, CheckOptions::default()).unwrap_err();
        assert_eq!(err, StateSpace::enumerate(&p).unwrap_err());
        assert!(
            matches!(err, CheckError::EscapedDomain { ref action, .. } if action == "overflow")
        );
    }

    #[test]
    fn escapes_only_outside_the_region_still_converge() {
        // `jump` (x: 5,000 values, past the table cap, so evaluated per
        // row) escapes only at x = 4999 and `over` (tabled) only at y = 2,
        // both outside T = x < 4999 ∧ y < 2. The frontier reads region
        // rows only, so the escapes enumeration rejects never show.
        let mut b = Program::builder("outside");
        let x = b.var("x", Domain::range(0, 4999));
        let y = b.var("y", Domain::range(0, 2));
        b.closure_action(
            "jump",
            [x],
            [x],
            move |s| s.get(x) == 4999,
            move |s| s.set(x, 5000),
        );
        b.closure_action(
            "over",
            [y],
            [y],
            move |s| s.get(y) == 2,
            move |s| s.set(y, 3),
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
        assert!(matches!(
            StateSpace::enumerate(&p).unwrap_err(),
            CheckError::EscapedDomain { .. }
        ));
        let t = Predicate::new("T", [x, y], move |st| st.get(x) < 4999 && st.get(y) < 2);
        let s = pred_eq(&p, "x=0", "x", 0);
        for threads in [1, 4] {
            let opts = CheckOptions::default()
                .threads(threads)
                .segment_states(1000);
            let (result, stats) = check_convergence_frontier_stats(
                &p,
                &t,
                &s,
                Fairness::Unfair,
                opts,
                &Journal::disabled(),
            )
            .unwrap();
            assert!(result.converges(), "threads={threads}");
            assert_eq!(
                stats.convergence.region_states,
                2 * 4998,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn per_row_actions_match_the_resident_check() {
        // `dec` reads x (5,000 values), past the table cap, so it is
        // evaluated per row; `drop` (y alone) is tabled. From (x, 1) both
        // move; S = x = 0 ∧ y = 0.
        let mut b = Program::builder("mixed");
        let x = b.var("x", Domain::range(0, 4999));
        let y = b.var("y", Domain::Bool);
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
        b.convergence_action(
            "drop",
            [y],
            [y],
            move |s| s.get_bool(y),
            move |s| s.set(y, 0),
        );
        let p = b.build();
        let s = Predicate::new("S", [x, y], move |st| st.get(x) == 0 && st.get(y) == 0);
        let all = Predicate::always_true();
        for threads in [1, 4] {
            let opts = CheckOptions::default()
                .threads(threads)
                .segment_states(1000);
            let space = StateSpace::enumerate_with_options(&p, opts).unwrap();
            let mono = check_convergence(&space, &p, &all, &s, opts).unwrap();
            for fairness in [Fairness::Unfair, Fairness::WeaklyFair] {
                let (result, stats) = check_convergence_frontier_stats(
                    &p,
                    &all,
                    &s,
                    fairness,
                    opts,
                    &Journal::disabled(),
                )
                .unwrap();
                assert_eq!(&result, mono.verdict(fairness), "threads={threads}");
                assert_eq!(stats.convergence, mono.stats, "threads={threads}");
                // Rounds and evaluations depend on the rows alone, so
                // they are the same whichever source computes the rows.
                assert_eq!(
                    (stats.rounds, stats.evals),
                    (11, 82_498),
                    "threads={threads}"
                );
            }
        }
    }

    #[test]
    fn a_region_escape_is_reported_at_its_lowest_state() {
        // States (x, y), id 3x + y; T = y < 2, S = x = 0. `stray`
        // (tabled) escapes at y = 2, outside the region, from id 2 on;
        // `lift` (tabled) at every (x, 1), first in the region at id 4;
        // `bad` (x: past the table cap, evaluated per row) at (at, y),
        // first at id 3·at. The lowest escaping region state's first
        // escaping action is the error.
        let program = |at: i64| {
            let mut b = Program::builder("escapes");
            let x = b.var("x", Domain::range(0, 4999));
            let y = b.var("y", Domain::range(0, 2));
            b.closure_action(
                "stray",
                [y],
                [y],
                move |s| s.get(y) == 2,
                move |s| s.set(y, 7),
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
            b.closure_action(
                "lift",
                [y],
                [y],
                move |s| s.get(y) == 1,
                move |s| s.set(y, 5),
            );
            b.closure_action(
                "bad",
                [x],
                [x],
                move |s| s.get(x) == at,
                move |s| s.set(x, -1),
            );
            b.build()
        };
        for (at, action, var) in [(1, "bad", "x"), (2, "lift", "y")] {
            let p = program(at);
            let y = p.var_by_name("y").unwrap();
            let t = Predicate::new("y<2", [y], move |st| st.get(y) < 2);
            let s = pred_eq(&p, "x=0", "x", 0);
            for threads in [1, 4] {
                for opts in [
                    CheckOptions::default(),
                    CheckOptions::default().segment_states(1000),
                ] {
                    let err = frontier(&p, &t, &s, Fairness::WeaklyFair, opts.threads(threads))
                        .unwrap_err();
                    assert_eq!(
                        err,
                        CheckError::EscapedDomain {
                            action: action.into(),
                            var: var.into()
                        },
                        "at={at} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn panicking_predicate_is_a_worker_failure() {
        let p = countdown(4999, 0);
        let x = p.var_by_name("x").unwrap();
        let boom = Predicate::new("boom", [x], |_| panic!("predicate exploded"));
        for threads in [1, 4] {
            let opts = CheckOptions::default().threads(threads);
            let err = frontier(
                &p,
                &Predicate::always_true(),
                &boom,
                Fairness::WeaklyFair,
                opts,
            )
            .unwrap_err();
            assert!(
                matches!(err, CheckError::WorkerFailed { ref payload } if payload.contains("predicate exploded")),
                "threads={threads}: {err:?}"
            );
            assert!(
                err.to_string().starts_with("checker worker panicked"),
                "{err}"
            );
        }
    }

    #[test]
    fn segment_boundary_states_round_trip() {
        // Every state on a segment boundary must decode and step
        // identically whether reached from the segment before or after the
        // boundary — i.e. verdicts cannot depend on where the plan cuts.
        let p = countdown(4999, 0);
        let s = pred_eq(&p, "x=0", "x", 0);
        let base = frontier(
            &p,
            &Predicate::always_true(),
            &s,
            Fairness::WeaklyFair,
            CheckOptions::default().segment_states(5000),
        )
        .unwrap();
        // Boundaries at powers of two, at odd primes, and off-by-one from
        // the state count.
        for seg in [64, 127, 4999, 4998, 2500] {
            let r = frontier(
                &p,
                &Predicate::always_true(),
                &s,
                Fairness::WeaklyFair,
                CheckOptions::default().segment_states(seg),
            )
            .unwrap();
            assert_eq!(base, r, "seg={seg}");
        }
    }
}
