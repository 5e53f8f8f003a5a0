//! Segmented out-of-core CSR storage: the transition relation sharded by
//! state-id range into independently built, droppable segments.
//!
//! A monolithic [`StateSpace`](crate::StateSpace) holds `4·(states+1) +
//! 8·transitions` bytes resident for the whole run, which caps the
//! checkable instance size at the memory budget. A [`SegmentedSpace`]
//! instead materializes the relation one [`Segment`] at a time: each
//! segment owns the CSR rows (`offsets`/`actions`/`succs`) of one
//! contiguous id range from the [segment plan](CheckOptions::segment_plan),
//! is built on demand by whichever work-stealing worker claims it, is
//! scanned, and is dropped before the worker claims its next task. Peak
//! residency is `workers × max-segment-bytes` regardless of the total
//! transition count, so full-relation sweeps (closure checks, violation
//! searches) scale to spaces whose monolithic CSR would blow the budget.
//!
//! Determinism matches the monolithic CSR exactly: a segment's rows are
//! the same [`Decoder`] rows the monolithic build copies, in the same
//! (state-ascending, action-ascending) order, and
//! [`scan`](SegmentedSpace::scan) merges per-segment results in segment
//! order — so every thread count, segment size, and claim interleaving
//! reports the identical result and witness.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use nonmask_obs::{Event, Journal};
use nonmask_program::{ActionId, Program};

use crate::options::{steal_tasks, CheckOptions, SegmentPlan};
use crate::space::{scratch_bytes, SpaceError, SpaceIndex, StateId, Transitions};
use crate::successors::{Decoder, Successors};

/// One resident shard of the transition relation: the CSR rows of the
/// contiguous id range [`Segment::range`], with segment-local `offsets`
/// and global-id `actions`/`succs` columns.
#[derive(Debug, Clone)]
pub struct Segment {
    start: usize,
    /// Row bounds local to the segment: state `start + k`'s transitions
    /// are `offsets[k]..offsets[k+1]` in the flat columns.
    offsets: Vec<u32>,
    actions: Vec<ActionId>,
    succs: Vec<StateId>,
}

impl Segment {
    /// Build the segment covering `range` from its decoded rows.
    pub(crate) fn build(
        program: &Program,
        index: &SpaceIndex,
        range: Range<usize>,
    ) -> Result<Segment, SpaceError> {
        let mut rows = Decoder::new(program, index);
        let mut offsets = Vec::with_capacity(range.len() + 1);
        offsets.push(0u32);
        let mut actions = Vec::new();
        let mut succs = Vec::new();
        for i in range.clone() {
            let row = rows.row(StateId::from_index(i))?;
            actions.extend_from_slice(row.actions());
            succs.extend_from_slice(row.succs());
            let total =
                u32::try_from(actions.len()).map_err(|_| SpaceError::TooManyTransitions {
                    count: actions.len() as u64,
                })?;
            offsets.push(total);
        }
        Ok(Segment {
            start: range.start,
            offsets,
            actions,
            succs,
        })
    }

    /// The global id range this segment covers.
    pub fn range(&self) -> Range<usize> {
        self.start..self.start + self.len()
    }

    /// Number of states in the segment.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the segment covers no states.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of transitions in the segment.
    pub fn transition_count(&self) -> usize {
        self.succs.len()
    }

    /// The `(action, successor)` row of global state `id`, in action-id
    /// order — the same view [`StateSpace::successors`] returns for this
    /// id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside [`Segment::range`].
    ///
    /// [`StateSpace::successors`]: crate::StateSpace::successors
    pub fn successors(&self, id: StateId) -> Transitions<'_> {
        let i = id.index();
        assert!(
            self.range().contains(&i),
            "state id {id} outside segment range {:?}",
            self.range()
        );
        let k = i - self.start;
        let (lo, hi) = (self.offsets[k] as usize, self.offsets[k + 1] as usize);
        Transitions::new(&self.actions[lo..hi], &self.succs[lo..hi])
    }

    /// Resident bytes of the segment's three CSR arrays.
    pub fn resident_bytes(&self) -> u64 {
        (self.offsets.len() * std::mem::size_of::<u32>()
            + self.actions.len() * std::mem::size_of::<ActionId>()
            + self.succs.len() * std::mem::size_of::<StateId>()) as u64
    }
}

/// An out-of-core view of a program's transition relation: the
/// [`SpaceIndex`] (O(variables) resident) plus a [`SegmentPlan`], with
/// [`Segment`]s built, scanned, and dropped on demand under the
/// work-stealing scheduler.
#[derive(Debug)]
pub struct SegmentedSpace<'p> {
    program: &'p Program,
    index: SpaceIndex,
    plan: SegmentPlan,
    options: CheckOptions,
    segments_built: AtomicU64,
    peak_segment_bytes: AtomicU64,
}

impl<'p> SegmentedSpace<'p> {
    /// Set up a segmented view of `program`'s state space. Allocates
    /// nothing proportional to the space; segments are built lazily by the
    /// scans.
    ///
    /// # Errors
    ///
    /// [`SpaceError::Unbounded`] / [`SpaceError::TooLarge`] exactly as
    /// [`SpaceIndex::of_program`].
    pub fn new(program: &'p Program, options: CheckOptions) -> Result<Self, SpaceError> {
        let index = SpaceIndex::of_program(program, options)?;
        let plan = options.segment_plan(index.len());
        Ok(SegmentedSpace {
            program,
            index,
            plan,
            options,
            segments_built: AtomicU64::new(0),
            peak_segment_bytes: AtomicU64::new(0),
        })
    }

    /// The program whose relation this view shards.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// The id↔state bijection.
    pub fn index(&self) -> &SpaceIndex {
        &self.index
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the space has no states.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The segment plan scans iterate over.
    pub fn plan(&self) -> SegmentPlan {
        self.plan
    }

    /// Number of segments in the plan.
    pub fn segment_count(&self) -> usize {
        self.plan.count()
    }

    /// Total segments built so far across all scans (for counters; a
    /// segment rebuilt by a later pass counts again).
    pub fn segments_built(&self) -> u64 {
        self.segments_built.load(Ordering::Relaxed)
    }

    /// Largest single-segment residency observed so far, in bytes. Peak
    /// scan residency is bounded by `workers ×` this figure.
    pub fn peak_segment_bytes(&self) -> u64 {
        self.peak_segment_bytes.load(Ordering::Relaxed)
    }

    /// Build segment `ti` of the plan, enforcing the memory budget against
    /// the worst-case concurrent window (`workers × largest-segment-bytes`
    /// plus per-worker decode scratch).
    ///
    /// # Errors
    ///
    /// [`SpaceError::BudgetExceeded`] (phase `"segment build"`) when the
    /// concurrent window exceeds the budget;
    /// [`SpaceError::EscapedDomain`] / [`SpaceError::TooManyTransitions`]
    /// as in monolithic enumeration.
    pub fn build_segment(&self, ti: usize) -> Result<Segment, SpaceError> {
        self.build_range(self.plan.range(ti))
    }

    /// [`build_segment`](SegmentedSpace::build_segment) for any id range.
    pub(crate) fn build_range(&self, range: Range<usize>) -> Result<Segment, SpaceError> {
        let seg = Segment::build(self.program, &self.index, range)?;
        self.segments_built.fetch_add(1, Ordering::Relaxed);
        let bytes = seg.resident_bytes();
        let peak = self
            .peak_segment_bytes
            .fetch_max(bytes, Ordering::Relaxed)
            .max(bytes);
        let workers = self.workers() as u64;
        let required = peak * workers + scratch_bytes(2 * workers, self.index.var_count());
        if required > self.options.memory_budget {
            return Err(SpaceError::BudgetExceeded {
                required,
                budget: self.options.memory_budget,
                phase: "segment build",
            });
        }
        Ok(seg)
    }

    /// Workers a scan runs, the count the budget check assumes.
    pub(crate) fn workers(&self) -> usize {
        self.options.workers_for(self.index.len())
    }

    /// Run `f` over every segment (work-stealing, one resident segment per
    /// worker) and return the per-segment results **in segment order**.
    ///
    /// # Errors
    ///
    /// Build errors ([`SpaceError`]) and panics inside `f`
    /// ([`SpaceError::WorkerFailed`]); the lowest-segment error wins, as in
    /// a sequential sweep.
    pub fn scan<T, F>(&self, f: F) -> Result<Vec<T>, SpaceError>
    where
        T: Send,
        F: Fn(usize, &Segment) -> T + Sync,
    {
        self.scan_journaled(&Journal::disabled(), f)
    }

    /// [`scan`](SegmentedSpace::scan) that additionally records one
    /// [`Event::Segment`] (phase `"scan"`) per segment, in segment order,
    /// with the segment's state and transition counts — so journals are
    /// identical for every thread count.
    ///
    /// # Errors
    ///
    /// Same as [`scan`](SegmentedSpace::scan).
    pub fn scan_journaled<T, F>(&self, journal: &Journal, f: F) -> Result<Vec<T>, SpaceError>
    where
        T: Send,
        F: Fn(usize, &Segment) -> T + Sync,
    {
        let results = steal_tasks(self.plan.count(), self.workers(), |ti| {
            let seg = self.build_segment(ti)?;
            let stats = (seg.len() as u64, seg.transition_count() as u64);
            Ok::<_, SpaceError>((f(ti, &seg), stats))
        })
        .map_err(SpaceError::from)?;
        let mut outs = Vec::with_capacity(results.len());
        for (ti, r) in results.into_iter().enumerate() {
            let (out, (states, transitions)) = r?;
            journal.emit_with(|| Event::Segment {
                phase: "scan".to_string(),
                index: ti as u64,
                states,
                transitions,
            });
            outs.push(out);
        }
        Ok(outs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::StateSpace;
    use nonmask_program::Domain;

    fn counter(max: i64) -> Program {
        let mut b = Program::builder("counter");
        let x = b.var("x", Domain::range(0, max));
        b.closure_action(
            "inc",
            [x],
            [x],
            move |s| s.get(x) < max,
            move |s| {
                let v = s.get(x);
                s.set(x, v + 1);
            },
        );
        b.closure_action(
            "reset",
            [x],
            [x],
            move |s| s.get(x) > 2,
            move |s| s.set(x, 0),
        );
        b.build()
    }

    #[test]
    fn segment_rows_match_monolithic_csr() {
        let p = counter(4999);
        let space = StateSpace::enumerate(&p).unwrap();
        // Segment sizes that do and don't divide the state count.
        for seg_states in [1000, 4096, 64, 5000, 7] {
            let opts = CheckOptions::default().segment_states(seg_states);
            let seg_space = SegmentedSpace::new(&p, opts).unwrap();
            assert_eq!(seg_space.len(), space.len());
            let rows: Vec<Vec<(ActionId, StateId)>> = seg_space
                .scan(|_, seg| {
                    seg.range()
                        .flat_map(|i| seg.successors(StateId::from_index(i)).iter())
                        .collect::<Vec<_>>()
                })
                .unwrap()
                .into_iter()
                .collect();
            let flat: Vec<(ActionId, StateId)> = rows.into_iter().flatten().collect();
            let expect: Vec<(ActionId, StateId)> = space
                .ids()
                .flat_map(|id| space.successors(id).iter())
                .collect();
            assert_eq!(flat, expect, "seg_states={seg_states}");
        }
    }

    #[test]
    fn segment_budget_is_enforced_with_phase() {
        let p = counter(4095);
        let opts = CheckOptions::default()
            .segment_states(512)
            .memory_budget(100);
        let seg_space = SegmentedSpace::new(&p, opts).unwrap();
        let err = seg_space.build_segment(0).unwrap_err();
        let SpaceError::BudgetExceeded {
            required,
            budget,
            phase,
        } = err
        else {
            panic!("expected BudgetExceeded, got {err:?}");
        };
        assert_eq!(budget, 100);
        assert!(required > 100);
        assert_eq!(phase, "segment build");
    }

    #[test]
    fn escaped_domain_reported_from_segments() {
        let mut b = Program::builder("bad");
        let x = b.var("x", Domain::range(0, 2));
        b.closure_action("overflow", [x], [x], |_| true, move |s| s.set(x, 7));
        let p = b.build();
        let seg_space = SegmentedSpace::new(&p, CheckOptions::default()).unwrap();
        let err = seg_space.scan(|_, _| ()).unwrap_err();
        assert_eq!(
            err,
            SpaceError::EscapedDomain {
                action: "overflow".into(),
                var: "x".into()
            }
        );
    }

    #[test]
    fn scan_journal_is_thread_count_invariant() {
        let p = counter(4999);
        let mut journals = Vec::new();
        for threads in [1, 2, 8] {
            let opts = CheckOptions::default()
                .threads(threads)
                .segment_states(1000);
            let seg_space = SegmentedSpace::new(&p, opts).unwrap();
            let (journal, buffer) = Journal::memory();
            let counts = seg_space
                .scan_journaled(&journal, |_, seg| seg.transition_count())
                .unwrap();
            assert_eq!(counts.len(), 5);
            journal.flush();
            // Compare events, not raw bytes: wall-clock `t_us` stamps vary,
            // but the Segment events themselves carry no timing.
            let events: Vec<Event> = buffer
                .contents()
                .lines()
                .map(|l| Event::parse_line(l).unwrap().event)
                .collect();
            journals.push(events);
        }
        assert_eq!(journals[0], journals[1]);
        assert_eq!(journals[0], journals[2]);
        assert_eq!(journals[0].len(), 5, "one Segment event per segment");
        assert!(journals[0]
            .iter()
            .enumerate()
            .all(|(ti, e)| matches!(e, Event::Segment { phase, index, .. }
                if phase == "scan" && *index == ti as u64)));
    }
}
