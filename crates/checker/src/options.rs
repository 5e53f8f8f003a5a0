//! Tuning knobs for the exhaustive checker, plus the work-stealing pool
//! every pass runs on.
//!
//! All state-space passes (enumeration, closure, convergence, bounds,
//! fault-span) are *embarrassingly parallel over contiguous [`StateId`]
//! ranges*, and all of them go through one scheduler, [`steal_tasks`] /
//! [`steal_find`]: a shared atomic claim counter hands out *task indices*
//! (typically one per segment of the [`SegmentPlan`]) to whichever worker is
//! free, so a skewed task does not idle the rest of the pool. Results are
//! merged **in task order** (`steal_tasks`) or reduced to the lowest-index
//! hit (`steal_find`), so multi-threaded runs return **bit-identical
//! results** to single-threaded runs — including which violation or
//! divergence witness is reported first.
//!
//! [`StateId`]: crate::StateId

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::error::{payload_string, CheckError};

/// Below this many work items a pass runs on the calling thread: spawning
/// workers costs more than the work itself on small spaces.
const PARALLEL_THRESHOLD: usize = 2048;

/// Default [`CheckOptions::memory_budget`]: 8 GiB of resident tables and
/// per-state columns.
///
/// A [`StateSpace`](crate::StateSpace) stores no transition, only its
/// per-action footprint tables (kilobytes), so what the budget bounds is
/// the per-state columns a resident verification holds: 4 bits a state
/// for the `T` and `S` caches and the convergence peel, charged at
/// enumeration. The block tables of the predicate caches, the
/// preservation sweep and the peel are charged when they are built, and
/// are no larger than the footprint tables. The convergence pass's
/// residual analysis is charged as it grows, since the residual's size
/// is known only after the peel. The enumeration charge admits every
/// space `u32` ids can number (2^32 states need 2 GiB of it; 2^28 about
/// 134 MB). The frontier convergence mode stays under the same budget
/// with five bitsets plus one round's row buffer per worker.
pub const DEFAULT_MEMORY_BUDGET: u64 = 8 << 30;

/// Default [`CheckOptions::segment_states`]: 2^22 states per segment.
///
/// A frontier round buffers at most one segment's rows per worker, so at
/// the default size even transition-dense protocols keep each row buffer
/// in the low hundreds of MiB.
pub const DEFAULT_SEGMENT_STATES: usize = 1 << 22;

/// Options shared by all checker passes.
///
/// The default is `threads: 0` (auto-detect the available parallelism), the
/// [default memory budget](DEFAULT_MEMORY_BUDGET), and automatic
/// [segment sizing](DEFAULT_SEGMENT_STATES). Spaces smaller than a few
/// thousand states always run single-threaded regardless of `threads`, so
/// the knob is free for small programs.
///
/// ```
/// use nonmask_checker::{CheckOptions, StateSpace};
/// use nonmask_program::{Domain, Program};
///
/// let mut b = Program::builder("two-bools");
/// b.var("a", Domain::Bool);
/// b.var("b", Domain::Bool);
/// let p = b.build();
/// let space = StateSpace::enumerate_with_options(&p, CheckOptions::default().threads(4))?;
/// assert_eq!(space.len(), 4);
/// # Ok::<(), nonmask_checker::CheckError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckOptions {
    /// Number of worker threads; `0` means auto-detect via
    /// [`std::thread::available_parallelism`]. Results are identical for
    /// every value — only wall-clock time changes.
    pub threads: usize,
    /// Maximum resident bytes a pass may allocate: for monolithic
    /// enumeration the footprint tables plus the per-state columns every
    /// resident verification holds (4 bits a state); for the block
    /// sweeps their block tables; for the convergence pass's residual
    /// analysis what it builds; for the frontier convergence
    /// mode its bitsets plus the row buffers of one round. A pass fails
    /// with [`CheckError::BudgetExceeded`] — naming the phase that tripped —
    /// before the big allocations happen.
    pub memory_budget: u64,
    /// States per segment, the unit of work of every parallel sweep; `0`
    /// means auto ([`DEFAULT_SEGMENT_STATES`], shrunk so small spaces
    /// still split into one task per worker). Any positive value is honored
    /// exactly, whether or not it divides the state count; results are
    /// identical for every value.
    pub segment_states: usize,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            threads: 0,
            memory_budget: DEFAULT_MEMORY_BUDGET,
            segment_states: 0,
        }
    }
}

impl CheckOptions {
    /// Options pinned to a single worker thread.
    pub fn serial() -> Self {
        CheckOptions::default().threads(1)
    }

    /// Set the number of worker threads (`0` = auto-detect).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Set the resident-memory budget (bytes).
    pub fn memory_budget(mut self, bytes: u64) -> Self {
        self.memory_budget = bytes;
        self
    }

    /// Set the segment size (states per segment) of parallel sweeps
    /// (`0` = auto).
    pub fn segment_states(mut self, states: usize) -> Self {
        self.segment_states = states;
        self
    }

    /// Resolve the worker count for a pass over `work_items` items.
    pub(crate) fn workers_for(&self, work_items: usize) -> usize {
        if work_items < PARALLEL_THRESHOLD {
            return 1;
        }
        let requested = if self.threads == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZero::get)
                .unwrap_or(1)
        } else {
            self.threads
        };
        requested.clamp(1, work_items)
    }

    /// The segment plan for a space of `len` states under these options.
    ///
    /// With `segment_states == 0` the size is [`DEFAULT_SEGMENT_STATES`],
    /// shrunk (never below the serial-pass threshold) so that `len` splits
    /// into at least `4 × workers` tasks and the work-stealing pool has
    /// slack to balance. An explicit `segment_states` is honored exactly —
    /// the plan never depends on the thread count in that case, which is
    /// what the bit-identity proptests pin down.
    pub fn segment_plan(&self, len: usize) -> SegmentPlan {
        let segment = if self.segment_states == 0 {
            let workers = self.workers_for(len).max(1);
            DEFAULT_SEGMENT_STATES
                .min(len.div_ceil(4 * workers).max(PARALLEL_THRESHOLD))
                .max(1)
        } else {
            self.segment_states
        };
        SegmentPlan { len, segment }
    }
}

/// A partition of `0..len` state ids into contiguous same-size segments
/// (the last may be shorter). Segments are the unit of work for the
/// work-stealing scheduler: task `i` covers
/// [`range(i)`](SegmentPlan::range).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentPlan {
    len: usize,
    segment: usize,
}

impl SegmentPlan {
    /// Total states covered by the plan.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the plan covers no states.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// States per segment (the last segment may hold fewer).
    pub fn segment_states(&self) -> usize {
        self.segment
    }

    /// Number of segments (0 when the plan is empty).
    pub fn count(&self) -> usize {
        self.len.div_ceil(self.segment)
    }

    /// The id range of segment `i` (`i < count()`).
    pub fn range(&self, i: usize) -> Range<usize> {
        let start = i * self.segment;
        start..(start + self.segment).min(self.len)
    }
}

/// Run `f(0), f(1), …, f(tasks-1)` under a work-stealing pool of `workers`
/// threads and return all results **in task order**.
///
/// Scheduling: a shared [`AtomicUsize`] claim counter hands out the next
/// unclaimed task index to whichever worker finishes first, so skewed task
/// costs (a transition-dense segment, a cache-cold range) no longer idle
/// the rest of the pool the way a static per-worker split does. Which
/// worker runs which task is nondeterministic; the *returned vector* is
/// not — slot `i` always holds `f(i)`.
///
/// # Errors
///
/// A panic inside any `f(i)` is caught (serial path) or joined (worker
/// path) and surfaced as [`CheckError::WorkerFailed`]; all workers are
/// joined before the error returns.
pub fn steal_tasks<T, F>(tasks: usize, workers: usize, f: F) -> Result<Vec<T>, CheckError>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if workers <= 1 || tasks <= 1 {
        return (0..tasks).map(|i| catching(|| f(i))).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..tasks).map(|_| Mutex::new(None)).collect();
    run_workers(workers.min(tasks), || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= tasks {
            return;
        }
        let out = f(i);
        *slots[i].lock().unwrap() = Some(out);
    })?;
    Ok(slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("every task ran to completion")
        })
        .collect())
}

/// Run `f` on the calling thread, returning a panic as
/// [`CheckError::WorkerFailed`].
pub(crate) fn catching<T>(f: impl FnOnce() -> T) -> Result<T, CheckError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|p| {
        CheckError::WorkerFailed {
            payload: payload_string(p),
        }
    })
}

/// Run `worker` on `workers` scoped threads and join every one of them
/// before reporting the first panic as [`CheckError::WorkerFailed`]: a
/// handle left unjoined would make the scope re-raise its panic.
fn run_workers(workers: usize, worker: impl Fn() + Sync) -> Result<(), CheckError> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(&worker)).collect();
        let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        joined.into_iter().try_for_each(|r| {
            r.map_err(|p| CheckError::WorkerFailed {
                payload: payload_string(p),
            })
        })
    })
}

/// Work-stealing search: run `f` over task indices until the hit with the
/// **lowest task index** is known, then stop claiming further work.
///
/// Equivalent to `(0..tasks).find_map(f)` — the early-exit flag is a
/// shared "lowest hit so far" watermark (`fetch_min`): because the claim
/// counter hands out indices in ascending order, once some worker hits at
/// task `i` no unclaimed task below `i` exists, so remaining workers only
/// need to finish tasks already in flight and can drop everything above
/// the watermark. The final reduction takes the minimum-index hit, which
/// makes the result independent of worker count and interleaving.
///
/// # Errors
///
/// [`CheckError::WorkerFailed`] if any `f(i)` panics.
pub fn steal_find<T, F>(tasks: usize, workers: usize, f: F) -> Result<Option<T>, CheckError>
where
    T: Send,
    F: Fn(usize) -> Option<T> + Sync,
{
    if workers <= 1 || tasks <= 1 {
        for i in 0..tasks {
            let out = catching(|| f(i))?;
            if out.is_some() {
                return Ok(out);
            }
        }
        return Ok(None);
    }
    let next = AtomicUsize::new(0);
    let best = AtomicUsize::new(usize::MAX);
    let hits: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::new());
    run_workers(workers.min(tasks), || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= tasks || i > best.load(Ordering::Acquire) {
            return;
        }
        if let Some(out) = f(i) {
            best.fetch_min(i, Ordering::AcqRel);
            hits.lock().unwrap().push((i, out));
            return;
        }
    })?;
    let mut found = hits.into_inner().unwrap();
    found.sort_by_key(|&(i, _)| i);
    Ok(found.into_iter().map(|(_, out)| out).next())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_work_is_serial() {
        let opts = CheckOptions::default().threads(8);
        assert_eq!(opts.workers_for(10), 1);
        assert_eq!(opts.workers_for(1_000_000), 8);
    }

    #[test]
    fn worker_count_clamped_to_work() {
        let opts = CheckOptions::default().threads(1_000_000);
        assert!(opts.workers_for(PARALLEL_THRESHOLD) <= PARALLEL_THRESHOLD);
    }

    #[test]
    fn builder_style() {
        let o = CheckOptions::serial()
            .memory_budget(1 << 20)
            .segment_states(4096);
        assert_eq!(o.threads, 1);
        assert_eq!(o.memory_budget, 1 << 20);
        assert_eq!(o.segment_states, 4096);
        assert_eq!(CheckOptions::default().threads, 0);
        assert_eq!(CheckOptions::default().memory_budget, DEFAULT_MEMORY_BUDGET);
        assert_eq!(CheckOptions::default().segment_states, 0);
    }

    #[test]
    fn segment_plan_tiles_the_space() {
        for (len, seg) in [(0, 64), (1, 64), (100, 64), (4096, 4096), (10_000, 4097)] {
            let plan = CheckOptions::default()
                .segment_states(seg)
                .segment_plan(len);
            assert_eq!(plan.len(), len);
            assert_eq!(plan.segment_states(), seg);
            assert_eq!(plan.count(), len.div_ceil(seg));
            let mut next = 0;
            for i in 0..plan.count() {
                let r = plan.range(i);
                assert_eq!(r.start, next);
                assert!(!r.is_empty());
                next = r.end;
            }
            assert_eq!(next, len, "len={len} seg={seg}");
        }
        // Auto sizing keeps at least PARALLEL_THRESHOLD states per segment
        // and never exceeds the default.
        let auto = CheckOptions::serial().segment_plan(1 << 24);
        assert!(auto.segment_states() >= PARALLEL_THRESHOLD);
        assert!(auto.segment_states() <= DEFAULT_SEGMENT_STATES);
    }

    #[test]
    fn steal_tasks_results_are_in_task_order() {
        for workers in [1, 2, 3, 8] {
            let out = steal_tasks(37, workers, |i| i * i).unwrap();
            let expect: Vec<usize> = (0..37).map(|i| i * i).collect();
            assert_eq!(out, expect, "workers={workers}");
        }
        assert!(steal_tasks(0, 4, |i| i).unwrap().is_empty());
    }

    #[test]
    fn steal_tasks_panic_is_a_typed_error() {
        for workers in [1, 4] {
            let err = steal_tasks(16, workers, |i| {
                if i == 11 {
                    panic!("poisoned task {i}");
                }
                i
            })
            .unwrap_err();
            assert!(
                matches!(err, CheckError::WorkerFailed { ref payload }
                    if payload.contains("poisoned task 11")),
                "workers={workers}: got {err:?}"
            );
            assert!(err.to_string().contains("checker worker panicked"));
        }
    }

    #[test]
    fn steal_find_returns_lowest_index_hit() {
        for workers in [1, 2, 8] {
            // Hits at 5 and 9; the sequential semantics demand 5.
            let out = steal_find(16, workers, |i| (i == 5 || i == 9).then_some(i)).unwrap();
            assert_eq!(out, Some(5), "workers={workers}");
            assert_eq!(steal_find(16, workers, |_| None::<usize>).unwrap(), None);
        }
    }

    #[test]
    fn steal_find_panic_is_a_typed_error() {
        for workers in [1, 8] {
            let err = steal_find(64, workers, |i| {
                if i == 63 {
                    panic!("poisoned probe");
                }
                None::<usize>
            })
            .unwrap_err();
            assert!(
                matches!(err, CheckError::WorkerFailed { .. }),
                "workers={workers}: got {err:?}"
            );
        }
    }
}
