//! The one block engine of the whole-space passes (the predicate caches,
//! the preservation sweep and the convergence peel), which read a space a
//! block of `P ≤ 64` states at a time (see [`footprint`](crate::footprint)).
//! [`Segments`] splits the blocks among workers, [`or_pattern`] ORs a
//! block's bits into a column that tasks share, and [`BlockSweep`] is the
//! one reader of a space's action tables re-keyed by block.

use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::Relaxed;

use nonmask_program::{Action, State};

use crate::error::CheckError;
use crate::footprint::{join_group, BlockTable, Blocks, Cursor};
use crate::options::{steal_tasks, CheckOptions, SegmentPlan};
use crate::space::{SpaceIndex, StateId, StateSpace};
use crate::successors::successor;

/// The blocks a task reads, ascending, each with the pattern of the
/// states it reads in it.
pub(crate) type TaskBlocks<'b> = dyn Iterator<Item = (usize, u64)> + 'b;

/// The blocks of a space and the segments a sweep splits them into.
pub(crate) struct Segments {
    blocks: Blocks,
    plan: SegmentPlan,
    workers: usize,
}

impl Segments {
    pub(crate) fn of(index: &SpaceIndex, opts: CheckOptions) -> Self {
        Segments {
            blocks: Blocks::of(index),
            plan: opts.segment_plan(index.len()),
            workers: opts.workers_for(index.len()),
        }
    }

    pub(crate) fn blocks(&self) -> &Blocks {
        &self.blocks
    }

    /// Run `task` once per segment, on the blocks that hold a state of
    /// it, each with the pattern of the segment's states in it, and
    /// return the results in segment order. A block's first state lies in
    /// exactly one segment, whose pattern has bit 0 set.
    ///
    /// # Errors
    ///
    /// [`CheckError::WorkerFailed`] if a task panics.
    pub(crate) fn run<T: Send>(
        &self,
        task: impl Fn(&mut TaskBlocks<'_>) -> T + Sync,
    ) -> Result<Vec<T>, CheckError> {
        steal_tasks(self.plan.count(), self.workers, |ti| {
            let range = self.plan.range(ti);
            let ours = |b| (b, self.blocks.in_range(b, &range));
            task(&mut self.blocks.covering(&range).map(ours))
        })
    }

    /// Run `task` on the whole blocks `list` names, ascending, in runs of
    /// a segment's worth of states, and return the results in run order.
    ///
    /// # Errors
    ///
    /// [`CheckError::WorkerFailed`] if a task panics.
    pub(crate) fn run_listed<T: Send>(
        &self,
        list: &[u32],
        task: impl Fn(&mut TaskBlocks<'_>) -> T + Sync,
    ) -> Result<Vec<T>, CheckError> {
        let chunk = self.plan.segment_states().div_ceil(self.blocks.states());
        let full = self.blocks.full();
        steal_tasks(list.len().div_ceil(chunk), self.workers, |i| {
            let run = &list[i * chunk..list.len().min((i + 1) * chunk)];
            task(&mut run.iter().map(|&b| (b as usize, full)))
        })
    }
}

/// OR `pattern`, the bits of the block whose first state is `x0`, into
/// the column `words`, low bit first; `ours` marks the block's states the
/// task reads. A block may straddle two words, and a word two tasks'
/// blocks, so a word takes an atomic OR. A 64-state block that is all the
/// task's own is the one writer of its word, which takes a plain OR.
#[inline]
pub(crate) fn or_pattern(words: &[AtomicU64], x0: usize, pattern: u64, ours: u64) {
    if pattern == 0 {
        return;
    }
    let (w, shift) = (x0 / 64, x0 % 64);
    if ours == u64::MAX {
        words[w].store(words[w].load(Relaxed) | pattern, Relaxed);
        return;
    }
    words[w].fetch_or(pattern << shift, Relaxed);
    if shift != 0 && pattern >> (64 - shift) != 0 {
        words[w + 1].fetch_or(pattern >> (64 - shift), Relaxed);
    }
}

/// A column of `len` zero bits, for [`or_pattern`] to fill.
pub(crate) fn zero_column(len: usize) -> Vec<AtomicU64> {
    (0..len.div_ceil(64)).map(|_| AtomicU64::new(0)).collect()
}

/// A space's action tables re-keyed by block (see
/// [`ActionTables::groups`](crate::footprint::ActionTables::groups)), and
/// the segments a sweep over them splits into.
pub(crate) struct BlockSweep<'a> {
    index: &'a SpaceIndex,
    segments: Segments,
    groups: BlockTable<(i64, u64)>,
    per_row: &'a [(usize, Action)],
    actions: usize,
}

/// One task's cursor over a [`BlockSweep`]'s tables, and its scratch for
/// the actions evaluated per row.
pub(crate) struct BlockReader {
    cursor: Cursor,
    state: State,
    succ: State,
    row_groups: Vec<Vec<(i64, u64)>>,
    /// The successor-id deltas of the per-row groups met since the
    /// reader was made, ascending, or `None` past [`ROW_DELTAS`].
    row_deltas: Option<Vec<i64>>,
}

/// The most successor-id deltas a reader notes from the actions it
/// evaluates per row. It bounds the collection, a sorted insert per new
/// delta; whether the peel lists its blocks is the peel's cost rule's
/// call. A counter's chain has one delta.
const ROW_DELTAS: usize = 64;

impl<'a> BlockSweep<'a> {
    /// The block tables of `space`'s actions.
    ///
    /// # Errors
    ///
    /// [`CheckError::BudgetExceeded`] (phase `"block tables"`) when they
    /// would not fit the memory budget.
    pub(crate) fn new(space: &'a StateSpace, opts: CheckOptions) -> Result<Self, CheckError> {
        let index = space.index();
        let segments = Segments::of(index, opts);
        let groups = space
            .tables()
            .groups(index, segments.blocks(), opts.memory_budget)?;
        Ok(BlockSweep {
            index,
            segments,
            groups,
            per_row: space.tables().per_row(),
            actions: space.action_count(),
        })
    }

    pub(crate) fn segments(&self) -> &Segments {
        &self.segments
    }

    /// States per block, `P`.
    pub(crate) fn width(&self) -> usize {
        self.segments.blocks.states()
    }

    /// Every successor-id delta of the tabled actions and of the per-row
    /// groups `readers` met, ascending, or `None` when they met more than
    /// [`ROW_DELTAS`].
    pub(crate) fn deltas(&self, readers: &[BlockReader]) -> Option<Vec<i64>> {
        let mut met = Vec::new();
        for reader in readers {
            met.extend(reader.row_deltas.as_ref()?);
        }
        met.sort_unstable();
        met.dedup();
        if met.len() > ROW_DELTAS {
            return None;
        }
        met.extend(self.groups.deltas());
        met.sort_unstable();
        met.dedup();
        Some(met)
    }

    pub(crate) fn reader(&self) -> BlockReader {
        BlockReader {
            cursor: self.groups.cursor(&self.segments.blocks),
            state: self.index.scratch_state(),
            succ: self.index.scratch_state(),
            row_groups: vec![Vec::new(); self.per_row.len()],
            row_deltas: Some(Vec::new()),
        }
    }

    /// Every action's `(δ, pattern)` list at block `b`, in action order.
    /// An action evaluated per row is evaluated at the states `live`
    /// marks; a tabled one's patterns are not masked.
    #[inline]
    pub(crate) fn lists<'r>(
        &'r self,
        reader: &'r mut BlockReader,
        b: usize,
        live: u64,
    ) -> impl Iterator<Item = &'r [(i64, u64)]> + 'r {
        self.groups
            .seek(&self.segments.blocks, &mut reader.cursor, b);
        if !self.per_row.is_empty() {
            self.per_row_groups(reader, b, live);
        }
        let (cursor, mut row_groups) = (&reader.cursor, reader.row_groups.iter());
        (0..self.actions).map(move |a| match self.groups.values(cursor, a) {
            Some(list) => list,
            None => row_groups
                .next()
                .expect("one group list per per-row action"),
        })
    }

    /// The groups of the actions evaluated per row at the states `live`
    /// marks of block `b`, into the reader's lists, whose deltas the
    /// reader notes. Kept out of line so that the tabled path of
    /// [`lists`](Self::lists) stays a short loop where a pass inlines it.
    #[inline(never)]
    fn per_row_groups(&self, reader: &mut BlockReader, b: usize, live: u64) {
        let BlockReader {
            state,
            succ,
            row_groups,
            row_deltas,
            ..
        } = reader;
        row_groups.iter_mut().for_each(Vec::clear);
        let width = self.width();
        let x0 = b * width;
        self.index.decode_state(StateId::from_index(x0), state);
        for j in 0..width {
            if live >> j & 1 == 1 {
                let id = StateId::from_index(x0 + j);
                for ((_, act), list) in self.per_row.iter().zip(&mut *row_groups) {
                    if act.enabled(state) {
                        let next = successor(act, self.index, id, state, succ)
                            .unwrap_or_else(|_| unreachable!("a space holds no escape"));
                        join_group(list, 0, next.0 as i64 - id.0 as i64, 1 << j);
                    }
                }
            }
            self.index.step_state(state);
        }
        for &(delta, _) in row_groups.iter().flatten() {
            let Some(list) = row_deltas else {
                return;
            };
            if let Err(at) = list.binary_search(&delta) {
                list.insert(at, delta);
                if list.len() > ROW_DELTAS {
                    *row_deltas = None;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(words: Vec<AtomicU64>) -> Vec<u64> {
        words.into_iter().map(AtomicU64::into_inner).collect()
    }

    /// A whole 27-state block's states.
    const BLOCK_27: u64 = (1 << 27) - 1;

    #[test]
    fn or_pattern_splits_a_straddling_block_over_two_words() {
        // A 27-state block at 54 covers bits 54..64 of word 0 and 0..17
        // of word 1.
        let words = zero_column(192);
        or_pattern(&words, 54, BLOCK_27, BLOCK_27);
        assert_eq!(bits(words), [!0 << 54, (1 << 17) - 1, 0]);
        // Only the low bits: nothing reaches the next word.
        let words = zero_column(192);
        or_pattern(&words, 100, 0b101, BLOCK_27);
        assert_eq!(bits(words), [0, 0b101 << 36, 0]);
        // Only the high bits: the first word is untouched.
        let words = zero_column(192);
        or_pattern(&words, 63, 0b110, BLOCK_27);
        assert_eq!(bits(words), [0, 0b11, 0]);
        // A block ending on the last word.
        let words = zero_column(192);
        or_pattern(&words, 165, 1 << 26, BLOCK_27);
        assert_eq!(bits(words), [0, 0, 1 << 63]);
    }

    #[test]
    fn or_pattern_keeps_the_bits_already_set() {
        // Two tasks' blocks meeting inside word 1, written in either
        // order.
        for swap in [false, true] {
            let words = zero_column(192);
            let (left, right) = (27, 54);
            let [first, second] = if swap { [right, left] } else { [left, right] };
            or_pattern(&words, first, BLOCK_27, BLOCK_27);
            or_pattern(&words, second, BLOCK_27, BLOCK_27);
            assert_eq!(bits(words), [!0 << 27, (1 << 17) - 1, 0], "swap={swap}");
        }
    }

    #[test]
    fn or_pattern_writes_a_whole_owned_word_in_place() {
        // A 64-state block wholly the task's own: its word, plainly.
        let words = zero_column(192);
        words[1].store(0b1, Relaxed);
        or_pattern(&words, 64, 0b110, u64::MAX);
        // Two tasks' halves of one 64-state block: atomic ORs.
        or_pattern(&words, 128, 0b1010, u64::MAX >> 32);
        or_pattern(&words, 128, 0b11 << 32, u64::MAX << 32);
        assert_eq!(bits(words), [0, 0b111, 0b11 << 32 | 0b1010]);
    }
}
