//! Footprint tables: each action's and each predicate's share of every
//! state, stored once per assignment of the variables it declares.
//!
//! A guarded command reads and writes only its declared variables, so its
//! guard, and the distance from a state's id to its successor's,
//! `Σ (new − old) · stride` over the written slots, are functions of the
//! values of `reads ∪ writes` alone. A predicate's value is a function of
//! its reads. Each such item therefore gets a **table**, indexed by the
//! mixed-radix *key* of its footprint's values (the last footprint
//! variable cycling fastest, as in the state ids):
//!
//! - an action entry holds the successor-id delta, or "disabled", or the
//!   variable whose domain the successor leaves (enumeration rejects any
//!   such entry; the frontier check raises it only at a state it reads);
//! - a predicate entry holds its truth value.
//!
//! On the shipped designs the tables are tiny (440 action entries for
//! diffusing binary-10, 832 for the ring 7×7), so no transition is ever
//! stored: a state's row is one table load per action.
//!
//! # Cursors
//!
//! A cursor holds one state's digits and every item's key. A row reader
//! in id order steps the digits as an odometer, and re-keys only the
//! items whose footprint holds a digit the carry changed: on average 3.93
//! of 20 actions per state on diffusing binary-10, 3.29 of 13 on the
//! ring. A scattered read (a depth-first search) decodes the new id's
//! digits — only those that differ from the previous id's when every
//! domain size is a power of two — and re-keys the items of the changed
//! ones.
//!
//! # Blocks
//!
//! The whole-space sweeps (the predicate caches, the preservation sweep
//! and the convergence peel) step a cursor over **blocks** instead of
//! states, through one block engine that also splits the blocks among
//! workers (the crate's `sweep` module). A block is the
//! longest suffix of the variables (the lowest strides) whose domain
//! sizes multiply to at most 64, so it holds `P ≤ 64` consecutive ids:
//! `P = 64` on diffusing binary-10 and the windowed ring 7×7, 27
//! for three three-valued variables, and 1 when the last domain holds more
//! than 64 values. An item's key is the same at every state of a block up
//! to the block's own digits, so a block table re-keys each table by
//! the footprint's digits outside the block and stores, per such key, a
//! `P`-bit word: a predicate's truth pattern, or an action's successor-id
//! deltas, each with the pattern of offsets where the guard holds and the
//! successor is that far away. The block tables are derived from the
//! audited entries, with no new guard, effect or predicate call, and a
//! block costs one cursor step and one lookup per item.
//!
//! # The cap and the audit
//!
//! An item whose footprint has more than [`TABLE_CAP`] assignments keys no
//! table and is evaluated per row, at the decoded state, as a
//! [`Decoder`](crate::Decoder) does; a block sweep evaluates it at each
//! state of the block.
//!
//! The tables are only as true as the declared footprints, so the build
//! audits every entry. It evaluates the entry over the background with
//! every other variable at its minimum, then steps each other variable
//! alone through every value of its domain, then raises all of them to
//! their maxima together (and, should only that disagree, raises them one
//! by one to find which one does). Any disagreement, and any effect that
//! changes a variable outside the footprint, is a
//! [`CheckError::UndeclaredVariable`] naming the item and the variable.
//!
//! The audit is not exhaustive. A dependence on undeclared variables
//! that shows only when two or more of them *jointly* leave their minima,
//! and not at all their maxima (say `y == 1 && z == 1` over `0..=2`
//! domains), gets past it, and the tables then hold the wrong entries.
//! The `lang` compiler infers footprints and cannot produce one; a program
//! built by hand must declare its footprints truly.
//!
//! An entry's audit costs `Σ (size − 1)` evaluations over the variables
//! outside the footprint, plus two. Since `Σ (size − 1) ≤ Π size` for
//! sizes of at least two, a table costs at most about one evaluation per
//! state of the space — never more than evaluating the item at every
//! state, as a [`Decoder`](crate::Decoder) sweep does.

use std::ops::Range;

use nonmask_program::{Action, Predicate, Program, State, VarId};

use crate::error::CheckError;
use crate::space::{SpaceIndex, StateId};
use crate::successors::successor;

/// The most entries one footprint table holds. An action or predicate
/// whose footprint has more assignments than this is evaluated per row
/// instead, which keeps every table small enough to stay in cache; the
/// shipped designs' largest tables hold 64 entries.
pub const TABLE_CAP: usize = 1 << 12;

/// The action-entry value of a disabled guard. A real delta is a
/// difference of two `u32` ids, so it never reaches it, nor an escape.
const DISABLED: i64 = i64::MIN;

/// The action entry of a successor that leaves variable `v`'s domain is
/// `ESCAPES + v`.
const ESCAPES: i64 = DISABLED + 1;

/// The variable an escape entry names, or `None` for a delta or
/// [`DISABLED`].
fn escaped_var(entry: i64) -> Option<usize> {
    (entry != DISABLED && entry < -(1 << 32)).then(|| (entry - ESCAPES) as usize)
}

/// The `start` of an item evaluated per row.
const PER_ROW: u32 = u32::MAX;

/// Mixed-radix digit decoding of state ids: digit `v` of an id is
/// `id / stride_v % size_v`. When every size is a power of two (booleans,
/// and the shipped designs' domains) the id is a bit field, and the digits
/// that differ between two ids are read off the bits where they differ.
#[derive(Debug, Clone)]
pub(crate) struct Digits {
    /// Per variable, its size and stride.
    vars: Box<[(u64, u64)]>,
    /// For a bit-field id: per id bit, the variable that owns it.
    owners: Option<Box<[u32; 32]>>,
}

impl Digits {
    pub(crate) fn new(sizes: &[i64], strides: &[u64]) -> Self {
        let vars: Box<[(u64, u64)]> = sizes
            .iter()
            .map(|&s| s as u64)
            .zip(strides.iter().copied())
            .collect();
        let mut owners = Box::new([0u32; 32]);
        for (v, &(size, stride)) in vars.iter().enumerate() {
            let (low, width) = (stride.trailing_zeros(), size.trailing_zeros());
            for owner in owners.iter_mut().skip(low as usize).take(width as usize) {
                *owner = v as u32;
            }
        }
        let fields = vars.iter().all(|&(size, _)| size.is_power_of_two());
        Digits {
            vars,
            owners: fields.then_some(owners),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.vars.len()
    }

    fn size(&self, v: usize) -> u64 {
        self.vars[v].0
    }

    /// Call `f(v, digit)` for every variable's digit of `id`, or, for a
    /// bit-field id and a known previous id `prev`, for every variable
    /// whose digit differs from `prev`'s.
    #[inline(always)]
    fn decode(&self, prev: Option<u32>, id: u32, mut f: impl FnMut(usize, u32)) {
        if let (Some(owners), Some(prev)) = (&self.owners, prev) {
            let mut diff = prev ^ id;
            while diff != 0 {
                let v = owners[31 - diff.leading_zeros() as usize] as usize;
                let (size, stride) = self.vars[v];
                f(
                    v,
                    ((id as u64 >> stride.trailing_zeros()) & (size - 1)) as u32,
                );
                // Clear the variable's bits and everything above them.
                diff &= stride as u32 - 1;
            }
            return;
        }
        for (v, &(size, stride)) in self.vars.iter().enumerate() {
            f(v, (id as u64 / stride % size) as u32);
        }
    }
}

/// How a family of items (a program's actions, or a list of predicates)
/// keys its tables: per variable, the tabled items whose footprint holds
/// it, each with the variable's stride in that item's key.
#[derive(Debug, Clone)]
pub(crate) struct KeyLayout {
    /// Variable `v`'s readers are `readers[at[v]..at[v + 1]]`.
    at: Box<[u32]>,
    /// `(item, stride)` pairs.
    readers: Box<[(u32, u32)]>,
    /// Per item, its key at the all-minimum state: where its entries
    /// start (0 for an item evaluated per row). A cursor's keys are
    /// entry indices, so a row reads each entry with one load.
    base: Box<[u32]>,
}

impl KeyLayout {
    /// The layout of `footprints` over variables `0..vars`, one footprint
    /// per item as `(variable, stride)` pairs (none for an item evaluated
    /// per row), whose entries start at `start`.
    fn new(vars: usize, footprints: &[Vec<(usize, u32)>], start: &[u32]) -> Self {
        let mut per_var: Vec<Vec<(u32, u32)>> = vec![Vec::new(); vars];
        for (item, fp) in footprints.iter().enumerate() {
            for &(v, stride) in fp {
                per_var[v].push((item as u32, stride));
            }
        }
        let mut at = vec![0u32];
        let mut readers = Vec::new();
        for list in per_var {
            readers.extend(list);
            at.push(readers.len() as u32);
        }
        KeyLayout {
            at: at.into(),
            readers: readers.into(),
            base: start
                .iter()
                .map(|&s| if s == PER_ROW { 0 } else { s })
                .collect(),
        }
    }

    /// Move every reader of `v` from digit `old` to digit `new`.
    #[inline(always)]
    fn shift(&self, v: usize, old: u32, new: u32, keys: &mut [u32]) {
        let delta = new.wrapping_sub(old);
        let (lo, hi) = (self.at[v] as usize, self.at[v + 1] as usize);
        for &(item, stride) in &self.readers[lo..hi] {
            let key = &mut keys[item as usize];
            *key = key.wrapping_add(delta.wrapping_mul(stride));
        }
    }

    /// Each item's footprint, as [`new`](Self::new) took it.
    fn footprints(&self) -> Vec<Vec<(usize, u32)>> {
        let mut fps = vec![Vec::new(); self.base.len()];
        for (v, span) in self.at.windows(2).enumerate() {
            for &(item, stride) in &self.readers[span[0] as usize..span[1] as usize] {
                fps[item as usize].push((v, stride));
            }
        }
        fps
    }

    fn bytes(&self) -> usize {
        self.at.len() * 4 + self.readers.len() * 8 + self.base.len() * 4
    }
}

/// One state's digits (or one block's, over the variables outside the
/// block) and the keys of every item of a [`KeyLayout`].
#[derive(Debug, Clone)]
pub(crate) struct Cursor {
    /// The id whose digits are held, once one has been sought.
    at: Option<u32>,
    digits: Box<[u32]>,
    keys: Box<[u32]>,
}

impl Cursor {
    pub(crate) fn new(digits: &Digits, layout: &KeyLayout) -> Self {
        Cursor {
            at: None,
            digits: vec![0; digits.len()].into(),
            keys: layout.base.clone(),
        }
    }

    /// Move to `id`: the next id by an odometer step, any other by a
    /// decode. Either way only the readers of changed digits are re-keyed.
    #[inline]
    pub(crate) fn seek(&mut self, digits: &Digits, layout: &KeyLayout, id: u32) {
        match self.at {
            Some(prev) if prev == id => {}
            Some(prev) if prev.wrapping_add(1) == id => {
                for v in (0..self.digits.len()).rev() {
                    let old = self.digits[v];
                    if old as u64 + 1 < digits.size(v) {
                        layout.shift(v, old, old + 1, &mut self.keys);
                        self.digits[v] = old + 1;
                        break;
                    }
                    layout.shift(v, old, 0, &mut self.keys);
                    self.digits[v] = 0;
                }
            }
            // From the zero digits and keys of a new cursor, a decode
            // re-keys every item.
            _ => digits.decode(self.at, id, |v, d| {
                let old = self.digits[v];
                if d != old {
                    layout.shift(v, old, d, &mut self.keys);
                    self.digits[v] = d;
                }
            }),
        }
        self.at = Some(id);
    }

    /// Write the held state into `state`.
    fn state_into(&self, index: &SpaceIndex, state: &mut State) {
        for (v, &d) in self.digits.iter().enumerate() {
            state.set(VarId::from_index(v), index.min(v) + d as i64);
        }
    }
}

/// The blocks of a space (see the [module docs](self)): block `b` holds
/// the ids `b·P .. (b + 1)·P`, and its id is the number whose digits are
/// those of the variables outside the block.
#[derive(Debug, Clone)]
pub(crate) struct Blocks {
    /// States per block, `P`.
    states: usize,
    /// The variables outside the block are `0..outside`.
    outside: usize,
    /// Digit decoding of block ids.
    digits: Digits,
}

impl Blocks {
    /// The most states a block holds: one bit each in a word.
    const MAX: usize = 64;

    pub(crate) fn of(index: &SpaceIndex) -> Self {
        let (mut outside, mut states) = (index.var_count(), 1);
        while outside > 0 {
            let size = index.domain_size(outside - 1);
            if size == 0 || states * size > Self::MAX {
                break;
            }
            states *= size;
            outside -= 1;
        }
        let sizes: Vec<i64> = (0..outside).map(|v| index.domain_size(v) as i64).collect();
        let strides: Vec<u64> = (0..outside)
            .map(|v| (index.stride(v) / states) as u64)
            .collect();
        Blocks {
            states,
            outside,
            digits: Digits::new(&sizes, &strides),
        }
    }

    /// States per block, `P`.
    pub(crate) fn states(&self) -> usize {
        self.states
    }

    /// The low `P` bits: a whole block's pattern.
    pub(crate) fn full(&self) -> u64 {
        u64::MAX >> (Self::MAX - self.states)
    }

    /// The states of block `b` that lie in `range`, as a pattern.
    pub(crate) fn in_range(&self, b: usize, range: &Range<usize>) -> u64 {
        // The low `n` bits.
        let below = |n: usize| u64::MAX.checked_shl(n as u32).map_or(u64::MAX, |m| !m);
        let x0 = b * self.states;
        let ours = below(range.end.saturating_sub(x0)) & !below(range.start.saturating_sub(x0));
        ours & self.full()
    }

    /// The blocks that hold a state of `range`.
    pub(crate) fn covering(&self, range: &Range<usize>) -> Range<usize> {
        range.start / self.states..range.end.div_ceil(self.states)
    }
}

/// Footprint tables re-keyed by block (see the [module docs](self)): per
/// item, for every assignment of its footprint's variables outside the
/// block, a short list of values derived from the item's entries at the
/// block's `P` offsets.
#[derive(Debug, Clone)]
pub(crate) struct BlockTable<U> {
    layout: KeyLayout,
    /// Per item, where its keys start in `at`, or `PER_ROW`.
    start: Box<[u32]>,
    /// Per key, where its values start in `values`, then the end of the
    /// last key's values.
    at: Box<[u32]>,
    values: Box<[U]>,
}

impl<U> BlockTable<U> {
    /// Re-key the tables of `layout`, whose items' entries start at
    /// `start` in `entries`: `derive` gets an item's entries at the `P`
    /// offsets of a block, in offset order, and pushes that key's values.
    ///
    /// # Errors
    ///
    /// [`CheckError::BudgetExceeded`] (phase `"block tables"`) when the
    /// block tables could exceed `budget`: a key holds at most as many
    /// values as it covers entries.
    fn derive<T: Copy>(
        index: &SpaceIndex,
        blocks: &Blocks,
        (layout, start, entries): (&KeyLayout, &[u32], &[T]),
        budget: u64,
        mut derive: impl FnMut(&[T], &mut Vec<U>),
    ) -> Result<Self, CheckError> {
        let entry_bytes = std::mem::size_of::<U>() + 4;
        let required = (entries.len() * entry_bytes + 4 + layout.bytes() + start.len() * 4) as u64;
        if required > budget {
            return Err(CheckError::BudgetExceeded {
                required,
                budget,
                phase: "block tables",
            });
        }
        let mut outer_footprints = Vec::with_capacity(start.len());
        let mut block_start = Vec::with_capacity(start.len());
        let (mut at, mut values) = (Vec::new(), Vec::new());
        let mut offsets = vec![0usize; blocks.states];
        let mut row = Vec::with_capacity(blocks.states);
        for (fp, &first) in layout.footprints().into_iter().zip(start) {
            if first == PER_ROW {
                block_start.push(PER_ROW);
                outer_footprints.push(Vec::new());
                continue;
            }
            // The footprint's variables ascend, so those inside the block
            // come last and a key is `outer key · inner keys + inner key`.
            let (outer, inner) = fp.split_at(fp.partition_point(|&(v, _)| v < blocks.outside));
            let inner_keys: usize = inner.iter().map(|&(v, _)| index.domain_size(v)).product();
            let outer_keys: usize = outer.iter().map(|&(v, _)| index.domain_size(v)).product();
            for (j, offset) in offsets.iter_mut().enumerate() {
                *offset = inner
                    .iter()
                    .map(|&(v, s)| j / index.stride(v) % index.domain_size(v) * s as usize)
                    .sum();
            }
            block_start.push(at.len() as u32);
            for key in 0..outer_keys {
                at.push(values.len() as u32);
                let base = first as usize + key * inner_keys;
                row.clear();
                row.extend(offsets.iter().map(|&i| entries[base + i]));
                derive(&row, &mut values);
            }
            let stride = |&(v, s): &(usize, u32)| (v, s / inner_keys as u32);
            outer_footprints.push(outer.iter().map(stride).collect());
        }
        at.push(values.len() as u32);
        Ok(BlockTable {
            layout: KeyLayout::new(blocks.outside, &outer_footprints, &block_start),
            start: block_start.into(),
            at: at.into(),
            values: values.into(),
        })
    }

    /// A cursor over the blocks of `blocks`, the blocks this table was
    /// derived for.
    pub(crate) fn cursor(&self, blocks: &Blocks) -> Cursor {
        Cursor::new(&blocks.digits, &self.layout)
    }

    /// Move `cursor` to block `block`.
    #[inline]
    pub(crate) fn seek(&self, blocks: &Blocks, cursor: &mut Cursor, block: usize) {
        cursor.seek(&blocks.digits, &self.layout, block as u32);
    }

    /// Item `item`'s values at the cursor's block, or `None` for an item
    /// evaluated per row.
    #[inline]
    pub(crate) fn values(&self, cursor: &Cursor, item: usize) -> Option<&[U]> {
        if self.start[item] == PER_ROW {
            return None;
        }
        let key = cursor.keys[item] as usize;
        Some(&self.values[self.at[key] as usize..self.at[key + 1] as usize])
    }

    /// The items evaluated per row, ascending.
    pub(crate) fn per_row(&self) -> impl Iterator<Item = usize> + '_ {
        (self.start.iter())
            .enumerate()
            .filter_map(|(i, &s)| (s == PER_ROW).then_some(i))
    }
}

impl BlockTable<(i64, u64)> {
    /// Every successor-id delta of a group, ascending.
    pub(crate) fn deltas(&self) -> Vec<i64> {
        let mut deltas: Vec<i64> = self.values.iter().map(|&(delta, _)| delta).collect();
        deltas.sort_unstable();
        deltas.dedup();
        deltas
    }
}

/// Add the offsets `bits`, whose successors lie `delta` ids away, to the
/// groups of `groups[from..]`: to the group of that delta, or as a new
/// group.
pub(crate) fn join_group(groups: &mut Vec<(i64, u64)>, from: usize, delta: i64, bits: u64) {
    match groups[from..].iter_mut().find(|g| g.0 == delta) {
        Some(group) => group.1 |= bits,
        None => groups.push((delta, bits)),
    }
}

/// An item's footprint: its variables, ascending, each with its stride in
/// the item's key, and the number of keys.
#[derive(Debug, Clone)]
struct Footprint {
    vars: Vec<usize>,
    strides: Vec<u32>,
    size: usize,
}

/// Per item, its footprint's `(variable, stride)` pairs, as
/// [`KeyLayout::new`] takes them; none for an item evaluated per row.
fn pairs(footprints: &[Option<Footprint>]) -> Vec<Vec<(usize, u32)>> {
    let pairs = |fp: &Footprint| fp.vars.iter().copied().zip(fp.strides.clone()).collect();
    footprints
        .iter()
        .map(|fp| fp.as_ref().map_or_else(Vec::new, pairs))
        .collect()
}

impl Footprint {
    /// The footprint over `vars` (ascending, distinct), or `None` when it
    /// has more than [`TABLE_CAP`] assignments.
    fn of(index: &SpaceIndex, vars: Vec<usize>) -> Option<Self> {
        let mut strides = vec![0u32; vars.len()];
        let mut size = 1usize;
        for (i, &v) in vars.iter().enumerate().rev() {
            strides[i] = size as u32;
            size = size.checked_mul(index.domain_size(v))?;
            if size > TABLE_CAP {
                return None;
            }
        }
        Some(Footprint {
            vars,
            strides,
            size,
        })
    }

    /// The footprint of an action: its reads and writes.
    fn of_action(index: &SpaceIndex, act: &Action) -> Option<Self> {
        let mut vars: Vec<usize> = act
            .reads()
            .iter()
            .chain(act.writes())
            .map(|v| v.index())
            .collect();
        vars.sort_unstable();
        vars.dedup();
        Self::of(index, vars)
    }

    /// The footprint of a predicate: its reads.
    fn of_predicate(index: &SpaceIndex, pred: &Predicate) -> Option<Self> {
        Self::of(index, pred.reads().iter().map(|v| v.index()).collect())
    }

    /// Evaluate `eval` at every key, in key order, auditing each entry
    /// against varied backgrounds (see the [module docs](self)). `eval`
    /// gets the state and which variables are inside the footprint, and
    /// returns `Err(v)` when it finds variable `v` changed outside it.
    ///
    /// # Errors
    ///
    /// The variable a disagreement or an outside write names.
    fn fill<T: PartialEq>(
        &self,
        index: &SpaceIndex,
        mut eval: impl FnMut(&State, &[bool]) -> Result<T, usize>,
    ) -> Result<Vec<T>, usize> {
        let mut inside = vec![false; index.var_count()];
        self.vars.iter().for_each(|&v| inside[v] = true);
        let mut eval = |s: &State| eval(s, &inside);
        // The other variables that can vary, each with its least and
        // greatest value.
        let others: Vec<(VarId, i64, i64)> = (0..index.var_count())
            .filter(|&v| !inside[v] && index.domain_size(v) > 1)
            .map(|v| {
                let min = index.min(v);
                (
                    VarId::from_index(v),
                    min,
                    min + index.domain_size(v) as i64 - 1,
                )
            })
            .collect();
        let mut state = index.state(StateId::from_index(0));
        let mut digits = vec![0usize; self.vars.len()];
        let mut entries = Vec::with_capacity(self.size);
        for _ in 0..self.size {
            for (&v, &d) in self.vars.iter().zip(&digits) {
                state.set(VarId::from_index(v), index.min(v) + d as i64);
            }
            let base = eval(&state)?;
            for &(v, min, max) in &others {
                for value in min + 1..=max {
                    state.set(v, value);
                    if eval(&state)? != base {
                        return Err(v.index());
                    }
                }
                state.set(v, min);
            }
            if others.len() > 1 {
                others.iter().for_each(|&(v, _, max)| state.set(v, max));
                if eval(&state)? != base {
                    others.iter().for_each(|&(v, min, _)| state.set(v, min));
                    for &(v, _, max) in &others {
                        state.set(v, max);
                        if eval(&state)? != base {
                            return Err(v.index());
                        }
                    }
                }
                others.iter().for_each(|&(v, min, _)| state.set(v, min));
            }
            entries.push(base);
            // Odometer over the footprint's digits, last fastest.
            for (i, &v) in self.vars.iter().enumerate().rev() {
                digits[i] += 1;
                if digits[i] < index.domain_size(v) {
                    break;
                }
                digits[i] = 0;
            }
        }
        Ok(entries)
    }
}

/// What an action does at one state, as a table entry and for the audit
/// to compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Move {
    Disabled,
    /// The successor id's distance from the state's.
    By(i64),
    /// The successor leaves the space; the first variable outside its
    /// domain.
    Escapes(usize),
}

/// `act` at `state`, whose footprint is the variables `inside` marks:
/// `Err(v)` when the effect changes variable `v` outside it.
fn action_move(
    index: &SpaceIndex,
    act: &Action,
    inside: &[bool],
    state: &State,
    succ: &mut State,
) -> Result<Move, usize> {
    if !act.enabled(state) {
        return Ok(Move::Disabled);
    }
    act.successor_into(state, succ);
    if succ.len() != state.len() {
        return Ok(Move::Escapes(index.escaping_var(succ)));
    }
    let (old, new) = (state.slots(), succ.slots());
    if let Some(v) = (0..old.len()).find(|&v| !inside[v] && old[v] != new[v]) {
        return Err(v);
    }
    let mut delta = 0i64;
    for v in (0..old.len()).filter(|&v| inside[v] && old[v] != new[v]) {
        let offset = new[v].wrapping_sub(index.min(v));
        if offset < 0 || offset >= index.domain_size(v) as i64 {
            return Ok(Move::Escapes(v));
        }
        delta += (new[v] - old[v]) * index.stride(v) as i64;
    }
    Ok(Move::By(delta))
}

/// The footprint tables of a program's actions: the transition relation
/// of a [`StateSpace`](crate::StateSpace), with no transition stored.
#[derive(Debug, Clone)]
pub(crate) struct ActionTables {
    layout: KeyLayout,
    /// Per action, where its entries start in `entries`, or `PER_ROW`.
    start: Box<[u32]>,
    /// Successor-id deltas, [`DISABLED`] where the guard is false and
    /// [`ESCAPES`] plus the variable where the successor leaves the space.
    entries: Box<[i64]>,
    /// The actions evaluated per row, in action order, with their ids.
    per_row: Box<[(usize, Action)]>,
    /// No action is evaluated per row and no entry escapes, so every row
    /// takes the branch-free loop.
    plain: bool,
    /// Transitions of the tabled actions: per action, its enabled entries
    /// times the states that share each key.
    tabled: u64,
}

/// The planned tables of a program's actions: footprints known, no entry
/// evaluated.
pub(crate) struct ActionPlan {
    footprints: Vec<Option<Footprint>>,
}

impl ActionPlan {
    pub(crate) fn of(program: &Program, index: &SpaceIndex) -> Self {
        ActionPlan {
            footprints: program
                .actions()
                .iter()
                .map(|act| Footprint::of_action(index, act))
                .collect(),
        }
    }

    /// Heap bytes of the built tables, before any per-row action.
    pub(crate) fn bytes(&self, index: &SpaceIndex) -> usize {
        let entries: usize = self.footprints.iter().flatten().map(|fp| fp.size).sum();
        let readers: usize = self
            .footprints
            .iter()
            .flatten()
            .map(|fp| fp.vars.len())
            .sum();
        entries * 8 + self.footprints.len() * 8 + (index.var_count() + 1) * 4 + readers * 8
    }

    /// Whether some action is evaluated per row.
    pub(crate) fn has_per_row(&self) -> bool {
        self.footprints.iter().any(Option::is_none)
    }
}

/// An escape found by the table build: the lowest state id where it
/// happens, the action, and the variable.
pub(crate) type Escape = (StateId, usize, usize);

impl ActionTables {
    /// Evaluate and audit every entry of `plan`.
    ///
    /// # Errors
    ///
    /// [`CheckError::UndeclaredVariable`] at the first action, in action
    /// order, whose audit fails. Escapes are not raised: the entries keep
    /// them, for [`row`](Self::row) to report at the states it reads, and
    /// the lowest (state id, then action) is returned, for enumeration to
    /// order against the per-row actions' escapes.
    pub(crate) fn build(
        program: &Program,
        index: &SpaceIndex,
        plan: ActionPlan,
    ) -> Result<(Self, Option<Escape>), CheckError> {
        let mut start = Vec::with_capacity(plan.footprints.len());
        let mut entries = Vec::new();
        let mut per_row = Vec::new();
        let mut escape: Option<Escape> = None;
        let mut tabled = 0u64;
        let mut succ = index.scratch_state();
        for (a, (act, fp)) in program.actions().iter().zip(&plan.footprints).enumerate() {
            let Some(fp) = fp else {
                start.push(PER_ROW);
                per_row.push((a, act.clone()));
                continue;
            };
            let fill = || {
                fp.fill(index, |s, inside| {
                    action_move(index, act, inside, s, &mut succ)
                })
            };
            let moves =
                crate::options::catching(fill)?.map_err(|v| CheckError::UndeclaredVariable {
                    kind: "action",
                    name: act.name().to_string(),
                    var: index.name(v).to_string(),
                })?;
            start.push(entries.len() as u32);
            let enabled = moves.iter().filter(|m| **m != Move::Disabled).count();
            tabled += (enabled * (index.len() / fp.size)) as u64;
            for (key, m) in moves.into_iter().enumerate() {
                entries.push(match m {
                    Move::Disabled => DISABLED,
                    Move::By(delta) => delta,
                    Move::Escapes(var) => {
                        // The lowest state with this key: every other
                        // variable at its minimum.
                        let id = fp
                            .vars
                            .iter()
                            .zip(&fp.strides)
                            .map(|(&v, &s)| {
                                (key / s as usize % index.domain_size(v)) * index.stride(v)
                            })
                            .sum();
                        let found = (StateId::from_index(id), a, var);
                        if escape.is_none_or(|e| found < e) {
                            escape = Some(found);
                        }
                        ESCAPES + var as i64
                    }
                });
            }
        }
        let layout = KeyLayout::new(index.var_count(), &pairs(&plan.footprints), &start);
        let tables = ActionTables {
            layout,
            start: start.into(),
            entries: entries.into(),
            plain: per_row.is_empty() && escape.is_none(),
            per_row: per_row.into(),
            tabled,
        };
        Ok((tables, escape))
    }

    /// Transitions of the tabled actions.
    pub(crate) fn tabled_transitions(&self) -> u64 {
        self.tabled
    }

    /// Number of actions, tabled or evaluated per row.
    pub(crate) fn action_count(&self) -> usize {
        self.start.len()
    }

    /// The actions evaluated per row, with their ids.
    pub(crate) fn per_row(&self) -> &[(usize, Action)] {
        &self.per_row
    }

    /// Heap bytes of the tables.
    pub(crate) fn bytes(&self) -> usize {
        self.entries.len() * 8
            + self.start.len() * 4
            + self.layout.bytes()
            + self.per_row.len() * std::mem::size_of::<(usize, Action)>()
    }

    /// A cursor over these tables.
    pub(crate) fn cursor(&self, index: &SpaceIndex) -> Cursor {
        Cursor::new(index.digits(), &self.layout)
    }

    /// These tables re-keyed by block: per key, the action's groups of
    /// block offsets where it is enabled, one `(delta, offsets)` pair per
    /// distinct successor-id delta. Only the tables of a
    /// [`StateSpace`](crate::StateSpace), which hold no escape, are
    /// re-keyed.
    ///
    /// # Errors
    ///
    /// As [`BlockTable`]'s derivation: the budget.
    pub(crate) fn groups(
        &self,
        index: &SpaceIndex,
        blocks: &Blocks,
        budget: u64,
    ) -> Result<BlockTable<(i64, u64)>, CheckError> {
        let tables = (&self.layout, &self.start[..], &self.entries[..]);
        BlockTable::derive(index, blocks, tables, budget, |entries, groups| {
            let first = groups.len();
            for (j, &delta) in entries.iter().enumerate() {
                assert!(
                    escaped_var(delta).is_none(),
                    "a space's tables hold no escape"
                );
                if delta != DISABLED {
                    join_group(groups, first, delta, 1 << j);
                }
            }
        })
    }

    /// A row buffer for these tables.
    pub(crate) fn row_buf(&self, index: &SpaceIndex) -> RowBuf {
        let actions = self.start.len();
        RowBuf {
            guards: vec![0; crate::successors::guard_bytes(actions)],
            succs: vec![StateId(0); actions],
            state: index.scratch_state(),
            succ: index.scratch_state(),
        }
    }

    /// Move `cursor` to `id` and write its row into `buf`: the guard bits
    /// and, at the front of `buf.succs`, the successors of the set bits;
    /// returns their number.
    ///
    /// # Errors
    ///
    /// The first action, in action order, whose successor leaves the
    /// space, with the variable it leaves (never for the tables of a
    /// [`StateSpace`](crate::StateSpace), whose build rejects every
    /// escape).
    #[inline]
    pub(crate) fn row(
        &self,
        index: &SpaceIndex,
        cursor: &mut Cursor,
        id: StateId,
        buf: &mut RowBuf,
    ) -> Result<usize, (usize, usize)> {
        let RowBuf {
            guards,
            succs,
            state,
            succ,
        } = buf;
        cursor.seek(index.digits(), &self.layout, id.0);
        let mut n = 0;
        if self.plain {
            // Branch-free: every slot is written, and only an enabled
            // one is kept. The general loop below gives the same rows
            // but measured 18% slower on the `verify-resident`
            // benchmark (10 paired runs).
            for (byte, keys) in guards.iter_mut().zip(cursor.keys.chunks(8)) {
                let mut bits = 0u8;
                for (b, &key) in keys.iter().enumerate() {
                    let delta = self.entries[key as usize];
                    let on = delta != DISABLED;
                    // The successor is a state, so the wrapped sum is its id.
                    succs[n] = StateId(id.0.wrapping_add(delta as u32));
                    n += usize::from(on);
                    bits |= u8::from(on) << b;
                }
                *byte = bits;
            }
            return Ok(n);
        }
        cursor.state_into(index, state);
        guards.fill(0);
        let mut per_row = self.per_row.iter();
        for (a, (&start, &key)) in self.start.iter().zip(cursor.keys.iter()).enumerate() {
            let next = if start != PER_ROW {
                let delta = self.entries[key as usize];
                if let Some(v) = escaped_var(delta) {
                    return Err((a, v));
                }
                (delta != DISABLED).then(|| StateId(id.0.wrapping_add(delta as u32)))
            } else {
                let (_, act) = per_row.next().expect("one per-row action per PER_ROW");
                if act.enabled(state) {
                    Some(successor(act, index, id, state, succ).map_err(|v| (a, v))?)
                } else {
                    None
                }
            };
            if let Some(t) = next {
                guards[a / 8] |= 1 << (a % 8);
                succs[n] = t;
                n += 1;
            }
        }
        Ok(n)
    }
}

/// One row reader's buffers: the row's guard bits (one per action) and
/// successors (one slot per action; a row fills a prefix), and two
/// scratch states for the actions evaluated per row.
#[derive(Debug)]
pub(crate) struct RowBuf {
    pub(crate) guards: Vec<u8>,
    pub(crate) succs: Vec<StateId>,
    state: State,
    succ: State,
}

/// The truth patterns of a list of predicates, per block: each item's
/// footprint table is evaluated and audited, then re-keyed by block, with
/// one `P`-bit pattern per key. The items are the predicates, except that
/// a [conjunction](Predicate::all) past the cap whose conjuncts each fit
/// it is tabled as its conjuncts, and its pattern is the AND of theirs.
/// Returns the table and, per predicate, its items.
///
/// # Errors
///
/// [`CheckError::UndeclaredVariable`] at the first item whose audit
/// fails; [`CheckError::WorkerFailed`] if a predicate panics; the budget,
/// as [`BlockTable`]'s derivation.
pub(crate) fn predicate_patterns(
    index: &SpaceIndex,
    blocks: &Blocks,
    preds: &[&Predicate],
    budget: u64,
) -> Result<(BlockTable<u64>, Vec<Range<usize>>), CheckError> {
    let (mut items, mut footprints, mut ranges) = (Vec::new(), Vec::new(), Vec::new());
    for &pred in preds {
        let first = items.len();
        let fp = Footprint::of_predicate(index, pred);
        let split: Option<Vec<Footprint>> = match fp {
            None if !pred.conjuncts().is_empty() => (pred.conjuncts().iter())
                .map(|c| Footprint::of_predicate(index, c))
                .collect(),
            _ => None,
        };
        match split {
            Some(fps) => {
                items.extend(pred.conjuncts());
                footprints.extend(fps.into_iter().map(Some));
            }
            None => {
                items.push(pred);
                footprints.push(fp);
            }
        }
        ranges.push(first..items.len());
    }
    let mut start = Vec::with_capacity(items.len());
    let mut entries = Vec::new();
    for (pred, fp) in items.iter().zip(&footprints) {
        let Some(fp) = fp else {
            start.push(PER_ROW);
            continue;
        };
        let bits = crate::options::catching(|| fp.fill(index, |s, _| Ok(pred.holds(s))))?.map_err(
            |v| CheckError::UndeclaredVariable {
                kind: "predicate",
                name: pred.name().to_string(),
                var: index.name(v).to_string(),
            },
        )?;
        start.push(entries.len() as u32);
        entries.extend(bits);
    }
    let layout = KeyLayout::new(index.var_count(), &pairs(&footprints), &start);
    let tables = (&layout, &start[..], &entries[..]);
    let table = BlockTable::derive(index, blocks, tables, budget, |entries, patterns| {
        let pattern = (entries.iter().enumerate()).fold(0, |w, (j, &b)| w | u64::from(b) << j);
        patterns.push(pattern);
    })?;
    Ok((table, ranges))
}
