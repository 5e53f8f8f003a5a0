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
//! A cursor holds one state's digits and every item's key. A sweep in id
//! order steps the digits as an odometer, and re-keys only the items whose
//! footprint holds a digit the carry changed: on average 3.93 of 20
//! actions per state on diffusing binary-10, 3.29 of 13 on the ring. A
//! scattered read (a depth-first search) decodes the new id's digits —
//! only those that differ from the previous id's when every domain size
//! is a power of two — and re-keys the items of the changed ones.
//!
//! # The cap and the audit
//!
//! An item whose footprint has more than [`TABLE_CAP`] assignments keys no
//! table and is evaluated per row, at the decoded state, as a
//! [`Decoder`](crate::Decoder) does.
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
    /// The layout of `footprints`, one per item (`None` for an item
    /// evaluated per row), whose entries start at `start`.
    fn new(index: &SpaceIndex, footprints: &[Option<Footprint>], start: &[u32]) -> Self {
        let mut per_var: Vec<Vec<(u32, u32)>> = vec![Vec::new(); index.var_count()];
        for (item, fp) in footprints.iter().enumerate() {
            for (&v, &stride) in fp.iter().flat_map(|fp| fp.vars.iter().zip(&fp.strides)) {
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

    fn bytes(&self) -> usize {
        self.at.len() * 4 + self.readers.len() * 8 + self.base.len() * 4
    }
}

/// One state's digits and the keys of every item of a [`KeyLayout`].
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

/// An item's footprint: its variables, ascending, each with its stride in
/// the item's key, and the number of keys.
#[derive(Debug, Clone)]
struct Footprint {
    vars: Vec<usize>,
    strides: Vec<u32>,
    size: usize,
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
        let layout = KeyLayout::new(index, &plan.footprints, &start);
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

/// The footprint tables of a list of predicates.
#[derive(Debug, Clone)]
pub(crate) struct PredicateTables {
    layout: KeyLayout,
    /// Per predicate, where its entries start in `entries`, or `PER_ROW`.
    start: Box<[u32]>,
    entries: Box<[bool]>,
}

impl PredicateTables {
    /// Evaluate and audit the tables of `preds`.
    ///
    /// # Errors
    ///
    /// [`CheckError::UndeclaredVariable`] at the first predicate whose
    /// audit fails; [`CheckError::WorkerFailed`] if a predicate panics.
    pub(crate) fn build(index: &SpaceIndex, preds: &[&Predicate]) -> Result<Self, CheckError> {
        let footprints: Vec<Option<Footprint>> = preds
            .iter()
            .map(|p| Footprint::of_predicate(index, p))
            .collect();
        let mut start = Vec::with_capacity(preds.len());
        let mut entries = Vec::new();
        for (pred, fp) in preds.iter().zip(&footprints) {
            let Some(fp) = fp else {
                start.push(PER_ROW);
                continue;
            };
            let bits = crate::options::catching(|| fp.fill(index, |s, _| Ok(pred.holds(s))))?
                .map_err(|v| CheckError::UndeclaredVariable {
                    kind: "predicate",
                    name: pred.name().to_string(),
                    var: index.name(v).to_string(),
                })?;
            start.push(entries.len() as u32);
            entries.extend(bits);
        }
        Ok(PredicateTables {
            layout: KeyLayout::new(index, &footprints, &start),
            start: start.into(),
            entries: entries.into(),
        })
    }

    /// Whether some predicate is evaluated per row.
    pub(crate) fn has_per_row(&self) -> bool {
        self.start.contains(&PER_ROW)
    }

    /// A cursor over these tables.
    pub(crate) fn cursor(&self, index: &SpaceIndex) -> Cursor {
        Cursor::new(index.digits(), &self.layout)
    }

    /// Move `cursor` to `id`.
    #[inline]
    pub(crate) fn seek(&self, index: &SpaceIndex, cursor: &mut Cursor, id: StateId) {
        cursor.seek(index.digits(), &self.layout, id.0);
    }

    /// Predicate `p` at the cursor's state, or `None` for a predicate
    /// evaluated per row.
    #[inline]
    pub(crate) fn get(&self, cursor: &Cursor, p: usize) -> Option<bool> {
        (self.start[p] != PER_ROW).then(|| self.holds(cursor, p))
    }

    /// Predicate `p` at the cursor's state; `p` must be tabled.
    #[inline]
    pub(crate) fn holds(&self, cursor: &Cursor, p: usize) -> bool {
        self.entries[cursor.keys[p] as usize]
    }
}
