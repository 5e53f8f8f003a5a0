//! State-space enumeration: mixed-radix state ids and transitions from
//! per-action footprint tables.
//!
//! # Arithmetic (mixed-radix) state ids
//!
//! Every bounded domain is a contiguous value range `min..=max` (booleans
//! are `0..=1`, enumerations `0..=len-1`), and
//! [`Program::enumerate_states`] yields states in lexicographic order with
//! the **last** variable cycling fastest. A state's enumeration position is
//! therefore a pure mixed-radix number:
//!
//! ```text
//! index(s) = Σ_i (s[i] − min_i) · stride_i      stride_i = Π_{j>i} size_j
//! ```
//!
//! [`StateSpace`] exploits this in both directions. [`id_of`]
//! (`state → index`) is `O(|vars|)` multiply-adds with **no hash map and no
//! heap traffic**; a successor's id is cheaper still, its state's id moved
//! by the slots the action changed ([`SpaceIndex::successor_id`]). The
//! decode direction (`index → state`) means states never need to be
//! materialized at all: the space stores **no** `Vec<State>` — [`state`]
//! re-derives any state from its id on demand, and hot loops use
//! [`decode_state`] to decode into a reusable scratch `State` without
//! allocating.
//!
//! # Transitions from footprint tables
//!
//! The paper's programs are guarded commands over declared variables, so
//! an action's guard, and the distance from a state's id to its
//! successor's, depend only on the values of the action's reads and
//! writes. A [`StateSpace`] stores no transition: it keeps one small table
//! per action, indexed by the values of that footprint (see
//! [`footprint`](crate::footprint)), and computes each row from them, in
//! ascending action id. On the shipped designs the tables hold a few
//! hundred entries however many states there are, so the space's resident
//! cost is a few kilobytes, and the passes' per-state columns (predicate
//! caches, and the convergence peel's two bits a state) are what a
//! verification holds.
//!
//! The build evaluates and audits every table entry once (an action whose
//! footprint is too large to tabulate is checked over every state
//! instead), reports the first escape from a domain in id order, and
//! counts the transitions exactly: per action, its enabled entries times
//! the states that share each entry. It does no per-state work for a
//! tabled action, so the result does not depend on the thread count.
//!
//! The decode machinery is factored into [`SpaceIndex`] — the id↔state
//! bijection *without* any tables. Passes that hold no [`StateSpace`]
//! work from a `SpaceIndex`: closure sweeps over a [`Decoder`], which
//! evaluates guards and effects on demand, and the frontier convergence
//! mode, which builds the action tables beside the index and reads
//! [`TableRows`] over both.
//!
//! # Memory budget
//!
//! The id range allows up to `u32::MAX + 1` states; what actually bounds a
//! run is the [`CheckOptions::memory_budget`]. Enumeration rejects a
//! space, in the `"columns"` phase and before anything is allocated, when
//! the tables plus the per-state columns every resident verification
//! holds — the `T` and `S` caches and the convergence peel's two bits a
//! state, four bits a state in all — would exceed it. The
//! [`CheckError::BudgetExceeded`] error names the phase whose requirement
//! tripped. The passes charge what they allocate beyond that themselves:
//! the block sweeps their block tables (phase `"block tables"`), and the
//! convergence pass its residual analysis, which only a region that can
//! stay forever needs, as it grows (phase `"residual"`).
//!
//! [`Decoder`]: crate::Decoder
//! [`id_of`]: StateSpace::id_of
//! [`state`]: StateSpace::state
//! [`decode_state`]: StateSpace::decode_state

use nonmask_obs::{Event, Journal};
use nonmask_program::{ActionId, Predicate, Program, State, VarId};

use std::sync::Arc;

use crate::cache::Bitset;
use crate::error::CheckError;
use crate::footprint::{ActionPlan, ActionTables, Cursor, Digits, Escape, RowBuf};
use crate::options::{steal_tasks, CheckOptions};
use crate::successors::successor;

/// Identifier of a state within a [`StateSpace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub(crate) u32);

impl StateId {
    /// Positional index of the state in its space.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The id at position `index` (caller guarantees `index` fits; every
    /// space is pre-checked to hold at most `u32::MAX + 1` states).
    #[inline]
    pub fn from_index(index: usize) -> Self {
        debug_assert!(u32::try_from(index).is_ok());
        StateId(index as u32)
    }
}

impl std::fmt::Display for StateId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// The mixed-radix index: per variable, the domain minimum, the domain
/// size, and the stride (product of the sizes of all later variables).
#[derive(Debug, Clone)]
struct Radix {
    mins: Box<[i64]>,
    sizes: Box<[i64]>,
    strides: Box<[u64]>,
}

impl Radix {
    /// Derive the radix of `program`, returning the total state count.
    fn of(program: &Program) -> Result<(Radix, u128), CheckError> {
        let n = program.var_count();
        let mut mins = vec![0i64; n];
        let mut sizes = vec![0i64; n];
        for i in 0..n {
            let decl = program.var(VarId::from_index(i));
            let Some(size) = decl.domain().size() else {
                return Err(CheckError::Unbounded {
                    var: decl.name().to_string(),
                });
            };
            mins[i] = decl.domain().min_value();
            sizes[i] = size as i64;
        }
        // Strides right-to-left: the last variable cycles fastest.
        let mut strides = vec![1u64; n];
        let mut total: u128 = 1;
        for i in (0..n).rev() {
            // Strides beyond u64 would already exceed any usable limit;
            // saturate and let the total-vs-limit check reject the space.
            strides[i] = u128::min(total, u64::MAX as u128) as u64;
            total = total.saturating_mul(sizes[i] as u128);
        }
        Ok((
            Radix {
                mins: mins.into_boxed_slice(),
                sizes: sizes.into_boxed_slice(),
                strides: strides.into_boxed_slice(),
            },
            total,
        ))
    }

    /// Number of variables per state.
    fn var_count(&self) -> usize {
        self.mins.len()
    }

    /// The enumeration position of `state`, or `None` when some slot is
    /// outside its domain (or the arity differs).
    #[inline]
    fn index_of(&self, state: &State) -> Option<u64> {
        let slots = state.slots();
        if slots.len() != self.mins.len() {
            return None;
        }
        let mut acc = 0u64;
        for (i, &slot) in slots.iter().enumerate() {
            let offset = slot.wrapping_sub(self.mins[i]);
            if offset < 0 || offset >= self.sizes[i] {
                return None;
            }
            acc += offset as u64 * self.strides[i];
        }
        Some(acc)
    }

    /// The first variable of `state` whose value is outside its domain,
    /// for [`CheckError::EscapedDomain`] diagnostics.
    fn escaping_var(&self, state: &State) -> usize {
        let slots = state.slots();
        let arity = slots.len().min(self.mins.len());
        for (i, &slot) in slots.iter().enumerate().take(arity) {
            let offset = slot.wrapping_sub(self.mins[i]);
            if offset < 0 || offset >= self.sizes[i] {
                return i;
            }
        }
        0
    }

    /// Decode the state at enumeration position `idx` into `out`, reusing
    /// `out`'s slot buffer. `out` must have [`Radix::var_count`] slots.
    #[inline]
    fn decode_into(&self, mut idx: u64, out: &mut State) {
        debug_assert_eq!(out.len(), self.mins.len());
        for i in 0..self.mins.len() {
            let q = idx / self.strides[i];
            out.set(VarId::from_index(i), self.mins[i] + q as i64);
            idx -= q * self.strides[i];
        }
    }

    /// The position of `succ`, a successor of `state` at position `idx`,
    /// from the slots that differ: `idx + Σ (succ[i] − state[i]) · stride_i`
    /// over them, or `None` when a differing slot is outside its domain
    /// (or the arity differs), exactly where [`Radix::index_of`] is `None`.
    /// `state` must be the decoding of `idx`, so an unchanged slot is in
    /// its domain and needs no check.
    ///
    /// Slots are compared four at a time, by one branch on their or-ed
    /// XORs; only a group holding a change is walked slot by slot.
    #[inline]
    fn successor_index(&self, idx: u64, state: &State, succ: &State) -> Option<u64> {
        const GROUP: usize = 4;
        let (from, to) = (state.slots(), succ.slots());
        debug_assert_eq!(from.len(), self.mins.len());
        if to.len() != from.len() {
            return None;
        }
        let mut acc = idx;
        let (mut groups, mut succ_groups) = (from.chunks_exact(GROUP), to.chunks_exact(GROUP));
        let mut base = 0;
        for (old, new) in (&mut groups).zip(&mut succ_groups) {
            if old.iter().zip(new).fold(0, |d, (a, b)| d | (a ^ b)) != 0 {
                for (j, (&o, &n)) in old.iter().zip(new).enumerate() {
                    acc = self.shift(base + j, o, n, acc)?;
                }
            }
            base += GROUP;
        }
        let rest = groups.remainder().iter().zip(succ_groups.remainder());
        for (j, (&o, &n)) in rest.enumerate() {
            acc = self.shift(base + j, o, n, acc)?;
        }
        debug_assert_eq!(Some(acc), self.index_of(succ));
        Some(acc)
    }

    /// `acc` moved by slot `i` changing from `old` to `new`, or `None`
    /// when `new` is outside the slot's domain.
    #[inline(always)]
    fn shift(&self, i: usize, old: i64, new: i64, acc: u64) -> Option<u64> {
        if new == old {
            return Some(acc);
        }
        let offset = new.wrapping_sub(self.mins[i]);
        if offset < 0 || offset >= self.sizes[i] {
            return None;
        }
        // A decrease adds its two's complement; the true position is in
        // range, so the wrapped sum is exact.
        let delta = new.wrapping_sub(old) as u64;
        Some(acc.wrapping_add(delta.wrapping_mul(self.strides[i])))
    }

    /// Advance `out`, the decoding of some position `i`, to the decoding
    /// of `i + k` as an odometer: add `k` at the last digit and carry into
    /// the one before it. A digit that a carry of exactly 1 wraps resets
    /// without a division, so `k = 1` never divides; only a digit that a
    /// larger carry overflows divides. Positions past the last wrap to the
    /// first.
    #[inline]
    fn advance(&self, out: &mut State, k: u64) {
        let mut carry = k;
        for i in (0..self.mins.len()).rev() {
            let var = VarId::from_index(i);
            // Work on the offset, so a domain ending at `i64::MAX` wraps
            // instead of overflowing. Offsets and carries stay below 2^33.
            let v = out.get(var).wrapping_sub(self.mins[i]) as u64 + carry;
            let size = self.sizes[i] as u64;
            if v < size {
                out.set(var, self.mins[i] + v as i64);
                return;
            }
            let digit = if v == size {
                carry = 1;
                0
            } else {
                carry = v / size;
                v % size
            };
            out.set(var, self.mins[i] + digit as i64);
        }
    }

    /// The state at enumeration position `idx`, freshly allocated.
    fn state_of(&self, idx: u64) -> State {
        let mut out = State::zeroed(self.mins.len());
        self.decode_into(idx, &mut out);
        out
    }
}

/// The id↔state bijection of a bounded program's state space — the part of
/// a [`StateSpace`] that costs O(variables), not O(states).
///
/// A `SpaceIndex` knows how many states exist and how to decode any
/// [`StateId`] into a [`State`] (and back via [`id_of`](SpaceIndex::id_of))
/// without materializing anything per state. Passes without a
/// [`StateSpace`] — closure sweeps over a [`Decoder`] and the frontier
/// convergence mode, over its own action tables — are built on a
/// `SpaceIndex`, so no per-state column beyond their own is resident.
///
/// [`Decoder`]: crate::Decoder
#[derive(Debug, Clone)]
pub struct SpaceIndex {
    len: usize,
    radix: Radix,
    digits: Digits,
    /// Variable names, for diagnostics.
    names: Arc<[String]>,
}

impl SpaceIndex {
    /// Derive the index of `program`'s state space, checking that `u32`
    /// ids can number it, without allocating anything proportional to the
    /// space. No option changes the index; `_options` is accepted so that
    /// existing callers keep compiling.
    ///
    /// # Errors
    ///
    /// [`CheckError::Unbounded`] for unbounded programs;
    /// [`CheckError::TooLarge`] past `u32::MAX + 1` states.
    pub fn of_program(program: &Program, _options: CheckOptions) -> Result<Self, CheckError> {
        let (radix, total) = Radix::of(program)?;
        let id_cap = u32::MAX as u128 + 1;
        if total > id_cap {
            return Err(CheckError::TooLarge {
                limit: id_cap as usize,
            });
        }
        Ok(SpaceIndex {
            len: total as usize,
            digits: Digits::new(&radix.sizes, &radix.strides),
            radix,
            names: program
                .vars()
                .iter()
                .map(|d| d.name().to_string())
                .collect(),
        })
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the space has no states.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of variables per state.
    pub fn var_count(&self) -> usize {
        self.radix.var_count()
    }

    /// All state ids.
    pub fn ids(&self) -> impl Iterator<Item = StateId> + '_ {
        (0..self.len).map(StateId::from_index)
    }

    /// The state with id `id`, freshly allocated (use
    /// [`decode_state`](SpaceIndex::decode_state) in loops).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this space.
    pub fn state(&self, id: StateId) -> State {
        assert!(id.index() < self.len, "state id {id} out of range");
        self.radix.state_of(id.0 as u64)
    }

    /// Decode the state with id `id` into `out`, reusing `out`'s buffer:
    /// one division per variable. A loop that moves to higher ids decodes
    /// its first one and [`advance_state`](SpaceIndex::advance_state)s
    /// from there.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this space or `out` has the wrong arity.
    #[inline]
    pub fn decode_state(&self, id: StateId, out: &mut State) {
        assert!(id.index() < self.len, "state id {id} out of range");
        self.radix.decode_into(id.0 as u64, out);
    }

    /// Advance `state`, the decoding of some id `i`, to the decoding of
    /// `i + k` by carries instead of a full decode: it touches one slot
    /// plus one per carry, and divides only at a slot that a carry of more
    /// than 1 reaches, where [`decode_state`](SpaceIndex::decode_state)
    /// divides once per variable. Ids past the last wrap to the first.
    ///
    /// `state` must be a state of this space (every slot in its domain),
    /// and `k` at most [`len`](SpaceIndex::len).
    #[inline]
    pub fn advance_state(&self, state: &mut State, k: usize) {
        debug_assert_eq!(state.len(), self.radix.var_count());
        debug_assert!(k <= self.len);
        self.radix.advance(state, k as u64);
    }

    /// [`advance_state`](SpaceIndex::advance_state) by one: the odometer
    /// step that never divides. Sweeps decode the first id of their range
    /// and step from there. The last state wraps to the first.
    #[inline]
    pub fn step_state(&self, state: &mut State) {
        self.advance_state(state, 1);
    }

    /// A zeroed scratch state of this space's arity.
    pub fn scratch_state(&self) -> State {
        State::zeroed(self.radix.var_count())
    }

    /// The id of `state`, if it belongs to this space (arithmetic
    /// mixed-radix lookup: `O(|vars|)`, no hashing, no allocation).
    #[inline]
    pub fn id_of(&self, state: &State) -> Option<StateId> {
        let idx = self.radix.index_of(state)?;
        debug_assert!((idx as usize) < self.len);
        Some(StateId(idx as u32))
    }

    /// The id of `succ`, a successor of `state` whose id is `id`, from
    /// the slots that differ: the slots are compared four at a time, and
    /// only a changed one pays a range check and a multiply-add. `None` exactly where
    /// [`id_of`](SpaceIndex::id_of)`(succ)` is `None`. No declared write
    /// set is trusted, so an effect that writes an undeclared variable
    /// still gets the right id.
    ///
    /// `state` must be the decoding of `id`.
    #[inline]
    pub fn successor_id(&self, id: StateId, state: &State, succ: &State) -> Option<StateId> {
        let idx = self.radix.successor_index(id.0 as u64, state, succ)?;
        debug_assert!((idx as usize) < self.len);
        Some(StateId(idx as u32))
    }

    /// The first variable of `state` outside its domain, for
    /// [`CheckError::EscapedDomain`] diagnostics.
    pub(crate) fn escaping_var(&self, state: &State) -> usize {
        self.radix.escaping_var(state)
    }

    /// Variable `v`'s domain minimum: the value of its digit 0.
    pub fn min(&self, v: usize) -> i64 {
        self.radix.mins[v]
    }

    /// Variable `v`'s domain size.
    pub fn domain_size(&self, v: usize) -> usize {
        self.radix.sizes[v] as usize
    }

    /// Variable `v`'s stride: the id distance of one step of its value,
    /// so an id is `Σ_v (value_v − min_v) · stride_v`.
    pub fn stride(&self, v: usize) -> usize {
        self.radix.strides[v] as usize
    }

    /// Variable `v`'s name.
    pub(crate) fn name(&self, v: usize) -> &str {
        &self.names[v]
    }

    /// The digit decoder of this space's ids.
    pub(crate) fn digits(&self) -> &Digits {
        &self.digits
    }
}

/// Estimated bytes of per-worker decode scratch for `scratches` reusable
/// `State` buffers of `nv` variables each (slots plus `Vec` header),
/// counted against the memory budget so the `required` figure in
/// [`CheckError::BudgetExceeded`] reflects what the pass actually holds.
pub(crate) fn scratch_bytes(scratches: u64, nv: usize) -> u64 {
    scratches * (8 * nv as u64 + 48)
}

/// The `(action, successor)` transitions of one state: a zero-copy view of
/// a row's guard bytes and successor ids, yielded by
/// [`StateSpace::successors`] and [`Successors::row`].
///
/// Bit `a % 8` of guard byte `a / 8` is set iff action `a` is enabled; the
/// successors are those of the set bits in ascending action id. Iterate it
/// like a `&[(ActionId, StateId)]` row:
///
/// ```ignore
/// for (action, succ) in space.successors(id) { ... }
/// ```
///
/// [`Successors::row`]: crate::Successors::row
/// [`Decoder`]: crate::Decoder
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transitions<'a> {
    guards: &'a [u8],
    succs: &'a [StateId],
}

impl<'a> Transitions<'a> {
    /// A row view over its guard bytes and successor ids: a
    /// [`TableRows`]' or a [`Decoder`]'s row buffer.
    pub(crate) fn new(guards: &'a [u8], succs: &'a [StateId]) -> Self {
        debug_assert_eq!(
            guards
                .iter()
                .map(|b| b.count_ones() as usize)
                .sum::<usize>(),
            succs.len()
        );
        Transitions { guards, succs }
    }

    /// Number of transitions (enabled actions) at this state.
    pub fn len(&self) -> usize {
        self.succs.len()
    }

    /// Whether the state has no enabled action (a deadlock).
    pub fn is_empty(&self) -> bool {
        self.succs.is_empty()
    }

    /// The successor ids of the row, in action-id order.
    pub fn succs(&self) -> &'a [StateId] {
        self.succs
    }

    /// Iterate the `(action, successor)` pairs in action-id order.
    pub fn iter(&self) -> TransitionsIter<'a> {
        self.into_iter()
    }
}

/// The set bits of a row's guard bytes, as action indices in ascending
/// order.
#[derive(Debug, Clone)]
pub(crate) struct GuardBits<'a> {
    bytes: std::slice::Iter<'a, u8>,
    /// The unvisited bits of the current byte.
    bits: u8,
    /// The action index of the current byte's bit 0.
    base: usize,
}

impl<'a> GuardBits<'a> {
    pub(crate) fn new(guards: &'a [u8]) -> Self {
        let mut bytes = guards.iter();
        let bits = bytes.next().copied().unwrap_or(0);
        GuardBits {
            bytes,
            bits,
            base: 0,
        }
    }
}

impl Iterator for GuardBits<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.bits = *self.bytes.next()?;
            self.base += 8;
        }
        let a = self.base + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(a)
    }
}

/// Iterator over a row's `(action, successor)` pairs.
#[derive(Debug, Clone)]
pub struct TransitionsIter<'a> {
    actions: GuardBits<'a>,
    succs: std::slice::Iter<'a, StateId>,
}

impl Iterator for TransitionsIter<'_> {
    type Item = (ActionId, StateId);

    #[inline]
    fn next(&mut self) -> Option<(ActionId, StateId)> {
        let &succ = self.succs.next()?;
        let a = self
            .actions
            .next()
            .expect("one set guard bit per successor");
        Some((ActionId::from_index(a), succ))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.succs.size_hint()
    }
}

impl ExactSizeIterator for TransitionsIter<'_> {}

impl<'a> IntoIterator for Transitions<'a> {
    type Item = (ActionId, StateId);
    type IntoIter = TransitionsIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        TransitionsIter {
            actions: GuardBits::new(self.guards),
            succs: self.succs.iter(),
        }
    }
}

/// The fully enumerated state space of a bounded program, with transitions.
///
/// States are never materialized: a state is a pure mixed-radix function of
/// its id (see the [module docs](self)), decoded on demand by
/// [`state`](StateSpace::state) / [`decode_state`](StateSpace::decode_state).
/// No transition is stored either: each action keeps a footprint table,
/// and a row is computed from them by a [`TableRows`] reader
/// ([`rows`](StateSpace::rows)), in ascending action id. Resident memory
/// is the tables, [`resident_bytes`](StateSpace::resident_bytes), a few
/// kilobytes on the shipped designs.
#[derive(Debug, Clone)]
pub struct StateSpace {
    index: SpaceIndex,
    tables: ActionTables,
    transitions: u64,
}

/// Bytes of the per-state columns every resident verification holds
/// beside the tables, over `n` states: the `T` and `S` caches, and the
/// convergence peel's two bits a state.
pub(crate) fn column_bytes(n: usize) -> u64 {
    4 * (n.div_ceil(64) as u64 * 8)
}

impl StateSpace {
    /// Enumerate the full state space of `program`, with the
    /// [default options](CheckOptions::default).
    ///
    /// ```
    /// use nonmask_program::{Domain, Program};
    /// use nonmask_checker::StateSpace;
    ///
    /// let mut b = Program::builder("two-bools");
    /// b.var("a", Domain::Bool);
    /// b.var("b", Domain::Bool);
    /// let p = b.build();
    /// let space = StateSpace::enumerate(&p)?;
    /// assert_eq!(space.len(), 4);
    /// # Ok::<(), nonmask_checker::CheckError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`CheckError::Unbounded`] for unbounded programs;
    /// [`CheckError::TooLarge`] past `u32::MAX + 1` states;
    /// [`CheckError::BudgetExceeded`] when the tables and the per-state
    /// columns would not fit the memory budget;
    /// [`CheckError::UndeclaredVariable`] when the tables' audit finds an
    /// action's guard or effect depending on, or its effect writing, a
    /// variable outside its declared reads and writes (the audit is not
    /// exhaustive: see [`footprint`](crate::footprint));
    /// [`CheckError::EscapedDomain`] when an action
    /// writes outside a domain; [`CheckError::WorkerFailed`] when a guard
    /// or action body panics.
    pub fn enumerate(program: &Program) -> Result<Self, CheckError> {
        Self::enumerate_with_options(program, CheckOptions::default())
    }

    /// Enumerate with explicit [`CheckOptions`] (worker threads, memory
    /// budget, segment size). The result is identical for every thread
    /// count.
    ///
    /// # Errors
    ///
    /// Same as [`StateSpace::enumerate`].
    pub fn enumerate_with_options(
        program: &Program,
        options: CheckOptions,
    ) -> Result<Self, CheckError> {
        Self::enumerate_journaled(program, options, &Journal::disabled())
    }

    /// [`enumerate_with_options`](StateSpace::enumerate_with_options),
    /// additionally recording one [`Event::CsrPhase`] record, phase
    /// `"fill"`, with the states, the exact transition count, and the
    /// build's wall-clock micros. A [disabled](Journal::disabled) journal
    /// makes this identical to the un-journaled call.
    ///
    /// # Errors
    ///
    /// Same as [`StateSpace::enumerate`].
    pub fn enumerate_journaled(
        program: &Program,
        options: CheckOptions,
        journal: &Journal,
    ) -> Result<Self, CheckError> {
        let index = SpaceIndex::of_program(program, options)?;
        let n = index.len();
        let budget = options.memory_budget;
        let plan = ActionPlan::of(program, &index);
        let required = plan.bytes(&index) as u64 + column_bytes(n);
        if required > budget {
            return Err(CheckError::BudgetExceeded {
                required,
                budget,
                phase: "columns",
            });
        }
        let started = std::time::Instant::now();
        let per_row = plan.has_per_row();
        let (tables, escape) = ActionTables::build(program, &index, plan)?;
        let (per_row_transitions, per_row_escape) = if per_row {
            per_row_pass(&index, tables.per_row(), options)?
        } else {
            (0, None)
        };
        // The first escape of a scan in id order, then action order.
        if let Some((_, a, var)) = escape.into_iter().chain(per_row_escape).min() {
            return Err(CheckError::escaped(program, &index, a, var));
        }
        let transitions = tables.tabled_transitions() + per_row_transitions;
        journal.emit_with(|| Event::CsrPhase {
            phase: "fill".to_string(),
            states: n as u64,
            transitions,
            micros: started.elapsed().as_micros() as u64,
        });
        Ok(StateSpace {
            index,
            tables,
            transitions,
        })
    }

    /// The id↔state bijection of this space, without the tables. Hand
    /// this to passes that evaluate transitions on demand.
    pub fn index(&self) -> &SpaceIndex {
        &self.index
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the space has no states (impossible for valid programs — a
    /// program with zero variables still has the single empty state).
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Number of variables per state.
    pub fn var_count(&self) -> usize {
        self.index.var_count()
    }

    /// Number of actions of the program the space was enumerated from.
    pub fn action_count(&self) -> usize {
        self.tables.action_count()
    }

    /// All state ids.
    pub fn ids(&self) -> impl Iterator<Item = StateId> + '_ {
        self.index.ids()
    }

    /// The state with id `id`, decoded from the id (freshly allocated; use
    /// [`decode_state`](StateSpace::decode_state) in loops).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this space.
    pub fn state(&self, id: StateId) -> State {
        self.index.state(id)
    }

    /// Decode the state with id `id` into `out`, reusing `out`'s buffer
    /// (see [`scratch_state`](StateSpace::scratch_state)).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this space or `out` has the wrong arity.
    #[inline]
    pub fn decode_state(&self, id: StateId, out: &mut State) {
        self.index.decode_state(id, out);
    }

    /// A zeroed scratch state of this space's arity, for
    /// [`decode_state`](StateSpace::decode_state) loops.
    pub fn scratch_state(&self) -> State {
        self.index.scratch_state()
    }

    /// The id of `state`, if it belongs to this space.
    ///
    /// This is the arithmetic mixed-radix lookup: `O(|vars|)` with no
    /// hashing or allocation.
    pub fn id_of(&self, state: &State) -> Option<StateId> {
        self.index.id_of(state)
    }

    /// The footprint tables of the space's actions.
    pub(crate) fn tables(&self) -> &ActionTables {
        &self.tables
    }

    /// A reader of this space's rows: the loop-friendly way to read many
    /// of them, cheapest in ascending id order.
    pub fn rows(&self) -> TableRows<'_> {
        TableRows::new(&self.index, &self.tables)
    }

    /// The `(action, successor)` pairs of every action enabled at `id`, in
    /// action-id order, freshly allocated (read many rows with
    /// [`rows`](StateSpace::rows)).
    pub fn successors(&self, id: StateId) -> Vec<(ActionId, StateId)> {
        self.rows().transitions(id).iter().collect()
    }

    /// Only the successor ids of `id`, in action-id order, freshly
    /// allocated.
    pub fn successor_ids(&self, id: StateId) -> Vec<StateId> {
        self.rows().transitions(id).succs().to_vec()
    }

    /// Ids of the states satisfying `pred` (parallel scan with the
    /// [default options](CheckOptions::default)).
    ///
    /// # Errors
    ///
    /// [`CheckError::WorkerFailed`] if `pred` panics.
    pub fn satisfying(&self, pred: &Predicate) -> Result<Vec<StateId>, CheckError> {
        Ok(Bitset::for_predicate(self, pred, CheckOptions::default())?
            .iter_ones()
            .map(StateId::from_index)
            .collect())
    }

    /// Number of states satisfying `pred` (parallel scan with the
    /// [default options](CheckOptions::default)).
    ///
    /// # Errors
    ///
    /// [`CheckError::WorkerFailed`] if `pred` panics.
    pub fn count_satisfying(&self, pred: &Predicate) -> Result<usize, CheckError> {
        Ok(Bitset::for_predicate(self, pred, CheckOptions::default())?.count_ones())
    }

    /// Total number of transitions, counted from the tables.
    pub fn transition_count(&self) -> usize {
        self.transitions as usize
    }

    /// Resident bytes of the space: the footprint tables and their key
    /// layout, plus the radix and the digit decoder (40 bytes per
    /// *variable*). Nothing here grows with the state count; this is what
    /// [`CheckOptions::memory_budget`] charges for the space itself.
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.tables.bytes() + self.index.var_count() * 5 * 8
    }
}

/// The transitions and first escape of the actions evaluated per row:
/// every guard at every state, in parallel over the segment plan, as the
/// [`Decoder`](crate::Decoder) evaluates them.
///
/// # Errors
///
/// [`CheckError::WorkerFailed`] when a guard or action body panics.
fn per_row_pass(
    index: &SpaceIndex,
    actions: &[(usize, nonmask_program::Action)],
    options: CheckOptions,
) -> Result<(u64, Option<Escape>), CheckError> {
    let n = index.len();
    let plan = options.segment_plan(n);
    let segments = steal_tasks(plan.count(), options.workers_for(n), |ti| {
        let range = plan.range(ti);
        let (mut state, mut succ) = (index.scratch_state(), index.scratch_state());
        index.decode_state(StateId::from_index(range.start), &mut state);
        let mut count = 0u64;
        for i in range {
            let id = StateId::from_index(i);
            for &(a, ref act) in actions {
                if !act.enabled(&state) {
                    continue;
                }
                if let Err(v) = successor(act, index, id, &state, &mut succ) {
                    return (count, Some((id, a, v)));
                }
                count += 1;
            }
            index.step_state(&mut state);
        }
        (count, None)
    })?;
    let mut total = 0;
    for (count, escape) in segments {
        total += count;
        if escape.is_some() {
            return Ok((total, escape));
        }
    }
    Ok((total, None))
}

/// Rows computed from per-action footprint tables, a [`StateSpace`]'s or
/// the frontier check's: a reader that holds one state's table keys, so
/// consecutive ids cost an odometer step and any other id one decode.
/// Memory is one row plus, for actions evaluated per row, two scratch
/// states.
#[derive(Debug)]
pub struct TableRows<'a> {
    index: &'a SpaceIndex,
    tables: &'a ActionTables,
    cursor: Cursor,
    buf: RowBuf,
}

impl<'a> TableRows<'a> {
    pub(crate) fn new(index: &'a SpaceIndex, tables: &'a ActionTables) -> Self {
        TableRows {
            index,
            tables,
            cursor: tables.cursor(index),
            buf: tables.row_buf(index),
        }
    }

    /// The `(action, successor)` row of `id`, in action-id order.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this space.
    #[inline]
    pub fn transitions(&mut self, id: StateId) -> Transitions<'_> {
        self.try_transitions(id)
            .unwrap_or_else(|_| unreachable!("a space's build rejects every escape"))
    }

    /// [`transitions`](Self::transitions), or the first action of the row
    /// whose successor leaves the space and the variable it leaves: only
    /// tables built outside a [`StateSpace`] keep escapes.
    #[inline]
    pub(crate) fn try_transitions(
        &mut self,
        id: StateId,
    ) -> Result<Transitions<'_>, (usize, usize)> {
        assert!(id.index() < self.index.len(), "state id {id} out of range");
        let n = self
            .tables
            .row(self.index, &mut self.cursor, id, &mut self.buf)?;
        Ok(Transitions::new(&self.buf.guards, &self.buf.succs[..n]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::successors::{Decoder, Successors};
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
        b.build()
    }

    #[test]
    fn enumerates_all_states_and_transitions() {
        let p = counter(4);
        let space = StateSpace::enumerate(&p).unwrap();
        assert_eq!(space.len(), 5);
        assert_eq!(space.transition_count(), 4, "inc is disabled at x=4");
        for id in space.ids() {
            let x = space.state(id).slots()[0];
            if x < 4 {
                let succs = space.successor_ids(id);
                assert_eq!(succs.len(), 1);
                assert_eq!(space.state(succs[0]).slots()[0], x + 1);
            } else {
                assert!(space.successors(id).is_empty());
            }
        }
    }

    #[test]
    fn id_of_roundtrips() {
        let p = counter(3);
        let space = StateSpace::enumerate(&p).unwrap();
        for id in space.ids() {
            assert_eq!(space.id_of(&space.state(id)), Some(id));
        }
        assert_eq!(space.id_of(&State::new(vec![99])), None);
    }

    #[test]
    fn id_of_rejects_malformed_states() {
        let p = counter(3);
        let space = StateSpace::enumerate(&p).unwrap();
        // Wrong arity.
        assert_eq!(space.id_of(&State::new(vec![0, 0])), None);
        assert_eq!(space.id_of(&State::new(vec![])), None);
        // Below the domain minimum (negative offset must not wrap).
        assert_eq!(space.id_of(&State::new(vec![-1])), None);
        assert_eq!(space.id_of(&State::new(vec![i64::MIN])), None);
    }

    #[test]
    fn arithmetic_ids_match_enumeration_order() {
        // Mixed domains with nonzero minimum: id must equal position.
        let mut b = Program::builder("mixed");
        b.var("a", Domain::range(-2, 1));
        b.var("b", Domain::Bool);
        b.var("c", Domain::enumeration(["p", "q", "r"]));
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        assert_eq!(space.len(), 4 * 2 * 3);
        for (pos, s) in p.enumerate_states().unwrap().enumerate() {
            assert_eq!(space.id_of(&s).unwrap().index(), pos);
            assert_eq!(space.state(StateId::from_index(pos)), s);
        }
    }

    #[test]
    fn decode_state_matches_state() {
        let p = counter(17);
        let space = StateSpace::enumerate(&p).unwrap();
        let mut scratch = space.scratch_state();
        for id in space.ids() {
            space.decode_state(id, &mut scratch);
            assert_eq!(scratch, space.state(id));
        }
    }

    #[test]
    fn step_state_is_the_next_decoding() {
        // A negative minimum, a single-value domain, a boolean and an
        // enumeration: every carry shape, ending in a carry through every
        // slot at the last id, which wraps to the first.
        let mut b = Program::builder("odometer");
        b.var("a", Domain::range(-3, -1));
        b.var("one", Domain::range(7, 7));
        b.var("b", Domain::Bool);
        b.var("c", Domain::enumeration(["p", "q", "r"]));
        let index = SpaceIndex::of_program(&b.build(), CheckOptions::default()).unwrap();
        assert_eq!(index.len(), 3 * 2 * 3);
        let mut stepped = index.state(StateId(0));
        for i in 1..index.len() {
            index.step_state(&mut stepped);
            assert_eq!(stepped, index.state(StateId::from_index(i)), "id {i}");
        }
        assert_eq!(stepped.slots(), &[-1, 7, 1, 2]);
        index.step_state(&mut stepped);
        assert_eq!(stepped, index.state(StateId(0)));
        assert_eq!(stepped.slots(), &[-3, 7, 0, 0]);
        // Advancing by any gap up to a full turn: a gap that overflows a
        // digit by more than one divides there.
        let n = index.len();
        for i in 0..n {
            for k in 0..=n {
                index.decode_state(StateId::from_index(i), &mut stepped);
                index.advance_state(&mut stepped, k);
                let want = index.state(StateId::from_index((i + k) % n));
                assert_eq!(stepped, want, "id {i} + {k}");
            }
        }

        // A domain ending at `i64::MAX` steps off its top value without
        // overflowing.
        let mut b = Program::builder("top");
        b.var("hi", Domain::range(i64::MAX - 1, i64::MAX));
        b.var("lo", Domain::range(i64::MAX - 2, i64::MAX));
        let index = SpaceIndex::of_program(&b.build(), CheckOptions::default()).unwrap();
        let mut stepped = index.state(StateId(0));
        for i in 1..index.len() {
            index.step_state(&mut stepped);
            assert_eq!(stepped, index.state(StateId::from_index(i)), "id {i}");
        }
        assert_eq!(stepped.slots(), &[i64::MAX, i64::MAX]);
        index.step_state(&mut stepped);
        assert_eq!(stepped.slots(), &[i64::MAX - 1, i64::MAX - 2]);
        // … and takes a multi-digit carry off it.
        index.decode_state(StateId(2), &mut stepped);
        index.advance_state(&mut stepped, 3);
        assert_eq!(stepped.slots(), &[i64::MAX, i64::MAX]);
    }

    #[test]
    fn successor_id_is_id_of_the_successor() {
        // Negative minima, an effect that writes a variable it does not
        // declare, a self-loop, and an effect that leaves the domain.
        let mut b = Program::builder("moves");
        let x = b.var("x", Domain::range(-2, 1));
        let y = b.var("y", Domain::Bool);
        let z = b.var("z", Domain::range(-5, -3));
        b.closure_action(
            "x-and-z",
            [x],
            [x],
            |_| true,
            move |s| {
                s.set(x, -1 - s.get(x));
                s.set(z, -8 - s.get(z));
            },
        );
        b.closure_action("stay", [y], [y], |_| true, |_| {});
        b.closure_action(
            "z-down",
            [z],
            [z],
            |_| true,
            move |s| s.set(z, s.get(z) - 1),
        );
        let p = b.build();
        let index = SpaceIndex::of_program(&p, CheckOptions::default()).unwrap();
        let mut succ = index.scratch_state();
        let mut escapes = 0;
        for id in index.ids() {
            let state = index.state(id);
            for a in p.action_ids() {
                p.action(a).successor_into(&state, &mut succ);
                let got = index.successor_id(id, &state, &succ);
                assert_eq!(got, index.id_of(&succ), "{} at {id}", p.action(a).name());
                escapes += usize::from(got.is_none());
            }
        }
        assert_eq!(escapes, 4 * 2, "z-down escapes at z = -5");
        let state = index.state(StateId(0));
        assert_eq!(
            index.successor_id(StateId(0), &state, &State::new(vec![0])),
            None
        );
    }

    #[test]
    fn decoder_rows_match_the_table_in_any_order() {
        // Higher ids advance (by one or by a gap), a repeated id reuses
        // its state, and backward ids decode.
        let mut b = Program::builder("two-counters");
        let x = b.var("x", Domain::range(0, 4));
        let y = b.var("y", Domain::range(-2, 2));
        b.closure_action(
            "inc-y",
            [x, y],
            [y],
            move |s| s.get(y) < 2 && s.get(x) != 3,
            move |s| {
                let v = s.get(y);
                s.set(y, v + 1);
            },
        );
        b.closure_action(
            "zero-x",
            [x],
            [x],
            move |s| s.get(x) > 0,
            move |s| s.set(x, 0),
        );
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let mut rows = Decoder::new(&p, space.index());
        let mut table = space.rows();
        let order = (0..space.len()).chain([3, 3, 2, 24, 0, 1, 2, 17, 5, 6]);
        for i in order {
            let id = StateId::from_index(i);
            assert_eq!(rows.row(id).unwrap(), table.transitions(id), "row {i}");
        }
    }

    #[test]
    fn parallel_enumeration_is_identical() {
        let p = counter(4000);
        let serial = StateSpace::enumerate_with_options(&p, CheckOptions::serial()).unwrap();
        let parallel =
            StateSpace::enumerate_with_options(&p, CheckOptions::default().threads(4)).unwrap();
        assert_eq!(serial.len(), parallel.len());
        assert_eq!(serial.transition_count(), parallel.transition_count());
        for id in serial.ids() {
            assert_eq!(serial.state(id), parallel.state(id));
            assert_eq!(serial.successors(id), parallel.successors(id));
        }
    }

    #[test]
    fn satisfying_filters() {
        let p = counter(9);
        let x = p.var_by_name("x").unwrap();
        let space = StateSpace::enumerate(&p).unwrap();
        let even = Predicate::new("even", [x], move |s| s.get(x) % 2 == 0);
        assert_eq!(space.satisfying(&even).unwrap().len(), 5);
        assert_eq!(space.count_satisfying(&even).unwrap(), 5);
    }

    #[test]
    fn satisfying_is_thread_count_invariant() {
        let p = counter(9999);
        let x = p.var_by_name("x").unwrap();
        let space = StateSpace::enumerate(&p).unwrap();
        let pred = Predicate::new("mod7", [x], move |s| s.get(x) % 7 == 0);
        // `satisfying` is a scan of `Bitset::for_predicate`, here with
        // explicit options.
        let ids = |opts| {
            Bitset::for_predicate(&space, &pred, opts)
                .unwrap()
                .iter_ones()
                .map(StateId::from_index)
                .collect::<Vec<_>>()
        };
        let serial = ids(CheckOptions::serial());
        assert_eq!(serial, ids(CheckOptions::default().threads(4)));
        assert_eq!(serial, space.satisfying(&pred).unwrap());
        assert_eq!(serial.len(), space.count_satisfying(&pred).unwrap());
    }

    #[test]
    fn astronomically_large_spaces_rejected_without_overflow() {
        // 2^40 states: far beyond u32 ids.
        let mut b = Program::builder("huge");
        for i in 0..40 {
            b.var(format!("x{i}"), Domain::Bool);
        }
        let p = b.build();
        assert_eq!(
            StateSpace::enumerate(&p).unwrap_err(),
            CheckError::TooLarge {
                limit: u32::MAX as usize + 1
            }
        );
    }

    #[test]
    fn memory_budget_is_enforced() {
        let p = counter(99_999);
        // 100k states need ~50KB of per-state columns; a 1KB budget must
        // reject the space before anything is built.
        let err =
            StateSpace::enumerate_with_options(&p, CheckOptions::default().memory_budget(1024))
                .unwrap_err();
        let CheckError::BudgetExceeded {
            required,
            budget,
            phase,
        } = err
        else {
            panic!("expected BudgetExceeded, got {err:?}");
        };
        assert_eq!(budget, 1024);
        assert_eq!(phase, "columns");
        assert!(err.to_string().contains("columns phase"));
        // The requirement is the tables (`x` has 100,000 values, past the
        // cap, so `inc` is evaluated per row: its 4-byte start and 4-byte
        // base key and the key layout's two 4-byte bounds, no entry) plus
        // the per-state columns, 4 bits a state. It admits the space
        // exactly.
        assert_eq!(required, 4 * 1563 * 8 + 8 + 8);
        let ok =
            StateSpace::enumerate_with_options(&p, CheckOptions::default().memory_budget(required));
        assert!(ok.is_ok());
        let err = StateSpace::enumerate_with_options(
            &p,
            CheckOptions::default().memory_budget(required - 1),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            CheckError::BudgetExceeded {
                phase: "columns",
                ..
            }
        ));
    }

    #[test]
    fn resident_bytes_counts_the_tables() {
        let p = counter(4);
        let space = StateSpace::enumerate(&p).unwrap();
        // `inc` keys 5 entries of 8 bytes, plus its 4-byte start and
        // 4-byte base key, the key layout's two 4-byte bounds and one
        // 8-byte reader, plus the struct and one variable's 40 bytes of
        // radix and digits.
        let expected = std::mem::size_of::<StateSpace>() + 40 + 4 + 4 + 8 + 8 + 40;
        assert_eq!(space.resident_bytes(), expected);
    }

    #[test]
    fn multi_word_rows_iterate_in_action_order() {
        // 128 actions, sixteen guard bytes per state; only actions 0, 63,
        // 64 and 127 are ever enabled, each moving `x` to its own index, so
        // every row sets the edge bits of bytes 0, 7, 8 and 15 and skips
        // the empty bytes between them.
        let mut b = Program::builder("wide");
        let x = b.var("x", Domain::range(0, 127));
        for a in 0..128i64 {
            let on = matches!(a, 0 | 63 | 64 | 127);
            b.closure_action(format!("a{a}"), [x], [x], move |_| on, move |s| s.set(x, a));
        }
        let p = b.build();
        let opts = CheckOptions::default().segment_states(7);
        let space = StateSpace::enumerate_with_options(&p, opts).unwrap();
        assert_eq!(space.transition_count(), 4 * 128);
        let mut rows = Decoder::new(&p, space.index());
        for id in space.ids() {
            let row = space.successors(id);
            let pairs: Vec<_> = row.iter().map(|(a, t)| (a.index(), t.index())).collect();
            assert_eq!(pairs, [(0, 0), (63, 63), (64, 64), (127, 127)], "row {id}");
            let decoded: Vec<_> = rows.row(id).unwrap().iter().collect();
            assert_eq!(decoded, row, "decoded row {id}");
        }
    }

    #[test]
    fn unbounded_rejected() {
        let mut b = Program::builder("u");
        b.var("y", Domain::Unbounded);
        let p = b.build();
        assert!(matches!(
            StateSpace::enumerate(&p).unwrap_err(),
            CheckError::Unbounded { var } if var == "y"
        ));
    }

    #[test]
    fn escaping_action_is_an_error() {
        let mut b = Program::builder("bad");
        let x = b.var("x", Domain::range(0, 2));
        b.closure_action("overflow", [x], [x], |_| true, move |s| s.set(x, 7));
        let p = b.build();
        let err = StateSpace::enumerate(&p).unwrap_err();
        assert_eq!(
            err,
            CheckError::EscapedDomain {
                action: "overflow".into(),
                var: "x".into()
            }
        );
        assert!(err.to_string().contains("left the state space"));
    }

    #[test]
    fn escapes_of_tabled_and_per_row_actions_are_ordered_by_state() {
        // Thirteen booleans and a last variable `x ∈ 0..=2`. `narrow`
        // (tabled, footprint `x`) escapes at `x = 2`, id 2; `wide` reads
        // every variable, past the cap, so it is evaluated per row, and
        // escapes at the lowest state its guard admits. The first escape
        // in id order is reported, whichever kind of action it is.
        let build = |wide_guard: fn(&State) -> bool| {
            let mut b = Program::builder("two-escapes");
            let bools: Vec<_> = (0..13)
                .map(|i| b.var(format!("b{i}"), Domain::Bool))
                .collect();
            let x = b.var("x", Domain::range(0, 2));
            let reads: Vec<_> = bools.iter().copied().chain([x]).collect();
            b.closure_action("wide", reads, [x], wide_guard, move |s| s.set(x, 5));
            b.closure_action(
                "narrow",
                [x],
                [x],
                move |s| s.get(x) == 2,
                move |s| s.set(x, 7),
            );
            b.build()
        };
        let escaped = |p: &Program| match StateSpace::enumerate(p).unwrap_err() {
            CheckError::EscapedDomain { action, var } => (action, var),
            other => panic!("expected EscapedDomain, got {other:?}"),
        };
        // `wide` everywhere: id 0, before `narrow`'s id 2.
        assert_eq!(escaped(&build(|_| true)), ("wide".into(), "x".into()));
        // `wide` only where `b12` holds: id 3, after `narrow`'s id 2.
        let p = build(|s| s.slots()[12] == 1);
        assert_eq!(escaped(&p), ("narrow".into(), "x".into()));
    }

    #[test]
    fn escape_reports_lowest_state_deterministically() {
        // `bad` escapes only at x >= 3; every worker count must report the
        // same (first) witness action.
        let mut b = Program::builder("bad2");
        let x = b.var("x", Domain::range(0, 5000));
        b.closure_action(
            "fine",
            [x],
            [x],
            move |s| s.get(x) < 5000,
            move |s| {
                let v = s.get(x);
                s.set(x, v + 1);
            },
        );
        b.closure_action(
            "bad",
            [x],
            [x],
            move |s| s.get(x) >= 3,
            move |s| s.set(x, -1),
        );
        let p = b.build();
        for threads in [1, 2, 8] {
            let err =
                StateSpace::enumerate_with_options(&p, CheckOptions::default().threads(threads))
                    .unwrap_err();
            assert_eq!(
                err,
                CheckError::EscapedDomain {
                    action: "bad".into(),
                    var: "x".into()
                },
                "threads={threads}"
            );
        }
    }

    #[test]
    fn multi_var_space_size() {
        let mut b = Program::builder("mv");
        b.var("a", Domain::Bool);
        b.var("b", Domain::range(0, 2));
        b.var("c", Domain::enumeration(["x", "y"]));
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        assert_eq!(space.len(), 2 * 3 * 2);
    }
}
