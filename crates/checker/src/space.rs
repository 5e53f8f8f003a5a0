//! State-space enumeration and compact CSR storage.
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
//! # CSR transition storage
//!
//! Transitions are stored in compressed-sparse-row form: one `offsets` array
//! with `len + 1` entries plus two parallel flat arrays `actions` / `succs`,
//! so the transitions of state `i` are the slices
//! `actions[offsets[i]..offsets[i+1]]` and `succs[offsets[i]..offsets[i+1]]`.
//! The resident cost is **4 bytes per state + 8 bytes per transition**,
//! independent of the number of variables — versus the seed representation's
//! per-state heap-allocated `State` plus per-state `Vec` row (~100+ bytes per
//! state), an order-of-magnitude cut for protocol-sized programs.
//!
//! Construction is two-phase so results are bit-identical for every thread
//! count: phase 1 counts enabled actions per state, a sequential prefix sum
//! turns the counts into `offsets` (checking the `u32` edge-count bound),
//! and phase 2 fills disjoint sub-slices of the final arrays in place. Both
//! phases run under the work-stealing scheduler over the
//! [segment plan](CheckOptions::segment_plan): tasks are contiguous id
//! ranges claimed from a shared atomic counter, and per-task results are
//! merged in task order, so the layout is independent of thread count and
//! scheduling. Guards are evaluated twice (once per phase); the paper's
//! guarded commands are pure, so the trade is deterministic layout and half
//! the peak memory of a collect-then-concatenate build.
//!
//! The decode machinery is factored into [`SpaceIndex`] — the id↔state
//! bijection *without* any transition arrays. Out-of-core passes (closure
//! sweeps over a [`Decoder`], the frontier convergence mode) work from a
//! `SpaceIndex` alone and re-derive transitions on demand, so the full
//! CSR never needs to be resident.
//!
//! # Memory budget
//!
//! The id range allows up to `u32::MAX + 1` states; what actually bounds a
//! run is the [`CheckOptions::memory_budget`]: enumeration rejects a space
//! whose resident bytes — CSR arrays plus the transient counts column and
//! per-worker decode scratch — would exceed it, instead of the seed's blunt
//! 2-million-state cap. The [`SpaceError::BudgetExceeded`] error names the
//! phase (`"offsets"` or `"succs"`) whose requirement tripped first.
//!
//! [`id_of`]: StateSpace::id_of
//! [`state`]: StateSpace::state
//! [`decode_state`]: StateSpace::decode_state

use nonmask_obs::{Event, Journal};
use nonmask_program::{ActionId, Predicate, Program, State, VarId};

use crate::cache::Bitset;
use crate::error::CheckError;
use crate::options::{split_lens, steal_parts, steal_tasks, CheckOptions};
use crate::successors::{Decoder, Successors};

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

/// Errors raised while enumerating a state space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpaceError {
    /// The program has an unbounded variable; its state space cannot be
    /// enumerated. Bound the variable (e.g. the `mod K` token-ring
    /// refinement) to check it.
    Unbounded {
        /// Name of the unbounded variable.
        var: String,
    },
    /// The state space has more states than `u32` ids can number.
    TooLarge {
        /// The limit that was exceeded: `u32::MAX + 1` states.
        limit: usize,
    },
    /// A build phase would exceed the configured
    /// [`CheckOptions::memory_budget`]. Raise the budget (or switch
    /// convergence-only queries to the frontier mode) to check larger
    /// instances.
    BudgetExceeded {
        /// Resident bytes the tripping phase would need (CSR arrays plus
        /// transient build metadata and per-worker scratch).
        required: u64,
        /// The configured budget in bytes.
        budget: u64,
        /// Which build phase tripped: `"offsets"` (per-state counts +
        /// offsets column), `"succs"` (flat transition arrays),
        /// `"frontier bitsets"` (the frontier mode's predicate, region,
        /// resolved and delta bitsets), or `"frontier rows"` (those
        /// bitsets plus one round's row buffer per worker).
        phase: &'static str,
    },
    /// The space has more transitions than CSR `u32` offsets can index.
    TooManyTransitions {
        /// The transition count that overflowed the `u32` range.
        count: u64,
    },
    /// An action wrote a value outside its variable's domain, producing a
    /// successor that is not a state of the space. Domains must be closed
    /// under all actions.
    EscapedDomain {
        /// Name of the offending action.
        action: String,
        /// Name of the variable whose domain was escaped.
        var: String,
    },
    /// An enumeration worker panicked while evaluating a guard or action
    /// body (see [`CheckError::WorkerFailed`]).
    WorkerFailed {
        /// The panic payload, rendered as a string.
        payload: String,
    },
}

impl std::fmt::Display for SpaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpaceError::Unbounded { var } => write!(
                f,
                "variable `{var}` is unbounded; state space cannot be enumerated"
            ),
            SpaceError::TooLarge { limit } => {
                write!(f, "state space exceeds the limit of {limit} states")
            }
            SpaceError::BudgetExceeded {
                required,
                budget,
                phase,
            } => write!(
                f,
                "state space needs {required} resident bytes in the {phase} phase, over the \
                 memory budget of {budget} bytes; raise `CheckOptions::memory_budget` to check it"
            ),
            SpaceError::TooManyTransitions { count } => write!(
                f,
                "state space has {count} transitions, more than CSR u32 offsets can index"
            ),
            SpaceError::EscapedDomain { action, var } => write!(
                f,
                "action `{action}` left the state space (wrote `{var}` outside its domain); \
                 domains must be closed under all actions"
            ),
            SpaceError::WorkerFailed { payload } => {
                write!(f, "enumeration worker panicked: {payload}")
            }
        }
    }
}

impl std::error::Error for SpaceError {}

impl From<CheckError> for SpaceError {
    fn from(e: CheckError) -> Self {
        match e {
            CheckError::WorkerFailed { payload } => SpaceError::WorkerFailed { payload },
            CheckError::Space(e) => e,
            // Containment sweeps never run during space construction; keep
            // the conversion total for error-context plumbing.
            other @ CheckError::NonMonotoneContainment { .. } => SpaceError::WorkerFailed {
                payload: other.to_string(),
            },
        }
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
    fn of(program: &Program) -> Result<(Radix, u128), SpaceError> {
        let n = program.var_count();
        let mut mins = vec![0i64; n];
        let mut sizes = vec![0i64; n];
        for i in 0..n {
            let decl = program.var(VarId::from_index(i));
            let Some(size) = decl.domain().size() else {
                return Err(SpaceError::Unbounded {
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
    /// for [`SpaceError::EscapedDomain`] diagnostics.
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
/// without materializing anything per state. Out-of-core passes — closure
/// sweeps over a [`Decoder`] and the frontier convergence mode — are built
/// on a `SpaceIndex` plus on-demand successor evaluation, so the
/// transition relation never needs to be resident at once.
#[derive(Debug, Clone)]
pub struct SpaceIndex {
    len: usize,
    radix: Radix,
}

impl SpaceIndex {
    /// Derive the index of `program`'s state space, checking that `u32`
    /// ids can number it, without allocating anything proportional to the
    /// space. No option changes the index; `_options` is accepted so that
    /// existing callers keep compiling.
    ///
    /// # Errors
    ///
    /// [`SpaceError::Unbounded`] for unbounded programs;
    /// [`SpaceError::TooLarge`] past `u32::MAX + 1` states.
    pub fn of_program(program: &Program, _options: CheckOptions) -> Result<Self, SpaceError> {
        let (radix, total) = Radix::of(program)?;
        let id_cap = u32::MAX as u128 + 1;
        if total > id_cap {
            return Err(SpaceError::TooLarge {
                limit: id_cap as usize,
            });
        }
        Ok(SpaceIndex {
            len: total as usize,
            radix,
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
    /// [`SpaceError::EscapedDomain`] diagnostics.
    pub(crate) fn escaping_var(&self, state: &State) -> usize {
        self.radix.escaping_var(state)
    }
}

/// Estimated bytes of per-worker decode scratch for `scratches` reusable
/// `State` buffers of `nv` variables each (slots plus `Vec` header),
/// counted against the memory budget so the `required` figure in
/// [`SpaceError::BudgetExceeded`] reflects what the pass actually holds.
pub(crate) fn scratch_bytes(scratches: u64, nv: usize) -> u64 {
    scratches * (8 * nv as u64 + 48)
}

/// The `(action, successor)` transitions of one state: a zero-copy view of
/// two parallel CSR row slices, yielded by [`StateSpace::successors`].
///
/// Iterate it like the former `&[(ActionId, StateId)]` rows:
///
/// ```ignore
/// for (action, succ) in space.successors(id) { ... }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transitions<'a> {
    actions: &'a [ActionId],
    succs: &'a [StateId],
}

impl<'a> Transitions<'a> {
    /// A row view over parallel action/successor slices: a CSR row or a
    /// [`Decoder`]'s row buffer.
    pub(crate) fn new(actions: &'a [ActionId], succs: &'a [StateId]) -> Self {
        debug_assert_eq!(actions.len(), succs.len());
        Transitions { actions, succs }
    }

    /// Number of transitions (enabled actions) at this state.
    pub fn len(&self) -> usize {
        self.succs.len()
    }

    /// Whether the state has no enabled action (a deadlock).
    pub fn is_empty(&self) -> bool {
        self.succs.is_empty()
    }

    /// The actions of the row, parallel to [`Transitions::succs`].
    pub fn actions(&self) -> &'a [ActionId] {
        self.actions
    }

    /// The successor ids of the row, parallel to [`Transitions::actions`].
    pub fn succs(&self) -> &'a [StateId] {
        self.succs
    }

    /// The `k`-th `(action, successor)` pair.
    ///
    /// # Panics
    ///
    /// Panics if `k >= len()`.
    pub fn get(&self, k: usize) -> (ActionId, StateId) {
        (self.actions[k], self.succs[k])
    }

    /// Iterate the `(action, successor)` pairs in action-id order.
    pub fn iter(&self) -> TransitionsIter<'a> {
        self.into_iter()
    }
}

/// Iterator over a CSR row's `(action, successor)` pairs.
pub type TransitionsIter<'a> = std::iter::Zip<
    std::iter::Copied<std::slice::Iter<'a, ActionId>>,
    std::iter::Copied<std::slice::Iter<'a, StateId>>,
>;

impl<'a> IntoIterator for Transitions<'a> {
    type Item = (ActionId, StateId);
    type IntoIter = TransitionsIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.actions.iter().copied().zip(self.succs.iter().copied())
    }
}

/// The fully enumerated state space of a bounded program, with transitions.
///
/// States are never materialized: a state is a pure mixed-radix function of
/// its id (see the [module docs](self)), decoded on demand by
/// [`state`](StateSpace::state) / [`decode_state`](StateSpace::decode_state).
/// Transitions live in three flat CSR arrays (`offsets`, `actions`,
/// `succs`), built in parallel over disjoint id ranges when
/// [`CheckOptions::threads`] allows; the result is bit-identical for every
/// thread count. Resident memory is `4·(len+1) + 8·transition_count` bytes,
/// gated by [`CheckOptions::memory_budget`].
#[derive(Debug, Clone)]
pub struct StateSpace {
    index: SpaceIndex,
    /// CSR row bounds: state `i`'s transitions are `offsets[i]..offsets[i+1]`.
    offsets: Vec<u32>,
    /// Flat action column, parallel to `succs`.
    actions: Vec<ActionId>,
    /// Flat successor column, parallel to `actions`.
    succs: Vec<StateId>,
}

/// Exclusive prefix sum of per-state transition counts, producing the CSR
/// `offsets` array (`counts.len() + 1` entries).
///
/// # Errors
///
/// The total transition count when it exceeds the `u32` offset range.
pub(crate) fn offsets_from_counts(counts: &[u32]) -> Result<Vec<u32>, u64> {
    let total: u64 = counts.iter().map(|&c| c as u64).sum();
    if total > u32::MAX as u64 {
        return Err(total);
    }
    let mut offsets = Vec::with_capacity(counts.len() + 1);
    let mut acc = 0u32;
    offsets.push(0);
    for &c in counts {
        // Cannot overflow: the total was checked above.
        acc += c;
        offsets.push(acc);
    }
    Ok(offsets)
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
    /// # Ok::<(), nonmask_checker::SpaceError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`SpaceError::Unbounded`] for unbounded programs;
    /// [`SpaceError::TooLarge`] past `u32::MAX + 1` states;
    /// [`SpaceError::BudgetExceeded`] when the CSR arrays would not fit the
    /// memory budget; [`SpaceError::TooManyTransitions`] when the edge count
    /// overflows `u32` offsets; [`SpaceError::EscapedDomain`] when an action
    /// writes outside a domain.
    pub fn enumerate(program: &Program) -> Result<Self, SpaceError> {
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
    ) -> Result<Self, SpaceError> {
        Self::enumerate_journaled(program, options, &Journal::disabled())
    }

    /// [`enumerate_with_options`](StateSpace::enumerate_with_options),
    /// additionally recording one [`Event::CsrPhase`] record per build
    /// phase (`"count"`, `"fill"`) with states, transitions, and
    /// wall-clock micros. A [disabled](Journal::disabled) journal makes
    /// this identical to the un-journaled call.
    ///
    /// # Errors
    ///
    /// Same as [`StateSpace::enumerate`].
    pub fn enumerate_journaled(
        program: &Program,
        options: CheckOptions,
        journal: &Journal,
    ) -> Result<Self, SpaceError> {
        let index = SpaceIndex::of_program(program, options)?;
        let n = index.len();
        let budget = options.memory_budget;
        let workers = options.workers_for(n);
        let nv = index.var_count();
        let plan = options.segment_plan(n);
        let tasks = plan.count();
        // Budget floor before any large allocation: the offsets column, the
        // transient phase-1 counts column (same size), and one decode
        // scratch per worker.
        let offsets_bytes = 4 * (n as u64 + 1);
        let offsets_phase_bytes = offsets_bytes + 4 * n as u64 + scratch_bytes(workers as u64, nv);
        if offsets_phase_bytes > budget {
            return Err(SpaceError::BudgetExceeded {
                required: offsets_phase_bytes,
                budget,
                phase: "offsets",
            });
        }

        // Phase 1: count enabled actions per state. Work-stealing over the
        // segment plan: whichever worker is free claims the next segment;
        // per-segment count vectors are concatenated in segment order, so
        // the result is identical for every thread count.
        let phase_started = std::time::Instant::now();
        let counts: Vec<u32> = steal_tasks(tasks, workers, |ti| {
            let range = plan.range(ti);
            let mut scratch = State::zeroed(nv);
            let mut out = Vec::with_capacity(range.len());
            index.radix.decode_into(range.start as u64, &mut scratch);
            for _ in range {
                let enabled = program.actions().iter().filter(|a| a.enabled(&scratch));
                out.push(enabled.count() as u32);
                index.step_state(&mut scratch);
            }
            out
        })?
        .into_iter()
        .flatten()
        .collect();

        let offsets = offsets_from_counts(&counts)
            .map_err(|count| SpaceError::TooManyTransitions { count })?;
        drop(counts);
        let m = *offsets.last().expect("offsets never empty") as usize;
        journal.emit_with(|| Event::CsrPhase {
            phase: "count".to_string(),
            states: n as u64,
            transitions: m as u64,
            micros: phase_started.elapsed().as_micros() as u64,
        });
        // Exact requirement now that the edge count is known: offsets plus
        // the two flat columns plus two decode scratches per worker (state
        // and successor buffers in the fill loop).
        let succs_phase_bytes =
            offsets_bytes + 8 * m as u64 + scratch_bytes(2 * workers as u64, nv);
        if succs_phase_bytes > budget {
            return Err(SpaceError::BudgetExceeded {
                required: succs_phase_bytes,
                budget,
                phase: "succs",
            });
        }

        // Phase 2: copy each state's decoded row into the final arrays.
        // The flat columns are pre-split along the plan's offsets into one
        // disjoint sub-slice pair per segment, so any thread count and any
        // claim order produce the identical layout. A worker stops at the
        // first escaping action in its segment, and the lowest segment's
        // escape is reported, matching a sequential scan.
        let mut actions = vec![ActionId::from_index(0); m];
        let mut succs = vec![StateId(0); m];
        let lens: Vec<usize> = (0..tasks)
            .map(|ti| {
                let r = plan.range(ti);
                (offsets[r.end] - offsets[r.start]) as usize
            })
            .collect();
        let parts: Vec<_> = split_lens(&mut actions, lens.iter().copied())
            .into_iter()
            .zip(split_lens(&mut succs, lens))
            .collect();
        let phase_started = std::time::Instant::now();
        let filled = steal_parts(parts, workers, |ti, (actions, succs)| {
            let mut rows = Decoder::new(program, &index);
            let mut k = 0;
            for i in plan.range(ti) {
                let row = rows.row(StateId(i as u32))?;
                let next = k + row.len();
                actions[k..next].copy_from_slice(row.actions());
                succs[k..next].copy_from_slice(row.succs());
                k = next;
            }
            debug_assert_eq!(k, succs.len(), "impure guard: phase-2 count drifted");
            Ok::<(), SpaceError>(())
        })?;
        journal.emit_with(|| Event::CsrPhase {
            phase: "fill".to_string(),
            states: n as u64,
            transitions: m as u64,
            micros: phase_started.elapsed().as_micros() as u64,
        });
        filled.into_iter().collect::<Result<(), _>>()?;

        Ok(StateSpace {
            index,
            offsets,
            actions,
            succs,
        })
    }

    /// The id↔state bijection of this space, without the CSR arrays. Hand
    /// this to passes that re-derive transitions on demand.
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

    /// The `(action, successor)` pairs of every action enabled at `id`, in
    /// action-id order, as a view of the CSR row.
    pub fn successors(&self, id: StateId) -> Transitions<'_> {
        let (lo, hi) = self.row_bounds(id);
        Transitions {
            actions: &self.actions[lo..hi],
            succs: &self.succs[lo..hi],
        }
    }

    /// Only the successor ids of `id` (skips the action column; the fastest
    /// row view for reachability-style sweeps).
    pub fn successor_ids(&self, id: StateId) -> &[StateId] {
        let (lo, hi) = self.row_bounds(id);
        &self.succs[lo..hi]
    }

    #[inline]
    fn row_bounds(&self, id: StateId) -> (usize, usize) {
        let i = id.index();
        (self.offsets[i] as usize, self.offsets[i + 1] as usize)
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

    /// Total number of transitions.
    pub fn transition_count(&self) -> usize {
        self.succs.len()
    }

    /// Resident bytes of the space: the three CSR arrays plus the radix
    /// tables. This is what [`CheckOptions::memory_budget`] gates (the
    /// radix is negligible: 24 bytes per *variable*, not per state).
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.offsets.len() * std::mem::size_of::<u32>()
            + self.actions.len() * std::mem::size_of::<ActionId>()
            + self.succs.len() * std::mem::size_of::<StateId>()
            + self.index.var_count() * 3 * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
                let succs = space.successors(id);
                assert_eq!(succs.len(), 1);
                assert_eq!(space.state(succs.get(0).1).slots()[0], x + 1);
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
        let order = (0..space.len()).chain([3, 3, 2, 24, 0, 1, 2, 17, 5, 6]);
        for i in order {
            let id = StateId::from_index(i);
            assert_eq!(rows.row(id).unwrap(), space.successors(id), "row {i}");
        }
    }

    #[test]
    fn parallel_enumeration_is_identical() {
        let p = counter(4000);
        let serial = StateSpace::enumerate_with_options(&p, CheckOptions::serial()).unwrap();
        let parallel =
            StateSpace::enumerate_with_options(&p, CheckOptions::default().threads(4)).unwrap();
        assert_eq!(serial.len(), parallel.len());
        assert_eq!(serial.offsets, parallel.offsets, "CSR offsets must match");
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
            SpaceError::TooLarge {
                limit: u32::MAX as usize + 1
            }
        );
    }

    #[test]
    fn memory_budget_is_enforced() {
        let p = counter(99_999);
        // 100k states need ~400KB of offsets alone; a 1KB budget must
        // reject the space before any large allocation.
        let err =
            StateSpace::enumerate_with_options(&p, CheckOptions::default().memory_budget(1024))
                .unwrap_err();
        let SpaceError::BudgetExceeded {
            required,
            budget,
            phase,
        } = err
        else {
            panic!("expected BudgetExceeded, got {err:?}");
        };
        assert_eq!(budget, 1024);
        assert!(required > 1024);
        assert_eq!(phase, "offsets", "the floor estimate trips first");
        // A budget that admits the resident size (plus a little slack for
        // the per-worker scratch the accounting now includes) succeeds.
        let space = StateSpace::enumerate(&p).unwrap();
        let ok = StateSpace::enumerate_with_options(
            &p,
            CheckOptions::default().memory_budget(space.resident_bytes() as u64 + (64 << 10)),
        );
        assert!(ok.is_ok());
        // A budget squeezed between the offsets floor and the full CSR cost
        // trips at the succs phase, and the error names it.
        let offsets_floor = 4 * (space.len() as u64 + 1) + 4 * space.len() as u64 + (64 << 10);
        let err = StateSpace::enumerate_with_options(
            &p,
            CheckOptions::default().memory_budget(offsets_floor),
        )
        .unwrap_err();
        let SpaceError::BudgetExceeded { phase, .. } = err else {
            panic!("expected BudgetExceeded, got {err:?}");
        };
        assert_eq!(phase, "succs");
        assert!(err.to_string().contains("succs phase"));
    }

    #[test]
    fn resident_bytes_counts_csr_arrays() {
        let p = counter(4);
        let space = StateSpace::enumerate(&p).unwrap();
        // 6 offsets + 4 actions + 4 succs = 24 + 16 + 16 bytes, plus the
        // struct header and one variable's radix entries.
        let expected = std::mem::size_of::<StateSpace>() + 24 + 16 + 16 + 24;
        assert_eq!(space.resident_bytes(), expected);
    }

    #[test]
    fn offsets_prefix_sum_near_u32_boundary() {
        // Exactly u32::MAX transitions: fine.
        let ok = offsets_from_counts(&[u32::MAX - 10, 7, 3]).unwrap();
        assert_eq!(ok, vec![0, u32::MAX - 10, u32::MAX - 3, u32::MAX]);
        // One more overflows the offset range and must be rejected, not
        // wrapped.
        assert_eq!(
            offsets_from_counts(&[u32::MAX, 1]),
            Err(u32::MAX as u64 + 1)
        );
        // Many large counts must accumulate in u64, not saturate u32.
        assert_eq!(
            offsets_from_counts(&[u32::MAX, u32::MAX, u32::MAX]),
            Err(3 * (u32::MAX as u64))
        );
        assert_eq!(offsets_from_counts(&[]), Ok(vec![0]));
    }

    #[test]
    fn unbounded_rejected() {
        let mut b = Program::builder("u");
        b.var("y", Domain::Unbounded);
        let p = b.build();
        assert!(matches!(
            StateSpace::enumerate(&p).unwrap_err(),
            SpaceError::Unbounded { var } if var == "y"
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
            SpaceError::EscapedDomain {
                action: "overflow".into(),
                var: "x".into()
            }
        );
        assert!(err.to_string().contains("left the state space"));
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
                SpaceError::EscapedDomain {
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
