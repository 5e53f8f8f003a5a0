//! One transition source for every pass: the [`Successors`] trait.
//!
//! Closure and convergence ask one question of the
//! transition relation: *what is the `(action, successor)` row of this
//! state?* Two sources answer it, with bit-identical rows (enabled
//! actions in id order, each paired with its successor's id):
//!
//! - the resident CSR table of a [`StateSpace`] (a slice view);
//! - a [`Decoder`] over a [`Program`] and its [`SpaceIndex`], which
//!   evaluates guards and effects on demand and owns its scratch states,
//!   so no transition is ever stored.
//!
//! A row has two halves, and both sources store it in the same form:
//! the **guard bytes**, `B = ⌈A/8⌉` of them (at least one) whose bit `a`
//! (bit `a % 8` of byte `a / 8`) is set iff action `a` is enabled, written
//! by `guard_bits`; and the successor ids of the set bits in ascending
//! order, written by `fill_row`. The [`Decoder`] runs both in one loop
//! over the actions, each enabled guard followed at once by its effect;
//! the CSR build runs `guard_bits` in its count pass, keeps the bytes, and
//! runs `fill_row` from them in its fill pass, so every guard is called
//! once. Stored, a row costs `B` bytes of guard bits plus 4 bytes per
//! transition. Computed, it costs one guard call per action plus, per
//! enabled action, one effect and one id computed from the slots that
//! action changed; moving to the row's state costs a carry from the
//! previous id when the id is higher, and a full decode only on the first
//! row or a move backwards.
//!
//! Whole-space sweeps (closure) go through [`RowSource`], which hands each
//! task of the [segment plan](crate::CheckOptions::segment_plan) its own
//! `Successors`, so one scan serves both sources.

use nonmask_program::{Action, Program, State, VarId};

use crate::error::CheckError;
use crate::space::{GuardBits, SpaceIndex, StateId, StateSpace, Transitions};

/// Guard bytes per row for a program of `actions` actions: one bit per
/// action, and at least one byte so every row has a guard slice.
pub(crate) fn guard_bytes(actions: usize) -> usize {
    actions.div_ceil(8).max(1)
}

/// Evaluate every guard of `program` at `state` into `out`, its
/// [`guard_bytes`] bytes: bit `a % 8` of byte `a / 8` is set iff action
/// `a` is enabled. Returns the number of enabled actions.
#[inline]
pub(crate) fn guard_bits(program: &Program, state: &State, out: &mut [u8]) -> u32 {
    let mut chunks = program.actions().chunks(8);
    let mut enabled = 0;
    for byte in out {
        let mut bits = 0u8;
        for (b, act) in chunks.next().unwrap_or_default().iter().enumerate() {
            bits |= u8::from(act.enabled(state)) << b;
        }
        *byte = bits;
        enabled += bits.count_ones();
    }
    enabled
}

/// Write into `out` the successor id of every action set in `guards` at
/// `state` (the decoding of `id`), in ascending action id, calling no
/// guard. `out` holds exactly one slot per set bit; `succ` is scratch.
///
/// # Errors
///
/// [`CheckError::EscapedDomain`] at the first action whose successor
/// leaves the space.
#[inline]
pub(crate) fn fill_row(
    program: &Program,
    index: &SpaceIndex,
    id: StateId,
    state: &State,
    succ: &mut State,
    guards: &[u8],
    out: &mut [StateId],
) -> Result<(), CheckError> {
    let actions = program.actions();
    for (a, slot) in GuardBits::new(guards).zip(out.iter_mut()) {
        *slot = successor(program, &actions[a], index, id, state, succ)?;
    }
    Ok(())
}

/// The id of `act`'s successor of `state` (the decoding of `id`),
/// computed into the scratch `succ`.
///
/// # Errors
///
/// [`CheckError::EscapedDomain`] when the successor leaves the space.
#[inline]
fn successor(
    program: &Program,
    act: &Action,
    index: &SpaceIndex,
    id: StateId,
    state: &State,
    succ: &mut State,
) -> Result<StateId, CheckError> {
    act.successor_into(state, succ);
    index.successor_id(id, state, succ).ok_or_else(|| {
        let var = VarId::from_index(index.escaping_var(succ));
        CheckError::EscapedDomain {
            action: act.name().to_string(),
            var: program.var(var).name().to_string(),
        }
    })
}

/// A source of transition rows.
pub trait Successors {
    /// The `(action, successor)` row of `id`, in action-id order.
    ///
    /// # Errors
    ///
    /// [`CheckError::EscapedDomain`] when an enabled action leaves the
    /// state space (only sources that evaluate actions can fail).
    fn row(&mut self, id: StateId) -> Result<Transitions<'_>, CheckError>;
}

impl Successors for &StateSpace {
    fn row(&mut self, id: StateId) -> Result<Transitions<'_>, CheckError> {
        Ok(self.successors(id))
    }
}

/// Rows decoded on demand from a program's guards and effects: no
/// transition is stored, and memory is two scratch states plus one row.
///
/// A row asked for at the previous id or any higher one advances the
/// scratch state by carries ([`SpaceIndex::advance_state`]), which
/// divides only where a carry of more than one lands; the first row and
/// a move backwards decode in full ([`SpaceIndex::decode_state`], one
/// division per variable). Each successor's id is the row's id moved by
/// the slots its action changed ([`SpaceIndex::successor_id`]): only a
/// changed slot pays a range check and a multiply-add. No declared write
/// set is trusted.
#[derive(Debug)]
pub struct Decoder<'a> {
    program: &'a Program,
    index: &'a SpaceIndex,
    /// The id whose state `state` holds, once a row has been decoded.
    decoded: Option<StateId>,
    state: State,
    succ: State,
    guards: Vec<u8>,
    succs: Vec<StateId>,
}

impl<'a> Decoder<'a> {
    /// A decoder over `program`'s state space `index`.
    pub fn new(program: &'a Program, index: &'a SpaceIndex) -> Self {
        Decoder {
            program,
            index,
            decoded: None,
            state: index.scratch_state(),
            succ: index.scratch_state(),
            guards: vec![0; guard_bytes(program.action_count())],
            succs: Vec::with_capacity(program.action_count()),
        }
    }
}

impl Successors for Decoder<'_> {
    fn row(&mut self, id: StateId) -> Result<Transitions<'_>, CheckError> {
        match self.decoded {
            Some(prev) if prev <= id && id.index() < self.index.len() => {
                self.index
                    .advance_state(&mut self.state, id.index() - prev.index());
            }
            _ => self.index.decode_state(id, &mut self.state),
        }
        self.decoded = Some(id);
        // The row `guard_bits` then `fill_row` would give, in one loop:
        // decoded rows were measurably slower as two passes.
        self.guards.fill(0);
        self.succs.clear();
        for (a, act) in self.program.actions().iter().enumerate() {
            if act.enabled(&self.state) {
                self.guards[a / 8] |= 1 << (a % 8);
                let t = successor(
                    self.program,
                    act,
                    self.index,
                    id,
                    &self.state,
                    &mut self.succ,
                )?;
                self.succs.push(t);
            }
        }
        Ok(Transitions::new(&self.guards, &self.succs))
    }
}

/// A whole state space that parallel sweeps can split: each task gets its
/// own [`Successors`].
pub trait RowSource: Sync {
    /// The per-task row source.
    type Rows<'s>: Successors
    where
        Self: 's;

    /// The id↔state bijection of the space.
    fn index(&self) -> &SpaceIndex;

    /// A row source for one task.
    fn rows(&self) -> Self::Rows<'_>;
}

impl RowSource for StateSpace {
    type Rows<'s> = &'s StateSpace;

    fn index(&self) -> &SpaceIndex {
        StateSpace::index(self)
    }

    fn rows(&self) -> &StateSpace {
        self
    }
}

/// Each task gets a fresh decoder over the same program and index.
impl RowSource for Decoder<'_> {
    type Rows<'s>
        = Decoder<'s>
    where
        Self: 's;

    fn index(&self) -> &SpaceIndex {
        self.index
    }

    fn rows(&self) -> Decoder<'_> {
        Decoder::new(self.program, self.index)
    }
}
