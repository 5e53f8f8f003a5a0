//! One transition source for every pass: the [`Successors`] trait.
//!
//! Closure and convergence ask one question of the
//! transition relation: *what is the `(action, successor)` row of this
//! state?* Two sources answer it, with bit-identical rows (enabled
//! actions in id order, each paired with its successor's id):
//!
//! - a [`TableRows`] reader over a program's per-action footprint tables
//!   (a [`StateSpace`]'s, or those the
//!   [frontier check](crate::check_convergence_frontier_stats) builds for
//!   itself): one table load per action, and a key update per action that
//!   reads a changed digit;
//! - a [`Decoder`] over a [`Program`] and its [`SpaceIndex`], which
//!   evaluates guards and effects on demand and owns its scratch states.
//!
//! Every production pass reads table rows. The decoder evaluates every
//! guard at every row and shares no table code, so it is the independent
//! reference the tables are checked against (`tests/footprint_tables.rs`,
//! `tests/property_based.rs`), and a row source any caller can build from
//! a program alone.
//!
//! Neither stores a transition. Both write a row in the same form: the
//! **guard bytes**, `B = ⌈A/8⌉` of them (at least one) whose bit `a` (bit
//! `a % 8` of byte `a / 8`) is set iff action `a` is enabled, and the
//! successor ids of the set bits in ascending order. A decoded row costs
//! one guard call per action plus, per enabled action, one effect and one
//! id computed from the slots that action changed; moving to the row's
//! state costs a carry from the previous id when the id is higher, and a
//! full decode only on the first row or a move backwards.
//!
//! Whole-space sweeps (closure) go through [`RowSource`], which hands each
//! task of the [segment plan](crate::CheckOptions::segment_plan) its own
//! `Successors`, so one scan serves both sources.

use nonmask_program::{Action, Program, State};

use crate::error::CheckError;
use crate::space::{SpaceIndex, StateId, StateSpace, TableRows, Transitions};

/// Guard bytes per row for a program of `actions` actions: one bit per
/// action, and at least one byte so every row has a guard slice.
pub(crate) fn guard_bytes(actions: usize) -> usize {
    actions.div_ceil(8).max(1)
}

/// The id of `act`'s successor of `state` (the decoding of `id`),
/// computed into the scratch `succ`: the one guard-to-id step that
/// [`Decoder`] rows, per-row actions of [`TableRows`] and the space
/// build's per-row check all take.
///
/// # Errors
///
/// The first variable the successor leaves its domain in.
#[inline]
pub(crate) fn successor(
    act: &Action,
    index: &SpaceIndex,
    id: StateId,
    state: &State,
    succ: &mut State,
) -> Result<StateId, usize> {
    act.successor_into(state, succ);
    index
        .successor_id(id, state, succ)
        .ok_or_else(|| index.escaping_var(succ))
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

impl Successors for TableRows<'_> {
    fn row(&mut self, id: StateId) -> Result<Transitions<'_>, CheckError> {
        Ok(self.transitions(id))
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
        // Each enabled guard is followed at once by its effect.
        self.guards.fill(0);
        self.succs.clear();
        for (a, act) in self.program.actions().iter().enumerate() {
            if act.enabled(&self.state) {
                self.guards[a / 8] |= 1 << (a % 8);
                let t = successor(act, self.index, id, &self.state, &mut self.succ)
                    .map_err(|v| CheckError::escaped(self.program, self.index, a, v))?;
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
    type Rows<'s> = TableRows<'s>;

    fn index(&self) -> &SpaceIndex {
        StateSpace::index(self)
    }

    fn rows(&self) -> TableRows<'_> {
        StateSpace::rows(self)
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
