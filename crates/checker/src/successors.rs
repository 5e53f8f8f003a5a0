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
//! The decode → guard → successor → id loop exists only in the
//! [`Decoder`]'s [`Successors::row`]; the CSR build and the frontier
//! rounds read their rows from it. A row costs one guard call
//! per action plus, per enabled action, one effect and one id
//! computed from the slots that action changed; moving to the row's
//! state costs a carry from the previous id when the id is higher, and
//! a full decode only on the first row or a move backwards.
//!
//! Whole-space sweeps (closure) go through [`RowSource`], which hands each
//! task of the [segment plan](crate::CheckOptions::segment_plan) its own
//! `Successors`, so one scan serves both sources.

use nonmask_program::{ActionId, Program, State, VarId};

use crate::space::{SpaceError, SpaceIndex, StateId, StateSpace, Transitions};

/// A source of transition rows.
pub trait Successors {
    /// The `(action, successor)` row of `id`, in action-id order.
    ///
    /// # Errors
    ///
    /// [`SpaceError::EscapedDomain`] when an enabled action leaves the
    /// state space (only sources that evaluate actions can fail).
    fn row(&mut self, id: StateId) -> Result<Transitions<'_>, SpaceError>;
}

impl Successors for &StateSpace {
    fn row(&mut self, id: StateId) -> Result<Transitions<'_>, SpaceError> {
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
    actions: Vec<ActionId>,
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
            actions: Vec::with_capacity(program.action_count()),
            succs: Vec::with_capacity(program.action_count()),
        }
    }
}

impl Successors for Decoder<'_> {
    fn row(&mut self, id: StateId) -> Result<Transitions<'_>, SpaceError> {
        match self.decoded {
            Some(prev) if prev <= id && id.index() < self.index.len() => {
                self.index
                    .advance_state(&mut self.state, id.index() - prev.index());
            }
            _ => self.index.decode_state(id, &mut self.state),
        }
        self.decoded = Some(id);
        self.actions.clear();
        self.succs.clear();
        for (a, act) in self.program.actions().iter().enumerate() {
            if !act.enabled(&self.state) {
                continue;
            }
            act.successor_into(&self.state, &mut self.succ);
            let Some(t) = self.index.successor_id(id, &self.state, &self.succ) else {
                let var = VarId::from_index(self.index.escaping_var(&self.succ));
                return Err(SpaceError::EscapedDomain {
                    action: act.name().to_string(),
                    var: self.program.var(var).name().to_string(),
                });
            };
            self.actions.push(ActionId::from_index(a));
            self.succs.push(t);
        }
        Ok(Transitions::new(&self.actions, &self.succs))
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
