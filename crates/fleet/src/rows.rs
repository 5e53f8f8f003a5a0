//! A configuration's transition rows, dense, for tenants to step on.
//!
//! The checker's verdict is computed over the configuration's
//! [`StateSpace`]; [`Rows`] lays that same space out so that a tenant step
//! is a few loads on a state id instead of guard, effect and goal calls
//! through the program's closures. Per state it keeps the guard mask (bit
//! `a` set iff action `a` is enabled), the successor id of every action,
//! the goal bit, and the state's digits (`value − min` of every variable)
//! so that decoding an id back into the arena needs no division. Every
//! step a tenant takes is thus a transition the verdict's
//! `worst_case_moves` bound was computed over.

use nonmask_checker::{Bitset, CheckOptions, StateId, StateSpace};
use nonmask_program::{Predicate, Program};

use crate::FleetError;

/// The most actions a configuration may have: the guard mask is one `u64`.
pub(crate) const MAX_ACTIONS: usize = 64;

/// The dense rows of one configuration's state space.
#[derive(Debug)]
pub(crate) struct Rows {
    actions: usize,
    vars: usize,
    /// Per state: bit `a` set iff action `a` is enabled.
    guards: Box<[u64]>,
    /// Per state and action (`id · actions + a`): the successor's id;
    /// the state's own id where the action is disabled.
    succs: Box<[u32]>,
    /// The goal predicate's bit per state.
    goal: Bitset,
    /// Per state and variable (`id · vars + v`): `value − min`.
    digits: Box<[u8]>,
    mins: Box<[i64]>,
    /// Per variable: the id distance of one step of its value.
    strides: Box<[u32]>,
}

impl Rows {
    /// Lay out `space`'s rows (read in action-id order through
    /// [`StateSpace::rows`]) and `goal`'s bits.
    ///
    /// # Errors
    ///
    /// [`FleetError::Check`] when the program has more than
    /// [`MAX_ACTIONS`] actions, a domain of more than 256 values, or rows
    /// larger than `options.memory_budget`, or when the goal cannot be
    /// evaluated.
    pub(crate) fn build(
        key: &str,
        space: &StateSpace,
        program: &Program,
        goal: &Predicate,
        options: CheckOptions,
    ) -> Result<Rows, FleetError> {
        let fail = |why: String| FleetError::Check(format!("{key}: {why}"));
        let (n, actions, vars) = (space.len(), space.action_count(), space.var_count());
        if actions > MAX_ACTIONS {
            return Err(fail(format!(
                "{actions} actions exceed the {MAX_ACTIONS} a guard mask holds"
            )));
        }
        let index = space.index();
        if let Some(v) = (0..vars).find(|&v| index.domain_size(v) > 256) {
            return Err(fail(format!(
                "variable {} has {} values, more than a u8 digit holds",
                program.vars()[v].name(),
                index.domain_size(v)
            )));
        }
        let required = Self::bytes(n, actions, vars);
        if required > options.memory_budget {
            return Err(fail(format!(
                "rows need {required} bytes, over the {} byte memory budget",
                options.memory_budget
            )));
        }

        let mins: Box<[i64]> = (0..vars).map(|v| index.min(v)).collect();
        let strides: Box<[u32]> = (0..vars).map(|v| index.stride(v) as u32).collect();

        let mut guards = vec![0u64; n];
        let mut succs = vec![0u32; n * actions];
        let mut digits = vec![0u8; n * vars];
        let mut rows = space.rows();
        let mut state = space.scratch_state();
        space.decode_state(StateId::from_index(0), &mut state);
        for i in 0..n {
            let row = &mut succs[i * actions..(i + 1) * actions];
            row.fill(i as u32);
            for (a, succ) in rows.transitions(StateId::from_index(i)) {
                guards[i] |= 1 << a.index();
                row[a.index()] = succ.index() as u32;
            }
            for (digit, (&value, &min)) in digits[i * vars..(i + 1) * vars]
                .iter_mut()
                .zip(state.slots().iter().zip(mins.iter()))
            {
                *digit = (value - min) as u8;
            }
            index.step_state(&mut state);
        }
        let goal = Bitset::for_predicate(space, goal, options)
            .map_err(|e| fail(format!("goal bits failed: {e}")))?;
        Ok(Rows {
            actions,
            vars,
            guards: guards.into_boxed_slice(),
            succs: succs.into_boxed_slice(),
            goal,
            digits: digits.into_boxed_slice(),
            mins,
            strides,
        })
    }

    /// Bytes of the rows of `n` states, `actions` actions and `vars`
    /// variables: the guard mask, the successor ids, the goal bits and the
    /// digits.
    pub(crate) fn bytes(n: usize, actions: usize, vars: usize) -> u64 {
        let n = n as u64;
        n * 8 + n * actions as u64 * 4 + n.div_ceil(64) * 8 + n * vars as u64
    }

    /// The id of the state in `slots` (its first `vars` slots).
    #[inline]
    pub(crate) fn encode(&self, slots: &[i64]) -> u32 {
        slots
            .iter()
            .zip(self.mins.iter().zip(self.strides.iter()))
            .map(|(&value, (&min, &stride))| (value - min) as u32 * stride)
            .sum()
    }

    /// Write the state `id` into `slots` (its first `vars` slots).
    #[inline]
    pub(crate) fn decode(&self, id: u32, slots: &mut [i64]) {
        let digits = &self.digits[id as usize * self.vars..][..self.vars];
        for (slot, (&digit, &min)) in slots.iter_mut().zip(digits.iter().zip(self.mins.iter())) {
            *slot = min + digit as i64;
        }
    }

    /// Whether the goal holds at `id`.
    #[inline]
    pub(crate) fn goal(&self, id: u32) -> bool {
        self.goal.get(id as usize)
    }

    /// The guard mask of `id`.
    #[inline]
    pub(crate) fn guards(&self, id: u32) -> u64 {
        self.guards[id as usize]
    }

    /// The successor of `id` under enabled action `a`.
    #[inline]
    pub(crate) fn succ(&self, id: u32, a: usize) -> u32 {
        self.succs[id as usize * self.actions + a]
    }

    /// The id of `id` with variable `var` set to `value` (in its domain).
    #[inline]
    pub(crate) fn with_value(&self, id: u32, var: usize, value: i64) -> u32 {
        let digit = self.digits[id as usize * self.vars + var] as i64;
        let delta = (value - self.mins[var] - digit) * self.strides[var] as i64;
        (id as i64 + delta) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FleetProtocol;
    use nonmask_program::{Domain, VarId};

    fn laid_out(protocol: &FleetProtocol, options: CheckOptions) -> Result<Rows, FleetError> {
        let (program, goal) = protocol.build();
        let space = StateSpace::enumerate_with_options(&program, CheckOptions::serial()).unwrap();
        Rows::build(&protocol.key(), &space, &program, &goal, options)
    }

    #[test]
    fn rows_agree_with_the_program_on_every_state_and_action() {
        for protocol in FleetProtocol::ring_mix()
            .into_iter()
            .chain(FleetProtocol::mixed())
        {
            let key = protocol.key();
            let (program, goal) = protocol.build();
            let space =
                StateSpace::enumerate_with_options(&program, CheckOptions::serial()).unwrap();
            let rows = Rows::build(&key, &space, &program, &goal, CheckOptions::serial()).unwrap();
            let index = space.index();
            let mut slots = vec![0i64; program.var_count()];
            for id in space.ids() {
                let state = index.state(id);
                let i = id.index() as u32;
                rows.decode(i, &mut slots);
                assert_eq!(slots, state.slots(), "{key}: digits of {id}");
                assert_eq!(rows.encode(&slots), i, "{key}: encoding of {id}");
                assert_eq!(rows.goal(i), goal.holds(&state), "{key}: goal at {id}");
                for (a, action_id) in program.action_ids().enumerate() {
                    let action = program.action(action_id);
                    let enabled = action.enabled(&state);
                    assert_eq!(
                        rows.guards(i) >> a & 1 == 1,
                        enabled,
                        "{key}: guard of action {a} at {id}"
                    );
                    if enabled {
                        let mut next = state.clone();
                        action.apply(&mut next);
                        let succ = index.id_of(&next).expect("successor in the space");
                        assert_eq!(
                            rows.succ(i, a),
                            succ.index() as u32,
                            "{key}: successor of action {a} at {id}"
                        );
                    }
                }
                for var in 0..program.var_count() {
                    for value in program.vars()[var].domain().values() {
                        let mut faulted = state.clone();
                        faulted.set(VarId::from_index(var), value);
                        assert_eq!(
                            rows.with_value(i, var, value),
                            index.id_of(&faulted).unwrap().index() as u32,
                            "{key}: {id} with variable {var} = {value}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rows_over_the_memory_budget_are_a_typed_error() {
        let diffusing = FleetProtocol::Diffusing { nodes: 7 };
        let needed = Rows::bytes(1 << 14, 14, 14);
        let tight = CheckOptions {
            memory_budget: needed - 1,
            ..CheckOptions::serial()
        };
        match laid_out(&diffusing, tight) {
            Err(FleetError::Check(msg)) => assert!(msg.contains("memory budget"), "{msg}"),
            other => panic!("expected a budget error, got {other:?}"),
        }
        let exact = CheckOptions {
            memory_budget: needed,
            ..CheckOptions::serial()
        };
        assert!(laid_out(&diffusing, exact).is_ok());
    }

    #[test]
    fn more_actions_than_a_mask_holds_are_a_typed_error() {
        let mut b = Program::builder("wide");
        let x = b.var("x", Domain::Bool);
        for i in 0..=MAX_ACTIONS {
            b.closure_action(format!("a{i}"), [x], [x], |_| false, |_| {});
        }
        let program = b.build();
        let space = StateSpace::enumerate_with_options(&program, CheckOptions::serial()).unwrap();
        let goal = Predicate::always_true();
        match Rows::build("wide", &space, &program, &goal, CheckOptions::serial()) {
            Err(FleetError::Check(msg)) => assert!(msg.contains("65 actions"), "{msg}"),
            other => panic!("expected an action-count error, got {other:?}"),
        }
    }
}
