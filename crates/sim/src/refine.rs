//! Refinability analysis: ownership and readership structure.

use std::collections::HashMap;

use nonmask_program::{ActionId, ProcessId, Program, State, VarId};

/// Why a program cannot be refined into message passing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefineError {
    /// A variable is not tagged with an owning process.
    UnownedVariable {
        /// The untagged variable.
        var: VarId,
    },
    /// An action writes variables of two different processes; in message
    /// passing a step executes at a single process.
    WritesSpanProcesses {
        /// The offending action.
        action: ActionId,
    },
    /// An action writes nothing, so no process can own its execution.
    NoWrites {
        /// The offending action.
        action: ActionId,
    },
}

impl std::fmt::Display for RefineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RefineError::UnownedVariable { var } => {
                write!(f, "variable {var} has no owning process")
            }
            RefineError::WritesSpanProcesses { action } => {
                write!(f, "action {action} writes variables of two processes")
            }
            RefineError::NoWrites { action } => {
                write!(f, "action {action} writes nothing; no process can own it")
            }
        }
    }
}

impl std::error::Error for RefineError {}

/// The message-passing structure of a refinable program.
///
/// A program is *refinable* when every variable is owned by a process and
/// every action writes variables of exactly one process (the action then
/// executes at that process). Remote variables in an action's read set
/// become cached copies refreshed by update messages.
#[derive(Debug, Clone)]
pub struct Refinement {
    processes: Vec<ProcessId>,
    /// Variable → index into `processes`.
    owner: Vec<usize>,
    /// Action → index into `processes` (the process executing it).
    executor: Vec<usize>,
    /// Variable → processes (indices) that read it remotely.
    remote_readers: Vec<Vec<usize>>,
    /// Process → its actions, precomputed so per-round lookups are
    /// allocation-free slice borrows.
    actions_by_process: Vec<Vec<ActionId>>,
    /// Process → its variables, precomputed for the same reason.
    vars_by_process: Vec<Vec<VarId>>,
    /// Process → owned variables plus its actions' reads, sorted.
    footprint_by_process: Vec<Vec<VarId>>,
}

impl Refinement {
    /// Analyze `program`.
    ///
    /// # Errors
    ///
    /// See [`RefineError`].
    pub fn new(program: &Program) -> Result<Self, RefineError> {
        // Collect the distinct processes in tag order; the map keeps the
        // lookup O(1) so analysis stays linear in the variable count.
        let mut processes: Vec<ProcessId> = Vec::new();
        let mut index_of: HashMap<ProcessId, usize> = HashMap::new();
        let mut owner = Vec::with_capacity(program.var_count());
        for var in program.var_ids() {
            let pid = program
                .var(var)
                .process()
                .ok_or(RefineError::UnownedVariable { var })?;
            let idx = *index_of.entry(pid).or_insert_with(|| {
                processes.push(pid);
                processes.len() - 1
            });
            owner.push(idx);
        }

        let mut executor = Vec::with_capacity(program.action_count());
        for aid in program.action_ids() {
            let action = program.action(aid);
            let mut exec: Option<usize> = None;
            for &w in action.writes() {
                let o = owner[w.index()];
                match exec {
                    None => exec = Some(o),
                    Some(e) if e == o => {}
                    Some(_) => return Err(RefineError::WritesSpanProcesses { action: aid }),
                }
            }
            executor.push(exec.ok_or(RefineError::NoWrites { action: aid })?);
        }

        // Remote readers: for each variable, the processes that execute an
        // action reading it but do not own it.
        let mut remote_readers = vec![Vec::new(); program.var_count()];
        for aid in program.action_ids() {
            let exec = executor[aid.index()];
            for &r in program.action(aid).reads() {
                if owner[r.index()] != exec && !remote_readers[r.index()].contains(&exec) {
                    remote_readers[r.index()].push(exec);
                }
            }
        }

        let mut actions_by_process = vec![Vec::new(); processes.len()];
        for (i, &e) in executor.iter().enumerate() {
            actions_by_process[e].push(ActionId::from_index(i));
        }
        let mut vars_by_process = vec![Vec::new(); processes.len()];
        for (i, &o) in owner.iter().enumerate() {
            vars_by_process[o].push(VarId::from_index(i));
        }
        let footprint_by_process = (0..processes.len())
            .map(|p| {
                let mut vars = vars_by_process[p].clone();
                for &a in &actions_by_process[p] {
                    vars.extend_from_slice(program.action(a).reads());
                }
                vars.sort_unstable();
                vars.dedup();
                vars
            })
            .collect();

        Ok(Refinement {
            processes,
            owner,
            executor,
            remote_readers,
            actions_by_process,
            vars_by_process,
            footprint_by_process,
        })
    }

    /// The distinct processes, in first-appearance order.
    pub fn processes(&self) -> &[ProcessId] {
        &self.processes
    }

    /// Number of processes.
    pub fn process_count(&self) -> usize {
        self.processes.len()
    }

    /// Index of the process owning `var`.
    pub fn owner_of(&self, var: VarId) -> usize {
        self.owner[var.index()]
    }

    /// Index of the process executing `action`.
    pub fn executor_of(&self, action: ActionId) -> usize {
        self.executor[action.index()]
    }

    /// Indices of the processes that cache `var` remotely.
    pub fn remote_readers_of(&self, var: VarId) -> &[usize] {
        &self.remote_readers[var.index()]
    }

    /// The actions executed by process `p` (ascending action order).
    pub fn actions_of(&self, p: usize) -> &[ActionId] {
        &self.actions_by_process[p]
    }

    /// The variables owned by process `p` (declaration order).
    pub fn vars_of(&self, p: usize) -> &[VarId] {
        &self.vars_by_process[p]
    }

    /// The variables process `p` ever looks at: its owned variables plus
    /// the declared reads of its actions, sorted and deduplicated. This is
    /// everything a message-passing node has to hold — owned values are
    /// authoritative, the rest are caches refreshed by their owners.
    pub fn footprint_of(&self, p: usize) -> &[VarId] {
        &self.footprint_by_process[p]
    }

    /// Total number of directed `(owner → reader)` cache relationships — a
    /// measure of the communication graph's density.
    pub fn channel_count(&self) -> usize {
        self.remote_readers.iter().map(Vec::len).sum()
    }

    /// The god's-eye state of per-process `views`: every variable read
    /// from its owner's view. Engines measure stabilization on it; no
    /// process ever executes on it.
    pub(crate) fn ground_truth(&self, views: &[State]) -> State {
        let mut out = State::zeroed(self.owner.len());
        self.ground_truth_into(views, &mut out);
        out
    }

    /// Assemble [`ground_truth`](Refinement::ground_truth) into `out`
    /// without allocating, for loops that poll it after every step.
    ///
    /// # Panics
    ///
    /// Panics if `out` has a different length than the program's states
    /// or `views` lacks a process.
    pub(crate) fn ground_truth_into(&self, views: &[State], out: &mut State) {
        assert_eq!(out.len(), self.owner.len());
        for (i, &owner) in self.owner.iter().enumerate() {
            let var = VarId::from_index(i);
            out.set(var, views[owner].get(var));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonmask_program::Domain;

    fn ring2() -> Program {
        let mut b = Program::builder("ring2");
        let x0 = b.var_of("x.0", Domain::range(0, 3), ProcessId(0));
        let x1 = b.var_of("x.1", Domain::range(0, 3), ProcessId(1));
        b.combined_action("pass@0", [x0, x1], [x0], |_| true, |_| {});
        b.combined_action("pass@1", [x0, x1], [x1], |_| true, |_| {});
        b.build()
    }

    #[test]
    fn ring_structure_extracted() {
        let p = ring2();
        let r = Refinement::new(&p).unwrap();
        assert_eq!(r.process_count(), 2);
        let x0 = p.var_by_name("x.0").unwrap();
        let x1 = p.var_by_name("x.1").unwrap();
        assert_eq!(r.owner_of(x0), 0);
        assert_eq!(r.owner_of(x1), 1);
        assert_eq!(r.executor_of(ActionId::from_index(0)), 0);
        assert_eq!(r.executor_of(ActionId::from_index(1)), 1);
        assert_eq!(r.remote_readers_of(x0), &[1]);
        assert_eq!(r.remote_readers_of(x1), &[0]);
        assert_eq!(r.channel_count(), 2);
        assert_eq!(r.actions_of(0), vec![ActionId::from_index(0)]);
        assert_eq!(r.vars_of(1), vec![x1]);
    }

    #[test]
    fn ring_footprint_is_own_and_predecessor() {
        let ring = nonmask_protocols::token_ring::TokenRing::new(5, 5);
        let r = Refinement::new(ring.program()).unwrap();
        let x = |p: usize| ring.program().var_by_name(&format!("x.{p}")).unwrap();
        assert_eq!(r.footprint_of(0), &[x(0), x(4)][..]);
        for p in 1..5 {
            assert_eq!(r.footprint_of(p), &[x(p - 1), x(p)][..]);
        }
    }

    #[test]
    fn actionless_process_footprint_is_its_owned_vars() {
        let mut b = Program::builder("idle");
        let y1 = b.var_of("y.1", Domain::Bool, ProcessId(1));
        let x0 = b.var_of("x.0", Domain::Bool, ProcessId(0));
        let y0 = b.var_of("y.0", Domain::Bool, ProcessId(1));
        b.closure_action("copy@0", [x0, y1], [x0], |_| true, |_| {});
        let p = b.build();
        let r = Refinement::new(&p).unwrap();
        // First-appearance order: process 1 is index 0.
        assert_eq!(r.processes(), &[ProcessId(1), ProcessId(0)]);
        assert!(r.actions_of(0).is_empty());
        assert_eq!(r.footprint_of(0), &[y1, y0][..]);
        assert_eq!(r.footprint_of(1), &[y1, x0][..]);
    }

    #[test]
    fn diffusing_footprint_is_own_parent_and_children() {
        use nonmask_protocols::diffusing::DiffusingComputation;
        use nonmask_protocols::Tree;
        let tree = Tree::binary(7);
        let dc = DiffusingComputation::new(&tree);
        let program = dc.program();
        let r = Refinement::new(program).unwrap();
        let vars = |j: usize| {
            [
                program.var_by_name(&format!("c.{j}")).unwrap(),
                program.var_by_name(&format!("sn.{j}")).unwrap(),
            ]
        };
        for j in 1..tree.len() {
            let mut expected: Vec<VarId> = vars(j).into();
            expected.extend(vars(tree.parent(j)));
            for k in tree.children(j) {
                expected.extend(vars(k));
            }
            expected.sort_unstable();
            assert_eq!(r.footprint_of(j), &expected[..], "node {j}");
        }
        // A leaf holds exactly its own and its parent's variables.
        let leaf = tree.len() - 1;
        assert!(tree.children(leaf).is_empty());
        assert_eq!(r.footprint_of(leaf).len(), 4);
    }

    #[test]
    fn unowned_variable_rejected() {
        let mut b = Program::builder("p");
        let x = b.var("x", Domain::Bool);
        let _ = x;
        let p = b.build();
        assert!(matches!(
            Refinement::new(&p),
            Err(RefineError::UnownedVariable { .. })
        ));
    }

    #[test]
    fn cross_process_writes_rejected() {
        let mut b = Program::builder("p");
        let x0 = b.var_of("x.0", Domain::Bool, ProcessId(0));
        let x1 = b.var_of("x.1", Domain::Bool, ProcessId(1));
        b.closure_action("w2", [x0, x1], [x0, x1], |_| true, |_| {});
        let p = b.build();
        assert!(matches!(
            Refinement::new(&p),
            Err(RefineError::WritesSpanProcesses { .. })
        ));
    }

    #[test]
    fn writeless_action_rejected() {
        let mut b = Program::builder("p");
        let x0 = b.var_of("x.0", Domain::Bool, ProcessId(0));
        b.closure_action("noop", [x0], [], |_| true, |_| {});
        let p = b.build();
        assert!(matches!(
            Refinement::new(&p),
            Err(RefineError::NoWrites { .. })
        ));
    }
}
