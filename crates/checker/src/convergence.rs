//! Convergence checking.
//!
//! The Convergence requirement (Section 3): *every computation of `p` that
//! starts at any state where `T` holds reaches a state where `S` holds.*
//!
//! Over a finite state space this reduces to analyzing the *region*
//! `T ∧ ¬S`. A computation can fail to reach `S` in exactly three ways:
//!
//! 1. it gets stuck at a region state with no enabled action (a finite
//!    maximal computation ending outside `S`),
//! 2. it leaves both `S` and `T` (only possible when `T` is not closed —
//!    reported so callers notice the missing closure proof), or
//! 3. it stays in the region forever, cycling.
//!
//! Case 3 depends on fairness. Under an **unfair** daemon any cycle inside
//! the region is a legal computation. Under the paper's **weakly fair**
//! daemon ("each action that is continuously enabled is eventually
//! executed"), an infinite computation confined to a strongly connected
//! component `Q` of the region is legal iff every action enabled at *all*
//! states of `Q` has at least one transition that stays inside `Q`: any
//! such action is continuously enabled, so it must be executed infinitely
//! often, and if each of its executions left `Q` the computation could not
//! remain in `Q`. (Conversely, when every always-enabled action has an
//! internal transition, a fair schedule staying in `Q` exists: tour all of
//! `Q` repeatedly, splicing in each always-enabled action's internal
//! transition.)
//!
//! # Pipeline
//!
//! One parallel pass over the space counts the region and finds the
//! lowest-id deadlock or escape. With none, one iterative Tarjan DFS runs
//! from the region's states over their internal edges, read straight from
//! the space's rows, and gives each state a *height*: its longest path
//! out of the region, counting the exit step. A singleton
//! component without a self-loop completes after all its internal
//! successors, so its height is one more than the largest of theirs; a
//! component with an internal edge, and every state with a path into one,
//! is *infinite*. The infinite states are exactly those that can stay in
//! the region forever — the greatest fixpoint of "has an internal
//! successor in the set" — so every cycle lies among them. They are the
//! *residual*, and the rest are peeled. (Note the residual is *not* "states
//! that cannot reach `S`": a cycle that could exit to `S` but need not is
//! still a legal unfair divergence, and it stays.)
//!
//! The heights are a rank every region step lowers, as in Theorem 1's
//! proof, and the largest is the worst-case bound. In the common
//! converging case the residual is empty, and one pass
//! ([`check_convergence_bits`]) has answered both daemons and the bound.
//! Otherwise the residual analysis runs once per daemon. The search keeps
//! two `u32`s per state and its stacks; nothing it holds is sized by the
//! edge count.
//!
//! This is not the seed's whole-region Tarjan, which collected a list per
//! component and looked states up by binary search in sorted id lists.
//! Here a component is a slice of the DFS stack, so a singleton allocates
//! nothing, and the search's arrays are indexed by state id, so every
//! lookup is one load. The same search, over a residual-local graph, is
//! the residual analysis's Tarjan.
//!
//! Every thread count reports the same witness: the lowest-id event wins,
//! exactly as in a sequential scan.
//!
//! The residual analysis (Tarjan plus the fair-admissibility test) reads
//! rows through [`Successors`], so the out-of-core
//! [`frontier`](crate::frontier) peel ends in this same code, fed decoded
//! rows instead of CSR rows.

use nonmask_program::{ActionId, Predicate, Program, State};

use crate::cache::Bitset;
use crate::error::CheckError;
use crate::options::{run_chunks, CheckOptions};
use crate::space::{SpaceError, SpaceIndex, StateId, StateSpace};
use crate::successors::Successors;

/// The daemon assumption under which convergence is checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fairness {
    /// No fairness: every region cycle is a legal computation. Programs
    /// converging under this assumption satisfy Section 8's remark that
    /// "the fairness requirement … is often unnecessary".
    Unfair,
    /// Weak fairness over actions, the paper's computation model
    /// (Section 2).
    WeaklyFair,
}

impl std::fmt::Display for Fairness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fairness::Unfair => f.write_str("unfair"),
            Fairness::WeaklyFair => f.write_str("weakly-fair"),
        }
    }
}

/// The outcome of a convergence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConvergenceResult {
    /// Every computation from `T` reaches `S`.
    Converges,
    /// A maximal finite computation ends outside `S`: `state` is in the
    /// region and no action is enabled there.
    DeadlockOutsideTarget {
        /// The stuck state.
        state: State,
    },
    /// A transition leaves both `S` and `T` — the fault span is not closed,
    /// so the convergence question is ill-posed as stated.
    EscapesFaultSpan {
        /// Region state the transition starts from.
        before: State,
        /// Successor outside `S ∪ T`.
        after: State,
    },
    /// A legal infinite computation stays inside the region forever. The
    /// witness is one strongly connected component it can inhabit.
    Divergence {
        /// States of the witnessing component (or cycle).
        states: Vec<State>,
        /// The fairness assumption under which the witness is legal.
        fairness: Fairness,
    },
}

impl ConvergenceResult {
    /// Whether the check succeeded.
    pub fn converges(&self) -> bool {
        matches!(self, ConvergenceResult::Converges)
    }
}

/// Size counters for one convergence pass, produced by
/// [`check_convergence_bits`]: how much of the region the region pass
/// resolved before any residual analysis, and how many components that
/// analysis then examined. The resident pass journals nothing; a caller
/// that keeps a journal emits these sizes as an
/// [`Event::Wave`](nonmask_obs::Event::Wave).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConvergenceStats {
    /// States in the region `T ∧ ¬S`.
    pub region_states: u64,
    /// Region states with no infinite region path (all of them, in the
    /// common converging case).
    pub peeled_states: u64,
    /// Strongly connected components found in the residual subgraph.
    pub sccs_found: u64,
}

/// Both daemons' verdicts and the worst-case move bound, answered by one
/// pass over the region `T ∧ ¬S` ([`check_convergence_bits`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvergenceReport {
    /// The verdict under the paper's weakly fair daemon.
    pub weakly_fair: ConvergenceResult,
    /// The verdict under an unfair daemon.
    pub unfair: ConvergenceResult,
    /// The worst-case number of steps an unfair daemon can keep a
    /// computation inside the region, counting the step that leaves it:
    /// the longest path out of the region. `Some` exactly when
    /// [`ConvergenceReport::unfair`] is `Converges`; `Some(0)` means the
    /// region is empty.
    pub worst_case_moves: Option<u64>,
    /// Region, peel and SCC sizes of the pass.
    pub stats: ConvergenceStats,
}

impl ConvergenceReport {
    /// The verdict under `fairness`.
    pub fn verdict(&self, fairness: Fairness) -> &ConvergenceResult {
        match fairness {
            Fairness::Unfair => &self.unfair,
            Fairness::WeaklyFair => &self.weakly_fair,
        }
    }
}

/// Check that every computation of `program` from `from` (the fault span
/// `T`) reaches `to` (the invariant `S`): both daemons' verdicts, the
/// worst-case move bound and the pass's sizes, in one [`ConvergenceReport`].
///
/// Evaluates `from` and `to` into caches in one decode pass, then runs the
/// one region pass ([`check_convergence_bits`]). The report is identical
/// for every thread count. `Converges` under [`Fairness::Unfair`] implies
/// `Converges` under [`Fairness::WeaklyFair`]; divergence witnesses found
/// under `WeaklyFair` are also divergences under `Unfair`.
///
/// ```
/// use nonmask_program::{Domain, Predicate, Program};
/// use nonmask_checker::{check_convergence, CheckOptions, StateSpace};
///
/// let mut b = Program::builder("down");
/// let x = b.var("x", Domain::range(0, 4));
/// b.convergence_action("dec", [x], [x],
///     move |s| s.get(x) > 0,
///     move |s| { let v = s.get(x); s.set(x, v - 1); });
/// let p = b.build();
/// let space = StateSpace::enumerate(&p)?;
/// let s = Predicate::new("x=0", [x], move |st| st.get(x) == 0);
/// let report = check_convergence(&space, &p, &Predicate::always_true(), &s,
///     CheckOptions::default())?;
/// assert!(report.unfair.converges());
/// assert_eq!(report.worst_case_moves, Some(4), "x=4 takes four decrements");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Errors
///
/// [`CheckError::WorkerFailed`] if a predicate or action body panics.
pub fn check_convergence(
    space: &StateSpace,
    program: &Program,
    from: &Predicate,
    to: &Predicate,
    opts: CheckOptions,
) -> Result<ConvergenceReport, CheckError> {
    let [from_bits, to_bits] = Bitset::for_predicates(space.index(), &[from, to], opts)?
        .try_into()
        .expect("two predicates, two caches");
    check_convergence_bits(space, program, &from_bits, &to_bits, opts)
}

/// Every convergence question about the region `from ∧ ¬to` in one pass,
/// over precomputed predicate caches (evaluations of `from` and `to` over
/// exactly this `space`), so callers can share the caches across the
/// closure and convergence passes.
///
/// The region is swept once for deadlocks and escapes, then searched by
/// one DFS over its internal edges. The search gives each state its
/// *height*, the longest path out of the region: a state whose internal
/// successors all have finite heights has one more than the largest of
/// theirs, and a state on or leading into a region cycle has an infinite
/// one. Those are the residual. No event and an empty residual
/// means both daemons converge and the bound is the largest height.
/// Otherwise the bound is `None`, and the verdicts are the lowest-id event
/// or, per daemon, the residual analysis.
///
/// # Errors
///
/// [`CheckError::WorkerFailed`] if an action body panics while edges are
/// being materialized.
pub fn check_convergence_bits(
    space: &StateSpace,
    program: &Program,
    from_bits: &Bitset,
    to_bits: &Bitset,
    opts: CheckOptions,
) -> Result<ConvergenceReport, CheckError> {
    let mut stats = ConvergenceStats::default();
    let in_region = |i: usize| from_bits.get(i) && !to_bits.get(i);
    // One parallel pass over the space counts the region `T ∧ ¬S` and
    // sweeps it for deadlocks and escapes. Chunks are id ranges and each
    // stops checking rows at its first event, so the first chunk with an
    // event holds the lowest-id witness of a sequential scan. Region states
    // are still counted past an event, so the region size is exact either
    // way.
    enum RegionEvent {
        Deadlock(StateId),
        Escape { before: StateId, after: StateId },
    }
    let chunks = run_chunks(space.len(), opts.workers_for(space.len()), |range| {
        let (mut size, mut event) = (0u64, None);
        for i in range.filter(|&i| in_region(i)) {
            size += 1;
            if event.is_some() {
                continue;
            }
            let id = StateId::from_index(i);
            let succs = space.successor_ids(id);
            let escape = succs
                .iter()
                .find(|&&t| !from_bits.contains(t) && !to_bits.contains(t));
            if succs.is_empty() {
                event = Some(RegionEvent::Deadlock(id));
            } else if let Some(&after) = escape {
                event = Some(RegionEvent::Escape { before: id, after });
            }
        }
        (size, event)
    })?;
    let mut first_event = None;
    for (size, event) in chunks {
        stats.region_states += size;
        first_event = first_event.or(event);
    }
    if let Some(event) = first_event {
        let result = match event {
            RegionEvent::Deadlock(id) => ConvergenceResult::DeadlockOutsideTarget {
                state: space.state(id),
            },
            RegionEvent::Escape { before, after } => ConvergenceResult::EscapesFaultSpan {
                before: space.state(before),
                after: space.state(after),
            },
        };
        return Ok(ConvergenceReport {
            weakly_fair: result.clone(),
            unfair: result,
            worst_case_moves: None,
            stats,
        });
    }

    // One DFS from the region's states, over internal edges read straight
    // from the space's rows, numbered by state id. With no event, every
    // successor outside `S` is in the region.
    let mut heights = tarjan(
        space.len(),
        (0..space.len()).filter(|&i| in_region(i)).map(|i| i as u32),
        |v| {
            space
                .successor_ids(StateId::from_index(v as usize))
                .iter()
                .filter(|&&t| !to_bits.contains(t))
                .map(|t| t.index() as u32)
        },
        |_, _| Ok::<_, CheckError>(()),
    )?;
    // The residual is the infinite region states, ascending. The heights
    // become its numbering (`u32::MAX` for every other state), so lookups
    // stay O(1).
    let (mut residual, mut worst) = (Vec::new(), 0u32);
    for (i, h) in heights.iter_mut().enumerate() {
        *h = if !in_region(i) {
            u32::MAX
        } else if *h == INFINITE {
            residual.push(StateId::from_index(i));
            residual.len() as u32 - 1
        } else {
            worst = worst.max(*h);
            u32::MAX
        };
    }
    stats.peeled_states = stats.region_states - residual.len() as u64;
    if residual.is_empty() {
        return Ok(ConvergenceReport {
            weakly_fair: ConvergenceResult::Converges,
            unfair: ConvergenceResult::Converges,
            worst_case_moves: Some(worst.into()),
            stats,
        });
    }
    let in_residual = |t: StateId| {
        let r = heights[t.index()];
        (r != u32::MAX).then_some(r as usize)
    };
    let mut rows = space;
    let mut analyze = |fairness| {
        analyze_residual(
            &mut rows,
            program,
            space.index(),
            &residual,
            in_residual,
            fairness,
        )
    };
    let unfair = analyze(Fairness::Unfair)?;
    let weakly_fair = analyze(Fairness::WeaklyFair)?;
    stats.sccs_found = unfair.sccs_found;
    Ok(ConvergenceReport {
        weakly_fair: weakly_fair.result,
        unfair: unfair.result,
        worst_case_moves: None,
        stats,
    })
}

/// What [`analyze_residual`] found.
pub(crate) struct Residual {
    /// The verdict: the first divergent component, or convergence.
    pub result: ConvergenceResult,
    /// Strongly connected components of the residual subgraph.
    pub sccs_found: u64,
    /// Row pairs read to build the residual graph.
    pub evals: u64,
}

/// The residual analysis both convergence passes end in. `residual`
/// holds, ascending, the region states the pass could not resolve:
/// exactly those starting an infinite region-confined path, so every
/// cycle lies inside it, and `local` maps an id to its position there. Tarjan runs over a
/// residual-local CSR (rows in action order, filtered to residual
/// targets), and only components with an internal edge are examined (a
/// residual chain state feeding a cycle is a singleton SCC and cannot host
/// one); the first such component that is a legal computation under
/// `fairness` is the divergence witness.
pub(crate) fn analyze_residual(
    rows: &mut impl Successors,
    program: &Program,
    index: &SpaceIndex,
    residual: &[StateId],
    local: impl Fn(StateId) -> Option<usize>,
    fairness: Fairness,
) -> Result<Residual, SpaceError> {
    let mut offsets: Vec<u32> = Vec::with_capacity(residual.len() + 1);
    offsets.push(0);
    let mut edges: Vec<u32> = Vec::new();
    let mut evals = 0u64;
    for &id in residual {
        let row = rows.row(id)?;
        evals += row.len() as u64;
        edges.extend(
            row.succs()
                .iter()
                .filter_map(|&t| local(t))
                .map(|lt| lt as u32),
        );
        offsets.push(edges.len() as u32);
    }
    let n = residual.len();
    let (mut result, mut sccs_found) = (ConvergenceResult::Converges, 0u64);
    let mut scc_bits = Bitset::zeros(n);
    let row = |u: u32| {
        let (lo, hi) = (
            offsets[u as usize] as usize,
            offsets[u as usize + 1] as usize,
        );
        edges[lo..hi].iter().copied()
    };
    let component = |scc: &[u32], cyclic: bool| -> Result<(), SpaceError> {
        sccs_found += 1;
        if !cyclic || !result.converges() {
            return Ok(());
        }
        let states = scc.iter().map(|&u| residual[u as usize]);
        let divergent = match fairness {
            Fairness::Unfair => true,
            Fairness::WeaklyFair => {
                scc.iter().for_each(|&u| scc_bits.set(u as usize));
                let in_scc = |t: StateId| local(t).is_some_and(|lt| scc_bits.get(lt));
                let admissible =
                    fair_admissible(rows, program.action_count(), states.clone(), in_scc)?;
                scc.iter().for_each(|&u| scc_bits.unset(u as usize));
                admissible
            }
        };
        if divergent {
            result = ConvergenceResult::Divergence {
                states: states.map(|id| index.state(id)).collect(),
                fairness,
            };
        }
        Ok(())
    };
    tarjan(n, 0..n as u32, row, component)?;
    Ok(Residual {
        result,
        sccs_found,
        evals,
    })
}

/// Whether an SCC admits a weakly fair infinite computation: every action
/// enabled at all of its states must have a transition staying inside it.
/// Enabledness is read off the rows: an action is enabled at a state
/// exactly when the state's row holds a pair for it.
fn fair_admissible(
    rows: &mut impl Successors,
    actions: usize,
    scc: impl Iterator<Item = StateId>,
    in_scc: impl Fn(StateId) -> bool,
) -> Result<bool, SpaceError> {
    let mut everywhere = vec![true; actions];
    let mut stays = vec![false; actions];
    let mut here = vec![false; actions];
    for id in scc {
        here.fill(false);
        for (a, t) in rows.row(id)? {
            here[a.index()] = true;
            stays[a.index()] |= in_scc(t);
        }
        for (e, &h) in everywhere.iter_mut().zip(&here) {
            *e &= h;
        }
    }
    // An action enabled everywhere in the SCC whose every execution leaves
    // it forces a fair computation out.
    Ok(everywhere.iter().zip(&stays).all(|(&e, &s)| !e || s))
}

/// One step of a replayable witness path produced by [`shortest_path_to`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathStep {
    /// The action whose execution reached [`PathStep::state`] from the
    /// previous step's state; `None` at the start of the path.
    pub action: Option<ActionId>,
    /// The state reached.
    pub state: State,
}

/// A breadth-first witness path: from some state satisfying `from` to the
/// first state in `targets`, following program transitions. Used to turn a
/// divergence witness (the SCC states of
/// [`ConvergenceResult::Divergence`]) into a full counterexample
/// computation a reader can replay: each step records the [`ActionId`]
/// executed, so `program.action(a).successor(&prev)` reproduces it.
///
/// Returns `Ok(None)` when no target is reachable from `from` (then the
/// divergence is only reachable via fault actions, not program steps).
///
/// # Errors
///
/// [`CheckError::WorkerFailed`] if `from` panics at some state.
pub fn shortest_path_to(
    space: &StateSpace,
    from: &Predicate,
    targets: &[State],
) -> Result<Option<Vec<PathStep>>, CheckError> {
    const NO_PARENT: u32 = u32::MAX;
    let mut target_ids = Bitset::zeros(space.len());
    for t in targets {
        if let Some(id) = space.id_of(t) {
            target_ids.set(id.index());
        }
    }
    let mut parent = vec![NO_PARENT; space.len()];
    let mut via = vec![ActionId::from_index(0); space.len()];
    let mut seen = Bitset::for_predicate(space, from, CheckOptions::default())?;
    let mut queue: std::collections::VecDeque<StateId> =
        seen.iter_ones().map(StateId::from_index).collect();
    while let Some(id) = queue.pop_front() {
        if target_ids.contains(id) {
            // Rebuild the path; the start state (no parent) carries no
            // action.
            let mut path = Vec::new();
            let mut cur = id;
            loop {
                let p = parent[cur.index()];
                path.push(PathStep {
                    action: (p != NO_PARENT).then(|| via[cur.index()]),
                    state: space.state(cur),
                });
                if p == NO_PARENT {
                    break;
                }
                cur = StateId::from_index(p as usize);
            }
            path.reverse();
            return Ok(Some(path));
        }
        for (a, next) in space.successors(id) {
            if !seen.contains(next) {
                seen.set(next.index());
                parent[next.index()] = id.index() as u32;
                via[next.index()] = a;
                queue.push_back(next);
            }
        }
    }
    Ok(None)
}

/// The [`tarjan`] height of a node with an infinite path.
const INFINITE: u32 = u32::MAX;

/// Iterative Tarjan SCC over the nodes `0..n` reachable from `roots`,
/// whose out-edges `row(v)` yields. Components complete in reverse
/// topological order, and each is handed to `component` as its members,
/// sorted, with whether it is *cyclic* (two or more members, or a
/// self-loop). A component is a slice of the DFS stack, so a singleton
/// allocates nothing.
///
/// Returns each node's *height*: the number of nodes on its longest path,
/// or [`INFINITE`] when a path from it reaches a cyclic component (0 for a
/// node never reached). A singleton's height is one more than the largest
/// of its successors', all of which completed before it; a cyclic
/// component's members are infinite. The first `Err` from `component` ends
/// the search.
fn tarjan<I, E>(
    n: usize,
    roots: impl IntoIterator<Item = u32>,
    mut row: impl FnMut(u32) -> I,
    mut component: impl FnMut(&[u32], bool) -> Result<(), E>,
) -> Result<Vec<u32>, E>
where
    I: Iterator<Item = u32>,
{
    const UNSEEN: u32 = u32::MAX;
    const DONE: u32 = u32::MAX - 1;
    // DFS numbers and finite heights then stay below both sentinels.
    assert!(n <= DONE as usize, "{n} nodes overflow the u32 numbering");
    // `index[v]` is `UNSEEN`, then v's DFS number while v is on the stack,
    // then `DONE`. `low[v]` is v's lowlink, then its height once done.
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0u32; n];
    let mut stack: Vec<u32> = Vec::new();
    // Explicit DFS stack: (node, its unread out-edges, the largest height
    // among its done successors, whether it has a self-loop).
    let mut call: Vec<(u32, I, u32, bool)> = Vec::new();
    let mut next_index = 0u32;
    for root in roots {
        if index[root as usize] != UNSEEN {
            continue;
        }
        let mut enter = Some(root);
        loop {
            if let Some(w) = enter.take() {
                index[w as usize] = next_index;
                low[w as usize] = next_index;
                next_index += 1;
                stack.push(w);
                call.push((w, row(w), 0, false));
            }
            let Some((v, edges, reach, self_loop)) = call.last_mut() else {
                break;
            };
            let v = *v as usize;
            if let Some(w) = edges.next() {
                match index[w as usize] {
                    UNSEEN => enter = Some(w),
                    DONE => *reach = (*reach).max(low[w as usize]),
                    iw => {
                        low[v] = low[v].min(iw);
                        *self_loop |= w as usize == v;
                    }
                }
                continue;
            }
            let (_, _, reach, self_loop) = call.pop().expect("a frame was just read");
            if low[v] == index[v] {
                let start = stack.iter().rposition(|&u| u as usize == v);
                let start = start.expect("v is on the stack");
                let members = &mut stack[start..];
                let cyclic = members.len() > 1 || self_loop;
                let height = if cyclic {
                    INFINITE
                } else {
                    reach.saturating_add(1)
                };
                for &u in members.iter() {
                    index[u as usize] = DONE;
                    low[u as usize] = height;
                }
                members.sort_unstable();
                component(members, cyclic)?;
                stack.truncate(start);
            }
            if let Some((parent, _, reach, _)) = call.last_mut() {
                let p = *parent as usize;
                if index[v] == DONE {
                    *reach = (*reach).max(low[v]);
                } else {
                    low[p] = low[p].min(low[v]);
                }
            }
        }
    }
    Ok(low)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonmask_program::{Domain, Program};

    fn pred_eq(p: &Program, name: &str, var: &str, value: i64) -> Predicate {
        let v = p.var_by_name(var).unwrap();
        Predicate::new(name, [v], move |s| s.get(v) == value)
    }

    /// The report from `from` to `to` with the default options.
    fn check(
        space: &StateSpace,
        p: &Program,
        from: &Predicate,
        to: &Predicate,
    ) -> ConvergenceReport {
        check_convergence(space, p, from, to, CheckOptions::default()).unwrap()
    }

    /// x counts down from `max` to 0 by `dec`.
    fn countdown(max: i64) -> Program {
        let mut b = Program::builder("down");
        let x = b.var("x", Domain::range(0, max));
        b.convergence_action(
            "dec",
            [x],
            [x],
            move |s| s.get(x) > 0,
            move |s| {
                let v = s.get(x);
                s.set(x, v - 1);
            },
        );
        b.build()
    }

    #[test]
    fn converging_countdown() {
        let p = countdown(5);
        let space = StateSpace::enumerate(&p).unwrap();
        let s = pred_eq(&p, "x=0", "x", 0);
        let report = check(&space, &p, &Predicate::always_true(), &s);
        assert!(report.unfair.converges());
        assert!(report.weakly_fair.converges());
        assert_eq!(report.worst_case_moves, Some(5), "x=5 takes five steps");
        // The countdown peels its whole region.
        assert_eq!(
            report.stats,
            ConvergenceStats {
                region_states: 5,
                peeled_states: 5,
                sccs_found: 0,
            }
        );
    }

    #[test]
    fn deadlock_outside_target_detected() {
        // x=2 is absorbing with no enabled action, and not the target.
        let mut b = Program::builder("stuck");
        let x = b.var("x", Domain::range(0, 2));
        b.convergence_action("go", [x], [x], move |s| s.get(x) == 1, move |s| s.set(x, 0));
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let s = pred_eq(&p, "x=0", "x", 0);
        let report = check(&space, &p, &Predicate::always_true(), &s);
        assert!(
            matches!(report.weakly_fair, ConvergenceResult::DeadlockOutsideTarget { ref state } if state.slots() == [2])
        );
        assert_eq!(report.unfair, report.weakly_fair);
        assert_eq!(report.worst_case_moves, None, "a deadlock has no bound");
    }

    #[test]
    fn unfair_cycle_detected_but_fairness_rescues() {
        // Two actions at every ¬S state: `spin` toggles y and stays in the
        // region; `exit` jumps to the target. Unfair daemons can spin
        // forever; a weakly fair daemon must eventually run `exit`.
        //
        // This is also the soundness test for the residual: every region
        // state here *can* reach S (via `exit`), so a "cannot-reach-S"
        // residual would be empty and the unfair divergence missed. The
        // region pass keeps the spin cycle infinite.
        let mut b = Program::builder("spin");
        let x = b.var("x", Domain::Bool);
        let y = b.var("y", Domain::Bool);
        b.closure_action(
            "spin",
            [x, y],
            [y],
            move |s| !s.get_bool(x),
            move |s| s.toggle(y),
        );
        b.convergence_action(
            "exit",
            [x],
            [x],
            move |s| !s.get_bool(x),
            move |s| s.set_bool(x, true),
        );
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let s = Predicate::new("x", [x], move |st| st.get_bool(x));
        let report = check(&space, &p, &Predicate::always_true(), &s);
        assert!(
            matches!(report.unfair, ConvergenceResult::Divergence { ref states, fairness: Fairness::Unfair } if states.len() == 2)
        );
        let fair = report.verdict(Fairness::WeaklyFair);
        assert!(fair.converges(), "weak fairness forces `exit`: {fair:?}");
        assert_eq!(report.worst_case_moves, None);
    }

    #[test]
    fn fair_divergence_detected() {
        // The only enabled action in the region cycles within it: even fair
        // computations never reach the target.
        let mut b = Program::builder("livelock");
        let y = b.var("y", Domain::Bool);
        let x = b.var("x", Domain::Bool);
        b.closure_action(
            "toggle",
            [x, y],
            [y],
            move |s| !s.get_bool(x),
            move |s| s.toggle(y),
        );
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let s = Predicate::new("x", [x], move |st| st.get_bool(x));
        let report = check(&space, &p, &Predicate::always_true(), &s);
        let r = report.verdict(Fairness::WeaklyFair);
        assert!(
            matches!(
                r,
                ConvergenceResult::Divergence {
                    fairness: Fairness::WeaklyFair,
                    ..
                }
            ),
            "got {r:?}"
        );
        assert_eq!(report.worst_case_moves, None, "a cycle has no bound");
    }

    #[test]
    fn self_loop_divergence_under_unfair_only() {
        // `stay` leaves the state unchanged (self-loop); `exit` leaves the
        // region. Unfair: stay forever. Fair: exit eventually runs.
        let mut b = Program::builder("selfloop");
        let x = b.var("x", Domain::Bool);
        b.closure_action("stay", [x], [x], move |s| !s.get_bool(x), move |_s| {});
        b.convergence_action(
            "exit",
            [x],
            [x],
            move |s| !s.get_bool(x),
            move |s| s.set_bool(x, true),
        );
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let s = Predicate::new("x", [x], move |st| st.get_bool(x));
        let report = check(&space, &p, &Predicate::always_true(), &s);
        assert!(
            matches!(report.unfair, ConvergenceResult::Divergence { ref states, .. } if states.len() == 1)
        );
        assert!(report.weakly_fair.converges());
    }

    #[test]
    fn escape_from_fault_span_detected() {
        // T = x<=1, but the region action jumps to x=2 ∉ T ∪ S.
        let mut b = Program::builder("escape");
        let x = b.var("x", Domain::range(0, 2));
        b.closure_action(
            "jump",
            [x],
            [x],
            move |s| s.get(x) == 1,
            move |s| s.set(x, 2),
        );
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let s = pred_eq(&p, "x=0", "x", 0);
        let t = Predicate::new("x<=1", [x], move |st| st.get(x) <= 1);
        let report = check(&space, &p, &t, &s);
        let r = &report.weakly_fair;
        assert!(
            matches!(r, ConvergenceResult::EscapesFaultSpan { .. }),
            "got {r:?}"
        );
        // The unfair verdict is the same escape, so no finite bound may
        // stand beside it.
        assert_eq!(report.unfair, report.weakly_fair);
        assert_eq!(report.worst_case_moves, None);
    }

    #[test]
    fn empty_region_converges_trivially() {
        let p = countdown(3);
        let space = StateSpace::enumerate(&p).unwrap();
        let s = pred_eq(&p, "x=0", "x", 0);
        for (from, to) in [
            (Predicate::always_true(), Predicate::always_true()),
            (Predicate::always_false(), s),
        ] {
            let report = check(&space, &p, &from, &to);
            assert!(report.weakly_fair.converges());
            assert_eq!(report.worst_case_moves, Some(0), "an empty region");
        }
    }

    #[test]
    fn branching_takes_longest_path() {
        // From x: either jump straight to 0 or step down by 1. Worst case
        // still walks all the way down.
        let mut b = Program::builder("branch");
        let x = b.var("x", Domain::range(0, 5));
        b.convergence_action(
            "jump",
            [x],
            [x],
            move |s| s.get(x) > 0,
            move |s| s.set(x, 0),
        );
        b.convergence_action(
            "step",
            [x],
            [x],
            move |s| s.get(x) > 0,
            move |s| {
                let v = s.get(x);
                s.set(x, v - 1);
            },
        );
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let s = pred_eq(&p, "x=0", "x", 0);
        let report = check(&space, &p, &Predicate::always_true(), &s);
        assert_eq!(report.worst_case_moves, Some(5));
    }

    #[test]
    fn region_limited_to_fault_span() {
        // Outside T there is a livelock, but convergence is only claimed
        // from T, so it must not be reported.
        let mut b = Program::builder("scoped");
        let x = b.var("x", Domain::range(0, 2));
        // At x=2 (outside T=x<=1): spin forever via self-loop.
        b.closure_action("spin", [x], [x], move |s| s.get(x) == 2, move |_s| {});
        // At x=1: move to 0.
        b.convergence_action(
            "fix",
            [x],
            [x],
            move |s| s.get(x) == 1,
            move |s| s.set(x, 0),
        );
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let s = pred_eq(&p, "x=0", "x", 0);
        let t = Predicate::new("x<=1", [x], move |st| st.get(x) <= 1);
        let r = check(&space, &p, &t, &s).unfair;
        assert!(r.converges(), "got {r:?}");
    }

    #[test]
    fn multi_threaded_matches_single_threaded() {
        // 4096- and 5000-state countdowns (above the parallel threshold):
        // every report field must be bit-identical across worker counts.
        let mut b = Program::builder("mt");
        let x = b.var("x", Domain::range(0, 4095));
        b.convergence_action(
            "dec",
            [x],
            [x],
            move |s| s.get(x) > 1,
            move |s| {
                let v = s.get(x);
                s.set(x, v - 1);
            },
        );
        // x=1 deadlocks outside the target of the first: a witness exists,
        // and all thread counts must agree on it. The second converges,
        // and all must agree on its bound.
        for (p, deadlock, bound) in [
            (b.build(), true, None),
            (countdown(4999), false, Some(4999)),
        ] {
            let space = StateSpace::enumerate(&p).unwrap();
            let s = pred_eq(&p, "x=0", "x", 0);
            let t = Predicate::always_true();
            let serial = check_convergence(&space, &p, &t, &s, CheckOptions::serial()).unwrap();
            for threads in [2, 4, 8] {
                let opts = CheckOptions::default().threads(threads);
                let par = check_convergence(&space, &p, &t, &s, opts).unwrap();
                assert_eq!(serial, par, "threads={threads}");
            }
            assert_eq!(
                matches!(serial.weakly_fair, ConvergenceResult::DeadlockOutsideTarget { ref state } if state.slots() == [1]),
                deadlock
            );
            assert_eq!(serial.worst_case_moves, bound);
        }
    }

    #[test]
    fn divergence_witness_is_thread_count_invariant() {
        // A large region full of internal 2-cycles (spin on y) plus exits:
        // the residual keeps every cycle and each thread count must report the
        // identical witness SCC.
        let mut b = Program::builder("mt-div");
        let x = b.var("x", Domain::range(0, 4095));
        let y = b.var("y", Domain::Bool);
        b.closure_action(
            "spin",
            [x, y],
            [y],
            move |s| s.get(x) > 0,
            move |s| s.toggle(y),
        );
        b.convergence_action(
            "dec",
            [x],
            [x],
            move |s| s.get(x) > 0,
            move |s| {
                let v = s.get(x);
                s.set(x, v - 1);
            },
        );
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let s = pred_eq(&p, "x=0", "x", 0);
        let t = Predicate::always_true();
        let serial = check_convergence(&space, &p, &t, &s, CheckOptions::serial()).unwrap();
        assert!(
            matches!(serial.unfair, ConvergenceResult::Divergence { ref states, .. } if states.len() == 2),
            "got {:?}",
            serial.unfair
        );
        for threads in [2, 8] {
            let opts = CheckOptions::default().threads(threads);
            let par = check_convergence(&space, &p, &t, &s, opts).unwrap();
            assert_eq!(serial, par, "threads={threads}");
        }
    }

    /// Every component of `adj` in completion order, with its cyclic flag,
    /// and every node's height.
    fn tarjan_of(adj: &[Vec<u32>]) -> (Vec<(Vec<u32>, bool)>, Vec<u32>) {
        let mut sccs = Vec::new();
        let heights = tarjan(
            adj.len(),
            0..adj.len() as u32,
            |v| adj[v as usize].iter().copied(),
            |scc, cyclic| {
                sccs.push((scc.to_vec(), cyclic));
                Ok::<_, ()>(())
            },
        )
        .unwrap();
        (sccs, heights)
    }

    #[test]
    fn tarjan_handles_multiple_components() {
        // 0 -> 1 -> 0 (SCC {0,1}); 2 -> 3 (two singletons); 4 self-loop.
        let adj = vec![vec![1], vec![0], vec![3], vec![], vec![4]];
        let (sccs, heights) = tarjan_of(&adj);
        assert_eq!(
            sccs,
            vec![
                (vec![0, 1], true),
                (vec![3], false),
                (vec![2], false),
                (vec![4], true),
            ]
        );
        assert_eq!(heights, vec![INFINITE, INFINITE, 2, 1, INFINITE]);
    }

    #[test]
    fn tarjan_heights_cover_every_edge_kind() {
        // 0 -> 1 -> 2 -> 1 (a cycle fed by a chain) and 0 -> 3 -> 4; then
        // 5 -> 3 crosses into a done singleton, 6 -> 2 into a done cycle;
        // 7 -> 8 -> {9, 7} and 9 -> 8 back-edges two branches into one
        // component.
        let adj = vec![
            vec![1, 3],
            vec![2],
            vec![1],
            vec![4],
            vec![],
            vec![3],
            vec![2],
            vec![8],
            vec![9, 7],
            vec![8],
        ];
        let (sccs, heights) = tarjan_of(&adj);
        assert_eq!(
            sccs,
            vec![
                (vec![1, 2], true),
                (vec![4], false),
                (vec![3], false),
                (vec![0], false),
                (vec![5], false),
                (vec![6], false),
                (vec![7, 8, 9], true),
            ]
        );
        let inf = INFINITE;
        assert_eq!(heights, vec![inf, inf, inf, 2, 1, 3, inf, inf, inf, inf]);
    }

    #[test]
    fn fairness_display() {
        assert_eq!(Fairness::Unfair.to_string(), "unfair");
        assert_eq!(Fairness::WeaklyFair.to_string(), "weakly-fair");
    }

    /// A program over `x ∈ 0..=max` with one action per edge `(a, b)`,
    /// enabled at `x = a` and setting `x := b`, plus, with `exit`, one
    /// action enabled at every `x > 0` that sets `x := 0`.
    fn graph(max: i64, edges: &[(i64, i64)], exit: bool) -> Program {
        let mut b = Program::builder("graph");
        let x = b.var("x", Domain::range(0, max));
        for &(from, to) in edges {
            b.convergence_action(
                format!("{from}->{to}"),
                [x],
                [x],
                move |s| s.get(x) == from,
                move |s| s.set(x, to),
            );
        }
        if exit {
            b.convergence_action(
                "exit",
                [x],
                [x],
                move |s| s.get(x) > 0,
                move |s| s.set(x, 0),
            );
        }
        b.build()
    }

    /// The one region pass over `T = x ≤ span` and `S = x ∈ goal`, serially
    /// and with four workers (which must agree), and the state `x = v` of
    /// the space, for witnesses.
    fn region_pass(
        p: &Program,
        span: i64,
        goal: &'static [i64],
    ) -> (ConvergenceReport, impl Fn(usize) -> State) {
        let space = StateSpace::enumerate(p).unwrap();
        let x = p.var_by_name("x").unwrap();
        let t = Predicate::new("T", [x], move |s| s.get(x) <= span);
        let s = Predicate::new("S", [x], move |s| goal.contains(&s.get(x)));
        let serial = check_convergence(&space, p, &t, &s, CheckOptions::serial()).unwrap();
        let par = CheckOptions::default().threads(4);
        assert_eq!(check_convergence(&space, p, &t, &s, par).unwrap(), serial);
        (serial, move |v| space.state(StateId::from_index(v)))
    }

    fn divergence(states: Vec<State>, fairness: Fairness) -> ConvergenceResult {
        ConvergenceResult::Divergence { states, fairness }
    }

    fn stats(region_states: u64, peeled_states: u64, sccs_found: u64) -> ConvergenceStats {
        ConvergenceStats {
            region_states,
            peeled_states,
            sccs_found,
        }
    }

    #[test]
    fn self_loop_singleton_is_residual() {
        // 3 -> 2 -> 1 -> 0 with a self-loop at 2: 2 and 3 can stay in the
        // region forever, 1 cannot. The self-loop is a cyclic singleton; a
        // weakly fair daemon must take 2 -> 1, enabled there.
        let p = graph(3, &[(1, 0), (2, 1), (2, 2), (3, 2)], false);
        let (report, st) = region_pass(&p, 3, &[0]);
        assert_eq!(
            report,
            ConvergenceReport {
                weakly_fair: ConvergenceResult::Converges,
                unfair: divergence(vec![st(2)], Fairness::Unfair),
                worst_case_moves: None,
                stats: stats(3, 1, 2),
            }
        );
    }

    #[test]
    fn chain_into_a_cycle_from_the_lowest_root_is_residual() {
        // The search starts at 1, the lowest region id, and reaches the
        // cycle 3 <-> 4 only through the chain 1 -> 2 -> 3. Both chain
        // states can exit to S, yet each starts an infinite region path.
        let p = graph(4, &[(1, 2), (1, 0), (2, 3), (2, 0), (3, 4), (4, 3)], false);
        let (report, st) = region_pass(&p, 4, &[0]);
        assert_eq!(
            report,
            ConvergenceReport {
                weakly_fair: divergence(vec![st(3), st(4)], Fairness::WeaklyFair),
                unfair: divergence(vec![st(3), st(4)], Fairness::Unfair),
                worst_case_moves: None,
                stats: stats(4, 0, 3),
            }
        );
    }

    #[test]
    fn cross_edge_into_a_completed_cycle_is_residual() {
        // The first root completes the cycle 1 <-> 2. Roots 3 and 4 come
        // later and reach it only by a cross edge into that completed
        // component, so they are infinite too. `exit`, enabled everywhere
        // in the cycle, rescues the weakly fair daemon.
        let p = graph(4, &[(1, 2), (2, 1), (3, 1), (4, 3)], true);
        let (report, st) = region_pass(&p, 4, &[0]);
        assert_eq!(
            report,
            ConvergenceReport {
                weakly_fair: ConvergenceResult::Converges,
                unfair: divergence(vec![st(1), st(2)], Fairness::Unfair),
                worst_case_moves: None,
                stats: stats(4, 0, 3),
            }
        );
    }

    #[test]
    fn back_edge_into_another_branch_joins_its_component() {
        // From 1 the search takes 1 -> 2 first; 2's back edge to 1 leaves
        // it on the stack after its branch returns. The second branch,
        // 1 -> 3, then meets 2 on the stack, so 3 joins {1, 2, 3}.
        let p = graph(3, &[(1, 2), (1, 3), (2, 1), (3, 2)], true);
        let (report, st) = region_pass(&p, 3, &[0]);
        assert_eq!(
            report,
            ConvergenceReport {
                weakly_fair: ConvergenceResult::Converges,
                unfair: divergence(vec![st(1), st(2), st(3)], Fairness::Unfair),
                worst_case_moves: None,
                stats: stats(3, 0, 1),
            }
        );
    }

    #[test]
    fn heights_count_the_exit_step_across_completed_successors() {
        // 4 -> 3 -> 2 -> 1 -> 0 plus the shortcut 4 -> 1. Every root after
        // the first meets only completed successors; the longest path out,
        // from 4, takes four steps.
        let p = graph(4, &[(1, 0), (2, 1), (3, 2), (4, 3), (4, 1)], false);
        let (report, _) = region_pass(&p, 4, &[0]);
        assert_eq!(
            report,
            ConvergenceReport {
                weakly_fair: ConvergenceResult::Converges,
                unfair: ConvergenceResult::Converges,
                worst_case_moves: Some(4),
                stats: stats(4, 4, 0),
            }
        );
    }

    #[test]
    fn lowest_id_event_wins() {
        // T = x ≤ 5. 2 and 4 escape to 6, outside T and S; 3 and 5 are
        // deadlocked. The escape at 2 is the lowest event; with 2 in S the
        // deadlock at 3 is. The region is counted in full either way.
        let p = graph(6, &[(1, 0), (2, 6), (4, 6), (6, 0)], false);
        let (report, st) = region_pass(&p, 5, &[0]);
        let escape = ConvergenceResult::EscapesFaultSpan {
            before: st(2),
            after: st(6),
        };
        assert_eq!(
            report,
            ConvergenceReport {
                weakly_fair: escape.clone(),
                unfair: escape,
                worst_case_moves: None,
                stats: stats(5, 0, 0),
            }
        );
        let (report, st) = region_pass(&p, 5, &[0, 2]);
        let deadlock = ConvergenceResult::DeadlockOutsideTarget { state: st(3) };
        assert_eq!(
            report,
            ConvergenceReport {
                weakly_fair: deadlock.clone(),
                unfair: deadlock,
                worst_case_moves: None,
                stats: stats(4, 0, 0),
            }
        );
    }
}
