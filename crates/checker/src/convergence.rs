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
//! One parallel pass over the space collects the region and the lowest-id
//! deadlock or escape. Two passes over the region's rows then count each
//! state's internal out- and in-degree and store the internal adjacency
//! reversed only, as a CSR graph of predecessors over region-local `u32`
//! nodes (one `offsets` array plus a flat `edges` array), since the peel
//! below walks nothing else.
//!
//! Before any SCC work, a **peeling fast path** computes the greatest set of
//! region states from which a computation can stay in the region *forever*:
//! repeatedly remove (via reverse edges and internal out-degree counters,
//! Kahn-style, `O(V+E)`) every state all of whose internal successors are
//! already removed. A state survives iff it starts an infinite
//! region-confined path, so every cycle — and hence every nontrivial SCC —
//! lies wholly inside the residual. In the common converging case the
//! residual is empty and Tarjan never runs; otherwise Tarjan runs on the
//! residual subgraph only, once per daemon. (Note the residual is *not*
//! "states that cannot reach `S`": a cycle that could exit to `S` but need
//! not is still a legal unfair divergence, and the peel keeps it.)
//!
//! The peel also records each state's *height*, its longest path out of
//! the region: a rank every region step lowers, as in Theorem 1's proof.
//! The largest height is the worst-case bound, so one pass
//! ([`check_convergence_bits`]) answers both daemons and the bound.
//!
//! Every thread count reports the same witness: the lowest-id event wins,
//! exactly as in a sequential scan.
//!
//! The residual analysis (Tarjan plus the fair-admissibility test) reads
//! rows through [`Successors`], so the out-of-core
//! [`frontier`](crate::frontier) peel ends in this same code, fed decoded
//! rows instead of CSR rows.

use nonmask_obs::{Event, Journal};
use nonmask_program::{ActionId, Predicate, Program, State};

use crate::cache::Bitset;
use crate::error::CheckError;
use crate::options::{run_chunks, CheckOptions};
use crate::space::{offsets_from_counts, SpaceError, SpaceIndex, StateId, StateSpace};
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
/// [`check_convergence_bits`] and surfaced in journals as
/// [`Event::Wave`]: how much of the region the peeling fast path resolved
/// before any SCC analysis, and how many components Tarjan then examined.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConvergenceStats {
    /// States in the region `T ∧ ¬S`.
    pub region_states: u64,
    /// Region states removed by the Kahn-style peel (all of them, in the
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
/// `T`) reaches `to` (the invariant `S`), under the given fairness
/// assumption.
///
/// `Converges` under [`Fairness::Unfair`] implies `Converges` under
/// [`Fairness::WeaklyFair`]; divergence witnesses found under
/// `WeaklyFair` are also divergences under `Unfair`.
///
/// # Errors
///
/// [`CheckError::WorkerFailed`] if a predicate panics mid-scan.
pub fn check_convergence(
    space: &StateSpace,
    program: &Program,
    from: &Predicate,
    to: &Predicate,
    fairness: Fairness,
) -> Result<ConvergenceResult, CheckError> {
    let report = check_convergence_report(space, program, from, to, CheckOptions::default())?;
    Ok(report.verdict(fairness).clone())
}

/// [`check_convergence`] with explicit [`CheckOptions`] (the result is
/// identical for every thread count) that additionally reports
/// [`ConvergenceStats`] and journals the pass: one [`Event::Wave`] per
/// invocation with the region, peel, and SCC sizes.
///
/// # Errors
///
/// [`CheckError::WorkerFailed`] if a predicate panics mid-scan.
pub fn check_convergence_stats(
    space: &StateSpace,
    program: &Program,
    from: &Predicate,
    to: &Predicate,
    fairness: Fairness,
    opts: CheckOptions,
    journal: &Journal,
) -> Result<(ConvergenceResult, ConvergenceStats), CheckError> {
    let report = check_convergence_report(space, program, from, to, opts)?;
    let stats = report.stats;
    journal.emit_with(|| Event::Wave {
        fairness: fairness.to_string(),
        region: stats.region_states,
        peeled: stats.peeled_states,
        sccs: stats.sccs_found,
    });
    Ok((report.verdict(fairness).clone(), stats))
}

/// [`check_convergence_bits`] over the predicates themselves: evaluates
/// `from` and `to` into caches in one decode pass, then runs the one
/// region pass.
///
/// # Errors
///
/// [`CheckError::WorkerFailed`] if a predicate or action body panics.
pub fn check_convergence_report(
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
/// The region is built once, swept once for deadlocks and escapes, and
/// Kahn-peeled once. The peel records each state's *height*, the longest
/// path out of the region: a peeled state's internal successors are all
/// peeled before it, so its height is one more than the largest of theirs.
/// No event and an empty residual means both daemons converge and the
/// bound is the largest height. Otherwise the bound is `None`, and the
/// verdicts are the lowest-id event or, per daemon, the residual analysis.
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
    // One parallel pass over the space builds the region `T ∧ ¬S`, sorted,
    // and sweeps it for deadlocks and escapes. Chunks are id ranges and
    // each stops checking rows at its first event, so the first chunk with
    // an event holds the lowest-id witness of a sequential scan. Region
    // states are still collected past an event, so the region size is
    // exact either way.
    enum RegionEvent {
        Deadlock(StateId),
        Escape { before: StateId, after: StateId },
    }
    let chunks = run_chunks(space.len(), opts.workers_for(space.len()), |range| {
        let (mut region, mut event) = (Vec::new(), None);
        for i in range.filter(|&i| from_bits.get(i) && !to_bits.get(i)) {
            let id = StateId::from_index(i);
            region.push(id);
            if event.is_some() {
                continue;
            }
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
        (region, event)
    })?;
    let (mut region, mut first_event) = (Vec::new(), None);
    for (chunk_region, event) in chunks {
        region.extend(chunk_region);
        first_event = first_event.or(event);
    }
    stats.region_states = region.len() as u64;
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
    let n = region.len();
    let mut local = vec![u32::MAX; space.len()];
    for (li, id) in region.iter().enumerate() {
        local[id.index()] = li as u32;
    }

    // The peel walks predecessors only, so the internal edges are stored
    // reversed, straight from the space's rows, and no forward region CSR
    // is built. With no event, every successor outside `S` is in the
    // region.
    let internal = |li: usize| {
        space
            .successor_ids(region[li])
            .iter()
            .filter(|&&t| !to_bits.contains(t))
            .map(|t| local[t.index()] as usize)
    };
    let mut cursor = vec![0u32; n];
    let mut outdeg: Vec<u32> = (0..n)
        .map(|li| internal(li).inspect(|&t| cursor[t] += 1).count() as u32)
        .collect();
    // Internal region edges can't outnumber the space's transitions, which
    // fit u32 offsets by construction.
    let rev_offsets =
        offsets_from_counts(&cursor).expect("region edges bounded by the space's transitions");
    cursor.copy_from_slice(&rev_offsets[..n]);
    let mut rev_edges = vec![0u32; rev_offsets[n] as usize];
    for li in 0..n {
        for t in internal(li) {
            rev_edges[cursor[t] as usize] = li as u32;
            cursor[t] += 1;
        }
    }
    drop(cursor);

    // Peeling fast path: remove every state whose internal successors are
    // all removed; what survives (`outdeg > 0` at the fixpoint) is exactly
    // the set of states with an infinite region-confined path. Empty in the
    // common converging case — then no SCC analysis is needed at all. A
    // state is popped only after all its internal successors, so its
    // height is final by then and can be pushed to its predecessors.
    let mut height = vec![1u32; n];
    let mut worst = 0u32;
    let mut worklist: Vec<u32> = (0..n as u32).filter(|&u| outdeg[u as usize] == 0).collect();
    let mut removed = worklist.len();
    while let Some(u) = worklist.pop() {
        let hu = height[u as usize];
        worst = worst.max(hu);
        let (lo, hi) = (
            rev_offsets[u as usize] as usize,
            rev_offsets[u as usize + 1] as usize,
        );
        for &p in &rev_edges[lo..hi] {
            let p = p as usize;
            height[p] = height[p].max(hu + 1);
            outdeg[p] -= 1;
            if outdeg[p] == 0 {
                worklist.push(p as u32);
                removed += 1;
            }
        }
    }
    stats.peeled_states = removed as u64;
    if removed == n {
        return Ok(ConvergenceReport {
            weakly_fair: ConvergenceResult::Converges,
            unfair: ConvergenceResult::Converges,
            worst_case_moves: Some(worst.into()),
            stats,
        });
    }
    drop((height, rev_offsets, rev_edges));

    // `outdeg` is spent: reuse it as the region's residual-local numbering
    // (`u32::MAX` for peeled states), so lookups stay O(1).
    let mut residual: Vec<StateId> = Vec::with_capacity(n - removed);
    for (d, &id) in outdeg.iter_mut().zip(&region) {
        *d = if *d > 0 {
            residual.push(id);
            residual.len() as u32 - 1
        } else {
            u32::MAX
        };
    }
    // A state outside the region has `local == u32::MAX`, past `outdeg`.
    let in_residual = |t: StateId| {
        let r = *outdeg.get(local[t.index()] as usize)?;
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

/// The residual analysis both peels end in. `residual` holds, ascending,
/// the region states the peel could not resolve: exactly those starting an
/// infinite region-confined path, so every cycle lies inside it, and
/// `local` maps an id to its position there. Tarjan runs over a
/// residual-local CSR (rows in action order, filtered to residual
/// targets), keeping only components with an internal edge (a residual
/// chain state feeding a cycle is a singleton SCC and cannot host one); the
/// first such component that is a legal computation under `fairness` is
/// the divergence witness.
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
    let sccs = tarjan_sccs_csr(&offsets, &edges, &Bitset::ones(residual.len()));
    let mut result = ConvergenceResult::Converges;
    for scc in &sccs {
        let mut scc_bits = Bitset::zeros(residual.len());
        for &u in scc {
            scc_bits.set(u as usize);
        }
        let has_internal_edge = scc.iter().any(|&u| {
            let (lo, hi) = (
                offsets[u as usize] as usize,
                offsets[u as usize + 1] as usize,
            );
            edges[lo..hi].iter().any(|&v| scc_bits.get(v as usize))
        });
        if !has_internal_edge {
            continue;
        }
        let states = scc.iter().map(|&u| residual[u as usize]);
        let divergent = match fairness {
            Fairness::Unfair => true,
            Fairness::WeaklyFair => {
                let in_scc = |t: StateId| local(t).is_some_and(|lt| scc_bits.get(lt));
                fair_admissible(rows, program.action_count(), states.clone(), in_scc)?
            }
        };
        if divergent {
            result = ConvergenceResult::Divergence {
                states: states.map(|id| index.state(id)).collect(),
                fairness,
            };
            break;
        }
    }
    Ok(Residual {
        result,
        sccs_found: sccs.len() as u64,
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

/// Iterative Tarjan SCC over a CSR graph, restricted to the `alive`
/// sub-nodes (both roots and traversed edges). Returns each component as a
/// sorted vector of node indices. ([`analyze_residual`] runs it over the
/// residual subgraph with every node alive.)
pub(crate) fn tarjan_sccs_csr(offsets: &[u32], edges: &[u32], alive: &Bitset) -> Vec<Vec<u32>> {
    let n = offsets.len() - 1;
    let row = |u: u32| -> &[u32] {
        let (lo, hi) = (
            offsets[u as usize] as usize,
            offsets[u as usize + 1] as usize,
        );
        &edges[lo..hi]
    };
    let mut index = vec![u32::MAX; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut sccs = Vec::new();

    // Explicit DFS stack: (node, next child position).
    let mut call: Vec<(u32, usize)> = Vec::new();
    for root in 0..n as u32 {
        if index[root as usize] != u32::MAX || !alive.get(root as usize) {
            continue;
        }
        call.push((root, 0));
        index[root as usize] = next_index;
        low[root as usize] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root as usize] = true;

        while let Some(&mut (v, ref mut ci)) = call.last_mut() {
            if *ci < row(v).len() {
                let w = row(v)[*ci];
                *ci += 1;
                if !alive.get(w as usize) {
                    continue;
                }
                if index[w as usize] == u32::MAX {
                    index[w as usize] = next_index;
                    low[w as usize] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w as usize] = true;
                    call.push((w, 0));
                } else if on_stack[w as usize] {
                    low[v as usize] = low[v as usize].min(index[w as usize]);
                }
            } else {
                call.pop();
                if let Some(&mut (parent, _)) = call.last_mut() {
                    low[parent as usize] = low[parent as usize].min(low[v as usize]);
                }
                if low[v as usize] == index[v as usize] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    sccs.push(comp);
                }
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonmask_program::{Domain, Program};

    fn pred_eq(p: &Program, name: &str, var: &str, value: i64) -> Predicate {
        let v = p.var_by_name(var).unwrap();
        Predicate::new(name, [v], move |s| s.get(v) == value)
    }

    #[test]
    fn converging_countdown() {
        let mut b = Program::builder("down");
        let x = b.var("x", Domain::range(0, 5));
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
        for fairness in [Fairness::Unfair, Fairness::WeaklyFair] {
            assert!(
                check_convergence(&space, &p, &Predicate::always_true(), &s, fairness)
                    .unwrap()
                    .converges()
            );
        }
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
        let r = check_convergence(
            &space,
            &p,
            &Predicate::always_true(),
            &s,
            Fairness::WeaklyFair,
        )
        .unwrap();
        assert!(
            matches!(r, ConvergenceResult::DeadlockOutsideTarget { ref state } if state.slots() == [2])
        );
    }

    #[test]
    fn unfair_cycle_detected_but_fairness_rescues() {
        // Two actions at every ¬S state: `spin` toggles y and stays in the
        // region; `exit` jumps to the target. Unfair daemons can spin
        // forever; a weakly fair daemon must eventually run `exit`.
        //
        // This is also the soundness test for the peeling fast path: every
        // region state here *can* reach S (via `exit`), so a
        // "cannot-reach-S" residual would be empty and the unfair
        // divergence missed. The peel keeps the spin cycle alive.
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

        let unfair =
            check_convergence(&space, &p, &Predicate::always_true(), &s, Fairness::Unfair).unwrap();
        assert!(
            matches!(unfair, ConvergenceResult::Divergence { ref states, fairness: Fairness::Unfair } if states.len() == 2)
        );

        let fair = check_convergence(
            &space,
            &p,
            &Predicate::always_true(),
            &s,
            Fairness::WeaklyFair,
        )
        .unwrap();
        assert!(fair.converges(), "weak fairness forces `exit`: {fair:?}");
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
        let r = check_convergence(
            &space,
            &p,
            &Predicate::always_true(),
            &s,
            Fairness::WeaklyFair,
        )
        .unwrap();
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

        let unfair =
            check_convergence(&space, &p, &Predicate::always_true(), &s, Fairness::Unfair).unwrap();
        assert!(
            matches!(unfair, ConvergenceResult::Divergence { ref states, .. } if states.len() == 1)
        );
        assert!(check_convergence(
            &space,
            &p,
            &Predicate::always_true(),
            &s,
            Fairness::WeaklyFair
        )
        .unwrap()
        .converges());
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
        let x_id = p.var_by_name("x").unwrap();
        let t = Predicate::new("x<=1", [x_id], move |st| st.get(x_id) <= 1);
        let r = check_convergence(&space, &p, &t, &s, Fairness::WeaklyFair).unwrap();
        assert!(
            matches!(r, ConvergenceResult::EscapesFaultSpan { .. }),
            "got {r:?}"
        );
    }

    #[test]
    fn empty_region_converges_trivially() {
        let mut b = Program::builder("trivial");
        let x = b.var("x", Domain::Bool);
        let _ = x;
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let r = check_convergence(
            &space,
            &p,
            &Predicate::always_true(),
            &Predicate::always_true(),
            Fairness::WeaklyFair,
        )
        .unwrap();
        assert!(r.converges());
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
        let t = Predicate::new("x<=1", [p.var_by_name("x").unwrap()], {
            let x = p.var_by_name("x").unwrap();
            move |st| st.get(x) <= 1
        });
        let r = check_convergence(&space, &p, &t, &s, Fairness::Unfair).unwrap();
        assert!(r.converges(), "got {r:?}");
    }

    #[test]
    fn multi_threaded_matches_single_threaded() {
        // A 4096-state countdown (above the parallel threshold): every
        // outcome field must be bit-identical across worker counts.
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
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let s = pred_eq(&p, "x=0", "x", 0);
        // x=1 deadlocks outside the target: a witness exists, and all
        // thread counts must agree on it.
        let serial = check_convergence_stats(
            &space,
            &p,
            &Predicate::always_true(),
            &s,
            Fairness::WeaklyFair,
            CheckOptions::serial(),
            &Journal::disabled(),
        )
        .unwrap()
        .0;
        for threads in [2, 4, 8] {
            let par = check_convergence_stats(
                &space,
                &p,
                &Predicate::always_true(),
                &s,
                Fairness::WeaklyFair,
                CheckOptions::default().threads(threads),
                &Journal::disabled(),
            )
            .unwrap()
            .0;
            assert_eq!(serial, par, "threads={threads}");
        }
        assert!(
            matches!(serial, ConvergenceResult::DeadlockOutsideTarget { ref state } if state.slots() == [1])
        );
    }

    #[test]
    fn divergence_witness_is_thread_count_invariant() {
        // A large region full of internal 2-cycles (spin on y) plus exits:
        // the peel keeps every cycle and each thread count must report the
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
        let serial = check_convergence_stats(
            &space,
            &p,
            &Predicate::always_true(),
            &s,
            Fairness::Unfair,
            CheckOptions::serial(),
            &Journal::disabled(),
        )
        .unwrap()
        .0;
        assert!(
            matches!(serial, ConvergenceResult::Divergence { ref states, .. } if states.len() == 2),
            "got {serial:?}"
        );
        for threads in [2, 8] {
            let par = check_convergence_stats(
                &space,
                &p,
                &Predicate::always_true(),
                &s,
                Fairness::Unfair,
                CheckOptions::default().threads(threads),
                &Journal::disabled(),
            )
            .unwrap()
            .0;
            assert_eq!(serial, par, "threads={threads}");
        }
    }

    fn csr_of(adj: &[Vec<u32>]) -> (Vec<u32>, Vec<u32>) {
        let counts: Vec<u32> = adj.iter().map(|r| r.len() as u32).collect();
        let offsets = offsets_from_counts(&counts).unwrap();
        let edges: Vec<u32> = adj.iter().flatten().copied().collect();
        (offsets, edges)
    }

    #[test]
    fn tarjan_handles_multiple_components() {
        // Direct unit test of the SCC helper.
        // 0 -> 1 -> 0 (SCC {0,1}); 2 -> 3 (two singletons); 4 self-loop.
        let adj = vec![vec![1], vec![0], vec![3], vec![], vec![4]];
        let (offsets, edges) = csr_of(&adj);
        let mut sccs = tarjan_sccs_csr(&offsets, &edges, &Bitset::ones(adj.len()));
        sccs.sort();
        assert!(sccs.contains(&vec![0, 1]));
        assert!(sccs.contains(&vec![2]));
        assert!(sccs.contains(&vec![3]));
        assert!(sccs.contains(&vec![4]));
        assert_eq!(sccs.len(), 4);
    }

    #[test]
    fn tarjan_respects_alive_filter() {
        // Same graph, but with node 1 peeled: the {0,1} cycle disappears
        // and 0 becomes a singleton.
        let adj = vec![vec![1], vec![0], vec![3], vec![], vec![4]];
        let (offsets, edges) = csr_of(&adj);
        let mut alive = Bitset::ones(adj.len());
        let mut without_1 = Bitset::zeros(adj.len());
        for u in [0usize, 2, 3, 4] {
            without_1.set(u);
        }
        std::mem::swap(&mut alive, &mut without_1);
        let sccs = tarjan_sccs_csr(&offsets, &edges, &alive);
        assert!(sccs.contains(&vec![0]));
        assert!(!sccs.iter().any(|c| c.contains(&1)));
    }

    #[test]
    fn fairness_display() {
        assert_eq!(Fairness::Unfair.to_string(), "unfair");
        assert_eq!(Fairness::WeaklyFair.to_string(), "weakly-fair");
    }

    #[test]
    fn stats_reported_and_wave_journaled() {
        // The countdown peels its whole region; the stats and the Wave
        // event must agree on the sizes.
        let mut b = Program::builder("down");
        let x = b.var("x", Domain::range(0, 5));
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
        let (journal, buffer) = Journal::memory();
        let (result, stats) = check_convergence_stats(
            &space,
            &p,
            &Predicate::always_true(),
            &s,
            Fairness::WeaklyFair,
            CheckOptions::default(),
            &journal,
        )
        .unwrap();
        assert!(result.converges());
        assert_eq!(stats.region_states, 5);
        assert_eq!(stats.peeled_states, 5);
        assert_eq!(stats.sccs_found, 0);
        journal.flush();
        let text = buffer.contents();
        let record = Event::parse_line(text.trim()).unwrap();
        assert_eq!(
            record.event,
            Event::Wave {
                fairness: "weakly-fair".to_string(),
                region: 5,
                peeled: 5,
                sccs: 0,
            }
        );
    }
}
