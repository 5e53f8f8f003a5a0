//! The design workflow: program + constraints → verified tolerance.

use std::collections::hash_map::{Entry, HashMap};
use std::time::{Duration, Instant};

use nonmask_checker::{
    check_convergence_bits, closure, Bitset, CheckCounters, CheckError, CheckOptions, MaskColumn,
    SpaceError, StateSpace,
};
use nonmask_graph::{ConstraintGraph, ConstraintRef, GraphError, Layering, NodePartition, Shape};
use nonmask_program::{ActionId, ActionKind, Predicate, Program};

use crate::constraint::Constraint;
use crate::report::{ClosureReport, StateCounts, TheoremOutcome, ToleranceReport, VerifyTimings};

/// Errors raised while building or verifying a [`Design`].
#[derive(Debug, Clone)]
pub enum DesignError {
    /// Two constraints share the same convergence action; the paper
    /// requires a bijection between constraints and convergence actions.
    DuplicateAction(ActionId),
    /// A constraint references an action id that is not in the program.
    UnknownAction(ActionId),
    /// The constraint graph could not be derived.
    Graph(GraphError),
    /// The state space could not be enumerated.
    Space(SpaceError),
    /// A checker pass failed — today this means a caller-supplied closure
    /// (predicate, guard, or action body) panicked inside a worker.
    Check(CheckError),
}

impl std::fmt::Display for DesignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DesignError::DuplicateAction(a) => {
                write!(f, "action {a} is the convergence action of two constraints")
            }
            DesignError::UnknownAction(a) => write!(f, "action {a} is not part of the program"),
            DesignError::Graph(e) => write!(f, "constraint graph: {e}"),
            DesignError::Space(e) => write!(f, "state space: {e}"),
            DesignError::Check(e) => write!(f, "checker: {e}"),
        }
    }
}

impl std::error::Error for DesignError {}

impl From<GraphError> for DesignError {
    fn from(e: GraphError) -> Self {
        DesignError::Graph(e)
    }
}

impl From<SpaceError> for DesignError {
    fn from(e: SpaceError) -> Self {
        DesignError::Space(e)
    }
}

impl From<CheckError> for DesignError {
    fn from(e: CheckError) -> Self {
        DesignError::Check(e)
    }
}

/// A complete design in the paper's method: a program whose invariant is
/// the conjunction of the fault span `T` and a set of [`Constraint`]s, a
/// node partition for the constraint graph, and an optional
/// [layering](Layering) for Theorem 3.
///
/// Built with [`Design::builder`]; verified end-to-end with
/// [`Design::verify`]. See the [crate docs](crate) for a worked example.
#[derive(Debug, Clone)]
pub struct Design {
    program: Program,
    constraints: Vec<Constraint>,
    fault_span: Predicate,
    partition: NodePartition,
    layering: Option<Layering>,
    invariant_override: Option<Predicate>,
    options: CheckOptions,
}

impl Design {
    /// Start building a design around `program`.
    pub fn builder(program: Program) -> DesignBuilder {
        DesignBuilder {
            program,
            constraints: Vec::new(),
            fault_span: Predicate::always_true(),
            partition: None,
            layering: None,
            invariant_override: None,
            options: CheckOptions::default(),
        }
    }

    /// The underlying program (closure + convergence actions).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The constraints whose conjunction (with `T`) is the invariant.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The fault span `T`.
    pub fn fault_span(&self) -> &Predicate {
        &self.fault_span
    }

    /// The node partition used for the constraint graph.
    pub fn partition(&self) -> &NodePartition {
        &self.partition
    }

    /// The layering supplied for Theorem 3, if any.
    pub fn layering(&self) -> Option<&Layering> {
        self.layering.as_ref()
    }

    /// The checker options (worker threads, memory budget) used by
    /// [`Design::verify`]. Defaults to auto-detected parallelism; see
    /// [`DesignBuilder::threads`].
    pub fn options(&self) -> CheckOptions {
        self.options
    }

    /// This design with different checker options (e.g. to re-verify with
    /// another thread count — the verdict is identical by construction,
    /// only the [`VerifyTimings`] change).
    pub fn with_options(mut self, options: CheckOptions) -> Self {
        self.options = options;
        self
    }

    /// The invariant `S`.
    ///
    /// By default `S = T ∧ (∀ i :: c_i)` (Section 3: "the constraints in
    /// `S` are chosen such that their conjunction together with `T`
    /// equivales `S`"). Designs built with
    /// [`DesignBuilder::invariant_override`] use the supplied predicate
    /// instead — the paper's token ring is such a design: its second-layer
    /// constraints (`x.j = x.(j+1)`) *imply* the second conjunct of `S`
    /// without being part of it.
    pub fn invariant(&self) -> Predicate {
        if let Some(s) = &self.invariant_override {
            return s.clone();
        }
        let all = Predicate::all(
            "constraints",
            self.constraints.iter().map(Constraint::predicate),
        );
        self.fault_span.and(&all).named("S")
    }

    /// Derive the constraint graph of the design's convergence actions.
    ///
    /// # Errors
    ///
    /// [`GraphError`] when some convergence action's reads/writes cannot be
    /// placed on the partition.
    pub fn constraint_graph(&self) -> Result<ConstraintGraph, GraphError> {
        let pairs: Vec<(ActionId, ConstraintRef)> = self
            .constraints
            .iter()
            .enumerate()
            .map(|(i, c)| (c.action(), ConstraintRef(i)))
            .collect();
        ConstraintGraph::derive(&self.program, &self.partition, &pairs)
    }

    /// Enumerate the state space and run [`Design::verify_with`].
    ///
    /// # Errors
    ///
    /// [`DesignError::Space`] for unbounded or oversized programs;
    /// [`DesignError::Graph`] if the constraint graph cannot be derived;
    /// [`DesignError::Check`] if a predicate, guard, or action body panics
    /// inside a checker worker.
    pub fn verify(&self) -> Result<ToleranceReport, DesignError> {
        let started = Instant::now();
        let space = StateSpace::enumerate_with_options(&self.program, self.options)?;
        let enumerate = started.elapsed();
        let mut report = self.verify_with(&space)?;
        report.timings.enumerate = Some(enumerate);
        report.timings.total += enumerate;
        Ok(report)
    }

    /// Verify the design against a pre-enumerated state space.
    ///
    /// Produces a [`ToleranceReport`] combining:
    ///
    /// 1. **Closure checks** — `S` and `T` closed; each convergence action
    ///    guards exactly its constraint's violation and establishes the
    ///    constraint. `S`/`T` closure is read off the same sweeps over `T`
    ///    and over `S` that answer the theorems' preservation questions.
    /// 2. **Method-level theorem checks** — which of Theorems 1–3 applies
    ///    (structural shape conditions from the graph crate, semantic
    ///    preservation obligations discharged by the checker). For merged
    ///    (closure+convergence) actions the closure-role obligation is
    ///    checked on invariant states, mirroring the paper's observation
    ///    that the merged action coincides with the closure action there.
    /// 3. **Ground truth** — direct model checking of convergence under
    ///    both weakly fair and unfair daemons, and the worst-case number of
    ///    moves outside `S`, all from one pass over the region `T ∧ ¬S`.
    ///
    /// # Errors
    ///
    /// [`DesignError::Graph`] if the constraint graph cannot be derived;
    /// [`DesignError::Check`] if a predicate, guard, or action body panics
    /// inside a checker worker.
    pub fn verify_with(&self, space: &StateSpace) -> Result<ToleranceReport, DesignError> {
        let started = Instant::now();
        let graph = self.constraint_graph()?;
        let shape = graph.shape();
        let t = &self.fault_span;
        let p = &self.program;
        let opts = self.options;

        // Predicate-evaluation caches, shared by every pass below: one
        // decode pass evaluates `T` and each constraint (and `S`, when it
        // is overridden) once per state, and all later obligations are bit
        // tests. The default `S` is `T ∧ (∀ i :: c_i)` (see
        // `Design::invariant`), composed bitwise.
        let eval_started = Instant::now();
        let mut preds: Vec<&Predicate> = vec![t];
        preds.extend(self.constraints.iter().map(Constraint::predicate));
        preds.extend(&self.invariant_override);
        let evaluated = preds.len() as u64;
        let mut caches = Bitset::for_predicates(space.index(), &preds, opts)?.into_iter();
        let t_bits = caches.next().expect("one cache per predicate");
        let c_bits: Vec<Bitset> = caches.by_ref().take(self.constraints.len()).collect();
        let s_bits = caches
            .next()
            .unwrap_or_else(|| c_bits.iter().fold(t_bits.clone(), |s, c| s.and(c)));
        let predicate_eval = eval_started.elapsed();

        // --- 1. Closure obligations -----------------------------------
        // The shared caches `[T, S, c_0, c_1, …]`, packed per state into
        // mask columns of 64 predicates each (see `slot`). One
        // `breaking_actions` sweep over an assumption's states answers
        // every (action, predicate) preservation question of a group.
        // The group-0 sweeps over `T` and over `S` run first: bit `T` of
        // the one and bit `S` of the other are the closure verdicts, and
        // both pre-fill the preservation memo below.
        let closure_started = Instant::now();
        let n = p.action_count();
        let masks = {
            let mut packed: Vec<&Bitset> = vec![&t_bits, &s_bits];
            packed.extend(&c_bits);
            packed
                .chunks(MaskColumn::WIDTH)
                .map(|group| MaskColumn::pack(group, opts))
                .collect::<Result<Vec<_>, _>>()?
        };
        // CSR rows the sweeps read: each sweep reads every row of its
        // assumption.
        let mut rows_visited = 0u64;
        let mut memo: HashMap<(Assumption, usize), Vec<u64>> = HashMap::new();
        for (key, assuming) in [(Assumption::T, &t_bits), (Assumption::S, &s_bits)] {
            rows_visited += assuming.count_ones() as u64;
            let broken = closure::breaking_actions(space, n, &masks[0], assuming, opts)?;
            memo.insert((key, 0), broken);
        }
        let (closure_report, closure_rows) = self.check_closure_bits(
            space,
            [&memo[&(Assumption::T, 0)], &memo[&(Assumption::S, 0)]],
            &s_bits,
            &t_bits,
            &c_bits,
        )?;
        rows_visited += closure_rows;
        let closure_time = closure_started.elapsed();

        // --- 2. Theorem side conditions --------------------------------
        // Memoized conditional-preservation oracle, keyed by (assumption,
        // mask group): one `breaking_actions` sweep answers the query for
        // every action and every predicate of the group at once. The
        // `T` and `S` sweeps of group 0 are already in; what misses is
        // Theorem 3's per-layer assumptions (and, past 62 constraints,
        // the later groups).
        let theorem_started = Instant::now();
        let mut cache_hits: u64 = 0;
        let mut cache_misses: u64 = 0;
        // The graph crate's order-search callbacks return `bool`, so the
        // oracle cannot propagate a `CheckError` directly; the first failure
        // is parked here (answering `false`) and re-raised below, after the
        // theorem selection unwinds.
        let mut oracle_error: Option<CheckError> = None;
        let mut preserves_under =
            |a: ActionId, ci: usize, assuming: &Bitset, key: Assumption| -> bool {
                let (group, bit) = slot(CONSTRAINT_SLOTS + ci);
                let broken = match memo.entry((key, group)) {
                    Entry::Occupied(e) => {
                        cache_hits += 1;
                        e.into_mut()
                    }
                    Entry::Vacant(entry) => {
                        cache_misses += 1;
                        rows_visited += assuming.count_ones() as u64;
                        entry.insert(
                            closure::breaking_actions(space, n, &masks[group], assuming, opts)
                                .unwrap_or_else(|e| {
                                    oracle_error.get_or_insert(e);
                                    vec![u64::MAX; n]
                                }),
                        )
                    }
                };
                broken[a.index()] & bit == 0
            };

        let mut reasons: Vec<String> = Vec::new();

        // Structural: every constraint must read only within its edge's two
        // node labels (this is what makes the rank argument structural).
        let mut reads_ok = true;
        for (i, c) in self.constraints.iter().enumerate() {
            let edge = graph
                .edge_ids()
                .map(|e| *graph.edge_ref(e))
                .find(|e| e.constraint() == ConstraintRef(i))
                .expect("one edge per constraint");
            let allowed: Vec<_> = graph
                .node_ref(edge.from())
                .vars()
                .iter()
                .chain(graph.node_ref(edge.to()).vars().iter())
                .copied()
                .collect();
            for r in c.predicate().reads() {
                if !allowed.contains(r) {
                    reads_ok = false;
                    reasons.push(format!(
                        "constraint `{}` reads {} outside its edge's node labels",
                        c.name(),
                        p.var(*r).name()
                    ));
                }
            }
        }

        // Closure-role preservation: Closure actions on T-states, Combined
        // actions on S-states.
        let mut closure_preserve_ok = true;
        for a in p.action_ids() {
            let (assuming, key) = match p.action(a).kind() {
                ActionKind::Closure => (&t_bits, Assumption::T),
                ActionKind::Combined => (&s_bits, Assumption::S),
                ActionKind::Convergence => continue,
            };
            for ci in 0..self.constraints.len() {
                if p.action(a).kind() == ActionKind::Combined && self.constraints[ci].action() == a
                {
                    continue; // its own constraint is its convergence target
                }
                if !preserves_under(a, ci, assuming, key) {
                    closure_preserve_ok = false;
                    reasons.push(format!(
                        "action `{}` does not preserve constraint `{}`",
                        p.action(a).name(),
                        self.constraints[ci].name()
                    ));
                }
            }
        }

        let theorem = self.select_theorem(
            &graph,
            shape,
            &t_bits,
            &s_bits,
            &c_bits,
            reads_ok,
            closure_preserve_ok,
            &mut preserves_under,
            &mut reasons,
        );
        let theorem_time = theorem_started.elapsed();
        if let Some(e) = oracle_error {
            return Err(DesignError::Check(e));
        }
        // The convergence pass holds the run's peak memory; the mask
        // columns (8 bytes per state per group) are not needed there.
        drop(masks);

        // --- 3. Ground truth -------------------------------------------
        // One pass over the region `T ∧ ¬S`, on the shared `S`/`T` bit
        // caches, answers both daemons and the worst-case bound.
        let conv_started = Instant::now();
        let conv = check_convergence_bits(space, p, &t_bits, &s_bits, opts)?;
        let convergence_time = conv_started.elapsed();

        let state_counts = StateCounts {
            invariant: s_bits.count_ones(),
            fault_span: t_bits.count_ones(),
            total: space.len(),
        };

        // Work counters: one decode pass built every evaluated predicate
        // cache. The CSR-row figure sums the rows the closure and
        // preservation sweeps read. Convergence figures are those of the
        // one region pass.
        let states = space.len() as u64;
        let counters = CheckCounters {
            states,
            transitions: space.transition_count() as u64,
            bitset_builds: evaluated,
            states_decoded: states,
            csr_rows_visited: rows_visited,
            region_states: conv.stats.region_states,
            peeled_states: conv.stats.peeled_states,
            sccs_found: conv.stats.sccs_found,
            cache_hits,
            cache_misses,
        };

        Ok(ToleranceReport {
            shape,
            closure: closure_report,
            theorem,
            convergence: conv.weakly_fair,
            convergence_unfair: conv.unfair,
            worst_case_moves: conv.worst_case_moves,
            state_counts,
            counters,
            timings: VerifyTimings {
                enumerate: None,
                predicate_eval,
                closure: closure_time,
                theorem: theorem_time,
                convergence: convergence_time,
                bounds: Duration::ZERO,
                total: started.elapsed(),
            },
        })
    }

    /// The closure obligations over the shared predicate caches, and the
    /// CSR rows their scans read. `broken` holds the group-0
    /// [`closure::breaking_actions`] sweeps over `T` and over `S`: `T`
    /// (`S`) is closed iff no action has its `T` (`S`) bit set. Only a
    /// violation costs another scan, of the lowest breaking action, for
    /// its lowest-id witness. Then one sweep over the `T` states checks
    /// every constraint's repair ([`closure::repair_obligations`]). The
    /// convergence action's enabledness is read off the transition table
    /// (a `(action, successor)` pair exists exactly when the guard holds),
    /// so no guard or predicate is re-evaluated here.
    fn check_closure_bits(
        &self,
        space: &StateSpace,
        broken: [&[u64]; 2],
        s_bits: &Bitset,
        t_bits: &Bitset,
        c_bits: &[Bitset],
    ) -> Result<(ClosureReport, u64), CheckError> {
        let opts = self.options;
        let mut rows = 0u64;
        let mut witness = |broken: &[u64], bit: u64, pred: &Bitset| {
            let Some(a) = broken.iter().position(|b| b & bit != 0) else {
                return Ok(None);
            };
            let v =
                closure::preserves_given_bits(space, ActionId::from_index(a), pred, pred, opts)?
                    .expect("a breaking action has a violation");
            // The rows of `pred` a scan in id order reads up to its
            // witness.
            let before = space.id_of(&v.before).expect("a state of the space");
            rows += pred
                .iter_ones()
                .take_while(|&i| i <= before.index())
                .count() as u64;
            Ok::<_, CheckError>(Some(v))
        };
        let fault_span = witness(broken[0], slot(T_SLOT).1, t_bits)?;
        let invariant = witness(broken[1], slot(S_SLOT).1, s_bits)?;

        let repairs: Vec<(ActionId, &Bitset)> = self
            .constraints
            .iter()
            .map(Constraint::action)
            .zip(c_bits)
            .collect();
        let mut unguarded = Vec::new();
        let mut non_establishing = Vec::new();
        let witnesses = closure::repair_obligations(space, t_bits, &repairs, opts)?;
        rows += t_bits.count_ones() as u64;
        for (i, w) in witnesses.into_iter().enumerate() {
            // ¬c ∧ T must enable the convergence action …
            if let Some(id) = w.unguarded {
                unguarded.push((i, space.state(id)));
            }
            // … and executing it from T ∧ guard must establish c.
            if let Some(v) = w.non_establishing {
                non_establishing.push((i, v));
            }
        }

        let report = ClosureReport {
            invariant,
            fault_span,
            unguarded_constraints: unguarded,
            non_establishing,
        };
        Ok((report, rows))
    }

    #[allow(clippy::too_many_arguments)]
    fn select_theorem(
        &self,
        graph: &ConstraintGraph,
        shape: Shape,
        t_bits: &Bitset,
        s_bits: &Bitset,
        c_bits: &[Bitset],
        reads_ok: bool,
        closure_preserve_ok: bool,
        preserves_under: &mut impl FnMut(ActionId, usize, &Bitset, Assumption) -> bool,
        reasons: &mut Vec<String>,
    ) -> TheoremOutcome {
        // Theorem 1: out-tree shape + the closure/read conditions.
        if shape == Shape::OutTree && reads_ok && closure_preserve_ok {
            let ranks = graph.ranks().expect("out-trees are acyclic");
            return TheoremOutcome::Theorem1 { ranks };
        }
        if shape != Shape::OutTree {
            reasons.push(format!("constraint graph is {shape}, not an out-tree"));
        }

        // Theorem 2: self-looping + linear preservation orders.
        if shape != Shape::Cyclic && reads_ok && closure_preserve_ok {
            let mut orders = Vec::new();
            let mut all_ordered = true;
            for node in graph.node_ids() {
                match graph.linear_preservation_order(node, |a, c| {
                    preserves_under(a, c.0, t_bits, Assumption::T)
                }) {
                    Some(order) => orders.push((node, order)),
                    None => {
                        all_ordered = false;
                        reasons.push(format!(
                            "no linear preservation order for the actions targeting node `{}`",
                            graph.node_ref(node).name()
                        ));
                    }
                }
            }
            if all_ordered {
                return TheoremOutcome::Theorem2 { orders };
            }
        } else if shape == Shape::Cyclic {
            reasons.push("constraint graph is cyclic; Theorem 2 does not apply".to_string());
        }

        // Theorem 3: requires an explicit layering.
        let Some(layering) = &self.layering else {
            reasons.push("no layering supplied; Theorem 3 not attempted".to_string());
            return TheoremOutcome::NotApplicable {
                reasons: std::mem::take(reasons),
            };
        };

        // The constraint each convergence (or merged) action repairs.
        let mut constraint_of = vec![None; self.program.action_count()];
        for (j, c) in self.constraints.iter().enumerate() {
            constraint_of[c.action().index()] = Some(j);
        }
        let mut ok = true;
        for layer in 0..layering.len() {
            // `assuming`: T ∧ all constraints of lower layers, composed
            // bitwise from the shared per-state caches — no predicate is
            // re-evaluated per layer.
            // Preservation is required while the program is still
            // converging (outside `S`): this mirrors the paper's token-ring
            // observation that the root's closure action "is not enabled
            // when the first conjunct holds but the second does not" — once
            // `S` holds, closure actions are free to rearrange constraint
            // values as long as `S` itself is preserved (checked
            // separately).
            let mut assuming = t_bits.and(&s_bits.not());
            for c in layering.below(layer) {
                assuming = assuming.and(&c_bits[c.0]);
            }

            // (c) per-layer graph is self-looping.
            let (layer_graph, layer_shape) = layering.layer_graph(graph, layer);
            if layer_shape == Shape::Cyclic {
                ok = false;
                reasons.push(format!("layer {layer}'s constraint graph is cyclic"));
                continue;
            }

            // (a) closure actions preserve this layer's constraints given
            // lower layers; combined actions likewise given lower layers ∧
            // their own constraint.
            for cref in &layering.layers()[layer] {
                let ci = cref.0;
                for a in self.program.action_ids() {
                    let kind = self.program.action(a).kind();
                    let is_this_constraint = self.constraints[ci].action() == a;
                    let applicable = match kind {
                        ActionKind::Closure => true,
                        // (b) convergence (and merged) actions of *higher*
                        // layers must preserve this layer.
                        ActionKind::Convergence | ActionKind::Combined => {
                            !is_this_constraint
                                && constraint_of[a.index()]
                                    .and_then(|j| layering.layer_of(ConstraintRef(j)))
                                    .is_some_and(|l| l > layer)
                        }
                    };
                    if applicable && !preserves_under(a, ci, &assuming, Assumption::Layer(layer)) {
                        ok = false;
                        reasons.push(format!(
                            "layer {layer}: action `{}` does not preserve constraint `{}` given lower layers",
                            self.program.action(a).name(),
                            self.constraints[ci].name()
                        ));
                    }
                }
            }

            // (d) per-node linear orders within the layer, over *adjacent*
            // edges (Theorem 3's fourth antecedent).
            for node in layer_graph.node_ids() {
                if layer_graph
                    .linear_preservation_order_adjacent(node, |a, c| {
                        preserves_under(a, c.0, &assuming, Assumption::Layer(layer))
                    })
                    .is_none()
                {
                    ok = false;
                    reasons.push(format!(
                        "layer {layer}: no linear order for actions targeting node `{}`",
                        layer_graph.node_ref(node).name()
                    ));
                }
            }
        }

        if ok {
            TheoremOutcome::Theorem3 {
                layers: layering.len(),
            }
        } else {
            TheoremOutcome::NotApplicable {
                reasons: std::mem::take(reasons),
            }
        }
    }
}

/// The mask slots of the shared predicate caches: `T`, then `S`, then
/// constraint `i` at `CONSTRAINT_SLOTS + i`.
const T_SLOT: usize = 0;
const S_SLOT: usize = 1;
const CONSTRAINT_SLOTS: usize = 2;

/// The mask group of slot `k`, and the mask of its bit within the group.
fn slot(k: usize) -> (usize, u64) {
    (k / MaskColumn::WIDTH, 1 << (k % MaskColumn::WIDTH))
}

/// The states a preservation query assumes, the first half of the
/// preservation memo's key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Assumption {
    /// The fault span `T`: closure actions, Theorem 2's orders.
    T,
    /// The invariant `S`: merged closure/convergence actions.
    S,
    /// Theorem 3's `T ∧ ¬S ∧` the constraints below this layer.
    Layer(usize),
}

/// Incremental construction of a [`Design`]; see [`Design::builder`].
#[derive(Debug)]
pub struct DesignBuilder {
    program: Program,
    constraints: Vec<Constraint>,
    fault_span: Predicate,
    partition: Option<NodePartition>,
    layering: Option<Layering>,
    invariant_override: Option<Predicate>,
    options: CheckOptions,
}

impl DesignBuilder {
    /// Set the fault span `T` (defaults to `true`, i.e. a stabilizing
    /// design).
    pub fn fault_span(mut self, t: Predicate) -> Self {
        self.fault_span = t;
        self
    }

    /// Set the node partition (defaults to
    /// [`NodePartition::by_process`]).
    pub fn partition(mut self, partition: NodePartition) -> Self {
        self.partition = Some(partition);
        self
    }

    /// Add a constraint and its convergence action.
    pub fn constraint(
        mut self,
        name: impl Into<String>,
        predicate: Predicate,
        action: ActionId,
    ) -> Self {
        self.constraints
            .push(Constraint::new(name, predicate, action));
        self
    }

    /// Supply a hierarchical partition of the constraints for Theorem 3.
    pub fn layering(mut self, layering: Layering) -> Self {
        self.layering = Some(layering);
        self
    }

    /// Use `s` as the invariant instead of the conjunction of `T` and the
    /// constraints (for designs whose constraints imply, rather than
    /// equal, the invariant — see [`Design::invariant`]).
    pub fn invariant_override(mut self, s: Predicate) -> Self {
        self.invariant_override = Some(s);
        self
    }

    /// Set the checker options (worker threads and memory budget) used by
    /// [`Design::verify`]. Defaults to [`CheckOptions::default`].
    pub fn options(mut self, options: CheckOptions) -> Self {
        self.options = options;
        self
    }

    /// Set the number of worker threads for every state-space sweep
    /// (enumeration, predicate evaluation, closure, convergence).
    ///
    /// `0` (the default) auto-detects via
    /// [`std::thread::available_parallelism`]; `1` forces fully serial
    /// checking. The verification *verdict* is bit-identical for every
    /// thread count — only the [`VerifyTimings`]
    /// change. Small state spaces (< a few thousand states) are always
    /// checked on the calling thread regardless of this setting.
    pub fn threads(mut self, threads: usize) -> Self {
        self.options.threads = threads;
        self
    }

    /// Finish, validating the constraint/action bijection.
    ///
    /// # Errors
    ///
    /// [`DesignError::DuplicateAction`] if two constraints share an action;
    /// [`DesignError::UnknownAction`] for out-of-range action ids.
    pub fn build(self) -> Result<Design, DesignError> {
        let mut seen = std::collections::HashSet::new();
        for c in &self.constraints {
            if c.action().index() >= self.program.action_count() {
                return Err(DesignError::UnknownAction(c.action()));
            }
            if !seen.insert(c.action()) {
                return Err(DesignError::DuplicateAction(c.action()));
            }
        }
        let partition = self
            .partition
            .unwrap_or_else(|| NodePartition::by_process(&self.program));
        Ok(Design {
            program: self.program,
            constraints: self.constraints,
            fault_span: self.fault_span,
            partition,
            layering: self.layering,
            invariant_override: self.invariant_override,
            options: self.options,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonmask_program::Domain;

    /// The Section 4 / Section 6 "good" design: fix `x != y` by bumping y,
    /// fix `x <= z` by raising z. Out-tree graph; Theorem 1.
    fn good_xyz() -> Design {
        let mut b = Program::builder("xyz");
        let x = b.var("x", Domain::range(0, 3));
        let y = b.var("y", Domain::range(0, 3));
        let z = b.var("z", Domain::range(0, 3));
        let fix_y = b.convergence_action(
            "fix-y",
            [x, y],
            [y],
            move |s| s.get(x) == s.get(y),
            move |s| {
                let v = s.get(y);
                s.set(y, (v + 1) % 4);
            },
        );
        let fix_z = b.convergence_action(
            "fix-z",
            [x, z],
            [z],
            move |s| s.get(x) > s.get(z),
            move |s| {
                let v = s.get(x);
                s.set(z, v);
            },
        );
        let program = b.build();
        let c_neq = Predicate::new("x!=y", [x, y], move |s| s.get(x) != s.get(y));
        let c_le = Predicate::new("x<=z", [x, z], move |s| s.get(x) <= s.get(z));
        Design::builder(program)
            .partition(
                NodePartition::new()
                    .group("x", [x])
                    .group("y", [y])
                    .group("z", [z]),
            )
            .constraint("x!=y", c_neq, fix_y)
            .constraint("x<=z", c_le, fix_z)
            .build()
            .unwrap()
    }

    /// The Section 6 "bad" design: both convergence actions write `x` and
    /// can violate each other forever.
    fn bad_xyz() -> Design {
        let mut b = Program::builder("xyz-bad");
        let x = b.var("x", Domain::range(0, 3));
        let y = b.var("y", Domain::range(0, 3));
        let z = b.var("z", Domain::range(0, 3));
        let fix_neq = b.convergence_action(
            "fix-neq-by-x",
            [x, y],
            [x],
            move |s| s.get(x) == s.get(y),
            move |s| {
                let v = s.get(x);
                s.set(x, (v + 1) % 4);
            },
        );
        let fix_le = b.convergence_action(
            "fix-le-by-x",
            [x, z],
            [x],
            move |s| s.get(x) > s.get(z),
            move |s| {
                let v = s.get(z);
                s.set(x, v);
            },
        );
        let program = b.build();
        let c_neq = Predicate::new("x!=y", [x, y], move |s| s.get(x) != s.get(y));
        let c_le = Predicate::new("x<=z", [x, z], move |s| s.get(x) <= s.get(z));
        Design::builder(program)
            .partition(
                NodePartition::new()
                    .group("x", [x])
                    .group("y", [y])
                    .group("z", [z]),
            )
            .constraint("x!=y", c_neq, fix_neq)
            .constraint("x<=z", c_le, fix_le)
            .build()
            .unwrap()
    }

    #[test]
    fn good_design_is_theorem1_tolerant() {
        let d = good_xyz();
        let report = d.verify().unwrap();
        assert!(report.closure.ok(), "{:?}", report.closure);
        assert!(matches!(report.theorem, TheoremOutcome::Theorem1 { .. }));
        assert!(report.convergence.converges());
        assert!(report.convergence_unfair.converges());
        assert!(report.is_tolerant());
        assert!(report.is_stabilizing());
        assert!(report.worst_case_moves.is_some());
        assert_eq!(report.shape, Shape::OutTree);
        assert!(report.summary().contains("Theorem 1"));
    }

    #[test]
    fn invariant_is_conjunction() {
        let d = good_xyz();
        let s = d.invariant();
        let p = d.program();
        assert!(s.holds(&p.state_from([0, 1, 2]).unwrap()));
        assert!(!s.holds(&p.state_from([1, 1, 2]).unwrap()), "x=y violates");
        assert!(!s.holds(&p.state_from([2, 1, 0]).unwrap()), "x>z violates");
    }

    #[test]
    fn bad_design_diverges() {
        let d = bad_xyz();
        let report = d.verify().unwrap();
        // The two actions write the same node: both edges target x, and the
        // actions violate each other's constraint, so no theorem applies …
        assert!(!report.theorem.applies());
        // … and the program really can livelock (model-check ground truth).
        assert!(!report.convergence.converges());
        assert!(!report.is_tolerant());
    }

    #[test]
    fn duplicate_action_rejected() {
        let mut b = Program::builder("p");
        let x = b.var("x", Domain::Bool);
        let a = b.convergence_action("a", [x], [x], |_| true, |_| {});
        let program = b.build();
        let pred = Predicate::new("x", [x], move |s| s.get_bool(x));
        let result = Design::builder(program)
            .partition(NodePartition::new().group("x", [x]))
            .constraint("c1", pred.clone(), a)
            .constraint("c2", pred, a)
            .build();
        assert!(matches!(result, Err(DesignError::DuplicateAction(_))));
    }

    #[test]
    fn unknown_action_rejected() {
        let mut b = Program::builder("p");
        let x = b.var("x", Domain::Bool);
        let program = b.build();
        let pred = Predicate::new("x", [x], move |s| s.get_bool(x));
        let result = Design::builder(program)
            .partition(NodePartition::new().group("x", [x]))
            .constraint("c", pred, ActionId::from_index(7))
            .build();
        assert!(matches!(result, Err(DesignError::UnknownAction(_))));
    }

    #[test]
    fn unguarded_constraint_reported() {
        // The convergence action's guard misses part of ¬c.
        let mut b = Program::builder("p");
        let x = b.var("x", Domain::range(0, 2));
        let fix = b.convergence_action(
            "fix",
            [x],
            [x],
            move |s| s.get(x) == 1,
            move |s| s.set(x, 0),
        );
        let program = b.build();
        let c = Predicate::new("x=0", [x], move |s| s.get(x) == 0);
        let d = Design::builder(program)
            .partition(NodePartition::new().group("x", [x]))
            .constraint("x=0", c, fix)
            .build()
            .unwrap();
        let report = d.verify().unwrap();
        // ¬c at x=2 but fix is only enabled at x=1.
        assert_eq!(report.closure.unguarded_constraints.len(), 1);
        assert!(!report.closure.ok());
        assert!(!report.convergence.converges(), "x=2 deadlocks outside S");
    }

    #[test]
    fn non_establishing_action_reported() {
        // The convergence action runs but does not establish its constraint.
        let mut b = Program::builder("p");
        let x = b.var("x", Domain::range(0, 2));
        let bogus = b.convergence_action(
            "bogus",
            [x],
            [x],
            move |s| s.get(x) > 0,
            move |s| s.set(x, 2),
        );
        let program = b.build();
        let c = Predicate::new("x=0", [x], move |s| s.get(x) == 0);
        let d = Design::builder(program)
            .partition(NodePartition::new().group("x", [x]))
            .constraint("x=0", c, bogus)
            .build()
            .unwrap();
        let report = d.verify().unwrap();
        assert_eq!(report.closure.non_establishing.len(), 1);
        assert!(!report.convergence.converges());
    }

    #[test]
    fn cyclic_layer_is_rejected_with_reason() {
        use nonmask_graph::{ConstraintRef, Layering};
        // Two constraints whose repairs write each other's node: a 2-cycle.
        // Putting BOTH in the same layer keeps the layer graph cyclic, so
        // Theorem 3 must not apply, with a reason saying why.
        let mut b = Program::builder("cycle");
        let x = b.var("x", Domain::Bool);
        let y = b.var("y", Domain::Bool);
        let fix_x = b.convergence_action(
            "fix-x",
            [x, y],
            [x],
            move |s| !s.get_bool(x),
            move |s| s.set_bool(x, true),
        );
        let fix_y = b.convergence_action(
            "fix-y",
            [x, y],
            [y],
            move |s| !s.get_bool(y),
            move |s| s.set_bool(y, true),
        );
        let program = b.build();
        let cx = Predicate::new("x", [x], move |s| s.get_bool(x));
        let cy = Predicate::new("y", [y], move |s| s.get_bool(y));
        let design = Design::builder(program)
            .partition(NodePartition::new().group("x", [x]).group("y", [y]))
            .constraint("x", cx, fix_x)
            .constraint("y", cy, fix_y)
            .layering(Layering::single([ConstraintRef(0), ConstraintRef(1)]))
            .build()
            .unwrap();
        let graph = design.constraint_graph().unwrap();
        assert_eq!(graph.shape(), Shape::Cyclic);
        let report = design.verify().unwrap();
        let TheoremOutcome::NotApplicable { reasons } = &report.theorem else {
            panic!(
                "cyclic single layer cannot satisfy Theorem 3: {:?}",
                report.theorem
            );
        };
        assert!(reasons.iter().any(|r| r.contains("cyclic")), "{reasons:?}");
        // The design is nevertheless tolerant — each repair only
        // strengthens, so ground truth converges (the conditions are
        // sufficient, not necessary).
        assert!(report.convergence.converges());
        assert!(report.is_tolerant());
    }

    #[test]
    fn split_layers_rescue_the_cyclic_graph() {
        use nonmask_graph::{ConstraintRef, Layering};
        // The same two-constraint cycle as above, but with one constraint
        // per layer: each layer's graph is a single edge, and the repairs
        // preserve each other's constraints, so Theorem 3 applies.
        let mut b = Program::builder("cycle2");
        let x = b.var("x", Domain::Bool);
        let y = b.var("y", Domain::Bool);
        let fix_x = b.convergence_action(
            "fix-x",
            [x, y],
            [x],
            move |s| !s.get_bool(x),
            move |s| s.set_bool(x, true),
        );
        let fix_y = b.convergence_action(
            "fix-y",
            [x, y],
            [y],
            move |s| !s.get_bool(y),
            move |s| s.set_bool(y, true),
        );
        let program = b.build();
        let cx = Predicate::new("x", [x], move |s| s.get_bool(x));
        let cy = Predicate::new("y", [y], move |s| s.get_bool(y));
        let design = Design::builder(program)
            .partition(NodePartition::new().group("x", [x]).group("y", [y]))
            .constraint("x", cx, fix_x)
            .constraint("y", cy, fix_y)
            .layering(Layering::new([vec![ConstraintRef(0)], vec![ConstraintRef(1)]]).unwrap())
            .build()
            .unwrap();
        let report = design.verify().unwrap();
        assert!(
            matches!(report.theorem, TheoremOutcome::Theorem3 { layers: 2 }),
            "{:?}",
            report.theorem
        );
        assert!(report.is_tolerant());
    }

    #[test]
    fn verify_with_accepts_prebuilt_space() {
        use nonmask_checker::StateSpace;
        let d = good_xyz();
        let space = StateSpace::enumerate(d.program()).unwrap();
        let a = d.verify_with(&space).unwrap();
        let b = d.verify().unwrap();
        assert_eq!(a.is_tolerant(), b.is_tolerant());
        assert_eq!(a.worst_case_moves, b.worst_case_moves);
    }

    #[test]
    fn csr_rows_visited_counts_the_rows_read() {
        // T is `true` and S is `x != y ∧ x <= z`, counted here state by
        // state. The design has no closure action and applies Theorem 1,
        // so no preservation query runs: the rows read are the closure
        // sweeps over T and over S, then the repair sweep over T.
        let report = good_xyz().verify().unwrap();
        let states = (0..4).flat_map(|x| (0..4).flat_map(move |y| (0..4).map(move |z| (x, y, z))));
        let all = states.clone().count() as u64;
        let s = states.filter(|&(x, y, z)| x != y && x <= z).count() as u64;
        assert_eq!((all, s), (64, 30));
        assert!(report.closure.ok());
        assert_eq!(report.counters.cache_hits + report.counters.cache_misses, 0);
        assert_eq!(report.counters.csr_rows_visited, all + s + all);
    }

    #[test]
    fn closure_witness_matches_the_whole_relation_scan() {
        // x in 0..=3, S = T ∧ (x = 0). Two closure actions leave `x = 0`:
        // `jump` (x := 2) and, first in action order, `inc`. The witness
        // is `inc`'s, as `closure::is_closed` (a scan of every action)
        // reports it.
        let mut b = Program::builder("leave");
        let x = b.var("x", Domain::range(0, 3));
        let fix = b.convergence_action(
            "fix",
            [x],
            [x],
            move |s| s.get(x) != 0,
            move |s| s.set(x, 0),
        );
        b.closure_action(
            "inc",
            [x],
            [x],
            move |s| s.get(x) < 3,
            move |s| s.set(x, s.get(x) + 1),
        );
        b.closure_action("jump", [x], [x], |_| true, move |s| s.set(x, 2));
        let program = b.build();
        let d = Design::builder(program)
            .partition(NodePartition::new().group("x", [x]))
            .constraint(
                "x=0",
                Predicate::new("x=0", [x], move |s| s.get(x) == 0),
                fix,
            )
            .build()
            .unwrap();
        let space = StateSpace::enumerate(d.program()).unwrap();
        let report = d.verify_with(&space).unwrap();
        let v = report.closure.invariant.clone().expect("S is not closed");
        assert_eq!(d.program().action(v.action).name(), "inc");
        assert_eq!((v.before.slots(), v.after.slots()), (&[0][..], &[1][..]));
        let scanned = closure::is_closed(&space, &d.invariant()).unwrap();
        assert_eq!(Some(v), scanned);
        assert_eq!(report.closure.fault_span, None);
        // |T| + |S| for the closure sweeps, one row for the witness scan
        // (x = 0 is the first S state), |T| for the repair sweep; both
        // closure actions' questions are answered by the `T` sweep.
        assert_eq!(report.counters.cache_misses, 0);
        assert_eq!(report.counters.csr_rows_visited, 4 + 1 + 1 + 4);
    }

    #[test]
    fn summary_renders_unbounded_moves() {
        let report = bad_xyz().verify().unwrap();
        assert!(report.worst_case_moves.is_none());
        assert!(report.summary().contains("FAILS"));
        assert!(!report.summary().contains("worst-case moves:"));
    }

    #[test]
    fn invariant_override_is_used() {
        let mut b = Program::builder("ovr");
        let x = b.var("x", Domain::Bool);
        let fix = b.convergence_action(
            "fix",
            [x],
            [x],
            move |s| !s.get_bool(x),
            move |s| s.set_bool(x, true),
        );
        let program = b.build();
        let c = Predicate::new("x", [x], move |s| s.get_bool(x));
        let design = Design::builder(program)
            .partition(NodePartition::new().group("x", [x]))
            .constraint("x", c, fix)
            .invariant_override(Predicate::always_true().named("S-override"))
            .build()
            .unwrap();
        assert_eq!(design.invariant().name(), "S-override");
        let report = design.verify().unwrap();
        // With S = true, every state is invariant and convergence is
        // trivial.
        assert_eq!(report.state_counts.invariant, report.state_counts.total);
        assert!(report.is_tolerant());
    }

    #[test]
    fn default_partition_is_by_process() {
        use nonmask_program::ProcessId;
        let mut b = Program::builder("p");
        let x = b.var_of("x", Domain::Bool, ProcessId(0));
        let fix = b.convergence_action(
            "fix",
            [x],
            [x],
            move |s| !s.get_bool(x),
            move |s| s.set_bool(x, true),
        );
        let program = b.build();
        let c = Predicate::new("x", [x], move |s| s.get_bool(x));
        let d = Design::builder(program)
            .constraint("x", c, fix)
            .build()
            .unwrap();
        assert_eq!(d.partition().len(), 1);
        let report = d.verify().unwrap();
        assert!(report.is_tolerant());
    }
}
