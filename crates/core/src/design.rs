//! The design workflow: program + constraints → verified tolerance.

use std::ops::Range;
use std::time::{Duration, Instant};

use nonmask_checker::{
    check_convergence_bits, closure, Bitset, CheckCounters, CheckError, CheckOptions, Given,
    Preservation, SpaceIndex, StateSpace,
};
use nonmask_graph::{ConstraintGraph, ConstraintRef, GraphError, Layering, NodePartition, Shape};
use nonmask_program::{ActionId, ActionKind, Predicate, Program, State, VarId};

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
    /// The layering names a constraint the design does not have.
    UnknownConstraint(ConstraintRef),
    /// The constraint graph could not be derived.
    Graph(GraphError),
    /// The state space could not be enumerated (unbounded, too large,
    /// over the memory budget, or an action escaped its domain), or a
    /// caller-supplied closure (predicate, guard, or action body) panicked
    /// inside a checker worker.
    Check(CheckError),
    /// The state space given to [`Design::verify_with`] does not have the
    /// shape of the design's program; the message names what differs: the
    /// variable count, a variable's domain size, or the action count. A
    /// space of the same shape enumerated from a program with other
    /// actions or domain offsets is not detected.
    SpaceMismatch(String),
}

impl std::fmt::Display for DesignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DesignError::DuplicateAction(a) => {
                write!(f, "action {a} is the convergence action of two constraints")
            }
            DesignError::UnknownAction(a) => write!(f, "action {a} is not part of the program"),
            DesignError::UnknownConstraint(c) => write!(
                f,
                "the layering names constraint {}, which the design does not have",
                c.0
            ),
            DesignError::Graph(e) => write!(f, "constraint graph: {e}"),
            DesignError::Check(e) => write!(f, "checker: {e}"),
            DesignError::SpaceMismatch(what) => write!(f, "state space of another program: {what}"),
        }
    }
}

impl std::error::Error for DesignError {}

impl From<GraphError> for DesignError {
    fn from(e: GraphError) -> Self {
        DesignError::Graph(e)
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
    /// [`DesignError::Check`] for unbounded or oversized programs, or if a
    /// predicate, guard, or action body panics inside a checker worker;
    /// [`DesignError::Graph`] if the constraint graph cannot be derived.
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
    ///    constraint. One [`closure::preservation`] sweep over the blocks
    ///    of `T ∪ S` answers all of these and every preservation question
    ///    of step 2, given `T`, `S` or any layer; a violation costs one
    ///    more scan, for its witness.
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
    /// [`DesignError::SpaceMismatch`] if `space` differs from the
    /// program's space in its variable count, a domain size or its action
    /// count;
    /// [`DesignError::Graph`] if the constraint graph cannot be derived;
    /// [`DesignError::Check`] if a predicate, guard, or action body panics
    /// inside a checker worker, or with [`CheckError::BudgetExceeded`]
    /// when a pass would exceed [`CheckOptions::memory_budget`]: phase
    /// `"constraint caches"` when the space's tables and the caches the
    /// closure sweep holds together, `T`, `S` and one per constraint at a
    /// bit a state each, would not fit it.
    pub fn verify_with(&self, space: &StateSpace) -> Result<ToleranceReport, DesignError> {
        let started = Instant::now();
        self.check_shape(space)?;
        let graph = self.constraint_graph()?;
        let shape = graph.shape();
        let t = &self.fault_span;
        let p = &self.program;
        let opts = self.options;

        // Predicate-evaluation caches, shared by every pass below: one
        // block pass evaluates `T` and each constraint (and `S`, when it
        // is overridden) at every state, and all later obligations are bit
        // tests. The default `S` is `T ∧ (∀ i :: c_i)` (see
        // `Design::invariant`), composed bitwise.
        let eval_started = Instant::now();
        self.charge_caches(space)?;
        let mut preds: Vec<&Predicate> = vec![t];
        preds.extend(self.constraints.iter().map(Constraint::predicate));
        preds.extend(&self.invariant_override);
        let evaluated = preds.len() as u64;
        let (caches, decoded) = Bitset::for_predicates_counted(space.index(), &preds, opts)?;
        let mut caches = caches.into_iter();
        let t_bits = caches.next().expect("one cache per predicate");
        let c_bits: Vec<Bitset> = caches.by_ref().take(self.constraints.len()).collect();
        let s_bits = caches
            .next()
            .unwrap_or_else(|| c_bits.iter().fold(t_bits.clone(), |s, c| s.and(c)));
        let predicate_eval = eval_started.elapsed();

        // --- 1. Closure obligations -----------------------------------
        // The shared caches `[T, S, c…]`, in slot order (see
        // `constraint_slots`). One `preservation` sweep over the blocks of
        // `T ∪ S` answers every closure, repair and preservation question
        // below; only a violation costs another scan, for its witness.
        let closure_started = Instant::now();
        let (slot_of, layers) = self.constraint_slots();
        let answers = {
            let mut slots = vec![&t_bits; CONSTRAINT_SLOTS + c_bits.len()];
            slots[S_SLOT] = &s_bits;
            for (c, &k) in c_bits.iter().zip(&slot_of) {
                slots[k] = c;
            }
            let mut repairs = vec![None; p.action_count()];
            for (c, &k) in self.constraints.iter().zip(&slot_of) {
                repairs[c.action().index()] = Some(k);
            }
            let premises = [T_SLOT, S_SLOT];
            closure::preservation(space, &slots, premises, &repairs, &layers, opts)?
        };
        let (closure_report, witness_rows) =
            self.check_closure_bits(space, &answers, &slot_of, &s_bits, &t_bits, &c_bits)?;
        // The convergence pass holds the run's peak memory; the constraint
        // caches are not needed there.
        drop(c_bits);
        let rows_visited = answers.rows_read() + witness_rows;
        let closure_time = closure_started.elapsed();

        // --- 2. Theorem side conditions --------------------------------
        // Every (action, constraint, premise) question is a lookup in the
        // sweep's answers.
        let theorem_started = Instant::now();
        let preserves_under =
            |a: ActionId, ci: usize, given: Given| !answers.breaks(given, a, slot_of[ci]);

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
            let given = match p.action(a).kind() {
                ActionKind::Closure => Given::FaultSpan,
                ActionKind::Combined => Given::Invariant,
                ActionKind::Convergence => continue,
            };
            for ci in 0..self.constraints.len() {
                if p.action(a).kind() == ActionKind::Combined && self.constraints[ci].action() == a
                {
                    continue; // its own constraint is its convergence target
                }
                if !preserves_under(a, ci, given) {
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
            reads_ok,
            closure_preserve_ok,
            preserves_under,
            &mut reasons,
        );
        let theorem_time = theorem_started.elapsed();

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

        // Work counters: one block pass built every evaluated predicate
        // cache, with the decodings it counted. The row figure sums the
        // rows the one preservation sweep and the witness scans read.
        // Convergence figures are those of the one region pass.
        let counters = CheckCounters {
            states: space.len() as u64,
            transitions: space.transition_count() as u64,
            bitset_builds: evaluated,
            states_decoded: decoded,
            csr_rows_visited: rows_visited,
            region_states: conv.stats.region_states,
            peeled_states: conv.stats.peeled_states,
            sccs_found: conv.stats.sccs_found,
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

    /// Charge the predicate caches [`verify_with`](Self::verify_with)
    /// holds through the closure sweep, `T`, `S` and one per constraint
    /// at a bit a state each, with the space's tables, against the memory
    /// budget, before any is allocated.
    fn charge_caches(&self, space: &StateSpace) -> Result<(), CheckError> {
        let caches = 2 + self.constraints.len() as u64;
        let required =
            space.resident_bytes() as u64 + caches * (space.len().div_ceil(64) as u64 * 8);
        let budget = self.options.memory_budget;
        if required > budget {
            return Err(CheckError::BudgetExceeded {
                required,
                budget,
                phase: "constraint caches",
            });
        }
        Ok(())
    }

    /// [`DesignError::SpaceMismatch`] unless `space` has the variable
    /// count, domain sizes and action count of the design's program.
    fn check_shape(&self, space: &StateSpace) -> Result<(), DesignError> {
        let p = &self.program;
        let index = SpaceIndex::of_program(p, self.options)?;
        let differs = |what: &str, design: usize, space: usize| {
            (design != space)
                .then(|| format!("{what} is {design} in the design but {space} in the space"))
        };
        let vars = index.var_count();
        let what = differs("the variable count", vars, space.var_count())
            .or_else(|| {
                (0..vars).find_map(|v| {
                    let name = p.var(VarId::from_index(v)).name();
                    let sizes = (index.domain_size(v), space.index().domain_size(v));
                    differs(&format!("the domain size of `{name}`"), sizes.0, sizes.1)
                })
            })
            .or_else(|| differs("the action count", p.action_count(), space.action_count()));
        what.map_or(Ok(()), |what| Err(DesignError::SpaceMismatch(what)))
    }

    /// Each constraint's slot, and Theorem 3's layers as ranges of
    /// slots. The constraints are ordered by layer, lowest first, and the
    /// unlayered ones last, so that the layers a state satisfies are read
    /// off its first false layered slot.
    fn constraint_slots(&self) -> (Vec<usize>, Vec<Range<usize>>) {
        let layering = self.layering.as_ref();
        let layer_of = |i| layering.and_then(|l| l.layer_of(ConstraintRef(i)));
        let layer: Vec<usize> = (0..self.constraints.len())
            .map(|i| layer_of(i).unwrap_or(usize::MAX))
            .collect();
        let mut order: Vec<usize> = (0..layer.len()).collect();
        order.sort_by_key(|&i| layer[i]);
        let mut slot_of = vec![0; order.len()];
        for (k, &i) in order.iter().enumerate() {
            slot_of[i] = CONSTRAINT_SLOTS + k;
        }
        let start = |l| CONSTRAINT_SLOTS + layer.iter().filter(|&&m| m < l).count();
        let layers = (0..layering.map_or(0, Layering::len)).map(|l| start(l)..start(l + 1));
        (slot_of, layers.collect())
    }

    /// The closure obligations over the shared predicate caches, and the
    /// rows their witness scans read. `answers` is the one
    /// [`closure::preservation`] sweep, with constraint `i` at slot
    /// `slot_of[i]`: `T` (`S`) is closed iff no action breaks the `T`
    /// (`S`) slot given `T` (`S`), and a constraint's repair is unguarded
    /// (does not establish it) iff the sweep found its slot unguarded (its
    /// action leaving the slot from `T`). Only a violation costs another
    /// scan, for its lowest-id witness. The convergence action's
    /// enabledness is read off the rows (a `(action, successor)` pair
    /// exists exactly when the guard holds), so no guard or predicate is
    /// re-evaluated here.
    fn check_closure_bits(
        &self,
        space: &StateSpace,
        answers: &Preservation,
        slot_of: &[usize],
        s_bits: &Bitset,
        t_bits: &Bitset,
        c_bits: &[Bitset],
    ) -> Result<(ClosureReport, u64), CheckError> {
        let opts = self.options;
        let mut rows = 0u64;
        // The rows of `states` a scan in id order reads up to its witness.
        let mut scanned = |states: &Bitset, witness: &State| {
            let id = space.id_of(witness).expect("a state of the space");
            rows += states.iter_ones().take_while(|&i| i <= id.index()).count() as u64;
        };
        let mut closed = |given: Given, slot: usize, pred: &Bitset| {
            let mut actions = (0..self.program.action_count()).map(ActionId::from_index);
            let Some(a) = actions.find(|&a| answers.breaks(given, a, slot)) else {
                return Ok(None);
            };
            let v = closure::preserves_given_bits(space, a, pred, pred, opts)?
                .expect("a breaking action has a violation");
            scanned(pred, &v.before);
            Ok::<_, CheckError>(Some(v))
        };
        let fault_span = closed(Given::FaultSpan, T_SLOT, t_bits)?;
        let invariant = closed(Given::Invariant, S_SLOT, s_bits)?;

        let (mut unguarded_constraints, mut non_establishing) = (Vec::new(), Vec::new());
        for (i, (c, c_bits)) in self.constraints.iter().zip(c_bits).enumerate() {
            let (k, a) = (slot_of[i], c.action());
            // ¬c ∧ T must enable the convergence action …
            if answers.unguarded(k) {
                let states = t_bits.and(&c_bits.not());
                let witness = closure::first_disabled(space, a, &states, opts)?
                    .expect("an unguarded repair has a witness");
                scanned(&states, &witness);
                unguarded_constraints.push((i, witness));
            }
            // … and executing it from T ∧ guard must establish c.
            if answers.leaves(a, k) {
                let v = closure::first_leaving(space, a, t_bits, c_bits, opts)?
                    .expect("a repair leading outside its constraint has a witness");
                scanned(t_bits, &v.before);
                non_establishing.push((i, v));
            }
        }

        let report = ClosureReport {
            invariant,
            fault_span,
            unguarded_constraints,
            non_establishing,
        };
        Ok((report, rows))
    }

    fn select_theorem(
        &self,
        graph: &ConstraintGraph,
        shape: Shape,
        reads_ok: bool,
        closure_preserve_ok: bool,
        preserves_under: impl Fn(ActionId, usize, Given) -> bool,
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
                    preserves_under(a, c.0, Given::FaultSpan)
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
            // The premise `Given::Layer(layer)`: `T ∧ ¬S ∧` all constraints
            // of lower layers. Preservation is required while the program
            // is still converging (outside `S`): this mirrors the paper's
            // token-ring observation that the root's closure action "is
            // not enabled when the first conjunct holds but the second
            // does not" — once `S` holds, closure actions are free to
            // rearrange constraint values as long as `S` itself is
            // preserved (checked separately).
            let given = Given::Layer(layer);

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
                    if applicable && !preserves_under(a, ci, given) {
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
                    .linear_preservation_order_adjacent(node, |a, c| preserves_under(a, c.0, given))
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

/// The slots of the shared predicate caches: `T`, then `S`, then
/// the constraints from `CONSTRAINT_SLOTS` on (see
/// [`Design::constraint_slots`]).
const T_SLOT: usize = 0;
const S_SLOT: usize = 1;
const CONSTRAINT_SLOTS: usize = 2;

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

    /// Add every constraint of a decomposition, in order.
    pub fn constraints(mut self, constraints: impl IntoIterator<Item = Constraint>) -> Self {
        self.constraints.extend(constraints);
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
    /// [`DesignError::UnknownAction`] for out-of-range action ids;
    /// [`DesignError::UnknownConstraint`] when the layering names a
    /// constraint past the design's.
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
        let layered = self.layering.iter().flat_map(Layering::layers).flatten();
        if let Some(&c) = layered.into_iter().find(|c| c.0 >= self.constraints.len()) {
            return Err(DesignError::UnknownConstraint(c));
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
    fn unknown_layering_constraint_rejected() {
        let mut b = Program::builder("p");
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
        let build = |layers: Vec<Vec<ConstraintRef>>| {
            Design::builder(program.clone())
                .partition(NodePartition::new().group("x", [x]))
                .constraint("x", c.clone(), fix)
                .layering(Layering::new(layers).unwrap())
                .build()
        };
        let err = build(vec![vec![ConstraintRef(3)]]).unwrap_err();
        assert!(
            matches!(err, DesignError::UnknownConstraint(ConstraintRef(3))),
            "{err:?}"
        );
        assert_eq!(
            err.to_string(),
            "the layering names constraint 3, which the design does not have"
        );
        // A later layer is checked too, and the design's own constraint
        // passes and verifies.
        let err = build(vec![vec![ConstraintRef(0)], vec![ConstraintRef(1)]]).unwrap_err();
        assert!(matches!(
            err,
            DesignError::UnknownConstraint(ConstraintRef(1))
        ));
        let design = build(vec![vec![ConstraintRef(0)]]).unwrap();
        assert!(design.verify().unwrap().is_tolerant());
    }

    #[test]
    fn unbounded_program_is_a_check_error() {
        let mut b = Program::builder("p");
        let x = b.var("x", Domain::Unbounded);
        let fix = b.convergence_action(
            "fix",
            [x],
            [x],
            move |s| s.get(x) != 0,
            move |s| s.set(x, 0),
        );
        let program = b.build();
        let c = Predicate::new("x=0", [x], move |s| s.get(x) == 0);
        let d = Design::builder(program)
            .partition(NodePartition::new().group("x", [x]))
            .constraint("x=0", c, fix)
            .build()
            .unwrap();
        let err = d.verify().unwrap_err();
        assert!(
            matches!(err, DesignError::Check(CheckError::Unbounded { ref var }) if var == "x"),
            "{err:?}"
        );
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
        assert_eq!(
            report.closure.unguarded_constraints,
            [(0, State::new(vec![2]))]
        );
        assert!(!report.closure.ok());
        assert!(!report.convergence.converges(), "x=2 deadlocks outside S");
        // |T ∪ S| for the one sweep, then the witness scan's rows of
        // T ∧ ¬c = {1, 2} up to its witness x=2.
        assert_eq!(report.counters.csr_rows_visited, 3 + 2);
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
        let v = &report.closure.non_establishing[0].1;
        assert_eq!((v.before.slots(), v.after.slots()), (&[1][..], &[2][..]));
        assert!(!report.convergence.converges());
        // |T ∪ S| for the one sweep, then the witness scan's rows of T up
        // to its witness x=1.
        assert_eq!(report.counters.csr_rows_visited, 3 + 2);
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

    /// One variable per name, each over `0..=max`, and one convergence
    /// action per variable driving it to 0.
    fn to_zero(names: &[&str], max: i64) -> Program {
        let mut b = Program::builder("to-zero");
        for name in names {
            let v = b.var(*name, Domain::range(0, max));
            b.convergence_action(
                format!("zero-{name}"),
                [v],
                [v],
                move |s| s.get(v) != 0,
                move |s| s.set(v, 0),
            );
        }
        b.build()
    }

    #[test]
    fn a_space_of_another_program_is_a_typed_error() {
        let mismatch = |d: &Design, p: &Program| {
            let space = StateSpace::enumerate(p).unwrap();
            match d.verify_with(&space) {
                Err(DesignError::SpaceMismatch(what)) => what,
                other => panic!("expected a mismatch, got {other:?}"),
            }
        };
        // The xyz design over 3 variables and 2 actions, on larger and
        // smaller spaces: each direction names the variable count.
        let d = good_xyz();
        assert_eq!(
            mismatch(&d, &to_zero(&["a", "b", "c", "d"], 3)),
            "the variable count is 3 in the design but 4 in the space"
        );
        assert_eq!(
            mismatch(&d, &to_zero(&["a", "b"], 3)),
            "the variable count is 3 in the design but 2 in the space"
        );
        // The same variable count: a domain size, then the action count.
        assert_eq!(
            mismatch(&d, &to_zero(&["a", "b", "c"], 4)),
            "the domain size of `x` is 4 in the design but 5 in the space"
        );
        assert_eq!(
            mismatch(&d, &to_zero(&["a", "b", "c"], 3)),
            "the action count is 2 in the design but 3 in the space"
        );
        let err = d
            .verify_with(&StateSpace::enumerate(&to_zero(&["a"], 3)).unwrap())
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "state space of another program: the variable count is 3 in the design but 1 in \
             the space"
        );
        // Only the shape is compared: a space with the same variables,
        // domains and action count passes.
        let mut b = Program::builder("same-shape");
        for name in ["a", "b", "c"] {
            b.var(name, Domain::range(0, 3));
        }
        let (a, c) = (VarId::from_index(0), VarId::from_index(2));
        b.closure_action("noop-a", [a], [a], |_| true, |_| {});
        b.closure_action("noop-c", [c], [c], |_| true, |_| {});
        let space = StateSpace::enumerate(&b.build()).unwrap();
        assert!(d.verify_with(&space).is_ok());
    }

    /// `x0 ≤ x1 ≤ … ≤ x(n−1)` over `0..=3`, one constraint per link,
    /// each repaired by raising the later variable.
    fn ascending_chain(n: usize) -> Design {
        let mut b = Program::builder("chain");
        let x: Vec<VarId> = (0..n)
            .map(|i| b.var(format!("x{i}"), Domain::range(0, 3)))
            .collect();
        let mut links = Vec::new();
        for i in 1..n {
            let (lo, hi) = (x[i - 1], x[i]);
            let raise = b.convergence_action(
                format!("raise-{i}"),
                [lo, hi],
                [hi],
                move |s| s.get(lo) > s.get(hi),
                move |s| s.set(hi, s.get(lo)),
            );
            links.push((
                Predicate::new(format!("x{}<=x{i}", i - 1), [lo, hi], move |s| {
                    s.get(lo) <= s.get(hi)
                }),
                raise,
            ));
        }
        let mut partition = NodePartition::new();
        for (i, &v) in x.iter().enumerate() {
            partition = partition.group(format!("x{i}"), [v]);
        }
        let mut d = Design::builder(b.build()).partition(partition);
        for (c, raise) in links {
            d = d.constraint(c.name().to_string(), c, raise);
        }
        d.build().unwrap()
    }

    #[test]
    fn constraint_caches_are_charged_against_the_budget() {
        use nonmask_checker::StateSpace;
        // 4^6 states: a cache is 64 words. Enumeration charges the tables
        // and 4 bits a state; the closure sweep holds T, S and five
        // constraint caches, 7 bits a state.
        let d = ascending_chain(6);
        let zero = d.options().memory_budget(0);
        let enumeration = match StateSpace::enumerate_with_options(d.program(), zero) {
            Err(CheckError::BudgetExceeded { required, .. }) => required,
            other => panic!("a zero budget must refuse the space, got {other:?}"),
        };
        let tight = d
            .clone()
            .with_options(d.options().memory_budget(enumeration));
        let required = match tight.verify() {
            Err(DesignError::Check(CheckError::BudgetExceeded {
                required,
                budget,
                phase: "constraint caches",
            })) => {
                assert_eq!(budget, enumeration);
                required
            }
            other => panic!("expected the constraint caches to be refused, got {other:?}"),
        };
        let space = StateSpace::enumerate(d.program()).unwrap();
        assert_eq!(required, space.resident_bytes() as u64 + 7 * 64 * 8);
        let fits = d.clone().with_options(d.options().memory_budget(required));
        assert!(fits.verify().unwrap().is_tolerant());
    }

    #[test]
    fn csr_rows_visited_counts_the_rows_read() {
        // T is `true` and S is `x != y ∧ x <= z`, counted here state by
        // state. The design is closed and applies Theorem 1, so no witness
        // scan runs: the rows read are the one sweep's, every row of
        // T ∪ S = T once, S's included.
        let report = good_xyz().verify().unwrap();
        let states = (0..4).flat_map(|x| (0..4).flat_map(move |y| (0..4).map(move |z| (x, y, z))));
        let all = states.clone().count() as u64;
        let s = states.filter(|&(x, y, z)| x != y && x <= z).count() as u64;
        assert_eq!((all, s), (64, 30));
        assert!(report.closure.ok());
        assert_eq!(report.counters.csr_rows_visited, all);
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
        // |T ∪ S| = 4 rows for the one sweep, which also answers both
        // closure actions' questions and checks the repair, and one row
        // for the witness scan (x = 0 is the first S state).
        assert_eq!(report.counters.csr_rows_visited, 4 + 1);
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
