//! State predicates.

use std::sync::Arc;

use crate::{State, VarId};

type EvalFn = Arc<dyn Fn(&State) -> bool + Send + Sync>;

/// A boolean expression over program variables.
///
/// Predicates carry a *declared read set* — the variables the evaluation
/// function inspects — which downstream tooling uses to place constraints in
/// a constraint graph. Predicates are cheaply cloneable (the evaluation
/// closure is shared).
///
/// # Example
///
/// ```
/// use nonmask_program::{Domain, Predicate, Program};
///
/// let mut b = Program::builder("p");
/// let x = b.var("x", Domain::range(0, 9));
/// let y = b.var("y", Domain::range(0, 9));
/// let p = b.build();
///
/// let eq = Predicate::new("x=y", [x, y], move |s| s.get(x) == s.get(y));
/// let s = p.state_from([3, 3]).unwrap();
/// assert!(eq.holds(&s));
/// assert!(eq.not().holds(&p.state_from([3, 4]).unwrap()));
/// ```
#[derive(Clone)]
pub struct Predicate {
    name: String,
    reads: Arc<[VarId]>,
    eval: EvalFn,
    /// The conjuncts of a [`Predicate::all`].
    conjuncts: Option<Arc<[Predicate]>>,
}

impl Predicate {
    /// Create a predicate with a name, declared read set, and evaluator.
    pub fn new<I>(
        name: impl Into<String>,
        reads: I,
        eval: impl Fn(&State) -> bool + Send + Sync + 'static,
    ) -> Self
    where
        I: IntoIterator<Item = VarId>,
    {
        let mut reads: Vec<VarId> = reads.into_iter().collect();
        reads.sort_unstable();
        reads.dedup();
        Predicate {
            name: name.into(),
            reads: reads.into(),
            eval: Arc::new(eval),
            conjuncts: None,
        }
    }

    /// The constant predicate `true` (empty read set).
    ///
    /// This is the fault-span `T` of a *stabilizing* program (Section 5 of
    /// the paper): every state is in the fault span.
    pub fn always_true() -> Self {
        Predicate::new("true", [], |_| true)
    }

    /// The constant predicate `false`.
    pub fn always_false() -> Self {
        Predicate::new("false", [], |_| false)
    }

    /// The predicate's name, used in reports and DOT output.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The declared read set (sorted, deduplicated).
    pub fn reads(&self) -> &[VarId] {
        &self.reads
    }

    /// Evaluate the predicate at `state`.
    #[inline]
    pub fn holds(&self, state: &State) -> bool {
        (self.eval)(state)
    }

    /// Logical negation; reads the same variables.
    pub fn not(&self) -> Predicate {
        let inner = self.eval.clone();
        Predicate {
            name: format!("!({})", self.name),
            reads: self.reads.clone(),
            eval: Arc::new(move |s| !(inner)(s)),
            conjuncts: None,
        }
    }

    /// Logical conjunction; reads the union of both read sets.
    pub fn and(&self, other: &Predicate) -> Predicate {
        let a = self.eval.clone();
        let b = other.eval.clone();
        Predicate::combine(
            format!("({}) & ({})", self.name, other.name),
            &[self, other],
            move |s| a(s) && b(s),
        )
    }

    /// Logical disjunction; reads the union of both read sets.
    pub fn or(&self, other: &Predicate) -> Predicate {
        let a = self.eval.clone();
        let b = other.eval.clone();
        Predicate::combine(
            format!("({}) | ({})", self.name, other.name),
            &[self, other],
            move |s| a(s) || b(s),
        )
    }

    /// Logical implication `self => other`.
    pub fn implies(&self, other: &Predicate) -> Predicate {
        let a = self.eval.clone();
        let b = other.eval.clone();
        Predicate::combine(
            format!("({}) => ({})", self.name, other.name),
            &[self, other],
            move |s| !a(s) || b(s),
        )
    }

    /// Conjunction of an arbitrary collection of predicates.
    ///
    /// Returns [`Predicate::always_true`] for an empty collection. This is
    /// how the paper forms an invariant `S` from its constraints:
    /// `S = (∀ j :: R.j)`. The result keeps its conjuncts
    /// ([`conjuncts`](Predicate::conjuncts)), so that a checker can
    /// evaluate a conjunction over many variables one small conjunct at a
    /// time.
    pub fn all<'a, I>(name: impl Into<String>, preds: I) -> Predicate
    where
        I: IntoIterator<Item = &'a Predicate>,
    {
        let preds: Vec<Predicate> = preds.into_iter().cloned().collect();
        if preds.is_empty() {
            return Predicate::always_true();
        }
        let reads: Vec<VarId> = preds.iter().flat_map(|p| p.reads.iter().copied()).collect();
        let conjuncts: Arc<[Predicate]> = preds.into();
        let parts = conjuncts.clone();
        let mut all = Predicate::new(name, reads, move |s| parts.iter().all(|p| p.holds(s)));
        all.conjuncts = Some(conjuncts);
        all
    }

    /// The conjuncts of a predicate built by [`Predicate::all`], in order;
    /// empty for any other predicate. The predicate holds exactly where
    /// every conjunct holds.
    pub fn conjuncts(&self) -> &[Predicate] {
        self.conjuncts.as_deref().unwrap_or_default()
    }

    /// Disjunction of an arbitrary collection of predicates.
    ///
    /// Returns [`Predicate::always_false`] for an empty collection.
    pub fn any<'a, I>(name: impl Into<String>, preds: I) -> Predicate
    where
        I: IntoIterator<Item = &'a Predicate>,
    {
        let preds: Vec<Predicate> = preds.into_iter().cloned().collect();
        if preds.is_empty() {
            return Predicate::always_false();
        }
        let reads: Vec<VarId> = preds.iter().flat_map(|p| p.reads.iter().copied()).collect();
        let evals: Vec<EvalFn> = preds.iter().map(|p| p.eval.clone()).collect();
        Predicate::new(name, reads, move |s| evals.iter().any(|e| e(s)))
    }

    /// Rename the predicate (read set and evaluator unchanged).
    pub fn named(mut self, name: impl Into<String>) -> Predicate {
        self.name = name.into();
        self
    }

    fn combine(
        name: String,
        parts: &[&Predicate],
        eval: impl Fn(&State) -> bool + Send + Sync + 'static,
    ) -> Predicate {
        let reads: Vec<VarId> = parts.iter().flat_map(|p| p.reads.iter().copied()).collect();
        Predicate::new(name, reads, eval)
    }
}

impl std::fmt::Debug for Predicate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Predicate")
            .field("name", &self.name)
            .field("reads", &self.reads)
            .finish_non_exhaustive()
    }
}

impl std::fmt::Display for Predicate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(i: u32) -> VarId {
        crate::VarId(i)
    }

    fn st(slots: &[i64]) -> State {
        State::new(slots.to_vec())
    }

    #[test]
    fn basic_evaluation() {
        let x = var(0);
        let p = Predicate::new("x>0", [x], move |s| s.get(x) > 0);
        assert!(p.holds(&st(&[1])));
        assert!(!p.holds(&st(&[0])));
        assert_eq!(p.name(), "x>0");
        assert_eq!(p.reads(), &[x]);
    }

    #[test]
    fn combinators() {
        let x = var(0);
        let y = var(1);
        let px = Predicate::new("x>0", [x], move |s| s.get(x) > 0);
        let py = Predicate::new("y>0", [y], move |s| s.get(y) > 0);

        let both = px.and(&py);
        assert!(both.holds(&st(&[1, 1])));
        assert!(!both.holds(&st(&[1, 0])));
        assert_eq!(both.reads(), &[x, y]);

        let either = px.or(&py);
        assert!(either.holds(&st(&[0, 1])));
        assert!(!either.holds(&st(&[0, 0])));

        let imp = px.implies(&py);
        assert!(imp.holds(&st(&[0, 0])));
        assert!(imp.holds(&st(&[1, 1])));
        assert!(!imp.holds(&st(&[1, 0])));

        assert!(px.not().holds(&st(&[0, 5])));
    }

    #[test]
    fn all_and_any() {
        let preds: Vec<Predicate> = (0..3)
            .map(|i| {
                let v = var(i);
                Predicate::new(format!("s[{i}]=1"), [v], move |s| s.get(v) == 1)
            })
            .collect();

        let all = Predicate::all("S", &preds);
        assert!(all.holds(&st(&[1, 1, 1])));
        assert!(!all.holds(&st(&[1, 0, 1])));
        assert_eq!(all.reads().len(), 3);
        let names: Vec<&str> = all.conjuncts().iter().map(Predicate::name).collect();
        assert_eq!(names, ["s[0]=1", "s[1]=1", "s[2]=1"]);
        assert!(all.clone().named("S'").conjuncts().len() == 3);
        assert!(all.not().conjuncts().is_empty() && preds[0].conjuncts().is_empty());

        let any = Predicate::any("A", &preds);
        assert!(any.holds(&st(&[0, 0, 1])));
        assert!(!any.holds(&st(&[0, 0, 0])));
    }

    #[test]
    fn empty_all_is_true_empty_any_is_false() {
        let none: [&Predicate; 0] = [];
        assert!(Predicate::all("S", none).holds(&st(&[])));
        let none: [&Predicate; 0] = [];
        assert!(!Predicate::any("A", none).holds(&st(&[])));
    }

    #[test]
    fn read_sets_are_sorted_and_deduped() {
        let p = Predicate::new("p", [var(3), var(1), var(3)], |_| true);
        assert_eq!(p.reads(), &[var(1), var(3)]);
    }

    #[test]
    fn named_renames() {
        let p = Predicate::always_true().named("S");
        assert_eq!(p.name(), "S");
        assert_eq!(p.to_string(), "S");
    }
}
