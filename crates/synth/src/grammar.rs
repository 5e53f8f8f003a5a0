//! The bounded candidate-action grammar.
//!
//! Per constraint the synthesizer enumerates `guards × effects` candidate
//! guarded commands. The grammar is deliberately small — the paper's
//! repairs are all "make the local variables agree with the neighborhood"
//! — but large enough that nothing about the winning action is baked in:
//! guards range over every comparison of a constraint's variable pairs,
//! effects over every domain-safe single-variable repair (copies,
//! rotations, constants).
//!
//! Candidates are plain [`ActionDef`]s compiled alongside the base
//! program into one *pooled* program, so a single state-space enumeration
//! and one attribution sweep cover the whole space (see
//! [`search`](crate::search)).

use nonmask_lang::{ActionDef, BinOp, DomainDef, Expr, ProgramDef};
use nonmask_program::ActionKind;

use crate::SynthError;

/// One constraint of the goal decomposition, with the locality the paper
/// assumes: which variable the repair may write and which neighbor it may
/// read.
#[derive(Debug, Clone)]
pub struct SynthConstraint {
    /// Constraint name (used for journaling and the repair action name,
    /// e.g. `ge.1` → `repair.ge.1`).
    pub name: String,
    /// The constraint predicate as a surface-syntax expression.
    pub expr: Expr,
    /// `(child, peer)` variable pairs: candidates write `child` and read
    /// `peer`. All children must belong to one process (the repair is a
    /// local action).
    pub pairs: Vec<(String, String)>,
    /// Optional merge trigger: when present the synthesized action is
    /// *combined* (paper §5.1/§7.1) and its guard is
    /// `trigger ∨ (¬c ∧ q)` instead of `¬c ∧ q`.
    pub trigger: Option<Expr>,
}

/// A synthesis problem: a base program (closure actions only), a goal
/// predicate, and the constraint decomposition.
#[derive(Debug, Clone)]
pub struct SynthSpec {
    /// Name for the synthesized program.
    pub name: String,
    /// The base program: variables and closure actions, **no** repairs.
    pub base: ProgramDef,
    /// The goal predicate `S` (becomes the design's invariant override).
    pub goal: Expr,
    /// The decomposition, one entry per convergence action to derive.
    pub constraints: Vec<SynthConstraint>,
}

/// One candidate action, tagged with its grammar coordinates.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Index of the constraint this candidate targets.
    pub constraint: usize,
    /// Position in the guard enumeration (0 = bare `¬c`).
    pub guard_index: usize,
    /// Position in the effect enumeration (0 = copy-all when admissible).
    pub effect_index: usize,
    /// The candidate as a compilable action definition.
    pub action: ActionDef,
}

pub(crate) fn ident(name: &str) -> Expr {
    Expr::Ident(name.to_string())
}

pub(crate) fn int(v: i64) -> Expr {
    Expr::Int(v)
}

pub(crate) fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
    Expr::Bin(op, Box::new(l), Box::new(r))
}

pub(crate) fn and(l: Expr, r: Expr) -> Expr {
    bin(BinOp::And, l, r)
}

pub(crate) fn or(l: Expr, r: Expr) -> Expr {
    bin(BinOp::Or, l, r)
}

pub(crate) fn not(e: Expr) -> Expr {
    Expr::Not(Box::new(e))
}

/// Conjoin a non-empty list of expressions, left-associated.
pub(crate) fn all(mut exprs: Vec<Expr>) -> Expr {
    let first = exprs.remove(0);
    exprs.into_iter().fold(first, and)
}

/// `(lo, size)` of a domain.
fn bounds(d: &DomainDef) -> (i64, i64) {
    match d {
        DomainDef::Bool => (0, 2),
        DomainDef::Range(lo, hi) => (*lo, hi - lo + 1),
        DomainDef::Enum(labels) => (0, labels.len() as i64),
    }
}

fn domain_of<'a>(base: &'a ProgramDef, name: &str) -> Result<&'a DomainDef, SynthError> {
    base.vars
        .iter()
        .find(|v| v.name == name)
        .map(|v| &v.domain)
        .ok_or_else(|| SynthError::BadSpec {
            message: format!("constraint pair names unknown variable `{name}`"),
        })
}

/// `base := ((base - lo + k) mod size) + lo`, simplified when `lo = 0`.
/// Total on the child's domain whatever the peer's value, because the
/// language's `%` is mathematical modulo.
fn rotate(base: Expr, k: i64, lo: i64, size: i64) -> Expr {
    if lo == 0 {
        bin(BinOp::Mod, bin(BinOp::Add, base, int(k)), int(size))
    } else {
        bin(
            BinOp::Add,
            bin(
                BinOp::Mod,
                bin(BinOp::Add, bin(BinOp::Sub, base, int(lo)), int(k)),
                int(size),
            ),
            int(lo),
        )
    }
}

/// Rotation offsets tried for a domain of `size` values: one step, two
/// steps (when distinct), and the inverse step.
fn rot_offsets(size: i64) -> Vec<i64> {
    let mut ks = vec![1];
    if size > 2 {
        ks.push(2);
    }
    if size - 1 > 1 && !ks.contains(&(size - 1)) {
        ks.push(size - 1);
    }
    ks
}

/// The guard expressions for one constraint, in selection order.
///
/// Index 0 is the bare violation guard; then for each `(child, peer)`
/// pair, each comparison `peer OP child` for the six operators.
fn guard_exprs(c: &SynthConstraint) -> Vec<Expr> {
    let not_c = not(c.expr.clone());
    let mut qs: Vec<Option<Expr>> = vec![None];
    for (child, peer) in &c.pairs {
        for op in [
            BinOp::Eq,
            BinOp::Ne,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
        ] {
            qs.push(Some(bin(op, ident(peer), ident(child))));
        }
    }
    qs.into_iter()
        .map(|q| {
            let core = match q {
                None => not_c.clone(),
                Some(q) => and(not_c.clone(), q),
            };
            match &c.trigger {
                Some(t) => or(t.clone(), core),
                None => core,
            }
        })
        .collect()
}

/// The effect assignment lists for one constraint, in selection order:
/// copy-all, per-pair single copies, peer rotations (others copied),
/// self rotations, constants. Every effect is total on the child
/// domains; copies are only emitted where child and peer domains agree.
fn effect_assigns(
    c: &SynthConstraint,
    base: &ProgramDef,
) -> Result<Vec<Vec<(String, Expr)>>, SynthError> {
    let mut copyable = Vec::with_capacity(c.pairs.len());
    let mut child_bounds = Vec::with_capacity(c.pairs.len());
    for (child, peer) in &c.pairs {
        let dc = domain_of(base, child)?;
        let dp = domain_of(base, peer)?;
        copyable.push(dc == dp);
        child_bounds.push(bounds(dc));
    }

    let mut out: Vec<Vec<(String, Expr)>> = Vec::new();

    if copyable.iter().all(|&b| b) {
        out.push(
            c.pairs
                .iter()
                .map(|(ch, pe)| (ch.clone(), ident(pe)))
                .collect(),
        );
    }

    if c.pairs.len() > 1 {
        for (pi, (ch, pe)) in c.pairs.iter().enumerate() {
            if copyable[pi] {
                out.push(vec![(ch.clone(), ident(pe))]);
            }
        }
    }

    for (pi, (_, pe)) in c.pairs.iter().enumerate() {
        let (lo, size) = child_bounds[pi];
        for k in rot_offsets(size) {
            let mut assigns = Vec::new();
            for (qi, (ch2, pe2)) in c.pairs.iter().enumerate() {
                if qi == pi {
                    assigns.push((ch2.clone(), rotate(ident(pe), k, lo, size)));
                } else if copyable[qi] {
                    assigns.push((ch2.clone(), ident(pe2)));
                }
            }
            out.push(assigns);
        }
    }

    for (pi, (ch, _)) in c.pairs.iter().enumerate() {
        let (lo, size) = child_bounds[pi];
        let mut ks = vec![1];
        if size - 1 > 1 {
            ks.push(size - 1);
        }
        for k in ks {
            out.push(vec![(ch.clone(), rotate(ident(ch), k, lo, size))]);
        }
    }

    for (pi, (ch, _)) in c.pairs.iter().enumerate() {
        let (lo, size) = child_bounds[pi];
        for v in 0..size {
            out.push(vec![(ch.clone(), int(lo + v))]);
        }
    }

    Ok(out)
}

/// Enumerate every candidate for constraint `ci` of `spec`, in the
/// deterministic grammar order (guard-major).
///
/// # Errors
///
/// [`SynthError::BadSpec`] if the constraint has no pairs or names an
/// undeclared variable.
pub fn candidates(spec: &SynthSpec, ci: usize) -> Result<Vec<Candidate>, SynthError> {
    let c = &spec.constraints[ci];
    if c.pairs.is_empty() {
        return Err(SynthError::BadSpec {
            message: format!("constraint `{}` has no variable pairs", c.name),
        });
    }
    let guards = guard_exprs(c);
    let effects = effect_assigns(c, &spec.base)?;
    let kind = if c.trigger.is_some() {
        ActionKind::Combined
    } else {
        ActionKind::Convergence
    };
    let mut out = Vec::with_capacity(guards.len() * effects.len());
    for (gi, guard) in guards.iter().enumerate() {
        for (ei, assigns) in effects.iter().enumerate() {
            out.push(Candidate {
                constraint: ci,
                guard_index: gi,
                effect_index: ei,
                action: ActionDef {
                    name: format!("cand.{ci}.g{gi}.e{ei}"),
                    kind,
                    guard: guard.clone(),
                    assigns: assigns.clone(),
                    line: 0,
                },
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs;
    use nonmask_lang::pretty_action;

    #[test]
    fn token_ring_grammar_size_is_stable() {
        let spec = specs::token_ring_windowed(4, 3).unwrap();
        assert_eq!(spec.constraints.len(), 6);
        for ci in 0..6 {
            let cs = candidates(&spec, ci).unwrap();
            // 7 guards (bare + 6 comparisons) × 10 effects
            // (copy + 3 rotations + 2 self-rotations + 4 constants).
            assert_eq!(cs.len(), 70, "constraint {ci}");
        }
    }

    #[test]
    fn diffusing_grammar_size_is_stable() {
        let spec = specs::diffusing(7).unwrap();
        assert_eq!(spec.constraints.len(), 6);
        for ci in 0..6 {
            let cs = candidates(&spec, ci).unwrap();
            // 13 guards (bare + 2 pairs × 6) × 11 effects (copy-all +
            // 2 singles + 2 rotations + 2 self-rotations + 4 constants).
            assert_eq!(cs.len(), 143, "constraint {ci}");
        }
    }

    #[test]
    fn coloring_grammar_size_is_stable() {
        let spec = specs::coloring(7, 3).unwrap();
        assert_eq!(spec.constraints.len(), 6);
        for ci in 0..6 {
            let cs = candidates(&spec, ci).unwrap();
            // 7 guards × 8 effects (copy + 2 rotations + 2 self-rotations
            // + 3 constants).
            assert_eq!(cs.len(), 56, "constraint {ci}");
        }
    }

    #[test]
    fn bare_guard_and_copy_come_first() {
        let spec = specs::coloring(3, 3).unwrap();
        let cs = candidates(&spec, 0).unwrap();
        let first = pretty_action(&cs[0].action);
        assert!(
            first.contains("!("),
            "index 0 is the bare violation guard: {first}"
        );
        assert!(
            first.contains(":= c.0"),
            "index 0 effect is the plain copy: {first}"
        );
        assert_eq!(cs[0].guard_index, 0);
        assert_eq!(cs[0].effect_index, 0);
    }

    #[test]
    fn triggered_constraints_yield_combined_actions() {
        let spec = specs::token_ring_windowed(4, 3).unwrap();
        // Constraints are ordered ge.1..ge.3 then eq.1..eq.3.
        assert!(spec.constraints[0].trigger.is_none());
        assert!(spec.constraints[3].trigger.is_some());
        let ge = candidates(&spec, 0).unwrap();
        let eq = candidates(&spec, 3).unwrap();
        assert_eq!(ge[0].action.kind, ActionKind::Convergence);
        assert_eq!(eq[0].action.kind, ActionKind::Combined);
    }

    #[test]
    fn unknown_pair_variable_is_rejected() {
        let mut spec = specs::coloring(3, 3).unwrap();
        spec.constraints[0].pairs[0].1 = "nope".into();
        assert!(matches!(
            candidates(&spec, 0),
            Err(SynthError::BadSpec { .. })
        ));
    }

    #[test]
    fn rotations_stay_inside_the_child_domain() {
        // lo != 0 exercises the un-simplified rotation form.
        let e = rotate(ident("x"), 1, 2, 3);
        let printed = nonmask_lang::pretty_expr(&e);
        assert_eq!(printed, "((((x - 2) + 1) % 3) + 2)");
        let simple = rotate(ident("x"), 2, 0, 4);
        assert_eq!(nonmask_lang::pretty_expr(&simple), "((x + 2) % 4)");
    }
}
