//! Compilation of the AST to an executable [`Program`].

use std::collections::HashMap;
use std::sync::Arc;

use nonmask_program::{Domain, Predicate, ProcessId, Program, State, VarId};

use crate::ast::{BinOp, DomainDef, Expr, ProgramDef};
use crate::LangError;

/// A resolved, evaluable expression: identifiers are variable slots or
/// folded constants.
#[derive(Debug, Clone)]
enum CExpr {
    Const(i64),
    Var(VarId),
    Not(Box<CExpr>),
    Neg(Box<CExpr>),
    Bin(BinOp, Box<CExpr>, Box<CExpr>),
}

fn truthy(v: i64) -> bool {
    v != 0
}

fn eval(e: &CExpr, s: &State) -> i64 {
    match e {
        CExpr::Const(v) => *v,
        CExpr::Var(id) => s.get(*id),
        CExpr::Not(inner) => (!truthy(eval(inner, s))) as i64,
        CExpr::Neg(inner) => eval(inner, s).wrapping_neg(),
        CExpr::Bin(op, l, r) => {
            let (a, b) = (eval(l, s), eval(r, s));
            match op {
                BinOp::Add => a.wrapping_add(b),
                BinOp::Sub => a.wrapping_sub(b),
                BinOp::Mul => a.wrapping_mul(b),
                // Division and modulo are Euclidean (non-negative
                // remainder for positive divisors — what `mod K` counters
                // want); division by zero yields 0 rather than trapping,
                // and `i64::MIN / -1` wraps like the other operators,
                // since guards must be total functions of the state.
                BinOp::Div => {
                    if b == 0 {
                        0
                    } else {
                        a.wrapping_div_euclid(b)
                    }
                }
                BinOp::Mod => {
                    if b == 0 {
                        0
                    } else {
                        a.wrapping_rem_euclid(b)
                    }
                }
                BinOp::Eq => (a == b) as i64,
                BinOp::Ne => (a != b) as i64,
                BinOp::Lt => (a < b) as i64,
                BinOp::Le => (a <= b) as i64,
                BinOp::Gt => (a > b) as i64,
                BinOp::Ge => (a >= b) as i64,
                BinOp::And => (truthy(a) && truthy(b)) as i64,
                BinOp::Or => (truthy(a) || truthy(b)) as i64,
            }
        }
    }
}

struct Scope {
    vars: HashMap<String, VarId>,
    consts: HashMap<String, i64>,
}

impl Scope {
    fn resolve(&self, expr: &Expr, line: u32) -> Result<CExpr, LangError> {
        Ok(match expr {
            Expr::Int(v) => CExpr::Const(*v),
            Expr::Bool(b) => CExpr::Const(*b as i64),
            Expr::Ident(name) => {
                if let Some(&id) = self.vars.get(name) {
                    CExpr::Var(id)
                } else if let Some(&v) = self.consts.get(name) {
                    CExpr::Const(v)
                } else {
                    return Err(LangError::new(
                        line,
                        format!("unknown identifier `{name}` (not a variable or enum label)"),
                    ));
                }
            }
            Expr::Not(e) => CExpr::Not(Box::new(self.resolve(e, line)?)),
            Expr::Neg(e) => CExpr::Neg(Box::new(self.resolve(e, line)?)),
            Expr::Bin(op, l, r) => CExpr::Bin(
                *op,
                Box::new(self.resolve(l, line)?),
                Box::new(self.resolve(r, line)?),
            ),
        })
    }
}

fn collect_vars(e: &CExpr, out: &mut Vec<VarId>) {
    match e {
        CExpr::Const(_) => {}
        CExpr::Var(id) => out.push(*id),
        CExpr::Not(inner) | CExpr::Neg(inner) => collect_vars(inner, out),
        CExpr::Bin(_, l, r) => {
            collect_vars(l, out);
            collect_vars(r, out);
        }
    }
}

/// Compile a parsed [`ProgramDef`] into an executable [`Program`].
///
/// Typing is deliberately loose (the paper's notation mixes booleans and
/// small integers freely): booleans are `0`/`1`, any nonzero value is
/// true in boolean positions, and comparisons yield `0`/`1`.
///
/// # Errors
///
/// [`LangError`] on duplicate variables, conflicting enum labels, unknown
/// identifiers, or empty ranges.
pub fn compile_def(def: &ProgramDef) -> Result<Program, LangError> {
    compile_inner(def, false)
}

/// Compile like [`compile_def`], additionally tagging every variable with
/// an owning [`ProcessId`] inferred from its name's trailing `.N` segment
/// (`x.3` and `sn.3` are owned by process 3). The tags are what make the
/// compiled program *refinable* — runnable on the message-passing
/// simulator and the socket runtime, whose node mapping requires every
/// variable to carry an owner.
///
/// # Errors
///
/// [`LangError`] as for [`compile_def`], plus an error for any variable
/// whose name does not end in a `.N` segment.
pub fn compile_def_with_processes(def: &ProgramDef) -> Result<Program, LangError> {
    compile_inner(def, true)
}

fn infer_process(name: &str, line: u32) -> Result<ProcessId, LangError> {
    name.rsplit('.')
        .next()
        .and_then(|seg| seg.parse::<usize>().ok())
        .map(ProcessId)
        .ok_or_else(|| {
            LangError::new(
                line,
                format!("cannot infer owning process for `{name}` (expected a `.N` name suffix)"),
            )
        })
}

fn compile_inner(def: &ProgramDef, tag_processes: bool) -> Result<Program, LangError> {
    let mut b = Program::builder(def.name.clone());
    let mut scope = Scope {
        vars: HashMap::new(),
        consts: HashMap::new(),
    };

    for var in &def.vars {
        if scope.vars.contains_key(&var.name) {
            return Err(LangError::new(
                var.line,
                format!("variable `{}` declared twice", var.name),
            ));
        }
        let domain = match &var.domain {
            DomainDef::Bool => Domain::Bool,
            DomainDef::Range(lo, hi) => {
                if lo > hi {
                    return Err(LangError::new(
                        var.line,
                        format!("empty range {lo}..{hi} for `{}`", var.name),
                    ));
                }
                Domain::range(*lo, *hi)
            }
            DomainDef::Enum(labels) => {
                for (i, label) in labels.iter().enumerate() {
                    match scope.consts.get(label) {
                        Some(&v) if v != i as i64 => {
                            return Err(LangError::new(
                                var.line,
                                format!(
                                "enum label `{label}` already bound to {v}, cannot rebind to {i}"
                            ),
                            ))
                        }
                        _ => {
                            scope.consts.insert(label.clone(), i as i64);
                        }
                    }
                }
                Domain::enumeration(labels.iter().map(String::as_str))
            }
        };
        let id = if tag_processes {
            b.var_of(
                var.name.clone(),
                domain,
                infer_process(&var.name, var.line)?,
            )
        } else {
            b.var(var.name.clone(), domain)
        };
        scope.vars.insert(var.name.clone(), id);
    }

    for role in &def.roles {
        let mut seen = role.nodes.clone();
        seen.sort_unstable();
        seen.dedup();
        if seen.len() != role.nodes.len() {
            return Err(LangError::new(
                role.line,
                format!("role `{}` annotates a node twice", role.role),
            ));
        }
        if tag_processes {
            // Every annotated node must own at least one variable —
            // otherwise the annotation names a process that does not
            // exist and the execution layers would silently ignore it.
            for &node in &role.nodes {
                let owns_var = def
                    .vars
                    .iter()
                    .any(|v| infer_process(&v.name, v.line) == Ok(ProcessId(node)));
                if !owns_var {
                    return Err(LangError::new(
                        role.line,
                        format!(
                            "role `{}` annotates node {node}, which owns no variable",
                            role.role
                        ),
                    ));
                }
            }
        }
    }

    for action in &def.actions {
        let guard = scope.resolve(&action.guard, action.line)?;
        let mut assigns: Vec<(VarId, CExpr)> = Vec::with_capacity(action.assigns.len());
        for (target, rhs) in &action.assigns {
            let Some(&tid) = scope.vars.get(target) else {
                return Err(LangError::new(
                    action.line,
                    format!("assignment target `{target}` is not a declared variable"),
                ));
            };
            assigns.push((tid, scope.resolve(rhs, action.line)?));
        }

        let mut reads = Vec::new();
        collect_vars(&guard, &mut reads);
        for (_, rhs) in &assigns {
            collect_vars(rhs, &mut reads);
        }
        let writes: Vec<VarId> = assigns.iter().map(|(t, _)| *t).collect();

        let guard = Arc::new(guard);
        let assigns = Arc::new(assigns);
        b.add_action(nonmask_program::Action::new(
            action.name.clone(),
            action.kind,
            reads,
            writes,
            {
                let guard = guard.clone();
                move |s: &State| truthy(eval(&guard, s))
            },
            move |s: &mut State| {
                // Simultaneous assignment: evaluate every RHS against the
                // pre-state, then write.
                let values: Vec<(VarId, i64)> =
                    assigns.iter().map(|(t, e)| (*t, eval(e, s))).collect();
                for (t, v) in values {
                    s.set(t, v);
                }
            },
        ));
    }

    b.try_build()
        .map_err(|e| LangError::new(1, format!("program construction failed: {e}")))
}

/// Compile a bare [`Expr`] into a [`Predicate`] over `program`'s
/// variables, with `def` supplying the enum-label constants (`green`,
/// `red`, …) exactly as [`compile_def`] binds them. The predicate's
/// variable set is the expression's free variables, so the constraint
/// graph's read-locality checks see the same footprint the evaluator
/// uses.
///
/// # Errors
///
/// [`LangError`] for identifiers that are neither a variable of `program`
/// nor an enum label of `def`.
pub fn compile_predicate(
    program: &Program,
    def: &ProgramDef,
    name: impl Into<String>,
    expr: &Expr,
) -> Result<Predicate, LangError> {
    let mut scope = Scope {
        vars: HashMap::new(),
        consts: HashMap::new(),
    };
    for var in &def.vars {
        if let DomainDef::Enum(labels) = &var.domain {
            for (i, label) in labels.iter().enumerate() {
                scope.consts.insert(label.clone(), i as i64);
            }
        }
    }
    for id in program.var_ids() {
        scope.vars.insert(program.var(id).name().to_string(), id);
    }
    let compiled = scope.resolve(expr, 1)?;
    let mut reads = Vec::new();
    collect_vars(&compiled, &mut reads);
    reads.sort_unstable();
    reads.dedup();
    Ok(Predicate::new(name, reads, move |s: &State| {
        truthy(eval(&compiled, s))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn compile(src: &str) -> Program {
        compile_def(&parse(src).unwrap()).unwrap()
    }

    #[test]
    fn compiles_and_executes() {
        let p = compile(
            "program inc var x : 0..3 \
             action up : x < 3 -> x := x + 1",
        );
        let mut s = p.min_state();
        let a = p.action_ids().next().unwrap();
        assert!(p.action(a).enabled(&s));
        p.action(a).apply(&mut s);
        assert_eq!(s.slots()[0], 1);
        // Inferred read/write sets.
        assert_eq!(p.action(a).reads().len(), 1);
        assert_eq!(p.action(a).writes().len(), 1);
    }

    #[test]
    fn simultaneous_assignment_is_simultaneous() {
        let p = compile(
            "program swap var x : 0..9; y : 0..9 \
             action sw : true -> x := y, y := x",
        );
        let mut s = p.state_from([3, 7]).unwrap();
        let a = p.action_ids().next().unwrap();
        p.action(a).apply(&mut s);
        assert_eq!(s.slots(), &[7, 3], "swap, not overwrite");
    }

    #[test]
    fn enum_labels_are_constants() {
        let p = compile(
            "program colors var c : {green, red} \
             action redden : c == green -> c := red",
        );
        let mut s = p.min_state();
        let a = p.action_ids().next().unwrap();
        assert!(p.action(a).enabled(&s));
        p.action(a).apply(&mut s);
        assert_eq!(s.slots()[0], 1, "red = 1");
        assert!(!p.action(a).enabled(&s));
    }

    #[test]
    fn shared_enum_labels_must_agree() {
        // Same labels at the same positions: fine.
        let _ = compile("program ok var a : {g, r}; b : {g, r}");
        // Conflicting position: error.
        let err =
            compile_def(&parse("program bad var a : {g, r}; b : {r, g}").unwrap()).unwrap_err();
        assert!(err.message.contains("already bound"));
    }

    #[test]
    fn euclidean_mod_and_div() {
        let p = compile(
            "program m var x : -4..4; y : 0..4 \
             action a : true -> y := x % 3 \
             action b : true -> y := x / 0",
        );
        let mut s = p.state_from([-4, 0]).unwrap();
        let ids: Vec<_> = p.action_ids().collect();
        p.action(ids[0]).apply(&mut s);
        assert_eq!(s.slots()[1], 2, "-4 mod 3 = 2 (Euclidean)");
        p.action(ids[1]).apply(&mut s);
        assert_eq!(s.slots()[1], 0, "division by zero yields 0");
    }

    #[test]
    fn overflowing_negation_and_division_wrap() {
        // `i64::MIN` negated, divided by -1 and taken mod -1: each wraps
        // like `+`, `-` and `*` instead of trapping.
        let p = compile(
            "program w var x : 0..1 \
             action neg : -(-9223372036854775807 - 1) < 0 -> x := 1 \
             action div : (-9223372036854775807 - 1) / -1 < 0 -> x := 1 \
             action rem : (-9223372036854775807 - 1) % -1 == 0 -> x := 1",
        );
        let s = p.min_state();
        for a in p.action_ids() {
            assert!(p.action(a).enabled(&s), "{}", p.action(a).name());
        }
    }

    #[test]
    fn unknown_identifier_rejected() {
        let err = compile_def(&parse("program p var x : bool action a : q -> x := true").unwrap())
            .unwrap_err();
        assert!(err.message.contains("unknown identifier `q`"));
    }

    #[test]
    fn unknown_target_rejected() {
        let err = compile_def(&parse("program p var x : bool action a : x -> q := true").unwrap())
            .unwrap_err();
        assert!(err.message.contains("target `q`"));
    }

    #[test]
    fn duplicate_variable_rejected() {
        let err = compile_def(&parse("program p var x : bool; x : bool").unwrap()).unwrap_err();
        assert!(err.message.contains("declared twice"));
    }

    #[test]
    fn empty_range_rejected() {
        let err = compile_def(&parse("program p var x : 5..2").unwrap()).unwrap_err();
        assert!(err.message.contains("empty range"));
    }

    #[test]
    fn process_tags_come_from_name_suffixes() {
        let def = parse(
            "program p var x.0 : 0..3; x.1 : 0..3; sn.1 : bool \
             action a : x.0 != x.1 -> x.1 := x.0",
        )
        .unwrap();
        let p = compile_def_with_processes(&def).unwrap();
        let pid = |name: &str| p.var(p.var_by_name(name).unwrap()).process();
        assert_eq!(pid("x.0"), Some(ProcessId(0)));
        assert_eq!(pid("x.1"), Some(ProcessId(1)));
        assert_eq!(pid("sn.1"), Some(ProcessId(1)));
        // The untagged compiler leaves ownership empty.
        let bare = compile_def(&def).unwrap();
        assert_eq!(bare.var(bare.var_by_name("x.0").unwrap()).process(), None);
    }

    #[test]
    fn process_inference_requires_numeric_suffix() {
        let def = parse("program p var token : bool").unwrap();
        let err = compile_def_with_processes(&def).unwrap_err();
        assert!(err.message.contains("cannot infer owning process"));
    }

    #[test]
    fn role_annotations_must_name_existing_processes() {
        let src = "program p var x.0 : bool; x.1 : bool role byzantine : 1 \
                   action a.0 : x.0 -> x.0 := false";
        let def = parse(src).unwrap();
        // Node 1 owns x.1, so the annotation compiles under both modes.
        compile_def(&def).unwrap();
        compile_def_with_processes(&def).unwrap();

        let bad = parse(
            "program p var x.0 : bool role byzantine : 3 \
             action a.0 : x.0 -> x.0 := false",
        )
        .unwrap();
        // The untagged compiler has no process map and lets it pass...
        compile_def(&bad).unwrap();
        // ...but the refinable compiler rejects a role on a ghost node.
        let err = compile_def_with_processes(&bad).unwrap_err();
        assert!(err.message.contains("owns no variable"), "{err}");
    }

    #[test]
    fn duplicate_role_nodes_are_rejected() {
        let def = parse("program p var x.0 : bool role byzantine : 0, 0").unwrap();
        let err = compile_def(&def).unwrap_err();
        assert!(err.message.contains("annotates a node twice"), "{err}");
    }

    #[test]
    fn predicates_compile_against_the_program() {
        let def = parse(
            "program p var x.0 : 0..3; c.1 : {green, red} \
             action a : x.0 < 3 -> x.0 := x.0 + 1",
        )
        .unwrap();
        let p = compile_def(&def).unwrap();
        let expr = parse("program q var x.0 : 0..3; c.1 : {green, red} action t : x.0 == 2 && c.1 == red -> x.0 := x.0")
            .unwrap()
            .actions[0]
            .guard
            .clone();
        let pred = compile_predicate(&p, &def, "probe", &expr).unwrap();
        assert_eq!(pred.name(), "probe");
        assert!(pred.holds(&p.state_from([2, 1]).unwrap()));
        assert!(!pred.holds(&p.state_from([2, 0]).unwrap()));
        assert!(!pred.holds(&p.state_from([1, 1]).unwrap()));
        // Free variables become the declared read set.
        assert_eq!(pred.reads().len(), 2);
        // Unknown identifiers are rejected.
        let bad = Expr::Ident("nope".into());
        assert!(compile_predicate(&p, &def, "bad", &bad).is_err());
    }

    #[test]
    fn boolean_operators_work() {
        let p = compile(
            "program b var x : bool; y : bool \
             action a : x && !y || false -> y := true",
        );
        let a = p.action_ids().next().unwrap();
        assert!(p.action(a).enabled(&p.state_from([1, 0]).unwrap()));
        assert!(!p.action(a).enabled(&p.state_from([1, 1]).unwrap()));
        assert!(!p.action(a).enabled(&p.state_from([0, 0]).unwrap()));
    }
}
