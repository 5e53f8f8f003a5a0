//! The paper's synthesis problems, stated as decompositions only.
//!
//! Each spec carries the *base* program (variables and closure actions),
//! the goal predicate, and the constraint decomposition with its repair
//! locality — and nothing else. The repairs the paper hand-writes in
//! §5.1 and §7.1 are **not** here; re-deriving them is the synthesizer's
//! job (see the crate's `equivalence` integration test).
//!
//! Variable layouts match the hand-built programs in
//! `nonmask-protocols` exactly (names, domains, declaration order), so a
//! synthesized program's state space is id-for-id comparable with the
//! hand-written one.

use nonmask_lang::{ActionDef, BinOp, DomainDef, Expr, ProgramDef, VarDef};
use nonmask_program::ActionKind;

use crate::grammar::{all, and, bin, ident, int, not, or, SynthConstraint, SynthSpec};
use crate::SynthError;

fn var(name: String, domain: DomainDef) -> VarDef {
    VarDef {
        name,
        domain,
        line: 0,
    }
}

fn closure(name: String, guard: Expr, assigns: Vec<(String, Expr)>) -> ActionDef {
    ActionDef {
        name,
        kind: ActionKind::Closure,
        guard,
        assigns,
        line: 0,
    }
}

/// `Ok` when `holds`, else a [`SynthError::BadSpec`] saying `why`.
fn require(holds: bool, why: &str) -> Result<(), SynthError> {
    if holds {
        Ok(())
    } else {
        Err(SynthError::BadSpec {
            message: why.to_owned(),
        })
    }
}

/// Parent of node `j` in the binary heap-shaped tree used by the
/// diffusing and coloring protocols (matches `Tree::binary`).
fn parent(j: usize) -> usize {
    (j - 1) / 2
}

/// The windowed token ring of §7.1: `n` counters `x.j : 0..m` around a
/// ring, goal `S = (∀ j : x.(j-1) ≥ x.j) ∧ (x.0 = x.(n-1) ∨ x.0 =
/// x.(n-1) + 1)`, decomposed into a `ge` constraint and an `eq`
/// constraint per edge. The `eq` constraints carry the merge trigger
/// `x.(j-1) > x.j`, so their synthesized repairs come out *combined* —
/// the paper's token-passing copy.
///
/// # Errors
///
/// [`SynthError::BadSpec`] if `n < 2` or `m < 1`.
pub fn token_ring_windowed(n: usize, m: i64) -> Result<SynthSpec, SynthError> {
    require(n >= 2, "a ring needs at least two nodes")?;
    require(m >= 1, "the window needs at least two values")?;
    let x = |j: usize| format!("x.{j}");
    let base = ProgramDef {
        name: format!("token.ring.windowed.n{n}.m{m}"),
        vars: (0..n).map(|j| var(x(j), DomainDef::Range(0, m))).collect(),
        roles: Vec::new(),
        actions: vec![closure(
            "inc.0".into(),
            and(
                bin(BinOp::Eq, ident(&x(0)), ident(&x(n - 1))),
                bin(BinOp::Lt, ident(&x(0)), int(m)),
            ),
            vec![(x(0), bin(BinOp::Add, ident(&x(0)), int(1)))],
        )],
    };

    let ge = |j: usize| bin(BinOp::Ge, ident(&x(j - 1)), ident(&x(j)));
    let eq = |j: usize| bin(BinOp::Eq, ident(&x(j - 1)), ident(&x(j)));
    let mut constraints = Vec::new();
    for j in 1..n {
        constraints.push(SynthConstraint {
            name: format!("ge.{j}"),
            expr: ge(j),
            pairs: vec![(x(j), x(j - 1))],
            trigger: None,
        });
    }
    for j in 1..n {
        constraints.push(SynthConstraint {
            name: format!("eq.{j}"),
            expr: eq(j),
            pairs: vec![(x(j), x(j - 1))],
            trigger: Some(bin(BinOp::Gt, ident(&x(j - 1)), ident(&x(j)))),
        });
    }

    let window = or(
        bin(BinOp::Eq, ident(&x(0)), ident(&x(n - 1))),
        bin(
            BinOp::Eq,
            ident(&x(0)),
            bin(BinOp::Add, ident(&x(n - 1)), int(1)),
        ),
    );
    let goal = and(all((1..n).map(ge).collect()), window);

    Ok(SynthSpec {
        name: format!("token.ring.windowed.n{n}.m{m}"),
        base,
        goal,
        constraints,
    })
}

/// The stabilizing diffusing computation of §5.1 over a binary tree of
/// `n` nodes: colors `c.j ∈ {green, red}` and session bits `sn.j`, goal
/// `S = (∀ j :: R.j)` with `R.j = (c.j = c.(P.j) ∧ sn.j ≡ sn.(P.j)) ∨
/// (c.j = green ∧ c.(P.j) = red)`. The base program is the wave itself
/// (the root's `initiate`, per-node `reflect`); each `R.j` carries the
/// merge trigger `sn.j ≠ sn.(P.j)`, so the synthesized repair doubles as
/// the downward propagation — the paper's merged combined action.
///
/// # Errors
///
/// [`SynthError::BadSpec`] if `n < 2`.
pub fn diffusing(n: usize) -> Result<SynthSpec, SynthError> {
    require(n >= 2, "a tree needs at least two nodes")?;
    let c = |j: usize| format!("c.{j}");
    let sn = |j: usize| format!("sn.{j}");
    let green = || ident("green");
    let red = || ident("red");

    let mut vars = Vec::new();
    for j in 0..n {
        vars.push(var(
            c(j),
            DomainDef::Enum(vec!["green".into(), "red".into()]),
        ));
        vars.push(var(sn(j), DomainDef::Bool));
    }

    let mut actions = vec![closure(
        "initiate.0".into(),
        bin(BinOp::Eq, ident(&c(0)), green()),
        vec![(c(0), red()), (sn(0), not(ident(&sn(0))))],
    )];
    for j in 0..n {
        let kids: Vec<usize> = (1..n).filter(|&k| parent(k) == j).collect();
        let mut conj = vec![bin(BinOp::Eq, ident(&c(j)), red())];
        for k in kids {
            conj.push(bin(BinOp::Eq, ident(&c(k)), green()));
            conj.push(bin(BinOp::Eq, ident(&sn(k)), ident(&sn(j))));
        }
        actions.push(closure(
            format!("reflect.{j}"),
            all(conj),
            vec![(c(j), green())],
        ));
    }

    let r = |j: usize| {
        let p = parent(j);
        or(
            and(
                bin(BinOp::Eq, ident(&c(j)), ident(&c(p))),
                bin(BinOp::Eq, ident(&sn(j)), ident(&sn(p))),
            ),
            and(
                bin(BinOp::Eq, ident(&c(j)), green()),
                bin(BinOp::Eq, ident(&c(p)), red()),
            ),
        )
    };
    let constraints = (1..n)
        .map(|j| {
            let p = parent(j);
            SynthConstraint {
                name: format!("R.{j}"),
                expr: r(j),
                pairs: vec![(c(j), c(p)), (sn(j), sn(p))],
                trigger: Some(bin(BinOp::Ne, ident(&sn(j)), ident(&sn(p)))),
            }
        })
        .collect();

    Ok(SynthSpec {
        name: format!("diffusing.{n}"),
        base: ProgramDef {
            name: format!("diffusing.{n}"),
            vars,
            roles: Vec::new(),
            actions,
        },
        goal: all((1..n).map(r).collect()),
        constraints,
    })
}

/// Proper tree coloring over a binary tree of `n` nodes with `colors`
/// colors: `R.j = (c.j ≠ c.(P.j))`, goal `S = (∀ j :: R.j)`, **no**
/// closure actions at all — the synthesized design must be silent inside
/// `S`. This decomposition has no hand-written design heritage in the
/// paper; the synthesizer derives the recoloring repair from scratch.
///
/// # Errors
///
/// [`SynthError::BadSpec`] if `n < 2` or `colors < 2`.
pub fn coloring(n: usize, colors: i64) -> Result<SynthSpec, SynthError> {
    require(n >= 2, "a tree needs at least two nodes")?;
    require(colors >= 2, "proper coloring needs at least two colors")?;
    let c = |j: usize| format!("c.{j}");
    let r = |j: usize| bin(BinOp::Ne, ident(&c(j)), ident(&c(parent(j))));
    Ok(SynthSpec {
        name: format!("coloring.{n}.c{colors}"),
        base: ProgramDef {
            name: format!("coloring.{n}.c{colors}"),
            vars: (0..n)
                .map(|j| var(c(j), DomainDef::Range(0, colors - 1)))
                .collect(),
            roles: Vec::new(),
            actions: Vec::new(),
        },
        goal: all((1..n).map(r).collect()),
        constraints: (1..n)
            .map(|j| SynthConstraint {
                name: format!("R.{j}"),
                expr: r(j),
                pairs: vec![(c(j), c(parent(j)))],
                trigger: None,
            })
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonmask_lang::compile_def_with_processes;

    #[test]
    fn base_programs_compile_with_process_tags() {
        for spec in [token_ring_windowed(4, 3), diffusing(7), coloring(7, 3)] {
            let spec = spec.unwrap();
            let program = compile_def_with_processes(&spec.base)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert!(program.var_count() > 0);
        }
    }

    #[test]
    fn token_ring_base_has_only_the_increment() {
        let spec = token_ring_windowed(4, 3).unwrap();
        assert_eq!(spec.base.actions.len(), 1);
        assert_eq!(spec.base.actions[0].name, "inc.0");
        assert_eq!(spec.constraints.len(), 6);
    }

    #[test]
    fn diffusing_base_is_the_wave_without_repairs() {
        let spec = diffusing(7).unwrap();
        // initiate + one reflect per node, nothing that writes both a
        // child's color and session from the parent.
        assert_eq!(spec.base.actions.len(), 8);
        assert!(spec.base.actions.iter().all(|a| a.assigns.len() <= 2));
    }

    #[test]
    fn coloring_base_is_empty() {
        let spec = coloring(7, 3).unwrap();
        assert!(spec.base.actions.is_empty());
        assert_eq!(spec.constraints.len(), 6);
    }

    #[test]
    fn degenerate_sizes_are_bad_specs() {
        for (result, why) in [
            (token_ring_windowed(1, 3), "a ring needs at least two nodes"),
            (
                token_ring_windowed(4, 0),
                "the window needs at least two values",
            ),
            (diffusing(1), "a tree needs at least two nodes"),
            (coloring(0, 3), "a tree needs at least two nodes"),
            (coloring(7, 1), "proper coloring needs at least two colors"),
        ] {
            match result {
                Err(SynthError::BadSpec { message }) => assert_eq!(message, why),
                other => panic!("expected a bad spec ({why}), got {other:?}"),
            }
        }
    }
}
