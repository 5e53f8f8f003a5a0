//! Property tests: printing and reparsing is the identity on random ASTs,
//! and the front end returns an error, never a panic, on any text.

use nonmask_lang::{parse, pretty, ActionDef, BinOp, DomainDef, Expr, ProgramDef, VarDef};
use nonmask_program::ActionKind;
use proptest::prelude::*;

fn ident_strategy() -> impl Strategy<Value = String> {
    // Identifiers `[a-z][a-z0-9_]{0,5}` with optional dotted suffix,
    // avoiding keywords. (Spelled out char-by-char: the vendored proptest
    // shim has no regex strategies.)
    let first = proptest::sample::select(('a'..='z').collect::<Vec<char>>());
    let rest_alphabet: Vec<char> = ('a'..='z').chain('0'..='9').chain(['_']).collect();
    let rest = proptest::collection::vec(proptest::sample::select(rest_alphabet), 0..6);
    let base = (first, rest).prop_map(|(f, r)| {
        let mut s = String::new();
        s.push(f);
        s.extend(r);
        s
    });
    (base, proptest::option::of(0u8..10)).prop_filter_map("avoid keywords", |(base, suffix)| {
        const KEYWORDS: [&str; 6] = ["program", "var", "action", "bool", "true", "false"];
        if KEYWORDS.contains(&base.as_str()) {
            return None;
        }
        Some(match suffix {
            Some(n) => format!("{base}.{n}"),
            None => base,
        })
    })
}

/// Domains for the variable at `index`: booleans, ranges (including
/// negative bounds and singletons), and enumerations. Enum labels are
/// synthesized from the variable index (`v3l0`, `v3l1`, …) so no two
/// enums ever rebind the same label to different values.
fn domain_strategy(index: usize) -> BoxedStrategy<DomainDef> {
    prop_oneof![
        Just(DomainDef::Bool),
        (-8i64..8, 0i64..8).prop_map(|(lo, span)| DomainDef::Range(lo, lo + span)),
        (2usize..4)
            .prop_map(move |k| DomainDef::Enum((0..k).map(|j| format!("v{index}l{j}")).collect())),
    ]
    .boxed()
}

fn expr_strategy(vars: Vec<String>) -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0i64..100).prop_map(Expr::Int),
        any::<bool>().prop_map(Expr::Bool),
        proptest::sample::select(vars).prop_map(Expr::Ident),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            inner.clone().prop_map(|e| Expr::Neg(Box::new(e))),
            (
                proptest::sample::select(vec![
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::Mul,
                    BinOp::Div,
                    BinOp::Mod,
                    BinOp::Eq,
                    BinOp::Ne,
                    BinOp::Lt,
                    BinOp::Le,
                    BinOp::Gt,
                    BinOp::Ge,
                    BinOp::And,
                    BinOp::Or,
                ]),
                inner.clone(),
                inner,
            )
                .prop_map(|(op, l, r)| Expr::Bin(op, Box::new(l), Box::new(r))),
        ]
    })
}

fn program_strategy() -> impl Strategy<Value = ProgramDef> {
    (
        ident_strategy(),
        proptest::collection::btree_set(ident_strategy(), 1..5),
    )
        .prop_flat_map(|(name, var_names)| {
            let vars: Vec<String> = var_names.into_iter().collect();
            let domains: Vec<BoxedStrategy<DomainDef>> =
                (0..vars.len()).map(domain_strategy).collect();
            (Just(name), Just(vars), domains)
        })
        .prop_flat_map(|(name, vars, domains)| {
            let var_defs: Vec<VarDef> = vars
                .iter()
                .zip(domains)
                .map(|(v, domain)| VarDef {
                    name: v.clone(),
                    domain,
                    line: 0,
                })
                .collect();
            // Expressions may mention variables *and* enum labels (which
            // compile to folded constants); assignment targets stay
            // variables.
            let mut idents = vars.clone();
            for def in &var_defs {
                if let DomainDef::Enum(labels) = &def.domain {
                    idents.extend(labels.iter().cloned());
                }
            }
            let action = (
                ident_strategy(),
                proptest::sample::select(vec![
                    ActionKind::Closure,
                    ActionKind::Convergence,
                    ActionKind::Combined,
                ]),
                expr_strategy(idents.clone()),
                proptest::collection::vec(
                    (
                        proptest::sample::select(vars.clone()),
                        expr_strategy(idents.clone()),
                    ),
                    1..4,
                ),
            )
                .prop_map(|(name, kind, guard, assigns)| ActionDef {
                    name,
                    kind,
                    guard,
                    assigns,
                    line: 0,
                });
            (
                Just(name),
                Just(var_defs),
                proptest::collection::vec(action, 0..4),
            )
        })
        .prop_map(|(name, vars, actions)| ProgramDef {
            name,
            vars,
            roles: Vec::new(),
            actions,
        })
        .prop_filter("enum labels must not collide with variable names", |def| {
            // A generated variable could coincidentally be named like a
            // synthesized label (`v0l1`); the label would then resolve to
            // the variable instead of the constant, so drop such programs.
            let names: std::collections::HashSet<&str> =
                def.vars.iter().map(|v| v.name.as_str()).collect();
            def.vars.iter().all(|v| match &v.domain {
                DomainDef::Enum(labels) => labels.iter().all(|l| !names.contains(l.as_str())),
                _ => true,
            })
        })
}

fn strip_lines(mut def: ProgramDef) -> ProgramDef {
    for v in &mut def.vars {
        v.line = 0;
    }
    for a in &mut def.actions {
        a.line = 0;
    }
    def
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `parse(pretty(ast)) == ast` for arbitrary well-formed ASTs.
    #[test]
    fn print_parse_roundtrip(def in program_strategy()) {
        let printed = pretty(&def);
        let reparsed = parse(&printed)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        prop_assert_eq!(strip_lines(def), strip_lines(reparsed), "printed:\n{}", printed);
    }

    /// Every printable AST also compiles (identifiers all declared, ranges
    /// nonempty) and the compiled guard agrees with a direct evaluation of
    /// the expression on the minimum state.
    #[test]
    fn printable_asts_compile(def in program_strategy()) {
        let program = nonmask_lang::compile_def(&def)
            .unwrap_or_else(|e| panic!("compile failed: {e}"));
        prop_assert_eq!(program.action_count(), def.actions.len());
        prop_assert_eq!(program.var_count(), def.vars.len());
        // Guards evaluate without panicking on arbitrary in-domain states.
        let s = program.min_state();
        for a in program.action_ids() {
            let _ = program.action(a).enabled(&s);
        }
    }
}

/// Tokens of the language (and a few near misses, such as integers past
/// `i64`), for token-soup inputs that get past the lexer into the parser
/// and compiler. Line breaks are added separately.
const TOKENS: &str = "program var action role bool true false closure convergence combined \
    x y.1 c.0 green red : ; , .. -> := [ ] { } ( ) + - * / % == != < <= > >= && || ! \
    0 1 -7 9223372036854775807 9223372036854775808 99999999999999999999";

fn tokens() -> Vec<&'static str> {
    TOKENS.split_whitespace().chain(["\n"]).collect()
}

/// One edit of a program text: `(kind, position, length, token)`.
type Mutation = (u8, usize, usize, usize);

/// Apply `mutations` to `text` character-wise: delete a span, insert a
/// token, replace a span by a token, duplicate a span, or truncate.
fn mutate(text: &str, mutations: &[Mutation]) -> String {
    let tokens = tokens();
    let mut chars: Vec<char> = text.chars().collect();
    for &(kind, at, len, token) in mutations {
        let at = at % (chars.len() + 1);
        let end = (at + len).min(chars.len());
        let token: Vec<char> = tokens[token % tokens.len()].chars().collect();
        match kind % 5 {
            0 => {
                chars.drain(at..end);
            }
            1 => {
                chars.splice(at..at, token);
            }
            2 => {
                chars.splice(at..end, token);
            }
            3 => {
                let span: Vec<char> = chars[at..end].to_vec();
                chars.splice(at..at, span);
            }
            _ => chars.truncate(at),
        }
    }
    chars.into_iter().collect()
}

/// The front end on any text: `parse` and `compile` return, never panic,
/// and a compiled program's guards and effects are total on its minimum
/// state.
fn front_end_returns(source: &str) {
    let parsed = parse(source);
    if let Ok(program) = nonmask_lang::compile(source) {
        assert!(
            parsed.is_ok(),
            "compile accepted what parse rejected:\n{source}"
        );
        let state = program.min_state();
        for a in program.action_ids() {
            let action = program.action(a);
            let _ = action.enabled(&state);
            let _ = action.successor(&state);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, read as text with invalid UTF-8 replaced.
    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        front_end_returns(&String::from_utf8_lossy(&bytes));
    }

    /// Random sequences of the language's own tokens.
    #[test]
    fn token_soup_never_panics(
        picks in proptest::collection::vec(proptest::sample::select(tokens()), 0..64),
        header in any::<bool>(),
    ) {
        let mut source = String::from(if header { "program p\n" } else { "" });
        for t in picks {
            source.push_str(t);
            source.push(' ');
        }
        front_end_returns(&source);
    }

    /// Printouts of valid programs with a few random edits.
    #[test]
    fn mutated_printouts_never_panic(
        def in program_strategy(),
        mutations in proptest::collection::vec(
            (any::<u8>(), any::<usize>(), 0usize..12, any::<usize>()),
            1..6,
        ),
    ) {
        front_end_returns(&mutate(&pretty(&def), &mutations));
    }
}
