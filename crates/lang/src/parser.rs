//! Recursive-descent parser.

use nonmask_program::ActionKind;

use crate::ast::{ActionDef, BinOp, DomainDef, Expr, ProgramDef, RoleDef, VarDef};
use crate::lexer::{lex, Spanned, Tok};
use crate::LangError;

/// How deep an expression may nest, counted two ways: the parentheses
/// and prefix operators around a token (each a few stack frames of
/// recursive descent), and the depth of the built tree, where each
/// operator of a chain like `x + x + x` is one level (every later pass
/// over the tree recurses once per level). The limit keeps a hostile
/// input an error instead of a stack overflow.
const MAX_NESTING: u32 = 128;

/// A parsed expression and the depth of its tree (a leaf is 1).
type Tree = (Expr, u32);

fn too_deep(line: u32) -> LangError {
    LangError::new(
        line,
        format!("expression nested more than {MAX_NESTING} levels deep"),
    )
}

/// Parse a program text into its AST.
///
/// # Errors
///
/// [`LangError`] with the offending line on any syntax error.
pub fn parse(source: &str) -> Result<ProgramDef, LangError> {
    let tokens = lex(source)?;
    let last_line = tokens.last().map_or(1, |t| t.line);
    let mut p = Parser {
        tokens,
        pos: 0,
        last_line,
        nesting: 0,
    };
    let def = p.program()?;
    if let Some(t) = p.peek() {
        return Err(LangError::new(
            t.line,
            format!("unexpected trailing `{}`", render(&t.tok)),
        ));
    }
    Ok(def)
}

fn render(tok: &Tok) -> String {
    match tok {
        Tok::Ident(s) => s.clone(),
        Tok::Int(v) => v.to_string(),
        Tok::Keyword(k) => (*k).to_string(),
        Tok::Punct(p) => (*p).to_string(),
    }
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    /// Line of the last token (used for end-of-input errors).
    last_line: u32,
    /// Open parentheses and prefix operators around the current token.
    nesting: u32,
}

impl Parser {
    fn peek(&self) -> Option<&Spanned> {
        self.tokens.get(self.pos)
    }

    fn line(&self) -> u32 {
        self.peek().map_or(self.last_line, |t| t.line)
    }

    fn next(&mut self) -> Option<Spanned> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Some(Spanned { tok: Tok::Punct(q), .. }) if *q == p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &'static str) -> Result<(), LangError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("`{p}`")))
        }
    }

    fn eat_keyword(&mut self, k: &str) -> bool {
        if matches!(self.peek(), Some(Spanned { tok: Tok::Keyword(q), .. }) if *q == k) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, k: &'static str) -> Result<(), LangError> {
        if self.eat_keyword(k) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("keyword `{k}`")))
        }
    }

    fn expect_ident(&mut self) -> Result<(String, u32), LangError> {
        match self.next() {
            Some(Spanned {
                tok: Tok::Ident(s),
                line,
            }) => Ok((s, line)),
            other => Err(LangError::new(
                other.as_ref().map_or(self.last_line, |t| t.line),
                format!(
                    "expected an identifier, found {}",
                    other.map_or("end of input".to_string(), |t| format!(
                        "`{}`",
                        render(&t.tok)
                    ))
                ),
            )),
        }
    }

    fn expect_int(&mut self) -> Result<i64, LangError> {
        // Allow a leading minus for negative bounds.
        let negative = self.eat_punct("-");
        match self.next() {
            Some(Spanned {
                tok: Tok::Int(v), ..
            }) => Ok(if negative { -v } else { v }),
            other => Err(LangError::new(
                other.as_ref().map_or(self.last_line, |t| t.line),
                "expected an integer".to_string(),
            )),
        }
    }

    fn unexpected(&self, wanted: &str) -> LangError {
        LangError::new(
            self.line(),
            match self.peek() {
                Some(t) => format!("expected {wanted}, found `{}`", render(&t.tok)),
                None => format!("expected {wanted}, found end of input"),
            },
        )
    }

    fn program(&mut self) -> Result<ProgramDef, LangError> {
        self.expect_keyword("program")?;
        let (name, _) = self.expect_ident()?;

        let mut vars = Vec::new();
        let mut roles = Vec::new();
        // Any number of `var` and `role` blocks, in any order (template
        // expansion produces one `var` line per process, and role
        // annotations read most naturally next to the nodes they mark).
        loop {
            if self.eat_keyword("var") {
                loop {
                    vars.push(self.var_def()?);
                    if !self.eat_punct(";") {
                        break;
                    }
                    // Permit a trailing semicolon before `action` / `var` / EOF.
                    if !matches!(
                        self.peek(),
                        Some(Spanned {
                            tok: Tok::Ident(_),
                            ..
                        })
                    ) {
                        break;
                    }
                }
            } else if self.eat_keyword("role") {
                roles.push(self.role_def()?);
            } else {
                break;
            }
        }

        let mut actions = Vec::new();
        while self.eat_keyword("action") {
            actions.push(self.action_def()?);
        }
        Ok(ProgramDef {
            name,
            vars,
            roles,
            actions,
        })
    }

    /// `role byzantine : 3, 5` — the keyword is already consumed.
    fn role_def(&mut self) -> Result<RoleDef, LangError> {
        let (role, line) = self.expect_ident()?;
        self.expect_punct(":")?;
        let mut nodes = Vec::new();
        loop {
            let node = self.expect_int()?;
            if node < 0 {
                return Err(LangError::new(
                    self.line(),
                    format!("role `{role}` annotates a negative node index {node}"),
                ));
            }
            nodes.push(node as usize);
            if !self.eat_punct(",") {
                break;
            }
        }
        Ok(RoleDef { role, nodes, line })
    }

    fn var_def(&mut self) -> Result<VarDef, LangError> {
        let (name, line) = self.expect_ident()?;
        self.expect_punct(":")?;
        let domain = self.domain()?;
        Ok(VarDef { name, domain, line })
    }

    fn domain(&mut self) -> Result<DomainDef, LangError> {
        if self.eat_keyword("bool") {
            return Ok(DomainDef::Bool);
        }
        if self.eat_punct("{") {
            let mut labels = Vec::new();
            loop {
                let (label, _) = self.expect_ident()?;
                labels.push(label);
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct("}")?;
            return Ok(DomainDef::Enum(labels));
        }
        let lo = self.expect_int()?;
        self.expect_punct("..")?;
        let hi = self.expect_int()?;
        Ok(DomainDef::Range(lo, hi))
    }

    fn action_def(&mut self) -> Result<ActionDef, LangError> {
        let (name, line) = self.expect_ident()?;
        let kind = if self.eat_punct("[") {
            let (k, kline) = self.expect_ident()?;
            let kind = match k.as_str() {
                "closure" => ActionKind::Closure,
                "convergence" => ActionKind::Convergence,
                "combined" => ActionKind::Combined,
                other => {
                    return Err(LangError::new(
                        kline,
                        format!("unknown action kind `{other}` (closure|convergence|combined)"),
                    ))
                }
            };
            self.expect_punct("]")?;
            kind
        } else {
            ActionKind::Closure
        };
        self.expect_punct(":")?;
        let guard = self.expr()?;
        self.expect_punct("->")?;
        let mut assigns = Vec::new();
        loop {
            let (target, _) = self.expect_ident()?;
            self.expect_punct(":=")?;
            let rhs = self.expr()?;
            assigns.push((target, rhs));
            if !self.eat_punct(",") {
                break;
            }
        }
        Ok(ActionDef {
            name,
            kind,
            guard,
            assigns,
            line,
        })
    }

    // Precedence climbing: || < && < comparisons < additive < multiplicative < unary.
    // Each level returns its tree together with the tree's depth.
    fn expr(&mut self) -> Result<Expr, LangError> {
        Ok(self.or_expr()?.0)
    }

    fn or_expr(&mut self) -> Result<Tree, LangError> {
        let mut lhs = self.and_expr()?;
        while self.eat_punct("||") {
            let rhs = self.and_expr()?;
            lhs = self.bin(BinOp::Or, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Tree, LangError> {
        let mut lhs = self.cmp_expr()?;
        while self.eat_punct("&&") {
            let rhs = self.cmp_expr()?;
            lhs = self.bin(BinOp::And, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<Tree, LangError> {
        let lhs = self.add_expr()?;
        let op = if self.eat_punct("==") {
            BinOp::Eq
        } else if self.eat_punct("!=") {
            BinOp::Ne
        } else if self.eat_punct("<=") {
            BinOp::Le
        } else if self.eat_punct(">=") {
            BinOp::Ge
        } else if self.eat_punct("<") {
            BinOp::Lt
        } else if self.eat_punct(">") {
            BinOp::Gt
        } else {
            return Ok(lhs);
        };
        let rhs = self.add_expr()?;
        self.bin(op, lhs, rhs)
    }

    fn add_expr(&mut self) -> Result<Tree, LangError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = if self.eat_punct("+") {
                BinOp::Add
            } else if self.eat_punct("-") {
                BinOp::Sub
            } else {
                return Ok(lhs);
            };
            let rhs = self.mul_expr()?;
            lhs = self.bin(op, lhs, rhs)?;
        }
    }

    fn mul_expr(&mut self) -> Result<Tree, LangError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = if self.eat_punct("*") {
                BinOp::Mul
            } else if self.eat_punct("/") {
                BinOp::Div
            } else if self.eat_punct("%") {
                BinOp::Mod
            } else {
                return Ok(lhs);
            };
            let rhs = self.unary_expr()?;
            lhs = self.bin(op, lhs, rhs)?;
        }
    }

    fn unary_expr(&mut self) -> Result<Tree, LangError> {
        if self.eat_punct("!") {
            let (inner, depth) = self.nested(Self::unary_expr)?;
            return self.node(Expr::Not(Box::new(inner)), depth + 1);
        }
        if self.eat_punct("-") {
            let (inner, depth) = self.nested(Self::unary_expr)?;
            return self.node(Expr::Neg(Box::new(inner)), depth + 1);
        }
        self.primary()
    }

    /// Parse one nesting level deeper with `inner`, or fail past
    /// [`MAX_NESTING`].
    fn nested(
        &mut self,
        inner: fn(&mut Self) -> Result<Tree, LangError>,
    ) -> Result<Tree, LangError> {
        if self.nesting == MAX_NESTING {
            return Err(too_deep(self.line()));
        }
        self.nesting += 1;
        let e = inner(self);
        self.nesting -= 1;
        e
    }

    /// `lhs op rhs`, or an error if the tree would be too deep.
    fn bin(&self, op: BinOp, (lhs, l): Tree, (rhs, r): Tree) -> Result<Tree, LangError> {
        self.node(Expr::Bin(op, Box::new(lhs), Box::new(rhs)), l.max(r) + 1)
    }

    /// `expr` with its tree `depth`, or an error past [`MAX_NESTING`].
    fn node(&self, expr: Expr, depth: u32) -> Result<Tree, LangError> {
        if depth > MAX_NESTING {
            return Err(too_deep(self.line()));
        }
        Ok((expr, depth))
    }

    fn primary(&mut self) -> Result<Tree, LangError> {
        match self.next() {
            Some(Spanned {
                tok: Tok::Int(v), ..
            }) => Ok((Expr::Int(v), 1)),
            Some(Spanned {
                tok: Tok::Keyword("true"),
                ..
            }) => Ok((Expr::Bool(true), 1)),
            Some(Spanned {
                tok: Tok::Keyword("false"),
                ..
            }) => Ok((Expr::Bool(false), 1)),
            Some(Spanned {
                tok: Tok::Ident(name),
                ..
            }) => Ok((Expr::Ident(name), 1)),
            Some(Spanned {
                tok: Tok::Punct("("),
                ..
            }) => {
                let e = self.nested(Self::or_expr)?;
                self.expect_punct(")")?;
                Ok(e)
            }
            other => Err(LangError::new(
                other.as_ref().map_or(self.last_line, |t| t.line),
                format!(
                    "expected an expression, found {}",
                    other.map_or("end of input".to_string(), |t| format!(
                        "`{}`",
                        render(&t.tok)
                    ))
                ),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_program() {
        let def = parse("program p var x : bool action a : x -> x := false").unwrap();
        assert_eq!(def.name, "p");
        assert_eq!(def.vars.len(), 1);
        assert_eq!(def.actions.len(), 1);
        assert_eq!(def.actions[0].kind, ActionKind::Closure);
    }

    #[test]
    fn parses_domains() {
        let def = parse("program p var a : bool; b : -2..5; c : {green, red}").unwrap();
        assert_eq!(def.vars[0].domain, DomainDef::Bool);
        assert_eq!(def.vars[1].domain, DomainDef::Range(-2, 5));
        assert_eq!(
            def.vars[2].domain,
            DomainDef::Enum(vec!["green".into(), "red".into()])
        );
    }

    #[test]
    fn parses_kinds_and_multi_assign() {
        let def = parse(
            "program p var x : 0..3; y : 0..3 \
             action a [convergence] : x == y -> x := y + 1, y := 0",
        )
        .unwrap();
        assert_eq!(def.actions[0].kind, ActionKind::Convergence);
        assert_eq!(def.actions[0].assigns.len(), 2);
    }

    #[test]
    fn precedence_is_sane() {
        let def =
            parse("program p var x : 0..9 action a : x + 1 * 2 == 3 && x < 2 || x > 5 -> x := 0")
                .unwrap();
        // ((x + (1*2)) == 3 && x < 2) || (x > 5)
        let Expr::Bin(BinOp::Or, lhs, _) = &def.actions[0].guard else {
            panic!("top level should be ||: {:?}", def.actions[0].guard);
        };
        let Expr::Bin(BinOp::And, eq, _) = lhs.as_ref() else {
            panic!("lhs should be &&");
        };
        let Expr::Bin(BinOp::Eq, add, _) = eq.as_ref() else {
            panic!("should be ==");
        };
        assert!(matches!(add.as_ref(), Expr::Bin(BinOp::Add, _, _)));
    }

    #[test]
    fn parenthesized_and_unary() {
        let def = parse("program p var x : -5..5 action a : !(x == -3) -> x := -(x)").unwrap();
        assert!(matches!(def.actions[0].guard, Expr::Not(_)));
        assert!(matches!(def.actions[0].assigns[0].1, Expr::Neg(_)));
    }

    #[test]
    fn error_reporting_has_lines() {
        let err = parse("program p\nvar x : bool\naction a : x ->").unwrap_err();
        assert_eq!(err.line, 3);
        let err = parse("program p var x : 0..").unwrap_err();
        assert!(err.message.contains("integer"));
    }

    #[test]
    fn parses_role_annotations() {
        let def = parse(
            "program p var x.0 : bool; x.1 : bool role byzantine : 1 \
             var y.2 : bool role observer : 0, 2 role byzantine : 0 \
             action a.0 : x.0 -> x.0 := false",
        )
        .unwrap();
        assert_eq!(def.roles.len(), 3);
        assert_eq!(def.roles[0].role, "byzantine");
        assert_eq!(def.roles[0].nodes, vec![1]);
        assert_eq!(def.nodes_with_role("byzantine"), vec![0, 1]);
        assert_eq!(def.nodes_with_role("observer"), vec![0, 2]);
        assert!(def.nodes_with_role("leader").is_empty());
    }

    #[test]
    fn rejects_negative_role_nodes() {
        let err = parse("program p var x.0 : bool role byzantine : -1").unwrap_err();
        assert!(err.message.contains("negative node index"));
    }

    #[test]
    fn rejects_unknown_kind() {
        let err = parse("program p var x : bool action a [magic] : x -> x := false").unwrap_err();
        assert!(err.message.contains("magic"));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let depth = MAX_NESTING as usize;
        let ok = format!(
            "program p var x : bool action a : {}x{} -> x := x",
            "(".repeat(depth),
            ")".repeat(depth)
        );
        assert!(parse(&ok).is_ok());
        for deep in [
            format!("program p var x : bool action a : {}x", "(".repeat(100_000)),
            format!(
                "program p var x : bool action a : {}x -> x := x",
                "!-".repeat(50_000)
            ),
        ] {
            let err = parse(&deep).unwrap_err();
            assert!(err.message.contains("nested more than"), "{}", err.message);
        }
    }

    #[test]
    fn long_operator_chains_are_an_error_not_a_stack_overflow() {
        let guard = |terms: usize, op: &str| {
            format!(
                "program p var x : 0..1 action a : {} == x -> x := x",
                vec!["x"; terms].join(op)
            )
        };
        // `n` terms and the comparison make a tree `n + 1` deep.
        let deepest = MAX_NESTING as usize - 1;
        let program = crate::compile(&guard(deepest, " + ")).unwrap();
        assert_eq!(program.action_count(), 1);
        let err = parse(&guard(deepest + 1, " + ")).unwrap_err();
        assert!(err.message.contains("nested more than"), "{}", err.message);
        for op in [" + ", " - ", " * ", " / ", " % ", " && ", " || "] {
            let err = crate::compile(&guard(100_000, op)).unwrap_err();
            assert!(
                err.message.contains("nested more than"),
                "{op}: {}",
                err.message
            );
        }
    }

    #[test]
    fn rejects_trailing_tokens() {
        let err = parse("program p var x : bool ;;;").unwrap_err();
        assert!(err.message.contains("trailing") || err.message.contains("expected"));
    }
}
