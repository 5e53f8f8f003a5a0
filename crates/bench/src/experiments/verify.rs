//! Mechanical re-verification of the paper's claims.

use nonmask::Design;
use nonmask_checker::{check_convergence, CheckOptions, StateSpace};
use nonmask_program::Predicate;
use nonmask_protocols::atomic::AtomicActions;
use nonmask_protocols::diffusing::DiffusingComputation;
use nonmask_protocols::token_ring::{windowed_design, TokenRing};
use nonmask_protocols::{xyz, Tree};

use crate::table::Table;

fn yn(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "no"
    }
}

fn verdict_row(name: &str, design: &Design, t: &mut Table) {
    let graph = design.constraint_graph().expect("derivable graph");
    let report = design.verify().expect("bounded state space");
    t.row([
        name.to_string(),
        graph.shape().to_string(),
        report.theorem.name().to_string(),
        yn(report.closure.invariant.is_none() && report.closure.fault_span.is_none()).to_string(),
        yn(report.convergence.converges()).to_string(),
        yn(report.convergence_unfair.converges()).to_string(),
        report
            .worst_case_moves
            .map_or("∞".to_string(), |m| m.to_string()),
        report.state_counts.total.to_string(),
    ]);
}

const VERDICT_HEADER: [&str; 8] = [
    "design",
    "graph shape",
    "theorem",
    "closure",
    "conv(fair)",
    "conv(unfair)",
    "worst moves",
    "|states|",
];

/// F1 — reproduce the paper's §4 constraint-graph figure.
pub fn f1() -> String {
    let (design, _) = xyz::out_tree().expect("xyz design");
    let graph = design.constraint_graph().expect("derivable graph");
    let mut t = Table::new(
        "F1: the §4 constraint graph of {x!=y, x<=z}",
        ["edge", "from", "to", "constraint", "self-loop"],
    );
    for (i, e) in graph.edges().iter().enumerate() {
        t.row([
            format!("e{i}"),
            graph.node_ref(e.from()).name().to_string(),
            graph.node_ref(e.to()).name().to_string(),
            design.constraints()[e.constraint().0].name().to_string(),
            yn(e.is_self_loop()).to_string(),
        ]);
    }
    let mut out = t.render();
    out.push_str(&format!(
        "shape: {}\n\nDOT:\n{}",
        graph.shape(),
        graph.to_dot(design.program())
    ));
    out
}

/// E1 — verify the §5.1 diffusing computation end-to-end on small trees.
pub fn e1() -> String {
    let mut t = Table::new(
        "E1: stabilizing diffusing computation (§5.1, Theorem 1)",
        VERDICT_HEADER,
    );
    for (name, tree) in [
        ("chain-3", Tree::chain(3)),
        ("chain-5", Tree::chain(5)),
        ("star-5", Tree::star(5)),
        ("binary-5", Tree::binary(5)),
        ("binary-7(graph only)", Tree::binary(7)),
    ] {
        let dc = DiffusingComputation::new(&tree);
        let design = dc.design().expect("diffusing design");
        if name.contains("graph only") {
            // 4^7 = 16384 states is fine, but keep one row demonstrating
            // the structural result alone for a bigger tree.
            let graph = design.constraint_graph().expect("derivable graph");
            t.row([
                name.to_string(),
                graph.shape().to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                design
                    .program()
                    .state_space_size()
                    .expect("bounded")
                    .to_string(),
            ]);
        } else {
            verdict_row(name, &design, &mut t);
        }
    }
    t.render()
}

/// E2 — verify the §7.1 token ring: the layered (windowed) design via
/// Theorem 3, and Dijkstra's mod-K protocol against the one-privilege
/// invariant.
pub fn e2() -> String {
    let mut t = Table::new(
        "E2a: windowed token ring (paper's layered design, Theorem 3)",
        VERDICT_HEADER,
    );
    for (n, m) in [(3, 2), (3, 3), (4, 3)] {
        let (design, _) = windowed_design(n, m).expect("windowed design");
        verdict_row(&format!("windowed n={n} m={m}"), &design, &mut t);
    }
    let mut out = t.render();

    let mut t2 = Table::new(
        "E2b: Dijkstra mod-K ring, invariant = exactly one privilege",
        [
            "ring",
            "S closed",
            "conv(fair)",
            "conv(unfair)",
            "worst moves",
            "|S|",
            "|states|",
        ],
    );
    for (n, k) in [(3, 3), (4, 4), (5, 5)] {
        let ring = TokenRing::new(n, k);
        let space = StateSpace::enumerate(ring.program()).expect("bounded");
        let s = ring.invariant();
        let t_pred = Predicate::always_true();
        let closed = nonmask_checker::is_closed(&space, &s)
            .expect("closure")
            .is_none();
        let conv = check_convergence(&space, ring.program(), &t_pred, &s, CheckOptions::default())
            .expect("convergence");
        t2.row([
            format!("n={n} k={k}"),
            yn(closed).to_string(),
            yn(conv.weakly_fair.converges()).to_string(),
            yn(conv.unfair.converges()).to_string(),
            conv.worst_case_moves.map_or("∞".into(), |m| m.to_string()),
            space.count_satisfying(&s).expect("count").to_string(),
            space.len().to_string(),
        ]);
    }
    out.push('\n');
    out.push_str(&t2.render());
    out
}

/// E3 — the interference ablation: the paper's good designs converge, the
/// bad ones livelock.
pub fn e3() -> String {
    let mut t = Table::new(
        "E3a: §4/§6 xyz designs — good vs bad convergence actions",
        VERDICT_HEADER,
    );
    let (good, _) = xyz::out_tree().expect("xyz");
    let (ordered, _) = xyz::ordered().expect("xyz");
    let (bad, _) = xyz::interfering().expect("xyz");
    verdict_row("out-tree (fix y, z)", &good, &mut t);
    verdict_row("ordered (both fix x, one decreases)", &ordered, &mut t);
    verdict_row("interfering (both fix x carelessly)", &bad, &mut t);
    let mut out = t.render();

    let mut t2 = Table::new(
        "E3b: diffusing computation with parent-writing repairs (edges reversed)",
        ["tree", "conv(fair)", "conv(unfair)"],
    );
    for (name, tree) in [
        ("chain-3", Tree::chain(3)),
        ("star-3", Tree::star(3)),
        ("binary-5", Tree::binary(5)),
    ] {
        let (program, invariant) = DiffusingComputation::misdesigned(&tree);
        let space = StateSpace::enumerate(&program).expect("bounded");
        let t_pred = Predicate::always_true();
        let conv = check_convergence(
            &space,
            &program,
            &t_pred,
            &invariant,
            CheckOptions::default(),
        )
        .expect("convergence");
        t2.row([
            name.to_string(),
            yn(conv.weakly_fair.converges()).to_string(),
            yn(conv.unfair.converges()).to_string(),
        ]);
    }
    out.push('\n');
    out.push_str(&t2.render());
    out
}

/// E8 — the §8 fairness remark: the paper's derived programs converge
/// even without fairness; the atomic-action protocol shows that this is a
/// property of those designs, not of the method.
pub fn e8() -> String {
    let mut t = Table::new(
        "E8: convergence vs daemon fairness (§8 remark)",
        [
            "protocol",
            "conv(weakly fair)",
            "conv(unfair)",
            "needs fairness",
        ],
    );
    let mut row = |name: &str, program: &nonmask_program::Program, s: &Predicate| {
        let space = StateSpace::enumerate(program).expect("bounded");
        let t_pred = Predicate::always_true();
        let conv = check_convergence(&space, program, &t_pred, s, CheckOptions::default())
            .expect("convergence");
        let (fair, unfair) = (conv.weakly_fair, conv.unfair);
        t.row([
            name.to_string(),
            yn(fair.converges()).to_string(),
            yn(unfair.converges()).to_string(),
            yn(fair.converges() && !unfair.converges()).to_string(),
        ]);
    };

    let dc = DiffusingComputation::new(&Tree::binary(4));
    row("diffusing binary-4", dc.program(), &dc.invariant());
    let ring = TokenRing::new(4, 4);
    row("token ring n=4 k=4", ring.program(), &ring.invariant());
    let (wdesign, _) = windowed_design(3, 3).expect("windowed");
    row(
        "windowed ring n=3 m=3",
        wdesign.program(),
        &wdesign.invariant(),
    );
    let aa = AtomicActions::new(4);
    row("atomic actions n=4", aa.program(), &aa.invariant());
    let (ordered, _) = xyz::ordered().expect("xyz");
    row("xyz ordered", ordered.program(), &ordered.invariant());
    t.render()
}

/// E10 — the method beyond the paper's two worked designs: every protocol
/// in the repository through the same verification pipeline.
pub fn e10() -> String {
    let mut t = Table::new(
        "E10: the design pipeline across all protocols",
        VERDICT_HEADER,
    );
    let (g, _) = xyz::out_tree().expect("xyz");
    verdict_row("xyz out-tree", &g, &mut t);
    let (o, _) = xyz::ordered().expect("xyz");
    verdict_row("xyz ordered", &o, &mut t);
    let dc = DiffusingComputation::new(&Tree::binary(5));
    verdict_row("diffusing binary-5", &dc.design().expect("design"), &mut t);
    let (w, _) = windowed_design(4, 3).expect("windowed");
    verdict_row("windowed ring n=4 m=3", &w, &mut t);
    let aa = AtomicActions::new(4);
    verdict_row("atomic actions n=4", &aa.design().expect("design"), &mut t);
    t.render()
}

/// Theorems actually applied per design (used by tests asserting the
/// method-level outcomes match DESIGN.md's table).
pub fn applied_theorems() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    let mut push = |name: &str, design: &Design| {
        let report = design.verify().expect("verifiable");
        out.push((name.to_string(), report.theorem.name()));
    };
    let (g, _) = xyz::out_tree().expect("xyz");
    push("xyz-out-tree", &g);
    let (o, _) = xyz::ordered().expect("xyz");
    push("xyz-ordered", &o);
    let (b, _) = xyz::interfering().expect("xyz");
    push("xyz-interfering", &b);
    let dc = DiffusingComputation::new(&Tree::binary(5));
    push("diffusing", &dc.design().expect("design"));
    let (w, _) = windowed_design(3, 3).expect("windowed");
    push("token-ring-windowed", &w);
    let aa = AtomicActions::new(4);
    push("atomic", &aa.design().expect("design"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f1_reproduces_the_figure() {
        let out = f1();
        assert!(out.contains("x!=y"));
        assert!(out.contains("x<=z"));
        assert!(out.contains("out-tree"));
        assert!(out.contains("digraph"));
    }

    #[test]
    fn theorem_assignment_matches_design_doc() {
        let got = applied_theorems();
        let expect = [
            ("xyz-out-tree", "Theorem 1"),
            ("xyz-ordered", "Theorem 2"),
            ("xyz-interfering", "none"),
            ("diffusing", "Theorem 1"),
            ("token-ring-windowed", "Theorem 3"),
            ("atomic", "Theorem 3"),
        ];
        for (name, theorem) in expect {
            let found = got
                .iter()
                .find(|(n, _)| n == name)
                .expect("protocol present");
            assert_eq!(found.1, theorem, "{name}");
        }
    }

    #[test]
    fn e3_shows_the_contrast() {
        let out = e3();
        // The interfering design's row ends with the no/no convergence
        // verdict and an unbounded worst case.
        assert!(out.contains("interfering"));
        assert!(out.contains('∞'));
    }

    #[test]
    fn e8_isolates_the_fairness_need() {
        let out = e8();
        let lines: Vec<&str> = out.lines().collect();
        let atomic = lines
            .iter()
            .find(|l| l.starts_with("atomic actions"))
            .expect("atomic row");
        assert!(atomic.trim_end().ends_with("yes"), "{atomic}");
        let ring = lines
            .iter()
            .find(|l| l.starts_with("token ring"))
            .expect("ring row");
        assert!(ring.trim_end().ends_with("no"), "{ring}");
    }
}
