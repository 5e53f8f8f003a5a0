//! The paper's final programs, written in the surface language (almost
//! verbatim from the paper's notation), compiled, and verified with the
//! model checker.

use nonmask_checker::{check_convergence, is_closed, CheckOptions, Fairness, StateSpace};
use nonmask_lang::{compile, parse, pretty};
use nonmask_program::Predicate;

/// §7.1's final token-ring program (three nodes, counters mod 3):
///
/// ```text
/// x.0 = x.N  → x.0 := x.0 + 1
/// x.j ≠ x.(j-1) → x.j := x.(j-1)
/// ```
const TOKEN_RING: &str = r#"
    program token_ring
    var x.0 : 0..2; x.1 : 0..2; x.2 : 0..2

    action pass.0 [combined] : x.0 == x.2 -> x.0 := (x.0 + 1) % 3
    action pass.1 [combined] : x.1 != x.0 -> x.1 := x.0
    action pass.2 [combined] : x.2 != x.1 -> x.2 := x.1
"#;

/// §5.1's final diffusing computation on the chain 0 → 1 → 2:
///
/// ```text
/// c.j = green ∧ P.j = j                         → c.j, sn.j := red, ¬sn.j
/// sn.j ≠ sn.(P.j) ∨ (c.j = red ∧ c.(P.j) = green) → c.j, sn.j := c.(P.j), sn.(P.j)
/// c.j = red ∧ (∀ children green, sessions equal)  → c.j := green
/// ```
const DIFFUSING_CHAIN: &str = r#"
    program diffusing
    var c.0 : {green, red}; sn.0 : bool;
        c.1 : {green, red}; sn.1 : bool;
        c.2 : {green, red}; sn.2 : bool

    # Root initiates.
    action initiate.0 : c.0 == green -> c.0 := red, sn.0 := !sn.0

    # Merged propagate/repair (the paper's combined action).
    action prop.1 [combined] : sn.1 != sn.0 || (c.1 == red && c.0 == green)
        -> c.1 := c.0, sn.1 := sn.0
    action prop.2 [combined] : sn.2 != sn.1 || (c.2 == red && c.1 == green)
        -> c.2 := c.1, sn.2 := sn.1

    # Reflect once the (single) child is green with an equal session.
    action reflect.0 : c.0 == red && c.1 == green && sn.0 == sn.1 -> c.0 := green
    action reflect.1 : c.1 == red && c.2 == green && sn.1 == sn.2 -> c.1 := green
    action reflect.2 : c.2 == red -> c.2 := green
"#;

#[test]
fn parsed_token_ring_is_stabilizing() {
    let program = compile(TOKEN_RING).unwrap();
    assert_eq!(program.action_count(), 3);
    let space = StateSpace::enumerate(&program).unwrap();

    // Invariant: exactly one action enabled (= one privilege).
    let p2 = program.clone();
    let s = Predicate::new("one-privilege", program.var_ids(), move |st| {
        p2.enabled_actions(st).len() == 1
    });
    assert!(is_closed(&space, &s).unwrap().is_none());
    let t = Predicate::always_true();
    let report = check_convergence(&space, &program, &t, &s, CheckOptions::default()).unwrap();
    for fairness in [Fairness::WeaklyFair, Fairness::Unfair] {
        let r = report.verdict(fairness);
        assert!(r.converges(), "{fairness}: {r:?}");
    }
}

#[test]
fn parsed_diffusing_chain_is_stabilizing() {
    let program = compile(DIFFUSING_CHAIN).unwrap();
    let space = StateSpace::enumerate(&program).unwrap();

    // S = R.1 ∧ R.2 with R.j as in the paper.
    let c = |name: &str| program.var_by_name(name).unwrap();
    let (c0, sn0, c1, sn1, c2, sn2) = (
        c("c.0"),
        c("sn.0"),
        c("c.1"),
        c("sn.1"),
        c("c.2"),
        c("sn.2"),
    );
    let r = move |cj: nonmask_program::VarId,
                  snj: nonmask_program::VarId,
                  cp: nonmask_program::VarId,
                  snp: nonmask_program::VarId| {
        Predicate::new("R", [cj, snj, cp, snp], move |s| {
            (s.get(cj) == s.get(cp) && s.get(snj) == s.get(snp))
                || (s.get(cj) == 0 && s.get(cp) == 1) // green = 0, red = 1
        })
    };
    let s = r(c1, sn1, c0, sn0).and(&r(c2, sn2, c1, sn1)).named("S");

    assert!(is_closed(&space, &s).unwrap().is_none(), "S is closed");
    let t = Predicate::always_true();
    let report = check_convergence(&space, &program, &t, &s, CheckOptions::default()).unwrap();
    for fairness in [Fairness::WeaklyFair, Fairness::Unfair] {
        let verdict = report.verdict(fairness);
        assert!(verdict.converges(), "{fairness}: {verdict:?}");
    }
}

#[test]
fn parsed_programs_match_hand_built_semantics() {
    // The parsed token ring and the hand-built protocol agree on every
    // transition (same successor sets per state).
    use nonmask_protocols::token_ring::TokenRing as HandBuilt;
    let parsed = compile(TOKEN_RING).unwrap();
    let hand = HandBuilt::new(3, 3);
    let space = StateSpace::enumerate(&parsed).unwrap();
    for id in space.ids() {
        let st = space.state(id);
        let parsed_succs: std::collections::BTreeSet<_> = parsed
            .enabled_actions(&st)
            .into_iter()
            .map(|a| parsed.action(a).successor(&st).into_slots())
            .collect();
        let hand_succs: std::collections::BTreeSet<_> = hand
            .program()
            .enabled_actions(&st)
            .into_iter()
            .map(|a| hand.program().action(a).successor(&st).into_slots())
            .collect();
        assert_eq!(parsed_succs, hand_succs, "at state {:?}", st.slots());
    }
}

#[test]
fn pretty_printed_paper_program_still_verifies() {
    let def = parse(TOKEN_RING).unwrap();
    let reprinted = pretty(&def);
    let program = compile(&reprinted).unwrap();
    let space = StateSpace::enumerate(&program).unwrap();
    let p2 = program.clone();
    let s = Predicate::new("one-privilege", program.var_ids(), move |st| {
        p2.enabled_actions(st).len() == 1
    });
    let t = Predicate::always_true();
    let report = check_convergence(&space, &program, &t, &s, CheckOptions::default()).unwrap();
    assert!(report.weakly_fair.converges());
}
