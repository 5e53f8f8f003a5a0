//! End-to-end: a journaled checker run over the token ring produces a
//! constraint-repair timeline whose order matches an independent replay
//! of the witness path from [`shortest_path_to`].
//!
//! This is the §4 story closed end to end: the checker finds a witness
//! computation from a corrupted state into the all-agree states, the
//! replay journals each constraint repair, and the journal — parsed back
//! through the same schema the `trace` subcommand uses — tells exactly
//! the same story as evaluating the constraints over the path by hand.

use nonmask_checker::convergence::shortest_path_to;
use nonmask_checker::{replay_constraints, CheckOptions, StateSpace};
use nonmask_conform::{run_sim_journaled, ContainmentMap, FaultSchedule, SimRunConfig};
use nonmask_graph::Topology;
use nonmask_obs::{containment_radius, parse_journal, render_timeline, repair_order, Journal};
use nonmask_program::{Predicate, State};
use nonmask_protocols::token_ring::TokenRing;
use nonmask_protocols::{ContainmentTheory, MinPlusOne};

#[test]
fn journaled_repair_timeline_matches_independent_replay() {
    let n = 4usize;
    let k = 4i64;
    let ring = TokenRing::new(n, k);
    let program = ring.program();

    // §4 decomposition of the ring invariant: c.j ≡ `x.j = x.(j-1)`.
    let constraints: Vec<Predicate> = (1..n)
        .map(|j| {
            let xj = ring.counter_var(j);
            let xp = ring.counter_var(j - 1);
            Predicate::new(format!("c.{j}"), [xj, xp], move |s| s.get(xj) == s.get(xp))
        })
        .collect();

    let (journal, buffer) = Journal::memory();
    let opts = CheckOptions::default();
    let space = StateSpace::enumerate_journaled(program, opts, &journal).expect("enumerate");

    // A maximally disagreeing start: every boundary violates its constraint.
    let corrupt = program
        .state_from((0..n).map(|j| ((n - j) as i64) % k).collect::<Vec<_>>())
        .expect("corrupt state");
    let all_vars: Vec<_> = program.var_ids().collect();
    let corrupt_eq = corrupt.clone();
    let from = Predicate::new("corrupt-start", all_vars.clone(), move |s| *s == corrupt_eq);
    let agree = Predicate::new("all-agree", all_vars, {
        let constraints = constraints.clone();
        move |s| constraints.iter().all(|c| c.holds(s))
    });
    let targets: Vec<State> = space
        .satisfying(&agree)
        .expect("target scan")
        .into_iter()
        .map(|id| space.state(id))
        .collect();
    let path = shortest_path_to(&space, &from, &targets)
        .expect("path search")
        .expect("a corrupt token ring converges, so a witness path exists");
    let transitions = replay_constraints(program, &path, &constraints, &journal);
    journal.flush();

    // Independent replay: evaluate the constraints over the path states
    // directly, recording each false→true flip, without the journal.
    let mut held: Vec<bool> = constraints
        .iter()
        .map(|c| c.holds(&path[0].state))
        .collect();
    let mut expected_repairs = Vec::new();
    for step in &path[1..] {
        for (ci, c) in constraints.iter().enumerate() {
            let holds = c.holds(&step.state);
            if holds && !held[ci] {
                expected_repairs.push(c.name().to_string());
            }
            held[ci] = holds;
        }
    }
    assert!(
        !expected_repairs.is_empty(),
        "the corrupt start must need repairs"
    );
    assert!(held.iter().all(|h| *h), "the path must end all-agree");

    // The journal tells the same story, in the same order.
    let records = parse_journal(&buffer.contents()).expect("journal parses schema-clean");
    assert_eq!(repair_order(&records), expected_repairs);

    // The rendered timeline names every repaired constraint.
    let rendered = render_timeline(&records);
    for name in &expected_repairs {
        assert!(
            rendered.contains(&format!("constraint `{name}` repaired")),
            "missing repair of {name} in:\n{rendered}"
        );
    }

    // And replay_constraints' returned transitions agree with the journal.
    let repairs_in_transitions = transitions
        .iter()
        .filter(|t| t.repaired_by.is_some())
        .count();
    assert_eq!(repairs_in_transitions, expected_repairs.len());
}

/// The Byzantine analogue of the repair story: a journaled run against
/// permanent liars ends in a containment suffix whose rendered timeline
/// and recovered radius are pinned, so any drift in how the layers
/// report containment shows up as a diff here rather than only in the
/// cross-layer agreement battery.
#[test]
fn containment_timeline_pins_the_measured_radius() {
    // line(6), root 0, liar at 5: safe set [T,T,T,F,F] ⇒ predicted
    // radius 2, with nodes 3 and 4 unstable.
    let proto = MinPlusOne::with_byzantine(&Topology::line(6), 0, &[5]);
    let map = ContainmentMap::new(proto.model()).unwrap();

    let (journal, buffer) = Journal::memory();
    let cfg = SimRunConfig {
        byzantine: proto.model().byzantine().to_vec(),
        byzantine_seed: 0xB12A,
        ..SimRunConfig::default()
    };
    let outcome = run_sim_journaled(
        proto.program(),
        &proto.model().safe_goal(),
        3,
        &FaultSchedule::empty(),
        &cfg,
        &journal,
    )
    .expect("sim run");
    assert!(outcome.stabilized, "the safe region must stabilize");
    let radius = map.emit(&outcome.final_state, "sim", 3, &journal);
    journal.flush();

    let records = parse_journal(&buffer.contents()).expect("journal parses schema-clean");
    assert_eq!(radius, 2, "line(6) with liar 5 has containment radius 2");
    assert_eq!(containment_radius(&records), Some(2));

    // The timeline pins the verdict lines verbatim, in node order.
    let rendered = render_timeline(&records);
    let containment_lines: Vec<&str> = rendered
        .lines()
        .filter(|l| l.contains("containment"))
        .collect();
    assert_eq!(
        containment_lines.len(),
        5,
        "one timeline line per correct node:\n{rendered}"
    );
    for (line, (node, verdict)) in containment_lines.iter().zip([
        (0, "stabilized"),
        (1, "stabilized"),
        (2, "stabilized"),
        (3, "unstable"),
        (4, "unstable"),
    ]) {
        assert!(
            line.contains(&format!("node {node} ")) && line.contains(verdict),
            "expected node {node} verdict {verdict} in: {line}"
        );
    }
}
