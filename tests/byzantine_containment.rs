//! The headline Byzantine battery: containment radii agree across the
//! whole stack.
//!
//! On a fixed 64-node random graph with two permanently malicious
//! nodes, the simulator and the socket runtime run the same min+1 BFS
//! instance on the same seed; each layer's journal receives one
//! locked `containment` event per correct node, and the radius
//! recovered from those journals must be identical across layers and
//! equal to the theory's prediction. On a small instance of the same
//! topology family, the checker's restricted-region convergence sweep
//! independently certifies the same radius the execution layers
//! observe. A containment violation anywhere — a safe node the liars
//! managed to perturb, a layer that failed to stabilize its safe
//! region, a checker/observation mismatch — breaks the agreement.

use nonmask_checker::{certify_containment, CheckOptions, Fairness, StateSpace};
use nonmask_conform::{
    radii_agree, run_net, run_sim, ContainmentMap, FaultSchedule, NetRunConfig, SimRunConfig,
};
use nonmask_graph::Topology;
use nonmask_obs::{containment_radius, parse_journal, render_timeline, Journal, Record};
use nonmask_program::{Program, State};
use nonmask_protocols::{ByzantineModel, ContainmentTheory, MinPlusOne, SpanningTree};

const SEED: u64 = 1;
const LIE_SEED: u64 = 0xB12A;

/// The acceptance instance: 64 nodes, degree 3, liars mid-graph and at
/// the highest id.
fn acceptance_instance() -> (MinPlusOne, ContainmentMap) {
    let topo = Topology::random_connected(64, 3, 1);
    let proto = MinPlusOne::with_byzantine(&topo, 0, &[32, 63]);
    let map = ContainmentMap::new(proto.model()).unwrap();
    (proto, map)
}

fn sim_records(proto: &MinPlusOne, map: &ContainmentMap, seed: u64) -> Vec<Record> {
    let (journal, buffer) = Journal::memory();
    let cfg = SimRunConfig {
        byzantine: proto.model().byzantine().to_vec(),
        byzantine_seed: LIE_SEED,
        ..SimRunConfig::default()
    };
    let outcome = run_sim(
        proto.program(),
        &proto.model().safe_goal(),
        seed,
        &FaultSchedule::empty(),
        &cfg,
        &journal,
    )
    .expect("sim infrastructure");
    assert!(outcome.stabilized, "sim safe region must stabilize");
    map.emit(&outcome.final_state, "sim", seed, &journal);
    journal.flush();
    parse_journal(&buffer.contents()).expect("locked schema")
}

fn net_records(proto: &MinPlusOne, map: &ContainmentMap, seed: u64) -> Vec<Record> {
    let (journal, buffer) = Journal::memory();
    let cfg = NetRunConfig {
        byzantine: proto.model().byzantine().to_vec(),
        byzantine_seed: LIE_SEED,
        ..NetRunConfig::default()
    };
    let outcome = run_net(
        proto.program(),
        &proto.model().safe_goal(),
        seed,
        &cfg,
        &journal,
    )
    .expect("net infrastructure");
    assert!(outcome.stabilized, "net safe region must stabilize");
    map.emit(&outcome.final_state, "net", seed, &journal);
    journal.flush();
    parse_journal(&buffer.contents()).expect("locked schema")
}

#[test]
fn sim_and_net_journals_measure_the_same_radius_on_the_64_node_graph() {
    let (proto, map) = acceptance_instance();
    let sim = sim_records(&proto, &map, SEED);
    let net = net_records(&proto, &map, SEED);

    let sim_radius = containment_radius(&sim).expect("sim journal has containment events");
    let net_radius = containment_radius(&net).expect("net journal has containment events");
    assert_eq!(sim_radius, net_radius, "layers disagree on the radius");
    assert_eq!(
        sim_radius,
        proto.model().predicted_radius(),
        "measured radius must match the theory"
    );
    assert!(radii_agree(proto.model(), &[sim_radius, net_radius], None));

    // The per-node verdicts agree node for node, not just in the max:
    // the containment suffix of both journals tells the same story.
    let verdicts = |records: &[Record]| -> Vec<(u64, u64, String)> {
        records
            .iter()
            .filter_map(|r| match &r.event {
                nonmask_obs::Event::Containment {
                    node,
                    distance,
                    verdict,
                    ..
                } => Some((*node, *distance, verdict.clone())),
                _ => None,
            })
            .collect()
    };
    assert_eq!(verdicts(&sim), verdicts(&net));
    assert_eq!(verdicts(&sim).len(), 62, "one verdict per correct node");
}

#[test]
fn the_checker_certifies_what_the_layers_observe_on_a_small_instance() {
    // Same family, enumerable size: 6 nodes, degree 2, same seed
    // recipe for topology and liar placement as the CLI's small
    // instance (liars mid-graph and at the highest id).
    let topo = Topology::random_connected(6, 2, 1);
    let proto = MinPlusOne::with_byzantine(&topo, 0, &[3, 5]);
    let map = ContainmentMap::new(proto.model()).unwrap();

    let space = StateSpace::enumerate(proto.program()).expect("enumerable");
    let verdict = certify_containment(
        &space,
        proto.program(),
        |r| proto.model().containment_goal(r),
        topo.diameter(),
        Fairness::WeaklyFair,
        CheckOptions::default(),
    )
    .expect("containment sweep");
    let certified = verdict.radius.expect("some radius converges");

    let records = sim_records(&proto, &map, SEED);
    let observed = containment_radius(&records).expect("containment events");
    assert_eq!(
        certified, observed,
        "checker and observation disagree on the radius"
    );
    assert_eq!(certified, proto.model().predicted_radius());
    assert!(radii_agree(proto.model(), &[observed], Some(certified)));
}

#[test]
fn sim_radius_is_stable_across_seeds() {
    // The radius is a topology property, not a schedule property:
    // different run seeds (initial states) measure the same radius.
    let (proto, map) = acceptance_instance();
    let radii: Vec<u64> = [1u64, 7, 23]
        .iter()
        .map(|&seed| {
            let records = sim_records(&proto, &map, seed);
            containment_radius(&records).expect("containment events")
        })
        .collect();
    assert!(radii.iter().all(|&r| r == radii[0]), "radii: {radii:?}");
}

#[test]
fn a_lang_role_annotation_drives_the_byzantine_injector() {
    // The surface language carries the liar set as a per-node role
    // annotation; the driver reads it off the AST and hands it to the
    // execution layer — no Rust-side liar list anywhere.
    let source = r#"
        program line_bfs
        var d.0 : 0..4; d.1 : 0..4; d.2 : 0..4; d.3 : 0..4
        role byzantine : 3
        action fix.0 [combined] : d.0 != 0 -> d.0 := 0
        action fix.1 [combined] : d.1 != d.0 + 1 -> d.1 := d.0 + 1
        action fix.2 [combined] : d.2 != d.1 + 1 -> d.2 := d.1 + 1
        action fix.3 [combined] : d.3 != d.2 + 1 -> d.3 := d.2 + 1
    "#;
    let def = nonmask_lang::parse(source).expect("parses");
    let byzantine = def.nodes_with_role("byzantine");
    assert_eq!(byzantine, vec![3]);
    let program = nonmask_lang::compile_def_with_processes(&def).expect("compiles");

    // The goal reads only correct nodes: the liar never heals, so any
    // predicate over its variables would chase the lie stream forever.
    let d = |j: usize| program.var_by_name(&format!("d.{j}")).expect("declared");
    let vars = [d(0), d(1), d(2)];
    let goal = nonmask_program::Predicate::new("correct-distances", vars, move |s| {
        (0..3).all(|j| s.get(vars[j]) == j as i64)
    });

    let (journal, _buffer) = Journal::memory();
    let cfg = SimRunConfig {
        byzantine,
        byzantine_seed: LIE_SEED,
        ..SimRunConfig::default()
    };
    let outcome = run_sim(
        &program,
        &goal,
        SEED,
        &FaultSchedule::empty(),
        &cfg,
        &journal,
    )
    .expect("sim run");
    assert!(
        outcome.stabilized,
        "correct nodes stabilize despite the annotated liar"
    );
    for j in 0..3 {
        assert_eq!(outcome.final_state.get(d(j)), j as i64);
    }
}

#[test]
fn the_timeline_renders_the_containment_story() {
    let topo = Topology::random_connected(6, 2, 1);
    let proto = MinPlusOne::with_byzantine(&topo, 0, &[3, 5]);
    let map = ContainmentMap::new(proto.model()).unwrap();
    let records = sim_records(&proto, &map, SEED);
    let rendered = render_timeline(&records);
    assert!(
        rendered.contains("containment [sim] bfs-6"),
        "timeline must render containment verdicts:\n{rendered}"
    );
    // Every correct node appears with its verdict mark.
    for line in rendered.lines().filter(|l| l.contains("containment")) {
        assert!(
            line.contains("stabilized") || line.contains("unstable"),
            "unrecognized containment line: {line}"
        );
    }
}

/// A containment theory wrong about exactly one node: the model's safe
/// set with node `flipped`'s verdict inverted. Built here as a value;
/// nothing in the library can produce it.
struct Planted<'a> {
    model: &'a ByzantineModel,
    flipped: usize,
}

impl ContainmentTheory for Planted<'_> {
    fn model(&self) -> &ByzantineModel {
        self.model
    }

    fn is_safe(&self, v: usize) -> bool {
        self.model.is_safe(v) != (v == self.flipped)
    }
}

/// The checker's certified radius of an enumerable instance.
fn certified_radius(program: &Program, model: &ByzantineModel) -> u64 {
    let space = StateSpace::enumerate(program).expect("enumerable");
    certify_containment(
        &space,
        program,
        |r| model.containment_goal(r),
        model.topology().diameter(),
        Fairness::WeaklyFair,
        CheckOptions::default(),
    )
    .expect("containment sweep")
    .radius
    .expect("some radius converges")
}

/// The final state of a sim run against the true safe-region goal.
fn safe_region_final_state(program: &Program, model: &ByzantineModel) -> State {
    let cfg = SimRunConfig {
        byzantine: model.byzantine().to_vec(),
        byzantine_seed: LIE_SEED,
        ..SimRunConfig::default()
    };
    let outcome = run_sim(
        program,
        &model.safe_goal(),
        SEED,
        &FaultSchedule::empty(),
        &cfg,
        &Journal::disabled(),
    )
    .expect("sim infrastructure");
    assert!(outcome.stabilized, "the safe region stabilizes");
    outcome.final_state
}

/// Whether the run judged under `theory` passes the agreement rule.
fn agrees(theory: &impl ContainmentTheory, state: &State, certified: u64) -> bool {
    let map = ContainmentMap::new(theory).unwrap();
    let measured = map.emit(state, "sim", SEED, &Journal::disabled());
    radii_agree(theory, &[measured], Some(certified))
}

#[test]
fn a_theory_one_node_off_fails_the_agreement_rule() {
    // line(6), liar 5: safe set {0, 1, 2}, predicted = certified = 2.
    let proto = MinPlusOne::with_byzantine(&Topology::line(6), 0, &[5]);
    let model = proto.model();
    let certified = certified_radius(proto.program(), model);
    let state = safe_region_final_state(proto.program(), model);
    assert!(agrees(model, &state, certified), "the true theory agrees");
    // Node 3 called safe (one too optimistic) and node 2 called
    // unsafe (one too pessimistic): the exact rule rejects both.
    for flipped in [3, 2] {
        let planted = Planted { model, flipped };
        assert!(
            !agrees(&planted, &state, certified),
            "node {flipped} flipped: predicted {}, certified {certified}",
            planted.predicted_radius()
        );
    }
}

#[test]
fn the_spanning_tree_rule_misses_a_pessimistic_theory() {
    // line(4), liar 3: strict safety keeps {0, 1}; predicted =
    // certified = 1.
    let proto = SpanningTree::with_byzantine(&Topology::line(4), 0, &[3]);
    let model = proto.model();
    let certified = certified_radius(proto.program(), model);
    let state = safe_region_final_state(proto.program(), model);
    assert!(agrees(model, &state, certified), "the true theory agrees");
    let optimistic = Planted { model, flipped: 2 };
    assert!(!agrees(&optimistic, &state, certified));
    // The known gap: node 1 called unsafe raises the predicted and the
    // measured radius together to 2, and `certified <= measured` still
    // holds. Only a behavioural verdict, which judges what node 1 did
    // rather than what the theory says of it, can reject this theory.
    let pessimistic = Planted { model, flipped: 1 };
    assert_eq!(pessimistic.predicted_radius(), 2);
    assert!(agrees(&pessimistic, &state, certified));
}
