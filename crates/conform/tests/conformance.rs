//! Cross-layer conformance: a corpus-sized differential sweep.
//!
//! The CI-scale corpus (≥100 runs per protocol) runs behind
//! `nonmask-run conform --smoke`; this integration test keeps the same
//! structure at unit-test cost — every simulator and socket-runtime
//! step replayed through the checker's transition relation, designated
//! repairs verified, convergence envelope asserted.

use nonmask_conform::{
    check_run, default_specs, run_corpus, run_net, CorpusConfig, NetRunConfig, ProtocolOracle,
    ProtocolSpec,
};
use nonmask_obs::{parse_journal, Journal};

#[test]
fn sim_corpus_has_zero_divergences() {
    let specs = default_specs();
    let config = CorpusConfig {
        base_seed: 100,
        sim_runs: 12,
        net_runs: 0,
        sim_only: true,
    };
    let (journal, buffer) = Journal::memory();
    let report = run_corpus(&specs, &config, &journal).expect("corpus infrastructure");
    journal.flush();
    assert_eq!(
        report.divergent_runs(),
        0,
        "divergences:\n{}",
        report.render()
    );
    assert!(report.steps_checked() > 0);

    // One verdict event per run, all conforming, journaled on the wire.
    let records = parse_journal(&buffer.contents()).expect("wire-stable journal");
    let verdicts: Vec<_> = records
        .iter()
        .filter_map(|r| match &r.event {
            nonmask_obs::Event::Verdict { verdict, .. } => Some(verdict.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(verdicts.len(), report.total_runs());
    assert!(verdicts.iter().all(|v| *v == "conforms"));
}

#[test]
fn every_protocol_bound_is_finite() {
    // The envelope check is only meaningful while the checker can bound
    // convergence; both corpus protocols must keep cycle-free repair
    // regions (a regression here would silently skip the envelope).
    for spec in default_specs() {
        let oracle = ProtocolOracle::build(&spec).expect("oracle");
        assert!(
            oracle.bound.is_some(),
            "{}: convergence bound became unavailable",
            spec.name
        );
    }
}

#[test]
fn net_layer_conforms_on_a_reliable_run() {
    let spec = ProtocolSpec::token_ring(3, 3);
    let oracle = ProtocolOracle::build(&spec).expect("oracle");
    let outcome = run_net(&spec.program, &spec.goal, 41, &NetRunConfig::default())
        .expect("net infrastructure");
    let report = check_run(&oracle, &spec, &outcome, true);
    assert!(
        report.conforms(),
        "net divergences: {:?}",
        report.divergences
    );
    assert!(report.steps_checked > 0, "net run recorded no steps");
    // Reliable, event-free run: the linearized envelope must have been
    // measured, not skipped.
    assert!(report.observed.is_some());
}

#[test]
fn the_sim_half_of_the_report_is_bit_identical_across_runs() {
    // Net runs race real sockets, so their step counts vary from run to
    // run; the report keeps them on their own lines, and the sim half of
    // two runs of one fixed-seed corpus must render identically.
    let specs = [ProtocolSpec::token_ring(3, 3), ProtocolSpec::diffusing(7)];
    let config = CorpusConfig {
        base_seed: 7,
        sim_runs: 6,
        net_runs: 2,
        sim_only: false,
    };
    let run = || run_corpus(&specs, &config, &Journal::disabled()).expect("corpus infrastructure");
    let (first, second) = (run(), run());
    let sim = first.render_layer("sim");
    assert_eq!(sim, second.render_layer("sim"));
    assert!(sim.contains("  sim: 6 runs, "), "{sim}");
    assert!(sim.contains("total sim: 12 runs, "), "{sim}");
    assert!(
        !sim.contains("net"),
        "net totals leaked into the sim half:\n{sim}"
    );

    let full = first.render();
    assert!(full.contains("  net: 2 runs, "), "{full}");
    assert!(full.contains("total net: 4 runs, "), "{full}");
}
