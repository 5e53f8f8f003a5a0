//! Synthesis is a *deterministic* search: the chosen action set, the
//! rendered design, the metrics, and the journaled phase trace are
//! bit-identical for every worker-thread count and certification chunk
//! size. Only wall-clock timestamps may differ, so journals are compared
//! as parsed event sequences.

use nonmask_obs::{parse_journal, Event, Journal};
use nonmask_synth::{specs, synthesize, SynthOptions};

/// Run one synthesis and return everything that must be invariant.
fn fingerprint(
    spec: &nonmask_synth::SynthSpec,
    threads: usize,
    chunk: usize,
) -> (String, Vec<Event>, nonmask_synth::SynthMetrics, u64) {
    let (journal, buffer) = Journal::memory();
    let out = synthesize(spec, &SynthOptions { threads, chunk }, &journal).unwrap();
    journal.flush();
    let events: Vec<Event> = parse_journal(&buffer.contents())
        .unwrap()
        .into_iter()
        .map(|r| r.event)
        .collect();
    (out.render(), events, out.metrics, out.distance)
}

#[test]
fn coloring_is_invariant_across_threads_and_chunks() {
    let spec = specs::coloring(5, 3).unwrap();
    let baseline = fingerprint(&spec, 1, 1);
    for threads in [1usize, 4, 7] {
        for chunk in [1usize, 3, 8, 64] {
            if (threads, chunk) == (1, 1) {
                continue;
            }
            let got = fingerprint(&spec, threads, chunk);
            assert_eq!(baseline.0, got.0, "render differs at t={threads} c={chunk}");
            assert_eq!(
                baseline.1, got.1,
                "journal differs at t={threads} c={chunk}"
            );
            assert_eq!(baseline.2, got.2, "metrics differ at t={threads} c={chunk}");
            assert_eq!(
                baseline.3, got.3,
                "distance differs at t={threads} c={chunk}"
            );
        }
    }
}

#[test]
fn token_ring_is_invariant_across_threads_and_chunks() {
    let spec = specs::token_ring_windowed(4, 3).unwrap();
    let baseline = fingerprint(&spec, 1, 1);
    for (threads, chunk) in [(4usize, 3usize), (7, 8), (2, 64)] {
        let got = fingerprint(&spec, threads, chunk);
        assert_eq!(baseline.0, got.0, "render differs at t={threads} c={chunk}");
        assert_eq!(
            baseline.1, got.1,
            "journal differs at t={threads} c={chunk}"
        );
        assert_eq!(baseline.2, got.2, "metrics differ at t={threads} c={chunk}");
    }
}

#[test]
fn journal_follows_the_phase_order() {
    let spec = specs::coloring(3, 3).unwrap();
    let (_, events, _, _) = fingerprint(&spec, 2, 2);
    let phases: Vec<String> = events
        .iter()
        .map(|e| match e {
            Event::Synth { phase, .. } => phase.clone(),
            other => panic!("non-synth event in a synthesis journal: {other:?}"),
        })
        .collect();
    // k=2 constraints: grammar×2, classify, prune×2, certify×2,
    // select×2, verify.
    assert_eq!(
        phases,
        vec![
            "grammar", "grammar", "classify", "prune", "prune", "certify", "certify", "select",
            "select", "verify"
        ]
    );
}
