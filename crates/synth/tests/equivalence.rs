//! The headline claim: from the decompositions alone, the synthesizer
//! re-derives repairs **extensionally identical** to the paper's
//! hand-written ones.
//!
//! State ids are a pure mixed-radix function of the variable layout, and
//! the synth specs reproduce the hand programs' layouts exactly, so a
//! synthesized action and its hand counterpart can be compared
//! transition-for-transition across their separately enumerated spaces.

use nonmask::TheoremOutcome;
use nonmask_checker::{StateId, StateSpace};
use nonmask_obs::Journal;
use nonmask_program::{ActionId, Program};
use nonmask_protocols::coloring::TreeColoring;
use nonmask_protocols::diffusing::DiffusingComputation;
use nonmask_protocols::token_ring::windowed_design;
use nonmask_protocols::Tree;
use nonmask_synth::{specs, synthesize, SynthOptions, SynthResult};

fn synth(spec: &nonmask_synth::SynthSpec) -> SynthResult {
    synthesize(spec, &SynthOptions::default(), &Journal::disabled()).expect("synthesis succeeds")
}

/// Sorted successor set of `action` at state `i`.
fn succs(space: &StateSpace, i: usize, action: ActionId) -> Vec<u32> {
    let mut out: Vec<u32> = space
        .successors(StateId::from_index(i))
        .into_iter()
        .filter(|(a, _)| *a == action)
        .map(|(_, s)| s.index() as u32)
        .collect();
    out.sort_unstable();
    out
}

/// Assert two actions of two same-layout programs have identical
/// extensions (same enabledness, same successors, at every state).
fn assert_same_extension(
    hand: &(StateSpace, &Program),
    hand_action: ActionId,
    synthd: &(StateSpace, &Program),
    synth_action: ActionId,
    label: &str,
) {
    assert_eq!(hand.0.len(), synthd.0.len(), "{label}: state spaces differ");
    for i in 0..hand.0.len() {
        assert_eq!(
            succs(&hand.0, i, hand_action),
            succs(&synthd.0, i, synth_action),
            "{label}: transitions differ at state {i}"
        );
    }
}

/// Check the two programs enumerate identical variable layouts, so the
/// state-id bijection is shared and extension comparison is meaningful.
fn assert_same_layout(hand: &Program, synthd: &Program) {
    let hv: Vec<_> = hand
        .var_ids()
        .map(|v| hand.var(v).name().to_string())
        .collect();
    let sv: Vec<_> = synthd
        .var_ids()
        .map(|v| synthd.var(v).name().to_string())
        .collect();
    assert_eq!(hv, sv, "variable layouts must match");
}

#[test]
fn token_ring_resynthesizes_the_papers_layered_design() {
    let spec = specs::token_ring_windowed(4, 3).unwrap();
    let out = synth(&spec);

    assert!(out.report.is_tolerant());
    assert!(
        matches!(out.report.theorem, TheoremOutcome::Theorem3 { layers: 2 }),
        "expected the paper's two-layer partition, got {:?}",
        out.report.theorem.name()
    );
    assert_eq!(out.distance, 0, "every guard should be exactly required");
    // The derived layers are ge.* below eq.*.
    assert_eq!(out.layers, vec![vec![0, 1, 2], vec![3, 4, 5]]);

    let (hand_design, handles) = windowed_design(4, 3).unwrap();
    let hand_prog = hand_design.program();
    let synth_prog = out.design.program();
    assert_same_layout(hand_prog, synth_prog);
    let hand_space = StateSpace::enumerate(hand_prog).unwrap();
    let synth_space = StateSpace::enumerate(synth_prog).unwrap();
    let h = (hand_space, hand_prog);
    let s = (synth_space, synth_prog);

    // Base action: the root increment.
    assert_same_extension(
        &h,
        handles.root,
        &s,
        ActionId::from_index(0),
        "root increment",
    );
    // repair.ge.j ≡ hand repair-ge@j; repair.eq.j ≡ hand copy@j.
    for j in 1..4usize {
        assert_same_extension(
            &h,
            handles.layer1[j - 1],
            &s,
            ActionId::from_index(1 + (j - 1)),
            &format!("repair.ge.{j}"),
        );
        assert_same_extension(
            &h,
            handles.layer2[j - 1],
            &s,
            ActionId::from_index(4 + (j - 1)),
            &format!("repair.eq.{j}"),
        );
    }

    // Same certificate as the hand design.
    let hand_report = hand_design.verify().unwrap();
    assert_eq!(out.report.worst_case_moves, hand_report.worst_case_moves);
}

#[test]
fn diffusing_resynthesizes_the_merged_propagate_repair() {
    let spec = specs::diffusing(7).unwrap();
    let out = synth(&spec);

    assert!(out.report.is_tolerant());
    assert!(out.report.theorem.applies());
    assert_eq!(out.distance, 0);
    assert_eq!(out.layers.len(), 1, "R.j are pairwise incomparable");

    let dc = DiffusingComputation::new(&Tree::binary(7));
    let hand_prog = dc.program();
    let synth_prog = out.design.program();
    assert_same_layout(hand_prog, synth_prog);
    let hand_space = StateSpace::enumerate(hand_prog).unwrap();
    let synth_space = StateSpace::enumerate(synth_prog).unwrap();
    let h = (hand_space, hand_prog);
    let s = (synth_space, synth_prog);

    // Synth program layout: initiate.0, reflect.0..reflect.6, then
    // repair.R.1..repair.R.6.
    assert_same_extension(
        &h,
        dc.initiate_action(),
        &s,
        ActionId::from_index(0),
        "initiate",
    );
    for j in 0..7usize {
        assert_same_extension(
            &h,
            dc.reflect_action(j),
            &s,
            ActionId::from_index(1 + j),
            &format!("reflect.{j}"),
        );
    }
    let repairs = dc.constraints();
    assert_eq!(repairs.len(), 6, "one repair per non-root node");
    for (i, repair) in repairs.iter().enumerate() {
        let j = i + 1;
        assert_same_extension(
            &h,
            repair.action(),
            &s,
            ActionId::from_index(8 + i),
            &format!("repair.R.{j} vs propagate/repair@{j}"),
        );
    }
}

#[test]
fn coloring_synthesizes_the_recoloring_action_from_scratch() {
    for n in [7, 9] {
        let spec = specs::coloring(n, 3).unwrap();
        let out = synth(&spec);

        assert!(out.report.is_tolerant());
        assert!(out.report.theorem.applies());
        assert_eq!(out.distance, 0, "n={n}");

        let tc = TreeColoring::new(&Tree::binary(n), 3);
        let hand_prog = tc.program();
        let synth_prog = out.design.program();
        assert_same_layout(hand_prog, synth_prog);
        let hand_space = StateSpace::enumerate(hand_prog).unwrap();
        let synth_space = StateSpace::enumerate(synth_prog).unwrap();
        let h = (hand_space, hand_prog);
        let s = (synth_space, synth_prog);

        // Hand program: recolor@1..recolor@(n-1) (ids 0..n-1); synth:
        // repair.R.1..
        for j in 1..n {
            assert_same_extension(
                &h,
                ActionId::from_index(j - 1),
                &s,
                ActionId::from_index(j - 1),
                &format!("n={n}: repair.R.{j} vs recolor@{j}"),
            );
        }
    }
}

#[test]
fn token_ring_render_matches_the_committed_golden() {
    let out = synth(&specs::token_ring_windowed(4, 3).unwrap());
    let golden = include_str!("../golden/token_ring.txt");
    assert_eq!(
        out.render(),
        golden,
        "synthesized design drifted from golden/token_ring.txt \
         (regenerate with `cargo run -p nonmask-synth --example golden_token_ring`)"
    );
}

#[test]
fn pruning_saves_at_least_10x_oracle_calls_on_the_token_ring() {
    for (n, window) in [(4, 3), (5, 4)] {
        let out = synth(&specs::token_ring_windowed(n, window).unwrap());
        assert!(out.report.is_tolerant());
        assert_eq!(
            out.distance, 0,
            "n={n}: every guard should be exactly required"
        );
        let m = out.metrics;
        assert!(m.candidates >= 400, "grammar too small: {}", m.candidates);
        assert!(
            m.oracle_calls * 10 <= m.oracle_calls_unpruned,
            "n={n}: prune saves only {}x ({} vs {})",
            m.oracle_calls_unpruned as f64 / m.oracle_calls as f64,
            m.oracle_calls,
            m.oracle_calls_unpruned
        );
    }
}
