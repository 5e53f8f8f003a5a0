//! The correctness argument for the socket runtime's compact node state:
//! a node holds only its footprint (owned variables plus its actions'
//! declared reads) and runs each action on a scratch state whose other
//! slots hold whatever the previous user left there. For every corpus
//! protocol, every process and every action, loading just the footprint
//! of a random full state into a scratch full of other domain-valid
//! values must give the same guard verdict, and the same footprint after
//! the effect, as the full state itself.

use nonmask_conform::corpus::default_specs;
use nonmask_program::{Program, State};
use nonmask_sim::Refinement;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Check every action of every process of `program` on the full state
/// drawn from `state_seed` against a scratch drawn from `scratch_seed`.
fn footprint_decides(program: &Program, state_seed: u64, scratch_seed: u64) -> Result<(), String> {
    let refinement = Refinement::new(program).map_err(|e| e.to_string())?;
    let full = program.random_state(&mut StdRng::seed_from_u64(state_seed));
    let background = program.random_state(&mut StdRng::seed_from_u64(scratch_seed));
    for p in 0..refinement.process_count() {
        let footprint = refinement.footprint_of(p);
        let mut scratch: State = background.clone();
        for &v in footprint {
            scratch.set(v, full.get(v));
        }
        for &a in refinement.actions_of(p) {
            let action = program.action(a);
            let enabled = action.enabled(&full);
            if action.enabled(&scratch) != enabled {
                return Err(format!(
                    "{}: process {p} action `{}` guard differs on its footprint",
                    program.name(),
                    action.name()
                ));
            }
            if !enabled {
                continue;
            }
            let (mut on_full, mut on_scratch) = (full.clone(), scratch.clone());
            action.apply(&mut on_full);
            action.apply(&mut on_scratch);
            if let Some(&v) = footprint
                .iter()
                .find(|&&v| on_full.get(v) != on_scratch.get(v))
            {
                return Err(format!(
                    "{}: process {p} action `{}` leaves {v} = {} on its footprint, {} on the full state",
                    program.name(),
                    action.name(),
                    on_scratch.get(v),
                    on_full.get(v)
                ));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_corpus_action_is_decided_by_its_footprint(
        state_seed in any::<u64>(),
        scratch_seed in any::<u64>(),
    ) {
        for spec in default_specs() {
            let verdict = footprint_decides(&spec.program, state_seed, scratch_seed);
            prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
        }
    }
}

/// The check has teeth: a guard reading a variable its action does not
/// declare is caught within a few draws.
#[test]
fn an_undeclared_read_is_caught() {
    use nonmask_program::{Domain, ProcessId};
    let mut b = Program::builder("sneaky");
    let x = b.var_of("x", Domain::range(0, 7), ProcessId(0));
    let y = b.var_of("y", Domain::range(0, 7), ProcessId(1));
    b.closure_action(
        "copy@0",
        [x],
        [x],
        move |s| s.get(x) != s.get(y),
        move |s| s.set(x, s.get(y)),
    );
    b.closure_action("idle@1", [y], [y], |_| false, |_| {});
    let program = b.build();
    assert!((0..32).any(|seed| footprint_decides(&program, seed, seed + 1000).is_err()));
}
