//! Property-based tests of the guarded-command substrate.

use nonmask_program::scheduler::{Random, RoundRobin};
use nonmask_program::{
    ActionId, ActionKind, Domain, Executor, Predicate, Program, RunConfig, Scheduler, State,
    StopReason, TransientCorruption, VarId,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The round-robin rule as it was written before `select` evaluated
/// guards: among the enabled ids, the smallest one at or after the cursor,
/// else the smallest; the cursor moves past the pick.
fn old_round_robin(cursor: &mut usize, enabled: &[ActionId]) -> Option<ActionId> {
    let chosen = enabled
        .iter()
        .copied()
        .filter(|a| a.index() >= *cursor)
        .min_by_key(|a| a.index())
        .or_else(|| enabled.iter().copied().min_by_key(|a| a.index()))?;
    *cursor = chosen.index() + 1;
    Some(chosen)
}

/// A random bounded program over 2–3 small-range variables whose actions
/// move values around within their domains.
fn random_program() -> impl Strategy<Value = Program> {
    (
        2usize..=3,
        1i64..=3,
        proptest::collection::vec((any::<u8>(), any::<u8>(), 0usize..3), 1..4),
    )
        .prop_map(|(nvars, max, actions)| {
            let mut b = Program::builder("prop");
            let vars: Vec<VarId> = (0..nvars)
                .map(|i| b.var(format!("v{i}"), Domain::range(0, max)))
                .collect();
            for (i, (gmask, vtab, target)) in actions.into_iter().enumerate() {
                let target = vars[target % nvars];
                let vars_c = vars.clone();
                let key = move |s: &State| -> usize {
                    vars_c
                        .iter()
                        .enumerate()
                        .fold(0usize, |acc, (k, &v)| acc + (s.get(v) as usize) * (k + 1))
                        % 8
                };
                let key2 = key.clone();
                b.add_action(nonmask_program::Action::new(
                    format!("a{i}"),
                    ActionKind::Closure,
                    vars.clone(),
                    [target],
                    move |s| gmask & (1 << key(s)) != 0,
                    move |s| {
                        let value = (vtab as i64 >> (key2(s) % 4)) & 0x3;
                        s.set(target, value.min(max));
                    },
                ));
            }
            b.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Engine bookkeeping invariants hold on arbitrary programs: action
    /// counts sum to steps, watch hits never exceed steps, traces align
    /// with steps, and domains are never violated.
    #[test]
    fn engine_bookkeeping(program in random_program(), seed in any::<u64>()) {
        let watch = Predicate::always_true();
        let report = Executor::new(&program).run(
            program.min_state(),
            &mut Random::seeded(seed),
            &RunConfig::default()
                .max_steps(200)
                .watch(&watch)
                .record_trace(true)
                .validate_domains(true),
        );
        let counted: u64 = report.action_counts.iter().sum();
        prop_assert_eq!(counted, report.steps);
        let kinds = report.kind_counts;
        prop_assert_eq!(kinds.closure + kinds.convergence + kinds.combined, report.steps);
        prop_assert_eq!(report.watch_hits[0], report.steps, "true holds after every step");
        let trace = report.trace.as_ref().unwrap();
        prop_assert_eq!(trace.len() as u64, report.steps, "no faults: one entry per step");
        prop_assert!(matches!(
            report.stop,
            StopReason::MaxSteps | StopReason::Deadlock
        ));
        program.validate_state(&report.final_state).unwrap();
    }

    /// With fault injection, every state along the trace remains within
    /// domains (faults sample from domains) and fault accounting is
    /// consistent.
    #[test]
    fn fault_accounting(program in random_program(), seed in any::<u64>(), rate in 0.0f64..=1.0) {
        let mut faults = TransientCorruption::new(rate, seed);
        let report = Executor::new(&program).run_with_faults(
            program.min_state(),
            &mut RoundRobin::new(),
            &mut faults,
            &RunConfig::default().max_steps(100).record_trace(true),
        );
        let trace = report.trace.as_ref().unwrap();
        let fault_entries: u64 = trace
            .steps()
            .iter()
            .filter(|s| s.action.is_none())
            .map(|s| s.faults as u64)
            .sum();
        prop_assert_eq!(fault_entries, report.fault_events);
        for st in trace.states() {
            program.validate_state(st).unwrap();
        }
    }

    /// Deterministic replay: the same seed gives identical runs.
    #[test]
    fn runs_replay_deterministically(program in random_program(), seed in any::<u64>()) {
        let run = || {
            Executor::new(&program).run(
                program.min_state(),
                &mut Random::seeded(seed),
                &RunConfig::default().max_steps(150),
            )
        };
        let (a, b) = (run(), run());
        prop_assert_eq!(a.steps, b.steps);
        prop_assert_eq!(a.final_state, b.final_state);
        prop_assert_eq!(a.action_counts, b.action_counts);
    }

    /// Enumeration counts the exact product of domain sizes, with no
    /// duplicates, for random domain shapes.
    #[test]
    fn enumeration_is_a_bijection(
        sizes in proptest::collection::vec(1i64..=4, 1..4)
    ) {
        let mut b = Program::builder("enum");
        for (i, &m) in sizes.iter().enumerate() {
            b.var(format!("v{i}"), Domain::range(0, m - 1));
        }
        let p = b.build();
        let expected: u128 = sizes.iter().map(|&m| m as u128).product();
        prop_assert_eq!(p.state_space_size(), Some(expected));
        let states: Vec<State> = p.enumerate_states().unwrap().collect();
        prop_assert_eq!(states.len() as u128, expected);
        let set: std::collections::HashSet<_> = states.iter().collect();
        prop_assert_eq!(set.len() as u128, expected, "no duplicates");
    }

    /// The scheduler only ever executes enabled actions (validated through
    /// the write-set checker staying quiet and guards re-checked on a
    /// replayed trace).
    #[test]
    fn schedulers_respect_guards(program in random_program(), seed in any::<u64>()) {
        let report = Executor::new(&program).run(
            program.min_state(),
            &mut Random::seeded(seed),
            &RunConfig::default().max_steps(100).record_trace(true),
        );
        // Replay: walk the trace and confirm each recorded action was
        // enabled in the preceding state.
        let trace = report.trace.as_ref().unwrap();
        let mut current = trace.initial().unwrap().clone();
        for step in trace.steps() {
            let action = step.action.expect("no faults in this run");
            prop_assert!(program.action(action).enabled(&current));
            program.action(action).apply(&mut current);
            prop_assert_eq!(&current, &step.state);
        }
    }

    /// `RoundRobin::select` over all of a program's actions picks exactly
    /// what the old cursor rule picked, state after state.
    #[test]
    fn round_robin_matches_the_old_cursor_rule(
        program in random_program(),
        seed in any::<u64>(),
        len in 1usize..40,
    ) {
        let all: Vec<ActionId> = program.action_ids().collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut new = RoundRobin::new();
        let mut cursor = 0;
        for _ in 0..len {
            let state = program.random_state(&mut rng);
            let old = old_round_robin(&mut cursor, &program.enabled_actions(&state));
            prop_assert_eq!(new.select(&program, &all, &state), old);
        }
    }
}
