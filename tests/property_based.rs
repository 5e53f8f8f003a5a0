//! Property-based tests over the core invariants of the reproduction.

use nonmask::{Design, TheoremOutcome};
use nonmask_checker::{
    breaking_actions, check_convergence, check_convergence_bits, check_convergence_frontier_stats,
    first_disabled, first_leaving, is_closed, is_closed_bits, preserves_given_bits, Bitset,
    CheckError, CheckOptions, ConvergenceResult, Decoder, Fairness, MaskColumn, SpaceIndex,
    StateId, StateSpace, Successors, Violation,
};
use nonmask_graph::{NodePartition, Shape};
use nonmask_obs::{Event, Journal, MemoryBuffer};
use nonmask_program::scheduler::Random;
use nonmask_program::{ActionId, Domain, Executor, Predicate, Program, RunConfig, State, VarId};
use nonmask_protocols::diffusing::DiffusingComputation;
use nonmask_protocols::token_ring::TokenRing;
use nonmask_protocols::Tree;
use proptest::prelude::*;

/// Strategy: a valid parent vector for a tree of size 2..=6.
fn tree_strategy() -> impl Strategy<Value = Tree> {
    (2usize..=6)
        .prop_flat_map(|n| {
            // parent[j] ∈ 0..j guarantees acyclicity and root at 0.
            let parents: Vec<BoxedStrategy<usize>> = (0..n)
                .map(|j| {
                    if j == 0 {
                        Just(0usize).boxed()
                    } else {
                        (0..j).boxed()
                    }
                })
                .collect();
            parents
        })
        .prop_map(|parents| Tree::from_parents(parents).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every recursive tree yields a Theorem-1 stabilizing diffusing
    /// computation whose constraint graph is an out-tree with ranks
    /// = depth + 1.
    #[test]
    fn diffusing_design_is_theorem1_on_random_trees(tree in tree_strategy()) {
        let dc = DiffusingComputation::new(&tree);
        let design = dc.design().unwrap();
        let graph = design.constraint_graph().unwrap();
        prop_assert_eq!(graph.shape(), Shape::OutTree);
        let ranks = graph.ranks().unwrap();
        for (j, &rank) in ranks.iter().enumerate() {
            prop_assert_eq!(rank as usize, tree.depth(j) + 1);
        }
        // Full verification only on the smaller instances (4^6 = 4096 is
        // fine; keep the property fast).
        if tree.len() <= 5 {
            let report = design.verify().unwrap();
            let is_theorem1 = matches!(report.theorem, TheoremOutcome::Theorem1 { .. });
            prop_assert!(is_theorem1);
            prop_assert!(report.is_stabilizing());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// From any state of the token ring, any seeded-random fair run
    /// reaches the invariant within the checker's worst-case bound.
    #[test]
    fn token_ring_runs_respect_worst_case_bound(
        slots in proptest::collection::vec(0i64..4, 4),
        seed in 0u64..1000,
    ) {
        let ring = TokenRing::new(4, 4);
        let start = State::new(slots);
        ring.program().validate_state(&start).unwrap();
        let s = ring.invariant();
        let space = StateSpace::enumerate(ring.program()).unwrap();
        let t = Predicate::always_true();
        let bound = check_convergence(&space, ring.program(), &t, &s, CheckOptions::default())
            .expect("bounds")
            .worst_case_moves
            .expect("finite bound");
        let report = Executor::new(ring.program()).run(
            start,
            &mut Random::seeded(seed),
            &RunConfig::default().stop_when(&s, 1).max_steps(bound + 1),
        );
        prop_assert!(report.stop.is_stabilized() || s.holds(&report.final_state));
        prop_assert!(report.steps <= bound);
    }

    /// Privilege counting and the invariant predicate always agree.
    #[test]
    fn privilege_count_consistency(slots in proptest::collection::vec(0i64..5, 5)) {
        let ring = TokenRing::new(5, 5);
        let state = State::new(slots);
        let privs = ring.privileges(&state);
        prop_assert!(!privs.is_empty(), "at least one privilege always exists");
        prop_assert_eq!(ring.invariant().holds(&state), privs.len() == 1);
        prop_assert_eq!(ring.token_holder(&state).is_some(), privs.len() == 1);
    }

    /// Predicate combinators satisfy boolean algebra on arbitrary states.
    #[test]
    fn predicate_combinator_laws(slots in proptest::collection::vec(-5i64..5, 3)) {
        use nonmask_program::VarId;
        let state = State::new(slots);
        let a = Predicate::new("a", [VarId::from_index(0)], |s| s.slots()[0] > 0);
        let b = Predicate::new("b", [VarId::from_index(1)], |s| s.slots()[1] > 0);
        prop_assert_eq!(a.and(&b).holds(&state), a.holds(&state) && b.holds(&state));
        prop_assert_eq!(a.or(&b).holds(&state), a.holds(&state) || b.holds(&state));
        prop_assert_eq!(a.not().holds(&state), !a.holds(&state));
        prop_assert_eq!(
            a.implies(&b).holds(&state),
            !a.holds(&state) || b.holds(&state)
        );
        // De Morgan.
        prop_assert_eq!(
            a.and(&b).not().holds(&state),
            a.not().or(&b.not()).holds(&state)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The message-passing refinement stabilizes from arbitrary corrupt
    /// states (token ring, lossless network).
    #[test]
    fn message_passing_stabilizes_from_random_states(
        slots in proptest::collection::vec(0i64..4, 4),
        seed in 0u64..100,
    ) {
        use nonmask_sim::{Refinement, SimConfig, Simulation};
        let ring = TokenRing::new(4, 4);
        let refinement = Refinement::new(ring.program()).unwrap();
        let mut sim = Simulation::new(
            ring.program(),
            refinement,
            State::new(slots),
            SimConfig { seed, max_rounds: 10_000, ..SimConfig::default() },
        );
        let report = sim.run_until_stable(&ring.invariant(), 3);
        prop_assert!(report.stabilized_at_round.is_some());
    }
}

/// Strategy: a random bounded domain (bool, small integer range, or enum).
fn domain_strategy() -> BoxedStrategy<Domain> {
    prop_oneof![
        Just(Domain::Bool),
        (-3i64..=3, 1i64..=3).prop_map(|(min, span)| Domain::range(min, min + span)),
        (2usize..=4).prop_map(|n| Domain::enumeration((0..n).map(|i| format!("label{i}")))),
    ]
}

/// Build a program over the given domains with one self-loop action (the
/// id property concerns enumeration, not transitions).
fn program_over(domains: Vec<Domain>) -> Program {
    let mut b = Program::builder("random-domains");
    for (i, d) in domains.into_iter().enumerate() {
        b.var(format!("v{i}"), d);
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arithmetic ids: for any mix of bounded domains, the [`StateId`] of
    /// every enumerated state equals its enumeration position, and the
    /// mixed-radix reverse lookup `id_of` inverts `state`.
    #[test]
    fn arithmetic_ids_equal_enumeration_position(
        domains in proptest::collection::vec(domain_strategy(), 1..=5)
    ) {
        let p = program_over(domains);
        let space = StateSpace::enumerate(&p).unwrap();
        for (pos, id) in space.ids().enumerate() {
            prop_assert_eq!(id.index(), pos);
            prop_assert_eq!(space.id_of(&space.state(id)), Some(id));
        }
    }
}

/// Build a program over `domains` with one wrapping-increment action per
/// `(guard_var, write_var, delta)` spec. Guards compare against the guard
/// variable's minimum; effects wrap within the written domain, so every
/// successor stays representable.
fn program_with_actions(domains: Vec<Domain>, actions: Vec<(usize, usize, i64)>) -> Program {
    let mut b = Program::builder("random-actions");
    let vars: Vec<_> = domains
        .iter()
        .enumerate()
        .map(|(i, d)| b.var(format!("v{i}"), d.clone()))
        .collect();
    let bounds: Vec<(i64, i64)> = domains
        .iter()
        .map(|d| {
            let min = d.min_value();
            (min, min + d.size().unwrap() as i64 - 1)
        })
        .collect();
    for (k, (g, w, delta)) in actions.into_iter().enumerate() {
        let (gv, wv) = (vars[g % vars.len()], vars[w % vars.len()]);
        let (gmin, _) = bounds[g % vars.len()];
        let (wmin, wmax) = bounds[w % vars.len()];
        let size = wmax - wmin + 1;
        b.closure_action(
            format!("a{k}"),
            [gv, wv],
            [wv],
            move |s| s.get(gv) > gmin,
            move |s| {
                let v = s.get(wv);
                s.set(wv, wmin + (v - wmin + delta).rem_euclid(size));
            },
        );
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Table ground truth: for every state, the row computed from the
    /// footprint tables ([`StateSpace::successors`]) equals a direct
    /// per-state enumeration — the enabled actions in declaration order,
    /// each paired with the mixed-radix id of its successor — and the
    /// successor ids alone ([`StateSpace::successor_ids`]) agree pairwise.
    /// The transition count, computed from the tables, is the sum of the
    /// row lengths.
    #[test]
    fn csr_rows_match_direct_enumeration(
        domains in proptest::collection::vec(domain_strategy(), 1..=4),
        actions in proptest::collection::vec((0usize..4, 0usize..4, 1i64..=3), 0..=4)
    ) {
        let p = program_with_actions(domains, actions);
        let space = StateSpace::enumerate(&p).unwrap();
        let mut total = 0usize;
        for id in space.ids() {
            let st = space.state(id);
            let expected: Vec<_> = p
                .action_ids()
                .filter(|&a| p.action(a).enabled(&st))
                .map(|a| (a, space.id_of(&p.action(a).successor(&st)).unwrap()))
                .collect();
            let row = space.successors(id);
            prop_assert_eq!(&row, &expected, "row of state {}", id.index());
            let ids = space.successor_ids(id);
            let pair_ids: Vec<_> = row.iter().map(|&(_, t)| t).collect();
            prop_assert_eq!(ids, pair_ids);
            total += expected.len();
        }
        prop_assert_eq!(space.transition_count(), total);
    }
}

/// Serial and multi-threaded checking must be *bit-identical*: the same
/// verdict, the same witness states, for every protocol and thread count.
fn assert_parallel_matches_serial(
    p: &Program,
    t: &Predicate,
    s: &Predicate,
    threads: usize,
) -> Result<(), TestCaseError> {
    let space = StateSpace::enumerate(p).unwrap();
    let serial = CheckOptions::serial();
    let opts = CheckOptions::default().threads(threads);
    prop_assert_eq!(
        check_convergence(&space, p, t, s, serial).unwrap(),
        check_convergence(&space, p, t, s, opts).unwrap(),
        "convergence with {} threads",
        threads
    );
    let closed = |opts| {
        let s_bits = Bitset::for_predicate(&space, s, opts).unwrap();
        is_closed_bits(&space, &s_bits, opts).unwrap()
    };
    let reference = closed(serial);
    prop_assert_eq!(
        &reference,
        &closed(opts),
        "closure with {} threads",
        threads
    );
    prop_assert_eq!(&reference, &is_closed(&space, s).unwrap());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The thread count never changes any verdict or witness on the
    /// paper's three running designs (xyz, token ring, diffusing).
    #[test]
    fn multithreaded_checks_match_serial(threads in 2usize..=8) {
        let (xyz, _) = nonmask_protocols::xyz::out_tree().unwrap();
        assert_parallel_matches_serial(
            xyz.program(),
            xyz.fault_span(),
            &xyz.invariant(),
            threads,
        )?;

        // 5^5 = 3125 states: crosses the parallel threshold for real.
        let ring = TokenRing::new(5, 5);
        assert_parallel_matches_serial(
            ring.program(),
            &Predicate::always_true(),
            &ring.invariant(),
            threads,
        )?;

        let dc = DiffusingComputation::new(&Tree::from_parents(vec![0, 0, 1, 1]).unwrap());
        let design = dc.design().unwrap();
        assert_parallel_matches_serial(
            design.program(),
            design.fault_span(),
            &design.invariant(),
            threads,
        )?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Segment boundaries are invisible: for any random program, the
    /// on-demand decoder reproduces every table row of the monolithic
    /// space, in id order — and for any thread count and segment sizes
    /// that do and do not divide the state count, closure reports the
    /// same witness on both row sources. A padding variable lifts the
    /// space to at least 2,048 states, where sweeps go parallel.
    #[test]
    fn segmented_rows_match_monolithic_on_random_programs(
        mut domains in proptest::collection::vec(domain_strategy(), 1..=4),
        actions in proptest::collection::vec((0usize..4, 0usize..4, 1i64..=3), 0..=4),
        threads in 1usize..=8,
        seg_pick in 0usize..4,
    ) {
        let states: u64 = domains.iter().map(|d| d.size().unwrap()).product();
        domains.push(Domain::range(0, 2048u64.div_ceil(states) as i64 - 1));
        let p = program_with_actions(domains, actions);
        let space = StateSpace::enumerate(&p).unwrap();
        let n = space.len();
        prop_assert!(n >= 2048, "{} states", n);
        // One size of each kind: degenerate, non-dividing, roughly a
        // third (almost never divides), and everything-in-one-segment.
        let sizes = [1, 7, n.div_ceil(3).max(1), n.max(1)];
        let opts = CheckOptions::default()
            .threads(threads)
            .segment_states(sizes[seg_pick]);
        let mut decoder = Decoder::new(&p, space.index());
        for id in space.ids() {
            let monolithic = space.successors(id);
            let decoded: Vec<_> = decoder.row(id).unwrap().iter().collect();
            prop_assert_eq!(&decoded, &monolithic, "decoded row of {}", id);
        }

        // Closure reports the same witness — lowest action, then lowest
        // state — from both row sources.
        let even = Predicate::new("even", p.var_ids(), |s: &State| {
            s.slots().iter().sum::<i64>() % 2 == 0
        });
        let bits = Bitset::for_predicate(&space, &even, opts).unwrap();
        let resident = is_closed_bits(&space, &bits, opts).unwrap();
        let decoded = Decoder::new(&p, space.index());
        prop_assert_eq!(&is_closed_bits(&decoded, &bits, opts).unwrap(), &resident);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Rows of any guard width: random actions repeated up to 1–17, 63–65
    /// or 127–129 actions put the last action on either side of a guard
    /// byte's edge and of an eight-byte word's edge. Every build, at any
    /// thread count and segment size, has the serial build's rows, and so
    /// does the on-demand decoder. A padding variable lifts the space to
    /// at least 2,048 states, where builds go parallel.
    #[test]
    fn multi_word_guard_rows_match_serial_and_decoder(
        mut domains in proptest::collection::vec(domain_strategy(), 1..=3),
        actions in proptest::collection::vec((0usize..4, 0usize..4, 1i64..=3), 1..=4),
        total in prop_oneof![1usize..=17, 63usize..=65, 127usize..=129],
    ) {
        let states: u64 = domains.iter().map(|d| d.size().unwrap()).product();
        domains.push(Domain::range(0, 2048u64.div_ceil(states) as i64 - 1));
        let repeated = actions.iter().copied().cycle().take(total).collect();
        let p = program_with_actions(domains, repeated);
        prop_assert_eq!(p.action_count(), total);
        let serial = StateSpace::enumerate_with_options(&p, CheckOptions::serial()).unwrap();
        let n = serial.len();
        let mut decoder = Decoder::new(&p, serial.index());
        for id in serial.ids() {
            let decoded: Vec<_> = decoder.row(id).unwrap().iter().collect();
            prop_assert_eq!(decoded, serial.successors(id), "decoded row of {}", id);
        }
        for threads in [1, 2, 8] {
            for seg in [1, 7, n.div_ceil(3)] {
                let opts = CheckOptions::default().threads(threads).segment_states(seg);
                let space = StateSpace::enumerate_with_options(&p, opts).unwrap();
                prop_assert_eq!(space.transition_count(), serial.transition_count());
                for id in space.ids() {
                    prop_assert_eq!(
                        space.successors(id),
                        serial.successors(id),
                        "row of {} at threads={} segment={}",
                        id,
                        threads,
                        seg
                    );
                }
            }
        }
    }
}

/// Weighted slot sum, for random predicates that read every variable.
fn weighted_sum(s: &State) -> i64 {
    s.slots().iter().zip(1i64..).map(|(&v, w)| v * w).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The frontier checker agrees with the resident one on random
    /// programs, goals and fault spans: same verdict, same witness, same
    /// `ConvergenceStats`, under both daemons, serially and with work
    /// stealing, for segment sizes that do and do not divide the state
    /// count. Random goals leave most regions divergent, so the shared
    /// residual and fair-admissibility code sees arbitrary components.
    #[test]
    fn frontier_matches_resident_on_random_programs(
        domains in proptest::collection::vec(domain_strategy(), 1..=6),
        actions in proptest::collection::vec((0usize..6, 0usize..6, 1i64..=3), 1..=5),
        goal_mod in 2i64..=5,
        span_mod in 1i64..=3,
        threads in 2usize..=8,
        seg_pick in 0usize..3,
    ) {
        let first = domains[0].size().unwrap() as usize;
        let p = program_with_actions(domains, actions);
        let space = StateSpace::enumerate(&p).unwrap();
        let n = space.len();
        let goal = Predicate::new("goal", p.var_ids(), move |s: &State| {
            weighted_sum(s).rem_euclid(goal_mod) == 0
        });
        // span_mod = 1 makes the fault span `true`; otherwise computations
        // can leave it, so fault-span escapes are compared too.
        let span = Predicate::new("span", p.var_ids(), move |s: &State| {
            let w = weighted_sum(s);
            w.rem_euclid(goal_mod) == 0 || w.rem_euclid(span_mod) == 0
        });
        // `n / first` and `n` divide the state count; `n / 2 + 1` does not
        // once n > 2.
        let sizes = [n / 2 + 1, n / first, n];
        for threads in [1, threads] {
            let opts = CheckOptions::default()
                .threads(threads)
                .segment_states(sizes[seg_pick]);
            let resident = check_convergence(&space, &p, &span, &goal, opts).unwrap();
            for fairness in [Fairness::Unfair, Fairness::WeaklyFair] {
                let (frontier, frontier_stats) = check_convergence_frontier_stats(
                    &p, &span, &goal, fairness, opts, &Journal::disabled(),
                )
                .unwrap();
                prop_assert_eq!(
                    &frontier,
                    resident.verdict(fairness),
                    "{:?} with {} threads",
                    fairness,
                    threads
                );
                prop_assert_eq!(frontier_stats.convergence, resident.stats);
            }
        }
    }
}

/// All journal events in a memory buffer, with the wall-clock timestamps
/// stripped (the event payloads themselves carry no timing by design).
fn journal_events(journal: Journal, buffer: &MemoryBuffer) -> Vec<Event> {
    journal.flush();
    buffer
        .contents()
        .lines()
        .map(|l| Event::parse_line(l).expect("journal lines parse").event)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The frontier checker is bit-identical across work-stealing thread
    /// counts: same verdict and witness as the resident checker, same
    /// stats, and — with an explicit segment size — the same journal
    /// event sequence, whether or not the size divides the state count.
    #[test]
    fn frontier_work_stealing_is_bit_identical(
        threads in 2usize..=8,
        seg_pick in 0usize..3,
    ) {
        let ring = TokenRing::new(5, 5);
        let dc = DiffusingComputation::new(&Tree::from_parents(vec![0, 0, 1, 1, 2]).unwrap());
        let cases = [
            (ring.program().clone(), ring.invariant()),
            (dc.program().clone(), dc.invariant()),
        ];
        for (p, goal) in &cases {
            let space = StateSpace::enumerate(p).unwrap();
            let n = space.len();
            // 625 divides 5^5; the other two sizes divide neither case.
            let sizes = [625, 999, n.div_ceil(3)];
            let t = Predicate::always_true();
            let report = check_convergence(&space, p, &t, goal, CheckOptions::default()).unwrap();
            for fairness in [Fairness::WeaklyFair, Fairness::Unfair] {
                let resident = report.verdict(fairness);
                let serial_opts = CheckOptions::default()
                    .threads(1)
                    .segment_states(sizes[seg_pick]);
                let stolen_opts = serial_opts.threads(threads);
                let (j1, b1) = Journal::memory();
                let (r1, s1) =
                    check_convergence_frontier_stats(p, &t, goal, fairness, serial_opts, &j1)
                        .unwrap();
                let (jn, bn) = Journal::memory();
                let (rn, sn) =
                    check_convergence_frontier_stats(p, &t, goal, fairness, stolen_opts, &jn)
                        .unwrap();
                prop_assert_eq!(&r1, resident, "serial frontier vs resident ({:?})", fairness);
                prop_assert_eq!(&rn, resident, "stolen frontier vs resident ({:?})", fairness);
                prop_assert_eq!(s1, sn, "stats must not depend on the thread count");
                prop_assert_eq!(
                    journal_events(j1, &b1),
                    journal_events(jn, &bn),
                    "journals must not depend on the thread count"
                );
            }
        }
    }
}

/// Strategy: a bounded domain that may hold a single value, start below
/// zero, or be boolean — every shape the odometer step must carry across.
fn step_domain_strategy() -> BoxedStrategy<Domain> {
    prop_oneof![
        Just(Domain::Bool),
        (-4i64..=2, 0i64..=3).prop_map(|(min, span)| Domain::range(min, min + span)),
        (1usize..=3).prop_map(|n| Domain::enumeration((0..n).map(|i| format!("label{i}")))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The odometer step is the decoder's successor: stepping the decoding
    /// of every id gives the decoding of the next id, and the last id (a
    /// carry through every variable) wraps to the first.
    #[test]
    fn step_state_follows_decode_state(
        domains in proptest::collection::vec(step_domain_strategy(), 1..=6)
    ) {
        let p = program_over(domains);
        let index = SpaceIndex::of_program(&p, CheckOptions::default()).unwrap();
        let mut stepped = index.scratch_state();
        index.decode_state(StateId::from_index(0), &mut stepped);
        for i in 1..=index.len() {
            index.step_state(&mut stepped);
            let want = index.state(StateId::from_index(i % index.len()));
            prop_assert_eq!(&stepped, &want, "step to id {} of {}", i, index.len());
        }
    }
}

/// One random action of [`program_with_moves`]: `(guard var, write var,
/// other var, shape, delta)`. Shapes: 0 wraps the written variable by
/// `delta`; 1 is a self-loop; 2 also wraps `other` without declaring it;
/// 3 writes past the written variable's domain (above or below by
/// `delta`); 4 wraps both and declares both.
type Move = (usize, usize, usize, u8, i64);

/// Build a program over `domains` with one action per [`Move`]. Each
/// guard holds where its variable is off one value, so an escaping
/// action fails at some rows and not others.
fn program_with_moves(domains: Vec<Domain>, moves: Vec<Move>) -> Program {
    let mut b = Program::builder("random-moves");
    let vars: Vec<_> = domains
        .iter()
        .enumerate()
        .map(|(i, d)| b.var(format!("v{i}"), d.clone()))
        .collect();
    let bounds: Vec<(i64, i64)> = domains
        .iter()
        .map(|d| (d.min_value(), d.size().unwrap() as i64))
        .collect();
    for (k, (g, w, o, shape, delta)) in moves.into_iter().enumerate() {
        let (g, w, o) = (g % vars.len(), w % vars.len(), o % vars.len());
        let (gv, wv, ov) = (vars[g], vars[w], vars[o]);
        let off = bounds[g].0 + k as i64 % bounds[g].1;
        let guard = move |s: &State| s.get(gv) != off;
        let wrap = move |s: &mut State, v: VarId, (min, size): (i64, i64)| {
            let x = s.get(v);
            s.set(v, min + (x - min + delta).rem_euclid(size));
        };
        let (wb, ob) = (bounds[w], bounds[o]);
        let name = format!("a{k}");
        match shape {
            0 => b.closure_action(name, [gv, wv], [wv], guard, move |s| wrap(s, wv, wb)),
            1 => b.closure_action(name, [gv], [wv], guard, |_| {}),
            2 => b.closure_action(name, [gv, wv], [wv], guard, move |s| {
                wrap(s, wv, wb);
                wrap(s, ov, ob);
            }),
            3 => b.closure_action(name, [gv], [wv], guard, move |s| {
                let out = if delta % 2 == 0 {
                    wb.0 + wb.1 - 1 + delta
                } else {
                    wb.0 - delta
                };
                s.set(wv, out);
            }),
            _ => b.closure_action(name, [gv, wv, ov], [wv, ov], guard, move |s| {
                wrap(s, wv, wb);
                wrap(s, ov, ob);
            }),
        };
    }
    b.build()
}

/// A row as a comparable value: the `(action, successor)` pairs, or the
/// escaping action and variable names.
type RowOutcome = Result<Vec<(ActionId, StateId)>, (String, String)>;

/// The reference row of `id`: each enabled action's successor built
/// afresh and looked up with `id_of`; an escape names the first
/// variable outside its domain.
fn reference_row(p: &Program, index: &SpaceIndex, id: StateId) -> RowOutcome {
    let state = index.state(id);
    let mut row = Vec::new();
    for a in p.action_ids() {
        let act = p.action(a);
        if !act.enabled(&state) {
            continue;
        }
        let succ = act.successor(&state);
        let Some(t) = index.id_of(&succ) else {
            let escaped = (0..p.var_count())
                .map(VarId::from_index)
                .find(|&v| {
                    let d = p.var(v).domain();
                    let off = succ.get(v) - d.min_value();
                    off < 0 || off >= d.size().unwrap() as i64
                })
                .unwrap();
            return Err((act.name().to_string(), p.var(escaped).name().to_string()));
        };
        row.push((a, t));
    }
    Ok(row)
}

fn decoded_row(rows: &mut Decoder<'_>, id: StateId) -> RowOutcome {
    match rows.row(id) {
        Ok(row) => Ok(row.iter().collect()),
        Err(CheckError::EscapedDomain { action, var }) => Err((action, var)),
        Err(e) => panic!("unexpected row error {e}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `Decoder` rows (ids from the changed slots, states advanced by
    /// carries) equal rows built with `Action::successor` and `id_of`,
    /// escapes included, whether the rows are asked for consecutively,
    /// ascending with random gaps, or descending; and advancing the
    /// decoding of `i` by `k` is the decoding of `i + k`.
    #[test]
    fn decoder_rows_match_successor_and_id_of(
        domains in proptest::collection::vec(step_domain_strategy(), 1..=5),
        moves in proptest::collection::vec(
            (0usize..5, 0usize..5, 0usize..5, 0u8..5, 1i64..=3),
            0..=5,
        ),
        gaps in proptest::collection::vec(1usize..=9, 1..=16),
        jumps in proptest::collection::vec((any::<u64>(), any::<u64>()), 8),
    ) {
        let p = program_with_moves(domains, moves);
        let index = SpaceIndex::of_program(&p, CheckOptions::default()).unwrap();
        let n = index.len();
        let want: Vec<RowOutcome> =
            index.ids().map(|id| reference_row(&p, &index, id)).collect();

        let ascending: Vec<usize> = gaps
            .iter()
            .cycle()
            .scan(0usize, |i, &gap| {
                let at = *i;
                *i += gap;
                Some(at)
            })
            .take_while(|&i| i < n)
            .collect();
        for (name, order) in [
            ("consecutive", (0..n).collect::<Vec<_>>()),
            ("gapped", ascending),
            ("descending", (0..n).rev().collect()),
        ] {
            let mut rows = Decoder::new(&p, &index);
            for i in order {
                let id = StateId::from_index(i);
                prop_assert_eq!(decoded_row(&mut rows, id), want[i].clone(), "{} row {}", name, i);
            }
        }

        let pairs = jumps
            .iter()
            .map(|&(a, b)| {
                let i = (a % n as u64) as usize;
                (i, (b % (n - i) as u64) as usize)
            })
            .chain([(0, n - 1), (n - 1, 0)]);
        let mut advanced = index.scratch_state();
        for (i, k) in pairs {
            index.decode_state(StateId::from_index(i), &mut advanced);
            index.advance_state(&mut advanced, k);
            prop_assert_eq!(&advanced, &index.state(StateId::from_index(i + k)), "{} + {}", i, k);
        }
    }
}

/// A pseudo-random predicate over every variable of `p`: holds at about
/// `percent`% of the states, chosen by hashing the slots with `seed`.
fn hashed_predicate(p: &Program, name: &str, seed: u64, percent: u64) -> Predicate {
    Predicate::new(name, p.var_ids(), move |s: &State| {
        let mut h = seed;
        for &v in s.slots() {
            h = (h ^ v as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            h ^= h >> 29;
        }
        h % 100 < percent
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The fused pass equals one pass per predicate: `for_predicates`
    /// returns, per predicate, exactly the cache `for_predicate` builds and
    /// the bits a direct evaluation gives, serially and with N workers,
    /// on spaces whose size is rarely a multiple of 64.
    #[test]
    fn fused_predicate_caches_match_per_predicate_caches(
        domains in proptest::collection::vec(domain_strategy(), 4..=8),
        seeds in proptest::collection::vec((0u64..1000, 0u64..=100), 0..=5),
        threads in 2usize..=8,
    ) {
        let p = program_over(domains);
        let space = StateSpace::enumerate(&p).unwrap();
        let preds: Vec<Predicate> = seeds
            .iter()
            .map(|&(seed, percent)| hashed_predicate(&p, "r", seed, percent))
            .collect();
        let refs: Vec<&Predicate> = preds.iter().collect();
        for threads in [1, threads] {
            let opts = CheckOptions::default().threads(threads);
            let fused = Bitset::for_predicates(space.index(), &refs, opts).unwrap();
            prop_assert_eq!(fused.len(), preds.len());
            for (bits, pred) in fused.iter().zip(&preds) {
                prop_assert_eq!(bits, &Bitset::for_predicate(&space, pred, opts).unwrap());
                prop_assert_eq!(bits.len(), space.len());
                for id in space.ids() {
                    prop_assert_eq!(bits.contains(id), pred.holds(&space.state(id)));
                }
            }
        }
    }

    /// One sweep per assumption answers every (action, predicate)
    /// question of a mask group: bit `j` of `broken[a]` is set exactly
    /// when `preserves_given_bits` finds a violation of predicate `j` by
    /// `a`, bit `j` of `leaves[a]` when some transition of `a` from an
    /// assumed state leads outside predicate `j`, and bit `j` of
    /// `unguarded` when some assumed state outside predicate `j` enables
    /// no action mapped to slot `j`, for 1 to 64 predicates, on both row
    /// sources at 1, 2 and 8 threads. The lowest-id witness scans agree
    /// with a scan of every state in id order.
    #[test]
    fn breaking_actions_match_per_action_preservation(
        domains in proptest::collection::vec(domain_strategy(), 1..=5),
        actions in proptest::collection::vec((0usize..5, 0usize..5, 1i64..=3), 0..=5),
        pred_seeds in proptest::collection::vec((0u64..1000, 30u64..=100), 64),
        // A full group half the time, so its top bit is exercised.
        width in prop_oneof![Just(64usize), 1usize..=64],
        assume_seed in (0u64..1000, 0u64..=100),
        // Per action, the slot it repairs (none when past the group).
        repair_of in proptest::collection::vec(0usize..80, 5),
    ) {
        let p = program_with_actions(domains, actions);
        let space = StateSpace::enumerate(&p).unwrap();
        let decoded = Decoder::new(&p, space.index());
        let mut preds: Vec<Predicate> = pred_seeds[..width]
            .iter()
            .map(|&(seed, percent)| hashed_predicate(&p, "pred", seed, percent))
            .collect();
        preds.push(hashed_predicate(&p, "assuming", assume_seed.0, assume_seed.1));
        let refs: Vec<&Predicate> = preds.iter().collect();
        let mut caches = Bitset::for_predicates(space.index(), &refs, CheckOptions::serial()).unwrap();
        let assuming = caches.pop().unwrap();
        let packed: Vec<&Bitset> = caches.iter().collect();
        let masks = MaskColumn::pack(&packed, CheckOptions::serial()).unwrap();
        let n = p.action_count();
        let slots: Vec<u64> = repair_of[..n]
            .iter()
            .map(|&j| if j < width { 1 << j } else { 0 })
            .collect();
        let mut broken = vec![0u64; n];
        for a in p.action_ids() {
            for (j, bits) in caches.iter().enumerate() {
                let hit = preserves_given_bits(&space, a, bits, &assuming, CheckOptions::serial())
                    .unwrap()
                    .is_some();
                broken[a.index()] |= u64::from(hit) << j;
            }
        }
        // Brute force over every assumed state and its row.
        let mut leaves = vec![0u64; n];
        let mut unguarded = 0u64;
        for id in assuming.iter_ones().map(StateId::from_index) {
            let row = space.successors(id);
            for (j, bits) in caches.iter().enumerate() {
                for &(a, succ) in &row {
                    leaves[a.index()] |= u64::from(!bits.contains(succ)) << j;
                }
                let repaired = slots.iter().any(|&s| s >> j & 1 == 1);
                let enabled = row.iter().any(|&(a, _)| slots[a.index()] >> j & 1 == 1);
                unguarded |= u64::from(repaired && !bits.contains(id) && !enabled) << j;
            }
        }
        for threads in [1, 2, 8] {
            let opts = CheckOptions::default().threads(threads).segment_states(7);
            for (source, found) in [
                ("resident", breaking_actions(&space, &slots, &masks, &assuming, opts).unwrap()),
                ("decoded", breaking_actions(&decoded, &slots, &masks, &assuming, opts).unwrap()),
            ] {
                prop_assert_eq!(&found.broken, &broken, "{}, threads={}", source, threads);
                prop_assert_eq!(&found.leaves, &leaves, "{}, threads={}", source, threads);
                prop_assert_eq!(found.unguarded, unguarded, "{}, threads={}", source, threads);
            }
        }
        // Each set bit has a witness, the lowest one in id order.
        let opts = CheckOptions::default().threads(8).segment_states(7);
        for a in p.action_ids() {
            let j = repair_of[a.index()];
            let Some(bits) = caches.get(j) else { continue };
            let expected = assuming.iter_ones().map(StateId::from_index).find_map(|id| {
                let (_, succ) = space.successors(id).into_iter().find(|&(b, _)| b == a)?;
                (!bits.contains(succ)).then(|| Violation {
                    action: a,
                    before: space.state(id),
                    after: space.state(succ),
                })
            });
            prop_assert_eq!(expected.is_some(), leaves[a.index()] >> j & 1 == 1);
            prop_assert_eq!(&first_leaving(&space, a, &assuming, bits, opts).unwrap(), &expected);
            prop_assert_eq!(&first_leaving(&decoded, a, &assuming, bits, opts).unwrap(), &expected);
            let outside = assuming.and(&bits.not());
            let expected = outside
                .iter_ones()
                .map(StateId::from_index)
                .find(|&id| space.successors(id).iter().all(|&(b, _)| b != a))
                .map(|id| space.state(id));
            prop_assert_eq!(first_disabled(&space, a, &outside, opts).unwrap(), expected);
            prop_assert_eq!(first_disabled(&decoded, a, &outside, opts).unwrap(), expected);
        }
    }

    /// A mask column packs 1 to 64 bitsets at `⌈P/8⌉` bytes per state:
    /// bit `j` of `at(i)` is bitset `j` at `i` for every state, including
    /// the last, whose load reads the column's padding, over lengths that
    /// are not a multiple of 64, serially and at 2 and 8 threads.
    #[test]
    fn mask_column_bits_match_their_bitsets(
        words in 0usize..40,
        tail in 1usize..64,
        seeds in proptest::collection::vec((any::<u64>(), 0u64..=100), 1..=64),
    ) {
        let len = words * 64 + tail;
        let caches: Vec<Bitset> = seeds
            .iter()
            .map(|&(seed, percent)| {
                let mut bits = Bitset::zeros(len);
                for i in 0..len {
                    let h = (seed ^ i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    if (h >> 32) % 100 < percent {
                        bits.set(i);
                    }
                }
                bits
            })
            .collect();
        let refs: Vec<&Bitset> = caches.iter().collect();
        for threads in [1, 2, 8] {
            let masks = MaskColumn::pack(&refs, CheckOptions::default().threads(threads)).unwrap();
            prop_assert_eq!(masks.len(), len);
            for i in 0..len {
                let want = caches
                    .iter()
                    .enumerate()
                    .fold(0u64, |m, (j, bits)| m | u64::from(bits.get(i)) << j);
                prop_assert_eq!(masks.at(i), want, "state {} at threads={}", i, threads);
            }
        }
    }
}

/// A design over `domains` with one convergence action per constraint:
/// repair `k` guards on `guard_seed`'s hashed predicate over every
/// variable and bumps one variable, wrapping within its domain, so that
/// guards miss some violations and effects fail to establish some
/// constraints.
fn random_repair_design(
    domains: &[Domain],
    repairs: &[(usize, i64, u64, u64, u64)],
    span_seed: u64,
) -> Design {
    let mut b = Program::builder("random-repairs");
    let vars: Vec<_> = domains
        .iter()
        .enumerate()
        .map(|(i, d)| b.var(format!("v{i}"), d.clone()))
        .collect();
    let shape = b.build();
    let mut b = Program::builder("random-repairs");
    for (i, d) in domains.iter().enumerate() {
        b.var(format!("v{i}"), d.clone());
    }
    let mut constraints = Vec::new();
    for (k, &(w, delta, guard_seed, c_seed, c_percent)) in repairs.iter().enumerate() {
        let wv = vars[w % vars.len()];
        let wmin = domains[w % vars.len()].min_value();
        let size = domains[w % vars.len()].size().unwrap() as i64;
        let guard = hashed_predicate(&shape, "guard", guard_seed, 70);
        let action = b.convergence_action(
            format!("fix{k}"),
            vars.iter().copied(),
            [wv],
            move |s| guard.holds(s),
            move |s| {
                let v = s.get(wv);
                s.set(wv, wmin + (v - wmin + delta).rem_euclid(size));
            },
        );
        constraints.push((hashed_predicate(&shape, "c", c_seed, c_percent), action));
    }
    let mut design = Design::builder(b.build())
        .partition(NodePartition::new().group("all", vars.iter().copied()))
        .fault_span(hashed_predicate(&shape, "T", span_seed, 90));
    for (k, (pred, action)) in constraints.into_iter().enumerate() {
        design = design.constraint(format!("c{k}"), pred, action);
    }
    design.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The one repair-obligations sweep reports what the per-constraint
    /// loops report, witnesses included: for each constraint, the
    /// lowest-id `T ∧ ¬c` state where its action is disabled, and the
    /// action's transition from the lowest-id `T` state where it misses
    /// `c`.
    #[test]
    fn closure_obligations_match_per_constraint_loops(
        domains in proptest::collection::vec(domain_strategy(), 2..=7),
        repairs in proptest::collection::vec(
            (0usize..6, 1i64..=3, 0u64..1000, 0u64..1000, 40u64..=100),
            1..=5,
        ),
        span_seed in 0u64..1000,
        threads in 1usize..=8,
    ) {
        let design = random_repair_design(&domains, &repairs, span_seed)
            .with_options(CheckOptions::default().threads(threads));
        let report = design.verify().unwrap();
        let space = StateSpace::enumerate(design.program()).unwrap();
        let opts = CheckOptions::serial();
        let t_bits = Bitset::for_predicate(&space, design.fault_span(), opts).unwrap();
        // The per-constraint loops, one pair of scans per constraint.
        let mut unguarded = Vec::new();
        let mut non_establishing = Vec::new();
        for (i, c) in design.constraints().iter().enumerate() {
            let c_bits = Bitset::for_predicate(&space, c.predicate(), opts).unwrap();
            let aid = c.action();
            if let Some(id) = space.ids().find(|&id| {
                t_bits.contains(id)
                    && !c_bits.contains(id)
                    && !space.successors(id).iter().any(|&(a, _)| a == aid)
            }) {
                unguarded.push((i, space.state(id)));
            }
            for id in space.ids() {
                if !t_bits.contains(id) {
                    continue;
                }
                let Some(&(_, succ)) = space.successors(id).iter().find(|&&(a, _)| a == aid) else {
                    continue;
                };
                if !c_bits.contains(succ) {
                    non_establishing.push((
                        i,
                        Violation {
                            action: aid,
                            before: space.state(id),
                            after: space.state(succ),
                        },
                    ));
                    break;
                }
            }
        }
        prop_assert_eq!(&report.closure.unguarded_constraints, &unguarded);
        prop_assert_eq!(&report.closure.non_establishing, &non_establishing);
    }
}

/// The longest-path DFS the worst-case bound used before the peel heights
/// replaced it, kept as their reference: the longest path through the
/// region `from ∧ ¬to`, counting the exit step, or `None` when the region
/// has a cycle or a deadlocked state. It counts an edge leaving both
/// `from` and `to` as an exit.
fn reference_worst_case_moves(space: &StateSpace, from: &Bitset, to: &Bitset) -> Option<u64> {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Done(u64),
    }
    let region: Vec<StateId> = space
        .ids()
        .filter(|&id| from.contains(id) && !to.contains(id))
        .collect();
    let mut local = vec![u32::MAX; space.len()];
    for (li, id) in region.iter().enumerate() {
        local[id.index()] = li as u32;
    }
    let mut mark = vec![Mark::White; region.len()];
    for start in 0..region.len() {
        if matches!(mark[start], Mark::Done(_)) {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        mark[start] = Mark::Grey;
        while let Some(&mut (v, ref mut ci)) = stack.last_mut() {
            let succs = space.successor_ids(region[v]);
            if succs.is_empty() {
                return None;
            }
            if *ci < succs.len() {
                let tl = local[succs[*ci].index()];
                *ci += 1;
                if tl == u32::MAX {
                    continue;
                }
                match mark[tl as usize] {
                    Mark::White => {
                        mark[tl as usize] = Mark::Grey;
                        stack.push((tl as usize, 0));
                    }
                    Mark::Grey => return None,
                    Mark::Done(_) => {}
                }
            } else {
                let best = succs
                    .iter()
                    .map(|t| match local[t.index()] {
                        u32::MAX => 1,
                        tl => match mark[tl as usize] {
                            Mark::Done(d) => 1 + d,
                            _ => unreachable!("children are resolved before their parent"),
                        },
                    })
                    .max()
                    .unwrap_or(0);
                mark[v] = Mark::Done(best);
                stack.pop();
            }
        }
    }
    Some(
        mark.iter()
            .map(|m| match m {
                Mark::Done(d) => *d,
                _ => unreachable!("all region states are resolved"),
            })
            .max()
            .unwrap_or(0),
    )
}

/// The residual by its definition, as a greatest fixpoint: starting from
/// the region `from ∧ ¬to`, repeatedly drop every state with no successor
/// left in the set. Returns the region's size and the fixpoint.
fn reference_residual(space: &StateSpace, from: &Bitset, to: &Bitset) -> (u64, Bitset) {
    let mut alive = from.and(&to.not());
    let region = alive.count_ones() as u64;
    loop {
        let mut next = Bitset::zeros(space.len());
        for i in alive.iter_ones() {
            let succs = space.successor_ids(StateId::from_index(i));
            if succs.iter().any(|&t| alive.contains(t)) {
                next.set(i);
            }
        }
        if next.count_ones() == alive.count_ones() {
            return (region, alive);
        }
        alive = next;
    }
}

/// The one region pass answers what three passes answered before: on
/// random programs with random goals and random, usually non-closed fault
/// spans, its bound equals the longest-path DFS's (except that an escape
/// from the fault span now has no bound), its region and peel sizes match
/// the greatest-fixpoint residual's, the two daemons' verdicts stand in
/// the order the docs claim, and the report is the same from predicates
/// or caches, serially and with N workers. Every verdict kind must occur
/// across the cases, and a goal widened to converge must give bounds
/// above 1.
#[test]
fn one_region_pass_matches_the_longest_path_dfs() {
    use proptest::strategy::Strategy;
    const CASES: usize = 96;
    let mut rng = proptest::test_runner::rng_for("one_region_pass_matches_the_longest_path_dfs");
    let domains = proptest::collection::vec(domain_strategy(), 2..=9);
    let actions = proptest::collection::vec((0usize..9, 0usize..9, 1i64..=3), 1..=6);
    let seeds = (0u64..1000, 0u64..1000, 5u64..=95, 40u64..=100, 2usize..=8);
    // Converges, deadlock, escape, divergence.
    let mut kinds = [0usize; 4];
    let mut longest = 0;
    for case in 0..CASES {
        let p = program_with_actions(domains.generate(&mut rng), actions.generate(&mut rng));
        let (goal_seed, span_seed, goal_percent, span_percent, threads) = seeds.generate(&mut rng);
        let goal = hashed_predicate(&p, "goal", goal_seed, goal_percent);
        let span = hashed_predicate(&p, "span", span_seed, span_percent);
        let space = StateSpace::enumerate(&p).unwrap();
        let opts = CheckOptions::serial();
        let from = Bitset::for_predicate(&space, &span, opts).unwrap();
        let to = Bitset::for_predicate(&space, &goal, opts).unwrap();
        let reference = reference_worst_case_moves(&space, &from, &to);
        let serial = check_convergence_bits(&space, &p, &from, &to, opts).unwrap();
        kinds[match serial.unfair {
            ConvergenceResult::Converges => 0,
            ConvergenceResult::DeadlockOutsideTarget { .. } => 1,
            ConvergenceResult::EscapesFaultSpan { .. } => 2,
            ConvergenceResult::Divergence { .. } => 3,
        }] += 1;
        let expected = match serial.unfair {
            ConvergenceResult::EscapesFaultSpan { .. } => None,
            _ => reference,
        };
        assert_eq!(serial.worst_case_moves, expected, "case {case}: bound");
        // A deadlock or escape ends the pass before any state is peeled.
        let (region, residual) = reference_residual(&space, &from, &to);
        let residual = residual.count_ones() as u64;
        let event = matches!(
            serial.unfair,
            ConvergenceResult::DeadlockOutsideTarget { .. }
                | ConvergenceResult::EscapesFaultSpan { .. }
        );
        let peeled = if event { 0 } else { region - residual };
        assert_eq!(serial.stats.region_states, region, "case {case}: region");
        assert_eq!(serial.stats.peeled_states, peeled, "case {case}: peeled");
        assert_eq!(
            serial.stats.sccs_found == 0,
            event || residual == 0,
            "case {case}: a nonempty residual holds a cycle"
        );
        // The two daemons agree in order: unfair convergence implies fair
        // convergence, a fair divergence is an unfair one, a deadlock or
        // escape is the same witness under both, and a bound stands
        // exactly beside unfair convergence.
        let (fair, unfair) = (&serial.weakly_fair, &serial.unfair);
        if unfair.converges() {
            assert!(fair.converges(), "case {case}: unfair ⇒ fair");
        }
        if let ConvergenceResult::Divergence { .. } = fair {
            assert!(
                matches!(unfair, ConvergenceResult::Divergence { .. }),
                "case {case}: a fair divergence is an unfair one, got {unfair:?}"
            );
        }
        let witness = |r: &ConvergenceResult| {
            matches!(
                r,
                ConvergenceResult::DeadlockOutsideTarget { .. }
                    | ConvergenceResult::EscapesFaultSpan { .. }
            )
        };
        if witness(fair) || witness(unfair) {
            assert_eq!(fair, unfair, "case {case}: one witness for both daemons");
        }
        assert_eq!(
            serial.worst_case_moves.is_some(),
            unfair.converges(),
            "case {case}: a bound iff unfair convergence"
        );
        // The predicate-level entry point is the same pass.
        assert_eq!(
            check_convergence(&space, &p, &span, &goal, opts).unwrap(),
            serial,
            "case {case}: predicates vs caches"
        );
        let parallel = check_convergence_bits(
            &space,
            &p,
            &from,
            &to,
            CheckOptions::default().threads(threads),
        )
        .unwrap();
        assert_eq!(parallel, serial, "case {case}: {threads} threads");

        // The random goals above rarely leave a converging region that is
        // not empty. Widening the goal by every state that could stay
        // outside it forever, and by every deadlock, leaves one that
        // converges, so its heights meet the DFS's on real paths.
        let all = Bitset::ones(space.len());
        let (_, stays) = reference_residual(&space, &all, &to);
        let mut wide = to.or(&stays);
        for id in space.ids().filter(|&id| space.successor_ids(id).is_empty()) {
            wide.set(id.index());
        }
        let converging = check_convergence_bits(&space, &p, &all, &wide, opts).unwrap();
        let bound = reference_worst_case_moves(&space, &all, &wide);
        assert!(converging.unfair.converges(), "case {case}: wide goal");
        assert_eq!(
            converging.worst_case_moves, bound,
            "case {case}: wide bound"
        );
        let stats = converging.stats;
        assert_eq!(stats.peeled_states, stats.region_states, "case {case}");
        longest = longest.max(bound.expect("a converging region has a bound"));
    }
    assert!(
        kinds.iter().all(|&k| k > 0),
        "verdict kinds seen: {kinds:?}"
    );
    assert!(longest > 1, "longest converging bound: {longest}");
}

/// Brute-force containment theory of one instance, from pairwise
/// `Topology` distances and a BFS from the root through correct nodes
/// only: `(legit, distance to the nearest liar, safe)` per node, for
/// the safety comparison `admits(legit, distance)`.
fn brute_force_theory(
    t: &nonmask_graph::Topology,
    liars: &[usize],
    admits: fn(u64, u64) -> bool,
) -> Vec<(Option<u64>, u64, bool)> {
    let n = t.len();
    let mut legit = vec![None; n];
    legit[0] = Some(0u64);
    let mut frontier = vec![0usize];
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &v in &frontier {
            for &w in t.neighbors(v) {
                if legit[w].is_none() && !liars.contains(&w) {
                    legit[w] = legit[v].map(|l| l + 1);
                    next.push(w);
                }
            }
        }
        frontier = next;
    }
    (0..n)
        .map(|v| {
            let to_liar = liars.iter().map(|&b| t.distance(v, b)).min().unwrap();
            let safe = matches!(legit[v], Some(l) if admits(l, to_liar));
            (legit[v], to_liar, safe)
        })
        .collect()
}

/// The state in which every root-reachable correct node holds its
/// legitimate distance and, when `parents` is given, its lowest-id
/// legitimate parent; everything else stays at the domain minimum.
fn all_legitimate_state(
    program: &Program,
    t: &nonmask_graph::Topology,
    theory: &[(Option<u64>, u64, bool)],
    dist: impl Fn(usize) -> VarId,
    parents: Option<&dyn Fn(usize) -> VarId>,
) -> State {
    let mut state = program.min_state();
    for (v, &(legit, _, _)) in theory.iter().enumerate() {
        let Some(l) = legit else { continue };
        state.set(dist(v), l as i64);
        if let Some(parent) = parents {
            let p = if v == 0 {
                0
            } else {
                *t.neighbors(v)
                    .iter()
                    .filter(|&&k| theory[k].0 == Some(l - 1))
                    .min()
                    .unwrap()
            };
            state.set(parent(v), p as i64);
        }
    }
    state
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The shared Byzantine containment model against a brute-force
    /// theory on random connected topologies, for both protocols: the
    /// safe set and predicted radius match, and on the all-legitimate
    /// state every containment goal and the safe goal hold while the
    /// containment map measures exactly the predicted radius.
    #[test]
    fn byzantine_model_matches_brute_force_on_random_topologies(
        n in 4usize..=16,
        extra in 2usize..=3,
        seed in 0u64..1_000_000,
        picks in proptest::collection::vec(0usize..1_000, 1..=3),
    ) {
        use nonmask_conform::ContainmentMap;
        use nonmask_graph::Topology;
        use nonmask_protocols::{ByzantineModel, ContainmentTheory, MinPlusOne, SpanningTree};

        let t = Topology::random_connected(n, extra, seed);
        let mut liars: Vec<usize> = picks.iter().map(|p| 1 + p % (n - 1)).collect();
        liars.sort_unstable();
        liars.dedup();

        let check = |program: &Program,
                     model: &ByzantineModel,
                     theory: &[(Option<u64>, u64, bool)],
                     state: &State|
         -> Result<(), TestCaseError> {
            let safe: Vec<bool> = theory.iter().map(|&(_, _, s)| s).collect();
            prop_assert_eq!(model.safe_set(), safe);
            let radius = theory
                .iter()
                .enumerate()
                .filter(|&(v, &(_, _, s))| !liars.contains(&v) && !s)
                .map(|(_, &(_, d, _))| d)
                .max()
                .unwrap_or(0);
            prop_assert_eq!(model.predicted_radius(), radius);
            program.validate_state(state).unwrap();
            for r in 0..=n as u64 {
                prop_assert!(model.containment_goal(r).holds(state), "radius {}", r);
            }
            prop_assert!(model.safe_goal().holds(state));
            let map = ContainmentMap::new(model).unwrap();
            prop_assert_eq!(map.emit(state, "sim", seed, &Journal::disabled()), radius);
            Ok(())
        };

        let bfs = MinPlusOne::with_byzantine(&t, 0, &liars);
        let theory = brute_force_theory(&t, &liars, |l, d| l <= d);
        let state = all_legitimate_state(bfs.program(), &t, &theory, |v| bfs.dist_var(v), None);
        check(bfs.program(), bfs.model(), &theory, &state)?;

        let tree = SpanningTree::with_byzantine(&t, 0, &liars);
        let theory = brute_force_theory(&t, &liars, |l, d| l < d);
        let parent = |v| tree.parent_var(v);
        let state =
            all_legitimate_state(tree.program(), &t, &theory, |v| tree.dist_var(v), Some(&parent));
        check(tree.program(), tree.model(), &theory, &state)?;
    }
}
