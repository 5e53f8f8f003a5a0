//! The block sweeps against brute force on random programs.
//!
//! [`Bitset::for_predicates`], [`preservation`] and the convergence peel
//! of [`check_convergence_bits`] read a space a block of `P ≤ 64` states
//! at a time (see `nonmask_checker::footprint`). These
//! properties draw domain mixes whose blocks hold 64 states, 27 (three
//! three-valued variables, which do not divide a word) and 1 (a last
//! domain of more than 64 values), with random predicates and actions over
//! random footprints. A "wide" space has more than
//! [`TABLE_CAP`] states, and its first predicate and first action read
//! every variable, so that they are evaluated per row inside their block.
//! Each case compares the caches with [`Predicate::holds`] at every state,
//! and the sweep's answers with [`preserves_given_bits`] and with a
//! brute-force scan of [`StateSpace::successors`], at 1 and 4 threads and
//! at tiny, block-sized and automatic segments. The convergence report is
//! compared with a longest path by memoized recursion, a residual by
//! greatest-fixpoint iteration and the lowest event by a scan in id
//! order, on programs with and without cycles, deadlocks and escapes.
//!
//! Each property runs 24 cases, or `PROPTEST_CASES` when it is set (CI
//! runs 2000 in release).

use std::ops::Range;

use nonmask_checker::{
    check_convergence_bits, check_convergence_frontier_stats, preservation, preserves_given_bits,
    Bitset, CheckError, CheckOptions, ConvergenceReport, ConvergenceResult, ConvergenceStats,
    Fairness, Given, StateId, StateSpace, TABLE_CAP,
};
use nonmask_obs::Journal;
use nonmask_program::{Domain, Predicate, Program, State, VarId};
use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;

/// `PROPTEST_CASES` cases, or 24.
fn cases() -> ProptestConfig {
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok());
    ProptestConfig::with_cases(cases.unwrap_or(24))
}

/// A random space: its domains and the states per block they give.
#[derive(Debug, Clone)]
struct Space {
    domains: Vec<Domain>,
    block: usize,
    wide: bool,
}

/// Domains whose block holds 64 states (six booleans, three four-valued
/// variables, or 2·8·4), 27 states (three three-valued variables, after
/// a variable of at least three values) or 1 state (a last domain of 65
/// to 90 values). A wide space's prefix makes it larger than
/// [`TABLE_CAP`].
fn space_strategy() -> impl Strategy<Value = Space> {
    (0usize..3, any::<bool>(), 0usize..3, -3i64..=3).prop_map(|(kind, wide, shape, min)| {
        let range = |size: i64| Domain::range(min, min + size - 1);
        let (prefix, suffix, block): (Vec<i64>, Vec<i64>, usize) = match kind {
            0 => {
                let suffix = [vec![2; 6], vec![4, 4, 4], vec![2, 8, 4]][shape].clone();
                let prefix = if wide {
                    vec![5, 5, 3]
                } else {
                    vec![3, 2][..1 + shape % 2].to_vec()
                };
                (prefix, suffix, 64)
            }
            1 => {
                // The variable before the suffix has at least three values,
                // so that it does not join the block.
                let prefix = match (wide, shape % 2) {
                    (true, _) => vec![5, 5, 7],
                    (false, 0) => vec![3 + shape as i64],
                    (false, _) => vec![2, 3 + shape as i64],
                };
                (prefix, vec![3, 3, 3], 27)
            }
            _ => {
                let prefix = if wide {
                    vec![4, 4, 4]
                } else {
                    vec![3, 2][..shape % 3].to_vec()
                };
                (prefix, vec![65 + 12 * shape as i64], 1)
            }
        };
        let domains = prefix.into_iter().chain(suffix).map(|size| match size {
            2 if min % 2 == 0 => Domain::Bool,
            size => range(size),
        });
        Space {
            domains: domains.collect(),
            block,
            wide,
        }
    })
}

/// The variables of `vars` whose bit `mask` sets, or every variable when
/// `all` is set.
fn subset(vars: &[VarId], mask: u32, all: bool) -> Vec<VarId> {
    let chosen = vars
        .iter()
        .enumerate()
        .filter(|&(i, _)| all || mask >> i & 1 == 1);
    chosen.map(|(_, &v)| v).collect()
}

/// A hash of the values of `vars` at `s`, mixed with `seed`.
fn hash(seed: u64, vars: &[VarId], s: &State) -> u64 {
    vars.iter().fold(seed, |h, &v| {
        let h = (h ^ s.get(v) as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^ h >> 29
    })
}

/// One random action: `(guard mask, write var, second write var, delta,
/// guard seed)`. The guard hashes the masked variables; the effect wraps
/// each written variable by `delta` within its domain.
type ActionSpec = (u32, usize, Option<usize>, i64, u64);

/// One random predicate: `(mask, seed, percent)` — it holds where the hash
/// of the masked variables falls under `percent`.
type PredSpec = (u32, u64, u64);

/// The program over `space` with `actions`, and the predicates of
/// `preds`. On a wide space the first action and the first predicate read
/// every variable. A `descending` action is enabled only where its first
/// written variable is above its minimum, and lowers each written
/// variable by `delta`, not below its minimum, so that every transition
/// lowers the state id and the program has no cycle.
fn build(
    space: &Space,
    descending: bool,
    actions: &[ActionSpec],
    preds: &[PredSpec],
) -> (Program, Vec<Predicate>) {
    let mut b = Program::builder("blocks");
    let vars: Vec<VarId> = space
        .domains
        .iter()
        .enumerate()
        .map(|(i, d)| b.var(format!("v{i}"), d.clone()))
        .collect();
    let bounds: Vec<(i64, i64)> = space
        .domains
        .iter()
        .map(|d| (d.min_value(), d.size().unwrap() as i64))
        .collect();
    for (k, &(mask, w, w2, delta, seed)) in actions.iter().enumerate() {
        let guard_vars = subset(&vars, mask, space.wide && k == 0);
        let (w, w2) = (w % vars.len(), w2.map(|o| o % vars.len()));
        let writes: Vec<VarId> = std::iter::once(w)
            .chain(w2.filter(|&o| o != w))
            .map(|i| vars[i])
            .collect();
        let mut reads = guard_vars.clone();
        reads.extend(&writes);
        let wrapped: Vec<(VarId, (i64, i64))> =
            writes.iter().map(|&v| (v, bounds[v.index()])).collect();
        let (first, min) = (wrapped[0].0, wrapped[0].1 .0);
        b.closure_action(
            format!("a{k}"),
            reads,
            writes,
            move |s| hash(seed, &guard_vars, s) % 100 < 70 && (!descending || s.get(first) > min),
            move |s| {
                for &(v, (min, size)) in &wrapped {
                    let x = s.get(v);
                    let y = match descending {
                        true => (x - delta).max(min),
                        false => min + (x - min + delta).rem_euclid(size),
                    };
                    s.set(v, y);
                }
            },
        );
    }
    let preds = preds
        .iter()
        .enumerate()
        .map(|(j, &(mask, seed, percent))| {
            let reads = subset(&vars, mask, space.wide && j == 0);
            let over = reads.clone();
            Predicate::new(format!("p{j}"), reads, move |s| {
                hash(seed, &over, s) % 100 < percent
            })
        })
        .collect();
    (b.build(), preds)
}

fn action_strategy() -> impl Strategy<Value = ActionSpec> {
    (
        any::<u32>(),
        0usize..8,
        prop_oneof![Just(None), (0usize..8).prop_map(Some)],
        1i64..=3,
        any::<u64>(),
    )
}

fn pred_strategy() -> impl Strategy<Value = PredSpec> {
    (
        prop_oneof![Just(u32::MAX), any::<u32>()],
        any::<u64>(),
        20u64..=100,
    )
}

/// Whether `pred`'s footprint is past the table cap, so that it is
/// evaluated per row.
fn per_row(space: &StateSpace, pred: &Predicate) -> bool {
    let index = space.index();
    let keys = pred.reads().iter().map(|v| index.domain_size(v.index()));
    keys.fold(1usize, |n, size| n.saturating_mul(size)) > TABLE_CAP
}

proptest! {
    #![proptest_config(cases())]

    /// The caches equal the predicates at every state, at 1 and 4
    /// threads, and the pass decodes one block per `P` states, plus every
    /// state when a predicate is evaluated per row.
    #[test]
    fn block_caches_match_every_state(
        space in space_strategy(),
        preds in proptest::collection::vec(pred_strategy(), 1..=6),
    ) {
        let (program, preds) = build(&space, false, &[], &preds);
        let states = StateSpace::enumerate(&program).unwrap();
        let refs: Vec<&Predicate> = preds.iter().collect();
        let rows = preds.iter().any(|p| per_row(&states, p));
        prop_assert_eq!(rows, space.wide);
        let len = states.len() as u64;
        let want_decoded = len / space.block as u64 + if rows { len } else { 0 };
        let mut serial = None;
        for threads in [1, 4] {
            let opts = CheckOptions::default().threads(threads);
            let (caches, decoded) =
                Bitset::for_predicates_counted(states.index(), &refs, opts).unwrap();
            prop_assert_eq!(decoded, want_decoded, "threads={}", threads);
            for (bits, pred) in caches.iter().zip(&preds) {
                prop_assert_eq!(bits.len(), states.len());
                for id in states.ids() {
                    prop_assert_eq!(
                        bits.contains(id),
                        pred.holds(&states.state(id)),
                        "{} at {} threads={}", pred.name(), id, threads
                    );
                }
            }
            let serial = serial.get_or_insert(caches.clone());
            prop_assert_eq!(&caches, serial);
        }
    }

    /// Every answer of the one sweep is the per-action scan's, and the
    /// leaving and unguarded answers are a brute-force scan's over
    /// `StateSpace::successors`, for `T` and `S` at random slots and 0 to
    /// 3 nested layers, at 1 and 4 threads and 7-state, 64-state and
    /// automatic segments.
    #[test]
    fn block_preservation_matches_brute_force(
        space in space_strategy(),
        actions in proptest::collection::vec(action_strategy(), 1..=5),
        preds in proptest::collection::vec(pred_strategy(), 2..=7),
        (t_at, s_off) in (0usize..7, 0usize..6),
        // Layers start low, so that most cases have two or three.
        (layer_start, layer_sizes) in (0usize..3, proptest::collection::vec(1usize..=2, 0..=3)),
        repair_of in proptest::collection::vec(0usize..10, 5),
    ) {
        let (program, preds) = build(&space, false, &actions, &preds);
        let states = StateSpace::enumerate(&program).unwrap();
        let refs: Vec<&Predicate> = preds.iter().collect();
        let caches = Bitset::for_predicates(states.index(), &refs, CheckOptions::serial()).unwrap();
        let slots: Vec<&Bitset> = caches.iter().collect();
        let width = slots.len();
        let (t_slot, s_slot) = (t_at % width, (t_at + 1 + s_off % (width - 1)) % width);
        let mut layers: Vec<Range<usize>> = Vec::new();
        let mut next = layer_start % width;
        for size in layer_sizes {
            if next + size > width {
                break;
            }
            layers.push(next..next + size);
            next += size;
        }
        let n = program.action_count();
        let repairs: Vec<Option<usize>> =
            repair_of[..n].iter().map(|&j| (j < width).then_some(j)).collect();
        let premises = [t_slot, s_slot];
        let found =
            preservation(&states, &slots, premises, &repairs, &layers, CheckOptions::serial()).unwrap();
        let (t, s) = (slots[t_slot], slots[s_slot]);
        prop_assert_eq!(found.rows_read(), t.or(s).count_ones() as u64);

        let mut given = vec![(Given::FaultSpan, t.clone()), (Given::Invariant, s.clone())];
        let mut layer_premise = t.and(&s.not());
        for (l, range) in layers.iter().enumerate() {
            given.push((Given::Layer(l), layer_premise.clone()));
            for j in range.clone() {
                layer_premise = layer_premise.and(slots[j]);
            }
        }
        for (premise, states_of) in &given {
            for a in program.action_ids() {
                for (j, bits) in slots.iter().enumerate() {
                    let hit = preserves_given_bits(&states, a, bits, states_of, CheckOptions::serial())
                        .unwrap()
                        .is_some();
                    prop_assert_eq!(found.breaks(*premise, a, j), hit, "{:?} {} slot {}", premise, a, j);
                }
            }
        }

        // Brute force over the rows of `T`.
        let mut leaves = vec![vec![false; width]; n];
        let mut unguarded = vec![false; width];
        for i in t.iter_ones() {
            let row = states.successors(StateId::from_index(i));
            for &(a, succ) in &row {
                for (j, bits) in slots.iter().enumerate() {
                    leaves[a.index()][j] |= !bits.contains(succ);
                }
            }
            for (j, bits) in slots.iter().enumerate() {
                let repaired = repairs.contains(&Some(j));
                let enabled = row.iter().any(|&(a, _)| repairs[a.index()] == Some(j));
                unguarded[j] |= repaired && !bits.get(i) && !enabled;
            }
        }
        for (j, &want) in unguarded.iter().enumerate() {
            prop_assert_eq!(found.unguarded(j), want, "unguarded slot {}", j);
        }
        for a in program.action_ids() {
            for (j, &want) in leaves[a.index()].iter().enumerate() {
                prop_assert_eq!(found.leaves(a, j), want, "{} leaves slot {}", a, j);
            }
        }

        for threads in [1, 4] {
            for segment in [7, 64, 0] {
                let opts = CheckOptions::default().threads(threads).segment_states(segment);
                let got = preservation(&states, &slots, premises, &repairs, &layers, opts).unwrap();
                prop_assert_eq!(&got, &found, "threads={} segment={}", threads, segment);
            }
        }
    }
}

/// The block tables are charged against the memory budget, before they
/// are built.
#[test]
fn block_tables_are_charged_against_the_budget() {
    let space = Space {
        domains: vec![Domain::range(0, 3); 4],
        block: 64,
        wide: false,
    };
    let (program, preds) = build(&space, false, &[(0b11, 0, None, 1, 7)], &[(0b101, 3, 50)]);
    let states = StateSpace::enumerate(&program).unwrap();
    let tight = CheckOptions::serial().memory_budget(16);
    let refs: Vec<&Predicate> = preds.iter().collect();
    let err = Bitset::for_predicates(states.index(), &refs, tight).unwrap_err();
    assert!(
        matches!(
            err,
            CheckError::BudgetExceeded {
                phase: "block tables",
                ..
            }
        ),
        "{err:?}"
    );
    let all = Bitset::ones(states.len());
    let err = preservation(&states, &[&all, &all], [0, 1], &[None], &[], tight).unwrap_err();
    assert!(
        matches!(
            err,
            CheckError::BudgetExceeded {
                phase: "block tables",
                ..
            }
        ),
        "{err:?}"
    );
}

/// The convergence report over `T` and `S` by brute force, where the
/// pass's answer is exact: the lowest-id deadlock or escape by a scan in
/// id order, else the residual by greatest-fixpoint iteration, and with
/// an empty residual the longest path out of the region by memoized
/// recursion. A non-empty residual returns the residual instead, for the
/// divergence checks.
fn reference(
    space: &StateSpace,
    t: &Bitset,
    s: &Bitset,
) -> Result<ConvergenceReport, (ConvergenceStats, Vec<bool>)> {
    let n = space.len();
    let rows: Vec<Vec<usize>> = space
        .ids()
        .map(|id| {
            space
                .successors(id)
                .iter()
                .map(|&(_, to)| to.index())
                .collect()
        })
        .collect();
    let region: Vec<bool> = (0..n).map(|i| t.get(i) && !s.get(i)).collect();
    let states = |count: usize| count as u64;
    let mut stats = ConvergenceStats {
        region_states: states(region.iter().filter(|&&r| r).count()),
        ..ConvergenceStats::default()
    };
    let event = (0..n).filter(|&i| region[i]).find_map(|i| {
        let state = space.state(StateId::from_index(i));
        if rows[i].is_empty() {
            return Some(ConvergenceResult::DeadlockOutsideTarget { state });
        }
        let after = rows[i].iter().find(|&&to| !t.get(to) && !s.get(to))?;
        Some(ConvergenceResult::EscapesFaultSpan {
            before: state,
            after: space.state(StateId::from_index(*after)),
        })
    });
    if let Some(event) = event {
        return Ok(ConvergenceReport {
            weakly_fair: event.clone(),
            unfair: event,
            worst_case_moves: None,
            stats,
        });
    }
    let mut residual = region.clone();
    loop {
        let stay: Vec<bool> = (0..n)
            .map(|i| residual[i] && rows[i].iter().any(|&to| residual[to]))
            .collect();
        if stay == residual {
            break;
        }
        residual = stay;
    }
    let left = states(residual.iter().filter(|&&r| r).count());
    stats.peeled_states = stats.region_states - left;
    if left > 0 {
        return Err((stats, residual));
    }
    fn height(i: usize, rows: &[Vec<usize>], region: &[bool], memo: &mut [Option<u64>]) -> u64 {
        if let Some(h) = memo[i] {
            return h;
        }
        let inside = rows[i].iter().filter(|&&to| region[to]);
        let h = 1 + inside
            .map(|&to| height(to, rows, region, memo))
            .max()
            .unwrap_or(0);
        memo[i] = Some(h);
        h
    }
    let mut memo = vec![None; n];
    let worst = (0..n)
        .filter(|&i| region[i])
        .map(|i| height(i, &rows, &region, &mut memo));
    Ok(ConvergenceReport {
        weakly_fair: ConvergenceResult::Converges,
        unfair: ConvergenceResult::Converges,
        worst_case_moves: Some(worst.max().unwrap_or(0)),
        stats,
    })
}

/// Whether `witness` is a strongly connected set of `residual` with an
/// internal edge, and, under weak fairness, one where every action
/// enabled at all its states has a transition staying inside it.
fn legal_divergence(
    space: &StateSpace,
    residual: &[bool],
    witness: &ConvergenceResult,
    fairness: Fairness,
) -> bool {
    let ConvergenceResult::Divergence {
        states,
        fairness: f,
    } = witness
    else {
        return false;
    };
    let ids: Vec<StateId> = states.iter().map(|st| space.id_of(st).unwrap()).collect();
    let inside = |id: &StateId| ids.contains(id);
    let reaches = |from: StateId, to: StateId| {
        let (mut seen, mut todo) = (vec![from], vec![from]);
        while let Some(id) = todo.pop() {
            for (_, next) in space.successors(id).into_iter().filter(|(_, x)| inside(x)) {
                if next == to {
                    return true;
                }
                if !seen.contains(&next) {
                    seen.push(next);
                    todo.push(next);
                }
            }
        }
        false
    };
    let connected = ids
        .iter()
        .all(|&id| reaches(ids[0], id) && reaches(id, ids[0]));
    let rows: Vec<_> = ids.iter().map(|&id| space.successors(id)).collect();
    let fair = fairness == Fairness::Unfair
        || (0..space.action_count()).all(|a| {
            let everywhere = rows.iter().all(|r| r.iter().any(|(x, _)| x.index() == a));
            let stays = rows
                .iter()
                .flatten()
                .any(|(x, to)| x.index() == a && inside(to));
            !everywhere || stays
        });
    *f == fairness && ids.iter().all(|id| residual[id.index()]) && connected && fair
}

proptest! {
    #![proptest_config(cases())]

    /// The block peel's report is the brute-force reference's: the
    /// lowest event, or with none the bound and the peeled count, or with
    /// a residual the frontier's verdicts and SCC count, each a legal
    /// divergence witness. Every thread count and segment size gives the
    /// same report.
    #[test]
    fn block_peel_matches_brute_force(
        space in space_strategy(),
        descending in any::<bool>(),
        actions in proptest::collection::vec(action_strategy(), 1..=5),
        preds in proptest::collection::vec(pred_strategy(), 2..=2),
        // T: every state, a random predicate (escapes), or the states
        // below an id (closed when the program descends).
        (span, cut) in (0usize..3, 0.0f64..=1.0),
        // S also holds where no action is enabled, so that there is no
        // deadlock.
        absorbing in any::<bool>(),
    ) {
        let (program, preds) = build(&space, descending, &actions, &preds);
        let states = StateSpace::enumerate(&program).unwrap();
        let refs: Vec<&Predicate> = preds.iter().collect();
        let caches = Bitset::for_predicates(states.index(), &refs, CheckOptions::serial()).unwrap();
        let len = states.len();
        let t = match span {
            0 => Bitset::ones(len),
            1 => caches[0].clone(),
            _ => {
                let mut below = Bitset::zeros(len);
                (0..(cut * len as f64) as usize).for_each(|i| below.set(i));
                below
            }
        };
        let mut s = caches[1].clone();
        if absorbing {
            for id in states.ids().filter(|&id| states.successors(id).is_empty()) {
                s.set(id.index());
            }
        }
        let got = check_convergence_bits(&states, &program, &t, &s, CheckOptions::serial()).unwrap();
        match reference(&states, &t, &s) {
            Ok(want) => prop_assert_eq!(&got, &want),
            Err((stats, residual)) => {
                prop_assert_eq!(got.worst_case_moves, None);
                prop_assert_eq!(got.stats.region_states, stats.region_states);
                prop_assert_eq!(got.stats.peeled_states, stats.peeled_states);
                prop_assert!(legal_divergence(&states, &residual, &got.unfair, Fairness::Unfair));
                if !got.weakly_fair.converges() {
                    let fair = &got.weakly_fair;
                    prop_assert!(legal_divergence(&states, &residual, fair, Fairness::WeaklyFair));
                }
                // The frontier finds its residual by its own rounds, and
                // ends in the same analysis.
                let bits = |name: &str, set: &Bitset| {
                    let (set, index) = (set.clone(), states.clone());
                    Predicate::new(name, program.var_ids(), move |st| {
                        set.contains(index.id_of(st).unwrap())
                    })
                };
                let (from, to) = (bits("T", &t), bits("S", &s));
                for fairness in [Fairness::Unfair, Fairness::WeaklyFair] {
                    let opts = CheckOptions::serial();
                    let (verdict, frontier) = check_convergence_frontier_stats(
                        &program, &from, &to, fairness, opts, &Journal::disabled(),
                    ).unwrap();
                    prop_assert_eq!(&verdict, got.verdict(fairness));
                    prop_assert_eq!(frontier.convergence, got.stats);
                }
            }
        }
        for threads in [1, 4] {
            for segment in [7, 64, 0] {
                let opts = CheckOptions::default().threads(threads).segment_states(segment);
                let par = check_convergence_bits(&states, &program, &t, &s, opts).unwrap();
                prop_assert_eq!(&par, &got, "threads={} segment={}", threads, segment);
            }
        }
    }
}
