//! The preservation oracle and closure checking.
//!
//! "An action of `p` preserves a state predicate `R` iff starting from any
//! state where the action is enabled and `R` holds, executing the action
//! yields a state where `R` holds. A state predicate `R` of `p` is closed
//! iff each action of `p` preserves `R`." (Section 2.)
//!
//! Every witness check is one scan over the rows of a [`RowSource`], a
//! [`StateSpace`]'s footprint tables or a [`Decoder`](crate::Decoder) (a
//! `(action, successor)` pair exists exactly when the action is enabled),
//! and over [`Bitset`] predicate caches (each predicate is evaluated once
//! per state, in parallel). Both sources, every thread count and every
//! segment size report the same violation: the lowest violating action,
//! then its lowest state.
//!
//! Every preservation question of `Design::verify` takes one sweep:
//! [`preservation`] reads the caches of `T`, `S` and every constraint a
//! block of up to 64 states at a time, with each action's block table of
//! successor-id deltas (see [`footprint`](crate::footprint)), and says
//! which actions break which predicates given `T`, `S` or any layer, and
//! which repairs are unguarded or lead outside their constraint. It
//! counts every state of `T ∪ S` as one row read. A violation's witness
//! costs one early-exit scan in id order ([`preserves_given_bits`],
//! [`first_leaving`] or [`first_disabled`] on the action at fault).

use std::ops::Range;

use nonmask_program::{ActionId, Predicate, Program, State};

use crate::cache::Bitset;
use crate::error::CheckError;
use crate::footprint::{per_row_groups, Blocks};
use crate::options::{steal_find, steal_tasks, CheckOptions};
use crate::space::{StateId, StateSpace};
use crate::successors::{RowSource, Successors};

/// A witnessed preservation failure: executing `action` at `before` (where
/// the checked predicate held) produced `after` (where it does not).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The violating action.
    pub action: ActionId,
    /// The state before execution (predicate held, guard held).
    pub before: State,
    /// The state after execution (predicate violated).
    pub after: State,
}

impl Violation {
    /// Render the violation against `program` for diagnostics.
    pub fn render(&self, program: &Program) -> String {
        format!(
            "action `{}` violated the predicate: {} -> {}",
            program.action(self.action).name(),
            program.render_state(&self.before),
            program.render_state(&self.after),
        )
    }
}

/// Does `action` preserve the predicate of `pred_bits` in states where the
/// predicate of `assuming_bits` also holds?
///
/// This is Theorem 3's conditional preservation: "each closure action of
/// `p` preserves each constraint in that partition *whenever all constraints
/// in lower numbered partitions hold*". Only states satisfying
/// `assuming ∧ pred ∧ guard` are considered; plain preservation assumes
/// [`Bitset::ones`]. Returns the first violation, or `None`.
///
/// `pred_bits` and `assuming_bits` must be evaluations of the predicates
/// over exactly this `space` (see [`Bitset::for_predicates`]): one bit test
/// per state and per successor, no predicate evaluation at all, and the
/// scan stops at the first violation. [`preservation`] asks it of every
/// action, predicate and premise at once, without witnesses.
pub fn preserves_given_bits(
    space: &StateSpace,
    action: ActionId,
    pred_bits: &Bitset,
    assuming_bits: &Bitset,
    opts: CheckOptions,
) -> Result<Option<Violation>, CheckError> {
    let seek = Seek::Exit(pred_bits);
    first_violation(
        space,
        pred_bits,
        Some(assuming_bits),
        seek,
        Some(action),
        opts,
    )
}

/// Is `pred` closed in the space's program (preserved by *every* action)?
///
/// Returns the first violation found, or `None` when `pred` is closed.
/// This discharges the paper's Closure requirement for both the invariant
/// `S` and the fault-span `T`.
pub fn is_closed(space: &StateSpace, pred: &Predicate) -> Result<Option<Violation>, CheckError> {
    let opts = CheckOptions::default();
    is_closed_bits(space, &Bitset::for_predicate(space, pred, opts)?, opts)
}

/// [`is_closed`] over a precomputed predicate cache, on either row source:
/// a resident [`StateSpace`] or a [`Decoder`](crate::Decoder) (no table at
/// all, for spaces whose table would not fit the memory budget).
///
/// # Errors
///
/// [`CheckError::WorkerFailed`] if a worker panics mid-scan;
/// [`CheckError::EscapedDomain`] if an action escapes its domain (only a
/// [`Decoder`](crate::Decoder) evaluates actions).
pub fn is_closed_bits<R: RowSource>(
    space: &R,
    pred_bits: &Bitset,
    opts: CheckOptions,
) -> Result<Option<Violation>, CheckError> {
    first_violation(space, pred_bits, None, Seek::Exit(pred_bits), None, opts)
}

/// The premise of a preservation question: the states it is asked over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Given {
    /// The fault span `T`.
    FaultSpan,
    /// The invariant `S`.
    Invariant,
    /// Theorem 3's premise of layer `l`: `T ∧ ¬S ∧` all lower layers.
    Layer(usize),
}

/// The answers of one [`preservation`] sweep, per action and slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Preservation {
    actions: usize,
    /// Runs of one word per column of 64 slots and per action: the slots
    /// its transitions from `T` leave, then those it breaks given `T`,
    /// `S` and each layer.
    words: Vec<u64>,
    /// Per column, the repaired slots false at a `T` state where none of
    /// their repairs is enabled.
    unguarded: Vec<u64>,
    rows: u64,
}

/// Slots per answer word.
const WORD: usize = 64;

impl Preservation {
    /// Does some transition of `action` lead from a state of `given` where
    /// `slot` holds to one where it does not, as [`preserves_given_bits`]
    /// would witness? Panics on a layer the sweep was not asked about.
    pub fn breaks(&self, given: Given, action: ActionId, slot: usize) -> bool {
        let run = match given {
            Given::FaultSpan => 1,
            Given::Invariant => 2,
            Given::Layer(l) => 3 + l,
        };
        self.bit(run, action, slot)
    }

    /// Does some transition of `action` from `T` lead outside `slot`, as
    /// [`first_leaving`] would witness?
    pub fn leaves(&self, action: ActionId, slot: usize) -> bool {
        self.bit(0, action, slot)
    }

    fn bit(&self, run: usize, action: ActionId, slot: usize) -> bool {
        let column = run * self.unguarded.len() + slot / WORD;
        self.words[column * self.actions + action.index()] >> (slot % WORD) & 1 == 1
    }

    /// Is `slot` false at a `T` state where none of its repairs is
    /// enabled, as [`first_disabled`] would witness?
    pub fn unguarded(&self, slot: usize) -> bool {
        self.unguarded[slot / WORD] >> (slot % WORD) & 1 == 1
    }

    /// Rows the sweep read: every state of `T ∪ S` once.
    pub fn rows_read(&self) -> u64 {
        self.rows
    }
}

/// Every preservation question over the predicate caches `slots`, in one
/// sweep over the blocks of `space` in id order (see
/// [`footprint`](crate::footprint)). `t` and `s` are the slots of `T` and
/// `S` (which need not lie inside `T`), `repairs` the slot each action
/// repairs, and `layers` Theorem 3's layers as adjacent slot ranges,
/// lowest first.
///
/// A state's slots put it in one class: `T ∧ S`, `S ∧ ¬T`, or in `T ∧ ¬S`
/// its depth, the layer of its first false layered slot (the last layer
/// when all hold), so that it lies in the premise of every layer up to
/// its depth. A block reads `P ≤ 64` states' bits of every slot at once,
/// and each class as a word of them. Each action's block table gives, per
/// successor-id delta `δ`, the pattern of the block's states where it is
/// enabled with that delta; per slot `k`, `pattern & ¬k(x₀ + δ…)` are the
/// transitions that leave `k`. Those from `T` go into the action's
/// leaving word, those from where `k` held into its word of each class
/// they meet, and per `T` state the false slots with no enabled repair
/// into the unguarded word. A suffix OR over the depths then gives the
/// layer premises, and unions of classes `T` and `S`, so a transition
/// costs the same however many layers there are. An action past the
/// table cap is evaluated at the block's states of `T ∪ S`, into the same
/// groups. Segments are swept as independent tasks (a block that
/// straddles two is read by each, for its own states) and ORed, so every
/// thread count and segment size gives the same answers.
///
/// # Errors
///
/// [`CheckError::WorkerFailed`] if an action evaluated per row panics;
/// [`CheckError::BudgetExceeded`] (phase `"block tables"`) when the
/// actions' block tables would not fit the memory budget.
///
/// # Panics
///
/// If a cache does not range over the states of `space`, `t` or `s` is
/// not a slot, the layers are out of order, or `repairs` does not hold
/// one entry per action.
pub fn preservation(
    space: &StateSpace,
    slots: &[&Bitset],
    [t, s]: [usize; 2],
    repairs: &[Option<usize>],
    layers: &[Range<usize>],
    opts: CheckOptions,
) -> Result<Preservation, CheckError> {
    let index = space.index();
    let len = index.len();
    assert!(
        slots.iter().all(|b| b.len() == len),
        "cache length mismatch"
    );
    let ascending = layers.windows(2).all(|w| w[0].end <= w[1].start);
    assert!(ascending, "layers out of order");
    assert_eq!(
        repairs.len(),
        space.action_count(),
        "one repair entry per action"
    );
    let blocks = Blocks::of(index);
    let groups = space.tables().groups(index, &blocks, opts.memory_budget)?;
    let per_row = space.tables().per_row();
    let (plan, workers) = (opts.segment_plan(len), opts.workers_for(len));
    let (actions, columns) = (repairs.len(), slots.len().div_ceil(WORD));
    let split = |k: usize| (k / WORD, 1u64 << (k % WORD));
    let mut repaired: Vec<usize> = repairs.iter().flatten().copied().collect();
    repaired.sort_unstable();
    repaired.dedup();
    // Runs of words: leaving words, then the classes (depths, `T ∧ S`,
    // `S ∧ ¬T`).
    let (run, depths) = (columns * actions, layers.len().max(1));
    let width = blocks.states();
    let task = |ti: usize| {
        let range = plan.range(ti);
        let mut cursor = groups.cursor(&blocks);
        let (mut words, mut unguarded) = (vec![0u64; (depths + 3) * run], vec![0u64; columns]);
        let (mut held, mut enabled) = (vec![0u64; slots.len()], vec![0u64; slots.len()]);
        // Per block, the states of each class: the depths, then `T ∧ S`
        // and `S ∧ ¬T`.
        let mut classes = vec![0u64; depths + 2];
        let (mut state, mut succ) = (index.scratch_state(), index.scratch_state());
        let mut row_groups: Vec<Vec<(i64, u64)>> = vec![Vec::new(); per_row.len()];
        let mut read = 0;
        for b in blocks.covering(&range) {
            let x0 = b * width;
            let ours = blocks.in_range(b, &range);
            let (in_t, in_s) = (
                slots[t].word_at(x0 as i64) & ours,
                slots[s].word_at(x0 as i64) & ours,
            );
            let live = in_t | in_s;
            if live == 0 {
                continue;
            }
            read += u64::from(live.count_ones());
            for (h, bits) in held.iter_mut().zip(slots) {
                *h = bits.word_at(x0 as i64);
            }
            let mut deeper = in_t & !in_s;
            for (class, layer) in classes.iter_mut().zip(&layers[..depths - 1]) {
                let all = layer.clone().fold(u64::MAX, |w, k| w & held[k]);
                *class = deeper & !all;
                deeper &= all;
            }
            classes[depths - 1] = deeper;
            classes[depths] = in_t & in_s;
            classes[depths + 1] = in_s & !in_t;
            groups.seek(&blocks, &mut cursor, b);
            if !per_row.is_empty() {
                let scratch = (&mut state, &mut succ);
                per_row_groups(index, per_row, (x0, width), live, scratch, &mut row_groups);
            }
            let mut row_groups = row_groups.iter();
            for (a, repair) in repairs.iter().enumerate() {
                let list = match groups.values(&cursor, a) {
                    Some(list) => list,
                    None => row_groups
                        .next()
                        .expect("one group list per per-row action"),
                };
                let mut on = 0;
                for &(delta, pattern) in list {
                    let pattern = pattern & live;
                    if pattern == 0 {
                        continue;
                    }
                    on |= pattern;
                    let to = x0 as i64 + delta;
                    for (k, bits) in slots.iter().enumerate() {
                        let out = pattern & !bits.word_at(to);
                        if out == 0 {
                            continue;
                        }
                        let (c, bit) = split(k);
                        let at = c * actions + a;
                        if out & in_t != 0 {
                            words[at] |= bit;
                        }
                        let broken = out & held[k];
                        if broken == 0 {
                            continue;
                        }
                        for (class, &states) in classes.iter().enumerate() {
                            if broken & states != 0 {
                                words[(1 + class) * run + at] |= bit;
                            }
                        }
                    }
                }
                if let &Some(k) = repair {
                    enabled[k] |= on;
                }
            }
            for &k in &repaired {
                if in_t & !held[k] & !enabled[k] != 0 {
                    let (c, bit) = split(k);
                    unguarded[c] |= bit;
                }
                enabled[k] = 0;
            }
        }
        (words, unguarded, read)
    };
    let (mut words, mut unguarded, mut rows) = (vec![0; (depths + 3) * run], vec![0; columns], 0);
    for (w, u, r) in steal_tasks(plan.count(), workers, task)? {
        let ours = words.iter_mut().chain(&mut unguarded);
        ours.zip(w.into_iter().chain(u)).for_each(|(x, y)| *x |= y);
        rows += r;
    }
    // Depth `d` lies in every layer premise up to `d`; depth 0 then holds
    // all of `T ∧ ¬S`.
    for class in (1..depths).rev() {
        let (lower, upper) = words.split_at_mut((class + 1) * run);
        for (x, y) in lower[class * run..].iter_mut().zip(&upper[..run]) {
            *x |= y;
        }
    }
    let words = &words;
    let or = |a: usize, b: usize| (0..run).map(move |j| words[a * run + j] | words[b * run + j]);
    let mut answers: Vec<u64> = words[..run].to_vec();
    answers.extend(or(1, 1 + depths).chain(or(1 + depths, 2 + depths)));
    answers.extend_from_slice(&words[run..(1 + layers.len()) * run]);
    Ok(Preservation {
        actions,
        words: answers,
        unguarded,
        rows,
    })
}

/// The transition of `action` from the lowest-id state of `from` that
/// leads outside `target`, or `None`: the witness of a repair that does
/// not establish its constraint (`from = T`, `target = c`).
///
/// # Errors
///
/// As [`is_closed_bits`].
pub fn first_leaving<R: RowSource>(
    source: &R,
    action: ActionId,
    from: &Bitset,
    target: &Bitset,
    opts: CheckOptions,
) -> Result<Option<Violation>, CheckError> {
    first_violation(source, from, None, Seek::Exit(target), Some(action), opts)
}

/// The lowest-id state of `states` where `action` is not enabled, or
/// `None`: the witness of an unguarded repair (`states = T ∧ ¬c`).
///
/// # Errors
///
/// As [`is_closed_bits`].
pub fn first_disabled<R: RowSource>(
    source: &R,
    action: ActionId,
    states: &Bitset,
    opts: CheckOptions,
) -> Result<Option<State>, CheckError> {
    let hit = first_violation(source, states, None, Seek::Disabled, Some(action), opts)?;
    Ok(hit.map(|v| v.before))
}

/// The ids in `range` that are members of `a` (and of `b`, when given),
/// ascending, a word at a time.
fn members<'a>(
    a: &'a Bitset,
    b: Option<&'a Bitset>,
    range: Range<usize>,
) -> impl Iterator<Item = usize> + 'a {
    let words = range.start / 64..range.end.div_ceil(64);
    words
        .flat_map(move |w| {
            let mut word = a.words[w] & b.map_or(u64::MAX, |b| b.words[w]);
            std::iter::from_fn(move || {
                let bit = (word != 0).then(|| word.trailing_zeros() as usize)?;
                word &= word - 1;
                Some(w * 64 + bit)
            })
        })
        .filter(move |i| range.contains(i))
}

/// What a witness scan looks for in the rows of its states.
#[derive(Clone, Copy)]
enum Seek<'a> {
    /// A transition to a state outside the set.
    Exit(&'a Bitset),
    /// A state where the scan's one action has no transition.
    Disabled,
}

/// The one witness scan, over the states of `from` (and `assuming`, when
/// given) in id order: among the transitions `seek` looks for — by action
/// `only`, when given — the one with the lowest action, then the lowest
/// state. A [`Seek::Disabled`] hit is the state where `only` has no
/// transition, reported with `after == before`.
fn first_violation<R: RowSource>(
    source: &R,
    from: &Bitset,
    assuming: Option<&Bitset>,
    seek: Seek<'_>,
    only: Option<ActionId>,
    opts: CheckOptions,
) -> Result<Option<Violation>, CheckError> {
    let len = source.index().len();
    let (plan, workers) = (opts.segment_plan(len), opts.workers_for(len));
    // Actions `floor..limit` can still beat the best hit so far; a hit by
    // `floor` itself cannot be beaten.
    let (floor, limit) = only.map_or((0, usize::MAX), |a| (a.index(), a.index() + 1));
    let scan = |ti: usize| -> Result<Option<(ActionId, usize, StateId)>, CheckError> {
        let range = plan.range(ti);
        let mut rows = source.rows();
        let (mut limit, mut best) = (limit, None);
        for i in members(from, assuming, range) {
            if limit == floor {
                break;
            }
            let row = rows.row(StateId::from_index(i))?;
            match seek {
                Seek::Exit(target) => {
                    for (a, succ) in row {
                        if (floor..limit).contains(&a.index()) && !target.contains(succ) {
                            limit = a.index();
                            best = Some((a, i, succ));
                        }
                    }
                }
                Seek::Disabled => {
                    if !row.iter().any(|(a, _)| a.index() == floor) {
                        limit = floor;
                        best = Some((ActionId::from_index(floor), i, StateId::from_index(i)));
                    }
                }
            }
        }
        Ok(best)
    };
    let best = if only.is_some() {
        // Every hit is by the one action, so the lowest segment's hit is
        // the witness and later segments need not be scanned.
        steal_find(plan.count(), workers, |ti| scan(ti).transpose())?.transpose()?
    } else {
        // Segments come in id order, so on equal actions the earlier one
        // wins.
        let mut best: Option<(ActionId, usize, StateId)> = None;
        for hit in steal_tasks(plan.count(), workers, scan)? {
            if let Some(h) = hit? {
                if best.is_none_or(|b| h.0 < b.0) {
                    best = Some(h);
                }
            }
        }
        best
    };
    let index = source.index();
    Ok(best.map(|(action, i, succ)| Violation {
        action,
        before: index.state(StateId::from_index(i)),
        after: index.state(succ),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::successors::Decoder;
    use nonmask_program::Domain;

    /// [`preserves_given_bits`] over the predicates themselves.
    fn preserves(
        space: &StateSpace,
        action: ActionId,
        pred: &Predicate,
        assuming: &Predicate,
    ) -> Option<Violation> {
        let opts = CheckOptions::serial();
        let [pred, assuming] = Bitset::for_predicates(space.index(), &[pred, assuming], opts)
            .unwrap()
            .try_into()
            .unwrap();
        preserves_given_bits(space, action, &pred, &assuming, opts).unwrap()
    }

    /// x, y in 0..=3; action `copy` sets y := x; action `bump` increments x
    /// (wrapping).
    fn program() -> Program {
        let mut b = Program::builder("p");
        let x = b.var("x", Domain::range(0, 3));
        let y = b.var("y", Domain::range(0, 3));
        b.closure_action(
            "copy",
            [x, y],
            [y],
            |_| true,
            move |s| {
                let v = s.get(x);
                s.set(y, v);
            },
        );
        b.closure_action(
            "bump",
            [x],
            [x],
            |_| true,
            move |s| {
                let v = s.get(x);
                s.set(x, (v + 1) % 4);
            },
        );
        b.build()
    }

    #[test]
    fn copy_preserves_equality_bump_does_not() {
        let p = program();
        let x = p.var_by_name("x").unwrap();
        let y = p.var_by_name("y").unwrap();
        let space = StateSpace::enumerate(&p).unwrap();
        let eq = Predicate::new("x=y", [x, y], move |s| s.get(x) == s.get(y));
        let copy = p.action_ids().next().unwrap();
        let bump = p.action_ids().nth(1).unwrap();

        let all = Predicate::always_true();
        assert!(preserves(&space, copy, &eq, &all).is_none());
        let v = preserves(&space, bump, &eq, &all).expect("bump breaks x=y");
        assert_eq!(v.action, bump);
        assert!(eq.holds(&v.before));
        assert!(!eq.holds(&v.after));
        assert!(v.render(&p).contains("bump"));
    }

    #[test]
    fn closure_of_trivial_predicates() {
        let p = program();
        let space = StateSpace::enumerate(&p).unwrap();
        assert!(is_closed(&space, &Predicate::always_true())
            .unwrap()
            .is_none());
        // `false` is vacuously closed: it never holds before execution.
        assert!(is_closed(&space, &Predicate::always_false())
            .unwrap()
            .is_none());
    }

    #[test]
    fn is_closed_finds_any_violator() {
        let p = program();
        let x = p.var_by_name("x").unwrap();
        let space = StateSpace::enumerate(&p).unwrap();
        let x0 = Predicate::new("x=0", [x], move |s| s.get(x) == 0);
        let v = is_closed(&space, &x0).unwrap().expect("bump violates x=0");
        assert_eq!(p.action(v.action).name(), "bump");
    }

    #[test]
    fn conditional_preservation() {
        let p = program();
        let x = p.var_by_name("x").unwrap();
        let y = p.var_by_name("y").unwrap();
        let space = StateSpace::enumerate(&p).unwrap();
        let bump = p.action_ids().nth(1).unwrap();

        // bump does not preserve y<=x in general (x wraps 3 -> 0) …
        let le = Predicate::new("y<=x", [x, y], move |s| s.get(y) <= s.get(x));
        assert!(preserves(&space, bump, &le, &Predicate::always_true()).is_some());
        // … but it does when assuming x<3 (no wrap happens).
        let small = Predicate::new("x<3", [x], move |s| s.get(x) < 3);
        assert!(preserves(&space, bump, &le, &small).is_none());
    }

    #[test]
    fn guard_restriction_matters() {
        // An action whose effect would break the predicate, but whose guard
        // never lets it run in predicate states, preserves the predicate.
        let mut b = Program::builder("g");
        let x = b.var("x", Domain::range(0, 3));
        b.closure_action(
            "wreck",
            [x],
            [x],
            move |s| s.get(x) > 1,
            move |s| s.set(x, 3),
        );
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let small = Predicate::new("x<=1", [x], move |s| s.get(x) <= 1);
        let a = p.action_ids().next().unwrap();
        assert!(preserves(&space, a, &small, &Predicate::always_true()).is_none());
    }

    #[test]
    fn parallel_violation_matches_serial() {
        // A large space with many violations: every worker count must
        // report the sequentially-first witness.
        let mut b = Program::builder("big");
        let x = b.var("x", Domain::range(0, 9999));
        b.closure_action(
            "inc",
            [x],
            [x],
            move |s| s.get(x) < 9999,
            move |s| {
                let v = s.get(x);
                s.set(x, v + 1);
            },
        );
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let a = p.action_ids().next().unwrap();
        // "x is even" is broken at every even x < 9999.
        let even = Predicate::new("even", [x], move |s| s.get(x) % 2 == 0);
        let bits = Bitset::for_predicate(&space, &even, CheckOptions::serial()).unwrap();
        let everywhere = Bitset::ones(space.len());
        let serial = preserves_given_bits(&space, a, &bits, &everywhere, CheckOptions::serial())
            .unwrap()
            .unwrap();
        assert_eq!(serial.before.slots()[0], 0, "lowest-id witness");
        for threads in [2, 4, 8] {
            let par = preserves_given_bits(
                &space,
                a,
                &bits,
                &everywhere,
                CheckOptions::default().threads(threads),
            )
            .unwrap()
            .unwrap();
            assert_eq!(serial, par, "threads={threads}");
        }
    }

    #[test]
    fn decoded_closure_matches_resident_verdict() {
        let mut b = Program::builder("big");
        let x = b.var("x", Domain::range(0, 9999));
        b.closure_action(
            "inc",
            [x],
            [x],
            move |s| s.get(x) < 9999,
            move |s| {
                let v = s.get(x);
                s.set(x, v + 1);
            },
        );
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let decoded = Decoder::new(&p, space.index());
        let even = Predicate::new("even", [x], move |s| s.get(x) % 2 == 0);
        let bits = Bitset::for_predicate(&space, &even, CheckOptions::default()).unwrap();
        // Broken at every even x: the decoded sweep must report the
        // lowest-id witness for every thread count and segment size.
        for threads in [1, 2, 8] {
            for seg in [512, 1000, 4097] {
                let opts = CheckOptions::default().threads(threads).segment_states(seg);
                let v = is_closed_bits(&decoded, &bits, opts)
                    .unwrap()
                    .expect("inc breaks evenness");
                assert_eq!(v.before.slots()[0], 0, "threads={threads} seg={seg}");
                assert_eq!(v.after.slots()[0], 1);
                assert_eq!(Some(v), is_closed_bits(&space, &bits, opts).unwrap());
            }
        }
        // A closed predicate passes.
        let all = Bitset::ones(space.len());
        assert!(is_closed_bits(&decoded, &all, CheckOptions::default())
            .unwrap()
            .is_none());
    }

    /// The one sweep over `preds`, with `T` at slot `t` and `S` at slot
    /// `s`.
    fn sweep(
        space: &StateSpace,
        preds: &[&Bitset],
        (t, s): (usize, usize),
        repairs: &[Option<usize>],
        layers: &[Range<usize>],
        opts: CheckOptions,
    ) -> Preservation {
        preservation(space, preds, [t, s], repairs, layers, opts).unwrap()
    }

    /// The slots of `0..slots` that some action of `actions` breaks given
    /// `given`, one word per action.
    fn broken(found: &Preservation, given: Given, actions: usize, slots: usize) -> Vec<u64> {
        (0..actions)
            .map(|a| {
                (0..slots)
                    .filter(|&j| found.breaks(given, ActionId::from_index(a), j))
                    .fold(0, |w, j| w | 1 << j)
            })
            .collect()
    }

    #[test]
    fn one_sweep_marks_every_violator_of_every_premise() {
        let p = program();
        let x = p.var_by_name("x").unwrap();
        let y = p.var_by_name("y").unwrap();
        let space = StateSpace::enumerate(&p).unwrap();
        let opts = CheckOptions::serial();
        let preds = [
            Predicate::always_true(),
            Predicate::new("x=y", [x, y], move |s| s.get(x) == s.get(y)),
            Predicate::new("x<3", [x], move |s| s.get(x) < 3),
            Predicate::new("y<=x", [x, y], move |s| s.get(y) <= s.get(x)),
            Predicate::new("x=3", [x], move |s| s.get(x) == 3),
        ];
        let refs: Vec<&Predicate> = preds.iter().collect();
        let caches = Bitset::for_predicates(space.index(), &refs, opts).unwrap();
        let caches: Vec<&Bitset> = caches.iter().collect();
        // Slot 0: T = true, 1: S = x=y, 2: x<3 (layer 0), 3: y<=x (layer
        // 1), 4: x=3 (no layer).
        let found = sweep(&space, &caches, (0, 1), &[None, None], &[2..3, 3..4], opts);
        // Given T, copy (y := x) breaks nothing, though it leads outside
        // x<3 from x=3, where it did not hold; bump breaks x=y, x<3
        // (2 -> 3), y<=x (3 -> 0 wraps) and x=3 (3 -> 0).
        assert_eq!(broken(&found, Given::FaultSpan, 2, 5), [0b00000, 0b11110]);
        let copy = ActionId::from_index(0);
        assert!(found.leaves(copy, 2) && !found.leaves(copy, 1));
        // Given S (x=y), copy changes nothing; bump breaks all but T.
        assert_eq!(broken(&found, Given::Invariant, 2, 5), [0b00000, 0b11110]);
        // Layer 0's premise is T ∧ ¬S (x != y): copy breaks x=3 nowhere
        // and x<3 nowhere, but bump still breaks them …
        assert_eq!(broken(&found, Given::Layer(0), 2, 5), [0b00000, 0b11100]);
        // … and layer 1's adds x<3, which rules out bump's wrap, so it
        // keeps y<=x and x=3 can no longer hold before it.
        assert_eq!(broken(&found, Given::Layer(1), 2, 5), [0b00000, 0b00100]);
        // Every state lies in T, and no row is read twice.
        assert_eq!(found.rows_read(), 16);
        // Each answer is the per-action scan's.
        let premise = |given| match given {
            Given::FaultSpan => caches[0].clone(),
            Given::Invariant => caches[1].clone(),
            Given::Layer(0) => caches[0].and(&caches[1].not()),
            Given::Layer(_) => caches[0].and(&caches[1].not()).and(caches[2]),
        };
        for given in [
            Given::FaultSpan,
            Given::Invariant,
            Given::Layer(0),
            Given::Layer(1),
        ] {
            for a in p.action_ids() {
                for (j, bits) in caches.iter().enumerate() {
                    let v = preserves_given_bits(&space, a, bits, &premise(given), opts).unwrap();
                    assert_eq!(found.breaks(given, a, j), v.is_some(), "{given:?} {a} {j}");
                }
            }
        }
    }

    #[test]
    fn states_outside_t_and_s_are_not_read() {
        // S need not lie inside T: with T = x<2 and S = x=3, the sweep
        // reads the rows of x in {0, 1, 3}, and bump's 3 -> 0 breaks S
        // given S while x=2, in neither set, is never asked about.
        let p = program();
        let x = p.var_by_name("x").unwrap();
        let space = StateSpace::enumerate(&p).unwrap();
        let opts = CheckOptions::serial();
        let t = Predicate::new("x<2", [x], move |s| s.get(x) < 2);
        let s = Predicate::new("x=3", [x], move |s| s.get(x) == 3);
        let caches = Bitset::for_predicates(space.index(), &[&t, &s], opts).unwrap();
        let found = sweep(
            &space,
            &[&caches[0], &caches[1]],
            (0, 1),
            &[None, None],
            &[],
            opts,
        );
        assert_eq!(found.rows_read(), 12);
        let bump = ActionId::from_index(1);
        assert!(found.breaks(Given::Invariant, bump, 1));
        assert!(found.breaks(Given::FaultSpan, bump, 0), "1 -> 2 leaves T");
        assert!(!found.breaks(Given::Invariant, bump, 0), "3 -> 0 enters T");
    }

    /// Per repair, its unguarded and its non-establishing witness.
    type Witnesses = Vec<(Option<State>, Option<Violation>)>;

    /// The repair obligations read off one sweep over `T` (slot 0, with an
    /// empty `S` at slot 1), and their witnesses, scanned on `source`.
    fn repairs_of(
        space: &StateSpace,
        source: &impl RowSource,
        actions: usize,
        repairs: &[(ActionId, &Bitset)],
        t: &Bitset,
        opts: CheckOptions,
    ) -> (Vec<(bool, bool)>, Witnesses) {
        let none = Bitset::zeros(t.len());
        let mut preds = vec![t, &none];
        preds.extend(repairs.iter().map(|&(_, c)| c));
        let mut slots = vec![None; actions];
        for (j, (a, _)) in repairs.iter().enumerate() {
            slots[a.index()] = Some(2 + j);
        }
        let found = sweep(space, &preds, (0, 1), &slots, &[], opts);
        assert_eq!(found.rows_read(), t.count_ones() as u64);
        let answers = repairs
            .iter()
            .enumerate()
            .map(|(j, &(a, _))| (found.unguarded(2 + j), found.leaves(a, 2 + j)))
            .collect();
        let witnesses = repairs
            .iter()
            .enumerate()
            .map(|(j, &(a, c))| {
                let unguarded = found.unguarded(2 + j).then(|| {
                    first_disabled(source, a, &t.and(&c.not()), opts)
                        .unwrap()
                        .expect("a witness")
                });
                let leaving = found.leaves(a, 2 + j).then(|| {
                    first_leaving(source, a, t, c, opts)
                        .unwrap()
                        .expect("a witness")
                });
                (unguarded, leaving)
            })
            .collect();
        (answers, witnesses)
    }

    #[test]
    fn repair_obligations_report_the_lowest_witnesses() {
        // `fix` repairs x=0 only from x=1, and sends x=3 to x=2.
        let mut b = Program::builder("repair");
        let x = b.var("x", Domain::range(0, 3));
        let fix = b.convergence_action(
            "fix",
            [x],
            [x],
            move |s| s.get(x) % 2 == 1,
            move |s| {
                let v = s.get(x);
                s.set(x, if v == 1 { 0 } else { 2 });
            },
        );
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let opts = CheckOptions::serial();
        let zero = Predicate::new("x=0", [x], move |s| s.get(x) == 0);
        let below3 = Predicate::new("x<3", [x], move |s| s.get(x) < 3);
        let [zero, below3] = Bitset::for_predicates(space.index(), &[&zero, &below3], opts)
            .unwrap()
            .try_into()
            .unwrap();
        let t = Bitset::ones(space.len());
        let (_, found) = repairs_of(&space, &space, 1, &[(fix, &zero)], &t, opts);
        assert_eq!(
            found,
            [(
                // x=2 violates x=0 and disables fix.
                Some(State::new(vec![2])),
                Some(Violation {
                    action: fix,
                    before: State::new(vec![3]),
                    after: State::new(vec![2]),
                }),
            )]
        );
        // x<3 is violated only at x=3, where fix runs and establishes it.
        let (_, found) = repairs_of(&space, &space, 1, &[(fix, &below3)], &t, opts);
        assert_eq!(found, [(None, None)]);
        // Outside T nothing is checked.
        let empty = Bitset::zeros(space.len());
        let (_, found) = repairs_of(&space, &space, 1, &[(fix, &zero)], &empty, opts);
        assert_eq!(found, [(None, None)]);
    }

    #[test]
    fn repair_obligations_agree_across_sources_and_threads() {
        // x in 0..=9999; `halve` (enabled on odd x) and `top` (enabled on
        // x > 9000) repair "x is even" and "x <= 9000".
        let mut b = Program::builder("big");
        let x = b.var("x", Domain::range(0, 9999));
        let halve = b.convergence_action(
            "halve",
            [x],
            [x],
            move |s| s.get(x) % 2 == 1 && s.get(x) != 4097,
            move |s| {
                let v = s.get(x);
                s.set(x, v / 2);
            },
        );
        let top = b.convergence_action(
            "top",
            [x],
            [x],
            move |s| s.get(x) > 9000 && s.get(x) != 9500,
            move |s| s.set(x, 9000),
        );
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let even = Predicate::new("even", [x], move |s| s.get(x) % 2 == 0);
        let low = Predicate::new("low", [x], move |s| s.get(x) <= 9000);
        let caches =
            Bitset::for_predicates(space.index(), &[&even, &low], CheckOptions::serial()).unwrap();
        let t = Bitset::ones(space.len());
        let repairs = [(halve, &caches[0]), (top, &caches[1])];
        let serial = repairs_of(&space, &space, 2, &repairs, &t, CheckOptions::serial());
        // 4097 is odd and disabled; 3 halves to the odd 1; 9500 is stuck.
        let (answers, witnesses) = &serial;
        assert_eq!(answers, &[(true, true), (true, false)]);
        assert_eq!(witnesses[0].0, Some(State::new(vec![4097])));
        let v = witnesses[0].1.as_ref().unwrap();
        assert_eq!((v.before.slots(), v.after.slots()), (&[3][..], &[1][..]));
        assert_eq!(witnesses[1], (Some(State::new(vec![9500])), None));
        let decoded = Decoder::new(&p, space.index());
        for threads in [1, 2, 8] {
            for seg in [0, 512, 1000, 4097] {
                let opts = CheckOptions::default().threads(threads).segment_states(seg);
                let got = repairs_of(&space, &space, 2, &repairs, &t, opts);
                assert_eq!(got, serial, "threads={threads} seg={seg}");
                let got = repairs_of(&space, &decoded, 2, &repairs, &t, opts);
                assert_eq!(got, serial, "decoded threads={threads} seg={seg}");
            }
        }
    }

    #[test]
    fn poisoned_predicate_surfaces_as_worker_failed() {
        // A predicate that panics mid-scan must produce a typed error from
        // the public API, on both the serial and the threaded path.
        let mut b = Program::builder("big");
        let x = b.var("x", Domain::range(0, 9999));
        b.closure_action(
            "inc",
            [x],
            [x],
            move |s| s.get(x) < 9999,
            move |s| {
                let v = s.get(x);
                s.set(x, v + 1);
            },
        );
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let poisoned = Predicate::new("poisoned", [x], move |s| {
            if s.get(x) == 7777 {
                panic!("predicate poisoned at x=7777");
            }
            true
        });
        let err = is_closed(&space, &poisoned).unwrap_err();
        assert!(
            matches!(err, CheckError::WorkerFailed { ref payload }
                if payload.contains("poisoned at x=7777")),
            "got {err:?}"
        );
        // Small spaces run the scan on the calling thread; the panic must
        // still be caught, not unwind through the caller.
        let mut b = Program::builder("small");
        let y = b.var("y", Domain::range(0, 3));
        let small = b.build();
        let small_space = StateSpace::enumerate(&small).unwrap();
        let always_panics = Predicate::new("boom", [y], |_| panic!("always boom"));
        let err = is_closed(&small_space, &always_panics).unwrap_err();
        assert!(matches!(err, CheckError::WorkerFailed { .. }));
    }
}
