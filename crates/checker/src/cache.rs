//! Predicate-evaluation caches: one bit per state.
//!
//! Closure, convergence, and bounds checking all repeatedly ask "does
//! predicate P hold at state s?" for the same handful of predicates (`S`,
//! `T`, each constraint). A [`Bitset`] evaluates the predicate **once per
//! state** and every later pass answers membership with a single bit test.
//! Compound predicates like Theorem 3's "T ∧ lower constraints ∧ ¬S" are
//! composed with bitwise [`and`](Bitset::and)/[`not`](Bitset::not) instead
//! of re-evaluating the conjuncts.
//!
//! All caches come from one pass,
//! [`for_predicates`](Bitset::for_predicates): it tabulates each predicate
//! over its declared reads and re-keys the table by block (see
//! [`footprint`](crate::footprint)), then fills any number of caches in
//! one walk over the space's blocks, in parallel over word-aligned chunks.
//! Each worker reaches every block of its chunk by an odometer step of the
//! tables' keys, so a block of up to 64 states costs one pattern load per
//! predicate, ORed into the cache's words.

use nonmask_program::Predicate;

use crate::error::CheckError;
use crate::footprint::{predicate_patterns, Blocks};
use crate::options::{chunk_ranges, split_lens, steal_parts, CheckOptions};
use crate::space::{SpaceIndex, StateId, StateSpace};

/// A fixed-length set of state indices, one bit per state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitset {
    pub(crate) words: Vec<u64>,
    len: usize,
}

/// The states of `from ∧ ¬to` in ascending id, from one cached pass over
/// both predicates.
///
/// # Errors
///
/// [`CheckError::WorkerFailed`] if a predicate panics.
pub(crate) fn region_states(
    space: &StateSpace,
    from: &Predicate,
    to: &Predicate,
) -> Result<Vec<StateId>, CheckError> {
    let caches = Bitset::for_predicates(space.index(), &[from, to], CheckOptions::default())?;
    let region = caches[0].and(&caches[1].not());
    Ok(region.iter_ones().map(StateId::from_index).collect())
}

impl Bitset {
    /// The empty set over `len` states.
    pub fn zeros(len: usize) -> Self {
        Bitset {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// The full set over `len` states.
    pub fn ones(len: usize) -> Self {
        let mut b = Bitset {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        b.mask_tail();
        b
    }

    /// Evaluate `pred` once at every state of `space`.
    ///
    /// # Errors
    ///
    /// [`CheckError::WorkerFailed`] if `pred` panics.
    pub fn for_predicate(
        space: &StateSpace,
        pred: &Predicate,
        opts: CheckOptions,
    ) -> Result<Self, CheckError> {
        let mut caches = Self::for_predicates(space.index(), &[pred], opts)?;
        Ok(caches.pop().expect("one predicate, one cache"))
    }

    /// Evaluate every predicate of `preds` at every state of `index` in
    /// one pass, returning their caches in `preds` order.
    ///
    /// Each predicate is first tabulated over its declared reads (see
    /// [`footprint`](crate::footprint)): one audited entry per assignment
    /// of them, re-keyed as one truth pattern per block. Each worker then
    /// owns a chunk of whole blocks that is also a run of whole words (a
    /// multiple of both 64 and the block's `P` states) and walks its
    /// blocks in id order, keeping every pattern's key in step with the
    /// block ids: a block costs one pattern load per predicate and a key
    /// update per predicate that reads a changed digit. A predicate too
    /// large to tabulate ([`TABLE_CAP`](crate::TABLE_CAP)) is tabulated
    /// as its conjuncts when it is a [`Predicate::all`] whose conjuncts
    /// each fit, and its pattern is the AND of theirs; otherwise it is
    /// evaluated at each state of the block, which the worker steps with
    /// [`SpaceIndex::step_state`]. Each pattern is ORed in place into the
    /// worker's own pre-split slice of each output. No two workers touch
    /// the same word, so the result is identical for every worker count.
    ///
    /// # Errors
    ///
    /// [`CheckError::UndeclaredVariable`] when a predicate depends on a
    /// variable outside its declared reads; [`CheckError::WorkerFailed`]
    /// if a predicate panics; [`CheckError::BudgetExceeded`] (phase
    /// `"block tables"`) when the patterns would not fit the memory
    /// budget.
    pub fn for_predicates(
        index: &SpaceIndex,
        preds: &[&Predicate],
        opts: CheckOptions,
    ) -> Result<Vec<Self>, CheckError> {
        Ok(Self::for_predicates_counted(index, preds, opts)?.0)
    }

    /// [`for_predicates`](Self::for_predicates), with the number of
    /// decodings the pass made: one per block, whose digits outside the
    /// block its cursor steps to, plus one per state when some predicate
    /// is evaluated per row.
    ///
    /// # Errors
    ///
    /// As [`for_predicates`](Self::for_predicates).
    pub fn for_predicates_counted(
        index: &SpaceIndex,
        preds: &[&Predicate],
        opts: CheckOptions,
    ) -> Result<(Vec<Self>, u64), CheckError> {
        let len = index.len();
        let blocks = Blocks::of(index);
        let (patterns, items) = predicate_patterns(index, &blocks, preds, opts.memory_budget)?;
        let block = blocks.states();
        // Chunks of whole units of `lcm(P, 64)` states, so that no block
        // straddles two workers' words.
        let unit = block / gcd(block, 64);
        let words = len.div_ceil(64);
        let workers = opts.workers_for(len);
        let chunks: Vec<_> = chunk_ranges(words.div_ceil(unit), workers)
            .into_iter()
            .map(|c| c.start * unit..(c.end * unit).min(words))
            .collect();
        // A predicate evaluated per row is one item.
        let per_row_items: Vec<usize> = patterns.per_row().collect();
        let per_row: Vec<usize> = (0..preds.len())
            .filter(|&p| per_row_items.contains(&items[p].start))
            .collect();
        let mut caches: Vec<Bitset> = preds.iter().map(|_| Bitset::zeros(len)).collect();
        // parts[c][p]: predicate `p`'s words of chunk `c`.
        let mut parts: Vec<Vec<&mut [u64]>> = chunks.iter().map(|_| Vec::new()).collect();
        for cache in &mut caches {
            let slices = split_lens(&mut cache.words, chunks.iter().map(ExactSizeIterator::len));
            for (part, slice) in parts.iter_mut().zip(slices) {
                part.push(slice);
            }
        }
        let decoded = steal_parts(parts, workers, |ci, mut out| {
            let first = chunks[ci].start * 64;
            let states = (chunks[ci].end * 64).min(len) - first;
            let mut cursor = patterns.cursor(&blocks);
            let mut state = index.scratch_state();
            let mut row_patterns = vec![0u64; preds.len()];
            if !per_row.is_empty() {
                index.decode_state(StateId::from_index(first), &mut state);
            }
            for (k, b) in (first / block..(first + states) / block).enumerate() {
                patterns.seek(&blocks, &mut cursor, b);
                if !per_row.is_empty() {
                    for &p in &per_row {
                        row_patterns[p] = 0;
                    }
                    for j in 0..block {
                        for &p in &per_row {
                            row_patterns[p] |= u64::from(preds[p].holds(&state)) << j;
                        }
                        index.step_state(&mut state);
                    }
                }
                for (p, words) in out.iter_mut().enumerate() {
                    let pattern = (items[p].clone()).fold(u64::MAX, |w, item| {
                        w & patterns
                            .values(&cursor, item)
                            .map_or(row_patterns[p], |v| v[0])
                    });
                    or_bits(words, k * block, pattern, block);
                }
            }
            let rows = if per_row.is_empty() { 0 } else { states };
            (states / block + rows) as u64
        })?;
        Ok((caches, decoded.into_iter().sum()))
    }

    /// Whether state index `i` is in the set.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// The members `at .. at + 64` as the bits of a word, low bit first;
    /// a position outside the set's range reads as absent.
    #[inline]
    pub(crate) fn word_at(&self, at: i64) -> u64 {
        if at < 0 {
            return if at <= -64 { 0 } else { self.word_at(0) << -at };
        }
        let (w, shift) = ((at / 64) as usize, at % 64);
        let low = self.words.get(w).map_or(0, |&x| x >> shift);
        let high = match shift {
            0 => 0,
            _ => self.words.get(w + 1).map_or(0, |&x| x << (64 - shift)),
        };
        low | high
    }

    /// Whether state `id` is in the set.
    #[inline]
    pub fn contains(&self, id: StateId) -> bool {
        self.get(id.index())
    }

    /// Insert state index `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Remove state index `i`.
    #[inline]
    pub(crate) fn unset(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Number of states the set ranges over (not the member count).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set ranges over zero states.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of member states.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterate the member indices in ascending order.
    pub fn iter_ones(&self) -> OnesIter<'_> {
        OnesIter {
            words: &self.words,
            word_index: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Set intersection (conjunction of the cached predicates).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn and(&self, other: &Bitset) -> Bitset {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        Bitset {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & b)
                .collect(),
            len: self.len,
        }
    }

    /// Set union (disjunction of the cached predicates).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn or(&self, other: &Bitset) -> Bitset {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        Bitset {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a | b)
                .collect(),
            len: self.len,
        }
    }

    /// Set complement (negation of the cached predicate).
    pub fn not(&self) -> Bitset {
        let mut b = Bitset {
            words: self.words.iter().map(|w| !w).collect(),
            len: self.len,
        };
        b.mask_tail();
        b
    }

    /// OR `delta` words into the set starting at word index `word_start`.
    /// The frontier pass merges per-segment delta windows with this; OR is
    /// commutative and associative, so overlapping boundary words from
    /// adjacent segments merge to the same result in any order.
    pub(crate) fn or_words(&mut self, word_start: usize, delta: &[u64]) {
        for (w, &d) in self.words[word_start..word_start + delta.len()]
            .iter_mut()
            .zip(delta)
        {
            *w |= d;
        }
        self.mask_tail();
    }

    /// Zero the bits beyond `len` so `count_ones`/`not` stay exact.
    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

/// OR the `width` low bits of `bits` into `words` from bit `at` on.
fn or_bits(words: &mut [u64], at: usize, bits: u64, width: usize) {
    let (w, shift) = (at / 64, at % 64);
    words[w] |= bits << shift;
    if shift + width > 64 {
        words[w + 1] |= bits >> (64 - shift);
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Ascending iterator over the member indices of a [`Bitset`], produced by
/// [`Bitset::iter_ones`]. Skips zero words a whole word at a time.
#[derive(Debug, Clone)]
pub struct OnesIter<'a> {
    words: &'a [u64],
    word_index: usize,
    current: u64,
}

impl Iterator for OnesIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_index += 1;
            self.current = *self.words.get(self.word_index)?;
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_index * 64 + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonmask_program::{Domain, Program, VarId};

    /// The index of a one-variable space `x ∈ 0..len`, so that state id
    /// `i` is the state `x = i`.
    fn line(len: usize) -> SpaceIndex {
        let mut b = Program::builder("line");
        b.var("x", Domain::range(0, len as i64 - 1));
        SpaceIndex::of_program(&b.build(), CheckOptions::default()).unwrap()
    }

    /// The predicate `f(x)` over [`line`]'s variable.
    fn on_x(name: &str, f: impl Fn(usize) -> bool + Send + Sync + 'static) -> Predicate {
        let x = nonmask_program::VarId::from_index(0);
        Predicate::new(name, [x], move |s| f(s.get(x) as usize))
    }

    /// The cache of `f` over `line(len)`.
    fn bits(len: usize, f: impl Fn(usize) -> bool + Send + Sync + 'static) -> Bitset {
        let mut caches =
            Bitset::for_predicates(&line(len), &[&on_x("f", f)], CheckOptions::serial()).unwrap();
        caches.pop().unwrap()
    }

    #[test]
    fn for_predicates_matches_direct_evaluation() {
        // Word boundaries (63/64/65) and lengths that split unevenly over
        // the workers.
        for len in [1, 63, 64, 65, 2048, 5000] {
            let index = line(len);
            let thirds = on_x("i%3", |i| i % 3 == 0);
            let fives = on_x("i%5", |i| i % 5 == 1);
            let preds = [&thirds, &fives];
            let serial = Bitset::for_predicates(&index, &preds, CheckOptions::serial()).unwrap();
            for threads in [2, 4, 7] {
                let par = Bitset::for_predicates(
                    &index,
                    &preds,
                    CheckOptions::default().threads(threads),
                )
                .unwrap();
                assert_eq!(serial, par, "len={len} threads={threads}");
            }
            assert_eq!(serial.len(), 2);
            for i in 0..len {
                assert_eq!(serial[0].get(i), i % 3 == 0, "len={len} i={i}");
                assert_eq!(serial[1].get(i), i % 5 == 1, "len={len} i={i}");
            }
            assert_eq!(
                serial[0].count_ones(),
                (0..len).filter(|i| i % 3 == 0).count()
            );
            assert_eq!(serial[0].len(), len);
        }
    }

    #[test]
    fn for_predicates_of_nothing_is_empty() {
        let caches = Bitset::for_predicates(&line(100), &[], CheckOptions::serial()).unwrap();
        assert!(caches.is_empty());
    }

    #[test]
    fn for_predicates_surfaces_a_panic() {
        let boom = on_x("boom", |i| {
            assert!(i != 4000, "predicate poisoned");
            true
        });
        for threads in [1, 4] {
            let err = Bitset::for_predicates(
                &line(5000),
                &[&Predicate::always_true(), &boom],
                CheckOptions::default().threads(threads),
            )
            .unwrap_err();
            assert!(matches!(err, CheckError::WorkerFailed { .. }), "{err:?}");
        }
    }

    #[test]
    fn a_conjunction_past_the_cap_is_tabled_by_its_conjuncts() {
        // 20^3 = 8000 states: a predicate over all three variables is past
        // the cap, but each conjunct reads two of them (400 entries).
        let mut b = Program::builder("cube");
        let v: Vec<_> = (0..3)
            .map(|i| b.var(format!("v{i}"), Domain::range(0, 19)))
            .collect();
        let index = SpaceIndex::of_program(&b.build(), CheckOptions::default()).unwrap();
        let less = |a: VarId, b: VarId| Predicate::new("<", [a, b], move |s| s.get(a) < s.get(b));
        let parts = [less(v[0], v[1]), less(v[1], v[2])];
        let all = Predicate::all("ascending", &parts);
        let opaque = Predicate::new("ascending", v.clone(), move |s| {
            parts.iter().all(|p| p.holds(s))
        });
        let serial = CheckOptions::serial();
        let (caches, decoded) = Bitset::for_predicates_counted(&index, &[&all], serial).unwrap();
        // Blocks hold 20 states; a tabled pass decodes one per block.
        assert_eq!(decoded, 8000 / 20);
        let (opaque_caches, decoded) =
            Bitset::for_predicates_counted(&index, &[&opaque], serial).unwrap();
        assert_eq!(decoded, 8000 / 20 + 8000, "evaluated at every state");
        assert_eq!(caches, opaque_caches);
        for id in index.ids() {
            assert_eq!(caches[0].contains(id), all.holds(&index.state(id)));
        }
        assert_eq!(caches[0].count_ones(), 1140, "C(20, 3) ascending triples");
    }

    #[test]
    fn ones_and_zeros() {
        let z = Bitset::zeros(70);
        let o = Bitset::ones(70);
        assert_eq!(z.count_ones(), 0);
        assert_eq!(o.count_ones(), 70);
        assert_eq!(o.len(), 70);
        assert!(!o.is_empty());
        assert!(Bitset::zeros(0).is_empty());
    }

    #[test]
    fn boolean_algebra() {
        let a = bits(130, |i| i % 2 == 0);
        let b = bits(130, |i| i % 3 == 0);
        let both = a.and(&b);
        let neither = a.not().and(&b.not());
        for i in 0..130 {
            assert_eq!(both.get(i), i % 6 == 0);
            assert_eq!(neither.get(i), i % 2 != 0 && i % 3 != 0);
        }
        // Complement is exact on the tail word.
        assert_eq!(a.count_ones() + a.not().count_ones(), 130);
    }

    #[test]
    fn iter_ones_ascending() {
        for len in [1, 63, 64, 65, 130, 1000] {
            let b = bits(len, move |i| i % 7 == 0 || i == len - 1);
            let got: Vec<usize> = b.iter_ones().collect();
            let want: Vec<usize> = (0..len).filter(|&i| b.get(i)).collect();
            assert_eq!(got, want, "len={len}");
        }
        assert_eq!(Bitset::zeros(0).iter_ones().count(), 0);
        assert_eq!(Bitset::ones(0).iter_ones().count(), 0);
        assert_eq!(Bitset::zeros(500).iter_ones().count(), 0);
        assert_eq!(Bitset::ones(500).iter_ones().count(), 500);
    }

    #[test]
    fn set_inserts() {
        let mut b = Bitset::zeros(100);
        b.set(0);
        b.set(64);
        b.set(99);
        assert!(b.get(0) && b.get(64) && b.get(99));
        assert!(!b.get(1));
        assert_eq!(b.count_ones(), 3);
    }
}
