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
//! over its declared reads, then fills any number of caches in one walk
//! over the space, in parallel over word-aligned chunks. Each worker
//! reaches every state of its chunk by an odometer step of the tables'
//! keys, so a state costs one table load per predicate and no division.

use nonmask_program::Predicate;

use crate::error::CheckError;
use crate::footprint::PredicateTables;
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
    /// of them. Each worker then owns a word-aligned chunk of ids (a
    /// multiple of 64 states) and walks it in id order, keeping every
    /// table's key in step with the ids: a state costs one table load per
    /// predicate and a key update per predicate that reads a changed
    /// digit. A predicate too large to tabulate
    /// ([`TABLE_CAP`](crate::TABLE_CAP)) is evaluated on the decoded state,
    /// which the worker then steps with [`SpaceIndex::step_state`]. Each
    /// bit is set in place, in the worker's own pre-split slice of each
    /// output. No two workers touch the same word, so the result is
    /// identical for every worker count.
    ///
    /// # Errors
    ///
    /// [`CheckError::UndeclaredVariable`] when a predicate depends on a
    /// variable outside its declared reads; [`CheckError::WorkerFailed`]
    /// if a predicate panics.
    pub fn for_predicates(
        index: &SpaceIndex,
        preds: &[&Predicate],
        opts: CheckOptions,
    ) -> Result<Vec<Self>, CheckError> {
        let len = index.len();
        let workers = opts.workers_for(len);
        let chunks = chunk_ranges(len.div_ceil(64), workers);
        let tables = PredicateTables::build(index, preds)?;
        let per_row = tables.has_per_row();
        let mut caches: Vec<Bitset> = preds.iter().map(|_| Bitset::zeros(len)).collect();
        // parts[c][p]: predicate `p`'s words of chunk `c`.
        let mut parts: Vec<Vec<&mut [u64]>> = chunks.iter().map(|_| Vec::new()).collect();
        for cache in &mut caches {
            let slices = split_lens(&mut cache.words, chunks.iter().map(ExactSizeIterator::len));
            for (part, slice) in parts.iter_mut().zip(slices) {
                part.push(slice);
            }
        }
        steal_parts(parts, workers, |ci, mut out| {
            let first_word = chunks[ci].start;
            let mut cursor = tables.cursor(index);
            let mut state = index.scratch_state();
            if per_row {
                index.decode_state(StateId::from_index(first_word * 64), &mut state);
            }
            for w in 0..chunks[ci].len() {
                let base = (first_word + w) * 64;
                for bit in 0..64.min(len - base) {
                    tables.seek(index, &mut cursor, StateId::from_index(base + bit));
                    if per_row {
                        for (p, (pred, words)) in preds.iter().zip(out.iter_mut()).enumerate() {
                            let holds =
                                tables.get(&cursor, p).unwrap_or_else(|| pred.holds(&state));
                            words[w] |= u64::from(holds) << bit;
                        }
                        index.step_state(&mut state);
                    } else {
                        // No predicate evaluated per row: a table load
                        // each, with no branch on its kind (the general
                        // loop above measured 5% slower on the
                        // `verify-resident` benchmark, 10 paired runs).
                        for (p, words) in out.iter_mut().enumerate() {
                            words[w] |= u64::from(tables.holds(&cursor, p)) << bit;
                        }
                    }
                }
            }
        })?;
        Ok(caches)
    }

    /// Whether state index `i` is in the set.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1 << (i % 64)) != 0
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

/// Up to [`MaskColumn::WIDTH`] predicate caches packed per state: bit `j`
/// of the mask of state `i` is predicate `j` at `i`.
///
/// A [`Bitset`] answers one predicate with one bit per state; the column
/// answers a whole group of them with one load, so one sweep can ask
/// every (action, predicate) preservation question of the group at once
/// (see [`preservation`](crate::preservation)). A group of `P`
/// predicates costs `⌈P/8⌉` bytes per state, plus 8 bytes of padding at
/// the end so that every state's mask is one unaligned 8-byte load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskColumn {
    /// State `i`'s mask is the little-endian bytes `bytes[i·width..]`,
    /// `width` of them, followed by the next state's (or the padding).
    bytes: Vec<u8>,
    /// Bytes per state, `⌈P/8⌉`.
    width: usize,
    /// The low `P` bits: clears the next state's bytes off a load.
    mask: u64,
    len: usize,
}

impl MaskColumn {
    /// The most predicates one column packs.
    pub const WIDTH: usize = 64;

    /// Pack `preds` (at most [`WIDTH`](Self::WIDTH) caches over the same
    /// space) into one column: predicate `j` becomes bit `j`. Workers own
    /// disjoint word-aligned chunks of states, so the column is the same
    /// for every worker count.
    ///
    /// # Errors
    ///
    /// [`CheckError::BudgetExceeded`] (phase `"mask column"`) when the
    /// column alone would exceed [`CheckOptions::memory_budget`];
    /// [`CheckError::WorkerFailed`] if a worker panics.
    ///
    /// # Panics
    ///
    /// Panics if `preds` holds more than [`WIDTH`](Self::WIDTH) caches or
    /// two of them differ in length.
    pub fn pack(preds: &[&Bitset], opts: CheckOptions) -> Result<Self, CheckError> {
        assert!(preds.len() <= Self::WIDTH, "at most 64 predicates a column");
        let len = preds.first().map_or(0, |p| p.len);
        assert!(preds.iter().all(|p| p.len == len), "bitset length mismatch");
        let width = preds.len().div_ceil(8);
        let required = (width * len + 8) as u64;
        if required > opts.memory_budget {
            return Err(CheckError::BudgetExceeded {
                required,
                budget: opts.memory_budget,
                phase: "mask column",
            });
        }
        let workers = opts.workers_for(len);
        let chunks = chunk_ranges(len.div_ceil(64), workers);
        let mut bytes = vec![0u8; width * len + 8];
        let parts = split_lens(
            &mut bytes,
            chunks
                .iter()
                .map(|c| ((c.end * 64).min(len) - c.start * 64) * width),
        );
        steal_parts(parts, workers, |ci, out| {
            let first_word = chunks[ci].start;
            for w in chunks[ci].clone() {
                let out = &mut out[(w - first_word) * 64 * width..];
                for (j, pred) in preds.iter().enumerate() {
                    let mut word = pred.words[w];
                    while word != 0 {
                        out[word.trailing_zeros() as usize * width + j / 8] |= 1 << (j % 8);
                        word &= word - 1;
                    }
                }
            }
        })?;
        Ok(MaskColumn {
            bytes,
            width,
            mask: u64::MAX.checked_shr((64 - preds.len()) as u32).unwrap_or(0),
            len,
        })
    }

    /// The predicate bits of state index `i`.
    #[inline]
    pub fn at(&self, i: usize) -> u64 {
        debug_assert!(i < self.len);
        let at = i * self.width;
        let word = self.bytes[at..at + 8].try_into().expect("eight bytes");
        u64::from_le_bytes(word) & self.mask
    }

    /// The mask of the column's predicate bits: the low `P` bits.
    pub(crate) fn bits(&self) -> u64 {
        self.mask
    }

    /// Number of states the column ranges over.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the column ranges over zero states.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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
    use nonmask_program::{Domain, Program};

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
    fn mask_column_packs_each_predicate_into_its_bit() {
        for len in [1, 63, 64, 65, 5000] {
            let caches: Vec<Bitset> = (1..=64)
                .map(|k| bits(len, move |i| (i * 31 + k) % (k + 1) == 0))
                .collect();
            let refs: Vec<&Bitset> = caches.iter().collect();
            let serial = MaskColumn::pack(&refs, CheckOptions::serial()).unwrap();
            assert_eq!(serial.len(), len);
            for i in 0..len {
                for (j, b) in caches.iter().enumerate() {
                    assert_eq!(
                        serial.at(i) >> j & 1 == 1,
                        b.get(i),
                        "len={len} i={i} j={j}"
                    );
                }
            }
            for threads in [2, 7] {
                let par = MaskColumn::pack(&refs[..3], CheckOptions::default().threads(threads));
                let par = par.unwrap();
                assert!(
                    (0..len).all(|i| par.at(i) == serial.at(i) & 0b111),
                    "len={len}"
                );
            }
        }
        let none = MaskColumn::pack(&[], CheckOptions::serial()).unwrap();
        assert!(none.is_empty());
        let empty = MaskColumn::pack(&[&Bitset::zeros(0)], CheckOptions::serial()).unwrap();
        assert!(empty.is_empty());
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
