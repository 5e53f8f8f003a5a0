//! Program states.

use crate::VarId;

/// A state of a program: one `i64` slot per declared variable.
///
/// States are plain values — cheap to clone, hashable, and comparable — so
/// that the model checker can use them as map keys and traces can store them
/// verbatim.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct State {
    slots: Box<[i64]>,
}

impl State {
    /// Create a state from raw slot values (declaration order).
    pub fn new(slots: impl Into<Vec<i64>>) -> Self {
        State {
            slots: slots.into().into_boxed_slice(),
        }
    }

    /// Create an all-zero state with `n` slots.
    pub fn zeroed(n: usize) -> Self {
        State {
            slots: vec![0; n].into_boxed_slice(),
        }
    }

    /// Number of variable slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the state has no slots (a program with no variables).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Read the value of `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range for this state.
    #[inline]
    pub fn get(&self, var: VarId) -> i64 {
        self.slots[var.index()]
    }

    /// Read `var` as a boolean (`0` is false, anything else true).
    #[inline]
    pub fn get_bool(&self, var: VarId) -> bool {
        self.get(var) != 0
    }

    /// Write `value` into `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range for this state.
    #[inline]
    pub fn set(&mut self, var: VarId, value: i64) {
        self.slots[var.index()] = value;
    }

    /// Write a boolean into `var` (`true` as 1, `false` as 0).
    #[inline]
    pub fn set_bool(&mut self, var: VarId, value: bool) {
        self.set(var, value as i64);
    }

    /// Flip a boolean slot in place.
    #[inline]
    pub fn toggle(&mut self, var: VarId) {
        let v = self.get_bool(var);
        self.set_bool(var, !v);
    }

    /// Overwrite every slot of `self` with the slots of `other`, reusing
    /// `self`'s buffer. The allocation-free counterpart of `clone` for hot
    /// loops that cycle one scratch state through many values.
    ///
    /// # Panics
    ///
    /// Panics if the two states have different lengths.
    #[inline]
    pub fn copy_from(&mut self, other: &State) {
        self.slots.copy_from_slice(&other.slots);
    }

    /// View of all slots in declaration order.
    pub fn slots(&self) -> &[i64] {
        &self.slots
    }

    /// Consume the state, returning its raw slots.
    pub fn into_slots(self) -> Vec<i64> {
        self.slots.into_vec()
    }

    /// Indices of the slots at which `self` and `other` differ.
    ///
    /// Useful for write-set validation and trace diffing.
    ///
    /// # Panics
    ///
    /// Panics if the two states have different lengths.
    pub fn diff(&self, other: &State) -> Vec<VarId> {
        assert_eq!(self.len(), other.len(), "diff of differently-shaped states");
        self.slots
            .iter()
            .zip(other.slots.iter())
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| VarId(i as u32))
            .collect()
    }
}

impl From<Vec<i64>> for State {
    fn from(slots: Vec<i64>) -> Self {
        State::new(slots)
    }
}

impl FromIterator<i64> for State {
    fn from_iter<T: IntoIterator<Item = i64>>(iter: T) -> Self {
        State::new(iter.into_iter().collect::<Vec<_>>())
    }
}

impl std::fmt::Display for State {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.slots.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    #[test]
    fn get_set_roundtrip() {
        let mut s = State::zeroed(3);
        s.set(v(0), 5);
        s.set(v(2), -1);
        assert_eq!(s.get(v(0)), 5);
        assert_eq!(s.get(v(1)), 0);
        assert_eq!(s.get(v(2)), -1);
    }

    #[test]
    fn bool_helpers() {
        let mut s = State::zeroed(1);
        assert!(!s.get_bool(v(0)));
        s.set_bool(v(0), true);
        assert!(s.get_bool(v(0)));
        s.toggle(v(0));
        assert!(!s.get_bool(v(0)));
    }

    #[test]
    fn diff_reports_changed_slots() {
        let a = State::new(vec![1, 2, 3]);
        let b = State::new(vec![1, 9, 4]);
        assert_eq!(a.diff(&b), vec![v(1), v(2)]);
        assert!(a.diff(&a).is_empty());
    }

    #[test]
    fn equality_and_hash_are_structural() {
        use std::collections::HashSet;
        let a = State::new(vec![1, 2]);
        let b: State = [1, 2].into_iter().collect();
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn display_is_compact() {
        let s = State::new(vec![1, 0, 2]);
        assert_eq!(s.to_string(), "[1, 0, 2]");
    }

    #[test]
    fn copy_from_reuses_buffer() {
        let src = State::new(vec![7, -2, 5]);
        let mut dst = State::zeroed(3);
        dst.copy_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    #[should_panic]
    fn copy_from_mismatched_lengths_panics() {
        let src = State::zeroed(2);
        let mut dst = State::zeroed(3);
        dst.copy_from(&src);
    }

    #[test]
    #[should_panic]
    fn diff_of_mismatched_lengths_panics() {
        let a = State::zeroed(2);
        let b = State::zeroed(3);
        let _ = a.diff(&b);
    }
}
