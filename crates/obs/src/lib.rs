//! Structured observability shared by the checker, simulator, and net
//! runtime.
//!
//! The paper's central claim is that convergence is *observable* structure:
//! constraints `c.1 .. c.n` are violated by faults and repaired by their
//! convergence actions in a witnessable order (Theorems 1–3). This crate is
//! the event layer that makes that order visible at runtime instead of only
//! in a final verdict:
//!
//! - [`Event`] — the closed taxonomy of things worth recording: span
//!   open/close, counters, per-constraint violation/repair transitions,
//!   convergence-wave progress, transition-build timings, and net
//!   fault/frame/detector-episode events. Every event serializes to one
//!   stable JSON-lines record ([`Event::to_json_line`]) and parses back
//!   ([`Event::parse_line`]), so journals are machine-checkable and any
//!   schema drift is caught by round-tripping.
//! - [`Journal`] — a cheap, cloneable sink handle. A disabled journal
//!   ([`Journal::disabled`]) is a `None` behind the handle: emission is one
//!   branch, no formatting, no locking, no allocation — near-zero overhead
//!   for instrumented hot paths. Enabled journals stamp each event with
//!   microseconds since the journal was opened and write buffered
//!   JSON-lines.
//! - [`CounterSet`] — the shared counter abstraction: any pass or node that
//!   accumulates named `u64` counters can render them to JSON and emit them
//!   as [`Event::Counter`] records with one implementation.
//! - [`parse_journal`] / [`render_timeline`] / [`repair_order`] — replay: a
//!   journal parses back into [`Record`]s and renders as a human-readable
//!   timeline, the `nonmask-run trace` subcommand in one call each.
//!
//! The crate is deliberately dependency-free (std only) so every other
//! crate in the workspace can use it without weight.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod journal;
mod trace;

pub use event::{Event, ParseError, Record};
pub use journal::{Journal, MemoryBuffer, NullSink, Span};
pub use trace::{containment_radius, parse_journal, render_timeline, repair_order};

/// A named set of `u64` counters that can be rendered to JSON and emitted
/// into a [`Journal`].
///
/// Implementors supply a scope label and the `(name, value)` pairs; the
/// JSON rendering and journal emission are shared. This replaces per-crate
/// ad-hoc `to_json` counter code with one abstraction.
pub trait CounterSet {
    /// Label identifying what the counters describe (e.g. `"net-node"`,
    /// `"checker"`). Used as the [`Event::Counter`] scope.
    fn scope(&self) -> String;

    /// The counters, in a stable order.
    fn fields(&self) -> Vec<(&'static str, u64)>;

    /// Render the counters as a flat JSON object in field order.
    fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.fields().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(name);
            out.push_str("\":");
            out.push_str(&value.to_string());
        }
        out.push('}');
        out
    }

    /// Emit one [`Event::Counter`] record per field.
    fn emit(&self, journal: &Journal) {
        if !journal.is_enabled() {
            return;
        }
        let scope = self.scope();
        for (name, value) in self.fields() {
            journal.emit(Event::Counter {
                scope: scope.clone(),
                name: name.to_string(),
                value,
            });
        }
    }

    /// Snapshot the counters as a mergeable [`Counters`] value, so any
    /// implementor can participate in lock-free per-worker aggregation
    /// (accumulate one `Counters` per worker, [`Counters::merge`] the
    /// results afterwards).
    fn to_counters(&self) -> Counters {
        let mut out = Counters::new(self.scope());
        for (name, value) in self.fields() {
            out.add(name, value);
        }
        out
    }
}

/// A concrete, mergeable bundle of named `u64` counters.
///
/// Fields are kept **sorted by name**, so two `Counters` built by adding
/// the same names in different orders are identical, and
/// [`merge`](Counters::merge) is associative *and* commutative:
/// `(a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)` and `a ⊕ b == b ⊕ a` for any scopes'
/// worth of fields. That is what lets per-worker counters aggregate
/// without a shared lock on the hot path — each worker owns a private
/// `Counters`, and the reduction order cannot change the result.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Counters {
    scope: String,
    /// `(name, value)`, sorted by name.
    fields: Vec<(&'static str, u64)>,
}

impl Counters {
    /// An empty counter bundle labelled `scope`.
    pub fn new(scope: impl Into<String>) -> Self {
        Counters {
            scope: scope.into(),
            fields: Vec::new(),
        }
    }

    /// Add `delta` to the counter `name` (creating it at zero first).
    pub fn add(&mut self, name: &'static str, delta: u64) {
        match self.fields.binary_search_by(|(n, _)| n.cmp(&name)) {
            Ok(i) => self.fields[i].1 += delta,
            Err(i) => self.fields.insert(i, (name, delta)),
        }
    }

    /// Current value of `name` (zero when never added).
    pub fn get(&self, name: &str) -> u64 {
        self.fields
            .binary_search_by(|(n, _)| (*n).cmp(name))
            .map(|i| self.fields[i].1)
            .unwrap_or(0)
    }

    /// Field-wise sum of `other` into `self` (union of names; missing
    /// names count as zero). Associative and order-independent — see the
    /// type-level docs.
    ///
    /// # Panics
    ///
    /// Panics if the two bundles carry different non-empty scopes:
    /// merging counters that describe different things is a bug at the
    /// call site, not a reduction step.
    pub fn merge(&mut self, other: &Counters) {
        if self.scope.is_empty() {
            self.scope = other.scope.clone();
        } else {
            assert!(
                other.scope.is_empty() || self.scope == other.scope,
                "merging counters of scope {:?} into scope {:?}",
                other.scope,
                self.scope
            );
        }
        for &(name, value) in &other.fields {
            self.add(name, value);
        }
    }
}

impl CounterSet for Counters {
    fn scope(&self) -> String {
        self.scope.clone()
    }

    fn fields(&self) -> Vec<(&'static str, u64)> {
        self.fields.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Demo;

    impl CounterSet for Demo {
        fn scope(&self) -> String {
            "demo".to_string()
        }
        fn fields(&self) -> Vec<(&'static str, u64)> {
            vec![("alpha", 1), ("beta", 22)]
        }
    }

    #[test]
    fn counter_set_renders_json_in_field_order() {
        assert_eq!(Demo.to_json(), r#"{"alpha":1,"beta":22}"#);
    }

    #[test]
    fn counter_set_emits_one_event_per_field() {
        let (journal, buffer) = Journal::memory();
        Demo.emit(&journal);
        journal.flush();
        let lines = buffer.contents();
        let records: Vec<Record> = lines
            .lines()
            .map(|l| Event::parse_line(l).unwrap())
            .collect();
        assert_eq!(records.len(), 2);
        assert!(matches!(
            &records[0].event,
            Event::Counter { scope, name, value: 1 } if scope == "demo" && name == "alpha"
        ));
        assert!(matches!(
            &records[1].event,
            Event::Counter { scope, name, value: 22 } if scope == "demo" && name == "beta"
        ));
    }

    #[test]
    fn emit_on_disabled_journal_is_a_no_op() {
        Demo.emit(&Journal::disabled());
    }

    fn counters(pairs: &[(&'static str, u64)]) -> Counters {
        let mut c = Counters::new("t");
        for &(n, v) in pairs {
            c.add(n, v);
        }
        c
    }

    #[test]
    fn counters_add_get_roundtrip() {
        let mut c = Counters::new("t");
        assert_eq!(c.get("x"), 0);
        c.add("x", 3);
        c.add("x", 4);
        c.add("a", 1);
        assert_eq!(c.get("x"), 7);
        assert_eq!(c.get("a"), 1);
        // Name-sorted regardless of insertion order.
        assert_eq!(c.fields(), vec![("a", 1), ("x", 7)]);
    }

    #[test]
    fn counters_merge_is_commutative() {
        let a = counters(&[("steps", 10), ("faults", 2)]);
        let b = counters(&[("steps", 5), ("ticks", 9)]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.get("steps"), 15);
        assert_eq!(ab.get("faults"), 2);
        assert_eq!(ab.get("ticks"), 9);
    }

    #[test]
    fn counters_merge_is_associative() {
        let a = counters(&[("x", 1), ("y", 100)]);
        let b = counters(&[("y", 20), ("z", 7)]);
        let c = counters(&[("x", 4), ("z", 3)]);
        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
        assert_eq!(left.fields(), vec![("x", 5), ("y", 120), ("z", 10)]);
    }

    #[test]
    fn counters_merge_identity_and_insertion_order() {
        let a = counters(&[("b", 2), ("a", 1)]);
        let mut merged = Counters::new("");
        merged.merge(&a);
        assert_eq!(merged, a, "empty bundle is a merge identity");
        // Insertion order cannot matter.
        let mut reordered = Counters::new("t");
        reordered.add("a", 1);
        reordered.add("b", 2);
        assert_eq!(reordered, a);
    }

    #[test]
    #[should_panic(expected = "merging counters of scope")]
    fn counters_merge_rejects_mismatched_scopes() {
        let mut a = Counters::new("alpha");
        a.merge(&Counters::new("beta"));
    }

    #[test]
    fn counter_set_snapshots_to_mergeable_counters() {
        let c = Demo.to_counters();
        assert_eq!(c.scope(), "demo");
        assert_eq!(c.get("alpha"), 1);
        assert_eq!(c.get("beta"), 22);
    }
}
