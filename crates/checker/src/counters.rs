//! Per-pass work counters for a full verification run.
//!
//! The checker's passes (enumeration, predicate caching, closure,
//! convergence) each do a quantifiable amount of work; [`CheckCounters`]
//! aggregates it so callers (notably `nonmask::Design::verify`) can report
//! *how much* state space a verdict rests on. The struct implements
//! [`CounterSet`], so one call journals every field as an
//! [`Event::Counter`](nonmask_obs::Event::Counter) under the `checker`
//! scope.

use nonmask_obs::CounterSet;

/// Work counters accumulated across one verification run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckCounters {
    /// States in the enumerated space.
    pub states: u64,
    /// Transitions of the space, counted from its footprint tables.
    pub transitions: u64,
    /// Predicate caches ([`Bitset`](crate::Bitset)s) built by evaluating
    /// a predicate (caches composed bitwise from others do not count).
    pub bitset_builds: u64,
    /// Decodings performed while building predicate caches, as
    /// [`Bitset::for_predicates_counted`](crate::Bitset::for_predicates_counted)
    /// counts them: one per block of up to 64 states, however many
    /// predicates the pass evaluates, plus one per state when a predicate
    /// is evaluated per row.
    pub states_decoded: u64,
    /// Rows read by the closure and preservation checks: every state of
    /// `T ∪ S` once, whose transitions the one
    /// [`preservation`](crate::preservation) sweep examines (a block of
    /// them at a time) to answer every closure, repair and preservation
    /// question, plus, per witness scan of a closure violation, the rows
    /// of its scanned states up to its witness, as a scan in id order
    /// reads them.
    pub csr_rows_visited: u64,
    /// Region (`T ∧ ¬S`) states examined by the convergence pass. One
    /// pass answers both daemons and the worst-case bound, so the region
    /// is counted once.
    pub region_states: u64,
    /// Region states with no infinite region path, resolved by the pass's
    /// peel (no residual analysis needed).
    pub peeled_states: u64,
    /// Strongly connected components Tarjan found in the residual, counted
    /// once although the residual is analysed once per daemon.
    pub sccs_found: u64,
}

impl CounterSet for CheckCounters {
    fn scope(&self) -> String {
        "checker".to_string()
    }

    fn fields(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("states", self.states),
            ("transitions", self.transitions),
            ("bitset_builds", self.bitset_builds),
            ("states_decoded", self.states_decoded),
            ("csr_rows_visited", self.csr_rows_visited),
            ("region_states", self.region_states),
            ("peeled_states", self.peeled_states),
            ("sccs_found", self.sccs_found),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonmask_obs::{Event, Journal};

    #[test]
    fn counters_emit_under_checker_scope() {
        let counters = CheckCounters {
            states: 10,
            csr_rows_visited: 3,
            ..CheckCounters::default()
        };
        assert_eq!(counters.scope(), "checker");
        assert_eq!(counters.fields().len(), 8);
        let (journal, buffer) = Journal::memory();
        counters.emit(&journal);
        journal.flush();
        let lines: Vec<_> = buffer.contents().lines().map(String::from).collect();
        assert_eq!(lines.len(), 8);
        let first = Event::parse_line(&lines[0]).unwrap();
        assert_eq!(
            first.event,
            Event::Counter {
                scope: "checker".to_string(),
                name: "states".to_string(),
                value: 10,
            }
        );
    }

    #[test]
    fn to_json_lists_fields_in_order() {
        let counters = CheckCounters {
            states: 1,
            transitions: 2,
            csr_rows_visited: 5,
            ..CheckCounters::default()
        };
        let json = counters.to_json();
        assert!(json.starts_with("{\"states\":1,\"transitions\":2,"));
        assert!(json.contains(",\"csr_rows_visited\":5,"));
        assert!(json.ends_with("\"sccs_found\":0}"));
    }
}
