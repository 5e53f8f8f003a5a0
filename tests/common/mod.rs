//! Shared by the checker gate tests (`checker_gates.rs`, `large_space.rs`):
//! one journaled CSR enumeration, measured the way the gates need it.

use nonmask_checker::{
    steal_tasks, CheckOptions, Decoder, SpaceIndex, StateId, StateSpace, Successors,
};
use nonmask_obs::{Event, Journal};
use nonmask_program::Program;

/// What one resident enumeration measured.
pub struct CsrFigures {
    pub states: usize,
    pub transitions: usize,
    /// Resident CSR bytes per state.
    pub bytes_per_state: f64,
    /// The CSR count + fill phases, from the checker's own
    /// [`Event::CsrPhase`] journal events. Allocation, zero-filling and
    /// index construction are one-time setup linear in the table size, so
    /// they are left out: a rate over wall clock would fall with size even
    /// when the per-state work is flat.
    pub build_secs: f64,
}

impl CsrFigures {
    /// Transitions evaluated per build second: the size-invariant unit of
    /// enumeration work (a larger instance of a family adds both variables
    /// to decode and enabled actions per state, so states/s falls with
    /// size even at flat per-transition throughput).
    pub fn transitions_per_sec(&self) -> f64 {
        self.transitions as f64 / self.build_secs
    }
}

/// Enumerate `program` into the resident CSR table, then sweep the same
/// relation through [`Decoder`] rows, one work-stealing task per segment
/// of the plan, and assert that the sweep sees exactly the CSR's
/// transitions.
pub fn enumerate(program: &Program, opts: CheckOptions) -> CsrFigures {
    let (journal, buffer) = Journal::memory();
    let space = StateSpace::enumerate_journaled(program, opts, &journal)
        .expect("gate instances fit the default budget");
    journal.flush();
    let build_micros: u64 = buffer
        .contents()
        .lines()
        .filter_map(|l| Event::parse_line(l).ok())
        .filter_map(|r| match r.event {
            Event::CsrPhase { micros, .. } => Some(micros),
            _ => None,
        })
        .sum();
    let figures = CsrFigures {
        states: space.len(),
        transitions: space.transition_count(),
        bytes_per_state: space.resident_bytes() as f64 / space.len() as f64,
        build_secs: build_micros as f64 / 1e6,
    };
    drop(space);

    let index = SpaceIndex::of_program(program, opts).expect("the CSR build indexed it");
    let plan = opts.segment_plan(index.len());
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let per_segment = steal_tasks(plan.count(), workers, |ti| {
        let mut rows = Decoder::new(program, &index);
        plan.range(ti)
            .map(|i| {
                rows.row(StateId::from_index(i))
                    .expect("the CSR build decoded it")
                    .len()
            })
            .sum::<usize>()
    })
    .expect("no decoder task panics");
    assert_eq!(
        per_segment.iter().sum::<usize>(),
        figures.transitions,
        "the decoded sweep must see every CSR transition"
    );
    figures
}
