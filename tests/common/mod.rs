//! Shared by the checker gate tests (`checker_gates.rs`, `large_space.rs`):
//! one table-backed enumeration, measured the way the gates need it.

use nonmask_checker::{
    steal_tasks, CheckOptions, Decoder, SpaceIndex, StateId, StateSpace, Successors,
};
use nonmask_program::Program;

/// What one resident enumeration measured.
pub struct TableFigures {
    pub states: usize,
    pub transitions: usize,
    /// Resident bytes of the space (its footprint tables) per state.
    pub bytes_per_state: f64,
    /// One serial sweep over every row in id order, computed from the
    /// tables: the per-transition work every resident pass pays, since no
    /// transition is stored.
    pub sweep_secs: f64,
}

impl TableFigures {
    /// Transitions read per sweep second: the size-invariant unit of row
    /// work (a larger instance of a family adds both actions per state and
    /// enabled actions per row, so states/s falls with size even at flat
    /// per-transition throughput).
    pub fn transitions_per_sec(&self) -> f64 {
        self.transitions as f64 / self.sweep_secs
    }
}

/// Enumerate `program` into its footprint tables, time one serial sweep
/// over the table rows, then sweep the same relation through [`Decoder`]
/// rows, one work-stealing task per segment of the plan, and assert that
/// every decoded row equals the table's row and that the sweeps see the
/// tables' transition count.
pub fn enumerate(program: &Program, opts: CheckOptions) -> TableFigures {
    let space = StateSpace::enumerate_with_options(program, opts)
        .expect("gate instances fit the default budget");
    let mut rows = space.rows();
    let started = std::time::Instant::now();
    let swept: usize = space.ids().map(|id| rows.transitions(id).len()).sum();
    let figures = TableFigures {
        states: space.len(),
        transitions: space.transition_count(),
        bytes_per_state: space.resident_bytes() as f64 / space.len() as f64,
        sweep_secs: started.elapsed().as_secs_f64(),
    };
    assert_eq!(
        swept, figures.transitions,
        "the table count is the rows' sum"
    );

    let index = SpaceIndex::of_program(program, opts).expect("the table build indexed it");
    let plan = opts.segment_plan(index.len());
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let per_segment = steal_tasks(plan.count(), workers, |ti| {
        let mut decoded = Decoder::new(program, &index);
        let mut table = space.rows();
        plan.range(ti)
            .map(|i| {
                let id = StateId::from_index(i);
                let row = decoded.row(id).expect("the table build checked every row");
                assert_eq!(row, table.transitions(id), "row {id}");
                row.len()
            })
            .sum::<usize>()
    })
    .expect("no decoder task panics");
    assert_eq!(
        per_segment.iter().sum::<usize>(),
        figures.transitions,
        "the decoded sweep must see every table transition"
    );
    figures
}
