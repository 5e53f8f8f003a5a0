//! The reproduction experiment harness.
//!
//! Each `f1`/`e1`…`e16` function regenerates one experiment from
//! EXPERIMENTS.md (the per-experiment index lives in DESIGN.md §5) and
//! returns its result as a rendered report. The `experiments` binary runs
//! them from the command line:
//!
//! ```text
//! cargo run -p nonmask-bench --bin experiments -- all
//! cargo run -p nonmask-bench --bin experiments -- e3 e8
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod table;

pub use table::Table;

/// The identifiers of all experiments, in presentation order.
pub const ALL: &[&str] = &[
    "f1", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14",
    "e15", "e16",
];

/// Run one experiment by id, returning its rendered report.
///
/// # Panics
///
/// Panics on an unknown id (callers validate against [`ALL`]).
pub fn run(id: &str) -> String {
    match id {
        "f1" => experiments::verify::f1(),
        "e1" => experiments::verify::e1(),
        "e2" => experiments::verify::e2(),
        "e3" => experiments::verify::e3(),
        "e4" => experiments::dynamics::e4(),
        "e5" => experiments::dynamics::e5(),
        "e6" => experiments::dynamics::e6(),
        "e7" => experiments::faults::e7(),
        "e8" => experiments::verify::e8(),
        "e9" => experiments::refinement::e9(),
        "e10" => experiments::verify::e10(),
        "e11" => experiments::nonmasking::e11(),
        "e12" => experiments::cost::e12(),
        "e13" => experiments::cost::e13(),
        "e14" => experiments::cost::e14(),
        "e15" => experiments::netlat::e15(),
        "e16" => experiments::conformance::e16(),
        other => panic!("unknown experiment id `{other}`; known: {ALL:?}"),
    }
}
