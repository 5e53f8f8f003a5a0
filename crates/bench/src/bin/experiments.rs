//! Command-line driver for the reproduction experiments.
//!
//! ```text
//! experiments                      # run everything, print tables
//! experiments all                  # same
//! experiments e3 e8                # run selected experiments
//! experiments --list               # list experiment ids
//! ```

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();

    if args.iter().any(|a| a == "--list") {
        for id in nonmask_bench::ALL {
            println!("{id}");
        }
        return ExitCode::SUCCESS;
    }

    let ids: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        nonmask_bench::ALL.to_vec()
    } else {
        let mut ids = Vec::new();
        for a in &args {
            let a = a.as_str();
            if nonmask_bench::ALL.contains(&a) {
                ids.push(a);
            } else {
                eprintln!("unknown experiment `{a}`; known: {:?}", nonmask_bench::ALL);
                return ExitCode::FAILURE;
            }
        }
        ids
    };

    for id in ids {
        println!("=============================================================");
        println!("{}", nonmask_bench::run(id));
    }
    ExitCode::SUCCESS
}
