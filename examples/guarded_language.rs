//! The paper's token-ring program written in guarded-command *notation*
//! (not Rust), compiled by `nonmask-lang`, then verified and run.
//!
//! ```text
//! cargo run --example guarded_language
//! ```

use nonmask_checker::{check_convergence, CheckOptions, Fairness, StateSpace};
use nonmask_lang::compile;
use nonmask_program::scheduler::RoundRobin;
use nonmask_program::{Executor, Predicate, RunConfig};

const SOURCE: &str = r#"
    # Dijkstra's stabilizing token ring (paper §7.1), four nodes, mod 4.
    program token_ring
    var x.0 : 0..3; x.1 : 0..3; x.2 : 0..3; x.3 : 0..3

    action pass.0 [combined] : x.0 == x.3 -> x.0 := (x.0 + 1) % 4
    action pass.1 [combined] : x.1 != x.0 -> x.1 := x.0
    action pass.2 [combined] : x.2 != x.1 -> x.2 := x.1
    action pass.3 [combined] : x.3 != x.2 -> x.3 := x.2
"#;

fn main() {
    println!("source:\n{SOURCE}");
    let program = compile(SOURCE).expect("well-formed program");
    println!(
        "compiled `{}`: {} variables, {} actions\n",
        program.name(),
        program.var_count(),
        program.action_count()
    );

    // Verify: exactly-one-privilege is closed and reached from everywhere.
    let space = StateSpace::enumerate(&program).expect("bounded");
    let p2 = program.clone();
    let s = Predicate::new("one-privilege", program.var_ids(), move |st| {
        p2.enabled_actions(st).len() == 1
    });
    let t = Predicate::always_true();
    let report =
        check_convergence(&space, &program, &t, &s, CheckOptions::default()).expect("convergence");
    for fairness in [Fairness::WeaklyFair, Fairness::Unfair] {
        let verdict = report.verdict(fairness);
        println!(
            "convergence under the {fairness} daemon: {}",
            verdict.converges()
        );
        assert!(verdict.converges());
    }

    // Run it from a corrupted state.
    let corrupt = program.state_from([3, 1, 2, 0]).expect("in domain");
    let report = Executor::new(&program).run(
        corrupt,
        &mut RoundRobin::new(),
        &RunConfig::default().stop_when(&s, 1).record_trace(true),
    );
    println!("\nstabilization from x = [3, 1, 2, 0]:");
    for step in report.trace.expect("trace").steps() {
        println!(
            "  #{:<2} {:<8} x = {:?}",
            step.step,
            program.action(step.action.expect("no faults")).name(),
            step.state.slots()
        );
    }
    println!("\nstabilized after {} steps", report.steps);
}
