//! The two checker workloads: `verify-resident` (the resident CSR checker
//! and `nonmask::Design::verify`) and `verify-frontier` (the out-of-core
//! frontier convergence check). Both are fixed instances; the seed is
//! ignored.

use std::time::Instant;

use nonmask::Design;
use nonmask_checker::{
    check_convergence_frontier_stats, CheckOptions, Fairness, SpaceIndex, StateSpace,
};
use nonmask_obs::{CounterSet, Counters};
use nonmask_program::{Predicate, Program};
use nonmask_protocols::diffusing::DiffusingComputation;
use nonmask_protocols::token_ring::windowed_design;
use nonmask_protocols::Tree;

use crate::workload::{Cx, Scale, TrialOutcome, Workload};

/// Checker options of both workloads: [`crate::THREADS`] workers.
fn options() -> CheckOptions {
    CheckOptions::default().threads(crate::THREADS)
}

/// The verdict a design must reproduce exactly.
#[derive(Debug, Clone, Copy)]
struct Expect {
    theorem: &'static str,
    states: usize,
    transitions: u64,
    worst_case_moves: u64,
}

/// `verify-resident`: `Design::verify` on the diffusing computation over a
/// binary tree (Theorem 1) and on the windowed token ring (Theorem 3).
/// One operation is one trial: both verdicts, timed back to back.
pub struct VerifyResident {
    tree_nodes: usize,
    ring: (usize, i64),
    expect: [Expect; 2],
}

impl VerifyResident {
    /// The instances for `scale`.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Full => VerifyResident {
                tree_nodes: 10,
                ring: (7, 7),
                expect: [
                    Expect {
                        theorem: "Theorem 1",
                        states: 1_048_576,
                        transitions: 9_306_112,
                        worst_case_moves: 61,
                    },
                    Expect {
                        theorem: "Theorem 3",
                        states: 2_097_152,
                        transitions: 11_239_424,
                        worst_case_moves: 56,
                    },
                ],
            },
            Scale::Tiny => VerifyResident {
                tree_nodes: 4,
                ring: (3, 3),
                expect: [
                    Expect {
                        theorem: "Theorem 1",
                        states: 256,
                        transitions: 904,
                        worst_case_moves: 12,
                    },
                    Expect {
                        theorem: "Theorem 3",
                        states: 64,
                        transitions: 108,
                        worst_case_moves: 4,
                    },
                ],
            },
        }
    }
}

/// A design under test and the name its spans carry.
pub struct NamedDesign {
    name: String,
    design: Design,
    expect: Expect,
}

impl Workload for VerifyResident {
    type Input = [NamedDesign; 2];

    fn prepare(&self, _cx: &Cx) -> Result<Self::Input, String> {
        let tree = DiffusingComputation::new(&Tree::binary(self.tree_nodes))
            .design()
            .map_err(|e| e.to_string())?;
        let (n, m) = self.ring;
        let (ring, _) = windowed_design(n, m).map_err(|e| e.to_string())?;
        Ok([
            NamedDesign {
                name: format!("diffusing-binary-{}", self.tree_nodes),
                design: tree.with_options(options()),
                expect: self.expect[0],
            },
            NamedDesign {
                name: format!("token-ring-windowed-{n}x{m}"),
                design: ring.with_options(options()),
                expect: self.expect[1],
            },
        ])
    }

    fn trial(&self, designs: &Self::Input, cx: &Cx) -> Result<TrialOutcome, String> {
        let mut out = TrialOutcome::default();
        let mut total = 0.0;
        for d in designs {
            let _design = cx.span(&d.name);
            let started = Instant::now();
            let report = if cx.traced() {
                // The same work as `Design::verify`, split at the layer
                // boundary so each half gets its own span.
                let space = {
                    let _span = cx.span(&format!("{}/checker.enumerate", d.name));
                    StateSpace::enumerate_journaled(d.design.program(), options(), &cx.journal)
                        .map_err(|e| format!("{}: {e}", d.name))?
                };
                cx.counter("resident_bytes", space.resident_bytes() as u64);
                let _span = cx.span(&format!("{}/core.verify_with", d.name));
                d.design.verify_with(&space)
            } else {
                d.design.verify()
            }
            .map_err(|e| format!("{}: {e}", d.name))?;
            total += started.elapsed().as_secs_f64() * 1e3;
            if cx.traced() {
                report.counters.emit(&cx.journal);
                let t = report.timings;
                let mut timings = Counters::new("core.timings");
                for (name, d) in [
                    ("predicate_eval_us", t.predicate_eval),
                    ("closure_us", t.closure),
                    ("theorem_us", t.theorem),
                    ("convergence_us", t.convergence),
                    ("bounds_us", t.bounds),
                ] {
                    timings.add(name, d.as_micros() as u64);
                }
                timings.emit(&cx.journal);
            }
            let e = d.expect;
            let ok = report.theorem.name() == e.theorem
                && report.is_tolerant()
                && report.convergence_unfair.converges()
                && report.state_counts.total == e.states
                && report.counters.transitions == e.transitions
                && report.worst_case_moves == Some(e.worst_case_moves);
            if !ok {
                eprintln!(
                    "{}: wrong verdict: {} | transitions: {}",
                    d.name,
                    report.summary(),
                    report.counters.transitions
                );
                out.failed += 1;
            }
            out.attempted += 1;
        }
        out.latency_ms.push(total);
        Ok(out)
    }
}

/// `verify-frontier`: the frontier convergence check of the diffusing
/// computation (unfair daemon, goal = its invariant) — successors decoded
/// on demand, no CSR table. One operation is one check.
pub struct VerifyFrontier {
    tree_nodes: usize,
    rounds: u64,
    evals: u64,
}

impl VerifyFrontier {
    /// The instance for `scale`.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Full => VerifyFrontier {
                tree_nodes: 10,
                rounds: 7,
                evals: 28_509_694,
            },
            Scale::Tiny => VerifyFrontier {
                tree_nodes: 4,
                rounds: 2,
                evals: 856,
            },
        }
    }
}

/// The program under check and its goal.
pub struct FrontierInput {
    program: Program,
    goal: Predicate,
}

impl Workload for VerifyFrontier {
    type Input = FrontierInput;

    fn prepare(&self, cx: &Cx) -> Result<FrontierInput, String> {
        let dc = DiffusingComputation::new(&Tree::binary(self.tree_nodes));
        {
            let _span = cx.span("checker.index");
            SpaceIndex::of_program(dc.program(), options()).map_err(|e| e.to_string())?;
        }
        Ok(FrontierInput {
            program: dc.program().clone(),
            goal: dc.invariant(),
        })
    }

    fn trial(&self, input: &FrontierInput, cx: &Cx) -> Result<TrialOutcome, String> {
        let _span = cx.span("checker.frontier");
        let started = Instant::now();
        let (verdict, stats) = check_convergence_frontier_stats(
            &input.program,
            &Predicate::always_true(),
            &input.goal,
            Fairness::Unfair,
            options(),
            &cx.journal,
        )
        .map_err(|e| e.to_string())?;
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let ok = verdict.converges() && stats.rounds == self.rounds && stats.evals == self.evals;
        if !ok {
            eprintln!(
                "verify-frontier: converges={} rounds={} evals={}",
                verdict.converges(),
                stats.rounds,
                stats.evals
            );
        }
        Ok(TrialOutcome {
            latency_ms: vec![ms],
            setup_s: None,
            attempted: 1,
            failed: u64::from(!ok),
        })
    }
}
