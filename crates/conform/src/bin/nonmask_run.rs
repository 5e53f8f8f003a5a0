//! `nonmask-run`: launch a protocol as distributed TCP-loopback nodes
//! under configurable fault rates, or replay/produce observability
//! journals.
//!
//! ```text
//! nonmask-run token-ring --nodes 5 --k 5 --loss 0.2 --seed 1
//! nonmask-run diffusing --nodes 7 --loss 0.3 --crash 2 --json out.json
//! nonmask-run token-ring --crash 2 --journal run.jsonl
//! nonmask-run check --nodes 5 --journal check.jsonl
//! nonmask-run conform --smoke --out conform-out
//! nonmask-run trace check.jsonl
//! nonmask-run --list
//! ```
//!
//! A protocol run starts from a seeded random (usually illegitimate)
//! state, waits for the runtime detector to observe convergence,
//! optionally crash-restarts one node into an arbitrary state and waits
//! for reconvergence, then prints the observability report. `check` runs
//! the exhaustive checker on the token ring and journals a convergence
//! witness as a per-constraint repair timeline; `trace` replays any
//! journal as human-readable text (and fails on schema drift, which is
//! what the CI gate leans on).
//!
//! Every subcommand parses its flags into an `Args` and runs to a
//! `Result<ExitCode, String>`; `main` is the one place that turns a bad
//! command line or a failed run into an `error:` line and exit code 1.

use std::io::Write;
use std::num::ParseIntError;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

use nonmask_checker::{
    check_convergence, replay_constraints, shortest_path_to, CheckOptions, Fairness, StateSpace,
};
use nonmask_net::{run, FaultConfig, Journal, NetConfig, NetEvent};
use nonmask_obs::{parse_journal, render_timeline, Event};
use nonmask_program::{Predicate, Program, State};
use nonmask_protocols::diffusing::DiffusingComputation;
use nonmask_protocols::token_ring::TokenRing;
use nonmask_protocols::Tree;
use rand::rngs::StdRng;
use rand::SeedableRng;

const USAGE: &str = "\
usage: nonmask-run <protocol> [options]
       nonmask-run check [options]
       nonmask-run conform [--smoke] [--seed S] [--out DIR] [--sim-only]
       nonmask-run synth --protocol P [--out FILE] [--golden FILE] [--conform]
       nonmask-run fleet [--tenants N] [--protocols ring|mixed] [--out FILE]
       nonmask-run byzantine [--protocol bfs|spanning-tree] [--nodes N] [--byz A,B]
       nonmask-run trace <journal.jsonl>

protocols:
  token-ring        Dijkstra's K-state token ring (--nodes, --k)
  diffusing         diffusing computation on a binary tree (--nodes)

subcommands:
  check             model-check the token ring and journal a convergence
                    witness as a per-constraint repair timeline
                    (--nodes, --k and --journal; any other flag is
                    rejected)
  conform           differential conformance: replay every simulator and
                    socket-runtime step through the checker's transition
                    relation over a fixed-seed corpus; on divergence,
                    shrink the fault schedule and write repro artifacts
                    (--smoke: CI-sized corpus; --out: artifact dir;
                    --journal: verdict journal; --sim-only: skip sockets;
                    --planted-bug: self-test, needs feature planted-bug)
  synth             derive the convergence actions of a protocol from its
                    constraint decomposition alone and print the
                    checker-certified design
                    (--protocol token-ring|diffusing|coloring;
                    --nodes/--window/--colors: instance size;
                    --threads: certification workers; --out: write the
                    rendered design; --journal: synthesis event journal;
                    --golden FILE: diff against a committed design, exit
                    nonzero on drift; --conform: feed the synthesized
                    design through the smoke conformance corpus)
  fleet             batch-step a population of protocol instances to
                    stabilization over the verdict cache and report
                    throughput, cache hit rate, and latency percentiles
                    versus the certified bounds
                    (--tenants: population size; --protocols ring|mixed;
                    --seed: master seed; --workers/--slab-size:
                    scheduling knobs, bit-identical results either way;
                    --faults: transient faults per tenant; --journal:
                    population-summary journal; --out: JSON report)
  byzantine         containment-radius agreement battery: run one
                    Byzantine instance through the simulator and the
                    socket runtime on the same seed, measure the
                    containment radius from each journal's per-node
                    verdicts, and certify the radius with the checker's
                    restricted-region convergence sweep on a small
                    instance of the same family; exit 2 on any radius
                    violation
                    (--protocol bfs|spanning-tree; --nodes: graph size;
                    --degree/--topo-seed: random-graph shape; --byz:
                    comma-separated liar nodes; --seed: run seed;
                    --check-nodes: checker instance size; --out DIR:
                    write sim/net/small journals and a JSON summary)
  trace             replay a JSON-lines journal as a readable timeline
                    (exits nonzero on any schema drift)

options:
  --nodes N         number of processes            (default 5; diffusing: tree size)
  --k K             token-ring counter modulus     (default = nodes)
  --loss P          frame drop probability         (default 0.2)
  --corrupt P       frame bit-flip probability     (default loss/4)
  --dup P           frame duplication probability  (default loss/4)
  --delay P         frame delay probability        (default loss/2)
  --seed S          RNG seed (faults, initial and restart states)  (default 1)
                    (every seed flag, --topo-seed included, reads decimal
                    or 0x-prefixed hex)
  --crash NODE      crash-restart NODE into an arbitrary state mid-run
  --down-ms MS      crash downtime                 (default 50)
  --timeout-ms MS   abort threshold                (default 30000)
  --shards S        reactor worker shards          (default 0 = auto)
  --json PATH       also write the machine-readable report to PATH
  --journal PATH    write a JSON-lines event journal to PATH
                    (for `check`: default prints the timeline instead)
  --list            list protocols and exit
  --help            this text";

/// The value after flag `name` in `argv`, parsed as `T` (a `String` takes
/// it as is). Every subcommand's flags read their values through this, so
/// a missing value and a value that fails to parse have one wording.
fn value<T>(argv: &mut std::slice::Iter<'_, String>, name: &str) -> Result<T, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    let raw = argv.next().ok_or_else(|| format!("{name} needs a value"))?;
    raw.parse().map_err(|e| format!("{name}: {e}"))
}

/// A seed flag's value: decimal, or hexadecimal after `0x`, so the hex
/// seeds quoted for fleet populations can be pasted as they are.
struct Seed(u64);

impl FromStr for Seed {
    type Err = ParseIntError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16).map(Seed),
            None => s.parse().map(Seed),
        }
    }
}

/// A journal writing to `path`, or a disabled one when there is none.
fn open_journal(path: Option<&str>) -> Result<Journal, String> {
    match path {
        Some(path) => Journal::to_file(path).map_err(|e| format!("cannot create {path}: {e}")),
        None => Ok(Journal::disabled()),
    }
}

/// Why a subcommand stopped short of an exit code of its own.
enum Failure {
    /// The command line was rejected; the usage text follows the error.
    Usage(String),
    /// The run failed.
    Run(String),
}

/// Parse the subcommand's flags and run it.
fn dispatch(argv: &[String]) -> Result<ExitCode, Failure> {
    let rest = argv.get(1..).unwrap_or_default();
    let usage = Failure::Usage;
    let outcome = match argv.first().map(String::as_str) {
        Some("trace") => {
            let [path] = rest else {
                return Err(usage("trace takes exactly one journal path".to_owned()));
            };
            trace(path)
        }
        Some("conform") => conform::run(&conform::parse(rest).map_err(usage)?),
        Some("synth") => synth::run(&synth::parse(rest).map_err(usage)?),
        Some("fleet") => fleet::run(&fleet::parse(rest).map_err(usage)?),
        Some("byzantine") => byzantine::run(&byzantine::parse(rest).map_err(usage)?),
        _ => {
            let args = parse_args(argv).map_err(usage)?;
            if args.protocol == "check" {
                // `check` shares the protocol runs' parser but reads only
                // these flags; any other would be silently ignored.
                let read = ["--nodes", "--k", "--journal"];
                if let Some(flag) = args.given.iter().find(|f| !read.contains(&f.as_str())) {
                    return Err(usage(format!("check does not take `{flag}`")));
                }
                check_ring(&args)
            } else {
                run_protocol(&args)
            }
        }
    };
    outcome.map_err(Failure::Run)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if argv.iter().any(|a| a == "--list") {
        println!("token-ring\ndiffusing");
        return ExitCode::SUCCESS;
    }
    match dispatch(&argv) {
        Ok(code) => code,
        Err(Failure::Usage(msg)) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            ExitCode::FAILURE
        }
        Err(Failure::Run(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

struct Args {
    protocol: String,
    nodes: usize,
    k: Option<i64>,
    loss: f64,
    corrupt: Option<f64>,
    dup: Option<f64>,
    delay: Option<f64>,
    seed: u64,
    crash: Option<usize>,
    down_ms: u64,
    timeout_ms: u64,
    json: Option<String>,
    journal: Option<String>,
    shards: usize,
    /// The flags given, in order.
    given: Vec<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        protocol: String::new(),
        nodes: 5,
        k: None,
        loss: 0.2,
        corrupt: None,
        dup: None,
        delay: None,
        seed: 1,
        crash: None,
        down_ms: 50,
        timeout_ms: 30_000,
        json: None,
        journal: None,
        shards: 0,
        given: Vec::new(),
    };
    let mut argv = argv.iter();
    while let Some(arg) = argv.next() {
        if arg.starts_with("--") {
            args.given.push(arg.clone());
        }
        match arg.as_str() {
            "--nodes" => args.nodes = value(&mut argv, "--nodes")?,
            "--k" => args.k = Some(value(&mut argv, "--k")?),
            "--loss" => args.loss = value(&mut argv, "--loss")?,
            "--corrupt" => args.corrupt = Some(value(&mut argv, "--corrupt")?),
            "--dup" => args.dup = Some(value(&mut argv, "--dup")?),
            "--delay" => args.delay = Some(value(&mut argv, "--delay")?),
            "--seed" => args.seed = value::<Seed>(&mut argv, "--seed")?.0,
            "--crash" => args.crash = Some(value(&mut argv, "--crash")?),
            "--down-ms" => args.down_ms = value(&mut argv, "--down-ms")?,
            "--timeout-ms" => args.timeout_ms = value(&mut argv, "--timeout-ms")?,
            "--shards" => args.shards = value(&mut argv, "--shards")?,
            "--json" => args.json = Some(value(&mut argv, "--json")?),
            "--journal" => args.journal = Some(value(&mut argv, "--journal")?),
            other if other.starts_with("--") => return Err(format!("unknown option `{other}`")),
            other if args.protocol.is_empty() => args.protocol = other.to_owned(),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if args.protocol.is_empty() {
        return Err("missing protocol".to_owned());
    }
    Ok(args)
}

/// The ring's `(nodes, k)` for subcommand `what`: `--k` defaults to
/// `--nodes`, and both must be at least 2.
fn ring_size(args: &Args, what: &str) -> Result<(usize, i64), String> {
    if args.nodes < 2 {
        return Err(format!("{what} needs --nodes >= 2"));
    }
    let k = args.k.unwrap_or(args.nodes as i64);
    if k < 2 {
        return Err(format!("{what} needs --k >= 2"));
    }
    Ok((args.nodes, k))
}

/// The protocol's program, goal predicate, and seeded initial state.
fn build_protocol(args: &Args) -> Result<(Program, Predicate, State), String> {
    let mut rng = StdRng::seed_from_u64(args.seed);
    match args.protocol.as_str() {
        "token-ring" => {
            let (n, k) = ring_size(args, "token-ring")?;
            let ring = TokenRing::new(n, k);
            let initial = ring.program().random_state(&mut rng);
            Ok((ring.program().clone(), ring.invariant(), initial))
        }
        "diffusing" => {
            if args.nodes < 1 {
                return Err("diffusing needs --nodes >= 1".to_owned());
            }
            let dc = DiffusingComputation::new(&Tree::binary(args.nodes));
            let initial = dc.program().random_state(&mut rng);
            Ok((dc.program().clone(), dc.invariant(), initial))
        }
        other => Err(format!("unknown protocol `{other}`; try --list")),
    }
}

/// A protocol run: launch the protocol as socket nodes under the
/// requested faults and report convergence.
fn run_protocol(args: &Args) -> Result<ExitCode, String> {
    let (program, goal, initial) = build_protocol(args)?;
    // Open the report file before the run, so an unwritable path fails
    // before any node starts.
    let json = match &args.json {
        Some(path) => Some((
            path,
            std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?,
        )),
        None => None,
    };
    let faults = FaultConfig {
        seed: args.seed,
        drop_rate: args.loss,
        corrupt_rate: args.corrupt.unwrap_or(args.loss / 4.0),
        duplicate_rate: args.dup.unwrap_or(args.loss / 4.0),
        delay_rate: args.delay.unwrap_or(args.loss / 2.0),
        max_delay_ticks: 8,
    };
    let events = match args.crash {
        Some(node) => vec![NetEvent::CrashRestart {
            node,
            at_least: Duration::ZERO,
            down: Duration::from_millis(args.down_ms),
        }],
        None => Vec::new(),
    };
    let config = NetConfig {
        seed: args.seed,
        faults,
        timeout: Duration::from_millis(args.timeout_ms),
        events,
        journal: open_journal(args.journal.as_deref())?,
        shards: args.shards,
        ..NetConfig::default()
    };

    println!(
        "launching `{}` as {} socket nodes (loss {:.0}%, seed {})",
        program.name(),
        args.nodes,
        args.loss * 100.0,
        args.seed
    );
    let report = run(&program, &initial, &goal, &config).map_err(|e| e.to_string())?;
    print!("{}", report.render());
    if let Some((path, mut file)) = json {
        file.write_all(report.to_json().as_bytes())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    if let Some(path) = &args.journal {
        eprintln!("journal written to {path}");
    }
    Ok(if report.converged {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `trace <journal.jsonl>`: replay a journal as a readable timeline;
/// any schema drift is a hard failure.
fn trace(path: &str) -> Result<ExitCode, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let records = parse_journal(&text).map_err(|e| format!("{path}: {e}"))?;
    print!("{}", render_timeline(&records));
    Ok(ExitCode::SUCCESS)
}

/// `check`: model-check the token ring, then journal a witness
/// computation from a corrupt state as a §4 constraint-repair timeline.
fn check_ring(args: &Args) -> Result<ExitCode, String> {
    let (n, k) = ring_size(args, "check")?;
    let ring = TokenRing::new(n, k);
    let program = ring.program();

    // Journal to the requested file, or to memory (rendered at the end).
    let (journal, memory) = match &args.journal {
        Some(path) => (open_journal(Some(path))?, None),
        None => {
            let (journal, buffer) = Journal::memory();
            (journal, Some(buffer))
        }
    };
    let opts = CheckOptions::default();
    let space = StateSpace::enumerate_journaled(program, opts, &journal)
        .map_err(|e| format!("enumeration failed: {e}"))?;
    let report = check_convergence(
        &space,
        program,
        &Predicate::always_true(),
        &ring.invariant(),
        opts,
    )
    .map_err(|e| format!("convergence check failed: {e}"))?;
    let fairness = Fairness::WeaklyFair;
    journal.emit_with(|| Event::Wave {
        fairness: fairness.to_string(),
        region: report.stats.region_states,
        peeled: report.stats.peeled_states,
        sccs: report.stats.sccs_found,
    });
    let convergence = report.verdict(fairness);

    // The ring's §4 decomposition, c.j ≡ `x.j = x.(j-1)`, as
    // `TokenRing::constraints` declares it.
    let constraints: Vec<Predicate> = ring
        .constraints()
        .iter()
        .map(|c| c.predicate().clone())
        .collect();

    // A maximally disagreeing start: every boundary violates its
    // constraint, so the witness shows the whole repair cascade.
    let corrupt = program
        .state_from((0..n).map(|j| ((n - j) as i64) % k).collect::<Vec<_>>())
        .map_err(|e| format!("corrupt state: {e}"))?;
    let all_vars: Vec<_> = program.var_ids().collect();
    let corrupt_eq = corrupt.clone();
    let from = Predicate::new("corrupt-start", all_vars.clone(), move |s| *s == corrupt_eq);
    let agree = Predicate::new("all-agree", all_vars, {
        let constraints = constraints.clone();
        move |s| constraints.iter().all(|c| c.holds(s))
    });
    let targets: Vec<State> = space
        .satisfying(&agree)
        .map_err(|e| format!("target scan failed: {e}"))?
        .into_iter()
        .map(|id| space.state(id))
        .collect();
    let path = shortest_path_to(&space, &from, &targets)
        .map_err(|e| format!("path search failed: {e}"))?
        .ok_or("no path from the corrupt state to the all-agree states")?;
    let transitions = replay_constraints(program, &path, &constraints, &journal);
    journal.flush();

    println!(
        "token ring n={n} k={k}: {} states, converges: {}, witness path {} steps, {} constraint transitions",
        space.len(),
        convergence.converges(),
        path.len() - 1,
        transitions.len()
    );
    match (&args.journal, memory) {
        (Some(path), _) => println!("journal written to {path}"),
        (None, Some(buffer)) => {
            let records = parse_journal(&buffer.contents())
                .map_err(|e| format!("journal replay failed: {e}"))?;
            print!("{}", render_timeline(&records));
        }
        (None, None) => unreachable!("memory journal exists when no path is given"),
    }
    Ok(if convergence.converges() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `conform`: the fixed-seed differential conformance corpus, plus the
/// planted-bug self-test when built with `--features planted-bug`.
mod conform {
    use std::process::ExitCode;

    use super::{open_journal, value, Seed};

    use nonmask_conform::{
        check_run, default_specs, run_corpus, run_net, run_sim, shrink_schedule, CorpusConfig,
        CorpusReport, ProtocolOracle, ProtocolSpec, RunInput,
    };
    use nonmask_obs::{Event, Journal};

    pub struct Args {
        smoke: bool,
        seed: u64,
        out: String,
        journal: Option<String>,
        sim_only: bool,
        planted: bool,
    }

    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            smoke: false,
            seed: 1,
            out: "conform-out".to_owned(),
            journal: None,
            sim_only: false,
            planted: false,
        };
        let mut argv = argv.iter();
        while let Some(arg) = argv.next() {
            match arg.as_str() {
                "--smoke" => args.smoke = true,
                "--sim-only" => args.sim_only = true,
                "--planted-bug" => args.planted = true,
                "--seed" => args.seed = value::<Seed>(&mut argv, "--seed")?.0,
                "--out" => args.out = value(&mut argv, "--out")?,
                "--journal" => args.journal = Some(value(&mut argv, "--journal")?),
                other => return Err(format!("unknown conform option `{other}`")),
            }
        }
        Ok(args)
    }

    pub fn run(args: &Args) -> Result<ExitCode, String> {
        if args.planted {
            return planted(args);
        }

        let specs = default_specs();
        let mut config = if args.smoke {
            CorpusConfig::smoke(args.seed)
        } else {
            CorpusConfig::full(args.seed)
        };
        config.sim_only = args.sim_only;
        let journal = open_journal(args.journal.as_deref())?;
        println!(
            "conformance corpus: {} protocols, {} sim + {} net runs each (base seed {})",
            specs.len(),
            config.sim_runs,
            if config.sim_only { 0 } else { config.net_runs },
            args.seed
        );
        let report = run_corpus(&specs, &config, &journal)?;
        journal.flush();
        print!("{}", report.render());
        if let Some(path) = &args.journal {
            eprintln!("verdict journal written to {path}");
        }
        if report.divergent_runs() == 0 {
            return Ok(ExitCode::SUCCESS);
        }
        if let Err(msg) = write_artifacts(&report, &specs, &args.out) {
            eprintln!("error writing artifacts: {msg}");
        }
        // Distinct from infrastructure failure (1): the layers ran, but
        // they disagree with the checker.
        Ok(ExitCode::from(2))
    }

    /// For every divergent run: shrink its fault schedule (sim) to a
    /// 1-minimal reproducer and write the `(protocol, seed, schedule)`
    /// triple plus a re-execution journal under `out`.
    fn write_artifacts(
        report: &CorpusReport,
        specs: &[ProtocolSpec],
        out: &str,
    ) -> Result<(), String> {
        std::fs::create_dir_all(out).map_err(|e| format!("cannot create {out}: {e}"))?;
        for protocol in &report.protocols {
            if protocol.divergent().next().is_none() {
                continue;
            }
            let spec = specs
                .iter()
                .find(|s| s.name == protocol.name)
                .ok_or_else(|| format!("no spec named {}", protocol.name))?;
            let oracle = ProtocolOracle::build(spec)?;
            for run in protocol.divergent() {
                let stem = format!("{out}/{}-{}-seed{}", protocol.name, run.layer, run.seed);
                let journal = open_journal(Some(&format!("{stem}.journal.jsonl")))?;
                match &run.input {
                    RunInput::Sim { schedule, cfg } => {
                        let shrunk = shrink_schedule(schedule, |candidate| {
                            run_sim(
                                &spec.program,
                                &spec.goal,
                                run.seed,
                                candidate,
                                cfg,
                                &Journal::disabled(),
                            )
                            .map(|o| !check_run(&oracle, spec, &o, true).conforms())
                            .unwrap_or(false)
                        });
                        let outcome =
                            run_sim(&spec.program, &spec.goal, run.seed, &shrunk, cfg, &journal)?;
                        let verdict = check_run(&oracle, spec, &outcome, true);
                        emit_verdict(&journal, "sim", &protocol.name, run.seed, &verdict);
                        let text = format!(
                            "# minimal reproducing fault schedule\n# protocol {}\n# layer sim ({})\n# seed {}\n# replay: deterministic given (protocol, seed, schedule)\n{}",
                            protocol.name,
                            run.variant,
                            run.seed,
                            shrunk.render()
                        );
                        std::fs::write(format!("{stem}.schedule"), text)
                            .map_err(|e| format!("cannot write {stem}.schedule: {e}"))?;
                        println!(
                            "repro: {} sim seed {} shrunk to {} fault(s) -> {stem}.schedule",
                            protocol.name,
                            run.seed,
                            shrunk.len()
                        );
                    }
                    RunInput::Net { cfg } => {
                        let outcome = run_net(&spec.program, &spec.goal, run.seed, cfg, &journal)
                            .map_err(|e| format!("net replay failed: {e}"))?;
                        let verdict = check_run(&oracle, spec, &outcome, true);
                        emit_verdict(&journal, "net", &protocol.name, run.seed, &verdict);
                        println!(
                            "repro: {} net seed {} ({}) -> {stem}.journal.jsonl",
                            protocol.name, run.seed, run.variant
                        );
                    }
                }
                journal.flush();
            }
        }
        Ok(())
    }

    fn emit_verdict(
        journal: &Journal,
        layer: &str,
        protocol: &str,
        seed: u64,
        report: &nonmask_conform::RunReport,
    ) {
        journal.emit_with(|| Event::Verdict {
            layer: layer.to_string(),
            protocol: protocol.to_string(),
            seed,
            steps: report.steps_checked,
            verdict: report.verdict().to_string(),
            detail: report
                .divergences
                .first()
                .map(ToString::to_string)
                .unwrap_or_default(),
        });
    }

    /// Self-test: execute the planted token-ring mutant against the
    /// healthy oracle — the harness must detect the divergence and
    /// shrink the fault schedule to a ≤5-event reproducer.
    #[cfg(feature = "planted-bug")]
    fn planted(args: &Args) -> Result<ExitCode, String> {
        use nonmask_conform::{FaultSchedule, SimRunConfig};
        use nonmask_program::Predicate;

        let spec = ProtocolSpec::token_ring(4, 4);
        let mutant = ProtocolSpec::token_ring_mutant_program(4, 4);
        let oracle = ProtocolOracle::build(&spec)?;
        // Run for a fixed horizon (never-satisfied goal) so the token
        // always revisits the mutated root action.
        let never = Predicate::always_false();
        let cfg = SimRunConfig {
            max_rounds: 60,
            ..SimRunConfig::default()
        };
        let diverges = |schedule: &FaultSchedule| {
            run_sim(
                &mutant,
                &never,
                args.seed,
                schedule,
                &cfg,
                &Journal::disabled(),
            )
            .map(|o| !check_run(&oracle, &spec, &o, false).conforms())
            .unwrap_or(false)
        };
        let schedule = FaultSchedule::random(&spec.program, 4, args.seed, 8, 40);
        if !diverges(&schedule) {
            eprintln!("planted bug NOT detected (seed {})", args.seed);
            return Ok(ExitCode::FAILURE);
        }
        let shrunk = shrink_schedule(&schedule, diverges);
        println!(
            "planted bug detected; schedule shrunk {} -> {} fault(s)",
            schedule.len(),
            shrunk.len()
        );
        println!(
            "repro: protocol {} seed {} schedule:\n{}",
            spec.name,
            args.seed,
            if shrunk.is_empty() {
                "(empty — the bug needs no faults)".to_owned()
            } else {
                shrunk.render()
            }
        );
        if shrunk.len() <= 5 {
            Ok(ExitCode::SUCCESS)
        } else {
            eprintln!("shrunk schedule still has {} faults (> 5)", shrunk.len());
            Ok(ExitCode::FAILURE)
        }
    }

    #[cfg(not(feature = "planted-bug"))]
    fn planted(_args: &Args) -> Result<ExitCode, String> {
        Err("the planted-bug self-test needs `--features planted-bug` \
             (cargo run -p nonmask-conform --features planted-bug --bin nonmask-run -- conform --planted-bug)"
            .to_owned())
    }
}

/// `fleet`: batch-step a population of lightweight protocol instances to
/// stabilization, with checker verdicts shared through the fleet's
/// first-tenant-pays cache.
mod fleet {
    use std::process::ExitCode;

    use super::{open_journal, value, Seed};

    use nonmask_fleet::{run_fleet, FleetConfig, FleetProtocol};

    pub struct Args {
        tenants: u64,
        protocols: String,
        seed: u64,
        workers: usize,
        slab_size: usize,
        faults: u32,
        journal: Option<String>,
        out: Option<String>,
    }

    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let defaults = FleetConfig::default();
        let mut args = Args {
            tenants: defaults.tenants,
            protocols: "ring".to_owned(),
            seed: defaults.master_seed,
            workers: defaults.workers,
            slab_size: defaults.slab_size,
            faults: defaults.faults_per_tenant,
            journal: None,
            out: None,
        };
        let mut argv = argv.iter();
        while let Some(arg) = argv.next() {
            match arg.as_str() {
                "--tenants" => args.tenants = value(&mut argv, "--tenants")?,
                "--protocols" => args.protocols = value(&mut argv, "--protocols")?,
                "--seed" => args.seed = value::<Seed>(&mut argv, "--seed")?.0,
                "--workers" => args.workers = value(&mut argv, "--workers")?,
                "--slab-size" => args.slab_size = value(&mut argv, "--slab-size")?,
                "--faults" => args.faults = value(&mut argv, "--faults")?,
                "--journal" => args.journal = Some(value(&mut argv, "--journal")?),
                "--out" => args.out = Some(value(&mut argv, "--out")?),
                other => return Err(format!("unknown fleet option `{other}`")),
            }
        }
        Ok(args)
    }

    pub fn run(args: &Args) -> Result<ExitCode, String> {
        let protocols = match args.protocols.as_str() {
            "ring" => FleetProtocol::ring_mix(),
            "mixed" => FleetProtocol::mixed(),
            other => return Err(format!("unknown protocol set `{other}` (ring|mixed)")),
        };
        let config = FleetConfig {
            protocols,
            tenants: args.tenants,
            master_seed: args.seed,
            workers: args.workers,
            slab_size: args.slab_size,
            faults_per_tenant: args.faults,
            ..FleetConfig::default()
        };
        let journal = open_journal(args.journal.as_deref())?;
        println!(
            "fleet: {} tenants over {} configurations (seed {:#x}, {} faults/tenant)",
            config.tenants,
            config.protocols.len(),
            config.master_seed,
            config.faults_per_tenant
        );
        let report = run_fleet(&config, &journal).map_err(|e| e.to_string())?;
        journal.flush();

        println!(
            "{} tenants retired in {:.3}s ({:.0} instances/s, {:.0} steps/s), \
             {} B/instance, cache hit rate {:.4}%",
            report.tenants,
            report.wall.as_secs_f64(),
            report.instances_per_second(),
            report.steps_per_second(),
            report.bytes_per_instance,
            report.cache_hit_rate() * 100.0
        );
        println!(
            "latency: p50 {} p99 {} max {} steps; digest {:016x}",
            report.histogram.percentile(50.0).unwrap_or(0),
            report.histogram.percentile(99.0).unwrap_or(0),
            report.histogram.max(),
            report.digest()
        );
        for c in &report.configs {
            println!(
                "  {:<16} {:>8} tenants {:>10} steps  max latency {:>3} / bound {:<4} {}",
                c.key,
                c.tenants,
                c.steps,
                c.max_latency,
                c.bound.map_or("-".to_string(), |b| b.to_string()),
                if c.within_bound() { "ok" } else { "VIOLATED" }
            );
        }
        if let Some(path) = &args.journal {
            eprintln!("population journal written to {path}");
        }
        if let Some(path) = &args.out {
            std::fs::write(path, report.to_json())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        Ok(if report.violations() == 0 {
            ExitCode::SUCCESS
        } else {
            eprintln!(
                "error: {} verdict-contradicting tenants/configurations",
                report.violations()
            );
            ExitCode::from(2)
        })
    }
}

/// `synth`: run the constraint-guided synthesizer on one of the paper's
/// decompositions, print the certified design, and optionally golden-diff
/// it or feed it through the conformance corpus.
mod synth {
    use std::process::ExitCode;

    use super::{open_journal, value, Seed};

    use nonmask_conform::{run_corpus, CorpusConfig, ProtocolSpec};
    use nonmask_lang::compile_predicate;
    use nonmask_obs::Journal;
    use nonmask_synth::{specs, synthesize, SynthOptions, SynthResult, SynthSpec};

    pub struct Args {
        protocol: String,
        nodes: Option<usize>,
        window: Option<i64>,
        colors: Option<i64>,
        threads: usize,
        out: Option<String>,
        journal: Option<String>,
        golden: Option<String>,
        conform: bool,
        seed: u64,
    }

    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            protocol: String::new(),
            nodes: None,
            window: None,
            colors: None,
            threads: 0,
            out: None,
            journal: None,
            golden: None,
            conform: false,
            seed: 1,
        };
        let mut argv = argv.iter();
        while let Some(arg) = argv.next() {
            match arg.as_str() {
                "--protocol" => args.protocol = value(&mut argv, "--protocol")?,
                "--nodes" => args.nodes = Some(value(&mut argv, "--nodes")?),
                "--window" => args.window = Some(value(&mut argv, "--window")?),
                "--colors" => args.colors = Some(value(&mut argv, "--colors")?),
                "--threads" => args.threads = value(&mut argv, "--threads")?,
                "--seed" => args.seed = value::<Seed>(&mut argv, "--seed")?.0,
                "--out" => args.out = Some(value(&mut argv, "--out")?),
                "--journal" => args.journal = Some(value(&mut argv, "--journal")?),
                "--golden" => args.golden = Some(value(&mut argv, "--golden")?),
                "--conform" => args.conform = true,
                other => return Err(format!("unknown synth option `{other}`")),
            }
        }
        if args.protocol.is_empty() {
            return Err("synth needs --protocol token-ring|diffusing|coloring".to_owned());
        }
        Ok(args)
    }

    fn spec_for(args: &Args) -> Result<SynthSpec, String> {
        match args.protocol.as_str() {
            "token-ring" => {
                specs::token_ring_windowed(args.nodes.unwrap_or(4), args.window.unwrap_or(3))
            }
            "diffusing" => specs::diffusing(args.nodes.unwrap_or(7)),
            "coloring" => specs::coloring(args.nodes.unwrap_or(7), args.colors.unwrap_or(3)),
            other => return Err(format!("unknown synth protocol `{other}`")),
        }
        .map_err(|e| e.to_string())
    }

    /// A conformance-corpus spec for the synthesized design: its program,
    /// the goal compiled against it, and the design's own constraints,
    /// each paired with its derived `repair.*` action.
    fn corpus_spec(spec: &SynthSpec, out: &SynthResult) -> Result<ProtocolSpec, String> {
        let program = out.design.program().clone();
        let goal = compile_predicate(&program, &out.def, "goal", &spec.goal)
            .map_err(|e| format!("goal does not compile against the design: {e}"))?;
        Ok(ProtocolSpec {
            name: format!("synth-{}", out.spec_name),
            program,
            goal,
            constraints: out.design.constraints().to_vec(),
        })
    }

    pub fn run(args: &Args) -> Result<ExitCode, String> {
        let spec = spec_for(args)?;
        let journal = open_journal(args.journal.as_deref())?;
        let opts = SynthOptions {
            threads: args.threads,
            ..SynthOptions::default()
        };
        let out = synthesize(&spec, &opts, &journal).map_err(|e| e.to_string())?;
        journal.flush();

        let rendered = out.render();
        print!("{rendered}");
        println!(
            "synth {}: {} states, {} candidates -> {} survivors -> {} certified; \
             {} oracle sweeps ({} unpruned, {:.1}x saved); {}",
            out.spec_name,
            out.metrics.states,
            out.metrics.candidates,
            out.metrics.survivors,
            out.metrics.certified,
            out.metrics.oracle_calls,
            out.metrics.oracle_calls_unpruned,
            out.metrics.oracle_calls_unpruned as f64 / out.metrics.oracle_calls.max(1) as f64,
            out.report.summary()
        );
        if let Some(path) = &args.out {
            std::fs::write(path, &rendered).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("design written to {path}");
        }
        if let Some(path) = &args.journal {
            eprintln!("synthesis journal written to {path}");
        }

        if let Some(path) = &args.golden {
            let expected = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read golden {path}: {e}"))?;
            if rendered != expected {
                eprintln!("golden mismatch against {path}:");
                for diff in diff_lines(&expected, &rendered) {
                    eprintln!("{diff}");
                }
                return Ok(ExitCode::from(2));
            }
            println!("golden match: {path}");
        }

        if args.conform {
            let corpus = corpus_spec(&spec, &out)?;
            let config = CorpusConfig::smoke(args.seed);
            println!(
                "conformance: {} sim + {} net runs of {}",
                config.sim_runs, config.net_runs, corpus.name
            );
            let report = run_corpus(std::slice::from_ref(&corpus), &config, &Journal::disabled())?;
            print!("{}", report.render());
            if report.divergent_runs() > 0 {
                return Ok(ExitCode::from(2));
            }
        }
        Ok(ExitCode::SUCCESS)
    }

    /// A minimal unified-ish diff: every line that differs, prefixed.
    fn diff_lines(expected: &str, got: &str) -> Vec<String> {
        let e: Vec<&str> = expected.lines().collect();
        let g: Vec<&str> = got.lines().collect();
        let mut out = Vec::new();
        for i in 0..e.len().max(g.len()) {
            match (e.get(i), g.get(i)) {
                (Some(a), Some(b)) if a == b => {}
                (a, b) => {
                    if let Some(a) = a {
                        out.push(format!("-{a}"));
                    }
                    if let Some(b) = b {
                        out.push(format!("+{b}"));
                    }
                }
            }
        }
        out
    }
}

/// `byzantine`: the containment-radius agreement battery. One Byzantine
/// instance runs through the simulator and the socket runtime on the
/// same seed; each layer's journal gets per-node containment verdicts,
/// and the radius measured from those verdicts must agree across the
/// layers, match the theory's prediction, and match the checker's
/// restricted-region convergence sweep on a small instance of the same
/// topology family. Exit 2 means the layers ran but a radius disagrees
/// — a containment violation.
mod byzantine {
    use std::process::ExitCode;
    use std::time::Duration;

    use super::{open_journal, value, Seed};

    use nonmask_checker::{certify_containment, CheckOptions, Fairness, StateSpace};
    use nonmask_conform::{
        radii_agree, run_net, run_sim, ContainmentMap, FaultSchedule, NetRunConfig, SimRunConfig,
    };
    use nonmask_graph::Topology;
    use nonmask_obs::Journal;
    use nonmask_program::{Program, State};
    use nonmask_protocols::{ByzantineModel, ContainmentTheory, MinPlusOne, SpanningTree};

    pub struct Args {
        protocol: String,
        nodes: usize,
        degree: usize,
        topo_seed: u64,
        byz: Option<Vec<usize>>,
        seed: u64,
        check_nodes: Option<usize>,
        timeout_ms: u64,
        out: Option<String>,
    }

    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            protocol: "bfs".to_owned(),
            nodes: 64,
            degree: 3,
            topo_seed: 1,
            byz: None,
            seed: 1,
            check_nodes: None,
            timeout_ms: 60_000,
            out: None,
        };
        let mut argv = argv.iter();
        while let Some(arg) = argv.next() {
            match arg.as_str() {
                "--protocol" => args.protocol = value(&mut argv, "--protocol")?,
                "--nodes" => args.nodes = value(&mut argv, "--nodes")?,
                "--degree" => args.degree = value(&mut argv, "--degree")?,
                "--topo-seed" => args.topo_seed = value::<Seed>(&mut argv, "--topo-seed")?.0,
                "--byz" => {
                    let list: String = value(&mut argv, "--byz")?;
                    let nodes: Result<Vec<usize>, _> =
                        list.split(',').map(str::trim).map(str::parse).collect();
                    args.byz = Some(nodes.map_err(|e| format!("--byz: {e}"))?);
                }
                "--seed" => args.seed = value::<Seed>(&mut argv, "--seed")?.0,
                "--check-nodes" => args.check_nodes = Some(value(&mut argv, "--check-nodes")?),
                "--timeout-ms" => args.timeout_ms = value(&mut argv, "--timeout-ms")?,
                "--out" => args.out = Some(value(&mut argv, "--out")?),
                other => return Err(format!("unknown byzantine option `{other}`")),
            }
        }
        if args.nodes < 4 {
            return Err("byzantine needs --nodes >= 4".to_owned());
        }
        Ok(args)
    }

    /// The checker instance is fully enumerated, so its size is capped
    /// per protocol: min+1 has `n+1` values per node, the spanning
    /// tree `(n+1)·n` (distance × parent).
    fn check_nodes_for(protocol: &str, requested: Option<usize>) -> Result<usize, String> {
        let (default, max) = match protocol {
            "spanning-tree" => (4, 5),
            _ => (6, 7),
        };
        let n = requested.unwrap_or(default);
        if n < 4 || n > max {
            return Err(format!(
                "--check-nodes must be in 4..={max} for {protocol} (the space is enumerated)"
            ));
        }
        Ok(n)
    }

    /// Default liar placement: one mid-graph, one at the highest node
    /// id — deterministic, never the root.
    fn default_byz(nodes: usize) -> Vec<usize> {
        vec![nodes / 2, nodes - 1]
    }

    /// One protocol instance: its program, containment model, and the
    /// measurement built from that model.
    struct Instance {
        program: Program,
        model: ByzantineModel,
        map: ContainmentMap,
    }

    fn build(protocol: &str, topo: &Topology, byz: &[usize]) -> Result<Instance, String> {
        for &b in byz {
            if b >= topo.len() {
                return Err(format!("--byz node {b} out of range"));
            }
            if b == 0 {
                return Err("node 0 is the root; pick a non-root liar".to_owned());
            }
        }
        let (program, model) = match protocol {
            "bfs" => {
                let proto = MinPlusOne::with_byzantine(topo, 0, byz);
                (proto.program().clone(), proto.model().clone())
            }
            "spanning-tree" => {
                let proto = SpanningTree::with_byzantine(topo, 0, byz);
                (proto.program().clone(), proto.model().clone())
            }
            other => return Err(format!("unknown --protocol `{other}` (bfs|spanning-tree)")),
        };
        let map = ContainmentMap::new(&model).map_err(|e| e.to_string())?;
        Ok(Instance {
            program,
            model,
            map,
        })
    }

    fn journal_for(out: &Option<String>, name: &str) -> Result<(Journal, Option<String>), String> {
        match out {
            Some(dir) => {
                std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
                let path = format!("{dir}/{name}.jsonl");
                Ok((open_journal(Some(&path))?, Some(path)))
            }
            None => Ok((Journal::disabled(), None)),
        }
    }

    /// Measure one layer's radius: run it, judge the final state, and
    /// append the per-node containment verdicts to the layer journal.
    fn measure_sim(
        inst: &Instance,
        seed: u64,
        journal: &Journal,
    ) -> Result<(u64, State, bool), String> {
        let cfg = SimRunConfig {
            byzantine: inst.model.byzantine().to_vec(),
            byzantine_seed: seed,
            ..SimRunConfig::default()
        };
        let outcome = run_sim(
            &inst.program,
            &inst.model.safe_goal(),
            seed,
            &FaultSchedule::empty(),
            &cfg,
            journal,
        )?;
        let radius = inst.map.emit(&outcome.final_state, "sim", seed, journal);
        journal.flush();
        Ok((radius, outcome.final_state, outcome.stabilized))
    }

    fn measure_net(
        inst: &Instance,
        seed: u64,
        timeout_ms: u64,
        journal: &Journal,
    ) -> Result<(u64, bool), String> {
        let cfg = NetRunConfig {
            byzantine: inst.model.byzantine().to_vec(),
            byzantine_seed: seed,
            timeout: Duration::from_millis(timeout_ms),
            ..NetRunConfig::default()
        };
        let outcome = run_net(&inst.program, &inst.model.safe_goal(), seed, &cfg, journal)
            .map_err(|e| format!("net run failed: {e}"))?;
        let radius = inst.map.emit(&outcome.final_state, "net", seed, journal);
        journal.flush();
        Ok((radius, outcome.stabilized))
    }

    pub fn run(args: &Args) -> Result<ExitCode, String> {
        let byz = args.byz.clone().unwrap_or_else(|| default_byz(args.nodes));
        let topo = Topology::random_connected(args.nodes, args.degree, args.topo_seed);
        let inst = build(&args.protocol, &topo, &byz)?;
        // Checked before any layer runs, so a bad size costs no run.
        let check_nodes = check_nodes_for(&args.protocol, args.check_nodes)?;
        println!(
            "byzantine {}: {} nodes (degree {}, topo seed {}), liars {:?}, run seed {}",
            args.protocol, args.nodes, args.degree, args.topo_seed, byz, args.seed
        );
        let predicted = inst.model.predicted_radius();
        println!("predicted containment radius: {predicted}");

        let (sim_journal, sim_path) = journal_for(&args.out, "sim")?;
        let (sim_radius, _, sim_ok) = measure_sim(&inst, args.seed, &sim_journal)?;
        println!(
            "sim: safe region {}, measured radius {}{}",
            if sim_ok {
                "stabilized"
            } else {
                "DID NOT stabilize"
            },
            sim_radius,
            sim_path
                .as_deref()
                .map(|p| format!(" -> {p}"))
                .unwrap_or_default()
        );

        let (net_journal, net_path) = journal_for(&args.out, "net")?;
        let (net_radius, net_ok) = measure_net(&inst, args.seed, args.timeout_ms, &net_journal)?;
        println!(
            "net: safe region {}, measured radius {}{}",
            if net_ok {
                "stabilized"
            } else {
                "DID NOT stabilize"
            },
            net_radius,
            net_path
                .as_deref()
                .map(|p| format!(" -> {p}"))
                .unwrap_or_default()
        );

        // The checker's independent verdict on a small instance of the
        // same family: enumerate the full Byzantine state space (havoc
        // actions included) and sweep the restricted-region goals.
        let small_byz = default_byz(check_nodes);
        let small_topo = Topology::random_connected(check_nodes, 2, args.topo_seed);
        let small = build(&args.protocol, &small_topo, &small_byz)?;
        let space = StateSpace::enumerate(&small.program)
            .map_err(|e| format!("small-instance enumeration failed: {e}"))?;
        let verdict = certify_containment(
            &space,
            &small.program,
            |r| small.model.containment_goal(r),
            check_nodes as u64,
            Fairness::WeaklyFair,
            CheckOptions::default(),
        )
        .map_err(|e| format!("containment certification failed: {e}"))?;
        let certified = verdict
            .radius
            .ok_or("no radius converged on the small instance")?;

        let (small_journal, small_path) = journal_for(&args.out, "small")?;
        let (small_radius, _, small_ok) = measure_sim(&small, args.seed, &small_journal)?;
        println!(
            "checker: {} nodes, {} states, certified radius {}; observed small-instance radius {} ({}){}",
            check_nodes,
            space.len(),
            certified,
            small_radius,
            if small_ok { "stabilized" } else { "DID NOT stabilize" },
            small_path.as_deref().map(|p| format!(" -> {p}")).unwrap_or_default()
        );

        // Every layer must have stabilized its safe region, and the
        // radii must pass the shared agreement rule on both instances.
        let agree = sim_ok
            && net_ok
            && small_ok
            && radii_agree(&inst.model, &[sim_radius, net_radius], None)
            && radii_agree(&small.model, &[small_radius], Some(certified));
        if let Some(dir) = &args.out {
            let summary = format!(
                "{{\"protocol\":\"{}\",\"nodes\":{},\"byzantine\":{:?},\"seed\":{},\
                 \"predicted_radius\":{},\"sim_radius\":{sim_radius},\"net_radius\":{net_radius},\
                 \"check_nodes\":{},\"certified_radius\":{certified},\"small_radius\":{small_radius},\
                 \"agree\":{agree}}}\n",
                args.protocol,
                args.nodes,
                byz,
                args.seed,
                predicted,
                check_nodes,
            );
            let path = format!("{dir}/summary.json");
            std::fs::write(&path, summary).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("summary written to {path}");
        }
        if agree {
            println!("containment radii agree across sim, net, and checker");
            Ok(ExitCode::SUCCESS)
        } else {
            eprintln!("RADIUS VIOLATION: sim/net/checker disagree (see above)");
            Ok(ExitCode::from(2))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    fn parse_err(args: &[&str]) -> String {
        parse_args(&argv(args))
            .err()
            .expect("the arguments are rejected")
    }

    #[test]
    fn a_flag_without_a_value_is_named() {
        assert_eq!(
            parse_err(&["token-ring", "--nodes"]),
            "--nodes needs a value"
        );
        assert_eq!(parse_err(&["token-ring", "--json"]), "--json needs a value");
    }

    #[test]
    fn a_value_that_fails_to_parse_names_its_flag() {
        assert_eq!(
            parse_err(&["token-ring", "--nodes", "x"]),
            "--nodes: invalid digit found in string"
        );
        assert_eq!(
            parse_err(&["token-ring", "--loss", "high"]),
            "--loss: invalid float literal"
        );
    }

    #[test]
    fn an_unknown_option_is_rejected() {
        assert_eq!(
            parse_err(&["token-ring", "--bogus"]),
            "unknown option `--bogus`"
        );
        assert_eq!(
            parse_err(&["token-ring", "diffusing"]),
            "unexpected argument `diffusing`"
        );
    }

    #[test]
    fn flags_take_the_next_argument_as_their_value() {
        let args = parse_args(&argv(&[
            "--nodes",
            "7",
            "diffusing",
            "--k",
            "9",
            "--journal",
            "--seed",
        ]))
        .unwrap();
        assert_eq!(args.protocol, "diffusing");
        assert_eq!((args.nodes, args.k), (7, Some(9)));
        assert_eq!(args.journal.as_deref(), Some("--seed"));
        assert_eq!(args.seed, 1, "an unset flag keeps its default");
    }
}
