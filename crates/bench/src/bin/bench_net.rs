//! N1 net-scale figures: convergence latency versus node count for the
//! reactor runtime, 10^2 → 10^4 token-ring nodes under crash-restart and
//! partition/heal churn, emitted as `BENCH_net.json`.
//!
//! ```text
//! bench_net                     # full curve (100, 1000, 10000 nodes)
//! bench_net --smoke             # CI-sized (1000 nodes, one trial)
//! bench_net --check             # fail on non-convergence or digest drift
//! bench_net --out FILE          # write the JSON somewhere else
//! ```
//!
//! # What is measured
//!
//! Each scale runs the K-state token ring (`k = n`) from a legitimate
//! initial state through a fixed churn schedule — crash-restart with an
//! arbitrary resurrection state, a half-ring partition that heals, a
//! second crash, a shifted partition — five detector episodes per trial.
//! The first episode is the detection floor (the state is already
//! legitimate; converging from a fully *arbitrary* state is Θ(n²) ring
//! moves, protocol physics that would swamp the runtime comparison at
//! 10^4 nodes — E15 and the conformance corpus cover arbitrary starts
//! at small n). The four churn episodes measure recovery from bounded
//! disturbances, the quantity that is comparable across scales. Episode
//! latencies are collected across trials into per-episode p50 and p99.
//! The transport is lossless here (the churn *is* the disturbance;
//! hostile fault-rate sweeps live in the E15 experiment), so every
//! episode is expected to converge and `--check` can gate on it.
//!
//! Two walls are reported per trial: `run_wall_s` starts at the hello
//! barrier (what episode latencies are measured against) and
//! `total_wall_s` includes setup: refinement, specs, sockets and node
//! construction, `O(n + Σ footprint)` since each node holds only its
//! owned variables and its actions' reads. Setup is deliberately
//! excluded from latency figures.
//!
//! With `--check`, every trial must converge without timing out, and a
//! scheduling-invariance digest (episode structure, crash count, final
//! invariant) at 100 nodes must be identical across shard counts 1 and 2
//! — the shard mesh is physical transport only and must not leak into
//! logical outcomes.

use std::process::ExitCode;
use std::time::Duration;

use nonmask_net::{run, DetectorConfig, NetConfig, NetEvent, NetReport};
use nonmask_protocols::token_ring::TokenRing;

/// One point on the latency-vs-N curve.
struct Scale {
    n: usize,
    trials: usize,
}

fn scales(smoke: bool) -> Vec<Scale> {
    if smoke {
        vec![Scale { n: 1000, trials: 1 }]
    } else {
        vec![
            Scale { n: 100, trials: 5 },
            Scale { n: 1000, trials: 5 },
            Scale {
                n: 10_000,
                trials: 2,
            },
        ]
    }
}

/// A legitimate initial state (all equal: the bottom machine holds the
/// one token), so the first episode measures the detection floor and
/// the churn episodes measure recovery in isolation.
fn legitimate_initial(n: usize) -> Vec<i64> {
    vec![0; n]
}

/// The churn schedule: two crash-restarts and two partitions, spaced by
/// the detector's own convergence gating (each event waits for the
/// previous episode to settle), for five episodes per trial.
fn churn(n: usize) -> Vec<NetEvent> {
    let half: Vec<usize> = (0..n).map(|i| usize::from(i >= n / 2)).collect();
    let shifted: Vec<usize> = (0..n)
        .map(|i| usize::from((i + n / 4) % n >= n / 2))
        .collect();
    vec![
        NetEvent::CrashRestart {
            node: n / 3,
            at_least: Duration::ZERO,
            down: Duration::from_millis(20),
        },
        NetEvent::Partition {
            groups: half,
            at_least: Duration::ZERO,
            heal_after: Duration::from_millis(30),
        },
        NetEvent::CrashRestart {
            node: 2 * n / 3,
            at_least: Duration::ZERO,
            down: Duration::from_millis(20),
        },
        NetEvent::Partition {
            groups: shifted,
            at_least: Duration::ZERO,
            heal_after: Duration::from_millis(30),
        },
    ]
}

fn config(n: usize, seed: u64, shards: usize) -> NetConfig {
    NetConfig {
        seed,
        shards,
        // Uniform timing across scales so the curve compares like with
        // like: fast ticks, short cooldown, sparse heartbeats (the
        // lossless transport needs them only to heal post-partition
        // staleness, and 10^4 nodes heartbeating densely would melt a
        // single-core box).
        tick: Duration::from_micros(500),
        cooldown_ticks: 2,
        heartbeat_every: 400,
        detector: DetectorConfig {
            stable_for: Duration::from_millis(120),
            stable_fraction: 0.9,
            ..DetectorConfig::default()
        },
        timeout: Duration::from_secs(120),
        events: churn(n),
        ..NetConfig::default()
    }
}

struct Trial {
    report: NetReport,
    total_wall: Duration,
    invariant_holds: bool,
}

fn run_trial(n: usize, seed: u64, shards: usize) -> Result<Trial, String> {
    let ring = TokenRing::new(n, n as i64);
    let initial = ring
        .program()
        .state_from(legitimate_initial(n))
        .expect("zeros are in domain");
    let t = std::time::Instant::now();
    let report = run(
        ring.program(),
        &initial,
        &ring.invariant(),
        &config(n, seed, shards),
    )
    .map_err(|e| format!("n={n} seed={seed}: {e}"))?;
    let invariant_holds = ring.invariant().holds(&report.final_state);
    Ok(Trial {
        report,
        total_wall: t.elapsed(),
        invariant_holds,
    })
}

/// FNV-1a over the scheduling-invariant outcome of a trial: episode
/// structure and convergence, crash bookkeeping, and the final-state
/// invariant. Latencies and traffic counters are wall-clock-dependent
/// and deliberately excluded.
fn digest(trial: &Trial) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let r = &trial.report;
    eat(&(r.nodes.len() as u64).to_le_bytes());
    eat(&[u8::from(r.converged), u8::from(trial.invariant_holds)]);
    eat(&(r.episodes.len() as u64).to_le_bytes());
    for e in &r.episodes {
        eat(e.label.as_bytes());
        eat(&[u8::from(e.latency().is_some())]);
    }
    let crashes: u64 = r.nodes.iter().map(|x| x.counters.crashes).sum();
    eat(&crashes.to_le_bytes());
    h
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted_ms.len() as f64).ceil() as usize;
    sorted_ms[rank.clamp(1, sorted_ms.len()) - 1]
}

struct ScaleRow {
    n: usize,
    trials: Vec<Trial>,
}

impl ScaleRow {
    fn all_converged(&self) -> bool {
        self.trials
            .iter()
            .all(|t| t.report.converged && !t.report.timed_out && t.invariant_holds)
    }

    /// Per-episode latencies in ms across trials, by episode position.
    fn episode_latencies(&self) -> Vec<(String, Vec<f64>)> {
        let count = self
            .trials
            .iter()
            .map(|t| t.report.episodes.len())
            .max()
            .unwrap_or(0);
        (0..count)
            .map(|i| {
                let label = self
                    .trials
                    .iter()
                    .find_map(|t| t.report.episodes.get(i).map(|e| e.label.clone()))
                    .unwrap_or_default();
                let mut ms: Vec<f64> = self
                    .trials
                    .iter()
                    .filter_map(|t| t.report.episodes.get(i).and_then(|e| e.latency()))
                    .map(|d| d.as_secs_f64() * 1e3)
                    .collect();
                ms.sort_by(f64::total_cmp);
                (label, ms)
            })
            .collect()
    }
}

fn emit(rows: &[ScaleRow], mode: &str) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"bench-net-v1\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str("  \"scales\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"n\": {},\n", row.n));
        out.push_str(&format!("      \"trials\": {},\n", row.trials.len()));
        out.push_str(&format!(
            "      \"all_converged\": {},\n",
            row.all_converged()
        ));
        let runs: Vec<String> = row
            .trials
            .iter()
            .map(|t| format!("{:.3}", t.report.wall.as_secs_f64()))
            .collect();
        let totals: Vec<String> = row
            .trials
            .iter()
            .map(|t| format!("{:.3}", t.total_wall.as_secs_f64()))
            .collect();
        out.push_str(&format!("      \"run_wall_s\": [{}],\n", runs.join(", ")));
        out.push_str(&format!(
            "      \"total_wall_s\": [{}],\n",
            totals.join(", ")
        ));
        let sent: u64 = row
            .trials
            .iter()
            .flat_map(|t| &t.report.nodes)
            .map(|x| x.counters.sent)
            .sum();
        let steps: u64 = row
            .trials
            .iter()
            .flat_map(|t| &t.report.nodes)
            .map(|x| x.counters.steps)
            .sum();
        out.push_str(&format!("      \"frames_sent\": {sent},\n"));
        out.push_str(&format!("      \"actions_executed\": {steps},\n"));
        out.push_str("      \"episodes\": [\n");
        let episodes = row.episode_latencies();
        for (j, (label, ms)) in episodes.iter().enumerate() {
            let lats: Vec<String> = ms.iter().map(|v| format!("{v:.3}")).collect();
            out.push_str("        {\n");
            out.push_str(&format!("          \"label\": \"{label}\",\n"));
            out.push_str(&format!(
                "          \"p50_ms\": {:.3},\n",
                percentile(ms, 50.0)
            ));
            out.push_str(&format!(
                "          \"p99_ms\": {:.3},\n",
                percentile(ms, 99.0)
            ));
            out.push_str(&format!(
                "          \"latencies_ms\": [{}]\n",
                lats.join(", ")
            ));
            out.push_str(if j + 1 == episodes.len() {
                "        }\n"
            } else {
                "        },\n"
            });
        }
        out.push_str("      ]\n");
        out.push_str(if i + 1 == rows.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// The `--check` shard-invariance gate: the same 100-node trial under 1
/// and 2 shards must produce identical scheduling-invariant digests.
fn digest_moves_under_resharding() -> Result<bool, String> {
    let one = run_trial(100, 0xBE7_0001, 1)?;
    let two = run_trial(100, 0xBE7_0001, 2)?;
    Ok(digest(&one) != digest(&two))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let check = args.iter().any(|a| a == "--check");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_net.json".to_string());
    let mode = if smoke { "smoke" } else { "full" };

    println!(
        "{:>6} {:>7} {:>10} {:>10} {:>9} {:>9} {:>10}",
        "n", "trials", "ep p50 ms", "ep p99 ms", "run s", "total s", "converged"
    );
    let mut rows: Vec<ScaleRow> = Vec::new();
    let mut failed = false;
    for scale in scales(smoke) {
        let mut trials = Vec::new();
        for t in 0..scale.trials {
            match run_trial(scale.n, 0xBE7_1000 + t as u64, 0) {
                Ok(trial) => trials.push(trial),
                Err(e) => {
                    eprintln!("FAIL {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let row = ScaleRow { n: scale.n, trials };
        let mut all_ms: Vec<f64> = row
            .episode_latencies()
            .into_iter()
            .flat_map(|(_, ms)| ms)
            .collect();
        all_ms.sort_by(f64::total_cmp);
        let run_s: f64 = row
            .trials
            .iter()
            .map(|t| t.report.wall.as_secs_f64())
            .sum::<f64>()
            / row.trials.len() as f64;
        let total_s: f64 = row
            .trials
            .iter()
            .map(|t| t.total_wall.as_secs_f64())
            .sum::<f64>()
            / row.trials.len() as f64;
        println!(
            "{:>6} {:>7} {:>10.1} {:>10.1} {:>9.3} {:>9.3} {:>10}",
            row.n,
            row.trials.len(),
            percentile(&all_ms, 50.0),
            percentile(&all_ms, 99.0),
            run_s,
            total_s,
            row.all_converged(),
        );
        if check && !row.all_converged() {
            eprintln!("FAIL n={}: an episode failed to converge", row.n);
            failed = true;
        }
        rows.push(row);
    }
    if check {
        match digest_moves_under_resharding() {
            Ok(false) => {}
            Ok(true) => {
                eprintln!("FAIL: logical-outcome digest moved between 1 and 2 shards");
                failed = true;
            }
            Err(e) => {
                eprintln!("FAIL resharding gate: {e}");
                failed = true;
            }
        }
    }
    let json = emit(&rows, mode);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}");
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
