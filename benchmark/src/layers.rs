//! Per-layer metrics, derived from a traced trial's journal only.
//!
//! The journal holds the benchmark's spans — `<workload>/<trial>/…`
//! paths whose last segment is `<layer>.<call>`, so a span's trial and
//! parent read off its name — the figures the benchmark journals under
//! the `benchmark` counter scope, and the layers' own events: `CsrPhase`,
//! `Segment`, `Counter` (`checker`, `core.timings`, `fleet`,
//! `net-node:<i>`) and `EpisodeConverged`. A layer the workload never
//! enters leaves its metrics at zero.

use std::collections::BTreeMap;

use nonmask_obs::{Event, Record};

use crate::metrics::PER_LAYER;
use crate::net::CRASH_LABEL;
use crate::stats::median_of;
use crate::workload::BENCH_SCOPE;

/// The journal, indexed for the queries below.
struct View<'a> {
    /// Closed spans: name and duration in µs.
    spans: Vec<(&'a str, u64)>,
    events: Vec<&'a Event>,
}

impl<'a> View<'a> {
    /// Index `records`, checking that spans nest.
    fn new(records: &'a [Record]) -> Result<Self, String> {
        let mut open: Vec<&str> = Vec::new();
        let mut spans = Vec::new();
        let mut events = Vec::new();
        for r in records {
            match &r.event {
                Event::SpanOpen { name } => open.push(name),
                Event::SpanClose { name, micros } => {
                    if open.pop() != Some(name.as_str()) {
                        return Err(format!("span `{name}` closes out of order"));
                    }
                    spans.push((name.as_str(), *micros));
                }
                event => events.push(event),
            }
        }
        match open.last() {
            Some(name) => Err(format!("span `{name}` never closes")),
            None => Ok(View { spans, events }),
        }
    }

    /// Seconds spent in spans whose call segment is `call`.
    fn span_s(&self, call: &str) -> f64 {
        let micros: u64 = self
            .spans
            .iter()
            .filter(|(name, _)| name.rsplit('/').next() == Some(call))
            .map(|&(_, us)| us)
            .sum();
        micros as f64 / 1e6
    }

    /// Every value of counter `name` in scopes accepted by `scope`.
    fn counters(&self, scope: impl Fn(&str) -> bool, name: &str) -> Vec<u64> {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::Counter {
                    scope: s,
                    name: n,
                    value,
                } if scope(s) && n == name => Some(*value),
                _ => None,
            })
            .collect()
    }

    /// Sum of counter `name` in the scope `scope`.
    fn sum(&self, scope: &str, name: &str) -> f64 {
        self.counters(|s| s == scope, name).iter().sum::<u64>() as f64
    }

    /// Median of the benchmark's own counter `name`, scaled by `scale`.
    fn bench_median(&self, name: &str, scale: f64) -> f64 {
        let values: Vec<f64> = self
            .counters(|s| s == BENCH_SCOPE, name)
            .into_iter()
            .map(|v| v as f64 * scale)
            .collect();
        median_of(&values).unwrap_or(0.0)
    }

    /// Median convergence latency (ms) of the episodes whose label
    /// satisfies `label`.
    fn episode_median_ms(&self, label: impl Fn(&str) -> bool) -> Option<f64> {
        let ms: Vec<f64> = self
            .events
            .iter()
            .filter_map(|e| match e {
                Event::EpisodeConverged { label: l, micros } if label(l) => {
                    Some(*micros as f64 / 1e3)
                }
                _ => None,
            })
            .collect();
        median_of(&ms)
    }
}

/// `a / b`, or zero when `b` is zero.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Derive every metric of [`PER_LAYER`] from a parsed journal.
///
/// # Errors
///
/// A message when the journal's spans do not nest.
pub fn derive(records: &[Record]) -> Result<BTreeMap<&'static str, f64>, String> {
    let v = View::new(records)?;
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    // checker, resident path
    let (mut build_us, mut states, mut transitions) = (0u64, 0u64, 0u64);
    for e in &v.events {
        if let Event::CsrPhase {
            phase,
            states: s,
            transitions: t,
            micros,
        } = e
        {
            build_us += micros;
            if phase == "fill" {
                states += s;
                transitions += t;
            }
        }
    }
    let (states, transitions) = (states as f64, transitions as f64);
    let enumerate_s = v.span_s("checker.enumerate");
    let build_s = build_us as f64 / 1e6;
    let checker = |name| v.sum("checker", name);
    m.insert("checker.enumerate_s", enumerate_s);
    m.insert("checker.csr_build_s", build_s);
    m.insert("checker.csr_alloc_s", (enumerate_s - build_s).max(0.0));
    m.insert("checker.states", states);
    m.insert("checker.transitions", transitions);
    m.insert("checker.transitions_per_s", ratio(transitions, build_s));
    m.insert(
        "checker.bytes_per_state",
        ratio(v.sum(BENCH_SCOPE, "resident_bytes"), states),
    );
    m.insert(
        "checker.peel_ratio",
        ratio(checker("peeled_states"), checker("region_states")),
    );
    m.insert("checker.sccs_found", checker("sccs_found"));

    // core
    let hits = checker("cache_hits");
    m.insert("core.verify_with_s", v.span_s("core.verify_with"));
    for (metric, counter) in [
        ("core.predicate_eval_s", "predicate_eval_us"),
        ("core.closure_s", "closure_us"),
        ("core.theorem_s", "theorem_us"),
        ("core.convergence_s", "convergence_us"),
        ("core.bounds_s", "bounds_us"),
    ] {
        m.insert(metric, v.sum("core.timings", counter) / 1e6);
    }
    m.insert(
        "core.preserve_hit_rate",
        ratio(hits, hits + checker("cache_misses")),
    );

    // checker, frontier path
    let (mut rounds, mut evals) = (0u64, 0u64);
    for e in &v.events {
        if let Event::Segment {
            phase, transitions, ..
        } = e
        {
            if phase == "frontier-round" {
                rounds += 1;
                evals += transitions;
            }
        }
    }
    let frontier_s = v.span_s("checker.frontier");
    m.insert("checker.index_s", v.span_s("checker.index"));
    m.insert("checker.frontier_s", frontier_s);
    m.insert("checker.frontier_rounds", rounds as f64);
    m.insert("checker.frontier_evals", evals as f64);
    m.insert("checker.evals_per_s", ratio(evals as f64, frontier_s));

    // fleet
    let fleet = |name| v.sum("fleet", name);
    let (steps, ticks, lookups) = (fleet("steps"), fleet("ticks"), fleet("cache_lookups"));
    let run_s = v.span_s("fleet.run");
    m.insert("fleet.verdict_s", v.span_s("fleet.verdicts"));
    m.insert("fleet.run_s", run_s);
    m.insert("fleet.steps", steps);
    m.insert("fleet.ticks", ticks);
    m.insert("fleet.faults", fleet("faults"));
    m.insert("fleet.steps_per_s", ratio(steps, run_s));
    m.insert("fleet.step_per_tick", ratio(steps, ticks));
    let misses = v.sum(BENCH_SCOPE, "enumerations");
    m.insert("fleet.cache_hit_rate", ratio(lookups - misses, lookups));
    m.insert(
        "fleet.bytes_per_instance",
        v.sum(BENCH_SCOPE, "bytes_per_instance"),
    );

    // net
    let node = |name| {
        v.counters(|s| s.starts_with("net-node:"), name)
            .iter()
            .sum::<u64>() as f64
    };
    let net_run_s = v.sum(BENCH_SCOPE, "net_wall_us") / 1e6;
    let sent = node("sent");
    let net_steps = node("steps");
    m.insert("net.setup_s", (v.span_s("net.run") - net_run_s).max(0.0));
    m.insert("net.run_s", net_run_s);
    m.insert("net.frames_sent", sent);
    m.insert("net.frames_received", node("received"));
    m.insert("net.actions_executed", net_steps);
    m.insert("net.heartbeats", node("heartbeats"));
    m.insert("net.rejected", node("rejected"));
    m.insert(
        "net.cpu_per_frame_us",
        ratio(v.sum(BENCH_SCOPE, "cpu_us"), sent),
    );
    m.insert(
        "net.detect_floor_ms",
        v.episode_median_ms(|l| l == "initial convergence" || l == "partition heal")
            .unwrap_or(0.0),
    );
    let stable_for_ms = v.sum(BENCH_SCOPE, "stable_for_us") / 1e3;
    m.insert(
        "net.recover_excess_ms",
        v.episode_median_ms(|l| l.starts_with(CRASH_LABEL))
            .map_or(0.0, |ms| ms - stable_for_ms),
    );
    m.insert(
        "net.useful_step_ratio",
        ratio(node("convergence_steps"), net_steps),
    );

    // the tracing itself
    let traced = v.bench_median("latency_us", 1e-3);
    m.insert("trace.latency_ms", traced);
    m.insert(
        "trace.overhead_ms",
        traced - v.bench_median("untraced_latency_us", 1e-3),
    );

    debug_assert!(PER_LAYER.iter().all(|metric| m.contains_key(metric.name)));
    debug_assert_eq!(m.len(), PER_LAYER.len());
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(event: Event) -> Record {
        Record { t_us: 0, event }
    }

    #[test]
    fn spans_must_nest() {
        let open = |n: &str| {
            rec(Event::SpanOpen {
                name: n.to_string(),
            })
        };
        let close = |n: &str| {
            rec(Event::SpanClose {
                name: n.to_string(),
                micros: 1,
            })
        };
        assert!(derive(&[open("a"), open("a/b"), close("a"), close("a/b")]).is_err());
        assert!(derive(&[open("a")]).is_err());
        let ok = derive(&[
            open("w/0"),
            open("w/0/fleet.run"),
            close("w/0/fleet.run"),
            close("w/0"),
        ])
        .unwrap();
        assert_eq!(ok["fleet.run_s"], 1e-6);
    }

    #[test]
    fn an_empty_journal_derives_every_metric_as_zero() {
        let m = derive(&[]).unwrap();
        assert_eq!(m.len(), PER_LAYER.len());
        assert!(m.values().all(|&v| v == 0.0));
    }

    #[test]
    fn episode_figures_split_floor_from_excess() {
        let ep = |label: &str, ms: u64| {
            rec(Event::EpisodeConverged {
                label: label.to_string(),
                micros: ms * 1000,
            })
        };
        let counter = |name: &str, value| {
            rec(Event::Counter {
                scope: BENCH_SCOPE.to_string(),
                name: name.to_string(),
                value,
            })
        };
        let m = derive(&[
            counter("stable_for_us", 120_000),
            ep("initial convergence", 120),
            ep("crash-restart node 3", 200),
            ep("partition heal", 122),
            ep("crash-restart node 6", 180),
        ])
        .unwrap();
        assert_eq!(m["net.detect_floor_ms"], 121.0);
        assert_eq!(m["net.recover_excess_ms"], 70.0);
    }
}
