//! The metric catalog: every end-to-end and per-layer metric the
//! benchmark reports, with its unit and direction. `BENCHMARK.json` lists
//! the same names (a unit test keeps the two in step) and adds the
//! regression bound of each end-to-end metric.

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory, work).
    Lower,
    /// Larger values are better (rates, useful-work ratios).
    Higher,
}

impl Better {
    /// The word used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's name, unit and direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, e.g. `ms` or `count`.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Metrics measured with tracing off, reported for every workload: the
/// calibrated median latency of one operation, the calibrated median
/// set-up time (plus its floor), and peak resident memory.
pub const END_TO_END: [Metric; 3] = [
    lower("latency_ms", "ms"),
    lower("setup_s", "s"),
    lower("peak_rss_mb", "MB"),
];

/// Metrics derived from the traced run's journal, reported for every
/// workload (zero where the workload does not enter the layer).
pub const PER_LAYER: [Metric; 43] = [
    // checker, resident path (verify-resident)
    lower("checker.enumerate_s", "s"),
    lower("checker.csr_build_s", "s"),
    lower("checker.csr_alloc_s", "s"),
    lower("checker.states", "count"),
    lower("checker.transitions", "count"),
    higher("checker.transitions_per_s", "1/s"),
    lower("checker.bytes_per_state", "B"),
    higher("checker.peel_ratio", "ratio"),
    lower("checker.sccs_found", "count"),
    // core (verify-resident)
    lower("core.verify_with_s", "s"),
    lower("core.predicate_eval_s", "s"),
    lower("core.closure_s", "s"),
    lower("core.theorem_s", "s"),
    lower("core.convergence_s", "s"),
    lower("core.bounds_s", "s"),
    higher("core.preserve_hit_rate", "ratio"),
    // checker, out-of-core frontier path (verify-frontier)
    lower("checker.index_s", "s"),
    lower("checker.frontier_s", "s"),
    lower("checker.frontier_rounds", "count"),
    lower("checker.frontier_evals", "count"),
    higher("checker.evals_per_s", "1/s"),
    // fleet (fleet-mixed)
    lower("fleet.verdict_s", "s"),
    lower("fleet.run_s", "s"),
    lower("fleet.steps", "count"),
    lower("fleet.ticks", "count"),
    lower("fleet.faults", "count"),
    higher("fleet.steps_per_s", "1/s"),
    higher("fleet.step_per_tick", "ratio"),
    higher("fleet.cache_hit_rate", "ratio"),
    lower("fleet.bytes_per_instance", "B"),
    // net (net-churn-10k)
    lower("net.setup_s", "s"),
    lower("net.run_s", "s"),
    lower("net.frames_sent", "count"),
    lower("net.frames_received", "count"),
    lower("net.actions_executed", "count"),
    lower("net.heartbeats", "count"),
    lower("net.rejected", "count"),
    lower("net.cpu_per_frame_us", "us"),
    lower("net.detect_floor_ms", "ms"),
    lower("net.recover_excess_ms", "ms"),
    higher("net.useful_step_ratio", "ratio"),
    // the tracing itself (every workload)
    lower("trace.latency_ms", "ms"),
    lower("trace.overhead_ms", "ms"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn listed(doc: &Value, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn catalog(metrics: &[Metric]) -> Vec<(String, String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(listed(&doc, "end_to_end"), catalog(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), catalog(&PER_LAYER));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }
}
