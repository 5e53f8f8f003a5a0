//! The batch-stepped fleet engine.
//!
//! Tenants (protocol instances) live in flat per-slab arenas — `stride`
//! contiguous `i64` slots of state plus a compact [`TenantMeta`] record
//! each — and are stepped in bursts of [`TICKS_PER_SWEEP`] ticks so a
//! slab's working set stays cache-resident. Slabs are distributed over a
//! work-stealing pool; everything a tenant does is a pure function of
//! `(protocols, master_seed, tenant_id, faults_per_tenant, max_steps)`,
//! so results are bit-identical across worker counts and slab sizes.
//!
//! A *tick* examines one tenant once: if the goal holds it either injects
//! the next pending fault (starting a fresh convergence episode) or
//! retires the tenant; otherwise it fires the action its own
//! [`RoundRobin`] daemon selects. The goal is checked **before** every
//! step, so each counted step departs a ¬goal state — which is exactly the
//! regime the checker's `worst_case_moves` bound quantifies, making the
//! fleet's empirical latencies directly comparable to the certified bound.
//!
//! This is the engine that tests observed convergence against the
//! certified bound at population scale (10^6 and more tenants); no other
//! engine runs enough independent executions to.

use std::time::Instant;

use nonmask_obs::{CounterSet, Counters, Journal};
use nonmask_program::scheduler::RoundRobin;
use nonmask_program::{Scheduler, State, VarId};
use rand::{split_seed, Rng, SplitMix64};

use crate::cache::VerdictCache;
use crate::config::FleetConfig;
use crate::hist::LatencyHistogram;
use crate::report::{ConfigReport, FleetReport};
use crate::FleetError;

/// Ticks granted to one tenant per sweep visit: long enough to amortize
/// the arena⇄scratch copies, short enough that a slab's tenants advance
/// together (cache-friendly interleaving). Any value yields identical
/// results — per-tenant execution is sequential either way.
const TICKS_PER_SWEEP: u32 = 64;

const RUNNING: u8 = 0;
const STABILIZED: u8 = 1;
const STUCK: u8 = 2;
const EXHAUSTED: u8 = 3;

/// Per-tenant bookkeeping besides the arena state slots: 24 bytes.
///
/// The RNG is a full [`SplitMix64`] (8 bytes of state), so each tenant
/// carries its own independent fault stream split from the master seed.
struct TenantMeta {
    rng: SplitMix64,
    /// Steps taken in the current convergence episode.
    episode_steps: u32,
    /// Steps of the final episode (set when the tenant stabilizes).
    latency: u32,
    /// The tenant's daemon: a position in the program's action list.
    daemon: RoundRobin,
    faults_left: u16,
    status: u8,
}

/// Per-configuration aggregates of one slab (later of the whole fleet).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct ConfigAgg {
    pub tenants: u64,
    pub steps: u64,
    pub stabilized: u64,
    pub stuck: u64,
    pub exhausted: u64,
    pub max_latency: u64,
}

impl ConfigAgg {
    fn merge(&mut self, other: &ConfigAgg) {
        self.tenants += other.tenants;
        self.steps += other.steps;
        self.stabilized += other.stabilized;
        self.stuck += other.stuck;
        self.exhausted += other.exhausted;
        self.max_latency = self.max_latency.max(other.max_latency);
    }
}

/// Everything one slab produces; merged in task order (and mergeable in
/// any order — counters and histograms are commutative monoids).
struct SlabOutcome {
    counters: Counters,
    hist: LatencyHistogram,
    configs: Vec<ConfigAgg>,
}

/// Run one tenant for up to `TICKS_PER_SWEEP` ticks on the scratch state.
/// Returns `(ticks, steps, faults)` consumed.
fn burst(
    meta: &mut TenantMeta,
    state: &mut State,
    rt: &crate::cache::ConfigRuntime,
    max_steps: u32,
) -> (u64, u64, u64) {
    let program = rt.program();
    let goal = rt.goal();
    let (mut ticks, mut steps, mut faults) = (0u64, 0u64, 0u64);
    for _ in 0..TICKS_PER_SWEEP {
        ticks += 1;
        if goal.holds(state) {
            if meta.faults_left > 0 {
                // Transient fault: corrupt one variable, then converge again.
                meta.faults_left -= 1;
                faults += 1;
                let var = meta.rng.gen_range(0..program.var_count());
                let value = program.vars()[var].domain().sample(&mut meta.rng);
                state.set(VarId::from_index(var), value);
                meta.episode_steps = 0;
            } else {
                meta.status = STABILIZED;
                meta.latency = meta.episode_steps;
                break;
            }
        } else if meta.episode_steps >= max_steps {
            meta.status = EXHAUSTED;
            break;
        } else if let Some(action) = meta.daemon.select(program, rt.actions(), state) {
            program.action(action).apply(state);
            meta.episode_steps += 1;
            steps += 1;
        } else {
            // A deadlock outside the goal: `worst_case_moves` returning a
            // finite bound certifies this cannot happen, so reaching here
            // contradicts the cached verdict.
            meta.status = STUCK;
            break;
        }
    }
    (ticks, steps, faults)
}

/// Initialize and run every tenant of slab `slab` to completion.
fn process_slab(
    config: &FleetConfig,
    cache: &VerdictCache,
    slab: usize,
) -> Result<SlabOutcome, FleetError> {
    let stride = cache.stride();
    let ncfg = cache.len() as u64;
    let lo = slab as u64 * config.slab_size as u64;
    let hi = (lo + config.slab_size as u64).min(config.tenants);
    let n = (hi - lo) as usize;

    let mut arena = vec![0i64; n * stride];
    let mut metas: Vec<TenantMeta> = Vec::with_capacity(n);
    let mut scratch: Vec<State> = (0..cache.len())
        .map(|i| State::zeroed(cache.runtime(i).program().var_count()))
        .collect();
    let mut agg = vec![ConfigAgg::default(); cache.len()];
    let mut hist = LatencyHistogram::new();
    let (mut ticks, mut steps, mut faults) = (0u64, 0u64, 0u64);

    // Init pass: one verdict lookup per tenant (the first of each
    // configuration anywhere in the fleet pays the enumeration), then a
    // uniformly random initial state drawn from the tenant's own stream.
    for t in 0..n {
        let tenant_id = lo + t as u64;
        let cfg_idx = (tenant_id % ncfg) as usize;
        cache.verdict(cfg_idx)?;
        let program = cache.runtime(cfg_idx).program();
        let mut rng = SplitMix64(split_seed(config.master_seed, tenant_id));
        let slots = &mut arena[t * stride..t * stride + program.var_count()];
        for (slot, decl) in slots.iter_mut().zip(program.vars()) {
            *slot = decl.domain().sample(&mut rng);
        }
        metas.push(TenantMeta {
            rng,
            episode_steps: 0,
            latency: u32::MAX,
            daemon: RoundRobin::new(),
            faults_left: config.faults_per_tenant as u16,
            status: RUNNING,
        });
        agg[cfg_idx].tenants += 1;
    }

    // Sweep until every tenant has retired. Each visit loads the tenant
    // into the per-config scratch state, bursts up to TICKS_PER_SWEEP
    // ticks, and stores it back — no allocation anywhere in the loop.
    let mut live = n;
    while live > 0 {
        for t in 0..n {
            if metas[t].status != RUNNING {
                continue;
            }
            let tenant_id = lo + t as u64;
            let cfg_idx = (tenant_id % ncfg) as usize;
            let rt = cache.runtime(cfg_idx);
            let var_count = rt.program().var_count();
            let state = &mut scratch[cfg_idx];
            state.copy_from_slots(&arena[t * stride..t * stride + var_count]);

            let meta = &mut metas[t];
            let (dt, ds, df) = burst(meta, state, rt, config.max_steps);
            ticks += dt;
            faults += df;
            steps += ds;
            agg[cfg_idx].steps += ds;

            arena[t * stride..t * stride + var_count].copy_from_slice(state.slots());
            if meta.status != RUNNING {
                live -= 1;
                let a = &mut agg[cfg_idx];
                match meta.status {
                    STABILIZED => {
                        a.stabilized += 1;
                        let latency = meta.latency as u64;
                        a.max_latency = a.max_latency.max(latency);
                        hist.record(latency);
                    }
                    STUCK => a.stuck += 1,
                    _ => a.exhausted += 1,
                }
            }
        }
    }

    let mut counters = Counters::new("fleet");
    counters.add("tenants", n as u64);
    counters.add("ticks", ticks);
    counters.add("steps", steps);
    counters.add("faults", faults);
    counters.add("cache_lookups", n as u64);
    counters.add("stabilized", agg.iter().map(|a| a.stabilized).sum());
    counters.add("stuck", agg.iter().map(|a| a.stuck).sum());
    counters.add("exhausted", agg.iter().map(|a| a.exhausted).sum());
    Ok(SlabOutcome {
        counters,
        hist,
        configs: agg,
    })
}

/// Run a fleet to completion: every tenant stepped to stabilization (or a
/// verdict-contradicting outcome), aggregates merged deterministically.
///
/// Population summaries are journaled as [`nonmask_obs::Event::Counter`]
/// records under the scopes `fleet`, `fleet-latency`, and
/// `fleet-<config key>`.
///
/// # Errors
///
/// [`FleetError::Config`] for an invalid configuration,
/// [`FleetError::Check`] when a verdict enumeration fails, and
/// [`FleetError::Worker`] when a worker panics.
pub fn run_fleet(config: &FleetConfig, journal: &Journal) -> Result<FleetReport, FleetError> {
    if config.tenants == 0 {
        return Err(FleetError::Config("fleet has zero tenants".into()));
    }
    if config.slab_size == 0 {
        return Err(FleetError::Config("slab_size must be positive".into()));
    }
    if config.faults_per_tenant > u16::MAX as u32 {
        return Err(FleetError::Config(format!(
            "faults_per_tenant {} exceeds {}",
            config.faults_per_tenant,
            u16::MAX
        )));
    }
    let cache = VerdictCache::build(&config.protocols)?;
    let workers = if config.workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        config.workers
    };
    let slabs = config.tenants.div_ceil(config.slab_size as u64) as usize;

    let started = Instant::now();
    let outcomes =
        nonmask_checker::steal_tasks(slabs, workers, |slab| process_slab(config, &cache, slab))
            .map_err(|e| FleetError::Worker(e.to_string()))?;
    let wall = started.elapsed();

    // Merge in task order. The per-slab outcomes are commutative monoids,
    // so any order would produce the same aggregates — task order makes
    // that manifest.
    let mut counters = Counters::new("fleet");
    let mut hist = LatencyHistogram::new();
    let mut agg = vec![ConfigAgg::default(); cache.len()];
    for outcome in outcomes {
        let outcome = outcome?;
        counters.merge(&outcome.counters);
        hist.merge(&outcome.hist);
        for (into, from) in agg.iter_mut().zip(&outcome.configs) {
            into.merge(from);
        }
    }

    // Misses are counted before the report pass so report-side verdict
    // reads cannot inflate them: every enumeration below was demanded by
    // a tenant.
    let enumerations = cache.enumerations();
    let mut configs = Vec::new();
    for (i, acc) in agg.iter().enumerate() {
        if acc.tenants == 0 {
            continue;
        }
        let verdict = cache.verdict(i)?;
        configs.push(ConfigReport {
            key: cache.runtime(i).key().to_string(),
            states: verdict.states,
            bound: verdict.bound,
            tenants: acc.tenants,
            steps: acc.steps,
            stabilized: acc.stabilized,
            stuck: acc.stuck,
            exhausted: acc.exhausted,
            max_latency: acc.max_latency,
        });
    }

    let bytes_per_instance =
        (cache.stride() * std::mem::size_of::<i64>() + std::mem::size_of::<TenantMeta>()) as u64;
    let report = FleetReport {
        tenants: config.tenants,
        workers,
        slab_size: config.slab_size,
        master_seed: config.master_seed,
        faults_per_tenant: config.faults_per_tenant,
        max_steps: config.max_steps,
        bytes_per_instance,
        enumerations,
        counters,
        histogram: hist,
        configs,
        wall,
    };

    if journal.is_enabled() {
        report.counters.emit(journal);
        let mut latency = Counters::new("fleet-latency");
        latency.add("total", report.histogram.total());
        latency.add("max", report.histogram.max());
        latency.add("p50", report.histogram.percentile(50.0).unwrap_or(0));
        latency.add("p99", report.histogram.percentile(99.0).unwrap_or(0));
        latency.emit(journal);
        for c in &report.configs {
            let mut per = Counters::new(format!("fleet-{}", c.key));
            per.add("states", c.states);
            per.add("bound", c.bound.unwrap_or(0));
            per.add("tenants", c.tenants);
            per.add("steps", c.steps);
            per.add("stabilized", c.stabilized);
            per.add("stuck", c.stuck);
            per.add("exhausted", c.exhausted);
            per.add("max_latency", c.max_latency);
            per.emit(journal);
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FleetProtocol;

    #[test]
    fn tenant_meta_fits_the_budget() {
        assert!(
            std::mem::size_of::<TenantMeta>() <= 24,
            "TenantMeta grew to {} bytes",
            std::mem::size_of::<TenantMeta>()
        );
    }

    #[test]
    fn small_fleet_stabilizes_within_bounds() {
        let config = FleetConfig {
            protocols: vec![
                FleetProtocol::TokenRing { nodes: 3, k: 3 },
                FleetProtocol::TokenRing { nodes: 4, k: 4 },
            ],
            tenants: 200,
            slab_size: 16,
            workers: 1,
            ..FleetConfig::default()
        };
        let report = run_fleet(&config, &Journal::disabled()).unwrap();
        assert_eq!(report.counters.get("tenants"), 200);
        assert_eq!(report.counters.get("stabilized"), 200);
        assert_eq!(report.counters.get("stuck"), 0);
        assert_eq!(report.counters.get("exhausted"), 0);
        assert_eq!(report.counters.get("faults"), 200 * 2);
        assert_eq!(report.enumerations, 2, "one miss per configuration");
        assert_eq!(report.counters.get("cache_lookups"), 200);
        assert_eq!(report.histogram.total(), 200);
        for c in &report.configs {
            let bound = c.bound.expect("rings converge");
            assert!(
                c.max_latency <= bound,
                "{}: observed {} > certified bound {}",
                c.key,
                c.max_latency,
                bound
            );
        }
    }

    #[test]
    fn zero_tenants_rejected() {
        let config = FleetConfig {
            tenants: 0,
            ..FleetConfig::default()
        };
        assert!(matches!(
            run_fleet(&config, &Journal::disabled()),
            Err(FleetError::Config(_))
        ));
    }

    #[test]
    fn journal_records_population_summaries() {
        let (journal, buffer) = Journal::memory();
        let config = FleetConfig {
            protocols: vec![FleetProtocol::TokenRing { nodes: 3, k: 3 }],
            tenants: 20,
            slab_size: 8,
            workers: 1,
            ..FleetConfig::default()
        };
        run_fleet(&config, &journal).unwrap();
        journal.flush();
        let contents = buffer.contents();
        assert!(contents.contains(r#""scope":"fleet""#));
        assert!(contents.contains(r#""scope":"fleet-latency""#));
        assert!(contents.contains(r#""scope":"fleet-token-ring-3x3""#));
        // Journals parse back record-for-record (locked schema).
        for line in contents.lines() {
            nonmask_obs::Event::parse_line(line).unwrap();
        }
    }
}
