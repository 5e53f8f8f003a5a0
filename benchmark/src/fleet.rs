//! `fleet-mixed`: `run_fleet` over the heterogeneous protocol mix — ring,
//! diffusing and colouring tenants stepped through their fault episodes.
//! One operation is one `run_fleet` call over the whole population.

use std::cell::Cell;
use std::time::Instant;

use nonmask_fleet::{run_fleet, FleetConfig, FleetProtocol, VerdictCache};

use crate::workload::{Cx, Scale, TrialOutcome, Workload};

/// Seed stream of the fleet's master seed (see [`rand::split_seed`]).
const FLEET_STREAM: u64 = 0xF1EE;

/// Steps and digest of the full-size fleet at [`crate::DEFAULT_SEED`].
const PINNED: (u64, u64) = (40_461_695, 0x8ec8_426f_4784_5551);

/// The fleet workload.
pub struct FleetMixed {
    tenants: u64,
    pinned: Option<(u64, u64)>,
    /// Digest of the run's first trial; every later trial must match it.
    digest: Cell<Option<u64>>,
}

impl FleetMixed {
    /// The population for `scale`.
    pub fn new(scale: Scale) -> Self {
        let (tenants, pinned) = match scale {
            Scale::Full => (8_000_000, Some(PINNED)),
            Scale::Tiny => (2_000, None),
        };
        FleetMixed {
            tenants,
            pinned,
            digest: Cell::new(None),
        }
    }
}

impl Workload for FleetMixed {
    type Input = FleetConfig;

    /// Set-up is the checker's share of a fleet run: the verdict cache
    /// and every configuration's verdict.
    fn prepare(&self, cx: &Cx) -> Result<FleetConfig, String> {
        let protocols = FleetProtocol::mixed();
        {
            let _span = cx.span("fleet.verdicts");
            let cache = VerdictCache::build(&protocols).map_err(|e| e.to_string())?;
            for i in 0..cache.len() {
                cache.verdict(i).map_err(|e| e.to_string())?;
            }
        }
        Ok(FleetConfig {
            protocols,
            tenants: self.tenants,
            master_seed: rand::split_seed(cx.seed, FLEET_STREAM),
            workers: crate::THREADS,
            faults_per_tenant: 3,
            ..FleetConfig::default()
        })
    }

    fn trial(&self, config: &FleetConfig, cx: &Cx) -> Result<TrialOutcome, String> {
        let started = Instant::now();
        let report = {
            let _span = cx.span("fleet.run");
            run_fleet(config, &cx.journal).map_err(|e| e.to_string())?
        };
        let ms = started.elapsed().as_secs_f64() * 1e3;
        cx.counter("enumerations", report.enumerations);
        cx.counter("bytes_per_instance", report.bytes_per_instance);

        let digest = report.digest();
        let first = self.digest.get().unwrap_or(digest);
        self.digest.set(Some(first));
        let steps = report.counters.get("steps");
        let pinned_ok = match self.pinned {
            Some(pin) if cx.seed == crate::DEFAULT_SEED => (steps, digest) == pin,
            _ => true,
        };
        let over_bound: u64 = report
            .configs
            .iter()
            .filter(|c| !c.within_bound())
            .map(|c| c.tenants)
            .sum();
        let bad_tenants =
            report.counters.get("stuck") + report.counters.get("exhausted") + over_bound;
        let failed = if digest == first && pinned_ok {
            bad_tenants.min(report.tenants)
        } else {
            eprintln!(
                "fleet-mixed: digest {digest:016x} / {steps} steps, expected {first:016x} and \
                 pin {:?}",
                self.pinned
            );
            report.tenants
        };
        Ok(TrialOutcome {
            latency_ms: vec![ms],
            setup_s: None,
            attempted: report.tenants,
            failed,
        })
    }
}
