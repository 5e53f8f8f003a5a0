//! Tier-1 fleet smoke: 100k-tenant populations stepped to stabilization.
//!
//! Cheap enough for every test invocation: the ring mix and the mixed
//! protocol population, one hundred thousand tenants each. Guards the
//! fleet harness's core claims: everyone stabilizes, the verdict cache
//! misses about once per configuration, every empirical latency respects
//! the checker's certified worst-case bound, the ring mix fits in 64
//! bytes per tenant, and the outcome digest is pinned and does not move
//! when the worker count and slab size change. The million-tenant
//! populations run the same gates under `--ignored`.

use nonmask_fleet::{run_fleet, FleetConfig, FleetProtocol, FleetReport};
use nonmask_obs::Journal;

/// Run `config` and hold it to the gates every population shares: no
/// stuck, exhausted or over-bound tenant, a verdict-cache hit rate of at
/// least 99.9%, the per-tenant footprint budget (if any), and the pinned
/// digest.
fn gate(name: &str, config: &FleetConfig, max_bytes: Option<u64>, digest: u64) -> FleetReport {
    let report = run_fleet(config, &Journal::disabled()).unwrap();
    assert_eq!(
        report.violations(),
        0,
        "{name}: stuck/exhausted/over-bound tenants"
    );
    assert!(
        report.cache_hit_rate() >= 0.999,
        "{name}: cache hit rate {:.5}",
        report.cache_hit_rate()
    );
    if let Some(max) = max_bytes {
        assert!(
            report.bytes_per_instance <= max,
            "{name}: {} bytes/instance exceeds the {max}-byte budget",
            report.bytes_per_instance
        );
    }
    assert_eq!(
        report.digest(),
        digest,
        "{name}: digest moved to {:016x}",
        report.digest()
    );
    report
}

/// The same population under inverted scheduling knobs must reach the
/// same digest: workers and slab size are physical only.
fn assert_digest_survives_rescheduling(name: &str, config: &FleetConfig, report: &FleetReport) {
    let alt = FleetConfig {
        workers: if report.workers == 1 { 4 } else { 1 },
        slab_size: if config.slab_size == 512 { 4096 } else { 512 },
        ..config.clone()
    };
    let rerun = run_fleet(&alt, &Journal::disabled()).unwrap();
    assert_eq!(
        rerun.digest(),
        report.digest(),
        "{name}: digest moved under workers={} slab_size={}",
        alt.workers,
        alt.slab_size
    );
}

fn population(protocols: Vec<FleetProtocol>, tenants: u64, seed: u64, faults: u32) -> FleetConfig {
    FleetConfig {
        protocols,
        tenants,
        master_seed: seed,
        faults_per_tenant: faults,
        ..FleetConfig::default()
    }
}

#[test]
fn hundred_thousand_tenants_stabilize_within_certified_bounds() {
    let ring_mix = population(FleetProtocol::ring_mix(), 100_000, 0xF1EE_7001, 2);
    let report = gate("ring-mix-100k", &ring_mix, Some(64), 0x9707_8dab_5ed3_b186);
    assert_digest_survives_rescheduling("ring-mix-100k", &ring_mix, &report);

    assert_eq!(report.counters.get("tenants"), 100_000);
    assert_eq!(report.counters.get("stabilized"), 100_000);
    assert_eq!(report.counters.get("faults"), 200_000);

    // Cache: one enumeration per distinct configuration, everything else
    // hits.
    assert_eq!(report.enumerations, 8);
    assert_eq!(report.counters.get("cache_lookups"), 100_000);
    assert!(report.cache_hit_rate() > 0.9999);

    // Latency distribution is sane and bounded.
    assert_eq!(report.histogram.total(), 100_000);
    assert_eq!(report.histogram.overflow(), 0);
    let p50 = report.histogram.percentile(50.0).unwrap();
    let p99 = report.histogram.percentile(99.0).unwrap();
    assert!(p50 <= p99);
    for c in &report.configs {
        let bound = c.bound.expect("rings converge");
        assert!(
            c.max_latency <= bound,
            "{}: {} > bound {}",
            c.key,
            c.max_latency,
            bound
        );
    }

    let mixed = population(FleetProtocol::mixed(), 100_000, 0xF1EE_7002, 2);
    let report = gate("mixed-100k", &mixed, None, 0xbd30_b057_1ffb_8a00);
    assert_digest_survives_rescheduling("mixed-100k", &mixed, &report);
}

#[test]
#[ignore = "steps two million-tenant populations; run with --ignored"]
fn million_tenant_populations_stabilize_with_pinned_digests() {
    gate(
        "ring-mix-1m",
        &population(FleetProtocol::ring_mix(), 1_000_000, 0xF1EE_7003, 2),
        Some(64),
        0xff70_c7c5_03fb_3955,
    );
    gate(
        "mixed-1m",
        &population(FleetProtocol::mixed(), 1_000_000, 0xF1EE_7004, 3),
        None,
        0xeaa2_fa19_7263_3933,
    );
}
