//! Host-speed calibration.
//!
//! On a shared host the whole machine runs slower or faster for minutes
//! at a time, with CPU time rising in step (no steal time is reported).
//! On the 2-vCPU reference host, ten 20-second runs of one workload spread
//! up to 15% (quartile distance over median) for that reason alone; the
//! phases outlast a run, so longer runs cannot average them away. Every
//! run therefore also times this fixed kernel — benchmark code, which no
//! change to the repository can speed up — before its set-ups and before
//! each trial, and the run's times are scaled by `NOMINAL_MS / median
//! kernel time`. Two sets of ten runs then spread 3.5–7.5% per workload.
//! Raw times stay in the samples line.
//!
//! The kernel is integer arithmetic with a division, single-threaded like
//! the workloads; a memory-latency kernel tracked the phases worse.

use std::hint::black_box;
use std::time::Instant;

/// Kernel time on the reference host, in ms: calibrated figures read as
/// times on a host that runs the kernel this fast.
pub const NOMINAL_MS: f64 = 45.0;

fn kernel(seed: u64) -> u64 {
    let (mut x, mut acc) = (seed | 1, 0u64);
    for i in 0..12_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x % (i | 7));
    }
    acc
}

/// One timed kernel run, in ms.
pub fn sample() -> f64 {
    let started = Instant::now();
    black_box(kernel(black_box(7)));
    started.elapsed().as_secs_f64() * 1e3
}
