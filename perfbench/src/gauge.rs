//! A fixed reference workload that gauges the host's speed.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts
//! with its neighbours' load, with no steal time to show for it: the same
//! `cold-sweep` loop ran 2100 to 3700 operations a second from one slice
//! to the next, and whole runs moved by as much. The gauge is a small
//! piece of work that belongs to the benchmark, not to FEAM, so no change
//! to the program moves it. It mixes the two kinds of work FEAM's miss
//! path does: string formatting, heap allocation, hashing and a sort on
//! data that stays in the core's caches, and random lookups in a table
//! larger than them. The timed loop runs it between operations, outside
//! every timed interval, and a slice's figures are expressed at a
//! reference gauge time (see [`scale`]).
//!
//! Measured on the 2-vCPU host: over 37 `cold-sweep` slices of three
//! runs, a slice's operations per second times its median gauge time
//! varied by 5% (coefficient of variation) where the raw rate varied by
//! 17%. On runs alternating with and without the table lookups (five
//! seeds each at 30 s), `cold-sweep` throughput, p50 and p99 spread 3.1%,
//! 4.1% and 4.8% of their medians with them and 5.0%, 5.7% and 10.3%
//! without; `fleet-churn` was level (5.2/2.8/3.7% against 5.6/3.1/3.6%).
//! Dependent loads over an 8 MiB table and a 4 MiB copy were tried as
//! parts and dropped: their time did not follow the program's.

use crate::sys::thread_cpu_ns;
use std::collections::HashMap;

/// Short strings formatted, hashed into a map and looked up per probe.
const KEYS: usize = 400;
/// Values sorted per probe.
const SORTED: usize = 4_000;
/// Entries of the lookup table: about 2 MiB of buckets, beyond the core's
/// own caches.
const TABLE: u64 = 1 << 16;
/// Random lookups into the table per probe.
const LOOKUPS: usize = 1_500;
/// The gauge time scaled figures are expressed at: about what one probe
/// takes on the 2-vCPU host.
pub const REFERENCE_NS: f64 = 400_000.0;

/// The reference work's state, carried from probe to probe so that no
/// probe can be computed ahead of time, and its lookup table.
pub struct Gauge {
    state: u64,
    table: HashMap<u64, u64>,
}

impl Gauge {
    pub fn new() -> Gauge {
        Gauge {
            state: 1,
            table: (0..TABLE).map(|k| (k, k.rotate_left(17))).collect(),
        }
    }

    /// Run the reference work once; returns the CPU time it took, in
    /// nanoseconds. CPU time rather than wall time, so that the program's
    /// own threads preempting the probe do not count as a slow host.
    pub fn probe(&mut self) -> u64 {
        let t0 = thread_cpu_ns();
        let salt = (self.state >> 40) as usize;
        let mut map: HashMap<String, usize> = HashMap::with_capacity(KEYS);
        for i in 0..KEYS {
            map.insert(format!("lib{}.so.{}", i ^ salt, i % 7), i);
        }
        let mut found = 0;
        for i in 0..KEYS {
            found += map
                .get(&format!("lib{}.so.{}", i ^ salt, i % 7))
                .copied()
                .unwrap_or(0);
        }
        let mut x = self.state;
        let mut sum = 0u64;
        for _ in 0..LOOKUPS {
            x = xorshift(x);
            sum = sum.wrapping_add(self.table[&(x % TABLE)]);
        }
        let mut v: Vec<u64> = (0..SORTED)
            .map(|_| {
                x = xorshift(x);
                x
            })
            .collect();
        v.sort_unstable();
        self.state = std::hint::black_box(x ^ v[SORTED / 2] ^ found as u64 ^ sum) | 1;
        thread_cpu_ns() - t0
    }
}

/// Factor that turns a time measured while the gauge took `gauge_ns`
/// into the time it would have taken at [`REFERENCE_NS`]: a slow stretch
/// of the host slows the gauge and the program alike, and the factor
/// takes it out of the program's figures.
pub fn scale(gauge_ns: f64) -> f64 {
    REFERENCE_NS / gauge_ns
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_take_time_and_scale_inverts_it() {
        let mut g = Gauge::new();
        assert!((0..5).map(|_| g.probe()).all(|t| t > 0));
        assert_eq!(scale(REFERENCE_NS), 1.0);
        assert_eq!(scale(2.0 * REFERENCE_NS), 0.5);
    }
}
