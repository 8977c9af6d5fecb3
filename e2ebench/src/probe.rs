//! Host-speed probe.
//!
//! The hosts this benchmark runs on share their memory system with other
//! tenants. Over phases of seconds to minutes, memory-bound code there
//! runs up to 1.8x slower, with no sign inside the guest (no steal time,
//! no system time). The simulator is memory-bound, so a raw wall-clock
//! median of a 30-second run moves by 25-40% from run to run.
//!
//! The probe is a fixed random walk over a 4 MiB buffer, code of the
//! benchmark's own that no change to the program can speed up. It runs
//! after every operation, while nothing else of the benchmark runs, and
//! each latency is rescaled to a reference host where the probe takes
//! [`REFERENCE_MS`].
//!
//! The factor comes from the two probes that bracket the operation, the
//! one after the operation before it and the one after it. Slowdowns of
//! a few hundred milliseconds make the tail: a median over the latest
//! five probes smoothed them out of the factor but not out of the
//! latency, and five seeds of serve-mixed spread `tail_ms` by 17%; with
//! the bracketing probes they spread it by 4%, and `op_ms` by 6% either
//! way.
//!
//! The simulator slows more than the probe does: over 7-second windows of
//! four recordings of 100 to 245 seconds each, the rescaled latency of
//! `record` and `roofline` varied least when the probe's slowdown was
//! raised to a power of 1.2 to 1.3 ([`SENSITIVITY`]). The rescaling
//! depends on the probe alone, so a change that makes the program slower
//! or faster moves the rescaled latency by the same factor.

use std::hint::black_box;
use std::time::Instant;

/// Probe time on the reference host.
pub const REFERENCE_MS: f64 = 3.0;

/// How much more the simulator slows than the probe, as an exponent of
/// the probe's slowdown.
pub const SENSITIVITY: f64 = 1.25;

pub struct HostProbe {
    buf: Vec<u64>,
    /// The latest probe time in ms.
    last: Option<f64>,
}

impl Default for HostProbe {
    fn default() -> HostProbe {
        HostProbe {
            buf: vec![1; 1 << 19],
            last: None,
        }
    }
}

impl HostProbe {
    /// Run the probe once, right after an operation; returns the factor
    /// that rescales the operation's latency to the reference host.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        black_box(walk(&mut self.buf, 400_000));
        self.push(t.elapsed().as_secs_f64() * 1e3)
    }

    /// `(REFERENCE_MS / mean of this probe and the one before) ^
    /// SENSITIVITY`.
    fn push(&mut self, ms: f64) -> f64 {
        let mean = self.last.map_or(ms, |before| (before + ms) / 2.0);
        self.last = Some(ms);
        (REFERENCE_MS / mean).powf(SENSITIVITY)
    }
}

/// Loads and stores at pseudo-random places in `buf`.
fn walk(buf: &mut [u64], iters: usize) -> u64 {
    let n = buf.len();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0u64;
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x % n as u64) as usize;
        acc = acc.wrapping_add(buf[i]);
        buf[i] = acc ^ x;
        if acc & 1 == 0 {
            acc = acc.rotate_left(3);
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_follows_the_two_bracketing_probes() {
        let half = 0.5f64.powf(SENSITIVITY);
        let mut p = HostProbe::default();
        assert_eq!(p.push(6.0), half, "the first probe alone");
        assert_eq!(p.push(0.0), 1.0, "mean of 6 and 0");
        assert_eq!(p.push(12.0), half, "mean of 0 and 12: 6 has aged out");
        assert!(p.sample() > 0.0);
    }
}
