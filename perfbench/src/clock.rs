//! Host-speed calibration.
//!
//! The benchmark shares its cores with other tenants of the host, and the
//! speed those cores give it drifts by a fifth or more over seconds to
//! minutes. A fixed reference kernel, run between operations every few
//! milliseconds of the measured phase, tracks that drift: every latency is
//! scaled by `REFERENCE_MS / k`, where `k` is the median kernel time in the
//! seconds around the operation. A latency metric therefore reads as the
//! milliseconds the operation takes on this host when the kernel takes
//! `REFERENCE_MS`. The kernel is the benchmark's own code, so a change to
//! the program moves the scaled latencies exactly as it moves the raw ones.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's median time on the reference host (2 vCPUs of a shared
/// x86-64 host), in milliseconds.
pub const REFERENCE_MS: f64 = 0.42;

/// Seconds of measured phase between two kernel runs.
const EVERY_S: f64 = 0.02;

/// Width of the buckets calibration samples are grouped in; an operation
/// is scaled by the kernel's median over its bucket and the two beside it.
const BUCKET_S: f64 = 1.0;

/// Kernel runs in the block that calibrates one set-up.
pub const SETUP_BLOCK: usize = 15;

/// One timing, `ms` milliseconds long, taken `at` seconds into the run.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub at: f64,
    pub ms: f64,
}

/// Words the kernel sorts: 64 KiB, which stays in the core's own caches.
const KERNEL_WORDS: usize = 16 * 1024;

/// The reference kernel: fill a buffer from a fixed generator and sort it,
/// branchy compare-and-move work like the engine's ordered sets, on memory
/// the caller owns, so that what ran before (the heap's state, the data the
/// engine left in the caches) moves the kernel's time as little as it can.
/// Returns its time in milliseconds.
pub fn kernel(buffer: &mut Vec<u32>) -> f64 {
    let start = Instant::now();
    buffer.clear();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    buffer.extend((0..KERNEL_WORDS).map(|_| {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (x >> 33) as u32
    }));
    buffer.sort_unstable();
    black_box(&buffer);
    start.elapsed().as_secs_f64() * 1e3
}

/// The median of a block of `SETUP_BLOCK` kernel runs, in milliseconds.
pub fn block() -> f64 {
    let mut buffer = Vec::with_capacity(KERNEL_WORDS);
    let runs: Vec<f64> = (0..SETUP_BLOCK).map(|_| kernel(&mut buffer)).collect();
    median(&runs).expect("a non-empty block")
}

/// The measured phase's clock and its calibration samples.
pub struct Clock {
    start: Instant,
    last: f64,
    kernel: Vec<Sample>,
    buffer: Vec<u32>,
}

impl Clock {
    pub fn start() -> Self {
        let mut clock = Clock {
            start: Instant::now(),
            last: f64::NEG_INFINITY,
            kernel: Vec::new(),
            buffer: Vec::with_capacity(KERNEL_WORDS),
        };
        clock.tick();
        clock
    }

    /// Seconds since the measured phase began.
    pub fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Run the kernel if `EVERY_S` has passed since it last ran. Called
    /// between operations, never inside one.
    pub fn tick(&mut self) {
        let at = self.now();
        if at - self.last >= EVERY_S {
            let ms = kernel(&mut self.buffer);
            self.kernel.push(Sample { at, ms });
            self.last = self.now();
        }
    }

    /// Kernel runs so far.
    pub fn runs(&self) -> &[Sample] {
        &self.kernel
    }

    /// The scale factor of each bucket of the run.
    pub fn scale(&self) -> Scale {
        let bucket = |at: f64| (at / BUCKET_S) as usize;
        let buckets = self.kernel.last().map_or(0, |s| bucket(s.at)) + 1;
        let mut by_bucket = vec![Vec::new(); buckets];
        for s in &self.kernel {
            by_bucket[bucket(s.at)].push(s.ms);
        }
        let overall = median(&self.kernel.iter().map(|s| s.ms).collect::<Vec<_>>())
            .expect("the clock runs the kernel when it starts");
        let factors = (0..buckets)
            .map(|b| {
                let near: Vec<f64> = by_bucket[b.saturating_sub(1)..(b + 2).min(buckets)]
                    .iter()
                    .flatten()
                    .copied()
                    .collect();
                REFERENCE_MS / median(&near).unwrap_or(overall)
            })
            .collect();
        Scale { factors }
    }
}

/// Per-bucket scale factors of a run.
pub struct Scale {
    factors: Vec<f64>,
}

impl Scale {
    fn of(&self, at: f64) -> f64 {
        let b = ((at / BUCKET_S) as usize).min(self.factors.len() - 1);
        self.factors[b]
    }

    /// Scaled latencies of `samples`, in milliseconds.
    pub fn apply(&self, samples: &[Sample]) -> Vec<f64> {
        samples.iter().map(|s| s.ms * self.of(s.at)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_follows_the_kernel_in_each_bucket() {
        let mut clock = Clock::start();
        clock.kernel = (0..40)
            .map(|i| Sample {
                at: i as f64 * 0.1,
                ms: if i < 20 { 0.5 } else { 1.0 },
            })
            .collect();
        let scale = clock.scale();
        let scaled = scale.apply(&[Sample { at: 0.0, ms: 2.0 }, Sample { at: 3.5, ms: 2.0 }]);
        assert_eq!(
            scaled,
            vec![2.0 * REFERENCE_MS / 0.5, 2.0 * REFERENCE_MS / 1.0]
        );
    }
}
