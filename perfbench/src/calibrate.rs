//! Host-speed calibration.
//!
//! The benchmark machine shares its cores, caches and memory with other
//! tenants.  Their load slows every instruction the benchmark runs, by up to
//! 1.6x, for seconds or minutes at a time; operating-system CPU time shows the
//! same slowdown, so no clock tells it apart from slower code.  A fixed kernel,
//! a dense matrix product, is timed between pieces of timed work; its time
//! over its unloaded time is the machine's slowdown, and the work's host time
//! is reported divided by the mean slowdown of the last second: scaled to the
//! machine running unloaded.  Load that switches faster than that is left to
//! the fastest-of-passes rule of the caller.
//!
//! The scaling cancels the machine's speed, not the program's.  The kernel's
//! data are written just before it is timed and fit in the level-2 cache, so
//! what the program left in the caches does not change the kernel's time; a
//! change that makes the program faster or slower moves the scaled time by
//! the same factor as the raw time.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

/// Side of the kernel's square matrices (three of them take 216 KiB).
const N: usize = 96;
/// Unloaded time of one product, milliseconds: the fastest seen on a 2-core
/// x86-64 container.
const PRODUCT_MS: f64 = 0.19;
/// The kernel runs after a piece of work once this long has passed since
/// its last run, so it costs a few per cent of the host time.
const SAMPLE_EVERY_MS: f64 = 20.0;
/// Kernel runs after `SAMPLE_EVERY_MS` of work; longer work gets
/// proportionally more, up to `MAX_RUNS`, so the mean after a long piece of
/// work covers more than one instant of the load.
const MAX_RUNS: usize = 64;
/// The slowdown applied to a piece of work is the mean over the kernel runs
/// of the last `WINDOW_MS`, and at least the last two samples.
const WINDOW_MS: f64 = 1000.0;

/// The calibration kernel and the slowdowns it measured recently.
#[derive(Debug)]
pub struct Calibration {
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
    /// When each recent sample was taken, and its mean slowdown.
    samples: VecDeque<(Instant, f64)>,
}

impl Calibration {
    /// Measures the slowdown once, before the first piece of work.
    pub fn start() -> Self {
        let mut c = Self {
            a: vec![0.0; N * N],
            b: vec![0.0; N * N],
            c: vec![0.0; N * N],
            samples: VecDeque::new(),
        };
        c.sample(1);
        c
    }

    /// Times one product, milliseconds, after writing its inputs so they
    /// sit in cache whatever ran before.
    fn product_ms(&mut self) -> f64 {
        for (i, (a, b)) in self.a.iter_mut().zip(&mut self.b).enumerate() {
            *a = (i % 13) as f64 * 0.125;
            *b = (i % 7) as f64 * 0.25;
        }
        self.c.fill(0.0);
        let (a, b, c) = (black_box(&self.a), black_box(&self.b), &mut self.c);
        let started = Instant::now();
        for (c_row, a_row) in c.chunks_exact_mut(N).zip(a.chunks_exact(N)) {
            for (&x, b_row) in a_row.iter().zip(b.chunks_exact(N)) {
                for (c_ij, &b_kj) in c_row.iter_mut().zip(b_row) {
                    *c_ij += x * b_kj;
                }
            }
        }
        black_box(c);
        started.elapsed().as_secs_f64() * 1e3
    }

    /// Records the machine's slowdown now, over `runs` kernel runs: 1
    /// unloaded, 1.5 if everything runs 1.5x longer.
    fn sample(&mut self, runs: usize) {
        let total: f64 = (0..runs).map(|_| self.product_ms() / PRODUCT_MS).sum();
        self.samples
            .push_back((Instant::now(), total / runs as f64));
    }

    /// Returns the factor that scales `work_ms` of host time, just spent, to
    /// the unloaded machine: one over the mean slowdown of the last
    /// `WINDOW_MS`.  Samples the slowdown first if `SAMPLE_EVERY_MS` have
    /// passed since the last sample.
    pub fn factor(&mut self, work_ms: f64) -> f64 {
        let since_ms = self
            .samples
            .back()
            .map_or(f64::INFINITY, |(at, _)| at.elapsed().as_secs_f64() * 1e3);
        if since_ms >= SAMPLE_EVERY_MS {
            let runs = (work_ms / SAMPLE_EVERY_MS).ceil() as usize;
            self.sample(runs.clamp(1, MAX_RUNS));
        }
        while self.samples.len() > 2 && self.samples[0].0.elapsed().as_secs_f64() * 1e3 > WINDOW_MS
        {
            self.samples.pop_front();
        }
        let mean = self.samples.iter().map(|(_, s)| s).sum::<f64>() / self.samples.len() as f64;
        1.0 / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_factor_is_positive_and_finite() {
        let mut c = Calibration::start();
        for work_ms in [0.0, 1.0, 1e9] {
            let f = c.factor(work_ms);
            assert!(f.is_finite() && f > 0.0, "{f}");
        }
    }
}
