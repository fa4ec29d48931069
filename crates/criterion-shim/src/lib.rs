//! A self-contained, API-compatible subset of the
//! [`criterion`](https://docs.rs/criterion) benchmarking harness.
//!
//! This container has no access to crates.io, so the workspace ships this
//! shim under the `criterion` package name. It implements exactly the
//! surface the `backscatter_bench` suites use — [`Criterion`],
//! [`BenchmarkGroup`], [`BenchmarkId`], [`Bencher::iter`], [`black_box`],
//! [`criterion_group!`] and [`criterion_main!`] — with a simple
//! wall-clock-mean measurement loop instead of criterion's statistical
//! machinery.
//!
//! # Smoke mode
//!
//! With the `BENCH_SMOKE` environment variable set (to any value), every
//! benchmark times a single iteration whatever its group's
//! [`BenchmarkGroup::sample_size`], after one untimed warm-up call. Each
//! iteration is a whole measured unit either way, and the warm-up keeps
//! first-call costs (cold caches, lazily faulted pages) out of the one
//! timed iteration, so the per-iteration means stay comparable to a full
//! run; only the averaging shrinks. This is how CI's perf gate runs the
//! suites.

#![warn(missing_docs)]

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Re-exports mirroring `criterion::*` glob imports.
pub mod prelude {
    pub use crate::{black_box, Bencher, BenchmarkGroup, BenchmarkId, Criterion};
}

/// Opaque identifier for one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// `function_name/parameter` identifier, e.g. `BenchmarkId::new("omp", 16)`.
    pub fn new<P: Display>(function_name: &str, parameter: P) -> Self {
        Self {
            label: format!("{function_name}/{parameter}"),
        }
    }

    /// Identifier carrying only a parameter, e.g. `from_parameter("target_4")`.
    pub fn from_parameter<P: Display>(parameter: P) -> Self {
        Self {
            label: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        Self {
            label: s.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        Self { label: s }
    }
}

/// Timing context handed to the benchmark closure.
#[derive(Debug)]
pub struct Bencher {
    iters: u64,
    /// Whether to call the routine once, untimed, before timing (smoke mode).
    warm_up: bool,
    elapsed: Duration,
}

impl Bencher {
    /// Times `routine` over this bencher's iteration budget.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        if self.warm_up {
            black_box(routine());
        }
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

/// A named collection of related benchmarks sharing configuration.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: u64,
}

impl BenchmarkGroup<'_> {
    /// Sets how many iterations each benchmark runs (criterion's sample
    /// count); in smoke mode every benchmark times one iteration regardless.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = self.criterion.iterations(n);
        self
    }

    /// Benchmarks `f` under `id` within this group.
    pub fn bench_function<I: Into<BenchmarkId>, F: FnMut(&mut Bencher)>(
        &mut self,
        id: I,
        mut f: F,
    ) -> &mut Self {
        let id = id.into();
        let mut bencher = self.bencher();
        f(&mut bencher);
        self.report(&id, &bencher);
        self
    }

    /// Benchmarks `f` with an explicit input value, criterion-style.
    pub fn bench_with_input<I: Into<BenchmarkId>, T: ?Sized, F: FnMut(&mut Bencher, &T)>(
        &mut self,
        id: I,
        input: &T,
        mut f: F,
    ) -> &mut Self {
        let id = id.into();
        let mut bencher = self.bencher();
        f(&mut bencher, input);
        self.report(&id, &bencher);
        self
    }

    fn bencher(&self) -> Bencher {
        Bencher {
            iters: self.sample_size,
            warm_up: self.criterion.smoke,
            elapsed: Duration::ZERO,
        }
    }

    /// Finishes the group (no summary statistics in the shim).
    pub fn finish(&mut self) {}

    fn report(&self, id: &BenchmarkId, bencher: &Bencher) {
        let per_iter = bencher.elapsed.as_secs_f64() / bencher.iters.max(1) as f64;
        println!(
            "bench {}/{}: {} iters, mean {:.3} ms/iter",
            self.name,
            id.label,
            bencher.iters,
            per_iter * 1e3,
        );
    }
}

/// Entry point mirroring `criterion::Criterion`.
#[derive(Debug)]
pub struct Criterion {
    /// Smoke mode: one iteration per benchmark (see the crate docs).
    smoke: bool,
}

impl Default for Criterion {
    /// Reads smoke mode from the `BENCH_SMOKE` environment variable.
    fn default() -> Self {
        Self {
            smoke: std::env::var_os("BENCH_SMOKE").is_some(),
        }
    }
}

impl Criterion {
    /// Creates a benchmark group named `name`.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        let sample_size = self.iterations(10);
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
            sample_size,
        }
    }

    /// The iteration count for a requested sample size `n`.
    fn iterations(&self, n: usize) -> u64 {
        if self.smoke {
            1
        } else {
            n.max(1) as u64
        }
    }

    /// Benchmarks `f` outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        self.benchmark_group(name).bench_function("bench", f);
        self
    }
}

/// Identity function opaque to the optimizer, mirroring `criterion::black_box`.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Declares a benchmark group function, mirroring `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the bench `main` entry point, mirroring `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bench(c: &mut Criterion) {
        let mut group = c.benchmark_group("shim");
        group.sample_size(3);
        group.bench_function("const", |b| b.iter(|| 40 + 2));
        group.bench_with_input(BenchmarkId::new("square", 7), &7u64, |b, &x| {
            b.iter(|| x * x);
        });
        group.finish();
    }

    criterion_group!(benches, sample_bench);

    #[test]
    fn group_macro_compiles_and_runs() {
        benches();
    }

    #[test]
    fn smoke_mode_times_one_iteration_after_a_warm_up() {
        // Calls per benchmark: the timed iterations, plus the smoke warm-up.
        for (smoke, default_iters, sized_iters) in [(false, 10, 3), (true, 2, 2)] {
            let mut criterion = Criterion { smoke };
            let mut group = criterion.benchmark_group("smoke");
            let mut calls = 0u64;
            group.bench_function("default", |b| b.iter(|| calls += 1));
            assert_eq!(calls, default_iters);
            group.sample_size(3);
            calls = 0;
            group.bench_function("sized", |b| b.iter(|| calls += 1));
            assert_eq!(calls, sized_iters);
        }
    }

    #[test]
    fn benchmark_ids_format_like_criterion() {
        assert_eq!(BenchmarkId::new("omp", 16).label, "omp/16");
        assert_eq!(BenchmarkId::from_parameter("target_4").label, "target_4");
    }
}
