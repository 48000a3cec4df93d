//! Offline stand-in for the `criterion` crate.
//!
//! Provides the subset of the criterion API the workspace's benches use
//! ([`Criterion::benchmark_group`], [`BenchmarkGroup::bench_with_input`],
//! [`BenchmarkId`], `criterion_group!` / `criterion_main!`, [`black_box`])
//! with a plain timed-iteration runner: each benchmark runs a short warmup,
//! then `sample_size` timed samples, and prints the median and median
//! absolute deviation (MAD) next to mean/min/max per iteration. No
//! statistics engine, plotting, or HTML reports — just numbers on stdout,
//! which is what an offline container can support.

use std::fmt;
use std::hint;
use std::time::{Duration, Instant};

/// Opaque identity function preventing the optimizer from deleting the
/// benchmarked computation.
pub fn black_box<T>(x: T) -> T {
    hint::black_box(x)
}

/// A `function/parameter` benchmark label.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    function: String,
    parameter: String,
}

impl BenchmarkId {
    /// Labels a benchmark `function/parameter`.
    pub fn new(function: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            function: function.to_string(),
            parameter: parameter.to_string(),
        }
    }

    /// Labels a benchmark by parameter only.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            function: String::new(),
            parameter: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.function.is_empty() {
            f.write_str(&self.parameter)
        } else {
            write!(f, "{}/{}", self.function, self.parameter)
        }
    }
}

/// Passed to benchmark closures; [`Bencher::iter`] runs and times the body.
pub struct Bencher<'a> {
    samples: usize,
    results: &'a mut Vec<Duration>,
}

impl Bencher<'_> {
    /// Times `routine`: one untimed warmup iteration, then `sample_size`
    /// timed samples (one iteration each — workloads here are milliseconds
    /// and up, far above timer resolution).
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        black_box(routine());
        for _ in 0..self.samples {
            let start = Instant::now();
            black_box(routine());
            self.results.push(start.elapsed());
        }
    }
}

/// A named set of related benchmarks sharing a sample size.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets how many timed samples each benchmark collects.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    /// Runs one benchmark with an input value.
    pub fn bench_with_input<I: ?Sized, R>(&mut self, id: BenchmarkId, input: &I, routine: R)
    where
        R: FnOnce(&mut Bencher<'_>, &I),
    {
        let mut results = Vec::with_capacity(self.sample_size);
        let mut b = Bencher {
            samples: self.sample_size,
            results: &mut results,
        };
        routine(&mut b, input);
        self.report(&id.to_string(), &results);
    }

    /// Runs one benchmark without an input value.
    pub fn bench_function<R>(&mut self, id: impl fmt::Display, routine: R)
    where
        R: FnOnce(&mut Bencher<'_>),
    {
        let mut results = Vec::with_capacity(self.sample_size);
        let mut b = Bencher {
            samples: self.sample_size,
            results: &mut results,
        };
        routine(&mut b);
        self.report(&id.to_string(), &results);
    }

    /// Finishes the group (reporting happens per-benchmark; kept for API
    /// compatibility).
    pub fn finish(self) {}

    fn report(&self, id: &str, samples: &[Duration]) {
        let Some(s) = Summary::of(samples) else {
            println!("{}/{id}: no samples", self.name);
            return;
        };
        println!(
            "{}/{id}: median {} ± {} MAD, mean {} [min {} .. max {}] ({} samples)",
            self.name,
            fmt_duration(s.median),
            fmt_duration(s.mad),
            fmt_duration(s.mean),
            fmt_duration(s.min),
            fmt_duration(s.max),
            samples.len(),
        );
    }
}

/// Per-iteration statistics of one benchmark's samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Summary {
    mean: Duration,
    min: Duration,
    max: Duration,
    median: Duration,
    /// Median absolute deviation from the median: a spread measure that,
    /// unlike min/max, one preempted sample cannot move.
    mad: Duration,
}

impl Summary {
    fn of(samples: &[Duration]) -> Option<Summary> {
        let mut sorted = samples.to_vec();
        sorted.sort();
        let median = median_of_sorted(&sorted)?;
        let mut deviations: Vec<Duration> = sorted.iter().map(|d| d.abs_diff(median)).collect();
        deviations.sort();
        Some(Summary {
            mean: sorted.iter().sum::<Duration>() / sorted.len() as u32,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            median,
            mad: median_of_sorted(&deviations)?,
        })
    }
}

/// The middle sample, or the mean of the two middle samples.
fn median_of_sorted(sorted: &[Duration]) -> Option<Duration> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2),
    }
}

fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.2} µs", nanos as f64 / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.2} ms", nanos as f64 / 1e6)
    } else {
        format!("{:.3} s", nanos as f64 / 1e9)
    }
}

/// Benchmark runner and entry point handed to `criterion_group!` functions.
#[derive(Debug, Default)]
pub struct Criterion {}

impl Criterion {
    /// A runner with default settings.
    pub fn new() -> Self {
        Criterion {}
    }

    /// Opens a named benchmark group (default 100 samples, as upstream).
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 100,
            _criterion: self,
        }
    }
}

/// Declares a benchmark group function, as in upstream criterion.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::new();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the benchmark binary's `main`, as in upstream criterion.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_runs_and_collects_samples() {
        let mut c = Criterion::new();
        let mut group = c.benchmark_group("shim");
        group.sample_size(5);
        let mut runs = 0u32;
        group.bench_with_input(BenchmarkId::new("count", 1), &3u64, |b, x| {
            b.iter(|| {
                runs += 1;
                black_box(*x * 2)
            })
        });
        group.finish();
        // 1 warmup + 5 samples.
        assert_eq!(runs, 6);
    }

    #[test]
    fn summary_reports_median_and_mad() {
        let ms =
            |v: &[u64]| -> Vec<Duration> { v.iter().map(|&m| Duration::from_millis(m)).collect() };
        // Sorted: 1 2 3 4 100 → median 3; deviations 2 1 0 1 97 → MAD 1.
        let s = Summary::of(&ms(&[4, 1, 100, 3, 2])).unwrap();
        assert_eq!(s.median, Duration::from_millis(3));
        assert_eq!(s.mad, Duration::from_millis(1));
        assert_eq!(s.mean, Duration::from_millis(22));
        assert_eq!(
            (s.min, s.max),
            (Duration::from_millis(1), Duration::from_millis(100))
        );
        // Even count: medians average the middle pair. Sorted 2 4 6 10 →
        // median 5; deviations 3 1 1 5 → sorted 1 1 3 5 → MAD 2.
        let s = Summary::of(&ms(&[10, 2, 6, 4])).unwrap();
        assert_eq!(s.median, Duration::from_millis(5));
        assert_eq!(s.mad, Duration::from_millis(2));
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn id_formats_like_upstream() {
        assert_eq!(BenchmarkId::new("algo", 16).to_string(), "algo/16");
        assert_eq!(BenchmarkId::from_parameter(8).to_string(), "8");
    }
}
