//! Offline stand-in for the slice of the `criterion` API this workspace uses.
//!
//! The build environment has no network access, so the benches link against
//! this shim instead of crates.io's `criterion`. It keeps the same surface —
//! [`Criterion`], [`BenchmarkGroup`], [`Bencher::iter`], [`BenchmarkId`],
//! [`Throughput`], [`criterion_group!`], [`criterion_main!`] — and performs a
//! real (if simple) measurement: each benchmark closure is warmed up, then
//! timed over enough iterations to fill the configured measurement window, and
//! the mean per-iteration time (plus derived throughput) is printed. There is
//! no statistical analysis, plotting, or baseline comparison.

use std::fmt::Display;
use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// Re-export of [`std::hint::black_box`], matching `criterion::black_box`.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// Throughput annotation for a benchmark group.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// The measured routine processes this many elements per iteration.
    Elements(u64),
    /// The measured routine processes this many bytes per iteration.
    Bytes(u64),
}

/// Identifier of one benchmark inside a group: a function name and an
/// optional parameter rendering.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id made of a function name and a parameter value.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// An id made of a parameter value only.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

/// Conversion into a [`BenchmarkId`], so `bench_function` accepts plain strings.
pub trait IntoBenchmarkId {
    /// Converts `self` into a [`BenchmarkId`].
    fn into_benchmark_id(self) -> BenchmarkId;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> BenchmarkId {
        self
    }
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId {
            id: self.to_string(),
        }
    }
}

impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId { id: self }
    }
}

/// Timing loop handed to benchmark closures.
pub struct Bencher {
    warm_up: Duration,
    measurement: Duration,
    /// Filled in by the measurement loop: (total elapsed, iterations).
    result: Option<(Duration, u64)>,
}

impl Bencher {
    /// Times `routine`, running it repeatedly until the measurement window is
    /// filled. The routine's return value is passed through [`black_box`].
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        // Warm-up: run at least once, at most for the warm-up window.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        loop {
            std_black_box(routine());
            warm_iters += 1;
            if warm_start.elapsed() >= self.warm_up || warm_iters >= 1_000_000 {
                break;
            }
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;
        let target = self.measurement.as_secs_f64().max(per_iter); // at least one iteration
        let iters = ((target / per_iter.max(1e-9)).ceil() as u64).clamp(1, 10_000_000);
        let start = Instant::now();
        for _ in 0..iters {
            std_black_box(routine());
        }
        self.result = Some((start.elapsed(), iters));
    }
}

fn format_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} µs", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

#[derive(Clone, Copy, Debug)]
struct Config {
    warm_up: Duration,
    measurement: Duration,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            warm_up: Duration::from_millis(100),
            measurement: Duration::from_millis(400),
        }
    }
}

/// The benchmark driver.
#[derive(Clone, Debug, Default)]
pub struct Criterion {
    config: Config,
    /// Substring filter taken from the command line (`cargo bench -- <filter>`).
    filter: Option<String>,
}

impl Criterion {
    /// Sets the number of samples. Accepted for API compatibility; the shim's
    /// single-pass measurement ignores it.
    pub fn sample_size(self, _n: usize) -> Self {
        self
    }

    /// Sets the warm-up window.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.config.warm_up = d;
        self
    }

    /// Sets the measurement window.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.config.measurement = d;
        self
    }

    /// Reads command-line arguments: the first non-flag argument becomes a
    /// substring filter on benchmark ids, and `--bench`/`--test` plus other
    /// flags and their values are ignored (they are passed by
    /// `cargo bench`/`cargo test`).
    pub fn configure_from_args(mut self) -> Self {
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--bench" | "--test" => {}
                "--sample-size" | "--warm-up-time" | "--measurement-time" | "--save-baseline"
                | "--baseline" | "--load-baseline" | "--profile-time" => {
                    let _ = args.next();
                }
                s if s.starts_with("--") => {}
                s => self.filter = Some(s.to_string()),
            }
        }
        self
    }

    fn matches(&self, id: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| id.contains(f))
    }

    fn run_one(
        &self,
        group: &str,
        id: &BenchmarkId,
        throughput: Option<Throughput>,
        f: &mut dyn FnMut(&mut Bencher),
    ) {
        let full = if group.is_empty() {
            id.id.clone()
        } else {
            format!("{}/{}", group, id.id)
        };
        if !self.matches(&full) {
            return;
        }
        let mut bencher = Bencher {
            warm_up: self.config.warm_up,
            measurement: self.config.measurement,
            result: None,
        };
        f(&mut bencher);
        match bencher.result {
            Some((elapsed, iters)) => {
                let per_iter = elapsed.as_secs_f64() / iters as f64;
                let rate = match throughput {
                    Some(Throughput::Elements(n)) => {
                        format!("  ({:.0} elem/s)", n as f64 / per_iter)
                    }
                    Some(Throughput::Bytes(n)) => {
                        format!("  ({:.0} B/s)", n as f64 / per_iter)
                    }
                    None => String::new(),
                };
                println!(
                    "{full:<60} time: {:>12}  iters: {iters}{rate}",
                    format_time(per_iter)
                );
            }
            None => println!("{full:<60} (no measurement recorded)"),
        }
    }

    /// Starts a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
        }
    }

    /// Benchmarks a single function outside a group.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into_benchmark_id();
        self.run_one("", &id, None, &mut f);
        self
    }

    /// Called by [`criterion_main!`] after all groups ran. No-op in the shim.
    pub fn final_summary(&mut self) {}
}

/// A group of related benchmarks sharing a name prefix and throughput setting.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the throughput annotation used for subsequent benchmarks.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Accepted for API compatibility; ignored by the shim.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Overrides the measurement window for this group.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.criterion.config.measurement = d;
        self
    }

    /// Overrides the warm-up window for this group.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.criterion.config.warm_up = d;
        self
    }

    /// Benchmarks `f` with the given input.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let throughput = self.throughput;
        self.criterion
            .run_one(&self.name, &id, throughput, &mut |b| f(b, input));
        self
    }

    /// Benchmarks `f` without an input.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into_benchmark_id();
        let throughput = self.throughput;
        self.criterion.run_one(&self.name, &id, throughput, &mut f);
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Declares a group of benchmark functions, mirroring `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config.configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Declares the benchmark entry point, mirroring `criterion::criterion_main!`.
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

    #[test]
    fn bencher_runs_and_reports() {
        let mut c = Criterion::default()
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(2));
        let mut ran = 0u64;
        {
            let mut group = c.benchmark_group("shim");
            group.throughput(Throughput::Elements(1));
            group.bench_with_input(BenchmarkId::new("count", 1), &1u64, |b, &x| {
                b.iter(|| {
                    ran += x;
                    ran
                })
            });
            group.finish();
        }
        assert!(ran > 0, "benchmark closure never executed");
    }

    #[test]
    fn ids_render() {
        assert_eq!(BenchmarkId::new("f", 32).id, "f/32");
        assert_eq!(BenchmarkId::from_parameter("x").id, "x");
    }
}
