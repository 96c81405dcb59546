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
//!
//! **Result capture.** Passing `--save-json <path>` (or `--save-json=<path>`,
//! or setting the `DYNSLD_BENCH_JSON` environment variable) makes the run
//! write every measurement taken in the process — id, mean ns/op, iteration
//! count, derived throughput — to `<path>` as a single JSON document. The file
//! is rewritten after each benchmark group with the accumulated results, so it
//! is complete whenever the process exits normally. Benches can also
//! attach non-timing scalars (e.g. a partitioner's spill share) to the same
//! document with [`record_quality`].
//!
//! Capture is **per bench binary** (the result registry is process-local and
//! the file is rewritten, not merged): under `cargo bench --workspace` each
//! binary would overwrite the last one's file, so point `DYNSLD_BENCH_JSON`
//! at a distinct path per binary, or capture one target at a time with
//! `cargo bench --bench <name> -- --save-json <path>`.

use std::fmt::Display;
use std::hint::black_box as std_black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One completed measurement, accumulated process-wide so that every
/// `criterion_group!` contributes to the same `--save-json` document.
#[derive(Clone, Debug)]
struct SavedResult {
    id: String,
    mean_ns: f64,
    iters: u64,
    /// `(unit, per_second)` when the group declared a [`Throughput`].
    throughput: Option<(&'static str, f64)>,
}

static SAVED_RESULTS: Mutex<Vec<SavedResult>> = Mutex::new(Vec::new());

/// One quality record: a benchmark-style id plus the named scalars measured under it.
type QualityRecord = (String, Vec<(String, f64)>);

/// Non-timing scalars recorded by the benches themselves (quality metrics such as a
/// partitioner's spill share), keyed by a benchmark-style id.
static QUALITY_RESULTS: Mutex<Vec<QualityRecord>> = Mutex::new(Vec::new());

/// Pre-serialized telemetry documents recorded by the benches (stage-latency histograms,
/// counters, trace totals), keyed by a benchmark-style id.
static TELEMETRY_RESULTS: Mutex<Vec<(String, String)>> = Mutex::new(Vec::new());

/// Attaches a pre-serialized JSON object (typically `dynsld_telemetry`'s `to_json` output:
/// per-stage latency histograms, counters, trace totals) to the `--save-json` document under
/// a benchmark-style id. The document gains a `"telemetry"` array next to `"benchmarks"`,
/// each entry `{"id": ..., "data": <the object, verbatim>}` — this is how the engine benches
/// persist their flush-phase breakdowns and submit-latency quantiles alongside throughput.
/// `json` must be a valid JSON value; it is embedded without re-validation. Real `criterion`
/// has no such API; callers are expected to be behind the workspace shim.
pub fn record_telemetry_json(id: impl Into<String>, json: impl Into<String>) {
    TELEMETRY_RESULTS
        .lock()
        .expect("telemetry result registry poisoned")
        .push((id.into(), json.into()));
}

/// Records bench-measured *quality* scalars (not timings) under a benchmark-style id. They
/// are printed immediately and, when `--save-json` / `DYNSLD_BENCH_JSON` capture is active,
/// written to the same document as a `"quality"` array next to `"benchmarks"` — this is how
/// the partitioner-sweep bench persists spill shares and load ratios alongside its
/// throughput numbers. Real `criterion` has no such API; callers are expected to be behind
/// the workspace shim.
pub fn record_quality(id: impl Into<String>, metrics: &[(&str, f64)]) {
    let id = id.into();
    let rendered: Vec<String> = metrics
        .iter()
        .map(|(k, v)| format!("{k}: {v:.4}"))
        .collect();
    println!("{id:<60} {}", rendered.join("  "));
    QUALITY_RESULTS
        .lock()
        .expect("quality result registry poisoned")
        .push((
            id,
            metrics.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        ));
}

/// Minimal JSON string escaping (benchmark ids are plain ASCII identifiers,
/// but quoting defensively costs nothing).
fn escape_json(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Rewrites `path` with every result recorded so far in this process.
fn write_saved_results(path: &str) {
    let results = SAVED_RESULTS
        .lock()
        .expect("bench result registry poisoned");
    let mut out = String::from("{\n  \"benchmarks\": [\n");
    for (i, r) in results.iter().enumerate() {
        let sep = if i + 1 < results.len() { "," } else { "" };
        let throughput = match &r.throughput {
            Some((unit, per_sec)) => {
                format!(", \"throughput\": {{\"unit\": \"{unit}\", \"per_second\": {per_sec:.1}}}")
            }
            None => String::new(),
        };
        out.push_str(&format!(
            "    {{\"id\": \"{}\", \"mean_ns\": {:.2}, \"iters\": {}{}}}{}\n",
            escape_json(&r.id),
            r.mean_ns,
            r.iters,
            throughput,
            sep
        ));
    }
    out.push_str("  ]");
    let quality = QUALITY_RESULTS
        .lock()
        .expect("quality result registry poisoned");
    if !quality.is_empty() {
        out.push_str(",\n  \"quality\": [\n");
        for (i, (id, metrics)) in quality.iter().enumerate() {
            let sep = if i + 1 < quality.len() { "," } else { "" };
            let fields: Vec<String> = metrics
                .iter()
                .map(|(k, v)| {
                    // JSON has no Infinity/NaN literals; non-finite metrics become null.
                    let value = if v.is_finite() {
                        format!("{v}")
                    } else {
                        "null".to_string()
                    };
                    format!("\"{}\": {value}", escape_json(k))
                })
                .collect();
            out.push_str(&format!(
                "    {{\"id\": \"{}\", {}}}{}\n",
                escape_json(id),
                fields.join(", "),
                sep
            ));
        }
        out.push_str("  ]");
    }
    let telemetry = TELEMETRY_RESULTS
        .lock()
        .expect("telemetry result registry poisoned");
    if !telemetry.is_empty() {
        out.push_str(",\n  \"telemetry\": [\n");
        for (i, (id, json)) in telemetry.iter().enumerate() {
            let sep = if i + 1 < telemetry.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"id\": \"{}\", \"data\": {}}}{}\n",
                escape_json(id),
                json,
                sep
            ));
        }
        out.push_str("  ]");
    }
    out.push_str("\n}\n");
    if let Err(e) = std::fs::write(path, out) {
        eprintln!("warning: could not write bench results to {path}: {e}");
    }
}

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
    /// Where to persist results as JSON (`--save-json` / `DYNSLD_BENCH_JSON`).
    save_json: Option<String>,
}

impl Drop for Criterion {
    /// Persists the accumulated results when this driver goes out of scope (each
    /// `criterion_group!` drops its driver at group end, so the file is always a complete
    /// snapshot of everything measured so far).
    fn drop(&mut self) {
        if let Some(path) = &self.save_json {
            write_saved_results(path);
        }
    }
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
    /// substring filter on benchmark ids, `--save-json <path>` (or
    /// `--save-json=<path>`) enables JSON result capture, and
    /// `--bench`/`--test` plus flag values are ignored (they are passed by
    /// `cargo bench`/`cargo test`). The `DYNSLD_BENCH_JSON` environment
    /// variable provides a default capture path.
    pub fn configure_from_args(mut self) -> Self {
        if let Ok(path) = std::env::var("DYNSLD_BENCH_JSON") {
            if !path.is_empty() {
                self.save_json = Some(path);
            }
        }
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--bench" | "--test" => {}
                "--save-json" => self.save_json = args.next(),
                "--sample-size" | "--warm-up-time" | "--measurement-time" | "--save-baseline"
                | "--baseline" | "--load-baseline" | "--profile-time" => {
                    let _ = args.next();
                }
                s if s.starts_with("--save-json=") => {
                    self.save_json = Some(s["--save-json=".len()..].to_string());
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
                if self.save_json.is_some() {
                    SAVED_RESULTS
                        .lock()
                        .expect("bench result registry poisoned")
                        .push(SavedResult {
                            id: full,
                            mean_ns: per_iter * 1e9,
                            iters,
                            throughput: throughput.map(|t| match t {
                                Throughput::Elements(n) => ("elements", n as f64 / per_iter),
                                Throughput::Bytes(n) => ("bytes", n as f64 / per_iter),
                            }),
                        });
                }
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

    #[test]
    fn save_json_writes_measured_results() {
        let path = std::env::temp_dir().join("criterion_shim_save_json_test.json");
        let path_str = path.to_str().expect("temp path is valid UTF-8").to_string();
        {
            let mut c = Criterion::default()
                .warm_up_time(Duration::from_millis(1))
                .measurement_time(Duration::from_millis(2));
            c.save_json = Some(path_str.clone());
            let mut group = c.benchmark_group("save_json");
            group.throughput(Throughput::Elements(4));
            group.bench_with_input(BenchmarkId::new("probe", 4), &2u64, |b, &x| {
                b.iter(|| x * x)
            });
            group.finish();
        } // drop writes the file
        let contents = std::fs::read_to_string(&path).expect("results file written on drop");
        assert!(contents.contains("\"id\": \"save_json/probe/4\""));
        assert!(contents.contains("\"mean_ns\""));
        assert!(contents.contains("\"unit\": \"elements\""));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn record_quality_lands_in_the_saved_document() {
        let path = std::env::temp_dir().join("criterion_shim_quality_test.json");
        let path_str = path.to_str().expect("temp path is valid UTF-8").to_string();
        record_quality(
            "quality_probe/greedy",
            &[("spill_share", 0.125), ("load_ratio", f64::INFINITY)],
        );
        write_saved_results(&path_str);
        let contents = std::fs::read_to_string(&path).expect("results file written");
        assert!(contents.contains("\"quality\""));
        assert!(contents.contains("\"id\": \"quality_probe/greedy\""));
        assert!(contents.contains("\"spill_share\": 0.125"));
        // Non-finite scalars serialize as null, keeping the document valid JSON.
        assert!(contents.contains("\"load_ratio\": null"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn record_telemetry_json_lands_in_the_saved_document() {
        let path = std::env::temp_dir().join("criterion_shim_telemetry_test.json");
        let path_str = path.to_str().expect("temp path is valid UTF-8").to_string();
        record_telemetry_json(
            "telemetry_probe/flush",
            "{\"histograms\": {\"engine.flush_ns\": {\"count\": 3, \"p99\": 120}}}",
        );
        write_saved_results(&path_str);
        let contents = std::fs::read_to_string(&path).expect("results file written");
        assert!(contents.contains("\"telemetry\""));
        assert!(contents.contains("\"id\": \"telemetry_probe/flush\""));
        // The payload is embedded verbatim as a nested object, not as a quoted string.
        assert!(contents.contains("\"data\": {\"histograms\""));
        assert!(contents.contains("\"engine.flush_ns\""));
        // Still structurally balanced JSON.
        assert_eq!(contents.matches('{').count(), contents.matches('}').count());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn json_escaping_handles_specials() {
        assert_eq!(escape_json("plain/id_1"), "plain/id_1");
        assert_eq!(escape_json("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape_json("x\ny"), "x\\u000ay");
    }
}
