//! `baseline`: the repository's one reproducible benchmark.
//!
//! ```text
//! baseline --workload NAME [--seed S] [--seconds T] [--trace 0|1] [--out F] [--trace-out F]
//!                                           run one workload; the last stdout line is the
//!                                           driver's JSON result
//! baseline --all [--seed S] [--seconds T] [--trace 0|1] [--out F] [--trace-out PREFIX]
//!                                           every workload, each in its own process (traces go
//!                                           to PREFIX.<workload>.json)
//! baseline --repeat K (--workload NAME | --all) [--seed S] [--seconds T] [--out F]
//!                                           K runs each; min/median/max and spread per metric
//! baseline --compare A.json[,A2.json..] B.json[,B2.json..]
//!                                           pool each side's runs per workload and apply the
//!                                           bounds; exit 1 on a regression
//! baseline --list                           workloads, metrics, units, bounds
//! baseline --emit-benchmark-json            the contents of the root BENCHMARK.json
//! ```
//!
//! See `README.md` in this directory for the workload table, the metric glossary and how the
//! ladder derives a layer's self time.

mod compare;
mod e2e;
mod ladder;
mod oracle;
mod report;
mod run;
mod spec;
mod stats;
mod workloads;

use dynsld_serve::json::Value;
use report::{int, obj, text, RunDoc};
use std::process::{Command, ExitCode};

/// Seconds the timed section of a run is sized for when `--seconds` is not given; also
/// `run_seconds` in `BENCHMARK.json`.
const RUN_SECONDS: u32 = 12;

struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn values(&self, name: &str, count: usize) -> Option<&[String]> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1..at + 1 + count)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.values(name, 1).map(|v| v[0].as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.value(name) {
            None if self.flag(name) => Err(format!("{name} needs a value")),
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{name}: cannot parse {v:?}")),
        }
    }
}

/// Settings shared by every mode that runs workloads.
#[derive(Clone, Copy)]
struct RunSettings {
    seed: u64,
    seconds: f64,
    traced: bool,
}

impl RunSettings {
    fn from(args: &Args) -> Result<RunSettings, String> {
        let seconds = match args.parsed::<f64>("--seconds")? {
            Some(s) if s > 0.0 && s <= 60.0 => s,
            Some(s) => return Err(format!("--seconds {s}: must be in (0, 60]")),
            None => f64::from(RUN_SECONDS),
        };
        let traced = match args.parsed::<u8>("--trace")? {
            Some(0) => false,
            Some(1) => true,
            Some(t) => return Err(format!("--trace {t}: must be 0 or 1")),
            None => false,
        };
        Ok(RunSettings {
            seed: args.parsed("--seed")?.unwrap_or(1),
            seconds,
            traced,
        })
    }
}

/// Removes every `DYNSLD_*` variable from this process (and hence its children) and returns
/// their names. Eleven such variables silently change partitioner, MSF backend, threads,
/// tracing, faults, queue capacity and durability of any service built without naming them;
/// the harness names every one of those settings in its builders instead.
fn strip_environment() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("DYNSLD_"))
        .collect();
    for name in &names {
        // Single-threaded here: `main` calls this before anything else runs.
        std::env::remove_var(name);
    }
    names
}

fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What a reader needs to reproduce a document: host, toolchain, revision, inputs.
fn environment(stripped: &[String]) -> Value {
    obj(vec![
        ("nproc", int(run::nproc() as u64)),
        (
            "git_rev",
            text(&command_output("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("rustc", text(&command_output("rustc", &["--version"]))),
        (
            "stripped_env",
            Value::Arr(stripped.iter().map(|n| text(n)).collect()),
        ),
    ])
}

fn document(settings: &RunSettings, stripped: &[String], runs: &[RunDoc]) -> Value {
    obj(vec![
        ("benchmark", text("dynsld-baseline")),
        ("env", environment(stripped)),
        ("seed", int(settings.seed)),
        ("seconds", Value::Float(settings.seconds)),
        ("traced", Value::Bool(settings.traced)),
        (
            "runs",
            Value::Arr(runs.iter().map(RunDoc::to_value).collect()),
        ),
    ])
}

fn write(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("{path}: {e}"))
}

/// Runs one workload in this process.
fn run_one(name: &str, settings: &RunSettings, trace_out: Option<&str>) -> Result<RunDoc, String> {
    let plan = workloads::plan(name).ok_or_else(|| {
        format!(
            "unknown workload {name:?}; one of {}",
            spec::workload_names().join(", ")
        )
    })?;
    let failure = |e: run::Failure| format!("{name}: {e}");
    if !settings.traced {
        return e2e::run(plan, settings.seed, settings.seconds).map_err(failure);
    }
    let (doc, snapshot) = ladder::run(plan, settings.seed, settings.seconds).map_err(failure)?;
    if let Some(path) = trace_out {
        snapshot
            .trace
            .check_well_formed()
            .map_err(|e| format!("{name}: trace is not well formed: {e}"))?;
        write(path, &dynsld_telemetry::export::chrome_json(&snapshot))?;
        write(
            &format!("{path}.summary.json"),
            &dynsld_telemetry::export::to_json(&snapshot),
        )?;
    }
    Ok(doc)
}

/// Runs one workload in a child process (so `peak_rss_mib` is the workload's own) and reads
/// its document back.
fn run_child(
    name: &str,
    settings: &RunSettings,
    trace_out: Option<&str>,
    tmp: &run::TmpRoot,
) -> Result<RunDoc, String> {
    let out = tmp.fresh(name).with_extension("json");
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(exe);
    child
        .args(["--workload", name, "--seed", &settings.seed.to_string()])
        .args(["--seconds", &settings.seconds.to_string()])
        .args(["--trace", if settings.traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&out);
    if let Some(prefix) = trace_out {
        child.args(["--trace-out", &format!("{prefix}.{name}.json")]);
    }
    let status = child.status().map_err(|e| format!("{name}: spawn: {e}"))?;
    let runs = compare::load(&out.to_string_lossy())?;
    if !status.success() {
        eprintln!("{name}: child exited with {status}");
    }
    runs.into_iter()
        .next()
        .ok_or_else(|| format!("{name}: empty document"))
}

fn selected_workloads(args: &Args) -> Result<Vec<&'static str>, String> {
    if args.flag("--all") {
        return Ok(spec::workload_names());
    }
    let name = args
        .value("--workload")
        .ok_or("give --workload NAME or --all")?;
    spec::workload_names()
        .into_iter()
        .find(|w| *w == name)
        .map(|w| vec![w])
        .ok_or_else(|| format!("unknown workload {name:?}"))
}

/// `--repeat K`: K runs per workload on the same seed, and each end-to-end metric's min / median /
/// max, the max-relative spread `(max - min) / median` and the interquartile spread
/// `(q3 - q1) / median`. `--out` gets every run; `--compare` pools them.
fn repeat(args: &Args, k: usize, stripped: &[String]) -> Result<bool, String> {
    let settings = RunSettings::from(args)?;
    let tmp = run::TmpRoot::new().map_err(|e| e.to_string())?;
    let workloads = selected_workloads(args)?;
    // Pass by pass, not workload by workload: a slow minute on the host then lands in one run
    // of each workload instead of in every run of one.
    let mut runs: Vec<Vec<RunDoc>> = vec![Vec::new(); workloads.len()];
    for _ in 0..k {
        for (name, runs) in workloads.iter().zip(&mut runs) {
            runs.push(run_child(name, &settings, None, &tmp)?);
        }
    }
    println!(
        "{:<16} {:<24} {:>14} {:>14} {:>14} {:>8} {:>8}",
        "workload", "metric", "min", "median", "max", "spread", "iqr"
    );
    for (name, runs) in workloads.iter().zip(&runs) {
        for metric in spec::END_TO_END.iter().filter(|m| m.applies_to(name)) {
            let mut values: Vec<f64> = runs.iter().filter_map(|r| r.get(metric.name)).collect();
            if values.is_empty() {
                continue;
            }
            let (min, max) = (
                stats::percentile(&mut values, 0.0),
                stats::percentile(&mut values, 1.0),
            );
            let mid = stats::median(&mut values);
            println!(
                "{:<16} {:<24} {:>14.4} {:>14.4} {:>14.4} {:>7.2}% {:>7.2}%",
                name,
                metric.name,
                min,
                mid,
                max,
                stats::ratio(max - min, mid) * 100.0,
                stats::ratio(stats::interquartile(&values), mid) * 100.0,
            );
        }
    }
    let runs: Vec<RunDoc> = runs.into_iter().flatten().collect();
    if let Some(path) = args.value("--out") {
        write(path, &document(&settings, stripped, &runs).to_json())?;
    }
    Ok(runs.iter().all(RunDoc::correct))
}

fn list() {
    println!("workloads:");
    for w in spec::WORKLOADS {
        println!("  {:<16} {}", w.name, w.why);
    }
    println!("\nend-to-end metrics (untraced run; bound = allowed worsening, + absolute floor):");
    for m in spec::END_TO_END {
        let on = if m.workloads.is_empty() {
            "all".to_string()
        } else {
            m.workloads.join(", ")
        };
        println!(
            "  {:<24} {:<6} better={:<6} bound={:>4.0}% floor={:<5} on {on}{}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.floor,
            m.driver_bound.map_or(String::new(), |b| format!(
                "  [BENCHMARK.json, bound {:.0}%]",
                b * 100.0
            )),
        );
        println!(
            "  {:<24} {}",
            "",
            m.definition
                .split_whitespace()
                .collect::<Vec<_>>()
                .join(" ")
        );
    }
    println!("\nper-layer metrics (traced run; no bound) -> what each should move:");
    for m in spec::PER_LAYER {
        println!(
            "  {:<42} {:<6} better={:<6} -> {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves
        );
    }
}

/// The root `BENCHMARK.json`, generated from the spec tables so the two cannot drift.
fn benchmark_json() -> String {
    let workloads = spec::WORKLOADS
        .iter()
        .map(|w| obj(vec![("name", text(w.name)), ("why", text(w.why))]))
        .collect();
    let end_to_end = spec::END_TO_END
        .iter()
        .filter_map(|m| {
            Some(obj(vec![
                ("name", text(m.name)),
                ("unit", text(m.unit)),
                ("better", text(m.better.as_str())),
                ("bound", Value::Float(m.driver_bound?)),
            ]))
        })
        .collect();
    let per_layer = spec::PER_LAYER
        .iter()
        .map(|m| {
            obj(vec![
                ("name", text(m.name)),
                ("unit", text(m.unit)),
                ("better", text(m.better.as_str())),
            ])
        })
        .collect();
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--manifest-path",
        "baseline/Cargo.toml",
        "--bin",
        "baseline",
        "--",
    ];
    obj(vec![
        (
            "command",
            Value::Arr(command.iter().map(|c| text(c)).collect()),
        ),
        ("paths", Value::Arr(vec![text("baseline")])),
        ("run_seconds", int(u64::from(RUN_SECONDS))),
        ("workloads", Value::Arr(workloads)),
        ("end_to_end", Value::Arr(end_to_end)),
        ("per_layer", Value::Arr(per_layer)),
    ])
    .to_json()
}

fn real_main(args: &Args, stripped: &[String]) -> Result<bool, String> {
    if args.flag("--list") {
        list();
        return Ok(true);
    }
    if args.flag("--emit-benchmark-json") {
        println!("{}", benchmark_json());
        return Ok(true);
    }
    if let Some(paths) = args.values("--compare", 2) {
        let rows = compare::compare(
            &compare::load_side(&paths[0])?,
            &compare::load_side(&paths[1])?,
        );
        return Ok(compare::print(&rows) == 0);
    }
    if args.flag("--compare") {
        return Err("--compare needs two documents".into());
    }
    if let Some(k) = args.parsed::<usize>("--repeat")? {
        return repeat(args, k.max(1), stripped);
    }
    let settings = RunSettings::from(args)?;
    if args.flag("--all") {
        let tmp = run::TmpRoot::new().map_err(|e| e.to_string())?;
        let mut runs = Vec::new();
        for name in spec::workload_names() {
            runs.push(run_child(name, &settings, args.value("--trace-out"), &tmp)?);
        }
        if let Some(path) = args.value("--out") {
            write(path, &document(&settings, stripped, &runs).to_json())?;
        }
        return Ok(runs.iter().all(RunDoc::correct));
    }
    let name = args.value("--workload").ok_or(
        "give --workload NAME, --all, --repeat K, --compare A B, --list or --emit-benchmark-json",
    )?;
    let doc = run_one(name, &settings, args.value("--trace-out"))?;
    doc.print();
    if let Some(path) = args.value("--out") {
        write(
            path,
            &document(&settings, stripped, std::slice::from_ref(&doc)).to_json(),
        )?;
    }
    // The driver reads the last line of stdout.
    println!("{}", doc.driver_line());
    Ok(doc.correct())
}

fn main() -> ExitCode {
    let stripped = strip_environment();
    if !stripped.is_empty() {
        eprintln!("stripped from the environment: {}", stripped.join(", "));
    }
    match real_main(&Args(std::env::args().skip(1).collect()), &stripped) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("baseline: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed `BENCHMARK.json` is exactly what the spec tables generate.
    #[test]
    fn benchmark_json_matches_the_spec_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let committed = dynsld_serve::json::parse(&committed).expect("valid JSON");
        let generated = dynsld_serve::json::parse(&benchmark_json()).expect("valid JSON");
        assert_eq!(
            committed, generated,
            "regenerate with --emit-benchmark-json"
        );
    }

    #[test]
    fn the_contract_s_limits_hold() {
        let names: Vec<&str> = spec::WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(spec::END_TO_END.iter().map(|m| m.name))
            .chain(spec::PER_LAYER.iter().map(|m| m.name))
            .collect();
        for (i, name) in names.iter().enumerate() {
            assert!(name.len() <= 64 && !names[..i].contains(name), "{name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        assert!((2..=8).contains(&spec::WORKLOADS.len()));
        assert!(spec::WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && workloads::plan(w.name).is_some()));
        assert!(spec::PER_LAYER.len() <= 128);
        let declared: Vec<_> = spec::END_TO_END
            .iter()
            .filter_map(|m| Some((m, m.driver_bound?)))
            .collect();
        assert!(declared
            .iter()
            .any(|(m, _)| m.name == "setup_s" && m.unit == "s"));
        assert!(declared
            .iter()
            .all(|&(m, bound)| m.workloads.is_empty() && bound > 0.0 && bound <= 0.25));
    }

    /// The smoke run tier-1 would want: every workload end to end and through the whole ladder
    /// at a fraction of a second, the oracle still checked, every declared metric reported.
    #[test]
    fn every_workload_runs_untraced_and_traced_and_passes_the_oracle() {
        for plan in workloads::PLANS {
            for traced in [false, true] {
                let settings = RunSettings {
                    seed: 7,
                    seconds: 0.2,
                    traced,
                };
                let doc = run_one(plan.name, &settings, None).expect("the run completes");
                assert!(
                    doc.correct(),
                    "{} traced={traced}: {:?}",
                    plan.name,
                    doc.notes
                );
                let line = dynsld_serve::json::parse(&doc.driver_line()).expect("valid JSON");
                let Some(Value::Obj(metrics)) = line.get("metrics") else {
                    panic!("no metrics object")
                };
                let declared = if traced {
                    spec::PER_LAYER.len()
                } else {
                    spec::END_TO_END
                        .iter()
                        .filter(|m| m.driver_bound.is_some())
                        .count()
                };
                assert_eq!(metrics.len(), declared, "{} traced={traced}", plan.name);
                for metric in spec::END_TO_END
                    .iter()
                    .filter(|m| !traced && m.applies_to(plan.name))
                {
                    assert!(
                        doc.get(metric.name).is_some(),
                        "{}: {}",
                        plan.name,
                        metric.name
                    );
                }
            }
        }
    }
}
