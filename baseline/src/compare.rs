//! `--compare A.json[,A2.json,...] B.json[,...]`: applies the bounds table to two sets of runs.

use crate::report::RunDoc;
use crate::spec::{Better, EndToEnd, END_TO_END};
use crate::stats::{median, ratio};
use dynsld_serve::json::{parse, Value};

/// How one (workload, metric) pair fared.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// No worse than the base by more than the bound (this includes every improvement).
    Within,
    Regressed,
    /// Nothing can be said: one side did not report the metric (or the workload), or the runs
    /// of one side spread by more than the bound and the two ranges overlap.
    Unresolved,
}

/// One metric over all runs of one workload on one side: their median and their range.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pooled {
    pub runs: usize,
    pub min: f64,
    pub median: f64,
    pub max: f64,
}

/// Runs a side needs before disjoint ranges may overrule a wide spread. Two samples of `n` runs
/// from one distribution separate completely 2 times in C(2n, n): 1 in 10 for three runs a side
/// (seen: three `giant_churn` passes of one side all landed in slow minutes of the host), 1 in
/// 126 for five. A comparison has 44 pairs.
const RUNS_TO_SEPARATE: usize = 5;

impl Pooled {
    pub fn of(mut values: Vec<f64>) -> Option<Pooled> {
        let median = median(&mut values); // sorts
        Some(Pooled {
            runs: values.len(),
            min: *values.first()?,
            median,
            max: *values.last()?,
        })
    }

    fn spread(&self) -> f64 {
        ratio(self.max - self.min, self.median.abs())
    }
}

/// Judges `new` against `base` for one metric. The slack is `bound x median + floor`;
/// `failed_ops_share` (bound 0, floor 0) regresses on any increase.
///
/// With one run a side, a value worse by more than the slack is a regression. With several
/// (`--repeat`, or several documents a side), where either side's range is wider than the
/// slack the host moved more than the bound while the code stood still, and the pair is
/// unresolved unless both sides have `RUNS_TO_SEPARATE` runs and every run of one side is
/// better than every run of the other.
pub fn judge(metric: &EndToEnd, base: Option<Pooled>, new: Option<Pooled>) -> Outcome {
    let (Some(base), Some(new)) = (base, new) else {
        return Outcome::Unresolved;
    };
    let slack = |p: Pooled| metric.bound * p.median.abs() + metric.floor;
    // (how much worse the median is, whether every new run is worse / better than every base run)
    let (worse_by, all_worse, all_better) = match metric.better {
        Better::Lower => (
            new.median - base.median,
            new.min > base.max,
            new.max < base.min,
        ),
        Better::Higher => (
            base.median - new.median,
            new.max < base.min,
            new.min > base.max,
        ),
    };
    let separable = base.runs.min(new.runs) >= RUNS_TO_SEPARATE;
    let regressed = worse_by > slack(base);
    let wide = base.max - base.min > slack(base) || new.max - new.min > slack(new);
    match (wide, regressed) {
        (false, true) => Outcome::Regressed,
        (false, false) => Outcome::Within,
        (true, true) if separable && all_worse => Outcome::Regressed,
        (true, false) if separable && all_better => Outcome::Within,
        (true, _) => Outcome::Unresolved,
    }
}

/// The runs of a result document: either a single run or an `--all` document with `runs`.
pub fn runs_of(document: &Value) -> Vec<RunDoc> {
    match document.get("runs").and_then(Value::as_arr) {
        Some(runs) => runs.iter().filter_map(RunDoc::from_value).collect(),
        None => RunDoc::from_value(document).into_iter().collect(),
    }
}

/// The runs of one side: `paths` is one document or several, comma-separated.
pub fn load_side(paths: &str) -> Result<Vec<RunDoc>, String> {
    let mut runs = Vec::new();
    for path in paths.split(',') {
        runs.extend(load(path)?);
    }
    Ok(runs)
}

pub fn load(path: &str) -> Result<Vec<RunDoc>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let value = parse(&text).map_err(|e| format!("{path}: byte {}: {}", e.at, e.message))?;
    let runs = runs_of(&value);
    if runs.is_empty() {
        return Err(format!("{path}: no runs in the document"));
    }
    Ok(runs)
}

/// One row of the comparison.
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub base: Option<f64>,
    pub new: Option<f64>,
    /// The wider of the two sides' `(max - min) / median`, where both sides reported.
    pub spread: Option<f64>,
    pub outcome: Outcome,
}

/// Every end-to-end metric on every workload either side ran (untraced runs only), each side
/// pooled over all its runs of that workload.
pub fn compare(base: &[RunDoc], new: &[RunDoc]) -> Vec<Row> {
    fn pooled(docs: &[RunDoc], workload: &str, metric: &str) -> Option<Pooled> {
        let runs = docs.iter().filter(|d| !d.traced && d.workload == workload);
        Pooled::of(runs.filter_map(|d| d.get(metric)).collect())
    }
    let mut workloads: Vec<&str> = Vec::new();
    for doc in base.iter().chain(new).filter(|d| !d.traced) {
        if !workloads.contains(&doc.workload.as_str()) {
            workloads.push(&doc.workload);
        }
    }
    let mut rows = Vec::new();
    for workload in workloads {
        for metric in END_TO_END.iter().filter(|m| m.applies_to(workload)) {
            let b = pooled(base, workload, metric.name);
            let n = pooled(new, workload, metric.name);
            rows.push(Row {
                workload: workload.to_string(),
                metric: metric.name,
                base: b.map(|p| p.median),
                new: n.map(|p| p.median),
                spread: b.zip(n).map(|(b, n)| b.spread().max(n.spread())),
                outcome: judge(metric, b, n),
            });
        }
    }
    rows
}

/// Prints the table; returns the number of regressions.
pub fn print(rows: &[Row]) -> usize {
    let show = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.4}"));
    println!(
        "{:<16} {:<24} {:>16} {:>16} {:>9} {:>9}  verdict",
        "workload", "metric", "base", "new", "change", "spread"
    );
    for row in rows {
        let change = match (row.base, row.new) {
            (Some(b), Some(n)) if b != 0.0 => format!("{:+.1}%", (n / b - 1.0) * 100.0),
            _ => "-".to_string(),
        };
        println!(
            "{:<16} {:<24} {:>16} {:>16} {:>9} {:>9}  {}",
            row.workload,
            row.metric,
            show(row.base),
            show(row.new),
            change,
            row.spread
                .map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0)),
            match row.outcome {
                Outcome::Within => "ok",
                Outcome::Regressed => "REGRESSED",
                Outcome::Unresolved => "unresolved",
            }
        );
    }
    let regressed = rows
        .iter()
        .filter(|r| r.outcome == Outcome::Regressed)
        .count();
    let unresolved = rows
        .iter()
        .filter(|r| r.outcome == Outcome::Unresolved)
        .count();
    println!(
        "{} pairs, {regressed} regressed, {unresolved} unresolved",
        rows.len()
    );
    regressed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END
            .iter()
            .find(|m| m.name == name)
            .expect("in the table")
    }

    fn doc(workload: &str, values: &[(&str, f64)]) -> RunDoc {
        let mut doc = RunDoc {
            workload: workload.into(),
            ..RunDoc::default()
        };
        for &(name, value) in values {
            doc.push(name, value, 1);
        }
        doc
    }

    /// Five runs a side, enough for disjoint ranges to count.
    fn ranged(min: f64, median: f64, max: f64) -> Pooled {
        Pooled {
            runs: RUNS_TO_SEPARATE,
            min,
            median,
            max,
        }
    }

    /// `judge` between two single runs.
    fn judge1(m: &EndToEnd, base: Option<f64>, new: Option<f64>) -> Outcome {
        let single = |v| Pooled {
            runs: 1,
            ..ranged(v, v, v)
        };
        judge(m, base.map(single), new.map(single))
    }

    /// `base` worsened by `share` of itself plus `extra`, in the metric's own direction.
    fn worsened(m: &EndToEnd, base: f64, share: f64, extra: f64) -> Option<f64> {
        let by = base * share + extra;
        Some(match m.better {
            Better::Lower => base + by,
            Better::Higher => base - by,
        })
    }

    #[test]
    fn improvements_and_changes_inside_the_bound_pass() {
        for name in ["events_per_s", "publish_p99_us", "wal_bytes_per_event"] {
            let m = metric(name);
            assert_eq!(
                judge1(m, Some(1000.0), worsened(m, 1000.0, -0.5, 0.0)),
                Outcome::Within
            );
            assert_eq!(
                judge1(m, Some(1000.0), worsened(m, 1000.0, m.bound * 0.9, 0.0)),
                Outcome::Within
            );
        }
    }

    #[test]
    fn changes_outside_the_bound_regress_in_the_metric_s_direction() {
        for name in ["events_per_s", "publish_p99_us", "wal_bytes_per_event"] {
            let m = metric(name);
            assert_eq!(m.floor, 0.0);
            assert_eq!(
                judge1(m, Some(1000.0), worsened(m, 1000.0, m.bound * 1.1, 0.0)),
                Outcome::Regressed
            );
        }
        // The same absolute change in the good direction is an improvement, not a regression.
        assert_eq!(
            judge1(metric("events_per_s"), Some(1000.0), Some(2000.0)),
            Outcome::Within
        );
        assert_eq!(
            judge1(metric("publish_p99_us"), Some(1000.0), Some(2000.0)),
            Outcome::Regressed
        );
    }

    #[test]
    fn the_absolute_floor_keeps_tiny_values_from_flapping() {
        // A 20 ms set-up that takes ten times as long is still inside setup_s's floor.
        let setup = metric("setup_s");
        assert!(setup.floor >= 0.2);
        assert_eq!(judge1(setup, Some(0.02), Some(0.2)), Outcome::Within);
        for name in ["setup_s", "publish_p50_us", "recovery_s", "peak_rss_mib"] {
            let m = metric(name);
            assert!(m.floor > 0.0);
            assert_eq!(
                judge1(m, Some(10.0), worsened(m, 10.0, m.bound, m.floor * 0.9)),
                Outcome::Within
            );
            assert_eq!(
                judge1(m, Some(10.0), worsened(m, 10.0, m.bound, m.floor * 1.1)),
                Outcome::Regressed
            );
        }
    }

    #[test]
    fn runs_that_spread_wider_than_the_bound_resolve_nothing_unless_the_ranges_are_disjoint() {
        let m = metric("events_per_s");
        let verdict = |base: Pooled, new: Pooled| judge(m, Some(base), Some(new));
        let steady = ranged(990.0, 1000.0, 1010.0);
        // Medians 20 % apart and tight ranges: a regression, as between single runs.
        assert_eq!(
            verdict(steady, ranged(790.0, 800.0, 810.0)),
            Outcome::Regressed
        );
        // The same medians, but one side's runs are 30 % apart and reach into the other's.
        let noisy = ranged(780.0, 800.0, 1020.0);
        assert_eq!(verdict(steady, noisy), Outcome::Unresolved);
        // Wide, but every run of the new side is worse than every run of the base...
        let all_worse = ranged(600.0, 800.0, 900.0);
        assert_eq!(verdict(steady, all_worse), Outcome::Regressed);
        // ...which three runs a side do by chance one time in ten.
        let few = |p: Pooled| Pooled { runs: 3, ..p };
        assert_eq!(verdict(few(steady), few(all_worse)), Outcome::Unresolved);
        // A median inside the bound is not "unchanged" either when the runs spread that much...
        assert_eq!(
            verdict(steady, ranged(700.0, 990.0, 1000.0)),
            Outcome::Unresolved
        );
        // ...unless every new run beats every base run.
        assert_eq!(
            verdict(steady, ranged(1100.0, 1200.0, 1500.0)),
            Outcome::Within
        );
    }

    #[test]
    fn each_side_is_pooled_over_all_its_runs_of_a_workload() {
        let side = |rates: &[f64]| -> Vec<RunDoc> {
            let run = |&rate| doc("sparse_bulk", &[("events_per_s", rate)]);
            rates.iter().map(run).collect()
        };
        let rows = compare(
            &side(&[1000.0, 990.0, 1010.0]),
            &side(&[810.0, 790.0, 800.0]),
        );
        let row = rows
            .iter()
            .find(|r| r.metric == "events_per_s")
            .expect("a row");
        assert_eq!(
            (row.base, row.new, row.outcome),
            (Some(1000.0), Some(800.0), Outcome::Regressed)
        );
        assert!((row.spread.expect("both sides") - 0.025).abs() < 1e-12);
    }

    #[test]
    fn any_increase_in_failed_ops_regresses() {
        let failed = metric("failed_ops_share");
        assert_eq!(judge1(failed, Some(0.0), Some(0.0)), Outcome::Within);
        assert_eq!(judge1(failed, Some(0.0), Some(1e-9)), Outcome::Regressed);
        assert_eq!(judge1(failed, Some(0.01), Some(0.0)), Outcome::Within);
    }

    #[test]
    fn a_missing_side_is_unresolved_not_a_pass() {
        assert_eq!(
            judge1(metric("events_per_s"), None, Some(1.0)),
            Outcome::Unresolved
        );
        let base = [doc(
            "sparse_trickle",
            &[("events_per_s", 100.0), ("publish_p50_us", 90.0)],
        )];
        let new = [
            doc("sparse_trickle", &[("events_per_s", 50.0)]),
            doc("sparse_bulk", &[("events_per_s", 5.0)]),
        ];
        let rows = compare(&base, &new);
        let find = |w: &str, m: &str| {
            rows.iter()
                .find(|r| r.workload == w && r.metric == m)
                .map(|r| r.outcome)
        };
        assert_eq!(
            find("sparse_trickle", "events_per_s"),
            Some(Outcome::Regressed)
        );
        assert_eq!(
            find("sparse_trickle", "publish_p50_us"),
            Some(Outcome::Unresolved)
        );
        assert_eq!(
            find("sparse_bulk", "events_per_s"),
            Some(Outcome::Unresolved)
        );
        // Metrics a workload never reports are not rows at all.
        assert_eq!(find("sparse_trickle", "recovery_s"), None);
    }
}
