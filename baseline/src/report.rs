//! The result document: one JSON object per run, written with the serving tier's JSON writer
//! (`dynsld_serve::json`) rather than a fourth hand-rolled one.

use crate::spec::{unit_of, END_TO_END, PER_LAYER};
use dynsld_serve::json::Value;

/// One measured metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Measured {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value: iterations for a percentile, events for a rate, 1 for a
    /// single reading.
    pub samples: u64,
}

/// Everything one run of one workload produced.
#[derive(Clone, Debug, Default)]
pub struct RunDoc {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub metrics: Vec<Measured>,
    /// Operations attempted: events submitted, reader ops and syncs, oracle checks.
    pub attempted: u64,
    pub failed: u64,
    /// Workload sizing and what happened, for the record (`timed_events`, `iterations`, ...).
    pub facts: Vec<(String, Value)>,
    pub notes: Vec<String>,
}

pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

pub fn int(n: u64) -> Value {
    Value::Int(n as i64)
}

pub fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

impl RunDoc {
    pub fn push(&mut self, name: &str, value: f64, samples: u64) {
        let unit =
            unit_of(name).unwrap_or_else(|| panic!("metric {name} is not in the spec tables"));
        self.metrics.push(Measured {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn failed_ops_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn to_value(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let fields = obj(vec![
                    ("value", Value::Float(m.value)),
                    ("unit", text(m.unit)),
                    ("samples", int(m.samples)),
                ]);
                (m.name.clone(), fields)
            })
            .collect();
        obj(vec![
            ("workload", text(&self.workload)),
            ("seed", int(self.seed)),
            ("seconds", Value::Float(self.seconds)),
            ("traced", Value::Bool(self.traced)),
            ("correct", Value::Bool(self.correct())),
            ("attempted", int(self.attempted)),
            ("failed", int(self.failed)),
            ("facts", Value::Obj(self.facts.clone())),
            (
                "notes",
                Value::Arr(self.notes.iter().map(|n| text(n)).collect()),
            ),
            ("metrics", Value::Obj(metrics)),
        ])
    }

    /// The inverse of [`to_value`](Self::to_value), for `--compare`, `--repeat` and `--all`.
    pub fn from_value(v: &Value) -> Option<RunDoc> {
        let Value::Obj(metrics) = v.get("metrics")? else {
            return None;
        };
        let metrics = metrics
            .iter()
            .filter_map(|(name, fields)| {
                Some(Measured {
                    name: name.clone(),
                    value: fields.get("value")?.as_f64()?,
                    unit: unit_of(name)?,
                    samples: fields.get("samples")?.as_int()? as u64,
                })
            })
            .collect();
        let Value::Obj(facts) = v.get("facts")? else {
            return None;
        };
        Some(RunDoc {
            workload: v.get("workload")?.as_str()?.to_string(),
            seed: v.get("seed")?.as_int()? as u64,
            seconds: v.get("seconds")?.as_f64()?,
            traced: matches!(v.get("traced")?, Value::Bool(true)),
            metrics,
            attempted: v.get("attempted")?.as_int()? as u64,
            failed: v.get("failed")?.as_int()? as u64,
            facts: facts.clone(),
            notes: v
                .get("notes")?
                .as_arr()?
                .iter()
                .filter_map(|n| n.as_str().map(str::to_string))
                .collect(),
        })
    }

    /// The one-line result the benchmark driver reads: exactly `correct`, `attempted`, `failed`
    /// and the metrics `BENCHMARK.json` declares for this kind of run.
    pub fn driver_line(&self) -> String {
        let declared: Vec<&str> = if self.traced {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END
                .iter()
                .filter(|m| m.driver_bound.is_some())
                .map(|m| m.name)
                .collect()
        };
        let metrics = self
            .metrics
            .iter()
            .filter(|m| declared.contains(&m.name.as_str()))
            .map(|m| {
                let fields = obj(vec![
                    ("value", Value::Float(m.value)),
                    ("unit", text(m.unit)),
                ]);
                (m.name.clone(), fields)
            })
            .collect();
        obj(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", int(self.attempted.max(1))),
            ("failed", int(self.failed)),
            ("metrics", Value::Obj(metrics)),
        ])
        .to_json()
    }

    /// Every metric by name with its unit and sample count, one per line.
    pub fn print(&self) {
        println!(
            "== {} seed={} seconds={} {}",
            self.workload,
            self.seed,
            self.seconds,
            if self.traced { "traced" } else { "untraced" }
        );
        for m in &self.metrics {
            println!(
                "{:<44} {:>16.4} {:<6} (samples {})",
                m.name, m.value, m.unit, m.samples
            );
        }
        for note in &self.notes {
            println!("note: {note}");
        }
        println!(
            "oracle: {} ({} attempted, {} failed)",
            if self.correct() { "ok" } else { "MISMATCH" },
            self.attempted,
            self.failed
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn documents_round_trip_and_the_driver_line_is_the_declared_subset() {
        let mut doc = RunDoc {
            workload: "sparse_trickle".into(),
            seed: 3,
            seconds: 1.5,
            attempted: 10,
            facts: vec![("timed_events".into(), int(10))],
            notes: vec!["a note".into()],
            ..RunDoc::default()
        };
        doc.push("events_per_s", 1234.5, 10);
        doc.push("publish_p99_us", 88.0, 10);
        let back =
            RunDoc::from_value(&dynsld_serve::json::parse(&doc.to_value().to_json()).unwrap())
                .expect("a document parses back");
        assert_eq!(back.metrics, doc.metrics);
        assert_eq!(
            (back.seed, back.attempted, &back.notes),
            (3, 10, &doc.notes)
        );
        let line = dynsld_serve::json::parse(&doc.driver_line()).unwrap();
        let Some(Value::Obj(metrics)) = line.get("metrics") else {
            panic!("no metrics object")
        };
        // publish_p99_us is not reported by every workload, so the driver never sees it.
        assert_eq!(metrics.len(), 1);
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
    }
}
