//! What a run produces: named metrics with their sample summaries, the
//! operation and check tallies, the printed table, the driver's JSON line
//! and the versioned result record under `benchmark/out/`.

use crate::catalogue::{self, Decl};
use crate::host::Fingerprint;
use crate::measure;
use serde::Value;
use std::path::{Path, PathBuf};

/// Version of the result-record layout.
pub const RECORD_VERSION: u64 = 1;

/// One reported metric: the median is the value, `n`/`q1`/`q3` say how far
/// to trust it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    /// Which way the metric improves (`lower` / `higher`).
    pub better: &'static str,
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// Must repeat bit for bit for a given seed.
    pub exact: bool,
    pub note: String,
}

/// Operations attempted and failed (measuring runs, jobs, correctness
/// checks), with one line per failure.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, what: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        if failed > 0 {
            self.failed += failed;
            self.failures
                .push(format!("{what}: {failed} of {attempted} failed"));
        }
    }

    /// One correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// Everything one workload run reports.
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// The scenario JSON texts the program received.
    pub inputs: Vec<String>,
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    /// Free-form lines printed under the table (layer self times, digests).
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str, seed: u64, seconds: f64, traced: bool) -> Self {
        Report {
            workload,
            seed,
            seconds,
            traced,
            inputs: Vec::new(),
            metrics: Vec::new(),
            tally: Tally::default(),
            notes: Vec::new(),
        }
    }

    fn declared(name: &str) -> &'static Decl {
        catalogue::find(name).unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
    }

    /// Records a metric from its samples (median and quartiles over them).
    pub fn samples(&mut self, name: &str, values: &[f64]) -> &mut Metric {
        let decl = Self::declared(name);
        let metric = if values.is_empty() {
            // An empty sample is a failed measurement, not a zero.
            self.tally.check(false, || format!("{name}: no samples"));
            Metric {
                name: name.to_string(),
                unit: decl.unit,
                better: decl.better.as_str(),
                n: 0,
                median: f64::NAN,
                q1: f64::NAN,
                q3: f64::NAN,
                exact: decl.exact,
                note: String::new(),
            }
        } else {
            let (q1, median, q3) = measure::quartiles(values);
            Metric {
                name: name.to_string(),
                unit: decl.unit,
                better: decl.better.as_str(),
                n: values.len(),
                median,
                q1,
                q3,
                exact: decl.exact,
                note: String::new(),
            }
        };
        self.metrics.push(metric);
        self.metrics.last_mut().expect("just pushed")
    }

    /// Records a single-valued metric (a count, a ratio, one timing).
    pub fn value(&mut self, name: &str, value: f64) -> &mut Metric {
        self.samples(name, &[value])
    }

    /// Records the tail of a sample under `name` — the highest percentile
    /// with at least ten samples beyond it, named in the note.
    pub fn tail(&mut self, name: &str, values: &[f64]) {
        if values.is_empty() {
            self.samples(name, values);
            return;
        }
        let (p, v) = measure::tail(values);
        let n = values.len();
        let metric = self.value(name, v);
        metric.n = n;
        metric.note = if p >= 100.0 {
            format!("max: n={n} supports no percentile with ten samples beyond it")
        } else {
            format!("p{p}")
        };
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.median)
    }

    /// Checks the run reported exactly the declared set for its mode, each
    /// as a finite number; what is missing or malformed counts as failed.
    pub fn close(&mut self) {
        let declared = if self.traced {
            catalogue::PER_LAYER
        } else {
            catalogue::END_TO_END
        };
        for decl in declared {
            match self.metrics.iter().filter(|m| m.name == decl.name).count() {
                1 => {}
                0 => self
                    .tally
                    .check(false, || format!("{}: not measured", decl.name)),
                k => self
                    .tally
                    .check(false, || format!("{}: reported {k} times", decl.name)),
            }
        }
        for metric in &self.metrics {
            if !metric.median.is_finite() {
                self.tally
                    .check(false, || format!("{}: not a finite number", metric.name));
            }
        }
        let wanted: Vec<&str> = declared.iter().map(|d| d.name).collect();
        self.metrics.retain(|m| wanted.contains(&m.name.as_str()));
    }

    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    /// The table a person reads: every metric by name with unit, sample
    /// count, median and quartiles.
    pub fn render(&self, host: &Fingerprint) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "workload {}  seed {}  mode {}  ({})\n",
            self.workload,
            self.seed,
            if self.traced {
                "traced (per-layer)"
            } else {
                "timed (end-to-end, tracing off)"
            },
            host.describe()
        ));
        out.push_str(&format!(
            "{:<36} {:>6} {:>5} {:>16} {:>16} {:>16}  {}\n",
            "metric", "unit", "n", "median", "q1", "q3", "note"
        ));
        for m in &self.metrics {
            let mut note = m.note.clone();
            if m.exact {
                note = if note.is_empty() {
                    "exact".to_string()
                } else {
                    format!("exact; {note}")
                };
            }
            out.push_str(&format!(
                "{:<36} {:>6} {:>5} {:>16.6} {:>16.6} {:>16.6}  {}\n",
                m.name, m.unit, m.n, m.median, m.q1, m.q3, note
            ));
        }
        for note in &self.notes {
            out.push_str(note);
            out.push('\n');
        }
        out.push_str(&format!(
            "ops_attempted {}  ops_failed {}\n",
            self.tally.attempted, self.tally.failed
        ));
        for failure in &self.tally.failures {
            out.push_str(&format!("FAILED: {failure}\n"));
        }
        out
    }

    /// The driver's result object: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn driver_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Value::Map(vec![
                        ("value".to_string(), Value::F64(m.median)),
                        ("unit".to_string(), Value::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect();
        let line = Value::Map(vec![
            ("correct".to_string(), Value::Bool(self.correct())),
            (
                "attempted".to_string(),
                Value::U64(self.tally.attempted.max(1)),
            ),
            ("failed".to_string(), Value::U64(self.tally.failed)),
            ("metrics".to_string(), Value::Map(metrics)),
        ]);
        serde_json::to_string(&line).expect("result serializes")
    }

    /// The versioned result record: every metric with its summary, the
    /// inputs and seed, the tallies and the host fingerprint.
    pub fn record_json(&self, host: &Fingerprint) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                Value::Map(vec![
                    ("name".to_string(), Value::Str(m.name.clone())),
                    ("unit".to_string(), Value::Str(m.unit.to_string())),
                    ("better".to_string(), Value::Str(m.better.to_string())),
                    ("n".to_string(), Value::U64(m.n as u64)),
                    ("median".to_string(), Value::F64(m.median)),
                    ("q1".to_string(), Value::F64(m.q1)),
                    ("q3".to_string(), Value::F64(m.q3)),
                    ("exact".to_string(), Value::Bool(m.exact)),
                    ("note".to_string(), Value::Str(m.note.clone())),
                ])
            })
            .collect();
        let strings =
            |items: &[String]| Value::Seq(items.iter().cloned().map(Value::Str).collect());
        let record = Value::Map(vec![
            ("record_version".to_string(), Value::U64(RECORD_VERSION)),
            (
                "workload".to_string(),
                Value::Str(self.workload.to_string()),
            ),
            ("seed".to_string(), Value::U64(self.seed)),
            ("seconds".to_string(), Value::F64(self.seconds)),
            ("traced".to_string(), Value::Bool(self.traced)),
            (
                "ops_attempted".to_string(),
                Value::U64(self.tally.attempted),
            ),
            ("ops_failed".to_string(), Value::U64(self.tally.failed)),
            ("failures".to_string(), strings(&self.tally.failures)),
            (
                "host".to_string(),
                Value::Map(vec![
                    ("nproc".to_string(), Value::U64(host.nproc as u64)),
                    ("cpu_model".to_string(), Value::Str(host.cpu_model.clone())),
                    ("rustc".to_string(), Value::Str(host.rustc.clone())),
                    ("profile".to_string(), Value::Str(host.profile.to_string())),
                    ("git_head".to_string(), Value::Str(host.git_head.clone())),
                ]),
            ),
            ("metrics".to_string(), Value::Seq(metrics)),
            ("notes".to_string(), strings(&self.notes)),
            ("inputs".to_string(), strings(&self.inputs)),
        ]);
        let mut json = serde_json::to_string_pretty(&record).expect("record serializes");
        json.push('\n');
        json
    }

    /// Writes the record under `out_dir`; returns its path.
    pub fn write_record(&self, out_dir: &Path, host: &Fingerprint) -> Result<PathBuf, String> {
        std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
        let path = out_dir.join(format!(
            "{}-{}-seed{}-{}.json",
            self.workload,
            if self.traced { "trace" } else { "run" },
            self.seed,
            std::process::id()
        ));
        std::fs::write(&path, self.record_json(host))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> Fingerprint {
        Fingerprint {
            nproc: 2,
            cpu_model: "test cpu".to_string(),
            rustc: "rustc test".to_string(),
            profile: "release",
            git_head: "unknown".to_string(),
        }
    }

    fn full_timed_report() -> Report {
        let mut report = Report::new("txflood-fig3", 7, 1.0, false);
        report.samples("wall_s", &[3.0, 1.0, 2.0]);
        report.samples("setup_s", &[0.5]);
        report.value("peak_rss_mb", 20.25);
        report.value("submit_to_outcome_s", 1.5);
        report.value("cache_hit_ms", 0.75);
        report
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let mut report = full_timed_report();
        report.tally.ops("runs", 10, 0);
        report.close();
        assert!(report.correct());
        let line = report.driver_line();
        assert!(!line.contains('\n'));
        let v: Value = serde_json::from_str(&line).unwrap();
        let top = v.as_map().unwrap();
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = serde::map_get(top, "metrics").as_map().unwrap();
        assert_eq!(metrics.len(), catalogue::END_TO_END.len());
        let wall = serde::map_get(metrics, "wall_s").as_map().unwrap();
        assert_eq!(serde::map_get(wall, "value"), &Value::F64(2.0));
        assert_eq!(serde::map_get(wall, "unit"), &Value::Str("s".to_string()));
    }

    #[test]
    fn a_missing_or_non_finite_metric_fails_the_run() {
        let mut report = Report::new("txflood-fig3", 7, 1.0, false);
        report.value("wall_s", 1.0);
        report.close();
        assert!(!report.correct());
        assert!(report
            .tally
            .failures
            .iter()
            .any(|f| f.contains("setup_s: not measured")));

        let mut report = full_timed_report();
        report.metrics[0].median = f64::INFINITY;
        report.close();
        assert!(!report.correct());

        let mut report = full_timed_report();
        report.samples("wall_s", &[]);
        assert!(!report.correct(), "an empty sample is a failure");
    }

    #[test]
    fn tally_counts_checks_and_operations() {
        let mut tally = Tally::default();
        tally.ops("runs", 300, 2);
        tally.check(true, || unreachable!());
        tally.check(false, || "digest mismatch".to_string());
        assert_eq!((tally.attempted, tally.failed), (302, 3));
        assert_eq!(tally.failures.len(), 2);
    }

    #[test]
    fn record_round_trips_as_json_and_names_every_metric() {
        let mut report = full_timed_report();
        report.inputs.push("{\"name\":\"x\"}".to_string());
        report.close();
        let json = report.record_json(&host());
        let v: Value = serde_json::from_str(&json).unwrap();
        let top = v.as_map().unwrap();
        assert_eq!(
            serde::map_get(top, "record_version"),
            &Value::U64(RECORD_VERSION)
        );
        assert_eq!(serde::map_get(top, "metrics").as_seq().unwrap().len(), 5);
        let first = serde::map_get(top, "metrics").as_seq().unwrap()[0]
            .as_map()
            .unwrap();
        for key in ["name", "unit", "n", "median", "q1", "q3"] {
            assert_ne!(serde::map_get(first, key), &Value::Null, "{key}");
        }
        let table = report.render(&host());
        assert!(table.contains("wall_s") && table.contains("ops_attempted"));
    }

    #[test]
    fn tail_metric_names_its_percentile() {
        let mut report = Report::new("serve-shards", 1, 1.0, true);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        report.tail("serve.http_rtt_ms.tail", &v);
        assert_eq!(report.get("serve.http_rtt_ms.tail"), Some(190.0));
        assert_eq!(report.metrics[0].note, "p95");
        assert_eq!(report.metrics[0].n, 200);
    }
}
