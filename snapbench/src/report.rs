//! What one run measured, and how it is printed.

use crate::spec::Spec;
use sss_obs::JsonValue;

/// One measured metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Samples behind the value, where it is a statistic of samples.
    pub samples: Option<u64>,
}

/// The result of running one workload.
#[derive(Default, Debug)]
pub struct Outcome {
    /// Client operations attempted in the timed window.
    pub attempted: u64,
    /// Of those, operations that failed, were refused or timed out.
    pub failed: u64,
    /// Correctness checks that failed, with the reason.
    pub violations: Vec<String>,
    /// End-to-end metrics (untraced run).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced run and layer replay).
    pub layers: Vec<Metric>,
    /// Free-form report lines (check times, CPU split, span self-times).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64, samples: Option<u64>) {
        self.e2e.push(Metric {
            name,
            value,
            samples,
        });
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64, samples: Option<u64>) {
        self.layers.push(Metric {
            name,
            value,
            samples,
        });
    }

    /// Records a failed correctness check.
    pub fn violation(&mut self, what: impl Into<String>) {
        self.violations.push(what.into());
    }

    /// Adds a report line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

fn fmt_metric(m: &Metric, unit: &str) -> String {
    match m.samples {
        Some(n) => format!("  {:<28} {:>16.4} {:<9} (n={n})", m.name, m.value, unit),
        None => format!("  {:<28} {:>16.4} {}", m.name, m.value, unit),
    }
}

/// The human-readable report: every metric by name with its unit and
/// sample count, then the notes.
pub fn render(spec: &Spec, workload: &str, out: &Outcome, traced: bool) -> Vec<String> {
    let unit = |name: &str| spec.unit_of(name).unwrap_or("?").to_owned();
    let mut lines = vec![format!("workload {workload}")];
    lines.push("end-to-end:".into());
    lines.extend(out.e2e.iter().map(|m| fmt_metric(m, &unit(m.name))));
    if traced {
        lines.push("per-layer:".into());
        for l in &spec.layers {
            match out.layers.iter().find(|m| m.name == l.name) {
                Some(m) => lines.push(format!(
                    "{}  -> {}",
                    fmt_metric(m, &l.unit),
                    l.moves.join(", ")
                )),
                None => lines.push(format!(
                    "  {:<28} {:>16} (layer not on this workload's path)",
                    l.name, "n/a"
                )),
            }
        }
    }
    lines.extend(out.notes.iter().map(|n| format!("  {n}")));
    lines
}

/// Why the declared metric set could not be produced.
#[derive(Debug)]
pub struct MissingMetric(pub String);

/// The last output line: `correct`, `attempted`, `failed` and the
/// declared metrics (end-to-end untraced, per-layer traced), each with
/// its unit. A run with violations reports no numbers.
pub fn result_json(spec: &Spec, out: &Outcome, traced: bool) -> Result<JsonValue, MissingMetric> {
    use JsonValue as J;
    let correct = out.violations.is_empty();
    let mut metrics = Vec::new();
    if correct {
        let (declared, measured) = if traced {
            (&spec.per_layer, &out.layers)
        } else {
            (&spec.end_to_end, &out.e2e)
        };
        for d in declared {
            let m = measured
                .iter()
                .find(|m| m.name == d.name)
                .ok_or_else(|| MissingMetric(d.name.clone()))?;
            if !m.value.is_finite() {
                return Err(MissingMetric(format!("{} is not finite", d.name)));
            }
            metrics.push((
                d.name.clone(),
                J::Obj(vec![
                    ("value".into(), J::Num(m.value)),
                    ("unit".into(), J::Str(d.unit.clone())),
                ]),
            ));
        }
    }
    Ok(J::Obj(vec![
        ("correct".into(), J::Bool(correct)),
        ("attempted".into(), J::UInt(out.attempted)),
        ("failed".into(), J::UInt(out.failed)),
        ("metrics".into(), J::Obj(metrics)),
    ]))
}
