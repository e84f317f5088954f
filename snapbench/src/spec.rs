//! The benchmark's declaration: `BENCHMARK.json` at the repository root
//! (workloads, metric units and better-directions, bounds) and
//! `layers.json` beside this package (which end-to-end metrics each
//! layer metric should move, and on which workloads). Both are parsed
//! through [`sss_obs::JsonValue`].

use sss_obs::JsonValue;
use std::path::Path;

/// One declared metric.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit, as printed.
    pub unit: String,
    /// `"higher"` or `"lower"`.
    pub better: String,
    /// Allowed worsening as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// One layer metric's expected effect.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerLink {
    /// The layer metric.
    pub name: String,
    /// Unit, as printed.
    pub unit: String,
    /// End-to-end metrics it should move.
    pub moves: Vec<String>,
    /// Workloads it is measured on.
    pub on: Vec<String>,
}

/// The parsed declaration.
#[derive(Clone, Debug, PartialEq)]
pub struct Spec {
    /// `(name, why)` of every workload.
    pub workloads: Vec<(String, String)>,
    /// Metrics the untraced run reports.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics the traced run reports.
    pub per_layer: Vec<MetricSpec>,
    /// The layer → end-to-end map.
    pub layers: Vec<LayerLink>,
    /// `(name, unit)` of end-to-end metrics printed in the report but
    /// not on every workload, so not in the result line.
    pub reported: Vec<(String, String)>,
}

/// Whether `name` is a valid metric or workload name: starts with a
/// letter or digit, at most 64 of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let first_ok = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 of letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn str_field(v: &JsonValue, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

fn arr_field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], String> {
    v.get(key)
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| format!("missing array field `{key}`"))
}

fn metrics(v: &JsonValue, key: &str) -> Result<Vec<MetricSpec>, String> {
    let mut out = Vec::new();
    for m in arr_field(v, key)? {
        let spec = MetricSpec {
            name: str_field(m, "name")?,
            unit: str_field(m, "unit")?,
            better: str_field(m, "better")?,
            bound: m.get("bound").and_then(JsonValue::as_f64),
        };
        if !valid_name(&spec.name) || !valid_unit(&spec.unit) {
            return Err(format!("bad metric name or unit: {spec:?}"));
        }
        if spec.better != "higher" && spec.better != "lower" {
            return Err(format!("`better` of {} must be higher or lower", spec.name));
        }
        out.push(spec);
    }
    Ok(out)
}

impl Spec {
    /// Parses the two documents.
    pub fn parse(benchmark_json: &str, layers_json: &str) -> Result<Spec, String> {
        let b = JsonValue::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let workloads = arr_field(&b, "workloads")?
            .iter()
            .map(|w| Ok((str_field(w, "name")?, str_field(w, "why")?)))
            .collect::<Result<Vec<_>, String>>()?;
        let end_to_end = metrics(&b, "end_to_end")?;
        let per_layer = metrics(&b, "per_layer")?;
        let l = JsonValue::parse(layers_json).map_err(|e| format!("layers.json: {e}"))?;
        let strings = |v: &JsonValue, key: &str| -> Result<Vec<String>, String> {
            arr_field(v, key)?
                .iter()
                .map(|s| {
                    s.as_str()
                        .map(str::to_owned)
                        .ok_or(format!("`{key}` holds a non-string"))
                })
                .collect()
        };
        let layers = arr_field(&l, "layers")?
            .iter()
            .map(|m| {
                Ok(LayerLink {
                    name: str_field(m, "name")?,
                    unit: str_field(m, "unit")?,
                    moves: strings(m, "moves")?,
                    on: strings(m, "on")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let reported = arr_field(&l, "reported")?
            .iter()
            .map(|m| Ok((str_field(m, "name")?, str_field(m, "unit")?)))
            .collect::<Result<Vec<_>, String>>()?;
        let mut names: Vec<&str> = end_to_end
            .iter()
            .chain(&per_layer)
            .map(|m| m.name.as_str())
            .chain(reported.iter().map(|r| r.0.as_str()))
            .chain(workloads.iter().map(|w| w.0.as_str()))
            .collect();
        names.sort_unstable();
        if let Some(w) = names.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("name `{}` is used twice", w[0]));
        }
        Ok(Spec {
            workloads,
            end_to_end,
            per_layer,
            layers,
            reported,
        })
    }

    /// Reads `BENCHMARK.json` from `root` and `layers.json` from `pkg`.
    pub fn load(root: &Path, pkg: &Path) -> Result<Spec, String> {
        let read = |p: &Path| {
            std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
        };
        Spec::parse(
            &read(&root.join("BENCHMARK.json"))?,
            &read(&pkg.join("layers.json"))?,
        )
    }

    #[cfg(test)]
    /// Renders the declaration back to JSON (the inverse of
    /// [`Spec::parse`] on the fields it keeps).
    pub fn to_json(&self) -> (JsonValue, JsonValue) {
        use JsonValue as J;
        let s = |x: &str| J::Str(x.to_owned());
        let metric = |m: &MetricSpec| {
            let mut kv = vec![
                ("name".into(), s(&m.name)),
                ("unit".into(), s(&m.unit)),
                ("better".into(), s(&m.better)),
            ];
            if let Some(b) = m.bound {
                kv.push(("bound".into(), J::Num(b)));
            }
            J::Obj(kv)
        };
        let bench = J::Obj(vec![
            (
                "workloads".into(),
                J::Arr(
                    self.workloads
                        .iter()
                        .map(|(n, w)| J::Obj(vec![("name".into(), s(n)), ("why".into(), s(w))]))
                        .collect(),
                ),
            ),
            (
                "end_to_end".into(),
                J::Arr(self.end_to_end.iter().map(metric).collect()),
            ),
            (
                "per_layer".into(),
                J::Arr(self.per_layer.iter().map(metric).collect()),
            ),
        ]);
        let strs = |v: &[String]| J::Arr(v.iter().map(|x| s(x)).collect());
        let reported = self
            .reported
            .iter()
            .map(|(n, u)| J::Obj(vec![("name".into(), s(n)), ("unit".into(), s(u))]))
            .collect();
        let layers = J::Obj(vec![
            ("reported".into(), J::Arr(reported)),
            (
                "layers".into(),
                J::Arr(
                    self.layers
                        .iter()
                        .map(|l| {
                            J::Obj(vec![
                                ("name".into(), s(&l.name)),
                                ("unit".into(), s(&l.unit)),
                                ("moves".into(), strs(&l.moves)),
                                ("on".into(), strs(&l.on)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        (bench, layers)
    }

    /// The declared unit of `metric`, from either list or the layer map.
    pub fn unit_of(&self, metric: &str) -> Option<&str> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == metric)
            .map(|m| m.unit.as_str())
            .or_else(|| {
                self.layers
                    .iter()
                    .find(|l| l.name == metric)
                    .map(|l| l.unit.as_str())
            })
            .or_else(|| {
                self.reported
                    .iter()
                    .find(|r| r.0 == metric)
                    .map(|r| r.1.as_str())
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkg() -> &'static Path {
        Path::new(env!("CARGO_MANIFEST_DIR"))
    }

    fn committed() -> Spec {
        Spec::load(pkg().parent().expect("package has a parent"), pkg()).expect("spec parses")
    }

    #[test]
    fn metric_name_charset() {
        for ok in [
            "ops_per_s",
            "core.invoke_ns",
            "a",
            "9-lives",
            &"x".repeat(64),
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".dot",
            "has space",
            "é",
            "a/b",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "model_us"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "µs", "per op", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn committed_declaration_round_trips() {
        let spec = committed();
        let (bench, layers) = spec.to_json();
        let again = Spec::parse(&bench.render(), &layers.render()).expect("reparse");
        assert_eq!(again, spec);
        assert_eq!(spec.workloads.len(), 4);
        assert!(spec
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn every_layer_link_names_known_metrics_and_workloads() {
        let spec = committed();
        for l in &spec.layers {
            assert!(valid_name(&l.name) && valid_unit(&l.unit), "{l:?}");
            for w in &l.on {
                assert!(
                    spec.workloads.iter().any(|(n, _)| n == w),
                    "{} on {w}",
                    l.name
                );
            }
            assert!(!l.moves.is_empty(), "{} moves nothing", l.name);
        }
        for m in &spec.per_layer {
            let link = spec.layers.iter().find(|l| l.name == m.name);
            assert_eq!(
                link.map(|l| l.unit.as_str()),
                Some(m.unit.as_str()),
                "{}",
                m.name
            );
            // The result line carries every declared metric, so each
            // must be on every workload's path.
            let on = link.map_or(0, |l| l.on.len());
            assert_eq!(
                on,
                spec.workloads.len(),
                "{} is not on every workload",
                m.name
            );
        }
    }

    #[test]
    fn duplicate_names_are_refused() {
        let b = r#"{"workloads": [{"name": "a", "why": "x"}],
            "end_to_end": [{"name": "a", "unit": "s", "better": "lower", "bound": 0.1}],
            "per_layer": []}"#;
        assert!(Spec::parse(b, r#"{"layers": []}"#).is_err());
    }
}
