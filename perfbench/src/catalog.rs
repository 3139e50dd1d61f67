//! The benchmark's declared contents, read from `BENCHMARK.json` at the
//! repository root (compiled in): the run length, the workload names, and
//! every metric with its unit and, end to end, its regression bound.

use crate::json::Json;

/// `BENCHMARK.json`, the one place the declared metrics live.
const SOURCE: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    /// The share of the parent's median by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug)]
pub struct Catalog {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Catalog {
    pub fn load() -> Result<Catalog, String> {
        parse(SOURCE).map_err(|e| format!("BENCHMARK.json: {e}"))
    }

    pub fn bound(&self, name: &str) -> Option<f64> {
        self.end_to_end.iter().find(|m| m.name == name).and_then(|m| m.bound)
    }
}

fn parse(text: &str) -> Result<Catalog, String> {
    let doc = Json::parse(text)?;
    let list = |key: &str| doc.get(key).map(Json::items).ok_or(format!("no '{key}' list"));
    let field = |item: &Json, key: &str| -> Result<String, String> {
        item.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or(format!("an entry has no '{key}'"))
    };
    let metrics = |key: &str| -> Result<Vec<Metric>, String> {
        list(key)?
            .iter()
            .map(|m| {
                Ok(Metric {
                    name: field(m, "name")?,
                    unit: field(m, "unit")?,
                    bound: m.get("bound").and_then(Json::as_f64),
                })
            })
            .collect()
    };
    Ok(Catalog {
        run_seconds: doc.get("run_seconds").and_then(Json::as_f64).ok_or("no 'run_seconds'")?,
        workloads: list("workloads")?
            .iter()
            .map(|w| field(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_the_workloads_and_well_formed_metrics() {
        let c = Catalog::load().unwrap();
        let planned: Vec<&str> = crate::plan::ALL.iter().map(|p| p.name).collect();
        assert_eq!(c.workloads, planned);
        let mut names: Vec<&str> = c.end_to_end.iter().chain(&c.per_layer).map(|m| m.name.as_str()).collect();
        names.extend(planned);
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()), "{name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'),
                "{name}"
            );
        }
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a metric or workload name is used twice");
        let bounds: Vec<f64> = c.end_to_end.iter().map(|m| m.bound.unwrap()).collect();
        assert!(bounds.iter().all(|&b| b > 0.0 && b <= 0.25));
        let setup = c.bound("setup_s").expect("setup_s is declared");
        assert!(bounds.iter().all(|&b| b <= setup), "setup_s carries the largest bound");
        assert!(c.per_layer.iter().all(|m| m.bound.is_none()));
        assert!(SOURCE.len() <= 64 * 1024);
    }
}
