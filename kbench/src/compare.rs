//! `kbench compare`: sets of parent runs against sets of change runs, one
//! row per workload and end-to-end metric, judged by the metric's bound in
//! `BENCHMARK.json`.

use crate::json::{self, Json};
use crate::stats::quartiles;
use std::path::Path;

/// An end-to-end metric's regression rule from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Reads the `end_to_end` bounds of a `BENCHMARK.json` document.
pub fn load_bounds(text: &str) -> Result<Vec<Bound>, String> {
    let doc = json::parse(text)?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry without {k}"));
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .into(),
                unit: field("unit")?
                    .as_str()
                    .ok_or("unit is not a string")?
                    .into(),
                lower_is_better: field("better")?.as_str() == Some("lower"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// One workload's metrics from one run file.
#[derive(Debug, Clone)]
pub struct RunFile {
    pub workload: String,
    pub metrics: Vec<(String, f64)>,
}

impl RunFile {
    pub fn parse(text: &str) -> Result<RunFile, String> {
        let doc = json::parse(text)?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("no workload")?
            .to_string();
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or("no metrics")?
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect();
        Ok(RunFile { workload, metrics })
    }
}

/// Reads run files: a path to one result file, or a directory whose
/// result files (`<workload>.json`) are all read.
pub fn read_runs(path: &Path) -> Result<Vec<RunFile>, String> {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{}: {e}", p.display()))
            .and_then(|t| RunFile::parse(&t).map_err(|e| format!("{}: {e}", p.display())))
    };
    if !path.is_dir() {
        return read(path).map(|r| vec![r]);
    }
    let mut files: Vec<_> = std::fs::read_dir(path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.ends_with(".json") && name.matches('.').count() == 1
        })
        .collect();
    files.sort();
    files.iter().map(|p| read(p)).collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Worse,
    /// The runs spread wider than the bound and the change does not beat
    /// every parent run.
    Unresolved,
    /// A side has no value for the metric.
    Missing,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }
}

fn rel(x: f64, base: f64) -> f64 {
    if base != 0.0 {
        x / base.abs()
    } else {
        0.0
    }
}

/// Judges change runs against parent runs of one metric.
pub fn verdict(parent: &[f64], change: &[f64], b: &Bound) -> Verdict {
    if parent.is_empty() || change.is_empty() {
        return Verdict::Missing;
    }
    // Positive when `to` is better than `from`.
    let gain = |from: f64, to: f64| {
        if b.lower_is_better {
            from - to
        } else {
            to - from
        }
    };
    let [p1, pm, p3] = quartiles(parent);
    let [c1, cm, c3] = quartiles(change);
    let spread = rel(p3 - p1, pm).max(rel(c3 - c1, cm));
    let all_better = change
        .iter()
        .all(|&c| parent.iter().all(|&p| gain(p, c) > 0.0));
    let delta = rel(gain(pm, cm), pm);
    if spread > b.bound && !all_better {
        Verdict::Unresolved
    } else if delta < -b.bound {
        Verdict::Worse
    } else if delta > 0.0 && (all_better || delta > b.bound) {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: Bound,
    /// Q1, median, Q3 of each side.
    pub parent: [f64; 3],
    pub change: [f64; 3],
    pub verdict: Verdict,
}

/// Compares every workload present on either side, for every bounded
/// metric, in `BENCHMARK.json` order.
pub fn compare(bounds: &[Bound], parent: &[RunFile], change: &[RunFile]) -> Vec<Row> {
    let mut workloads: Vec<&str> = Vec::new();
    for r in parent.iter().chain(change) {
        if !workloads.contains(&r.workload.as_str()) {
            workloads.push(&r.workload);
        }
    }
    let values = |runs: &[RunFile], w: &str, m: &str| -> Vec<f64> {
        runs.iter()
            .filter(|r| r.workload == w)
            .filter_map(|r| r.metrics.iter().find(|(k, _)| k == m).map(|(_, v)| *v))
            .collect()
    };
    let mut rows = Vec::new();
    for w in workloads {
        for b in bounds {
            let p = values(parent, w, &b.name);
            let c = values(change, w, &b.name);
            rows.push(Row {
                workload: w.to_string(),
                metric: b.clone(),
                parent: quartiles(&p),
                change: quartiles(&c),
                verdict: verdict(&p, &c, b),
            });
        }
    }
    rows
}

/// Renders rows as an aligned text table.
pub fn render(rows: &[Row]) -> String {
    let q = |x: &[f64; 3]| format!("{:.4} [{:.4}, {:.4}]", x[1], x[0], x[2]);
    let mut lines = vec![[
        "workload".to_string(),
        "metric".into(),
        "unit".into(),
        "parent median [Q1, Q3]".into(),
        "change median [Q1, Q3]".into(),
        "delta".into(),
        "bound".into(),
        "verdict".into(),
    ]];
    for r in rows {
        let delta = rel(r.change[1] - r.parent[1], r.parent[1]);
        lines.push([
            r.workload.clone(),
            r.metric.name.clone(),
            r.metric.unit.clone(),
            q(&r.parent),
            q(&r.change),
            format!("{:+.2}%", delta * 100.0),
            format!("{:.2}%", r.metric.bound * 100.0),
            r.verdict.label().into(),
        ]);
    }
    let mut widths = [0usize; 8];
    for l in &lines {
        for (w, cell) in widths.iter_mut().zip(l) {
            *w = (*w).max(cell.chars().count());
        }
    }
    let mut out = String::new();
    for l in &lines {
        let cells: Vec<String> = l
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        out.push_str(cells.join("  ").trim_end());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(lower: bool, b: f64) -> Bound {
        Bound {
            name: "m".into(),
            unit: "ms".into(),
            lower_is_better: lower,
            bound: b,
        }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let tight = [10.0, 10.1, 9.9, 10.0, 10.05];
        let b = bound(true, 0.05);
        assert_eq!(verdict(&tight, &tight, &b), Verdict::Unchanged);
        let slower: Vec<f64> = tight.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&tight, &slower, &b), Verdict::Worse);
        let faster: Vec<f64> = tight.iter().map(|x| x * 0.8).collect();
        assert_eq!(verdict(&tight, &faster, &b), Verdict::Improved);
        // Higher-is-better flips the direction.
        assert_eq!(
            verdict(&tight, &faster, &bound(false, 0.05)),
            Verdict::Worse
        );
        // Wide parent spread: unresolved unless every change run wins.
        let wide = [5.0, 10.0, 15.0, 20.0, 8.0];
        assert_eq!(verdict(&wide, &tight, &b), Verdict::Unresolved);
        assert_eq!(verdict(&wide, &[1.0, 1.1], &b), Verdict::Improved);
        // Deterministic values: any exact repeat is unchanged, a tiny but
        // consistent gain counts.
        let b = bound(true, 0.001);
        assert_eq!(verdict(&[3.0, 3.0], &[3.0, 3.0], &b), Verdict::Unchanged);
        assert_eq!(
            verdict(&[3.0, 3.0], &[2.9999, 2.9999], &b),
            Verdict::Improved
        );
        assert_eq!(verdict(&[], &[1.0], &b), Verdict::Missing);
    }

    #[test]
    fn compares_run_files_by_workload() {
        let bounds = load_bounds(
            r#"{"end_to_end": [{"name": "host_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        let run = |w: &str, v: f64| RunFile {
            workload: w.into(),
            metrics: vec![("host_ms_p50".into(), v)],
        };
        let parent = [run("a", 10.0), run("a", 10.2), run("b", 5.0)];
        let change = [run("a", 13.0), run("a", 13.1), run("b", 5.0)];
        let rows = compare(&bounds, &parent, &change);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].verdict, Verdict::Worse);
        assert_eq!(rows[1].verdict, Verdict::Unchanged);
        assert!(render(&rows).contains("worse"));
        let parsed = RunFile::parse(
            r#"{"workload": "a", "metrics": {"host_ms_p50": {"value": 2.5, "unit": "ms"}}}"#,
        )
        .unwrap();
        assert_eq!(parsed.metrics, vec![("host_ms_p50".to_string(), 2.5)]);
    }
}
