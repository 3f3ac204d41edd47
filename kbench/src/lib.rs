//! `kbench`, the repository benchmark.
//!
//! Four closed-loop workloads drive the public APIs of `kcore_graph`,
//! `kcore_gpusim`, `kcore_gpu` and `kcore_cpu` on seeded inputs and check
//! every result. See `README.md` for the workloads, the metrics and how to
//! run and compare them.

pub mod compare;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod run;
pub mod spans;
pub mod stats;

pub use inputs::{Scale, Workload};
pub use run::{run, Metric, RunOptions, RunResult};

use json::{number, quote};

impl RunResult {
    /// Errors, wrong cores, rejected updates or oracle mismatches per op.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn metrics_json(&self) -> String {
        let fields: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(&m.name),
                    number(m.value),
                    quote(m.unit)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// The one-line result object a run prints last.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }

    /// The result file written to `<out>/<workload>.json`: the result line
    /// plus what produced it, for `kbench compare`.
    pub fn file_json(&self, o: &RunOptions) -> String {
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"threads\": {}, \"trace\": {}, \"samples\": {}, \
             \"fail_frac\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}\n",
            quote(o.workload.name()),
            o.seed,
            o.threads,
            o.trace,
            self.samples,
            number(self.fail_frac()),
            self.failed == 0,
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }
}
