//! The benchmark's output: a human-readable block naming every metric
//! with its unit, sample count and percentile, then one JSON line.

use crate::stats;
use std::fmt::Write as _;

/// End-to-end metrics every workload reports with `--trace 0`, with
/// their units. Workload-specific end-to-end figures (submit and scrape
/// latency, transcripts per second, the failed-operation ratio) go in
/// the text block only.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every workload reports with `--trace 1`; a layer a
/// workload does not run reports 0.
pub const PER_LAYER: [(&str, &str); 62] = [
    ("dax.parse_s", "s"),
    ("dax.bytes", "B"),
    ("dax.parse_mb_per_s", "MB/s"),
    ("lint.dax_s", "s"),
    ("lint.diagnostics", "count"),
    ("planner.plan_s", "s"),
    ("planner.jobs", "count"),
    ("planner.jobs_per_s", "jobs/s"),
    ("verify.plan_s", "s"),
    ("verify.stream_s", "s"),
    ("verify.diagnostics", "count"),
    ("engine.run_s", "s"),
    ("engine.self_s", "s"),
    ("engine.events", "count"),
    ("engine.events_per_job", "ratio"),
    ("engine.attempts", "count"),
    ("engine.failed_attempts", "count"),
    ("engine.useful_attempt_ratio", "ratio"),
    ("gridsim.busy_s", "s"),
    ("gridsim.calls", "count"),
    ("ensemble.join_s", "s"),
    ("ensemble.admission_s", "s"),
    ("ensemble.members", "count"),
    ("ensemble.jobs", "count"),
    ("events.write_s", "s"),
    ("events.parse_s", "s"),
    ("events.bytes", "B"),
    ("events.parse_mb_per_s", "MB/s"),
    ("statistics.fold_s", "s"),
    ("breakdown.fold_s", "s"),
    ("metrics.fold_s", "s"),
    ("trace.fold_s", "s"),
    ("render_s", "s"),
    ("serve.submit_dax_ms", "ms"),
    ("serve.submit_gen_ms", "ms"),
    ("serve.run_s", "s"),
    ("serve.status_ms", "ms"),
    ("serve.rollup_ms", "ms"),
    ("serve.metrics_ms", "ms"),
    ("serve.scrape_ms", "ms"),
    ("serve.journal_bytes", "B"),
    ("serve.member_log_bytes", "B"),
    ("blastx.search_s", "s"),
    ("blastx.queries", "count"),
    ("blastx.hsps", "count"),
    ("blastx.queries_per_s", "1/s"),
    ("cap3.assemble_s", "s"),
    ("cap3.chunks", "count"),
    ("cap3.contigs", "count"),
    ("blast2cap3.split_s", "s"),
    ("blast2cap3.merge_s", "s"),
    ("blast2cap3.extract_s", "s"),
    ("condor.run_s", "s"),
    ("condor.idle_s", "s"),
    ("tracing.pass_s", "s"),
    ("tracing.untraced_pass_s", "s"),
    ("tracing.overhead_s", "s"),
    ("tracing.overhead_ratio", "ratio"),
    ("tracing.traced_passes", "count"),
    ("ops.attempted", "count"),
    ("ops.failed", "count"),
    ("ops.failed_ratio", "ratio"),
];

/// Accumulates one invocation's metrics and operation counts.
pub struct Report {
    workload: String,
    seed: u64,
    trace: bool,
    lines: Vec<String>,
    metrics: Vec<(String, f64, String)>,
    /// Operations attempted (requests, passes, kernel attempts).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
}

impl Report {
    /// An empty report for one workload run.
    pub fn new(workload: &str, seed: u64, trace: bool) -> Self {
        Report {
            workload: workload.to_string(),
            seed,
            trace,
            lines: Vec::new(),
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Records a timing from its samples: the median is the value, and
    /// the text line carries the sample count and tail percentile.
    pub fn timing(&mut self, name: &str, unit: &str, samples: &[f64]) {
        let value = stats::median(samples);
        let mut line = format!(
            "{name} = {value:.6} {unit} (p50 of n={} samples",
            samples.len()
        );
        if let Some((p, v)) = stats::tail(samples) {
            let _ = write!(line, "; p{p} = {v:.6}");
        }
        line.push(')');
        self.lines.push(line);
        self.metrics.push((name.into(), value, unit.into()));
    }

    /// Records a value derived from a median timing, naming its base.
    pub fn derived(&mut self, name: &str, unit: &str, value: f64, basis: &str) {
        self.lines
            .push(format!("{name} = {value:.6} {unit} ({basis})"));
        self.metrics.push((name.into(), value, unit.into()));
    }

    /// Adds a free-form line to the text block.
    pub fn note(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Looks a recorded metric up.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// Prints the text block and the final JSON line. The JSON carries
    /// the end-to-end set without tracing and the per-layer set with
    /// it; a metric the run did not record reports 0.
    pub fn print(&self, correct: bool) {
        println!(
            "layerbench workload={} seed={} trace={} confirm_seed={}",
            self.workload,
            self.seed,
            u8::from(self.trace),
            crate::CONFIRM_SEED
        );
        for l in &self.lines {
            println!("  {l}");
        }
        let ratio = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "  ops_failed_ratio = {ratio:.6} ratio ({} failed of {} attempted)",
            self.failed, self.attempted
        );
        println!("{}", self.json(correct));
    }

    fn json(&self, correct: bool) -> String {
        let set: &[(&str, &str)] = if self.trace { &PER_LAYER } else { &END_TO_END };
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in set.iter().enumerate() {
            let value = match *name {
                "ops.attempted" => self.attempted as f64,
                "ops.failed" => self.failed as f64,
                "ops.failed_ratio" => self.failed as f64 / self.attempted.max(1) as f64,
                _ => self.get(name).unwrap_or(0.0),
            };
            let value = if value.is_finite() { value } else { 0.0 };
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lists_exactly_the_selected_set() {
        let mut r = Report::new("w", 1, false);
        r.timing("jobs_per_s", "jobs/s", &[1.0, 2.0, 3.0]);
        r.attempted = 3;
        let j = r.json(true);
        assert!(j.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        for (name, _) in END_TO_END {
            assert!(
                j.contains(&format!("\"{name}\"")),
                "{name} missing from {j}"
            );
        }
        assert!(j.contains("\"jobs_per_s\": {\"value\": 2, \"unit\": \"jobs/s\"}"));
        assert!(!j.contains("dax.parse_s"));
    }

    #[test]
    fn benchmark_json_declares_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let names = |section: &str| -> Vec<String> {
            let start = text.find(&format!("\"{section}\"")).expect(section);
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section ends")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("quoted")].to_string())
                .collect()
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names("end_to_end"), e2e);
        assert_eq!(names("per_layer"), layer);
    }
}
