//! Layered same-machine benchmark for the blast2cap3/Pegasus
//! reproduction.
//!
//! One invocation runs one workload for one seed: it generates the
//! workload's inputs, times passes with tracing off (end-to-end
//! metrics) or alternates untraced and traced passes (per-layer
//! metrics plus the tracing overhead), checks every output, and prints
//! a text report followed by one JSON line. See `WORKLOADS.md` for why
//! each workload exists and which layers it should move.

pub mod assembly;
pub mod batch;
pub mod layers;
pub mod report;
pub mod serve_rounds;
pub mod stats;

use blast2cap3_pegasus::experiment::builtin_registry;
use layers::Tracer;
use pegasus_wms::catalog::{paper_catalogs, ReplicaCatalog, SiteCatalog, TransformationCatalog};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A second seed, kept out of tuning, on which a speed claim must also
/// hold before it is accepted.
pub const CONFIRM_SEED: u64 = 20_141_019;

/// How many times `batch-100k` and `assembly-2k` repeat their set-up;
/// `setup_s` is the median. `serve-rounds` sets up once more after
/// every round instead.
pub const SETUP_REPEATS: usize = 9;

/// Options every workload receives.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Workload seed: the only source of input variation.
    pub seed: u64,
    /// Measurement window in seconds.
    pub seconds: f64,
    /// `--trace 1`: per-layer run instead of the end-to-end run.
    pub trace: bool,
    /// Scratch directory owned by this invocation.
    pub work: PathBuf,
}

/// The built-in site catalog, the paper's transformation catalog and
/// the submit-host replicas, as the `pegasus` verbs and the daemon
/// plan against them.
pub fn catalogs() -> (SiteCatalog, TransformationCatalog, ReplicaCatalog) {
    let registry = builtin_registry();
    let (_, tc) = paper_catalogs();
    let mut rc = ReplicaCatalog::new();
    rc.register("transcripts.fasta", "submit");
    rc.register("alignments.out", "submit");
    registry.register_replicas(&mut rc);
    (registry.site_catalog(), tc, rc)
}

/// Fails on any error-severity diagnostic.
///
/// # Errors
/// The rendered diagnostics.
pub fn no_errors(pass: &str, diags: &[pegasus_wms::lint::Diagnostic]) -> Result<(), String> {
    if pegasus_wms::lint::has_errors(diags) {
        return Err(format!(
            "{pass} reports errors:\n{}",
            pegasus_wms::lint::render_text(diags)
        ));
    }
    Ok(())
}

/// Per-name medians across passes; a key missing from a pass counts
/// as 0 there.
pub fn median_maps(passes: &[BTreeMap<&'static str, f64>]) -> BTreeMap<&'static str, f64> {
    let mut keys: Vec<&'static str> = passes.iter().flat_map(|m| m.keys().copied()).collect();
    keys.sort_unstable();
    keys.dedup();
    keys.into_iter()
        .map(|k| {
            let xs: Vec<f64> = passes
                .iter()
                .map(|m| m.get(k).copied().unwrap_or(0.0))
                .collect();
            (k, stats::median(&xs))
        })
        .collect()
}

/// Completes a pass's layer totals with the ratios measured from them.
pub fn derive_ratios(m: &mut BTreeMap<&'static str, f64>) {
    let get = |m: &BTreeMap<&'static str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let derived = [
        (
            "dax.parse_mb_per_s",
            ratio(get(m, "dax.bytes") / 1e6, get(m, "dax.parse_s")),
        ),
        (
            "planner.jobs_per_s",
            ratio(get(m, "planner.jobs"), get(m, "planner.plan_s")),
        ),
        (
            "events.parse_mb_per_s",
            ratio(get(m, "events.bytes") / 1e6, get(m, "events.parse_s")),
        ),
        (
            "engine.self_s",
            get(m, "engine.run_s") - get(m, "engine.backend_s"),
        ),
        (
            "engine.events_per_job",
            ratio(get(m, "engine.events"), get(m, "engine.jobs")),
        ),
        (
            "engine.useful_attempt_ratio",
            ratio(get(m, "engine.completed"), get(m, "engine.attempts")),
        ),
        (
            "blastx.queries_per_s",
            ratio(get(m, "blastx.queries"), get(m, "blastx.search_s")),
        ),
    ];
    for (k, v) in derived {
        m.insert(k, v);
    }
    if get(m, "ensemble.join_s") > 0.0 {
        let admission = get(m, "ensemble.join_s") - get(m, "gridsim.busy_s");
        m.insert("ensemble.admission_s", admission);
    }
}

/// Counts a finished engine run's work into the tracer: events, jobs,
/// attempts, failed attempts and completed jobs.
pub fn count_run(tr: &mut Tracer, run: &pegasus_wms::engine::WorkflowRun) {
    use pegasus_wms::engine::JobState;
    tr.count("engine.events", run.events.len() as f64);
    tr.count("engine.jobs", run.records.len() as f64);
    let attempts: u32 = run.records.iter().map(|r| r.attempts).sum();
    tr.count("engine.attempts", f64::from(attempts));
    let failed: usize = run.records.iter().map(|r| r.failed_attempts.len()).sum();
    tr.count("engine.failed_attempts", failed as f64);
    let done = run
        .records
        .iter()
        .filter(|r| r.state == JobState::Done)
        .count();
    tr.count("engine.completed", done as f64);
}

/// Repeats a set-up `SETUP_REPEATS` times; returns the durations and
/// the last result, which the run then uses.
///
/// # Errors
/// The first set-up failure.
pub fn repeat_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(Vec<f64>, T), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((times, last.expect("SETUP_REPEATS >= 1")))
}

/// Peak resident set size (`VmHWM`) of process `pid` in MB, or of this
/// process when `pid` is `None`.
///
/// # Errors
/// An unreadable or unparsable `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("no VmHWM in {path}"))?;
    Ok(kb / 1024.0)
}

/// Creates `dir` afresh.
///
/// # Errors
/// I/O failures.
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

/// Pass timings and the output every later pass was compared against.
pub struct Measured<P> {
    /// Wall seconds of each untraced pass.
    pub untraced: Vec<f64>,
    /// Wall seconds of each traced pass (empty without `--trace 1`).
    pub traced: Vec<f64>,
    /// Layer totals of each traced pass, ratios derived.
    pub layers: Vec<BTreeMap<&'static str, f64>>,
    /// The first untraced pass's output.
    pub reference: P,
}

/// Runs passes until `opts.seconds` have elapsed and at least
/// `min_passes` are done. Without tracing every pass is untraced; with
/// it, untraced and traced passes alternate so that both see the same
/// machine state, and their difference is the tracing overhead.
/// `same` compares each later pass's output with the first untraced
/// one and fails the run on any difference.
///
/// # Errors
/// A failed pass or a differing output.
pub fn measure<P>(
    opts: &RunOptions,
    tracer: &mut Tracer,
    min_passes: usize,
    mut pass: impl FnMut(&mut Tracer) -> Result<P, String>,
    mut same: impl FnMut(&P, &P) -> Result<(), String>,
) -> Result<Measured<P>, String> {
    let mut off = Tracer::new(false);
    let mut m: Measured<Option<P>> = Measured {
        untraced: Vec::new(),
        traced: Vec::new(),
        layers: Vec::new(),
        reference: None,
    };
    let window = Instant::now();
    while m.untraced.len() < min_passes || window.elapsed().as_secs_f64() < opts.seconds {
        let t = Instant::now();
        let out = pass(&mut off)?;
        m.untraced.push(t.elapsed().as_secs_f64());
        match &m.reference {
            None => m.reference = Some(out),
            Some(r) => same(r, &out)?,
        }
        if opts.trace {
            let mark = tracer.mark();
            let t = Instant::now();
            let out = tracer.span("pass_s", |tr| pass(tr))?;
            m.traced.push(t.elapsed().as_secs_f64());
            let mut totals = tracer.totals_since(&mark);
            derive_ratios(&mut totals);
            m.layers.push(totals);
            same(m.reference.as_ref().expect("set above"), &out)
                .map_err(|e| format!("traced output differs from untraced: {e}"))?;
        }
    }
    Ok(Measured {
        untraced: m.untraced,
        traced: m.traced,
        layers: m.layers,
        reference: m.reference.expect("at least one pass"),
    })
}

/// Reports a traced run: per-layer medians and the tracing overhead.
pub fn report_layers<P>(report: &mut report::Report, m: &Measured<P>) {
    let mut layers = median_maps(&m.layers);
    let traced = stats::median(&m.traced);
    let untraced = stats::median(&m.untraced);
    layers.insert("tracing.pass_s", traced);
    layers.insert("tracing.untraced_pass_s", untraced);
    layers.insert("tracing.overhead_s", traced - untraced);
    layers.insert("tracing.overhead_ratio", (traced - untraced) / untraced);
    layers.insert("tracing.traced_passes", m.traced.len() as f64);
    report_layer_map(
        report,
        &layers,
        &format!("median of {} traced passes", m.traced.len()),
    );
}

/// Adds every per-layer value in `layers` to the report.
pub fn report_layer_map(
    report: &mut report::Report,
    layers: &BTreeMap<&'static str, f64>,
    basis: &str,
) {
    for (name, unit) in report::PER_LAYER {
        if let Some(v) = layers.get(name) {
            report.derived(name, unit, *v, basis);
        }
    }
}

/// Writes the tracer's spans beside the work directory, as
/// `<work>.spans.jsonl`.
///
/// # Errors
/// I/O failures.
pub fn write_spans(opts: &RunOptions, tracer: &Tracer) -> Result<(), String> {
    let mut path = opts.work.clone().into_os_string();
    path.push(".spans.jsonl");
    std::fs::write(&path, tracer.to_jsonl())
        .map_err(|e| format!("cannot write {}: {e}", Path::new(&path).display()))
}
