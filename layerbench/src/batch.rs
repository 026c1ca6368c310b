//! `batch-100k`: one offline `pegasus run`-shaped pipeline over the
//! paper's Fig. 2 workflow at n = 100,000 on Sandhills.
//!
//! The per-job layers dominate here: DAX parse, preflight, plan, the
//! engine and simulator, the event-log write and parse, and the folds.
//! Sandhills has no retries, so there are about four events per job,
//! and ensemble admission is never entered.

use crate::layers::{TimedBackend, Tracer};
use crate::report::Report;
use crate::{
    catalogs, count_run, measure, no_errors, peak_rss_mb, repeat_setup, report_layers, RunOptions,
};
use blast2cap3::workflow::{build_workflow, WorkflowParams};
use blast2cap3_pegasus::experiment::builtin_registry;
use pegasus_wms::engine::{Engine, EngineConfig, ExecutionBackend, RetryPolicy, WorkflowRun};
use pegasus_wms::events::{self, WorkflowEvent};
use pegasus_wms::lint::{self, DaxLintOptions, RunContext};
use pegasus_wms::metrics::{self, MetricsMonitor, MetricsRegistry};
use pegasus_wms::planner::{plan, PlannerConfig};
use pegasus_wms::{breakdown, dax, statistics, trace, verify};

/// Fig. 2 decomposition width.
pub const N: usize = 100_000;
const SITE: &str = "sandhills";
const RETRIES: u32 = 3;
const FILE: &str = "batch-100k.dax";

/// The generated DAX text. The workflow's shape is fixed by `n`; the
/// seed drives the simulator and the engine.
pub fn generate_dax(n: usize) -> String {
    dax::to_dax(&build_workflow(&WorkflowParams::with_n(n)))
}

/// What one pass leaves behind for comparison with other passes.
pub struct PassOutput {
    /// Executable jobs planned (and, once checked, completed).
    pub jobs: usize,
    /// The written event log.
    pub log: String,
    /// Every rendered report, concatenated.
    pub renders: String,
}

/// One pass from DAX text to rendered reports, with every output
/// check. Spans and counters go to `tr` when it records.
///
/// # Errors
/// The first failed step or check.
pub fn pass(text: &str, seed: u64, tr: &mut Tracer) -> Result<PassOutput, String> {
    let registry = builtin_registry();
    let site = registry.resolve(SITE).map_err(|e| e.to_string())?;
    let site_name = registry.catalog_name(site).to_string();
    let (sites, tc, rc) = catalogs();
    let policy = RetryPolicy::flat(RETRIES);

    tr.count("dax.bytes", text.len() as f64);
    let wf = tr
        .span("dax.parse_s", |_| dax::from_dax(text))
        .map_err(|e| format!("DAX parse failed: {e}"))?;

    let diags = tr.span("lint.dax_s", |_| {
        let opts = DaxLintOptions {
            source: Some(text),
            ..DaxLintOptions::default()
        };
        let mut d = lint::check_workflow(&wf, FILE, Some(&tc), &opts);
        let ctx = RunContext {
            site: Some(&site_name),
            sites: Some(&sites),
            transformations: Some(&tc),
            retry: Some(&policy),
            slot_budget: None,
            faults_active: registry.faults_active(site),
        };
        d.extend(lint::check_config(&wf, FILE, &ctx));
        d
    });
    tr.count("lint.diagnostics", diags.len() as f64);
    no_errors("lint", &diags)?;

    let exec = tr
        .span("planner.plan_s", |_| {
            plan(&wf, &sites, &tc, &rc, &PlannerConfig::for_site(&site_name))
        })
        .map_err(|e| format!("planning failed: {e}"))?;
    tr.count("planner.jobs", exec.jobs.len() as f64);

    let diags = tr.span("verify.plan_s", |_| {
        verify::check_plan(
            &wf,
            &exec,
            &rc,
            &site_name,
            FILE,
            &verify::DataflowOptions::default(),
        )
    });
    tr.count("verify.diagnostics", diags.len() as f64);
    no_errors("check_plan", &diags)?;
    drop(wf);

    let cfg = EngineConfig::builder()
        .policy(policy.clone())
        .seed(seed)
        .build();
    let n_label = metrics::n_label(&exec.name, exec.jobs.len());
    let mut live = MetricsRegistry::new();
    let mut backend = registry.backend(site, seed);
    let slots = backend.slot_capacity();
    let run: WorkflowRun = {
        let mut monitor = MetricsMonitor::new(&mut live, &site_name, &n_label);
        if tr.on() {
            let mut timed = TimedBackend::new(backend);
            let run = tr.span("engine.run_s", |_| {
                Engine::run(&mut timed, &exec, &cfg, &mut monitor)
            });
            tr.count("engine.backend_s", timed.busy().as_secs_f64());
            tr.count("gridsim.busy_s", timed.busy().as_secs_f64());
            tr.count("gridsim.calls", timed.calls() as f64);
            run
        } else {
            Engine::run(&mut backend, &exec, &cfg, &mut monitor)
        }
    };
    count_run(tr, &run);
    let completed = run
        .records
        .iter()
        .filter(|r| r.state == pegasus_wms::engine::JobState::Done)
        .count();
    if !run.succeeded() || completed != exec.jobs.len() {
        return Err(format!(
            "run did not succeed: {completed} of {} planned jobs completed",
            exec.jobs.len()
        ));
    }
    let jobs = exec.jobs.len();
    drop(exec);

    let log = tr.span("events.write_s", |_| events::log::write(&run.events));
    tr.count("events.bytes", log.len() as f64);
    let pairs = tr
        .span("events.parse_s", |_| events::log::parse_lines(&log))
        .map_err(|e| format!("event log does not parse back: {e}"))?;
    round_trip(&pairs, &run.events)?;
    drop(run);

    let diags = tr.span("verify.stream_s", |_| {
        verify::check_stream(
            &pairs,
            FILE,
            &verify::VerifyOptions {
                slot_capacity: slots,
                retry: Some(policy.clone()),
            },
        )
    });
    tr.count("verify.diagnostics", diags.len() as f64);
    no_errors("check_stream", &diags)?;
    let parsed: Vec<WorkflowEvent> = pairs.into_iter().map(|(_, ev)| ev).collect();

    let stats = tr
        .span("statistics.fold_s", |_| {
            events::replay(&parsed).map(|r| statistics::compute(&r))
        })
        .map_err(|e| format!("statistics fold failed: {e}"))?;
    let row = tr
        .span("breakdown.fold_s", |_| breakdown::from_events(&parsed))
        .map_err(|e| format!("breakdown fold failed: {e}"))?;
    let mut offline = MetricsRegistry::new();
    tr.span("metrics.fold_s", |_| {
        metrics::record_events(&mut offline, &parsed)
    })
    .map_err(|e| format!("metrics fold failed: {e}"))?;
    let tree = tr
        .span("trace.fold_s", |_| trace::fold(&parsed, None))
        .map_err(|e| format!("trace fold failed: {e}"))?;
    let (renders, exposition) = tr.span("render_s", |_| {
        let mut out = statistics::render_text(&stats);
        out.push_str(&statistics::render_csv(&stats));
        out.push_str(&breakdown::render_csv(std::slice::from_ref(&row)));
        out.push_str(&trace::render_text(std::slice::from_ref(&tree)));
        let exposition = offline.render();
        out.push_str(&exposition);
        (out, exposition)
    });
    same_exposition(&live.render(), &exposition)?;
    Ok(PassOutput { jobs, log, renders })
}

/// Checks that a written log parsed back into exactly the run's events.
///
/// # Errors
/// A parse failure or any differing event.
pub fn round_trip(
    parsed: &[(usize, WorkflowEvent)],
    events: &[WorkflowEvent],
) -> Result<(), String> {
    if parsed.len() != events.len() || parsed.iter().zip(events).any(|((_, a), b)| a != b) {
        return Err("event log does not round-trip through write and parse_lines".into());
    }
    Ok(())
}

/// Checks the live exposition against the offline fold, byte for byte.
///
/// # Errors
/// Differing expositions.
pub fn same_exposition(live: &str, offline: &str) -> Result<(), String> {
    if live != offline {
        return Err("live metrics exposition differs from the fold of the re-parsed log".into());
    }
    Ok(())
}

fn same(a: &PassOutput, b: &PassOutput) -> Result<(), String> {
    if a.log != b.log {
        return Err("event logs differ between passes".into());
    }
    if a.renders != b.renders {
        return Err("rendered reports differ between passes".into());
    }
    Ok(())
}

/// Runs the workload and fills `report`.
///
/// # Errors
/// A failed step or output check.
pub fn run(opts: &RunOptions, report: &mut Report) -> Result<(), String> {
    let (setup, text) = repeat_setup(|| Ok(generate_dax(N)))?;
    report.note(format!("inputs: Fig. 2 DAX n={N}, {} bytes", text.len()));
    let mut tracer = Tracer::new(opts.trace);
    let measured = measure(
        opts,
        &mut tracer,
        3,
        |tr| {
            report.attempted += 1;
            pass(&text, opts.seed, tr).inspect_err(|_| report.failed += 1)
        },
        same,
    )?;
    if opts.trace {
        report_layers(report, &measured);
        crate::write_spans(opts, &tracer)?;
    } else {
        let jobs = measured.reference.jobs as f64;
        let rates: Vec<f64> = measured.untraced.iter().map(|t| jobs / t).collect();
        report.timing("setup_s", "s", &setup);
        report.timing("jobs_per_s", "jobs/s", &rates);
        report.timing("pass_s", "s", &measured.untraced);
        report.derived(
            "peak_rss_mb",
            "MB",
            peak_rss_mb(None)?,
            "VmHWM of this process",
        );
    }
    Ok(())
}
