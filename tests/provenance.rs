//! Provenance chain integration: one simulated paper-scale run emits
//! a single typed event stream, and every downstream consumer —
//! status monitor, timeline monitor, Condor user log, statistics,
//! analyzer, even the engine's own records — is re-derivable from a
//! replay of that stream. Where the old version of this test
//! cross-checked five independently maintained reconstructions, it
//! now reduces to assertions over one source of truth: the events.

use blast2cap3::workflow::{build_workflow, WorkflowParams};
use blast2cap3_pegasus::experiment::{calibrate_workload, calibrated_chunk_costs};
use condor::joblog::{EventCode, JobLogMonitor};
use gridsim::platforms::osg;
use gridsim::SimBackend;
use pegasus_wms::catalog::{paper_catalogs, ReplicaCatalog};
use pegasus_wms::engine::{Engine, EngineConfig};
use pegasus_wms::events::{self, EventSink, WorkflowEvent};
use pegasus_wms::monitor::{StatusMonitor, TimelineMonitor};
use pegasus_wms::statistics::{compute, render_csv, render_summary_csv};

/// Compares `content` with its committed golden under
/// `tests/fixtures/observers/`, or rewrites the golden under
/// `PEGASUS_BLESS=1`.
fn check_golden(name: &str, content: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/observers")
        .join(name);
    if std::env::var_os("PEGASUS_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create fixtures dir");
        std::fs::write(&path, content).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {name} ({e}); run with PEGASUS_BLESS=1"));
    assert!(
        golden == content,
        "{name} is not byte-identical to its golden"
    );
}

#[test]
fn every_consumer_is_a_fold_of_one_event_stream() {
    // A smallish calibrated workflow on the failure-prone OSG model,
    // so retries appear in the provenance.
    let cal = calibrate_workload(99);
    let costs = calibrated_chunk_costs(&cal, 40);
    let wf = build_workflow(&WorkflowParams::with_n(costs.len()).with_chunk_costs(costs));
    let (sites, tc) = paper_catalogs();
    let mut rc = ReplicaCatalog::new();
    rc.register("transcripts.fasta", "submit");
    rc.register("alignments.out", "submit");
    let exec = pegasus_wms::planner::plan(
        &wf,
        &sites,
        &tc,
        &rc,
        &pegasus_wms::planner::PlannerConfig::for_site("osg"),
    )
    .unwrap();

    let mut backend = SimBackend::new(osg(99), 99);
    let mut status = StatusMonitor::new(exec.jobs.len());
    let mut timeline = TimelineMonitor::new();
    let mut joblog = JobLogMonitor::new();
    let run = {
        let mut sinks: [&mut dyn EventSink; 3] = [&mut status, &mut timeline, &mut joblog];
        Engine::run(
            &mut backend,
            &exec,
            &EngineConfig::builder().retries(20).build(),
            &mut sinks,
        )
    };
    assert!(run.succeeded());

    // --- the stream itself vs the engine's records -----------------
    let submissions: u32 = run.records.iter().map(|r| r.attempts).sum();
    let count = |pred: fn(&WorkflowEvent) -> bool| run.events.iter().filter(|e| pred(e)).count();
    assert_eq!(
        count(|e| matches!(e, WorkflowEvent::Submitted { .. })) as u32,
        submissions
    );
    let failed_attempts: usize = run.records.iter().map(|r| r.failed_attempts.len()).sum();
    assert_eq!(
        count(|e| matches!(
            e,
            WorkflowEvent::Failed { .. } | WorkflowEvent::TimedOut { .. }
        )),
        failed_attempts
    );
    assert_eq!(
        count(|e| matches!(e, WorkflowEvent::Completed { .. })),
        exec.jobs.len()
    );
    assert_eq!(
        count(|e| matches!(e, WorkflowEvent::WorkflowFinished { .. })),
        1
    );

    // --- replay reconstructs the run exactly -----------------------
    let replayed = events::replay(&run.events).expect("replay");
    assert_eq!(replayed, run);

    // --- the text log round-trips the stream exactly ----------------
    let text = events::log::write(&run.events);
    let parsed = events::log::parse(&text).expect("parse event log");
    assert_eq!(parsed, run.events);

    // --- live monitors are folds of the stream ----------------------
    let mut status2 = StatusMonitor::new(exec.jobs.len());
    let mut timeline2 = TimelineMonitor::new();
    for ev in &parsed {
        [&mut status2 as &mut dyn EventSink, &mut timeline2].event(ev);
    }
    assert_eq!(status2.history, status.history);
    assert_eq!(status2.done, status.done);
    assert_eq!(status2.submissions, status.submissions);
    assert_eq!(status2.failed_attempts, status.failed_attempts);
    assert_eq!(status2.retries, status.retries);
    assert_eq!(status2.backoff_wait, status.backoff_wait);
    assert_eq!(timeline2.entries, timeline.entries);
    assert_eq!(timeline2.peak_concurrency(), timeline.peak_concurrency());

    // --- the Condor user log is a fold of the stream ----------------
    let offline_log = JobLogMonitor::from_events(&parsed);
    assert_eq!(offline_log.events, joblog.events);
    assert_eq!(offline_log.to_text(), joblog.to_text());
    // Preemptions are machine-initiated, so they log as Condor "004"
    // evicted events, not aborts.
    let evictions = offline_log
        .events
        .iter()
        .filter(|e| e.code == EventCode::Evicted)
        .count();
    assert_eq!(evictions, failed_attempts, "every preemption is logged");
    assert!(
        offline_log
            .events
            .iter()
            .all(|e| e.code != EventCode::Aborted),
        "no user aborts in this run"
    );

    // --- every observer's rendering is pinned by a golden -----------
    let mut status_text: String = status.history.iter().map(|l| format!("{l}\n")).collect();
    status_text.push_str(&format!(
        "final: {}\nretries={} backoff_wait={}\n",
        status.status_line(),
        status.retries,
        status.backoff_wait
    ));
    check_golden("osg_n40_s99.status.txt", &status_text);
    check_golden("osg_n40_s99.timeline.csv", &timeline.to_csv());
    check_golden("osg_n40_s99.joblog.txt", &joblog.to_text());

    // --- statistics from the replay match the live run --------------
    let live = compute(&run);
    let offline = compute(&replayed);
    assert_eq!(render_csv(&offline), render_csv(&live));
    assert_eq!(render_summary_csv(&offline), render_summary_csv(&live));
    assert_eq!(live.retries as usize, failed_attempts);
    assert!(live.cumulative_badput > 0.0, "preemptions imply badput");

    // --- the analyzer agrees too ------------------------------------
    assert_eq!(
        pegasus_wms::analyzer::analyze(&replayed),
        pegasus_wms::analyzer::analyze(&run)
    );
}
