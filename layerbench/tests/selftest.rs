//! Self-tests of the benchmark: seeded inputs repeat exactly, a refused
//! submit counts as a failed operation, and every output check trips
//! on a corrupted output.

use layerbench::layers::Tracer;
use layerbench::report::Report;
use layerbench::serve_rounds::{self, timed_request, Client, Daemon, OfflineFold};
use layerbench::{assembly, batch};
use pegasus_wms::events::{self, WorkflowEvent};
use pegasus_wms::metrics::{self, MetricsRegistry};
use pegasus_wms::serve::{Request, SubmitRequest, SubmitSource};
use pegasus_wms::verify;
use std::path::{Path, PathBuf};

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    layerbench::fresh_dir(&dir).expect("scratch dir");
    dir
}

fn daemon(name: &str, tenant_active: Option<usize>) -> (Daemon, Client, PathBuf) {
    let state = scratch(name).join("state");
    let exe = Path::new(env!("CARGO_BIN_EXE_layerbench"));
    let d = Daemon::start(exe, &state, 7, tenant_active).expect("daemon starts");
    let c = Client::open(&d.addr).expect("connects");
    (d, c, state)
}

fn generated(tenant: &str, n: usize) -> Request {
    Request::Submit(SubmitRequest {
        tenant: tenant.into(),
        site: "sandhills".into(),
        seed: None,
        retries: None,
        priority: 0,
        trace: None,
        source: SubmitSource::Generated { n },
    })
}

fn fasta_bytes(records: &[bioseq::fasta::Record]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in records {
        out.extend_from_slice(format!(">{}\n{}\n", r.id, r.seq).as_bytes());
    }
    out
}

#[test]
fn inputs_repeat_byte_for_byte_per_seed() {
    assert_eq!(batch::generate_dax(50), batch::generate_dax(50));
    assert_eq!(serve_rounds::generate_dax(7), serve_rounds::generate_dax(7));
    assert_ne!(serve_rounds::generate_dax(7), serve_rounds::generate_dax(8));
    let tx = |seed| fasta_bytes(&bioseq::simulate::generate(&assembly::config(seed)).transcripts);
    assert_eq!(tx(7), tx(7));
    assert_ne!(tx(7), tx(8));
}

#[test]
fn a_refused_submit_counts_as_failed() {
    let (d, mut c, _) = daemon("quota", Some(1));
    let mut report = Report::new("test", 7, false);
    let mut lat = Vec::new();
    assert!(timed_request(&mut c, &generated("t", 10), &mut report, &mut lat).is_ok());
    let refused = timed_request(&mut c, &generated("t", 10), &mut report, &mut lat);
    assert!(
        refused.unwrap_err().contains("quota"),
        "second submit exceeds the quota"
    );
    assert_eq!((report.attempted, report.failed), (2, 1));
    assert_eq!(lat.len(), 2);
    d.shutdown(&mut c).expect("daemon stops");
}

/// Removes the event on line `line` (1-based) of an event log.
fn drop_line(log: &str, line: usize) -> String {
    log.lines()
        .enumerate()
        .filter(|(i, _)| i + 1 != line)
        .map(|(_, l)| format!("{l}\n"))
        .collect()
}

#[test]
fn batch_checks_trip_on_a_dropped_event() {
    let text = batch::generate_dax(20);
    let out = batch::pass(&text, 7, &mut Tracer::new(false)).expect("clean pass");
    let events: Vec<WorkflowEvent> = events::log::parse(&out.log).expect("log parses");
    let mut live = MetricsRegistry::new();
    metrics::record_events(&mut live, &events).expect("fold");

    // Line 1 is the header; drop the tenth event.
    let cut = drop_line(&out.log, 11);
    let pairs = events::log::parse_lines(&cut).expect("a shorter log still parses");
    assert!(batch::round_trip(&pairs, &events).is_err());
    let diags = verify::check_stream(&pairs, "cut", &verify::VerifyOptions::default());
    assert!(layerbench::no_errors("check_stream", &diags).is_err());
    let cut_events: Vec<WorkflowEvent> = pairs.into_iter().map(|(_, e)| e).collect();
    let mut offline = MetricsRegistry::new();
    if metrics::record_events(&mut offline, &cut_events).is_ok() {
        assert!(batch::same_exposition(&live.render(), &offline.render()).is_err());
    }
}

#[test]
fn serve_scrape_check_trips_on_a_dropped_event() {
    let (d, mut c, state) = daemon("scrape", None);
    for tenant in ["a", "b"] {
        c.request(&generated(tenant, 10)).expect("submit");
    }
    c.request(&Request::Run).expect("run");
    let body = serve_rounds::scrape(&d.metrics_addr).expect("scrape");
    d.shutdown(&mut c).expect("daemon stops");

    let mut fold = OfflineFold::default();
    assert!(fold.advance(&state, 2).expect("clean logs fold") > 0);
    assert_eq!(fold.render(), body, "the clean fold matches the scrape");

    let log = state.join("members").join("m1.events");
    let text = std::fs::read_to_string(&log).expect("member log");
    std::fs::write(&log, drop_line(&text, 12)).expect("rewrite");
    let mut fold = OfflineFold::default();
    match fold.advance(&state, 2) {
        Ok(_) => assert_ne!(fold.render(), body, "a dropped event must change the fold"),
        Err(e) => assert!(e.contains("member 1"), "{e}"),
    }
}

#[test]
fn assembly_check_trips_on_a_missing_contig() {
    let cfg = bioseq::simulate::TranscriptomeConfig {
        n_families: 40,
        ..assembly::config(7)
    };
    let inputs = assembly::setup(&cfg, &scratch("assembly")).expect("setup");
    let out = assembly::pass(&inputs, &mut Tracer::new(false)).expect("clean pass");
    assembly::check_against_serial(&inputs.transcripts, &out.alignments, &out.final_file)
        .expect("the pipeline matches the serial baseline");

    let text = String::from_utf8(out.final_file.clone()).expect("FASTA is text");
    let contig = text.find("_Contig").expect("some cluster assembles");
    let start = text[..contig].rfind('>').expect("record header");
    let end = text[contig..].find('>').map_or(text.len(), |e| contig + e);
    let cut = format!("{}{}", &text[..start], &text[end..]);
    assert!(
        assembly::check_against_serial(&inputs.transcripts, &out.alignments, cut.as_bytes())
            .is_err()
    );
}
