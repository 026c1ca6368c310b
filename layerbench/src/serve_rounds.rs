//! `serve-rounds`: the real `serve` daemon driven over its socket in
//! closed-loop rounds, one protocol connection plus one scrape
//! connection, each request sent after the previous reply.
//!
//! A round is 64 submissions from two tenants alternating Sandhills
//! and OSG with `retries=20`: 32 submit an n=300 DAX file, which pays
//! admission preflight, and 32 a generated n=100 workflow. A `/metrics`
//! scrape follows every 16 submissions; `run`, `status`, `rollup` and
//! `metrics` close the round. The same layers as `batch-100k` run many
//! times on small inputs, members go through `Ensemble::join`, and
//! reads that refold all history interleave with writes.

use crate::layers::{TimedBackend, Tracer};
use crate::report::Report;
use crate::{catalogs, count_run, fresh_dir, measure, no_errors, peak_rss_mb, RunOptions};
use blast2cap3::workflow::{build_workflow, WorkflowParams};
use blast2cap3_pegasus::experiment::{
    builtin_registry, calibrate_workload, calibrated_chunk_costs, plan_blast2cap3_at,
};
use pegasus_wms::engine::{EngineConfig, RetryPolicy, WorkflowRun};
use pegasus_wms::ensemble::{
    Ensemble, EnsembleConfig, EnsembleRun, MemberState, NoopEnsembleMonitor, Submission,
};
use pegasus_wms::events::{self, WorkflowEvent};
use pegasus_wms::lint::{self, DaxLintOptions};
use pegasus_wms::metrics::{self, MetricsRegistry};
use pegasus_wms::planner::{plan, ExecutableWorkflow, PlannerConfig};
use pegasus_wms::serve::{self as proto, Request, ResponseHead, SubmitRequest, SubmitSource};
use pegasus_wms::statistics;
use pegasus_wms::trace::{self, TraceId};
use pegasus_wms::{breakdown, dax, verify};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Submissions per round.
pub const ROUND_SUBMITS: usize = 64;
/// Submissions between two `/metrics` scrapes.
pub const SCRAPE_EVERY: usize = 16;
/// Width of the submitted DAX.
pub const DAX_N: usize = 300;
/// Width of the generated submissions.
pub const GEN_N: usize = 100;
/// Retry budget of every submission.
pub const RETRIES: u32 = 20;
/// Rounds never drop below this: four rounds give 128 DAX submits, so
/// at least ten samples lie beyond p90.
pub const MIN_ROUNDS: usize = 4;
/// Measured seconds one round is budgeted; `--seconds` divided by this
/// fixes the round count, so every seed does the same work.
pub const ROUND_BUDGET_S: f64 = 3.0;
/// Longest wait for one reply before the request counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(120);
const SITES: [&str; 2] = ["sandhills", "osg"];
const TENANTS: [&str; 2] = ["tenant-a", "tenant-b"];

/// Rounds measured in a window of `seconds`.
pub fn rounds_for(seconds: f64) -> usize {
    ((seconds / ROUND_BUDGET_S).round() as usize).max(MIN_ROUNDS)
}

/// The DAX text every `dax=` submission names: the Fig. 2 workflow at
/// n=300 with chunk costs calibrated from `seed`.
pub fn generate_dax(seed: u64) -> String {
    let costs = calibrated_chunk_costs(&calibrate_workload(seed), DAX_N);
    dax::to_dax(&build_workflow(
        &WorkflowParams::with_n(costs.len()).with_chunk_costs(costs),
    ))
}

/// Submission `i` of a round: sites alternate every submission,
/// tenants every two, DAX and generated sources every four.
pub fn submission(i: usize, dax_path: &str) -> SubmitRequest {
    let source = if (i / 4).is_multiple_of(2) {
        SubmitSource::Dax {
            path: dax_path.to_string(),
        }
    } else {
        SubmitSource::Generated { n: GEN_N }
    };
    SubmitRequest {
        tenant: TENANTS[(i / 2) % 2].into(),
        site: SITES[i % 2].into(),
        seed: None,
        retries: Some(RETRIES),
        priority: 0,
        trace: None,
        source,
    }
}

/// A daemon child process; killed and reaped on drop if still running.
pub struct Daemon {
    child: Child,
    /// Held open so that a later daemon write never meets a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// Protocol address.
    pub addr: String,
    /// HTTP scrape address.
    pub metrics_addr: String,
}

impl Daemon {
    /// Starts `<exe> daemon` (this benchmark's binary) on free ports
    /// over state dir `dir`.
    ///
    /// # Errors
    /// Spawn failure or a daemon that exits before listening.
    pub fn start(
        exe: &Path,
        dir: &Path,
        seed: u64,
        tenant_active: Option<usize>,
    ) -> Result<Daemon, String> {
        let mut cmd = Command::new(exe);
        cmd.arg("daemon").arg("--dir").arg(dir).args([
            "--seed",
            &seed.to_string(),
            "--retries",
            &RETRIES.to_string(),
        ]);
        if let Some(n) = tenant_active {
            cmd.args(["--tenant-active", &n.to_string()]);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start daemon: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addrs = line
            .trim()
            .strip_prefix("listening addr=")
            .and_then(|rest| rest.split_once(" metrics="));
        match (read, addrs) {
            (Ok(_), Some((addr, metrics))) => Ok(Daemon {
                addr: addr.to_string(),
                metrics_addr: metrics.to_string(),
                child,
                _stdout: stdout,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("daemon did not start: {line:?}"))
            }
        }
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the daemon to shut down over `client` and reaps it.
    ///
    /// # Errors
    /// A refused shutdown or a daemon that does not exit in time.
    pub fn shutdown(mut self, client: &mut Client) -> Result<(), String> {
        let (head, _) = client.request(&Request::Shutdown)?;
        if let ResponseHead::Error(e) = head {
            return Err(format!("shutdown refused: {e}"));
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("daemon did not exit after shutdown".into()),
                Err(e) => return Err(format!("cannot wait for daemon: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// A protocol connection with reply timeouts.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects and checks the greeting.
    ///
    /// # Errors
    /// Connection failure or a peer that is not the daemon.
    pub fn open(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| format!("cannot set timeout: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("cannot clone stream: {e}"))?;
        let mut reader = BufReader::new(stream);
        let mut greeting = String::new();
        reader
            .read_line(&mut greeting)
            .map_err(|e| format!("cannot read greeting: {e}"))?;
        if greeting.trim_end() != proto::GREETING {
            return Err(format!("unexpected greeting {greeting:?}"));
        }
        Ok(Client { reader, writer })
    }

    /// Sends one request and reads its whole reply.
    ///
    /// # Errors
    /// Transport failures, timeouts and malformed replies.
    pub fn request(&mut self, req: &Request) -> Result<(ResponseHead, Vec<String>), String> {
        self.writer
            .write_all(format!("{}\n", proto::render_request(req)).as_bytes())
            .map_err(|e| format!("cannot send request: {e}"))?;
        let mut head = String::new();
        self.reader
            .read_line(&mut head)
            .map_err(|e| format!("cannot read reply: {e}"))?;
        if head.is_empty() {
            return Err("connection closed by daemon".into());
        }
        let head = proto::parse_response_head(&head).map_err(|e| format!("bad reply: {e}"))?;
        let mut payload = Vec::new();
        if let ResponseHead::Lines(n) = head {
            for _ in 0..n {
                let mut l = String::new();
                self.reader
                    .read_line(&mut l)
                    .map_err(|e| format!("cannot read payload: {e}"))?;
                payload.push(l.trim_end_matches(['\r', '\n']).to_string());
            }
        }
        Ok((head, payload))
    }
}

/// One HTTP `GET /metrics` on a fresh connection; returns the body.
///
/// # Errors
/// Transport failures, timeouts and non-200 replies.
pub fn scrape(addr: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| format!("cannot set timeout: {e}"))?;
    stream
        .write_all(
            format!("GET /metrics HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        )
        .map_err(|e| format!("cannot send scrape: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("cannot read scrape: {e}"))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or("malformed HTTP response")?;
    if !head.lines().next().unwrap_or("").contains(" 200 ") {
        return Err(format!("scrape failed: {head}"));
    }
    Ok(body.to_string())
}

fn member_log(dir: &Path, id: usize) -> PathBuf {
    dir.join("members").join(format!("m{id}.events"))
}

/// Socket-side latencies, per verb, in seconds.
#[derive(Default)]
struct Latencies {
    dax: Vec<f64>,
    gen: Vec<f64>,
    scrape: Vec<f64>,
    run: Vec<f64>,
    status: Vec<f64>,
    rollup: Vec<f64>,
    metrics: Vec<f64>,
    /// Jobs completed and seconds spent in requests, one pair per round.
    rounds: Vec<(usize, f64)>,
}

/// The offline twin of the daemon's scrape: every completed member's
/// log, folded into one registry in id order.
#[derive(Default)]
pub struct OfflineFold {
    registry: MetricsRegistry,
    members: usize,
    jobs: usize,
}

impl OfflineFold {
    /// The exposition of everything folded so far.
    pub fn render(&self) -> String {
        self.registry.render()
    }

    /// Folds the logs of members `self.members..upto` under `state`;
    /// returns the jobs they completed.
    ///
    /// # Errors
    /// An unreadable log or a member that did not succeed.
    pub fn advance(&mut self, state: &Path, upto: usize) -> Result<usize, String> {
        let mut jobs = 0;
        for id in self.members..upto {
            let stream = read_member(state, id)?;
            let run = events::replay(&stream).map_err(|e| format!("member {id}: {e}"))?;
            if !run.succeeded() {
                return Err(format!("member {id} did not complete"));
            }
            jobs += run.records.len();
            metrics::record_events(&mut self.registry, &stream)
                .map_err(|e| format!("member {id}: {e}"))?;
        }
        self.members = upto;
        self.jobs += jobs;
        Ok(jobs)
    }
}

fn read_member(state: &Path, id: usize) -> Result<Vec<WorkflowEvent>, String> {
    let path = member_log(state, id);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    events::log::parse(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

/// Sends one request, timing it; error replies and transport failures
/// count as failed operations.
///
/// # Errors
/// The refusal or transport failure.
pub fn timed_request(
    client: &mut Client,
    req: &Request,
    report: &mut Report,
    into: &mut Vec<f64>,
) -> Result<(ResponseHead, Vec<String>), String> {
    report.attempted += 1;
    let t = Instant::now();
    let reply = client.request(req);
    into.push(t.elapsed().as_secs_f64());
    match reply {
        Ok((ResponseHead::Error(e), _)) => {
            report.failed += 1;
            Err(format!("{} refused: {e}", proto::render_request(req)))
        }
        Ok(ok) => Ok(ok),
        Err(e) => {
            report.failed += 1;
            Err(e)
        }
    }
}

struct Setup {
    daemon: Daemon,
    client: Client,
    state: PathBuf,
    dax_path: String,
}

/// Generates the DAX into a fresh `work` and starts a daemon over
/// `work/state`; returns it with its duration.
fn setup(opts: &RunOptions, work: &Path) -> Result<(f64, Setup), String> {
    let t = Instant::now();
    fresh_dir(work)?;
    let dax_path = work.join("member.dax");
    std::fs::write(&dax_path, generate_dax(opts.seed))
        .map_err(|e| format!("cannot write {}: {e}", dax_path.display()))?;
    let state = work.join("state");
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate self: {e}"))?;
    let daemon = Daemon::start(&exe, &state, opts.seed, None)?;
    let mut client = Client::open(&daemon.addr)?;
    let (head, _) = client.request(&Request::Ping)?;
    if let ResponseHead::Error(e) = head {
        return Err(format!("ping refused: {e}"));
    }
    scrape(&daemon.metrics_addr)?;
    let setup = Setup {
        daemon,
        client,
        state,
        dax_path: dax_path.to_string_lossy().into_owned(),
    };
    Ok((t.elapsed().as_secs_f64(), setup))
}

/// Runs the workload and fills `report`.
///
/// # Errors
/// A refused or failed request, or a failed output check.
pub fn run(opts: &RunOptions, report: &mut Report) -> Result<(), String> {
    let (first, s) = setup(opts, &opts.work)?;
    let mut setup_times = vec![first];
    let Setup {
        daemon,
        mut client,
        state,
        dax_path,
    } = s;
    let rounds = rounds_for(opts.seconds);
    report.note(format!(
        "inputs: {rounds} rounds x {ROUND_SUBMITS} submissions; DAX n={DAX_N} \
         ({} bytes), generated n={GEN_N}",
        std::fs::metadata(&dax_path).map(|m| m.len()).unwrap_or(0)
    ));

    let mut lat = Latencies::default();
    let mut fold = OfflineFold::default();
    let mut expected = fold.render();
    for round in 0..rounds {
        let mut measured = 0.0;
        for i in 0..ROUND_SUBMITS {
            let sub = submission(i, &dax_path);
            let into = match sub.source {
                SubmitSource::Dax { .. } => &mut lat.dax,
                SubmitSource::Generated { .. } => &mut lat.gen,
            };
            timed_request(&mut client, &Request::Submit(sub), report, into)?;
            measured += into.last().expect("just timed");
            if (i + 1) % SCRAPE_EVERY == 0 {
                report.attempted += 1;
                let t = Instant::now();
                let body = scrape(&daemon.metrics_addr).inspect_err(|_| report.failed += 1)?;
                lat.scrape.push(t.elapsed().as_secs_f64());
                measured += t.elapsed().as_secs_f64();
                if body != expected {
                    return Err(format!(
                        "round {round}: scrape differs from the offline fold of {} member logs",
                        fold.members
                    ));
                }
            }
        }
        let (head, _) = timed_request(&mut client, &Request::Run, report, &mut lat.run)?;
        let want = ResponseHead::Ok(vec![
            ("rounds".into(), "2".into()),
            ("members".into(), ROUND_SUBMITS.to_string()),
        ]);
        if head != want {
            return Err(format!("round {round}: run replied {head:?}"));
        }
        let (_, status) = timed_request(&mut client, &Request::Status, report, &mut lat.status)?;
        timed_request(&mut client, &Request::Rollup, report, &mut lat.rollup)?;
        let (_, exposition) =
            timed_request(&mut client, &Request::Metrics, report, &mut lat.metrics)?;
        for v in [&lat.run, &lat.status, &lat.rollup, &lat.metrics] {
            measured += v.last().expect("just timed");
        }

        // Checks, off the clock.
        let members = (round + 1) * ROUND_SUBMITS;
        if status.len() != members {
            return Err(format!(
                "round {round}: status lists {} of {members} members",
                status.len()
            ));
        }
        for line in &status {
            let s = proto::parse_status_line(line).map_err(|e| format!("bad status line: {e}"))?;
            if s.state != MemberState::Succeeded {
                return Err(format!("round {round}: member {} is {:?}", s.id, s.state));
            }
        }
        let jobs = fold.advance(&state, members)?;
        expected = fold.render();
        if exposition.join("\n") + "\n" != expected {
            return Err(format!(
                "round {round}: metrics reply differs from the offline fold"
            ));
        }
        lat.rounds.push((jobs, measured));

        // One more set-up per round, off the clock, in a side directory;
        // its daemon is killed on drop. A set-up lasts milliseconds, so
        // repeats made back to back all see one machine state, while
        // repeats spread over the run see the mix the rounds saw.
        let (secs, _) = setup(opts, &opts.work.join("setup"))?;
        setup_times.push(secs);
    }
    let rss = peak_rss_mb(Some(daemon.pid()))?;
    let journal_bytes = std::fs::metadata(state.join("journal")).map_or(0, |m| m.len());
    let log_bytes: u64 = (0..fold.members)
        .map(|id| std::fs::metadata(member_log(&state, id)).map_or(0, |m| m.len()))
        .sum();
    daemon.shutdown(&mut client)?;

    let ms = |xs: &[f64]| xs.iter().map(|x| x * 1e3).collect::<Vec<f64>>();
    if opts.trace {
        let mut layers = BTreeMap::new();
        for (name, xs, scale) in [
            ("serve.submit_dax_ms", &lat.dax, 1e3),
            ("serve.submit_gen_ms", &lat.gen, 1e3),
            ("serve.run_s", &lat.run, 1.0),
            ("serve.status_ms", &lat.status, 1e3),
            ("serve.rollup_ms", &lat.rollup, 1e3),
            ("serve.metrics_ms", &lat.metrics, 1e3),
            ("serve.scrape_ms", &lat.scrape, 1e3),
        ] {
            layers.insert(name, crate::stats::median(xs) * scale);
        }
        crate::report_layer_map(report, &layers, "median over socket requests");
        let bytes = BTreeMap::from([
            ("serve.journal_bytes", journal_bytes as f64),
            ("serve.member_log_bytes", log_bytes as f64),
        ]);
        crate::report_layer_map(report, &bytes, "on disk after the last round");
        replay_layers(opts, report, &state, &dax_path, fold.members)?;
    } else {
        report.timing("setup_s", "s", &setup_times);
        // Later rounds refold more history, so the rate falls round by
        // round; all rounds together, not a median of a trending series.
        let jobs: usize = lat.rounds.iter().map(|r| r.0).sum();
        let secs: f64 = lat.rounds.iter().map(|r| r.1).sum();
        report.derived(
            "jobs_per_s",
            "jobs/s",
            jobs as f64 / secs,
            &format!("{jobs} jobs over {secs:.3} s in requests, all rounds"),
        );
        report.derived("peak_rss_mb", "MB", rss, "VmHWM of the daemon process");
        report.timing("submit_p50_ms", "ms", &ms(&lat.dax));
        if let Some((p, v)) = crate::stats::tail(&ms(&lat.dax)) {
            report.derived(
                &format!("submit_p{p}_ms"),
                "ms",
                v,
                &format!("p{p} of n={} DAX submits", lat.dax.len()),
            );
        }
        report.timing("scrape_p50_ms", "ms", &ms(&lat.scrape));
        report.timing("submit_gen_ms", "ms", &ms(&lat.gen));
        let rates: Vec<String> = lat
            .rounds
            .iter()
            .map(|&(jobs, secs)| format!("{:.0}", jobs as f64 / secs))
            .collect();
        report.note(format!("jobs/s by round: {}", rates.join(" ")));
        report.note(format!(
            "{} members, {} jobs completed; journal {journal_bytes} B, member logs {log_bytes} B",
            fold.members, fold.jobs
        ));
    }
    Ok(())
}

/// The first round's member mix, replayed in process: the daemon's
/// admission preflight and round planning, then `Ensemble::submit` and
/// `join` per site, member-log writes, parses and stream checks, and
/// the folds behind `rollup`, `trace` and the scrape.
struct Replay<'a> {
    seed: u64,
    dax_path: &'a str,
    dax_text: String,
    /// The daemon's member logs of the first round, by id.
    daemon_logs: Vec<String>,
    /// Every member stream the daemon wrote, in id order.
    all_streams: Vec<Vec<WorkflowEvent>>,
}

/// What one replay leaves behind: member logs and rendered reports.
struct ReplayOutput {
    logs: Vec<String>,
    renders: String,
}

impl Replay<'_> {
    fn preflight(&self, site: &str, tr: &mut Tracer) -> Result<(), String> {
        let registry = builtin_registry();
        let id = registry.resolve(site).map_err(|e| e.to_string())?;
        let (sites, tc, rc) = catalogs();
        let text = &self.dax_text;
        tr.count("dax.bytes", text.len() as f64);
        let wf = tr
            .span("dax.parse_s", |_| dax::from_dax_unvalidated(text))
            .map_err(|e| format!("DAX parse failed: {e}"))?;
        let diags = tr.span("lint.dax_s", |_| {
            let opts = DaxLintOptions {
                source: Some(text),
                ..DaxLintOptions::default()
            };
            lint::check_workflow(&wf, self.dax_path, Some(&tc), &opts)
        });
        tr.count("lint.diagnostics", diags.len() as f64);
        no_errors("lint", &diags)?;
        tr.count("dax.bytes", text.len() as f64);
        let wf = tr
            .span("dax.parse_s", |_| dax::from_dax(text))
            .map_err(|e| format!("DAX parse failed: {e}"))?;
        let exec = tr
            .span("planner.plan_s", |_| {
                plan(
                    &wf,
                    &sites,
                    &tc,
                    &rc,
                    &PlannerConfig::for_site(registry.catalog_name(id)),
                )
            })
            .map_err(|e| format!("planning failed: {e}"))?;
        tr.count("planner.jobs", exec.jobs.len() as f64);
        let width = wf.width().map_err(|e| format!("cannot analyze DAX: {e}"))?;
        let diags = tr.span("verify.plan_s", |_| {
            let mut d = verify::check_plan(
                &wf,
                &exec,
                &rc,
                registry.catalog_name(id),
                self.dax_path,
                &verify::DataflowOptions::default(),
            );
            d.extend(verify::check_ensemble_feasibility(
                &[(exec.name.clone(), width)],
                &EnsembleConfig::default(),
                self.dax_path,
            ));
            d
        });
        tr.count("verify.diagnostics", diags.len() as f64);
        no_errors("verify", &diags)
    }

    fn plan_member(
        &self,
        sub: &SubmitRequest,
        seed: u64,
        tr: &mut Tracer,
    ) -> Result<ExecutableWorkflow, String> {
        let registry = builtin_registry();
        let id = registry.resolve(&sub.site).map_err(|e| e.to_string())?;
        match &sub.source {
            SubmitSource::Generated { n } => Ok(tr.span("planner.plan_s", |_| {
                plan_blast2cap3_at(registry, id, *n, seed)
            })),
            SubmitSource::Dax { .. } => {
                let (sites, tc, rc) = catalogs();
                tr.count("dax.bytes", self.dax_text.len() as f64);
                let wf = tr
                    .span("dax.parse_s", |_| dax::from_dax(&self.dax_text))
                    .map_err(|e| format!("DAX parse failed: {e}"))?;
                tr.span("planner.plan_s", |_| {
                    plan(
                        &wf,
                        &sites,
                        &tc,
                        &rc,
                        &PlannerConfig::for_site(registry.catalog_name(id)),
                    )
                })
                .map_err(|e| format!("planning failed: {e}"))
            }
        }
    }

    fn pass(&self, tr: &mut Tracer) -> Result<ReplayOutput, String> {
        let registry = builtin_registry();
        let subs: Vec<SubmitRequest> = (0..ROUND_SUBMITS)
            .map(|i| submission(i, self.dax_path))
            .collect();
        for sub in &subs {
            if let SubmitSource::Dax { .. } = sub.source {
                self.preflight(&sub.site, tr)?;
            }
        }
        // The daemon runs one round per site, in name order.
        let mut runs: Vec<Option<WorkflowRun>> = vec![None; ROUND_SUBMITS];
        let mut site_names: Vec<&str> = SITES.to_vec();
        site_names.sort_unstable();
        for (round, site) in site_names.iter().enumerate() {
            let seed = proto::round_seed(self.seed, round);
            let ids: Vec<usize> = (0..ROUND_SUBMITS)
                .filter(|&i| subs[i].site == *site)
                .collect();
            let mut ensemble = Ensemble::new(EnsembleConfig::default());
            let mut jobs = 0;
            for &id in &ids {
                let exec = self.plan_member(&subs[id], seed, tr)?;
                tr.count("planner.jobs", exec.jobs.len() as f64);
                jobs += exec.jobs.len();
                let cfg = EngineConfig::builder().retries(RETRIES).seed(seed).build();
                let member = Submission::new(exec, cfg)
                    .with_priority(subs[id].priority)
                    .with_tenant(subs[id].tenant.clone())
                    .with_trace(TraceId::derive(self.seed, id as u64));
                ensemble
                    .submit(member)
                    .map_err(|e| format!("submit refused: {e}"))?;
            }
            tr.count("ensemble.members", ids.len() as f64);
            tr.count("ensemble.jobs", jobs as f64);
            let site_id = registry.resolve(site).map_err(|e| e.to_string())?;
            let mut backend = registry.backend(site_id, seed);
            let result = if tr.on() {
                let mut timed = TimedBackend::new(backend);
                let t = Instant::now();
                let result = tr.span("ensemble.join_s", |_| {
                    ensemble.join(&mut timed, &mut NoopEnsembleMonitor)
                });
                tr.count("engine.run_s", t.elapsed().as_secs_f64());
                tr.count("engine.backend_s", timed.busy().as_secs_f64());
                tr.count("gridsim.busy_s", timed.busy().as_secs_f64());
                tr.count("gridsim.calls", timed.calls() as f64);
                result
            } else {
                ensemble.join(&mut backend, &mut NoopEnsembleMonitor)
            };
            let ens = result.map_err(|e| format!("round failed: {e}"))?;
            for (&id, run) in ids.iter().zip(ens.runs) {
                count_run(tr, &run);
                if !run.succeeded() {
                    return Err(format!("replayed member {id} did not complete"));
                }
                runs[id] = Some(run);
            }
        }
        let runs: Vec<WorkflowRun> = runs
            .into_iter()
            .map(|r| r.expect("every member ran"))
            .collect();

        let mut logs = Vec::with_capacity(runs.len());
        for (id, run) in runs.iter().enumerate() {
            let log = tr.span("events.write_s", |_| {
                trace::render_log_header(TraceId::derive(self.seed, id as u64))
                    + &events::log::append(&run.events)
            });
            tr.count("events.bytes", log.len() as f64);
            let pairs = tr
                .span("events.parse_s", |_| events::log::parse_lines(&log))
                .map_err(|e| format!("member {id} log does not parse: {e}"))?;
            let diags = tr.span("verify.stream_s", |_| {
                verify::check_stream(
                    &pairs,
                    "member",
                    &verify::VerifyOptions {
                        slot_capacity: None,
                        retry: Some(RetryPolicy::flat(RETRIES)),
                    },
                )
            });
            tr.count("verify.diagnostics", diags.len() as f64);
            no_errors(&format!("check_stream of member {id}"), &diags)?;
            logs.push(log);
        }

        let makespan = runs.iter().map(|r| r.wall_time).fold(0.0, f64::max);
        let ens = EnsembleRun { runs, makespan };
        let rollup = tr.span("statistics.fold_s", |_| statistics::compute_ensemble(&ens));
        let rows = tr
            .span("breakdown.fold_s", |_| {
                ens.runs
                    .iter()
                    .map(|r| breakdown::from_events(&r.events))
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(|e| format!("breakdown fold failed: {e}"))?;
        let trees = tr
            .span("trace.fold_s", |_| {
                ens.runs
                    .iter()
                    .enumerate()
                    .map(|(id, r)| {
                        trace::fold(&r.events, Some(TraceId::derive(self.seed, id as u64)))
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(|e| format!("trace fold failed: {e}"))?;
        let mut scrape_fold = MetricsRegistry::new();
        tr.span("metrics.fold_s", |_| {
            self.all_streams
                .iter()
                .try_for_each(|s| metrics::record_events(&mut scrape_fold, s))
        })
        .map_err(|e| format!("metrics fold failed: {e}"))?;
        let renders = tr.span("render_s", |_| {
            let mut out = statistics::render_ensemble_csv(&rollup);
            out.push_str(&breakdown::render_csv(&rows));
            out.push_str(&trace::render_text(&trees));
            out.push_str(&scrape_fold.render());
            out
        });
        Ok(ReplayOutput { logs, renders })
    }
}

fn replay_layers(
    opts: &RunOptions,
    report: &mut Report,
    state: &Path,
    dax_path: &str,
    members: usize,
) -> Result<(), String> {
    let dax_text =
        std::fs::read_to_string(dax_path).map_err(|e| format!("cannot read {dax_path}: {e}"))?;
    let daemon_logs = (0..ROUND_SUBMITS)
        .map(|id| {
            let p = member_log(state, id);
            std::fs::read_to_string(&p).map_err(|e| format!("cannot read {}: {e}", p.display()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let all_streams = (0..members)
        .map(|id| read_member(state, id))
        .collect::<Result<Vec<_>, _>>()?;
    let replay = Replay {
        seed: opts.seed,
        dax_path,
        dax_text,
        daemon_logs,
        all_streams,
    };
    let mut tracer = Tracer::new(true);
    // The socket rounds used the window; three pairs of untraced and
    // traced replays give the layer split and the tracing overhead.
    let replay_opts = RunOptions {
        seconds: 0.0,
        ..opts.clone()
    };
    let measured = measure(
        &replay_opts,
        &mut tracer,
        3,
        |tr| {
            let out = replay.pass(tr)?;
            for (id, (mine, theirs)) in out.logs.iter().zip(&replay.daemon_logs).enumerate() {
                if mine != theirs {
                    return Err(format!(
                        "replayed member {id} log differs from the daemon's"
                    ));
                }
            }
            Ok(out)
        },
        |a, b| {
            if a.logs != b.logs || a.renders != b.renders {
                return Err("replay outputs differ".into());
            }
            Ok(())
        },
    )?;
    crate::report_layers(report, &measured);
    crate::write_spans(opts, &tracer)
}
