//! `assembly-2k`: the real blast2cap3 pipeline on 2,000 synthetic gene
//! families. The only workload that runs the bioseq, blastx, cap3,
//! blast2cap3 and condor layers; the WMS layers are negligible here.
//!
//! A pass aligns every transcript with BLASTX on two threads, writes
//! `alignments.out`, plans Fig. 2 at n=300 and runs it on a two-worker
//! `condor::LocalPool` with the real kernels, then reads the final
//! FASTA. Pool event times are wall-clock, so passes are compared by
//! their files and per-job outcomes rather than by event log.

use crate::layers::{timed_registry, KernelClock, TimedBackend, Tracer};
use crate::report::Report;
use crate::{count_run, fresh_dir, measure, peak_rss_mb, repeat_setup, report_layers, RunOptions};
use bioseq::fasta::{self, Record};
use bioseq::seq::DnaSeq;
use bioseq::simulate::{generate, TranscriptomeConfig};
use blast2cap3::files::names;
use blast2cap3::serial::run_serial;
use blast2cap3::workflow::{build_workflow, WorkflowParams};
use blast2cap3_pegasus::registry::build_registry;
use blastx::search::{SearchParams, Searcher};
use blastx::tabular::TabularRecord;
use cap3::Cap3Params;
use condor::pool::{LocalPool, PoolConfig};
use pegasus_wms::catalog::{paper_catalogs, ReplicaCatalog};
use pegasus_wms::engine::{Engine, EngineConfig, JobState, NoopMonitor};
use pegasus_wms::planner::{plan, PlannerConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Gene families generated.
pub const FAMILIES: usize = 2_000;
/// Fig. 2 decomposition width.
pub const N_CHUNKS: usize = 300;
/// Search threads and pool workers: the box's two cores.
pub const THREADS: usize = 2;
/// The six Fig. 2 transformations the pool executes.
pub const KERNELS: [&str; 6] = [
    "list_transcripts",
    "list_alignments",
    "split",
    "run_cap3",
    "merge",
    "extract_unjoined",
];

/// The transcriptome configuration for `seed`.
pub fn config(seed: u64) -> TranscriptomeConfig {
    TranscriptomeConfig {
        n_families: FAMILIES,
        family_size_mean: 4.0,
        family_size_cap: 24,
        ..TranscriptomeConfig::tiny(seed)
    }
}

/// Inputs of every pass.
pub struct Inputs {
    /// The input transcripts.
    pub transcripts: Vec<Record>,
    searcher: Searcher,
    queries: Vec<(String, DnaSeq)>,
    workdir: PathBuf,
}

/// Generates the transcriptome, indexes the protein database and
/// writes `transcripts.fasta` into a fresh `workdir`.
///
/// # Errors
/// Index or I/O failures.
pub fn setup(cfg: &TranscriptomeConfig, workdir: &Path) -> Result<Inputs, String> {
    let data = generate(cfg);
    let searcher = Searcher::new(data.proteins, SearchParams::default())
        .map_err(|e| format!("cannot index proteins: {e:?}"))?;
    let queries = data
        .transcripts
        .iter()
        .map(|r| (r.id.clone(), r.seq.clone()))
        .collect();
    fresh_dir(workdir)?;
    fasta::write_file(workdir.join(names::TRANSCRIPTS), &data.transcripts)
        .map_err(|e| format!("cannot write transcripts: {e}"))?;
    Ok(Inputs {
        transcripts: data.transcripts,
        searcher,
        queries,
        workdir: workdir.to_path_buf(),
    })
}

/// What one pass leaves behind.
pub struct PassOutput {
    /// Jobs the plan held, all completed.
    pub jobs: usize,
    /// The BLASTX alignments.
    pub alignments: Vec<TabularRecord>,
    /// Bytes of `alignments.out`.
    pub alignments_file: Vec<u8>,
    /// Bytes of the final FASTA.
    pub final_file: Vec<u8>,
    /// Per-job (name, state, attempts), in job order.
    pub outcomes: Vec<(String, JobState, u32)>,
}

fn read(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// One pass; spans, counters and kernel timings go to `tr` when it
/// records.
///
/// # Errors
/// A failed step, a failed job or unreadable outputs.
pub fn pass(inputs: &Inputs, tr: &mut Tracer) -> Result<PassOutput, String> {
    let dir = &inputs.workdir;
    let hsps = tr.span("blastx.search_s", |_| {
        inputs.searcher.search_many(&inputs.queries, THREADS)
    });
    tr.count("blastx.queries", inputs.queries.len() as f64);
    tr.count("blastx.hsps", hsps.len() as f64);
    let alignments: Vec<TabularRecord> = hsps.iter().map(TabularRecord::from).collect();
    blastx::tabular::write_file(dir.join(names::ALIGNMENTS), &alignments)
        .map_err(|e| format!("cannot write alignments: {e:?}"))?;

    let exec = tr
        .span("planner.plan_s", |_| {
            let wf = build_workflow(&WorkflowParams {
                n_clusters: N_CHUNKS,
                transcripts_bytes: 0,
                alignments_bytes: 0,
                ..Default::default()
            });
            let (sites, tc) = paper_catalogs();
            let mut cfg = PlannerConfig::for_site("sandhills");
            cfg.stage_data = false;
            cfg.add_create_dir = false;
            plan(&wf, &sites, &tc, &ReplicaCatalog::new(), &cfg)
        })
        .map_err(|e| format!("planning failed: {e}"))?;
    tr.count("planner.jobs", exec.jobs.len() as f64);

    let pool_cfg = PoolConfig {
        workers: THREADS,
        workdir: dir.clone(),
        ..Default::default()
    };
    let engine_cfg = EngineConfig::builder().retries(0).build();
    let kernels = build_registry(Cap3Params::default());
    let run = if tr.on() {
        let clock = Arc::new(KernelClock::default());
        let pool = LocalPool::new(pool_cfg, timed_registry(&kernels, &KERNELS, &clock));
        let mut timed = TimedBackend::new(pool);
        let t = Instant::now();
        let run = tr.span("condor.run_s", |_| {
            Engine::run(&mut timed, &exec, &engine_cfg, &mut NoopMonitor)
        });
        let wall = t.elapsed().as_secs_f64();
        tr.count("engine.run_s", wall);
        tr.count("engine.backend_s", timed.busy().as_secs_f64());
        // Dropping the pool joins its workers.
        drop(timed.into_inner());
        let secs = |k: &str| clock.get(k).0.as_secs_f64();
        tr.count("cap3.assemble_s", secs("run_cap3"));
        tr.count("cap3.chunks", clock.get("run_cap3").1 as f64);
        tr.count("blast2cap3.split_s", secs("split"));
        tr.count("blast2cap3.merge_s", secs("merge"));
        tr.count("blast2cap3.extract_s", secs("extract_unjoined"));
        tr.count(
            "condor.idle_s",
            THREADS as f64 * wall - clock.total().as_secs_f64(),
        );
        run
    } else {
        let mut pool = LocalPool::new(pool_cfg, kernels);
        Engine::run(&mut pool, &exec, &engine_cfg, &mut NoopMonitor)
    };
    count_run(tr, &run);
    if !run.succeeded() {
        return Err(format!(
            "assembly run failed: {}",
            pegasus_wms::analyzer::analyze(&run).render_text()
        ));
    }
    let final_file = read(&dir.join(names::FINAL))?;
    if tr.on() {
        let contigs = fasta::read_file(dir.join(names::JOINED_ALL))
            .map_err(|e| format!("cannot read contigs: {e}"))?;
        tr.count("cap3.contigs", contigs.len() as f64);
    }
    Ok(PassOutput {
        jobs: exec.jobs.len(),
        alignments_file: read(&dir.join(names::ALIGNMENTS))?,
        alignments,
        final_file,
        outcomes: run
            .records
            .iter()
            .map(|r| (r.name.clone(), r.state, r.attempts))
            .collect(),
    })
}

fn same(a: &PassOutput, b: &PassOutput) -> Result<(), String> {
    if a.alignments_file != b.alignments_file {
        return Err("alignments.out differs between passes".into());
    }
    if a.final_file != b.final_file {
        return Err("final FASTA differs between passes".into());
    }
    if a.outcomes != b.outcomes {
        return Err("job outcomes differ between passes".into());
    }
    Ok(())
}

/// Sorted sequences of a FASTA file.
///
/// # Errors
/// Malformed FASTA.
pub fn sequence_set(bytes: &[u8]) -> Result<Vec<String>, String> {
    let records = fasta::Reader::new(bytes)
        .read_all()
        .map_err(|e| format!("final FASTA does not parse: {e}"))?;
    let mut seqs: Vec<String> = records.iter().map(|r| r.seq.to_string()).collect();
    seqs.sort_unstable();
    Ok(seqs)
}

/// Checks the pipeline's final FASTA against the serial baseline on
/// the same alignments: the same sorted sequence set.
///
/// # Errors
/// A differing sequence set.
pub fn check_against_serial(
    transcripts: &[Record],
    alignments: &[TabularRecord],
    final_file: &[u8],
) -> Result<(), String> {
    let serial = run_serial(transcripts, alignments, &Cap3Params::default());
    let mut want: Vec<String> = serial.output.iter().map(|r| r.seq.to_string()).collect();
    want.sort_unstable();
    let got = sequence_set(final_file)?;
    if got != want {
        return Err(format!(
            "final FASTA ({} sequences) differs from the serial baseline ({} sequences)",
            got.len(),
            want.len()
        ));
    }
    Ok(())
}

/// Runs the workload and fills `report`.
///
/// # Errors
/// A failed step or output check.
pub fn run(opts: &RunOptions, report: &mut Report) -> Result<(), String> {
    let workdir = opts.work.join("pool");
    let (setup_times, inputs) = repeat_setup(|| setup(&config(opts.seed), &workdir))?;
    report.note(format!(
        "inputs: {FAMILIES} families, {} transcripts; n={N_CHUNKS}, {THREADS} threads",
        inputs.transcripts.len()
    ));
    let mut tracer = Tracer::new(opts.trace);
    let mut attempts = 0u64;
    let measured = measure(
        opts,
        &mut tracer,
        3,
        |tr| {
            report.attempted += 1;
            let out = pass(&inputs, tr).inspect_err(|_| report.failed += 1)?;
            attempts += out.outcomes.iter().map(|o| u64::from(o.2)).sum::<u64>();
            Ok(out)
        },
        same,
    )?;
    report.attempted += attempts;
    let r = &measured.reference;
    check_against_serial(&inputs.transcripts, &r.alignments, &r.final_file)?;
    if opts.trace {
        report_layers(report, &measured);
        crate::write_spans(opts, &tracer)?;
    } else {
        let per_pass = |units: usize| -> Vec<f64> {
            measured.untraced.iter().map(|t| units as f64 / t).collect()
        };
        report.timing("setup_s", "s", &setup_times);
        report.timing("jobs_per_s", "jobs/s", &per_pass(r.jobs));
        report.derived(
            "peak_rss_mb",
            "MB",
            peak_rss_mb(None)?,
            "VmHWM of this process",
        );
        report.timing(
            "transcripts_per_s",
            "transcripts/s",
            &per_pass(inputs.transcripts.len()),
        );
        report.timing("pass_s", "s", &measured.untraced);
    }
    Ok(())
}
