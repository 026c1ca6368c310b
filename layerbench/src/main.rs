//! `layerbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints its report; the last line is the JSON
//! result. Exits 1 when an output check fails, 2 on bad arguments.
//! `layerbench daemon ...` is the `serve` daemon the `serve-rounds`
//! workload starts as a child process.

use blast2cap3_pegasus::serve::{serve, ServeOptions};
use layerbench::report::Report;
use layerbench::{assembly, batch, serve_rounds, RunOptions};
use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["batch-100k", "serve-rounds", "assembly-2k"];
const USAGE: &str = "usage: layerbench --workload <batch-100k|serve-rounds|assembly-2k> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// `--flag value` pairs; every flag must be in `known`.
fn flags(args: &[String], known: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .filter(|n| known.contains(n))
            .ok_or_else(|| format!("unknown argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        out.push((name.to_string(), value.clone()));
    }
    Ok(out)
}

fn get<T: std::str::FromStr>(flags: &[(String, String)], name: &str) -> Result<Option<T>, String> {
    flags
        .iter()
        .rev()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.parse().map_err(|_| format!("--{name}: bad value {v:?}")))
        .transpose()
}

fn daemon(args: &[String]) -> Result<(), String> {
    let f = flags(args, &["dir", "seed", "retries", "tenant-active"])?;
    let opts = ServeOptions {
        addr: "127.0.0.1:0".into(),
        metrics_addr: "127.0.0.1:0".into(),
        dir: get::<PathBuf>(&f, "dir")?.ok_or("--dir is required")?,
        seed: get(&f, "seed")?.ok_or("--seed is required")?,
        retries: get(&f, "retries")?.ok_or("--retries is required")?,
        tenant_active: get(&f, "tenant-active")?,
        ..ServeOptions::default()
    };
    serve(&opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("daemon") {
        return match daemon(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("layerbench daemon: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let parsed = flags(&args, &["workload", "seed", "seconds", "trace"]).and_then(|f| {
        let workload: String = get(&f, "workload")?.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload:?}"));
        }
        let seed: u64 = get(&f, "seed")?.ok_or("--seed is required")?;
        let seconds: f64 = get(&f, "seconds")?.ok_or("--seconds is required")?;
        let trace: u8 = get(&f, "trace")?.unwrap_or(0);
        if trace > 1 || seconds.is_nan() || seconds < 0.0 {
            return Err("--trace takes 0 or 1 and --seconds a non-negative number".into());
        }
        Ok((workload, seed, seconds, trace == 1))
    });
    let (workload, seed, seconds, trace) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("layerbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let work = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
    let opts = RunOptions {
        seed,
        seconds,
        trace,
        work: work.clone(),
    };
    let mut report = Report::new(&workload, seed, trace);
    let result = layerbench::fresh_dir(&work).and_then(|()| match workload.as_str() {
        "batch-100k" => batch::run(&opts, &mut report),
        "serve-rounds" => serve_rounds::run(&opts, &mut report),
        _ => assembly::run(&opts, &mut report),
    });
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(()) => {
            report.print(true);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("layerbench: {workload} seed={seed}: check failed: {e}");
            report.print(false);
            ExitCode::FAILURE
        }
    }
}
