//! The repository benchmark: runs one named workload against the vsj
//! serving system from a seed and prints its metrics as one JSON line.
//!
//! Usage (normally through `run.py`, which builds this binary):
//!
//! ```text
//! vsj-perfbench --workload <serve_mapped|ingest_mixed|restart> --seed <n>
//!     --seconds <s> --trace <0|1> --threads <n> --work-dir <dir>
//!     --trace-file <file> [--rustc <version>]
//! ```

mod common;
mod corpus;
mod ingest;
mod metrics;
mod reads;
mod restart;
mod serve;

use std::path::PathBuf;

use common::{json_str, Settings};

fn parse_args() -> Result<Settings, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut threads, mut work_dir, mut trace_file, mut rustc) =
        (None, None, None, "unknown".to_string());
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad("a number"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--threads" => threads = Some(value.parse::<usize>().map_err(|_| bad("an integer"))?),
            "--work-dir" => work_dir = Some(PathBuf::from(&value)),
            "--trace-file" => trace_file = Some(PathBuf::from(&value)),
            "--rustc" => rustc = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let need = |name: &str| format!("missing {name}");
    let threads = threads.ok_or_else(|| need("--threads"))?;
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    let seconds = seconds.ok_or_else(|| need("--seconds"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Settings {
        workload: workload.ok_or_else(|| need("--workload"))?,
        seed: seed.ok_or_else(|| need("--seed"))?,
        seconds,
        trace: trace.ok_or_else(|| need("--trace"))?,
        threads,
        work_dir: work_dir.ok_or_else(|| need("--work-dir"))?,
        trace_file: trace_file.ok_or_else(|| need("--trace-file"))?,
        rustc,
    })
}

fn main() {
    let settings = match parse_args() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("vsj-perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Recovered engines size their pool from VSJ_POOL_THREADS (the pool
    // size is never persisted); pin it before any engine exists.
    std::env::set_var("VSJ_POOL_THREADS", settings.threads.to_string());
    std::fs::create_dir_all(&settings.work_dir).expect("create the work directory");

    let outcome = match settings.workload.as_str() {
        "serve_mapped" => serve::run(&settings),
        "ingest_mixed" => ingest::run(&settings),
        "restart" => restart::run(&settings),
        other => {
            eprintln!("vsj-perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    std::fs::remove_dir_all(&settings.work_dir).expect("remove the work directory");

    if let Some(tracer) = &outcome.tracer {
        tracer
            .write(&settings.trace_file)
            .expect("write the trace file");
    }
    outcome.ledger.report_problems();

    let mut record = vec![
        ("workload", settings.workload.clone()),
        ("seed", settings.seed.to_string()),
        ("seconds", settings.seconds.to_string()),
        ("trace", settings.trace.to_string()),
        ("nproc", settings.threads.to_string()),
        ("rustc", settings.rustc.clone()),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
        ("pool_threads", settings.threads.to_string()),
        ("server_workers", settings.threads.to_string()),
        ("fsync", format!("{:?}", common::FSYNC)),
        ("shards", common::SHARDS.to_string()),
        ("hash_k", common::HASH_K.to_string()),
        ("setup_reps", common::SETUP_REPS.to_string()),
        ("ops", outcome.ledger.summary()),
    ];
    record.extend(outcome.record.iter().map(|(k, v)| (*k, v.clone())));
    let record: Vec<String> = record
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    println!("{{\"run\":{{{}}}}}", record.join(","));

    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "{}:{{\"value\":{value},\"unit\":{}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    let correct = outcome.ledger.mismatches.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.ledger.attempted(),
        outcome.ledger.failed(),
        metrics.join(",")
    );
}
