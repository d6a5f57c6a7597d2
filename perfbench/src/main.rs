//! Repository benchmark for the two-phase selection service.
//!
//! ```text
//! tps-perfbench --workload <serve-skewed|serve-unique> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints progress and provenance on stderr and, as the last line of
//! stdout, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`). A failed output check prints `correct: false` and exits
//! with status 1. See README.md for the workloads and metrics.

mod checks;
mod driver;
mod residual;
mod spans;
mod stats;
mod streams;
mod workload;

use std::path::Path;

use workload::{json, Args, Workload};

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 7u64;
    let mut seconds = 30u64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => trace = value.parse::<u8>().map_err(bad)? != 0,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
    })
}

fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out_dir = Path::new("perfbench").join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        std::process::exit(1);
    }
    let outcome = match workload::run(&args, &out_dir) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            std::process::exit(1);
        }
    };
    for f in &outcome.failures {
        eprintln!("perfbench: CHECK FAILED: {f}");
    }
    let correct = outcome.failures.is_empty();
    let mut metrics = serde_json::Map::new();
    for (name, value, unit) in &outcome.metrics {
        let mut m = serde_json::Map::new();
        m.insert("value".into(), json(*value));
        m.insert("unit".into(), json(*unit));
        metrics.insert(name.to_string(), serde_json::Value::Object(m));
    }
    let mut provenance = outcome.provenance;
    let command = std::env::args().collect::<Vec<_>>().join(" ");
    provenance.insert("command".into(), json(command));
    provenance.insert("workload".into(), json(args.workload.name()));
    provenance.insert("seed".into(), json(args.seed));
    provenance.insert("seconds".into(), json(args.seconds));
    provenance.insert("trace".into(), json(args.trace));
    provenance.insert("git_commit".into(), json(git_commit()));
    provenance.insert("latency_limit_ms".into(), json(workload::LIMIT_MS));
    provenance.insert(
        "rate_ladder".into(),
        json(format!(
            "{} req/s x {}^k, k < {}",
            workload::LADDER_BASE,
            workload::LADDER_STEP,
            workload::LADDER_RUNGS
        )),
    );
    provenance.insert("failures".into(), json(outcome.failures.clone()));
    let mut report = serde_json::Map::new();
    for (k, v) in provenance {
        report.insert(k, v);
    }
    report.insert("metrics".into(), serde_json::Value::Object(metrics.clone()));
    let report_path = out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let report = serde_json::Value::Object(report);
    match serde_json::to_string_pretty(&report) {
        Ok(text) => {
            if let Err(e) = std::fs::write(&report_path, text) {
                eprintln!("perfbench: cannot write {}: {e}", report_path.display());
            }
        }
        Err(e) => eprintln!("perfbench: cannot render the report: {e}"),
    }
    eprintln!("perfbench: report in {}", report_path.display());
    let mut line = serde_json::Map::new();
    line.insert("correct".into(), json(correct));
    line.insert("attempted".into(), json(outcome.attempted));
    line.insert("failed".into(), json(outcome.failed));
    line.insert("metrics".into(), serde_json::Value::Object(metrics));
    println!(
        "{}",
        serde_json::to_string(&serde_json::Value::Object(line)).expect("metrics serialize")
    );
    if !correct {
        std::process::exit(1);
    }
}
