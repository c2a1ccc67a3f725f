//! `bench-diff` — compare two `BENCH_*.json` artifacts and gate on regressions.
//!
//! ```text
//! bench-diff BASELINE.json CANDIDATE.json [--threshold FRACTION]
//! ```
//!
//! Prints every changed metric with its relative delta (rows whose identity can be recovered —
//! catalog workloads, sweep cells — are matched by label, not position, so reordered or grown
//! artifacts still line up). Exits with:
//!
//! * `0` — no metric regressed beyond the threshold (default 5%);
//! * `1` — at least one speedup/geomean fell or cycle/overhead count rose beyond the threshold;
//! * `2` — usage or I/O error.
//!
//! CI runs this as a non-blocking trajectory report against the checked-in baseline; locally it
//! is the quickest way to see what a change did to the figures:
//!
//! ```text
//! TIS_BENCH_JSON=/tmp/now cargo bench -p tis-bench --bench fig09_benchmarks
//! cargo run -p tis-bench --bin bench-diff -- bench-baselines/BENCH_fig09.json /tmp/now/BENCH_fig09.json
//! ```

use std::process::ExitCode;

use tis_bench::diff::diff;
use tis_sim::Json;

fn usage() -> ExitCode {
    eprintln!("usage: bench-diff BASELINE.json CANDIDATE.json [--threshold FRACTION]");
    ExitCode::from(2)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut threshold = 0.05f64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--threshold" {
            let Some(v) = it.next().and_then(|v| v.parse::<f64>().ok()) else {
                return usage();
            };
            if !(v >= 0.0 && v.is_finite()) {
                return usage();
            }
            threshold = v;
        } else if arg.starts_with('-') {
            return usage();
        } else {
            paths.push(arg.clone());
        }
    }
    if paths.len() != 2 {
        return usage();
    }

    let (before, after) = match (load(&paths[0]), load(&paths[1])) {
        (Ok(b), Ok(a)) => (b, a),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench-diff: {e}");
            return ExitCode::from(2);
        }
    };

    let d = diff(&before, &after);
    print!("{}", d.render(threshold));
    if d.regressions(threshold).is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
