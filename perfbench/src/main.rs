//! `perfbench <workload> --seed N --seconds S --trace 0|1 --data DIR`
//!
//! Runs one workload in this process and prints an info line and then
//! the result line (one JSON object). Exits 0 only when every answer
//! was correct; a broken mirror or store invariant panics (exit 101).
//! `run.py` builds this binary and is the benchmark's entry point.

use perfbench::workloads::{self, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench <{}> --seed N --seconds S --trace 0|1 --data DIR",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(workload) = args.first() else {
        return usage();
    };
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
    };
    let (Some(seed), Some(seconds), Some(trace), Some(data)) = (
        flag("--seed").and_then(|s| s.parse::<u64>().ok()),
        flag("--seconds").and_then(|s| s.parse::<f64>().ok()),
        flag("--trace").and_then(|s| s.parse::<u8>().ok()),
        flag("--data").map(PathBuf::from),
    ) else {
        return usage();
    };
    if !seconds.is_finite() || seconds <= 0.0 || trace > 1 {
        return usage();
    }
    std::fs::create_dir_all(&data).expect("create data directory");
    let Some(outcome) = workloads::run(workload, seed, seconds, &data, trace == 1) else {
        return usage();
    };
    let info: Vec<String> = outcome
        .info
        .iter()
        .map(|m| format!("\"{}\": {:?}", m.name, m.value))
        .collect();
    println!("{{\"info\": {{{}}}}}", info.join(", "));
    println!("{}", outcome.to_json());
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
