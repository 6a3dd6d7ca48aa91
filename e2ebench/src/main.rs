//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last two lines, the run record and
//! the result object `{"correct", "attempted", "failed", "metrics"}`.

use e2ebench::run::{run, RunConfig};
use e2ebench::workload::{Scale, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("e2ebench: {msg}");
    eprintln!(
        "usage: e2ebench --workload <read-hot|dense-churn|sparse-large-churn> \
         --seed <u64> --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value}")),
            },
            "--seed" => match value.parse() {
                Ok(s) => seed = s,
                Err(_) => return usage("--seed takes an unsigned integer"),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => seconds = s,
                _ => return usage("--seconds takes a positive number"),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage("--trace takes 0 or 1"),
            },
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let cfg = RunConfig {
        workload,
        scale: Scale::Full,
        seed,
        seconds,
        trace,
        out_dir: PathBuf::from(".bench_out"),
    };
    match run(&cfg) {
        Ok(report) => {
            println!("{}", report.record);
            println!("{}", report.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}
