//! Benchmark harness for the ECT-Hub pipeline.
//!
//! ```text
//! cargo run --release --manifest-path hubbench/Cargo.toml -- \
//!     --workload <hub_train|metro_sim|reproduce> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a closed-loop batch job: one pass at a time from this
//! single process, with at most `nproc` worker threads. Set-up makes the
//! inputs from `--seed` (several times; `setup_s` is the median), then
//! passes repeat while another fits in `--seconds`, and medians are
//! reported.
//!
//! * `--trace 0` reports the end-to-end metrics with `ect-obs` uninstalled.
//! * `--trace 1` alternates untraced passes with passes under an in-memory
//!   `ect_obs::Telemetry`, wraps benchmark-side `bench.*` spans around each
//!   layer call, reads the program's own spans and counters, and reports
//!   the per-layer metrics (a layer the workload never calls reports 0).
//!
//! Every pass and every correctness check counts as one operation. The
//! last line of standard output is the result JSON
//! (`correct`, `attempted`, `failed`, `metrics`); the line `provenance:`
//! before the metric table stamps the result set.
//!
//! # End-to-end metrics on each workload
//!
//! | metric | `hub_train` | `metro_sim` | `reproduce` |
//! |---|---|---|---|
//! | `wall_s` | one pipeline pass | one metro pass | cold catalog pass |
//! | `warm_wall_s` | passes after the first | passes after the first | warm catalog pass |
//! | `train_samples_per_s` | PPO transitions / training stage | sweep transitions / sweep stage | `fleet` PPO transitions / `fleet` wall |
//! | `sim_hub_slots_per_s` | train + eval hub-slots / pass | swept hub-slots / pass, synthesis included | `fleet` hub-slots / `fleet` wall |
//! | `mean_daily_reward_usd` | trained policies, greedy | best threshold pair | `fleet` headline |
//! | `peak_rss_mb`, `setup_s` | per pass / set-up | per pass / set-up | per catalog pass / set-up |
//!
//! # Which layer should move which end-to-end metric
//!
//! * `drl.*`, `nn.*` → `train_samples_per_s` on `hub_train`; `wall_s` and
//!   `warm_wall_s` on `reproduce`; nothing on `metro_sim`.
//! * `price.*` → `wall_s` on `hub_train`, cold `wall_s` on `reproduce`; not
//!   `warm_wall_s` (the warm pass loads the model from disk).
//! * `env.*` → `sim_hub_slots_per_s` on `metro_sim`; nothing on `hub_train`,
//!   which collects on the scalar `step_batch`.
//! * `microsim.*` → `wall_s` on `metro_sim`.
//! * `dispatch.*`, `dag.utilisation` → `wall_s` on `reproduce` and
//!   `metro_sim`; `artifact.*`, `cache.*`, `registry.*` split `reproduce`
//!   cold from warm.
//! * `data.*` → `setup_s`; `obs.overhead_pct` is the traced against the
//!   untraced pass wall.

mod hub_train;
mod metro_sim;
mod report;
mod reproduce;
mod trace;

use std::process::ExitCode;

/// Parsed command line.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub threads: usize,
}

fn parse_args() -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other}")),
                });
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds as f64,
        trace: trace.ok_or("--trace is required")?,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("hubbench: {message}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "hub_train" => hub_train::run,
        "metro_sim" => metro_sim::run,
        "reproduce" => reproduce::run,
        other => {
            eprintln!("hubbench: unknown workload {other} (hub_train, metro_sim, reproduce)");
            return ExitCode::from(2);
        }
    };
    println!(
        "provenance: {}",
        report::provenance(
            &args.workload,
            args.seed,
            args.seconds as u64,
            args.trace,
            args.threads
        )
    );
    match run(&args) {
        Some(outcome) => {
            report::print_result(outcome, args.trace);
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("hubbench: {} did not complete", args.workload);
            ExitCode::FAILURE
        }
    }
}
