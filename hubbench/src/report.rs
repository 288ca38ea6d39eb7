//! What a run reports: the metric catalogue, operation accounting, sample
//! statistics, provenance and the final JSON line.

use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("warm_wall_s", "s"),
    ("setup_s", "s"),
    ("train_samples_per_s", "1/s"),
    ("sim_hub_slots_per_s", "1/s"),
    ("mean_daily_reward_usd", "USD"),
    ("peak_rss_mb", "MB"),
];

/// Registry experiments timed one by one on `reproduce`.
pub const REGISTRY_IDS: &[&str] = &[
    "fig01_spatial",
    "fig02_renewables",
    "fig03_charging_freq",
    "fig04_degradation",
    "fig05_rtp_traffic",
    "table2_price",
    "fig11_strata_stations",
    "fig12_strata_periods",
    "fleet",
    "ablations",
    "scenario_sweep",
    "generalization",
    "severity_sweep",
    "throughput",
    "coordination",
    "microsim",
];

/// Per-layer metrics, reported by every workload with tracing on. A layer
/// a workload never calls reports 0.
pub fn per_layer_catalogue() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("drl.update_s", "s"),
        ("drl.update_samples_per_s", "1/s"),
        ("drl.collect_s", "s"),
        ("drl.collect_transitions_per_s", "1/s"),
        ("drl.update_share", "ratio"),
        ("drl.eval_s", "s"),
        ("nn.fwd_bwd_rows_per_s", "1/s"),
        ("nn.infer_rows_per_s", "1/s"),
        ("price.train_s", "s"),
        ("price.train_records_per_s", "1/s"),
        ("price.schedule_s", "s"),
        ("env.soa_hub_slots_per_s", "1/s"),
        ("env.soa_groups", "count"),
        ("env.fleet_build_s", "s"),
        ("microsim.synth_s", "s"),
        ("microsim.ue_slots_per_s", "1/s"),
        ("microsim.associations", "count"),
        ("dispatch.jobs", "count"),
        ("dispatch.steals", "count"),
        ("dag.utilisation", "ratio"),
        ("artifact.builds", "count"),
        ("artifact.build_s", "s"),
        ("artifact.disk_hits", "count"),
        ("cache.write_bytes", "bytes"),
        ("cache.read_bytes", "bytes"),
        ("data.world_gen_s", "s"),
        ("data.region_gen_s", "s"),
        ("data.pricing_history_s", "s"),
        ("obs.overhead_pct", "%"),
        ("obs.span_coverage", "ratio"),
    ]
    .iter()
    .map(|&(name, unit)| (name.to_string(), unit))
    .collect();
    for id in REGISTRY_IDS {
        out.push((format!("registry.{id}_s"), "s"));
        out.push((format!("registry.{id}_warm_s"), "s"));
    }
    out
}

/// Metric values of one run, by name.
pub type Metrics = BTreeMap<String, f64>;

/// Counts operations and failed correctness checks. Every pass of a
/// workload and every check is one attempted operation.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Records one operation that either ran to completion or returned an
    /// error.
    pub fn pass<T>(&mut self, result: ect_types::Result<T>, what: &str) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(error) => {
                self.failed += 1;
                eprintln!("hubbench: {what} failed: {error}");
                None
            }
        }
    }

    /// Records one correctness check.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("hubbench: check failed: {what}");
        }
    }
}

/// The result of one benchmark run.
pub struct Outcome {
    pub ops: Ops,
    pub metrics: Metrics,
}

/// Stops the measured loop before a pass that would not finish within
/// `seconds` (judged by the previous pass), once at least `min_reps`
/// passes ran.
pub struct Budget {
    start: Instant,
    last: Instant,
    seconds: f64,
    min_reps: usize,
}

impl Budget {
    pub fn new(seconds: f64, min_reps: usize) -> Self {
        let now = Instant::now();
        Self {
            start: now,
            last: now,
            seconds,
            min_reps,
        }
    }

    /// Whether to run another pass; call once before each.
    pub fn more(&mut self, reps_done: usize) -> bool {
        let now = Instant::now();
        let last_pass = (now - self.last).as_secs_f64();
        self.last = now;
        reps_done < self.min_reps || (now - self.start).as_secs_f64() + last_pass <= self.seconds
    }
}

/// Median of a sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs `f` `reps` times, returning the last value and the median time.
pub fn timed_median<T>(
    reps: usize,
    mut f: impl FnMut() -> ect_types::Result<T>,
) -> ect_types::Result<(T, f64)> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        last = Some(f()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one repetition"), median(&times)))
}

/// Resets the kernel's peak-resident-set mark of this process to its
/// current RSS, so [`peak_rss_mb`] reads the peak of what follows. A
/// kernel without the interface keeps the process-lifetime peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set since the last [`reset_peak_rss`], MB (`VmHWM`; 0
/// where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Derives an independent 64-bit stream from the benchmark seed
/// (SplitMix64 finaliser), so each input generator gets its own seed.
pub fn seed_stream(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One-line JSON provenance stamp of a result set.
pub fn provenance(workload: &str, seed: u64, seconds: u64, trace: bool, threads: usize) -> String {
    let git = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"git_describe\": {}, \"nproc\": {nproc}, \"threads\": {threads}, \"seed\": {seed}, \
         \"build_profile\": \"{profile}\", \"workload\": \"{workload}\", \"seconds\": {seconds}, \
         \"trace\": {}}}",
        json_string(&git),
        u8::from(trace)
    )
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Prints the metric table and, as the last line, the result JSON. A
/// catalogue metric the workload did not produce is 0 for a per-layer
/// metric and a failed operation for an end-to-end one.
pub fn print_result(mut outcome: Outcome, trace: bool) {
    let catalogue: Vec<(String, &str)> = if trace {
        per_layer_catalogue()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| (name.to_string(), unit))
            .collect()
    };
    let mut fields = Vec::with_capacity(catalogue.len());
    for (name, unit) in &catalogue {
        let value = match outcome.metrics.get(name) {
            Some(&v) => v,
            None if trace => 0.0,
            None => {
                outcome
                    .ops
                    .check(false, &format!("metric {name} was not measured"));
                0.0
            }
        };
        let value = if value.is_finite() {
            value
        } else {
            outcome
                .ops
                .check(false, &format!("metric {name} is not finite"));
            0.0
        };
        println!("{name:<36} {value:>22.6} {unit}");
        fields.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_string(name),
            json_string(unit)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.ops.failed == 0,
        outcome.ops.attempted.max(1),
        outcome.ops.failed,
        fields.join(", ")
    );
}
