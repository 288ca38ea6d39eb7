//! Result persistence and terminal rendering helpers.

use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

/// One row of `results/BENCH_summary.json`: how long an experiment stage
/// took in a `run_all` pass and the single number that summarises it —
/// the per-PR performance trajectory of the harness.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchSummaryEntry {
    /// Experiment stage name (matches the per-experiment JSON file stem).
    pub experiment: String,
    /// Wall-clock time of the stage, seconds.
    pub wall_time_s: f64,
    /// Name of the headline metric.
    pub metric_name: String,
    /// Value of the headline metric.
    pub metric_value: f64,
}

/// Directory where experiment JSON lands (workspace `results/`).
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/ect-bench; the workspace root is two up.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("results");
    p
}

/// Writes an experiment result as pretty JSON under `results/<name>.json`.
///
/// # Panics
///
/// Panics if the directory cannot be created or the file not written —
/// harness binaries should fail loudly.
pub fn save_json<T: Serialize>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    write_json(&path, value).expect("write result file");
}

/// Writes `value` as pretty JSON to `path`, creating its directory.
fn write_json<T: Serialize>(path: &Path, value: &T) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let json = serde_json::to_string_pretty(value).expect("serialise result");
    std::fs::write(path, json)?;
    println!("\n[saved {}]", path.display());
    Ok(())
}

/// Serialises every read-modify-write of a summary file in this process:
/// experiments running concurrently under `run_dag` upsert their rows
/// without losing each other's. It guards no data, so a lock poisoned by a
/// panicking holder is safe to reuse.
static SUMMARY_LOCK: Mutex<()> = Mutex::new(());

/// Merges rows into `results/BENCH_summary.json`, replacing rows with the
/// same `experiment` name and appending new ones — so a filtered pass
/// (`run_all --only throughput`) publishes its rows without clobbering the
/// rest of the trajectory, and an unfiltered pass refreshes every row it
/// produced while keeping experiment-upserted extras (e.g. the per-rung
/// throughput rows).
///
/// Concurrent calls within one process are serialised, so no row is lost.
///
/// # Errors
///
/// Returns [`ect_types::EctError::Io`] — and writes nothing — when the
/// existing file cannot be read or does not parse, or when the merged file
/// cannot be written.
pub fn upsert_bench_summary(rows: &[BenchSummaryEntry]) -> ect_types::Result<()> {
    upsert_summary_at(&results_dir().join("BENCH_summary.json"), rows)
}

/// [`upsert_bench_summary`] on an explicit file.
fn upsert_summary_at(path: &Path, rows: &[BenchSummaryEntry]) -> ect_types::Result<()> {
    let _guard = SUMMARY_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let io =
        |e: &dyn std::fmt::Display| ect_types::EctError::Io(format!("{}: {e}", path.display()));
    let mut existing: Vec<BenchSummaryEntry> = match std::fs::read_to_string(path) {
        Ok(json) => serde_json::from_str(&json).map_err(|e| io(&e))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(io(&e)),
    };
    for row in rows {
        if let Some(slot) = existing
            .iter_mut()
            .find(|entry| entry.experiment == row.experiment)
        {
            *slot = row.clone();
        } else {
            existing.push(row.clone());
        }
    }
    write_json(path, &existing).map_err(|e| io(&e))
}

/// Renders a numeric series as a fixed-width ASCII bar chart (one row per
/// point), for eyeballing figure shapes in the terminal.
pub fn ascii_series(labels: &[String], values: &[f64], width: usize) -> String {
    assert_eq!(labels.len(), values.len(), "labels/values mismatch");
    let max = values.iter().copied().fold(f64::EPSILON, f64::max);
    let mut out = String::new();
    for (label, &v) in labels.iter().zip(values) {
        let bar = ((v / max) * width as f64).round().max(0.0) as usize;
        out.push_str(&format!(
            "{label:>10} | {:<width$} {v:.2}\n",
            "#".repeat(bar)
        ));
    }
    out
}

/// Hour labels `00:00 … 23:00`.
pub fn hour_labels() -> Vec<String> {
    (0..24).map(|h| format!("{h:02}:00")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_series_scales_to_width() {
        let s = ascii_series(&["a".into(), "b".into()], &[1.0, 2.0], 10);
        assert!(s.contains("##########"));
        assert!(s.lines().count() == 2);
    }

    #[test]
    fn results_dir_ends_with_results() {
        assert!(results_dir().ends_with("results"));
    }

    #[test]
    fn bench_summary_entries_round_trip() {
        let entry = BenchSummaryEntry {
            experiment: "fleet".into(),
            wall_time_s: 12.5,
            metric_name: "mean_avg_daily_reward".into(),
            metric_value: 310.25,
        };
        let json = serde_json::to_string(&vec![entry.clone()]).unwrap();
        let back: Vec<BenchSummaryEntry> = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].experiment, entry.experiment);
        assert_eq!(back[0].metric_value.to_bits(), entry.metric_value.to_bits());
    }

    #[test]
    fn hour_labels_cover_the_day() {
        let l = hour_labels();
        assert_eq!(l.len(), 24);
        assert_eq!(l[0], "00:00");
        assert_eq!(l[23], "23:00");
    }

    /// A fresh summary path under the system temp dir.
    fn scratch_summary(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ect-bench-summary-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("BENCH_summary.json")
    }

    fn rows(names: &[String]) -> Vec<BenchSummaryEntry> {
        let row = |experiment: &String| BenchSummaryEntry {
            experiment: experiment.clone(),
            wall_time_s: 1.0,
            metric_name: "m".into(),
            metric_value: 2.0,
        };
        names.iter().map(row).collect()
    }

    #[test]
    fn concurrent_upserts_of_disjoint_rows_all_land() {
        let path = scratch_summary("concurrent");
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for thread in 0..8 {
                let (path, start) = (&path, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..5 {
                        upsert_summary_at(path, &rows(&[format!("t{thread}-r{i}")])).unwrap();
                    }
                });
            }
        });
        let json = std::fs::read_to_string(&path).unwrap();
        let landed: Vec<BenchSummaryEntry> = serde_json::from_str(&json).unwrap();
        assert_eq!(landed.len(), 8 * 5, "every distinct row lands once");
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn corrupt_summary_is_left_untouched() {
        let path = scratch_summary("corrupt");
        let corrupt = "[{\"experiment\": truncated";
        std::fs::write(&path, corrupt).unwrap();
        let err = upsert_summary_at(&path, &rows(&["fleet".into()])).unwrap_err();
        assert!(matches!(err, ect_types::EctError::Io(_)), "{err:?}");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), corrupt);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}
