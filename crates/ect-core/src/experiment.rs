//! The experiment abstraction: named, registrable units of evaluation work.
//!
//! An [`Experiment`] is anything that can reproduce one of the paper's
//! tables/figures (or one of the repo's beyond-paper studies) inside a
//! [`Session`]: it has a stable id, knows which `results/*.json` artifacts
//! it writes, and returns a typed [`ExperimentOutput`] envelope — headline
//! metric, wall time, artifact paths — that the bench registry aggregates
//! into `results/BENCH_summary.json`.
//!
//! The concrete experiments live in the `ect-bench` crate (they own the
//! printing and JSON layout of each figure); this module defines the
//! contract so any layer — registry, CI smoke steps, downstream binaries —
//! can drive them uniformly through a session.

use crate::session::Session;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::time::Instant;

thread_local! {
    static RUNNING: Cell<Option<&'static str>> = const { Cell::new(None) };
}

/// The id of the experiment [`run_timed`] is running on the calling
/// thread, if any, so a shared build can name the experiment whose wall
/// time holds it.
pub fn running_experiment() -> Option<&'static str> {
    RUNNING.with(Cell::get)
}

/// The typed result envelope of one experiment run.
///
/// The full figure/table payload lands in the experiment's `results/*.json`
/// files; the envelope carries the *summary* every harness layer needs —
/// it is exactly one row of `results/BENCH_summary.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentOutput {
    /// The experiment's registry id.
    pub id: String,
    /// Name of the headline metric.
    pub metric_name: String,
    /// Value of the headline metric.
    pub metric_value: f64,
    /// Wall-clock time of the run, seconds (stamped by [`run_timed`]).
    pub wall_time_s: f64,
    /// Paths of the JSON artifacts written, workspace-relative
    /// (`results/<stem>.json`).
    pub artifacts: Vec<String>,
}

impl ExperimentOutput {
    /// An envelope with the given identity and headline metric; wall time
    /// is stamped later by [`run_timed`], artifacts start empty.
    pub fn new(id: &str, metric_name: &str, metric_value: f64) -> Self {
        Self {
            id: id.to_string(),
            metric_name: metric_name.to_string(),
            metric_value,
            wall_time_s: 0.0,
            artifacts: Vec::new(),
        }
    }

    /// Records one written artifact stem as its workspace-relative path.
    #[must_use]
    pub fn with_artifact(mut self, stem: &str) -> Self {
        self.artifacts.push(format!("results/{stem}.json"));
        self
    }
}

/// One registrable unit of evaluation work.
///
/// Implementations translate the session's [`RunScale`] into their own
/// budgets, route all expensive intermediates through the session's
/// artifact store, print their paper-shaped terminal view and persist
/// their JSON — [`Experiment::run`] is the *whole* experiment, so a
/// registry lookup plus one call replaces what used to be a hand-rolled
/// binary.
///
/// `Send + Sync` because the registry scheduler fans experiments out
/// across worker threads; implementations are stateless descriptors (all
/// run state lives in the session), so the bound is free in practice.
///
/// [`RunScale`]: crate::session::RunScale
pub trait Experiment: Send + Sync {
    /// Stable registry id (also the CLI name: `run_all --only <id>`).
    fn id(&self) -> &'static str;

    /// One-line description for catalogs (`run_all --list`).
    fn description(&self) -> &'static str;

    /// File stems of the `results/*.json` artifacts this experiment
    /// writes. Must be unique across a registry.
    fn artifact_stems(&self) -> &'static [&'static str];

    /// Named artifact groups this experiment consumes but does not own —
    /// the edges of the registry's dependency DAG. The scheduler runs the
    /// *first* registered experiment declaring a stem as that group's
    /// provider; every later declarer waits for it (and for nothing else).
    /// The default — no stems — marks the experiment independent, free to
    /// run concurrently with everything.
    fn dependency_stems(&self) -> &'static [&'static str] {
        &[]
    }

    /// Runs the experiment inside the session. Takes `&Session` — the
    /// session is internally synchronised, so the registry scheduler can
    /// run independent experiments concurrently over one shared session.
    ///
    /// # Errors
    ///
    /// Propagates configuration, training and evaluation failures.
    fn run(&self, session: &Session) -> ect_types::Result<ExperimentOutput>;
}

/// Runs an experiment and stamps its wall time into the envelope.
///
/// # Errors
///
/// Propagates [`Experiment::run`] failures.
pub fn run_timed(
    experiment: &dyn Experiment,
    session: &Session,
) -> ect_types::Result<ExperimentOutput> {
    let _span = ect_obs::span("experiment.run").field("id", experiment.id());
    let t0 = Instant::now();
    let outer = RUNNING.replace(Some(experiment.id()));
    let result = experiment.run(session);
    RUNNING.set(outer);
    let mut output = result?;
    output.wall_time_s = t0.elapsed().as_secs_f64();
    Ok(output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionBuilder;
    use crate::system::SystemConfig;

    struct Probe;

    impl Experiment for Probe {
        fn id(&self) -> &'static str {
            "probe"
        }
        fn description(&self) -> &'static str {
            "counts the session's stored artifacts"
        }
        fn artifact_stems(&self) -> &'static [&'static str] {
            &["probe"]
        }
        fn run(&self, session: &Session) -> ect_types::Result<ExperimentOutput> {
            assert_eq!(running_experiment(), Some("probe"));
            let world = session.world()?;
            Ok(
                ExperimentOutput::new("probe", "hubs", world.num_hubs() as f64)
                    .with_artifact("probe"),
            )
        }
    }

    #[test]
    fn experiments_run_through_a_session_and_stamp_wall_time() {
        let mut config = SystemConfig::miniature();
        config.world.horizon_slots = 24 * 2;
        let session = SessionBuilder::new(config).build().unwrap();
        assert!(
            Probe.dependency_stems().is_empty(),
            "independent by default"
        );
        let output = run_timed(&Probe, &session).unwrap();
        assert_eq!(running_experiment(), None, "cleared after the run");
        assert_eq!(output.id, "probe");
        assert_eq!(output.metric_name, "hubs");
        assert_eq!(output.metric_value, 3.0);
        assert!(output.wall_time_s >= 0.0);
        assert_eq!(output.artifacts, vec!["results/probe.json".to_string()]);

        // The envelope round-trips for results/BENCH_summary.json.
        let json = serde_json::to_string(&output).unwrap();
        let back: ExperimentOutput = serde_json::from_str(&json).unwrap();
        assert_eq!(back, output);
    }
}
