//! Severity sweep: reward-vs-intensity robustness curves of a
//! domain-randomised generalist.
//!
//! This experiment goes beyond the paper and beyond the `generalization`
//! experiment: instead of scoring zero-shot transfer at a handful of fixed
//! held-out worlds, it trains one policy on **continuously sampled**
//! scenarios (the `all-stress` [`ScenarioDistribution`] family) and then
//! walks a monotone intensity ladder along every [`StressAxis`] — renewable
//! drought, traffic surge, price shock, EV surge, grid outage — scoring the
//! generalist against the rule-based schedulers at each rung. JSON lands in
//! `results/severity_sweep.json`.

use ect_core::prelude::*;
use serde::{Deserialize, Serialize};

/// Full experiment result: the severity report plus the scale's ladder.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SeveritySweepResult {
    /// The per-axis robustness curves and training provenance.
    pub report: SeverityReport,
}

impl SeveritySweepResult {
    /// Headline metric: mean generalist degradation from no stress to each
    /// axis's extreme.
    pub fn headline_degradation(&self) -> f64 {
        self.report.mean_degradation()
    }
}

/// The experiment's scale knobs are the generalisation study's, so a
/// combined run of both shares one world and one assembled system.
pub use super::generalization::experiment_config;

/// The sweep options of one experiment scale. The smoke ladder has three
/// rungs on all five axes and a deliberately tight world cache, so the
/// eviction path is exercised in CI; the other scales use the defaults.
pub fn options_for(scale: crate::Scale) -> SeverityOptions {
    match scale {
        crate::Scale::Smoke => SeverityOptions {
            intensities: vec![0.0, 0.5, 1.0],
            cache_capacity: 4,
            ..SeverityOptions::default()
        },
        _ => SeverityOptions::default(),
    }
}

/// Runs the sweep over caller-supplied configurations inside a session —
/// the registry path; the trained domain-randomised generalist and its
/// curves are memoised in the session's artifact store.
///
/// # Errors
///
/// Propagates system construction, training and evaluation failures.
pub fn run_in_session(
    session: &Session,
    config: SystemConfig,
    options: SeverityOptions,
) -> ect_types::Result<SeveritySweepResult> {
    let outcome = session.severity_for(&config, &options)?;
    Ok(SeveritySweepResult {
        report: outcome.report.clone(),
    })
}

/// Registry face of this experiment (see [`crate::registry`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct SeveritySweepExperiment;

impl ect_core::Experiment for SeveritySweepExperiment {
    fn id(&self) -> &'static str {
        "severity_sweep"
    }
    fn description(&self) -> &'static str {
        "domain-randomised generalist vs per-axis stress intensity"
    }
    fn artifact_stems(&self) -> &'static [&'static str] {
        &["severity_sweep"]
    }
    fn run(&self, session: &ect_core::Session) -> ect_types::Result<ect_core::ExperimentOutput> {
        session.report("sweeping stress intensity per axis …");
        let scale = session.scale();
        let result = run_in_session(session, experiment_config(scale), options_for(scale))?;
        print(&result);
        crate::output::save_json(self.id(), &result);
        Ok(ect_core::ExperimentOutput::new(
            self.id(),
            "mean_degradation",
            result.headline_degradation(),
        )
        .with_artifact(self.id()))
    }
}

/// Prints one reward-vs-intensity table per axis.
pub fn print(result: &SeveritySweepResult) {
    let report = &result.report;
    println!("== Severity sweep: domain-randomised generalist vs stress intensity ==\n");
    println!(
        "trained on '{}' ({} lanes × {} episodes, obs_dim {}), world cache {} / {} generated / {} hits\n",
        report.train_distribution,
        report.lanes,
        report.episodes,
        report.obs_dim,
        report.cache_capacity,
        report.worlds_generated,
        report.cache_hits
    );
    for curve in &report.curves {
        println!(
            "-- axis: {} (preset '{}') --",
            curve.axis, curve.distribution
        );
        println!(
            "| {:>9} | {:>11} | {:>11} | {:>9} | {:>9} | {:>13} |",
            "intensity", "generalist", "best rule", "margin", "endure h", "unserved kWh"
        );
        for p in &curve.points {
            println!(
                "| {:>9.2} | {:>11.2} | {:>11.2} | {:>9.2} | {:>9.1} | {:>13.2} |",
                p.intensity,
                p.generalist,
                p.best_heuristic,
                p.generalist - p.best_heuristic,
                p.min_endurance_hours,
                p.outage_unserved_kwh
            );
        }
        println!("degradation over the ladder: {:.3}\n", curve.degradation());
    }
    println!(
        "mean degradation across {} axes: {:.3}",
        report.curves.len(),
        report.mean_degradation()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_severity_sweep_meets_the_acceptance_bar() {
        let result = run_in_session(
            &crate::experiments::smoke_session(),
            experiment_config(crate::Scale::Smoke),
            options_for(crate::Scale::Smoke),
        )
        .unwrap();
        let report = &result.report;

        // Acceptance bar: monotone intensity ladders for at least three
        // scenario axes.
        assert!(
            report.curves.len() >= 3,
            "only {} axes",
            report.curves.len()
        );
        for curve in &report.curves {
            assert!(curve.points.len() >= 2, "{}", curve.axis);
            let mut last = f64::NEG_INFINITY;
            for p in &curve.points {
                assert!(
                    p.intensity > last,
                    "{}: intensity ladder not strictly increasing",
                    curve.axis
                );
                last = p.intensity;
                assert!(p.generalist.is_finite(), "{}", curve.axis);
                assert_eq!(p.heuristics.len(), 3, "{}", curve.axis);
                assert!(p.best_heuristic.is_finite(), "{}", curve.axis);
                assert!(p.min_endurance_hours >= 0.0, "{}", curve.axis);
            }
            // Scripted outages only exist on the outage axis, where the
            // unserved-energy ladder grows with intensity.
            if curve.axis == "outage" {
                let unserved: Vec<f64> =
                    curve.points.iter().map(|p| p.outage_unserved_kwh).collect();
                assert_eq!(unserved[0], 0.0, "intensity 0 scripts no outage");
                assert!(
                    unserved.windows(2).all(|w| w[1] >= w[0]),
                    "outage unserved energy not monotone: {unserved:?}"
                );
                // Scripted outages feed the stepping reward path (shed
                // charging revenue + VoLL penalties), so the axis moves
                // reward, not just the endurance diagnostics: the extreme
                // rung pays for its blackouts.
                let first = curve.points.first().unwrap();
                let last = curve.points.last().unwrap();
                assert!(
                    last.generalist < first.generalist,
                    "outage axis must degrade reward: {} -> {}",
                    first.generalist,
                    last.generalist
                );
                assert!(
                    last.best_heuristic < first.best_heuristic,
                    "outage axis must degrade the rule-based anchors too"
                );
            } else {
                assert!(curve.points.iter().all(|p| p.outage_unserved_kwh == 0.0));
            }
        }
        assert!(result.headline_degradation().is_finite());
        // The tight smoke cache must have been exercised (more distinct
        // worlds than capacity ⇒ generations exceed capacity).
        assert!(report.worlds_generated > report.cache_capacity);

        // And the result serialises for results/severity_sweep.json.
        let json = serde_json::to_string(&result).unwrap();
        assert!(json.contains("price-shock"));
        let back: SeveritySweepResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back.report.curves.len(), report.curves.len());
    }
}
