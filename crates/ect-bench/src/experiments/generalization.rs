//! Generalisation experiment: scenario-mixture generalist vs per-scenario
//! specialists vs rule-based baselines on held-out stress worlds.
//!
//! This experiment goes beyond the paper: the original evaluation trains
//! and tests inside one synthetic world, and even PR 2's scenario sweep
//! trains a fresh specialist per stress world. Here a **single** policy is
//! trained across the library's training mixture (scenario-conditioned
//! observations via [`ObsAugmentation`]) and then dropped zero-shot into
//! the held-out scenarios — worlds it has never seen — next to the
//! specialists trained inside them and the rule-based schedulers. JSON
//! lands in `results/generalization.json`.

use ect_core::prelude::*;
use serde::{Deserialize, Serialize};

/// Full experiment result: one generalist report per augmentation arm.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GeneralizationResult {
    /// The scenario-conditioned generalist (the subsystem's headline arm).
    pub conditioned: GeneralistReport,
    /// Ablation arm: same mixture training with the plain Eq. 24 state
    /// (policy cannot tell worlds apart).
    pub blind: GeneralistReport,
}

impl GeneralizationResult {
    /// Mean held-out generalisation gap of the conditioned arm.
    pub fn headline_gap(&self) -> f64 {
        self.conditioned.mean_gap()
    }
}

/// The experiment's scale knobs.
pub fn experiment_config(scale: crate::Scale) -> SystemConfig {
    let mut config = SystemConfig::miniature();
    match scale {
        // Small enough for the test suite and CI, with enough episodes that
        // the generalist's learning signal shows.
        crate::Scale::Smoke => {
            config.world.num_hubs = 2;
            config.world.horizon_slots = 24 * 4;
            config.trainer.episodes = 4;
            config.test_episodes = 2;
        }
        crate::Scale::Quick => {
            config.world.num_hubs = 3;
            config.world.horizon_slots = 24 * 7;
            config.trainer.episodes = 12;
            config.test_episodes = 4;
        }
        crate::Scale::Paper => {
            config.world.num_hubs = 12;
            config.world.horizon_slots = 24 * 30;
            config.trainer.episodes = 120;
            config.test_episodes = 20;
        }
    }
    config
}

/// Runs both arms over a caller-supplied system configuration inside a
/// session — the registry path. The held-out baselines and each arm's
/// trained generalist are memoised in the session's artifact store, so a
/// combined `run_all` (or a repeated run) trains each of them exactly once.
///
/// # Errors
///
/// Propagates system construction, training and evaluation failures.
pub fn run_in_session(
    session: &Session,
    config: SystemConfig,
) -> ect_types::Result<GeneralizationResult> {
    let conditioned = session.generalist_for(
        &config,
        &GeneralistOptions {
            augmentation: ObsAugmentation::SCENARIO,
            lanes: 0,
        },
    )?;
    let blind = session.generalist_for(
        &config,
        &GeneralistOptions {
            augmentation: ObsAugmentation::NONE,
            lanes: 0,
        },
    )?;
    Ok(GeneralizationResult {
        conditioned: conditioned.report.clone(),
        blind: blind.report.clone(),
    })
}

fn print_report(label: &str, report: &GeneralistReport) {
    println!(
        "-- {label}: obs_dim {}, {} lanes × {} episodes on [{}] --",
        report.obs_dim,
        report.lanes,
        report.episodes,
        report.train_scenarios.join(", ")
    );
    println!(
        "| {:<20} | {:>11} | {:>11} | {:>8} | {:>9} | {:>10} |",
        "held-out scenario", "generalist", "specialist", "gap", "best rule", "beats rule"
    );
    for h in &report.heldout {
        println!(
            "| {:<20} | {:>11.2} | {:>11.2} | {:>8.2} | {:>9.2} | {:>10} |",
            h.scenario,
            h.generalist,
            h.specialist,
            h.gap,
            h.best_heuristic,
            if h.beats_any_heuristic { "yes" } else { "no" }
        );
    }
    println!("mean generalisation gap: {:.3}\n", report.mean_gap());
}

/// Prints both arms as held-out scorecards.
pub fn print(result: &GeneralizationResult) {
    println!("== Generalisation: mixture generalist on held-out stress worlds ==\n");
    print_report("scenario-conditioned", &result.conditioned);
    print_report("blind (no conditioning)", &result.blind);
}

/// Registry face of this experiment (see [`crate::registry`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct GeneralizationExperiment;

impl ect_core::Experiment for GeneralizationExperiment {
    fn id(&self) -> &'static str {
        "generalization"
    }
    fn description(&self) -> &'static str {
        "scenario-mixture generalist vs held-out worlds"
    }
    fn artifact_stems(&self) -> &'static [&'static str] {
        &["generalization"]
    }
    fn run(&self, session: &ect_core::Session) -> ect_types::Result<ect_core::ExperimentOutput> {
        let result = run_in_session(session, experiment_config(session.scale()))?;
        print(&result);
        crate::output::save_json(self.id(), &result);
        Ok(
            ect_core::ExperimentOutput::new(self.id(), "mean_heldout_gap", result.headline_gap())
                .with_artifact(self.id()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ect_drl::generalist::HELDOUT_SCENARIOS;

    #[test]
    fn smoke_generalization_meets_the_acceptance_bar() {
        let result = run_in_session(
            &crate::experiments::smoke_session(),
            experiment_config(crate::Scale::Smoke),
        )
        .unwrap();
        for (report, arm) in [
            (&result.conditioned, "conditioned"),
            (&result.blind, "blind"),
        ] {
            assert_eq!(report.heldout.len(), HELDOUT_SCENARIOS.len(), "{arm}");
            for h in &report.heldout {
                assert!(h.generalist.is_finite(), "{arm}/{}", h.scenario);
                assert!(h.specialist.is_finite(), "{arm}/{}", h.scenario);
                assert_eq!(h.heuristics.len(), 3, "{arm}/{}", h.scenario);
            }
        }
        // The conditioned arm's obs layout is wider than the blind arm's.
        assert!(result.conditioned.obs_dim > result.blind.obs_dim);

        // Acceptance bar: on every held-out stress scenario the zero-shot
        // generalist stays within a bounded gap of the specialist trained
        // inside that world, and beats at least one rule-based baseline.
        for h in &result.conditioned.heldout {
            let bound = h.specialist.abs().max(1.0);
            assert!(
                h.gap <= bound,
                "{}: gap {} exceeds bound {bound} (generalist {}, specialist {})",
                h.scenario,
                h.gap,
                h.generalist,
                h.specialist
            );
            assert!(
                h.beats_any_heuristic,
                "{}: generalist {} beats no heuristic ({:?})",
                h.scenario, h.generalist, h.heuristics
            );
        }
        assert!(result.headline_gap().is_finite());

        // And the result serialises for results/generalization.json.
        let json = serde_json::to_string(&result).unwrap();
        assert!(json.contains("winter-storm"));
        let back: GeneralizationResult = serde_json::from_str(&json).unwrap();
        assert_eq!(
            back.conditioned.heldout.len(),
            result.conditioned.heldout.len()
        );
    }
}
