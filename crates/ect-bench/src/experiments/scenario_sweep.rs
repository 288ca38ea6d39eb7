//! Scenario sweep: the stress-scenario library × pricing methods, run
//! through the batched scenario grid.
//!
//! This experiment goes beyond the paper: where the original evaluation uses
//! one synthetic world plus a single blackout side-study, the sweep replays
//! the whole fleet pipeline under every entry of
//! [`ect_data::scenario::scenario_library`] (heatwave, winter-storm
//! renewable drought, EV-surge weekend, RTP price spike, rolling blackout,
//! traffic flash crowd) and reports per-scenario reward, cost-exposure and
//! blackout-endurance numbers. JSON lands in `results/scenario_sweep.json`.

use super::SCENARIO_SWEEP_VERSION;
use ect_core::prelude::*;
use ect_price::engine::{AlwaysDiscount, NeverDiscount, PricingEngine};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Aggregated view of one scenario for the report table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioSummary {
    /// Scenario name.
    pub scenario: String,
    /// Mean avg-daily-reward per method, `(method, reward)` pairs.
    pub method_rewards: Vec<(String, f64)>,
    /// Fleet-total baseline grid cost, $.
    pub total_grid_cost: f64,
    /// Fleet-total baseline charging revenue, $.
    pub total_revenue: f64,
    /// Fleet-minimum worst-case blackout endurance, hours.
    pub min_endurance_hours: f64,
    /// Fleet-total unserved energy across scripted outages, kWh.
    pub outage_unserved_kwh: f64,
}

/// Full sweep result: one grid slice per scenario plus the summaries.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioSweepResult {
    /// Per-scenario grid output (cells + stress diagnostics).
    pub grid: Vec<ScenarioGridResult>,
    /// Per-scenario aggregates, in library order.
    pub summaries: Vec<ScenarioSummary>,
}

/// The sweep's experiment scale knobs.
pub fn experiment_config(scale: crate::Scale) -> SystemConfig {
    let mut config = SystemConfig::miniature();
    match scale {
        // Small enough for the test suite and CI.
        crate::Scale::Smoke => {
            config.world.num_hubs = 2;
            config.world.horizon_slots = 24 * 4;
            config.trainer.episodes = 2;
            config.test_episodes = 1;
        }
        crate::Scale::Quick => {
            config.world.num_hubs = 4;
            config.world.horizon_slots = 24 * 14;
            config.trainer.episodes = 8;
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

fn engines() -> NamedEngines {
    // Training-free engines keep the sweep about the *worlds*: the two
    // discount extremes bracket every uplift policy's schedule.
    vec![
        (
            "NoDiscount".into(),
            Box::new(NeverDiscount) as Box<dyn PricingEngine>,
        ),
        ("AlwaysDiscount".into(), Box::new(AlwaysDiscount)),
    ]
}

fn summarise(grid: &[ScenarioGridResult]) -> Vec<ScenarioSummary> {
    grid.iter()
        .map(|result| {
            let mut methods: Vec<String> = result.cells.iter().map(|c| c.method.clone()).collect();
            methods.sort();
            methods.dedup();
            ScenarioSummary {
                scenario: result.scenario.clone(),
                method_rewards: methods
                    .into_iter()
                    .map(|m| {
                        let mean = result.method_mean(&m);
                        (m, mean)
                    })
                    .collect(),
                total_grid_cost: result.stress.iter().map(|s| s.baseline_grid_cost).sum(),
                total_revenue: result.stress.iter().map(|s| s.baseline_revenue).sum(),
                min_endurance_hours: result
                    .stress
                    .iter()
                    .map(|s| s.worst_endurance_hours)
                    .fold(f64::INFINITY, f64::min),
                outage_unserved_kwh: result.stress.iter().map(|s| s.outage_unserved_kwh).sum(),
            }
        })
        .collect()
}

/// Runs the sweep over a caller-supplied system configuration inside a
/// session — the registry path; the base system is shared through the
/// session's artifact store.
///
/// # Errors
///
/// Propagates system construction and grid failures.
pub fn run_in_session(
    session: &Session,
    config: SystemConfig,
) -> ect_types::Result<ScenarioSweepResult> {
    let scenarios = scenario_library(config.world.horizon_slots);
    let grid = session.scenario_grid_for(&config, &scenarios, &|_| Ok(engines()))?;
    let summaries = summarise(&grid);
    Ok(ScenarioSweepResult { grid, summaries })
}

/// Artifact kind of the memoised sweep.
pub const KIND: &str = "scenario-sweep";

/// Store key of the sweep over `config`, its scenarios and the labels of
/// the engines it prices with.
pub fn cache_key(
    config: &SystemConfig,
    scenarios: &[ScenarioSpec],
    engine_labels: &[String],
) -> ArtifactKey {
    ArtifactKey::versioned(
        KIND,
        SCENARIO_SWEEP_VERSION,
        &(config, scenarios, engine_labels),
    )
}

/// [`run_in_session`] memoised in the session's artifact store and served
/// from the disk cache when one is attached: the grid trains once per
/// distinct key.
///
/// # Errors
///
/// Propagates system construction and grid failures.
pub fn cached(
    session: &Session,
    config: SystemConfig,
) -> ect_types::Result<Arc<ScenarioSweepResult>> {
    let scenarios = scenario_library(config.world.horizon_slots);
    let labels: Vec<String> = engines().into_iter().map(|(label, _)| label).collect();
    let key = cache_key(&config, &scenarios, &labels);
    session
        .store()
        .get_or_insert_cached(key, || run_in_session(session, config))
}

/// Prints the sweep as a scenario × metric table.
pub fn print(result: &ScenarioSweepResult) {
    println!("== Scenario sweep: stress library × pricing methods ==\n");
    let methods: Vec<String> = result
        .summaries
        .first()
        .map(|s| s.method_rewards.iter().map(|(m, _)| m.clone()).collect())
        .unwrap_or_default();
    let mut header = format!("| {:<20} |", "scenario");
    for m in &methods {
        header.push_str(&format!(" {m:>14} |"));
    }
    header.push_str(&format!(
        " {:>12} | {:>11} | {:>13} |",
        "grid cost $", "endure h", "unserved kWh"
    ));
    println!("{header}");
    println!("|{}|", "-".repeat(header.len().saturating_sub(2)));
    for s in &result.summaries {
        let mut row = format!("| {:<20} |", s.scenario);
        for m in &methods {
            let reward = s
                .method_rewards
                .iter()
                .find(|(name, _)| name == m)
                .map_or(f64::NAN, |(_, r)| *r);
            row.push_str(&format!(" {reward:>14.2} |"));
        }
        row.push_str(&format!(
            " {:>12.0} | {:>11.1} | {:>13.2} |",
            s.total_grid_cost, s.min_endurance_hours, s.outage_unserved_kwh
        ));
        println!("{row}");
    }
    println!(
        "\n{} scenarios × {} methods over the batched scenario grid",
        result.summaries.len(),
        methods.len()
    );
}

/// Registry face of this experiment (see [`crate::registry`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct ScenarioSweepExperiment;

impl ect_core::Experiment for ScenarioSweepExperiment {
    fn id(&self) -> &'static str {
        "scenario_sweep"
    }
    fn description(&self) -> &'static str {
        "stress-scenario library × pricing methods"
    }
    fn artifact_stems(&self) -> &'static [&'static str] {
        &["scenario_sweep"]
    }
    fn run(&self, session: &ect_core::Session) -> ect_types::Result<ect_core::ExperimentOutput> {
        session.report("sweeping the stress library …");
        let result = cached(session, experiment_config(session.scale()))?;
        print(&result);
        crate::output::save_json(self.id(), &*result);
        Ok(
            ect_core::ExperimentOutput::new(self.id(), "scenarios", result.summaries.len() as f64)
                .with_artifact(self.id()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ect_data::scenario::SCENARIO_NAMES;

    #[test]
    fn smoke_sweep_covers_the_whole_library() {
        let result = run_in_session(
            &crate::experiments::smoke_session(),
            experiment_config(crate::Scale::Smoke),
        )
        .unwrap();
        assert_eq!(result.grid.len(), SCENARIO_NAMES.len());
        assert_eq!(result.summaries.len(), SCENARIO_NAMES.len());
        for (summary, name) in result.summaries.iter().zip(SCENARIO_NAMES) {
            assert_eq!(summary.scenario, name);
            assert_eq!(summary.method_rewards.len(), 2);
            for (_, reward) in &summary.method_rewards {
                assert!(reward.is_finite(), "{name}");
            }
            assert!(summary.total_grid_cost.is_finite());
            assert!(summary.min_endurance_hours >= 0.0);
        }
        // Stress scenarios genuinely stress: the price spike must cost more
        // than the baseline world, and only the rolling blackout scripts
        // outages.
        let by_name = |n: &str| result.summaries.iter().find(|s| s.scenario == n).unwrap();
        assert!(by_name("rtp-price-spike").total_grid_cost > by_name("baseline").total_grid_cost);
        assert!(by_name("winter-storm").total_grid_cost > by_name("baseline").total_grid_cost);
        for s in &result.summaries {
            if s.scenario != "rolling-blackout" {
                assert_eq!(s.outage_unserved_kwh, 0.0, "{}", s.scenario);
            }
        }
        // And the result serialises for results/scenario_sweep.json.
        let json = serde_json::to_string(&result).unwrap();
        assert!(json.contains("rolling-blackout"));
        let back: ScenarioSweepResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back.summaries.len(), result.summaries.len());
    }
}
