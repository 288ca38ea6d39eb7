//! Shared fleet experiment: per-hub DRL training under each pricing method.
//! Backs both Fig. 13 (daily series) and Table III (reward matrix).
//!
//! Rides the batched fleet engine through
//! [`Session::fleet_for`](ect_core::Session::fleet_for): each method's hubs
//! train as lockstep [`ect_env::vec_env::FleetEnv`] batches (exogenous
//! series `Arc`-shared, observations allocation-free). The assembled
//! system and the trained ECT-Price model come from the session's artifact store, so
//! the fleet shares them with Table II and the Fig. 11/12 experiments.

use super::{pricing_artifacts, system_config};
use ect_core::prelude::*;
use ect_core::report::FleetReport;
use ect_price::engine::{EctPriceEngine, PricingEngine};
use ect_types::rng::EctRng;

/// Trains the four paper engines (reusing the session's shared ECT-Price
/// model) and runs the full hub × method fleet on the batched engine.
///
/// # Errors
///
/// Propagates training failures.
pub fn run(session: &Session) -> ect_types::Result<FleetReport> {
    let artifacts = pricing_artifacts(session)?;
    let system = &artifacts.system;
    let mut rng = EctRng::seed_from(system.config().seed ^ 0xF1EE7);

    let mut engines: Vec<(String, Box<dyn PricingEngine>)> = Vec::new();
    for method in [
        PricingMethod::OutcomeRegression,
        PricingMethod::InversePropensity,
        PricingMethod::DoublyRobust,
    ] {
        engines.push((
            method.label().to_string(),
            ect_core::train_engine(system, method, &artifacts.train, &mut rng)?,
        ));
    }
    engines.push((
        "Ours".to_string(),
        Box::new(EctPriceEngine::new(artifacts.model.clone())),
    ));

    let config = system_config(session.scale());
    let cells = session.fleet_for(&config, &engines)?;
    Ok(FleetReport::new(cells))
}

/// Prints the Fig. 13 view: daily reward series of four example hubs.
pub fn print_fig13(report: &FleetReport) {
    println!("== Fig. 13: daily reward of four example hubs ==");
    for hub in report.hubs().into_iter().take(4) {
        println!("\n{}", report.fig13_markdown(hub));
        // Summary line: who wins this hub?
        if let Some((_, winner)) = report.winners().into_iter().find(|(h, _)| *h == hub) {
            println!("best method on hub {}: {winner}", hub + 1);
        }
    }
}

/// Prints the Table III view: the full reward matrix.
pub fn print_table3(report: &FleetReport) {
    println!("== Table III: average daily rewards for all hubs ==\n");
    println!("{}", report.table3_markdown());
    let ours = report.method_mean("Ours");
    for m in report.methods() {
        if m != "Ours" {
            let gain = (ours / report.method_mean(&m) - 1.0) * 100.0;
            println!("Ours vs {m}: {gain:+.1}% average daily reward");
        }
    }
    let wins = report
        .winners()
        .into_iter()
        .filter(|(_, w)| w == "Ours")
        .count();
    println!("Ours wins {wins}/{} hubs", report.hubs().len());
}

/// Mean `avg_daily_reward` across every (hub, method) cell — the headline
/// metric of the fleet stage.
pub fn mean_reward(report: &FleetReport) -> f64 {
    let cells = &report.cells;
    cells.iter().map(|c| c.avg_daily_reward).sum::<f64>() / cells.len().max(1) as f64
}

/// Registry face of this experiment (see [`crate::registry`]): one run
/// backs both the Fig. 13 and Table III artifacts.
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetExperiment;

impl ect_core::Experiment for FleetExperiment {
    fn id(&self) -> &'static str {
        "fleet"
    }
    fn description(&self) -> &'static str {
        "batched PPO fleet scheduling (Fig. 13 / Table III)"
    }
    fn artifact_stems(&self) -> &'static [&'static str] {
        &["fig13_hub_rewards", "table3_hub_rewards"]
    }
    fn dependency_stems(&self) -> &'static [&'static str] {
        // Consumes the shared ECT-Price pricing artifacts: the scheduler
        // runs the first declarer (table2_price) as the provider and the
        // rest concurrently once it finishes.
        &["pricing"]
    }
    fn run(&self, session: &ect_core::Session) -> ect_types::Result<ect_core::ExperimentOutput> {
        session.report("training the hub fleet (this is the long stage) …");
        let report = run(session)?;
        print_fig13(&report);
        print_table3(&report);
        crate::output::save_json("fig13_hub_rewards", &report);
        crate::output::save_json("table3_hub_rewards", &report);
        Ok(ect_core::ExperimentOutput::new(
            self.id(),
            "mean_avg_daily_reward",
            mean_reward(&report),
        )
        .with_artifact("fig13_hub_rewards")
        .with_artifact("table3_hub_rewards"))
    }
}
