//! Coordination experiment: networked multi-hub fleet under a binding
//! shared feeder — coupling-aware shared policy vs coupling-blind per-hub
//! policies.
//!
//! This experiment goes beyond the paper: the original evaluation treats
//! every hub as an island on an infinite feeder. Here the fleet shares one
//! distribution feeder with an aggregate import cap (proportional-fairness
//! curtailment), saturated charging stations spill EV demand to their
//! road-graph neighbours (hub adjacency comes from road distances on a
//! generated region via `HubTopology::from_region`, not a pinned ring),
//! and the coordinated arm observes neighbour SoC/load/
//! curtailment pressure (`ect-env`'s coupling layer). The headline is the
//! **coordination gap**: coordinated minus independent mean daily reward on
//! identical evaluation seeds. JSON lands in `results/coordination.json`.

use crate::output::{save_json, upsert_bench_summary, BenchSummaryEntry};
use ect_core::prelude::*;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Serialisable face of the study — the outcome without the trained policy
/// weights (those stay in the artifact store / disk cache).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoordinationResult {
    /// Hubs on the ring.
    pub num_hubs: usize,
    /// Episode length, slots.
    pub horizon_slots: usize,
    /// The aggregate feeder import cap, kW.
    pub feeder_cap_kw: f64,
    /// Training episodes per arm.
    pub train_episodes: usize,
    /// Joint evaluation episodes per arm.
    pub eval_episodes: usize,
    /// Observation width of the coordinated policy (with mutual block).
    pub coordinated_obs_dim: usize,
    /// Observation width of each independent policy.
    pub independent_obs_dim: usize,
    /// Scorecard of the coupling-aware shared policy.
    pub coordinated: CoordinationArm,
    /// Scorecard of the coupling-blind per-hub policies.
    pub independent: CoordinationArm,
    /// Headline: coordinated minus independent mean daily reward.
    pub coordination_gap: f64,
}

impl From<&CoordinationOutcome> for CoordinationResult {
    fn from(outcome: &CoordinationOutcome) -> Self {
        Self {
            num_hubs: outcome.num_hubs,
            horizon_slots: outcome.horizon_slots,
            feeder_cap_kw: outcome.feeder_cap_kw,
            train_episodes: outcome.train_episodes,
            eval_episodes: outcome.eval_episodes,
            coordinated_obs_dim: outcome.coordinated_obs_dim,
            independent_obs_dim: outcome.independent_obs_dim,
            coordinated: outcome.coordinated.clone(),
            independent: outcome.independent.clone(),
            coordination_gap: outcome.coordination_gap,
        }
    }
}

/// The experiment's scale knobs.
pub fn experiment_config(scale: crate::Scale) -> SystemConfig {
    let mut config = SystemConfig::miniature();
    match scale {
        // Small enough for the test suite and CI, with enough episodes that
        // coupling-aware training shows.
        crate::Scale::Smoke => {
            config.world.num_hubs = 2;
            config.world.horizon_slots = 24 * 4;
            config.trainer.episodes = 4;
            config.test_episodes = 2;
        }
        crate::Scale::Quick => {
            config.world.num_hubs = 4;
            config.world.horizon_slots = 24 * 7;
            config.trainer.episodes = 16;
            config.test_episodes = 4;
        }
        crate::Scale::Paper => {
            config.world.num_hubs = 8;
            config.world.horizon_slots = 24 * 30;
            config.trainer.episodes = 96;
            config.test_episodes = 8;
        }
    }
    config
}

/// Region seed of the road-graph hub adjacency. Fixed per experiment (not
/// per scale) so the quick and paper fleets sit on the same geography.
const ROAD_TOPOLOGY_SEED: u64 = 0x0EC7_10AD;

/// The study options of one experiment scale. The feeder cap scales with
/// the fleet so it binds whenever EVs charge regardless of fleet size, and
/// the hub adjacency comes from road distances on a generated region
/// rather than a pinned ring — each hub couples to its 2 nearest
/// neighbours by road. (On the 2-hub smoke fleet that degenerates to the
/// ring's single mutual edge, so the small pins are unaffected.)
pub fn options_for(scale: crate::Scale) -> CoordinationOptions {
    let config = experiment_config(scale);
    CoordinationOptions {
        episodes: config.trainer.episodes,
        eval_episodes: config.test_episodes,
        feeder_cap_kw: 15.0 * config.world.num_hubs as f64,
        topology: TopologySource::RoadGraph(RoadGraphTopology {
            seed: ROAD_TOPOLOGY_SEED,
            k: 2,
        }),
        ..CoordinationOptions::default()
    }
}

/// Runs the study over caller-supplied configurations inside a session —
/// the registry path; both trained arms are memoised in the session's
/// artifact store (and spill to the persistent cache when one is
/// attached).
///
/// # Errors
///
/// Propagates system construction, training and evaluation failures.
pub fn run_in_session(
    session: &Session,
    config: SystemConfig,
    options: CoordinationOptions,
) -> ect_types::Result<CoordinationResult> {
    let outcome = session.coordination_for(&config, &options)?;
    Ok(CoordinationResult::from(&*outcome))
}

fn print_arm(label: &str, arm: &CoordinationArm) {
    println!(
        "| {:<22} | {:>12.2} | {:>11.1} | {:>7.1}% | {:>10.1} | {:>11.1} |",
        label,
        arm.mean_daily_reward,
        arm.curtailed_kwh,
        arm.curtailment_share * 100.0,
        arm.spillover_kwh,
        arm.grid_import_kwh
    );
}

/// Prints the two-arm scorecard and the headline gap.
pub fn print(result: &CoordinationResult) {
    println!("== Coordination: networked fleet under a binding shared feeder ==\n");
    println!(
        "{} hubs coupled by road distance, {:.0} kW aggregate cap, {} slots, {} train / {} eval episodes",
        result.num_hubs,
        result.feeder_cap_kw,
        result.horizon_slots,
        result.train_episodes,
        result.eval_episodes
    );
    println!(
        "| {:<22} | {:>12} | {:>11} | {:>8} | {:>10} | {:>11} |",
        "arm", "daily reward", "curtail kWh", "curtail%", "spill kWh", "import kWh"
    );
    print_arm("coordinated (aware)", &result.coordinated);
    print_arm("independent (blind)", &result.independent);
    println!(
        "\ncoordination gap: {:+.3} $/hub-day (obs {} vs {})\n",
        result.coordination_gap, result.coordinated_obs_dim, result.independent_obs_dim
    );
}

/// The experiment's `BENCH_summary.json` rows: the headline gap plus each
/// arm's curtailment share, so filtered passes still publish how hard the
/// feeder cap bit.
pub fn summary_rows(result: &CoordinationResult, wall_time_s: f64) -> Vec<BenchSummaryEntry> {
    vec![
        BenchSummaryEntry {
            experiment: "coordination".into(),
            wall_time_s,
            metric_name: "coordination_gap".into(),
            metric_value: result.coordination_gap,
        },
        BenchSummaryEntry {
            experiment: "coordination_coordinated".into(),
            wall_time_s: 0.0,
            metric_name: "curtailment_share".into(),
            metric_value: result.coordinated.curtailment_share,
        },
        BenchSummaryEntry {
            experiment: "coordination_independent".into(),
            wall_time_s: 0.0,
            metric_name: "curtailment_share".into(),
            metric_value: result.independent.curtailment_share,
        },
    ]
}

/// Registry face of this experiment (see [`crate::registry`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct CoordinationExperiment;

impl ect_core::Experiment for CoordinationExperiment {
    fn id(&self) -> &'static str {
        "coordination"
    }
    fn description(&self) -> &'static str {
        "networked fleet: coupling-aware vs coupling-blind policies"
    }
    fn artifact_stems(&self) -> &'static [&'static str] {
        &["coordination"]
    }
    fn run(&self, session: &ect_core::Session) -> ect_types::Result<ect_core::ExperimentOutput> {
        session.report("networking the hub fleet under a binding feeder …");
        let t0 = Instant::now();
        let scale = session.scale();
        let result = run_in_session(session, experiment_config(scale), options_for(scale))?;
        print(&result);
        save_json(self.id(), &result);
        upsert_bench_summary(&summary_rows(&result, t0.elapsed().as_secs_f64()))?;
        Ok(
            ect_core::ExperimentOutput::new(self.id(), "coordination_gap", result.coordination_gap)
                .with_artifact(self.id()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ect_env::coupling::MUTUAL_OBS_DIM;

    #[test]
    fn every_scale_presets_a_valid_road_graph_topology() {
        for scale in [
            crate::Scale::Smoke,
            crate::Scale::Quick,
            crate::Scale::Paper,
        ] {
            let options = options_for(scale);
            options.validate().unwrap();
            assert!(
                matches!(&options.topology, TopologySource::RoadGraph(road) if road.k == 2),
                "{scale:?} couples each hub to its 2 road-nearest neighbours"
            );
            let num_hubs = experiment_config(scale).world.num_hubs as usize;
            let topology = options.topology.build(num_hubs).unwrap();
            topology.validate().unwrap();
            assert_eq!(topology.num_hubs(), num_hubs);
            assert!(!topology.is_disconnected());
        }
    }

    #[test]
    fn smoke_coordination_meets_the_acceptance_bar() {
        let result = run_in_session(
            &crate::experiments::smoke_session(),
            experiment_config(crate::Scale::Smoke),
            options_for(crate::Scale::Smoke),
        )
        .unwrap();
        assert_eq!(result.num_hubs, 2);
        assert_eq!(
            result.coordinated_obs_dim,
            result.independent_obs_dim + MUTUAL_OBS_DIM
        );
        for (arm, name) in [
            (&result.coordinated, "coordinated"),
            (&result.independent, "independent"),
        ] {
            assert!(arm.mean_daily_reward.is_finite(), "{name}");
            assert!(arm.grid_import_kwh > 0.0, "{name}");
            assert!((0.0..=1.0).contains(&arm.curtailment_share), "{name}");
        }
        // The cap binds on the blind arm: it keeps importing into slots the
        // feeder cannot serve.
        assert!(result.independent.curtailed_kwh > 0.0);

        // Acceptance bar: awareness of the network pays — the coordinated
        // policy beats the independent ones under the binding cap. The
        // study is fully seeded, so this is a deterministic pin, not a
        // statistical bet.
        assert!(
            result.coordination_gap > 0.0,
            "coordination gap {} not positive (coordinated {}, independent {})",
            result.coordination_gap,
            result.coordinated.mean_daily_reward,
            result.independent.mean_daily_reward
        );

        // And the result serialises for results/coordination.json.
        let json = serde_json::to_string(&result).unwrap();
        assert!(json.contains("coordination_gap"));
        let back: CoordinationResult = serde_json::from_str(&json).unwrap();
        assert_eq!(
            back.coordination_gap.to_bits(),
            result.coordination_gap.to_bits()
        );
    }
}
