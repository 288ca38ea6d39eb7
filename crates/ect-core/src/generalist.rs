//! Generalist orchestration: train one scenario-mixture policy, then score
//! its zero-shot generalisation against per-scenario specialists and the
//! rule-based schedulers.
//!
//! [`Session::generalist`](crate::session::Session::generalist) is the
//! operator-facing entry point:
//!
//! 1. split the stress library into training and held-out specs
//!    ([`ect_drl::generalist::train_holdout_split`]);
//! 2. score the held-out **baselines**
//!    ([`Session::heldout_baselines_for`](crate::session::Session::heldout_baselines_for)): the
//!    per-scenario specialists that the batched scenario grid trains inside
//!    each held-out world, plus the rule-based schedulers
//!    (NoBattery, GreedyPrice, TimeOfUse) — these are independent of any
//!    generalist choice, so ablation sweeps compute them **once** and share
//!    them across arms;
//! 3. train a single shared policy over the training mixture — worlds are
//!    generated once per spec and re-sliced every episode through
//!    [`fleet_env_for_worlds`], with the [`ObsAugmentation`] scenario block
//!    telling the policy which world each lane runs;
//! 4. drop the generalist zero-shot into every held-out scenario and
//!    report the generalisation gap per scenario.
//!
//! Discounts are pinned to the never-discount schedule throughout, so every
//! number isolates *battery scheduling* quality under world shift rather
//! than pricing-policy differences.

use crate::scenario_grid::{scenario_grid, NamedEngines};
use crate::scheduling::{rule_based_anchors, OBS_WINDOW};
use crate::system::EctHubSystem;
use ect_data::dataset::WorldDataset;
use ect_data::scenario::ScenarioSpec;
use ect_drl::checkpoint::CheckpointMeta;
use ect_drl::generalist::{
    evaluate_generalist, train_generalist_source, train_holdout_split, GeneralistConfig,
    ScenarioMixture,
};
use ect_drl::scenario_source::ScenarioSource;
use ect_drl::ActorCritic;
use ect_env::env::ObsAugmentation;
use ect_env::fleet::fleet_env_for_worlds;
use ect_env::tariff::DiscountSchedule;
use ect_env::vec_env::FleetEnv;
use ect_price::engine::NeverDiscount;
use ect_types::ids::HubId;
use ect_types::rng::EctRng;
use serde::{Deserialize, Serialize};

/// Seed-stream separator for the generalist trainer (decorrelated from the
/// per-hub specialist streams).
const GENERALIST_SEED_STREAM: u64 = 0x6E4E_7A11;

/// Seed-stream separator for zero-shot evaluation draws.
const GENERALIST_EVAL_STREAM: u64 = 0xE7A1_6E4E;

/// Knobs of [`Session::generalist`](crate::session::Session::generalist).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GeneralistOptions {
    /// Observation augmentation for the generalist (specialists always use
    /// the plain Eq. 24 state).
    pub augmentation: ObsAugmentation,
    /// Mixture lanes per training episode (0 = one lane per hub).
    pub lanes: usize,
}

impl Default for GeneralistOptions {
    fn default() -> Self {
        Self {
            augmentation: ObsAugmentation::SCENARIO,
            lanes: 0,
        }
    }
}

/// Generalist-independent comparison anchors of one held-out world: the
/// specialists trained *inside* it and the rule-based schedulers. All
/// rewards are average daily rewards under the never-discount schedule.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HeldOutBaseline {
    /// Held-out scenario name.
    pub scenario: String,
    /// Mean reward of the specialists trained inside this world, one per
    /// hub (the scenario-grid cells).
    pub specialist: f64,
    /// Rule-based baselines, `(name, reward)` pairs.
    pub heuristics: Vec<(String, f64)>,
    /// The strongest rule-based baseline's reward.
    pub best_heuristic: f64,
}

/// One held-out scenario's generalisation scorecard. All rewards are
/// average daily rewards (the paper's Table III metric) under the
/// never-discount schedule.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HeldOutComparison {
    /// Held-out scenario name.
    pub scenario: String,
    /// Zero-shot generalist reward (never trained on this world).
    pub generalist: f64,
    /// Mean reward of the specialists trained *inside* this world, one per
    /// hub (the scenario-grid cells).
    pub specialist: f64,
    /// Generalisation gap `specialist − generalist` (smaller is better;
    /// negative means the generalist beat the specialists).
    pub gap: f64,
    /// Gap as a fraction of the specialist's magnitude.
    pub gap_fraction: f64,
    /// Rule-based baselines, `(name, reward)` pairs.
    pub heuristics: Vec<(String, f64)>,
    /// The strongest rule-based baseline's reward.
    pub best_heuristic: f64,
    /// `true` when the zero-shot generalist beats at least one baseline.
    pub beats_any_heuristic: bool,
}

/// The full generalisation report of one generalist run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GeneralistReport {
    /// Observation augmentation the generalist trained with.
    pub augmentation: ObsAugmentation,
    /// Observation dimension of the generalist policy.
    pub obs_dim: usize,
    /// Mixture lanes per training episode.
    pub lanes: usize,
    /// Training episodes (each contributing `lanes` trajectories).
    pub episodes: usize,
    /// Master seed of the generalist trainer.
    pub seed: u64,
    /// Names of the training-mixture scenarios.
    pub train_scenarios: Vec<String>,
    /// Mean return over the last 10 % of training episodes.
    pub final_training_return: f64,
    /// Per-held-out-scenario comparisons, in split order.
    pub heldout: Vec<HeldOutComparison>,
}

impl GeneralistReport {
    /// Mean generalisation gap across the held-out scenarios.
    pub fn mean_gap(&self) -> f64 {
        if self.heldout.is_empty() {
            return f64::NAN;
        }
        self.heldout.iter().map(|h| h.gap).sum::<f64>() / self.heldout.len() as f64
    }
}

/// A trained generalist plus its scorecard.
///
/// Serialisable end to end (the policy's scratch caches are skipped), so
/// the whole outcome can spill to the persistent artifact cache and a warm
/// process skips the training run entirely.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GeneralistOutcome {
    /// The generalisation report (serialisable).
    pub report: GeneralistReport,
    /// The trained shared policy.
    pub policy: ActorCritic,
}

impl GeneralistOutcome {
    /// Checkpoint metadata describing this policy's observation contract —
    /// hand it to [`ect_drl::checkpoint::save_checkpoint`] so deployments
    /// can refuse mismatched observation layouts.
    pub fn checkpoint_meta(&self) -> CheckpointMeta {
        CheckpointMeta {
            obs_dim: self.report.obs_dim,
            augmentation: self.report.augmentation,
            scenarios: self.report.train_scenarios.clone(),
            seed: self.report.seed,
        }
    }
}

/// A never-discount fleet whose lane `i` plays hub `i % num_hubs` of
/// `worlds[i]`, its observations conditioned by `augment` — the lanes of a
/// generalist fleet.
pub(crate) fn world_lanes_fleet<'w>(
    system: &EctHubSystem,
    worlds: impl IntoIterator<Item = &'w WorldDataset>,
    augment: &ObsAugmentation,
    rngs: &mut [EctRng],
) -> ect_types::Result<FleetEnv> {
    let num_hubs = system.world().num_hubs() as usize;
    let horizon = system.world().horizon();
    let lanes: Vec<(&WorldDataset, HubId)> = worlds
        .into_iter()
        .enumerate()
        .map(|(i, world)| (world, HubId::new((i % num_hubs) as u32)))
        .collect();
    let discounts = vec![DiscountSchedule::none(horizon); lanes.len()];
    fleet_env_for_worlds(&lanes, 0, horizon, &discounts, OBS_WINDOW, augment, rngs)
}

fn no_discount_engines(_system: &EctHubSystem) -> ect_types::Result<NamedEngines> {
    Ok(vec![(
        "NoDiscount".into(),
        Box::new(NeverDiscount) as Box<dyn ect_price::engine::PricingEngine>,
    )])
}

/// Trains the per-scenario specialists (via the batched scenario grid) and
/// scores the rule-based schedulers on every held-out world.
///
/// This is the expensive half of a generalisation study and it does not
/// depend on the generalist at all — augmentation ablations call it once
/// and feed the result to several [`run_generalist_against`] arms.
///
/// # Errors
///
/// Propagates world-generation, training and evaluation failures.
pub(crate) fn heldout_baselines(
    system: &EctHubSystem,
    threads: usize,
) -> ect_types::Result<Vec<HeldOutBaseline>> {
    let horizon = system.world().horizon();
    let (_, heldout_specs) = train_holdout_split(horizon);
    let grid = scenario_grid(system, &heldout_specs, &no_discount_engines, threads)?;

    let mut baselines = Vec::with_capacity(heldout_specs.len());
    for (spec, grid_result) in heldout_specs.iter().zip(&grid) {
        let spec_system = system.with_scenario(spec.clone())?;
        let (heuristics, best_heuristic) = rule_based_anchors(&spec_system)?;
        baselines.push(HeldOutBaseline {
            scenario: spec.name.clone(),
            specialist: grid_result.method_mean("NoDiscount"),
            heuristics,
            best_heuristic,
        });
    }
    Ok(baselines)
}

/// Trains the scenario-mixture generalist and scores zero-shot
/// generalisation against **precomputed** held-out baselines
/// ([`heldout_baselines`]), so augmentation and lane-count ablations train
/// the specialists and heuristics once, not per arm.
///
/// # Errors
///
/// Propagates training and evaluation failures, and rejects baselines that
/// do not cover the held-out split in order.
pub(crate) fn run_generalist_against(
    system: &EctHubSystem,
    options: &GeneralistOptions,
    baselines: &[HeldOutBaseline],
) -> ect_types::Result<GeneralistOutcome> {
    let horizon = system.world().horizon();
    let num_hubs = system.world().num_hubs() as usize;
    let lanes = if options.lanes == 0 {
        num_hubs
    } else {
        options.lanes
    };
    let (train_specs, heldout_specs) = train_holdout_split(horizon);
    if baselines.len() != heldout_specs.len()
        || baselines
            .iter()
            .zip(&heldout_specs)
            .any(|(baseline, spec)| baseline.scenario != spec.name)
    {
        return Err(ect_types::EctError::InvalidConfig(format!(
            "held-out baselines [{}] do not match the held-out split [{}]",
            baselines
                .iter()
                .map(|b| b.scenario.as_str())
                .collect::<Vec<_>>()
                .join(", "),
            heldout_specs
                .iter()
                .map(|s| s.name.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        )));
    }

    // One world per spec (training ∪ held-out), generated once and re-sliced
    // every episode — the exogenous generators never rerun inside the loop.
    let world_config = system.config().world.clone();
    let mut worlds: Vec<WorldDataset> = Vec::with_capacity(train_specs.len() + heldout_specs.len());
    for spec in train_specs.iter().chain(&heldout_specs) {
        worlds.push(WorldDataset::generate_scenario(world_config.clone(), spec)?);
    }
    let world_for = |spec: &ScenarioSpec| -> ect_types::Result<&WorldDataset> {
        worlds.iter().find(|w| &w.scenario == spec).ok_or_else(|| {
            ect_types::EctError::InvalidConfig(format!(
                "scenario '{}' missing from the generated world cache",
                spec.name
            ))
        })
    };

    let augment = options.augmentation;
    let factory = |_episode: usize,
                   specs: &[&ScenarioSpec],
                   rngs: &mut [EctRng]|
     -> ect_types::Result<FleetEnv> {
        let worlds: Vec<&WorldDataset> = specs
            .iter()
            .map(|spec| world_for(spec))
            .collect::<ect_types::Result<_>>()?;
        world_lanes_fleet(system, worlds, &augment, rngs)
    };

    // Train the generalist on the scenario mixture.
    let mixture = ScenarioMixture::uniform(train_specs.clone())?;
    let config = GeneralistConfig {
        trainer: ect_drl::trainer::TrainerConfig {
            seed: system.config().seed ^ GENERALIST_SEED_STREAM,
            ..system.config().trainer.clone()
        },
        lanes,
    };
    let (policy, history) =
        train_generalist_source(&config, &ScenarioSource::Fixed(mixture), factory)?;

    // Zero-shot evaluation against the precomputed anchors.
    let test_episodes = system.config().test_episodes;
    let eval_seed = config.trainer.seed ^ GENERALIST_EVAL_STREAM;
    let mut heldout = Vec::with_capacity(heldout_specs.len());
    for (spec, baseline) in heldout_specs.iter().zip(baselines) {
        let summary =
            evaluate_generalist(&policy, spec, factory, test_episodes, num_hubs, eval_seed)?;
        let generalist = summary.avg_daily_reward;
        let beats_any_heuristic = baseline
            .heuristics
            .iter()
            .any(|(_, reward)| generalist > *reward);
        let gap = baseline.specialist - generalist;
        heldout.push(HeldOutComparison {
            scenario: baseline.scenario.clone(),
            generalist,
            specialist: baseline.specialist,
            gap,
            gap_fraction: gap / baseline.specialist.abs().max(1e-9),
            heuristics: baseline.heuristics.clone(),
            best_heuristic: baseline.best_heuristic,
            beats_any_heuristic,
        });
    }

    let report = GeneralistReport {
        augmentation: augment,
        obs_dim: policy.state_dim(),
        lanes,
        episodes: config.trainer.episodes,
        seed: config.trainer.seed,
        train_scenarios: train_specs.iter().map(|s| s.name.clone()).collect(),
        final_training_return: history
            .recent_mean(history.episode_returns.len() / 10)
            .unwrap_or(f64::NAN),
        heldout,
    };
    Ok(GeneralistOutcome { report, policy })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemConfig;
    use ect_data::scenario::SCENARIO_FEATURE_DIM;
    use ect_drl::generalist::HELDOUT_SCENARIOS;

    fn tiny_system() -> EctHubSystem {
        EctHubSystem::new(SystemConfig::tiny()).unwrap()
    }

    #[test]
    fn generalist_report_covers_every_heldout_scenario() {
        let session = crate::session::SessionBuilder::new(SystemConfig::tiny())
            .threads(4)
            .build()
            .unwrap();
        let outcome = session.generalist(&GeneralistOptions::default()).unwrap();
        let report = &outcome.report;
        assert_eq!(report.heldout.len(), HELDOUT_SCENARIOS.len());
        assert_eq!(
            report.obs_dim,
            5 * OBS_WINDOW + 1 + SCENARIO_FEATURE_DIM,
            "scenario block plumbed through obs_dim"
        );
        assert_eq!(outcome.policy.state_dim(), report.obs_dim);
        for (comparison, name) in report.heldout.iter().zip(HELDOUT_SCENARIOS) {
            assert_eq!(comparison.scenario, name);
            assert!(comparison.generalist.is_finite());
            assert!(comparison.specialist.is_finite());
            assert!(
                (comparison.gap - (comparison.specialist - comparison.generalist)).abs() < 1e-12
            );
            assert_eq!(comparison.heuristics.len(), 3);
            assert!(comparison.best_heuristic.is_finite());
        }
        assert!(report.mean_gap().is_finite());
        assert!(report.train_scenarios.iter().any(|name| name == "baseline"));

        // The checkpoint metadata describes the trained contract.
        let meta = outcome.checkpoint_meta();
        assert_eq!(meta.obs_dim, report.obs_dim);
        assert_eq!(meta.augmentation, ObsAugmentation::SCENARIO);
        assert_eq!(meta.scenarios, report.train_scenarios);

        // The report serialises for results/generalization.json.
        let json = serde_json::to_string(report).unwrap();
        let back: GeneralistReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.heldout.len(), report.heldout.len());
    }

    #[test]
    fn precomputed_baselines_are_shared_across_arms() {
        // The ablation path: score the baselines once, run two generalist
        // arms against them, and the anchors must be identical objects.
        let system = tiny_system();
        let baselines = heldout_baselines(&system, 2).unwrap();
        assert_eq!(baselines.len(), HELDOUT_SCENARIOS.len());

        let conditioned = run_generalist_against(
            &system,
            &GeneralistOptions {
                augmentation: ObsAugmentation::SCENARIO,
                lanes: 0,
            },
            &baselines,
        )
        .unwrap();
        let blind = run_generalist_against(
            &system,
            &GeneralistOptions {
                augmentation: ObsAugmentation::NONE,
                lanes: 3,
            },
            &baselines,
        )
        .unwrap();
        assert_eq!(
            conditioned.report.obs_dim,
            5 * OBS_WINDOW + 1 + SCENARIO_FEATURE_DIM
        );
        assert_eq!(blind.report.obs_dim, 5 * OBS_WINDOW + 1);
        assert_eq!(blind.report.lanes, 3);
        for (a, b) in conditioned.report.heldout.iter().zip(&blind.report.heldout) {
            assert_eq!(a.specialist.to_bits(), b.specialist.to_bits());
            assert_eq!(a.best_heuristic.to_bits(), b.best_heuristic.to_bits());
        }

        // Mismatched baselines are refused.
        let mut wrong = baselines.clone();
        wrong[0].scenario = "no-such-scenario".into();
        assert!(run_generalist_against(&system, &GeneralistOptions::default(), &wrong).is_err());
        assert!(
            run_generalist_against(&system, &GeneralistOptions::default(), &baselines[..1])
                .is_err()
        );
    }
}
