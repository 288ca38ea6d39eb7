//! Generalist training: one policy across a *mixture* of scenario worlds.
//!
//! The per-scenario grid (`Session::scenario_grid` in `ect-core`) trains a
//! specialist policy inside each stress world. This module trains a single
//! **generalist** instead: [`train_generalist_source`] reassigns each lane
//! of a batched [`FleetEnv`] a scenario every episode — drawn from a
//! weighted [`ScenarioMixture`] (`ScenarioSource::Fixed`) or sampled from a
//! continuous family — all lanes share one actor-critic (the batched
//! forward pass of [`collect_shared_policy_episode`]), and the PPO update
//! consumes the concatenated per-lane buffers (the episode loop is
//! [`crate::trainer`]'s). Conditioning on *which* world a lane lives in
//! rides the [`ObsAugmentation`](ect_env::env::ObsAugmentation)
//! scenario-feature block of the observation path.
//!
//! Generalisation is measured zero-shot: [`evaluate_generalist`] runs the
//! trained policy greedily on scenarios it never trained on, and
//! [`train_holdout_split`] carves the stress library into disjoint
//! train/held-out sets for exactly that protocol.
//!
//! Determinism: mixture assignments derive from `(seed, episode)` alone —
//! independent of how much RNG the training loop itself consumed — so a
//! fixed seed reproduces the same curriculum bit for bit.

use crate::actor_critic::ActorCritic;
use crate::collector::{collect_shared_policy_episode, evaluate_lanes, summarise};
use crate::ppo::Ppo;
use crate::rollout::RolloutBuffer;
use crate::scenario_source::ScenarioSource;
use crate::trainer::{train_lanes, EvalSummary, Learner, TrainerConfig, TrainingHistory};
use ect_data::scenario::{scenario_library, ScenarioSpec};
use ect_env::battery::BpAction;
use ect_env::vec_env::FleetEnv;
use ect_nn::matrix::Matrix;
use ect_types::rng::EctRng;
use serde::{Deserialize, Serialize};

/// Seed-stream separator for mixture assignments (decorrelated from lane
/// action/strata streams).
const MIX_SEED_STREAM: u64 = 0x9E4E_12A1;

/// Seed-stream separator for per-lane RNGs (mirrors the per-hub lane
/// seeding of the specialist fleet path).
const LANE_SEED_STREAM: u64 = 0x6E4A_11E5;

/// Library scenarios a generalist trains on (see [`train_holdout_split`]).
pub const TRAIN_SCENARIOS: [&str; 4] = [
    "baseline",
    "heatwave",
    "ev-surge-weekend",
    "traffic-flashcrowd",
];

/// Library scenarios held out for zero-shot evaluation — disjoint from
/// [`TRAIN_SCENARIOS`], chosen so every held-out world stresses a signal
/// combination the training mixture never shows (renewable collapse, price
/// scarcity, scripted outages).
pub const HELDOUT_SCENARIOS: [&str; 3] = ["winter-storm", "rtp-price-spike", "rolling-blackout"];

/// A weighted set of scenario specs with deterministic per-episode lane
/// assignment.
///
/// # Example
///
/// ```
/// use ect_drl::generalist::ScenarioMixture;
/// use ect_data::scenario::scenario_library;
///
/// let mixture = ScenarioMixture::uniform(scenario_library(24 * 7))?;
/// let a = mixture.assignment(7, 0, 4);
/// assert_eq!(a, mixture.assignment(7, 0, 4)); // deterministic per (seed, episode)
/// assert!(a.iter().all(|&idx| idx < mixture.len()));
/// # Ok::<(), ect_types::EctError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioMixture {
    entries: Vec<(ScenarioSpec, f64)>,
}

impl ScenarioMixture {
    /// Creates a mixture from `(spec, weight)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`ect_types::EctError::InvalidConfig`] for an empty mixture,
    /// a non-finite/negative weight, or all-zero total weight.
    pub fn new(entries: Vec<(ScenarioSpec, f64)>) -> ect_types::Result<Self> {
        if entries.is_empty() {
            return Err(ect_types::EctError::InvalidConfig(
                "a scenario mixture needs at least one spec".into(),
            ));
        }
        let mut total = 0.0;
        for (spec, weight) in &entries {
            if !weight.is_finite() || *weight < 0.0 {
                return Err(ect_types::EctError::InvalidConfig(format!(
                    "mixture weight {weight} for '{}' must be finite and non-negative",
                    spec.name
                )));
            }
            total += weight;
        }
        if total <= 0.0 {
            return Err(ect_types::EctError::InvalidConfig(
                "mixture weights sum to zero".into(),
            ));
        }
        Ok(Self { entries })
    }

    /// An equal-weight mixture over the given specs.
    ///
    /// # Errors
    ///
    /// Returns [`ect_types::EctError::InvalidConfig`] for an empty list.
    pub fn uniform(specs: Vec<ScenarioSpec>) -> ect_types::Result<Self> {
        Self::new(specs.into_iter().map(|spec| (spec, 1.0)).collect())
    }

    /// Number of specs in the mixture.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the mixture holds no specs (unreachable through the
    /// validated constructors).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The spec at one mixture slot.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn spec(&self, idx: usize) -> &ScenarioSpec {
        &self.entries[idx].0
    }

    /// The `(spec, weight)` entries.
    pub fn entries(&self) -> &[(ScenarioSpec, f64)] {
        &self.entries
    }

    /// Deterministic per-episode lane assignment: lane `i` of episode
    /// `episode` runs `self.spec(assignment[i])`.
    ///
    /// The draw derives from `(seed, episode)` alone, so curricula are
    /// reproducible and independent of training-loop RNG consumption.
    pub fn assignment(&self, seed: u64, episode: usize, lanes: usize) -> Vec<usize> {
        let weights: Vec<f64> = self.entries.iter().map(|(_, w)| *w).collect();
        let mut rng = EctRng::seed_from(seed ^ MIX_SEED_STREAM).fork(episode as u64);
        (0..lanes).map(|_| rng.categorical(&weights)).collect()
    }
}

/// Splits the stress library at `horizon` into the training mixture specs
/// and the disjoint held-out evaluation specs
/// ([`TRAIN_SCENARIOS`] / [`HELDOUT_SCENARIOS`]).
///
/// # Panics
///
/// Panics if the library ever stops covering the named split (a compile-
/// time-adjacent invariant, exercised by tests).
pub fn train_holdout_split(horizon: usize) -> (Vec<ScenarioSpec>, Vec<ScenarioSpec>) {
    let library = scenario_library(horizon);
    let pick = |names: &[&str]| -> Vec<ScenarioSpec> {
        names
            .iter()
            .map(|&name| {
                library
                    .iter()
                    .find(|spec| spec.name == name)
                    .unwrap_or_else(|| panic!("scenario '{name}' missing from the library"))
                    .clone()
            })
            .collect()
    };
    (pick(&TRAIN_SCENARIOS), pick(&HELDOUT_SCENARIOS))
}

/// Per-lane RNG streams of a shared-policy fleet.
fn lane_rngs(seed: u64, lanes: usize) -> Vec<EctRng> {
    (0..lanes as u64)
        .map(|lane| EctRng::seed_from(seed ^ (lane << 32) ^ LANE_SEED_STREAM))
        .collect()
}

/// Generalist training budget: one shared policy over `lanes` mixture lanes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GeneralistConfig {
    /// Episode budget, PPO hyper-parameters, network sizes and master seed.
    /// `episodes_per_update` counts *fleet* episodes (each contributing
    /// `lanes` trajectories to the update).
    pub trainer: TrainerConfig,
    /// Lockstep lanes per episode (each reassigned a mixture spec).
    pub lanes: usize,
}

impl GeneralistConfig {
    /// A reduced budget for tests and quick experiments.
    pub fn quick(episodes: usize, lanes: usize) -> Self {
        Self {
            trainer: TrainerConfig::quick(episodes),
            lanes,
        }
    }

    /// Validates the budget.
    ///
    /// # Errors
    ///
    /// Returns [`ect_types::EctError::InvalidConfig`] for zero lanes or
    /// episodes, and propagates PPO validation failures.
    pub fn validate(&self) -> ect_types::Result<()> {
        if self.lanes == 0 {
            return Err(ect_types::EctError::InvalidConfig(
                "generalist training needs at least one lane".into(),
            ));
        }
        if self.trainer.episodes == 0 {
            return Err(ect_types::EctError::InvalidConfig(
                "generalist training needs at least one episode".into(),
            ));
        }
        self.trainer.ppo.validate()
    }
}

/// One actor-critic shared by every lane, updated on the concatenated lane
/// buffers with its own (master) RNG stream.
struct Shared {
    policy: ActorCritic,
    ppo: Ppo,
    master: EctRng,
    history: TrainingHistory,
    combined: RolloutBuffer,
}

impl Learner for Shared {
    fn collect(
        &mut self,
        fleet: &mut FleetEnv,
        rngs: &mut [EctRng],
        buffers: &mut [RolloutBuffer],
        initial_soc: &[f64],
    ) -> ect_types::Result<()> {
        let returns =
            collect_shared_policy_episode(fleet, &self.policy, rngs, buffers, initial_soc)?;
        self.history
            .episode_returns
            .push(returns.iter().sum::<f64>() / returns.len() as f64);
        Ok(())
    }

    fn update(
        &mut self,
        buffers: &mut [RolloutBuffer],
        _rngs: &mut [EctRng],
    ) -> ect_types::Result<()> {
        // Episode boundaries reset the GAE recursion, so concatenating the
        // lane buffers is safe.
        for buffer in buffers {
            for t in buffer.transitions() {
                self.combined.push(t.clone());
            }
            buffer.clear();
        }
        let stats = self
            .ppo
            .update(&mut self.policy, &self.combined, &mut self.master)?;
        self.history.update_stats.push(stats);
        self.combined.clear();
        Ok(())
    }
}

/// Trains **one shared policy** over lockstep scenario episodes.
///
/// Per episode: the source assigns each lane a scenario
/// ([`ScenarioSource::specs_for_episode`]), the factory builds the
/// heterogeneous fleet, [`collect_shared_policy_episode`] amortises the
/// forward pass over all lanes, and every `episodes_per_update` episodes the
/// PPO learner consumes the concatenated per-lane buffers.
///
/// A [`ScenarioSource::Fixed`] mixture replays the same `(seed, episode)`
/// assignment stream as [`ScenarioMixture::assignment`]; `Sampled` trains on
/// fresh domain-randomised specs every episode — the infinite-family
/// curriculum. Pair the sampled path with a
/// [`WorldCache`](crate::scenario_source::WorldCache)-backed factory so
/// world generation stays memory-bounded.
///
/// The recorded [`TrainingHistory`] carries the per-episode return
/// **averaged across lanes** — the mixture-level learning curve.
///
/// # Errors
///
/// Propagates config and source validation, factory, environment and PPO
/// errors, and rejects a factory whose lane count disagrees with the config.
pub fn train_generalist_source<F>(
    config: &GeneralistConfig,
    source: &ScenarioSource,
    mut factory: F,
) -> ect_types::Result<(ActorCritic, TrainingHistory)>
where
    F: FnMut(usize, &[&ScenarioSpec], &mut [EctRng]) -> ect_types::Result<FleetEnv>,
{
    config.validate()?;
    source.validate()?;
    let n = config.lanes;
    let seed = config.trainer.seed;
    let mut master = EctRng::seed_from(seed);
    let mut rngs = lane_rngs(seed, n);
    let trained = train_lanes(
        config.trainer.episodes,
        config.trainer.episodes_per_update,
        &mut rngs,
        "generalist lanes",
        |episode, rngs: &mut [EctRng]| {
            let episode_specs = source.specs_for_episode(seed, episode, n)?;
            let specs: Vec<&ScenarioSpec> = episode_specs.iter().collect();
            factory(episode, &specs, rngs)
        },
        |state_dim, _rngs: &mut [EctRng]| {
            Ok(Shared {
                policy: ActorCritic::new(state_dim, &config.trainer.net, &mut master),
                ppo: Ppo::new(config.trainer.ppo.clone())?,
                master,
                history: TrainingHistory::default(),
                combined: RolloutBuffer::new(),
            })
        },
    )?;
    Ok((trained.policy, trained.history))
}

/// Zero-shot greedy evaluation of a (generalist) policy on **one** scenario:
/// every lane of every episode runs `spec`, actions come from the batched
/// argmax of the shared policy, and the summary aggregates over all
/// `lanes × episodes` trajectories.
///
/// The returned [`EvalSummary`] is **lane-flattened**, unlike the
/// single-hub trainer's: `avg_episode_profit` is the mean profit per
/// *trajectory* (one lane's episode, total ÷ `episodes × lanes`) and
/// `daily_rewards` holds one row per `(episode, lane)` pair, episode-major
/// — `episodes × lanes` rows in total. `avg_daily_reward` keeps its usual
/// meaning (total ÷ total days) and is the cross-path comparison metric.
///
/// The factory receives the same per-lane spec list shape as training, so
/// one factory serves both paths.
///
/// # Errors
///
/// Propagates factory failures; rejects zero lanes or episodes.
pub fn evaluate_generalist<F>(
    policy: &ActorCritic,
    spec: &ScenarioSpec,
    mut factory: F,
    episodes: usize,
    lanes: usize,
    seed: u64,
) -> ect_types::Result<EvalSummary>
where
    F: FnMut(usize, &[&ScenarioSpec], &mut [EctRng]) -> ect_types::Result<FleetEnv>,
{
    if lanes == 0 || episodes == 0 {
        return Err(ect_types::EctError::InvalidConfig(
            "generalist evaluation needs at least one lane and one episode".into(),
        ));
    }
    let mut rngs = lane_rngs(seed, lanes);
    let specs: Vec<&ScenarioSpec> = vec![spec; lanes];
    let mut states = Matrix::zeros(lanes, 0);
    let trajectories = evaluate_lanes(
        |episode, rngs: &mut [EctRng]| factory(episode, &specs, rngs),
        episodes,
        &mut rngs,
        |fleet, actions| {
            if states.cols() != fleet.state_dim() {
                states = Matrix::zeros(lanes, fleet.state_dim());
            }
            fleet.observe_all_into(states.as_mut_slice());
            // One batched greedy forward pass for every lane.
            let (prob_rows, _) = policy.infer(&states);
            for (lane, action) in actions.iter_mut().enumerate() {
                let row = [
                    prob_rows[(lane, 0)],
                    prob_rows[(lane, 1)],
                    prob_rows[(lane, 2)],
                ];
                let idx = (0..3)
                    .max_by(|&a, &b| row[a].total_cmp(&row[b]))
                    .expect("three actions");
                *action = BpAction::from_index(idx);
            }
        },
    )?;
    Ok(summarise(trajectories, episodes * lanes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::{alternating_price, toy_env};
    use ect_data::scenario::SCENARIO_NAMES;
    use ect_env::env::{HubEnv, ObsAugmentation};
    use proptest::prelude::*;

    /// A toy scenario-shaped world: the spec's feature vector shifts the
    /// price, so lanes genuinely differ per spec.
    fn toy_spec_env(slots: usize, spec: &ScenarioSpec, aug: &ObsAugmentation) -> HubEnv {
        let bump: f64 = spec.feature_vector(slots).iter().sum::<f64>() * 0.01;
        toy_env(slots, 6, 0.4, 30.0, alternating_price(bump.abs()))
            .with_augmentation(aug.features_for(spec, slots))
    }

    fn toy_factory(
        slots: usize,
        aug: ObsAugmentation,
    ) -> impl FnMut(usize, &[&ScenarioSpec], &mut [EctRng]) -> ect_types::Result<FleetEnv> {
        move |_episode, specs, _rngs| {
            FleetEnv::from_envs(
                specs
                    .iter()
                    .map(|spec| toy_spec_env(slots, spec, &aug))
                    .collect(),
            )
        }
    }

    fn library_mixture(slots: usize) -> ScenarioSource {
        ScenarioSource::Fixed(ScenarioMixture::uniform(scenario_library(slots)).unwrap())
    }

    #[test]
    fn mixture_validates_weights() {
        assert!(ScenarioMixture::new(Vec::new()).is_err());
        assert!(ScenarioMixture::new(vec![(ScenarioSpec::baseline(), -1.0)]).is_err());
        assert!(ScenarioMixture::new(vec![(ScenarioSpec::baseline(), f64::NAN)]).is_err());
        assert!(ScenarioMixture::new(vec![(ScenarioSpec::baseline(), 0.0)]).is_err());
        let mixture = ScenarioMixture::uniform(scenario_library(48)).unwrap();
        assert_eq!(mixture.len(), SCENARIO_NAMES.len());
        assert!(!mixture.is_empty());
        assert_eq!(mixture.spec(0).name, "baseline");
        assert_eq!(mixture.entries().len(), mixture.len());
    }

    #[test]
    fn split_is_disjoint_and_covers_the_library() {
        let (train, heldout) = train_holdout_split(24 * 7);
        assert_eq!(train.len() + heldout.len(), SCENARIO_NAMES.len());
        for t in &train {
            assert!(
                heldout.iter().all(|h| h.name != t.name),
                "'{}' in both splits",
                t.name
            );
        }
        assert!(train.iter().any(|s| s.is_baseline()));
        assert!(heldout.iter().all(|s| !s.is_baseline()));
    }

    #[test]
    fn generalist_training_is_deterministic_per_seed() {
        let slots = 48;
        let mixture = library_mixture(slots);
        let config = GeneralistConfig::quick(4, 3);
        let (p1, h1) = train_generalist_source(
            &config,
            &mixture,
            toy_factory(slots, ObsAugmentation::SCENARIO),
        )
        .unwrap();
        let (p2, h2) = train_generalist_source(
            &config,
            &mixture,
            toy_factory(slots, ObsAugmentation::SCENARIO),
        )
        .unwrap();
        assert_eq!(h1.episode_returns, h2.episode_returns);
        let probe: Vec<f64> = (0..p1.state_dim())
            .map(|i| (i as f64 * 0.31).sin())
            .collect();
        let (a, va) = p1.evaluate_one(&probe);
        let (b, vb) = p2.evaluate_one(&probe);
        assert_eq!(va.to_bits(), vb.to_bits());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // The augmented state is wider than the plain Eq. 24 layout.
        assert_eq!(
            p1.state_dim(),
            5 * 6 + 1 + ect_data::scenario::SCENARIO_FEATURE_DIM
        );
        assert_eq!(h1.episode_returns.len(), 4);
        assert!(!h1.update_stats.is_empty());
    }

    #[test]
    fn generalist_zero_shot_evaluation_is_finite_and_deterministic() {
        let slots = 48;
        let mixture = library_mixture(slots);
        let config = GeneralistConfig::quick(2, 2);
        let aug = ObsAugmentation::SCENARIO;
        let (policy, _) =
            train_generalist_source(&config, &mixture, toy_factory(slots, aug)).unwrap();
        let (_, heldout) = train_holdout_split(slots);
        for spec in &heldout {
            let a = evaluate_generalist(&policy, spec, toy_factory(slots, aug), 2, 2, 99).unwrap();
            let b = evaluate_generalist(&policy, spec, toy_factory(slots, aug), 2, 2, 99).unwrap();
            assert!(a.avg_daily_reward.is_finite(), "{}", spec.name);
            assert_eq!(a.daily_rewards.len(), 4, "lanes × episodes trajectories");
            assert_eq!(
                a.avg_daily_reward.to_bits(),
                b.avg_daily_reward.to_bits(),
                "{}",
                spec.name
            );
        }
        assert!(evaluate_generalist(
            &policy,
            &ScenarioSpec::baseline(),
            toy_factory(slots, aug),
            0,
            2,
            1
        )
        .is_err());
        assert!(evaluate_generalist(
            &policy,
            &ScenarioSpec::baseline(),
            toy_factory(slots, aug),
            2,
            0,
            1
        )
        .is_err());
    }

    #[test]
    fn generalist_rejects_bad_configs_and_lane_mismatches() {
        let slots = 24;
        let mixture = library_mixture(slots);
        let mut config = GeneralistConfig::quick(2, 0);
        assert!(train_generalist_source(
            &config,
            &mixture,
            toy_factory(slots, ObsAugmentation::NONE)
        )
        .is_err());
        config.lanes = 3;
        config.trainer.episodes = 0;
        assert!(train_generalist_source(
            &config,
            &mixture,
            toy_factory(slots, ObsAugmentation::NONE)
        )
        .is_err());
        // Factory building the wrong number of lanes is rejected.
        let config = GeneralistConfig::quick(2, 3);
        let wrong = |_e: usize, _specs: &[&ScenarioSpec], _r: &mut [EctRng]| {
            FleetEnv::from_envs(vec![toy_spec_env(
                slots,
                &ScenarioSpec::baseline(),
                &ObsAugmentation::NONE,
            )])
        };
        assert!(train_generalist_source(&config, &mixture, wrong).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Satellite contract: assignments are deterministic under a fixed
        /// seed, and every positive-weight spec is eventually sampled.
        #[test]
        fn mixture_assignment_is_deterministic_and_covers_support(
            seed in 0u64..1_000,
            lanes in 1usize..6,
            zero_idx in 0usize..4,
        ) {
            let horizon = 48;
            let mut entries: Vec<(ScenarioSpec, f64)> = scenario_library(horizon)
                .into_iter()
                .take(4)
                .enumerate()
                .map(|(i, spec)| (spec, 1.0 + i as f64))
                .collect();
            entries[zero_idx].1 = 0.0;
            // Keep at least one positive weight.
            if entries.iter().all(|(_, w)| *w == 0.0) {
                entries[0].1 = 1.0;
            }
            let mixture = ScenarioMixture::new(entries.clone()).unwrap();

            let mut seen = vec![false; mixture.len()];
            for episode in 0..128 {
                let a = mixture.assignment(seed, episode, lanes);
                let b = mixture.assignment(seed, episode, lanes);
                prop_assert_eq!(&a, &b, "episode {} not deterministic", episode);
                for &idx in &a {
                    prop_assert!(idx < mixture.len());
                    prop_assert!(entries[idx].1 > 0.0, "zero-weight spec sampled");
                    seen[idx] = true;
                }
            }
            for (idx, (_, weight)) in entries.iter().enumerate() {
                if *weight > 0.0 {
                    prop_assert!(seen[idx], "spec {} never sampled in 128 episodes", idx);
                }
            }
        }
    }
}
