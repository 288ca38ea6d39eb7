//! Batched rollout collection and fleet training over [`FleetEnv`].
//!
//! The sequential [`crate::trainer::train`] loop steps one
//! [`HubEnv`](ect_env::env::HubEnv) — a one-lane fleet — at a time. This
//! module steps many lanes at once: all lanes advance in lockstep through
//! [`FleetEnv::step_batch_soa`], transitions land in **per-lane**
//! [`RolloutBuffer`]s, and every lane keeps its own policy, PPO learner and
//! RNG stream.
//!
//! Determinism contract (pinned by `tests/batched_equivalence.rs`): lane `i`
//! of [`train_fleet`] consumes its RNG in exactly the order the sequential
//! trainer would for hub `i` under the same seed, and both step the same
//! slot kernel — so episode returns, rollout buffers and trained weights
//! are bit-identical between the two loops.
//!
//! When all lanes share one policy, [`collect_shared_policy_episode`]
//! amortises the network forward pass over the whole batch: one
//! `(lanes × state_dim)` matrix through the actor-critic per slot instead of
//! `lanes` single-row passes.

use crate::actor_critic::ActorCritic;
use crate::ppo::Ppo;
use crate::rollout::{RolloutBuffer, Transition};
use crate::trainer::{EvalSummary, TrainerConfig, TrainingHistory};
use ect_env::battery::BpAction;
use ect_env::vec_env::FleetEnv;
use ect_nn::matrix::Matrix;
use ect_types::rng::EctRng;
use ect_types::time::SLOTS_PER_DAY;

/// Anything that can produce a fresh lockstep fleet episode.
///
/// Implemented for closures
/// `FnMut(usize, &mut [EctRng]) -> Result<FleetEnv>`; the `usize` is the
/// episode index and `rngs[i]` is lane `i`'s stream (used e.g. to redraw
/// charging strata per episode).
pub trait FleetFactory {
    /// Builds the fleet environment for the given episode index.
    ///
    /// # Errors
    ///
    /// Propagates environment construction failures.
    fn make(&mut self, episode: usize, rngs: &mut [EctRng]) -> ect_types::Result<FleetEnv>;
}

impl<F> FleetFactory for F
where
    F: FnMut(usize, &mut [EctRng]) -> ect_types::Result<FleetEnv>,
{
    fn make(&mut self, episode: usize, rngs: &mut [EctRng]) -> ect_types::Result<FleetEnv> {
        self(episode, rngs)
    }
}

/// Collects one lockstep episode with **per-lane policies**, appending each
/// lane's transitions to its own buffer; returns per-lane episode returns.
///
/// Lane `i` draws actions from `policies[i]` using `rngs[i]`, so the
/// transition stream of each lane is independent of every other lane —
/// the property that makes batched training bit-identical to sequential.
///
/// # Panics
///
/// Panics if `policies`, `rngs`, `buffers` or `initial_soc` lengths differ
/// from the fleet's lane count.
pub fn collect_fleet_episode(
    fleet: &mut FleetEnv,
    policies: &[ActorCritic],
    rngs: &mut [EctRng],
    buffers: &mut [RolloutBuffer],
    initial_soc: &[f64],
) -> Vec<f64> {
    let n = fleet.num_lanes();
    assert_eq!(policies.len(), n, "one policy per lane");
    assert_eq!(rngs.len(), n, "one rng per lane");
    assert_eq!(buffers.len(), n, "one buffer per lane");
    fleet.reset(initial_soc);

    let mut returns = vec![0.0; n];
    let mut actions = vec![BpAction::Idle; n];
    let mut probs = vec![0.0; n];
    let mut values = vec![0.0; n];
    let mut states: Vec<Vec<f64>> = (0..n).map(|lane| fleet.lane_obs(lane).to_vec()).collect();
    loop {
        for lane in 0..n {
            let (action, prob, value) =
                policies[lane].sample_action(&states[lane], &mut rngs[lane]);
            actions[lane] = action;
            probs[lane] = prob;
            values[lane] = value;
        }
        let step = fleet.step_batch_soa(&actions);
        for lane in 0..n {
            returns[lane] += step.rewards[lane];
            buffers[lane].push(Transition {
                state: std::mem::take(&mut states[lane]),
                action: actions[lane].index(),
                action_prob: probs[lane],
                reward: step.rewards[lane],
                value: values[lane],
                done: step.done,
            });
        }
        let done = step.done;
        for (lane, state) in states.iter_mut().enumerate() {
            let obs = fleet.lane_obs(lane);
            state.resize(obs.len(), 0.0);
            state.copy_from_slice(obs);
        }
        if done {
            break;
        }
    }
    returns
}

/// Collects one lockstep episode with a **shared policy**, amortising the
/// forward pass: one `(lanes × state_dim)` batch through the network per
/// slot. Per-lane sampling still uses `rngs[i]`, so lanes stay independent
/// streams.
///
/// # Panics
///
/// Panics if `rngs`, `buffers` or `initial_soc` lengths differ from the
/// fleet's lane count.
pub fn collect_shared_policy_episode(
    fleet: &mut FleetEnv,
    policy: &ActorCritic,
    rngs: &mut [EctRng],
    buffers: &mut [RolloutBuffer],
    initial_soc: &[f64],
) -> Vec<f64> {
    let n = fleet.num_lanes();
    assert_eq!(rngs.len(), n, "one rng per lane");
    assert_eq!(buffers.len(), n, "one buffer per lane");
    let dim = fleet.state_dim();
    fleet.reset(initial_soc);

    let mut returns = vec![0.0; n];
    let mut actions = vec![BpAction::Idle; n];
    let mut states = Matrix::from_vec(n, dim, fleet.obs().to_vec());
    loop {
        // One batched forward pass for every lane.
        let (prob_rows, value_col) = policy.infer(&states);
        for lane in 0..n {
            let row = [
                prob_rows[(lane, 0)],
                prob_rows[(lane, 1)],
                prob_rows[(lane, 2)],
            ];
            let idx = rngs[lane].categorical(&row);
            actions[lane] = BpAction::from_index(idx);
        }
        let step = fleet.step_batch_soa(&actions);
        for lane in 0..n {
            returns[lane] += step.rewards[lane];
            buffers[lane].push(Transition {
                state: states.row(lane).to_vec(),
                action: actions[lane].index(),
                action_prob: prob_rows[(lane, actions[lane].index())],
                reward: step.rewards[lane],
                value: value_col[(lane, 0)],
                done: step.done,
            });
        }
        let done = step.done;
        states.as_mut_slice().copy_from_slice(fleet.obs());
        if done {
            break;
        }
    }
    returns
}

/// Trains one PPO policy **per lane** over lockstep fleet episodes.
///
/// Mirrors [`crate::trainer::train`] applied independently to every lane:
/// `configs[i]` seeds lane `i`'s RNG, policy initialisation, strata redraws,
/// SoC randomisation, action sampling and PPO minibatch shuffling — in the
/// same order the sequential trainer consumes them. All configs must agree
/// on `episodes` and `episodes_per_update` (lanes advance in lockstep).
///
/// Collection and updates strictly alternate: each window of
/// `episodes_per_update` episodes is collected, then every lane's PPO
/// update runs inline.
///
/// # Errors
///
/// Propagates factory, environment and PPO errors, and rejects inconsistent
/// lane budgets or an empty fleet.
pub fn train_fleet<F: FleetFactory>(
    configs: &[TrainerConfig],
    mut factory: F,
) -> ect_types::Result<Vec<(ActorCritic, TrainingHistory)>> {
    let Some(first) = configs.first() else {
        return Err(ect_types::EctError::InvalidConfig(
            "train_fleet needs at least one lane config".into(),
        ));
    };
    for config in configs {
        config.ppo.validate()?;
        if config.episodes != first.episodes
            || config.episodes_per_update != first.episodes_per_update
        {
            return Err(ect_types::EctError::InvalidConfig(
                "train_fleet lanes must share episodes and episodes_per_update".into(),
            ));
        }
    }
    let n = configs.len();
    let mut rngs: Vec<EctRng> = configs.iter().map(|c| EctRng::seed_from(c.seed)).collect();

    // Probe the state dimension exactly like the sequential trainer: from a
    // throwaway episode built on forked streams (the forks leave the lane
    // streams untouched).
    let mut probe_rngs: Vec<EctRng> = rngs.iter().map(|r| r.fork(0)).collect();
    let probe = factory.make(0, &mut probe_rngs)?;
    let state_dim = probe.state_dim();
    if probe.num_lanes() != n {
        return Err(ect_types::EctError::ShapeMismatch {
            context: "train_fleet lanes",
            expected: n,
            actual: probe.num_lanes(),
        });
    }
    drop(probe);

    let mut policies: Vec<ActorCritic> = configs
        .iter()
        .zip(rngs.iter_mut())
        .map(|(config, rng)| ActorCritic::new(state_dim, &config.net, rng))
        .collect();
    let mut learners: Vec<Ppo> = configs
        .iter()
        .map(|config| Ppo::new(config.ppo.clone()))
        .collect::<ect_types::Result<_>>()?;
    let mut histories = vec![TrainingHistory::default(); n];
    let mut buffers = vec![RolloutBuffer::new(); n];
    let mut initial_soc = vec![0.0; n];

    let episodes = first.episodes;
    let per_update = first.episodes_per_update.max(1);

    // One `ppo.collect` span per episode window, closed around each
    // inline `ppo.update` — the per-window collect/update split.
    let mut collect_span = Some(ect_obs::span("ppo.collect"));
    for episode in 0..episodes {
        let mut fleet = factory.make(episode, &mut rngs)?;
        if fleet.num_lanes() != n {
            return Err(ect_types::EctError::ShapeMismatch {
                context: "train_fleet lanes",
                expected: n,
                actual: fleet.num_lanes(),
            });
        }
        for (soc, rng) in initial_soc.iter_mut().zip(rngs.iter_mut()) {
            *soc = rng.uniform(); // the paper randomises episode SoC
        }
        let returns =
            collect_fleet_episode(&mut fleet, &policies, &mut rngs, &mut buffers, &initial_soc);
        for (history, ret) in histories.iter_mut().zip(&returns) {
            history.episode_returns.push(*ret);
        }

        if (episode + 1) % per_update == 0 {
            collect_span.take();
            let update_span = ect_obs::span("ppo.update");
            for lane in 0..n {
                let stats =
                    learners[lane].update(&mut policies[lane], &buffers[lane], &mut rngs[lane])?;
                histories[lane].update_stats.push(stats);
                buffers[lane].clear();
            }
            drop(update_span);
            if episode + 1 < episodes {
                collect_span = Some(ect_obs::span("ppo.collect"));
            }
        }
    }
    drop(collect_span);
    if buffers.iter().any(|buffer| !buffer.is_empty()) {
        let _update_span = ect_obs::span("ppo.update");
        for lane in 0..n {
            if !buffers[lane].is_empty() {
                let stats =
                    learners[lane].update(&mut policies[lane], &buffers[lane], &mut rngs[lane])?;
                histories[lane].update_stats.push(stats);
            }
        }
    }
    Ok(policies.into_iter().zip(histories).collect())
}

/// Evaluates per-lane policies greedily over lockstep test episodes,
/// mirroring [`crate::trainer::evaluate`] with a
/// [`crate::heuristics::DrlScheduler`] on every lane.
///
/// `seeds[i]` seeds lane `i`'s evaluation stream (strata redraw + SoC).
///
/// # Errors
///
/// Propagates factory failures; rejects mismatched `policies`/`seeds`.
pub fn evaluate_fleet_greedy<F: FleetFactory>(
    policies: &[ActorCritic],
    mut factory: F,
    episodes: usize,
    seeds: &[u64],
) -> ect_types::Result<Vec<EvalSummary>> {
    if policies.len() != seeds.len() {
        return Err(ect_types::EctError::ShapeMismatch {
            context: "evaluate_fleet seeds",
            expected: policies.len(),
            actual: seeds.len(),
        });
    }
    let n = policies.len();
    let mut rngs: Vec<EctRng> = seeds.iter().map(|&s| EctRng::seed_from(s)).collect();
    let mut summaries = vec![EvalSummary::default(); n];
    let mut totals = vec![0.0; n];
    let mut total_days = vec![0usize; n];
    let mut initial_soc = vec![0.0; n];
    let mut actions = vec![BpAction::Idle; n];

    for episode in 0..episodes {
        let mut fleet = factory.make(episode, &mut rngs)?;
        if fleet.num_lanes() != n {
            return Err(ect_types::EctError::ShapeMismatch {
                context: "evaluate_fleet lanes",
                expected: n,
                actual: fleet.num_lanes(),
            });
        }
        for (soc, rng) in initial_soc.iter_mut().zip(rngs.iter_mut()) {
            *soc = rng.uniform();
        }
        fleet.reset(&initial_soc);
        let mut slot_rewards: Vec<Vec<f64>> = vec![Vec::with_capacity(fleet.horizon()); n];
        loop {
            for (lane, action) in actions.iter_mut().enumerate() {
                *action = policies[lane].greedy_action(fleet.lane_obs(lane));
            }
            let step = fleet.step_batch_soa(&actions);
            for (lane_rewards, &reward) in slot_rewards.iter_mut().zip(step.rewards) {
                lane_rewards.push(reward);
            }
            if step.done {
                break;
            }
        }
        for lane in 0..n {
            let total: f64 = slot_rewards[lane].iter().sum();
            totals[lane] += total;
            let daily: Vec<f64> = slot_rewards[lane]
                .chunks(SLOTS_PER_DAY)
                .map(|chunk| chunk.iter().sum())
                .collect();
            total_days[lane] += daily.len();
            summaries[lane].daily_rewards.push(daily);
        }
    }
    for lane in 0..n {
        summaries[lane].avg_episode_profit = totals[lane] / episodes.max(1) as f64;
        summaries[lane].avg_daily_reward = totals[lane] / total_days[lane].max(1) as f64;
    }
    Ok(summaries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::DrlScheduler;
    use crate::trainer::{evaluate, train, TrainerConfig};
    use ect_data::charging::Stratum;
    use ect_env::env::{EpisodeInputs, HubEnv};
    use ect_env::hub::HubConfig;
    use ect_env::tariff::DiscountSchedule;
    use ect_env::vec_env::FleetEnv;
    use ect_types::units::{DollarsPerKwh, LoadRate};

    /// The trainer-test toy world, parameterised per lane so lanes differ.
    fn lane_env(slots: usize, lane: usize) -> HubEnv {
        let rtp: Vec<DollarsPerKwh> = (0..slots)
            .map(|t| {
                let base = if (t / 12) % 2 == 0 { 0.04 } else { 0.13 };
                DollarsPerKwh::new(base + lane as f64 * 0.005)
            })
            .collect();
        let inputs = EpisodeInputs {
            rtp,
            weather: vec![
                ect_data::weather::WeatherSample {
                    solar_irradiance: 0.0,
                    wind_speed: 0.0,
                    cloud_cover: 0.0,
                };
                slots
            ],
            traffic: vec![
                ect_data::traffic::TrafficSample {
                    load_rate: LoadRate::new(0.4).unwrap(),
                    volume_gb: 30.0,
                };
                slots
            ],
            discounts: DiscountSchedule::none(slots),
            strata: vec![Stratum::AlwaysCharge; slots],
        };
        HubEnv::new(HubConfig::bare(), inputs, 6).unwrap()
    }

    fn fleet_factory(
        slots: usize,
        lanes: usize,
    ) -> impl FnMut(usize, &mut [EctRng]) -> ect_types::Result<FleetEnv> {
        move |_episode, _rngs| {
            FleetEnv::from_envs((0..lanes).map(|lane| lane_env(slots, lane)).collect())
        }
    }

    fn lane_configs(lanes: usize, episodes: usize) -> Vec<TrainerConfig> {
        (0..lanes)
            .map(|lane| TrainerConfig {
                episodes,
                seed: 0xD21 ^ ((lane as u64) << 32),
                ..TrainerConfig::quick(episodes)
            })
            .collect()
    }

    #[test]
    fn batched_training_is_bit_identical_to_sequential() {
        let lanes = 3;
        let episodes = 4;
        let configs = lane_configs(lanes, episodes);

        let batched = train_fleet(&configs, fleet_factory(48, lanes)).unwrap();

        for (lane, config) in configs.iter().enumerate() {
            let (seq_policy, seq_history) = train(config, move |_e: usize, _r: &mut EctRng| {
                Ok(lane_env(48, lane))
            })
            .unwrap();
            let (bat_policy, bat_history) = &batched[lane];
            assert_eq!(
                seq_history.episode_returns, bat_history.episode_returns,
                "lane {lane} returns"
            );
            // Same weights ⇒ same behaviour on a probe state.
            let probe: Vec<f64> = (0..seq_policy.state_dim())
                .map(|i| (i as f64) / 31.0 - 0.5)
                .collect();
            let (sp, sv) = seq_policy.evaluate_one(&probe);
            let (bp, bv) = bat_policy.evaluate_one(&probe);
            assert_eq!(sv.to_bits(), bv.to_bits(), "lane {lane} value");
            for (a, b) in sp.iter().zip(&bp) {
                assert_eq!(a.to_bits(), b.to_bits(), "lane {lane} probs");
            }
        }
    }

    #[test]
    fn batched_evaluation_matches_sequential() {
        let lanes = 2;
        let configs = lane_configs(lanes, 2);
        let trained = train_fleet(&configs, fleet_factory(48, lanes)).unwrap();
        let policies: Vec<ActorCritic> = trained.iter().map(|(p, _)| p.clone()).collect();
        let seeds: Vec<u64> = configs.iter().map(|c| c.seed ^ 0xE7A1).collect();

        let batched =
            evaluate_fleet_greedy(&policies, fleet_factory(48, lanes), 3, &seeds).unwrap();

        for lane in 0..lanes {
            let mut sched = DrlScheduler::new(policies[lane].clone());
            let seq = evaluate(
                &mut sched,
                move |_e: usize, _r: &mut EctRng| Ok(lane_env(48, lane)),
                3,
                seeds[lane],
            )
            .unwrap();
            assert_eq!(
                seq.daily_rewards, batched[lane].daily_rewards,
                "lane {lane}"
            );
            assert_eq!(
                seq.avg_daily_reward.to_bits(),
                batched[lane].avg_daily_reward.to_bits()
            );
        }
    }

    #[test]
    fn shared_policy_collection_matches_per_lane_path() {
        // One policy replicated across lanes: the batched forward pass must
        // reproduce the per-lane sample_action stream bit-for-bit.
        let lanes = 4;
        let mut rng = EctRng::seed_from(77);
        let policy = ActorCritic::new(
            lane_env(24, 0).state_dim(),
            &crate::actor_critic::ActorCriticConfig::default(),
            &mut rng,
        );
        let make_fleet =
            || FleetEnv::from_envs((0..lanes).map(|lane| lane_env(24, lane)).collect()).unwrap();
        let socs = vec![0.5; lanes];

        let mut fleet_a = make_fleet();
        let mut rngs_a: Vec<EctRng> = (0..lanes as u64).map(EctRng::seed_from).collect();
        let mut bufs_a = vec![RolloutBuffer::new(); lanes];
        let policies = vec![policy.clone(); lanes];
        let ret_a = collect_fleet_episode(&mut fleet_a, &policies, &mut rngs_a, &mut bufs_a, &socs);

        let mut fleet_b = make_fleet();
        let mut rngs_b: Vec<EctRng> = (0..lanes as u64).map(EctRng::seed_from).collect();
        let mut bufs_b = vec![RolloutBuffer::new(); lanes];
        let ret_b =
            collect_shared_policy_episode(&mut fleet_b, &policy, &mut rngs_b, &mut bufs_b, &socs);

        assert_eq!(ret_a, ret_b);
        for lane in 0..lanes {
            assert_eq!(bufs_a[lane].transitions(), bufs_b[lane].transitions());
        }
    }

    #[test]
    fn train_fleet_validates_lane_budgets() {
        let mut configs = lane_configs(2, 3);
        configs[1].episodes = 5;
        assert!(train_fleet(&configs, fleet_factory(24, 2)).is_err());
        assert!(train_fleet(&[], fleet_factory(24, 0)).is_err());
        // Lane-count mismatch between configs and factory.
        let configs = lane_configs(3, 2);
        assert!(train_fleet(&configs, fleet_factory(24, 2)).is_err());
    }

    #[test]
    fn evaluate_fleet_validates_seeds() {
        let mut rng = EctRng::seed_from(1);
        let policy = ActorCritic::new(
            lane_env(24, 0).state_dim(),
            &crate::actor_critic::ActorCriticConfig::default(),
            &mut rng,
        );
        assert!(evaluate_fleet_greedy(&[policy], fleet_factory(24, 1), 1, &[1, 2]).is_err());
    }
}
