//! Lockstep rollout collection, per-lane fleet training and per-lane
//! evaluation over [`FleetEnv`].
//!
//! Lanes step in lockstep through [`FleetEnv::step_batch_soa`] and
//! transitions land in **per-lane** [`RolloutBuffer`]s, filled with one
//! policy per lane ([`collect_fleet_episode`]) or one shared policy whose
//! forward pass runs once per slot over all lanes
//! ([`collect_shared_policy_episode`]). [`train_fleet`] trains one policy
//! per lane through the episode loop of [`crate::trainer`];
//! [`evaluate_fleet_greedy`], [`evaluate_fleet_scheduler`] and
//! [`crate::generalist::evaluate_generalist`] share one evaluation loop.
//!
//! Lane `i` consumes only `rngs[i]`, so its results do not depend on which
//! lanes share its fleet. Trained weights are pinned by
//! `tests/nn_golden.rs`, whole experiment cells by `tests/cells_golden.rs`.

use crate::actor_critic::ActorCritic;
use crate::heuristics::Scheduler;
use crate::ppo::Ppo;
use crate::rollout::{RolloutBuffer, Transition};
use crate::trainer::{
    check_lanes, train_lanes, EvalSummary, Learner, TrainerConfig, TrainingHistory,
};
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

/// The lockstep collection loop behind both collectors: each slot,
/// `sample` fills every lane's pending transition (observation, action,
/// action probability, value), the fleet steps, and the completed
/// transitions land in the lane buffers. Returns per-lane episode returns.
fn collect_episode<S>(
    fleet: &mut FleetEnv,
    rngs: &mut [EctRng],
    buffers: &mut [RolloutBuffer],
    initial_soc: &[f64],
    mut sample: S,
) -> ect_types::Result<Vec<f64>>
where
    S: FnMut(&FleetEnv, &mut [EctRng], &mut [Transition]),
{
    let n = fleet.num_lanes();
    check_lanes("collector rngs", n, rngs.len())?;
    check_lanes("collector buffers", n, buffers.len())?;
    check_lanes("collector initial SoC", n, initial_soc.len())?;
    fleet.reset(initial_soc);

    let mut returns = vec![0.0; n];
    let mut pending = vec![Transition::default(); n];
    let mut actions = vec![BpAction::Idle; n];
    loop {
        sample(fleet, rngs, &mut pending);
        for (action, t) in actions.iter_mut().zip(&pending) {
            *action = BpAction::from_index(t.action);
        }
        let step = fleet.step_batch_soa(&actions);
        for lane in 0..n {
            returns[lane] += step.rewards[lane];
            pending[lane].reward = step.rewards[lane];
            pending[lane].done = step.done;
            buffers[lane].push(std::mem::take(&mut pending[lane]));
        }
        if step.done {
            break;
        }
    }
    Ok(returns)
}

/// Collects one lockstep episode with **per-lane policies**, appending each
/// lane's transitions to its own buffer; returns per-lane episode returns.
///
/// Lane `i` draws actions from `policies[i]` using `rngs[i]`, so the
/// transition stream of each lane is independent of every other lane.
///
/// # Errors
///
/// Returns [`ect_types::EctError::ShapeMismatch`] if `policies`, `rngs`,
/// `buffers` or `initial_soc` lengths differ from the fleet's lane count.
pub fn collect_fleet_episode(
    fleet: &mut FleetEnv,
    policies: &[ActorCritic],
    rngs: &mut [EctRng],
    buffers: &mut [RolloutBuffer],
    initial_soc: &[f64],
) -> ect_types::Result<Vec<f64>> {
    check_lanes("collector policies", fleet.num_lanes(), policies.len())?;
    collect_episode(fleet, rngs, buffers, initial_soc, |fleet, rngs, pending| {
        for (lane, t) in pending.iter_mut().enumerate() {
            t.state = vec![0.0; fleet.state_dim()];
            fleet.observe_into(lane, &mut t.state);
            let (action, prob, value) = policies[lane].sample_action(&t.state, &mut rngs[lane]);
            t.action = action.index();
            t.action_prob = prob;
            t.value = value;
        }
    })
}

/// Collects one lockstep episode with a **shared policy**, amortising the
/// forward pass: one `(lanes × state_dim)` batch through the network per
/// slot. Per-lane sampling still uses `rngs[i]`, so lanes stay independent
/// streams.
///
/// # Errors
///
/// Returns [`ect_types::EctError::ShapeMismatch`] if `rngs`, `buffers` or
/// `initial_soc` lengths differ from the fleet's lane count.
pub fn collect_shared_policy_episode(
    fleet: &mut FleetEnv,
    policy: &ActorCritic,
    rngs: &mut [EctRng],
    buffers: &mut [RolloutBuffer],
    initial_soc: &[f64],
) -> ect_types::Result<Vec<f64>> {
    let mut states = Matrix::zeros(fleet.num_lanes(), fleet.state_dim());
    collect_episode(fleet, rngs, buffers, initial_soc, |fleet, rngs, pending| {
        fleet.observe_all_into(states.as_mut_slice());
        // One batched forward pass for every lane.
        let (probs, values) = policy.infer(&states);
        for (lane, t) in pending.iter_mut().enumerate() {
            let row = [probs[(lane, 0)], probs[(lane, 1)], probs[(lane, 2)]];
            t.action = rngs[lane].categorical(&row);
            t.state = states.row(lane).to_vec();
            t.action_prob = row[t.action];
            t.value = values[(lane, 0)];
        }
    })
}

/// One PPO policy, learner and history per lane.
struct PerLane {
    policies: Vec<ActorCritic>,
    learners: Vec<Ppo>,
    histories: Vec<TrainingHistory>,
}

impl Learner for PerLane {
    fn collect(
        &mut self,
        fleet: &mut FleetEnv,
        rngs: &mut [EctRng],
        buffers: &mut [RolloutBuffer],
        initial_soc: &[f64],
    ) -> ect_types::Result<()> {
        let returns = collect_fleet_episode(fleet, &self.policies, rngs, buffers, initial_soc)?;
        for (history, ret) in self.histories.iter_mut().zip(returns) {
            history.episode_returns.push(ret);
        }
        Ok(())
    }

    fn update(
        &mut self,
        buffers: &mut [RolloutBuffer],
        rngs: &mut [EctRng],
    ) -> ect_types::Result<()> {
        for lane in 0..buffers.len() {
            let stats = self.learners[lane].update(
                &mut self.policies[lane],
                &buffers[lane],
                &mut rngs[lane],
            )?;
            self.histories[lane].update_stats.push(stats);
            buffers[lane].clear();
        }
        Ok(())
    }
}

/// Trains one PPO policy **per lane** over lockstep fleet episodes.
///
/// `configs[i]` seeds lane `i`'s RNG, which then drives that lane's policy
/// initialisation, strata redraws, SoC randomisation, action sampling and
/// PPO minibatch shuffling. All configs must agree on `episodes` and
/// `episodes_per_update` (lanes advance in lockstep).
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
    let mut rngs: Vec<EctRng> = configs.iter().map(|c| EctRng::seed_from(c.seed)).collect();
    let trained = train_lanes(
        first.episodes,
        first.episodes_per_update,
        &mut rngs,
        "train_fleet lanes",
        |episode, rngs: &mut [EctRng]| factory.make(episode, rngs),
        |state_dim, rngs: &mut [EctRng]| {
            Ok(PerLane {
                policies: configs
                    .iter()
                    .zip(rngs.iter_mut())
                    .map(|(config, rng)| ActorCritic::new(state_dim, &config.net, rng))
                    .collect(),
                learners: configs
                    .iter()
                    .map(|config| Ppo::new(config.ppo.clone()))
                    .collect::<ect_types::Result<_>>()?,
                histories: vec![TrainingHistory::default(); configs.len()],
            })
        },
    )?;
    Ok(trained
        .policies
        .into_iter()
        .zip(trained.histories)
        .collect())
}

/// One lane's trajectory in one evaluation episode.
pub(crate) struct Trajectory {
    /// Sum of the lane's slot rewards.
    pub total: f64,
    /// Per-day sums of the lane's slot rewards.
    pub daily: Vec<f64>,
}

/// The one evaluation loop: `episodes` lockstep test episodes where
/// `act(fleet, actions)` fills every lane's action each slot; lane `i`'s
/// strata redraws and initial SoC come from `rngs[i]`. Returns one
/// [`Trajectory`] per `(episode, lane)` pair, episode-major.
///
/// The chosen actions are tallied locally and published once per call as
/// the `eval.action.{charge,discharge,idle}` counters.
pub(crate) fn evaluate_lanes<F, A>(
    mut factory: F,
    episodes: usize,
    rngs: &mut [EctRng],
    mut act: A,
) -> ect_types::Result<Vec<Trajectory>>
where
    F: FleetFactory,
    A: FnMut(&FleetEnv, &mut [BpAction]),
{
    let n = rngs.len();
    let mut trajectories = Vec::with_capacity(episodes * n);
    let mut initial_soc = vec![0.0; n];
    let mut actions = vec![BpAction::Idle; n];
    let mut counts = [0u64; 3];

    for episode in 0..episodes {
        let mut fleet = factory.make(episode, rngs)?;
        check_lanes("evaluation lanes", n, fleet.num_lanes())?;
        for (soc, rng) in initial_soc.iter_mut().zip(rngs.iter_mut()) {
            *soc = rng.uniform();
        }
        fleet.reset(&initial_soc);
        let mut slot_rewards: Vec<Vec<f64>> = vec![Vec::with_capacity(fleet.horizon()); n];
        loop {
            act(&fleet, &mut actions);
            for action in &actions {
                counts[action.index()] += 1;
            }
            let step = fleet.step_batch_soa(&actions);
            for (lane_rewards, &reward) in slot_rewards.iter_mut().zip(step.rewards) {
                lane_rewards.push(reward);
            }
            if step.done {
                break;
            }
        }
        trajectories.extend(slot_rewards.iter().map(|rewards| {
            Trajectory {
                total: rewards.iter().sum(),
                daily: rewards
                    .chunks(SLOTS_PER_DAY)
                    .map(|chunk| chunk.iter().sum())
                    .collect(),
            }
        }));
    }
    for (name, count) in ACTION_COUNTERS.iter().zip(counts) {
        ect_obs::counter_add(name, count);
    }
    Ok(trajectories)
}

/// The telemetry counter of each evaluated action, by action index.
const ACTION_COUNTERS: [&str; 3] = [
    "eval.action.charge",
    "eval.action.discharge",
    "eval.action.idle",
];

/// Sums trajectories, in the given order, into one summary:
/// `avg_episode_profit` is the total over `count` trajectories and
/// `avg_daily_reward` the total over all days.
pub(crate) fn summarise(
    trajectories: impl IntoIterator<Item = Trajectory>,
    count: usize,
) -> EvalSummary {
    let mut summary = EvalSummary::default();
    let mut total = 0.0;
    let mut days = 0;
    for trajectory in trajectories {
        total += trajectory.total;
        days += trajectory.daily.len();
        summary.daily_rewards.push(trajectory.daily);
    }
    summary.avg_episode_profit = total / count.max(1) as f64;
    summary.avg_daily_reward = total / days.max(1) as f64;
    summary
}

/// Evaluates on the one loop and summarises each lane over its episodes.
fn evaluate_per_lane<F, A>(
    factory: F,
    episodes: usize,
    seeds: &[u64],
    act: A,
) -> ect_types::Result<Vec<EvalSummary>>
where
    F: FleetFactory,
    A: FnMut(&FleetEnv, &mut [BpAction]),
{
    let n = seeds.len();
    let mut rngs: Vec<EctRng> = seeds.iter().map(|&s| EctRng::seed_from(s)).collect();
    let mut lanes: Vec<Vec<Trajectory>> = (0..n).map(|_| Vec::with_capacity(episodes)).collect();
    let trajectories = evaluate_lanes(factory, episodes, &mut rngs, act)?;
    for (i, trajectory) in trajectories.into_iter().enumerate() {
        lanes[i % n].push(trajectory);
    }
    Ok(lanes
        .into_iter()
        .map(|lane| summarise(lane, episodes))
        .collect())
}

/// Evaluates per-lane policies greedily over lockstep test episodes.
///
/// `seeds[i]` seeds lane `i`'s evaluation stream (strata redraw + SoC).
///
/// # Errors
///
/// Propagates factory failures; rejects mismatched `policies`/`seeds`.
pub fn evaluate_fleet_greedy<F: FleetFactory>(
    policies: &[ActorCritic],
    factory: F,
    episodes: usize,
    seeds: &[u64],
) -> ect_types::Result<Vec<EvalSummary>> {
    check_lanes("evaluate_fleet seeds", policies.len(), seeds.len())?;
    let mut state = Vec::new();
    evaluate_per_lane(factory, episodes, seeds, |fleet, actions| {
        state.resize(fleet.state_dim(), 0.0);
        for (lane, action) in actions.iter_mut().enumerate() {
            fleet.observe_into(lane, &mut state);
            *action = policies[lane].greedy_action(&state);
        }
    })
}

/// Evaluates one [`Scheduler`] on every lane over lockstep test episodes,
/// on the loop of [`evaluate_fleet_greedy`]; the factory must build
/// `seeds.len()` lanes.
///
/// # Errors
///
/// Propagates factory failures; rejects a fleet with the wrong lane count.
pub fn evaluate_fleet_scheduler<F: FleetFactory, S: Scheduler + ?Sized>(
    scheduler: &mut S,
    factory: F,
    episodes: usize,
    seeds: &[u64],
) -> ect_types::Result<Vec<EvalSummary>> {
    evaluate_per_lane(factory, episodes, seeds, |fleet, actions| {
        for (lane, action) in actions.iter_mut().enumerate() {
            *action = scheduler.act(fleet, lane);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::{alternating_price, toy_env};
    use ect_env::env::HubEnv;

    /// The trainer-test toy world, parameterised per lane so lanes differ.
    fn lane_env(slots: usize, lane: usize) -> HubEnv {
        toy_env(slots, 6, 0.4, 30.0, alternating_price(lane as f64 * 0.005))
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

    fn policy(seed: u64) -> ActorCritic {
        let dim = lane_env(24, 0).state_dim();
        let config = crate::actor_critic::ActorCriticConfig::default();
        ActorCritic::new(dim, &config, &mut EctRng::seed_from(seed))
    }

    fn rngs(n: usize) -> Vec<EctRng> {
        (0..n as u64).map(EctRng::seed_from).collect()
    }

    #[test]
    fn shared_policy_collection_matches_per_lane_path() {
        // One policy replicated across lanes: the batched forward pass must
        // reproduce the per-lane sample_action stream bit-for-bit.
        let lanes = 4;
        let policy = policy(77);
        let socs = vec![0.5; lanes];

        let mut fleet = fleet_factory(24, lanes)(0, &mut []).unwrap();
        let mut bufs_a = vec![RolloutBuffer::new(); lanes];
        let policies = vec![policy.clone(); lanes];
        let ret_a =
            collect_fleet_episode(&mut fleet, &policies, &mut rngs(lanes), &mut bufs_a, &socs)
                .unwrap();

        let mut bufs_b = vec![RolloutBuffer::new(); lanes];
        let ret_b = collect_shared_policy_episode(
            &mut fleet,
            &policy,
            &mut rngs(lanes),
            &mut bufs_b,
            &socs,
        )
        .unwrap();

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
        let factory = fleet_factory(24, 1);
        assert!(evaluate_fleet_greedy(&[policy(1)], factory, 1, &[1, 2]).is_err());
    }

    /// The mismatch context the per-lane collector and, when it takes the
    /// same inputs, the shared collector report on a three-lane fleet.
    fn mismatch(policies: usize, rngs_: usize, buffers: usize, socs: usize) -> Vec<&'static str> {
        let context = |result: ect_types::Result<Vec<f64>>| match result {
            Err(ect_types::EctError::ShapeMismatch { context, .. }) => context,
            other => panic!("expected a shape mismatch, got {other:?}"),
        };
        let mut fleet = fleet_factory(24, 3)(0, &mut []).unwrap();
        let mut buffers = vec![RolloutBuffer::new(); buffers];
        let (policy, socs) = (policy(5), vec![0.5; socs]);
        let per_lane = vec![policy.clone(); policies];
        let mut contexts = vec![context(collect_fleet_episode(
            &mut fleet,
            &per_lane,
            &mut rngs(rngs_),
            &mut buffers,
            &socs,
        ))];
        if policies == 3 {
            contexts.push(context(collect_shared_policy_episode(
                &mut fleet,
                &policy,
                &mut rngs(rngs_),
                &mut buffers,
                &socs,
            )));
        }
        contexts
    }

    #[test]
    fn collector_rejects_a_policy_count_mismatch() {
        assert_eq!(mismatch(2, 3, 3, 3), ["collector policies"]);
    }

    #[test]
    fn collectors_reject_an_rng_count_mismatch() {
        assert_eq!(mismatch(3, 4, 3, 3), ["collector rngs"; 2]);
    }

    #[test]
    fn collectors_reject_a_buffer_count_mismatch() {
        assert_eq!(mismatch(3, 3, 1, 3), ["collector buffers"; 2]);
    }

    #[test]
    fn collectors_reject_an_initial_soc_count_mismatch() {
        assert_eq!(mismatch(3, 3, 3, 2), ["collector initial SoC"; 2]);
    }
}
