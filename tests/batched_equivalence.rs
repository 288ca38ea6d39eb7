//! Batched-vs-sequential equivalence: under paired seeds, the lockstep
//! [`FleetEnv`] loops must reproduce the single-hub [`HubEnv`] loops
//! *bit-for-bit* — PPO rollout buffers, fully trained policies and
//! scheduler profits. Both step the same slot kernel, whose own bits are
//! pinned by `tests/engine_golden.rs`; what these tests guard is the
//! separate collection and training loops.

use ect_drl::collector::{collect_fleet_episode, train_fleet};
use ect_drl::rollout::RolloutBuffer;
use ect_drl::trainer::{train, TrainerConfig};
use ect_drl::{ActorCritic, ActorCriticConfig};
use ect_env::battery::BpAction;
use ect_env::env::HubEnv;
use ect_env::fleet::{env_for_hub, fleet_env_for_hubs};
use ect_env::tariff::DiscountSchedule;
use ect_env::vec_env::FleetEnv;
use ect_hub::prelude::*;

const HUBS: usize = 4;
const SLOTS: usize = 24 * 4;
const WINDOW: usize = 6;

fn world() -> WorldDataset {
    WorldDataset::generate(WorldConfig {
        num_hubs: HUBS as u32,
        horizon_slots: SLOTS,
        ..WorldConfig::default()
    })
    .unwrap()
}

fn hub_ids() -> Vec<HubId> {
    (0..HUBS as u32).map(HubId::new).collect()
}

fn lane_seed(lane: usize) -> u64 {
    0xBA7C_u64 ^ ((lane as u64) << 16)
}

/// Sequential envs and the batched fleet, built from identical per-lane
/// RNG streams (so the per-episode strata draws match).
fn paired_envs(world: &WorldDataset) -> (Vec<HubEnv>, FleetEnv) {
    let seq: Vec<HubEnv> = hub_ids()
        .into_iter()
        .enumerate()
        .map(|(lane, hub)| {
            let mut rng = EctRng::seed_from(lane_seed(lane));
            env_for_hub(
                world,
                hub,
                0,
                SLOTS,
                DiscountSchedule::none(SLOTS),
                WINDOW,
                &mut rng,
            )
            .unwrap()
        })
        .collect();
    let mut rngs: Vec<EctRng> = (0..HUBS)
        .map(|lane| EctRng::seed_from(lane_seed(lane)))
        .collect();
    let fleet = fleet_env_for_hubs(
        world,
        &hub_ids(),
        0,
        SLOTS,
        &vec![DiscountSchedule::none(SLOTS); HUBS],
        WINDOW,
        &mut rngs,
    )
    .unwrap();
    (seq, fleet)
}

#[test]
fn ppo_rollout_buffers_are_bit_identical() {
    let world = world();
    let (mut seq, mut fleet) = paired_envs(&world);

    // One shared-architecture policy per lane, deterministically seeded.
    let state_dim = seq[0].state_dim();
    let policies: Vec<ActorCritic> = (0..HUBS)
        .map(|lane| {
            let mut rng = EctRng::seed_from(0x9019 + lane as u64);
            ActorCritic::new(state_dim, &ActorCriticConfig::default(), &mut rng)
        })
        .collect();

    // Sequential collection: the trainer's inner loop, one hub at a time.
    let socs = [0.5, 0.3, 0.7, 0.9];
    let mut seq_buffers: Vec<RolloutBuffer> = vec![RolloutBuffer::new(); HUBS];
    for lane in 0..HUBS {
        let mut rng = EctRng::seed_from(0xAC70 + lane as u64);
        let env = &mut seq[lane];
        let mut state = env.reset(socs[lane]);
        loop {
            let (action, prob, value) = policies[lane].sample_action(&state, &mut rng);
            let step = env.step(action);
            seq_buffers[lane].push(ect_drl::rollout::Transition {
                state: std::mem::take(&mut state),
                action: action.index(),
                action_prob: prob,
                reward: step.reward,
                value,
                done: step.done,
            });
            state = step.state;
            if step.done {
                break;
            }
        }
    }

    // Batched collection: all four lanes in lockstep.
    let mut rngs: Vec<EctRng> = (0..HUBS)
        .map(|lane| EctRng::seed_from(0xAC70 + lane as u64))
        .collect();
    let mut bat_buffers: Vec<RolloutBuffer> = vec![RolloutBuffer::new(); HUBS];
    collect_fleet_episode(&mut fleet, &policies, &mut rngs, &mut bat_buffers, &socs);

    for lane in 0..HUBS {
        assert_eq!(seq_buffers[lane].len(), SLOTS);
        assert_eq!(
            seq_buffers[lane].transitions(),
            bat_buffers[lane].transitions(),
            "lane {lane} rollout buffer"
        );
    }
}

#[test]
fn fleet_training_reproduces_sequential_training() {
    // End to end over the world data, strata redrawn every episode: the
    // batched trainer must land on bit-identical returns and weights.
    let world = world();
    let episodes = 3;
    let configs: Vec<TrainerConfig> = (0..HUBS)
        .map(|lane| TrainerConfig {
            episodes,
            seed: lane_seed(lane),
            ..TrainerConfig::quick(episodes)
        })
        .collect();

    let discounts = vec![DiscountSchedule::none(SLOTS); HUBS];
    let batched = train_fleet(&configs, |_episode: usize, rngs: &mut [EctRng]| {
        fleet_env_for_hubs(&world, &hub_ids(), 0, SLOTS, &discounts, WINDOW, rngs)
    })
    .unwrap();

    for (lane, config) in configs.iter().enumerate() {
        let world = &world;
        let hub = HubId::new(lane as u32);
        let (seq_policy, seq_history) = train(config, move |_e: usize, rng: &mut EctRng| {
            env_for_hub(
                world,
                hub,
                0,
                SLOTS,
                DiscountSchedule::none(SLOTS),
                WINDOW,
                rng,
            )
        })
        .unwrap();
        let (bat_policy, bat_history) = &batched[lane];

        assert_eq!(
            seq_history.episode_returns, bat_history.episode_returns,
            "lane {lane} training returns"
        );
        let probe: Vec<f64> = (0..seq_policy.state_dim())
            .map(|i| (i as f64 * 0.37).sin() * 0.5)
            .collect();
        let (sp, sv) = seq_policy.evaluate_one(&probe);
        let (bp, bv) = bat_policy.evaluate_one(&probe);
        assert_eq!(sv.to_bits(), bv.to_bits(), "lane {lane} critic");
        for (a, b) in sp.iter().zip(&bp) {
            assert_eq!(a.to_bits(), b.to_bits(), "lane {lane} actor");
        }
    }
}

#[test]
fn greedy_price_profits_match_sequential_schedulers() {
    // Cross-check through the public scheduler surface: a greedy-price rule
    // applied lane-wise on the fleet equals the per-hub scheduler runs.
    let world = world();
    let (mut seq, mut fleet) = paired_envs(&world);
    let thresholds = GreedyPrice::default_thresholds();

    let mut seq_profit = Vec::new();
    for env in seq.iter_mut() {
        let mut sched = thresholds;
        let (profit, trail) = ect_drl::run_episode(env, &mut sched, 0.5);
        assert_eq!(trail.len(), SLOTS);
        seq_profit.push(profit);
    }

    // Same rule over the fleet: read each lane's shared RTP series at the
    // current slot, exactly as `GreedyPrice::act` does on a `HubEnv`.
    fleet.reset(&[0.5; HUBS]);
    let mut totals = [0.0f64; HUBS];
    let mut actions = vec![BpAction::Idle; HUBS];
    loop {
        let t = fleet.slot().min(fleet.horizon() - 1);
        for (lane, action) in actions.iter_mut().enumerate() {
            let price = fleet.series()[lane].rtp[t].as_f64();
            *action = if price <= thresholds.low {
                BpAction::Charge
            } else if price >= thresholds.high {
                BpAction::Discharge
            } else {
                BpAction::Idle
            };
        }
        let step = fleet.step_batch_soa(&actions);
        for (total, reward) in totals.iter_mut().zip(step.rewards) {
            *total += reward;
        }
        if step.done {
            break;
        }
    }

    for lane in 0..HUBS {
        assert_eq!(
            seq_profit[lane].to_bits(),
            totals[lane].to_bits(),
            "lane {lane} greedy-price profit"
        );
    }
}
