//! Coupling-layer equivalence suite: the networked multi-hub features
//! (shared feeder, EV spillover, mutual observations) must be *pure
//! additions*. Coupling disabled, the fleet engine reproduces the uncoupled
//! engine bit for bit; coupling enabled, results are identical across
//! 1/4/8 work-stealing dispatch threads, and training under coupling is
//! fully deterministic. The coupled kernel's own bits are pinned by
//! `tests/engine_golden.rs`.

use ect_core::run_indexed;
use ect_drl::collector::train_fleet;
use ect_drl::trainer::TrainerConfig;
use ect_env::battery::BpAction;
use ect_env::coupling::{CouplingConfig, FeederConfig, SpilloverConfig};
use ect_env::fleet::fleet_env_for_hubs;
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
    0xC0DE_u64 ^ ((lane as u64) << 16)
}

fn fleet_for(world: &WorldDataset) -> FleetEnv {
    let mut rngs: Vec<EctRng> = (0..HUBS)
        .map(|lane| EctRng::seed_from(lane_seed(lane)))
        .collect();
    fleet_env_for_hubs(
        world,
        &hub_ids(),
        0,
        SLOTS,
        &vec![DiscountSchedule::none(SLOTS); HUBS],
        WINDOW,
        &mut rngs,
    )
    .unwrap()
}

/// A coupling configuration with every feature on and the feeder cap low
/// enough to bind whenever an EV charges: asymmetric demand scales leave
/// headroom on half the ring so spillover actually flows.
fn active_coupling() -> CouplingConfig {
    CouplingConfig {
        topology: HubTopology::ring(HUBS).unwrap(),
        feeder: Some(FeederConfig {
            cap_kw: 50.0,
            curtailment_price: DollarsPerKwh::new(0.30),
        }),
        spillover: Some(SpilloverConfig {
            ev_demand_scale: vec![1.8, 0.3, 1.8, 0.3],
        }),
        mutual_obs: true,
    }
}

fn cycled_actions(t: usize) -> Vec<BpAction> {
    let cycle = [BpAction::Charge, BpAction::Discharge, BpAction::Idle];
    (0..HUBS).map(|lane| cycle[(t + lane) % 3]).collect()
}

#[test]
fn inactive_coupling_is_bit_identical_to_uncoupled_engine() {
    let world = world();
    let mut plain = fleet_for(&world);
    let mut inactive = fleet_for(&world)
        .with_coupling(CouplingConfig::inactive(HubTopology::ring(HUBS).unwrap()))
        .unwrap();
    assert!(inactive.coupling().is_none(), "inactive coupling is erased");
    assert_eq!(inactive.state_dim(), plain.state_dim());

    let socs = [0.2, 0.4, 0.6, 0.8];
    let dim = HUBS * plain.state_dim();
    plain.reset(&socs);
    inactive.reset(&socs);
    for t in 0..SLOTS {
        let actions = cycled_actions(t);
        let p_rewards = plain.step_batch_soa(&actions).rewards.to_vec();
        let step = inactive.step_batch_soa(&actions);
        for (lane, reward) in p_rewards.iter().enumerate() {
            assert_eq!(
                reward.to_bits(),
                step.rewards[lane].to_bits(),
                "slot {t} lane {lane} reward"
            );
        }
        let (mut p_obs, mut obs) = (vec![0.0; dim], vec![0.0; dim]);
        plain.observe_all_into(&mut p_obs);
        inactive.observe_all_into(&mut obs);
        for (i, (a, b)) in p_obs.iter().zip(&obs).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "slot {t} obs idx {i}");
        }
        for lane in 0..HUBS {
            assert_eq!(
                plain.breakdown(lane),
                inactive.breakdown(lane),
                "slot {t} lane {lane} breakdown"
            );
        }
    }
}

/// One coupled greedy-price episode, returning every reward as raw bits.
fn coupled_episode_bits(world: &WorldDataset) -> Vec<u64> {
    let mut fleet = fleet_for(world).with_coupling(active_coupling()).unwrap();
    let thresholds = GreedyPrice::default_thresholds();
    fleet.reset(&[0.5; HUBS]);
    let mut bits = Vec::with_capacity(SLOTS * HUBS);
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
        bits.extend(step.rewards.iter().map(|r| r.to_bits()));
        if step.done {
            break;
        }
    }
    bits
}

#[test]
fn coupled_results_are_identical_across_dispatch_threads() {
    let world = world();
    let reference = coupled_episode_bits(&world);
    for threads in [1usize, 4, 8] {
        let jobs: Vec<usize> = (0..6).collect();
        let results =
            run_indexed(jobs, threads, |_idx, _job| Ok(coupled_episode_bits(&world))).unwrap();
        for (job, bits) in results.iter().enumerate() {
            assert_eq!(
                &reference, bits,
                "coupled episode diverged on job {job} with {threads} dispatch threads"
            );
        }
    }
}

#[test]
fn coupled_training_is_fully_deterministic() {
    let world = world();
    let episodes = 2;
    let configs: Vec<TrainerConfig> = (0..HUBS)
        .map(|lane| TrainerConfig {
            episodes,
            seed: lane_seed(lane),
            ..TrainerConfig::quick(episodes)
        })
        .collect();
    let run = || {
        train_fleet(&configs, |_episode: usize, rngs: &mut [EctRng]| {
            fleet_env_for_hubs(
                &world,
                &hub_ids(),
                0,
                SLOTS,
                &vec![DiscountSchedule::none(SLOTS); HUBS],
                WINDOW,
                rngs,
            )
            .and_then(|fleet| fleet.with_coupling(active_coupling()))
        })
        .unwrap()
    };
    let first = run();
    let second = run();
    for lane in 0..HUBS {
        let (a_policy, a_history) = &first[lane];
        let (b_policy, b_history) = &second[lane];
        assert_eq!(
            a_history.episode_returns, b_history.episode_returns,
            "lane {lane} returns"
        );
        let probe: Vec<f64> = (0..a_policy.state_dim())
            .map(|i| (i as f64 * 0.37).sin() * 0.5)
            .collect();
        let (ap, av) = a_policy.evaluate_one(&probe);
        let (bp, bv) = b_policy.evaluate_one(&probe);
        assert_eq!(av.to_bits(), bv.to_bits(), "lane {lane} critic");
        for (a, b) in ap.iter().zip(&bp) {
            assert_eq!(a.to_bits(), b.to_bits(), "lane {lane} actor");
        }
    }
}
