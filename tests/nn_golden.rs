//! Golden checksums of trained `ect-nn` models.
//!
//! The dense kernels promise bit-identical results (every product element
//! accumulates its terms in ascending order, in plain mul-then-add). These
//! tests pin that promise to numbers: an FNV-1a hash over the bits of every
//! trained parameter, for a small per-lane PPO fleet run, a shared-policy
//! (generalist) run and an ECT-Price training run. A kernel change that
//! moves a single bit of any weight changes the hash.

use ect_drl::collector::train_fleet;
use ect_drl::generalist::{train_generalist_source, GeneralistConfig};
use ect_env::fleet::{fleet_env_for_hubs, fleet_env_for_scenarios_augmented};
use ect_hub::prelude::*;
use ect_nn::param::Parameterized;
use ect_price::model::{EctPriceConfig, EctPriceModel};

/// PPO fleet: lanes (one hub each), slots per episode, observation window.
const HUBS: usize = 3;
const SLOTS: usize = 24 * 4;
const WINDOW: usize = 6;
const EPISODES: usize = 2;

/// FNV-1a over the little-endian bits of every parameter value, visited in
/// the model's parameter order.
fn weight_checksum(model: &mut impl Parameterized) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    model.for_each_param(&mut |p| {
        for v in p.value.as_slice() {
            for byte in v.to_bits().to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        }
    });
    hash
}

fn world_config() -> WorldConfig {
    WorldConfig {
        num_hubs: HUBS as u32,
        horizon_slots: SLOTS,
        ..WorldConfig::default()
    }
}

#[test]
fn trained_fleet_policies_match_golden_checksums() {
    let world = WorldDataset::generate(world_config()).unwrap();
    let hubs: Vec<HubId> = (0..HUBS as u32).map(HubId::new).collect();
    let configs: Vec<TrainerConfig> = (0..HUBS)
        .map(|lane| TrainerConfig {
            seed: 0x601D_u64 ^ ((lane as u64) << 16),
            ..TrainerConfig::quick(EPISODES)
        })
        .collect();
    let discounts = vec![DiscountSchedule::none(SLOTS); HUBS];
    let trained = train_fleet(&configs, |_episode: usize, rngs: &mut [EctRng]| {
        fleet_env_for_hubs(&world, &hubs, 0, SLOTS, &discounts, WINDOW, rngs)
    })
    .unwrap();

    let sums: Vec<u64> = trained
        .into_iter()
        .map(|(mut policy, _)| weight_checksum(&mut policy))
        .collect();
    assert_eq!(sums, GOLDEN_FLEET, "trained per-lane weights moved");
}

#[test]
fn trained_shared_policy_matches_golden_checksums() {
    let world = world_config();
    let config = GeneralistConfig {
        trainer: TrainerConfig {
            seed: 0x601D,
            ..TrainerConfig::quick(EPISODES)
        },
        lanes: HUBS,
    };
    let mixture = ScenarioMixture::uniform(scenario_library(SLOTS)).unwrap();
    let discounts = vec![DiscountSchedule::none(SLOTS); HUBS];
    let factory = |_episode: usize, specs: &[&ScenarioSpec], rngs: &mut [EctRng]| {
        let lanes: Vec<(ScenarioSpec, HubId)> = (0..HUBS as u32)
            .map(|lane| (specs[lane as usize].clone(), HubId::new(lane)))
            .collect();
        let aug = ObsAugmentation::SCENARIO;
        fleet_env_for_scenarios_augmented(&world, &lanes, 0, SLOTS, &discounts, WINDOW, &aug, rngs)
    };
    let (mut policy, history) =
        train_generalist_source(&config, &ScenarioSource::Fixed(mixture), factory).unwrap();

    let returns: Vec<u64> = history
        .episode_returns
        .iter()
        .map(|r| r.to_bits())
        .collect();
    assert_eq!(
        returns, GOLDEN_SHARED_RETURNS,
        "lane-mean episode returns moved"
    );
    assert_eq!(
        weight_checksum(&mut policy),
        GOLDEN_SHARED,
        "trained shared-policy weights moved"
    );
}

#[test]
fn trained_price_model_matches_golden_checksum() {
    let system = EctHubSystem::new(SystemConfig::miniature()).unwrap();
    let (train, _) = system.pricing_datasets();
    let config = EctPriceConfig {
        epochs: 2,
        ..EctPriceConfig::default()
    };
    let mut rng = EctRng::seed_from(0x601D);
    let mut model = EctPriceModel::new(system.feature_space(), &config, &mut rng);
    let loss = model.train(&train, &config, &mut rng).unwrap();

    assert_eq!(
        loss.to_bits(),
        GOLDEN_PRICE_LOSS_BITS,
        "final epoch loss moved"
    );
    assert_eq!(
        weight_checksum(&mut model),
        GOLDEN_PRICE,
        "trained ECT-Price weights moved"
    );
}

// Captured with the original scalar (pre-tiling) kernels.
const GOLDEN_FLEET: [u64; HUBS] = [
    0x6036_d357_96e6_e875,
    0x8ea1_a01c_d348_a715,
    0xef2d_8708_f20e_3d0c,
];
// Captured from the shared-policy trainer before it moved onto the common
// episode loop.
const GOLDEN_SHARED: u64 = 0x6b41_4861_307a_2c96;
const GOLDEN_SHARED_RETURNS: [u64; EPISODES] = [0x4080_b806_a37e_3ee0, 0x4081_9b38_c0fa_a77d];
const GOLDEN_PRICE: u64 = 0x0782_c26e_9bc0_9b8b;
const GOLDEN_PRICE_LOSS_BITS: u64 = 0x3fe7_eedf_4235_33a5;
