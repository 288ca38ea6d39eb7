//! Determinism: identical seeds reproduce identical worlds, schedules,
//! models and evaluations; different seeds differ.

use ect_core::prelude::*;
use ect_price::eval::evaluate_engine as eval_engine;
use ect_price::features::PricingDataset;

fn mini() -> SystemConfig {
    let mut config = SystemConfig::miniature();
    config.world.num_hubs = 2;
    config.pricing_history_slots = 24 * 7 * 4;
    config.pricing_test_slots = 24 * 7;
    config.ect_price.epochs = 2;
    config
}

#[test]
fn worlds_are_reproducible() {
    let a = EctHubSystem::new(mini()).unwrap();
    let b = EctHubSystem::new(mini()).unwrap();
    assert_eq!(a.world().rtp, b.world().rtp);
    for h in 0..2 {
        assert_eq!(a.world().hubs[h].weather, b.world().hubs[h].weather);
        assert_eq!(a.world().hubs[h].traffic, b.world().hubs[h].traffic);
    }
}

#[test]
fn different_world_seeds_differ() {
    let a = EctHubSystem::new(mini()).unwrap();
    let mut other = mini();
    other.world.seed ^= 0xFFFF;
    let b = EctHubSystem::new(other).unwrap();
    assert_ne!(a.world().rtp, b.world().rtp);
}

/// FNV-1a over the lengths and every encoded column of both datasets.
fn pricing_checksum(datasets: &(PricingDataset, PricingDataset)) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for data in [&datasets.0, &datasets.1] {
        let words = std::iter::once(data.len() as u64)
            .chain(data.stations.iter().map(|&v| v as u64))
            .chain(data.times.iter().map(|&v| v as u64))
            .chain(data.treated.iter().map(|v| v.to_bits()))
            .chain(data.charged.iter().map(|v| v.to_bits()))
            .chain(data.strata.iter().map(|s| s.index() as u64))
            .chain(data.slots.iter().map(|s| s.as_usize() as u64));
        for byte in words.flat_map(u64::to_le_bytes) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

#[test]
fn pricing_datasets_match_golden_checksums() {
    // The miniature system above, and the twelve-hub, 34-week history of
    // the benchmark's paper pipeline.
    let twelve = SystemConfig {
        pricing_history_slots: 24 * 7 * 26,
        pricing_test_slots: 24 * 7 * 8,
        ..SystemConfig::default()
    };
    let got: Vec<u64> = [mini(), twelve]
        .into_iter()
        .map(|config| pricing_checksum(&EctHubSystem::new(config).unwrap().pricing_datasets()))
        .collect();
    assert_eq!(got, [0xb29e_23d6_da85_1ad7, 0xf814_bc85_478b_7eca]);
}

#[test]
fn pricing_training_is_reproducible() {
    let run = || {
        let system = EctHubSystem::new(mini()).unwrap();
        let (train, test) = system.pricing_datasets();
        let mut rng = EctRng::seed_from(77);
        let engine =
            ect_core::train_engine(&system, PricingMethod::EctPrice, &train, &mut rng).unwrap();
        eval_engine(engine.as_ref(), &test, 0.2)
    };
    let a = run();
    let b = run();
    assert_eq!(a.treated, b.treated);
    assert_eq!(a.reward, b.reward);
}

#[test]
fn drl_training_is_reproducible() {
    let run = || {
        let system = EctHubSystem::new(mini()).unwrap();
        ect_core::run_hubs_method_batched(
            &system,
            &[HubId::new(0)],
            &ect_price::engine::NeverDiscount,
            "NoDiscount",
        )
        .unwrap()
        .remove(0)
    };
    let a = run();
    let b = run();
    assert_eq!(a.avg_daily_reward, b.avg_daily_reward);
    assert_eq!(a.daily_series, b.daily_series);
    assert_eq!(a.final_training_return, b.final_training_return);
}
