//! Golden checksums of whole experiment cells on `SystemConfig::miniature()`.
//!
//! FNV-1a over the bits of each cell's `avg_daily_reward`, `daily_series`
//! and `final_training_return`, captured from the per-hub sequential cells
//! that preceded the fleet path.

use ect_core::prelude::*;
use ect_price::engine::NeverDiscount;

/// FNV-1a over the little-endian bits of every cell value, in order.
fn checksum(cells: &[HubExperimentResult]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for cell in cells {
        let values = std::iter::once(cell.avg_daily_reward)
            .chain(cell.daily_series.iter().copied())
            .chain([cell.final_training_return]);
        for byte in values.flat_map(|v| v.to_bits().to_le_bytes()) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// The hub-0 NoDiscount DRL cell of a miniature system, hashed.
fn drl_cell_checksum(config: SystemConfig) -> u64 {
    let system = EctHubSystem::new(config).unwrap();
    let hub = [HubId::new(0)];
    checksum(&run_hubs_method_batched(&system, &hub, &NeverDiscount, "NoDiscount").unwrap())
}

#[test]
fn rule_based_cells_match_golden_checksum() {
    let system = EctHubSystem::new(SystemConfig::miniature()).unwrap();
    let hubs: Vec<HubId> = (0..system.world().num_hubs()).map(HubId::new).collect();
    let mut cells = Vec::new();
    for mut scheduler in [
        Box::new(NoBattery) as Box<dyn Scheduler>,
        Box::new(GreedyPrice::default_thresholds()),
        Box::new(TimeOfUse),
    ] {
        cells.extend(
            run_hubs_scheduler_batched(&system, &hubs, &NeverDiscount, scheduler.as_mut()).unwrap(),
        );
    }
    assert!(cells.iter().all(|c| c.final_training_return.is_nan()));
    assert_eq!(
        checksum(&cells),
        0x1abb_102f_cc9b_a6c1,
        "rule-based cells moved"
    );
}

#[test]
fn drl_cell_matches_golden_checksum() {
    let sum = drl_cell_checksum(SystemConfig::miniature());
    assert_eq!(sum, 0x2da1_4d3c_67a0_ba42, "NoDiscount DRL cell moved");
}

#[test]
fn ablation_sub_config_cell_matches_golden_checksum() {
    let mut config = SystemConfig::miniature();
    config.trainer.episodes /= 2;
    config.trainer.ppo.entropy_coef = 0.01;
    let sum = drl_cell_checksum(config);
    assert_eq!(
        sum, 0x7cbd_a11e_16d3_6d1c,
        "halved-episode ablation cell moved"
    );
}
