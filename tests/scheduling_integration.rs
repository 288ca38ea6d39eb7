//! Scheduling stage: DRL training on the real hub environment, rule-based
//! comparators, and reward accounting consistency.

use ect_core::prelude::*;
use ect_price::engine::{AlwaysDiscount, NeverDiscount};

fn system() -> EctHubSystem {
    let mut config = SystemConfig::miniature();
    config.trainer.episodes = 3;
    config.test_episodes = 3;
    EctHubSystem::new(config).unwrap()
}

/// One rule-based cell: `hub` alone as a one-lane fleet.
fn rule_cell(
    s: &EctHubSystem,
    hub: u32,
    engine: &dyn PricingEngine,
    scheduler: &mut dyn Scheduler,
) -> HubExperimentResult {
    let hub = [HubId::new(hub)];
    run_hubs_scheduler_batched(s, &hub, engine, scheduler)
        .unwrap()
        .remove(0)
}

#[test]
fn drl_training_runs_on_every_hub() {
    let s = system();
    let hubs: Vec<HubId> = (0..s.world().num_hubs()).map(HubId::new).collect();
    let cells = run_hubs_method_batched(&s, &hubs, &NeverDiscount, "NoDiscount").unwrap();
    assert_eq!(cells.iter().map(|r| r.hub).collect::<Vec<_>>(), [0, 1, 2]);
    for r in &cells {
        assert!(r.avg_daily_reward.is_finite(), "hub {}", r.hub);
        assert_eq!(r.daily_series.len(), 30);
        assert!(r.final_training_return.is_finite());
    }
}

#[test]
fn discounting_changes_charging_activity() {
    // With discounts, incentive strata convert: more charging hours and
    // (at c = 0.2) more revenue than never discounting.
    let s = system();
    let never = rule_cell(&s, 0, &NeverDiscount, &mut NoBattery);
    let always = rule_cell(&s, 0, &AlwaysDiscount, &mut NoBattery);
    assert!(
        always.avg_daily_reward != never.avg_daily_reward,
        "discounts must change outcomes"
    );
}

#[test]
fn rule_based_schedulers_rank_sanely() {
    let s = system();
    let mut results = Vec::new();
    for (name, mut sched) in [
        ("NoBattery", Box::new(NoBattery) as Box<dyn Scheduler>),
        ("GreedyPrice", Box::new(GreedyPrice::default_thresholds())),
        ("TimeOfUse", Box::new(TimeOfUse)),
    ] {
        let r = rule_cell(&s, 1, &NeverDiscount, sched.as_mut());
        assert!(r.avg_daily_reward.is_finite());
        results.push((name, r.avg_daily_reward));
    }
    // All three must at least keep the hub profitable in this world.
    for (name, reward) in &results {
        assert!(*reward > 0.0, "{name} made the hub unprofitable: {reward}");
    }
}

#[test]
fn evaluation_is_deterministic_given_seeds() {
    let s = system();
    let a = rule_cell(&s, 2, &NeverDiscount, &mut NoBattery);
    let b = rule_cell(&s, 2, &NeverDiscount, &mut NoBattery);
    assert_eq!(a.avg_daily_reward, b.avg_daily_reward);
    assert_eq!(a.daily_series, b.daily_series);
    // A hub's cell does not depend on which hubs share its fleet.
    let hubs: Vec<HubId> = (0..s.world().num_hubs()).map(HubId::new).collect();
    let all = run_hubs_scheduler_batched(&s, &hubs, &NeverDiscount, &mut NoBattery).unwrap();
    assert_eq!(
        all[2].avg_daily_reward.to_bits(),
        a.avg_daily_reward.to_bits()
    );
    assert_eq!(all[2].daily_series, a.daily_series);
}
