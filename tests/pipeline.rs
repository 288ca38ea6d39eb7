//! End-to-end pipeline: world → pricing engines → discount schedules →
//! DRL scheduling → fleet report, through the [`Session`] entry points.

use ect_core::prelude::*;
use ect_core::report::FleetReport;
use ect_price::engine::NeverDiscount;

fn miniature_config() -> SystemConfig {
    let mut config = SystemConfig::miniature();
    config.world.num_hubs = 2;
    config.trainer.episodes = 2;
    config.test_episodes = 2;
    config
}

fn session() -> Session {
    SessionBuilder::new(miniature_config())
        .threads(2)
        .build()
        .unwrap()
}

#[test]
fn full_pipeline_produces_a_consistent_report() {
    let session = session();
    let system = session.system().unwrap();
    let (train, test) = system.pricing_datasets();
    assert!(!train.is_empty() && !test.is_empty());

    let mut rng = EctRng::seed_from(1);
    let ours = ect_core::train_engine(&system, PricingMethod::EctPrice, &train, &mut rng).unwrap();

    let engines: Vec<(String, Box<dyn PricingEngine>)> = vec![
        ("Ours".into(), ours),
        ("NoDiscount".into(), Box::new(NeverDiscount)),
    ];
    let cells = session.fleet(&engines).unwrap();
    assert_eq!(cells.len(), 2 * 2); // hubs × engines

    let report = FleetReport::new(cells);
    assert_eq!(report.hubs(), vec![0, 1]);
    assert_eq!(report.methods().len(), 2);
    for hub in report.hubs() {
        for method in report.methods() {
            let cell = report.cell(hub, &method).unwrap();
            assert!(cell.avg_daily_reward.is_finite());
            assert_eq!(cell.daily_series.len(), 30);
        }
    }
    let md = report.table3_markdown();
    assert!(md.contains("| Ours |") && md.contains("| NoDiscount |"));
}

#[test]
fn pricing_table_reproduces_table2_shape() {
    let table = session().pricing_table(&[0.1, 0.2]).unwrap();
    // Four methods + oracle, each evaluated at both discounts.
    assert_eq!(table.methods.len(), 5);
    for m in &table.methods {
        assert_eq!(m.per_discount.len(), 2);
        // Reward decays (weakly) as the discount grows for any fixed policy
        // that treats the same set — allow equality for NoDiscount-like rows.
        assert!(m.per_discount[0].reward + 1e-9 >= 0.0);
    }
    // Oracle dominates everything at every discount.
    let oracle = &table.methods[4];
    assert_eq!(oracle.method, "Oracle");
    for d in 0..2 {
        for m in &table.methods[..4] {
            assert!(m.per_discount[d].reward <= oracle.per_discount[d].reward + 1e-9);
        }
    }
}

#[test]
fn discount_schedules_flow_into_the_environment() {
    let system = session().system().unwrap();
    let schedule =
        ect_core::schedule_for_hub(&system, &ect_price::engine::AlwaysDiscount, HubId::new(0))
            .unwrap();
    assert_eq!(schedule.len(), system.world().horizon());
    assert_eq!(schedule.discounted_count(), schedule.len());
    // And the discounted price shows up in the env's slot breakdowns.
    let mut rng = EctRng::seed_from(3);
    let mut env = ect_env::fleet::env_for_hub(
        system.world(),
        HubId::new(0),
        0,
        48,
        DiscountSchedule::from_levels(vec![0.2; 48]).unwrap(),
        12,
        &mut rng,
    )
    .unwrap();
    env.reset(0.5);
    let step = env.step(BpAction::Idle);
    assert!((step.breakdown.srtp.as_f64() - 0.4).abs() < 1e-12);
}
