//! Scenario-grid benchmarks: the stress library stepped as heterogeneous
//! [`FleetEnv`] lanes — one lockstep engine for every scenario — plus
//! scenario world-generation cost relative to the baseline.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ect_data::dataset::{WorldConfig, WorldDataset};
use ect_data::scenario::{scenario_library, ScenarioSpec};
use ect_env::battery::BpAction;
use ect_env::fleet::fleet_env_for_scenarios;
use ect_env::tariff::DiscountSchedule;
use ect_env::vec_env::FleetEnv;
use ect_types::ids::HubId;
use ect_types::rng::EctRng;
use std::time::Duration;

const SLOTS: usize = 24 * 7; // one week per scenario lane
const WINDOW: usize = 24;

fn config() -> WorldConfig {
    WorldConfig {
        num_hubs: 2,
        horizon_slots: SLOTS,
        ..WorldConfig::default()
    }
}

fn lanes() -> Vec<(ScenarioSpec, HubId)> {
    scenario_library(SLOTS)
        .into_iter()
        .map(|spec| (spec, HubId::new(0)))
        .collect()
}

fn scenario_fleet() -> FleetEnv {
    let lanes = lanes();
    let discounts = vec![DiscountSchedule::none(SLOTS); lanes.len()];
    let mut rngs: Vec<EctRng> = (0..lanes.len())
        .map(|l| EctRng::seed_from(500 + l as u64))
        .collect();
    fleet_env_for_scenarios(&config(), &lanes, 0, SLOTS, &discounts, WINDOW, &mut rngs).unwrap()
}

/// Stepping the whole stress library for one hub as one heterogeneous
/// lockstep batch.
fn bench_scenario_grid_stepping(c: &mut Criterion) {
    let fleet = scenario_fleet();
    let n = fleet.num_lanes();
    let actions = [BpAction::Charge, BpAction::Discharge, BpAction::Idle];

    let mut group = c.benchmark_group("scenario_grid_step");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));

    group.bench_function("batched_scenario_lanes", |b| {
        b.iter_batched(
            || fleet.clone(),
            |mut fleet| {
                let mut total = 0.0;
                let mut batch_actions = vec![BpAction::Idle; n];
                fleet.reset(&vec![0.5; n]);
                for t in 0..SLOTS {
                    for (lane, a) in batch_actions.iter_mut().enumerate() {
                        *a = actions[(t + lane) % 3];
                    }
                    let step = fleet.step_batch_soa(&batch_actions);
                    total += step.rewards.iter().sum::<f64>();
                }
                std::hint::black_box(total)
            },
            BatchSize::SmallInput,
        )
    });

    group.finish();
}

/// Scenario world generation: the modifier pipeline's overhead over the
/// baseline generators.
fn bench_scenario_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("scenario_generation");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));

    group.bench_function("baseline_world", |b| {
        b.iter(|| std::hint::black_box(WorldDataset::generate(config()).unwrap()))
    });
    group.bench_function("stress_library_worlds", |b| {
        b.iter(|| {
            for spec in scenario_library(SLOTS) {
                std::hint::black_box(WorldDataset::generate_scenario(config(), &spec).unwrap());
            }
        })
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_secs(1));
    targets = bench_scenario_grid_stepping, bench_scenario_generation
}
criterion_main!(benches);
