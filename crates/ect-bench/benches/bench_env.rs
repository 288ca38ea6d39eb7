//! Environment benchmarks: slot stepping and whole-episode rollouts.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ect_data::charging::Stratum;
use ect_data::dataset::{WorldConfig, WorldDataset};
use ect_env::battery::BpAction;
use ect_env::env::{EpisodeInputs, HubEnv};
use ect_env::hub::HubConfig;
use ect_env::tariff::DiscountSchedule;
use ect_types::ids::HubId;
use ect_types::rng::EctRng;
use std::time::Duration;

fn month_env() -> HubEnv {
    let world = WorldDataset::generate(WorldConfig {
        num_hubs: 1,
        horizon_slots: 720,
        ..WorldConfig::default()
    })
    .unwrap();
    let mut rng = EctRng::seed_from(5);
    ect_env::fleet::env_for_hub(
        &world,
        HubId::new(0),
        0,
        720,
        DiscountSchedule::none(720),
        24,
        &mut rng,
    )
    .unwrap()
}

fn bench_step(c: &mut Criterion) {
    let env = month_env();
    c.bench_function("env_step", |bench| {
        bench.iter_batched(
            || {
                let mut e = env.clone();
                e.reset(0.5);
                e
            },
            |mut e| std::hint::black_box(e.step(BpAction::Charge)),
            BatchSize::SmallInput,
        )
    });
}

fn bench_episode_rollout(c: &mut Criterion) {
    let env = month_env();
    c.bench_function("env_rollout_30days", |bench| {
        bench.iter_batched(
            || env.clone(),
            |mut e| {
                let (profit, _) = e.rollout(0.5, |_, _| BpAction::Idle);
                std::hint::black_box(profit)
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_observe(c: &mut Criterion) {
    let mut env = month_env();
    env.reset(0.5);
    c.bench_function("env_observe", |bench| {
        bench.iter(|| std::hint::black_box(env.observe()))
    });
}

fn bench_episode_inputs_validate(c: &mut Criterion) {
    let env = month_env();
    let inputs = EpisodeInputs {
        rtp: env.series().rtp.to_vec(),
        weather: env.series().weather.to_vec(),
        traffic: env.series().traffic.to_vec(),
        discounts: DiscountSchedule::none(720),
        strata: vec![Stratum::AlwaysCharge; 720],
    };
    let config = HubConfig::urban();
    c.bench_function("hub_env_construction", |bench| {
        bench
            .iter(|| std::hint::black_box(HubEnv::new(config.clone(), inputs.clone(), 24).unwrap()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_secs(1));
    targets = bench_step, bench_episode_rollout, bench_observe, bench_episode_inputs_validate
}
criterion_main!(benches);
