//! Stepping-kernel throughput benchmarks: `step_batch_soa` at the paper's
//! 12-hub fleet and at replicated 1k/10k-lane fleets, plus a steady-state
//! hub-slots/sec readout.
//!
//! The `throughput` registry experiment (`run_all --only throughput`) is
//! the harness-grade version of this sweep — it also shards 100k lanes
//! over the work-stealing dispatch pool and persists JSON.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ect_data::dataset::{WorldConfig, WorldDataset};
use ect_env::battery::BpAction;
use ect_env::fleet::fleet_env_for_hubs;
use ect_env::tariff::DiscountSchedule;
use ect_env::vec_env::FleetEnv;
use ect_types::ids::HubId;
use ect_types::rng::EctRng;
use std::time::{Duration, Instant};

const HUBS: usize = 12; // the paper's fleet size
const SLOTS: usize = 720; // one 30-day episode
const ACTIONS: [BpAction; 3] = [BpAction::Charge, BpAction::Discharge, BpAction::Idle];

fn base_fleet(window: usize) -> FleetEnv {
    let world = WorldDataset::generate(WorldConfig {
        num_hubs: HUBS as u32,
        horizon_slots: SLOTS,
        ..WorldConfig::default()
    })
    .unwrap();
    let hubs: Vec<HubId> = (0..HUBS as u32).map(HubId::new).collect();
    let discounts = vec![DiscountSchedule::none(SLOTS); HUBS];
    let mut rngs: Vec<EctRng> = (0..HUBS as u64)
        .map(|h| EctRng::seed_from(1000 + h))
        .collect();
    fleet_env_for_hubs(&world, &hubs, 0, SLOTS, &discounts, window, &mut rngs).unwrap()
}

/// Replicates the 12 base lanes (Arc-shared series, so the SoA layer keeps
/// 12 groups) into a `lanes`-hub fleet.
fn replicated_fleet(base: &FleetEnv, lanes: usize) -> FleetEnv {
    let pairs: Vec<_> = (0..lanes)
        .map(|lane| {
            let src = lane % base.configs().len();
            (base.configs()[src].clone(), base.series()[src].clone())
        })
        .collect();
    FleetEnv::new(pairs, 6).unwrap()
}

/// Steps `slots` slots through the SoA path, resetting at episode end so
/// iterations stay in steady state.
fn step_soa(env: &mut FleetEnv, actions: &mut [BpAction], socs: &[f64], slots: usize) -> f64 {
    let mut total = 0.0;
    for _ in 0..slots {
        if env.slot() >= env.horizon() {
            env.reset(socs);
        }
        let t = env.slot();
        for (lane, a) in actions.iter_mut().enumerate() {
            *a = ACTIONS[(t + lane) % 3];
        }
        total += env.step_batch_soa(actions).rewards.iter().sum::<f64>();
    }
    total
}

/// The paper-sized episode: 12 hubs × 720 slots through the slot kernel.
fn bench_episode_soa(c: &mut Criterion) {
    let mut fleet = base_fleet(24);
    fleet.reset(&[0.5; HUBS]);

    let mut group = c.benchmark_group("throughput_episode_12hubs");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));

    group.bench_function("soa_step_batch", |b| {
        b.iter_batched(
            || fleet.clone(),
            |mut fleet| {
                let mut actions = [BpAction::Idle; HUBS];
                let mut total = 0.0;
                fleet.reset(&[0.5; HUBS]);
                for t in 0..SLOTS {
                    for (lane, a) in actions.iter_mut().enumerate() {
                        *a = ACTIONS[(t + lane) % 3];
                    }
                    total += fleet.step_batch_soa(&actions).rewards.iter().sum::<f64>();
                }
                std::hint::black_box(total)
            },
            BatchSize::SmallInput,
        )
    });

    group.finish();
}

/// Wide fleets: 8 SoA slots at 1k and 10k replicated lanes.
fn bench_wide_fleets(c: &mut Criterion) {
    let base = base_fleet(6);

    let mut group = c.benchmark_group("throughput_step_batch_soa_8slots");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));

    for lanes in [1_000usize, 10_000] {
        let mut env = replicated_fleet(&base, lanes);
        let socs = vec![0.5; lanes];
        env.reset(&socs);
        env.soa_group_count(); // build untimed
        let mut actions = vec![BpAction::Idle; lanes];
        group.bench_function(format!("{}k_lanes", lanes / 1000).as_str(), |b| {
            b.iter(|| std::hint::black_box(step_soa(&mut env, &mut actions, &socs, 8)))
        });
    }
    group.finish();
}

/// Steady-state hub-slots/sec readout (one untimed-by-criterion pass): the
/// single-thread ceiling the `throughput` experiment parallelises.
fn bench_steady_state_rate(c: &mut Criterion) {
    let base = base_fleet(6);
    let lanes = 10_000;
    let mut env = replicated_fleet(&base, lanes);
    let socs = vec![0.5; lanes];
    env.reset(&socs);
    env.soa_group_count();
    let mut actions = vec![BpAction::Idle; lanes];

    // Warm, then measure a fixed slot budget directly.
    step_soa(&mut env, &mut actions, &socs, 8);
    let slots = 64;
    let t0 = Instant::now();
    let total = step_soa(&mut env, &mut actions, &socs, slots);
    let secs = t0.elapsed().as_secs_f64();
    std::hint::black_box(total);
    println!(
        "steady-state SoA stepping: {:.0} hub-slots/sec ({} lanes x {} slots in {:.2} ms, single thread)",
        (lanes * slots) as f64 / secs,
        lanes,
        slots,
        secs * 1e3
    );

    // Keep a criterion-timed version alongside the printed rate.
    let mut group = c.benchmark_group("throughput_steady_state");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    group.bench_function("soa_64slots_10k_lanes", |b| {
        b.iter(|| std::hint::black_box(step_soa(&mut env, &mut actions, &socs, 64)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_episode_soa,
    bench_wide_fleets,
    bench_steady_state_rate
);
criterion_main!(benches);
