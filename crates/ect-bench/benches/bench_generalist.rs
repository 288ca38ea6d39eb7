//! Generalist-path benchmarks: does mixture heterogeneity cost anything?
//!
//! Two questions, two groups:
//!
//! * `generalist_collect` — one shared-policy episode collected over (a)
//!   homogeneous all-baseline lanes and (b) heterogeneous mixture lanes of
//!   the stress library. The lanes differ only in which world they replay,
//!   so any spread is the true overhead of mixture training — it should be
//!   noise.
//! * `generalist_observe` — the augmented observation write (scenario block
//!   appended) vs the plain Eq. 24 write, over a full fleet episode of
//!   observation refreshes.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ect_data::dataset::WorldConfig;
use ect_data::scenario::{scenario_library, ScenarioSpec};
use ect_drl::collector::collect_shared_policy_episode;
use ect_drl::rollout::RolloutBuffer;
use ect_drl::{ActorCritic, ActorCriticConfig};
use ect_env::env::ObsAugmentation;
use ect_env::fleet::fleet_env_for_scenarios_augmented;
use ect_env::tariff::DiscountSchedule;
use ect_env::vec_env::FleetEnv;
use ect_types::ids::HubId;
use ect_types::rng::EctRng;
use std::time::Duration;

const SLOTS: usize = 24 * 7; // one week per lane
const WINDOW: usize = 24;

fn config() -> WorldConfig {
    WorldConfig {
        num_hubs: 2,
        horizon_slots: SLOTS,
        ..WorldConfig::default()
    }
}

fn fleet_for(specs: Vec<ScenarioSpec>, augment: ObsAugmentation) -> FleetEnv {
    let lanes: Vec<(ScenarioSpec, HubId)> = specs
        .into_iter()
        .enumerate()
        .map(|(i, spec)| (spec, HubId::new((i % 2) as u32)))
        .collect();
    let discounts = vec![DiscountSchedule::none(SLOTS); lanes.len()];
    let mut rngs: Vec<EctRng> = (0..lanes.len())
        .map(|l| EctRng::seed_from(900 + l as u64))
        .collect();
    fleet_env_for_scenarios_augmented(
        &config(),
        &lanes,
        0,
        SLOTS,
        &discounts,
        WINDOW,
        &augment,
        &mut rngs,
    )
    .unwrap()
}

fn collect_one_episode(fleet: &mut FleetEnv, policy: &ActorCritic) -> f64 {
    let n = fleet.num_lanes();
    let mut rngs: Vec<EctRng> = (0..n as u64).map(EctRng::seed_from).collect();
    let mut buffers = vec![RolloutBuffer::new(); n];
    let socs = vec![0.5; n];
    let returns =
        collect_shared_policy_episode(fleet, policy, &mut rngs, &mut buffers, &socs).unwrap();
    returns.iter().sum()
}

/// Shared-policy episode collection: homogeneous baseline lanes vs the
/// heterogeneous stress-library mixture, same lane count and policy.
fn bench_mixture_collection(c: &mut Criterion) {
    let library = scenario_library(SLOTS);
    let lanes = library.len();
    let homogeneous = fleet_for(vec![ScenarioSpec::baseline(); lanes], ObsAugmentation::NONE);
    let mixture = fleet_for(library.clone(), ObsAugmentation::NONE);
    let conditioned = fleet_for(library, ObsAugmentation::SCENARIO);

    let mut rng = EctRng::seed_from(41);
    let plain_policy = ActorCritic::new(
        homogeneous.state_dim(),
        &ActorCriticConfig::default(),
        &mut rng,
    );
    let mut rng = EctRng::seed_from(41);
    let augmented_policy = ActorCritic::new(
        conditioned.state_dim(),
        &ActorCriticConfig::default(),
        &mut rng,
    );

    let mut group = c.benchmark_group("generalist_collect");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));

    group.bench_function("homogeneous_baseline_lanes", |b| {
        b.iter_batched(
            || homogeneous.clone(),
            |mut fleet| std::hint::black_box(collect_one_episode(&mut fleet, &plain_policy)),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("mixture_lanes", |b| {
        b.iter_batched(
            || mixture.clone(),
            |mut fleet| std::hint::black_box(collect_one_episode(&mut fleet, &plain_policy)),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("mixture_lanes_conditioned_obs", |b| {
        b.iter_batched(
            || conditioned.clone(),
            |mut fleet| std::hint::black_box(collect_one_episode(&mut fleet, &augmented_policy)),
            BatchSize::SmallInput,
        )
    });

    group.finish();
}

/// The observation path alone: plain vs scenario-conditioned writes over a
/// full episode of lockstep refreshes (idle stepping isolates the obs
/// cost from network forward passes).
fn bench_augmented_observation(c: &mut Criterion) {
    let library = scenario_library(SLOTS);
    let plain = fleet_for(library.clone(), ObsAugmentation::NONE);
    let conditioned = fleet_for(library, ObsAugmentation::SCENARIO);
    let n = plain.num_lanes();
    let actions = vec![ect_env::battery::BpAction::Idle; n];

    let mut group = c.benchmark_group("generalist_observe");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));

    for (name, fleet) in [("plain_obs", &plain), ("conditioned_obs", &conditioned)] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || fleet.clone(),
                |mut fleet| {
                    let mut total = 0.0;
                    fleet.reset(&vec![0.5; n]);
                    for _ in 0..SLOTS {
                        let step = fleet.step_batch_soa(&actions);
                        total += step.rewards.iter().sum::<f64>();
                    }
                    std::hint::black_box(total)
                },
                BatchSize::SmallInput,
            )
        });
    }

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_secs(1));
    targets = bench_mixture_collection, bench_augmented_observation
}
criterion_main!(benches);
