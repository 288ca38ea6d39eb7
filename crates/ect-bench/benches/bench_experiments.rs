//! One Criterion bench per paper table/figure: times a scaled-down run of
//! each experiment harness so regressions in any reproduction path are
//! caught. (The full-scale harnesses are the `src/bin/*` binaries.)

use criterion::{criterion_group, criterion_main, Criterion};
use ect_bench::experiments::*;
use ect_bench::Scale;
use std::time::Duration;

fn bench_measurement_figures(c: &mut Criterion) {
    c.bench_function("expt_fig01_spatial", |b| {
        b.iter(|| std::hint::black_box(fig01::run().unwrap()))
    });
    c.bench_function("expt_fig02_renewables", |b| {
        b.iter(|| std::hint::black_box(fig02::run().unwrap()))
    });
    c.bench_function("expt_fig04_degradation", |b| {
        b.iter(|| std::hint::black_box(fig04::run().unwrap()))
    });
    c.bench_function("expt_fig05_rtp_traffic", |b| {
        b.iter(|| std::hint::black_box(fig05::run().unwrap()))
    });
}

fn bench_fig03(c: &mut Criterion) {
    // Fig. 3 generates 3 years × 12 stations; sample it sparsely.
    let mut group = c.benchmark_group("expt_fig03");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));
    group.bench_function("charging_freq_3y", |b| {
        b.iter(|| std::hint::black_box(fig03::run().unwrap()))
    });
    group.finish();
}

fn bench_pricing_experiments(c: &mut Criterion) {
    // Shared artifacts at a reduced scale: build once outside the timer,
    // then time the per-table evaluation stages.
    let mut config = system_config(Scale::Quick);
    config.world.num_hubs = 4;
    config.pricing_history_slots = 24 * 7 * 6;
    config.pricing_test_slots = 24 * 7 * 2;
    config.ect_price.epochs = 2;
    config.baseline.epochs = 1;
    let system = ect_core::EctHubSystem::new(config).unwrap();
    let (train, test) = system.pricing_datasets();
    let mut rng = ect_types::rng::EctRng::seed_from(1);
    let space = system.feature_space();
    let price_config = system.config().ect_price.clone();
    let mut model = ect_price::model::EctPriceModel::new(space, &price_config, &mut rng);
    model.train(&train, &price_config, &mut rng).unwrap();
    let artifacts = PricingArtifacts {
        system,
        train,
        test,
        model,
    };

    let mut group = c.benchmark_group("expt_pricing");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));
    group.bench_function("table2_reduced", |b| {
        b.iter(|| std::hint::black_box(table2::run(&artifacts).unwrap()))
    });
    group.bench_function("fig11_curves", |b| {
        b.iter(|| std::hint::black_box(fig11::run(&artifacts)))
    });
    group.bench_function("fig12_period_shares", |b| {
        b.iter(|| std::hint::black_box(fig12::run(&artifacts)))
    });
    group.finish();
}

fn bench_fleet_cell(c: &mut Criterion) {
    // Table III / Fig. 13 cells at a tiny training budget: one (hub, method)
    // cell as a one-lane fleet versus three hubs trained as one lockstep
    // fleet.
    let mut config = system_config(Scale::Quick);
    config.world.num_hubs = 3;
    config.pricing_history_slots = 24 * 7;
    config.pricing_test_slots = 24 * 7;
    config.trainer.episodes = 2;
    config.test_episodes = 1;
    let system = ect_core::EctHubSystem::new(config).unwrap();
    let mut group = c.benchmark_group("expt_fleet");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));
    group.bench_function("table3_fig13_single_cell", |b| {
        b.iter(|| {
            std::hint::black_box(
                ect_core::run_hubs_method_batched(
                    &system,
                    &[ect_types::ids::HubId::new(0)],
                    &ect_price::engine::NeverDiscount,
                    "NoDiscount",
                )
                .unwrap(),
            )
        })
    });
    group.bench_function("table3_fig13_batched_3hubs", |b| {
        let hubs: Vec<ect_types::ids::HubId> = (0..3).map(ect_types::ids::HubId::new).collect();
        b.iter(|| {
            std::hint::black_box(
                ect_core::run_hubs_method_batched(
                    &system,
                    &hubs,
                    &ect_price::engine::NeverDiscount,
                    "NoDiscount",
                )
                .unwrap(),
            )
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_secs(1));
    targets = bench_measurement_figures, bench_fig03, bench_pricing_experiments, bench_fleet_cell
}
criterion_main!(benches);
