//! Synthetic-world generator benchmarks.

use criterion::{criterion_group, criterion_main, Criterion};
use ect_data::charging::{ChargingConfig, ChargingWorld};
use ect_data::dataset::{WorldConfig, WorldDataset};
use ect_data::rtp::{RtpConfig, RtpGenerator};
use ect_data::spatial::{Region, RegionConfig};
use ect_data::weather::{WeatherConfig, WeatherGenerator};
use ect_types::rng::EctRng;
use std::time::Duration;

fn bench_weather_year(c: &mut Criterion) {
    c.bench_function("weather_series_1y", |bench| {
        bench.iter(|| {
            let mut rng = EctRng::seed_from(1);
            let mut g = WeatherGenerator::new(WeatherConfig::default(), &mut rng).unwrap();
            std::hint::black_box(g.series(24 * 365, &mut rng))
        })
    });
}

fn bench_rtp_year(c: &mut Criterion) {
    c.bench_function("rtp_series_1y", |bench| {
        bench.iter(|| {
            let mut rng = EctRng::seed_from(2);
            let mut g = RtpGenerator::new(RtpConfig::default()).unwrap();
            std::hint::black_box(g.series(24 * 365, &mut rng))
        })
    });
}

fn bench_charging_history_year(c: &mut Criterion) {
    let world = ChargingWorld::new(ChargingConfig::default()).unwrap();
    c.bench_function("charging_history_12st_1y", |bench| {
        bench.iter(|| {
            let rng = EctRng::seed_from(3);
            std::hint::black_box(world.generate_history(24 * 365, &rng))
        })
    });
}

fn bench_world_generation(c: &mut Criterion) {
    c.bench_function("world_generate_12hubs_30d", |bench| {
        bench.iter(|| std::hint::black_box(WorldDataset::generate(WorldConfig::default()).unwrap()))
    });
}

fn bench_region_generation(c: &mut Criterion) {
    c.bench_function("region_generate_3000bs", |bench| {
        bench.iter(|| {
            let mut rng = EctRng::seed_from(4);
            std::hint::black_box(Region::generate(&RegionConfig::default(), &mut rng).unwrap())
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_secs(1));
    targets = bench_weather_year, bench_rtp_year, bench_charging_history_year,
              bench_world_generation, bench_region_generation
}
criterion_main!(benches);
