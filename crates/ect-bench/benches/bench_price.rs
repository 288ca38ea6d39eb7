//! Pricing-model benchmarks: CF-MTL loss, training epochs and inference.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ect_data::charging::{ChargingConfig, ChargingWorld};
use ect_price::features::{FeatureSpace, PricingDataset};
use ect_price::model::{cfmtl_loss, EctPriceConfig, EctPriceModel};
use ect_types::rng::EctRng;
use std::time::Duration;

fn dataset(weeks: usize) -> (FeatureSpace, PricingDataset) {
    let world = ChargingWorld::new(ChargingConfig {
        num_stations: 12,
        ..ChargingConfig::default()
    })
    .unwrap();
    let rng = EctRng::seed_from(11);
    let records = world.generate_history(24 * 7 * weeks, &rng);
    let space = FeatureSpace::new(12).unwrap();
    let data = PricingDataset::from_records(&space, &records);
    (space, data)
}

fn bench_cfmtl_loss(c: &mut Criterion) {
    let mut rng = EctRng::seed_from(12);
    let space = FeatureSpace::new(12).unwrap();
    let mut model = EctPriceModel::new(space, &EctPriceConfig::default(), &mut rng);
    let stations: Vec<usize> = (0..64).map(|i| i % 12).collect();
    let times: Vec<usize> = (0..64).map(|i| (i * 5) % 48).collect();
    let (probs, g) = model.forward(&stations, &times);
    let treated: Vec<f64> = (0..64).map(|i| f64::from(i % 3 == 0)).collect();
    let charged: Vec<f64> = (0..64).map(|i| f64::from(i % 2 == 0)).collect();
    c.bench_function("cfmtl_loss_batch64", |bench| {
        bench.iter(|| std::hint::black_box(cfmtl_loss(&probs, &g, &treated, &charged)))
    });
}

fn bench_training_epoch(c: &mut Criterion) {
    let (space, data) = dataset(4);
    let config = EctPriceConfig {
        epochs: 1,
        ..EctPriceConfig::default()
    };
    c.bench_function("ect_price_epoch_4weeks_12st", |bench| {
        bench.iter_batched(
            || {
                let mut rng = EctRng::seed_from(13);
                (EctPriceModel::new(space, &config, &mut rng), rng)
            },
            |(mut model, mut rng)| {
                std::hint::black_box(model.train(&data, &config, &mut rng).unwrap())
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_strata_inference(c: &mut Criterion) {
    let mut rng = EctRng::seed_from(14);
    let space = FeatureSpace::new(12).unwrap();
    let model = EctPriceModel::new(space, &EctPriceConfig::default(), &mut rng);
    c.bench_function("strata_inference_week_grid", |bench| {
        bench.iter(|| {
            let mut acc = 0.0;
            for s in 0..12 {
                for b in 0..48 {
                    acc += model.predict_strata(s, b)[1];
                }
            }
            std::hint::black_box(acc)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_secs(1));
    targets = bench_cfmtl_loss, bench_training_epoch, bench_strata_inference
}
criterion_main!(benches);
