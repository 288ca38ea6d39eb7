//! Neural-network substrate benchmarks: the kernels every model training
//! loop spends its time in.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ect_drl::actor_critic::{ActorCritic, ActorCriticConfig};
use ect_nn::layers::{Activation, ActivationKind};
use ect_nn::loss::mse;
use ect_nn::matrix::Matrix;
use ect_nn::mlp::Mlp;
use ect_nn::ncf::{Ncf, NcfConfig};
use ect_nn::optim::{Adam, AdamConfig};
use ect_nn::param::Parameterized;
use ect_types::rng::EctRng;
use std::time::Duration;

fn rand_matrix(rows: usize, cols: usize, rng: &mut EctRng) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    for v in m.as_mut_slice() {
        *v = rng.normal(0.0, 1.0);
    }
    m
}

fn bench_matmul(c: &mut Criterion) {
    let mut rng = EctRng::seed_from(1);
    let a = rand_matrix(64, 128, &mut rng);
    let b = rand_matrix(128, 64, &mut rng);
    let grad = rand_matrix(64, 64, &mut rng);
    c.bench_function("matmul_64x128x64", |bench| {
        bench.iter(|| std::hint::black_box(a.matmul(&b)))
    });
    c.bench_function("transpose_matmul_64x128x64", |bench| {
        bench.iter(|| std::hint::black_box(a.transpose_matmul(&grad)))
    });
    // The PPO trunk's input-gradient shape: dY (64 × 64) · Wᵀ, W 121 × 64.
    let weight = rand_matrix(121, 64, &mut rng);
    c.bench_function("matmul_transpose_64x64x121", |bench| {
        bench.iter(|| std::hint::black_box(grad.matmul_transpose(&weight)))
    });
    // Single-state inference through the trunk: the row-axpy path.
    let state = rand_matrix(1, 121, &mut rng);
    let trunk = rand_matrix(121, 64, &mut rng);
    c.bench_function("matmul_1x121x64", |bench| {
        bench.iter(|| std::hint::black_box(state.matmul(&trunk)))
    });
}

fn bench_mlp_train_step(c: &mut Criterion) {
    let mut rng = EctRng::seed_from(2);
    let net = Mlp::new(&[121, 64, 32, 3], ActivationKind::Tanh, &mut rng);
    let x = rand_matrix(64, 121, &mut rng);
    let y = rand_matrix(64, 3, &mut rng);
    c.bench_function("mlp_forward_backward_adam_batch64", |bench| {
        bench.iter_batched(
            || (net.clone(), Adam::new(AdamConfig::default())),
            |(mut net, mut opt)| {
                let pred = net.forward(&x);
                let (_, grad) = mse(&pred, &y);
                net.backward(&grad);
                opt.step(&mut net);
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_tanh(c: &mut Criterion) {
    let mut rng = EctRng::seed_from(4);
    // Pre-activations of a 64-row minibatch through a 64-wide hidden layer.
    let x = rand_matrix(64, 64, &mut rng);
    let tanh = Activation::new(ActivationKind::Tanh);
    c.bench_function("tanh_64x64", |bench| {
        bench.iter(|| std::hint::black_box(tanh.infer(&x)))
    });
}

/// One PPO minibatch step on the default actor-critic over 121-wide
/// states, as `Ppo::update` runs it: forward, backward, gradient clipping,
/// Adam and the divergence check. The surrogate-loss gradients are fixed
/// inputs here.
fn bench_ppo_minibatch_step(c: &mut Criterion) {
    let mut rng = EctRng::seed_from(5);
    let mut policy = ActorCritic::new(121, &ActorCriticConfig::default(), &mut rng);
    let mut adam = Adam::new(AdamConfig::paper_drl());
    let states = rand_matrix(64, 121, &mut rng);
    let mut grad_probs = rand_matrix(64, 3, &mut rng);
    grad_probs.scale(1.0 / 64.0);
    let mut grad_values = rand_matrix(64, 1, &mut rng);
    grad_values.scale(1.0 / 64.0);
    c.bench_function("ppo_minibatch_step_64x121", |bench| {
        bench.iter(|| {
            let _ = policy.forward_ref(&states);
            policy.backward(&grad_probs, &grad_values);
            policy.clip_grad_norm(0.5);
            adam.step(&mut policy);
            std::hint::black_box(policy.any_non_finite())
        })
    });
}

fn bench_ncf_inference(c: &mut Criterion) {
    let mut rng = EctRng::seed_from(3);
    let ncf = Ncf::new(&NcfConfig::small(12, 48), &mut rng);
    let users: Vec<usize> = (0..64).map(|i| i % 12).collect();
    let items: Vec<usize> = (0..64).map(|i| (i * 7) % 48).collect();
    c.bench_function("ncf_infer_batch64", |bench| {
        bench.iter(|| std::hint::black_box(ncf.infer(&users, &items)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_secs(1));
    targets = bench_matmul, bench_tanh, bench_mlp_train_step, bench_ppo_minibatch_step, bench_ncf_inference
}
criterion_main!(benches);
