//! PPO benchmarks: action sampling, GAE and the update step.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ect_drl::actor_critic::{ActorCritic, ActorCriticConfig};
use ect_drl::ppo::{Ppo, PpoConfig};
use ect_drl::rollout::{RolloutBuffer, Transition};
use ect_types::rng::EctRng;
use std::time::Duration;

fn policy(state_dim: usize) -> ActorCritic {
    let mut rng = EctRng::seed_from(7);
    ActorCritic::new(state_dim, &ActorCriticConfig::default(), &mut rng)
}

fn month_buffer(policy: &ActorCritic, state_dim: usize) -> RolloutBuffer {
    let mut rng = EctRng::seed_from(8);
    let mut buf = RolloutBuffer::new();
    for t in 0..720 {
        let state: Vec<f64> = (0..state_dim).map(|_| rng.normal(0.0, 1.0)).collect();
        let (action, prob, value) = policy.sample_action(&state, &mut rng);
        buf.push(Transition {
            state,
            action: action.index(),
            action_prob: prob,
            reward: rng.normal(20.0, 5.0),
            value,
            done: t == 719,
        });
    }
    buf
}

fn bench_action_sampling(c: &mut Criterion) {
    let p = policy(121);
    let mut rng = EctRng::seed_from(9);
    let state = vec![0.3; 121];
    c.bench_function("ppo_sample_action", |bench| {
        bench.iter(|| std::hint::black_box(p.sample_action(&state, &mut rng)))
    });
}

fn bench_gae(c: &mut Criterion) {
    let p = policy(121);
    let buf = month_buffer(&p, 121);
    c.bench_function("gae_720_transitions", |bench| {
        bench.iter(|| std::hint::black_box(buf.gae(0.99, 0.95).unwrap()))
    });
}

fn bench_ppo_update(c: &mut Criterion) {
    let p = policy(121);
    let buf = month_buffer(&p, 121);
    c.bench_function("ppo_update_720_transitions", |bench| {
        bench.iter_batched(
            || {
                (
                    p.clone(),
                    Ppo::new(PpoConfig::default()).unwrap(),
                    EctRng::seed_from(10),
                )
            },
            |(mut policy, mut ppo, mut rng)| {
                std::hint::black_box(ppo.update(&mut policy, &buf, &mut rng).unwrap())
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_secs(1));
    targets = bench_action_sampling, bench_gae, bench_ppo_update
}
criterion_main!(benches);
