//! The PPO minibatch step allocates nothing once its buffers have grown.
//!
//! A counting global allocator tallies the allocations made by the calling
//! thread (other test threads do not disturb the count). After one warm-up
//! step, a forward/backward/optimiser step over a same-sized minibatch must
//! allocate nothing, and a whole `Ppo::update` must allocate the same
//! amount whatever the number of minibatches it runs.

use ect_drl::ppo::{Ppo, PpoConfig};
use ect_drl::rollout::{RolloutBuffer, Transition};
use ect_drl::{ActorCritic, ActorCriticConfig};
use ect_hub::prelude::*;
use ect_nn::matrix::Matrix;
use ect_nn::optim::{Adam, AdamConfig};
use ect_nn::param::Parameterized;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: allocations during thread teardown are not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations the current thread makes while running `f`.
fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

const STATE_DIM: usize = 121;

fn policy(rng: &mut EctRng) -> ActorCritic {
    ActorCritic::new(STATE_DIM, &ActorCriticConfig::default(), rng)
}

#[test]
fn warm_minibatch_step_allocates_nothing() {
    let mut rng = EctRng::seed_from(21);
    let mut net = policy(&mut rng);
    let mut optimizer = Adam::new(AdamConfig::paper_drl());
    let batch = 64;
    let states = Matrix::from_vec(
        batch,
        STATE_DIM,
        (0..batch * STATE_DIM).map(|_| rng.uniform()).collect(),
    );
    let grad_probs = Matrix::filled(batch, ActorCritic::NUM_ACTIONS, 1e-3);
    let grad_values = Matrix::filled(batch, 1, 1e-3);
    let mut step = || {
        net.forward_ref(&states);
        net.backward(&grad_probs, &grad_values);
        net.clip_grad_norm(0.5);
        optimizer.step(&mut net);
        assert!(!net.any_non_finite());
    };
    step();
    assert_eq!(allocations_during(&mut step), 0);
}

fn buffer(transitions: usize, rng: &mut EctRng) -> RolloutBuffer {
    let mut buffer = RolloutBuffer::new();
    for t in 0..transitions {
        buffer.push(Transition {
            state: (0..STATE_DIM).map(|_| rng.uniform()).collect(),
            action: t % ActorCritic::NUM_ACTIONS,
            action_prob: 0.4,
            reward: rng.uniform() - 0.5,
            value: 0.0,
            done: t + 1 == transitions,
        });
    }
    buffer
}

#[test]
fn update_allocations_do_not_grow_with_minibatches() {
    let mut rng = EctRng::seed_from(22);
    let config = PpoConfig::default();
    let short = buffer(config.minibatch_size, &mut rng);
    let long = buffer(config.minibatch_size * 10, &mut rng);

    let mut net = policy(&mut rng);
    let mut ppo = Ppo::new(config).unwrap();
    ppo.update(&mut net, &long, &mut rng).unwrap();

    let mut update = |buffer: &RolloutBuffer| {
        allocations_during(|| {
            ppo.update(&mut net, buffer, &mut rng).unwrap();
        })
    };
    let one_minibatch = update(&short);
    let ten_minibatches = update(&long);
    assert_eq!(
        ten_minibatches, one_minibatch,
        "allocations per update should not depend on the minibatch count"
    );
}
