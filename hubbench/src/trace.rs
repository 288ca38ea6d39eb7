//! The traced run: an in-memory `ect_obs::Telemetry` installed around
//! single passes, the tallies read back from it, and the policy-net probe
//! measured beside the run.

use crate::report::{median, ratio, Metrics};
use ect_core::scheduling::OBS_WINDOW;
use ect_data::dataset::WorldDataset;
use ect_drl::actor_critic::{ActorCritic, ActorCriticConfig};
use ect_env::fleet::fleet_env_for_hubs;
use ect_env::tariff::DiscountSchedule;
use ect_nn::matrix::Matrix;
use ect_obs::{RunManifest, Telemetry};
use ect_types::ids::HubId;
use ect_types::rng::EctRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Runs `f` with a fresh in-memory telemetry registry installed and
/// returns its result with the registry.
pub fn traced<R>(f: impl FnOnce() -> R) -> (R, Arc<Telemetry>) {
    let telemetry = Arc::new(Telemetry::to_memory(RunManifest {
        label: "hubbench".into(),
        ..RunManifest::default()
    }));
    ect_obs::install(Arc::clone(&telemetry));
    let result = f();
    ect_obs::uninstall();
    (result, telemetry)
}

/// Span totals (seconds) and counter values summed over traced passes.
#[derive(Debug, Default)]
pub struct Tally {
    passes: usize,
    span_s: BTreeMap<String, f64>,
    counters: BTreeMap<String, u64>,
}

impl Tally {
    /// Adds one pass's telemetry.
    pub fn absorb(&mut self, telemetry: &Telemetry) {
        self.passes += 1;
        let summary = telemetry.summary();
        for (name, agg) in summary.spans {
            *self.span_s.entry(name).or_default() += agg.total_us as f64 / 1e6;
        }
        for (name, value) in summary.counters {
            *self.counters.entry(name).or_default() += value;
        }
    }

    /// Total seconds under span `name` across all passes and threads.
    pub fn span_s(&self, name: &str) -> f64 {
        self.span_s.get(name).copied().unwrap_or(0.0)
    }

    /// Counter total across all passes.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Per-pass mean of span `name`, seconds.
    pub fn span_per_pass(&self, name: &str) -> f64 {
        ratio(self.span_s(name), self.passes as f64)
    }

    /// Per-pass mean of counter `name`.
    pub fn counter_per_pass(&self, name: &str) -> f64 {
        ratio(self.counter(name) as f64, self.passes as f64)
    }

    /// Share of the traced walls covered by the given benchmark-side stage
    /// spans (they run one after another on the main thread).
    pub fn coverage(&self, stages: &[&str], traced_walls: &[f64]) -> f64 {
        let covered: f64 = stages.iter().map(|s| self.span_s(s)).sum();
        ratio(covered, traced_walls.iter().sum())
    }

    /// The dispatcher counters, per pass.
    pub fn dispatch_metrics(&self, metrics: &mut Metrics) {
        metrics.insert(
            "dispatch.jobs".into(),
            self.counter_per_pass("dispatch.jobs"),
        );
        metrics.insert(
            "dispatch.steals".into(),
            self.counter_per_pass("dispatch.steals"),
        );
    }
}

/// Tracing overhead: traced against untraced pass walls, percent.
pub fn overhead_pct(traced_walls: &[f64], plain_walls: &[f64]) -> f64 {
    let plain = median(plain_walls);
    ratio(median(traced_walls) - plain, plain) * 100.0
}

/// Observation width of a fleet over `world` — the policy net's input.
///
/// # Errors
///
/// Propagates fleet construction failures.
pub fn policy_state_dim(world: &WorldDataset) -> ect_types::Result<usize> {
    let horizon = world.horizon();
    fleet_env_for_hubs(
        world,
        &[HubId::new(0)],
        0,
        horizon,
        &[DiscountSchedule::none(horizon)],
        OBS_WINDOW,
        &mut [EctRng::seed_from(0)],
    )
    .map(|fleet| fleet.state_dim())
}

/// Seconds each half of [`nn_probe`] measures.
const NN_PROBE_S: f64 = 0.3;

/// Measures the PPO policy net beside the run: forward + backward on one
/// minibatch, and single-row inference.
pub fn nn_probe(state_dim: usize, minibatch: usize, seed: u64, metrics: &mut Metrics) {
    let mut rng = EctRng::seed_from(seed);
    let mut net = ActorCritic::new(state_dim, &ActorCriticConfig::default(), &mut rng);
    let batch = Matrix::from_vec(
        minibatch,
        state_dim,
        (0..minibatch * state_dim).map(|_| rng.uniform()).collect(),
    );
    let grad_probs = Matrix::filled(minibatch, ActorCritic::NUM_ACTIONS, 1e-3);
    let grad_values = Matrix::filled(minibatch, 1, 1e-3);
    let row = Matrix::row_vector(batch.row(0));

    let mut rows = 0usize;
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < NN_PROBE_S {
        let out = net.forward(black_box(&batch));
        black_box(&out);
        net.backward(&grad_probs, &grad_values);
        rows += minibatch;
    }
    metrics.insert(
        "nn.fwd_bwd_rows_per_s".into(),
        rows as f64 / t0.elapsed().as_secs_f64(),
    );

    let mut rows = 0usize;
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < NN_PROBE_S {
        black_box(net.infer(black_box(&row)));
        rows += 1;
    }
    metrics.insert(
        "nn.infer_rows_per_s".into(),
        rows as f64 / t0.elapsed().as_secs_f64(),
    );
}
