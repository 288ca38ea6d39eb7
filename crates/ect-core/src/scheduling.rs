//! Scheduling stage: per-hub DRL training under each pricing method, with
//! parallel fleet execution (Fig. 13 / Table III of the paper).
//!
//! Every cell runs one lane per hub of a lockstep
//! [`ect_env::vec_env::FleetEnv`]: [`run_hubs_method_batched`] trains and
//! evaluates ECT-DRL, [`run_hubs_scheduler_batched`] evaluates a rule-based
//! scheduler, and [`Session::fleet`](crate::session::Session::fleet)
//! dispatches `(method, hub-chunk)` DRL jobs over the work-stealing
//! [`crate::dispatch`] pool. Lane RNG streams are
//! isolated per hub, so a cell does not depend on which hubs share its
//! fleet; whole cells are pinned by `tests/cells_golden.rs`.

use crate::system::EctHubSystem;
use ect_drl::collector::{evaluate_fleet_greedy, evaluate_fleet_scheduler, train_fleet};
use ect_drl::heuristics::{GreedyPrice, NoBattery, Scheduler, TimeOfUse};
use ect_drl::trainer::{EvalSummary, TrainerConfig, TrainingHistory};
use ect_drl::ActorCritic;
use ect_env::fleet::fleet_env_for_hubs;
use ect_env::tariff::DiscountSchedule;
use ect_price::engine::{discount_levels, NeverDiscount, PricingEngine};
use ect_types::ids::{HubId, StationId};
use ect_types::rng::EctRng;
use serde::{Deserialize, Serialize};

/// Observation window of the Eq. 24 state (one day of history).
pub const OBS_WINDOW: usize = 24;

/// Result of one (hub, pricing-method) experiment cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HubExperimentResult {
    /// Hub evaluated.
    pub hub: u32,
    /// Pricing method that produced the discount schedule.
    pub method: String,
    /// Average daily reward over the test episodes — Table III's metric.
    pub avg_daily_reward: f64,
    /// Mean reward per episode day, averaged across test episodes — the
    /// Fig. 13 series.
    pub daily_series: Vec<f64>,
    /// Mean training return over the last 10 % of episodes.
    pub final_training_return: f64,
}

/// Builds the per-hub discount schedule a pricing engine induces.
///
/// # Errors
///
/// Propagates schedule validation failures.
pub fn schedule_for_hub(
    system: &EctHubSystem,
    engine: &dyn PricingEngine,
    hub: HubId,
) -> ect_types::Result<DiscountSchedule> {
    let space = system.feature_space();
    let levels = discount_levels(
        engine,
        &space,
        StationId::new(hub.as_u32()),
        0,
        system.world().horizon(),
        system.config().discount,
    );
    DiscountSchedule::from_levels(levels)
}

fn assemble_result(
    hub: HubId,
    method: &str,
    history: &TrainingHistory,
    summary: &EvalSummary,
) -> HubExperimentResult {
    // Average the per-day series across episodes (episodes share length).
    let days = summary
        .daily_rewards
        .iter()
        .map(Vec::len)
        .max()
        .unwrap_or(0);
    let mut daily_series = vec![0.0; days];
    for episode in &summary.daily_rewards {
        for (d, &r) in episode.iter().enumerate() {
            daily_series[d] += r;
        }
    }
    let episodes = summary.daily_rewards.len().max(1) as f64;
    for v in &mut daily_series {
        *v /= episodes;
    }
    let final_training_return = history
        .recent_mean(history.episode_returns.len() / 10)
        .unwrap_or(f64::NAN);
    HubExperimentResult {
        hub: hub.as_u32(),
        method: method.to_string(),
        avg_daily_reward: summary.avg_daily_reward,
        daily_series,
        final_training_return,
    }
}

/// Seed-stream separator so evaluation draws never overlap training draws.
const EVAL_SEED_STREAM: u64 = 0xE7A1_5EED;

/// The training lane seed of one hub. All methods share the hub's seed so
/// their episodes are *paired* (the paper: "all the other inputs … remain
/// the same for the four models"); reward differences then isolate
/// discount-schedule quality.
fn hub_seed(system: &EctHubSystem, hub: HubId) -> u64 {
    system.config().seed ^ (u64::from(hub.as_u32()) << 32)
}

/// Each hub's discount schedule under `engine`.
fn hub_discounts(
    system: &EctHubSystem,
    hubs: &[HubId],
    engine: &dyn PricingEngine,
) -> ect_types::Result<Vec<DiscountSchedule>> {
    hubs.iter()
        .map(|&hub| schedule_for_hub(system, engine, hub))
        .collect()
}

/// Trains and evaluates ECT-DRL on a *batch* of hubs under one pricing
/// engine, stepping all of them in lockstep through the
/// [`ect_env::vec_env::FleetEnv`] engine.
///
/// Episodes replay each hub's fixed exogenous traces (the paper: "all the
/// other inputs … remain the same for the four models") while the charging
/// strata are redrawn per episode and the initial SoC is randomised.
///
/// One lane per hub: lane `i` keeps its own policy, PPO state and RNG
/// stream seeded from the system seed and hub `i` alone, so a hub's cell is
/// the same whichever hubs share its batch — while the exogenous series are
/// shared (`Arc`) and the env stepping is amortised over the batch.
///
/// # Errors
///
/// Propagates schedule, environment and training failures.
pub fn run_hubs_method_batched(
    system: &EctHubSystem,
    hubs: &[HubId],
    engine: &dyn PricingEngine,
    method_label: &str,
) -> ect_types::Result<Vec<HubExperimentResult>> {
    if hubs.is_empty() {
        return Ok(Vec::new());
    }
    let world = system.world();
    let horizon = world.horizon();
    let discounts = hub_discounts(system, hubs, engine)?;
    let configs: Vec<TrainerConfig> = hubs
        .iter()
        .map(|&hub| TrainerConfig {
            seed: hub_seed(system, hub),
            ..system.config().trainer.clone()
        })
        .collect();

    let factory = |_episode: usize, rngs: &mut [EctRng]| {
        fleet_env_for_hubs(world, hubs, 0, horizon, &discounts, OBS_WINDOW, rngs)
    };

    let trained = train_fleet(&configs, factory)?;
    let policies: Vec<ActorCritic> = trained.iter().map(|(policy, _)| policy.clone()).collect();
    let eval_seeds: Vec<u64> = configs.iter().map(|c| c.seed ^ EVAL_SEED_STREAM).collect();
    let summaries = evaluate_fleet_greedy(
        &policies,
        factory,
        system.config().test_episodes,
        &eval_seeds,
    )?;

    Ok(hubs
        .iter()
        .zip(trained.iter().zip(&summaries))
        .map(|(&hub, ((_, history), summary))| assemble_result(hub, method_label, history, summary))
        .collect())
}

/// Evaluates a rule-based scheduler (no training) on a *batch* of hubs
/// under one pricing engine, one lockstep lane per hub; lane `i`'s
/// evaluation stream is seeded `system seed ^ hub`.
///
/// # Errors
///
/// Propagates schedule and environment failures.
pub fn run_hubs_scheduler_batched<S: Scheduler + ?Sized>(
    system: &EctHubSystem,
    hubs: &[HubId],
    engine: &dyn PricingEngine,
    scheduler: &mut S,
) -> ect_types::Result<Vec<HubExperimentResult>> {
    if hubs.is_empty() {
        return Ok(Vec::new());
    }
    let world = system.world();
    let horizon = world.horizon();
    let discounts = hub_discounts(system, hubs, engine)?;
    let seeds: Vec<u64> = hubs
        .iter()
        .map(|&hub| system.config().seed ^ u64::from(hub.as_u32()))
        .collect();
    let summaries = evaluate_fleet_scheduler(
        scheduler,
        |_episode: usize, rngs: &mut [EctRng]| {
            fleet_env_for_hubs(world, hubs, 0, horizon, &discounts, OBS_WINDOW, rngs)
        },
        system.config().test_episodes,
        &seeds,
    )?;
    let name = scheduler.name();
    Ok(hubs
        .iter()
        .zip(&summaries)
        .map(|(&hub, summary)| assemble_result(hub, name, &TrainingHistory::default(), summary))
        .collect())
}

/// The rule-based anchors of a world: NoBattery, GreedyPrice and TimeOfUse
/// on every hub without discounts. Returns each scheduler's mean average
/// daily reward over the hubs (summed in hub order) and the best of the
/// three.
///
/// # Errors
///
/// Propagates schedule and environment failures.
pub(crate) fn rule_based_anchors(
    system: &EctHubSystem,
) -> ect_types::Result<(Vec<(String, f64)>, f64)> {
    let hubs: Vec<HubId> = (0..system.world().num_hubs()).map(HubId::new).collect();
    let schedulers: [&mut dyn Scheduler; 3] = [
        &mut NoBattery,
        &mut GreedyPrice::default_thresholds(),
        &mut TimeOfUse,
    ];
    let mut means = Vec::with_capacity(schedulers.len());
    for scheduler in schedulers {
        let cells = run_hubs_scheduler_batched(system, &hubs, &NeverDiscount, scheduler)?;
        let total = cells
            .iter()
            .fold(0.0, |total, cell| total + cell.avg_daily_reward);
        means.push((scheduler.name().to_string(), total / hubs.len() as f64));
    }
    let best = means
        .iter()
        .map(|(_, reward)| *reward)
        .fold(f64::NEG_INFINITY, f64::max);
    Ok((means, best))
}

/// Worker count and hub-chunk length for `jobs × num_hubs` DRL cells on
/// `threads` workers (0 = one worker per cell): each job's hub list splits
/// into enough chunks to keep the workers busy, and each (job, hub-chunk)
/// pair trains as one batched fleet. `None` when there is no cell.
pub(crate) fn hub_chunking(jobs: usize, num_hubs: usize, threads: usize) -> Option<(usize, usize)> {
    let cells = jobs * num_hubs;
    if cells == 0 {
        return None;
    }
    let workers = if threads == 0 {
        cells
    } else {
        threads.min(cells).max(1)
    };
    let chunks_per_job = workers.div_ceil(jobs).clamp(1, num_hubs);
    Some((workers, num_hubs.div_ceil(chunks_per_job)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemConfig;
    use ect_price::engine::AlwaysDiscount;

    fn system() -> EctHubSystem {
        EctHubSystem::new(SystemConfig::miniature()).unwrap()
    }

    #[test]
    fn schedules_differ_between_engines() {
        let s = system();
        let none = schedule_for_hub(&s, &NeverDiscount, HubId::new(0)).unwrap();
        let all = schedule_for_hub(&s, &AlwaysDiscount, HubId::new(0)).unwrap();
        assert_eq!(none.discounted_count(), 0);
        assert_eq!(all.discounted_count(), all.len());
    }

    #[test]
    fn hub_method_runs_end_to_end() {
        let s = system();
        let r = run_hubs_method_batched(&s, &[HubId::new(0)], &NeverDiscount, "NoDiscount")
            .unwrap()
            .remove(0);
        assert_eq!(r.hub, 0);
        assert_eq!(r.method, "NoDiscount");
        assert_eq!(r.daily_series.len(), 30);
        assert!(r.avg_daily_reward.is_finite());
        assert!(r.final_training_return.is_finite());
    }

    #[test]
    fn heuristic_evaluation_runs() {
        let s = system();
        let r = run_hubs_scheduler_batched(&s, &[HubId::new(1)], &NeverDiscount, &mut NoBattery)
            .unwrap()
            .remove(0);
        assert_eq!(r.hub, 1);
        assert_eq!(r.method, "NoBattery");
        assert!(r.avg_daily_reward.is_finite());
        assert!(r.final_training_return.is_nan());
    }

    /// The miniature fleet on a session with `threads` workers.
    fn fleet(
        threads: usize,
        engines: &[(String, Box<dyn PricingEngine>)],
    ) -> Vec<HubExperimentResult> {
        crate::session::SessionBuilder::new(SystemConfig::miniature())
            .threads(threads)
            .build()
            .unwrap()
            .fleet(engines)
            .unwrap()
    }

    fn never_discount() -> Vec<(String, Box<dyn PricingEngine>)> {
        vec![("NoDiscount".into(), Box::new(NeverDiscount))]
    }

    #[test]
    fn fleet_covers_all_cells_in_parallel() {
        let engines: Vec<(String, Box<dyn PricingEngine>)> = vec![
            ("NoDiscount".into(), Box::new(NeverDiscount)),
            ("AlwaysDiscount".into(), Box::new(AlwaysDiscount)),
        ];
        let results = fleet(4, &engines);
        assert_eq!(results.len(), 3 * 2);
        // Sorted by (hub, method).
        assert!(results
            .windows(2)
            .all(|w| (w[0].hub, &w[0].method) <= (w[1].hub, &w[1].method)));
    }

    #[test]
    fn run_fleet_matches_per_cell_results_regardless_of_chunking() {
        let wide = fleet(0, &never_discount()); // one worker per chunk
        let narrow = fleet(1, &never_discount()); // single worker
        assert_eq!(wide.len(), narrow.len());
        for (a, b) in wide.iter().zip(&narrow) {
            assert_eq!(a.hub, b.hub);
            assert_eq!(a.avg_daily_reward.to_bits(), b.avg_daily_reward.to_bits());
        }
    }

    #[test]
    fn work_stealing_fleet_is_bit_identical_across_thread_counts() {
        // The work-stealing pool hands jobs to whichever worker is free, so
        // execution order varies run to run — the slab-indexed results must
        // not. Pin bitwise identity against the single-worker inline path.
        let reference = fleet(1, &never_discount());
        for threads in [2, 3, 5] {
            let stolen = fleet(threads, &never_discount());
            assert_eq!(stolen.len(), reference.len(), "threads {threads}");
            for (a, b) in stolen.iter().zip(&reference) {
                assert_eq!(a.hub, b.hub);
                assert_eq!(a.method, b.method);
                assert_eq!(
                    a.avg_daily_reward.to_bits(),
                    b.avg_daily_reward.to_bits(),
                    "hub {} threads {threads}",
                    a.hub
                );
                assert_eq!(
                    a.final_training_return.to_bits(),
                    b.final_training_return.to_bits()
                );
                for (x, y) in a.daily_series.iter().zip(&b.daily_series) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }

    #[test]
    fn discounts_increase_revenue_capture() {
        // With everything else equal, an AlwaysDiscount schedule converts the
        // Incentive strata, so the evaluated reward should not be lower than
        // the never-discount schedule on average (discount margin 0.8 × extra
        // conversions outweighs the subsidy at c = 0.2 in this world).
        let s = system();
        let hub = [HubId::new(0)];
        let base = run_hubs_scheduler_batched(&s, &hub, &NeverDiscount, &mut NoBattery)
            .unwrap()
            .remove(0);
        let promo = run_hubs_scheduler_batched(&s, &hub, &AlwaysDiscount, &mut NoBattery)
            .unwrap()
            .remove(0);
        assert!(
            promo.avg_daily_reward > base.avg_daily_reward * 0.8,
            "promo {} vs base {}",
            promo.avg_daily_reward,
            base.avg_daily_reward
        );
    }
}
