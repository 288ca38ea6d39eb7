//! `hub_train`: the paper's pipeline on the 12-hub, 720-slot world.
//!
//! Set-up generates the world and the observational pricing history from
//! the seed. One pass then trains ECT-Price, builds every hub's discount
//! schedule, trains one PPO policy per hub over lockstep fleet episodes
//! (hub chunks dispatched through `run_indexed`) and evaluates the trained
//! policies greedily. The PPO update and `ect-nn` carry most of the work;
//! the SoA kernel and the microsim are never called.

use crate::report::{
    median, peak_rss_mb, ratio, reset_peak_rss, seed_stream, timed_median, Budget, Metrics, Ops,
    Outcome,
};
use crate::trace::{nn_probe, overhead_pct, policy_state_dim, traced, Tally};
use crate::RunArgs;
use ect_core::dispatch::run_indexed;
use ect_core::scheduling::{schedule_for_hub, OBS_WINDOW};
use ect_core::system::{EctHubSystem, SystemConfig};
use ect_drl::actor_critic::ActorCritic;
use ect_drl::collector::{evaluate_fleet_greedy, train_fleet};
use ect_drl::trainer::TrainerConfig;
use ect_env::fleet::fleet_env_for_hubs;
use ect_env::tariff::DiscountSchedule;
use ect_price::engine::EctPriceEngine;
use ect_price::features::PricingDataset;
use ect_price::model::EctPriceModel;
use ect_types::ids::HubId;
use ect_types::rng::EctRng;
use std::ops::Range;
use std::time::Instant;

/// PPO training episodes per hub in one pass.
const EPISODES: usize = 4;
/// Greedy evaluation episodes per hub in one pass.
const TEST_EPISODES: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Benchmark-side stage spans, one after another on the main thread.
const STAGES: &[&str] = &[
    "bench.price.train",
    "bench.price.schedule",
    "bench.drl.train",
    "bench.drl.eval",
];

fn config(seed: u64) -> SystemConfig {
    let mut config = SystemConfig::default();
    config.world.seed = seed_stream(seed, 1);
    config.seed = seed_stream(seed, 2);
    config.pricing_history_slots = 24 * 7 * 26;
    config.pricing_test_slots = 24 * 7 * 8;
    config.ect_price.epochs = 2;
    config.ect_price.lr_decay = 0.9;
    config.trainer.episodes = EPISODES;
    config.test_episodes = TEST_EPISODES;
    config
}

/// The generated inputs of the pipeline.
struct Inputs {
    system: EctHubSystem,
    train: PricingDataset,
}

/// What one pass produced and how long its parts took.
struct Pass {
    wall_s: f64,
    train_stage_s: f64,
    mean_daily_reward: f64,
    /// Busy seconds of the dispatched jobs, and the capacity
    /// (stage wall × workers) they ran in.
    busy_s: f64,
    capacity_s: f64,
}

/// Contiguous hub ranges, one job each.
fn chunks(hubs: usize, threads: usize) -> Vec<Range<usize>> {
    let len = hubs.div_ceil(threads.max(1)).max(1);
    (0..hubs)
        .step_by(len)
        .map(|start| start..(start + len).min(hubs))
        .collect()
}

fn hub_seed(system: &EctHubSystem, hub: HubId) -> u64 {
    system.config().seed ^ (u64::from(hub.as_u32()) << 32)
}

fn pass(inputs: &Inputs, threads: usize) -> ect_types::Result<Pass> {
    let t0 = Instant::now();
    let system = &inputs.system;
    let world = system.world();
    let horizon = world.horizon();
    let hubs: Vec<HubId> = (0..world.num_hubs()).map(HubId::new).collect();

    let model = {
        let _span = ect_obs::span("bench.price.train");
        let config = &system.config().ect_price;
        let mut rng = EctRng::seed_from(seed_stream(system.config().seed, 3));
        let mut model = EctPriceModel::new(system.feature_space(), config, &mut rng);
        model.train(&inputs.train, config, &mut rng)?;
        model
    };
    let schedules: Vec<DiscountSchedule> = {
        let _span = ect_obs::span("bench.price.schedule");
        let engine = EctPriceEngine::new(model);
        hubs.iter()
            .map(|&hub| schedule_for_hub(system, &engine, hub))
            .collect::<ect_types::Result<_>>()?
    };

    let jobs = chunks(hubs.len(), threads);
    let workers = jobs.len().min(threads.max(1));
    let factory_for = |range: &Range<usize>| {
        let hubs = &hubs[range.clone()];
        let schedules = &schedules[range.clone()];
        move |_episode: usize, rngs: &mut [EctRng]| {
            let _span = ect_obs::span("bench.env.fleet_build");
            fleet_env_for_hubs(world, hubs, 0, horizon, schedules, OBS_WINDOW, rngs)
        }
    };
    let configs_for = |range: &Range<usize>| -> Vec<TrainerConfig> {
        hubs[range.clone()]
            .iter()
            .map(|&hub| TrainerConfig {
                seed: hub_seed(system, hub),
                ..system.config().trainer.clone()
            })
            .collect()
    };

    let stage = Instant::now();
    let trained = {
        let _span = ect_obs::span("bench.drl.train");
        run_indexed(jobs.clone(), threads, |_, range| {
            let job = Instant::now();
            let trained = train_fleet(&configs_for(&range), factory_for(&range))?;
            let policies: Vec<ActorCritic> = trained.into_iter().map(|(p, _)| p).collect();
            Ok((policies, job.elapsed().as_secs_f64()))
        })?
    };
    let train_stage_s = stage.elapsed().as_secs_f64();

    let stage = Instant::now();
    let evaluated = {
        let _span = ect_obs::span("bench.drl.eval");
        run_indexed(
            jobs.iter().cloned().zip(&trained).collect(),
            threads,
            |_, (range, (policies, _))| {
                let job = Instant::now();
                let seeds: Vec<u64> = configs_for(&range)
                    .iter()
                    .map(|c| seed_stream(c.seed, 4))
                    .collect();
                let summaries =
                    evaluate_fleet_greedy(policies, factory_for(&range), TEST_EPISODES, &seeds)?;
                Ok((summaries, job.elapsed().as_secs_f64()))
            },
        )?
    };
    let eval_stage_s = stage.elapsed().as_secs_f64();

    let rewards: Vec<f64> = evaluated
        .iter()
        .flat_map(|(summaries, _)| summaries.iter().map(|s| s.avg_daily_reward))
        .collect();
    let busy_s =
        trained.iter().map(|(_, s)| s).sum::<f64>() + evaluated.iter().map(|(_, s)| s).sum::<f64>();
    Ok(Pass {
        wall_s: t0.elapsed().as_secs_f64(),
        train_stage_s,
        mean_daily_reward: rewards.iter().sum::<f64>() / rewards.len().max(1) as f64,
        busy_s,
        capacity_s: (train_stage_s + eval_stage_s) * workers as f64,
    })
}

pub fn run(args: &RunArgs) -> Option<Outcome> {
    let mut ops = Ops::default();
    let config = config(args.seed);
    let mut metrics = Metrics::new();

    // Set-up: the world, then the pricing history, several times over.
    let mut world_s = Vec::new();
    let mut history_s = Vec::new();
    let mut sizes = Vec::new();
    let (inputs, setup_s) = ops.pass(
        timed_median(SETUP_REPS, || {
            let t0 = Instant::now();
            let system = EctHubSystem::new(config.clone())?;
            world_s.push(t0.elapsed().as_secs_f64());
            let t0 = Instant::now();
            let (train, test) = system.pricing_datasets();
            history_s.push(t0.elapsed().as_secs_f64());
            sizes.push((train.len(), test.len()));
            Ok(Inputs { system, train })
        }),
        "set-up",
    )?;
    ops.check(
        sizes.iter().all(|&s| s == sizes[0]) && sizes[0].0 > 0,
        "set-up repeats for one seed",
    );
    let hubs = inputs.system.world().num_hubs() as usize;
    let horizon = inputs.system.world().horizon();
    let transitions = (hubs * EPISODES * horizon) as f64;
    let eval_slots = (hubs * TEST_EPISODES * horizon) as f64;
    let ppo = &inputs.system.config().trainer.ppo;

    let mut plain: Vec<Pass> = Vec::new();
    let mut traced_walls = Vec::new();
    let mut tally = Tally::default();
    let mut reward_bits: Option<u64> = None;
    let mut rss = Vec::new();
    let mut budget = Budget::new(args.seconds, 2);
    let mut reps = 0;
    while budget.more(reps) {
        // With tracing on, passes alternate untraced / traced so the
        // overhead is measured in the same run.
        let trace_this = args.trace && reps % 2 == 1;
        reset_peak_rss();
        let result = if trace_this {
            let (result, telemetry) = traced(|| pass(&inputs, args.threads));
            tally.absorb(&telemetry);
            result
        } else {
            pass(&inputs, args.threads)
        };
        if !trace_this {
            rss.push(peak_rss_mb());
        }
        reps += 1;
        let pass = ops.pass(result, "hub_train pass")?;
        println!("pass {reps} (traced: {trace_this}): {:.4} s", pass.wall_s);
        ops.check(pass.mean_daily_reward.is_finite(), "reward is finite");
        let bits = pass.mean_daily_reward.to_bits();
        ops.check(
            *reward_bits.get_or_insert(bits) == bits,
            "reward repeats bit for bit across passes of one seed",
        );
        if trace_this {
            traced_walls.push(pass.wall_s);
        } else {
            plain.push(pass);
        }
    }

    if args.trace {
        let plain_walls: Vec<f64> = plain.iter().map(|p| p.wall_s).collect();
        // The program's own PPO spans, summed over the worker threads.
        let update_s = tally.span_per_pass("ppo.update");
        let collect_s = tally.span_per_pass("ppo.collect");
        metrics.insert("drl.update_s".into(), update_s);
        metrics.insert("drl.collect_s".into(), collect_s);
        metrics.insert(
            "drl.update_samples_per_s".into(),
            ratio(transitions * ppo.update_epochs as f64, update_s),
        );
        metrics.insert(
            "drl.collect_transitions_per_s".into(),
            ratio(transitions, collect_s),
        );
        metrics.insert(
            "drl.update_share".into(),
            ratio(update_s, update_s + collect_s),
        );
        tally.dispatch_metrics(&mut metrics);
        metrics.insert("drl.eval_s".into(), tally.span_per_pass("bench.drl.eval"));
        let price_s = tally.span_per_pass("bench.price.train");
        metrics.insert("price.train_s".into(), price_s);
        metrics.insert(
            "price.train_records_per_s".into(),
            ratio(
                (inputs.train.len() * inputs.system.config().ect_price.epochs) as f64,
                price_s,
            ),
        );
        metrics.insert(
            "price.schedule_s".into(),
            tally.span_per_pass("bench.price.schedule"),
        );
        metrics.insert(
            "env.fleet_build_s".into(),
            tally.span_per_pass("bench.env.fleet_build"),
        );
        metrics.insert(
            "dag.utilisation".into(),
            ratio(
                plain.iter().map(|p| p.busy_s).sum(),
                plain.iter().map(|p| p.capacity_s).sum(),
            ),
        );
        metrics.insert("data.world_gen_s".into(), median(&world_s));
        metrics.insert("data.pricing_history_s".into(), median(&history_s));
        metrics.insert(
            "obs.overhead_pct".into(),
            overhead_pct(&traced_walls, &plain_walls),
        );
        metrics.insert(
            "obs.span_coverage".into(),
            tally.coverage(STAGES, &traced_walls),
        );
        let state_dim = ops.pass(policy_state_dim(inputs.system.world()), "policy net probe")?;
        nn_probe(state_dim, ppo.minibatch_size, args.seed, &mut metrics);
    } else {
        let walls: Vec<f64> = plain.iter().map(|p| p.wall_s).collect();
        let train_rates: Vec<f64> = plain
            .iter()
            .map(|p| transitions / p.train_stage_s)
            .collect();
        let slot_rates: Vec<f64> = plain
            .iter()
            .map(|p| (transitions + eval_slots) / p.wall_s)
            .collect();
        metrics.insert("wall_s".into(), median(&walls));
        metrics.insert("warm_wall_s".into(), median(&walls[1..]));
        metrics.insert("setup_s".into(), setup_s);
        metrics.insert("train_samples_per_s".into(), median(&train_rates));
        metrics.insert("sim_hub_slots_per_s".into(), median(&slot_rates));
        metrics.insert("mean_daily_reward_usd".into(), plain[0].mean_daily_reward);
        metrics.insert("peak_rss_mb".into(), median(&rss));
    }
    Some(Outcome { ops, metrics })
}
