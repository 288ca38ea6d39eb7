//! `metro_sim`: one metro area, no neural net in the loop.
//!
//! Set-up generates a 12-hub world and the region from the seed. One pass
//! synthesises UE demand for `LANES` hubs with the microsim
//! (`MicrosimDemandOptions::build`), injects it into fleet lanes
//! (`fleet_env_for_hubs_with_traffic`) and sweeps a price-threshold battery
//! policy over `step_batch_soa`, lane shards dispatched through
//! `run_indexed`. Every lane carries its own traffic series, so the SoA
//! kernel cannot deduplicate lanes into shared groups.

use crate::report::{
    median, peak_rss_mb, ratio, reset_peak_rss, seed_stream, timed_median, Budget, Metrics, Ops,
    Outcome,
};
use crate::trace::{overhead_pct, traced, Tally};
use crate::RunArgs;
use ect_core::dispatch::run_indexed;
use ect_core::microsim::MicrosimDemandOptions;
use ect_core::scheduling::OBS_WINDOW;
use ect_data::dataset::{WorldConfig, WorldDataset};
use ect_data::spatial::{Region, RegionConfig};
use ect_data::traffic::TrafficSample;
use ect_env::battery::BpAction;
use ect_env::fleet::fleet_env_for_hubs_with_traffic;
use ect_env::tariff::DiscountSchedule;
use ect_microsim::MicrosimConfig;
use ect_types::ids::HubId;
use ect_types::rng::EctRng;
use ect_types::time::SLOTS_PER_DAY;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// Hubs of the metro area (fleet lanes).
const LANES: usize = 2_000;
/// Slots of one pass (one week).
const SLOTS: usize = 168;
/// Simulated UEs.
const UES: usize = 20_000;
/// Threshold pairs in the policy sweep.
const THRESHOLDS: usize = 32;
/// Lane shards dispatched per sweep: ~31 lanes each, so a shard's SoA
/// slot lanes stay cache-resident across its threshold sweep.
const SHARDS: usize = 64;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Benchmark-side stage spans, one after another on the main thread.
const STAGES: &[&str] = &["bench.microsim.synth", "bench.env.sweep"];

struct Inputs {
    world: WorldDataset,
    options: MicrosimDemandOptions,
    /// `actions[k][t]`: the sweep's action for threshold pair `k` at slot
    /// `t` (charge below the low price quantile, discharge above the high
    /// one, idle between).
    actions: Vec<Vec<BpAction>>,
    seed: u64,
}

fn region_config() -> RegionConfig {
    RegionConfig {
        num_base_stations: 3_000,
        ..RegionConfig::default()
    }
}

fn setup(seed: u64, region_s: &mut Vec<f64>, world_s: &mut Vec<f64>) -> ect_types::Result<Inputs> {
    let t0 = Instant::now();
    let world = WorldDataset::generate(WorldConfig {
        horizon_slots: SLOTS,
        seed: seed_stream(seed, 1),
        ..WorldConfig::default()
    })?;
    world_s.push(t0.elapsed().as_secs_f64());

    // The pass regenerates this region inside `MicrosimDemandOptions::build`;
    // here it is timed as a data-layer input and checked for room.
    let t0 = Instant::now();
    let region = Region::generate(
        &region_config(),
        &mut EctRng::seed_from(seed_stream(seed, 2)),
    )?;
    region_s.push(t0.elapsed().as_secs_f64());
    if region.base_stations.len() < LANES {
        return Err(ect_types::EctError::InsufficientData(format!(
            "region holds {} base stations, the workload sites {LANES} hubs",
            region.base_stations.len()
        )));
    }

    let mut prices: Vec<f64> = world.rtp.iter().map(|p| p.as_f64()).collect();
    prices.sort_by(f64::total_cmp);
    let quantile = |q: f64| prices[((prices.len() - 1) as f64 * q).round() as usize];
    let actions = (0..THRESHOLDS)
        .map(|k| {
            let spread = 0.3 * k as f64 / (THRESHOLDS - 1) as f64;
            let (low, high) = (quantile(0.1 + spread), quantile(0.9 - spread));
            world
                .rtp
                .iter()
                .map(|p| match p.as_f64() {
                    p if p <= low => BpAction::Charge,
                    p if p >= high => BpAction::Discharge,
                    _ => BpAction::Idle,
                })
                .collect()
        })
        .collect();
    Ok(Inputs {
        world,
        options: MicrosimDemandOptions {
            microsim: MicrosimConfig {
                num_ues: UES,
                ..MicrosimConfig::default()
            },
            region: region_config(),
            num_hubs: LANES,
            slots: SLOTS,
            seed: seed_stream(seed, 3),
        },
        actions,
        seed,
    })
}

struct Shard {
    /// Total reward of the shard's lanes per threshold pair.
    reward: Vec<f64>,
    groups: usize,
    build_s: f64,
    sweep_s: f64,
}

fn sweep_shard(
    inputs: &Inputs,
    lanes: Range<usize>,
    traffic: &[Arc<[TrafficSample]>],
) -> ect_types::Result<Shard> {
    let t0 = Instant::now();
    let num_hubs = inputs.world.num_hubs() as usize;
    let hubs: Vec<HubId> = lanes
        .clone()
        .map(|lane| HubId::new((lane % num_hubs) as u32))
        .collect();
    let discounts = vec![DiscountSchedule::none(SLOTS); hubs.len()];
    let mut rngs: Vec<EctRng> = lanes
        .clone()
        .map(|lane| EctRng::seed_from(seed_stream(inputs.seed, 1_000 + lane as u64)))
        .collect();
    let mut fleet = fleet_env_for_hubs_with_traffic(
        &inputs.world,
        &hubs,
        0,
        SLOTS,
        &discounts,
        OBS_WINDOW,
        &traffic[lanes],
        &mut rngs,
    )?;
    let groups = fleet.soa_group_count();
    let build_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let initial_soc = vec![0.5; hubs.len()];
    let mut actions = vec![BpAction::Idle; hubs.len()];
    let mut reward = Vec::with_capacity(THRESHOLDS);
    for schedule in &inputs.actions {
        fleet.reset(&initial_soc);
        let mut total = 0.0;
        loop {
            actions.fill(schedule[fleet.slot()]);
            let step = fleet.step_batch_soa(&actions);
            total += step.rewards.iter().sum::<f64>();
            if step.done {
                break;
            }
        }
        reward.push(total);
    }
    Ok(Shard {
        reward,
        groups,
        build_s,
        sweep_s: t0.elapsed().as_secs_f64(),
    })
}

struct Pass {
    wall_s: f64,
    sweep_stage_s: f64,
    associations: u64,
    groups: usize,
    /// Fleet total reward per threshold pair, folded in shard order.
    reward: Vec<f64>,
    build_s: f64,
    sweep_s: f64,
    busy_s: f64,
    capacity_s: f64,
}

fn pass(inputs: &Inputs, threads: usize) -> ect_types::Result<Pass> {
    let t0 = Instant::now();
    let demand = {
        let _span = ect_obs::span("bench.microsim.synth");
        inputs.options.build(threads)?
    };
    let traffic = demand.traffic_arcs();
    if traffic.len() != LANES {
        return Err(ect_types::EctError::ShapeMismatch {
            context: "microsim traffic series",
            expected: LANES,
            actual: traffic.len(),
        });
    }

    let stage = Instant::now();
    let shard_len = LANES.div_ceil(SHARDS);
    let jobs: Vec<Range<usize>> = (0..LANES)
        .step_by(shard_len)
        .map(|start| start..(start + shard_len).min(LANES))
        .collect();
    let workers = jobs.len().min(threads.max(1));
    let shards = {
        let _span = ect_obs::span("bench.env.sweep");
        run_indexed(jobs, threads, |_, lanes| {
            sweep_shard(inputs, lanes, &traffic)
        })?
    };
    let sweep_stage_s = stage.elapsed().as_secs_f64();

    let mut reward = vec![0.0; THRESHOLDS];
    for shard in &shards {
        for (total, r) in reward.iter_mut().zip(&shard.reward) {
            *total += r;
        }
    }
    let build_s: f64 = shards.iter().map(|s| s.build_s).sum();
    let sweep_s: f64 = shards.iter().map(|s| s.sweep_s).sum();
    Ok(Pass {
        wall_s: t0.elapsed().as_secs_f64(),
        sweep_stage_s,
        associations: demand.total_associations,
        groups: shards.iter().map(|s| s.groups).sum(),
        reward,
        build_s,
        sweep_s,
        busy_s: build_s + sweep_s,
        capacity_s: sweep_stage_s * workers as f64,
    })
}

pub fn run(args: &RunArgs) -> Option<Outcome> {
    let mut ops = Ops::default();
    let mut metrics = Metrics::new();
    let mut region_s = Vec::new();
    let mut world_s = Vec::new();
    let (inputs, setup_s) = ops.pass(
        timed_median(SETUP_REPS, || setup(args.seed, &mut region_s, &mut world_s)),
        "set-up",
    )?;

    let hub_slots = (LANES * SLOTS * THRESHOLDS) as f64;
    let ue_slots = (UES * SLOTS) as u64;
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced_passes: Vec<Pass> = Vec::new();
    let mut tally = Tally::default();
    let mut checksum: Option<u64> = None;
    let mut rss = Vec::new();
    let mut budget = Budget::new(args.seconds, 2);
    let mut reps = 0;
    while budget.more(reps) {
        let trace_this = args.trace && reps % 2 == 1;
        reset_peak_rss();
        let result = if trace_this {
            let (result, telemetry) = traced(|| pass(&inputs, args.threads));
            ops.check(
                telemetry.counter_value("microsim.associations") == ue_slots,
                "traced microsim.associations equals UEs × slots",
            );
            tally.absorb(&telemetry);
            result
        } else {
            pass(&inputs, args.threads)
        };
        if !trace_this {
            rss.push(peak_rss_mb());
        }
        reps += 1;
        let pass = ops.pass(result, "metro_sim pass")?;
        println!("pass {reps} (traced: {trace_this}): {:.4} s", pass.wall_s);
        ops.check(
            pass.associations == ue_slots,
            "microsim associations equal UEs × slots",
        );
        ops.check(pass.groups == LANES, "every lane is its own SoA group");
        let sum: f64 = pass.reward.iter().sum();
        ops.check(sum.is_finite(), "reward checksum is finite");
        ops.check(
            *checksum.get_or_insert(sum.to_bits()) == sum.to_bits(),
            "reward checksum repeats bit for bit across passes of one seed",
        );
        if trace_this {
            traced_passes.push(pass);
        } else {
            plain.push(pass);
        }
    }

    if args.trace {
        let plain_walls: Vec<f64> = plain.iter().map(|p| p.wall_s).collect();
        let traced_walls: Vec<f64> = traced_passes.iter().map(|p| p.wall_s).collect();
        let per_pass = |f: fn(&Pass) -> f64| {
            ratio(
                traced_passes.iter().map(f).sum(),
                traced_passes.len() as f64,
            )
        };
        let synth_s = tally.span_per_pass("bench.microsim.synth");
        metrics.insert("microsim.synth_s".into(), synth_s);
        metrics.insert(
            "microsim.ue_slots_per_s".into(),
            ratio(ue_slots as f64, synth_s),
        );
        metrics.insert(
            "microsim.associations".into(),
            tally.counter_per_pass("microsim.associations"),
        );
        metrics.insert("env.fleet_build_s".into(), per_pass(|p| p.build_s));
        metrics.insert(
            "env.soa_hub_slots_per_s".into(),
            ratio(hub_slots, per_pass(|p| p.sweep_s)),
        );
        metrics.insert("env.soa_groups".into(), per_pass(|p| p.groups as f64));
        tally.dispatch_metrics(&mut metrics);
        metrics.insert(
            "dag.utilisation".into(),
            ratio(
                plain.iter().map(|p| p.busy_s).sum(),
                plain.iter().map(|p| p.capacity_s).sum(),
            ),
        );
        metrics.insert("data.world_gen_s".into(), median(&world_s));
        metrics.insert("data.region_gen_s".into(), median(&region_s));
        metrics.insert(
            "obs.overhead_pct".into(),
            overhead_pct(&traced_walls, &plain_walls),
        );
        metrics.insert(
            "obs.span_coverage".into(),
            tally.coverage(STAGES, &traced_walls),
        );
    } else {
        let walls: Vec<f64> = plain.iter().map(|p| p.wall_s).collect();
        let sweep_rates: Vec<f64> = plain.iter().map(|p| hub_slots / p.sweep_stage_s).collect();
        let rates: Vec<f64> = plain.iter().map(|p| hub_slots / p.wall_s).collect();
        let best = plain[0].reward.iter().copied().fold(f64::MIN, f64::max);
        let hub_days = (LANES * SLOTS / SLOTS_PER_DAY) as f64;
        metrics.insert("wall_s".into(), median(&walls));
        metrics.insert("warm_wall_s".into(), median(&walls[1..]));
        metrics.insert("setup_s".into(), setup_s);
        metrics.insert("train_samples_per_s".into(), median(&sweep_rates));
        metrics.insert("sim_hub_slots_per_s".into(), median(&rates));
        metrics.insert("mean_daily_reward_usd".into(), best / hub_days);
        metrics.insert("peak_rss_mb".into(), median(&rss));
    }
    Some(Outcome { ops, metrics })
}
