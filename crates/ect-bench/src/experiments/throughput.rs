//! Stepping-kernel throughput: hub-slots/sec of the slot kernel at fleet
//! scale.
//!
//! This experiment saturates [`FleetEnv::step_batch_soa`] — the
//! struct-of-arrays stepping kernel — far beyond the paper's 12-hub fleet:
//! the 12 base lanes are replicated (Arc-shared series, so the SoA layer
//! dedupes them into at most 12 slot-lane groups) up to 1k/10k/100k hubs,
//! sharded across the work-stealing [`ect_core::dispatch`] pool, and stepped
//! for a fixed slot budget. Each rung reports aggregate **hub-slots per
//! second**; alongside, the paper-sized 12-hub × 720-slot episode is timed
//! through the same kernel. JSON lands in `results/throughput.json`, and
//! every rung is upserted as its own `results/BENCH_summary.json` row so
//! filtered passes (`run_all --only throughput`) still publish the
//! trajectory.

use crate::output::{save_json, upsert_bench_summary, BenchSummaryEntry};
use ect_core::dispatch::run_indexed;
use ect_env::battery::BpAction;
use ect_env::fleet::fleet_env_for_hubs;
use ect_env::tariff::DiscountSchedule;
use ect_env::vec_env::FleetEnv;
use ect_types::ids::HubId;
use ect_types::rng::EctRng;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// The paper's fleet size; rung fleets replicate these base lanes.
pub const BASE_HUBS: usize = 12;

/// One 30-day episode, the paper's evaluation horizon.
pub const EPISODE_SLOTS: usize = 720;

/// Scale knobs of the throughput sweep.
#[derive(Debug, Clone)]
pub struct ThroughputOptions {
    /// Fleet sizes to sweep (hubs per rung).
    pub rung_hubs: Vec<usize>,
    /// Slots stepped per rung measurement.
    pub rung_slots: usize,
    /// Measurement repetitions per rung/episode (best counted).
    pub reps: usize,
    /// Observation window of the rung fleets (the episode comparison always
    /// uses the paper's 24-slot window).
    pub window: usize,
}

/// The sweep options of one experiment scale.
pub fn options_for(scale: crate::Scale) -> ThroughputOptions {
    let (rung_slots, reps) = match scale {
        crate::Scale::Smoke => (8, 1),
        crate::Scale::Quick => (64, 3),
        crate::Scale::Paper => (256, 3),
    };
    ThroughputOptions {
        rung_hubs: vec![1_000, 10_000, 100_000],
        rung_slots,
        reps,
        window: 6,
    }
}

/// One fleet-size rung of the sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThroughputRung {
    /// Fleet size (lanes across all shards).
    pub hubs: usize,
    /// Slots every lane stepped inside the timed region.
    pub slots_stepped: usize,
    /// Shards the fleet was split into (one batched engine each).
    pub shards: usize,
    /// Distinct SoA slot-lane groups per shard (≤ [`BASE_HUBS`]: the
    /// replicated lanes deduplicate onto the base lanes' series).
    pub soa_groups: usize,
    /// Best wall time of the timed region, milliseconds.
    pub wall_ms: f64,
    /// Aggregate throughput: `hubs × slots / wall`, hub-slots per second.
    pub hub_slots_per_s: f64,
}

/// Full experiment result: the rung sweep plus the 12-hub episode pin.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThroughputResult {
    /// Throughput per fleet-size rung, in sweep order.
    pub rungs: Vec<ThroughputRung>,
    /// Worker threads the rung shards were dispatched over.
    pub threads: usize,
    /// 12-hub × 720-slot episode through `step_batch_soa`, ms (best).
    pub soa_episode_ms: f64,
    /// Sum of all rewards produced inside the timed regions — a
    /// determinism/liveness checksum, not a metric.
    pub reward_checksum: f64,
}

impl ThroughputResult {
    /// Headline metric: hub-slots/sec at the largest rung.
    pub fn headline_hub_slots_per_s(&self) -> f64 {
        self.rungs.last().map_or(0.0, |r| r.hub_slots_per_s)
    }
}

/// The paper-sized base world the rung fleets replicate.
fn base_fleet(window: usize) -> ect_types::Result<FleetEnv> {
    let world = ect_data::dataset::WorldDataset::generate(ect_data::dataset::WorldConfig {
        num_hubs: BASE_HUBS as u32,
        horizon_slots: EPISODE_SLOTS,
        ..ect_data::dataset::WorldConfig::default()
    })?;
    let hubs: Vec<HubId> = (0..BASE_HUBS as u32).map(HubId::new).collect();
    let discounts = vec![DiscountSchedule::none(EPISODE_SLOTS); BASE_HUBS];
    let mut rngs: Vec<EctRng> = (0..BASE_HUBS as u64)
        .map(|h| EctRng::seed_from(1000 + h))
        .collect();
    fleet_env_for_hubs(
        &world,
        &hubs,
        0,
        EPISODE_SLOTS,
        &discounts,
        window,
        &mut rngs,
    )
}

/// Replicates the base lanes (Arc-shared series) into a fleet of `lanes`
/// hubs.
fn replicated_fleet(base: &FleetEnv, lanes: usize, window: usize) -> ect_types::Result<FleetEnv> {
    let configs = base.configs();
    let series = base.series();
    let lanes: Vec<_> = (0..lanes)
        .map(|lane| {
            let src = lane % configs.len();
            (configs[src].clone(), series[src].clone())
        })
        .collect();
    FleetEnv::new(lanes, window)
}

const ACTIONS: [BpAction; 3] = [BpAction::Charge, BpAction::Discharge, BpAction::Idle];

/// Steps a shard for `slots` slots through the SoA path, returning the
/// reward sum.
fn step_shard(env: &mut FleetEnv, slots: usize) -> f64 {
    let lanes = env.num_lanes();
    let mut actions = vec![BpAction::Idle; lanes];
    let mut total = 0.0;
    for _ in 0..slots {
        let t = env.slot();
        for (lane, a) in actions.iter_mut().enumerate() {
            *a = ACTIONS[(t + lane) % 3];
        }
        let step = env.step_batch_soa(&actions);
        total += step.rewards.iter().sum::<f64>();
    }
    total
}

/// Measures one rung: shard (building the slot lanes outside the timed
/// region), then step all shards concurrently over the dispatch pool.
fn measure_rung(
    base: &FleetEnv,
    hubs: usize,
    options: &ThroughputOptions,
    threads: usize,
) -> ect_types::Result<(ThroughputRung, f64)> {
    let shards = threads.clamp(1, hubs);
    let mut envs = Vec::with_capacity(shards);
    let mut soa_groups = 0;
    for shard in 0..shards {
        // Distribute lanes as evenly as the shard count allows.
        let lanes = hubs / shards + usize::from(shard < hubs % shards);
        let env = replicated_fleet(base, lanes, options.window)?;
        if shard == 0 {
            soa_groups = env.soa_group_count();
        }
        envs.push(env);
    }

    let mut best_ms = f64::INFINITY;
    let mut checksum = 0.0;
    for rep in 0..options.reps.max(1) {
        for env in &mut envs {
            let lanes = env.num_lanes();
            env.reset(&vec![0.5; lanes]);
        }
        let t0 = Instant::now();
        let rewards = run_indexed(std::mem::take(&mut envs), threads, |_, mut env| {
            let total = step_shard(&mut env, options.rung_slots);
            Ok((env, total))
        })?;
        let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
        best_ms = best_ms.min(elapsed_ms);
        envs = rewards
            .into_iter()
            .map(|(env, total)| {
                if rep == 0 {
                    checksum += total;
                }
                env
            })
            .collect();
    }
    let hub_slots = (hubs * options.rung_slots) as f64;
    Ok((
        ThroughputRung {
            hubs,
            slots_stepped: options.rung_slots,
            shards,
            soa_groups,
            wall_ms: best_ms,
            hub_slots_per_s: hub_slots / (best_ms / 1e3),
        },
        checksum,
    ))
}

/// Times the paper-sized 12-hub × 720-slot episode, ms (best of `reps`).
fn time_episode(base: &FleetEnv, reps: usize) -> (f64, f64) {
    let mut best_ms = f64::INFINITY;
    let mut checksum = 0.0;
    for rep in 0..reps.max(1) {
        let mut fleet = base.clone();
        fleet.reset(&[0.5; BASE_HUBS]);
        let mut actions = [BpAction::Idle; BASE_HUBS];
        let mut total = 0.0;
        let t0 = Instant::now();
        for t in 0..EPISODE_SLOTS {
            for (lane, a) in actions.iter_mut().enumerate() {
                *a = ACTIONS[(t + lane) % 3];
            }
            total += fleet.step_batch_soa(&actions).rewards.iter().sum::<f64>();
        }
        let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
        best_ms = best_ms.min(elapsed_ms);
        if rep == 0 {
            checksum = total;
        }
    }
    (best_ms, checksum)
}

/// Runs the throughput sweep with explicit options over `threads` workers.
///
/// # Errors
///
/// Propagates world generation and fleet construction failures.
pub fn run_with_options(
    options: &ThroughputOptions,
    threads: usize,
) -> ect_types::Result<ThroughputResult> {
    let rung_base = base_fleet(options.window)?;
    let mut rungs = Vec::with_capacity(options.rung_hubs.len());
    let mut checksum = 0.0;
    for &hubs in &options.rung_hubs {
        let (rung, c) = measure_rung(&rung_base, hubs, options, threads)?;
        checksum += c;
        rungs.push(rung);
    }

    // The episode pin always uses the paper's 24-slot observation window.
    let episode_base = base_fleet(24)?;
    let (soa_episode_ms, episode_sum) = time_episode(&episode_base, options.reps.max(3));
    checksum += episode_sum;

    Ok(ThroughputResult {
        rungs,
        threads,
        soa_episode_ms,
        reward_checksum: checksum,
    })
}

/// Compact rung label: `1k`, `10k`, `100k` (falls back to the raw count).
fn rung_label(hubs: usize) -> String {
    if hubs >= 1000 && hubs.is_multiple_of(1000) {
        format!("{}k", hubs / 1000)
    } else {
        hubs.to_string()
    }
}

/// The experiment's `BENCH_summary.json` rows: the headline plus one row
/// per rung, so the hub-slots/sec trajectory at 1k/10k/100k hubs is always
/// published.
pub fn summary_rows(result: &ThroughputResult, wall_time_s: f64) -> Vec<BenchSummaryEntry> {
    let mut rows = vec![BenchSummaryEntry {
        experiment: "throughput".into(),
        wall_time_s,
        metric_name: "hub_slots_per_s".into(),
        metric_value: result.headline_hub_slots_per_s(),
    }];
    for rung in &result.rungs {
        rows.push(BenchSummaryEntry {
            experiment: format!("throughput_{}_hubs", rung_label(rung.hubs)),
            wall_time_s: rung.wall_ms / 1e3,
            metric_name: "hub_slots_per_s".into(),
            metric_value: rung.hub_slots_per_s,
        });
    }
    rows
}

/// Registry face of this experiment (see [`crate::registry`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct ThroughputExperiment;

impl ect_core::Experiment for ThroughputExperiment {
    fn id(&self) -> &'static str {
        "throughput"
    }
    fn description(&self) -> &'static str {
        "SoA stepping-kernel hub-slots/sec at 1k/10k/100k hubs"
    }
    fn artifact_stems(&self) -> &'static [&'static str] {
        &["throughput"]
    }
    fn run(&self, session: &ect_core::Session) -> ect_types::Result<ect_core::ExperimentOutput> {
        session.report("saturating the stepping kernel …");
        let t0 = Instant::now();
        let result = run_with_options(&options_for(session.scale()), session.threads())?;
        print(&result);
        save_json(self.id(), &result);
        upsert_bench_summary(&summary_rows(&result, t0.elapsed().as_secs_f64()))?;
        Ok(ect_core::ExperimentOutput::new(
            self.id(),
            "hub_slots_per_s",
            result.headline_hub_slots_per_s(),
        )
        .with_artifact(self.id()))
    }
}

/// Prints the rung table and the episode pin.
pub fn print(result: &ThroughputResult) {
    println!("== Stepping-kernel throughput ==\n");
    println!(
        "| {:>8} | {:>7} | {:>6} | {:>10} | {:>10} | {:>16} |",
        "hubs", "shards", "groups", "slots", "wall ms", "hub-slots/s"
    );
    for rung in &result.rungs {
        println!(
            "| {:>8} | {:>7} | {:>6} | {:>10} | {:>10.2} | {:>16.0} |",
            rung.hubs,
            rung.shards,
            rung.soa_groups,
            rung.slots_stepped,
            rung.wall_ms,
            rung.hub_slots_per_s
        );
    }
    println!(
        "\n12-hub x {EPISODE_SLOTS}-slot episode: {:.3} ms",
        result.soa_episode_ms
    );
    println!("dispatched over {} worker threads", result.threads);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_options() -> ThroughputOptions {
        ThroughputOptions {
            rung_hubs: vec![24, 48],
            rung_slots: 4,
            reps: 1,
            window: 6,
        }
    }

    #[test]
    fn tiny_sweep_reports_finite_rates_and_dedupes_groups() {
        let result = run_with_options(&tiny_options(), 2).unwrap();
        assert_eq!(result.rungs.len(), 2);
        for rung in &result.rungs {
            assert!(rung.hub_slots_per_s > 0.0, "{rung:?}");
            assert!(rung.wall_ms > 0.0);
            assert!(
                rung.soa_groups <= BASE_HUBS,
                "replicated lanes must dedupe onto the base series"
            );
            assert_eq!(rung.slots_stepped, 4);
        }
        assert!(result.soa_episode_ms > 0.0);
        assert!(result.reward_checksum.is_finite());

        // Serialises for results/throughput.json.
        let json = serde_json::to_string(&result).unwrap();
        let back: ThroughputResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back.rungs.len(), result.rungs.len());
        assert_eq!(
            back.headline_hub_slots_per_s().to_bits(),
            result.headline_hub_slots_per_s().to_bits()
        );
    }

    #[test]
    fn shards_cover_every_lane_exactly_once() {
        // 7 hubs over 3 shards: 3 + 2 + 2.
        let base = base_fleet(6).unwrap();
        let options = ThroughputOptions {
            rung_hubs: vec![7],
            rung_slots: 2,
            reps: 1,
            window: 6,
        };
        let (rung, _) = measure_rung(&base, 7, &options, 3).unwrap();
        assert_eq!(rung.shards, 3);
        assert_eq!(rung.hubs, 7);
    }

    #[test]
    fn summary_rows_carry_the_rung_trajectory() {
        let result = ThroughputResult {
            rungs: vec![
                ThroughputRung {
                    hubs: 1_000,
                    slots_stepped: 8,
                    shards: 4,
                    soa_groups: 12,
                    wall_ms: 2.0,
                    hub_slots_per_s: 4_000_000.0,
                },
                ThroughputRung {
                    hubs: 100_000,
                    slots_stepped: 8,
                    shards: 4,
                    soa_groups: 12,
                    wall_ms: 150.0,
                    hub_slots_per_s: 5_333_333.0,
                },
            ],
            threads: 4,
            soa_episode_ms: 0.5,
            reward_checksum: 0.0,
        };
        let rows = summary_rows(&result, 3.5);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].experiment, "throughput");
        assert_eq!(
            rows[0].metric_value.to_bits(),
            5_333_333.0f64.to_bits(),
            "headline is the largest rung"
        );
        assert_eq!(rows[1].experiment, "throughput_1k_hubs");
        assert_eq!(rows[2].experiment, "throughput_100k_hubs");
    }

    #[test]
    fn rung_labels_are_compact() {
        assert_eq!(rung_label(1_000), "1k");
        assert_eq!(rung_label(10_000), "10k");
        assert_eq!(rung_label(100_000), "100k");
        assert_eq!(rung_label(7), "7");
    }
}
