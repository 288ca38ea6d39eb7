//! Microsim experiment: user-level demand at scale, and what training on it
//! is worth.
//!
//! Two halves share one registry entry:
//!
//! 1. **Throughput rungs** — the UE particle engine
//!    ([`ect_microsim::MicrosimEngine`]) is synthesized through the parallel
//!    driver ([`ect_core::synthesize_demand_parallel`]) at 10k/100k/1M UEs;
//!    each rung reports aggregate **UE-slots per second**, upserted as its
//!    own `results/BENCH_summary.json` row so filtered passes
//!    (`run_all --only microsim`) still publish the trajectory.
//! 2. **Flash-crowd study** — two PPO fleets with identical budgets and
//!    paired seeds, one trained on microsim-driven traffic
//!    ([`fleet_env_for_hubs_with_traffic`]), one on the world's aggregate
//!    traffic series, both evaluated greedily on a microsim demand that
//!    scripts a flash crowd mid-horizon. The headline `flash_crowd_gap` is
//!    microsim-trained minus aggregate-trained mean daily reward: what
//!    seeing user-level demand during training is worth when the demand
//!    distribution shifts.
//!
//! The synthesized demand artifacts are memoised through the session
//! (`Session::microsim_demand_for`, kind `microsim-demand`), so warm passes
//! serve them from the persistent cache; the rung timings are always
//! measured live. JSON lands in `results/microsim.json`.

use crate::output::{save_json, upsert_bench_summary, BenchSummaryEntry};
use ect_core::prelude::*;
use ect_core::scheduling::OBS_WINDOW;
use ect_data::spatial::{Region, RegionConfig};
use ect_drl::collector::{evaluate_fleet_greedy, train_fleet};
use ect_drl::ActorCritic;
use ect_env::fleet::{fleet_env_for_hubs, fleet_env_for_hubs_with_traffic};
use ect_microsim::MicrosimEngine;
use ect_types::SLOTS_PER_DAY;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// Seed-stream separator of the per-lane trainers (both arms use the same
/// seeds — the only difference between them is the demand source).
const FLASH_TRAIN_SEED_STREAM: u64 = 0x71A1_4ED5;

/// Seed-stream separator of the greedy evaluation rollouts (shared by both
/// arms, so they face identical strata draws and initial SoCs).
const FLASH_EVAL_SEED_STREAM: u64 = 0xE7A1_0E5D;

/// Seed-stream separator of the synthesized demand (region + UE draws).
const FLASH_DEMAND_SEED_STREAM: u64 = 0x0D31_A12D;

/// Master seed of the throughput-rung region and UE draws.
const RUNG_SEED: u64 = 0x00EC_F00D;

/// Scale knobs of the UE-throughput sweep.
#[derive(Debug, Clone)]
pub struct MicrosimBenchOptions {
    /// Population sizes to sweep (UEs per rung).
    pub rung_ues: Vec<usize>,
    /// Slots synthesized per rung measurement.
    pub rung_slots: usize,
    /// Measurement repetitions per rung (best counted).
    pub reps: usize,
    /// Hubs the rung demand aggregates onto.
    pub rung_hubs: usize,
    /// The region the rung UEs move in.
    pub region: RegionConfig,
}

/// The sweep options of one experiment scale.
pub fn bench_options_for(scale: crate::Scale) -> MicrosimBenchOptions {
    let (rung_slots, reps) = match scale {
        crate::Scale::Smoke => (8, 1),
        crate::Scale::Quick => (24, 3),
        crate::Scale::Paper => (48, 3),
    };
    MicrosimBenchOptions {
        rung_ues: vec![10_000, 100_000, 1_000_000],
        rung_slots,
        reps,
        rung_hubs: 12,
        region: RegionConfig::default(),
    }
}

/// One population rung of the sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MicrosimRung {
    /// Simulated population size.
    pub num_ues: usize,
    /// Slots synthesized inside the timed region.
    pub slots: usize,
    /// Best wall time of the timed synthesis, milliseconds.
    pub wall_ms: f64,
    /// Aggregate throughput: `num_ues × slots / wall`, UE-slots per second.
    pub ue_slots_per_s: f64,
}

/// Knobs of the flash-crowd training study.
#[derive(Debug, Clone)]
pub struct FlashStudyOptions {
    /// World, trainer budgets and evaluation episodes.
    pub system: SystemConfig,
    /// The baseline microsim population (no scripted surges).
    pub microsim: MicrosimConfig,
    /// The region the study UEs move in.
    pub region: RegionConfig,
    /// The scripted surge the evaluation demand adds.
    pub crowd: FlashCrowd,
    /// Master seed of the synthesized demand.
    pub demand_seed: u64,
}

impl FlashStudyOptions {
    /// The memoisable demand request of one arm: the baseline population,
    /// plus the scripted crowd when `flash` is set. Both share one seed, so
    /// the flash demand is the baseline demand plus exactly the surge.
    pub fn demand_options(&self, flash: bool) -> MicrosimDemandOptions {
        let mut microsim = self.microsim.clone();
        if flash {
            microsim.flash_crowds.push(self.crowd.clone());
        }
        MicrosimDemandOptions {
            microsim,
            region: self.region.clone(),
            num_hubs: self.system.world.num_hubs as usize,
            slots: self.system.world.horizon_slots,
            seed: self.demand_seed,
        }
    }
}

/// The study options of one experiment scale.
pub fn flash_options_for(scale: crate::Scale) -> FlashStudyOptions {
    let mut system = SystemConfig::miniature();
    let num_ues = match scale {
        crate::Scale::Smoke => {
            system.world.num_hubs = 2;
            system.world.horizon_slots = 24 * 4;
            system.trainer.episodes = 4;
            system.test_episodes = 2;
            4_000
        }
        crate::Scale::Quick => {
            system.world.num_hubs = 4;
            system.world.horizon_slots = 24 * 7;
            system.trainer.episodes = 16;
            system.test_episodes = 4;
            20_000
        }
        crate::Scale::Paper => {
            system.world.num_hubs = 8;
            system.world.horizon_slots = 24 * 14;
            system.trainer.episodes = 64;
            system.test_episodes = 8;
            100_000
        }
    };
    let horizon = system.world.horizon_slots;
    // A surge an order of magnitude above the resident population, wide
    // enough to blanket several hubs, scripted for the *evening* around
    // mid-horizon (18:00, when per-UE activity peaks) — the demand shift
    // the aggregate-trained arm never saw.
    let mid_day_start = horizon / 2 - (horizon / 2) % SLOTS_PER_DAY;
    let crowd = FlashCrowd {
        start_slot: mid_day_start + 18,
        len_slots: SLOTS_PER_DAY / 2,
        population: num_ues * 10,
        road: 0,
        spread_km: 25.0,
    };
    let demand_seed = system.seed ^ FLASH_DEMAND_SEED_STREAM;
    // Calibrated to the population per hub, so every scale drives hub
    // loads in the aggregate generator's working range (peaks around 0.5)
    // instead of idling near zero or clipping at 1.
    let ues_per_full_load = num_ues as f64 / (system.world.num_hubs as f64 * 100.0);
    FlashStudyOptions {
        system,
        microsim: MicrosimConfig {
            num_ues,
            ues_per_full_load,
            ..MicrosimConfig::default()
        },
        region: RegionConfig::default(),
        crowd,
        demand_seed,
    }
}

/// Scorecard of the flash-crowd study.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlashStudyResult {
    /// Hubs in the fleet (and in the demand aggregation).
    pub num_hubs: usize,
    /// Episode length, slots.
    pub horizon_slots: usize,
    /// Baseline microsim population.
    pub num_ues: usize,
    /// Training episodes per arm.
    pub train_episodes: usize,
    /// Greedy evaluation episodes per arm.
    pub eval_episodes: usize,
    /// Scripted surge size, UEs.
    pub crowd_population: usize,
    /// First slot of the surge.
    pub crowd_start_slot: usize,
    /// Surge window length, slots.
    pub crowd_len_slots: usize,
    /// Fleet-wide peak load rate of the baseline (training) demand.
    pub baseline_peak_load: f64,
    /// Fleet-wide peak load rate of the flash-crowd (evaluation) demand.
    pub flash_peak_load: f64,
    /// Mean daily reward of the microsim-trained arm on the flash demand.
    pub microsim_trained_daily_reward: f64,
    /// Mean daily reward of the aggregate-trained arm on the flash demand.
    pub aggregate_trained_daily_reward: f64,
    /// Headline: microsim-trained minus aggregate-trained daily reward.
    pub flash_crowd_gap: f64,
}

/// Full experiment result (`results/microsim.json` payload).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MicrosimResult {
    /// UE throughput per population rung, in sweep order.
    pub rungs: Vec<MicrosimRung>,
    /// Worker threads the population chunks were dispatched over.
    pub threads: usize,
    /// The flash-crowd training study.
    pub flash: FlashStudyResult,
}

/// Runs the UE-throughput sweep: one region, one engine per rung, best-of-
/// `reps` timing of the parallel synthesis.
///
/// # Errors
///
/// Propagates region generation and engine validation failures.
pub fn run_rungs(
    options: &MicrosimBenchOptions,
    threads: usize,
) -> ect_types::Result<Vec<MicrosimRung>> {
    let region = Region::generate(&options.region, &mut EctRng::seed_from(RUNG_SEED))?;
    let mut rungs = Vec::with_capacity(options.rung_ues.len());
    for &num_ues in &options.rung_ues {
        let config = MicrosimConfig {
            num_ues,
            ..MicrosimConfig::default()
        };
        let engine = MicrosimEngine::new(
            &config,
            &region,
            options.rung_hubs,
            options.rung_slots,
            RUNG_SEED,
        )?;
        let mut best_ms = f64::INFINITY;
        for _ in 0..options.reps.max(1) {
            let t0 = Instant::now();
            let demand = synthesize_demand_parallel(&engine, threads)?;
            let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
            best_ms = best_ms.min(elapsed_ms);
            debug_assert_eq!(
                demand.total_associations,
                (num_ues * options.rung_slots) as u64
            );
        }
        let ue_slots = (num_ues * options.rung_slots) as f64;
        rungs.push(MicrosimRung {
            num_ues,
            slots: options.rung_slots,
            wall_ms: best_ms,
            ue_slots_per_s: ue_slots / (best_ms / 1e3),
        });
    }
    Ok(rungs)
}

/// Mean daily reward across the fleet's evaluation summaries.
fn mean_daily_reward(summaries: &[ect_drl::trainer::EvalSummary]) -> f64 {
    if summaries.is_empty() {
        return 0.0;
    }
    summaries.iter().map(|s| s.avg_daily_reward).sum::<f64>() / summaries.len() as f64
}

/// Runs the flash-crowd study. `demand` supplies the synthesized demand for
/// a request — the registry path routes it through
/// `Session::microsim_demand_for` (memoised, cache-backed), tests build it
/// directly.
///
/// # Errors
///
/// Propagates demand synthesis, world generation, training and evaluation
/// failures.
pub fn run_flash_study<F>(
    options: &FlashStudyOptions,
    mut demand: F,
) -> ect_types::Result<FlashStudyResult>
where
    F: FnMut(&MicrosimDemandOptions) -> ect_types::Result<Arc<MicrosimDemand>>,
{
    let baseline = demand(&options.demand_options(false))?;
    let flash = demand(&options.demand_options(true))?;
    let world = WorldDataset::generate(options.system.world.clone())?;
    let num_hubs = world.num_hubs() as usize;
    let horizon = world.horizon();
    let hubs: Vec<HubId> = (0..num_hubs as u32).map(HubId::new).collect();
    let discounts = vec![DiscountSchedule::none(horizon); num_hubs];
    let seed = options.system.seed;

    // Paired trainer seeds: the arms differ only through the demand source.
    let configs: Vec<TrainerConfig> = (0..num_hubs)
        .map(|lane| TrainerConfig {
            episodes: options.system.trainer.episodes,
            seed: seed ^ ((lane as u64) << 32) ^ FLASH_TRAIN_SEED_STREAM,
            ..options.system.trainer.clone()
        })
        .collect();

    let base_traffic = baseline.traffic_arcs();
    let microsim_policies: Vec<ActorCritic> =
        train_fleet(&configs, |_e: usize, rngs: &mut [EctRng]| {
            fleet_env_for_hubs_with_traffic(
                &world,
                &hubs,
                0,
                horizon,
                &discounts,
                OBS_WINDOW,
                &base_traffic,
                rngs,
            )
        })?
        .into_iter()
        .map(|(policy, _history)| policy)
        .collect();
    let aggregate_policies: Vec<ActorCritic> =
        train_fleet(&configs, |_e: usize, rngs: &mut [EctRng]| {
            fleet_env_for_hubs(&world, &hubs, 0, horizon, &discounts, OBS_WINDOW, rngs)
        })?
        .into_iter()
        .map(|(policy, _history)| policy)
        .collect();

    // Both arms are scored on identical seeds against the flash demand.
    let eval_seeds: Vec<u64> = (0..num_hubs as u64)
        .map(|lane| seed ^ (lane << 32) ^ FLASH_EVAL_SEED_STREAM)
        .collect();
    let flash_traffic = flash.traffic_arcs();
    let flash_fleet = |_e: usize, rngs: &mut [EctRng]| {
        fleet_env_for_hubs_with_traffic(
            &world,
            &hubs,
            0,
            horizon,
            &discounts,
            OBS_WINDOW,
            &flash_traffic,
            rngs,
        )
    };
    let episodes = options.system.test_episodes;
    let microsim_eval =
        evaluate_fleet_greedy(&microsim_policies, flash_fleet, episodes, &eval_seeds)?;
    let aggregate_eval =
        evaluate_fleet_greedy(&aggregate_policies, flash_fleet, episodes, &eval_seeds)?;

    let microsim_trained_daily_reward = mean_daily_reward(&microsim_eval);
    let aggregate_trained_daily_reward = mean_daily_reward(&aggregate_eval);
    Ok(FlashStudyResult {
        num_hubs,
        horizon_slots: horizon,
        num_ues: options.microsim.num_ues,
        train_episodes: options.system.trainer.episodes,
        eval_episodes: options.system.test_episodes,
        crowd_population: options.crowd.population,
        crowd_start_slot: options.crowd.start_slot,
        crowd_len_slots: options.crowd.len_slots,
        baseline_peak_load: baseline.peak_load_rate(),
        flash_peak_load: flash.peak_load_rate(),
        microsim_trained_daily_reward,
        aggregate_trained_daily_reward,
        flash_crowd_gap: microsim_trained_daily_reward - aggregate_trained_daily_reward,
    })
}

/// Compact rung label: `10k`, `100k`, `1m` (falls back to the raw count).
fn rung_label(ues: usize) -> String {
    if ues >= 1_000_000 && ues.is_multiple_of(1_000_000) {
        format!("{}m", ues / 1_000_000)
    } else if ues >= 1_000 && ues.is_multiple_of(1_000) {
        format!("{}k", ues / 1_000)
    } else {
        ues.to_string()
    }
}

/// The experiment's `BENCH_summary.json` rows: the headline gap plus one
/// row per population rung, so the UE-slots/sec trajectory at 10k/100k/1M
/// UEs is always published.
pub fn summary_rows(result: &MicrosimResult, wall_time_s: f64) -> Vec<BenchSummaryEntry> {
    let mut rows = vec![BenchSummaryEntry {
        experiment: "microsim".into(),
        wall_time_s,
        metric_name: "flash_crowd_gap".into(),
        metric_value: result.flash.flash_crowd_gap,
    }];
    for rung in &result.rungs {
        rows.push(BenchSummaryEntry {
            experiment: format!("microsim_ue_slots_per_sec_{}", rung_label(rung.num_ues)),
            wall_time_s: rung.wall_ms / 1e3,
            metric_name: "ue_slots_per_s".into(),
            metric_value: rung.ue_slots_per_s,
        });
    }
    rows
}

/// Prints the rung table and the flash-crowd scorecard.
pub fn print(result: &MicrosimResult) {
    println!("== Microsim: user-level demand at scale ==\n");
    println!(
        "| {:>9} | {:>6} | {:>10} | {:>16} |",
        "UEs", "slots", "wall ms", "UE-slots/s"
    );
    for rung in &result.rungs {
        println!(
            "| {:>9} | {:>6} | {:>10.2} | {:>16.0} |",
            rung.num_ues, rung.slots, rung.wall_ms, rung.ue_slots_per_s
        );
    }
    let flash = &result.flash;
    println!(
        "\nflash-crowd study: {} hubs, {} slots, {} UEs (+{} surging for {} slots), \
         {} train / {} eval episodes",
        flash.num_hubs,
        flash.horizon_slots,
        flash.num_ues,
        flash.crowd_population,
        flash.crowd_len_slots,
        flash.train_episodes,
        flash.eval_episodes
    );
    println!(
        "peak load: baseline {:.3} → flash {:.3}",
        flash.baseline_peak_load, flash.flash_peak_load
    );
    println!(
        "daily reward on flash demand: microsim-trained {:.2}, aggregate-trained {:.2}",
        flash.microsim_trained_daily_reward, flash.aggregate_trained_daily_reward
    );
    println!(
        "flash crowd gap: {:+.3} $/hub-day (dispatched over {} worker threads)\n",
        flash.flash_crowd_gap, result.threads
    );
}

/// Registry face of this experiment (see [`crate::registry`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct MicrosimExperiment;

impl ect_core::Experiment for MicrosimExperiment {
    fn id(&self) -> &'static str {
        "microsim"
    }
    fn description(&self) -> &'static str {
        "UE microsim demand: UE-slots/sec rungs + flash-crowd training gap"
    }
    fn artifact_stems(&self) -> &'static [&'static str] {
        &["microsim"]
    }
    fn run(&self, session: &ect_core::Session) -> ect_types::Result<ect_core::ExperimentOutput> {
        session.report("simulating the user population …");
        let t0 = Instant::now();
        let scale = session.scale();
        let rungs = run_rungs(&bench_options_for(scale), session.threads())?;
        let flash = run_flash_study(&flash_options_for(scale), |opts| {
            session.microsim_demand_for(opts)
        })?;
        let result = MicrosimResult {
            rungs,
            threads: session.threads(),
            flash,
        };
        print(&result);
        save_json(self.id(), &result);
        upsert_bench_summary(&summary_rows(&result, t0.elapsed().as_secs_f64()))?;
        Ok(ect_core::ExperimentOutput::new(
            self.id(),
            "flash_crowd_gap",
            result.flash.flash_crowd_gap,
        )
        .with_artifact(self.id()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_flash_options() -> FlashStudyOptions {
        let mut options = flash_options_for(crate::Scale::Smoke);
        options.system.world.horizon_slots = 24 * 2;
        options.system.trainer.episodes = 2;
        options.system.test_episodes = 1;
        options.microsim.num_ues = 1_000;
        options.crowd.population = 1_000;
        options.crowd.start_slot = 24;
        options.region.num_base_stations = 300;
        options
    }

    #[test]
    fn tiny_rung_sweep_reports_finite_rates() {
        let options = MicrosimBenchOptions {
            rung_ues: vec![500, 1_000],
            rung_slots: 2,
            reps: 1,
            rung_hubs: 4,
            region: RegionConfig {
                num_base_stations: 200,
                ..RegionConfig::default()
            },
        };
        let rungs = run_rungs(&options, 2).unwrap();
        assert_eq!(rungs.len(), 2);
        for rung in &rungs {
            assert!(rung.ue_slots_per_s > 0.0, "{rung:?}");
            assert!(rung.wall_ms > 0.0);
            assert_eq!(rung.slots, 2);
        }
    }

    #[test]
    fn tiny_flash_study_scores_both_arms() {
        let options = tiny_flash_options();
        let result = run_flash_study(&options, |opts| opts.build(2).map(Arc::new)).unwrap();
        assert_eq!(result.num_hubs, 2);
        assert_eq!(result.horizon_slots, 24 * 2);
        assert!(result.microsim_trained_daily_reward.is_finite());
        assert!(result.aggregate_trained_daily_reward.is_finite());
        assert_eq!(
            result.flash_crowd_gap,
            result.microsim_trained_daily_reward - result.aggregate_trained_daily_reward
        );
        // The scripted surge shows in the evaluation demand.
        assert!(result.flash_peak_load >= result.baseline_peak_load);

        // Serialises for results/microsim.json.
        let full = MicrosimResult {
            rungs: vec![MicrosimRung {
                num_ues: 1_000,
                slots: 2,
                wall_ms: 1.0,
                ue_slots_per_s: 2_000_000.0,
            }],
            threads: 2,
            flash: result,
        };
        let json = serde_json::to_string(&full).unwrap();
        let back: MicrosimResult = serde_json::from_str(&json).unwrap();
        assert_eq!(
            back.flash.flash_crowd_gap.to_bits(),
            full.flash.flash_crowd_gap.to_bits()
        );
    }

    #[test]
    fn demand_options_differ_only_by_the_crowd() {
        let options = flash_options_for(crate::Scale::Smoke);
        let baseline = options.demand_options(false);
        let flash = options.demand_options(true);
        assert!(baseline.microsim.flash_crowds.is_empty());
        assert_eq!(flash.microsim.flash_crowds, vec![options.crowd.clone()]);
        assert_eq!(baseline.seed, flash.seed);
        assert_eq!(baseline.num_hubs, flash.num_hubs);
        assert_eq!(baseline.slots, flash.slots);
    }

    #[test]
    fn summary_rows_publish_the_rung_trajectory() {
        let result = MicrosimResult {
            rungs: vec![
                MicrosimRung {
                    num_ues: 10_000,
                    slots: 8,
                    wall_ms: 10.0,
                    ue_slots_per_s: 8_000_000.0,
                },
                MicrosimRung {
                    num_ues: 100_000,
                    slots: 8,
                    wall_ms: 100.0,
                    ue_slots_per_s: 8_000_000.0,
                },
                MicrosimRung {
                    num_ues: 1_000_000,
                    slots: 8,
                    wall_ms: 1_000.0,
                    ue_slots_per_s: 8_000_000.0,
                },
            ],
            threads: 8,
            flash: FlashStudyResult {
                num_hubs: 2,
                horizon_slots: 96,
                num_ues: 4_000,
                train_episodes: 4,
                eval_episodes: 2,
                crowd_population: 4_000,
                crowd_start_slot: 48,
                crowd_len_slots: 12,
                baseline_peak_load: 0.2,
                flash_peak_load: 0.9,
                microsim_trained_daily_reward: 120.0,
                aggregate_trained_daily_reward: 100.0,
                flash_crowd_gap: 20.0,
            },
        };
        let rows = summary_rows(&result, 5.0);
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].experiment, "microsim");
        assert_eq!(rows[0].metric_name, "flash_crowd_gap");
        assert_eq!(rows[1].experiment, "microsim_ue_slots_per_sec_10k");
        assert_eq!(rows[2].experiment, "microsim_ue_slots_per_sec_100k");
        assert_eq!(rows[3].experiment, "microsim_ue_slots_per_sec_1m");
    }

    #[test]
    fn rung_labels_are_compact() {
        assert_eq!(rung_label(10_000), "10k");
        assert_eq!(rung_label(100_000), "100k");
        assert_eq!(rung_label(1_000_000), "1m");
        assert_eq!(rung_label(2_500_000), "2500k");
        assert_eq!(rung_label(7), "7");
    }
}
