//! Scenario-sweep dispatch: a pricing-method × stress-scenario matrix fanned
//! across the batched fleet workers.
//!
//! [`Session::scenario_grid`](crate::session::Session::scenario_grid) is
//! the scenario-engine face of
//! [`Session::fleet`](crate::session::Session::fleet): one
//! [`EctHubSystem`] per [`ScenarioSpec`], the full `scenario × method ×
//! hub-chunk` job list spread over worker threads, and every chunk trained
//! as one lockstep [`ect_env::vec_env::FleetEnv`] batch via
//! [`run_hubs_method_batched`].
//! Alongside the reward cells it reports per-hub stress diagnostics
//! ([`ScenarioHubStress`]): baseline grid cost and revenue exposure,
//! worst-case blackout ride-through, and the unserved energy of the
//! scenario's scripted outages.

use crate::scheduling::{hub_chunking, run_hubs_method_batched, HubExperimentResult, OBS_WINDOW};
use crate::system::EctHubSystem;
use ect_data::scenario::ScenarioSpec;
use ect_env::battery::BpAction;
use ect_env::blackout::{ride_through, worst_case_ride_through, BlackoutScenario};
use ect_env::fleet::env_for_hub;
use ect_env::hub::HubConfig;
use ect_env::tariff::DiscountSchedule;
use ect_price::engine::PricingEngine;
use ect_types::ids::HubId;
use ect_types::rng::EctRng;
use serde::{Deserialize, Serialize};

/// Per-hub stress diagnostics of one scenario world, independent of any
/// pricing method or learned policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioHubStress {
    /// Hub evaluated.
    pub hub: u32,
    /// Grid cost of a battery-idle, no-discount rollout over the horizon, $
    /// — the scenario's raw cost exposure.
    pub baseline_grid_cost: f64,
    /// Charging revenue of the same reference rollout, $.
    pub baseline_revenue: f64,
    /// Unserved base-station energy of the worst `recovery_hours` outage
    /// anywhere in the horizon, starting from the reserve SoC, kWh.
    pub worst_unserved_kwh: f64,
    /// Hours fully served before the first shortfall in that worst case.
    pub worst_endurance_hours: f64,
    /// Total unserved energy across the scenario's scripted outages, kWh
    /// (zero when the spec scripts none).
    pub outage_unserved_kwh: f64,
}

/// One scenario's slice of the grid: reward cells for every (hub, method)
/// pair plus the per-hub stress diagnostics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioGridResult {
    /// Scenario name (the registry key).
    pub scenario: String,
    /// Scenario description, carried for reports.
    pub description: String,
    /// Reward cells, sorted by `(hub, method)`.
    pub cells: Vec<HubExperimentResult>,
    /// Per-hub stress diagnostics, sorted by hub.
    pub stress: Vec<ScenarioHubStress>,
}

impl ScenarioGridResult {
    /// Mean `avg_daily_reward` over this scenario's cells of one method.
    ///
    /// Returns NaN when the method has no cells.
    pub fn method_mean(&self, method: &str) -> f64 {
        let cells: Vec<&HubExperimentResult> =
            self.cells.iter().filter(|c| c.method == method).collect();
        if cells.is_empty() {
            return f64::NAN;
        }
        cells.iter().map(|c| c.avg_daily_reward).sum::<f64>() / cells.len() as f64
    }
}

/// Computes the per-hub stress diagnostics of one scenario system.
///
/// # Errors
///
/// Propagates environment construction and blackout-simulation failures.
pub fn scenario_stress(system: &EctHubSystem) -> ect_types::Result<Vec<ScenarioHubStress>> {
    let world = system.world();
    let horizon = world.horizon();
    let mut stress = Vec::with_capacity(world.hubs.len());
    for (h, traces) in world.hubs.iter().enumerate() {
        let hub = HubId::new(h as u32);
        let config = HubConfig::for_siting(traces.siting);
        let reserve_kwh = config.battery.soc_min_fraction.as_f64() * config.battery.capacity_kwh;

        // Reference rollout: battery idle, no discounts — pure exposure.
        let mut rng = EctRng::seed_from(system.config().seed ^ (h as u64) ^ 0x57E55);
        let mut env = env_for_hub(
            world,
            hub,
            0,
            horizon,
            DiscountSchedule::none(horizon),
            OBS_WINDOW,
            &mut rng,
        )?;
        let (_, trail) = env.rollout(0.5, |_, _| BpAction::Idle);
        let baseline_grid_cost: f64 = trail.iter().map(|b| b.grid_cost.as_f64()).sum();
        let baseline_revenue: f64 = trail.iter().map(|b| b.revenue.as_f64()).sum();

        // Worst-case unscripted outage of the design duration.
        let duration = config.recovery_hours.min(horizon).max(1);
        let worst = worst_case_ride_through(
            &config,
            &traces.weather,
            &traces.traffic,
            reserve_kwh,
            duration,
        )?;

        // Scripted rolling outages of the scenario, if any.
        let mut outage_unserved_kwh = 0.0;
        for window in &world.scenario.outages {
            let outcome = ride_through(
                &config,
                &traces.weather,
                &traces.traffic,
                reserve_kwh,
                BlackoutScenario {
                    start_slot: window.start,
                    duration_hours: window.len,
                },
            )?;
            outage_unserved_kwh += outcome.unserved_kwh;
        }

        stress.push(ScenarioHubStress {
            hub: hub.as_u32(),
            baseline_grid_cost,
            baseline_revenue,
            worst_unserved_kwh: worst.unserved_kwh,
            worst_endurance_hours: worst.hours_sustained as f64,
            outage_unserved_kwh,
        });
    }
    Ok(stress)
}

/// The labelled pricing engines one scenario system runs under — the same
/// shape [`Session::fleet`](crate::session::Session::fleet) consumes.
pub type NamedEngines = Vec<(String, Box<dyn PricingEngine>)>;

/// Runs the full method × scenario matrix over every hub of the base
/// system's world — the engine behind
/// [`Session::scenario_grid`](crate::session::Session::scenario_grid) and
/// the held-out specialists of [`crate::generalist::heldout_baselines`].
///
/// `engines_for` builds the named pricing engines *per scenario system*
/// (engines may train on the scenario's own observational history).
/// Execution fans the flat `scenario × method × hub-chunk` job list across
/// `threads` workers (0 = one worker per job); each job trains its hub chunk
/// as one lockstep batched fleet; each cell's result is independent of the
/// chunking under the shared system seed.
///
/// # Errors
///
/// Returns the first scenario-construction, engine-construction or training
/// error encountered.
pub(crate) fn scenario_grid(
    base: &EctHubSystem,
    scenarios: &[ScenarioSpec],
    engines_for: &(dyn Fn(&EctHubSystem) -> ect_types::Result<NamedEngines> + Sync),
    threads: usize,
) -> ect_types::Result<Vec<ScenarioGridResult>> {
    if scenarios.is_empty() {
        return Ok(Vec::new());
    }
    // Stage 1 (parallel): one system + engine set per scenario. World
    // generation and engine training are independent across scenarios, so
    // they fan across the same worker budget as the training jobs.
    let stage1_workers = if threads == 0 {
        scenarios.len()
    } else {
        threads.min(scenarios.len()).max(1)
    };
    let specs: Vec<&ScenarioSpec> = scenarios.iter().collect();
    let runs: Vec<(EctHubSystem, NamedEngines)> =
        crate::dispatch::run_indexed(specs, stage1_workers, |_, spec| {
            let system = base.with_scenario(spec.clone())?;
            let engines = engines_for(&system)?;
            Ok((system, engines))
        })?;

    // Stage 2 (parallel): fan scenario × method × hub-chunk jobs.
    let num_hubs = base.world().num_hubs() as usize;
    let hubs: Vec<HubId> = (0..num_hubs as u32).map(HubId::new).collect();
    let num_jobs_unchunked: usize = runs.iter().map(|(_, engines)| engines.len()).sum();
    let Some((workers, chunk_len)) = hub_chunking(num_jobs_unchunked, num_hubs, threads) else {
        return Ok(Vec::new());
    };
    let hubs = &hubs;
    let jobs: Vec<(usize, usize, &[HubId])> = runs
        .iter()
        .enumerate()
        .flat_map(|(s, (_, engines))| {
            (0..engines.len())
                .flat_map(move |e| hubs.chunks(chunk_len).map(move |chunk| (s, e, chunk)))
        })
        .collect();

    let runs_ref = &runs;
    let per_job =
        crate::dispatch::run_indexed(jobs, workers, |_, (scenario_idx, engine_idx, chunk)| {
            let (system, engines) = &runs_ref[scenario_idx];
            let (label, engine) = &engines[engine_idx];
            run_hubs_method_batched(system, chunk, engine.as_ref(), label)
                .map(|cells| (scenario_idx, cells))
        })?;

    // Stage 3 (sequential): group cells per scenario and attach stress.
    let mut grouped: Vec<Vec<HubExperimentResult>> = vec![Vec::new(); runs.len()];
    for (scenario_idx, mut cells) in per_job {
        grouped[scenario_idx].append(&mut cells);
    }
    let mut out = Vec::with_capacity(runs.len());
    for ((system, _), (spec, mut cells)) in runs.iter().zip(scenarios.iter().zip(grouped)) {
        cells.sort_by(|a, b| (a.hub, &a.method).cmp(&(b.hub, &b.method)));
        out.push(ScenarioGridResult {
            scenario: spec.name.clone(),
            description: spec.description.clone(),
            cells,
            stress: scenario_stress(system)?,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemConfig;
    use ect_data::scenario::{scenario_by_name, ScenarioSpec};
    use ect_price::engine::{AlwaysDiscount, NeverDiscount};

    fn small_system() -> EctHubSystem {
        EctHubSystem::new(SystemConfig::tiny()).unwrap()
    }

    fn cheap_engines(
        _system: &EctHubSystem,
    ) -> ect_types::Result<Vec<(String, Box<dyn PricingEngine>)>> {
        Ok(vec![
            (
                "NoDiscount".into(),
                Box::new(NeverDiscount) as Box<dyn PricingEngine>,
            ),
            ("AlwaysDiscount".into(), Box::new(AlwaysDiscount)),
        ])
    }

    #[test]
    fn grid_covers_every_scenario_method_hub_cell() {
        let base = small_system();
        let horizon = base.config().world.horizon_slots;
        let scenarios = vec![
            ScenarioSpec::baseline(),
            scenario_by_name("rtp-price-spike", horizon).unwrap(),
        ];
        let grid = scenario_grid(&base, &scenarios, &cheap_engines, 4).unwrap();
        assert_eq!(grid.len(), 2);
        for (result, spec) in grid.iter().zip(&scenarios) {
            assert_eq!(result.scenario, spec.name);
            assert_eq!(result.cells.len(), 2 * 2, "{}", spec.name);
            assert_eq!(result.stress.len(), 2);
            assert!(result
                .cells
                .windows(2)
                .all(|w| (w[0].hub, &w[0].method) <= (w[1].hub, &w[1].method)));
            assert!(result.method_mean("NoDiscount").is_finite());
            assert!(result.method_mean("missing").is_nan());
            for s in &result.stress {
                assert!(s.baseline_grid_cost.is_finite());
                assert!(s.worst_endurance_hours >= 0.0);
            }
        }
        // The price spike raises the scenario's cost exposure.
        let cost =
            |r: &ScenarioGridResult| -> f64 { r.stress.iter().map(|s| s.baseline_grid_cost).sum() };
        assert!(cost(&grid[1]) > cost(&grid[0]));
    }

    #[test]
    fn grid_results_match_direct_fleet_runs() {
        // A grid over the baseline scenario must reproduce the session
        // fleet's cells bit for bit (same seeds, same batched engine
        // underneath).
        let base = small_system();
        let grid = scenario_grid(&base, &[ScenarioSpec::baseline()], &cheap_engines, 2).unwrap();
        let engines = cheap_engines(&base).unwrap();
        let direct = crate::session::SessionBuilder::new(base.config().clone())
            .threads(2)
            .build()
            .unwrap()
            .fleet(&engines)
            .unwrap();
        assert_eq!(grid[0].cells.len(), direct.len());
        for (a, b) in grid[0].cells.iter().zip(&direct) {
            assert_eq!(a.hub, b.hub);
            assert_eq!(a.method, b.method);
            assert_eq!(a.avg_daily_reward.to_bits(), b.avg_daily_reward.to_bits());
        }
    }

    #[test]
    fn rolling_blackout_scenario_reports_outage_shortfall() {
        let base = small_system();
        let horizon = base.config().world.horizon_slots;
        let blackout = scenario_by_name("rolling-blackout", horizon).unwrap();
        assert!(!blackout.outages.is_empty());
        let system = base.with_scenario(blackout).unwrap();
        let stress = scenario_stress(&system).unwrap();
        for s in &stress {
            // The reserve is sized for the design outage, so scripted 4-hour
            // events are survivable — but the field must be populated.
            assert!(s.outage_unserved_kwh >= 0.0);
            assert!(s.outage_unserved_kwh.is_finite());
        }
    }

    #[test]
    fn empty_grids_are_empty() {
        let base = small_system();
        assert!(scenario_grid(&base, &[], &cheap_engines, 2)
            .unwrap()
            .is_empty());
        let no_engines =
            |_: &EctHubSystem| -> ect_types::Result<Vec<(String, Box<dyn PricingEngine>)>> {
                Ok(Vec::new())
            };
        assert!(
            scenario_grid(&base, &[ScenarioSpec::baseline()], &no_engines, 2)
                .unwrap()
                .is_empty()
        );
    }
}
