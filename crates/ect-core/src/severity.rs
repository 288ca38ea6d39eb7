//! Severity sweeps: robustness curves of a domain-randomised generalist.
//!
//! [`Session::severity_sweep`](crate::session::Session::severity_sweep) is
//! the operator-facing entry point:
//!
//! 1. train one shared policy on **sampled** scenarios — every episode draws
//!    fresh specs from a continuous [`ScenarioDistribution`] through
//!    [`ScenarioSource::Sampled`](ect_drl::scenario_source::ScenarioSource),
//!    with per-episode worlds generated through an LRU-bounded
//!    [`WorldCache`] (the spec space is infinite, the memory is not);
//! 2. for every [`StressAxis`], walk a monotone intensity ladder: each rung
//!    is the axis preset's deterministic
//!    [`severity_spec`](ScenarioDistribution::severity_spec) —
//!    baseline-equivalent at intensity `0`, the preset's extreme at `1`;
//! 3. at each rung, score the trained generalist zero-shot (batched greedy)
//!    next to the rule-based schedulers (NoBattery, GreedyPrice, TimeOfUse)
//!    inside that world — the reward-vs-intensity curve per scenario axis.
//!
//! Where the generalisation harness ([`crate::generalist`]) answers "does
//! one policy transfer to a handful of held-out worlds?", the severity sweep
//! answers the ROADMAP's follow-up: *how fast does it degrade as each kind
//! of stress intensifies?* — the repo's first robustness-curve artefact
//! (`results/severity_sweep.json` via `ect-bench`'s `severity_sweep` bin).
//!
//! Discounts are pinned to the never-discount schedule throughout, exactly
//! as in the generalisation harness, so the curves isolate battery
//! scheduling under world shift.

use crate::generalist::world_lanes_fleet;
use crate::scenario_grid::scenario_stress;
use crate::scheduling::rule_based_anchors;
use crate::system::EctHubSystem;
use ect_data::scenario::randomized::{all_stress, ScenarioDistribution, StressAxis};
use ect_data::scenario::ScenarioSpec;
use ect_drl::generalist::{evaluate_generalist, train_generalist_source, GeneralistConfig};
use ect_drl::scenario_source::{ScenarioSource, WorldCache};
use ect_drl::ActorCritic;
use ect_env::env::ObsAugmentation;
use ect_env::vec_env::FleetEnv;
use ect_types::rng::EctRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Seed-stream separator for the randomised-generalist trainer
/// (decorrelated from the mixture-generalist and specialist streams).
const SEVERITY_SEED_STREAM: u64 = 0x5E7E_21A7;

/// Seed-stream separator for severity-ladder evaluation draws.
const SEVERITY_EVAL_STREAM: u64 = 0xA75E_7E21;

/// Knobs of [`Session::severity_sweep`](crate::session::Session::severity_sweep).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeverityOptions {
    /// Distribution the generalist trains on (the evaluation ladders always
    /// use the per-axis presets).
    pub train: ScenarioDistribution,
    /// Axes to sweep, in report order.
    pub axes: Vec<StressAxis>,
    /// Intensity ladder walked along every axis; must be strictly
    /// increasing within `[0, 1]`.
    pub intensities: Vec<f64>,
    /// Observation augmentation for the generalist.
    pub augmentation: ObsAugmentation,
    /// Mixture lanes per training episode (0 = one lane per hub).
    pub lanes: usize,
    /// Capacity of the LRU world cache backing training and evaluation.
    pub cache_capacity: usize,
}

impl Default for SeverityOptions {
    fn default() -> Self {
        Self {
            train: all_stress(),
            axes: StressAxis::ALL.to_vec(),
            intensities: vec![0.0, 0.25, 0.5, 0.75, 1.0],
            augmentation: ObsAugmentation::SCENARIO,
            lanes: 0,
            cache_capacity: 8,
        }
    }
}

impl SeverityOptions {
    /// Validates the sweep request.
    ///
    /// # Errors
    ///
    /// Returns [`ect_types::EctError::InvalidConfig`] for an invalid
    /// training distribution, no axes, a zero cache capacity, or an
    /// intensity ladder that is empty, out of `[0, 1]` or not strictly
    /// increasing (the monotone-ladder contract of the report).
    pub fn validate(&self) -> ect_types::Result<()> {
        self.train.validate()?;
        if self.axes.is_empty() {
            return Err(ect_types::EctError::InvalidConfig(
                "severity sweep needs at least one stress axis".into(),
            ));
        }
        if self.intensities.is_empty() {
            return Err(ect_types::EctError::InvalidConfig(
                "severity sweep needs at least one intensity".into(),
            ));
        }
        for pair in self.intensities.windows(2) {
            if pair[1] <= pair[0] {
                return Err(ect_types::EctError::InvalidConfig(format!(
                    "intensity ladder must be strictly increasing, got {} after {}",
                    pair[1], pair[0]
                )));
            }
        }
        for &t in &self.intensities {
            if !t.is_finite() || !(0.0..=1.0).contains(&t) {
                return Err(ect_types::EctError::InvalidConfig(format!(
                    "intensity {t} outside [0, 1]"
                )));
            }
        }
        if self.cache_capacity == 0 {
            return Err(ect_types::EctError::InvalidConfig(
                "severity sweep needs a world cache capacity of at least one".into(),
            ));
        }
        Ok(())
    }
}

/// One rung of one axis's ladder. All rewards are average daily rewards
/// under the never-discount schedule (the paper's Table III metric).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SeverityPoint {
    /// Stress intensity in `[0, 1]` along the axis.
    pub intensity: f64,
    /// Name of the deterministic spec evaluated at this rung.
    pub scenario: String,
    /// Zero-shot reward of the domain-randomised generalist.
    pub generalist: f64,
    /// Rule-based baselines, `(name, reward)` pairs.
    pub heuristics: Vec<(String, f64)>,
    /// The strongest rule-based baseline's reward.
    pub best_heuristic: f64,
    /// Fleet-minimum worst-case blackout endurance at this rung, hours.
    /// Scripted outages also feed the stepping reward directly (grid gone,
    /// unserved load penalised at the hub's value of lost load), so the
    /// outage axis moves `generalist` as well as these diagnostics.
    pub min_endurance_hours: f64,
    /// Fleet-total unserved energy across the rung's scripted outages, kWh.
    pub outage_unserved_kwh: f64,
}

/// The reward-vs-intensity curve of one stress axis.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SeverityCurve {
    /// Swept axis (display name, e.g. `price-shock`).
    pub axis: String,
    /// Name of the preset distribution whose extremes anchor the ladder.
    pub distribution: String,
    /// Ladder rungs in increasing-intensity order.
    pub points: Vec<SeverityPoint>,
}

impl SeverityCurve {
    /// Generalist reward lost between the first and last rung
    /// (positive = performance degrades as stress intensifies).
    pub fn degradation(&self) -> f64 {
        match (self.points.first(), self.points.last()) {
            (Some(first), Some(last)) => first.generalist - last.generalist,
            _ => f64::NAN,
        }
    }
}

/// The full severity-sweep report (`results/severity_sweep.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SeverityReport {
    /// Name of the training distribution.
    pub train_distribution: String,
    /// Observation dimension of the trained generalist.
    pub obs_dim: usize,
    /// Lanes per training episode.
    pub lanes: usize,
    /// Training episodes (each drawing `lanes` fresh sampled scenarios).
    pub episodes: usize,
    /// Master seed of the trainer.
    pub seed: u64,
    /// Capacity of the world cache used throughout.
    pub cache_capacity: usize,
    /// Worlds actually generated (cache misses) across training and
    /// evaluation — the generation budget spent.
    pub worlds_generated: usize,
    /// Lookups served from the cache.
    pub cache_hits: usize,
    /// One reward-vs-intensity curve per swept axis.
    pub curves: Vec<SeverityCurve>,
}

impl SeverityReport {
    /// Mean generalist degradation across axes — the sweep's headline
    /// number (how much reward the policy loses from no stress to each
    /// axis's extreme, averaged).
    pub fn mean_degradation(&self) -> f64 {
        if self.curves.is_empty() {
            return f64::NAN;
        }
        self.curves
            .iter()
            .map(SeverityCurve::degradation)
            .sum::<f64>()
            / self.curves.len() as f64
    }
}

/// A trained domain-randomised generalist plus its severity scorecard.
///
/// Serialisable end to end, so the whole outcome (curves *and* trained
/// policy) can spill to the persistent artifact cache.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SeverityOutcome {
    /// The serialisable report.
    pub report: SeverityReport,
    /// The trained shared policy.
    pub policy: ActorCritic,
}

/// Trains a generalist on sampled scenarios and walks the per-axis severity
/// ladders (see the module docs for the full protocol) — the engine behind
/// [`Session::severity_sweep`](crate::session::Session::severity_sweep),
/// which memoises the trained generalist and its curves.
///
/// # Errors
///
/// Propagates option validation, world-generation, training and evaluation
/// failures.
pub(crate) fn severity_sweep(
    system: &EctHubSystem,
    options: &SeverityOptions,
) -> ect_types::Result<SeverityOutcome> {
    options.validate()?;
    let horizon = system.world().horizon();
    let num_hubs = system.world().num_hubs() as usize;
    let lanes = if options.lanes == 0 {
        num_hubs
    } else {
        options.lanes
    };

    // All worlds — the sampled training curriculum *and* the evaluation
    // rungs, for the generalist and the rule-based anchors alike — flow
    // through one bounded cache: every distinct spec is generated once.
    let mut cache = WorldCache::new(system.config().world.clone(), options.cache_capacity)?;
    let augment = options.augmentation;
    // A fresh short-lived closure per call keeps the cache free for direct
    // lookups between factory uses.
    let fleet_for = |cache: &mut WorldCache,
                     specs: &[&ScenarioSpec],
                     rngs: &mut [EctRng]|
     -> ect_types::Result<FleetEnv> {
        // Resolve every lane's world first: the held Arcs keep a world
        // alive even if a sibling lookup evicts it from the cache.
        let worlds = cache.worlds_for(specs)?;
        world_lanes_fleet(system, worlds.iter().map(|world| &**world), &augment, rngs)
    };

    // Train on the continuous family: fresh specs every episode.
    let source = ScenarioSource::sampled(options.train.clone(), horizon);
    let config = GeneralistConfig {
        trainer: ect_drl::trainer::TrainerConfig {
            seed: system.config().seed ^ SEVERITY_SEED_STREAM,
            ..system.config().trainer.clone()
        },
        lanes,
    };
    let (policy, _history) = train_generalist_source(
        &config,
        &source,
        |_e: usize, specs: &[&ScenarioSpec], rngs: &mut [EctRng]| {
            fleet_for(&mut cache, specs, rngs)
        },
    )?;

    // Walk the ladders.
    let test_episodes = system.config().test_episodes;
    let eval_seed = config.trainer.seed ^ SEVERITY_EVAL_STREAM;
    let mut curves = Vec::with_capacity(options.axes.len());
    for &axis in &options.axes {
        let preset = axis.preset();
        let mut points = Vec::with_capacity(options.intensities.len());
        for &intensity in &options.intensities {
            let spec = preset.severity_spec(axis, intensity, horizon)?;
            // One cache lookup covers this rung end to end: the Arc below
            // seeds the generalist lanes *and* (cloned) the heuristic
            // system, so the world is generated at most once per rung.
            let rung_world = cache.world_for(&spec)?;
            let summary = evaluate_generalist(
                &policy,
                &spec,
                |_e: usize, specs: &[&ScenarioSpec], rngs: &mut [EctRng]| {
                    fleet_for(&mut cache, specs, rngs)
                },
                test_episodes,
                num_hubs,
                eval_seed,
            )?;

            // Rule-based anchors inside the same (cached) world.
            let spec_system = system.with_world(Arc::clone(&rung_world))?;
            let (heuristics, best_heuristic) = rule_based_anchors(&spec_system)?;
            let stress = scenario_stress(&spec_system)?;
            points.push(SeverityPoint {
                intensity,
                scenario: spec.name,
                generalist: summary.avg_daily_reward,
                heuristics,
                best_heuristic,
                min_endurance_hours: stress
                    .iter()
                    .map(|s| s.worst_endurance_hours)
                    .fold(f64::INFINITY, f64::min),
                outage_unserved_kwh: stress.iter().map(|s| s.outage_unserved_kwh).sum(),
            });
        }
        curves.push(SeverityCurve {
            axis: axis.to_string(),
            distribution: preset.name,
            points,
        });
    }

    let report = SeverityReport {
        train_distribution: options.train.name.clone(),
        obs_dim: policy.state_dim(),
        lanes,
        episodes: config.trainer.episodes,
        seed: config.trainer.seed,
        cache_capacity: options.cache_capacity,
        worlds_generated: cache.generations(),
        cache_hits: cache.hits(),
        curves,
    };
    Ok(SeverityOutcome { report, policy })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemConfig;

    fn tiny_system() -> EctHubSystem {
        EctHubSystem::new(SystemConfig::tiny()).unwrap()
    }

    fn tiny_options() -> SeverityOptions {
        SeverityOptions {
            intensities: vec![0.0, 1.0],
            axes: vec![
                StressAxis::PriceShock,
                StressAxis::RenewableDrought,
                StressAxis::Outage,
            ],
            cache_capacity: 3,
            ..SeverityOptions::default()
        }
    }

    #[test]
    fn options_validation_rejects_bad_ladders() {
        let mut o = SeverityOptions {
            intensities: vec![],
            ..SeverityOptions::default()
        };
        assert!(o.validate().is_err());
        o.intensities = vec![0.5, 0.5];
        assert!(o.validate().is_err(), "non-strictly-increasing ladder");
        o.intensities = vec![0.8, 0.2];
        assert!(o.validate().is_err(), "decreasing ladder");
        o.intensities = vec![0.0, 1.5];
        assert!(o.validate().is_err(), "out-of-range rung");
        o.intensities = vec![0.0, 1.0];
        o.axes = vec![];
        assert!(o.validate().is_err(), "no axes");
        o.axes = vec![StressAxis::Outage];
        o.cache_capacity = 0;
        assert!(o.validate().is_err(), "zero cache capacity");
        o.cache_capacity = 2;
        o.validate().unwrap();
    }

    #[test]
    fn severity_sweep_produces_monotone_ladders_and_bounded_cache() {
        let system = tiny_system();
        let options = tiny_options();
        let outcome = severity_sweep(&system, &options).unwrap();
        let report = &outcome.report;
        assert_eq!(report.curves.len(), 3);
        assert_eq!(report.train_distribution, "all-stress");
        assert_eq!(outcome.policy.state_dim(), report.obs_dim);
        for (curve, axis) in report.curves.iter().zip(&options.axes) {
            assert_eq!(curve.axis, axis.to_string());
            assert_eq!(curve.points.len(), options.intensities.len());
            let mut last = f64::NEG_INFINITY;
            for (point, &intensity) in curve.points.iter().zip(&options.intensities) {
                assert!(
                    point.intensity > last,
                    "{}: ladder not monotone",
                    curve.axis
                );
                last = point.intensity;
                assert_eq!(point.intensity, intensity);
                assert!(point.generalist.is_finite(), "{}", curve.axis);
                assert_eq!(point.heuristics.len(), 3);
                assert!(point.best_heuristic.is_finite());
                assert!(point.min_endurance_hours >= 0.0);
            }
            assert!(curve.degradation().is_finite());
        }
        assert!(report.mean_degradation().is_finite());
        // The cache observed both training misses and evaluation hits, and
        // its generation budget covered every distinct world touched.
        assert!(report.worlds_generated > 0);
        assert!(report.cache_hits > 0);

        // The report serialises for results/severity_sweep.json.
        let json = serde_json::to_string(report).unwrap();
        let back: SeverityReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.curves.len(), report.curves.len());

        // Determinism: the same system + options reproduce the same curves.
        let again = severity_sweep(&system, &options).unwrap();
        for (a, b) in report.curves.iter().zip(&again.report.curves) {
            for (pa, pb) in a.points.iter().zip(&b.points) {
                assert_eq!(pa.generalist.to_bits(), pb.generalist.to_bits());
            }
        }
    }
}
