//! Networked multi-hub coordination: does a policy that *sees* the coupling
//! beat policies that don't?
//!
//! The coupling layer ([`ect_env::coupling`]) networks the hub fleet three
//! ways: a shared distribution feeder with an aggregate grid-import cap
//! (proportional-fairness curtailment), EV demand spillover to topology
//! neighbours, and a mutual-observation block exposing neighbour SoC, load
//! and curtailment pressure.
//! [`Session::coordination_for`](crate::session::Session::coordination_for) turns
//! that machinery into
//! the repo's first *multi-agent* headline number:
//!
//! 1. **Independent arm** — one PPO policy per hub, trained on the
//!    *uncoupled* engine (each hub believes the feeder is infinite), then
//!    evaluated jointly, greedily, on the coupled fleet with the mutual
//!    block disabled so the observation shape still matches.
//! 2. **Coordinated arm** — one shared policy trained *under* the coupling
//!    with mutual observations on, then evaluated greedily on the same
//!    coupled fleet.
//!
//! Both arms are scored on identical evaluation seeds, so the
//! **coordination gap** — coordinated minus independent mean daily reward —
//! isolates what awareness of the network is worth when the feeder cap
//! binds. Under a binding cap the independent policies keep charging into
//! slots the feeder cannot serve (they never saw a curtailment penalty
//! during training); the coordinated policy learns to shed or shift that
//! demand, so the gap is positive.
//!
//! Everything is seeded and deterministic: the same config + options
//! reproduce the same gap bit for bit (pinned by
//! `tests/coupling_equivalence.rs` at the engine level and the smoke tests
//! here at the study level).

use crate::scheduling::OBS_WINDOW;
use crate::system::EctHubSystem;
use ect_data::scenario::ScenarioSpec;
use ect_data::spatial::{Region, RegionConfig};
use ect_data::topology::HubTopology;
use ect_drl::collector::train_fleet;
use ect_drl::generalist::{train_generalist_source, GeneralistConfig, ScenarioMixture};
use ect_drl::scenario_source::ScenarioSource;
use ect_drl::trainer::TrainerConfig;
use ect_drl::ActorCritic;
use ect_env::battery::BpAction;
use ect_env::coupling::{CouplingConfig, FeederConfig, SpilloverConfig};
use ect_env::fleet::fleet_env_for_hubs;
use ect_env::tariff::DiscountSchedule;
use ect_types::ids::HubId;
use ect_types::rng::EctRng;
use ect_types::units::DollarsPerKwh;
use ect_types::SLOTS_PER_DAY;
use serde::{Deserialize, Serialize};

/// Seed-stream separator for the per-hub independent trainers.
const INDEPENDENT_SEED_STREAM: u64 = 0xD15C_0BA1;

/// Seed-stream separator for the coordinated shared-policy trainer.
const COORDINATED_SEED_STREAM: u64 = 0xC002_D14A;

/// Seed-stream separator for the joint evaluation rollouts (shared by both
/// arms, so they face identical worlds and EV draws).
const COORDINATION_EVAL_STREAM: u64 = 0xE7A1_C002;

/// Seed-stream separator for the road-graph topology region (decorrelated
/// from the world and trainer draws).
const ROAD_TOPOLOGY_SEED_STREAM: u64 = 0x70D0_10D7;

/// Knobs of a road-graph-derived coupling topology: hubs are sited on the
/// evenly-strided base stations of a synthetic [`Region`] and linked to
/// their `k` nearest siblings ([`HubTopology::from_region`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoadGraphTopology {
    /// Seed of the generated region (default [`RegionConfig`]).
    pub seed: u64,
    /// Nearest neighbours each hub links to (≥ 1; union-symmetrised).
    pub k: usize,
}

/// Where the coordination study's hub adjacency comes from.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub enum TopologySource {
    /// The historical ring over all hubs.
    #[default]
    Ring,
    /// Road-distance adjacency from a generated region's geography.
    RoadGraph(RoadGraphTopology),
}

impl TopologySource {
    /// Builds the hub adjacency this source describes.
    ///
    /// # Errors
    ///
    /// Propagates region generation and topology validation failures.
    pub fn build(&self, num_hubs: usize) -> ect_types::Result<HubTopology> {
        match self {
            Self::Ring => HubTopology::ring(num_hubs),
            Self::RoadGraph(road) => {
                let region = Region::generate(
                    &RegionConfig::default(),
                    &mut EctRng::seed_from(road.seed ^ ROAD_TOPOLOGY_SEED_STREAM),
                )?;
                HubTopology::from_region(&region, num_hubs, road.k)
            }
        }
    }
}

/// Knobs of the coordination study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoordinationOptions {
    /// Training episodes per arm (the per-hub independents and the shared
    /// coordinated policy get the same budget).
    pub episodes: usize,
    /// Joint greedy evaluation episodes per arm.
    pub eval_episodes: usize,
    /// Aggregate feeder import cap shared by the whole fleet, kW. Sized
    /// against `num_hubs` station rates so it binds whenever EVs charge.
    pub feeder_cap_kw: f64,
    /// Price charged per curtailed kWh, $/kWh.
    pub curtailment_price: f64,
    /// EV demand multiplier on even-indexed hubs (the saturated half of the
    /// ring; > 1 overflows the local station so spillover flows).
    pub demand_scale_high: f64,
    /// EV demand multiplier on odd-indexed hubs (the headroom half).
    pub demand_scale_low: f64,
    /// Where the hub adjacency comes from (ring, or road-graph geography).
    pub topology: TopologySource,
}

impl Default for CoordinationOptions {
    fn default() -> Self {
        Self {
            episodes: 16,
            eval_episodes: 4,
            feeder_cap_kw: 60.0,
            curtailment_price: 0.60,
            demand_scale_high: 1.8,
            demand_scale_low: 0.3,
            topology: TopologySource::Ring,
        }
    }
}

impl CoordinationOptions {
    /// Validates the study request.
    ///
    /// # Errors
    ///
    /// Returns [`ect_types::EctError::InvalidConfig`] for a zero episode
    /// budget, a non-positive/non-finite feeder cap or demand scale, or a
    /// negative/non-finite curtailment price.
    pub fn validate(&self) -> ect_types::Result<()> {
        if self.episodes == 0 || self.eval_episodes == 0 {
            return Err(ect_types::EctError::InvalidConfig(
                "coordination study needs at least one training and one evaluation episode".into(),
            ));
        }
        if !self.feeder_cap_kw.is_finite() || self.feeder_cap_kw <= 0.0 {
            return Err(ect_types::EctError::InvalidConfig(format!(
                "feeder cap must be finite and positive, got {}",
                self.feeder_cap_kw
            )));
        }
        if !self.curtailment_price.is_finite() || self.curtailment_price < 0.0 {
            return Err(ect_types::EctError::InvalidConfig(format!(
                "curtailment price must be finite and non-negative, got {}",
                self.curtailment_price
            )));
        }
        for (name, scale) in [
            ("high", self.demand_scale_high),
            ("low", self.demand_scale_low),
        ] {
            if !scale.is_finite() || scale <= 0.0 {
                return Err(ect_types::EctError::InvalidConfig(format!(
                    "{name} demand scale must be finite and positive, got {scale}"
                )));
            }
        }
        if let TopologySource::RoadGraph(road) = &self.topology {
            if road.k == 0 {
                return Err(ect_types::EctError::InvalidConfig(
                    "road-graph topology needs k ≥ 1 (k = 0 disconnects the fleet)".into(),
                ));
            }
        }
        Ok(())
    }

    /// The coupling this study runs under: the configured topology over
    /// every hub ([`TopologySource`]), the feeder cap and curtailment price
    /// from the options, and asymmetric EV demand (saturated even hubs,
    /// headroom odd hubs).
    ///
    /// # Errors
    ///
    /// Propagates topology construction and validation.
    pub fn coupling(&self, num_hubs: usize, mutual_obs: bool) -> ect_types::Result<CouplingConfig> {
        let mut ev_demand_scale = vec![self.demand_scale_low; num_hubs];
        for scale in ev_demand_scale.iter_mut().step_by(2) {
            *scale = self.demand_scale_high;
        }
        Ok(CouplingConfig {
            topology: self.topology.build(num_hubs)?,
            feeder: Some(FeederConfig {
                cap_kw: self.feeder_cap_kw,
                curtailment_price: DollarsPerKwh::new(self.curtailment_price),
            }),
            spillover: Some(SpilloverConfig { ev_demand_scale }),
            mutual_obs,
        })
    }
}

/// Joint-rollout scorecard of one arm on the coupled fleet.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoordinationArm {
    /// Mean daily reward per hub across all evaluation rollouts.
    pub mean_daily_reward: f64,
    /// Fleet-total grid import the feeder refused, kWh.
    pub curtailed_kwh: f64,
    /// Fleet-total curtailment penalties paid, $.
    pub curtailment_penalty: f64,
    /// Curtailed share of requested import: `curtailed / (curtailed +
    /// served)`, in `[0, 1]`.
    pub curtailment_share: f64,
    /// Fleet-total EV demand absorbed from saturated neighbours, kWh.
    pub spillover_kwh: f64,
    /// Fleet-total grid import the feeder served, kWh.
    pub grid_import_kwh: f64,
}

/// The full coordination study (`results/coordination.json` payload plus
/// the trained shared policy, so the whole outcome spills to the persistent
/// artifact cache).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoordinationOutcome {
    /// Hubs on the ring.
    pub num_hubs: usize,
    /// Episode length, slots.
    pub horizon_slots: usize,
    /// The binding aggregate import cap, kW.
    pub feeder_cap_kw: f64,
    /// Training episodes per arm.
    pub train_episodes: usize,
    /// Joint evaluation episodes per arm.
    pub eval_episodes: usize,
    /// Observation width of the coordinated policy (includes the mutual
    /// block).
    pub coordinated_obs_dim: usize,
    /// Observation width of each independent policy.
    pub independent_obs_dim: usize,
    /// The coupling-aware shared policy's scorecard.
    pub coordinated: CoordinationArm,
    /// The coupling-blind per-hub policies' scorecard.
    pub independent: CoordinationArm,
    /// Headline: coordinated minus independent mean daily reward
    /// (positive = network awareness pays under the binding cap).
    pub coordination_gap: f64,
    /// The trained coordinated policy.
    pub policy: ActorCritic,
}

/// Scores one arm with joint greedy rollouts on the coupled fleet.
///
/// `select` maps `(lane, lane observation)` to that lane's action; both
/// arms run the exact same seeds, worlds and initial SoCs, so their
/// scorecards differ only through the policies.
fn eval_joint(
    system: &EctHubSystem,
    coupling: &CouplingConfig,
    eval_episodes: usize,
    seed: u64,
    mut select: impl FnMut(usize, &[f64]) -> BpAction,
) -> ect_types::Result<CoordinationArm> {
    let world = system.world();
    let num_hubs = world.num_hubs() as usize;
    let horizon = world.horizon();
    let hubs: Vec<HubId> = (0..num_hubs as u32).map(HubId::new).collect();
    let discounts = vec![DiscountSchedule::none(horizon); num_hubs];
    let days_per_lane = horizon.div_ceil(SLOTS_PER_DAY).max(1);

    let mut total_reward = 0.0;
    let mut curtailed_kwh = 0.0;
    let mut curtailment_penalty = 0.0;
    let mut spillover_kwh = 0.0;
    let mut grid_import_kwh = 0.0;
    let mut actions = vec![BpAction::Idle; num_hubs];
    for episode in 0..eval_episodes {
        let mut rngs: Vec<EctRng> = (0..num_hubs as u64)
            .map(|lane| EctRng::seed_from(seed ^ (lane << 32) ^ ((episode as u64) << 8)))
            .collect();
        let mut fleet =
            fleet_env_for_hubs(world, &hubs, 0, horizon, &discounts, OBS_WINDOW, &mut rngs)?
                .with_coupling(coupling.clone())?;
        let mut soc_rng = EctRng::seed_from(seed ^ 0x50C ^ ((episode as u64) << 16));
        let initial_soc: Vec<f64> = (0..num_hubs).map(|_| soc_rng.uniform()).collect();
        fleet.reset(&initial_soc);
        let mut state = vec![0.0; fleet.state_dim()];
        loop {
            for (lane, action) in actions.iter_mut().enumerate() {
                fleet.observe_into(lane, &mut state);
                *action = select(lane, &state);
            }
            let step = fleet.step_batch_soa(&actions);
            total_reward += step.rewards.iter().sum::<f64>();
            let done = step.done;
            for b in (0..num_hubs).map(|lane| fleet.breakdown(lane)) {
                curtailed_kwh += b.curtailed_kwh;
                curtailment_penalty += b.curtailment_penalty.as_f64();
                spillover_kwh += b.spill_in.as_f64();
                grid_import_kwh += b.p_grid.as_f64();
            }
            if done {
                break;
            }
        }
    }
    let total_days = (eval_episodes * num_hubs * days_per_lane) as f64;
    let requested = curtailed_kwh + grid_import_kwh;
    Ok(CoordinationArm {
        mean_daily_reward: total_reward / total_days,
        curtailed_kwh,
        curtailment_penalty,
        curtailment_share: if requested > 0.0 {
            curtailed_kwh / requested
        } else {
            0.0
        },
        spillover_kwh,
        grid_import_kwh,
    })
}

/// Runs the coordination study on an assembled system — see the module
/// docs for the full protocol. The engine behind
/// [`Session::coordination_for`](crate::session::Session::coordination_for), which
/// memoises the trained arms.
///
/// # Errors
///
/// Propagates option validation, training and evaluation failures.
pub(crate) fn run_coordination(
    system: &EctHubSystem,
    options: &CoordinationOptions,
) -> ect_types::Result<CoordinationOutcome> {
    options.validate()?;
    let world = system.world();
    let num_hubs = world.num_hubs() as usize;
    let horizon = world.horizon();
    let hubs: Vec<HubId> = (0..num_hubs as u32).map(HubId::new).collect();
    let discounts = vec![DiscountSchedule::none(horizon); num_hubs];
    let base_seed = system.config().seed;
    let trainer_base = system.config().trainer.clone();

    // Independent arm: one policy per hub, trained on the *uncoupled*
    // engine — each hub optimises as if the feeder were infinite.
    let independent_configs: Vec<TrainerConfig> = (0..num_hubs)
        .map(|lane| TrainerConfig {
            episodes: options.episodes,
            seed: base_seed ^ ((lane as u64) << 32) ^ INDEPENDENT_SEED_STREAM,
            ..trainer_base.clone()
        })
        .collect();
    let independent_policies: Vec<ActorCritic> =
        train_fleet(&independent_configs, |_e: usize, rngs: &mut [EctRng]| {
            fleet_env_for_hubs(world, &hubs, 0, horizon, &discounts, OBS_WINDOW, rngs)
        })?
        .into_iter()
        .map(|(policy, _history)| policy)
        .collect();

    // Coordinated arm: one shared policy trained under the full coupling
    // with the mutual-observation block on.
    let coordinated_config = GeneralistConfig {
        trainer: TrainerConfig {
            episodes: options.episodes,
            seed: base_seed ^ COORDINATED_SEED_STREAM,
            ..trainer_base.clone()
        },
        lanes: num_hubs,
    };
    let train_coupling = options.coupling(num_hubs, true)?;
    let mixture = ScenarioMixture::uniform(vec![system.config().scenario.clone()])?;
    let (policy, _history) = train_generalist_source(
        &coordinated_config,
        &ScenarioSource::Fixed(mixture),
        |_e: usize, _specs: &[&ScenarioSpec], rngs: &mut [EctRng]| {
            fleet_env_for_hubs(world, &hubs, 0, horizon, &discounts, OBS_WINDOW, rngs)
                .and_then(|fleet| fleet.with_coupling(train_coupling.clone()))
        },
    )?;

    // Joint evaluation: identical seeds for both arms; the independent arm
    // runs with the mutual block off so its observation shape matches the
    // uncoupled training observations.
    let eval_seed = base_seed ^ COORDINATION_EVAL_STREAM;
    let coordinated = eval_joint(
        system,
        &train_coupling,
        options.eval_episodes,
        eval_seed,
        |_lane, obs| policy.greedy_action(obs),
    )?;
    let blind_coupling = options.coupling(num_hubs, false)?;
    let independent = eval_joint(
        system,
        &blind_coupling,
        options.eval_episodes,
        eval_seed,
        |lane, obs| independent_policies[lane].greedy_action(obs),
    )?;

    Ok(CoordinationOutcome {
        num_hubs,
        horizon_slots: horizon,
        feeder_cap_kw: options.feeder_cap_kw,
        train_episodes: options.episodes,
        eval_episodes: options.eval_episodes,
        coordinated_obs_dim: policy.state_dim(),
        independent_obs_dim: independent_policies
            .first()
            .map(ActorCritic::state_dim)
            .unwrap_or(0),
        coordination_gap: coordinated.mean_daily_reward - independent.mean_daily_reward,
        coordinated,
        independent,
        policy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemConfig;
    use ect_env::coupling::MUTUAL_OBS_DIM;

    fn tiny_system() -> EctHubSystem {
        EctHubSystem::new(SystemConfig::tiny()).unwrap()
    }

    fn tiny_options() -> CoordinationOptions {
        CoordinationOptions {
            episodes: 2,
            eval_episodes: 1,
            ..CoordinationOptions::default()
        }
    }

    #[test]
    fn options_validation_rejects_bad_knobs() {
        let mut o = CoordinationOptions {
            episodes: 0,
            ..CoordinationOptions::default()
        };
        assert!(o.validate().is_err(), "zero training episodes");
        o.episodes = 2;
        o.eval_episodes = 0;
        assert!(o.validate().is_err(), "zero evaluation episodes");
        o.eval_episodes = 1;
        o.feeder_cap_kw = 0.0;
        assert!(o.validate().is_err(), "zero feeder cap");
        o.feeder_cap_kw = f64::NAN;
        assert!(o.validate().is_err(), "NaN feeder cap");
        o.feeder_cap_kw = 60.0;
        o.curtailment_price = -0.1;
        assert!(o.validate().is_err(), "negative curtailment price");
        o.curtailment_price = 0.6;
        o.demand_scale_high = 0.0;
        assert!(o.validate().is_err(), "zero demand scale");
        o.demand_scale_high = 1.8;
        o.validate().unwrap();
    }

    #[test]
    fn road_graph_topology_is_deterministic_and_valid() {
        let source = TopologySource::RoadGraph(RoadGraphTopology { seed: 7, k: 2 });
        let a = source.build(6).unwrap();
        let b = source.build(6).unwrap();
        assert_eq!(a.num_hubs(), 6);
        a.validate().unwrap();
        for hub in 0..6 {
            assert_eq!(a.neighbours(hub), b.neighbours(hub), "hub {hub} adjacency");
            assert!(!a.neighbours(hub).is_empty(), "k ≥ 1 keeps hub {hub} wired");
        }
        // A different region seed is allowed to (and here does) rewire hubs.
        let other = TopologySource::RoadGraph(RoadGraphTopology { seed: 8, k: 2 })
            .build(6)
            .unwrap();
        assert!(
            (0..6).any(|hub| a.neighbours(hub) != other.neighbours(hub)),
            "the topology must come from the region, not from the hub count"
        );
    }

    #[test]
    fn road_graph_degenerates_to_the_ring_on_two_hubs() {
        // The smoke-scale study runs 2 hubs; geography cannot change that
        // adjacency (a single mutual edge), so swapping the source in the
        // bench preset leaves the small pins untouched.
        let road = TopologySource::RoadGraph(RoadGraphTopology { seed: 3, k: 2 })
            .build(2)
            .unwrap();
        let ring = HubTopology::ring(2).unwrap();
        assert_eq!(road.neighbours(0), ring.neighbours(0));
        assert_eq!(road.neighbours(1), ring.neighbours(1));
        assert_eq!(road.edge_count(), ring.edge_count());
    }

    #[test]
    fn road_graph_options_validate_and_round_trip() {
        let options = CoordinationOptions {
            topology: TopologySource::RoadGraph(RoadGraphTopology { seed: 11, k: 0 }),
            ..tiny_options()
        };
        assert!(options.validate().is_err(), "k = 0 disconnects the fleet");

        let options = CoordinationOptions {
            topology: TopologySource::RoadGraph(RoadGraphTopology { seed: 11, k: 2 }),
            ..tiny_options()
        };
        options.validate().unwrap();
        let json = serde_json::to_string(&options).unwrap();
        let back: CoordinationOptions = serde_json::from_str(&json).unwrap();
        assert_eq!(back, options, "artifact keys hash the topology source");
        let coupling = options.coupling(4, true).unwrap();
        assert_eq!(coupling.topology.num_hubs(), 4);
        coupling.topology.validate().unwrap();
    }

    #[test]
    fn coupling_builder_alternates_demand_scales() {
        let options = CoordinationOptions::default();
        let coupling = options.coupling(4, true).unwrap();
        let spill = coupling.spillover.expect("spillover configured");
        assert_eq!(
            spill.ev_demand_scale,
            vec![
                options.demand_scale_high,
                options.demand_scale_low,
                options.demand_scale_high,
                options.demand_scale_low,
            ]
        );
        assert!(coupling.mutual_obs);
        assert_eq!(coupling.topology.num_hubs(), 4);
        assert!(!options.coupling(4, false).unwrap().mutual_obs);
    }

    #[test]
    fn coordination_study_produces_consistent_scorecards() {
        let system = tiny_system();
        let options = tiny_options();
        let outcome = run_coordination(&system, &options).unwrap();

        assert_eq!(outcome.num_hubs, 2);
        assert_eq!(outcome.train_episodes, options.episodes);
        assert_eq!(
            outcome.coordinated_obs_dim,
            outcome.independent_obs_dim + MUTUAL_OBS_DIM,
            "the coordinated policy sees the mutual block"
        );
        assert_eq!(outcome.policy.state_dim(), outcome.coordinated_obs_dim);
        for arm in [&outcome.coordinated, &outcome.independent] {
            assert!(arm.mean_daily_reward.is_finite());
            assert!(arm.curtailed_kwh >= 0.0);
            assert!(arm.grid_import_kwh > 0.0, "the fleet imported something");
            assert!((0.0..=1.0).contains(&arm.curtailment_share));
        }
        assert!(
            outcome.independent.curtailed_kwh > 0.0,
            "the cap must bind on the coupling-blind arm"
        );
        assert_eq!(
            outcome.coordination_gap,
            outcome.coordinated.mean_daily_reward - outcome.independent.mean_daily_reward
        );

        // Serialises for results/coordination.json and the disk cache.
        let json = serde_json::to_string(&outcome).unwrap();
        let back: CoordinationOutcome = serde_json::from_str(&json).unwrap();
        assert_eq!(
            back.coordination_gap.to_bits(),
            outcome.coordination_gap.to_bits()
        );

        // Determinism: the same system + options reproduce the same gap.
        let again = run_coordination(&system, &options).unwrap();
        assert_eq!(
            again.coordination_gap.to_bits(),
            outcome.coordination_gap.to_bits()
        );
    }
}
