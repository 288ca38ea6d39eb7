//! Fleet helpers: building per-hub episodes from a generated world.
//!
//! The paper evaluates 12 ECT-Hubs; this module slices a
//! [`WorldDataset`](ect_data::dataset::WorldDataset#) into per-hub
//! [`EpisodeInputs`], drawing the ground-truth charging strata for the
//! episode window and applying a discount schedule from a pricing engine.

use crate::env::{EpisodeInputs, HubEnv, ObsAugmentation};
use crate::hub::HubConfig;
use crate::tariff::DiscountSchedule;
use crate::vec_env::{FleetEnv, HubSeries};
use ect_data::charging::Stratum;
use ect_data::dataset::{WorldConfig, WorldDataset};
use ect_data::scenario::ScenarioSpec;
use ect_data::traffic::TrafficSample;
use ect_data::weather::WeatherSample;
use ect_types::ids::{HubId, StationId};
use ect_types::rng::EctRng;
use ect_types::time::SlotIndex;
use ect_types::units::DollarsPerKwh;
use std::sync::Arc;

/// Draws the ground-truth stratum series for one station over a slot range.
///
/// # Panics
///
/// Panics if the station is outside the world's station set.
pub fn draw_strata(
    world: &WorldDataset,
    station: StationId,
    start_slot: usize,
    len: usize,
    rng: &mut EctRng,
) -> Vec<Stratum> {
    assert!(
        station.as_u32() < world.charging.num_stations(),
        "station {station} outside world"
    );
    (0..len)
        .map(|k| {
            world
                .charging
                .sample_stratum(station, SlotIndex::new(start_slot + k), rng)
        })
        .collect()
}

/// Shared validation for one hub's episode request: hub in range, window
/// inside the world horizon, discount schedule the right length. Used by
/// both the single-hub [`episode_for_hub`] and the fleet builders so the
/// two cannot drift.
fn validate_episode_request(
    world: &WorldDataset,
    hub: HubId,
    start_slot: usize,
    len: usize,
    discounts_len: usize,
) -> ect_types::Result<()> {
    if hub.index() >= world.hubs.len() {
        return Err(ect_types::EctError::InvalidConfig(format!(
            "hub {hub} outside world of {} hubs",
            world.hubs.len()
        )));
    }
    if start_slot + len > world.horizon() {
        return Err(ect_types::EctError::InsufficientData(format!(
            "episode [{start_slot}, {}) exceeds world horizon {}",
            start_slot + len,
            world.horizon()
        )));
    }
    if discounts_len != len {
        return Err(ect_types::EctError::ShapeMismatch {
            context: "fleet discount schedule",
            expected: len,
            actual: discounts_len,
        });
    }
    Ok(())
}

impl EpisodeInputs {
    /// Builds episode inputs for one hub of a generated world — the
    /// constructor-style face of [`episode_for_hub`].
    ///
    /// # Errors
    ///
    /// Propagates [`episode_for_hub`] failures.
    pub fn from_world(
        world: &WorldDataset,
        hub: HubId,
        start_slot: usize,
        len: usize,
        discounts: DiscountSchedule,
        rng: &mut EctRng,
    ) -> ect_types::Result<Self> {
        episode_for_hub(world, hub, start_slot, len, discounts, rng)
    }

    /// Generates a world under the scenario spec and builds episode inputs
    /// for one of its hubs. The heavyweight path — when several episodes
    /// share one scenario, generate the world once and use
    /// [`EpisodeInputs::from_world`].
    ///
    /// # Errors
    ///
    /// Propagates world-generation and slicing failures.
    pub fn from_scenario(
        config: &WorldConfig,
        spec: &ScenarioSpec,
        hub: HubId,
        start_slot: usize,
        len: usize,
        discounts: DiscountSchedule,
        rng: &mut EctRng,
    ) -> ect_types::Result<Self> {
        let world = WorldDataset::generate_scenario(config.clone(), spec)?;
        Self::from_world(&world, hub, start_slot, len, discounts, rng)
    }
}

/// Builds episode inputs for one hub over `[start_slot, start_slot + len)`.
///
/// # Errors
///
/// Returns [`ect_types::EctError::InsufficientData`] if the window runs past
/// the world horizon, or shape errors if the discount schedule mismatches.
pub fn episode_for_hub(
    world: &WorldDataset,
    hub: HubId,
    start_slot: usize,
    len: usize,
    discounts: DiscountSchedule,
    rng: &mut EctRng,
) -> ect_types::Result<EpisodeInputs> {
    validate_episode_request(world, hub, start_slot, len, discounts.len())?;
    let traces = &world.hubs[hub.index()];
    let strata = draw_strata(world, StationId::new(hub.as_u32()), start_slot, len, rng);
    let inputs = EpisodeInputs {
        rtp: world.rtp[start_slot..start_slot + len].to_vec(),
        weather: traces.weather[start_slot..start_slot + len].to_vec(),
        traffic: traces.traffic[start_slot..start_slot + len].to_vec(),
        discounts,
        strata,
    };
    inputs.validate()?;
    Ok(inputs)
}

/// Builds a ready [`HubEnv`] for one hub of the world, using the hub preset
/// matching its siting.
///
/// # Errors
///
/// Propagates [`episode_for_hub`] and [`HubEnv::new`] failures.
pub fn env_for_hub(
    world: &WorldDataset,
    hub: HubId,
    start_slot: usize,
    len: usize,
    discounts: DiscountSchedule,
    window: usize,
    rng: &mut EctRng,
) -> ect_types::Result<HubEnv> {
    let inputs = episode_for_hub(world, hub, start_slot, len, discounts, rng)?;
    let config = HubConfig::for_siting(world.hubs[hub.index()].siting);
    let mut series = HubSeries::from_inputs(inputs);
    series.outages = outage_mask(world, start_slot, len).into();
    HubEnv::from_lane(config, series, window)
}

/// The per-slot scripted-outage mask of a world's scenario over one episode
/// window — how `SlotWindow` outage scripts reach the stepping reward path
/// (grid gone, unserved load penalised at the hub's value of lost load).
pub fn outage_mask(world: &WorldDataset, start_slot: usize, len: usize) -> Vec<bool> {
    let mut mask = vec![false; len];
    for window in &world.scenario.outages {
        for t in window.start..window.start + window.len {
            if t >= start_slot && t < start_slot + len {
                mask[t - start_slot] = true;
            }
        }
    }
    mask
}

/// One hub's weather slice and per-slot stratum probabilities over an
/// episode window.
type HubSlices = (Arc<[WeatherSample]>, Vec<[f64; 3]>);

/// What the lanes of one world share within one fleet build: the RTP slice
/// and outage mask of the episode window, plus each hub's weather slice and
/// stratum probabilities, sliced and evaluated on the first lane that plays
/// the hub. Lanes are `Arc` clones of these, never copies.
struct WorldSlices<'w> {
    world: &'w WorldDataset,
    start_slot: usize,
    len: usize,
    rtp: Arc<[DollarsPerKwh]>,
    outages: Arc<[bool]>,
    hubs: Vec<Option<HubSlices>>,
}

impl<'w> WorldSlices<'w> {
    fn new(world: &'w WorldDataset, start_slot: usize, len: usize) -> ect_types::Result<Self> {
        let Some(rtp) = world.rtp.get(start_slot..start_slot + len) else {
            return Err(ect_types::EctError::InsufficientData(format!(
                "episode [{start_slot}, {}) exceeds world horizon {}",
                start_slot + len,
                world.horizon()
            )));
        };
        Ok(Self {
            world,
            start_slot,
            len,
            rtp: rtp.into(),
            outages: outage_mask(world, start_slot, len).into(),
            hubs: vec![None; world.hubs.len()],
        })
    }

    /// Builds one fleet lane: same validation and strata draws as
    /// [`episode_for_hub`], assembled straight into `Arc` series. The
    /// traffic series is `traffic` when given (a microsim demand source),
    /// otherwise the world's own. The single lane constructor behind every
    /// fleet builder — they cannot drift from each other or from the
    /// single-hub [`env_for_hub`].
    fn lane(
        &mut self,
        hub: HubId,
        schedule: &DiscountSchedule,
        traffic: Option<&Arc<[TrafficSample]>>,
        rng: &mut EctRng,
    ) -> ect_types::Result<(HubConfig, HubSeries)> {
        let (world, start, len) = (self.world, self.start_slot, self.len);
        validate_episode_request(world, hub, start, len, schedule.len())?;
        let traces = &world.hubs[hub.index()];
        let (weather, probs) = self.hubs[hub.index()].get_or_insert_with(|| {
            let station = StationId::new(hub.as_u32());
            assert!(
                station.as_u32() < world.charging.num_stations(),
                "station {station} outside world"
            );
            let probs = (start..start + len)
                .map(|t| world.charging.stratum_probs(station, SlotIndex::new(t)));
            (traces.weather[start..start + len].into(), probs.collect())
        });
        let series = HubSeries {
            rtp: Arc::clone(&self.rtp),
            weather: Arc::clone(weather),
            traffic: traffic.map_or_else(|| traces.traffic[start..start + len].into(), Arc::clone),
            discounts: Arc::new(schedule.clone()),
            // The draws `ChargingWorld::sample_stratum` makes, on
            // probabilities evaluated once per hub.
            strata: probs
                .iter()
                .map(|p| Stratum::ALL[rng.categorical(p)])
                .collect(),
            outages: Arc::clone(&self.outages),
        };
        Ok((HubConfig::for_siting(traces.siting), series))
    }
}

/// One lane per hub of `world`, all sharing the world's [`WorldSlices`];
/// lane `i` carries `traffic[i]` when given.
fn hub_lanes(
    world: &WorldDataset,
    hubs: &[HubId],
    start_slot: usize,
    len: usize,
    discounts: &[DiscountSchedule],
    traffic: Option<&[Arc<[TrafficSample]>]>,
    rngs: &mut [EctRng],
) -> ect_types::Result<Vec<(HubConfig, HubSeries)>> {
    let lanes: Vec<(&WorldDataset, HubId)> = hubs.iter().map(|&hub| (world, hub)).collect();
    let contexts = ("fleet discount schedules", "fleet strata rngs");
    world_lanes(&lanes, start_slot, len, discounts, traffic, rngs, contexts)
}

/// One lane per `(world, hub)` pair, lane `i` carrying `traffic[i]` when
/// given (an alternative demand source such as the UE microsimulation,
/// which replaces exactly the series the world's aggregate
/// [`TrafficGenerator`](ect_data::traffic) supplies and nothing else).
/// Lanes of one world (pointer identity: callers pass the same reference
/// for lanes of the same world) share its [`WorldSlices`]. Rejects
/// per-lane `discounts`/`rngs` whose counts differ from the lane count
/// (`contexts` names the two in the error) and `traffic` that is not one
/// `len`-slot series per lane.
fn world_lanes(
    lanes: &[(&WorldDataset, HubId)],
    start_slot: usize,
    len: usize,
    discounts: &[DiscountSchedule],
    traffic: Option<&[Arc<[TrafficSample]>]>,
    rngs: &mut [EctRng],
    contexts: (&'static str, &'static str),
) -> ect_types::Result<Vec<(HubConfig, HubSeries)>> {
    let n = lanes.len();
    let traffic_len = traffic.and_then(|t| t.iter().map(|s| s.len()).find(|&l| l != len));
    let shapes = [
        (contexts.0, n, discounts.len()),
        (contexts.1, n, rngs.len()),
        ("fleet traffic overrides", n, traffic.map_or(n, <[_]>::len)),
        (
            "fleet traffic override length",
            len,
            traffic_len.unwrap_or(len),
        ),
    ];
    if let Some(&(context, expected, actual)) = shapes.iter().find(|(_, e, a)| e != a) {
        return Err(ect_types::EctError::ShapeMismatch {
            context,
            expected,
            actual,
        });
    }
    let mut worlds: Vec<WorldSlices<'_>> = Vec::new();
    let mut built = Vec::with_capacity(n);
    for (i, ((&(world, hub), schedule), rng)) in
        lanes.iter().zip(discounts).zip(rngs.iter_mut()).enumerate()
    {
        let k = match worlds.iter().position(|w| std::ptr::eq(w.world, world)) {
            Some(k) => k,
            None => {
                worlds.push(WorldSlices::new(world, start_slot, len)?);
                worlds.len() - 1
            }
        };
        built.push(worlds[k].lane(hub, schedule, traffic.map(|t| &t[i]), rng)?);
    }
    Ok(built)
}

/// Builds a batched [`FleetEnv`] over several hubs of the world, one lane
/// per hub, with the regional RTP series stored **once** and `Arc`-shared
/// across all lanes.
///
/// Lane `i` draws its strata from `rngs[i]` with exactly the calls
/// [`env_for_hub`] would make for that hub — batched and single-hub
/// construction therefore see identical episodes under paired seeds.
///
/// # Errors
///
/// Propagates per-hub slicing failures, and returns
/// [`ect_types::EctError::ShapeMismatch`] if `discounts`/`rngs` lengths
/// differ from `hubs`.
pub fn fleet_env_for_hubs(
    world: &WorldDataset,
    hubs: &[HubId],
    start_slot: usize,
    len: usize,
    discounts: &[DiscountSchedule],
    window: usize,
    rngs: &mut [EctRng],
) -> ect_types::Result<FleetEnv> {
    FleetEnv::new(
        hub_lanes(world, hubs, start_slot, len, discounts, None, rngs)?,
        window,
    )
}

/// [`fleet_env_for_hubs`] with the per-lane traffic series replaced by
/// `traffic[i]` — how microsim-synthesized demand plugs into a fleet in
/// place of the world's aggregate traffic traces, which are then never
/// sliced. Every other series (RTP, weather, discounts, strata, outages) is
/// built exactly as [`fleet_env_for_hubs`] builds it, from the same rng
/// draws; passing each lane's own `world` traffic reproduces the plain
/// builder bit for bit.
///
/// # Errors
///
/// Propagates [`fleet_env_for_hubs`]-style failures, plus
/// [`ect_types::EctError::ShapeMismatch`] when `traffic` does not supply one
/// `len`-slot series per hub.
#[allow(clippy::too_many_arguments)]
pub fn fleet_env_for_hubs_with_traffic(
    world: &WorldDataset,
    hubs: &[HubId],
    start_slot: usize,
    len: usize,
    discounts: &[DiscountSchedule],
    window: usize,
    traffic: &[Arc<[TrafficSample]>],
    rngs: &mut [EctRng],
) -> ect_types::Result<FleetEnv> {
    FleetEnv::new(
        hub_lanes(world, hubs, start_slot, len, discounts, Some(traffic), rngs)?,
        window,
    )
}

/// Builds a batched [`FleetEnv`] whose lanes run **heterogeneous scenarios
/// side by side**: lane `i` lives in the world `lanes[i].0` generates (same
/// `WorldConfig`, different [`ScenarioSpec`]) and plays hub `lanes[i].1`.
///
/// Worlds are generated once per distinct spec and shared across the lanes
/// that request it (the regional RTP series of same-scenario lanes stays one
/// `Arc` allocation), so a method × scenario grid steps through one lockstep
/// engine instead of a scenario loop.
///
/// # Errors
///
/// Propagates world-generation and per-lane slicing failures, and returns
/// [`ect_types::EctError::ShapeMismatch`] if `discounts`/`rngs` lengths
/// differ from `lanes`.
pub fn fleet_env_for_scenarios(
    config: &WorldConfig,
    lanes: &[(ScenarioSpec, HubId)],
    start_slot: usize,
    len: usize,
    discounts: &[DiscountSchedule],
    window: usize,
    rngs: &mut [EctRng],
) -> ect_types::Result<FleetEnv> {
    // One world per distinct spec, shared by the lanes that request it.
    let mut worlds: Vec<(&ScenarioSpec, WorldDataset)> = Vec::new();
    for (spec, _) in lanes {
        if !worlds.iter().any(|(s, _)| *s == spec) {
            worlds.push((spec, WorldDataset::generate_scenario(config.clone(), spec)?));
        }
    }
    let lanes: Vec<(&WorldDataset, HubId)> = lanes
        .iter()
        .map(|(spec, hub)| {
            let generated = worlds.iter().find(|(s, _)| *s == spec);
            (
                &generated.expect("every lane spec was generated above").1,
                *hub,
            )
        })
        .collect();
    let contexts = (
        "scenario fleet discount schedules",
        "scenario fleet strata rngs",
    );
    let built = world_lanes(&lanes, start_slot, len, discounts, None, rngs, contexts)?;
    FleetEnv::new(built, window)
}

/// [`fleet_env_for_scenarios`] plus an [`ObsAugmentation`]: when scenario
/// features are enabled, lane `i`'s observations carry the fixed-width
/// conditioning block of `lanes[i].0` — how a single generalist policy is
/// told which world each lane lives in. With [`ObsAugmentation::NONE`] this
/// is exactly `fleet_env_for_scenarios` (same layout, bit for bit).
///
/// # Errors
///
/// Propagates [`fleet_env_for_scenarios`] failures.
#[allow(clippy::too_many_arguments)]
pub fn fleet_env_for_scenarios_augmented(
    config: &WorldConfig,
    lanes: &[(ScenarioSpec, HubId)],
    start_slot: usize,
    len: usize,
    discounts: &[DiscountSchedule],
    window: usize,
    augment: &ObsAugmentation,
    rngs: &mut [EctRng],
) -> ect_types::Result<FleetEnv> {
    let fleet = fleet_env_for_scenarios(config, lanes, start_slot, len, discounts, window, rngs)?;
    if augment.width() == 0 {
        return Ok(fleet);
    }
    let features: Vec<Vec<f64>> = lanes
        .iter()
        .map(|(spec, _)| augment.features_for(spec, config.horizon_slots))
        .collect();
    fleet.with_lane_features(features)
}

/// Attaches each lane's conditioning block, derived from its world's own
/// [`ScenarioSpec`] (a no-op when `augment` is off).
fn with_world_features(
    fleet: FleetEnv,
    lanes: &[(&WorldDataset, HubId)],
    augment: &ObsAugmentation,
) -> ect_types::Result<FleetEnv> {
    if augment.width() == 0 {
        return Ok(fleet);
    }
    let features: Vec<Vec<f64>> = lanes
        .iter()
        .map(|(world, _)| augment.features_for(&world.scenario, world.horizon()))
        .collect();
    fleet.with_lane_features(features)
}

/// Builds a batched [`FleetEnv`] over **pre-generated** worlds: lane `i`
/// plays hub `lanes[i].1` of the world `lanes[i].0`. The cheap path for
/// mixture training, where the same few scenario worlds are re-sliced every
/// episode — generate each world once, then rebuild fleets per episode
/// without re-running the exogenous generators.
///
/// Lanes sharing one `&WorldDataset` share one RTP allocation, exactly as
/// [`fleet_env_for_scenarios`] dedupes per spec. When `augment` enables
/// scenario features, each lane's conditioning block is derived from its
/// world's own [`ScenarioSpec`].
///
/// # Errors
///
/// Propagates per-lane slicing failures, and returns
/// [`ect_types::EctError::ShapeMismatch`] if `discounts`/`rngs` lengths
/// differ from `lanes`.
pub fn fleet_env_for_worlds(
    lanes: &[(&WorldDataset, HubId)],
    start_slot: usize,
    len: usize,
    discounts: &[DiscountSchedule],
    window: usize,
    augment: &ObsAugmentation,
    rngs: &mut [EctRng],
) -> ect_types::Result<FleetEnv> {
    let contexts = ("world fleet discount schedules", "world fleet strata rngs");
    let built = world_lanes(lanes, start_slot, len, discounts, None, rngs, contexts)?;
    with_world_features(FleetEnv::new(built, window)?, lanes, augment)
}

/// [`fleet_env_for_worlds`] with the per-lane traffic series replaced by
/// `traffic[i]` — the pre-generated-worlds counterpart of
/// [`fleet_env_for_hubs_with_traffic`], for training loops that re-slice the
/// same worlds every episode under a microsim demand source.
///
/// # Errors
///
/// Propagates [`fleet_env_for_worlds`] failures, plus
/// [`ect_types::EctError::ShapeMismatch`] when `traffic` does not supply one
/// `len`-slot series per lane.
#[allow(clippy::too_many_arguments)]
pub fn fleet_env_for_worlds_with_traffic(
    lanes: &[(&WorldDataset, HubId)],
    start_slot: usize,
    len: usize,
    discounts: &[DiscountSchedule],
    window: usize,
    augment: &ObsAugmentation,
    traffic: &[Arc<[TrafficSample]>],
    rngs: &mut [EctRng],
) -> ect_types::Result<FleetEnv> {
    let contexts = ("world fleet discount schedules", "world fleet strata rngs");
    let built = world_lanes(
        lanes,
        start_slot,
        len,
        discounts,
        Some(traffic),
        rngs,
        contexts,
    )?;
    with_world_features(FleetEnv::new(built, window)?, lanes, augment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::battery::BpAction;
    use ect_data::dataset::WorldConfig;

    fn world() -> WorldDataset {
        WorldDataset::generate(WorldConfig {
            num_hubs: 3,
            horizon_slots: 24 * 10,
            ..WorldConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn episode_slices_the_right_window() {
        let w = world();
        let mut rng = EctRng::seed_from(1);
        let inputs = episode_for_hub(
            &w,
            HubId::new(1),
            24,
            48,
            DiscountSchedule::none(48),
            &mut rng,
        )
        .unwrap();
        assert_eq!(inputs.len(), 48);
        assert_eq!(inputs.rtp[0], w.rtp[24]);
        assert_eq!(inputs.weather[5], w.hubs[1].weather[29]);
    }

    #[test]
    fn out_of_range_requests_fail() {
        let w = world();
        let mut rng = EctRng::seed_from(2);
        assert!(episode_for_hub(
            &w,
            HubId::new(9),
            0,
            24,
            DiscountSchedule::none(24),
            &mut rng
        )
        .is_err());
        assert!(episode_for_hub(
            &w,
            HubId::new(0),
            24 * 9,
            48,
            DiscountSchedule::none(48),
            &mut rng
        )
        .is_err());
        assert!(episode_for_hub(
            &w,
            HubId::new(0),
            0,
            24,
            DiscountSchedule::none(12),
            &mut rng
        )
        .is_err());
    }

    #[test]
    fn env_runs_an_episode() {
        let w = world();
        let mut rng = EctRng::seed_from(3);
        let mut env = env_for_hub(
            &w,
            HubId::new(2),
            0,
            24,
            DiscountSchedule::none(24),
            6,
            &mut rng,
        )
        .unwrap();
        let (profit, trail) = env.rollout(0.5, |_, _| BpAction::Idle);
        assert_eq!(trail.len(), 24);
        assert!(profit.is_finite());
    }

    #[test]
    fn strata_draws_are_deterministic_per_seed() {
        let w = world();
        let mut r1 = EctRng::seed_from(4);
        let mut r2 = EctRng::seed_from(4);
        let a = draw_strata(&w, StationId::new(0), 0, 100, &mut r1);
        let b = draw_strata(&w, StationId::new(0), 0, 100, &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    fn fleet_builder_shares_the_rtp_series() {
        let w = world();
        let hubs: Vec<HubId> = (0..2).map(HubId::new).collect();
        let discounts = vec![DiscountSchedule::none(24); 2];
        let mut rngs = vec![EctRng::seed_from(1), EctRng::seed_from(2)];
        let fleet = fleet_env_for_hubs(&w, &hubs, 0, 24, &discounts, 4, &mut rngs).unwrap();
        assert_eq!(
            fleet.series()[0].rtp.as_ptr(),
            fleet.series()[1].rtp.as_ptr()
        );
    }

    #[test]
    fn fleet_builder_validates_shapes() {
        let w = world();
        let hubs: Vec<HubId> = (0..2).map(HubId::new).collect();
        let mut rngs = vec![EctRng::seed_from(1), EctRng::seed_from(2)];
        assert!(fleet_env_for_hubs(
            &w,
            &hubs,
            0,
            24,
            &[DiscountSchedule::none(24)],
            4,
            &mut rngs
        )
        .is_err());
        assert!(fleet_env_for_hubs(
            &w,
            &hubs,
            0,
            24,
            &[DiscountSchedule::none(24), DiscountSchedule::none(24)],
            4,
            &mut rngs[..1]
        )
        .is_err());
        assert!(fleet_env_for_hubs(
            &w,
            &hubs,
            24 * 9,
            48,
            &[DiscountSchedule::none(48), DiscountSchedule::none(48)],
            4,
            &mut rngs
        )
        .is_err());
    }

    #[test]
    fn from_world_matches_episode_for_hub() {
        let w = world();
        let mut r1 = EctRng::seed_from(11);
        let mut r2 = EctRng::seed_from(11);
        let a = EpisodeInputs::from_world(
            &w,
            HubId::new(1),
            0,
            48,
            DiscountSchedule::none(48),
            &mut r1,
        )
        .unwrap();
        let b = episode_for_hub(
            &w,
            HubId::new(1),
            0,
            48,
            DiscountSchedule::none(48),
            &mut r2,
        )
        .unwrap();
        assert_eq!(a.rtp, b.rtp);
        assert_eq!(a.weather, b.weather);
        assert_eq!(a.strata, b.strata);
    }

    #[test]
    fn from_scenario_reshapes_the_episode() {
        use ect_data::scenario::{scenario_by_name, ScenarioSpec};
        let config = ect_data::dataset::WorldConfig {
            num_hubs: 2,
            horizon_slots: 24 * 10,
            ..ect_data::dataset::WorldConfig::default()
        };
        let spec = scenario_by_name("winter-storm", config.horizon_slots).unwrap();
        let mut r1 = EctRng::seed_from(3);
        let mut r2 = EctRng::seed_from(3);
        let base = EpisodeInputs::from_scenario(
            &config,
            &ScenarioSpec::baseline(),
            HubId::new(1),
            0,
            config.horizon_slots,
            DiscountSchedule::none(config.horizon_slots),
            &mut r1,
        )
        .unwrap();
        let storm = EpisodeInputs::from_scenario(
            &config,
            &spec,
            HubId::new(1),
            0,
            config.horizon_slots,
            DiscountSchedule::none(config.horizon_slots),
            &mut r2,
        )
        .unwrap();
        let renewable = |inputs: &EpisodeInputs| -> f64 {
            inputs
                .weather
                .iter()
                .map(|w| w.solar_irradiance + w.wind_speed)
                .sum()
        };
        assert!(renewable(&storm) < renewable(&base));
    }

    #[test]
    fn scenario_fleet_runs_heterogeneous_lanes_side_by_side() {
        use ect_data::scenario::{scenario_by_name, ScenarioSpec};
        let config = ect_data::dataset::WorldConfig {
            num_hubs: 2,
            horizon_slots: 24 * 4,
            ..ect_data::dataset::WorldConfig::default()
        };
        let horizon = config.horizon_slots;
        let lanes = vec![
            (ScenarioSpec::baseline(), HubId::new(0)),
            (
                scenario_by_name("rtp-price-spike", horizon).unwrap(),
                HubId::new(0),
            ),
            (ScenarioSpec::baseline(), HubId::new(1)),
        ];
        let discounts = vec![DiscountSchedule::none(horizon); 3];
        let mut rngs: Vec<EctRng> = (0..3).map(|l| EctRng::seed_from(40 + l)).collect();
        let mut fleet =
            fleet_env_for_scenarios(&config, &lanes, 0, horizon, &discounts, 6, &mut rngs).unwrap();
        assert_eq!(fleet.num_lanes(), 3);
        // Same-scenario lanes share one RTP allocation; the spiked lane does
        // not, and its prices dominate the baseline's inside the surge.
        assert_eq!(
            fleet.series()[0].rtp.as_ptr(),
            fleet.series()[2].rtp.as_ptr()
        );
        assert_ne!(
            fleet.series()[0].rtp.as_ptr(),
            fleet.series()[1].rtp.as_ptr()
        );
        let spiked: f64 = fleet.series()[1].rtp.iter().map(|p| p.as_f64()).sum();
        let base: f64 = fleet.series()[0].rtp.iter().map(|p| p.as_f64()).sum();
        assert!(spiked > base);
        // And the fleet steps as one lockstep batch.
        let (totals, trails) = fleet.rollout(&[0.5; 3], |_, _| BpAction::Idle);
        assert_eq!(totals.len(), 3);
        assert!(trails.iter().all(|t| t.len() == horizon));
    }

    #[test]
    fn augmented_scenario_fleet_carries_spec_features() {
        use ect_data::scenario::{scenario_by_name, ScenarioSpec, SCENARIO_FEATURE_DIM};
        let config = ect_data::dataset::WorldConfig {
            num_hubs: 2,
            horizon_slots: 24 * 4,
            ..ect_data::dataset::WorldConfig::default()
        };
        let horizon = config.horizon_slots;
        let storm = scenario_by_name("winter-storm", horizon).unwrap();
        let lanes = vec![
            (ScenarioSpec::baseline(), HubId::new(0)),
            (storm.clone(), HubId::new(1)),
        ];
        let discounts = vec![DiscountSchedule::none(horizon); 2];

        // NONE keeps the plain layout, bit-identical to the plain builder.
        let mut rngs: Vec<EctRng> = (0..2).map(|l| EctRng::seed_from(60 + l)).collect();
        let plain =
            fleet_env_for_scenarios(&config, &lanes, 0, horizon, &discounts, 6, &mut rngs).unwrap();
        let mut rngs: Vec<EctRng> = (0..2).map(|l| EctRng::seed_from(60 + l)).collect();
        let none = fleet_env_for_scenarios_augmented(
            &config,
            &lanes,
            0,
            horizon,
            &discounts,
            6,
            &ObsAugmentation::NONE,
            &mut rngs,
        )
        .unwrap();
        assert_eq!(none.state_dim(), plain.state_dim());
        assert_eq!(none.observe_all(), plain.observe_all());

        // SCENARIO appends the per-spec block: zero for baseline, the storm
        // spec's feature vector on lane 1.
        let mut rngs: Vec<EctRng> = (0..2).map(|l| EctRng::seed_from(60 + l)).collect();
        let augmented = fleet_env_for_scenarios_augmented(
            &config,
            &lanes,
            0,
            horizon,
            &discounts,
            6,
            &ObsAugmentation::SCENARIO,
            &mut rngs,
        )
        .unwrap();
        assert_eq!(
            augmented.state_dim(),
            plain.state_dim() + SCENARIO_FEATURE_DIM
        );
        assert!(augmented.lane_features(0).iter().all(|&f| f == 0.0));
        assert_eq!(
            augmented.lane_features(1),
            storm.feature_vector(horizon).as_slice()
        );
    }

    #[test]
    fn world_fleet_matches_hub_fleet_on_shared_worlds() {
        // Slicing pre-generated worlds must reproduce fleet_env_for_hubs
        // bit for bit (same build_lane underneath) and share RTP per world.
        let w = world();
        let hubs: Vec<HubId> = (0..2).map(HubId::new).collect();
        let discounts = vec![DiscountSchedule::none(48); 2];
        let mut rngs: Vec<EctRng> = (0..2).map(|l| EctRng::seed_from(70 + l)).collect();
        let by_hubs = fleet_env_for_hubs(&w, &hubs, 24, 48, &discounts, 6, &mut rngs).unwrap();

        let lanes: Vec<(&WorldDataset, HubId)> = hubs.iter().map(|&h| (&w, h)).collect();
        let mut rngs: Vec<EctRng> = (0..2).map(|l| EctRng::seed_from(70 + l)).collect();
        let by_worlds = fleet_env_for_worlds(
            &lanes,
            24,
            48,
            &discounts,
            6,
            &ObsAugmentation::NONE,
            &mut rngs,
        )
        .unwrap();
        assert_eq!(by_worlds.observe_all(), by_hubs.observe_all());
        assert_eq!(
            by_worlds.series()[0].rtp.as_ptr(),
            by_worlds.series()[1].rtp.as_ptr(),
            "lanes of one world share one RTP allocation"
        );

        // Shape validation mirrors the other builders.
        let mut rngs = vec![EctRng::seed_from(1)];
        assert!(fleet_env_for_worlds(
            &lanes,
            0,
            24,
            &discounts,
            6,
            &ObsAugmentation::NONE,
            &mut rngs
        )
        .is_err());
        let mut rngs: Vec<EctRng> = (0..2).map(EctRng::seed_from).collect();
        assert!(fleet_env_for_worlds(
            &lanes,
            0,
            24,
            &[DiscountSchedule::none(24)],
            6,
            &ObsAugmentation::NONE,
            &mut rngs
        )
        .is_err());
    }

    #[test]
    fn scenario_fleet_validates_shapes() {
        use ect_data::scenario::ScenarioSpec;
        let config = ect_data::dataset::WorldConfig {
            num_hubs: 1,
            horizon_slots: 24,
            ..ect_data::dataset::WorldConfig::default()
        };
        let lanes = vec![(ScenarioSpec::baseline(), HubId::new(0))];
        let mut rngs = vec![EctRng::seed_from(1)];
        assert!(fleet_env_for_scenarios(&config, &lanes, 0, 24, &[], 6, &mut rngs).is_err());
        assert!(fleet_env_for_scenarios(
            &config,
            &lanes,
            0,
            24,
            &[DiscountSchedule::none(24)],
            6,
            &mut []
        )
        .is_err());
        assert!(fleet_env_for_scenarios(
            &config,
            &lanes,
            12,
            24,
            &[DiscountSchedule::none(24)],
            6,
            &mut rngs
        )
        .is_err());
    }

    #[test]
    fn outage_mask_mirrors_the_scripted_windows_and_reaches_the_reward() {
        use ect_data::scenario::scenario_by_name;
        let config = ect_data::dataset::WorldConfig {
            num_hubs: 2,
            horizon_slots: 24 * 7,
            ..ect_data::dataset::WorldConfig::default()
        };
        let horizon = config.horizon_slots;
        let blackout = scenario_by_name("rolling-blackout", horizon).unwrap();
        assert!(!blackout.outages.is_empty());
        let w = WorldDataset::generate_scenario(config, &blackout).unwrap();

        // The mask mirrors the scenario's scripted windows.
        let mask = outage_mask(&w, 0, horizon);
        let scripted: usize = blackout.outages.iter().map(|o| o.len).sum();
        assert_eq!(mask.iter().filter(|&&o| o).count(), scripted);
        assert!(outage_mask(&w, 0, 1).len() == 1);

        // Both builders carry it into the lane, and it penalises the reward.
        let mut rng = EctRng::seed_from(9);
        let mut env = env_for_hub(
            &w,
            HubId::new(0),
            0,
            horizon,
            DiscountSchedule::none(horizon),
            6,
            &mut rng,
        )
        .unwrap();
        assert_eq!(env.outages(), mask.as_slice());
        let mut rngs = vec![EctRng::seed_from(9)];
        let fleet = fleet_env_for_hubs(
            &w,
            &[HubId::new(0)],
            0,
            horizon,
            &[DiscountSchedule::none(horizon)],
            6,
            &mut rngs,
        )
        .unwrap();
        assert_eq!(&*fleet.series()[0].outages, mask.as_slice());
        let (_, trail) = env.rollout(0.5, |_, _| BpAction::Idle);
        let hit = trail
            .iter()
            .filter(|b| b.outage_penalty.as_f64() > 0.0)
            .inspect(|b| assert_eq!(b.p_grid.as_f64(), 0.0))
            .count();
        assert!(hit > 0, "scripted outages must reach the stepping reward");
    }

    #[test]
    fn traffic_override_with_own_series_is_bit_identical() {
        // Overriding with the world's own traffic must reproduce the plain
        // builder exactly — the override path changes nothing but traffic.
        let w = world();
        let hubs: Vec<HubId> = (0..3).map(HubId::new).collect();
        let discounts = vec![DiscountSchedule::none(48); 3];
        let own: Vec<Arc<[TrafficSample]>> = hubs
            .iter()
            .map(|&h| w.hubs[h.index()].traffic[24..72].into())
            .collect();

        let mut rngs: Vec<EctRng> = (0..3).map(|l| EctRng::seed_from(80 + l)).collect();
        let plain = fleet_env_for_hubs(&w, &hubs, 24, 48, &discounts, 6, &mut rngs).unwrap();
        let mut rngs: Vec<EctRng> = (0..3).map(|l| EctRng::seed_from(80 + l)).collect();
        let overridden =
            fleet_env_for_hubs_with_traffic(&w, &hubs, 24, 48, &discounts, 6, &own, &mut rngs)
                .unwrap();
        assert_eq!(overridden.observe_all(), plain.observe_all());
        for lane in 0..3 {
            assert_eq!(
                &*overridden.series()[lane].traffic,
                &*plain.series()[lane].traffic
            );
            assert_eq!(
                overridden.series()[lane].strata,
                plain.series()[lane].strata
            );
        }

        // The worlds variant goes through the same injection point.
        let lanes: Vec<(&WorldDataset, HubId)> = hubs.iter().map(|&h| (&w, h)).collect();
        let mut rngs: Vec<EctRng> = (0..3).map(|l| EctRng::seed_from(80 + l)).collect();
        let by_worlds = fleet_env_for_worlds_with_traffic(
            &lanes,
            24,
            48,
            &discounts,
            6,
            &ObsAugmentation::NONE,
            &own,
            &mut rngs,
        )
        .unwrap();
        assert_eq!(by_worlds.observe_all(), plain.observe_all());
    }

    #[test]
    fn traffic_override_actually_lands_in_lanes() {
        use ect_types::units::LoadRate;
        let w = world();
        let hubs = [HubId::new(0), HubId::new(1)];
        let discounts = vec![DiscountSchedule::none(24); 2];
        let synthetic: Vec<Arc<[TrafficSample]>> = (0..2)
            .map(|lane| {
                (0..24)
                    .map(|t| TrafficSample {
                        load_rate: LoadRate::saturating(0.01 * (lane * 24 + t) as f64),
                        volume_gb: (lane * 24 + t) as f64,
                    })
                    .collect::<Vec<_>>()
                    .into()
            })
            .collect();
        let mut rngs: Vec<EctRng> = (0..2).map(|l| EctRng::seed_from(90 + l)).collect();
        let fleet =
            fleet_env_for_hubs_with_traffic(&w, &hubs, 0, 24, &discounts, 4, &synthetic, &mut rngs)
                .unwrap();
        for (lane, expected) in synthetic.iter().enumerate() {
            assert_eq!(&*fleet.series()[lane].traffic, &**expected);
        }
    }

    #[test]
    fn traffic_override_validates_shapes() {
        let w = world();
        let hubs = [HubId::new(0), HubId::new(1)];
        let discounts = vec![DiscountSchedule::none(24); 2];
        let short: Arc<[TrafficSample]> = w.hubs[0].traffic[0..12].into();
        let full: Arc<[TrafficSample]> = w.hubs[0].traffic[0..24].into();

        // Wrong series count.
        let mut rngs: Vec<EctRng> = (0..2).map(EctRng::seed_from).collect();
        assert!(fleet_env_for_hubs_with_traffic(
            &w,
            &hubs,
            0,
            24,
            &discounts,
            4,
            std::slice::from_ref(&full),
            &mut rngs,
        )
        .is_err());
        // Wrong series length.
        let mut rngs: Vec<EctRng> = (0..2).map(EctRng::seed_from).collect();
        assert!(fleet_env_for_hubs_with_traffic(
            &w,
            &hubs,
            0,
            24,
            &discounts,
            4,
            &[Arc::clone(&full), short],
            &mut rngs,
        )
        .is_err());
    }

    #[test]
    fn episode_inputs_with_traffic_swaps_and_validates() {
        use ect_types::units::LoadRate;
        let w = world();
        let mut rng = EctRng::seed_from(31);
        let inputs = episode_for_hub(
            &w,
            HubId::new(0),
            0,
            24,
            DiscountSchedule::none(24),
            &mut rng,
        )
        .unwrap();
        let flat: Vec<TrafficSample> = (0..24)
            .map(|_| TrafficSample {
                load_rate: LoadRate::saturating(0.5),
                volume_gb: 1.0,
            })
            .collect();
        let swapped = inputs.clone().with_traffic(flat.clone()).unwrap();
        assert_eq!(swapped.traffic, flat);
        assert_eq!(swapped.rtp, inputs.rtp);
        assert_eq!(swapped.strata, inputs.strata);
        assert!(inputs.with_traffic(flat[..12].to_vec()).is_err());
    }

    #[test]
    fn siting_decides_env_config() {
        let w = world(); // 3 hubs, urban_fraction 0.5 → 2 urban (rounded), 1 rural
        let mut rng = EctRng::seed_from(5);
        let env0 = env_for_hub(
            &w,
            HubId::new(0),
            0,
            24,
            DiscountSchedule::none(24),
            4,
            &mut rng,
        )
        .unwrap();
        let env2 = env_for_hub(
            &w,
            HubId::new(2),
            0,
            24,
            DiscountSchedule::none(24),
            4,
            &mut rng,
        )
        .unwrap();
        assert!(env0.config().plant.wt.is_none());
        assert!(env2.config().plant.wt.is_some());
    }
}
