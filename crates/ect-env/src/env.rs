//! The ECT-Hub reinforcement-learning environment.
//!
//! Implements the paper's system model end to end: each [`HubEnv::step`]
//! applies one battery action to one hourly slot, computes the power balance
//! (Eq. 7), the costs (Eqs. 8–10) and the charging revenue (Eq. 11), and
//! returns the per-slot profit (Eq. 12) as the reward together with the next
//! state (Eq. 24). A `HubEnv` is a one-lane [`FleetEnv`]: the slot physics
//! run in the fleet's kernel (the private `soa` module), and the readable
//! one-hub reference of the same equations lives in the test-only `oracle`
//! module.
//!
//! The state is
//! `s_t = (RTP⃗, weather⃗, traffic⃗, SRTP⃗, SoC)` — sliding windows of the
//! exogenous series over the past `window` slots (padded at episode start)
//! plus the scalar state of charge, all normalised to unit-ish scales.

use crate::battery::{BatteryPoint, BatteryPointConfig, BpAction};
use crate::hub::HubConfig;
use crate::tariff::DiscountSchedule;
use crate::vec_env::{FleetEnv, HubSeries};
use ect_data::charging::Stratum;
use ect_data::traffic::TrafficSample;
use ect_data::weather::WeatherSample;
use ect_types::units::{DollarsPerKwh, KiloWatt, KiloWattHour, Money};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Divisor of the RTP observation window, $/kWh (≈ the high end of RTP).
pub const PRICE_SCALE: f64 = 0.15;
/// Divisor of the solar-irradiance observation window, W/m².
pub const IRRADIANCE_SCALE: f64 = 1000.0;
/// Divisor of the wind-speed observation window, m/s.
pub const WIND_SCALE: f64 = 25.0;

/// The readable reference of the slot physics: one hub, one slot, written
/// with the unit types exactly as the paper states the equations. The
/// production kernel (`crate::soa::SlotLanes`) must match it bit for bit;
/// the `vec_env` proptest checks that on generated fleets.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{IRRADIANCE_SCALE, PRICE_SCALE, WIND_SCALE};
    use crate::battery::{BatteryPoint, BpAction};
    use crate::env::SlotBreakdown;
    use crate::hub::HubConfig;
    use crate::power::grid_power;
    use crate::tariff::DiscountSchedule;
    use ect_data::charging::Stratum;
    use ect_data::traffic::TrafficSample;
    use ect_data::weather::WeatherSample;
    use ect_types::units::{DollarsPerKwh, KiloWatt, Money};

    /// Borrowed view of one slot's exogenous inputs.
    #[derive(Debug, Clone, Copy)]
    pub(crate) struct SlotInputs<'a> {
        /// Grid price `RTP(t)`.
        pub rtp: DollarsPerKwh,
        /// Weather at the slot.
        pub weather: &'a WeatherSample,
        /// Base-station load rate at the slot.
        pub traffic: &'a TrafficSample,
        /// Discount level `c(t)` decided by the pricing engine.
        pub discount_level: f64,
        /// Ground-truth charging stratum.
        pub stratum: Stratum,
        /// `true` while a scripted grid outage covers the slot: no grid import,
        /// no grid-side battery charging, unserved load penalised at the
        /// configured value of lost load.
        pub outage: bool,
    }

    /// Advances one slot of the hub dynamics: applies the battery action,
    /// balances power (Eq. 7), and accounts costs and revenue (Eqs. 8–12).
    ///
    /// During a scripted grid outage (`inputs.outage`) the grid is gone and the
    /// hub follows the ride-through doctrine of [`crate::blackout`]: the
    /// charging station is shed immediately (no EV service, no revenue), a
    /// `Charge` request degrades to `Idle` (grid-side charging has no source),
    /// grid import is zero, and whatever *base-station* demand the renewables
    /// and the battery cannot cover is unserved — penalised in the reward at
    /// the configured [`HubConfig::outage_voll`].
    pub(crate) fn compute_slot(
        config: &HubConfig,
        inputs: SlotInputs<'_>,
        battery: &mut BatteryPoint,
        action: BpAction,
        t: usize,
    ) -> SlotBreakdown {
        let action = if inputs.outage && action == BpAction::Charge {
            BpAction::Idle
        } else {
            action
        };
        let bp = battery.apply(action);

        let p_bs = config.base_station.power(inputs.traffic.load_rate);
        let discounted = inputs.discount_level > 0.0;
        // Load shedding: the charging station is disconnected for the outage
        // (same doctrine as the ride-through simulation in `crate::blackout`).
        let ev_charged = !inputs.outage && inputs.stratum.outcome(discounted);
        let p_cs = config.charging_station.power(ev_charged);
        let p_pv = config.plant.pv_power(inputs.weather);
        let p_wt = config.plant.wt_power(inputs.weather);
        let p_demand = grid_power(p_bs, p_cs, bp.grid_side_power, p_wt, p_pv);

        // Eq. 7 gives the grid draw; during an outage that draw is unavailable
        // and becomes unserved energy instead.
        let (p_grid, unserved_kwh) = if inputs.outage {
            (KiloWatt::ZERO, p_demand.for_one_slot().as_f64())
        } else {
            (p_demand, 0.0)
        };

        let rtp = inputs.rtp;
        let srtp = config.tariff.price_with_discount(inputs.discount_level);
        let revenue = p_cs.for_one_slot() * srtp;
        let grid_cost = p_grid.for_one_slot() * rtp;
        let outage_penalty = if inputs.outage {
            p_demand.for_one_slot() * config.outage_voll
        } else {
            Money::ZERO
        };
        let reward = revenue - grid_cost - bp.op_cost - outage_penalty;

        SlotBreakdown {
            slot: t,
            p_bs,
            p_cs,
            p_bp: bp.grid_side_power,
            p_wt,
            p_pv,
            p_grid,
            srtp,
            rtp,
            revenue,
            grid_cost,
            bp_cost: bp.op_cost,
            outage_penalty,
            unserved_kwh,
            reward,
            soc_kwh: bp.soc.as_f64(),
            effective_action: bp.effective_action,
            ev_charged,
            curtailed_kwh: 0.0,
            curtailment_penalty: Money::ZERO,
            spill_in: KiloWatt::ZERO,
            spill_out: KiloWatt::ZERO,
        }
    }

    /// Writes the Eq. 24 observation into `out`: five sliding windows (RTP,
    /// solar, wind, traffic, SRTP) over the past `window` slots plus the
    /// scalar SoC, all normalised, followed by the caller's `extra`
    /// conditioning block.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != 5 * window + 1 + extra.len()` or the series are
    /// empty.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn write_observation(
        out: &mut [f64],
        window: usize,
        t: usize,
        config: &HubConfig,
        rtp: &[DollarsPerKwh],
        weather: &[WeatherSample],
        traffic: &[TrafficSample],
        discounts: &DiscountSchedule,
        soc_fraction: f64,
        extra: &[f64],
    ) {
        assert_eq!(
            out.len(),
            5 * window + 1 + extra.len(),
            "observation buffer size mismatch"
        );
        let len = rtp.len();
        fn fill<F: Fn(usize) -> f64>(
            out: &mut [f64],
            cursor: &mut usize,
            window: usize,
            t: usize,
            len: usize,
            f: F,
        ) {
            // Values at slots (t-window+1 ..= t), clamped at episode start.
            for k in 0..window {
                let idx = (t + k).saturating_sub(window - 1).min(len - 1);
                out[*cursor] = f(idx);
                *cursor += 1;
            }
        }
        let mut cursor = 0usize;
        fill(out, &mut cursor, window, t, len, |i| {
            rtp[i].as_f64() / PRICE_SCALE
        });
        fill(out, &mut cursor, window, t, len, |i| {
            weather[i].solar_irradiance / IRRADIANCE_SCALE
        });
        fill(out, &mut cursor, window, t, len, |i| {
            weather[i].wind_speed / WIND_SCALE
        });
        fill(out, &mut cursor, window, t, len, |i| {
            traffic[i].load_rate.as_f64()
        });
        fill(out, &mut cursor, window, t, len, |i| {
            config
                .tariff
                .price_with_discount(discounts.level(i))
                .as_f64()
                / config.tariff.base_price.as_f64()
        });
        out[cursor] = soc_fraction;
        out[cursor + 1..].copy_from_slice(extra);
    }
}

/// Opt-in augmentation of the Eq. 24 observation with a scenario-feature
/// conditioning block, so one generalist policy can tell which world it is
/// acting in.
///
/// With `scenario_features` off (the default) the observation layout is the
/// historical `5 × window + 1` vector, bit for bit. With it on, every
/// observation gains the fixed-width
/// [`ScenarioSpec::feature_vector`](ect_data::scenario::ScenarioSpec::feature_vector)
/// block — identical width for every scenario, all-zero for the baseline —
/// appended after the SoC scalar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ObsAugmentation {
    /// Append the scenario-feature block to every observation.
    pub scenario_features: bool,
}

impl ObsAugmentation {
    /// The plain Eq. 24 observation (no extra block).
    pub const NONE: Self = Self {
        scenario_features: false,
    };

    /// Scenario-conditioned observations for generalist training.
    pub const SCENARIO: Self = Self {
        scenario_features: true,
    };

    /// Width of the appended block (0 when disabled).
    pub fn width(&self) -> usize {
        if self.scenario_features {
            ect_data::scenario::SCENARIO_FEATURE_DIM
        } else {
            0
        }
    }

    /// The conditioning block for one scenario world (empty when disabled).
    ///
    /// # Panics
    ///
    /// Panics if enabled and `horizon` is zero.
    pub fn features_for(
        &self,
        spec: &ect_data::scenario::ScenarioSpec,
        horizon: usize,
    ) -> Vec<f64> {
        if self.scenario_features {
            spec.feature_vector(horizon).to_vec()
        } else {
            Vec::new()
        }
    }
}

/// Exogenous inputs for one episode, all series of equal length.
#[derive(Debug, Clone)]
pub struct EpisodeInputs {
    /// Real-time grid price per slot.
    pub rtp: Vec<DollarsPerKwh>,
    /// Weather per slot.
    pub weather: Vec<WeatherSample>,
    /// Base-station traffic per slot.
    pub traffic: Vec<TrafficSample>,
    /// Discount schedule decided by the pricing engine.
    pub discounts: DiscountSchedule,
    /// Ground-truth charging stratum per slot (drives `S_CS`).
    pub strata: Vec<Stratum>,
}

impl EpisodeInputs {
    /// Validates that all series cover the same non-empty horizon.
    ///
    /// # Errors
    ///
    /// Returns [`ect_types::EctError::ShapeMismatch`] or
    /// [`ect_types::EctError::InsufficientData`] on inconsistency.
    pub fn validate(&self) -> ect_types::Result<()> {
        let n = self.rtp.len();
        if n == 0 {
            return Err(ect_types::EctError::InsufficientData(
                "episode needs at least one slot".into(),
            ));
        }
        for (what, len) in [
            ("weather", self.weather.len()),
            ("traffic", self.traffic.len()),
            ("discounts", self.discounts.len()),
            ("strata", self.strata.len()),
        ] {
            if len != n {
                return Err(ect_types::EctError::ShapeMismatch {
                    context: match what {
                        "weather" => "episode weather series",
                        "traffic" => "episode traffic series",
                        "discounts" => "episode discount schedule",
                        _ => "episode strata series",
                    },
                    expected: n,
                    actual: len,
                });
            }
        }
        Ok(())
    }

    /// Episode length in slots.
    pub fn len(&self) -> usize {
        self.rtp.len()
    }

    /// `true` when the episode holds no slots.
    pub fn is_empty(&self) -> bool {
        self.rtp.is_empty()
    }

    /// Replaces the traffic series — how an alternative demand source
    /// (e.g. the UE microsimulation) plugs into an episode that was sliced
    /// from a world's aggregate traces. Everything else (prices, weather,
    /// strata, discounts) is untouched.
    ///
    /// # Errors
    ///
    /// Returns [`ect_types::EctError::ShapeMismatch`] when the new series
    /// does not cover the episode horizon.
    pub fn with_traffic(mut self, traffic: Vec<TrafficSample>) -> ect_types::Result<Self> {
        if traffic.len() != self.len() {
            return Err(ect_types::EctError::ShapeMismatch {
                context: "episode traffic override",
                expected: self.len(),
                actual: traffic.len(),
            });
        }
        self.traffic = traffic;
        Ok(self)
    }
}

/// Everything that happened in one slot — the audit trail for experiments.
///
/// The default is the all-zero slot: every power, price and money field at
/// zero, effective action [`BpAction::Idle`], no EV charged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SlotBreakdown {
    /// Slot index within the episode.
    pub slot: usize,
    /// Base-station draw `P_BS(t)`.
    pub p_bs: KiloWatt,
    /// Charging-station draw `P_CS(t)`.
    pub p_cs: KiloWatt,
    /// Signed battery power `P_BP(t)`.
    pub p_bp: KiloWatt,
    /// Wind output `P_WT(t)`.
    pub p_wt: KiloWatt,
    /// Solar output `P_PV(t)`.
    pub p_pv: KiloWatt,
    /// Grid import `P_grid(t)` (Eq. 7).
    pub p_grid: KiloWatt,
    /// Selling price `SRTP(t)` after discount.
    pub srtp: DollarsPerKwh,
    /// Grid price `RTP(t)`.
    pub rtp: DollarsPerKwh,
    /// Charging revenue this slot (Eq. 11 summand).
    pub revenue: Money,
    /// Grid cost this slot (Eq. 9).
    pub grid_cost: Money,
    /// Battery operation cost this slot (Eq. 8).
    pub bp_cost: Money,
    /// Value-of-lost-load penalty charged for unserved demand during a
    /// scripted grid outage (zero outside outage slots).
    pub outage_penalty: Money,
    /// Hub demand the renewables and battery could not cover while the grid
    /// was out, kWh (zero outside outage slots).
    pub unserved_kwh: f64,
    /// Profit this slot (Eq. 12 summand, minus the outage penalty when one
    /// applies) — the RL reward.
    pub reward: Money,
    /// State of charge after the slot, kWh.
    pub soc_kwh: f64,
    /// The battery action that effectively happened after clamping.
    pub effective_action: BpAction,
    /// Whether an EV charged this slot (`S_CS`).
    pub ev_charged: bool,
    /// Grid import the shared feeder refused this slot, kWh (zero outside
    /// coupled fleets — see [`crate::coupling`]).
    #[serde(default)]
    pub curtailed_kwh: f64,
    /// Penalty charged for the feeder curtailment (zero when uncoupled).
    #[serde(default)]
    pub curtailment_penalty: Money,
    /// EV charging demand received from saturated neighbour hubs (zero when
    /// uncoupled).
    #[serde(default)]
    pub spill_in: KiloWatt,
    /// Own EV demand absorbed by neighbour hubs (zero when uncoupled).
    #[serde(default)]
    pub spill_out: KiloWatt,
}

/// Result of one environment step.
#[derive(Debug, Clone)]
pub struct StepResult {
    /// Next observation (valid even on the terminal step).
    pub state: Vec<f64>,
    /// Per-slot profit, the RL reward.
    pub reward: f64,
    /// `true` when the episode has ended.
    pub done: bool,
    /// Full accounting for the slot.
    pub breakdown: SlotBreakdown,
}

/// The single-hub environment: a one-lane [`FleetEnv`].
///
/// It owns no state of its own — battery, series and slot cursor all live
/// in the fleet lane — so a `HubEnv` episode runs the same slot kernel as
/// every batched fleet and its [`StepResult::breakdown`] is the fleet's
/// on-demand audit trail ([`FleetEnv::breakdown`]).
///
///
/// # Example
///
/// ```
/// use ect_env::env::{EpisodeInputs, HubEnv};
/// use ect_env::hub::HubConfig;
/// use ect_env::battery::BpAction;
/// use ect_env::tariff::DiscountSchedule;
/// use ect_data::charging::Stratum;
/// use ect_data::weather::WeatherSample;
/// use ect_data::traffic::TrafficSample;
/// use ect_types::units::{DollarsPerKwh, LoadRate};
///
/// let slots = 24;
/// let inputs = EpisodeInputs {
///     rtp: vec![DollarsPerKwh::new(0.08); slots],
///     weather: vec![WeatherSample { solar_irradiance: 0.0, wind_speed: 5.0, cloud_cover: 0.2 }; slots],
///     traffic: vec![TrafficSample { load_rate: LoadRate::new(0.5)?, volume_gb: 50.0 }; slots],
///     discounts: DiscountSchedule::none(slots),
///     strata: vec![Stratum::AlwaysCharge; slots],
/// };
/// let mut env = HubEnv::new(HubConfig::urban(), inputs, 6)?;
/// let _s0 = env.reset(0.5);
/// let step = env.step(BpAction::Idle);
/// assert!(step.reward.is_finite());
/// # Ok::<(), ect_types::EctError>(())
/// ```
#[derive(Debug, Clone)]
pub struct HubEnv {
    /// The one lane. `pub(crate)` so [`FleetEnv::from_envs`] can lift it.
    pub(crate) fleet: FleetEnv,
}

impl HubEnv {
    /// Creates an environment over the given episode inputs.
    ///
    /// # Errors
    ///
    /// Returns configuration/shape errors from [`HubConfig::validate`] and
    /// [`EpisodeInputs::validate`], or `InvalidConfig` for a zero window.
    pub fn new(config: HubConfig, inputs: EpisodeInputs, window: usize) -> ect_types::Result<Self> {
        inputs.validate()?;
        Self::from_lane(config, HubSeries::from_inputs(inputs), window)
    }

    /// The one-lane fleet over `(config, series)`.
    pub(crate) fn from_lane(
        config: HubConfig,
        series: HubSeries,
        window: usize,
    ) -> ect_types::Result<Self> {
        let fleet = FleetEnv::new(vec![(config, series)], window)?;
        Ok(Self { fleet })
    }

    /// Rebuilds the environment over new series, keeping config, window
    /// and conditioning block; the episode restarts at slot 0 with the
    /// default SoC.
    fn with_series(&self, series: HubSeries) -> ect_types::Result<Self> {
        let fleet = Self::from_lane(self.config().clone(), series, self.window())?
            .fleet
            .with_lane_features(vec![self.augmentation().to_vec()])?;
        Ok(Self { fleet })
    }

    /// Builder: scripts a per-slot grid-outage mask over the episode —
    /// masked slots shed the charging station, cut grid import and penalise
    /// unserved load at [`HubConfig::outage_voll`]. An empty mask restores
    /// the always-on grid. The episode restarts at slot 0 with the default
    /// SoC.
    ///
    /// # Errors
    ///
    /// Returns [`ect_types::EctError::ShapeMismatch`] when the mask is
    /// neither empty nor exactly one flag per slot.
    pub fn with_outages(self, outages: Vec<bool>) -> ect_types::Result<Self> {
        let len = self.episode_len();
        if !outages.is_empty() && outages.len() != len {
            return Err(ect_types::EctError::ShapeMismatch {
                context: "episode outage mask",
                expected: len,
                actual: outages.len(),
            });
        }
        let mut series = self.series().clone();
        series.outages = if outages.is_empty() {
            vec![false; len].into()
        } else {
            outages.into()
        };
        self.with_series(series)
    }

    /// The scripted per-slot outage mask, one flag per slot (all `false`
    /// when the grid never fails).
    pub fn outages(&self) -> &[bool] {
        &self.series().outages
    }

    /// Builder: appends a fixed scenario-conditioning block to every
    /// observation (see [`ObsAugmentation`]). An empty block restores the
    /// plain Eq. 24 state.
    #[must_use]
    pub fn with_augmentation(self, features: Vec<f64>) -> Self {
        let fleet = self
            .fleet
            .with_lane_features(vec![features])
            .expect("one block for the one lane");
        Self { fleet }
    }

    /// The scenario-conditioning block appended to observations (empty for
    /// the plain Eq. 24 state).
    pub fn augmentation(&self) -> &[f64] {
        self.fleet.lane_features(0)
    }

    /// The one-lane fleet this environment steps (lane `0`), for code that
    /// reads environments through the [`FleetEnv`] interface.
    pub fn as_fleet(&self) -> &FleetEnv {
        &self.fleet
    }

    /// Dimension of the observation vector: `5 × window + 1` (RTP, solar,
    /// wind, traffic, SRTP windows plus SoC), plus the scenario-conditioning
    /// block when one is attached.
    pub fn state_dim(&self) -> usize {
        self.fleet.state_dim()
    }

    /// Episode length in slots.
    pub fn episode_len(&self) -> usize {
        self.fleet.horizon()
    }

    /// Current slot index.
    pub fn slot(&self) -> usize {
        self.fleet.slot()
    }

    /// The hub configuration.
    pub fn config(&self) -> &HubConfig {
        &self.fleet.configs()[0]
    }

    /// Current state of charge.
    pub fn soc(&self) -> KiloWattHour {
        self.fleet.lane_soc(0)
    }

    /// The episode's exogenous series (for inspection).
    pub fn series(&self) -> &HubSeries {
        &self.fleet.series()[0]
    }

    /// Swaps in a new discount schedule (e.g. from a different pricing
    /// engine) without regenerating the exogenous series. The episode
    /// restarts at slot 0 with the default SoC.
    ///
    /// # Errors
    ///
    /// Returns [`ect_types::EctError::ShapeMismatch`] if the length differs.
    pub fn set_discounts(&mut self, discounts: DiscountSchedule) -> ect_types::Result<()> {
        if discounts.len() != self.episode_len() {
            return Err(ect_types::EctError::ShapeMismatch {
                context: "discount schedule",
                expected: self.episode_len(),
                actual: discounts.len(),
            });
        }
        let mut series = self.series().clone();
        series.discounts = Arc::new(discounts);
        *self = self.with_series(series)?;
        Ok(())
    }

    /// Resets to slot 0 with the given initial SoC fraction; returns the
    /// initial observation. The paper randomises the SoC at episode start.
    pub fn reset(&mut self, initial_soc_fraction: f64) -> Vec<f64> {
        self.fleet.reset(&[initial_soc_fraction]);
        self.observe()
    }

    /// Writes the observation at the current slot (Eq. 24) into a
    /// caller-provided buffer.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.state_dim()`.
    pub fn observe_into(&self, out: &mut [f64]) {
        self.fleet.observe_into(0, out);
    }

    /// Builds the observation at the current slot (Eq. 24).
    pub fn observe(&self) -> Vec<f64> {
        self.fleet.observe(0)
    }

    /// Observation window length in slots.
    pub fn window(&self) -> usize {
        self.fleet.window()
    }

    /// Advances one slot under the given battery action.
    ///
    /// # Panics
    ///
    /// Panics if called after the episode finished (reset first).
    pub fn step(&mut self, action: BpAction) -> StepResult {
        let step = self.fleet.step_batch_soa(&[action]);
        let (reward, done) = (step.rewards[0], step.done);
        StepResult {
            state: self.observe(),
            reward,
            done,
            breakdown: self.fleet.breakdown(0),
        }
    }

    /// Runs a full episode under a fixed policy closure; returns total profit
    /// and the per-slot audit trail.
    pub fn rollout<P>(&mut self, initial_soc: f64, mut policy: P) -> (Money, Vec<SlotBreakdown>)
    where
        P: FnMut(&[f64], &Self) -> BpAction,
    {
        self.fleet.reset(&[initial_soc]);
        let mut state = vec![0.0; self.state_dim()];
        let mut breakdowns = Vec::with_capacity(self.episode_len());
        let mut total = Money::ZERO;
        loop {
            self.observe_into(&mut state);
            let done = self.fleet.step_batch_soa(&[policy(&state, self)]).done;
            let breakdown = self.fleet.breakdown(0);
            total += breakdown.reward;
            breakdowns.push(breakdown);
            if done {
                break;
            }
        }
        (total, breakdowns)
    }

    /// Verifies the Eq. 6 blackout guarantee at the current SoC: how long the
    /// base station survives on battery alone at worst-case load.
    pub fn blackout_endurance_hours(&self) -> f64 {
        let config = self.config();
        let mut battery = BatteryPoint::new(config.battery.clone(), 0.0);
        battery.set_soc_kwh(self.soc().as_f64());
        battery.blackout_endurance_hours(config.base_station.max_power())
    }
}

/// A trivially valid battery configuration helper for tests and examples:
/// scales the default battery so the reserve bound holds for `recovery_hours`.
pub fn battery_with_reserve(recovery_hours: usize) -> BatteryPointConfig {
    let mut cfg = BatteryPointConfig::default();
    let needed = 4.0 * recovery_hours as f64; // default BS max power is 4 kW
    let held = cfg.soc_min_fraction.as_f64() * cfg.capacity_kwh;
    if held < needed {
        cfg.capacity_kwh = needed / cfg.soc_min_fraction.as_f64();
    }
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use ect_types::units::LoadRate;
    use proptest::prelude::*;

    fn flat_inputs(slots: usize, stratum: Stratum) -> EpisodeInputs {
        EpisodeInputs {
            rtp: vec![DollarsPerKwh::new(0.08); slots],
            weather: vec![
                WeatherSample {
                    solar_irradiance: 300.0,
                    wind_speed: 6.0,
                    cloud_cover: 0.2,
                };
                slots
            ],
            traffic: vec![
                TrafficSample {
                    load_rate: LoadRate::new(0.5).unwrap(),
                    volume_gb: 40.0,
                };
                slots
            ],
            discounts: DiscountSchedule::none(slots),
            strata: vec![stratum; slots],
        }
    }

    fn env(slots: usize, stratum: Stratum) -> HubEnv {
        HubEnv::new(HubConfig::urban(), flat_inputs(slots, stratum), 4).unwrap()
    }

    #[test]
    fn state_dim_matches_layout() {
        let e = env(24, Stratum::NoCharge);
        assert_eq!(e.state_dim(), 5 * 4 + 1);
        let mut e = e;
        let s = e.reset(0.5);
        assert_eq!(s.len(), e.state_dim());
        assert!(s.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn augmentation_appends_after_soc_and_leaves_prefix_bit_identical() {
        let mut plain = env(24, Stratum::AlwaysCharge);
        let features = vec![0.25, -0.5, 1.0];
        let mut augmented = env(24, Stratum::AlwaysCharge).with_augmentation(features.clone());
        assert_eq!(augmented.state_dim(), plain.state_dim() + 3);
        assert_eq!(augmented.augmentation(), features.as_slice());

        let s_plain = plain.reset(0.5);
        let s_aug = augmented.reset(0.5);
        let base = plain.state_dim();
        for (a, b) in s_plain.iter().zip(&s_aug[..base]) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(&s_aug[base..], features.as_slice());

        // The dynamics are untouched: stepping both gives identical rewards.
        for _ in 0..24 {
            let p = plain.step(BpAction::Charge);
            let a = augmented.step(BpAction::Charge);
            assert_eq!(p.reward.to_bits(), a.reward.to_bits());
            assert_eq!(&a.state[base..], features.as_slice());
            if p.done {
                break;
            }
        }
    }

    #[test]
    fn obs_augmentation_width_is_uniform_across_the_library() {
        // The satellite contract: one width for every library scenario, and
        // the baseline block is zero-filled.
        use ect_data::scenario::scenario_library;
        let horizon = 24 * 7;
        let aug = ObsAugmentation::SCENARIO;
        let widths: Vec<usize> = scenario_library(horizon)
            .iter()
            .map(|spec| aug.features_for(spec, horizon).len())
            .collect();
        assert!(widths.iter().all(|&w| w == aug.width()), "{widths:?}");
        let baseline = aug.features_for(&ect_data::scenario::ScenarioSpec::baseline(), horizon);
        assert!(baseline.iter().all(|&f| f == 0.0), "{baseline:?}");
        assert_eq!(ObsAugmentation::NONE.width(), 0);
        assert!(ObsAugmentation::NONE
            .features_for(&ect_data::scenario::ScenarioSpec::baseline(), horizon)
            .is_empty());
        assert_eq!(ObsAugmentation::default(), ObsAugmentation::NONE);
    }

    #[test]
    fn outage_slots_cut_the_grid_and_penalise_unserved_load() {
        // Night slots (no solar), light wind: the urban hub (PV only) must
        // rely on battery or eat the VoLL penalty while the grid is out.
        let mut inputs = flat_inputs(24, Stratum::NoCharge);
        for w in &mut inputs.weather {
            w.solar_irradiance = 0.0;
        }
        let mask: Vec<bool> = (0..24).map(|t| t < 4).collect();
        let mut out = HubEnv::new(HubConfig::urban(), inputs.clone(), 4)
            .unwrap()
            .with_outages(mask)
            .unwrap();
        let mut on = HubEnv::new(HubConfig::urban(), inputs, 4).unwrap();
        out.reset(0.15); // battery at the reserve floor: discharge is clamped
        on.reset(0.15);

        let o = out.step(BpAction::Idle);
        let n = on.step(BpAction::Idle);
        // The grid is gone and demand goes unserved at the VoLL rate.
        assert_eq!(o.breakdown.p_grid, KiloWatt::ZERO);
        assert_eq!(o.breakdown.grid_cost, Money::ZERO);
        assert!(o.breakdown.unserved_kwh > 0.0);
        let expected = o.breakdown.unserved_kwh * HubConfig::urban().outage_voll.as_f64();
        assert!((o.breakdown.outage_penalty.as_f64() - expected).abs() < 1e-12);
        // VoLL (2 $/kWh) dwarfs the RTP (0.08 $/kWh): reward drops.
        assert!(o.reward < n.reward);
        // Charging from a dead grid degrades to Idle.
        let c = out.step(BpAction::Charge);
        assert_eq!(c.breakdown.effective_action, BpAction::Idle);
        // Outside the scripted window the slot is the historical kernel.
        let mut out2 = HubEnv::new(
            HubConfig::urban(),
            {
                let mut i = flat_inputs(24, Stratum::NoCharge);
                for w in &mut i.weather {
                    w.solar_irradiance = 0.0;
                }
                i
            },
            4,
        )
        .unwrap()
        .with_outages((0..24).map(|t| t < 4).collect())
        .unwrap();
        out2.reset(0.15);
        for _ in 0..4 {
            out2.step(BpAction::Idle);
        }
        let mut on2 = on;
        on2.reset(0.15);
        for _ in 0..4 {
            on2.step(BpAction::Idle);
        }
        let a = out2.step(BpAction::Idle);
        let b = on2.step(BpAction::Idle);
        assert_eq!(a.reward.to_bits(), b.reward.to_bits());
        assert_eq!(a.breakdown.outage_penalty, Money::ZERO);
        assert_eq!(a.breakdown.unserved_kwh, 0.0);
    }

    #[test]
    fn outage_discharge_reduces_the_penalty() {
        // A charged battery rides the outage through: discharging covers
        // load the grid can no longer supply, shrinking the unserved energy.
        let mut inputs = flat_inputs(24, Stratum::NoCharge);
        for w in &mut inputs.weather {
            w.solar_irradiance = 0.0;
        }
        let mut env = HubEnv::new(HubConfig::urban(), inputs, 4)
            .unwrap()
            .with_outages(vec![true; 24])
            .unwrap();
        env.reset(0.8);
        let discharge = env.step(BpAction::Discharge).breakdown;
        env.reset(0.8);
        let idle = env.step(BpAction::Idle).breakdown;
        assert!(discharge.unserved_kwh < idle.unserved_kwh);
        assert!(discharge.outage_penalty.as_f64() < idle.outage_penalty.as_f64());
        assert!(discharge.reward > idle.reward);
    }

    #[test]
    fn outage_mask_length_is_validated() {
        let env = HubEnv::new(HubConfig::urban(), flat_inputs(24, Stratum::NoCharge), 4).unwrap();
        assert!(env.clone().with_outages(vec![true; 3]).is_err());
        let cleared = env.clone().with_outages(Vec::new()).unwrap();
        assert!(cleared.outages().iter().all(|&o| !o));
        assert!(env.with_outages(vec![false; 24]).is_ok());
    }

    #[test]
    fn always_charge_generates_revenue() {
        let mut e = env(24, Stratum::AlwaysCharge);
        e.reset(0.5);
        let r = e.step(BpAction::Idle);
        // 120 kWh sold at 0.50 $/kWh.
        assert!((r.breakdown.revenue.as_f64() - 60.0).abs() < 1e-9);
        assert!(r.breakdown.ev_charged);
        assert!(r.reward > 0.0);
    }

    #[test]
    fn incentive_stratum_needs_a_discount() {
        let mut inputs = flat_inputs(24, Stratum::IncentiveCharge);
        let mut e = HubEnv::new(HubConfig::urban(), inputs.clone(), 4).unwrap();
        e.reset(0.5);
        let r = e.step(BpAction::Idle);
        assert!(!r.breakdown.ev_charged);
        assert_eq!(r.breakdown.revenue, Money::ZERO);

        // Now discount slot 0: the incentive EV charges at the reduced price.
        inputs.discounts = DiscountSchedule::from_levels(
            std::iter::once(0.2)
                .chain(std::iter::repeat(0.0))
                .take(24)
                .collect(),
        )
        .unwrap();
        let mut e = HubEnv::new(HubConfig::urban(), inputs, 4).unwrap();
        e.reset(0.5);
        let r = e.step(BpAction::Idle);
        assert!(r.breakdown.ev_charged);
        assert!((r.breakdown.srtp.as_f64() - 0.40).abs() < 1e-12);
        assert!((r.breakdown.revenue.as_f64() - 48.0).abs() < 1e-9);
    }

    #[test]
    fn power_balance_holds_every_slot() {
        let mut e = env(48, Stratum::AlwaysCharge);
        e.reset(0.5);
        for _ in 0..48 {
            let r = e.step(BpAction::Charge);
            let b = &r.breakdown;
            let net = b.p_bs.as_f64() + b.p_cs.as_f64() + b.p_bp.as_f64()
                - b.p_wt.as_f64()
                - b.p_pv.as_f64();
            assert!((b.p_grid.as_f64() - net.max(0.0)).abs() < 1e-9);
            if r.done {
                break;
            }
        }
    }

    #[test]
    fn discharge_reduces_grid_import() {
        let mut e = env(24, Stratum::AlwaysCharge);
        e.reset(0.8);
        let idle = e.step(BpAction::Idle).breakdown;
        let discharge = e.step(BpAction::Discharge).breakdown;
        assert!(discharge.p_grid.as_f64() < idle.p_grid.as_f64());
        assert!(discharge.grid_cost.as_f64() < idle.grid_cost.as_f64());
    }

    #[test]
    fn reward_decomposition_matches_eq12() {
        let mut e = env(24, Stratum::AlwaysCharge);
        e.reset(0.5);
        let r = e.step(BpAction::Charge);
        let b = &r.breakdown;
        let manual = b.revenue.as_f64() - b.grid_cost.as_f64() - b.bp_cost.as_f64();
        assert!((r.reward - manual).abs() < 1e-12);
    }

    #[test]
    fn episode_terminates_exactly_at_horizon() {
        let mut e = env(5, Stratum::NoCharge);
        e.reset(0.5);
        for i in 0..5 {
            let r = e.step(BpAction::Idle);
            assert_eq!(r.done, i == 4);
        }
    }

    #[test]
    #[should_panic(expected = "finished episode")]
    fn stepping_past_the_end_panics() {
        let mut e = env(2, Stratum::NoCharge);
        e.reset(0.5);
        e.step(BpAction::Idle);
        e.step(BpAction::Idle);
        e.step(BpAction::Idle);
    }

    #[test]
    fn rollout_accumulates_profit() {
        let mut e = env(24, Stratum::AlwaysCharge);
        let (total, trail) = e.rollout(0.5, |_, _| BpAction::Idle);
        assert_eq!(trail.len(), 24);
        let manual: f64 = trail.iter().map(|b| b.reward.as_f64()).sum();
        assert!((total.as_f64() - manual).abs() < 1e-9);
        assert!(total.as_f64() > 0.0);
    }

    #[test]
    fn set_discounts_validates_length() {
        let mut e = env(24, Stratum::NoCharge);
        assert!(e.set_discounts(DiscountSchedule::none(10)).is_err());
        assert!(e.set_discounts(DiscountSchedule::none(24)).is_ok());
    }

    #[test]
    fn blackout_endurance_meets_recovery_target() {
        let mut e = env(24, Stratum::NoCharge);
        e.reset(0.15); // worst case: battery at reserve floor
        assert!(e.blackout_endurance_hours() >= 8.0);
    }

    #[test]
    fn inputs_validation_catches_mismatches() {
        let mut inputs = flat_inputs(24, Stratum::NoCharge);
        inputs.traffic.pop();
        assert!(inputs.validate().is_err());
        assert!(HubEnv::new(HubConfig::urban(), inputs, 4).is_err());
        let empty = flat_inputs(0, Stratum::NoCharge);
        assert!(empty.validate().is_err());
    }

    #[test]
    fn zero_window_rejected() {
        assert!(HubEnv::new(HubConfig::urban(), flat_inputs(4, Stratum::NoCharge), 0).is_err());
    }

    #[test]
    fn battery_with_reserve_scales_capacity() {
        let cfg = battery_with_reserve(24);
        assert!(cfg.soc_min_fraction.as_f64() * cfg.capacity_kwh >= 4.0 * 24.0 - 1e-9);
        cfg.validate(KiloWatt::new(4.0), 24).unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn rewards_and_soc_stay_finite_and_bounded(
            seed in 0u64..500,
            actions in proptest::collection::vec(0usize..3, 24),
        ) {
            let _ = seed;
            let mut e = env(24, Stratum::AlwaysCharge);
            e.reset(0.5);
            let cfg = e.config().battery.clone();
            for &a in &actions {
                let r = e.step(BpAction::from_index(a));
                prop_assert!(r.reward.is_finite());
                prop_assert!(r.breakdown.p_grid.as_f64() >= 0.0);
                let soc = r.breakdown.soc_kwh;
                prop_assert!(soc >= cfg.soc_min_kwh().as_f64() - 1e-9);
                prop_assert!(soc <= cfg.soc_max_kwh().as_f64() + 1e-9);
                if r.done { break; }
            }
        }
    }
}
