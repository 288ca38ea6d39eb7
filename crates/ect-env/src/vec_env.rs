//! The batched fleet engine: vectorized lockstep stepping of N hubs.
//!
//! The paper evaluates 12 ECT-Hubs. [`FleetEnv`] keeps struct-of-arrays
//! state over all lanes — configs, `Arc`-shared exogenous series and the
//! slot kernel's precomputed slot cells and per-lane SoC — advancing every
//! hub one slot per [`FleetEnv::step_batch_soa`] call, one battery-and-reward
//! pass over all lanes. The Eq. 24 state is never stored:
//! [`FleetEnv::observe_into`] and [`FleetEnv::observe_all_into`] assemble it
//! at the current slot into caller-owned memory, so the rule-based baselines
//! and the sweeps that never read it never pay for it. After warm-up neither
//! path allocates.
//!
//! This is the one stepping engine: the single-hub [`HubEnv`] is a one-lane
//! fleet, and the training loops, evaluation, the metro sweep and the
//! experiments all step here. The per-slot [`SlotBreakdown`] audit trail is
//! built on demand by [`FleetEnv::breakdown`], never on the hot path.

use crate::battery::BpAction;
use crate::coupling::{
    coupled_slot, write_mutual_obs, CoupledLaneInputs, CoupledLaneOutputs, CouplingConfig,
};
use crate::env::{EpisodeInputs, HubEnv, SlotBreakdown};
use crate::hub::HubConfig;
use crate::soa::SlotLanes;
use crate::tariff::DiscountSchedule;
use ect_data::charging::Stratum;
use ect_data::traffic::TrafficSample;
use ect_data::weather::WeatherSample;
use ect_types::units::{DollarsPerKwh, KiloWattHour, Money};
use std::sync::Arc;

/// One hub's exogenous series, reference-counted so fleet lanes can share
/// storage (all hubs of a world share one regional RTP series; replayed
/// episodes share everything but the strata draw).
#[derive(Debug, Clone)]
pub struct HubSeries {
    /// Real-time grid price per slot.
    pub rtp: Arc<[DollarsPerKwh]>,
    /// Weather per slot.
    pub weather: Arc<[WeatherSample]>,
    /// Base-station traffic per slot.
    pub traffic: Arc<[TrafficSample]>,
    /// Discount schedule from the pricing engine.
    pub discounts: Arc<DiscountSchedule>,
    /// Ground-truth charging stratum per slot.
    pub strata: Arc<[Stratum]>,
    /// Scripted grid-outage flag per slot (all `false` when the lane's
    /// scenario scripts none).
    pub outages: Arc<[bool]>,
}

impl HubSeries {
    /// Wraps owned episode inputs, taking sole ownership of each series;
    /// the outage mask starts all-clear (the grid never fails).
    pub fn from_inputs(inputs: EpisodeInputs) -> Self {
        let slots = inputs.rtp.len();
        Self {
            rtp: inputs.rtp.into(),
            weather: inputs.weather.into(),
            traffic: inputs.traffic.into(),
            discounts: Arc::new(inputs.discounts),
            strata: inputs.strata.into(),
            outages: vec![false; slots].into(),
        }
    }

    /// Episode length in slots.
    pub fn len(&self) -> usize {
        self.rtp.len()
    }

    /// `true` when the series cover no slots.
    pub fn is_empty(&self) -> bool {
        self.rtp.is_empty()
    }

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
                "fleet lane needs at least one slot".into(),
            ));
        }
        for (what, len) in [
            ("fleet lane weather series", self.weather.len()),
            ("fleet lane traffic series", self.traffic.len()),
            ("fleet lane discount schedule", self.discounts.len()),
            ("fleet lane strata series", self.strata.len()),
            ("fleet lane outage mask", self.outages.len()),
        ] {
            if len != n {
                return Err(ect_types::EctError::ShapeMismatch {
                    context: what,
                    expected: n,
                    actual: len,
                });
            }
        }
        Ok(())
    }
}

/// Result of one batched step, borrowing the engine's reusable reward
/// buffer. The next observations are read on demand with
/// [`FleetEnv::observe_into`] / [`FleetEnv::observe_all_into`].
#[derive(Debug)]
pub struct BatchStep<'a> {
    /// Per-lane reward (Eq. 12 profit).
    pub rewards: &'a [f64],
    /// `true` when every lane's episode has ended (lanes share one horizon,
    /// so all end together).
    pub done: bool,
}

/// Live coupling state of a coupled fleet: the configuration plus reusable
/// per-lane scratch, so coupled stepping allocates nothing after warm-up.
#[derive(Debug, Clone)]
struct CouplingState {
    config: CouplingConfig,
    /// Per-lane kernel inputs (rebuilt every slot).
    inputs: Vec<CoupledLaneInputs>,
    /// Per-lane kernel outputs of the last slot (also the audit trail's
    /// exchange fields).
    outputs: Vec<CoupledLaneOutputs>,
    /// Feeder-bid sort scratch.
    bid_scratch: Vec<f64>,
    /// Mutual-obs gather scratch: SoC fractions, load rates, curtail shares.
    socs: Vec<f64>,
    loads: Vec<f64>,
    shares: Vec<f64>,
}

impl CouplingState {
    fn new(config: CouplingConfig, n: usize) -> Self {
        Self {
            config,
            inputs: vec![CoupledLaneInputs::default(); n],
            outputs: vec![CoupledLaneOutputs::default(); n],
            bid_scratch: Vec::with_capacity(n),
            socs: vec![0.0; n],
            loads: vec![0.0; n],
            shares: vec![0.0; n],
        }
    }

    fn demand_scale(&self, lane: usize) -> f64 {
        self.config
            .spillover
            .as_ref()
            .map_or(1.0, |s| s.ev_demand_scale[lane])
    }
}

/// Batched environment over N hub lanes advancing in lockstep.
///
/// # Example
///
/// ```
/// use ect_env::battery::BpAction;
/// use ect_env::env::{EpisodeInputs, HubEnv};
/// use ect_env::hub::HubConfig;
/// use ect_env::tariff::DiscountSchedule;
/// use ect_env::vec_env::FleetEnv;
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
/// let envs = vec![
///     HubEnv::new(HubConfig::urban(), inputs.clone(), 6)?,
///     HubEnv::new(HubConfig::rural(), inputs, 6)?,
/// ];
/// let mut fleet = FleetEnv::from_envs(envs)?;
/// fleet.reset(&[0.5, 0.5]);
/// let step = fleet.step_batch_soa(&[BpAction::Idle, BpAction::Charge]);
/// assert_eq!(step.rewards.len(), 2);
/// assert!(step.rewards.iter().all(|r| r.is_finite()));
/// assert_eq!(fleet.breakdown(1).slot, 0);
/// # Ok::<(), ect_types::EctError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FleetEnv {
    // Lane inputs: index `i` across these vectors is lane i.
    configs: Vec<HubConfig>,
    series: Vec<HubSeries>,
    // Lockstep cursor and layout.
    window: usize,
    horizon: usize,
    state_dim: usize,
    t: usize,
    // Per-lane scenario-conditioning blocks, lane-major (`n × aug_dim`);
    // empty when the fleet runs the plain Eq. 24 observation.
    aug: Vec<f64>,
    aug_dim: usize,
    // Multi-hub coupling (shared feeder / EV spillover / mutual obs);
    // `None` for the plain uncoupled fleet, whose one-pass step never
    // touches this state.
    coupling: Option<CouplingState>,
    // Per-lane mutual-observation blocks, lane-major (`n × mutual_dim`),
    // appended after the conditioning block; empty when mutual obs are off.
    mutual: Vec<f64>,
    mutual_dim: usize,
    // Reusable reward buffer (the zero-allocation hot path).
    rewards: Vec<f64>,
    // The slot kernel: precomputed slot lanes plus the live SoC of every
    // lane (the only copy of the fleet's battery state).
    lanes: SlotLanes,
}

impl FleetEnv {
    /// Creates a fleet over `(config, series)` lanes sharing one horizon,
    /// every battery at half charge (clamped into its bounds).
    ///
    /// # Errors
    ///
    /// Returns [`ect_types::EctError::InvalidConfig`] for an empty fleet or
    /// zero window, validation errors from each lane's config/series, and
    /// [`ect_types::EctError::ShapeMismatch`] when horizons differ.
    pub fn new(lanes: Vec<(HubConfig, HubSeries)>, window: usize) -> ect_types::Result<Self> {
        if lanes.is_empty() {
            return Err(ect_types::EctError::InvalidConfig(
                "a fleet needs at least one lane".into(),
            ));
        }
        if window == 0 {
            return Err(ect_types::EctError::InvalidConfig(
                "observation window must be at least one slot".into(),
            ));
        }
        let horizon = lanes[0].1.len();
        for (config, series) in &lanes {
            config.validate()?;
            series.validate()?;
            if series.len() != horizon {
                return Err(ect_types::EctError::ShapeMismatch {
                    context: "fleet lane horizon",
                    expected: horizon,
                    actual: series.len(),
                });
            }
        }
        let n = lanes.len();
        let state_dim = 5 * window + 1;
        let (configs, series): (Vec<HubConfig>, Vec<HubSeries>) = lanes.into_iter().unzip();
        let mut kernel = SlotLanes::build(&configs, &series);
        for (lane, config) in configs.iter().enumerate() {
            kernel.set_soc(lane, config.battery.clamped_soc(0.5).as_f64());
        }
        Ok(Self {
            configs,
            series,
            window,
            horizon,
            state_dim,
            t: 0,
            aug: Vec::new(),
            aug_dim: 0,
            coupling: None,
            mutual: Vec::new(),
            mutual_dim: 0,
            rewards: vec![0.0; n],
            lanes: kernel,
        })
    }

    /// Builds a fleet from existing single-hub environments (they must share
    /// one window and horizon, and sit at slot 0). Convenience for tests and
    /// for migrating sequential call sites.
    ///
    /// Each lane inherits its environment's series, conditioning block and
    /// current SoC, so a wrapped env behaves exactly as it would have
    /// alone; lanes still need a [`FleetEnv::reset`] to randomise SoC per
    /// episode.
    ///
    /// # Errors
    ///
    /// Propagates [`FleetEnv::new`] failures; additionally rejects an empty
    /// environment list, mismatched windows, or an env already stepped past
    /// slot 0 (lanes advance in lockstep from the episode start — reset it
    /// first).
    pub fn from_envs(envs: Vec<HubEnv>) -> ect_types::Result<Self> {
        let window = match envs.first() {
            Some(env) => env.window(),
            None => {
                return Err(ect_types::EctError::InvalidConfig(
                    "a fleet needs at least one lane".into(),
                ))
            }
        };
        let mut lanes = Vec::with_capacity(envs.len());
        let mut socs = Vec::with_capacity(envs.len());
        let mut features = Vec::with_capacity(envs.len());
        for env in envs {
            if env.window() != window {
                return Err(ect_types::EctError::ShapeMismatch {
                    context: "fleet lane window",
                    expected: window,
                    actual: env.window(),
                });
            }
            if env.slot() != 0 {
                return Err(ect_types::EctError::InvalidConfig(format!(
                    "fleet lanes must start at slot 0, got an env at slot {}; reset it first",
                    env.slot()
                )));
            }
            let lane = env.fleet;
            socs.push(lane.lanes.soc(0));
            features.push(lane.lane_features(0).to_vec());
            let config = lane.configs.into_iter().next().expect("one lane");
            let series = lane.series.into_iter().next().expect("one lane");
            lanes.push((config, series));
        }
        let mut fleet = Self::new(lanes, window)?;
        if features.iter().any(|f| !f.is_empty()) {
            fleet = fleet.with_lane_features(features)?;
        }
        for (lane, &soc) in socs.iter().enumerate() {
            fleet.lanes.set_soc(lane, soc);
        }
        Ok(fleet)
    }

    /// Builder: attaches one scenario-conditioning block per lane, appended
    /// after the SoC scalar of that lane's observation (see
    /// [`crate::env::ObsAugmentation`]). All blocks must share one width so
    /// the fleet keeps a single observation layout; zero-width blocks
    /// restore the plain Eq. 24 state.
    ///
    /// # Errors
    ///
    /// Returns [`ect_types::EctError::ShapeMismatch`] when the block count
    /// differs from the lane count or the blocks disagree on width.
    pub fn with_lane_features(mut self, features: Vec<Vec<f64>>) -> ect_types::Result<Self> {
        let n = self.num_lanes();
        if features.len() != n {
            return Err(ect_types::EctError::ShapeMismatch {
                context: "fleet lane feature blocks",
                expected: n,
                actual: features.len(),
            });
        }
        let aug_dim = features[0].len();
        for block in &features {
            if block.len() != aug_dim {
                return Err(ect_types::EctError::ShapeMismatch {
                    context: "fleet lane feature width",
                    expected: aug_dim,
                    actual: block.len(),
                });
            }
        }
        self.aug = features.into_iter().flatten().collect();
        self.aug_dim = aug_dim;
        self.state_dim = 5 * self.window + 1 + aug_dim + self.mutual_dim;
        Ok(self)
    }

    /// Builder: couples the fleet's lanes through a shared feeder, EV
    /// demand spillover and/or mutual observations (see [`crate::coupling`]).
    ///
    /// An inactive configuration (no feeder, no spillover, no mutual obs)
    /// leaves the fleet uncoupled, on the plain one-pass step. With
    /// mutual observations on, every lane's state gains a
    /// [`crate::coupling::MUTUAL_OBS_DIM`]-wide block after the conditioning
    /// block, zero-filled until the first step.
    ///
    /// # Errors
    ///
    /// Returns [`ect_types::EctError::ShapeMismatch`] when the topology or
    /// spillover scales disagree with the lane count, plus any coupling
    /// validation error.
    pub fn with_coupling(mut self, config: CouplingConfig) -> ect_types::Result<Self> {
        let n = self.num_lanes();
        config.validate(n)?;
        if !config.is_active() {
            self.coupling = None;
            return Ok(self);
        }
        self.mutual_dim = config.mutual_obs_dim();
        self.mutual = vec![0.0; n * self.mutual_dim];
        self.state_dim = 5 * self.window + 1 + self.aug_dim + self.mutual_dim;
        self.coupling = Some(CouplingState::new(config, n));
        Ok(self)
    }

    /// The coupling configuration, when the fleet is coupled.
    pub fn coupling(&self) -> Option<&CouplingConfig> {
        self.coupling.as_ref().map(|state| &state.config)
    }

    /// Width of the per-lane mutual-observation block (0 when mutual
    /// observations are off).
    pub fn mutual_obs_dim(&self) -> usize {
        self.mutual_dim
    }

    /// The mutual-observation block of one lane (empty when mutual
    /// observations are off; zero-filled before the first step).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn lane_mutual(&self, lane: usize) -> &[f64] {
        assert!(lane < self.num_lanes(), "lane {lane} out of range");
        &self.mutual[lane * self.mutual_dim..(lane + 1) * self.mutual_dim]
    }

    /// Width of the per-lane conditioning block (0 = plain Eq. 24 state).
    pub fn aug_dim(&self) -> usize {
        self.aug_dim
    }

    /// The conditioning block of one lane (empty when none is attached).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn lane_features(&self, lane: usize) -> &[f64] {
        assert!(lane < self.num_lanes(), "lane {lane} out of range");
        &self.aug[lane * self.aug_dim..(lane + 1) * self.aug_dim]
    }

    /// Number of lanes (hubs) stepping in lockstep.
    pub fn num_lanes(&self) -> usize {
        self.configs.len()
    }

    /// Dimension of each lane's observation vector: `5 × window + 1`, plus
    /// the per-lane conditioning and mutual-observation blocks when
    /// attached.
    pub fn state_dim(&self) -> usize {
        self.state_dim
    }

    /// Observation window length in slots.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Episode length in slots (shared by all lanes).
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Current slot index.
    pub fn slot(&self) -> usize {
        self.t
    }

    /// Lane configurations.
    pub fn configs(&self) -> &[HubConfig] {
        &self.configs
    }

    /// Lane series (for inspection).
    pub fn series(&self) -> &[HubSeries] {
        &self.series
    }

    /// Current state of charge of one lane.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn lane_soc(&self, lane: usize) -> KiloWattHour {
        assert!(lane < self.num_lanes(), "lane {lane} out of range");
        KiloWattHour::new(self.lanes.soc(lane))
    }

    /// Writes lane `lane`'s Eq. 24 state at the current slot into `out`:
    /// the kernel's core (five windows plus SoC), then the conditioning and
    /// mutual-observation blocks. Built on demand; only the kernel's
    /// normalised input lanes are cached, from the first observation on, so
    /// a fleet that is never observed never builds them.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or `out.len() != state_dim`.
    pub fn observe_into(&self, lane: usize, out: &mut [f64]) {
        let (head, rest) = out.split_at_mut(5 * self.window + 1);
        self.lanes
            .write_obs(lane, self.t, self.window, &self.series, head);
        let (aug, mutual) = rest.split_at_mut(self.aug_dim);
        aug.copy_from_slice(self.lane_features(lane));
        mutual.copy_from_slice(self.lane_mutual(lane));
    }

    /// Writes every lane's state at the current slot into `out`, lane-major
    /// (lane `i` fills `out[i * state_dim..(i + 1) * state_dim]`): the batch
    /// a shared policy infers over.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != num_lanes() * state_dim`.
    pub fn observe_all_into(&self, out: &mut [f64]) {
        assert_eq!(
            out.len(),
            self.num_lanes() * self.state_dim,
            "one state per lane"
        );
        for (lane, row) in out.chunks_exact_mut(self.state_dim).enumerate() {
            self.observe_into(lane, row);
        }
    }

    /// One lane's state at the current slot, freshly allocated.
    pub(crate) fn observe(&self, lane: usize) -> Vec<f64> {
        let mut out = vec![0.0; self.state_dim];
        self.observe_into(lane, &mut out);
        out
    }

    /// Every lane's state at the current slot, lane-major, freshly allocated.
    #[cfg(test)]
    pub(crate) fn observe_all(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.num_lanes() * self.state_dim];
        self.observe_all_into(&mut out);
        out
    }

    /// Resets every lane to slot 0 with per-lane initial SoC fractions
    /// (clamped into each battery's bounds). Read the initial states with
    /// [`FleetEnv::observe_into`] / [`FleetEnv::observe_all_into`].
    ///
    /// # Panics
    ///
    /// Panics if `initial_soc.len() != num_lanes()`.
    pub fn reset(&mut self, initial_soc: &[f64]) {
        assert_eq!(
            initial_soc.len(),
            self.num_lanes(),
            "one initial SoC per lane"
        );
        for (lane, (config, &soc)) in self.configs.iter().zip(initial_soc).enumerate() {
            self.lanes
                .set_soc(lane, config.battery.clamped_soc(soc).as_f64());
        }
        // Mutual observations reset to zero — no step has exchanged yet.
        self.mutual.fill(0.0);
        self.t = 0;
    }

    /// Advances every lane one slot under its action, on the slot kernel:
    /// uncoupled, one pass over all lanes that runs the battery recurrence
    /// and then the power balance and reward of each, branch-free in the
    /// arithmetic (both battery moves are evaluated and the action selects
    /// one); coupled, the same battery recurrence plus the
    /// [`crate::coupling`] exchange (and the mutual-observation blocks).
    /// Returns a borrowed view of the reusable reward buffer — no heap
    /// allocation happens on this path — and writes no observation: read
    /// the next states with [`FleetEnv::observe_into`] /
    /// [`FleetEnv::observe_all_into`], the slot's audit trail with
    /// [`FleetEnv::breakdown`].
    ///
    /// # Panics
    ///
    /// Panics if the episode already finished or `actions.len()` mismatches
    /// the lane count.
    pub fn step_batch_soa(&mut self, actions: &[BpAction]) -> BatchStep<'_> {
        assert!(
            self.t < self.horizon,
            "step called on finished episode; call reset"
        );
        assert_eq!(actions.len(), self.num_lanes(), "one action per lane");
        if self.coupling.is_some() {
            self.step_coupled(actions);
        } else {
            self.lanes.step(self.t, actions, &mut self.rewards);
            self.t += 1;
        }
        BatchStep {
            rewards: &self.rewards,
            done: self.t >= self.horizon,
        }
    }

    /// The coupled step: the per-lane battery recurrence
    /// (`SlotLanes::coupled_inputs`), then one [`coupled_slot`] exchange
    /// (spillover → feeder bids → allocation → accounting), then the mutual
    /// observation blocks.
    fn step_coupled(&mut self, actions: &[BpAction]) {
        let t = self.t;
        let n = self.num_lanes();
        let cs = self.coupling.as_mut().expect("coupled step without state");
        for (lane, &action) in actions.iter().enumerate() {
            cs.inputs[lane] = self
                .lanes
                .coupled_inputs(lane, t, action, cs.demand_scale(lane));
            cs.loads[lane] = self.series[lane].traffic[t].load_rate.as_f64();
        }
        coupled_slot(&cs.config, &cs.inputs, &mut cs.outputs, &mut cs.bid_scratch);
        for (reward, o) in self.rewards.iter_mut().zip(&cs.outputs) {
            *reward = o.reward;
        }
        if cs.config.mutual_obs {
            for lane in 0..n {
                cs.socs[lane] = self.lanes.soc_fraction(lane);
                cs.shares[lane] = cs.outputs[lane].curtail_share;
            }
            for (lane, block) in self.mutual.chunks_exact_mut(self.mutual_dim).enumerate() {
                write_mutual_obs(
                    &cs.config.topology,
                    lane,
                    &cs.socs,
                    &cs.loads,
                    &cs.shares,
                    block,
                );
            }
        }
        self.t = t + 1;
    }

    /// The audit trail of the slot just stepped (`slot() - 1`) for one
    /// lane, assembled on demand from the kernel's slot cell, the lane's
    /// recorded battery power and SoC, and — on a coupled fleet — the
    /// exchange outputs. Its `reward` is bit-identical to the reward the
    /// step returned.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or no slot has been stepped since
    /// the last reset.
    pub fn breakdown(&self, lane: usize) -> SlotBreakdown {
        assert!(lane < self.num_lanes(), "lane {lane} out of range");
        assert!(self.t > 0, "breakdown before the first step of the episode");
        let coupled = self.coupling.as_ref().map(|cs| &cs.outputs[lane]);
        self.lanes.breakdown(lane, self.t - 1, coupled)
    }

    /// Number of deduplicated `(config, series)` groups behind the slot
    /// kernel. A fleet replicated from one world shares its per-slot lanes
    /// across all replicas.
    pub fn soa_group_count(&self) -> usize {
        self.lanes.group_count()
    }

    /// Runs a full episode under a per-lane policy closure; returns per-lane
    /// total profit and audit trails.
    ///
    /// The closure sees `(lane, lane_observation)` and picks that lane's
    /// action for the slot.
    pub fn rollout<P>(
        &mut self,
        initial_soc: &[f64],
        mut policy: P,
    ) -> (Vec<Money>, Vec<Vec<SlotBreakdown>>)
    where
        P: FnMut(usize, &[f64]) -> BpAction,
    {
        let n = self.num_lanes();
        self.reset(initial_soc);
        let mut totals = vec![Money::ZERO; n];
        let mut trails: Vec<Vec<SlotBreakdown>> = vec![Vec::with_capacity(self.horizon); n];
        let mut actions = vec![BpAction::Idle; n];
        let mut obs = vec![0.0; self.state_dim];
        loop {
            for (lane, action) in actions.iter_mut().enumerate() {
                self.observe_into(lane, &mut obs);
                *action = policy(lane, &obs);
            }
            let done = self.step_batch_soa(&actions).done;
            for lane in 0..n {
                let breakdown = self.breakdown(lane);
                totals[lane] += breakdown.reward;
                trails[lane].push(breakdown);
            }
            if done {
                break;
            }
        }
        (totals, trails)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::battery::BatteryPoint;
    use crate::env::oracle::{compute_slot, write_observation, SlotInputs};
    use ect_types::units::LoadRate;

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

    fn fleet(lanes: usize, slots: usize) -> FleetEnv {
        let envs: Vec<HubEnv> = (0..lanes)
            .map(|i| {
                let config = if i % 2 == 0 {
                    HubConfig::urban()
                } else {
                    HubConfig::rural()
                };
                HubEnv::new(config, flat_inputs(slots, Stratum::AlwaysCharge), 4).unwrap()
            })
            .collect();
        FleetEnv::from_envs(envs).unwrap()
    }

    #[test]
    fn lane_features_append_after_soc_without_touching_dynamics() {
        let mut plain = fleet(3, 24);
        let blocks = vec![vec![0.1, 0.2], vec![0.0, 0.0], vec![-0.3, 0.9]];
        let mut augmented = fleet(3, 24).with_lane_features(blocks.clone()).unwrap();
        let base = plain.state_dim();
        assert_eq!(augmented.state_dim(), base + 2);
        assert_eq!(augmented.aug_dim(), 2);

        plain.reset(&[0.5; 3]);
        augmented.reset(&[0.5; 3]);
        let actions = [BpAction::Charge, BpAction::Idle, BpAction::Discharge];
        for _ in 0..24 {
            let (p_rewards, p_done) = {
                let step = plain.step_batch_soa(&actions);
                (step.rewards.to_vec(), step.done)
            };
            let rewards = augmented.step_batch_soa(&actions).rewards.to_vec();
            for lane in 0..3 {
                assert_eq!(p_rewards[lane].to_bits(), rewards[lane].to_bits());
                let obs = augmented.observe(lane);
                assert_eq!(&obs[..base], plain.observe(lane).as_slice());
                assert_eq!(&obs[base..], blocks[lane].as_slice());
                assert_eq!(augmented.lane_features(lane), blocks[lane].as_slice());
            }
            if p_done {
                break;
            }
        }
    }

    #[test]
    fn lane_features_validate_shapes() {
        let f = fleet(2, 24);
        assert!(f.clone().with_lane_features(vec![vec![1.0]]).is_err());
        assert!(f
            .clone()
            .with_lane_features(vec![vec![1.0], vec![1.0, 2.0]])
            .is_err());
        // Zero-width blocks restore the plain layout.
        let base_dim = f.state_dim();
        let plain = f.with_lane_features(vec![Vec::new(), Vec::new()]).unwrap();
        assert_eq!(plain.state_dim(), base_dim);
    }

    #[test]
    fn from_envs_carries_hub_env_augmentation() {
        let features = vec![0.5, -1.0];
        let envs: Vec<HubEnv> = (0..2)
            .map(|_| {
                HubEnv::new(
                    HubConfig::urban(),
                    flat_inputs(24, Stratum::AlwaysCharge),
                    4,
                )
                .unwrap()
                .with_augmentation(features.clone())
            })
            .collect();
        let fleet = FleetEnv::from_envs(envs.clone()).unwrap();
        assert_eq!(fleet.state_dim(), envs[0].state_dim());
        for lane in 0..2 {
            assert_eq!(fleet.lane_features(lane), features.as_slice());
            let dim = fleet.state_dim();
            assert_eq!(&fleet.observe(lane)[dim - 2..], features.as_slice());
        }
        // Mismatched widths across envs are rejected.
        let mismatched = vec![
            envs[0].clone(),
            HubEnv::new(
                HubConfig::urban(),
                flat_inputs(24, Stratum::AlwaysCharge),
                4,
            )
            .unwrap()
            .with_augmentation(vec![1.0]),
        ];
        assert!(FleetEnv::from_envs(mismatched).is_err());
    }

    /// The batch a shared policy reads is the per-lane states joined end
    /// to end, at reset, after every step and after the last one, on a
    /// coupled fleet with conditioning and mutual-observation blocks.
    #[test]
    fn observe_into_matches_flat_buffer() {
        let blocks = vec![vec![0.1, -0.2], vec![0.3, 0.4], vec![0.0, 0.5]];
        let mut fleet = varied_fleet(3, 24, true)
            .with_lane_features(blocks)
            .unwrap()
            .with_coupling(binding_coupling(3, 4.0))
            .unwrap();
        let dim = fleet.state_dim();
        fleet.reset(&[0.2, 0.5, 0.9]);
        let (mut row, mut batch) = (vec![0.0; dim], vec![0.0; 3 * dim]);
        loop {
            fleet.observe_all_into(&mut batch);
            for lane in 0..3 {
                fleet.observe_into(lane, &mut row);
                assert_eq!(obs_bits(&row), obs_bits(&batch[lane * dim..][..dim]));
            }
            if fleet.slot() == fleet.horizon() {
                break;
            }
            fleet.step_batch_soa(&[BpAction::Charge, BpAction::Discharge, BpAction::Idle]);
        }
    }

    #[test]
    fn step_batch_does_not_grow_buffers() {
        let mut fleet = fleet(6, 24);
        fleet.reset(&[0.5; 6]);
        let rewards_ptr = fleet.rewards.as_ptr();
        let actions = vec![BpAction::Charge; 6];
        for _ in 0..24 {
            let step = fleet.step_batch_soa(&actions);
            if step.done {
                break;
            }
        }
        assert_eq!(fleet.rewards.as_ptr(), rewards_ptr, "rewards reallocated");
    }

    #[test]
    fn rollout_accumulates_per_lane() {
        let mut fleet = fleet(2, 24);
        let (totals, trails) = fleet.rollout(&[0.5, 0.5], |_, _| BpAction::Idle);
        assert_eq!(totals.len(), 2);
        assert_eq!(trails[0].len(), 24);
        for (total, trail) in totals.iter().zip(&trails) {
            let manual: f64 = trail.iter().map(|b| b.reward.as_f64()).sum();
            assert!((total.as_f64() - manual).abs() < 1e-9);
        }
    }

    #[test]
    fn construction_rejects_bad_shapes() {
        assert!(FleetEnv::from_envs(Vec::new()).is_err());
        let a = HubEnv::new(HubConfig::urban(), flat_inputs(24, Stratum::NoCharge), 4).unwrap();
        let b = HubEnv::new(HubConfig::urban(), flat_inputs(48, Stratum::NoCharge), 4).unwrap();
        assert!(FleetEnv::from_envs(vec![a.clone(), b]).is_err());
        let c = HubEnv::new(HubConfig::urban(), flat_inputs(24, Stratum::NoCharge), 6).unwrap();
        assert!(FleetEnv::from_envs(vec![a, c]).is_err());
        assert!(FleetEnv::new(
            vec![(
                HubConfig::urban(),
                HubSeries::from_inputs(flat_inputs(24, Stratum::NoCharge))
            )],
            0
        )
        .is_err());
    }

    #[test]
    #[should_panic(expected = "finished episode")]
    fn stepping_past_the_end_panics() {
        let mut fleet = fleet(1, 2);
        fleet.reset(&[0.5]);
        let actions = [BpAction::Idle];
        fleet.step_batch_soa(&actions);
        fleet.step_batch_soa(&actions);
        fleet.step_batch_soa(&actions);
    }

    /// Varied exogenous series; `phase` shifts the discount schedule.
    fn varied_inputs(slots: usize, phase: usize) -> EpisodeInputs {
        let strata = [
            Stratum::NoCharge,
            Stratum::IncentiveCharge,
            Stratum::AlwaysCharge,
        ];
        EpisodeInputs {
            rtp: (0..slots)
                .map(|t| DollarsPerKwh::new(0.05 + 0.01 * (t % 7) as f64))
                .collect(),
            weather: (0..slots)
                .map(|t| WeatherSample {
                    solar_irradiance: 100.0 * (t % 9) as f64,
                    wind_speed: 2.0 + (t % 11) as f64,
                    cloud_cover: 0.1 * (t % 5) as f64,
                })
                .collect(),
            traffic: (0..slots)
                .map(|t| TrafficSample {
                    load_rate: LoadRate::new(0.1 + 0.08 * (t % 10) as f64).unwrap(),
                    volume_gb: 10.0 + t as f64,
                })
                .collect(),
            discounts: DiscountSchedule::from_levels(
                (0..slots)
                    .map(|t| match (t + phase) % 4 {
                        0 => 0.2,
                        1 if phase % 2 == 1 => 0.5,
                        _ => 0.0,
                    })
                    .collect(),
            )
            .unwrap(),
            strata: (0..slots).map(|t| strata[t % 3]).collect(),
        }
    }

    fn varied_fleet(lanes: usize, slots: usize, outages: bool) -> FleetEnv {
        let envs: Vec<HubEnv> = (0..lanes)
            .map(|i| {
                let config = if i % 2 == 0 {
                    HubConfig::urban()
                } else {
                    HubConfig::rural()
                };
                let env = HubEnv::new(config, varied_inputs(slots, 0), 4).unwrap();
                if outages {
                    env.with_outages((0..slots).map(|t| (t + i) % 5 == 0).collect())
                        .unwrap()
                } else {
                    env
                }
            })
            .collect();
        FleetEnv::from_envs(envs).unwrap()
    }

    #[test]
    fn soa_groups_deduplicate_shared_lanes() {
        // 6 lanes replicated from 2 distinct (config, series) pairs via
        // Arc-shared series must collapse to 2 SoA groups.
        let inputs = varied_inputs(24, 0);
        let urban = HubSeries::from_inputs(inputs.clone());
        let rural = HubSeries::from_inputs(inputs);
        let mut lanes = Vec::new();
        for _ in 0..3 {
            lanes.push((HubConfig::urban(), urban.clone()));
            lanes.push((HubConfig::rural(), rural.clone()));
        }
        let fleet = FleetEnv::new(lanes, 4).unwrap();
        assert_eq!(fleet.num_lanes(), 6);
        assert_eq!(fleet.soa_group_count(), 2);
        // Distinct series allocations stay distinct groups.
        let separate = varied_fleet(4, 24, false);
        assert_eq!(separate.soa_group_count(), 4);
    }

    /// Every field of a breakdown as raw bits, so `-0.0` and `0.0` differ.
    fn breakdown_bits(b: &SlotBreakdown) -> Vec<u64> {
        let mut bits = vec![b.slot as u64];
        bits.extend(
            [
                b.p_bs.as_f64(),
                b.p_cs.as_f64(),
                b.p_bp.as_f64(),
                b.p_wt.as_f64(),
                b.p_pv.as_f64(),
                b.p_grid.as_f64(),
                b.srtp.as_f64(),
                b.rtp.as_f64(),
                b.revenue.as_f64(),
                b.grid_cost.as_f64(),
                b.bp_cost.as_f64(),
                b.outage_penalty.as_f64(),
                b.unserved_kwh,
                b.reward.as_f64(),
                b.soc_kwh,
                b.curtailed_kwh,
                b.curtailment_penalty.as_f64(),
                b.spill_in.as_f64(),
                b.spill_out.as_f64(),
            ]
            .map(f64::to_bits),
        );
        bits.push(b.effective_action.index() as u64);
        bits.push(u64::from(b.ev_charged));
        bits
    }

    fn obs_bits(obs: &[f64]) -> Vec<u64> {
        obs.iter().map(|v| v.to_bits()).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The kernel against the readable oracle (`env::oracle`): rewards,
        /// audit trail and the on-demand state (at reset, after every step
        /// and at `slot() == horizon`), bit for bit, over generated fleets
        /// with outage masks, shifted discount schedules, SoC at both bounds,
        /// windows longer than the first slots, conditioning blocks and
        /// mutual observations (a coupling that leaves the dynamics alone).
        #[test]
        fn soa_path_is_bit_identical_across_random_fleets(
            config_picks in proptest::collection::vec(0usize..3, 1..5),
            soc_picks in proptest::collection::vec(0usize..4, 5),
            socs in proptest::collection::vec(0.0f64..1.0, 5),
            window in 1usize..9,
            action_seed in 0usize..1000,
            outage_phase in 0usize..7,
            aug_dim in 0usize..3,
            mutual_pick in 0usize..2,
        ) {
            use proptest::prelude::prop_assert_eq;
            let (slots, mutual) = (30, mutual_pick == 1);
            let lanes: Vec<(HubConfig, EpisodeInputs, Vec<bool>)> = config_picks
                .iter()
                .enumerate()
                .map(|(i, &pick)| {
                    let config = match pick {
                        0 => HubConfig::urban(),
                        1 => HubConfig::rural(),
                        _ => HubConfig::bare(),
                    };
                    let mask = (0..slots).map(|t| (t + i + outage_phase) % 6 == 0).collect();
                    (config, varied_inputs(slots, i + outage_phase), mask)
                })
                .collect();
            let n = lanes.len();
            let features: Vec<Vec<f64>> = (0..n)
                .map(|l| (0..aug_dim).map(|k| 0.25 * (l + k) as f64 - 0.5).collect())
                .collect();
            let topology = HubTopology::ring(n).unwrap();
            let mut fleet = FleetEnv::new(
                lanes
                    .iter()
                    .map(|(config, inputs, mask)| {
                        let mut series = HubSeries::from_inputs(inputs.clone());
                        series.outages = mask.as_slice().into();
                        (config.clone(), series)
                    })
                    .collect(),
                window,
            )
            .unwrap()
            .with_lane_features(features.clone())
            .unwrap()
            .with_coupling(CouplingConfig {
                mutual_obs: mutual,
                ..CouplingConfig::inactive(topology.clone())
            })
            .unwrap();
            let initial: Vec<f64> = (0..n)
                .map(|l| match soc_picks[l] {
                    0 => 0.0,
                    1 => 1.0,
                    _ => socs[l],
                })
                .collect();
            let mut batteries: Vec<BatteryPoint> = lanes
                .iter()
                .zip(&initial)
                .map(|((config, _, _), &soc)| BatteryPoint::new(config.battery.clone(), soc))
                .collect();
            // Mutual blocks are zero until the first exchange.
            let mut blocks = vec![vec![0.0; fleet.mutual_obs_dim()]; n];
            fleet.reset(&initial);
            for t in 0..=slots {
                for (lane, battery) in batteries.iter().enumerate() {
                    let (config, inputs, _) = &lanes[lane];
                    let mut out = vec![0.0; fleet.state_dim()];
                    let extra = [features[lane].as_slice(), &blocks[lane]].concat();
                    write_observation(
                        &mut out,
                        window,
                        t,
                        config,
                        &inputs.rtp,
                        &inputs.weather,
                        &inputs.traffic,
                        &inputs.discounts,
                        battery.soc_fraction(),
                        &extra,
                    );
                    prop_assert_eq!(
                        obs_bits(&out),
                        obs_bits(&fleet.observe(lane)),
                        "obs diverged at slot {} lane {}", t, lane
                    );
                }
                if t == slots {
                    break;
                }
                let actions: Vec<BpAction> = (0..n)
                    .map(|l| BpAction::from_index((action_seed + 3 * t + 5 * l) % 3))
                    .collect();
                let rewards = fleet.step_batch_soa(&actions).rewards.to_vec();
                for (lane, battery) in batteries.iter_mut().enumerate() {
                    let (config, inputs, mask) = &lanes[lane];
                    let oracle = compute_slot(
                        config,
                        SlotInputs {
                            rtp: inputs.rtp[t],
                            weather: &inputs.weather[t],
                            traffic: &inputs.traffic[t],
                            discount_level: inputs.discounts.level(t),
                            stratum: inputs.strata[t],
                            outage: mask[t],
                        },
                        battery,
                        actions[lane],
                        t,
                    );
                    prop_assert_eq!(
                        oracle.reward.as_f64().to_bits(),
                        rewards[lane].to_bits(),
                        "reward diverged at slot {} lane {}", t, lane
                    );
                    prop_assert_eq!(
                        breakdown_bits(&oracle),
                        breakdown_bits(&fleet.breakdown(lane)),
                        "breakdown diverged at slot {} lane {}", t, lane
                    );
                }
                if mutual {
                    let socs: Vec<f64> = batteries.iter().map(BatteryPoint::soc_fraction).collect();
                    let loads: Vec<f64> =
                        lanes.iter().map(|(_, i, _)| i.traffic[t].load_rate.as_f64()).collect();
                    for (lane, block) in blocks.iter_mut().enumerate() {
                        write_mutual_obs(&topology, lane, &socs, &loads, &vec![0.0; n], block);
                    }
                }
            }
        }
    }

    /// Lanes that share one group (`Arc`-cloned series and an equal
    /// config) interleaved with lanes that carry their own traffic, under
    /// per-lane mixed actions, an outage mask and SoC at both bounds: the
    /// one-pass step must match the oracle lane by lane, bit for bit, at
    /// every slot, through the `group_of` indirection. The clamps
    /// (`gain ≤ EPS`, `drawn ≤ EPS`) and the outage's `Charge → Idle`
    /// degradation all fire along the way.
    #[test]
    fn shared_groups_match_the_oracle() {
        let (slots, window) = (36, 4);
        let mut shared = HubSeries::from_inputs(varied_inputs(slots, 1));
        shared.outages = (0..slots).map(|t| t % 5 == 2).collect::<Vec<_>>().into();
        let own = |lane: usize| {
            let mut series = shared.clone();
            series.traffic = (0..slots)
                .map(|t| TrafficSample {
                    load_rate: LoadRate::new(0.05 * ((t + 3 * lane) % 20) as f64).unwrap(),
                    volume_gb: t as f64,
                })
                .collect::<Vec<_>>()
                .into();
            series
        };
        // Distinct battery, station and VoLL constants per config, so a lane
        // that read another group's record would diverge.
        let (urban, mut rural) = (HubConfig::urban(), HubConfig::rural());
        rural.battery.capacity_kwh *= 1.5;
        rural.battery.charge_rate_kw *= 0.5;
        rural.battery.op_cost_per_slot *= 2.0;
        rural.charging_station.rate_kw *= 0.5;
        rural.outage_voll = DollarsPerKwh::new(2.0 * rural.outage_voll.as_f64());
        let lanes = vec![
            (urban.clone(), shared.clone()),
            (urban.clone(), own(1)),
            (urban.clone(), shared.clone()),
            (rural.clone(), own(3)),
            (urban, shared.clone()),
            (rural, shared.clone()),
        ];
        let n = lanes.len();
        let mut fleet = FleetEnv::new(lanes.clone(), window).unwrap();
        // Shared urban lanes 0/2/4, own-traffic lanes 1 and 3, and lane 5
        // (shared series, different config).
        assert_eq!(fleet.soa_group_count(), 4);
        let initial = [0.0, 1.0, 1.0, 0.0, 0.5, 1.0];
        let mut batteries: Vec<BatteryPoint> = lanes
            .iter()
            .zip(initial)
            .map(|((config, _), soc)| BatteryPoint::new(config.battery.clone(), soc))
            .collect();
        fleet.reset(&initial);
        let (mut gain_clamps, mut drawn_clamps, mut degraded) = (0, 0, 0);
        for t in 0..slots {
            // Runs of one action per lane, offset across lanes, so every
            // battery reaches both bounds and keeps pushing against them.
            let actions: Vec<BpAction> = (0..n)
                .map(|lane| BpAction::from_index(((t + 4 * lane) / 6) % 3))
                .collect();
            let rewards = fleet.step_batch_soa(&actions).rewards.to_vec();
            for (lane, (battery, (config, series))) in batteries.iter_mut().zip(&lanes).enumerate()
            {
                let oracle = compute_slot(
                    config,
                    SlotInputs {
                        rtp: series.rtp[t],
                        weather: &series.weather[t],
                        traffic: &series.traffic[t],
                        discount_level: series.discounts.level(t),
                        stratum: series.strata[t],
                        outage: series.outages[t],
                    },
                    battery,
                    actions[lane],
                    t,
                );
                assert_eq!(oracle.reward.as_f64().to_bits(), rewards[lane].to_bits());
                assert_eq!(
                    breakdown_bits(&oracle),
                    breakdown_bits(&fleet.breakdown(lane))
                );
                let mut expected = vec![0.0; fleet.state_dim()];
                write_observation(
                    &mut expected,
                    window,
                    t + 1,
                    config,
                    &series.rtp,
                    &series.weather,
                    &series.traffic,
                    &series.discounts,
                    battery.soc_fraction(),
                    &[],
                );
                assert_eq!(obs_bits(&expected), obs_bits(&fleet.observe(lane)));
                let idle = oracle.effective_action == BpAction::Idle;
                match actions[lane] {
                    BpAction::Charge if series.outages[t] => degraded += 1,
                    BpAction::Charge if idle => gain_clamps += 1,
                    BpAction::Discharge if idle => drawn_clamps += 1,
                    _ => {}
                }
            }
        }
        assert!(gain_clamps > 0 && drawn_clamps > 0 && degraded > 0);
    }

    #[test]
    fn shared_rtp_is_not_duplicated() {
        let inputs = flat_inputs(24, Stratum::NoCharge);
        let rtp: Arc<[DollarsPerKwh]> = inputs.rtp.clone().into();
        let mk_lane = |cfg: HubConfig| {
            let mut series = HubSeries::from_inputs(inputs.clone());
            series.rtp = Arc::clone(&rtp);
            (cfg, series)
        };
        let fleet = FleetEnv::new(
            vec![mk_lane(HubConfig::urban()), mk_lane(HubConfig::rural())],
            4,
        )
        .unwrap();
        let a = fleet.series()[0].rtp.as_ptr();
        let b = fleet.series()[1].rtp.as_ptr();
        assert_eq!(a, b, "lanes should share one RTP allocation");
    }

    use crate::coupling::{FeederConfig, SpilloverConfig, MUTUAL_OBS_DIM};
    use ect_data::HubTopology;

    fn binding_coupling(lanes: usize, cap_kw: f64) -> CouplingConfig {
        CouplingConfig {
            topology: HubTopology::ring(lanes).unwrap(),
            feeder: Some(FeederConfig {
                cap_kw,
                curtailment_price: DollarsPerKwh::new(0.5),
            }),
            spillover: Some(SpilloverConfig::uniform(1.8, lanes)),
            mutual_obs: true,
        }
    }

    #[test]
    fn inactive_coupling_is_bit_identical_to_plain_fleet() {
        let slots = 24;
        let mut plain = varied_fleet(3, slots, true);
        let mut inactive = varied_fleet(3, slots, true)
            .with_coupling(CouplingConfig::inactive(HubTopology::ring(3).unwrap()))
            .unwrap();
        assert_eq!(inactive.state_dim(), plain.state_dim());
        assert_eq!(inactive.mutual_obs_dim(), 0);
        assert!(inactive.coupling().is_none());
        plain.reset(&[0.4; 3]);
        inactive.reset(&[0.4; 3]);
        let cycle = [BpAction::Charge, BpAction::Discharge, BpAction::Idle];
        for t in 0..slots {
            let actions: Vec<BpAction> = (0..3).map(|l| cycle[(t + l) % 3]).collect();
            let p_rewards = plain.step_batch_soa(&actions).rewards.to_vec();
            let step = inactive.step_batch_soa(&actions);
            for (lane, reward) in p_rewards.iter().enumerate() {
                assert_eq!(reward.to_bits(), step.rewards[lane].to_bits(), "slot {t}");
            }
            assert_eq!(
                obs_bits(&plain.observe_all()),
                obs_bits(&inactive.observe_all())
            );
            for lane in 0..3 {
                assert_eq!(plain.breakdown(lane), inactive.breakdown(lane), "slot {t}");
            }
        }
    }

    #[test]
    fn coupled_fleet_widens_observations_and_surfaces_curtailment() {
        let slots = 48;
        let plain_dim = varied_fleet(4, slots, false).state_dim();
        // Asymmetric demand: lanes 0/2 oversubscribe their stations while
        // lanes 1/3 leave headroom, so the ring actually carries spillover.
        let mut config = binding_coupling(4, 3.0);
        config.spillover = Some(SpilloverConfig {
            ev_demand_scale: vec![1.8, 0.2, 1.8, 0.2],
        });
        let mut coupled = varied_fleet(4, slots, false).with_coupling(config).unwrap();
        assert_eq!(coupled.state_dim(), plain_dim + MUTUAL_OBS_DIM);
        assert_eq!(coupled.mutual_obs_dim(), MUTUAL_OBS_DIM);
        assert!(coupled.coupling().is_some());
        coupled.reset(&[0.5; 4]);
        for lane in 0..4 {
            assert!(
                coupled.lane_mutual(lane).iter().all(|&v| v == 0.0),
                "mutual block starts zeroed"
            );
        }
        let actions = vec![BpAction::Charge; 4];
        let mut saw_curtailment = false;
        let mut saw_spill = false;
        for _ in 0..slots {
            let done = coupled.step_batch_soa(&actions).done;
            for b in (0..4).map(|lane| coupled.breakdown(lane)) {
                assert!(b.reward.as_f64().is_finite());
                assert!(b.curtailed_kwh >= 0.0);
                saw_curtailment |= b.curtailed_kwh > 0.0;
                saw_spill |= b.spill_in.as_f64() > 0.0 || b.spill_out.as_f64() > 0.0;
            }
            if done {
                break;
            }
        }
        assert!(saw_curtailment, "a 3 kW feeder cap must bind somewhere");
        assert!(saw_spill, "1.8x demand must overflow some station");
        for lane in 0..4 {
            let mutual = coupled.lane_mutual(lane);
            assert_eq!(mutual.len(), MUTUAL_OBS_DIM);
            assert!(mutual.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn single_hub_coupled_fleet_degenerates_gracefully() {
        let slots = 24;
        let mut solo = varied_fleet(1, slots, true)
            .with_coupling(binding_coupling(1, 2.0))
            .unwrap();
        solo.reset(&[0.5]);
        let actions = [BpAction::Charge];
        for _ in 0..slots {
            let done = {
                let step = solo.step_batch_soa(&actions);
                assert!(step.rewards[0].is_finite());
                step.done
            };
            let mutual = solo.lane_mutual(0);
            // No neighbours: only the own-curtailment slot may be non-zero.
            assert_eq!(mutual[0], 0.0);
            assert_eq!(mutual[1], 0.0);
            assert_eq!(mutual[3], 0.0);
            assert!(mutual[2] >= 0.0 && mutual[2] <= 1.0);
            if done {
                break;
            }
        }
    }

    #[test]
    fn with_coupling_validates_shapes() {
        let fleet = varied_fleet(3, 24, false);
        // Topology size must match the lane count.
        assert!(fleet
            .clone()
            .with_coupling(binding_coupling(2, 5.0))
            .is_err());
        // Spillover scale vector must match too.
        let mut config = binding_coupling(3, 5.0);
        config.spillover = Some(SpilloverConfig::uniform(1.5, 4));
        assert!(fleet.clone().with_coupling(config).is_err());
        // A well-shaped config is accepted.
        assert!(fleet.with_coupling(binding_coupling(3, 5.0)).is_ok());
    }

    #[test]
    fn coupled_rollout_keeps_trails_consistent() {
        let mut coupled = varied_fleet(3, 24, false)
            .with_coupling(binding_coupling(3, 4.0))
            .unwrap();
        let (totals, trails) = coupled.rollout(&[0.5; 3], |_, _| BpAction::Charge);
        for (total, trail) in totals.iter().zip(&trails) {
            assert_eq!(trail.len(), 24);
            let manual: f64 = trail.iter().map(|b| b.reward.as_f64()).sum();
            assert!((total.as_f64() - manual).abs() < 1e-9);
        }
    }
}
