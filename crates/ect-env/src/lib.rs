//! The ECT-Hub simulation environment.
//!
//! Implements the paper's system model (Section III) as a reinforcement-
//! learning environment:
//!
//! * [`power`] — base-station (Eq. 1) and charging-station (Eq. 2) loads and
//!   the grid balance (Eq. 7);
//! * [`battery`] — battery-point dynamics with SoC bounds and the blackout
//!   reserve (Eqs. 3–6) plus the per-slot operation cost (Eq. 8);
//! * [`tariff`] — the selling price `SRTP(t)` and per-slot discount
//!   schedules (Eq. 11);
//! * [`hub`] — the assembled [`hub::HubConfig`] with urban/rural presets;
//! * [`vec_env`] — [`vec_env::FleetEnv`], the one stepping engine: N hubs
//!   advance in lockstep over `Arc`-shared series through one struct-of-arrays
//!   slot kernel (the private `soa` module), with the Eq. 24 state and the
//!   [`env::SlotBreakdown`] audit trail both assembled on demand
//!   ([`vec_env::FleetEnv::observe_into`], [`vec_env::FleetEnv::breakdown`]);
//! * [`env`](mod@env) — [`env::HubEnv`], a one-lane `FleetEnv` whose
//!   [`env::HubEnv::step`] advances one hourly slot and returns the Eq. 12
//!   profit as the reward, the Eq. 24 observation and the slot's audit trail;
//! * [`fleet`] — slicing a generated [`ect_data::dataset::WorldDataset`]
//!   into per-hub episodes, single-hub or batched;
//! * [`blackout`] — grid-outage ride-through simulation, exercising the
//!   Eq. 6 reserve the rest of the system merely guarantees;
//! * [`coupling`] — the networked multi-hub layer: a shared distribution
//!   feeder with an aggregate import cap (proportional-fairness
//!   curtailment), deterministic EV-demand spillover between topology
//!   neighbours, and the mutual-observation block that exposes neighbour
//!   state to each hub's policy.
//!
//! Invariants enforced (and property-tested): SoC stays within
//! `[soc_min, soc_max]` under arbitrary action sequences; grid power is never
//! negative (no feed-in, Section I); `soc_min` always covers the worst-case
//! base-station draw for the configured recovery time.
//!
//! # Example
//!
//! Slice one hub of a generated world into an episode and step it:
//!
//! ```
//! use ect_data::dataset::{WorldConfig, WorldDataset};
//! use ect_env::battery::BpAction;
//! use ect_env::fleet::env_for_hub;
//! use ect_env::tariff::DiscountSchedule;
//! use ect_types::ids::HubId;
//! use ect_types::rng::EctRng;
//!
//! let world = WorldDataset::generate(WorldConfig {
//!     num_hubs: 1,
//!     horizon_slots: 48,
//!     ..WorldConfig::default()
//! })?;
//! let mut rng = EctRng::seed_from(7);
//! let mut env = env_for_hub(
//!     &world,
//!     HubId::new(0),
//!     /*start_slot=*/ 0,
//!     /*len=*/ 48,
//!     DiscountSchedule::none(48),
//!     /*window=*/ 6,
//!     &mut rng,
//! )?;
//! env.reset(/*initial_soc=*/ 0.5);
//! let step = env.step(BpAction::Idle);
//! assert!(step.reward.is_finite());
//! # Ok::<(), ect_types::EctError>(())
//! ```

pub mod battery;
pub mod blackout;
pub mod coupling;
pub mod env;
pub mod fleet;
pub mod hub;
pub mod power;
mod soa;
pub mod tariff;
pub mod vec_env;

pub use battery::{BatteryPoint, BatteryPointConfig, BpAction, BpSlotResult};
pub use blackout::{ride_through, worst_case_ride_through, BlackoutOutcome, BlackoutScenario};
pub use coupling::{CouplingConfig, FeederConfig, SpilloverConfig, MUTUAL_OBS_DIM};
pub use env::{EpisodeInputs, HubEnv, ObsAugmentation, SlotBreakdown, StepResult};
pub use fleet::{
    draw_strata, env_for_hub, episode_for_hub, fleet_env_for_hubs, fleet_env_for_hubs_with_traffic,
    fleet_env_for_scenarios, fleet_env_for_scenarios_augmented, fleet_env_for_worlds,
    fleet_env_for_worlds_with_traffic,
};
pub use hub::HubConfig;
pub use power::{grid_power, BaseStationModel, ChargingStationModel};
pub use tariff::{DiscountSchedule, SellingTariff};
pub use vec_env::{BatchStep, FleetEnv, HubSeries};
