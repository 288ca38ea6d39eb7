//! ECT-Hub: the operator-facing API of the base-station-centric
//! energy-communication-transportation hub.
//!
//! This crate ties the whole reproduction together: generate a synthetic
//! world ([`ect_data`]), train pricing engines (ECT-Price and the OR/IPS/DR
//! baselines, [`ect_price`]), schedule batteries with PPO ([`ect_drl`]) on
//! the hub simulator ([`ect_env`]), and assemble the paper's evaluation
//! artifacts (Table II, Table III, the Fig. 11–13 series) plus the repo's
//! beyond-paper studies (scenario grids, generalist training, severity
//! sweeps).
//!
//! # Quick start
//!
//! The unified entry point is a [`Session`]: a builder-configured handle
//! owning an [`ArtifactStore`] that memoises every expensive intermediate
//! (worlds, assembled systems, trained policies, pricing tables) by a
//! content hash of its inputs — repeated or overlapping experiments share
//! work automatically.
//!
//! ```
//! use ect_core::prelude::*;
//! use std::sync::Arc;
//!
//! // A miniature world: 3 hubs, short histories, tiny training budgets.
//! let session = SessionBuilder::new(SystemConfig::miniature())
//!     .scale(RunScale::Smoke)
//!     .threads(2)
//!     .build()?;
//!
//! // The world is generated on first use and memoised afterwards.
//! let system = session.system()?;
//! assert!(Arc::ptr_eq(&system, &session.system()?));
//!
//! // Table II: the paper's pricing methods vs the oracle, trained once per
//! // (config, discount grid) and served from the artifact store afterwards.
//! let table = session.pricing_table(&[0.2])?;
//! assert!(table.result("Ours", 0.2).is_some());
//! assert_eq!(session.store().kind_stats("pricing-table").builds, 1);
//! # Ok::<(), ect_types::EctError>(())
//! ```
//!
//! Evaluation units implement the [`Experiment`] trait (`ect-bench` keeps a
//! registry of every paper figure/table).
//!
//! The [`prelude`] re-exports the types most applications need.

pub mod artifact;
pub mod cache;
pub mod coordination;
pub mod dispatch;
pub mod experiment;
pub mod generalist;
pub mod microsim;
pub mod pricing;
pub mod report;
pub mod scenario_grid;
pub mod scheduling;
pub mod session;
pub mod severity;
pub mod system;

pub use artifact::{ArtifactKey, ArtifactStore, KindStats};
pub use cache::{CacheProvenance, DiskCache, CACHE_FORMAT_VERSION};
pub use coordination::{
    CoordinationArm, CoordinationOptions, CoordinationOutcome, RoadGraphTopology, TopologySource,
};
pub use dispatch::{run_dag, run_indexed};
pub use experiment::{run_timed, running_experiment, Experiment, ExperimentOutput};
pub use generalist::{
    GeneralistOptions, GeneralistOutcome, GeneralistReport, HeldOutBaseline, HeldOutComparison,
};
pub use microsim::{synthesize_demand_parallel, MicrosimDemandOptions};
pub use pricing::{pricing_table, train_engine, MethodPricingResults, PricingTable};
pub use report::FleetReport;
pub use scenario_grid::{scenario_stress, NamedEngines, ScenarioGridResult, ScenarioHubStress};
pub use scheduling::{
    run_hubs_method_batched, run_hubs_scheduler_batched, schedule_for_hub, HubExperimentResult,
    OBS_WINDOW,
};
pub use session::{kind_versions, ProgressSink, RunScale, Session, SessionBuilder};
pub use severity::{
    SeverityCurve, SeverityOptions, SeverityOutcome, SeverityPoint, SeverityReport,
};
pub use system::{EctHubSystem, PricingMethod, SystemConfig};

/// One-stop imports for applications and examples.
pub mod prelude {
    pub use crate::artifact::{ArtifactKey, ArtifactStore, KindStats};
    pub use crate::cache::{CacheProvenance, DiskCache};
    pub use crate::coordination::{
        CoordinationArm, CoordinationOptions, CoordinationOutcome, RoadGraphTopology,
        TopologySource,
    };
    pub use crate::experiment::{run_timed, Experiment, ExperimentOutput};
    pub use crate::generalist::{
        GeneralistOptions, GeneralistOutcome, GeneralistReport, HeldOutBaseline, HeldOutComparison,
    };
    pub use crate::microsim::{synthesize_demand_parallel, MicrosimDemandOptions};
    pub use crate::pricing::{pricing_table, train_engine, PricingTable};
    pub use crate::report::FleetReport;
    pub use crate::scenario_grid::{
        scenario_stress, NamedEngines, ScenarioGridResult, ScenarioHubStress,
    };
    pub use crate::scheduling::{
        run_hubs_method_batched, run_hubs_scheduler_batched, schedule_for_hub, HubExperimentResult,
    };
    pub use crate::session::{ProgressSink, RunScale, Session, SessionBuilder};
    pub use crate::severity::{
        SeverityCurve, SeverityOptions, SeverityOutcome, SeverityPoint, SeverityReport,
    };
    pub use crate::system::{EctHubSystem, PricingMethod, SystemConfig};
    pub use ect_data::charging::Stratum;
    pub use ect_data::dataset::{HubSiting, WorldConfig, WorldDataset};
    pub use ect_data::scenario::randomized::{
        distribution_by_name, distribution_library, ParamRange, ScenarioDistribution, StressAxis,
        DISTRIBUTION_NAMES,
    };
    pub use ect_data::scenario::{
        scenario_by_name, scenario_library, ScenarioModifier, ScenarioSpec, Signal, SlotWindow,
        SCENARIO_NAMES,
    };
    pub use ect_data::topology::HubTopology;
    pub use ect_drl::generalist::{
        train_holdout_split, ScenarioMixture, HELDOUT_SCENARIOS, TRAIN_SCENARIOS,
    };
    pub use ect_drl::heuristics::{DrlScheduler, GreedyPrice, NoBattery, Scheduler, TimeOfUse};
    pub use ect_drl::scenario_source::{ScenarioSource, WorldCache};
    pub use ect_drl::trainer::TrainerConfig;
    pub use ect_env::battery::BpAction;
    pub use ect_env::coupling::{CouplingConfig, FeederConfig, SpilloverConfig, MUTUAL_OBS_DIM};
    pub use ect_env::env::{HubEnv, ObsAugmentation};
    pub use ect_env::hub::HubConfig;
    pub use ect_env::tariff::DiscountSchedule;
    pub use ect_microsim::{
        synthesize_demand, FlashCrowd, MicrosimConfig, MicrosimDemand, MicrosimEngine,
    };
    pub use ect_price::engine::PricingEngine;
    pub use ect_price::eval::evaluate_engine;
    pub use ect_types::ids::{HubId, StationId};
    pub use ect_types::rng::EctRng;
    pub use ect_types::time::SlotIndex;
    pub use ect_types::units::{DollarsPerKwh, KiloWatt, KiloWattHour, Money};
}
