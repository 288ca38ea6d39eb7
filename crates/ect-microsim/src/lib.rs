//! ECT-Microsim: user-level demand microsimulation.
//!
//! The rest of the workspace treats hub demand as exogenous aggregate
//! series ([`ect_data::traffic::TrafficGenerator`]). This crate makes
//! "heavy traffic from millions of users" literal: it simulates N
//! individual UEs moving on the [`ect_data::spatial::Region`] road graph —
//! structure-of-arrays position/route/speed/activity lanes, commute waves
//! and scripted flash-crowd surges — associates every UE to its nearest
//! hub each slot through per-road-segment candidate lists, and aggregates
//! distance-weighted (pathloss) per-UE load into per-hub traffic and
//! EV-arrival series.
//!
//! The output ([`MicrosimDemand`]) is a drop-in demand source: its series
//! plug into `ect_env`'s episode/fleet builders exactly where the
//! aggregate generator's series go today (opt-in; the aggregate paths are
//! untouched).
//!
//! # Determinism
//!
//! Every draw is a stateless hash of `(seed, UE index, slot)` and shard
//! partials fold in a fixed order, so the demand is **bit-identical across
//! thread counts** and pure in `(config, region, hubs, slots, seed)` —
//! the property that lets the session layer memoise it through the
//! disk-cache tiers.
//!
//! # Allocation size
//!
//! The session and benchmark layers rebuild the engine for every
//! synthesis, so its working buffers — the candidate lists (about 8 KiB
//! for the longest metro road), the UE chunks, the demand accumulator —
//! are cut per segment, chunk or slot, each well below glibc's 128 KiB
//! `mmap` threshold at metro scale (2,000 hubs, 20,000 UEs). Freeing a
//! larger block raises that threshold and the allocator's trim threshold
//! for the rest of the process, after which every worker thread's arena
//! keeps about 1 MB of freed memory resident.
//!
//! # Example
//!
//! ```
//! use ect_microsim::{synthesize_demand, MicrosimConfig};
//! use ect_data::spatial::{Region, RegionConfig};
//! use ect_types::rng::EctRng;
//!
//! let region = Region::generate(
//!     &RegionConfig { num_base_stations: 200, ..RegionConfig::default() },
//!     &mut EctRng::seed_from(7),
//! )?;
//! let config = MicrosimConfig { num_ues: 2_000, ..MicrosimConfig::default() };
//! let demand = synthesize_demand(&config, &region, 4, 24, 42)?;
//! assert_eq!(demand.traffic.len(), 4);
//! assert_eq!(demand.total_associations, 2_000 * 24);
//! # Ok::<(), ect_types::EctError>(())
//! ```

pub mod config;
pub mod engine;
pub mod grid;

pub use config::{FlashCrowd, MicrosimConfig};
pub use engine::{
    hub_sites, record_throughput, synthesize_demand, DemandAccumulator, MicrosimDemand,
    MicrosimEngine, UeChunk, SHARD_UES,
};
pub use grid::nearest_brute_force;
