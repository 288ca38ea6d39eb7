//! The parallel driver and session face of the UE microsimulation.
//!
//! `ect-microsim` owns the particle engine and its pure chunk-step kernel;
//! this module fans the per-slot mobility and association step over the
//! work-stealing [`crate::dispatch::run_indexed`] dispatch and packages the
//! synthesis as a memoisable session artifact ([`MicrosimDemandOptions`] →
//! [`Session::microsim_demand_for`](crate::Session::microsim_demand_for)).
//!
//! The population is cut into equal chunks, a multiple of the worker
//! count, so no worker idles on a short tail shard. The fold then runs on the calling thread
//! in UE order over fixed [`ect_microsim::SHARD_UES`] shards, so
//! [`synthesize_demand_parallel`] is **bit-identical** to the sequential
//! [`ect_microsim::synthesize_demand`] at every thread count — pinned by
//! `tests/microsim_determinism.rs`.

use ect_data::spatial::{Region, RegionConfig};
use ect_microsim::{MicrosimConfig, MicrosimDemand, MicrosimEngine};
use ect_types::rng::EctRng;
use serde::{Deserialize, Serialize};

/// Seed-stream separator for the region generated under
/// [`MicrosimDemandOptions`] (decorrelated from the UE draws, which
/// consume the seed directly).
const MICROSIM_REGION_SEED_STREAM: u64 = 0x0E60_9AFD;

/// Everything a memoised demand synthesis depends on — this struct **is**
/// the artifact key payload, so it must stay pure: same options, same
/// demand, bit for bit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MicrosimDemandOptions {
    /// Population and behaviour knobs.
    pub microsim: MicrosimConfig,
    /// The synthetic region the UEs move in (generated from `seed`).
    pub region: RegionConfig,
    /// Hubs to aggregate demand onto.
    pub num_hubs: usize,
    /// Horizon in slots.
    pub slots: usize,
    /// Master seed for region generation and every UE draw.
    pub seed: u64,
}

impl MicrosimDemandOptions {
    /// Generates the region and synthesizes the demand, fanning shards
    /// over `threads` workers.
    ///
    /// # Errors
    ///
    /// Propagates region-generation and engine-validation failures.
    pub fn build(&self, threads: usize) -> ect_types::Result<MicrosimDemand> {
        let region = Region::generate(
            &self.region,
            &mut EctRng::seed_from(self.seed ^ MICROSIM_REGION_SEED_STREAM),
        )?;
        let engine = MicrosimEngine::new(
            &self.microsim,
            &region,
            self.num_hubs,
            self.slots,
            self.seed,
        )?;
        synthesize_demand_parallel(&engine, threads)
    }
}

/// Runs the engine with the per-slot step fanned over
/// [`crate::dispatch::run_indexed`]: the population is cut into equal
/// chunks for `threads` workers (one worker per
/// [`ect_microsim::SHARD_UES`] shard when `threads` is 0), each stepped and
/// associated as one job, then folded in UE order.
/// Output is bit-identical to [`MicrosimEngine::synthesize`] for every
/// `threads`.
///
/// # Errors
///
/// Propagates dispatch failures (the chunk kernel itself is infallible).
pub fn synthesize_demand_parallel(
    engine: &MicrosimEngine,
    threads: usize,
) -> ect_types::Result<MicrosimDemand> {
    let started = std::time::Instant::now();
    let workers = if threads == 0 {
        engine.num_ues().div_ceil(ect_microsim::SHARD_UES)
    } else {
        threads
    };
    let mut chunks = engine.spawn_chunks(workers);
    let mut acc = engine.accumulator();
    for slot in 0..engine.slots() {
        let _span = ect_obs::span("microsim.step");
        chunks =
            crate::dispatch::run_indexed(std::mem::take(&mut chunks), workers, |_, mut chunk| {
                engine.step_chunk(&mut chunk, slot);
                Ok(chunk)
            })?;
        engine.fold(slot, &chunks, &mut acc);
        ect_obs::counter_add("microsim.associations", engine.num_ues() as u64);
    }
    // Free the population before `finish` builds the output series, so
    // they can reuse its memory.
    drop(chunks);
    ect_microsim::record_throughput(engine.num_ues(), engine.slots(), started.elapsed());
    Ok(engine.finish(acc))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn options() -> MicrosimDemandOptions {
        MicrosimDemandOptions {
            microsim: MicrosimConfig {
                num_ues: 2_000,
                ..MicrosimConfig::default()
            },
            region: RegionConfig {
                size_km: 80.0,
                num_highways: 4,
                num_cities: 2,
                streets_per_city: 4,
                city_radius_km: 6.0,
                num_base_stations: 300,
                ..RegionConfig::default()
            },
            num_hubs: 4,
            slots: 24,
            seed: 11,
        }
    }

    #[test]
    fn parallel_matches_sequential_bit_for_bit() {
        let opts = options();
        let region = Region::generate(
            &opts.region,
            &mut EctRng::seed_from(opts.seed ^ MICROSIM_REGION_SEED_STREAM),
        )
        .unwrap();
        let engine = MicrosimEngine::new(
            &opts.microsim,
            &region,
            opts.num_hubs,
            opts.slots,
            opts.seed,
        )
        .unwrap();
        let sequential = engine.synthesize().unwrap();
        for threads in [1, 2, 3, 8] {
            let parallel = synthesize_demand_parallel(&engine, threads).unwrap();
            assert_eq!(parallel, sequential, "diverged at {threads} threads");
        }
    }

    #[test]
    fn options_build_is_pure() {
        let opts = options();
        let a = opts.build(2).unwrap();
        let b = opts.build(7).unwrap();
        assert_eq!(a, b);
    }
}
