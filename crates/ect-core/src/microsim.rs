//! The parallel driver and session face of the UE microsimulation.
//!
//! `ect-microsim` owns the particle engine and its pure chunk-step kernel;
//! this module steps the population on lockstep workers and packages the
//! synthesis as a memoisable session artifact ([`MicrosimDemandOptions`] →
//! [`Session::microsim_demand_for`](crate::Session::microsim_demand_for)).
//!
//! [`synthesize_demand_parallel`] starts its workers once per synthesis,
//! not once per slot: the population is cut into equal chunks, a multiple
//! of the worker count, and each worker owns a fixed contiguous run of
//! them for the whole horizon, so no worker idles on a short tail run.
//! Each slot the workers step their runs and meet at a barrier; the
//! calling thread folds the slot in UE order over fixed
//! [`ect_microsim::SHARD_UES`] shards, and all meet at a second barrier
//! before the next slot. The barriers block rather than spin, so the
//! driver can run nested under the [`crate::dispatch`] workers. The
//! output is **bit-identical** to the sequential
//! [`ect_microsim::synthesize_demand`] at every thread count — pinned by
//! `tests/microsim_determinism.rs`.

use ect_data::spatial::{Region, RegionConfig};
use ect_microsim::{DemandAccumulator, MicrosimConfig, MicrosimDemand, MicrosimEngine, UeChunk};
use ect_types::rng::EctRng;
use parking_lot::Mutex;
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

/// Runs the engine in lockstep on `threads` workers: the calling thread
/// plus `threads − 1` scoped threads (one worker per
/// [`ect_microsim::SHARD_UES`] shard when `threads` is 0, and never more
/// workers than chunks), started once for the whole synthesis. The
/// population is cut into equal chunks and each worker owns a fixed
/// contiguous run of them for the whole horizon. Each slot, every worker
/// steps and associates its run, all meet at a barrier, the calling thread
/// folds the slot in UE order, and all meet again before the next slot.
/// Output is bit-identical to [`MicrosimEngine::synthesize`] for every
/// `threads`.
///
/// A worker that panics breaks both barriers, so its peers return instead
/// of blocking, and the synthesis ends with that panic.
///
/// # Errors
///
/// Currently infallible after construction; the `Result` keeps the
/// signature aligned with [`MicrosimEngine::synthesize`].
pub fn synthesize_demand_parallel(
    engine: &MicrosimEngine,
    threads: usize,
) -> ect_types::Result<MicrosimDemand> {
    synthesize_lockstep(engine, threads, |chunk, slot| {
        engine.step_chunk(chunk, slot)
    })
}

/// [`synthesize_demand_parallel`] with the chunk step passed in, so tests
/// can make a worker panic.
fn synthesize_lockstep(
    engine: &MicrosimEngine,
    threads: usize,
    step: impl Fn(&mut UeChunk, usize) + Sync,
) -> ect_types::Result<MicrosimDemand> {
    let started = std::time::Instant::now();
    let workers = if threads == 0 {
        engine.num_ues().div_ceil(ect_microsim::SHARD_UES)
    } else {
        threads
    };
    let mut chunks = engine.spawn_chunks(workers);
    let mut acc = engine.accumulator();
    // `spawn_chunks` cuts a multiple of `workers` chunks, or one per UE when
    // there are fewer UEs than workers, so the runs are equal.
    let run_len = chunks.len().div_ceil(workers).max(1);
    let runs: Vec<Mutex<&mut [UeChunk]>> = chunks.chunks_mut(run_len).map(Mutex::new).collect();
    let barrier = BreakableBarrier::new(runs.len());
    std::thread::scope(|scope| {
        let peers: Vec<_> = (1..runs.len())
            .map(|w| {
                let (runs, barrier, step) = (&runs, &barrier, &step);
                scope.spawn(move || lockstep(engine, step, w, runs, barrier, None))
            })
            .collect();
        lockstep(engine, &step, 0, &runs, &barrier, Some(&mut acc));
        for peer in peers {
            if let Err(panic) = peer.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    // Free the population before `finish` builds the output series, so
    // they can reuse its memory.
    drop(runs);
    drop(chunks);
    ect_microsim::record_throughput(engine.num_ues(), engine.slots(), started.elapsed());
    Ok(engine.finish(acc))
}

/// One worker's part of the lockstep synthesis: steps run `me` with
/// `step` every slot, and folds the whole population when it holds the
/// accumulator (the calling thread). Returns early once the barrier
/// breaks.
fn lockstep(
    engine: &MicrosimEngine,
    step: &impl Fn(&mut UeChunk, usize),
    me: usize,
    runs: &[Mutex<&mut [UeChunk]>],
    barrier: &BreakableBarrier,
    mut acc: Option<&mut DemandAccumulator>,
) {
    let _break_on_panic = BreakOnPanic(barrier);
    for slot in 0..engine.slots() {
        let span = acc.is_some().then(|| ect_obs::span("microsim.step"));
        for chunk in runs[me].lock().iter_mut() {
            step(chunk, slot);
        }
        if !barrier.wait() {
            return;
        }
        if let Some(acc) = acc.as_deref_mut() {
            let population: Vec<_> = runs.iter().map(|run| run.lock()).collect();
            engine.fold(slot, population.iter().flat_map(|run| run.iter()), acc);
            ect_obs::counter_add("microsim.associations", engine.num_ues() as u64);
        }
        drop(span);
        if !barrier.wait() {
            return;
        }
    }
}

/// A reusable barrier over a fixed number of parties that a panicking
/// party breaks: `std::sync::Barrier` would leave the others blocked
/// forever. Waiters block on a condition variable, never spin, so the
/// driver can run nested under other dispatch workers.
struct BreakableBarrier {
    parties: usize,
    state: std::sync::Mutex<BarrierState>,
    turn: std::sync::Condvar,
}

struct BarrierState {
    arrived: usize,
    generation: u64,
    broken: bool,
}

impl BreakableBarrier {
    fn new(parties: usize) -> Self {
        Self {
            parties,
            state: std::sync::Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
                broken: false,
            }),
            turn: std::sync::Condvar::new(),
        }
    }

    /// The state, recovered from poisoning: no code panics while holding
    /// the lock, and every update leaves the state valid.
    fn state(&self) -> std::sync::MutexGuard<'_, BarrierState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Blocks until every party has arrived; `false` when the barrier was
    /// broken before or while waiting.
    fn wait(&self) -> bool {
        let mut state = self.state();
        if state.broken {
            return false;
        }
        state.arrived += 1;
        if state.arrived == self.parties {
            state.arrived = 0;
            state.generation += 1;
            self.turn.notify_all();
            return true;
        }
        let generation = state.generation;
        let state = self
            .turn
            .wait_while(state, |s| s.generation == generation && !s.broken)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        !state.broken
    }
}

/// Breaks the barrier when its holder unwinds, releasing every waiter.
struct BreakOnPanic<'a>(&'a BreakableBarrier);

impl Drop for BreakOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.state().broken = true;
            self.0.turn.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Thread counts the driver is pinned at: 0 (one worker per shard),
    /// one (no spawned thread), and more workers than some populations
    /// have chunks.
    const THREADS: [usize; 5] = [0, 1, 2, 3, 8];

    fn options(num_ues: usize) -> MicrosimDemandOptions {
        MicrosimDemandOptions {
            microsim: MicrosimConfig {
                num_ues,
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

    fn engine(opts: &MicrosimDemandOptions) -> MicrosimEngine {
        let region = Region::generate(
            &opts.region,
            &mut EctRng::seed_from(opts.seed ^ MICROSIM_REGION_SEED_STREAM),
        )
        .unwrap();
        MicrosimEngine::new(
            &opts.microsim,
            &region,
            opts.num_hubs,
            opts.slots,
            opts.seed,
        )
        .unwrap()
    }

    #[test]
    fn parallel_matches_sequential_bit_for_bit() {
        // Within one shard, over two shards with a partial last one, and
        // fewer UEs (so chunks) than workers.
        for num_ues in [2_000, 2 * ect_microsim::SHARD_UES + 5, 5] {
            let engine = engine(&options(num_ues));
            let sequential = engine.synthesize().unwrap();
            for threads in THREADS {
                let parallel = synthesize_demand_parallel(&engine, threads).unwrap();
                assert_eq!(
                    parallel, sequential,
                    "{num_ues} UEs diverged at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn options_build_is_pure() {
        for num_ues in [2_000, 5] {
            let opts = options(num_ues);
            let first = opts.build(2).unwrap();
            for threads in THREADS {
                assert_eq!(opts.build(threads).unwrap(), first, "{threads} threads");
            }
        }
    }

    #[test]
    fn a_panicking_worker_ends_the_synthesis_with_its_panic() {
        let engine = engine(&options(2_000));
        let caller = std::thread::current().id();
        // A spawned worker panics, then the calling thread does: either
        // way the others are released and the first panic propagates.
        for on_caller in [false, true] {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                synthesize_lockstep(&engine, 3, |chunk, slot| {
                    if slot == 5 && (std::thread::current().id() == caller) == on_caller {
                        panic!("chunk step failed");
                    }
                    engine.step_chunk(chunk, slot);
                })
            }));
            let payload = outcome.expect_err("the synthesis must panic");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"chunk step failed"),
                "on the caller: {on_caller}"
            );
        }
    }
}
