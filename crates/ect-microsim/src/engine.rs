//! The SoA particle engine: UE mobility on the road graph, per-slot
//! association through the per-segment nearest-hub candidate lists, and
//! pathloss-weighted aggregation into per-hub demand series.
//!
//! # Determinism contract
//!
//! Every per-UE draw is a pure hash of `(seed, ue index, slot)` — no
//! sequential RNG stream crosses UE or slot boundaries — so the population
//! can be cut into any number of contiguous [`UeChunk`]s and each chunk
//! stepped on any thread: a UE's position, hub and demand never depend on
//! the cut. The cut is sized for load balance (equal chunks, a multiple
//! of the worker count). Nor do they depend on which thread owns a chunk:
//! the lockstep driver gives each worker a fixed run of chunks for the
//! whole horizon, and needs only that a slot's fold runs after every chunk
//! stepped through that slot and before any steps through the next.
//!
//! The floating-point sums are the part that must not depend on it. The
//! fold ([`MicrosimEngine::fold`]) walks the UEs of a slot in global order
//! on one thread and sums them in fixed [`SHARD_UES`]-sized shards: each
//! shard's per-hub partial starts at zero and adds its UEs in order, and
//! the partials join the `[slot][hub]` accumulator in shard order. The
//! synthesized demand is therefore bit-identical at every thread count
//! and chunk cut, and pure in `(config, region, num_hubs, slots, seed)`;
//! `tests/microsim_determinism.rs` pins both properties and golden
//! checksums of the output bits.

use crate::config::MicrosimConfig;
use crate::grid::{nearest_brute_force, SegmentIndex};
use ect_data::rtp::demand_shape;
use ect_data::spatial::{Point, Region, RoadKind};
use ect_data::traffic::TrafficSample;
use ect_types::time::SLOTS_PER_DAY;
use ect_types::units::LoadRate;
use serde::{Deserialize, Serialize};

/// UEs per shard: the unit of the fold's floating-point summation. Fixed
/// (never derived from the thread count or the chunk cut) so the fold
/// order is identical on every machine.
pub const SHARD_UES: usize = 4096;

/// Representative sample cap per flash crowd; larger populations are
/// scaled, keeping event cost bounded while the aggregate load matches.
const CROWD_SAMPLES: usize = 2048;

/// UEs per pass of [`MicrosimEngine::step_chunk`]: small enough that the
/// block's lanes stay in L1 between passes.
const STEP_BLOCK: usize = 256;

/// Stream separators for the stateless per-UE hash draws.
const STREAM_INIT: u64 = 0x0515_AB1E;
const STREAM_STEP: u64 = 0x57E9_0DD5;
const STREAM_CROWD: u64 = 0xC09D_FACE;

/// SplitMix64 finaliser: the stateless mixing primitive behind every
/// microsim draw.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform `[0, 1)` from 64 hashed bits.
#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A UE's personal speed multiplier, from its [`MicrosimEngine::init_hash`].
#[inline]
fn jitter(init: u64) -> f64 {
    0.75 + 0.5 * unit(mix64(init ^ 1))
}

/// `x.rem_euclid(2.0)`, bit for bit, without the out-of-line `fmod` call
/// behind `%`.
///
/// For `|x| < 2^52`, `q = trunc(x / 2)` is `(x · 0.5) as i64` exactly
/// (halving is exact for `|x| ≥ 2`, and for `|x| < 2` the quotient is
/// 0 either way), and `x − 2q` is exact: it is `x` itself when `q = 0`,
/// and otherwise `2q` lies within a factor two of `x` (Sterbenz). So it
/// equals `fmod(x, 2)`, an exact operation too, except that an exact
/// zero must carry the sign of `x` (`fmod(−4, 2)` is `−0.0`), which the
/// `copysign` restores. Larger and non-finite `x` take `%`. The last line
/// is `rem_euclid`'s own fix-up.
#[inline]
fn rem_euclid_2(x: f64) -> f64 {
    const EXACT_BELOW: f64 = (1u64 << 52) as f64;
    let r = if x.abs() < EXACT_BELOW {
        (x - 2.0 * ((x * 0.5) as i64 as f64)).copysign(x)
    } else {
        x % 2.0
    };
    if r < 0.0 {
        r + 2.0
    } else {
        r
    }
}

/// Decorrelates a UE index before mixing (consecutive integers would
/// otherwise share most of their bits).
#[inline]
fn spread(ue: u64) -> u64 {
    ue.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Per-segment mobility data, laid out as parallel arrays (the segment
/// geometry lives in the [`SegmentIndex`]).
#[derive(Debug, Clone)]
struct RoadTable {
    len_km: Vec<f64>,
    speed_kmh: Vec<f64>,
    /// Cumulative segment length, for length-weighted sampling.
    cum_len: Vec<f64>,
    total_len: f64,
}

impl RoadTable {
    fn new(region: &Region, config: &MicrosimConfig) -> Self {
        let n = region.roads.len();
        let mut table = Self {
            len_km: Vec::with_capacity(n),
            speed_kmh: Vec::with_capacity(n),
            cum_len: Vec::with_capacity(n),
            total_len: 0.0,
        };
        for road in &region.roads {
            table.len_km.push(road.length().max(1e-9));
            table.speed_kmh.push(match road.kind {
                RoadKind::Highway => config.highway_speed_kmh,
                RoadKind::Urban => config.urban_speed_kmh,
            });
            table.total_len += road.length();
            table.cum_len.push(table.total_len);
        }
        table
    }

    /// Length-weighted segment pick from one uniform draw.
    #[inline]
    fn sample_segment(&self, u: f64) -> u32 {
        let x = u * self.total_len;
        self.cum_len
            .partition_point(|&c| c <= x)
            .min(self.cum_len.len() - 1) as u32
    }
}

/// A contiguous run of the UE population, structure-of-arrays: each lane
/// holds one attribute per UE, plus every UE's association in the last
/// slot the chunk was stepped through.
#[derive(Debug, Clone)]
pub struct UeChunk {
    /// Global index of the chunk's first UE.
    base: u64,
    seg: Vec<u32>,
    t: Vec<f64>,
    /// Direction of travel along the segment: `1` towards its end, `-1`
    /// towards its start.
    dir: Vec<i8>,
    /// Current speed, km per slot: the segment's kind speed times the UE's
    /// personal jitter. The jitter is not stored but rehashed on a segment
    /// hop: the `microsim` experiment's 1M-UE rung holds every lane at
    /// once, so each byte per UE is a megabyte of peak memory.
    speed: Vec<f64>,
    /// Personal demand multiplier.
    activity: Vec<f64>,
    is_ev: Vec<bool>,
    /// Hub each UE associated to in the last stepped slot.
    hub: Vec<u32>,
    /// That slot's pathloss-weighted demand of each UE.
    demand: Vec<f64>,
}

impl UeChunk {
    /// UEs in this chunk.
    #[must_use]
    pub fn len(&self) -> usize {
        self.seg.len()
    }

    /// `true` when the chunk holds no UEs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.seg.is_empty()
    }
}

/// Running `[slot][hub]` aggregation across the whole horizon, plus the
/// reused per-hub partial of the shard being folded. One small row per
/// slot (see the crate docs on allocation size).
#[derive(Debug, Clone)]
pub struct DemandAccumulator {
    /// Pathloss-weighted load, `load[slot][hub]`.
    load: Vec<Vec<f64>>,
    /// EV arrival mass, same layout.
    ev: Vec<Vec<f64>>,
    shard_load: Vec<f64>,
    shard_ev: Vec<f64>,
    associations: u64,
}

impl DemandAccumulator {
    /// Adds the shard partial into the slot's row and zeroes it for the
    /// next shard.
    fn flush_shard(&mut self, slot: usize) {
        for (acc, part) in self.load[slot].iter_mut().zip(&mut self.shard_load) {
            *acc += std::mem::take(part);
        }
        for (acc, part) in self.ev[slot].iter_mut().zip(&mut self.shard_ev) {
            *acc += std::mem::take(part);
        }
    }
}

/// The synthesized demand: per-hub traffic and EV-arrival series, plus the
/// hub sites they were aggregated against. Serialisable — this is the
/// artifact the session disk cache stores.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MicrosimDemand {
    /// Simulated population size.
    pub num_ues: usize,
    /// Hubs the load was aggregated onto.
    pub num_hubs: usize,
    /// Horizon in slots.
    pub slots: usize,
    /// Hub positions (stride-sited on the region's base stations, the same
    /// rule as [`ect_data::topology::HubTopology::from_region`]).
    pub hub_sites: Vec<Point>,
    /// Per-hub traffic series, `traffic[hub][slot]`.
    pub traffic: Vec<Vec<TrafficSample>>,
    /// Per-hub expected EV arrivals, `ev_arrivals[hub][slot]`.
    pub ev_arrivals: Vec<Vec<f64>>,
    /// Total UE→hub associations performed (UEs × slots).
    pub total_associations: u64,
}

impl MicrosimDemand {
    /// Peak load rate of one hub across the horizon.
    ///
    /// # Panics
    ///
    /// Panics when `hub` is out of range.
    #[must_use]
    pub fn hub_peak(&self, hub: usize) -> f64 {
        self.traffic[hub]
            .iter()
            .map(|s| s.load_rate.as_f64())
            .fold(0.0, f64::max)
    }

    /// Peak load rate across all hubs and slots.
    #[must_use]
    pub fn peak_load_rate(&self) -> f64 {
        (0..self.num_hubs)
            .map(|h| self.hub_peak(h))
            .fold(0.0, f64::max)
    }

    /// Mean load rate across all hubs and slots.
    #[must_use]
    pub fn mean_load_rate(&self) -> f64 {
        let total: f64 = self
            .traffic
            .iter()
            .flat_map(|series| series.iter())
            .map(|s| s.load_rate.as_f64())
            .sum();
        total / (self.num_hubs * self.slots).max(1) as f64
    }

    /// The per-hub series as `Arc` slices, ready for
    /// `fleet_env_for_hubs_with_traffic`-style consumers.
    #[must_use]
    pub fn traffic_arcs(&self) -> Vec<std::sync::Arc<[TrafficSample]>> {
        self.traffic
            .iter()
            .map(|series| series.as_slice().into())
            .collect()
    }
}

/// Hub positions for a region: evenly strided over its base stations —
/// exactly the siting rule of
/// [`ect_data::topology::HubTopology::from_region`], so the microsim's
/// geography agrees with the coupling topology's.
///
/// # Errors
///
/// Returns [`ect_types::EctError::InvalidConfig`] for zero hubs and
/// [`ect_types::EctError::InsufficientData`] when the region holds fewer
/// base stations than hubs.
pub fn hub_sites(region: &Region, num_hubs: usize) -> ect_types::Result<Vec<Point>> {
    if num_hubs == 0 {
        return Err(ect_types::EctError::InvalidConfig(
            "microsim needs at least one hub".into(),
        ));
    }
    if region.base_stations.len() < num_hubs {
        return Err(ect_types::EctError::InsufficientData(format!(
            "region has {} base stations, cannot site {num_hubs} hubs",
            region.base_stations.len()
        )));
    }
    let stride = region.base_stations.len() / num_hubs;
    Ok((0..num_hubs)
        .map(|hub| region.base_stations[hub * stride])
        .collect())
}

/// The microsimulation engine: immutable shared state (road table, hub
/// segment index, config) plus the pure chunk-step kernel. `Sync`, so
/// chunks can be stepped from any number of worker threads.
#[derive(Debug, Clone)]
pub struct MicrosimEngine {
    config: MicrosimConfig,
    roads: RoadTable,
    /// The hub sites and their per-segment candidate lists.
    index: SegmentIndex,
    slots: usize,
    seed: u64,
    /// Per crowd: sampled `(hub, pathloss weight)` pairs plus the
    /// population scale they stand for.
    crowd_assoc: Vec<(Vec<(u32, f64)>, f64)>,
}

impl MicrosimEngine {
    /// Validates the inputs and precomputes the road table, the hub
    /// segment index and the flash-crowd associations.
    ///
    /// # Errors
    ///
    /// Returns [`ect_types::EctError::InvalidConfig`] for an invalid
    /// config, an empty road graph, zero hubs or zero slots, and
    /// [`ect_types::EctError::InsufficientData`] when the region cannot
    /// site `num_hubs` hubs.
    pub fn new(
        config: &MicrosimConfig,
        region: &Region,
        num_hubs: usize,
        slots: usize,
        seed: u64,
    ) -> ect_types::Result<Self> {
        config.validate()?;
        if region.roads.is_empty() {
            return Err(ect_types::EctError::InvalidConfig(
                "microsim needs a region with at least one road segment".into(),
            ));
        }
        if slots == 0 {
            return Err(ect_types::EctError::InvalidConfig(
                "microsim needs at least one slot".into(),
            ));
        }
        let index = SegmentIndex::new(&hub_sites(region, num_hubs)?, &region.roads)?;
        let roads = RoadTable::new(region, config);
        let mut engine = Self {
            config: config.clone(),
            roads,
            index,
            slots,
            seed,
            crowd_assoc: Vec::new(),
        };
        engine.crowd_assoc = engine.associate_crowds(region);
        Ok(engine)
    }

    /// Samples every flash crowd's scatter once and associates the sample
    /// points — crowds are static while active, so their hub weights never
    /// change across the window.
    fn associate_crowds(&self, region: &Region) -> Vec<(Vec<(u32, f64)>, f64)> {
        self.config
            .flash_crowds
            .iter()
            .enumerate()
            .map(|(event, crowd)| {
                let anchor = region.roads[crowd.road % region.roads.len()].point_at(0.5);
                let samples = crowd.population.min(CROWD_SAMPLES);
                let scale = crowd.population as f64 / samples as f64;
                let assoc = (0..samples)
                    .map(|k| {
                        let h = mix64(
                            self.seed
                                ^ mix64(spread(k as u64) ^ mix64(event as u64 ^ STREAM_CROWD)),
                        );
                        // Box-Muller scatter around the anchor.
                        let u1 = unit(h).max(1e-12);
                        let u2 = unit(mix64(h ^ 1));
                        let r = crowd.spread_km * (-2.0 * u1.ln()).sqrt();
                        let theta = std::f64::consts::TAU * u2;
                        let p = (anchor.0 + r * theta.cos(), anchor.1 + r * theta.sin());
                        let (hub, d) = nearest_brute_force(self.index.sites(), p);
                        (hub as u32, self.pathloss(d))
                    })
                    .collect();
                (assoc, scale)
            })
            .collect()
    }

    /// Simulated population size.
    #[must_use]
    pub fn num_ues(&self) -> usize {
        self.config.num_ues
    }

    /// Hub count the demand aggregates onto.
    #[must_use]
    pub fn num_hubs(&self) -> usize {
        self.index.sites().len()
    }

    /// Horizon in slots.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.slots
    }

    #[inline]
    fn pathloss(&self, d: f64) -> f64 {
        1.0 / (1.0 + (d / self.config.pathloss_ref_km).powf(self.config.pathloss_exponent))
    }

    /// Commute-wave multiplier: morning and evening Gaussian bumps.
    #[inline]
    fn commute_factor(&self, hour: usize) -> f64 {
        let bump = |peak: f64| {
            let z = (hour as f64 - peak) / 1.5;
            (-0.5 * z * z).exp()
        };
        1.0 + self.config.commute_amplitude * (bump(8.0) + bump(18.0))
    }

    /// Demand of one unit-activity UE at this hour (before the personal
    /// activity multiplier and pathloss weight).
    #[inline]
    fn base_demand(&self, hour: usize) -> f64 {
        let commute = self.commute_factor(hour);
        self.config.activity_floor + self.config.activity_swing * demand_shape(hour) * commute
    }

    /// Materialises the population as near-equal contiguous chunks for
    /// `workers` workers: a multiple of `workers` chunks, the fewest that
    /// keep each within [`SHARD_UES`] UEs (so its lanes stay small
    /// allocations), never more than one per UE. Every UE's state derives
    /// from its global index alone — so the cut never moves a UE.
    #[must_use]
    pub fn spawn_chunks(&self, workers: usize) -> Vec<UeChunk> {
        let num_ues = self.config.num_ues;
        let workers = workers.max(1);
        let parts = (workers * num_ues.div_ceil(workers * SHARD_UES)).min(num_ues);
        (0..parts)
            .map(|part| self.spawn_chunk(part * num_ues / parts..(part + 1) * num_ues / parts))
            .collect()
    }

    /// The hash a UE's initial state and personal traits derive from.
    fn init_hash(&self, ue: u64) -> u64 {
        mix64(self.seed ^ mix64(spread(ue) ^ STREAM_INIT))
    }

    fn spawn_chunk(&self, ues: std::ops::Range<usize>) -> UeChunk {
        let len = ues.len();
        let mut chunk = UeChunk {
            base: ues.start as u64,
            seg: Vec::with_capacity(len),
            t: Vec::with_capacity(len),
            dir: Vec::with_capacity(len),
            speed: Vec::with_capacity(len),
            activity: Vec::with_capacity(len),
            is_ev: Vec::with_capacity(len),
            hub: vec![0; len],
            demand: vec![0.0; len],
        };
        for ue in ues {
            let h = self.init_hash(ue as u64);
            let seg = self.roads.sample_segment(unit(h));
            chunk.seg.push(seg);
            chunk.t.push(unit(mix64(h ^ 2)));
            chunk.dir.push(if mix64(h ^ 3) & 1 == 0 { 1 } else { -1 });
            chunk
                .speed
                .push(self.roads.speed_kmh[seg as usize] * jitter(h));
            chunk.activity.push(0.5 + unit(mix64(h ^ 4)));
            chunk
                .is_ev
                .push(unit(mix64(h ^ 5)) < self.config.ev_fraction);
        }
        chunk
    }

    /// Advances one chunk by one slot (mobility) and associates every UE
    /// to its nearest hub, storing each UE's hub and pathloss-weighted
    /// demand in the chunk for [`Self::fold`]. Pure in `(chunk state,
    /// slot)` — safe to fan out. Adds the sites the association
    /// distance-tested to the `microsim.candidates` counter, once per call.
    pub fn step_chunk(&self, chunk: &mut UeChunk, slot: usize) {
        let hour = slot % SLOTS_PER_DAY;
        let commute = self.commute_factor(hour);
        let base_demand = self.base_demand(hour);
        let step_base = mix64(self.seed ^ mix64(slot as u64 ^ STREAM_STEP));
        let mut tested = 0;
        // Three passes per block of UEs — mobility, association, pathloss —
        // so each pass's per-UE chains are independent and overlap in the
        // out-of-order core; every UE sees the same operations as in one
        // fused loop. The passes keep branches off the per-UE path: the
        // wrap into [0, 2) is inline arithmetic (`rem_euclid_2`, exact, no
        // `fmod` call), the endpoint reflection, taken for about half the
        // UEs, is a pair of selects that pick the very values the branch
        // would, and `nearest` settles a bin's first two candidates by a
        // select. The rewire branch stays: its rare hop is predicted.
        for start in (0..chunk.len()).step_by(STEP_BLOCK) {
            let ues = start..(start + STEP_BLOCK).min(chunk.len());
            for i in ues.clone() {
                let ue = chunk.base + i as u64;
                let h = mix64(step_base ^ spread(ue));
                // Rewire: hop to a fresh length-weighted segment, keeping
                // the along-segment offset; speed follows the new segment's
                // class.
                if unit(h) < self.config.rewire_chance {
                    let seg = self.roads.sample_segment(unit(mix64(h ^ 1)));
                    chunk.seg[i] = seg;
                    chunk.speed[i] =
                        self.roads.speed_kmh[seg as usize] * jitter(self.init_hash(ue));
                }
                // Advance along the segment (one slot = one hour, so km/h
                // is km/slot), reflecting at the endpoints.
                let seg = chunk.seg[i] as usize;
                let advance = chunk.speed[i] * commute / self.roads.len_km[seg];
                let pos = rem_euclid_2(chunk.t[i] + f64::from(chunk.dir[i]) * advance);
                let back = pos > 1.0;
                chunk.t[i] = if back { 2.0 - pos } else { pos };
                chunk.dir[i] *= 1 - 2 * i8::from(back);
            }
            // Associate; `demand` holds the hub distance until the last pass.
            for i in ues.clone() {
                let (hub, d, sites) = self.index.nearest(chunk.seg[i], chunk.t[i]);
                tested += sites;
                chunk.hub[i] = hub as u32;
                chunk.demand[i] = d;
            }
            for i in ues {
                chunk.demand[i] = base_demand * chunk.activity[i] * self.pathloss(chunk.demand[i]);
            }
        }
        ect_obs::counter_add("microsim.candidates", tested as u64);
    }

    /// A zeroed accumulator sized for this engine's horizon.
    #[must_use]
    pub fn accumulator(&self) -> DemandAccumulator {
        let hubs = self.num_hubs();
        DemandAccumulator {
            load: vec![vec![0.0; hubs]; self.slots],
            ev: vec![vec![0.0; hubs]; self.slots],
            shard_load: vec![0.0; hubs],
            shard_ev: vec![0.0; hubs],
            associations: 0,
        }
    }

    /// Folds one stepped slot into the accumulator. `chunks` must be the
    /// whole population in UE order (as [`Self::spawn_chunks`] returns
    /// it): the fold sums UEs in that order within each [`SHARD_UES`]
    /// shard, then adds the shard partials in shard order, so the sums do
    /// not depend on how the population was cut.
    pub fn fold<'a>(
        &self,
        slot: usize,
        chunks: impl IntoIterator<Item = &'a UeChunk>,
        acc: &mut DemandAccumulator,
    ) {
        let mut ue = 0;
        for chunk in chunks {
            debug_assert_eq!(chunk.base, ue as u64, "chunks must tile the population");
            for ((&hub, &demand), &is_ev) in chunk.hub.iter().zip(&chunk.demand).zip(&chunk.is_ev) {
                acc.shard_load[hub as usize] += demand;
                // The sums start at +0.0 and add non-negative demands, and
                // adding +0.0 leaves such a sum's bits unchanged: non-EV UEs
                // add it instead of branching.
                acc.shard_ev[hub as usize] += if is_ev { demand } else { 0.0 };
                ue += 1;
                if ue % SHARD_UES == 0 {
                    acc.flush_shard(slot);
                }
            }
        }
        if ue % SHARD_UES != 0 {
            acc.flush_shard(slot);
        }
        acc.associations += ue as u64;
    }

    /// Applies the flash-crowd surges and converts the raw weighted-load
    /// matrix into per-hub [`TrafficSample`] and EV-arrival series.
    #[must_use]
    pub fn finish(&self, mut acc: DemandAccumulator) -> MicrosimDemand {
        let hubs = self.num_hubs();
        for (crowd, (assoc, scale)) in self.config.flash_crowds.iter().zip(&self.crowd_assoc) {
            for slot in crowd.start_slot..(crowd.start_slot + crowd.len_slots).min(self.slots) {
                let per_head = self.base_demand(slot % SLOTS_PER_DAY) * scale;
                for &(hub, w) in assoc {
                    acc.load[slot][hub as usize] += per_head * w;
                    acc.ev[slot][hub as usize] += self.config.ev_fraction * per_head * w;
                }
            }
        }
        // EV series first, dropping their matrix before the traffic series
        // are built, so the accumulator and the output never all coexist.
        let ev_arrivals = (0..hubs)
            .map(|hub| acc.ev.iter().map(|row| row[hub]).collect())
            .collect();
        drop(std::mem::take(&mut acc.ev));
        let traffic = (0..hubs)
            .map(|hub| {
                acc.load
                    .iter()
                    .map(|row| {
                        let raw = row[hub];
                        let load_rate = LoadRate::saturating(raw / self.config.ues_per_full_load);
                        TrafficSample {
                            load_rate,
                            volume_gb: load_rate.as_f64() * self.config.full_load_gb,
                        }
                    })
                    .collect()
            })
            .collect();
        MicrosimDemand {
            num_ues: self.config.num_ues,
            num_hubs: hubs,
            slots: self.slots,
            hub_sites: self.index.sites().to_vec(),
            traffic,
            ev_arrivals,
            total_associations: acc.associations,
        }
    }

    /// Runs the whole simulation on the calling thread — the sequential
    /// reference path. `ect_core::microsim::synthesize_demand_parallel`
    /// steps chunks on lockstep workers and is pinned bit-identical to
    /// this.
    ///
    /// # Errors
    ///
    /// Currently infallible after construction; the `Result` keeps the
    /// signature aligned with the parallel driver.
    pub fn synthesize(&self) -> ect_types::Result<MicrosimDemand> {
        let started = std::time::Instant::now();
        let mut chunks = self.spawn_chunks(1);
        let mut acc = self.accumulator();
        for slot in 0..self.slots {
            let _span = ect_obs::span("microsim.step");
            for chunk in &mut chunks {
                self.step_chunk(chunk, slot);
            }
            self.fold(slot, &chunks, &mut acc);
            ect_obs::counter_add("microsim.associations", self.config.num_ues as u64);
        }
        drop(chunks);
        record_throughput(self.config.num_ues, self.slots, started.elapsed());
        Ok(self.finish(acc))
    }
}

/// Records the end-to-end UE-slots/sec of one synthesis into the shared
/// telemetry histogram (used by both the sequential and parallel drivers).
pub fn record_throughput(num_ues: usize, slots: usize, elapsed: std::time::Duration) {
    let secs = elapsed.as_secs_f64();
    if secs > 0.0 {
        let rate = (num_ues as f64 * slots as f64 / secs) as u64;
        ect_obs::histogram_record("microsim.ue_slots_per_s", rate);
    }
}

/// One-call demand synthesis: builds the engine and runs it sequentially.
///
/// # Errors
///
/// Propagates [`MicrosimEngine::new`] validation failures.
pub fn synthesize_demand(
    config: &MicrosimConfig,
    region: &Region,
    num_hubs: usize,
    slots: usize,
    seed: u64,
) -> ect_types::Result<MicrosimDemand> {
    MicrosimEngine::new(config, region, num_hubs, slots, seed)?.synthesize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlashCrowd;
    use ect_data::spatial::RegionConfig;
    use ect_types::rng::EctRng;
    use proptest::prelude::*;

    fn small_region(seed: u64) -> Region {
        Region::generate(
            &RegionConfig {
                size_km: 60.0,
                num_highways: 3,
                num_cities: 2,
                streets_per_city: 4,
                city_radius_km: 5.0,
                num_base_stations: 120,
                ..RegionConfig::default()
            },
            &mut EctRng::seed_from(seed),
        )
        .unwrap()
    }

    fn small_config() -> MicrosimConfig {
        MicrosimConfig {
            num_ues: 1_500,
            ..MicrosimConfig::default()
        }
    }

    #[test]
    fn hub_sites_follow_the_topology_stride() {
        let region = small_region(3);
        let sites = hub_sites(&region, 5).unwrap();
        let stride = region.base_stations.len() / 5;
        assert_eq!(sites.len(), 5);
        for (hub, &site) in sites.iter().enumerate() {
            assert_eq!(site, region.base_stations[hub * stride]);
        }
        assert!(hub_sites(&region, 0).is_err());
        assert!(hub_sites(&region, region.base_stations.len() + 1).is_err());
    }

    #[test]
    fn demand_has_the_requested_shape() {
        let region = small_region(11);
        let demand = synthesize_demand(&small_config(), &region, 4, 48, 9).unwrap();
        assert_eq!(demand.num_hubs, 4);
        assert_eq!(demand.slots, 48);
        assert_eq!(demand.traffic.len(), 4);
        assert!(demand.traffic.iter().all(|s| s.len() == 48));
        assert!(demand.ev_arrivals.iter().all(|s| s.len() == 48));
        assert_eq!(demand.total_associations, 1_500 * 48);
        assert!(demand.peak_load_rate() > 0.0);
        // Every sample stays a valid load rate with consistent volume.
        for series in &demand.traffic {
            for sample in series {
                let rate = sample.load_rate.as_f64();
                assert!((0.0..=1.0).contains(&rate));
                assert!((sample.volume_gb - rate * 160.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn same_inputs_are_bit_identical() {
        let region = small_region(21);
        let config = small_config();
        let a = synthesize_demand(&config, &region, 3, 24, 77).unwrap();
        let b = synthesize_demand(&config, &region, 3, 24, 77).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn seed_and_config_move_the_output() {
        let region = small_region(21);
        let config = small_config();
        let base = synthesize_demand(&config, &region, 3, 24, 77).unwrap();
        let reseeded = synthesize_demand(&config, &region, 3, 24, 78).unwrap();
        assert_ne!(base, reseeded);
        let busier = synthesize_demand(
            &MicrosimConfig {
                num_ues: 3_000,
                ..config
            },
            &region,
            3,
            24,
            77,
        )
        .unwrap();
        assert!(busier.mean_load_rate() > base.mean_load_rate());
    }

    #[test]
    fn diurnal_pattern_shows_up() {
        // With enough UEs the evening peak (hour 20) must out-demand the
        // overnight trough (hour 4) on aggregate.
        let region = small_region(5);
        let demand = synthesize_demand(&small_config(), &region, 2, 24, 1).unwrap();
        let at = |hour: usize| -> f64 {
            demand
                .traffic
                .iter()
                .map(|s| s[hour].load_rate.as_f64())
                .sum()
        };
        assert!(at(20) > at(4), "evening {} <= night {}", at(20), at(4));
    }

    #[test]
    fn flash_crowd_lifts_the_window() {
        let region = small_region(13);
        let quiet = synthesize_demand(&small_config(), &region, 3, 48, 5).unwrap();
        let crowd_config = MicrosimConfig {
            flash_crowds: vec![FlashCrowd {
                start_slot: 20,
                len_slots: 6,
                population: 4_000,
                road: 1,
                spread_km: 1.5,
            }],
            ..small_config()
        };
        let surged = synthesize_demand(&crowd_config, &region, 3, 48, 5).unwrap();
        let total_at = |d: &MicrosimDemand, slot: usize| -> f64 {
            d.traffic.iter().map(|s| s[slot].load_rate.as_f64()).sum()
        };
        // Inside the window the surge adds load; outside it nothing moves.
        assert!(total_at(&surged, 22) > total_at(&quiet, 22));
        assert_eq!(total_at(&surged, 10), total_at(&quiet, 10));
        assert_eq!(total_at(&surged, 40), total_at(&quiet, 40));
    }

    #[test]
    fn demand_round_trips_through_json() {
        let region = small_region(31);
        let demand = synthesize_demand(
            &MicrosimConfig {
                num_ues: 400,
                ..MicrosimConfig::default()
            },
            &region,
            2,
            12,
            3,
        )
        .unwrap();
        let json = serde_json::to_string(&demand).unwrap();
        let back: MicrosimDemand = serde_json::from_str(&json).unwrap();
        assert_eq!(back, demand);
    }

    #[test]
    fn engine_rejects_degenerate_inputs() {
        let region = small_region(1);
        let config = small_config();
        assert!(MicrosimEngine::new(&config, &region, 0, 24, 1).is_err());
        assert!(MicrosimEngine::new(&config, &region, 2, 0, 1).is_err());
        let bare = Region {
            roads: Vec::new(),
            base_stations: region.base_stations.clone(),
            size_km: region.size_km,
        };
        assert!(MicrosimEngine::new(&config, &bare, 2, 24, 1).is_err());
    }

    /// `rem_euclid_2(x)` has the bits of `x.rem_euclid(2.0)`; a NaN only
    /// has to stay a NaN.
    fn assert_rem_exact(x: f64) {
        let (got, want) = (rem_euclid_2(x), x.rem_euclid(2.0));
        if want.is_nan() {
            assert!(got.is_nan(), "rem_euclid_2({x}) = {got}, not NaN");
        } else {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "rem_euclid_2({x:e}) = {got:e}, std gives {want:e}"
            );
        }
    }

    #[test]
    fn rem_euclid_2_is_exact_at_zeros_even_multiples_and_the_fallback() {
        let two_52 = (1u64 << 52) as f64;
        let mut xs = vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        // Exact even multiples of both signs and the floats one ulp either
        // side, from 2 up to beyond 2^52 where `%` takes over.
        for k in [
            1u64,
            2,
            3,
            7,
            1 << 20,
            (1 << 51) - 1,
            1 << 51,
            1 << 52,
            1 << 60,
        ] {
            let even = 2.0 * k as f64;
            for x in [even, -even] {
                xs.extend([x, x.next_up(), x.next_down()]);
            }
        }
        // `|x|` in [1, 2) and right at 2^52.
        for x in [
            1.0,
            1.5,
            2.0f64.next_down(),
            two_52,
            two_52.next_down(),
            two_52.next_up(),
        ] {
            xs.extend([x, -x]);
        }
        for x in xs {
            assert_rem_exact(x);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Any bit pattern: all magnitudes, subnormals, infinities, NaNs.
        #[test]
        fn rem_euclid_2_matches_std_on_any_bits(bits in 0..u64::MAX) {
            assert_rem_exact(f64::from_bits(bits));
        }

        /// The range the mobility step feeds it: a position in [0, 1]
        /// plus or minus an advance of up to a few hundred segment lengths.
        #[test]
        fn rem_euclid_2_matches_std_on_positions(x in -1e3f64..1e3, small in -2.0f64..2.0) {
            assert_rem_exact(x);
            assert_rem_exact(small);
        }
    }
}
