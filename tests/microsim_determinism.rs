//! Acceptance pins of the UE demand microsimulation (ect-microsim).
//!
//! Three contracts:
//!
//! 1. **Thread-count invariance** — the parallel driver
//!    (`synthesize_demand_parallel`, lockstep workers) is
//!    bit-identical to the sequential engine at every worker count:
//!    parallelism never leaks into the demand artifact.
//! 2. **Purity** — the synthesized demand is a pure function of
//!    `(MicrosimDemandOptions)`: same options reproduce the same series
//!    bit for bit, and the seed / population / flash-crowd knobs actually
//!    move it. The session face memoises exactly that function.
//! 3. **Fleet injection** — the microsim per-hub series drive a
//!    [`FleetEnv`] through `fleet_env_for_hubs_with_traffic`,
//!    reproducibly, and produce trajectories the aggregate generator does
//!    not.
//! 4. **Golden bits** — FNV-1a checksums over every `traffic` and
//!    `ev_arrivals` bit plus `total_associations` pin the synthesized
//!    demand itself, for the small options above and for a metro-shaped
//!    area (200 km square, 3,000 base stations, 2,000 hubs). A change to
//!    the association search, the mobility kernel or the fold order that
//!    moves one bit changes a checksum.

use ect_data::spatial::RegionConfig;
use ect_env::battery::BpAction;
use ect_env::fleet::{fleet_env_for_hubs, fleet_env_for_hubs_with_traffic};
use ect_env::tariff::DiscountSchedule;
use ect_env::vec_env::FleetEnv;
use ect_hub::microsim::{FlashCrowd, MicrosimConfig, MicrosimDemand};
use ect_hub::prelude::*;

const HUBS: usize = 3;
const SLOTS: usize = 24 * 2;
const WINDOW: usize = 6;
const SEED: u64 = 0x0DE7_E1A1;

fn options() -> MicrosimDemandOptions {
    MicrosimDemandOptions {
        microsim: MicrosimConfig {
            num_ues: 3_000,
            ..MicrosimConfig::default()
        },
        region: RegionConfig {
            size_km: 70.0,
            num_highways: 3,
            num_cities: 2,
            streets_per_city: 4,
            city_radius_km: 5.0,
            num_base_stations: 240,
            ..RegionConfig::default()
        },
        num_hubs: HUBS,
        slots: SLOTS,
        seed: SEED,
    }
}

#[test]
fn parallel_synthesis_is_thread_count_invariant() {
    let opts = options();
    let baseline = opts.build(1).unwrap();
    for threads in [0, 2, 3, 8] {
        let demand = opts.build(threads).unwrap();
        assert_eq!(demand, baseline, "diverged at {threads} threads");
    }
    assert_eq!(
        baseline.total_associations,
        (opts.microsim.num_ues * SLOTS) as u64,
        "every UE associates every slot"
    );
}

#[test]
fn demand_is_pure_in_config_and_seed() {
    let opts = options();
    let a = opts.build(4).unwrap();
    let b = opts.build(4).unwrap();
    assert_eq!(a, b, "same options must reproduce the same demand");

    let mut reseeded = options();
    reseeded.seed ^= 0xFFFF;
    assert_ne!(opts.build(4).unwrap(), reseeded.build(4).unwrap());

    let mut repopulated = options();
    repopulated.microsim.num_ues *= 2;
    let doubled = repopulated.build(4).unwrap();
    assert_ne!(a, doubled);
    assert_eq!(
        doubled.total_associations,
        2 * a.total_associations,
        "associations scale with the population"
    );
}

#[test]
fn flash_crowds_add_load_without_breaking_purity() {
    let baseline = options().build(4).unwrap();
    let mut crowded = options();
    crowded.microsim.flash_crowds.push(FlashCrowd {
        start_slot: SLOTS / 2,
        len_slots: 6,
        population: 2_000,
        road: 0,
        spread_km: 2.0,
    });
    let surged = crowded.build(4).unwrap();
    assert!(
        surged.peak_load_rate() >= baseline.peak_load_rate(),
        "a scripted surge cannot lower the fleet peak ({} < {})",
        surged.peak_load_rate(),
        baseline.peak_load_rate()
    );
    // Crowds ride on top of the resident population: the base UE draws —
    // and hence the association count — are untouched...
    assert_eq!(surged.total_associations, baseline.total_associations);
    // ...and outside the surge window the series are identical...
    assert_eq!(surged.traffic[0][0], baseline.traffic[0][0]);
    // ...but inside it the fleet sees strictly more EV arrivals (raw,
    // unsaturated, so the surge cannot hide behind the load-rate cap).
    let window_ev = |d: &MicrosimDemand| -> f64 {
        d.ev_arrivals
            .iter()
            .flat_map(|series| series[SLOTS / 2..SLOTS / 2 + 6].iter())
            .sum()
    };
    assert!(
        window_ev(&surged) > window_ev(&baseline),
        "the crowd must land in the surge window"
    );
    assert_eq!(crowded.build(7).unwrap(), surged, "crowds stay pure too");
}

#[test]
fn session_memoises_the_demand_synthesis() {
    let session = SessionBuilder::new(SystemConfig::miniature())
        .threads(4)
        .build()
        .unwrap();
    let opts = options();
    let first = session.microsim_demand_for(&opts).unwrap();
    let second = session.microsim_demand_for(&opts).unwrap();
    assert!(
        std::sync::Arc::ptr_eq(&first, &second),
        "the second lookup must be served from the store"
    );
    assert_eq!(*first, opts.build(4).unwrap(), "memoisation is transparent");
}

/// FNV-1a over the little-endian bits of every traffic sample (load rate,
/// then volume), every EV-arrival value and the association count.
fn demand_checksum(demand: &MicrosimDemand) -> u64 {
    let traffic = demand
        .traffic
        .iter()
        .flatten()
        .flat_map(|s| [s.load_rate.as_f64(), s.volume_gb]);
    let ev = demand.ev_arrivals.iter().flatten().copied();
    let words = traffic
        .chain(ev)
        .map(f64::to_bits)
        .chain([demand.total_associations]);
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for byte in words.flat_map(u64::to_le_bytes) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// A metro-shaped area: the default 200 km region with 3,000 clustered
/// base stations, 2,000 hubs, three UE shards (the last one partial) and a
/// flash crowd whose scatter spills off the roads.
fn metro_options() -> MicrosimDemandOptions {
    MicrosimDemandOptions {
        microsim: MicrosimConfig {
            num_ues: 9_000,
            flash_crowds: vec![FlashCrowd {
                start_slot: 4,
                len_slots: 3,
                population: 3_000,
                road: 2,
                spread_km: 6.0,
            }],
            ..MicrosimConfig::default()
        },
        region: RegionConfig {
            num_base_stations: 3_000,
            ..RegionConfig::default()
        },
        num_hubs: 2_000,
        slots: 12,
        seed: 0x3E7_0517,
    }
}

#[test]
fn demand_bits_match_golden_checksums() {
    let small = options().build(2).unwrap();
    let metro = metro_options().build(2).unwrap();
    assert_eq!(metro.total_associations, 9_000 * 12);
    assert_eq!(
        demand_checksum(&small),
        0xbc48_85f6_a945_bf34,
        "small options"
    );
    assert_eq!(demand_checksum(&metro), 0xb1c4_b3b7_89cf_db03, "metro area");
}

fn world() -> WorldDataset {
    WorldDataset::generate(WorldConfig {
        num_hubs: HUBS as u32,
        horizon_slots: SLOTS,
        ..WorldConfig::default()
    })
    .unwrap()
}

fn hub_ids() -> Vec<HubId> {
    (0..HUBS as u32).map(HubId::new).collect()
}

fn lane_rngs() -> Vec<EctRng> {
    (0..HUBS)
        .map(|lane| EctRng::seed_from(0x000F_1EE7 ^ ((lane as u64) << 16)))
        .collect()
}

fn fleet_with(demand: Option<&MicrosimDemand>, world: &WorldDataset) -> FleetEnv {
    let discounts = vec![DiscountSchedule::none(SLOTS); HUBS];
    let mut rngs = lane_rngs();
    match demand {
        Some(demand) => fleet_env_for_hubs_with_traffic(
            world,
            &hub_ids(),
            0,
            SLOTS,
            &discounts,
            WINDOW,
            &demand.traffic_arcs(),
            &mut rngs,
        )
        .unwrap(),
        None => {
            fleet_env_for_hubs(world, &hub_ids(), 0, SLOTS, &discounts, WINDOW, &mut rngs).unwrap()
        }
    }
}

/// Drives a fixed action cycle and returns every lane reward of the run.
fn trajectory(fleet: &mut FleetEnv) -> Vec<f64> {
    fleet.reset(&[0.5; HUBS]);
    let cycle = [BpAction::Charge, BpAction::Discharge, BpAction::Idle];
    let mut rewards = Vec::with_capacity(SLOTS * HUBS);
    for t in 0..SLOTS {
        let actions: Vec<BpAction> = (0..HUBS).map(|lane| cycle[(t + lane) % 3]).collect();
        rewards.extend(fleet.step_batch_soa(&actions).rewards.iter().copied());
    }
    rewards
}

#[test]
fn microsim_traffic_drives_the_fleet_env() {
    let world = world();
    let demand = options().build(4).unwrap();

    let micro_a = trajectory(&mut fleet_with(Some(&demand), &world));
    let micro_b = trajectory(&mut fleet_with(Some(&demand), &world));
    assert_eq!(micro_a.len(), micro_b.len());
    for (a, b) in micro_a.iter().zip(&micro_b) {
        assert_eq!(a.to_bits(), b.to_bits(), "microsim-driven episodes replay");
    }

    // And the injected series actually matter: the aggregate generator's
    // traffic produces a different trajectory under the same seeds/actions.
    let aggregate = trajectory(&mut fleet_with(None, &world));
    assert!(
        micro_a.iter().zip(&aggregate).any(|(m, a)| m != a),
        "microsim demand must shift the episode economics"
    );
}
