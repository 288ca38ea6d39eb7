//! Scenario/baseline equivalence: the scenario-engine refactor must not move
//! a single bit of the historical world generation.
//!
//! Three layers of pinning:
//!
//! 1. `ScenarioSpec::baseline()` reproduces `WorldDataset::generate` exactly;
//! 2. both match an inline re-implementation of the *pre-refactor* generation
//!    loop (generators driven directly, no scenario plumbing);
//! 3. hard-coded FNV-1a trace checksums pin the default and miniature worlds
//!    against silent drift in the generators themselves.

use ect_data::charging::{ChargingConfig, ChargingWorld};
use ect_data::dataset::{HubTraces, WorldConfig, WorldDataset};
use ect_data::rtp::RtpGenerator;
use ect_data::scenario::{scenario_library, ScenarioSpec};
use ect_data::traffic::TrafficGenerator;
use ect_data::weather::WeatherGenerator;
use ect_hub::prelude::*;

/// The historical `WorldDataset::generate` body as it existed before the
/// scenario engine: generators constructed and driven directly on the same
/// forked RNG streams. Any drift between this and the refactored driver is a
/// regression.
fn pre_refactor_generate(config: WorldConfig) -> (Vec<DollarsPerKwh>, Vec<HubTraces>) {
    let root = EctRng::seed_from(config.seed);

    let mut rtp_rng = root.fork(0x0117);
    let rtp = RtpGenerator::new(config.rtp.clone())
        .unwrap()
        .series(config.horizon_slots, &mut rtp_rng);

    let mut hubs = Vec::with_capacity(config.num_hubs as usize);
    for h in 0..config.num_hubs {
        let siting = config.siting(h);
        let mut wx_rng = root.fork(0x1000 + u64::from(h));
        let mut weather_gen = WeatherGenerator::new(siting.weather_config(), &mut wx_rng).unwrap();
        let weather = weather_gen.series(config.horizon_slots, &mut wx_rng);

        let mut tr_rng = root.fork(0x2000 + u64::from(h));
        let traffic = TrafficGenerator::new(siting.traffic_config())
            .unwrap()
            .series(config.horizon_slots, &mut tr_rng);

        hubs.push(HubTraces {
            siting,
            weather,
            traffic,
        });
    }
    (rtp, hubs)
}

#[test]
fn baseline_scenario_matches_pre_refactor_generation_bit_for_bit() {
    let config = WorldConfig::default();
    let (rtp, hubs) = pre_refactor_generate(config.clone());

    let generate = WorldDataset::generate(config.clone()).unwrap();
    let baseline = WorldDataset::generate_scenario(config, &ScenarioSpec::baseline()).unwrap();

    for world in [&generate, &baseline] {
        assert_eq!(world.rtp.len(), rtp.len());
        for (a, b) in world.rtp.iter().zip(&rtp) {
            assert_eq!(a.as_f64().to_bits(), b.as_f64().to_bits());
        }
        assert_eq!(world.hubs.len(), hubs.len());
        for (wh, oh) in world.hubs.iter().zip(&hubs) {
            assert_eq!(wh.siting, oh.siting);
            for (a, b) in wh.weather.iter().zip(&oh.weather) {
                assert_eq!(a.solar_irradiance.to_bits(), b.solar_irradiance.to_bits());
                assert_eq!(a.wind_speed.to_bits(), b.wind_speed.to_bits());
                assert_eq!(a.cloud_cover.to_bits(), b.cloud_cover.to_bits());
            }
            for (a, b) in wh.traffic.iter().zip(&oh.traffic) {
                assert_eq!(
                    a.load_rate.as_f64().to_bits(),
                    b.load_rate.as_f64().to_bits()
                );
                assert_eq!(a.volume_gb.to_bits(), b.volume_gb.to_bits());
            }
        }
        // The charging ground truth stays on the pre-refactor construction.
        let expected = ChargingWorld::new(ChargingConfig {
            num_stations: world.config.num_hubs,
            ..world.config.charging.clone()
        })
        .unwrap();
        let r1 = EctRng::seed_from(99);
        let r2 = EctRng::seed_from(99);
        assert_eq!(
            world.charging.generate_history(240, &r1),
            expected.generate_history(240, &r2)
        );
    }
    assert_eq!(generate.trace_checksum(), baseline.trace_checksum());
}

/// Pinned checksums of the shipped world configurations. If one of these
/// moves, baseline trace reproducibility broke for every downstream
/// experiment — fix the regression, do not repin casually.
#[test]
fn baseline_trace_checksums_are_pinned() {
    const DEFAULT_WORLD_CHECKSUM: u64 = 0xc3b7_ea9b_c9b5_5136;
    const MINIATURE_WORLD_CHECKSUM: u64 = 0x1163_e422_1c84_3ae0;

    let default_world = WorldDataset::generate(WorldConfig::default()).unwrap();
    assert_eq!(
        default_world.trace_checksum(),
        DEFAULT_WORLD_CHECKSUM,
        "default world drifted: got {:#018x}",
        default_world.trace_checksum()
    );

    let miniature = EctHubSystem::new(SystemConfig::miniature()).unwrap();
    assert_eq!(
        miniature.world().trace_checksum(),
        MINIATURE_WORLD_CHECKSUM,
        "miniature world drifted: got {:#018x}",
        miniature.world().trace_checksum()
    );
}

#[test]
fn stress_scenarios_differ_from_baseline_but_are_reproducible() {
    let config = WorldConfig {
        num_hubs: 3,
        horizon_slots: 24 * 10,
        ..WorldConfig::default()
    };
    let baseline_sum = WorldDataset::generate(config.clone())
        .unwrap()
        .trace_checksum();
    for spec in scenario_library(config.horizon_slots) {
        let a = WorldDataset::generate_scenario(config.clone(), &spec).unwrap();
        let b = WorldDataset::generate_scenario(config.clone(), &spec).unwrap();
        assert_eq!(
            a.trace_checksum(),
            b.trace_checksum(),
            "{} not reproducible",
            spec.name
        );
        if spec.is_baseline() {
            assert_eq!(a.trace_checksum(), baseline_sum);
        } else {
            assert_ne!(a.trace_checksum(), baseline_sum, "{} is a no-op", spec.name);
        }
    }
}
