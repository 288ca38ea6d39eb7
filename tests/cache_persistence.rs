//! Acceptance pins of the persistent artifact cache (PR 7).
//!
//! Three contracts:
//!
//! 1. **Warm processes skip retraining** — a second session over the same
//!    cache directory serves every expensive artifact kind (held-out
//!    baselines, generalists, severity sweeps, pricing models) from disk:
//!    zero expensive builds, and the served payloads are bit-identical to
//!    the cold pass (the JSON the experiments would write cannot move).
//! 2. **Corruption is a miss, never an error** — truncating or scribbling
//!    over a published entry makes the next session rebuild cleanly and
//!    republish.
//! 3. **`--no-cache` semantics** — a session without a cache attached
//!    behaves exactly like the pre-cache store (pure in-memory
//!    memoisation), so the cache is strictly opt-in at the session layer.
//! 4. **Experiment results are served whole** — Table II, the ablations
//!    and the scenario sweep come off disk in a warm session at
//!    another thread count, byte-identical and without a build; their keys
//!    move with the training budget, the seed and the method list.
//! 5. **No stale cache** — each of those kinds' code versions is pinned
//!    together with the smoke goldens of the files it produces, so a
//!    re-captured golden without a version bump fails here.
//! 6. **The shared ECT-Price build is charged to its host** — the
//!    experiment whose run built the pricing artifacts, which on a warm
//!    pass is Fig. 11 or 12, not the Table II served from disk.

use ect_bench::cli::BenchArgs;
use ect_bench::experiments::{
    ablations, generalization, pricing_artifacts, pricing_build, scenario_sweep, severity_sweep,
    system_config, table2, ABLATIONS_VERSION, SCENARIO_SWEEP_VERSION, TABLE2_VERSION,
};
use ect_bench::output::BenchSummaryEntry;
use ect_bench::registry::{attribute_pricing_build, ExperimentRegistry, EXPENSIVE_KINDS};
use ect_bench::Scale;
use ect_core::prelude::*;
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.push("target");
    dir.push("cache-tests");
    dir.push(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cached_smoke_session(dir: &std::path::Path, label: &str) -> Session {
    cached_smoke_session_on(dir, label, 4)
}

fn cached_smoke_session_on(dir: &std::path::Path, label: &str, threads: usize) -> Session {
    SessionBuilder::new(system_config(Scale::Smoke))
        .scale(Scale::Smoke)
        .threads(threads)
        .label(label)
        .persistent_cache(dir)
        .build()
        .expect("smoke session builds")
}

/// Runs the expensive artifact pipeline of the bench experiments (pricing
/// model, held-out baselines, two generalist arms, severity sweep) and
/// returns the serialised reports a warm pass must reproduce bitwise.
fn run_expensive_pipeline(session: &Session) -> (String, String, String) {
    let pricing = pricing_artifacts(session).expect("pricing artifacts");
    let generalization =
        generalization::run_in_session(session, generalization::experiment_config(Scale::Smoke))
            .expect("generalization runs");
    let severity = severity_sweep::run_in_session(
        session,
        severity_sweep::experiment_config(Scale::Smoke),
        severity_sweep::options_for(Scale::Smoke),
    )
    .expect("severity sweep runs");
    (
        serde_json::to_string(&pricing.model).expect("model serialises"),
        serde_json::to_string(&generalization).expect("report serialises"),
        serde_json::to_string(&severity).expect("report serialises"),
    )
}

#[test]
fn warm_session_serves_every_expensive_kind_from_disk_bit_identically() {
    let dir = scratch("warm-pipeline");

    // Cold pass: everything expensive is built (and published to disk).
    let cold = cached_smoke_session(&dir, "cold");
    let cold_reports = run_expensive_pipeline(&cold);
    for kind in [
        "pricing-model",
        "heldout-baselines",
        "generalist",
        "severity",
    ] {
        let stats = cold.store().kind_stats(kind);
        assert!(stats.builds > 0, "cold pass must build {kind}");
        assert_eq!(stats.disk_hits, 0, "cold pass cannot disk-hit {kind}");
    }

    // Warm pass, fresh process (a fresh session is the same thing the
    // store can see): zero expensive builds, everything from disk.
    let warm = cached_smoke_session(&dir, "warm");
    let warm_reports = run_expensive_pipeline(&warm);
    let mut disk_hits = 0;
    for kind in EXPENSIVE_KINDS {
        let stats = warm.store().kind_stats(kind);
        assert_eq!(stats.builds, 0, "warm pass must not rebuild {kind}");
        disk_hits += stats.disk_hits;
    }
    assert!(disk_hits >= 4, "expensive kinds must come from disk");

    // Bit-identity: the warm artifacts serialise to exactly the cold bytes.
    assert_eq!(cold_reports.0, warm_reports.0, "pricing model moved");
    assert_eq!(
        cold_reports.1, warm_reports.1,
        "generalization report moved"
    );
    assert_eq!(cold_reports.2, warm_reports.2, "severity report moved");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_and_truncated_entries_rebuild_cleanly() {
    let dir = scratch("corruption-rebuild");

    let cold = cached_smoke_session(&dir, "cold");
    let table = cold.pricing_table(&[0.2]).expect("cold table trains");
    assert_eq!(cold.store().kind_stats("pricing-table").builds, 1);

    // Vandalise every published entry: truncate one byte off the first,
    // scribble over the rest.
    let mut entries: Vec<PathBuf> = Vec::new();
    for kind_dir in std::fs::read_dir(&dir).expect("cache dir exists") {
        let kind_dir = kind_dir.unwrap().path();
        for entry in std::fs::read_dir(kind_dir).unwrap() {
            entries.push(entry.unwrap().path());
        }
    }
    assert!(!entries.is_empty(), "cold pass published entries");
    for (n, path) in entries.iter().enumerate() {
        if n == 0 {
            let bytes = std::fs::read(path).unwrap();
            std::fs::write(path, &bytes[..bytes.len() - 1]).unwrap();
        } else {
            std::fs::write(path, b"ECTC1\nnot a header\n{}").unwrap();
        }
    }

    // The next session treats every vandalised entry as a miss: no error,
    // no panic, a clean rebuild bit-identical to the original.
    let rebuilt = cached_smoke_session(&dir, "rebuild");
    let table_again = rebuilt.pricing_table(&[0.2]).expect("rebuild succeeds");
    let stats = rebuilt.store().kind_stats("pricing-table");
    assert_eq!(stats.builds, 1, "corrupted entry must rebuild");
    assert_eq!(stats.disk_hits, 0, "corrupted entry must not disk-hit");
    assert_eq!(
        serde_json::to_string(&*table).unwrap(),
        serde_json::to_string(&*table_again).unwrap(),
        "rebuild must be bit-identical"
    );

    // And the rebuild republished: a third session disk-hits again.
    let warm = cached_smoke_session(&dir, "warm");
    let _ = warm.pricing_table(&[0.2]).expect("warm table loads");
    assert_eq!(warm.store().kind_stats("pricing-table").disk_hits, 1);
    assert_eq!(warm.store().kind_stats("pricing-table").builds, 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sessions_without_a_cache_stay_memory_only() {
    let session = SessionBuilder::new(system_config(Scale::Smoke))
        .scale(Scale::Smoke)
        .threads(4)
        .build()
        .expect("smoke session builds");
    assert!(session.cache_dir().is_none());
    let _ = session.pricing_table(&[0.2]).expect("table trains");
    let _ = session.pricing_table(&[0.2]).expect("table hits");
    let stats = session.store().kind_stats("pricing-table");
    assert_eq!(stats.builds, 1);
    assert_eq!(stats.memory_hits, 1);
    assert_eq!(stats.disk_hits, 0, "no disk tier without a cache");
}

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("result serialises")
}

/// The three memoised experiment results of a smoke session, serialised, by
/// artifact kind.
fn experiment_results(session: &Session) -> Vec<(&'static str, String)> {
    let sweep = scenario_sweep::experiment_config(Scale::Smoke);
    vec![
        (table2::KIND, json(&*table2::cached(session).unwrap())),
        (ablations::KIND, json(&*ablations::cached(session).unwrap())),
        (
            scenario_sweep::KIND,
            json(&*scenario_sweep::cached(session, sweep).unwrap()),
        ),
    ]
}

#[test]
fn warm_session_serves_experiment_results_from_disk_at_any_thread_count() {
    let dir = scratch("warm-experiments");

    let cold = cached_smoke_session_on(&dir, "cold", 4);
    let cold_results = experiment_results(&cold);
    for (kind, _) in &cold_results {
        let stats = cold.store().kind_stats(kind);
        assert_eq!(stats.builds, 1, "cold pass must build {kind}");
        assert_eq!(stats.disk_hits, 0, "cold pass cannot disk-hit {kind}");
    }

    // The thread count stays out of every key: a warm session on another
    // budget reads the same entries.
    let warm = cached_smoke_session_on(&dir, "warm", 1);
    let warm_results = experiment_results(&warm);
    for ((kind, cold_json), (_, warm_json)) in cold_results.iter().zip(&warm_results) {
        let stats = warm.store().kind_stats(kind);
        assert_eq!(stats.builds, 0, "warm pass must not rebuild {kind}");
        assert_eq!(stats.disk_hits, 1, "warm pass must read {kind} from disk");
        assert_eq!(cold_json, warm_json, "{kind} moved through the disk cache");
    }
    // Served whole: the warm session never trained the pricing model the
    // results were built on.
    assert_eq!(
        warm.store().kind_stats("pricing-model"),
        KindStats::default()
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn experiment_result_keys_track_budget_seed_and_methods() {
    let base = system_config(Scale::Smoke);
    let mut episodes = base.clone();
    episodes.trainer.episodes += 1;
    let mut seed = base.clone();
    seed.seed ^= 1;

    let scenarios = scenario_library(base.world.horizon_slots);
    let engines = ["NoDiscount".to_string(), "AlwaysDiscount".to_string()];
    let keys = |config: &SystemConfig| {
        [
            table2::cache_key(config, &table2::DISCOUNTS),
            ablations::cache_key(config),
            scenario_sweep::cache_key(config, &scenarios, &engines),
        ]
    };
    let base_keys = keys(&base);
    assert_eq!(keys(&base.clone()), base_keys, "keys are pure");
    for (knob, config) in [("trainer.episodes", &episodes), ("seed", &seed)] {
        for (moved, base_key) in keys(config).iter().zip(&base_keys) {
            assert_ne!(moved, base_key, "{} key ignores {knob}", base_key.kind);
        }
    }

    // The discount / engine list is part of each key that has one.
    assert_ne!(
        table2::cache_key(&base, &table2::DISCOUNTS[..3]),
        base_keys[0]
    );
    assert_ne!(
        scenario_sweep::cache_key(&base, &scenarios, &engines[..1]),
        base_keys[2]
    );
}

/// A memoised experiment kind's code version, pinned together with the
/// `tests/golden/results_smoke.sha256` lines of the files it produces.
struct VersionPin {
    constant: &'static str,
    current: u32,
    pinned: u32,
    golden: &'static [&'static str],
}

const VERSION_PINS: &[VersionPin] = &[
    VersionPin {
        constant: "TABLE2_VERSION",
        current: TABLE2_VERSION,
        pinned: 1,
        golden: &[
            "2d244fcc6bbebf2c6d07e374a428d53e3754286a557ec749ced4a76a5ce980b4  table2_price.json",
        ],
    },
    VersionPin {
        constant: "ABLATIONS_VERSION",
        current: ABLATIONS_VERSION,
        pinned: 1,
        golden: &[
            "c80d8c44a190d12fdc8ef6a2e5879106a1e7684b49e1e86f897e38354551da86  ablations.json",
        ],
    },
    VersionPin {
        constant: "SCENARIO_SWEEP_VERSION",
        current: SCENARIO_SWEEP_VERSION,
        pinned: 1,
        golden: &[
            "220ef154424fe6b5de5b4d746a3512397d3e9a9eef54546fb52008fd7e5639e2  scenario_sweep.json",
        ],
    },
];

#[test]
fn re_captured_goldens_come_with_a_version_bump() {
    let golden = include_str!("golden/results_smoke.sha256");
    for pin in VERSION_PINS {
        let constant = pin.constant;
        for line in pin.golden {
            let file = line.split_whitespace().last().unwrap();
            let now = golden
                .lines()
                .find(|l| l.split_whitespace().last() == Some(file));
            if now != Some(*line) {
                assert_ne!(
                    pin.current, pin.pinned,
                    "results_smoke.sha256 re-captured {file} but \
                     ect_bench::experiments::{constant} is still {}: bump it so warm \
                     caches stop serving results of the old code, then pin the new \
                     line and version here",
                    pin.pinned
                );
                panic!(
                    "ect_bench::experiments::{constant} is now {}: pin it here with \
                     the re-captured {file} line",
                    pin.current
                );
            }
        }
        assert_eq!(
            pin.current, pin.pinned,
            "ect_bench::experiments::{constant} moved without a new golden: pin the new \
             version here"
        );
    }
}

/// The summary rows of a registry pass over the three experiments that
/// share the ECT-Price build (it writes their smoke `results/*.json`, as
/// `run_all --smoke` does).
fn pricing_pass(session: &Session) -> Vec<BenchSummaryEntry> {
    let args = BenchArgs {
        scale: Scale::Smoke,
        only: [
            "table2_price",
            "fig11_strata_stations",
            "fig12_strata_periods",
        ]
        .map(String::from)
        .to_vec(),
        ..BenchArgs::default()
    };
    ExperimentRegistry::standard()
        .run_filtered(session, &args)
        .expect("pricing experiments run")
}

fn wall(rows: &[BenchSummaryEntry], id: &str) -> f64 {
    rows.iter()
        .find(|row| row.experiment == id)
        .unwrap_or_else(|| panic!("no {id} row"))
        .wall_time_s
}

#[test]
fn a_warm_pass_charges_the_pricing_build_to_the_experiment_that_ran_it() {
    let dir = scratch("pricing-host");
    let cold = cached_smoke_session_on(&dir, "cold", 2);
    pricing_pass(&cold);
    assert_eq!(
        pricing_build(&cold).expect("the cold pass builds").host,
        Some("table2_price"),
        "Table II runs first and trains the model"
    );

    let warm = cached_smoke_session_on(&dir, "warm", 2);
    let rows = pricing_pass(&warm);
    let build = pricing_build(&warm).expect("a warm pass still assembles the artifacts");
    let host = build.host.expect("built inside an experiment");
    assert!(
        ["fig11_strata_stations", "fig12_strata_periods"].contains(&host),
        "Table II came off disk, so {host} cannot have hosted the build"
    );
    assert!(wall(&rows, host) >= build.wall_time_s);

    let mut summary = rows.clone();
    attribute_pricing_build(&mut summary, build);
    assert!(
        wall(&summary, "table2_price") > 0.0,
        "Table II keeps the wall of its own disk read"
    );
    assert_eq!(wall(&summary, "table2_price"), wall(&rows, "table2_price"));
    assert_eq!(wall(&summary, host), wall(&rows, host) - build.wall_time_s);
    assert_eq!(wall(&summary, "pricing_artifacts"), build.wall_time_s);

    let _ = std::fs::remove_dir_all(&dir);
}
