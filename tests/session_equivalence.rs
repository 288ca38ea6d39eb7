//! Acceptance pins of the unified experiment API.
//!
//! Two contracts:
//!
//! 1. **Golden results** — the smoke-session JSON of the `generalization`,
//!    `severity_sweep`, `scenario_sweep` and `coordination` experiments
//!    hashes to checksums captured while a second, free-function path still
//!    produced the same bytes. A change that moves any of them is wrong (or
//!    intentionally re-seeds, which needs saying).
//! 2. **Work sharing** — a combined run of `generalization` and
//!    `severity_sweep` inside one session trains each distinct generalist
//!    exactly once, and *repeating* both experiments trains nothing at all:
//!    every lookup is an artifact-store hit (asserted through the store's
//!    build counters).

use ect_bench::experiments::{coordination, generalization, scenario_sweep, severity_sweep};
use ect_bench::Scale;
use ect_core::prelude::*;

/// One session at the smoke scale with a fixed thread budget.
fn smoke_session() -> Session {
    SessionBuilder::new(ect_bench::experiments::system_config(Scale::Smoke))
        .scale(Scale::Smoke)
        .threads(4)
        .build()
        .expect("smoke session builds")
}

/// FNV-1a 64 over the bytes of the pretty-printed result JSON.
fn checksum<T: serde::Serialize>(value: &T) -> u64 {
    let json = serde_json::to_string_pretty(value).expect("result serialises");
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for byte in json.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

#[test]
fn generalization_smoke_json_matches_golden_checksum() {
    let session = smoke_session();
    let result =
        generalization::run_in_session(&session, generalization::experiment_config(Scale::Smoke))
            .unwrap();
    assert_eq!(
        checksum(&result),
        0x34e2_84fd_b244_408c,
        "generalization moved"
    );
    // The session path actually produced artifacts.
    assert_eq!(session.store().kind_stats("generalist").builds, 2);
    assert_eq!(session.store().kind_stats("heldout-baselines").builds, 1);
}

#[test]
fn severity_smoke_json_matches_golden_checksum() {
    let session = smoke_session();
    let result = severity_sweep::run_in_session(
        &session,
        severity_sweep::experiment_config(Scale::Smoke),
        severity_sweep::options_for(Scale::Smoke),
    )
    .unwrap();
    assert_eq!(
        checksum(&result),
        0x2403_0020_0f12_6397,
        "severity sweep moved"
    );
    assert_eq!(session.store().kind_stats("severity").builds, 1);
}

#[test]
fn scenario_sweep_smoke_json_matches_golden_checksum() {
    let result = scenario_sweep::run_in_session(
        &smoke_session(),
        scenario_sweep::experiment_config(Scale::Smoke),
    )
    .unwrap();
    assert_eq!(
        checksum(&result),
        0xdea4_7f4d_f8f3_a0c4,
        "scenario sweep moved"
    );
}

#[test]
fn coordination_smoke_json_matches_golden_checksum() {
    let session = smoke_session();
    let result = coordination::run_in_session(
        &session,
        coordination::experiment_config(Scale::Smoke),
        coordination::options_for(Scale::Smoke),
    )
    .unwrap();
    assert_eq!(
        checksum(&result),
        0x4c48_892c_39f8_78c4,
        "coordination moved"
    );
    assert_eq!(session.store().kind_stats("coordination").builds, 1);
}

#[test]
fn combined_run_trains_each_generalist_exactly_once() {
    let session = smoke_session();
    // `severity_sweep` runs on `generalization`'s configuration, which is
    // exactly what makes the sharing observable below.
    let config = generalization::experiment_config(Scale::Smoke);

    // Combined run: generalization (two mixture-generalist arms) plus the
    // severity sweep (one domain-randomised generalist).
    let gen_first = generalization::run_in_session(&session, config.clone()).unwrap();
    let sev_first = severity_sweep::run_in_session(
        &session,
        config.clone(),
        severity_sweep::options_for(Scale::Smoke),
    )
    .unwrap();

    // Each distinct generalist trained exactly once …
    assert_eq!(session.store().kind_stats("generalist").builds, 2);
    assert_eq!(session.store().kind_stats("severity").builds, 1);
    // … over exactly one shared world/system and one baseline pass.
    assert_eq!(session.store().kind_stats("world").builds, 1);
    assert_eq!(session.store().kind_stats("system").builds, 1);
    assert_eq!(session.store().kind_stats("heldout-baselines").builds, 1);

    // Re-running BOTH experiments trains nothing: builds stay flat, hits
    // grow, and the reports are bit-identical to the first pass.
    let hits_before = session.store().hits();
    let gen_again = generalization::run_in_session(&session, config.clone()).unwrap();
    let sev_again =
        severity_sweep::run_in_session(&session, config, severity_sweep::options_for(Scale::Smoke))
            .unwrap();
    assert_eq!(session.store().kind_stats("generalist").builds, 2);
    assert_eq!(session.store().kind_stats("severity").builds, 1);
    assert!(
        session.store().hits() > hits_before,
        "the repeat pass must be served from the artifact store"
    );
    assert_eq!(
        serde_json::to_string(&gen_first).unwrap(),
        serde_json::to_string(&gen_again).unwrap()
    );
    assert_eq!(
        serde_json::to_string(&sev_first).unwrap(),
        serde_json::to_string(&sev_again).unwrap()
    );
}
