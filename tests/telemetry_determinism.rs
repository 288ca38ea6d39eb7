//! Acceptance pins of the telemetry layer (PR 8).
//!
//! Four contracts:
//!
//! 1. **Bit-identity** — telemetry observes, it never participates: every
//!    result is bit-identical with telemetry on or off, at any thread
//!    count.
//! 2. **Schema** — the JSONL stream round-trips through the [`Record`]
//!    serde schema: manifest first, unique span ids, resolvable parent
//!    links, metric snapshots at the end.
//! 3. **Ordered progress** — progress reports from parallel scheduler
//!    threads are serialised by the process-wide print lock (the PR's
//!    racy-output regression) and mirrored as `progress` events.
//! 4. **Overhead** — on a 12-hub fleet run the instrumented pass stays
//!    within 2% of the uninstrumented one.

use ect_core::prelude::*;
use ect_obs::{Record, RunManifest, Telemetry};
use std::sync::{Arc, Mutex};

/// The telemetry registry is process-global state: every test here
/// serialises on one lock so cargo's parallel test threads cannot install
/// over each other.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// A miniature system: `num_hubs` hubs, short horizon and pricing windows,
/// tiny training budgets — the `tests/determinism.rs` recipe shrunk
/// further, because this suite runs several passes of everything.
fn mini(num_hubs: u32) -> SystemConfig {
    let mut config = SystemConfig::miniature();
    config.world.num_hubs = num_hubs;
    config.world.horizon_slots = 24 * 7;
    config.pricing_history_slots = 24 * 7 * 2;
    config.pricing_test_slots = 24 * 7;
    config.ect_price.epochs = 1;
    config.trainer.episodes = 2;
    config.test_episodes = 1;
    config
}

/// A pipeline slice touching every instrumented layer: the artifact store
/// (world/system/pricing spans), the ECT-Price training, and a dependency
/// DAG through the instrumented scheduler. Returns the serialised results
/// — the bytes the bit-identity contract compares.
fn pipeline(threads: usize) -> String {
    let session = SessionBuilder::new(mini(2))
        .threads(threads)
        .build()
        .expect("mini session builds");
    let table = session.pricing_table(&[0.2]).expect("pricing table");
    let dag = ect_core::run_dag(
        (0..8u64).collect(),
        vec![
            vec![],
            vec![0],
            vec![0],
            vec![1, 2],
            vec![],
            vec![3],
            vec![5],
            vec![4, 6],
        ],
        threads,
        |idx, job| Ok(job.wrapping_mul(31).wrapping_add(idx as u64)),
    )
    .expect("dag runs");
    format!(
        "{}\n{:?}",
        serde_json::to_string(&*table).expect("table serialises"),
        dag
    )
}

#[test]
fn results_are_bit_identical_with_telemetry_on_or_off_at_any_thread_count() {
    let _guard = serial();
    ect_obs::uninstall();
    let baseline = pipeline(1);
    assert_eq!(
        baseline,
        pipeline(4),
        "results must not depend on the thread count (telemetry off)"
    );

    for threads in [1, 4] {
        let telemetry = Arc::new(Telemetry::to_memory(RunManifest::default()));
        ect_obs::install(Arc::clone(&telemetry));
        let observed = pipeline(threads);
        ect_obs::uninstall();
        assert_eq!(
            baseline, observed,
            "telemetry on ({threads} threads) must not move a single result bit"
        );
        // The instrumented pass actually recorded: builds were spanned and
        // the scheduler counted its jobs — telemetry was live, not
        // silently disabled.
        let records = telemetry.records();
        assert!(
            records.iter().any(|r| r.name() == Some("artifact.build")),
            "expected artifact.build spans in the stream"
        );
        assert!(
            telemetry.counter_value("run_dag.capacity_us") > 0,
            "expected run_dag utilization counters"
        );
    }
}

#[test]
fn jsonl_stream_round_trips_through_the_record_schema() {
    let _guard = serial();
    ect_obs::uninstall();
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("telemetry-tests");
    let path = dir.join(format!("roundtrip-{}.jsonl", std::process::id()));
    let manifest = RunManifest {
        label: "roundtrip".into(),
        seed: 7,
        scale: "smoke".into(),
        threads: 2,
        ..RunManifest::default()
    };
    let telemetry =
        Arc::new(Telemetry::to_jsonl(manifest.clone(), &path).expect("jsonl sink opens"));
    ect_obs::install(Arc::clone(&telemetry));
    {
        let outer = ect_obs::span("test.outer").field("case", "roundtrip");
        assert!(outer.is_recording());
        {
            let _inner = ect_obs::span("test.inner");
        }
        std::thread::spawn(|| {
            let _other = ect_obs::span("test.other_thread");
        })
        .join()
        .unwrap();
        ect_obs::event("test.event", &[("key", "value")]);
        ect_obs::counter_add("test.counter", 41);
        ect_obs::counter_add("test.counter", 1);
        ect_obs::histogram_record("test.histogram", 5);
    }
    telemetry.flush_metrics();
    ect_obs::uninstall();

    let text = std::fs::read_to_string(&path).expect("jsonl readable");
    let records: Vec<Record> = text
        .lines()
        .map(|line| serde_json::from_str(line).expect("every line parses as a Record"))
        .collect();
    assert_eq!(
        records.first(),
        Some(&Record::Manifest(manifest)),
        "the manifest is the first record of the stream"
    );

    let spans: Vec<_> = records
        .iter()
        .filter_map(|r| match r {
            Record::Span(span) => Some(span),
            _ => None,
        })
        .collect();
    let by_name = |name: &str| {
        spans
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("span '{name}' missing"))
    };
    let outer = by_name("test.outer");
    let inner = by_name("test.inner");
    let other = by_name("test.other_thread");
    assert_eq!(inner.parent, outer.id, "nesting becomes a parent link");
    assert_eq!(outer.parent, 0, "roots carry parent 0");
    assert_eq!(other.parent, 0, "spans on other threads are roots");
    assert_ne!(other.thread, outer.thread, "thread ids distinguish threads");
    assert_eq!(
        outer.fields,
        vec![("case".to_string(), "roundtrip".to_string())]
    );
    assert!(outer.dur_us >= inner.dur_us, "children fit inside parents");
    assert!(
        outer.self_us <= outer.dur_us,
        "self time excludes child time"
    );

    // Ids and seqs are unique across the stream.
    let mut ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), spans.len(), "span ids are process-unique");
    let mut seqs: Vec<u64> = records
        .iter()
        .filter_map(|r| match r {
            Record::Span(s) => Some(s.seq),
            Record::Event(e) => Some(e.seq),
            _ => None,
        })
        .collect();
    let total = seqs.len();
    seqs.sort_unstable();
    seqs.dedup();
    assert_eq!(seqs.len(), total, "emission seqs are unique");

    // Metric snapshots land at the end of the stream.
    assert!(records.iter().any(|r| matches!(
        r,
        Record::Counter(c) if c.name == "test.counter" && c.value == 42
    )));
    assert!(records.iter().any(|r| matches!(
        r,
        Record::Histogram(h) if h.name == "test.histogram" && h.count == 1 && h.total == 5
    )));
    assert!(records.iter().any(|r| matches!(
        r,
        Record::Event(e) if e.name == "test.event"
            && e.fields == vec![("key".to_string(), "value".to_string())]
    )));
    std::fs::remove_file(&path).ok();
}

#[test]
fn parallel_progress_reports_never_interleave() {
    let _guard = serial();
    ect_obs::uninstall();
    let telemetry = Arc::new(Telemetry::to_memory(RunManifest::default()));
    ect_obs::install(Arc::clone(&telemetry));

    // A sink that makes interleaving observable: each message is written
    // as two halves with a scheduling point between them. Only the
    // process-wide print lock inside `Session::report` keeps the halves
    // of concurrent reports adjacent.
    let lines: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let sink_lines = Arc::clone(&lines);
    let session = SessionBuilder::new(mini(2))
        .threads(4)
        .label("progress-test")
        .progress(Box::new(move |message| {
            sink_lines.lock().unwrap().push(format!("<{message}"));
            std::thread::yield_now();
            sink_lines.lock().unwrap().push(format!(">{message}"));
        }))
        .build()
        .expect("session builds");

    let jobs = 64usize;
    ect_core::run_indexed((0..jobs).collect(), 4, |idx, _| {
        session.report(&format!("job {idx}"));
        Ok(())
    })
    .expect("jobs run");
    ect_obs::uninstall();

    let lines = lines.lock().unwrap();
    assert_eq!(lines.len(), jobs * 2);
    for pair in lines.chunks(2) {
        assert_eq!(
            pair[0].strip_prefix('<'),
            pair[1].strip_prefix('>'),
            "report halves interleaved: {pair:?}"
        );
    }

    // Every report is mirrored as a `progress` event carrying the
    // session's label, independent of the stderr sink.
    let progress_events = telemetry
        .records()
        .iter()
        .filter(|r| match r {
            Record::Event(e) => {
                e.name == "progress"
                    && e.fields
                        .contains(&("label".to_string(), "progress-test".to_string()))
            }
            _ => false,
        })
        .count();
    assert_eq!(progress_events, jobs);
}

/// The evaluation loop tallies every chosen action into the
/// `eval.action.*` counters, and counting moves no result bit.
#[test]
fn evaluation_counts_every_chosen_action() {
    let _guard = serial();
    ect_obs::uninstall();
    let mut config = mini(2);
    config.test_episodes = 2;
    let system = EctHubSystem::new(config).expect("mini system builds");
    let hubs: Vec<HubId> = (0..2).map(HubId::new).collect();
    let evaluate = |scheduler: &mut dyn Scheduler| {
        let cells = run_hubs_scheduler_batched(
            &system,
            &hubs,
            &ect_price::engine::NeverDiscount,
            scheduler,
        )
        .expect("evaluation runs");
        serde_json::to_string(&cells).expect("cells serialise")
    };
    let off = evaluate(&mut NoBattery);

    let counts = |scheduler: &mut dyn Scheduler| {
        let telemetry = Arc::new(Telemetry::to_memory(RunManifest::default()));
        ect_obs::install(Arc::clone(&telemetry));
        let cells = evaluate(scheduler);
        ect_obs::uninstall();
        let counts = ["charge", "discharge", "idle"]
            .map(|action| telemetry.counter_value(&format!("eval.action.{action}")));
        (cells, counts)
    };
    let lane_slots = (hubs.len() * system.world().horizon() * 2) as u64;

    let (on, [charge, discharge, idle]) = counts(&mut NoBattery);
    assert_eq!(off, on, "counting actions must not move a result bit");
    assert_eq!((charge, discharge, idle), (0, 0, lane_slots));

    let (_, greedy) = counts(&mut GreedyPrice::default_thresholds());
    assert_eq!(greedy.iter().sum::<u64>(), lane_slots);
}

/// One timed 12-hub fleet pass: the PPO training + stepping workload the
/// overhead contract is pinned on.
fn fleet_pass(system: &EctHubSystem, hubs: &[HubId]) -> std::time::Duration {
    let t0 = std::time::Instant::now();
    let results = ect_core::run_hubs_method_batched(
        system,
        hubs,
        &ect_price::engine::NeverDiscount,
        "NoDiscount",
    )
    .expect("fleet pass runs");
    assert_eq!(results.len(), hubs.len());
    t0.elapsed()
}

/// The wall-clock half of the telemetry contract. The workspace's dev
/// profile compiles the crates a pass runs through optimised, which keeps
/// a test-build pass near 0.35 s instead of 10 s, short enough for the
/// min-of-5 to find quiet windows on a shared host. CI also runs it on
/// release code (`Test telemetry overhead (release)`).
#[test]
fn telemetry_overhead_on_a_twelve_hub_fleet_stays_under_two_percent() {
    let _guard = serial();
    ect_obs::uninstall();
    let system = EctHubSystem::new(mini(12)).expect("12-hub system builds");
    let hubs: Vec<HubId> = (0..12).map(HubId::new).collect();
    // Warm-up: fault code and allocator pools in before timing anything.
    let baseline = fleet_pass(&system, &hubs);

    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("telemetry-tests");
    let mut off = baseline;
    let mut on = std::time::Duration::MAX;
    // Interleaved min-of-k: the minimum is the noise-robust estimate of
    // each mode's true cost, and alternating modes decorrelates both from
    // slow drift (thermal, competing tests). Five rounds, not three: on a
    // loaded host a noise burst can span several consecutive passes, and
    // the minimum only converges once at least one pass per mode lands in
    // a quiet window.
    for round in 0..5 {
        off = off.min(fleet_pass(&system, &hubs));
        let path = dir.join(format!("overhead-{}-{round}.jsonl", std::process::id()));
        let telemetry =
            Arc::new(Telemetry::to_jsonl(RunManifest::default(), &path).expect("jsonl sink opens"));
        ect_obs::install(Arc::clone(&telemetry));
        let timed = fleet_pass(&system, &hubs);
        telemetry.flush_metrics();
        ect_obs::uninstall();
        on = on.min(timed);
        std::fs::remove_file(&path).ok();
    }
    // <2% plus a small absolute slack so micro-runs (milliseconds of
    // wall) cannot fail on scheduler jitter alone.
    let budget = off.mul_f64(1.02) + std::time::Duration::from_millis(5);
    assert!(
        on <= budget,
        "telemetry overhead too high: on={on:?} off={off:?} budget={budget:?}"
    );
}
