//! `reproduce`: the standard experiment catalog at smoke scale, run twice
//! over one fresh persistent cache directory — a cold pass that fills it,
//! then a warm pass that reads it.
//!
//! The catalog derives every experiment's inputs from the scale, so the
//! seed only sets the session's master seed; what the passes compute is
//! the same for every seed. Outputs are read from
//! `ect_bench::output::results_dir()`, where the experiments write them.

use crate::report::{
    median, peak_rss_mb, ratio, reset_peak_rss, seed_stream, timed_median, Budget, Metrics, Ops,
    Outcome, REGISTRY_IDS,
};
use crate::trace::{nn_probe, overhead_pct, policy_state_dim, traced, Tally};
use crate::RunArgs;
use ect_bench::cli::BenchArgs;
use ect_bench::experiments::system_config;
use ect_bench::output::{results_dir, BenchSummaryEntry};
use ect_bench::registry::{ExperimentRegistry, EXPENSIVE_KINDS};
use ect_bench::Scale;
use ect_core::session::{Session, SessionBuilder};
use ect_core::system::{EctHubSystem, PricingMethod, SystemConfig};
use ect_data::dataset::WorldDataset;
use ect_obs::{Record, Telemetry};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Result files that carry wall-clock timings, so they differ between
/// passes by design.
const TIMING_FILES: &[&str] = &["BENCH_summary", "throughput", "microsim"];
/// Benchmark-side stage spans, one after another on the main thread.
const STAGES: &[&str] = &["bench.registry.cold", "bench.registry.warm"];

struct Inputs {
    registry: ExperimentRegistry,
    config: SystemConfig,
    args: BenchArgs,
    threads: usize,
}

fn session(inputs: &Inputs, cache_dir: &Path) -> ect_types::Result<Session> {
    SessionBuilder::new(inputs.config.clone())
        .scale(Scale::Smoke)
        .threads(inputs.threads)
        .label("hubbench")
        .persistent_cache(cache_dir)
        .build()
}

/// A fresh, empty cache directory for one cold/warm pair.
fn fresh_cache_dir(tag: &str) -> ect_types::Result<PathBuf> {
    let dir = results_dir().join(format!("hubbench-cache-{}-{tag}", std::process::id()));
    remove_dir(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| {
        ect_types::EctError::InvalidConfig(format!("create {}: {e}", dir.display()))
    })?;
    Ok(dir)
}

fn remove_dir(dir: &Path) {
    if dir.exists() {
        // A leftover directory only costs disk space; the next pass uses
        // another name.
        let _ = std::fs::remove_dir_all(dir);
    }
}

fn setup(seed: u64, threads: usize) -> ect_types::Result<Inputs> {
    let mut config = system_config(Scale::Smoke);
    config.seed = seed_stream(seed, 1);
    let inputs = Inputs {
        registry: ExperimentRegistry::standard(),
        config,
        args: BenchArgs {
            scale: Scale::Smoke,
            threads,
            quiet: true,
            ..BenchArgs::default()
        },
        threads,
    };
    // A smoke-scale system and pricing history from the seed: checks that
    // the catalog's configuration yields data, and gives set-up the same
    // data-layer work the other workloads time.
    let system = EctHubSystem::new(inputs.config.clone())?;
    if system.pricing_datasets().0.is_empty() {
        return Err(ect_types::EctError::InsufficientData(
            "smoke pricing history is empty".into(),
        ));
    }
    Ok(inputs)
}

struct PassResult {
    wall_s: f64,
    entries: Vec<BenchSummaryEntry>,
    expensive_builds: usize,
    builds: usize,
    disk_hits: usize,
    peak_rss_mb: f64,
}

impl PassResult {
    fn entry(&self, id: &str) -> Option<&BenchSummaryEntry> {
        self.entries.iter().find(|e| e.experiment == id)
    }
}

fn catalog_pass(inputs: &Inputs, cache_dir: &Path, span: &str) -> ect_types::Result<PassResult> {
    reset_peak_rss();
    let t0 = Instant::now();
    let session = session(inputs, cache_dir)?;
    let entries = {
        let _span = ect_obs::span(span);
        inputs.registry.run_filtered(&session, &inputs.args)?
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let store = session.store();
    let expensive_builds = store
        .stats_snapshot()
        .iter()
        .filter(|(kind, _)| EXPENSIVE_KINDS.contains(kind))
        .map(|(_, stats)| stats.builds)
        .sum();
    Ok(PassResult {
        wall_s,
        entries,
        expensive_builds,
        builds: store.builds(),
        disk_hits: store.disk_hits(),
        peak_rss_mb: peak_rss_mb(),
    })
}

/// The catalog's non-timing `results/*.json` files, by name.
fn snapshot(registry: &ExperimentRegistry) -> BTreeMap<String, Option<Vec<u8>>> {
    let dir = results_dir();
    registry
        .experiments()
        .iter()
        .flat_map(|e| e.artifact_stems().iter())
        .filter(|stem| !TIMING_FILES.contains(stem))
        .map(|stem| {
            let name = format!("{stem}.json");
            let bytes = std::fs::read(dir.join(&name)).ok();
            (name, bytes)
        })
        .collect()
}

/// Seconds under `artifact.build` spans of one artifact kind.
fn build_s(telemetry: &Telemetry, kind: &str) -> f64 {
    telemetry
        .records()
        .iter()
        .filter_map(|record| match record {
            Record::Span(span) if span.name == "artifact.build" => Some(span),
            _ => None,
        })
        .filter(|span| span.fields.iter().any(|(k, v)| k == "kind" && v == kind))
        .map(|span| span.dur_us as f64 / 1e6)
        .sum()
}

/// One cold/warm pair, with the telemetry of each pass when traced.
struct Pair {
    cold: PassResult,
    warm: PassResult,
    telemetry: Option<(std::sync::Arc<Telemetry>, std::sync::Arc<Telemetry>)>,
}

fn pair(inputs: &Inputs, tag: &str, trace: bool, ops: &mut Ops) -> ect_types::Result<Pair> {
    let dir = fresh_cache_dir(tag)?;
    let run = |span: &str| {
        if trace {
            let (result, telemetry) = traced(|| catalog_pass(inputs, &dir, span));
            result.map(|r| (r, Some(telemetry)))
        } else {
            catalog_pass(inputs, &dir, span).map(|r| (r, None))
        }
    };
    let cold = run("bench.registry.cold");
    let cold_files = snapshot(&inputs.registry);
    let warm = cold.as_ref().ok().map(|_| run("bench.registry.warm"));
    remove_dir(&dir);
    let (cold, cold_t) = cold?;
    let (warm, warm_t) = warm.expect("warm pass follows a successful cold pass")?;

    ops.check(
        cold.expensive_builds > 0,
        "cold pass builds the expensive artifacts (its cache started empty)",
    );
    ops.check(
        warm.expensive_builds == 0,
        "warm pass rebuilds nothing expensive",
    );
    ops.check(warm.disk_hits > 0, "warm pass reads the disk cache");
    let warm_files = snapshot(&inputs.registry);
    for (name, bytes) in &cold_files {
        ops.check(
            bytes.is_some() && warm_files.get(name) == Some(bytes),
            &format!("warm pass reproduces results/{name} byte for byte"),
        );
    }
    Ok(Pair {
        cold,
        warm,
        telemetry: cold_t.zip(warm_t),
    })
}

pub fn run(args: &RunArgs) -> Option<Outcome> {
    let mut ops = Ops::default();
    let mut metrics = Metrics::new();
    let (inputs, setup_s) = ops.pass(
        timed_median(SETUP_REPS, || setup(args.seed, args.threads)),
        "set-up",
    )?;

    // The `fleet` experiment trains and evaluates every hub under each
    // paper pricing method; its wall is the denominator of both rates.
    let config = system_config(Scale::Smoke);
    let fleet_episodes = config.world.num_hubs as usize
        * PricingMethod::PAPER_SET.len()
        * config.world.horizon_slots;
    let fleet_transitions = (fleet_episodes * config.trainer.episodes) as f64;
    let fleet_hub_slots =
        (fleet_episodes * (config.trainer.episodes + config.test_episodes)) as f64;

    let mut plain: Vec<Pair> = Vec::new();
    let mut traced_pairs: Vec<Pair> = Vec::new();
    let (mut cold_tally, mut warm_tally) = (Tally::default(), Tally::default());
    let (mut price_train_s, mut world_gen_s) = (0.0, 0.0);
    let mut budget = Budget::new(args.seconds, if args.trace { 2 } else { 1 });
    let mut reps = 0;
    while budget.more(reps) {
        let trace_this = args.trace && reps % 2 == 1;
        let result = pair(&inputs, &reps.to_string(), trace_this, &mut ops);
        reps += 1;
        let mut pair = ops.pass(result, "reproduce cold/warm pair")?;
        println!(
            "pair {reps} (traced: {trace_this}): cold {:.4} s, warm {:.4} s",
            pair.cold.wall_s, pair.warm.wall_s
        );
        let reward = |p: &PassResult| p.entry("fleet").map(|e| e.metric_value);
        ops.check(
            reward(&pair.cold).is_some_and(f64::is_finite),
            "fleet reward is finite",
        );
        if let Some((cold_t, warm_t)) = pair.telemetry.take() {
            cold_tally.absorb(&cold_t);
            warm_tally.absorb(&warm_t);
            price_train_s += build_s(&cold_t, "pricing-model");
            world_gen_s += build_s(&cold_t, "world");
            traced_pairs.push(pair);
        } else {
            plain.push(pair);
        }
    }

    if args.trace {
        let passes = traced_pairs.len() as f64;
        let per_pass = |f: &dyn Fn(&Pair) -> f64| ratio(traced_pairs.iter().map(f).sum(), passes);
        let both = |f: &dyn Fn(&Tally) -> f64| f(&cold_tally) + f(&warm_tally);
        let update_s = both(&|t| t.span_per_pass("ppo.update"));
        let collect_s = both(&|t| t.span_per_pass("ppo.collect"));
        metrics.insert("drl.update_s".into(), update_s);
        metrics.insert("drl.collect_s".into(), collect_s);
        metrics.insert(
            "drl.update_share".into(),
            ratio(update_s, update_s + collect_s),
        );
        metrics.insert("price.train_s".into(), ratio(price_train_s, passes));
        metrics.insert("data.world_gen_s".into(), ratio(world_gen_s, passes));
        let synth_s = both(&|t| t.span_per_pass("microsim.step"));
        let associations = both(&|t| t.counter_per_pass("microsim.associations"));
        metrics.insert("microsim.synth_s".into(), synth_s);
        metrics.insert("microsim.associations".into(), associations);
        metrics.insert(
            "microsim.ue_slots_per_s".into(),
            ratio(associations, synth_s),
        );
        metrics.insert(
            "dispatch.jobs".into(),
            both(&|t| t.counter_per_pass("dispatch.jobs")),
        );
        metrics.insert(
            "dispatch.steals".into(),
            both(&|t| t.counter_per_pass("dispatch.steals")),
        );
        metrics.insert(
            "dag.utilisation".into(),
            ratio(
                both(&|t| t.counter("run_dag.busy_us") as f64),
                both(&|t| t.counter("run_dag.capacity_us") as f64),
            ),
        );
        metrics.insert(
            "artifact.builds".into(),
            per_pass(&|p| p.cold.builds as f64),
        );
        metrics.insert(
            "artifact.build_s".into(),
            cold_tally.span_per_pass("artifact.build"),
        );
        metrics.insert(
            "artifact.disk_hits".into(),
            per_pass(&|p| p.warm.disk_hits as f64),
        );
        metrics.insert(
            "cache.write_bytes".into(),
            cold_tally.counter_per_pass("cache.disk_write_bytes"),
        );
        metrics.insert(
            "cache.read_bytes".into(),
            warm_tally.counter_per_pass("cache.disk_read_bytes"),
        );
        for id in REGISTRY_IDS {
            let wall = |p: &PassResult| p.entry(id).map_or(0.0, |e| e.wall_time_s);
            metrics.insert(format!("registry.{id}_s"), per_pass(&|p| wall(&p.cold)));
            metrics.insert(
                format!("registry.{id}_warm_s"),
                per_pass(&|p| wall(&p.warm)),
            );
        }
        let pair_wall = |p: &Pair| p.cold.wall_s + p.warm.wall_s;
        let traced_walls: Vec<f64> = traced_pairs.iter().map(pair_wall).collect();
        let plain_walls: Vec<f64> = plain.iter().map(pair_wall).collect();
        metrics.insert(
            "obs.overhead_pct".into(),
            overhead_pct(&traced_walls, &plain_walls),
        );
        let covered: f64 = STAGES
            .iter()
            .map(|s| cold_tally.span_s(s) + warm_tally.span_s(s))
            .sum();
        metrics.insert(
            "obs.span_coverage".into(),
            ratio(covered, traced_walls.iter().sum()),
        );
        let state_dim = ops.pass(
            WorldDataset::generate(config.world.clone()).and_then(|w| policy_state_dim(&w)),
            "policy net probe",
        )?;
        nn_probe(
            state_dim,
            config.trainer.ppo.minibatch_size,
            args.seed,
            &mut metrics,
        );
    } else {
        let passes: Vec<&PassResult> = plain.iter().flat_map(|p| [&p.cold, &p.warm]).collect();
        let cold: Vec<f64> = plain.iter().map(|p| p.cold.wall_s).collect();
        let warm: Vec<f64> = plain.iter().map(|p| p.warm.wall_s).collect();
        let fleet_s: Vec<f64> = passes
            .iter()
            .filter_map(|p| p.entry("fleet"))
            .map(|e| e.wall_time_s)
            .collect();
        let rate = |work: f64| median(&fleet_s.iter().map(|s| work / s).collect::<Vec<_>>());
        let rewards: Vec<f64> = passes
            .iter()
            .filter_map(|p| p.entry("fleet"))
            .map(|e| e.metric_value)
            .collect();
        let rss: Vec<f64> = passes.iter().map(|p| p.peak_rss_mb).collect();
        metrics.insert("wall_s".into(), median(&cold));
        metrics.insert("warm_wall_s".into(), median(&warm));
        metrics.insert("setup_s".into(), setup_s);
        metrics.insert("train_samples_per_s".into(), rate(fleet_transitions));
        metrics.insert("sim_hub_slots_per_s".into(), rate(fleet_hub_slots));
        metrics.insert("mean_daily_reward_usd".into(), median(&rewards));
        metrics.insert("peak_rss_mb".into(), median(&rss));
    }
    Some(Outcome { ops, metrics })
}
