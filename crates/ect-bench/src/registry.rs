//! The experiment registry: every paper figure/table and beyond-paper study
//! as one uniform, driveable catalog.
//!
//! [`ExperimentRegistry::standard`] lists every [`Experiment`] in `run_all`
//! execution order. The `src/bin/*` binaries are one-line wrappers over
//! [`run_single`]; `run_all` is [`run_all_main`] — both share the
//! [`crate::cli`] parser and one [`Session`], so every expensive
//! intermediate (the assembled system, the trained ECT-Price model, the
//! held-out baselines, trained generalists) is built exactly once per
//! process however many experiments run.

use crate::cli::BenchArgs;
use crate::experiments::{
    ablations::AblationsExperiment, coordination::CoordinationExperiment, fig01::Fig01Experiment,
    fig02::Fig02Experiment, fig03::Fig03Experiment, fig04::Fig04Experiment, fig05::Fig05Experiment,
    fig11::Fig11Experiment, fig12::Fig12Experiment, fleet::FleetExperiment,
    generalization::GeneralizationExperiment, microsim::MicrosimExperiment,
    scenario_sweep::ScenarioSweepExperiment, severity_sweep::SeveritySweepExperiment,
    table2::Table2Experiment, throughput::ThroughputExperiment,
};
use crate::output::{upsert_bench_summary, BenchSummaryEntry};
use ect_core::experiment::{run_timed, Experiment, ExperimentOutput};
use ect_core::session::Session;
use std::time::Instant;

/// An ordered catalog of registered experiments.
pub struct ExperimentRegistry {
    entries: Vec<Box<dyn Experiment>>,
}

impl Default for ExperimentRegistry {
    fn default() -> Self {
        Self::standard()
    }
}

impl ExperimentRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self {
            entries: Vec::new(),
        }
    }

    /// The standard catalog: every experiment `run_all` executes, in
    /// execution order.
    pub fn standard() -> Self {
        let mut registry = Self::new();
        registry.register(Box::new(Fig01Experiment));
        registry.register(Box::new(Fig02Experiment));
        registry.register(Box::new(Fig03Experiment));
        registry.register(Box::new(Fig04Experiment));
        registry.register(Box::new(Fig05Experiment));
        registry.register(Box::new(Table2Experiment));
        registry.register(Box::new(Fig11Experiment));
        registry.register(Box::new(Fig12Experiment));
        registry.register(Box::new(FleetExperiment));
        registry.register(Box::new(AblationsExperiment));
        registry.register(Box::new(ScenarioSweepExperiment));
        registry.register(Box::new(GeneralizationExperiment));
        registry.register(Box::new(SeveritySweepExperiment));
        registry.register(Box::new(ThroughputExperiment));
        registry.register(Box::new(CoordinationExperiment));
        registry.register(Box::new(MicrosimExperiment));
        registry
    }

    /// Registers an experiment at the end of the execution order.
    ///
    /// # Panics
    ///
    /// Panics when the experiment's id or any of its artifact stems collides
    /// with an already-registered experiment — ids are CLI names and stems
    /// are `results/` files, so a collision is a harness bug.
    pub fn register(&mut self, experiment: Box<dyn Experiment>) {
        assert!(
            self.get(experiment.id()).is_none(),
            "duplicate experiment id '{}'",
            experiment.id()
        );
        for stem in experiment.artifact_stems() {
            assert!(
                !self
                    .entries
                    .iter()
                    .any(|e| e.artifact_stems().contains(stem)),
                "artifact stem '{stem}' already written by another experiment"
            );
        }
        self.entries.push(experiment);
    }

    /// The registered experiments, in execution order.
    pub fn experiments(&self) -> &[Box<dyn Experiment>] {
        &self.entries
    }

    /// Registered ids, in execution order.
    pub fn ids(&self) -> Vec<&'static str> {
        self.entries.iter().map(|e| e.id()).collect()
    }

    /// Number of registered experiments.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks an experiment up by id.
    pub fn get(&self, id: &str) -> Option<&dyn Experiment> {
        self.entries
            .iter()
            .find(|e| e.id() == id)
            .map(|e| e.as_ref())
    }

    /// The `--list` catalog text: one row per experiment plus the flag
    /// summary.
    pub fn catalog(&self) -> String {
        let mut out = String::from("experiments run by run_all, in order:\n\n");
        for experiment in &self.entries {
            out.push_str(&format!(
                "  {:<22} {}\n",
                experiment.id(),
                experiment.description()
            ));
            out.push_str(&format!(
                "  {:<22} └─ results/: {}\n",
                "",
                experiment.artifact_stems().join(" + ")
            ));
        }
        out.push_str(
            "\nflags: --full (paper budgets), --smoke (CI budgets), \
             --only <ids>, --skip <ids>, --threads <n>, \
             --no-cache, --cache-dir <path>, --telemetry[=<path>] (JSONL \
             spans/counters), --quiet (no stderr progress), --list (this listing)",
        );
        out
    }

    /// Validates that every filter id names a registered experiment.
    ///
    /// # Errors
    ///
    /// Returns [`ect_types::EctError::InvalidConfig`] naming the unknown id.
    pub fn check_filters(&self, args: &BenchArgs) -> ect_types::Result<()> {
        for id in args.only.iter().chain(&args.skip) {
            if self.get(id).is_none() {
                return Err(ect_types::EctError::InvalidConfig(format!(
                    "unknown experiment id '{id}' (run with --list for the catalog)"
                )));
            }
        }
        Ok(())
    }

    /// Runs every experiment the filters select over the shared session,
    /// scheduling independent experiments concurrently across the
    /// session's worker threads: each selected experiment becomes one job
    /// of a dependency DAG ([`dependency_edges`]), so e.g. the five
    /// pricing experiments wait for their shared ECT-Price training while
    /// everything else runs alongside. Returns one summary entry per
    /// executed experiment, **in registry order** — with one thread the
    /// jobs also *run* in registry order, and the `results/*.json` outputs
    /// are bit-identical at any thread count (every artifact is memoised
    /// by content hash, never by arrival order).
    ///
    /// # Errors
    ///
    /// Propagates filter validation, the lowest-indexed experiment failure
    /// and a `BENCH_summary.json` that cannot be updated.
    pub fn run_filtered(
        &self,
        session: &Session,
        args: &BenchArgs,
    ) -> ect_types::Result<Vec<BenchSummaryEntry>> {
        self.check_filters(args)?;
        let selected: Vec<&dyn Experiment> = self
            .entries
            .iter()
            .filter(|e| args.selects(e.id()))
            .map(|e| e.as_ref())
            .collect();
        let deps = dependency_edges(&selected);
        let outputs = ect_core::dispatch::run_dag(
            (0..selected.len()).collect(),
            deps,
            session.threads(),
            |idx, _| {
                let experiment = selected[idx];
                {
                    // Banner under the process-wide print lock: with a
                    // parallel scheduler, two experiments starting at once
                    // must not interleave their banner lines with each
                    // other or with progress output.
                    let _serialized = ect_obs::print_lock();
                    println!(
                        "\n################ {} ({}) ################\n",
                        experiment.id(),
                        session.scale()
                    );
                }
                run_timed(experiment, session)
            },
        )?;
        Ok(outputs.iter().map(summary_entry).collect())
    }
}

/// Derives the scheduler's dependency edges from what the experiments
/// declare: for each [`Experiment::dependency_stems`] stem, the *first*
/// selected experiment declaring it is the group's provider, and every
/// later declarer depends on that provider (and on nothing else). With the
/// standard registry this turns the five pricing experiments into
/// `table2_price → {fig11, fig12, fleet, ablations}` while all other
/// experiments stay independent.
///
/// Providers are always earlier in the list than their consumers, so the
/// result satisfies [`ect_core::dispatch::run_dag`]'s earlier-job contract
/// by construction.
pub fn dependency_edges(experiments: &[&dyn Experiment]) -> Vec<Vec<usize>> {
    let mut provider: std::collections::HashMap<&'static str, usize> =
        std::collections::HashMap::new();
    let mut deps: Vec<Vec<usize>> = vec![Vec::new(); experiments.len()];
    for (idx, experiment) in experiments.iter().enumerate() {
        for &stem in experiment.dependency_stems() {
            match provider.get(stem) {
                Some(&host) => deps[idx].push(host),
                None => {
                    provider.insert(stem, idx);
                }
            }
        }
        deps[idx].sort_unstable();
        deps[idx].dedup();
    }
    deps
}

/// Converts an experiment envelope into its `results/BENCH_summary.json`
/// row.
pub fn summary_entry(output: &ExperimentOutput) -> BenchSummaryEntry {
    BenchSummaryEntry {
        experiment: output.id.clone(),
        wall_time_s: output.wall_time_s,
        metric_name: output.metric_name.clone(),
        metric_value: output.metric_value,
    }
}

/// Shared `main` of the single-experiment binaries: parse the CLI, build
/// the session, run the one registered experiment (`--list` prints the
/// catalog instead).
///
/// # Errors
///
/// Propagates lookup and experiment failures.
pub fn run_single(id: &str) -> ect_types::Result<()> {
    let args = BenchArgs::parse();
    let registry = ExperimentRegistry::standard();
    if args.list {
        println!("{}", registry.catalog());
        return Ok(());
    }
    let experiment = registry.get(id).ok_or_else(|| {
        ect_types::EctError::InvalidConfig(format!("experiment '{id}' is not registered"))
    })?;
    let session = args.session(id)?;
    let telemetry = args.install_telemetry(&session);
    let result = run_timed(experiment, &session);
    if let Some(telemetry) = telemetry {
        telemetry.flush_metrics();
        ect_obs::uninstall();
        println!("\n{}", telemetry.summary().render(10));
    }
    result.map(|_| ())
}

/// Artifact kinds whose build is an expensive training/evaluation pass —
/// the kinds the warm-cache acceptance probe requires to report **zero**
/// builds on a second identical run.
pub const EXPENSIVE_KINDS: &[&str] = &[
    "heldout-baselines",
    "generalist",
    "severity",
    "pricing-table",
    "pricing-model",
    "coordination",
    "microsim-demand",
    crate::experiments::table2::KIND,
    crate::experiments::ablations::KIND,
    crate::experiments::scenario_sweep::KIND,
];

/// Prints the per-kind memory/disk/build breakdown of the session's
/// artifact store, ending with the machine-greppable
/// `expensive builds this pass: N` line CI asserts on.
fn print_cache_breakdown(session: &Session) {
    let snapshot = session.store().stats_snapshot();
    if snapshot.is_empty() {
        return;
    }
    println!("\nartifact store (memory → disk → build):");
    println!(
        "  {:<24} {:>7} {:>6} {:>7}",
        "kind", "memory", "disk", "builds"
    );
    for (kind, stats) in &snapshot {
        println!(
            "  {:<24} {:>7} {:>6} {:>7}",
            kind, stats.memory_hits, stats.disk_hits, stats.builds
        );
    }
    let expensive: usize = snapshot
        .iter()
        .filter(|(kind, _)| EXPENSIVE_KINDS.contains(kind))
        .map(|(_, stats)| stats.builds)
        .sum();
    match session.cache_dir() {
        Some(dir) => println!("persistent cache: {}", dir.display()),
        None => println!("persistent cache: disabled"),
    }
    println!("expensive builds this pass: {expensive}");
}

/// Keeps the historical `pricing_artifacts` row of a pass's summary: the
/// shared ECT-Price build runs inside whichever pricing experiment builds
/// the artifacts first (its [`PricingBuild::host`]), so its wall time moves
/// from that experiment's row to its own, inserted at the row's historical
/// position (just before `table2_price`). Per-experiment walls then stay
/// comparable across passes: on a warm pass Table II comes off disk and a
/// Fig. 11/12 run hosts the build instead.
///
/// [`PricingBuild::host`]: crate::experiments::PricingBuild::host
pub fn attribute_pricing_build(
    summary: &mut Vec<BenchSummaryEntry>,
    build: crate::experiments::PricingBuild,
) {
    if let Some(host) = summary
        .iter_mut()
        .find(|entry| Some(entry.experiment.as_str()) == build.host)
    {
        host.wall_time_s = (host.wall_time_s - build.wall_time_s).max(0.0);
    }
    let at = summary
        .iter()
        .position(|entry| entry.experiment == "table2_price")
        .unwrap_or(summary.len());
    summary.insert(
        at,
        BenchSummaryEntry {
            experiment: "pricing_artifacts".into(),
            wall_time_s: build.wall_time_s,
            metric_name: "train_records".into(),
            metric_value: build.train_records as f64,
        },
    );
}

/// The `run_all` entry point: runs the (filtered) catalog over one shared
/// session and writes `results/BENCH_summary.json` for full passes.
///
/// # Errors
///
/// Propagates filter validation and the first experiment failure.
pub fn run_all_main() -> ect_types::Result<()> {
    let args = BenchArgs::parse();
    let registry = ExperimentRegistry::standard();
    if args.list {
        println!("{}", registry.catalog());
        return Ok(());
    }
    let t0 = Instant::now();
    let session = args.session("run_all")?;
    let telemetry = args.install_telemetry(&session);
    let mut summary = registry.run_filtered(&session, &args)?;
    if let Some(build) = crate::experiments::pricing_build(&session) {
        attribute_pricing_build(&mut summary, build);
    }
    let wall = t0.elapsed().as_secs_f64();
    // Telemetry teardown before the summary is written: flush the metric
    // snapshots, close the JSONL stream, keep the handle for the
    // utilization/overhead rows and the printed table.
    let telemetry = telemetry.inspect(|telemetry| {
        telemetry.flush_metrics();
        ect_obs::uninstall();
    });
    if args.only.is_empty() && args.skip.is_empty() {
        // Scheduler + cache telemetry rows: the full-pass wall time (the
        // number the dependency-aware scheduler is meant to shrink) and the
        // store counters (a warm pass shows builds collapsing into disk
        // hits).
        let experiments = summary.len();
        summary.push(BenchSummaryEntry {
            experiment: "run_all".into(),
            wall_time_s: wall,
            metric_name: "experiments".into(),
            metric_value: experiments as f64,
        });
        let store = session.store();
        for (name, value) in [
            (
                "artifact_cache_memory_hits",
                store.hits() - store.disk_hits(),
            ),
            ("artifact_cache_disk_hits", store.disk_hits()),
            ("artifact_cache_builds", store.builds()),
        ] {
            summary.push(BenchSummaryEntry {
                experiment: name.into(),
                wall_time_s: 0.0,
                metric_name: "count".into(),
                metric_value: value as f64,
            });
        }
        if let Some(telemetry) = &telemetry {
            // Scheduler health from the run_dag counters: the fraction of
            // worker capacity (wall × workers) the experiment jobs kept
            // busy, and how much of the wall the telemetry layer itself
            // consumed.
            let busy = telemetry.counter_value("run_dag.busy_us");
            let capacity = telemetry.counter_value("run_dag.capacity_us");
            summary.push(BenchSummaryEntry {
                experiment: "dag_worker_utilization".into(),
                wall_time_s: 0.0,
                metric_name: "busy_over_capacity".into(),
                metric_value: if capacity == 0 {
                    0.0
                } else {
                    busy as f64 / capacity as f64
                },
            });
            let wall_us = (wall * 1e6).max(1.0);
            summary.push(BenchSummaryEntry {
                experiment: "telemetry_overhead_pct".into(),
                wall_time_s: 0.0,
                metric_name: "pct_of_wall".into(),
                metric_value: telemetry.overhead_us() as f64 / wall_us * 100.0,
            });
        }
        upsert_bench_summary(&summary)?;
    } else {
        println!(
            "\n[run_all] filtered pass ({} of {} experiments) — BENCH_summary.json untouched",
            summary.len(),
            registry.len()
        );
    }
    print_cache_breakdown(&session);
    if let Some(telemetry) = &telemetry {
        println!("\n{}", telemetry.summary().render(10));
        println!(
            "telemetry: {} written ({} µs recording overhead)",
            args.telemetry_path(session.label(), session.config().seed)
                .display(),
            telemetry.overhead_us()
        );
    }
    println!(
        "\nall experiments done in {:.1} s ({} artifact-store hits: {} memory + {} disk; {} builds)",
        wall,
        session.store().hits(),
        session.store().hits() - session.store().disk_hits(),
        session.store().disk_hits(),
        session.store().builds()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_has_unique_ids_and_artifact_stems() {
        let registry = ExperimentRegistry::standard();
        assert_eq!(registry.len(), 16);
        assert!(!registry.is_empty());

        let ids = registry.ids();
        let mut deduped = ids.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), ids.len(), "experiment ids must be unique");

        let mut stems: Vec<&str> = registry
            .experiments()
            .iter()
            .flat_map(|e| e.artifact_stems().iter().copied())
            .collect();
        let total = stems.len();
        stems.sort_unstable();
        stems.dedup();
        assert_eq!(stems.len(), total, "results/*.json stems must be unique");

        // Every experiment writes at least one artifact and describes
        // itself.
        for experiment in registry.experiments() {
            assert!(
                !experiment.artifact_stems().is_empty(),
                "{}",
                experiment.id()
            );
            assert!(!experiment.description().is_empty(), "{}", experiment.id());
        }
    }

    #[test]
    fn registry_keeps_the_historical_run_all_order() {
        let registry = ExperimentRegistry::standard();
        assert_eq!(
            registry.ids(),
            vec![
                "fig01_spatial",
                "fig02_renewables",
                "fig03_charging_freq",
                "fig04_degradation",
                "fig05_rtp_traffic",
                "table2_price",
                "fig11_strata_stations",
                "fig12_strata_periods",
                "fleet",
                "ablations",
                "scenario_sweep",
                "generalization",
                "severity_sweep",
                "throughput",
                "coordination",
                "microsim",
            ]
        );
    }

    #[test]
    fn catalog_lists_every_registered_experiment() {
        let registry = ExperimentRegistry::standard();
        let catalog = registry.catalog();
        for experiment in registry.experiments() {
            assert!(catalog.contains(experiment.id()), "{}", experiment.id());
            for stem in experiment.artifact_stems() {
                assert!(catalog.contains(stem), "{stem}");
            }
        }
        assert!(catalog.contains("--only"));
        assert!(catalog.contains("--skip"));
    }

    #[test]
    fn lookup_and_filter_validation() {
        let registry = ExperimentRegistry::standard();
        assert!(registry.get("fleet").is_some());
        assert!(registry.get("no-such-experiment").is_none());

        let ok = BenchArgs {
            only: vec!["fleet".into()],
            skip: vec!["ablations".into()],
            ..BenchArgs::default()
        };
        registry.check_filters(&ok).unwrap();
        let bad = BenchArgs {
            only: vec!["flete".into()],
            ..BenchArgs::default()
        };
        assert!(registry.check_filters(&bad).is_err());
    }

    #[test]
    #[should_panic(expected = "duplicate experiment id")]
    fn duplicate_ids_are_rejected_at_registration() {
        let mut registry = ExperimentRegistry::standard();
        registry.register(Box::new(crate::experiments::fleet::FleetExperiment));
    }

    #[test]
    fn dependency_edges_chain_consumers_to_the_first_provider() {
        let registry = ExperimentRegistry::standard();
        let all: Vec<&dyn Experiment> = registry.experiments().iter().map(|e| e.as_ref()).collect();
        let deps = dependency_edges(&all);
        let idx_of = |id: &str| all.iter().position(|e| e.id() == id).unwrap();

        // table2_price is the first declarer of the "pricing" stem: it is
        // the provider and itself depends on nothing.
        let table2 = idx_of("table2_price");
        assert!(deps[table2].is_empty());
        for consumer in [
            "fig11_strata_stations",
            "fig12_strata_periods",
            "fleet",
            "ablations",
        ] {
            assert_eq!(deps[idx_of(consumer)], vec![table2], "{consumer}");
        }
        // Everything else is independent.
        for experiment in &all {
            if !experiment.dependency_stems().contains(&"pricing") {
                assert!(
                    deps[idx_of(experiment.id())].is_empty(),
                    "{}",
                    experiment.id()
                );
            }
        }

        // Filtering the provider out promotes the next declarer: fig11
        // becomes the provider of the remaining pricing experiments.
        let filtered: Vec<&dyn Experiment> = all
            .iter()
            .copied()
            .filter(|e| e.id() != "table2_price")
            .collect();
        let deps = dependency_edges(&filtered);
        let fig11 = filtered
            .iter()
            .position(|e| e.id() == "fig11_strata_stations")
            .unwrap();
        assert!(deps[fig11].is_empty());
        let fleet = filtered.iter().position(|e| e.id() == "fleet").unwrap();
        assert_eq!(deps[fleet], vec![fig11]);
    }

    #[test]
    fn expensive_kinds_cover_the_training_artifacts() {
        for kind in [
            "heldout-baselines",
            "generalist",
            "severity",
            "pricing-model",
            "coordination",
            "microsim-demand",
            "table2",
            "ablations",
            "scenario-sweep",
        ] {
            assert!(EXPENSIVE_KINDS.contains(&kind), "{kind}");
        }
        // Cheap, recomputed-per-process kinds stay out: their builds are
        // expected on every pass, warm or cold.
        for kind in ["world", "system", "pricing-artifacts"] {
            assert!(!EXPENSIVE_KINDS.contains(&kind), "{kind}");
        }
    }

    #[test]
    fn summary_entries_mirror_the_envelope() {
        let output = ExperimentOutput::new("fleet", "mean_avg_daily_reward", 310.25);
        let entry = summary_entry(&output);
        assert_eq!(entry.experiment, "fleet");
        assert_eq!(entry.metric_name, "mean_avg_daily_reward");
        assert_eq!(entry.metric_value.to_bits(), 310.25f64.to_bits());
    }
}
