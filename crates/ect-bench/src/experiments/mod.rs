//! One module per paper table/figure, plus shared pricing artifacts.

pub mod ablations;
pub mod coordination;
pub mod fig01;
pub mod fig02;
pub mod fig03;
pub mod fig04;
pub mod fig05;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fleet;
pub mod generalization;
pub mod microsim;
pub mod scenario_sweep;
pub mod severity_sweep;
pub mod table2;
pub mod throughput;

use crate::Scale;
use ect_core::prelude::*;
use ect_price::features::PricingDataset;
use ect_price::model::EctPriceModel;
use std::sync::Arc;

/// Seed-stream separator of the shared ECT-Price training rng.
const PRICING_SEED_STREAM: u64 = 0x9A1C;

/// Everything the pricing experiments share: the system, the observational
/// split and a trained ECT-Price model.
pub struct PricingArtifacts {
    /// The assembled system (world + config).
    pub system: EctHubSystem,
    /// Training split of the observational history.
    pub train: PricingDataset,
    /// Held-out evaluation split.
    pub test: PricingDataset,
    /// The trained ECT-Price model.
    pub model: EctPriceModel,
}

/// The smoke-scale session the experiments' own tests run in.
#[cfg(test)]
pub(crate) fn smoke_session() -> Session {
    SessionBuilder::new(system_config(Scale::Smoke))
        .scale(Scale::Smoke)
        .threads(4)
        .build()
        .expect("smoke session builds")
}

/// System configuration at the given experiment scale.
pub fn system_config(scale: Scale) -> SystemConfig {
    let mut config = SystemConfig::default();
    match scale {
        Scale::Smoke => {
            // CI-sized: the miniature world with a trimmed pricing history,
            // so even the pricing/fleet stages finish in seconds.
            config = SystemConfig::miniature();
            config.trainer.episodes = 2;
            config.test_episodes = 1;
        }
        Scale::Quick => {
            config.pricing_history_slots = 24 * 7 * 26;
            config.pricing_test_slots = 24 * 7 * 8;
            config.ect_price.epochs = 8;
            config.ect_price.lr_decay = 0.9;
            config.baseline.epochs = 3;
            config.trainer.episodes = 150;
            config.test_episodes = 20;
        }
        Scale::Paper => {
            config.pricing_history_slots = 24 * 365 * 2;
            config.pricing_test_slots = 24 * 365;
            config.ect_price.epochs = 30;
            config.ect_price.lr_decay = 0.92;
            config.baseline.epochs = 6;
            config.trainer.episodes = 500;
            config.test_episodes = 100;
        }
    }
    config
}

/// Trains the shared ECT-Price model on the system's observational history
/// — the expensive, *serialisable* half of the pricing artifacts, and the
/// piece that spills to the persistent cache.
fn train_pricing_model(
    system: &EctHubSystem,
    train: &PricingDataset,
) -> ect_types::Result<EctPriceModel> {
    let mut rng = EctRng::seed_from(system.config().seed ^ PRICING_SEED_STREAM);
    let space = system.feature_space();
    let config = system.config().ect_price.clone();
    let mut model = EctPriceModel::new(space, &config, &mut rng);
    model.train(train, &config, &mut rng)?;
    Ok(model)
}

fn train_artifacts(system: EctHubSystem) -> ect_types::Result<PricingArtifacts> {
    let (train, test) = system.pricing_datasets();
    let model = train_pricing_model(&system, &train)?;
    Ok(PricingArtifacts {
        system,
        train,
        test,
        model,
    })
}

/// Builds the shared pricing artifacts (generates the world, splits the
/// history, trains ECT-Price). Standalone path for benches; harness runs
/// share one build through [`pricing_artifacts`] instead.
///
/// # Errors
///
/// Propagates system construction and training failures.
pub fn build_pricing_artifacts(scale: Scale) -> ect_types::Result<PricingArtifacts> {
    train_artifacts(EctHubSystem::new(system_config(scale))?)
}

/// Build provenance of the shared pricing artifacts: how long the one
/// ECT-Price training of a session took and how much data it saw. Stored
/// next to the artifacts so `run_all` can keep the historical
/// `pricing_artifacts` row of `results/BENCH_summary.json` and take its
/// wall time out of the row of the experiment that hosted the build
/// ([`crate::registry::attribute_pricing_build`]).
#[derive(Debug, Clone, Copy)]
pub struct PricingBuild {
    /// Wall-clock seconds spent generating the history and training.
    pub wall_time_s: f64,
    /// Training records the model saw (the row's historical metric).
    pub train_records: usize,
    /// The experiment whose run built the artifacts, and whose wall time
    /// therefore holds `wall_time_s` (`None` outside an experiment).
    pub host: Option<&'static str>,
}

/// Code version of the `pricing-model` disk artifact. Bump whenever the
/// ECT-Price training pipeline changes in a result-affecting way — a bump
/// moves the key's digest, so stale cache entries stop resolving instead of
/// silently serving the old model.
const PRICING_MODEL_VERSION: u32 = 1;

// Code versions of the experiment-result kinds, under the same bump rule as
// `ect_core::session::kind_versions`: bump a constant whenever its
// experiment's body changes what it computes (not just its inputs), so warm
// caches stop serving results of the older code.

/// `table2` — Table II ([`table2::cached`]).
pub const TABLE2_VERSION: u32 = 1;
/// `ablations` — the four ablation families ([`ablations::cached`]).
pub const ABLATIONS_VERSION: u32 = 1;
/// `scenario-sweep` — the stress library × pricing methods
/// ([`scenario_sweep::cached`]).
pub const SCENARIO_SWEEP_VERSION: u32 = 1;

fn pricing_build_key(config: &SystemConfig) -> ArtifactKey {
    ArtifactKey::of("pricing-artifacts-build", config)
}

/// The shared pricing artifacts of the session's scale, memoised in its
/// artifact store: `run_all`, `table2_price`, the Fig. 11/12 bins and the
/// fleet stage all train ECT-Price exactly once per session. Bit-identical
/// to [`build_pricing_artifacts`] at the same scale.
///
/// The datasets and assembled system are recomputed from the memoised
/// world (cheap, deterministic); the trained `EctPriceModel` is the
/// expensive piece and is persisted under the `pricing-model` kind, so a
/// session with a disk cache attached skips the ECT-Price training across
/// *processes* too.
///
/// # Errors
///
/// Propagates system construction and training failures.
pub fn pricing_artifacts(session: &Session) -> ect_types::Result<Arc<PricingArtifacts>> {
    let config = system_config(session.scale());
    let key = ArtifactKey::of("pricing-artifacts", &config);
    let model_key = ArtifactKey::versioned("pricing-model", PRICING_MODEL_VERSION, &config);
    if !session.store().contains(&key) && !session.store().available_without_build(&model_key) {
        session.report("training pricing models …");
    }
    let system = session.system_for(&config)?;
    let t0 = std::time::Instant::now();
    let model = session.store().get_or_insert_cached(model_key, || {
        let (train, _) = system.pricing_datasets();
        train_pricing_model(&system, &train)
    })?;
    let mut built = false;
    let artifacts = session.store().get_or_insert(key, || {
        built = true;
        let (train, test) = system.pricing_datasets();
        Ok(PricingArtifacts {
            system: (*system).clone(),
            train,
            test,
            model: (*model).clone(),
        })
    })?;
    // Only one caller builds the artifacts; callers that waited for it
    // record nothing, so the build names exactly one host.
    if built {
        let build = PricingBuild {
            wall_time_s: t0.elapsed().as_secs_f64(),
            train_records: artifacts.train.len(),
            host: ect_core::running_experiment(),
        };
        session
            .store()
            .get_or_insert(pricing_build_key(&config), || Ok(build))?;
    }
    Ok(artifacts)
}

/// The build provenance recorded by [`pricing_artifacts`], if this session
/// trained the shared model (None when no pricing experiment ran).
pub fn pricing_build(session: &Session) -> Option<PricingBuild> {
    let config = system_config(session.scale());
    session
        .store()
        .get::<PricingBuild>(&pricing_build_key(&config))
        .map(|build| *build)
}
