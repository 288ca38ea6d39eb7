//! Table II — ECT-Price vs OR/IPS/DR across discount levels.

use super::{
    pricing_artifacts, system_config, PricingArtifacts, PRICING_MODEL_VERSION, TABLE2_VERSION,
};
use ect_core::prelude::*;
use ect_price::engine::EctPriceEngine;
use ect_price::eval::evaluate_engine;
use std::sync::Arc;

/// Re-exported result type: the core crate's table is already the right
/// shape for this experiment.
pub use ect_core::pricing::PricingTable as Table2Result;

/// The paper's discount sweep (10 % – 60 %).
pub const DISCOUNTS: [f64; 6] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6];

/// Runs the full Table II: trains the three baselines (ECT-Price comes
/// pre-trained in the artifacts) and evaluates everything on the held-out
/// test split.
///
/// # Errors
///
/// Propagates baseline-training failures.
// This rng stream (seed ^ 0x7AB2) reproduces the historical Table II bit for
// bit, whereas the session's memoised `pricing_table` uses its own
// decorrelated stream.
pub fn run(artifacts: &PricingArtifacts) -> ect_types::Result<Table2Result> {
    let mut rng = EctRng::seed_from(artifacts.system.config().seed ^ 0x7AB2);
    let mut table = ect_core::pricing::pricing_table(
        &artifacts.system,
        &artifacts.train,
        &artifacts.test,
        &DISCOUNTS,
        &mut rng,
    )?;
    // Replace the freshly trained "Ours" row with the shared artifact model
    // so Table II, Fig. 11 and Fig. 12 report the same network.
    let engine = EctPriceEngine::new(artifacts.model.clone());
    if let Some(ours) = table.methods.iter_mut().find(|m| m.method == "Ours") {
        ours.per_discount = DISCOUNTS
            .iter()
            .map(|&c| evaluate_engine(&engine, &artifacts.test, c))
            .collect();
    }
    Ok(table)
}

/// Artifact kind of the memoised Table II.
pub const KIND: &str = "table2";

/// Store key of Table II over `config` and a discount sweep. The shared
/// ECT-Price model's code version is part of it, since the "Ours" row
/// reports that model.
pub fn cache_key(config: &SystemConfig, discounts: &[f64]) -> ArtifactKey {
    ArtifactKey::versioned(
        KIND,
        TABLE2_VERSION,
        &(config, discounts, PRICING_MODEL_VERSION),
    )
}

/// Table II at the session's scale, memoised in its artifact store and
/// served from the disk cache when one is attached: [`run`] over the shared
/// pricing artifacts runs once per distinct key.
///
/// # Errors
///
/// Propagates pricing-artifact and baseline-training failures.
pub fn cached(session: &Session) -> ect_types::Result<Arc<Table2Result>> {
    let key = cache_key(&system_config(session.scale()), &DISCOUNTS);
    session
        .store()
        .get_or_insert_cached(key, || run(&*pricing_artifacts(session)?))
}

/// Prints the table in the paper's layout.
pub fn print(table: &Table2Result) {
    println!("== Table II: pricing evaluation across discount levels ==");
    println!("{}", table.to_markdown());
}

/// Registry face of this experiment (see [`crate::registry`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct Table2Experiment;

impl ect_core::Experiment for Table2Experiment {
    fn id(&self) -> &'static str {
        "table2_price"
    }
    fn description(&self) -> &'static str {
        "pricing methods vs oracle strata (Table II)"
    }
    fn artifact_stems(&self) -> &'static [&'static str] {
        &["table2_price"]
    }
    fn dependency_stems(&self) -> &'static [&'static str] {
        // Consumes the shared ECT-Price pricing artifacts: the scheduler
        // runs the first declarer (table2_price) as the provider and the
        // rest concurrently once it finishes.
        &["pricing"]
    }
    fn run(&self, session: &ect_core::Session) -> ect_types::Result<ect_core::ExperimentOutput> {
        let table = cached(session)?;
        print(&table);
        crate::output::save_json(self.id(), &*table);
        Ok(
            ect_core::ExperimentOutput::new(self.id(), "methods", table.methods.len() as f64)
                .with_artifact(self.id()),
        )
    }
}
