//! Pricing stage of the pipeline: training engines and building Table II.

use crate::system::{EctHubSystem, PricingMethod};
use ect_price::baselines::UpliftBaseline;
use ect_price::engine::{BaselineEngine, EctPriceEngine, NeverDiscount, PricingEngine};
use ect_price::eval::{evaluate_engine, oracle_evaluation, PricingEvaluation};
use ect_price::features::PricingDataset;
use ect_price::model::EctPriceModel;
use ect_types::rng::EctRng;
use serde::{Deserialize, Serialize};

/// Trains the engine for one pricing method.
///
/// # Errors
///
/// Propagates training failures (insufficient data, divergence).
pub fn train_engine(
    system: &EctHubSystem,
    method: PricingMethod,
    train_data: &PricingDataset,
    rng: &mut EctRng,
) -> ect_types::Result<Box<dyn PricingEngine>> {
    let space = system.feature_space();
    match method {
        PricingMethod::EctPrice => {
            let config = system.config().ect_price.clone();
            let mut model = EctPriceModel::new(space, &config, rng);
            model.train(train_data, &config, rng)?;
            Ok(Box::new(EctPriceEngine::new(model)))
        }
        PricingMethod::NoDiscount => Ok(Box::new(NeverDiscount)),
        _ => {
            let kind = method
                .baseline_kind()
                .expect("non-baseline methods handled above");
            let baseline =
                UpliftBaseline::train(kind, &space, train_data, &system.config().baseline, rng)?;
            Ok(Box::new(BaselineEngine::new(baseline)))
        }
    }
}

/// One method's row-group of Table II: an evaluation per discount level.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MethodPricingResults {
    /// Method identity.
    pub method: String,
    /// One evaluation per requested discount level.
    pub per_discount: Vec<PricingEvaluation>,
}

/// The full Table II reproduction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PricingTable {
    /// Discount levels evaluated (the paper sweeps 10 %–60 %).
    pub discounts: Vec<f64>,
    /// Per-method results, in the paper's row order plus the oracle bound.
    pub methods: Vec<MethodPricingResults>,
}

impl PricingTable {
    /// Renders the table in the paper's layout (rows = methods, columns =
    /// treated-counts per stratum and reward, grouped by discount).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        for (d_idx, discount) in self.discounts.iter().enumerate() {
            out.push_str(&format!(
                "\n**{:.0}% Discount**\n\n| Method | None | Incentive | Always | Reward |\n|---|---|---|---|---|\n",
                discount * 100.0
            ));
            for m in &self.methods {
                let e = &m.per_discount[d_idx];
                out.push_str(&format!(
                    "| {} | {} | {} | {} | {:.0} |\n",
                    m.method, e.treated.none, e.treated.incentive, e.treated.always, e.reward
                ));
            }
        }
        out
    }

    /// The evaluation of a given method at a given discount, if present.
    pub fn result(&self, method: &str, discount: f64) -> Option<&PricingEvaluation> {
        let d_idx = self
            .discounts
            .iter()
            .position(|&d| (d - discount).abs() < 1e-9)?;
        self.methods
            .iter()
            .find(|m| m.method == method)
            .map(|m| &m.per_discount[d_idx])
    }
}

/// Trains all paper methods once and evaluates them across discount levels
/// (Table II). The oracle row is appended as the attainable upper bound.
///
/// Discount-dependent decisions are re-evaluated per level with the same
/// trained models, mirroring the paper's protocol of training per discount
/// with shared data. The caller owns the rng stream: Table II draws it from
/// `seed ^ 0x7AB2`, [`Session::pricing_table`](crate::session::Session::pricing_table)
/// from its own memoised stream.
///
/// # Errors
///
/// Propagates training failures.
pub fn pricing_table(
    system: &EctHubSystem,
    train_data: &PricingDataset,
    test_data: &PricingDataset,
    discounts: &[f64],
    rng: &mut EctRng,
) -> ect_types::Result<PricingTable> {
    let mut methods = Vec::new();
    for method in PricingMethod::PAPER_SET {
        let engine = train_engine(system, method, train_data, rng)?;
        let per_discount = discounts
            .iter()
            .map(|&c| evaluate_engine(engine.as_ref(), test_data, c))
            .collect();
        methods.push(MethodPricingResults {
            method: method.label().to_string(),
            per_discount,
        });
    }
    methods.push(MethodPricingResults {
        method: "Oracle".to_string(),
        per_discount: discounts
            .iter()
            .map(|&c| oracle_evaluation(test_data, c))
            .collect(),
    });
    Ok(PricingTable {
        discounts: discounts.to_vec(),
        methods,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemConfig;

    #[test]
    fn engines_train_for_every_method() {
        let system = EctHubSystem::new(SystemConfig::miniature()).unwrap();
        let (train, _) = system.pricing_datasets();
        let mut rng = EctRng::seed_from(1);
        for method in [
            PricingMethod::EctPrice,
            PricingMethod::OutcomeRegression,
            PricingMethod::NoDiscount,
        ] {
            let engine = train_engine(&system, method, &train, &mut rng).unwrap();
            // Engines are pure: same query twice gives the same answer.
            assert_eq!(engine.decide(0, 20, 0.2), engine.decide(0, 20, 0.2));
        }
    }

    #[test]
    fn table_contains_all_methods_and_oracle() {
        let system = EctHubSystem::new(SystemConfig::miniature()).unwrap();
        let (train, test) = system.pricing_datasets();
        let mut rng = EctRng::seed_from(2);
        let table = pricing_table(&system, &train, &test, &[0.1, 0.3], &mut rng).unwrap();
        assert_eq!(table.methods.len(), 5);
        assert_eq!(table.methods[4].method, "Oracle");
        let md = table.to_markdown();
        assert!(md.contains("10% Discount"));
        assert!(md.contains("| Ours |"));
        // Lookup helper.
        assert!(table.result("Ours", 0.1).is_some());
        assert!(table.result("Ours", 0.5).is_none());
        assert!(table.result("Nope", 0.1).is_none());
    }

    #[test]
    fn oracle_reward_upper_bounds_all_methods() {
        let system = EctHubSystem::new(SystemConfig::miniature()).unwrap();
        let (train, test) = system.pricing_datasets();
        let mut rng = EctRng::seed_from(3);
        let table = pricing_table(&system, &train, &test, &[0.2], &mut rng).unwrap();
        let oracle = table.result("Oracle", 0.2).unwrap().reward;
        for m in &table.methods {
            assert!(
                m.per_discount[0].reward <= oracle + 1e-9,
                "{} beat the oracle",
                m.method
            );
        }
    }
}
