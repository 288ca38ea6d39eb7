//! Pricing evaluation: the paper's Table II, Fig. 11 and Fig. 12.
//!
//! Decisions are scored against the *oracle* strata of the synthetic world.
//! The reward is normalised charging revenue per test item:
//!
//! * an **Always Charge** item earns `1` undiscounted and `1 − c` when
//!   (needlessly) discounted — discounting it loses `c`;
//! * an **Incentive Charge** item earns `1 − c` when discounted and `0`
//!   otherwise — discounting it gains `1 − c`;
//! * a **No Charge** item earns `0` either way.
//!
//! (Table II's absolute numbers in the paper are not reconstructible from its
//! stated reward definition; this is the semantics its text describes. The
//! comparison shape — Ours treating more Incentive, far fewer Always, and
//! earning the highest reward that decays with `c` — is what we reproduce.)

use crate::engine::PricingEngine;
use crate::features::PricingDataset;
use crate::model::EctPriceModel;
use ect_data::charging::Stratum;
use ect_types::time::{DayPeriod, HOURS_PER_DAY};
use serde::{Deserialize, Serialize};

/// Count of treated items per stratum — one row of Table II.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TreatedCounts {
    /// Discounted items that were truly No Charge.
    pub none: usize,
    /// Discounted items that were truly Incentive Charge.
    pub incentive: usize,
    /// Discounted items that were truly Always Charge (pure waste).
    pub always: usize,
}

impl TreatedCounts {
    /// Total number of discounted items.
    pub fn total(&self) -> usize {
        self.none + self.incentive + self.always
    }
}

/// Evaluation result for one (method, discount) cell of Table II.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PricingEvaluation {
    /// Method name.
    pub method: String,
    /// Discount level `c`.
    pub discount: f64,
    /// Who got discounted, by true stratum.
    pub treated: TreatedCounts,
    /// Normalised revenue over the whole test set (see module docs).
    pub reward: f64,
    /// Number of test items.
    pub total_items: usize,
}

/// Scores an engine's decisions on a test set against oracle strata.
///
/// # Panics
///
/// Panics on an empty test set.
pub fn evaluate_engine<E: PricingEngine + ?Sized>(
    engine: &E,
    data: &PricingDataset,
    discount: f64,
) -> PricingEvaluation {
    assert!(!data.is_empty(), "empty test set");
    let mut treated = TreatedCounts::default();
    let mut reward = 0.0;
    for i in 0..data.len() {
        let give = engine.decide(data.stations[i], data.times[i], discount);
        match (data.strata[i], give) {
            (Stratum::AlwaysCharge, true) => {
                treated.always += 1;
                reward += 1.0 - discount;
            }
            (Stratum::AlwaysCharge, false) => reward += 1.0,
            (Stratum::IncentiveCharge, true) => {
                treated.incentive += 1;
                reward += 1.0 - discount;
            }
            (Stratum::IncentiveCharge, false) => {}
            (Stratum::NoCharge, true) => treated.none += 1,
            (Stratum::NoCharge, false) => {}
        }
    }
    PricingEvaluation {
        method: engine.name().to_string(),
        discount,
        treated,
        reward,
        total_items: data.len(),
    }
}

/// The oracle upper bound: discount exactly the Incentive items.
pub fn oracle_evaluation(data: &PricingDataset, discount: f64) -> PricingEvaluation {
    assert!(!data.is_empty(), "empty test set");
    let mut treated = TreatedCounts::default();
    let mut reward = 0.0;
    for &s in &data.strata {
        match s {
            Stratum::AlwaysCharge => reward += 1.0,
            Stratum::IncentiveCharge => {
                treated.incentive += 1;
                reward += 1.0 - discount;
            }
            Stratum::NoCharge => {}
        }
    }
    PricingEvaluation {
        method: "Oracle".to_string(),
        discount,
        treated,
        reward,
        total_items: data.len(),
    }
}

/// Per-hour strata probability curves for one station (the paper's Fig. 11),
/// averaged over the week (5/7 weekday weight, 2/7 weekend weight).
///
/// Returns `curves[hour] = [P(None), P(Incentive), P(Always)]`.
pub fn hourly_strata_curves(model: &EctPriceModel, station: usize) -> [[f64; 3]; HOURS_PER_DAY] {
    let mut curves = [[0.0; 3]; HOURS_PER_DAY];
    for (hour, curve) in curves.iter_mut().enumerate() {
        let weekday = model.predict_strata(station, hour);
        let weekend = model.predict_strata(station, HOURS_PER_DAY + hour);
        for (c, (wd, we)) in curve.iter_mut().zip(weekday.iter().zip(weekend)) {
            *c = (5.0 * wd + 2.0 * we) / 7.0;
        }
    }
    curves
}

/// Predicted strata shares per six-hour period across all stations (the
/// paper's Fig. 12): the expected fraction of items in each stratum, i.e.
/// predicted probability mass averaged over every (station, hour-of-week)
/// item of the period.
///
/// Returns `shares[period] = [None, Incentive, Always]`, rows summing to 1.
pub fn period_strata_shares(model: &EctPriceModel, num_stations: usize) -> [[f64; 3]; 4] {
    let mut mass = [[0.0f64; 3]; 4];
    let mut weights = [0.0f64; 4];
    for station in 0..num_stations {
        for hour in 0..HOURS_PER_DAY {
            let period = DayPeriod::of_hour(hour).index();
            // Weekday buckets carry 5/7 of the week, weekend 2/7.
            for (bucket, w) in [(hour, 5.0), (HOURS_PER_DAY + hour, 2.0)] {
                let p = model.predict_strata(station, bucket);
                for (m, v) in mass[period].iter_mut().zip(p) {
                    *m += w * v;
                }
                weights[period] += w;
            }
        }
    }
    let mut shares = [[0.0; 3]; 4];
    for (period, row) in mass.iter().enumerate() {
        for (s, &m) in shares[period].iter_mut().zip(row) {
            *s = m / weights[period].max(1e-9);
        }
    }
    shares
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{AlwaysDiscount, NeverDiscount};
    use crate::features::FeatureSpace;
    use ect_data::charging::{ChargingConfig, ChargingWorld};
    use ect_types::rng::EctRng;

    fn test_data() -> PricingDataset {
        let world = ChargingWorld::new(ChargingConfig {
            num_stations: 3,
            label_noise: 0.0,
            ..ChargingConfig::default()
        })
        .unwrap();
        let rng = EctRng::seed_from(21);
        let records = world.generate_history(24 * 7 * 4, &rng);
        PricingDataset::from_records(&FeatureSpace::new(3).unwrap(), &records)
    }

    #[test]
    fn never_discount_earns_exactly_the_always_mass() {
        let data = test_data();
        let eval = evaluate_engine(&NeverDiscount, &data, 0.2);
        let always_total = data
            .strata
            .iter()
            .filter(|&&s| s == Stratum::AlwaysCharge)
            .count() as f64;
        assert_eq!(eval.treated.total(), 0);
        assert!((eval.reward - always_total).abs() < 1e-9);
    }

    #[test]
    fn always_discount_treats_everything() {
        let data = test_data();
        let eval = evaluate_engine(&AlwaysDiscount, &data, 0.2);
        assert_eq!(eval.treated.total(), data.len());
        // Reward: (always + incentive) × 0.8.
        let charges = data
            .strata
            .iter()
            .filter(|&&s| s != Stratum::NoCharge)
            .count() as f64;
        assert!((eval.reward - 0.8 * charges).abs() < 1e-9);
    }

    #[test]
    fn oracle_dominates_the_trivial_policies() {
        let data = test_data();
        for c in [0.1, 0.3, 0.6] {
            let oracle = oracle_evaluation(&data, c);
            let never = evaluate_engine(&NeverDiscount, &data, c);
            let blanket = evaluate_engine(&AlwaysDiscount, &data, c);
            assert!(oracle.reward >= never.reward - 1e-9);
            assert!(oracle.reward >= blanket.reward - 1e-9);
            assert_eq!(oracle.treated.always, 0);
            assert_eq!(oracle.treated.none, 0);
        }
    }

    #[test]
    fn oracle_reward_decays_with_discount() {
        let data = test_data();
        let r1 = oracle_evaluation(&data, 0.1).reward;
        let r5 = oracle_evaluation(&data, 0.5).reward;
        assert!(r1 > r5);
    }

    #[test]
    fn curves_and_shares_are_distributions() {
        let mut rng = EctRng::seed_from(22);
        let space = FeatureSpace::new(3).unwrap();
        let model = EctPriceModel::new(space, &crate::model::EctPriceConfig::default(), &mut rng);
        let curves = hourly_strata_curves(&model, 1);
        for hour in curves {
            assert!((hour.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
        let shares = period_strata_shares(&model, 3);
        for period in shares {
            assert!((period.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "empty test set")]
    fn evaluation_rejects_empty_sets() {
        let _ = evaluate_engine(&NeverDiscount, &PricingDataset::default(), 0.1);
    }
}
