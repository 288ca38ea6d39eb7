//! Uplift-modeling baselines: OR, IPS and DR estimators.
//!
//! The paper compares ECT-Price against three traditional uplift methods,
//! all built on NCF base models (Section V-A):
//!
//! * **Outcome Regression (OR)** — a T-learner: fit `μ₁(X) = E[Y|T=1,X]` and
//!   `μ₀(X) = E[Y|T=0,X]` separately, uplift `τ̂ = μ₁ − μ₀`;
//! * **Inverse Propensity Scoring (IPS)** — fit the propensity `ê(X)`, build
//!   the transformed outcome `Z = YT/ê − Y(1−T)/(1−ê)` (whose expectation is
//!   the uplift), and regress it;
//! * **Doubly Robust (DR)** — combine both: regress the pseudo-outcome
//!   `μ₁ − μ₀ + T(Y−μ₁)/ê − (1−T)(Y−μ₀)/(1−ê)`, consistent if *either* the
//!   outcome models or the propensity are correct.
//!
//! None of these can distinguish the "Always Buyer": a slot whose EVs charge
//! regardless of discounts has zero uplift but still loses money when
//! discounted only probabilistically — the distinction ECT-Price's
//! stratification makes explicit (the paper's core argument).

use crate::features::{FeatureSpace, PricingDataset};
use ect_nn::loss::mse;
use ect_nn::matrix::Matrix;
use ect_nn::ncf::{Ncf, NcfConfig};
use ect_nn::optim::{Adam, AdamConfig};
use ect_types::rng::EctRng;
use serde::{Deserialize, Serialize};

/// Which uplift baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BaselineKind {
    /// Outcome regression (T-learner).
    OutcomeRegression,
    /// Inverse propensity scoring (transformed-outcome regression).
    InversePropensity,
    /// Doubly robust estimator.
    DoublyRobust,
}

impl BaselineKind {
    /// All baselines in the paper's Table II order.
    pub const ALL: [BaselineKind; 3] = [
        BaselineKind::OutcomeRegression,
        BaselineKind::InversePropensity,
        BaselineKind::DoublyRobust,
    ];

    /// The paper's abbreviation.
    pub fn abbrev(self) -> &'static str {
        match self {
            BaselineKind::OutcomeRegression => "OR",
            BaselineKind::InversePropensity => "IPS",
            BaselineKind::DoublyRobust => "DR",
        }
    }
}

impl std::fmt::Display for BaselineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.abbrev())
    }
}

/// Hyper-parameters shared by the baseline trainers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BaselineConfig {
    /// Embedding width of the NCF base models.
    pub embed_dim: usize,
    /// MLP tower widths of the NCF base models.
    pub mlp_hidden: Vec<usize>,
    /// Optimizer settings (the paper: Adam, lr 0.01, weight decay 1e-4).
    pub adam: AdamConfig,
    /// Minibatch size (the paper uses 64).
    pub batch_size: usize,
    /// Training epochs per component model.
    pub epochs: usize,
    /// Propensity clip bound `ε`: estimates are clamped to `[ε, 1−ε]`.
    pub propensity_clip: f64,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        Self {
            embed_dim: 8,
            mlp_hidden: vec![16, 8],
            adam: AdamConfig::paper_pricing(),
            batch_size: 64,
            epochs: 3,
            propensity_clip: 0.05,
        }
    }
}

impl BaselineConfig {
    fn ncf_config(&self, space: &FeatureSpace) -> NcfConfig {
        NcfConfig {
            num_users: space.num_stations,
            num_items: space.num_time_buckets(),
            embed_dim: self.embed_dim,
            mlp_hidden: self.mlp_hidden.clone(),
        }
    }
}

/// Fits an NCF regression on `(station, time) → target ∈ [0, 1]`.
fn fit_ncf(
    space: &FeatureSpace,
    stations: &[usize],
    times: &[usize],
    targets: &[f64],
    config: &BaselineConfig,
    rng: &mut EctRng,
) -> ect_types::Result<Ncf> {
    if stations.is_empty() {
        return Err(ect_types::EctError::InsufficientData(
            "NCF fit needs at least one sample".into(),
        ));
    }
    let mut model = Ncf::new(&config.ncf_config(space), rng);
    let mut opt = Adam::new(config.adam.clone());
    let n = stations.len();
    for _ in 0..config.epochs {
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        for chunk in order.chunks(config.batch_size.max(1)) {
            let bs: Vec<usize> = chunk.iter().map(|&i| stations[i]).collect();
            let bt: Vec<usize> = chunk.iter().map(|&i| times[i]).collect();
            let by: Vec<f64> = chunk.iter().map(|&i| targets[i]).collect();
            let pred = model.forward(&bs, &bt);
            let target = Matrix::from_vec(by.len(), 1, by);
            let (loss, grad) = mse(&pred, &target);
            if !loss.is_finite() {
                return Err(ect_types::EctError::Diverged(format!(
                    "NCF regression loss became {loss}"
                )));
            }
            model.backward(&grad);
            opt.step(&mut model);
        }
    }
    Ok(model)
}

/// Affine normalisation of an unbounded pseudo-outcome into `[0, 1]` so the
/// sigmoid-output NCF can regress it; remembers the inverse map.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct TargetScaler {
    offset: f64,
    scale: f64,
}

impl TargetScaler {
    fn fit(values: &[f64]) -> Self {
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if !(lo.is_finite() && hi.is_finite()) {
            // Empty input: identity map.
            return Self {
                offset: 0.0,
                scale: 1.0,
            };
        }
        if (hi - lo) < 1e-9 {
            // Constant targets: centre them at 0.5 with unit scale so the
            // round trip is exact.
            return Self {
                offset: lo - 0.5,
                scale: 1.0,
            };
        }
        Self {
            offset: lo,
            scale: hi - lo,
        }
    }

    fn normalise(&self, v: f64) -> f64 {
        ((v - self.offset) / self.scale).clamp(0.0, 1.0)
    }

    fn denormalise(&self, v: f64) -> f64 {
        v * self.scale + self.offset
    }
}

/// A trained uplift baseline.
#[derive(Debug, Clone)]
pub struct UpliftBaseline {
    kind: BaselineKind,
    /// Control outcome model `μ₀` (all baselines use it for the decision rule).
    mu0: Ncf,
    /// Treated outcome model `μ₁` (OR and DR).
    mu1: Option<Ncf>,
    /// Pseudo-outcome regression plus its target scaler (IPS and DR).
    tau_regression: Option<(Ncf, TargetScaler)>,
    /// Propensity model `ê` (IPS and DR).
    propensity: Option<Ncf>,
    clip: f64,
}

impl UpliftBaseline {
    /// Trains the requested baseline on the observational dataset.
    ///
    /// # Errors
    ///
    /// Returns [`ect_types::EctError::InsufficientData`] if the dataset lacks
    /// treated or control samples, or divergence errors from training.
    pub fn train(
        kind: BaselineKind,
        space: &FeatureSpace,
        data: &PricingDataset,
        config: &BaselineConfig,
        rng: &mut EctRng,
    ) -> ect_types::Result<Self> {
        let treated_idx: Vec<usize> = (0..data.len()).filter(|&i| data.treated[i] > 0.5).collect();
        let control_idx: Vec<usize> = (0..data.len())
            .filter(|&i| data.treated[i] <= 0.5)
            .collect();
        if treated_idx.is_empty() || control_idx.is_empty() {
            return Err(ect_types::EctError::InsufficientData(
                "uplift training needs both treated and control samples".into(),
            ));
        }

        let subset = |idx: &[usize]| -> (Vec<usize>, Vec<usize>, Vec<f64>) {
            (
                idx.iter().map(|&i| data.stations[i]).collect(),
                idx.iter().map(|&i| data.times[i]).collect(),
                idx.iter().map(|&i| data.charged[i]).collect(),
            )
        };

        // μ₀ is needed by every baseline's decision rule.
        let (cs, ct, cy) = subset(&control_idx);
        let mu0 = fit_ncf(space, &cs, &ct, &cy, config, rng)?;

        let mu1 = match kind {
            BaselineKind::OutcomeRegression | BaselineKind::DoublyRobust => {
                let (ts, tt, ty) = subset(&treated_idx);
                Some(fit_ncf(space, &ts, &tt, &ty, config, rng)?)
            }
            BaselineKind::InversePropensity => None,
        };

        let propensity = match kind {
            BaselineKind::InversePropensity | BaselineKind::DoublyRobust => Some(fit_ncf(
                space,
                &data.stations,
                &data.times,
                &data.treated,
                config,
                rng,
            )?),
            BaselineKind::OutcomeRegression => None,
        };

        let clip = config.propensity_clip;
        let tau_regression = match kind {
            BaselineKind::OutcomeRegression => None,
            BaselineKind::InversePropensity => {
                let prop = propensity.as_ref().expect("ips propensity");
                let pseudo: Vec<f64> = (0..data.len())
                    .map(|i| {
                        let e = prop
                            .predict_one(data.stations[i], data.times[i])
                            .clamp(clip, 1.0 - clip);
                        let (t, y) = (data.treated[i], data.charged[i]);
                        y * t / e - y * (1.0 - t) / (1.0 - e)
                    })
                    .collect();
                let scaler = TargetScaler::fit(&pseudo);
                let targets: Vec<f64> = pseudo.iter().map(|&z| scaler.normalise(z)).collect();
                Some((
                    fit_ncf(space, &data.stations, &data.times, &targets, config, rng)?,
                    scaler,
                ))
            }
            BaselineKind::DoublyRobust => {
                let prop = propensity.as_ref().expect("dr propensity");
                let m1 = mu1.as_ref().expect("dr mu1");
                let pseudo: Vec<f64> = (0..data.len())
                    .map(|i| {
                        let (s, b) = (data.stations[i], data.times[i]);
                        let e = prop.predict_one(s, b).clamp(clip, 1.0 - clip);
                        let m1v = m1.predict_one(s, b);
                        let m0v = mu0.predict_one(s, b);
                        let (t, y) = (data.treated[i], data.charged[i]);
                        m1v - m0v + t * (y - m1v) / e - (1.0 - t) * (y - m0v) / (1.0 - e)
                    })
                    .collect();
                let scaler = TargetScaler::fit(&pseudo);
                let targets: Vec<f64> = pseudo.iter().map(|&z| scaler.normalise(z)).collect();
                Some((
                    fit_ncf(space, &data.stations, &data.times, &targets, config, rng)?,
                    scaler,
                ))
            }
        };

        Ok(Self {
            kind,
            mu0,
            mu1,
            tau_regression,
            propensity,
            clip,
        })
    }

    /// Which baseline this is.
    pub fn kind(&self) -> BaselineKind {
        self.kind
    }

    /// Estimated uplift `τ̂(X)`: the change in charging probability a
    /// discount would cause.
    pub fn uplift(&self, station: usize, time_bucket: usize) -> f64 {
        match self.kind {
            BaselineKind::OutcomeRegression => {
                let m1 = self.mu1.as_ref().expect("or mu1");
                m1.predict_one(station, time_bucket) - self.mu0.predict_one(station, time_bucket)
            }
            BaselineKind::InversePropensity | BaselineKind::DoublyRobust => {
                let (reg, scaler) = self.tau_regression.as_ref().expect("tau regression");
                scaler.denormalise(reg.predict_one(station, time_bucket))
            }
        }
    }

    /// Estimated control conversion `μ₀(X) = P(Y=1 | T=0, X)` — the
    /// "already charging" mass a discount would needlessly subsidise.
    pub fn control_rate(&self, station: usize, time_bucket: usize) -> f64 {
        self.mu0.predict_one(station, time_bucket)
    }

    /// Estimated propensity `ê(X)` if this baseline models it.
    pub fn propensity(&self, station: usize, time_bucket: usize) -> Option<f64> {
        self.propensity.as_ref().map(|p| {
            p.predict_one(station, time_bucket)
                .clamp(self.clip, 1.0 - self.clip)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ect_data::charging::{ChargingConfig, ChargingWorld};

    fn training_world() -> (FeatureSpace, PricingDataset) {
        let world = ChargingWorld::new(ChargingConfig {
            num_stations: 4,
            label_noise: 0.0,
            ..ChargingConfig::default()
        })
        .unwrap();
        let rng = EctRng::seed_from(5);
        let records = world.generate_history(24 * 7 * 12, &rng);
        let space = FeatureSpace::new(4).unwrap();
        let data = PricingDataset::from_records(&space, &records);
        (space, data)
    }

    fn quick_config() -> BaselineConfig {
        BaselineConfig {
            embed_dim: 4,
            mlp_hidden: vec![8],
            epochs: 2,
            ..BaselineConfig::default()
        }
    }

    #[test]
    fn all_baselines_train_and_predict() {
        let (space, data) = training_world();
        let mut rng = EctRng::seed_from(6);
        for kind in BaselineKind::ALL {
            let b = UpliftBaseline::train(kind, &space, &data, &quick_config(), &mut rng).unwrap();
            assert_eq!(b.kind(), kind);
            let tau = b.uplift(0, 20);
            assert!(tau.is_finite(), "{kind}: uplift {tau}");
            assert!((-1.5..=1.5).contains(&tau), "{kind}: uplift {tau}");
            let mu0 = b.control_rate(0, 20);
            assert!((0.0..=1.0).contains(&mu0));
        }
    }

    #[test]
    fn or_detects_higher_uplift_in_the_evening() {
        // Evenings are Incentive-heavy: a discount converts many EVs, so the
        // true uplift is much higher than at midday.
        let (space, data) = training_world();
        let mut rng = EctRng::seed_from(7);
        let b = UpliftBaseline::train(
            BaselineKind::OutcomeRegression,
            &space,
            &data,
            &quick_config(),
            &mut rng,
        )
        .unwrap();
        let evening = 20; // weekday 20:00
        let midday = 14;
        let mut evening_better = 0;
        for s in 0..4 {
            if b.uplift(s, evening) > b.uplift(s, midday) {
                evening_better += 1;
            }
        }
        assert!(evening_better >= 3, "only {evening_better}/4 stations");
    }

    #[test]
    fn propensity_models_recover_the_logging_policy() {
        let (space, data) = training_world();
        let mut rng = EctRng::seed_from(8);
        let b = UpliftBaseline::train(
            BaselineKind::InversePropensity,
            &space,
            &data,
            &quick_config(),
            &mut rng,
        )
        .unwrap();
        let e_evening = b.propensity(1, 20).unwrap();
        let e_midday = b.propensity(1, 14).unwrap();
        assert!(
            e_evening > e_midday + 0.1,
            "evening {e_evening} vs midday {e_midday}"
        );
    }

    #[test]
    fn training_requires_both_arms() {
        let (space, mut data) = training_world();
        let mut rng = EctRng::seed_from(9);
        for t in data.treated.iter_mut() {
            *t = 1.0; // no controls left
        }
        assert!(UpliftBaseline::train(
            BaselineKind::OutcomeRegression,
            &space,
            &data,
            &quick_config(),
            &mut rng
        )
        .is_err());
    }

    #[test]
    fn target_scaler_round_trips() {
        let values = [-3.0, 0.0, 7.0];
        let s = TargetScaler::fit(&values);
        for &v in &values {
            let n = s.normalise(v);
            assert!((0.0..=1.0).contains(&n));
            assert!((s.denormalise(n) - v).abs() < 1e-9);
        }
        // Degenerate case: constant targets round-trip exactly.
        let s = TargetScaler::fit(&[2.0, 2.0]);
        assert!((s.denormalise(s.normalise(2.0)) - 2.0).abs() < 1e-9);
        // Empty input: identity-ish map stays finite.
        let s = TargetScaler::fit(&[]);
        assert!(s.denormalise(s.normalise(0.3)).is_finite());
    }
}
