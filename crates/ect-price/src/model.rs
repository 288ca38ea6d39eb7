//! ECT-Price: the counterfactual multi-task pricing model (Section IV-A).
//!
//! Architecture per the paper's Fig. 9: two task towers, each embedding the
//! station and time features, combining them by element-wise plus and
//! concatenation, and feeding an MLP head:
//!
//! * the **stratification task** outputs `(f00, f01, f11)` — the
//!   probabilities of *No Charge*, *Incentive Charge* and *Always Charge* —
//!   through a softmax (the strata are mutually exclusive);
//! * the **propensity task** outputs `g(X) = P(T = 1 | X)` through a sigmoid.
//!
//! Training minimises the counterfactual-identification losses of
//! Eqs. 18–23, which couple products of the two towers' outputs to the four
//! observable `(Y, T)` cells:
//!
//! ```text
//! L1 = MSE(f00·g,          1{Y=0, T=1})
//! L2 = MSE(f11·(1−g),      1{Y=1, T=0})
//! L3 = MSE((f01+f11)·g,    1{Y=1, T=1})
//! L4 = MSE((f00+f01)·(1−g),1{Y=0, T=0})
//! Lp = MSE(g,              1{T=1})
//! ```
//!
//! **Paper erratum.** Eqs. 16 and 21 print the `(Y=0, T=0)` cell as
//! `f00 + f11`, but the paper's own counterfactual-identification text says
//! "both *Incentive Charge* and *No Charge* can result in the observation
//! (Y = 0, T = 0)" — i.e. `f00 + f01`. The printed form makes `f11` the
//! target of two contradictory losses (L2 wants it to be the Always mass, L4
//! the No+Incentive mass) and empirically destroys the stratification; we
//! implement the text-consistent identification and record the deviation in
//! DESIGN.md.

use crate::features::{FeatureSpace, PricingDataset};
use ect_nn::layers::{softmax_backward, softmax_rows, ActivationKind, Embedding};
use ect_nn::matrix::Matrix;
use ect_nn::mlp::Mlp;
use ect_nn::optim::{Adam, AdamConfig};
use ect_nn::param::{Param, Parameterized};
use ect_types::rng::EctRng;
use serde::{Deserialize, Serialize};

/// One task tower: station/time embeddings → `[s ; t ; s ⊕ t]` → MLP.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Tower {
    station_emb: Embedding,
    time_emb: Embedding,
    mlp: Mlp,
    embed_dim: usize,
}

impl Tower {
    fn new(
        space: &FeatureSpace,
        embed_dim: usize,
        hidden: &[usize],
        out_dim: usize,
        rng: &mut EctRng,
    ) -> Self {
        let mut widths = vec![3 * embed_dim];
        widths.extend_from_slice(hidden);
        widths.push(out_dim);
        Self {
            station_emb: Embedding::with_std(space.num_stations, embed_dim, 0.5, rng),
            time_emb: Embedding::with_std(space.num_time_buckets(), embed_dim, 0.5, rng),
            mlp: Mlp::new(&widths, ActivationKind::Relu, rng),
            embed_dim,
        }
    }

    fn forward(&mut self, stations: &[usize], times: &[usize]) -> Matrix {
        let s = self.station_emb.forward(stations);
        let t = self.time_emb.forward(times);
        let plus = s.add(&t);
        self.mlp.forward(&Matrix::hconcat(&[&s, &t, &plus]))
    }

    fn infer(&self, stations: &[usize], times: &[usize]) -> Matrix {
        let s = self.station_emb.infer(stations);
        let t = self.time_emb.infer(times);
        let plus = s.add(&t);
        self.mlp.infer(&Matrix::hconcat(&[&s, &t, &plus]))
    }

    fn backward(&mut self, grad_out: &Matrix) {
        let gx = self.mlp.backward(grad_out);
        let parts = gx.hsplit(&[self.embed_dim, self.embed_dim, self.embed_dim]);
        // The element-wise-plus branch distributes its gradient to both
        // embeddings.
        self.station_emb.backward(&parts[0].add(&parts[2]));
        self.time_emb.backward(&parts[1].add(&parts[2]));
    }
}

impl Parameterized for Tower {
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.station_emb.for_each_param(f);
        self.time_emb.for_each_param(f);
        self.mlp.for_each_param(f);
    }
}

/// Hyper-parameters for [`EctPriceModel`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EctPriceConfig {
    /// Embedding width for both towers.
    pub embed_dim: usize,
    /// Hidden widths of each tower's MLP.
    pub hidden: Vec<usize>,
    /// Optimizer settings (the paper: Adam, lr 0.01, weight decay 1e-4).
    pub adam: AdamConfig,
    /// Minibatch size (the paper uses 64).
    pub batch_size: usize,
    /// Training epochs over the dataset.
    pub epochs: usize,
    /// Per-epoch learning-rate multiplier (1.0 = the paper's constant rate;
    /// <1 anneals, which sharpens the small-probability strata late in
    /// training).
    pub lr_decay: f64,
}

impl Default for EctPriceConfig {
    fn default() -> Self {
        Self {
            embed_dim: 8,
            hidden: vec![32, 16],
            adam: AdamConfig::paper_pricing(),
            batch_size: 64,
            epochs: 8,
            lr_decay: 0.9,
        }
    }
}

/// Per-sample stratum probabilities `[P(None), P(Incentive), P(Always)]`.
pub type StrataProbs = [f64; 3];

/// The trained/trainable ECT-Price model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EctPriceModel {
    stratification: Tower,
    propensity: Tower,
    space: FeatureSpace,
    #[serde(skip)]
    cached_probs: Option<Matrix>,
    #[serde(skip)]
    cached_g: Option<Matrix>,
}

impl EctPriceModel {
    /// Creates a model with fresh parameters.
    pub fn new(space: FeatureSpace, config: &EctPriceConfig, rng: &mut EctRng) -> Self {
        Self {
            stratification: Tower::new(&space, config.embed_dim, &config.hidden, 3, rng),
            propensity: Tower::new(&space, config.embed_dim, &config.hidden, 1, rng),
            space,
            cached_probs: None,
            cached_g: None,
        }
    }

    /// Feature space the model was built over.
    pub fn space(&self) -> &FeatureSpace {
        &self.space
    }

    /// Training-mode forward pass; returns `(strata probs n×3, propensity n×1)`.
    pub fn forward(&mut self, stations: &[usize], times: &[usize]) -> (Matrix, Matrix) {
        let logits = self.stratification.forward(stations, times);
        let probs = softmax_rows(&logits);
        let g_logit = self.propensity.forward(stations, times);
        let g = g_logit.map(|x| 1.0 / (1.0 + (-x).exp()));
        self.cached_probs = Some(probs.clone());
        self.cached_g = Some(g.clone());
        (probs, g)
    }

    /// Inference-mode forward pass.
    pub fn infer(&self, stations: &[usize], times: &[usize]) -> (Matrix, Matrix) {
        let probs = softmax_rows(&self.stratification.infer(stations, times));
        let g = self
            .propensity
            .infer(stations, times)
            .map(|x| 1.0 / (1.0 + (-x).exp()));
        (probs, g)
    }

    /// Strata probabilities for a single (station, time-bucket) pair.
    pub fn predict_strata(&self, station: usize, time_bucket: usize) -> StrataProbs {
        let (p, _) = self.infer(&[station], &[time_bucket]);
        [p[(0, 0)], p[(0, 1)], p[(0, 2)]]
    }

    /// Backward pass from the loss gradients of [`cfmtl_loss`].
    ///
    /// # Panics
    ///
    /// Panics if called before [`EctPriceModel::forward`].
    pub fn backward(&mut self, grad_probs: &Matrix, grad_g: &Matrix) {
        let probs = self.cached_probs.take().expect("backward before forward");
        let g = self.cached_g.take().expect("backward before forward");
        let grad_strat_logits = softmax_backward(&probs, grad_probs);
        // Sigmoid derivative expressed via the output.
        let grad_prop_logits = grad_g.zip_with(&g, |gr, y| gr * y * (1.0 - y));
        self.stratification.backward(&grad_strat_logits);
        self.propensity.backward(&grad_prop_logits);
    }

    /// One full training run over the dataset.
    ///
    /// Returns the mean loss of the final epoch.
    ///
    /// # Errors
    ///
    /// Returns [`ect_types::EctError::InsufficientData`] on an empty dataset
    /// or [`ect_types::EctError::Diverged`] if the loss goes non-finite.
    pub fn train(
        &mut self,
        data: &PricingDataset,
        config: &EctPriceConfig,
        rng: &mut EctRng,
    ) -> ect_types::Result<f64> {
        if data.is_empty() {
            return Err(ect_types::EctError::InsufficientData(
                "ECT-Price training needs at least one sample".into(),
            ));
        }
        let mut opt = Adam::new(config.adam.clone());
        let mut last_epoch_loss = f64::MAX;
        for epoch in 0..config.epochs {
            opt.set_learning_rate(config.adam.learning_rate * config.lr_decay.powi(epoch as i32));
            let order = data.shuffled_indices(rng);
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            for chunk in order.chunks(config.batch_size.max(1)) {
                let stations: Vec<usize> = chunk.iter().map(|&i| data.stations[i]).collect();
                let times: Vec<usize> = chunk.iter().map(|&i| data.times[i]).collect();
                let treated: Vec<f64> = chunk.iter().map(|&i| data.treated[i]).collect();
                let charged: Vec<f64> = chunk.iter().map(|&i| data.charged[i]).collect();

                let (probs, g) = self.forward(&stations, &times);
                let (loss, grad_probs, grad_g) = cfmtl_loss(&probs, &g, &treated, &charged);
                if !loss.is_finite() {
                    return Err(ect_types::EctError::Diverged(format!(
                        "ECT-Price loss became {loss}"
                    )));
                }
                self.backward(&grad_probs, &grad_g);
                opt.step(self);
                epoch_loss += loss;
                batches += 1;
            }
            last_epoch_loss = epoch_loss / batches.max(1) as f64;
        }
        Ok(last_epoch_loss)
    }
}

impl Parameterized for EctPriceModel {
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.stratification.for_each_param(f);
        self.propensity.for_each_param(f);
    }
}

/// The CF-MTL joint loss (Eq. 23) and its gradients.
///
/// `probs` is `n×3` softmax output (`f00, f01, f11` columns), `g` is `n×1`,
/// `treated`/`charged` are 0/1 indicators. Returns
/// `(loss, dL/dprobs, dL/dg)`; each of the five terms is an MSE averaged
/// over the batch, matching the paper's `L(·,·)`.
///
/// # Panics
///
/// Panics on inconsistent batch sizes.
pub fn cfmtl_loss(
    probs: &Matrix,
    g: &Matrix,
    treated: &[f64],
    charged: &[f64],
) -> (f64, Matrix, Matrix) {
    let n = probs.rows();
    assert_eq!(probs.cols(), 3, "strata probs must have three columns");
    assert_eq!(g.rows(), n, "propensity batch mismatch");
    assert_eq!(treated.len(), n, "treatment batch mismatch");
    assert_eq!(charged.len(), n, "outcome batch mismatch");
    assert!(n > 0, "empty batch");

    let nf = n as f64;
    let mut loss = 0.0;
    let mut grad_probs = Matrix::zeros(n, 3);
    let mut grad_g = Matrix::zeros(n, 1);

    for i in 0..n {
        let f00 = probs[(i, 0)];
        let f01 = probs[(i, 1)];
        let f11 = probs[(i, 2)];
        let gi = g[(i, 0)];
        let t = treated[i];
        let y = charged[i];

        let y0t1 = if y == 0.0 && t == 1.0 { 1.0 } else { 0.0 };
        let y1t0 = if y == 1.0 && t == 0.0 { 1.0 } else { 0.0 };
        let y1t1 = if y == 1.0 && t == 1.0 { 1.0 } else { 0.0 };
        let y0t0 = if y == 0.0 && t == 0.0 { 1.0 } else { 0.0 };

        // L1: f00·g vs (Y=0, T=1).
        let a1 = f00 * gi;
        let e1 = 2.0 * (a1 - y0t1) / nf;
        loss += (a1 - y0t1).powi(2) / nf;
        grad_probs[(i, 0)] += e1 * gi;
        grad_g[(i, 0)] += e1 * f00;

        // L2: f11·(1−g) vs (Y=1, T=0).
        let a2 = f11 * (1.0 - gi);
        let e2 = 2.0 * (a2 - y1t0) / nf;
        loss += (a2 - y1t0).powi(2) / nf;
        grad_probs[(i, 2)] += e2 * (1.0 - gi);
        grad_g[(i, 0)] -= e2 * f11;

        // L3: (f01+f11)·g vs (Y=1, T=1).
        let a3 = (f01 + f11) * gi;
        let e3 = 2.0 * (a3 - y1t1) / nf;
        loss += (a3 - y1t1).powi(2) / nf;
        grad_probs[(i, 1)] += e3 * gi;
        grad_probs[(i, 2)] += e3 * gi;
        grad_g[(i, 0)] += e3 * (f01 + f11);

        // L4: (f00+f01)·(1−g) vs (Y=0, T=0) — see the module-level erratum
        // note: the paper prints f00+f11 here but its identification text
        // requires f00+f01.
        let a4 = (f00 + f01) * (1.0 - gi);
        let e4 = 2.0 * (a4 - y0t0) / nf;
        loss += (a4 - y0t0).powi(2) / nf;
        grad_probs[(i, 0)] += e4 * (1.0 - gi);
        grad_probs[(i, 1)] += e4 * (1.0 - gi);
        grad_g[(i, 0)] -= e4 * (f00 + f01);

        // Lp: g vs T.
        let ep = 2.0 * (gi - t) / nf;
        loss += (gi - t).powi(2) / nf;
        grad_g[(i, 0)] += ep;
    }

    (loss, grad_probs, grad_g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ect_data::charging::{ChargingConfig, ChargingWorld, Stratum};
    use ect_nn::gradcheck::finite_difference;

    fn tiny_model() -> (EctPriceModel, EctPriceConfig, EctRng) {
        let mut rng = EctRng::seed_from(31);
        let space = FeatureSpace::new(4).unwrap();
        let config = EctPriceConfig {
            embed_dim: 3,
            hidden: vec![6],
            ..EctPriceConfig::default()
        };
        let model = EctPriceModel::new(space, &config, &mut rng);
        (model, config, rng)
    }

    #[test]
    fn outputs_are_probabilities() {
        let (mut m, _, _) = tiny_model();
        let (probs, g) = m.forward(&[0, 1, 2], &[5, 40, 42]);
        for r in 0..3 {
            let s: f64 = probs.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
            assert!((0.0..=1.0).contains(&g[(r, 0)]));
        }
        let one = m.predict_strata(0, 5);
        assert!((one.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn infer_matches_forward() {
        let (mut m, _, _) = tiny_model();
        let (p1, g1) = m.forward(&[1, 3], &[7, 8]);
        let (p2, g2) = m.infer(&[1, 3], &[7, 8]);
        assert!(p1.sub(&p2).max_abs() < 1e-12);
        assert!(g1.sub(&g2).max_abs() < 1e-12);
    }

    #[test]
    fn cfmtl_loss_is_zero_for_perfect_predictions() {
        // A batch of pure (Y=0, T=1) samples predicted with f00 = g = 1.
        let probs = Matrix::from_rows(&[&[1.0, 0.0, 0.0]]);
        let g = Matrix::from_rows(&[&[1.0]]);
        let (loss, _, _) = cfmtl_loss(&probs, &g, &[1.0], &[0.0]);
        // L1 = (1·1 − 1)² = 0, L2 = 0, L3 = 0, L4 = (1·0 − 0)² = 0, Lp = 0.
        assert!(loss < 1e-12, "loss {loss}");
    }

    #[test]
    fn cfmtl_gradients_match_finite_difference() {
        let (mut m, _, _) = tiny_model();
        let stations = [0usize, 1, 2, 3, 0, 2];
        let times = [3usize, 12, 30, 47, 7, 40];
        let treated = [1.0, 0.0, 1.0, 0.0, 1.0, 0.0];
        let charged = [0.0, 1.0, 1.0, 0.0, 1.0, 1.0];

        let (probs, g) = m.forward(&stations, &times);
        let (_, grad_p, grad_g) = cfmtl_loss(&probs, &g, &treated, &charged);
        m.backward(&grad_p, &grad_g);

        let err = finite_difference(
            &mut m,
            |model| {
                let (p, g) = model.infer(&stations, &times);
                cfmtl_loss(&p, &g, &treated, &charged).0
            },
            1e-6,
        );
        assert!(err < 1e-5, "max grad error {err}");
    }

    #[test]
    fn training_recovers_the_strata_structure() {
        // Synthetic world with sharp structure: the model should learn that
        // evenings are Incentive-heavy and middays Always-heavy. Single
        // (station, bucket) cells see only tens of samples, so the claims
        // are asserted at the Fig. 12 aggregation level: averages over the
        // weekday evening/midday buckets of all stations.
        let world = ChargingWorld::new(ChargingConfig {
            num_stations: 4,
            label_noise: 0.0,
            ..ChargingConfig::default()
        })
        .unwrap();
        let mut rng = EctRng::seed_from(99);
        let records = world.generate_history(24 * 7 * 26, &rng);
        let space = FeatureSpace::new(4).unwrap();
        let data = PricingDataset::from_records(&space, &records);
        let config = EctPriceConfig {
            epochs: 10,
            lr_decay: 0.85,
            ..EctPriceConfig::default()
        };
        let mut model = EctPriceModel::new(space, &config, &mut rng);
        let loss = model.train(&data, &config, &mut rng).unwrap();
        // The five MSE terms each bottom out at the Bernoulli variance of
        // their (Y, T) cell, so the Bayes-optimal joint loss is well above
        // zero; anything near 1.25 (= 5 × 0.25) would mean nothing learned.
        assert!(loss < 1.0, "training loss {loss}");

        let avg = |hours: std::ops::Range<usize>| -> [f64; 3] {
            let mut acc = [0.0; 3];
            let mut n = 0.0;
            for s in 0..4 {
                for h in hours.clone() {
                    let p = model.predict_strata(s, h); // weekday bucket
                    for (a, v) in acc.iter_mut().zip(p) {
                        *a += v;
                    }
                    n += 1.0;
                }
            }
            acc.map(|v| v / n)
        };
        let evening = avg(18..24);
        let midday = avg(12..18);

        let inc = Stratum::IncentiveCharge.index();
        let alw = Stratum::AlwaysCharge.index();
        assert!(
            evening[inc] > midday[inc] + 0.05,
            "evening {evening:?} vs midday {midday:?}"
        );
        assert!(
            midday[alw] > midday[inc],
            "midday should be Always-dominated: {midday:?}"
        );

        // And the propensity head should recover the confounded logging
        // policy: higher discount propensity in the evening (weekday bucket).
        let (_, g_evening) = model.infer(&[0, 1, 2, 3], &[20, 20, 20, 20]);
        let (_, g_midday) = model.infer(&[0, 1, 2, 3], &[14, 14, 14, 14]);
        assert!(g_evening.mean() > g_midday.mean() + 0.1);
    }

    #[test]
    fn empty_dataset_is_rejected() {
        let (mut m, cfg, mut rng) = tiny_model();
        let data = PricingDataset::default();
        assert!(m.train(&data, &cfg, &mut rng).is_err());
    }

    #[test]
    #[should_panic(expected = "three columns")]
    fn loss_validates_shapes() {
        let probs = Matrix::zeros(2, 2);
        let g = Matrix::zeros(2, 1);
        let _ = cfmtl_loss(&probs, &g, &[0.0, 1.0], &[0.0, 1.0]);
    }
}
