//! NCF-based strata pre-labeling (Section V-A of the paper).
//!
//! The paper has no counterfactual ground truth, so it approximates strata
//! labels for evaluation: every slot with charging history is `Y = 1`; an NCF
//! rating model is pre-trained, and among the `Y = 1` items the half with the
//! *highest* predicted ratings is labeled **Always Charge** (they charge with
//! the most willingness) and the other half **Incentive Charge**; `Y = 0`
//! items are **No Charge**.
//!
//! Our synthetic world knows the true strata, so this module serves two
//! purposes: it reproduces the paper's pipeline faithfully, and its agreement
//! with the oracle quantifies how good that approximation is (reported in
//! EXPERIMENTS.md).

use crate::baselines::BaselineConfig;
use crate::features::{FeatureSpace, PricingDataset};
use ect_data::charging::Stratum;
use ect_nn::loss::mse;
use ect_nn::matrix::Matrix;
use ect_nn::ncf::{Ncf, NcfConfig};
use ect_nn::optim::Adam;
use ect_types::rng::EctRng;

/// Trains the rating NCF on `(station, time) → Y` over the whole dataset.
///
/// # Errors
///
/// Returns [`ect_types::EctError::InsufficientData`] on an empty dataset or
/// divergence errors from training.
pub fn train_rating_model(
    space: &FeatureSpace,
    data: &PricingDataset,
    config: &BaselineConfig,
    rng: &mut EctRng,
) -> ect_types::Result<Ncf> {
    if data.is_empty() {
        return Err(ect_types::EctError::InsufficientData(
            "rating model needs at least one sample".into(),
        ));
    }
    let ncf_config = NcfConfig {
        num_users: space.num_stations,
        num_items: space.num_time_buckets(),
        embed_dim: config.embed_dim,
        mlp_hidden: config.mlp_hidden.clone(),
    };
    let mut model = Ncf::new(&ncf_config, rng);
    let mut opt = Adam::new(config.adam.clone());
    for _ in 0..config.epochs {
        let order = data.shuffled_indices(rng);
        for chunk in order.chunks(config.batch_size.max(1)) {
            let bs: Vec<usize> = chunk.iter().map(|&i| data.stations[i]).collect();
            let bt: Vec<usize> = chunk.iter().map(|&i| data.times[i]).collect();
            let by: Vec<f64> = chunk.iter().map(|&i| data.charged[i]).collect();
            let pred = model.forward(&bs, &bt);
            let target = Matrix::from_vec(by.len(), 1, by);
            let (loss, grad) = mse(&pred, &target);
            if !loss.is_finite() {
                return Err(ect_types::EctError::Diverged(format!(
                    "rating model loss became {loss}"
                )));
            }
            model.backward(&grad);
            opt.step(&mut model);
        }
    }
    Ok(model)
}

/// Applies the paper's median-rating split to produce strata labels for
/// every sample of `data`.
///
/// # Errors
///
/// Returns [`ect_types::EctError::InsufficientData`] on an empty dataset.
pub fn label_strata(rating_model: &Ncf, data: &PricingDataset) -> ect_types::Result<Vec<Stratum>> {
    if data.is_empty() {
        return Err(ect_types::EctError::InsufficientData(
            "labeling needs at least one sample".into(),
        ));
    }
    // Rate the charged items.
    let charged_idx: Vec<usize> = (0..data.len()).filter(|&i| data.charged[i] > 0.5).collect();
    let mut rated: Vec<(usize, f64)> = charged_idx
        .iter()
        .map(|&i| (i, rating_model.predict_one(data.stations[i], data.times[i])))
        .collect();
    rated.sort_by(|a, b| b.1.total_cmp(&a.1)); // highest rating first

    let mut labels = vec![Stratum::NoCharge; data.len()];
    let half = rated.len() / 2;
    for (rank, (i, _)) in rated.into_iter().enumerate() {
        labels[i] = if rank < half {
            Stratum::AlwaysCharge
        } else {
            Stratum::IncentiveCharge
        };
    }
    Ok(labels)
}

/// Fraction of samples whose NCF-derived label matches the oracle stratum.
///
/// # Panics
///
/// Panics if lengths differ or inputs are empty.
pub fn label_agreement(labels: &[Stratum], oracle: &[Stratum]) -> f64 {
    assert_eq!(labels.len(), oracle.len(), "label/oracle length mismatch");
    assert!(!labels.is_empty(), "empty label sets");
    let matches = labels.iter().zip(oracle).filter(|(a, b)| a == b).count();
    matches as f64 / labels.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ect_data::charging::{ChargingConfig, ChargingWorld};

    fn setup() -> (FeatureSpace, PricingDataset) {
        let world = ChargingWorld::new(ChargingConfig {
            num_stations: 4,
            label_noise: 0.0,
            ..ChargingConfig::default()
        })
        .unwrap();
        let rng = EctRng::seed_from(11);
        let records = world.generate_history(24 * 7 * 10, &rng);
        let space = FeatureSpace::new(4).unwrap();
        let data = PricingDataset::from_records(&space, &records);
        (space, data)
    }

    fn quick() -> BaselineConfig {
        BaselineConfig {
            embed_dim: 4,
            mlp_hidden: vec![8],
            epochs: 2,
            ..BaselineConfig::default()
        }
    }

    #[test]
    fn labeling_respects_the_outcome_partition() {
        let (space, data) = setup();
        let mut rng = EctRng::seed_from(12);
        let model = train_rating_model(&space, &data, &quick(), &mut rng).unwrap();
        let labels = label_strata(&model, &data).unwrap();
        let mut always = 0usize;
        let mut incentive = 0usize;
        for (i, label) in labels.iter().enumerate() {
            if data.charged[i] > 0.5 {
                assert_ne!(*label, Stratum::NoCharge, "charged item labeled NoCharge");
                match label {
                    Stratum::AlwaysCharge => always += 1,
                    Stratum::IncentiveCharge => incentive += 1,
                    Stratum::NoCharge => unreachable!(),
                }
            } else {
                assert_eq!(*label, Stratum::NoCharge);
            }
        }
        // The paper's split: half/half among Y=1 (within one item).
        assert!((always as i64 - incentive as i64).abs() <= 1);
    }

    #[test]
    fn labels_beat_chance_against_the_oracle() {
        let (space, data) = setup();
        let mut rng = EctRng::seed_from(13);
        let model = train_rating_model(&space, &data, &quick(), &mut rng).unwrap();
        let labels = label_strata(&model, &data).unwrap();
        let agreement = label_agreement(&labels, &data.strata);
        // NoCharge items are labeled exactly (noise-free world), so overall
        // agreement must be far above the ~33 % chance level.
        assert!(agreement > 0.6, "agreement {agreement}");
    }

    #[test]
    fn empty_dataset_is_rejected() {
        let space = FeatureSpace::new(2).unwrap();
        let mut rng = EctRng::seed_from(14);
        assert!(
            train_rating_model(&space, &PricingDataset::default(), &quick(), &mut rng).is_err()
        );
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn agreement_checks_lengths() {
        let _ = label_agreement(&[Stratum::NoCharge], &[]);
    }
}
