//! The operator-facing system: configuration and world assembly.

use ect_data::dataset::{WorldConfig, WorldDataset};
use ect_data::scenario::ScenarioSpec;
use ect_drl::trainer::TrainerConfig;
use ect_price::baselines::{BaselineConfig, BaselineKind};
use ect_price::features::{FeatureSpace, PricingDataset};
use ect_price::model::EctPriceConfig;
use ect_types::rng::EctRng;
use ect_types::time::SlotIndex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Which pricing method drives the discount schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PricingMethod {
    /// The paper's method (counterfactual multi-task stratification).
    EctPrice,
    /// Outcome-regression uplift baseline.
    OutcomeRegression,
    /// Inverse-propensity-scoring uplift baseline.
    InversePropensity,
    /// Doubly-robust uplift baseline.
    DoublyRobust,
    /// Control: never discount.
    NoDiscount,
}

impl PricingMethod {
    /// The four methods compared throughout the paper's evaluation, in its
    /// table order (`Ours` last, as in Table II/III rows).
    pub const PAPER_SET: [PricingMethod; 4] = [
        PricingMethod::OutcomeRegression,
        PricingMethod::InversePropensity,
        PricingMethod::DoublyRobust,
        PricingMethod::EctPrice,
    ];

    /// Display name matching the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            PricingMethod::EctPrice => "Ours",
            PricingMethod::OutcomeRegression => "OR",
            PricingMethod::InversePropensity => "IPS",
            PricingMethod::DoublyRobust => "DR",
            PricingMethod::NoDiscount => "NoDiscount",
        }
    }

    /// The uplift-baseline kind, if this method is one.
    pub fn baseline_kind(self) -> Option<BaselineKind> {
        match self {
            PricingMethod::OutcomeRegression => Some(BaselineKind::OutcomeRegression),
            PricingMethod::InversePropensity => Some(BaselineKind::InversePropensity),
            PricingMethod::DoublyRobust => Some(BaselineKind::DoublyRobust),
            _ => None,
        }
    }
}

impl std::fmt::Display for PricingMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Full system configuration: world + pricing + scheduling budgets.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Synthetic-world settings (hubs, horizon, seeds).
    pub world: WorldConfig,
    /// Exogenous scenario the world is generated under
    /// ([`ScenarioSpec::baseline`] reproduces the paper's setting).
    pub scenario: ScenarioSpec,
    /// Hours of observational charging history used to train pricing
    /// (the paper uses ≈ 2 years of its 3-year dataset).
    pub pricing_history_slots: usize,
    /// Hours of held-out history used to evaluate pricing (≈ 1 year).
    pub pricing_test_slots: usize,
    /// ECT-Price hyper-parameters.
    pub ect_price: EctPriceConfig,
    /// Baseline hyper-parameters.
    pub baseline: BaselineConfig,
    /// Discount level `c` offered when a slot is selected.
    pub discount: f64,
    /// DRL training budget per (hub, method) pair.
    pub trainer: TrainerConfig,
    /// DRL test episodes (the paper uses 100).
    pub test_episodes: usize,
    /// Master seed for the pipeline stages.
    pub seed: u64,
}

impl Default for SystemConfig {
    /// The paper-shaped configuration (12 hubs, 30-day episodes, 2y/1y
    /// pricing split). Training budgets default to a laptop-scale fraction
    /// of the paper's; raise [`TrainerConfig::episodes`] and
    /// [`SystemConfig::test_episodes`] to 500/100 to match the paper
    /// exactly.
    fn default() -> Self {
        Self {
            world: WorldConfig::default(),
            scenario: ScenarioSpec::baseline(),
            pricing_history_slots: 24 * 365 * 2,
            pricing_test_slots: 24 * 365,
            ect_price: EctPriceConfig::default(),
            baseline: BaselineConfig::default(),
            discount: 0.3,
            trainer: TrainerConfig {
                episodes: 60,
                ..TrainerConfig::default()
            },
            test_episodes: 20,
            seed: 0xEC7C0DE,
        }
    }
}

impl SystemConfig {
    /// A miniature configuration for tests and examples: small world, short
    /// histories, tiny training budgets.
    pub fn miniature() -> Self {
        Self {
            world: WorldConfig {
                num_hubs: 3,
                horizon_slots: 24 * 30,
                ..WorldConfig::default()
            },
            pricing_history_slots: 24 * 7 * 8,
            pricing_test_slots: 24 * 7 * 2,
            ect_price: EctPriceConfig {
                embed_dim: 4,
                hidden: vec![16],
                epochs: 3,
                ..EctPriceConfig::default()
            },
            baseline: BaselineConfig {
                embed_dim: 4,
                mlp_hidden: vec![8],
                epochs: 2,
                ..BaselineConfig::default()
            },
            trainer: TrainerConfig {
                episodes: 4,
                ..TrainerConfig::default()
            },
            test_episodes: 2,
            ..Self::default()
        }
    }

    /// The unit tests' world: the miniature cut to two hubs, four days and
    /// two training episodes.
    #[cfg(test)]
    pub(crate) fn tiny() -> Self {
        let mut config = Self::miniature();
        config.world.num_hubs = 2;
        config.world.horizon_slots = 24 * 4;
        config.trainer.episodes = 2;
        config.test_episodes = 1;
        config
    }

    /// Validates cross-component consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ect_types::EctError::InvalidConfig`] on inconsistencies.
    pub fn validate(&self) -> ect_types::Result<()> {
        self.world.validate()?;
        self.scenario.validate(self.world.horizon_slots)?;
        if self.pricing_history_slots == 0 || self.pricing_test_slots == 0 {
            return Err(ect_types::EctError::InvalidConfig(
                "pricing history and test windows must be non-empty".into(),
            ));
        }
        if !(0.0..1.0).contains(&self.discount) || self.discount == 0.0 {
            return Err(ect_types::EctError::InvalidConfig(format!(
                "discount must lie in (0, 1), got {}",
                self.discount
            )));
        }
        if self.test_episodes == 0 || self.trainer.episodes == 0 {
            return Err(ect_types::EctError::InvalidConfig(
                "training and test episode budgets must be positive".into(),
            ));
        }
        self.trainer.ppo.validate()?;
        Ok(())
    }
}

/// The assembled system: a generated world plus the pipeline configuration.
#[derive(Debug, Clone)]
pub struct EctHubSystem {
    config: SystemConfig,
    // `Arc`-shared so cloning a system (scenario grids, artifact-store
    // adoption, bench artifacts) never duplicates the generated series.
    world: Arc<WorldDataset>,
}

impl EctHubSystem {
    /// Generates the world and validates the configuration.
    ///
    /// # Errors
    ///
    /// Propagates validation and generation failures.
    pub fn new(config: SystemConfig) -> ect_types::Result<Self> {
        config.validate()?;
        let world = Arc::new(WorldDataset::generate_scenario(
            config.world.clone(),
            &config.scenario,
        )?);
        Ok(Self { config, world })
    }

    /// Assembles a system around an **already generated** world of the same
    /// configuration — the artifact-store path of
    /// [`Session::system_for`](crate::session::Session::system_for), where
    /// the world memo has already run the generators. Bit-identical to
    /// [`EctHubSystem::new`] because generation is deterministic in the
    /// configuration.
    ///
    /// # Errors
    ///
    /// Propagates validation failures; returns
    /// [`ect_types::EctError::InvalidConfig`] when the world was generated
    /// under a different scenario, and
    /// [`ect_types::EctError::ShapeMismatch`] when its shape disagrees with
    /// the configuration.
    pub fn from_parts(config: SystemConfig, world: Arc<WorldDataset>) -> ect_types::Result<Self> {
        config.validate()?;
        if world.scenario != config.scenario {
            return Err(ect_types::EctError::InvalidConfig(format!(
                "adopted world was generated under scenario '{}', config wants '{}'",
                world.scenario.name, config.scenario.name
            )));
        }
        if world.horizon() != config.world.horizon_slots {
            return Err(ect_types::EctError::ShapeMismatch {
                context: "adopted world horizon",
                expected: config.world.horizon_slots,
                actual: world.horizon(),
            });
        }
        if world.num_hubs() != config.world.num_hubs {
            return Err(ect_types::EctError::ShapeMismatch {
                context: "adopted world hubs",
                expected: config.world.num_hubs as usize,
                actual: world.num_hubs() as usize,
            });
        }
        Ok(Self { config, world })
    }

    /// Rebuilds the same system under a different scenario (the
    /// scenario-grid entry point: one world per scenario, everything else
    /// shared).
    ///
    /// # Errors
    ///
    /// Propagates validation and generation failures.
    pub fn with_scenario(&self, scenario: ScenarioSpec) -> ect_types::Result<Self> {
        Self::new(SystemConfig {
            scenario,
            ..self.config.clone()
        })
    }

    /// Rebuilds the same system around an **already generated** world —
    /// e.g. one resolved through a `WorldCache` — instead of regenerating
    /// it. The config's scenario is replaced by the world's own spec, so
    /// [`EctHubSystem::config`] and [`EctHubSystem::world`] stay
    /// consistent; the result is bit-identical to
    /// [`EctHubSystem::with_scenario`] when the world came from the same
    /// [`WorldConfig`].
    ///
    /// # Errors
    ///
    /// Propagates config validation failures, and returns
    /// [`ect_types::EctError::ShapeMismatch`] when the world's shape
    /// disagrees with this system's world configuration.
    pub fn with_world(&self, world: Arc<WorldDataset>) -> ect_types::Result<Self> {
        if world.horizon() != self.config.world.horizon_slots {
            return Err(ect_types::EctError::ShapeMismatch {
                context: "adopted world horizon",
                expected: self.config.world.horizon_slots,
                actual: world.horizon(),
            });
        }
        if world.num_hubs() != self.config.world.num_hubs {
            return Err(ect_types::EctError::ShapeMismatch {
                context: "adopted world hubs",
                expected: self.config.world.num_hubs as usize,
                actual: world.num_hubs() as usize,
            });
        }
        let config = SystemConfig {
            scenario: world.scenario.clone(),
            ..self.config.clone()
        };
        config.validate()?;
        Ok(Self { config, world })
    }

    /// System configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The generated world.
    pub fn world(&self) -> &WorldDataset {
        &self.world
    }

    /// The pricing feature space (one station per hub).
    pub fn feature_space(&self) -> FeatureSpace {
        FeatureSpace::new(self.world.num_hubs() as usize)
            .expect("world guarantees at least one hub")
    }

    /// Generates the observational pricing history and encodes it
    /// straight into train/test datasets split at the configured boundary,
    /// each allocated at its exact size (every station logs every slot).
    pub fn pricing_datasets(&self) -> (PricingDataset, PricingDataset) {
        let history = self.config.pricing_history_slots;
        let total = history + self.config.pricing_test_slots;
        let rng = EctRng::seed_from(self.config.seed).fork(0xDA7A);
        let charging = &self.world.charging;
        let stations = charging.num_stations() as usize;
        let space = self.feature_space();
        let boundary = SlotIndex::new(history);
        let mut train = PricingDataset::with_capacity(stations * history);
        let mut test = PricingDataset::with_capacity(stations * (total - history));
        for record in charging.history(total, &rng) {
            let dst = if record.slot < boundary {
                &mut train
            } else {
                &mut test
            };
            dst.push_record(&space, &record);
        }
        (train, test)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_set_has_ours_last() {
        assert_eq!(PricingMethod::PAPER_SET[3], PricingMethod::EctPrice);
        assert_eq!(PricingMethod::EctPrice.label(), "Ours");
        assert_eq!(PricingMethod::OutcomeRegression.label(), "OR");
        assert!(PricingMethod::EctPrice.baseline_kind().is_none());
        assert_eq!(
            PricingMethod::DoublyRobust.baseline_kind(),
            Some(BaselineKind::DoublyRobust)
        );
    }

    #[test]
    fn miniature_config_validates_and_builds() {
        let system = EctHubSystem::new(SystemConfig::miniature()).unwrap();
        assert_eq!(system.world().num_hubs(), 3);
        let (train, test) = system.pricing_datasets();
        assert!(!train.is_empty() && !test.is_empty());
        assert_eq!(
            train.len() + test.len(),
            (SystemConfig::miniature().pricing_history_slots
                + SystemConfig::miniature().pricing_test_slots)
                * 3
        );
    }

    #[test]
    fn validation_rejects_bad_discounts() {
        let mut cfg = SystemConfig::miniature();
        cfg.discount = 0.0;
        assert!(cfg.validate().is_err());
        cfg.discount = 1.0;
        assert!(cfg.validate().is_err());
        cfg.discount = 0.3;
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validation_rejects_empty_budgets() {
        let mut cfg = SystemConfig::miniature();
        cfg.test_episodes = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = SystemConfig::miniature();
        cfg.pricing_test_slots = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn world_generation_is_deterministic() {
        let a = EctHubSystem::new(SystemConfig::miniature()).unwrap();
        let b = EctHubSystem::new(SystemConfig::miniature()).unwrap();
        assert_eq!(a.world().rtp, b.world().rtp);
    }

    #[test]
    fn scenario_threads_through_to_the_world() {
        use ect_data::scenario::scenario_by_name;
        let base = EctHubSystem::new(SystemConfig::miniature()).unwrap();
        assert!(base.world().scenario.is_baseline());
        let horizon = base.config().world.horizon_slots;
        let storm = base
            .with_scenario(scenario_by_name("winter-storm", horizon).unwrap())
            .unwrap();
        assert_eq!(storm.world().scenario.name, "winter-storm");
        let wind = |s: &EctHubSystem| -> f64 {
            s.world().hubs[0].weather.iter().map(|w| w.wind_speed).sum()
        };
        assert!(wind(&storm) < wind(&base));
        // An invalid scenario for this horizon is rejected at validation.
        use ect_data::scenario::{ScenarioModifier, ScenarioSpec, Signal, SlotWindow, Spike};
        let bad = ScenarioSpec::named("bad", "bad").with(ScenarioModifier::Spike(Spike {
            signal: Signal::Price,
            window: SlotWindow::new(horizon, 2),
            factor: 2.0,
        }));
        assert!(base.with_scenario(bad).is_err());
    }
}
