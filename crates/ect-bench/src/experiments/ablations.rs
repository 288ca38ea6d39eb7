//! Ablations DESIGN.md calls out (not in the paper, but justified by it):
//!
//! 1. **Scheduler ablation** — ECT-DRL vs NoBattery / GreedyPrice /
//!    TimeOfUse on the same hub: is learning needed, or do rules suffice?
//! 2. **Renewables ablation** — the same hub bare / PV-only / PV+WT: how
//!    much of the profit comes from generation vs scheduling?
//! 3. **Entropy ablation** — PPO with and without the entropy bonus (the
//!    paper's exact Eq. 27 objective has none).
//! 4. **Actor-init ablation** — idle-biased "safe init" vs a uniform
//!    initial policy.

use super::{pricing_artifacts, system_config, PricingArtifacts, ABLATIONS_VERSION};
use ect_core::prelude::*;
use ect_core::scheduling::{run_hubs_method_batched, run_hubs_scheduler_batched};
use ect_price::engine::NeverDiscount;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One ablation row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationRow {
    /// Ablation family.
    pub family: String,
    /// Variant label.
    pub variant: String,
    /// Average daily reward, $.
    pub avg_daily_reward: f64,
}

/// All ablation rows.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationResult {
    /// Rows across the three families.
    pub rows: Vec<AblationRow>,
}

/// Runs all three ablation families on hub 0.
///
/// # Errors
///
/// Propagates environment/training failures.
pub fn run(artifacts: &PricingArtifacts) -> ect_types::Result<AblationResult> {
    let system = &artifacts.system;
    let hub = HubId::new(0);
    // Every cell runs hub 0 as a one-lane fleet.
    let drl_cell = |system: &EctHubSystem, variant: &str| -> ect_types::Result<f64> {
        let cells = run_hubs_method_batched(system, &[hub], &NeverDiscount, variant)?;
        Ok(cells[0].avg_daily_reward)
    };
    // Families 3 and 4 train on half the budget with one trainer knob changed.
    let half_budget_cell = |variant: &str, tweak: &dyn Fn(&mut TrainerConfig)| {
        let mut trainer = system.config().trainer.clone();
        trainer.episodes = (trainer.episodes / 2).max(4);
        tweak(&mut trainer);
        let sub = EctHubSystem::new(SystemConfig {
            trainer,
            ..system.config().clone()
        })?;
        drl_cell(&sub, variant)
    };
    let mut rows = Vec::new();
    let mut push = |family: &str, variant: &str, avg_daily_reward: f64| {
        rows.push(AblationRow {
            family: family.into(),
            variant: variant.into(),
            avg_daily_reward,
        });
    };

    // 1. Scheduler ablation.
    for (variant, mut sched) in [
        ("NoBattery", Box::new(NoBattery) as Box<dyn Scheduler>),
        ("GreedyPrice", Box::new(GreedyPrice::default_thresholds())),
        ("TimeOfUse", Box::new(TimeOfUse)),
    ] {
        let cells = run_hubs_scheduler_batched(system, &[hub], &NeverDiscount, sched.as_mut())?;
        push("scheduler", variant, cells[0].avg_daily_reward);
    }
    push("scheduler", "ECT-DRL", drl_cell(system, "ECT-DRL")?);

    // 2. Renewables ablation: vary the plant on a cloned system config via
    //    direct env evaluation with the TimeOfUse rule.
    for (variant, plant) in [
        ("bare", ect_data::renewables::RenewablePlant::none()),
        (
            "pv-only",
            ect_data::renewables::RenewablePlant::pv_only(ect_data::renewables::PvArray {
                rated_kw: 8.0,
                derate: 0.85,
            }),
        ),
        (
            "pv+wt",
            ect_data::renewables::RenewablePlant::pv_and_wt(
                ect_data::renewables::PvArray {
                    rated_kw: 15.0,
                    derate: 0.85,
                },
                ect_data::renewables::WindTurbine {
                    rated_kw: 20.0,
                    cut_in: 3.0,
                    rated_speed: 11.0,
                    cut_out: 25.0,
                },
            ),
        ),
    ] {
        let mut rng = EctRng::seed_from(system.config().seed ^ 0xAB1A);
        let world = system.world();
        let inputs = ect_env::fleet::episode_for_hub(
            world,
            hub,
            0,
            world.horizon(),
            DiscountSchedule::none(world.horizon()),
            &mut rng,
        )?;
        // The hub's siting preset with the plant swapped.
        let mut config = HubConfig::for_siting(world.hubs[hub.index()].siting);
        config.plant = plant;
        let mut env = HubEnv::new(config, inputs, ect_core::OBS_WINDOW)?;
        let (profit, _) = ect_drl::heuristics::run_episode(&mut env, &mut TimeOfUse, 0.5);
        push(
            "renewables",
            variant,
            profit / (world.horizon() as f64 / 24.0),
        );
    }

    // 3. Entropy ablation: train two small policies with and without the
    //    bonus and compare final training returns.
    for (variant, entropy) in [("entropy=0 (paper Eq. 27)", 0.0), ("entropy=0.01", 0.01)] {
        let reward = half_budget_cell(variant, &|trainer| trainer.ppo.entropy_coef = entropy)?;
        push("ppo-entropy", variant, reward);
    }

    // 4. Actor-init ablation: uniform vs idle-biased initial policy.
    for (variant, idle_bias) in [
        ("idle-bias=0 (uniform init)", 0.0),
        ("idle-bias=2 (safe init)", 2.0),
    ] {
        let reward = half_budget_cell(variant, &|trainer| trainer.net.idle_bias = idle_bias)?;
        push("actor-init", variant, reward);
    }

    Ok(AblationResult { rows })
}

/// Artifact kind of the memoised ablation rows.
pub const KIND: &str = "ablations";

/// Store key of the ablations over `config`: every family derives its
/// variants from it (the ECT-Price model is not used).
pub fn cache_key(config: &SystemConfig) -> ArtifactKey {
    ArtifactKey::versioned(KIND, ABLATIONS_VERSION, config)
}

/// The ablations at the session's scale, memoised in its artifact store
/// and served from the disk cache when one is attached: [`run`] trains the
/// ablation cells once per distinct key.
///
/// # Errors
///
/// Propagates environment/training failures.
pub fn cached(session: &Session) -> ect_types::Result<Arc<AblationResult>> {
    let key = cache_key(&system_config(session.scale()));
    session
        .store()
        .get_or_insert_cached(key, || run(&*pricing_artifacts(session)?))
}

/// Prints the ablation table.
pub fn print(result: &AblationResult) {
    println!("== Ablations ==");
    let mut family = String::new();
    for row in &result.rows {
        if row.family != family {
            family = row.family.clone();
            println!("\n[{family}]");
        }
        println!("  {:<26} {:>10.2} $/day", row.variant, row.avg_daily_reward);
    }
}

/// Registry face of this experiment (see [`crate::registry`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct AblationsExperiment;

impl ect_core::Experiment for AblationsExperiment {
    fn id(&self) -> &'static str {
        "ablations"
    }
    fn description(&self) -> &'static str {
        "component ablations of the hub reward"
    }
    fn artifact_stems(&self) -> &'static [&'static str] {
        &["ablations"]
    }
    fn dependency_stems(&self) -> &'static [&'static str] {
        // Consumes the shared ECT-Price pricing artifacts: the scheduler
        // runs the first declarer (table2_price) as the provider and the
        // rest concurrently once it finishes.
        &["pricing"]
    }
    fn run(&self, session: &ect_core::Session) -> ect_types::Result<ect_core::ExperimentOutput> {
        let result = cached(session)?;
        print(&result);
        crate::output::save_json(self.id(), &*result);
        Ok(
            ect_core::ExperimentOutput::new(self.id(), "rows", result.rows.len() as f64)
                .with_artifact(self.id()),
        )
    }
}
