//! ECT-DRL: deep-reinforcement-learning battery scheduling (Section IV-B).
//!
//! Given the real-time price, weather, traffic and charging-price windows
//! plus the battery state of charge (Eq. 24), the agent picks one of three
//! battery actions per hour — charge, discharge, idle — to maximise the
//! per-slot profit of Eq. 12. Training uses the Actor-Critic architecture of
//! Fig. 10 with the PPO clipped surrogate objective (Eqs. 25–28).
//!
//! * [`actor_critic`] — the shared-trunk policy/value network;
//! * [`rollout`] — trajectory buffers and GAE advantage estimation;
//! * [`ppo`] — the clipped-objective learner;
//! * [`trainer`] — training budgets and curves, and the one PPO
//!   collect/update episode loop every trainer runs (30-day episodes,
//!   random initial SoC, 500 train / 100 test in the paper);
//! * [`collector`] — lockstep rollout collection over the
//!   [`ect_env::vec_env::FleetEnv`] engine with per-lane buffers, per-lane
//!   fleet training ([`collector::train_fleet`]) and the per-lane
//!   evaluation loop for greedy policies and rule-based schedulers;
//! * [`heuristics`] — rule-based comparators (NoBattery, price thresholds,
//!   time-of-use) and the [`heuristics::Scheduler`] abstraction;
//! * [`generalist`] — scenario-mixture training of one shared policy across
//!   heterogeneous stress worlds, with zero-shot held-out evaluation
//!   ([`generalist::ScenarioMixture`],
//!   [`generalist::train_generalist_source`],
//!   [`generalist::evaluate_generalist`]);
//! * [`scenario_source`] — where lane scenarios come from: fixed mixtures or
//!   domain-randomised sampling ([`scenario_source::ScenarioSource`]), plus
//!   the LRU-bounded [`scenario_source::WorldCache`] that keeps an infinite
//!   spec family memory-bounded;
//! * [`checkpoint`] — versioned JSON persistence for trained policies,
//!   carrying the observation-layout metadata a loaded generalist needs to
//!   refuse a mismatched environment.
//!
//! # Example
//!
//! Scenario curricula are pure functions of `(seed, episode)` — whichever
//! source they come from:
//!
//! ```
//! use ect_drl::generalist::ScenarioMixture;
//! use ect_drl::scenario_source::ScenarioSource;
//! use ect_data::scenario::randomized::all_stress;
//! use ect_data::scenario::scenario_library;
//!
//! let fixed = ScenarioSource::Fixed(ScenarioMixture::uniform(scenario_library(48))?);
//! let sampled = ScenarioSource::sampled(all_stress(), 48);
//! for source in [&fixed, &sampled] {
//!     let a = source.specs_for_episode(/*seed=*/ 7, /*episode=*/ 3, /*lanes=*/ 2)?;
//!     assert_eq!(a, source.specs_for_episode(7, 3, 2)?);
//! }
//! # Ok::<(), ect_types::EctError>(())
//! ```

pub mod actor_critic;
pub mod checkpoint;
pub mod collector;
pub mod generalist;
pub mod heuristics;
pub mod ppo;
pub mod rollout;
pub mod scenario_source;
pub mod trainer;

#[cfg(test)]
mod toy;

pub use actor_critic::{ActorCritic, ActorCriticConfig};
pub use checkpoint::{
    load_checkpoint, load_policy, save_checkpoint, save_policy, CheckpointMeta, PolicyCheckpoint,
    CHECKPOINT_VERSION,
};
pub use collector::{
    collect_fleet_episode, collect_shared_policy_episode, evaluate_fleet_greedy,
    evaluate_fleet_scheduler, train_fleet, FleetFactory,
};
pub use generalist::{
    evaluate_generalist, train_generalist_source, train_holdout_split, GeneralistConfig,
    ScenarioMixture, HELDOUT_SCENARIOS, TRAIN_SCENARIOS,
};
pub use heuristics::{run_episode, DrlScheduler, GreedyPrice, NoBattery, Scheduler, TimeOfUse};
pub use ppo::{Ppo, PpoConfig, UpdateStats};
pub use rollout::{RolloutBuffer, Transition};
pub use scenario_source::{ScenarioSource, WorldCache};
pub use trainer::{EvalSummary, TrainerConfig, TrainingHistory};
