//! Rule-based battery schedulers.
//!
//! Comparators for the DRL policy: the ablation question DESIGN.md poses is
//! "does learned scheduling beat sensible rules?". All schedulers implement
//! [`Scheduler`], which acts on one lane of a [`FleetEnv`], so evaluation
//! code is agnostic.

use crate::actor_critic::ActorCritic;
use ect_env::battery::BpAction;
use ect_env::env::HubEnv;
use ect_env::vec_env::FleetEnv;

/// A battery-scheduling policy.
pub trait Scheduler {
    /// Method name for report tables.
    fn name(&self) -> &'static str;

    /// Picks the action for lane `lane` of `fleet` at the current slot from
    /// the Eq. 24 observation (built on demand by
    /// [`FleetEnv::observe_into`]) or the lane's raw exogenous series. One
    /// scheduler serves every lane of a fleet.
    fn act(&mut self, fleet: &FleetEnv, lane: usize) -> BpAction;
}

/// Never touches the battery — the "plain base station" lower bound.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoBattery;

impl Scheduler for NoBattery {
    fn name(&self) -> &'static str {
        "NoBattery"
    }

    fn act(&mut self, _fleet: &FleetEnv, _lane: usize) -> BpAction {
        BpAction::Idle
    }
}

/// Price-threshold rule: charge when the current RTP is below the low
/// threshold, discharge when above the high threshold, else idle.
#[derive(Debug, Clone, Copy)]
pub struct GreedyPrice {
    /// Charge below this price, $/kWh.
    pub low: f64,
    /// Discharge above this price, $/kWh.
    pub high: f64,
}

impl GreedyPrice {
    /// Thresholds roughly at the default RTP generator's quartiles.
    pub fn default_thresholds() -> Self {
        Self {
            low: 0.065,
            high: 0.105,
        }
    }
}

impl Scheduler for GreedyPrice {
    fn name(&self) -> &'static str {
        "GreedyPrice"
    }

    fn act(&mut self, fleet: &FleetEnv, lane: usize) -> BpAction {
        let t = fleet.slot().min(fleet.horizon() - 1);
        let price = fleet.series()[lane].rtp[t].as_f64();
        if price <= self.low {
            BpAction::Charge
        } else if price >= self.high {
            BpAction::Discharge
        } else {
            BpAction::Idle
        }
    }
}

/// Fixed time-of-use rule: charge overnight (01:00–06:00), discharge in the
/// evening peak (18:00–22:00).
#[derive(Debug, Clone, Copy, Default)]
pub struct TimeOfUse;

impl Scheduler for TimeOfUse {
    fn name(&self) -> &'static str {
        "TimeOfUse"
    }

    fn act(&mut self, fleet: &FleetEnv, _lane: usize) -> BpAction {
        let hour = fleet.slot() % 24;
        match hour {
            1..=5 => BpAction::Charge,
            18..=21 => BpAction::Discharge,
            _ => BpAction::Idle,
        }
    }
}

/// A trained DRL policy acting greedily (evaluation mode).
#[derive(Debug, Clone)]
pub struct DrlScheduler {
    policy: ActorCritic,
    /// Observation scratch, reused across lanes and slots.
    state: Vec<f64>,
}

impl DrlScheduler {
    /// Wraps a trained actor-critic.
    pub fn new(policy: ActorCritic) -> Self {
        Self {
            policy,
            state: Vec::new(),
        }
    }

    /// The wrapped policy.
    pub fn policy(&self) -> &ActorCritic {
        &self.policy
    }
}

impl Scheduler for DrlScheduler {
    fn name(&self) -> &'static str {
        "ECT-DRL"
    }

    fn act(&mut self, fleet: &FleetEnv, lane: usize) -> BpAction {
        self.state.resize(fleet.state_dim(), 0.0);
        fleet.observe_into(lane, &mut self.state);
        self.policy.greedy_action(&self.state)
    }
}

/// Runs one episode under a scheduler; returns `(total profit $, per-slot
/// trail)`.
pub fn run_episode<S: Scheduler + ?Sized>(
    env: &mut HubEnv,
    scheduler: &mut S,
    initial_soc: f64,
) -> (f64, Vec<ect_env::env::SlotBreakdown>) {
    let (total, trail) = env.rollout(initial_soc, |_, env| scheduler.act(env.as_fleet(), 0));
    (total.as_f64(), trail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor_critic::ActorCriticConfig;
    use crate::toy::toy_env;
    use ect_types::rng::EctRng;

    /// Cheap overnight, expensive evenings.
    fn env_with_price_profile() -> HubEnv {
        toy_env(48, 4, 0.5, 40.0, |t| match t % 24 {
            1..=5 => 0.05,
            18..=21 => 0.13,
            _ => 0.08,
        })
    }

    #[test]
    fn greedy_price_beats_no_battery_on_a_spread() {
        let mut env = env_with_price_profile();
        let (no_batt, _) = run_episode(&mut env, &mut NoBattery, 0.5);
        let (greedy, _) = run_episode(&mut env, &mut GreedyPrice::default_thresholds(), 0.5);
        assert!(
            greedy > no_batt,
            "greedy {greedy} should beat idle {no_batt}"
        );
    }

    #[test]
    fn time_of_use_also_beats_no_battery() {
        let mut env = env_with_price_profile();
        let (no_batt, _) = run_episode(&mut env, &mut NoBattery, 0.5);
        let (tou, _) = run_episode(&mut env, &mut TimeOfUse, 0.5);
        assert!(tou > no_batt, "tou {tou} vs idle {no_batt}");
    }

    #[test]
    fn schedulers_report_names() {
        assert_eq!(NoBattery.name(), "NoBattery");
        assert_eq!(GreedyPrice::default_thresholds().name(), "GreedyPrice");
        assert_eq!(TimeOfUse.name(), "TimeOfUse");
    }

    #[test]
    fn greedy_actions_match_thresholds() {
        let mut env = env_with_price_profile();
        env.reset(0.5);
        let mut g = GreedyPrice::default_thresholds();
        // Slot 0: price 0.08 → idle.
        assert_eq!(g.act(env.as_fleet(), 0), BpAction::Idle);
        env.step(BpAction::Idle);
        env.step(BpAction::Idle); // now at slot 2 (price 0.05)
        assert_eq!(g.act(env.as_fleet(), 0), BpAction::Charge);
    }

    #[test]
    fn drl_scheduler_is_deterministic() {
        let mut rng = EctRng::seed_from(11);
        let mut env = env_with_price_profile();
        let policy = ActorCritic::new(env.state_dim(), &ActorCriticConfig::default(), &mut rng);
        let mut sched = DrlScheduler::new(policy);
        assert_eq!(sched.name(), "ECT-DRL");
        let (a, _) = run_episode(&mut env, &mut sched, 0.5);
        let (b, _) = run_episode(&mut env, &mut sched, 0.5);
        assert_eq!(a, b);
    }

    #[test]
    fn run_episode_trail_covers_horizon() {
        let mut env = env_with_price_profile();
        let (_, trail) = run_episode(&mut env, &mut NoBattery, 0.5);
        assert_eq!(trail.len(), 48);
    }
}
