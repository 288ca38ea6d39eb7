//! Proximal Policy Optimization (Eqs. 25–28 of the paper).
//!
//! The clipped surrogate objective
//! `L_clip = Ê[min(r_t Â_t, clip(r_t, 1−ε, 1+ε) Â_t)]` with
//! `r_t = π_θ(a|s) / π_old(a|s)` keeps each policy step inside a trust
//! region; the total loss adds the critic regression
//! `L = L_clip − c·MSE(V)` (Eq. 27), plus an optional entropy bonus (not in
//! the paper; default small, ablatable to zero) that prevents premature
//! collapse onto a single action.

use crate::actor_critic::ActorCritic;
use crate::rollout::RolloutBuffer;
use ect_nn::loss::mse_into;
use ect_nn::matrix::Matrix;
use ect_nn::optim::{Adam, AdamConfig};
use ect_nn::param::Parameterized;
use ect_types::rng::EctRng;
use serde::{Deserialize, Serialize};

/// PPO hyper-parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PpoConfig {
    /// Discount factor γ.
    pub gamma: f64,
    /// GAE λ.
    pub gae_lambda: f64,
    /// Clip range ε (Eq. 25).
    pub clip_epsilon: f64,
    /// Critic loss coefficient `c` (Eq. 27).
    pub value_coef: f64,
    /// Entropy bonus coefficient (0 = the paper's exact objective).
    pub entropy_coef: f64,
    /// Optimisation epochs per collected buffer.
    pub update_epochs: usize,
    /// Minibatch size within an update.
    pub minibatch_size: usize,
    /// Gradient-norm clip.
    pub max_grad_norm: f64,
    /// Optimizer settings (the paper: Adam, lr 1e-3, weight decay 1e-4).
    pub adam: AdamConfig,
}

impl Default for PpoConfig {
    fn default() -> Self {
        Self {
            gamma: 0.99,
            gae_lambda: 0.95,
            clip_epsilon: 0.2,
            value_coef: 0.5,
            entropy_coef: 0.01,
            update_epochs: 4,
            minibatch_size: 64,
            max_grad_norm: 0.5,
            adam: AdamConfig::paper_drl(),
        }
    }
}

impl PpoConfig {
    /// Validates ranges.
    ///
    /// # Errors
    ///
    /// Returns [`ect_types::EctError::InvalidConfig`] for out-of-range
    /// values.
    pub fn validate(&self) -> ect_types::Result<()> {
        if !(0.0..=1.0).contains(&self.gamma) || !(0.0..=1.0).contains(&self.gae_lambda) {
            return Err(ect_types::EctError::InvalidConfig(
                "gamma and lambda must lie in [0, 1]".into(),
            ));
        }
        if self.clip_epsilon <= 0.0 || self.clip_epsilon >= 1.0 {
            return Err(ect_types::EctError::InvalidConfig(
                "clip epsilon must lie in (0, 1)".into(),
            ));
        }
        if self.value_coef < 0.0 || self.entropy_coef < 0.0 {
            return Err(ect_types::EctError::InvalidConfig(
                "loss coefficients must be non-negative".into(),
            ));
        }
        if self.update_epochs == 0 || self.minibatch_size == 0 {
            return Err(ect_types::EctError::InvalidConfig(
                "update epochs and minibatch size must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// Diagnostics from one PPO update.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct UpdateStats {
    /// Mean clipped-surrogate objective (higher is better).
    pub policy_objective: f64,
    /// Mean critic MSE.
    pub value_loss: f64,
    /// Mean policy entropy.
    pub entropy: f64,
    /// Fraction of samples where the ratio was clipped.
    pub clip_fraction: f64,
}

/// The PPO learner: owns the optimizer state.
#[derive(Debug)]
pub struct Ppo {
    config: PpoConfig,
    optimizer: Adam,
    work: Workspace,
}

/// Minibatch buffers reused across the minibatches of every update.
#[derive(Debug, Default)]
struct Workspace {
    states: Matrix,
    grad_probs: Matrix,
    target: Matrix,
    grad_values: Matrix,
}

impl Ppo {
    /// Creates a learner.
    ///
    /// # Errors
    ///
    /// Propagates [`PpoConfig::validate`] failures.
    pub fn new(config: PpoConfig) -> ect_types::Result<Self> {
        config.validate()?;
        let optimizer = Adam::new(config.adam.clone());
        Ok(Self {
            config,
            optimizer,
            work: Workspace::default(),
        })
    }

    /// Configuration.
    pub fn config(&self) -> &PpoConfig {
        &self.config
    }

    /// Runs one PPO update over the buffer, mutating the policy in place.
    ///
    /// # Errors
    ///
    /// Returns [`ect_types::EctError::InsufficientData`] on an empty buffer
    /// or [`ect_types::EctError::Diverged`] if parameters go non-finite.
    pub fn update(
        &mut self,
        policy: &mut ActorCritic,
        buffer: &RolloutBuffer,
        rng: &mut EctRng,
    ) -> ect_types::Result<UpdateStats> {
        let cfg = &self.config;
        let work = &mut self.work;
        let (mut advantages, returns) = buffer.gae(cfg.gamma, cfg.gae_lambda)?;
        RolloutBuffer::normalise(&mut advantages);
        let transitions = buffer.transitions();
        let n = transitions.len();

        let mut stats = UpdateStats::default();
        let mut stat_batches = 0usize;

        for _ in 0..cfg.update_epochs {
            let mut order: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut order);
            for chunk in order.chunks(cfg.minibatch_size) {
                let b = chunk.len();
                let states = &mut work.states;
                states.resize(b, policy.state_dim());
                for (row, &i) in chunk.iter().enumerate() {
                    states.row_mut(row).copy_from_slice(&transitions[i].state);
                }
                let (probs, values) = policy.forward_ref(states);

                // Policy gradient through the clipped surrogate.
                let grad_probs = &mut work.grad_probs;
                grad_probs.resize(b, 3);
                grad_probs.fill_zero();
                let mut objective = 0.0;
                let mut entropy = 0.0;
                let mut clipped = 0usize;
                for (row, &i) in chunk.iter().enumerate() {
                    let t = &transitions[i];
                    let adv = advantages[i];
                    let p_new = probs[(row, t.action)].max(1e-12);
                    let ratio = p_new / t.action_prob.max(1e-12);
                    let unclipped = ratio * adv;
                    let clipped_ratio = ratio.clamp(1.0 - cfg.clip_epsilon, 1.0 + cfg.clip_epsilon);
                    let clipped_obj = clipped_ratio * adv;
                    objective += unclipped.min(clipped_obj);
                    if unclipped <= clipped_obj {
                        // Unclipped branch active: d(min)/dp = adv / π_old.
                        // We *descend* on −objective.
                        grad_probs[(row, t.action)] -= adv / t.action_prob.max(1e-12) / b as f64;
                    } else {
                        clipped += 1;
                    }
                    // Entropy bonus: L −= β·H, H = −Σ p ln p,
                    // dH/dp_j = −(ln p_j + 1).
                    for j in 0..3 {
                        let pj = probs[(row, j)].max(1e-12);
                        entropy -= pj * pj.ln();
                        if cfg.entropy_coef > 0.0 {
                            grad_probs[(row, j)] += cfg.entropy_coef * (pj.ln() + 1.0) / b as f64;
                        }
                    }
                }

                // Critic regression toward GAE returns (Eq. 27's MSE term).
                let target = &mut work.target;
                target.resize(b, 1);
                for (t, &i) in target.as_mut_slice().iter_mut().zip(chunk) {
                    *t = returns[i];
                }
                let value_loss = mse_into(values, target, &mut work.grad_values);
                work.grad_values.scale(cfg.value_coef);

                policy.backward(&work.grad_probs, &work.grad_values);
                policy.clip_grad_norm(cfg.max_grad_norm);
                self.optimizer.step(policy);

                if policy.any_non_finite() {
                    return Err(ect_types::EctError::Diverged(
                        "PPO parameters became non-finite".into(),
                    ));
                }

                stats.policy_objective += objective / b as f64;
                stats.value_loss += value_loss;
                stats.entropy += entropy / b as f64;
                stats.clip_fraction += clipped as f64 / b as f64;
                stat_batches += 1;
            }
        }
        let denom = stat_batches.max(1) as f64;
        stats.policy_objective /= denom;
        stats.value_loss /= denom;
        stats.entropy /= denom;
        stats.clip_fraction /= denom;
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor_critic::ActorCriticConfig;
    use crate::rollout::Transition;

    fn tiny_policy(rng: &mut EctRng) -> ActorCritic {
        ActorCritic::new(
            2,
            &ActorCriticConfig {
                trunk_hidden: vec![8],
                actor_hidden: vec![],
                critic_hidden: vec![],
                idle_bias: 0.0,
            },
            rng,
        )
    }

    /// A two-state contextual bandit: in state [1,0] action 0 pays 1, in
    /// state [0,1] action 1 pays 1; everything else pays 0.
    fn bandit_buffer(policy: &ActorCritic, rng: &mut EctRng, episodes: usize) -> RolloutBuffer {
        let mut buf = RolloutBuffer::new();
        for e in 0..episodes {
            let state = if e % 2 == 0 {
                vec![1.0, 0.0]
            } else {
                vec![0.0, 1.0]
            };
            let (action, prob, value) = policy.sample_action(&state, rng);
            let want = if e % 2 == 0 { 0 } else { 1 };
            let reward = if action.index() == want { 1.0 } else { 0.0 };
            buf.push(Transition {
                state,
                action: action.index(),
                action_prob: prob,
                reward,
                value,
                done: true,
            });
        }
        buf
    }

    #[test]
    fn ppo_solves_a_contextual_bandit() {
        let mut rng = EctRng::seed_from(7);
        let mut policy = tiny_policy(&mut rng);
        let mut ppo = Ppo::new(PpoConfig {
            update_epochs: 4,
            minibatch_size: 32,
            entropy_coef: 0.005,
            ..PpoConfig::default()
        })
        .unwrap();
        for _ in 0..60 {
            let buf = bandit_buffer(&policy, &mut rng, 128);
            ppo.update(&mut policy, &buf, &mut rng).unwrap();
        }
        let (p_a, _) = policy.evaluate_one(&[1.0, 0.0]);
        let (p_b, _) = policy.evaluate_one(&[0.0, 1.0]);
        assert!(p_a[0] > 0.8, "state A policy {p_a:?}");
        assert!(p_b[1] > 0.8, "state B policy {p_b:?}");
    }

    #[test]
    fn critic_learns_state_values() {
        // With a fixed random policy, the critic should regress toward the
        // expected rewards of the two bandit states.
        let mut rng = EctRng::seed_from(8);
        let mut policy = tiny_policy(&mut rng);
        let mut ppo = Ppo::new(PpoConfig {
            entropy_coef: 0.5, // keep the policy near-uniform
            ..PpoConfig::default()
        })
        .unwrap();
        for _ in 0..40 {
            let buf = bandit_buffer(&policy, &mut rng, 64);
            ppo.update(&mut policy, &buf, &mut rng).unwrap();
        }
        let (_, v_a) = policy.evaluate_one(&[1.0, 0.0]);
        assert!(v_a.is_finite());
        assert!(v_a > 0.05 && v_a < 1.0, "value {v_a}");
    }

    #[test]
    fn update_reports_stats() {
        let mut rng = EctRng::seed_from(9);
        let mut policy = tiny_policy(&mut rng);
        let mut ppo = Ppo::new(PpoConfig::default()).unwrap();
        let buf = bandit_buffer(&policy, &mut rng, 64);
        let stats = ppo.update(&mut policy, &buf, &mut rng).unwrap();
        assert!(stats.entropy > 0.0 && stats.entropy <= (3.0f64).ln() + 1e-9);
        assert!((0.0..=1.0).contains(&stats.clip_fraction));
        assert!(stats.value_loss >= 0.0);
    }

    #[test]
    fn non_finite_states_are_reported_as_divergence() {
        // An infinite feature reaches the weights through the kernels even
        // where it meets a zero (0·∞ is NaN, never skipped), so the
        // post-step check must flag the update.
        let mut rng = EctRng::seed_from(11);
        let mut policy = tiny_policy(&mut rng);
        let mut ppo = Ppo::new(PpoConfig::default()).unwrap();
        let mut buf = bandit_buffer(&policy, &mut rng, 16);
        let mut poisoned = buf.transitions()[0].clone();
        poisoned.state = vec![f64::INFINITY, 0.0];
        buf.push(poisoned);
        let err = ppo.update(&mut policy, &buf, &mut rng).unwrap_err();
        assert!(
            matches!(err, ect_types::EctError::Diverged(_)),
            "unexpected error {err:?}"
        );
    }

    #[test]
    fn empty_buffer_is_rejected() {
        let mut rng = EctRng::seed_from(10);
        let mut policy = tiny_policy(&mut rng);
        let mut ppo = Ppo::new(PpoConfig::default()).unwrap();
        assert!(ppo
            .update(&mut policy, &RolloutBuffer::new(), &mut rng)
            .is_err());
    }

    #[test]
    fn config_validation() {
        assert!(PpoConfig {
            gamma: 1.5,
            ..PpoConfig::default()
        }
        .validate()
        .is_err());
        assert!(PpoConfig {
            clip_epsilon: 0.0,
            ..PpoConfig::default()
        }
        .validate()
        .is_err());
        assert!(PpoConfig {
            update_epochs: 0,
            ..PpoConfig::default()
        }
        .validate()
        .is_err());
        assert!(PpoConfig {
            value_coef: -1.0,
            ..PpoConfig::default()
        }
        .validate()
        .is_err());
        assert!(PpoConfig::default().validate().is_ok());
    }
}
