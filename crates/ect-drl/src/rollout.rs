//! Trajectory storage and advantage estimation.

use serde::{Deserialize, Serialize};

/// One collected transition.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Transition {
    /// Observation before acting.
    pub state: Vec<f64>,
    /// Index of the action taken.
    pub action: usize,
    /// Probability the behaviour policy assigned to that action
    /// (`π_old(a|s)` of Eq. 26).
    pub action_prob: f64,
    /// Reward received.
    pub reward: f64,
    /// Critic value estimate at the state.
    pub value: f64,
    /// Whether the episode ended after this transition.
    pub done: bool,
}

/// A buffer of transitions from one or more episodes.
#[derive(Debug, Clone, Default)]
pub struct RolloutBuffer {
    transitions: Vec<Transition>,
}

impl RolloutBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a transition.
    pub fn push(&mut self, t: Transition) {
        self.transitions.push(t);
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.transitions.len()
    }

    /// `true` when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.transitions.is_empty()
    }

    /// Clears the buffer, keeping its allocation.
    pub fn clear(&mut self) {
        self.transitions.clear();
    }

    /// Stored transitions.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Generalised advantage estimation (GAE-λ).
    ///
    /// Returns `(advantages, returns)` where `returns[i] = advantages[i] +
    /// values[i]` is the critic regression target. Episode boundaries
    /// (`done`) reset the recursion, so multi-episode buffers are safe.
    ///
    /// # Errors
    ///
    /// Returns [`ect_types::EctError::InsufficientData`] on an empty buffer
    /// and [`ect_types::EctError::InvalidConfig`] for `gamma` or `lambda`
    /// outside `[0, 1]`.
    pub fn gae(&self, gamma: f64, lambda: f64) -> ect_types::Result<(Vec<f64>, Vec<f64>)> {
        if self.is_empty() {
            return Err(ect_types::EctError::InsufficientData(
                "gae on empty buffer".into(),
            ));
        }
        for (name, v) in [("gamma", gamma), ("lambda", lambda)] {
            if !(0.0..=1.0).contains(&v) {
                return Err(ect_types::EctError::InvalidConfig(format!(
                    "{name} {v} outside [0, 1]"
                )));
            }
        }
        let n = self.transitions.len();
        let mut advantages = vec![0.0; n];
        let mut gae = 0.0;
        for i in (0..n).rev() {
            let t = &self.transitions[i];
            let (next_value, next_mask) = if t.done {
                (0.0, 0.0)
            } else if i + 1 < n {
                (self.transitions[i + 1].value, 1.0)
            } else {
                // Buffer truncated mid-episode: bootstrap with own value
                // (equivalent to assuming the critic is right).
                (t.value, 1.0)
            };
            let delta = t.reward + gamma * next_value * next_mask - t.value;
            gae = delta + gamma * lambda * next_mask * gae;
            advantages[i] = gae;
        }
        let returns: Vec<f64> = advantages
            .iter()
            .zip(&self.transitions)
            .map(|(a, t)| a + t.value)
            .collect();
        Ok((advantages, returns))
    }

    /// Mean-zero, unit-variance normalisation of advantages (a standard PPO
    /// stabilisation; degenerate inputs are left centred only).
    pub fn normalise(advantages: &mut [f64]) {
        if advantages.is_empty() {
            return;
        }
        let n = advantages.len() as f64;
        let mean = advantages.iter().sum::<f64>() / n;
        let var = advantages.iter().map(|a| (a - mean).powi(2)).sum::<f64>() / n;
        let std = var.sqrt();
        for a in advantages.iter_mut() {
            *a -= mean;
            if std > 1e-8 {
                *a /= std;
            }
        }
    }

    /// Sum of rewards currently stored.
    pub fn total_reward(&self) -> f64 {
        self.transitions.iter().map(|t| t.reward).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn transition(reward: f64, value: f64, done: bool) -> Transition {
        Transition {
            state: vec![0.0],
            action: 0,
            action_prob: 1.0 / 3.0,
            reward,
            value,
            done,
        }
    }

    #[test]
    fn gae_with_lambda_one_is_discounted_return_minus_value() {
        // γ = 1, λ = 1, values = 0: advantage = sum of future rewards.
        let mut buf = RolloutBuffer::new();
        for (i, r) in [1.0, 2.0, 3.0].iter().enumerate() {
            buf.push(transition(*r, 0.0, i == 2));
        }
        let (adv, ret) = buf.gae(1.0, 1.0).unwrap();
        assert_eq!(adv, vec![6.0, 5.0, 3.0]);
        assert_eq!(ret, adv); // values are zero
    }

    #[test]
    fn gae_resets_at_episode_boundaries() {
        let mut buf = RolloutBuffer::new();
        buf.push(transition(1.0, 0.0, true)); // episode 1
        buf.push(transition(5.0, 0.0, true)); // episode 2
        let (adv, _) = buf.gae(0.99, 0.95).unwrap();
        assert_eq!(adv, vec![1.0, 5.0]);
    }

    #[test]
    fn gae_discounts_future() {
        let mut buf = RolloutBuffer::new();
        buf.push(transition(0.0, 0.0, false));
        buf.push(transition(10.0, 0.0, true));
        let (adv, _) = buf.gae(0.5, 1.0).unwrap();
        assert_eq!(adv[0], 5.0);
        assert_eq!(adv[1], 10.0);
    }

    #[test]
    fn perfect_critic_gives_zero_advantage() {
        // If values exactly equal discounted returns, deltas vanish.
        let mut buf = RolloutBuffer::new();
        buf.push(transition(1.0, 3.0, false)); // return: 1 + 2 = 3... with γ=1
        buf.push(transition(2.0, 2.0, true));
        let (adv, ret) = buf.gae(1.0, 1.0).unwrap();
        assert!(adv.iter().all(|a| a.abs() < 1e-12), "{adv:?}");
        assert_eq!(ret, vec![3.0, 2.0]);
    }

    #[test]
    fn normalisation_standardises() {
        let mut adv = vec![1.0, 2.0, 3.0, 4.0];
        RolloutBuffer::normalise(&mut adv);
        let mean: f64 = adv.iter().sum::<f64>() / 4.0;
        let var: f64 = adv.iter().map(|a| (a - mean).powi(2)).sum::<f64>() / 4.0;
        assert!(mean.abs() < 1e-12);
        assert!((var - 1.0).abs() < 1e-9);
        // Degenerate: all equal stays finite.
        let mut flat = vec![2.0, 2.0];
        RolloutBuffer::normalise(&mut flat);
        assert!(flat.iter().all(|a| a.abs() < 1e-12));
    }

    #[test]
    fn bookkeeping_helpers() {
        let mut buf = RolloutBuffer::new();
        assert!(buf.is_empty());
        buf.push(transition(2.5, 0.0, false));
        buf.push(transition(-1.0, 0.0, true));
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.total_reward(), 1.5);
        buf.clear();
        assert!(buf.is_empty());
    }

    #[test]
    fn gae_rejects_empty() {
        let err = RolloutBuffer::new().gae(0.99, 0.95).unwrap_err();
        assert!(
            matches!(err, ect_types::EctError::InsufficientData(_)),
            "unexpected error {err:?}"
        );
    }

    #[test]
    fn gae_rejects_out_of_range_parameters() {
        let mut buf = RolloutBuffer::new();
        buf.push(transition(1.0, 0.0, true));
        for (gamma, lambda) in [(1.5, 0.95), (0.99, -0.1), (f64::NAN, 0.95)] {
            let err = buf.gae(gamma, lambda).unwrap_err();
            assert!(
                matches!(err, ect_types::EctError::InvalidConfig(_)),
                "unexpected error {err:?}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn returns_equal_advantage_plus_value(
            rewards in proptest::collection::vec(-5.0f64..5.0, 1..50),
            gamma in 0.5f64..1.0,
            lambda in 0.5f64..1.0,
        ) {
            let mut buf = RolloutBuffer::new();
            let n = rewards.len();
            for (i, r) in rewards.iter().enumerate() {
                buf.push(transition(*r, r * 0.5, i == n - 1));
            }
            let (adv, ret) = buf.gae(gamma, lambda).unwrap();
            for i in 0..n {
                prop_assert!((ret[i] - adv[i] - buf.transitions()[i].value).abs() < 1e-9);
            }
        }
    }
}
