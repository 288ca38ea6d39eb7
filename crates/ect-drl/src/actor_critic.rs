//! The actor-critic network of ECT-DRL (Fig. 10 of the paper).
//!
//! All state inputs are concatenated and fed through a shared fully
//! connected trunk; the actor head emits a softmax distribution over the
//! three battery actions, the critic head a scalar state value.

use ect_env::battery::BpAction;
use ect_nn::layers::{softmax_backward_into, softmax_rows, softmax_rows_into, ActivationKind};
use ect_nn::matrix::Matrix;
use ect_nn::mlp::Mlp;
use ect_nn::param::{Param, Parameterized};
use ect_types::rng::EctRng;
use serde::{Deserialize, Serialize};

/// Network sizes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ActorCriticConfig {
    /// Width of the shared trunk layer(s).
    pub trunk_hidden: Vec<usize>,
    /// Hidden widths of the actor head (before the 3-way output).
    pub actor_hidden: Vec<usize>,
    /// Hidden widths of the critic head (before the scalar output).
    pub critic_hidden: Vec<usize>,
    /// Initial logit bias of the *idle* action ("safe init"): with 2.0 the
    /// untrained policy idles ~75 % of the time instead of thrashing the
    /// battery randomly, so early training starts from the do-no-harm
    /// baseline. Set 0.0 for a uniform initial policy (ablation).
    pub idle_bias: f64,
}

impl Default for ActorCriticConfig {
    fn default() -> Self {
        Self {
            trunk_hidden: vec![64],
            actor_hidden: vec![32],
            critic_hidden: vec![32],
            idle_bias: 2.0,
        }
    }
}

/// Actor-critic with a shared trunk.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ActorCritic {
    trunk: Mlp,
    actor: Mlp,
    critic: Mlp,
    state_dim: usize,
    #[serde(skip)]
    work: Workspace,
}

/// Buffers reused across training passes of an [`ActorCritic`].
#[derive(Debug, Clone, Default)]
struct Workspace {
    /// Action probabilities of the last training forward pass.
    probs: Matrix,
    /// `true` between a training forward pass and its backward pass.
    forward_pending: bool,
    /// `dL/dlogits`; once the actor has consumed it, the critic's share of
    /// `dL/dfeatures`.
    grad_head: Matrix,
    /// `dL/dfeatures`, summed over both heads.
    grad_features: Matrix,
}

impl ActorCritic {
    /// Number of discrete actions (charge / discharge / idle).
    pub const NUM_ACTIONS: usize = 3;

    /// Creates a network for the given observation dimension.
    ///
    /// # Panics
    ///
    /// Panics if `state_dim` is zero or the trunk is configured empty.
    pub fn new(state_dim: usize, config: &ActorCriticConfig, rng: &mut EctRng) -> Self {
        assert!(state_dim > 0, "state dimension must be positive");
        assert!(
            !config.trunk_hidden.is_empty(),
            "trunk needs at least one layer"
        );
        let mut trunk_widths = vec![state_dim];
        trunk_widths.extend_from_slice(&config.trunk_hidden);
        let trunk_out = *trunk_widths.last().expect("trunk widths");

        let mut actor_widths = vec![trunk_out];
        actor_widths.extend_from_slice(&config.actor_hidden);
        actor_widths.push(Self::NUM_ACTIONS);

        let mut critic_widths = vec![trunk_out];
        critic_widths.extend_from_slice(&config.critic_hidden);
        critic_widths.push(1);

        let mut actor = Mlp::new(&actor_widths, ActivationKind::Tanh, rng);
        if config.idle_bias != 0.0 {
            actor.set_output_bias(BpAction::Idle.index(), config.idle_bias);
        }

        Self {
            trunk: Mlp::new(&trunk_widths, ActivationKind::Tanh, rng)
                .with_output_activation(ActivationKind::Tanh),
            actor,
            critic: Mlp::new(&critic_widths, ActivationKind::Tanh, rng),
            state_dim,
            work: Workspace::default(),
        }
    }

    /// Observation dimension this network expects.
    pub fn state_dim(&self) -> usize {
        self.state_dim
    }

    /// Training-mode forward pass: `(action probs n×3, values n×1)`.
    ///
    /// # Panics
    ///
    /// Panics if the state width mismatches.
    pub fn forward(&mut self, states: &Matrix) -> (Matrix, Matrix) {
        let (probs, values) = self.forward_ref(states);
        (probs.clone(), values.clone())
    }

    /// [`ActorCritic::forward`] computed in the network's reused buffers;
    /// returns views of `(action probs, values)`.
    ///
    /// # Panics
    ///
    /// Panics if the state width mismatches.
    pub fn forward_ref(&mut self, states: &Matrix) -> (&Matrix, &Matrix) {
        assert_eq!(states.cols(), self.state_dim, "state width mismatch");
        let features = self.trunk.forward_ref(states);
        let logits = self.actor.forward_ref(features);
        softmax_rows_into(logits, &mut self.work.probs);
        let values = self.critic.forward_ref(features);
        self.work.forward_pending = true;
        (&self.work.probs, values)
    }

    /// Inference-mode forward pass.
    ///
    /// # Panics
    ///
    /// Panics if the state width mismatches.
    pub fn infer(&self, states: &Matrix) -> (Matrix, Matrix) {
        assert_eq!(states.cols(), self.state_dim, "state width mismatch");
        let features = self.trunk.infer(states);
        let probs = softmax_rows(&self.actor.infer(&features));
        let values = self.critic.infer(&features);
        (probs, values)
    }

    /// Action probabilities and value for one state.
    ///
    /// The state is copied once into a `1 × d` row; the layers then pass
    /// their activations along without further copies of the input.
    pub fn evaluate_one(&self, state: &[f64]) -> ([f64; 3], f64) {
        let m = Matrix::row_vector(state);
        let (p, v) = self.infer(&m);
        ([p[(0, 0)], p[(0, 1)], p[(0, 2)]], v[(0, 0)])
    }

    /// Samples an action from the policy; returns `(action, prob_of_action,
    /// value)`.
    pub fn sample_action(&self, state: &[f64], rng: &mut EctRng) -> (BpAction, f64, f64) {
        let (probs, value) = self.evaluate_one(state);
        let idx = rng.categorical(&probs);
        (BpAction::from_index(idx), probs[idx], value)
    }

    /// Greedy (argmax) action for evaluation.
    pub fn greedy_action(&self, state: &[f64]) -> BpAction {
        let (probs, _) = self.evaluate_one(state);
        let idx = (0..3)
            .max_by(|&a, &b| probs[a].total_cmp(&probs[b]))
            .expect("three actions");
        BpAction::from_index(idx)
    }

    /// Backward pass from `dL/dprobs` and `dL/dvalues`.
    ///
    /// # Panics
    ///
    /// Panics if called before [`ActorCritic::forward`].
    pub fn backward(&mut self, grad_probs: &Matrix, grad_values: &Matrix) {
        let work = &mut self.work;
        assert!(
            std::mem::take(&mut work.forward_pending),
            "backward before forward"
        );
        softmax_backward_into(&work.probs, grad_probs, &mut work.grad_head);
        self.actor
            .backward_into(&work.grad_head, &mut work.grad_features);
        self.critic.backward_into(grad_values, &mut work.grad_head);
        work.grad_features.add_assign(&work.grad_head);
        // Nothing reads dL/dstates, so the trunk skips its input gradient.
        self.trunk.backward_params(&work.grad_features);
    }
}

impl Parameterized for ActorCritic {
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.trunk.for_each_param(f);
        self.actor.for_each_param(f);
        self.critic.for_each_param(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ect_nn::gradcheck::finite_difference;

    fn net() -> ActorCritic {
        let mut rng = EctRng::seed_from(41);
        ActorCritic::new(
            6,
            &ActorCriticConfig {
                trunk_hidden: vec![8],
                actor_hidden: vec![6],
                critic_hidden: vec![6],
                idle_bias: 0.0,
            },
            &mut rng,
        )
    }

    #[test]
    fn outputs_have_correct_shapes() {
        let mut n = net();
        let states = Matrix::zeros(5, 6);
        let (p, v) = n.forward(&states);
        assert_eq!(p.shape(), (5, 3));
        assert_eq!(v.shape(), (5, 1));
        for r in 0..5 {
            assert!((p.row(r).iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn infer_matches_forward() {
        let mut n = net();
        let s = Matrix::from_rows(&[&[0.1, -0.4, 0.9, 0.0, 0.5, -0.2]]);
        let (p1, v1) = n.forward(&s);
        let (p2, v2) = n.infer(&s);
        assert!(p1.sub(&p2).max_abs() < 1e-12);
        assert!(v1.sub(&v2).max_abs() < 1e-12);
    }

    #[test]
    fn sampling_respects_probabilities() {
        let n = net();
        let mut rng = EctRng::seed_from(42);
        let state = vec![0.2; 6];
        let (probs, _) = n.evaluate_one(&state);
        let mut counts = [0usize; 3];
        for _ in 0..9000 {
            let (a, p, _) = n.sample_action(&state, &mut rng);
            counts[a.index()] += 1;
            assert!((p - probs[a.index()]).abs() < 1e-12);
        }
        for i in 0..3 {
            let freq = counts[i] as f64 / 9000.0;
            assert!(
                (freq - probs[i]).abs() < 0.03,
                "action {i}: {freq} vs {}",
                probs[i]
            );
        }
    }

    #[test]
    fn greedy_picks_the_argmax() {
        let n = net();
        let state = vec![0.7; 6];
        let (probs, _) = n.evaluate_one(&state);
        let best = (0..3)
            .max_by(|&a, &b| probs[a].total_cmp(&probs[b]))
            .unwrap();
        assert_eq!(n.greedy_action(&state).index(), best);
    }

    #[test]
    fn joint_gradients_match_finite_difference() {
        let mut n = net();
        let states = Matrix::from_rows(&[
            &[0.1, -0.2, 0.3, 0.4, -0.5, 0.6],
            &[0.9, 0.8, -0.7, 0.6, 0.5, -0.4],
        ]);
        // A made-up differentiable loss touching both heads:
        // L = Σ w·probs + Σ values².
        let w = Matrix::from_rows(&[&[0.3, -0.5, 1.1], &[-0.2, 0.7, 0.4]]);
        let (_probs, values) = n.forward(&states);
        let grad_probs = w.clone();
        let grad_values = values.map(|v| 2.0 * v);
        n.backward(&grad_probs, &grad_values);

        let err = finite_difference(
            &mut n,
            |model| {
                let (p, v) = model.infer(&states);
                p.hadamard(&w).sum() + v.as_slice().iter().map(|x| x * x).sum::<f64>()
            },
            1e-6,
        );
        assert!(err < 1e-5, "max grad error {err}");
    }

    #[test]
    #[should_panic(expected = "state width mismatch")]
    fn rejects_wrong_state_width() {
        let mut n = net();
        let _ = n.forward(&Matrix::zeros(1, 5));
    }

    #[test]
    fn idle_bias_makes_idle_the_initial_default() {
        let mut rng = EctRng::seed_from(43);
        let n = ActorCritic::new(
            6,
            &ActorCriticConfig {
                idle_bias: 2.0,
                ..ActorCriticConfig::default()
            },
            &mut rng,
        );
        // Averaged over many random states, the untrained policy should put
        // most of its mass on Idle.
        let mut idle_mass = 0.0;
        for _ in 0..200 {
            let state: Vec<f64> = (0..6).map(|_| rng.normal(0.0, 0.5)).collect();
            let (p, _) = n.evaluate_one(&state);
            idle_mass += p[BpAction::Idle.index()];
        }
        idle_mass /= 200.0;
        assert!(idle_mass > 0.6, "idle mass {idle_mass}");
    }
}
