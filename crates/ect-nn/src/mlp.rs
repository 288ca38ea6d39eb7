//! Sequential multi-layer perceptron.

use crate::layers::{Activation, ActivationKind, Linear};
use crate::matrix::Matrix;
use crate::param::{Param, Parameterized};
use ect_types::rng::EctRng;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// One stage of a [`Mlp`].
#[derive(Debug, Clone, Serialize, Deserialize)]
enum Stage {
    Linear(Linear),
    Activation(Activation),
}

/// A feed-forward network built from [`Linear`] and [`Activation`] stages.
///
/// # Example
///
/// ```
/// use ect_nn::mlp::Mlp;
/// use ect_nn::layers::ActivationKind;
/// use ect_nn::matrix::Matrix;
/// use ect_types::rng::EctRng;
///
/// let mut rng = EctRng::seed_from(0);
/// let mut net = Mlp::new(&[4, 16, 2], ActivationKind::Relu, &mut rng);
/// let x = Matrix::zeros(3, 4);
/// let y = net.forward(&x);
/// assert_eq!(y.shape(), (3, 2));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    stages: Vec<Stage>,
    in_dim: usize,
    out_dim: usize,
    #[serde(skip)]
    work: MlpWork,
}

/// Activations of a [`Mlp`]'s last training forward pass, kept (with
/// their allocations) for the backward pass and the next minibatch.
#[derive(Debug, Clone, Default)]
struct MlpWork {
    /// Input of the pass.
    input: Matrix,
    /// `outputs[s]` is the output of stage `s`. A linear stage followed by
    /// an activation writes into the activation's slot, which then applies
    /// itself in place; the linear stage's own slot stays empty, as no
    /// backward pass reads a pre-activation.
    outputs: Vec<Matrix>,
}

thread_local! {
    /// Intermediate gradients of a backward pass, which alternates between
    /// the two: one pair per thread, shared by every network on it.
    static GRADS: RefCell<[Matrix; 2]> =
        const { RefCell::new([Matrix::empty(), Matrix::empty()]) };
}

impl Mlp {
    /// Builds an MLP with the given layer widths and hidden activation; the
    /// output layer is linear (no activation).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given.
    pub fn new(widths: &[usize], hidden: ActivationKind, rng: &mut EctRng) -> Self {
        assert!(
            widths.len() >= 2,
            "an MLP needs at least input and output widths"
        );
        let mut stages = Vec::new();
        for i in 0..widths.len() - 1 {
            let layer = if hidden == ActivationKind::Relu {
                Linear::kaiming(widths[i], widths[i + 1], rng)
            } else {
                Linear::new(widths[i], widths[i + 1], rng)
            };
            stages.push(Stage::Linear(layer));
            if i + 2 < widths.len() {
                stages.push(Stage::Activation(Activation::new(hidden)));
            }
        }
        Self {
            stages,
            in_dim: widths[0],
            out_dim: *widths.last().expect("non-empty widths"),
            work: MlpWork::default(),
        }
    }

    /// Appends a final activation (e.g. sigmoid for probability outputs).
    pub fn with_output_activation(mut self, kind: ActivationKind) -> Self {
        self.stages.push(Stage::Activation(Activation::new(kind)));
        self
    }

    /// Overrides one bias entry of the final linear stage (output-prior
    /// initialisation, e.g. biasing a softmax head toward one class).
    ///
    /// # Panics
    ///
    /// Panics if the network has no linear stage or `output` is out of
    /// range.
    pub fn set_output_bias(&mut self, output: usize, value: f64) {
        let last_linear = self
            .stages
            .iter_mut()
            .rev()
            .find_map(|s| match s {
                Stage::Linear(l) => Some(l),
                Stage::Activation(_) => None,
            })
            .expect("MLP without a linear stage");
        last_linear.set_bias(output, value);
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Training-mode forward pass (caches intermediates for backward).
    pub fn forward(&mut self, input: &Matrix) -> Matrix {
        self.forward_ref(input).clone()
    }

    /// [`Mlp::forward`] computed in the network's reused buffers; returns
    /// a view of the output.
    pub fn forward_ref(&mut self, input: &Matrix) -> &Matrix {
        let work = &mut self.work;
        work.input.copy_from(input);
        work.outputs.resize_with(self.stages.len(), Matrix::empty);
        for (s, stage) in self.stages.iter().enumerate() {
            let (done, rest) = work.outputs.split_at_mut(s);
            // Slot `s - 1` holds the previous stage's output (see `MlpWork`).
            let x = done.last().unwrap_or(input);
            match stage {
                Stage::Linear(l) => {
                    let dst = match self.stages.get(s + 1) {
                        Some(Stage::Activation(_)) => 1,
                        _ => 0,
                    };
                    l.infer_into(x, &mut rest[dst]);
                }
                Stage::Activation(a) if s > 0 && matches!(self.stages[s - 1], Stage::Linear(_)) => {
                    a.apply_in_place(&mut rest[0]);
                }
                Stage::Activation(a) => a.infer_into(x, &mut rest[0]),
            }
        }
        work.outputs.last().expect("an MLP has at least one stage")
    }

    /// Inference-mode forward pass (no caches touched).
    pub fn infer(&self, input: &Matrix) -> Matrix {
        // Two buffers trade places stage by stage; the input is never copied.
        let mut x = Matrix::empty();
        let mut y = Matrix::empty();
        for (s, stage) in self.stages.iter().enumerate() {
            let src = if s == 0 { input } else { &x };
            match stage {
                Stage::Linear(l) => l.infer_into(src, &mut y),
                Stage::Activation(a) => a.infer_into(src, &mut y),
            }
            std::mem::swap(&mut x, &mut y);
        }
        x
    }

    /// Backward pass; returns `dL/dinput`.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Mlp::forward`].
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let mut grad_in = Matrix::empty();
        self.backward_into(grad_out, &mut grad_in);
        grad_in
    }

    /// [`Mlp::backward`] with `dL/dinput` written into `grad_in`, reusing
    /// its allocation.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Mlp::forward`].
    pub fn backward_into(&mut self, grad_out: &Matrix, grad_in: &mut Matrix) {
        self.backward_stages(grad_out, Some(grad_in));
    }

    /// Parameters-only backward pass: accumulates every parameter gradient
    /// bit for bit as [`Mlp::backward`] does, but the first (linear) stage
    /// skips `dL/dinput`, the costliest product of the pass. For a network
    /// fed straight from data, whose input gradient nobody reads.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Mlp::forward`].
    pub fn backward_params(&mut self, grad_out: &Matrix) {
        self.backward_stages(grad_out, None);
    }

    /// Walks the stages backwards. Intermediate gradients alternate between
    /// the per-thread [`GRADS`] pair; the first stage writes `dL/dinput`
    /// into `grad_in`, or skips it when there is none.
    fn backward_stages(&mut self, grad_out: &Matrix, mut grad_in: Option<&mut Matrix>) {
        let work = &self.work;
        assert_eq!(
            work.outputs.len(),
            self.stages.len(),
            "Mlp::backward before forward"
        );
        let params_only = grad_in.is_none();
        GRADS.with_borrow_mut(|[even, odd]| {
            let stages = self.stages.iter_mut().enumerate().rev();
            for (t, (s, stage)) in stages.enumerate() {
                let (prev, next) = if t % 2 == 0 {
                    (&*odd, &mut *even)
                } else {
                    (&*even, &mut *odd)
                };
                let g = if t == 0 { grad_out } else { prev };
                let input = if s == 0 {
                    &work.input
                } else {
                    &work.outputs[s - 1]
                };
                let dst = match grad_in.as_deref_mut() {
                    Some(grad_in) if s == 0 => grad_in,
                    _ => next,
                };
                match stage {
                    Stage::Linear(l) if s == 0 && params_only => l.backward_params_with(input, g),
                    Stage::Linear(l) => l.backward_with(input, g, dst),
                    Stage::Activation(a) => a.backward_with(&work.outputs[s], g, dst),
                }
            }
        });
    }
}

impl Parameterized for Mlp {
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for stage in &mut self.stages {
            if let Stage::Linear(l) = stage {
                l.for_each_param(f);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::finite_difference;
    use crate::loss::mse;
    use crate::optim::{Adam, AdamConfig};

    #[test]
    fn shapes_flow_through() {
        let mut rng = EctRng::seed_from(5);
        let mut net = Mlp::new(&[3, 8, 8, 2], ActivationKind::Tanh, &mut rng);
        assert_eq!(net.in_dim(), 3);
        assert_eq!(net.out_dim(), 2);
        let y = net.forward(&Matrix::zeros(7, 3));
        assert_eq!(y.shape(), (7, 2));
    }

    #[test]
    fn infer_matches_forward() {
        let mut rng = EctRng::seed_from(6);
        let mut net = Mlp::new(&[2, 4, 1], ActivationKind::Sigmoid, &mut rng);
        let x = Matrix::from_rows(&[&[0.5, -0.5], &[1.0, 2.0]]);
        assert_eq!(net.forward(&x), net.infer(&x));
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = EctRng::seed_from(7);
        let mut net = Mlp::new(&[3, 5, 2], ActivationKind::Tanh, &mut rng);
        let x = Matrix::from_rows(&[&[0.1, -0.4, 0.9], &[1.2, 0.0, -0.6]]);
        let target = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);

        let pred = net.forward(&x);
        let (_, grad) = mse(&pred, &target);
        net.backward(&grad);

        let err = finite_difference(&mut net, |m| mse(&m.infer(&x), &target).0, 1e-6);
        assert!(err < 1e-5, "max grad error {err}");
    }

    #[test]
    fn params_only_backward_matches_finite_difference_and_full_backward() {
        let mut rng = EctRng::seed_from(12);
        let mut net = Mlp::new(&[4, 6, 3], ActivationKind::Tanh, &mut rng)
            .with_output_activation(ActivationKind::Tanh);
        let x = Matrix::from_rows(&[&[0.3, -0.8, 0.0, 1.1], &[-0.5, 0.2, 0.9, -0.0]]);
        let target = Matrix::from_rows(&[&[0.5, -0.5, 0.0], &[0.0, 0.2, -0.9]]);

        let mut full = net.clone();
        let (_, grad) = mse(&full.forward(&x), &target);
        full.backward(&grad);

        let (_, grad) = mse(&net.forward(&x), &target);
        net.backward_params(&grad);
        let err = finite_difference(&mut net, |m| mse(&m.infer(&x), &target).0, 1e-6);
        assert!(err < 1e-5, "max grad error {err}");

        // Skipping dL/dinput moves no bit of any parameter gradient.
        let mut params_only = Vec::new();
        net.for_each_param(&mut |p| params_only.push(p.grad.clone()));
        let mut i = 0;
        full.for_each_param(&mut |p| {
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&p.grad), bits(&params_only[i]), "param {i}");
            i += 1;
        });
    }

    #[test]
    fn forward_ref_and_infer_agree_bitwise_across_batch_sizes() {
        // Workspaces resize between minibatches without leaking stale rows.
        let mut rng = EctRng::seed_from(13);
        let mut net = Mlp::new(&[3, 7, 7, 2], ActivationKind::Relu, &mut rng);
        for rows in [5, 1, 9, 4] {
            let x = Matrix::from_vec(
                rows,
                3,
                (0..rows * 3).map(|_| rng.normal(0.0, 1.0)).collect(),
            );
            let trained = net.forward_ref(&x).clone();
            assert_eq!(trained, net.infer(&x), "rows {rows}");
        }
    }

    #[test]
    fn gradients_with_output_activation_match_finite_difference() {
        let mut rng = EctRng::seed_from(8);
        let mut net = Mlp::new(&[2, 6, 1], ActivationKind::Relu, &mut rng)
            .with_output_activation(ActivationKind::Sigmoid);
        let x = Matrix::from_rows(&[&[0.4, -1.0], &[0.2, 0.7], &[-0.9, 0.1]]);
        let target = Matrix::from_rows(&[&[1.0], &[0.0], &[1.0]]);

        let pred = net.forward(&x);
        let (_, grad) = mse(&pred, &target);
        net.backward(&grad);

        let err = finite_difference(&mut net, |m| mse(&m.infer(&x), &target).0, 1e-6);
        assert!(err < 1e-5, "max grad error {err}");
    }

    #[test]
    fn can_fit_xor() {
        let mut rng = EctRng::seed_from(9);
        let mut net = Mlp::new(&[2, 8, 1], ActivationKind::Tanh, &mut rng)
            .with_output_activation(ActivationKind::Sigmoid);
        let x = Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
        let y = Matrix::from_rows(&[&[0.0], &[1.0], &[1.0], &[0.0]]);
        let mut opt = Adam::new(AdamConfig {
            learning_rate: 0.05,
            weight_decay: 0.0,
            ..AdamConfig::default()
        });
        let mut final_loss = f64::MAX;
        for _ in 0..800 {
            let pred = net.forward(&x);
            let (loss, grad) = mse(&pred, &y);
            final_loss = loss;
            net.backward(&grad);
            opt.step(&mut net);
        }
        assert!(final_loss < 0.01, "xor loss {final_loss}");
        let pred = net.infer(&x);
        assert!(pred[(0, 0)] < 0.2 && pred[(3, 0)] < 0.2);
        assert!(pred[(1, 0)] > 0.8 && pred[(2, 0)] > 0.8);
    }

    #[test]
    fn param_count_matches_architecture() {
        let mut rng = EctRng::seed_from(10);
        let mut net = Mlp::new(&[3, 5, 2], ActivationKind::Relu, &mut rng);
        // (3*5 + 5) + (5*2 + 2) = 20 + 12
        assert_eq!(net.param_count(), 32);
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn rejects_single_width() {
        let mut rng = EctRng::seed_from(11);
        let _ = Mlp::new(&[3], ActivationKind::Relu, &mut rng);
    }
}
