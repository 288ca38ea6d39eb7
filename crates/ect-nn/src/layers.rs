//! Layers with explicit forward/backward passes.
//!
//! The workspace trains three model families (NCF ratings, the CF-MTL
//! ECT-Price network and the PPO actor-critic); all are compositions of
//! [`Linear`], [`Activation`] and [`Embedding`] layers. Each layer caches
//! what its backward pass needs, so the calling convention is always
//! `forward(...)` then at most one `backward(...)`. Caches and scratch
//! buffers keep their allocations from one call to the next, so a training
//! loop over same-sized minibatches stops allocating after its first step.

use crate::matrix::Matrix;
use crate::param::{Param, Parameterized};
use crate::tanh::tanh_in_place;
use ect_types::rng::EctRng;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// Fully connected layer `y = x W + b`.
///
/// `x` is `batch × in_dim`, `W` is `in_dim × out_dim`, `b` is `1 × out_dim`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Linear {
    weight: Param,
    bias: Param,
    #[serde(skip)]
    cached_input: Option<Matrix>,
}

thread_local! {
    /// A backward pass's `dW` and `db` before they are accumulated: one
    /// buffer per thread, so backward passes allocate nothing once it has
    /// grown.
    static GRAD_SCRATCH: RefCell<Matrix> = const { RefCell::new(Matrix::empty()) };
}

impl Linear {
    /// Creates a layer with Xavier-initialised weights and zero bias.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut EctRng) -> Self {
        Self {
            weight: Param::xavier(in_dim, out_dim, rng),
            bias: Param::zeros(1, out_dim),
            cached_input: None,
        }
    }

    /// Creates a layer with He-initialised weights (preferred before ReLU).
    pub fn kaiming(in_dim: usize, out_dim: usize, rng: &mut EctRng) -> Self {
        Self {
            weight: Param::kaiming(in_dim, out_dim, rng),
            bias: Param::zeros(1, out_dim),
            cached_input: None,
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.weight.value.rows()
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.weight.value.cols()
    }

    /// Read-only view of the weights (for tests/inspection).
    pub fn weight(&self) -> &Matrix {
        &self.weight.value
    }

    /// Overrides one bias entry. Used for output-prior initialisation, e.g.
    /// biasing a policy head toward a safe default action.
    ///
    /// # Panics
    ///
    /// Panics if `output >= out_dim`.
    pub fn set_bias(&mut self, output: usize, value: f64) {
        assert!(output < self.out_dim(), "bias index {output} out of range");
        self.bias.value[(0, output)] = value;
    }

    /// Forward pass; caches the input for the backward pass (the cache
    /// keeps its allocation across calls).
    pub fn forward(&mut self, input: &Matrix) -> Matrix {
        let out = self.infer(input);
        self.cached_input
            .get_or_insert_with(Matrix::empty)
            .copy_from(input);
        out
    }

    /// Forward pass without caching (inference only).
    pub fn infer(&self, input: &Matrix) -> Matrix {
        let mut out = Matrix::empty();
        self.infer_into(input, &mut out);
        out
    }

    /// [`Linear::infer`] written into `out`, reusing its allocation.
    pub(crate) fn infer_into(&self, input: &Matrix, out: &mut Matrix) {
        input.matmul_into(&self.weight.value, out);
        out.add_row_broadcast(&self.bias.value);
    }

    /// Backward pass: accumulates `dW`, `db` and returns `dL/dx`.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Linear::forward`].
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let input = self
            .cached_input
            .take()
            .expect("Linear::backward before forward");
        let mut grad_in = Matrix::empty();
        self.backward_with(&input, grad_out, &mut grad_in);
        self.cached_input = Some(input);
        grad_in
    }

    /// Backward pass against an explicitly supplied forward `input`, for
    /// containers that keep the activations themselves (such as
    /// [`crate::mlp::Mlp`]): accumulates `dW`, `db` and writes `dL/dx` into
    /// `grad_in`, reusing its allocation.
    pub(crate) fn backward_with(
        &mut self,
        input: &Matrix,
        grad_out: &Matrix,
        grad_in: &mut Matrix,
    ) {
        self.backward_params_with(input, grad_out);
        // dX = dY · Wᵀ
        grad_out.matmul_transpose_into(&self.weight.value, grad_in);
    }

    /// Parameters-only [`Linear::backward_with`]: accumulates `dW` and `db`
    /// bit for bit as the full pass does, but skips `dL/dx`. For a
    /// network's first layer, whose input gradient nobody reads, this drops
    /// the costliest product of the backward pass.
    pub(crate) fn backward_params_with(&mut self, input: &Matrix, grad_out: &Matrix) {
        GRAD_SCRATCH.with_borrow_mut(|scratch| {
            // dW = xᵀ · dY
            input.transpose_matmul_into(grad_out, scratch);
            self.weight.grad.add_assign(scratch);
            // db = column sums of dY
            grad_out.col_sum_into(scratch);
            self.bias.grad.add_assign(scratch);
        });
    }
}

impl Parameterized for Linear {
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

/// Supported element-wise nonlinearities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ActivationKind {
    /// `max(0, x)`.
    Relu,
    /// Logistic sigmoid `1 / (1 + e^{-x})`.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

/// Stateless nonlinearity with cached outputs for the backward pass.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Activation {
    kind: ActivationKind,
    #[serde(skip)]
    cached_output: Option<Matrix>,
}

impl Activation {
    /// Creates an activation layer.
    pub fn new(kind: ActivationKind) -> Self {
        Self {
            kind,
            cached_output: None,
        }
    }

    /// Which nonlinearity this layer applies.
    pub fn kind(&self) -> ActivationKind {
        self.kind
    }

    /// Derivative expressed in terms of the *output* value `y`.
    fn derivative_from_output(kind: ActivationKind, y: f64) -> f64 {
        match kind {
            ActivationKind::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            ActivationKind::Sigmoid => y * (1.0 - y),
            ActivationKind::Tanh => 1.0 - y * y,
        }
    }

    /// Forward pass; caches the output (the cache keeps its allocation
    /// across calls).
    pub fn forward(&mut self, input: &Matrix) -> Matrix {
        let out = self.infer(input);
        self.cached_output
            .get_or_insert_with(Matrix::empty)
            .copy_from(&out);
        out
    }

    /// Forward pass without caching (inference only).
    pub fn infer(&self, input: &Matrix) -> Matrix {
        let mut out = Matrix::empty();
        self.infer_into(input, &mut out);
        out
    }

    /// [`Activation::infer`] written into `out`, reusing its allocation.
    pub(crate) fn infer_into(&self, input: &Matrix, out: &mut Matrix) {
        out.copy_from(input);
        self.apply_in_place(out);
    }

    /// Applies the nonlinearity to `values` in place (inference only).
    /// `Tanh` runs the vectorised port in [`crate::tanh`], bit-identical to
    /// glibc's `tanh` on every CPU.
    pub(crate) fn apply_in_place(&self, values: &mut Matrix) {
        match self.kind {
            ActivationKind::Relu => values.map_inplace(|x| x.max(0.0)),
            ActivationKind::Sigmoid => values.map_inplace(|x| 1.0 / (1.0 + (-x).exp())),
            ActivationKind::Tanh => tanh_in_place(values.as_mut_slice()),
        }
    }

    /// Backward pass.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Activation::forward`].
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let out = self
            .cached_output
            .as_ref()
            .expect("Activation::backward before forward");
        let mut grad_in = Matrix::empty();
        self.backward_with(out, grad_out, &mut grad_in);
        grad_in
    }

    /// Backward pass against an explicitly supplied forward `output`,
    /// written into `grad_in` (reusing its allocation).
    ///
    /// # Panics
    ///
    /// Panics on a shape mismatch.
    pub(crate) fn backward_with(&self, output: &Matrix, grad_out: &Matrix, grad_in: &mut Matrix) {
        assert_eq!(
            grad_out.shape(),
            output.shape(),
            "activation gradient shape"
        );
        grad_in.resize(output.rows(), output.cols());
        let g_y = grad_out.as_slice().iter().zip(output.as_slice());
        for (gi, (&g, &y)) in grad_in.as_mut_slice().iter_mut().zip(g_y) {
            *gi = g * Self::derivative_from_output(self.kind, y);
        }
    }
}

/// Lookup-table layer mapping integer ids to dense vectors.
///
/// Used for station and time-slot features in the NCF and CF-MTL models
/// (Fig. 9 of the paper).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Embedding {
    table: Param,
    #[serde(skip)]
    cached_indices: Option<Vec<usize>>,
}

impl Embedding {
    /// Creates a `vocab × dim` embedding with small-normal initialisation
    /// (std 0.1).
    pub fn new(vocab: usize, dim: usize, rng: &mut EctRng) -> Self {
        Self::with_std(vocab, dim, 0.1, rng)
    }

    /// Creates a `vocab × dim` embedding with the given init std. Larger
    /// scales (≈0.5) make id-conditioned signal visible to downstream layers
    /// from the first steps, which matters for short training budgets.
    pub fn with_std(vocab: usize, dim: usize, std: f64, rng: &mut EctRng) -> Self {
        Self {
            table: Param::small_normal(vocab, dim, std, rng),
            cached_indices: None,
        }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.table.value.rows()
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.table.value.cols()
    }

    /// Looks up a batch of ids, producing `batch × dim`; caches indices.
    ///
    /// # Panics
    ///
    /// Panics if any id is out of vocabulary.
    pub fn forward(&mut self, indices: &[usize]) -> Matrix {
        let out = self.lookup(indices);
        self.cached_indices = Some(indices.to_vec());
        out
    }

    /// Lookup without caching (inference only).
    ///
    /// # Panics
    ///
    /// Panics if any id is out of vocabulary.
    pub fn infer(&self, indices: &[usize]) -> Matrix {
        self.lookup(indices)
    }

    fn lookup(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.dim());
        for (row, &id) in indices.iter().enumerate() {
            assert!(
                id < self.vocab(),
                "embedding id {id} out of vocab {}",
                self.vocab()
            );
            out.row_mut(row).copy_from_slice(self.table.value.row(id));
        }
        out
    }

    /// Backward pass: scatters `grad_out` rows into the table gradient.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Embedding::forward`] or with a gradient of
    /// the wrong batch size.
    pub fn backward(&mut self, grad_out: &Matrix) {
        let indices = self
            .cached_indices
            .as_ref()
            .expect("Embedding::backward before forward");
        assert_eq!(
            grad_out.rows(),
            indices.len(),
            "embedding grad batch mismatch"
        );
        for (row, &id) in indices.iter().enumerate() {
            let g = grad_out.row(row);
            let dst = self.table.grad.row_mut(id);
            for (d, &v) in dst.iter_mut().zip(g) {
                *d += v;
            }
        }
    }
}

impl Parameterized for Embedding {
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.table);
    }
}

/// Row-wise softmax (each row becomes a probability distribution).
///
/// Numerically stabilised by subtracting the row max before exponentiation.
pub fn softmax_rows(logits: &Matrix) -> Matrix {
    let mut out = Matrix::empty();
    softmax_rows_into(logits, &mut out);
    out
}

/// [`softmax_rows`] written into `out`, reusing its allocation.
pub fn softmax_rows_into(logits: &Matrix, out: &mut Matrix) {
    out.resize(logits.rows(), logits.cols());
    for r in 0..logits.rows() {
        let row = logits.row(r);
        let max = row.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v));
        let mut sum = 0.0;
        let out_row = out.row_mut(r);
        for (o, &v) in out_row.iter_mut().zip(row) {
            let e = (v - max).exp();
            *o = e;
            sum += e;
        }
        for o in out_row.iter_mut() {
            *o /= sum;
        }
    }
}

/// Backward pass through a row-wise softmax.
///
/// Given `probs = softmax(logits)` and `dL/dprobs`, computes `dL/dlogits`
/// using `dL/dz_i = p_i (g_i − Σ_j g_j p_j)`.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn softmax_backward(probs: &Matrix, grad_probs: &Matrix) -> Matrix {
    let mut out = Matrix::empty();
    softmax_backward_into(probs, grad_probs, &mut out);
    out
}

/// [`softmax_backward`] written into `out`, reusing its allocation.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn softmax_backward_into(probs: &Matrix, grad_probs: &Matrix, out: &mut Matrix) {
    assert_eq!(probs.shape(), grad_probs.shape(), "softmax_backward shapes");
    out.resize(probs.rows(), probs.cols());
    for r in 0..probs.rows() {
        let p = probs.row(r);
        let g = grad_probs.row(r);
        let dot: f64 = p.iter().zip(g).map(|(&pi, &gi)| pi * gi).sum();
        for ((o, &pi), &gi) in out.row_mut(r).iter_mut().zip(p).zip(g) {
            *o = pi * (gi - dot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::finite_difference;
    use proptest::prelude::*;

    #[test]
    fn linear_forward_matches_manual() {
        let mut rng = EctRng::seed_from(1);
        let mut l = Linear::new(2, 2, &mut rng);
        let x = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let y = l.forward(&x);
        // With identity-ish inputs, y rows are the weight rows plus bias (0).
        assert_eq!(y.row(0), l.weight().row(0));
        assert_eq!(y.row(1), l.weight().row(1));
        assert_eq!(l.infer(&x), y);
    }

    #[test]
    fn linear_gradients_match_finite_difference() {
        let mut rng = EctRng::seed_from(2);
        let mut l = Linear::new(3, 2, &mut rng);
        let x = Matrix::from_rows(&[&[0.5, -1.0, 2.0], &[1.5, 0.3, -0.7]]);
        // Loss = sum(y); then dL/dy = ones.
        let y = l.forward(&x);
        let ones = Matrix::filled(y.rows(), y.cols(), 1.0);
        let grad_x = l.backward(&ones);

        let max_err = finite_difference(&mut l, |layer| layer.infer(&x).sum(), 1e-6);
        assert!(max_err < 1e-5, "param grad error {max_err}");

        // dL/dx for sum loss is row-sum of Wᵀ: each input grad row = W · 1.
        for r in 0..2 {
            for c in 0..3 {
                let expect: f64 = (0..2).map(|j| l.weight()[(c, j)]).sum();
                assert!((grad_x[(r, c)] - expect).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn activation_values() {
        let x = Matrix::from_rows(&[&[-1.0, 0.0, 2.0]]);
        let mut relu = Activation::new(ActivationKind::Relu);
        assert_eq!(relu.forward(&x), Matrix::from_rows(&[&[0.0, 0.0, 2.0]]));
        let mut sig = Activation::new(ActivationKind::Sigmoid);
        let s = sig.forward(&x);
        assert!((s[(0, 1)] - 0.5).abs() < 1e-12);
        let mut tanh = Activation::new(ActivationKind::Tanh);
        let t = tanh.forward(&x);
        assert!((t[(0, 2)] - 0.964_027_580_075_816_9).abs() < 1e-15);
    }

    #[test]
    fn activation_backward_matches_numeric_derivative() {
        for kind in [
            ActivationKind::Relu,
            ActivationKind::Sigmoid,
            ActivationKind::Tanh,
        ] {
            let mut act = Activation::new(kind);
            let x = Matrix::from_rows(&[&[0.7, -0.3, 1.9]]);
            let _ = act.forward(&x);
            let g = act.backward(&Matrix::filled(1, 3, 1.0));
            let eps = 1e-6;
            for c in 0..3 {
                let mut xp = x.clone();
                xp[(0, c)] += eps;
                let mut xm = x.clone();
                xm[(0, c)] -= eps;
                let num = (act.infer(&xp).sum() - act.infer(&xm).sum()) / (2.0 * eps);
                assert!(
                    (g[(0, c)] - num).abs() < 1e-6,
                    "{kind:?} col {c}: {} vs {num}",
                    g[(0, c)]
                );
            }
        }
    }

    #[test]
    fn embedding_lookup_and_scatter() {
        let mut rng = EctRng::seed_from(3);
        let mut emb = Embedding::new(5, 3, &mut rng);
        let out = emb.forward(&[1, 1, 4]);
        assert_eq!(out.row(0), out.row(1));
        let mut grad = Matrix::zeros(3, 3);
        grad.row_mut(0).copy_from_slice(&[1.0, 0.0, 0.0]);
        grad.row_mut(1).copy_from_slice(&[1.0, 0.0, 0.0]);
        grad.row_mut(2).copy_from_slice(&[0.0, 2.0, 0.0]);
        emb.backward(&grad);
        let mut table_grad = Matrix::zeros(5, 3);
        emb.for_each_param(&mut |p| table_grad = p.grad.clone());
        // Row 1 was used twice: gradients accumulate.
        assert_eq!(table_grad.row(1), &[2.0, 0.0, 0.0]);
        assert_eq!(table_grad.row(4), &[0.0, 2.0, 0.0]);
        assert_eq!(table_grad.row(0), &[0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of vocab")]
    fn embedding_rejects_oov() {
        let mut rng = EctRng::seed_from(4);
        let mut emb = Embedding::new(3, 2, &mut rng);
        let _ = emb.forward(&[3]);
    }

    #[test]
    fn softmax_rows_are_distributions() {
        let logits = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[-5.0, 0.0, 5.0]]);
        let p = softmax_rows(&logits);
        for r in 0..2 {
            let s: f64 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
            assert!(p.row(r).iter().all(|&v| v > 0.0));
        }
        // Ordering preserved.
        assert!(p[(0, 2)] > p[(0, 1)] && p[(0, 1)] > p[(0, 0)]);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        let b = a.map(|v| v + 100.0);
        let diff = softmax_rows(&a).sub(&softmax_rows(&b)).max_abs();
        assert!(diff < 1e-12);
    }

    #[test]
    fn softmax_backward_matches_finite_difference() {
        let logits = Matrix::from_rows(&[&[0.3, -1.2, 0.8]]);
        let probs = softmax_rows(&logits);
        // Loss: weighted sum of probabilities with fixed weights.
        let w = [0.2, -0.7, 1.3];
        let grad_probs = Matrix::row_vector(&w);
        let analytic = softmax_backward(&probs, &grad_probs);
        let eps = 1e-6;
        for c in 0..3 {
            let mut lp = logits.clone();
            lp[(0, c)] += eps;
            let mut lm = logits.clone();
            lm[(0, c)] -= eps;
            let f = |m: &Matrix| -> f64 {
                softmax_rows(m)
                    .row(0)
                    .iter()
                    .zip(&w)
                    .map(|(&p, &wi)| p * wi)
                    .sum()
            };
            let num = (f(&lp) - f(&lm)) / (2.0 * eps);
            assert!((analytic[(0, c)] - num).abs() < 1e-6);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn softmax_always_sums_to_one(vals in proptest::collection::vec(-20.0f64..20.0, 2..8)) {
            let m = Matrix::row_vector(&vals);
            let p = softmax_rows(&m);
            let s: f64 = p.row(0).iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-9);
        }

        #[test]
        fn relu_output_non_negative(vals in proptest::collection::vec(-5.0f64..5.0, 1..16)) {
            let mut act = Activation::new(ActivationKind::Relu);
            let y = act.forward(&Matrix::row_vector(&vals));
            prop_assert!(y.as_slice().iter().all(|&v| v >= 0.0));
        }
    }
}
