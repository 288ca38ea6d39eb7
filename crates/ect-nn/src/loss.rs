//! Scalar losses with analytic gradients.

use crate::matrix::Matrix;

/// Mean-squared-error loss.
///
/// Returns `(loss, dL/dpred)` where the loss is averaged over all elements,
/// matching the paper's `L(·,·)` "average MSE loss over all pairs" (Eq. 18).
///
/// # Panics
///
/// Panics on shape mismatch or empty inputs.
pub fn mse(pred: &Matrix, target: &Matrix) -> (f64, Matrix) {
    let mut grad = Matrix::default();
    let loss = mse_into(pred, target, &mut grad);
    (loss, grad)
}

/// [`mse`] with `dL/dpred` written into `grad`, reusing its allocation;
/// returns the loss.
///
/// # Panics
///
/// Panics on shape mismatch or empty inputs.
pub fn mse_into(pred: &Matrix, target: &Matrix, grad: &mut Matrix) -> f64 {
    assert_eq!(pred.shape(), target.shape(), "mse shapes");
    assert!(!pred.is_empty(), "mse of empty matrices");
    let n = pred.len() as f64;
    grad.resize(pred.rows(), pred.cols());
    let pairs = pred.as_slice().iter().zip(target.as_slice());
    for (g, (&p, &t)) in grad.as_mut_slice().iter_mut().zip(pairs) {
        *g = p - t;
    }
    let loss = grad.as_slice().iter().map(|d| d * d).sum::<f64>() / n;
    grad.map_inplace(|d| 2.0 * d / n);
    loss
}

/// Binary cross-entropy on probabilities in `(0, 1)`.
///
/// Returns `(loss, dL/dpred)` averaged over all elements. Probabilities are
/// clamped away from {0, 1} for numerical stability.
///
/// # Panics
///
/// Panics on shape mismatch or empty inputs.
pub fn binary_cross_entropy(pred: &Matrix, target: &Matrix) -> (f64, Matrix) {
    assert_eq!(pred.shape(), target.shape(), "bce shapes");
    assert!(!pred.is_empty(), "bce of empty matrices");
    const EPS: f64 = 1e-12;
    let n = pred.len() as f64;
    let mut loss = 0.0;
    let mut grad = Matrix::zeros(pred.rows(), pred.cols());
    for i in 0..pred.len() {
        let p = pred.as_slice()[i].clamp(EPS, 1.0 - EPS);
        let y = target.as_slice()[i];
        loss += -(y * p.ln() + (1.0 - y) * (1.0 - p).ln());
        grad.as_mut_slice()[i] = (p - y) / (p * (1.0 - p)) / n;
    }
    (loss / n, grad)
}

/// Huber (smooth-L1) loss with threshold `delta`.
///
/// Quadratic within `|err| <= delta`, linear outside — used to robustify the
/// critic regression in PPO against reward spikes.
///
/// # Panics
///
/// Panics on shape mismatch, empty inputs or non-positive `delta`.
pub fn huber(pred: &Matrix, target: &Matrix, delta: f64) -> (f64, Matrix) {
    assert_eq!(pred.shape(), target.shape(), "huber shapes");
    assert!(!pred.is_empty(), "huber of empty matrices");
    assert!(delta > 0.0, "huber delta must be positive");
    let n = pred.len() as f64;
    let mut loss = 0.0;
    let mut grad = Matrix::zeros(pred.rows(), pred.cols());
    for i in 0..pred.len() {
        let e = pred.as_slice()[i] - target.as_slice()[i];
        if e.abs() <= delta {
            loss += 0.5 * e * e;
            grad.as_mut_slice()[i] = e / n;
        } else {
            loss += delta * (e.abs() - 0.5 * delta);
            grad.as_mut_slice()[i] = delta * e.signum() / n;
        }
    }
    (loss / n, grad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_of_equal_inputs_is_zero() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let (loss, grad) = mse(&a, &a);
        assert_eq!(loss, 0.0);
        assert_eq!(grad.max_abs(), 0.0);
    }

    #[test]
    fn mse_known_value_and_gradient() {
        let pred = Matrix::from_rows(&[&[3.0, 0.0]]);
        let target = Matrix::from_rows(&[&[1.0, 0.0]]);
        let (loss, grad) = mse(&pred, &target);
        assert!((loss - 2.0).abs() < 1e-12); // (4 + 0)/2
        assert!((grad[(0, 0)] - 2.0).abs() < 1e-12); // 2*2/2
        assert_eq!(grad[(0, 1)], 0.0);
    }

    #[test]
    fn mse_gradient_matches_finite_difference() {
        let pred = Matrix::from_rows(&[&[0.3, -1.0, 2.5]]);
        let target = Matrix::from_rows(&[&[0.0, 1.0, 2.0]]);
        let (_, grad) = mse(&pred, &target);
        let eps = 1e-6;
        for c in 0..3 {
            let mut p = pred.clone();
            p[(0, c)] += eps;
            let (up, _) = mse(&p, &target);
            p[(0, c)] -= 2.0 * eps;
            let (down, _) = mse(&p, &target);
            let num = (up - down) / (2.0 * eps);
            assert!((grad[(0, c)] - num).abs() < 1e-6);
        }
    }

    #[test]
    fn bce_perfect_prediction_is_near_zero() {
        let pred = Matrix::from_rows(&[&[0.9999, 0.0001]]);
        let target = Matrix::from_rows(&[&[1.0, 0.0]]);
        let (loss, _) = binary_cross_entropy(&pred, &target);
        assert!(loss < 1e-3);
    }

    #[test]
    fn bce_gradient_matches_finite_difference() {
        let pred = Matrix::from_rows(&[&[0.3, 0.8]]);
        let target = Matrix::from_rows(&[&[1.0, 0.0]]);
        let (_, grad) = binary_cross_entropy(&pred, &target);
        let eps = 1e-7;
        for c in 0..2 {
            let mut p = pred.clone();
            p[(0, c)] += eps;
            let (up, _) = binary_cross_entropy(&p, &target);
            p[(0, c)] -= 2.0 * eps;
            let (down, _) = binary_cross_entropy(&p, &target);
            let num = (up - down) / (2.0 * eps);
            assert!((grad[(0, c)] - num).abs() < 1e-4, "col {c}");
        }
    }

    #[test]
    fn bce_handles_saturated_probabilities() {
        let pred = Matrix::from_rows(&[&[1.0, 0.0]]);
        let target = Matrix::from_rows(&[&[0.0, 1.0]]);
        let (loss, grad) = binary_cross_entropy(&pred, &target);
        assert!(loss.is_finite());
        assert!(grad.all_finite());
    }

    #[test]
    fn huber_is_quadratic_inside_linear_outside() {
        let target = Matrix::from_rows(&[&[0.0]]);
        let (small, _) = huber(&Matrix::from_rows(&[&[0.5]]), &target, 1.0);
        assert!((small - 0.125).abs() < 1e-12);
        let (large, _) = huber(&Matrix::from_rows(&[&[3.0]]), &target, 1.0);
        assert!((large - 2.5).abs() < 1e-12); // 1*(3 - 0.5)
    }

    #[test]
    fn huber_gradient_matches_finite_difference() {
        let pred = Matrix::from_rows(&[&[0.4, -2.5]]);
        let target = Matrix::from_rows(&[&[0.0, 0.0]]);
        let (_, grad) = huber(&pred, &target, 1.0);
        let eps = 1e-6;
        for c in 0..2 {
            let mut p = pred.clone();
            p[(0, c)] += eps;
            let (up, _) = huber(&p, &target, 1.0);
            p[(0, c)] -= 2.0 * eps;
            let (down, _) = huber(&p, &target, 1.0);
            let num = (up - down) / (2.0 * eps);
            assert!((grad[(0, c)] - num).abs() < 1e-6);
        }
    }
}
