//! Minimal neural-network substrate for the ECT-Hub reproduction.
//!
//! The paper trains three model families with PyTorch: the NCF rating model
//! used for strata pre-labeling and as the uplift-baseline base model, the
//! CF-MTL-style ECT-Price network, and the PPO actor-critic of ECT-DRL.
//! No deep-learning crate is available offline, so this crate provides the
//! required stack from scratch:
//!
//! * [`matrix`] — dense row-major `f64` matrices; their three products run
//!   one register-tiled kernel (AVX-512 or AVX2 picked at run time) that is
//!   bit-identical to the plain triple loop;
//! * `tanh` (private) — the `Tanh` activation's vectorised port of glibc
//!   2.36's `tanh`, bit-identical to it on every CPU, so results do not
//!   depend on the linked libm;
//! * [`param`] — trainable parameters, initialisers and the
//!   [`param::Parameterized`] visitor trait optimizers operate on;
//! * [`layers`] — [`layers::Linear`], [`layers::Activation`],
//!   [`layers::Embedding`] and row-softmax helpers, each with explicit
//!   forward/backward passes;
//! * [`mlp`] — a sequential feed-forward network;
//! * [`ncf`] — Neural Collaborative Filtering (He et al. 2017);
//! * [`loss`] — MSE / BCE / Huber losses with analytic gradients;
//! * [`optim`] — Adam (with the paper's hyper-parameters as presets) and SGD;
//! * [`gradcheck`] — finite-difference gradient verification used throughout
//!   the test suites.
//!
//! Every backward pass in this workspace is validated against central finite
//! differences; see the `gradcheck` tests in each module.
//!
//! # Example
//!
//! ```
//! use ect_nn::layers::ActivationKind;
//! use ect_nn::loss::mse;
//! use ect_nn::matrix::Matrix;
//! use ect_nn::mlp::Mlp;
//! use ect_nn::optim::{Adam, AdamConfig};
//! use ect_types::rng::EctRng;
//!
//! let mut rng = EctRng::seed_from(7);
//! let mut net = Mlp::new(&[1, 8, 1], ActivationKind::Tanh, &mut rng);
//! let mut opt = Adam::new(AdamConfig::default().with_learning_rate(0.05));
//! let x = Matrix::from_rows(&[&[0.0], &[0.5], &[1.0]]);
//! let y = x.map(|v| 2.0 * v - 1.0);
//! for _ in 0..200 {
//!     let pred = net.forward(&x);
//!     let (_, grad) = mse(&pred, &y);
//!     net.backward(&grad);
//!     opt.step(&mut net);
//! }
//! let (final_loss, _) = mse(&net.infer(&x), &y);
//! assert!(final_loss < 0.05);
//! ```

pub mod gradcheck;
pub mod layers;
pub mod loss;
pub mod matrix;
pub mod mlp;
pub mod ncf;
pub mod optim;
pub mod param;
mod tanh;

pub use layers::{softmax_backward, softmax_rows, Activation, ActivationKind, Embedding, Linear};
pub use matrix::Matrix;
pub use mlp::Mlp;
pub use ncf::{Ncf, NcfConfig};
pub use optim::{Adam, AdamConfig, Sgd};
pub use param::{Param, Parameterized};
