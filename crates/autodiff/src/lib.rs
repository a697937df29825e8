//! `lightmirm-autodiff` — a reverse-mode autodiff tape with
//! double-backward support.
//!
//! The meta-IRM outer update differentiates through the inner SGD step,
//! which requires gradients of gradients. Rust has no mature autograd
//! crate, so this crate implements a minimal, exact engine:
//!
//! - eager 1-D tensor ops recorded on a [`Tape`];
//! - [`Tape::backward`] emits the adjoint computation as *new tape nodes*,
//!   so returned gradients are themselves differentiable — exact
//!   Hessian-vector products come from one more `backward` call;
//! - validated against central finite differences in unit and property
//!   tests ([`functional::finite_diff_grad`]).
//!
//! The production LightMIRM trainers in `lightmirm-core` use a closed-form
//! fast path for logistic regression; this crate is the generic route and
//! the cross-check (core's tests verify the analytic meta-gradient against
//! this engine).
//!
//! # Example: exact Hessian-vector product
//!
//! ```
//! use lightmirm_autodiff::{Tape, functional::lr_loss};
//!
//! let x = vec![0.5, -1.0, 1.5, 0.25]; // 2 rows × 2 cols
//! let y = vec![1.0, 0.0];
//! let tape = Tape::new();
//! let theta = tape.input(vec![0.1, -0.2]);
//! let loss = lr_loss(&tape, &x, 2, 2, theta, &y, 0.0);
//! let grad = tape.backward(loss, &[theta], true)[0];
//! let v = tape.constant(vec![1.0, 0.0]);
//! let gv = tape.dot(grad, v);
//! let hv = tape.backward(gv, &[theta], false)[0]; // H · v, exactly
//! assert_eq!(hv.value().len(), 2);
//! ```

#![forbid(unsafe_code)]

pub mod functional;
pub mod tape;

pub use functional::{bce_with_logits, finite_diff_grad, lr_loss, mse};
pub use tape::{Tape, Var};
