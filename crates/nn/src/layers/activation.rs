use crate::{Layer, Mode, NnError, Result};
use leca_tensor::backend;
use leca_tensor::{PooledTensor, Tensor, Workspace};

/// Caches the `1.0 / 0.0` activation mask of `x` in a buffer of `ws`.
fn pooled_mask(x: &Tensor, ws: &Workspace) -> PooledTensor {
    let mut mask = ws.take(x.shape());
    backend::relu_mask(x.as_slice(), mask.as_mut_slice());
    mask
}

/// Takes the cached mask and checks it against `grad_out`, returning the
/// mask and the gradient-input buffer.
fn mask_and_grad_buf(
    mask: &mut Option<PooledTensor>,
    what: &'static str,
    grad_out: &Tensor,
    ws: &Workspace,
) -> Result<(PooledTensor, PooledTensor)> {
    let mask = mask.take().ok_or(NnError::NoForwardCache(what))?;
    if mask.len() != grad_out.len() {
        return Err(NnError::BatchMismatch {
            what,
            expected: mask.len(),
            actual: grad_out.len(),
        });
    }
    Ok((mask, ws.take(grad_out.shape())))
}

/// Rectified linear unit: `y = max(x, 0)`.
///
/// The training mask is a pooled `1.0 / 0.0` tensor rather than a
/// `Vec<bool>`, checked out of the caller's [`Workspace`] and returned on
/// backward, so steady-state training allocates nothing here.
#[derive(Debug, Default)]
pub struct Relu {
    mask: Option<PooledTensor>,
}

impl Relu {
    /// Creates a ReLU activation.
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Layer for Relu {
    fn forward_ws(&mut self, x: &Tensor, mode: Mode, ws: &Workspace) -> Result<PooledTensor> {
        if mode.is_train() {
            self.mask = Some(pooled_mask(x, ws));
        }
        // Not `v.max(0.0)`: f32::max drops NaN operands, which would
        // silently launder a poisoned activation into a healthy zero and
        // hide divergence from the trainer's non-finite-loss detector.
        // `backend::relu` keeps the NaN-passing branch.
        let mut out = ws.take(x.shape());
        backend::relu(x.as_slice(), out.as_mut_slice());
        Ok(out)
    }

    fn backward_ws(&mut self, grad_out: &Tensor, ws: &Workspace) -> Result<PooledTensor> {
        let (mask, mut out) = mask_and_grad_buf(&mut self.mask, "relu", grad_out, ws)?;
        backend::relu_backward(mask.as_slice(), grad_out.as_slice(), out.as_mut_slice());
        Ok(out)
    }

    fn name(&self) -> &'static str {
        "relu"
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// Leaky rectified linear unit: `y = x` for `x > 0`, else `alpha * x`.
#[derive(Debug)]
pub struct LeakyRelu {
    alpha: f32,
    mask: Option<PooledTensor>,
}

impl LeakyRelu {
    /// Creates a leaky ReLU with negative-slope `alpha`.
    pub fn new(alpha: f32) -> Self {
        LeakyRelu { alpha, mask: None }
    }
}

impl Layer for LeakyRelu {
    fn forward_ws(&mut self, x: &Tensor, mode: Mode, ws: &Workspace) -> Result<PooledTensor> {
        if mode.is_train() {
            self.mask = Some(pooled_mask(x, ws));
        }
        let mut out = ws.take(x.shape());
        backend::leaky_relu(x.as_slice(), self.alpha, out.as_mut_slice());
        Ok(out)
    }

    fn backward_ws(&mut self, grad_out: &Tensor, ws: &Workspace) -> Result<PooledTensor> {
        let (mask, mut out) = mask_and_grad_buf(&mut self.mask, "leaky_relu", grad_out, ws)?;
        backend::leaky_relu_backward(
            mask.as_slice(),
            grad_out.as_slice(),
            self.alpha,
            out.as_mut_slice(),
        );
        Ok(out)
    }

    fn name(&self) -> &'static str {
        "leaky_relu"
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer;

    #[test]
    fn relu_clips_negatives() {
        let mut r = Relu::new();
        let x = Tensor::from_slice(&[-1.0, 0.0, 2.0]);
        let y = r.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relus_propagate_nan() {
        // A poisoned activation must stay poisoned — `max(0.0)` would
        // launder NaN to 0 and mask divergence from the trainer.
        let x = Tensor::from_slice(&[f32::NAN, -1.0, 2.0]);
        let y = Relu::new().forward(&x, Mode::Eval).unwrap();
        assert!(y.as_slice()[0].is_nan());
        assert_eq!(&y.as_slice()[1..], &[0.0, 2.0]);
        let y = LeakyRelu::new(0.1).forward(&x, Mode::Eval).unwrap();
        assert!(y.as_slice()[0].is_nan());
    }

    #[test]
    fn relu_backward_masks() {
        let mut r = Relu::new();
        let x = Tensor::from_slice(&[-1.0, 3.0]);
        r.forward(&x, Mode::Train).unwrap();
        let g = r.backward(&Tensor::from_slice(&[5.0, 5.0])).unwrap();
        assert_eq!(g.as_slice(), &[0.0, 5.0]);
    }

    #[test]
    fn relu_gradcheck_away_from_kink() {
        let mut r = Relu::new();
        let x = Tensor::from_slice(&[-2.0, -0.7, 0.6, 1.5, 3.0]);
        check_layer(&mut r, &x, 1e-2).unwrap();
    }

    #[test]
    fn leaky_relu_scales_negatives() {
        let mut r = LeakyRelu::new(0.1);
        let x = Tensor::from_slice(&[-2.0, 4.0]);
        let y = r.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.as_slice(), &[-0.2, 4.0]);
    }

    #[test]
    fn leaky_relu_gradcheck() {
        let mut r = LeakyRelu::new(0.2);
        let x = Tensor::from_slice(&[-2.0, -0.7, 0.6, 1.5]);
        check_layer(&mut r, &x, 1e-2).unwrap();
    }

    #[test]
    fn backward_requires_forward() {
        assert!(Relu::new().backward(&Tensor::zeros(&[2])).is_err());
        assert!(LeakyRelu::new(0.1).backward(&Tensor::zeros(&[2])).is_err());
    }

    #[test]
    fn backward_checks_length() {
        let mut r = Relu::new();
        r.forward(&Tensor::zeros(&[3]), Mode::Train).unwrap();
        assert!(r.backward(&Tensor::zeros(&[4])).is_err());
    }

    #[test]
    fn activations_are_stateless_params() {
        assert_eq!(Relu::new().num_params(), 0);
        assert_eq!(LeakyRelu::new(0.1).num_params(), 0);
    }

    #[test]
    fn train_mode_mask_returns_to_the_pool() {
        let ws = Workspace::new();
        let mut r = Relu::new();
        let x = Tensor::from_slice(&[-1.0, 3.0]);
        let y = r.forward_ws(&x, Mode::Train, &ws).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 3.0]);
        let g = r
            .backward_ws(&Tensor::from_slice(&[5.0, 5.0]), &ws)
            .unwrap();
        assert_eq!(g.as_slice(), &[0.0, 5.0]);
        drop((y, g));
        assert_eq!((ws.stats().live, ws.stats().free), (0, 3));
    }
}
