use leca_tensor::Tensor;

/// A trainable parameter: value, accumulated gradient and a freeze flag.
///
/// Layers own their `Param`s; optimizers and checkpointing reach them
/// through [`crate::Layer::visit_params`], which traverses parameters in a
/// deterministic order.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Current parameter value.
    pub value: Tensor,
    /// Gradient accumulated by the most recent backward pass(es). A frozen
    /// parameter accumulates nothing, so its `grad` stays as it was: zero
    /// after construction or [`Param::zero_grad`].
    pub grad: Tensor,
    /// When `true`, optimizers must not update this parameter, and layer
    /// backward passes skip its gradient (PyTorch's
    /// `requires_grad=False`): no weight-gradient GEMM runs for it and
    /// nothing is added to [`Param::grad`].
    ///
    /// Freezing is how the paper keeps the pre-trained backbone fixed while
    /// gradients still flow *through* it to the encoder/decoder: the input
    /// gradient a layer returns does not depend on this flag.
    pub frozen: bool,
}

impl Param {
    /// Creates a trainable parameter with a zeroed gradient.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Param {
            value,
            grad,
            frozen: false,
        }
    }

    /// Number of scalar elements in the parameter.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// True when the parameter holds no elements.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }

    /// Accumulates a gradient contribution.
    ///
    /// # Panics
    ///
    /// Panics if `g` has a different shape than the parameter.
    pub fn accumulate(&mut self, g: &Tensor) {
        self.grad
            .add_assign(g)
            .expect("gradient shape must match parameter shape");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_param_has_zero_grad() {
        let p = Param::new(Tensor::ones(&[2, 2]));
        assert_eq!(p.grad.sum(), 0.0);
        assert!(!p.frozen);
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
    }

    #[test]
    fn accumulate_adds() {
        let mut p = Param::new(Tensor::zeros(&[2]));
        p.accumulate(&Tensor::from_slice(&[1.0, 2.0]));
        p.accumulate(&Tensor::from_slice(&[0.5, 0.5]));
        assert_eq!(p.grad.as_slice(), &[1.5, 2.5]);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
    }

    #[test]
    #[should_panic(expected = "gradient shape")]
    fn accumulate_rejects_wrong_shape() {
        let mut p = Param::new(Tensor::zeros(&[2]));
        p.accumulate(&Tensor::zeros(&[3]));
    }
}
