use crate::{Layer, Mode, NnError, Result};
use leca_tensor::ops;
use leca_tensor::{PooledTensor, Tensor, Workspace};

/// Non-overlapping average pooling (`k x k` window, stride `k`).
#[derive(Debug)]
pub struct AvgPool2d {
    k: usize,
    /// Input shape of the last `Train` forward.
    in_shape: Option<[usize; 4]>,
}

impl AvgPool2d {
    /// Creates an average-pool layer with window `k`.
    pub fn new(k: usize) -> Self {
        AvgPool2d { k, in_shape: None }
    }
}

impl Layer for AvgPool2d {
    fn forward_ws(&mut self, x: &Tensor, mode: Mode, ws: &Workspace) -> Result<PooledTensor> {
        let mut out = ws.take(&ops::pool2d_out_shape(x, self.k)?);
        ops::avg_pool2d_into(x, self.k, &mut out)?;
        if mode.is_train() {
            let d = x.shape();
            self.in_shape = Some([d[0], d[1], d[2], d[3]]);
        }
        Ok(out)
    }

    fn backward_ws(&mut self, grad_out: &Tensor, ws: &Workspace) -> Result<PooledTensor> {
        let in_shape = self
            .in_shape
            .take()
            .ok_or(NnError::NoForwardCache("avg_pool2d"))?;
        let mut gx = ws.take(&in_shape);
        ops::avg_pool2d_backward_into(grad_out, self.k, &mut gx)?;
        Ok(gx)
    }

    fn name(&self) -> &'static str {
        "avg_pool2d"
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// Non-overlapping max pooling (`k x k` window, stride `k`).
#[derive(Debug)]
pub struct MaxPool2d {
    k: usize,
    /// Input of the last `Train` forward; backward re-finds each window's
    /// maximum in it.
    cache: Option<PooledTensor>,
}

impl MaxPool2d {
    /// Creates a max-pool layer with window `k`.
    pub fn new(k: usize) -> Self {
        MaxPool2d { k, cache: None }
    }
}

impl Layer for MaxPool2d {
    fn forward_ws(&mut self, x: &Tensor, mode: Mode, ws: &Workspace) -> Result<PooledTensor> {
        let mut out = ws.take(&ops::pool2d_out_shape(x, self.k)?);
        ops::max_pool2d_into(x, self.k, &mut out)?;
        if mode.is_train() {
            self.cache = Some(ws.take_from(x));
        }
        Ok(out)
    }

    fn backward_ws(&mut self, grad_out: &Tensor, ws: &Workspace) -> Result<PooledTensor> {
        let x = self
            .cache
            .take()
            .ok_or(NnError::NoForwardCache("max_pool2d"))?;
        let mut gx = ws.take(x.shape());
        ops::max_pool2d_backward_into(grad_out, &x, self.k, &mut gx)?;
        Ok(gx)
    }

    fn name(&self) -> &'static str {
        "max_pool2d"
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn avg_pool_shape() {
        let mut p = AvgPool2d::new(2);
        let y = p
            .forward(&Tensor::zeros(&[1, 2, 8, 8]), Mode::Eval)
            .unwrap();
        assert_eq!(y.shape(), &[1, 2, 4, 4]);
    }

    #[test]
    fn avg_pool_gradcheck() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut p = AvgPool2d::new(2);
        let x = Tensor::rand_uniform(&[1, 2, 4, 4], -1.0, 1.0, &mut rng);
        check_layer(&mut p, &x, 1e-2).unwrap();
    }

    #[test]
    fn max_pool_gradcheck_distinct_values() {
        // Use well-separated values so the argmax is stable under the
        // finite-difference perturbation.
        let vals: Vec<f32> = (0..32).map(|i| i as f32 * 0.37 - 5.0).collect();
        let x = Tensor::from_vec(vals, &[1, 2, 4, 4]).unwrap();
        let mut p = MaxPool2d::new(2);
        check_layer(&mut p, &x, 1e-2).unwrap();
    }

    #[test]
    fn backward_requires_forward() {
        assert!(AvgPool2d::new(2)
            .backward(&Tensor::zeros(&[1, 1, 2, 2]))
            .is_err());
        assert!(MaxPool2d::new(2)
            .backward(&Tensor::zeros(&[1, 1, 2, 2]))
            .is_err());
    }

    #[test]
    fn pools_have_no_params() {
        assert_eq!(AvgPool2d::new(2).num_params(), 0);
        assert_eq!(MaxPool2d::new(2).num_params(), 0);
    }
}
