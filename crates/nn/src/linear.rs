//! Fully connected layer.

use crate::graph::{Graph, Var};
use crate::init::Initializer;
use crate::params::{ParamId, ParamStore};
use serde::{Deserialize, Serialize};

/// A dense layer `y = x · W + b` with `W: in×out`, `b: 1×out`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Linear {
    /// Input width.
    pub in_dim: usize,
    /// Output width.
    pub out_dim: usize,
    w: ParamId,
    b: ParamId,
}

impl Linear {
    /// Allocate weights in `store` (Xavier) and biases (zero).
    pub fn new(
        store: &mut ParamStore,
        init: &mut Initializer,
        in_dim: usize,
        out_dim: usize,
    ) -> Self {
        let w = store.register(init.xavier(in_dim, out_dim));
        let b = store.register(init.zeros(1, out_dim));
        Self {
            in_dim,
            out_dim,
            w,
            b,
        }
    }

    /// Forward pass for a batch `x` (rows = batch).
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, x: Var) -> Var {
        let w = g.param(store, self.w);
        let b = g.param(store, self.b);
        let xw = g.matmul(x, w);
        g.add_row_broadcast(xw, b)
    }

    /// Forward pass over the time-major sequence `x` of `steps` steps
    /// (`steps · B × in`): the rows [`Linear::forward`] gives at each step,
    /// as one [`Graph::step_linear`] node that reads `W` once.
    pub fn forward_steps(&self, g: &mut Graph, store: &ParamStore, x: Var, steps: usize) -> Var {
        g.step_linear(store, (self.w, self.b), x, steps)
    }

    /// Parameter handles `(weight, bias)`, e.g. for regularization.
    pub fn params(&self) -> (ParamId, ParamId) {
        (self.w, self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    #[test]
    fn forward_shape_and_value() {
        let mut store = ParamStore::new();
        let mut init = Initializer::seeded(0);
        let lin = Linear::new(&mut store, &mut init, 3, 2);
        // Overwrite with known weights.
        *store.value_mut(lin.w) = Matrix::from_vec(3, 2, vec![1., 0., 0., 1., 1., 1.]);
        *store.value_mut(lin.b) = Matrix::from_vec(1, 2, vec![10., 20.]);
        let mut g = Graph::new();
        let x = g.input(Matrix::from_vec(1, 3, vec![1., 2., 3.]));
        let y = lin.forward(&mut g, &store, x);
        assert_eq!(g.value(y), &Matrix::from_vec(1, 2, vec![14., 25.]));
    }

    #[test]
    fn trains_to_fit_linear_function() {
        // One Adam step should reduce loss on a toy regression-ish target.
        use crate::optim::{Adam, Optimizer};
        let mut store = ParamStore::new();
        let mut init = Initializer::seeded(1);
        let lin = Linear::new(&mut store, &mut init, 2, 1);
        let x = Matrix::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
        let t = Matrix::from_vec(4, 1, vec![0., 1., 1., 1.]); // OR function
        let mut opt = Adam::new(0.05);
        let mut losses = vec![];
        for _ in 0..200 {
            store.zero_grads();
            let mut g = Graph::new();
            let xi = g.input(x.clone());
            let y = lin.forward(&mut g, &store, xi);
            let loss = g.bce_with_logits(y, t.clone());
            losses.push(g.value(loss).get(0, 0));
            g.backward(loss, &mut store);
            opt.step(&mut store);
        }
        assert!(
            losses.last().unwrap() < &0.1,
            "final loss {}",
            losses.last().unwrap()
        );
        assert!(losses.last().unwrap() < &losses[0]);
    }
}

impl Linear {
    /// Tape-free inference: `x · W + b` for a `rows×in` input.
    pub fn infer(
        &self,
        store: &crate::params::ParamStore,
        x: &crate::matrix::Matrix,
    ) -> crate::matrix::Matrix {
        x.matmul(store.value(self.w))
            .add_row_broadcast(store.value(self.b))
    }
}

#[cfg(test)]
mod infer_tests {
    use super::*;
    use crate::matrix::Matrix;

    #[test]
    fn infer_matches_graph_forward() {
        let mut store = ParamStore::new();
        let mut init = Initializer::seeded(4);
        let lin = Linear::new(&mut store, &mut init, 3, 2);
        let x = Matrix::from_vec(2, 3, vec![0.1, -0.4, 0.7, 1.0, 0.0, -1.0]);
        let mut g = Graph::new();
        let xv = g.input(x.clone());
        let y = lin.forward(&mut g, &store, xv);
        let fast = lin.infer(&store, &x);
        for (a, b) in g.value(y).as_slice().iter().zip(fast.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }
}
