//! Property-based tests of the neural substrate: algebraic identities of the
//! matrix kernels, autograd-vs-finite-difference agreement on random graphs,
//! CRF distribution invariants, and fast-path/graph-path equivalence.

use dlacep_nn::graph::Graph;
use dlacep_nn::matrix::Matrix;
use dlacep_nn::params::ParamStore;
use dlacep_nn::{Crf, Initializer, StackedBiLstm};
use proptest::prelude::*;

fn matrix_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-2.0f32..2.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn transpose_is_involution(m in matrix_strategy(3, 5)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_transpose_identities(a in matrix_strategy(3, 4), b in matrix_strategy(5, 4)) {
        // (A·Bᵀ)ᵀ == B·Aᵀ
        let left = a.matmul_transpose_rhs(&b).transpose();
        let right = b.matmul_transpose_rhs(&a);
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn concat_slice_roundtrip(a in matrix_strategy(2, 3), b in matrix_strategy(2, 4)) {
        let cat = a.concat_cols(&b);
        prop_assert_eq!(cat.slice_cols(0, 3), a);
        prop_assert_eq!(cat.slice_cols(3, 4), b);
    }

    #[test]
    fn sum_rows_preserves_total(m in matrix_strategy(4, 3)) {
        let total: f32 = m.as_slice().iter().sum();
        prop_assert!((m.sum_rows().sum() - total).abs() < 1e-4);
    }

    #[test]
    fn autograd_matches_finite_difference_on_random_mlp(
        w in matrix_strategy(3, 3),
        x in matrix_strategy(2, 3),
        r in 0usize..3,
        c in 0usize..3,
    ) {
        let mut store = ParamStore::new();
        let id = store.register(w);
        let targets = Matrix::from_fn(2, 3, |i, j| ((i + j) % 2) as f32);
        let build = |g: &mut Graph, store: &ParamStore| {
            let p = g.param(store, id);
            let xin = g.input(x.clone());
            let h = g.matmul(xin, p);
            let y = g.add(h, h);
            g.bce_with_logits(y, targets.clone())
        };
        let mut g = Graph::new();
        let loss = build(&mut g, &store);
        g.backward(loss, &mut store);
        let analytic = store.grad(id).get(r, c);

        let eps = 1e-2f32;
        let orig = store.value(id).get(r, c);
        store.value_mut(id).set(r, c, orig + eps);
        let mut g1 = Graph::new();
        let v = build(&mut g1, &store);
        let hi = g1.value(v).get(0, 0);
        store.value_mut(id).set(r, c, orig - eps);
        let mut g2 = Graph::new();
        let v = build(&mut g2, &store);
        let lo = g2.value(v).get(0, 0);
        let numeric = (hi - lo) / (2.0 * eps);
        prop_assert!(
            (numeric - analytic).abs() < 2e-2 * (1.0 + numeric.abs()),
            "numeric {} vs analytic {}", numeric, analytic
        );
    }

    #[test]
    fn crf_marginals_are_distributions(e in matrix_strategy(5, 2)) {
        let mut store = ParamStore::new();
        let mut init = Initializer::seeded(1);
        let crf = Crf::new(&mut store, &mut init, 2);
        let m = crf.marginals(&store, &e);
        for t in 0..5 {
            let s = m.get(t, 0) + m.get(t, 1);
            prop_assert!((s - 1.0).abs() < 1e-3, "row {} sums to {}", t, s);
            prop_assert!(m.get(t, 0) >= -1e-6 && m.get(t, 1) >= -1e-6);
        }
    }

    #[test]
    fn crf_nll_nonnegative(e in matrix_strategy(4, 2), path_bits in 0u8..16) {
        let mut store = ParamStore::new();
        let mut init = Initializer::seeded(2);
        let crf = Crf::new(&mut store, &mut init, 2);
        let gold: Vec<usize> = (0..4).map(|i| ((path_bits >> i) & 1) as usize).collect();
        // NLL = logZ - score(gold) >= 0 since Z sums over all paths incl gold.
        prop_assert!(crf.nll(&store, &e, &gold) >= -1e-4);
    }

    #[test]
    fn viterbi_path_scores_at_least_gold(e in matrix_strategy(4, 2), path_bits in 0u8..16) {
        let mut store = ParamStore::new();
        let mut init = Initializer::seeded(3);
        let crf = Crf::new(&mut store, &mut init, 2);
        let gold: Vec<usize> = (0..4).map(|i| ((path_bits >> i) & 1) as usize).collect();
        let best = crf.decode(&store, &e);
        prop_assert!(
            crf.path_score(&store, &e, &best) >= crf.path_score(&store, &e, &gold) - 1e-4
        );
    }

    #[test]
    fn stacked_bilstm_fast_path_matches_graph(xs in matrix_strategy(6, 3)) {
        let mut store = ParamStore::new();
        let mut init = Initializer::seeded(4);
        let stack = StackedBiLstm::new(&mut store, &mut init, 3, 4, 2);
        let fast = stack.infer(&store, &xs);
        let mut g = Graph::new();
        let x = g.input(xs.clone());
        let hs = stack.forward(&mut g, &store, x, 6);
        for t in 0..6 {
            for (a, b) in g.value(hs).row(t).iter().zip(fast.row(t)) {
                prop_assert!((a - b).abs() < 1e-4);
            }
        }
    }
}
