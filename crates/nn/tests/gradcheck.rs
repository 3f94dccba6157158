//! Gradient regression tests for the matmul kernels.
//!
//! `Matrix::matmul` / `matmul_transpose_rhs` must be bitwise-identical to a
//! naive triple loop, and the gradients flowing *through* them (graph
//! backward, CRF forward–backward) must agree with central finite
//! differences — a wrong row offset or a dropped accumulation in a kernel
//! shows up here as a gradient mismatch long before it corrupts a training
//! run.

use dlacep_nn::crf::{BiCrf, Crf};
use dlacep_nn::{Graph, Initializer, Matrix, ParamStore};

const N: usize = 48;

/// Deterministic non-zero test values in roughly [-0.6, 0.6].
fn mat(rows: usize, cols: usize, salt: u64) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        let h = (i as u64)
            .wrapping_mul(6364136223846793005)
            .wrapping_add(j as u64)
            .wrapping_add(salt)
            .wrapping_mul(1442695040888963407);
        ((h >> 33) as f32 / (1u64 << 31) as f32) - 0.5 + 0.1
    })
}

/// Naive reference with the exact float-op order of `Matrix::matmul`
/// (accumulate over k in increasing order), so equality can be bitwise.
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            let av = a.get(i, k);
            for j in 0..b.cols() {
                out.set(i, j, out.get(i, j) + av * b.get(k, j));
            }
        }
    }
    out
}

fn naive_matmul_transpose_rhs(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.rows());
    for i in 0..a.rows() {
        for j in 0..b.rows() {
            let mut acc = 0.0_f32;
            for k in 0..a.cols() {
                acc += a.get(i, k) * b.get(j, k);
            }
            out.set(i, j, acc);
        }
    }
    out
}

fn assert_bitwise_equal(a: &Matrix, b: &Matrix, ctx: &str) {
    assert_eq!(a.shape(), b.shape(), "{ctx}: shape");
    for i in 0..a.rows() {
        for j in 0..a.cols() {
            assert_eq!(
                a.get(i, j).to_bits(),
                b.get(i, j).to_bits(),
                "{ctx}: entry ({i}, {j}): {} vs {}",
                a.get(i, j),
                b.get(i, j)
            );
        }
    }
}

#[test]
fn matmul_is_bitwise_equal_to_naive_kernel() {
    let a = mat(N, N, 1);
    let b = mat(N, N, 2);
    assert_bitwise_equal(&a.matmul(&b), &naive_matmul(&a, &b), "matmul");
    assert_bitwise_equal(
        &a.matmul_transpose_rhs(&b),
        &naive_matmul_transpose_rhs(&a, &b),
        "matmul_transpose_rhs",
    );
    // Ragged shape: no dimension equal to another.
    let a = mat(37, 53, 3);
    let b = mat(53, 41, 4);
    assert_bitwise_equal(&a.matmul(&b), &naive_matmul(&a, &b), "ragged matmul");
}

#[test]
fn matmul_backward_matches_finite_differences() {
    let a = mat(N, N, 5);
    let b = mat(N, N, 6);

    // Seed the product with all-ones: d(Σ_j C[i,j]) / dA[i,k] lands in
    // grad(a), flowing backward through `matmul_transpose_rhs`.
    let mut graph = Graph::new();
    let va = graph.input(a.clone());
    let vb = graph.input(b.clone());
    let vc = graph.matmul(va, vb);
    let seed = Matrix::from_fn(N, N, |_, _| 1.0);
    let mut store = ParamStore::new();
    graph.backward_seeded(&[(vc, seed)], &mut store);
    let grad_a = graph.grad(va).expect("lhs gradient").clone();
    let grad_b = graph.grad(vb).expect("rhs gradient").clone();

    // Central differences on the row/column sums the ones-seed measures.
    // f64 accumulation keeps the quotient's noise well under the tolerance.
    let row_sum = |m: &Matrix, i: usize| -> f64 { (0..m.cols()).map(|j| m.get(i, j) as f64).sum() };
    let col_sum = |m: &Matrix, j: usize| -> f64 { (0..m.rows()).map(|i| m.get(i, j) as f64).sum() };
    let eps = 5e-2_f32;
    for s in 0..10 {
        let (i, k) = ((s * 7) % N, (s * 13 + 3) % N);

        let mut hi = a.clone();
        hi.set(i, k, a.get(i, k) + eps);
        let mut lo = a.clone();
        lo.set(i, k, a.get(i, k) - eps);
        let fd = (row_sum(&hi.matmul(&b), i) - row_sum(&lo.matmul(&b), i)) / (2.0 * eps as f64);
        let an = grad_a.get(i, k) as f64;
        assert!(
            (fd - an).abs() <= 1e-2 * an.abs().max(1.0),
            "dA[{i}][{k}]: finite-diff {fd} vs backward {an}"
        );

        let mut hi = b.clone();
        hi.set(i, k, b.get(i, k) + eps);
        let mut lo = b.clone();
        lo.set(i, k, b.get(i, k) - eps);
        let fd = (col_sum(&a.matmul(&hi), k) - col_sum(&a.matmul(&lo), k)) / (2.0 * eps as f64);
        let an = grad_b.get(i, k) as f64;
        assert!(
            (fd - an).abs() <= 1e-2 * an.abs().max(1.0),
            "dB[{i}][{k}]: finite-diff {fd} vs backward {an}"
        );
    }
}

fn crf_emissions(t: usize, l: usize) -> Matrix {
    mat(t, l, 9)
}

fn crf_gold(t: usize, l: usize) -> Vec<usize> {
    (0..t).map(|i| (i * 5 + 1) % l).collect()
}

#[test]
fn crf_forward_backward_matches_finite_differences() {
    let (t, l) = (7, 3);
    let mut store = ParamStore::new();
    let mut init = Initializer::seeded(11);
    let crf = Crf::new(&mut store, &mut init, l);
    let emissions = crf_emissions(t, l);
    let gold = crf_gold(t, l);

    store.zero_grads();
    let (nll, d_emissions) = crf.nll_backward(&mut store, &emissions, &gold, 1.0);
    assert!(nll.is_finite() && nll > 0.0);

    let eps = 1e-2_f32;
    // Emission gradients.
    for s in 0..t * l {
        let (i, j) = (s / l, s % l);
        let mut hi = emissions.clone();
        hi.set(i, j, emissions.get(i, j) + eps);
        let mut lo = emissions.clone();
        lo.set(i, j, emissions.get(i, j) - eps);
        let fd = (crf.nll(&store, &hi, &gold) as f64 - crf.nll(&store, &lo, &gold) as f64)
            / (2.0 * eps as f64);
        let an = d_emissions.get(i, j) as f64;
        assert!(
            (fd - an).abs() <= 5e-3 + 2e-2 * an.abs(),
            "d emissions[{i}][{j}]: finite-diff {fd} vs backward {an}"
        );
    }

    // Transition / start / end gradients, via the store's parameter list
    // (registration order: trans L×L, start 1×L, end 1×L).
    let params: Vec<_> = store.iter().map(|(id, v, _)| (id, v.shape())).collect();
    assert_eq!(params.len(), 3);
    for (id, (rows, cols)) in params {
        let analytic = store.grad(id).clone();
        for i in 0..rows {
            for j in 0..cols {
                let orig = store.value(id).get(i, j);
                store.value_mut(id).set(i, j, orig + eps);
                let up = crf.nll(&store, &emissions, &gold) as f64;
                store.value_mut(id).set(i, j, orig - eps);
                let down = crf.nll(&store, &emissions, &gold) as f64;
                store.value_mut(id).set(i, j, orig);
                let fd = (up - down) / (2.0 * eps as f64);
                let an = analytic.get(i, j) as f64;
                assert!(
                    (fd - an).abs() <= 5e-3 + 2e-2 * an.abs(),
                    "param {id:?} [{i}][{j}]: finite-diff {fd} vs backward {an}"
                );
            }
        }
    }
}

#[test]
fn bicrf_forward_backward_matches_finite_differences_on_emissions() {
    let (t, l) = (6, 2);
    let mut store = ParamStore::new();
    let mut init = Initializer::seeded(13);
    let crf = BiCrf::new(&mut store, &mut init, l);
    let emissions = crf_emissions(t, l);
    let gold = crf_gold(t, l);

    store.zero_grads();
    let (nll, d_emissions) = crf.nll_backward(&mut store, &emissions, &gold, 1.0);
    assert!(nll.is_finite());

    let eps = 1e-2_f32;
    for s in 0..t * l {
        let (i, j) = (s / l, s % l);
        let mut hi = emissions.clone();
        hi.set(i, j, emissions.get(i, j) + eps);
        let mut lo = emissions.clone();
        lo.set(i, j, emissions.get(i, j) - eps);
        let fd = (crf.nll(&store, &hi, &gold) as f64 - crf.nll(&store, &lo, &gold) as f64)
            / (2.0 * eps as f64);
        let an = d_emissions.get(i, j) as f64;
        assert!(
            (fd - an).abs() <= 5e-3 + 2e-2 * an.abs(),
            "d emissions[{i}][{j}]: finite-diff {fd} vs backward {an}"
        );
    }
}
