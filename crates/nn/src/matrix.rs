//! Dense row-major `f32` matrices and the small kernel set the network needs.
//!
//! The DLACEP models are small (3 stacked BiLSTM layers, hidden 75), so a
//! straightforward cache-friendly `gemm` with an unrolled inner loop over the
//! shared dimension is sufficient; no SIMD intrinsics or BLAS dependency.

use serde::{Deserialize, Serialize};

/// Dimension mismatch for a binary matrix kernel, carrying both operand
/// shapes so the failure is diagnosable from the message alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShapeError {
    /// Kernel name (`"matmul"`, `"matmul_transpose_rhs"`, ...).
    pub op: &'static str,
    /// Left operand shape `(rows, cols)`.
    pub lhs: (usize, usize),
    /// Right operand shape `(rows, cols)`.
    pub rhs: (usize, usize),
    /// The violated constraint, e.g. `"lhs.cols must equal rhs.rows"`.
    pub requirement: &'static str,
}

impl std::fmt::Display for ShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} dimension mismatch: lhs is {}x{}, rhs is {}x{} ({})",
            self.op, self.lhs.0, self.lhs.1, self.rhs.0, self.rhs.1, self.requirement
        )
    }
}

impl std::error::Error for ShapeError {}

/// A dense row-major matrix of `f32`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix filled with `v`.
    pub fn full(rows: usize, cols: usize, v: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![v; rows * cols],
        }
    }

    /// Build from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Self { rows, cols, data }
    }

    /// Build from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// A 1×n row vector.
    pub fn row_vector(data: Vec<f32>) -> Self {
        Self {
            rows: 1,
            cols: data.len(),
            data,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw data slice (row-major).
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw data slice (row-major).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }

    /// Set an element.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        *self.get_mut(r, c) = v;
    }

    /// Bounds-checked element accessor: [`Matrix::get`] only asserts in
    /// debug builds, so paths fed by external data (e.g. quantization
    /// calibration) use this to surface malformed shapes as a structured
    /// [`ShapeError`] instead of an out-of-bounds panic in release builds.
    #[inline]
    pub fn try_get(&self, r: usize, c: usize) -> Result<f32, ShapeError> {
        if r < self.rows && c < self.cols {
            Ok(self.data[r * self.cols + c])
        } else {
            Err(ShapeError {
                op: "get",
                lhs: self.shape(),
                rhs: (r, c),
                requirement: "index must be within matrix bounds",
            })
        }
    }

    /// Bounds-checked [`Matrix::set`]; see [`Matrix::try_get`].
    #[inline]
    pub fn try_set(&mut self, r: usize, c: usize, v: f32) -> Result<(), ShapeError> {
        if r < self.rows && c < self.cols {
            self.data[r * self.cols + c] = v;
            Ok(())
        } else {
            Err(ShapeError {
                op: "set",
                lhs: self.shape(),
                rhs: (r, c),
                requirement: "index must be within matrix bounds",
            })
        }
    }

    /// A row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// A row as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self · rhs`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch, naming both shapes.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        self.try_matmul(rhs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Matrix::matmul`].
    pub fn try_matmul(&self, rhs: &Matrix) -> Result<Matrix, ShapeError> {
        if self.cols != rhs.rows {
            return Err(ShapeError {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
                requirement: "lhs.cols must equal rhs.rows",
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
            // k-j loop order: the inner loop walks both `rhs` and `out` rows
            // contiguously, which is the cache-friendly arrangement for
            // row-major data.
            for (k, &a) in self.row(i).iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                for (o, &b) in out_row.iter_mut().zip(rhs.row(k)) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// `self · rhsᵀ` without materializing the transpose.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch, naming both shapes.
    pub fn matmul_transpose_rhs(&self, rhs: &Matrix) -> Matrix {
        self.try_matmul_transpose_rhs(rhs)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Matrix::matmul_transpose_rhs`].
    pub fn try_matmul_transpose_rhs(&self, rhs: &Matrix) -> Result<Matrix, ShapeError> {
        if self.cols != rhs.cols {
            return Err(ShapeError {
                op: "matmul_transpose_rhs",
                lhs: self.shape(),
                rhs: rhs.shape(),
                requirement: "lhs.cols must equal rhs.cols",
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = &mut out.data[i * rhs.rows..(i + 1) * rhs.rows];
            for (j, o) in out_row.iter_mut().enumerate() {
                let mut acc = 0.0;
                for (&a, &b) in a_row.iter().zip(rhs.row(j)) {
                    acc += a * b;
                }
                *o = acc;
            }
        }
        Ok(out)
    }

    /// `selfᵀ · rhs` without materializing the transpose.
    pub fn transpose_matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "transpose_matmul dimension mismatch");
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        for k in 0..self.rows {
            let a_row = self.row(k);
            let b_row = rhs.row(k);
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Elementwise in-place map.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Elementwise map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// `self += alpha * other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Elementwise sum.
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "add shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Elementwise product (Hadamard).
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "hadamard shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| a * b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Add a 1×cols row vector to every row.
    pub fn add_row_broadcast(&self, bias: &Matrix) -> Matrix {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, self.cols, "bias width mismatch");
        let mut out = self.clone();
        for r in 0..out.rows {
            for (o, &b) in out.row_mut(r).iter_mut().zip(&bias.data) {
                *o += b;
            }
        }
        out
    }

    /// Sum over rows into a 1×cols vector.
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for (o, &v) in out.data.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        out
    }

    /// Horizontal concatenation `[self | other]`.
    pub fn concat_cols(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "concat_cols row mismatch");
        let cols = self.cols + other.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for r in 0..self.rows {
            data.extend_from_slice(self.row(r));
            data.extend_from_slice(other.row(r));
        }
        Matrix {
            rows: self.rows,
            cols,
            data,
        }
    }

    /// Copy of columns `[start, start + len)`.
    pub fn slice_cols(&self, start: usize, len: usize) -> Matrix {
        assert!(start + len <= self.cols, "slice_cols out of range");
        let mut data = Vec::with_capacity(self.rows * len);
        for r in 0..self.rows {
            data.extend_from_slice(&self.row(r)[start..start + len]);
        }
        Matrix {
            rows: self.rows,
            cols: len,
            data,
        }
    }

    /// Copy of rows `[start, start + len)`.
    pub fn slice_rows(&self, start: usize, len: usize) -> Matrix {
        assert!(start + len <= self.rows, "slice_rows out of range");
        let data = self.data[start * self.cols..(start + len) * self.cols].to_vec();
        Matrix {
            rows: len,
            cols: self.cols,
            data,
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Reset all elements to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Maximum absolute element (0 for an empty matrix).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0_f32, |m, v| m.max(v.abs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn matmul_small() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c, m(2, 2, &[58., 64., 139., 154.]));
    }

    #[test]
    fn matmul_identity() {
        let a = m(2, 2, &[1., 2., 3., 4.]);
        let i = Matrix::from_fn(2, 2, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn transpose_variants_agree() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(4, 3, &[1., 0., 2., -1., 3., 1., 0.5, 2., -2., 1., 1., 1.]);
        assert_eq!(a.matmul_transpose_rhs(&b), a.matmul(&b.transpose()));
        let c = m(2, 4, &[1., 2., 3., 4., 5., 6., 7., 8.]);
        assert_eq!(a.transpose_matmul(&c), a.transpose().matmul(&c));
    }

    #[test]
    fn broadcast_bias() {
        let a = m(2, 2, &[1., 2., 3., 4.]);
        let b = Matrix::row_vector(vec![10., 20.]);
        assert_eq!(a.add_row_broadcast(&b), m(2, 2, &[11., 22., 13., 24.]));
    }

    #[test]
    fn concat_and_slice_roundtrip() {
        let a = m(2, 2, &[1., 2., 3., 4.]);
        let b = m(2, 1, &[9., 8.]);
        let cat = a.concat_cols(&b);
        assert_eq!(cat.shape(), (2, 3));
        assert_eq!(cat.slice_cols(0, 2), a);
        assert_eq!(cat.slice_cols(2, 1), b);
    }

    #[test]
    fn slice_rows_copies() {
        let a = m(3, 2, &[1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.slice_rows(1, 2), m(2, 2, &[3., 4., 5., 6.]));
    }

    #[test]
    fn sum_rows_and_reductions() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.sum_rows(), Matrix::row_vector(vec![5., 7., 9.]));
        assert_eq!(a.sum(), 21.0);
        assert!((a.mean() - 3.5).abs() < 1e-6);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = m(1, 3, &[1., 1., 1.]);
        a.axpy(2.0, &m(1, 3, &[1., 2., 3.]));
        assert_eq!(a, m(1, 3, &[3., 5., 7.]));
    }

    #[test]
    fn norms() {
        let a = m(1, 2, &[3., 4.]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-6);
        assert_eq!(a.max_abs(), 4.0);
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_shape_checked() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn try_matmul_reports_both_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 5);
        let err = a.try_matmul(&b).unwrap_err();
        assert_eq!(err.op, "matmul");
        assert_eq!(err.lhs, (2, 3));
        assert_eq!(err.rhs, (4, 5));
        let msg = err.to_string();
        assert!(msg.contains("matmul dimension mismatch"), "{msg}");
        assert!(msg.contains("2x3") && msg.contains("4x5"), "{msg}");
        assert!(a.try_matmul(&Matrix::zeros(3, 5)).is_ok());
    }

    #[test]
    fn try_matmul_transpose_rhs_reports_both_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 6);
        let err = a.try_matmul_transpose_rhs(&b).unwrap_err();
        assert_eq!(err.op, "matmul_transpose_rhs");
        let msg = err.to_string();
        assert!(
            msg.contains("lhs is 2x3") && msg.contains("rhs is 4x6"),
            "{msg}"
        );
    }
}
