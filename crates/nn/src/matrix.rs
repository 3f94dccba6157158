//! Dense row-major `f32` matrices and the small kernel set the network needs.
//!
//! The DLACEP models are small (3 stacked BiLSTM layers, hidden 75), so a
//! straightforward cache-friendly k-j `gemm` is sufficient; no SIMD
//! intrinsics or BLAS dependency. The loops vectorise across output columns
//! (and are instantiated once more under `avx2`), never across the summed
//! dimension: every output element is a sum over `k` in ascending order that
//! starts at +0.0, with multiply and add rounded separately — the order the
//! training pins depend on (DESIGN.md, "Training kernel").

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
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
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
        gemm(&self.data, self.cols, &rhs.data, rhs.cols, &mut out.data);
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
        gemm_tn(&self.data, self.cols, &rhs.data, rhs.cols, &mut out.data);
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::default();
        self.transpose_into(&mut out);
        out
    }

    /// Write `selfᵀ` into `out`, reusing its allocation.
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.reset(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
    }

    /// Reshape to `rows × cols` with every element zero, keeping the
    /// allocation (for buffers reused from one training step to the next).
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// The row-major data vector.
    pub(crate) fn into_vec(self) -> Vec<f32> {
        self.data
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
        sum_rows_into(&self.data, self.cols, &mut out.data);
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

/// `out = a · b` for row-major `a` (`m × k`, `m = out.len() / n`) and `b`
/// (`k × n`): each output element sums over `k` in ascending order from
/// +0.0, lanes across output columns (the k-j order walks `b` and `out`
/// rows contiguously). A zero `a` element is skipped: its `±0` products
/// would leave a sum that started at +0.0 bit for bit as it was.
pub(crate) fn gemm(a: &[f32], k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    out.fill(0.0);
    if k == 0 || n == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2, checked on the line above.
        return unsafe { gemm_avx2(a, k, b, n, out) };
    }
    gemm_rows(a, k, b, n, out);
}

/// `out = aᵀ · b` for row-major `a` (`r × m`) and `b` (`r × n`): each
/// output element sums over the `r` rows in order from +0.0, skipping zero
/// `a` elements like [`gemm`].
pub(crate) fn gemm_tn(a: &[f32], m: usize, b: &[f32], n: usize, out: &mut [f32]) {
    out.fill(0.0);
    if m == 0 || n == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2, checked on the line above.
        return unsafe { gemm_tn_avx2(a, m, b, n, out) };
    }
    gemm_tn_rows(a, m, b, n, out);
}

/// `out = Σ` of the `cols`-wide rows of `data`, in row order from +0.0.
pub(crate) fn sum_rows_into(data: &[f32], cols: usize, out: &mut [f32]) {
    out.fill(0.0);
    if cols == 0 {
        return;
    }
    for row in data.chunks_exact(cols) {
        for (o, &v) in out.iter_mut().zip(row) {
            *o += v;
        }
    }
}

/// [`gemm`] past its checks; inlined into each instantiation. Output
/// columns go in register-sized blocks whose sums stay in a local array for
/// the whole `k` loop; the last `n % 8` columns, and narrow products, go in
/// plain k-j order. Either way every sum keeps its order.
#[inline(always)]
fn gemm_rows(a: &[f32], k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    let tail = n - n % 8;
    for (a_row, out_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        column_blocks(tail, |col, width| match width {
            32 => gemm_block::<32>(a_row, b, n, col, out_row),
            16 => gemm_block::<16>(a_row, b, n, col, out_row),
            _ => gemm_block::<8>(a_row, b, n, col, out_row),
        });
        if tail < n {
            for (&av, b_row) in a_row.iter().zip(b.chunks_exact(n)) {
                if av == 0.0 {
                    continue;
                }
                for (o, &bv) in out_row[tail..].iter_mut().zip(&b_row[tail..]) {
                    *o += av * bv;
                }
            }
        }
    }
}

/// Walk `0..n` (a multiple of 8) in blocks of 32, then at most one of 16
/// and one of 8: `visit(first column, width)`.
#[inline(always)]
fn column_blocks(n: usize, mut visit: impl FnMut(usize, usize)) {
    let mut col = 0;
    for width in [32, 16, 8] {
        while col + width <= n {
            visit(col, width);
            col += width;
            if width < 32 {
                break;
            }
        }
    }
}

/// Columns `col .. col + W` of one output row of [`gemm`].
#[inline(always)]
fn gemm_block<const W: usize>(a_row: &[f32], b: &[f32], n: usize, col: usize, out: &mut [f32]) {
    let mut acc = [0.0_f32; W];
    for (&av, b_row) in a_row.iter().zip(b.chunks_exact(n)) {
        if av == 0.0 {
            continue;
        }
        let b_block = &b_row[col..col + W];
        for (o, &bv) in acc.iter_mut().zip(b_block) {
            *o += av * bv;
        }
    }
    out[col..col + W].copy_from_slice(&acc);
}

/// [`gemm_tn`] past its checks; inlined into each instantiation, blocked
/// like [`gemm_rows`].
#[inline(always)]
fn gemm_tn_rows(a: &[f32], m: usize, b: &[f32], n: usize, out: &mut [f32]) {
    let tail = n - n % 8;
    if tail > 0 {
        for (i, out_row) in out.chunks_exact_mut(n).enumerate() {
            column_blocks(tail, |col, width| match width {
                32 => gemm_tn_block::<32>(a, m, i, b, n, col, out_row),
                16 => gemm_tn_block::<16>(a, m, i, b, n, col, out_row),
                _ => gemm_tn_block::<8>(a, m, i, b, n, col, out_row),
            });
        }
    }
    if tail < n {
        for (a_row, b_row) in a.chunks_exact(m).zip(b.chunks_exact(n)) {
            for (&av, out_row) in a_row.iter().zip(out.chunks_exact_mut(n)) {
                if av == 0.0 {
                    continue;
                }
                for (o, &bv) in out_row[tail..].iter_mut().zip(&b_row[tail..]) {
                    *o += av * bv;
                }
            }
        }
    }
}

/// Columns `col .. col + W` of output row `i` of [`gemm_tn`].
#[inline(always)]
fn gemm_tn_block<const W: usize>(
    a: &[f32],
    m: usize,
    i: usize,
    b: &[f32],
    n: usize,
    col: usize,
    out: &mut [f32],
) {
    let mut acc = [0.0_f32; W];
    for (a_row, b_row) in a.chunks_exact(m).zip(b.chunks_exact(n)) {
        let av = a_row[i];
        if av == 0.0 {
            continue;
        }
        let b_block = &b_row[col..col + W];
        for (o, &bv) in acc.iter_mut().zip(b_block) {
            *o += av * bv;
        }
    }
    out[col..col + W].copy_from_slice(&acc);
}

/// The AVX2 instantiation of [`gemm`]: 8-lane multiplies and adds, no FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gemm_avx2(a: &[f32], k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    gemm_rows(a, k, b, n, out);
}

/// The AVX2 instantiation of [`gemm_tn`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gemm_tn_avx2(a: &[f32], m: usize, b: &[f32], n: usize, out: &mut [f32]) {
    gemm_tn_rows(a, m, b, n, out);
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
