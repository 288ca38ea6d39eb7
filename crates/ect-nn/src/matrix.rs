//! Dense row-major `f64` matrix and its one product kernel.
//!
//! The networks in this workspace are tiny (≤ a few hundred units), so a
//! `Vec<f64>`-backed row-major matrix is all the storage we need.
//! Operations validate shapes (C-VALIDATE) and panic on mismatch — a shape
//! error is always a programming bug, never a runtime condition.
//!
//! # Products
//!
//! [`Matrix::matmul`], [`Matrix::transpose_matmul`] and
//! [`Matrix::matmul_transpose`] (and the in-place forms the layers use to
//! write into reused buffers) all run one register-tiled kernel. It walks the
//! output in 4-row tiles of 16 (AVX-512 copy only), 8, 4, 2 or 1 columns,
//! holds each tile in registers across the whole `k` loop, and reads the
//! left operand through a (row, column) stride, so `selfᵀ` in
//! `transpose_matmul` is never materialised. `matmul_transpose` transposes
//! its (small, weight-sized) right operand and then runs the same kernel. Rows that do not fill a
//! tile — notably the `1 × d` rows of single-state inference — take a
//! row-axpy path that streams whole rows of the right operand.
//!
//! # Dispatch
//!
//! The kernel body is compiled three times:
//!
//! * for the baseline target, with tiles up to 8 columns wide;
//! * under `#[target_feature(enable = "avx2")]`, with the same tiles;
//! * under `#[target_feature(enable = "avx512f")]`, with 16-column tiles
//!   (`NR` is a const generic of the body) and 8/4/2/1-column tails.
//!
//! Each product picks the AVX-512 copy when
//! `is_x86_feature_detected!("avx512f")` reports support, else the AVX2
//! copy when `avx2` does, else the portable copy. There is no build-time
//! switch. Tile widths change only which elements share registers, never
//! an element's `k` order, so all three copies return the same bits.
//!
//! # Bit-identity contract
//!
//! Every output element is `seed + a₀b₀ + a₁b₁ + … + a₍k₋₁₎b₍k₋₁₎`, with
//! its `k` terms added in ascending order and each product rounded before
//! its add (plain mul-then-add; Rust never contracts to FMA). That is the
//! same sequence of roundings as the textbook triple loop, so tiling,
//! vectorisation and the dispatch choice never change a bit of the result.
//! The seed is `+0.0` for `matmul` and `transpose_matmul` and `-0.0` for
//! `matmul_transpose`, the start value of `Iterator::<f64>::sum`, so the
//! sign of an all-zero dot product is that of the plain loops too.
//!
//! Every term is added, including those with a zero multiplicand: a zero
//! times `±∞` or NaN contributes NaN, so non-finite inputs always
//! propagate to the product. (Skipping zero multiplicands would hide
//! `0·∞`.) Divergence detectors such as `Parameterized::any_non_finite`
//! therefore see every non-finite value that enters a product.

use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::fmt;
use std::ops::{Index, IndexMut};

/// Dense row-major matrix of `f64`.
///
/// # Example
///
/// ```
/// use ect_nn::matrix::Matrix;
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// assert_eq!(a.matmul(&b), a);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// The `0 × 0` matrix, which holds no allocation.
    pub(crate) const fn empty() -> Self {
        Self {
            rows: 0,
            cols: 0,
            data: Vec::new(),
        }
    }

    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have unequal lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "from_rows: no rows");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "from_rows: ragged rows");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Wraps an existing buffer as a matrix.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_vec: size mismatch");
        Self { rows, cols, data }
    }

    /// A `1 × n` row vector.
    pub fn row_vector(values: &[f64]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
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

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat view of the underlying buffer (row-major).
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat view of the underlying buffer (row-major).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {r} out of {}", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row {r} out of {}", self.rows);
        let cols = self.cols;
        &mut self.data[r * cols..(r + 1) * cols]
    }

    /// Copies the given rows into a new matrix (used for minibatching).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (i, &r) in indices.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r));
        }
        out
    }

    /// Matrix product `self × rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::empty();
        self.matmul_into(rhs, &mut out);
        out
    }

    /// [`Matrix::matmul`] written into `out`, reusing its allocation.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.rows`.
    pub(crate) fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul: {}x{} × {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.resize(self.rows, rhs.cols);
        Gemm::product(self, rhs, 0.0).run(&mut out.data);
    }

    /// `selfᵀ × rhs` without materialising the transpose.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != rhs.rows`.
    pub fn transpose_matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::empty();
        self.transpose_matmul_into(rhs, &mut out);
        out
    }

    /// [`Matrix::transpose_matmul`] written into `out`, reusing its
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != rhs.rows`.
    pub(crate) fn transpose_matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, rhs.rows,
            "transpose_matmul: {}x{} ᵀ× {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.resize(self.cols, rhs.cols);
        Gemm::transposed_lhs(self, rhs).run(&mut out.data);
    }

    /// `self × rhsᵀ`.
    ///
    /// `rhs` is transposed into a per-thread scratch buffer first, so it
    /// should be the smaller operand (in the layers, the weight matrix).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.cols`.
    pub fn matmul_transpose(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::empty();
        self.matmul_transpose_into(rhs, &mut out);
        out
    }

    /// [`Matrix::matmul_transpose`] written into `out`, reusing its
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.cols`.
    pub(crate) fn matmul_transpose_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_transpose: {}x{} × {}x{}ᵀ",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.resize(self.rows, rhs.rows);
        TRANSPOSED.with_borrow_mut(|rhs_t| {
            rhs.transpose_into(rhs_t);
            Gemm::product(self, rhs_t, -0.0).run(&mut out.data);
        });
    }

    /// Materialised transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::empty();
        self.transpose_into(&mut out);
        out
    }

    /// [`Matrix::transpose`] written into `out`, reusing its allocation.
    pub(crate) fn transpose_into(&self, out: &mut Matrix) {
        out.resize(self.cols, self.rows);
        for (i, row) in self.data.chunks_exact(self.cols.max(1)).enumerate() {
            for (j, &v) in row.iter().enumerate() {
                out.data[j * self.rows + i] = v;
            }
        }
    }

    /// Reshapes to `rows × cols`, keeping the allocation. Elements that
    /// survive keep their old values and new ones are zero, so callers
    /// that need defined contents overwrite them.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Makes `self` an exact copy of `src`, reusing the allocation.
    pub(crate) fn copy_from(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Element-wise sum; returns a new matrix.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, |a, b| a + b)
    }

    /// Element-wise difference; returns a new matrix.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product; returns a new matrix.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, |a, b| a * b)
    }

    /// Applies `f` pairwise; returns a new matrix.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip_with(&self, rhs: &Matrix, f: impl Fn(f64, f64) -> f64) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "zip_with shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// In-place element-wise `self += rhs`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// In-place `self += scale * rhs`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_scaled(&mut self, rhs: &Matrix, scale: f64) {
        assert_eq!(self.shape(), rhs.shape(), "add_scaled shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += scale * b;
        }
    }

    /// In-place multiplication by a scalar.
    pub fn scale(&mut self, factor: f64) {
        for v in &mut self.data {
            *v *= factor;
        }
    }

    /// New matrix with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix::from_vec(
            self.rows,
            self.cols,
            self.data.iter().map(|&v| f(v)).collect(),
        )
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Adds a `1 × cols` row vector to every row (bias broadcast).
    ///
    /// # Panics
    ///
    /// Panics unless `bias` is `1 × self.cols`.
    pub fn add_row_broadcast(&mut self, bias: &Matrix) {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, self.cols, "bias width mismatch");
        for r in 0..self.rows {
            for (v, &b) in self.row_mut(r).iter_mut().zip(&bias.data) {
                *v += b;
            }
        }
    }

    /// Column-wise sum, producing a `1 × cols` row vector.
    pub fn col_sum(&self) -> Matrix {
        let mut out = Matrix::empty();
        self.col_sum_into(&mut out);
        out
    }

    /// [`Matrix::col_sum`] written into `out`, reusing its allocation.
    pub(crate) fn col_sum_into(&self, out: &mut Matrix) {
        out.resize(1, self.cols);
        out.fill_zero();
        for r in 0..self.rows {
            for (o, &v) in out.data.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is empty.
    pub fn mean(&self) -> f64 {
        assert!(!self.is_empty(), "mean of empty matrix");
        self.sum() / self.len() as f64
    }

    /// Largest absolute element (0 for an empty matrix).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, &v| m.max(v.abs()))
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Concatenates matrices horizontally (same row count).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or row counts differ.
    pub fn hconcat(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "hconcat of nothing");
        let rows = parts[0].rows;
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let mut offset = 0;
            for p in parts {
                assert_eq!(p.rows, rows, "hconcat row mismatch");
                out.row_mut(r)[offset..offset + p.cols].copy_from_slice(p.row(r));
                offset += p.cols;
            }
        }
        out
    }

    /// Splits into horizontal blocks of the given widths (inverse of
    /// [`Matrix::hconcat`]).
    ///
    /// # Panics
    ///
    /// Panics unless the widths sum to `self.cols`.
    pub fn hsplit(&self, widths: &[usize]) -> Vec<Matrix> {
        assert_eq!(
            widths.iter().sum::<usize>(),
            self.cols,
            "hsplit widths must sum to cols"
        );
        let mut out: Vec<Matrix> = widths
            .iter()
            .map(|&w| Matrix::zeros(self.rows, w))
            .collect();
        for r in 0..self.rows {
            let mut offset = 0;
            for (part, &w) in out.iter_mut().zip(widths) {
                part.row_mut(r)
                    .copy_from_slice(&self.row(r)[offset..offset + w]);
                offset += w;
            }
        }
        out
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// `true` if every element is finite.
    ///
    /// This runs on every PPO minibatch as the divergence check, so it
    /// visits every element without stopping early, in a form the compiler
    /// vectorises: `x · 0` is `±0` for every finite `x` and NaN for `±∞`
    /// and NaN, and a NaN stays in a running sum. Each of `LANES`
    /// accumulators sums one residue class of the elements; the tail that
    /// does not fill a chunk is checked directly.
    pub fn all_finite(&self) -> bool {
        const LANES: usize = 8;
        let mut chunks = self.data.chunks_exact(LANES);
        let mut acc = [0.0f64; LANES];
        for chunk in &mut chunks {
            for (a, &v) in acc.iter_mut().zip(chunk) {
                *a += v * 0.0;
            }
        }
        acc.iter().all(|&a| a == 0.0) && chunks.remainder().iter().all(|v| v.is_finite())
    }
}

thread_local! {
    /// `matmul_transpose`'s transposed right operand: one buffer per
    /// thread, so the product allocates nothing once it has grown.
    static TRANSPOSED: RefCell<Matrix> = const { RefCell::new(Matrix::empty()) };
}

/// Rows per register tile.
const MR: usize = 4;
/// Widest tile, in columns, of the portable and AVX2 copies: a 4 × 8 tile
/// fills half of AVX2's sixteen 256-bit registers.
const NR_BASE: usize = 8;
/// Widest tile of the AVX-512 copy: a 4 × 16 tile fills eight of its
/// thirty-two 512-bit registers.
#[cfg(target_arch = "x86_64")]
const NR_AVX512: usize = 16;

/// One product `out = seed + A·B` over borrowed operands.
///
/// `A` is `m × k`, read as `a[i * a_rs + p * a_cs]`; `B` is `k × n`
/// row-major; `out` is `m × n` row-major and fully overwritten. See the
/// module docs for the accumulation-order contract.
#[derive(Clone, Copy)]
struct Gemm<'a> {
    m: usize,
    n: usize,
    k: usize,
    a: &'a [f64],
    a_rs: usize,
    a_cs: usize,
    b: &'a [f64],
    seed: f64,
}

impl<'a> Gemm<'a> {
    /// `seed + a × b`.
    fn product(a: &'a Matrix, b: &'a Matrix, seed: f64) -> Self {
        Self {
            m: a.rows,
            n: b.cols,
            k: a.cols,
            a: &a.data,
            a_rs: a.cols,
            a_cs: 1,
            b: &b.data,
            seed,
        }
    }

    /// `+0.0 + aᵀ × b`, reading `a` through its strides.
    fn transposed_lhs(a: &'a Matrix, b: &'a Matrix) -> Self {
        Self {
            m: a.cols,
            n: b.cols,
            k: a.rows,
            a: &a.data,
            a_rs: 1,
            a_cs: a.cols,
            b: &b.data,
            seed: 0.0,
        }
    }

    /// Runs the product on the best kernel copy the CPU supports.
    fn run(self, out: &mut [f64]) {
        assert_eq!(out.len(), self.m * self.n, "gemm output size");
        assert_eq!(self.b.len(), self.k * self.n, "gemm rhs size");
        if self.m > 0 && self.k > 0 {
            let last = (self.m - 1) * self.a_rs + (self.k - 1) * self.a_cs;
            assert!(last < self.a.len(), "gemm lhs size");
        }
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: the running CPU supports AVX-512F (detected just
                // above).
                unsafe { self.run_avx512(out) };
                return;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: the running CPU supports AVX2 (detected just above).
                unsafe { self.run_avx2(out) };
                return;
            }
        }
        self.run_portable(out);
    }

    /// The kernel compiled for the baseline target.
    fn run_portable(self, out: &mut [f64]) {
        self.body::<NR_BASE>(out);
    }

    /// The same kernel compiled with AVX2 enabled.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn run_avx2(self, out: &mut [f64]) {
        self.body::<NR_BASE>(out);
    }

    /// The same kernel compiled with AVX-512F enabled, on 16-column tiles.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    fn run_avx512(self, out: &mut [f64]) {
        self.body::<NR_AVX512>(out);
    }

    /// Tiles of `NR` columns, then one each of 8, 4, 2 and 1 as the
    /// remaining width allows (the 8 only when `NR` is wider).
    #[inline(always)]
    fn body<const NR: usize>(self, out: &mut [f64]) {
        let n = self.n;
        let tiled_rows = self.m - self.m % MR;
        for i0 in (0..tiled_rows).step_by(MR) {
            let mut j0 = 0;
            while j0 + NR <= n {
                self.tile::<NR>(out, i0, j0);
                j0 += NR;
            }
            if NR > 8 && j0 + 8 <= n {
                self.tile::<8>(out, i0, j0);
                j0 += 8;
            }
            if j0 + 4 <= n {
                self.tile::<4>(out, i0, j0);
                j0 += 4;
            }
            if j0 + 2 <= n {
                self.tile::<2>(out, i0, j0);
                j0 += 2;
            }
            if j0 < n {
                self.tile::<1>(out, i0, j0);
            }
        }
        for i in tiled_rows..self.m {
            self.row_axpy(i, &mut out[i * n..(i + 1) * n]);
        }
    }

    /// Output rows `i0..i0 + MR`, columns `j0..j0 + W`, accumulated in
    /// registers over ascending `p`.
    #[inline(always)]
    fn tile<const W: usize>(self, out: &mut [f64], i0: usize, j0: usize) {
        let mut acc = [[self.seed; W]; MR];
        for p in 0..self.k {
            let start = p * self.n + j0;
            let b: &[f64; W] = self.b[start..start + W].try_into().expect("tile width");
            let a_p = p * self.a_cs;
            for (r, acc_row) in acc.iter_mut().enumerate() {
                let a = self.a[(i0 + r) * self.a_rs + a_p];
                for (o, &b) in acc_row.iter_mut().zip(b) {
                    *o += a * b;
                }
            }
        }
        for (r, acc_row) in acc.iter().enumerate() {
            let start = (i0 + r) * self.n + j0;
            out[start..start + W].copy_from_slice(acc_row);
        }
    }

    /// One output row as `k` ascending axpys of `B`'s rows.
    #[inline(always)]
    fn row_axpy(self, i: usize, out_row: &mut [f64]) {
        out_row.fill(self.seed);
        for p in 0..self.k {
            let a = self.a[i * self.a_rs + p * self.a_cs];
            let b_row = &self.b[p * self.n..(p + 1) * self.n];
            for (o, &b) in out_row.iter_mut().zip(b_row) {
                *o += a * b;
            }
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:9.4} ", self[(r, c)])?;
            }
            if self.cols > 8 {
                write!(f, "…")?;
            }
            writeln!(f)?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ect_types::rng::EctRng;
    use proptest::prelude::*;

    fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
        // Cheap deterministic pseudo-values; good enough for algebra tests.
        let data = (0..rows * cols)
            .map(|i| {
                let x = (i as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(seed);
                ((x >> 33) as f64 / (1u64 << 31) as f64) - 0.5
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    #[test]
    fn identity_is_neutral() {
        let a = mat(3, 3, 1);
        assert_eq!(a.matmul(&Matrix::identity(3)), a);
        assert_eq!(Matrix::identity(3).matmul(&a), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn transpose_variants_agree_with_explicit_transpose() {
        let a = mat(4, 3, 2);
        let b = mat(4, 5, 3);
        assert_eq!(a.transpose_matmul(&b), a.transpose().matmul(&b));
        let c = mat(6, 3, 4);
        assert_eq!(a.matmul_transpose(&c), a.matmul(&c.transpose()));
    }

    #[test]
    fn transpose_is_involution() {
        let a = mat(3, 7, 5);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn hconcat_hsplit_round_trip() {
        let a = mat(3, 2, 6);
        let b = mat(3, 4, 7);
        let joined = Matrix::hconcat(&[&a, &b]);
        assert_eq!(joined.shape(), (3, 6));
        let parts = joined.hsplit(&[2, 4]);
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
    }

    #[test]
    fn col_sum_matches_manual() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(a.col_sum(), Matrix::row_vector(&[9.0, 12.0]));
    }

    #[test]
    fn bias_broadcast_adds_to_every_row() {
        let mut a = Matrix::zeros(3, 2);
        a.add_row_broadcast(&Matrix::row_vector(&[1.0, -1.0]));
        for r in 0..3 {
            assert_eq!(a.row(r), &[1.0, -1.0]);
        }
    }

    #[test]
    fn gather_rows_picks_rows() {
        let a = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0]]);
        let g = a.gather_rows(&[3, 1]);
        assert_eq!(g, Matrix::from_rows(&[&[3.0], &[1.0]]));
    }

    #[test]
    fn scalar_helpers() {
        let a = Matrix::from_rows(&[&[3.0, -4.0]]);
        assert_eq!(a.sum(), -1.0);
        assert_eq!(a.mean(), -0.5);
        assert_eq!(a.max_abs(), 4.0);
        assert_eq!(a.frobenius_norm(), 5.0);
    }

    #[test]
    fn map_and_zip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        assert_eq!(a.map(|v| v * v), Matrix::from_rows(&[&[1.0, 4.0]]));
        let b = Matrix::from_rows(&[&[10.0, 20.0]]);
        assert_eq!(a.add(&b), Matrix::from_rows(&[&[11.0, 22.0]]));
        assert_eq!(b.sub(&a), Matrix::from_rows(&[&[9.0, 18.0]]));
        assert_eq!(a.hadamard(&b), Matrix::from_rows(&[&[10.0, 40.0]]));
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut a = Matrix::zeros(2, 2);
        assert!(a.all_finite());
        a[(1, 1)] = f64::NAN;
        assert!(!a.all_finite());
    }

    #[test]
    fn all_finite_checks_every_position() {
        // Lengths below, at and past whole chunks, so the bad value lands
        // in a chunk lane and in the tail; subnormals and extremes of
        // either sign are finite.
        let finite = [
            f64::from_bits(1),
            -f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MAX,
            -0.0,
        ];
        assert!(Matrix::empty().all_finite());
        for len in 1..=20 {
            let clean = Matrix::from_vec(1, len, (0..len).map(|i| finite[i % 4]).collect());
            assert!(clean.all_finite(), "len {len}");
            for pos in 0..len {
                for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                    let mut m = clean.clone();
                    m[(0, pos)] = bad;
                    assert!(!m.all_finite(), "len {len}, {bad} at {pos}");
                }
            }
        }
    }

    /// Operand entries for the bit-identity properties: exact zeros of both
    /// signs, magnitudes whose products underflow to a signed zero, and
    /// ordinary values.
    fn edge_value(rng: &mut EctRng) -> f64 {
        match rng.below(8) {
            0 => 0.0,
            1 => -0.0,
            2 => 1e-170 * if rng.uniform() < 0.5 { -1.0 } else { 1.0 },
            _ => rng.uniform_in(-2.0, 2.0),
        }
    }

    fn edge_matrix(rows: usize, cols: usize, rng: &mut EctRng) -> Matrix {
        let data = (0..rows * cols).map(|_| edge_value(rng)).collect();
        Matrix::from_vec(rows, cols, data)
    }

    /// The original scalar loops, kept as the reference: `matmul` and
    /// `transpose_matmul` accumulated from `+0.0` and skipped zero left
    /// entries (which cannot change a finite sum), `matmul_transpose`
    /// summed each dot product with `Iterator::sum`.
    fn reference_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows, b.cols);
        for i in 0..a.rows {
            for k in 0..a.cols {
                let a_ik = a[(i, k)];
                if a_ik == 0.0 {
                    continue;
                }
                for j in 0..b.cols {
                    out[(i, j)] += a_ik * b[(k, j)];
                }
            }
        }
        out
    }

    fn reference_transpose_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.cols, b.cols);
        for r in 0..a.rows {
            for i in 0..a.cols {
                let a_ri = a[(r, i)];
                if a_ri == 0.0 {
                    continue;
                }
                for j in 0..b.cols {
                    out[(i, j)] += a_ri * b[(r, j)];
                }
            }
        }
        out
    }

    fn reference_matmul_transpose(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows, b.rows);
        for i in 0..a.rows {
            for j in 0..b.rows {
                out[(i, j)] = a.row(i).iter().zip(b.row(j)).map(|(x, y)| x * y).sum();
            }
        }
        out
    }

    fn bits(m: &[f64]) -> Vec<u64> {
        m.iter().map(|v| v.to_bits()).collect()
    }

    /// Runs one product on every kernel copy directly, bypassing the
    /// runtime dispatch. Each entry is the copy's name and its output, or
    /// `None` where the CPU lacks the copy's feature.
    fn all_kernels(gemm: Gemm<'_>) -> [(&'static str, Option<Vec<f64>>); 3] {
        let run = |copy: &dyn Fn(&mut [f64])| {
            let mut out = vec![f64::NAN; gemm.m * gemm.n];
            copy(&mut out);
            out
        };
        #[cfg(target_arch = "x86_64")]
        let (avx2, avx512) = (
            std::arch::is_x86_feature_detected!("avx2").then(|| {
                // SAFETY: AVX2 support was just detected at runtime.
                run(&|out| unsafe { gemm.run_avx2(out) })
            }),
            std::arch::is_x86_feature_detected!("avx512f").then(|| {
                // SAFETY: AVX-512F support was just detected at runtime.
                run(&|out| unsafe { gemm.run_avx512(out) })
            }),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let (avx2, avx512) = (None, None);
        [
            ("portable", Some(run(&|out| gemm.run_portable(out)))),
            ("avx2", avx2),
            ("avx512", avx512),
        ]
    }

    /// All three products of `a` (`m × k`) against `b_kn` (`k × n`),
    /// `a_km` (`k × m`) and `b_nk` (`n × k`) match the reference loops bit
    /// for bit, through the dispatching entry points and through each
    /// kernel copy called directly.
    fn assert_products_bit_identical(m: usize, n: usize, k: usize, seed: u64) {
        let mut rng = EctRng::seed_from(seed);
        let a = edge_matrix(m, k, &mut rng);
        let a_km = edge_matrix(k, m, &mut rng);
        let b_kn = edge_matrix(k, n, &mut rng);
        let b_nk = edge_matrix(n, k, &mut rng);
        let b_nk_t = b_nk.transpose();
        let cases = [
            (
                "matmul",
                a.matmul(&b_kn),
                reference_matmul(&a, &b_kn),
                Gemm::product(&a, &b_kn, 0.0),
            ),
            (
                "transpose_matmul",
                a_km.transpose_matmul(&b_kn),
                reference_transpose_matmul(&a_km, &b_kn),
                Gemm::transposed_lhs(&a_km, &b_kn),
            ),
            (
                "matmul_transpose",
                a.matmul_transpose(&b_nk),
                reference_matmul_transpose(&a, &b_nk),
                Gemm::product(&a, &b_nk_t, -0.0),
            ),
        ];
        for (name, got, want, gemm) in cases {
            let shape = format!("{name} m={m} n={n} k={k} seed={seed}");
            assert_eq!(got.shape(), want.shape(), "{shape}");
            assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "{shape}");
            for (copy, out) in all_kernels(gemm) {
                if let Some(out) = out {
                    assert_eq!(bits(&out), bits(want.as_slice()), "{shape} {copy}");
                }
            }
        }
    }

    #[test]
    fn products_cover_every_tile_shape() {
        let copies = all_kernels(Gemm::product(
            &Matrix::zeros(1, 1),
            &Matrix::zeros(1, 1),
            0.0,
        ));
        // Name the copies this CPU ran and skipped, so a runner without a
        // feature shows as missing coverage rather than a silent pass.
        let names = |ran: bool| {
            let copies = copies.iter().filter(|c| c.1.is_some() == ran);
            copies.map(|c| c.0).collect::<Vec<_>>()
        };
        eprintln!(
            "products_cover_every_tile_shape: GEMM kernel copies run: {:?}; \
             skipped (CPU lacks them): {:?}",
            names(true),
            names(false)
        );
        // Row counts below, at and past the 4-row tile; column counts that
        // exercise every tile width (16, 8, 4, 2, 1) and their remainders.
        for m in [1, 3, 4, 5, 9] {
            for n in 1..=40 {
                for k in [0, 1, 121] {
                    assert_products_bit_identical(m, n, k, (m * 100 + n) as u64);
                }
            }
        }
    }

    #[test]
    fn all_zero_dot_products_keep_their_sign() {
        // An all-`-0.0` product sum is `+0.0` from `matmul` but `-0.0` from
        // `matmul_transpose`, whose loop started at `Iterator::sum`'s seed.
        let a = Matrix::from_rows(&[&[0.0, -0.0]]);
        let b = Matrix::from_rows(&[&[-1.0], &[1.0]]);
        assert_eq!(a.matmul(&b)[(0, 0)].to_bits(), 0.0f64.to_bits());
        let bt = b.transpose();
        assert_eq!(
            a.matmul_transpose(&bt)[(0, 0)].to_bits(),
            (-0.0f64).to_bits()
        );
    }

    #[test]
    fn zero_times_infinity_propagates() {
        // Every term enters the sum, so a zero input cannot mask an
        // infinite weight.
        let x = Matrix::from_rows(&[&[0.0, 1.0]]);
        let w = Matrix::from_rows(&[&[f64::INFINITY], &[2.0]]);
        assert!(x.matmul(&w)[(0, 0)].is_nan());
        assert!(x.transpose().transpose_matmul(&w)[(0, 0)].is_nan());
        assert!(x.matmul_transpose(&w.transpose())[(0, 0)].is_nan());
    }

    #[test]
    fn into_variants_reuse_and_reshape_buffers() {
        let a = mat(5, 7, 11);
        let b = mat(7, 3, 12);
        let mut out = Matrix::filled(9, 9, f64::NAN);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
        a.transpose_matmul_into(&mat(5, 2, 13), &mut out);
        assert_eq!(out, a.transpose_matmul(&mat(5, 2, 13)));
        a.matmul_transpose_into(&mat(4, 7, 14), &mut out);
        assert_eq!(out, a.matmul_transpose(&mat(4, 7, 14)));
        let mut t = Matrix::empty();
        a.transpose_into(&mut t);
        assert_eq!(t, a.transpose());
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_rejects_bad_shapes() {
        let _ = mat(2, 3, 0).matmul(&mat(2, 3, 1));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_rejects_ragged() {
        let _ = Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn matmul_is_associative(seed in 0u64..1000) {
            let a = mat(3, 4, seed);
            let b = mat(4, 5, seed + 1);
            let c = mat(5, 2, seed + 2);
            let left = a.matmul(&b).matmul(&c);
            let right = a.matmul(&b.matmul(&c));
            let diff = left.sub(&right).max_abs();
            prop_assert!(diff < 1e-9, "diff {diff}");
        }

        #[test]
        fn matmul_distributes_over_add(seed in 0u64..1000) {
            let a = mat(3, 4, seed);
            let b = mat(4, 2, seed + 1);
            let c = mat(4, 2, seed + 2);
            let left = a.matmul(&b.add(&c));
            let right = a.matmul(&b).add(&a.matmul(&c));
            prop_assert!(left.sub(&right).max_abs() < 1e-9);
        }

        #[test]
        fn add_scaled_matches_add(seed in 0u64..1000) {
            let a = mat(3, 3, seed);
            let b = mat(3, 3, seed + 1);
            let mut x = a.clone();
            x.add_scaled(&b, 1.0);
            prop_assert!(x.sub(&a.add(&b)).max_abs() < 1e-12);
        }

        #[test]
        fn products_are_bit_identical_to_the_reference(
            mi in 0usize..5,
            n in 1usize..70,
            ki in 0usize..2,
            seed in 0u64..1_000_000,
        ) {
            let m = [1, 3, 4, 5, 9][mi];
            let k = [1, 121][ki];
            assert_products_bit_identical(m, n, k, seed);
        }

        #[test]
        fn hsplit_parts_have_requested_widths(w1 in 1usize..5, w2 in 1usize..5, rows in 1usize..5) {
            let m = mat(rows, w1 + w2, 9);
            let parts = m.hsplit(&[w1, w2]);
            prop_assert_eq!(parts[0].shape(), (rows, w1));
            prop_assert_eq!(parts[1].shape(), (rows, w2));
        }
    }
}
