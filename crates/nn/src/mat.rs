//! A minimal dense `f32` matrix for batched neural-network math.
//!
//! Row-major storage; rows index batch elements, columns index features.
//! Only the operations the training stack needs are provided — this is not a
//! general linear-algebra library.

use std::cell::RefCell;

/// Dense row-major matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Mat {
    /// Creates a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match {rows}x{cols}",
            data.len()
        );
        Mat { rows, cols, data }
    }

    /// Creates a 1-row matrix from a slice (a single observation/action).
    pub fn from_row(row: &[f32]) -> Self {
        Mat::from_vec(1, row.len(), row.to_vec())
    }

    /// Number of rows (batch size).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (features).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of the raw row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the raw row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Replaces every non-finite entry (NaN, ±∞) with zero and returns how
    /// many entries were replaced. A no-op scan on healthy data — used as a
    /// numeric guard at network entry points so one poisoned sensor value
    /// cannot propagate through a forward or backward pass.
    pub fn sanitize_nonfinite(&mut self) -> usize {
        let mut replaced = 0;
        for v in &mut self.data {
            if !v.is_finite() {
                *v = 0.0;
                replaced += 1;
            }
        }
        replaced
    }

    /// Reshapes the matrix in place to `rows x cols`, reusing the existing
    /// allocation where possible. Element contents are unspecified after the
    /// call — callers are expected to overwrite every entry (or use
    /// [`Mat::fill`] first). Intended for scratch buffers on hot paths.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Sets every element to `v`.
    pub fn fill(&mut self, v: f32) {
        self.data.iter_mut().for_each(|x| *x = v);
    }

    /// Makes `self` an element-wise copy of `other`, reusing the existing
    /// allocation where possible.
    pub fn copy_from(&mut self, other: &Mat) {
        self.resize(other.rows, other.cols);
        self.data.copy_from_slice(&other.data);
    }

    /// Makes `self` a 1-row copy of `row` (allocation-free [`Mat::from_row`]).
    pub fn copy_from_row(&mut self, row: &[f32]) {
        self.resize(1, row.len());
        self.data.copy_from_slice(row);
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// One row as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// One row as a mutable slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self @ other` — standard matrix product.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Mat) -> Mat {
        let mut out = Mat::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// `self @ other` written into `out` (resized and overwritten) —
    /// allocation-free when `out`'s buffer is already large enough.
    ///
    /// Backed by the register-tiled kernel ([`gemm_acc`]): independent
    /// accumulators per output tile break the FP latency chain while every
    /// output element still folds its products in ascending-`k` order with
    /// one fused multiply-add per product, so results are independent of
    /// tiling and repeated calls are exactly deterministic. Note
    /// non-finite inputs propagate: `0.0 * NaN` is `NaN` here (use
    /// [`Mat::sanitize_nonfinite`] to guard entry points).
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul_into(&self, other: &Mat, out: &mut Mat) {
        assert_eq!(
            self.cols, other.rows,
            "matmul inner dims: {}x{} @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        out.resize(self.rows, other.cols);
        out.fill(0.0);
        gemm_acc(
            self.rows,
            self.cols,
            other.cols,
            &self.data,
            &other.data,
            &mut out.data,
        );
    }

    /// `self @ other^T` — product with the transpose of `other`, the common
    /// shape for `x @ W^T` linear layers without materializing a transpose.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.cols`.
    pub fn matmul_nt(&self, other: &Mat) -> Mat {
        let mut out = Mat::zeros(self.rows, other.rows);
        self.matmul_nt_into(other, &mut out);
        out
    }

    /// `self @ other^T` written into `out` via a thread-local pack buffer —
    /// see [`Mat::matmul_nt_into_with`] for the caller-owned-scratch form.
    /// Allocation-free once the thread's pack buffer has warmed up.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.cols`.
    pub fn matmul_nt_into(&self, other: &Mat, out: &mut Mat) {
        PACK.with(|p| self.matmul_nt_into_with(other, &mut p.borrow_mut(), out));
    }

    /// `self @ other^T` written into `out` (resized and overwritten),
    /// packing `other^T` into the caller-owned `pack` scratch so the one
    /// register-tiled row-major kernel does all the work. The transposed
    /// dot-product loop this replaces was latency-bound on a single
    /// accumulator chain (~3x slower than the plain layout at 64x64).
    ///
    /// Per output element the products still accumulate in ascending
    /// shared-dimension order, so results are bit-identical to the explicit
    /// `self @ transpose(other)` product. Batches of fewer than [`TILE`]
    /// rows skip the pack (it cannot amortize) and use a direct dot-product
    /// sweep with the same accumulation order.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.cols`.
    pub fn matmul_nt_into_with(&self, other: &Mat, pack: &mut Mat, out: &mut Mat) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt dims: {}x{} @ ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        out.resize(self.rows, other.rows);
        if self.rows < TILE {
            nt_dot(self, other, out);
            return;
        }
        other.transpose_into(pack);
        out.fill(0.0);
        gemm_acc(
            self.rows,
            self.cols,
            other.rows,
            &self.data,
            &pack.data,
            &mut out.data,
        );
    }

    /// `self^T @ other` — used for weight-gradient accumulation
    /// (`x^T @ grad_out`).
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != other.rows`.
    pub fn matmul_tn(&self, other: &Mat) -> Mat {
        let mut out = Mat::zeros(self.cols, other.cols);
        self.matmul_tn_acc(other, &mut out);
        out
    }

    /// `acc += self^T @ other` via a thread-local pack buffer — see
    /// [`Mat::matmul_tn_acc_with`] for the caller-owned-scratch form.
    /// Allocation-free once the thread's pack buffer has warmed up.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != other.rows` or `acc` is not
    /// `self.cols x other.cols`.
    pub fn matmul_tn_acc(&self, other: &Mat, acc: &mut Mat) {
        PACK.with(|p| self.matmul_tn_acc_with(other, &mut p.borrow_mut(), acc));
    }

    /// `acc += self^T @ other` — accumulates the weight-gradient product
    /// directly into an existing matrix (e.g. `grad_w`), packing `self^T`
    /// into the caller-owned `pack` scratch and reusing the register-tiled
    /// kernel. Avoids the temporary that `add_assign(&a.matmul_tn(b))`
    /// would allocate.
    ///
    /// Per output element the batch-row products accumulate in ascending
    /// order into a register before one add folds them into `acc`, so the
    /// result matches the naive loop bit-for-bit when `acc` starts at zero.
    /// Outputs narrower than [`TILE`] rows skip the pack and use a direct
    /// broadcast sweep with the same accumulation order.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != other.rows` or `acc` is not
    /// `self.cols x other.cols`.
    pub fn matmul_tn_acc_with(&self, other: &Mat, pack: &mut Mat, acc: &mut Mat) {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn dims: ({}x{})^T @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            (acc.rows, acc.cols),
            (self.cols, other.cols),
            "matmul_tn_acc accumulator shape"
        );
        if self.cols < TILE {
            tn_broadcast(self, other, acc);
            return;
        }
        self.transpose_into(pack);
        gemm_acc(
            self.cols,
            self.rows,
            other.cols,
            &pack.data,
            &other.data,
            &mut acc.data,
        );
    }

    /// Writes `self^T` into `out` (resized; reuses `out`'s buffer). This is
    /// the pack step that lets the transposed products share the plain
    /// row-major kernel. Walked in 32x32 blocks so the strided side stays
    /// cache-resident — the naive row sweep thrashed one cache line per
    /// element once the matrix outgrew L1 and cost more than the GEMM it
    /// fed at inference shapes.
    pub fn transpose_into(&self, out: &mut Mat) {
        out.resize(self.cols, self.rows);
        const BT: usize = 32;
        let mut rb = 0;
        while rb < self.rows {
            let rend = (rb + BT).min(self.rows);
            let mut cb = 0;
            while cb < self.cols {
                let cend = (cb + BT).min(self.cols);
                for r in rb..rend {
                    let row = &self.data[r * self.cols..(r + 1) * self.cols];
                    for (c, &v) in row.iter().enumerate().take(cend).skip(cb) {
                        out.data[c * self.rows + r] = v;
                    }
                }
                cb = cend;
            }
            rb = rend;
        }
    }

    /// `self @ other^T + bias` (row broadcast) with a caller-supplied
    /// pre-packed transpose of `other` — the inference fast path behind
    /// [`crate::batch::BatchPolicy`]. `other_t` must be `other^T` (pack it
    /// once with [`Mat::transpose_into`] while the weights are frozen);
    /// skipping the per-call pack is what makes wide batched inference
    /// amortize.
    ///
    /// Bit-identical to `matmul_nt_into` followed by `add_row_broadcast`:
    /// inside the tiled interior the bias seeds the output and the tile
    /// fold lands on top (`bias + acc` vs `acc + bias` — IEEE addition
    /// commutes bitwise), while remainder rows/columns and the small-batch
    /// GEMV path ([`gemv_packed`], every batch of fewer than [`TILE`]
    /// rows — serial batch-1 inference included) accumulate from zero and
    /// add the bias afterwards, exactly as the unpacked pipeline does.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch between `self`, `other`, `other_t`, or
    /// `bias`.
    pub fn matmul_nt_prepacked_bias_into(
        &self,
        other: &Mat,
        other_t: &Mat,
        bias: &[f32],
        out: &mut Mat,
    ) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt dims: {}x{} @ ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            (other_t.rows, other_t.cols),
            (other.cols, other.rows),
            "other_t is not other transposed"
        );
        assert_eq!(bias.len(), other.rows, "bias length");
        out.resize(self.rows, other.rows);
        let (m, n) = (self.rows, other.rows);
        if m < TILE {
            gemv_packed(self.cols, n, &self.data, &other_t.data, &mut out.data);
            out.add_row_broadcast(bias);
            return;
        }
        // Tiled interior: seed with the bias so the tile fold adds on top.
        // Remainder rows/columns start at zero (the row-tail kernel folds
        // products straight into the output, so a bias seed there would
        // sit under the accumulation chain instead of on top of it) and
        // get the bias in a second pass below. `j_main` is the column
        // extent the wide + narrow tile tiers cover (see [`gemm_acc`]).
        let i_main = m - m % TILE;
        let j_wide = n - n % NTILE;
        let j_main = j_wide + (n - j_wide) / NTILE_NARROW * NTILE_NARROW;
        for r in 0..m {
            let dst = &mut out.data[r * n..(r + 1) * n];
            if r < i_main {
                dst[..j_main].copy_from_slice(&bias[..j_main]);
                dst[j_main..].iter_mut().for_each(|v| *v = 0.0);
            } else {
                dst.iter_mut().for_each(|v| *v = 0.0);
            }
        }
        gemm_acc(m, self.cols, n, &self.data, &other_t.data, &mut out.data);
        for r in 0..m {
            let dst = &mut out.data[r * n..(r + 1) * n];
            if r < i_main {
                for (o, &b) in dst[j_main..].iter_mut().zip(&bias[j_main..]) {
                    *o += b;
                }
            } else {
                for (o, &b) in dst.iter_mut().zip(bias) {
                    *o += b;
                }
            }
        }
    }

    /// Element-wise in-place map.
    pub fn map_inplace<F: FnMut(f32) -> f32>(&mut self, mut f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Element-wise addition in place.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Mat) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Adds `row` to every row of the matrix (bias broadcast).
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.cols`.
    pub fn add_row_broadcast(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.cols);
        for r in 0..self.rows {
            let dst = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (d, &b) in dst.iter_mut().zip(row) {
                *d += b;
            }
        }
    }

    /// Sum over rows, returning a `cols`-length vector (bias gradients).
    pub fn sum_rows(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.cols];
        for r in 0..self.rows {
            for (o, &v) in out.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        out
    }

    /// Horizontal concatenation `[self | other]`.
    ///
    /// # Panics
    ///
    /// Panics if row counts differ.
    pub fn hcat(&self, other: &Mat) -> Mat {
        let mut out = Mat::default();
        self.hcat_into(other, &mut out);
        out
    }

    /// Horizontal concatenation `[self | other]` written into `out`
    /// (resized and overwritten) — allocation-free [`Mat::hcat`] once the
    /// buffer has warmed up.
    ///
    /// # Panics
    ///
    /// Panics if row counts differ.
    pub fn hcat_into(&self, other: &Mat, out: &mut Mat) {
        assert_eq!(self.rows, other.rows, "hcat needs equal row counts");
        out.resize(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            let dst = out.row_mut(r);
            dst[..self.cols].copy_from_slice(self.row(r));
            dst[self.cols..].copy_from_slice(other.row(r));
        }
    }

    /// Splits columns at `at`, returning `(left, right)`.
    ///
    /// # Panics
    ///
    /// Panics if `at > self.cols`.
    pub fn split_cols(&self, at: usize) -> (Mat, Mat) {
        assert!(at <= self.cols);
        let mut left = Mat::zeros(self.rows, at);
        let mut right = Mat::zeros(self.rows, self.cols - at);
        for r in 0..self.rows {
            left.row_mut(r).copy_from_slice(&self.row(r)[..at]);
            right.row_mut(r).copy_from_slice(&self.row(r)[at..]);
        }
        (left, right)
    }

    /// Mean of all elements (e.g. of a column of losses).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f32>() / self.data.len() as f32
        }
    }
}

/// An empty `0x0` matrix — the natural seed for scratch buffers that are
/// resized on first use.
impl Default for Mat {
    fn default() -> Self {
        Mat::zeros(0, 0)
    }
}

/// Row height of the register-blocked GEMM output tile (also the
/// minimum operand extent for the pack-and-tile paths to pay off).
pub const TILE: usize = 4;

thread_local! {
    /// Pack buffer behind the scratch-free [`Mat::matmul_nt_into`] /
    /// [`Mat::matmul_tn_acc`] entry points. Thread-local so parallel
    /// experiment workers never contend; its capacity persists across
    /// calls, so steady-state packing allocates nothing.
    static PACK: RefCell<Mat> = const {
        RefCell::new(Mat {
            rows: 0,
            cols: 0,
            data: Vec::new(),
        })
    };
}

/// Column width of the GEMM micro-kernel (two 16-lane vectors per row).
const NTILE: usize = 32;

/// Column width of the narrow middle tier of [`gemm_acc`], covering
/// outputs (and column remainders) too narrow for a full [`NTILE`] strip —
/// e.g. the `(batch, 2*action_dim)` policy head. Without it those columns
/// fall to the row-tail sweep, whose per-`k` store/reload of the output
/// row serializes on store-forwarding latency (~6 cycles per step) and
/// made the 4-wide head layer cost as much as the 128-wide hidden layer.
const NTILE_NARROW: usize = 4;

/// `out += a @ b` for row-major `m x k` / `k x n` / `m x n` slices — the
/// one hot GEMM kernel every matmul variant funnels into.
///
/// The output is walked in 4x32 tiles ([`TILE`] rows by [`NTILE`]
/// columns); each tile keeps 128 independent register accumulators (eight
/// 16-lane AVX-512 vectors when the target has them), so the per-element
/// FP latency chain never serializes across tile lanes, and the inner
/// loop is written as a zip over `b`'s rows with fixed-size
/// `[f32; NTILE]` loads so the compiler can keep it branch- and
/// bounds-check-free. Each element's products are folded in ascending-`k`
/// order into its own accumulator with an explicit `f32::mul_add` — one
/// rounding per product, the same on every ISA (hardware FMA where
/// available, exact software fallback otherwise) — then one add folds the
/// tile into `out`. Every kernel in this module uses the same fused
/// ascending-`k` fold, which keeps results independent of tiling and
/// batch width and bit-identical run to run. Shape checks are
/// `debug_assert!` only — the public `Mat` methods have already validated
/// dimensions.
fn gemm_acc(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k, "gemm_acc: a is not m x k");
    debug_assert_eq!(b.len(), k * n, "gemm_acc: b is not k x n");
    debug_assert_eq!(out.len(), m * n, "gemm_acc: out is not m x n");
    if k == 0 || n == 0 {
        return;
    }
    let mut i = 0;
    while i + TILE <= m {
        // Four A-row slices of exactly k elements: in-bounds by
        // construction, so the zipped loads below need no checks.
        let a0 = &a[i * k..(i + 1) * k];
        let a1 = &a[(i + 1) * k..(i + 2) * k];
        let a2 = &a[(i + 2) * k..(i + 3) * k];
        let a3 = &a[(i + 3) * k..(i + 4) * k];
        let mut j = 0;
        while j + NTILE <= n {
            let mut c0 = [0.0f32; NTILE];
            let mut c1 = [0.0f32; NTILE];
            let mut c2 = [0.0f32; NTILE];
            let mut c3 = [0.0f32; NTILE];
            for ((((brow, &x0), &x1), &x2), &x3) in
                b.chunks_exact(n).zip(a0).zip(a1).zip(a2).zip(a3)
            {
                let bp: &[f32; NTILE] = brow[j..j + NTILE].try_into().expect("NTILE-wide strip");
                for t in 0..NTILE {
                    c0[t] = x0.mul_add(bp[t], c0[t]);
                    c1[t] = x1.mul_add(bp[t], c1[t]);
                    c2[t] = x2.mul_add(bp[t], c2[t]);
                    c3[t] = x3.mul_add(bp[t], c3[t]);
                }
            }
            for (r, acc) in [c0, c1, c2, c3].iter().enumerate() {
                let dst = &mut out[(i + r) * n + j..(i + r) * n + j + NTILE];
                for t in 0..NTILE {
                    dst[t] += acc[t];
                }
            }
            j += NTILE;
        }
        while j + NTILE_NARROW <= n {
            let mut c0 = [0.0f32; NTILE_NARROW];
            let mut c1 = [0.0f32; NTILE_NARROW];
            let mut c2 = [0.0f32; NTILE_NARROW];
            let mut c3 = [0.0f32; NTILE_NARROW];
            for ((((brow, &x0), &x1), &x2), &x3) in
                b.chunks_exact(n).zip(a0).zip(a1).zip(a2).zip(a3)
            {
                let bp: &[f32; NTILE_NARROW] =
                    brow[j..j + NTILE_NARROW].try_into().expect("narrow strip");
                for t in 0..NTILE_NARROW {
                    c0[t] = x0.mul_add(bp[t], c0[t]);
                    c1[t] = x1.mul_add(bp[t], c1[t]);
                    c2[t] = x2.mul_add(bp[t], c2[t]);
                    c3[t] = x3.mul_add(bp[t], c3[t]);
                }
            }
            for (r, acc) in [c0, c1, c2, c3].iter().enumerate() {
                let dst = &mut out[(i + r) * n + j..(i + r) * n + j + NTILE_NARROW];
                for t in 0..NTILE_NARROW {
                    dst[t] += acc[t];
                }
            }
            j += NTILE_NARROW;
        }
        if j < n {
            for (r, a_row) in [a0, a1, a2, a3].iter().enumerate() {
                gemm_acc_row_tail(k, n, a_row, b, &mut out[(i + r) * n..(i + r + 1) * n], j);
            }
        }
        i += TILE;
    }
    while i < m {
        gemm_acc_row_tail(
            k,
            n,
            &a[i * k..(i + 1) * k],
            b,
            &mut out[i * n..(i + 1) * n],
            0,
        );
        i += 1;
    }
}

/// Remainder path of [`gemm_acc`]: one output row, columns `j0..n`, as a
/// plain i-k-j sweep with the same fused ascending-`k` accumulation order.
fn gemm_acc_row_tail(k: usize, n: usize, a_row: &[f32], b: &[f32], out_row: &mut [f32], j0: usize) {
    for (p, &av) in a_row.iter().enumerate().take(k) {
        let b_row = &b[p * n + j0..(p + 1) * n];
        for (o, &bv) in out_row[j0..].iter_mut().zip(b_row) {
            *o = av.mul_add(bv, *o);
        }
    }
}

/// Independent output chains per pass of [`nt_dot`].
const NT_CHAINS: usize = 8;

/// Small-batch `self @ other^T` over the unpacked weights: direct dot
/// products with the same fused ascending-order fold as [`gemm_acc`],
/// one chain per output starting at zero and stored — this is what keeps
/// 1-row inference bit-identical to the wide batched path. Used when
/// there are too few rows for the pack-and-tile path to pay for the
/// transpose, i.e. by networks whose weights are still training (a
/// frozen policy goes through [`gemv_packed`] instead).
///
/// A single dot product is latency-bound: each fused multiply-add waits
/// on the previous one. So [`NT_CHAINS`] outputs advance together, each
/// on its own accumulator, which lets that many FMAs overlap without
/// changing any output's fold order.
fn nt_dot(a: &Mat, other: &Mat, out: &mut Mat) {
    let (k, n) = (a.cols, other.rows);
    if k == 0 {
        out.fill(0.0);
        return;
    }
    let blocked = n - n % NT_CHAINS;
    for i in 0..a.rows {
        let a_row = a.row(i);
        let out_row = &mut out.data[i * n..(i + 1) * n];
        for (w, o) in other.data[..blocked * k]
            .chunks_exact(NT_CHAINS * k)
            .zip(out_row[..blocked].chunks_exact_mut(NT_CHAINS))
        {
            let mut acc = [0.0f32; NT_CHAINS];
            for (p, &x) in a_row.iter().enumerate() {
                for (t, c) in acc.iter_mut().enumerate() {
                    *c = x.mul_add(w[t * k + p], *c);
                }
            }
            o.copy_from_slice(&acc);
        }
        for (w_row, o) in other.data[blocked * k..]
            .chunks_exact(k)
            .zip(&mut out_row[blocked..])
        {
            let mut acc = 0.0f32;
            for (x, y) in a_row.iter().zip(w_row) {
                acc = x.mul_add(*y, acc);
            }
            *o = acc;
        }
    }
}

/// Few-row `out = a @ b` for row-major `m x k` / `k x n` / `m x n`
/// slices, where `b` is a frozen layer's pre-packed `W^T` — the batch-1
/// inference kernel behind [`Mat::matmul_nt_prepacked_bias_into`].
///
/// Each `a` row sweeps the pack once per column strip: [`NTILE`]-wide
/// strips, then [`NTILE_NARROW`]-wide ones, then single columns. Within a
/// strip every output owns one register accumulator that starts at zero
/// and folds its products in ascending-`k` order with one fused
/// multiply-add each, and the finished chain is *stored* — not added to a
/// zeroed output, which would turn a `-0.0` chain into `+0.0`. So every
/// output is bit-identical to [`nt_dot`]'s, while the strip's independent
/// lanes (two 16-lane vectors for a full strip) keep the FMA pipes busy
/// where a lone dot product waits on its own latency.
fn gemv_packed(k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(b.len(), k * n, "gemv_packed: b is not k x n");
    if n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    for (a_row, out_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        let mut j = 0;
        while j + NTILE <= n {
            out_row[j..j + NTILE].copy_from_slice(&gemv_strip::<NTILE>(a_row, b, n, j));
            j += NTILE;
        }
        while j + NTILE_NARROW <= n {
            out_row[j..j + NTILE_NARROW]
                .copy_from_slice(&gemv_strip::<NTILE_NARROW>(a_row, b, n, j));
            j += NTILE_NARROW;
        }
        for (jj, o) in out_row.iter_mut().enumerate().skip(j) {
            *o = gemv_strip::<1>(a_row, b, n, jj)[0];
        }
    }
}

/// One `W`-wide column strip of [`gemv_packed`]: `W` independent fused
/// ascending-`k` chains over pack columns `j..j + W`, each from zero.
#[inline(always)]
fn gemv_strip<const W: usize>(a_row: &[f32], b: &[f32], n: usize, j: usize) -> [f32; W] {
    let mut c = [0.0f32; W];
    for (brow, &x) in b.chunks_exact(n).zip(a_row) {
        let bp: &[f32; W] = brow[j..j + W].try_into().expect("W-wide strip");
        for t in 0..W {
            c[t] = x.mul_add(bp[t], c[t]);
        }
    }
    c
}

/// Narrow-output `acc += self^T @ other`: fused ascending batch-row
/// broadcast, used when the transposed output has fewer than [`TILE`]
/// rows (e.g. the `(batch, 1)` critic-head gradients).
fn tn_broadcast(a: &Mat, other: &Mat, acc: &mut Mat) {
    for b in 0..a.rows {
        let a_row = a.row(b);
        let o_row = other.row(b);
        for (i, &av) in a_row.iter().enumerate() {
            let out_row = &mut acc.data[i * other.cols..(i + 1) * other.cols];
            for (o, &g) in out_row.iter_mut().zip(o_row) {
                *o = av.mul_add(g, *o);
            }
        }
    }
}

/// Naive reference kernels the fast paths are property-tested against.
#[cfg(test)]
pub(crate) mod reference {
    use super::Mat;

    /// Textbook `a @ b` triple loop.
    pub fn matmul(a: &Mat, b: &Mat) -> Mat {
        let mut out = Mat::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0f32;
                for p in 0..a.cols() {
                    acc += a.get(i, p) * b.get(p, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    /// Textbook `a @ b^T`.
    pub fn matmul_nt(a: &Mat, b: &Mat) -> Mat {
        let mut out = Mat::zeros(a.rows(), b.rows());
        for i in 0..a.rows() {
            for j in 0..b.rows() {
                let mut acc = 0.0f32;
                for p in 0..a.cols() {
                    acc += a.get(i, p) * b.get(j, p);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    /// Fused single-chain `a @ b^T`: one `mul_add` chain per output,
    /// ascending `k`, starting at zero and stored — the fold order every
    /// fast kernel must reproduce bit-for-bit.
    pub fn matmul_nt_fused(a: &Mat, b: &Mat) -> Mat {
        let mut out = Mat::zeros(a.rows(), b.rows());
        for i in 0..a.rows() {
            for j in 0..b.rows() {
                let mut acc = 0.0f32;
                for (x, y) in a.row(i).iter().zip(b.row(j)) {
                    acc = x.mul_add(*y, acc);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    /// Bitwise equality that treats any two NaNs as equal (kernels may
    /// commute a product's operands, which can change which NaN payload
    /// survives) but tells `-0.0` from `+0.0`.
    pub fn same_bits(x: f32, y: f32) -> bool {
        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
    }

    /// Textbook `acc + a^T @ b`.
    pub fn matmul_tn_acc(a: &Mat, b: &Mat, acc: &Mat) -> Mat {
        let mut out = acc.clone();
        for i in 0..a.cols() {
            for j in 0..b.cols() {
                let mut sum = 0.0f32;
                for p in 0..a.rows() {
                    sum += a.get(p, i) * b.get(p, j);
                }
                out.set(i, j, out.get(i, j) + sum);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_values() {
        let a = Mat::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Mat::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let a = Mat::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Mat::from_vec(4, 3, (0..12).map(|i| i as f32).collect());
        let bt = {
            let mut t = Mat::zeros(3, 4);
            for r in 0..4 {
                for c in 0..3 {
                    t.set(c, r, b.get(r, c));
                }
            }
            t
        };
        assert_eq!(a.matmul_nt(&b), a.matmul(&bt));
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let a = Mat::from_vec(4, 2, (0..8).map(|i| i as f32).collect());
        let b = Mat::from_vec(4, 3, (0..12).map(|i| (i as f32) * 0.5).collect());
        let at = {
            let mut t = Mat::zeros(2, 4);
            for r in 0..4 {
                for c in 0..2 {
                    t.set(c, r, a.get(r, c));
                }
            }
            t
        };
        assert_eq!(a.matmul_tn(&b), at.matmul(&b));
    }

    #[test]
    fn broadcast_and_sum_rows_are_inverse_ish() {
        let mut m = Mat::zeros(3, 2);
        m.add_row_broadcast(&[1.0, -2.0]);
        assert_eq!(m.sum_rows(), vec![3.0, -6.0]);
    }

    #[test]
    fn hcat_and_split_round_trip() {
        let a = Mat::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let b = Mat::from_vec(2, 1, vec![5., 6.]);
        let c = a.hcat(&b);
        assert_eq!(c.cols(), 3);
        assert_eq!(c.row(0), &[1., 2., 5.]);
        let (l, r) = c.split_cols(2);
        assert_eq!(l, a);
        assert_eq!(r, b);
    }

    #[test]
    fn map_and_mean() {
        let mut m = Mat::from_vec(1, 4, vec![1., 2., 3., 4.]);
        m.map_inplace(|v| v * 2.0);
        assert_eq!(m.mean(), 5.0);
    }

    #[test]
    #[should_panic(expected = "matmul inner dims")]
    fn matmul_shape_mismatch_panics() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn from_row_is_single_row() {
        let m = Mat::from_row(&[1.0, 2.0]);
        assert_eq!((m.rows(), m.cols()), (1, 2));
    }

    /// Regression for the removed zero-skip: IEEE-754 says `0.0 * NaN` is
    /// `NaN`, but the old `if a == 0.0 { continue }` branch silently
    /// dropped the product, masking poisoned operands. The kernels must
    /// surface the NaN so `sanitize_nonfinite` can catch it downstream.
    #[test]
    fn matmul_propagates_nan_through_zero_coefficients() {
        let a = Mat::from_vec(1, 2, vec![0.0, 1.0]);
        let b = Mat::from_vec(2, 1, vec![f32::NAN, 2.0]);
        let mut c = a.matmul(&b);
        assert!(c.get(0, 0).is_nan(), "0.0 * NaN must propagate in matmul");

        let t = Mat::from_vec(2, 1, vec![0.0, 1.0]);
        let g = Mat::from_vec(2, 1, vec![f32::NAN, 3.0]);
        let d = t.matmul_tn(&g);
        assert!(
            d.get(0, 0).is_nan(),
            "0.0 * NaN must propagate in matmul_tn"
        );

        // The numeric guard then catches what the kernel surfaced.
        assert_eq!(c.sanitize_nonfinite(), 1);
        assert_eq!(c.data(), &[0.0]);
    }

    #[test]
    fn into_variants_match_allocating_kernels_after_reuse() {
        let a = Mat::from_vec(3, 5, (0..15).map(|i| (i as f32) * 0.37 - 2.0).collect());
        let b = Mat::from_vec(5, 4, (0..20).map(|i| (i as f32) * -0.21 + 1.5).collect());
        let bt = Mat::from_vec(4, 5, (0..20).map(|i| (i as f32) * 0.11).collect());

        // Deliberately mis-shaped, dirty scratch buffers: `_into` must
        // resize and fully overwrite them.
        let mut out = Mat::from_vec(1, 2, vec![9.9, -9.9]);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));

        a.matmul_nt_into(&bt, &mut out);
        assert_eq!(out, a.matmul_nt(&bt));
    }

    #[test]
    fn matmul_tn_acc_accumulates_on_top() {
        let a = Mat::from_vec(3, 2, (0..6).map(|i| i as f32).collect());
        let g = Mat::from_vec(3, 4, (0..12).map(|i| (i as f32) * 0.5).collect());
        let mut acc = a.matmul_tn(&g);
        let once = acc.clone();
        a.matmul_tn_acc(&g, &mut acc);
        for (twice, one) in acc.data().iter().zip(once.data()) {
            assert_eq!(*twice, one * 2.0);
        }
    }

    #[test]
    fn resize_and_copy_helpers_reuse_buffers() {
        let mut m = Mat::zeros(2, 3);
        m.resize(3, 2);
        assert_eq!((m.rows(), m.cols()), (3, 2));
        m.fill(7.0);
        assert!(m.data().iter().all(|&v| v == 7.0));

        let src = Mat::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        m.copy_from(&src);
        assert_eq!(m, src);
        m.copy_from_row(&[4.0, 5.0]);
        assert_eq!((m.rows(), m.cols()), (1, 2));
        assert_eq!(m.row(0), &[4.0, 5.0]);
    }

    #[test]
    fn transpose_into_round_trips() {
        let a = Mat::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let mut t = Mat::from_vec(1, 1, vec![9.9]); // dirty, mis-shaped
        a.transpose_into(&mut t);
        assert_eq!((t.rows(), t.cols()), (3, 2));
        assert_eq!(t.data(), &[1., 4., 2., 5., 3., 6.]);
        let mut back = Mat::default();
        t.transpose_into(&mut back);
        assert_eq!(back, a);
    }

    #[test]
    fn hcat_into_matches_hcat_on_dirty_buffer() {
        let a = Mat::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let b = Mat::from_vec(2, 1, vec![5., 6.]);
        let mut out = Mat::from_vec(3, 3, vec![7.0; 9]);
        a.hcat_into(&b, &mut out);
        assert_eq!(out, a.hcat(&b));
    }

    #[test]
    fn with_variants_match_thread_local_pack_paths() {
        let a = Mat::from_vec(6, 5, (0..30).map(|i| (i as f32) * 0.3 - 4.0).collect());
        let b = Mat::from_vec(7, 5, (0..35).map(|i| (i as f32) * -0.17 + 2.0).collect());
        let mut pack = Mat::default();
        let mut out = Mat::default();
        a.matmul_nt_into_with(&b, &mut pack, &mut out);
        assert_eq!(out, a.matmul_nt(&b));

        let g = Mat::from_vec(6, 4, (0..24).map(|i| (i as f32) * 0.09).collect());
        let mut acc_with = Mat::zeros(5, 4);
        let mut acc_tl = Mat::zeros(5, 4);
        a.matmul_tn_acc_with(&g, &mut pack, &mut acc_with);
        a.matmul_tn_acc(&g, &mut acc_tl);
        assert_eq!(acc_with, acc_tl);
    }

    /// Repeated calls that reuse the same scratch buffers must be exactly
    /// deterministic: the blocked kernels' FP accumulation order depends
    /// only on shapes, never on buffer history.
    #[test]
    fn repeated_calls_with_same_scratch_are_bit_identical() {
        let a = Mat::from_vec(
            9,
            13,
            (0..117).map(|i| ((i * 37) % 19) as f32 - 9.0).collect(),
        );
        let b = Mat::from_vec(
            13,
            6,
            (0..78).map(|i| ((i * 11) % 23) as f32 * 0.25).collect(),
        );
        let bt = {
            let mut t = Mat::default();
            b.transpose_into(&mut t);
            t
        };
        let mut pack = Mat::default();
        let mut out = Mat::default();
        a.matmul_into(&b, &mut out);
        let first = out.clone();
        let mut nt_out = Mat::default();
        a.matmul_nt_into_with(&bt, &mut pack, &mut nt_out);
        let nt_first = nt_out.clone();
        let mut acc = Mat::zeros(13, 6);
        a.matmul_tn_acc_with(&nt_out, &mut pack, &mut acc);
        let acc_first = acc.clone();
        for _ in 0..3 {
            a.matmul_into(&b, &mut out);
            assert_eq!(out, first);
            a.matmul_nt_into_with(&bt, &mut pack, &mut nt_out);
            assert_eq!(nt_out, nt_first);
            acc.fill(0.0);
            a.matmul_tn_acc_with(&nt_out, &mut pack, &mut acc);
            assert_eq!(acc, acc_first);
        }
    }

    /// The pre-packed bias-fused product must be bit-identical to the
    /// unpacked pipeline (`matmul_nt_into` + `add_row_broadcast`) across
    /// the kernel's regimes: the small-batch GEMV (m < TILE) in every
    /// column-strip tier (32-wide, 4-wide, single columns), the tiled
    /// interior, and row/column remainders (m % TILE, n % NTILE,
    /// n < NTILE) — on plain data and with `-0.0`, NaN and ±inf inputs.
    #[test]
    fn prepacked_bias_matches_unpacked_pipeline_bit_exactly() {
        let mut shapes = vec![
            (4usize, 60usize, 128usize), // pure tiled interior
            (128, 60, 128),              // inference layer shape
            (128, 128, 4),               // n < NTILE: all row-tail
            (6, 17, 37),                 // row and column remainders
            (5, 1, 33),                  // k = 1, column remainder
        ];
        // GEMV regime: rows 1..=3 against widths that exercise full
        // strips, narrow strips and single-column tails.
        for m in 1..=3 {
            for (k, n) in [
                (60, 128),
                (13, 7),
                (128, 4),
                (17, 37),
                (5, 1),
                (9, 70),
                (1, 33),
            ] {
                shapes.push((m, k, n));
            }
        }
        let poison = [-0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        for &(m, k, n) in &shapes {
            for poisoned in [false, true] {
                let mut a = Mat::from_vec(
                    m,
                    k,
                    (0..m * k)
                        .map(|i| ((i * 29) % 41) as f32 * 0.173 - 3.0)
                        .collect(),
                );
                let mut b = Mat::from_vec(
                    n,
                    k,
                    (0..n * k)
                        .map(|i| ((i * 17) % 31) as f32 * -0.091 + 1.2)
                        .collect(),
                );
                if poisoned {
                    for (i, v) in a.data_mut().iter_mut().enumerate().step_by(7) {
                        *v = poison[i % poison.len()];
                    }
                    for (i, v) in b.data_mut().iter_mut().enumerate().step_by(11) {
                        *v = poison[(i + 1) % poison.len()];
                    }
                }
                let bias: Vec<f32> = (0..n).map(|i| (i as f32) * 0.37 - 5.0).collect();
                let what = if poisoned { "poisoned" } else { "plain" };
                assert_prepacked_matches_unpacked(&a, &b, &bias, what);
            }
        }
        // A chain whose every product underflows to -0.0 must store -0.0
        // (a zeroed output would absorb it into +0.0), and a -0.0 bias
        // keeps that sign visible. The tiled interior seeds the bias under
        // its fold instead, so this check is specific to the GEMV regime.
        for m in 1..=3 {
            for n in [1usize, 5, 33, 40] {
                let a = Mat::from_vec(m, 3, vec![1e-30; m * 3]);
                let b = Mat::from_vec(n, 3, vec![-1e-30; n * 3]);
                let bias = vec![-0.0f32; n];
                let got = assert_prepacked_matches_unpacked(&a, &b, &bias, "underflow");
                assert!(got
                    .data()
                    .iter()
                    .all(|v| v.to_bits() == (-0.0f32).to_bits()));
            }
        }
    }

    /// Asserts the prepacked product equals the unpacked pipeline bit for
    /// bit (NaNs compare equal) and returns it.
    fn assert_prepacked_matches_unpacked(a: &Mat, b: &Mat, bias: &[f32], what: &str) -> Mat {
        let (m, k, n) = (a.rows(), a.cols(), b.rows());
        let mut bt = Mat::default();
        b.transpose_into(&mut bt);

        let mut want = Mat::default();
        a.matmul_nt_into(b, &mut want);
        want.add_row_broadcast(bias);

        let mut got = Mat::from_vec(1, 2, vec![9.9, -9.9]); // dirty scratch
        a.matmul_nt_prepacked_bias_into(b, &bt, bias, &mut got);
        assert_eq!((got.rows(), got.cols()), (m, n));
        for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
            assert!(
                reference::same_bits(*g, *w),
                "{what} ({m}x{k}x{n})[{i}]: prepacked {g} vs unpacked {w}"
            );
        }
        got
    }

    #[test]
    fn sanitize_nonfinite_zeroes_only_bad_entries() {
        let mut m = Mat::from_vec(
            1,
            5,
            vec![1.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -2.0],
        );
        assert_eq!(m.sanitize_nonfinite(), 3);
        assert_eq!(m.data(), &[1.0, 0.0, 0.0, 0.0, -2.0]);
        // Healthy data is untouched.
        assert_eq!(m.sanitize_nonfinite(), 0);
    }

    mod properties {
        use super::super::{reference, Mat};
        use proptest::prelude::*;

        /// A random matrix with dimensions in `1..=96` — spans everything
        /// from pure-remainder shapes to multi-tile interiors.
        fn mat(rows: usize, cols: usize, seed: &[f32]) -> Mat {
            let data = (0..rows * cols)
                .map(|i| seed[i % seed.len()])
                .collect::<Vec<_>>();
            Mat::from_vec(rows, cols, data)
        }

        fn dims() -> impl Strategy<Value = (usize, usize, usize)> {
            (1usize..=96, 1usize..=96, 1usize..=96)
        }

        /// Row counts of the small-batch kernels (`m < TILE`). Every
        /// property runs each case at `dims()` and again with its rows
        /// replaced by one of these, so the batch-1..3 paths are always
        /// covered rather than drawn 3 times in 96.
        fn few_rows() -> impl Strategy<Value = usize> {
            1usize..=3
        }

        /// Overwrites a scattered subset of entries with `-0.0`, NaN and
        /// ±inf (`picks` chooses positions and values).
        fn poison(m: &mut Mat, picks: &[usize]) {
            const SPECIAL: [f32; 4] = [-0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
            let len = m.data().len();
            for &p in picks {
                m.data_mut()[p % len] = SPECIAL[p % SPECIAL.len()];
            }
        }

        fn picks() -> impl Strategy<Value = Vec<usize>> {
            proptest::collection::vec(0usize..10_000, 0..=4)
        }

        fn values() -> impl Strategy<Value = (Vec<f32>, Vec<f32>)> {
            (
                proptest::collection::vec(-8.0f32..8.0, 7..=31),
                proptest::collection::vec(-8.0f32..8.0, 7..=31),
            )
        }

        fn assert_close(fast: &Mat, naive: &Mat, what: &str) {
            assert_eq!((fast.rows(), fast.cols()), (naive.rows(), naive.cols()));
            for (i, (&f, &n)) in fast.data().iter().zip(naive.data()).enumerate() {
                let tol = 1e-4 * n.abs().max(1.0);
                assert!((f - n).abs() <= tol, "{what}[{i}]: fast {f} vs naive {n}");
            }
        }

        proptest! {
            /// The tiled kernel matches the naive triple loop. The fast
            /// kernels fold per element in ascending-k order but with fused
            /// multiply-adds (one rounding per product), so they agree with
            /// the unfused naive loops within the 1e-4 relative tolerance
            /// rather than bit-exactly; bit-identity across the fast paths
            /// themselves is asserted separately.
            #[test]
            fn tiled_matmul_matches_naive((m, k, n) in dims(), few in few_rows(), (sa, sb) in values()) {
                for m in [m, few] {
                    let a = mat(m, k, &sa);
                    let b = mat(k, n, &sb);
                    let mut out = Mat::default();
                    a.matmul_into(&b, &mut out);
                    assert_close(&out, &reference::matmul(&a, &b), "matmul");
                }
            }

            /// The packed NT product matches the naive transposed product,
            /// including the small-batch direct path (`m < TILE`), and it
            /// reproduces the fused single-chain fold bit for bit — with
            /// `-0.0`, NaN and ±inf inputs too.
            #[test]
            fn packed_matmul_nt_matches_naive(
                (m, k, n) in dims(),
                few in few_rows(),
                (sa, sb) in values(),
                (pa, pb) in (picks(), picks())
            ) {
                for m in [m, few] {
                    let mut a = mat(m, k, &sa);
                    let mut b = mat(n, k, &sb);
                    let mut pack = Mat::default();
                    let mut out = Mat::default();
                    a.matmul_nt_into_with(&b, &mut pack, &mut out);
                    assert_close(&out, &reference::matmul_nt(&a, &b), "matmul_nt");
                    poison(&mut a, &pa);
                    poison(&mut b, &pb);
                    a.matmul_nt_into_with(&b, &mut pack, &mut out);
                    let fused = reference::matmul_nt_fused(&a, &b);
                    for (i, (&g, &w)) in out.data().iter().zip(fused.data()).enumerate() {
                        prop_assert!(
                            reference::same_bits(g, w),
                            "({}x{}x{})[{}]: kernel {} vs fused chain {}", m, k, n, i, g, w
                        );
                    }
                }
            }

            /// The pre-packed bias-fused product (GEMV below [`TILE`] rows,
            /// tiled GEMM above) equals the unpacked pipeline bit for bit,
            /// with `-0.0`, NaN and ±inf inputs too.
            #[test]
            fn prepacked_bias_matches_unpacked_bit_exactly(
                (m, k, n) in dims(),
                few in few_rows(),
                (sa, sb) in values(),
                (pa, pb) in (picks(), picks())
            ) {
                for m in [m, few] {
                    let mut a = mat(m, k, &sa);
                    let mut b = mat(n, k, &sb);
                    poison(&mut a, &pa);
                    poison(&mut b, &pb);
                    let bias: Vec<f32> = (0..n).map(|i| sb[i % sb.len()] * 0.5).collect();
                    super::assert_prepacked_matches_unpacked(&a, &b, &bias, "prop");
                }
            }

            /// The packed TN accumulation matches the naive version on top
            /// of a non-zero accumulator.
            #[test]
            fn packed_matmul_tn_acc_matches_naive((m, k, n) in dims(), few in few_rows(), (sa, sb) in values()) {
                for m in [m, few] {
                    let a = mat(k, m, &sa);
                    let b = mat(k, n, &sb);
                    let base = mat(m, n, &sb);
                    let mut pack = Mat::default();
                    let mut acc = base.clone();
                    a.matmul_tn_acc_with(&b, &mut pack, &mut acc);
                    assert_close(&acc, &reference::matmul_tn_acc(&a, &b, &base), "matmul_tn_acc");
                }
            }
        }
    }
}
