//! Dense complex matrices on split (SoA) storage.

use crate::complex::Complex;
use crate::linalg::split::{Split, SplitBuffer, SplitMut};
use crate::linalg::vector::CVector;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// A dense complex matrix, row-major in each of two split re/im planes.
///
/// This is the workhorse for density matrices, unitaries, projectors and POVM
/// elements. All protocol Hilbert spaces in this crate are small (at most a
/// few hundred dimensions), so a straightforward dense representation is both
/// simpler and fast enough. Entries are read with [`CMatrix::at`] and written
/// with [`CMatrix::set`]; the split planes cannot hand out `&Complex`
/// references, which is exactly what lets the [`crate::kernels`] hot loops
/// run as autovectorisable paired `f64` loops.
///
/// # Examples
///
/// ```
/// use qsim::{Complex, CMatrix};
///
/// let h = CMatrix::from_rows(&[
///     vec![Complex::real(1.0), Complex::real(1.0)],
///     vec![Complex::real(1.0), Complex::real(-1.0)],
/// ]).scale(Complex::real(1.0 / 2f64.sqrt()));
/// assert!(h.is_unitary(1e-12));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    buf: SplitBuffer,
}

impl CMatrix {
    /// Creates a matrix of zeros with the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMatrix {
            rows,
            cols,
            buf: SplitBuffer::zeros(rows * cols),
        }
    }

    /// Creates the `n`-dimensional identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = CMatrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, Complex::ONE);
        }
        m
    }

    /// Creates a matrix by evaluating `f(row, col)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Complex) -> Self {
        let buf = SplitBuffer::from_fn(rows * cols, |k| f(k / cols, k % cols));
        CMatrix { rows, cols, buf }
    }

    /// Creates a matrix from a slice of rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<Complex>]) -> Self {
        let r = rows.len();
        let c = if r == 0 { 0 } else { rows[0].len() };
        assert!(
            rows.iter().all(|row| row.len() == c),
            "all rows must have the same length"
        );
        let buf = SplitBuffer::from_fn(r * c, |k| rows[k / c][k % c]);
        CMatrix {
            rows: r,
            cols: c,
            buf,
        }
    }

    /// Creates a matrix from an interleaved row-major entry list.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_complex(rows: usize, cols: usize, data: &[Complex]) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix data length mismatch");
        CMatrix {
            rows,
            cols,
            buf: SplitBuffer::from_complex(data),
        }
    }

    /// Creates a diagonal matrix from real diagonal entries.
    pub fn diag_reals(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = CMatrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m.set(i, i, Complex::real(d));
        }
        m
    }

    /// Creates the rank-one outer product `|v><w|`.
    pub fn outer(v: &CVector, w: &CVector) -> Self {
        let (vr, vi) = (v.re(), v.im());
        let (wr, wi) = (w.re(), w.im());
        let (m, n) = (vr.len(), wr.len());
        let mut out = CMatrix::zeros(m, n);
        {
            let o = out.buf.split_mut();
            for i in 0..m {
                let (air, aii) = (vr[i], vi[i]);
                let row_re = &mut o.re[i * n..(i + 1) * n];
                let row_im = &mut o.im[i * n..(i + 1) * n];
                // v[i] * conj(w[j]) = (air + i·aii)(wr[j] - i·wi[j])
                for j in 0..n {
                    row_re[j] = air * wr[j] + aii * wi[j];
                    row_im[j] = aii * wr[j] - air * wi[j];
                }
            }
        }
        out
    }

    /// Returns the projector `|v><v| / <v|v>` onto the span of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` has zero norm.
    pub fn projector(v: &CVector) -> Self {
        let n = v.normalized();
        CMatrix::outer(&n, &n)
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

    /// Returns `true` for a square matrix.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Reads entry `(i, j)` as a value.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> Complex {
        self.buf.get(i * self.cols + j)
    }

    /// Writes entry `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, z: Complex) {
        self.buf.set(i * self.cols + j, z);
    }

    /// Adds `z` to entry `(i, j)`.
    #[inline]
    pub fn add_at(&mut self, i: usize, j: usize, z: Complex) {
        self.buf.add(i * self.cols + j, z);
    }

    /// The real plane, row-major.
    #[inline]
    pub fn re(&self) -> &[f64] {
        self.buf.re()
    }

    /// The imaginary plane, row-major.
    #[inline]
    pub fn im(&self) -> &[f64] {
        self.buf.im()
    }

    /// Immutable split view of the row-major entries (used by the
    /// [`crate::kernels`] read-only paths).
    #[inline]
    pub fn split(&self) -> Split<'_> {
        self.buf.split()
    }

    /// Mutable split view of the row-major entries (used by the
    /// [`crate::kernels`] in-place paths).
    #[inline]
    pub fn split_mut(&mut self) -> SplitMut<'_> {
        self.buf.split_mut()
    }

    /// Returns the entries as an interleaved (AoS) row-major vector — the
    /// boundary conversion the [`crate::naive`] oracles use.
    pub fn to_complex_vec(&self) -> Vec<Complex> {
        self.buf.to_complex_vec()
    }

    /// Multiplies every entry by a real scalar in place.
    pub fn scale_real_in_place(&mut self, s: f64) {
        self.buf.scale_real_in_place(s);
    }

    /// Entrywise complex conjugate.
    pub fn conj(&self) -> CMatrix {
        CMatrix::from_fn(self.rows, self.cols, |i, j| self.at(i, j).conj())
    }

    /// Conjugate transpose (adjoint, dagger).
    pub fn adjoint(&self) -> CMatrix {
        CMatrix::from_fn(self.cols, self.rows, |i, j| self.at(j, i).conj())
    }

    /// Scales every entry by `c`.
    pub fn scale(&self, c: Complex) -> CMatrix {
        let mut buf = self.buf.clone();
        buf.scale_in_place(c);
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            buf,
        }
    }

    /// Trace of a square matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> Complex {
        assert!(self.is_square(), "trace requires a square matrix");
        (0..self.rows).map(|i| self.at(i, i)).sum()
    }

    /// Matrix product `self * rhs`, cache-blocked over split re/im planes.
    ///
    /// The product is tiled over the inner (`k`) and column (`j`) dimensions
    /// so that the working set of each tile — a strip of the output row, two
    /// strips of `rhs` rows, in both planes — stays resident in L1/L2 while
    /// the `k` tile is consumed, and the `k` loop is unrolled two-wide so each
    /// pass over the output strip retires two rank-1 updates (halving the
    /// output-row load/store traffic, the bottleneck of the naive triple
    /// loop). The innermost loop is a pair of contiguous `f64`
    /// multiply-add strips with no complex temporaries, which the compiler
    /// vectorises without bounds checks. All-zero `k` pairs of `self` skip
    /// their pass (operators here are often sparse embeddings).
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions do not match.
    pub fn matmul(&self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        const KC: usize = 64;
        const JC: usize = 512;
        let (m, kd, n) = (self.rows, self.cols, rhs.cols);
        let mut out = CMatrix::zeros(m, n);
        let o = out.buf.split_mut();
        let (are, aim) = (self.buf.re(), self.buf.im());
        let (bre, bim) = (rhs.buf.re(), rhs.buf.im());
        for jc in (0..n).step_by(JC) {
            let jw = JC.min(n - jc);
            for kc in (0..kd).step_by(KC) {
                let kw = KC.min(kd - kc);
                for i in 0..m {
                    let out_re = &mut o.re[i * n + jc..i * n + jc + jw];
                    let out_im = &mut o.im[i * n + jc..i * n + jc + jw];
                    let arow_re = &are[i * kd + kc..i * kd + kc + kw];
                    let arow_im = &aim[i * kd + kc..i * kd + kc + kw];
                    let mut dk = 0;
                    while dk + 1 < kw {
                        let (a0r, a0i) = (arow_re[dk], arow_im[dk]);
                        let (a1r, a1i) = (arow_re[dk + 1], arow_im[dk + 1]);
                        let (z0, z1) = (a0r == 0.0 && a0i == 0.0, a1r == 0.0 && a1i == 0.0);
                        let k = kc + dk;
                        if !z0 && !z1 {
                            let r0r = &bre[k * n + jc..k * n + jc + jw];
                            let r0i = &bim[k * n + jc..k * n + jc + jw];
                            let r1r = &bre[(k + 1) * n + jc..(k + 1) * n + jc + jw];
                            let r1i = &bim[(k + 1) * n + jc..(k + 1) * n + jc + jw];
                            for t in 0..jw {
                                out_re[t] +=
                                    a0r * r0r[t] - a0i * r0i[t] + a1r * r1r[t] - a1i * r1i[t];
                                out_im[t] +=
                                    a0r * r0i[t] + a0i * r0r[t] + a1r * r1i[t] + a1i * r1r[t];
                            }
                        } else if !z0 {
                            axpy_strip(out_re, out_im, a0r, a0i, bre, bim, k * n + jc, jw);
                        } else if !z1 {
                            axpy_strip(out_re, out_im, a1r, a1i, bre, bim, (k + 1) * n + jc, jw);
                        }
                        dk += 2;
                    }
                    if dk < kw {
                        let (ar, ai) = (arow_re[dk], arow_im[dk]);
                        if ar != 0.0 || ai != 0.0 {
                            let k = kc + dk;
                            axpy_strip(out_re, out_im, ar, ai, bre, bim, k * n + jc, jw);
                        }
                    }
                }
            }
        }
        out
    }

    /// Applies the matrix to a vector, returning `self * v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.dim() != self.cols()`.
    pub fn apply(&self, v: &CVector) -> CVector {
        assert_eq!(self.cols, v.dim(), "apply dimension mismatch");
        if self.rows == 2 && self.cols == 2 {
            // Unrolled qubit path: boundary effects of the sampled protocol
            // rounds apply 2×2 operators to dimension-2 fingerprints.
            let (m00, m01, m10, m11) = (self.at(0, 0), self.at(0, 1), self.at(1, 0), self.at(1, 1));
            let (v0, v1) = (v.at(0), v.at(1));
            let (o0, o1) = (m00 * v0 + m01 * v1, m10 * v0 + m11 * v1);
            return CVector::from_buffer(SplitBuffer::from_raw(
                2,
                vec![o0.re, o1.re, o0.im, o1.im],
            ));
        }
        let (vr, vi) = (v.re(), v.im());
        let (are, aim) = (self.buf.re(), self.buf.im());
        let n = self.cols;
        let mut out = CVector::zeros(self.rows);
        {
            let o = out.split_mut();
            for i in 0..self.rows {
                let row_re = &are[i * n..(i + 1) * n];
                let row_im = &aim[i * n..(i + 1) * n];
                let mut acc_re = 0.0;
                let mut acc_im = 0.0;
                for j in 0..n {
                    acc_re += row_re[j] * vr[j] - row_im[j] * vi[j];
                    acc_im += row_re[j] * vi[j] + row_im[j] * vr[j];
                }
                o.re[i] = acc_re;
                o.im[i] = acc_im;
            }
        }
        out
    }

    /// Quadratic form `⟨v| self |v⟩`, computed without materialising
    /// `self · v` — the per-round boundary measurement of the sampled
    /// protocol rounds, which previously paid one `CVector` allocation per
    /// round through `v.inner(&m.apply(v))`.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not square of dimension `v.dim()`.
    pub fn quadratic_form(&self, v: &CVector) -> Complex {
        assert!(
            self.rows == self.cols && self.cols == v.dim(),
            "quadratic form dimension mismatch"
        );
        let (vr, vi) = (v.re(), v.im());
        let (are, aim) = (self.buf.re(), self.buf.im());
        let n = self.cols;
        if n == 2 {
            // Unrolled qubit path: dimension-2 fingerprint registers.
            let (m00, m01, m10, m11) = (self.at(0, 0), self.at(0, 1), self.at(1, 0), self.at(1, 1));
            let (v0, v1) = (v.at(0), v.at(1));
            let (o0, o1) = (m00 * v0 + m01 * v1, m10 * v0 + m11 * v1);
            return v0.conj() * o0 + v1.conj() * o1;
        }
        let mut acc_re = 0.0;
        let mut acc_im = 0.0;
        for i in 0..n {
            let row_re = &are[i * n..(i + 1) * n];
            let row_im = &aim[i * n..(i + 1) * n];
            // Row dot under the fixed four-partial reduction contract of
            // `simd::row_dot`, identical bits on the scalar and AVX2 paths.
            let (mv_re, mv_im) = crate::simd::row_dot(row_re, row_im, vr, vi);
            // conj(v_i) · (Mv)_i
            acc_re += vr[i] * mv_re + vi[i] * mv_im;
            acc_im += vr[i] * mv_im - vi[i] * mv_re;
        }
        Complex::new(acc_re, acc_im)
    }

    /// Overwrites `self` with the entries of `other`, reusing the existing
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn copy_from(&mut self, other: &CMatrix) {
        assert!(
            self.rows == other.rows && self.cols == other.cols,
            "copy_from shape mismatch"
        );
        let dst = self.buf.split_mut();
        let src = other.buf.split();
        dst.re.copy_from_slice(src.re);
        dst.im.copy_from_slice(src.im);
    }

    /// In-place affine combination `self ← a·self + b·other` with real
    /// coefficients — the allocation-free form of the symmetrisation channel
    /// mix `ρ → ½ρ + ½SρS†` used by the batched samplers.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn mix_in_place(&mut self, a: f64, b: f64, other: &CMatrix) {
        assert!(
            self.rows == other.rows && self.cols == other.cols,
            "mix_in_place shape mismatch"
        );
        let dst = self.buf.split_mut();
        let src = other.buf.split();
        for (d, &s) in dst.re.iter_mut().zip(src.re.iter()) {
            *d = a * *d + b * s;
        }
        for (d, &s) in dst.im.iter_mut().zip(src.im.iter()) {
            *d = a * *d + b * s;
        }
    }

    /// Kronecker (tensor) product `self ⊗ rhs`.
    pub fn kron(&self, rhs: &CMatrix) -> CMatrix {
        let rows = self.rows * rhs.rows;
        let cols = self.cols * rhs.cols;
        let mut out = CMatrix::zeros(rows, cols);
        for i1 in 0..self.rows {
            for j1 in 0..self.cols {
                let a = self.at(i1, j1);
                if a.norm_sqr() == 0.0 {
                    continue;
                }
                for i2 in 0..rhs.rows {
                    for j2 in 0..rhs.cols {
                        out.set(i1 * rhs.rows + i2, j1 * rhs.cols + j2, a * rhs.at(i2, j2));
                    }
                }
            }
        }
        out
    }

    /// Returns the Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.buf.norm_sqr().sqrt()
    }

    /// Returns `true` when `self` is Hermitian to within `tol`.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in 0..self.cols {
                if !self.at(i, j).approx_eq(self.at(j, i).conj(), tol) {
                    return false;
                }
            }
        }
        true
    }

    /// Returns `true` when `self` is unitary to within `tol`.
    pub fn is_unitary(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        let prod = self.adjoint().matmul(self);
        prod.approx_eq(&CMatrix::identity(self.rows), tol)
    }

    /// Returns `true` when every entry of `self` is within `tol` of `other`.
    pub fn approx_eq(&self, other: &CMatrix, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .buf
                .iter()
                .zip(other.buf.iter())
                .all(|(a, b)| a.approx_eq(b, tol))
    }

    /// Returns the `k`-fold Kronecker power of a square matrix.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn kron_pow(&self, k: usize) -> CMatrix {
        assert!(k >= 1, "kron_pow requires k >= 1");
        let mut out = self.clone();
        for _ in 1..k {
            out = out.kron(self);
        }
        out
    }

    /// Extracts a column as a vector.
    pub fn column(&self, j: usize) -> CVector {
        CVector::from_fn(self.rows, |i| self.at(i, j))
    }
}

/// `out += (ar + i·ai) · b[off..off+len]` over split planes — the contiguous
/// vectorisable axpy strip of the blocked matmul.
#[inline]
#[allow(clippy::too_many_arguments)]
fn axpy_strip(
    out_re: &mut [f64],
    out_im: &mut [f64],
    ar: f64,
    ai: f64,
    bre: &[f64],
    bim: &[f64],
    off: usize,
    len: usize,
) {
    let br = &bre[off..off + len];
    let bi = &bim[off..off + len];
    for t in 0..len {
        out_re[t] += ar * br[t] - ai * bi[t];
        out_im[t] += ar * bi[t] + ai * br[t];
    }
}

impl Add for &CMatrix {
    type Output = CMatrix;
    fn add(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.rows, rhs.rows, "matrix addition row mismatch");
        assert_eq!(self.cols, rhs.cols, "matrix addition column mismatch");
        CMatrix::from_fn(self.rows, self.cols, |i, j| self.at(i, j) + rhs.at(i, j))
    }
}

impl Sub for &CMatrix {
    type Output = CMatrix;
    fn sub(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.rows, rhs.rows, "matrix subtraction row mismatch");
        assert_eq!(self.cols, rhs.cols, "matrix subtraction column mismatch");
        CMatrix::from_fn(self.rows, self.cols, |i, j| self.at(i, j) - rhs.at(i, j))
    }
}

impl Neg for &CMatrix {
    type Output = CMatrix;
    fn neg(self) -> CMatrix {
        CMatrix::from_fn(self.rows, self.cols, |i, j| -self.at(i, j))
    }
}

impl Mul for &CMatrix {
    type Output = CMatrix;
    fn mul(self, rhs: &CMatrix) -> CMatrix {
        self.matmul(rhs)
    }
}

impl fmt::Display for CMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                write!(f, "{} ", self.at(i, j))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pauli_x() -> CMatrix {
        CMatrix::from_rows(&[
            vec![Complex::ZERO, Complex::ONE],
            vec![Complex::ONE, Complex::ZERO],
        ])
    }

    fn pauli_y() -> CMatrix {
        CMatrix::from_rows(&[
            vec![Complex::ZERO, -Complex::I],
            vec![Complex::I, Complex::ZERO],
        ])
    }

    fn pauli_z() -> CMatrix {
        CMatrix::from_rows(&[
            vec![Complex::ONE, Complex::ZERO],
            vec![Complex::ZERO, -Complex::ONE],
        ])
    }

    #[test]
    fn identity_is_multiplicative_identity() {
        let x = pauli_x();
        let id = CMatrix::identity(2);
        assert!(x.matmul(&id).approx_eq(&x, 1e-12));
        assert!(id.matmul(&x).approx_eq(&x, 1e-12));
    }

    #[test]
    fn pauli_algebra() {
        // X * Y = iZ
        let lhs = pauli_x().matmul(&pauli_y());
        let rhs = pauli_z().scale(Complex::I);
        assert!(lhs.approx_eq(&rhs, 1e-12));
        // X^2 = I
        assert!(pauli_x()
            .matmul(&pauli_x())
            .approx_eq(&CMatrix::identity(2), 1e-12));
    }

    #[test]
    fn paulis_are_hermitian_and_unitary() {
        for p in [pauli_x(), pauli_y(), pauli_z()] {
            assert!(p.is_hermitian(1e-12));
            assert!(p.is_unitary(1e-12));
        }
    }

    #[test]
    fn adjoint_reverses_products() {
        let a = CMatrix::from_fn(3, 3, |i, j| Complex::new(i as f64, j as f64));
        let b = CMatrix::from_fn(3, 3, |i, j| Complex::new((i + j) as f64, (i * j) as f64));
        let lhs = a.matmul(&b).adjoint();
        let rhs = b.adjoint().matmul(&a.adjoint());
        assert!(lhs.approx_eq(&rhs, 1e-9));
    }

    #[test]
    fn trace_is_cyclic() {
        let a = CMatrix::from_fn(3, 3, |i, j| Complex::new(i as f64 - j as f64, 1.0));
        let b = CMatrix::from_fn(3, 3, |i, j| Complex::new((i * j) as f64, -(i as f64)));
        let t1 = a.matmul(&b).trace();
        let t2 = b.matmul(&a).trace();
        assert!(t1.approx_eq(t2, 1e-9));
    }

    #[test]
    fn kron_mixed_product_property() {
        // (A ⊗ B)(C ⊗ D) = (AC) ⊗ (BD)
        let a = pauli_x();
        let b = pauli_y();
        let c = pauli_z();
        let d = CMatrix::identity(2);
        let lhs = a.kron(&b).matmul(&c.kron(&d));
        let rhs = a.matmul(&c).kron(&b.matmul(&d));
        assert!(lhs.approx_eq(&rhs, 1e-12));
    }

    #[test]
    fn kron_of_unitaries_is_unitary() {
        let u = pauli_x().kron(&pauli_y()).kron(&pauli_z());
        assert!(u.is_unitary(1e-12));
        assert_eq!(u.rows(), 8);
    }

    #[test]
    fn outer_product_and_projector() {
        let v = CVector::from_reals(&[1.0, 1.0]).normalized();
        let p = CMatrix::projector(&v);
        assert!(p.is_hermitian(1e-12));
        // Projector is idempotent.
        assert!(p.matmul(&p).approx_eq(&p, 1e-12));
        assert!((p.trace().re - 1.0).abs() < 1e-12);
    }

    #[test]
    fn outer_product_with_complex_entries() {
        let v = CVector::new(vec![Complex::new(1.0, 2.0), Complex::new(0.0, -1.0)]);
        let w = CVector::new(vec![Complex::new(0.5, -0.5), Complex::new(2.0, 1.0)]);
        let m = CMatrix::outer(&v, &w);
        for i in 0..2 {
            for j in 0..2 {
                assert!(m.at(i, j).approx_eq(v.at(i) * w.at(j).conj(), 1e-12));
            }
        }
    }

    #[test]
    fn apply_matches_matmul_on_column() {
        let m = CMatrix::from_fn(3, 3, |i, j| Complex::new((i + 2 * j) as f64, j as f64));
        let v = CVector::from_reals(&[1.0, -1.0, 0.5]);
        let applied = m.apply(&v);
        for i in 0..3 {
            let expected: Complex = (0..3).map(|j| m.at(i, j) * v.at(j)).sum();
            assert!(applied.at(i).approx_eq(expected, 1e-12));
        }
    }

    #[test]
    fn kron_pow() {
        let x = pauli_x();
        let x3 = x.kron_pow(3);
        assert_eq!(x3.rows(), 8);
        // X⊗X⊗X maps |000> to |111>.
        let v = CVector::basis(8, 0);
        let w = x3.apply(&v);
        assert!(w.approx_eq(&CVector::basis(8, 7), 1e-12));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_mismatch_panics() {
        let _ = CMatrix::zeros(2, 3).matmul(&CMatrix::zeros(2, 3));
    }

    #[test]
    fn diag_and_column() {
        let d = CMatrix::diag_reals(&[1.0, 2.0, 3.0]);
        assert!((d.trace().re - 6.0).abs() < 1e-12);
        let c = d.column(1);
        assert!(c.approx_eq(&CVector::from_reals(&[0.0, 2.0, 0.0]), 1e-12));
    }

    #[test]
    fn split_planes_are_row_major() {
        let m = CMatrix::from_fn(2, 2, |i, j| Complex::new((2 * i + j) as f64, -1.0));
        assert_eq!(m.re(), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(m.im(), &[-1.0; 4]);
    }
}
