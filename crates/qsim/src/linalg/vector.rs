//! Dense complex vectors on split (SoA) storage.

use crate::complex::Complex;
use crate::linalg::split::{Split, SplitBuffer, SplitMut};
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// A dense complex column vector.
///
/// Used to represent (unnormalised) pure-state amplitudes and intermediate
/// results of linear-algebra routines. Storage is split re/im planes
/// ([`SplitBuffer`]), so entries are read with [`CVector::at`] and written
/// with [`CVector::set`] (the planes cannot hand out `&Complex` references).
///
/// # Examples
///
/// ```
/// use qsim::{Complex, CVector};
///
/// let v = CVector::from_reals(&[1.0, 0.0, 0.0, 1.0]);
/// assert_eq!(v.dim(), 4);
/// assert!((v.norm() - 2f64.sqrt()).abs() < 1e-12);
/// assert_eq!(v.at(3), Complex::ONE);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct CVector {
    buf: SplitBuffer,
}

impl CVector {
    /// Creates a vector from a list of complex entries.
    pub fn new(data: Vec<Complex>) -> Self {
        CVector {
            buf: SplitBuffer::from_complex(&data),
        }
    }

    /// Creates a vector directly from its split backing.
    pub fn from_buffer(buf: SplitBuffer) -> Self {
        CVector { buf }
    }

    /// Creates the zero vector of dimension `dim`.
    pub fn zeros(dim: usize) -> Self {
        CVector {
            buf: SplitBuffer::zeros(dim),
        }
    }

    /// Creates a computational-basis vector `|index>` of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= dim`.
    pub fn basis(dim: usize, index: usize) -> Self {
        assert!(
            index < dim,
            "basis index {index} out of range for dim {dim}"
        );
        let mut v = CVector::zeros(dim);
        v.buf.set(index, Complex::ONE);
        v
    }

    /// Creates a vector from real entries.
    pub fn from_reals(entries: &[f64]) -> Self {
        CVector {
            buf: SplitBuffer::from_fn(entries.len(), |i| Complex::real(entries[i])),
        }
    }

    /// Creates a vector by evaluating `f` at each index.
    pub fn from_fn(dim: usize, f: impl FnMut(usize) -> Complex) -> Self {
        CVector {
            buf: SplitBuffer::from_fn(dim, f),
        }
    }

    /// Returns the dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.buf.len()
    }

    /// Reads entry `i` as a value.
    #[inline]
    pub fn at(&self, i: usize) -> Complex {
        self.buf.get(i)
    }

    /// Writes entry `i`.
    #[inline]
    pub fn set(&mut self, i: usize, z: Complex) {
        self.buf.set(i, z);
    }

    /// Adds `z` to entry `i`.
    #[inline]
    pub fn add_at(&mut self, i: usize, z: Complex) {
        self.buf.add(i, z);
    }

    /// The real plane.
    #[inline]
    pub fn re(&self) -> &[f64] {
        self.buf.re()
    }

    /// The imaginary plane.
    #[inline]
    pub fn im(&self) -> &[f64] {
        self.buf.im()
    }

    /// Immutable split view of the entries (used by the [`crate::kernels`]
    /// read-only paths).
    #[inline]
    pub fn split(&self) -> Split<'_> {
        self.buf.split()
    }

    /// Mutable split view of the entries (used by the [`crate::kernels`]
    /// in-place paths).
    #[inline]
    pub fn split_mut(&mut self) -> SplitMut<'_> {
        self.buf.split_mut()
    }

    /// Iterates the entries as values.
    pub fn iter(&self) -> impl Iterator<Item = Complex> + '_ {
        self.buf.iter()
    }

    /// Returns the entries as an interleaved (AoS) vector — the boundary
    /// conversion the [`crate::naive`] oracles use.
    pub fn to_complex_vec(&self) -> Vec<Complex> {
        self.buf.to_complex_vec()
    }

    /// Returns the Hermitian inner product `<self|other>` (conjugate-linear in `self`).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    #[inline]
    pub fn inner(&self, other: &CVector) -> Complex {
        assert_eq!(self.dim(), other.dim(), "inner product dimension mismatch");
        let a = self.buf.split();
        let b = other.buf.split();
        if a.re.len() == 2 {
            // Unrolled qubit path: this is the per-node overlap of every
            // sampled protocol round (dimension-2 fingerprint registers).
            let (a0, a1) = (a.get(0), a.get(1));
            let (b0, b1) = (b.get(0), b.get(1));
            return Complex::new(
                a0.re * b0.re + a0.im * b0.im + a1.re * b1.re + a1.im * b1.im,
                a0.re * b0.im - a0.im * b0.re + a1.re * b1.im - a1.im * b1.re,
            );
        }
        let mut acc_re = 0.0;
        let mut acc_im = 0.0;
        // Zipped so the four plane streams carry no per-element bounds
        // checks — this runs per node in the sampled protocol rounds.
        for ((&ar, &ai), (&br, &bi)) in
            a.re.iter()
                .zip(a.im.iter())
                .zip(b.re.iter().zip(b.im.iter()))
        {
            // conj(a) * b = (ar - i·ai)(br + i·bi)
            acc_re += ar * br + ai * bi;
            acc_im += ar * bi - ai * br;
        }
        Complex::new(acc_re, acc_im)
    }

    /// Returns the squared Euclidean norm.
    #[inline]
    pub fn norm_sqr(&self) -> f64 {
        self.buf.norm_sqr()
    }

    /// Returns the Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Returns a normalised copy of this vector.
    ///
    /// # Panics
    ///
    /// Panics if the vector has (numerically) zero norm.
    pub fn normalized(&self) -> CVector {
        let n = self.norm();
        assert!(n > 1e-300, "cannot normalise a zero vector");
        self.scale(Complex::real(1.0 / n))
    }

    /// Returns `self` multiplied by the scalar `c`.
    pub fn scale(&self, c: Complex) -> CVector {
        let mut buf = self.buf.clone();
        buf.scale_in_place(c);
        CVector { buf }
    }

    /// Multiplies every entry by a real scalar in place.
    pub fn scale_real_in_place(&mut self, s: f64) {
        self.buf.scale_real_in_place(s);
    }

    /// Returns the entrywise complex conjugate.
    pub fn conj(&self) -> CVector {
        CVector::from_fn(self.dim(), |i| self.at(i).conj())
    }

    /// Returns the Kronecker (tensor) product `self ⊗ other`.
    pub fn kron(&self, other: &CVector) -> CVector {
        let (ar, ai) = (self.buf.re(), self.buf.im());
        let (br, bi) = (other.buf.re(), other.buf.im());
        let n = br.len();
        let mut out = SplitBuffer::zeros(ar.len() * n);
        {
            let o = out.split_mut();
            for (k, (&xr, &xi)) in ar.iter().zip(ai.iter()).enumerate() {
                let out_re = &mut o.re[k * n..(k + 1) * n];
                let out_im = &mut o.im[k * n..(k + 1) * n];
                for t in 0..n {
                    out_re[t] = xr * br[t] - xi * bi[t];
                    out_im[t] = xr * bi[t] + xi * br[t];
                }
            }
        }
        CVector { buf: out }
    }

    /// Adds `c * other` to `self` in place.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn add_scaled(&mut self, other: &CVector, c: Complex) {
        assert_eq!(self.dim(), other.dim(), "axpy dimension mismatch");
        let (br, bi) = (other.buf.re(), other.buf.im());
        let s = self.buf.split_mut();
        for k in 0..br.len() {
            s.re[k] += br[k] * c.re - bi[k] * c.im;
            s.im[k] += br[k] * c.im + bi[k] * c.re;
        }
    }

    /// Returns `true` when every entry is within `tol` of the corresponding
    /// entry of `other`.
    pub fn approx_eq(&self, other: &CVector, tol: f64) -> bool {
        self.dim() == other.dim()
            && self
                .iter()
                .zip(other.iter())
                .all(|(a, b)| a.approx_eq(b, tol))
    }
}

impl Add for &CVector {
    type Output = CVector;
    fn add(self, rhs: &CVector) -> CVector {
        assert_eq!(self.dim(), rhs.dim(), "vector addition dimension mismatch");
        CVector::from_fn(self.dim(), |i| self.at(i) + rhs.at(i))
    }
}

impl Sub for &CVector {
    type Output = CVector;
    fn sub(self, rhs: &CVector) -> CVector {
        assert_eq!(
            self.dim(),
            rhs.dim(),
            "vector subtraction dimension mismatch"
        );
        CVector::from_fn(self.dim(), |i| self.at(i) - rhs.at(i))
    }
}

impl Neg for &CVector {
    type Output = CVector;
    fn neg(self) -> CVector {
        CVector::from_fn(self.dim(), |i| -self.at(i))
    }
}

impl Mul<Complex> for &CVector {
    type Output = CVector;
    fn mul(self, rhs: Complex) -> CVector {
        self.scale(rhs)
    }
}

impl fmt::Display for CVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, z) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{z}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basis_vectors_are_orthonormal() {
        for i in 0..4 {
            for j in 0..4 {
                let e_i = CVector::basis(4, i);
                let e_j = CVector::basis(4, j);
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!(e_i.inner(&e_j).approx_eq(Complex::real(expected), 1e-12));
            }
        }
    }

    #[test]
    fn inner_product_is_conjugate_linear_in_first_argument() {
        let v = CVector::new(vec![Complex::new(1.0, 2.0), Complex::new(0.0, -1.0)]);
        let w = CVector::new(vec![Complex::new(0.5, 0.5), Complex::new(2.0, 0.0)]);
        let c = Complex::new(0.0, 3.0);
        let lhs = v.scale(c).inner(&w);
        let rhs = c.conj() * v.inner(&w);
        assert!(lhs.approx_eq(rhs, 1e-12));
    }

    #[test]
    fn norm_matches_inner_product() {
        let v = CVector::new(vec![Complex::new(1.0, 1.0), Complex::new(2.0, -1.0)]);
        assert!((v.norm_sqr() - v.inner(&v).re).abs() < 1e-12);
        assert!(v.inner(&v).im.abs() < 1e-12);
    }

    #[test]
    fn normalization() {
        let v = CVector::from_reals(&[3.0, 4.0]);
        let n = v.normalized();
        assert!((n.norm() - 1.0).abs() < 1e-12);
        assert!(n.approx_eq(&CVector::from_reals(&[0.6, 0.8]), 1e-12));
    }

    #[test]
    #[should_panic(expected = "zero vector")]
    fn normalizing_zero_vector_panics() {
        let _ = CVector::zeros(3).normalized();
    }

    #[test]
    fn kron_dimensions_and_values() {
        let a = CVector::from_reals(&[1.0, 2.0]);
        let b = CVector::from_reals(&[3.0, 4.0, 5.0]);
        let k = a.kron(&b);
        assert_eq!(k.dim(), 6);
        assert!(k.approx_eq(
            &CVector::from_reals(&[3.0, 4.0, 5.0, 6.0, 8.0, 10.0]),
            1e-12
        ));
    }

    #[test]
    fn kron_norm_is_product_of_norms() {
        let a = CVector::new(vec![Complex::new(1.0, 1.0), Complex::new(0.5, -0.5)]);
        let b = CVector::from_reals(&[2.0, 1.0, 2.0]);
        assert!((a.kron(&b).norm() - a.norm() * b.norm()).abs() < 1e-12);
    }

    #[test]
    fn kron_with_complex_entries_matches_scalar_products() {
        let a = CVector::new(vec![Complex::new(1.0, 2.0), Complex::new(-0.5, 0.25)]);
        let b = CVector::new(vec![Complex::new(0.0, 1.0), Complex::new(2.0, -1.0)]);
        let k = a.kron(&b);
        for i in 0..2 {
            for j in 0..2 {
                assert!(k.at(i * 2 + j).approx_eq(a.at(i) * b.at(j), 1e-12));
            }
        }
    }

    #[test]
    fn arithmetic_ops() {
        let a = CVector::from_reals(&[1.0, 2.0]);
        let b = CVector::from_reals(&[3.0, -1.0]);
        assert!((&a + &b).approx_eq(&CVector::from_reals(&[4.0, 1.0]), 1e-12));
        assert!((&a - &b).approx_eq(&CVector::from_reals(&[-2.0, 3.0]), 1e-12));
        assert!((-&a).approx_eq(&CVector::from_reals(&[-1.0, -2.0]), 1e-12));
        let mut c = a.clone();
        c.add_scaled(&b, Complex::real(2.0));
        assert!(c.approx_eq(&CVector::from_reals(&[7.0, 0.0]), 1e-12));
    }

    #[test]
    fn split_planes_expose_soa_layout() {
        let v = CVector::new(vec![Complex::new(1.0, -1.0), Complex::new(2.0, 3.0)]);
        assert_eq!(v.re(), &[1.0, 2.0]);
        assert_eq!(v.im(), &[-1.0, 3.0]);
        assert_eq!(v.to_complex_vec()[1], Complex::new(2.0, 3.0));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn inner_dimension_mismatch_panics() {
        let _ = CVector::zeros(2).inner(&CVector::zeros(3));
    }
}
