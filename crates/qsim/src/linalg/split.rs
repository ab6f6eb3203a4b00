//! Split (structure-of-arrays) storage for complex data.
//!
//! The numeric core keeps real and imaginary parts in two separate `f64`
//! planes instead of one interleaved `Vec<Complex>`. Every hot kernel in
//! [`crate::kernels`] then runs as a pair of plain `f64` loops over the two
//! planes — fused multiply-adds with unit stride and no per-element `Complex`
//! temporaries — which LLVM autovectorises where the interleaved layout
//! (AoS) defeated it.
//!
//! Both planes live in **one** allocation: a buffer of logical length `n`
//! holds the real plane at `data[0..n]` followed by the imaginary plane at
//! `data[n..2n]`. That keeps the allocator traffic of small states (the
//! dimension-2 fingerprint registers the protocol rounds shuffle by the
//! thousands) identical to the old interleaved `Vec<Complex>`, while large
//! kernels still see two contiguous unit-stride planes.
//!
//! Invariants:
//!
//! * `data.len() == 2 * len` always;
//! * element `i` of the logical complex sequence is `data[i] + i·data[len+i]`;
//! * matrices lay each plane out row-major, so a row of a `rows × cols`
//!   matrix is the contiguous range `r*cols..(r+1)*cols` *in both planes*.
//!
//! The AoS representation survives only at explicit boundaries
//! ([`SplitBuffer::from_complex`], [`SplitBuffer::to_complex_vec`]) and in
//! [`crate::naive`], which deliberately stays on interleaved `Vec<Complex>`
//! as the oracle the SoA kernels are pinned against.

use crate::complex::Complex;

/// A pair of equal-length `f64` planes (one allocation, real plane first)
/// holding the real and imaginary parts of a logical complex sequence.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SplitBuffer {
    len: usize,
    data: Vec<f64>,
}

impl SplitBuffer {
    /// Creates a zero-filled buffer of the given logical length.
    pub fn zeros(len: usize) -> Self {
        SplitBuffer {
            len,
            data: vec![0.0; 2 * len],
        }
    }

    /// Creates a buffer of logical length `len` directly from its raw
    /// concatenated-planes representation (`data[0..len]` real,
    /// `data[len..2len]` imaginary) — the allocation-thrifty constructor the
    /// small fast paths use.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != 2 * len`.
    pub fn from_raw(len: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), 2 * len, "split buffer length mismatch");
        SplitBuffer { len, data }
    }

    /// Splits an interleaved complex slice into planes (the AoS → SoA
    /// boundary conversion).
    pub fn from_complex(zs: &[Complex]) -> Self {
        let mut buf = SplitBuffer::zeros(zs.len());
        for (i, z) in zs.iter().enumerate() {
            buf.set(i, *z);
        }
        buf
    }

    /// Creates a buffer by evaluating `f` at each index.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> Complex) -> Self {
        let mut buf = SplitBuffer::zeros(len);
        for i in 0..len {
            buf.set(i, f(i));
        }
        buf
    }

    /// Logical (complex-element) length.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the buffer holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads element `i` as a [`Complex`] value.
    #[inline]
    pub fn get(&self, i: usize) -> Complex {
        debug_assert!(i < self.len);
        Complex::new(self.data[i], self.data[self.len + i])
    }

    /// Writes element `i`.
    #[inline]
    pub fn set(&mut self, i: usize, z: Complex) {
        debug_assert!(i < self.len);
        self.data[i] = z.re;
        self.data[self.len + i] = z.im;
    }

    /// Adds `z` to element `i`.
    #[inline]
    pub fn add(&mut self, i: usize, z: Complex) {
        debug_assert!(i < self.len);
        self.data[i] += z.re;
        self.data[self.len + i] += z.im;
    }

    /// The real plane.
    #[inline]
    pub fn re(&self) -> &[f64] {
        &self.data[..self.len]
    }

    /// The imaginary plane.
    #[inline]
    pub fn im(&self) -> &[f64] {
        &self.data[self.len..]
    }

    /// Immutable view of both planes.
    #[inline]
    pub fn split(&self) -> Split<'_> {
        let (re, im) = self.data.split_at(self.len);
        Split { re, im }
    }

    /// Mutable view of both planes.
    #[inline]
    pub fn split_mut(&mut self) -> SplitMut<'_> {
        let (re, im) = self.data.split_at_mut(self.len);
        SplitMut { re, im }
    }

    /// Interleaves the planes back into a complex vector (the SoA → AoS
    /// boundary conversion, used by the [`crate::naive`] oracles).
    pub fn to_complex_vec(&self) -> Vec<Complex> {
        (0..self.len).map(|i| self.get(i)).collect()
    }

    /// Iterates the elements as [`Complex`] values.
    pub fn iter(&self) -> impl Iterator<Item = Complex> + '_ {
        let (re, im) = self.data.split_at(self.len);
        re.iter().zip(im.iter()).map(|(&r, &i)| Complex::new(r, i))
    }

    /// Sum of `re² + im²` over all elements.
    #[inline]
    pub fn norm_sqr(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum()
    }

    /// Multiplies every element by a real scalar in place.
    pub fn scale_real_in_place(&mut self, s: f64) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Multiplies every element by a complex scalar in place.
    pub fn scale_in_place(&mut self, c: Complex) {
        let (re, im) = self.data.split_at_mut(self.len);
        for (r, i) in re.iter_mut().zip(im.iter_mut()) {
            let (ar, ai) = (*r, *i);
            *r = ar * c.re - ai * c.im;
            *i = ar * c.im + ai * c.re;
        }
    }
}

/// Borrowed immutable view of a split complex sequence.
#[derive(Clone, Copy)]
pub struct Split<'a> {
    /// Real plane.
    pub re: &'a [f64],
    /// Imaginary plane.
    pub im: &'a [f64],
}

impl Split<'_> {
    /// Logical length.
    #[inline]
    pub fn len(&self) -> usize {
        self.re.len()
    }

    /// Returns `true` when the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.re.is_empty()
    }

    /// Reads element `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Complex {
        Complex::new(self.re[i], self.im[i])
    }
}

/// Borrowed mutable view of a split complex sequence.
pub struct SplitMut<'a> {
    /// Real plane.
    pub re: &'a mut [f64],
    /// Imaginary plane.
    pub im: &'a mut [f64],
}

impl SplitMut<'_> {
    /// Logical length.
    #[inline]
    pub fn len(&self) -> usize {
        self.re.len()
    }

    /// Returns `true` when the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.re.is_empty()
    }

    /// Reads element `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Complex {
        Complex::new(self.re[i], self.im[i])
    }

    /// Writes element `i`.
    #[inline]
    pub fn set(&mut self, i: usize, z: Complex) {
        self.re[i] = z.re;
        self.im[i] = z.im;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_complex() {
        let zs = [
            Complex::new(1.0, -2.0),
            Complex::ZERO,
            Complex::new(0.5, 3.5),
        ];
        let buf = SplitBuffer::from_complex(&zs);
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.to_complex_vec(), zs.to_vec());
        for (i, &z) in zs.iter().enumerate() {
            assert_eq!(buf.get(i), z);
        }
    }

    #[test]
    fn planes_are_contiguous_halves_of_one_allocation() {
        let buf = SplitBuffer::from_fn(3, |i| Complex::new(i as f64, -(i as f64)));
        assert_eq!(buf.re(), &[0.0, 1.0, 2.0]);
        assert_eq!(buf.im(), &[0.0, -1.0, -2.0]);
        let s = buf.split();
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(2), Complex::new(2.0, -2.0));
    }

    #[test]
    fn set_add_and_scale() {
        let mut buf = SplitBuffer::zeros(2);
        buf.set(0, Complex::new(1.0, 1.0));
        buf.add(0, Complex::new(0.5, -2.0));
        assert_eq!(buf.get(0), Complex::new(1.5, -1.0));
        buf.scale_real_in_place(2.0);
        assert_eq!(buf.get(0), Complex::new(3.0, -2.0));
        buf.scale_in_place(Complex::I);
        assert_eq!(buf.get(0), Complex::new(2.0, 3.0));
        assert!((buf.norm_sqr() - 13.0).abs() < 1e-12);
    }
}
