//! Offline stand-in for the `bytes` crate.
//!
//! Provides the little-endian read/write subset of `Buf`/`BufMut` the wire
//! format code uses, with `BytesMut` as a growable buffer over `Vec<u8>`
//! and `Bytes` as its frozen (immutable) form.
//!
//! Every method is `#[inline]`, as in the crate it stands in for: without
//! LTO a method of another crate is only inlined when it says so, and the
//! wire codec calls one of these for every value it reads or writes.

use std::ops::Deref;

/// An immutable byte buffer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Bytes(Vec<u8>);

impl Bytes {
    #[inline]
    pub fn from_vec(v: Vec<u8>) -> Bytes {
        Bytes(v)
    }

    #[inline]
    pub fn to_vec(&self) -> Vec<u8> {
        self.0.clone()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Bytes {
    #[inline]
    fn from(v: Vec<u8>) -> Bytes {
        Bytes(v)
    }
}

/// A growable byte buffer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BytesMut(Vec<u8>);

impl BytesMut {
    #[inline]
    pub fn new() -> BytesMut {
        BytesMut(Vec::new())
    }

    #[inline]
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut(Vec::with_capacity(cap))
    }

    #[inline]
    pub fn freeze(self) -> Bytes {
        Bytes(self.0)
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for BytesMut {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// Write access to a byte buffer; all multi-byte writes are little-endian.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    #[inline]
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }
    #[inline]
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }
    #[inline]
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
    #[inline]
    fn put_i32_le(&mut self, v: i32) {
        self.put_slice(&v.to_le_bytes());
    }
    #[inline]
    fn put_i64_le(&mut self, v: i64) {
        self.put_slice(&v.to_le_bytes());
    }
    #[inline]
    fn put_i128_le(&mut self, v: i128) {
        self.put_slice(&v.to_le_bytes());
    }
    #[inline]
    fn put_f64_le(&mut self, v: f64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.0.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

/// Read access over a byte cursor; all multi-byte reads are little-endian.
///
/// Unlike the real crate, reads past the end panic (callers here always
/// check `remaining()` first, matching the upstream contract).
pub trait Buf {
    fn remaining(&self) -> usize;
    fn advance(&mut self, n: usize);
    /// Copy `N` bytes out and advance.
    fn take_array<const N: usize>(&mut self) -> [u8; N];

    #[inline]
    fn get_u8(&mut self) -> u8 {
        self.take_array::<1>()[0]
    }
    #[inline]
    fn get_u16_le(&mut self) -> u16 {
        u16::from_le_bytes(self.take_array())
    }
    #[inline]
    fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.take_array())
    }
    #[inline]
    fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.take_array())
    }
    #[inline]
    fn get_i32_le(&mut self) -> i32 {
        i32::from_le_bytes(self.take_array())
    }
    #[inline]
    fn get_i64_le(&mut self) -> i64 {
        i64::from_le_bytes(self.take_array())
    }
    #[inline]
    fn get_i128_le(&mut self) -> i128 {
        i128::from_le_bytes(self.take_array())
    }
    #[inline]
    fn get_f64_le(&mut self) -> f64 {
        f64::from_le_bytes(self.take_array())
    }
}

impl Buf for &[u8] {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }

    #[inline]
    fn advance(&mut self, n: usize) {
        *self = &self[n..];
    }

    #[inline]
    fn take_array<const N: usize>(&mut self) -> [u8; N] {
        let (head, rest) = self.split_at(N);
        *self = rest;
        head.try_into().expect("split_at returns N bytes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_widths() {
        let mut b = BytesMut::with_capacity(64);
        b.put_u8(7);
        b.put_u16_le(0x1234);
        b.put_u32_le(0xDEAD_BEEF);
        b.put_u64_le(42);
        b.put_i32_le(-5);
        b.put_i64_le(-6);
        b.put_i128_le(-7);
        b.put_f64_le(1.5);
        b.put_slice(b"xyz");
        let frozen = b.freeze();
        let mut r: &[u8] = &frozen;
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u16_le(), 0x1234);
        assert_eq!(r.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64_le(), 42);
        assert_eq!(r.get_i32_le(), -5);
        assert_eq!(r.get_i64_le(), -6);
        assert_eq!(r.get_i128_le(), -7);
        assert_eq!(r.get_f64_le(), 1.5);
        assert_eq!(r.remaining(), 3);
        r.advance(1);
        assert_eq!(r, b"yz");
    }
}
