//! Minimal binary codec for log records.
//!
//! Hand-rolled little-endian encoding: the log format wants length-prefixed,
//! checksummed, self-delimiting frames, which is simpler to guarantee by
//! writing the bytes ourselves than through a general serializer.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::disallowed_macros
)]

use pitree_pagestore::{StoreError, StoreResult};

/// Append-only byte writer over a caller's buffer, so a buffer that is
/// reused record after record stops allocating once it is large enough.
pub struct Writer<'a> {
    buf: &'a mut Vec<u8>,
}

impl std::fmt::Debug for Writer<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Writer").finish_non_exhaustive()
    }
}

impl<'a> Writer<'a> {
    /// Append to the end of `buf`.
    pub fn new(buf: &'a mut Vec<u8>) -> Writer<'a> {
        Writer { buf }
    }

    /// Append a byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Append a count-prefixed list of byte strings.
    pub fn byte_list(&mut self, items: &[Vec<u8>]) {
        self.u32(items.len() as u32);
        for item in items {
            self.bytes(item);
        }
    }
}

/// Sequential byte reader with bounds checking.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl std::fmt::Debug for Reader<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reader").finish_non_exhaustive()
    }
}

impl<'a> Reader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> StoreResult<&'a [u8]> {
        let end = self.pos.saturating_add(n);
        let Some(s) = self.buf.get(self.pos..end) else {
            return Err(StoreError::Corrupt(format!(
                "log decode overrun: need {n} bytes at {}, have {}",
                self.pos,
                self.buf.len()
            )));
        };
        self.pos = end;
        Ok(s)
    }

    /// The next `N` bytes as an array.
    fn array<const N: usize>(&mut self) -> StoreResult<[u8; N]> {
        let s = self.take(N)?;
        s.try_into().map_err(|_| {
            StoreError::Corrupt(format!(
                "log decode: {} bytes for a {N}-byte field",
                s.len()
            ))
        })
    }

    /// Read a byte.
    pub fn u8(&mut self) -> StoreResult<u8> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    /// Read a little-endian u16.
    pub fn u16(&mut self) -> StoreResult<u16> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Read a little-endian u32.
    pub fn u32(&mut self) -> StoreResult<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Read a little-endian u64.
    pub fn u64(&mut self) -> StoreResult<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> StoreResult<Vec<u8>> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    /// Read a count-prefixed list of byte strings. The count is not
    /// trusted: it reserves no more items than the rest of the input can
    /// hold (each is at least its 4-byte length).
    pub fn byte_list(&mut self) -> StoreResult<Vec<Vec<u8>>> {
        let n = self.u32()? as usize;
        let mut items = Vec::with_capacity(n.min(self.remaining() / 4));
        for _ in 0..n {
            items.push(self.bytes()?);
        }
        Ok(items)
    }

    /// Step over a length-prefixed byte string, as [`Reader::bytes`] reads
    /// it, without copying it.
    pub fn skip_bytes(&mut self) -> StoreResult<()> {
        let n = self.u32()? as usize;
        self.take(n).map(drop)
    }

    /// Step over a count-prefixed list of byte strings, as
    /// [`Reader::byte_list`] reads it, without copying it.
    pub fn skip_byte_list(&mut self) -> StoreResult<()> {
        let n = self.u32()?;
        (0..n).try_for_each(|_| self.skip_bytes())
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether all input was consumed.
    pub fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// FNV-1a hash used as the per-record checksum (detects torn log tails).
pub fn checksum(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

#[cfg(test)]
#[expect(clippy::disallowed_macros, reason = "test assertions")]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut bytes = Vec::new();
        let mut w = Writer::new(&mut bytes);
        w.u8(0xab);
        w.u16(0x1234);
        w.u32(0xdead_beef);
        w.u64(0x0102_0304_0506_0708);
        w.bytes(b"payload");
        w.byte_list(&[b"one".to_vec(), Vec::new()]);
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xab);
        assert_eq!(r.u16().unwrap(), 0x1234);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), 0x0102_0304_0506_0708);
        assert_eq!(r.bytes().unwrap(), b"payload");
        assert_eq!(r.byte_list().unwrap(), [b"one".to_vec(), Vec::new()]);
        assert!(r.is_done());
    }

    #[test]
    fn overrun_is_an_error() {
        let mut r = Reader::new(&[1, 2]);
        assert!(r.u32().is_err());
        // A list claiming four billion items over eight bytes of input.
        let mut r = Reader::new(&[0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0]);
        assert!(r.byte_list().is_err());
    }

    #[test]
    fn checksum_differs_on_flip() {
        let a = checksum(b"hello world");
        let b = checksum(b"hello worle");
        assert_ne!(a, b);
        assert_eq!(a, checksum(b"hello world"));
    }
}
