//! Byte-order aware primitive reads and writes.
//!
//! ELF files declare their own byte order in `e_ident[EI_DATA]`; everything
//! after the identification bytes must be decoded with the declared order.
//! These helpers are deliberately infallible on the write side and bounds
//! checked on the read side so parsing never panics on truncated input.

use crate::error::{Error, Result};

/// Byte order declared by an ELF file (`EI_DATA`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub enum Endian {
    /// `ELFDATA2LSB` — two's complement, little-endian (x86, x86-64, ARM).
    Little,
    /// `ELFDATA2MSB` — two's complement, big-endian (classic PowerPC, SPARC).
    Big,
}

impl Endian {
    /// The `EI_DATA` byte encoding this order.
    pub fn ei_data(self) -> u8 {
        match self {
            Endian::Little => 1,
            Endian::Big => 2,
        }
    }

    /// Decode an `EI_DATA` byte.
    pub fn from_ei_data(b: u8) -> Result<Self> {
        match b {
            1 => Ok(Endian::Little),
            2 => Ok(Endian::Big),
            other => Err(Error::Malformed(format!("invalid EI_DATA byte {other:#x}"))),
        }
    }

    /// Read a `u16` at `off`.
    pub fn read_u16(self, data: &[u8], off: usize) -> Result<u16> {
        let b = slice(data, off, 2)?;
        Ok(match self {
            Endian::Little => u16::from_le_bytes([b[0], b[1]]),
            Endian::Big => u16::from_be_bytes([b[0], b[1]]),
        })
    }

    /// Read a `u32` at `off`.
    pub fn read_u32(self, data: &[u8], off: usize) -> Result<u32> {
        let b = slice(data, off, 4)?;
        let arr = [b[0], b[1], b[2], b[3]];
        Ok(match self {
            Endian::Little => u32::from_le_bytes(arr),
            Endian::Big => u32::from_be_bytes(arr),
        })
    }

    /// Read a `u64` at `off`.
    pub fn read_u64(self, data: &[u8], off: usize) -> Result<u64> {
        let b = slice(data, off, 8)?;
        let arr = [b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]];
        Ok(match self {
            Endian::Little => u64::from_le_bytes(arr),
            Endian::Big => u64::from_be_bytes(arr),
        })
    }

    /// Append a `u16` to `out`.
    pub fn put_u16(self, out: &mut Vec<u8>, v: u16) {
        match self {
            Endian::Little => out.extend_from_slice(&v.to_le_bytes()),
            Endian::Big => out.extend_from_slice(&v.to_be_bytes()),
        }
    }

    /// Append a `u32` to `out`.
    pub fn put_u32(self, out: &mut Vec<u8>, v: u32) {
        match self {
            Endian::Little => out.extend_from_slice(&v.to_le_bytes()),
            Endian::Big => out.extend_from_slice(&v.to_be_bytes()),
        }
    }

    /// Append a `u64` to `out`.
    pub fn put_u64(self, out: &mut Vec<u8>, v: u64) {
        match self {
            Endian::Little => out.extend_from_slice(&v.to_le_bytes()),
            Endian::Big => out.extend_from_slice(&v.to_be_bytes()),
        }
    }

    /// Overwrite a `u16` at `off` in an existing buffer.
    pub fn set_u16(self, buf: &mut [u8], off: usize, v: u16) {
        let bytes = match self {
            Endian::Little => v.to_le_bytes(),
            Endian::Big => v.to_be_bytes(),
        };
        buf[off..off + 2].copy_from_slice(&bytes);
    }

    /// Overwrite a `u32` at `off` in an existing buffer.
    pub fn set_u32(self, buf: &mut [u8], off: usize, v: u32) {
        let bytes = match self {
            Endian::Little => v.to_le_bytes(),
            Endian::Big => v.to_be_bytes(),
        };
        buf[off..off + 4].copy_from_slice(&bytes);
    }

    /// Overwrite a `u64` at `off` in an existing buffer.
    pub fn set_u64(self, buf: &mut [u8], off: usize, v: u64) {
        let bytes = match self {
            Endian::Little => v.to_le_bytes(),
            Endian::Big => v.to_be_bytes(),
        };
        buf[off..off + 8].copy_from_slice(&bytes);
    }
}

/// Bounds-checked subslice helper shared by all readers.
pub(crate) fn slice(data: &[u8], off: usize, len: usize) -> Result<&[u8]> {
    let end = off
        .checked_add(len)
        .ok_or_else(|| Error::Malformed(format!("offset overflow: {off} + {len}")))?;
    data.get(off..end).ok_or({
        Error::Truncated {
            wanted: end,
            have: data.len(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_u16_both_orders() {
        for e in [Endian::Little, Endian::Big] {
            let mut v = Vec::new();
            e.put_u16(&mut v, 0xBEEF);
            assert_eq!(e.read_u16(&v, 0).unwrap(), 0xBEEF);
        }
    }

    #[test]
    fn round_trip_u32_both_orders() {
        for e in [Endian::Little, Endian::Big] {
            let mut v = Vec::new();
            e.put_u32(&mut v, 0xDEAD_BEEF);
            assert_eq!(e.read_u32(&v, 0).unwrap(), 0xDEAD_BEEF);
        }
    }

    #[test]
    fn round_trip_u64_both_orders() {
        for e in [Endian::Little, Endian::Big] {
            let mut v = Vec::new();
            e.put_u64(&mut v, 0x0123_4567_89AB_CDEF);
            assert_eq!(e.read_u64(&v, 0).unwrap(), 0x0123_4567_89AB_CDEF);
        }
    }

    #[test]
    fn little_and_big_disagree_on_bytes() {
        let mut le = Vec::new();
        let mut be = Vec::new();
        Endian::Little.put_u32(&mut le, 1);
        Endian::Big.put_u32(&mut be, 1);
        assert_ne!(le, be);
        assert_eq!(le, vec![1, 0, 0, 0]);
        assert_eq!(be, vec![0, 0, 0, 1]);
    }

    #[test]
    fn truncated_read_is_error_not_panic() {
        let data = [0u8; 3];
        assert!(Endian::Little.read_u32(&data, 0).is_err());
        assert!(Endian::Little.read_u16(&data, 2).is_err());
        assert!(Endian::Little.read_u64(&data, usize::MAX - 2).is_err());
    }

    #[test]
    fn set_then_read_round_trip() {
        let mut buf = vec![0u8; 8];
        Endian::Big.set_u64(&mut buf, 0, 42);
        assert_eq!(Endian::Big.read_u64(&buf, 0).unwrap(), 42);
        Endian::Little.set_u16(&mut buf, 2, 7);
        assert_eq!(Endian::Little.read_u16(&buf, 2).unwrap(), 7);
    }
}
