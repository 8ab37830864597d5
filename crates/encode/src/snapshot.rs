//! The versioned binary container for machine snapshots.
//!
//! A snapshot is a self-describing byte blob:
//!
//! ```text
//! +--------+---------+------------------------------------+----------+
//! | magic  | version | sections: tag(4) + len(8) + bytes  | checksum |
//! | "TM3S" |   u32   |            (repeated)              | FNV-1a64 |
//! +--------+---------+------------------------------------+----------+
//! ```
//!
//! All integers are little-endian; `f64` state travels as raw IEEE-754
//! bits so restore is bit-exact. The trailing checksum is FNV-1a 64 over
//! everything before it, so corruption is detected up front, before any
//! section is interpreted. Decoding never panics: every failure mode —
//! truncation, a version from the future, flipped bits — is a typed
//! [`SnapshotError`].
//!
//! The container knows nothing about machines; `tm3270-mem` and
//! `tm3270-core` define what goes inside the sections. Bumping
//! [`SNAPSHOT_VERSION`] is required whenever any section's layout
//! changes — old blobs are then rejected with
//! [`SnapshotError::VersionMismatch`] rather than misread.

use std::error::Error;
use std::fmt;

/// Magic bytes identifying a machine snapshot blob.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"TM3S";

/// Current snapshot format version. Bump on any layout change of any
/// section; readers reject every other version. Version 2 stores flat
/// memory as a table of non-zero pages (version 1 stored a dense
/// prefix).
pub const SNAPSHOT_VERSION: u32 = 2;

/// Typed failures of snapshot decoding. Decoding never panics; arbitrary
/// bytes degrade into one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The blob does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The blob was written by a different format version.
    VersionMismatch {
        /// The version field found in the blob.
        found: u32,
        /// The version this reader understands ([`SNAPSHOT_VERSION`]).
        expected: u32,
    },
    /// The blob ends before the named item is complete.
    Truncated {
        /// What was being read when the bytes ran out.
        what: &'static str,
    },
    /// The blob is internally inconsistent (checksum mismatch, impossible
    /// lengths, state that violates an invariant of the restored type).
    Corrupt {
        /// What inconsistency was detected.
        what: &'static str,
    },
    /// A required section is absent from the blob.
    MissingSection {
        /// The four-byte section tag, rendered as text.
        tag: [u8; 4],
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapshotError::VersionMismatch { found, expected } => {
                write!(f, "snapshot format version {found} (expected {expected})")
            }
            SnapshotError::Truncated { what } => write!(f, "snapshot truncated in {what}"),
            SnapshotError::Corrupt { what } => write!(f, "corrupt snapshot: {what}"),
            SnapshotError::MissingSection { tag } => {
                write!(f, "snapshot section `{}` missing", tag.escape_ascii())
            }
        }
    }
}

impl Error for SnapshotError {}

/// FNV-1a 64 over `bytes` — the integrity trailer of the container.
/// Public so tests (and external tools) can re-seal a deliberately
/// modified blob.
pub fn snapshot_checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Builds a snapshot blob: header, then tagged sections, then the
/// checksum trailer on [`finish`](SnapshotWriter::finish).
#[derive(Debug)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl Default for SnapshotWriter {
    fn default() -> SnapshotWriter {
        SnapshotWriter::new()
    }
}

impl SnapshotWriter {
    /// Starts a blob: magic + current format version.
    pub fn new() -> SnapshotWriter {
        let mut buf = Vec::with_capacity(256);
        buf.extend_from_slice(&SNAPSHOT_MAGIC);
        buf.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        SnapshotWriter { buf }
    }

    /// Appends one section: `fill` writes the payload, the length frame
    /// is patched in afterwards.
    pub fn section(&mut self, tag: [u8; 4], fill: impl FnOnce(&mut SectionWriter)) {
        self.buf.extend_from_slice(&tag);
        let len_at = self.buf.len();
        self.buf.extend_from_slice(&0u64.to_le_bytes());
        let start = self.buf.len();
        let mut w = SectionWriter { buf: &mut self.buf };
        fill(&mut w);
        let len = (self.buf.len() - start) as u64;
        self.buf[len_at..len_at + 8].copy_from_slice(&len.to_le_bytes());
    }

    /// Seals the blob with its checksum trailer and returns the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        let sum = snapshot_checksum(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }
}

/// Appends primitive values to one section's payload. All integers are
/// little-endian; `f64` goes through [`f64::to_bits`].
#[derive(Debug)]
pub struct SectionWriter<'a> {
    buf: &'a mut Vec<u8>,
}

impl SectionWriter<'_> {
    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its raw IEEE-754 bits (bit-exact round trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends raw bytes (the caller frames the length itself).
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// A parsed snapshot blob: header and checksum validated, sections
/// indexed by tag.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    sections: Vec<([u8; 4], &'a [u8])>,
}

impl<'a> SnapshotReader<'a> {
    /// Parses and validates a blob: magic, version, checksum and section
    /// framing. Never panics on arbitrary input.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] variant except `MissingSection`.
    pub fn parse(bytes: &'a [u8]) -> Result<SnapshotReader<'a>, SnapshotError> {
        if bytes.len() < 4 {
            return Err(SnapshotError::Truncated { what: "magic" });
        }
        if bytes[..4] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        if bytes.len() < 8 {
            return Err(SnapshotError::Truncated { what: "version" });
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::VersionMismatch {
                found: version,
                expected: SNAPSHOT_VERSION,
            });
        }
        if bytes.len() < 16 {
            return Err(SnapshotError::Truncated { what: "checksum" });
        }
        let body = &bytes[..bytes.len() - 8];
        let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
        if snapshot_checksum(body) != stored {
            return Err(SnapshotError::Corrupt {
                what: "checksum mismatch",
            });
        }
        let mut sections = Vec::new();
        let mut at = 8;
        while at < body.len() {
            if body.len() - at < 12 {
                return Err(SnapshotError::Truncated {
                    what: "section header",
                });
            }
            let tag: [u8; 4] = body[at..at + 4].try_into().expect("4 bytes");
            let len = u64::from_le_bytes(body[at + 4..at + 12].try_into().expect("8 bytes"));
            at += 12;
            let len = usize::try_from(len).map_err(|_| SnapshotError::Corrupt {
                what: "section length overflows",
            })?;
            if body.len() - at < len {
                return Err(SnapshotError::Truncated {
                    what: "section payload",
                });
            }
            sections.push((tag, &body[at..at + len]));
            at += len;
        }
        Ok(SnapshotReader { sections })
    }

    /// A cursor over the payload of the section tagged `tag`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::MissingSection`] if the blob has no such section.
    pub fn section(&self, tag: [u8; 4]) -> Result<SectionReader<'a>, SnapshotError> {
        self.sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|&(_, payload)| SectionReader {
                buf: payload,
                at: 0,
            })
            .ok_or(SnapshotError::MissingSection { tag })
    }
}

/// Sequential reader over one section's payload; every getter fails with
/// [`SnapshotError::Truncated`] instead of panicking when the payload
/// runs out.
#[derive(Debug)]
pub struct SectionReader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> SectionReader<'a> {
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], SnapshotError> {
        if self.buf.len() - self.at < n {
            return Err(SnapshotError::Truncated { what });
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`].
    pub fn u8(&mut self, what: &'static str) -> Result<u8, SnapshotError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`].
    pub fn u32(&mut self, what: &'static str) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(
            self.take(4, what)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`].
    pub fn u64(&mut self, what: &'static str) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads an `f64` from its raw IEEE-754 bits.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`].
    pub fn f64(&mut self, what: &'static str) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Reads `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`].
    pub fn bytes(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], SnapshotError> {
        self.take(n, what)
    }

    /// Bytes left unread in this section.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }
}

/// Renders bytes as lowercase hex (for embedding snapshots in JSON
/// crash reports and wire replies).
pub fn to_hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = Vec::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(DIGITS[usize::from(b >> 4)]);
        out.push(DIGITS[usize::from(b & 0xf)]);
    }
    String::from_utf8(out).expect("hex digits are ASCII")
}

/// Parses the hex produced by [`to_hex`].
///
/// # Errors
///
/// [`SnapshotError::Corrupt`] on odd length or non-hex characters.
pub fn from_hex(s: &str) -> Result<Vec<u8>, SnapshotError> {
    if !s.len().is_multiple_of(2) {
        return Err(SnapshotError::Corrupt {
            what: "odd-length hex",
        });
    }
    let digit = |c: u8| -> Result<u8, SnapshotError> {
        match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            b'A'..=b'F' => Ok(c - b'A' + 10),
            _ => Err(SnapshotError::Corrupt {
                what: "non-hex character",
            }),
        }
    };
    let b = s.as_bytes();
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in b.chunks_exact(2) {
        out.push((digit(pair[0])? << 4) | digit(pair[1])?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob() -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.section(*b"AAAA", |s| {
            s.u8(7);
            s.u32(0xdead_beef);
            s.u64(u64::MAX - 1);
            s.f64(-0.125);
        });
        w.section(*b"BBBB", |s| s.bytes(&[1, 2, 3]));
        w.finish()
    }

    #[test]
    fn round_trips_sections_and_primitives() {
        let bytes = blob();
        let r = SnapshotReader::parse(&bytes).unwrap();
        let mut a = r.section(*b"AAAA").unwrap();
        assert_eq!(a.u8("x").unwrap(), 7);
        assert_eq!(a.u32("x").unwrap(), 0xdead_beef);
        assert_eq!(a.u64("x").unwrap(), u64::MAX - 1);
        assert_eq!(a.f64("x").unwrap().to_bits(), (-0.125f64).to_bits());
        assert_eq!(a.remaining(), 0);
        let mut b = r.section(*b"BBBB").unwrap();
        assert_eq!(b.bytes(3, "x").unwrap(), &[1, 2, 3]);
        assert_eq!(
            r.section(*b"CCCC").unwrap_err(),
            SnapshotError::MissingSection { tag: *b"CCCC" }
        );
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let bytes = blob();
        for n in 0..bytes.len() {
            let err = SnapshotReader::parse(&bytes[..n]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. }
                        | SnapshotError::BadMagic
                        | SnapshotError::Corrupt { .. }
                ),
                "prefix of {n} bytes: {err}"
            );
        }
    }

    #[test]
    fn bit_flips_fail_the_checksum() {
        let good = blob();
        for at in [0, 5, 12, 20] {
            let mut bad = good.clone();
            bad[at] ^= 0x40;
            let err = SnapshotReader::parse(&bad).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Corrupt { .. }
                        | SnapshotError::BadMagic
                        | SnapshotError::VersionMismatch { .. }
                ),
                "flip at {at}: {err}"
            );
        }
    }

    #[test]
    fn future_versions_are_rejected() {
        let mut bytes = blob();
        bytes[4..8].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
        // Re-seal so the version check (not the checksum) is what trips.
        let len = bytes.len();
        let sum = snapshot_checksum(&bytes[..len - 8]);
        bytes[len - 8..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            SnapshotReader::parse(&bytes).unwrap_err(),
            SnapshotError::VersionMismatch {
                found: SNAPSHOT_VERSION + 1,
                expected: SNAPSHOT_VERSION
            }
        );
    }

    #[test]
    fn hex_round_trips() {
        let bytes = blob();
        assert_eq!(from_hex(&to_hex(&bytes)).unwrap(), bytes);
        assert!(from_hex("abc").is_err());
        assert!(from_hex("zz").is_err());
        assert_eq!(from_hex("").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn hex_digits_match_the_formatter_for_every_byte() {
        let all: Vec<u8> = (0..=255).collect();
        let expected: String = all.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(to_hex(&all), expected);
    }

    #[test]
    fn section_reads_past_the_end_are_truncated_errors() {
        let bytes = blob();
        let r = SnapshotReader::parse(&bytes).unwrap();
        let mut b = r.section(*b"BBBB").unwrap();
        assert!(matches!(
            b.u64("past the end"),
            Err(SnapshotError::Truncated { .. })
        ));
    }
}
