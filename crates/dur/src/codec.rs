//! Versioned, checksummed little-endian binary codec.
//!
//! Two layers:
//!
//! 1. **Primitive encoding** — [`Encoder`]/[`Decoder`] plus the [`Enc`] /
//!    [`Dec`] traits, implemented here for integers, floats (bit-exact via
//!    `to_bits`), `bool`, `String`, `Vec<T>`, `Option<T>`, and pairs.
//!    Downstream crates implement the traits for their own state types;
//!    that is why this crate sits at the bottom of the workspace stack.
//! 2. **Framing** — [`encode_frame`] wraps a payload in
//!    `magic(4) | version(2) | len(4) | crc32(4) | payload`, and
//!    [`decode_frame`] / [`scan_frame`] validate all four before handing
//!    the payload back. A torn write (frame cut short) surfaces as
//!    [`CodecError::Truncated`]; corruption as
//!    [`CodecError::ChecksumMismatch`] or [`CodecError::BadMagic`].
//!
//! Every decode path returns `Result` — corrupt bytes must never panic,
//! because recovery *expects* to meet torn frames at the tail of a WAL.

use std::fmt;

/// Number of bytes of frame overhead: magic + version + length + CRC32.
pub const FRAME_HEADER_BYTES: usize = 4 + 2 + 4 + 4;
/// Bytes of overhead of a log record (`crc32 | len`).
pub const RECORD_HEADER_BYTES: usize = 8;

/// Errors surfaced while decoding persisted bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the announced structure was complete — the
    /// signature of a torn (partially durable) write.
    Truncated {
        /// Bytes the decoder needed to make progress.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// The frame does not start with the expected magic tag.
    BadMagic { expected: [u8; 4], got: [u8; 4] },
    /// The frame's format version is newer than this build understands.
    UnsupportedVersion { got: u16, max: u16 },
    /// The frame's CRC32 (computed over magic, version, length, and
    /// payload) does not match the stored value — bit rot.
    ChecksumMismatch { expected: u32, got: u32 },
    /// Structurally invalid payload (bad enum tag, impossible length, …).
    Malformed(String),
    /// A string's bytes are not UTF-8. Its own variant, so that decoders
    /// which must not allocate can refuse it.
    InvalidUtf8,
    /// Decoding succeeded but left unconsumed bytes where none belong.
    TrailingBytes { remaining: usize },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, remaining } => {
                write!(
                    f,
                    "truncated input: needed {needed} bytes, {remaining} remain"
                )
            }
            CodecError::BadMagic { expected, got } => {
                write!(f, "bad magic: expected {expected:02x?}, got {got:02x?}")
            }
            CodecError::UnsupportedVersion { got, max } => {
                write!(
                    f,
                    "unsupported format version {got} (max understood: {max})"
                )
            }
            CodecError::ChecksumMismatch { expected, got } => {
                write!(
                    f,
                    "crc32 mismatch: header says {expected:#010x}, payload hashes to {got:#010x}"
                )
            }
            CodecError::Malformed(msg) => write!(f, "malformed payload: {msg}"),
            CodecError::InvalidUtf8 => write!(f, "malformed payload: invalid utf-8 in string"),
            CodecError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after payload")
            }
        }
    }
}

impl std::error::Error for CodecError {}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3 polynomial, reflected), table-driven, eight bytes a step.
// ---------------------------------------------------------------------------

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the CRC
/// of byte `b` followed by `k` zero bytes, which lets one step fold eight
/// input bytes (slicing-by-8). Recovery checksums every log it reads, so
/// this loop is most of what a large emit log costs to open.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// IEEE CRC32 of `bytes` (the common `crc32`/zlib checksum).
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_parts(&[bytes])
}

/// CRC32 over the concatenation of `parts` without materializing it.
pub fn crc32_parts(parts: &[&[u8]]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = !0u32;
    for part in parts {
        let mut chunks = part.chunks_exact(8);
        for c in &mut chunks {
            let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
            let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
        }
    }
    !crc
}

// ---------------------------------------------------------------------------
// Encoder / Decoder
// ---------------------------------------------------------------------------

/// Append-only byte sink for the binary codec. All integers little-endian.
#[derive(Debug, Default, Clone)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    pub fn new() -> Self {
        Encoder { buf: Vec::new() }
    }

    pub fn with_capacity(cap: usize) -> Self {
        Encoder {
            buf: Vec::with_capacity(cap),
        }
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Encode any [`Enc`] value (convenience for chained building).
    pub fn put<T: Enc + ?Sized>(&mut self, v: &T) {
        v.enc(self);
    }

    /// Append `crc32(4 LE) | len(4 LE) | payload`, the record form the
    /// write-ahead and emit logs share, with what `write` appends as the
    /// payload — framed where it lies, no second buffer. The CRC covers the
    /// length field too, so a bit flip in `len` is a checksum mismatch (bit
    /// rot), not a phantom tear.
    pub fn put_record(&mut self, write: impl FnOnce(&mut Encoder)) {
        let at = self.buf.len();
        self.buf.extend_from_slice(&[0; RECORD_HEADER_BYTES]);
        write(self);
        let len = (self.buf.len() - at - RECORD_HEADER_BYTES) as u32;
        self.buf[at + 4..at + 8].copy_from_slice(&len.to_le_bytes());
        let crc = crc32(&self.buf[at + 4..]);
        self.buf[at..at + 4].copy_from_slice(&crc.to_le_bytes());
    }

    /// Append a frame (see [`encode_frame`]) whose payload is what `write`
    /// appends.
    pub fn put_frame(&mut self, magic: [u8; 4], version: u16, write: impl FnOnce(&mut Encoder)) {
        let at = self.buf.len();
        self.buf.extend_from_slice(&magic);
        self.buf.extend_from_slice(&version.to_le_bytes());
        self.buf.extend_from_slice(&[0; 8]);
        write(self);
        let len = (self.buf.len() - at - FRAME_HEADER_BYTES) as u32;
        self.buf[at + 6..at + 10].copy_from_slice(&len.to_le_bytes());
        let (header, payload) = self.buf[at..].split_at(FRAME_HEADER_BYTES);
        let crc = crc32_parts(&[&header[..10], payload]);
        self.buf[at + 10..at + 14].copy_from_slice(&crc.to_le_bytes());
    }

    /// Append a `u64` byte count followed by what `write` appends.
    pub fn put_len_prefixed(&mut self, write: impl FnOnce(&mut Encoder)) {
        let at = self.buf.len();
        self.buf.extend_from_slice(&[0; 8]);
        write(self);
        let len = (self.buf.len() - at - 8) as u64;
        self.buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
    }

    /// Forget the contents, keep the allocation.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }
}

/// Cursor over persisted bytes; every `take_*` checks bounds and returns
/// [`CodecError::Truncated`] instead of panicking.
#[derive(Debug, Clone)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn position(&self) -> usize {
        self.pos
    }

    /// How many `T`s to reserve for a count of `n` read from the input:
    /// at most as many as the remaining bytes could hold in memory, so a
    /// forged count reserves no more than the input's length.
    pub fn capacity_for<T>(&self, n: usize) -> usize {
        n.min(self.remaining() / std::mem::size_of::<T>().max(1))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn take_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    pub fn take_u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn take_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn take_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }

    /// Decode any [`Dec`] value (convenience mirroring [`Encoder::put`]).
    pub fn get<T: Dec>(&mut self) -> Result<T, CodecError> {
        T::dec(self)
    }

    /// Fail with [`CodecError::TrailingBytes`] unless fully consumed.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            return Err(CodecError::TrailingBytes {
                remaining: self.remaining(),
            });
        }
        Ok(())
    }
}

/// Types that can write themselves into an [`Encoder`].
pub trait Enc {
    fn enc(&self, e: &mut Encoder);
}

/// Types that can reconstruct themselves from a [`Decoder`].
pub trait Dec: Sized {
    fn dec(d: &mut Decoder<'_>) -> Result<Self, CodecError>;
}

macro_rules! int_codec {
    ($ty:ty, $put:ident, $take:ident) => {
        impl Enc for $ty {
            fn enc(&self, e: &mut Encoder) {
                e.$put(*self);
            }
        }
        impl Dec for $ty {
            fn dec(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
                d.$take()
            }
        }
    };
}

int_codec!(u8, put_u8, take_u8);
int_codec!(u16, put_u16, take_u16);
int_codec!(u32, put_u32, take_u32);
int_codec!(u64, put_u64, take_u64);

impl Enc for usize {
    fn enc(&self, e: &mut Encoder) {
        e.put_u64(*self as u64);
    }
}

impl Dec for usize {
    fn dec(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        usize::try_from(d.take_u64()?)
            .map_err(|_| CodecError::Malformed("usize out of range for platform".into()))
    }
}

impl Enc for i64 {
    fn enc(&self, e: &mut Encoder) {
        e.put_u64(*self as u64);
    }
}

impl Dec for i64 {
    fn dec(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(d.take_u64()? as i64)
    }
}

impl Enc for bool {
    fn enc(&self, e: &mut Encoder) {
        e.put_u8(u8::from(*self));
    }
}

impl Dec for bool {
    fn dec(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match d.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::Malformed(format!("bool tag {other}"))),
        }
    }
}

// Floats round-trip through raw bits: bit-exact, NaN-preserving.
impl Enc for f64 {
    fn enc(&self, e: &mut Encoder) {
        e.put_u64(self.to_bits());
    }
}

impl Dec for f64 {
    fn dec(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(f64::from_bits(d.take_u64()?))
    }
}

impl Enc for f32 {
    fn enc(&self, e: &mut Encoder) {
        e.put_u32(self.to_bits());
    }
}

impl Dec for f32 {
    fn dec(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(f32::from_bits(d.take_u32()?))
    }
}

impl Enc for str {
    fn enc(&self, e: &mut Encoder) {
        e.put_u64(self.len() as u64);
        e.put_bytes(self.as_bytes());
    }
}

impl Enc for String {
    fn enc(&self, e: &mut Encoder) {
        self.as_str().enc(e);
    }
}

impl Dec for String {
    fn dec(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let len = d.get::<usize>()?;
        let bytes = d.take_bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::InvalidUtf8)
    }
}

impl<T: Enc> Enc for [T] {
    fn enc(&self, e: &mut Encoder) {
        e.put_u64(self.len() as u64);
        for item in self {
            item.enc(e);
        }
    }
}

impl<T: Enc> Enc for Vec<T> {
    fn enc(&self, e: &mut Encoder) {
        self.as_slice().enc(e);
    }
}

impl<T: Dec> Dec for Vec<T> {
    fn dec(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let len = d.get::<usize>()?;
        let mut out = Vec::with_capacity(d.capacity_for::<T>(len));
        for _ in 0..len {
            out.push(T::dec(d)?);
        }
        Ok(out)
    }
}

impl<T: Enc> Enc for Option<T> {
    fn enc(&self, e: &mut Encoder) {
        match self {
            None => e.put_u8(0),
            Some(v) => {
                e.put_u8(1);
                v.enc(e);
            }
        }
    }
}

impl<T: Dec> Dec for Option<T> {
    fn dec(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match d.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::dec(d)?)),
            other => Err(CodecError::Malformed(format!("option tag {other}"))),
        }
    }
}

impl<A: Enc, B: Enc> Enc for (A, B) {
    fn enc(&self, e: &mut Encoder) {
        self.0.enc(e);
        self.1.enc(e);
    }
}

impl<A: Dec, B: Dec> Dec for (A, B) {
    fn dec(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok((A::dec(d)?, B::dec(d)?))
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Wrap `payload` in a checksummed frame:
/// `magic(4) | version(2 LE) | payload_len(4 LE) | crc32(4 LE) | payload`,
/// where the CRC covers everything except its own field — a bit flip
/// anywhere in the frame is detectable.
pub fn encode_frame(magic: [u8; 4], version: u16, payload: &[u8]) -> Vec<u8> {
    let mut out = Encoder::with_capacity(FRAME_HEADER_BYTES + payload.len());
    out.put_frame(magic, version, |e| e.put_bytes(payload));
    out.into_bytes()
}

/// Decode the `crc32 | len | payload` record at the start of `bytes`
/// (see [`Encoder::put_record`]); returns `(payload, bytes consumed)`.
pub fn scan_record(bytes: &[u8]) -> Result<(&[u8], usize), CodecError> {
    if bytes.len() < RECORD_HEADER_BYTES {
        return Err(CodecError::Truncated {
            needed: RECORD_HEADER_BYTES,
            remaining: bytes.len(),
        });
    }
    let expected_crc = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
    let len = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
    let total = RECORD_HEADER_BYTES + len;
    if bytes.len() < total {
        return Err(CodecError::Truncated {
            needed: total,
            remaining: bytes.len(),
        });
    }
    let got_crc = crc32(&bytes[4..total]);
    if got_crc != expected_crc {
        return Err(CodecError::ChecksumMismatch {
            expected: expected_crc,
            got: got_crc,
        });
    }
    Ok((&bytes[RECORD_HEADER_BYTES..total], total))
}

/// Decode one frame at the start of `bytes`, tolerating trailing data.
/// Returns `(version, payload, bytes_consumed)`.
pub fn scan_frame(
    magic: [u8; 4],
    max_version: u16,
    bytes: &[u8],
) -> Result<(u16, &[u8], usize), CodecError> {
    if bytes.len() < FRAME_HEADER_BYTES {
        return Err(CodecError::Truncated {
            needed: FRAME_HEADER_BYTES,
            remaining: bytes.len(),
        });
    }
    let got_magic: [u8; 4] = bytes[0..4].try_into().unwrap();
    if got_magic != magic {
        return Err(CodecError::BadMagic {
            expected: magic,
            got: got_magic,
        });
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().unwrap());
    if version > max_version {
        return Err(CodecError::UnsupportedVersion {
            got: version,
            max: max_version,
        });
    }
    let len = u32::from_le_bytes(bytes[6..10].try_into().unwrap()) as usize;
    let expected_crc = u32::from_le_bytes(bytes[10..14].try_into().unwrap());
    let total = FRAME_HEADER_BYTES + len;
    if bytes.len() < total {
        return Err(CodecError::Truncated {
            needed: total,
            remaining: bytes.len(),
        });
    }
    let payload = &bytes[FRAME_HEADER_BYTES..total];
    let got_crc = crc32_parts(&[&bytes[..10], payload]);
    if got_crc != expected_crc {
        return Err(CodecError::ChecksumMismatch {
            expected: expected_crc,
            got: got_crc,
        });
    }
    Ok((version, payload, total))
}

/// Decode a frame that must span `bytes` exactly (no trailing data).
pub fn decode_frame(
    magic: [u8; 4],
    max_version: u16,
    bytes: &[u8],
) -> Result<(u16, &[u8]), CodecError> {
    let (version, payload, consumed) = scan_frame(magic, max_version, bytes)?;
    if consumed != bytes.len() {
        return Err(CodecError::TrailingBytes {
            remaining: bytes.len() - consumed,
        });
    }
    Ok((version, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_reference_vector() {
        // The canonical IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_equals_the_bytewise_definition_at_every_length_and_split() {
        let bytewise = |bytes: &[u8]| {
            let mut crc = !0u32;
            for &b in bytes {
                crc ^= u32::from(b);
                for _ in 0..8 {
                    crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
                }
            }
            !crc
        };
        let data: Vec<u8> = (0..97u32).map(|i| (i * 167 + 13) as u8).collect();
        for len in 0..data.len() {
            let want = bytewise(&data[..len]);
            assert_eq!(crc32(&data[..len]), want, "length {len}");
            for cut in [0, 1, 3, 8, 9, len / 2, len] {
                let cut = cut.min(len);
                let parts = [&data[..cut], &data[cut..len]];
                assert_eq!(crc32_parts(&parts), want, "length {len} split at {cut}");
            }
        }
    }

    #[test]
    fn primitives_round_trip() {
        let mut e = Encoder::new();
        e.put(&42u8);
        e.put(&7u16);
        e.put(&u32::MAX);
        e.put(&u64::MAX);
        e.put(&usize::MAX);
        e.put(&-5i64);
        e.put(&true);
        e.put(&f64::NAN);
        e.put(&1.5f32);
        e.put("hello");
        e.put(&vec![1u64, 2, 3]);
        e.put(&Some(9u32));
        e.put(&None::<u32>);
        e.put(&("k".to_string(), 3u64));

        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get::<u8>().unwrap(), 42);
        assert_eq!(d.get::<u16>().unwrap(), 7);
        assert_eq!(d.get::<u32>().unwrap(), u32::MAX);
        assert_eq!(d.get::<u64>().unwrap(), u64::MAX);
        assert_eq!(d.get::<usize>().unwrap(), usize::MAX);
        assert_eq!(d.get::<i64>().unwrap(), -5);
        assert!(d.get::<bool>().unwrap());
        assert!(d.get::<f64>().unwrap().is_nan());
        assert_eq!(d.get::<f32>().unwrap(), 1.5);
        assert_eq!(d.get::<String>().unwrap(), "hello");
        assert_eq!(d.get::<Vec<u64>>().unwrap(), vec![1, 2, 3]);
        assert_eq!(d.get::<Option<u32>>().unwrap(), Some(9));
        assert_eq!(d.get::<Option<u32>>().unwrap(), None);
        assert_eq!(d.get::<(String, u64)>().unwrap(), ("k".to_string(), 3));
        d.finish().unwrap();
    }

    #[test]
    fn truncated_decode_reports_not_panics() {
        let mut e = Encoder::new();
        e.put(&vec![1u64, 2, 3]);
        let bytes = e.into_bytes();
        for cut in 0..bytes.len() {
            let mut d = Decoder::new(&bytes[..cut]);
            assert!(d.get::<Vec<u64>>().is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn bad_tags_are_malformed() {
        assert!(matches!(
            Decoder::new(&[2]).get::<bool>(),
            Err(CodecError::Malformed(_))
        ));
        assert!(matches!(
            Decoder::new(&[7, 0, 0, 0, 0]).get::<Option<u8>>(),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn frame_round_trip_and_version_gate() {
        const MAGIC: [u8; 4] = *b"TEST";
        let frame = encode_frame(MAGIC, 3, b"payload");
        let (version, payload) = decode_frame(MAGIC, 3, &frame).unwrap();
        assert_eq!(version, 3);
        assert_eq!(payload, b"payload");
        assert!(matches!(
            decode_frame(MAGIC, 2, &frame),
            Err(CodecError::UnsupportedVersion { got: 3, max: 2 })
        ));
        assert!(matches!(
            decode_frame(*b"ELSE", 3, &frame),
            Err(CodecError::BadMagic { .. })
        ));
    }

    #[test]
    fn every_torn_prefix_is_detected() {
        const MAGIC: [u8; 4] = *b"TEST";
        let frame = encode_frame(MAGIC, 1, b"some payload bytes");
        for cut in 0..frame.len() {
            let err = decode_frame(MAGIC, 1, &frame[..cut]).unwrap_err();
            assert!(
                matches!(err, CodecError::Truncated { .. }),
                "cut at {cut}: got {err}"
            );
        }
    }

    #[test]
    fn every_single_bitflip_is_detected() {
        const MAGIC: [u8; 4] = *b"TEST";
        let frame = encode_frame(MAGIC, 1, b"some payload bytes");
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut corrupt = frame.clone();
                corrupt[byte] ^= 1 << bit;
                assert!(
                    decode_frame(MAGIC, 1, &corrupt).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn scan_frame_reports_consumed_and_allows_trailing() {
        const MAGIC: [u8; 4] = *b"TEST";
        let mut bytes = encode_frame(MAGIC, 1, b"first");
        let first_len = bytes.len();
        bytes.extend_from_slice(&encode_frame(MAGIC, 1, b"second"));
        let (_, payload, consumed) = scan_frame(MAGIC, 1, &bytes).unwrap();
        assert_eq!(payload, b"first");
        assert_eq!(consumed, first_len);
        let (_, payload, _) = scan_frame(MAGIC, 1, &bytes[consumed..]).unwrap();
        assert_eq!(payload, b"second");
    }
}
