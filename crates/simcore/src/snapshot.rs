//! Deterministic checkpoint/restore: a versioned, checksummed binary
//! codec for simulation state.
//!
//! Long seasonal runs (the paper's argument needs weeks of simulated
//! winter before the interesting regime starts) and branch-from-snapshot
//! sweeps both need one primitive: capture *every* bit of live state at
//! a sim-time S so a fresh process can continue to T with results
//! **bit-identical** to a run that never stopped. The codec here is
//! hand-rolled — like the export back-ends, no serde — because the
//! guarantee is byte-level and the format must not drift with a
//! dependency.
//!
//! Layout: a snapshot file is
//!
//! ```text
//! magic "DF3SNAP\0" (8 B) · version u32 · section count u32 ·
//!   { name: str · payload len u64 · payload crc32 u32 · payload }*
//! ```
//!
//! all little-endian. Each section payload is an independent
//! [`SnapshotWriter`] byte stream; integers are fixed-width LE, `f64`s
//! are raw IEEE bits (NaN payloads survive — the thermal decay cache
//! uses NaN as a sentinel), strings and vectors are length-prefixed.
//! Decoding **never panics**: every read is bounds-checked and returns
//! [`SnapshotError`] on truncated, corrupt, or version-skewed input, and
//! every section's CRC is verified before its payload is parsed.
//!
//! What a type must do to participate: implement [`Snapshot`]. Encoding
//! is infallible (it only appends to a buffer); decoding is validated.
//! Implementations live next to the type they capture so private fields
//! stay private.

use crate::rng::RngStreams;
use crate::time::{SimDuration, SimTime};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// File magic: identifies a DF3 snapshot container.
pub const MAGIC: [u8; 8] = *b"DF3SNAP\0";

/// Container format version. Bump on any layout change; decoders reject
/// versions they do not understand instead of misparsing. Version 2
/// added the event queue's lead-lane counter and the platform's
/// `arrivals` section (streamed job arrivals); version 3 appended the
/// whole-run peak-decision counters to the platform's stats.
pub const VERSION: u32 = 3;

/// Upper bound on declared collection lengths, as a corruption guard:
/// a flipped length byte must produce [`SnapshotError::Corrupt`], not an
/// attempted multi-terabyte allocation.
const MAX_LEN: u64 = 1 << 40;

/// Why a snapshot failed to decode. Decoding never panics; every
/// malformed input maps to one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Input ended before the declared content did.
    Truncated,
    /// The first 8 bytes are not the DF3 snapshot magic.
    BadMagic,
    /// Unknown container version.
    BadVersion(u32),
    /// A section's payload does not match its recorded CRC-32.
    ChecksumMismatch { section: String },
    /// A required section is absent from the container.
    MissingSection(String),
    /// Structurally invalid content (bad tag byte, absurd length,
    /// inconsistent cross-field state). The string says what and where.
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "not a DF3 snapshot (bad magic)"),
            SnapshotError::BadVersion(v) => {
                write!(f, "unsupported snapshot version {v} (expected {VERSION})")
            }
            SnapshotError::ChecksumMismatch { section } => {
                write!(f, "section `{section}` failed its CRC-32 check")
            }
            SnapshotError::MissingSection(name) => {
                write!(f, "snapshot has no `{name}` section")
            }
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, polynomial 0xEDB88320), slicing-by-8.

/// `T[0]` is the classic bytewise table; `T[k][b]` is the CRC of byte
/// `b` followed by `k` zero bytes, so eight table lookups fold eight
/// input bytes at once.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for ch in &mut chunks {
        let lo = c ^ u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]);
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Writer / reader.

/// Append-only byte-stream encoder. Infallible by construction.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// `f64` as raw IEEE-754 bits: the round trip is exact for every
    /// value, including NaN payloads and signed zeros.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    pub fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub fn put_bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
}

/// Bounds-checked byte-stream decoder over a borrowed slice.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        SnapshotReader { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn take_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    pub fn take_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn take_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn take_i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn take_usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.take_u64()?;
        usize::try_from(v).map_err(|_| SnapshotError::Corrupt(format!("usize overflow: {v}")))
    }

    pub fn take_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    pub fn take_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapshotError::Corrupt(format!("bool byte {b}"))),
        }
    }

    /// A declared collection length, sanity-capped so corrupt lengths
    /// fail instead of attempting absurd allocations.
    pub fn take_len(&mut self) -> Result<usize, SnapshotError> {
        let n = self.take_u64()?;
        if n > MAX_LEN {
            return Err(SnapshotError::Corrupt(format!("length {n} exceeds cap")));
        }
        // Even a capped length must not exceed what the input could hold
        // (each element is at least one byte... except zero-sized
        // composites, so only reject lengths beyond the raw byte count).
        if n as usize > self.buf.len().saturating_mul(8) {
            return Err(SnapshotError::Corrupt(format!(
                "length {n} exceeds input size"
            )));
        }
        Ok(n as usize)
    }

    pub fn take_str(&mut self) -> Result<String, SnapshotError> {
        let n = self.take_len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Corrupt("non-UTF-8 string".into()))
    }

    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        self.take(n)
    }

    /// Assert the stream is fully consumed — a section with trailing
    /// bytes means encoder and decoder disagree about the layout.
    pub fn expect_end(&self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes",
                self.remaining()
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The trait.

/// A type that can checkpoint itself into the snapshot byte stream and
/// rebuild from it. Encoding is infallible; decoding validates.
pub trait Snapshot: Sized {
    fn encode(&self, w: &mut SnapshotWriter);
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError>;
}

impl Snapshot for () {
    fn encode(&self, _w: &mut SnapshotWriter) {}
    fn decode(_r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(())
    }
}

impl Snapshot for u8 {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_u8(*self);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.take_u8()
    }
}

impl Snapshot for u32 {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_u32(*self);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.take_u32()
    }
}

impl Snapshot for u64 {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_u64(*self);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.take_u64()
    }
}

impl Snapshot for i64 {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_i64(*self);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.take_i64()
    }
}

impl Snapshot for usize {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_usize(*self);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.take_usize()
    }
}

impl Snapshot for f64 {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_f64(*self);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.take_f64()
    }
}

impl Snapshot for bool {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_bool(*self);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.take_bool()
    }
}

impl Snapshot for String {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_str(self);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.take_str()
    }
}

impl Snapshot for SimTime {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_i64(self.as_micros());
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(SimTime::from_micros(r.take_i64()?))
    }
}

impl Snapshot for SimDuration {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_i64(self.as_micros());
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(SimDuration::from_micros(r.take_i64()?))
    }
}

impl<T: Snapshot> Snapshot for Option<T> {
    fn encode(&self, w: &mut SnapshotWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        match r.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            b => Err(SnapshotError::Corrupt(format!("Option tag {b}"))),
        }
    }
}

impl<T: Snapshot> Snapshot for Vec<T> {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.len() as u64);
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.take_len()?;
        let mut out = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Snapshot> Snapshot for VecDeque<T> {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.len() as u64);
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.take_len()?;
        let mut out = VecDeque::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            out.push_back(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<K: Snapshot + Ord, V: Snapshot> Snapshot for BTreeMap<K, V> {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.len() as u64);
        for (k, v) in self {
            k.encode(w);
            v.encode(w);
        }
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.take_len()?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<A: Snapshot, B: Snapshot> Snapshot for (A, B) {
    fn encode(&self, w: &mut SnapshotWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Snapshot, B: Snapshot, C: Snapshot> Snapshot for (A, B, C) {
    fn encode(&self, w: &mut SnapshotWriter) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

/// The stream factory is one master seed; named streams re-derive from
/// it, so this *is* the complete RNG-subsystem state.
impl Snapshot for RngStreams {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.master());
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(RngStreams::new(r.take_u64()?))
    }
}

/// A live generator mid-keystream: input block, buffered block, cursor.
/// Restoring continues the exact draw sequence, mid-block included.
impl Snapshot for ChaCha8Rng {
    fn encode(&self, w: &mut SnapshotWriter) {
        let (input, buf, idx) = self.state();
        for word in input.iter().chain(buf.iter()) {
            w.put_u32(*word);
        }
        w.put_usize(idx);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let mut input = [0u32; 16];
        let mut buf = [0u32; 16];
        for word in input.iter_mut() {
            *word = r.take_u32()?;
        }
        for word in buf.iter_mut() {
            *word = r.take_u32()?;
        }
        let idx = r.take_usize()?;
        if idx > 16 {
            return Err(SnapshotError::Corrupt(format!("ChaCha cursor {idx}")));
        }
        Ok(ChaCha8Rng::from_state(input, buf, idx))
    }
}

// ---------------------------------------------------------------------------
// The section container.

/// A named-section container: what actually goes on disk.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct SnapshotFile {
    sections: Vec<(String, Vec<u8>)>,
}

impl SnapshotFile {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a section. Names should be unique; [`SnapshotFile::section`]
    /// finds the first match.
    pub fn add(&mut self, name: &str, w: SnapshotWriter) {
        self.sections.push((name.to_string(), w.into_bytes()));
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.sections.iter().map(|(n, _)| n.as_str())
    }

    /// A reader over a section's payload (already CRC-verified at
    /// [`SnapshotFile::from_bytes`] time).
    pub fn section(&self, name: &str) -> Result<SnapshotReader<'_>, SnapshotError> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, payload)| SnapshotReader::new(payload))
            .ok_or_else(|| SnapshotError::MissingSection(name.to_string()))
    }

    /// Serialise: magic, version, section count, then each section as
    /// name · length · CRC-32 · payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        // Allocated once at its exact size: growing a multi-megabyte
        // buffer by doubling leaves freed chunks behind that fragment
        // the heap and raise the peak resident set of later runs.
        let len = MAGIC.len()
            + 8
            + self
                .sections
                .iter()
                .map(|(name, payload)| 8 + name.len() + 12 + payload.len())
                .sum::<usize>();
        let mut w = SnapshotWriter {
            buf: Vec::with_capacity(len),
        };
        w.put_bytes(&MAGIC);
        w.put_u32(VERSION);
        w.put_u32(self.sections.len() as u32);
        for (name, payload) in &self.sections {
            w.put_str(name);
            w.put_u64(payload.len() as u64);
            w.put_u32(crc32(payload));
            w.put_bytes(payload);
        }
        w.into_bytes()
    }

    /// Parse and verify a container. Magic, version, and every section
    /// CRC are checked here; malformed input errors, never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = SnapshotReader::new(bytes);
        let magic = r.take_bytes(MAGIC.len()).map_err(|_| {
            // Too short to even hold the magic: call it truncated only
            // if it *starts* like a snapshot, else it's foreign data.
            if bytes.is_empty() || !MAGIC.starts_with(&bytes[..bytes.len().min(MAGIC.len())]) {
                SnapshotError::BadMagic
            } else {
                SnapshotError::Truncated
            }
        })?;
        if magic != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.take_u32()?;
        if version != VERSION {
            return Err(SnapshotError::BadVersion(version));
        }
        let count = r.take_u32()?;
        if count as u64 > 1 << 16 {
            return Err(SnapshotError::Corrupt(format!("{count} sections")));
        }
        let mut sections = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let name = r.take_str()?;
            let len = r.take_len()?;
            let crc = r.take_u32()?;
            let payload = r.take_bytes(len)?;
            if crc32(payload) != crc {
                return Err(SnapshotError::ChecksumMismatch { section: name });
            }
            sections.push((name, payload.to_vec()));
        }
        r.expect_end()?;
        Ok(SnapshotFile { sections })
    }
}

/// FNV-1a 64-bit over an arbitrary byte string — used to fingerprint
/// configurations so a snapshot refuses to restore under a config that
/// is not the one it was taken under.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn primitives_roundtrip_bitwise() {
        let mut w = SnapshotWriter::new();
        w.put_u8(0xAB);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX);
        w.put_i64(i64::MIN);
        w.put_f64(f64::NAN);
        w.put_f64(-0.0);
        w.put_bool(true);
        w.put_str("héllo");
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(r.take_u8().unwrap(), 0xAB);
        assert_eq!(r.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take_u64().unwrap(), u64::MAX);
        assert_eq!(r.take_i64().unwrap(), i64::MIN);
        assert_eq!(r.take_f64().unwrap().to_bits(), f64::NAN.to_bits());
        assert_eq!(r.take_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.take_bool().unwrap());
        assert_eq!(r.take_str().unwrap(), "héllo");
        r.expect_end().unwrap();
    }

    fn roundtrip<T: Snapshot + PartialEq + std::fmt::Debug>(v: &T) {
        let mut w = SnapshotWriter::new();
        v.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        let back = T::decode(&mut r).expect("decode");
        r.expect_end().expect("fully consumed");
        assert_eq!(&back, v);
    }

    #[test]
    fn composite_impls_roundtrip() {
        roundtrip(&Some(42u64));
        roundtrip(&Option::<u64>::None);
        roundtrip(&vec![1u64, 2, 3]);
        roundtrip(&VecDeque::from([SimTime::from_secs(5), SimTime::ZERO]));
        roundtrip(&BTreeMap::from([(1u32, 2.5f64), (9, f64::INFINITY)]));
        roundtrip(&(SimTime::from_secs(1), SimDuration::HOUR, true));
        roundtrip(&"section name".to_string());
        roundtrip(&RngStreams::new(0xDF3));
    }

    #[test]
    fn chacha_roundtrip_continues_mid_block() {
        let mut rng = RngStreams::new(77).stream("snapshot-test");
        for _ in 0..21 {
            rng.next_u64(); // land mid-block
        }
        let mut w = SnapshotWriter::new();
        rng.encode(&mut w);
        let bytes = w.into_bytes();
        let mut restored = ChaCha8Rng::decode(&mut SnapshotReader::new(&bytes)).unwrap();
        for _ in 0..100 {
            assert_eq!(rng.next_u64(), restored.next_u64());
        }
    }

    fn sample_file() -> SnapshotFile {
        let mut f = SnapshotFile::new();
        let mut a = SnapshotWriter::new();
        a.put_u64(123);
        a.put_str("payload");
        f.add("alpha", a);
        let mut b = SnapshotWriter::new();
        vec![1.5f64, f64::NAN].encode(&mut b);
        f.add("beta", b);
        f
    }

    #[test]
    fn container_roundtrips_and_finds_sections() {
        let bytes = sample_file().to_bytes();
        let f = SnapshotFile::from_bytes(&bytes).unwrap();
        assert_eq!(f.names().collect::<Vec<_>>(), vec!["alpha", "beta"]);
        let mut r = f.section("alpha").unwrap();
        assert_eq!(r.take_u64().unwrap(), 123);
        assert_eq!(r.take_str().unwrap(), "payload");
        r.expect_end().unwrap();
        assert!(matches!(
            f.section("gamma"),
            Err(SnapshotError::MissingSection(_))
        ));
    }

    #[test]
    fn container_is_allocated_at_its_exact_size() {
        let bytes = sample_file().to_bytes();
        assert_eq!(bytes.capacity(), bytes.len());
    }

    #[test]
    fn every_truncation_errors_and_never_panics() {
        let bytes = sample_file().to_bytes();
        for cut in 0..bytes.len() {
            let err = SnapshotFile::from_bytes(&bytes[..cut]);
            assert!(err.is_err(), "prefix of {cut} bytes must not parse");
        }
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let bytes = sample_file().to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            // Must error or, if the flip landed in a section *name*,
            // still parse but with a CRC-consistent rename. It must
            // never panic; most flips are caught outright.
            let _ = SnapshotFile::from_bytes(&bad);
        }
        // Flips inside a payload specifically must be caught by the CRC.
        let mut bad = bytes.clone();
        let last = bad.len() - 1; // last payload byte of section "beta"
        bad[last] ^= 0xFF;
        assert!(matches!(
            SnapshotFile::from_bytes(&bad),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn foreign_data_is_bad_magic_and_versions_are_checked() {
        assert_eq!(
            SnapshotFile::from_bytes(b"not a snapshot at all"),
            Err(SnapshotError::BadMagic)
        );
        assert_eq!(SnapshotFile::from_bytes(b""), Err(SnapshotError::BadMagic));
        let mut bytes = sample_file().to_bytes();
        bytes[8] = 99; // version field
        assert_eq!(
            SnapshotFile::from_bytes(&bytes),
            Err(SnapshotError::BadVersion(99))
        );
    }

    #[test]
    fn corrupt_tags_and_lengths_error() {
        // Option tag 7.
        let mut r = SnapshotReader::new(&[7u8]);
        assert!(matches!(
            Option::<u64>::decode(&mut r),
            Err(SnapshotError::Corrupt(_))
        ));
        // Vec length far past the input size.
        let mut w = SnapshotWriter::new();
        w.put_u64(u64::MAX / 2);
        let bytes = w.into_bytes();
        assert!(Vec::<u64>::decode(&mut SnapshotReader::new(&bytes)).is_err());
        // Bad bool.
        assert!(matches!(
            bool::decode(&mut SnapshotReader::new(&[3u8])),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bytewise loop `crc32` replaced, kept as its oracle.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let table = &CRC32_TABLES[0];
        let mut c = !0u32;
        for &b in bytes {
            c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn bytewise_oracle_matches_known_vector() {
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    proptest::proptest! {
        #[test]
        fn slicing_by_8_matches_bytewise_at_any_length_and_offset(
            len in 0usize..4097,
            start in 0usize..8,
            seed in 0u64..u64::MAX,
        ) {
            let mut buf = vec![0u8; start + len];
            <ChaCha8Rng as rand::SeedableRng>::seed_from_u64(seed).fill_bytes(&mut buf);
            let bytes = &buf[start..];
            proptest::prop_assert_eq!(crc32(bytes), crc32_bytewise(bytes));
        }
    }

    #[test]
    fn slicing_by_8_matches_bytewise_at_every_short_length() {
        let buf: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
        for start in 0..8 {
            for end in start..buf.len() {
                assert_eq!(crc32(&buf[start..end]), crc32_bytewise(&buf[start..end]));
            }
        }
    }

    #[test]
    fn fingerprint_is_stable_and_discriminates() {
        assert_eq!(fingerprint(b"abc"), fingerprint(b"abc"));
        assert_ne!(fingerprint(b"abc"), fingerprint(b"abd"));
    }
}
