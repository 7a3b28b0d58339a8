//! The frame codec of the sharded store's segment logs.
//!
//! Every revision appended to a [`crate::shard::ShardedStore`] is framed
//! here and appended to its shard's segment file, so a crash at any byte
//! loses at most the unsynced tail of one shard — never the whole corpus.
//! On-disk format (all integers little-endian):
//!
//! ```text
//! frame    := len:u32 crc:u32 payload[len]     crc = CRC-32 (IEEE) of payload
//! payload  := 0x01 entity:u32 time:u64 text_len:u32 text[text_len]        (full)
//!           | 0x02 entity:u32 time:u64 prefix:u32 suffix:u32
//!                  mid_len:u32 mid[mid_len]                               (delta)
//! ```
//!
//! A *delta* record splices the new revision text against the previous
//! record appended for the same entity **within the same segment**
//! (`new = prev[..prefix] ++ mid ++ prev[prev.len()-suffix..]`); the first
//! record per entity per segment is always full, so every segment decodes
//! self-contained. Recovery scans frames until the first invalid one: a
//! frame that structurally runs past end-of-file is a *torn tail* (the
//! expected crash shape — tolerated, truncated, reported), while a CRC or
//! structural failure is a *corrupt frame* (reported loudly; never
//! applied). Either way nothing after the last valid frame is trusted, and
//! the caller learns exactly how many bytes were dropped.

use serde::{Deserialize, Serialize};
use std::io;
use wiclean_types::{EntityId, Timestamp};

/// Slicing-by-16 tables for CRC-32 (IEEE, reflected polynomial
/// `0xEDB88320`). `CRC_TABLES[0]` is the classic byte table; entry `k`
/// advances a byte's contribution past `k` further zero bytes, so sixteen
/// independent lookups fold a 16-byte block in one step.
const CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
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
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, the zlib/`cksum -o3` polynomial): slicing-by-16
/// over 16-byte blocks, one table lookup per byte for the tail. Same
/// values as the byte-at-a-time table walk, several times faster.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut blocks = data.chunks_exact(16);
    for b in &mut blocks {
        let lo = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(lo & 0xFF) as usize]
            ^ t[14][((lo >> 8) & 0xFF) as usize]
            ^ t[13][((lo >> 16) & 0xFF) as usize]
            ^ t[12][(lo >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// When a segment appender fsyncs.
///
/// `Deserialize` is hand-written (below) so invalid values — an interval of
/// zero — are rejected with a clear error at config-load time instead of
/// wedging the writer's modular arithmetic at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum SyncPolicy {
    /// Sync after every appended record (maximum durability, slowest).
    Always,
    /// Sync after every `n`-th record (n ≥ 1).
    EveryN(u32),
    /// Never sync explicitly; the OS flushes when it pleases. A power loss
    /// can lose every record not yet flushed.
    Never,
}

impl SyncPolicy {
    /// Validates the policy's values; `EveryN(0)` is meaningless.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            SyncPolicy::EveryN(0) => {
                Err("sync policy EveryN(0): interval must be at least 1".to_owned())
            }
            _ => Ok(()),
        }
    }
}

impl<'de> serde::Deserialize<'de> for SyncPolicy {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        #[derive(Deserialize)]
        enum Raw {
            Always,
            EveryN(u32),
            Never,
        }
        let policy = match Raw::deserialize(deserializer)? {
            Raw::Always => SyncPolicy::Always,
            Raw::EveryN(n) => SyncPolicy::EveryN(n),
            Raw::Never => SyncPolicy::Never,
        };
        policy.validate().map_err(serde::de::Error::custom)?;
        Ok(policy)
    }
}

/// Why a segment operation failed.
#[derive(Debug)]
pub enum WalError {
    /// Filesystem error.
    Io(io::Error),
    /// The file's contents failed a checksum or structural check. Never
    /// produced for a tolerated torn tail — only for damage that must not
    /// be silently accepted.
    Corrupt(String),
    /// The caller passed a store policy its own validation refuses (a
    /// configuration mistake, not damage on disk).
    InvalidPolicy(String),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::Corrupt(what) => write!(f, "wal corruption: {what}"),
            WalError::InvalidPolicy(what) => write!(f, "invalid store policy: {what}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

pub(crate) const TAG_FULL: u8 = 0x01;
pub(crate) const TAG_DELTA: u8 = 0x02;
/// Payloads above this are structurally implausible (a single revision text
/// is bounded far below); treating a huge decoded length as corruption
/// stops a bit-flipped length field from swallowing gigabytes.
pub(crate) const MAX_PAYLOAD: u32 = 1 << 28;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Cursor<'a> {
    data: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        let slice = self.data.get(self.at..end)?;
        self.at = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes(s.try_into().unwrap()))
    }

    fn done(&self) -> bool {
        self.at == self.data.len()
    }
}

/// Length of the longest common prefix of `a` and `b`, compared eight
/// bytes at a time.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let word = |s: &[u8], i: usize| u64::from_ne_bytes(s[i..i + 8].try_into().unwrap());
    let mut i = 0;
    while i + 8 <= n && word(a, i) == word(b, i) {
        i += 8;
    }
    while i < n && a[i] == b[i] {
        i += 1;
    }
    i
}

/// Length of the longest common suffix of `a` and `b`, compared eight
/// bytes at a time.
fn common_suffix(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let (a, b) = (&a[a.len() - n..], &b[b.len() - n..]);
    let word = |s: &[u8], end: usize| u64::from_ne_bytes(s[end - 8..end].try_into().unwrap());
    let mut k = 0;
    while k + 8 <= n && word(a, n - k) == word(b, n - k) {
        k += 8;
    }
    while k < n && a[n - k - 1] == b[n - k - 1] {
        k += 1;
    }
    k
}

/// Encodes one revision's payload, delta-compressing against `base` (the
/// previous text appended for the same entity in this segment) when that is
/// strictly smaller.
pub(crate) fn encode_payload_parts(
    entity: EntityId,
    time: Timestamp,
    text: &str,
    base: Option<&str>,
) -> Vec<u8> {
    let text = text.as_bytes();
    let mut out = Vec::with_capacity(text.len() + 24);
    if let Some(base) = base {
        let base = base.as_bytes();
        let prefix = common_prefix(base, text);
        let suffix = common_suffix(&base[prefix..], &text[prefix..]);
        let mid = &text[prefix..text.len() - suffix];
        // 12 bytes of splice header vs 4 of length header: only delta when
        // it actually saves space.
        if mid.len() + 8 < text.len() {
            out.push(TAG_DELTA);
            put_u32(&mut out, entity.as_u32());
            put_u64(&mut out, time);
            put_u32(&mut out, prefix as u32);
            put_u32(&mut out, suffix as u32);
            put_u32(&mut out, mid.len() as u32);
            out.extend_from_slice(mid);
            return out;
        }
    }
    out.push(TAG_FULL);
    put_u32(&mut out, entity.as_u32());
    put_u64(&mut out, time);
    put_u32(&mut out, text.len() as u32);
    out.extend_from_slice(text);
    out
}

/// Wraps an encoded payload in a `len:u32 crc:u32` frame header — the unit
/// appended to shard segment files.
pub(crate) fn frame_payload(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(payload.len() + 8);
    put_u32(&mut frame, payload.len() as u32);
    put_u32(&mut frame, crc32(payload));
    frame.extend_from_slice(payload);
    frame
}

/// Decodes one payload in place and returns its timestamp and text.
/// `text` holds the text decoded from the entity's previous frame in
/// append order (`has_base`), or nothing for the entity's first frame: a
/// full record replaces it, a delta record is spliced into it, so a whole
/// chain replays through one buffer. Every decoded text is checked to be
/// UTF-8. On `Err` the buffer's contents are unspecified.
pub(crate) fn decode_into<'t>(
    payload: &[u8],
    text: &'t mut Vec<u8>,
    has_base: bool,
) -> Result<(Timestamp, &'t str), String> {
    let mut cur = Cursor {
        data: payload,
        at: 0,
    };
    let tag = cur.u8().ok_or("empty payload")?;
    cur.u32().ok_or("payload too short for entity id")?;
    let time = cur.u64().ok_or("payload too short for timestamp")?;
    match tag {
        TAG_FULL => {
            let len = cur.u32().ok_or("payload too short for text length")? as usize;
            let bytes = cur.take(len).ok_or("text runs past payload end")?;
            text.clear();
            text.extend_from_slice(bytes);
        }
        TAG_DELTA => {
            let prefix = cur.u32().ok_or("payload too short for splice prefix")? as usize;
            let suffix = cur.u32().ok_or("payload too short for splice suffix")? as usize;
            let len = cur.u32().ok_or("payload too short for splice length")? as usize;
            let mid = cur.take(len).ok_or("splice runs past payload end")?;
            if !has_base {
                return Err("delta record with no prior full record for its entity".to_owned());
            }
            if prefix
                .checked_add(suffix)
                .is_none_or(|keep| keep > text.len())
            {
                return Err("splice prefix+suffix exceed base text".to_owned());
            }
            let end = text.len() - suffix;
            text.splice(prefix..end, mid.iter().copied());
        }
        other => return Err(format!("unknown record tag 0x{other:02X}")),
    }
    if !cur.done() {
        return Err("trailing bytes after record payload".to_owned());
    }
    let text = std::str::from_utf8(text).map_err(|_| "decoded text is not valid UTF-8")?;
    Ok((time, text))
}

/// How a segment scan ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TailOutcome {
    /// Every byte belonged to a valid frame.
    Clean,
    /// The final frame ran past end-of-file — the ordinary shape of a crash
    /// mid-append. Tolerated: the tail is truncated and reported.
    TornTail,
    /// A frame failed its CRC or decoded invalidly — bit rot or an
    /// interior overwrite, not a simple crash. Nothing at or after it is
    /// applied, and the caller must surface the loss.
    CorruptFrame,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time table walk the slicing kernel replaced.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        !data.iter().fold(!0u32, |crc, &b| {
            CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8)
        })
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        let long = b"The quick brown fox jumps over the lazy dog".repeat(7);
        assert_eq!(crc32(&long), crc32_bytewise(&long));
    }

    proptest! {
        /// The slicing kernel equals the byte-at-a-time walk on arbitrary
        /// bytes, at every length across the 16-byte block boundary and
        /// every start alignment.
        #[test]
        fn crc32_slicing_equals_bytewise(
            buf in proptest::collection::vec(any::<u8>(), 316),
            start in 0usize..16,
            len in 0usize..=300,
        ) {
            let data = &buf[start..start + len];
            prop_assert_eq!(crc32(data), crc32_bytewise(data));
        }
    }

    #[test]
    fn common_prefix_and_suffix_match_bytewise_scans() {
        let texts: Vec<Vec<u8>> = (0..40)
            .map(|n| (0..n).map(|i| b"abcdefgh"[i % 8]).collect())
            .collect();
        for a in &texts {
            for b in &texts {
                let mut b = b.clone();
                let mid = b.len() / 3;
                if let Some(c) = b.get_mut(mid) {
                    *c = b'#';
                }
                let prefix = a.iter().zip(&b).take_while(|(x, y)| x == y).count();
                let suffix = a.iter().rev().zip(b.iter().rev());
                let suffix = suffix.take_while(|(x, y)| x == y).count();
                assert_eq!(common_prefix(a, &b), prefix);
                assert_eq!(common_suffix(a, &b), suffix);
            }
        }
    }

    #[test]
    fn payloads_round_trip_full_and_delta() {
        let e = EntityId::from_u32(7);
        let base = "shared head\n[[A]]\nshared tail\n";
        let next = "shared head\n[[B]]\nshared tail\n";
        let full = encode_payload_parts(e, 10, base, None);
        let delta = encode_payload_parts(e, 20, next, Some(base));
        assert_eq!(full[0], TAG_FULL);
        assert_eq!(delta[0], TAG_DELTA);
        assert!(delta.len() < full.len());
        let mut text = Vec::new();
        assert_eq!(decode_into(&full, &mut text, false), Ok((10, base)));
        assert_eq!(decode_into(&delta, &mut text, true), Ok((20, next)));
        // A delta without its base, or with trailing bytes, never decodes.
        assert!(decode_into(&delta, &mut Vec::new(), false).is_err());
        let mut long = full.clone();
        long.push(0);
        assert!(decode_into(&long, &mut text, true).is_err());
    }

    #[test]
    fn decode_rejects_non_utf8_and_out_of_range_splices() {
        let e = EntityId::from_u32(1);
        let mut bad = encode_payload_parts(e, 1, "ab", None);
        *bad.last_mut().unwrap() = 0xFF;
        assert!(decode_into(&bad, &mut Vec::new(), false).is_err());
        // A splice that cuts a multi-byte character in half.
        let base = "x\u{e9}y-long-enough-to-delta";
        let next = "x\u{e8}y-long-enough-to-delta";
        let delta = encode_payload_parts(e, 2, next, Some(base));
        assert_eq!(delta[0], TAG_DELTA);
        let mut text = "x\u{e9}".as_bytes()[..2].to_vec();
        assert!(decode_into(&delta, &mut text, true).is_err());
        // The same splice against a base with an ASCII byte where the
        // lead byte was leaves a lone continuation byte.
        let mut text = b"xAy-long-enough-to-delta".to_vec();
        assert!(decode_into(&delta, &mut text, true).is_err());
        let mut text = base.as_bytes().to_vec();
        assert_eq!(decode_into(&delta, &mut text, true), Ok((2, next)));
    }

    #[test]
    fn sync_policy_rejects_zero_interval_at_deserialize() {
        let ok: SyncPolicy = serde_json::from_str("{\"EveryN\":4}").unwrap();
        assert_eq!(ok, SyncPolicy::EveryN(4));
        let always: SyncPolicy = serde_json::from_str("\"Always\"").unwrap();
        assert_eq!(always, SyncPolicy::Always);
        let err = serde_json::from_str::<SyncPolicy>("{\"EveryN\":0}").unwrap_err();
        assert!(
            err.to_string().contains("at least 1"),
            "unclear error: {err}"
        );
    }
}
