//! The append-only fact log: CRC-tagged binary records.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! log        := record*
//! record     := payload_len u32 | payload_crc u32 | payload
//! payload    := tag u8 (= 1)
//!               new_entity_count  u32 | new_entity_count  × (len u32 | utf-8)
//!               new_relation_count u32 | new_relation_count × (len u32 | utf-8)
//!               fact_count u32 | fact_count × (s u32 | r u32 | o u32 | t u32)
//! ```
//!
//! Every record is self-verifying: `payload_crc` is the CRC-32 of the
//! payload bytes. A record carries the vocabulary names it introduced *in
//! the same write* as the facts that use them, so a crash can never leave
//! an acknowledged fact pointing at an id the store no longer knows — the
//! fact and its names are durable together or not at all.
//!
//! [`scan`] is a total function from arbitrary bytes to a valid prefix: a
//! torn final write, a bit flip, or outright garbage ends the prefix at the
//! last whole valid record and is reported, never panicked on. The byte
//! length of that prefix lets the opener truncate the file in place, so the
//! next boot sees a wholly valid log.

use retia_graph::Quad;
use retia_tensor::serialize::{crc32, Reader};

/// Payload format tag of the records this build writes.
const RECORD_TAG: u8 = 1;

/// One appended batch: the vocabulary names it introduced plus its facts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LogRecord {
    /// Entity names first seen in this batch, in intern (id) order.
    pub new_entities: Vec<String>,
    /// Relation names first seen in this batch, in intern (id) order.
    pub new_relations: Vec<String>,
    /// The batch's facts, timestamp-grouped and non-decreasing.
    pub facts: Vec<Quad>,
}

/// Result of scanning a log byte string for its valid prefix.
#[derive(Debug, Default)]
pub struct LogScan {
    /// Every record of the valid prefix, in append order.
    pub records: Vec<LogRecord>,
    /// Byte length of the valid prefix. Equal to the input length when the
    /// whole log is valid.
    pub valid_len: usize,
    /// True when bytes past `valid_len` exist but do not form a valid
    /// record (torn write, bit flip, garbage).
    pub corrupt_tail: bool,
}

/// Encodes one record in the on-disk framing.
pub fn encode_record(rec: &LogRecord) -> Vec<u8> {
    let mut payload = Vec::with_capacity(16 + 16 * rec.facts.len());
    payload.push(RECORD_TAG);
    for names in [&rec.new_entities, &rec.new_relations] {
        payload.extend_from_slice(&(names.len() as u32).to_le_bytes());
        for name in names {
            payload.extend_from_slice(&(name.len() as u32).to_le_bytes());
            payload.extend_from_slice(name.as_bytes());
        }
    }
    payload.extend_from_slice(&(rec.facts.len() as u32).to_le_bytes());
    for q in &rec.facts {
        for v in [q.s, q.r, q.o, q.t] {
            payload.extend_from_slice(&v.to_le_bytes());
        }
    }
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Decodes one payload (the bytes *after* the length/CRC header). `None`
/// means the payload is malformed; the caller treats the record — and
/// everything after it — as the corrupt tail.
fn decode_payload(payload: &[u8]) -> Option<LogRecord> {
    let mut r = Reader::new(payload);
    if r.get_u8("record tag").ok()? != RECORD_TAG {
        return None;
    }
    let mut rec = LogRecord::default();
    for names in [&mut rec.new_entities, &mut rec.new_relations] {
        let count = r.get_u32_le("name count").ok()? as usize;
        // A name needs at least 4 length bytes; cap the preallocation so a
        // corrupt count cannot balloon memory before the reads fail.
        if count > r.remaining() / 4 {
            return None;
        }
        names.reserve(count);
        for _ in 0..count {
            names.push(r.get_string("vocab name").ok()?);
        }
    }
    let count = r.get_u32_le("fact count").ok()? as usize;
    if count * 16 != r.remaining() {
        return None;
    }
    rec.facts.reserve(count);
    for _ in 0..count {
        let s = r.get_u32_le("fact s").ok()?;
        let rel = r.get_u32_le("fact r").ok()?;
        let o = r.get_u32_le("fact o").ok()?;
        let t = r.get_u32_le("fact t").ok()?;
        rec.facts.push(Quad::new(s, rel, o, t));
    }
    r.finish("log record").ok()?;
    Some(rec)
}

/// Scans `bytes` for the longest valid record prefix. Total: any input —
/// torn, bit-flipped, or random — yields a (possibly empty) prefix and a
/// corrupt-tail flag, never an error or a panic.
pub fn scan(bytes: &[u8]) -> LogScan {
    let mut out = LogScan::default();
    let mut offset = 0usize;
    while offset < bytes.len() {
        let rest = &bytes[offset..];
        if rest.len() < 8 {
            out.corrupt_tail = true;
            break;
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        let stored_crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        let Some(payload) = rest.get(8..8 + len) else {
            out.corrupt_tail = true;
            break;
        };
        if crc32(payload) != stored_crc {
            out.corrupt_tail = true;
            break;
        }
        let Some(rec) = decode_payload(payload) else {
            out.corrupt_tail = true;
            break;
        };
        out.records.push(rec);
        offset += 8 + len;
    }
    out.valid_len = offset;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LogRecord {
        LogRecord {
            new_entities: vec!["Germany".into(), "France".into()],
            new_relations: vec!["visits".into()],
            facts: vec![Quad::new(0, 0, 1, 3), Quad::new(1, 0, 0, 3)],
        }
    }

    #[test]
    fn record_roundtrips() {
        let rec = sample();
        let bytes = encode_record(&rec);
        let scan = scan(&bytes);
        assert!(!scan.corrupt_tail);
        assert_eq!(scan.valid_len, bytes.len());
        assert_eq!(scan.records, vec![rec]);
    }

    #[test]
    fn multiple_records_concatenate() {
        let a = sample();
        let b = LogRecord { facts: vec![Quad::new(0, 0, 0, 9)], ..Default::default() };
        let mut bytes = encode_record(&a);
        bytes.extend(encode_record(&b));
        let scan = scan(&bytes);
        assert_eq!(scan.records, vec![a, b]);
        assert!(!scan.corrupt_tail);
    }

    #[test]
    fn every_truncation_yields_valid_prefix() {
        let mut bytes = encode_record(&sample());
        let first = bytes.len();
        bytes.extend(encode_record(&LogRecord {
            facts: vec![Quad::new(2, 0, 0, 7)],
            ..Default::default()
        }));
        for cut in 0..bytes.len() {
            let scan = scan(&bytes[..cut]);
            // The prefix is always record-aligned and never past the cut.
            assert!(scan.valid_len <= cut, "cut {cut}");
            assert!(scan.valid_len == 0 || scan.valid_len == first, "cut {cut}");
            assert_eq!(scan.corrupt_tail, cut != 0 && cut != first, "cut {cut}");
        }
    }

    #[test]
    fn every_bit_flip_is_detected_or_benign() {
        let bytes = encode_record(&sample());
        let clean = scan(&bytes);
        for bit in 0..bytes.len() * 8 {
            let mut mutated = bytes.clone();
            mutated[bit / 8] ^= 1 << (bit % 8);
            let scan = scan(&mutated);
            // A flip either invalidates the record (CRC catches it) or the
            // result would differ from the clean parse — which CRC-32 rules
            // out for a single-bit flip. So: always detected.
            assert!(scan.corrupt_tail, "bit {bit} silently accepted");
            assert!(scan.records.is_empty(), "bit {bit}: {:?}", clean.records);
        }
    }

    #[test]
    fn empty_log_is_valid() {
        let scan = scan(&[]);
        assert!(!scan.corrupt_tail);
        assert_eq!(scan.valid_len, 0);
        assert!(scan.records.is_empty());
    }

    #[test]
    fn insane_length_is_a_corrupt_tail() {
        let mut bytes = vec![0xffu8; 8];
        bytes.extend_from_slice(&[0u8; 64]);
        let scan = scan(&bytes);
        assert!(scan.corrupt_tail);
        assert_eq!(scan.valid_len, 0);
    }
}
