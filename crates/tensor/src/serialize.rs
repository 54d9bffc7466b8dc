//! Checkpointing: a crash-consistent, self-describing binary container
//! (format v2).
//!
//! A checkpoint file is a **sectioned container**:
//!
//! ```text
//! magic    8 B   "RETIAPS\0"
//! version  u32   2
//! file CRC u32   CRC-32 (IEEE) of every byte after this field
//! count    u32   number of sections
//! section: name_len u32 | name | payload CRC u32 | payload_len u64 | payload
//! ```
//!
//! Two integrity layers: the **file CRC** makes any single corrupted bit
//! anywhere in the body a deterministic load failure (no reliance on length
//! fields happening to misparse), and the **per-section CRCs** localize the
//! damage by name when a file is partially written or bit-rotted. Loading is
//! fully bounds-checked — any truncation offset yields a typed
//! [`CheckpointError`], never a panic or silently zeroed tensors.
//!
//! Saves are **atomic**: bytes go to a temp file in the same directory,
//! the file is fsynced, then renamed over the target (and the directory
//! fsynced). A crash mid-write leaves the previous checkpoint untouched;
//! [`atomic_write_with`] exposes the write path so fault-injection harnesses
//! can simulate exactly that crash.
//!
//! [`ParamStore`] encodes parameter *values* as the `"params"` section of a
//! RETIA model file (`retia::Retia::load`; a `"config"` section comes first).
//! A train-state checkpoint (`retia::Trainer`) adds optimizer-moment
//! sections in the same named-tensor codec, and the trainer's own state.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use crate::param::ParamStore;
use crate::tensor::Tensor;

const MAGIC: &[u8; 8] = b"RETIAPS\0";

/// Container format version written by this build.
pub const FORMAT_VERSION: u32 = 2;

// ---------------------------------------------------------------------------
// CRC-32
// ---------------------------------------------------------------------------

fn crc_table() -> &'static [u32; 256] {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        table
    })
}

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let table = crc_table();
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Serialization failures. Every variant names what was being read so a
/// damaged file produces an actionable diagnostic instead of a panic.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying IO failure.
    Io(std::io::Error),
    /// The bytes are not a valid checkpoint (with a description).
    Corrupt(String),
    /// The container is a checkpoint, but of a version this build cannot read.
    UnsupportedVersion {
        /// Version stamped in the file.
        found: u32,
        /// Version this build reads and writes.
        supported: u32,
    },
    /// A CRC check failed — the file was truncated, bit-flipped or
    /// half-written.
    CrcMismatch {
        /// `"file"` for the whole-body CRC, otherwise the section name.
        section: String,
        /// Checksum stored in the file.
        stored: u32,
        /// Checksum computed over the bytes actually present.
        computed: u32,
    },
    /// A section the loader requires is absent from the container.
    MissingSection {
        /// Name of the absent section.
        section: String,
    },
    /// A stored tensor's shape disagrees with the model being loaded into.
    ShapeMismatch {
        /// Parameter name as stored in the checkpoint.
        param: String,
        /// Shape the live model expects, `(rows, cols)`.
        expected: (usize, usize),
        /// Shape found in the checkpoint, `(rows, cols)`.
        found: (usize, usize),
    },
    /// The checkpoint names a parameter the live model does not have.
    UnknownParam {
        /// The offending parameter name.
        param: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::Corrupt(s) => write!(f, "corrupt checkpoint: {s}"),
            CheckpointError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported checkpoint version {found} (this build reads version {supported})"
            ),
            CheckpointError::CrcMismatch { section, stored, computed } => write!(
                f,
                "corrupt checkpoint: CRC mismatch in `{section}` \
                 (stored {stored:#010x}, computed {computed:#010x}) — \
                 the file was truncated or bit-flipped"
            ),
            CheckpointError::MissingSection { section } => {
                write!(f, "corrupt checkpoint: required section `{section}` is missing")
            }
            CheckpointError::ShapeMismatch { param, expected, found } => write!(
                f,
                "shape mismatch for parameter `{param}`: model expects \
                 {}x{}, checkpoint holds {}x{}",
                expected.0, expected.1, found.0, found.1
            ),
            CheckpointError::UnknownParam { param } => {
                write!(f, "checkpoint names unknown parameter `{param}` (architecture mismatch?)")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Bounds-checked reader
// ---------------------------------------------------------------------------

/// Bounds-checked little-endian reader over checkpoint bytes. Every accessor
/// names what it was reading, so a truncated file fails with a
/// [`CheckpointError::Corrupt`] describing the missing field instead of a
/// panic.
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Takes `n` raw bytes, or fails naming `what` was truncated.
    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], CheckpointError> {
        if self.buf.len() < n {
            return Err(CheckpointError::Corrupt(format!(
                "truncated {what}: need {n} byte(s), {} left",
                self.buf.len()
            )));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32_le(&mut self, what: &str) -> Result<u32, CheckpointError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64_le(&mut self, what: &str) -> Result<u64, CheckpointError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads a little-endian `f32` (bit pattern preserved).
    pub fn get_f32_le(&mut self, what: &str) -> Result<f32, CheckpointError> {
        let b = self.take(4, what)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `f64` (bit pattern preserved).
    pub fn get_f64_le(&mut self, what: &str) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.get_u64_le(what)?))
    }

    /// Reads one byte.
    pub fn get_u8(&mut self, what: &str) -> Result<u8, CheckpointError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn get_string(&mut self, what: &str) -> Result<String, CheckpointError> {
        let len = self.get_u32_le(&format!("{what} length"))? as usize;
        String::from_utf8(self.take(len, what)?.to_vec())
            .map_err(|_| CheckpointError::Corrupt(format!("non-utf8 {what}")))
    }

    /// Fails with a "trailing bytes" diagnostic unless everything was
    /// consumed — a container with extra bytes is as corrupt as a short one.
    pub fn finish(&self, what: &str) -> Result<(), CheckpointError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(CheckpointError::Corrupt(format!(
                "{} trailing byte(s) after {what}",
                self.buf.len()
            )))
        }
    }
}

fn push_string(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------------------
// Sectioned container
// ---------------------------------------------------------------------------

/// Serializes named sections into a v2 container with a whole-body CRC plus
/// one CRC per section payload.
pub fn write_container(sections: &[(&str, Vec<u8>)]) -> Vec<u8> {
    let mut body = Vec::new();
    body.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    for (name, payload) in sections {
        push_string(&mut body, name);
        body.extend_from_slice(&crc32(payload).to_le_bytes());
        body.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        body.extend_from_slice(payload);
    }
    let mut out = Vec::with_capacity(MAGIC.len() + 8 + body.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Parses a v2 container, verifying the file CRC and every section CRC.
/// Returns `(name, payload)` pairs in file order; each payload borrows
/// `bytes`, so a reader holds the file once.
pub fn read_container(bytes: &[u8]) -> Result<Vec<(String, &[u8])>, CheckpointError> {
    let mut r = Reader::new(bytes);
    let magic = r.take(MAGIC.len(), "magic")?;
    if magic != MAGIC {
        return Err(CheckpointError::Corrupt("bad magic (not a RETIA checkpoint)".into()));
    }
    let version = r.get_u32_le("version")?;
    if version != FORMAT_VERSION {
        return Err(CheckpointError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let stored = r.get_u32_le("file CRC")?;
    let body = r.take(r.remaining(), "file body")?;
    let computed = crc32(body);
    if stored != computed {
        return Err(CheckpointError::CrcMismatch { section: "file".into(), stored, computed });
    }
    let mut r = Reader::new(body);
    let count = r.get_u32_le("section count")? as usize;
    let mut sections = Vec::with_capacity(count.min(64));
    for _ in 0..count {
        let name = r.get_string("section name")?;
        let stored = r.get_u32_le(&format!("CRC of section `{name}`"))?;
        let len = r.get_u64_le(&format!("length of section `{name}`"))? as usize;
        let payload = r.take(len, &format!("payload of section `{name}`"))?;
        let computed = crc32(payload);
        if stored != computed {
            return Err(CheckpointError::CrcMismatch { section: name, stored, computed });
        }
        sections.push((name, payload));
    }
    r.finish("last section")?;
    Ok(sections)
}

/// Looks up a required section by name.
pub fn require_section<'a>(
    sections: &[(String, &'a [u8])],
    name: &str,
) -> Result<&'a [u8], CheckpointError> {
    sections
        .iter()
        .find(|(n, _)| n == name)
        .map(|&(_, p)| p)
        .ok_or_else(|| CheckpointError::MissingSection { section: name.to_string() })
}

// ---------------------------------------------------------------------------
// Named-tensor codec
// ---------------------------------------------------------------------------

/// Encodes `(name, tensor)` pairs as a section payload.
pub fn encode_tensors<'a>(items: impl Iterator<Item = (&'a str, &'a Tensor)>) -> Vec<u8> {
    let items: Vec<(&str, &Tensor)> = items.collect();
    let mut buf = Vec::new();
    buf.extend_from_slice(&(items.len() as u32).to_le_bytes());
    for (name, value) in items {
        push_string(&mut buf, name);
        buf.extend_from_slice(&(value.rows() as u32).to_le_bytes());
        buf.extend_from_slice(&(value.cols() as u32).to_le_bytes());
        for &x in value.data() {
            buf.extend_from_slice(&x.to_le_bytes());
        }
    }
    buf
}

/// Decodes a payload produced by [`encode_tensors`].
pub fn decode_tensors(payload: &[u8]) -> Result<Vec<(String, Tensor)>, CheckpointError> {
    let mut r = Reader::new(payload);
    let count = r.get_u32_le("tensor count")? as usize;
    let mut out = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let name = r.get_string("tensor name")?;
        let rows = r.get_u32_le("rows")? as usize;
        let cols = r.get_u32_le("cols")? as usize;
        let data = r.take(rows * cols * 4, &format!("data for `{name}`"))?;
        let mut t = Tensor::zeros(rows, cols);
        for (x, b) in t.data_mut().iter_mut().zip(data.chunks_exact(4)) {
            *x = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        }
        out.push((name, t));
    }
    r.finish("tensor list")?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// Atomic writes
// ---------------------------------------------------------------------------

fn temp_sibling(path: &Path) -> PathBuf {
    let name = path
        .file_name()
        .map(|f| f.to_string_lossy().into_owned())
        .unwrap_or_else(|| "checkpoint".to_string());
    path.with_file_name(format!("{name}.tmp.{}", std::process::id()))
}

/// Crash-consistent file replacement: write `bytes` to a temp sibling,
/// fsync it, rename over `path`, fsync the directory. Either the old file
/// or the complete new file exists at `path` — never a torn mix.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    atomic_write_with(path, bytes, |w, b| w.write_all(b))
}

/// [`atomic_write`] with an injectable write path. `write_fn` receives the
/// open temp file and the bytes; if it errors (as a chaos harness's failing
/// writer does to simulate a crash mid-write), the temp file is removed and
/// the target is left exactly as it was.
pub fn atomic_write_with<F>(path: &Path, bytes: &[u8], write_fn: F) -> Result<(), CheckpointError>
where
    F: FnOnce(&mut dyn Write, &[u8]) -> std::io::Result<()>,
{
    let tmp = temp_sibling(path);
    let mut file = std::fs::File::create(&tmp)?;
    if let Err(e) = write_fn(&mut file, bytes).and_then(|()| file.sync_all()) {
        drop(file);
        let _ = std::fs::remove_file(&tmp);
        return Err(CheckpointError::Io(e));
    }
    drop(file);
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(CheckpointError::Io(e));
    }
    // Persist the rename itself. Directory fsync is a unix-ism; best effort.
    if let Some(dir) = path.parent() {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// ParamStore persistence
// ---------------------------------------------------------------------------

impl ParamStore {
    /// Encodes all parameter *values* as a named-tensor payload (the
    /// `"params"` section body; no container framing).
    pub fn values_payload(&self) -> Vec<u8> {
        encode_tensors(self.iter())
    }

    /// Restores parameter values from a payload produced by
    /// [`ParamStore::values_payload`]. The store must already contain
    /// parameters with matching names and shapes (build the model first,
    /// then load); mismatches name the parameter and both shapes.
    pub fn load_values_payload(&mut self, payload: &[u8]) -> Result<(), CheckpointError> {
        let tensors = decode_tensors(payload)?;
        if tensors.len() != self.num_tensors() {
            return Err(CheckpointError::Corrupt(format!(
                "parameter count mismatch: checkpoint {}, model {}",
                tensors.len(),
                self.num_tensors()
            )));
        }
        // Validate everything before mutating anything, so a bad checkpoint
        // cannot leave the store half-loaded.
        for (name, t) in &tensors {
            self.check_shape(name, t.shape())?;
        }
        for (name, t) in tensors {
            self.set_value(&name, t);
        }
        Ok(())
    }

    /// Encodes the Adam moment estimates as two named-tensor payloads
    /// `(m, v)` — the `"opt.m"` / `"opt.v"` sections of a train-state
    /// checkpoint.
    pub fn moments_payloads(&self) -> (Vec<u8>, Vec<u8>) {
        let moments: Vec<_> = self.iter_moments().collect();
        let m = encode_tensors(moments.iter().map(|(n, m, _)| (*n, &**m)));
        let v = encode_tensors(moments.iter().map(|(n, _, v)| (*n, &**v)));
        (m, v)
    }

    /// Restores Adam moment estimates from payloads produced by
    /// [`ParamStore::moments_payloads`].
    pub fn load_moments_payloads(&mut self, m: &[u8], v: &[u8]) -> Result<(), CheckpointError> {
        for (payload, which) in [(m, true), (v, false)] {
            let tensors = decode_tensors(payload)?;
            if tensors.len() != self.num_tensors() {
                return Err(CheckpointError::Corrupt(format!(
                    "optimizer moment count mismatch: checkpoint {}, model {}",
                    tensors.len(),
                    self.num_tensors()
                )));
            }
            for (name, t) in &tensors {
                self.check_shape(name, t.shape())?;
            }
            for (name, t) in tensors {
                self.set_moment(&name, which, t);
            }
        }
        Ok(())
    }

    /// Typed shape/name validation against the live store.
    fn check_shape(&self, name: &str, found: (usize, usize)) -> Result<(), CheckpointError> {
        if !self.contains(name) {
            return Err(CheckpointError::UnknownParam { param: name.to_string() });
        }
        let expected = self.value(name).shape();
        if expected != found {
            return Err(CheckpointError::ShapeMismatch {
                param: name.to_string(),
                expected,
                found,
            });
        }
        Ok(())
    }

    /// Serializes all parameter values as a single-section v2 container
    /// (not gradients / optimizer moments).
    pub fn to_bytes(&self) -> Vec<u8> {
        write_container(&[("params", self.values_payload())])
    }

    /// Restores parameter *values* from bytes produced by
    /// [`ParamStore::to_bytes`] (or any container with a `"params"`
    /// section, such as a model file or a full train-state checkpoint).
    pub fn load_bytes(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        let sections = read_container(bytes)?;
        self.load_values_payload(require_section(&sections, "params")?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> ParamStore {
        let mut s = ParamStore::new(5);
        s.register_xavier("a", 3, 4);
        s.register_xavier("b.w", 2, 2);
        s
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn roundtrip_preserves_values() {
        let src = store();
        let bytes = src.to_bytes();
        let mut dst = store();
        // Perturb, then restore.
        dst.value_mut("a").set(0, 0, 99.0);
        dst.load_bytes(&bytes).unwrap();
        assert_eq!(dst.value("a"), src.value("a"));
        assert_eq!(dst.value("b.w"), src.value("b.w"));
    }

    #[test]
    fn save_load_save_is_byte_identical() {
        let src = store();
        let bytes = src.to_bytes();
        let mut dst = store();
        dst.value_mut("a").fill_zero();
        dst.load_bytes(&bytes).unwrap();
        assert_eq!(dst.to_bytes(), bytes, "save -> load -> save must be byte-identical");
    }

    #[test]
    fn atomic_write_failure_preserves_previous_file() {
        let path = std::env::temp_dir().join(format!("retia_atomic_{}.bin", std::process::id()));
        std::fs::write(&path, b"previous checkpoint").unwrap();
        let err = atomic_write_with(&path, b"new bytes", |w, b| {
            w.write_all(&b[..4])?;
            Err(std::io::Error::other("injected crash"))
        })
        .unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), b"previous checkpoint");
        // The temp sibling must not linger.
        let dir = path.parent().unwrap();
        let stray: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("retia_atomic_") && n.contains(".tmp."))
            .collect();
        assert!(stray.is_empty(), "leftover temp files: {stray:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_magic() {
        let mut dst = store();
        let err = dst.load_bytes(b"NOTMAGIC________").unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt(_)));
    }

    #[test]
    fn rejects_old_version() {
        let mut bytes = store().to_bytes();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        let err = store().load_bytes(&bytes).unwrap_err();
        assert!(
            matches!(err, CheckpointError::UnsupportedVersion { found: 1, supported: 2 }),
            "{err}"
        );
    }

    #[test]
    fn rejects_truncated() {
        let src = store();
        let bytes = src.to_bytes();
        let mut dst = store();
        let err = dst.load_bytes(&bytes[..bytes.len() - 5]).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Corrupt(_) | CheckpointError::CrcMismatch { .. }),
            "{err}"
        );
    }

    #[test]
    fn rejects_single_bit_flip_with_crc_diagnostic() {
        let bytes = store().to_bytes();
        // Flip one bit in the middle of the tensor data.
        let mut flipped = bytes.clone();
        let off = bytes.len() - 10;
        flipped[off] ^= 0x10;
        let err = store().load_bytes(&flipped).unwrap_err();
        assert!(matches!(err, CheckpointError::CrcMismatch { .. }), "{err}");
    }

    #[test]
    fn shape_mismatch_names_param_and_both_shapes() {
        let src = store();
        let bytes = src.to_bytes();
        let mut other = ParamStore::new(5);
        other.register_xavier("a", 3, 4);
        other.register_xavier("b.w", 2, 3); // different shape
        let err = other.load_bytes(&bytes).unwrap_err();
        match &err {
            CheckpointError::ShapeMismatch { param, expected, found } => {
                assert_eq!(param, "b.w");
                assert_eq!(*expected, (2, 3));
                assert_eq!(*found, (2, 2));
            }
            other => panic!("expected ShapeMismatch, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("b.w") && msg.contains("2x3") && msg.contains("2x2"), "{msg}");
        // Validation happens before mutation: the store must be untouched.
        assert_eq!(other.value("a").shape(), (3, 4));
    }

    #[test]
    fn rejects_unknown_parameter() {
        let src = store();
        let bytes = src.to_bytes();
        let mut other = ParamStore::new(5);
        other.register_xavier("a", 3, 4);
        other.register_xavier("c.w", 2, 2); // different name
        let err = other.load_bytes(&bytes).unwrap_err();
        assert!(matches!(err, CheckpointError::UnknownParam { .. }), "{err}");
        assert!(err.to_string().contains("b.w"), "{err}");
    }

    #[test]
    fn missing_section_is_typed() {
        let bytes = write_container(&[("not-params", vec![1, 2, 3])]);
        let err = store().load_bytes(&bytes).unwrap_err();
        assert!(
            matches!(err, CheckpointError::MissingSection { ref section } if section == "params"),
            "{err}"
        );
    }

    #[test]
    fn container_roundtrips_multiple_sections() {
        let sections = [("alpha", vec![1u8, 2, 3]), ("beta", Vec::new()), ("gamma", vec![255u8])];
        let bytes = write_container(&sections);
        let back = read_container(&bytes).unwrap();
        assert_eq!(back.len(), 3);
        for ((n0, p0), (n1, p1)) in sections.iter().zip(back.iter()) {
            assert_eq!(n0, n1);
            assert_eq!(p0.as_slice(), *p1);
        }
        assert_eq!(require_section(&back, "beta").unwrap(), &[] as &[u8]);
        assert!(require_section(&back, "delta").is_err());
    }

    #[test]
    fn moments_roundtrip() {
        let mut src = store();
        // Give the moments non-trivial values via a fake gradient step.
        let id = src.id("a");
        src.accumulate_grad(id, &Tensor::ones(3, 4));
        let mut adam = crate::optim::Adam::new(0.1);
        adam.step(&mut src);
        let (m, v) = src.moments_payloads();
        let mut dst = store();
        dst.load_moments_payloads(&m, &v).unwrap();
        let (m2, v2) = dst.moments_payloads();
        assert_eq!(m, m2);
        assert_eq!(v, v2);
    }
}
