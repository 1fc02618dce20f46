//! Crash-safe model persistence: checksummed checkpoint framing and atomic
//! file writes.
//!
//! A serving deployment reloads models from disk while traffic is live, so a
//! checkpoint that was torn by a crash mid-write, truncated by a full disk,
//! or bit-flipped in storage must be *detected and rejected* — never parsed
//! into a silently-wrong model. Two layers provide that:
//!
//! * **Framing** ([`encode_checkpoint`] / [`decode_checkpoint`]): the JSON
//!   payload is wrapped in a one-line header carrying a magic string, the
//!   exact payload length and an FNV-1a checksum over the payload bytes.
//!   The header grammar is deliberately strict (single spaces, lowercase
//!   hex, exact length) so that *any* single-byte corruption — header or
//!   payload — yields a typed [`CheckpointError`].
//! * **Atomicity** ([`save_checkpoint`]): writes go to a temporary file in
//!   the target directory, are fsynced, and then renamed over the target
//!   (rename within a directory is atomic on POSIX); the directory is
//!   fsynced afterwards so the rename itself survives a crash. A reader can
//!   therefore only ever observe the old complete file or the new complete
//!   file.
//!
//! The serving registry builds on this: its checkpoint-reload path keeps the
//! last good version published when a load fails, so corruption degrades to
//! "kept serving the previous model" rather than an outage.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;

use crate::trainer::DaceEstimator;

/// Magic string opening every checkpoint header (version-bumped on any
/// format change).
pub const CHECKPOINT_MAGIC: &str = "DACE-CKPT-V1";

/// Why a checkpoint could not be loaded. Every failure mode a torn,
/// truncated or bit-flipped file can produce maps to a variant here — the
/// load path never panics and never returns a silently-wrong model.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem-level failure (open/read/write/rename/fsync).
    Io(std::io::Error),
    /// The header line is missing, malformed, or carries the wrong magic.
    BadHeader(String),
    /// The payload is shorter or longer than the header's declared length
    /// (a torn or truncated write).
    LengthMismatch {
        /// Bytes the header declared.
        declared: usize,
        /// Bytes actually present after the header.
        actual: usize,
    },
    /// The payload hashes to a different checksum than the header recorded
    /// (bit rot or a partially-overwritten file).
    ChecksumMismatch {
        /// Checksum the header declared.
        declared: u64,
        /// Checksum of the bytes on disk.
        actual: u64,
    },
    /// The payload passed the checksum but is not a valid estimator (wrong
    /// schema or version skew).
    Parse(serde_json::Error),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::BadHeader(why) => write!(f, "bad checkpoint header: {why}"),
            CheckpointError::LengthMismatch { declared, actual } => write!(
                f,
                "checkpoint truncated: header declares {declared} payload bytes, found {actual}"
            ),
            CheckpointError::ChecksumMismatch { declared, actual } => write!(
                f,
                "checkpoint checksum mismatch: header {declared:016x}, payload {actual:016x}"
            ),
            CheckpointError::Parse(e) => write!(f, "checkpoint payload unparseable: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            CheckpointError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// The checkpoint checksum: FNV-1a over the payload bytes (64-bit), the
/// workspace's one definition in `dace-obs`.
pub use dace_obs::fnv1a64;

/// Frame an estimator as checkpoint bytes:
/// `DACE-CKPT-V1 len=<decimal> fnv=<16 lowercase hex>\n<json payload>`.
pub fn encode_checkpoint(est: &DaceEstimator) -> Vec<u8> {
    let payload = est.to_json();
    let mut out = format!(
        "{CHECKPOINT_MAGIC} len={} fnv={:016x}\n",
        payload.len(),
        fnv1a64(payload.as_bytes())
    )
    .into_bytes();
    out.extend_from_slice(payload.as_bytes());
    out
}

/// Parse checkpoint bytes, verifying the header, exact length and checksum
/// before touching serde. Strict by construction: any deviation from the
/// canonical framing (including trailing garbage, uppercase hex or extra
/// whitespace) is an error, so no single-byte corruption can round-trip to
/// an `Ok`.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<DaceEstimator, CheckpointError> {
    let bad = |why: &str| CheckpointError::BadHeader(why.to_string());
    let nl = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| bad("no header line"))?;
    let header = std::str::from_utf8(&bytes[..nl]).map_err(|_| bad("header not utf-8"))?;
    let payload = &bytes[nl + 1..];

    let mut fields = header.split(' ');
    let magic = fields.next().ok_or_else(|| bad("empty header"))?;
    if magic != CHECKPOINT_MAGIC {
        return Err(bad(&format!("magic {magic:?}")));
    }
    let len_field = fields.next().ok_or_else(|| bad("missing len field"))?;
    let fnv_field = fields.next().ok_or_else(|| bad("missing fnv field"))?;
    if fields.next().is_some() {
        return Err(bad("trailing header fields"));
    }
    let len_str = len_field
        .strip_prefix("len=")
        .ok_or_else(|| bad("len field malformed"))?;
    if len_str.is_empty() || !len_str.bytes().all(|b| b.is_ascii_digit()) {
        return Err(bad("len not a decimal integer"));
    }
    let declared: usize = len_str.parse().map_err(|_| bad("len overflows"))?;
    let fnv_str = fnv_field
        .strip_prefix("fnv=")
        .ok_or_else(|| bad("fnv field malformed"))?;
    // Exactly 16 lowercase hex digits: `from_str_radix` alone would also
    // accept uppercase, letting a case-flipping bit flip round-trip.
    if fnv_str.len() != 16
        || !fnv_str
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
    {
        return Err(bad("fnv not 16 lowercase hex digits"));
    }
    let declared_fnv = u64::from_str_radix(fnv_str, 16).map_err(|_| bad("fnv unparseable"))?;

    if payload.len() != declared {
        return Err(CheckpointError::LengthMismatch {
            declared,
            actual: payload.len(),
        });
    }
    let actual_fnv = fnv1a64(payload);
    if actual_fnv != declared_fnv {
        return Err(CheckpointError::ChecksumMismatch {
            declared: declared_fnv,
            actual: actual_fnv,
        });
    }
    let json = std::str::from_utf8(payload)
        .map_err(|_| bad("payload not utf-8 despite checksum — impossible framing"))?;
    DaceEstimator::from_json(json).map_err(CheckpointError::Parse)
}

/// Atomically persist `est` to `path`: write `path.tmp-<pid>`, fsync it,
/// rename over `path`, fsync the directory. A crash at any point leaves
/// either the previous checkpoint or the new one — never a torn file at
/// `path` (the orphaned temp file, if any, fails [`decode_checkpoint`]'s
/// framing checks anyway).
pub fn save_checkpoint(path: &Path, est: &DaceEstimator) -> Result<(), CheckpointError> {
    let bytes = encode_checkpoint(est);
    let tmp = path.with_extension(format!("tmp-{}", std::process::id()));
    {
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e.into());
    }
    // Persist the rename itself: fsync the containing directory (POSIX
    // requires this for the new directory entry to survive a crash).
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Load and verify a checkpoint written by [`save_checkpoint`].
pub fn load_checkpoint(path: &Path) -> Result<DaceEstimator, CheckpointError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    decode_checkpoint(&bytes)
}
