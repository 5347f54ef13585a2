//! Compact binary mapping artifacts — the fleet-scale on-disk format.
//!
//! A [`MappingArtifact`] bundles a [`ThreeLevelMapping`] with the
//! instruction-name table it was inferred against, serialized as a
//! packed little-endian byte stream:
//!
//! ```text
//! offset  size              field
//! ------  ----              -----
//!      0  8                 magic  b"PMEVOBIN"
//!      8  4                 format version (currently 1)
//!     12  4                 num_ports
//!     16  4                 num_insts
//!     20  4                 total µop entries across all instructions
//!     24  4                 name-blob length in bytes
//!     28  4·num_insts       name end offsets (monotonic prefix sums)
//!      …  name-blob length  instruction names, concatenated UTF-8
//!      …  4·num_insts       decomposition end offsets (prefix sums)
//!      …  12·total entries  µop entries: count u32 + port mask u64
//!      …  8                 FNV-1a checksum of every preceding byte
//! ```
//!
//! Both offset tables are prefix sums (entry `i` ends where entry `i+1`
//! begins), so each instruction's name and decomposition are O(1) slices
//! of the two flat arrays — the dense per-proc packing idiom, applied to
//! mapping storage. There is no per-instruction framing overhead; a
//! typical inferred mapping is 5–10× smaller than its pretty JSON and
//! decodes without parsing text.
//!
//! The codec mirrors the JSON codec's discipline: `to_bytes`/`from_bytes`
//! round-trips are bit-exact (and agree with `to_json`/`from_json`),
//! decoding re-validates and re-normalizes the mapping, and corrupt or
//! truncated input produces a structured [`BinDecodeError`] carrying the
//! byte offset of the first inconsistency — never a panic.

use crate::{PortSet, ThreeLevelMapping, UopEntry, MAX_PORTS};
use std::fmt;

/// The 8-byte magic prefix of every binary mapping artifact.
pub const BIN_MAGIC: [u8; 8] = *b"PMEVOBIN";

/// The current (and only) binary format version.
pub const BIN_VERSION: u32 = 1;

/// Size in bytes of one serialized µop entry (`count: u32` + `ports: u64`).
const ENTRY_BYTES: usize = 12;

/// Size in bytes of the fixed header (magic + version + 4 counters).
const HEADER_BYTES: usize = 8 + 4 + 4 + 4 + 4 + 4;

/// A mapping plus the instruction-name table it is indexed by — the unit
/// of storage of the serving fleet.
///
/// JSON artifacts carry only the decomposition table and rely on the
/// platform registry for names; binary artifacts embed the names so a
/// `.bin` file is self-describing and a store can verify that successive
/// versions of one platform agree on their instruction universe.
///
/// # Example
///
/// ```
/// use pmevo_core::{MappingArtifact, PortSet, ThreeLevelMapping, UopEntry};
///
/// let mapping = ThreeLevelMapping::new(2, vec![
///     vec![UopEntry::new(1, PortSet::from_ports(&[0]))],
///     vec![UopEntry::new(2, PortSet::from_ports(&[0, 1]))],
/// ]);
/// let artifact = MappingArtifact::new(vec!["add".into(), "mul".into()], mapping);
/// let bytes = artifact.to_bytes();
/// let back = MappingArtifact::from_bytes(&bytes).unwrap();
/// assert_eq!(back, artifact);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MappingArtifact {
    inst_names: Vec<String>,
    mapping: ThreeLevelMapping,
}

impl MappingArtifact {
    /// Bundles `mapping` with its instruction names.
    ///
    /// # Panics
    ///
    /// Panics if `inst_names.len()` disagrees with `mapping.num_insts()`
    /// — an artifact whose name table cannot index its decomposition
    /// table is unrepresentable.
    pub fn new(inst_names: Vec<String>, mapping: ThreeLevelMapping) -> Self {
        assert_eq!(
            inst_names.len(),
            mapping.num_insts(),
            "{} instruction names for a {}-instruction mapping",
            inst_names.len(),
            mapping.num_insts()
        );
        MappingArtifact { inst_names, mapping }
    }

    /// The instruction-name table, indexed by [`crate::InstId`].
    pub fn inst_names(&self) -> &[String] {
        &self.inst_names
    }

    /// The decomposition table.
    pub fn mapping(&self) -> &ThreeLevelMapping {
        &self.mapping
    }

    /// Consumes the artifact into its `(names, mapping)` parts.
    pub fn into_parts(self) -> (Vec<String>, ThreeLevelMapping) {
        (self.inst_names, self.mapping)
    }

    /// Serializes the artifact into the packed binary layout.
    ///
    /// The output is a pure function of the artifact (no timestamps, no
    /// platform-dependent fields), so equal artifacts always serialize to
    /// identical bytes — the same determinism contract as the JSON codec.
    pub fn to_bytes(&self) -> Vec<u8> {
        let names_blob_len: usize = self.inst_names.iter().map(|n| n.len()).sum();
        let total_entries: usize = self.mapping.decompositions().map(<[_]>::len).sum();
        let num_insts = self.inst_names.len();
        let cap = HEADER_BYTES
            + 4 * num_insts // name ends
            + names_blob_len
            + 4 * num_insts // decomp ends
            + ENTRY_BYTES * total_entries
            + 8; // checksum
        let mut out = Vec::with_capacity(cap);

        out.extend_from_slice(&BIN_MAGIC);
        out.extend_from_slice(&BIN_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.mapping.num_ports() as u32).to_le_bytes());
        out.extend_from_slice(&(num_insts as u32).to_le_bytes());
        out.extend_from_slice(&(total_entries as u32).to_le_bytes());
        out.extend_from_slice(&(names_blob_len as u32).to_le_bytes());

        let mut end = 0u32;
        for name in &self.inst_names {
            end += name.len() as u32;
            out.extend_from_slice(&end.to_le_bytes());
        }
        for name in &self.inst_names {
            out.extend_from_slice(name.as_bytes());
        }
        let mut end = 0u32;
        for d in self.mapping.decompositions() {
            end += d.len() as u32;
            out.extend_from_slice(&end.to_le_bytes());
        }
        for d in self.mapping.decompositions() {
            for e in d {
                out.extend_from_slice(&e.count.to_le_bytes());
                out.extend_from_slice(&e.ports.mask().to_le_bytes());
            }
        }
        out.extend_from_slice(&fnv1a(&out).to_le_bytes());
        debug_assert_eq!(out.len(), cap);
        out
    }

    /// Parses an artifact from the bytes produced by [`Self::to_bytes`],
    /// re-validating every field and re-normalizing the mapping.
    ///
    /// Never panics: truncated, corrupt or adversarial input yields a
    /// [`BinDecodeError`] naming the byte offset of the first
    /// inconsistency. Allocation is bounded by the input length, so a
    /// forged header cannot request more memory than the file could hold.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, BinDecodeError> {
        let mut r = Reader { bytes, pos: 0 };

        let magic = r.take(8, "magic")?;
        if magic != BIN_MAGIC {
            return Err(BinDecodeError::at(0, "bad magic (not a PMEVOBIN artifact)"));
        }
        let version_at = r.pos;
        let version = r.u32("format version")?;
        if version != BIN_VERSION {
            return Err(BinDecodeError::at(
                version_at,
                format!("unsupported format version {version} (expected {BIN_VERSION})"),
            ));
        }
        let num_ports_at = r.pos;
        let num_ports = r.u32("num_ports")? as usize;
        if num_ports > MAX_PORTS {
            return Err(BinDecodeError::at(
                num_ports_at,
                format!("num_ports {num_ports} exceeds {MAX_PORTS}"),
            ));
        }
        let num_insts = r.u32("num_insts")? as usize;
        let total_entries = r.u32("total entry count")? as usize;
        let names_blob_len = r.u32("name-blob length")? as usize;

        // Everything after the header has a size fully determined by the
        // four counters; check it against the real input length up front
        // so truncation is one error and per-field reads cannot run off
        // the end. (Also bounds all allocations below by `bytes.len()`.)
        let body = 4usize
            .checked_mul(num_insts)
            .and_then(|n| n.checked_add(names_blob_len))
            .and_then(|n| n.checked_add(4 * num_insts))
            .and_then(|n| total_entries.checked_mul(ENTRY_BYTES).map(|e| n + e))
            .and_then(|n| n.checked_add(8))
            .ok_or_else(|| BinDecodeError::at(12, "header counters overflow"))?;
        let expect = HEADER_BYTES + body;
        if bytes.len() != expect {
            return Err(BinDecodeError::at(
                bytes.len().min(expect),
                format!("artifact is {} bytes, header implies {expect}", bytes.len()),
            ));
        }

        // Checksum before structure: a flipped bit anywhere should be
        // reported as corruption, not as whatever shape error it mimics.
        let payload = &bytes[..bytes.len() - 8];
        let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
        if fnv1a(payload) != stored {
            return Err(BinDecodeError::at(
                payload.len(),
                "checksum mismatch (artifact is corrupt)",
            ));
        }

        let name_ends = r.prefix_sums(num_insts, names_blob_len, "name end offset")?;
        let names_at = r.pos;
        let names_blob = r.take(names_blob_len, "name blob")?;
        let mut inst_names = Vec::with_capacity(num_insts);
        let mut start = 0usize;
        for (i, &end) in name_ends.iter().enumerate() {
            let raw = &names_blob[start..end as usize];
            let name = std::str::from_utf8(raw).map_err(|_| {
                BinDecodeError::at(names_at + start, format!("name {i} is not valid UTF-8"))
            })?;
            inst_names.push(name.to_owned());
            start = end as usize;
        }

        let decomp_ends = r.prefix_sums(num_insts, total_entries, "decomposition end offset")?;
        let valid = PortSet::first_n(num_ports);
        let mut entries = Vec::with_capacity(total_entries);
        for i in 0..total_entries {
            let count = r.u32("µop count")?;
            let mask_at = r.pos;
            let mask = r.u64("µop port mask")?;
            let ports = PortSet::from_mask(mask);
            if !ports.is_subset_of(valid) {
                return Err(BinDecodeError::at(
                    mask_at,
                    format!("entry {i}: ports {ports} outside the {num_ports}-port machine"),
                ));
            }
            entries.push(UopEntry::new(count, ports));
        }

        let mut decomp = Vec::with_capacity(num_insts);
        let mut start = 0usize;
        for &end in &decomp_ends {
            decomp.push(entries[start..end as usize].to_vec());
            start = end as usize;
        }
        // Validated above: num_ports and every mask are in range, so
        // `ThreeLevelMapping::new` cannot panic.
        Ok(MappingArtifact {
            inst_names,
            mapping: ThreeLevelMapping::new(num_ports, decomp),
        })
    }

    /// Whether `bytes` start with the binary artifact magic — the format
    /// sniff used to tell `.bin` from `.json` content without trusting
    /// file extensions.
    pub fn sniff(bytes: &[u8]) -> bool {
        bytes.len() >= 8 && bytes[..8] == BIN_MAGIC
    }
}

/// Failure to decode a binary mapping artifact.
///
/// Carries the byte offset where decoding first went wrong, so a corrupt
/// artifact in a fleet of thousands can be diagnosed from the error alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinDecodeError {
    /// Byte offset of the first inconsistency.
    pub offset: usize,
    /// What was wrong at that offset.
    pub what: String,
}

impl BinDecodeError {
    fn at(offset: usize, what: impl Into<String>) -> Self {
        BinDecodeError { offset, what: what.into() }
    }
}

impl fmt::Display for BinDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid binary mapping at byte {}: {}", self.offset, self.what)
    }
}

impl std::error::Error for BinDecodeError {}

/// FNV-1a over `bytes` — the workspace's standard content checksum.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Bounds-checked little-endian cursor over the input bytes.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], BinDecodeError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let s = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(BinDecodeError::at(
                self.bytes.len(),
                format!("truncated while reading {what}"),
            )),
        }
    }

    fn u32(&mut self, what: &str) -> Result<u32, BinDecodeError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &str) -> Result<u64, BinDecodeError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// Reads `n` u32 prefix sums that must be monotonic and end exactly
    /// at `total` — the invariant that makes the flat arrays sliceable.
    fn prefix_sums(
        &mut self,
        n: usize,
        total: usize,
        what: &str,
    ) -> Result<Vec<u32>, BinDecodeError> {
        let mut ends = Vec::with_capacity(n);
        let mut prev = 0u32;
        for i in 0..n {
            let at = self.pos;
            let end = self.u32(what)?;
            if end < prev {
                return Err(BinDecodeError::at(
                    at,
                    format!("{what} {i} goes backwards ({end} after {prev})"),
                ));
            }
            prev = end;
            ends.push(end);
        }
        if prev as usize != total {
            return Err(BinDecodeError::at(
                self.pos.saturating_sub(4),
                format!("last {what} is {prev}, header implies {total}"),
            ));
        }
        Ok(ends)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MappingArtifact {
        let u1 = PortSet::from_ports(&[0]);
        let u2 = PortSet::from_ports(&[0, 1]);
        let u3 = PortSet::from_ports(&[2]);
        MappingArtifact::new(
            vec!["mul".into(), "add".into(), "sub".into(), "store".into()],
            ThreeLevelMapping::new(
                3,
                vec![
                    vec![UopEntry::new(2, u1)],
                    vec![UopEntry::new(1, u2)],
                    vec![UopEntry::new(1, u2)],
                    vec![UopEntry::new(1, u2), UopEntry::new(1, u3)],
                ],
            ),
        )
    }

    #[test]
    fn roundtrip_is_exact() {
        let a = sample();
        let bytes = a.to_bytes();
        assert!(MappingArtifact::sniff(&bytes));
        let back = MappingArtifact::from_bytes(&bytes).unwrap();
        assert_eq!(back, a);
        // Re-serializing the decoded artifact is byte-identical.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn binary_agrees_with_json() {
        let a = sample();
        let via_json = ThreeLevelMapping::from_json(&a.mapping().to_json()).unwrap();
        let via_bin = MappingArtifact::from_bytes(&a.to_bytes()).unwrap();
        assert_eq!(via_bin.mapping(), &via_json);
    }

    #[test]
    fn empty_names_and_decomps_roundtrip() {
        // Zero-length names and instructions without µops are legal.
        let a = MappingArtifact::new(
            vec![String::new(), "x".into()],
            ThreeLevelMapping::new(
                1,
                vec![vec![], vec![UopEntry::new(1, PortSet::from_ports(&[0]))]],
            ),
        );
        let back = MappingArtifact::from_bytes(&a.to_bytes()).unwrap();
        assert_eq!(back, a);

        let empty = MappingArtifact::new(vec![], ThreeLevelMapping::new(0, vec![]));
        let back = MappingArtifact::from_bytes(&empty.to_bytes()).unwrap();
        assert_eq!(back, empty);
    }

    #[test]
    fn every_truncation_errors_without_panicking() {
        let bytes = sample().to_bytes();
        for len in 0..bytes.len() {
            let err = MappingArtifact::from_bytes(&bytes[..len])
                .expect_err("truncated artifact must not decode");
            assert!(err.offset <= bytes.len(), "offset {} out of range", err.offset);
        }
    }

    #[test]
    fn every_bit_flip_is_rejected() {
        let bytes = sample().to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(
                MappingArtifact::from_bytes(&bad).is_err(),
                "flipping byte {i} must not decode cleanly"
            );
        }
    }

    #[test]
    fn decode_errors_name_offset_and_cause() {
        let err = MappingArtifact::from_bytes(b"JUNKJUNKtrailing")
            .expect_err("bad magic");
        assert_eq!(err.offset, 0);
        assert!(err.to_string().contains("bad magic"), "{err}");

        let mut bytes = sample().to_bytes();
        bytes[8] = 9; // version
        let err = MappingArtifact::from_bytes(&bytes).expect_err("bad version");
        assert_eq!(err.offset, 8);
        assert!(err.to_string().contains("unsupported format version 9"), "{err}");
    }

    #[test]
    fn forged_counters_cannot_overallocate() {
        // Header claims u32::MAX instructions in a 40-byte file: the size
        // check must fail before any table allocation happens.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&BIN_MAGIC);
        bytes.extend_from_slice(&BIN_VERSION.to_le_bytes());
        bytes.extend_from_slice(&3u32.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0; 12]);
        let err = MappingArtifact::from_bytes(&bytes).expect_err("forged header");
        assert!(err.what.contains("header implies") || err.what.contains("overflow"), "{err}");
    }

    #[test]
    fn decoding_renormalizes_like_json() {
        // Hand-build bytes whose entries are unsorted with duplicates:
        // the decoder must normalize exactly as `ThreeLevelMapping::new`.
        let unnormalized = MappingArtifact {
            inst_names: vec!["a".into()],
            mapping: ThreeLevelMapping::new(
                2,
                vec![vec![UopEntry::new(1, PortSet::from_ports(&[0, 1]))]],
            ),
        };
        let mut bytes = unnormalized.to_bytes();
        // Patch the single entry's count from 1 to 0 (dropped on decode)
        // and fix up the checksum.
        let entry_at = HEADER_BYTES + 4 + 1 + 4;
        bytes[entry_at] = 0;
        let len = bytes.len();
        let sum = fnv1a(&bytes[..len - 8]);
        bytes[len - 8..].copy_from_slice(&sum.to_le_bytes());
        let back = MappingArtifact::from_bytes(&bytes).unwrap();
        assert!(back.mapping().decomposition(crate::InstId(0)).is_empty());
    }
}
