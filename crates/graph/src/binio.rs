//! Versioned, checksummed binary CSR serialization.
//!
//! The on-disk format (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"KCSR"
//! 4       4     format version (u32) — currently [`CSR_BINARY_VERSION`]
//! 8       8     num_vertices n (u64)
//! 16      8     num_arcs |neighbors| (u64)
//! 24      8     FNV-1a 64 checksum of the payload bytes
//! 32      ...   payload: (n + 1) offsets as u64, then num_arcs neighbors as u32
//! ```
//!
//! [`Csr::read_binary`] rejects — with a typed [`BinError`], never a panic —
//! anything with a wrong magic, an unknown version, a truncated or oversized
//! payload, a checksum mismatch, or structurally invalid offsets/neighbor
//! IDs, so a consumer (the dataset cache in [`crate::cache`]) can fall back
//! to regeneration. The encoding is a pure function of the graph, so two
//! structurally equal CSRs always serialize to identical bytes — the
//! property the cache's determinism contract rests on (DESIGN.md
//! "Ingestion pipeline & dataset cache").

use crate::csr::{Csr, VertexId};
use std::io::{Read, Write};
use std::path::Path;

/// Current version of the binary CSR format. Bump on any layout change;
/// readers refuse other versions (the cache then regenerates).
pub const CSR_BINARY_VERSION: u32 = 1;

const MAGIC: [u8; 4] = *b"KCSR";
const HEADER_LEN: usize = 32;

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Errors from [`Csr::read_binary`] / [`Csr::write_binary`].
#[derive(Debug)]
pub enum BinError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with `KCSR`.
    BadMagic,
    /// The format version is not [`CSR_BINARY_VERSION`].
    BadVersion {
        /// Version found in the header.
        found: u32,
    },
    /// The payload is shorter than the header promises.
    Truncated,
    /// The payload is longer than the header promises.
    TrailingBytes,
    /// The payload bytes do not hash to the header checksum.
    ChecksumMismatch,
    /// Offsets/neighbors decoded but violate CSR invariants.
    Malformed(&'static str),
}

impl std::fmt::Display for BinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinError::Io(e) => write!(f, "io error: {e}"),
            BinError::BadMagic => write!(f, "not a KCSR file (bad magic)"),
            BinError::BadVersion { found } => {
                write!(f, "KCSR version {found} (expected {CSR_BINARY_VERSION})")
            }
            BinError::Truncated => write!(f, "truncated KCSR payload"),
            BinError::TrailingBytes => write!(f, "trailing bytes after KCSR payload"),
            BinError::ChecksumMismatch => write!(f, "KCSR checksum mismatch"),
            BinError::Malformed(what) => write!(f, "malformed KCSR payload: {what}"),
        }
    }
}

impl std::error::Error for BinError {}

impl From<std::io::Error> for BinError {
    fn from(e: std::io::Error) -> Self {
        BinError::Io(e)
    }
}

/// FNV-1a over `bytes`, continuing from `hash` (start at [`FNV_OFFSET`]).
pub(crate) fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Encodes the payload (offsets then neighbors, little-endian) into one
/// buffer. Kept separate so the writer can checksum exactly what it emits.
fn encode_payload(offsets: &[u64], neighbors: &[VertexId]) -> Vec<u8> {
    let mut out = Vec::with_capacity(offsets.len() * 8 + neighbors.len() * 4);
    for &o in offsets {
        out.extend_from_slice(&o.to_le_bytes());
    }
    for &v in neighbors {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

impl Csr {
    /// Serializes the graph in the KCSR binary format (see module docs).
    pub fn write_binary<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        let offsets = self.offsets();
        let neighbors = self.neighbor_array();
        let payload = encode_payload(offsets, neighbors);
        let mut header = [0u8; HEADER_LEN];
        header[0..4].copy_from_slice(&MAGIC);
        header[4..8].copy_from_slice(&CSR_BINARY_VERSION.to_le_bytes());
        header[8..16].copy_from_slice(&(self.num_vertices() as u64).to_le_bytes());
        header[16..24].copy_from_slice(&(neighbors.len() as u64).to_le_bytes());
        header[24..32].copy_from_slice(&fnv1a(FNV_OFFSET, &payload).to_le_bytes());
        w.write_all(&header)?;
        w.write_all(&payload)?;
        w.flush()
    }

    /// Deserializes a KCSR binary stream, validating magic, version,
    /// length, checksum, and the cheap structural CSR invariants
    /// (monotonic offsets bracketing the neighbor array, in-range neighbor
    /// IDs, sorted duplicate-free self-loop-free adjacency lists). The
    /// O(m log m) symmetry check is skipped — the writer only accepts
    /// [`Csr`] values, which are symmetric by construction.
    pub fn read_binary<R: Read>(mut r: R) -> Result<Csr, BinError> {
        let mut header = [0u8; HEADER_LEN];
        let mut filled = 0usize;
        while filled < HEADER_LEN {
            match r.read(&mut header[filled..])? {
                0 => return Err(BinError::Truncated),
                k => filled += k,
            }
        }
        if header[0..4] != MAGIC {
            return Err(BinError::BadMagic);
        }
        let version = u32::from_le_bytes(header[4..8].try_into().unwrap());
        if version != CSR_BINARY_VERSION {
            return Err(BinError::BadVersion { found: version });
        }
        let n = u64::from_le_bytes(header[8..16].try_into().unwrap());
        let arcs = u64::from_le_bytes(header[16..24].try_into().unwrap());
        let checksum = u64::from_le_bytes(header[24..32].try_into().unwrap());

        let expected = n
            .checked_add(1)
            .and_then(|k| k.checked_mul(8))
            .and_then(|b| b.checked_add(arcs.checked_mul(4)?))
            .and_then(|b| usize::try_from(b).ok())
            .ok_or(BinError::Malformed("size overflow"))?;
        let mut payload = Vec::new();
        r.read_to_end(&mut payload)?;
        match payload.len().cmp(&expected) {
            std::cmp::Ordering::Less => return Err(BinError::Truncated),
            std::cmp::Ordering::Greater => return Err(BinError::TrailingBytes),
            std::cmp::Ordering::Equal => {}
        }
        if fnv1a(FNV_OFFSET, &payload) != checksum {
            return Err(BinError::ChecksumMismatch);
        }

        let n = n as usize;
        let mut offsets = Vec::with_capacity(n + 1);
        for c in payload[..(n + 1) * 8].chunks_exact(8) {
            offsets.push(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let mut neighbors = Vec::with_capacity(arcs as usize);
        for c in payload[(n + 1) * 8..].chunks_exact(4) {
            neighbors.push(VertexId::from_le_bytes(c.try_into().unwrap()));
        }

        if offsets[0] != 0 || *offsets.last().unwrap() != arcs {
            return Err(BinError::Malformed("offsets do not bracket neighbors"));
        }
        // Validate all offsets before slicing any adjacency list: with
        // offsets[0] == 0, offsets[n] == arcs, and monotonicity, every
        // offset is a valid index into `neighbors`.
        for v in 0..n {
            if offsets[v] > offsets[v + 1] {
                return Err(BinError::Malformed("offsets decrease"));
            }
        }
        for v in 0..n {
            let list = &neighbors[offsets[v] as usize..offsets[v + 1] as usize];
            for (i, &u) in list.iter().enumerate() {
                if u as usize >= n {
                    return Err(BinError::Malformed("neighbor out of range"));
                }
                if u as usize == v {
                    return Err(BinError::Malformed("self-loop"));
                }
                if i > 0 && list[i - 1] >= u {
                    return Err(BinError::Malformed("unsorted adjacency"));
                }
            }
        }
        Ok(Csr::from_parts_unchecked(offsets, neighbors))
    }

    /// Writes the graph to `path` in KCSR format (buffered).
    pub fn save_binary<P: AsRef<Path>>(&self, path: P) -> std::io::Result<()> {
        let f = std::fs::File::create(path)?;
        self.write_binary(std::io::BufWriter::new(f))
    }

    /// Loads a KCSR file from `path`.
    pub fn load_binary<P: AsRef<Path>>(path: P) -> Result<Csr, BinError> {
        let f = std::fs::File::open(path)?;
        Csr::read_binary(std::io::BufReader::new(f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        crate::fig1_graph()
    }

    fn bytes_of(g: &Csr) -> Vec<u8> {
        let mut buf = Vec::new();
        g.write_binary(&mut buf).unwrap();
        buf
    }

    #[test]
    fn round_trip_is_identity() {
        let g = sample();
        let back = Csr::read_binary(&bytes_of(&g)[..]).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = Csr::empty(5);
        assert_eq!(Csr::read_binary(&bytes_of(&g)[..]).unwrap(), g);
        let g = Csr::empty(0);
        assert_eq!(Csr::read_binary(&bytes_of(&g)[..]).unwrap(), g);
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(bytes_of(&sample()), bytes_of(&sample()));
    }

    #[test]
    fn rejects_bad_magic() {
        let mut b = bytes_of(&sample());
        b[0] = b'X';
        assert!(matches!(Csr::read_binary(&b[..]), Err(BinError::BadMagic)));
    }

    #[test]
    fn rejects_stale_version() {
        let mut b = bytes_of(&sample());
        b[4..8].copy_from_slice(&(CSR_BINARY_VERSION + 1).to_le_bytes());
        assert!(matches!(
            Csr::read_binary(&b[..]),
            Err(BinError::BadVersion { .. })
        ));
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let b = bytes_of(&sample());
        for cut in [0, 3, HEADER_LEN - 1, HEADER_LEN, b.len() - 1] {
            assert!(
                matches!(Csr::read_binary(&b[..cut]), Err(BinError::Truncated)),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut b = bytes_of(&sample());
        b.push(0);
        assert!(matches!(
            Csr::read_binary(&b[..]),
            Err(BinError::TrailingBytes)
        ));
    }

    #[test]
    fn rejects_payload_corruption() {
        let mut b = bytes_of(&sample());
        let last = b.len() - 1;
        b[last] ^= 0xff;
        assert!(matches!(
            Csr::read_binary(&b[..]),
            Err(BinError::ChecksumMismatch)
        ));
    }

    #[test]
    fn rejects_checksummed_garbage_structure() {
        // A payload that checksums fine but is not a valid CSR: rewrite a
        // neighbor to a self-loop and re-stamp the checksum.
        let g = sample();
        let mut offsets = g.offsets().to_vec();
        let mut neighbors = g.neighbor_array().to_vec();
        neighbors[0] = 0; // vertex 0's first neighbor := 0 (self-loop)
        let mut b = Vec::new();
        let payload = encode_payload(&offsets, &neighbors);
        b.extend_from_slice(&MAGIC);
        b.extend_from_slice(&CSR_BINARY_VERSION.to_le_bytes());
        b.extend_from_slice(&(g.num_vertices() as u64).to_le_bytes());
        b.extend_from_slice(&(neighbors.len() as u64).to_le_bytes());
        b.extend_from_slice(&fnv1a(FNV_OFFSET, &payload).to_le_bytes());
        b.extend_from_slice(&payload);
        assert!(matches!(
            Csr::read_binary(&b[..]),
            Err(BinError::Malformed(_))
        ));
        // and a decreasing offsets array
        offsets[1] = u64::MAX;
        let payload = encode_payload(&offsets, g.neighbor_array());
        b.truncate(24);
        b.extend_from_slice(&fnv1a(FNV_OFFSET, &payload).to_le_bytes());
        b.extend_from_slice(&payload);
        assert!(Csr::read_binary(&b[..]).is_err());
    }

    #[test]
    fn rejects_overflowing_header_sizes() {
        let mut b = [0u8; HEADER_LEN];
        b[0..4].copy_from_slice(&MAGIC);
        b[4..8].copy_from_slice(&CSR_BINARY_VERSION.to_le_bytes());
        b[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        b[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            Csr::read_binary(&b[..]),
            Err(BinError::Malformed(_))
        ));
    }

    #[test]
    fn file_round_trip() {
        let g = sample();
        let dir = std::env::temp_dir().join("kcore_binio_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fig1.kcsr");
        g.save_binary(&path).unwrap();
        assert_eq!(Csr::load_binary(&path).unwrap(), g);
        std::fs::remove_file(&path).ok();
    }
}
