//! On-disk dataset cache keyed by `KCORE_CACHE_DIR`.
//!
//! Generating a Table I stand-in is the dominant host cost of every bench
//! binary (multiple full CSR builds per dataset: base generator +
//! `plant_clique` + `relabel`), and each binary used to pay it again from
//! scratch. With `KCORE_CACHE_DIR` set, [`load_or_generate`] generates each
//! dataset once, persists it in the KCSR binary format
//! ([`crate::binio`]), and serves every later request from disk.
//!
//! **Determinism contract.** A cache file is a pure function of the
//! registry entry: the key hashes the generator spec, seed, core boost,
//! [`crate::gen::GEN_VERSION`] and the binary format version, and the KCSR
//! encoding is canonical. Since every generator is itself byte-identical
//! across rayon pool sizes, the cached bytes — and the [`Csr`] they decode
//! to — are identical across pool sizes and across cache hit/miss. Golden
//! traces, counter fingerprints and recorded bench snapshots therefore see
//! the exact same graphs either way; only host wall-clock changes.
//!
//! **Robustness.** A cache entry that cannot be read for *any* reason —
//! missing, truncated, wrong magic, stale format or generator version,
//! checksum mismatch — is regenerated, never a panic; a corrupt (non-NotFound)
//! entry earns one `stderr` note naming the decode error, and so does a
//! failed write. Writes go through a temp file + rename so a crash
//! mid-write leaves no half-written entry under the final name.

use crate::binio::{fnv1a, CSR_BINARY_VERSION, FNV_OFFSET};
use crate::csr::Csr;
use crate::datasets::Dataset;
use std::path::{Path, PathBuf};

/// Environment variable naming the cache directory. Unset or empty
/// disables caching (every call regenerates, exactly as before the cache
/// existed).
pub const CACHE_ENV: &str = "KCORE_CACHE_DIR";

/// The configured cache directory, if caching is enabled.
pub fn cache_dir() -> Option<PathBuf> {
    std::env::var_os(CACHE_ENV)
        .filter(|s| !s.is_empty())
        .map(PathBuf::from)
}

/// Cache file name for a registry entry: a slug of the dataset name plus a
/// hash of everything its generated bytes depend on. Any change to the
/// spec, seed, boost, generator algorithms ([`crate::gen::GEN_VERSION`])
/// or binary format yields a different name, so stale entries are simply
/// never looked up again.
pub fn cache_file_name(d: &Dataset) -> String {
    let descriptor = format!(
        "{}|{:?}|boost={}|seed={:#x}|gen_v{}|bin_v{}",
        d.name,
        d.spec,
        d.core_boost,
        d.seed,
        crate::gen::GEN_VERSION,
        CSR_BINARY_VERSION,
    );
    let hash = fnv1a(FNV_OFFSET, descriptor.as_bytes());
    let slug: String = d
        .name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect();
    format!("{slug}-{hash:016x}.kcsr")
}

/// Loads `d`'s stand-in from the `KCORE_CACHE_DIR` cache, generating (and
/// populating the cache) on miss. With the cache disabled this is exactly
/// [`Dataset::generate`].
pub fn load_or_generate(d: &Dataset) -> Csr {
    match cache_dir() {
        Some(dir) => load_or_generate_in(&dir, d),
        None => d.generate(),
    }
}

/// [`load_or_generate`] against an explicit directory (tests; the public
/// entry point resolves the directory from the environment).
pub fn load_or_generate_in(dir: &Path, d: &Dataset) -> Csr {
    let path = dir.join(cache_file_name(d));
    match Csr::load_binary(&path) {
        Ok(g) => return g,
        Err(crate::binio::BinError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {}
        // Note a *corrupt* entry, with the decode error as the reason:
        // silent data loss is worth a line.
        Err(e) => eprintln!(
            "[cache: {} unreadable ({e}); regenerating {}]",
            path.display(),
            d.name
        ),
    }
    let g = d.generate();
    if let Err(e) = persist(dir, &path, &g) {
        eprintln!(
            "[cache: generated {} but could not write {} ({e})]",
            d.name,
            path.display()
        );
    }
    g
}

/// Atomically installs `g` at `path`: write to a temp file in the same
/// directory, then rename over the final name.
fn persist(dir: &Path, path: &Path, g: &Csr) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    g.save_binary(&tmp)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        std::fs::remove_file(&tmp).ok();
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;

    fn tiny_dataset() -> Dataset {
        datasets::smoke_subset()
            .into_iter()
            .find(|d| d.name == "amazon0601")
            .unwrap()
    }

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("kcore_cache_test_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn miss_populates_and_hit_matches_generate() {
        let d = tiny_dataset();
        let dir = fresh_dir("hit");
        let cold = load_or_generate_in(&dir, &d);
        assert_eq!(cold, d.generate(), "cold-path graph equals generate()");
        let path = dir.join(cache_file_name(&d));
        assert!(path.exists(), "miss populated {}", path.display());
        let mtime = std::fs::metadata(&path).unwrap().modified().unwrap();
        let warm = load_or_generate_in(&dir, &d);
        assert_eq!(warm, cold, "warm-path graph identical");
        assert_eq!(
            std::fs::metadata(&path).unwrap().modified().unwrap(),
            mtime,
            "hit did not rewrite the entry"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_entries_silently_regenerate() {
        let d = tiny_dataset();
        let dir = fresh_dir("corrupt");
        let expect = load_or_generate_in(&dir, &d);
        let path = dir.join(cache_file_name(&d));
        // truncated
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert_eq!(load_or_generate_in(&dir, &d), expect);
        // wrong magic
        let mut bad = full.clone();
        bad[0] = b'Z';
        std::fs::write(&path, &bad).unwrap();
        assert_eq!(load_or_generate_in(&dir, &d), expect);
        // flipped payload byte (checksum mismatch)
        let mut bad = full.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x55;
        std::fs::write(&path, &bad).unwrap();
        assert_eq!(load_or_generate_in(&dir, &d), expect);
        // stale format version
        let mut bad = full.clone();
        bad[4..8].copy_from_slice(&(CSR_BINARY_VERSION + 9).to_le_bytes());
        std::fs::write(&path, &bad).unwrap();
        assert_eq!(load_or_generate_in(&dir, &d), expect);
        // every failure path rewrote a valid entry
        assert_eq!(Csr::load_binary(&path).unwrap(), expect);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn key_distinguishes_registry_entries() {
        let mut names = std::collections::HashSet::new();
        for d in datasets::registry() {
            assert!(
                names.insert(cache_file_name(&d)),
                "collision for {}",
                d.name
            );
        }
        // and changing the seed alone changes the key
        let mut d = tiny_dataset();
        let a = cache_file_name(&d);
        d.seed ^= 1;
        assert_ne!(a, cache_file_name(&d));
    }

    /// A changed key orphans every cached stand-in, so it must not pass
    /// unseen: one registry entry's name is pinned.
    #[test]
    fn key_is_pinned() {
        assert_eq!(
            cache_file_name(&tiny_dataset()),
            "amazon0601-6a7469f86fd09cb2.kcsr"
        );
    }
}
