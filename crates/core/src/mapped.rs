//! Zero-copy snapshot loading: serve an index straight off the page cache.
//!
//! [`crate::serialize`]'s formats are mmap-ready: a fixed header, a
//! section table, and naturally aligned little-endian bulk sections. The
//! copying loaders still copy every byte into fresh `Vec`s, so their cold
//! start scales with the index size. [`map_index_from_file`] instead
//! `mmap(2)`s the snapshot (via the in-tree `memmap2` shim) and runs the
//! **same** per-format reader as the copying loader on the mapping: the
//! codec's one section-table parser (checked `usize` narrowing of every
//! length, exact total size), then
//! [`Section`](crate::section::Section)-backed arenas whose bounds and
//! alignment are re-checked before any in-place cast. Bytes are only
//! faulted in when queries touch them, so load time is O(header +
//! offsets), not O(index).
//!
//! # What is (and isn't) validated eagerly
//!
//! The copying loaders run the full structural validation
//! ([`crate::SpcIndex::validate`]) after load; doing that on a mapping
//! would fault every page in and erase the cold-start win. The mapped loader
//! therefore checks everything that **memory safety** and **absence of
//! panics** rely on — header/section-table consistency, checked length
//! narrowing, section bounds + alignment, CSR offset monotonicity and
//! the order permutation (both small sections) — and trusts per-row hub
//! sortedness, which only affects query *answers* on a deliberately
//! corrupted file, exactly like a bit flip inside a `dists` section
//! would. The parity proptests pin mapped and copied loads to
//! bit-identical answers on good files.
//!
//! # The file must stay as it was mapped
//!
//! A mapped snapshot must never be truncated or rewritten in place while
//! an index served from it is alive: a page that no longer exists in the
//! file raises `SIGBUS` on the next query that touches it, and a
//! rewritten page changes answers under the checks above. Replace a
//! snapshot by writing a new file and renaming it over the old one, as
//! [`crate::shard::write_atomically`] (and so `pspc build` and
//! `pspc migrate`) does; the old mapping keeps the old file alive.
//!
//! # Supported formats
//!
//! * `PSPCIDX2` → [`SnapshotKind::Undirected`], fully zero-copy (the
//!   small `order` array is copied; it is rebuilt into a rank lookup
//!   anyway).
//! * `PSPCDIR2` → [`SnapshotKind::Directed`], fully zero-copy.
//! * `PSPCDYN2` / legacy `PSPCIDX1` → `ErrorKind::Unsupported`: the
//!   dynamic index mutates in place and v1 is per-entry encoded, so
//!   neither can serve from a read-only mapping. `pspc serve --mmap`
//!   catches this and falls back to the copying loader with a warning.
//! * `PSPCSHM1` manifests → `ErrorKind::Unsupported` here; sharded
//!   snapshots load through [`crate::shard`] instead.

use crate::serialize::{
    bad, read_dir, read_v2, SnapshotKind, Source, MAGIC_DIR, MAGIC_DYN, MAGIC_SHARD_MANIFEST,
    MAGIC_V1, MAGIC_V2,
};
use memmap2::Mmap;
use std::fs::File;
use std::io;
use std::path::Path;
use std::sync::Arc;

fn unsupported(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::Unsupported, msg.to_string())
}

/// Maps the snapshot at `path` and serves it zero-copy, dispatching on
/// the magic. See the [module docs](self) for which formats qualify;
/// unsupported ones return `ErrorKind::Unsupported` so callers can fall
/// back to the copying [`crate::serialize::any_index_from_binary`].
///
/// The file must not be truncated or rewritten while the returned index
/// is alive (see the [module docs](self)).
pub fn map_index_from_file(path: impl AsRef<Path>) -> io::Result<SnapshotKind> {
    let path = path.as_ref();
    let file = File::open(path)?;
    if file.metadata()?.is_dir() {
        // Opening a directory succeeds on Linux; reject it before mmap
        // turns it into a confusing EACCES/ENODEV.
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "unrecognized snapshot: path is a directory",
        ));
    }
    // SAFETY: read-only private mapping; snapshot files are replaced by
    // atomic rename, never truncated in place.
    let map = Arc::new(unsafe { Mmap::map(&file) }?);
    if map.len() < 8 {
        return Err(bad(
            "unrecognized snapshot: file shorter than the 8-byte magic",
        ));
    }
    match &map[..8] {
        m if m == MAGIC_V2 => read_v2(Source::Map(&map)).map(SnapshotKind::Undirected),
        m if m == MAGIC_DIR => read_dir(Source::Map(&map)).map(SnapshotKind::Directed),
        m if m == MAGIC_DYN => Err(unsupported(
            "dynamic snapshots mutate in place and cannot be served zero-copy; use the copying loader",
        )),
        m if m == MAGIC_V1 => Err(unsupported(
            "legacy v1 snapshots are per-entry encoded and cannot be served zero-copy; migrate to v2 or use the copying loader",
        )),
        m if m == MAGIC_SHARD_MANIFEST => Err(unsupported(
            "sharded snapshot manifest; load it with shard::open_sharded",
        )),
        _ => Err(bad("unrecognized snapshot: not a PSPC index snapshot")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_pspc, PspcConfig};
    use crate::label::SpcIndex;
    use crate::serialize::{
        any_index_from_binary, di_index_to_binary, dyn_index_to_binary, index_to_binary, Bytes,
    };
    use pspc_graph::generators::barabasi_albert;
    use std::io::Write;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pspc-mapped-{}-{}", std::process::id(), name));
        p
    }

    fn write_file(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let p = temp_path(name);
        std::fs::File::create(&p).unwrap().write_all(bytes).unwrap();
        p
    }

    fn build(n: usize, seed: u64) -> SpcIndex {
        let g = barabasi_albert(n, 2, seed);
        build_pspc(&g, &PspcConfig::default()).0
    }

    #[test]
    fn mapped_v2_answers_match_copying_loader() {
        let idx = build(150, 21);
        let bytes = index_to_binary(&idx);
        let path = write_file("v2", &bytes);
        let mapped = map_index_from_file(&path).unwrap();
        let SnapshotKind::Undirected(mapped) = mapped else {
            panic!("expected undirected");
        };
        assert!(mapped.is_mapped());
        assert!(!idx.is_mapped());
        assert_eq!(mapped.label_arena(), idx.label_arena());
        assert_eq!(mapped.order(), idx.order());
        for (s, t) in [(0u32, 149u32), (3, 99), (50, 51), (7, 7)] {
            assert_eq!(idx.query(s, t), mapped.query(s, t));
        }
        // The mapped index outlives the mapping handle scope: Sections
        // hold the Arc, so dropping nothing else matters. Clone works too.
        let cloned = mapped.clone();
        drop(mapped);
        assert_eq!(idx.query(1, 140), cloned.query(1, 140));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mapped_directed_answers_match() {
        use crate::directed::pspc::{build_di_pspc, DiPspcConfig};
        let g = pspc_graph::digraph::erdos_renyi_digraph(80, 320, 5);
        let idx = build_di_pspc(&g, &DiPspcConfig::default());
        let path = write_file("dir", &di_index_to_binary(&idx));
        let SnapshotKind::Directed(mapped) = map_index_from_file(&path).unwrap() else {
            panic!("expected directed");
        };
        for (s, t) in [(0u32, 79u32), (7, 33), (12, 12), (79, 0)] {
            assert_eq!(idx.query(s, t), mapped.query(s, t));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unsupported_kinds_error_with_unsupported_kind() {
        use pspc_order::OrderingStrategy;
        let g = pspc_graph::generators::erdos_renyi(30, 60, 3);
        let dynix = crate::dynamic::DynamicDistanceIndex::build(&g, OrderingStrategy::Degree);
        let p_dyn = write_file("dyn", &dyn_index_to_binary(&dynix));
        let p_v1 = write_file("v1", include_bytes!("../tests/fixtures/ba24.v1.pspc"));
        for p in [&p_dyn, &p_v1] {
            let err = map_index_from_file(p).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::Unsupported, "{err}");
            // The copying loader still accepts these files.
            let bytes = Bytes::from(std::fs::read(p).unwrap());
            assert!(any_index_from_binary(bytes).is_ok());
            std::fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn short_files_and_directories_error_crisply() {
        let empty = write_file("empty", b"");
        let seven = write_file("seven", b"PSPCIDX");
        let err = map_index_from_file(&empty).unwrap_err();
        assert!(err.to_string().contains("non-zero length"), "{err}");
        let err = map_index_from_file(&seven).unwrap_err();
        assert!(err.to_string().contains("unrecognized snapshot"), "{err}");
        let err = map_index_from_file(std::env::temp_dir()).unwrap_err();
        assert!(
            err.to_string().contains("directory") || err.kind() == io::ErrorKind::InvalidInput,
            "{err}"
        );
        let err = map_index_from_file(temp_path("does-not-exist")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        for p in [empty, seven] {
            std::fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn truncations_and_corruption_error_not_segfault() {
        let idx = build(60, 9);
        let bytes = index_to_binary(&idx).to_vec();
        // Every prefix length (stepped for speed, exact around the header)
        // must produce a clean error.
        for len in (0..bytes.len())
            .step_by(31)
            .chain([8, 79, 80, bytes.len() - 1])
        {
            let p = write_file("trunc", &bytes[..len]);
            assert!(map_index_from_file(&p).is_err(), "prefix {len} accepted");
        }
        // Flipping a section-table byte must error, not mis-slice.
        let mut tampered = bytes.clone();
        tampered[33] ^= 0x01;
        let p = write_file("tamper", &tampered);
        assert!(map_index_from_file(&p).is_err());
        // Trailing bytes are rejected (exact-length rule).
        let mut extended = bytes;
        extended.push(0);
        let p2 = write_file("extended", &extended);
        assert!(map_index_from_file(&p2).is_err());
        std::fs::remove_file(temp_path("trunc")).unwrap();
        std::fs::remove_file(p).unwrap();
        std::fs::remove_file(p2).unwrap();
    }

    #[test]
    fn weighted_mapped_round_trip() {
        use crate::builder::build_pspc_with_order;
        use pspc_order::OrderingStrategy;
        let g = barabasi_albert(48, 2, 3);
        let w: Vec<u64> = (0..48u64).map(|i| 1 + i % 4).collect();
        let o = OrderingStrategy::Degree.compute(&g);
        let idx = build_pspc_with_order(&g, o, Some(&w), &PspcConfig::default()).0;
        let path = write_file("weighted", &index_to_binary(&idx));
        let SnapshotKind::Undirected(mapped) = map_index_from_file(&path).unwrap() else {
            panic!("expected undirected");
        };
        assert_eq!(mapped.weights(), idx.weights());
        assert_eq!(idx.query(7, 31), mapped.query(7, 31));
        std::fs::remove_file(&path).unwrap();
    }
}
