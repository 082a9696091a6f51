//! Binary snapshot formats for [`SpcIndex`].
//!
//! Building the index is the expensive step (minutes for large graphs);
//! persisting it makes query services restartable. Two formats exist:
//!
//! * **v2 (`PSPCIDX2`)** — the current format, written by
//!   [`index_to_binary`]. A fixed header with a section table, followed by
//!   the [`crate::label::LabelArena`] arrays **verbatim**: deserialization
//!   is a handful of bulk section copies (O(sections) `memcpy`s on
//!   little-endian targets) instead of per-entry parsing, and every
//!   section start is naturally aligned so the layout is mmap-ready.
//! * **v1 (`PSPCIDX1`)** — the legacy per-entry format. Still *read* by
//!   [`index_from_binary`] for back-compat; [`index_to_binary_v1`] keeps a
//!   writer around for migration and cross-format tests. Convert old files
//!   with `pspc migrate <old> <new>`.
//!
//! # v2 format specification
//!
//! All integers are **little-endian**. The file is a fixed 80-byte header
//! followed by six data sections, in file order, with no padding:
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 8    | magic `"PSPCIDX2"` |
//! | 8      | 8    | `n` — vertex count (`u64`, must fit `u32`) |
//! | 16     | 8    | `m` — total label entries (`u64`) |
//! | 24     | 8    | `flags` (`u64`; bit 0 = weights section present) |
//! | 32     | 48   | section table: six `u64` byte lengths |
//! | 80     | —    | section data |
//!
//! The section table entries and the sections they describe, in order:
//!
//! | # | section   | element | length (bytes)           |
//! |--:|-----------|---------|--------------------------|
//! | 0 | `offsets` | `u64`   | `(n + 1) * 8`            |
//! | 1 | `weights` | `u64`   | `n * 8` if flag bit 0, else 0 |
//! | 2 | `counts`  | `u64`   | `m * 8`                  |
//! | 3 | `order`   | `u32`   | `n * 4` (`order[rank] = vertex`) |
//! | 4 | `hubs`    | `u32`   | `m * 4`                  |
//! | 5 | `dists`   | `u16`   | `m * 2`                  |
//!
//! Sections are sorted by descending element alignment (8-byte sections
//! first, then 4, then 2) and the header is 80 bytes (a multiple of 8),
//! so in a page-aligned mapping every section starts at a naturally
//! aligned address — a future mmap loader can cast sections in place.
//! The section lengths are fully determined by `n`, `m` and `flags`; the
//! reader verifies the table against them and rejects any mismatch, any
//! truncation, and any trailing bytes. Loaded data then passes the same
//! structural validation as v1 ([`SpcIndex::validate`] plus CSR offset
//! checks), so corrupt input errors — it never panics.
//!
//! [`index_to_binary`] computes the exact byte size up front and
//! serializes into a single pre-sized allocation (no reallocation).
//!
//! # Directed and dynamic snapshots
//!
//! The directed [`DiSpcIndex`] and the insertion-only
//! [`DynamicDistanceIndex`] persist with the same header-plus-aligned-
//! bulk-sections discipline as v2, each under its own magic so a loader
//! can tell the kinds apart from the first eight bytes
//! ([`snapshot_kind_name`]); [`any_index_from_binary`] dispatches on the
//! magic and returns a [`SnapshotKind`].
//!
//! **`PSPCDIR2`** (directed, [`di_index_to_binary`]) — a 112-byte header
//! (`magic`, `n`, `m_in`, `m_out`, `flags = 0`, nine `u64` section
//! lengths) followed by nine sections in descending element alignment:
//!
//! | # | section       | element | length (bytes)  |
//! |--:|---------------|---------|-----------------|
//! | 0 | `offsets_in`  | `u64`   | `(n + 1) * 8`   |
//! | 1 | `offsets_out` | `u64`   | `(n + 1) * 8`   |
//! | 2 | `counts_in`   | `u64`   | `m_in * 8`      |
//! | 3 | `counts_out`  | `u64`   | `m_out * 8`     |
//! | 4 | `order`       | `u32`   | `n * 4`         |
//! | 5 | `hubs_in`     | `u32`   | `m_in * 4`      |
//! | 6 | `hubs_out`    | `u32`   | `m_out * 4`     |
//! | 7 | `dists_in`    | `u16`   | `m_in * 2`      |
//! | 8 | `dists_out`   | `u16`   | `m_out * 2`     |
//!
//! **`PSPCDYN2`** (dynamic, [`dyn_index_to_binary`]) — an 88-byte header
//! (`magic`, `n`, `m` label entries, `a` adjacency entries, `flags = 0`,
//! six `u64` section lengths) followed by six sections: the maintained
//! rank-space adjacency as CSR (`adj_offsets`, `adj`) and the `(hub,
//! dist)` label rows as CSR (`lab_offsets`, `hubs`, `dists`) plus the
//! `order` array. Counts are not persisted because the dynamic index
//! maintains distances only (see [`crate::dynamic`]); the
//! `updated_entries` statistic resets to 0 on load.
//!
//! | # | section       | element | length (bytes)  |
//! |--:|---------------|---------|-----------------|
//! | 0 | `adj_offsets` | `u64`   | `(n + 1) * 8`   |
//! | 1 | `lab_offsets` | `u64`   | `(n + 1) * 8`   |
//! | 2 | `order`       | `u32`   | `n * 4`         |
//! | 3 | `adj`         | `u32`   | `a * 4`         |
//! | 4 | `hubs`        | `u32`   | `m * 4`         |
//! | 5 | `dists`       | `u16`   | `m * 2`         |
//!
//! Both headers are multiples of 8 bytes, both readers verify the
//! section table against the header counts (rejecting truncation and
//! trailing bytes exactly like v2), and both loaded indexes pass the
//! kind's structural validation, so corrupt input errors — never panics.
//!
//! # Untrusted lengths
//!
//! Every byte length and element count read from a snapshot is untrusted.
//! All section arithmetic happens in `u128` (so corrupt headers cannot
//! overflow the checks) and every narrowing to `usize` goes through
//! `usize::try_from` — a length that does not fit the host's address
//! space is a parse error, never a silent truncation. This matters
//! doubly on the zero-copy path ([`crate::mapped`]), where a mis-sliced
//! section would become an out-of-bounds view of the mapping rather
//! than a short `memcpy`.
//!
//! # Sharded snapshots (`PSPCSHM1` + `PSPCSHD1`)
//!
//! For indexes larger than RAM, `pspc build --shard-bytes N` (and
//! `pspc migrate --shard`) split an **undirected** index into a small
//! *manifest* plus per-rank-range *shard files* that the daemon maps
//! lazily under an LRU residency cap (see [`crate::shard`]). All
//! integers little-endian, like every other format here.
//!
//! **Manifest** (`<path>`, magic `PSPCSHM1`) — fixed 48-byte header, a
//! shard table, then the global order and optional weights arrays
//! (small, always loaded owned):
//!
//! | offset    | size   | field |
//! |----------:|-------:|-------|
//! | 0         | 8      | magic `"PSPCSHM1"` |
//! | 8         | 8      | `n` — vertex count (`u64`, must fit `u32`) |
//! | 16        | 8      | `m` — total label entries (`u64`) |
//! | 24        | 8      | `flags` (`u64`; bit 0 = weights array present) |
//! | 32        | 8      | `s` — shard count (`u64`, ≥ 1) |
//! | 40        | 8      | target payload bytes per shard (informational) |
//! | 48        | 32·s   | shard table: `start_rank`, `end_rank` (exclusive), `entries`, `file_bytes` — four `u64` per shard |
//! | 48 + 32·s | n·8    | `weights` (`u64`), only if flag bit 0 |
//! | —         | n·4    | `order` (`u32`, `order[rank] = vertex`) |
//!
//! Shard ranges must tile `0..n` contiguously in rank order, and the
//! per-shard `entries`/`file_bytes` must agree with the shard files.
//!
//! **Shard file** (`<path>.NNNN`, 4-digit shard index, magic
//! `"PSPCSHD1"`) — one rank range's rows of the label arena, offsets
//! rebased to start at 0, header 72 bytes (a multiple of 8, so every
//! section is naturally aligned in a page-aligned mapping exactly like
//! v2):
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 8    | magic `"PSPCSHD1"` |
//! | 8      | 8    | shard index (`u64`, cross-checked with the manifest) |
//! | 16     | 8    | `start_rank` (`u64`) |
//! | 24     | 8    | `end_rank` (`u64`, exclusive; `nr = end - start`) |
//! | 32     | 8    | `entries` — label entries in this shard (`u64`) |
//! | 40     | 32   | section table: four `u64` byte lengths |
//! | 72     | —    | sections: `offsets` (`u64`, `(nr+1)·8`), `counts` (`u64`, `entries·8`), `hubs` (`u32`, `entries·4`), `dists` (`u16`, `entries·2`) |

use crate::directed::DiSpcIndex;
use crate::dynamic::DynamicDistanceIndex;
use crate::label::{IndexStats, LabelArena, LabelEntry, LabelSet, SpcIndex};
use bytes::{Buf, BufMut, BytesMut};
// Re-exported so downstream users of the snapshot API don't need a direct
// `bytes` dependency.
pub use bytes::Bytes;
use pspc_order::VertexOrder;
use std::io;

pub(crate) const MAGIC_V1: &[u8; 8] = b"PSPCIDX1";
pub(crate) const MAGIC_V2: &[u8; 8] = b"PSPCIDX2";
pub(crate) const MAGIC_DIR: &[u8; 8] = b"PSPCDIR2";
pub(crate) const MAGIC_DYN: &[u8; 8] = b"PSPCDYN2";
/// Magic of the sharded-snapshot manifest (see [`crate::shard`]).
pub(crate) const MAGIC_SHARD_MANIFEST: &[u8; 8] = b"PSPCSHM1";
/// Magic of a single shard file (see [`crate::shard`]).
pub(crate) const MAGIC_SHARD_FILE: &[u8; 8] = b"PSPCSHD1";
/// Bytes before the first v2 section: magic + n + m + flags + 6 lengths.
const V2_HEADER_BYTES: usize = 8 + 8 + 8 + 8 + 6 * 8;
/// Directed header: magic + n + m_in + m_out + flags + 9 lengths.
const DIR_HEADER_BYTES: usize = 8 + 8 + 8 + 8 + 8 + 9 * 8;
/// Dynamic header: magic + n + m + a + flags + 6 lengths.
const DYN_HEADER_BYTES: usize = 8 + 8 + 8 + 8 + 8 + 6 * 8;

pub(crate) fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Checked narrowing of an untrusted snapshot length to `usize`: a value
/// that does not fit the host address space is a parse error, never a
/// silent `as` truncation (the bug this guards against only bites on
/// 32-bit hosts, but the zero-copy loader turns any mis-slice into an
/// out-of-bounds view, so *every* narrowing goes through here).
pub(crate) fn checked_len(v: u128, what: &str) -> io::Result<usize> {
    usize::try_from(v).map_err(|_| bad(&format!("{what} exceeds the host address space")))
}

/// Reads the little-endian `u64` at byte offset `at` (caller has bounds-
/// checked `data.len()` against the fixed header size).
fn u64_at(data: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(data[at..at + 8].try_into().unwrap())
}

// ----------------------------------------------------------- header layout
//
// The copying readers and the zero-copy mapped loader share these layout
// parsers, so the length/alignment/bounds discipline is enforced in
// exactly one place per format.

/// Validated layout of a v2 (`PSPCIDX2`) snapshot: header counts plus the
/// byte offset and length of each of the six sections.
pub(crate) struct V2Layout {
    /// Vertex count (fits `u32` rank space).
    #[allow(dead_code)]
    pub n: usize,
    /// Total label entries.
    #[allow(dead_code)]
    pub m: usize,
    /// Whether section 1 (weights) is present.
    pub has_weights: bool,
    /// `(byte offset, byte length)` per section, in file order.
    pub sections: [(usize, usize); 6],
}

/// Parses and fully validates a v2 header + section table against
/// `data.len()`: magic, flags, rank-space fit, per-section lengths
/// recomputed from `(n, m, flags)` in `u128`, checked `usize` narrowing,
/// and the exact-total-length rule (no truncation, no trailing bytes).
pub(crate) fn parse_v2_layout(data: &[u8]) -> io::Result<V2Layout> {
    if data.len() < 8 || &data[..8] != MAGIC_V2 {
        return Err(bad("not a v2 PSPC snapshot"));
    }
    if data.len() < V2_HEADER_BYTES {
        return Err(bad("truncated v2 header"));
    }
    let n64 = u64_at(data, 8);
    let m64 = u64_at(data, 16);
    let flags = u64_at(data, 24);
    if flags > 1 {
        return Err(bad("unknown v2 flags"));
    }
    if n64 > u32::MAX as u64 + 1 {
        return Err(bad("vertex count exceeds rank space"));
    }
    let has_weights = flags & 1 == 1;
    // Expected section lengths from (n, m, flags) in u128: a corrupt
    // header can claim any counts, and the arithmetic must not overflow.
    let (n, m) = (n64 as u128, m64 as u128);
    let expect: [u128; 6] = [
        (n + 1) * 8,
        if has_weights { n * 8 } else { 0 },
        m * 8,
        n * 4,
        m * 4,
        m * 2,
    ];
    let mut total = V2_HEADER_BYTES as u128;
    let mut sections = [(0usize, 0usize); 6];
    let mut at = V2_HEADER_BYTES;
    for (i, &want) in expect.iter().enumerate() {
        if u64_at(data, 32 + 8 * i) as u128 != want {
            return Err(bad(&format!("section {i} length disagrees with header")));
        }
        let len = checked_len(want, "section length")?;
        sections[i] = (at, len);
        at = at
            .checked_add(len)
            .ok_or_else(|| bad("section end overflows the host address space"))?;
        total += want;
    }
    if data.len() as u128 != total {
        return Err(bad(if (data.len() as u128) < total {
            "truncated v2 section data"
        } else {
            "trailing bytes after v2 sections"
        }));
    }
    Ok(V2Layout {
        n: checked_len(n, "vertex count")?,
        m: checked_len(m, "entry count")?,
        has_weights,
        sections,
    })
}

/// Validated layout of a directed (`PSPCDIR2`) snapshot.
pub(crate) struct DirLayout {
    /// Vertex count (fits `u32` rank space).
    #[allow(dead_code)]
    pub n: usize,
    /// `(byte offset, byte length)` per section, in file order.
    pub sections: [(usize, usize); 9],
}

/// Directed analogue of [`parse_v2_layout`].
pub(crate) fn parse_dir_layout(data: &[u8]) -> io::Result<DirLayout> {
    if data.len() < 8 || &data[..8] != MAGIC_DIR {
        return Err(bad("not a directed PSPC snapshot"));
    }
    if data.len() < DIR_HEADER_BYTES {
        return Err(bad("truncated directed header"));
    }
    let n64 = u64_at(data, 8);
    let m_in64 = u64_at(data, 16);
    let m_out64 = u64_at(data, 24);
    if u64_at(data, 32) != 0 {
        return Err(bad("unknown directed flags"));
    }
    if n64 > u32::MAX as u64 + 1 {
        return Err(bad("vertex count exceeds rank space"));
    }
    let expect = dir_section_lengths(n64 as u128, m_in64 as u128, m_out64 as u128);
    let mut total = DIR_HEADER_BYTES as u128;
    let mut sections = [(0usize, 0usize); 9];
    let mut at = DIR_HEADER_BYTES;
    for (i, &want) in expect.iter().enumerate() {
        if u64_at(data, 40 + 8 * i) as u128 != want {
            return Err(bad(&format!("section {i} length disagrees with header")));
        }
        let len = checked_len(want, "section length")?;
        sections[i] = (at, len);
        at = at
            .checked_add(len)
            .ok_or_else(|| bad("section end overflows the host address space"))?;
        total += want;
    }
    if data.len() as u128 != total {
        return Err(bad(if (data.len() as u128) < total {
            "truncated directed section data"
        } else {
            "trailing bytes after directed sections"
        }));
    }
    Ok(DirLayout {
        n: checked_len(n64 as u128, "vertex count")?,
        sections,
    })
}

// ---------------------------------------------------------------- bulk I/O
//
// On little-endian targets (every supported deployment platform) the
// in-memory arrays already have the wire layout, so sections move with a
// single memcpy in each direction. The big-endian fallback converts per
// element; it exists for correctness, not speed.

macro_rules! bulk_codec {
    ($get:ident, $wr:ident, $ty:ty, $width:expr) => {
        /// Streams a whole section to any writer: one bulk write on
        /// little-endian targets (a `Vec<u8>` sink makes this the classic
        /// exact-size in-memory serialize; a `BufWriter<File>` makes it
        /// the streaming migrate path).
        pub(crate) fn $wr<W: io::Write>(w: &mut W, vals: &[$ty]) -> io::Result<()> {
            #[cfg(target_endian = "little")]
            // SAFETY: as above — an initialized $ty slice is readable as
            // bytes.
            return w.write_all(unsafe {
                std::slice::from_raw_parts(vals.as_ptr().cast::<u8>(), vals.len() * $width)
            });
            #[cfg(not(target_endian = "little"))]
            {
                for &v in vals {
                    w.write_all(&v.to_le_bytes())?;
                }
                Ok(())
            }
        }

        /// Decodes a whole section. `src.len()` must be a multiple of the
        /// element width (the caller has already validated section sizes).
        pub(crate) fn $get(src: &[u8]) -> Vec<$ty> {
            debug_assert_eq!(src.len() % $width, 0);
            let n = src.len() / $width;
            let mut v: Vec<$ty> = Vec::with_capacity(n);
            #[cfg(target_endian = "little")]
            // SAFETY: the destination allocation holds `n * $width` bytes,
            // the copy fills exactly that many, and every byte pattern is
            // a valid $ty.
            unsafe {
                std::ptr::copy_nonoverlapping(src.as_ptr(), v.as_mut_ptr().cast::<u8>(), src.len());
                v.set_len(n);
            }
            #[cfg(not(target_endian = "little"))]
            v.extend(
                src.chunks_exact($width)
                    .map(|c| <$ty>::from_le_bytes(c.try_into().unwrap())),
            );
            v
        }
    };
}

bulk_codec!(get_u64s, write_u64s, u64, 8);
bulk_codec!(get_u32s, write_u32s, u32, 4);
bulk_codec!(get_u16s, write_u16s, u16, 2);

// ---------------------------------------------------------------------- v2

/// Exact v2 snapshot size in bytes for `idx` — header plus the six
/// sections of the format spec ([module docs](self)).
pub fn snapshot_size(idx: &SpcIndex) -> usize {
    let n = idx.num_vertices();
    let m = idx.label_arena().num_entries();
    let weights = if idx.weights().is_some() { n * 8 } else { 0 };
    V2_HEADER_BYTES + (n + 1) * 8 + weights + m * 8 + n * 4 + m * 4 + m * 2
}

/// Serializes the index into a binary snapshot (format v2).
///
/// The output buffer is allocated at the exact final size up front
/// ([`snapshot_size`]) and filled with bulk section writes — no
/// reallocation, no per-entry encoding.
pub fn index_to_binary(idx: &SpcIndex) -> Bytes {
    let total = snapshot_size(idx);
    let mut buf: Vec<u8> = Vec::with_capacity(total);
    #[cfg(debug_assertions)]
    let initial_capacity = buf.capacity();
    write_index_to(&mut buf, idx).expect("writing to a Vec cannot fail");
    debug_assert_eq!(buf.len(), total, "v2 size accounting must be exact");
    #[cfg(debug_assertions)]
    debug_assert_eq!(
        buf.capacity(),
        initial_capacity,
        "v2 serialize must not reallocate"
    );
    Bytes::from(buf)
}

/// Streams the v2 snapshot of `idx` to any writer — same wire bytes as
/// [`index_to_binary`], but section by section, so callers like
/// `pspc migrate` never buffer a whole destination snapshot in memory.
/// Wrap `w` in a [`std::io::BufWriter`] when targeting a file.
pub fn write_index_to<W: io::Write>(w: &mut W, idx: &SpcIndex) -> io::Result<()> {
    let arena = idx.label_arena();
    let n = idx.num_vertices();
    let m = arena.num_entries();
    let mut hdr: Vec<u8> = Vec::with_capacity(V2_HEADER_BYTES);
    hdr.put_slice(MAGIC_V2);
    hdr.put_u64_le(n as u64);
    hdr.put_u64_le(m as u64);
    hdr.put_u64_le(u64::from(idx.weights().is_some()));
    // Section table.
    hdr.put_u64_le((n as u64 + 1) * 8);
    hdr.put_u64_le(if idx.weights().is_some() {
        n as u64 * 8
    } else {
        0
    });
    hdr.put_u64_le(m as u64 * 8);
    hdr.put_u64_le(n as u64 * 4);
    hdr.put_u64_le(m as u64 * 4);
    hdr.put_u64_le(m as u64 * 2);
    w.write_all(&hdr)?;
    // Sections, descending alignment.
    write_u64s(w, arena.offsets())?;
    if let Some(wt) = idx.weights() {
        write_u64s(w, wt)?;
    }
    write_u64s(w, arena.counts())?;
    write_u32s(w, idx.order().order())?;
    write_u32s(w, arena.hubs())?;
    write_u16s(w, arena.dists())?;
    Ok(())
}

fn index_from_binary_v2(data: Bytes) -> io::Result<SpcIndex> {
    // Shared with the zero-copy loader: all length validation and checked
    // usize narrowing happens in parse_v2_layout.
    let layout = parse_v2_layout(&data)?;
    let section = |i: usize| {
        let (lo, len) = layout.sections[i];
        data.slice(lo..lo + len)
    };
    let offsets = get_u64s(&section(0));
    let weights = layout.has_weights.then(|| get_u64s(&section(1)));
    let counts = get_u64s(&section(2));
    let order_vec = get_u32s(&section(3));
    let hubs = get_u32s(&section(4));
    let dists = get_u16s(&section(5));

    let order = validate_order(order_vec)?;
    let arena = LabelArena::from_raw(offsets, hubs, dists, counts)
        .map_err(|e| bad(&format!("bad label arena: {e}")))?;
    let idx = SpcIndex::from_arena(order, arena, weights, IndexStats::default());
    idx.validate()
        .map_err(|e| bad(&format!("snapshot fails validation: {e}")))?;
    Ok(idx)
}

/// Checks `order[rank] = vertex` is a permutation and wraps it.
pub(crate) fn validate_order(order: Vec<u32>) -> io::Result<VertexOrder> {
    let n = order.len();
    let mut seen = vec![false; n];
    for &v in &order {
        if (v as usize) >= n {
            return Err(bad("order entry out of range"));
        }
        if std::mem::replace(&mut seen[v as usize], true) {
            return Err(bad("order is not a permutation"));
        }
    }
    Ok(VertexOrder::from_order(order))
}

// ---------------------------------------------------------------------- v1

/// Serializes the index in the **legacy v1** per-entry format.
///
/// New snapshots should use [`index_to_binary`] (v2); this writer exists
/// so migration round-trips and the v1 reader stay testable against real
/// v1 bytes.
pub fn index_to_binary_v1(idx: &SpcIndex) -> Bytes {
    let n = idx.num_vertices();
    let m = idx.label_arena().num_entries();
    // Exact: magic + n + order + weights flag (+ weights) + per-rank
    // length prefix + 14-byte entries.
    let exact =
        8 + 8 + n * 4 + 1 + if idx.weights().is_some() { n * 8 } else { 0 } + n * 4 + m * 14;
    let mut buf = BytesMut::with_capacity(exact);
    buf.put_slice(MAGIC_V1);
    buf.put_u64_le(n as u64);
    for r in 0..n as u32 {
        buf.put_u32_le(idx.order().vertex_at(r));
    }
    match idx.weights() {
        Some(w) => {
            buf.put_u8(1);
            for &x in w {
                buf.put_u64_le(x);
            }
        }
        None => buf.put_u8(0),
    }
    for ls in idx.label_arena().views() {
        buf.put_u32_le(ls.len() as u32);
        for e in ls.iter() {
            buf.put_u32_le(e.hub);
            buf.put_u16_le(e.dist);
            buf.put_u64_le(e.count);
        }
    }
    debug_assert_eq!(buf.len(), exact, "v1 size accounting must be exact");
    buf.freeze()
}

fn index_from_binary_v1(mut data: Bytes) -> io::Result<SpcIndex> {
    // This parser doubles as the catch-all for unknown bytes (see
    // index_from_binary), so its magic rejection must be crisp: a stray
    // config file or an empty/7-byte file gets "unrecognized snapshot",
    // never a panic or a misleading truncation message.
    if data.len() < 8 || &data[..8] != MAGIC_V1 {
        return Err(bad("unrecognized snapshot: not a PSPC index snapshot"));
    }
    if data.len() < 17 {
        return Err(bad("truncated v1 header"));
    }
    data.advance(8);
    let n = usize::try_from(data.get_u64_le())
        .map_err(|_| bad("v1 vertex count exceeds the address space"))?;
    // Saturating arithmetic: a corrupt header can claim any vertex count,
    // and the size check must reject it rather than overflow.
    if data.remaining() < n.saturating_mul(4).saturating_add(1) {
        return Err(bad("truncated order section"));
    }
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        order.push(data.get_u32_le());
    }
    let order = validate_order(order)?;
    let weights = match data.get_u8() {
        0 => None,
        1 => {
            if data.remaining() < n.saturating_mul(8) {
                return Err(bad("truncated weights section"));
            }
            Some((0..n).map(|_| data.get_u64_le()).collect::<Vec<_>>())
        }
        _ => return Err(bad("bad weights flag")),
    };
    let mut labels = Vec::with_capacity(n);
    for r in 0..n as u32 {
        if data.remaining() < 4 {
            return Err(bad("truncated label header"));
        }
        let k = usize::try_from(data.get_u32_le())
            .map_err(|_| bad("v1 label count exceeds the address space"))?;
        if data.remaining() < k.saturating_mul(14) {
            return Err(bad("truncated label entries"));
        }
        let mut entries = Vec::with_capacity(k);
        for _ in 0..k {
            let hub = data.get_u32_le();
            let dist = data.get_u16_le();
            let count = data.get_u64_le();
            if hub > r {
                return Err(bad("hub ranked below owner"));
            }
            entries.push(LabelEntry { hub, dist, count });
        }
        // Reject duplicate hubs here: LabelSet::from_entries asserts on
        // them, and corrupt input must error rather than panic.
        let mut hubs: Vec<u32> = entries.iter().map(|e| e.hub).collect();
        hubs.sort_unstable();
        if hubs.windows(2).any(|w| w[0] == w[1]) {
            return Err(bad("duplicate hub in label set"));
        }
        labels.push(LabelSet::from_entries(entries));
    }
    let idx = SpcIndex::new(order, labels, weights, IndexStats::default());
    idx.validate()
        .map_err(|e| bad(&format!("snapshot fails validation: {e}")))?;
    Ok(idx)
}

/// Deserializes an **undirected** snapshot in either format, dispatching
/// on the magic: current v2 files take the bulk-section load path, legacy
/// v1 files the per-entry parse. Directed/dynamic snapshots are refused
/// with a pointer to [`any_index_from_binary`].
pub fn index_from_binary(data: Bytes) -> io::Result<SpcIndex> {
    if data.len() >= 8 && &data[..8] == MAGIC_V2 {
        index_from_binary_v2(data)
    } else if data.len() >= 8 && (&data[..8] == MAGIC_DIR || &data[..8] == MAGIC_DYN) {
        Err(bad(
            "snapshot holds a directed/dynamic index; load it with any_index_from_binary",
        ))
    } else {
        index_from_binary_v1(data)
    }
}

// ---------------------------------------------------------------- directed

/// Exact `PSPCDIR2` snapshot size in bytes for `idx`. Derived from
/// [`dir_section_lengths`] so the size and the writer cannot drift.
pub fn di_snapshot_size(idx: &DiSpcIndex) -> usize {
    let n = idx.num_vertices() as u128;
    let m_in = idx.lin_arena().num_entries() as u128;
    let m_out = idx.lout_arena().num_entries() as u128;
    let sections: u128 = dir_section_lengths(n, m_in, m_out).iter().sum();
    // The index is already resident, so its snapshot size fits usize.
    DIR_HEADER_BYTES + usize::try_from(sections).expect("in-memory index snapshot size")
}

/// Serializes a directed index as a `PSPCDIR2` snapshot (exact-size
/// single allocation, bulk section writes — see the [module docs](self)
/// for the layout).
pub fn di_index_to_binary(idx: &DiSpcIndex) -> Bytes {
    let total = di_snapshot_size(idx);
    let mut buf: Vec<u8> = Vec::with_capacity(total);
    write_di_index_to(&mut buf, idx).expect("writing to a Vec cannot fail");
    debug_assert_eq!(buf.len(), total, "directed size accounting must be exact");
    Bytes::from(buf)
}

/// Streams the `PSPCDIR2` snapshot of `idx` to any writer (same wire
/// bytes as [`di_index_to_binary`]; see [`write_index_to`]).
pub fn write_di_index_to<W: io::Write>(w: &mut W, idx: &DiSpcIndex) -> io::Result<()> {
    let (lin, lout) = (idx.lin_arena(), idx.lout_arena());
    let n = idx.num_vertices();
    let (m_in, m_out) = (lin.num_entries(), lout.num_entries());
    let mut hdr: Vec<u8> = Vec::with_capacity(DIR_HEADER_BYTES);
    hdr.put_slice(MAGIC_DIR);
    hdr.put_u64_le(n as u64);
    hdr.put_u64_le(m_in as u64);
    hdr.put_u64_le(m_out as u64);
    hdr.put_u64_le(0); // flags
    for len in dir_section_lengths(n as u128, m_in as u128, m_out as u128) {
        hdr.put_u64_le(len as u64);
    }
    w.write_all(&hdr)?;
    write_u64s(w, lin.offsets())?;
    write_u64s(w, lout.offsets())?;
    write_u64s(w, lin.counts())?;
    write_u64s(w, lout.counts())?;
    write_u32s(w, idx.order().order())?;
    write_u32s(w, lin.hubs())?;
    write_u32s(w, lout.hubs())?;
    write_u16s(w, lin.dists())?;
    write_u16s(w, lout.dists())?;
    Ok(())
}

/// The nine `PSPCDIR2` section lengths determined by `(n, m_in, m_out)`,
/// in file order (u128 so corrupt header counts cannot overflow checks).
fn dir_section_lengths(n: u128, m_in: u128, m_out: u128) -> [u128; 9] {
    [
        (n + 1) * 8,
        (n + 1) * 8,
        m_in * 8,
        m_out * 8,
        n * 4,
        m_in * 4,
        m_out * 4,
        m_in * 2,
        m_out * 2,
    ]
}

/// Deserializes a `PSPCDIR2` snapshot.
pub fn di_index_from_binary(data: Bytes) -> io::Result<DiSpcIndex> {
    // Shared with the zero-copy loader: all length validation and checked
    // usize narrowing happens in parse_dir_layout.
    let layout = parse_dir_layout(&data)?;
    let section = |i: usize| {
        let (lo, len) = layout.sections[i];
        data.slice(lo..lo + len)
    };
    let offsets_in = get_u64s(&section(0));
    let offsets_out = get_u64s(&section(1));
    let counts_in = get_u64s(&section(2));
    let counts_out = get_u64s(&section(3));
    let order_vec = get_u32s(&section(4));
    let hubs_in = get_u32s(&section(5));
    let hubs_out = get_u32s(&section(6));
    let dists_in = get_u16s(&section(7));
    let dists_out = get_u16s(&section(8));

    let order = validate_order(order_vec)?;
    let lin = LabelArena::from_raw(offsets_in, hubs_in, dists_in, counts_in)
        .map_err(|e| bad(&format!("bad in-label arena: {e}")))?;
    let lout = LabelArena::from_raw(offsets_out, hubs_out, dists_out, counts_out)
        .map_err(|e| bad(&format!("bad out-label arena: {e}")))?;
    if lin.num_vertices() != order.len() || lout.num_vertices() != order.len() {
        return Err(bad("label row counts disagree with the order"));
    }
    let idx = DiSpcIndex::from_arenas(order, lin, lout, IndexStats::default());
    idx.validate()
        .map_err(|e| bad(&format!("snapshot fails validation: {e}")))?;
    Ok(idx)
}

// ----------------------------------------------------------------- dynamic

/// Exact `PSPCDYN2` snapshot size in bytes for `idx`. Derived from
/// [`dyn_section_lengths`] so the size and the writer cannot drift.
pub fn dyn_snapshot_size(idx: &DynamicDistanceIndex) -> usize {
    let n = idx.num_vertices() as u128;
    let m = idx.num_entries() as u128;
    let a = 2 * idx.num_edges() as u128;
    let sections: u128 = dyn_section_lengths(n, m, a).iter().sum();
    // The index is already resident, so its snapshot size fits usize.
    DYN_HEADER_BYTES + usize::try_from(sections).expect("in-memory index snapshot size")
}

/// The six `PSPCDYN2` section lengths determined by `(n, m, a)`.
fn dyn_section_lengths(n: u128, m: u128, a: u128) -> [u128; 6] {
    [(n + 1) * 8, (n + 1) * 8, n * 4, a * 4, m * 4, m * 2]
}

/// Serializes a dynamic distance index as a `PSPCDYN2` snapshot. The
/// per-row adjacency and label vectors are flattened to CSR on the way
/// out; `updated_entries` is not persisted.
pub fn dyn_index_to_binary(idx: &DynamicDistanceIndex) -> Bytes {
    let total = dyn_snapshot_size(idx);
    let mut buf: Vec<u8> = Vec::with_capacity(total);
    write_dyn_index_to(&mut buf, idx).expect("writing to a Vec cannot fail");
    debug_assert_eq!(buf.len(), total, "dynamic size accounting must be exact");
    Bytes::from(buf)
}

/// Streams the `PSPCDYN2` snapshot of `idx` to any writer (same wire
/// bytes as [`dyn_index_to_binary`]; see [`write_index_to`]). The
/// per-row label sections are emitted element-wise, so wrap `w` in a
/// [`std::io::BufWriter`] when targeting a file.
pub fn write_dyn_index_to<W: io::Write>(w: &mut W, idx: &DynamicDistanceIndex) -> io::Result<()> {
    let n = idx.num_vertices();
    let m = idx.num_entries();
    let a = 2 * idx.num_edges();
    let mut hdr: Vec<u8> = Vec::with_capacity(DYN_HEADER_BYTES);
    hdr.put_slice(MAGIC_DYN);
    hdr.put_u64_le(n as u64);
    hdr.put_u64_le(m as u64);
    hdr.put_u64_le(a as u64);
    hdr.put_u64_le(0); // flags
    for len in dyn_section_lengths(n as u128, m as u128, a as u128) {
        hdr.put_u64_le(len as u64);
    }
    w.write_all(&hdr)?;
    let mut adj_offsets: Vec<u64> = Vec::with_capacity(n + 1);
    let mut lab_offsets: Vec<u64> = Vec::with_capacity(n + 1);
    adj_offsets.push(0);
    lab_offsets.push(0);
    let (mut at_a, mut at_m) = (0u64, 0u64);
    for r in 0..n as u32 {
        at_a += idx.adj_of_rank(r).len() as u64;
        at_m += idx.labels_of_rank(r).len() as u64;
        adj_offsets.push(at_a);
        lab_offsets.push(at_m);
    }
    write_u64s(w, &adj_offsets)?;
    write_u64s(w, &lab_offsets)?;
    write_u32s(w, idx.order().order())?;
    for r in 0..n as u32 {
        write_u32s(w, idx.adj_of_rank(r))?;
    }
    for r in 0..n as u32 {
        for &(h, _) in idx.labels_of_rank(r) {
            w.write_all(&h.to_le_bytes())?;
        }
    }
    for r in 0..n as u32 {
        for &(_, d) in idx.labels_of_rank(r) {
            w.write_all(&d.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Deserializes a `PSPCDYN2` snapshot.
pub fn dyn_index_from_binary(data: Bytes) -> io::Result<DynamicDistanceIndex> {
    if data.len() < 8 || &data[..8] != MAGIC_DYN {
        return Err(bad("not a dynamic PSPC snapshot"));
    }
    if data.len() < DYN_HEADER_BYTES {
        return Err(bad("truncated dynamic header"));
    }
    let mut hdr = data.slice(8..DYN_HEADER_BYTES);
    let n64 = hdr.get_u64_le();
    let m64 = hdr.get_u64_le();
    let a64 = hdr.get_u64_le();
    if hdr.get_u64_le() != 0 {
        return Err(bad("unknown dynamic flags"));
    }
    if n64 > u32::MAX as u64 + 1 {
        return Err(bad("vertex count exceeds rank space"));
    }
    let expect = dyn_section_lengths(n64 as u128, m64 as u128, a64 as u128);
    let mut total = DYN_HEADER_BYTES as u128;
    for (i, &want) in expect.iter().enumerate() {
        if hdr.get_u64_le() as u128 != want {
            return Err(bad(&format!("section {i} length disagrees with header")));
        }
        total += want;
    }
    if data.len() as u128 != total {
        return Err(bad(if (data.len() as u128) < total {
            "truncated dynamic section data"
        } else {
            "trailing bytes after dynamic sections"
        }));
    }
    let mut at = DYN_HEADER_BYTES;
    let mut section = |len: u128| -> io::Result<Bytes> {
        let len = checked_len(len, "section length")?;
        let lo = at;
        at = lo
            .checked_add(len)
            .ok_or_else(|| bad("section end overflows the host address space"))?;
        Ok(data.slice(lo..at))
    };
    let adj_offsets = get_u64s(&section(expect[0])?);
    let lab_offsets = get_u64s(&section(expect[1])?);
    let order_vec = get_u32s(&section(expect[2])?);
    let adj_flat = get_u32s(&section(expect[3])?);
    let hubs = get_u32s(&section(expect[4])?);
    let dists = get_u16s(&section(expect[5])?);

    let order = validate_order(order_vec)?;
    let rows = |offsets: &[u64], total: usize, what: &str| -> io::Result<Vec<(usize, usize)>> {
        match (offsets.first(), offsets.last()) {
            (Some(&0), Some(&last)) if last == total as u64 => {}
            _ => {
                return Err(bad(&format!(
                    "{what} offsets must start at 0 and end at the entry count"
                )))
            }
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(bad(&format!("{what} offsets not monotonic")));
        }
        Ok(offsets
            .windows(2)
            .map(|w| (w[0] as usize, w[1] as usize))
            .collect())
    };
    let adj: Vec<Vec<u32>> = rows(&adj_offsets, adj_flat.len(), "adjacency")?
        .into_iter()
        .map(|(lo, hi)| adj_flat[lo..hi].to_vec())
        .collect();
    let labels: Vec<Vec<(u32, u16)>> = rows(&lab_offsets, hubs.len(), "label")?
        .into_iter()
        .map(|(lo, hi)| (lo..hi).map(|i| (hubs[i], dists[i])).collect())
        .collect();
    DynamicDistanceIndex::from_raw(order, adj, labels)
        .map_err(|e| bad(&format!("snapshot fails validation: {e}")))
}

// ---------------------------------------------------------- kind dispatch

/// A deserialized snapshot of any index kind.
#[derive(Clone, Debug)]
pub enum SnapshotKind {
    /// The undirected ESPC counting index (`PSPCIDX1`/`PSPCIDX2`).
    Undirected(SpcIndex),
    /// The directed `Lin`/`Lout` counting index (`PSPCDIR2`).
    Directed(DiSpcIndex),
    /// The insertion-only dynamic distance index (`PSPCDYN2`).
    Dynamic(DynamicDistanceIndex),
}

impl SnapshotKind {
    /// Human-readable kind name (matches [`snapshot_kind_name`]).
    pub fn name(&self) -> &'static str {
        match self {
            SnapshotKind::Undirected(_) => "undirected",
            SnapshotKind::Directed(_) => "directed",
            SnapshotKind::Dynamic(_) => "dynamic",
        }
    }

    /// Number of vertices covered.
    pub fn num_vertices(&self) -> usize {
        match self {
            SnapshotKind::Undirected(i) => i.num_vertices(),
            SnapshotKind::Directed(i) => i.num_vertices(),
            SnapshotKind::Dynamic(i) => i.num_vertices(),
        }
    }
}

/// Classifies a snapshot's index kind from its first eight bytes without
/// parsing anything; `None` if the magic is unknown.
pub fn snapshot_kind_name(data: &[u8]) -> Option<&'static str> {
    if data.len() < 8 {
        return None;
    }
    match &data[..8] {
        m if m == MAGIC_V1 || m == MAGIC_V2 => Some("undirected"),
        m if m == MAGIC_DIR => Some("directed"),
        m if m == MAGIC_DYN => Some("dynamic"),
        m if m == MAGIC_SHARD_MANIFEST => Some("sharded"),
        _ => None,
    }
}

/// Deserializes a snapshot of **any** index kind, dispatching on the
/// magic. This is what `pspc query`/`pspc serve` load with, so one
/// daemon binary serves whichever kind the snapshot holds.
pub fn any_index_from_binary(data: Bytes) -> io::Result<SnapshotKind> {
    match snapshot_kind_name(&data) {
        Some("directed") => di_index_from_binary(data).map(SnapshotKind::Directed),
        Some("dynamic") => dyn_index_from_binary(data).map(SnapshotKind::Dynamic),
        // A sharded manifest references sibling shard files, so it cannot
        // be loaded from one byte buffer; callers go through crate::shard.
        Some("sharded") => Err(bad(
            "sharded snapshot manifest; load it with shard::open_sharded or shard::sharded_to_owned",
        )),
        // Undirected formats (and anything unrecognized, so the error
        // message comes from the v1 parser as before).
        _ => index_from_binary(data).map(SnapshotKind::Undirected),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_pspc, PspcConfig};
    use pspc_graph::generators::barabasi_albert;

    fn build(n: usize, seed: u64) -> SpcIndex {
        let g = barabasi_albert(n, 2, seed);
        build_pspc(&g, &PspcConfig::default()).0
    }

    fn build_weighted(n: usize, seed: u64) -> SpcIndex {
        use crate::builder::build_pspc_with_order;
        use pspc_order::OrderingStrategy;
        let g = barabasi_albert(n, 2, seed);
        let w: Vec<u64> = (0..n as u64).map(|i| 1 + i % 4).collect();
        let o = OrderingStrategy::Degree.compute(&g);
        build_pspc_with_order(&g, o, Some(&w), &PspcConfig::default()).0
    }

    #[test]
    fn round_trip_preserves_queries() {
        let idx = build(120, 13);
        let restored = index_from_binary(index_to_binary(&idx)).unwrap();
        assert_eq!(idx.order(), restored.order());
        assert_eq!(idx.label_arena(), restored.label_arena());
        for (s, t) in [(0u32, 119u32), (3, 99), (50, 51)] {
            assert_eq!(idx.query(s, t), restored.query(s, t));
        }
    }

    #[test]
    fn round_trip_weighted() {
        let idx = build_weighted(40, 1);
        let restored = index_from_binary(index_to_binary(&idx)).unwrap();
        assert_eq!(idx.weights(), restored.weights());
        assert_eq!(idx.query(7, 31), restored.query(7, 31));
    }

    #[test]
    fn v1_round_trip_and_cross_format_equality() {
        for idx in [build(80, 7), build_weighted(48, 3)] {
            let from_v1 = index_from_binary(index_to_binary_v1(&idx)).unwrap();
            let from_v2 = index_from_binary(index_to_binary(&idx)).unwrap();
            assert_eq!(from_v1, from_v2, "formats must load identical indexes");
            assert_eq!(idx.order(), from_v1.order());
            assert_eq!(idx.label_arena(), from_v1.label_arena());
            assert_eq!(idx.weights(), from_v1.weights());
        }
    }

    #[test]
    fn v2_size_is_exact() {
        for idx in [build(60, 4), build_weighted(36, 9)] {
            let bytes = index_to_binary(&idx);
            assert_eq!(bytes.len(), snapshot_size(&idx));
        }
    }

    #[test]
    fn rejects_corruption() {
        let idx = build(30, 2);
        let bin = index_to_binary(&idx);
        assert!(index_from_binary(bin.slice(..16)).is_err());
        let mut tampered = bin.to_vec();
        tampered[3] = b'!';
        assert!(index_from_binary(Bytes::from(tampered)).is_err());
        // Truncate mid-sections.
        assert!(index_from_binary(bin.slice(..bin.len() - 5)).is_err());
        // Trailing junk is rejected too (v2 is exact-length).
        let mut extended = bin.to_vec();
        extended.push(0);
        assert!(index_from_binary(Bytes::from(extended)).is_err());
    }

    #[test]
    fn every_truncation_errors_without_panic_both_formats() {
        let idx = build_weighted(40, 5);
        for bin in [index_to_binary(&idx), index_to_binary_v1(&idx)] {
            // Every strict prefix must be rejected with an error — no
            // length may panic or be accepted as a shorter valid snapshot.
            for len in 0..bin.len() {
                assert!(
                    index_from_binary(bin.slice(..len)).is_err(),
                    "prefix of {len} bytes accepted"
                );
            }
            assert!(index_from_binary(bin).is_ok());
        }
    }

    #[test]
    fn huge_header_counts_error_not_panic() {
        // A corrupt vertex count near usize::MAX must not overflow the
        // size checks or trigger a giant allocation — in either format.
        for magic in [MAGIC_V1, MAGIC_V2] {
            let mut buf = bytes::BytesMut::new();
            buf.put_slice(magic);
            buf.put_u64_le(u64::MAX);
            buf.put_u8(0);
            assert!(index_from_binary(buf.freeze()).is_err());
        }
        // A v2 header whose section table overflows any usize arithmetic.
        let mut buf = bytes::BytesMut::new();
        buf.put_slice(MAGIC_V2);
        buf.put_u64_le(u32::MAX as u64); // n
        buf.put_u64_le(u64::MAX / 2); // m
        buf.put_u64_le(0); // flags
        for _ in 0..6 {
            buf.put_u64_le(u64::MAX);
        }
        assert!(index_from_binary(buf.freeze()).is_err());
    }

    #[test]
    fn v2_rejects_bad_flags_and_section_lengths() {
        let idx = build(20, 6);
        let good = index_to_binary(&idx).to_vec();
        // Unknown flag bit.
        let mut tampered = good.clone();
        tampered[24] = 2;
        assert!(index_from_binary(Bytes::from(tampered)).is_err());
        // Section-table entry disagreeing with (n, m, flags).
        let mut tampered = good.clone();
        tampered[32] ^= 0xFF;
        assert!(index_from_binary(Bytes::from(tampered)).is_err());
        // Vertex count past rank space.
        let mut tampered = good;
        tampered[8..16].copy_from_slice(&(u32::MAX as u64 + 2).to_le_bytes());
        assert!(index_from_binary(Bytes::from(tampered)).is_err());
    }

    #[test]
    fn four_gib_boundary_lengths_error_not_panic() {
        // Byte-flip the entry count to values straddling the 4 GiB
        // (`u32`) boundary. On 32-bit hosts `usize::try_from` must
        // reject the section lengths; on 64-bit hosts the declared
        // sections dwarf `data.len()` and the exact-total check fires.
        // Either way: clean parse error, no panic, no giant allocation.
        let idx = build(20, 9);
        let good = index_to_binary(&idx).to_vec();
        for m in [(1u64 << 32) - 1, 1 << 32, (1 << 32) + 1, u64::MAX / 8] {
            // Entry count alone disagrees with the section table.
            let mut tampered = good.clone();
            tampered[16..24].copy_from_slice(&m.to_le_bytes());
            assert!(
                index_from_binary(Bytes::from(tampered)).is_err(),
                "m = {m} accepted"
            );
            // Entry count AND the dependent table entries patched to
            // agree, exercising the checked-conversion path itself
            // (counts = m*8 @48, hubs = m*4 @64, dists = m*2 @72).
            let mut tampered = good.clone();
            tampered[16..24].copy_from_slice(&m.to_le_bytes());
            tampered[48..56].copy_from_slice(&(m.wrapping_mul(8)).to_le_bytes());
            tampered[64..72].copy_from_slice(&(m.wrapping_mul(4)).to_le_bytes());
            tampered[72..80].copy_from_slice(&(m.wrapping_mul(2)).to_le_bytes());
            assert!(
                index_from_binary(Bytes::from(tampered)).is_err(),
                "consistent m = {m} accepted"
            );
        }
        // Same discipline on the directed format: flip its entry count
        // (m @16) across the boundary.
        let dgood = di_index_to_binary(&build_directed(24, 7)).to_vec();
        for m in [(1u64 << 32) - 1, 1 << 32, (1 << 32) + 1] {
            let mut tampered = dgood.clone();
            tampered[16..24].copy_from_slice(&m.to_le_bytes());
            assert!(
                di_index_from_binary(Bytes::from(tampered)).is_err(),
                "directed m = {m} accepted"
            );
        }
    }

    #[test]
    fn checked_len_rejects_address_space_overflow() {
        // Lengths past the host address space must produce the crisp
        // error, not wrap. `1 << 64` exceeds usize on every host.
        assert!(checked_len(1u128 << 64, "test length").is_err());
        assert!(checked_len(u128::MAX, "test length").is_err());
        assert_eq!(checked_len(4096, "test length").unwrap(), 4096);
    }

    #[test]
    fn v2_rejects_bad_offsets() {
        let idx = build(20, 8);
        let good = index_to_binary(&idx).to_vec();
        // First offset must be 0.
        let mut tampered = good.clone();
        tampered[V2_HEADER_BYTES..V2_HEADER_BYTES + 8].copy_from_slice(&1u64.to_le_bytes());
        assert!(index_from_binary(Bytes::from(tampered)).is_err());
        // Non-monotonic interior offset.
        let mut tampered = good;
        let second = V2_HEADER_BYTES + 8;
        tampered[second..second + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(index_from_binary(Bytes::from(tampered)).is_err());
    }

    #[test]
    fn huge_label_count_errors_not_panic() {
        // Valid empty-ish v1 snapshot whose first label set claims
        // u32::MAX entries.
        let mut buf = bytes::BytesMut::new();
        buf.put_slice(MAGIC_V1);
        buf.put_u64_le(1);
        buf.put_u32_le(0); // order: single vertex 0
        buf.put_u8(0); // no weights
        buf.put_u32_le(u32::MAX); // label count for rank 0
        assert!(index_from_binary(buf.freeze()).is_err());
    }

    #[test]
    fn bad_weights_flag_errors() {
        let mut buf = bytes::BytesMut::new();
        buf.put_slice(MAGIC_V1);
        buf.put_u64_le(1);
        buf.put_u32_le(0);
        buf.put_u8(9); // flag must be 0 or 1
        assert!(index_from_binary(buf.freeze()).is_err());
    }

    #[test]
    fn duplicate_hub_errors_not_panic() {
        // Two entries for the same hub pass the hub <= rank check but
        // would trip LabelSet::from_entries' assert; must error instead.
        let mut buf = bytes::BytesMut::new();
        buf.put_slice(MAGIC_V1);
        buf.put_u64_le(1);
        buf.put_u32_le(0); // order: single vertex 0
        buf.put_u8(0); // no weights
        buf.put_u32_le(2); // rank 0: two entries, both hub 0
        for _ in 0..2 {
            buf.put_u32_le(0);
            buf.put_u16_le(0);
            buf.put_u64_le(1);
        }
        assert!(index_from_binary(buf.freeze()).is_err());
    }

    #[test]
    fn hub_ranked_below_owner_errors() {
        let mut buf = bytes::BytesMut::new();
        buf.put_slice(MAGIC_V1);
        buf.put_u64_le(2);
        buf.put_u32_le(0);
        buf.put_u32_le(1);
        buf.put_u8(0);
        // Rank 0's label set claims hub 1 — above its owner.
        buf.put_u32_le(1);
        buf.put_u32_le(1);
        buf.put_u16_le(0);
        buf.put_u64_le(1);
        assert!(index_from_binary(buf.freeze()).is_err());
    }

    fn build_directed(n: usize, seed: u64) -> DiSpcIndex {
        use crate::directed::pspc::{build_di_pspc, DiPspcConfig};
        let g = pspc_graph::digraph::erdos_renyi_digraph(n, 4 * n, seed);
        build_di_pspc(&g, &DiPspcConfig::default())
    }

    fn build_dynamic(n: usize, seed: u64) -> DynamicDistanceIndex {
        use pspc_order::OrderingStrategy;
        let g = pspc_graph::generators::erdos_renyi(n, 2 * n, seed);
        let mut idx = DynamicDistanceIndex::build(&g, OrderingStrategy::Degree);
        idx.insert_edge(0, (n - 1) as u32);
        idx
    }

    #[test]
    fn directed_round_trip_preserves_queries() {
        let idx = build_directed(60, 3);
        let bytes = di_index_to_binary(&idx);
        assert_eq!(bytes.len(), di_snapshot_size(&idx));
        let restored = di_index_from_binary(bytes).unwrap();
        assert_eq!(idx.order(), restored.order());
        assert_eq!(idx.lin_arena(), restored.lin_arena());
        assert_eq!(idx.lout_arena(), restored.lout_arena());
        for (s, t) in [(0u32, 59u32), (7, 33), (12, 12), (59, 0)] {
            assert_eq!(idx.query(s, t), restored.query(s, t));
        }
    }

    #[test]
    fn dynamic_round_trip_preserves_distances() {
        let idx = build_dynamic(40, 9);
        let bytes = dyn_index_to_binary(&idx);
        assert_eq!(bytes.len(), dyn_snapshot_size(&idx));
        let restored = dyn_index_from_binary(bytes).unwrap();
        assert_eq!(idx.order(), restored.order());
        for s in 0..40u32 {
            for t in 0..40u32 {
                assert_eq!(idx.distance(s, t), restored.distance(s, t), "({s},{t})");
            }
        }
        // The restored index keeps accepting insertions.
        let mut restored = restored;
        restored.insert_edge(1, 38);
        assert_eq!(restored.distance(1, 38), Some(1));
    }

    #[test]
    fn kind_detection_and_any_dispatch() {
        let und = build(30, 1);
        let dir = build_directed(30, 1);
        let dynix = build_dynamic(30, 1);
        for (bytes, want) in [
            (index_to_binary(&und), "undirected"),
            (index_to_binary_v1(&und), "undirected"),
            (di_index_to_binary(&dir), "directed"),
            (dyn_index_to_binary(&dynix), "dynamic"),
        ] {
            assert_eq!(snapshot_kind_name(&bytes), Some(want));
            let loaded = any_index_from_binary(bytes).unwrap();
            assert_eq!(loaded.name(), want);
            assert_eq!(loaded.num_vertices(), 30);
        }
        assert_eq!(snapshot_kind_name(b"PSPC"), None);
        assert_eq!(snapshot_kind_name(b"XXXXXXXXXXXX"), None);
    }

    #[test]
    fn undirected_loader_refuses_other_kinds() {
        let dir = di_index_to_binary(&build_directed(20, 5));
        let err = index_from_binary(dir).unwrap_err();
        assert!(err.to_string().contains("any_index_from_binary"), "{err}");
        let dynix = dyn_index_to_binary(&build_dynamic(20, 5));
        assert!(index_from_binary(dynix).is_err());
    }

    #[test]
    fn directed_and_dynamic_truncations_error_not_panic() {
        let dir = di_index_to_binary(&build_directed(24, 2));
        let dynix = dyn_index_to_binary(&build_dynamic(24, 2));
        for bin in [dir, dynix] {
            for len in 0..bin.len().min(200) {
                assert!(any_index_from_binary(bin.slice(..len)).is_err());
            }
            // Every section-boundary-ish cut further in.
            for len in (200..bin.len()).step_by(97) {
                assert!(any_index_from_binary(bin.slice(..len)).is_err());
            }
            let mut extended = bin.to_vec();
            extended.push(0);
            assert!(any_index_from_binary(Bytes::from(extended)).is_err());
            assert!(any_index_from_binary(bin).is_ok());
        }
    }

    #[test]
    fn directed_and_dynamic_huge_header_counts_error() {
        for magic in [MAGIC_DIR, MAGIC_DYN] {
            let mut buf = bytes::BytesMut::new();
            buf.put_slice(magic);
            buf.put_u64_le(u32::MAX as u64); // n
            buf.put_u64_le(u64::MAX / 2); // m / m_in
            buf.put_u64_le(u64::MAX / 2); // a / m_out
            buf.put_u64_le(0); // flags
            for _ in 0..9 {
                buf.put_u64_le(u64::MAX);
            }
            assert!(any_index_from_binary(buf.freeze()).is_err());
        }
    }

    #[test]
    fn rejects_bad_permutation() {
        let mut buf = bytes::BytesMut::new();
        buf.put_slice(MAGIC_V1);
        buf.put_u64_le(2);
        buf.put_u32_le(0);
        buf.put_u32_le(0); // duplicate
        buf.put_u8(0);
        assert!(index_from_binary(buf.freeze()).is_err());
    }
}
