//! Binary snapshot formats for [`SpcIndex`] and its sibling index kinds.
//!
//! Building the index is the expensive step (minutes for large graphs);
//! persisting it makes query services restartable. Every current format
//! is written, copied back, mapped and sharded through the one codec
//! below, so a new section is added in one place.
//!
//! # The section-table rule
//!
//! The four current formats — `PSPCIDX2`, `PSPCDIR2`, `PSPCDYN2` and the
//! shard file `PSPCSHD1` — share one layout. All integers are
//! little-endian.
//!
//! 1. An 8-byte magic names the format.
//! 2. A fixed number of `u64` header words follows.
//! 3. A section table follows: one `u64` byte length per section. Each
//!    length is a function of the header words.
//! 4. The sections follow back to back in descending element alignment
//!    (8-byte, then 4, then 2). The header is a multiple of 8 bytes, so
//!    in a page-aligned mapping every section starts naturally aligned
//!    and can be viewed in place ([`crate::mapped`], [`crate::shard`]).
//! 5. Nothing follows: the file is exactly the header plus the sections.
//!
//! The reader checks, in order: the magic; truncation of the header; that
//! the table equals the lengths computed from the words; the checked
//! `usize` narrowing of every section end; and the exact total, with no
//! trailing bytes. One reader per format then either copies each section
//! out with one `memcpy` (on little-endian targets) or views it in a file
//! mapping. The writer emits the magic, the words and the table from the
//! same length function, so reader and writer cannot drift.
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
//! # v2 (`PSPCIDX2`, undirected)
//!
//! Header words `[n, m, flags]`: the vertex count (must fit the `u32`
//! rank space), the total label entries, and `flags` (bit 0 = weights
//! section present; any other bit is rejected). Written by
//! [`index_to_binary`] (one exact-size allocation, [`snapshot_size`]) and
//! [`write_index_to`] (streamed). The 80-byte header:
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
//! | # | section   | element | length (bytes)           |
//! |--:|-----------|---------|--------------------------|
//! | 0 | `offsets` | `u64`   | `(n + 1) * 8`            |
//! | 1 | `weights` | `u64`   | `n * 8` if flag bit 0, else 0 |
//! | 2 | `counts`  | `u64`   | `m * 8`                  |
//! | 3 | `order`   | `u32`   | `n * 4` (`order[rank] = vertex`) |
//! | 4 | `hubs`    | `u32`   | `m * 4`                  |
//! | 5 | `dists`   | `u16`   | `m * 2`                  |
//!
//! # v1 (`PSPCIDX1`, legacy)
//!
//! The per-entry format of the first releases. [`index_from_binary`]
//! still reads it; nothing writes it any more. Convert old files with
//! `pspc migrate <old> <new>`.
//!
//! # Directed (`PSPCDIR2`)
//!
//! Header words `[n, m_in, m_out, 0]` (the last word is a flags word that
//! must be 0), so the header is 112 bytes. Written by
//! [`di_index_to_binary`] and [`write_di_index_to`]:
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
//! # Dynamic (`PSPCDYN2`)
//!
//! Header words `[n, m, a, 0]`: `m` label entries, `a` adjacency entries
//! and a flags word that must be 0, so the header is 88 bytes. The
//! sections hold the maintained rank-space adjacency as CSR (`adj_offsets`,
//! `adj`), the `(hub, dist)` label rows as CSR (`lab_offsets`, `hubs`,
//! `dists`) and the `order` array. Counts are not persisted because the
//! dynamic index maintains distances only (see [`crate::dynamic`]); the
//! `updated_entries` statistic resets to 0 on load. Written by
//! [`dyn_index_to_binary`] and [`write_dyn_index_to`]:
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
//! Every copying loader ([`index_from_binary`], [`di_index_from_binary`],
//! [`dyn_index_from_binary`]) ends with the kind's full structural
//! validation, so corrupt input errors — it never panics.
//! [`any_index_from_binary`] dispatches on the magic
//! ([`snapshot_kind_name`]) and returns a [`SnapshotKind`].
//!
//! # Sharded snapshots (`PSPCSHM1` + `PSPCSHD1`)
//!
//! For indexes larger than RAM, `pspc build --shard-bytes N` (and
//! `pspc migrate --shard`) split an **undirected** index into a small
//! *manifest* plus per-rank-range *shard files* that the daemon maps
//! lazily under an LRU residency cap (see [`crate::shard`]).
//!
//! **Manifest** (`<path>`, magic `PSPCSHM1`) — a fixed 48-byte header, a
//! shard table, then the global order and optional weights arrays
//! (small, always loaded owned). It has no section table, so
//! [`crate::shard`] parses it itself:
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
//! Shard ranges must tile `0..n` contiguously in rank order (an empty
//! index has one empty shard), and the per-shard `entries`/`file_bytes`
//! must agree with the shard files.
//!
//! **Shard file** (`<path>.NNNN`, 4-digit shard index, magic
//! `"PSPCSHD1"`) — one rank range's rows of the label arena, offsets
//! rebased to start at 0. Header words `[index, start_rank, end_rank,
//! entries]` (`end_rank` exclusive, `nr = end - start`), so the header is
//! 72 bytes:
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
use crate::section::{Section, SectionElem};
use bytes::Buf;
// Re-exported so downstream users of the snapshot API don't need a direct
// `bytes` dependency.
pub use bytes::Bytes;
use memmap2::Mmap;
use pspc_order::VertexOrder;
use std::io;
use std::ops::Range;
use std::sync::Arc;

pub(crate) const MAGIC_V1: &[u8; 8] = b"PSPCIDX1";
pub(crate) const MAGIC_V2: &[u8; 8] = b"PSPCIDX2";
pub(crate) const MAGIC_DIR: &[u8; 8] = b"PSPCDIR2";
pub(crate) const MAGIC_DYN: &[u8; 8] = b"PSPCDYN2";
/// Magic of the sharded-snapshot manifest (see [`crate::shard`]).
pub(crate) const MAGIC_SHARD_MANIFEST: &[u8; 8] = b"PSPCSHM1";

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

// ------------------------------------------------------------------- codec

/// One section-table format (see the [module docs](self)).
pub(crate) struct Format {
    pub magic: &'static [u8; 8],
    /// Number of `u64` header words after the magic.
    pub words: usize,
    /// The section byte lengths the header words imply, in file order.
    /// Works in `u128`, so a corrupt header cannot overflow it, and
    /// rejects words no writer produces.
    pub lengths: fn(&[u64]) -> io::Result<Vec<u128>>,
}

/// A vertex count, which must fit the `u32` rank space.
fn rank_space(n: u64) -> io::Result<u128> {
    if n > u32::MAX as u64 + 1 {
        return Err(bad("vertex count exceeds rank space"));
    }
    Ok(n as u128)
}

/// `PSPCIDX2`: words `[n, m, flags]`.
pub(crate) const V2: Format = Format {
    magic: MAGIC_V2,
    words: 3,
    lengths: |w| {
        if w[2] > 1 {
            return Err(bad("unknown v2 flags"));
        }
        let (n, m) = (rank_space(w[0])?, w[1] as u128);
        let weights = n * 8 * w[2] as u128;
        Ok(vec![(n + 1) * 8, weights, m * 8, n * 4, m * 4, m * 2])
    },
};

/// `PSPCDIR2`: words `[n, m_in, m_out, 0]`.
pub(crate) const DIR: Format = Format {
    magic: MAGIC_DIR,
    words: 4,
    lengths: |w| {
        if w[3] != 0 {
            return Err(bad("unknown directed flags"));
        }
        let (n, i, o) = (rank_space(w[0])?, w[1] as u128, w[2] as u128);
        let r = (n + 1) * 8; // one CSR offsets section per direction
        Ok(vec![r, r, i * 8, o * 8, n * 4, i * 4, o * 4, i * 2, o * 2])
    },
};

/// `PSPCDYN2`: words `[n, m, a, 0]`.
pub(crate) const DYN: Format = Format {
    magic: MAGIC_DYN,
    words: 4,
    lengths: |w| {
        if w[3] != 0 {
            return Err(bad("unknown dynamic flags"));
        }
        let (n, m, a) = (rank_space(w[0])?, w[1] as u128, w[2] as u128);
        Ok(vec![(n + 1) * 8, (n + 1) * 8, n * 4, a * 4, m * 4, m * 2])
    },
};

/// `PSPCSHD1` shard file: words `[index, start, end, entries]`.
pub(crate) const SHD1: Format = Format {
    magic: b"PSPCSHD1",
    words: 4,
    lengths: |w| {
        if w[2] < w[1] {
            return Err(bad("shard rank range ends before it starts"));
        }
        let (rows, e) = ((w[2] - w[1]) as u128, w[3] as u128);
        Ok(vec![(rows + 1) * 8, e * 8, e * 4, e * 2])
    },
};

/// A parsed section table: the header words and each section's byte
/// range, in file order.
pub(crate) struct Layout {
    pub words: Vec<u64>,
    pub sections: Vec<Range<usize>>,
}

/// Parses and checks the header and section table of a `f` snapshot
/// against `data.len()` (the checks of the [module docs](self), in that
/// order). The only section-table parser: every loader goes through it.
pub(crate) fn parse_layout(data: &[u8], f: &Format) -> io::Result<Layout> {
    let name = String::from_utf8_lossy(f.magic);
    if data.get(..8) != Some(&f.magic[..]) {
        return Err(bad(&format!("not a {name} snapshot")));
    }
    let word = |i: usize| {
        let b = data.get(8 + 8 * i..16 + 8 * i)?;
        Some(u64::from_le_bytes(b.try_into().expect("an 8-byte range")))
    };
    let truncated = || bad(&format!("truncated {name} header"));
    let words: Vec<u64> = (0..f.words)
        .map(word)
        .collect::<Option<_>>()
        .ok_or_else(truncated)?;
    let lengths = (f.lengths)(&words)?;
    let mut at = 8 * (1 + f.words + lengths.len());
    if data.len() < at {
        return Err(truncated());
    }
    let mut sections = Vec::with_capacity(lengths.len());
    for (i, &len) in lengths.iter().enumerate() {
        if word(f.words + i).map(u128::from) != Some(len) {
            return Err(bad(&format!("section {i} length disagrees with header")));
        }
        let end = checked_len(at as u128 + len, "section end")?;
        sections.push(at..end);
        at = end;
    }
    if data.len() != at {
        return Err(bad(&if data.len() < at {
            format!("truncated {name} section data")
        } else {
            format!("trailing bytes after {name} sections")
        }));
    }
    Ok(Layout { words, sections })
}

/// Writes the magic, the header `words` and the section table of a `f`
/// snapshot. The only header writer: the sections follow it.
pub(crate) fn write_layout<W: io::Write>(w: &mut W, f: &Format, words: &[u64]) -> io::Result<()> {
    let mut hdr = f.magic.to_vec();
    for &x in words {
        hdr.extend_from_slice(&x.to_le_bytes());
    }
    for len in (f.lengths)(words)? {
        let len = u64::try_from(len).map_err(|_| bad("section length exceeds u64"))?;
        hdr.extend_from_slice(&len.to_le_bytes());
    }
    w.write_all(&hdr)
}

/// Exact byte size of a `f` snapshot with these header words (which
/// describe a resident index, so the size fits `usize`).
pub(crate) fn layout_size(f: &Format, words: &[u64]) -> usize {
    let lengths = (f.lengths)(words).expect("header words of a resident index");
    let total = 8 * (1 + f.words + lengths.len()) as u128 + lengths.iter().sum::<u128>();
    usize::try_from(total).expect("in-memory index snapshot size")
}

/// Serializes into one allocation of the exact final `size`. A `Vec`
/// only reallocates when its length passes its capacity, and the length
/// is checked to end at `size`, so the buffer is never reallocated.
fn to_bytes(size: usize, write: impl FnOnce(&mut Vec<u8>) -> io::Result<()>) -> Bytes {
    let mut buf = Vec::with_capacity(size);
    write(&mut buf).expect("writing to a Vec cannot fail");
    debug_assert_eq!(buf.len(), size, "snapshot size accounting must be exact");
    Bytes::from(buf)
}

/// Where a reader takes its sections from: copied out of a byte buffer
/// (the copying loaders) or viewed in place in a file mapping (the
/// zero-copy loaders). Readers never branch on it.
pub(crate) enum Source<'a> {
    Copy(&'a [u8]),
    Map(&'a Arc<Mmap>),
}

impl Source<'_> {
    fn bytes(&self) -> &[u8] {
        match self {
            Source::Copy(b) => b,
            Source::Map(m) => m,
        }
    }

    /// Section `i` of `layout`. A mapped view re-checks bounds and
    /// alignment in [`Section::from_mapped`] before the cast.
    fn section<T: Elem>(&self, layout: &Layout, i: usize) -> io::Result<Section<T>> {
        let r = layout.sections[i].clone();
        match self {
            Source::Copy(b) => Ok(T::decode(&b[r]).into()),
            Source::Map(m) => Section::from_mapped(m, r.start, r.len() / std::mem::size_of::<T>()),
        }
    }

    /// The `order` section, always copied: it is rebuilt into a rank
    /// lookup anyway.
    fn order(&self, layout: &Layout, i: usize) -> io::Result<VertexOrder> {
        validate_order(u32::decode(&self.bytes()[layout.sections[i].clone()]))
    }
}

/// Reads one label arena from the sections `[offsets, hubs, dists,
/// counts]` of `layout`, with [`LabelArena::from_sections`]' CSR checks.
pub(crate) fn read_arena(
    src: &Source,
    layout: &Layout,
    [offsets, hubs, dists, counts]: [usize; 4],
) -> io::Result<LabelArena> {
    LabelArena::from_sections(
        src.section(layout, offsets)?,
        src.section(layout, hubs)?,
        src.section(layout, dists)?,
        src.section(layout, counts)?,
    )
    .map_err(|e| bad(&format!("bad label arena: {e}")))
}

/// Reads a `PSPCIDX2` snapshot with the checks memory safety needs
/// (layout, CSR offsets, order permutation); the copying loader adds
/// [`SpcIndex::validate`].
pub(crate) fn read_v2(src: Source) -> io::Result<SpcIndex> {
    let layout = parse_layout(src.bytes(), &V2)?;
    let order = src.order(&layout, 3)?;
    let arena = read_arena(&src, &layout, [0, 4, 5, 2])?;
    let weights = (layout.words[2] == 1)
        .then(|| src.section(&layout, 1))
        .transpose()?;
    if arena.num_vertices() != order.len() {
        return Err(bad("label row count disagrees with the order"));
    }
    Ok(SpcIndex::from_arena_sections(
        order,
        arena,
        weights,
        IndexStats::default(),
    ))
}

/// Reads a `PSPCDIR2` snapshot (the directed analogue of [`read_v2`]).
pub(crate) fn read_dir(src: Source) -> io::Result<DiSpcIndex> {
    let layout = parse_layout(src.bytes(), &DIR)?;
    let order = src.order(&layout, 4)?;
    let lin = read_arena(&src, &layout, [0, 5, 7, 2])?;
    let lout = read_arena(&src, &layout, [1, 6, 8, 3])?;
    if lin.num_vertices() != order.len() || lout.num_vertices() != order.len() {
        return Err(bad("label row counts disagree with the order"));
    }
    Ok(DiSpcIndex::from_arenas(
        order,
        lin,
        lout,
        IndexStats::default(),
    ))
}

// ---------------------------------------------------------------- bulk I/O
//
// On little-endian targets (every supported deployment platform) the
// in-memory arrays already have the wire layout, so sections move with a
// single memcpy in each direction. The big-endian fallback converts per
// element; it exists for correctness, not speed.

/// The little-endian wire codec of one section element type.
pub(crate) trait Elem: SectionElem {
    /// Decodes a whole section. `src.len()` must be a multiple of the
    /// element width (the caller has already validated section sizes).
    fn decode(src: &[u8]) -> Vec<Self>;

    /// Streams a whole section to any writer: one bulk write on
    /// little-endian targets (a `Vec<u8>` sink makes this the exact-size
    /// in-memory serialize; a `BufWriter<File>` the streaming path).
    fn encode<W: io::Write>(w: &mut W, vals: &[Self]) -> io::Result<()>;
}

macro_rules! bulk_codec {
    ($ty:ty, $width:expr) => {
        impl Elem for $ty {
            fn decode(src: &[u8]) -> Vec<$ty> {
                debug_assert_eq!(src.len() % $width, 0);
                let n = src.len() / $width;
                let mut v: Vec<$ty> = Vec::with_capacity(n);
                #[cfg(target_endian = "little")]
                // SAFETY: the destination allocation holds `n * $width`
                // bytes, the copy fills exactly that many, and every byte
                // pattern is a valid $ty.
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        src.as_ptr(),
                        v.as_mut_ptr().cast::<u8>(),
                        src.len(),
                    );
                    v.set_len(n);
                }
                #[cfg(not(target_endian = "little"))]
                v.extend(
                    src.chunks_exact($width)
                        .map(|c| <$ty>::from_le_bytes(c.try_into().unwrap())),
                );
                v
            }

            fn encode<W: io::Write>(w: &mut W, vals: &[$ty]) -> io::Result<()> {
                #[cfg(target_endian = "little")]
                // SAFETY: an initialized $ty slice is readable as bytes.
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
        }
    };
}

bulk_codec!(u64, 8);
bulk_codec!(u32, 4);
bulk_codec!(u16, 2);

// ---------------------------------------------------------------------- v2

fn v2_words(idx: &SpcIndex) -> [u64; 3] {
    let m = idx.label_arena().num_entries();
    let flags = u64::from(idx.weights().is_some());
    [idx.num_vertices() as u64, m as u64, flags]
}

/// Exact v2 snapshot size in bytes for `idx` — header plus the six
/// sections of the format spec ([module docs](self)).
pub fn snapshot_size(idx: &SpcIndex) -> usize {
    layout_size(&V2, &v2_words(idx))
}

/// Serializes the index into a binary snapshot (format v2).
///
/// The output buffer is allocated at the exact final size up front
/// ([`snapshot_size`]) and filled with bulk section writes — no
/// reallocation, no per-entry encoding.
pub fn index_to_binary(idx: &SpcIndex) -> Bytes {
    to_bytes(snapshot_size(idx), |buf| write_index_to(buf, idx))
}

/// Streams the v2 snapshot of `idx` to any writer — same wire bytes as
/// [`index_to_binary`], but section by section, so callers like
/// `pspc migrate` never buffer a whole destination snapshot in memory.
/// Wrap `w` in a [`std::io::BufWriter`] when targeting a file.
pub fn write_index_to<W: io::Write>(w: &mut W, idx: &SpcIndex) -> io::Result<()> {
    let arena = idx.label_arena();
    write_layout(w, &V2, &v2_words(idx))?;
    Elem::encode(w, arena.offsets())?;
    if let Some(wt) = idx.weights() {
        Elem::encode(w, wt)?;
    }
    Elem::encode(w, arena.counts())?;
    Elem::encode(w, idx.order().order())?;
    Elem::encode(w, arena.hubs())?;
    Elem::encode(w, arena.dists())
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
        let idx = read_v2(Source::Copy(&data))?;
        idx.validate()
            .map_err(|e| bad(&format!("snapshot fails validation: {e}")))?;
        Ok(idx)
    } else if data.len() >= 8 && (&data[..8] == MAGIC_DIR || &data[..8] == MAGIC_DYN) {
        Err(bad(
            "snapshot holds a directed/dynamic index; load it with any_index_from_binary",
        ))
    } else {
        index_from_binary_v1(data)
    }
}

// ---------------------------------------------------------------- directed

fn dir_words(idx: &DiSpcIndex) -> [u64; 4] {
    let m_in = idx.lin_arena().num_entries() as u64;
    let m_out = idx.lout_arena().num_entries() as u64;
    [idx.num_vertices() as u64, m_in, m_out, 0]
}

/// Exact `PSPCDIR2` snapshot size in bytes for `idx`.
pub fn di_snapshot_size(idx: &DiSpcIndex) -> usize {
    layout_size(&DIR, &dir_words(idx))
}

/// Serializes a directed index as a `PSPCDIR2` snapshot (exact-size
/// single allocation, bulk section writes — see the [module docs](self)
/// for the layout).
pub fn di_index_to_binary(idx: &DiSpcIndex) -> Bytes {
    to_bytes(di_snapshot_size(idx), |buf| write_di_index_to(buf, idx))
}

/// Streams the `PSPCDIR2` snapshot of `idx` to any writer (same wire
/// bytes as [`di_index_to_binary`]; see [`write_index_to`]).
pub fn write_di_index_to<W: io::Write>(w: &mut W, idx: &DiSpcIndex) -> io::Result<()> {
    let (lin, lout) = (idx.lin_arena(), idx.lout_arena());
    write_layout(w, &DIR, &dir_words(idx))?;
    Elem::encode(w, lin.offsets())?;
    Elem::encode(w, lout.offsets())?;
    Elem::encode(w, lin.counts())?;
    Elem::encode(w, lout.counts())?;
    Elem::encode(w, idx.order().order())?;
    Elem::encode(w, lin.hubs())?;
    Elem::encode(w, lout.hubs())?;
    Elem::encode(w, lin.dists())?;
    Elem::encode(w, lout.dists())
}

/// Deserializes a `PSPCDIR2` snapshot.
pub fn di_index_from_binary(data: Bytes) -> io::Result<DiSpcIndex> {
    let idx = read_dir(Source::Copy(&data))?;
    idx.validate()
        .map_err(|e| bad(&format!("snapshot fails validation: {e}")))?;
    Ok(idx)
}

// ----------------------------------------------------------------- dynamic

fn dyn_words(idx: &DynamicDistanceIndex) -> [u64; 4] {
    let (n, m, a) = (idx.num_vertices(), idx.num_entries(), 2 * idx.num_edges());
    [n as u64, m as u64, a as u64, 0]
}

/// Exact `PSPCDYN2` snapshot size in bytes for `idx`.
pub fn dyn_snapshot_size(idx: &DynamicDistanceIndex) -> usize {
    layout_size(&DYN, &dyn_words(idx))
}

/// Serializes a dynamic distance index as a `PSPCDYN2` snapshot. The
/// per-row adjacency and label vectors are flattened to CSR on the way
/// out; `updated_entries` is not persisted.
pub fn dyn_index_to_binary(idx: &DynamicDistanceIndex) -> Bytes {
    to_bytes(dyn_snapshot_size(idx), |buf| write_dyn_index_to(buf, idx))
}

/// Streams the `PSPCDYN2` snapshot of `idx` to any writer (same wire
/// bytes as [`dyn_index_to_binary`]; see [`write_index_to`]). The
/// per-row label sections are emitted element-wise, so wrap `w` in a
/// [`std::io::BufWriter`] when targeting a file.
pub fn write_dyn_index_to<W: io::Write>(w: &mut W, idx: &DynamicDistanceIndex) -> io::Result<()> {
    let n = idx.num_vertices();
    write_layout(w, &DYN, &dyn_words(idx))?;
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
    Elem::encode(w, &adj_offsets)?;
    Elem::encode(w, &lab_offsets)?;
    Elem::encode(w, idx.order().order())?;
    for r in 0..n as u32 {
        Elem::encode(w, idx.adj_of_rank(r))?;
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
    let layout = parse_layout(&data, &DYN)?;
    let section = |i: usize| &data[layout.sections[i].clone()];
    let adj_offsets = u64::decode(section(0));
    let lab_offsets = u64::decode(section(1));
    let order = Source::Copy(&data).order(&layout, 2)?;
    let adj_flat = u32::decode(section(3));
    let hubs = u32::decode(section(4));
    let dists = u16::decode(section(5));

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
    use bytes::BufMut;
    use pspc_graph::generators::barabasi_albert;

    const V2_HEADER_BYTES: usize = 80;
    /// v1 snapshots of `build(24, 1)` and `build_weighted(24, 1)`, written
    /// by the retired v1 writer (`tests/golden_snapshots.rs` pins them).
    const V1: &[u8] = include_bytes!("../tests/fixtures/ba24.v1.pspc");
    const V1_WEIGHTED: &[u8] = include_bytes!("../tests/fixtures/ba24w.v1.pspc");

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
        for (idx, v1) in [(build(24, 1), V1), (build_weighted(24, 1), V1_WEIGHTED)] {
            let from_v1 = index_from_binary(Bytes::from(v1)).unwrap();
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
        for bin in [index_to_binary(&idx), Bytes::from(V1_WEIGHTED)] {
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
            (di_index_to_binary(&dir), "directed"),
            (dyn_index_to_binary(&dynix), "dynamic"),
        ] {
            assert_eq!(snapshot_kind_name(&bytes), Some(want));
            let loaded = any_index_from_binary(bytes).unwrap();
            assert_eq!(loaded.name(), want);
            assert_eq!(loaded.num_vertices(), 30);
        }
        // The v1 fixture (24 vertices) is detected and dispatched too.
        let v1 = Bytes::from(V1);
        assert_eq!(snapshot_kind_name(&v1), Some("undirected"));
        let loaded = any_index_from_binary(v1).unwrap();
        assert_eq!(loaded.name(), "undirected");
        assert_eq!(loaded.num_vertices(), 24);
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
