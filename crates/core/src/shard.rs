//! Sharded snapshots: bounded-residency zero-copy serving for indexes
//! larger than RAM.
//!
//! A monolithic mapped snapshot ([`crate::mapped`]) already keeps cold
//! start O(header), but the page cache may still end up holding the whole
//! index under a scattered query load. Sharded snapshots split the label
//! arena by **rank range** into independent shard files plus a small
//! manifest (format spec in [`crate::serialize`]'s module docs:
//! `PSPCSHM1` manifest, `PSPCSHD1` shard files named `<manifest>.NNNN`).
//! [`ShardedSpcIndex`] maps shards lazily on first touch and keeps at
//! most `max_resident` of them mapped, evicting least-recently-used
//! mappings; because every mapped arena is handed out behind an `Arc`,
//! eviction only drops the cache's reference — a query mid-flight on an
//! evicted shard keeps its mapping alive until it finishes, so `munmap`
//! can never race a reader.
//!
//! Ranks are assigned to shards contiguously (`start_rank..end_rank`
//! tiles `0..n`), so a point query touches at most two shards and the
//! shard of a rank is one binary search over the (tiny) shard table.
//! The global `order` array and optional `weights` live in the manifest
//! and are always loaded owned — they are O(n), not O(m).
//!
//! Only the **undirected** index kind shards: the directed kind would
//! double every structure for marginal benefit at current scales, and
//! the dynamic kind mutates in place. `pspc serve --mmap` on those falls
//! back transparently.
//!
//! # Reading a shard
//!
//! A shard file is one more format of [`crate::serialize`]'s codec: it is
//! written with the codec's header writer, and each time a shard is
//! mapped — at [`open_sharded`], and again whenever an evicted shard is
//! mapped back in — the codec parses its section table, the header words
//! are cross-checked against the manifest, and the arena is read through
//! the same reader as every other mapped snapshot, with the memory-safety
//! checks listed in [`crate::mapped`]. The manifest has no section table
//! and keeps its own parser here.
//!
//! Like any mapped snapshot, the manifest's shard files must never be
//! truncated or rewritten in place while a [`ShardedSpcIndex`] serves
//! them: a vanished page raises `SIGBUS` in the query that touches it.
//! Write a new snapshot under a new name, or rename over the old files;
//! [`write_atomically`] gives every file a fresh temp name and renames it
//! into place, and [`write_sharded_index`] removes the shard files an
//! earlier snapshot with more shards left behind.
//!
//! Renaming a new snapshot over the served one does not switch a running
//! [`ShardedSpcIndex`] to it. Resident shards keep serving the old files,
//! but an evicted shard cannot be mapped back in: the new file fails the
//! check against the old manifest (or is gone), and
//! [`ShardedSpcIndex::query_ranks`] panics. The engine turns that panic
//! into a failed batch, so under `pspc serve` such a request gets 503
//! until the daemon restarts on the new snapshot.

use crate::label::{Count, IndexStats, LabelArena, SpcIndex};
use crate::serialize::{
    bad, checked_len, layout_size, parse_layout, read_arena, validate_order, write_layout, Elem,
    Source, MAGIC_SHARD_MANIFEST, SHD1,
};
use memmap2::Mmap;
use parking_lot::Mutex;
use pspc_graph::{SpcAnswer, VertexId};
use pspc_order::VertexOrder;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Fixed manifest header bytes: magic, n, m, flags, shard count, target.
const MANIFEST_HEADER_BYTES: usize = 8 * 6;
/// Per-entry payload bytes (4 hub + 2 dist + 8 count), used to target
/// `--shard-bytes`.
const ENTRY_BYTES: u64 = 14;

/// The shard file sibling to `manifest` for shard `i` (`<manifest>.NNNN`).
pub fn shard_file_path(manifest: &Path, i: usize) -> PathBuf {
    let mut name = manifest.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".{i:04}"));
    manifest.with_file_name(name)
}

// ------------------------------------------------------------------ writer

/// Greedy contiguous rank partition: each shard takes rows until its
/// payload (entries + its own offsets array) reaches `shard_bytes`, with
/// at least one row per shard. Returns `(start, end)` rank ranges.
fn partition_ranks(idx: &SpcIndex, shard_bytes: u64) -> Vec<(u32, u32)> {
    let n = idx.num_vertices() as u32;
    let arena = idx.label_arena();
    let mut ranges = Vec::new();
    let mut start = 0u32;
    let mut bytes = 0u64;
    for r in 0..n {
        bytes += arena.len_of(r) as u64 * ENTRY_BYTES + 8;
        if bytes >= shard_bytes.max(1) {
            ranges.push((start, r + 1));
            start = r + 1;
            bytes = 0;
        }
    }
    if start < n || ranges.is_empty() {
        ranges.push((start, n));
    }
    ranges
}

/// Writes `idx` as a sharded snapshot: shard files `<manifest>.NNNN`
/// first, the manifest last (so a crashed write never leaves a manifest
/// pointing at missing shards). Every file goes through a temp name +
/// atomic rename. Shard files that an earlier snapshot with more shards
/// left under the same name are removed after the manifest is in place.
/// Returns the shard count.
///
/// `shard_bytes` is the target label payload per shard; the actual size
/// rounds up to whole rank rows (a single huge row can exceed it).
pub fn write_sharded_index(
    idx: &SpcIndex,
    manifest: impl AsRef<Path>,
    shard_bytes: u64,
) -> io::Result<usize> {
    let manifest = manifest.as_ref();
    let n = idx.num_vertices();
    let arena = idx.label_arena();
    let ranges = partition_ranks(idx, shard_bytes);
    if ranges.len() > 9999 {
        return Err(bad(
            "shard-bytes target produces more than 9999 shards; raise it",
        ));
    }
    let mut table: Vec<(u32, u32, u64, u64)> = Vec::with_capacity(ranges.len());
    for (i, &(start, end)) in ranges.iter().enumerate() {
        let path = shard_file_path(manifest, i);
        let file_bytes = write_shard_file(arena, &path, i, start, end)?;
        let entries = arena.offsets()[end as usize] - arena.offsets()[start as usize];
        table.push((start, end, entries, file_bytes));
    }
    // Manifest last: header, shard table, weights (8-aligned), order.
    let mut buf: Vec<u8> = Vec::new();
    buf.extend_from_slice(MAGIC_SHARD_MANIFEST);
    buf.extend_from_slice(&(n as u64).to_le_bytes());
    buf.extend_from_slice(&(arena.num_entries() as u64).to_le_bytes());
    buf.extend_from_slice(&u64::from(idx.weights().is_some()).to_le_bytes());
    buf.extend_from_slice(&(ranges.len() as u64).to_le_bytes());
    buf.extend_from_slice(&shard_bytes.to_le_bytes());
    for &(start, end, entries, file_bytes) in &table {
        buf.extend_from_slice(&(start as u64).to_le_bytes());
        buf.extend_from_slice(&(end as u64).to_le_bytes());
        buf.extend_from_slice(&entries.to_le_bytes());
        buf.extend_from_slice(&file_bytes.to_le_bytes());
    }
    if let Some(w) = idx.weights() {
        Elem::encode(&mut buf, w)?;
    }
    Elem::encode(&mut buf, idx.order().order())?;
    write_atomically(manifest, |f| f.write_all(&buf))?;
    // Shards are numbered contiguously, so the first missing file ends
    // the earlier snapshot's tail.
    for i in ranges.len().. {
        match std::fs::remove_file(shard_file_path(manifest, i)) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => break,
            Err(e) => return Err(e),
        }
    }
    Ok(ranges.len())
}

/// Writes one `PSPCSHD1` shard file (streaming, temp + rename); returns
/// its exact byte size.
fn write_shard_file(
    arena: &LabelArena,
    path: &Path,
    i: usize,
    start: u32,
    end: u32,
) -> io::Result<u64> {
    let (lo, hi) = (
        arena.offsets()[start as usize] as usize,
        arena.offsets()[end as usize] as usize,
    );
    let words = [i as u64, start as u64, end as u64, (hi - lo) as u64];
    // Rebased offsets: shard-local rows start at 0.
    let base = arena.offsets()[start as usize];
    let rebased: Vec<u64> = arena.offsets()[start as usize..=end as usize]
        .iter()
        .map(|&o| o - base)
        .collect();
    write_atomically(path, |w| {
        let mut w = io::BufWriter::new(w);
        write_layout(&mut w, &SHD1, &words)?;
        Elem::encode(&mut w, &rebased)?;
        Elem::encode(&mut w, &arena.counts()[lo..hi])?;
        Elem::encode(&mut w, &arena.hubs()[lo..hi])?;
        Elem::encode(&mut w, &arena.dists()[lo..hi])?;
        w.flush()
    })?;
    Ok(layout_size(&SHD1, &words) as u64)
}

/// Writes a file via a temp file + `fsync` + atomic rename + `fsync` of
/// the directory, so a crash or failed write never leaves a truncated
/// file under the final name, and a returned `Ok` survives a crash.
/// Each call writes its own temp file (`<path>.<pid>.<seq>.tmp`, in the
/// same directory), so concurrent writers to one path never share one:
/// the last rename wins, whole. `pspc build` and `pspc migrate` route
/// their snapshots through this too.
pub fn write_atomically(
    path: &Path,
    write: impl FnOnce(&mut std::fs::File) -> io::Result<()>,
) -> io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(format!(".{}.{seq}.tmp", std::process::id()));
    let tmp = PathBuf::from(tmp);
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        write(&mut f)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)?;
        // A bare file name's parent is the empty path: the current
        // directory.
        let dir = match path.parent() {
            Some(d) if !d.as_os_str().is_empty() => d,
            _ => Path::new("."),
        };
        std::fs::File::open(dir)?.sync_all()
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

// ---------------------------------------------------------------- manifest

/// Parsed, validated manifest: the shard table plus the owned global
/// arrays.
struct Manifest {
    n: usize,
    m: u64,
    shard_bytes: u64,
    table: Vec<ShardMeta>,
    weights: Option<Vec<Count>>,
    order: VertexOrder,
}

#[derive(Clone, Debug)]
struct ShardMeta {
    start: u32,
    end: u32,
    entries: u64,
    file_bytes: u64,
    path: PathBuf,
}

fn parse_manifest(path: &Path) -> io::Result<Manifest> {
    let data = std::fs::read(path)?;
    if data.len() < 8 || &data[..8] != MAGIC_SHARD_MANIFEST {
        return Err(bad("unrecognized snapshot: not a PSPC shard manifest"));
    }
    if data.len() < MANIFEST_HEADER_BYTES {
        return Err(bad("truncated shard manifest header"));
    }
    let u64_at = |at: usize| u64::from_le_bytes(data[at..at + 8].try_into().unwrap());
    let n64 = u64_at(8);
    let m = u64_at(16);
    let flags = u64_at(24);
    let s64 = u64_at(32);
    let shard_bytes = u64_at(40);
    if flags > 1 {
        return Err(bad("unknown shard manifest flags"));
    }
    if n64 > u32::MAX as u64 + 1 {
        return Err(bad("vertex count exceeds rank space"));
    }
    if s64 == 0 || s64 > 9999 {
        return Err(bad("shard count must be 1..=9999"));
    }
    let has_weights = flags & 1 == 1;
    let n = checked_len(n64 as u128, "vertex count")?;
    let s = checked_len(s64 as u128, "shard count")?;
    let expect = MANIFEST_HEADER_BYTES as u128
        + 32 * s as u128
        + if has_weights { n as u128 * 8 } else { 0 }
        + n as u128 * 4;
    if data.len() as u128 != expect {
        return Err(bad(if (data.len() as u128) < expect {
            "truncated shard manifest"
        } else {
            "trailing bytes after shard manifest"
        }));
    }
    let mut at = MANIFEST_HEADER_BYTES;
    let mut table = Vec::with_capacity(s);
    let mut next_start = 0u64;
    let mut entry_sum = 0u128;
    // An empty index is one empty shard; otherwise every shard has rows.
    let empty_index = n64 == 0 && s == 1;
    for i in 0..s {
        let (start, end, entries, file_bytes) =
            (u64_at(at), u64_at(at + 8), u64_at(at + 16), u64_at(at + 24));
        at += 32;
        if start != next_start || (end <= start && !empty_index) || end > n64 {
            return Err(bad("shard rank ranges must tile 0..n contiguously"));
        }
        next_start = end;
        entry_sum += entries as u128;
        table.push(ShardMeta {
            start: start as u32,
            end: end as u32,
            entries,
            file_bytes,
            path: shard_file_path(path, i),
        });
    }
    if next_start != n64 {
        return Err(bad("shard rank ranges must cover all of 0..n"));
    }
    if entry_sum != m as u128 {
        return Err(bad("shard entry counts disagree with the manifest total"));
    }
    let weights = if has_weights {
        let w = u64::decode(&data[at..at + n * 8]);
        at += n * 8;
        Some(w)
    } else {
        None
    };
    let order = validate_order(u32::decode(&data[at..at + n * 4]))?;
    Ok(Manifest {
        n,
        m,
        shard_bytes,
        table,
        weights,
        order,
    })
}

/// Maps shard `meta`'s file, parses its section table, cross-checks the
/// header words and the file size against the manifest, and reads the
/// mapped arena (bounds and alignment re-checked by the codec before any
/// in-place cast).
fn map_shard(meta: &ShardMeta, index: usize) -> io::Result<Arc<LabelArena>> {
    let file = std::fs::File::open(&meta.path)?;
    // SAFETY: read-only private mapping of a shard file that is only ever
    // replaced by atomic rename.
    let map = Arc::new(unsafe { Mmap::map(&file) }?);
    let layout = parse_layout(&map, &SHD1)?;
    let words = [
        index as u64,
        meta.start.into(),
        meta.end.into(),
        meta.entries,
    ];
    if layout.words != words || map.len() as u64 != meta.file_bytes {
        return Err(bad("shard header disagrees with the manifest"));
    }
    read_arena(&Source::Map(&map), &layout, [0, 2, 3, 1]).map(Arc::new)
}

// ------------------------------------------------------------------ serving

/// LRU residency state: which shards are currently mapped, oldest first.
struct Residency {
    arenas: Vec<Option<Arc<LabelArena>>>,
    lru: VecDeque<usize>,
}

/// An undirected index served from a sharded snapshot with bounded
/// mapped residency. See the [module docs](self).
pub struct ShardedSpcIndex {
    order: VertexOrder,
    weights: Option<Vec<Count>>,
    table: Vec<ShardMeta>,
    /// Boundary ranks (`table[i].start` for all i) for binary search.
    starts: Vec<u32>,
    residency: Mutex<Residency>,
    max_resident: usize,
    num_entries: u64,
    shard_bytes: u64,
    resident_count: AtomicUsize,
    maps: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for ShardedSpcIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSpcIndex")
            .field("n", &self.num_vertices())
            .field("entries", &self.num_entries)
            .field("shards", &self.table.len())
            .field("max_resident", &self.max_resident)
            .finish()
    }
}

/// Opens a sharded snapshot for serving: parses and fully validates the
/// manifest, then maps **every** shard once to validate its header and
/// sections against the manifest (faulting only header/offset pages),
/// retaining at most `max_resident` mappings (0 means unlimited).
pub fn open_sharded(
    manifest: impl AsRef<Path>,
    max_resident: usize,
) -> io::Result<ShardedSpcIndex> {
    let man = parse_manifest(manifest.as_ref())?;
    let max_resident = if max_resident == 0 {
        man.table.len()
    } else {
        max_resident
    };
    let idx = ShardedSpcIndex {
        starts: man.table.iter().map(|t| t.start).collect(),
        residency: Mutex::new(Residency {
            arenas: vec![None; man.table.len()],
            lru: VecDeque::new(),
        }),
        max_resident,
        num_entries: man.m,
        shard_bytes: man.shard_bytes,
        resident_count: AtomicUsize::new(0),
        maps: AtomicU64::new(0),
        evictions: AtomicU64::new(0),
        order: man.order,
        weights: man.weights,
        table: man.table,
    };
    // Startup validation pass: every shard must map and agree with the
    // manifest, so query-time mapping failures can only mean the files
    // changed underneath the daemon.
    for i in 0..idx.table.len() {
        idx.shard_arena(i)?;
    }
    Ok(idx)
}

impl ShardedSpcIndex {
    /// Number of vertices covered.
    pub fn num_vertices(&self) -> usize {
        self.order.len()
    }

    /// Total label entries across all shards.
    pub fn num_entries(&self) -> u64 {
        self.num_entries
    }

    /// Total label payload bytes (the paper's 14-bytes-per-entry
    /// accounting, matching [`crate::label::LabelArena::size_bytes`]).
    pub fn label_bytes(&self) -> usize {
        self.num_entries as usize * ENTRY_BYTES as usize
    }

    /// Number of shard files.
    pub fn num_shards(&self) -> usize {
        self.table.len()
    }

    /// The residency cap this index was opened with.
    pub fn max_resident(&self) -> usize {
        self.max_resident
    }

    /// Currently mapped shard count (the `pspc_index_resident_shards`
    /// gauge).
    pub fn resident_shards(&self) -> usize {
        self.resident_count.load(Ordering::Relaxed)
    }

    /// Total shard map operations since open (re-maps after eviction
    /// count again).
    pub fn total_maps(&self) -> u64 {
        self.maps.load(Ordering::Relaxed)
    }

    /// Total LRU evictions since open.
    pub fn total_evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// The target payload bytes per shard recorded in the manifest.
    pub fn shard_bytes(&self) -> u64 {
        self.shard_bytes
    }

    /// The vertex order the index was built under.
    pub fn order(&self) -> &VertexOrder {
        &self.order
    }

    /// Vertex multiplicities by rank, if the index is weighted.
    pub fn weights(&self) -> Option<&[Count]> {
        self.weights.as_deref()
    }

    /// The shard holding `rank`.
    fn shard_of(&self, rank: u32) -> usize {
        match self.starts.binary_search(&rank) {
            Ok(i) => i,
            Err(i) => i - 1,
        }
    }

    /// The mapped arena of shard `i`, mapping it (and evicting the LRU
    /// shard over the cap) if needed.
    fn shard_arena(&self, i: usize) -> io::Result<Arc<LabelArena>> {
        let mut res = self.residency.lock();
        if let Some(a) = &res.arenas[i] {
            let a = Arc::clone(a);
            // Touch: move to the back of the LRU queue.
            if let Some(pos) = res.lru.iter().position(|&x| x == i) {
                res.lru.remove(pos);
            }
            res.lru.push_back(i);
            return Ok(a);
        }
        let arena = map_shard(&self.table[i], i)?;
        self.maps.fetch_add(1, Ordering::Relaxed);
        res.arenas[i] = Some(Arc::clone(&arena));
        res.lru.push_back(i);
        while res.lru.len() > self.max_resident {
            // Evict the least-recently-used shard: drop the cache's Arc.
            // In-flight queries holding clones keep the mapping alive, so
            // the munmap happens only after the last reader finishes.
            if let Some(old) = res.lru.pop_front() {
                res.arenas[old] = None;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.resident_count.store(res.lru.len(), Ordering::Relaxed);
        Ok(arena)
    }

    /// `SPC` between two ranks. Touches at most two shards.
    ///
    /// # Panics
    /// Panics if an evicted shard's file disappeared or changed since
    /// [`open_sharded`] validated it (see the module docs).
    pub fn query_ranks(&self, rs: u32, rt: u32) -> SpcAnswer {
        if rs == rt {
            return SpcAnswer { dist: 0, count: 1 };
        }
        let (si, ti) = (self.shard_of(rs), self.shard_of(rt));
        let sa = self
            .shard_arena(si)
            .expect("shard file changed underneath the daemon");
        let ta = if ti == si {
            Arc::clone(&sa)
        } else {
            self.shard_arena(ti)
                .expect("shard file changed underneath the daemon")
        };
        crate::query::query_label_sets(
            sa.view(rs - self.table[si].start),
            ta.view(rt - self.table[ti].start),
            rs,
            rt,
            self.weights(),
        )
    }

    /// `SPC` between two original vertex ids.
    pub fn query(&self, s: VertexId, t: VertexId) -> SpcAnswer {
        self.query_ranks(self.order.rank_of(s), self.order.rank_of(t))
    }

    /// Rank-space batch evaluation into a reusable buffer (mirrors
    /// [`SpcIndex::query_rank_batch_into`]).
    pub fn query_rank_batch_into(&self, rank_pairs: &[(u32, u32)], out: &mut Vec<SpcAnswer>) {
        out.clear();
        out.extend(rank_pairs.iter().map(|&(rs, rt)| self.query_ranks(rs, rt)));
    }

    /// Sequential vertex-space batch evaluation.
    pub fn query_batch_sequential(&self, pairs: &[(VertexId, VertexId)]) -> Vec<SpcAnswer> {
        pairs.iter().map(|&(s, t)| self.query(s, t)).collect()
    }
}

// ------------------------------------------------------------ owned reader

/// Loads a sharded snapshot into a fully owned [`SpcIndex`] (the copying
/// path: `pspc query`/`bench`/`migrate` on a manifest, and the parity
/// baseline for the mapped loader). Runs the full structural validation,
/// like every copying loader.
pub fn sharded_to_owned(manifest: impl AsRef<Path>) -> io::Result<SpcIndex> {
    let man = parse_manifest(manifest.as_ref())?;
    let m = checked_len(man.m as u128, "entry count")?;
    let mut offsets: Vec<u64> = Vec::with_capacity(man.n + 1);
    let mut hubs: Vec<u32> = Vec::with_capacity(m);
    let mut dists: Vec<u16> = Vec::with_capacity(m);
    let mut counts: Vec<Count> = Vec::with_capacity(m);
    offsets.push(0);
    let mut base = 0u64;
    for (i, meta) in man.table.iter().enumerate() {
        let arena = map_shard(meta, i)?;
        // Rebase shard-local offsets back onto the global arena.
        offsets.extend(arena.offsets()[1..].iter().map(|&o| base + o));
        hubs.extend_from_slice(arena.hubs());
        dists.extend_from_slice(arena.dists());
        counts.extend_from_slice(arena.counts());
        base += meta.entries;
    }
    let arena = LabelArena::from_sections(offsets.into(), hubs.into(), dists.into(), counts.into())
        .map_err(|e| bad(&format!("bad label arena: {e}")))?;
    if arena.num_vertices() != man.order.len() {
        return Err(bad("label row count disagrees with the order"));
    }
    let idx = SpcIndex::from_arena(man.order, arena, man.weights, IndexStats::default());
    idx.validate()
        .map_err(|e| bad(&format!("snapshot fails validation: {e}")))?;
    Ok(idx)
}

/// Reads only a snapshot file's first eight bytes — enough for
/// [`crate::serialize::snapshot_kind_name`] dispatch without loading the
/// file, and the crisp error for sub-8-byte files.
pub fn read_magic(path: impl AsRef<Path>) -> io::Result<[u8; 8]> {
    let mut f = std::fs::File::open(path.as_ref())?;
    if f.metadata()?.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "unrecognized snapshot: path is a directory",
        ));
    }
    let mut magic = [0u8; 8];
    f.read_exact(&mut magic).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            bad("unrecognized snapshot: file shorter than the 8-byte magic")
        } else {
            e
        }
    })?;
    Ok(magic)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_pspc, PspcConfig};
    use pspc_graph::generators::barabasi_albert;

    const SHARD_HEADER_BYTES: usize = 72;

    fn build(n: usize, seed: u64) -> SpcIndex {
        let g = barabasi_albert(n, 2, seed);
        build_pspc(&g, &PspcConfig::default()).0
    }

    fn temp_manifest(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pspc-shard-{}-{}", std::process::id(), name));
        p
    }

    fn cleanup(manifest: &Path, shards: usize) {
        let _ = std::fs::remove_file(manifest);
        for i in 0..shards {
            let _ = std::fs::remove_file(shard_file_path(manifest, i));
        }
    }

    #[test]
    fn sharded_round_trip_parity_owned_and_mapped() {
        let idx = build(200, 17);
        let manifest = temp_manifest("parity");
        // Small target → several shards.
        let shards = write_sharded_index(&idx, &manifest, 2048).unwrap();
        assert!(shards > 1, "expected multiple shards, got {shards}");

        let owned = sharded_to_owned(&manifest).unwrap();
        assert_eq!(owned.label_arena(), idx.label_arena());
        assert_eq!(owned.order(), idx.order());

        let sharded = open_sharded(&manifest, 2).unwrap();
        assert_eq!(sharded.num_shards(), shards);
        assert_eq!(sharded.num_vertices(), 200);
        assert_eq!(
            sharded.num_entries() as usize,
            idx.label_arena().num_entries()
        );
        for (s, t) in [(0u32, 199u32), (3, 99), (50, 51), (7, 7), (199, 0)] {
            assert_eq!(idx.query(s, t), sharded.query(s, t), "({s},{t})");
        }
        // Residency stays within the cap under a scattered load.
        for s in 0..200u32 {
            let _ = sharded.query(s, 199 - s);
            assert!(sharded.resident_shards() <= 2);
        }
        assert!(sharded.total_maps() >= shards as u64);

        // Re-sharding in place to fewer shards leaves the manifest and
        // exactly the new shard files: no stale tail.
        let fewer = write_sharded_index(&idx, &manifest, 4096).unwrap();
        assert!(fewer < shards, "{fewer} vs {shards}");
        let name = |p: &Path| p.file_name().unwrap().to_string_lossy().into_owned();
        let prefix = name(&manifest);
        let mut on_disk: Vec<String> = std::fs::read_dir(manifest.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|f| *f == prefix || f.starts_with(&format!("{prefix}.")))
            .collect();
        on_disk.sort();
        let mut want: Vec<String> = (0..fewer)
            .map(|i| name(&shard_file_path(&manifest, i)))
            .collect();
        want.push(prefix);
        want.sort();
        assert_eq!(on_disk, want);
        let owned = sharded_to_owned(&manifest).unwrap();
        assert_eq!(owned.label_arena(), idx.label_arena());
        assert_eq!(owned.order(), idx.order());
        cleanup(&manifest, shards);
    }

    #[test]
    fn weighted_sharded_round_trip() {
        use crate::builder::build_pspc_with_order;
        use pspc_order::OrderingStrategy;
        let g = barabasi_albert(64, 2, 3);
        let w: Vec<u64> = (0..64u64).map(|i| 1 + i % 4).collect();
        let o = OrderingStrategy::Degree.compute(&g);
        let idx = build_pspc_with_order(&g, o, Some(&w), &PspcConfig::default()).0;
        let manifest = temp_manifest("weighted");
        let shards = write_sharded_index(&idx, &manifest, 1024).unwrap();
        let sharded = open_sharded(&manifest, 1).unwrap();
        assert_eq!(sharded.weights(), idx.weights());
        for (s, t) in [(0u32, 63u32), (7, 31), (12, 12)] {
            assert_eq!(idx.query(s, t), sharded.query(s, t));
        }
        let owned = sharded_to_owned(&manifest).unwrap();
        assert_eq!(owned.weights(), idx.weights());
        cleanup(&manifest, shards);
    }

    #[test]
    fn lru_eviction_is_safe_under_outstanding_reads() {
        let idx = build(150, 5);
        let manifest = temp_manifest("lru");
        let shards = write_sharded_index(&idx, &manifest, 1024).unwrap();
        assert!(shards >= 3);
        let sharded = open_sharded(&manifest, 1).unwrap();
        // Hold an arena from shard 0, then thrash the cache so it evicts.
        let held = sharded.shard_arena(0).unwrap();
        for i in 0..shards {
            let _ = sharded.shard_arena(i).unwrap();
        }
        assert!(sharded.resident_shards() <= 1);
        assert!(sharded.total_evictions() > 0);
        // The held mapping is still fully readable (munmap deferred).
        assert_eq!(held.view(0).len(), idx.labels_of_rank(0).len());
        cleanup(&manifest, shards);
    }

    #[test]
    fn single_shard_and_unlimited_residency() {
        // An empty index is one empty shard, and opens like any other.
        let empty = SpcIndex::new(
            VertexOrder::from_order(vec![]),
            vec![],
            None,
            Default::default(),
        );
        for idx in [build(40, 2), empty] {
            let manifest = temp_manifest("single");
            let shards = write_sharded_index(&idx, &manifest, u64::MAX / 2).unwrap();
            assert_eq!(shards, 1);
            let sharded = open_sharded(&manifest, 0).unwrap();
            assert_eq!(sharded.max_resident(), 1);
            if let Some(last) = idx.num_vertices().checked_sub(1) {
                assert_eq!(idx.query(0, last as u32), sharded.query(0, last as u32));
            }
            let owned = sharded_to_owned(&manifest).unwrap();
            assert_eq!(owned.label_arena(), idx.label_arena());
            cleanup(&manifest, shards);
        }
    }

    #[test]
    fn manifest_truncation_at_every_boundary_errors() {
        let idx = build(80, 7);
        let manifest = temp_manifest("trunc-man");
        let shards = write_sharded_index(&idx, &manifest, 2048).unwrap();
        let bytes = std::fs::read(&manifest).unwrap();
        // Every prefix of the manifest errors — never panics or UB. The
        // manifest is small, so test every length.
        for len in 0..bytes.len() {
            std::fs::write(&manifest, &bytes[..len]).unwrap();
            assert!(open_sharded(&manifest, 2).is_err(), "prefix {len} accepted");
            assert!(
                sharded_to_owned(&manifest).is_err(),
                "prefix {len} accepted"
            );
        }
        // Trailing garbage errors too.
        let mut extended = bytes.clone();
        extended.push(0);
        std::fs::write(&manifest, &extended).unwrap();
        assert!(open_sharded(&manifest, 2).is_err());
        // Restore and confirm it loads again.
        std::fs::write(&manifest, &bytes).unwrap();
        assert!(open_sharded(&manifest, 2).is_ok());
        cleanup(&manifest, shards);
    }

    #[test]
    fn shard_file_truncation_at_section_boundaries_errors() {
        let idx = build(80, 8);
        let manifest = temp_manifest("trunc-shard");
        let shards = write_sharded_index(&idx, &manifest, 2048).unwrap();
        let shard0 = shard_file_path(&manifest, 0);
        let bytes = std::fs::read(&shard0).unwrap();
        // Section boundaries ± jitter, plus header cuts.
        let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let mut cuts = vec![0usize, 7, 8, SHARD_HEADER_BYTES - 1, SHARD_HEADER_BYTES];
        let mut at = SHARD_HEADER_BYTES;
        for i in 0..4 {
            at += u64_at(40 + 8 * i) as usize;
            for j in [-2i64, -1, 0, 1, 2] {
                let c = (at as i64 + j).clamp(0, bytes.len() as i64) as usize;
                if c < bytes.len() {
                    cuts.push(c);
                }
            }
        }
        for len in cuts {
            std::fs::write(&shard0, &bytes[..len]).unwrap();
            assert!(open_sharded(&manifest, 2).is_err(), "cut at {len} accepted");
            assert!(
                sharded_to_owned(&manifest).is_err(),
                "cut at {len} accepted"
            );
        }
        // Trailing garbage on a shard errors.
        let mut extended = bytes.clone();
        extended.push(0);
        std::fs::write(&shard0, &extended).unwrap();
        assert!(open_sharded(&manifest, 2).is_err());
        // A missing shard file errors.
        std::fs::remove_file(&shard0).unwrap();
        assert!(open_sharded(&manifest, 2).is_err());
        // Restore: loads again.
        std::fs::write(&shard0, &bytes).unwrap();
        assert!(open_sharded(&manifest, 2).is_ok());
        cleanup(&manifest, shards);
    }

    #[test]
    fn shard_header_mismatch_with_manifest_errors() {
        let idx = build(60, 4);
        let manifest = temp_manifest("mismatch");
        let shards = write_sharded_index(&idx, &manifest, 1024).unwrap();
        assert!(shards >= 2);
        // Swap two shard files: headers carry their index, so both fail
        // the manifest cross-check.
        let p0 = shard_file_path(&manifest, 0);
        let p1 = shard_file_path(&manifest, 1);
        let (b0, b1) = (std::fs::read(&p0).unwrap(), std::fs::read(&p1).unwrap());
        std::fs::write(&p0, &b1).unwrap();
        std::fs::write(&p1, &b0).unwrap();
        assert!(open_sharded(&manifest, 2).is_err());
        std::fs::write(&p0, &b0).unwrap();
        std::fs::write(&p1, &b1).unwrap();
        assert!(open_sharded(&manifest, 2).is_ok());
        cleanup(&manifest, shards);
    }

    #[test]
    fn read_magic_errors_are_crisp() {
        let p = temp_manifest("magic-short");
        std::fs::write(&p, b"PSPC").unwrap();
        let err = read_magic(&p).unwrap_err();
        assert!(err.to_string().contains("unrecognized snapshot"), "{err}");
        std::fs::remove_file(&p).unwrap();
        let err = read_magic(std::env::temp_dir()).unwrap_err();
        assert!(err.to_string().contains("directory"), "{err}");
    }

    #[test]
    fn atomic_write_leaves_no_partial_file() {
        let p = temp_manifest("atomic");
        let err = write_atomically(&p, |_| Err(io::Error::other("boom")));
        assert!(err.is_err());
        assert!(!p.exists(), "failed write must not leave the final file");
        let mut tmp = p.as_os_str().to_os_string();
        tmp.push(".tmp");
        assert!(!PathBuf::from(tmp).exists(), "temp file must be cleaned up");
    }

    /// Files in `p`'s directory whose names extend `p`'s: temp files.
    fn temp_siblings(p: &Path) -> Vec<String> {
        let name = p.file_name().unwrap().to_str().unwrap();
        std::fs::read_dir(p.parent().unwrap())
            .unwrap()
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|f| f.starts_with(name) && f != name)
            .collect()
    }

    #[test]
    fn concurrent_atomic_writes_to_one_path_both_succeed() {
        let p = temp_manifest("atomic-race");
        assert!(write_atomically(&p, |_| Err(io::Error::other("boom"))).is_err());
        assert_eq!(temp_siblings(&p), Vec::<String>::new());
        // Both writers hold their temp files open before either renames.
        let barrier = std::sync::Barrier::new(2);
        let payloads = [vec![b'a'; 1 << 16], vec![b'b'; 1 << 16]];
        let results: Vec<io::Result<()>> = std::thread::scope(|s| {
            let writers: Vec<_> = payloads
                .iter()
                .map(|bytes| {
                    let (p, barrier) = (&p, &barrier);
                    s.spawn(move || {
                        write_atomically(p, |f| {
                            f.write_all(bytes)?;
                            barrier.wait();
                            Ok(())
                        })
                    })
                })
                .collect();
            writers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for r in &results {
            assert!(r.is_ok(), "{r:?}");
        }
        let written = std::fs::read(&p).unwrap();
        assert!(
            payloads.contains(&written),
            "file must be one writer's bytes"
        );
        assert_eq!(temp_siblings(&p), Vec::<String>::new());
        std::fs::remove_file(&p).unwrap();
    }
}
