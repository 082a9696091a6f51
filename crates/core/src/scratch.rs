//! Versioned per-thread scratch arrays.
//!
//! The hot loops of both builders repeatedly need "hash map keyed by hub
//! rank" semantics (load a vertex's label, probe candidates, accumulate
//! counts). A dense array indexed by rank with a version stamp gives O(1)
//! probes and O(1) reset without clearing `n` slots per use — the classic
//! labeling-implementation trick.
//!
//! [`DistScratch`] packs each slot into one `u32`: the 16-bit version stamp
//! above the 16-bit distance. XOR-ing a slot with the current stamp leaves
//! the distance if the slot is live and a value of at least 2^16 if it is
//! stale, so [`DistScratch::sum_below`] answers a pruning test
//! `dist(h) + extra < bound` (for any `bound ≤ 2^16`) with one load and
//! no data-dependent branch. Stamps are 16 bits, so every slot is wiped
//! once per 65,535 clears.

use crate::label::Count;
use parking_lot::Mutex;

/// Dense `rank -> u16` map with O(1) reset, used for 2-hop distance probes.
#[derive(Debug)]
pub struct DistScratch {
    /// Current stamp, in `1..=u16::MAX`; stamp 0 marks a wiped slot.
    version: u32,
    /// `stamp << 16 | dist` per rank.
    slot: Vec<u32>,
}

impl DistScratch {
    /// Creates an empty scratch for ranks `0..n`.
    pub fn new(n: usize) -> Self {
        DistScratch {
            version: 1,
            slot: vec![0; n],
        }
    }

    /// Invalidates all entries in O(1), and every slot in O(n) once per
    /// 65,535 calls, before the 16-bit stamp would repeat.
    pub fn clear(&mut self) {
        if self.version == u16::MAX as u32 {
            self.slot.fill(0);
            self.version = 1;
        } else {
            self.version += 1;
        }
    }

    #[inline]
    fn tag(&self) -> u32 {
        self.version << 16
    }

    /// Sets `dist(h) = d`.
    #[inline]
    pub fn set(&mut self, h: u32, d: u16) {
        self.slot[h as usize] = self.tag() | d as u32;
    }

    /// Distance for `h`, if set since the last [`DistScratch::clear`].
    #[inline]
    pub fn get(&self, h: u32) -> Option<u16> {
        u16::try_from(self.slot[h as usize] ^ self.tag()).ok()
    }

    /// Whether `h` is present.
    #[inline]
    pub fn contains(&self, h: u32) -> bool {
        self.slot[h as usize] >> 16 == self.version
    }

    /// Whether `h` is present with `dist(h) + extra < bound`, for any
    /// `bound ≤ 2^16`. Branch-free: a stale slot XORs to at least 2^16, and
    /// the sum is taken in `u64`, so nothing wraps.
    #[inline]
    pub fn sum_below(&self, h: u32, extra: u16, bound: u32) -> bool {
        debug_assert!(bound <= 1 << 16, "bound {bound} exceeds 2^16");
        ((self.slot[h as usize] ^ self.tag()) as u64 + extra as u64) < bound as u64
    }
}

/// Dense `rank -> Count` accumulator with a touch list — implements the
/// paper's *Label Merging* (duplicate candidates for the same hub are summed
/// in place) while the touch list preserves discovery order for
/// deterministic iteration.
#[derive(Debug)]
pub struct CandScratch {
    version: u32,
    stamp: Vec<u32>,
    count: Vec<Count>,
    touched: Vec<u32>,
}

impl CandScratch {
    /// Creates an accumulator for ranks `0..n`.
    pub fn new(n: usize) -> Self {
        CandScratch {
            version: 0,
            stamp: vec![0; n],
            count: vec![0; n],
            touched: Vec::new(),
        }
    }

    /// Drops all candidates in O(touched).
    pub fn clear(&mut self) {
        self.touched.clear();
        self.version = self.version.wrapping_add(1);
        if self.version == 0 {
            self.stamp.fill(0);
            self.version = 1;
        }
    }

    /// Adds `c` paths for hub `h` (Label Merging).
    #[inline]
    pub fn add(&mut self, h: u32, c: Count) {
        if self.stamp[h as usize] == self.version {
            self.count[h as usize] = self.count[h as usize].saturating_add(c);
        } else {
            self.stamp[h as usize] = self.version;
            self.count[h as usize] = c;
            self.touched.push(h);
        }
    }

    /// Number of distinct hubs accumulated.
    pub fn len(&self) -> usize {
        self.touched.len()
    }

    /// Whether no candidates are present.
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// Distinct hubs in first-touch order.
    pub fn touched(&self) -> &[u32] {
        &self.touched
    }

    /// Accumulated count for hub `h` (0 if untouched).
    #[inline]
    pub fn count(&self, h: u32) -> Count {
        if self.stamp[h as usize] == self.version {
            self.count[h as usize]
        } else {
            0
        }
    }
}

/// Combined per-thread workspace for one propagation task.
#[derive(Debug)]
pub struct Workspace {
    /// Distance probes for the vertex currently being processed.
    pub dist: DistScratch,
    /// Candidate accumulator.
    pub cand: CandScratch,
}

impl Workspace {
    /// Creates a workspace for ranks `0..n`.
    pub fn new(n: usize) -> Self {
        Workspace {
            dist: DistScratch::new(n),
            cand: CandScratch::new(n),
        }
    }
}

/// Checkout/return pool of workspaces shared across a rayon pool.
pub struct WorkspacePool {
    n: usize,
    free: Mutex<Vec<Workspace>>,
}

impl WorkspacePool {
    /// Creates an empty pool for ranks `0..n`.
    pub fn new(n: usize) -> Self {
        WorkspacePool {
            n,
            free: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` with a checked-out workspace (allocating one if the pool is
    /// dry), returning it afterwards.
    pub fn with<R>(&self, f: impl FnOnce(&mut Workspace) -> R) -> R {
        let mut ws = self
            .free
            .lock()
            .pop()
            .unwrap_or_else(|| Workspace::new(self.n));
        let r = f(&mut ws);
        self.free.lock().push(ws);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_scratch_versioning() {
        let mut s = DistScratch::new(4);
        assert_eq!(s.get(2), None, "a new scratch is empty");
        s.clear();
        s.set(2, 7);
        assert_eq!(s.get(2), Some(7));
        assert_eq!(s.get(1), None);
        s.clear();
        assert_eq!(s.get(2), None);
    }

    #[test]
    fn dist_scratch_stale_slot_survives_stamp_wrap() {
        // A slot set once must read as absent after every later clear,
        // across the wipe that recycles the 16-bit stamps.
        let mut s = DistScratch::new(3);
        s.set(1, 9);
        for i in 0..2 * u16::MAX as u32 + 3 {
            s.clear();
            assert!(!s.contains(1), "clear {i}");
            assert_eq!(s.get(1), None, "clear {i}");
            assert!(!s.sum_below(1, 0, 1 << 16), "clear {i}");
        }
    }

    #[test]
    fn sum_below_agrees_with_get() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let n = 16u32;
        let mut s = DistScratch::new(n as usize);
        for _ in 0..400 {
            match rng.gen_range(0..10u32) {
                0 => s.clear(),
                1..=5 => {
                    let d = if rng.gen_bool(0.2) {
                        u16::MAX
                    } else {
                        rng.gen_range(0..64u16)
                    };
                    s.set(rng.gen_range(0..n), d);
                }
                _ => {
                    let h = rng.gen_range(0..n);
                    let extra = if rng.gen_bool(0.2) {
                        u16::MAX
                    } else {
                        rng.gen_range(0..64u16)
                    };
                    for bound in 0..=1u32 << 16 {
                        let want = s
                            .get(h)
                            .is_some_and(|dh| (dh as u32 + extra as u32) < bound);
                        assert_eq!(s.sum_below(h, extra, bound), want, "h={h} bound={bound}");
                    }
                }
            }
        }
    }

    #[test]
    fn stale_slot_never_passes_at_the_extremes() {
        let mut s = DistScratch::new(2);
        s.set(0, u16::MAX);
        assert!(!s.sum_below(0, u16::MAX, 1 << 16), "live but too far");
        s.clear();
        assert!(!s.sum_below(0, 0, 1 << 16));
        assert!(!s.sum_below(0, u16::MAX, 1 << 16));
        assert!(!s.sum_below(1, u16::MAX, 1 << 16), "never-set slot");
        s.set(1, 0);
        assert!(s.sum_below(1, u16::MAX, 1 << 16), "0 + 65535 < 65536");
    }

    #[test]
    fn cand_scratch_merges() {
        let mut c = CandScratch::new(4);
        c.clear();
        c.add(1, 3);
        c.add(1, 4);
        c.add(2, 1);
        assert_eq!(c.count(1), 7);
        assert_eq!(c.count(2), 1);
        assert_eq!(c.touched(), &[1, 2]);
        assert_eq!(c.len(), 2);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.count(1), 0);
    }

    #[test]
    fn cand_scratch_saturates() {
        let mut c = CandScratch::new(2);
        c.clear();
        c.add(0, Count::MAX - 1);
        c.add(0, 5);
        assert_eq!(c.count(0), Count::MAX);
    }

    #[test]
    fn pool_reuses_workspaces() {
        let pool = WorkspacePool::new(8);
        pool.with(|w| {
            w.cand.clear();
            w.cand.add(3, 1);
        });
        pool.with(|w| {
            // Stale state must be cleared by the user before use; the pool
            // only guarantees capacity.
            w.cand.clear();
            assert!(w.cand.is_empty());
        });
    }
}
