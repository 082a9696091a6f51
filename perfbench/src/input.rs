//! Everything the program under test is fed, generated from the seed:
//! graphs, query pairs, Zipf popularity and held-out edges. The same
//! seed always yields the same inputs.

use pspc_graph::generators::{barabasi_albert, perturbed_grid};
use pspc_graph::{Graph, GraphBuilder, VertexId};

/// Vertices of the social stand-in (the FB dataset at scale 2.0).
pub const SOCIAL_N: usize = 4_000;
/// BA attachment degree of the FB stand-in (paper average degree 25.6).
pub const SOCIAL_ATTACH: usize = 13;
/// Side of the perturbed road grid.
pub const ROAD_SIDE: usize = 140;
/// Pairs per binary query request.
pub const BATCH: usize = 64;

/// SplitMix64: tiny, seedable and good enough for workload generation.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one purpose, so adding a draw in one
    /// place never shifts the inputs of another.
    pub fn stream(seed: u64, purpose: u64) -> Self {
        let mut r = Rng(seed ^ purpose.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The FB stand-in: Barabási–Albert, n = 4,000, m ≈ 51.9k.
pub fn social(seed: u64) -> Graph {
    barabasi_albert(SOCIAL_N, SOCIAL_ATTACH, seed)
}

/// The road stand-in: a 140 × 140 grid with 5% of edges deleted and 5%
/// diagonals added (largest component kept).
pub fn road(seed: u64) -> Graph {
    perturbed_grid(ROAD_SIDE, ROAD_SIDE, 0.05, 0.05, seed)
}

/// Splits off the last `k` edges of `g` (in `Graph::edges` order):
/// returns the remaining graph and the removed edges, in order.
pub fn hold_out(g: &Graph, k: usize) -> (Graph, Vec<(VertexId, VertexId)>) {
    let mut edges: Vec<_> = g.edges().collect();
    let held = edges.split_off(edges.len().saturating_sub(k));
    let rest = GraphBuilder::new()
        .num_vertices(g.num_vertices())
        .edges(edges)
        .build();
    (rest, held)
}

/// `count` uniformly random pairs over `n` vertices.
pub fn uniform_pairs(n: usize, count: usize, rng: &mut Rng) -> Vec<(VertexId, VertexId)> {
    (0..count)
        .map(|_| (rng.below(n) as VertexId, rng.below(n) as VertexId))
        .collect()
}

/// `per_source` targets from each of `sources` random sources: pairs
/// the BFS oracle can check with one traversal per source.
pub fn oracle_pairs(
    n: usize,
    sources: usize,
    per_source: usize,
    rng: &mut Rng,
) -> Vec<(VertexId, VertexId)> {
    let mut out = Vec::with_capacity(sources * per_source);
    for _ in 0..sources {
        let s = rng.below(n) as VertexId;
        out.extend((0..per_source).map(|_| (s, rng.below(n) as VertexId)));
    }
    out
}

/// Zipf(θ) over ranks `0..k`: rank `i` is drawn with weight `1/(i+1)^θ`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(k: usize, theta: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..k)
            .map(|i| {
                acc += 1.0 / ((i + 1) as f64).powf(theta);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// How a load thread picks the pairs of its next request out of a pair
/// universe.
pub enum Sampler {
    /// A random aligned block of [`BATCH`] consecutive pairs.
    Blocks,
    /// [`BATCH`] independent Zipf draws (universe index = popularity rank).
    Zipf(Zipf),
}

/// A pair universe plus the rule requests are drawn from it by.
pub struct Source<'a> {
    pub pairs: &'a [(VertexId, VertexId)],
    pub sampler: &'a Sampler,
}

impl Source<'_> {
    /// Fills `idx` with the universe indices and `out` with the pairs of
    /// one request.
    pub fn next_batch(
        &self,
        rng: &mut Rng,
        idx: &mut Vec<u32>,
        out: &mut Vec<(VertexId, VertexId)>,
    ) {
        idx.clear();
        match self.sampler {
            Sampler::Blocks => {
                let start = rng.below(self.pairs.len() / BATCH) * BATCH;
                idx.extend((start..start + BATCH).map(|i| i as u32));
            }
            Sampler::Zipf(z) => idx.extend((0..BATCH).map(|_| z.sample(rng) as u32)),
        }
        out.clear();
        out.extend(idx.iter().map(|&i| self.pairs[i as usize]));
    }
}

/// BFS distances (`u16::MAX` = unreachable) for every pair, one traversal
/// per distinct source.
pub fn bfs_pair_distances(g: &Graph, pairs: &[(VertexId, VertexId)]) -> Vec<u16> {
    let mut by_source: Vec<u32> = (0..pairs.len() as u32).collect();
    by_source.sort_unstable_by_key(|&i| pairs[i as usize].0);
    let mut out = vec![0u16; pairs.len()];
    let mut dist = vec![0u16; g.num_vertices()];
    let mut current = None;
    for i in by_source {
        let (s, t) = pairs[i as usize];
        if current != Some(s) {
            pspc_graph::traversal::bfs_distances_into(g, s, &mut dist);
            current = Some(s);
        }
        out[i as usize] = dist[t as usize];
    }
    out
}
