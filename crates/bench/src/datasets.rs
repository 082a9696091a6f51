//! Synthetic stand-ins for the paper's ten datasets (Table III).
//!
//! The real graphs (SNAP / KONECT / LAW) are not redistributable and far
//! exceed this environment; each stand-in matches the *family* of degree
//! structure (scale-free social, web crawl, spatial, community) and
//! preserves the paper's average degree and the relative size ordering at
//! roughly 1/150 scale. `scale` multiplies the vertex
//! count; every generator is seeded, so workloads are reproducible.

use pspc_graph::components::connect_components;
use pspc_graph::generators::*;
use pspc_graph::{Graph, GraphStats};

/// One dataset row of Table III.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DatasetSpec {
    /// Two-letter code used throughout the paper's figures.
    pub code: &'static str,
    /// Full dataset name.
    pub name: &'static str,
    /// `|V|` in the paper.
    pub paper_vertices: usize,
    /// `|E|` in the paper.
    pub paper_edges: usize,
    /// `d_avg` in the paper.
    pub paper_avg_degree: f64,
    /// Base vertex count of the stand-in at `scale = 1.0`.
    pub base_vertices: usize,
    /// Generator family used for the stand-in.
    pub family: Family,
}

/// Generator family of a stand-in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Barabási–Albert preferential attachment (social networks).
    ScaleFree,
    /// Chung–Lu power-law with matched average degree (heavy-tailed,
    /// dense interaction networks).
    PowerLaw,
    /// R-MAT (web crawls).
    Web,
    /// Planted partition (coauthorship communities).
    Community,
    /// Random geometric (location-based social network).
    Spatial,
}

/// The ten rows of Table III, in the paper's order.
#[rustfmt::skip]
pub const DATASETS: [DatasetSpec; 10] = [
    DatasetSpec { code: "FB", name: "Facebook", paper_vertices: 63_731, paper_edges: 817_035, paper_avg_degree: 25.6, base_vertices: 2_000, family: Family::ScaleFree },
    DatasetSpec { code: "GW", name: "Gowalla", paper_vertices: 196_591, paper_edges: 950_327, paper_avg_degree: 9.7, base_vertices: 4_000, family: Family::Spatial },
    DatasetSpec { code: "WI", name: "WikiConflict", paper_vertices: 118_100, paper_edges: 2_027_871, paper_avg_degree: 34.3, base_vertices: 2_800, family: Family::PowerLaw },
    DatasetSpec { code: "GO", name: "Google", paper_vertices: 875_713, paper_edges: 4_322_051, paper_avg_degree: 9.9, base_vertices: 8_000, family: Family::Web },
    DatasetSpec { code: "DB", name: "DBLP", paper_vertices: 1_314_050, paper_edges: 5_326_414, paper_avg_degree: 8.1, base_vertices: 5_000, family: Family::Community },
    DatasetSpec { code: "BE", name: "Berkstan", paper_vertices: 685_230, paper_edges: 6_649_470, paper_avg_degree: 19.4, base_vertices: 6_500, family: Family::Web },
    DatasetSpec { code: "YT", name: "Youtube", paper_vertices: 3_223_589, paper_edges: 9_375_374, paper_avg_degree: 5.8, base_vertices: 16_000, family: Family::ScaleFree },
    DatasetSpec { code: "PE", name: "Petster", paper_vertices: 623_766, paper_edges: 15_695_166, paper_avg_degree: 50.3, base_vertices: 5_000, family: Family::PowerLaw },
    DatasetSpec { code: "FL", name: "Flickr", paper_vertices: 2_302_925, paper_edges: 22_838_276, paper_avg_degree: 19.8, base_vertices: 6_000, family: Family::ScaleFree },
    DatasetSpec { code: "IN", name: "Indochina", paper_vertices: 7_414_866, paper_edges: 150_984_819, paper_avg_degree: 40.7, base_vertices: 18_000, family: Family::Web },
];

impl DatasetSpec {
    /// Looks a dataset up by its two-letter code (case-insensitive).
    pub fn by_code(code: &str) -> Option<&'static DatasetSpec> {
        DATASETS.iter().find(|d| d.code.eq_ignore_ascii_case(code))
    }

    /// Generates the stand-in graph at the given scale (vertex count =
    /// `base_vertices × scale`, average degree as in the paper). The graph
    /// is connected (components are linked if the generator fragments).
    pub fn generate(&self, scale: f64) -> Graph {
        assert!(scale > 0.0, "scale must be positive");
        let n = ((self.base_vertices as f64 * scale) as usize).max(32);
        let seed = seed_for(self.code);
        let g = match self.family {
            Family::ScaleFree => {
                let m = ((self.paper_avg_degree / 2.0).round() as usize).max(1);
                barabasi_albert(n, m, seed)
            }
            Family::PowerLaw => chung_lu_power_law(n, self.paper_avg_degree, 2.3, seed),
            Family::Web => {
                let m = ((n as f64 * self.paper_avg_degree) / 2.0) as usize;
                let max_m = n * (n - 1) / 2;
                rmat(n, m.min(max_m / 2), RmatParams::default(), seed)
            }
            Family::Community => {
                let blocks = (n / 250).max(2);
                planted_partition(
                    n,
                    blocks,
                    self.paper_avg_degree * 0.8,
                    self.paper_avg_degree * 0.2,
                    seed,
                )
            }
            Family::Spatial => {
                // radius chosen so E[deg] = π r² n ≈ paper_avg_degree
                let r = (self.paper_avg_degree / (std::f64::consts::PI * n as f64)).sqrt();
                random_geometric(n, r.min(0.5), seed)
            }
        };
        connect_components(&g)
    }

    /// Convenience: generated stats at a scale.
    pub fn stats(&self, scale: f64) -> GraphStats {
        GraphStats::compute(&self.generate(scale))
    }
}

fn seed_for(code: &str) -> u64 {
    // Stable per-dataset seed derived from the code bytes.
    code.bytes().fold(0xC0FFEE_u64, |acc, b| {
        acc.wrapping_mul(31).wrapping_add(b as u64)
    })
}

/// The four datasets used in the paper's scalability and ablation plots
/// (Figs. 8–12): FB, GO, GW, WI.
pub fn scalability_set() -> Vec<&'static DatasetSpec> {
    ["FB", "GO", "GW", "WI"]
        .iter()
        .map(|c| DatasetSpec::by_code(c).expect("known code"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pspc_graph::components::is_connected;

    #[test]
    fn all_specs_generate_connected_graphs() {
        for d in &DATASETS {
            let g = d.generate(0.05);
            assert!(g.num_vertices() >= 32, "{}: too few vertices", d.code);
            assert!(is_connected(&g), "{}: disconnected", d.code);
            assert!(g.validate().is_ok(), "{}: invalid", d.code);
        }
    }

    #[test]
    fn average_degree_in_ballpark() {
        for d in &DATASETS {
            let g = d.generate(0.25);
            let ratio = g.avg_degree() / d.paper_avg_degree;
            assert!(
                (0.4..2.0).contains(&ratio),
                "{}: avg degree {:.1} vs paper {:.1}",
                d.code,
                g.avg_degree(),
                d.paper_avg_degree
            );
        }
    }

    #[test]
    fn lookup_by_code() {
        assert_eq!(DatasetSpec::by_code("fb").unwrap().name, "Facebook");
        assert!(DatasetSpec::by_code("XX").is_none());
    }

    #[test]
    fn deterministic_generation() {
        let d = DatasetSpec::by_code("FB").unwrap();
        assert_eq!(d.generate(0.1), d.generate(0.1));
    }

    #[test]
    fn size_ordering_matches_paper() {
        // Stand-ins preserve the relative edge-count ordering of Table III
        // (roughly; at least the largest and smallest are right).
        let sizes: Vec<usize> = DATASETS
            .iter()
            .map(|d| d.generate(0.05).num_edges())
            .collect();
        let max = sizes.iter().enumerate().max_by_key(|(_, &s)| s).unwrap().0;
        assert_eq!(DATASETS[max].code, "IN");
    }

    #[test]
    fn scalability_set_is_fig8() {
        let s = scalability_set();
        let codes: Vec<&str> = s.iter().map(|d| d.code).collect();
        assert_eq!(codes, vec!["FB", "GO", "GW", "WI"]);
    }
}
