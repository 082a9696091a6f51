//! Seeded random-graph generators used as stand-ins for the paper's ten
//! real datasets, which are not redistributable: each generator reproduces
//! one family of degree structure (scale-free social, web, spatial,
//! community), and `pspc_bench::datasets` maps every dataset to one.
//!
//! Every generator is deterministic for a given seed and returns a
//! normalized [`crate::csr::Graph`] (no self-loops, no duplicate edges,
//! symmetric). Generators that can produce disconnected graphs expose the
//! raw result; callers typically pipe through
//! [`crate::components::connect_components`] or
//! [`crate::components::extract_largest_component`].

mod ba;
mod chung_lu;
mod er;
mod geometric;
mod grid;
mod rmat;
mod sbm;
mod ws;

pub use ba::barabasi_albert;
pub use chung_lu::chung_lu_power_law;
pub use er::erdos_renyi;
pub use geometric::random_geometric;
pub use grid::{grid2d, perturbed_grid};
pub use rmat::{rmat, RmatParams};
pub use sbm::planted_partition;
pub use ws::watts_strogatz;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::is_connected;

    #[test]
    fn all_generators_validate() {
        let gs = vec![
            erdos_renyi(200, 600, 1),
            barabasi_albert(200, 3, 2),
            watts_strogatz(200, 4, 0.1, 3),
            rmat(256, 800, RmatParams::default(), 4),
            chung_lu_power_law(200, 5.0, 2.5, 5),
            planted_partition(200, 4, 8.0, 0.5, 6),
            random_geometric(200, 0.12, 7),
            grid2d(10, 12),
            perturbed_grid(10, 12, 0.1, 0.05, 8),
        ];
        for (i, g) in gs.iter().enumerate() {
            assert!(g.validate().is_ok(), "generator {i} built invalid graph");
            assert!(g.num_edges() > 0, "generator {i} built empty graph");
        }
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(erdos_renyi(100, 300, 42), erdos_renyi(100, 300, 42));
        assert_eq!(barabasi_albert(100, 2, 42), barabasi_albert(100, 2, 42));
        assert_eq!(
            chung_lu_power_law(100, 4.0, 2.3, 42),
            chung_lu_power_law(100, 4.0, 2.3, 42)
        );
        assert_eq!(
            rmat(128, 400, RmatParams::default(), 42),
            rmat(128, 400, RmatParams::default(), 42)
        );
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(erdos_renyi(100, 300, 1), erdos_renyi(100, 300, 2));
    }

    #[test]
    fn ba_and_ws_connected_by_construction() {
        assert!(is_connected(&barabasi_albert(300, 2, 9)));
        assert!(is_connected(&watts_strogatz(300, 4, 0.05, 9)));
        assert!(is_connected(&grid2d(7, 9)));
    }
}
