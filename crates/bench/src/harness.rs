//! Experiment-harness utilities: CLI options, timers, query workloads and
//! the fixed-width table/series printers used by every `exp*` binary.

use pspc_graph::{Graph, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Options common to all experiment binaries, parsed from `std::env::args`.
///
/// Supported flags: `--scale <f64>`, `--threads <usize>`,
/// `--queries <usize>`, `--datasets CODE,CODE,...`, `--help`.
#[derive(Clone, Debug)]
pub struct ExpOptions {
    /// Vertex-count multiplier for every dataset (default 1.0).
    pub scale: f64,
    /// Max worker threads (0 = all available).
    pub threads: usize,
    /// Number of random queries for query-time experiments.
    pub queries: usize,
    /// Restrict to these dataset codes (empty = experiment default).
    pub datasets: Vec<String>,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            scale: 1.0,
            threads: 0,
            queries: 100_000,
            datasets: Vec::new(),
        }
    }
}

impl ExpOptions {
    /// Parses process arguments; exits with usage text on `--help` or a
    /// malformed flag.
    pub fn from_args() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parses an explicit argument list (testable).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Self {
        let mut opt = ExpOptions::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            let mut value = |flag: &str| {
                it.next().unwrap_or_else(|| {
                    eprintln!("missing value for {flag}");
                    std::process::exit(2);
                })
            };
            match a.as_str() {
                "--scale" => opt.scale = value("--scale").parse().expect("bad --scale"),
                "--threads" => opt.threads = value("--threads").parse().expect("bad --threads"),
                "--queries" => opt.queries = value("--queries").parse().expect("bad --queries"),
                "--datasets" => {
                    opt.datasets = value("--datasets")
                        .split(',')
                        .map(|s| s.trim().to_uppercase())
                        .filter(|s| !s.is_empty())
                        .collect();
                }
                "--help" | "-h" => {
                    eprintln!("options: --scale <f> --threads <n> --queries <n> --datasets A,B,..");
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown flag {other} (see --help)");
                    std::process::exit(2);
                }
            }
        }
        opt
    }
}

/// Wall-clock timer returning seconds.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Deterministic random query pairs over `g`'s vertex set.
pub fn random_pairs(g: &Graph, count: usize, seed: u64) -> Vec<(VertexId, VertexId)> {
    let n = g.num_vertices() as u32;
    assert!(n > 0, "graph must be non-empty");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect()
}

/// Prints a fixed-width table: header row then rows; first column
/// left-aligned, the rest right-aligned.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i == 0 {
                s.push_str(&format!("{:<w$}  ", c, w = widths[0]));
            } else {
                s.push_str(&format!("{:>w$}  ", c, w = widths[i]));
            }
        }
        println!("{}", s.trim_end());
    };
    line(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Prints one `(x, y)` series per row — the shape of the paper's
/// speedup/sweep figures.
pub fn print_series(title: &str, x_label: &str, xs: &[String], series: &[(String, Vec<String>)]) {
    let mut header: Vec<&str> = vec![x_label];
    for (name, _) in series {
        header.push(name);
    }
    let rows: Vec<Vec<String>> = xs
        .iter()
        .enumerate()
        .map(|(i, x)| {
            let mut row = vec![x.clone()];
            for (_, ys) in series {
                row.push(ys.get(i).cloned().unwrap_or_default());
            }
            row
        })
        .collect();
    print_table(title, &header, &rows);
}

/// Formats seconds with adaptive precision.
pub fn fmt_secs(s: f64) -> String {
    if s < 0.001 {
        format!("{:.1}us", s * 1e6)
    } else if s < 1.0 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{s:.2}s")
    }
}

/// Formats bytes as MiB with two decimals.
pub fn fmt_mib(bytes: usize) -> String {
    format!("{:.2}", bytes as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pspc_graph::GraphBuilder;

    #[test]
    fn parse_options() {
        let o = ExpOptions::parse(
            ["--scale", "0.5", "--threads", "4", "--datasets", "fb, go"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(o.scale, 0.5);
        assert_eq!(o.threads, 4);
        assert_eq!(o.datasets, vec!["FB", "GO"]);
        assert_eq!(o.queries, 100_000);
    }

    #[test]
    fn random_pairs_deterministic_and_in_range() {
        let g = GraphBuilder::new().edges([(0, 1), (1, 2)]).build();
        let a = random_pairs(&g, 50, 7);
        let b = random_pairs(&g, 50, 7);
        assert_eq!(a, b);
        assert!(a.iter().all(|&(s, t)| s < 3 && t < 3));
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_secs(0.0000005), "0.5us");
        assert_eq!(fmt_secs(0.5), "500.0ms");
        assert_eq!(fmt_secs(2.0), "2.00s");
        assert_eq!(fmt_mib(1024 * 1024), "1.00");
    }
}
