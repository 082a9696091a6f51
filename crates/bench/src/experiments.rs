//! Implementations of every experiment in the paper's evaluation (§V).
//!
//! Each function prints the same rows/series the corresponding figure or
//! table reports; the `exp*` binaries are thin wrappers. Absolute numbers
//! differ from the paper (synthetic stand-in datasets, far fewer cores than
//! its 20); the *shapes* — orderings and trends across datasets, thread
//! counts and ablations — are what should match.

use crate::datasets::{DatasetSpec, DATASETS};
use crate::harness::*;
use pspc_core::builder::schedule::WorkModel;
use pspc_core::builder::{build_pspc, PspcConfig, SchedulePlan};
use pspc_core::hpspc::build_hpspc;
use pspc_core::SpcIndex;
use pspc_graph::GraphStats;
use pspc_order::OrderingStrategy;

/// Threads axis used by the paper's scalability plots (Figs. 8–9).
pub const THREAD_AXIS: [usize; 8] = [1, 2, 4, 6, 8, 12, 16, 20];

fn selected<'a>(opt: &ExpOptions, default_codes: &[&str]) -> Vec<&'a DatasetSpec> {
    let codes: Vec<String> = if opt.datasets.is_empty() {
        default_codes.iter().map(|s| s.to_string()).collect()
    } else {
        opt.datasets.clone()
    };
    codes
        .iter()
        .map(|c| {
            DatasetSpec::by_code(c).unwrap_or_else(|| {
                eprintln!("unknown dataset code {c}");
                std::process::exit(2);
            })
        })
        .collect()
}

fn all_codes() -> Vec<&'static str> {
    DATASETS.iter().map(|d| d.code).collect()
}

/// Default PSPC configuration used across experiments (paper defaults:
/// hybrid order δ=5, 100 landmarks, dynamic schedule, pull paradigm).
pub fn default_pspc(threads: usize) -> PspcConfig {
    PspcConfig {
        threads,
        ..PspcConfig::default()
    }
}

/// The HP-SPC baseline configuration: its strongest (significant-path)
/// order, as in the original paper.
pub fn hpspc_order() -> OrderingStrategy {
    OrderingStrategy::SignificantPath
}

// ---------------------------------------------------------------- Table II

/// Prints the hub labeling of the Figure 2 example graph (paper Table II).
pub fn table2_labels() {
    use pspc_core::common::{figure2_graph, figure2_order};
    let g = figure2_graph();
    let o = figure2_order();
    let (idx, _) = pspc_core::builder::build_pspc_with_order(
        &g,
        o.clone(),
        None,
        &PspcConfig {
            num_landmarks: 0,
            ..PspcConfig::default()
        },
    );
    let rows: Vec<Vec<String>> = (0..10u32)
        .map(|v| {
            let entries: Vec<String> = idx
                .labels_of_vertex(v)
                .iter()
                .map(|e| format!("(v{}, {}, {})", o.vertex_at(e.hub) + 1, e.dist, e.count))
                .collect();
            vec![format!("v{}", v + 1), entries.join(" ")]
        })
        .collect();
    print_table(
        "Table II: shortest path counting labels of Fig. 2",
        &["Vertex", "L(.)"],
        &rows,
    );
}

// --------------------------------------------------------------- Table III

/// Prints dataset statistics: paper values next to the stand-ins (Table III).
pub fn table3_datasets(opt: &ExpOptions) {
    let rows: Vec<Vec<String>> = selected(opt, &all_codes())
        .iter()
        .map(|d| {
            let g = d.generate(opt.scale);
            let s = GraphStats::compute(&g);
            vec![
                d.code.to_string(),
                d.name.to_string(),
                d.paper_vertices.to_string(),
                d.paper_edges.to_string(),
                format!("{:.1}", d.paper_avg_degree),
                s.num_vertices.to_string(),
                s.num_edges.to_string(),
                format!("{:.1}", s.avg_degree),
                s.diameter_estimate.to_string(),
            ]
        })
        .collect();
    print_table(
        "Table III: datasets (paper vs synthetic stand-in)",
        &[
            "Code",
            "Name",
            "|V| paper",
            "|E| paper",
            "davg",
            "|V| ours",
            "|E| ours",
            "davg ours",
            "diam~",
        ],
        &rows,
    );
}

// ------------------------------------------------------------ Exp 1 & 2 & 3

/// Per-dataset result of one three-algorithm comparison run.
pub struct TriRun {
    /// Dataset code.
    pub code: &'static str,
    /// HP-SPC wall seconds (indexing incl. ordering).
    pub hpspc_secs: f64,
    /// PSPC single-thread wall seconds.
    pub pspc_secs: f64,
    /// PSPC+ multi-thread wall seconds (same machine).
    pub pspc_plus_secs: f64,
    /// PSPC+ modelled seconds at 20 threads (work-model makespan).
    pub pspc_plus_modeled: f64,
    /// Index sizes in bytes (HP-SPC, PSPC, PSPC+).
    pub sizes: [usize; 3],
    /// The PSPC index (for query experiments).
    pub index: SpcIndex,
    /// The HP-SPC index.
    pub hpspc_index: SpcIndex,
}

/// Builds all three algorithm variants on one dataset.
pub fn run_three_algorithms(d: &DatasetSpec, opt: &ExpOptions) -> TriRun {
    let g = d.generate(opt.scale);
    let hpspc_index = build_hpspc(&g, hpspc_order());
    let hpspc_secs = hpspc_index.stats().total_seconds();

    let mut cfg1 = default_pspc(1);
    cfg1.record_work = true;
    let (pspc_index, stats1) = build_pspc(&g, &cfg1);
    let pspc_secs = pspc_index.stats().total_seconds();
    let model = stats1.work_model.as_ref().expect("work recorded");
    let lc = pspc_index.stats().construction_seconds;
    let modeled_lc = lc / model.speedup(20, SchedulePlan::default());
    let pspc_plus_modeled = pspc_index.stats().total_seconds() - lc + modeled_lc;

    let (pspc_plus_index, _) = build_pspc(&g, &default_pspc(opt.threads));
    let pspc_plus_secs = pspc_plus_index.stats().total_seconds();
    assert_eq!(
        pspc_index.label_arena(),
        pspc_plus_index.label_arena(),
        "{}: PSPC and PSPC+ must build identical indexes",
        d.code
    );

    TriRun {
        code: d.code,
        hpspc_secs,
        pspc_secs,
        pspc_plus_secs,
        pspc_plus_modeled,
        sizes: [
            hpspc_index.stats().label_bytes,
            pspc_index.stats().label_bytes,
            pspc_plus_index.stats().label_bytes,
        ],
        index: pspc_index,
        hpspc_index,
    }
}

/// Exp 1 (Fig. 5): indexing time for HP-SPC, PSPC and PSPC+.
pub fn exp1_indexing_time(opt: &ExpOptions) {
    let mut rows = Vec::new();
    for d in selected(opt, &all_codes()) {
        let r = run_three_algorithms(d, opt);
        rows.push(vec![
            r.code.to_string(),
            fmt_secs(r.hpspc_secs),
            fmt_secs(r.pspc_secs),
            fmt_secs(r.pspc_plus_secs),
            fmt_secs(r.pspc_plus_modeled),
        ]);
        eprintln!("[exp1] {} done", r.code);
    }
    print_table(
        "Exp 1 / Fig. 5: indexing time",
        &[
            "Dataset",
            "HP-SPC",
            "PSPC",
            "PSPC+ (wall)",
            "PSPC+ (20t model)",
        ],
        &rows,
    );
}

/// Exp 2 (Fig. 6): index size in MB for the three algorithms.
pub fn exp2_index_size(opt: &ExpOptions) {
    let mut rows = Vec::new();
    for d in selected(opt, &all_codes()) {
        let r = run_three_algorithms(d, opt);
        rows.push(vec![
            r.code.to_string(),
            fmt_mib(r.sizes[0]),
            fmt_mib(r.sizes[1]),
            fmt_mib(r.sizes[2]),
        ]);
        eprintln!("[exp2] {} done", r.code);
    }
    print_table(
        "Exp 2 / Fig. 6: index size (MiB)",
        &["Dataset", "HP-SPC", "PSPC", "PSPC+"],
        &rows,
    );
}

/// Exp 3 (Fig. 7): average query time over random query workloads.
pub fn exp3_query_time(opt: &ExpOptions) {
    let mut rows = Vec::new();
    for d in selected(opt, &all_codes()) {
        let g = d.generate(opt.scale);
        let pairs = random_pairs(&g, opt.queries, 0x9E3779B9);
        let hp = build_hpspc(&g, hpspc_order());
        let (ps, _) = build_pspc(&g, &default_pspc(1));
        let (a1, t_hp) = time(|| hp.query_batch_sequential(&pairs));
        let (a2, t_ps) = time(|| ps.query_batch_sequential(&pairs));
        let (a3, t_pp) = time(|| ps.query_batch(&pairs));
        assert_eq!(a1, a2, "{}: indexes disagree", d.code);
        assert_eq!(a2, a3, "{}: parallel batch disagrees", d.code);
        let us = |t: f64| format!("{:.2}", t / pairs.len() as f64 * 1e6);
        rows.push(vec![d.code.to_string(), us(t_hp), us(t_ps), us(t_pp)]);
        eprintln!("[exp3] {} done", d.code);
    }
    print_table(
        "Exp 3 / Fig. 7: average query time (us/query)",
        &["Dataset", "HP-SPC", "PSPC", "PSPC+ (batch)"],
        &rows,
    );
}

// ----------------------------------------------------------------- Exp 4/5

/// Exp 4 (Fig. 8): indexing speedup vs #threads on FB, GO, GW, WI.
///
/// Wall-clock speedup needs the paper's 20-core testbed, so the work model
/// replays the recorded per-vertex work (see [`WorkModel`] for what it
/// counts) as a makespan simulation under the dynamic schedule.
pub fn exp4_index_speedup(opt: &ExpOptions) {
    let mut series = Vec::new();
    for d in selected(opt, &["FB", "GO", "GW", "WI"]) {
        let g = d.generate(opt.scale);
        let mut cfg = default_pspc(1);
        cfg.record_work = true;
        let (_, stats) = build_pspc(&g, &cfg);
        let model = stats.work_model.expect("work recorded");
        let ys: Vec<String> = THREAD_AXIS
            .iter()
            .map(|&t| format!("{:.2}", model.speedup(t, SchedulePlan::default())))
            .collect();
        series.push((d.code.to_string(), ys));
        eprintln!("[exp4] {} done", d.code);
    }
    let xs: Vec<String> = THREAD_AXIS.iter().map(|t| t.to_string()).collect();
    print_series(
        "Exp 4 / Fig. 8: indexing speedup vs #threads (work model, dynamic schedule)",
        "threads",
        &xs,
        &series,
    );
}

/// Per-query cost model: label scan length of both endpoints.
pub fn query_work_model(idx: &SpcIndex, pairs: &[(u32, u32)]) -> WorkModel {
    let works: Vec<u64> = pairs
        .iter()
        .map(|&(s, t)| (idx.labels_of_vertex(s).len() + idx.labels_of_vertex(t).len()) as u64)
        .collect();
    WorkModel {
        per_iteration: vec![works],
    }
}

/// Exp 4 second panel (Fig. 9): query-batch speedup vs #threads.
pub fn exp5_query_speedup(opt: &ExpOptions) {
    let mut series = Vec::new();
    for d in selected(opt, &["FB", "GO", "GW", "WI"]) {
        let g = d.generate(opt.scale);
        let (idx, _) = build_pspc(&g, &default_pspc(opt.threads));
        let pairs = random_pairs(&g, opt.queries, 0xDEADBEEF);
        let model = query_work_model(&idx, &pairs);
        let ys: Vec<String> = THREAD_AXIS
            .iter()
            .map(|&t| format!("{:.2}", model.speedup(t, SchedulePlan::default())))
            .collect();
        series.push((d.code.to_string(), ys));
        eprintln!("[exp5] {} done", d.code);
    }
    let xs: Vec<String> = THREAD_AXIS.iter().map(|t| t.to_string()).collect();
    print_series(
        "Exp 4 / Fig. 9: query speedup vs #threads (work model)",
        "threads",
        &xs,
        &series,
    );
}

// ------------------------------------------------------------------- Exp 5

/// Which panel of the ablation figure to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ablation {
    /// Fig. 10a: landmark labeling (LL) vs none (NLL).
    Landmarks,
    /// Fig. 10b: static vs dynamic schedule plan.
    Schedule,
    /// Fig. 10c: degree vs significant-path vs hybrid order.
    Order,
    /// Extension panel: pull vs push propagation paradigm (Alg. 1 vs 2).
    Paradigm,
    /// Extension panel: u16 landmark tables vs the one-bit progressive
    /// filter (§III.H's "one bit is needed").
    BitFilter,
}

/// Exp 5 (Fig. 10): ablation of landmark labeling, schedule plan and
/// vertex order.
pub fn exp6_ablation(opt: &ExpOptions, which: Ablation) {
    match which {
        Ablation::Landmarks => {
            let mut rows = Vec::new();
            for d in selected(opt, &["FB", "GW", "WI", "GO"]) {
                let g = d.generate(opt.scale);
                let mut nll = default_pspc(opt.threads);
                nll.num_landmarks = 0;
                let (i1, _) = build_pspc(&g, &nll);
                let (i2, _) = build_pspc(&g, &default_pspc(opt.threads));
                assert_eq!(i1.label_arena(), i2.label_arena());
                rows.push(vec![
                    d.code.to_string(),
                    fmt_secs(i1.stats().total_seconds()),
                    fmt_secs(i2.stats().total_seconds()),
                ]);
                eprintln!("[exp6 ll] {} done", d.code);
            }
            print_table(
                "Exp 5 / Fig. 10a: landmark labeling ablation (indexing time)",
                &["Dataset", "NLL", "LL"],
                &rows,
            );
        }
        Ablation::Schedule => {
            let mut rows = Vec::new();
            for d in selected(opt, &["FB", "GW", "WI", "GO"]) {
                let g = d.generate(opt.scale);
                let mut cfg = default_pspc(1);
                cfg.record_work = true;
                let (idx, stats) = build_pspc(&g, &cfg);
                let model = stats.work_model.expect("recorded");
                let lc = idx.stats().construction_seconds;
                let fixed = idx.stats().total_seconds() - lc;
                let modeled = |plan: SchedulePlan| fmt_secs(fixed + lc / model.speedup(20, plan));
                rows.push(vec![
                    d.code.to_string(),
                    modeled(SchedulePlan::Static),
                    modeled(SchedulePlan::default()),
                ]);
                eprintln!("[exp6 schedule] {} done", d.code);
            }
            print_table(
                "Exp 5 / Fig. 10b: schedule plan ablation (modelled 20-thread indexing time)",
                &["Dataset", "Static", "Dynamic"],
                &rows,
            );
        }
        Ablation::Paradigm => {
            use pspc_core::builder::Paradigm;
            let mut rows = Vec::new();
            for d in selected(opt, &["FB", "GW", "WI", "GO"]) {
                let g = d.generate(opt.scale);
                let mut row = vec![d.code.to_string()];
                let mut sets = Vec::new();
                for paradigm in [Paradigm::Pull, Paradigm::Push] {
                    let mut cfg = default_pspc(opt.threads);
                    cfg.paradigm = paradigm;
                    let (idx, _) = build_pspc(&g, &cfg);
                    row.push(fmt_secs(idx.stats().total_seconds()));
                    sets.push(idx);
                }
                assert_eq!(sets[0].label_arena(), sets[1].label_arena());
                rows.push(row);
                eprintln!("[exp6 paradigm] {} done", d.code);
            }
            print_table(
                "Ablation (extension): propagation paradigm (indexing time)",
                &["Dataset", "Pull", "Push"],
                &rows,
            );
        }
        Ablation::BitFilter => {
            let mut rows = Vec::new();
            for d in selected(opt, &["FB", "GW", "WI", "GO"]) {
                let g = d.generate(opt.scale);
                let mut row = vec![d.code.to_string()];
                let mut sets = Vec::new();
                for bitset in [false, true] {
                    let mut cfg = default_pspc(opt.threads);
                    cfg.landmark_bitset = bitset;
                    let (idx, _) = build_pspc(&g, &cfg);
                    row.push(fmt_secs(idx.stats().total_seconds()));
                    sets.push(idx);
                }
                assert_eq!(sets[0].label_arena(), sets[1].label_arena());
                rows.push(row);
                eprintln!("[exp6 bitfilter] {} done", d.code);
            }
            print_table(
                "Ablation (extension): landmark probe representation (indexing time)",
                &["Dataset", "u16 table", "1-bit progressive"],
                &rows,
            );
        }
        Ablation::Order => {
            let mut rows = Vec::new();
            for d in selected(opt, &["FB", "GW", "WI", "GO", "BE", "YT"]) {
                let g = d.generate(opt.scale);
                let mut row = vec![d.code.to_string()];
                for strategy in [
                    OrderingStrategy::Degree,
                    OrderingStrategy::SignificantPath,
                    OrderingStrategy::Hybrid { delta: 5 },
                ] {
                    let mut cfg = default_pspc(opt.threads);
                    cfg.ordering = strategy;
                    let (idx, _) = build_pspc(&g, &cfg);
                    row.push(fmt_secs(idx.stats().total_seconds()));
                }
                rows.push(row);
                eprintln!("[exp6 order] {} done", d.code);
            }
            print_table(
                "Exp 5 / Fig. 10c: node order ablation (indexing time)",
                &["Dataset", "Degree", "Sig", "Hybrid"],
                &rows,
            );
        }
    }
}

// ------------------------------------------------------------------- Exp 6

/// Exp 6 (Fig. 11): effect of the hybrid-order threshold δ on index size,
/// indexing time and query time.
pub fn exp7_delta(opt: &ExpOptions) {
    let deltas: [u32; 7] = [0, 1, 2, 5, 10, 20, 50];
    let mut size_series = Vec::new();
    let mut time_series = Vec::new();
    let mut query_series = Vec::new();
    for d in selected(opt, &["FB", "GW", "WI", "GO"]) {
        let g = d.generate(opt.scale);
        let pairs = random_pairs(&g, opt.queries.min(20_000), 0xABCD);
        let mut sizes = Vec::new();
        let mut times = Vec::new();
        let mut queries = Vec::new();
        for &delta in &deltas {
            let mut cfg = default_pspc(opt.threads);
            cfg.ordering = OrderingStrategy::Hybrid { delta };
            let (idx, _) = build_pspc(&g, &cfg);
            sizes.push(fmt_mib(idx.stats().label_bytes));
            times.push(fmt_secs(idx.stats().total_seconds()));
            let (_, tq) = time(|| idx.query_batch_sequential(&pairs));
            queries.push(format!("{:.2}", tq / pairs.len() as f64 * 1e6));
            eprintln!("[exp7] {} delta={} done", d.code, delta);
        }
        size_series.push((d.code.to_string(), sizes));
        time_series.push((d.code.to_string(), times));
        query_series.push((d.code.to_string(), queries));
    }
    let xs: Vec<String> = deltas.iter().map(|d| d.to_string()).collect();
    print_series(
        "Exp 6 / Fig. 11a: index size (MiB) vs delta",
        "delta",
        &xs,
        &size_series,
    );
    print_series(
        "Exp 6 / Fig. 11b: index time vs delta",
        "delta",
        &xs,
        &time_series,
    );
    print_series(
        "Exp 6 / Fig. 11c: query time (us) vs delta",
        "delta",
        &xs,
        &query_series,
    );
}

// ------------------------------------------------------------------- Exp 7

/// Exp 7 (Fig. 12): effect of the number of landmarks on indexing time.
pub fn exp8_landmarks(opt: &ExpOptions) {
    let ks: [usize; 7] = [0, 25, 50, 100, 150, 200, 250];
    let mut series = Vec::new();
    for d in selected(opt, &["FB", "GO", "GW", "WI"]) {
        let g = d.generate(opt.scale);
        let mut ys = Vec::new();
        for &k in &ks {
            let mut cfg = default_pspc(opt.threads);
            cfg.num_landmarks = k;
            let (idx, _) = build_pspc(&g, &cfg);
            ys.push(fmt_secs(idx.stats().total_seconds()));
            eprintln!("[exp8] {} k={} done", d.code, k);
        }
        series.push((d.code.to_string(), ys));
    }
    let xs: Vec<String> = ks.iter().map(|k| k.to_string()).collect();
    print_series(
        "Exp 7 / Fig. 12: indexing time vs #landmarks",
        "#landmarks",
        &xs,
        &series,
    );
}

// ------------------------------------------------------------------- Exp 8

/// Exp 8 (Fig. 13): indexing-time breakdown into node ordering (Order),
/// landmark labeling (LL) and label construction (LC).
pub fn exp9_breakdown(opt: &ExpOptions) {
    let mut rows = Vec::new();
    for d in selected(opt, &all_codes()) {
        let g = d.generate(opt.scale);
        let (idx, _) = build_pspc(&g, &default_pspc(opt.threads));
        let s = idx.stats();
        rows.push(vec![
            d.code.to_string(),
            fmt_secs(s.order_seconds),
            fmt_secs(s.landmark_seconds),
            fmt_secs(s.construction_seconds),
            fmt_secs(s.total_seconds()),
        ]);
        eprintln!("[exp9] {} done", d.code);
    }
    print_table(
        "Exp 8 / Fig. 13: indexing-time breakdown",
        &["Dataset", "Order", "LL", "LC", "Total"],
        &rows,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tri_run_consistency_small() {
        let opt = ExpOptions {
            scale: 0.05,
            queries: 100,
            ..ExpOptions::default()
        };
        let d = DatasetSpec::by_code("FB").unwrap();
        let r = run_three_algorithms(d, &opt);
        // Same order family is not required, but sizes must be positive and
        // PSPC == PSPC+ exactly.
        assert!(r.sizes[1] > 0);
        assert_eq!(r.sizes[1], r.sizes[2]);
        // Indexes answer identically on a sample.
        let g = d.generate(opt.scale);
        for (s, t) in random_pairs(&g, 50, 3) {
            assert_eq!(r.index.query(s, t), r.hpspc_index.query(s, t));
        }
    }

    #[test]
    fn query_model_speedup_near_linear() {
        let g = DatasetSpec::by_code("FB").unwrap().generate(0.05);
        let (idx, _) = build_pspc(&g, &default_pspc(1));
        let pairs = random_pairs(&g, 2000, 1);
        let model = query_work_model(&idx, &pairs);
        let s = model.speedup(8, SchedulePlan::default());
        assert!(
            s > 6.0,
            "query batches should scale near-linearly, got {s:.2}"
        );
    }
}
