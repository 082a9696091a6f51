//! Runs the complete evaluation — every table and figure of the paper —
//! in order. Use `--scale` to trade fidelity for runtime (e.g.
//! `run_all --scale 0.2` for a quick pass).

use pspc_bench::experiments::*;
use pspc_bench::ExpOptions;

fn main() {
    let opt = ExpOptions::from_args();
    eprintln!(
        "running full evaluation at scale {} with {} query pairs",
        opt.scale, opt.queries
    );
    table2_labels();
    table3_datasets(&opt);
    exp1_indexing_time(&opt);
    exp2_index_size(&opt);
    exp3_query_time(&opt);
    exp4_index_speedup(&opt);
    exp5_query_speedup(&opt);
    exp6_ablation(&opt, Ablation::Landmarks);
    exp6_ablation(&opt, Ablation::Schedule);
    exp6_ablation(&opt, Ablation::Order);
    exp6_ablation(&opt, Ablation::Paradigm);
    exp6_ablation(&opt, Ablation::BitFilter);
    exp7_delta(&opt);
    exp8_landmarks(&opt);
    exp9_breakdown(&opt);
    eprintln!("full evaluation complete");
}
