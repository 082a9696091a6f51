//! `perfbench`: the repository's seeded benchmark of the PSPC build and
//! serving stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <build-social|build-road|serve-uniform|serve-skewed-writes> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it times every layer through spans instead (see
//! `README.md` in this directory). Human-readable lines come first; the
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Any wrong answer, shed request or
//! I/O error makes the run incorrect and the exit code 1.

mod input;
mod layers;
mod load;
mod stats;
mod trace;
mod workloads;

use stats::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;
use workloads::{Ctx, Inputs, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("bad --seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if !s.is_finite() || s <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace,
    })
}

/// The result line: every metric with all its digits.
fn json_line(rep: &Report) -> String {
    let metrics: Vec<String> = rep
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no NaN or infinity; such a run exits non-zero anyway.
            let value = if value.is_finite() {
                value.to_string()
            } else {
                "null".into()
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.tally.failed == 0,
        rep.tally.attempted,
        rep.tally.failed,
        metrics.join(", ")
    )
}

fn run(args: &Args, work: PathBuf) -> std::io::Result<Report> {
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        work,
    };
    let inputs = Inputs::generate(args.workload, args.seed);
    let mut rep = Report::default();
    if args.trace {
        let mut tracer = Tracer::new(true);
        layers::traced(args.workload, &ctx, &inputs, &mut rep, &mut tracer)?;
        let dir = PathBuf::from(".perfbench/traces");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
        tracer.write_jsonl(&path)?;
        rep.notes
            .push(format!("spans written to {}", path.display()));
    } else {
        workloads::end_to_end(args.workload, &ctx, &inputs, &mut rep)?;
    }
    Ok(rep)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(format!(".perfbench/work-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: creating {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let result = run(&args, work.clone());
    let _ = std::fs::remove_dir_all(&work);
    let rep = match result {
        Ok(rep) => rep,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            return ExitCode::from(2);
        }
    };
    let t = rep.tally;
    println!(
        "# {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (name, value, unit) in &rep.metrics {
        println!("{name:<36} {value:>16.4} {unit}");
    }
    for (name, value, unit) in &rep.printed {
        println!("{name:<36} {value:>16.4} {unit} (printed only)");
    }
    let error_rate = t.failed as f64 / t.attempted.max(1) as f64;
    println!(
        "{:<36} {error_rate:>16.4} ratio ({} of {} failed)",
        "error_rate", t.failed, t.attempted
    );
    for note in &rep.notes {
        println!("# {note}");
    }
    println!("{}", json_line(&rep));
    if t.failed == 0 && t.attempted > 0 && rep.metrics.iter().all(|m| m.1.is_finite()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
