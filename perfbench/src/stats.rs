//! Order statistics, failure accounting, process memory and the metric
//! report the benchmark prints.

/// Median of `xs` (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` by linear interpolation between order
/// statistics (NaN when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Attempted and failed operations. A wrong answer, a rejection and an
/// I/O error each count as one failure.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one operation that succeeded iff `ok`.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Resets the process high-water RSS to the current RSS, so that a later
/// [`peak_rss_mib`] covers only what runs after this call. Heap memory
/// freed by earlier phases is handed back to the kernel first, or the
/// allocator's retained pages would count towards the new peak.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim takes no pointers and only releases
        // free pages of the allocator's own arenas.
        unsafe { malloc_trim(0) };
    }
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("perfbench: cannot reset peak RSS ({e}); it includes set-up");
    }
}

/// Process high-water RSS (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Named metrics in insertion order, with the outcome of every checked
/// operation and free-form notes for the human-readable part.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Printed for people but left out of the result line: figures too
    /// noisy on a shared host to judge a change by.
    pub printed: Vec<(String, f64, &'static str)>,
    pub tally: Tally,
    pub notes: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn print_only(&mut self, name: &str, value: f64, unit: &'static str) {
        self.printed.push((name.to_string(), value, unit));
    }

    /// Records a check that passes iff `ok`; a failure is noted with
    /// `what`.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.tally.record(ok);
        if !ok {
            self.notes.push(format!("FAILED: {what}"));
        }
    }
}
