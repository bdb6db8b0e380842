//! Shared pieces: the seeded generator, order statistics, the span
//! tracer, the metric sheet, the host fingerprint and the scratch
//! directory.

use hg_bench::fleet_gen::GenRng;
use hg_rules::json::Json;
use hg_service::{DirBackend, Journal};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The generator of `stream` under `seed`: SplitMix64, so the same seed
/// gives the same inputs on every host.
pub fn rng(seed: u64, stream: u64) -> GenRng {
    GenRng::new(seed ^ stream.rotate_left(32))
}

/// A write-ahead journal over a `DirBackend` in `dir`.
pub fn open_journal(dir: &Path) -> Result<Journal, String> {
    let backend = DirBackend::new(dir).map_err(|e| format!("journal dir: {e}"))?;
    Journal::open(Box::new(backend)).map_err(|e| format!("journal open: {e}"))
}

/// A number field of a stats document, 0 when absent.
pub fn num(json: &Json, key: &str) -> u64 {
    json.get(key).and_then(Json::as_num).unwrap_or(0) as u64
}

/// The `p`-th percentile (nearest rank) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The percentile, from the fast side, at which the end-to-end figures
/// read a run's pooled unit samples: the 5th for a time, the 95th for a
/// rate.
///
/// The host is shared. Other tenants slow this core for seconds to
/// minutes at a time, which moves a run's median and its slow tail with
/// them; the fast side is closer to the program's own speed when the core
/// is left alone.
pub const FAST_PCT: f64 = 5.0;

/// How much work one measured pass does: run for a wall-clock budget, or
/// run a fixed number of units (the traced probes of the other paths,
/// whose exact counts must repeat).
#[derive(Clone, Copy)]
pub enum Budget {
    Time(Duration),
    Units(usize),
}

impl Budget {
    /// Whether a pass that started at `started` and finished `done` units
    /// should start another.
    pub fn more(&self, started: Instant, done: usize) -> bool {
        match *self {
            Budget::Time(limit) => started.elapsed() < limit,
            Budget::Units(n) => done < n,
        }
    }
}

/// One recorded span: a call into a layer, timed from the benchmark.
struct Span {
    name: &'static str,
    took: Duration,
}

/// In-memory span recorder. Off, it records nothing and `span` is a plain
/// call; on, every call is bracketed by two clock reads. Spans are read
/// out when the pass ends.
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let started = Instant::now();
        let out = f(self);
        self.spans.push(Span {
            name,
            took: started.elapsed(),
        });
        out
    }

    /// Durations of every span named `name`, in milliseconds.
    pub fn ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.took.as_secs_f64() * 1e3)
            .collect()
    }
}

/// Named metrics with units, in insertion-independent (sorted) order.
#[derive(Default)]
pub struct Sheet(pub BTreeMap<String, (f64, &'static str)>);

impl Sheet {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    pub fn extend(&mut self, other: Sheet) {
        self.0.extend(other.0);
    }

    /// The sheet as the JSON object of the result line. Values print with
    /// every digit Rust's shortest round-trip form gives.
    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, (value, unit))| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Hands memory freed by a dropped set-up back to the operating system,
/// so the next set-up's peak resident set is its own and not the sum of
/// allocator leftovers from every earlier one.
pub fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` only returns free heap pages to the
        // kernel; it touches no live allocation.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// `nproc` and the CPU model, printed with every result.
pub fn host_fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!("nproc={nproc} cpu=\"{cpu}\"")
}

/// Client threads and connections: one per hardware thread, at most two.
pub fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// A private directory under `.perfbench_tmp/` in the working directory
/// (the checkout), removed when dropped.
pub struct Scratch {
    root: PathBuf,
    next: std::cell::Cell<u32>,
}

impl Scratch {
    pub fn new() -> std::io::Result<Scratch> {
        let root = PathBuf::from(".perfbench_tmp").join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Scratch {
            root,
            next: std::cell::Cell::new(0),
        })
    }

    /// A fresh, empty journal directory.
    pub fn fresh_dir(&self, label: &str) -> PathBuf {
        let n = self.next.get();
        self.next.set(n + 1);
        self.root.join(format!("{label}-{n}"))
    }

    pub fn remove(dir: &Path) {
        let _ = std::fs::remove_dir_all(dir);
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Leaves the shared parent only when no other run uses it.
        let _ = std::fs::remove_dir(".perfbench_tmp");
    }
}
