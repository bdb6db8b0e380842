//! Same-host benchmark of HomeGuard's three serving paths: an HTTP install
//! to its acknowledgement, a fleet-wide upgrade rollout, and a cold
//! journaled install soak followed by `Fleet::recover`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <http_install|rollout|cold_soak> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Untraced (`--trace 0`)
//! the metrics are the end-to-end ones; traced (`--trace 1`) they are the
//! per-layer ones plus the tracing overhead. See `perfbench/README.md`.

mod cold;
mod http;
mod layers;
mod rollout;
mod util;

use std::process::ExitCode;
use std::time::{Duration, Instant};
use util::{
    median, peak_rss_mb, percentile, release_freed_memory, Budget, Scratch, Sheet, Tracer, FAST_PCT,
};

/// What one measured pass of a path produced.
#[derive(Default)]
pub struct PathOut {
    /// Operations completed per second, as the workload defines them: one
    /// rate per timed unit (per pass on `http_install`).
    pub rates: Vec<f64>,
    /// Latencies of the workload's user-awaited unit, in ms.
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Operations the journal and cache figures are divided by.
    pub ops: u64,
    /// Timed units behind the figures (installs, rollouts, cycles).
    pub units: usize,
    /// Correctness-gate failures; any entry makes the run incorrect.
    pub wrong: Vec<String>,
    /// Per-layer metrics (traced passes only).
    pub layers: Sheet,
    /// The path's end-to-end figures under their path-specific names.
    pub aliases: Sheet,
    /// Verdict-cache `(hits, misses)` during the pass.
    pub cache: (u64, u64),
    /// Journal `(records, bytes, io retries)` appended during the pass
    /// (per cycle on `cold_soak`).
    pub journal: (u64, u64, u64),
}

impl PathOut {
    /// The fast-side rate (see `util::FAST_PCT`).
    pub fn throughput(&self) -> f64 {
        percentile(&self.rates, 100.0 - FAST_PCT)
    }

    /// The fast-side latency (see `util::FAST_PCT`).
    pub fn latency_ms(&self) -> f64 {
        percentile(&self.latencies_ms, FAST_PCT)
    }

    /// The untraced passes of one run as one: samples and counts pool,
    /// and each path-specific figure is the median of the passes' values
    /// (the sum, for a count).
    fn merge(passes: Vec<PathOut>) -> PathOut {
        let mut out = PathOut::default();
        if let Some(first) = passes.first() {
            for (name, &(_, unit)) in &first.aliases.0 {
                let values = passes
                    .iter()
                    .map(|p| p.aliases.0.get(name).map_or(0.0, |v| v.0));
                let value = if unit == "count" {
                    values.sum()
                } else {
                    median(&values.collect::<Vec<f64>>())
                };
                out.aliases.put(name.clone(), value, unit);
            }
        }
        for pass in passes {
            out.rates.extend(pass.rates);
            out.latencies_ms.extend(pass.latencies_ms);
            out.attempted += pass.attempted;
            out.failed += pass.failed;
            out.ops += pass.ops;
            out.units += pass.units;
            out.wrong.extend(pass.wrong);
        }
        out
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    HttpInstall,
    Rollout,
    ColdSoak,
}

const WORKLOADS: [(Workload, &str); 3] = [
    (Workload::HttpInstall, "http_install"),
    (Workload::Rollout, "rollout"),
    (Workload::ColdSoak, "cold_soak"),
];

/// Set-ups per untraced run; `setup_s` is their median. Each set-up is
/// measured for an equal slice of the run before the next replaces it, so
/// set-up times, like the other figures, sample the whole run.
const SETUPS: usize = 9;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|(_, name)| *name == value)
                        .map(|(w, _)| *w)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| "bad --seed")?,
            "--seconds" => seconds = value.parse().map_err(|_| "bad --seconds")?,
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
    })
}

/// A set-up path, ready to be measured.
enum Ready {
    Http(http::Served),
    Rollout(rollout::Grid),
    Cold(cold::Soak),
}

fn setup(
    workload: Workload,
    seed: u64,
    scratch: &Scratch,
    tracer: &mut Tracer,
) -> Result<Ready, String> {
    Ok(match workload {
        Workload::HttpInstall => Ready::Http(http::setup(seed, scratch, tracer)?),
        Workload::Rollout => Ready::Rollout(rollout::setup(seed, scratch, tracer)?),
        Workload::ColdSoak => Ready::Cold(cold::setup(seed, scratch)?),
    })
}

fn measure(ready: &mut Ready, scratch: &Scratch, budget: Budget, tracer: &mut Tracer) -> PathOut {
    match ready {
        Ready::Http(served) => http::measure(served, budget, tracer),
        Ready::Rollout(grid) => rollout::measure(grid, budget, tracer),
        Ready::Cold(soak) => cold::measure(soak, scratch, budget, tracer),
    }
}

/// Sets the path up `traced.len()` times (dropping each before the next,
/// so only one is alive), tracing where asked. Returns the last set-up
/// with its tracer, and the time each set-up took, in seconds.
fn setups(
    workload: Workload,
    seed: u64,
    scratch: &Scratch,
    traced: &[bool],
) -> Result<(Ready, Tracer, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last = None;
    for &on in traced {
        drop(last.take());
        release_freed_memory();
        let mut tracer = Tracer::new(on);
        let started = Instant::now();
        let ready = setup(workload, seed, scratch, &mut tracer)?;
        times.push(started.elapsed().as_secs_f64());
        last = Some((ready, tracer));
    }
    let (ready, tracer) = last.expect("at least one set-up");
    Ok((ready, tracer, times))
}

/// The untraced run: the end-to-end metrics, over `SETUPS` set-ups each
/// measured for an equal slice of the run.
fn untraced(args: &Args, scratch: &Scratch) -> Result<(PathOut, Sheet), String> {
    let slice = Budget::Time(Duration::from_secs(args.seconds).div_f64(SETUPS as f64));
    let mut times = Vec::new();
    let mut passes = Vec::new();
    for _ in 0..SETUPS {
        let started = Instant::now();
        let mut ready = setup(args.workload, args.seed, scratch, &mut Tracer::new(false))?;
        times.push(started.elapsed().as_secs_f64());
        passes.push(measure(&mut ready, scratch, slice, &mut Tracer::new(false)));
        drop(ready);
        release_freed_memory();
    }
    let out = PathOut::merge(passes);
    let mut sheet = Sheet::default();
    sheet.put("setup_s", median(&times), "s");
    sheet.put("peak_rss_mb", peak_rss_mb(), "MB");
    sheet.put("throughput_per_s", out.throughput(), "1/s");
    sheet.put("latency_p5_ms", out.latency_ms(), "ms");
    Ok((out, sheet))
}

/// Layer metrics every workload reports about its own pass.
fn own_layers(out: &PathOut, sheet: &mut Sheet) {
    let (hits, misses) = out.cache;
    sheet.put("detector.cache_lookups", (hits + misses) as f64, "count");
    sheet.put(
        "detector.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    let (records, bytes, retries) = out.journal;
    let ops = out.ops.max(1) as f64;
    sheet.put("journal.records_per_op", records as f64 / ops, "count");
    sheet.put("journal.bytes_per_op", bytes as f64 / ops, "B");
    sheet.put("journal.retries", retries as f64, "count");
    sheet.put(
        "error_pct",
        100.0 * out.failed as f64 / out.attempted.max(1) as f64,
        "%",
    );
    sheet.put("units", out.units as f64, "count");
}

/// Fixed-size traced probes of the paths a workload does not run itself,
/// so every traced run reports every layer.
fn probe(
    workload: Workload,
    seed: u64,
    scratch: &Scratch,
    sheet: &mut Sheet,
) -> Result<(), String> {
    let units = match workload {
        Workload::HttpInstall => 20,
        Workload::Rollout => 4,
        Workload::ColdSoak => 2,
    };
    let mut tracer = Tracer::new(true);
    let mut ready = setup(workload, seed, scratch, &mut tracer)?;
    let out = measure(&mut ready, scratch, Budget::Units(units), &mut tracer);
    if let Some(why) = out.wrong.first() {
        return Err(why.clone());
    }
    sheet.extend(out.layers);
    Ok(())
}

/// The traced run: per-layer metrics, and the tracing overhead as traced
/// minus untraced for every end-to-end metric, both measured in this run
/// on the same set-up.
fn traced(args: &Args, scratch: &Scratch) -> Result<(PathOut, Sheet), String> {
    // Set-ups alternate untraced and traced; the last, traced one is
    // measured, and its tracer carries on into the traced half.
    let (mut ready, mut tracer, times) = setups(
        args.workload,
        args.seed,
        scratch,
        &[false, true, false, true],
    )?;
    let half = Budget::Time(Duration::from_secs(args.seconds).div_f64(2.0));
    let plain = measure(&mut ready, scratch, half, &mut Tracer::new(false));
    let plain_rss = peak_rss_mb();
    let mut out = measure(&mut ready, scratch, half, &mut tracer);
    let traced_rss = peak_rss_mb();
    drop(ready);
    out.wrong.extend(plain.wrong.iter().cloned());
    out.attempted += plain.attempted;
    out.failed += plain.failed;

    let mut sheet = std::mem::take(&mut out.layers);
    own_layers(&out, &mut sheet);
    let setup_plain = (times[0] + times[2]) / 2.0;
    let setup_traced = (times[1] + times[3]) / 2.0;
    sheet.put("trace.overhead.setup_s", setup_traced - setup_plain, "s");
    sheet.put("trace.overhead.peak_rss_mb", traced_rss - plain_rss, "MB");
    sheet.put(
        "trace.overhead.throughput_per_s",
        out.throughput() - plain.throughput(),
        "1/s",
    );
    sheet.put(
        "trace.overhead.latency_p5_ms",
        out.latency_ms() - plain.latency_ms(),
        "ms",
    );
    for (other, _) in WORKLOADS {
        if other != args.workload {
            probe(other, args.seed, scratch, &mut sheet)?;
        }
    }
    let apps = match args.workload {
        Workload::HttpInstall => http::apps(),
        Workload::Rollout => rollout::apps(),
        Workload::ColdSoak => cold::palette().iter().map(|a| (a.name, a.source)).collect(),
    };
    layers::parse_and_extract(&apps, &mut sheet);
    let soak = cold::Soak::new(args.seed);
    let small = cold::small_fleet(&soak, 2)?
        .snapshot()
        .map_err(|e| e.to_string())?;
    let large = cold::small_fleet(&soak, 20)?
        .snapshot()
        .map_err(|e| e.to_string())?;
    layers::json_parse(&small.to_text(), &large.to_text(), &mut sheet)?;
    Ok((out, sheet))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}");
            return ExitCode::from(2);
        }
    };
    let name = WORKLOADS
        .iter()
        .find(|(w, _)| *w == args.workload)
        .map_or("", |(_, n)| n);
    println!("# host {}", util::host_fingerprint());
    let scratch = match Scratch::new() {
        Ok(scratch) => scratch,
        Err(why) => {
            eprintln!("perfbench: scratch directory: {why}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        traced(&args, &scratch)
    } else {
        untraced(&args, &scratch)
    };
    drop(scratch);
    let (out, sheet) = match result {
        Ok(done) => done,
        Err(why) => {
            eprintln!("perfbench: {name}: {why}");
            return ExitCode::from(1);
        }
    };
    for why in &out.wrong {
        eprintln!("perfbench: {name}: incorrect: {why}");
    }
    let aliases: Vec<String> = out
        .aliases
        .0
        .iter()
        .map(|(k, (v, unit))| format!("{k}={v:.4} {unit}"))
        .collect();
    println!(
        "# {name} seed={} seconds={} trace={} units={} error_pct={:.4} {}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        out.units,
        100.0 * out.failed as f64 / out.attempted.max(1) as f64,
        aliases.join(" ")
    );
    let correct = out.wrong.is_empty() && out.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        sheet.json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
