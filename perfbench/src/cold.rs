//! `cold_soak`: cold installs with home-unique device bindings into a
//! fresh journaled fleet, one checkpoint partway, then journal open +
//! `Fleet::recover`.
//!
//! Every home owns a device inventory and binds each capability input of
//! each app it installs to one of its own devices, so every rule
//! fingerprint is home-unique and the verdict cache misses as it does for
//! real homes: the lowered and solver tiers do the work. A cycle builds
//! one seeded population into a fresh fleet (fresh store, fresh cache,
//! fresh journal directory), so every cycle is cold; the pass repeats
//! cycles until its budget is spent. Cycles come in pairs: both cycles of
//! a pair build the same population and must produce identical exact
//! counts, and each pair draws a new population from the seed, so one
//! run's medians average over many populations.

use crate::util::{median, num, open_journal, percentile, rng, Budget, Scratch, Tracer};
use crate::PathOut;
use hg_config::ConfigInfo;
use hg_detector::DetectStats;
use hg_service::{Fleet, HomeId, RuleStore};
use hg_symexec::{extract, ExtractorConfig, InputType};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Homes per cycle.
const HOMES: usize = 64;
/// Apps each home installs.
const APPS_PER_HOME: usize = 6;
const INSTALLS: usize = HOMES * APPS_PER_HOME;
/// Corpus apps the homes draw from.
const PALETTE: usize = 16;
/// The checkpoint is taken after this many homes; the rest is the tail.
/// Checkpoint decode is quadratic in its size today (see README), so it
/// is kept small enough to recover in well under a second.
const CHECKPOINT_AFTER: usize = 2;
const SHARDS: usize = 16;

/// A corpus app and its capability inputs (from `AppAnalysis::inputs`).
pub struct PaletteApp {
    pub name: &'static str,
    pub source: &'static str,
    capability_inputs: Vec<(String, String)>,
}

/// The seeded population one cycle installs: per home, `(palette index,
/// configuration)` in install order.
pub struct Plan {
    homes: Vec<Vec<(usize, ConfigInfo)>>,
}

/// The set-up of the path: the palette and the seed populations come from.
pub struct Soak {
    pub palette: Vec<PaletteApp>,
    seed: u64,
}

/// The first `PALETTE` device-controlling corpus apps with a capability
/// input.
pub fn palette() -> Vec<PaletteApp> {
    hg_corpus::device_control_apps()
        .into_iter()
        .filter_map(|app| {
            let analysis = extract(app.source, app.name, &ExtractorConfig::extended()).ok()?;
            let capability_inputs: Vec<(String, String)> = analysis
                .inputs
                .iter()
                .filter_map(|input| match &input.input_type {
                    InputType::Capability(cap) => Some((input.name.clone(), cap.clone())),
                    _ => None,
                })
                .collect();
            (!capability_inputs.is_empty()).then_some(PaletteApp {
                name: app.name,
                source: app.source,
                capability_inputs,
            })
        })
        .take(PALETTE)
        .collect()
}

impl Plan {
    /// Generates population `population` of `seed`: `homes` homes, each
    /// with a few devices per capability and `APPS_PER_HOME` distinct
    /// apps, every capability input bound to one of the home's own devices.
    pub fn generate(palette: &[PaletteApp], seed: u64, population: u64, homes: usize) -> Plan {
        let mut rng = rng(seed, 1000 + population);
        let homes = (0..homes)
            .map(|_| {
                let mut inventory: BTreeMap<&str, Vec<String>> = BTreeMap::new();
                for app in palette {
                    for (_, cap) in &app.capability_inputs {
                        inventory.entry(cap.as_str()).or_insert_with(|| {
                            let count = rng.range(2, 4);
                            (0..count)
                                .map(|_| format!("{:016x}{:016x}", rng.draw(), rng.draw()))
                                .collect()
                        });
                    }
                }
                let mut order: Vec<usize> = (0..palette.len()).collect();
                for i in 0..APPS_PER_HOME {
                    let j = rng.range(i, order.len());
                    order.swap(i, j);
                }
                order[..APPS_PER_HOME]
                    .iter()
                    .map(|&index| {
                        let app = &palette[index];
                        let mut info = ConfigInfo::new(app.name);
                        for (input, cap) in &app.capability_inputs {
                            let devices = &inventory[cap.as_str()];
                            info = info.bind_device(input, &devices[rng.range(0, devices.len())]);
                        }
                        (index, info)
                    })
                    .collect()
            })
            .collect();
        Plan { homes }
    }
}

/// What one cycle did. The counts are exact and must repeat.
#[derive(Default, PartialEq, Debug, Clone, Copy)]
pub struct CycleCounts {
    pub detect: DetectStats,
    pub confirms: u64,
    pub records: u64,
    pub append_bytes: u64,
    pub retries: u64,
}

struct Cycle {
    counts: CycleCounts,
    install_secs: f64,
    recover_secs: f64,
    failed: u64,
    wrong: Option<String>,
    checkpoint_bytes: u64,
    cache: (u64, u64),
}

fn checkpoint_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| e.file_name().to_string_lossy().starts_with("ckpt-"))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

impl Soak {
    pub fn new(seed: u64) -> Soak {
        Soak {
            palette: palette(),
            seed,
        }
    }
}

/// One cold cycle: publish the palette, build the population,
/// checkpoint partway, snapshot, drop, recover, compare.
fn cycle(
    palette: &[PaletteApp],
    plan: &Plan,
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<Cycle, String> {
    let journal = Arc::new(open_journal(dir)?);
    let fleet = Fleet::builder(RuleStore::shared()).shards(SHARDS).build();
    fleet
        .attach_journal(journal.clone())
        .map_err(|e| format!("attach: {e}"))?;
    // The store publishes every palette app first, so the checkpoint's
    // store part is the same whatever the homes drew.
    for app in palette {
        fleet
            .ingest_app(app.source, app.name)
            .map_err(|e| format!("ingest {}: {e}", app.name))?;
    }
    let ids: Vec<HomeId> = fleet
        .create_homes(plan.homes.len())
        .map_err(|e| format!("create homes: {e}"))?;
    let mut counts = CycleCounts::default();
    let mut failed = 0u64;
    let mut install_secs = 0.0;
    let mut started = Instant::now();
    for (n, (installs, &id)) in plan.homes.iter().zip(&ids).enumerate() {
        if n == CHECKPOINT_AFTER {
            install_secs += started.elapsed().as_secs_f64();
            tracer
                .span("service.checkpoint", |_| fleet.checkpoint())
                .map_err(|e| format!("checkpoint: {e}"))?;
            started = Instant::now();
        }
        for (index, info) in installs {
            let app = &palette[*index];
            let report = tracer.span("service.install", |_| {
                fleet.install_app(id, app.source, app.name, Some(info))
            });
            match report {
                Ok(report) => {
                    counts.detect.absorb(report.stats);
                    if !report.installed {
                        counts.confirms += 1;
                        let confirmed =
                            tracer.span("service.confirm", |_| fleet.confirm_install(id, report));
                        if confirmed.is_err() {
                            failed += 1;
                        }
                    }
                }
                Err(_) => failed += 1,
            }
        }
    }
    install_secs += started.elapsed().as_secs_f64();
    let live = fleet.snapshot().map_err(|e| format!("snapshot: {e}"))?;
    let stats = journal.stats_json();
    counts.records = num(&stats, "records");
    counts.append_bytes = num(&stats, "appendBytesSession");
    counts.retries = num(&stats, "ioRetriesSession");
    let cache = fleet.store().verdict_cache().stats();
    drop(fleet);
    drop(journal);
    let checkpoint_bytes = checkpoint_bytes(dir);

    let started = Instant::now();
    let journal = tracer.span("journal.open", |_| open_journal(dir))?;
    let recovered = tracer
        .span("service.recover", |_| Fleet::recover(Arc::new(journal)))
        .map_err(|e| format!("recover: {e}"))?;
    let recover_secs = started.elapsed().as_secs_f64();
    if tracer.on() {
        // The parts `Fleet::recover` runs internally, timed on their own
        // on a second handle, outside the end-to-end figure.
        let journal = open_journal(dir)?;
        tracer
            .span("journal.materialize", |_| journal.materialize())
            .map_err(|e| format!("materialize: {e}"))?;
        let from = journal.last_checkpoint_offset().unwrap_or(0);
        tracer
            .span("journal.records_from", |_| journal.records_from(from))
            .map_err(|e| format!("records_from: {e}"))?;
    }
    let wrong = match recovered.snapshot() {
        Ok(snap) if snap.to_text() == live.to_text() => None,
        Ok(_) => Some("recovered fleet differs from the live fleet".to_string()),
        Err(e) => Some(format!("recovered snapshot: {e}")),
    };
    Ok(Cycle {
        counts,
        install_secs,
        recover_secs,
        failed,
        wrong,
        checkpoint_bytes,
        cache: (cache.hits, cache.misses),
    })
}

/// Set-up: the palette, plus one full cycle that warms code and
/// allocator; every measured cycle still starts from a fresh store.
pub fn setup(seed: u64, scratch: &Scratch) -> Result<Soak, String> {
    let soak = Soak::new(seed);
    let plan = Plan::generate(&soak.palette, seed, u64::MAX, HOMES);
    let dir = scratch.fresh_dir("cold-warm");
    let warm = cycle(&soak.palette, &plan, &dir, &mut Tracer::new(false));
    Scratch::remove(&dir);
    warm?;
    Ok(soak)
}

pub fn measure(soak: &Soak, scratch: &Scratch, budget: Budget, tracer: &mut Tracer) -> PathOut {
    let mut out = PathOut::default();
    let mut install_secs = Vec::new();
    let mut recovers = Vec::new();
    let mut first: Option<CycleCounts> = None;
    let mut previous: Option<CycleCounts> = None;
    let mut checkpoint_bytes = Vec::new();
    let mut plan = None;
    let started = Instant::now();
    while budget.more(started, recovers.len()) {
        let index = recovers.len();
        if index % 2 == 0 {
            plan = Some(Plan::generate(
                &soak.palette,
                soak.seed,
                index as u64 / 2,
                HOMES,
            ));
        }
        let plan = plan.as_ref().expect("generated on even cycles");
        let dir = scratch.fresh_dir("cold");
        let result = cycle(&soak.palette, plan, &dir, tracer);
        Scratch::remove(&dir);
        let cycle = match result {
            Ok(cycle) => cycle,
            Err(why) => {
                out.wrong.push(why);
                break;
            }
        };
        out.attempted += INSTALLS as u64 + 1;
        out.ops += INSTALLS as u64;
        out.failed += cycle.failed;
        if let Some(why) = cycle.wrong {
            out.wrong.push(why);
        }
        if index % 2 == 1 && previous != Some(cycle.counts) {
            out.wrong.push(format!(
                "exact counts differ between two cycles of one population: {previous:?} vs {:?}",
                cycle.counts
            ));
        }
        previous = Some(cycle.counts);
        first.get_or_insert(cycle.counts);
        let (records, bytes, retries) = out.journal;
        out.journal = (
            records + cycle.counts.records,
            bytes + cycle.counts.append_bytes,
            retries + cycle.counts.retries,
        );
        install_secs.push(cycle.install_secs);
        recovers.push(cycle.recover_secs);
        checkpoint_bytes.push(cycle.checkpoint_bytes as f64);
        out.cache.0 += cycle.cache.0;
        out.cache.1 += cycle.cache.1;
    }
    out.rates = install_secs.iter().map(|s| INSTALLS as f64 / s).collect();
    out.latencies_ms = recovers.iter().map(|s| s * 1e3).collect();
    out.units = recovers.len();
    out.aliases.put(
        "cold_installs_per_s",
        INSTALLS as f64 / median(&install_secs),
        "1/s",
    );
    out.aliases.put("recover_s", median(&recovers), "s");

    if tracer.on() {
        // Exact counts of population 0, which every run of a seed builds
        // first.
        let counts = first.unwrap_or_default();
        let l = &mut out.layers;
        let installs: Vec<f64> = tracer
            .ms("service.install")
            .iter()
            .map(|ms| ms * 1e3)
            .collect();
        l.put("service.install_us_p50", percentile(&installs, 50.0), "us");
        l.put("service.install_us_p99", percentile(&installs, 99.0), "us");
        l.put("service.install_samples", installs.len() as f64, "count");
        l.put(
            "service.confirm_us_p50",
            median(&tracer.ms("service.confirm")) * 1e3,
            "us",
        );
        l.put("detector.pairs", counts.detect.pairs as f64, "count");
        l.put(
            "detector.candidates",
            counts.detect.candidates as f64,
            "count",
        );
        l.put("detector.pruned", counts.detect.pruned as f64, "count");
        let questions = counts.detect.lowered_hits + counts.detect.solver_fallbacks;
        l.put(
            "detector.solver_questions",
            counts.detect.solver_fallbacks as f64,
            "count",
        );
        l.put(
            "detector.lowered_hits",
            counts.detect.lowered_hits as f64,
            "count",
        );
        l.put(
            "detector.lowered_ratio",
            counts.detect.lowered_hits as f64 / questions.max(1) as f64,
            "ratio",
        );
        l.put("journal.cycle_records", counts.records as f64, "count");
        l.put("journal.cycle_bytes", counts.append_bytes as f64, "B");
        l.put("journal.checkpoint_bytes", median(&checkpoint_bytes), "B");
        let open = median(&tracer.ms("journal.open"));
        let materialize = median(&tracer.ms("journal.materialize"));
        let records_from = median(&tracer.ms("journal.records_from"));
        let recover = median(&tracer.ms("service.recover"));
        l.put("journal.open_ms", open, "ms");
        l.put("journal.materialize_ms", materialize, "ms");
        l.put("journal.records_from_ms", records_from, "ms");
        // Self time of replay: what `Fleet::recover` spends beyond the
        // materialize and record decode it runs internally (an estimate:
        // the two parts are timed in separate calls).
        l.put(
            "service.replay_ms",
            recover - materialize - records_from,
            "ms",
        );
        l.put(
            "service.checkpoint_ms",
            median(&tracer.ms("service.checkpoint")),
            "ms",
        );
    }
    out
}

/// An un-journaled fleet of the first `homes` homes of population 0, for
/// the JSON parse probe.
pub fn small_fleet(soak: &Soak, homes: usize) -> Result<Fleet, String> {
    let plan = Plan::generate(&soak.palette, soak.seed, 0, homes);
    let fleet = Fleet::builder(RuleStore::shared()).shards(SHARDS).build();
    let ids = fleet
        .create_homes(homes)
        .map_err(|e| format!("create homes: {e}"))?;
    for (installs, &id) in plan.homes.iter().zip(&ids) {
        for (index, info) in installs {
            let app = &soak.palette[*index];
            let report = fleet
                .install_app(id, app.source, app.name, Some(info))
                .map_err(|e| format!("install: {e}"))?;
            if !report.installed {
                fleet
                    .confirm_install(id, report)
                    .map_err(|e| format!("confirm: {e}"))?;
            }
        }
    }
    Ok(fleet)
}
