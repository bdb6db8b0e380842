//! `rollout`: repeated fleet-wide upgrade rollouts over a standing
//! journaled fleet, through the per-shard work-queue executor.
//!
//! The fleet has one shard, so one executor worker walks every home. A
//! rollout over parallel shards waits for its slowest part, and on a
//! small shared host each part's speed is set by whichever tenant shares
//! its core: two shards on two cores spread twice as widely between runs
//! as one.
//!
//! The fleet is a grid: every home runs the first four device-controlling
//! corpus apps, installed with `FleetExec::install_many`. One caller then
//! rolls app 0 out again and again, alternating two versions so every
//! home is really re-checked. The grid is almost all verdict-cache hits,
//! so per-home rule preparation, the index probe and the shard walk
//! dominate; there is no wire and almost no solver work.

use crate::layers::time_us;
use crate::util::{median, num, open_journal, Budget, Scratch, Tracer};
use crate::PathOut;
use hg_api::{ExecConfig, FleetExec};
use hg_detector::{PreparedRule, Unification};
use hg_service::{Fleet, HomeId, Journal, RuleStore};
use hg_symexec::{extract, ExtractorConfig};
use std::sync::Arc;
use std::time::Instant;

/// Homes in the standing fleet.
pub const HOMES: usize = 2048;
const APPS: usize = 4;
const SHARDS: usize = 1;

pub struct Grid {
    fleet: Arc<Fleet>,
    exec: Arc<FleetExec>,
    journal: Arc<Journal>,
    name: &'static str,
    versions: [String; 2],
    /// Rollouts done so far; picks the next version.
    round: usize,
}

impl Drop for Grid {
    fn drop(&mut self) {
        self.exec.stop();
    }
}

/// The corpus apps every home runs; app 0 is the one rolled out.
pub fn apps() -> Vec<(&'static str, &'static str)> {
    hg_corpus::device_control_apps()
        .iter()
        .take(APPS)
        .map(|app| (app.name, app.source))
        .collect()
}

/// Builds the standing fleet. The seed picks the comment that tells the
/// two rolled-out versions apart, so the sources differ per seed while
/// the work stays the same.
pub fn setup(seed: u64, scratch: &Scratch, tracer: &mut Tracer) -> Result<Grid, String> {
    let dir = scratch.fresh_dir("rollout");
    let journal = Arc::new(open_journal(&dir)?);
    let fleet = Arc::new(Fleet::builder(RuleStore::shared()).shards(SHARDS).build());
    fleet
        .attach_journal(journal.clone())
        .map_err(|e| format!("attach: {e}"))?;
    let ids: Vec<HomeId> = fleet
        .create_homes(HOMES)
        .map_err(|e| format!("create homes: {e}"))?;
    let exec = FleetExec::start(fleet.clone(), ExecConfig::default());
    for (name, source) in apps() {
        let outcomes = tracer
            .span("api.install_many", |_| {
                exec.install_many(ids.clone(), source.to_string(), name.to_string())
            })
            .map_err(|e| format!("install_many: {e:?}"))?
            .map_err(|e| format!("install_many: {e}"))?;
        for (id, result) in outcomes {
            result.map_err(|e| format!("install {name} on {id}: {e}"))?;
        }
    }
    let (name, source) = apps()[0];
    let versions = ["A", "B"].map(|tag| format!("{source}\n// rollout {tag} seed {seed}\n"));
    Ok(Grid {
        fleet,
        exec,
        journal,
        name,
        versions,
        round: 0,
    })
}

/// Mean `PreparedRule::prepare` time per rule of `source`, in µs.
fn prepare_us(source: &str, name: &str) -> (f64, usize) {
    let Ok(analysis) = extract(source, name, &ExtractorConfig::extended()) else {
        return (0.0, 0);
    };
    let unification = Unification::ByType;
    let per_rule: Vec<f64> = analysis
        .rules
        .iter()
        .map(|rule| {
            time_us(200, || {
                std::hint::black_box(PreparedRule::prepare(rule, &unification));
            })
        })
        .collect();
    let rules = per_rule.len();
    (per_rule.iter().sum::<f64>() / rules.max(1) as f64, rules)
}

pub fn measure(grid: &mut Grid, budget: Budget, tracer: &mut Tracer) -> PathOut {
    let mut out = PathOut::default();
    let mut walls = Vec::new();
    let (mut part_p50, mut part_max, mut skew) = (Vec::new(), Vec::new(), Vec::new());
    let mut records_per_rollout: Option<u64> = None;
    let cache_before = grid.fleet.store().verdict_cache().stats();
    let journal_before = grid.journal.stats_json();
    let started = Instant::now();
    while budget.more(started, walls.len()) {
        let source = grid.versions[grid.round % 2].clone();
        grid.round += 1;
        let offset = grid.journal.next_offset();
        let began = Instant::now();
        if tracer.on() {
            let ingested = tracer.span("service.ingest", |_| {
                grid.fleet.ingest_app_as(&source, grid.name)
            });
            if let Err(e) = ingested {
                out.wrong.push(format!("ingest: {e}"));
                break;
            }
        }
        let mut stream = match grid.exec.begin_upgrade(source, grid.name.to_string()) {
            Ok(Ok(stream)) => stream,
            Ok(Err(e)) => {
                out.wrong.push(format!("rollout refused: {e}"));
                break;
            }
            Err(e) => {
                out.wrong.push(format!("executor: {e:?}"));
                break;
            }
        };
        let mut arrivals = Vec::new();
        while stream.next_part().is_some() {
            if tracer.on() {
                arrivals.push(began.elapsed().as_secs_f64() * 1e3);
            }
        }
        let rollout = stream.finish();
        let wall = began.elapsed().as_secs_f64();
        out.attempted += HOMES as u64;
        out.failed += rollout.failed.len() as u64;
        let touched = rollout.upgraded.len() + rollout.pending.len();
        if touched != HOMES
            || !rollout.failed.is_empty()
            || rollout.poisoned_shards + rollout.refused_shards > 0
            || !rollout.journal_lapses.is_empty()
        {
            out.wrong.push(format!(
                "rollout touched {touched} of {HOMES} homes, {} failed, {} poisoned, {} refused, {} lapses",
                rollout.failed.len(),
                rollout.poisoned_shards,
                rollout.refused_shards,
                rollout.journal_lapses.len()
            ));
        }
        let records = grid.journal.next_offset() - offset;
        match records_per_rollout {
            None => records_per_rollout = Some(records),
            Some(first) if first != records => out.wrong.push(format!(
                "journal records per rollout differ: {first} vs {records}"
            )),
            Some(_) => {}
        }
        walls.push(wall);
        if !arrivals.is_empty() {
            let p50 = median(&arrivals);
            let max = arrivals.iter().cloned().fold(0.0, f64::max);
            part_p50.push(p50);
            part_max.push(max);
            skew.push(max / p50);
        }
    }
    let wall = median(&walls);
    out.units = walls.len();
    out.rates = walls.iter().map(|w| HOMES as f64 / w).collect();
    out.latencies_ms = walls.iter().map(|w| w * 1e3).collect();
    out.aliases
        .put("rollout_homes_per_s", HOMES as f64 / wall, "1/s");
    out.aliases.put("rollout_p50_ms", wall * 1e3, "ms");

    if tracer.on() {
        let l = &mut out.layers;
        l.put("api.part_ms_p50", median(&part_p50), "ms");
        l.put("api.part_ms_max", median(&part_max), "ms");
        l.put("api.part_skew", median(&skew), "ratio");
        l.put(
            "service.ingest_ms",
            median(&tracer.ms("service.ingest")),
            "ms",
        );
        l.put(
            "api.install_many_ms",
            median(&tracer.ms("api.install_many")),
            "ms",
        );
        let (name, source) = (grid.name, grid.versions[0].as_str());
        let (prepare, rules) = prepare_us(source, name);
        l.put("detector.prepare_us", prepare, "us");
        l.put("detector.rolled_out_rules", rules as f64, "count");
        l.put(
            "detector.prepare_share",
            prepare * rules as f64 * HOMES as f64 / (wall * 1e6),
            "ratio",
        );
        l.put(
            "journal.rollout_records",
            records_per_rollout.unwrap_or(0) as f64,
            "count",
        );
    }
    let cache = grid.fleet.store().verdict_cache().stats();
    out.cache = (
        cache.hits - cache_before.hits,
        cache.misses - cache_before.misses,
    );
    let journal = grid.journal.stats_json();
    let delta = |key: &str| num(&journal, key) - num(&journal_before, key);
    out.journal = (
        delta("records"),
        delta("appendBytesSession"),
        delta("ioRetriesSession"),
    );
    out.ops = out.attempted;
    out
}
