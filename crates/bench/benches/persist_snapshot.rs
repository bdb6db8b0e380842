//! Snapshot/restore bench: whole-fleet image serialization throughput
//! and warm-restart latency (a snapshot is a full journal checkpoint).
//!
//! This is the perf-trajectory guard for the durability layer: a snapshot
//! must stay a linear walk over store + homes (no per-home re-extraction,
//! no solver work), and a restore must rebuild every home's derived state
//! (detection postings, lazily the mediation index) fast enough that a
//! process restart is an operational non-event.

use criterion::{criterion_group, criterion_main, Criterion};
use hg_corpus::device_control_apps;
use hg_service::{Checkpoint, Fleet, HomeId, RuleStore};
use std::hint::black_box;
use std::time::Instant;

/// Builds a fleet of `homes` and force-installs `apps` corpus apps into
/// every home.
fn populate(homes: usize, apps: usize) -> (Fleet, Vec<HomeId>) {
    let fleet = Fleet::builder(RuleStore::shared()).shards(16).build();
    let ids: Vec<HomeId> = (0..homes).map(|_| fleet.create_home().unwrap()).collect();
    for app in device_control_apps().iter().take(apps) {
        for result in fleet
            .install_many(&ids, app.source, app.name, None)
            .unwrap()
        {
            result.1.unwrap();
        }
    }
    (fleet, ids)
}

fn bench_persist_snapshot(c: &mut Criterion) {
    // Headline numbers once, outside the timing loops.
    for (homes, apps) in [(16, 4), (64, 8)] {
        let (fleet, _ids) = populate(homes, apps);
        let started = Instant::now();
        let text = fleet.snapshot().unwrap().to_text();
        let snap_elapsed = started.elapsed();
        let started = Instant::now();
        let restored = Fleet::restore(Checkpoint::from_text(&text).unwrap()).unwrap();
        let restore_elapsed = started.elapsed();
        assert_eq!(restored.len(), homes);
        println!(
            "fleet {homes:>3} homes x {apps} apps: snapshot {:>8} bytes in {snap_elapsed:>9.2?}, \
             restore in {restore_elapsed:>9.2?} ({:.0} homes/sec revived)",
            text.len(),
            homes as f64 / restore_elapsed.as_secs_f64()
        );
    }

    let mut group = c.benchmark_group("persist_snapshot");
    group.sample_size(10);

    let (fleet, _ids) = populate(64, 4);
    group.bench_function("snapshot_to_text_64x4", |b| {
        b.iter(|| black_box(fleet.snapshot().unwrap().to_text()))
    });

    let text = fleet.snapshot().unwrap().to_text();
    group.bench_function("restore_image_text_64x4", |b| {
        b.iter(|| black_box(Fleet::restore(Checkpoint::from_text(&text).unwrap()).unwrap()))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_persist_snapshot
}
criterion_main!(benches);
