//! Warm restart: snapshot a running fleet, "kill the process", restore it
//! from the serialized bytes, and show that every confirmed decision —
//! installed apps, Allowed lists, handling policies, the store's ingest
//! cache — survived, while derived state (detection postings, mediation
//! points) was rebuilt rather than trusted from disk. Finishes with a
//! per-home export/import migrating one session into a second fleet, and
//! a fleet-wide forced uninstall of a store-pulled app.
//!
//! Run with: `cargo run -p homeguard-examples --bin warm_restart`

use hg_service::{Checkpoint, Fleet, RuleStore};

fn main() {
    let fleet = Fleet::new(RuleStore::shared());
    let alice = fleet.create_home().unwrap();
    let bob = fleet.create_home().unwrap();

    // Alice runs the Fig. 3 pair and accepts the Actuator Race; Bob runs
    // only ComfortTV.
    let comfort_tv = hg_corpus::benign_app("ComfortTV").expect("corpus app");
    let cold_defender = hg_corpus::benign_app("ColdDefender").expect("corpus app");
    fleet
        .install_app(alice, comfort_tv.source, comfort_tv.name, None)
        .expect("clean install");
    let dirty = fleet
        .install_app(alice, cold_defender.source, cold_defender.name, None)
        .expect("extraction works");
    assert!(!dirty.installed, "the race waits for the user");
    fleet.confirm_install(alice, dirty).expect("user accepts");
    fleet
        .install_app(bob, comfort_tv.source, comfort_tv.name, None)
        .expect("served from the ingest cache");

    // ---- snapshot: the only thing that survives the "crash" ------------
    let text = fleet.snapshot().expect("no shard is poisoned").to_text();
    println!(
        "=== snapshot: {} homes, {} store apps, {} bytes ===",
        fleet.len(),
        fleet.store().len(),
        text.len()
    );
    drop(fleet); // the process dies

    // ---- restore: the warm restart -------------------------------------
    let fleet = Fleet::restore(Checkpoint::from_text(&text).expect("intact bytes"))
        .expect("snapshot is well-formed");
    println!(
        "restored: {} homes, {} store apps",
        fleet.len(),
        fleet.store().len()
    );

    let allowed = fleet
        .with_home(alice, |h| h.allowed().len())
        .expect("alice's handle survived");
    println!("alice's Allowed list survived with {allowed} confirmed threat(s)");
    assert!(allowed >= 1);

    // Derived state was rebuilt: the Allowed race compiles back into live
    // mediation points.
    let points = fleet
        .with_home_mut(alice, |h| h.mediation_index().len())
        .expect("alice's handle survived");
    println!("...and recompiles into {points} mediation point(s)");
    assert!(points > 0);

    // Warm, not cold: re-publishing an unchanged source is a cache hit.
    let hits_before = fleet.store().cache_hits();
    fleet
        .store()
        .ingest(comfort_tv.source, comfort_tv.name)
        .expect("still extracts");
    assert_eq!(fleet.store().cache_hits(), hits_before + 1);
    println!("re-ingesting ComfortTV after the restart: cache hit, no re-extraction");

    // ---- migration: one home moves to another process ------------------
    let exported = hg_persist::home_to_text(&fleet.export_home(alice).expect("alice exists"));
    let other_process = Fleet::new(RuleStore::shared());
    let migrated = other_process
        .import_home(hg_persist::home_from_text(&exported).expect("intact bytes"))
        .expect("import journals cleanly");
    println!(
        "alice migrated to a second fleet as {migrated}: {:?}",
        other_process
            .with_home(migrated, |h| h.installed_apps())
            .expect("imported")
    );

    // ---- store-side retraction: a malicious app is pulled ---------------
    let outcome = fleet.force_uninstall("ColdDefender");
    println!(
        "force-uninstall ColdDefender: retracted from {} home(s), store retired: {}",
        outcome.removed.len(),
        outcome.store_retired
    );
    assert!(outcome.store_retired);
    assert!(!fleet.store().has_app("ColdDefender"));
    assert_eq!(
        fleet
            .with_home(alice, |h| h.allowed().len())
            .expect("alice exists"),
        0,
        "the pulled app's confirmed threats retired with it"
    );

    println!("\nwarm restart OK");
}
