//! The fleet-shared verdict cache, differentially and behaviorally.
//!
//! The load-bearing property: a cached detector reports **bit-identical**
//! threats — and identical stats modulo the hit/miss markers — to an
//! uncached one, across repeated pairs, differing-but-irrelevant
//! configuration, and relevant-context changes (which must miss, not
//! wrongly share).

use hg_detector::{
    DetectStats, DetectionEngine, Detector, PreparedRule, Unification, VerdictCache,
};
use hg_rules::rule::Rule;
use hg_symexec::{extract, ExtractorConfig};
use std::sync::Arc;

fn rules_of(source: &str, name: &str) -> Vec<Rule> {
    extract(source, name, &ExtractorConfig::extended())
        .unwrap()
        .rules
}

fn on_app(name: &str) -> Vec<Rule> {
    rules_of(
        &format!(
            r#"
definition(name: "{name}")
input "m", "capability.motionSensor"
input "lamp", "capability.switch", title: "lamp"
def installed() {{ subscribe(m, "motion.active", h) }}
def h(evt) {{ lamp.on() }}
"#
        ),
        name,
    )
}

fn off_app(name: &str) -> Vec<Rule> {
    rules_of(
        &format!(
            r#"
definition(name: "{name}")
input "m", "capability.motionSensor"
input "lamp", "capability.switch", title: "lamp"
def installed() {{ subscribe(m, "motion.active", h) }}
def h(evt) {{ lamp.off() }}
"#
        ),
        name,
    )
}

/// An app whose condition reads a user-configured threshold.
fn threshold_app(name: &str) -> Vec<Rule> {
    rules_of(
        &format!(
            r#"
definition(name: "{name}")
input "t", "capability.temperatureMeasurement"
input "limit", "number"
input "heater", "capability.switch", title: "space heater"
def installed() {{ subscribe(t, "temperature", h) }}
def h(evt) {{ if (t.currentTemperature > limit) {{ heater.off() }} }}
"#
        ),
        name,
    )
}

fn prepared(rules: &[Rule]) -> Vec<PreparedRule> {
    rules
        .iter()
        .map(|r| PreparedRule::prepare(r, &Unification::ByType))
        .collect()
}

fn cached_detector(cache: &Arc<VerdictCache>) -> Detector {
    Detector::store_wide().with_cache(cache.clone())
}

#[test]
fn second_identical_pair_is_a_hit_with_identical_verdict() {
    let cache = Arc::new(VerdictCache::new());
    let det = cached_detector(&cache);
    let a = prepared(&on_app("OnApp"));
    let b = prepared(&off_app("OffApp"));

    let (first, s1) = det.detect_pair_prepared(&a[0], &b[0]);
    assert_eq!((s1.cache_hits, s1.cache_misses), (0, 1));
    assert!(!first.is_empty());

    let (second, s2) = det.detect_pair_prepared(&a[0], &b[0]);
    assert_eq!((s2.cache_hits, s2.cache_misses), (1, 0));
    assert_eq!(
        first, second,
        "a hit must replay the verdict bit-identically"
    );
    assert_eq!(s1.logical(), s2.logical(), "logical effort is memoized too");

    let stats = cache.stats();
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.entries, 1);
}

#[test]
fn uncached_and_cached_detectors_agree_over_population() {
    // Same installed population, probed twice with a cached engine and
    // once with an uncached one: all three answers agree.
    let cache = Arc::new(VerdictCache::new());
    let mut cached = DetectionEngine::new(cached_detector(&cache));
    let mut plain = DetectionEngine::new(Detector::store_wide());
    for rules in [on_app("A"), off_app("B"), threshold_app("C")] {
        cached.install_rules(&rules);
        plain.install_rules(&rules);
    }
    let probe = off_app("Probe");
    let (cold, cold_stats) = cached.check(&probe);
    let (warm, warm_stats) = cached.check(&probe);
    let (truth, truth_stats) = plain.check(&probe);
    assert_eq!(cold, truth);
    assert_eq!(warm, truth);
    assert_eq!(cold_stats.logical(), truth_stats.logical());
    assert_eq!(warm_stats.logical(), truth_stats.logical());
    assert_eq!(truth_stats.cache_hits + truth_stats.cache_misses, 0);
    assert_eq!(warm_stats.cache_hits, warm_stats.pairs, "all pairs warm");
}

#[test]
fn directed_pairs_are_keyed_by_order() {
    let cache = Arc::new(VerdictCache::new());
    let det = cached_detector(&cache);
    let a = prepared(&on_app("OnApp"));
    let b = prepared(&off_app("OffApp"));
    let (ab, _) = det.detect_pair_prepared(&a[0], &b[0]);
    let (ba, s) = det.detect_pair_prepared(&b[0], &a[0]);
    assert_eq!(s.cache_misses, 1, "the swapped pair is a distinct key");
    // Both orders agree modulo source/target direction.
    assert_eq!(ab.len(), ba.len());
    assert_eq!(cache.len(), 2);
}

#[test]
fn irrelevant_config_shares_entries_relevant_config_does_not() {
    use hg_rules::value::Value;
    use hg_rules::varid::VarId;

    let cache = Arc::new(VerdictCache::new());
    let a = prepared(&threshold_app("Thermo"));
    let b = prepared(&on_app("OnApp"));
    // The pair reads only Thermo's `limit` input.
    assert!(a[0]
        .user_inputs()
        .any(|v| matches!(v, VarId::UserInput { name, .. } if name == "limit")));

    let mut home1 = cached_detector(&cache);
    home1.solver.set_user_value(
        "Thermo",
        "limit",
        Value::Num(hg_capability::domains::scaled(30)),
    );
    // Home 2 shares the relevant value but differs in configuration the
    // pair never reads.
    let mut home2 = home1.clone();
    home2
        .solver
        .set_user_value("Unrelated", "knob", Value::Num(7));
    // Home 3 changes the value the pair actually substitutes.
    let mut home3 = home1.clone();
    home3.solver.set_user_value(
        "Thermo",
        "limit",
        Value::Num(hg_capability::domains::scaled(10)),
    );

    let (_, s1) = home1.detect_pair_prepared(&a[0], &b[0]);
    let (_, s2) = home2.detect_pair_prepared(&a[0], &b[0]);
    let (_, s3) = home3.detect_pair_prepared(&a[0], &b[0]);
    assert_eq!(s1.cache_misses, 1);
    assert_eq!(
        s2.cache_hits, 1,
        "irrelevant config must share the fleet entry"
    );
    assert_eq!(
        s3.cache_misses, 1,
        "a changed referenced value must be a distinct key"
    );
    // Differing modes split entries too (the Mode domain changes).
    let mut night_home = home1.clone();
    night_home.solver.set_modes(["Day", "Night"]);
    let (_, s4) = night_home.detect_pair_prepared(&a[0], &b[0]);
    assert_eq!(s4.cache_misses, 1);
}

#[test]
fn different_unification_never_shares() {
    use std::collections::BTreeMap;

    let cache = Arc::new(VerdictCache::new());
    let rules_a = on_app("OnApp");
    let rules_b = off_app("OffApp");

    let by_type = cached_detector(&cache);
    let pa = PreparedRule::prepare(&rules_a[0], &by_type.unification);
    let pb = PreparedRule::prepare(&rules_b[0], &by_type.unification);
    let (threats_type, _) = by_type.detect_pair_prepared(&pa, &pb);
    assert!(!threats_type.is_empty(), "type-unified lamps race");

    // Bindings resolving the lamps to different devices: prepared forms
    // differ, so the key differs — the by-type verdict cannot leak in.
    let mut map = BTreeMap::new();
    map.insert(("OnApp".to_string(), "lamp".to_string()), "l1".to_string());
    map.insert(("OnApp".to_string(), "m".to_string()), "m1".to_string());
    map.insert(("OffApp".to_string(), "lamp".to_string()), "l2".to_string());
    map.insert(("OffApp".to_string(), "m".to_string()), "m1".to_string());
    let bound = Detector {
        unification: Unification::Bindings(map),
        ..Detector::default()
    }
    .with_cache(cache.clone());
    let qa = PreparedRule::prepare(&rules_a[0], &bound.unification);
    let qb = PreparedRule::prepare(&rules_b[0], &bound.unification);
    let (threats_bound, s) = bound.detect_pair_prepared(&qa, &qb);
    assert_eq!(s.cache_misses, 1, "differently-unified pair must miss");
    assert!(
        !threats_bound
            .iter()
            .any(|t| t.kind == hg_detector::ThreatKind::ActuatorRace),
        "different lamps cannot race: {threats_bound:?}"
    );
}

#[test]
fn eviction_drops_the_apps_entries_and_repopulates_fresh() {
    let cache = Arc::new(VerdictCache::new());
    let det = cached_detector(&cache);
    let a = prepared(&on_app("OnApp"));
    let b = prepared(&off_app("OffApp"));
    det.detect_pair_prepared(&a[0], &b[0]);
    assert_eq!(cache.len(), 1);

    assert_eq!(cache.evict_app("OffApp"), 1);
    assert!(cache.is_empty());

    // The next identical pair misses, recomputes, and repopulates.
    let (threats, s) = det.detect_pair_prepared(&a[0], &b[0]);
    assert_eq!(s.cache_misses, 1);
    assert!(!threats.is_empty());
    assert_eq!(cache.len(), 1);
}

#[test]
fn upgraded_rules_never_see_the_old_verdict() {
    // Even WITHOUT eviction, a v2 rule must miss: keys are content
    // fingerprints, so the stale v1 verdict is unreachable — the "stale
    // verdict survives an app replacement" failure mode is structurally
    // impossible, eviction only reclaims the memory.
    let cache = Arc::new(VerdictCache::new());
    let det = cached_detector(&cache);
    let a = prepared(&on_app("OnApp"));
    let v1 = prepared(&off_app("Other"));
    let (threats_v1, _) = det.detect_pair_prepared(&a[0], &v1[0]);
    assert!(!threats_v1.is_empty(), "v1 races with OnApp");

    // "Other" v2 carries the same identity but benign automation.
    let v2_rules: Vec<Rule> = rules_of(
        r#"
definition(name: "Other")
input "leak", "capability.waterSensor"
input "valve", "capability.valve"
def installed() { subscribe(leak, "water.wet", h) }
def h(evt) { valve.close() }
"#,
        "Other",
    );
    let v2 = prepared(&v2_rules);
    let (threats_v2, s) = det.detect_pair_prepared(&a[0], &v2[0]);
    assert_eq!(s.cache_misses, 1, "v2 content is a fresh key");
    assert!(
        threats_v2.is_empty(),
        "the v1 verdict must not survive the replacement: {threats_v2:?}"
    );
}

#[test]
fn engines_sharing_a_cache_share_verdicts() {
    // Two "homes" (engines) over one cache: the second home's identical
    // check is answered entirely from the first home's work.
    let cache = Arc::new(VerdictCache::new());
    let mut home1 = DetectionEngine::new(cached_detector(&cache));
    let mut home2 = DetectionEngine::new(cached_detector(&cache));
    home1.install_rules(&on_app("OnApp"));
    home2.install_rules(&on_app("OnApp"));

    let probe = off_app("Probe");
    let (t1, s1) = home1.check(&probe);
    let (t2, s2) = home2.check(&probe);
    assert_eq!(t1, t2);
    assert_eq!(s1.cache_misses, 1);
    assert_eq!(s2.cache_hits, 1, "home 2 solved nothing");
    assert_eq!(s1.logical(), s2.logical());
}

#[test]
fn type_unified_engines_on_one_cache_share_prepared_rules() {
    use std::collections::BTreeMap;

    let cache = Arc::new(VerdictCache::new());
    let rules = on_app("OnApp");
    let mut home1 = DetectionEngine::new(cached_detector(&cache));
    let mut home2 = DetectionEngine::new(cached_detector(&cache));
    home1.install_rules(&rules);
    home2.install_rules(&rules);
    let shared: Vec<Arc<PreparedRule>> = home1.installed_prepared().cloned().collect();
    assert_eq!(shared.len(), rules.len());
    for (a, b) in shared.iter().zip(home2.installed_prepared()) {
        assert!(Arc::ptr_eq(a, b), "one preparation per rule, not per home");
    }
    assert_eq!(cache.prepared_len(), rules.len());

    // A home with device bindings prepares privately: its unified forms
    // are home-unique, and it adds nothing to the memo.
    let mut map = BTreeMap::new();
    map.insert(("OnApp".to_string(), "lamp".to_string()), "l1".to_string());
    let mut bound = DetectionEngine::new(
        Detector {
            unification: Unification::Bindings(map),
            ..Detector::default()
        }
        .with_cache(cache.clone()),
    );
    bound.install_rules(&rules);
    for (a, b) in shared.iter().zip(bound.installed_prepared()) {
        assert!(!Arc::ptr_eq(a, b));
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
    assert_eq!(cache.prepared_len(), rules.len());

    // The memo keeps nothing alive once the homes drop their rules.
    drop((shared, home1, home2, bound));
    assert_eq!(cache.prepared_len(), 0);

    // A forged entry filed under the probe's key is someone else's rule:
    // it must never be returned for the probe.
    let probe = off_app("Probe");
    let impostor = Arc::new(PreparedRule::prepare(&rules[0], &Unification::ByType));
    cache.insert_prepared_under(&probe[0], &impostor);
    let got = cached_detector(&cache).prepare(&probe[0]);
    assert!(!Arc::ptr_eq(&got, &impostor));
    assert_eq!(got.orig, probe[0]);
    assert_eq!(
        got.fingerprint(),
        PreparedRule::prepare(&probe[0], &Unification::ByType).fingerprint()
    );
}

#[test]
fn stats_absorb_carries_cache_counters() {
    let mut total = DetectStats::default();
    total.absorb(DetectStats {
        cache_hits: 2,
        cache_misses: 1,
        ..Default::default()
    });
    assert_eq!(total.cache_hits, 2);
    assert_eq!(total.cache_misses, 1);
    assert_eq!(total.logical().cache_hits, 0);
}
