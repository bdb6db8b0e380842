//! Per-`ThreatKind` mediation tests: one minimal two-rule corpus entry per
//! Table I kind, asserting the runtime policy decision for that kind —
//! blocked / reordered / deferred / journaled — end to end through
//! extraction, detection, mediation-point compilation and the enforcer.

use hg_detector::{Detector, Threat, ThreatKind};
use hg_rules::rule::Rule;
use hg_runtime::{Enforcer, HandlingPolicy, PolicyTable, Verdict};
use hg_sim::Decision;
use hg_symexec::{extract, ExtractorConfig};

/// Extracts two single-rule apps, detects their threats, and returns
/// (rules, threats).
fn corpus_pair(a: &str, an: &str, b: &str, bn: &str) -> (Vec<Rule>, Vec<Threat>) {
    let ra = extract(a, an, &ExtractorConfig::extended()).unwrap().rules;
    let rb = extract(b, bn, &ExtractorConfig::extended()).unwrap().rules;
    let det = Detector::store_wide();
    let mut threats = Vec::new();
    for x in &ra {
        for y in &rb {
            let (t, _) = det.detect_pair(x, y);
            threats.extend(t);
        }
    }
    let mut rules = ra;
    rules.extend(rb);
    (rules, threats)
}

fn threat_of(threats: &[Threat], kind: ThreatKind) -> &Threat {
    threats
        .iter()
        .find(|t| t.kind == kind)
        .unwrap_or_else(|| panic!("no {kind} in {threats:?}"))
}

fn enforcer(rules: &[Rule], threats: &[Threat], table: PolicyTable) -> Enforcer {
    Enforcer::from_threats(threats, rules, &Detector::store_wide(), &table)
}

#[test]
fn actuator_race_is_reordered_by_priority() {
    // Table I AR: same trigger, contradictory commands on the same window.
    let (rules, threats) = corpus_pair(
        r#"
input "d", "capability.contactSensor"
input "w", "capability.switch", title: "window opener"
def installed() { subscribe(d, "contact.open", h) }
def h(evt) { w.on() }
"#,
        "RaceA",
        r#"
input "d", "capability.contactSensor"
input "w", "capability.switch", title: "window opener"
def installed() { subscribe(d, "contact.open", h) }
def h(evt) { w.off() }
"#,
        "RaceB",
    );
    let ar = threat_of(&threats, ThreatKind::ActuatorRace).clone();
    // The user ranks RaceB (close the window) above RaceA.
    let table = PolicyTable::notify_all().prioritize([ar.target.clone(), ar.source.clone()]);
    let mut e = enforcer(&rules, &threats, table);

    // Priority does not suppress firings — both rules run...
    assert_eq!(e.decide_fire(&ar.source, 0), Decision::Allow);
    assert_eq!(e.decide_fire(&ar.target, 0), Decision::Allow);
    // ...but of the two same-instant conflicting commands on the shared
    // actuator, only the ranked winner's takes effect.
    let window = "type:switch/windowOpener";
    assert_eq!(
        e.decide_command(&ar.target, window, "off", 0),
        Decision::Allow
    );
    assert_eq!(
        e.decide_command(&ar.source, window, "on", 0),
        Decision::Suppress
    );
    let journal = e.journal();
    let decision = journal.for_kind(ThreatKind::ActuatorRace).next().unwrap();
    assert_eq!(decision.verdict, Verdict::Reordered);
    assert_eq!(decision.rule, ar.source);
}

#[test]
fn goal_conflict_is_blocked() {
    // Table I GC: heater (temperature ↑) vs window opener (temperature ↓).
    let (rules, threats) = corpus_pair(
        r#"
input "p", "capability.presenceSensor"
input "heater", "capability.switch", title: "space heater"
def installed() { subscribe(p, "presence.present", h) }
def h(evt) { heater.on() }
"#,
        "GoalA",
        r#"
input "l", "capability.illuminanceMeasurement"
input "w", "capability.switch", title: "window opener"
def installed() { subscribe(l, "illuminance", h) }
def h(evt) { if (evt.value < 10) { w.on() } }
"#,
        "GoalB",
    );
    let gc = threat_of(&threats, ThreatKind::GoalConflict).clone();
    let table = PolicyTable::notify_all().with(ThreatKind::GoalConflict, HandlingPolicy::Block);
    let mut e = enforcer(&rules, &threats, table);
    assert_eq!(e.decide_fire(&gc.source, 0), Decision::Allow);
    assert_eq!(e.decide_fire(&gc.target, 100), Decision::Suppress);
    let journal = e.journal();
    let decision = journal.for_kind(ThreatKind::GoalConflict).next().unwrap();
    assert_eq!(decision.verdict, Verdict::Blocked);
}

#[test]
fn covert_triggering_is_blocked() {
    // Table I CT: A turns the TV on, which is B's trigger.
    let (rules, threats) = corpus_pair(
        r#"
input "p", "capability.presenceSensor"
input "tv", "capability.switch", title: "the TV"
def installed() { subscribe(p, "presence.present", h) }
def h(evt) { tv.on() }
"#,
        "CovertA",
        r#"
input "tv", "capability.switch", title: "the TV"
input "w", "capability.switch", title: "window opener"
def installed() { subscribe(tv, "switch.on", h) }
def h(evt) { w.on() }
"#,
        "CovertB",
    );
    let ct = threat_of(&threats, ThreatKind::CovertTriggering).clone();
    let table = PolicyTable::notify_all().with(ThreatKind::CovertTriggering, HandlingPolicy::Block);
    let mut e = enforcer(&rules, &threats, table);
    assert_eq!(e.decide_fire(&ct.source, 0), Decision::Allow);
    // The covertly-triggered firing is refused.
    assert_eq!(e.decide_fire(&ct.target, 0), Decision::Suppress);
    let journal = e.journal();
    let decision = journal
        .for_kind(ThreatKind::CovertTriggering)
        .next()
        .unwrap();
    assert_eq!(decision.verdict, Verdict::Blocked);
    assert_eq!(decision.rule, ct.target);
}

#[test]
fn self_disabling_is_blocked() {
    // Table I SD: A turns the AC on; the power spike triggers B, which
    // turns it back off.
    let (rules, threats) = corpus_pair(
        r#"
input "m", "capability.motionSensor"
input "ac", "capability.switch", title: "air conditioner"
def installed() { subscribe(m, "motion.active", h) }
def h(evt) { ac.on() }
"#,
        "SelfA",
        r#"
input "meter", "capability.powerMeter"
input "ac", "capability.switch", title: "air conditioner"
def installed() { subscribe(meter, "power", h) }
def h(evt) { if (evt.value > 3000) { ac.off() } }
"#,
        "SelfB",
    );
    let sd = threat_of(&threats, ThreatKind::SelfDisabling).clone();
    let table = PolicyTable::notify_all().with(ThreatKind::SelfDisabling, HandlingPolicy::Block);
    let mut e = enforcer(&rules, &threats, table);
    assert_eq!(e.decide_fire(&sd.source, 0), Decision::Allow);
    assert_eq!(e.decide_fire(&sd.target, 50), Decision::Suppress);
    let journal = e.journal();
    let decision = journal.for_kind(ThreatKind::SelfDisabling).next().unwrap();
    assert_eq!(decision.verdict, Verdict::Blocked);
}

#[test]
fn loop_triggering_is_blocked() {
    // Table I LT: the lamp's own illuminance feedback flips it forever.
    let (rules, threats) = corpus_pair(
        r#"
input "l", "capability.illuminanceMeasurement"
input "lamp", "capability.switch", title: "lights"
def installed() { subscribe(l, "illuminance", h) }
def h(evt) { if (evt.value < 30) { lamp.on() } }
"#,
        "LoopA",
        r#"
input "l", "capability.illuminanceMeasurement"
input "lamp", "capability.switch", title: "lights"
def installed() { subscribe(l, "illuminance", h) }
def h(evt) { if (evt.value > 50) { lamp.off() } }
"#,
        "LoopB",
    );
    let lt = threat_of(&threats, ThreatKind::LoopTriggering).clone();
    let table = PolicyTable::notify_all().with(ThreatKind::LoopTriggering, HandlingPolicy::Block);
    let mut e = enforcer(&rules, &threats, table);
    assert_eq!(e.decide_fire(&lt.source, 0), Decision::Allow);
    // The loop's second edge is refused: the cycle cannot close.
    assert_eq!(e.decide_fire(&lt.target, 10), Decision::Suppress);
    let journal = e.journal();
    let decision = journal.for_kind(ThreatKind::LoopTriggering).next().unwrap();
    assert_eq!(decision.verdict, Verdict::Blocked);
}

#[test]
fn enabling_condition_is_deferred() {
    // Table I EC: A locks the door, enabling B's "door locked" condition.
    let (rules, threats) = corpus_pair(
        r#"
input "p", "capability.presenceSensor"
input "door", "capability.lock", title: "front door"
def installed() { subscribe(p, "presence.not present", h) }
def h(evt) { door.lock() }
"#,
        "EnableA",
        r#"
input "m", "capability.motionSensor"
input "door", "capability.lock", title: "front door"
input "cam", "capability.switch", title: "camera outlet"
def installed() { subscribe(m, "motion.active", h) }
def h(evt) { if (door.currentLock == "locked") { cam.on() } }
"#,
        "EnableB",
    );
    let ec = threat_of(&threats, ThreatKind::EnablingCondition).clone();
    let table = PolicyTable::notify_all().with(
        ThreatKind::EnablingCondition,
        HandlingPolicy::Defer { window_ms: 2_000 },
    );
    let mut e = enforcer(&rules, &threats, table);
    assert_eq!(e.decide_fire(&ec.source, 0), Decision::Allow);
    // The enabled rule still runs, but only past the mediation window.
    assert_eq!(
        e.decide_fire(&ec.target, 100),
        Decision::Defer { delay_ms: 2_000 }
    );
    let journal = e.journal();
    let decision = journal
        .for_kind(ThreatKind::EnablingCondition)
        .next()
        .unwrap();
    assert_eq!(decision.verdict, Verdict::Deferred { delay_ms: 2_000 });
}

#[test]
fn disabling_condition_is_journaled() {
    // Table I DC: A's delayed lamp-off falsifies B's "lamp on" condition.
    let (rules, threats) = corpus_pair(
        r#"
input "lamp", "capability.switch", title: "floor lamp"
def installed() { subscribe(lamp, "switch.on", h) }
def h(evt) { runIn(300, off) }
def off() { lamp.off() }
"#,
        "DisableA",
        r#"
input "lamp", "capability.switch", title: "floor lamp"
input "m", "capability.motionSensor"
input "siren", "capability.alarm"
def installed() { subscribe(m, "motion.active", h) }
def h(evt) { if (lamp.currentSwitch == "on") { siren.siren() } }
"#,
        "DisableB",
    );
    let dc = threat_of(&threats, ThreatKind::DisablingCondition).clone();
    let mut e = enforcer(&rules, &threats, PolicyTable::notify_all());
    assert_eq!(e.decide_fire(&dc.source, 0), Decision::Allow);
    // Notify never intervenes — the interference is made overt instead.
    assert_eq!(e.decide_fire(&dc.target, 100), Decision::Allow);
    assert_eq!(e.stats().mediated, 0);
    let journal = e.journal();
    let decision = journal
        .for_kind(ThreatKind::DisablingCondition)
        .next()
        .unwrap();
    assert_eq!(decision.verdict, Verdict::Notified);
    assert_eq!(decision.rule, dc.target);
    assert_eq!(decision.counterpart, dc.source);
}
