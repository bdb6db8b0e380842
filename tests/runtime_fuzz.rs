//! Scenario-fuzz harness for the runtime mediation engine: randomized
//! homes and event schedules are driven through **paired simulations** —
//! one unmediated, one with the enforcer compiled from the scenario's own
//! install-time detection report — proving differentially that
//!
//! 1. the mediated run never exhibits a detected threat's interference
//!    signature (both members of the pair acting in the same run), and
//! 2. on threat-free homes the mediated and unmediated traces are
//!    **identical**, bit for bit: mediation perturbs nothing it was not
//!    asked to handle.
//!
//! Like the PR-1 properties suite, the generator is a seeded SplitMix64,
//! so every scenario reproduces from its seed.

use hg_capability::device_kind::DeviceKind;
use hg_detector::{Detector, Threat, Unification};
use hg_rules::constraint::Formula;
use hg_rules::rule::{Action, Condition, Rule, RuleId, Trigger};
use hg_rules::value::Value;
use hg_rules::varid::{DeviceRef, VarId};
use hg_runtime::{Enforcer, PolicyTable, SharedEnforcer};
use hg_sim::{Device, Home};
use std::collections::BTreeMap;

const SCENARIOS: u64 = 128;

/// SplitMix64, as in `tests/properties.rs`.
struct Gen {
    state: u64,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen {
            state: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xd1b5_4a32_d192_ed03,
        }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo) as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.range(0, 100) < percent
    }
}

/// The fixed device palette every generated home is furnished with.
/// `(id, capability, kind)`.
const SENSORS: [(&str, &str); 3] = [
    ("motion-1", "motionSensor"),
    ("contact-1", "contactSensor"),
    ("leak-1", "waterSensor"),
];

const ACTUATORS: [(&str, &str, DeviceKind); 6] = [
    ("lamp-1", "switch", DeviceKind::Light),
    ("lamp-2", "switch", DeviceKind::Light),
    ("heater-1", "switch", DeviceKind::Heater),
    ("fan-1", "switch", DeviceKind::Fan),
    ("siren-1", "alarm", DeviceKind::Siren),
    ("lock-1", "lock", DeviceKind::Lock),
];

/// Observable trigger sources: `(device, capability, attribute, values)`.
const TRIGGER_SOURCES: [(&str, &str, &str, [&str; 2]); 7] = [
    ("motion-1", "motionSensor", "motion", ["active", "inactive"]),
    ("contact-1", "contactSensor", "contact", ["open", "closed"]),
    ("leak-1", "waterSensor", "water", ["wet", "dry"]),
    ("lamp-1", "switch", "switch", ["on", "off"]),
    ("lamp-2", "switch", "switch", ["on", "off"]),
    ("heater-1", "switch", "switch", ["on", "off"]),
    ("fan-1", "switch", "switch", ["on", "off"]),
];

/// Commands per actuator palette slot.
const COMMANDS: [[&str; 2]; 6] = [
    ["on", "off"],
    ["on", "off"],
    ["on", "off"],
    ["on", "off"],
    ["siren", "off"],
    ["lock", "unlock"],
];

const MODES: [&str; 3] = ["Home", "Away", "Night"];

/// One generated scenario: rules (with slot bindings), the binding map,
/// and an external event schedule.
struct Scenario {
    rules: Vec<Rule>,
    bindings: BTreeMap<(String, String), String>,
    schedule: Vec<Event>,
}

enum Event {
    Stimulate(&'static str, &'static str, &'static str),
    SetMode(&'static str),
}

fn kind_of(device: &str) -> DeviceKind {
    ACTUATORS
        .iter()
        .find(|(id, _, _)| *id == device)
        .map(|(_, _, k)| *k)
        .unwrap_or(DeviceKind::Unknown)
}

fn generate(seed: u64) -> Scenario {
    let mut g = Gen::new(seed);
    let mut rules = Vec::new();
    let mut bindings = BTreeMap::new();
    let apps = g.range(2, 7);
    for i in 0..apps {
        let app = format!("App{i}");
        let (t_dev, t_cap, t_attr, t_values) = TRIGGER_SOURCES[g.range(0, TRIGGER_SOURCES.len())];
        let a_slot = g.range(0, ACTUATORS.len());
        let (a_dev, a_cap, a_kind) = ACTUATORS[a_slot];
        let command = COMMANDS[a_slot][g.range(0, 2)];
        let trigger_ref = DeviceRef::Unbound {
            app: app.clone(),
            input: "t".into(),
            capability: t_cap.into(),
            kind: kind_of(t_dev),
        };
        let action_ref = DeviceRef::Unbound {
            app: app.clone(),
            input: "a".into(),
            capability: a_cap.into(),
            kind: a_kind,
        };
        bindings.insert((app.clone(), "t".into()), t_dev.to_string());
        bindings.insert((app.clone(), "a".into()), a_dev.to_string());
        let condition = if g.chance(30) {
            Condition {
                data_constraints: vec![],
                predicate: Formula::var_eq(VarId::Mode, Value::sym(MODES[g.range(0, 3)])),
            }
        } else {
            Condition::always()
        };
        let mut action = Action::device(action_ref, command);
        if g.chance(20) {
            action = action.after(30); // a delayed command (races via delay)
        }
        rules.push(Rule {
            id: RuleId::new(app, 0),
            trigger: Trigger::DeviceEvent {
                subject: trigger_ref.clone(),
                attribute: t_attr.into(),
                constraint: Some(Formula::var_eq(
                    VarId::device_attr(trigger_ref, t_attr),
                    Value::sym(t_values[g.range(0, 2)]),
                )),
            },
            condition,
            actions: vec![action],
        });
    }
    let mut schedule = Vec::new();
    // Every sensor reports its "active" value at least once, so rule pairs
    // sharing a trigger actually collide; extra random events (both sensor
    // polarities, mode flips) fill the run out.
    for &(dev, _, attr, values) in TRIGGER_SOURCES.iter().take(3) {
        schedule.push(Event::Stimulate(dev, attr, values[0]));
    }
    for _ in 0..g.range(3, 9) {
        if g.chance(15) {
            schedule.push(Event::SetMode(MODES[g.range(0, 3)]));
        } else {
            let (dev, _, attr, values) = TRIGGER_SOURCES[g.range(0, 3)];
            schedule.push(Event::Stimulate(dev, attr, values[g.range(0, 2)]));
        }
    }
    Scenario {
        rules,
        bindings,
        schedule,
    }
}

/// Builds the palette home and installs the scenario's unified rules.
fn build_home(seed: u64, scenario: &Scenario, unification: &Unification) -> Home {
    let mut home = Home::new(seed);
    for (id, cap) in SENSORS {
        home.add_device(Device::new(id, id, cap, DeviceKind::Unknown));
    }
    for (id, cap, kind) in ACTUATORS {
        home.add_device(Device::new(id, id, cap, kind));
    }
    for rule in &scenario.rules {
        home.install_rule(unification.unify_rule(rule));
    }
    home
}

fn drive(home: &mut Home, schedule: &[Event]) {
    for event in schedule {
        match event {
            Event::Stimulate(dev, attr, value) => home.stimulate(dev, attr, Value::sym(*value)),
            Event::SetMode(mode) => home.set_mode(mode),
        }
    }
}

/// Detected threats of a scenario, under its binding unification.
fn detector(unification: &Unification) -> Detector {
    Detector {
        unification: unification.clone(),
        ..Detector::default()
    }
}

fn detect(scenario: &Scenario, unification: &Unification) -> Vec<Threat> {
    detector(unification).detect_all(&scenario.rules).0
}

#[test]
fn mediation_is_differentially_sound_over_seeded_scenarios() {
    let mut with_threats = 0usize;
    let mut threat_free = 0usize;
    let mut manifested = 0usize;
    for seed in 0..SCENARIOS {
        let scenario = generate(seed);
        let unification = Unification::Bindings(scenario.bindings.clone());
        let threats = detect(&scenario, &unification);

        // Paired simulations: identical seed, identical schedule.
        let mut plain = build_home(seed, &scenario, &unification);
        drive(&mut plain, &scenario.schedule);

        let enforcer = SharedEnforcer::new(Enforcer::from_threats(
            &threats,
            &scenario.rules,
            &detector(&unification),
            &PolicyTable::block_all(),
        ));
        let mut mediated = build_home(seed, &scenario, &unification);
        mediated.set_mediator(enforcer.mediator());
        drive(&mut mediated, &scenario.schedule);

        if threats.is_empty() {
            threat_free += 1;
            assert_eq!(
                plain.trace, mediated.trace,
                "seed {seed}: a threat-free home must be untouched by mediation"
            );
            assert_eq!(
                enforcer.stats().mediated,
                0,
                "seed {seed}: nothing to mediate"
            );
            continue;
        }

        with_threats += 1;
        for threat in &threats {
            let (src, dst) = (threat.source.to_string(), threat.target.to_string());
            // The interference signature: both members of a detected pair
            // acting in the same run. Under the strict table the enforced
            // run must never exhibit it...
            assert!(
                !(mediated.fired(&src) && mediated.fired(&dst)),
                "seed {seed}: {threat} manifested under mediation"
            );
            // ...while the unmediated run is free to (and often does).
            if plain.fired(&src) && plain.fired(&dst) {
                manifested += 1;
                assert!(
                    !enforcer.journal().is_empty(),
                    "seed {seed}: {threat} manifested unmediated, so the \
                     enforcer must have decided something"
                );
            }
        }
    }
    // The property must not hold vacuously: the generator has to produce
    // threat-laden and threat-free scenarios, and interferences that
    // actually manifest dynamically.
    assert!(
        with_threats >= 20,
        "only {with_threats} threat-laden scenarios"
    );
    assert!(
        threat_free >= 10,
        "only {threat_free} threat-free scenarios"
    );
    assert!(
        manifested >= 10,
        "only {manifested} manifested interferences"
    );
}

#[test]
fn notify_all_mediation_never_changes_any_trace() {
    // The weakest table journals but never intervenes: every scenario —
    // threat-laden or not — must replay identically.
    for seed in 0..32 {
        let scenario = generate(seed);
        let unification = Unification::Bindings(scenario.bindings.clone());
        let threats = detect(&scenario, &unification);

        let mut plain = build_home(seed, &scenario, &unification);
        drive(&mut plain, &scenario.schedule);

        let enforcer = SharedEnforcer::new(Enforcer::from_threats(
            &threats,
            &scenario.rules,
            &detector(&unification),
            &PolicyTable::notify_all(),
        ));
        let mut mediated = build_home(seed, &scenario, &unification);
        mediated.set_mediator(enforcer.mediator());
        drive(&mut mediated, &scenario.schedule);

        assert_eq!(
            plain.trace, mediated.trace,
            "seed {seed}: notify-only mediation must be a pure observer"
        );
        assert_eq!(enforcer.stats().mediated, 0);
    }
}
