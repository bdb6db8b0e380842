//! Runtime-mediation bench: decisions/sec and per-decision latency of the
//! `hg-runtime` enforcer at 10 / 100 / 1000 installed rules.
//!
//! The workload synthesizes a population where half the rules pair into
//! Actuator Races (command-level mediation) and half into Covert
//! Triggering chains (fire-level mediation), compiles the mediation index,
//! then replays a full run of fire + command decisions per iteration. A
//! separate benchmark measures the allow-everything fast path for rules
//! that key into no mediation point — the cost every *uninvolved* event on
//! a mediated home pays.

use criterion::{criterion_group, criterion_main, Criterion};
use hg_detector::{Detector, Threat, ThreatKind};
use hg_rules::constraint::Formula;
use hg_rules::rule::{Action, Condition, Rule, RuleId, Trigger};
use hg_rules::value::Value;
use hg_rules::varid::{DeviceRef, VarId};
use hg_runtime::{Enforcer, PolicyTable};
use hg_sim::Decision;
use std::hint::black_box;

/// One synthetic rule: `motion-{i} active -> lamp-{pair} on|off`.
fn rule(i: usize, lamp: usize, command: &str) -> Rule {
    let sensor = DeviceRef::bound(format!("motion-{}", i % 10));
    let lamp = DeviceRef::bound(format!("lamp-{lamp}"));
    Rule {
        id: RuleId::new(format!("App{i}"), 0),
        trigger: Trigger::DeviceEvent {
            subject: sensor.clone(),
            attribute: "motion".into(),
            constraint: Some(Formula::var_eq(
                VarId::device_attr(sensor, "motion"),
                Value::sym("active"),
            )),
        },
        condition: Condition::always(),
        actions: vec![Action::device(lamp, command)],
    }
}

/// A population of `n` rules paired into threats: even pairs race on a
/// shared lamp (AR), odd pairs covertly trigger (CT).
fn population(n: usize) -> (Vec<Rule>, Vec<Threat>) {
    let mut rules = Vec::with_capacity(n);
    let mut threats = Vec::new();
    for pair in 0..n / 2 {
        let (a, b) = (2 * pair, 2 * pair + 1);
        rules.push(rule(a, pair, "on"));
        rules.push(rule(b, pair, "off"));
        let kind = if pair % 2 == 0 {
            ThreatKind::ActuatorRace
        } else {
            ThreatKind::CovertTriggering
        };
        threats.push(Threat {
            kind,
            source: RuleId::new(format!("App{a}"), 0),
            target: RuleId::new(format!("App{b}"), 0),
            witness: None,
            actuator: Some(format!("lamp-{pair}")),
            property: None,
            note: "synthetic bench threat".into(),
        });
    }
    if rules.len() < n {
        rules.push(rule(n - 1, n, "on")); // odd n: one uninvolved rule
    }
    (rules, threats)
}

/// One full mediated run over the population: every rule fires once and
/// issues its command; returns the number of suppressions (to keep the
/// work observable).
fn mediated_run(enforcer: &mut Enforcer, rules: &[Rule]) -> usize {
    enforcer.begin_run();
    let mut suppressed = 0;
    for (i, r) in rules.iter().enumerate() {
        if !matches!(enforcer.decide_fire(&r.id, i as u64), Decision::Allow) {
            suppressed += 1;
            continue;
        }
        let device = format!("lamp-{}", i / 2);
        let command = if i % 2 == 0 { "on" } else { "off" };
        if !matches!(
            enforcer.decide_command(&r.id, &device, command, i as u64),
            Decision::Allow
        ) {
            suppressed += 1;
        }
    }
    suppressed
}

fn bench_runtime_mediation(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_mediation");
    group.sample_size(10);
    for n in [10usize, 100, 1000] {
        let (rules, threats) = population(n);
        let mut enforcer = Enforcer::from_threats(
            &threats,
            &rules,
            &Detector::store_wide(),
            &PolicyTable::block_all(),
        );
        // Sanity outside the timing loop: every pair must mediate.
        let suppressed = mediated_run(&mut enforcer, &rules);
        assert_eq!(suppressed, n / 2, "one suppression per threat pair");
        enforcer.reset();

        group.bench_function(format!("decide_all/{n}_rules"), |b| {
            b.iter(|| {
                // Journal and stats are cleared outside the decisions so
                // memory stays bounded across samples.
                enforcer.reset();
                black_box(mediated_run(&mut enforcer, &rules))
            })
        });

        // Per-decision latency as measured by the engine itself.
        enforcer.reset();
        mediated_run(&mut enforcer, &rules);
        let stats = enforcer.stats();
        println!(
            "  {n:>4} rules: {} events, {} mediated, mean decision latency {}ns",
            stats.events,
            stats.mediated,
            stats.mean_latency_ns()
        );

        // The fast path: an event from a rule outside every mediation point.
        let outsider = RuleId::new("Outsider", 0);
        group.bench_function(format!("fast_path/{n}_rules"), |b| {
            b.iter(|| black_box(enforcer.decide_fire(&outsider, 0)))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_runtime_mediation
}
criterion_main!(benches);
