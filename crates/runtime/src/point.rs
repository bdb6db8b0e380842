//! Mediation points: the install-time threat report compiled into the
//! indexed form the runtime engine consults on every intercepted event.
//!
//! A [`MediationPoint`] is one detected [`Threat`] with its handling policy
//! resolved and its interaction keys precomputed the same way the
//! detector's `CandidateIndex` posts rules: the canonical actuator
//! identities both rules command, the goal property the pair fights over,
//! and the trigger variables the pair observes. The [`MediationIndex`]
//! holds the points under those keys plus a rule-identity posting — the
//! primary runtime key, since the event loop reports which rule is firing
//! or commanding.

use crate::policy::{HandlingPolicy, PolicyTable};
use hg_capability::domains::EnvProperty;
use hg_detector::{Detector, PreparedRule, Threat, ThreatKind};
use hg_rules::rule::{Rule, RuleId};
use hg_rules::varid::VarId;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// One compiled mediation point: a detected threat, keyed for runtime
/// lookup, with its handling policy resolved.
#[derive(Debug, Clone)]
pub struct MediationPoint {
    /// The threat category (decides the policy and the journal entry).
    pub kind: ThreatKind,
    /// The interfering rule (R1 of the pair).
    pub source: RuleId,
    /// The interfered-with rule (R2 of the pair).
    pub target: RuleId,
    /// Canonical actuator identities both rules command (AR/SD/LT points;
    /// empty when the pair shares no actuator or the rules were not
    /// supplied at compile time).
    pub actuators: BTreeSet<String>,
    /// The contested goal property (GC and environment-channel points).
    pub property: Option<EnvProperty>,
    /// The trigger variables the pair observes, post-unification.
    pub trigger_vars: BTreeSet<VarId>,
    /// The resolved handling policy.
    pub policy: HandlingPolicy,
}

impl MediationPoint {
    /// The pair member opposite `rule`, if `rule` is a member.
    pub fn counterpart(&self, rule: &RuleId) -> Option<&RuleId> {
        if *rule == self.source {
            Some(&self.target)
        } else if *rule == self.target {
            Some(&self.source)
        } else {
            None
        }
    }
}

/// Compiled mediation points under their interaction keys.
#[derive(Debug, Clone, Default)]
pub struct MediationIndex {
    points: Vec<MediationPoint>,
    by_rule: BTreeMap<RuleId, Vec<usize>>,
    by_actuator: BTreeMap<String, Vec<usize>>,
    by_goal_prop: BTreeMap<EnvProperty, Vec<usize>>,
    by_trigger_var: BTreeMap<VarId, Vec<usize>>,
}

impl MediationIndex {
    /// Compiles an install-time threat report into mediation points.
    ///
    /// `rules` is the installed population the threats were detected over;
    /// supplying it (with the session's `detector`) lets the compiler
    /// resolve the shared actuator identities and trigger variables each
    /// pair collides on — the facets the detector's candidate index posts.
    /// Rules are prepared through [`Detector::prepare`], so a session
    /// sharing the fleet's preparations reuses them here. Threats whose
    /// rules are absent from `rules` still compile, keyed by rule identity
    /// alone.
    pub fn compile<'a>(
        threats: &[Threat],
        rules: impl IntoIterator<Item = &'a Rule>,
        detector: &Detector,
        table: &PolicyTable,
    ) -> MediationIndex {
        let prepared: BTreeMap<&RuleId, Arc<PreparedRule>> = rules
            .into_iter()
            .map(|r| (&r.id, detector.prepare(r)))
            .collect();
        let mut index = MediationIndex::default();
        for threat in threats {
            let src = prepared.get(&threat.source);
            let dst = prepared.get(&threat.target);
            let mut actuators = BTreeSet::new();
            let mut trigger_vars = BTreeSet::new();
            if let (Some(s), Some(d)) = (src, dst) {
                let dst_keys: BTreeSet<&str> = d.actuator_keys().collect();
                for key in s.actuator_keys().filter(|k| dst_keys.contains(k)) {
                    actuators.insert(key.to_string());
                }
                trigger_vars.extend(s.trigger_var());
                trigger_vars.extend(d.trigger_var());
            }
            index.insert(MediationPoint {
                kind: threat.kind,
                source: threat.source.clone(),
                target: threat.target.clone(),
                actuators,
                property: threat.property,
                trigger_vars,
                policy: table.policy(threat.kind).clone(),
            });
        }
        index
    }

    /// Adds one compiled point to every posting it keys under.
    pub fn insert(&mut self, point: MediationPoint) {
        let id = self.points.len();
        for rule in [&point.source, &point.target] {
            self.by_rule.entry(rule.clone()).or_default().push(id);
        }
        for key in &point.actuators {
            self.by_actuator.entry(key.clone()).or_default().push(id);
        }
        if let Some(prop) = point.property {
            self.by_goal_prop.entry(prop).or_default().push(id);
        }
        for var in &point.trigger_vars {
            self.by_trigger_var.entry(var.clone()).or_default().push(id);
        }
        self.points.push(point);
    }

    /// Keeps only the points `keep` accepts, rebuilding every posting.
    /// Returns how many points were retired. This is the runtime half of
    /// rule retraction: when an app is uninstalled or upgraded, its
    /// mediation points must disappear with it.
    pub fn retain(&mut self, mut keep: impl FnMut(&MediationPoint) -> bool) -> usize {
        let before = self.points.len();
        let points = std::mem::take(&mut self.points);
        self.by_rule.clear();
        self.by_actuator.clear();
        self.by_goal_prop.clear();
        self.by_trigger_var.clear();
        for point in points {
            if keep(&point) {
                self.insert(point);
            }
        }
        before - self.points.len()
    }

    /// Retires every point whose pair involves a rule of `app` (uninstall /
    /// upgrade retraction). Returns how many points were retired.
    pub fn remove_app(&mut self, app: &str) -> usize {
        self.retain(|point| point.source.app != app && point.target.app != app)
    }

    /// Number of compiled points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether no point is compiled (the enforcer's allow-everything fast
    /// path).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// All compiled points.
    pub fn points(&self) -> &[MediationPoint] {
        &self.points
    }

    /// Points where `rule` is a pair member.
    pub fn points_for_rule(&self, rule: &RuleId) -> impl Iterator<Item = &MediationPoint> {
        self.by_rule
            .get(rule)
            .into_iter()
            .flatten()
            .map(|&i| &self.points[i])
    }

    /// Points keyed under a canonical actuator identity.
    pub fn points_for_actuator(&self, key: &str) -> impl Iterator<Item = &MediationPoint> {
        self.by_actuator
            .get(key)
            .into_iter()
            .flatten()
            .map(|&i| &self.points[i])
    }

    /// Points keyed under a contested goal property.
    pub fn points_for_property(&self, prop: EnvProperty) -> impl Iterator<Item = &MediationPoint> {
        self.by_goal_prop
            .get(&prop)
            .into_iter()
            .flatten()
            .map(|&i| &self.points[i])
    }

    /// Points whose pair observes `var` as a trigger.
    pub fn points_for_trigger_var(&self, var: &VarId) -> impl Iterator<Item = &MediationPoint> {
        self.by_trigger_var
            .get(var)
            .into_iter()
            .flatten()
            .map(|&i| &self.points[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hg_capability::device_kind::DeviceKind;
    use hg_rules::rule::{Action, Condition, Trigger};
    use hg_rules::varid::DeviceRef;

    fn lamp_rule(app: &str, command: &str) -> Rule {
        let m = DeviceRef::Unbound {
            app: app.into(),
            input: "m".into(),
            capability: "motionSensor".into(),
            kind: DeviceKind::Unknown,
        };
        let lamp = DeviceRef::Unbound {
            app: app.into(),
            input: "lamp".into(),
            capability: "switch".into(),
            kind: DeviceKind::Light,
        };
        Rule {
            id: RuleId::new(app, 0),
            trigger: Trigger::DeviceEvent {
                subject: m,
                attribute: "motion".into(),
                constraint: None,
            },
            condition: Condition::always(),
            actions: vec![Action::device(lamp, command)],
        }
    }

    fn race_threat(a: &Rule, b: &Rule) -> Threat {
        Threat {
            kind: ThreatKind::ActuatorRace,
            source: a.id.clone(),
            target: b.id.clone(),
            witness: None,
            actuator: Some("lamp".into()),
            property: None,
            note: "test race".into(),
        }
    }

    #[test]
    fn compile_resolves_shared_actuator_and_trigger_vars() {
        let a = lamp_rule("A", "on");
        let b = lamp_rule("B", "off");
        let threats = vec![race_threat(&a, &b)];
        let index = MediationIndex::compile(
            &threats,
            &[a.clone(), b.clone()],
            &Detector::store_wide(),
            &PolicyTable::block_all(),
        );
        assert_eq!(index.len(), 1);
        let point = &index.points()[0];
        assert_eq!(
            point.actuators.iter().collect::<Vec<_>>(),
            vec!["type:switch/light"]
        );
        assert!(!point.trigger_vars.is_empty());
        assert_eq!(point.policy, HandlingPolicy::Block);
        // Posted under both rule identities and the shared actuator key.
        assert_eq!(index.points_for_rule(&a.id).count(), 1);
        assert_eq!(index.points_for_rule(&b.id).count(), 1);
        assert_eq!(index.points_for_actuator("type:switch/light").count(), 1);
        let var = point.trigger_vars.iter().next().unwrap();
        assert_eq!(index.points_for_trigger_var(var).count(), 1);
    }

    #[test]
    fn compile_without_rules_keys_by_identity_only() {
        let a = lamp_rule("A", "on");
        let b = lamp_rule("B", "off");
        let threats = vec![race_threat(&a, &b)];
        let index = MediationIndex::compile(
            &threats,
            &[],
            &Detector::store_wide(),
            &PolicyTable::block_all(),
        );
        assert_eq!(index.len(), 1);
        assert!(index.points()[0].actuators.is_empty());
        assert_eq!(index.points_for_rule(&a.id).count(), 1);
    }

    #[test]
    fn remove_app_retires_points_and_postings() {
        let a = lamp_rule("A", "on");
        let b = lamp_rule("B", "off");
        let c = lamp_rule("C", "on");
        let threats = vec![race_threat(&a, &b), race_threat(&b, &c)];
        let mut index = MediationIndex::compile(
            &threats,
            &[a.clone(), b.clone(), c.clone()],
            &Detector::store_wide(),
            &PolicyTable::block_all(),
        );
        assert_eq!(index.len(), 2);

        // Retiring A drops only the A–B point; B–C survives with postings.
        assert_eq!(index.remove_app("A"), 1);
        assert_eq!(index.len(), 1);
        assert_eq!(index.points_for_rule(&a.id).count(), 0);
        assert_eq!(index.points_for_rule(&b.id).count(), 1);
        assert_eq!(index.points_for_actuator("type:switch/light").count(), 1);

        // Retiring B empties the index entirely.
        assert_eq!(index.remove_app("B"), 1);
        assert!(index.is_empty());
        assert_eq!(index.points_for_actuator("type:switch/light").count(), 0);
        assert_eq!(index.remove_app("B"), 0, "idempotent");
    }

    #[test]
    fn counterpart_orientation() {
        let a = lamp_rule("A", "on");
        let b = lamp_rule("B", "off");
        let threats = vec![race_threat(&a, &b)];
        let index = MediationIndex::compile(
            &threats,
            &[],
            &Detector::store_wide(),
            &PolicyTable::block_all(),
        );
        let p = &index.points()[0];
        assert_eq!(p.counterpart(&a.id), Some(&b.id));
        assert_eq!(p.counterpart(&b.id), Some(&a.id));
        assert_eq!(p.counterpart(&RuleId::new("C", 0)), None);
    }
}
