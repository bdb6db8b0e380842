//! # hg-runtime — runtime mediation & threat-handling engine
//!
//! The paper is about *categorizing, detecting **and handling*** cross-app
//! interference. `hg-detector` covers detection at install time; this
//! crate is the handling half (§IX): a mediation layer that sits inline on
//! live event traffic, compiles the install-time threat report into
//! indexed **mediation points**, and applies a per-threat-kind handling
//! policy the moment an interference is about to manifest.
//!
//! ## From report to runtime
//!
//! ```text
//! ThreatReport (hg-detector)          event loop (hg-sim / live traffic)
//!   Threat{kind, R1, R2, ...}   ┌──── rule R is about to fire ──────────┐
//!        │ compile              │ actuator command is about to execute  │
//!        ▼                      └──────────────────┬────────────────────┘
//!   MediationIndex ── keyed like CandidateIndex ───┤ Mediator hook
//!   (rule id, actuator identity,                   ▼
//!    goal property, trigger vars)            Enforcer::decide_*
//!        │                                         │
//!        ▼                                         ▼
//!   per-kind HandlingPolicy              Allow / Suppress / Defer
//!                                        + MediationTrace journal entry
//! ```
//!
//! ## Policies and the paper's handling discussion
//!
//! The paper's §IX observes that once a CAI threat is *known*, the
//! platform can intervene at the event level; each [`HandlingPolicy`]
//! realizes one of the interventions discussed there:
//!
//! * [`HandlingPolicy::Block`] — refuse the interfering event. This is
//!   the paper's "deny the second, conflicting automation": the second
//!   member of a threat pair to act in a run is stopped (its firing
//!   dropped, or its conflicting actuator command discarded). Default for
//!   Goal Conflict, Covert Triggering, Self Disabling and Loop Triggering
//!   — breaking a triggering loop requires refusing one of its edges.
//! * [`HandlingPolicy::Priority`] — the paper's user-ranked arbitration
//!   for Actuator Races (Fig. 3): of two same-instant contradictory
//!   commands on the shared actuator, only the higher-ranked rule's
//!   command takes effect, so the race's outcome is deterministic instead
//!   of schedule-dependent ("turned on only / turned off only / on then
//!   off / off then on" collapses to one outcome).
//! * [`HandlingPolicy::Defer`] — separate the pair in time: the
//!   interfering event is postponed past a mediation window rather than
//!   dropped. Default for Enabling-Condition interference, where the
//!   threat exists only while the enabling write and the enabled rule
//!   coincide.
//! * [`HandlingPolicy::Notify`] — allow but journal, the paper's
//!   minimum handling: a Disabling-Condition interference silently mutes a
//!   rule, so the only meaningful intervention is making the covert overt
//!   in the incident journal ([`MediationTrace`]).
//!
//! All seven Table I kinds are covered by [`PolicyTable`]; the
//! [`Enforcer`] journals every decision and keeps [`MediationStats`]
//! (events seen, events mediated, per-decision latency) for the
//! `runtime_mediation` bench.
//!
//! ## Example
//!
//! ```
//! use hg_detector::Detector;
//! use hg_runtime::{Enforcer, PolicyTable};
//! use hg_sim::Decision;
//! use hg_symexec::{extract, ExtractorConfig};
//!
//! let on = extract(r#"
//!     input "m", "capability.motionSensor"
//!     input "lamp", "capability.switch", title: "lamp"
//!     def installed() { subscribe(m, "motion.active", h) }
//!     def h(evt) { lamp.on() }
//! "#, "OnApp", &ExtractorConfig::default()).unwrap().rules;
//! let off = extract(r#"
//!     input "m", "capability.motionSensor"
//!     input "lamp", "capability.switch", title: "lamp"
//!     def installed() { subscribe(m, "motion.active", h) }
//!     def h(evt) { lamp.off() }
//! "#, "OffApp", &ExtractorConfig::default()).unwrap().rules;
//!
//! // Install-time detection finds the Actuator Race...
//! let (threats, _) = Detector::store_wide().detect_pair(&on[0], &off[0]);
//! assert!(!threats.is_empty());
//!
//! // ...and the runtime engine handles it: with the strict table the
//! // second firing of the pair is suppressed.
//! let rules = [on[0].clone(), off[0].clone()];
//! let mut enforcer = Enforcer::from_threats(
//!     &threats, &rules, &Detector::store_wide(), &PolicyTable::block_all());
//! assert_eq!(enforcer.decide_fire(&on[0].id, 0), Decision::Allow);
//! assert_eq!(enforcer.decide_fire(&off[0].id, 0), Decision::Suppress);
//! assert_eq!(enforcer.journal().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod enforcer;
pub mod point;
pub mod policy;

pub use enforcer::{
    Enforcer, MediationDecision, MediationStats, MediationTrace, SharedEnforcer, Verdict,
};
pub use point::{MediationIndex, MediationPoint};
pub use policy::{HandlingPolicy, PolicyTable};
