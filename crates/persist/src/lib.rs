//! # hg-persist — snapshot field codecs and the home migration envelope
//!
//! The paper's deployment model assumes a long-lived per-home guard whose
//! confirmed threat decisions survive across sessions. This crate holds
//! the serialization that durability is built on:
//!
//! * **Field codecs** ([`codec`]) — JSON encoders and decoders for the
//!   rule database with its cached analyses and live ingest fingerprints,
//!   and for one home's ground truth: installed apps and rules,
//!   confirmed/Allowed threat decisions, the configuration recorder and
//!   the handling-policy table. `hg-journal`'s records and checkpoints
//!   are built from them; a full checkpoint is the one whole-fleet image
//!   (`Fleet::snapshot` / `Fleet::restore` / `Fleet::recover`).
//! * **Home snapshots** ([`home_to_text`] / [`home_from_text`]) — one
//!   session's ground truth in a versioned envelope. This is the
//!   migration unit: export a home from one process, import it into
//!   another fleet.
//!
//! ## What is (deliberately) not serialized
//!
//! Snapshots hold **ground truth only**. Derived state — the detection
//! engine's candidate-index postings, the compiled [`MediationIndex`]
//! (`hg-runtime`), any live enforcer, the verdict cache — is rebuilt on
//! restore from the rules and the Allowed list, so a snapshot can never
//! disagree with the state it implies. Per-run enforcer memory (one-shot
//! defer grants, fired-rule traces), effort counters and telemetry
//! aggregates never survive a restart at all.
//!
//! ## Format and versioning guarantees
//!
//! Documents are JSON in the same hand-rolled codec the rule-store
//! database uses ([`hg_rules::json`]); an app's rules appear as *exactly*
//! the rule-file bytes the database holds. The home envelope carries
//! `{"version": N, "kind": "home"}`; readers refuse an unknown version or
//! kind — and any corrupt or garbage input — with a typed
//! [`HgError::Snapshot`](homeguard_core::HgError), never a panic and
//! never a half-applied restore.
//!
//! [`MediationIndex`]: hg_runtime::MediationIndex
//!
//! ## Example
//!
//! ```
//! use homeguard_core::{Home, RuleStore};
//! use hg_persist::{home_from_text, home_to_text};
//!
//! let store = RuleStore::shared();
//! let mut home = Home::new(store.clone());
//! home.install_app(r#"
//!     definition(name: "OnApp")
//!     input "m", "capability.motionSensor"
//!     input "lamp", "capability.switch", title: "lamp"
//!     def installed() { subscribe(m, "motion.active", h) }
//!     def h(evt) { lamp.on() }
//! "#, "OnApp", None).unwrap();
//!
//! // "The process restarts": only the snapshot text survives.
//! let bytes = home_to_text(&home.export_state());
//! let revived = Home::restore_state(store, home_from_text(&bytes).unwrap());
//! assert_eq!(revived.installed_apps(), vec!["OnApp".to_string()]);
//! assert_eq!(revived.installed_rules().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod snapshot;

pub use snapshot::{home_from_text, home_to_text};
