//! The per-home migration envelope: a versioned, self-describing document
//! for one home session's exported state.
//!
//! The envelope carries the schema version
//! ([`hg_rules::json::SCHEMA_VERSION`]) and the `kind` tag `home`.
//! Readers refuse a wrong version or kind with a typed
//! [`HgError::Snapshot`] — a document written by a future schema
//! generation, or a whole-fleet image, fails loudly instead of being
//! half-misread into a live fleet.

use crate::codec;
use hg_rules::json::{Json, SCHEMA_VERSION};
use homeguard_core::{HgError, HomeState};

const KIND: &str = "home";

/// Serializes one home session's exported state — the migration unit: a
/// home exported here can be imported into a different process's fleet.
pub fn home_to_text(state: &HomeState) -> String {
    Json::obj([
        ("version", Json::Num(SCHEMA_VERSION)),
        ("kind", Json::str(KIND)),
        ("payload", codec::home_state_to_json(state)),
    ])
    .to_text()
}

/// Parses a home snapshot back.
///
/// # Errors
///
/// [`HgError::Snapshot`] on corrupt bytes, a wrong schema version or kind,
/// or a structurally invalid document.
pub fn home_from_text(text: &str) -> Result<HomeState, HgError> {
    let doc = Json::parse(text).map_err(|e| codec::snap_err(e.to_string()))?;
    match doc.get("version").and_then(Json::as_num) {
        Some(v) if v == SCHEMA_VERSION => {}
        Some(v) => {
            return Err(codec::snap_err(format!(
                "schema version {v} (this build reads {SCHEMA_VERSION})"
            )))
        }
        None => return Err(codec::snap_err("missing schema version")),
    }
    match doc.get("kind").and_then(Json::as_str) {
        Some(KIND) => {}
        Some(k) => {
            return Err(codec::snap_err(format!(
                "snapshot kind `{k}` where `{KIND}` was expected"
            )))
        }
        None => return Err(codec::snap_err("missing snapshot kind")),
    }
    codec::home_state_from_json(
        doc.get("payload")
            .ok_or_else(|| codec::snap_err("missing payload"))?,
    )
}
