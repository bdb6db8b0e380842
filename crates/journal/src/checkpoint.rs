//! The fleet image: full checkpoints, delta checkpoints, and the fold
//! from one to the other.
//!
//! A **full** [`Checkpoint`] is the one whole-fleet document format: the
//! shared store, every home's ground truth and the registry's routing
//! parameters. `Fleet::snapshot` returns one (stamped at offset 0, since
//! it names no journal position), the journal stores one as the base of
//! every chain, and `Fleet::restore` / `Fleet::recover` revive a fleet
//! from one. A **delta** carries only the homes dirtied (and the store,
//! if touched) since the previous checkpoint, plus the ids of homes
//! removed. [`materialize`] folds a chain (full base, then deltas) into
//! the full image as of the newest offset; replaying journal records at
//! offsets `>= offset` on top of it reproduces the live fleet.
//!
//! [`Checkpoint::from_text`] is the one decoder for client documents and
//! stored checkpoints alike. It refuses every malformed input with a
//! typed [`HgError::Snapshot`]; the journal re-labels a stored
//! checkpoint that fails to decode as [`HgError::Journal`].

use hg_persist::codec::{
    home_state_from_json, home_state_to_json, nonneg_field, snap_err, store_state_from_json,
    store_state_to_json,
};
use hg_rules::json::Json;
use homeguard_core::{HgError, HomeState, StoreState};
use std::collections::{BTreeMap, BTreeSet};

use crate::record::journal_err;

/// Checkpoint document format version, checked on decode.
pub const CHECKPOINT_VERSION: i64 = 1;

/// The `kind` tag every checkpoint document carries.
const KIND: &str = "journal-checkpoint";

/// One checkpoint document: the fleet's ground truth (full) or the
/// dirtied part of it (delta) as of a journal offset.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Journal offset this checkpoint covers: every record at an offset
    /// `< offset` is folded in; replay resumes at `offset`.
    pub offset: u64,
    /// Whether this is a full image (chain base) or a delta.
    pub full: bool,
    /// Fleet shard count — preserved so restored home ids route to the
    /// same shard they lived in.
    pub shards: usize,
    /// The fleet's next home id, so a revived fleet never reissues a
    /// handle a restored home already holds.
    pub next_id: u64,
    /// The shared rule store's state; always present when `full`, present
    /// in a delta only when store records landed since the previous
    /// checkpoint.
    pub store: Option<StoreState>,
    /// `(raw id, ground truth)` for every home covered, ascending by id:
    /// all homes when `full`, dirtied homes otherwise.
    pub homes: Vec<(u64, HomeState)>,
    /// Raw ids of homes removed since the previous checkpoint.
    pub removed: Vec<u64>,
}

impl Checkpoint {
    /// Serializes to the checkpoint document text.
    pub fn to_text(&self) -> String {
        Json::obj([
            ("version", Json::Num(CHECKPOINT_VERSION)),
            ("kind", Json::str(KIND)),
            ("offset", Json::Num(self.offset as i64)),
            ("full", Json::Bool(self.full)),
            ("shards", Json::Num(self.shards as i64)),
            ("nextId", Json::Num(self.next_id as i64)),
            (
                "store",
                self.store
                    .as_ref()
                    .map(store_state_to_json)
                    .unwrap_or(Json::Null),
            ),
            (
                "homes",
                Json::Arr(
                    self.homes
                        .iter()
                        .map(|(id, state)| {
                            Json::obj([
                                ("id", Json::Num(*id as i64)),
                                ("state", home_state_to_json(state)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "removed",
                Json::Arr(self.removed.iter().map(|&r| Json::Num(r as i64)).collect()),
            ),
        ])
        .to_text()
    }

    /// Decodes a checkpoint document.
    ///
    /// # Errors
    ///
    /// [`HgError::Snapshot`] on corrupt bytes, a wrong version or kind, a
    /// negative number, a full image without a store, zero shards, or a
    /// home id listed twice.
    pub fn from_text(text: &str) -> Result<Checkpoint, HgError> {
        let j = Json::parse(text).map_err(|e| snap_err(e.to_string()))?;
        match j.get("version").and_then(Json::as_num) {
            Some(CHECKPOINT_VERSION) => {}
            Some(v) => {
                return Err(snap_err(format!(
                    "image version {v} (this build reads {CHECKPOINT_VERSION})"
                )))
            }
            None => return Err(snap_err("missing image version")),
        }
        match j.get("kind").and_then(Json::as_str) {
            Some(KIND) => {}
            Some(k) => {
                return Err(snap_err(format!(
                    "document kind `{k}` where `{KIND}` was expected"
                )))
            }
            None => return Err(snap_err("missing document kind")),
        }
        let full = match j.get("full") {
            Some(Json::Bool(b)) => *b,
            _ => return Err(snap_err("missing boolean field `full`")),
        };
        let store = match j.get("store") {
            None | Some(Json::Null) => None,
            Some(s) => Some(store_state_from_json(s)?),
        };
        if full && store.is_none() {
            return Err(snap_err("full image missing store state"));
        }
        let mut homes = Vec::new();
        let mut seen = BTreeSet::new();
        for entry in j
            .get("homes")
            .and_then(Json::as_arr)
            .ok_or_else(|| snap_err("missing array field `homes`"))?
        {
            let id = nonneg_field(entry, "id")? as u64;
            if !seen.insert(id) {
                return Err(snap_err(format!("duplicate home id {id}")));
            }
            let state = home_state_from_json(
                entry
                    .get("state")
                    .ok_or_else(|| snap_err("home entry missing state"))?,
            )?;
            homes.push((id, state));
        }
        let removed = j
            .get("removed")
            .and_then(Json::as_arr)
            .ok_or_else(|| snap_err("missing array field `removed`"))?
            .iter()
            .map(|r| match r.as_num() {
                Some(n) if n >= 0 => Ok(n as u64),
                Some(n) => Err(snap_err(format!("negative removed id: {n}"))),
                None => Err(snap_err("non-numeric removed id")),
            })
            .collect::<Result<_, _>>()?;
        let shards = nonneg_field(&j, "shards")? as usize;
        if shards == 0 {
            return Err(snap_err("image with zero shards"));
        }
        Ok(Checkpoint {
            offset: nonneg_field(&j, "offset")? as u64,
            full,
            shards,
            next_id: nonneg_field(&j, "nextId")? as u64,
            store,
            homes,
            removed,
        })
    }
}

/// Folds a checkpoint chain (ascending offsets, first one full) into the
/// full image as of the newest checkpoint's offset. The chain is
/// consumed: every state moves into the image, none is cloned.
///
/// # Errors
///
/// [`HgError::Journal`] when the chain is empty, does not start full, or
/// its offsets regress.
pub fn materialize(chain: Vec<Checkpoint>) -> Result<Checkpoint, HgError> {
    let mut chain = chain.into_iter();
    let mut image = chain
        .next()
        .ok_or_else(|| journal_err("empty checkpoint chain"))?;
    if !image.full {
        return Err(journal_err(format!(
            "checkpoint chain does not start full (base covers offset {})",
            image.offset
        )));
    }
    let mut homes: BTreeMap<u64, HomeState> =
        std::mem::take(&mut image.homes).into_iter().collect();
    for id in std::mem::take(&mut image.removed) {
        homes.remove(&id);
    }
    for ckpt in chain {
        if ckpt.offset < image.offset {
            return Err(journal_err(format!(
                "checkpoint chain offsets regress at {}",
                ckpt.offset
            )));
        }
        if ckpt.full {
            homes.clear();
        }
        if ckpt.store.is_some() {
            image.store = ckpt.store;
        }
        homes.extend(ckpt.homes);
        for id in ckpt.removed {
            homes.remove(&id);
        }
        image.offset = ckpt.offset;
        image.shards = ckpt.shards;
        image.next_id = ckpt.next_id;
    }
    image.homes = homes.into_iter().collect();
    Ok(image)
}

#[cfg(test)]
mod tests {
    use super::*;
    use homeguard_core::{Home, RuleStore};
    use std::sync::Arc;

    fn state_with(apps: &[(&str, &str)]) -> (HomeState, StoreState, Arc<RuleStore>) {
        let store = RuleStore::shared();
        let mut home = Home::new(store.clone());
        for (name, source) in apps {
            home.install_app(source, name, None).unwrap();
        }
        (home.export_state(), store.export_state(), store)
    }

    const ON_APP: &str = r#"
        definition(name: "OnApp")
        input "m", "capability.motionSensor"
        input "lamp", "capability.switch", title: "lamp"
        def installed() { subscribe(m, "motion.active", h) }
        def h(evt) { lamp.on() }
    "#;

    #[test]
    fn checkpoints_round_trip() {
        let (state, store, _) = state_with(&[("OnApp", ON_APP)]);
        let ckpt = Checkpoint {
            offset: 12,
            full: true,
            shards: 4,
            next_id: 9,
            store: Some(store),
            homes: vec![(3, state)],
            removed: vec![7],
        };
        let back = Checkpoint::from_text(&ckpt.to_text()).unwrap();
        assert_eq!(back.offset, 12);
        assert!(back.full);
        assert_eq!(back.shards, 4);
        assert_eq!(back.next_id, 9);
        assert_eq!(back.removed, vec![7]);
        assert_eq!(back.homes.len(), 1);
        assert_eq!(back.homes[0].0, 3);
        assert_eq!(back.homes[0].1, ckpt.homes[0].1);
        // Document-level refusals are typed snapshot errors.
        for bad in ["garbage", "{\"version\":1,\"kind\":\"store\"}"] {
            assert!(matches!(
                Checkpoint::from_text(bad),
                Err(HgError::Snapshot(_))
            ));
        }
    }

    #[test]
    fn materialize_folds_deltas_over_the_full_base() {
        let (state_a, store, shared) = state_with(&[("OnApp", ON_APP)]);
        let mut home_b = Home::new(shared);
        let state_b0 = home_b.export_state();
        home_b.install_app(ON_APP, "OnApp", None).unwrap();
        let state_b1 = home_b.export_state();
        let chain = [
            Checkpoint {
                offset: 2,
                full: true,
                shards: 2,
                next_id: 2,
                store: Some(store.clone()),
                homes: vec![(0, state_a.clone()), (1, state_b0)],
                removed: Vec::new(),
            },
            Checkpoint {
                offset: 5,
                full: false,
                shards: 2,
                next_id: 3,
                store: None,
                homes: vec![(1, state_b1.clone()), (2, state_a.clone())],
                removed: vec![0],
            },
        ];
        let image = materialize(chain.to_vec()).unwrap();
        assert!(image.full);
        assert_eq!(image.offset, 5);
        assert_eq!(image.next_id, 3);
        assert_eq!(
            image.homes.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![1, 2],
            "home 0 removed, homes 1-2 live"
        );
        assert_eq!(image.homes[0].1, state_b1);
        assert!(image.removed.is_empty());
        // A chain that does not start full is refused.
        assert!(materialize(chain[1..].to_vec()).is_err());
        assert!(materialize(Vec::new()).is_err());
    }
}
