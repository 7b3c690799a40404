//! Per-client serving sessions and the sharded store that holds them.
//!
//! A session is the mutable half of online inference: the rolling price
//! history, the incremental DWT cache and each horizon policy's previous
//! action. The model itself is immutable and shared — see
//! [`cit_core::DecisionModel`].

use crate::protocol::{ErrorKind, Response};
use crate::spill::{checksum64, SpillDir, SpillError, SPILL_MAGIC};
use cit_core::{DecisionModel, HorizonWindowCache};
use cit_market::{AssetPanel, PanelError, NUM_FEATURES};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One client's serving state: price history plus the carried decision
/// state (`SlidingDwt` windows via [`HorizonWindowCache`], previous
/// per-policy actions).
pub struct Session {
    /// The model slot this session is pinned to for life — carried
    /// through disk spill so a restart restores the session against the
    /// same model (empty = default slot, for sessions opened without a
    /// `model` field).
    model: String,
    /// The history as a validated panel named after the session, trimmed
    /// to `max_history` days. Days are checked once, when appended, so
    /// `decide` lends it to the model as it is.
    panel: AssetPanel,
    /// Days ever pushed (absolute day index = `total_days - 1`). Survives
    /// trimming, so clients see a monotone day counter.
    total_days: usize,
    prev_actions: Vec<Vec<f64>>,
    cache: HorizonWindowCache,
    max_history: usize,
    /// Last time the session was inserted or checked back in; the basis
    /// for idle-TTL eviction.
    last_used: Instant,
}

impl Session {
    /// Creates a session seeded with `prices` (one `[m·4]` row per day),
    /// pinned to model slot `slot` (empty = default). Needs at least
    /// `model.min_history()` days.
    pub fn open(
        model: &DecisionModel,
        name: &str,
        slot: &str,
        prices: &[Vec<f64>],
        max_history: usize,
    ) -> Result<Session, Response> {
        let window = model.min_history();
        if prices.len() < window.max(2) {
            return Err(Response::error(
                ErrorKind::BadData,
                format!(
                    "open needs at least {} days of history, got {}",
                    window.max(2),
                    prices.len()
                ),
            ));
        }
        let panel =
            AssetPanel::try_from_days(name, model.num_assets(), prices, 0).map_err(bad_data)?;
        let mut session = Session {
            model: slot.to_string(),
            total_days: prices.len(),
            panel,
            prev_actions: model.uniform_prev_actions(),
            cache: model.new_cache(),
            max_history: max_history.max(2 * window),
            last_used: Instant::now(),
        };
        session.trim(model);
        Ok(session)
    }

    /// The session id.
    pub fn name(&self) -> &str {
        self.panel.name()
    }

    /// The model slot the session is pinned to (empty = default slot).
    pub fn model_name(&self) -> &str {
        &self.model
    }

    /// Days of history currently held (after trimming).
    pub fn days(&self) -> usize {
        self.panel.num_days()
    }

    /// Absolute day index of the latest day (`total pushed - 1`).
    pub fn current_day(&self) -> usize {
        self.total_days - 1
    }

    /// Appends days of OHLC rows in place, validating width and
    /// positivity; a rejected append leaves the history unchanged.
    pub fn push_days(
        &mut self,
        model: &DecisionModel,
        prices: &[Vec<f64>],
    ) -> Result<(), Response> {
        self.panel.try_append_days(prices).map_err(bad_data)?;
        self.total_days += prices.len();
        self.trim(model);
        Ok(())
    }

    /// Bounds memory: once the history exceeds `max_history` days, keep
    /// the most recent half (never fewer than the model window). Decisions
    /// only read the trailing `window` days, so trimming cannot change
    /// them; the DWT cache is keyed by in-panel day indices, which shift,
    /// so it is rebuilt (one full recompute, bitwise-equal by the
    /// `SlidingDwt` contract).
    fn trim(&mut self, model: &DecisionModel) {
        let days = self.panel.num_days();
        if days <= self.max_history {
            return;
        }
        let keep = (self.max_history / 2).max(model.min_history()).max(2);
        self.panel.drop_oldest_days(days - keep);
        self.cache = model.new_cache();
    }

    /// Appends `prices` (possibly empty), then decides on the latest day.
    /// On success the per-policy previous actions advance, mirroring the
    /// trainer's evaluation loop.
    pub fn decide(
        &mut self,
        model: &DecisionModel,
        prices: &[Vec<f64>],
    ) -> Result<Response, Response> {
        self.push_days(model, prices)?;
        let days = self.panel.num_days();
        if days < model.min_history() {
            return Err(Response::error(
                ErrorKind::BadData,
                format!(
                    "decide needs {} days of history, session holds {days}",
                    model.min_history(),
                ),
            ));
        }
        let out = model.decide(&self.panel, days - 1, &self.prev_actions, &mut self.cache);
        self.prev_actions.clone_from(&out.pre_actions);
        Ok(Response::Decision {
            session: self.name().to_string(),
            day: self.current_day(),
            final_action: out.final_action,
            pre_actions: out.pre_actions,
            model: self.model.clone(),
        })
    }

    /// Serializes the session for disk spill. Every `f64` travels as its
    /// exact bit pattern (little-endian `u64`), so restore is lossless.
    /// The DWT cache is deliberately excluded: it is rebuilt on restore,
    /// which the `SlidingDwt` contract guarantees is decision-invariant.
    /// The payload ends in a [`checksum64`] trailer over everything
    /// before it, so truncation and bit-flips are detected on restore.
    /// The format (`CITSESS3`) carries the model-slot pin right after
    /// the session name, so a restart restores every session against the
    /// model it was opened on.
    pub(crate) fn spill_bytes(&self) -> Vec<u8> {
        let hist = self.panel.data();
        let mut out = Vec::with_capacity(96 + hist.len() * 8);
        out.extend_from_slice(SPILL_MAGIC);
        let push_u64 = |out: &mut Vec<u8>, v: u64| out.extend_from_slice(&v.to_le_bytes());
        push_u64(&mut out, self.name().len() as u64);
        out.extend_from_slice(self.name().as_bytes());
        push_u64(&mut out, self.model.len() as u64);
        out.extend_from_slice(self.model.as_bytes());
        push_u64(&mut out, self.panel.num_assets() as u64);
        push_u64(&mut out, self.panel.num_days() as u64);
        push_u64(&mut out, self.total_days as u64);
        push_u64(&mut out, self.max_history as u64);
        push_u64(&mut out, hist.len() as u64);
        for v in hist {
            push_u64(&mut out, v.to_bits());
        }
        push_u64(&mut out, self.prev_actions.len() as u64);
        for action in &self.prev_actions {
            push_u64(&mut out, action.len() as u64);
            for v in action {
                push_u64(&mut out, v.to_bits());
            }
        }
        let sum = checksum64(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Rebuilds a session from [`Session::spill_bytes`] output,
    /// verifying the checksum trailer and validating shape compatibility
    /// against the active `model`. [`SpillError::Corrupt`] means the
    /// bytes themselves are damaged (truncation, bit-flip, bad magic, or
    /// a price no session could have accepted) — the caller quarantines
    /// the file; [`SpillError::Incompatible`] means an intact file that
    /// does not fit the served model. The history is validated here, once,
    /// because `decide` trusts the panel it holds.
    pub(crate) fn from_spill_bytes(
        bytes: &[u8],
        model: &DecisionModel,
    ) -> Result<Session, SpillError> {
        let corrupt = |m: &str| SpillError::Corrupt(m.to_string());
        // Magic first: a file that was never ours is reported as such
        // even when it is too short to carry a checksum trailer.
        if bytes.len() < SPILL_MAGIC.len() || &bytes[..SPILL_MAGIC.len()] != SPILL_MAGIC {
            return Err(corrupt("not a cit-serve spill file (bad magic)"));
        }
        if bytes.len() < SPILL_MAGIC.len() + 8 {
            return Err(corrupt("truncated spill file (no checksum trailer)"));
        }
        let (payload, trailer) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(trailer.try_into().expect("8 bytes"));
        if checksum64(payload) != stored {
            return Err(corrupt(
                "spill checksum mismatch (truncated or corrupted on disk)",
            ));
        }
        let bytes = payload;
        let mut pos = SPILL_MAGIC.len();
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], SpillError> {
            let end = pos.checked_add(n).filter(|&e| e <= bytes.len());
            let end = end.ok_or_else(|| corrupt("truncated spill file"))?;
            let slice = &bytes[*pos..end];
            *pos = end;
            Ok(slice)
        };
        let take_u64 = |pos: &mut usize| -> Result<u64, SpillError> {
            let b = take(pos, 8)?;
            Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
        };
        let name_len = take_u64(&mut pos)? as usize;
        if name_len > 4096 {
            return Err(corrupt("implausible session name length"));
        }
        let name = String::from_utf8(take(&mut pos, name_len)?.to_vec())
            .map_err(|_| corrupt("session name is not UTF-8"))?;
        let model_len = take_u64(&mut pos)? as usize;
        if model_len > 4096 {
            return Err(corrupt("implausible model slot name length"));
        }
        let model_name = String::from_utf8(take(&mut pos, model_len)?.to_vec())
            .map_err(|_| corrupt("model slot name is not UTF-8"))?;
        let num_assets = take_u64(&mut pos)? as usize;
        let days = take_u64(&mut pos)? as usize;
        let total_days = take_u64(&mut pos)? as usize;
        let max_history = take_u64(&mut pos)? as usize;
        let hist_len = take_u64(&mut pos)? as usize;
        if hist_len != days * num_assets * NUM_FEATURES {
            return Err(corrupt(&format!(
                "spill history length {hist_len} does not match {days} days × {num_assets} assets"
            )));
        }
        let mut hist = Vec::with_capacity(hist_len);
        for _ in 0..hist_len {
            hist.push(f64::from_bits(take_u64(&mut pos)?));
        }
        let n_prev = take_u64(&mut pos)? as usize;
        if n_prev > 4096 {
            return Err(corrupt("implausible policy count"));
        }
        let mut prev_actions = Vec::with_capacity(n_prev);
        for _ in 0..n_prev {
            let len = take_u64(&mut pos)? as usize;
            let mut action = Vec::with_capacity(len.min(4096));
            for _ in 0..len {
                action.push(f64::from_bits(take_u64(&mut pos)?));
            }
            prev_actions.push(action);
        }
        if num_assets != model.num_assets() {
            return Err(SpillError::Incompatible(format!(
                "spilled session has {num_assets} assets, the served model expects {}",
                model.num_assets()
            )));
        }
        let expected_prev = model.uniform_prev_actions();
        if prev_actions.len() != expected_prev.len()
            || prev_actions
                .iter()
                .zip(&expected_prev)
                .any(|(a, e)| a.len() != e.len())
        {
            return Err(SpillError::Incompatible(
                "spilled session's policy state does not match the served model".into(),
            ));
        }
        if days < model.min_history().max(2) || total_days < days {
            return Err(SpillError::Incompatible(
                "spilled session holds too little history for the served model".into(),
            ));
        }
        let panel = AssetPanel::try_new(name, days, num_assets, hist, 0)
            .map_err(|e| corrupt(&format!("spilled history is invalid: {e}")))?;
        Ok(Session {
            model: model_name,
            panel,
            total_days,
            prev_actions,
            cache: model.new_cache(),
            max_history,
            last_used: Instant::now(),
        })
    }
}

/// A history the panel refused, as the client-facing `bad_data` error.
fn bad_data(e: PanelError) -> Response {
    Response::error(ErrorKind::BadData, e.to_string())
}

/// The identity header of a spill file: who it is and which model slot
/// it is pinned to — enough for the restore path to resolve the right
/// model *before* the full shape-validating parse.
pub(crate) struct SpillHeader {
    pub(crate) name: String,
    pub(crate) model: String,
}

/// Reads just the identity header of [`Session::spill_bytes`] output,
/// after verifying magic and the checksum trailer (so a header from a
/// damaged file is never trusted).
pub(crate) fn spill_peek(bytes: &[u8]) -> Result<SpillHeader, SpillError> {
    let corrupt = |m: &str| SpillError::Corrupt(m.to_string());
    if bytes.len() < SPILL_MAGIC.len() || &bytes[..SPILL_MAGIC.len()] != SPILL_MAGIC {
        return Err(corrupt("not a cit-serve spill file (bad magic)"));
    }
    if bytes.len() < SPILL_MAGIC.len() + 8 {
        return Err(corrupt("truncated spill file (no checksum trailer)"));
    }
    let (payload, trailer) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(trailer.try_into().expect("8 bytes"));
    if checksum64(payload) != stored {
        return Err(corrupt(
            "spill checksum mismatch (truncated or corrupted on disk)",
        ));
    }
    let mut pos = SPILL_MAGIC.len();
    let mut take_str = |label: &str| -> Result<String, SpillError> {
        let len_bytes = payload
            .get(pos..pos + 8)
            .ok_or_else(|| corrupt("truncated spill file"))?;
        pos += 8;
        let len = u64::from_le_bytes(len_bytes.try_into().expect("8 bytes")) as usize;
        if len > 4096 {
            return Err(corrupt(&format!("implausible {label} length")));
        }
        let s = payload
            .get(pos..pos + len)
            .ok_or_else(|| corrupt("truncated spill file"))?;
        pos += len;
        String::from_utf8(s.to_vec()).map_err(|_| corrupt(&format!("{label} is not UTF-8")))
    };
    Ok(SpillHeader {
        name: take_str("session name")?,
        model: take_str("model slot name")?,
    })
}

/// A sharded session map: sessions hash to one of `shards` independent
/// mutexes, so connection threads opening/closing sessions contend only
/// within a shard while the batcher checks sessions in and out.
pub struct SessionStore {
    shards: Vec<Mutex<HashMap<String, Session>>>,
}

impl SessionStore {
    /// Creates a store with `shards` shards (minimum 1).
    pub fn new(shards: usize) -> SessionStore {
        SessionStore {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    fn shard(&self, name: &str) -> &Mutex<HashMap<String, Session>> {
        let mut h = DefaultHasher::new();
        name.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Inserts a new session; fails when the id is taken.
    pub fn insert(&self, session: Session) -> Result<(), Response> {
        let mut shard = self
            .shard(session.name())
            .lock()
            .expect("session shard poisoned");
        if shard.contains_key(session.name()) {
            return Err(Response::error(
                ErrorKind::SessionExists,
                format!("session {:?} already exists", session.name()),
            ));
        }
        shard.insert(session.name().to_string(), session);
        Ok(())
    }

    /// Removes and returns a session (checkout for the batcher, or
    /// permanent removal for `close`).
    pub fn take(&self, name: &str) -> Option<Session> {
        self.shard(name)
            .lock()
            .expect("session shard poisoned")
            .remove(name)
    }

    /// Returns a checked-out session to the store, refreshing its
    /// idle-eviction clock.
    pub fn put_back(&self, mut session: Session) {
        session.last_used = Instant::now();
        self.shard(session.name())
            .lock()
            .expect("session shard poisoned")
            .insert(session.name().to_string(), session);
    }

    /// Spills every session idle longer than `ttl` to `spill` and
    /// removes it from the store. The spill write happens **while the
    /// shard lock is held**, so a concurrent decide either finds the
    /// session still resident or finds the complete spill file — never a
    /// gap in between. Checked-out sessions (mid-decide) are not in the
    /// store and therefore can never be evicted mid-flight. Returns the
    /// number evicted; a session whose spill write fails stays resident.
    pub(crate) fn evict_idle(&self, ttl: Duration, spill: &SpillDir) -> usize {
        let mut evicted = 0;
        for shard in &self.shards {
            let mut shard = shard.lock().expect("session shard poisoned");
            let idle: Vec<String> = shard
                .iter()
                .filter(|(_, s)| s.last_used.elapsed() >= ttl)
                .map(|(name, _)| name.clone())
                .collect();
            for name in idle {
                let session = shard.get(&name).expect("listed above");
                if spill.write(session).is_ok() {
                    shard.remove(&name);
                    evicted += 1;
                }
            }
        }
        evicted
    }

    /// Spills **every** resident session (graceful-shutdown persistence).
    /// Returns the number written; sessions whose write fails are left
    /// resident (and are lost when the process exits — the caller may
    /// log the shortfall).
    pub(crate) fn spill_all(&self, spill: &SpillDir) -> usize {
        let mut written = 0;
        for shard in &self.shards {
            let mut shard = shard.lock().expect("session shard poisoned");
            let names: Vec<String> = shard.keys().cloned().collect();
            for name in names {
                let session = shard.get(&name).expect("listed above");
                if spill.write(session).is_ok() {
                    shard.remove(&name);
                    written += 1;
                }
            }
        }
        written
    }

    /// Resident session counts keyed by model pin (sessions opened
    /// without a `model` field count under the empty key). A full-store
    /// scan — fine for the `stats` op, not for hot paths.
    pub(crate) fn count_by_model(&self) -> HashMap<String, usize> {
        let mut counts = HashMap::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("session shard poisoned");
            for session in shard.values() {
                *counts.entry(session.model.clone()).or_insert(0) += 1;
            }
        }
        counts
    }

    /// Live session count across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("session shard poisoned").len())
            .sum()
    }

    /// `true` when no sessions exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cit_core::CitConfig;
    use cit_market::SynthConfig;

    fn model() -> DecisionModel {
        DecisionModel::untrained(CitConfig::smoke(7), 2).expect("smoke config is valid")
    }

    fn rows(panel: &AssetPanel, from: usize, to: usize) -> Vec<Vec<f64>> {
        use cit_market::Feature;
        (from..to)
            .map(|t| {
                (0..panel.num_assets())
                    .flat_map(|i| {
                        [Feature::Open, Feature::High, Feature::Low, Feature::Close]
                            .into_iter()
                            .map(move |f| panel.price(t, i, f))
                    })
                    .collect()
            })
            .collect()
    }

    fn synth() -> AssetPanel {
        SynthConfig {
            num_assets: 2,
            num_days: 120,
            test_start: 100,
            ..Default::default()
        }
        .generate()
    }

    #[test]
    fn open_requires_window_days() {
        let m = model();
        let p = synth();
        let too_short = rows(&p, 0, m.min_history() - 1);
        assert!(Session::open(&m, "s", "", &too_short, 256).is_err());
        let enough = rows(&p, 0, m.min_history());
        assert!(Session::open(&m, "s", "", &enough, 256).is_ok());
    }

    #[test]
    fn decide_carries_prev_actions_and_day_counter() {
        let m = model();
        let p = synth();
        let mut s = Session::open(&m, "s", "", &rows(&p, 0, 30), 256).unwrap();
        let r1 = s.decide(&m, &[]).unwrap();
        let Response::Decision { day, .. } = &r1 else {
            panic!("expected decision")
        };
        assert_eq!(*day, 29);
        let r2 = s.decide(&m, &rows(&p, 30, 31)).unwrap();
        let Response::Decision { day, .. } = &r2 else {
            panic!("expected decision")
        };
        assert_eq!(*day, 30);
    }

    #[test]
    fn trimming_never_changes_decisions() {
        let m = model();
        let p = synth();
        // Session A trims aggressively; session B keeps everything.
        let mut a = Session::open(&m, "a", "", &rows(&p, 0, 30), 40).unwrap();
        let mut b = Session::open(&m, "b", "", &rows(&p, 0, 30), 100_000).unwrap();
        for t in 30..100 {
            let day = rows(&p, t, t + 1);
            let ra = a.decide(&m, &day).unwrap();
            let rb = b.decide(&m, &day).unwrap();
            let (
                Response::Decision {
                    final_action: fa, ..
                },
                Response::Decision {
                    final_action: fb, ..
                },
            ) = (&ra, &rb)
            else {
                panic!("expected decisions")
            };
            assert_eq!(fa, fb, "trimmed session diverged at t={t}");
        }
        assert!(a.days() < b.days(), "session a should have trimmed");
    }

    #[test]
    fn store_rejects_duplicate_ids_and_counts() {
        let m = model();
        let p = synth();
        let store = SessionStore::new(4);
        store
            .insert(Session::open(&m, "x", "", &rows(&p, 0, 30), 256).unwrap())
            .unwrap();
        assert!(store
            .insert(Session::open(&m, "x", "", &rows(&p, 0, 30), 256).unwrap())
            .is_err());
        assert_eq!(store.len(), 1);
        let s = store.take("x").unwrap();
        assert!(store.is_empty());
        store.put_back(s);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn spill_round_trip_is_bitwise_decision_invariant() {
        let m = model();
        let p = synth();
        // Control session decides straight through; the probe session is
        // serialized and restored mid-stream.
        let mut control = Session::open(&m, "s", "", &rows(&p, 0, 40), 256).unwrap();
        let mut probe = Session::open(&m, "s", "", &rows(&p, 0, 40), 256).unwrap();
        for t in 40..60 {
            let day = rows(&p, t, t + 1);
            let rc = control.decide(&m, &day).unwrap();
            if t % 3 == 0 {
                probe = Session::from_spill_bytes(&probe.spill_bytes(), &m).unwrap();
            }
            let rp = probe.decide(&m, &day).unwrap();
            let (
                Response::Decision {
                    final_action: fa,
                    pre_actions: pa,
                    ..
                },
                Response::Decision {
                    final_action: fb,
                    pre_actions: pb,
                    ..
                },
            ) = (&rc, &rp)
            else {
                panic!("expected decisions")
            };
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(fa), bits(fb), "restored session diverged at t={t}");
            for (a, b) in pa.iter().zip(pb) {
                assert_eq!(bits(a), bits(b), "pre-actions diverged at t={t}");
            }
        }
    }

    #[test]
    fn spill_rejects_corrupt_and_mismatched_payloads() {
        let m = model();
        let p = synth();
        let s = Session::open(&m, "s", "", &rows(&p, 0, 40), 256).unwrap();
        let good = s.spill_bytes();
        assert!(Session::from_spill_bytes(&good[..good.len() - 3], &m).is_err());
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xff;
        assert!(Session::from_spill_bytes(&bad_magic, &m).is_err());
        // A model with a different asset count must refuse the payload —
        // as Incompatible (intact file, wrong server), not Corrupt.
        let other = DecisionModel::untrained(CitConfig::smoke(7), 3).expect("valid");
        assert!(matches!(
            Session::from_spill_bytes(&good, &other),
            Err(SpillError::Incompatible(_))
        ));
    }

    /// Truncation at *every* byte boundary, a flipped checksum trailer
    /// and every single-byte flip of the payload must come back as
    /// [`SpillError::Corrupt`] — never a panic, never a silently wrong
    /// session. This is the integrity contract quarantining rests on.
    #[test]
    fn spill_detects_every_truncation_and_bitflip() {
        let m = model();
        let p = synth();
        let s = Session::open(&m, "trunc", "", &rows(&p, 0, 40), 256).unwrap();
        let good = s.spill_bytes();
        assert!(Session::from_spill_bytes(&good, &m).is_ok());
        for cut in 0..good.len() {
            assert!(
                matches!(
                    Session::from_spill_bytes(&good[..cut], &m),
                    Err(SpillError::Corrupt(_))
                ),
                "truncation to {cut}/{} bytes was not detected as corrupt",
                good.len()
            );
        }
        let mut flipped = good.clone();
        for i in 0..flipped.len() {
            flipped[i] ^= 0x01;
            assert!(
                matches!(
                    Session::from_spill_bytes(&flipped, &m),
                    Err(SpillError::Corrupt(_))
                ),
                "bit-flip at byte {i} was not detected as corrupt"
            );
            flipped[i] ^= 0x01;
        }
    }

    /// A spill whose bytes are intact (valid checksum trailer) but whose
    /// history holds a price no session could have accepted is corrupt:
    /// restore validates the history once, because `decide` trusts the
    /// panel it holds.
    #[test]
    fn spill_with_a_dirty_price_and_a_valid_checksum_is_corrupt() {
        let m = model();
        let p = synth();
        let s = Session::open(&m, "dirty", "", &rows(&p, 0, 40), 256).unwrap();
        let good = s.spill_bytes();
        // Magic, name, model pin, then five u64 header fields before the
        // history values.
        let first_price = SPILL_MAGIC.len() + 8 + "dirty".len() + 8 + 5 * 8;
        for bad in [-1.0, 0.0, f64::NAN, f64::INFINITY] {
            let mut forged = good[..good.len() - 8].to_vec();
            let at = first_price + 8 * 17;
            forged[at..at + 8].copy_from_slice(&bad.to_bits().to_le_bytes());
            let sum = checksum64(&forged);
            forged.extend_from_slice(&sum.to_le_bytes());
            assert!(
                matches!(
                    Session::from_spill_bytes(&forged, &m),
                    Err(SpillError::Corrupt(_))
                ),
                "a spilled price of {bad} must be reported as corrupt"
            );
        }
        // The same surgery with a valid price restores fine.
        let mut clean = good[..good.len() - 8].to_vec();
        clean[first_price..first_price + 8].copy_from_slice(&7.5f64.to_bits().to_le_bytes());
        let sum = checksum64(&clean);
        clean.extend_from_slice(&sum.to_le_bytes());
        let restored = Session::from_spill_bytes(&clean, &m).unwrap();
        assert_eq!(restored.panel.data()[0], 7.5);
    }

    #[test]
    fn spill_carries_the_model_pin() {
        let m = model();
        let p = synth();
        let s = Session::open(&m, "pin", "alt", &rows(&p, 0, 40), 256).unwrap();
        assert_eq!(s.model_name(), "alt");
        let bytes = s.spill_bytes();
        // The cheap header peek and the full parse agree on identity.
        let header = spill_peek(&bytes).unwrap();
        assert_eq!(header.name, "pin");
        assert_eq!(header.model, "alt");
        let restored = Session::from_spill_bytes(&bytes, &m).unwrap();
        assert_eq!(restored.model_name(), "alt");
        // A damaged header is never trusted.
        let mut bad = bytes.clone();
        bad[9] ^= 0xff;
        assert!(matches!(spill_peek(&bad), Err(SpillError::Corrupt(_))));
        assert!(matches!(
            spill_peek(&bytes[..20]),
            Err(SpillError::Corrupt(_))
        ));
    }

    #[test]
    fn rejects_bad_rows() {
        let m = model();
        let p = synth();
        let mut s = Session::open(&m, "s", "", &rows(&p, 0, 30), 256).unwrap();
        assert!(s.decide(&m, &[vec![1.0; 3]]).is_err()); // wrong width
        assert!(s.decide(&m, &[vec![-1.0; 8]]).is_err()); // negative price
                                                          // Session still usable after rejects.
        assert!(s.decide(&m, &rows(&p, 30, 31)).is_ok());
    }
}
