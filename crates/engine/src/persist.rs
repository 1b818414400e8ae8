//! Runtime-state checkpointing: export the engine's mid-flight state as
//! a deterministic JSON document and import it into a fresh engine.
//!
//! Rules and priority orders are *not* in here — they are durable
//! mutations with their own WAL records, and compiled IR programs are
//! always rebuilt on replay (`RuleDb` recompiles on insert). What this
//! module captures is everything else a restart would otherwise forget:
//!
//! * the context store's dynamic state (sensor readings **with their
//!   original freshness stamps**, presence, transient events with their
//!   original expiries, persistent events, clock, event window,
//!   freshness policy);
//! * `held_for` trackers (since-instants of duration-qualified atoms);
//! * edge-detection state (each rule's last verdict), device holds,
//!   contenders, latches and notation sets, by rule id and device name
//!   (the rule ordinals and device slots the engine keeps them under are
//!   never written);
//! * the fault-tolerance layer: breaker machines (including grown
//!   cooldowns), the retry queue, the dead-letter queue and the
//!   sequence counter.
//!
//! Export is byte-stable: every hash-map is emitted in sorted order, so
//! two engines in identical states serialize identically — the property
//! the crash-matrix test leans on.
//!
//! The document is at version 2. Version 1 wrote each rule's last
//! verdict as a `{"rule": id, "state": bool}` object in `last_state`,
//! two thirds of a 10,000-rule home's checkpoint; version 2 writes the
//! same state as two ascending, disjoint id arrays, `last_true` and
//! `last_false`, in its place. Every other member is unchanged, and
//! import still reads version 1.
//!
//! Import refuses a negative time, duration, count or rule id with a
//! typed error instead of letting it wrap into the engine's unsigned
//! clock arithmetic. It also refuses commit state for a rule the database
//! does not hold, or for a device no stored rule targets, or that puts a
//! rule on a device it does not target. A refused document leaves the
//! engine as it was.
//!
//! This is a child module of `engine` so it can reach the engine's
//! private runtime fields without widening their visibility.

use super::{DeviceState, Engine, RuleState};
use crate::context::{FreshnessMode, FreshnessPolicy};
use crate::error::EngineError;
use crate::eval::HeldTracker;
use crate::resilience::{
    BreakerState, DeadLetter, Resilience, ResilienceConfig, RetryEntry, RetryKind,
};
use cadel_rule::codec::{action_from_json, action_to_json, value_from_json, value_to_json};
use cadel_types::json::Json;
use cadel_types::{DeviceId, PersonId, PlaceId, RuleId, SensorKey, SimDuration, SimTime};
use std::collections::BTreeSet;

/// Schema version of the runtime checkpoint document that export
/// writes. Import also reads version 1 (see the module docs).
const RUNTIME_VERSION: i64 = 2;

/// Serializes a freshness policy (mode + optional max age).
pub fn freshness_policy_to_json(policy: &FreshnessPolicy) -> Json {
    let mut members = vec![("mode", Json::str(mode_name(policy.mode)))];
    if let Some(max_age) = policy.max_age {
        members.push(("max_age_ms", Json::Int(max_age.as_millis() as i64)));
    }
    Json::obj(members)
}

/// Parses a freshness policy serialized by [`freshness_policy_to_json`].
///
/// # Errors
///
/// Returns [`EngineError::Persist`] on an out-of-schema value.
pub fn freshness_policy_from_json(doc: &Json) -> Result<FreshnessPolicy, EngineError> {
    let mode = match get_str(doc, "mode")? {
        "fail-closed" => FreshnessMode::FailClosed,
        "fail-open" => FreshnessMode::FailOpen,
        "hold-last-value" => FreshnessMode::HoldLastValue,
        other => return Err(bad(format!("unknown freshness mode '{other}'"))),
    };
    let max_age = match doc.get("max_age_ms") {
        Some(ms) => Some(SimDuration::from_millis(num_of(ms, "max_age_ms")?)),
        None => None,
    };
    Ok(FreshnessPolicy { mode, max_age })
}

fn mode_name(mode: FreshnessMode) -> &'static str {
    match mode {
        FreshnessMode::FailClosed => "fail-closed",
        FreshnessMode::FailOpen => "fail-open",
        FreshnessMode::HoldLastValue => "hold-last-value",
    }
}

impl Engine {
    /// Exports the engine's runtime state as a deterministic JSON
    /// document (see the module docs for exactly what is covered).
    /// Identical engine states always produce identical documents.
    pub fn export_runtime_json(&self) -> Json {
        let ctx = &self.ctx;
        let sensors = Json::Arr(
            ctx.sensor_entries()
                .into_iter()
                .map(|(key, value, at)| {
                    Json::obj(vec![
                        ("device", Json::str(key.device().as_str())),
                        ("variable", Json::str(key.variable())),
                        ("value", value_to_json(&value)),
                        ("at", Json::Int(at.as_millis() as i64)),
                    ])
                })
                .collect(),
        );
        let presence = Json::Arr(
            ctx.presence_entries()
                .into_iter()
                .map(|(person, place)| {
                    Json::obj(vec![
                        ("person", Json::str(person.as_str())),
                        ("place", Json::str(place.as_str())),
                    ])
                })
                .collect(),
        );
        let transient = Json::Arr(
            ctx.transient_event_entries()
                .into_iter()
                .map(|(channel, name, expiry)| {
                    Json::obj(vec![
                        ("channel", Json::str(&channel)),
                        ("name", Json::str(&name)),
                        ("expires_at", Json::Int(expiry.as_millis() as i64)),
                    ])
                })
                .collect(),
        );
        let persistent = Json::Arr(
            ctx.persistent_event_entries()
                .into_iter()
                .map(|(channel, name)| {
                    Json::obj(vec![
                        ("channel", Json::str(&channel)),
                        ("name", Json::str(&name)),
                    ])
                })
                .collect(),
        );
        let held = Json::Arr(
            self.held
                .entries()
                .into_iter()
                .map(|(fingerprint, since)| {
                    Json::obj(vec![
                        ("fingerprint", Json::str(&fingerprint)),
                        ("since", Json::Int(since.as_millis() as i64)),
                    ])
                })
                .collect(),
        );

        // Rule state by id, ascending.
        let (mut last_true, mut last_false) = (Vec::new(), Vec::new());
        let (mut latched, mut suppress_noted, mut defer_noted) =
            (Vec::new(), Vec::new(), Vec::new());
        for (ord, state) in self.rule_state.iter().enumerate() {
            let Some(entry) = self.rules.entry(ord as u32) else {
                continue;
            };
            let id = entry.id;
            match state.verdict {
                Some(true) => last_true.push(id),
                Some(false) => last_false.push(id),
                None => {}
            }
            if state.latched {
                latched.push(id);
            }
            if state.suppress_noted {
                suppress_noted.push(id);
            }
            if state.defer_noted {
                defer_noted.push(id);
            }
        }
        for ids in [
            &mut last_true,
            &mut last_false,
            &mut latched,
            &mut suppress_noted,
            &mut defer_noted,
        ] {
            ids.sort_unstable();
        }

        // Device state by device name.
        let mut devices: Vec<(&DeviceId, &DeviceState)> = self
            .device_state
            .iter()
            .enumerate()
            .map(|(slot, state)| (self.rules.device_at(slot as u32), state))
            .filter(|(_, state)| state.holder.is_some() || !state.pool.is_empty() || state.deferred)
            .collect();
        devices.sort_unstable_by_key(|&(device, _)| device);
        let holders = Json::Arr(
            devices
                .iter()
                .filter_map(|(device, state)| {
                    let holder = state.holder?;
                    Some(Json::obj(vec![
                        ("device", Json::str(device.as_str())),
                        ("rule", Json::Int(holder.raw() as i64)),
                    ]))
                })
                .collect(),
        );
        let contenders = Json::Arr(
            devices
                .iter()
                .filter(|(_, state)| !state.pool.is_empty())
                .map(|(device, state)| {
                    Json::obj(vec![
                        ("device", Json::str(device.as_str())),
                        (
                            "rules",
                            rule_ids_to_json(state.pool.iter().map(|(id, _)| id)),
                        ),
                    ])
                })
                .collect(),
        );
        let deferred_devices = Json::Arr(
            devices
                .iter()
                .filter(|(_, state)| state.deferred)
                .map(|(device, _)| Json::str(device.as_str()))
                .collect(),
        );

        let resilience = resilience_to_json(&self.resilience);

        Json::obj(vec![
            ("version", Json::Int(RUNTIME_VERSION)),
            ("now", Json::Int(ctx.now().as_millis() as i64)),
            (
                "event_window_ms",
                Json::Int(ctx.event_window().as_millis() as i64),
            ),
            (
                "freshness",
                freshness_policy_to_json(&ctx.freshness_policy()),
            ),
            ("sensors", sensors),
            ("presence", presence),
            ("transient_events", transient),
            ("persistent_events", persistent),
            ("held", held),
            ("last_true", rule_ids_to_json(&last_true)),
            ("last_false", rule_ids_to_json(&last_false)),
            ("holders", holders),
            ("contenders", contenders),
            ("latched", rule_ids_to_json(&latched)),
            ("suppress_noted", rule_ids_to_json(&suppress_noted)),
            ("defer_noted", rule_ids_to_json(&defer_noted)),
            ("deferred_devices", deferred_devices),
            ("resilience", resilience),
        ])
    }

    /// Imports a checkpoint produced by [`Engine::export_runtime_json`],
    /// replacing the engine's entire runtime state. Rules and priorities
    /// must already be in place (they replay from their own records);
    /// sensor stamps, event expiries, holds and breaker machines come
    /// back exactly as exported.
    ///
    /// Reads documents of version 1 and 2; they differ only in how
    /// each rule's last verdict is written.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Persist`] on an out-of-schema document: a
    /// missing member, a wrong type, a negative time, duration, count or
    /// rule id, a rule in both `last_true` and `last_false`, commit state
    /// for a rule the database does not hold or a device no stored rule
    /// targets, or a holder or contender that does not target its device.
    /// A refused document changes nothing: the import decodes every
    /// member into a staged context and locals, and swaps them in only
    /// after the last one has been read.
    pub fn import_runtime_json(&mut self, doc: &Json) -> Result<(), EngineError> {
        let version = get_int(doc, "version")?;
        if !(1..=RUNTIME_VERSION).contains(&version) {
            return Err(bad(format!(
                "runtime checkpoint version {version} unsupported (reads 1 to {RUNTIME_VERSION})"
            )));
        }

        // Clock first: restores below must not be expired by a later
        // set_now.
        let mut ctx = self.ctx.emptied();
        ctx.set_now(time_of(doc, "now")?);
        ctx.set_event_window(duration_of(doc, "event_window_ms")?);
        ctx.set_freshness_policy(freshness_policy_from_json(require(doc, "freshness")?)?);

        for entry in arr_of(doc, "sensors")? {
            let key = SensorKey::new(
                DeviceId::new(get_str(entry, "device")?),
                get_str(entry, "variable")?,
            );
            let value = value_from_json(require(entry, "value")?)
                .map_err(|e| bad(format!("sensor value: {e}")))?;
            ctx.write_sensor(&key, value, time_of(entry, "at")?);
        }
        for entry in arr_of(doc, "presence")? {
            ctx.set_presence(
                PersonId::new(get_str(entry, "person")?),
                Some(PlaceId::new(get_str(entry, "place")?)),
            );
        }
        for entry in arr_of(doc, "persistent_events")? {
            ctx.set_persistent_event(get_str(entry, "channel")?, get_str(entry, "name")?);
        }
        for entry in arr_of(doc, "transient_events")? {
            ctx.restore_transient_event(
                get_str(entry, "channel")?,
                get_str(entry, "name")?,
                time_of(entry, "expires_at")?,
            );
        }

        let mut held = HeldTracker::new();
        for entry in arr_of(doc, "held")? {
            held.restore(
                get_str(entry, "fingerprint")?.to_owned(),
                time_of(entry, "since")?,
            );
        }

        let db = &self.rules;
        let ordinal_of = |id: RuleId, key: &str| {
            db.ordinal(id).ok_or_else(|| {
                bad(format!(
                    "'{key}' names rule {}, which is not stored",
                    id.raw()
                ))
            })
        };
        let slot_of = |device: &str, key: &str| {
            db.device_slot(&DeviceId::new(device)).ok_or_else(|| {
                bad(format!(
                    "'{key}' names device '{device}', which no stored rule targets"
                ))
            })
        };
        // A holder or contender of a device must target it.
        let ord_on = |id: RuleId, slot: u32, key: &str| {
            let ord = ordinal_of(id, key)?;
            if db.entry(ord).is_some_and(|entry| entry.device == slot) {
                Ok(ord)
            } else {
                Err(bad(format!(
                    "'{key}' puts rule {} on device '{}', which it does not target",
                    id.raw(),
                    db.device_at(slot)
                )))
            }
        };

        let mut rule_state = vec![RuleState::default(); db.ordinal_bound()];
        if version == 1 {
            for entry in arr_of(doc, "last_state")? {
                let state = require(entry, "state")?
                    .as_bool()
                    .ok_or_else(|| bad("'state' must be a boolean"))?;
                let ord = ordinal_of(rule_of(entry, "rule")?, "last_state")?;
                rule_state[ord as usize].verdict = Some(state);
            }
        } else {
            for (key, state) in [("last_true", true), ("last_false", false)] {
                for id in arr_of(doc, key)? {
                    let id = RuleId::new(num_of(id, key)?);
                    let verdict = &mut rule_state[ordinal_of(id, key)? as usize].verdict;
                    if verdict.replace(state) == Some(!state) {
                        return Err(bad(format!(
                            "rule {} is in both 'last_true' and 'last_false'",
                            id.raw()
                        )));
                    }
                }
            }
        }
        let mut device_state = vec![DeviceState::default(); db.device_slot_count()];
        for entry in arr_of(doc, "holders")? {
            let slot = slot_of(get_str(entry, "device")?, "holders")?;
            let id = rule_of(entry, "rule")?;
            ord_on(id, slot, "holders")?;
            device_state[slot as usize].holder = Some(id);
        }
        for entry in arr_of(doc, "contenders")? {
            let slot = slot_of(get_str(entry, "device")?, "contenders")?;
            let mut pool = Vec::new();
            for id in rule_set_from_json(entry, "rules")? {
                pool.push((id, ord_on(id, slot, "contenders")?));
            }
            device_state[slot as usize].pool = pool;
        }
        for id in rule_set_from_json(doc, "latched")? {
            rule_state[ordinal_of(id, "latched")? as usize].latched = true;
        }
        for id in rule_set_from_json(doc, "suppress_noted")? {
            rule_state[ordinal_of(id, "suppress_noted")? as usize].suppress_noted = true;
        }
        for id in rule_set_from_json(doc, "defer_noted")? {
            rule_state[ordinal_of(id, "defer_noted")? as usize].defer_noted = true;
        }
        for device in arr_of(doc, "deferred_devices")? {
            let device = device
                .as_str()
                .ok_or_else(|| bad("deferred device ids must be strings"))?;
            device_state[slot_of(device, "deferred_devices")? as usize].deferred = true;
        }
        let resilience = resilience_from_json(require(doc, "resilience")?)?;

        let mut pooled = Vec::new();
        for (slot, state) in device_state.iter_mut().enumerate() {
            if !state.pool.is_empty() || state.deferred {
                state.pooled = true;
                pooled.push(slot as u32);
            }
        }
        self.ctx = ctx;
        self.held = held;
        self.rule_state = rule_state;
        self.device_state = device_state;
        self.pooled = pooled;
        self.resilience = resilience;

        // Re-arm the trigger index's runtime-derived state (dwell,
        // freshness and clock deadlines, true/pending membership) from the
        // restored snapshot, and remember which policy the deadlines cover.
        self.last_freshness = self.ctx.freshness_policy();
        let rule_state = &self.rule_state;
        self.index
            .rearm_after_import(&self.rules, &self.ctx, &self.held, |ord| {
                rule_state[ord as usize].verdict
            });
        Ok(())
    }
}

fn resilience_to_json(resilience: &Resilience) -> Json {
    let config = resilience.config();
    let config_doc = Json::obj(vec![
        (
            "failure_threshold",
            Json::Int(config.failure_threshold as i64),
        ),
        ("cooldown_ms", Json::Int(config.cooldown.as_millis() as i64)),
        (
            "max_cooldown_ms",
            Json::Int(config.max_cooldown.as_millis() as i64),
        ),
        (
            "retry_base_ms",
            Json::Int(config.retry_base.as_millis() as i64),
        ),
        (
            "retry_cap_ms",
            Json::Int(config.retry_cap.as_millis() as i64),
        ),
        ("max_attempts", Json::Int(config.max_attempts as i64)),
        ("device_budget", Json::Int(config.device_budget as i64)),
        ("jitter_seed", Json::Int(config.jitter_seed as i64)),
        ("dlq_cap", Json::Int(config.dlq_cap as i64)),
    ]);
    let breakers = Json::Arr(
        resilience
            .breaker_entries()
            .map(|(device, breaker)| {
                Json::obj(vec![
                    ("device", Json::str(device.as_str())),
                    ("state", Json::str(breaker_state_name(breaker.state()))),
                    ("failures", Json::Int(breaker.consecutive_failures() as i64)),
                    (
                        "cooldown_ms",
                        Json::Int(breaker.cooldown().as_millis() as i64),
                    ),
                    (
                        "reopen_at",
                        Json::Int(breaker.reopen_at().as_millis() as i64),
                    ),
                ])
            })
            .collect(),
    );
    let queue = Json::Arr(
        resilience
            .queue_entries()
            .iter()
            .map(|entry| {
                Json::obj(vec![
                    ("seq", Json::Int(entry.seq as i64)),
                    ("rule", Json::Int(entry.rule.raw() as i64)),
                    ("device", Json::str(entry.device.as_str())),
                    ("action", action_to_json(&entry.action)),
                    ("kind", Json::str(kind_name(entry.kind))),
                    ("attempt", Json::Int(entry.attempt as i64)),
                    ("next_at", Json::Int(entry.next_at.as_millis() as i64)),
                ])
            })
            .collect(),
    );
    let dlq = Json::Arr(
        resilience
            .dead_letters()
            .iter()
            .map(|letter| {
                Json::obj(vec![
                    ("rule", Json::Int(letter.rule.raw() as i64)),
                    ("device", Json::str(letter.device.as_str())),
                    ("action", action_to_json(&letter.action)),
                    ("kind", Json::str(kind_name(letter.kind))),
                    ("attempts", Json::Int(letter.attempts as i64)),
                    ("reason", Json::str(&letter.reason)),
                    ("at", Json::Int(letter.at.as_millis() as i64)),
                ])
            })
            .collect(),
    );
    Json::obj(vec![
        ("config", config_doc),
        ("next_seq", Json::Int(resilience.next_seq() as i64)),
        ("breakers", breakers),
        ("queue", queue),
        ("dlq", dlq),
    ])
}

fn resilience_from_json(doc: &Json) -> Result<Resilience, EngineError> {
    let config_doc = require(doc, "config")?;
    let config = ResilienceConfig {
        failure_threshold: get_num(config_doc, "failure_threshold")?,
        cooldown: duration_of(config_doc, "cooldown_ms")?,
        max_cooldown: duration_of(config_doc, "max_cooldown_ms")?,
        retry_base: duration_of(config_doc, "retry_base_ms")?,
        retry_cap: duration_of(config_doc, "retry_cap_ms")?,
        max_attempts: get_num(config_doc, "max_attempts")?,
        device_budget: get_num(config_doc, "device_budget")?,
        // A u64 seed round-trips through the document's i64.
        jitter_seed: get_int(config_doc, "jitter_seed")? as u64,
        // Absent in checkpoints written before the cap existed.
        dlq_cap: match config_doc.get("dlq_cap") {
            Some(cap) => num_of(cap, "dlq_cap")?,
            None => ResilienceConfig::default().dlq_cap,
        },
    };
    let mut resilience = Resilience::new(config);
    for entry in arr_of(doc, "breakers")? {
        let state = match get_str(entry, "state")? {
            "closed" => BreakerState::Closed,
            "open" => BreakerState::Open,
            "half-open" => BreakerState::HalfOpen,
            other => return Err(bad(format!("unknown breaker state '{other}'"))),
        };
        resilience.restore_breaker(
            DeviceId::new(get_str(entry, "device")?),
            state,
            get_num(entry, "failures")?,
            duration_of(entry, "cooldown_ms")?,
            time_of(entry, "reopen_at")?,
        );
    }
    for entry in arr_of(doc, "queue")? {
        resilience.restore_retry(RetryEntry {
            seq: get_num(entry, "seq")?,
            rule: rule_of(entry, "rule")?,
            device: DeviceId::new(get_str(entry, "device")?),
            action: action_from_json(require(entry, "action")?)
                .map_err(|e| bad(format!("retry action: {e}")))?,
            kind: kind_from_name(get_str(entry, "kind")?)?,
            attempt: get_num(entry, "attempt")?,
            next_at: time_of(entry, "next_at")?,
        });
    }
    for entry in arr_of(doc, "dlq")? {
        resilience.restore_dead_letter(DeadLetter {
            rule: rule_of(entry, "rule")?,
            device: DeviceId::new(get_str(entry, "device")?),
            action: action_from_json(require(entry, "action")?)
                .map_err(|e| bad(format!("dead-letter action: {e}")))?,
            kind: kind_from_name(get_str(entry, "kind")?)?,
            attempts: get_num(entry, "attempts")?,
            reason: get_str(entry, "reason")?.to_owned(),
            at: time_of(entry, "at")?,
        });
    }
    resilience.restore_next_seq(get_num(doc, "next_seq")?);
    Ok(resilience)
}

fn breaker_state_name(state: BreakerState) -> &'static str {
    match state {
        BreakerState::Closed => "closed",
        BreakerState::Open => "open",
        BreakerState::HalfOpen => "half-open",
    }
}

fn kind_name(kind: RetryKind) -> &'static str {
    match kind {
        RetryKind::Fire => "fire",
        RetryKind::Release => "release",
    }
}

fn kind_from_name(name: &str) -> Result<RetryKind, EngineError> {
    match name {
        "fire" => Ok(RetryKind::Fire),
        "release" => Ok(RetryKind::Release),
        other => Err(bad(format!("unknown retry kind '{other}'"))),
    }
}

fn rule_ids_to_json<'a>(ids: impl IntoIterator<Item = &'a RuleId>) -> Json {
    Json::Arr(
        ids.into_iter()
            .map(|id| Json::Int(id.raw() as i64))
            .collect(),
    )
}

fn rule_set_from_json(doc: &Json, key: &str) -> Result<BTreeSet<RuleId>, EngineError> {
    arr_of(doc, key)?
        .iter()
        .map(|id| Ok(RuleId::new(num_of(id, key)?)))
        .collect()
}

fn require<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, EngineError> {
    doc.get(key)
        .ok_or_else(|| bad(format!("missing field '{key}'")))
}

fn arr_of<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], EngineError> {
    require(doc, key)?
        .as_arr()
        .ok_or_else(|| bad(format!("'{key}' must be an array")))
}

fn get_str<'a>(doc: &'a Json, key: &str) -> Result<&'a str, EngineError> {
    require(doc, key)?
        .as_str()
        .ok_or_else(|| bad(format!("'{key}' must be a string")))
}

fn get_int(doc: &Json, key: &str) -> Result<i64, EngineError> {
    int_of(require(doc, key)?, key)
}

fn int_of(doc: &Json, key: &str) -> Result<i64, EngineError> {
    doc.as_int()
        .ok_or_else(|| bad(format!("'{key}' must be an integer")))
}

/// An integer member converted to the unsigned type the engine keeps it
/// in; a negative or too-large value is refused rather than wrapped.
fn get_num<T: TryFrom<i64>>(doc: &Json, key: &str) -> Result<T, EngineError> {
    num_of(require(doc, key)?, key)
}

fn num_of<T: TryFrom<i64>>(doc: &Json, key: &str) -> Result<T, EngineError> {
    let n = int_of(doc, key)?;
    T::try_from(n).map_err(|_| bad(format!("'{key}' is out of range: {n}")))
}

fn time_of(doc: &Json, key: &str) -> Result<SimTime, EngineError> {
    Ok(SimTime::from_millis(get_num(doc, key)?))
}

fn duration_of(doc: &Json, key: &str) -> Result<SimDuration, EngineError> {
    Ok(SimDuration::from_millis(get_num(doc, key)?))
}

fn rule_of(doc: &Json, key: &str) -> Result<RuleId, EngineError> {
    Ok(RuleId::new(get_num(doc, key)?))
}

fn bad(message: impl Into<String>) -> EngineError {
    EngineError::Persist(message.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadel_devices::LivingRoomHome;
    use cadel_rule::{ActionSpec, Atom, Condition, ConstraintAtom, EventAtom, Rule, Verb};
    use cadel_simplex::RelOp;
    use cadel_types::{Quantity, Rational, SensorKey, Unit};
    use cadel_upnp::{ControlPoint, FaultPlan, FaultyDevice, Registry};

    fn mins(m: u64) -> SimTime {
        SimTime::EPOCH + SimDuration::from_minutes(m)
    }

    fn hot_rule(owner: &str, id: u64, threshold: i64) -> Rule {
        let cond = Condition::Atom(Atom::Constraint(ConstraintAtom::new(
            SensorKey::new(DeviceId::new("thermo-lr"), "temperature"),
            RelOp::Gt,
            Quantity::from_integer(threshold, Unit::Celsius),
        )));
        Rule::builder(PersonId::new(owner))
            .condition(cond)
            .action(ActionSpec::new(DeviceId::new("aircon-lr"), Verb::TurnOn))
            .until(Condition::Atom(Atom::Event(EventAtom::new(
                "home",
                "goodnight",
            ))))
            .build(RuleId::new(id))
            .unwrap()
    }

    fn held_rule(owner: &str, id: u64) -> Rule {
        let inner = Atom::Constraint(ConstraintAtom::new(
            SensorKey::new(DeviceId::new("thermo-lr"), "temperature"),
            RelOp::Gt,
            Quantity::from_integer(20, Unit::Celsius),
        ));
        let cond = Condition::Atom(Atom::held_for(inner, SimDuration::from_minutes(30)));
        Rule::builder(PersonId::new(owner))
            .condition(cond)
            .action(ActionSpec::new(DeviceId::new("lamp-lr"), Verb::TurnOn))
            .build(RuleId::new(id))
            .unwrap()
    }

    /// Builds a mid-scenario engine: a breaker tripped on the aircon, a
    /// retry queued, a `held_for` window half-elapsed, presence and
    /// events in the context store.
    fn busy_engine() -> (Engine, LivingRoomHome) {
        let registry = Registry::new();
        let home = LivingRoomHome::install(&registry);
        FaultyDevice::wrap(
            &registry,
            &DeviceId::new("aircon-lr"),
            FaultPlan::new().fail_between(SimTime::EPOCH, mins(45)),
        )
        .unwrap();
        let mut engine = Engine::new(ControlPoint::new(registry));
        engine.add_rule(hot_rule("tom", 1, 26)).unwrap();
        engine.add_rule(held_rule("alan", 2)).unwrap();
        engine
            .context_mut()
            .set_presence(PersonId::new("tom"), Some(PlaceId::new("living-room")));
        engine
            .context_mut()
            .set_persistent_event("home", "vacation");
        engine.context_mut().raise_event("home", "doorbell");
        home.thermometer
            .set_reading(Rational::from_integer(28), mins(1))
            .unwrap();
        for m in 1..6 {
            engine.step(mins(m));
        }
        (engine, home)
    }

    #[test]
    fn export_import_export_is_a_fixpoint() {
        let (engine, _home) = busy_engine();
        let doc = engine.export_runtime_json();

        // The checkpoint actually captured the interesting state.
        let resilience = doc.get("resilience").unwrap();
        assert!(!resilience
            .get("breakers")
            .unwrap()
            .as_arr()
            .unwrap()
            .is_empty());
        assert!(!doc.get("held").unwrap().as_arr().unwrap().is_empty());
        assert!(!doc.get("sensors").unwrap().as_arr().unwrap().is_empty());

        // Import into a *fresh* engine over an identical (fresh) home.
        let registry = Registry::new();
        LivingRoomHome::install(&registry);
        FaultyDevice::wrap(
            &registry,
            &DeviceId::new("aircon-lr"),
            FaultPlan::new().fail_between(SimTime::EPOCH, mins(45)),
        )
        .unwrap();
        let mut restored = Engine::new(ControlPoint::new(registry));
        restored.add_rule(hot_rule("tom", 1, 26)).unwrap();
        restored.add_rule(held_rule("alan", 2)).unwrap();
        restored.import_runtime_json(&doc).unwrap();

        assert_eq!(restored.export_runtime_json(), doc);
    }

    #[test]
    fn restored_engine_resumes_in_lockstep() {
        let (mut original, home_a) = busy_engine();
        let doc = original.export_runtime_json();

        let registry = Registry::new();
        let home_b = LivingRoomHome::install(&registry);
        FaultyDevice::wrap(
            &registry,
            &DeviceId::new("aircon-lr"),
            FaultPlan::new().fail_between(SimTime::EPOCH, mins(45)),
        )
        .unwrap();
        let mut restored = Engine::new(ControlPoint::new(registry));
        restored.add_rule(hot_rule("tom", 1, 26)).unwrap();
        restored.add_rule(held_rule("alan", 2)).unwrap();
        restored.import_runtime_json(&doc).unwrap();
        // The restored home's devices must mirror the original's live
        // state (a real recovery re-reads the world; here the world is
        // fresh, so replay the one reading that matters).
        home_b
            .thermometer
            .set_reading(Rational::from_integer(28), mins(1))
            .unwrap();
        restored.step(mins(5));
        let _ = home_a; // scenario state beyond the thermometer is idle

        // Drive both engines forward: the held_for window elapses at
        // minute 31, the breaker cooldown and queued retries play out.
        for m in 6..60 {
            let ra = original.step(mins(m));
            let rb = restored.step(mins(m));
            assert_eq!(
                ra.to_string(),
                rb.to_string(),
                "step reports diverge at minute {m}"
            );
        }
        assert_eq!(
            original.export_runtime_json(),
            restored.export_runtime_json()
        );
    }

    /// Ordinals are never written: an engine that stored the same rules
    /// in another order, so under other ordinals, imports the checkpoint,
    /// exports it byte for byte and steps in lockstep with the original.
    #[test]
    fn a_checkpoint_moves_between_engines_that_number_rules_differently() {
        let (mut original, _home_a) = busy_engine();
        let doc = original.export_runtime_json();

        let registry = Registry::new();
        let home_b = LivingRoomHome::install(&registry);
        FaultyDevice::wrap(
            &registry,
            &DeviceId::new("aircon-lr"),
            FaultPlan::new().fail_between(SimTime::EPOCH, mins(45)),
        )
        .unwrap();
        let mut restored = Engine::new(ControlPoint::new(registry));
        restored.add_rule(held_rule("alan", 2)).unwrap();
        restored.add_rule(hot_rule("tom", 1, 26)).unwrap();
        assert_ne!(
            restored.rules().ordinal(RuleId::new(1)),
            original.rules().ordinal(RuleId::new(1))
        );
        restored.import_runtime_json(&doc).unwrap();
        assert_eq!(restored.export_runtime_json(), doc);

        home_b
            .thermometer
            .set_reading(Rational::from_integer(28), mins(1))
            .unwrap();
        for m in 6..60 {
            assert_eq!(
                original.step(mins(m)).to_string(),
                restored.step(mins(m)).to_string(),
                "step reports diverge at minute {m}"
            );
        }
        assert_eq!(
            original.export_runtime_json(),
            restored.export_runtime_json()
        );
    }

    #[test]
    fn freshness_policy_round_trips() {
        let policies = [
            FreshnessPolicy::default(),
            FreshnessPolicy {
                mode: FreshnessMode::FailClosed,
                max_age: Some(SimDuration::from_minutes(5)),
            },
            FreshnessPolicy {
                mode: FreshnessMode::FailOpen,
                max_age: Some(SimDuration::from_millis(1)),
            },
            FreshnessPolicy {
                mode: FreshnessMode::HoldLastValue,
                max_age: None,
            },
        ];
        for policy in policies {
            let doc = freshness_policy_to_json(&policy);
            assert_eq!(freshness_policy_from_json(&doc).unwrap(), policy);
        }
    }

    /// A checkpoint written before lowering became total: it carries the
    /// retired `fallback_noted` set (rule 2 was a dimension clash, then
    /// stored without a program and interpreted instead).
    const CHECKPOINT_WITH_FALLBACK_NOTED: &str = concat!(
        r#"{"version":1,"now":180000,"event_window_ms":600000,"#,
        r#""freshness":{"mode":"hold-last-value"},"#,
        r#""sensors":[{"device":"aircon-lr","variable":"power","value":true,"at":60000},"#,
        r#"{"device":"thermo-lr","variable":"temperature","value":{"number":28,"unit":"celsius"},"at":60000}],"#,
        r#""presence":[],"transient_events":[],"persistent_events":[],"held":[],"#,
        r#""last_state":[{"rule":1,"state":true},{"rule":2,"state":false}],"#,
        r#""holders":[{"device":"aircon-lr","rule":1}],"#,
        r#""contenders":[{"device":"aircon-lr","rules":[1]}],"#,
        r#""latched":[],"suppress_noted":[],"fallback_noted":[2],"defer_noted":[],"#,
        r#""deferred_devices":[],"#,
        r#""resilience":{"config":{"failure_threshold":3,"cooldown_ms":120000,"#,
        r#""max_cooldown_ms":960000,"retry_base_ms":30000,"retry_cap_ms":240000,"#,
        r#""max_attempts":4,"device_budget":8,"jitter_seed":830945,"dlq_cap":256},"#,
        r#""next_seq":0,"breakers":[],"queue":[],"dlq":[]}}"#,
    );

    /// The same state as [`CHECKPOINT_WITH_FALLBACK_NOTED`], as today's
    /// export writes it: version 2, the two edge lists in place of
    /// `last_state`, and no retired key.
    const CHECKPOINT_V2: &str = concat!(
        r#"{"version":2,"now":180000,"event_window_ms":600000,"#,
        r#""freshness":{"mode":"hold-last-value"},"#,
        r#""sensors":[{"device":"aircon-lr","variable":"power","value":true,"at":60000},"#,
        r#"{"device":"thermo-lr","variable":"temperature","value":{"number":28,"unit":"celsius"},"at":60000}],"#,
        r#""presence":[],"transient_events":[],"persistent_events":[],"held":[],"#,
        r#""last_true":[1],"last_false":[2],"#,
        r#""holders":[{"device":"aircon-lr","rule":1}],"#,
        r#""contenders":[{"device":"aircon-lr","rules":[1]}],"#,
        r#""latched":[],"suppress_noted":[],"defer_noted":[],"#,
        r#""deferred_devices":[],"#,
        r#""resilience":{"config":{"failure_threshold":3,"cooldown_ms":120000,"#,
        r#""max_cooldown_ms":960000,"retry_base_ms":30000,"retry_cap_ms":240000,"#,
        r#""max_attempts":4,"device_budget":8,"jitter_seed":830945,"dlq_cap":256},"#,
        r#""next_seq":0,"breakers":[],"queue":[],"dlq":[]}}"#,
    );

    /// The engine the literals above were exported from: both rules they
    /// name are stored.
    fn living_room_engine() -> Engine {
        let registry = Registry::new();
        LivingRoomHome::install(&registry);
        let mut engine = Engine::new(ControlPoint::new(registry));
        engine.add_rule(hot_rule("tom", 1, 26)).unwrap();
        engine.add_rule(hot_rule("alan", 2, 30)).unwrap();
        engine
    }

    #[test]
    fn checkpoint_carrying_fallback_noted_still_imports() {
        let doc = cadel_types::json::parse(CHECKPOINT_WITH_FALLBACK_NOTED).unwrap();
        let mut engine = living_room_engine();
        engine.import_runtime_json(&doc).unwrap();
        assert_eq!(
            engine.holder(&DeviceId::new("aircon-lr")),
            Some(RuleId::new(1))
        );

        // The version 1 document re-exports as version 2, byte for byte.
        assert_eq!(engine.export_runtime_json().to_compact(), CHECKPOINT_V2);
    }

    #[test]
    fn version_1_and_version_2_import_to_the_same_state() {
        let mut from_v1 = living_room_engine();
        from_v1
            .import_runtime_json(&cadel_types::json::parse(CHECKPOINT_WITH_FALLBACK_NOTED).unwrap())
            .unwrap();
        let mut from_v2 = living_room_engine();
        from_v2
            .import_runtime_json(&cadel_types::json::parse(CHECKPOINT_V2).unwrap())
            .unwrap();
        assert_eq!(from_v1.export_runtime_json(), from_v2.export_runtime_json());
    }

    /// `CHECKPOINT_V2` with one member's value replaced.
    fn v2_with(key: &str, value: Json) -> Json {
        let mut doc = cadel_types::json::parse(CHECKPOINT_V2).unwrap();
        let Json::Obj(members) = &mut doc else {
            unreachable!("the literal is an object")
        };
        members
            .iter_mut()
            .find(|(k, _)| k == key)
            .expect("the literal has the member")
            .1 = value;
        doc
    }

    fn import_error(doc: &Json) -> String {
        match living_room_engine().import_runtime_json(doc) {
            Err(EngineError::Persist(message)) => message,
            other => panic!("expected a persist error, got {other:?}"),
        }
    }

    #[test]
    fn edge_lists_refuse_overlaps_and_bad_ids() {
        let ids = |raw: &[i64]| Json::Arr(raw.iter().map(|&n| Json::Int(n)).collect());
        let overlap = v2_with("last_false", ids(&[1, 2]));
        assert!(import_error(&overlap).contains("both 'last_true' and 'last_false'"));
        let negative = v2_with("last_true", ids(&[-1]));
        assert!(import_error(&negative).contains("'last_true'"));
        let text = v2_with("last_false", Json::Arr(vec![Json::str("2")]));
        assert!(import_error(&text).contains("'last_false' must be an integer"));
        let missing = {
            let mut doc = cadel_types::json::parse(CHECKPOINT_V2).unwrap();
            if let Json::Obj(members) = &mut doc {
                members.retain(|(key, _)| key != "last_false");
            }
            doc
        };
        assert!(import_error(&missing).contains("'last_false'"));
    }

    /// Regression: a negative event window imported as a huge unsigned
    /// one, and the next raised event overflowed the expiry sum (a panic
    /// in a debug build, an event that expired at once in a release
    /// build). A negative time or duration is now refused by name.
    #[test]
    fn negative_times_are_refused_by_name() {
        let window = cadel_types::json::parse(
            &CHECKPOINT_WITH_FALLBACK_NOTED
                .replace(r#""event_window_ms":600000"#, r#""event_window_ms":-1"#),
        )
        .unwrap();
        assert!(import_error(&window).contains("'event_window_ms' is out of range: -1"));
        let now = v2_with("now", Json::Int(-60_000));
        assert!(import_error(&now).contains("'now'"));
        let stale =
            cadel_types::json::parse(&CHECKPOINT_V2.replace(r#""at":60000}]"#, r#""at":-5}]"#))
                .unwrap();
        assert!(import_error(&stale).contains("'at'"));
        let cooldown = cadel_types::json::parse(
            &CHECKPOINT_V2.replace(r#""cooldown_ms":120000"#, r#""cooldown_ms":-120000"#),
        )
        .unwrap();
        assert!(import_error(&cooldown).contains("'cooldown_ms'"));

        // The refused import leaves nothing to panic on: a fresh import
        // of the valid document still steps through an event.
        let mut engine = living_room_engine();
        assert!(engine.import_runtime_json(&window).is_err());
        engine
            .import_runtime_json(&cadel_types::json::parse(CHECKPOINT_V2).unwrap())
            .unwrap();
        engine.context_mut().raise_event("home", "doorbell");
        engine.step(mins(4));
    }

    /// A document refused after its first members decode changes
    /// nothing: the engine exports what it exported before.
    #[test]
    fn a_refused_import_leaves_the_engine_as_it_was() {
        let (mut engine, _home) = busy_engine();
        let before = engine.export_runtime_json().to_compact();
        let Json::Obj(members) = engine.export_runtime_json() else {
            unreachable!("an export is an object")
        };
        let refused = Json::Obj(
            members
                .into_iter()
                .map(|(key, value)| {
                    let value = match (key.as_str(), value) {
                        ("now", _) => Json::Int(mins(600).as_millis() as i64),
                        ("resilience", _) => Json::Null,
                        (_, Json::Arr(_)) => Json::Arr(Vec::new()),
                        (_, value) => value,
                    };
                    (key, value)
                })
                .collect(),
        );
        assert!(matches!(
            engine.import_runtime_json(&refused),
            Err(EngineError::Persist(_))
        ));
        assert_eq!(engine.export_runtime_json().to_compact(), before);
    }

    #[test]
    fn import_rejects_out_of_schema_documents() {
        let (mut engine, _home) = busy_engine();
        for version in [0, 3, 99, -1] {
            let err = engine
                .import_runtime_json(&Json::obj(vec![("version", Json::Int(version))]))
                .unwrap_err();
            assert!(err.to_string().contains(&format!("version {version}")));
        }

        let mut doc = engine.export_runtime_json();
        if let Json::Obj(members) = &mut doc {
            members.retain(|(key, _)| key != "resilience");
        }
        let err = engine.import_runtime_json(&doc).unwrap_err();
        assert!(err.to_string().contains("resilience"));
    }
}
