//! WAL record and snapshot codecs for the home server's durable state.
//!
//! Every durable mutation the server performs appends exactly **one**
//! JSON record to the write-ahead log before it is applied (see
//! `docs/PERSISTENCE.md`). Records reuse the stable rule/condition JSON
//! schema from `cadel_rule::codec` for their payloads, so a log written
//! by one build replays on another as long as that schema holds.
//!
//! Record set (`"type"` discriminator):
//!
//! | type              | payload                                    |
//! |-------------------|--------------------------------------------|
//! | `user_added`      | `name` (display name)                      |
//! | `word_defined`    | `user`, `sentence` (original CADEL text)   |
//! | `rule_registered` | `rule`                                     |
//! | `rule_arbitrated` | `rule`, `priority`                         |
//! | `rule_id_reserved`| `id` (of a refused rule its caller holds)  |
//! | `rule_removed`    | `id`                                       |
//! | `rule_customized` | `rule` (full replacement, same id)         |
//! | `priority_added`  | `priority`                                 |
//! | `freshness`       | `policy`                                   |
//! | `runtime`         | `state` (full engine runtime checkpoint)   |
//!
//! Replay applies records as *post-decision* semantic mutations: a
//! replayed `rule_registered` goes straight into the engine without
//! re-running the consistency/conflict workflow (the decision was
//! already made and logged), while a replayed `word_defined` re-runs
//! the original sentence through `submit` so the private dictionary is
//! rebuilt by the same code that built it live.

use crate::error::ServerError;
use cadel_conflict::PriorityOrder;
use cadel_engine::{freshness_policy_to_json, FreshnessPolicy};
use cadel_rule::codec::{condition_from_json, condition_to_json, rule_from_json, rule_to_json};
use cadel_rule::Rule;
use cadel_types::json::Json;
use cadel_types::{DeviceId, PersonId, RuleId};

pub(crate) fn user_added(name: &str) -> Json {
    Json::obj(vec![
        ("type", Json::str("user_added")),
        ("name", Json::str(name)),
    ])
}

pub(crate) fn word_defined(user: &PersonId, sentence: &str) -> Json {
    Json::obj(vec![
        ("type", Json::str("word_defined")),
        ("user", Json::str(user.as_str())),
        ("sentence", Json::str(sentence)),
    ])
}

pub(crate) fn rule_registered(rule: &Rule) -> Json {
    Json::obj(vec![
        ("type", Json::str("rule_registered")),
        ("rule", rule_to_json(rule)),
    ])
}

pub(crate) fn rule_arbitrated(rule: &Rule, priority: &PriorityOrder) -> Json {
    Json::obj(vec![
        ("type", Json::str("rule_arbitrated")),
        ("rule", rule_to_json(rule)),
        ("priority", priority_to_json(priority)),
    ])
}

pub(crate) fn rule_id_reserved(id: RuleId) -> Json {
    Json::obj(vec![
        ("type", Json::str("rule_id_reserved")),
        ("id", Json::Int(id.raw() as i64)),
    ])
}

pub(crate) fn rule_removed(id: RuleId) -> Json {
    Json::obj(vec![
        ("type", Json::str("rule_removed")),
        ("id", Json::Int(id.raw() as i64)),
    ])
}

pub(crate) fn rule_customized(rule: &Rule) -> Json {
    Json::obj(vec![
        ("type", Json::str("rule_customized")),
        ("rule", rule_to_json(rule)),
    ])
}

pub(crate) fn priority_added(priority: &PriorityOrder) -> Json {
    Json::obj(vec![
        ("type", Json::str("priority_added")),
        ("priority", priority_to_json(priority)),
    ])
}

pub(crate) fn freshness(policy: &FreshnessPolicy) -> Json {
    Json::obj(vec![
        ("type", Json::str("freshness")),
        ("policy", freshness_policy_to_json(policy)),
    ])
}

pub(crate) fn runtime(state: Json) -> Json {
    Json::obj(vec![("type", Json::str("runtime")), ("state", state)])
}

/// Serializes a priority order: device, ranking (highest first), and the
/// optional context condition and label.
pub(crate) fn priority_to_json(order: &PriorityOrder) -> Json {
    let mut members = vec![
        ("device", Json::str(order.device().as_str())),
        (
            "ranking",
            Json::Arr(
                order
                    .ranking()
                    .iter()
                    .map(|id| Json::Int(id.raw() as i64))
                    .collect(),
            ),
        ),
    ];
    if let Some(context) = order.context() {
        members.push(("context", condition_to_json(context)));
    }
    if let Some(label) = order.label() {
        members.push(("label", Json::str(label)));
    }
    Json::obj(members)
}

pub(crate) fn priority_from_json(doc: &Json) -> Result<PriorityOrder, ServerError> {
    let device = DeviceId::new(get_str(doc, "device")?);
    let ranking = doc
        .get("ranking")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("priority record: 'ranking' must be an array"))?
        .iter()
        .map(|id| {
            id.as_int()
                .map(|raw| RuleId::new(raw as u64))
                .ok_or_else(|| bad("priority record: ranking entries must be integers"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut order = PriorityOrder::new(device, ranking);
    if let Some(context) = doc.get("context") {
        order = order.in_context(condition_from_json(context).map_err(ServerError::Rule)?);
    }
    if let Some(label) = doc.get("label") {
        let label = label
            .as_str()
            .ok_or_else(|| bad("priority record: 'label' must be a string"))?;
        order = order.with_label(label);
    }
    Ok(order)
}

pub(crate) fn rule_of(doc: &Json, key: &str) -> Result<Rule, ServerError> {
    let payload = doc
        .get(key)
        .ok_or_else(|| bad(format!("record missing field '{key}'")))?;
    rule_from_json(payload).map_err(ServerError::Rule)
}

pub(crate) fn get_str<'a>(doc: &'a Json, key: &str) -> Result<&'a str, ServerError> {
    doc.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| bad(format!("record field '{key}' must be a string")))
}

pub(crate) fn get_field<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, ServerError> {
    doc.get(key)
        .ok_or_else(|| bad(format!("record missing field '{key}'")))
}

pub(crate) fn bad(message: impl Into<String>) -> ServerError {
    ServerError::Store(message.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadel_rule::{Atom, Condition, EventAtom};

    #[test]
    fn priority_order_round_trips() {
        let order = PriorityOrder::new(
            DeviceId::new("aircon-lr"),
            vec![RuleId::new(2), RuleId::new(1)],
        )
        .in_context(Condition::Atom(Atom::Event(EventAtom::new(
            "person:alan",
            "got home from work",
        ))))
        .with_label("Alan got home");
        let doc = priority_to_json(&order);
        let restored = priority_from_json(&doc).unwrap();
        assert_eq!(restored.device(), order.device());
        assert_eq!(restored.ranking(), order.ranking());
        assert_eq!(restored.context(), order.context());
        assert_eq!(restored.label(), order.label());

        let bare = PriorityOrder::new(DeviceId::new("tv-lr"), vec![RuleId::new(7)]);
        let doc = priority_to_json(&bare);
        assert!(doc.get("context").is_none());
        assert!(doc.get("label").is_none());
        let restored = priority_from_json(&doc).unwrap();
        assert!(restored.context().is_none());
        assert!(restored.label().is_none());
    }

    #[test]
    fn malformed_records_name_the_field() {
        let doc = Json::obj(vec![("device", Json::Int(3))]);
        let err = priority_from_json(&doc).unwrap_err();
        assert!(err.to_string().contains("device"));
    }
}
