//! Request/response payload schemas: JSON bodies in, JSON documents out.
//!
//! Parsing is strict and typed — an unknown shape maps to a
//! [`BadRequest`] with a machine-readable code, never a panic — and
//! rendering reuses the workspace's own [`Json`] document model, so the
//! frontend stays std-only.

use cadel_fleet::{Admission, FleetHealth, Ingress};
use cadel_server::{Advisory, PriorityOrder, SubmitOutcome};
use cadel_types::json::Json;
use cadel_types::{DeviceId, PersonId, Quantity, Rational, RuleId, SimTime, Unit, Value};

/// A typed payload rejection: rendered as `422 Unprocessable Entity`
/// (`400 Bad Request` for a malformed `priority`) with
/// `{"error": code, "message": ...}`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BadRequest {
    /// Machine-readable code.
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl BadRequest {
    fn new(code: &'static str, message: impl Into<String>) -> BadRequest {
        BadRequest {
            code,
            message: message.into(),
        }
    }
}

fn field<'a>(doc: &'a Json, key: &'static str) -> Result<&'a Json, BadRequest> {
    doc.get(key)
        .ok_or_else(|| BadRequest::new("missing_field", format!("missing field '{key}'")))
}

fn str_field(doc: &Json, key: &'static str) -> Result<String, BadRequest> {
    field(doc, key)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| BadRequest::new("wrong_type", format!("field '{key}' must be a string")))
}

fn u64_field(doc: &Json, key: &'static str) -> Result<u64, BadRequest> {
    match field(doc, key)?.as_int() {
        Some(n) if n >= 0 => Ok(n as u64),
        _ => Err(BadRequest::new(
            "wrong_type",
            format!("field '{key}' must be a non-negative integer"),
        )),
    }
}

/// Parses one reading object into an [`Ingress`] entry.
///
/// Shape: `{"device": "...", "variable": "...", "value": <int|bool|str>,
/// "unit": "celsius"?, "at_ms": <millis since epoch>}`. Values are
/// integers (with an optional CADEL unit word), booleans, or text;
/// floats are rejected — the engine's quantities are exact rationals
/// and the wire format does not guess a denominator.
pub fn parse_reading(doc: &Json) -> Result<Ingress, BadRequest> {
    let device = str_field(doc, "device")?;
    let variable = str_field(doc, "variable")?;
    let at = SimTime::from_millis(u64_field(doc, "at_ms")?);
    let unit = match doc.get("unit") {
        None => Unit::Unitless,
        Some(u) => {
            let word = u
                .as_str()
                .ok_or_else(|| BadRequest::new("wrong_type", "field 'unit' must be a string"))?;
            Unit::from_word(word)
                .ok_or_else(|| BadRequest::new("unknown_unit", format!("unknown unit '{word}'")))?
        }
    };
    let value = match field(doc, "value")? {
        Json::Int(n) => Value::Number(Quantity::new(Rational::from_integer(*n), unit)),
        Json::Bool(b) => Value::Bool(*b),
        Json::Str(s) => Value::Text(s.clone()),
        Json::Float(_) => {
            return Err(BadRequest::new(
                "float_value",
                "float values are not accepted; send integers in the smallest unit",
            ))
        }
        _ => {
            return Err(BadRequest::new(
                "wrong_type",
                "field 'value' must be an integer, boolean or string",
            ))
        }
    };
    Ok(Ingress {
        device: DeviceId::new(device),
        variable,
        value,
        at,
    })
}

/// Parses a `POST /tenants/{t}/readings` body:
/// `{"readings": [<reading>, ...]}`.
pub fn parse_readings(doc: &Json) -> Result<Vec<Ingress>, BadRequest> {
    let items = field(doc, "readings")?
        .as_arr()
        .ok_or_else(|| BadRequest::new("wrong_type", "field 'readings' must be an array"))?;
    if items.is_empty() {
        return Err(BadRequest::new("empty_batch", "readings array is empty"));
    }
    items.iter().map(parse_reading).collect()
}

/// Parses a `POST /tenants/{t}/rules` body:
/// `{"user": "...", "sentence": "If ..."}`.
pub fn parse_rule_submit(doc: &Json) -> Result<(PersonId, String), BadRequest> {
    Ok((
        PersonId::new(str_field(doc, "user")?),
        str_field(doc, "sentence")?,
    ))
}

/// The optional `priority` of a rule submission: a ranking, highest
/// first, and a label.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PriorityRequest {
    /// Rule ids, with `None` standing for the submitted rule (`"new"`).
    pub ranking: Vec<Option<RuleId>>,
    /// The order's label, if any.
    pub label: Option<String>,
}

impl PriorityRequest {
    /// The unscoped order this request makes for the submitted rule `id`
    /// on `device`.
    pub fn order_for(&self, id: RuleId, device: DeviceId) -> PriorityOrder {
        let ranking = self.ranking.iter().map(|r| r.unwrap_or(id)).collect();
        let order = PriorityOrder::new(device, ranking);
        match &self.label {
            Some(label) => order.with_label(label.clone()),
            None => order,
        }
    }
}

/// Parses the optional `"priority": {"ranking": [...], "label": "..."}`
/// of a `POST /tenants/{t}/rules` body. A ranking entry is a rule id or
/// the string `"new"` for the submitted rule. Unknown members (a
/// `context`, say) are refused rather than ignored.
pub fn parse_priority(doc: &Json) -> Result<Option<PriorityRequest>, BadRequest> {
    let Some(priority) = doc.get("priority") else {
        return Ok(None);
    };
    let Json::Obj(members) = priority else {
        return Err(BadRequest::new(
            "wrong_type",
            "field 'priority' must be an object",
        ));
    };
    if let Some((key, _)) = members.iter().find(|(k, _)| k != "ranking" && k != "label") {
        return Err(BadRequest::new(
            "unknown_field",
            format!("unknown priority field '{key}'"),
        ));
    }
    let entries = field(priority, "ranking")?
        .as_arr()
        .ok_or_else(|| BadRequest::new("wrong_type", "field 'ranking' must be an array"))?;
    if entries.is_empty() {
        return Err(BadRequest::new("empty_ranking", "ranking array is empty"));
    }
    let ranking = entries
        .iter()
        .map(|entry| match entry {
            Json::Int(n) if *n >= 0 => Ok(Some(RuleId::new(*n as u64))),
            Json::Str(s) if s == "new" => Ok(None),
            _ => Err(BadRequest::new(
                "bad_ranking_entry",
                "a ranking entry must be a rule id or \"new\"",
            )),
        })
        .collect::<Result<_, _>>()?;
    let label = priority.get("label").map(|_| str_field(priority, "label"));
    let label = label.transpose()?;
    Ok(Some(PriorityRequest { ranking, label }))
}

/// Renders a registration outcome.
pub fn render_outcome(outcome: &SubmitOutcome) -> Json {
    match outcome {
        SubmitOutcome::Registered { id, dead_conjuncts } => Json::obj(vec![
            ("outcome", Json::str("registered")),
            ("rule", Json::Int(id.raw() as i64)),
            (
                "dead_conjuncts",
                Json::Arr(
                    dead_conjuncts
                        .iter()
                        .map(|i| Json::Int(*i as i64))
                        .collect(),
                ),
            ),
        ]),
        SubmitOutcome::RejectedInconsistent { report } => Json::obj(vec![
            ("outcome", Json::str("rejected_inconsistent")),
            ("report", Json::str(report.to_string())),
        ]),
        SubmitOutcome::ConflictDetected { conflicts, .. } => Json::obj(vec![
            ("outcome", Json::str("conflict_detected")),
            (
                "conflicts",
                Json::Arr(
                    conflicts
                        .iter()
                        .map(|c| {
                            Json::obj(vec![
                                ("with", Json::Int(c.rule_b().raw() as i64)),
                                ("detail", Json::str(c.to_string())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        SubmitOutcome::ConditionWordDefined { word } => Json::obj(vec![
            ("outcome", Json::str("condition_word_defined")),
            ("word", Json::str(word.clone())),
        ]),
        SubmitOutcome::ConfigurationWordDefined { word } => Json::obj(vec![
            ("outcome", Json::str("configuration_word_defined")),
            ("word", Json::str(word.clone())),
        ]),
        SubmitOutcome::Customized { id } => Json::obj(vec![
            ("outcome", Json::str("customized")),
            ("rule", Json::Int(id.raw() as i64)),
        ]),
        // `SubmitOutcome` is non-exhaustive: render future variants
        // opaquely rather than failing to compile against them.
        other => Json::obj(vec![
            ("outcome", Json::str("other")),
            ("detail", Json::str(format!("{other:?}"))),
        ]),
    }
}

/// Renders a conflict-graph advisory sweep:
/// `{"advisories": [{"class": "...", "rules": [..], "detail": "..."}]}`.
pub fn render_advisories(advisories: &[Advisory]) -> Json {
    Json::obj(vec![(
        "advisories",
        Json::Arr(
            advisories
                .iter()
                .map(|advisory| {
                    Json::obj(vec![
                        ("class", Json::str(advisory.class().as_str())),
                        (
                            "rules",
                            Json::Arr(
                                advisory
                                    .rules()
                                    .iter()
                                    .map(|id| Json::Int(id.raw() as i64))
                                    .collect(),
                            ),
                        ),
                        ("detail", Json::str(advisory.to_string())),
                    ])
                })
                .collect(),
        ),
    )])
}

/// Renders an ingest admission summary.
pub fn render_admissions(admissions: &[Admission], rejected: usize) -> Json {
    let mut enqueued = 0i64;
    let mut coalesced = 0i64;
    let mut after_shed = 0i64;
    for a in admissions {
        match a {
            Admission::Enqueued => enqueued += 1,
            Admission::Coalesced => coalesced += 1,
            Admission::AdmittedAfterShed => after_shed += 1,
        }
    }
    Json::obj(vec![
        ("accepted", Json::Int(enqueued + coalesced + after_shed)),
        ("enqueued", Json::Int(enqueued)),
        ("coalesced", Json::Int(coalesced)),
        ("admitted_after_shed", Json::Int(after_shed)),
        ("rejected", Json::Int(rejected as i64)),
    ])
}

/// Renders the fleet health summary.
pub fn render_fleet_health(health: &FleetHealth) -> Json {
    Json::obj(vec![
        ("healthy", Json::Int(health.healthy as i64)),
        ("quarantined", Json::Int(health.quarantined as i64)),
        ("restarting", Json::Int(health.restarting as i64)),
        ("backlog", Json::Int(health.backlog as i64)),
        ("backpressure", Json::Float(health.backpressure)),
        ("panics", Json::Int(health.panics as i64)),
        ("overruns", Json::Int(health.overruns as i64)),
        ("store_faults", Json::Int(health.store_faults as i64)),
        ("restarts", Json::Int(health.restarts as i64)),
        ("shed", Json::Int(health.shed as i64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadel_types::json::parse;

    #[test]
    fn reading_parses_units_and_values() {
        let doc = parse(
            r#"{"readings":[
                {"device":"thermo-0","variable":"temperature","value":26,"unit":"celsius","at_ms":60000},
                {"device":"door","variable":"locked","value":true,"at_ms":0},
                {"device":"tv","variable":"program","value":"news","at_ms":1}
            ]}"#,
        )
        .unwrap();
        let readings = parse_readings(&doc).unwrap();
        assert_eq!(readings.len(), 3);
        assert_eq!(readings[0].device, DeviceId::new("thermo-0"));
        assert_eq!(readings[0].at, SimTime::from_millis(60_000));
        assert!(matches!(readings[1].value, Value::Bool(true)));
        assert!(matches!(readings[2].value, Value::Text(_)));
    }

    #[test]
    fn reading_rejections_are_typed() {
        let cases = [
            (r#"{"readings":[]}"#, "empty_batch"),
            (r#"{"nope":1}"#, "missing_field"),
            (
                r#"{"readings":[{"device":"d","variable":"v","value":1.5,"at_ms":0}]}"#,
                "float_value",
            ),
            (
                r#"{"readings":[{"device":"d","variable":"v","value":1,"unit":"furlongs","at_ms":0}]}"#,
                "unknown_unit",
            ),
            (
                r#"{"readings":[{"device":"d","variable":"v","value":1,"at_ms":-4}]}"#,
                "wrong_type",
            ),
        ];
        for (body, code) in cases {
            let doc = parse(body).unwrap();
            assert_eq!(parse_readings(&doc).unwrap_err().code, code, "{body}");
        }
    }

    #[test]
    fn priority_rejections_are_typed() {
        let cases = [
            (r#"{"priority":"new"}"#, "wrong_type"),
            (r#"{"priority":{"label":"x"}}"#, "missing_field"),
            (r#"{"priority":{"ranking":{}}}"#, "wrong_type"),
            (r#"{"priority":{"ranking":[]}}"#, "empty_ranking"),
            (
                r#"{"priority":{"ranking":["new",-1]}}"#,
                "bad_ranking_entry",
            ),
            (
                r#"{"priority":{"ranking":["new",true]}}"#,
                "bad_ranking_entry",
            ),
            (
                r#"{"priority":{"ranking":["new"],"label":7}}"#,
                "wrong_type",
            ),
            (
                r#"{"priority":{"ranking":["new"],"context":"Alan is home"}}"#,
                "unknown_field",
            ),
        ];
        for (body, code) in cases {
            let doc = parse(body).unwrap();
            assert_eq!(parse_priority(&doc).unwrap_err().code, code, "{body}");
        }
    }

    #[test]
    fn priority_parses_ids_new_and_label() {
        assert_eq!(parse_priority(&parse(r#"{"user":"u"}"#).unwrap()), Ok(None));
        let doc = parse(r#"{"priority":{"ranking":["new",3],"label":"Alan first"}}"#).unwrap();
        let request = parse_priority(&doc).unwrap().expect("priority present");
        assert_eq!(request.ranking, vec![None, Some(RuleId::new(3))]);
        let order = request.order_for(RuleId::new(9), DeviceId::new("aircon"));
        assert_eq!(order.ranking(), &[RuleId::new(9), RuleId::new(3)]);
        assert_eq!(order.device(), &DeviceId::new("aircon"));
        assert_eq!(order.label(), Some("Alan first"));
        assert!(order.context().is_none());
    }
}
