//! Conflict-graph scenario packs: rule sets that exhibit every conflict
//! class the graph detects beyond the paper's device class.
//!
//! [`advisory_showcase`] builds a small household whose rule base
//! contains, by construction, one instance of each advisory class —
//! a device chain (tv → stereo → projector), an environmental feedback
//! loop (heater vs. air conditioner through room temperature), a
//! redundancy pair (two identical lamp rules at nested thresholds), a
//! shadowing pair (nested aircon rules with different set-points, which
//! also device-conflict and therefore need one arbitration), and the
//! cross-device environmental conflict of the loop pair. The
//! [`advisory_tenant_builder`] registers the pack in a durable tenant so
//! fleet/API tests can read the advisories over the wire.

use cadel_conflict::PriorityOrder;
use cadel_fleet::{Ingress, TenantBuilder, TenantParts, TenantWorld};
use cadel_rule::{
    ActionSpec, Atom, Condition, ConstraintAtom, PresenceAtom, Rule, StateAtom, Verb,
};
use cadel_server::{HomeServer, SubmitOutcome};
use cadel_simplex::RelOp;
use cadel_types::{DeviceId, PersonId, Quantity, RuleId, SensorKey, Topology, Unit, Value};
use cadel_upnp::{ControlPoint, Registry};
use std::sync::Arc;

/// Rule ids used by the showcase pack, by class.
pub mod showcase_ids {
    /// The chain: presence → TV → stereo → projector.
    pub const CHAIN: [u64; 3] = [1, 2, 3];
    /// The environmental feedback loop (heater / air conditioner).
    pub const LOOP: [u64; 2] = [10, 11];
    /// The redundancy pair (identical lamp rules, nested thresholds).
    pub const REDUNDANCY: [u64; 2] = [20, 21];
    /// The shadowing pair (nested aircon rules, different set-points).
    pub const SHADOWING: [u64; 2] = [30, 31];
}

fn temp(device: &str, op: RelOp, degrees: i64) -> Condition {
    Condition::Atom(Atom::Constraint(ConstraintAtom::new(
        SensorKey::new(DeviceId::new(device), "temperature"),
        op,
        Quantity::from_integer(degrees, Unit::Celsius),
    )))
}

fn powered_on(device: &str) -> Condition {
    Condition::Atom(Atom::State(StateAtom::new(
        DeviceId::new(device),
        "power",
        Value::Bool(true),
    )))
}

fn turn_on(device: &str) -> ActionSpec {
    ActionSpec::new(DeviceId::new(device), Verb::TurnOn)
}

fn rule(id: u64, owner: &PersonId, condition: Condition, action: ActionSpec) -> Rule {
    Rule::builder(owner.clone())
        .condition(condition)
        .action(action)
        .build(RuleId::new(id))
        .expect("showcase rule builds")
}

/// The showcase rule pack. Every rule registers conflict-free except the
/// last ([`showcase_ids::SHADOWING`]`[1]`), which device-conflicts with
/// its shadowing partner and must go through one arbitration — see
/// [`register_showcase`].
pub fn advisory_showcase(owner: &PersonId) -> Vec<Rule> {
    let [c1, c2, c3] = showcase_ids::CHAIN;
    let [l1, l2] = showcase_ids::LOOP;
    let [r1, r2] = showcase_ids::REDUNDANCY;
    let [s1, s2] = showcase_ids::SHADOWING;
    vec![
        // Chain: each action flips the device state the next rule reads.
        rule(
            c1,
            owner,
            Condition::Atom(Atom::Presence(PresenceAtom::person_at(
                owner.as_str(),
                "den",
            ))),
            turn_on("tv-den"),
        ),
        rule(c2, owner, powered_on("tv-den"), turn_on("stereo-den")),
        rule(
            c3,
            owner,
            powered_on("stereo-den"),
            turn_on("projector-den"),
        ),
        // Loop + environmental: the heater drives temperature up into the
        // aircon's trigger band and vice versa; the bands overlap
        // (18 < t < 22), so the fight is live.
        rule(
            l1,
            owner,
            temp("thermo-den", RelOp::Lt, 22),
            turn_on("heater-den"),
        ),
        rule(
            l2,
            owner,
            temp("thermo-den", RelOp::Gt, 18),
            turn_on("aircon-den"),
        ),
        // Redundancy: identical actions, nested conditions — the tighter
        // rule never does anything the looser one would not.
        rule(
            r1,
            owner,
            temp("thermo-den", RelOp::Gt, 30),
            turn_on("floorlamp-den"),
        ),
        rule(
            r2,
            owner,
            temp("thermo-den", RelOp::Gt, 25),
            turn_on("floorlamp-den"),
        ),
        // Shadowing: nested conditions with *conflicting* set-points on a
        // separate aircon — whenever the tight rule fires, the loose one
        // fires too and they disagree.
        rule(
            s1,
            owner,
            temp("thermo-hall", RelOp::Gt, 30),
            turn_on("aircon-hall")
                .with_setting("temperature", Quantity::from_integer(25, Unit::Celsius)),
        ),
        rule(
            s2,
            owner,
            temp("thermo-hall", RelOp::Gt, 25),
            turn_on("aircon-hall")
                .with_setting("temperature", Quantity::from_integer(22, Unit::Celsius)),
        ),
    ]
}

/// Registers the showcase pack on a server, settling the one expected
/// device conflict (the shadowing pair) through the priority dialog.
///
/// # Errors
///
/// Returns the server's error when registration fails outright.
///
/// # Panics
///
/// Panics when a rule that should register cleanly conflicts (the pack's
/// invariant broke).
pub fn register_showcase(
    server: &mut HomeServer,
    owner: &PersonId,
) -> Result<(), cadel_server::ServerError> {
    for rule in advisory_showcase(owner) {
        let id = rule.id();
        match server.register_rule(rule)? {
            SubmitOutcome::Registered { .. } => {}
            SubmitOutcome::ConflictDetected { rule, conflicts } => {
                assert_eq!(
                    id.raw(),
                    showcase_ids::SHADOWING[1],
                    "only the shadowing pair should device-conflict"
                );
                let loser = conflicts[0].rule_b();
                let order = PriorityOrder::new(rule.action().device().clone(), vec![id, loser]);
                server.arbitrate(owner, *rule, order)?;
            }
            other => panic!("showcase rule {id} failed to register: {other:?}"),
        }
    }
    Ok(())
}

/// A tenant world that drops every reading: the showcase pack is about
/// static rule-base analysis, not sensor traffic.
struct InertWorld;

impl TenantWorld for InertWorld {
    fn deliver(&mut self, _ingress: &Ingress) {}
}

/// A [`TenantBuilder`] whose tenant carries the showcase pack: a durable
/// server with the advisory rules registered (and the shadowing pair
/// arbitrated) on first boot, recovered from the WAL afterwards.
pub fn advisory_tenant_builder() -> TenantBuilder {
    Arc::new(move |dir| {
        let registry = Registry::new();
        let mut topology = Topology::new("showcase");
        topology.add_floor("ground").expect("fresh topology");
        topology.add_room("den", "ground").expect("fresh topology");
        let (mut server, report) = HomeServer::open_at(ControlPoint::new(registry), topology, dir)?;
        if report.records_replayed == 0 && !report.snapshot_used {
            server.add_user("Resident")?;
            register_showcase(&mut server, &PersonId::new("resident"))?;
        }
        Ok(TenantParts {
            server,
            report,
            world: Box::new(InertWorld),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadel_conflict::ConflictClass;

    #[test]
    fn showcase_produces_every_advisory_class() {
        let registry = Registry::new();
        let mut topology = Topology::new("t");
        topology.add_floor("ground").unwrap();
        let mut server = HomeServer::new(ControlPoint::new(registry), topology);
        server.add_user("Resident").unwrap();
        register_showcase(&mut server, &PersonId::new("resident")).unwrap();
        assert_eq!(server.engine().rules().len(), 9);
        assert_eq!(server.engine().priorities().orders().len(), 1);

        let advisories = server.conflict_advisories().unwrap();
        for class in [
            ConflictClass::Chain,
            ConflictClass::Loop,
            ConflictClass::Redundancy,
            ConflictClass::Shadowing,
            ConflictClass::Environmental,
        ] {
            assert!(
                advisories.iter().any(|a| a.class() == class),
                "missing {class} advisory in {advisories:?}"
            );
        }
    }
}
