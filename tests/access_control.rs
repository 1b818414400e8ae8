//! Integration test for the access-control extension (the paper's §6
//! future work): per-user observe/control/arbitrate privileges enforced
//! through the registration workflow.

use cadel::devices::LivingRoomHome;
use cadel::rule::{ActionSpec, Rule, Verb};
use cadel::server::{HomeServer, PriorityOrder, Privilege, Scope, ServerError, SubmitOutcome};
use cadel::types::{DeviceId, PersonId, RuleId, Topology};
use cadel::upnp::{ControlPoint, Registry};

fn setup() -> (HomeServer, LivingRoomHome) {
    let registry = Registry::new();
    let home = LivingRoomHome::install(&registry);
    let mut topology = Topology::new("home");
    topology.add_floor("first floor").unwrap();
    topology.add_room("living room", "first floor").unwrap();
    topology.add_room("hall", "first floor").unwrap();
    let mut server = HomeServer::new(ControlPoint::new(registry), topology);
    for name in ["alan", "kid"] {
        server.add_user(name).unwrap();
    }
    (server, home)
}

const KID_TV_RULE: &str = "When a movie is on air, turn on the TV.";

#[test]
fn enforcement_off_everything_passes() {
    let (mut server, _home) = setup();
    let kid = PersonId::new("kid");
    assert!(matches!(
        server.submit(&kid, KID_TV_RULE).unwrap(),
        SubmitOutcome::Registered { .. }
    ));
}

#[test]
fn kid_cannot_control_tv_until_granted() {
    let (mut server, _home) = setup();
    let kid = PersonId::new("kid");
    server.access_mut().set_enforcing(true);
    // Observe the EPG is also needed; deny everything first.
    let err = server.submit(&kid, KID_TV_RULE).unwrap_err();
    match err {
        ServerError::AccessDenied(d) => {
            assert_eq!(d.user().as_str(), "kid");
            assert_eq!(d.privilege(), Privilege::Control);
            assert_eq!(d.device().as_str(), "tv-lr");
        }
        other => panic!("expected denial, got {other:?}"),
    }
    assert_eq!(server.engine().rules().len(), 0);

    // A device-scoped grant unlocks exactly the TV.
    server.access_mut().grant(
        &kid,
        Scope::Device(DeviceId::new("tv-lr")),
        Privilege::Control,
    );
    assert!(matches!(
        server.submit(&kid, KID_TV_RULE).unwrap(),
        SubmitOutcome::Registered { .. }
    ));
    // But not the alarm.
    let err = server
        .submit(&kid, "When a movie is on air, turn on the alarm.")
        .unwrap_err();
    assert!(matches!(err, ServerError::AccessDenied(_)));
}

#[test]
fn conditions_require_observe_on_referenced_devices() {
    let (mut server, _home) = setup();
    let kid = PersonId::new("kid");
    server.access_mut().set_enforcing(true);
    server.access_mut().grant(
        &kid,
        Scope::Device(DeviceId::new("fan-x")),
        Privilege::Control,
    );
    server.access_mut().grant(
        &kid,
        Scope::Device(DeviceId::new("tv-lr")),
        Privilege::Control,
    );
    // "the TV is turned on" observes the TV's power state — allowed only
    // with Observe, which Control does not imply.
    let err = server
        .submit(&kid, "If the TV is turned on, turn on the TV.")
        .unwrap_err();
    match err {
        ServerError::AccessDenied(d) => assert_eq!(d.privilege(), Privilege::Observe),
        other => panic!("expected observe denial, got {other:?}"),
    }
    server.access_mut().grant(
        &kid,
        Scope::Device(DeviceId::new("tv-lr")),
        Privilege::Observe,
    );
    assert!(server
        .submit(&kid, "If the TV is turned on, turn on the TV.")
        .is_ok());
}

#[test]
fn type_scoped_grant_covers_all_lights() {
    let (mut server, _home) = setup();
    let kid = PersonId::new("kid");
    server.access_mut().set_enforcing(true);
    server.access_mut().grant(
        &kid,
        Scope::DeviceType("urn:cadel:device:light:1".into()),
        Privilege::Control,
    );
    // Any light works…
    assert!(server
        .submit(
            &kid,
            "When a movie is on air, turn on the light at the hall."
        )
        .is_ok());
    assert!(server
        .submit(&kid, "When a movie is on air, dim the floor lamp.")
        .is_ok());
    // …the TV does not.
    assert!(matches!(
        server.submit(&kid, KID_TV_RULE),
        Err(ServerError::AccessDenied(_))
    ));
}

#[test]
fn arbitration_requires_the_privilege() {
    let (mut server, _home) = setup();
    let alan = PersonId::new("alan");
    let kid = PersonId::new("kid");
    server.access_mut().grant_all(&alan);
    server.access_mut().grant(
        &kid,
        Scope::Device(DeviceId::new("tv-lr")),
        Privilege::Control,
    );
    server
        .access_mut()
        .grant(&kid, Scope::AllDevices, Privilege::Observe);
    server.access_mut().set_enforcing(true);

    // Two conflicting TV rules.
    let alan_id = registered(
        server
            .submit(&alan, "When a movie is on air, turn on the TV.")
            .unwrap(),
    );
    let rule = match server
        .submit(&kid, "When a movie is on air, turn off the TV.")
        .unwrap()
    {
        SubmitOutcome::ConflictDetected { rule, .. } => rule,
        other => panic!("expected conflict, got {other:?}"),
    };
    let order = PriorityOrder::new(DeviceId::new("tv-lr"), vec![rule.id(), alan_id]);

    // The kid may not answer the priority prompt…
    let err = server
        .arbitrate(&kid, (*rule).clone(), order.clone())
        .unwrap_err();
    assert!(matches!(err, ServerError::AccessDenied(_)));
    assert_eq!(server.engine().rules().len(), 1);
    // …but Alan may.
    registered(server.arbitrate(&alan, *rule, order).unwrap());
    assert_eq!(server.engine().rules().len(), 2);
}

fn registered(outcome: SubmitOutcome) -> RuleId {
    match outcome {
        SubmitOutcome::Registered { id, .. } => id,
        other => panic!("expected a registration, got {other:?}"),
    }
}

#[test]
fn customize_is_checked_like_a_submission() {
    let (mut server, _home) = setup();
    let kid = PersonId::new("kid");
    server.access_mut().set_enforcing(true);
    server.access_mut().grant(
        &kid,
        Scope::Device(DeviceId::new("tv-lr")),
        Privilege::Control,
    );
    let id = registered(server.submit(&kid, KID_TV_RULE).unwrap());
    let alarm_rule = "When a movie is on air, turn on the alarm.";
    assert!(matches!(
        server.submit(&kid, alarm_rule),
        Err(ServerError::AccessDenied(_))
    ));

    // Retargeting the registered TV rule to the alarm is the same
    // request, and gets the same answer.
    let tv_rule = server.engine().rules().get(id).unwrap().clone();
    let retargeted = Rule::builder(kid.clone())
        .condition(tv_rule.condition().clone())
        .action(ActionSpec::new(DeviceId::new("alarm-hall"), Verb::TurnOn))
        .build(id)
        .unwrap();
    let err = server.customize_rule(retargeted).unwrap_err();
    match err {
        ServerError::AccessDenied(d) => {
            assert_eq!(d.device().as_str(), "alarm-hall");
            assert_eq!(d.privilege(), Privilege::Control);
        }
        other => panic!("expected denial, got {other:?}"),
    }
    assert_eq!(server.engine().rules().get(id), Some(&tv_rule));
    // A toggle of a rule the kid may still register passes.
    assert!(matches!(
        server.set_rule_enabled(id, false).unwrap(),
        SubmitOutcome::Customized { .. }
    ));
}
