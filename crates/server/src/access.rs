//! Per-user device privileges — the paper's §6 future work, implemented:
//! "we are going to implement in our framework some security mechanisms,
//! e.g., for limiting access or allowable operations to each device
//! depending on users' privileges."
//!
//! The model is a small capability ACL:
//!
//! * each user holds a set of [`Privilege`]s per device (or per device
//!   type, or a home-wide default);
//! * [`Privilege::Control`] gates registering rules whose *action*
//!   targets the device;
//! * [`Privilege::Observe`] gates referencing the device's state or
//!   sensors in rule *conditions* and browsing it through guidance;
//! * [`Privilege::Arbitrate`] gates answering priority prompts that
//!   involve the device (parents arbitrate the TV; children do not).
//!
//! Policies are deny-by-default once enabled; a fresh [`AccessControl`]
//! starts in permissive mode so existing deployments keep working until
//! an administrator turns enforcement on.

use cadel_rule::Rule;
use cadel_types::{DeviceId, PersonId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// What a user may do with a device.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Privilege {
    /// Reference the device's state/sensors in conditions and browse it.
    Observe,
    /// Target the device with rule actions.
    Control,
    /// Take part in priority decisions over the device.
    Arbitrate,
}

/// The scope a grant applies to.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Scope {
    /// One concrete device.
    Device(DeviceId),
    /// Every device of a device-type URN (e.g. all lights).
    DeviceType(String),
    /// Every device in the home.
    AllDevices,
}

impl fmt::Display for Scope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scope::Device(d) => write!(f, "device {d}"),
            Scope::DeviceType(t) => write!(f, "devices of type {t}"),
            Scope::AllDevices => f.write_str("all devices"),
        }
    }
}

/// A denial, explaining exactly what was missing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AccessDenied {
    user: PersonId,
    device: DeviceId,
    privilege: Privilege,
}

impl AccessDenied {
    /// The user that was denied.
    pub fn user(&self) -> &PersonId {
        &self.user
    }

    /// The device involved.
    pub fn device(&self) -> &DeviceId {
        &self.device
    }

    /// The missing privilege.
    pub fn privilege(&self) -> Privilege {
        self.privilege
    }
}

impl fmt::Display for AccessDenied {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "user {} lacks the {:?} privilege on device {}",
            self.user, self.privilege, self.device
        )
    }
}

impl std::error::Error for AccessDenied {}

/// The access-control policy store.
#[derive(Clone, Debug, Default)]
pub struct AccessControl {
    /// Deny-by-default only when enforcement is on.
    enforcing: bool,
    grants: BTreeMap<PersonId, BTreeMap<Scope, BTreeSet<Privilege>>>,
    /// Device-type lookup: UDN → device type URN (lower case). Populated
    /// by the server from registry descriptions.
    device_types: BTreeMap<DeviceId, String>,
}

impl AccessControl {
    /// Creates a permissive (non-enforcing) policy store.
    pub fn new() -> AccessControl {
        AccessControl::default()
    }

    /// Turns enforcement on or off. While off, every check passes.
    pub fn set_enforcing(&mut self, enforcing: bool) {
        self.enforcing = enforcing;
    }

    /// Whether enforcement is on.
    pub fn is_enforcing(&self) -> bool {
        self.enforcing
    }

    /// Registers a device's type so type-scoped grants can match it.
    pub fn register_device_type(&mut self, device: DeviceId, device_type: &str) {
        self.device_types
            .insert(device, device_type.to_ascii_lowercase());
    }

    /// Grants a privilege to a user within a scope.
    pub fn grant(&mut self, user: &PersonId, scope: Scope, privilege: Privilege) {
        self.grants
            .entry(user.clone())
            .or_default()
            .entry(scope)
            .or_default()
            .insert(privilege);
    }

    /// Grants every privilege on every device (an administrator).
    pub fn grant_all(&mut self, user: &PersonId) {
        for p in [Privilege::Observe, Privilege::Control, Privilege::Arbitrate] {
            self.grant(user, Scope::AllDevices, p);
        }
    }

    /// Revokes a privilege within a scope (no-op when absent).
    pub fn revoke(&mut self, user: &PersonId, scope: &Scope, privilege: Privilege) {
        if let Some(scopes) = self.grants.get_mut(user) {
            if let Some(privileges) = scopes.get_mut(scope) {
                privileges.remove(&privilege);
                if privileges.is_empty() {
                    scopes.remove(scope);
                }
            }
        }
    }

    /// Whether `user` holds `privilege` on `device` (always `true` while
    /// not enforcing).
    pub fn allows(&self, user: &PersonId, device: &DeviceId, privilege: Privilege) -> bool {
        if !self.enforcing {
            return true;
        }
        let Some(scopes) = self.grants.get(user) else {
            return false;
        };
        if let Some(ps) = scopes.get(&Scope::AllDevices) {
            if ps.contains(&privilege) {
                return true;
            }
        }
        if let Some(device_type) = self.device_types.get(device) {
            if let Some(ps) = scopes.get(&Scope::DeviceType(device_type.clone())) {
                if ps.contains(&privilege) {
                    return true;
                }
            }
        }
        scopes
            .get(&Scope::Device(device.clone()))
            .map(|ps| ps.contains(&privilege))
            .unwrap_or(false)
    }

    /// Checks a privilege, returning the explanatory denial on failure.
    ///
    /// # Errors
    ///
    /// Returns [`AccessDenied`] naming the user, device and privilege.
    pub fn check(
        &self,
        user: &PersonId,
        device: &DeviceId,
        privilege: Privilege,
    ) -> Result<(), AccessDenied> {
        if self.allows(user, device, privilege) {
            Ok(())
        } else {
            Err(AccessDenied {
                user: user.clone(),
                device: device.clone(),
                privilege,
            })
        }
    }

    /// Checks everything a rule registration requires of its owner:
    /// [`Privilege::Control`] on the action's device and
    /// [`Privilege::Observe`] on every device referenced by the condition.
    ///
    /// # Errors
    ///
    /// Returns the first [`AccessDenied`] encountered.
    pub fn check_rule(&self, rule: &Rule) -> Result<(), AccessDenied> {
        if !self.enforcing {
            return Ok(());
        }
        self.check(rule.owner(), rule.action().device(), Privilege::Control)?;
        let mut observed: BTreeSet<DeviceId> = BTreeSet::new();
        for atom in rule.condition().atoms() {
            if let Some(key) = atom.sensor_key() {
                observed.insert(key.device().clone());
            }
        }
        for device in observed {
            self.check(rule.owner(), &device, Privilege::Observe)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadel_rule::{ActionSpec, Atom, Condition, ConstraintAtom, Verb};
    use cadel_simplex::RelOp;
    use cadel_types::{Quantity, RuleId, SensorKey, Unit};

    fn tv() -> DeviceId {
        DeviceId::new("tv-lr")
    }

    fn sample_rule(owner: &str) -> Rule {
        Rule::builder(PersonId::new(owner))
            .condition(Condition::Atom(Atom::Constraint(ConstraintAtom::new(
                SensorKey::new(DeviceId::new("thermo-lr"), "temperature"),
                RelOp::Gt,
                Quantity::from_integer(26, Unit::Celsius),
            ))))
            .action(ActionSpec::new(tv(), Verb::TurnOn))
            .build(RuleId::new(1))
            .unwrap()
    }

    #[test]
    fn permissive_until_enforcing() {
        let acl = AccessControl::new();
        assert!(acl.allows(&PersonId::new("kid"), &tv(), Privilege::Control));
        assert!(acl.check_rule(&sample_rule("kid")).is_ok());
    }

    #[test]
    fn deny_by_default_once_enforcing() {
        let mut acl = AccessControl::new();
        acl.set_enforcing(true);
        assert!(!acl.allows(&PersonId::new("kid"), &tv(), Privilege::Control));
        let err = acl
            .check(&PersonId::new("kid"), &tv(), Privilege::Control)
            .unwrap_err();
        assert_eq!(err.privilege(), Privilege::Control);
        assert!(err.to_string().contains("kid"));
        assert!(err.to_string().contains("tv-lr"));
    }

    #[test]
    fn device_scoped_grant() {
        let mut acl = AccessControl::new();
        acl.set_enforcing(true);
        let kid = PersonId::new("kid");
        acl.grant(&kid, Scope::Device(tv()), Privilege::Observe);
        assert!(acl.allows(&kid, &tv(), Privilege::Observe));
        assert!(!acl.allows(&kid, &tv(), Privilege::Control));
        assert!(!acl.allows(&kid, &DeviceId::new("stereo-lr"), Privilege::Observe));
    }

    #[test]
    fn type_scoped_grant_covers_registered_devices() {
        let mut acl = AccessControl::new();
        acl.set_enforcing(true);
        let kid = PersonId::new("kid");
        acl.register_device_type(DeviceId::new("light-hall"), "urn:cadel:device:light:1");
        acl.register_device_type(DeviceId::new("lamp-lr"), "urn:cadel:device:light:1");
        acl.grant(
            &kid,
            Scope::DeviceType("urn:cadel:device:light:1".into()),
            Privilege::Control,
        );
        assert!(acl.allows(&kid, &DeviceId::new("light-hall"), Privilege::Control));
        assert!(acl.allows(&kid, &DeviceId::new("lamp-lr"), Privilege::Control));
        assert!(!acl.allows(&kid, &tv(), Privilege::Control));
    }

    #[test]
    fn grant_all_and_revoke() {
        let mut acl = AccessControl::new();
        acl.set_enforcing(true);
        let parent = PersonId::new("alan");
        acl.grant_all(&parent);
        assert!(acl.allows(&parent, &tv(), Privilege::Arbitrate));
        acl.revoke(&parent, &Scope::AllDevices, Privilege::Arbitrate);
        assert!(!acl.allows(&parent, &tv(), Privilege::Arbitrate));
        assert!(acl.allows(&parent, &tv(), Privilege::Control));
    }

    #[test]
    fn rule_check_requires_control_and_observe() {
        let mut acl = AccessControl::new();
        acl.set_enforcing(true);
        let kid = PersonId::new("kid");
        let rule = sample_rule("kid");
        // Control alone is not enough: the condition observes the
        // thermometer.
        acl.grant(&kid, Scope::Device(tv()), Privilege::Control);
        let err = acl.check_rule(&rule).unwrap_err();
        assert_eq!(err.device().as_str(), "thermo-lr");
        assert_eq!(err.privilege(), Privilege::Observe);
        // Observe on the thermometer completes the requirement.
        acl.grant(
            &kid,
            Scope::Device(DeviceId::new("thermo-lr")),
            Privilege::Observe,
        );
        assert!(acl.check_rule(&rule).is_ok());
    }
}
