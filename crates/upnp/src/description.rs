//! Device and service description documents.
//!
//! Mirrors the information UPnP exposes through its XML description
//! documents — friendly name, device type URN, services with action
//! signatures and state variable tables — as plain Rust data. The
//! guidance/lookup service of the home server (paper §4.3) is built on
//! these descriptions: retrieving devices by name, type, service, or
//! location, and showing users "what actions are allowed in the device".

use cadel_types::{DeviceId, PlaceId, Rational, ServiceId, Unit, Value, ValueKind};
use std::fmt;

/// Direction of an action argument.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Supplied by the caller.
    In,
    /// Returned by the device.
    Out,
}

/// One argument of an action signature.
#[derive(Clone, Debug, PartialEq)]
pub struct ArgSpec {
    name: String,
    direction: Direction,
    kind: ValueKind,
}

impl ArgSpec {
    /// Creates an input argument.
    pub fn input(name: impl Into<String>, kind: ValueKind) -> ArgSpec {
        ArgSpec {
            name: name.into(),
            direction: Direction::In,
            kind,
        }
    }

    /// Creates an output argument.
    pub fn output(name: impl Into<String>, kind: ValueKind) -> ArgSpec {
        ArgSpec {
            name: name.into(),
            direction: Direction::Out,
            kind,
        }
    }

    /// The argument name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The direction.
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// The expected value kind.
    pub fn kind(&self) -> ValueKind {
        self.kind
    }
}

/// The signature of an invocable action.
#[derive(Clone, Debug, PartialEq)]
pub struct ActionSignature {
    name: String,
    args: Vec<ArgSpec>,
}

impl ActionSignature {
    /// Creates an action with no arguments.
    pub fn new(name: impl Into<String>) -> ActionSignature {
        ActionSignature {
            name: name.into(),
            args: Vec::new(),
        }
    }

    /// Adds an argument (builder style).
    #[must_use]
    pub fn with_arg(mut self, arg: ArgSpec) -> ActionSignature {
        self.args.push(arg);
        self
    }

    /// The action name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The argument specs.
    pub fn args(&self) -> &[ArgSpec] {
        &self.args
    }

    /// The input argument with the given name.
    pub fn input(&self, name: &str) -> Option<&ArgSpec> {
        self.args
            .iter()
            .find(|a| a.direction == Direction::In && a.name.eq_ignore_ascii_case(name))
    }
}

/// A state variable exposed by a service.
#[derive(Clone, Debug, PartialEq)]
pub struct StateVariableSpec {
    name: String,
    kind: ValueKind,
    unit: Option<Unit>,
    range: Option<(Rational, Rational)>,
    allowed_values: Vec<String>,
    evented: bool,
    default: Option<Value>,
}

impl StateVariableSpec {
    /// Creates a state variable of the given kind.
    pub fn new(name: impl Into<String>, kind: ValueKind) -> StateVariableSpec {
        StateVariableSpec {
            name: name.into(),
            kind,
            unit: None,
            range: None,
            allowed_values: Vec::new(),
            evented: true,
            default: None,
        }
    }

    /// Sets the physical unit (builder style).
    #[must_use]
    pub fn with_unit(mut self, unit: Unit) -> StateVariableSpec {
        self.unit = Some(unit);
        self
    }

    /// Restricts numeric values to `[min, max]`.
    #[must_use]
    pub fn with_range(mut self, min: Rational, max: Rational) -> StateVariableSpec {
        self.range = Some((min, max));
        self
    }

    /// Restricts text values to a list.
    #[must_use]
    pub fn with_allowed_values(
        mut self,
        values: impl IntoIterator<Item = impl Into<String>>,
    ) -> StateVariableSpec {
        self.allowed_values = values.into_iter().map(Into::into).collect();
        self
    }

    /// Marks the variable as non-evented (no change notifications).
    #[must_use]
    pub fn non_evented(mut self) -> StateVariableSpec {
        self.evented = false;
        self
    }

    /// Sets the initial/default value.
    #[must_use]
    pub fn with_default(mut self, value: Value) -> StateVariableSpec {
        self.default = Some(value);
        self
    }

    /// The variable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The value kind.
    pub fn kind(&self) -> ValueKind {
        self.kind
    }

    /// The unit, if declared.
    pub fn unit(&self) -> Option<Unit> {
        self.unit
    }

    /// The allowed numeric range, if declared.
    pub fn range(&self) -> Option<(Rational, Rational)> {
        self.range
    }

    /// The allowed text values, if restricted.
    pub fn allowed_values(&self) -> &[String] {
        &self.allowed_values
    }

    /// Whether value changes are published as events.
    pub fn is_evented(&self) -> bool {
        self.evented
    }

    /// The default value, if declared.
    pub fn default(&self) -> Option<&Value> {
        self.default.as_ref()
    }

    /// Validates a candidate value against kind, range and value list.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when the value is not acceptable.
    pub fn validate(&self, value: &Value) -> Result<(), String> {
        if value.kind() != self.kind {
            return Err(format!("expected {:?}, got {:?}", self.kind, value.kind()));
        }
        if let (Some((min, max)), Value::Number(q)) = (&self.range, value) {
            let v = q.canonical_value();
            if v < *min || v > *max {
                return Err(format!("{q} outside [{min}, {max}]"));
            }
        }
        if !self.allowed_values.is_empty() {
            if let Value::Text(t) = value {
                if !self
                    .allowed_values
                    .iter()
                    .any(|a| a.eq_ignore_ascii_case(t))
                {
                    return Err(format!("{t:?} not in allowed value list"));
                }
            }
        }
        Ok(())
    }
}

/// A service hosted by a device: a typed bundle of actions and state
/// variables.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceDescription {
    service_id: ServiceId,
    service_type: String,
    actions: Vec<ActionSignature>,
    state_variables: Vec<StateVariableSpec>,
}

impl ServiceDescription {
    /// Creates a service of the given type URN
    /// (e.g. `urn:cadel:service:thermostat:1`).
    pub fn new(service_id: impl Into<ServiceId>, service_type: impl Into<String>) -> Self {
        ServiceDescription {
            service_id: service_id.into(),
            service_type: service_type.into(),
            actions: Vec::new(),
            state_variables: Vec::new(),
        }
    }

    /// Adds an action (builder style).
    #[must_use]
    pub fn with_action(mut self, action: ActionSignature) -> Self {
        self.actions.push(action);
        self
    }

    /// Adds a state variable (builder style).
    #[must_use]
    pub fn with_variable(mut self, var: StateVariableSpec) -> Self {
        self.state_variables.push(var);
        self
    }

    /// The service id.
    pub fn service_id(&self) -> &ServiceId {
        &self.service_id
    }

    /// The service type URN.
    pub fn service_type(&self) -> &str {
        &self.service_type
    }

    /// The action signatures.
    pub fn actions(&self) -> &[ActionSignature] {
        &self.actions
    }

    /// The state variable table.
    pub fn state_variables(&self) -> &[StateVariableSpec] {
        &self.state_variables
    }

    /// Looks up an action by name, case-insensitive.
    pub fn action(&self, name: &str) -> Option<&ActionSignature> {
        self.actions
            .iter()
            .find(|a| a.name.eq_ignore_ascii_case(name))
    }

    /// Looks up a state variable by name, case-insensitive.
    pub fn state_variable(&self, name: &str) -> Option<&StateVariableSpec> {
        self.state_variables
            .iter()
            .find(|v| v.name.eq_ignore_ascii_case(name))
    }
}

/// A root device description document.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceDescription {
    udn: DeviceId,
    friendly_name: String,
    device_type: String,
    manufacturer: String,
    location: Option<PlaceId>,
    keywords: Vec<String>,
    services: Vec<ServiceDescription>,
}

impl DeviceDescription {
    /// Creates a description for a device with the given unique device
    /// name (UDN), friendly name and device type URN.
    pub fn new(
        udn: impl Into<DeviceId>,
        friendly_name: impl Into<String>,
        device_type: impl Into<String>,
    ) -> DeviceDescription {
        DeviceDescription {
            udn: udn.into(),
            friendly_name: friendly_name.into(),
            device_type: device_type.into(),
            manufacturer: "CADEL virtual devices".to_owned(),
            location: None,
            keywords: Vec::new(),
            services: Vec::new(),
        }
    }

    /// Sets the physical location (builder style).
    #[must_use]
    pub fn at(mut self, place: impl Into<PlaceId>) -> DeviceDescription {
        self.location = Some(place.into());
        self
    }

    /// Sets the manufacturer string.
    #[must_use]
    pub fn by(mut self, manufacturer: impl Into<String>) -> DeviceDescription {
        self.manufacturer = manufacturer.into();
        self
    }

    /// Adds retrieval keywords ("temperature", "cooling", …) used by the
    /// guidance lookup (paper Fig. 5: retrieval by keyword).
    #[must_use]
    pub fn with_keywords(
        mut self,
        keywords: impl IntoIterator<Item = impl Into<String>>,
    ) -> DeviceDescription {
        self.keywords
            .extend(keywords.into_iter().map(|k| k.into().to_ascii_lowercase()));
        self
    }

    /// Adds a service (builder style).
    #[must_use]
    pub fn with_service(mut self, service: ServiceDescription) -> DeviceDescription {
        self.services.push(service);
        self
    }

    /// The unique device name.
    pub fn udn(&self) -> &DeviceId {
        &self.udn
    }

    /// The human-readable name users retrieve the device by.
    pub fn friendly_name(&self) -> &str {
        &self.friendly_name
    }

    /// The device type URN.
    pub fn device_type(&self) -> &str {
        &self.device_type
    }

    /// The manufacturer string.
    pub fn manufacturer(&self) -> &str {
        &self.manufacturer
    }

    /// Where the device is installed, when known.
    pub fn location(&self) -> Option<&PlaceId> {
        self.location.as_ref()
    }

    /// Retrieval keywords.
    pub fn keywords(&self) -> &[String] {
        &self.keywords
    }

    /// The hosted services.
    pub fn services(&self) -> &[ServiceDescription] {
        &self.services
    }

    /// Finds the service declaring a state variable, with the variable.
    pub fn find_variable(&self, name: &str) -> Option<(&ServiceDescription, &StateVariableSpec)> {
        self.services
            .iter()
            .find_map(|s| s.state_variable(name).map(|v| (s, v)))
    }

    /// Finds the service offering an action, with the signature.
    pub fn find_action(&self, name: &str) -> Option<(&ServiceDescription, &ActionSignature)> {
        self.services
            .iter()
            .find_map(|s| s.action(name).map(|a| (s, a)))
    }

    /// All action names across services (what the guidance UI lists in
    /// Fig. 6's "allowed actions" panel).
    pub fn action_names(&self) -> Vec<&str> {
        self.services
            .iter()
            .flat_map(|s| s.actions.iter().map(|a| a.name.as_str()))
            .collect()
    }
}

impl fmt::Display for DeviceDescription {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.friendly_name, self.udn)?;
        if let Some(loc) = &self.location {
            write!(f, " at {loc}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadel_types::Quantity;

    fn thermostat_description() -> DeviceDescription {
        DeviceDescription::new("aircon-1", "Air Conditioner", "urn:cadel:device:aircon:1")
            .at("living room")
            .with_keywords(["temperature", "cooling", "humidity"])
            .with_service(
                ServiceDescription::new("svc-thermo", "urn:cadel:service:thermostat:1")
                    .with_action(ActionSignature::new("TurnOn"))
                    .with_action(
                        ActionSignature::new("SetTemperature")
                            .with_arg(ArgSpec::input("temperature", ValueKind::Number)),
                    )
                    .with_variable(
                        StateVariableSpec::new("setpoint", ValueKind::Number)
                            .with_unit(Unit::Celsius)
                            .with_range(Rational::from_integer(16), Rational::from_integer(32)),
                    )
                    .with_variable(
                        StateVariableSpec::new("mode", ValueKind::Text).with_allowed_values([
                            "cool",
                            "heat",
                            "dehumidify",
                        ]),
                    ),
            )
    }

    #[test]
    fn lookup_paths() {
        let d = thermostat_description();
        assert_eq!(d.friendly_name(), "Air Conditioner");
        assert!(d.find_action("turnon").is_some()); // case-insensitive
        assert!(d.find_action("Explode").is_none());
        let (_, var) = d.find_variable("setpoint").unwrap();
        assert_eq!(var.unit(), Some(Unit::Celsius));
        assert_eq!(d.action_names().len(), 2);
        assert_eq!(d.location().unwrap().as_str(), "living room");
    }

    #[test]
    fn variable_validation_kind() {
        let d = thermostat_description();
        let (_, var) = d.find_variable("setpoint").unwrap();
        assert!(var.validate(&Value::Bool(true)).is_err());
        assert!(var
            .validate(&Value::Number(Quantity::from_integer(25, Unit::Celsius)))
            .is_ok());
    }

    #[test]
    fn variable_validation_range() {
        let d = thermostat_description();
        let (_, var) = d.find_variable("setpoint").unwrap();
        let too_hot = Value::Number(Quantity::from_integer(40, Unit::Celsius));
        assert!(var.validate(&too_hot).is_err());
        // Range checks happen in canonical units: 77°F = 25°C is fine.
        let f = Value::Number(Quantity::from_integer(77, Unit::Fahrenheit));
        assert!(var.validate(&f).is_ok());
    }

    #[test]
    fn variable_validation_allowed_values() {
        let d = thermostat_description();
        let (_, var) = d.find_variable("mode").unwrap();
        assert!(var.validate(&Value::from("COOL")).is_ok());
        assert!(var.validate(&Value::from("party")).is_err());
    }

    #[test]
    fn keywords_are_lowercased() {
        let d = thermostat_description();
        assert!(d.keywords().contains(&"cooling".to_owned()));
    }

    #[test]
    fn action_signature_inputs() {
        let d = thermostat_description();
        let (_, action) = d.find_action("SetTemperature").unwrap();
        assert!(action.input("TEMPERATURE").is_some());
        assert!(action.input("mystery").is_none());
        assert_eq!(action.args()[0].direction(), Direction::In);
    }
}
