//! The device registry: registration and the indexed lookups behind
//! SSDP search and the guidance service.
//!
//! Experiment E1 of the paper measures "the time for retrieving a
//! specified device by its device name" (and by service name) over 50
//! virtual UPnP devices. Those retrievals are [`Registry::find_by_name`]
//! and [`Registry::find_by_service_type`] here, backed by hash indexes
//! that are maintained on (un)registration. The rule compiler resolves a
//! sensor reference ("temperature") through the same kind of index,
//! [`Registry::find_by_variable`].

use crate::description::DeviceDescription;
use crate::device::VirtualDevice;
use crate::error::UpnpError;
use crate::event::EventBus;
use cadel_types::{DeviceId, PlaceId, SensorKey};
use std::collections::HashMap;
use std::sync::Arc;
use std::sync::RwLock;

#[derive(Default)]
struct RegistryInner {
    devices: HashMap<DeviceId, Arc<dyn VirtualDevice>>,
    descriptions: HashMap<DeviceId, DeviceDescription>,
    by_name: HashMap<String, Vec<DeviceId>>,
    by_device_type: HashMap<String, Vec<DeviceId>>,
    by_service_type: HashMap<String, Vec<DeviceId>>,
    by_location: HashMap<PlaceId, Vec<DeviceId>>,
    by_keyword: HashMap<String, Vec<DeviceId>>,
    /// Lowercased state-variable name → the devices exposing it.
    by_variable: HashMap<String, Vec<DeviceId>>,
}

/// The shared registry of live virtual devices.
///
/// Cloning is cheap (it is an `Arc` handle). All lookups are
/// case-insensitive on names, types and keywords.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<RwLock<RegistryInner>>,
    bus: EventBus,
}

impl Registry {
    /// Creates an empty registry with its own event bus.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The event bus devices registered here publish on.
    pub fn event_bus(&self) -> &EventBus {
        &self.bus
    }

    /// Registers a device: caches its description, indexes it, and hands
    /// it an event publisher.
    ///
    /// # Errors
    ///
    /// Returns [`UpnpError::DuplicateDevice`] when the UDN is taken.
    pub fn register(&self, device: Arc<dyn VirtualDevice>) -> Result<DeviceId, UpnpError> {
        let description = device.description();
        let udn = description.udn().clone();
        let mut inner = self.inner.write().unwrap();
        if inner.devices.contains_key(&udn) {
            return Err(UpnpError::DuplicateDevice(udn));
        }
        inner
            .by_name
            .entry(description.friendly_name().to_ascii_lowercase())
            .or_default()
            .push(udn.clone());
        inner
            .by_device_type
            .entry(description.device_type().to_ascii_lowercase())
            .or_default()
            .push(udn.clone());
        for service in description.services() {
            inner
                .by_service_type
                .entry(service.service_type().to_ascii_lowercase())
                .or_default()
                .push(udn.clone());
        }
        if let Some(place) = description.location() {
            inner
                .by_location
                .entry(place.clone())
                .or_default()
                .push(udn.clone());
        }
        for keyword in description.keywords() {
            inner
                .by_keyword
                .entry(keyword.clone())
                .or_default()
                .push(udn.clone());
        }
        for variable in description
            .services()
            .iter()
            .flat_map(|s| s.state_variables())
        {
            let devices = inner
                .by_variable
                .entry(variable.name().to_ascii_lowercase())
                .or_default();
            if devices.last() != Some(&udn) {
                devices.push(udn.clone());
            }
        }
        inner.descriptions.insert(udn.clone(), description);
        inner.devices.insert(udn.clone(), device.clone());
        drop(inner);
        device.attach(self.bus.publisher(udn.clone()));
        Ok(udn)
    }

    /// Unregisters a device and removes it from every index.
    ///
    /// # Errors
    ///
    /// Returns [`UpnpError::UnknownDevice`] for unknown UDNs.
    pub fn unregister(&self, udn: &DeviceId) -> Result<(), UpnpError> {
        let mut inner = self.inner.write().unwrap();
        let description = inner
            .descriptions
            .remove(udn)
            .ok_or_else(|| UpnpError::UnknownDevice(udn.clone()))?;
        inner.devices.remove(udn);
        let prune = |map: &mut HashMap<String, Vec<DeviceId>>, key: &str| {
            if let Some(v) = map.get_mut(key) {
                v.retain(|d| d != udn);
                if v.is_empty() {
                    map.remove(key);
                }
            }
        };
        prune(
            &mut inner.by_name,
            &description.friendly_name().to_ascii_lowercase(),
        );
        prune(
            &mut inner.by_device_type,
            &description.device_type().to_ascii_lowercase(),
        );
        for service in description.services() {
            prune(
                &mut inner.by_service_type,
                &service.service_type().to_ascii_lowercase(),
            );
        }
        for keyword in description.keywords() {
            prune(&mut inner.by_keyword, keyword);
        }
        for variable in description
            .services()
            .iter()
            .flat_map(|s| s.state_variables())
        {
            prune(
                &mut inner.by_variable,
                &variable.name().to_ascii_lowercase(),
            );
        }
        if let Some(place) = description.location() {
            if let Some(v) = inner.by_location.get_mut(place) {
                v.retain(|d| d != udn);
                if v.is_empty() {
                    inner.by_location.remove(place);
                }
            }
        }
        Ok(())
    }

    /// Number of registered devices.
    pub fn len(&self) -> usize {
        self.inner.read().unwrap().devices.len()
    }

    /// Whether no device is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The live device handle for a UDN.
    ///
    /// # Errors
    ///
    /// Returns [`UpnpError::UnknownDevice`] for unknown UDNs.
    pub fn device(&self, udn: &DeviceId) -> Result<Arc<dyn VirtualDevice>, UpnpError> {
        self.inner
            .read()
            .unwrap()
            .devices
            .get(udn)
            .cloned()
            .ok_or_else(|| UpnpError::UnknownDevice(udn.clone()))
    }

    /// The cached description for a UDN.
    ///
    /// # Errors
    ///
    /// Returns [`UpnpError::UnknownDevice`] for unknown UDNs.
    pub fn description(&self, udn: &DeviceId) -> Result<DeviceDescription, UpnpError> {
        self.inner
            .read()
            .unwrap()
            .descriptions
            .get(udn)
            .cloned()
            .ok_or_else(|| UpnpError::UnknownDevice(udn.clone()))
    }

    /// The installed location of a device, without cloning its
    /// description; `None` for an unknown device or one with no location.
    pub fn location(&self, udn: &DeviceId) -> Option<PlaceId> {
        self.inner
            .read()
            .expect("registry lock poisoned")
            .descriptions
            .get(udn)
            .and_then(|d| d.location().cloned())
    }

    /// All descriptions, unordered.
    pub fn descriptions(&self) -> Vec<DeviceDescription> {
        self.inner
            .read()
            .unwrap()
            .descriptions
            .values()
            .cloned()
            .collect()
    }

    /// Retrieval **by device (friendly) name** — E1's first timed lookup.
    pub fn find_by_name(&self, name: &str) -> Vec<DeviceId> {
        self.inner
            .read()
            .unwrap()
            .by_name
            .get(&name.to_ascii_lowercase())
            .cloned()
            .unwrap_or_default()
    }

    /// Retrieval by device type URN.
    pub fn find_by_device_type(&self, device_type: &str) -> Vec<DeviceId> {
        self.inner
            .read()
            .unwrap()
            .by_device_type
            .get(&device_type.to_ascii_lowercase())
            .cloned()
            .unwrap_or_default()
    }

    /// Retrieval **by service type/name** — E1's second timed lookup.
    pub fn find_by_service_type(&self, service_type: &str) -> Vec<DeviceId> {
        self.inner
            .read()
            .unwrap()
            .by_service_type
            .get(&service_type.to_ascii_lowercase())
            .cloned()
            .unwrap_or_default()
    }

    /// Retrieval by installed location.
    pub fn find_by_location(&self, place: &PlaceId) -> Vec<DeviceId> {
        self.inner
            .read()
            .unwrap()
            .by_location
            .get(place)
            .cloned()
            .unwrap_or_default()
    }

    /// Retrieval **by state-variable name**, case-insensitive: each device
    /// exposing the variable, in registration order, keyed by the name
    /// [`DeviceDescription::find_variable`] answers with (the first match
    /// in service order).
    pub fn find_by_variable(&self, name: &str) -> Vec<SensorKey> {
        let inner = self.inner.read().expect("registry lock poisoned");
        let Some(devices) = inner.by_variable.get(&name.to_ascii_lowercase()) else {
            return Vec::new();
        };
        devices
            .iter()
            .filter_map(|udn| {
                let (_, variable) = inner.descriptions.get(udn)?.find_variable(name)?;
                Some(SensorKey::new(udn.clone(), variable.name()))
            })
            .collect()
    }

    /// Retrieval by keyword (paper Fig. 5: retrieval item (1)).
    pub fn find_by_keyword(&self, keyword: &str) -> Vec<DeviceId> {
        self.inner
            .read()
            .unwrap()
            .by_keyword
            .get(&keyword.to_ascii_lowercase())
            .cloned()
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::description::{ServiceDescription, StateVariableSpec};
    use cadel_types::{SimTime, Value, ValueKind};

    /// A minimal test device.
    struct Probe {
        description: DeviceDescription,
    }

    impl Probe {
        fn new(udn: &str, name: &str, place: Option<&str>) -> Arc<Probe> {
            let mut d = DeviceDescription::new(udn, name, "urn:cadel:device:probe:1")
                .with_keywords(["testing"])
                .with_service(
                    ServiceDescription::new(format!("{udn}-svc"), "urn:cadel:service:probe:1")
                        .with_variable(StateVariableSpec::new("value", ValueKind::Bool)),
                );
            if let Some(p) = place {
                d = d.at(p);
            }
            Arc::new(Probe { description: d })
        }
    }

    impl VirtualDevice for Probe {
        fn description(&self) -> DeviceDescription {
            self.description.clone()
        }

        fn invoke(
            &self,
            action: &str,
            _args: &[(String, Value)],
            _at: SimTime,
        ) -> Result<Vec<(String, Value)>, UpnpError> {
            Err(UpnpError::UnknownAction {
                device: self.description.udn().clone(),
                action: action.to_owned(),
            })
        }

        fn query(&self, variable: &str) -> Result<Value, UpnpError> {
            if variable == "value" {
                Ok(Value::Bool(true))
            } else {
                Err(UpnpError::UnknownVariable {
                    device: self.description.udn().clone(),
                    variable: variable.to_owned(),
                })
            }
        }
    }

    #[test]
    fn register_and_lookup_by_every_index() {
        let registry = Registry::new();
        registry
            .register(Probe::new("p1", "Hall Probe", Some("hall")))
            .unwrap();
        registry
            .register(Probe::new("p2", "Kitchen Probe", Some("kitchen")))
            .unwrap();
        assert_eq!(registry.len(), 2);
        assert_eq!(
            registry.find_by_name("hall probe"),
            vec![DeviceId::new("p1")]
        );
        assert_eq!(
            registry
                .find_by_device_type("URN:CADEL:DEVICE:PROBE:1")
                .len(),
            2
        );
        assert_eq!(
            registry
                .find_by_service_type("urn:cadel:service:probe:1")
                .len(),
            2
        );
        assert_eq!(
            registry.find_by_location(&PlaceId::new("kitchen")),
            vec![DeviceId::new("p2")]
        );
        assert_eq!(registry.find_by_keyword("TESTING").len(), 2);
        assert_eq!(
            registry.find_by_variable("VALUE"),
            vec![
                SensorKey::new(DeviceId::new("p1"), "value"),
                SensorKey::new(DeviceId::new("p2"), "value"),
            ]
        );
        assert_eq!(
            registry.location(&DeviceId::new("p2")),
            Some(PlaceId::new("kitchen"))
        );
        assert!(registry.find_by_name("toaster").is_empty());
    }

    #[test]
    fn duplicate_udn_is_rejected() {
        let registry = Registry::new();
        registry.register(Probe::new("p1", "A", None)).unwrap();
        let err = registry.register(Probe::new("p1", "B", None)).unwrap_err();
        assert!(matches!(err, UpnpError::DuplicateDevice(_)));
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn unregister_cleans_every_index() {
        let registry = Registry::new();
        let udn = registry
            .register(Probe::new("p1", "Hall Probe", Some("hall")))
            .unwrap();
        registry.unregister(&udn).unwrap();
        assert!(registry.is_empty());
        assert!(registry.find_by_name("hall probe").is_empty());
        assert!(registry.find_by_keyword("testing").is_empty());
        assert!(registry.find_by_location(&PlaceId::new("hall")).is_empty());
        assert!(registry.find_by_variable("value").is_empty());
        assert_eq!(registry.location(&udn), None);
        assert!(matches!(
            registry.unregister(&udn),
            Err(UpnpError::UnknownDevice(_))
        ));
    }

    #[test]
    fn device_handles_answer_queries() {
        let registry = Registry::new();
        let udn = registry.register(Probe::new("p1", "A", None)).unwrap();
        let device = registry.device(&udn).unwrap();
        assert_eq!(device.query("value").unwrap(), Value::Bool(true));
        assert!(device.query("missing").is_err());
        assert!(registry.device(&DeviceId::new("ghost")).is_err());
    }

    #[test]
    fn same_friendly_name_accumulates() {
        let registry = Registry::new();
        registry
            .register(Probe::new("l1", "Light", Some("hall")))
            .unwrap();
        registry
            .register(Probe::new("l2", "Light", Some("kitchen")))
            .unwrap();
        assert_eq!(registry.find_by_name("light").len(), 2);
        registry.unregister(&DeviceId::new("l1")).unwrap();
        assert_eq!(registry.find_by_name("light"), vec![DeviceId::new("l2")]);
    }
}
