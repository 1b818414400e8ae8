//! The compiler's name environment, backed by the live UPnP registry.
//!
//! When a user writes "turn on the light at the hall", the compiler asks
//! this resolver what "light" at place "hall" denotes. Resolution goes
//! through the registry's indexes — by friendly name, keyword and
//! state-variable name, the same data the guidance service browses — so
//! a rule can only ever bind to devices that really exist, which is
//! exactly the paper's argument for the lookup service (§3.2: users "can
//! reach the target sensors and devices quickly"). Place containment is
//! the topology's answer.

use crate::users::UserRegistry;
use cadel_lang::Resolver;
use cadel_types::{DeviceId, PersonId, PlaceId, SensorKey, Topology, Unit};
use cadel_upnp::Registry;

/// A [`Resolver`] over the device registry, home topology and user
/// registry.
pub struct RegistryResolver<'a> {
    registry: &'a Registry,
    topology: &'a Topology,
    users: &'a UserRegistry,
}

impl<'a> RegistryResolver<'a> {
    /// Creates a resolver.
    pub fn new(
        registry: &'a Registry,
        topology: &'a Topology,
        users: &'a UserRegistry,
    ) -> RegistryResolver<'a> {
        RegistryResolver {
            registry,
            topology,
            users,
        }
    }

    fn place_matches(&self, device_place: Option<&PlaceId>, scope: &PlaceId) -> bool {
        match device_place {
            Some(p) => self.topology.contains(scope, p).unwrap_or(p == scope),
            None => false,
        }
    }

    /// Whether a registered device is installed within `scope`.
    fn device_in(&self, udn: &DeviceId, scope: &PlaceId) -> bool {
        self.place_matches(self.registry.location(udn).as_ref(), scope)
    }

    /// The sensors exposing state variable `name`, within `scope` when
    /// given, in key order.
    fn sensors_named(&self, name: &str, scope: Option<&PlaceId>) -> Vec<SensorKey> {
        let mut candidates = self.registry.find_by_variable(name);
        if let Some(scope) = scope {
            candidates.retain(|key| self.device_in(key.device(), scope));
        }
        candidates.sort();
        candidates
    }

    /// Devices with the given friendly name (fallback: keyword),
    /// optionally filtered by location.
    fn device_candidates(&self, name: &str, location: Option<&PlaceId>) -> Vec<DeviceId> {
        let mut candidates = self.registry.find_by_name(name);
        if candidates.is_empty() {
            candidates = self.registry.find_by_keyword(name);
        }
        if let Some(loc) = location {
            candidates.retain(|udn| self.device_in(udn, loc));
        }
        candidates
    }
}

impl Resolver for RegistryResolver<'_> {
    fn resolve_person(&self, name: &str) -> Option<PersonId> {
        let id = PersonId::new(name.to_ascii_lowercase());
        self.users.contains(&id).then_some(id)
    }

    fn resolve_place(&self, name: &str) -> Option<PlaceId> {
        let id = PlaceId::new(name);
        self.topology.knows(&id).then_some(id)
    }

    fn resolve_device(&self, name: &str, location: Option<&PlaceId>) -> Option<DeviceId> {
        let candidates = self.device_candidates(name, location);
        // Ambiguity is an error the user must fix by adding a location.
        if candidates.len() == 1 {
            candidates.into_iter().next()
        } else {
            None
        }
    }

    fn resolve_sensor(&self, name: &str, location: Option<&PlaceId>) -> Option<SensorKey> {
        // A sensor reference names a state *variable* category
        // ("temperature", "humidity"): find the devices exposing it.
        let candidates = self.sensors_named(name, location);
        if candidates.len() == 1 {
            candidates.into_iter().next()
        } else {
            None
        }
    }

    fn ambient_sensor(&self, place: &PlaceId, kind: &str) -> Option<SensorKey> {
        self.sensors_named(kind, Some(place)).into_iter().next()
    }

    fn sensor_unit(&self, sensor: &SensorKey) -> Option<Unit> {
        self.registry
            .description(sensor.device())
            .ok()
            .and_then(|d| {
                d.find_variable(sensor.variable())
                    .and_then(|(_, v)| v.unit())
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadel_devices::LivingRoomHome;

    fn setup() -> (Registry, Topology, UserRegistry) {
        let registry = Registry::new();
        LivingRoomHome::install(&registry);
        let mut topology = Topology::new("home");
        topology.add_floor("first floor").unwrap();
        topology.add_room("living room", "first floor").unwrap();
        topology.add_room("hall", "first floor").unwrap();
        let mut users = UserRegistry::new();
        users.add_user("tom").unwrap();
        users.add_user("alan").unwrap();
        (registry, topology, users)
    }

    #[test]
    fn resolves_people_and_places() {
        let (registry, topology, users) = setup();
        let r = RegistryResolver::new(&registry, &topology, &users);
        assert_eq!(r.resolve_person("Tom"), Some(PersonId::new("tom")));
        assert_eq!(r.resolve_person("zelda"), None);
        assert_eq!(
            r.resolve_place("Living Room"),
            Some(PlaceId::new("living room"))
        );
        assert_eq!(r.resolve_place("garage"), None);
    }

    #[test]
    fn resolves_devices_by_name_and_location() {
        let (registry, topology, users) = setup();
        let r = RegistryResolver::new(&registry, &topology, &users);
        assert_eq!(
            r.resolve_device("air conditioner", None),
            Some(DeviceId::new("aircon-lr"))
        );
        // "light" exists both as the hall light's friendly name and as a
        // keyword of three luminaires: scoping by place disambiguates.
        let hall = PlaceId::new("hall");
        assert_eq!(
            r.resolve_device("light", Some(&hall)),
            Some(DeviceId::new("light-hall"))
        );
        assert_eq!(r.resolve_device("jacuzzi", None), None);
    }

    #[test]
    fn location_scoping_accepts_enclosing_floor() {
        let (registry, topology, users) = setup();
        let r = RegistryResolver::new(&registry, &topology, &users);
        // The hall light is on the first floor.
        let floor = PlaceId::new("first floor");
        assert_eq!(
            r.resolve_device("light", Some(&floor)),
            Some(DeviceId::new("light-hall"))
        );
    }

    #[test]
    fn resolves_sensors_by_variable_category() {
        let (registry, topology, users) = setup();
        let r = RegistryResolver::new(&registry, &topology, &users);
        let key = r.resolve_sensor("temperature", None).unwrap();
        assert_eq!(key.device().as_str(), "thermo-lr");
        assert_eq!(key.variable(), "temperature");
        assert_eq!(r.sensor_unit(&key), Some(Unit::Celsius));
        let key = r.resolve_sensor("humidity", None).unwrap();
        assert_eq!(key.device().as_str(), "hygro-lr");
        assert_eq!(r.resolve_sensor("radiation", None), None);
    }

    /// Whether a description's place lies within `scope`, by the topology.
    fn scanned_place(topology: &Topology, place: Option<&PlaceId>, scope: &PlaceId) -> bool {
        place.is_some_and(|p| topology.contains(scope, p).unwrap_or(p == scope))
    }

    /// Device candidates as the resolver found them before the registry
    /// indexed variables: a description cloned per candidate for its place.
    fn scanned_devices(
        r: &RegistryResolver<'_>,
        name: &str,
        at: Option<&PlaceId>,
    ) -> Vec<DeviceId> {
        let mut candidates = r.registry.find_by_name(name);
        if candidates.is_empty() {
            candidates = r.registry.find_by_keyword(name);
        }
        candidates.retain(|udn| match at {
            None => true,
            Some(loc) => r
                .registry
                .description(udn)
                .is_ok_and(|d| scanned_place(r.topology, d.location(), loc)),
        });
        candidates
    }

    /// Sensors as the resolver found them before: every description
    /// cloned and scanned for the variable.
    fn scanned_sensors(
        r: &RegistryResolver<'_>,
        name: &str,
        at: Option<&PlaceId>,
    ) -> Vec<SensorKey> {
        let mut candidates: Vec<SensorKey> = r
            .registry
            .descriptions()
            .iter()
            .filter(|d| at.is_none_or(|loc| scanned_place(r.topology, d.location(), loc)))
            .filter_map(|d| {
                d.find_variable(name)
                    .map(|(_, var)| SensorKey::new(d.udn().clone(), var.name().to_owned()))
            })
            .collect();
        candidates.sort();
        candidates
    }

    fn single<T>(mut candidates: Vec<T>) -> Option<T> {
        (candidates.len() == 1).then(|| candidates.remove(0))
    }

    #[test]
    fn indexed_lookups_answer_like_the_linear_scan() {
        use cadel_devices::{AirConditioner, Hygrometer, Light, LightKind, LuxMeter, Thermometer};
        // Shaped like a dense home: two floors of rooms, each with a
        // thermometer, an air conditioner and a light under shared
        // friendly names, some hygrometers and lux meters, a garden
        // with outdoor sensors, and a shed the topology does not know.
        let registry = Registry::new();
        let mut topology = Topology::new("dense home");
        let mut places = vec![PlaceId::new("dense home")];
        for floor in ["ground", "upper"] {
            places.push(topology.add_floor(floor).unwrap());
            for r in 0..12 {
                let room = format!("{floor} room {r}");
                places.push(topology.add_room(&room, floor).unwrap());
                let udn = |kind: &str| format!("{kind}-{floor}-{r}");
                registry
                    .register(Thermometer::new(&udn("thermo"), "Thermometer", &room, 22))
                    .unwrap();
                registry
                    .register(AirConditioner::new(
                        &udn("aircon"),
                        "Air Conditioner",
                        &room,
                    ))
                    .unwrap();
                let kind = if r % 5 == 0 {
                    LightKind::FloorLamp
                } else {
                    LightKind::Fluorescent
                };
                registry
                    .register(Light::new(&udn("light"), "Light", &room, kind))
                    .unwrap();
                if r % 3 == 0 {
                    registry
                        .register(Hygrometer::new(&udn("hygro"), "Hygrometer", &room, 50))
                        .unwrap();
                }
                if r % 4 == 1 {
                    registry
                        .register(LuxMeter::new(&udn("lux"), "Lux Meter", &room, 300))
                        .unwrap();
                }
            }
        }
        places.push(topology.add_room("garden", "ground").unwrap());
        registry
            .register(Thermometer::new(
                "thermo-out",
                "Outdoor Thermometer",
                "garden",
                20,
            ))
            .unwrap();
        registry
            .register(Hygrometer::new(
                "hygro-out",
                "Outdoor Hygrometer",
                "garden",
                60,
            ))
            .unwrap();
        registry
            .register(Thermometer::new(
                "thermo-shed",
                "Shed Thermometer",
                "shed",
                15,
            ))
            .unwrap();
        places.extend([PlaceId::new("shed"), PlaceId::new("nowhere")]);
        let users = UserRegistry::new();
        let r = RegistryResolver::new(&registry, &topology, &users);

        let variables = [
            "temperature",
            "Humidity",
            "illuminance",
            "brightness",
            "power",
            "setpoint",
            "mode",
            "radiation",
        ];
        let devices = [
            "air conditioner",
            "Light",
            "thermometer",
            "lamp",
            "climate",
            "outdoor thermometer",
            "shed thermometer",
            "cooling",
            "jacuzzi",
        ];
        let scopes: Vec<Option<&PlaceId>> = std::iter::once(None)
            .chain(places.iter().map(Some))
            .collect();
        let (mut resolved, mut refused) = (0, 0);
        for at in &scopes {
            for name in variables {
                let scanned = scanned_sensors(&r, name, *at);
                if let Some(place) = at {
                    assert_eq!(
                        r.ambient_sensor(place, name),
                        scanned.first().cloned(),
                        "ambient {name} at {place}"
                    );
                }
                let answer = r.resolve_sensor(name, *at);
                assert_eq!(answer, single(scanned), "sensor {name} at {at:?}");
                if answer.is_some() {
                    resolved += 1;
                } else {
                    refused += 1;
                }
            }
            for name in devices {
                let answer = r.resolve_device(name, *at);
                assert_eq!(
                    answer,
                    single(scanned_devices(&r, name, *at)),
                    "device {name} at {at:?}"
                );
                if answer.is_some() {
                    resolved += 1;
                } else {
                    refused += 1;
                }
            }
        }
        // Both outcomes occur: unique answers and ambiguous or unknown names.
        assert!(
            resolved > 100 && refused > 100,
            "resolved {resolved}, refused {refused}"
        );
    }

    #[test]
    fn ambient_sensor_for_place() {
        let (registry, topology, users) = setup();
        let r = RegistryResolver::new(&registry, &topology, &users);
        let key = r
            .ambient_sensor(&PlaceId::new("hall"), "illuminance")
            .unwrap();
        assert_eq!(key.device().as_str(), "lux-hall");
        assert!(r
            .ambient_sensor(&PlaceId::new("living room"), "illuminance")
            .is_none());
    }
}
