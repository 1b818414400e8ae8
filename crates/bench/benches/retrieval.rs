//! **E1 — "Time for Retrieving Devices"** (paper §5).
//!
//! The paper invoked 50 virtual UPnP devices and measured retrieval "by
//! its device name" and "by their service names", reporting ≤ 10 ms each.
//! This harness regenerates those two series over a device-count sweep
//! (the paper's point, N = 50, included), plus the SSDP discovery path
//! and `e1_resolve_sensor`: the rule compiler resolving a sensor
//! reference ("temperature") against the fleet plus one thermometer.
//!
//! Expected shape: flat, far below the paper's 10 ms budget, and
//! independent of fleet size (hash-indexed lookups) — except the SSDP
//! search, which answers with every device.

use cadel_bench::timing::{run, section};
use cadel_devices::{install_virtual_fleet, Thermometer, FLEET_KINDS};
use cadel_lang::Resolver;
use cadel_server::{RegistryResolver, UserRegistry};
use cadel_types::{PlaceId, SimDuration, Topology};
use cadel_upnp::{Registry, SearchTarget, SsdpClient};
use std::hint::black_box;

const FLEET_SIZES: [usize; 5] = [10, 50, 100, 500, 1000];

fn main() {
    section("e1_retrieve_by_device_name");
    for n in FLEET_SIZES {
        let registry = Registry::new();
        install_virtual_fleet(&registry, n);
        let names: Vec<String> = (0..n).map(|i| format!("Virtual Device {i}")).collect();
        let mut cursor = 0usize;
        run(&format!("e1_by_device_name/{n}"), || {
            cursor = (cursor + 1) % names.len();
            let found = registry.find_by_name(black_box(&names[cursor]));
            assert_eq!(found.len(), 1);
            found
        });
    }

    section("e1_retrieve_by_service_name");
    for n in FLEET_SIZES {
        let registry = Registry::new();
        install_virtual_fleet(&registry, n);
        let services: Vec<String> = FLEET_KINDS
            .iter()
            .map(|k| format!("urn:cadel:service:{k}:1"))
            .collect();
        let mut cursor = 0usize;
        run(&format!("e1_by_service_name/{n}"), || {
            cursor = (cursor + 1) % services.len();
            let found = registry.find_by_service_type(black_box(&services[cursor]));
            assert!(!found.is_empty());
            found
        });
    }

    section("e1_resolve_sensor (variable-name index)");
    let mut topology = Topology::new("home");
    topology.add_floor("ground").unwrap();
    topology.add_room("study", "ground").unwrap();
    let users = UserRegistry::new();
    let study = PlaceId::new("study");
    for n in FLEET_SIZES {
        let registry = Registry::new();
        install_virtual_fleet(&registry, n);
        registry
            .register(Thermometer::new("thermo-study", "Thermometer", "study", 22))
            .unwrap();
        let resolver = RegistryResolver::new(&registry, &topology, &users);
        let mut cursor = 0usize;
        run(&format!("e1_resolve_sensor/{n}"), || {
            cursor += 1;
            let at = cursor.is_multiple_of(2).then_some(&study);
            let key = resolver.resolve_sensor(black_box("temperature"), at);
            assert_eq!(
                key.as_ref().map(|k| k.device().as_str()),
                Some("thermo-study")
            );
            key
        });
    }

    section("e1_ssdp_search_all");
    for n in FLEET_SIZES {
        let registry = Registry::new();
        install_virtual_fleet(&registry, n);
        let client = SsdpClient::new(registry, 42);
        run(&format!("e1_ssdp_search_all/{n}"), || {
            let found = client.search(black_box(&SearchTarget::All), SimDuration::from_secs(3));
            assert_eq!(found.len(), n);
            found
        });
    }
}
