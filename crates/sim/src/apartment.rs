//! A multi-unit "apartment block" load scenario for the engine.
//!
//! Where the Fig. 1 living room reproduces the paper's timeline with a
//! handful of rules, this scenario scales it out: `units` apartments,
//! each with its own thermometer, hygrometer, floor lamp and air
//! conditioner, and three rules per unit —
//!
//! * *cool*: temperature above 26 °C turns the unit's air conditioner on
//!   `until` it has cooled below 24 °C (release traffic);
//! * *dry*: humidity above 70 % wants the same air conditioner
//!   (same-device contention, so arbitration runs every flip);
//! * *heat-warning*: temperature held above 25 °C for three minutes
//!   lights the unit's lamp (`held for` dwell tracking).
//!
//! Every simulated minute each sensor takes a seeded random-walk step
//! and publishes through the real UPnP event bus — sometimes twice, so
//! batches carry the redundant same-sensor readings the engine's ingest
//! coalescer exists for. The whole workload is deterministic in the
//! seed, which is what makes it useful: the trigger-index parity soak
//! runs the same seed on the index and on the full scan and demands
//! identical activity timelines and server snapshots.

use crate::activity::ActivityTimeline;
use crate::schedule::Simulation;
use cadel_devices::{AirConditioner, EnvironmentSensor, Hygrometer, Light, LightKind, Thermometer};
use cadel_rule::{ActionSpec, Atom, Condition, ConstraintAtom, Rule, Verb};
use cadel_server::HomeServer;
use cadel_simplex::RelOp;
use cadel_types::{
    DeviceId, PersonId, Quantity, Rational, Rng, RuleId, SensorKey, SimDuration, SimTime, Topology,
    Unit,
};
use cadel_upnp::{ControlPoint, Registry};
use std::sync::Arc;

/// The world simulated by the apartment block.
pub struct ApartmentWorld {
    /// The home server running every unit's rules.
    pub server: HomeServer,
    /// Per-step engine activity (firings, suppressions, releases).
    pub activity: ActivityTimeline,
    thermometers: Vec<Arc<EnvironmentSensor>>,
    hygrometers: Vec<Arc<EnvironmentSensor>>,
    temps: Vec<i64>,
    humids: Vec<i64>,
    rng: Rng,
    tick: u64,
}

impl ApartmentWorld {
    /// One seeded random-walk tick: every sensor drifts and publishes;
    /// roughly a third publish twice in the same batch (the second
    /// reading supersedes the first — coalescing fodder).
    ///
    /// The walk is phased like a compressed day — half an hour warming,
    /// half an hour drifting, half an hour cooling — so every unit
    /// reliably sweeps through the 26 °C trigger and back through the
    /// 24 °C release however the per-minute jitter lands.
    fn drift_and_publish(&mut self, at: SimTime) {
        let drift: fn(&mut Rng) -> i64 = match (self.tick / 30) % 3 {
            0 => |rng| rng.range_i64(0, 3),
            1 => |rng| rng.range_i64(-1, 2),
            _ => |rng| rng.range_i64(-2, 1),
        };
        self.tick += 1;
        for u in 0..self.thermometers.len() {
            self.temps[u] = (self.temps[u] + drift(&mut self.rng)).clamp(18, 32);
            if self.rng.chance(1, 3) {
                let transient = self.temps[u] + self.rng.range_i64(-2, 3);
                let _ = self.thermometers[u].set_reading(Rational::from_integer(transient), at);
            }
            let _ = self.thermometers[u].set_reading(Rational::from_integer(self.temps[u]), at);

            self.humids[u] = (self.humids[u] + self.rng.range_i64(-2, 3)).clamp(35, 85);
            let _ = self.hygrometers[u].set_reading(Rational::from_integer(self.humids[u]), at);
        }
    }
}

/// The built scenario, ready to run.
pub struct ApartmentBlockScenario {
    sim: Simulation<ApartmentWorld>,
}

fn unit_place(u: usize) -> String {
    format!("unit-{u}")
}

pub(crate) fn temp_above(u: usize, degrees: i64) -> Condition {
    Condition::Atom(Atom::Constraint(ConstraintAtom::new(
        SensorKey::new(DeviceId::new(format!("thermo-{u}")), "temperature"),
        RelOp::Gt,
        Quantity::from_integer(degrees, Unit::Celsius),
    )))
}

pub(crate) fn temp_below(u: usize, degrees: i64) -> Condition {
    Condition::Atom(Atom::Constraint(ConstraintAtom::new(
        SensorKey::new(DeviceId::new(format!("thermo-{u}")), "temperature"),
        RelOp::Lt,
        Quantity::from_integer(degrees, Unit::Celsius),
    )))
}

pub(crate) fn humidity_above(u: usize, percent: i64) -> Condition {
    Condition::Atom(Atom::Constraint(ConstraintAtom::new(
        SensorKey::new(DeviceId::new(format!("hygro-{u}")), "humidity"),
        RelOp::Gt,
        Quantity::from_integer(percent, Unit::Percent),
    )))
}

impl ApartmentBlockScenario {
    /// Builds a block of `units` apartments with seeded sensor walks.
    ///
    /// # Panics
    ///
    /// Panics on duplicate device registrations or unbuildable rules —
    /// both impossible for the generated names and conditions.
    pub fn build(units: usize, seed: u64) -> ApartmentBlockScenario {
        let registry = Registry::new();
        let mut topology = Topology::new("block");
        topology.add_floor("ground").expect("fresh topology");

        let mut thermometers = Vec::with_capacity(units);
        let mut hygrometers = Vec::with_capacity(units);
        for u in 0..units {
            let place = unit_place(u);
            topology.add_room(&place, "ground").expect("fresh topology");
            let thermo = Thermometer::new(&format!("thermo-{u}"), "Thermometer", &place, 22);
            let hygro = Hygrometer::new(&format!("hygro-{u}"), "Hygrometer", &place, 50);
            registry.register(thermo.clone()).expect("unique UDN");
            registry.register(hygro.clone()).expect("unique UDN");
            registry
                .register(Light::new(
                    &format!("lamp-{u}"),
                    "Lamp",
                    &place,
                    LightKind::FloorLamp,
                ))
                .expect("unique UDN");
            registry
                .register(AirConditioner::new(
                    &format!("aircon-{u}"),
                    "Air Conditioner",
                    &place,
                ))
                .expect("unique UDN");
            thermometers.push(thermo);
            hygrometers.push(hygro);
        }

        let mut server = HomeServer::new(ControlPoint::new(registry), topology);
        let engine = server.engine_mut();
        for u in 0..units {
            let resident = PersonId::new(format!("resident-{u}"));
            let aircon = DeviceId::new(format!("aircon-{u}"));
            let base = 1 + 3 * u as u64;
            let cool = Rule::builder(resident.clone())
                .condition(temp_above(u, 26))
                .action(ActionSpec::new(aircon.clone(), Verb::TurnOn))
                .until(temp_below(u, 24))
                .build(RuleId::new(base))
                .expect("cool rule builds");
            let dry = Rule::builder(resident.clone())
                .condition(humidity_above(u, 70))
                .action(ActionSpec::new(aircon, Verb::TurnOn))
                .build(RuleId::new(base + 1))
                .expect("dry rule builds");
            let warn = Rule::builder(resident)
                .condition(Condition::Atom(Atom::held_for(
                    Atom::Constraint(ConstraintAtom::new(
                        SensorKey::new(DeviceId::new(format!("thermo-{u}")), "temperature"),
                        RelOp::Gt,
                        Quantity::from_integer(25, Unit::Celsius),
                    )),
                    SimDuration::from_minutes(3),
                )))
                .action(ActionSpec::new(
                    DeviceId::new(format!("lamp-{u}")),
                    Verb::TurnOn,
                ))
                .build(RuleId::new(base + 2))
                .expect("warn rule builds");
            engine.add_rule(cool).expect("fresh id");
            engine.add_rule(dry).expect("fresh id");
            engine.add_rule(warn).expect("fresh id");
        }

        let world = ApartmentWorld {
            server,
            activity: ActivityTimeline::new(),
            thermometers,
            hygrometers,
            temps: vec![22; units],
            humids: vec![50; units],
            rng: Rng::new(seed),
            tick: 0,
        };
        ApartmentBlockScenario {
            sim: Simulation::new(world),
        }
    }

    /// Mutable access to the home server before the run — e.g. to set
    /// the engine's evaluation thread count.
    pub fn server_mut(&mut self) -> &mut HomeServer {
        &mut self.sim.world_mut().server
    }

    /// Runs `minutes` one-minute ticks (sensor walk, engine step,
    /// activity recording) and returns the world.
    pub fn run(mut self, minutes: u64) -> ApartmentWorld {
        let deadline = SimTime::EPOCH + SimDuration::from_minutes(minutes);
        self.sim
            .run_until(deadline, SimDuration::from_minutes(1), |w, at| {
                w.drift_and_publish(at);
                let report = w.server.step(at);
                w.activity.record(at, &report);
            });
        self.sim.into_world()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apartment_block_generates_load() {
        let world = ApartmentBlockScenario::build(6, 11).run(90);
        let dispatched: usize = world.activity.rows().iter().map(|r| r.dispatched).sum();
        assert!(dispatched > 0, "no unit ever fired a rule");
        let releases: usize = world.activity.rows().iter().map(|r| r.releases).sum();
        assert!(releases > 0, "no until-release ever triggered");
    }

    #[test]
    fn apartment_block_is_deterministic_in_the_seed() {
        let a = ApartmentBlockScenario::build(4, 7).run(60);
        let b = ApartmentBlockScenario::build(4, 7).run(60);
        assert_eq!(a.activity.render(), b.activity.render());
        assert_eq!(
            a.server.snapshot_json().to_compact(),
            b.server.snapshot_json().to_compact()
        );
    }
}
