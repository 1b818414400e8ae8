//! `dense_home`: one tenant that is one large home of 10,000 rules over
//! a few hundred appliances. Rule conditions mix each room's own
//! thermometer with a few whole-home inputs (outdoor temperature and
//! humidity, arrivals, time of day), every room's air conditioner and
//! light are contended under context-scoped priority orders, and some
//! rules carry `until` and `held for` clauses. A few readings per tick
//! hit the shared sensors, so every step evaluates thousands of rules:
//! candidate selection, evaluation, arbitration, commit and dispatch do
//! the work.

use crate::common::*;
use crate::Workload;
use cadel_api::{ApiClient, ApiServer};
use cadel_conflict::PriorityOrder;
use cadel_devices::{
    AirConditioner, EnvironmentSensor, Hygrometer, Light, LightKind, PresenceReader, Thermometer,
};
use cadel_engine::StepReport;
use cadel_fleet::{Fleet, Ingress, TenantBuilder, TenantParts, TenantWorld};
use cadel_rule::{ActionSpec, Atom, Condition, ConstraintAtom, EventAtom, Rule, Verb};
use cadel_server::HomeServer;
use cadel_simplex::RelOp;
use cadel_types::{
    DeviceId, PersonId, Quantity, Rational, Rng, RuleId, SensorKey, SimDuration, SimTime,
    TimeOfDay, TimeWindow, Topology, Unit, Value,
};
use cadel_upnp::{ControlPoint, Registry};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TENANT: &str = "home";
const ROOMS: usize = 100;
const RULES_PER_ROOM: usize = 100;
/// Of each room's rules, this many actuate its air conditioner; the
/// rest its light.
const AIRCON_RULES: usize = 60;
/// Readings per tick on rooms' own thermometers (plus at most three on
/// shared sensors: at most 64 per batch, the default inbox).
const ROOM_READINGS: usize = 56;
const WARMUP_TICKS: u64 = 16;
/// Ticks whose dispatched firings are compared against a replay.
const CHECK_TICKS: u64 = 120;
/// One rule edit (submit, then remove) every this many ticks.
const EDIT_EVERY: u64 = 4;
const ARRIVAL_EVENT: &str = "came home";

const COLORS: [&str; 10] = [
    "red", "blue", "green", "amber", "ivory", "olive", "coral", "azure", "slate", "plum",
];
const NOUNS: [&str; 10] = [
    "study", "den", "loft", "nursery", "pantry", "library", "gallery", "cellar", "attic",
    "workshop",
];

fn room_name(r: usize) -> String {
    format!("{} {}", COLORS[r % 10], NOUNS[r / 10])
}

fn thermo(r: usize) -> String {
    format!("thermo-{r:03}")
}

fn aircon(r: usize) -> String {
    format!("aircon-{r:03}")
}

fn light(r: usize) -> String {
    format!("light-{r:03}")
}

const OUTDOOR_THERMO: &str = "thermo-outdoor";
const OUTDOOR_HYGRO: &str = "hygro-outdoor";
const DOOR_READER: &str = "reader-door";

fn above(device: &str, variable: &str, value: i64, unit: Unit) -> Atom {
    Atom::Constraint(ConstraintAtom::new(
        SensorKey::new(DeviceId::new(device), variable),
        RelOp::Gt,
        Quantity::from_integer(value, unit),
    ))
}

fn below(device: &str, variable: &str, value: i64, unit: Unit) -> Atom {
    Atom::Constraint(ConstraintAtom::new(
        SensorKey::new(DeviceId::new(device), variable),
        RelOp::Lt,
        Quantity::from_integer(value, unit),
    ))
}

fn window(start_hour: u8, hours: u8) -> Atom {
    let start = TimeOfDay::hm(start_hour % 24, 0).expect("valid hour");
    let end = TimeOfDay::hm((start_hour + hours) % 24, 0).expect("valid hour");
    Atom::Time(TimeWindow::new(start, end))
}

/// The whole-home part of rule `k`'s condition.
fn shared_atom(k: usize) -> Atom {
    match k % 20 {
        0..=7 => above(
            OUTDOOR_THERMO,
            "temperature",
            5 + (k * 7 % 30) as i64,
            Unit::Celsius,
        ),
        8..=12 => above(
            OUTDOOR_HYGRO,
            "humidity",
            30 + (k * 11 % 60) as i64,
            Unit::Percent,
        ),
        13..=17 => window((k * 5 % 24) as u8, 4),
        _ => Atom::Event(EventAtom::new("person", ARRIVAL_EVENT)),
    }
}

/// The home's rules and priority orders, in a fixed arithmetic shape.
fn rules_and_orders() -> (Vec<Rule>, Vec<PriorityOrder>) {
    let owner = PersonId::new("resident");
    let mut rules = Vec::with_capacity(ROOMS * RULES_PER_ROOM);
    let mut orders = Vec::new();
    for r in 0..ROOMS {
        let base = (r * RULES_PER_ROOM) as u64 + 1;
        for k in 0..RULES_PER_ROOM {
            let id = RuleId::new(base + k as u64);
            let room = if k % 7 == 3 {
                Atom::held_for(
                    above(
                        &thermo(r),
                        "temperature",
                        20 + (k % 10) as i64,
                        Unit::Celsius,
                    ),
                    SimDuration::from_minutes(3),
                )
            } else if k < AIRCON_RULES {
                above(
                    &thermo(r),
                    "temperature",
                    20 + (k % 10) as i64,
                    Unit::Celsius,
                )
            } else {
                below(
                    &thermo(r),
                    "temperature",
                    34 - (k % 10) as i64,
                    Unit::Celsius,
                )
            };
            let condition = Condition::Atom(room).and(Condition::Atom(shared_atom(k)));
            let action = if k < AIRCON_RULES {
                ActionSpec::new(DeviceId::new(aircon(r)), Verb::TurnOn).with_setting(
                    "temperature",
                    Quantity::from_integer(16 + (k % 17) as i64, Unit::Celsius),
                )
            } else {
                ActionSpec::new(DeviceId::new(light(r)), Verb::TurnOn).with_setting(
                    "brightness",
                    Quantity::from_integer(10 + (k % 90) as i64, Unit::Percent),
                )
            };
            let mut builder = Rule::builder(owner.clone())
                .condition(condition)
                .action(action);
            if k % 5 == 0 {
                let floor = 18 + (k % 10) as i64;
                builder = builder.until(Condition::Atom(below(
                    &thermo(r),
                    "temperature",
                    floor,
                    Unit::Celsius,
                )));
            }
            rules.push(builder.build(id).expect("generated rule is valid"));
        }
        // Fig. 1 style: a default order per device, and a context-scoped
        // order that reverses it (evenings for the air conditioner, a
        // humid day for the light).
        let ids = |range: std::ops::Range<usize>| -> Vec<RuleId> {
            range.map(|k| RuleId::new(base + k as u64)).collect()
        };
        let cool = ids(0..AIRCON_RULES);
        let lamp = ids(AIRCON_RULES..RULES_PER_ROOM);
        let reversed = |v: &[RuleId]| v.iter().rev().copied().collect::<Vec<_>>();
        orders.push(
            PriorityOrder::new(DeviceId::new(aircon(r)), reversed(&cool))
                .in_context(Condition::Atom(window(18, 5))),
        );
        orders.push(PriorityOrder::new(DeviceId::new(aircon(r)), cool));
        orders.push(
            PriorityOrder::new(DeviceId::new(light(r)), reversed(&lamp)).in_context(
                Condition::Atom(above(OUTDOOR_HYGRO, "humidity", 70, Unit::Percent)),
            ),
        );
        orders.push(PriorityOrder::new(DeviceId::new(light(r)), lamp));
    }
    (rules, orders)
}

/// The home's devices: what readings land on.
struct HomeWorld {
    sensors: HashMap<String, Arc<EnvironmentSensor>>,
    door: Arc<PresenceReader>,
}

impl TenantWorld for HomeWorld {
    fn deliver(&mut self, ingress: &Ingress) {
        match &ingress.value {
            Value::Number(q) => {
                if let Some(sensor) = self.sensors.get(ingress.device.as_str()) {
                    let _ = sensor.set_reading(q.value(), ingress.at);
                }
            }
            Value::Text(text) if ingress.device.as_str() == DOOR_READER => {
                if let Some((who, event)) = text
                    .strip_prefix("person:")
                    .and_then(|rest| rest.split_once('|'))
                {
                    self.door
                        .announce_arrival(&PersonId::new(who), event, ingress.at);
                }
            }
            _ => {}
        }
    }
}

/// Builds the registry, topology and device world of the home.
fn devices() -> (Registry, Topology, HomeWorld) {
    let registry = Registry::new();
    let mut topology = Topology::new("dense home");
    topology.add_floor("ground").expect("fresh topology");
    for r in 0..ROOMS {
        topology
            .add_room(room_name(r), "ground")
            .expect("fresh topology");
    }
    topology
        .add_room("garden", "ground")
        .expect("fresh topology");
    topology
        .add_room("entrance", "ground")
        .expect("fresh topology");
    let mut sensors = HashMap::new();
    for r in 0..ROOMS {
        let place = room_name(r);
        let t = Thermometer::new(&thermo(r), "Thermometer", &place, 22);
        registry.register(t.clone()).expect("unique UDN");
        sensors.insert(thermo(r), t);
        registry
            .register(AirConditioner::new(&aircon(r), "Air Conditioner", &place))
            .expect("unique UDN");
        registry
            .register(Light::new(
                &light(r),
                "Light",
                &place,
                LightKind::Fluorescent,
            ))
            .expect("unique UDN");
    }
    let outdoor_t = Thermometer::new(OUTDOOR_THERMO, "Outdoor Thermometer", "garden", 20);
    let outdoor_h = Hygrometer::new(OUTDOOR_HYGRO, "Outdoor Hygrometer", "garden", 50);
    registry.register(outdoor_t.clone()).expect("unique UDN");
    registry.register(outdoor_h.clone()).expect("unique UDN");
    sensors.insert(OUTDOOR_THERMO.to_owned(), outdoor_t);
    sensors.insert(OUTDOOR_HYGRO.to_owned(), outdoor_h);
    let door = PresenceReader::new(DOOR_READER, "Door Reader", "entrance");
    registry.register(door.clone()).expect("unique UDN");
    (registry, topology, HomeWorld { sensors, door })
}

/// Users, rules and priority orders, inserted directly (the base was
/// arbitrated when it was written), then made durable in one snapshot.
fn populate(server: &mut HomeServer) -> Result<(), cadel_server::ServerError> {
    server.add_user("Resident")?;
    server.add_user("Alan")?;
    let (rules, orders) = rules_and_orders();
    for rule in rules {
        server.engine_mut().add_rule(rule)?;
    }
    for order in orders {
        server.engine_mut().add_priority(order);
    }
    Ok(())
}

fn home_builder() -> TenantBuilder {
    Arc::new(|dir| {
        let (registry, topology, world) = devices();
        let (mut server, report) = HomeServer::open_at(ControlPoint::new(registry), topology, dir)?;
        if report.records_replayed == 0 && !report.snapshot_used {
            populate(&mut server)?;
            server.checkpoint()?;
        }
        Ok(TenantParts {
            server,
            report,
            world: Box::new(world),
        })
    })
}

/// Seeded readings: a mean-reverting random walk per room, outdoor
/// temperature every tick, outdoor humidity every third tick, and now
/// and then an arrival. The pull toward a fixed level keeps every seed
/// in the same range, so seeds differ in detail, not in load.
struct Traffic {
    rng: Rng,
    rooms: Vec<i64>,
    outdoor: i64,
    humidity: i64,
    tick: u64,
}

impl Traffic {
    fn new(seed: u64) -> Traffic {
        Traffic {
            rng: Rng::new(seed ^ 0xd0e5_e40e),
            rooms: vec![22; ROOMS],
            outdoor: 20,
            humidity: 50,
            tick: 0,
        }
    }

    fn tick(&mut self, at: SimTime) -> Vec<Ingress> {
        let number = |device: &str, variable: &str, value: i64, unit: Unit| Ingress {
            device: DeviceId::new(device),
            variable: variable.to_owned(),
            value: Value::Number(Quantity::new(Rational::from_integer(value), unit)),
            at,
        };
        let mut batch = Vec::with_capacity(64);
        self.outdoor =
            (self.outdoor + self.rng.range_i64(-2, 2) + (20 - self.outdoor).signum()).clamp(0, 40);
        batch.push(number(
            OUTDOOR_THERMO,
            "temperature",
            self.outdoor,
            Unit::Celsius,
        ));
        if self.tick.is_multiple_of(3) {
            self.humidity =
                (self.humidity + self.rng.range_i64(-5, 5) + (55 - self.humidity).signum())
                    .clamp(20, 95);
            batch.push(number(
                OUTDOOR_HYGRO,
                "humidity",
                self.humidity,
                Unit::Percent,
            ));
        }
        if self.rng.chance(1, 10) {
            batch.push(Ingress {
                device: DeviceId::new(DOOR_READER),
                variable: "arrival".to_owned(),
                value: Value::Text(format!("person:alan|{ARRIVAL_EVENT}")),
                at,
            });
        }
        let mut order: Vec<usize> = (0..ROOMS).collect();
        for i in 0..ROOM_READINGS {
            let j = i + self.rng.below((ROOMS - i) as u64) as usize;
            order.swap(i, j);
            let r = order[i];
            self.rooms[r] =
                (self.rooms[r] + self.rng.range_i64(-2, 2) + (24 - self.rooms[r]).signum())
                    .clamp(12, 36);
            batch.push(number(
                &thermo(r),
                "temperature",
                self.rooms[r],
                Unit::Celsius,
            ));
        }
        self.tick += 1;
        batch
    }
}

fn firing_log(report: &StepReport) -> Vec<String> {
    report.dispatched().iter().map(|f| f.to_string()).collect()
}

pub struct DenseHome {
    seed: u64,
    dir: PathBuf,
    server: Option<ApiServer>,
    client: ApiClient,
    traffic: Traffic,
    tick: u64,
    edits: u64,
    /// Dispatched firings of the first [`CHECK_TICKS`] ticks.
    log: Vec<Vec<String>>,
}

impl DenseHome {
    pub fn setup(seed: u64, rep: usize) -> DenseHome {
        let dir = fresh_dir(&format!("dense-{seed}-{rep}"));
        let mut fleet = Fleet::new(&dir, fleet_config());
        fleet
            .add_tenant_arc(TENANT, timed_builder(home_builder()))
            .expect("fresh home tenant");
        let server = bind(fleet);
        let client = ApiClient::connect(server.addr()).expect("client");
        let mut env = DenseHome {
            seed,
            dir,
            server: Some(server),
            client,
            traffic: Traffic::new(seed),
            tick: 0,
            edits: 0,
            log: Vec::new(),
        };
        // Warm-up: a few ticks, and one rule edit, which builds the
        // conflict graph over the whole base.
        let mut warm = Window::default();
        for _ in 0..WARMUP_TICKS {
            env.tick(&mut warm, &mut HashMap::new());
        }
        env.edit_rule(&mut warm, 0);
        assert_eq!(
            warm.failures.count, 0,
            "warm-up failed: {:?}",
            warm.failures
        );
        env
    }

    fn server(&self) -> &ApiServer {
        self.server.as_ref().expect("server is up")
    }

    fn tick(&mut self, w: &mut Window, wave_end: &mut HashMap<SimTime, Instant>) {
        let tick_id = span_id();
        let tick_start = now_ns();
        let due = Instant::now();
        let at = tick_time(self.tick);
        let batch = self.traffic.tick(at);
        let body = readings_body(&batch);
        w.gen_late_us.push(due.elapsed().as_secs_f64() * 1e6);

        let path = format!("/tenants/{TENANT}/readings");
        let (response, t0) = post_readings(&mut self.client, &path, &body, tick_id, self.tick);
        w.post_us.push(t0.elapsed().as_secs_f64() * 1e6);
        w.attempted += 1;
        let ok = admitted_all(&mut w.failures, &response);

        let w0 = Instant::now();
        let report = wave(self.server(), at, tick_id, self.tick);
        let w1 = Instant::now();
        w.attempted += 1;
        w.note_wave(&report, w1 - w0);
        wave_end.insert(at, w1);
        let step = report
            .outcomes
            .iter()
            .find(|o| o.status.is_ok())
            .and_then(|o| o.report.as_ref());
        if self.tick < CHECK_TICKS {
            self.log.push(step.map(firing_log).unwrap_or_default());
        }
        match step {
            Some(_) if ok => w.applied(w1, batch.len(), (w1 - t0).as_secs_f64() * 1e6),
            Some(_) => {}
            None => w.failures.note("home readings not applied"),
        }

        if self.tick.is_multiple_of(EDIT_EVERY) && self.tick >= WARMUP_TICKS {
            self.edit_rule(w, tick_id);
        }
        record_span(tick_id, 0, "tick", tick_start, self.tick);
        self.tick += 1;
    }

    /// Registers a rule that can never hold in this home (and so never
    /// changes its firings) over the wire, then removes it: `201`, `200`.
    /// Its condition is disjoint from every rule on the same device.
    fn edit_rule(&mut self, w: &mut Window, tick_id: u64) {
        let room = room_name((self.edits as usize * 37) % ROOMS);
        let setting = 16 + self.edits % 17;
        let low = 1 + self.edits % 9;
        self.edits += 1;
        let sentence = format!(
            "If the temperature at the {room} is lower than {low} degrees, turn on the air \
             conditioner at the {room} with {setting} degrees of temperature setting."
        );
        let span = ("api.rule.inline", tick_id, self.edits);
        submit_rule(&mut self.client, w, TENANT, &sentence, 201, span);
    }
}

impl Workload for DenseHome {
    fn window(&mut self, seconds: f64) -> Window {
        let subscriber = Subscriber::start(self.server());
        let mut wave_end = HashMap::new();
        let start = Instant::now();
        let mut w = Window::starting(start);
        let deadline = start + Duration::from_secs_f64(seconds);
        while Instant::now() < deadline {
            self.tick(&mut w, &mut wave_end);
        }
        w.seconds = start.elapsed().as_secs_f64();
        finish_subscriber(&mut w, subscriber, &wave_end);
        w
    }

    /// Replays the checked prefix on an in-process server over an
    /// identical home and compares every tick's dispatched firings.
    fn check(&mut self) -> Vec<String> {
        let mut errors = Vec::new();
        let (registry, topology, mut world) = devices();
        let mut server = HomeServer::new(ControlPoint::new(registry), topology);
        if let Err(e) = populate(&mut server) {
            return vec![format!("reference home: {e}")];
        }
        let mut traffic = Traffic::new(self.seed);
        for (tick, live) in self.log.iter().enumerate() {
            let at = tick_time(tick as u64);
            for ingress in traffic.tick(at) {
                world.deliver(&ingress);
            }
            let expected = firing_log(&server.step(at));
            if &expected != live {
                errors.push(format!(
                    "tick {tick}: live firings {live:?} differ from the replay {expected:?}"
                ));
                break;
            }
        }
        if (self.log.len() as u64) < CHECK_TICKS.min(self.tick) {
            errors.push("firing log shorter than the checked prefix".into());
        }
        if self.log.iter().all(Vec::is_empty) {
            errors.push("no rule fired in the checked prefix".into());
        }
        errors
    }

    fn teardown(&mut self) -> Vec<String> {
        self.client = ApiClient::connect(self.server().addr()).expect("client");
        shutdown(&mut self.server, &self.dir, tick_time(self.tick))
    }
}
