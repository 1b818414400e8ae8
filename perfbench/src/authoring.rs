//! `authoring`: rule writes beside reads, in two threads.
//!
//! Thread 1 is a closed loop, with a short think time, of CADEL
//! sentences sent over the wire to a tenant holding an E2-shaped base
//! (10,000 rules, 100 of them on the target air conditioner,
//! two-inequality conditions). About a third of the sentences are
//! multi-conjunct `or` forms; the generator knows which must be
//! registered (`201`) and which conflict (`409`). A `201` is removed
//! again, so the base size stays constant, and every
//! [`TOGGLE_EVERY`]-th operation disables and re-enables a base rule on
//! the target, which re-runs detection. Thread 2 is an open loop of
//! seeded, jittered ticks posting readings to 16 unit tenants and
//! running the waves, timing each reading from its due time. Both share
//! the fleet mutex, so a registration that holds it longer shows up in
//! `react_p99_us`.

use crate::common::*;
use crate::Workload;
use cadel_api::{ApiClient, ApiServer};
use cadel_conflict::PriorityOrder;
use cadel_devices::{AirConditioner, Hygrometer, Thermometer};
use cadel_fleet::{Fleet, TenantBuilder, TenantParts};
use cadel_lang::ast::Command;
use cadel_lang::{parse_command, Compiler, Lexicon};
use cadel_rule::{ActionSpec, Atom, Condition, ConstraintAtom, Rule, Verb};
use cadel_server::{HomeServer, RegistryResolver};
use cadel_sim::{tenant_name, unit_tenant_builder, FleetTraffic};
use cadel_simplex::RelOp;
use cadel_types::json::Json;
use cadel_types::{DeviceId, PersonId, Quantity, Rng, RuleId, SensorKey, Topology, Unit};
use cadel_upnp::{ControlPoint, Registry};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

const AUTHOR: &str = "author";
const BASE_RULES: u64 = 10_000;
/// Base rules on the target device: every `BASE_RULES / TARGET_RULES`-th.
const TARGET_RULES: u64 = 100;
const PLACE: &str = "study";
const TARGET: &str = "aircon-study";
const THERMO: &str = "thermo-study";
const HYGRO: &str = "hygro-study";
/// Unit tenants the reading thread drives, round robin.
const READERS: usize = 16;
/// Unit tenants posted to per tick. Every post and every wave waits for
/// the fleet mutex, which a registration holds for its whole analysis,
/// so the tick's lock acquisitions are kept few enough that the open
/// loop keeps up at this commit.
const POSTS_PER_TICK: usize = 2;
/// The reading thread's tick period. Each tick is due at a seeded
/// uniform offset within its period, so ticks land at independent points
/// of the registration cycle and each waits a fresh share of it, while
/// at most two ticks ever arrive back to back.
const PERIOD: Duration = Duration::from_millis(25);
/// The rule writer's pause after each operation. While it pauses, the
/// reading thread's posts and wave get the fleet mutex without racing
/// the next registration, so a reading waits for at most the one
/// registration in flight, and `react_*` track how long that holds it.
/// At 2 ms about 1 % of ticks still missed the pause and waited for a
/// second registration, which made `react_p99_us` flip between one and
/// two registration times from run to run.
const THINK: Duration = Duration::from_millis(5);
/// Every this many rule operations, one disable/re-enable toggle.
const TOGGLE_EVERY: u64 = 10;
/// Sentences re-checked against the brute-force oracle after the run.
const ORACLE_SAMPLE: usize = 6;

fn is_target(i: u64) -> bool {
    (i - 1).is_multiple_of(BASE_RULES / TARGET_RULES)
}

/// The E2 base: rule `i` (1-based) turns on the target with set-point
/// 18..27 °C when `i` is on the target, else a device of its own, under
/// `temperature > t ∧ humidity > h`.
fn base_rules() -> Vec<Rule> {
    let stride = BASE_RULES / TARGET_RULES;
    (1..=BASE_RULES)
        .map(|i| {
            let slot = (i - 1) / stride;
            let device = if is_target(i) {
                DeviceId::new(TARGET)
            } else {
                DeviceId::new(format!("device-{i}"))
            };
            let band = if slot.is_multiple_of(2) { 5 } else { 25 };
            let temp = Atom::Constraint(ConstraintAtom::new(
                SensorKey::new(DeviceId::new(THERMO), "temperature"),
                RelOp::Gt,
                Quantity::from_integer(band + (i % 10) as i64, Unit::Celsius),
            ));
            let humid = Atom::Constraint(ConstraintAtom::new(
                SensorKey::new(DeviceId::new(HYGRO), "humidity"),
                RelOp::Gt,
                Quantity::from_integer(40 + (i % 40) as i64, Unit::Percent),
            ));
            Rule::builder(PersonId::new("resident"))
                .condition(Condition::Atom(temp).and(Condition::Atom(humid)))
                .action(ActionSpec::new(device, Verb::TurnOn).with_setting(
                    "temperature",
                    Quantity::from_integer(18 + (slot % 10) as i64, Unit::Celsius),
                ))
                .build(RuleId::new(i))
                .expect("generated rule is valid")
        })
        .collect()
}

fn author_builder() -> TenantBuilder {
    Arc::new(|dir| {
        let registry = Registry::new();
        let mut topology = Topology::new("authoring home");
        topology.add_floor("ground").expect("fresh topology");
        topology.add_room(PLACE, "ground").expect("fresh topology");
        registry
            .register(Thermometer::new(THERMO, "Thermometer", PLACE, 22))
            .expect("unique UDN");
        registry
            .register(Hygrometer::new(HYGRO, "Hygrometer", PLACE, 50))
            .expect("unique UDN");
        registry
            .register(AirConditioner::new(TARGET, "Air Conditioner", PLACE))
            .expect("unique UDN");
        let (mut server, report) = HomeServer::open_at(ControlPoint::new(registry), topology, dir)?;
        if report.records_replayed == 0 && !report.snapshot_used {
            server.add_user("Resident")?;
            for rule in base_rules() {
                server.engine_mut().add_rule(rule)?;
            }
            // The base's target conflicts were arbitrated once: one order
            // ranks every target rule, so a re-enable passes the check.
            let ranking = (1..=BASE_RULES).filter(|i| is_target(*i)).map(RuleId::new);
            server
                .engine_mut()
                .add_priority(PriorityOrder::new(DeviceId::new(TARGET), ranking.collect()));
            server.checkpoint()?;
        }
        Ok(TenantParts {
            server,
            report,
            world: Box::new(NoWorld),
        })
    })
}

struct NoWorld;

impl cadel_fleet::TenantWorld for NoWorld {
    fn deliver(&mut self, _ingress: &cadel_fleet::Ingress) {}
}

/// One generated sentence and the status it must get.
struct Sentence {
    text: String,
    conflicts: bool,
}

/// Seeded sentences against the base: half conflict with target rules
/// (their conditions overlap and their set-point is new), half cannot
/// (every disjunct needs `temperature < 5`, below every base bound).
fn sentence(rng: &mut Rng) -> Sentence {
    let conflicts = rng.chance(1, 2);
    let or_form = rng.chance(1, 3);
    let at = format!("at the {PLACE}");
    let cold = |rng: &mut Rng| {
        format!(
            "the temperature {at} is lower than {} degrees",
            rng.range_i64(2, 4)
        )
    };
    let humid = |rng: &mut Rng| {
        format!(
            "the humidity {at} is higher than {} percent",
            rng.range_i64(40, 90)
        )
    };
    let hot = |rng: &mut Rng| {
        format!(
            "the temperature {at} is higher than {} degrees",
            rng.range_i64(30, 40)
        )
    };
    let condition = match (conflicts, or_form) {
        (true, false) => format!("{} and {}", hot(rng), humid(rng)),
        (true, true) => format!("{} and {} or {}", cold(rng), humid(rng), hot(rng)),
        (false, false) => format!("{} and {}", cold(rng), humid(rng)),
        (false, true) => format!("{} or {} and {}", cold(rng), humid(rng), cold(rng)),
    };
    // Set-points the base never uses (it uses 18..27), so an overlap is
    // a conflict.
    let setting = *rng.pick(&[16, 17, 28, 29, 30]);
    Sentence {
        text: format!(
            "If {condition}, turn on the air conditioner {at} with {setting} degrees of \
             temperature setting."
        ),
        conflicts,
    }
}

/// The rule thread's state: the sentence generator and what was sent.
struct RuleLoop {
    rng: Rng,
    ops: u64,
    sent: Vec<Sentence>,
}

impl RuleLoop {
    /// One rule operation: a toggle every [`TOGGLE_EVERY`]-th, else a
    /// submitted sentence (removed again after a `201`).
    fn op(&mut self, client: &mut ApiClient, w: &mut Window) {
        self.ops += 1;
        let op = self.ops;
        if op.is_multiple_of(TOGGLE_EVERY) {
            let stride = BASE_RULES / TARGET_RULES;
            let id = 1 + (op / TOGGLE_EVERY % TARGET_RULES) * stride;
            let path = format!("/tenants/{AUTHOR}/rules/{id}/enabled");
            for enabled in [false, true] {
                let body = Json::obj(vec![("enabled", Json::Bool(enabled))]);
                let response = rule_call("api.rule", 0, op, || client.post(&path, &body));
                w.attempted += 1;
                if w.failures.expect("toggle rule", &response, &[200]) {
                    w.rule_op();
                }
            }
            return;
        }
        let s = sentence(&mut self.rng);
        let expected = if s.conflicts { 409 } else { 201 };
        submit_rule(client, w, AUTHOR, &s.text, expected, ("api.rule", 0, op));
        self.sent.push(s);
    }
}

/// The reading thread's state: the traffic generator, the arrival
/// schedule and the wave clock.
struct ReadingLoop {
    traffic: FleetTraffic,
    arrivals: Rng,
    tick: u64,
}

impl ReadingLoop {
    /// When tick `k` of a window starting at `start` is due.
    fn due(&mut self, start: Instant, k: u32) -> Instant {
        let jitter = self.arrivals.below(1 << 20) as f64 / (1u64 << 20) as f64;
        start + PERIOD * k + PERIOD.mul_f64(jitter)
    }

    /// One open-loop reading tick, due at `due`: post every unit's batch,
    /// then run the wave.
    fn tick(&mut self, server: &ApiServer, client: &mut ApiClient, w: &mut Window, due: Instant) {
        let tick_id = span_id();
        let tick_start = now_ns();
        w.gen_late_us
            .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6);
        let at = tick_time(self.tick);
        let batches = self.traffic.tick(at);
        let first = self.tick as usize * POSTS_PER_TICK;
        let units: Vec<usize> = (first..first + POSTS_PER_TICK)
            .map(|i| i % READERS)
            .collect();
        let mut sent = Vec::with_capacity(POSTS_PER_TICK);
        for &i in &units {
            let batch = &batches[i];
            let path = format!("/tenants/{}/readings", tenant_name(i));
            let (response, t0) =
                post_readings(client, &path, &readings_body(batch), tick_id, self.tick);
            w.post_us.push(t0.elapsed().as_secs_f64() * 1e6);
            w.attempted += 1;
            sent.push(admitted_all(&mut w.failures, &response));
        }
        let w0 = Instant::now();
        let report = wave(server, at, tick_id, self.tick);
        let w1 = Instant::now();
        w.attempted += 1;
        w.note_wave(&report, w1 - w0);
        let mut stepped = [false; READERS + 1];
        for outcome in report.outcomes.iter().filter(|o| o.status.is_ok()) {
            stepped[outcome.index] = true;
        }
        // Fleet index 0 is the author tenant; unit `i` is index `i + 1`.
        for (&i, ok) in units.iter().zip(&sent) {
            if !ok {
                continue;
            }
            if !stepped[i + 1] {
                w.failures.note(format!("unit {i} readings not applied"));
                continue;
            }
            w.applied(w1, batches[i].len(), (w1 - due).as_secs_f64() * 1e6);
        }
        record_span(tick_id, 0, "tick", tick_start, self.tick);
        self.tick += 1;
    }
}

pub struct Authoring {
    seed: u64,
    dir: PathBuf,
    server: Option<ApiServer>,
    rules: RuleLoop,
    reads: ReadingLoop,
}

impl Authoring {
    pub fn setup(seed: u64, rep: usize) -> Authoring {
        let dir = fresh_dir(&format!("authoring-{seed}-{rep}"));
        let mut fleet = Fleet::new(&dir, fleet_config());
        fleet
            .add_tenant_arc(AUTHOR, author_builder())
            .expect("fresh author tenant");
        let units = timed_builder(unit_tenant_builder(None));
        for i in 0..READERS {
            fleet
                .add_tenant_arc(tenant_name(i), units.clone())
                .expect("fresh unit tenant");
        }
        let mut env = Authoring {
            seed,
            dir,
            server: Some(bind(fleet)),
            rules: RuleLoop {
                rng: Rng::new(seed ^ 0xa070_0001),
                ops: 0,
                sent: Vec::new(),
            },
            reads: ReadingLoop {
                traffic: FleetTraffic::new(READERS, seed),
                arrivals: Rng::new(seed ^ 0x5c4e_d01e),
                tick: 0,
            },
        };
        // Warm-up: the first analysis builds the conflict graph over the
        // base; a few reading ticks open every unit tenant's WAL path.
        let server = env.server.as_ref().expect("server is up");
        let mut writer = ApiClient::connect(server.addr()).expect("client");
        let mut reader = ApiClient::connect(server.addr()).expect("client");
        let mut warm = Window::default();
        for _ in 0..2 {
            env.rules.op(&mut writer, &mut warm);
        }
        for _ in 0..4 {
            env.reads
                .tick(server, &mut reader, &mut warm, Instant::now());
        }
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
}

impl Workload for Authoring {
    fn window(&mut self, seconds: f64) -> Window {
        let server = self.server.as_ref().expect("server is up");
        let addr = server.addr();
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let mut reads = Window::starting(start);
        let mut rules = Window::starting(start);
        let (rule_loop, reading_loop) = (&mut self.rules, &mut self.reads);
        thread::scope(|scope| {
            let reading = scope.spawn(|| {
                let mut client = ApiClient::connect(addr).expect("client");
                for k in 0u32.. {
                    let due = reading_loop.due(start, k);
                    if due >= deadline {
                        break;
                    }
                    let now = Instant::now();
                    if due > now {
                        thread::sleep(due - now);
                    }
                    reading_loop.tick(server, &mut client, &mut reads, due);
                }
            });
            let mut client = ApiClient::connect(addr).expect("client");
            while Instant::now() < deadline {
                rule_loop.op(&mut client, &mut rules);
                thread::sleep(THINK);
            }
            reading.join().expect("reading thread");
        });
        reads.seconds = start.elapsed().as_secs_f64();
        // No subscriber here: both client connections drive load.
        reads.frames_expected = 0;
        reads.merge(rules);
        reads
    }

    /// Re-derives a seeded sample of sentences' verdicts with the
    /// brute-force oracle over the live base, and checks the base is
    /// back to its original size and every base rule is enabled.
    fn check(&mut self) -> Vec<String> {
        let mut errors = Vec::new();
        let mut rng = Rng::new(self.seed ^ 0x0_ac1e);
        let picks: Vec<usize> = (0..ORACLE_SAMPLE.min(self.rules.sent.len()))
            .map(|_| rng.below(self.rules.sent.len() as u64) as usize)
            .collect();
        let sent = &self.rules.sent;
        self.server().with_fleet(|fleet| {
            let Some(server) = fleet.server_of(AUTHOR) else {
                errors.push("author tenant is not live".into());
                return;
            };
            let db = server.engine().rules();
            if db.len() as u64 != BASE_RULES || db.iter().any(|r| !r.is_enabled()) {
                errors.push(format!("base changed: {} rules", db.len()));
            }
            let user = PersonId::new("resident");
            let dictionary = server
                .users()
                .effective_dictionary(&user)
                .expect("resident exists");
            let registry = server.engine().control().registry().clone();
            let resolver = RegistryResolver::new(&registry, server.topology(), server.users());
            let compiler = Compiler::new(&resolver, &dictionary, user.clone());
            for &i in &picks {
                let s = &sent[i];
                let rule = match parse_command(&s.text, &Lexicon::english(), &dictionary) {
                    Ok(Command::Rule(ast)) => compiler
                        .compile_rule(&ast)
                        .map_err(|e| e.to_string())
                        .and_then(|b| b.build(RuleId::new(1_000_000)).map_err(|e| e.to_string())),
                    Ok(_) => Err("not a rule sentence".into()),
                    Err(e) => Err(e.to_string()),
                };
                match rule.map(|r| cadel_conflict::find_conflicts(db, &r)) {
                    Ok(Ok(found)) if found.is_empty() != s.conflicts => {}
                    other => errors.push(format!("oracle disagrees on {:?}: {other:?}", s.text)),
                }
            }
        });
        errors
    }

    fn teardown(&mut self) -> Vec<String> {
        shutdown(&mut self.server, &self.dir, tick_time(self.reads.tick))
    }
}
