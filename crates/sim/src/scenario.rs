//! The paper's Fig. 1 control scenario: Tom, Alan and Emily share the
//! living room, their preferences collide, and context-scoped priorities
//! arbitrate.
//!
//! The timeline reproduced (x-axis of Fig. 1, here on simulated day 0):
//!
//! | time  | event | expected device reactions |
//! |-------|-------|----------------------------|
//! | 17:00 | Tom enters the living room (*1) | stereo plays jazz (s1), floor lamp half-light (l1) |
//! | 17:30 | room turns hot and stuffy (27 °C / 66 %) | air conditioner 25 °C / 60 % (a1, Tom's word "hot and stuffy") |
//! | 18:00 | Alan got home from work (*2); a baseball game is on air | TV shows the game (t2), stereo volume drops (s′1), air conditioner re-arbitrates to Alan's 24 °C / 55 % (a2) |
//! | 18:55 | heat spike (30 °C / 78 %) | nothing yet — Emily's rule exists but she is not home |
//! | 19:00 | Emily got home from shopping (*3); her movie is on air | TV switches to the movie (t3, Emily outranks Alan in her context), stereo plays the movie sound (s3), fluorescent brightens (l3), air conditioner 27 °C / 65 % (a3); Alan's displaced TV rule falls back to recording the game (r2) |
//!
//! All user rules go through the real pipeline: CADEL sentences are
//! submitted to the home server, conflicts are detected by the Simplex
//! checker, and the Fig. 7 priority prompt is answered with context-scoped
//! orders. The one exception is Alan's fallback recorder rule (r2): the
//! paper gives no language form for "if it is impossible to use the TV";
//! we express it at the IR level against the engine's conflict channel
//! (see `cadel_engine::CONFLICT_CHANNEL`).

use crate::activity::ActivityTimeline;
use crate::schedule::Simulation;
use crate::timechart::TimeChart;
use cadel_conflict::PriorityOrder;
use cadel_devices::LivingRoomHome;
use cadel_engine::CONFLICT_CHANNEL;
use cadel_rule::{ActionSpec, Atom, Condition, EventAtom, PresenceAtom, Rule, Verb};
use cadel_server::{HomeServer, SubmitOutcome};
use cadel_types::{DeviceId, PersonId, Rational, RuleId, SimDuration, SimTime, Topology, Value};
use cadel_upnp::{ControlPoint, FaultPlan, FaultyDevice, Registry, VirtualDevice};

/// Rule ids of the scenario, named after Fig. 1's labels.
#[derive(Clone, Copy, Debug)]
#[allow(missing_docs)]
pub struct ScenarioRules {
    pub s1: RuleId,
    pub s1_quiet: RuleId,
    pub s3: RuleId,
    pub t2: RuleId,
    pub t3: RuleId,
    pub r2: RuleId,
    pub l1: RuleId,
    pub l3: RuleId,
    pub a1: RuleId,
    pub a2: RuleId,
    pub a3: RuleId,
}

/// The world simulated by the scenario.
pub struct ScenarioWorld {
    /// The home server (engine, rules, priorities).
    pub server: HomeServer,
    /// Handles to the living-room devices.
    pub home: LivingRoomHome,
    /// The recorded time chart.
    pub chart: TimeChart,
    /// Per-step engine activity (firings, suppressions, releases).
    pub activity: ActivityTimeline,
    /// Human-readable event log.
    pub log: Vec<String>,
}

impl ScenarioWorld {
    fn snapshot(&mut self, at: SimTime) {
        let home = &self.home;
        let chart = &mut self.chart;
        let text = |v: Result<Value, _>| -> String {
            match v {
                Ok(Value::Text(t)) => t,
                Ok(other) => other.to_string(),
                Err(_) => String::new(),
            }
        };
        // Stereo.
        let stereo = if home.stereo.query("playing") == Ok(Value::Bool(true)) {
            let content = text(home.stereo.query("content"));
            let volume = text(home.stereo.query("volume"));
            format!("{content} vol{volume}")
        } else {
            "off".to_owned()
        };
        chart.record("Stereo", at, stereo);
        // TV.
        let tv = if home.tv.query("power") == Ok(Value::Bool(true)) {
            let content = text(home.tv.query("content"));
            if content.is_empty() {
                "on".to_owned()
            } else {
                content
            }
        } else {
            "off".to_owned()
        };
        chart.record("TV", at, tv);
        // Recorder.
        let recorder = if home.recorder.query("recording") == Ok(Value::Bool(true)) {
            format!("rec {}", text(home.recorder.query("content")))
        } else {
            "off".to_owned()
        };
        chart.record("Recorder", at, recorder);
        // Room light: the fluorescent dominates; else the floor lamp.
        let light = if home.fluorescent.query("power") == Ok(Value::Bool(true)) {
            "bright".to_owned()
        } else if home.floor_lamp.query("power") == Ok(Value::Bool(true)) {
            "half-lighting".to_owned()
        } else {
            "off".to_owned()
        };
        chart.record("Room light", at, light);
        // Air conditioner.
        let aircon = if home.aircon.query("power") == Ok(Value::Bool(true)) {
            format!(
                "{}/{}",
                text(home.aircon.query("setpoint")),
                text(home.aircon.query("humidity-target"))
            )
        } else {
            "off".to_owned()
        };
        chart.record("Air conditioner", at, aircon);
    }
}

/// The built scenario, ready to run.
pub struct LivingRoomScenario {
    sim: Simulation<ScenarioWorld>,
    rules: ScenarioRules,
}

fn hm(h: u64, m: u64) -> SimTime {
    SimTime::EPOCH + SimDuration::from_hours(h) + SimDuration::from_minutes(m)
}

fn presence_ctx(person: &str) -> Condition {
    Condition::Atom(Atom::Presence(PresenceAtom::person_at(
        person,
        "living room",
    )))
}

fn expect_registered(outcome: SubmitOutcome) -> RuleId {
    match outcome {
        SubmitOutcome::Registered { id, .. } => id,
        other => panic!("expected clean registration, got {other:?}"),
    }
}

/// The contexts of the household's priority agreements: whose presence
/// in the living room scopes them, and their label.
const EMILY_HOME: (&str, &str) = ("emily", "Emily got home from shopping");
const ALAN_HOME: (&str, &str) = ("alan", "Alan got home from work");

/// Answers the Fig. 7 prompt for a rule `submit` refused: `user` ranks
/// it (the `None` in `ranking`) among every rule it conflicts with, in a
/// context-scoped order.
fn expect_arbitrated(
    server: &mut HomeServer,
    user: &PersonId,
    outcome: SubmitOutcome,
    ranking: &[Option<RuleId>],
    (person, label): (&str, &str),
) -> RuleId {
    let SubmitOutcome::ConflictDetected { rule, conflicts } = outcome else {
        panic!("expected a conflict, got {outcome:?}");
    };
    let mut partners: Vec<RuleId> = conflicts.iter().map(|c| c.rule_b()).collect();
    let mut ranked: Vec<RuleId> = ranking.iter().flatten().copied().collect();
    partners.sort();
    ranked.sort();
    assert_eq!(
        partners,
        ranked,
        "{} is ranked among its partners",
        rule.id()
    );
    let ranking = ranking.iter().map(|r| r.unwrap_or(rule.id())).collect();
    let order = PriorityOrder::new(rule.action().device().clone(), ranking)
        .in_context(presence_ctx(person))
        .with_label(label);
    expect_registered(server.arbitrate(user, *rule, order).expect("arbitration"))
}

impl LivingRoomScenario {
    /// Builds the home, registers the three occupants' preference rules
    /// through the full registration workflow, and answers the priority
    /// prompts with the household's context-scoped agreements.
    ///
    /// # Panics
    ///
    /// Panics if any registration deviates from the expected workflow —
    /// the scenario doubles as an end-to-end assertion of the pipeline.
    pub fn build() -> LivingRoomScenario {
        LivingRoomScenario::build_with_faults(Vec::new())
    }

    /// Like [`LivingRoomScenario::build`], but wraps the named devices in
    /// seeded [`FaultPlan`]s before the server is created, so the whole
    /// Fig. 1 timeline runs against flaky hardware. Device handles on
    /// [`LivingRoomHome`] keep pointing at the inner devices; their
    /// published sensor readings still pass through the fault decorator's
    /// dropout gate.
    ///
    /// # Panics
    ///
    /// Panics when a fault plan names a device the home does not have, or
    /// if any registration deviates from the expected workflow.
    pub fn build_with_faults(faults: Vec<(DeviceId, FaultPlan)>) -> LivingRoomScenario {
        let registry = Registry::new();
        let home = LivingRoomHome::install(&registry);
        for (device, plan) in faults {
            FaultyDevice::wrap(&registry, &device, plan).expect("wrap scenario device");
        }
        let mut topology = Topology::new("home");
        topology.add_floor("first floor").expect("fresh topology");
        topology
            .add_room("living room", "first floor")
            .expect("fresh topology");
        topology
            .add_room("hall", "first floor")
            .expect("fresh topology");
        let mut server = HomeServer::new(ControlPoint::new(registry), topology);
        let tom = server.add_user("tom").expect("fresh server");
        let emily = server.add_user("emily").expect("fresh server");
        let alan = server.add_user("alan").expect("fresh server");

        // ---- Tom's preferences (§3.1) ---------------------------------
        expect_registered(
            server
                .submit(
                    &tom,
                    "Let's call the condition that temperature is higher than 26 degrees \
                     and humidity is higher than 65 percent hot and stuffy",
                )
                .map(|o| match o {
                    SubmitOutcome::ConditionWordDefined { .. } => SubmitOutcome::Registered {
                        id: RuleId::new(0),
                        dead_conjuncts: vec![],
                    },
                    other => other,
                })
                .expect("word definition"),
        );
        let s1 = expect_registered(
            server
                .submit(
                    &tom,
                    "When I'm in the living room in evening, play jazz music on the stereo.",
                )
                .expect("s1"),
        );
        let l1 = expect_registered(
            server
                .submit(
                    &tom,
                    "When I'm in the living room in evening, dim the floor lamp.",
                )
                .expect("l1"),
        );
        let a1 = expect_registered(
            server
                .submit(
                    &tom,
                    "If hot and stuffy, turn on the air conditioner with 25 degrees of \
                     temperature setting and 60 percent of humidity setting.",
                )
                .expect("a1"),
        );

        // ---- Emily's preferences --------------------------------------
        let t3 = expect_registered(
            server
                .submit(
                    &emily,
                    "When I'm in the living room and a movie is on air, show the movie on the TV.",
                )
                .expect("t3"),
        );
        // Her stereo rule conflicts with Tom's jazz.
        let s3 = server
            .submit(&emily, "When I'm in the living room and a movie is on air, play the movie sound on the stereo.")
            .expect("s3");
        let s3 = expect_arbitrated(&mut server, &emily, s3, &[None, Some(s1)], EMILY_HOME);
        let l3 = expect_registered(
            server
                .submit(&emily, "When I'm in the living room and a movie is on air, brighten the fluorescent light.")
                .expect("l3"),
        );
        // Her air-conditioner rule conflicts with Tom's.
        let a3 = server
            .submit(
                &emily,
                "If temperature is higher than 29 degrees and humidity is higher than \
                 75 percent, turn on the air conditioner with 27 degrees of temperature \
                 setting and 65 percent of humidity setting.",
            )
            .expect("a3");
        let a3 = expect_arbitrated(&mut server, &emily, a3, &[None, Some(a1)], EMILY_HOME);

        // ---- Alan's preferences ---------------------------------------
        // His TV rule conflicts with Emily's: the household gives Emily the
        // upper hand while she is home.
        let t2 = server
            .submit(&alan, "When I'm in the living room and a baseball game is on air, show the baseball game on the TV.")
            .expect("t2");
        let t2 = expect_arbitrated(&mut server, &alan, t2, &[Some(t3), None], EMILY_HOME);
        // His air-conditioner rule conflicts with both others; while he
        // is home it outranks both, and Emily's outranks Tom's as in her
        // own order.
        let a2 = server
            .submit(
                &alan,
                "If temperature is higher than 25 degrees and humidity is higher than \
                 60 percent, turn on the air conditioner with 24 degrees of temperature \
                 setting and 55 percent of humidity setting.",
            )
            .expect("a2");
        let ranking = [None, Some(a3), Some(a1)];
        let a2 = expect_arbitrated(&mut server, &alan, a2, &ranking, ALAN_HOME);

        // ---- Tom's courtesy rule (s′1): lower the stereo when Alan is
        //      home; it conflicts with both stereo rules ----------------
        let s1_quiet = server
            .submit(
                &tom,
                "If Alan is at the living room, set the stereo with 15 percent of volume setting.",
            )
            .expect("s'1");
        let ranking = [None, Some(s3), Some(s1)];
        let s1_quiet = expect_arbitrated(&mut server, &tom, s1_quiet, &ranking, ALAN_HOME);

        // ---- Alan's fallback (r2): record the game when his TV rule is
        //      displaced (IR level — see module docs) -------------------
        let r2_id = server.engine_mut().allocate_rule_id();
        let r2_rule = Rule::builder(alan.clone())
            .condition(
                Condition::Atom(Atom::Event(EventAtom::new(CONFLICT_CHANNEL, "tv-lr:alan"))).and(
                    Condition::Atom(Atom::Event(EventAtom::new("tv-guide", "baseball game"))),
                ),
            )
            .action(
                ActionSpec::new(DeviceId::new("vcr-lr"), Verb::Record)
                    .with_setting("content", Value::from("baseball game")),
            )
            .label("If I cannot use the TV, record the baseball game with the video recorder")
            .build(r2_id)
            .expect("r2 builds");
        let r2 = match server.register_rule(r2_rule).expect("r2 registers") {
            SubmitOutcome::Registered { id, .. } => id,
            other => panic!("unexpected r2 outcome {other:?}"),
        };

        let rules = ScenarioRules {
            s1,
            s1_quiet,
            s3,
            t2,
            t3,
            r2,
            l1,
            l3,
            a1,
            a2,
            a3,
        };

        // ---- The Fig. 1 timeline --------------------------------------
        let mut chart = TimeChart::new();
        for track in ["Stereo", "TV", "Recorder", "Room light", "Air conditioner"] {
            chart.add_track(track);
        }
        let world = ScenarioWorld {
            server,
            home,
            chart,
            activity: ActivityTimeline::new(),
            log: Vec::new(),
        };
        let mut sim = Simulation::new(world);

        sim.schedule(hm(16, 50), |w, at| {
            w.log
                .push(format!("{} initial room: 25°C / 60%", at.time_of_day()));
            w.home
                .thermometer
                .set_reading(Rational::from_integer(25), at)
                .expect("in range");
            w.home
                .hygrometer
                .set_reading(Rational::from_integer(60), at)
                .expect("in range");
        });
        sim.schedule(hm(17, 0), |w, at| {
            w.log.push(format!(
                "{} *1 Tom enters the living room",
                at.time_of_day()
            ));
            let tom = PersonId::new("tom");
            w.home
                .hall_presence
                .announce_arrival(&tom, "returns home", at);
            w.home.living_presence.person_entered(&tom, at);
        });
        sim.schedule(hm(17, 30), |w, at| {
            w.log.push(format!(
                "{} room turns hot and stuffy: 27°C / 66%",
                at.time_of_day()
            ));
            w.home
                .thermometer
                .set_reading(Rational::from_integer(27), at)
                .expect("in range");
            w.home
                .hygrometer
                .set_reading(Rational::from_integer(66), at)
                .expect("in range");
        });
        sim.schedule(hm(18, 0), |w, at| {
            w.log.push(format!(
                "{} *2 Alan got home from work; baseball game on air",
                at.time_of_day()
            ));
            let alan = PersonId::new("alan");
            w.home
                .hall_presence
                .announce_arrival(&alan, "got home from work", at);
            w.home.living_presence.person_entered(&alan, at);
            w.home.tv_guide.start_program("baseball game", at);
        });
        sim.schedule(hm(18, 55), |w, at| {
            w.log
                .push(format!("{} heat spike: 30°C / 78%", at.time_of_day()));
            w.home
                .thermometer
                .set_reading(Rational::from_integer(30), at)
                .expect("in range");
            w.home
                .hygrometer
                .set_reading(Rational::from_integer(78), at)
                .expect("in range");
        });
        sim.schedule(hm(19, 0), |w, at| {
            w.log.push(format!(
                "{} *3 Emily got home from shopping; her movie starts",
                at.time_of_day()
            ));
            let emily = PersonId::new("emily");
            w.home
                .hall_presence
                .announce_arrival(&emily, "got home from shopping", at);
            w.home.living_presence.person_entered(&emily, at);
            w.home.tv_guide.start_program("movie", at);
        });

        LivingRoomScenario { sim, rules }
    }

    /// The named rule ids.
    pub fn rules(&self) -> ScenarioRules {
        self.rules
    }

    /// Mutable access to the home server before the run — e.g. to set
    /// the engine's evaluation thread count for determinism soaks.
    pub fn server_mut(&mut self) -> &mut HomeServer {
        &mut self.sim.world_mut().server
    }

    /// Runs the scenario to 20:00 with one-minute engine steps and returns
    /// the world (chart, log, server, devices).
    pub fn run(mut self) -> ScenarioWorld {
        // Fast-forward quietly to just before the scenario window.
        self.sim
            .run_until(hm(16, 45), SimDuration::from_minutes(45), |w, at| {
                w.server.step(at);
            });
        // Then simulate minute by minute, stepping the engine and
        // recording the chart and activity timeline.
        self.sim
            .run_until(hm(20, 0), SimDuration::from_minutes(1), |w, at| {
                let report = w.server.step(at);
                w.activity.record(at, &report);
                w.snapshot(at);
            });
        self.sim.into_world()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_reproduces_figure_1() {
        let scenario = LivingRoomScenario::build();
        let world = scenario.run();
        let chart = &world.chart;

        // Stereo: s1 (jazz) → s′1 (jazz, low volume) → s3 (movie sound).
        assert_eq!(
            chart.label_sequence("Stereo"),
            vec![
                "off",
                "jazz music vol30%",
                "jazz music vol15%",
                "movie sound vol15%"
            ]
        );
        // TV: t2 (baseball) → t3 (movie).
        assert_eq!(
            chart.label_sequence("TV"),
            vec!["off", "baseball game", "movie"]
        );
        // Recorder: r2 kicks in when Emily takes the TV.
        assert_eq!(
            chart.label_sequence("Recorder"),
            vec!["off", "rec baseball game"]
        );
        // Room light: l1 (half) → l3 (bright).
        assert_eq!(
            chart.label_sequence("Room light"),
            vec!["off", "half-lighting", "bright"]
        );
        // Air conditioner: a1 → a2 → a3.
        assert_eq!(
            chart.label_sequence("Air conditioner"),
            vec!["off", "25°C/60%", "24°C/55%", "27°C/65%"]
        );

        // Spot-check transition times (within a minute of the trigger).
        assert_eq!(
            chart.state_at("Stereo", hm(17, 5)),
            Some("jazz music vol30%")
        );
        assert_eq!(chart.state_at("Air conditioner", hm(17, 29)), Some("off"));
        assert_eq!(
            chart.state_at("Air conditioner", hm(17, 35)),
            Some("25°C/60%")
        );
        assert_eq!(
            chart.state_at("Air conditioner", hm(18, 5)),
            Some("24°C/55%")
        );
        // The 18:55 heat spike does NOT hand Emily the aircon while she is
        // still out shopping.
        assert_eq!(
            chart.state_at("Air conditioner", hm(18, 58)),
            Some("24°C/55%")
        );
        assert_eq!(
            chart.state_at("Air conditioner", hm(19, 5)),
            Some("27°C/65%")
        );
        assert_eq!(chart.state_at("TV", hm(18, 30)), Some("baseball game"));
        assert_eq!(chart.state_at("TV", hm(19, 5)), Some("movie"));
        assert_eq!(
            chart.state_at("Recorder", hm(19, 5)),
            Some("rec baseball game")
        );
    }

    #[test]
    fn scenario_log_and_chart_render() {
        let world = LivingRoomScenario::build().run();
        assert_eq!(world.log.len(), 6);
        let transitions = world.chart.render_transitions();
        assert!(transitions.contains("Air conditioner"));
        let bars = world
            .chart
            .render_bars(hm(16, 30), hm(20, 0), SimDuration::from_minutes(5));
        assert!(bars.contains("legend:"));
    }

    #[test]
    fn scenario_records_activity_timeline() {
        let world = LivingRoomScenario::build().run();
        let activity = &world.activity;
        // Most minutes are idle; the five Fig. 1 triggers are not.
        assert!(activity.idle_steps() > 0);
        assert!(!activity.rows().is_empty());
        let dispatched: usize = activity.rows().iter().map(|r| r.dispatched).sum();
        let suppressed: usize = activity.rows().iter().map(|r| r.suppressed).sum();
        let replaced: usize = activity.rows().iter().map(|r| r.replaced).sum();
        // Tom's arrival dispatches cleanly; later arbitration both
        // suppresses (r2's trigger) and replaces holders (s'1, a2, t3 …).
        assert!(dispatched > 0, "no clean dispatches recorded");
        assert!(suppressed > 0, "no suppressions recorded");
        assert!(replaced > 0, "no replacements recorded");
        let chart = activity.render();
        assert!(chart.starts_with("activity:"));
        // 17:00, Tom enters: jazz on the stereo is a clean dispatch.
        assert!(chart.contains("17:00 |"), "chart:\n{chart}");
        assert!(chart.contains("dispatched"), "chart:\n{chart}");
    }
}
