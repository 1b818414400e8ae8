//! Conflict detection and the priority prompt (paper §4.4 and Fig. 7).
//!
//! Tom and Alan both automate the air conditioner with overlapping
//! trigger ranges and different set-points; the server detects the
//! conflict by Simplex satisfiability, refuses the rule with a witness,
//! and the household answers the priority prompt by arbitrating the
//! refused rule with a context-scoped order. Then the runtime
//! demonstrates the arbitration both ways.
//!
//! ```text
//! cargo run --example conflict_demo
//! ```

use cadel::devices::LivingRoomHome;
use cadel::rule::{Atom, Condition, PresenceAtom};
use cadel::server::{HomeServer, PriorityOrder, SubmitOutcome};
use cadel::types::{PersonId, Rational, SimDuration, SimTime, Topology, Value};
use cadel::upnp::{ControlPoint, Registry, VirtualDevice};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let registry = Registry::new();
    let home = LivingRoomHome::install(&registry);
    let mut topology = Topology::new("home");
    topology.add_floor("first floor")?;
    topology.add_room("living room", "first floor")?;
    topology.add_room("hall", "first floor")?;
    let mut server = HomeServer::new(ControlPoint::new(registry), topology);
    let tom = server.add_user("tom")?;
    let alan = server.add_user("alan")?;

    // Tom first.
    let tom_rule = "If temperature is higher than 26 degrees and humidity is higher than \
                    65 percent, turn on the air conditioner with 25 degrees of temperature setting.";
    println!("tom:  {tom_rule:?}");
    let tom_id = match server.submit(&tom, tom_rule)? {
        SubmitOutcome::Registered { id, .. } => {
            println!("  -> registered as {id}\n");
            id
        }
        other => panic!("unexpected {other:?}"),
    };

    // Alan's overlapping preference.
    let alan_rule = "If temperature is higher than 25 degrees and humidity is higher than \
                     60 percent, turn on the air conditioner with 24 degrees of temperature setting.";
    println!("alan: {alan_rule:?}");
    let rule = match server.submit(&alan, alan_rule)? {
        SubmitOutcome::ConflictDetected { rule, conflicts } => {
            println!("  -> CONFLICT detected with {} rule(s):", conflicts.len());
            for c in &conflicts {
                println!("     {c}");
            }
            rule
        }
        other => panic!("expected a conflict, got {other:?}"),
    };

    // The household answers the Fig. 7 prompt: Alan outranks Tom while
    // Alan is in the living room. Arbitration re-checks the refused rule
    // against the live base and installs it with the order.
    let ctx = Condition::Atom(Atom::Presence(PresenceAtom::person_at(
        "alan",
        "living room",
    )));
    let order = PriorityOrder::new(rule.action().device().clone(), vec![rule.id(), tom_id])
        .in_context(ctx)
        .with_label("Alan is in the living room");
    match server.arbitrate(&alan, *rule, order)? {
        SubmitOutcome::Registered { id, .. } => println!("  -> arbitrated, registered as {id}"),
        other => panic!("expected the arbitration to register, got {other:?}"),
    }
    println!("\npriority registered:");
    for order in server.engine().priorities().orders() {
        println!("  {order}");
    }

    // --- Runtime arbitration ---------------------------------------------
    let mut now = SimTime::EPOCH + SimDuration::from_hours(18);
    home.thermometer
        .set_reading(Rational::from_integer(28), now)?;
    home.hygrometer
        .set_reading(Rational::from_integer(70), now)?;
    now += SimDuration::from_secs(1);
    server.step(now);
    println!(
        "\n18:00 both rules trigger, Alan away  -> setpoint {:?} (Tom wins: earliest rule)",
        home.aircon.query("setpoint")?
    );
    assert_eq!(
        home.aircon.query("setpoint")?,
        Value::Number(cadel::types::Quantity::from_integer(
            25,
            cadel::types::Unit::Celsius
        ))
    );

    now += SimDuration::from_minutes(10);
    home.living_presence
        .person_entered(&PersonId::new("alan"), now);
    now += SimDuration::from_secs(1);
    server.step(now);
    println!(
        "18:10 Alan enters the living room    -> setpoint {:?} (his context priority wins)",
        home.aircon.query("setpoint")?
    );
    assert_eq!(
        home.aircon.query("setpoint")?,
        Value::Number(cadel::types::Quantity::from_integer(
            24,
            cadel::types::Unit::Celsius
        ))
    );

    now += SimDuration::from_minutes(10);
    home.living_presence
        .person_left(&PersonId::new("alan"), now);
    now += SimDuration::from_secs(1);
    server.step(now);
    println!(
        "18:20 Alan leaves                    -> setpoint {:?} (unresolved ties keep the holder)",
        home.aircon.query("setpoint")?
    );
    Ok(())
}
