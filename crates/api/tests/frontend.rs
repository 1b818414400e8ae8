//! Live-socket integration tests for the hardened frontend: every
//! robustness boundary is provoked over a real TCP connection.

use cadel_api::{subscribe, ApiClient, ApiConfig, ApiServer, RateLimitConfig};
use cadel_fleet::{Fleet, FleetConfig};
use cadel_server::{Privilege, Scope};
use cadel_sim::{tenant_name, unit_tenant_builder};
use cadel_types::json::Json;
use cadel_types::{RuleId, SimDuration, SimTime};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

fn mins(m: u64) -> SimTime {
    SimTime::EPOCH + SimDuration::from_minutes(m)
}

fn root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cadel-api-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn unit_fleet(tag: &str, tenants: usize, config: FleetConfig) -> Fleet {
    let mut fleet = Fleet::new(root(tag), config);
    let builder = unit_tenant_builder(None);
    for i in 0..tenants {
        fleet
            .add_tenant_arc(tenant_name(i), builder.clone())
            .expect("tenant builds");
    }
    fleet
}

fn fast_config() -> ApiConfig {
    ApiConfig {
        read_timeout: Duration::from_millis(100),
        write_timeout: Duration::from_millis(500),
        idle_timeout: Duration::from_millis(800),
        heartbeat: Duration::from_millis(50),
        rate_limit: None,
        ..ApiConfig::default()
    }
}

fn reading(device: &str, variable: &str, value: i64, unit: &str, at: SimTime) -> Json {
    Json::obj(vec![
        ("device", Json::str(device)),
        ("variable", Json::str(variable)),
        ("value", Json::Int(value)),
        ("unit", Json::str(unit)),
        ("at_ms", Json::Int(at.as_millis() as i64)),
    ])
}

fn readings_body(items: Vec<Json>) -> Json {
    Json::obj(vec![("readings", Json::Arr(items))])
}

#[test]
fn routes_health_and_errors() {
    let server = ApiServer::bind(
        "127.0.0.1:0",
        unit_fleet("routes", 1, FleetConfig::default()),
        fast_config(),
    )
    .expect("bind");
    let mut client = ApiClient::connect(server.addr()).expect("connect");

    let health = client.get("/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    assert_eq!(health.text(), "ok\n");

    let ready = client.get("/readyz").expect("readyz");
    assert_eq!(ready.status, 200);
    let doc = ready.json().expect("json body");
    assert_eq!(doc.get("ready").and_then(Json::as_bool), Some(true));

    let fleet_health = client.get("/fleet/health").expect("fleet health");
    let doc = fleet_health.json().expect("json body");
    assert_eq!(doc.get("healthy").and_then(Json::as_int), Some(1));

    let tenant = client
        .get("/tenants/unit-0000/health")
        .expect("tenant health");
    assert_eq!(tenant.status, 200);
    let doc = tenant.json().expect("json body");
    assert_eq!(doc.get("state").and_then(Json::as_str), Some("healthy"));

    // Typed misses: unknown tenant, unknown route, malformed body.
    assert_eq!(client.get("/tenants/nope/health").unwrap().status, 404);
    assert_eq!(client.get("/no/such/route").unwrap().status, 404);
    let bad = client
        .post(
            "/tenants/unit-0000/readings",
            &Json::obj(vec![("x", Json::Int(1))]),
        )
        .expect("post");
    assert_eq!(bad.status, 422);

    let rules = client.get("/tenants/unit-0000/rules").expect("rules");
    assert_eq!(rules.status, 200);
    let listing = rules.json().expect("rule export is JSON");
    assert_eq!(
        listing.as_arr().map(<[Json]>::len),
        Some(3),
        "unit tenant exports its three seeded rules"
    );

    let outcome = server.shutdown(Duration::from_secs(5), mins(1));
    assert!(outcome.is_clean(), "{outcome:?}");
}

#[test]
fn readings_fire_rules_and_notify_subscribers() {
    let server = ApiServer::bind(
        "127.0.0.1:0",
        unit_fleet("notify", 1, FleetConfig::default()),
        fast_config(),
    )
    .expect("bind");
    let mut stream =
        subscribe(server.addr(), Some("unit-0000"), Duration::from_secs(5)).expect("subscribe");
    assert!(stream.sid().starts_with("uuid:cadel-"), "{}", stream.sid());

    let mut client = ApiClient::connect(server.addr()).expect("connect");
    let posted = client
        .post(
            "/tenants/unit-0000/readings",
            &readings_body(vec![reading(
                "thermo-0",
                "temperature",
                30,
                "celsius",
                mins(1),
            )]),
        )
        .expect("post readings");
    assert_eq!(posted.status, 202, "{}", posted.text());
    let doc = posted.json().expect("json body");
    assert_eq!(doc.get("accepted").and_then(Json::as_int), Some(1));

    // Drive the wave over the wire and expect the cool rule to fire.
    let stepped = client
        .post(
            "/step",
            &Json::obj(vec![("at_ms", Json::Int(mins(1).as_millis() as i64))]),
        )
        .expect("step");
    assert_eq!(stepped.status, 200, "{}", stepped.text());

    let event = stream
        .next_event()
        .expect("event frame")
        .expect("stream open");
    assert!(
        event.starts_with("NOTIFY") && event.contains("unit-0000") && event.contains("aircon-0"),
        "unexpected frame: {event}"
    );

    // Drain: the subscriber hears GOODBYE before the close.
    let outcome = server.shutdown(Duration::from_secs(5), mins(2));
    assert!(outcome.is_clean(), "{outcome:?}");
    let mut saw_goodbye = false;
    while let Ok(Some(frame)) = stream.next_frame() {
        if frame.starts_with("GOODBYE") {
            saw_goodbye = true;
            break;
        }
    }
    assert!(saw_goodbye, "subscriber should hear GOODBYE on drain");
}

#[test]
fn rule_lifecycle_over_the_wire() {
    let server = ApiServer::bind(
        "127.0.0.1:0",
        unit_fleet("rules", 1, FleetConfig::default()),
        fast_config(),
    )
    .expect("bind");
    let mut client = ApiClient::connect(server.addr()).expect("connect");

    let submitted = client
        .post(
            "/tenants/unit-0000/rules",
            &Json::obj(vec![
                ("user", Json::str("resident")),
                (
                    "sentence",
                    Json::str("If humidity is higher than 80 percent, turn on the lamp."),
                ),
            ]),
        )
        .expect("submit");
    assert!(
        submitted.status == 201 || submitted.status == 409,
        "unexpected: {} {}",
        submitted.status,
        submitted.text()
    );
    let doc = submitted.json().expect("json body");
    let outcome = doc.get("outcome").and_then(Json::as_str).unwrap_or("");

    if outcome == "registered" {
        let id = doc.get("rule").and_then(Json::as_int).expect("rule id");
        // Toggle it off and on, then remove it.
        let toggled = client
            .post(
                &format!("/tenants/unit-0000/rules/{id}/enabled"),
                &Json::obj(vec![("enabled", Json::Bool(false))]),
            )
            .expect("toggle");
        assert_eq!(toggled.status, 200, "{}", toggled.text());
        let removed = client
            .delete(&format!("/tenants/unit-0000/rules/{id}"))
            .expect("remove");
        assert_eq!(removed.status, 200, "{}", removed.text());
        // Removing again is a typed miss.
        let again = client
            .delete(&format!("/tenants/unit-0000/rules/{id}"))
            .expect("remove again");
        assert_eq!(again.status, 404, "{}", again.text());
    }

    // A sentence the language rejects maps to 422, not a hang or 500.
    let garbled = client
        .post(
            "/tenants/unit-0000/rules",
            &Json::obj(vec![
                ("user", Json::str("resident")),
                ("sentence", Json::str("Banana banana banana.")),
            ]),
        )
        .expect("garbled submit");
    assert_eq!(garbled.status, 422, "{}", garbled.text());
    // So does a rule that parses but compares one sensor under two
    // dimensions: it is refused, not reported as a conflict.
    let clash = client
        .post(
            "/tenants/unit-0000/rules",
            &Json::obj(vec![
                ("user", Json::str("resident")),
                (
                    "sentence",
                    Json::str(
                        "If the temperature is higher than 26 degrees and the temperature \
                         is lower than 60 percent, turn on the air conditioner.",
                    ),
                ),
            ]),
        )
        .expect("clash submit");
    assert_eq!(clash.status, 422, "{}", clash.text());
    let doc = clash.json().expect("json body");
    assert_eq!(doc.get("error").and_then(Json::as_str), Some("rule_error"));
    assert!(
        clash.text().contains("dimension mismatch"),
        "{}",
        clash.text()
    );
    // An unknown user is a typed 404.
    let ghost = client
        .post(
            "/tenants/unit-0000/rules",
            &Json::obj(vec![
                ("user", Json::str("nobody")),
                (
                    "sentence",
                    Json::str("If humidity is higher than 80 percent, turn on the lamp."),
                ),
            ]),
        )
        .expect("ghost submit");
    assert_eq!(ghost.status, 404, "{}", ghost.text());

    drop(server);
}

/// The air conditioner's `with` partners named in a 409 body.
fn conflict_partners(doc: &Json) -> Vec<i64> {
    doc.get("conflicts")
        .and_then(Json::as_arr)
        .expect("a 409 lists its conflicts")
        .iter()
        .map(|c| {
            assert!(
                c.get("detail").and_then(Json::as_str).is_some(),
                "each conflict carries its detail: {c:?}"
            );
            c.get("with").and_then(Json::as_int).expect("with")
        })
        .collect()
}

/// Turning the air conditioner off above 28 °C contests both of the
/// unit's air-conditioner rules: cooling (1, on above 26 °C) and drying
/// (2, on above 70 % humidity).
const COOL_OFF: &str =
    "If the temperature is higher than 28 degrees, turn off the air conditioner.";

fn cool_off(priority: Option<Json>) -> Json {
    let mut members = vec![
        ("user", Json::str("resident")),
        ("sentence", Json::str(COOL_OFF)),
    ];
    members.extend(priority.map(|p| ("priority", p)));
    Json::obj(members)
}

fn ranking(entries: Vec<Json>) -> Json {
    Json::obj(vec![("ranking", Json::Arr(entries))])
}

#[test]
fn a_conflicting_rule_is_refused_without_parking_it() {
    let server = ApiServer::bind(
        "127.0.0.1:0",
        unit_fleet("unpark", 1, FleetConfig::default()),
        fast_config(),
    )
    .expect("bind");
    let mut client = ApiClient::connect(server.addr()).expect("connect");
    let mut post = |path: &str, body: Json| {
        let path = format!("/tenants/unit-0000/rules{path}");
        let response = client.post(&path, &body).expect("post");
        (response.status, response.json().expect("json body"))
    };
    let rules = || {
        server.with_fleet(|fleet| {
            let home = fleet.server_of("unit-0000").expect("tenant is live");
            home.engine().rules().len()
        })
    };
    let enabled = |on| Json::obj(vec![("enabled", Json::Bool(on))]);

    // 409 names both partners, and the refused rule is not kept.
    let (status, doc) = post("", cool_off(None));
    assert_eq!(status, 409);
    assert_eq!(conflict_partners(&doc), vec![1, 2]);
    assert!(doc.get("ticket").is_none());
    assert_eq!(rules(), 3);
    // With both air-conditioner rules disabled the same rule registers;
    // re-enabling the cooling rule then conflicts with it, and that 409
    // leaves the cooling rule disabled.
    assert_eq!(post("/1/enabled", enabled(false)).0, 200);
    assert_eq!(post("/2/enabled", enabled(false)).0, 200);
    let (status, doc) = post("", cool_off(None));
    assert_eq!(status, 201);
    let added = doc.get("rule").and_then(Json::as_int).expect("rule id");
    let (status, doc) = post("/1/enabled", enabled(true));
    assert_eq!(status, 409);
    assert_eq!(conflict_partners(&doc), vec![added]);
    assert_eq!(rules(), 4);
    let cooling_enabled = server.with_fleet(|fleet| {
        let home = fleet.server_of("unit-0000").expect("tenant is live");
        home.engine()
            .rules()
            .get(RuleId::new(1))
            .map(|r| r.is_enabled())
    });
    assert_eq!(cooling_enabled, Some(false));
}

#[test]
fn a_priority_arbitrates_the_submission_over_the_wire() {
    let server = ApiServer::bind(
        "127.0.0.1:0",
        unit_fleet("arbitrate", 1, FleetConfig::default()),
        fast_config(),
    )
    .expect("bind");
    let mut client = ApiClient::connect(server.addr()).expect("connect");
    let mut post = |body: Json| {
        let response = client
            .post("/tenants/unit-0000/rules", &body)
            .expect("post");
        (response.status, response.json().expect("json body"))
    };
    let snapshot = || {
        server.with_fleet(|fleet| {
            let home = fleet.server_of("unit-0000").expect("tenant is live");
            home.snapshot_json().to_compact()
        })
    };
    let new = || Json::str("new");
    let id = |n| Json::Int(n);

    // A priority on a word definition is a typed 400 (malformed
    // priorities are covered in `hostile_parse.rs`).
    let before = snapshot();
    let definition = Json::obj(vec![
        ("user", Json::str("resident")),
        (
            "sentence",
            Json::str(
                "Let's call the condition that temperature is higher than 28 degrees sweltering",
            ),
        ),
        ("priority", ranking(vec![new()])),
    ]);
    let (status, doc) = post(definition);
    assert_eq!(status, 400);
    assert_eq!(
        doc.get("error").and_then(Json::as_str),
        Some("priority_on_definition")
    );
    // An order that does not rank the submitted rule is refused: 422.
    let (status, doc) = post(cool_off(Some(ranking(vec![id(1), id(2)]))));
    assert_eq!(status, 422);
    assert_eq!(
        doc.get("error").and_then(Json::as_str),
        Some("order_refused")
    );
    assert_eq!(snapshot_rules(&snapshot()), snapshot_rules(&before));

    // No order on the device yet: a ranking that misses partner 2 is a
    // 409 naming it, and nothing is stored.
    let (status, doc) = post(cool_off(Some(ranking(vec![new(), id(1)]))));
    assert_eq!(status, 409);
    assert_eq!(conflict_partners(&doc), vec![2]);
    assert_eq!(snapshot_rules(&snapshot()), snapshot_rules(&before));

    // Ranking both partners installs the rule with its order.
    let (status, doc) = post(cool_off(Some(ranking(vec![new(), id(1), id(2)]))));
    assert_eq!(status, 201, "{doc:?}");
    let added = doc.get("rule").and_then(Json::as_int).expect("rule id");
    let orders = server.with_fleet(|fleet| {
        let home = fleet.server_of("unit-0000").expect("tenant is live");
        home.engine().priorities().orders().to_vec()
    });
    assert_eq!(orders.len(), 1);
    let expected: Vec<RuleId> = [added, 1, 2]
        .iter()
        .map(|n| RuleId::new(*n as u64))
        .collect();
    assert_eq!(orders[0].ranking(), expected.as_slice());
    // One partner, one more order: turning the lamp off above 28 °C
    // contests only the heat-warning rule (3, on after 3 min above 25 °C).
    let lamp_off = Json::obj(vec![
        ("user", Json::str("resident")),
        (
            "sentence",
            Json::str("If the temperature is higher than 28 degrees, turn off the lamp."),
        ),
        ("priority", ranking(vec![new(), id(3)])),
    ]);
    let (status, doc) = post(lamp_off);
    assert_eq!(status, 201, "{doc:?}");
    let orders = server.with_fleet(|fleet| {
        let home = fleet.server_of("unit-0000").expect("tenant is live");
        home.engine().priorities().orders().to_vec()
    });
    assert_eq!(orders.len(), 2);
    assert_eq!(orders[1].device().as_str(), "lamp-0");

    // A user without the Arbitrate privilege is refused: 403.
    server.with_fleet(|fleet| {
        let home = fleet.server_mut_of("unit-0000").expect("tenant is live");
        let resident = cadel_types::PersonId::new("resident");
        let access = home.access_mut();
        access.grant(&resident, Scope::AllDevices, Privilege::Observe);
        access.grant(&resident, Scope::AllDevices, Privilege::Control);
        access.set_enforcing(true);
    });
    let (status, doc) = post(cool_off(Some(ranking(vec![
        new(),
        id(added),
        id(1),
        id(2),
    ]))));
    assert_eq!(status, 403, "{doc:?}");
}

/// The `rules` member of a snapshot document.
fn snapshot_rules(snapshot: &str) -> Json {
    let doc = cadel_types::json::parse(snapshot).expect("snapshot is JSON");
    doc.get("rules").cloned().expect("snapshot lists rules")
}

#[test]
fn hostile_frames_get_typed_refusals_and_service_survives() {
    let server = ApiServer::bind(
        "127.0.0.1:0",
        unit_fleet("hostile", 1, FleetConfig::default()),
        fast_config(),
    )
    .expect("bind");
    let addr = server.addr();

    let send_raw = |bytes: &[u8]| -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let _ = stream.write_all(bytes);
        let mut out = String::new();
        let _ = stream.read_to_string(&mut out);
        out
    };

    // Garbage bytes: typed 400, not a panic.
    let reply = send_raw(b"\xff\xfe\xfdnot http at all\r\n\r\n");
    assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
    // Unsupported method.
    let reply = send_raw(b"BREW /coffee HTTP/1.1\r\n\r\n");
    assert!(reply.starts_with("HTTP/1.1 405"), "{reply}");
    // Oversized declared body, refused before buffering.
    let reply =
        send_raw(b"POST /tenants/unit-0000/readings HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n");
    assert!(reply.starts_with("HTTP/1.1 413"), "{reply}");
    // Oversized head.
    let mut huge = Vec::from(&b"GET /healthz HTTP/1.1\r\n"[..]);
    huge.extend(std::iter::repeat_n(b'a', 9 * 1024));
    let reply = send_raw(&huge);
    assert!(reply.starts_with("HTTP/1.1 431"), "{reply}");
    // Chunked transfer is refused, not misframed.
    let reply = send_raw(b"POST /step HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
    assert!(reply.starts_with("HTTP/1.1 501"), "{reply}");
    // Slow loris: a torn head that never completes is answered 408
    // once the idle budget lapses.
    let reply = send_raw(b"GET /healthz HTTP/1.1\r\nHost: partial");
    assert!(reply.starts_with("HTTP/1.1 408"), "{reply}");

    // After all of that, the service still answers cleanly.
    let mut client = ApiClient::connect(addr).expect("connect");
    assert_eq!(client.get("/healthz").expect("healthz").status, 200);
    let outcome = server.shutdown(Duration::from_secs(5), mins(1));
    assert!(outcome.is_clean(), "{outcome:?}");
}

#[test]
fn rate_limit_and_connection_cap_shed_with_retry_after() {
    let config = ApiConfig {
        max_connections: 2,
        rate_limit: Some(RateLimitConfig {
            burst: 3,
            per_second: 0.5,
        }),
        ..fast_config()
    };
    let server = ApiServer::bind(
        "127.0.0.1:0",
        unit_fleet("limits", 1, FleetConfig::default()),
        config,
    )
    .expect("bind");
    // The subscriber takes one connection slot (and one token) first,
    // before the bucket is exhausted below.
    let _stream = subscribe(server.addr(), None, Duration::from_secs(5)).expect("subscribe");
    let mut client = ApiClient::connect(server.addr()).expect("connect");

    // /healthz is exempt; /fleet/health is not. Tokens refill at 0.5/s,
    // so the burst of 3 (minus the subscription) runs dry quickly.
    let mut limited = None;
    for _ in 0..5 {
        let response = client.get("/fleet/health").expect("request");
        if response.status == 429 {
            limited = Some(response);
            break;
        }
        assert_eq!(response.status, 200);
    }
    let limited = limited.expect("token bucket should refuse within the burst");
    assert!(
        limited.retry_after().is_some(),
        "429 must carry Retry-After"
    );
    assert_eq!(client.get("/healthz").expect("exempt").status, 200);

    // Connection cap: the subscriber holds one slot, the client above
    // the second; the third connection is refused 503.
    let mut third = TcpStream::connect(server.addr()).expect("connect");
    third
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut reply = String::new();
    let _ = third.read_to_string(&mut reply);
    assert!(reply.starts_with("HTTP/1.1 503"), "{reply}");
    assert!(
        reply.to_ascii_lowercase().contains("retry-after"),
        "{reply}"
    );

    drop(server);
}

#[test]
fn overload_sheds_with_retry_after_until_stepped() {
    // Tiny inboxes and a low watermark: a handful of distinct-variable
    // readings saturates the fleet.
    let fleet_config = FleetConfig {
        inbox_capacity: 4,
        backpressure_watermark: 0.5,
        ..FleetConfig::default()
    };
    let server = ApiServer::bind(
        "127.0.0.1:0",
        unit_fleet("overload", 1, fleet_config),
        fast_config(),
    )
    .expect("bind");
    let mut client = ApiClient::connect(server.addr()).expect("connect");

    // Non-coalescible entries (distinct variables) fill the inbox.
    let fill = readings_body(
        (0..4)
            .map(|i| reading("thermo-0", &format!("aux-{i}"), i, "celsius", mins(1)))
            .collect(),
    );
    let filled = client
        .post("/tenants/unit-0000/readings", &fill)
        .expect("fill");
    assert_eq!(filled.status, 202, "{}", filled.text());

    // Past the watermark: admission is refused with Retry-After.
    let shed = client
        .post(
            "/tenants/unit-0000/readings",
            &readings_body(vec![reading(
                "thermo-0",
                "temperature",
                30,
                "celsius",
                mins(1),
            )]),
        )
        .expect("shed post");
    assert_eq!(shed.status, 503, "{}", shed.text());
    assert!(
        shed.retry_after().is_some(),
        "503 shed must carry Retry-After"
    );
    let ready = client.get("/readyz").expect("readyz");
    assert_eq!(ready.status, 503, "readyz must reflect overload");

    // One wave drains the backlog; admission recovers.
    server.step_fleet(mins(2));
    let recovered = client
        .post(
            "/tenants/unit-0000/readings",
            &readings_body(vec![reading(
                "thermo-0",
                "temperature",
                22,
                "celsius",
                mins(3),
            )]),
        )
        .expect("recovered post");
    assert_eq!(recovered.status, 202, "{}", recovered.text());

    let outcome = server.shutdown(Duration::from_secs(5), mins(4));
    assert!(outcome.is_clean(), "{outcome:?}");
}

#[test]
fn shutdown_drains_checkpoints_and_persists() {
    let dir = root("drain");
    let mut fleet = Fleet::new(&dir, FleetConfig::default());
    let builder = unit_tenant_builder(None);
    fleet
        .add_tenant_arc(tenant_name(0), builder.clone())
        .expect("tenant builds");
    let server = ApiServer::bind("127.0.0.1:0", fleet, fast_config()).expect("bind");
    let mut client = ApiClient::connect(server.addr()).expect("connect");
    let posted = client
        .post(
            "/tenants/unit-0000/readings",
            &readings_body(vec![reading(
                "thermo-0",
                "temperature",
                30,
                "celsius",
                mins(1),
            )]),
        )
        .expect("post");
    assert_eq!(posted.status, 202);

    // Shutdown must flush the queued reading (firing the cool rule)
    // and checkpoint durably.
    let outcome = server.shutdown(Duration::from_secs(10), mins(1));
    assert!(outcome.is_clean(), "{outcome:?}");
    assert!(outcome.fleet.drained);

    // A fresh fleet over the same root recovers the tenant from its
    // WAL — the admitted work survived the process.
    let mut reopened = Fleet::new(&dir, FleetConfig::default());
    reopened
        .add_tenant_arc(tenant_name(0), builder)
        .expect("tenant rebuilds from WAL");
    let snapshot = reopened
        .server_of(&tenant_name(0))
        .expect("healthy")
        .snapshot_json()
        .to_compact();
    assert!(
        snapshot.contains("aircon-0"),
        "recovered state should know the fired aircon: {snapshot}"
    );
}
