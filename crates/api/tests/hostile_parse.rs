//! Hostile-input fuzzing for the wire parser: seeded random byte
//! streams, systematic truncations, and byte-flip mutations of valid
//! requests, plus seeded hostile `priority` members of a rule
//! submission. The contract under test is the robustness headline —
//! every outcome is either a parsed request or a *typed*
//! [`ParseError`] (for a `priority`, a typed `400`); nothing panics,
//! nothing buffers past its cap.
//!
//! Runs inside the CI determinism matrix: all randomness is seeded,
//! so a failing case replays exactly from the printed seed.

use cadel_api::proto::parse_priority;
use cadel_api::{ApiClient, ApiConfig, ApiServer, ParseError, WireLimits, WireReader};
use cadel_fleet::{Fleet, FleetConfig};
use cadel_sim::{tenant_name, unit_tenant_builder};
use cadel_types::json::Json;
use cadel_types::Rng;
use std::io::Cursor;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

const LIMITS: WireLimits = WireLimits {
    max_head_bytes: 1024,
    max_body_bytes: 4096,
};

/// A well-formed request the mutation cases start from.
const VALID: &[u8] = b"POST /tenants/unit-0000/readings HTTP/1.1\r\n\
Host: cadel\r\n\
Content-Type: application/json\r\n\
Content-Length: 26\r\n\
\r\n\
{\"readings\":[{\"value\":1}]}";

/// Parses one byte stream, classifying the outcome. Panics inside the
/// parser are caught and reported as test failures with the input.
fn parse_outcome(bytes: &[u8]) -> Result<Result<(), ParseError>, String> {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut reader = WireReader::new(Cursor::new(bytes.to_vec()));
        reader.read_request(&LIMITS, None).map(|_| ())
    }));
    result.map_err(|_| {
        format!(
            "parser panicked on {} bytes: {:?}",
            bytes.len(),
            &bytes[..bytes.len().min(64)]
        )
    })
}

#[test]
fn random_byte_streams_never_panic_and_fail_typed() {
    let mut rng = Rng::new(0xF00D);
    let mut typed = 0usize;
    for case in 0..2_000 {
        let len = rng.below(600) as usize;
        let mut bytes = Vec::with_capacity(len);
        for _ in 0..len {
            bytes.push((rng.next_u64() & 0xff) as u8);
        }
        match parse_outcome(&bytes) {
            Err(panic) => panic!("case {case}: {panic}"),
            Ok(Err(_)) => typed += 1,
            // A random stream that parses as a request is astronomically
            // unlikely but not wrong.
            Ok(Ok(())) => {}
        }
    }
    assert!(
        typed >= 1_990,
        "random streams should fail typed ({typed}/2000)"
    );
}

#[test]
fn every_truncation_of_a_valid_request_fails_typed() {
    for cut in 0..VALID.len() {
        match parse_outcome(&VALID[..cut]) {
            Err(panic) => panic!("truncation at {cut}: {panic}"),
            Ok(Ok(())) => panic!("truncation at {cut} should not parse"),
            Ok(Err(error)) => {
                // Every truncation is a closed/torn connection — the
                // two prefix-shaped errors — never a misparse.
                assert!(
                    matches!(
                        error,
                        ParseError::ConnectionClosed | ParseError::TornFrame { .. }
                    ),
                    "truncation at {cut}: unexpected error {error:?}"
                );
            }
        }
    }
    // The untruncated request parses.
    assert!(parse_outcome(VALID).expect("no panic").is_ok());
}

#[test]
fn single_byte_flips_never_panic() {
    let mut rng = Rng::new(0xBEEF);
    for case in 0..2_000 {
        let mut bytes = VALID.to_vec();
        let at = rng.below(bytes.len() as u64) as usize;
        bytes[at] ^= (1 + rng.below(255)) as u8;
        if let Err(panic) = parse_outcome(&bytes) {
            panic!("case {case} (flip at {at}): {panic}");
        }
    }
}

#[test]
fn random_splices_of_valid_fragments_never_panic() {
    let mut rng = Rng::new(0xCAFE);
    for case in 0..1_000 {
        let mut bytes = Vec::new();
        for _ in 0..rng.below(6) {
            let a = rng.below(VALID.len() as u64) as usize;
            let b = rng.below(VALID.len() as u64) as usize;
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            bytes.extend_from_slice(&VALID[lo..hi]);
        }
        if let Err(panic) = parse_outcome(&bytes) {
            panic!("case {case}: {panic}");
        }
    }
}

#[test]
fn caps_hold_under_hostile_declarations() {
    // A head that never ends is cut at the head cap.
    let mut endless = Vec::from(&b"GET / HTTP/1.1\r\n"[..]);
    while endless.len() < 8 * LIMITS.max_head_bytes {
        endless.extend_from_slice(b"X-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
    }
    match parse_outcome(&endless).expect("no panic") {
        Err(ParseError::HeadTooLarge { limit }) => assert_eq!(limit, LIMITS.max_head_bytes),
        other => panic!("expected HeadTooLarge, got {other:?}"),
    }

    // A body declared past the cap is refused before buffering.
    let big = b"POST / HTTP/1.1\r\nContent-Length: 1000000\r\n\r\n";
    match parse_outcome(big).expect("no panic") {
        Err(ParseError::BodyTooLarge { length, limit }) => {
            assert_eq!(length, 1_000_000);
            assert_eq!(limit, LIMITS.max_body_bytes);
        }
        other => panic!("expected BodyTooLarge, got {other:?}"),
    }

    // Absurd Content-Length values do not overflow.
    let absurd = b"POST / HTTP/1.1\r\nContent-Length: 99999999999999999999999999\r\n\r\n";
    match parse_outcome(absurd).expect("no panic") {
        Err(ParseError::InvalidContentLength | ParseError::BodyTooLarge { .. }) => {}
        other => panic!("expected a typed length error, got {other:?}"),
    }
}

/// A random JSON value, at most `depth` levels deep, biased toward the
/// shapes a `priority` member is made of.
fn hostile_json(rng: &mut Rng, depth: u32) -> Json {
    let keys = ["ranking", "label", "context", "priority", ""];
    match rng.below(if depth == 0 { 5 } else { 7 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.chance(1, 2)),
        2 => Json::Int(*rng.pick(&[-1, 0, 3, i64::MAX, i64::MIN])),
        3 => Json::Float(*rng.pick(&[0.5, -0.0, 1e300])),
        4 => Json::str(*rng.pick(&["new", "NEW", "", "1", "rule#1"])),
        5 => Json::Arr(
            (0..rng.below(5))
                .map(|_| hostile_json(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.below(4))
                .map(|_| {
                    let key = rng.pick(&keys).to_string();
                    (key, hostile_json(rng, depth - 1))
                })
                .collect(),
        ),
    }
}

/// A hostile `priority` member: a random value, or an object whose
/// ranking (and label) are random.
fn hostile_priority(rng: &mut Rng) -> Json {
    if rng.chance(1, 3) {
        return hostile_json(rng, 3);
    }
    let ranking = match rng.below(3) {
        0 => hostile_json(rng, 2),
        _ => Json::Arr((0..rng.below(4)).map(|_| hostile_json(rng, 1)).collect()),
    };
    let mut members = vec![("ranking", ranking)];
    if rng.chance(1, 3) {
        members.push(("label", hostile_json(rng, 1)));
    }
    Json::obj(members)
}

fn submission(priority: Json) -> Json {
    Json::obj(vec![
        ("user", Json::str("resident")),
        (
            "sentence",
            Json::str(
                "If the temperature is higher than 28 degrees, turn off the air conditioner.",
            ),
        ),
        ("priority", priority),
    ])
}

const PRIORITY_CODES: [&str; 5] = [
    "wrong_type",
    "missing_field",
    "empty_ranking",
    "bad_ranking_entry",
    "unknown_field",
];

#[test]
fn hostile_priorities_never_panic_and_fail_typed() {
    let mut rng = Rng::new(0x0DE5);
    let (mut refused, mut parsed) = (0usize, 0usize);
    for case in 0..2_000 {
        let doc = submission(hostile_priority(&mut rng));
        let outcome = catch_unwind(AssertUnwindSafe(|| parse_priority(&doc)))
            .unwrap_or_else(|_| panic!("case {case}: parser panicked on {doc:?}"));
        match outcome {
            Ok(Some(_)) => parsed += 1,
            Ok(None) => panic!("case {case}: a present priority parsed as absent"),
            Err(error) => {
                assert!(
                    PRIORITY_CODES.contains(&error.code),
                    "case {case}: untyped code {:?}",
                    error.code
                );
                refused += 1;
            }
        }
    }
    assert!(
        refused > 1_000,
        "hostile priorities should mostly fail ({refused})"
    );
    assert!(parsed > 0, "the generator should also reach valid rankings");
}

#[test]
fn hostile_priorities_get_typed_400s_over_the_wire() {
    let dir =
        std::env::temp_dir().join(format!("cadel-api-{}-hostile-priority", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut fleet = Fleet::new(&dir, FleetConfig::default());
    fleet
        .add_tenant_arc(tenant_name(0), unit_tenant_builder(None))
        .expect("tenant builds");
    let config = ApiConfig {
        read_timeout: Duration::from_millis(100),
        idle_timeout: Duration::from_millis(800),
        rate_limit: None,
        ..ApiConfig::default()
    };
    let server = ApiServer::bind("127.0.0.1:0", fleet, config).expect("bind");
    let mut client = ApiClient::connect(server.addr()).expect("connect");
    let rules = || {
        server.with_fleet(|fleet| {
            let home = fleet.server_of("unit-0000").expect("tenant is live");
            cadel_rule::codec::rules_to_json(home.engine().rules().iter())
        })
    };
    let before = rules();

    let mut rng = Rng::new(0xB0D1);
    let mut sent = 0;
    while sent < 100 {
        let body = submission(hostile_priority(&mut rng));
        let Err(expected) = parse_priority(&body) else {
            continue;
        };
        let response = client
            .post("/tenants/unit-0000/rules", &body)
            .expect("post");
        assert_eq!(response.status, 400, "{body:?}: {}", response.text());
        let doc = response.json().expect("json body");
        assert_eq!(
            doc.get("error").and_then(Json::as_str),
            Some(expected.code),
            "{body:?}"
        );
        sent += 1;
    }
    assert_eq!(rules(), before, "a refused priority stores nothing");
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
