//! The frontend runtime: accept loop, per-connection supervision,
//! request routing, event-stream fan-out, and graceful drain.
//!
//! Threading model: one accept thread plus one thread per open
//! connection, bounded by [`ApiConfig::max_connections`]. The fleet
//! itself lives behind a single mutex — fleet waves are already
//! internally parallel ([`cadel_fleet::FleetConfig::workers`]), so the
//! frontend serialises *admission* and lets the wave do the heavy
//! lifting. Every boundary is governed: socket deadlines bound reads
//! and writes, a wall-clock budget bounds each request, hostile frames
//! map to typed errors, overload maps to `503` + `Retry-After`, and a
//! panic in a handler is caught, counted, and answered with `500` —
//! it never takes the connection loop (let alone the process) down.

use crate::config::ApiConfig;
use crate::http::{Method, ParseError, Request, Response, WireLimits, WireReader};
use crate::limit::RateLimiter;
use crate::proto::{self, BadRequest};
use cadel_fleet::{Admission, Fleet, FleetError, FleetStepReport, ShutdownReport, TenantState};
use cadel_obs::net::{
    API_CONNECTIONS_OPEN, API_CONNECTIONS_TOTAL, API_EVENTS_DROPPED_TOTAL, API_PARSE_ERRORS_TOTAL,
    API_RATE_LIMITED_TOTAL, API_REQUESTS_TOTAL, API_REQUEST_NS, API_SHED_TOTAL,
    API_SUBSCRIBERS_OPEN, API_TIMEOUTS_TOTAL, API_WORKER_PANICS_TOTAL,
};
use cadel_obs::{Event, Level, Stopwatch};
use cadel_server::{ConflictError, ServerError, SubmitOutcome};
use cadel_types::json::Json;
use cadel_types::{RuleId, SimTime};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// One event-stream subscriber: a bounded channel the publisher feeds
/// with `try_send` (a stalled reader drops frames, never blocks a
/// wave).
struct Subscriber {
    id: u64,
    tenant: Option<String>,
    tx: SyncSender<String>,
}

/// State shared between the accept thread, connection threads, and the
/// owning handle.
struct Shared {
    fleet: Mutex<Fleet>,
    config: ApiConfig,
    limiter: Option<RateLimiter>,
    open_conns: AtomicUsize,
    draining: AtomicBool,
    subs: Mutex<Vec<Subscriber>>,
    sub_seq: AtomicU64,
}

impl Shared {
    fn fleet(&self) -> MutexGuard<'_, Fleet> {
        // A poisoned mutex means a panic escaped while holding the
        // fleet — the guarded section is itself panic-supervised by the
        // fleet, so recover the guard rather than cascading.
        match self.fleet.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn subs(&self) -> MutexGuard<'_, Vec<Subscriber>> {
        match self.subs.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Fans a completed wave out to matching subscribers. Uses
    /// `try_send`: a subscriber whose queue is full loses frames
    /// (counted in `api_events_dropped_total`), the publisher never
    /// waits.
    fn broadcast_wave(&self, now: SimTime, report: &FleetStepReport) {
        let subs = self.subs();
        if subs.is_empty() {
            return;
        }
        for outcome in &report.outcomes {
            let mut frames: Vec<String> = Vec::new();
            if let Some(step) = &outcome.report {
                for firing in step.dispatched() {
                    frames.push(format!(
                        "NOTIFY at={now} tenant={} {firing}",
                        outcome.tenant
                    ));
                }
                for (rule, device) in &step.releases {
                    frames.push(format!(
                        "NOTIFY at={now} tenant={} {rule} released {device}",
                        outcome.tenant
                    ));
                }
            }
            if !outcome.status.is_ok() {
                frames.push(format!(
                    "ALERT at={now} tenant={} step fault (tenant quarantined)",
                    outcome.tenant
                ));
            }
            if frames.is_empty() {
                continue;
            }
            for sub in subs.iter() {
                let wants = match &sub.tenant {
                    None => true,
                    Some(t) => t == &outcome.tenant,
                };
                if !wants {
                    continue;
                }
                for frame in &frames {
                    if let Err(TrySendError::Full(_)) = sub.tx.try_send(frame.clone()) {
                        API_EVENTS_DROPPED_TOTAL.inc();
                    }
                }
            }
        }
    }
}

/// What a graceful [`ApiServer::shutdown`] accomplished.
#[derive(Debug)]
pub struct DrainOutcome {
    /// Connections still open when the connection-drain deadline hit
    /// (their sockets keep their own deadlines; they die on their own).
    pub connections_outstanding: usize,
    /// The fleet's own drain/checkpoint report.
    pub fleet: ShutdownReport,
}

impl DrainOutcome {
    /// Whether everything flushed: no lingering connections, fleet
    /// drained and checkpointed cleanly.
    pub fn is_clean(&self) -> bool {
        self.connections_outstanding == 0 && self.fleet.is_clean()
    }
}

/// The hardened TCP frontend over a [`Fleet`].
///
/// Binds, serves, and — via [`ApiServer::shutdown`] — drains: stop
/// accepting, let in-flight requests finish, flush tenant inboxes, and
/// checkpoint every tenant durably.
pub struct ApiServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl ApiServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving `fleet` on a background accept thread.
    ///
    /// # Errors
    ///
    /// Returns the bind error verbatim.
    pub fn bind(
        addr: impl ToSocketAddrs,
        fleet: Fleet,
        config: ApiConfig,
    ) -> io::Result<ApiServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            fleet: Mutex::new(fleet),
            limiter: config.rate_limit.map(RateLimiter::new),
            config,
            open_conns: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            subs: Mutex::new(Vec::new()),
            sub_seq: AtomicU64::new(1),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = thread::Builder::new()
            .name("cadel-api-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))?;
        if cadel_obs::enabled() {
            cadel_obs::emit(
                Event::new("api.bind", Level::Info).with_field("addr", local.to_string()),
            );
        }
        Ok(ApiServer {
            shared,
            addr: local,
            accept: Some(accept),
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Runs `f` against the fleet under the frontend's lock — for
    /// drivers that own the clock and embed the frontend.
    pub fn with_fleet<T>(&self, f: impl FnOnce(&mut Fleet) -> T) -> T {
        f(&mut self.shared.fleet())
    }

    /// Advances the fleet one wave at simulated time `now` and fans the
    /// results out to event-stream subscribers.
    pub fn step_fleet(&self, now: SimTime) -> FleetStepReport {
        let report = self.shared.fleet().step_ready(now);
        self.shared.broadcast_wave(now, &report);
        report
    }

    /// Connections currently open (including event streams).
    pub fn open_connections(&self) -> usize {
        self.shared.open_conns.load(Ordering::Acquire)
    }

    /// Gracefully drains and shuts down.
    ///
    /// Stops accepting, then spends up to half of `deadline` waiting
    /// for open connections to finish (subscribers notice the drain on
    /// their next heartbeat and say `GOODBYE`), then hands the rest of
    /// the budget to [`Fleet::shutdown`]: flush ready inboxes at `now`,
    /// `checkpoint_all`, report per-tenant flush failures.
    pub fn shutdown(mut self, deadline: Duration, now: SimTime) -> DrainOutcome {
        self.stop_accepting();
        let started = Instant::now();
        let conn_budget = deadline / 2;
        while self.shared.open_conns.load(Ordering::Acquire) > 0 && started.elapsed() < conn_budget
        {
            thread::sleep(Duration::from_millis(5));
        }
        let connections_outstanding = self.shared.open_conns.load(Ordering::Acquire);
        let remaining = deadline.saturating_sub(started.elapsed());
        let fleet = self.shared.fleet().shutdown(remaining, now);
        let outcome = DrainOutcome {
            connections_outstanding,
            fleet,
        };
        if cadel_obs::enabled() {
            cadel_obs::emit(
                Event::new("api.shutdown", Level::Info)
                    .with_field(
                        "connections_outstanding",
                        outcome.connections_outstanding as u64,
                    )
                    .with_field("clean", outcome.is_clean()),
            );
        }
        outcome
    }

    /// Flips the draining flag and unblocks the accept thread by
    /// poking our own listening socket.
    fn stop_accepting(&mut self) {
        self.shared.draining.store(true, Ordering::Release);
        // Subscribers park in `recv_timeout` between frames; a nudge
        // makes them observe the drain and say `GOODBYE` now instead of
        // on their next heartbeat. A full queue is fine — those wake on
        // their backlog anyway.
        for sub in self.shared.subs().iter() {
            let _ = sub.tx.try_send("PING".to_owned());
        }
        // The accept thread is blocked in `accept`; a throwaway
        // connection wakes it so it can observe the flag and exit.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ApiServer {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.stop_accepting();
        }
    }
}

/// The accept loop: refuse while draining, shed past the connection
/// cap, back off on accept errors, otherwise hand the socket to a
/// connection thread.
fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let (stream, peer) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) if shared.draining.load(Ordering::Acquire) => break,
            Err(_) => {
                // Likely fd exhaustion; degrade to slow acceptance
                // rather than a hot error loop.
                thread::sleep(shared.config.accept_backoff);
                continue;
            }
        };
        if shared.draining.load(Ordering::Acquire) {
            refuse(stream, &shared, "draining");
            break;
        }
        let open = shared.open_conns.fetch_add(1, Ordering::AcqRel) + 1;
        if open > shared.config.max_connections {
            shared.open_conns.fetch_sub(1, Ordering::AcqRel);
            API_SHED_TOTAL.inc();
            refuse(stream, &shared, "connection_cap");
            continue;
        }
        API_CONNECTIONS_TOTAL.inc();
        API_CONNECTIONS_OPEN.add(1);
        let conn_shared = Arc::clone(&shared);
        let spawned = thread::Builder::new()
            .name(format!("cadel-api-conn-{peer}"))
            .spawn(move || {
                // Acceptance bar: no panic escapes a worker. The
                // handler already wraps each route dispatch, but a
                // defect in the wire loop itself must not abort the
                // process either.
                let result = catch_unwind(AssertUnwindSafe(|| {
                    handle_connection(stream, peer, &conn_shared)
                }));
                if result.is_err() {
                    API_WORKER_PANICS_TOTAL.inc();
                }
                conn_shared.open_conns.fetch_sub(1, Ordering::AcqRel);
                API_CONNECTIONS_OPEN.add(-1);
            });
        if spawned.is_err() {
            // Thread spawn failed (resource exhaustion): shed.
            shared.open_conns.fetch_sub(1, Ordering::AcqRel);
            API_CONNECTIONS_OPEN.add(-1);
            API_SHED_TOTAL.inc();
            thread::sleep(shared.config.accept_backoff);
        }
    }
}

/// Best-effort one-shot refusal on a connection we will not serve.
fn refuse(stream: TcpStream, shared: &Shared, code: &str) {
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let response = Response::error(503, "Service Unavailable", code, "server is shedding load")
        .with_retry_after(shared.config.retry_after_secs)
        .closing();
    let mut stream = stream;
    let _ = response.write_to(&mut stream);
}

/// What a routed request turned into.
enum Routed {
    /// Write this response, possibly keep the connection alive.
    Respond(Response),
    /// Upgrade the connection to an event stream.
    Subscribe { tenant: Option<String> },
}

/// Serves one connection: keep-alive request loop with per-request
/// wall-clock budget, typed-error responses, rate limiting, and
/// panic containment per dispatch.
fn handle_connection(stream: TcpStream, peer: SocketAddr, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let limits = WireLimits {
        max_head_bytes: shared.config.max_head_bytes,
        max_body_bytes: shared.config.max_body_bytes,
    };
    let write_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut out = write_stream;
    let mut reader = WireReader::new(stream);
    let mut served: u64 = 0;
    loop {
        let deadline = Instant::now() + shared.config.idle_timeout;
        let request = match reader.read_request(&limits, Some(deadline)) {
            Ok(request) => request,
            Err(ParseError::ConnectionClosed) => return,
            Err(ParseError::TimedOut) => {
                API_TIMEOUTS_TOTAL.inc();
                if reader.buffered() > 0 {
                    // Mid-request stall (slow loris): tell them why.
                    let response = Response::error(
                        408,
                        "Request Timeout",
                        "timed_out",
                        "request did not complete within the idle budget",
                    )
                    .closing();
                    let _ = response.write_to(&mut out);
                }
                return;
            }
            Err(ParseError::Io(_)) => return,
            Err(error) => {
                API_PARSE_ERRORS_TOTAL.inc();
                let (status, reason) = error.status();
                let response =
                    Response::error(status, reason, error.code(), &error.to_string()).closing();
                let _ = response.write_to(&mut out);
                return;
            }
        };
        served += 1;
        API_REQUESTS_TOTAL.inc();
        let sw = Stopwatch::start();

        if shared.draining.load(Ordering::Acquire) {
            API_SHED_TOTAL.inc();
            let response = Response::error(
                503,
                "Service Unavailable",
                "draining",
                "server is draining; retry against the next instance",
            )
            .with_retry_after(shared.config.retry_after_secs)
            .closing();
            let _ = response.write_to(&mut out);
            return;
        }

        if let Some(limiter) = &shared.limiter {
            if !rate_limit_exempt(&request.path) {
                if let Err(retry_after) = limiter.try_admit(peer.ip()) {
                    API_RATE_LIMITED_TOTAL.inc();
                    let response = Response::error(
                        429,
                        "Too Many Requests",
                        "rate_limited",
                        "per-client rate limit exceeded",
                    )
                    .with_retry_after(retry_after);
                    if write_response(&mut out, &request, response, served, shared).is_err() {
                        return;
                    }
                    continue;
                }
            }
        }

        // Panic containment around the route dispatch: a handler defect
        // answers 500 and keeps serving, it never kills the worker.
        let routed = match catch_unwind(AssertUnwindSafe(|| route(shared, &request))) {
            Ok(routed) => routed,
            Err(_) => {
                API_WORKER_PANICS_TOTAL.inc();
                Routed::Respond(
                    Response::error(
                        500,
                        "Internal Server Error",
                        "handler_panic",
                        "request handler panicked; the fault was contained",
                    )
                    .closing(),
                )
            }
        };
        API_REQUEST_NS.record(&sw);

        match routed {
            Routed::Subscribe { tenant } => {
                run_subscription(shared, &mut out, tenant);
                return;
            }
            Routed::Respond(response) => {
                let close = response.close;
                if write_response(&mut out, &request, response, served, shared).is_err() || close {
                    return;
                }
            }
        }
    }
}

/// Writes a response, folding in keep-alive rotation; `Err` means the
/// connection is dead (or should close).
fn write_response(
    out: &mut TcpStream,
    request: &Request,
    mut response: Response,
    served: u64,
    shared: &Shared,
) -> Result<(), ()> {
    let rotate = shared.config.max_requests_per_connection > 0
        && served >= shared.config.max_requests_per_connection;
    if request.wants_close() || rotate {
        response.close = true;
    }
    let close = response.close;
    match response.write_to(out) {
        Ok(()) if !close => Ok(()),
        _ => Err(()),
    }
}

/// Paths that must stay reachable under rate pressure: probes and
/// metric scrapes.
fn rate_limit_exempt(path: &str) -> bool {
    matches!(path, "/healthz" | "/readyz" | "/metrics")
}

/// Routes one parsed request. All fleet access happens here, under the
/// shared lock.
fn route(shared: &Shared, request: &Request) -> Routed {
    let segments = request.segments();
    match (&request.method, segments.as_slice()) {
        (Method::Get, ["healthz"]) => Routed::Respond(Response::text(200, "OK", "ok\n")),
        (Method::Get, ["readyz"]) => Routed::Respond(readyz(shared)),
        (Method::Get, ["metrics"]) => {
            let body = cadel_obs::metrics_snapshot().render_prometheus();
            let mut response = Response::text(200, "OK", body);
            response.content_type = "text/plain; version=0.0.4";
            Routed::Respond(response)
        }
        (Method::Get, ["fleet", "health"]) => {
            let health = shared.fleet().health();
            Routed::Respond(Response::json(
                200,
                "OK",
                &proto::render_fleet_health(&health),
            ))
        }
        (Method::Post, ["step"]) => Routed::Respond(admin_step(shared, request)),
        (Method::Get, ["tenants", tenant, "health"]) => {
            Routed::Respond(tenant_health(shared, tenant))
        }
        (Method::Get, ["tenants", tenant, "rules"]) => {
            Routed::Respond(export_rules(shared, tenant))
        }
        (Method::Post, ["tenants", tenant, "readings"]) => {
            Routed::Respond(post_readings(shared, tenant, request))
        }
        (Method::Post, ["tenants", tenant, "rules"]) => {
            Routed::Respond(post_rule(shared, tenant, request))
        }
        (Method::Delete, ["tenants", tenant, "rules", id])
        | (Method::Post, ["tenants", tenant, "rules", id, "remove"]) => {
            Routed::Respond(remove_rule(shared, tenant, id))
        }
        (Method::Post, ["tenants", tenant, "rules", id, "enabled"]) => {
            Routed::Respond(set_rule_enabled(shared, tenant, id, request))
        }
        (Method::Get, ["tenants", tenant, "conflicts"]) => {
            Routed::Respond(conflict_advisories(shared, tenant))
        }
        (Method::Get, ["events"]) | (Method::Subscribe, ["events"]) => Routed::Subscribe {
            tenant: request.query_param("tenant").map(str::to_owned),
        },
        _ => Routed::Respond(Response::error(
            404,
            "Not Found",
            "no_route",
            &format!("no route for {} {}", request.method.as_str(), request.path),
        )),
    }
}

/// Readiness: `200` while accepting and under the backpressure
/// watermark, `503` + `Retry-After` otherwise.
fn readyz(shared: &Shared) -> Response {
    if shared.draining.load(Ordering::Acquire) {
        return Response::error(503, "Service Unavailable", "draining", "server is draining")
            .with_retry_after(shared.config.retry_after_secs);
    }
    let (overloaded, backpressure) = {
        let fleet = shared.fleet();
        (fleet.overloaded(), fleet.backpressure())
    };
    let body = Json::obj(vec![
        ("ready", Json::Bool(!overloaded)),
        ("backpressure", Json::Float(backpressure)),
    ]);
    if overloaded {
        let mut response = Response::json(503, "Service Unavailable", &body);
        response.retry_after = Some(shared.config.retry_after_secs);
        response
    } else {
        Response::json(200, "OK", &body)
    }
}

/// `POST /step {"at_ms": N}` — drive one fleet wave over the wire.
fn admin_step(shared: &Shared, request: &Request) -> Response {
    if !shared.config.allow_admin_step {
        return Response::error(
            403,
            "Forbidden",
            "admin_step_disabled",
            "POST /step is disabled in this deployment",
        );
    }
    let doc = match parse_body(request) {
        Ok(doc) => doc,
        Err(response) => return *response,
    };
    let at_ms = match doc.get("at_ms").and_then(Json::as_int) {
        Some(n) if n >= 0 => n as u64,
        _ => {
            return bad_request(&BadRequest {
                code: "wrong_type",
                message: "field 'at_ms' must be a non-negative integer".into(),
            })
        }
    };
    let now = SimTime::from_millis(at_ms);
    let report = shared.fleet().step_ready(now);
    shared.broadcast_wave(now, &report);
    let body = Json::obj(vec![
        ("stepped", Json::Int(report.stepped() as i64)),
        ("faults", Json::Int(report.faults() as i64)),
        ("restarted", Json::Int(report.restarted as i64)),
    ]);
    Response::json(200, "OK", &body)
}

fn tenant_health(shared: &Shared, tenant: &str) -> Response {
    let fleet = shared.fleet();
    let Some(state) = fleet.state_of(tenant) else {
        return unknown_tenant(tenant);
    };
    let body = Json::obj(vec![
        ("tenant", Json::str(tenant)),
        ("state", Json::str(state.to_string())),
        (
            "inbox",
            Json::Int(fleet.inbox_len_of(tenant).unwrap_or(0) as i64),
        ),
        (
            "strikes",
            Json::Int(i64::from(fleet.strikes_of(tenant).unwrap_or(0))),
        ),
        (
            "restarts",
            Json::Int(fleet.restarts_of(tenant).unwrap_or(0) as i64),
        ),
    ]);
    Response::json(200, "OK", &body)
}

fn export_rules(shared: &Shared, tenant: &str) -> Response {
    let fleet = shared.fleet();
    if fleet.tenant_index(tenant).is_none() {
        return unknown_tenant(tenant);
    }
    let Some(server) = fleet.server_of(tenant) else {
        return quarantined(shared, tenant);
    };
    match server.export_rules() {
        Ok(listing) => Response::text(200, "OK", listing),
        Err(error) => server_error(&error),
    }
}

fn post_readings(shared: &Shared, tenant: &str, request: &Request) -> Response {
    let doc = match parse_body(request) {
        Ok(doc) => doc,
        Err(response) => return *response,
    };
    let readings = match proto::parse_readings(&doc) {
        Ok(readings) => readings,
        Err(error) => return bad_request(&error),
    };
    let mut fleet = shared.fleet();
    // Explicit load shed: past the fleet's backpressure watermark, new
    // work is refused with `Retry-After` instead of queued.
    if fleet.overloaded() {
        API_SHED_TOTAL.inc();
        return Response::error(
            503,
            "Service Unavailable",
            "overloaded",
            "fleet backlog is past the backpressure watermark",
        )
        .with_retry_after(shared.config.retry_after_secs);
    }
    let Some(index) = fleet.tenant_index(tenant) else {
        return unknown_tenant(tenant);
    };
    let mut admissions: Vec<Admission> = Vec::with_capacity(readings.len());
    let mut rejected = 0usize;
    for ingress in readings {
        match fleet.offer_at(index, ingress) {
            Ok(admission) => admissions.push(admission),
            Err(FleetError::InboxFull { .. }) => rejected += 1,
            Err(error) => return fleet_error(&error),
        }
    }
    if admissions.is_empty() && rejected > 0 {
        API_SHED_TOTAL.inc();
        return Response::error(
            503,
            "Service Unavailable",
            "tenant_backlogged",
            "tenant inbox is full and the shed policy rejected the batch",
        )
        .with_retry_after(shared.config.retry_after_secs);
    }
    Response::json(
        202,
        "Accepted",
        &proto::render_admissions(&admissions, rejected),
    )
}

fn post_rule(shared: &Shared, tenant: &str, request: &Request) -> Response {
    let doc = match parse_body(request) {
        Ok(doc) => doc,
        Err(response) => return *response,
    };
    let (user, sentence) = match proto::parse_rule_submit(&doc) {
        Ok(parsed) => parsed,
        Err(error) => return bad_request(&error),
    };
    let priority = match proto::parse_priority(&doc) {
        Ok(priority) => priority,
        Err(error) => return malformed(&error),
    };
    with_tenant_server(shared, tenant, |server| {
        let outcome = match &priority {
            None => server.submit(&user, &sentence)?,
            // The sentence is parsed, compiled and analyzed once, by the
            // same stateless call an in-process caller arbitrates with.
            Some(priority) => {
                let Some(rule) = server.compile_rule(&user, &sentence)? else {
                    return Ok(malformed(&BadRequest {
                        code: "priority_on_definition",
                        message: "a word-definition sentence takes no priority".into(),
                    }));
                };
                let order = priority.order_for(rule.id(), rule.action().device().clone());
                server.arbitrate(&user, rule, order)?
            }
        };
        let status = match &outcome {
            SubmitOutcome::Registered { .. } => (201, "Created"),
            SubmitOutcome::ConflictDetected { .. } => (409, "Conflict"),
            _ => (200, "OK"),
        };
        Ok(Response::json(
            status.0,
            status.1,
            &proto::render_outcome(&outcome),
        ))
    })
}

fn remove_rule(shared: &Shared, tenant: &str, id: &str) -> Response {
    let Some(rule) = parse_rule_id(id) else {
        return bad_rule_id(id);
    };
    with_tenant_server(shared, tenant, |server| {
        server.remove_rule(rule).map(|()| {
            Response::json(
                200,
                "OK",
                &Json::obj(vec![("removed", Json::Int(rule.raw() as i64))]),
            )
        })
    })
}

fn set_rule_enabled(shared: &Shared, tenant: &str, id: &str, request: &Request) -> Response {
    let Some(rule) = parse_rule_id(id) else {
        return bad_rule_id(id);
    };
    let doc = match parse_body(request) {
        Ok(doc) => doc,
        Err(response) => return *response,
    };
    let Some(enabled) = doc.get("enabled").and_then(Json::as_bool) else {
        return bad_request(&BadRequest {
            code: "wrong_type",
            message: "field 'enabled' must be a boolean".into(),
        });
    };
    with_tenant_server(shared, tenant, |server| {
        let outcome = server.set_rule_enabled(rule, enabled)?;
        // Re-enabling can resurface a conflict: the rule stays in its
        // previous state.
        if let SubmitOutcome::ConflictDetected { .. } = &outcome {
            return Ok(Response::json(
                409,
                "Conflict",
                &proto::render_outcome(&outcome),
            ));
        }
        Ok(Response::json(
            200,
            "OK",
            &Json::obj(vec![
                ("rule", Json::Int(rule.raw() as i64)),
                ("enabled", Json::Bool(enabled)),
            ]),
        ))
    })
}

/// `GET /tenants/{t}/conflicts` — the conflict graph's whole-base
/// advisory sweep: rule chains, loops, shadowing/redundancy and
/// cross-device environmental conflicts.
fn conflict_advisories(shared: &Shared, tenant: &str) -> Response {
    with_tenant_server(shared, tenant, |server| {
        server
            .conflict_advisories()
            .map(|advisories| Response::json(200, "OK", &proto::render_advisories(&advisories)))
    })
}

/// Runs `f` against one tenant's server, mapping missing/quarantined
/// tenants and server errors to their responses.
fn with_tenant_server(
    shared: &Shared,
    tenant: &str,
    f: impl FnOnce(&mut cadel_server::HomeServer) -> Result<Response, ServerError>,
) -> Response {
    let mut fleet = shared.fleet();
    if fleet.tenant_index(tenant).is_none() {
        return unknown_tenant(tenant);
    }
    let Some(server) = fleet.server_mut_of(tenant) else {
        return quarantined(shared, tenant);
    };
    match f(server) {
        Ok(response) => response,
        Err(error) => server_error(&error),
    }
}

/// Parses the request body as a JSON document (empty or malformed →
/// `400`/`422`). Boxed so the happy path stays thin.
fn parse_body(request: &Request) -> Result<Json, Box<Response>> {
    let text = request.body_utf8().map_err(|_| {
        Box::new(Response::error(
            400,
            "Bad Request",
            "body_not_utf8",
            "request body is not UTF-8",
        ))
    })?;
    if text.trim().is_empty() {
        return Err(Box::new(Response::error(
            400,
            "Bad Request",
            "empty_body",
            "request body is empty; a JSON document is required",
        )));
    }
    cadel_types::json::parse(text).map_err(|e| {
        Box::new(Response::error(
            400,
            "Bad Request",
            "malformed_json",
            &format!("request body is not valid JSON: {e}"),
        ))
    })
}

fn parse_rule_id(id: &str) -> Option<RuleId> {
    id.parse::<u64>().ok().map(RuleId::new)
}

fn bad_rule_id(id: &str) -> Response {
    Response::error(
        400,
        "Bad Request",
        "bad_rule_id",
        &format!("'{id}' is not a rule id"),
    )
}

fn bad_request(error: &BadRequest) -> Response {
    Response::error(422, "Unprocessable Entity", error.code, &error.message)
}

/// A `priority` the wire cannot turn into an order: `400`.
fn malformed(error: &BadRequest) -> Response {
    Response::error(400, "Bad Request", error.code, &error.message)
}

fn unknown_tenant(tenant: &str) -> Response {
    Response::error(
        404,
        "Not Found",
        "unknown_tenant",
        &format!("no tenant '{tenant}'"),
    )
}

fn quarantined(shared: &Shared, tenant: &str) -> Response {
    let state = shared
        .fleet()
        .state_of(tenant)
        .unwrap_or(TenantState::Quarantined);
    Response::error(
        503,
        "Service Unavailable",
        "tenant_unavailable",
        &format!("tenant '{tenant}' is {state}; retry after the next supervision wave"),
    )
    .with_retry_after(shared.config.retry_after_secs)
}

fn fleet_error(error: &FleetError) -> Response {
    Response::error(409, "Conflict", "fleet_error", &error.to_string())
}

/// Maps a [`ServerError`] to a response: client faults are 4xx, store
/// trouble is 503 (retryable after restart), the rest is 409.
fn server_error(error: &ServerError) -> Response {
    let (status, reason, code) = match error {
        ServerError::Lang(_) => (422, "Unprocessable Entity", "language_error"),
        // A rule the checks refuse outright (a dimension clash) is the
        // client's error, not a conflict with other rules.
        ServerError::Conflict(ConflictError::Rule(_)) => {
            (422, "Unprocessable Entity", "rule_error")
        }
        ServerError::UnknownUser(_) => (404, "Not Found", "unknown_user"),
        ServerError::AccessDenied(_) => (403, "Forbidden", "access_denied"),
        ServerError::OrderRefused(_) => (422, "Unprocessable Entity", "order_refused"),
        ServerError::ReadOnly => (503, "Service Unavailable", "read_only"),
        ServerError::Store(_) => (503, "Service Unavailable", "store_error"),
        ServerError::Engine(_) => (404, "Not Found", "engine_error"),
        _ => (409, "Conflict", "server_error"),
    };
    Response::error(status, reason, code, &error.to_string())
}

/// Serves one event-stream subscription until the client goes away or
/// the server drains.
///
/// The wire format is a GENA-flavoured line protocol: a `200` header
/// block with an `SID`, then `\r\n`-terminated frames — `NOTIFY ...`
/// for firings/releases, `ALERT ...` for step faults, `PING` as the
/// idle heartbeat, `GOODBYE` before a drain close.
fn run_subscription(shared: &Shared, out: &mut TcpStream, tenant: Option<String>) {
    let sid = shared.sub_seq.fetch_add(1, Ordering::AcqRel);
    let (tx, rx) = sync_channel::<String>(shared.config.subscriber_queue.max(1));
    shared.subs().push(Subscriber {
        id: sid,
        tenant,
        tx,
    });
    API_SUBSCRIBERS_OPEN.add(1);
    let head = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/cadel-event-stream\r\nSID: uuid:cadel-{sid}\r\nConnection: close\r\n\r\n"
    );
    let mut alive = out.write_all(head.as_bytes()).is_ok() && out.flush().is_ok();
    while alive {
        if shared.draining.load(Ordering::Acquire) {
            let _ = out.write_all(b"GOODBYE draining\r\n");
            break;
        }
        let frame = match rx.recv_timeout(shared.config.heartbeat) {
            Ok(frame) => frame,
            Err(RecvTimeoutError::Timeout) => "PING".to_owned(),
            Err(RecvTimeoutError::Disconnected) => break,
        };
        alive = out.write_all(frame.as_bytes()).is_ok()
            && out.write_all(b"\r\n").is_ok()
            && out.flush().is_ok();
    }
    shared.subs().retain(|sub| sub.id != sid);
    API_SUBSCRIBERS_OPEN.add(-1);
}
