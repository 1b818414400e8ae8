//! Pieces every workload shares: the fixed deployment shape, the
//! benchmark-side spans, the timed device-world wrapper, the event
//! subscriber, sample statistics and the run record.

use cadel_api::{subscribe, ApiClient, ApiConfig, ApiResponse, ApiServer};
use cadel_fleet::{
    Fleet, FleetConfig, FleetStepReport, Ingress, TenantBuilder, TenantParts, TenantWorld,
};
use cadel_types::json::Json;
use cadel_types::{SimTime, Value};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Simulated time of tick `tick`: one simulated minute per tick.
pub fn tick_time(tick: u64) -> SimTime {
    SimTime::from_millis(tick * 60_000)
}

/// Fleet workers: one per core, recorded with every result.
pub fn workers() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// The fleet configuration every workload runs with.
pub fn fleet_config() -> FleetConfig {
    FleetConfig {
        workers: workers(),
        ..FleetConfig::default()
    }
}

/// Binds the frontend on an ephemeral loopback port, with the
/// configuration every workload runs with: defaults, except that per-IP
/// rate limiting is off (all load comes from one local client) and the
/// subscriber queue holds a whole wave of frames, so the broadcast path
/// never drops one.
pub fn bind(fleet: Fleet) -> ApiServer {
    let config = ApiConfig {
        rate_limit: None,
        subscriber_queue: 1 << 16,
        ..ApiConfig::default()
    };
    ApiServer::bind("127.0.0.1:0", fleet, config).expect("bind loopback")
}

// ------------------------------------------------------------------ spans

/// Whether benchmark-side spans are being recorded (the traced run).
static TRACING: AtomicBool = AtomicBool::new(false);
static SPAN_SEQ: AtomicU64 = AtomicU64::new(1);
/// The wave span in flight, parent of the device deliveries inside it.
static CURRENT_WAVE: AtomicU64 = AtomicU64::new(0);

/// One recorded span: a benchmark call into a crate's public function.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The tick (reading path) or operation (rule path) it belongs to.
    pub tag: u64,
}

fn spans() -> &'static Mutex<Vec<SpanRec>> {
    static SPANS: OnceLock<Mutex<Vec<SpanRec>>> = OnceLock::new();
    SPANS.get_or_init(|| Mutex::new(Vec::new()))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process's span epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

pub fn tracing() -> bool {
    TRACING.load(Ordering::Relaxed)
}

pub fn set_tracing(on: bool) {
    let _ = epoch();
    TRACING.store(on, Ordering::SeqCst);
}

/// Allocates a span id (0 when not tracing).
pub fn span_id() -> u64 {
    if tracing() {
        SPAN_SEQ.fetch_add(1, Ordering::Relaxed)
    } else {
        0
    }
}

/// Records a finished span when tracing.
pub fn record_span(id: u64, parent: u64, name: &'static str, start_ns: u64, tag: u64) {
    if id == 0 {
        return;
    }
    let end_ns = now_ns();
    spans().lock().unwrap().push(SpanRec {
        id,
        parent,
        name,
        start_ns,
        end_ns,
        tag,
    });
}

/// Every span recorded so far.
pub fn take_spans() -> Vec<SpanRec> {
    std::mem::take(&mut *spans().lock().unwrap())
}

// ---------------------------------------------------------- device world

/// Wraps a tenant's device world so every delivery is a span, child of
/// the wave that delivered it.
struct TimedWorld {
    inner: Box<dyn TenantWorld>,
}

impl TenantWorld for TimedWorld {
    fn deliver(&mut self, ingress: &Ingress) {
        if !tracing() {
            self.inner.deliver(ingress);
            return;
        }
        let id = span_id();
        let start = now_ns();
        self.inner.deliver(ingress);
        record_span(
            id,
            CURRENT_WAVE.load(Ordering::Relaxed),
            "devices.deliver",
            start,
            0,
        );
    }
}

/// A tenant builder whose worlds are [`TimedWorld`]s.
pub fn timed_builder(inner: TenantBuilder) -> TenantBuilder {
    Arc::new(move |dir: &Path| {
        let TenantParts {
            server,
            report,
            world,
        } = inner(dir)?;
        Ok(TenantParts {
            server,
            report,
            world: Box::new(TimedWorld { inner: world }),
        })
    })
}

// ------------------------------------------------------------- wire calls

/// A reading as the wire carries it.
pub fn reading_json(ingress: &Ingress) -> Json {
    let mut fields = vec![
        ("device", Json::str(ingress.device.as_str())),
        ("variable", Json::str(ingress.variable.clone())),
    ];
    match &ingress.value {
        Value::Number(q) => {
            let v = q.value();
            assert!(v.is_integer(), "generated readings are whole numbers");
            fields.push(("value", Json::Int(v.numer() as i64)));
            let unit = match q.unit() {
                cadel_types::Unit::Celsius => Some("celsius"),
                cadel_types::Unit::Percent => Some("percent"),
                cadel_types::Unit::Unitless => None,
                other => panic!("no wire word for unit {other:?}"),
            };
            if let Some(unit) = unit {
                fields.push(("unit", Json::str(unit)));
            }
        }
        Value::Text(s) => fields.push(("value", Json::str(s.clone()))),
        Value::Bool(b) => fields.push(("value", Json::Bool(*b))),
        other => panic!("no wire form for {other:?}"),
    }
    fields.push(("at_ms", Json::Int(ingress.at.as_millis() as i64)));
    Json::obj(fields)
}

/// A `POST /tenants/{t}/readings` body.
pub fn readings_body(batch: &[Ingress]) -> Json {
    Json::obj(vec![(
        "readings",
        Json::Arr(batch.iter().map(reading_json).collect()),
    )])
}

/// A `POST /tenants/{t}/rules` body.
pub fn sentence_body(user: &str, sentence: &str) -> Json {
    Json::obj(vec![
        ("user", Json::str(user)),
        ("sentence", Json::str(sentence)),
    ])
}

/// Failure accounting shared by the workload loops.
#[derive(Debug, Default)]
pub struct Failures {
    pub count: u64,
    pub first: Vec<String>,
}

impl Failures {
    pub fn note(&mut self, what: impl Into<String>) {
        self.count += 1;
        if self.first.len() < 8 {
            self.first.push(what.into());
        }
    }

    /// Checks a response status; a mismatch or an I/O error is a failure.
    pub fn expect(
        &mut self,
        what: &str,
        result: &io::Result<ApiResponse>,
        expected: &[u16],
    ) -> bool {
        match result {
            Ok(r) if expected.contains(&r.status) => true,
            Ok(r) => {
                self.note(format!("{what}: status {} {}", r.status, r.text()));
                false
            }
            Err(e) => {
                self.note(format!("{what}: {e}"));
                false
            }
        }
    }
}

/// Posts one readings batch, timing it as an `api.post` span. Returns
/// the response and the write time in span-epoch nanoseconds.
pub fn post_readings(
    client: &mut ApiClient,
    path: &str,
    body: &Json,
    parent: u64,
    tag: u64,
) -> (io::Result<ApiResponse>, Instant) {
    let id = span_id();
    let start = now_ns();
    let sent = Instant::now();
    let response = client.post(path, body);
    record_span(id, parent, "api.post", start, tag);
    (response, sent)
}

/// Submits `sentence` to `tenant` as the resident and checks its status
/// is `expected`. A `201` is removed again, so the rule base keeps its
/// size. Both calls are rule operations, timed as `span` spans (name,
/// parent, tag).
pub fn submit_rule(
    client: &mut ApiClient,
    w: &mut Window,
    tenant: &str,
    sentence: &str,
    expected: u16,
    span: (&'static str, u64, u64),
) {
    let (name, parent, tag) = span;
    let body = sentence_body("resident", sentence);
    let t0 = Instant::now();
    let response = rule_call(name, parent, tag, || {
        client.post(&format!("/tenants/{tenant}/rules"), &body)
    });
    let elapsed = t0.elapsed();
    w.attempted += 1;
    if !w.failures.expect("submit rule", &response, &[expected]) {
        return;
    }
    w.register_ms.push(elapsed.as_secs_f64() * 1e3);
    w.registrations += 1;
    w.rule_op();
    if expected != 201 {
        return;
    }
    let id = response
        .ok()
        .and_then(|r| r.json())
        .and_then(|d| d.get("rule").and_then(Json::as_int));
    let Some(id) = id else {
        w.failures.note("201 without a rule id");
        return;
    };
    let response = rule_call(name, parent, tag, || {
        client.delete(&format!("/tenants/{tenant}/rules/{id}"))
    });
    w.attempted += 1;
    if w.failures.expect("remove rule", &response, &[200]) {
        w.rule_op();
    }
}

/// Checks a `202` readings response: every reading admitted.
pub fn admitted_all(failures: &mut Failures, response: &io::Result<ApiResponse>) -> bool {
    if !failures.expect("post readings", response, &[202]) {
        return false;
    }
    let rejected = response
        .as_ref()
        .ok()
        .and_then(ApiResponse::json)
        .and_then(|doc| doc.get("rejected").and_then(Json::as_int));
    match rejected {
        Some(0) => true,
        other => {
            failures.note(format!("readings rejected: {other:?}"));
            false
        }
    }
}

/// Runs one fleet wave as a `fleet.wave` span; device deliveries inside
/// it become its children.
pub fn wave(server: &ApiServer, at: SimTime, parent: u64, tag: u64) -> FleetStepReport {
    let id = span_id();
    CURRENT_WAVE.store(id, Ordering::Relaxed);
    let before = wal_counters();
    let start = now_ns();
    let report = server.step_fleet(at);
    record_span(id, parent, "fleet.wave", start, tag);
    if id != 0 {
        let after = wal_counters();
        WAVE_APPENDS.fetch_add(after.0 - before.0, Ordering::Relaxed);
        WAVE_BYTES.fetch_add(after.1 - before.1, Ordering::Relaxed);
    }
    report
}

/// Times one rule operation (`POST`/`DELETE` on a tenant's rules) as a
/// span named `name`, and attributes its WAL bytes to the rule path.
pub fn rule_call<T>(name: &'static str, parent: u64, tag: u64, call: impl FnOnce() -> T) -> T {
    let id = span_id();
    let before = wal_counters();
    let start = now_ns();
    let out = call();
    record_span(id, parent, name, start, tag);
    if id != 0 {
        RULE_BYTES.fetch_add(wal_counters().1 - before.1, Ordering::Relaxed);
    }
    out
}

static WAVE_APPENDS: AtomicU64 = AtomicU64::new(0);
static WAVE_BYTES: AtomicU64 = AtomicU64::new(0);
static RULE_BYTES: AtomicU64 = AtomicU64::new(0);

/// WAL appends and bytes so far (zero while obs is disabled).
fn wal_counters() -> (u64, u64) {
    if !tracing() {
        return (0, 0);
    }
    let registry = cadel_obs::metrics();
    (
        registry.counter("store_wal_appends_total").value(),
        registry.counter("store_wal_append_bytes_total").value(),
    )
}

/// WAL appends and bytes measured around waves, and bytes measured
/// around rule operations, in the traced window. With two driver
/// threads a wave and a rule operation can interleave, so the split is
/// approximate in `authoring`.
pub fn store_counters() -> (f64, f64, f64) {
    (
        WAVE_APPENDS.load(Ordering::Relaxed) as f64,
        WAVE_BYTES.load(Ordering::Relaxed) as f64,
        RULE_BYTES.load(Ordering::Relaxed) as f64,
    )
}

/// NOTIFY/ALERT frames the frontend broadcasts for a wave.
pub fn frames_of(report: &FleetStepReport) -> u64 {
    report
        .outcomes
        .iter()
        .map(|o| {
            let fired = o
                .report
                .as_ref()
                .map_or(0, |r| r.dispatched().len() + r.releases.len());
            fired as u64 + u64::from(!o.status.is_ok())
        })
        .sum()
}

// ------------------------------------------------------------- subscriber

/// A `SUBSCRIBE /events` connection drained on its own thread, so the
/// broadcast path is paid for and every frame is counted.
pub struct Subscriber {
    stop: Arc<AtomicBool>,
    received: Arc<AtomicU64>,
    handle: JoinHandle<Vec<(SimTime, Instant)>>,
}

impl Subscriber {
    pub fn start(server: &ApiServer) -> Subscriber {
        let mut stream = subscribe(server.addr(), None, Duration::from_millis(100))
            .expect("subscribe to events");
        let stop = Arc::new(AtomicBool::new(false));
        let received = Arc::new(AtomicU64::new(0));
        let (stop2, received2) = (Arc::clone(&stop), Arc::clone(&received));
        let handle = thread::spawn(move || {
            let mut arrivals = Vec::new();
            while !stop2.load(Ordering::Acquire) {
                let id = span_id();
                let start = now_ns();
                match stream.next_frame() {
                    Ok(Some(frame)) => {
                        let at = Instant::now();
                        if frame.starts_with("NOTIFY") || frame.starts_with("ALERT") {
                            record_span(id, 0, "api.frame", start, 0);
                            received2.fetch_add(1, Ordering::AcqRel);
                            if let Some(sim) = frame_time(&frame) {
                                arrivals.push((sim, at));
                            }
                        }
                    }
                    Ok(None) => break,
                    Err(e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ) => {}
                    Err(_) => break,
                }
            }
            arrivals
        });
        Subscriber {
            stop,
            received,
            handle,
        }
    }

    pub fn received(&self) -> u64 {
        self.received.load(Ordering::Acquire)
    }

    /// Waits (up to two seconds) for `expected` frames, then stops.
    /// Returns the frames received and each NOTIFY arrival.
    pub fn finish(self, expected: u64) -> (u64, Vec<(SimTime, Instant)>) {
        let deadline = Instant::now() + Duration::from_secs(2);
        while self.received() < expected && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(2));
        }
        self.stop.store(true, Ordering::Release);
        let arrivals = self.handle.join().expect("subscriber thread");
        (self.received.load(Ordering::Acquire), arrivals)
    }
}

/// The `at=` stamp of a frame (`d<day>+HH:MM`), as simulated time.
fn frame_time(frame: &str) -> Option<SimTime> {
    let stamp = frame
        .split_whitespace()
        .find_map(|w| w.strip_prefix("at="))?;
    let (day, hm) = stamp.strip_prefix('d')?.split_once('+')?;
    let (h, m) = hm.split_once(':')?;
    let day: u64 = day.parse().ok()?;
    let h: u64 = h.parse().ok()?;
    let m: u64 = m.parse().ok()?;
    Some(SimTime::from_millis(((day * 24 + h) * 60 + m) * 60_000))
}

/// Notify lag: from the wave's return to each frame's receipt (zero
/// when the frame beat the driver back from `step_fleet`).
pub fn notify_lags(
    arrivals: &[(SimTime, Instant)],
    wave_end: &HashMap<SimTime, Instant>,
) -> Vec<f64> {
    arrivals
        .iter()
        .filter_map(|(sim, at)| {
            let end = wave_end.get(sim)?;
            Some(at.saturating_duration_since(*end).as_secs_f64() * 1e6)
        })
        .collect()
}

// ------------------------------------------------------------ statistics

/// The `q`-quantile (nearest rank) of unsorted samples; 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Length of one measurement slice. Throughput and reaction figures are
/// medians over a window's slices, so a short stall of the shared
/// machine moves one slice rather than the result.
pub const SLICE_S: f64 = 2.0;

/// What one slice of a window measured.
#[derive(Clone, Debug, Default)]
pub struct Slice {
    pub readings: u64,
    pub react_us: Vec<f64>,
    pub rule_ops: u64,
}

/// What one timed window measured, before it becomes metrics.
#[derive(Debug, Default)]
pub struct Window {
    /// When the window started; slices count from here.
    pub start: Option<Instant>,
    pub seconds: f64,
    pub slices: Vec<Slice>,
    pub readings_applied: u64,
    pub register_ms: Vec<f64>,
    pub attempted: u64,
    pub failures: Failures,
    /// Per-layer samples, filled in every run (cheap) and reported by
    /// the traced run.
    pub post_us: Vec<f64>,
    pub wave_ms: Vec<f64>,
    pub tenant_step_us: Vec<f64>,
    pub wave_residual_ms: Vec<f64>,
    pub tenants_per_wave: Vec<f64>,
    pub gen_late_us: Vec<f64>,
    pub notify_lag_us: Vec<f64>,
    pub registrations: u64,
    pub waves: u64,
    pub frames_expected: u64,
}

impl Window {
    pub fn starting(start: Instant) -> Window {
        Window {
            start: Some(start),
            ..Window::default()
        }
    }

    fn slice(&mut self, at: Instant) -> &mut Slice {
        let i = self.start.map_or(0, |start| {
            (at.saturating_duration_since(start).as_secs_f64() / SLICE_S) as usize
        });
        if self.slices.len() <= i {
            self.slices.resize(i + 1, Slice::default());
        }
        &mut self.slices[i]
    }

    /// Records `n` readings applied by a wave that returned at `at`, each
    /// `react_us` after it was written (or due).
    pub fn applied(&mut self, at: Instant, n: usize, react_us: f64) {
        self.readings_applied += n as u64;
        let slice = self.slice(at);
        slice.readings += n as u64;
        slice.react_us.extend(std::iter::repeat_n(react_us, n));
    }

    /// Records one completed rule operation.
    pub fn rule_op(&mut self) {
        self.slice(Instant::now()).rule_ops += 1;
    }

    /// The slices wholly inside the window (at least one), and the
    /// seconds each covers.
    pub fn full_slices(&self) -> (&[Slice], f64) {
        let full = ((self.seconds / SLICE_S) as usize).clamp(1, self.slices.len().max(1));
        (
            &self.slices[..full.min(self.slices.len())],
            SLICE_S.min(self.seconds),
        )
    }

    /// Adds another thread's window over the same wall-clock interval.
    pub fn merge(&mut self, other: Window) {
        self.readings_applied += other.readings_applied;
        for (i, theirs) in other.slices.into_iter().enumerate() {
            if self.slices.len() <= i {
                self.slices.resize(i + 1, Slice::default());
            }
            let mine = &mut self.slices[i];
            mine.readings += theirs.readings;
            mine.react_us.extend(theirs.react_us);
            mine.rule_ops += theirs.rule_ops;
        }
        self.register_ms.extend(other.register_ms);
        self.attempted += other.attempted;
        self.failures.count += other.failures.count;
        self.failures.first.extend(other.failures.first);
        self.post_us.extend(other.post_us);
        self.wave_ms.extend(other.wave_ms);
        self.tenant_step_us.extend(other.tenant_step_us);
        self.wave_residual_ms.extend(other.wave_residual_ms);
        self.tenants_per_wave.extend(other.tenants_per_wave);
        self.gen_late_us.extend(other.gen_late_us);
        self.notify_lag_us.extend(other.notify_lag_us);
        self.registrations += other.registrations;
        self.waves += other.waves;
        self.frames_expected += other.frames_expected;
    }

    /// Folds one wave's report into the per-layer samples; a tenant
    /// fault is a failure.
    pub fn note_wave(&mut self, report: &FleetStepReport, elapsed: Duration) {
        let wave_ms = elapsed.as_secs_f64() * 1e3;
        self.waves += 1;
        self.wave_ms.push(wave_ms);
        self.tenants_per_wave.push(report.outcomes.len() as f64);
        let mut busy = 0.0;
        for outcome in &report.outcomes {
            let us = outcome.elapsed.as_secs_f64() * 1e6;
            busy += us;
            self.tenant_step_us.push(us);
        }
        let parallel = workers().min(report.outcomes.len().max(1)) as f64;
        self.wave_residual_ms
            .push((wave_ms - busy / 1e3 / parallel).max(0.0));
        self.frames_expected += frames_of(report);
        for outcome in report.outcomes.iter().filter(|o| !o.status.is_ok()) {
            self.failures.note(format!(
                "tenant {} fault: {:?}",
                outcome.tenant, outcome.status
            ));
        }
    }
}

/// A fresh directory for one set-up's WAL segments, under the
/// benchmark's own data directory in the working tree.
pub fn fresh_dir(tag: &str) -> PathBuf {
    let dir = data_root().join(format!("{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create data directory");
    dir
}

pub fn data_root() -> PathBuf {
    PathBuf::from(".bench_data")
}

/// Drains the subscriber after a window and folds its frames into the
/// window: a frame that never arrived is a failed operation.
pub fn finish_subscriber(
    w: &mut Window,
    subscriber: Subscriber,
    wave_end: &HashMap<SimTime, Instant>,
) {
    let (received, arrivals) = subscriber.finish(w.frames_expected);
    w.attempted += w.frames_expected;
    for _ in received..w.frames_expected {
        w.failures.note("NOTIFY frame dropped");
    }
    w.notify_lag_us = notify_lags(&arrivals, wave_end);
}

/// Drains and stops the frontend (client connections must be closed
/// first), then removes the set-up's WAL directory.
pub fn shutdown(server: &mut Option<ApiServer>, dir: &Path, now: SimTime) -> Vec<String> {
    let mut errors = Vec::new();
    if let Some(server) = server.take() {
        let outcome = server.shutdown(Duration::from_secs(10), now);
        if !outcome.is_clean() {
            errors.push(format!("unclean shutdown: {outcome:?}"));
        }
    }
    let _ = std::fs::remove_dir_all(dir);
    errors
}
