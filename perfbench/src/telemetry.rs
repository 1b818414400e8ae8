//! `telemetry`: many small unit tenants, closed loop over one gateway
//! connection, with an event subscriber. Each reading touches at most
//! three rules, so HTTP, admission, the fleet inbox and waves, runtime
//! checkpoints and the group-fsync pass do the work.

use crate::common::*;
use crate::Workload;
use cadel_api::{ApiClient, ApiServer};
use cadel_fleet::Fleet;
use cadel_sim::{tenant_name, unit_tenant_builder, FleetTraffic};
use cadel_types::{Rng, SimTime};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Unit tenants driven by the traffic generator.
const TENANTS: usize = 192;
/// Ticks run during set-up, before anything is timed.
const WARMUP_TICKS: u64 = 8;
/// One rule edit (submit, then remove) every this many ticks, on a
/// dedicated tenant that receives no readings.
const EDIT_EVERY: u64 = 2;
/// Tenants whose final state is compared against a replay.
const CHECK_SAMPLE: usize = 4;
const EDITOR: &str = "editor";

pub struct Telemetry {
    seed: u64,
    dir: PathBuf,
    server: Option<ApiServer>,
    client: ApiClient,
    traffic: FleetTraffic,
    paths: Vec<String>,
    tick: u64,
    edits: u64,
}

impl Telemetry {
    pub fn setup(seed: u64, rep: usize) -> Telemetry {
        let dir = fresh_dir(&format!("telemetry-{seed}-{rep}"));
        let mut fleet = Fleet::new(&dir, fleet_config());
        let builder = timed_builder(unit_tenant_builder(None));
        for i in 0..TENANTS {
            fleet
                .add_tenant_arc(tenant_name(i), builder.clone())
                .expect("fresh unit tenant");
        }
        fleet
            .add_tenant_arc(EDITOR, builder)
            .expect("fresh editor tenant");
        let server = bind(fleet);
        let client = ApiClient::connect(server.addr()).expect("client");
        let mut env = Telemetry {
            seed,
            dir,
            server: Some(server),
            client,
            traffic: FleetTraffic::new(TENANTS, seed),
            paths: (0..TENANTS)
                .map(|i| format!("/tenants/{}/readings", tenant_name(i)))
                .collect(),
            tick: 0,
            edits: 0,
        };
        let mut warm = Window::default();
        for _ in 0..WARMUP_TICKS {
            env.tick(&mut warm, &mut HashMap::new());
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

    /// One closed-loop tick: generate, post every tenant's batch, run
    /// the wave, and every few ticks edit a rule.
    fn tick(&mut self, w: &mut Window, wave_end: &mut HashMap<SimTime, Instant>) {
        let tick_id = span_id();
        let tick_start = now_ns();
        let due = Instant::now();
        let at = tick_time(self.tick);
        let batches = self.traffic.tick(at);
        let bodies: Vec<_> = batches.iter().map(|b| readings_body(b)).collect();
        w.gen_late_us.push(due.elapsed().as_secs_f64() * 1e6);

        let mut sent = Vec::with_capacity(bodies.len());
        for (i, body) in bodies.iter().enumerate() {
            let (response, t0) =
                post_readings(&mut self.client, &self.paths[i], body, tick_id, self.tick);
            w.post_us.push(t0.elapsed().as_secs_f64() * 1e6);
            w.attempted += 1;
            let ok = admitted_all(&mut w.failures, &response);
            sent.push((ok, t0));
        }

        let w0 = Instant::now();
        let report = wave(self.server(), at, tick_id, self.tick);
        let w1 = Instant::now();
        w.attempted += 1;
        w.note_wave(&report, w1 - w0);
        wave_end.insert(at, w1);
        let mut stepped = [false; TENANTS + 1];
        for outcome in report.outcomes.iter().filter(|o| o.status.is_ok()) {
            stepped[outcome.index] = true;
        }
        for (i, (ok, t0)) in sent.iter().enumerate() {
            if !ok {
                continue;
            }
            if !stepped[i] {
                w.failures.note(format!("tenant {i} readings not applied"));
                continue;
            }
            w.applied(w1, batches[i].len(), (w1 - *t0).as_secs_f64() * 1e6);
        }

        if self.tick.is_multiple_of(EDIT_EVERY) {
            self.edit_rule(w, tick_id);
        }
        record_span(tick_id, 0, "tick", tick_start, self.tick);
        self.tick += 1;
    }

    /// Registers a rule on the editor tenant over the wire, then removes
    /// it again: a conflict-free sentence, so `201` then `200`.
    fn edit_rule(&mut self, w: &mut Window, tick_id: u64) {
        let threshold = 80 + self.edits % 10;
        self.edits += 1;
        let sentence =
            format!("If the humidity is higher than {threshold} percent, turn on the lamp.");
        let span = ("api.rule.inline", tick_id, self.edits);
        submit_rule(&mut self.client, w, EDITOR, &sentence, 201, span);
    }
}

impl Workload for Telemetry {
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

    fn check(&mut self) -> Vec<String> {
        let mut errors = Vec::new();
        let mut rng = Rng::new(self.seed ^ 0x7e1e_3e7e);
        let mut sample: Vec<usize> = Vec::new();
        while sample.len() < CHECK_SAMPLE {
            let i = rng.below(TENANTS as u64) as usize;
            if !sample.contains(&i) {
                sample.push(i);
            }
        }
        sample.sort_unstable();
        let dir = fresh_dir(&format!("telemetry-{}-reference", self.seed));
        let mut reference = Fleet::new(&dir, fleet_config());
        let builder = unit_tenant_builder(None);
        for &i in &sample {
            reference
                .add_tenant_arc(tenant_name(i), builder.clone())
                .expect("fresh reference tenant");
        }
        let mut traffic = FleetTraffic::new(TENANTS, self.seed);
        for tick in 0..self.tick {
            let at = tick_time(tick);
            let batches = traffic.tick(at);
            for &i in &sample {
                for ingress in &batches[i] {
                    if let Err(e) = reference.offer(&tenant_name(i), ingress.clone()) {
                        errors.push(format!("reference offer failed: {e}"));
                    }
                }
            }
            reference.step_ready(at);
        }
        for &i in &sample {
            let name = tenant_name(i);
            let expected = reference
                .server_of(&name)
                .map(|s| s.snapshot_json().to_compact());
            let live = self
                .server()
                .with_fleet(|f| f.server_of(&name).map(|s| s.snapshot_json().to_compact()));
            if live.is_none() || live != expected {
                errors.push(format!("tenant {name}: live state differs from the replay"));
            }
        }
        drop(reference);
        let _ = std::fs::remove_dir_all(&dir);
        let health = self.server().with_fleet(|f| f.health());
        if health.healthy != TENANTS + 1 {
            errors.push(format!("fleet health: {health:?}"));
        }
        errors
    }

    fn teardown(&mut self) -> Vec<String> {
        // Close the keep-alive connection first: the drain waits for it.
        self.client = ApiClient::connect(self.server().addr()).expect("client");
        shutdown(&mut self.server, &self.dir, tick_time(self.tick))
    }
}
