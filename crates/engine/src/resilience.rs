//! Fault tolerance for the actuation path: circuit breakers, retry with
//! bounded exponential backoff, and a dead-letter queue.
//!
//! The engine dispatches actions to devices that can fail transiently
//! (see `cadel-upnp`'s `FaultyDevice`). This module keeps the machinery
//! that makes those failures survivable:
//!
//! * [`ActuationError`] — distinguishes device faults from engine-side
//!   invariant breaks (a rule vanishing mid-dispatch is not a device
//!   problem and must not be retried or counted against a breaker).
//! * [`CircuitBreaker`] — per-device closed → open → half-open machine:
//!   after `failure_threshold` consecutive failures the device goes dark
//!   for a cooldown that doubles (capped) on every failed half-open
//!   probe. Rules targeting a tripped device are *deferred*
//!   (`FiringOutcome::Deferred`), not failed.
//! * [`Resilience`] — the retry queue (bounded exponential backoff with
//!   deterministic jitter, all on sim time), the per-device retry budget,
//!   and the dead-letter queue of exhausted actions. Dead letters replay
//!   when their device recovers; while a device stays dark with nothing
//!   queued, the oldest dead letter is resurrected as the half-open probe
//!   so the DLQ can never wedge.
//!
//! Everything is deterministic: backoff jitter comes from the workspace
//! SplitMix64 generator seeded per `(rule, attempt)`, and no wall clock
//! is ever read. Every state transition emits `cadel-obs` events and
//! metrics.

use cadel_obs::{Event as ObsEvent, LazyCounter, LazyGauge, Level};
use cadel_rule::ActionSpec;
use cadel_types::{DeviceId, Rng, RuleId, SimDuration, SimTime};
use cadel_upnp::UpnpError;
use std::collections::BTreeMap;
use std::fmt;

static BREAKER_TRIPS: LazyCounter = LazyCounter::new("engine_breaker_trips_total");
static BREAKER_RECOVERIES: LazyCounter = LazyCounter::new("engine_breaker_recoveries_total");
static BREAKERS_OPEN: LazyGauge = LazyGauge::new("engine_breakers_open");
static RETRIES_SCHEDULED: LazyCounter = LazyCounter::new("engine_retries_scheduled_total");
static RETRIES_CANCELLED: LazyCounter = LazyCounter::new("engine_retries_cancelled_total");
static RETRY_QUEUE_DEPTH: LazyGauge = LazyGauge::new("engine_retry_queue_depth");
static DEAD_LETTERS: LazyCounter = LazyCounter::new("engine_dead_letters_total");
static DLQ_DEPTH: LazyGauge = LazyGauge::new("engine_dead_letter_queue_depth");
static DLQ_REPLAYED: LazyCounter = LazyCounter::new("engine_dlq_replayed_total");
static DLQ_EVICTED: LazyCounter = LazyCounter::new("engine_dlq_evicted_total");

/// Why an actuation did not take effect: the device failed, or an
/// engine-side invariant broke. Only device faults are retryable.
#[derive(Clone, Debug, PartialEq)]
pub enum ActuationError {
    /// The device rejected or failed the invocation.
    Device(UpnpError),
    /// The rule disappeared from the database between arbitration and
    /// dispatch — an engine invariant break, not a device problem.
    RuleVanished(RuleId),
}

impl ActuationError {
    /// Whether retrying could help: only transient device faults qualify.
    /// Validation errors (unknown action, range violation, …) and engine
    /// invariant breaks are final.
    pub fn is_retryable(&self) -> bool {
        matches!(self, ActuationError::Device(UpnpError::DeviceFault(_)))
    }
}

impl fmt::Display for ActuationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActuationError::Device(e) => write!(f, "{e}"),
            ActuationError::RuleVanished(id) => write!(f, "rule#{} vanished", id.raw()),
        }
    }
}

impl From<UpnpError> for ActuationError {
    fn from(e: UpnpError) -> ActuationError {
        ActuationError::Device(e)
    }
}

/// Tunables for breakers and retries. The defaults suit minute-resolution
/// home scenarios; all durations are sim time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResilienceConfig {
    /// Consecutive failures that trip a closed breaker.
    pub failure_threshold: u32,
    /// Initial open-state cooldown before a half-open probe is allowed.
    pub cooldown: SimDuration,
    /// Cooldown cap for the doubling applied on failed probes.
    pub max_cooldown: SimDuration,
    /// Base delay of the first retry; doubles per attempt.
    pub retry_base: SimDuration,
    /// Upper bound on a single backoff delay (before jitter).
    pub retry_cap: SimDuration,
    /// Maximum invocation attempts per action (first try included) before
    /// it goes to the dead-letter queue.
    pub max_attempts: u32,
    /// Maximum queued retries per device; excess actions dead-letter
    /// immediately ("retry budget").
    pub device_budget: usize,
    /// Seed for the deterministic backoff jitter.
    pub jitter_seed: u64,
    /// Maximum dead letters retained; the queue is a bounded ring and
    /// the oldest letter is evicted (counted in
    /// `engine_dlq_evicted_total`) when a new one would overflow it, so
    /// a permanently failing device cannot grow memory without bound
    /// during long soaks.
    pub dlq_cap: usize,
}

impl Default for ResilienceConfig {
    fn default() -> ResilienceConfig {
        ResilienceConfig {
            failure_threshold: 3,
            cooldown: SimDuration::from_minutes(2),
            max_cooldown: SimDuration::from_minutes(16),
            retry_base: SimDuration::from_secs(30),
            retry_cap: SimDuration::from_minutes(4),
            max_attempts: 4,
            device_budget: 8,
            jitter_seed: 0xCADE1,
            dlq_cap: 256,
        }
    }
}

/// The observable state of a per-device circuit breaker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation; failures are being counted.
    Closed,
    /// The device is dark: dispatches are deferred until the cooldown
    /// elapses.
    Open,
    /// Cooldown elapsed; the next invocation is a probe.
    HalfOpen,
}

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        })
    }
}

/// One device's breaker. See [`BreakerState`] for the machine; cooldowns
/// double (up to `max_cooldown`) on every failed probe and reset on
/// recovery.
#[derive(Clone, Debug)]
pub struct CircuitBreaker {
    state: BreakerState,
    consecutive_failures: u32,
    /// Cooldown used for the *current/most recent* open period.
    cooldown: SimDuration,
    /// When an open breaker allows its half-open probe.
    reopen_at: SimTime,
}

impl CircuitBreaker {
    fn new(config: &ResilienceConfig) -> CircuitBreaker {
        CircuitBreaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            cooldown: config.cooldown,
            reopen_at: SimTime::EPOCH,
        }
    }

    /// The current state (without the time-based open → half-open
    /// promotion; see [`CircuitBreaker::allows`]).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Consecutive failures recorded while closed.
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }

    /// When the breaker next allows a probe (meaningful while open).
    pub fn reopen_at(&self) -> SimTime {
        self.reopen_at
    }

    /// The current (possibly doubled) cooldown — persistence export.
    pub(crate) fn cooldown(&self) -> SimDuration {
        self.cooldown
    }

    /// Whether an invocation may proceed at `now`; promotes an open
    /// breaker whose cooldown elapsed to half-open (the probe).
    pub fn allows(&mut self, now: SimTime) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if now >= self.reopen_at {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Whether an invocation at `now` would be blocked, without mutating.
    pub fn blocks(&self, now: SimTime) -> bool {
        self.state == BreakerState::Open && now < self.reopen_at
    }

    /// Records a successful invocation; returns `true` when this closed a
    /// tripped breaker (a recovery).
    pub fn on_success(&mut self, config: &ResilienceConfig) -> bool {
        let recovered = self.state != BreakerState::Closed;
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
        self.cooldown = config.cooldown;
        recovered
    }

    /// Records a failed invocation; returns `true` when this tripped the
    /// breaker open (from closed or from a failed half-open probe).
    pub fn on_failure(&mut self, now: SimTime, config: &ResilienceConfig) -> bool {
        match self.state {
            BreakerState::Closed => {
                // Saturating: a restored streak can sit at `u32::MAX`.
                self.consecutive_failures = self.consecutive_failures.saturating_add(1);
                if self.consecutive_failures >= config.failure_threshold {
                    self.state = BreakerState::Open;
                    self.cooldown = config.cooldown;
                    self.reopen_at = now + self.cooldown;
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen | BreakerState::Open => {
                // A failed probe (or a failure slipping in while open)
                // re-opens with a doubled, capped cooldown.
                let doubled = self.cooldown.as_millis().saturating_mul(2);
                self.cooldown =
                    SimDuration::from_millis(doubled.min(config.max_cooldown.as_millis()));
                let tripped = self.state == BreakerState::HalfOpen;
                self.state = BreakerState::Open;
                self.reopen_at = now + self.cooldown;
                tripped
            }
        }
    }
}

/// Whether a queued retry re-fires a rule's action or re-sends a missed
/// release (inverse action).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetryKind {
    /// Retry of a rule's main action; re-establishes the device hold on
    /// success.
    Fire,
    /// Retry of an `until`-release inverse action.
    Release,
}

impl fmt::Display for RetryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RetryKind::Fire => "fire",
            RetryKind::Release => "release",
        })
    }
}

/// One queued retry.
#[derive(Clone, Debug)]
pub struct RetryEntry {
    /// FIFO tiebreaker for equal due times.
    pub seq: u64,
    /// The rule whose action is being retried.
    pub rule: RuleId,
    /// Target device (denormalized from the action for budget checks).
    pub device: DeviceId,
    /// The action to re-invoke.
    pub action: ActionSpec,
    /// Fire or release semantics on success.
    pub kind: RetryKind,
    /// Which attempt the next invocation will be (1 = first retry after
    /// the original dispatch).
    pub attempt: u32,
    /// Sim instant the retry becomes due.
    pub next_at: SimTime,
}

/// An action whose retries were exhausted (or that never got a retry
/// slot). Replayed when its device recovers.
#[derive(Clone, Debug)]
pub struct DeadLetter {
    /// The rule whose action died.
    pub rule: RuleId,
    /// Target device.
    pub device: DeviceId,
    /// The undelivered action.
    pub action: ActionSpec,
    /// Fire or release semantics.
    pub kind: RetryKind,
    /// Attempts made before giving up.
    pub attempts: u32,
    /// The final error (or budget) that killed it.
    pub reason: String,
    /// When it was dead-lettered.
    pub at: SimTime,
}

/// A point-in-time view of one device's breaker, for status reporting.
#[derive(Clone, Debug)]
pub struct BreakerStatus {
    /// The device.
    pub device: DeviceId,
    /// Breaker state.
    pub state: BreakerState,
    /// Consecutive failures recorded.
    pub consecutive_failures: u32,
    /// Next probe instant while open.
    pub reopen_at: Option<SimTime>,
}

/// A point-in-time view of the whole resilience layer (exposed through
/// `HomeServer::resilience_status`).
#[derive(Clone, Debug, Default)]
pub struct ResilienceStatus {
    /// Every device that has a breaker (i.e. ever failed).
    pub breakers: Vec<BreakerStatus>,
    /// Queued retries.
    pub retry_queue: usize,
    /// Dead letters awaiting device recovery.
    pub dead_letters: usize,
}

/// The engine's fault-tolerance state: breakers per device, the retry
/// queue, and the dead-letter queue.
#[derive(Clone, Debug)]
pub struct Resilience {
    config: ResilienceConfig,
    breakers: BTreeMap<DeviceId, CircuitBreaker>,
    queue: Vec<RetryEntry>,
    dlq: Vec<DeadLetter>,
    next_seq: u64,
}

impl Default for Resilience {
    fn default() -> Resilience {
        Resilience::new(ResilienceConfig::default())
    }
}

impl Resilience {
    /// Creates the layer with the given tunables.
    pub fn new(config: ResilienceConfig) -> Resilience {
        Resilience {
            config,
            breakers: BTreeMap::new(),
            queue: Vec::new(),
            dlq: Vec::new(),
            next_seq: 0,
        }
    }

    /// The active tunables.
    pub fn config(&self) -> &ResilienceConfig {
        &self.config
    }

    /// Replaces the tunables (existing breaker/queue state is kept).
    pub fn set_config(&mut self, config: ResilienceConfig) {
        self.config = config;
    }

    /// The breaker state for a device; `Closed` when it never failed.
    pub fn breaker_state(&self, device: &DeviceId) -> BreakerState {
        self.breakers
            .get(device)
            .map(|b| b.state())
            .unwrap_or(BreakerState::Closed)
    }

    /// Re-derives the open-breaker gauge after a state transition.
    fn sync_breaker_gauge(&self) {
        BREAKERS_OPEN.set(
            self.breakers
                .values()
                .filter(|b| b.state() == BreakerState::Open)
                .count() as i64,
        );
    }

    /// Whether a dispatch to `device` may proceed at `now`. Promotes a
    /// due open breaker to half-open (the probe) and emits the
    /// transition event.
    pub fn breaker_allows(&mut self, device: &DeviceId, now: SimTime) -> bool {
        let Some(breaker) = self.breakers.get_mut(device) else {
            return true;
        };
        let was_open = breaker.state() == BreakerState::Open;
        let allowed = breaker.allows(now);
        if allowed && was_open {
            self.sync_breaker_gauge();
            if cadel_obs::enabled() {
                cadel_obs::emit(
                    ObsEvent::new("engine.breaker_half_open", Level::Info)
                        .with_field("device", device.as_str()),
                );
            }
        }
        allowed
    }

    /// Whether a dispatch to `device` at `now` would be blocked, without
    /// promoting the breaker (used on paths that must not probe).
    pub fn breaker_blocks(&self, device: &DeviceId, now: SimTime) -> bool {
        self.breakers
            .get(device)
            .map(|b| b.blocks(now))
            .unwrap_or(false)
    }

    /// The next probe instant for a device whose breaker is open.
    fn breaker_reopen_at(&self, device: &DeviceId) -> Option<SimTime> {
        let breaker = self.breakers.get(device)?;
        (breaker.state() == BreakerState::Open).then(|| breaker.reopen_at())
    }

    /// Records a successful invocation on `device`. On a recovery
    /// (tripped breaker closing) the device's dead letters are replayed
    /// into the retry queue; returns `true` on recovery.
    pub fn note_success(&mut self, device: &DeviceId, now: SimTime) -> bool {
        let Some(breaker) = self.breakers.get_mut(device) else {
            return false;
        };
        let recovered = breaker.on_success(&self.config);
        if !recovered {
            return false;
        }
        self.sync_breaker_gauge();
        BREAKER_RECOVERIES.inc();
        if cadel_obs::enabled() {
            cadel_obs::emit(
                ObsEvent::new("engine.breaker_recovered", Level::Info)
                    .with_field("device", device.as_str()),
            );
        }
        self.replay_dead_letters(device, now);
        true
    }

    /// Records a failed invocation on `device`; creates the breaker
    /// lazily. Returns `true` when this tripped the breaker open.
    pub fn note_failure(&mut self, device: &DeviceId, now: SimTime) -> bool {
        let breaker = self
            .breakers
            .entry(device.clone())
            .or_insert_with(|| CircuitBreaker::new(&self.config));
        let tripped = breaker.on_failure(now, &self.config);
        if tripped {
            let failures = breaker.consecutive_failures();
            let reopen_at = breaker.reopen_at();
            self.sync_breaker_gauge();
            BREAKER_TRIPS.inc();
            if cadel_obs::enabled() {
                cadel_obs::emit(
                    ObsEvent::new("engine.breaker_open", Level::Warn)
                        .with_field("device", device.as_str())
                        .with_field("failures", u64::from(failures))
                        .with_field("reopen_at", reopen_at.time_of_day().to_string()),
                );
            }
        }
        tripped
    }

    /// The backoff delay before retry `attempt` of `rule`:
    /// `min(base · 2^(attempt−1), cap)` plus a deterministic jitter in
    /// `[0, base/4]` derived from the jitter seed, the rule and the
    /// attempt. No wall clock, no shared RNG state — the same inputs
    /// always produce the same delay.
    pub fn backoff_delay(&self, rule: RuleId, attempt: u32) -> SimDuration {
        let base = self.config.retry_base.as_millis().max(1);
        let exp = base.saturating_mul(1u64 << (attempt.saturating_sub(1)).min(32));
        let bounded = exp.min(self.config.retry_cap.as_millis());
        let mut rng = Rng::new(
            self.config
                .jitter_seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(rule.raw().wrapping_mul(0x517c_c1b7_2722_0a95))
                .wrapping_add(u64::from(attempt)),
        );
        SimDuration::from_millis(bounded + rng.below(base / 4 + 1))
    }

    /// Queues a retry of `action` for `(rule, kind)`. Deduplicates on
    /// `(rule, kind)` (a newer schedule replaces the pending one) and
    /// enforces the per-device budget: over budget, the action goes
    /// straight to the dead-letter queue.
    pub fn schedule(
        &mut self,
        rule: RuleId,
        device: DeviceId,
        action: ActionSpec,
        kind: RetryKind,
        attempt: u32,
        now: SimTime,
    ) {
        self.queue.retain(|e| !(e.rule == rule && e.kind == kind));
        let queued_for_device = self.queue.iter().filter(|e| e.device == device).count();
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = RetryEntry {
            seq,
            rule,
            device,
            action,
            kind,
            attempt,
            next_at: now + self.backoff_delay(rule, attempt),
        };
        if queued_for_device >= self.config.device_budget {
            self.dead_letter(entry, "per-device retry budget exhausted", now);
            return;
        }
        RETRIES_SCHEDULED.inc();
        if cadel_obs::enabled() {
            cadel_obs::emit(
                ObsEvent::new("engine.retry_scheduled", Level::Debug)
                    .with_field("rule", entry.rule.raw())
                    .with_field("device", entry.device.as_str())
                    .with_field("kind", entry.kind.to_string())
                    .with_field("attempt", u64::from(entry.attempt))
                    .with_field("due", entry.next_at.time_of_day().to_string()),
            );
        }
        self.queue.push(entry);
        RETRY_QUEUE_DEPTH.set(self.queue.len() as i64);
    }

    /// Drains every retry due at `now`, ordered by `(next_at, seq)`.
    /// Also resurrects the oldest dead letter of any device whose open
    /// breaker is due for a probe and has nothing queued — otherwise a
    /// device whose every action dead-lettered would never be probed and
    /// its DLQ would wedge forever.
    pub fn take_due(&mut self, now: SimTime) -> Vec<RetryEntry> {
        let probe_devices: Vec<DeviceId> = self
            .breakers
            .iter()
            .filter(|&(device, breaker)| {
                breaker.state() == BreakerState::Open
                    && now >= breaker.reopen_at()
                    && self.dlq.iter().any(|d| &d.device == device)
                    && !self.queue.iter().any(|e| &e.device == device)
            })
            .map(|(device, _)| device.clone())
            .collect();
        for device in probe_devices {
            if let Some(pos) = self.dlq.iter().position(|d| d.device == device) {
                let letter = self.dlq.remove(pos);
                DLQ_DEPTH.set(self.dlq.len() as i64);
                DLQ_REPLAYED.inc();
                if cadel_obs::enabled() {
                    cadel_obs::emit(
                        ObsEvent::new("engine.dlq_probe", Level::Info)
                            .with_field("rule", letter.rule.raw())
                            .with_field("device", letter.device.as_str()),
                    );
                }
                let seq = self.next_seq;
                self.next_seq += 1;
                self.queue.push(RetryEntry {
                    seq,
                    rule: letter.rule,
                    device: letter.device,
                    action: letter.action,
                    kind: letter.kind,
                    attempt: 1,
                    next_at: now,
                });
            }
        }
        let mut due: Vec<RetryEntry> = Vec::new();
        let mut rest: Vec<RetryEntry> = Vec::new();
        for entry in self.queue.drain(..) {
            if entry.next_at <= now {
                due.push(entry);
            } else {
                rest.push(entry);
            }
        }
        self.queue = rest;
        RETRY_QUEUE_DEPTH.set(self.queue.len() as i64);
        due.sort_by_key(|e| (e.next_at, e.seq));
        due
    }

    /// Puts a drained entry back (e.g. its breaker is still open),
    /// re-due at `next_at`. Not counted as an attempt.
    pub fn requeue(&mut self, mut entry: RetryEntry, next_at: SimTime) {
        entry.next_at = next_at;
        self.queue.push(entry);
        RETRY_QUEUE_DEPTH.set(self.queue.len() as i64);
    }

    /// Requeues `entry` for when its device's breaker allows a probe, or
    /// at `fallback` when the breaker is not open.
    pub fn requeue_for_breaker(&mut self, entry: RetryEntry, fallback: SimTime) {
        let next_at = self
            .breaker_reopen_at(&entry.device)
            .unwrap_or(fallback)
            .max(fallback);
        self.requeue(entry, next_at);
    }

    /// Drops a drained entry whose retry no longer makes sense (rule
    /// gone, condition lapsed, device taken over by another rule).
    pub fn cancel(&mut self, entry: &RetryEntry, reason: &str) {
        RETRIES_CANCELLED.inc();
        if cadel_obs::enabled() {
            cadel_obs::emit(
                ObsEvent::new("engine.retry_cancelled", Level::Debug)
                    .with_field("rule", entry.rule.raw())
                    .with_field("device", entry.device.as_str())
                    .with_field("kind", entry.kind.to_string())
                    .with_field("reason", reason),
            );
        }
    }

    /// Moves an exhausted entry to the dead-letter queue.
    pub fn dead_letter(&mut self, entry: RetryEntry, reason: &str, now: SimTime) {
        DEAD_LETTERS.inc();
        if cadel_obs::enabled() {
            cadel_obs::emit(
                ObsEvent::new("engine.retry_exhausted", Level::Warn)
                    .with_field("rule", entry.rule.raw())
                    .with_field("device", entry.device.as_str())
                    .with_field("kind", entry.kind.to_string())
                    .with_field("attempts", u64::from(entry.attempt))
                    .with_field("reason", reason),
            );
        }
        self.dlq.push(DeadLetter {
            rule: entry.rule,
            device: entry.device,
            action: entry.action,
            kind: entry.kind,
            attempts: entry.attempt,
            reason: reason.to_owned(),
            at: now,
        });
        self.enforce_dlq_cap();
        DLQ_DEPTH.set(self.dlq.len() as i64);
    }

    /// Evicts the oldest dead letters past [`ResilienceConfig::dlq_cap`].
    fn enforce_dlq_cap(&mut self) {
        while self.dlq.len() > self.config.dlq_cap.max(1) {
            let evicted = self.dlq.remove(0);
            DLQ_EVICTED.inc();
            if cadel_obs::enabled() {
                cadel_obs::emit(
                    ObsEvent::new("engine.dlq_evicted", Level::Warn)
                        .with_field("rule", evicted.rule.raw())
                        .with_field("device", evicted.device.as_str())
                        .with_field("reason", evicted.reason),
                );
            }
        }
    }

    /// Replays every dead letter of a recovered device into the retry
    /// queue (fresh attempt counts, due immediately).
    fn replay_dead_letters(&mut self, device: &DeviceId, now: SimTime) {
        let mut kept = Vec::with_capacity(self.dlq.len());
        for letter in self.dlq.drain(..) {
            if &letter.device != device {
                kept.push(letter);
                continue;
            }
            DLQ_REPLAYED.inc();
            if cadel_obs::enabled() {
                cadel_obs::emit(
                    ObsEvent::new("engine.dlq_replayed", Level::Info)
                        .with_field("rule", letter.rule.raw())
                        .with_field("device", letter.device.as_str())
                        .with_field("kind", letter.kind.to_string()),
                );
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            self.queue.push(RetryEntry {
                seq,
                rule: letter.rule,
                device: letter.device,
                action: letter.action,
                kind: letter.kind,
                attempt: 1,
                next_at: now,
            });
        }
        self.dlq = kept;
        DLQ_DEPTH.set(self.dlq.len() as i64);
        RETRY_QUEUE_DEPTH.set(self.queue.len() as i64);
    }

    /// Drops all queued retries and dead letters of a removed rule.
    pub fn purge_rule(&mut self, rule: RuleId) {
        self.queue.retain(|e| e.rule != rule);
        self.dlq.retain(|d| d.rule != rule);
        RETRY_QUEUE_DEPTH.set(self.queue.len() as i64);
        DLQ_DEPTH.set(self.dlq.len() as i64);
    }

    /// Queued retries, in insertion order.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The dead letters currently awaiting recovery.
    pub fn dead_letters(&self) -> &[DeadLetter] {
        &self.dlq
    }

    /// Queued retries targeting a device.
    pub fn queued_for(&self, device: &DeviceId) -> usize {
        self.queue.iter().filter(|e| &e.device == device).count()
    }

    /// Every breaker with its device, in device order (persistence
    /// export; `BTreeMap` iteration is already deterministic).
    pub(crate) fn breaker_entries(&self) -> impl Iterator<Item = (&DeviceId, &CircuitBreaker)> {
        self.breakers.iter()
    }

    /// The retry queue in insertion order (persistence export).
    pub(crate) fn queue_entries(&self) -> &[RetryEntry] {
        &self.queue
    }

    /// The sequence counter the next scheduled retry would take.
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Reinstates a breaker exactly as checkpointed — state machine
    /// position, failure streak, grown cooldown, and reopen deadline.
    pub(crate) fn restore_breaker(
        &mut self,
        device: DeviceId,
        state: BreakerState,
        consecutive_failures: u32,
        cooldown: SimDuration,
        reopen_at: SimTime,
    ) {
        self.breakers.insert(
            device,
            CircuitBreaker {
                state,
                consecutive_failures,
                cooldown,
                reopen_at,
            },
        );
    }

    /// Reinstates a queued retry verbatim, keeping the sequence counter
    /// ahead of every restored entry.
    pub(crate) fn restore_retry(&mut self, entry: RetryEntry) {
        self.next_seq = self.next_seq.max(entry.seq + 1);
        self.queue.push(entry);
    }

    /// Reinstates a dead letter verbatim. The cap still applies: a
    /// checkpoint written under a larger `dlq_cap` is trimmed to the
    /// current one, oldest first.
    pub(crate) fn restore_dead_letter(&mut self, letter: DeadLetter) {
        self.dlq.push(letter);
        self.enforce_dlq_cap();
        DLQ_DEPTH.set(self.dlq.len() as i64);
    }

    /// Fast-forwards the sequence counter (persistence import; never
    /// moves it backwards).
    pub(crate) fn restore_next_seq(&mut self, seq: u64) {
        self.next_seq = self.next_seq.max(seq);
    }

    /// A point-in-time status snapshot.
    pub fn status(&self) -> ResilienceStatus {
        ResilienceStatus {
            breakers: self
                .breakers
                .iter()
                .map(|(device, b)| BreakerStatus {
                    device: device.clone(),
                    state: b.state(),
                    consecutive_failures: b.consecutive_failures(),
                    reopen_at: (b.state() == BreakerState::Open).then(|| b.reopen_at()),
                })
                .collect(),
            retry_queue: self.queue.len(),
            dead_letters: self.dlq.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadel_rule::Verb;

    fn cfg() -> ResilienceConfig {
        ResilienceConfig::default()
    }

    fn m(minutes: u64) -> SimTime {
        SimTime::EPOCH + SimDuration::from_minutes(minutes)
    }

    fn action(device: &str) -> ActionSpec {
        ActionSpec::new(DeviceId::new(device), Verb::TurnOn)
    }

    #[test]
    fn breaker_trips_after_threshold_and_probes_after_cooldown() {
        let config = cfg();
        let mut b = CircuitBreaker::new(&config);
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allows(m(0)));
        assert!(!b.on_failure(m(0), &config));
        assert!(!b.on_failure(m(1), &config));
        assert_eq!(b.consecutive_failures(), 2);
        // Third consecutive failure trips it.
        assert!(b.on_failure(m(2), &config));
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.reopen_at(), m(4)); // 2-minute cooldown
        assert!(!b.allows(m(3)));
        assert!(b.blocks(m(3)));
        // Cooldown elapsed: the next call is the half-open probe.
        assert!(b.allows(m(4)));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.blocks(m(4)));
    }

    #[test]
    fn half_open_probe_success_closes_failure_reopens_doubled() {
        let config = cfg();
        let mut b = CircuitBreaker::new(&config);
        for i in 0..3 {
            b.on_failure(m(i), &config);
        }
        assert!(b.allows(m(10))); // half-open
                                  // Probe fails: reopen with doubled cooldown (4 minutes).
        assert!(b.on_failure(m(10), &config));
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.reopen_at(), m(14));
        // Second failed probe: 8 minutes.
        assert!(b.allows(m(14)));
        b.on_failure(m(14), &config);
        assert_eq!(b.reopen_at(), m(22));
        // Doubling caps at max_cooldown (16 minutes).
        assert!(b.allows(m(22)));
        b.on_failure(m(22), &config);
        assert!(b.allows(m(38)));
        b.on_failure(m(38), &config);
        assert_eq!(b.reopen_at(), m(38) + config.max_cooldown);
        // A successful probe closes and resets everything.
        assert!(b.allows(m(60)));
        assert!(b.on_success(&config));
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.consecutive_failures(), 0);
        // Success while closed is not a "recovery".
        assert!(!b.on_success(&config));
        // And the cooldown is back to the base for the next trip.
        for i in 0..3 {
            b.on_failure(m(100 + i), &config);
        }
        assert_eq!(b.reopen_at(), m(102) + config.cooldown);
    }

    #[test]
    fn success_resets_the_failure_count_before_a_trip() {
        let config = cfg();
        let mut b = CircuitBreaker::new(&config);
        b.on_failure(m(0), &config);
        b.on_failure(m(1), &config);
        assert!(!b.on_success(&config)); // not a recovery, just a reset
        b.on_failure(m(2), &config);
        b.on_failure(m(3), &config);
        assert_eq!(b.state(), BreakerState::Closed); // 2 < threshold again
    }

    #[test]
    fn backoff_is_bounded_exponential_with_deterministic_jitter() {
        let r = Resilience::default();
        let rule = RuleId::new(7);
        let base = r.config().retry_base.as_millis();
        let cap = r.config().retry_cap.as_millis();
        let jitter_max = base / 4;
        let mut previous_floor = 0;
        for attempt in 1..=8 {
            let d = r.backoff_delay(rule, attempt).as_millis();
            let floor = (base << (attempt - 1).min(32)).min(cap);
            assert!(
                d >= floor && d <= floor + jitter_max,
                "attempt {attempt}: {d} outside [{floor}, {}]",
                floor + jitter_max
            );
            assert!(floor >= previous_floor, "backoff must not shrink");
            previous_floor = floor;
            // Deterministic: same inputs, same delay.
            assert_eq!(d, r.backoff_delay(rule, attempt).as_millis());
        }
        // Different rules jitter differently (with these constants).
        assert_ne!(
            r.backoff_delay(RuleId::new(1), 1).as_millis(),
            r.backoff_delay(RuleId::new(2), 1).as_millis()
        );
    }

    #[test]
    fn schedule_dedupes_per_rule_and_kind() {
        let mut r = Resilience::default();
        let rule = RuleId::new(1);
        let dev = DeviceId::new("lamp");
        r.schedule(rule, dev.clone(), action("lamp"), RetryKind::Fire, 1, m(0));
        r.schedule(rule, dev.clone(), action("lamp"), RetryKind::Fire, 2, m(1));
        assert_eq!(r.queue_len(), 1); // replaced, not duplicated
        r.schedule(rule, dev, action("lamp"), RetryKind::Release, 1, m(1));
        assert_eq!(r.queue_len(), 2); // distinct kinds coexist
    }

    #[test]
    fn device_budget_overflows_to_the_dlq() {
        let mut r = Resilience::new(ResilienceConfig {
            device_budget: 2,
            ..cfg()
        });
        let dev = DeviceId::new("lamp");
        for i in 0..4 {
            r.schedule(
                RuleId::new(i),
                dev.clone(),
                action("lamp"),
                RetryKind::Fire,
                1,
                m(0),
            );
        }
        assert_eq!(r.queue_len(), 2);
        assert_eq!(r.dead_letters().len(), 2);
        assert!(r.dead_letters()[0].reason.contains("budget"));
    }

    #[test]
    fn dlq_is_a_bounded_ring_evicting_oldest() {
        let mut r = Resilience::new(ResilienceConfig {
            device_budget: 0,
            dlq_cap: 3,
            ..cfg()
        });
        let dev = DeviceId::new("lamp");
        // Budget 0: every schedule dead-letters immediately.
        for i in 0..5 {
            r.schedule(
                RuleId::new(i + 1),
                dev.clone(),
                action("lamp"),
                RetryKind::Fire,
                1,
                m(i),
            );
        }
        let rules: Vec<u64> = r.dead_letters().iter().map(|d| d.rule.raw()).collect();
        assert_eq!(rules, vec![3, 4, 5], "oldest letters evicted first");
    }

    #[test]
    fn take_due_orders_by_time_then_seq_and_keeps_the_rest() {
        let mut r = Resilience::default();
        let dev = DeviceId::new("lamp");
        // Same scheduling instant → same backoff → FIFO by seq.
        r.schedule(
            RuleId::new(1),
            dev.clone(),
            action("lamp"),
            RetryKind::Fire,
            1,
            m(0),
        );
        r.schedule(
            RuleId::new(2),
            dev.clone(),
            action("lamp"),
            RetryKind::Fire,
            1,
            m(0),
        );
        r.schedule(
            RuleId::new(3),
            dev.clone(),
            action("lamp"),
            RetryKind::Fire,
            4,
            m(0),
        );
        assert!(r.take_due(m(0)).is_empty()); // nothing due yet
        let due = r.take_due(m(2));
        assert_eq!(due.len(), 2); // attempt-4 entry is minutes away
        assert!(due[0].next_at <= due[1].next_at);
        assert_eq!(r.queue_len(), 1);
    }

    #[test]
    fn recovery_replays_dead_letters_for_that_device_only() {
        let mut r = Resilience::default();
        let lamp = DeviceId::new("lamp");
        let tv = DeviceId::new("tv");
        // Trip the lamp's breaker.
        for i in 0..3 {
            r.note_failure(&lamp, m(i));
        }
        assert_eq!(r.breaker_state(&lamp), BreakerState::Open);
        assert!(!r.breaker_allows(&lamp, m(3)));
        // Exhausted actions for both devices.
        let entry = |rule: u64, device: &DeviceId| RetryEntry {
            seq: 0,
            rule: RuleId::new(rule),
            device: device.clone(),
            action: action(device.as_str()),
            kind: RetryKind::Fire,
            attempt: 4,
            next_at: m(0),
        };
        r.dead_letter(entry(1, &lamp), "injected fault", m(3));
        r.dead_letter(entry(2, &tv), "injected fault", m(3));
        assert_eq!(r.dead_letters().len(), 2);
        // Lamp recovers: its letter is requeued, the TV's stays.
        assert!(r.note_success(&lamp, m(10)));
        assert_eq!(r.dead_letters().len(), 1);
        assert_eq!(r.dead_letters()[0].device, tv);
        assert_eq!(r.queue_len(), 1);
        let due = r.take_due(m(10));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].rule, RuleId::new(1));
        assert_eq!(due[0].attempt, 1); // fresh attempt budget
    }

    #[test]
    fn due_open_breaker_with_only_dead_letters_gets_a_probe() {
        let mut r = Resilience::default();
        let lamp = DeviceId::new("lamp");
        for i in 0..3 {
            r.note_failure(&lamp, m(i));
        }
        r.dead_letter(
            RetryEntry {
                seq: 0,
                rule: RuleId::new(1),
                device: lamp.clone(),
                action: action("lamp"),
                kind: RetryKind::Fire,
                attempt: 4,
                next_at: m(0),
            },
            "injected fault",
            m(3),
        );
        assert_eq!(r.queue_len(), 0);
        // Before the cooldown elapses: nothing happens.
        assert!(r.take_due(m(3)).is_empty());
        assert_eq!(r.dead_letters().len(), 1);
        // After it: the dead letter is resurrected as the probe.
        let due = r.take_due(m(5));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].rule, RuleId::new(1));
        assert!(r.dead_letters().is_empty());
    }

    #[test]
    fn purge_rule_drops_queue_and_dlq_entries() {
        let mut r = Resilience::default();
        let dev = DeviceId::new("lamp");
        r.schedule(
            RuleId::new(1),
            dev.clone(),
            action("lamp"),
            RetryKind::Fire,
            1,
            m(0),
        );
        r.schedule(
            RuleId::new(2),
            dev.clone(),
            action("lamp"),
            RetryKind::Fire,
            1,
            m(0),
        );
        r.dead_letter(
            RetryEntry {
                seq: 99,
                rule: RuleId::new(1),
                device: dev,
                action: action("lamp"),
                kind: RetryKind::Release,
                attempt: 4,
                next_at: m(0),
            },
            "x",
            m(0),
        );
        r.purge_rule(RuleId::new(1));
        assert_eq!(r.queue_len(), 1);
        assert!(r.dead_letters().is_empty());
        let status = r.status();
        assert_eq!(status.retry_queue, 1);
        assert_eq!(status.dead_letters, 0);
    }
}
