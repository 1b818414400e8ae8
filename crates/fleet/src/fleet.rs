//! The fleet runtime: admission control, step waves, supervision.

use crate::config::FleetConfig;
use crate::tenant::{Ingress, Tenant, TenantBuilder, TenantParts, TenantState};
use cadel_obs::{Event, LazyCounter, LazyGauge, LazyHistogram, Level, NoisyNeighbourRollup};
use cadel_server::{HomeServer, ServerError};
use cadel_store::RecoveryReport;
use cadel_types::SimTime;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

static STEPS: LazyCounter = LazyCounter::new("fleet_steps_total");
static PANICS: LazyCounter = LazyCounter::new("fleet_panics_total");
static OVERRUNS: LazyCounter = LazyCounter::new("fleet_overruns_total");
static STORE_FAULTS: LazyCounter = LazyCounter::new("fleet_store_faults_total");
static RESTARTS: LazyCounter = LazyCounter::new("fleet_restarts_total");
static SHED: LazyCounter = LazyCounter::new("fleet_shed_total");
static COALESCED: LazyCounter = LazyCounter::new("fleet_coalesced_total");
static STEP_NS: LazyHistogram = LazyHistogram::new("fleet_step_ns");
static HEALTHY: LazyGauge = LazyGauge::new("fleet_tenants_healthy");
static QUARANTINED: LazyGauge = LazyGauge::new("fleet_tenants_quarantined");
static RESTARTING: LazyGauge = LazyGauge::new("fleet_tenants_restarting");
static BACKLOG: LazyGauge = LazyGauge::new("fleet_backlog");

/// Fleet-level errors (tenant-level faults are *contained*, not
/// returned: they show up as [`StepStatus`] and quarantine states).
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum FleetError {
    /// No tenant with this name.
    UnknownTenant(String),
    /// A tenant with this name already exists.
    DuplicateTenant(String),
    /// The tenant's inbox is full and the shed policy rejected the new
    /// entry.
    InboxFull {
        /// The tenant whose inbox overflowed.
        tenant: String,
    },
    /// Building the tenant failed.
    Build {
        /// The tenant being built.
        tenant: String,
        /// The underlying server error.
        error: ServerError,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::UnknownTenant(name) => write!(f, "unknown tenant '{name}'"),
            FleetError::DuplicateTenant(name) => write!(f, "tenant '{name}' already exists"),
            FleetError::InboxFull { tenant } => {
                write!(f, "tenant '{tenant}' inbox full; entry rejected")
            }
            FleetError::Build { tenant, error } => {
                write!(f, "building tenant '{tenant}' failed: {error}")
            }
        }
    }
}

impl Error for FleetError {}

/// How an offered ingress entry was admitted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Appended to the tenant's inbox.
    Enqueued,
    /// Replaced a queued reading of the same device variable in place
    /// (last-write-wins, the engine's own coalescing rule).
    Coalesced,
    /// Appended after shedding the oldest coalescible queued entry.
    AdmittedAfterShed,
}

/// What happened to one tenant during a step wave.
#[derive(Clone, Debug, PartialEq)]
pub enum StepStatus {
    /// Stepped and synced normally.
    Ok,
    /// The step panicked; the tenant is quarantined, its in-memory
    /// state discarded, and its drained batch requeued for replay
    /// after the WAL restart.
    Panicked(String),
    /// The step finished but blew the per-step deadline; the tenant is
    /// quarantined (a post-hoc watchdog — sync evaluation cannot be
    /// preempted).
    Overrun {
        /// Host wall time the step actually took.
        elapsed: Duration,
    },
    /// A WAL append or sync failed (e.g. disk full); the tenant is
    /// quarantined and will restart read-write from its WAL.
    StoreFault(String),
}

impl StepStatus {
    /// Whether the step left the tenant healthy.
    pub fn is_ok(&self) -> bool {
        matches!(self, StepStatus::Ok)
    }
}

/// One tenant's outcome within a [`FleetStepReport`].
#[derive(Clone, Debug)]
pub struct TenantStepOutcome {
    /// The tenant's index in the fleet.
    pub index: usize,
    /// The tenant's name.
    pub tenant: String,
    /// How the step ended.
    pub status: StepStatus,
    /// The engine step report, when the step ran to completion (also
    /// present for [`StepStatus::Overrun`]: the step finished, just too
    /// late).
    pub report: Option<cadel_engine::StepReport>,
    /// Host wall time of the step.
    pub elapsed: Duration,
}

/// The result of one fleet wave: per-tenant outcomes in tenant order.
#[derive(Debug, Default)]
pub struct FleetStepReport {
    /// Per-tenant outcomes, sorted by tenant index.
    pub outcomes: Vec<TenantStepOutcome>,
    /// Tenants restarted from their WAL in the pre-wave supervision
    /// pass.
    pub restarted: usize,
}

impl FleetStepReport {
    /// Tenants stepped this wave.
    pub fn stepped(&self) -> usize {
        self.outcomes.len()
    }

    /// Tenants whose step ended in a fault this wave.
    pub fn faults(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.status.is_ok()).count()
    }
}

/// A point-in-time fleet health summary.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FleetHealth {
    /// Tenants stepping normally.
    pub healthy: usize,
    /// Tenants quarantined (within or past their restart budget).
    pub quarantined: usize,
    /// Tenants currently being rebuilt (transient).
    pub restarting: usize,
    /// Total ingress entries queued across all inboxes.
    pub backlog: usize,
    /// `backlog` as a fraction of total inbox capacity.
    pub backpressure: f64,
    /// Cumulative caught panics.
    pub panics: u64,
    /// Cumulative deadline overruns.
    pub overruns: u64,
    /// Cumulative WAL append/sync faults.
    pub store_faults: u64,
    /// Cumulative successful WAL restarts.
    pub restarts: u64,
    /// Cumulative entries shed by admission control.
    pub shed: u64,
}

/// What a graceful [`Fleet::shutdown`] accomplished before the deadline.
#[derive(Debug, Default)]
pub struct ShutdownReport {
    /// Drain waves run (each a full [`Fleet::step_ready`]).
    pub waves: usize,
    /// Whether every inbox emptied before the deadline.
    pub drained: bool,
    /// Ingress entries still queued when draining stopped (quarantined
    /// tenants past their restart budget keep theirs; they are replayed
    /// after a [`Fleet::revive`] + restart, not lost).
    pub remaining_backlog: usize,
    /// Per-tenant checkpoint/sync failures from the final
    /// [`Fleet::checkpoint_all`] flush.
    pub flush_failures: Vec<(String, ServerError)>,
}

impl ShutdownReport {
    /// Whether the shutdown was fully clean: everything drained and
    /// every tenant's WAL flushed.
    pub fn is_clean(&self) -> bool {
        self.drained && self.flush_failures.is_empty()
    }
}

impl fmt::Display for ShutdownReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shutdown: {} waves, drained={}, backlog={}, flush failures={}",
            self.waves,
            self.drained,
            self.remaining_backlog,
            self.flush_failures.len()
        )
    }
}

/// A supervised multi-tenant fleet: thousands of independent
/// [`HomeServer`]s multiplexed over a fixed worker pool.
///
/// Scheduling is event-driven: [`Fleet::step_ready`] only steps tenants
/// whose inbox is non-empty, so an idle fleet costs one readiness scan.
/// Supervision is the core contract — each tenant step runs under
/// `catch_unwind` with a strike budget, and a tenant that panics,
/// overruns the step deadline, or whose WAL stops accepting appends is
/// quarantined and restarted from its own WAL segment.
pub struct Fleet {
    config: FleetConfig,
    root: PathBuf,
    tenants: Vec<Tenant>,
    index: BTreeMap<String, usize>,
    rollup: NoisyNeighbourRollup,
    panics_total: u64,
    overruns_total: u64,
    store_faults_total: u64,
    restarts_total: u64,
    shed_total: u64,
}

impl Fleet {
    /// Creates an empty fleet whose tenant WAL segments live under
    /// `root` (one `tenants/<name>/` directory each, the layout of
    /// [`cadel_store::segment_dir`]).
    pub fn new(root: impl Into<PathBuf>, config: FleetConfig) -> Fleet {
        Fleet {
            config,
            root: root.into(),
            tenants: Vec::new(),
            index: BTreeMap::new(),
            rollup: NoisyNeighbourRollup::new(),
            panics_total: 0,
            overruns_total: 0,
            store_faults_total: 0,
            restarts_total: 0,
            shed_total: 0,
        }
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Number of tenants (any state).
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Whether the fleet has no tenants.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// Tenant names in index order.
    pub fn names(&self) -> Vec<&str> {
        self.tenants.iter().map(|t| t.name.as_str()).collect()
    }

    /// The index of a tenant.
    pub fn tenant_index(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// Adds and immediately builds a tenant (recovering whatever a
    /// previous incarnation left in its WAL segment). Returns the
    /// tenant's index.
    ///
    /// # Errors
    ///
    /// [`FleetError::DuplicateTenant`] for a name collision,
    /// [`FleetError::Build`] when the builder fails.
    pub fn add_tenant(
        &mut self,
        name: impl Into<String>,
        build: impl Fn(&Path) -> Result<TenantParts, ServerError> + Send + Sync + 'static,
    ) -> Result<usize, FleetError> {
        self.add_tenant_arc(name, Arc::new(build))
    }

    /// [`Fleet::add_tenant`] with a pre-wrapped builder, for callers
    /// sharing one builder across many tenants.
    pub fn add_tenant_arc(
        &mut self,
        name: impl Into<String>,
        build: TenantBuilder,
    ) -> Result<usize, FleetError> {
        let name = name.into();
        if self.index.contains_key(&name) {
            return Err(FleetError::DuplicateTenant(name));
        }
        let dir = cadel_store::segment_dir(&self.root, &name);
        let parts = build(&dir).map_err(|error| FleetError::Build {
            tenant: name.clone(),
            error,
        })?;
        let idx = self.tenants.len();
        self.tenants.push(Tenant {
            name: name.clone(),
            dir,
            build,
            server: Some(parts.server),
            world: Some(parts.world),
            state: TenantState::Healthy,
            strikes: 0,
            inbox: std::collections::VecDeque::new(),
            steps: 0,
            restarts: 0,
            shed: 0,
            last_recovery: Some(parts.report),
            last_fault: None,
        });
        self.index.insert(name, idx);
        self.refresh_gauges();
        Ok(idx)
    }

    /// Offers one ingress entry to a tenant by name. See
    /// [`Fleet::offer_at`].
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownTenant`], or [`FleetError::InboxFull`] when
    /// the shed policy rejects the entry.
    pub fn offer(&mut self, tenant: &str, ingress: Ingress) -> Result<Admission, FleetError> {
        let idx = self
            .tenant_index(tenant)
            .ok_or_else(|| FleetError::UnknownTenant(tenant.to_owned()))?;
        self.offer_at(idx, ingress)
    }

    /// Offers one ingress entry to a tenant by index. Admission control
    /// runs here: a coalescible reading replaces a queued reading of
    /// the same device variable in place; a full inbox sheds its oldest
    /// coalescible entry to admit the newcomer, and refuses the newcomer
    /// when nothing queued is coalescible. Quarantined tenants keep accepting
    /// ingress (bounded — readings survive a quarantine window and are
    /// replayed after the restart).
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownTenant`] for a bad index,
    /// [`FleetError::InboxFull`] when the full inbox holds nothing
    /// coalescible to shed.
    pub fn offer_at(&mut self, index: usize, ingress: Ingress) -> Result<Admission, FleetError> {
        let capacity = self.config.inbox_capacity.max(1);
        let tenant = self
            .tenants
            .get_mut(index)
            .ok_or_else(|| FleetError::UnknownTenant(format!("#{index}")))?;
        if ingress.coalescible() {
            if let Some(slot) = tenant
                .inbox
                .iter_mut()
                .find(|e| e.device == ingress.device && e.variable == ingress.variable)
            {
                *slot = ingress;
                COALESCED.inc();
                return Ok(Admission::Coalesced);
            }
        }
        if tenant.inbox.len() < capacity {
            tenant.inbox.push_back(ingress);
            return Ok(Admission::Enqueued);
        }
        // Full: shed.
        tenant.shed += 1;
        self.shed_total += 1;
        SHED.inc();
        let name = tenant.name.clone();
        let admitted = match tenant.inbox.iter().position(Ingress::coalescible) {
            Some(oldest) => {
                tenant.inbox.remove(oldest);
                tenant.inbox.push_back(ingress);
                true
            }
            None => false,
        };
        self.rollup.note_shed(&name, 1);
        BACKLOG.set(self.backlog() as i64);
        if admitted {
            Ok(Admission::AdmittedAfterShed)
        } else {
            Err(FleetError::InboxFull { tenant: name })
        }
    }

    /// Total queued ingress across all tenant inboxes.
    pub fn backlog(&self) -> usize {
        self.tenants.iter().map(|t| t.inbox.len()).sum()
    }

    /// The fleet-wide backpressure signal: backlog as a fraction of
    /// total inbox capacity, in `[0, 1]`.
    pub fn backpressure(&self) -> f64 {
        let capacity = (self.config.inbox_capacity.max(1) * self.tenants.len().max(1)) as f64;
        self.backlog() as f64 / capacity
    }

    /// Whether backpressure is past the configured watermark — the
    /// signal for traffic sources to slow down.
    pub fn overloaded(&self) -> bool {
        self.backpressure() >= self.config.backpressure_watermark
    }

    /// Restarts quarantined tenants within their budget, then steps
    /// every healthy tenant with a non-empty inbox (event-driven: idle
    /// tenants cost nothing) across the worker pool. The worker that
    /// stepped a tenant then syncs its WAL, which costs a system call
    /// only when the step logged something (in steady state, the
    /// tenant's phased runtime checkpoint). When this returns, every
    /// tenant whose step ended [`StepStatus::Ok`] has its WAL on stable
    /// storage. Any tenant fault — panic, deadline overrun,
    /// append/sync failure — quarantines that tenant only.
    pub fn step_ready(&mut self, now: SimTime) -> FleetStepReport {
        let restarted = self.restart_quarantined();
        let config = self.config;
        let mut outcomes: Vec<TenantStepOutcome> = {
            let mut ready: Vec<(usize, &mut Tenant)> = self
                .tenants
                .iter_mut()
                .enumerate()
                .filter(|(_, t)| t.state == TenantState::Healthy && !t.inbox.is_empty())
                .collect();
            let workers = config.workers.max(1).min(ready.len().max(1));
            if workers <= 1 {
                ready
                    .iter_mut()
                    .map(|(idx, tenant)| step_one(*idx, tenant, now, &config))
                    .collect()
            } else {
                let chunk = ready.len().div_ceil(workers);
                std::thread::scope(|scope| {
                    let handles: Vec<_> = ready
                        .chunks_mut(chunk)
                        .map(|slice| {
                            scope.spawn(move || {
                                slice
                                    .iter_mut()
                                    .map(|(idx, tenant)| step_one(*idx, tenant, now, &config))
                                    .collect::<Vec<_>>()
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .flat_map(|h| h.join().expect("fleet workers catch tenant panics"))
                        .collect()
                })
            }
        };
        outcomes.sort_by_key(|o| o.index);

        for outcome in &outcomes {
            let nanos = outcome.elapsed.as_nanos() as u64;
            STEPS.inc();
            STEP_NS.observe(nanos);
            let firings = outcome
                .report
                .as_ref()
                .map(|r| r.dispatched().len() as u64)
                .unwrap_or(0);
            self.rollup.note_step(&outcome.tenant, nanos, firings);
            match &outcome.status {
                StepStatus::Ok => {}
                StepStatus::Panicked(_) => {
                    PANICS.inc();
                    self.panics_total += 1;
                    self.rollup.note_panic(&outcome.tenant);
                }
                StepStatus::Overrun { .. } => {
                    OVERRUNS.inc();
                    self.overruns_total += 1;
                }
                StepStatus::StoreFault(_) => {
                    STORE_FAULTS.inc();
                    self.store_faults_total += 1;
                }
            }
        }
        self.refresh_gauges();
        FleetStepReport {
            outcomes,
            restarted,
        }
    }

    /// Restarts every quarantined tenant whose strike count is within
    /// the panic budget: rebuild the device world, recover the server
    /// from the tenant's own WAL segment. Returns how many came back.
    fn restart_quarantined(&mut self) -> usize {
        let mut restarted = 0;
        for tenant in &mut self.tenants {
            if tenant.state != TenantState::Quarantined || tenant.strikes > self.config.panic_budget
            {
                continue;
            }
            tenant.state = TenantState::Restarting;
            RESTARTING.set(1);
            match (tenant.build)(&tenant.dir) {
                Ok(parts) => {
                    if cadel_obs::enabled() {
                        let event = if parts.report.is_lossy() {
                            // Quarantine-restarts alarm on lossy recovery
                            // instead of silently dropping records.
                            Event::new("fleet.lossy_recovery", Level::Warn)
                                .with_field("records_skipped", parts.report.records_skipped)
                                .with_field("bytes_truncated", parts.report.bytes_truncated)
                        } else {
                            Event::new("fleet.tenant_restarted", Level::Info)
                        };
                        cadel_obs::emit(
                            event
                                .with_field("tenant", tenant.name.clone())
                                .with_field("records_replayed", parts.report.records_replayed),
                        );
                    }
                    tenant.server = Some(parts.server);
                    tenant.world = Some(parts.world);
                    tenant.last_recovery = Some(parts.report);
                    tenant.state = TenantState::Healthy;
                    tenant.restarts += 1;
                    RESTARTS.inc();
                    self.restarts_total += 1;
                    restarted += 1;
                }
                Err(error) => {
                    tenant.state = TenantState::Quarantined;
                    tenant.strikes += 1;
                    tenant.last_fault = Some(format!("restart failed: {error}"));
                    if cadel_obs::enabled() {
                        cadel_obs::emit(
                            Event::new("fleet.restart_failed", Level::Warn)
                                .with_field("tenant", tenant.name.clone())
                                .with_field("error", error.to_string()),
                        );
                    }
                }
            }
            RESTARTING.set(0);
        }
        restarted
    }

    /// Checkpoints and syncs every healthy tenant's engine runtime, so
    /// each WAL segment captures the tenant's current state (e.g.
    /// before comparing segments against live state). A tenant whose
    /// checkpoint fails is quarantined; its error is returned.
    pub fn checkpoint_all(&mut self) -> Vec<(String, ServerError)> {
        let mut failures = Vec::new();
        for tenant in &mut self.tenants {
            if tenant.state != TenantState::Healthy {
                continue;
            }
            let Some(server) = tenant.server.as_mut() else {
                continue;
            };
            let result = server.checkpoint_runtime().and_then(|()| server.sync());
            if let Err(error) = result {
                failures.push((tenant.name.clone(), error.clone()));
                tenant.quarantine(format!("checkpoint failed: {error}"));
            }
        }
        self.refresh_gauges();
        failures
    }

    /// Gracefully drains the fleet for shutdown: runs [`Fleet::step_ready`]
    /// waves (which also restart quarantined tenants still within
    /// budget) until every inbox is empty, draining stalls, or `deadline`
    /// of host wall time elapses — then flushes every healthy tenant's
    /// runtime to its WAL via [`Fleet::checkpoint_all`] and syncs.
    ///
    /// The caller (typically a network frontend) is expected to stop
    /// offering ingress first; entries admitted while draining still
    /// count toward the backlog and may keep the drain running until the
    /// deadline. `now` stamps the drain waves' engine steps.
    pub fn shutdown(&mut self, deadline: Duration, now: SimTime) -> ShutdownReport {
        let started = Instant::now();
        let mut waves = 0;
        while self.backlog() > 0 && started.elapsed() < deadline {
            let before = self.backlog();
            self.step_ready(now);
            waves += 1;
            if self.backlog() >= before {
                // Stalled: remaining entries sit in inboxes of tenants
                // that cannot come back (budget-exhausted quarantine).
                break;
            }
        }
        let flush_failures = self.checkpoint_all();
        let remaining_backlog = self.backlog();
        let report = ShutdownReport {
            waves,
            drained: remaining_backlog == 0,
            remaining_backlog,
            flush_failures,
        };
        if cadel_obs::enabled() {
            cadel_obs::emit(
                Event::new("fleet.shutdown", Level::Info)
                    .with_field("waves", report.waves as u64)
                    .with_field("drained", report.drained)
                    .with_field("backlog", report.remaining_backlog as u64)
                    .with_field("flush_failures", report.flush_failures.len() as u64),
            );
        }
        report
    }

    /// Resets a permanently quarantined tenant's strike budget so the
    /// next [`Fleet::step_ready`] restarts it from its WAL.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownTenant`].
    pub fn revive(&mut self, name: &str) -> Result<(), FleetError> {
        let idx = self
            .tenant_index(name)
            .ok_or_else(|| FleetError::UnknownTenant(name.to_owned()))?;
        self.tenants[idx].strikes = 0;
        Ok(())
    }

    /// A point-in-time health summary.
    pub fn health(&self) -> FleetHealth {
        let mut health = FleetHealth {
            backlog: self.backlog(),
            backpressure: self.backpressure(),
            panics: self.panics_total,
            overruns: self.overruns_total,
            store_faults: self.store_faults_total,
            restarts: self.restarts_total,
            shed: self.shed_total,
            ..FleetHealth::default()
        };
        for tenant in &self.tenants {
            match tenant.state {
                TenantState::Healthy => health.healthy += 1,
                TenantState::Quarantined => health.quarantined += 1,
                TenantState::Restarting => health.restarting += 1,
            }
        }
        health
    }

    /// The per-tenant load rollup (noisy-neighbour ranking).
    pub fn rollup(&self) -> &NoisyNeighbourRollup {
        &self.rollup
    }

    /// The `k` noisiest tenants, rendered one line each.
    pub fn render_noisy(&self, k: usize) -> String {
        self.rollup.render_top(k)
    }

    /// A tenant's supervision state.
    pub fn state_of(&self, name: &str) -> Option<TenantState> {
        self.tenant(name).map(|t| t.state)
    }

    /// A tenant's accumulated quarantine strikes.
    pub fn strikes_of(&self, name: &str) -> Option<u32> {
        self.tenant(name).map(|t| t.strikes)
    }

    /// How many times a tenant restarted from its WAL.
    pub fn restarts_of(&self, name: &str) -> Option<u64> {
        self.tenant(name).map(|t| t.restarts)
    }

    /// A tenant's queued ingress count.
    pub fn inbox_len_of(&self, name: &str) -> Option<usize> {
        self.tenant(name).map(|t| t.inbox.len())
    }

    /// The last fault that quarantined a tenant, if any.
    pub fn last_fault_of(&self, name: &str) -> Option<String> {
        self.tenant(name).and_then(|t| t.last_fault.clone())
    }

    /// The recovery report of a tenant's most recent (re)build.
    pub fn last_recovery_of(&self, name: &str) -> Option<RecoveryReport> {
        self.tenant(name).and_then(|t| t.last_recovery.clone())
    }

    /// A tenant's WAL segment directory.
    pub fn dir_of(&self, name: &str) -> Option<PathBuf> {
        self.tenant(name).map(|t| t.dir.clone())
    }

    /// The tenant's live server (absent while quarantined).
    pub fn server_of(&self, name: &str) -> Option<&HomeServer> {
        self.tenant(name).and_then(|t| t.server.as_ref())
    }

    /// Mutable access to a tenant's live server — chaos hooks and fault
    /// injection for soak tests, admin surgery otherwise.
    pub fn server_mut_of(&mut self, name: &str) -> Option<&mut HomeServer> {
        let idx = self.tenant_index(name)?;
        self.tenants[idx].server.as_mut()
    }

    fn tenant(&self, name: &str) -> Option<&Tenant> {
        self.tenant_index(name).map(|idx| &self.tenants[idx])
    }

    fn refresh_gauges(&self) {
        let health = self.health();
        HEALTHY.set(health.healthy as i64);
        QUARANTINED.set(health.quarantined as i64);
        RESTARTING.set(health.restarting as i64);
        BACKLOG.set(health.backlog as i64);
    }
}

/// Steps one tenant under supervision, then syncs its WAL. Runs on a
/// worker thread with exclusive ownership of the tenant; every fault
/// path quarantines the tenant in place and the wave goes on. The
/// reported `elapsed`, and so the deadline watchdog, times the step
/// alone: a slow disk is a sync, not an overrun.
fn step_one(
    index: usize,
    tenant: &mut Tenant,
    now: SimTime,
    config: &FleetConfig,
) -> TenantStepOutcome {
    let batch: Vec<Ingress> = tenant.inbox.drain(..).collect();
    // Phased by fleet index, so tenants stepping in lockstep spread
    // their checkpoints (and the syncs they cost) over the waves.
    let checkpoint_due = config.checkpoint_every > 0
        && (tenant.steps + 1 + index as u64).is_multiple_of(config.checkpoint_every);
    let started = Instant::now();
    let result = {
        let (Some(server), Some(world)) = (tenant.server.as_mut(), tenant.world.as_mut()) else {
            unreachable!("healthy tenant without server/world");
        };
        catch_unwind(AssertUnwindSafe(|| {
            for ingress in &batch {
                world.deliver(ingress);
            }
            let report = server.step(now);
            if checkpoint_due {
                server.checkpoint_runtime()?;
            }
            Ok::<cadel_engine::StepReport, ServerError>(report)
        }))
    };
    let elapsed = started.elapsed();
    let name = tenant.name.clone();
    match result {
        Err(payload) => {
            let fault = format!("panic: {}", panic_message(payload.as_ref()));
            // The batch was drained but never durably consumed: requeue
            // it ahead of anything admitted later, so the restarted
            // tenant replays it instead of losing it.
            for ingress in batch.into_iter().rev() {
                tenant.inbox.push_front(ingress);
            }
            tenant.quarantine(fault.clone());
            TenantStepOutcome {
                index,
                tenant: name,
                status: StepStatus::Panicked(fault),
                report: None,
                elapsed,
            }
        }
        Ok(Err(error)) => {
            let fault = format!("checkpoint failed: {error}");
            tenant.quarantine(fault.clone());
            TenantStepOutcome {
                index,
                tenant: name,
                status: StepStatus::StoreFault(fault),
                report: None,
                elapsed,
            }
        }
        Ok(Ok(report)) => {
            let read_only = tenant.server.as_ref().is_some_and(HomeServer::is_read_only);
            if read_only {
                let fault = "wal append failed; tenant went read-only".to_owned();
                tenant.quarantine(fault.clone());
                TenantStepOutcome {
                    index,
                    tenant: name,
                    status: StepStatus::StoreFault(fault),
                    report: Some(report),
                    elapsed,
                }
            } else if elapsed > config.step_deadline {
                tenant.quarantine(format!("step overran deadline: {elapsed:?}"));
                TenantStepOutcome {
                    index,
                    tenant: name,
                    status: StepStatus::Overrun { elapsed },
                    report: Some(report),
                    elapsed,
                }
            } else {
                tenant.steps += 1;
                let synced = tenant.server.as_mut().map_or(Ok(()), HomeServer::sync);
                let status = match synced {
                    Ok(()) => StepStatus::Ok,
                    // The step ran and its report stands, so the batch
                    // is not requeued.
                    Err(error) => {
                        let fault = format!("wave sync failed: {error}");
                        tenant.quarantine(fault.clone());
                        StepStatus::StoreFault(fault)
                    }
                };
                TenantStepOutcome {
                    index,
                    tenant: name,
                    status,
                    report: Some(report),
                    elapsed,
                }
            }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_owned()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}
