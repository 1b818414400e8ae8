//! The rule execution module (paper §4.1): event ingestion, condition
//! evaluation, runtime conflict arbitration and device dispatch.
//!
//! [`Engine::step`] runs as a pipeline — batched ingest with per-sensor
//! coalescing, candidate selection through the trigger index, one pass
//! that evaluates each candidate and commits its verdict in ascending
//! `RuleId` order, and per-device arbitration and dispatch. See
//! `docs/CONCURRENCY.md`.

use crate::context::{
    default_epoch, ContextStore, FreshnessPolicy, ARRIVAL_VARIABLE, OCCUPANTS_VARIABLE,
    ON_AIR_VARIABLE,
};
use crate::error::EngineError;
use crate::eval::{DwellObserver, HeldTracker};
use crate::index::{Candidate, TriggerIndex};
use crate::resilience::{ActuationError, Resilience, ResilienceConfig, RetryKind};
use cadel_conflict::{PriorityOrder, PriorityStore, Resolution};
use cadel_ir::{eval_code, CondCode, Pred};
use cadel_obs::{Event as ObsEvent, LazyCounter, LazyGauge, LazyHistogram, Level, Span, Stopwatch};
use cadel_rule::{compile_condition, ActionSpec, Rule, RuleDb, RuleError, Verb};
use cadel_types::{DeviceId, RuleId, SimTime, Value};
use cadel_upnp::{ControlPoint, Subscription, UpnpError};
use std::collections::HashMap;
use std::fmt;

/// Runtime-state checkpoint export/import. A child of this module so it
/// can reach the engine's private runtime fields without widening their
/// visibility.
#[path = "persist.rs"]
pub mod persist;

/// Engine steps executed.
static STEPS: LazyCounter = LazyCounter::new("engine_steps_total");
/// Device property-change events ingested across all steps.
static EVENTS_INGESTED: LazyCounter = LazyCounter::new("engine_events_ingested_total");
/// Ingested events dropped by batch coalescing (a later reading of the
/// same sensor superseded them within one step).
static EVENTS_COALESCED: LazyCounter = LazyCounter::new("engine_events_coalesced_total");
/// Rule conditions evaluated across all steps.
static RULES_EVALUATED: LazyCounter = LazyCounter::new("engine_rules_evaluated_total");
/// Firings dispatched to a device (fresh acquisition).
static FIRINGS_DISPATCHED: LazyCounter = LazyCounter::new("engine_firings_dispatched_total");
/// Firings suppressed by a higher-priority rule.
static FIRINGS_SUPPRESSED: LazyCounter = LazyCounter::new("engine_firings_suppressed_total");
/// Firings that displaced a previous holder.
static FIRINGS_REPLACED: LazyCounter = LazyCounter::new("engine_firings_replaced_total");
/// Firings whose dispatch failed at the device.
static FIRINGS_FAILED: LazyCounter = LazyCounter::new("engine_firings_failed_total");
/// Firings deferred because the target device's circuit breaker is open.
static FIRINGS_DEFERRED: LazyCounter = LazyCounter::new("engine_firings_deferred_total");
/// `until`-clause inverse actions that failed at the device.
static RELEASE_FAILED: LazyCounter = LazyCounter::new("engine_release_failed_total");
/// Queued retries actually re-invoked (breaker-gated requeues excluded).
static RETRIES_ATTEMPTED: LazyCounter = LazyCounter::new("engine_retries_attempted_total");
/// Retries whose re-invocation succeeded.
static RETRIES_SUCCEEDED: LazyCounter = LazyCounter::new("engine_retries_succeeded_total");
/// `until`-clause releases performed.
static RELEASES: LazyCounter = LazyCounter::new("engine_releases_total");
/// held-for timer states currently tracked.
static HELDFOR_TRACKED: LazyGauge = LazyGauge::new("engine_heldfor_tracked");
/// Wall-clock latency of one engine step.
static STEP_NS: LazyHistogram = LazyHistogram::new("engine_step_duration_ns");
/// Step phase 1: draining the subscription, applying the batch and
/// servicing due retries.
static PHASE_INGEST_NS: LazyHistogram = LazyHistogram::new("engine_phase_ingest_ns");
/// Step phase 2: forwarding dirt into the trigger index and collecting
/// the candidate set.
static PHASE_CANDIDATES_NS: LazyHistogram = LazyHistogram::new("engine_phase_candidates_ns");
/// Step phase 3: evaluating the candidates and committing their verdicts.
static PHASE_EVALUATE_NS: LazyHistogram = LazyHistogram::new("engine_phase_evaluate_ns");
/// Step phase 4: arbitrating devices, dispatching, and the step's metrics.
static PHASE_ARBITRATE_NS: LazyHistogram = LazyHistogram::new("engine_phase_arbitrate_ns");

/// The event channel on which the engine announces suppressed firings, so
/// fallback rules ("if I cannot use the TV, record the game instead") can
/// react. Event name format: `"<device-udn>:<loser-owner>"`.
pub const CONFLICT_CHANNEL: &str = "conflict";

/// What happened to one rule firing during a step.
#[derive(Clone, Debug, PartialEq)]
pub enum FiringOutcome {
    /// The action was sent to the device.
    Dispatched,
    /// A higher-priority rule holds the device; this firing was dropped
    /// and a [`CONFLICT_CHANNEL`] event was raised.
    SuppressedBy(RuleId),
    /// The action was sent, displacing the previous holder.
    Replaced(RuleId),
    /// The target device's circuit breaker is open: the firing is held
    /// back and re-attempted on later steps until the breaker admits a
    /// probe. Reported once per continuous deferral.
    Deferred,
    /// Dispatch failed: at the device, or an engine invariant broke.
    /// Transient device faults are re-attempted through the retry queue.
    Failed(ActuationError),
}

impl fmt::Display for FiringOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FiringOutcome::Dispatched => write!(f, "dispatched"),
            FiringOutcome::SuppressedBy(winner) => write!(f, "suppressed by {winner}"),
            FiringOutcome::Replaced(old) => write!(f, "replaced {old}"),
            FiringOutcome::Deferred => write!(f, "deferred (circuit open)"),
            FiringOutcome::Failed(err) => write!(f, "failed: {err}"),
        }
    }
}

/// A rule firing recorded in a step report.
#[derive(Clone, Debug, PartialEq)]
pub struct Firing {
    /// The rule that fired.
    pub rule: RuleId,
    /// The device it targeted.
    pub device: DeviceId,
    /// What happened.
    pub outcome: FiringOutcome,
}

impl fmt::Display for Firing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}: {}", self.rule, self.device, self.outcome)
    }
}

/// The observable result of one engine step.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StepReport {
    /// Firings attempted this step, in device order.
    pub firings: Vec<Firing>,
    /// Rules whose `until` condition released their action, with the
    /// device they released.
    pub releases: Vec<(RuleId, DeviceId)>,
}

impl StepReport {
    /// Whether nothing happened.
    pub fn is_empty(&self) -> bool {
        self.firings.is_empty() && self.releases.is_empty()
    }

    /// The firings that actually reached a device.
    pub fn dispatched(&self) -> Vec<&Firing> {
        self.firings
            .iter()
            .filter(|f| {
                matches!(
                    f.outcome,
                    FiringOutcome::Dispatched | FiringOutcome::Replaced(_)
                )
            })
            .collect()
    }
}

impl fmt::Display for StepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "idle");
        }
        let mut sep = "";
        for firing in &self.firings {
            write!(f, "{sep}{firing}")?;
            sep = "; ";
        }
        for (rule, device) in &self.releases {
            write!(f, "{sep}{rule} released {device}")?;
            sep = "; ";
        }
        Ok(())
    }
}

/// What the engine remembers about one rule between steps, kept in a
/// column indexed by the rule's ordinal in the database.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct RuleState {
    /// The last committed verdict; `None` before the first.
    verdict: Option<bool>,
    /// Released by its `until` clause: kept out of contention until its
    /// condition goes false (prevents release/re-fire flap).
    latched: bool,
    /// Its current suppression was already announced on the conflict
    /// channel (avoids re-raising every step).
    suppress_noted: bool,
    /// Its current deferral was already reported in a step report
    /// (avoids one `Deferred` row per step while a breaker stays open).
    defer_noted: bool,
}

/// What the engine remembers about one device, kept in a column indexed
/// by the device's slot in the database.
#[derive(Clone, Debug, Default)]
struct DeviceState {
    /// The rule holding the device.
    holder: Option<RuleId>,
    /// The rules whose condition currently holds and that are not
    /// latched, ascending by id, with their ordinals. Losers stay in here
    /// and re-contend whenever arbitration runs again — so a context
    /// change (Alan arrives) can promote a previously suppressed rule
    /// without a fresh condition edge.
    pool: Vec<Candidate>,
    /// A firing on the device is deferred: the device is re-arbitrated
    /// every step so an open breaker is re-probed as soon as its cooldown
    /// elapses.
    deferred: bool,
    /// On the step's arbitration list.
    marked: bool,
    /// On the engine's list of devices whose pool was ever non-empty.
    pooled: bool,
}

/// The rule execution engine.
///
/// Owns the rule database, the priority store, the context store and the
/// UPnP control point. The driver (home server or simulator) advances it
/// by calling [`Engine::step`] with the current simulated time; each step
/// drains pending UPnP events, re-evaluates the affected rules, arbitrates
/// simultaneous firings per device by priority, and dispatches winning
/// actions.
///
/// Per-rule and per-device state lives in columns indexed by the rule
/// ordinals and device slots the rule database assigns. The ordinals are
/// never exported and never decide an order: candidates commit in
/// ascending id order and devices are arbitrated in name order.
pub struct Engine {
    control: ControlPoint,
    subscription: Subscription,
    rules: RuleDb,
    priorities: PriorityStore,
    /// Each priority order's context guard, lowered once in
    /// [`Engine::add_priority`] and index-aligned with the store's orders.
    /// An unscoped order lowers to empty code, which holds.
    priority_guards: Vec<(Vec<Pred>, CondCode)>,
    ctx: ContextStore,
    held: HeldTracker,
    index: TriggerIndex,
    use_trigger_index: bool,
    /// The freshness policy the index deadlines were armed under;
    /// compared each step so `context_mut()` policy edits re-arm them.
    last_freshness: FreshnessPolicy,
    /// Reusable candidate buffer: collected into each step, capacity
    /// retained so the steady-state candidate path allocates nothing.
    candidate_buf: Vec<Candidate>,
    /// Whether ingest coalesces redundant same-sensor readings within a
    /// batch (last-write-wins). Off only for the P-series ablation.
    coalesce_events: bool,
    /// Per rule ordinal: verdict, latch and notes.
    rule_state: Vec<RuleState>,
    /// Per device slot: holder, contender pool and deferral.
    device_state: Vec<DeviceState>,
    /// The device slots whose pool was ever non-empty: each step
    /// re-arbitrates the contested and deferred ones among them.
    pooled: Vec<u32>,
    /// Per device slot: the rank of the device's name in name order,
    /// recomputed when slots were added since.
    device_rank: Vec<u32>,
    /// Per step: the rules with a fresh true edge, ascending by id.
    newly_true: Vec<RuleId>,
    /// Per step: the device slots to arbitrate.
    marked: Vec<u32>,
    /// Arbitration scratch: one device's pool, and its contenders with
    /// the holder first.
    pool_buf: Vec<Candidate>,
    contender_buf: Vec<RuleId>,
    /// Fault tolerance: per-device circuit breakers, the sim-time retry
    /// queue and the dead-letter queue.
    resilience: Resilience,
    /// Chaos hook invoked for every evaluated rule, right after its
    /// evaluation. Fleet soaks install a panicking hook here to prove the
    /// supervisor contains a poisoned rule set; `None` in production.
    eval_hook: Option<Box<dyn FnMut(RuleId, SimTime) + Send>>,
}

impl Engine {
    /// Creates an engine over a control point. Device locations are read
    /// from the registry so presence readers map to their places.
    pub fn new(control: ControlPoint) -> Engine {
        let subscription = control.subscribe_all();
        let rules = RuleDb::new();
        let mut ctx = ContextStore::with_interner(default_epoch(), rules.interner().clone());
        for description in control.registry().descriptions() {
            if let Some(place) = description.location() {
                ctx.set_device_place(description.udn().clone(), place.clone());
            }
        }
        let index = TriggerIndex::new();
        let last_freshness = ctx.freshness_policy();
        Engine {
            control,
            subscription,
            rules,
            priorities: PriorityStore::new(),
            priority_guards: Vec::new(),
            ctx,
            held: HeldTracker::new(),
            index,
            use_trigger_index: true,
            last_freshness,
            candidate_buf: Vec::new(),
            coalesce_events: true,
            rule_state: Vec::new(),
            device_state: Vec::new(),
            pooled: Vec::new(),
            device_rank: Vec::new(),
            newly_true: Vec::new(),
            marked: Vec::new(),
            pool_buf: Vec::new(),
            contender_buf: Vec::new(),
            resilience: Resilience::default(),
            eval_hook: None,
        }
    }

    /// Installs (or clears) the per-verdict chaos hook. The hook runs for
    /// every evaluated rule, right after its evaluation and whether or
    /// not its verdict changed; a panic inside it unwinds out of
    /// [`Engine::step`] exactly like a panic in rule bookkeeping would,
    /// which is what fleet soak tests rely on.
    pub fn set_eval_hook(&mut self, hook: Option<Box<dyn FnMut(RuleId, SimTime) + Send>>) {
        self.eval_hook = hook;
    }

    /// Disables the sensor-trigger index: every step re-evaluates every
    /// rule. The full scan is the reference the index is checked against
    /// (the parity suites), and the A3/P-series ablation.
    pub fn set_use_trigger_index(&mut self, enabled: bool) {
        self.use_trigger_index = enabled;
    }

    /// Disables ingest coalescing: every drained property change is
    /// applied and fanned out individually. Exists for the P-series
    /// coalescing ablation; verdicts are identical either way.
    pub fn set_coalesce_events(&mut self, enabled: bool) {
        self.coalesce_events = enabled;
    }

    /// The control point.
    pub fn control(&self) -> &ControlPoint {
        &self.control
    }

    /// The rule database (shared with the registration workflow).
    pub fn rules(&self) -> &RuleDb {
        &self.rules
    }

    /// Allocates the next free rule id without storing anything (see
    /// [`RuleDb::allocate_id`]). Only [`Engine::add_rule`],
    /// [`Engine::remove_rule`] and [`Engine::update_rule`] change the rule
    /// database, so the trigger index, the commit state and the dwell
    /// windows stay in step with it.
    pub fn allocate_rule_id(&mut self) -> RuleId {
        self.rules.allocate_id()
    }

    /// Advances the rule id allocator so the next id is at least
    /// `at_least`; never moves it backwards (see
    /// [`RuleDb::ensure_next_id`]).
    pub fn ensure_next_rule_id(&mut self, at_least: RuleId) {
        self.rules.ensure_next_id(at_least);
    }

    /// The priority store.
    pub fn priorities(&self) -> &PriorityStore {
        &self.priorities
    }

    /// Registers a priority order, replacing the order with the same
    /// device and context if there is one (see
    /// [`PriorityStore::add_order`]), and returns its index. Its context
    /// guard is lowered once, against the rule database's interner, so
    /// arbitration evaluates compiled code over the context's slot boards,
    /// which share that interner.
    pub fn add_priority(&mut self, order: PriorityOrder) -> usize {
        let guard = match order.context() {
            Some(context) => {
                let mut interner = self
                    .rules
                    .interner()
                    .write()
                    .expect("interner lock poisoned");
                compile_condition(context, &mut interner)
            }
            None => (Vec::new(), CondCode::new()),
        };
        let index = self.priorities.add_order(order);
        if index == self.priority_guards.len() {
            self.priority_guards.push(guard);
        } else {
            self.priority_guards[index] = guard;
        }
        index
    }

    /// The context store.
    pub fn context(&self) -> &ContextStore {
        &self.ctx
    }

    /// Mutable context access (scenario scripting: direct presence or
    /// event injection).
    pub fn context_mut(&mut self) -> &mut ContextStore {
        &mut self.ctx
    }

    /// The fault-tolerance layer (breakers, retry queue, dead letters).
    pub fn resilience(&self) -> &Resilience {
        &self.resilience
    }

    /// Mutable access to the fault-tolerance layer.
    pub fn resilience_mut(&mut self) -> &mut Resilience {
        &mut self.resilience
    }

    /// Replaces the breaker/retry tunables (state is kept).
    pub fn set_resilience_config(&mut self, config: ResilienceConfig) {
        self.resilience.set_config(config);
    }

    /// Adds a compiled rule and indexes its triggers.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Rule`] on id collisions.
    pub fn add_rule(&mut self, rule: Rule) -> Result<RuleId, EngineError> {
        let id = rule.id();
        // Insert first: a rejected duplicate must not touch the index,
        // and indexing reads the compiled footprint out of the database.
        self.rules.insert(rule)?;
        let ord = self.ordinal(id)?;
        self.cover();
        self.rule_state[ord as usize] = RuleState::default();
        self.index.insert(ord, &self.rules, &self.ctx, &self.held);
        Ok(id)
    }

    /// Removes a rule and de-indexes it. Its runtime state (verdict,
    /// hold, contention, retries) goes with it, and so does any `held
    /// for` window that no enabled rule and no priority guard reads any
    /// more.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Rule`] for unknown ids.
    pub fn remove_rule(&mut self, id: RuleId) -> Result<(), EngineError> {
        let ord = self.ordinal(id)?;
        let device = self.device_of(ord);
        let dwells = self.dwell_fingerprints(ord);
        // De-index while the compiled footprint is still in the database.
        self.index.remove(ord, &self.rules);
        self.rules.remove(id)?;
        self.purge(id, ord, device);
        self.forget_unobserved(dwells);
        Ok(())
    }

    /// Replaces a rule in place under its existing id (customization:
    /// edit or enable/disable). The replacement is recompiled with a
    /// fresh revision — so the conflict graph rebuilds its node — and the
    /// old rule's runtime state (holds, contention, retries, and `held
    /// for` windows nothing else reads) is purged, exactly as a
    /// remove-then-add would.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Rule`] for unknown ids and for a replacement
    /// that does not compile; the incumbent then stays live.
    pub fn update_rule(&mut self, rule: Rule) -> Result<(), EngineError> {
        let id = rule.id();
        let ord = self.ordinal(id)?;
        let device = self.device_of(ord);
        let dwells = self.dwell_fingerprints(ord);
        // De-index the old footprint before the replacement overwrites
        // it, then index whatever is stored under the ordinal, which a
        // replacement keeps: the replacement, or the incumbent a refused
        // replacement left in place.
        self.index.remove(ord, &self.rules);
        let replaced = self.rules.replace(rule);
        self.cover();
        self.index.insert(ord, &self.rules, &self.ctx, &self.held);
        replaced?;
        self.purge(id, ord, device);
        self.forget_unobserved(dwells);
        Ok(())
    }

    /// The ordinal of a stored rule.
    fn ordinal(&self, id: RuleId) -> Result<u32, EngineError> {
        self.rules
            .ordinal(id)
            .ok_or(EngineError::Rule(RuleError::UnknownRule(id)))
    }

    /// The device slot of the rule stored under `ord`.
    fn device_of(&self, ord: u32) -> u32 {
        self.rules
            .entry(ord)
            .expect("a stored rule has an entry")
            .device
    }

    /// Grows the rule and device columns to cover every ordinal and slot
    /// the database has assigned.
    fn cover(&mut self) {
        let rules = self.rules.ordinal_bound();
        if self.rule_state.len() < rules {
            self.rule_state.resize(rules, RuleState::default());
        }
        let devices = self.rules.device_slot_count();
        if self.device_state.len() < devices {
            self.device_state.resize_with(devices, DeviceState::default);
        }
    }

    /// Drops a removed or replaced rule's runtime state: its column entry,
    /// its hold on and place in the pool of `device` (the only device it
    /// can hold or contend for), and its queued retries and dead letters.
    /// A device no stored rule targets any more stops being deferred.
    fn purge(&mut self, id: RuleId, ord: u32, device: u32) {
        self.rule_state[ord as usize] = RuleState::default();
        let untargeted = self
            .rules
            .device_slot(self.rules.device_at(device))
            .is_none();
        let state = &mut self.device_state[device as usize];
        if state.holder == Some(id) {
            state.holder = None;
        }
        leave_pool(&mut state.pool, id);
        if untargeted {
            state.deferred = false;
        }
        self.resilience.purge_rule(id);
    }

    /// The `held for` fingerprints the program under `ord` reads.
    fn dwell_fingerprints(&self, ord: u32) -> Vec<String> {
        let arena = self.rules.arena();
        arena.program_ref(ord).map_or_else(Vec::new, |r| {
            arena
                .preds(r)
                .iter()
                .filter_map(|pred| match pred {
                    Pred::HeldFor { fingerprint, .. } => Some(fingerprint.to_string()),
                    _ => None,
                })
                .collect()
        })
    }

    /// Forgets the dwell windows among `fingerprints` that no enabled rule
    /// and no priority guard reads: nothing observes them any more, so a
    /// rule that reads one later must open its window afresh instead of
    /// inheriting a stale one.
    fn forget_unobserved(&mut self, fingerprints: Vec<String>) {
        for fingerprint in fingerprints {
            let read_by_rule = self
                .index
                .fingerprint_rules(&fingerprint)
                .iter()
                .any(|&ord| self.rules.entry(ord).is_some_and(|e| e.enabled));
            let read_by_guard = self.priority_guards.iter().any(|(preds, _)| {
                preds.iter().any(|pred| {
                    matches!(pred, Pred::HeldFor { fingerprint: fp, .. } if **fp == *fingerprint)
                })
            });
            if !read_by_rule && !read_by_guard {
                self.held.forget(&fingerprint);
            }
        }
    }

    /// Drains device events, advances the clock, re-evaluates rules,
    /// arbitrates conflicts and dispatches actions.
    pub fn step(&mut self, now: SimTime) -> StepReport {
        let sw = Stopwatch::start();
        let mut span = Span::new("engine.step");
        self.cover();

        // Phase 1 — batched ingest: drain the subscription, advance the
        // clock and apply the batch with per-sensor coalescing. Every
        // context mutation logs interned-slot dirt for phase 2. Then
        // service due retries before evaluation, so a successful retry
        // re-acquires its device ahead of this step's arbitration.
        let phase = Stopwatch::start();
        let (ingested, coalesced) = self.ingest(now);
        let mut firings = Vec::new();
        self.process_retries(now, &mut firings);
        PHASE_INGEST_NS.record(&phase);

        // Phase 2 — candidate set: drain the context dirt log and the
        // due deadline heaps into the trigger index and collect the
        // marked ∪ temporal ∪ event-true ∪ pending rules (ascending). The
        // buffer round-trips through the field so its capacity is
        // reused across steps.
        let phase = Stopwatch::start();
        let mut candidates = std::mem::take(&mut self.candidate_buf);
        self.refresh_candidates(now, &mut candidates);
        PHASE_CANDIDATES_NS.record(&phase);

        // Phase 3 — evaluate each candidate and commit its verdict, in
        // ascending RuleId order: held-for observations, state edges,
        // until releases, contender pools. Devices whose outcome the
        // commits may change are marked for phase 4.
        let phase = Stopwatch::start();
        let mut releases: Vec<(RuleId, DeviceId)> = Vec::new();
        let evaluated = self.evaluate_and_commit(&candidates, now, &mut releases);
        self.candidate_buf = candidates;
        PHASE_EVALUATE_NS.record(&phase);

        // Phase 4 — re-arbitrate every device whose outcome could have
        //    changed, in device-name order: the devices phase 3 marked
        //    (a fresh edge, a lapsed holder, a release, contenders left
        //    with no live holder), every device
        //    with several live contenders (a context change alone can
        //    flip priorities), and every deferred device (so the open
        //    breaker gets probed as soon as its cooldown elapses).
        let phase = Stopwatch::start();
        for &slot in &self.pooled {
            let device = &mut self.device_state[slot as usize];
            if (device.pool.len() >= 2 || device.deferred) && !device.marked {
                device.marked = true;
                self.marked.push(slot);
            }
        }
        let mut marked = std::mem::take(&mut self.marked);
        if !marked.is_empty() {
            self.rank_devices();
            let rank = &self.device_rank;
            marked.sort_unstable_by_key(|&slot| rank[slot as usize]);
        }
        for &slot in &marked {
            self.device_state[slot as usize].marked = false;
            self.arbitrate_device(slot, now, &mut firings);
        }
        marked.clear();
        self.marked = marked;
        self.newly_true.clear();

        STEPS.inc();
        EVENTS_INGESTED.add(ingested as u64);
        EVENTS_COALESCED.add(coalesced as u64);
        RULES_EVALUATED.add(evaluated);
        RELEASES.add(releases.len() as u64);
        if cadel_obs::enabled() {
            for firing in &firings {
                match firing.outcome {
                    FiringOutcome::Dispatched => FIRINGS_DISPATCHED.inc(),
                    FiringOutcome::SuppressedBy(_) => FIRINGS_SUPPRESSED.inc(),
                    FiringOutcome::Replaced(_) => FIRINGS_REPLACED.inc(),
                    FiringOutcome::Deferred => FIRINGS_DEFERRED.inc(),
                    FiringOutcome::Failed(_) => FIRINGS_FAILED.inc(),
                }
            }
            HELDFOR_TRACKED.set(self.held.tracked() as i64);
            span.add_field("events", ingested as u64);
            span.add_field("evaluated", evaluated);
            span.add_field("firings", firings.len() as u64);
            span.add_field("releases", releases.len() as u64);
        }
        PHASE_ARBITRATE_NS.record(&phase);
        STEP_NS.record(&sw);
        drop(span);

        StepReport { firings, releases }
    }

    /// Ranks the device slots by device name, when slots were added
    /// since the last ranking: phase 4 sorts its devices by rank.
    fn rank_devices(&mut self) {
        let slots = self.rules.device_slot_count();
        if self.device_rank.len() == slots {
            return;
        }
        let mut by_name: Vec<u32> = (0..slots as u32).collect();
        by_name.sort_unstable_by(|&a, &b| self.rules.device_at(a).cmp(self.rules.device_at(b)));
        self.device_rank.resize(slots, 0);
        for (rank, slot) in by_name.into_iter().enumerate() {
            self.device_rank[slot as usize] = rank as u32;
        }
    }

    /// Puts a device on the step's arbitration list.
    fn mark_device(&mut self, slot: u32) {
        let device = &mut self.device_state[slot as usize];
        if !device.marked {
            device.marked = true;
            self.marked.push(slot);
        }
    }

    /// Phase 4 for one device: picks the winner among its pool, holder
    /// first, dispatches it unless it already holds the device (a fresh
    /// edge of the holder re-asserts), and reports fresh losers.
    fn arbitrate_device(&mut self, slot: u32, now: SimTime, firings: &mut Vec<Firing>) {
        let mut pool = std::mem::take(&mut self.pool_buf);
        pool.clone_from(&self.device_state[slot as usize].pool);
        if pool.is_empty() {
            self.device_state[slot as usize].deferred = false;
            self.pool_buf = pool;
            return;
        }
        // Put the current live holder first for the unresolved fallback
        // (prefer the status quo).
        let holder = self.device_state[slot as usize]
            .holder
            .filter(|h| pool.binary_search_by_key(h, |&(id, _)| id).is_ok());
        let mut ordered = std::mem::take(&mut self.contender_buf);
        ordered.clear();
        ordered.extend(holder);
        ordered.extend(
            pool.iter()
                .map(|&(id, _)| id)
                .filter(|&id| Some(id) != holder),
        );
        let winner = self.arbitrate(slot, &ordered, holder);
        self.contender_buf = ordered;
        let winner_ord = pool[pool
            .binary_search_by_key(&winner, |&(id, _)| id)
            .expect("the winner is a contender")]
        .1;
        let is_fresh = |newly_true: &[RuleId], id: RuleId| newly_true.binary_search(&id).is_ok();

        // Dispatch when the winner is not already holding the device — or
        // re-assert on a fresh edge of the holder itself. A holder whose
        // condition has lapsed is not "displaced": only live holders
        // count as previous for the Replaced outcome and its
        // conflict-channel announcement.
        if holder != Some(winner) || is_fresh(&self.newly_true, winner) {
            let outcome = self.dispatch(winner, winner_ord, holder);
            let mut report = true;
            match &outcome {
                FiringOutcome::Deferred => {
                    // The breaker is open: keep the contender and re-try
                    // on later steps; report only the first deferral of a
                    // continuous stretch.
                    self.device_state[slot as usize].deferred = true;
                    let state = &mut self.rule_state[winner_ord as usize];
                    report = !state.defer_noted;
                    state.defer_noted = true;
                }
                FiringOutcome::Failed(err) if err.is_retryable() => {
                    // Transient device fault: the retry queue owns the
                    // re-attempts, so the contender stays and the state
                    // stays true (no synthetic edge).
                    self.schedule_rule_retry(winner, now);
                }
                FiringOutcome::Failed(_) => {
                    // Final failure (validation error, vanished rule): do
                    // not retry every step; wait for a fresh edge.
                    leave_pool(&mut self.device_state[slot as usize].pool, winner);
                    self.rule_state[winner_ord as usize].verdict = Some(false);
                    self.index.force_false(winner_ord);
                }
                _ => {
                    let state = &mut self.rule_state[winner_ord as usize];
                    state.suppress_noted = false;
                    state.defer_noted = false;
                    self.device_state[slot as usize].deferred = false;
                    // Announce the displaced holder's defeat so fallback
                    // rules ("record it instead") can react. It was a
                    // live holder, so it is in the pool.
                    if let FiringOutcome::Replaced(old) = outcome {
                        if let Ok(at) = pool.binary_search_by_key(&old, |&(id, _)| id) {
                            self.note_suppression(slot, pool[at]);
                        }
                    }
                }
            }
            if report {
                firings.push(Firing {
                    rule: winner,
                    device: self.rules.device_at(slot).clone(),
                    outcome,
                });
            }
        }

        // Report fresh losers (and announce each continuous suppression
        // once).
        for &(id, ord) in &pool {
            if id == winner {
                continue;
            }
            let fresh = is_fresh(&self.newly_true, id);
            if fresh || !self.rule_state[ord as usize].suppress_noted {
                self.note_suppression(slot, (id, ord));
            }
            if fresh {
                firings.push(Firing {
                    rule: id,
                    device: self.rules.device_at(slot).clone(),
                    outcome: FiringOutcome::SuppressedBy(winner),
                });
            }
        }
        self.pool_buf = pool;
    }

    /// Phase 1 of [`step`](Self::step): drains the subscription, advances
    /// the context clock and applies the batch, coalescing redundant
    /// same-sensor readings last-write-wins. Returns the raw drained
    /// count and the number of changes coalesced away; affected-rule
    /// fanout happens in phase 2 off the context's dirt log.
    fn ingest(&mut self, now: SimTime) -> (usize, usize) {
        let changes = self.subscription.drain();
        self.ctx.set_now(now);
        // Index of the last write per (device, variable) within this
        // batch; earlier writes to the same sensor are invisible to every
        // observer (evaluation only sees post-batch state) and are
        // skipped. Event-bearing and stateful variables are exempt — see
        // `coalescible`.
        let mut last_write: HashMap<(&DeviceId, &str), usize> = HashMap::new();
        if self.coalesce_events {
            for (i, change) in changes.iter().enumerate() {
                if coalescible(&change.variable) {
                    last_write.insert((&change.device, change.variable.as_str()), i);
                }
            }
        }
        let mut coalesced = 0usize;
        for (i, change) in changes.iter().enumerate() {
            if self.coalesce_events
                && coalescible(&change.variable)
                && last_write.get(&(&change.device, change.variable.as_str())) != Some(&i)
            {
                coalesced += 1;
                continue;
            }
            self.ctx.apply_property_change(change);
        }
        (changes.len(), coalesced)
    }

    /// Phase 2 of [`step`](Self::step): the candidate set. Forwards the
    /// context's dirt log (sensor, place and channel slots touched by
    /// any mutation path since the last drain — including direct
    /// `context_mut()` writes — with each sensor slot's previous reading)
    /// into the trigger index, re-arms the freshness deadlines when the
    /// policy changed, and collects the marked ∪ temporal ∪ event-true ∪
    /// pending rules into `out`, ascending. With the index ablated the
    /// dirt and heaps are still drained (so they stay bounded) but the
    /// candidate set is every rule.
    fn refresh_candidates(&mut self, now: SimTime, out: &mut Vec<Candidate>) {
        let policy = self.ctx.freshness_policy();
        if policy != self.last_freshness {
            self.index
                .on_policy_changed(&self.ctx.stamped_sensor_slots(), policy.max_age);
            self.last_freshness = policy;
        }
        for dirt in self.ctx.dirty_sensors() {
            self.index.note_sensor_dirt(dirt, &self.ctx);
        }
        for &slot in self.ctx.dirty_places() {
            self.index.mark_place(slot);
        }
        for &slot in self.ctx.dirty_channels() {
            self.index.mark_channel(slot);
        }
        self.ctx.clear_dirt();
        self.index
            .collect_candidates(now, &self.rules, &self.ctx, out);
        if !self.use_trigger_index {
            out.clear();
            // `RuleDb` lists its ordinals in ascending id order, the same
            // order `collect_candidates` guarantees.
            out.extend(self.rules.ordinals());
        }
    }

    /// Phase 3 of [`step`](Self::step): evaluates each candidate and
    /// commits its verdict before the next, in ascending `RuleId` order —
    /// held-for observations, state edges, `until` releases and
    /// contender-pool maintenance — and marks the devices phase 4 must
    /// arbitrate. Returns the number of rules evaluated; vanished and
    /// disabled candidates are skipped.
    ///
    /// Committing one rule cannot change how a later one evaluates: the
    /// context is not written before arbitration, a dwell fingerprint is
    /// a pure function of its atom (every rule sharing it observes the
    /// same inner truth), and a release removes only the releasing rule's
    /// own hold.
    ///
    /// Only an edge, a rule's first verdict or an `until` release is
    /// committed. Any other verdict repeats the rule's last committed
    /// one, and every mutation below would be a no-op for it: a rule that
    /// stays false is already out of the contender pool and unlatched, and
    /// one that stays true is already in the pool unless latched. One
    /// consequence is deliberate: a lapsed holder's device is re-arbitrated
    /// on the step its condition falls, not again on every later step it
    /// stays false.
    fn evaluate_and_commit(
        &mut self,
        candidates: &[Candidate],
        now: SimTime,
        releases: &mut Vec<(RuleId, DeviceId)>,
    ) -> u64 {
        let mut evaluated = 0;
        for &(id, ord) in candidates {
            let Some(entry) = self.rules.entry(ord).filter(|entry| entry.enabled) else {
                continue;
            };
            // Evaluation runs over the rule's span in the shared program
            // arena (contiguous predicate/opcode tables) rather than a
            // per-rule allocation.
            let arena = self.rules.arena();
            let Some(program) = arena.program_ref(ord) else {
                continue;
            };
            let device = entry.device;
            let mut dwell = DwellObserver {
                held: &mut self.held,
                index: &mut self.index,
            };
            let now_true = arena.condition_holds(program, &self.ctx, &mut dwell);
            // `until` releases apply to the active holder even after its
            // trigger condition has passed ("turn on … until 10 pm" turns
            // the light off at 10 pm however long ago the arrival was), and
            // the clause is evaluated only while the rule holds its device.
            let until_release = entry.until
                && self.device_state[device as usize].holder == Some(id)
                && arena
                    .until_holds(program, &self.ctx, &mut dwell)
                    .unwrap_or(false);
            evaluated += 1;
            if let Some(hook) = &mut self.eval_hook {
                hook(id, now);
            }
            let state = &mut self.rule_state[ord as usize];
            if !until_release && state.verdict == Some(now_true) {
                continue;
            }
            let prev = state.verdict.replace(now_true).unwrap_or(false);
            self.index.on_committed(ord, now_true);

            if until_release {
                self.release((id, ord), device, now_true, now, releases);
            }

            if !now_true {
                // A false condition clears the latch and any suppression
                // or deferral note, and leaves the contender pool.
                let state = &mut self.rule_state[ord as usize];
                state.latched = false;
                state.suppress_noted = false;
                state.defer_noted = false;
                let target = &mut self.device_state[device as usize];
                let left = leave_pool(&mut target.pool, id);
                let held_by_contender = target
                    .holder
                    .is_some_and(|h| target.pool.binary_search_by_key(&h, |&(id, _)| id).is_ok());
                // A lapsed holder: suppressed contenders must get a
                // chance to take over. So must they when a contender
                // leaves a device no live contender holds (its takeover
                // failed and waited on a retry).
                let orphaned = left && !held_by_contender && !target.pool.is_empty();
                if target.holder == Some(id) || orphaned {
                    self.mark_device(device);
                }
                continue;
            }
            if !prev {
                self.newly_true.push(id);
                self.mark_device(device);
            }
            if !self.rule_state[ord as usize].latched {
                let target = &mut self.device_state[device as usize];
                if let Err(at) = target.pool.binary_search_by_key(&id, |&(id, _)| id) {
                    target.pool.insert(at, (id, ord));
                }
                if !target.pooled {
                    target.pooled = true;
                    self.pooled.push(device);
                }
            }
        }
        evaluated
    }

    /// An `until` release: invokes the inverse action and frees the
    /// device, latching the rule while its condition still holds so it
    /// does not immediately re-acquire it. The device is re-arbitrated in
    /// the same step, so a remaining contender takes it over. Inverse
    /// failures are not swallowed: they are counted, reported, and — for
    /// transient faults — retried, so a flaky device does not stay stuck
    /// on.
    fn release(
        &mut self,
        (id, ord): Candidate,
        slot: u32,
        now_true: bool,
        now: SimTime,
        releases: &mut Vec<(RuleId, DeviceId)>,
    ) {
        let device = self.rules.device_at(slot).clone();
        let inverse = self
            .rules
            .get(id)
            .and_then(|rule| rule.action().verb().inverse());
        if let Some(inverse) = inverse {
            let inverse_action = ActionSpec::new(device.clone(), inverse);
            let blocked = self.resilience.breaker_blocks(&device, now);
            let result = if blocked {
                Err(UpnpError::DeviceFault("circuit open".into()))
            } else {
                self.invoke_action(&inverse_action)
            };
            if let Err(err) = result {
                RELEASE_FAILED.inc();
                if cadel_obs::enabled() {
                    cadel_obs::emit(
                        ObsEvent::new("engine.release_failed", Level::Warn)
                            .with_field("rule", id.raw())
                            .with_field("device", device.as_str())
                            .with_field("error", err.to_string()),
                    );
                }
                if matches!(err, UpnpError::DeviceFault(_)) {
                    if !blocked {
                        self.resilience.note_failure(&device, now);
                    }
                    self.resilience.schedule(
                        id,
                        device.clone(),
                        inverse_action,
                        RetryKind::Release,
                        1,
                        now,
                    );
                }
            }
        }
        let state = &mut self.device_state[slot as usize];
        state.holder = None;
        leave_pool(&mut state.pool, id);
        if now_true {
            self.rule_state[ord as usize].latched = true;
        }
        releases.push((id, device));
        self.mark_device(slot);
    }

    /// Raises the conflict-channel event for a suppressed/displaced rule
    /// (once per continuous suppression).
    fn note_suppression(&mut self, slot: u32, (loser, ord): Candidate) {
        let state = &mut self.rule_state[ord as usize];
        if state.suppress_noted {
            return;
        }
        state.suppress_noted = true;
        if let Some(rule) = self.rules.get(loser) {
            let device = self.rules.device_at(slot);
            let owner = rule.owner();
            self.ctx
                .raise_event(CONFLICT_CHANNEL, &format!("{device}:{owner}"));
        }
    }

    /// Picks the winning rule among simultaneous contenders on a device,
    /// consulting the context-scoped priority store; ties fall back to the
    /// current holder, then to the earliest-registered rule.
    /// `contenders` lists the holder first, then the rest ascending.
    fn arbitrate(&mut self, slot: u32, contenders: &[RuleId], holder: Option<RuleId>) -> RuleId {
        debug_assert!(!contenders.is_empty());
        let ctx = &self.ctx;
        let guards = &self.priority_guards;
        // Priority-store context conditions may contain `held for`: they
        // observe through the dwell observer, like rule conditions.
        let mut dwell = DwellObserver {
            held: &mut self.held,
            index: &mut self.index,
        };
        let device = self.rules.device_at(slot);
        let resolution = self.priorities.resolve(device, contenders, |order| {
            let (preds, code) = &guards[order];
            eval_code(code, preds, ctx, &mut dwell)
        });
        match resolution {
            Resolution::Winner(id) => id,
            // Holder first, else the earliest rule.
            Resolution::Unresolved(ids) => holder
                .or_else(|| ids.iter().copied().min())
                .expect("arbitration has contenders"),
        }
    }

    fn dispatch(&mut self, id: RuleId, ord: u32, previous_holder: Option<RuleId>) -> FiringOutcome {
        let Some(rule) = self.rules.get(id) else {
            return FiringOutcome::Failed(ActuationError::RuleVanished(id));
        };
        let action = rule.action().clone();
        let device = action.device().clone();
        let now = self.ctx.now();
        if !self.resilience.breaker_allows(&device, now) {
            return FiringOutcome::Deferred;
        }
        match self.invoke_action(&action) {
            Ok(()) => {
                self.resilience.note_success(&device, now);
                self.acquire(ord);
                match previous_holder {
                    Some(old) if old != id => FiringOutcome::Replaced(old),
                    _ => FiringOutcome::Dispatched,
                }
            }
            Err(e) => {
                // Only transient device faults count against the
                // breaker: a validation error is the rule's problem,
                // not the device's health.
                if matches!(e, UpnpError::DeviceFault(_)) {
                    self.resilience.note_failure(&device, now);
                }
                FiringOutcome::Failed(ActuationError::Device(e))
            }
        }
    }

    /// Records the rule stored under `ord` as its device's holder. A rule
    /// with an `until` clause is marked for the next collection: its
    /// release is evaluated only while it holds the device, and the
    /// clause may already hold.
    fn acquire(&mut self, ord: u32) {
        let Some(entry) = self.rules.entry(ord) else {
            return;
        };
        if entry.until {
            self.index.mark_rule(ord);
        }
        self.device_state[entry.device as usize].holder = Some(entry.id);
    }

    /// Queues the first retry of a rule's action after a transient
    /// dispatch failure.
    fn schedule_rule_retry(&mut self, id: RuleId, now: SimTime) {
        let Some(rule) = self.rules.get(id) else {
            return;
        };
        let action = rule.action().clone();
        let device = action.device().clone();
        self.resilience
            .schedule(id, device, action, RetryKind::Fire, 1, now);
    }

    /// Re-invokes every queued retry due at `now`. Stale entries (rule
    /// gone or disabled, condition lapsed, rule released by its `until`
    /// clause, device taken over) are cancelled; entries whose breaker is
    /// still open are requeued for the next probe window; transient
    /// failures reschedule with the next backoff or dead-letter after
    /// `max_attempts`.
    fn process_retries(&mut self, now: SimTime, firings: &mut Vec<Firing>) {
        if self.resilience.queue_len() == 0 && self.resilience.dead_letters().is_empty() {
            return;
        }
        for entry in self.resilience.take_due(now) {
            let stored = self
                .rules
                .ordinal(entry.rule)
                .and_then(|ord| Some((ord, self.rules.entry(ord)?)))
                .filter(|(_, rule)| rule.enabled);
            let Some((ord, rule)) = stored else {
                self.resilience.cancel(&entry, "rule removed or disabled");
                continue;
            };
            if entry.kind == RetryKind::Fire {
                let state = self.rule_state[ord as usize];
                if state.verdict != Some(true) {
                    self.resilience.cancel(&entry, "condition no longer holds");
                    continue;
                }
                if state.latched {
                    self.resilience
                        .cancel(&entry, "released by its until clause");
                    continue;
                }
                // A holder whose condition has lapsed does not keep the
                // device from its replacement; its `until` release still
                // applies while it holds. A rule's retries target its own
                // device: replacing or removing a rule purges them.
                let taken_over = self.device_state[rule.device as usize]
                    .holder
                    .is_some_and(|h| {
                        h != entry.rule
                            && self
                                .rules
                                .ordinal(h)
                                .is_some_and(|h| self.rule_state[h as usize].verdict == Some(true))
                    });
                if taken_over {
                    self.resilience
                        .cancel(&entry, "device held by another rule");
                    continue;
                }
            }
            if !self.resilience.breaker_allows(&entry.device, now) {
                let fallback = now + self.resilience.config().retry_base;
                self.resilience.requeue_for_breaker(entry, fallback);
                continue;
            }
            RETRIES_ATTEMPTED.inc();
            match self.invoke_action(&entry.action) {
                Ok(()) => {
                    RETRIES_SUCCEEDED.inc();
                    self.resilience.note_success(&entry.device, now);
                    if entry.kind == RetryKind::Fire {
                        self.acquire(ord);
                        self.rule_state[ord as usize].defer_noted = false;
                        firings.push(Firing {
                            rule: entry.rule,
                            device: entry.device,
                            outcome: FiringOutcome::Dispatched,
                        });
                    }
                }
                Err(err) => {
                    let retryable = matches!(err, UpnpError::DeviceFault(_));
                    if retryable {
                        self.resilience.note_failure(&entry.device, now);
                    }
                    if retryable && entry.attempt < self.resilience.config().max_attempts {
                        let attempt = entry.attempt + 1;
                        self.resilience.schedule(
                            entry.rule,
                            entry.device,
                            entry.action,
                            entry.kind,
                            attempt,
                            now,
                        );
                    } else {
                        let was_fire = entry.kind == RetryKind::Fire;
                        let rule = entry.rule;
                        let device = entry.device.clone();
                        let reason = err.to_string();
                        self.resilience.dead_letter(entry, &reason, now);
                        if was_fire {
                            firings.push(Firing {
                                rule,
                                device,
                                outcome: FiringOutcome::Failed(ActuationError::Device(err)),
                            });
                        }
                    }
                }
            }
        }
    }

    /// Translates an [`ActionSpec`] into UPnP invocations.
    fn invoke_action(&self, action: &ActionSpec) -> Result<(), UpnpError> {
        let device = action.device();
        let at = self.ctx.now();
        match action.verb() {
            Verb::Set => {
                // "Set" applies each setting through its own SetX action.
                for setting in action.settings() {
                    let name = format!("Set{}", capitalize(setting.parameter()));
                    let args = vec![(setting.parameter().to_owned(), setting.value().clone())];
                    self.control.invoke(device, &name, &args, at)?;
                }
                Ok(())
            }
            verb => {
                let name = verb_action_name(verb);
                let args: Vec<(String, Value)> = action
                    .settings()
                    .iter()
                    .map(|s| (s.parameter().to_owned(), s.value().clone()))
                    .collect();
                self.control.invoke(device, &name, &args, at)?;
                Ok(())
            }
        }
    }

    /// The rule currently holding a device, if any.
    pub fn holder(&self, device: &DeviceId) -> Option<RuleId> {
        let slot = self.rules.device_slot(device)?;
        self.device_state.get(slot as usize)?.holder
    }
}

/// Takes a rule out of a device's contender pool; whether it was in it.
fn leave_pool(pool: &mut Vec<Candidate>, id: RuleId) -> bool {
    let at = pool.binary_search_by_key(&id, |&(id, _)| id);
    if let Ok(at) = at {
        pool.remove(at);
    }
    at.is_ok()
}

/// Whether a variable's readings may be coalesced last-write-wins within
/// one ingest batch. Event-bearing variables carry a distinct fact per
/// payload (`arrival` raises a transient event per person, `on-air`
/// rewrites the broadcast channel per program) and `occupants` updates
/// presence by *diffing* against the previous occupant set — dropping an
/// intermediate payload of any of them would change observable state, so
/// they always apply individually.
///
/// Public so admission-control layers (the fleet's bounded inboxes)
/// shed by the same rules the engine coalesces by.
pub fn coalescible(variable: &str) -> bool {
    !matches!(
        variable,
        ARRIVAL_VARIABLE | ON_AIR_VARIABLE | OCCUPANTS_VARIABLE
    )
}

fn capitalize(word: &str) -> String {
    let mut out = String::with_capacity(word.len());
    for part in word.split_whitespace() {
        let mut chars = part.chars();
        if let Some(first) = chars.next() {
            out.extend(first.to_uppercase());
            out.extend(chars);
        }
    }
    out
}

fn verb_action_name(verb: &Verb) -> String {
    match verb {
        Verb::TurnOn => "TurnOn".to_owned(),
        Verb::TurnOff => "TurnOff".to_owned(),
        Verb::Record => "Record".to_owned(),
        Verb::Play => "Play".to_owned(),
        Verb::Stop => "Stop".to_owned(),
        Verb::Lock => "Lock".to_owned(),
        Verb::Unlock => "Unlock".to_owned(),
        Verb::Dim => "Dim".to_owned(),
        Verb::Brighten => "Brighten".to_owned(),
        Verb::Show => "Show".to_owned(),
        Verb::Notify => "Notify".to_owned(),
        Verb::Set => "Set".to_owned(),
        Verb::Custom(s) => capitalize(s),
        // `Verb` is non-exhaustive: fall back to the display phrase.
        other => capitalize(other.phrase()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{FreshnessMode, FreshnessPolicy};
    use crate::resilience::BreakerState;
    use cadel_devices::LivingRoomHome;
    use cadel_rule::{Atom, Condition, ConstraintAtom, EventAtom, PresenceAtom};
    use cadel_simplex::RelOp;
    use cadel_types::{PersonId, Quantity, Rational, SensorKey, SimDuration, Unit};
    use cadel_upnp::{FaultPlan, FaultyDevice, Registry, VirtualDevice};

    fn setup() -> (Engine, LivingRoomHome) {
        let registry = Registry::new();
        let home = LivingRoomHome::install(&registry);
        let engine = Engine::new(ControlPoint::new(registry));
        (engine, home)
    }

    fn faulty_setup(device: &str, plan: FaultPlan) -> (Engine, LivingRoomHome) {
        let registry = Registry::new();
        let home = LivingRoomHome::install(&registry);
        FaultyDevice::wrap(&registry, &DeviceId::new(device), plan).unwrap();
        let engine = Engine::new(ControlPoint::new(registry));
        (engine, home)
    }

    fn mins(m: u64) -> SimTime {
        SimTime::EPOCH + SimDuration::from_minutes(m)
    }

    fn hot_rule(owner: &str, id: u64, threshold: i64, setpoint: i64) -> Rule {
        let cond = Condition::Atom(Atom::Constraint(ConstraintAtom::new(
            SensorKey::new(DeviceId::new("thermo-lr"), "temperature"),
            RelOp::Gt,
            Quantity::from_integer(threshold, Unit::Celsius),
        )));
        Rule::builder(PersonId::new(owner))
            .condition(cond)
            .action(
                ActionSpec::new(DeviceId::new("aircon-lr"), Verb::TurnOn).with_setting(
                    "temperature",
                    Quantity::from_integer(setpoint, Unit::Celsius),
                ),
            )
            .build(RuleId::new(id))
            .unwrap()
    }

    #[test]
    fn sensor_event_triggers_rule_and_dispatches() {
        let (mut engine, home) = setup();
        engine.add_rule(hot_rule("tom", 1, 26, 25)).unwrap();

        // Nothing yet.
        let report = engine.step(SimTime::EPOCH);
        assert!(report.firings.is_empty());

        // Temperature rises past the threshold.
        home.thermometer
            .set_reading(Rational::from_integer(28), SimTime::from_millis(1000))
            .unwrap();
        let report = engine.step(SimTime::from_millis(1000));
        assert_eq!(report.firings.len(), 1);
        assert_eq!(report.firings[0].outcome, FiringOutcome::Dispatched);
        // The aircon actually turned on with Tom's setpoint.
        assert_eq!(home.aircon.query("power").unwrap(), Value::Bool(true));
        assert_eq!(
            home.aircon.query("setpoint").unwrap(),
            Value::Number(Quantity::from_integer(25, Unit::Celsius))
        );
        assert_eq!(
            engine.holder(&DeviceId::new("aircon-lr")),
            Some(RuleId::new(1))
        );
    }

    #[test]
    fn edge_triggering_fires_once() {
        let (mut engine, home) = setup();
        engine.add_rule(hot_rule("tom", 1, 26, 25)).unwrap();
        home.thermometer
            .set_reading(Rational::from_integer(28), SimTime::EPOCH)
            .unwrap();
        let r1 = engine.step(SimTime::from_millis(1));
        assert_eq!(r1.firings.len(), 1);
        // Still hot: no re-firing.
        let r2 = engine.step(SimTime::from_millis(2));
        assert!(r2.firings.is_empty());
        // Cools below, then heats again: fires again.
        home.thermometer
            .set_reading(Rational::from_integer(24), SimTime::from_millis(3))
            .unwrap();
        engine.step(SimTime::from_millis(3));
        home.thermometer
            .set_reading(Rational::from_integer(29), SimTime::from_millis(4))
            .unwrap();
        let r3 = engine.step(SimTime::from_millis(4));
        assert_eq!(r3.firings.len(), 1);
    }

    #[test]
    fn priority_arbitrates_simultaneous_firings() {
        let (mut engine, home) = setup();
        // Tom (rule 1, 25°) and Alan (rule 2, 24°) both trigger above 26°.
        engine.add_rule(hot_rule("tom", 1, 26, 25)).unwrap();
        engine.add_rule(hot_rule("alan", 2, 25, 24)).unwrap();
        engine.add_priority(PriorityOrder::new(
            DeviceId::new("aircon-lr"),
            vec![RuleId::new(2), RuleId::new(1)],
        ));
        home.thermometer
            .set_reading(Rational::from_integer(28), SimTime::EPOCH)
            .unwrap();
        let report = engine.step(SimTime::from_millis(1));
        assert_eq!(report.firings.len(), 2);
        let alan = report
            .firings
            .iter()
            .find(|f| f.rule == RuleId::new(2))
            .unwrap();
        let tom = report
            .firings
            .iter()
            .find(|f| f.rule == RuleId::new(1))
            .unwrap();
        assert!(matches!(alan.outcome, FiringOutcome::Dispatched));
        assert_eq!(tom.outcome, FiringOutcome::SuppressedBy(RuleId::new(2)));
        // Alan's setpoint won.
        assert_eq!(
            home.aircon.query("setpoint").unwrap(),
            Value::Number(Quantity::from_integer(24, Unit::Celsius))
        );
        // The conflict event was raised for Tom's suppression.
        assert!(engine.context().event_active("conflict", "aircon-lr:tom"));
    }

    #[test]
    fn later_higher_priority_rule_replaces_holder() {
        let (mut engine, home) = setup();
        engine.add_rule(hot_rule("tom", 1, 26, 25)).unwrap();
        engine.add_rule(hot_rule("alan", 2, 29, 24)).unwrap();
        engine.add_priority(PriorityOrder::new(
            DeviceId::new("aircon-lr"),
            vec![RuleId::new(2), RuleId::new(1)],
        ));
        // 27°: only Tom triggers.
        home.thermometer
            .set_reading(Rational::from_integer(27), SimTime::EPOCH)
            .unwrap();
        engine.step(SimTime::from_millis(1));
        assert_eq!(
            engine.holder(&DeviceId::new("aircon-lr")),
            Some(RuleId::new(1))
        );
        // 30°: Alan triggers and outranks the holder.
        home.thermometer
            .set_reading(Rational::from_integer(30), SimTime::from_millis(2))
            .unwrap();
        let report = engine.step(SimTime::from_millis(2));
        let alan = report
            .firings
            .iter()
            .find(|f| f.rule == RuleId::new(2))
            .unwrap();
        assert_eq!(alan.outcome, FiringOutcome::Replaced(RuleId::new(1)));
        assert_eq!(
            engine.holder(&DeviceId::new("aircon-lr")),
            Some(RuleId::new(2))
        );
    }

    #[test]
    fn holder_with_priority_suppresses_newcomer() {
        let (mut engine, home) = setup();
        engine.add_rule(hot_rule("tom", 1, 26, 25)).unwrap();
        engine.add_rule(hot_rule("alan", 2, 29, 24)).unwrap();
        // Tom outranks Alan here.
        engine.add_priority(PriorityOrder::new(
            DeviceId::new("aircon-lr"),
            vec![RuleId::new(1), RuleId::new(2)],
        ));
        home.thermometer
            .set_reading(Rational::from_integer(27), SimTime::EPOCH)
            .unwrap();
        engine.step(SimTime::from_millis(1));
        home.thermometer
            .set_reading(Rational::from_integer(30), SimTime::from_millis(2))
            .unwrap();
        let report = engine.step(SimTime::from_millis(2));
        let alan = report
            .firings
            .iter()
            .find(|f| f.rule == RuleId::new(2))
            .unwrap();
        assert_eq!(alan.outcome, FiringOutcome::SuppressedBy(RuleId::new(1)));
        assert_eq!(
            home.aircon.query("setpoint").unwrap(),
            Value::Number(Quantity::from_integer(25, Unit::Celsius))
        );
    }

    #[test]
    fn presence_event_rule_via_upnp_path() {
        let (mut engine, home) = setup();
        let cond = Condition::Atom(Atom::Presence(PresenceAtom::person_at(
            "tom",
            "living room",
        )));
        let rule = Rule::builder(PersonId::new("tom"))
            .condition(cond)
            .action(
                ActionSpec::new(DeviceId::new("stereo-lr"), Verb::Play)
                    .with_setting("content", Value::from("jazz music")),
            )
            .build(RuleId::new(1))
            .unwrap();
        engine.add_rule(rule).unwrap();

        home.living_presence
            .person_entered(&PersonId::new("tom"), SimTime::EPOCH);
        let report = engine.step(SimTime::from_millis(1));
        assert_eq!(report.dispatched().len(), 1);
        assert_eq!(home.stereo.query("playing").unwrap(), Value::Bool(true));
        assert_eq!(
            home.stereo.query("content").unwrap(),
            Value::from("jazz music")
        );
    }

    #[test]
    fn broadcast_event_rule() {
        let (mut engine, home) = setup();
        let cond = Condition::Atom(Atom::Event(EventAtom::new("tv-guide", "baseball game")));
        let rule = Rule::builder(PersonId::new("alan"))
            .condition(cond)
            .action(ActionSpec::new(DeviceId::new("tv-lr"), Verb::TurnOn))
            .build(RuleId::new(1))
            .unwrap();
        engine.add_rule(rule).unwrap();
        home.tv_guide.announce("Baseball Game", SimTime::EPOCH);
        let report = engine.step(SimTime::from_millis(1));
        assert_eq!(report.dispatched().len(), 1);
        assert_eq!(home.tv.query("power").unwrap(), Value::Bool(true));
    }

    #[test]
    fn until_clause_releases_with_inverse_action() {
        let (mut engine, home) = setup();
        // Turn on the hall light when someone arrives, until 22:00.
        let cond = Condition::Atom(Atom::Event(EventAtom::new("person", "returns home")));
        let until = Condition::Atom(Atom::Time(cadel_types::TimeWindow::new(
            cadel_types::TimeOfDay::hm(22, 0).unwrap(),
            cadel_types::TimeOfDay::MIDNIGHT,
        )));
        let rule = Rule::builder(PersonId::new("tom"))
            .condition(cond)
            .action(ActionSpec::new(DeviceId::new("light-hall"), Verb::TurnOn))
            .until(until)
            .build(RuleId::new(1))
            .unwrap();
        engine.add_rule(rule).unwrap();

        // Arrive at 21:00.
        let t_arrive = SimTime::EPOCH + SimDuration::from_hours(21);
        home.hall_presence
            .announce_arrival(&PersonId::new("tom"), "returns home", t_arrive);
        let report = engine.step(t_arrive);
        assert_eq!(report.dispatched().len(), 1);
        assert_eq!(home.hall_light.query("power").unwrap(), Value::Bool(true));

        // At 22:05 the until window opens: the light is released (turned
        // off via the inverse verb).
        let t_release = SimTime::EPOCH + SimDuration::from_hours(22) + SimDuration::from_minutes(5);
        let report = engine.step(t_release);
        assert_eq!(
            report.releases,
            vec![(RuleId::new(1), DeviceId::new("light-hall"))]
        );
        assert_eq!(home.hall_light.query("power").unwrap(), Value::Bool(false));
        assert_eq!(engine.holder(&DeviceId::new("light-hall")), None);
    }

    #[test]
    fn trigger_index_and_full_scan_agree() {
        let (mut engine_a, home_a) = setup();
        let (mut engine_b, home_b) = setup();
        engine_b.set_use_trigger_index(false);
        for engine in [&mut engine_a, &mut engine_b] {
            engine.add_rule(hot_rule("tom", 1, 26, 25)).unwrap();
            engine.add_rule(hot_rule("alan", 2, 25, 24)).unwrap();
            engine.add_priority(PriorityOrder::new(
                DeviceId::new("aircon-lr"),
                vec![RuleId::new(2), RuleId::new(1)],
            ));
        }
        for (home, t) in [(&home_a, 1u64), (&home_b, 1u64)] {
            home.thermometer
                .set_reading(Rational::from_integer(28), SimTime::from_millis(t))
                .unwrap();
        }
        let ra = engine_a.step(SimTime::from_millis(2));
        let rb = engine_b.step(SimTime::from_millis(2));
        assert_eq!(ra, rb);
    }

    /// A context-scoped order whose guard reads a sensor no rule reads:
    /// only `add_priority` interns that slot, and the compiled guard still
    /// decides arbitration once the reading arrives.
    #[test]
    fn scoped_order_on_a_sensor_no_rule_reads_decides_arbitration() {
        let (mut engine, home) = setup();
        engine.add_rule(hot_rule("tom", 1, 26, 25)).unwrap();
        engine.add_rule(hot_rule("alan", 2, 25, 24)).unwrap();
        let humidity = SensorKey::new(DeviceId::new("hygro-lr"), "humidity");
        let interned = |engine: &Engine| {
            let interner = engine.rules().interner().read().unwrap();
            interner.lookup_sensor(&humidity).is_some()
        };
        assert!(!interned(&engine), "no rule reads the hygrometer");

        let aircon = DeviceId::new("aircon-lr");
        engine.add_priority(PriorityOrder::new(
            aircon.clone(),
            vec![RuleId::new(1), RuleId::new(2)],
        ));
        engine.add_priority(
            PriorityOrder::new(aircon.clone(), vec![RuleId::new(2), RuleId::new(1)]).in_context(
                Condition::Atom(Atom::Constraint(ConstraintAtom::new(
                    humidity.clone(),
                    RelOp::Gt,
                    Quantity::from_integer(70, Unit::Percent),
                ))),
            ),
        );
        assert!(interned(&engine), "add_priority interns the guard's sensor");

        // Dry: the guard is false, the default order hands Tom the aircon.
        home.hygrometer
            .set_reading(Rational::from_integer(50), mins(1))
            .unwrap();
        home.thermometer
            .set_reading(Rational::from_integer(28), mins(1))
            .unwrap();
        engine.step(mins(1));
        assert_eq!(engine.holder(&aircon), Some(RuleId::new(1)));

        // Humid: the scoped order applies and Alan takes over.
        home.hygrometer
            .set_reading(Rational::from_integer(80), mins(2))
            .unwrap();
        let report = engine.step(mins(2));
        assert_eq!(engine.holder(&aircon), Some(RuleId::new(2)));
        assert!(report
            .firings
            .iter()
            .any(|f| f.rule == RuleId::new(2)
                && f.outcome == FiringOutcome::Replaced(RuleId::new(1))));
    }

    /// An order that replaces another with the same key keeps its index,
    /// and so does its compiled guard: a later scoped order still reads
    /// its own guard, not the replaced one's.
    #[test]
    fn replaced_order_keeps_every_guard_index_aligned() {
        let (mut engine, home) = setup();
        engine.add_rule(hot_rule("tom", 1, 26, 25)).unwrap();
        engine.add_rule(hot_rule("alan", 2, 25, 24)).unwrap();
        let aircon = DeviceId::new("aircon-lr");
        let humidity = |op, n| {
            Condition::Atom(Atom::Constraint(ConstraintAtom::new(
                SensorKey::new(DeviceId::new("hygro-lr"), "humidity"),
                op,
                Quantity::from_integer(n, Unit::Percent),
            )))
        };
        let order = |first: u64, second: u64, context| {
            let ranking = vec![RuleId::new(first), RuleId::new(second)];
            PriorityOrder::new(aircon.clone(), ranking).in_context(context)
        };
        assert_eq!(engine.add_priority(order(2, 1, humidity(RelOp::Gt, 70))), 0);
        assert_eq!(engine.add_priority(order(1, 2, humidity(RelOp::Gt, 70))), 0);
        assert_eq!(engine.add_priority(order(2, 1, humidity(RelOp::Lt, 40))), 1);
        assert_eq!(engine.priorities().orders().len(), 2);

        // Humid: the replacing order hands Tom the aircon.
        home.hygrometer
            .set_reading(Rational::from_integer(80), mins(1))
            .unwrap();
        home.thermometer
            .set_reading(Rational::from_integer(28), mins(1))
            .unwrap();
        engine.step(mins(1));
        assert_eq!(engine.holder(&aircon), Some(RuleId::new(1)));
        // Dry: the second order's own guard holds and Alan takes over.
        home.hygrometer
            .set_reading(Rational::from_integer(30), mins(2))
            .unwrap();
        engine.step(mins(2));
        assert_eq!(engine.holder(&aircon), Some(RuleId::new(2)));
    }

    #[test]
    fn refused_update_keeps_the_incumbent_live() {
        let (mut engine, home) = setup();
        let incumbent = hot_rule("tom", 1, 26, 25);
        engine.add_rule(incumbent.clone()).unwrap();
        // The same sensor compared as °C and as %: does not compile.
        let humid = Condition::Atom(Atom::Constraint(ConstraintAtom::new(
            SensorKey::new(DeviceId::new("thermo-lr"), "temperature"),
            RelOp::Lt,
            Quantity::from_integer(60, Unit::Percent),
        )));
        let clash = Rule::builder(PersonId::new("tom"))
            .condition(incumbent.condition().clone().and(humid))
            .action(incumbent.action().clone())
            .build(RuleId::new(1))
            .unwrap();
        assert!(matches!(
            engine.update_rule(clash),
            Err(EngineError::Rule(RuleError::DimensionMismatch { .. }))
        ));
        home.thermometer
            .set_reading(Rational::from_integer(30), SimTime::EPOCH)
            .unwrap();
        let report = engine.step(SimTime::from_millis(1));
        assert_eq!(report.firings.len(), 1, "the incumbent still fires");
    }

    #[test]
    fn disabled_rules_do_not_fire() {
        let (mut engine, home) = setup();
        let rule = hot_rule("tom", 1, 26, 25).with_enabled(false);
        engine.add_rule(rule).unwrap();
        home.thermometer
            .set_reading(Rational::from_integer(30), SimTime::EPOCH)
            .unwrap();
        let report = engine.step(SimTime::from_millis(1));
        assert!(report.firings.is_empty());
    }

    #[test]
    fn remove_rule_stops_it() {
        let (mut engine, home) = setup();
        engine.add_rule(hot_rule("tom", 1, 26, 25)).unwrap();
        engine.remove_rule(RuleId::new(1)).unwrap();
        home.thermometer
            .set_reading(Rational::from_integer(30), SimTime::EPOCH)
            .unwrap();
        assert!(engine.step(SimTime::from_millis(1)).firings.is_empty());
        assert!(engine.remove_rule(RuleId::new(1)).is_err());
    }

    #[test]
    fn firing_and_report_display_are_readable() {
        let report = StepReport {
            firings: vec![
                Firing {
                    rule: RuleId::new(1),
                    device: DeviceId::new("aircon-lr"),
                    outcome: FiringOutcome::Dispatched,
                },
                Firing {
                    rule: RuleId::new(2),
                    device: DeviceId::new("aircon-lr"),
                    outcome: FiringOutcome::SuppressedBy(RuleId::new(1)),
                },
            ],
            releases: vec![(RuleId::new(3), DeviceId::new("light-hall"))],
        };
        assert_eq!(
            report.to_string(),
            "rule#1 -> aircon-lr: dispatched; \
             rule#2 -> aircon-lr: suppressed by rule#1; \
             rule#3 released light-hall"
        );
        assert_eq!(StepReport::default().to_string(), "idle");
        assert_eq!(
            FiringOutcome::Replaced(RuleId::new(9)).to_string(),
            "replaced rule#9"
        );
    }

    #[test]
    fn failed_dispatch_is_reported() {
        let (mut engine, home) = setup();
        // A rule whose action the device rejects (out-of-range setpoint).
        let rule = Rule::builder(PersonId::new("tom"))
            .condition(Condition::Atom(Atom::Event(EventAtom::new(
                "tv-guide", "x",
            ))))
            .action(
                ActionSpec::new(DeviceId::new("aircon-lr"), Verb::TurnOn)
                    .with_setting("temperature", Quantity::from_integer(99, Unit::Celsius)),
            )
            .build(RuleId::new(1))
            .unwrap();
        engine.add_rule(rule).unwrap();
        home.tv_guide.announce("x", SimTime::EPOCH);
        let report = engine.step(SimTime::from_millis(1));
        assert!(matches!(
            report.firings[0].outcome,
            FiringOutcome::Failed(_)
        ));
        assert_eq!(engine.holder(&DeviceId::new("aircon-lr")), None);
        // A validation error is final: nothing queued, no breaker hit.
        assert_eq!(engine.resilience().queue_len(), 0);
        assert_eq!(
            engine
                .resilience()
                .breaker_state(&DeviceId::new("aircon-lr")),
            BreakerState::Closed
        );
    }

    fn reading_rule(id: u64, sensor: &str, setpoint: i64) -> Rule {
        let cond = Condition::Atom(Atom::Constraint(ConstraintAtom::new(
            SensorKey::new(DeviceId::new(sensor), "reading"),
            RelOp::Gt,
            Quantity::from_integer(5, Unit::Celsius),
        )));
        Rule::builder(PersonId::new("tom"))
            .condition(cond)
            .action(
                ActionSpec::new(DeviceId::new("aircon-lr"), Verb::TurnOn).with_setting(
                    "temperature",
                    Quantity::from_integer(setpoint, Unit::Celsius),
                ),
            )
            .build(RuleId::new(id))
            .unwrap()
    }

    /// A holder whose condition lapsed must not keep its device from the
    /// suppressed rule that replaces it when that rule's takeover hit a
    /// transient fault: the retry dispatches, on the trigger index exactly
    /// as on the full scan.
    #[test]
    fn lapsed_holder_does_not_block_its_replacements_retry() {
        let aircon = DeviceId::new("aircon-lr");
        let run = |trigger_index: bool| {
            let plan = FaultPlan::new().fail_between(mins(3), mins(3) + SimDuration::from_secs(10));
            let (mut engine, _home) = faulty_setup("aircon-lr", plan);
            engine.set_use_trigger_index(trigger_index);
            engine.add_rule(reading_rule(1, "x", 20)).unwrap();
            engine.add_rule(reading_rule(2, "y", 22)).unwrap();
            engine.add_priority(PriorityOrder::new(
                aircon.clone(),
                vec![RuleId::new(1), RuleId::new(2)],
            ));
            let set = |engine: &mut Engine, sensor: &str, v: i64| {
                engine.context_mut().set_value(
                    SensorKey::new(DeviceId::new(sensor), "reading"),
                    Value::Number(Quantity::from_integer(v, Unit::Celsius)),
                );
            };
            set(&mut engine, "x", 10);
            set(&mut engine, "y", 10);
            let mut reports = vec![engine.step(mins(1)), engine.step(mins(2))];
            // x drops: rule 1 lapses, rule 2 takes over into the fault.
            set(&mut engine, "x", 0);
            for m in 3..=6 {
                reports.push(engine.step(mins(m)));
            }
            (reports, engine.holder(&aircon))
        };
        let (indexed, holder) = run(true);
        assert_eq!(
            indexed,
            run(false).0,
            "the index and the full scan disagree"
        );
        assert!(matches!(
            indexed[2].firings[0].outcome,
            FiringOutcome::Failed(ref e) if e.is_retryable()
        ));
        assert_eq!(
            indexed[3].dispatched()[0].rule,
            RuleId::new(2),
            "the retry at 00:04 must take the device over"
        );
        assert_eq!(holder, Some(RuleId::new(2)));
    }

    /// A lapsed holder whose dwell window opens makes a repeated false
    /// verdict, which commits nothing: its device is not re-arbitrated,
    /// so the replacement whose takeover hit a transient fault is
    /// dispatched once, by its retry, not a second time at the dwell step.
    #[test]
    fn a_lapsed_holders_dwell_transition_does_not_redispatch_its_replacement() {
        let aircon = DeviceId::new("aircon-lr");
        let at = |m: u64, s: u64| mins(m) + SimDuration::from_secs(s);
        let run = |trigger_index: bool| {
            let plan = FaultPlan::new().fail_between(mins(3), at(3, 10));
            let (mut engine, _home) = faulty_setup("aircon-lr", plan);
            engine.set_use_trigger_index(trigger_index);
            let above = |sensor: &str| {
                Atom::Constraint(ConstraintAtom::new(
                    SensorKey::new(DeviceId::new(sensor), "reading"),
                    RelOp::Gt,
                    Quantity::from_integer(5, Unit::Celsius),
                ))
            };
            let dwell = Atom::held_for(above("z"), SimDuration::from_minutes(60));
            let rule1 = Rule::builder(PersonId::new("tom"))
                .condition(Condition::Atom(above("x")).or(Condition::Atom(dwell)))
                .action(ActionSpec::new(aircon.clone(), Verb::TurnOn))
                .build(RuleId::new(1))
                .unwrap();
            engine.add_rule(rule1).unwrap();
            engine.add_rule(reading_rule(2, "y", 22)).unwrap();
            engine.add_priority(PriorityOrder::new(
                aircon.clone(),
                vec![RuleId::new(1), RuleId::new(2)],
            ));
            let set = |engine: &mut Engine, sensor: &str, v: i64| {
                engine.context_mut().set_value(
                    SensorKey::new(DeviceId::new(sensor), "reading"),
                    Value::Number(Quantity::from_integer(v, Unit::Celsius)),
                );
            };
            set(&mut engine, "x", 10);
            set(&mut engine, "y", 10);
            set(&mut engine, "z", 0);
            let mut reports = vec![engine.step(mins(1)), engine.step(mins(2))];
            // x drops: rule 1 lapses, rule 2 takes over into the fault.
            set(&mut engine, "x", 0);
            reports.push(engine.step(mins(3)));
            // z rises: rule 1's dwell window opens, its verdict stays false.
            set(&mut engine, "z", 10);
            reports.push(engine.step(at(3, 11)));
            reports.push(engine.step(mins(4)));
            (reports, engine.holder(&aircon))
        };
        let (indexed, holder) = run(true);
        assert_eq!(
            indexed,
            run(false).0,
            "the index and the full scan disagree"
        );
        assert!(matches!(
            indexed[2].firings[0].outcome,
            FiringOutcome::Failed(ref e) if e.is_retryable()
        ));
        assert!(
            indexed[3].is_empty(),
            "the dwell step re-arbitrated the aircon: {}",
            indexed[3]
        );
        let retried: Vec<RuleId> = indexed[4].dispatched().iter().map(|f| f.rule).collect();
        assert_eq!(retried, [RuleId::new(2)], "the retry takes the device over");
        assert_eq!(holder, Some(RuleId::new(2)));
    }

    /// `x > 5` on the aircon: turn it on until `y > 5`.
    fn until_rule(id: u64) -> Rule {
        let above = |sensor: &str| {
            Condition::Atom(Atom::Constraint(ConstraintAtom::new(
                SensorKey::new(DeviceId::new(sensor), "reading"),
                RelOp::Gt,
                Quantity::from_integer(5, Unit::Celsius),
            )))
        };
        Rule::builder(PersonId::new("tom"))
            .condition(above("x"))
            .action(ActionSpec::new(DeviceId::new("aircon-lr"), Verb::TurnOn))
            .until(above("y"))
            .build(RuleId::new(id))
            .unwrap()
    }

    /// `z > 5 held for 60 minutes` on the aircon.
    fn dwell_rule(id: u64) -> Rule {
        let inner = Atom::Constraint(ConstraintAtom::new(
            SensorKey::new(DeviceId::new("z"), "reading"),
            RelOp::Gt,
            Quantity::from_integer(5, Unit::Celsius),
        ));
        Rule::builder(PersonId::new("tom"))
            .condition(Condition::Atom(Atom::held_for(
                inner,
                SimDuration::from_minutes(60),
            )))
            .action(ActionSpec::new(DeviceId::new("aircon-lr"), Verb::TurnOn))
            .build(RuleId::new(id))
            .unwrap()
    }

    fn set_reading(engine: &mut Engine, sensor: &str, v: i64) {
        engine.context_mut().set_value(
            SensorKey::new(DeviceId::new(sensor), "reading"),
            Value::Number(Quantity::from_integer(v, Unit::Celsius)),
        );
    }

    /// Drives a dwell rule's window open at 00:01, then lets `churn` take
    /// the rule out of play and `rejoin` bring a rule over the same atom
    /// back at 03:20, while z dips at 00:30 and rises again at 03:20.
    /// Returns the minute of the first dispatch after 03:20.
    fn first_dwell_dispatch(
        trigger_index: bool,
        churn: impl Fn(&mut Engine),
        rejoin: impl Fn(&mut Engine),
    ) -> Option<u64> {
        let (mut engine, _home) = setup();
        engine.set_use_trigger_index(trigger_index);
        engine.add_rule(dwell_rule(1)).unwrap();
        set_reading(&mut engine, "z", 10);
        engine.step(mins(1));
        churn(&mut engine);
        for m in 2..=200 {
            match m {
                30 => set_reading(&mut engine, "z", 0),
                200 => set_reading(&mut engine, "z", 10),
                _ => {}
            }
            assert!(engine.step(mins(m)).is_empty(), "nothing observes z");
        }
        rejoin(&mut engine);
        (201..=300).find(|&m| !engine.step(mins(m)).dispatched().is_empty())
    }

    /// Regression: the dwell window of a removed rule stayed open with no
    /// rule observing it, and a later rule over the same atom inherited
    /// it: it fired one minute after it was added, after z had dipped.
    #[test]
    fn a_removed_rules_dwell_window_does_not_leak_to_a_later_rule() {
        for trigger_index in [true, false] {
            let fired = first_dwell_dispatch(
                trigger_index,
                |engine| engine.remove_rule(RuleId::new(1)).unwrap(),
                |engine| {
                    engine.add_rule(dwell_rule(2)).unwrap();
                },
            );
            // Added at 03:20, observed from 03:21: 04:21.
            assert_eq!(fired, Some(4 * 60 + 21), "index {trigger_index}");
        }
    }

    /// The same leak through disabling: a re-enabled rule opens its window
    /// when it is first evaluated again.
    #[test]
    fn a_re_enabled_rules_dwell_window_starts_afresh() {
        let toggle = |enabled: bool| {
            move |engine: &mut Engine| {
                engine
                    .update_rule(dwell_rule(1).with_enabled(enabled))
                    .unwrap();
            }
        };
        for trigger_index in [true, false] {
            let fired = first_dwell_dispatch(trigger_index, toggle(false), toggle(true));
            assert_eq!(fired, Some(4 * 60 + 21), "index {trigger_index}");
        }
    }

    /// A window that another enabled rule still observes survives the
    /// removal: the remaining rule fires when its hour is up.
    #[test]
    fn a_dwell_window_another_rule_reads_survives_a_removal() {
        let (mut engine, _home) = setup();
        engine.add_rule(dwell_rule(1)).unwrap();
        engine.add_rule(dwell_rule(2)).unwrap();
        set_reading(&mut engine, "z", 10);
        engine.step(mins(1));
        engine.remove_rule(RuleId::new(1)).unwrap();
        let fired = (2..=120).find(|&m| !engine.step(mins(m)).dispatched().is_empty());
        assert_eq!(fired, Some(61));
    }

    /// Regression: a fire retry queued before its rule was released by
    /// its `until` clause dispatched the latched rule again, and the same
    /// step released it again.
    #[test]
    fn a_latched_rules_queued_retry_does_not_fire_it() {
        let at = |m: u64, s: u64| mins(m) + SimDuration::from_secs(s);
        for trigger_index in [true, false] {
            let plan = FaultPlan::new().fail_between(mins(180), at(180, 5));
            let (mut engine, _home) = faulty_setup("aircon-lr", plan);
            engine.set_use_trigger_index(trigger_index);
            engine.add_rule(until_rule(1)).unwrap();
            set_reading(&mut engine, "x", 10);
            assert_eq!(engine.step(mins(60)).dispatched().len(), 1);
            set_reading(&mut engine, "x", 0);
            engine.step(mins(120));
            // The re-dispatch hits the fault: a retry is queued.
            set_reading(&mut engine, "x", 10);
            let failed = engine.step(mins(180));
            assert!(matches!(
                failed.firings[0].outcome,
                FiringOutcome::Failed(ref e) if e.is_retryable()
            ));
            // Released (and latched) before the retry comes due.
            set_reading(&mut engine, "y", 10);
            let released = engine.step(at(180, 10));
            assert_eq!(released.releases.len(), 1, "{released}");
            let report = engine.step(mins(220));
            assert!(report.is_empty(), "the retry fired: {report}");
            assert_eq!(engine.holder(&DeviceId::new("aircon-lr")), None);
            assert_eq!(engine.resilience().queue_len(), 0);
        }
    }

    /// Regression: a release freed the device without re-arbitrating it,
    /// so a suppressed rule whose condition still held stayed out of it.
    #[test]
    fn a_release_hands_the_device_to_its_remaining_contender() {
        let aircon = DeviceId::new("aircon-lr");
        for trigger_index in [true, false] {
            let (mut engine, home) = setup();
            engine.set_use_trigger_index(trigger_index);
            engine.add_rule(until_rule(1)).unwrap();
            engine.add_rule(reading_rule(2, "x", 22)).unwrap();
            engine.add_priority(PriorityOrder::new(
                aircon.clone(),
                vec![RuleId::new(1), RuleId::new(2)],
            ));
            set_reading(&mut engine, "x", 10);
            let first = engine.step(mins(1));
            assert_eq!(
                first.to_string(),
                "rule#1 -> aircon-lr: dispatched; rule#2 -> aircon-lr: suppressed by rule#1"
            );
            set_reading(&mut engine, "y", 10);
            let release = engine.step(mins(2));
            assert_eq!(
                release.to_string(),
                "rule#2 -> aircon-lr: dispatched; rule#1 released aircon-lr"
            );
            assert_eq!(engine.holder(&aircon), Some(RuleId::new(2)));
            assert_eq!(
                home.aircon.query("setpoint").unwrap(),
                Value::Number(Quantity::from_integer(22, Unit::Celsius))
            );
            assert!(engine.step(mins(3)).is_empty());
        }
    }

    /// Regression, shrunk from the runtime-invariant run (seed 159): a
    /// takeover that failed into a retry left the device to a rule whose
    /// condition then fell; the remaining contender waited for the device
    /// until its next edge. Now the device is re-arbitrated when a
    /// contender leaves it with no live holder.
    #[test]
    fn a_contender_left_alone_by_a_failed_takeover_gets_the_device() {
        let aircon = DeviceId::new("aircon-lr");
        let at = |m: u64, s: u64| mins(m) + SimDuration::from_secs(s);
        for trigger_index in [true, false] {
            let plan = FaultPlan::new().fail_between(mins(2), at(2, 5));
            let (mut engine, _home) = faulty_setup("aircon-lr", plan);
            engine.set_use_trigger_index(trigger_index);
            for (id, sensor) in [(1, "x"), (2, "y"), (3, "z")] {
                engine.add_rule(reading_rule(id, sensor, 20)).unwrap();
            }
            engine.add_priority(PriorityOrder::new(
                aircon.clone(),
                vec![RuleId::new(2), RuleId::new(3)],
            ));
            set_reading(&mut engine, "x", 10);
            engine.step(mins(1));
            // Rule 1 lapses; rule 2 wins over rule 3 but hits the fault.
            set_reading(&mut engine, "x", 0);
            set_reading(&mut engine, "y", 10);
            set_reading(&mut engine, "z", 10);
            let failed = engine.step(mins(2));
            assert!(matches!(
                failed.firings[0].outcome,
                FiringOutcome::Failed(ref e) if e.is_retryable()
            ));
            // Rule 2 falls before its retry comes due: rule 3 takes over.
            set_reading(&mut engine, "y", 0);
            let report = engine.step(at(2, 20));
            assert_eq!(report.to_string(), "rule#3 -> aircon-lr: dispatched");
            assert_eq!(engine.holder(&aircon), Some(RuleId::new(3)));
            assert!(engine.step(mins(5)).is_empty());
        }
    }

    /// A step reports its firings in device-name order, whatever order
    /// the devices were first targeted in (which is the order their
    /// slots were assigned), with a winner before its suppressed rivals.
    #[test]
    fn firings_follow_device_name_order_not_registration_order() {
        let (mut engine, _home) = setup();
        for (id, device) in [
            (1, "tv-lr"),
            (2, "stereo-lr"),
            (3, "lamp-lr"),
            (4, "aircon-lr"),
        ] {
            let rule = Rule::builder(PersonId::new("tom"))
                .condition(Condition::Atom(Atom::Constraint(ConstraintAtom::new(
                    SensorKey::new(DeviceId::new("x"), "reading"),
                    RelOp::Gt,
                    Quantity::from_integer(5, Unit::Celsius),
                ))))
                .action(ActionSpec::new(DeviceId::new(device), Verb::TurnOn))
                .build(RuleId::new(id))
                .unwrap();
            engine.add_rule(rule.clone()).unwrap();
            if id == 1 {
                engine
                    .add_rule(rule.reassigned(RuleId::new(5), PersonId::new("alan")))
                    .unwrap();
            }
        }
        set_reading(&mut engine, "x", 10);
        let devices: Vec<String> = engine
            .step(mins(1))
            .firings
            .iter()
            .map(|f| format!("{} {}", f.device, f.rule))
            .collect();
        assert_eq!(
            devices,
            [
                "aircon-lr rule#4",
                "lamp-lr rule#3",
                "stereo-lr rule#2",
                "tv-lr rule#1",
                "tv-lr rule#5"
            ]
        );
    }

    /// A reading and an event fact written before any rule mentions them
    /// are there for a rule registered afterwards.
    #[test]
    fn a_rule_registered_after_a_reading_sees_it() {
        let (mut engine, home) = setup();
        home.thermometer
            .set_reading(Rational::from_integer(28), mins(1))
            .unwrap();
        engine
            .context_mut()
            .set_persistent_event("tv-guide", "Baseball Game");
        assert!(engine.step(mins(1)).is_empty());

        engine.add_rule(hot_rule("tom", 1, 26, 25)).unwrap();
        let baseball = Rule::builder(PersonId::new("alan"))
            .condition(Condition::Atom(Atom::Event(EventAtom::new(
                "tv-guide",
                "baseball game",
            ))))
            .action(ActionSpec::new(DeviceId::new("tv-lr"), Verb::TurnOn))
            .build(RuleId::new(2))
            .unwrap();
        engine.add_rule(baseball).unwrap();
        let report = engine.step(mins(2));
        let fired: Vec<RuleId> = report.dispatched().iter().map(|f| f.rule).collect();
        assert_eq!(fired, [RuleId::new(1), RuleId::new(2)], "{report}");
        assert!(engine.context().event_active("tv-guide", "baseball game"));
    }

    #[test]
    fn disabled_rule_is_not_a_candidate_after_its_first_step() {
        let (mut engine, _home) = setup();
        engine
            .add_rule(hot_rule("tom", 1, 26, 25).with_enabled(false))
            .unwrap();
        engine.step(mins(1));
        engine.step(mins(2));
        assert!(
            engine.candidate_buf.is_empty(),
            "a disabled rule never commits, so it must not stay pending: {:?}",
            engine.candidate_buf
        );
    }

    #[test]
    fn transient_fault_retries_then_recovers_through_the_dlq() {
        let aircon = DeviceId::new("aircon-lr");
        let plan = FaultPlan::new().fail_between(SimTime::EPOCH, mins(10));
        let (mut engine, home) = faulty_setup("aircon-lr", plan);
        engine.add_rule(hot_rule("tom", 1, 26, 25)).unwrap();
        home.thermometer
            .set_reading(Rational::from_integer(28), mins(1))
            .unwrap();

        // The first dispatch hits the fault window: reported as a
        // retryable failure, nothing holds the device, one retry queued.
        let report = engine.step(mins(1));
        assert!(matches!(
            report.firings[0].outcome,
            FiringOutcome::Failed(ref e) if e.is_retryable()
        ));
        assert_eq!(engine.holder(&aircon), None);
        assert_eq!(engine.resilience().queued_for(&aircon), 1);

        // Stepping through the window: retries exhaust into the DLQ (the
        // breaker trips along the way), then the post-recovery probe
        // resurrects the dead letter and the action finally lands.
        let mut recovered_at = None;
        for m in 2..=25 {
            let report = engine.step(mins(m));
            if report.dispatched().len() == 1 {
                recovered_at = Some(m);
                break;
            }
        }
        let recovered_at = recovered_at.expect("retry or DLQ replay eventually dispatches");
        assert!(recovered_at >= 10, "dispatched inside the fault window");
        assert_eq!(engine.holder(&aircon), Some(RuleId::new(1)));
        assert_eq!(home.aircon.query("power").unwrap(), Value::Bool(true));
        assert!(engine.resilience().dead_letters().is_empty());
        assert_eq!(engine.resilience().queue_len(), 0);
        assert_eq!(
            engine.resilience().breaker_state(&aircon),
            BreakerState::Closed
        );
    }

    #[test]
    fn open_breaker_defers_new_firings_once_per_stretch() {
        let aircon = DeviceId::new("aircon-lr");
        let plan = FaultPlan::new().fail_from(SimTime::EPOCH);
        let (mut engine, home) = faulty_setup("aircon-lr", plan);
        // A long cooldown keeps the breaker open (no half-open probe)
        // for the whole test window.
        engine.set_resilience_config(ResilienceConfig {
            cooldown: SimDuration::from_minutes(30),
            ..ResilienceConfig::default()
        });
        engine.add_rule(hot_rule("tom", 1, 26, 25)).unwrap();
        home.thermometer
            .set_reading(Rational::from_integer(28), mins(1))
            .unwrap();
        for m in 1..=6 {
            engine.step(mins(m));
        }
        assert_eq!(
            engine.resilience().breaker_state(&aircon),
            BreakerState::Open
        );

        // Rule 1's condition lapses, taking it out of contention.
        home.thermometer
            .set_reading(Rational::from_integer(20), mins(6))
            .unwrap();
        engine.step(mins(6));

        // A fresh edge on a second rule targeting the dark device is
        // deferred, not failed — and reported only once.
        let rule2 = Rule::builder(PersonId::new("alan"))
            .condition(Condition::Atom(Atom::Event(EventAtom::new(
                "tv-guide", "x",
            ))))
            .action(ActionSpec::new(aircon.clone(), Verb::TurnOn))
            .build(RuleId::new(2))
            .unwrap();
        engine.add_rule(rule2).unwrap();
        home.tv_guide.announce("x", mins(7));
        let report = engine.step(mins(7));
        assert_eq!(report.firings.len(), 1);
        assert_eq!(report.firings[0].outcome, FiringOutcome::Deferred);
        assert_eq!(engine.holder(&aircon), None);
        let report = engine.step(mins(8));
        assert!(
            report.firings.is_empty(),
            "continuous deferral reported again: {report}"
        );
        assert_eq!(engine.holder(&aircon), None);
    }

    #[test]
    fn failed_release_is_reported_and_retried() {
        let hall = DeviceId::new("light-hall");
        let t = |h: u64, m: u64| {
            SimTime::EPOCH + SimDuration::from_hours(h) + SimDuration::from_minutes(m)
        };
        // The hall light fails across the 22:00 release window.
        let plan = FaultPlan::new().fail_between(t(22, 4), t(22, 10));
        let (mut engine, home) = faulty_setup("light-hall", plan);
        let cond = Condition::Atom(Atom::Event(EventAtom::new("person", "returns home")));
        let until = Condition::Atom(Atom::Time(cadel_types::TimeWindow::new(
            cadel_types::TimeOfDay::hm(22, 0).unwrap(),
            cadel_types::TimeOfDay::MIDNIGHT,
        )));
        let rule = Rule::builder(PersonId::new("tom"))
            .condition(cond)
            .action(ActionSpec::new(hall.clone(), Verb::TurnOn))
            .until(until)
            .build(RuleId::new(1))
            .unwrap();
        engine.add_rule(rule).unwrap();

        let t_arrive = t(21, 0);
        home.hall_presence
            .announce_arrival(&PersonId::new("tom"), "returns home", t_arrive);
        engine.step(t_arrive);
        assert_eq!(home.hall_light.query("power").unwrap(), Value::Bool(true));

        // 22:05 — the until clause releases, but the inverse action hits
        // the fault window: the device is freed for arbitration, the
        // failure is recorded, and the turn-off is queued for retry.
        let report = engine.step(t(22, 5));
        assert_eq!(report.releases, vec![(RuleId::new(1), hall.clone())]);
        assert_eq!(engine.holder(&hall), None);
        assert_eq!(home.hall_light.query("power").unwrap(), Value::Bool(true));
        assert_eq!(engine.resilience().queued_for(&hall), 1);

        // The queued release retry lands after the fault clears: the
        // light does not stay stuck on.
        for m in 6..=40 {
            engine.step(t(22, m));
        }
        assert_eq!(home.hall_light.query("power").unwrap(), Value::Bool(false));
        assert_eq!(engine.resilience().queue_len(), 0);
    }

    #[test]
    fn seeded_fault_runs_are_deterministic() {
        let run = || {
            let plan = FaultPlan::random_transient(
                42,
                SimTime::EPOCH,
                mins(60),
                SimDuration::from_minutes(1),
                300,
            );
            let (mut engine, home) = faulty_setup("aircon-lr", plan);
            engine.add_rule(hot_rule("tom", 1, 26, 25)).unwrap();
            let mut reports = Vec::new();
            for m in 0..60 {
                // Oscillate the temperature to keep producing fresh edges.
                let temp = if m % 4 < 2 { 30 } else { 20 };
                home.thermometer
                    .set_reading(Rational::from_integer(temp), mins(m))
                    .unwrap();
                reports.push(engine.step(mins(m)));
            }
            reports
        };
        let first = run();
        assert_eq!(first, run(), "same seed and plan must replay identically");
        assert!(first
            .iter()
            .flat_map(|r| &r.firings)
            .any(|f| matches!(f.outcome, FiringOutcome::Dispatched)));
    }

    const FRESHNESS_MODES: [FreshnessMode; 3] = [
        FreshnessMode::FailClosed,
        FreshnessMode::FailOpen,
        FreshnessMode::HoldLastValue,
    ];

    /// Tom's hot rule under a 10-minute freshness window in `mode`, with a
    /// 28° reading stamped at the epoch.
    fn hot_at_epoch(mode: FreshnessMode) -> (Engine, LivingRoomHome) {
        let (mut engine, home) = setup();
        engine.add_rule(hot_rule("tom", 1, 26, 25)).unwrap();
        let policy = FreshnessPolicy::new(mode, SimDuration::from_minutes(10));
        engine.context_mut().set_freshness_policy(policy);
        home.thermometer
            .set_reading(Rational::from_integer(28), SimTime::EPOCH)
            .unwrap();
        (engine, home)
    }

    /// A reading past its freshness window degrades by mode: `FailClosed`
    /// drops the condition, `FailOpen` and `HoldLastValue` keep it. The
    /// rule's arena span and the reference interpreter agree on
    /// that verdict at every step; the rule fires once on the fresh
    /// reading in every mode and never re-fires on stale data.
    #[test]
    fn staleness_verdicts_agree_between_compiled_and_ast_modes() {
        for mode in FRESHNESS_MODES {
            let (mut engine, _home) = hot_at_epoch(mode);
            let rule = hot_rule("tom", 1, 26, 25);
            for m in [1u64, 5, 11, 20, 30] {
                let report = engine.step(mins(m));
                assert_eq!(
                    report.firings.len(),
                    usize::from(m == 1),
                    "mode {mode}, minute {m}"
                );
                let ctx = engine.context();
                let rules = engine.rules();
                let program = rules.program_ref(RuleId::new(1)).unwrap();
                let compiled = rules
                    .arena()
                    .condition_holds(program, ctx, &mut HeldTracker::new());
                let ast = crate::Evaluator::new(ctx, &mut HeldTracker::new())
                    .condition_holds(rule.condition());
                let expected = m <= 10 || mode != FreshnessMode::FailClosed;
                assert_eq!(compiled, expected, "compiled, mode {mode}, minute {m}");
                assert_eq!(ast, expected, "ast, mode {mode}, minute {m}");
            }
        }
    }

    /// A reading whose age is *exactly* `max_age` is still fresh — the
    /// staleness predicate is `age > max_age`, not `>=` — and every mode
    /// agrees. One millisecond later the reading is stale, and the modes
    /// diverge on the next condition edge: only `FailClosed` drops the
    /// condition to false, so only it re-fires when a fresh hot reading
    /// arrives.
    #[test]
    fn freshness_boundary_age_equal_to_max_age_is_fresh() {
        for mode in FRESHNESS_MODES {
            let (mut engine, home) = hot_at_epoch(mode);

            // First evaluation at exactly max_age: fresh on the nose, so
            // the rule fires in every mode.
            let at_boundary = mins(10);
            let report = engine.step(at_boundary);
            assert_eq!(
                report.firings.len(),
                1,
                "mode {mode}: age == max_age must count as fresh"
            );

            // One millisecond past the boundary the reading is stale.
            // Sensor changes keep their *own* timestamp for staleness, so
            // a still-hot reading stamped back at the epoch forces a
            // re-evaluation over stale data. FailClosed drops the
            // condition to false; a fresh hot reading then produces a
            // new rising edge and a re-fire. FailOpen and HoldLastValue
            // both keep the condition true (stale-true and held-true
            // respectively), so no edge.
            let past = at_boundary + SimDuration::from_millis(1);
            home.thermometer
                .set_reading(Rational::from_integer(27), SimTime::EPOCH)
                .unwrap();
            let report = engine.step(past);
            assert!(
                report.firings.is_empty(),
                "mode {mode}: stale data never fires"
            );

            let refresh = past + SimDuration::from_millis(1);
            home.thermometer
                .set_reading(Rational::from_integer(28), refresh)
                .unwrap();
            let report = engine.step(refresh);
            let expected = usize::from(mode == FreshnessMode::FailClosed);
            assert_eq!(report.firings.len(), expected, "mode {mode}: re-fire count");
        }
    }

    /// After a sensor device drops out permanently, `HoldLastValue`
    /// keeps evaluating the last reading indefinitely: the rule's
    /// condition never goes false and the device hold survives.
    #[test]
    fn hold_last_value_survives_permanent_device_dropout() {
        let plan = FaultPlan::new().fail_from(mins(2));
        let (mut engine, home) = faulty_setup("thermo-lr", plan);
        engine.add_rule(hot_rule("tom", 1, 26, 25)).unwrap();
        engine
            .context_mut()
            .set_freshness_policy(FreshnessPolicy::new(
                FreshnessMode::HoldLastValue,
                SimDuration::from_minutes(10),
            ));
        // Last reading before the device dies at minute 2.
        home.thermometer
            .set_reading(Rational::from_integer(28), mins(1))
            .unwrap();
        let report = engine.step(mins(1));
        assert_eq!(report.firings.len(), 1);

        // Hours past the dropout: the reading is long stale but held, so
        // the condition stays true — no release, no re-fire, the hold
        // survives.
        for m in [20u64, 60, 180, 600] {
            let report = engine.step(mins(m));
            assert!(report.firings.is_empty(), "minute {m}: held value re-fired");
            assert!(
                report.releases.is_empty(),
                "minute {m}: held value released"
            );
        }
        assert_eq!(
            engine.holder(&DeviceId::new("aircon-lr")),
            Some(RuleId::new(1)),
            "hold must survive the dropout"
        );
    }
}
