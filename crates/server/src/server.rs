//! The home server: the registration workflow tying everything together.
//!
//! "Whenever a new rule is described and registered in the system, the
//! module evaluates the condition in the new rule to check whether it can
//! hold … then the module checks whether it can conflict with other rules
//! in the database … When the module detects a conflict, it warns the user
//! to modify the new rule or to specify the priority order among the
//! conflicting rules." (paper §4.4)
//!
//! [`HomeServer::submit`] runs that pipeline for a CADEL sentence:
//! parse → compile (against the live registry) → consistency check →
//! conflict check → either register, reject, or refuse the rule with the
//! conflicts no priority order covers
//! ([`SubmitOutcome::ConflictDetected`]). The refused rule goes back to
//! the caller and nothing is kept: the Fig. 7 dialog is one more call,
//! [`HomeServer::arbitrate`], with a priority order that ranks the rule,
//! and that call re-runs the check against the live base.

use crate::access::{AccessControl, Privilege};
use crate::error::ServerError;
use crate::guidance::GuidanceService;
use crate::persist;
use crate::resolver::RegistryResolver;
use crate::users::UserRegistry;
use cadel_conflict::{
    Advisory, Conflict, ConflictError, ConflictGraph, ConsistencyReport, PriorityOrder,
    PriorityStore,
};
use cadel_engine::{Engine, FreshnessPolicy, ResilienceStatus, StepReport};
use cadel_lang::ast::{Command, RuleSentence};
use cadel_lang::{parse_command, Compiler, Dictionary, Lexicon};
use cadel_obs::{Event, LazyCounter, LazyHistogram, Level, MetricsSnapshot, Stopwatch};
use cadel_rule::Rule;
use cadel_store::{RecoveryReport, Store, StoreError};
use cadel_types::json::Json;
use cadel_types::{PersonId, RuleId, SimTime, Topology};
use cadel_upnp::ControlPoint;
use std::collections::BTreeSet;
use std::path::Path;

/// Sentences submitted through [`HomeServer::submit`].
static SUBMITS: LazyCounter = LazyCounter::new("server_submits_total");
/// Wall-clock latency of the full submit workflow (parse → compile →
/// consistency → conflict → store).
static SUBMIT_NS: LazyHistogram = LazyHistogram::new("server_submit_duration_ns");
/// Rules that completed registration (via submit, import or direct
/// [`HomeServer::register_rule`]).
static RULES_REGISTERED: LazyCounter = LazyCounter::new("server_rules_registered_total");
/// Rules rejected because their condition can never hold.
static RULES_INCONSISTENT: LazyCounter = LazyCounter::new("server_rules_inconsistent_total");
/// Rules (new, customized or arbitrated) refused because of a conflict
/// that no priority order covers.
static RULES_CONFLICTED: LazyCounter = LazyCounter::new("server_rules_conflicted_total");
/// Rule customizations / enable-toggles that completed (including those
/// settled through [`HomeServer::arbitrate`]).
static RULES_CUSTOMIZED: LazyCounter = LazyCounter::new("server_rules_customized_total");
/// Non-blocking advisories (chains, loops, shadowing, redundancy,
/// environmental) surfaced during registration or customization.
static RULE_ADVISORIES: LazyCounter = LazyCounter::new("server_rule_advisories_total");
/// Wall-clock cost of [`HomeServer::checkpoint_runtime`]: the engine's
/// export plus the WAL append (encode, checksum, write), not the sync.
static CHECKPOINT_RUNTIME_NS: LazyHistogram = LazyHistogram::new("server_checkpoint_runtime_ns");

/// What happened to a submitted CADEL sentence.
#[derive(Debug)]
#[non_exhaustive]
pub enum SubmitOutcome {
    /// The rule was consistent, conflict-free and is now live.
    Registered {
        /// The new rule's id.
        id: RuleId,
        /// Indices of DNF disjuncts that can never hold (worth a warning).
        dead_conjuncts: Vec<usize>,
    },
    /// The rule's condition can never hold; nothing was stored.
    RejectedInconsistent {
        /// The consistency report to show the user.
        report: ConsistencyReport,
    },
    /// The rule conflicts with live rules that no priority order covers;
    /// nothing was stored. The caller holds the refused rule and may
    /// answer the priority prompt with [`HomeServer::arbitrate`].
    ConflictDetected {
        /// The refused rule, under the id it would have had.
        rule: Box<Rule>,
        /// The uncovered conflicts, with witnesses.
        conflicts: Vec<Conflict>,
    },
    /// An existing rule was customized (or re-enabled) in place —
    /// conflict-free, or with every conflict covered by a priority
    /// order.
    Customized {
        /// The customized rule's id.
        id: RuleId,
    },
    /// A `<CondDef>` sentence defined a condition word.
    ConditionWordDefined {
        /// The new word.
        word: String,
    },
    /// A `<ConfDef>` sentence defined a configuration word.
    ConfigurationWordDefined {
        /// The new word.
        word: String,
    },
}

/// How a rule that passes the checks of [`HomeServer::decide`] is logged
/// and installed.
enum Commit {
    /// A new rule: logged `rule_registered` and inserted.
    Register,
    /// A live rule's new definition: logged `rule_customized` and
    /// replaced in place.
    Customize,
    /// A new or live rule with its priority order: logged as one
    /// `rule_arbitrated` record, the order installed and the rule upserted.
    Arbitrate(PriorityOrder),
}

/// The outcome of a bulk rule import (paper §4.3(iv)).
#[derive(Debug, Default)]
pub struct ImportReport {
    /// Rules imported and registered, in order.
    pub imported: Vec<RuleId>,
    /// Rules skipped, with the reason.
    pub skipped: Vec<(String, String)>,
}

/// The home server.
pub struct HomeServer {
    engine: Engine,
    topology: Topology,
    users: UserRegistry,
    lexicon: Lexicon,
    access: AccessControl,
    graph: ConflictGraph,
    /// The durable store, when the server was opened with one
    /// ([`HomeServer::open_at`]). A plain [`HomeServer::new`] server is
    /// ephemeral and logs nothing.
    store: Option<Store>,
    /// True while recovery replays records: suppresses re-logging so a
    /// replayed mutation is not appended a second time.
    replaying: bool,
    /// True once a WAL append has failed (disk full or other append
    /// I/O): every later durable mutation is rejected up front with
    /// [`ServerError::ReadOnly`] instead of retrying the sick disk
    /// mid-step. Reads and non-durable stepping stay available.
    read_only: bool,
    /// Word-definition sentences in submission order, per user — the
    /// replayable source of the private dictionaries (a `Dictionary` has
    /// no codec; the original sentences do).
    word_log: Vec<(PersonId, String)>,
}

impl HomeServer {
    /// Creates an **ephemeral** server over a control point with the
    /// given home topology and the English lexicon. Nothing is persisted;
    /// see [`HomeServer::open_at`] for the durable variant.
    pub fn new(control: ControlPoint, topology: Topology) -> HomeServer {
        let engine = Engine::new(control);
        let mut access = AccessControl::new();
        for description in engine.control().registry().descriptions() {
            access.register_device_type(description.udn().clone(), description.device_type());
        }
        HomeServer {
            engine,
            topology,
            users: UserRegistry::new(),
            lexicon: Lexicon::english(),
            access,
            graph: ConflictGraph::default(),
            store: None,
            replaying: false,
            read_only: false,
            word_log: Vec::new(),
        }
    }

    /// Opens a **durable** server backed by a write-ahead log and
    /// snapshot in `dir` (created if absent), recovering any state a
    /// previous incarnation persisted there: the snapshot is applied
    /// first (if present and intact), then every surviving WAL record is
    /// replayed in order. Torn or corrupt log tails are truncated at the
    /// last good record boundary — see the [`RecoveryReport`].
    ///
    /// Replay is *post-decision*: rules, priorities and customizations
    /// re-enter the engine directly (their consistency/conflict checks
    /// already ran before they were logged), compiled rule programs are
    /// rebuilt from source rather than read from disk, and word
    /// definitions re-run their original sentences through the submit
    /// pipeline. A record that no longer applies (e.g. its device left
    /// the registry) is skipped with a warning, never a failed recovery.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Store`] when the directory cannot be
    /// opened or written.
    pub fn open_at(
        control: ControlPoint,
        topology: Topology,
        dir: impl AsRef<Path>,
    ) -> Result<(HomeServer, RecoveryReport), ServerError> {
        let (store, recovered) = Store::open(dir)?;
        let mut server = HomeServer::new(control, topology);
        server.replaying = true;
        if let Some(snapshot) = &recovered.snapshot {
            server.apply_snapshot(snapshot);
        }
        let mut skipped = 0u64;
        for record in &recovered.records {
            if !server.apply_record(record) {
                skipped += 1;
            }
        }
        server.replaying = false;
        server.store = Some(store);
        let mut report = recovered.report;
        report.records_skipped = skipped;
        if skipped > 0 {
            cadel_store::note_replay_skipped(skipped);
        }
        if cadel_obs::enabled() {
            cadel_obs::emit(
                Event::new("server.recovered", Level::Info)
                    .with_field("records", report.records_replayed)
                    .with_field("records_skipped", report.records_skipped)
                    .with_field("bytes_truncated", report.bytes_truncated)
                    .with_field("snapshot_used", report.snapshot_used),
            );
        }
        Ok((server, report))
    }

    /// The durable store, when this server was opened with one.
    pub fn store(&self) -> Option<&Store> {
        self.store.as_ref()
    }

    /// Flushes the WAL to stable storage (fdatasync). Free when nothing
    /// was logged since the last successful sync: the store issues no
    /// system call then. No-op on ephemeral servers.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Store`] on I/O failure; the records stay
    /// unsynced, so the next sync retries them.
    pub fn sync(&mut self) -> Result<(), ServerError> {
        match &mut self.store {
            Some(store) => Ok(store.sync()?),
            None => Ok(()),
        }
    }

    /// True once a WAL append has failed and durable mutations are
    /// rejected; see [`ServerError::ReadOnly`]. A restart via
    /// [`HomeServer::open_at`] against a healthy store clears the
    /// condition (the failed mutation was never applied or logged).
    pub fn is_read_only(&self) -> bool {
        self.read_only
    }

    /// Toggles injected WAL append failures (simulated `ENOSPC`) on the
    /// backing store. No-op on ephemeral servers. Fault injection for
    /// soak tests, the sibling of `FaultPlan` at the device layer.
    pub fn inject_append_faults(&mut self, on: bool) {
        if let Some(store) = &mut self.store {
            store.set_fail_appends(on);
        }
    }

    /// Toggles injected WAL sync failures (a simulated I/O error from
    /// fdatasync) on the backing store: [`HomeServer::sync`] fails while
    /// anything is unsynced. No-op on ephemeral servers. Fault injection
    /// for the fleet's wave-sync tests.
    pub fn inject_sync_faults(&mut self, on: bool) {
        if let Some(store) = &mut self.store {
            store.set_fail_syncs(on);
        }
    }

    /// Appends one record for a durable mutation, *before* the mutation
    /// is applied. No-op on ephemeral servers and during replay.
    ///
    /// A failed append flips the server read-only: the mutation was not
    /// persisted and must not be applied, and later durable mutations
    /// are rejected up front rather than retrying a failing disk.
    fn log_record(&mut self, record: &Json) -> Result<(), ServerError> {
        if self.replaying {
            return Ok(());
        }
        if self.read_only {
            return Err(ServerError::ReadOnly);
        }
        let Some(store) = &mut self.store else {
            return Ok(());
        };
        match store.append(record) {
            Ok(()) => Ok(()),
            Err(error @ StoreError::Append { .. }) => {
                self.read_only = true;
                if cadel_obs::enabled() {
                    cadel_obs::emit(
                        Event::new("server.read_only", Level::Warn)
                            .with_field("error", error.to_string()),
                    );
                }
                Err(ServerError::ReadOnly)
            }
            Err(error) => Err(error.into()),
        }
    }

    /// Applies one replayed WAL record. Failures are warned and skipped:
    /// recovery always produces a running server. Returns `false` when
    /// the record was skipped.
    fn apply_record(&mut self, record: &Json) -> bool {
        let kind = record.get("type").and_then(Json::as_str).unwrap_or("");
        let result: Result<(), ServerError> = match kind {
            "user_added" => {
                persist::get_str(record, "name").and_then(|name| self.add_user(name).map(|_| ()))
            }
            "word_defined" => {
                let user = persist::get_str(record, "user").map(PersonId::new);
                let sentence = persist::get_str(record, "sentence");
                match (user, sentence) {
                    (Ok(user), Ok(sentence)) => self.submit_inner(&user, sentence).map(|_| ()),
                    (Err(e), _) | (_, Err(e)) => Err(e),
                }
            }
            "rule_registered" => {
                persist::rule_of(record, "rule").and_then(|rule| self.install_rule(rule))
            }
            "rule_arbitrated" => {
                let rule = persist::rule_of(record, "rule");
                let priority =
                    persist::get_field(record, "priority").and_then(persist::priority_from_json);
                match (rule, priority) {
                    (Ok(rule), Ok(priority)) => {
                        self.engine.add_priority(priority);
                        // Upsert: an arbitrated *customize* replays onto
                        // an id that is already live.
                        self.install_rule(rule)
                    }
                    (Err(e), _) | (_, Err(e)) => Err(e),
                }
            }
            "rule_id_reserved" => record
                .get("id")
                .and_then(Json::as_int)
                .and_then(|raw| u64::try_from(raw).ok())
                .ok_or_else(|| {
                    persist::bad("rule_id_reserved record: 'id' must be a non-negative integer")
                })
                .map(|raw| {
                    // `raw` fits an i64, so `next` cannot overflow.
                    let id = RuleId::new(raw);
                    self.engine.ensure_next_rule_id(id.next());
                }),
            "rule_removed" => record
                .get("id")
                .and_then(Json::as_int)
                .ok_or_else(|| persist::bad("rule_removed record: 'id' must be an integer"))
                .and_then(|raw| Ok(self.engine.remove_rule(RuleId::new(raw as u64))?)),
            "rule_customized" => persist::rule_of(record, "rule")
                .and_then(|rule| Ok(self.engine.update_rule(rule)?)),
            "priority_added" => persist::get_field(record, "priority")
                .and_then(persist::priority_from_json)
                .map(|priority| {
                    self.engine.add_priority(priority);
                }),
            "freshness" => persist::get_field(record, "policy").and_then(|doc| {
                let policy =
                    cadel_engine::freshness_policy_from_json(doc).map_err(ServerError::Engine)?;
                self.engine.context_mut().set_freshness_policy(policy);
                Ok(())
            }),
            "runtime" => persist::get_field(record, "state")
                .and_then(|state| Ok(self.engine.import_runtime_json(state)?)),
            other => Err(persist::bad(format!("unknown record type '{other}'"))),
        };
        match result {
            Ok(()) => true,
            Err(error) => {
                if cadel_obs::enabled() {
                    cadel_obs::emit(
                        Event::new("server.replay_record_skipped", Level::Warn)
                            .with_field("kind", kind.to_owned())
                            .with_field("error", error.to_string()),
                    );
                }
                false
            }
        }
    }

    /// The full durable state as one JSON document: users and their word
    /// sentences, rules, priorities, the freshness policy, the rule-id
    /// allocator, and the engine runtime checkpoint. This is the snapshot
    /// payload [`HomeServer::checkpoint`] writes, and — being
    /// deterministically ordered — a byte-stable fingerprint of the
    /// server's durable state for equivalence tests.
    pub fn snapshot_json(&self) -> Json {
        let users = Json::Arr(
            self.users
                .ids()
                .into_iter()
                .map(|id| {
                    let display = self
                        .users
                        .user(id)
                        .map(|p| p.display_name().to_owned())
                        .unwrap_or_else(|_| id.as_str().to_owned());
                    let words = Json::Arr(
                        self.word_log
                            .iter()
                            .filter(|(owner, _)| owner == id)
                            .map(|(_, sentence)| Json::str(sentence))
                            .collect(),
                    );
                    Json::obj(vec![("name", Json::str(&display)), ("words", words)])
                })
                .collect(),
        );
        let mut rules: Vec<&Rule> = self.engine.rules().iter().collect();
        rules.sort_by_key(|r| r.id());
        let rules = Json::Arr(
            rules
                .into_iter()
                .map(cadel_rule::codec::rule_to_json)
                .collect(),
        );
        let priorities = Json::Arr(
            self.engine
                .priorities()
                .orders()
                .iter()
                .map(persist::priority_to_json)
                .collect(),
        );
        Json::obj(vec![
            ("users", users),
            ("rules", rules),
            ("priorities", priorities),
            (
                "freshness",
                cadel_engine::freshness_policy_to_json(&self.engine.context().freshness_policy()),
            ),
            (
                "next_rule_id",
                Json::Int(self.engine.rules().next_id().raw() as i64),
            ),
            ("runtime", self.engine.export_runtime_json()),
        ])
    }

    /// Applies a recovered snapshot. Like record replay, failures are
    /// warned and skipped.
    fn apply_snapshot(&mut self, snapshot: &Json) {
        let warn = |stage: &'static str, error: String| {
            if cadel_obs::enabled() {
                cadel_obs::emit(
                    Event::new("server.snapshot_item_skipped", Level::Warn)
                        .with_field("stage", stage)
                        .with_field("error", error),
                );
            }
        };
        for entry in snapshot
            .get("users")
            .and_then(Json::as_arr)
            .into_iter()
            .flatten()
        {
            let Some(name) = entry.get("name").and_then(Json::as_str) else {
                warn("user", "missing name".to_owned());
                continue;
            };
            let user = match self.add_user(name) {
                Ok(user) => user,
                Err(e) => {
                    warn("user", e.to_string());
                    continue;
                }
            };
            for word in entry
                .get("words")
                .and_then(Json::as_arr)
                .into_iter()
                .flatten()
            {
                let Some(sentence) = word.as_str() else {
                    warn("word", "sentence must be a string".to_owned());
                    continue;
                };
                if let Err(e) = self.submit_inner(&user, sentence) {
                    warn("word", e.to_string());
                }
            }
        }
        for entry in snapshot
            .get("rules")
            .and_then(Json::as_arr)
            .into_iter()
            .flatten()
        {
            match cadel_rule::codec::rule_from_json(entry) {
                Ok(rule) => {
                    if let Err(e) = self.engine.add_rule(rule) {
                        warn("rule", e.to_string());
                    }
                }
                Err(e) => warn("rule", e.to_string()),
            }
        }
        for entry in snapshot
            .get("priorities")
            .and_then(Json::as_arr)
            .into_iter()
            .flatten()
        {
            match persist::priority_from_json(entry) {
                Ok(order) => {
                    self.engine.add_priority(order);
                }
                Err(e) => warn("priority", e.to_string()),
            }
        }
        if let Some(doc) = snapshot.get("freshness") {
            match cadel_engine::freshness_policy_from_json(doc) {
                Ok(policy) => self.engine.context_mut().set_freshness_policy(policy),
                Err(e) => warn("freshness", e.to_string()),
            }
        }
        if let Some(next) = snapshot.get("next_rule_id").and_then(Json::as_int) {
            self.engine.ensure_next_rule_id(RuleId::new(next as u64));
        }
        if let Some(runtime) = snapshot.get("runtime") {
            if let Err(e) = self.engine.import_runtime_json(runtime) {
                warn("runtime", e.to_string());
            }
        }
    }

    /// Compacts the durable state: writes a snapshot of everything —
    /// rules, priorities, users and their words, freshness policy, the
    /// rule-id allocator, and the engine's runtime state — then truncates
    /// the WAL. Recovery cost drops to one snapshot read. No-op on
    /// ephemeral servers.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Store`] on I/O failure.
    pub fn checkpoint(&mut self) -> Result<(), ServerError> {
        let snapshot = self.snapshot_json();
        match &mut self.store {
            Some(store) => Ok(store.compact(&snapshot)?),
            None => Ok(()),
        }
    }

    /// Logs a `runtime` record carrying the engine's full runtime
    /// checkpoint (held `until` releases, retry queue, dead letters,
    /// breaker states, context store). Cheaper than a full
    /// [`HomeServer::checkpoint`]; call it at scenario-relevant points so
    /// a recovered server resumes mid-flight rather than from the last
    /// compaction.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Store`] on I/O failure.
    pub fn checkpoint_runtime(&mut self) -> Result<(), ServerError> {
        let sw = Stopwatch::start();
        let record = persist::runtime(self.engine.export_runtime_json());
        let result = self.log_record(&record);
        CHECKPOINT_RUNTIME_NS.record(&sw);
        result
    }

    /// The access-control policy (paper §6 future work). Permissive until
    /// [`AccessControl::set_enforcing`] is turned on.
    pub fn access(&self) -> &AccessControl {
        &self.access
    }

    /// Mutable access-control policy.
    pub fn access_mut(&mut self) -> &mut AccessControl {
        &mut self.access
    }

    /// Replaces the lexicon (e.g. with a translated CADEL vocabulary).
    pub fn set_lexicon(&mut self, lexicon: Lexicon) {
        self.lexicon = lexicon;
    }

    /// Registers an occupant.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::DuplicateUser`] when the name is taken.
    pub fn add_user(&mut self, name: &str) -> Result<PersonId, ServerError> {
        let id = PersonId::new(name.to_ascii_lowercase());
        if self.users.contains(&id) {
            return Err(ServerError::DuplicateUser(id));
        }
        self.log_record(&persist::user_added(name))?;
        self.users.add_user(name)
    }

    /// The user registry.
    pub fn users(&self) -> &UserRegistry {
        &self.users
    }

    /// Mutable user-registry access.
    pub fn users_mut(&mut self) -> &mut UserRegistry {
        &mut self.users
    }

    /// The home topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The execution engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable engine access (priorities, direct rule management).
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// The guidance/lookup service.
    pub fn guidance(&self) -> GuidanceService<'_> {
        GuidanceService::new(self.engine.control(), &self.topology)
    }

    /// A point-in-time view of the engine's fault-tolerance state:
    /// per-device circuit breakers, queued retries and dead letters.
    pub fn resilience_status(&self) -> ResilienceStatus {
        self.engine.resilience().status()
    }

    /// Sets the sensor-staleness policy applied when rule conditions
    /// read sensor values (see [`cadel_engine::FreshnessPolicy`]).
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Store`] when logging the change fails (the
    /// policy is then left unchanged).
    pub fn set_freshness_policy(&mut self, policy: FreshnessPolicy) -> Result<(), ServerError> {
        self.log_record(&persist::freshness(&policy))?;
        self.engine.context_mut().set_freshness_policy(policy);
        Ok(())
    }

    /// Removes a registered rule, durably. The conflict graph drops its
    /// node at its next sync, from the rule database's change feed.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Engine`] for unknown rules and
    /// [`ServerError::Store`] when logging fails (the rule then stays).
    pub fn remove_rule(&mut self, id: RuleId) -> Result<(), ServerError> {
        self.live_rule(id)?;
        self.log_record(&persist::rule_removed(id))?;
        self.engine.remove_rule(id)?;
        Ok(())
    }

    /// The live rule with this id.
    fn live_rule(&self, id: RuleId) -> Result<&Rule, ServerError> {
        let unknown = || ServerError::Engine(cadel_rule::RuleError::UnknownRule(id).into());
        self.engine.rules().get(id).ok_or_else(unknown)
    }

    /// Inserts a rule, or replaces the live definition when the id is
    /// already registered — arbitration serves both fresh submissions
    /// and customizes of live rules.
    fn install_rule(&mut self, rule: Rule) -> Result<(), ServerError> {
        if self.engine.rules().get(rule.id()).is_some() {
            self.engine.update_rule(rule)?;
        } else {
            self.engine.add_rule(rule)?;
        }
        Ok(())
    }

    /// Counts and emits the rejection of a rule whose condition can never
    /// hold.
    fn reject_inconsistent(rule: &Rule, report: ConsistencyReport) -> SubmitOutcome {
        RULES_INCONSISTENT.inc();
        if cadel_obs::enabled() {
            cadel_obs::emit(
                Event::new("server.rule_rejected_inconsistent", Level::Warn)
                    .with_field("rule", rule.id().raw())
                    .with_field("owner", rule.owner().as_str()),
            );
        }
        SubmitOutcome::RejectedInconsistent { report }
    }

    /// Counts and emits the non-blocking advisories of a graph analysis.
    fn note_advisories(&self, rule: RuleId, advisories: &[Advisory]) {
        if advisories.is_empty() {
            return;
        }
        RULE_ADVISORIES.add(advisories.len() as u64);
        if cadel_obs::enabled() {
            for advisory in advisories {
                cadel_obs::emit(
                    Event::new("server.rule_advisory", Level::Warn)
                        .with_field("rule", rule.raw())
                        .with_field("class", advisory.class().as_str())
                        .with_field("detail", advisory.to_string()),
                );
            }
        }
    }

    /// Customizes a registered rule in place (same id, new definition),
    /// durably — through the same checks as a registration. A disable
    /// (or a change to an already-disabled rule) applies directly: it
    /// cannot introduce a conflict. An enabled replacement is checked for
    /// consistency and conflicts; conflicts a priority order already
    /// covers pass through, while any other conflict refuses the
    /// replacement ([`SubmitOutcome::ConflictDetected`]) and the old
    /// definition stays live. The caller may then
    /// [`arbitrate`](HomeServer::arbitrate) the refused definition.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Engine`] for unknown rules,
    /// [`ServerError::AccessDenied`] when the owner may not register the
    /// new definition, [`ServerError::Conflict`] on solver failures, and
    /// [`ServerError::Store`] when logging fails (no change applied).
    pub fn customize_rule(&mut self, rule: Rule) -> Result<SubmitOutcome, ServerError> {
        self.live_rule(rule.id())?;
        self.decide(rule, Commit::Customize)
    }

    /// Enables or disables a registered rule, durably (a customization
    /// that changes only the enabled flag). Re-enabling runs the full
    /// conflict workflow: a rule whose conflicts were masked while it
    /// was disabled is re-reported, not silently re-armed.
    ///
    /// # Errors
    ///
    /// See [`HomeServer::customize_rule`].
    pub fn set_rule_enabled(
        &mut self,
        id: RuleId,
        enabled: bool,
    ) -> Result<SubmitOutcome, ServerError> {
        let rule = self.live_rule(id)?.clone().with_enabled(enabled);
        self.customize_rule(rule)
    }

    /// Sweeps the whole rule base for non-blocking advisories — chains,
    /// loops, shadowing/redundancy and cross-device environmental
    /// conflicts — via the conflict graph. Each advisory is reported
    /// once, deterministically ordered.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Conflict`] on solver failures.
    pub fn conflict_advisories(&mut self) -> Result<Vec<Advisory>, ServerError> {
        Ok(self.graph.advisories(self.engine.rules())?)
    }

    /// Adds a priority order outside the conflict dialog (e.g. a
    /// household pre-arrangement), durably. An order with the same device
    /// and context is replaced.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::OrderRefused`] when the order would replace
    /// one that ranks a live rule it leaves out, and
    /// [`ServerError::Store`] when logging fails (no change applied).
    pub fn add_priority(&mut self, order: PriorityOrder) -> Result<usize, ServerError> {
        self.with_order(&order)?;
        self.log_record(&persist::priority_added(&order))?;
        Ok(self.engine.add_priority(order))
    }

    /// Advances the engine one step.
    pub fn step(&mut self, now: SimTime) -> StepReport {
        self.engine.step(now)
    }

    /// A point-in-time snapshot of the process-wide metrics registry —
    /// the query surface for dashboards, simulator timecharts and tests.
    /// Empty until observability is switched on (`cadel_obs::install` or
    /// `cadel_obs::enable_metrics_only`).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        cadel_obs::metrics_snapshot()
    }

    /// Submits one CADEL sentence from a user and runs the full
    /// registration workflow.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError`] on parse/compile failures, unknown users,
    /// or solver errors. A rule that merely *conflicts* is not an error —
    /// see [`SubmitOutcome::ConflictDetected`].
    pub fn submit(
        &mut self,
        user: &PersonId,
        sentence: &str,
    ) -> Result<SubmitOutcome, ServerError> {
        let sw = Stopwatch::start();
        SUBMITS.inc();
        let result = self.submit_inner(user, sentence);
        SUBMIT_NS.record(&sw);
        result
    }

    fn submit_inner(
        &mut self,
        user: &PersonId,
        sentence: &str,
    ) -> Result<SubmitOutcome, ServerError> {
        let (dictionary, command) = self.parse(user, sentence)?;
        match command {
            Command::CondDef(def) => {
                // Validate the definition resolves before storing it.
                {
                    let registry = self.engine.control().registry().clone();
                    let resolver = RegistryResolver::new(&registry, &self.topology, &self.users);
                    let compiler = Compiler::new(&resolver, &dictionary, user.clone());
                    compiler
                        .compile_cond_expr(&def.expr)
                        .map_err(cadel_lang::LangError::from)?;
                }
                self.log_record(&persist::word_defined(user, sentence))?;
                self.users
                    .user_mut(user)?
                    .dictionary_mut()
                    .define_condition(&def.word, def.expr);
                self.word_log.push((user.clone(), sentence.to_owned()));
                Ok(SubmitOutcome::ConditionWordDefined { word: def.word })
            }
            Command::ConfDef(def) => {
                self.log_record(&persist::word_defined(user, sentence))?;
                self.users
                    .user_mut(user)?
                    .dictionary_mut()
                    .define_configuration(&def.word, def.settings);
                self.word_log.push((user.clone(), sentence.to_owned()));
                Ok(SubmitOutcome::ConfigurationWordDefined { word: def.word })
            }
            Command::Rule(ast) => {
                let rule = self.build_rule(user, &dictionary, &ast, sentence)?;
                self.register_rule(rule)
            }
        }
    }

    /// Parses a sentence against the user's effective dictionary.
    fn parse(&self, user: &PersonId, sentence: &str) -> Result<(Dictionary, Command), ServerError> {
        let dictionary = self.users.effective_dictionary(user)?;
        let command = parse_command(sentence, &self.lexicon, &dictionary)
            .map_err(cadel_lang::LangError::from)?;
        Ok((dictionary, command))
    }

    /// Compiles a parsed rule sentence against the live registry under a
    /// freshly allocated id, labelled with its sentence.
    fn build_rule(
        &mut self,
        user: &PersonId,
        dictionary: &Dictionary,
        ast: &RuleSentence,
        sentence: &str,
    ) -> Result<Rule, ServerError> {
        let builder = {
            let registry = self.engine.control().registry().clone();
            let resolver = RegistryResolver::new(&registry, &self.topology, &self.users);
            let compiler = Compiler::new(&resolver, dictionary, user.clone());
            compiler
                .compile_rule(ast)
                .map_err(cadel_lang::LangError::from)?
        };
        let id = self.engine.allocate_rule_id();
        Ok(builder.label(sentence).build(id)?)
    }

    /// Parses and compiles a rule sentence without registering it, so the
    /// caller can [`arbitrate`](HomeServer::arbitrate) it with an order
    /// that ranks the new rule's id. A word-definition sentence yields
    /// `None` and defines nothing.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError`] on parse/compile failures and unknown
    /// users.
    pub fn compile_rule(
        &mut self,
        user: &PersonId,
        sentence: &str,
    ) -> Result<Option<Rule>, ServerError> {
        match self.parse(user, sentence)? {
            (dictionary, Command::Rule(ast)) => {
                self.build_rule(user, &dictionary, &ast, sentence).map(Some)
            }
            _ => Ok(None),
        }
    }

    /// Registers an already-compiled rule through the same consistency and
    /// conflict workflow (used by `submit`, imports, and IR-level
    /// scenarios).
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::AccessDenied`] when the owner may not
    /// register the rule and [`ServerError::Conflict`] on solver
    /// failures.
    pub fn register_rule(&mut self, rule: Rule) -> Result<SubmitOutcome, ServerError> {
        let outcome = self.decide(rule, Commit::Register)?;
        self.hand_back(outcome)
    }

    /// Returns an outcome to a caller that may arbitrate a refused rule
    /// later, even after a restart: a refused new rule's id is logged as
    /// reserved first, so the allocator never hands it out again.
    fn hand_back(&mut self, outcome: SubmitOutcome) -> Result<SubmitOutcome, ServerError> {
        if let SubmitOutcome::ConflictDetected { rule, .. } = &outcome {
            let id = rule.id();
            if self.engine.rules().get(id).is_none() {
                self.log_record(&persist::rule_id_reserved(id))?;
            }
        }
        Ok(outcome)
    }

    /// Installs a rule with a priority order over the rules it conflicts
    /// with — the Fig. 7 dialog's "OK", as one stateless call. The rule is
    /// new (refused by [`submit`](HomeServer::submit)) or a live rule's
    /// new definition (refused by
    /// [`customize_rule`](HomeServer::customize_rule)); the order, which
    /// may be scoped to a context, replaces the one with the same device
    /// and context. The check re-runs against the live base: rule and
    /// order commit as one `rule_arbitrated` record only when the store
    /// with the order installed [`covers`](PriorityStore::covers) every
    /// device conflict; otherwise the uncovered conflicts come back as
    /// [`SubmitOutcome::ConflictDetected`] and nothing is stored.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::AccessDenied`] when `user` may not arbitrate
    /// the device, [`ServerError::OrderRefused`] for an order on another
    /// device, one that leaves the rule out or repeats an id, or one that
    /// would drop a live rule the replaced order ranked, and the errors
    /// of [`register_rule`](HomeServer::register_rule).
    pub fn arbitrate(
        &mut self,
        user: &PersonId,
        rule: Rule,
        order: PriorityOrder,
    ) -> Result<SubmitOutcome, ServerError> {
        let (id, device) = (rule.id(), rule.action().device());
        self.access.check(user, device, Privilege::Arbitrate)?;
        let on = order.device();
        let refused = |reason: String| Err(ServerError::OrderRefused(reason));
        if on != device {
            return refused(format!("the order is on {on}, but {id} acts on {device}"));
        }
        if order.rank_of(id).is_none() {
            return refused(format!("the order on {on} does not rank {id}"));
        }
        let mut seen = BTreeSet::new();
        if let Some(twice) = order.ranking().iter().find(|r| !seen.insert(**r)) {
            return refused(format!("the order on {on} ranks {twice} twice"));
        }
        let outcome = self.decide(rule, Commit::Arbitrate(order))?;
        self.hand_back(outcome)
    }

    /// The priority store as it would be with `order` installed.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::OrderRefused`] when `order` would replace an
    /// order with the same key that ranks a live rule `order` leaves out:
    /// a covered pair must not become uncovered silently.
    fn with_order(&self, order: &PriorityOrder) -> Result<PriorityStore, ServerError> {
        let current = self.engine.priorities();
        let mut after = current.clone();
        let index = after.add_order(order.clone());
        if let Some(replaced) = current.orders().get(index) {
            let kept: BTreeSet<RuleId> = order.ranking().iter().copied().collect();
            let live = |id: &&RuleId| self.engine.rules().get(**id).is_some();
            let dropped = replaced
                .ranking()
                .iter()
                .filter(live)
                .find(|id| !kept.contains(id));
            if let Some(dropped) = dropped {
                return Err(ServerError::OrderRefused(format!(
                    "the order would replace '{replaced}' and drop the live {dropped}"
                )));
            }
        }
        Ok(after)
    }

    /// The one decision path of registration, customize, re-enable and
    /// arbitration: the owner's access check, then — unless the rule is a
    /// live rule being disabled — one analysis. A registration under a
    /// live id is refused before either. An inconsistent rule is rejected,
    /// and a rule with a device conflict that the priority store (with the
    /// arbitrated order installed) does not cover is refused; neither
    /// stores anything. Otherwise the rule commits. A refusal logs
    /// nothing; [`HomeServer::hand_back`] reserves the id of a refused
    /// rule that goes back to a caller.
    fn decide(&mut self, rule: Rule, commit: Commit) -> Result<SubmitOutcome, ServerError> {
        self.access.check_rule(&rule)?;
        let id = rule.id();
        let live = self.engine.rules().get(id).is_some();
        if live && matches!(commit, Commit::Register) {
            return Err(ServerError::Engine(
                cadel_rule::RuleError::DuplicateRule(id).into(),
            ));
        }
        let arbitrated = match &commit {
            Commit::Arbitrate(order) => Some(self.with_order(order)?),
            Commit::Register | Commit::Customize => None,
        };
        let mut dead_conjuncts = Vec::new();
        if rule.is_enabled() || !live {
            // One analysis answers both §4.4 questions: can the condition
            // hold, and which *other* rules (the graph skips the probe's
            // id) does it conflict with. Only device-class conflicts gate;
            // the advisory classes warn without blocking.
            let report = self.graph.analyze(self.engine.rules(), &rule)?;
            if !report.consistency.is_satisfiable() {
                return Ok(Self::reject_inconsistent(&rule, report.consistency));
            }
            self.note_advisories(id, &report.advisories);
            let priorities = arbitrated.as_ref().unwrap_or(self.engine.priorities());
            let device = rule.action().device();
            let mut conflicts = report.conflicts;
            conflicts.retain(|c| !priorities.covers(device, c.rule_a(), c.rule_b()));
            if !conflicts.is_empty() {
                RULES_CONFLICTED.inc();
                if cadel_obs::enabled() {
                    cadel_obs::emit(
                        Event::new("server.rule_conflict_detected", Level::Warn)
                            .with_field("rule", id.raw())
                            .with_field("owner", rule.owner().as_str())
                            .with_field("conflicts", conflicts.len() as u64)
                            .with_field("customize", live),
                    );
                }
                return Ok(SubmitOutcome::ConflictDetected {
                    rule: Box::new(rule),
                    conflicts,
                });
            }
            dead_conjuncts = report.consistency.dead_conjuncts().to_vec();
        }
        let owner = rule.owner().clone();
        let arbitrated = arbitrated.is_some();
        match commit {
            Commit::Register => {
                self.log_record(&persist::rule_registered(&rule))?;
                self.engine.add_rule(rule)?;
            }
            Commit::Customize => {
                self.log_record(&persist::rule_customized(&rule))?;
                self.engine.update_rule(rule)?;
            }
            Commit::Arbitrate(order) => {
                // One record for the whole arbitration: the rule and its
                // priority order commit (and replay) atomically.
                self.log_record(&persist::rule_arbitrated(&rule, &order))?;
                self.engine.add_priority(order);
                self.install_rule(rule)?;
            }
        }
        let (outcome, name) = if live {
            RULES_CUSTOMIZED.inc();
            (SubmitOutcome::Customized { id }, "server.rule_customized")
        } else {
            RULES_REGISTERED.inc();
            let outcome = SubmitOutcome::Registered { id, dead_conjuncts };
            (outcome, "server.rule_registered")
        };
        if cadel_obs::enabled() {
            cadel_obs::emit(
                Event::new(name, Level::Info)
                    .with_field("rule", id.raw())
                    .with_field("owner", owner.as_str())
                    .with_field("arbitrated", arbitrated),
            );
        }
        Ok(outcome)
    }

    /// Exports every registered rule as JSON (paper §4.3(iv)).
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Rule`] on serialization failure.
    pub fn export_rules(&self) -> Result<String, ServerError> {
        Ok(self.engine.rules().export_json()?)
    }

    /// Imports rules from JSON, re-assigning them to `new_owner` with
    /// fresh ids and running each through the consistency/conflict
    /// workflow. Conflicting, inconsistent or malformed rules (a
    /// dimension clash inside one condition) are skipped and reported,
    /// never silently dropped. The report does not hand a skipped rule
    /// back, so nothing is logged for it: its id is not reserved.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Rule`] when the JSON itself is malformed.
    pub fn import_rules(
        &mut self,
        new_owner: &PersonId,
        json: &str,
    ) -> Result<ImportReport, ServerError> {
        if !self.users.contains(new_owner) {
            return Err(ServerError::UnknownUser(new_owner.clone()));
        }
        let rules: Vec<Rule> =
            cadel_rule::codec::rules_from_json(json).map_err(ServerError::Rule)?;
        let mut report = ImportReport::default();
        for rule in rules {
            let label = rule
                .label()
                .map(str::to_owned)
                .unwrap_or_else(|| rule.id().to_string());
            let id = self.engine.allocate_rule_id();
            let rule = rule.reassigned(id, new_owner.clone());
            let outcome = match self.decide(rule, Commit::Register) {
                Ok(outcome) => outcome,
                Err(ServerError::Conflict(ConflictError::Rule(error))) => {
                    report.skipped.push((label, error.to_string()));
                    continue;
                }
                Err(other) => return Err(other),
            };
            match outcome {
                SubmitOutcome::Registered { id, .. } => report.imported.push(id),
                SubmitOutcome::RejectedInconsistent { .. } => {
                    report
                        .skipped
                        .push((label, "condition can never hold".to_owned()));
                }
                SubmitOutcome::ConflictDetected { conflicts, .. } => {
                    report.skipped.push((
                        label,
                        format!("conflicts with {} existing rule(s)", conflicts.len()),
                    ));
                }
                _ => {}
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadel_devices::LivingRoomHome;
    use cadel_rule::Condition;
    use cadel_types::{Rational, Value};
    use cadel_upnp::{Registry, VirtualDevice};

    fn standard_topology() -> Topology {
        let mut t = Topology::new("home");
        t.add_floor("first floor").unwrap();
        t.add_room("living room", "first floor").unwrap();
        t.add_room("hall", "first floor").unwrap();
        t
    }

    fn setup() -> (HomeServer, LivingRoomHome) {
        let registry = Registry::new();
        let home = LivingRoomHome::install(&registry);
        let mut server = HomeServer::new(ControlPoint::new(registry), standard_topology());
        for name in ["tom", "alan", "emily"] {
            server.add_user(name).unwrap();
        }
        (server, home)
    }

    #[test]
    fn failed_wal_append_flips_the_server_read_only() {
        let dir = std::env::temp_dir().join(format!("cadel-server-ro-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let registry = Registry::new();
        let _home = LivingRoomHome::install(&registry);
        let (mut server, _) =
            HomeServer::open_at(ControlPoint::new(registry), standard_topology(), &dir).unwrap();
        server.add_user("Tom").unwrap();
        assert!(!server.is_read_only());

        server.inject_append_faults(true);
        assert_eq!(server.add_user("Alan"), Err(ServerError::ReadOnly));
        assert!(server.is_read_only());
        // The rejected mutation was never applied in memory...
        assert!(server.users().user(&PersonId::new("alan")).is_err());
        // ...and later durable mutations are rejected up front, even
        // after the disk recovers.
        server.inject_append_faults(false);
        assert_eq!(server.add_user("Emily"), Err(ServerError::ReadOnly));

        // A restart against the (healthy) store clears the condition and
        // sees exactly the state that was durably logged.
        drop(server);
        let registry = Registry::new();
        let _home = LivingRoomHome::install(&registry);
        let (mut reopened, report) =
            HomeServer::open_at(ControlPoint::new(registry), standard_topology(), &dir).unwrap();
        assert_eq!(report.records_replayed, 1);
        assert_eq!(report.records_skipped, 0);
        assert!(!reopened.is_read_only());
        reopened.add_user("Alan").unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn submit_registers_a_clean_rule_end_to_end() {
        let (mut server, home) = setup();
        let tom = PersonId::new("tom");
        let outcome = server
            .submit(
                &tom,
                "If humidity is higher than 80 percent and temperature is higher than \
                 28 degrees, turn on the air conditioner with 25 degrees of temperature setting.",
            )
            .unwrap();
        let id = match outcome {
            SubmitOutcome::Registered { id, dead_conjuncts } => {
                assert!(dead_conjuncts.is_empty());
                id
            }
            other => panic!("expected registration, got {other:?}"),
        };
        assert_eq!(server.engine().rules().len(), 1);
        assert_eq!(server.engine().rules().get(id).unwrap().owner(), &tom);

        // And it executes: drive the sensors past the thresholds.
        home.thermometer
            .set_reading(Rational::from_integer(29), SimTime::from_millis(1))
            .unwrap();
        home.hygrometer
            .set_reading(Rational::from_integer(85), SimTime::from_millis(1))
            .unwrap();
        let report = server.step(SimTime::from_millis(2));
        assert_eq!(report.dispatched().len(), 1);
        assert_eq!(home.aircon.query("power").unwrap(), Value::Bool(true));
    }

    #[test]
    fn inconsistent_rule_is_rejected() {
        let (mut server, _home) = setup();
        let tom = PersonId::new("tom");
        let outcome = server
            .submit(
                &tom,
                "If temperature is higher than 30 degrees and temperature is lower than \
                 20 degrees, turn on the air conditioner.",
            )
            .unwrap();
        assert!(matches!(
            outcome,
            SubmitOutcome::RejectedInconsistent { .. }
        ));
        assert_eq!(server.engine().rules().len(), 0);
    }

    #[test]
    fn conflicting_rule_prompts_for_priority() {
        let (mut server, _home) = setup();
        let tom = PersonId::new("tom");
        let alan = PersonId::new("alan");
        // Tom registers first.
        let tom_outcome = server
            .submit(
                &tom,
                "If temperature is higher than 26 degrees, turn on the air conditioner \
                 with 25 degrees of temperature setting.",
            )
            .unwrap();
        let tom_id = match tom_outcome {
            SubmitOutcome::Registered { id, .. } => id,
            other => panic!("unexpected {other:?}"),
        };
        // Alan's overlapping rule with a different setpoint conflicts: it
        // comes back refused, and nothing is stored.
        let alan_outcome = server
            .submit(
                &alan,
                "If temperature is higher than 25 degrees, turn on the air conditioner \
                 with 24 degrees of temperature setting.",
            )
            .unwrap();
        let SubmitOutcome::ConflictDetected { rule, conflicts } = alan_outcome else {
            panic!("expected conflict, got {alan_outcome:?}");
        };
        assert_eq!(conflicts.len(), 1);
        assert_eq!(conflicts[0].rule_a(), rule.id());
        assert_eq!(conflicts[0].rule_b(), tom_id);
        assert_eq!(server.engine().rules().len(), 1);

        // The household decides: Alan outranks Tom when he got home from
        // work.
        let ctx = Condition::Atom(cadel_rule::Atom::Event(cadel_rule::EventAtom::new(
            "person:alan",
            "got home from work",
        )));
        let alan_id = rule.id();
        let order = PriorityOrder::new(rule.action().device().clone(), vec![alan_id, tom_id])
            .in_context(ctx)
            .with_label("Alan got home from work");
        let outcome = server.arbitrate(&alan, *rule, order).unwrap();
        assert!(
            matches!(outcome, SubmitOutcome::Registered { id, .. } if id == alan_id),
            "{outcome:?}"
        );
        assert_eq!(server.engine().rules().len(), 2);
        assert_eq!(server.engine().priorities().orders().len(), 1);
    }

    /// Three rules on one air conditioner, "if temperature > N, set it to
    /// S": A = (25 → 27), B = (20 → 22), C = (22 → 30). Every pair
    /// conflicts.
    fn trio() -> (Rule, Rule, Rule) {
        (
            aircon_rule(1, "tom", 25, 27, true),
            aircon_rule(2, "alan", 20, 22, true),
            aircon_rule(3, "emily", 22, 30, true),
        )
    }

    /// An unscoped order on the trio's air conditioner, highest first.
    fn aircon_order(ranking: &[&Rule]) -> PriorityOrder {
        let ranking = ranking.iter().map(|r| r.id()).collect();
        PriorityOrder::new(cadel_types::DeviceId::new("aircon-x"), ranking)
    }

    fn registered(outcome: SubmitOutcome) {
        assert!(
            matches!(outcome, SubmitOutcome::Registered { .. }),
            "expected a registration, got {outcome:?}"
        );
    }

    #[test]
    fn a_ranking_chosen_before_a_later_arbitration_is_rechecked() {
        let (mut server, _home) = setup();
        let (a, b, c) = trio();
        let alan = PersonId::new("alan");
        registered(server.register_rule(a.clone()).unwrap());
        // B conflicts with A and is refused; nothing is stored.
        let before = server.snapshot_json();
        let outcome = server.register_rule(b.clone()).unwrap();
        let SubmitOutcome::ConflictDetected { conflicts, .. } = outcome else {
            panic!("expected B to conflict, got {outcome:?}");
        };
        assert_eq!(conflicts[0].rule_b(), a.id());
        assert_eq!(server.snapshot_json(), before);
        // C conflicts only with A, and is arbitrated with [C, A].
        let order = aircon_order(&[&c, &a]);
        registered(server.arbitrate(&alan, c.clone(), order).unwrap());

        // B's user answers with the [B, A] chosen before C existed. It
        // would replace [C, A] and drop C, leaving B and C unranked.
        let before = server.snapshot_json();
        let order = aircon_order(&[&b, &a]);
        let err = server.arbitrate(&alan, b, order).unwrap_err();
        assert!(
            matches!(&err, ServerError::OrderRefused(reason) if reason.contains(&c.id().to_string())),
            "{err}"
        );
        assert_eq!(server.snapshot_json(), before);
        assert_eq!(server.engine().rules().len(), 2);
    }

    #[test]
    fn a_second_order_on_a_device_replaces_the_first_and_decides() {
        let (mut server, _home) = setup();
        let (a, b, c) = trio();
        let alan = PersonId::new("alan");
        registered(server.register_rule(a.clone()).unwrap());
        let order = aircon_order(&[&c, &a]);
        registered(server.arbitrate(&alan, c.clone(), order).unwrap());
        // The user ranks B above both: the order replaces [C, A].
        let order = aircon_order(&[&b, &c, &a]);
        registered(server.arbitrate(&alan, b.clone(), order.clone()).unwrap());
        let priorities = server.engine().priorities();
        assert_eq!(priorities.orders(), &[order]);
        let aircon = cadel_types::DeviceId::new("aircon-x");
        let winner = |rules: &[&Rule]| {
            let ids: Vec<RuleId> = rules.iter().map(|r| r.id()).collect();
            priorities.resolve(&aircon, &ids, |_| false).winner()
        };
        assert_eq!(winner(&[&a, &b]), Some(b.id()));
        assert_eq!(winner(&[&b, &c]), Some(b.id()));
        assert_eq!(winner(&[&a, &c]), Some(c.id()));
    }

    #[test]
    fn a_ranking_that_leaves_out_a_partner_is_refused() {
        let (mut server, _home) = setup();
        let (a, b, _) = trio();
        registered(server.register_rule(a.clone()).unwrap());
        let before = server.snapshot_json();
        let order = aircon_order(&[&b]);
        let outcome = server.arbitrate(&PersonId::new("alan"), b, order).unwrap();
        let SubmitOutcome::ConflictDetected { conflicts, .. } = outcome else {
            panic!("expected the partial ranking to be refused, got {outcome:?}");
        };
        assert_eq!(conflicts.len(), 1);
        assert_eq!(conflicts[0].rule_b(), a.id());
        assert_eq!(server.snapshot_json(), before);
        assert_eq!(server.engine().rules().len(), 1);
    }

    #[test]
    fn arbitrate_refuses_malformed_orders() {
        let (mut server, _home) = setup();
        let (a, b, _) = trio();
        let alan = PersonId::new("alan");
        registered(server.register_rule(a.clone()).unwrap());
        let before = server.snapshot_json();
        let elsewhere =
            PriorityOrder::new(cadel_types::DeviceId::new("tv-lr"), vec![b.id(), a.id()]);
        for order in [elsewhere, aircon_order(&[&a]), aircon_order(&[&b, &a, &b])] {
            let err = server.arbitrate(&alan, b.clone(), order).unwrap_err();
            assert!(matches!(err, ServerError::OrderRefused(_)), "{err}");
            assert_eq!(server.snapshot_json(), before);
        }
    }

    #[test]
    fn add_priority_keeps_every_live_rule_the_replaced_order_ranked() {
        let (mut server, _home) = setup();
        let (a, b, _) = trio();
        registered(server.register_rule(a.clone()).unwrap());
        let order = aircon_order(&[&b, &a]);
        registered(
            server
                .arbitrate(&PersonId::new("alan"), b.clone(), order)
                .unwrap(),
        );
        // Replacing [B, A] with [A] would uncover the live pair silently.
        let err = server.add_priority(aircon_order(&[&a])).unwrap_err();
        assert!(
            matches!(&err, ServerError::OrderRefused(reason) if reason.contains(&b.id().to_string())),
            "{err}"
        );
        // A reordering that keeps both replaces the order in place.
        assert_eq!(server.add_priority(aircon_order(&[&a, &b])).unwrap(), 0);
        assert_eq!(server.engine().priorities().orders().len(), 1);
        // Once B is removed, an order may leave it out.
        server.remove_rule(b.id()).unwrap();
        assert_eq!(server.add_priority(aircon_order(&[&a])).unwrap(), 0);
    }

    #[test]
    fn word_definition_then_use() {
        let (mut server, _home) = setup();
        let tom = PersonId::new("tom");
        let outcome = server
            .submit(
                &tom,
                "Let's call the condition that humidity is higher than 60 percent and \
                 temperature is higher than 28 degrees hot and stuffy",
            )
            .unwrap();
        assert!(matches!(
            outcome,
            SubmitOutcome::ConditionWordDefined { ref word } if word == "hot and stuffy"
        ));
        // Tom can use his word now.
        let outcome = server
            .submit(
                &tom,
                "If hot and stuffy, turn on the air conditioner with 25 degrees of temperature setting.",
            )
            .unwrap();
        assert!(matches!(outcome, SubmitOutcome::Registered { .. }));
        // Alan cannot — the word is private to Tom.
        let alan = PersonId::new("alan");
        let err = server
            .submit(
                &alan,
                "If hot and stuffy, turn on the air conditioner with 24 degrees of temperature setting.",
            )
            .unwrap_err();
        assert!(err.to_string().contains("predicate") || err.to_string().contains("parse"));
    }

    #[test]
    fn configuration_word_definition_then_use() {
        let (mut server, home) = setup();
        let tom = PersonId::new("tom");
        server
            .submit(
                &tom,
                "Let's call the configuration that 30 percent of brightness setting half lighting",
            )
            .unwrap();
        let outcome = server
            .submit(
                &tom,
                "When I'm in the living room, turn on the floor lamp with half lighting.",
            )
            .unwrap();
        assert!(matches!(outcome, SubmitOutcome::Registered { .. }));
        // Fire it.
        home.living_presence
            .person_entered(&tom, SimTime::from_millis(1));
        server.step(SimTime::from_millis(2));
        assert_eq!(home.floor_lamp.query("power").unwrap(), Value::Bool(true));
        assert_eq!(
            home.floor_lamp.query("brightness").unwrap(),
            Value::Number(cadel_types::Quantity::from_integer(
                30,
                cadel_types::Unit::Percent
            ))
        );
    }

    #[test]
    fn unknown_user_is_rejected() {
        let (mut server, _home) = setup();
        let ghost = PersonId::new("ghost");
        assert!(matches!(
            server.submit(&ghost, "Turn on the TV."),
            Err(ServerError::UnknownUser(_))
        ));
    }

    #[test]
    fn export_import_round_trip_with_reassignment() {
        let (mut server, _home) = setup();
        let tom = PersonId::new("tom");
        let emily = PersonId::new("emily");
        server
            .submit(&tom, "When a movie is on air, turn on the TV.")
            .unwrap();
        let json = server.export_rules().unwrap();

        // A fresh home imports Tom's rules for Emily.
        let registry = Registry::new();
        LivingRoomHome::install(&registry);
        let mut server2 = HomeServer::new(ControlPoint::new(registry), standard_topology());
        server2.add_user("emily").unwrap();
        let report = server2.import_rules(&emily, &json).unwrap();
        assert_eq!(report.imported.len(), 1);
        assert!(report.skipped.is_empty());
        let rule = server2.engine().rules().get(report.imported[0]).unwrap();
        assert_eq!(rule.owner(), &emily);
        assert!(rule.label().unwrap().contains("movie"));
    }

    #[test]
    fn import_skips_conflicting_rules() {
        let (mut server, _home) = setup();
        let tom = PersonId::new("tom");
        let alan = PersonId::new("alan");
        server
            .submit(&tom, "If temperature is higher than 26 degrees, turn on the air conditioner with 25 degrees of temperature setting.")
            .unwrap();
        // A second household exports a rule with a *different* setpoint;
        // importing it here conflicts with Tom's rule.
        let registry_b = Registry::new();
        LivingRoomHome::install(&registry_b);
        let mut server_b = HomeServer::new(ControlPoint::new(registry_b), standard_topology());
        server_b.add_user("bea").unwrap();
        server_b
            .submit(&PersonId::new("bea"), "If temperature is higher than 25 degrees, turn on the air conditioner with 24 degrees of temperature setting.")
            .unwrap();
        let json = server_b.export_rules().unwrap();
        let report = server.import_rules(&alan, &json).unwrap();
        assert!(report.imported.is_empty());
        assert_eq!(report.skipped.len(), 1);
        assert!(report.skipped[0].1.contains("conflict"));
    }

    #[test]
    fn import_skips_a_dimension_clash_and_keeps_going() {
        use cadel_rule::{ActionSpec, Atom, ConstraintAtom, EventAtom, Verb};
        use cadel_simplex::RelOp;
        use cadel_types::{DeviceId, Quantity, SensorKey, Unit};

        let (mut server, _home) = setup();
        let temperature = |op, n, unit| {
            let key = SensorKey::new(DeviceId::new("thermo-lr"), "temperature");
            let atom = ConstraintAtom::new(key, op, Quantity::from_integer(n, unit));
            Condition::Atom(Atom::Constraint(atom))
        };
        let build = |id: u64, condition: Condition, device: &str| {
            let action = ActionSpec::new(DeviceId::new(device), Verb::TurnOn);
            let rule = Rule::builder(PersonId::new("bea")).condition(condition);
            rule.action(action).build(RuleId::new(id)).unwrap()
        };
        let movie = Condition::Atom(Atom::Event(EventAtom::new("tv-guide", "movie")));
        let clash = temperature(RelOp::Gt, 26, Unit::Celsius).and(temperature(
            RelOp::Lt,
            60,
            Unit::Percent,
        ));
        // The clash rule sits between two importable ones.
        let rules = [
            build(1, movie.clone(), "tv-lr"),
            build(2, clash, "aircon-lr"),
            build(3, movie, "stereo-lr"),
        ];
        let json = cadel_rule::codec::rules_to_json(rules.iter());

        let report = server.import_rules(&PersonId::new("alan"), &json).unwrap();
        assert_eq!(report.imported.len(), 2, "{report:?}");
        assert_eq!(server.engine().rules().len(), 2);
        assert_eq!(report.skipped.len(), 1);
        assert!(
            report.skipped[0].1.contains("dimension mismatch"),
            "{:?}",
            report.skipped
        );
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cadel-server-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fresh_world() -> (ControlPoint, Topology, LivingRoomHome) {
        let registry = Registry::new();
        let home = LivingRoomHome::install(&registry);
        (ControlPoint::new(registry), standard_topology(), home)
    }

    #[test]
    fn durable_server_recovers_everything_across_restarts() {
        let dir = temp_dir("recover");
        let tom = PersonId::new("tom");
        let alan = PersonId::new("alan");

        // Incarnation 1: users, a private word, two rules (one via the
        // conflict dialog with a context-scoped priority), a freshness
        // policy, and some runtime state.
        {
            let (control, topology, home) = fresh_world();
            let (mut server, report) = HomeServer::open_at(control, topology, &dir).unwrap();
            assert_eq!(report, cadel_store::RecoveryReport::default());
            server.add_user("Tom").unwrap();
            server.add_user("Alan").unwrap();
            server
                .submit(
                    &tom,
                    "Let's call the condition that temperature is higher than 26 degrees \
                     too hot",
                )
                .unwrap();
            server
                .submit(
                    &tom,
                    "If too hot, turn on the air conditioner with 25 degrees of \
                     temperature setting.",
                )
                .unwrap();
            let outcome = server
                .submit(
                    &alan,
                    "If temperature is higher than 25 degrees, turn on the air \
                     conditioner with 24 degrees of temperature setting.",
                )
                .unwrap();
            let SubmitOutcome::ConflictDetected { rule, conflicts } = outcome else {
                panic!("expected conflict");
            };
            let loser = conflicts[0].rule_b();
            let order = PriorityOrder::new(rule.action().device().clone(), vec![rule.id(), loser])
                .with_label("Alan first");
            server.arbitrate(&alan, *rule, order).unwrap();
            server
                .set_freshness_policy(FreshnessPolicy::new(
                    cadel_engine::FreshnessMode::FailClosed,
                    cadel_types::SimDuration::from_minutes(10),
                ))
                .unwrap();
            // Drive the engine so runtime state exists, then checkpoint it.
            home.thermometer
                .set_reading(Rational::from_integer(28), SimTime::from_millis(1))
                .unwrap();
            server.step(SimTime::from_millis(2));
            server.checkpoint_runtime().unwrap();
            server.sync().unwrap();
        }

        // Incarnation 2: everything is back.
        let runtime_before;
        {
            let (control, topology, _home) = fresh_world();
            let (mut server, report) = HomeServer::open_at(control, topology, &dir).unwrap();
            assert!(report.records_replayed >= 6);
            assert!(!report.snapshot_used);
            assert_eq!(report.bytes_truncated, 0);
            assert_eq!(server.engine().rules().len(), 2);
            assert_eq!(server.engine().priorities().orders().len(), 1);
            assert_eq!(
                server.engine().priorities().orders()[0].label(),
                Some("Alan first")
            );
            assert_eq!(
                server.engine().context().freshness_policy().mode,
                cadel_engine::FreshnessMode::FailClosed
            );
            // Tom's private word survived (it re-parses).
            assert!(matches!(
                server.submit(&tom, "If too hot, turn on the TV.").unwrap(),
                SubmitOutcome::Registered { .. }
            ));
            runtime_before = server.engine().export_runtime_json();

            // Compact, then restart once more: recovery now comes from
            // the snapshot alone.
            server.checkpoint().unwrap();
        }
        {
            let (control, topology, _home) = fresh_world();
            let (server, report) = HomeServer::open_at(control, topology, &dir).unwrap();
            assert!(report.snapshot_used);
            assert_eq!(report.records_replayed, 0);
            assert_eq!(server.engine().rules().len(), 3);
            assert_eq!(server.engine().export_runtime_json(), runtime_before);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Rewrites a version 2 runtime document the way version 1 wrote it:
    /// one `{"rule", "state"}` object per rule, ascending, in place of
    /// the two edge lists.
    fn runtime_v1(v2: &Json) -> Json {
        let Json::Obj(members) = v2 else {
            panic!("a runtime document is an object")
        };
        let ids = |key: &str| -> Vec<i64> {
            let list = v2.get(key).and_then(Json::as_arr).expect("a v2 edge list");
            list.iter().map(|id| id.as_int().expect("an id")).collect()
        };
        let mut states: Vec<(i64, bool)> =
            ids("last_true").into_iter().map(|id| (id, true)).collect();
        states.extend(ids("last_false").into_iter().map(|id| (id, false)));
        states.sort();
        let last_state = Json::Arr(
            states
                .into_iter()
                .map(|(id, state)| {
                    Json::obj(vec![("rule", Json::Int(id)), ("state", Json::Bool(state))])
                })
                .collect(),
        );
        let mut v1 = Vec::new();
        for (key, value) in members {
            match key.as_str() {
                "version" => v1.push((key.clone(), Json::Int(1))),
                "last_true" => v1.push(("last_state".to_owned(), last_state.clone())),
                "last_false" => {}
                _ => v1.push((key.clone(), value.clone())),
            }
        }
        Json::Obj(v1)
    }

    /// A log and a snapshot written before version 2 carry version 1
    /// runtime documents; both recover to the state that was live.
    #[test]
    fn version_1_runtime_documents_recover_from_the_log_and_the_snapshot() {
        let dir = temp_dir("runtime-v1");
        let tom = PersonId::new("tom");
        let (live, v1) = {
            let (control, topology, home) = fresh_world();
            let (mut server, _) = HomeServer::open_at(control, topology, &dir).unwrap();
            server.add_user("Tom").unwrap();
            for sentence in [
                "If temperature is higher than 26 degrees, turn on the air conditioner.",
                "If temperature is lower than 10 degrees, turn on the TV.",
            ] {
                assert!(matches!(
                    server.submit(&tom, sentence).unwrap(),
                    SubmitOutcome::Registered { .. }
                ));
            }
            home.thermometer
                .set_reading(Rational::from_integer(28), SimTime::from_millis(1))
                .unwrap();
            server.step(SimTime::from_millis(2));
            let live = server.engine().export_runtime_json();
            assert_eq!(live.get("last_true").unwrap().as_arr().unwrap().len(), 1);
            assert_eq!(live.get("last_false").unwrap().as_arr().unwrap().len(), 1);
            let v1 = runtime_v1(&live);
            server.log_record(&persist::runtime(v1.clone())).unwrap();
            server.sync().unwrap();
            (live, v1)
        };

        // The log: its last record is the version 1 document.
        let snapshot = {
            let (control, topology, _home) = fresh_world();
            let (server, report) = HomeServer::open_at(control, topology, &dir).unwrap();
            assert_eq!(report.bytes_truncated, 0);
            assert!(!report.snapshot_used);
            assert_eq!(server.engine().export_runtime_json(), live);
            let mut snapshot = server.snapshot_json();
            let Json::Obj(members) = &mut snapshot else {
                panic!("a snapshot is an object")
            };
            members
                .iter_mut()
                .find(|(key, _)| key == "runtime")
                .unwrap()
                .1 = v1;
            snapshot
        };

        // The snapshot: compacted with the version 1 document in it.
        {
            let (mut store, _) = Store::open(&dir).unwrap();
            store.compact(&snapshot).unwrap();
        }
        let (control, topology, _home) = fresh_world();
        let (server, report) = HomeServer::open_at(control, topology, &dir).unwrap();
        assert!(report.snapshot_used);
        assert_eq!(report.records_replayed, 0);
        assert_eq!(server.engine().export_runtime_json(), live);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_mutations_recover_removal_customization_and_priorities() {
        let dir = temp_dir("mutations");
        let tom = PersonId::new("tom");
        let id_keep;
        {
            let (control, topology, _home) = fresh_world();
            let (mut server, _) = HomeServer::open_at(control, topology, &dir).unwrap();
            server.add_user("tom").unwrap();
            let SubmitOutcome::Registered { id: id_drop, .. } = server
                .submit(&tom, "When a movie is on air, turn on the TV.")
                .unwrap()
            else {
                panic!("expected registration");
            };
            let SubmitOutcome::Registered { id, .. } = server
                .submit(&tom, "When I'm in the living room, turn on the floor lamp.")
                .unwrap()
            else {
                panic!("expected registration");
            };
            id_keep = id;
            server.remove_rule(id_drop).unwrap();
            server.set_rule_enabled(id_keep, false).unwrap();
            server
                .add_priority(PriorityOrder::new(
                    cadel_types::DeviceId::new("lamp-lr"),
                    vec![id_keep],
                ))
                .unwrap();
            server.sync().unwrap();
        }
        {
            let (control, topology, _home) = fresh_world();
            let (server, _) = HomeServer::open_at(control, topology, &dir).unwrap();
            assert_eq!(server.engine().rules().len(), 1);
            let rule = server.engine().rules().get(id_keep).unwrap();
            assert!(!rule.is_enabled());
            assert_eq!(server.engine().priorities().orders().len(), 1);
            // The allocator does not reuse the removed rule's id.
            assert!(server.engine().rules().next_id() > id_keep);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_registration_under_a_live_id_is_refused_before_it_is_logged() {
        let dir = temp_dir("duplicate");
        let tom = PersonId::new("tom");
        let original;
        {
            let (control, topology, _home) = fresh_world();
            let (mut server, _) = HomeServer::open_at(control, topology, &dir).unwrap();
            server.add_user("tom").unwrap();
            let SubmitOutcome::Registered { id, .. } = server
                .submit(&tom, "When a movie is on air, turn on the TV.")
                .unwrap()
            else {
                panic!("expected registration");
            };
            original = server.engine().rules().get(id).unwrap().clone();
            let Some(other) = server
                .compile_rule(&tom, "When a movie is on air, turn on the stereo.")
                .unwrap()
            else {
                panic!("a rule sentence");
            };
            let impostor = other.reassigned(id, tom.clone());
            let err = server.register_rule(impostor).unwrap_err();
            assert_eq!(
                err,
                ServerError::Engine(cadel_rule::RuleError::DuplicateRule(id).into())
            );
            assert_eq!(server.engine().rules().get(id), Some(&original));
            server.sync().unwrap();
        }
        let (control, topology, _home) = fresh_world();
        let (server, report) = HomeServer::open_at(control, topology, &dir).unwrap();
        assert_eq!(report.records_skipped, 0);
        assert_eq!(server.engine().rules().get(original.id()), Some(&original));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_refused_rule_keeps_its_id_across_a_restart() {
        let dir = temp_dir("reserved");
        let (tom, alan) = (PersonId::new("tom"), PersonId::new("alan"));
        let held;
        {
            let (control, topology, _home) = fresh_world();
            let (mut server, _) = HomeServer::open_at(control, topology, &dir).unwrap();
            server.add_user("tom").unwrap();
            server.add_user("alan").unwrap();
            server
                .submit(
                    &tom,
                    "If temperature is higher than 26 degrees, turn on the air conditioner \
                     with 25 degrees of temperature setting.",
                )
                .unwrap();
            let outcome = server
                .submit(
                    &alan,
                    "If temperature is higher than 25 degrees, turn on the air conditioner \
                     with 24 degrees of temperature setting.",
                )
                .unwrap();
            let SubmitOutcome::ConflictDetected { rule, .. } = outcome else {
                panic!("expected conflict");
            };
            held = *rule;
            server.sync().unwrap();
        }
        let (control, topology, _home) = fresh_world();
        let (mut server, report) = HomeServer::open_at(control, topology, &dir).unwrap();
        assert_eq!(report.records_skipped, 0);
        assert!(server.engine().rules().next_id() > held.id());
        // A rule registered after the restart gets an id of its own, so
        // arbitrating the held rule cannot replace it.
        let SubmitOutcome::Registered { id, .. } = server
            .submit(&tom, "When a movie is on air, turn on the TV.")
            .unwrap()
        else {
            panic!("expected registration");
        };
        assert_ne!(id, held.id());
        let partner = server
            .engine()
            .rules()
            .rules_for_device(held.action().device())[0]
            .id();
        let order = PriorityOrder::new(held.action().device().clone(), vec![held.id(), partner]);
        let outcome = server.arbitrate(&alan, held.clone(), order).unwrap();
        assert!(
            matches!(outcome, SubmitOutcome::Registered { .. }),
            "{outcome:?}"
        );
        assert_eq!(server.engine().rules().len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_refused_import_logs_nothing() {
        let dir = temp_dir("import-refused");
        let (tom, alan) = (PersonId::new("tom"), PersonId::new("alan"));
        let (control, topology, _home) = fresh_world();
        let (mut server, _) = HomeServer::open_at(control, topology, &dir).unwrap();
        server.add_user("tom").unwrap();
        server.add_user("alan").unwrap();
        server
            .submit(
                &tom,
                "If temperature is higher than 26 degrees, turn on the air conditioner \
                 with 25 degrees of temperature setting.",
            )
            .unwrap();
        let Some(rival) = server
            .compile_rule(
                &alan,
                "If temperature is higher than 25 degrees, turn on the air conditioner \
                 with 24 degrees of temperature setting.",
            )
            .unwrap()
        else {
            panic!("a rule sentence");
        };
        let json = cadel_rule::codec::rules_to_json([&rival]);
        let wal_len = server.store().unwrap().wal_len();
        let report = server.import_rules(&alan, &json).unwrap();
        assert!(report.imported.is_empty(), "{report:?}");
        assert_eq!(report.skipped.len(), 1, "{report:?}");
        assert!(report.skipped[0].1.contains("conflicts"), "{report:?}");
        assert_eq!(server.store().unwrap().wal_len(), wal_len);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_reserved_id_record_only_ever_advances_the_allocator() {
        let (mut server, _home) = setup();
        assert!(server.apply_record(&persist::rule_id_reserved(RuleId::new(41))));
        assert_eq!(server.engine().rules().next_id(), RuleId::new(42));
        assert!(server.apply_record(&persist::rule_id_reserved(RuleId::new(7))));
        assert_eq!(server.engine().rules().next_id(), RuleId::new(42));
        // Hostile ids are skipped with a typed error, never a panic.
        for id in [Json::Int(-1), Json::Int(i64::MIN), Json::str("41")] {
            let record = Json::obj(vec![("type", Json::str("rule_id_reserved")), ("id", id)]);
            assert!(!server.apply_record(&record));
        }
        assert_eq!(server.engine().rules().next_id(), RuleId::new(42));
    }

    #[test]
    fn ephemeral_server_still_works_without_a_store() {
        let (mut server, _home) = setup();
        assert!(server.store().is_none());
        // Durable-only entry points degrade to no-ops / plain mutations.
        server.checkpoint().unwrap();
        server.checkpoint_runtime().unwrap();
        server
            .set_freshness_policy(FreshnessPolicy::default())
            .unwrap();
    }

    /// Hand-built aircon rule for the customize/re-enable workflow
    /// tests: `if temperature > threshold, set the aircon to setpoint`.
    fn aircon_rule(id: u64, owner: &str, threshold: i64, setpoint: i64, enabled: bool) -> Rule {
        use cadel_types::{Quantity, Unit};
        let key = cadel_types::SensorKey::new(cadel_types::DeviceId::new("thermo"), "temperature");
        Rule::builder(PersonId::new(owner))
            .condition(Condition::Atom(cadel_rule::Atom::Constraint(
                cadel_rule::ConstraintAtom::new(
                    key,
                    cadel_simplex::RelOp::Gt,
                    Quantity::from_integer(threshold, Unit::Celsius),
                ),
            )))
            .action(
                cadel_rule::ActionSpec::new(
                    cadel_types::DeviceId::new("aircon-x"),
                    cadel_rule::Verb::TurnOn,
                )
                .with_setting(
                    "temperature",
                    Quantity::from_integer(setpoint, Unit::Celsius),
                ),
            )
            .enabled(enabled)
            .build(RuleId::new(id))
            .unwrap()
    }

    #[test]
    fn reenabling_a_conflicting_rule_reruns_detection() {
        let (mut server, _home) = setup();
        // Tom's rule registers, then is disabled; Alan's overlapping rule
        // with a different setpoint then registers cleanly — a disabled
        // rule cannot fire, so there is no conflict yet.
        let tom_rule = aircon_rule(901, "tom", 26, 25, true);
        assert!(matches!(
            server.register_rule(tom_rule).unwrap(),
            SubmitOutcome::Registered { .. }
        ));
        let tom_id = RuleId::new(901);
        assert!(matches!(
            server.set_rule_enabled(tom_id, false).unwrap(),
            SubmitOutcome::Customized { .. }
        ));
        let alan_id = RuleId::new(902);
        assert!(matches!(
            server
                .register_rule(aircon_rule(902, "alan", 25, 24, true))
                .unwrap(),
            SubmitOutcome::Registered { .. }
        ));

        // Re-enabling Tom's rule must re-report the conflict, not
        // silently re-arm the pair (the old bypass).
        let outcome = server.set_rule_enabled(tom_id, true).unwrap();
        let SubmitOutcome::ConflictDetected { rule, conflicts } = outcome else {
            panic!("expected the re-enable to re-report the conflict, got {outcome:?}");
        };
        assert_eq!(rule.id(), tom_id);
        assert!(rule.is_enabled());
        assert_eq!(conflicts.len(), 1);
        assert_eq!(conflicts[0].rule_b(), alan_id);
        // The old (disabled) definition stays live.
        assert!(!server.engine().rules().get(tom_id).unwrap().is_enabled());

        // Arbitrating the refused definition applies the re-enable in
        // place (upsert, not a duplicate registration).
        let order = PriorityOrder::new(rule.action().device().clone(), vec![alan_id, tom_id]);
        let outcome = server
            .arbitrate(&PersonId::new("tom"), *rule, order)
            .unwrap();
        assert!(matches!(outcome, SubmitOutcome::Customized { id } if id == tom_id));
        assert_eq!(server.engine().rules().len(), 2);
        assert!(server.engine().rules().get(tom_id).unwrap().is_enabled());
        assert_eq!(server.engine().priorities().orders().len(), 1);
    }

    #[test]
    fn arbitrated_pair_is_not_reparked_on_reenable() {
        let (mut server, _home) = setup();
        server
            .register_rule(aircon_rule(911, "tom", 26, 25, true))
            .unwrap();
        let tom_id = RuleId::new(911);
        let outcome = server
            .register_rule(aircon_rule(912, "alan", 25, 24, true))
            .unwrap();
        let SubmitOutcome::ConflictDetected { rule, .. } = outcome else {
            panic!("expected conflict");
        };
        let order = PriorityOrder::new(rule.action().device().clone(), vec![rule.id(), tom_id]);
        registered(
            server
                .arbitrate(&PersonId::new("alan"), *rule, order)
                .unwrap(),
        );

        // The pair is arbitrated: toggling either rule must pass straight
        // through, the settled priority order covers the conflict.
        assert!(matches!(
            server.set_rule_enabled(tom_id, false).unwrap(),
            SubmitOutcome::Customized { .. }
        ));
        assert!(matches!(
            server.set_rule_enabled(tom_id, true).unwrap(),
            SubmitOutcome::Customized { .. }
        ));
        assert!(server.engine().rules().get(tom_id).unwrap().is_enabled());
    }

    #[test]
    fn customize_into_conflict_is_refused_until_arbitrated() {
        let (mut server, _home) = setup();
        server
            .register_rule(aircon_rule(921, "tom", 26, 25, true))
            .unwrap();
        let tom_id = RuleId::new(921);
        // Alan's rule starts out harmless: same device, same setpoint as
        // Tom's (identical actions never conflict, §4.4).
        server
            .register_rule(aircon_rule(922, "alan", 25, 25, true))
            .unwrap();
        let alan_id = RuleId::new(922);

        // Customizing it to a different setpoint creates a conflict: the
        // replacement is refused, the old definition stays live.
        let outcome = server
            .customize_rule(aircon_rule(922, "alan", 25, 22, true))
            .unwrap();
        let SubmitOutcome::ConflictDetected { rule, conflicts } = outcome else {
            panic!("expected the customize to conflict, got {outcome:?}");
        };
        assert_eq!(rule.id(), alan_id);
        assert_eq!(conflicts[0].rule_b(), tom_id);
        let live = server.engine().rules().get(alan_id).unwrap();
        assert_eq!(
            live.action(),
            aircon_rule(922, "alan", 25, 25, true).action(),
            "old definition must stay live after the refusal"
        );

        // Arbitration commits the customize in place.
        let order = PriorityOrder::new(rule.action().device().clone(), vec![alan_id, tom_id]);
        let outcome = server
            .arbitrate(&PersonId::new("alan"), *rule, order)
            .unwrap();
        assert!(matches!(outcome, SubmitOutcome::Customized { id } if id == alan_id));
        assert_eq!(server.engine().rules().len(), 2);
        assert_eq!(server.engine().priorities().orders().len(), 1);
    }

    #[test]
    fn advisory_sweep_is_visible_through_the_server() {
        let (mut server, _home) = setup();
        // Shadowing pair: Tom's narrow rule (t > 30) is implied by Alan's
        // broad one (t > 25) with a conflicting setpoint.
        server
            .register_rule(aircon_rule(931, "tom", 30, 25, true))
            .unwrap();
        let outcome = server
            .register_rule(aircon_rule(932, "alan", 25, 22, true))
            .unwrap();
        let SubmitOutcome::ConflictDetected { rule, .. } = outcome else {
            panic!("expected conflict");
        };
        let ranking = vec![RuleId::new(931), rule.id()];
        let order = PriorityOrder::new(rule.action().device().clone(), ranking);
        registered(
            server
                .arbitrate(&PersonId::new("alan"), *rule, order)
                .unwrap(),
        );
        let advisories = server.conflict_advisories().unwrap();
        assert!(
            advisories
                .iter()
                .any(|a| a.class() == cadel_conflict::ConflictClass::Shadowing),
            "expected a shadowing advisory, got {advisories:?}"
        );
    }

    #[test]
    fn import_identical_rule_is_not_a_conflict() {
        let (mut server, _home) = setup();
        let tom = PersonId::new("tom");
        let alan = PersonId::new("alan");
        server
            .submit(&tom, "If temperature is higher than 26 degrees, turn on the air conditioner with 25 degrees of temperature setting.")
            .unwrap();
        let json = server.export_rules().unwrap();
        // Same action, same settings: co-firing is harmless (§4.4 requires
        // *different* actions for a conflict).
        let report = server.import_rules(&alan, &json).unwrap();
        assert_eq!(report.imported.len(), 1);
    }
}
