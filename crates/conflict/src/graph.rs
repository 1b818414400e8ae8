//! The conflict graph: footprint-pruned, multi-class conflict detection
//! over the whole rule set.
//!
//! The paper's registration check compares the new rule against every
//! same-device rule with a Simplex feasibility solve per pair — fine for
//! a home with dozens of rules, quadratic pain for a dense one. The
//! [`ConflictGraph`] keeps a lightweight node per registered rule holding
//! its *footprints* (actuated device, sensors read, environment channels
//! read and written, event channels listened and raised), reusing the
//! sensor/place/channel columns [`ProgramArena`](cadel_ir::ProgramArena)
//! already extracts at compile time. Candidate pairs are clustered by
//! those footprints, and most pairs are decided **without any Simplex
//! solve**:
//!
//! * only [`Atom::Constraint`] atoms contribute linear constraints, so
//!   when two rules' sensor footprints are disjoint their merged system
//!   is block-diagonal — joint feasibility is exactly "each side's
//!   conjunct is feasible on its own", which the graph answers from
//!   per-conjunct witnesses cached at node build time;
//! * pairs that do share sensors go to the memoized
//!   [`ConflictChecker`], which stays the per-edge decision procedure.
//!
//! On top of the paper's device-level class, the graph detects three
//! advisory classes from the smart-home conflict taxonomies (Huang et
//! al.; SHACR):
//!
//! * **chains and loops** — rule A's action feeds rule B's condition
//!   (B reads a sensor on A's actuated device, A moves an environment
//!   channel B reads, or A raises an event channel B listens on); a
//!   path of such edges is a chain, a cycle is a feedback loop;
//! * **shadowing and redundancy** — conjunct-implication over the
//!   compiled constraint systems: when `cond(A) ⇒ cond(B)` and the
//!   actions conflict, A is shadowed; when the actions are identical,
//!   A is redundant;
//! * **environmental** — two rules on *different* devices whose actions
//!   push the same environment channel in opposite directions (heater
//!   up vs. air-conditioner down on `temperature`, per the declarative
//!   [`EnvTable`]) under co-satisfiable conditions.
//!
//! Device-class [`Conflict`]s keep their blocking, arbitration-gated
//! semantics; the new classes surface as non-blocking [`Advisory`]
//! values — the taxonomy literature treats them as interaction *smells*
//! that want a human decision, not an automatic rejection.

use crate::check::Conflict;
use crate::checker::{ConflictChecker, ProbeContext};
use crate::discrete::discrete_compatible;
use crate::env::{EnvDirection, EnvTable};
use crate::error::ConflictError;
use cadel_ir::{merge_conjuncts, CompiledConjunct};
use cadel_obs::{LazyCounter, LazyGauge, LazyHistogram, Stopwatch};
use cadel_rule::{compile_conjuncts, Atom, Conjunct, Rule, RuleDb, RuleError};
use cadel_simplex::{solve, Constraint, RelOp, Solution, VarId};
use cadel_types::{DeviceId, Rational, RuleId, SensorKey};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

/// Whole-graph analyses (one per [`ConflictGraph::analyze`]).
static ANALYSES: LazyCounter = LazyCounter::new("conflict_graph_analyses_total");
/// Candidate same-device pairs considered across all analyses.
static PAIRS: LazyCounter = LazyCounter::new("conflict_graph_pairs_total");
/// Candidate pairs decided without a merged Simplex solve (action
/// filter or disjoint-footprint witness path).
static PAIRS_PRUNED: LazyCounter = LazyCounter::new("conflict_graph_pairs_pruned_total");
/// Candidate pairs handed to the pairwise checker (solver path).
static PAIRS_SOLVED: LazyCounter = LazyCounter::new("conflict_graph_simplex_pairs_total");
/// Advisories produced by analyses and sweeps.
static ADVISORIES: LazyCounter = LazyCounter::new("conflict_graph_advisories_total");
/// Node (re)builds — one per new or changed rule observed by `sync`.
static REBUILDS: LazyCounter = LazyCounter::new("conflict_graph_rebuilds_total");
/// Rules currently held in the graph.
static NODES: LazyGauge = LazyGauge::new("conflict_graph_nodes");
/// Wall-clock latency of one whole analysis.
static ANALYZE_NS: LazyHistogram = LazyHistogram::new("conflict_graph_analyze_duration_ns");

/// How far chain/loop detection follows trigger edges from one rule.
const CHAIN_DEPTH_CAP: usize = 8;

/// The conflict classes the graph distinguishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ConflictClass {
    /// The paper's class: same device, conflicting actions,
    /// co-satisfiable conditions (blocking, arbitration-gated).
    Device,
    /// One rule's action triggers another rule (advisory).
    Chain,
    /// A cycle of trigger edges — a feedback loop (advisory).
    Loop,
    /// A rule whose condition implies a conflicting rule's condition
    /// (advisory).
    Shadowing,
    /// A rule whose condition implies an identical-action rule's
    /// condition (advisory).
    Redundancy,
    /// Two rules on different devices pushing one environment channel in
    /// opposite directions (advisory).
    Environmental,
}

impl ConflictClass {
    /// A stable lowercase name for wire formats and logs.
    pub fn as_str(self) -> &'static str {
        match self {
            ConflictClass::Device => "device",
            ConflictClass::Chain => "chain",
            ConflictClass::Loop => "loop",
            ConflictClass::Shadowing => "shadowing",
            ConflictClass::Redundancy => "redundancy",
            ConflictClass::Environmental => "environmental",
        }
    }
}

impl fmt::Display for ConflictClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A non-blocking multi-class finding: the rules involved and why they
/// interact. Advisories inform the user (and the API) but never gate
/// registration the way device-class [`Conflict`]s do.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Advisory {
    /// `path[0]` triggers `path[1]` which triggers `path[2]`, … — each
    /// hop is a device/environment/event dependency edge.
    Chain {
        /// The rules along the chain, in trigger order.
        path: Vec<RuleId>,
    },
    /// The trigger edges close back on `cycle[0]` — a feedback loop.
    Loop {
        /// The rules around the cycle; the edge from the last entry
        /// returns to the first.
        cycle: Vec<RuleId>,
    },
    /// `rule`'s condition implies `by`'s, and their actions conflict:
    /// whenever `rule` wants to act, `by` contests it.
    Shadowing {
        /// The shadowed rule.
        rule: RuleId,
        /// The rule shadowing it.
        by: RuleId,
    },
    /// `rule`'s condition implies `duplicate_of`'s and both request the
    /// same action: `rule` never does anything new.
    Redundancy {
        /// The redundant rule.
        rule: RuleId,
        /// The rule already covering it.
        duplicate_of: RuleId,
    },
    /// `rule_a` and `rule_b` actuate different devices but push
    /// `channel` in opposite directions under co-satisfiable conditions.
    Environmental {
        /// One side of the tug-of-war.
        rule_a: RuleId,
        /// The other side.
        rule_b: RuleId,
        /// The contested environment channel ("temperature", …).
        channel: String,
    },
}

impl Advisory {
    /// The class of this advisory.
    pub fn class(&self) -> ConflictClass {
        match self {
            Advisory::Chain { .. } => ConflictClass::Chain,
            Advisory::Loop { .. } => ConflictClass::Loop,
            Advisory::Shadowing { .. } => ConflictClass::Shadowing,
            Advisory::Redundancy { .. } => ConflictClass::Redundancy,
            Advisory::Environmental { .. } => ConflictClass::Environmental,
        }
    }

    /// Every rule involved, in report order.
    pub fn rules(&self) -> Vec<RuleId> {
        match self {
            Advisory::Chain { path } => path.clone(),
            Advisory::Loop { cycle } => cycle.clone(),
            Advisory::Shadowing { rule, by } => vec![*rule, *by],
            Advisory::Redundancy { rule, duplicate_of } => vec![*rule, *duplicate_of],
            Advisory::Environmental { rule_a, rule_b, .. } => vec![*rule_a, *rule_b],
        }
    }
}

impl fmt::Display for Advisory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn arrows(ids: &[RuleId]) -> String {
            ids.iter()
                .map(|id| id.to_string())
                .collect::<Vec<_>>()
                .join(" -> ")
        }
        match self {
            Advisory::Chain { path } => write!(f, "rule chain: {}", arrows(path)),
            Advisory::Loop { cycle } => {
                write!(f, "rule loop: {} -> {}", arrows(cycle), cycle[0])
            }
            Advisory::Shadowing { rule, by } => {
                write!(f, "{rule} is shadowed by {by}: whenever it would fire, {by} fires too with a conflicting action")
            }
            Advisory::Redundancy { rule, duplicate_of } => {
                write!(f, "{rule} is redundant: {duplicate_of} already covers its condition with the same action")
            }
            Advisory::Environmental {
                rule_a,
                rule_b,
                channel,
            } => {
                write!(f, "{rule_a} and {rule_b} push {channel} in opposite directions on different devices")
            }
        }
    }
}

/// The outcome of one graph analysis: blocking device-class conflicts
/// plus non-blocking multi-class advisories.
#[derive(Clone, Debug, Default)]
pub struct GraphReport {
    /// Device-class conflicts (same semantics as
    /// [`find_conflicts`](crate::find_conflicts) — these gate
    /// registration behind arbitration).
    pub conflicts: Vec<Conflict>,
    /// Non-blocking advisories across the other classes.
    pub advisories: Vec<Advisory>,
}

/// The per-conjunct compiled systems and feasibility witnesses of one
/// rule, cached at node build time. A witness of `None` marks a dead
/// (individually infeasible) conjunct.
#[derive(Clone, Debug)]
struct NumericInfo {
    systems: Vec<CompiledConjunct>,
    witnesses: Vec<Option<Vec<(SensorKey, Rational)>>>,
}

/// One rule's footprints — everything candidate clustering needs,
/// derived once per stored revision.
#[derive(Clone, Debug)]
struct NodeInfo {
    revision: u64,
    enabled: bool,
    /// The actuated device.
    device: DeviceId,
    /// Sensors the condition (and until clause) reads. From the arena's
    /// sensor column when the rule compiled — a conservative superset of
    /// the numeric footprint (it includes state-equality sensors), which
    /// only ever sends extra pairs to the solver, never skips one.
    sensors: BTreeSet<SensorKey>,
    /// Devices those sensors live on (trigger-edge targets).
    reads_devices: BTreeSet<DeviceId>,
    /// Lowercased variable names read — matched against environment
    /// channels other rules' actions move.
    env_reads: BTreeSet<String>,
    /// Event channels the rule listens on.
    event_channels: BTreeSet<String>,
    /// Environment channels the action moves, from the [`EnvTable`].
    effects: Vec<(String, EnvDirection)>,
    /// Event channels the action raises, from the [`EnvTable`].
    raises: Vec<String>,
    /// `None` when a conjunct system errored in the solver (or, for an
    /// unstored probe, did not compile) — every pair touching such a node
    /// takes the checker path, which reproduces brute force's error
    /// behavior exactly.
    numeric: Option<NumericInfo>,
}

/// Builds the footprint node for `rule`. `stored` selects the arena
/// fast path (footprint columns + precompiled systems already exist);
/// otherwise footprints come from the AST and the conjunct systems are
/// compiled once.
fn build_node(env: &EnvTable, db: &RuleDb, rule: &Rule, stored: bool) -> NodeInfo {
    let mut sensors = BTreeSet::new();
    let mut event_channels = BTreeSet::new();
    let program_ref = if stored {
        db.program_ref(rule.id())
    } else {
        None
    };
    match program_ref {
        Some(r) => {
            let interner = db.interner().read().unwrap();
            let arena = db.arena();
            for slot in arena.sensor_slots(r) {
                if let Some(key) = interner.sensor_key(*slot) {
                    sensors.insert(key.clone());
                }
            }
            for slot in arena.channel_slots(r) {
                if let Some(channel) = interner.channel_key(*slot) {
                    event_channels.insert(channel.to_owned());
                }
            }
        }
        None => {
            let mut atoms = rule.condition().atoms();
            if let Some(until) = rule.until() {
                atoms.extend(until.atoms());
            }
            for atom in atoms {
                let inner = atom.instantaneous();
                if let Some(key) = inner.sensor_key() {
                    sensors.insert(key);
                }
                if let Atom::Event(e) = inner {
                    event_channels.insert(e.channel().to_owned());
                }
            }
        }
    }
    let reads_devices = sensors.iter().map(|k| k.device().clone()).collect();
    let env_reads = sensors
        .iter()
        .map(|k| k.variable().to_ascii_lowercase())
        .collect();
    let systems: Option<Vec<CompiledConjunct>> = if stored {
        db.program(rule.id()).map(|p| p.conjuncts().to_vec())
    } else {
        compile_conjuncts(rule).ok()
    };
    let numeric = systems.and_then(|systems| {
        let mut witnesses = Vec::with_capacity(systems.len());
        for sys in &systems {
            match solve(sys.constraints()) {
                Ok(Solution::Feasible(assignment)) => witnesses.push(Some(
                    sys.vars()
                        .iter()
                        .cloned()
                        .zip(assignment.iter().copied())
                        .collect(),
                )),
                Ok(_) => witnesses.push(None),
                // A solver error at node build makes the node
                // unsplittable: its pairs go through the checker, which
                // reproduces brute force's error behavior.
                Err(_) => return None,
            }
        }
        Some(NumericInfo { systems, witnesses })
    });
    NodeInfo {
        revision: db.revision(rule.id()).unwrap_or(0),
        enabled: rule.is_enabled(),
        device: rule.action().device().clone(),
        sensors,
        reads_devices,
        env_reads,
        event_channels,
        effects: env.effects_of(rule.action()).to_vec(),
        raises: env.raised_channels(rule.action()).to_vec(),
        numeric,
    }
}

/// Decides a disjoint-footprint pair without a merged solve: the joint
/// system is block-diagonal, so a conjunct pair is co-satisfiable iff
/// both sides are individually feasible and their discrete atoms agree.
/// The returned witness is the two per-conjunct witnesses concatenated
/// in merge order (`a`'s variables first).
fn cheap_pair(
    a: &Rule,
    wa: &[Option<Vec<(SensorKey, Rational)>>],
    b: &Rule,
    wb: &[Option<Vec<(SensorKey, Rational)>>],
) -> Option<Conflict> {
    for (i, ca) in a.dnf().conjuncts().iter().enumerate() {
        let Some(wa_i) = wa.get(i).and_then(|w| w.as_ref()) else {
            continue;
        };
        for (j, cb) in b.dnf().conjuncts().iter().enumerate() {
            let Some(wb_j) = wb.get(j).and_then(|w| w.as_ref()) else {
                continue;
            };
            if !discrete_compatible(ca.atoms().iter().chain(cb.atoms().iter())) {
                continue;
            }
            let witness = wa_i.iter().cloned().chain(wb_j.iter().cloned()).collect();
            return Some(Conflict::new(a.id(), b.id(), i, j, witness));
        }
    }
    None
}

/// The negation of a single linear constraint, as constraints. `Eq`
/// splits into two (`<` and `>`): the negation holds iff either side
/// does, so implication requires both to be infeasible.
fn negations(c: &Constraint) -> Vec<Constraint> {
    let neg = |op| Constraint::new(c.expr().clone(), op, c.rhs());
    match c.op() {
        RelOp::Le => vec![neg(RelOp::Gt)],
        RelOp::Lt => vec![neg(RelOp::Ge)],
        RelOp::Ge => vec![neg(RelOp::Lt)],
        RelOp::Gt => vec![neg(RelOp::Le)],
        RelOp::Eq => vec![neg(RelOp::Lt), neg(RelOp::Gt)],
    }
}

/// Whether conjunct `ca` implies conjunct `cb`.
///
/// Discrete atoms use syntactic containment (every non-numeric atom of
/// `cb` appears verbatim in `ca`); numeric constraints use the solver:
/// `sys(ca) ∧ ¬c` must be infeasible for every constraint `c` of `cb`.
/// The prefilter — every sensor `cb` constrains must appear in `ca`
/// with the same dimension — answers the common distinct-sensor case
/// with zero solves.
fn conjunct_implies(
    ca: &Conjunct,
    ca_sys: &CompiledConjunct,
    cb: &Conjunct,
    cb_sys: &CompiledConjunct,
) -> Result<bool, ConflictError> {
    for atom in cb.atoms() {
        let numeric = matches!(atom.instantaneous(), Atom::Constraint(_));
        if !numeric && !ca.atoms().contains(atom) {
            return Ok(false);
        }
    }
    let mut remap = Vec::with_capacity(cb_sys.vars().len());
    for (k, key) in cb_sys.vars().iter().enumerate() {
        match ca_sys.vars().iter().position(|x| x == key) {
            Some(p) if ca_sys.dims()[p] == cb_sys.dims()[k] => remap.push(p as u32),
            // ca leaves this sensor unconstrained (or disagrees on its
            // dimension): it cannot force cb's bound on it.
            _ => return Ok(false),
        }
    }
    for c in cb_sys.constraints() {
        let mapped = c.map_vars(|v| VarId::new(remap[v.index()]));
        for neg in negations(&mapped) {
            let mut sys = ca_sys.constraints().to_vec();
            sys.push(neg);
            if solve(&sys)?.is_feasible() {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

/// Whether every live (individually feasible) conjunct of `a` implies
/// some conjunct of `b` — i.e. `cond(a) ⇒ cond(b)`. A rule with no
/// live conjuncts never fires, so it reports nothing rather than a
/// vacuous implication.
fn condition_implies(
    a: &Rule,
    an: &NumericInfo,
    b: &Rule,
    bn: &NumericInfo,
) -> Result<bool, ConflictError> {
    let mut any_live = false;
    for (i, ca) in a.dnf().conjuncts().iter().enumerate() {
        if an.witnesses.get(i).is_none_or(|w| w.is_none()) {
            continue; // dead conjunct: vacuously covered
        }
        any_live = true;
        let mut covered = false;
        for (j, cb) in b.dnf().conjuncts().iter().enumerate() {
            if conjunct_implies(ca, &an.systems[i], cb, &bn.systems[j])? {
                covered = true;
                break;
            }
        }
        if !covered {
            return Ok(false);
        }
    }
    Ok(any_live)
}

/// The incremental, footprint-pruned conflict graph.
///
/// Hold one graph alongside the [`RuleDb`] it mirrors; every entry
/// point calls [`ConflictGraph::sync`] first, which diffs the database
/// by `(id, revision)` and rebuilds only changed nodes — so the graph
/// stays correct across registration, customization, removal, and
/// whole-database replacement (replay, import) without explicit
/// invalidation hooks.
#[derive(Clone, Debug)]
pub struct ConflictGraph {
    checker: ConflictChecker,
    env: EnvTable,
    nodes: HashMap<RuleId, NodeInfo>,
    /// device → rules actuating it.
    actuators: BTreeMap<DeviceId, BTreeSet<RuleId>>,
    /// device → rules reading one of its sensors.
    device_readers: BTreeMap<DeviceId, BTreeSet<RuleId>>,
    /// environment channel → rules reading a sensor variable of that name.
    env_readers: BTreeMap<String, BTreeSet<RuleId>>,
    /// event channel → rules listening on it.
    event_readers: BTreeMap<String, BTreeSet<RuleId>>,
    /// environment channel → rules whose action moves it.
    env_writers: BTreeMap<String, BTreeSet<RuleId>>,
}

impl Default for ConflictGraph {
    /// A graph over the built-in [`EnvTable::default_home`] table.
    fn default() -> ConflictGraph {
        ConflictGraph::new(EnvTable::default_home())
    }
}

impl ConflictGraph {
    /// Creates an empty graph using `env` for environmental effects.
    pub fn new(env: EnvTable) -> ConflictGraph {
        ConflictGraph {
            checker: ConflictChecker::new(),
            env,
            nodes: HashMap::new(),
            actuators: BTreeMap::new(),
            device_readers: BTreeMap::new(),
            env_readers: BTreeMap::new(),
            event_readers: BTreeMap::new(),
            env_writers: BTreeMap::new(),
        }
    }

    /// The environment-effect table in use.
    pub fn env(&self) -> &EnvTable {
        &self.env
    }

    /// The pairwise checker underneath (memo statistics, capacity).
    pub fn checker(&self) -> &ConflictChecker {
        &self.checker
    }

    /// Rules currently represented in the graph.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Reconciles the graph with `db`: drops nodes for removed rules,
    /// (re)builds nodes whose stored revision changed. Idempotent and
    /// cheap when nothing changed (one id scan).
    pub fn sync(&mut self, db: &RuleDb) {
        let gone: Vec<RuleId> = self
            .nodes
            .keys()
            .filter(|id| db.get(**id).is_none())
            .copied()
            .collect();
        for id in gone {
            self.remove(id);
        }
        let stale: Vec<RuleId> = db
            .iter()
            .filter(|rule| {
                self.nodes
                    .get(&rule.id())
                    .is_none_or(|n| Some(n.revision) != db.revision(rule.id()))
            })
            .map(Rule::id)
            .collect();
        for id in stale {
            if let Some(old) = self.nodes.remove(&id) {
                self.unindex(id, &old);
                self.checker.evict_rule(id);
            }
            let rule = db.get(id).expect("stale id came from db.iter()");
            let node = build_node(&self.env, db, rule, true);
            self.index(id, &node);
            self.nodes.insert(id, node);
            REBUILDS.inc();
        }
        NODES.set(self.nodes.len() as i64);
    }

    /// Drops a rule's node, its index entries, and its memoized pairwise
    /// verdicts. Safe to call for ids the graph never saw.
    pub fn remove(&mut self, id: RuleId) {
        if let Some(node) = self.nodes.remove(&id) {
            self.unindex(id, &node);
        }
        self.checker.evict_rule(id);
        NODES.set(self.nodes.len() as i64);
    }

    fn index(&mut self, id: RuleId, node: &NodeInfo) {
        self.actuators
            .entry(node.device.clone())
            .or_default()
            .insert(id);
        for device in &node.reads_devices {
            self.device_readers
                .entry(device.clone())
                .or_default()
                .insert(id);
        }
        for channel in &node.env_reads {
            self.env_readers
                .entry(channel.clone())
                .or_default()
                .insert(id);
        }
        for channel in &node.event_channels {
            self.event_readers
                .entry(channel.clone())
                .or_default()
                .insert(id);
        }
        for (channel, _) in &node.effects {
            self.env_writers
                .entry(channel.clone())
                .or_default()
                .insert(id);
        }
    }

    fn unindex(&mut self, id: RuleId, node: &NodeInfo) {
        fn drop_from<K: Ord>(map: &mut BTreeMap<K, BTreeSet<RuleId>>, key: &K, id: RuleId) {
            if let Some(set) = map.get_mut(key) {
                set.remove(&id);
                if set.is_empty() {
                    map.remove(key);
                }
            }
        }
        drop_from(&mut self.actuators, &node.device, id);
        for device in &node.reads_devices {
            drop_from(&mut self.device_readers, device, id);
        }
        for channel in &node.env_reads {
            drop_from(&mut self.env_readers, channel, id);
        }
        for channel in &node.event_channels {
            drop_from(&mut self.event_readers, channel, id);
        }
        for (channel, _) in &node.effects {
            drop_from(&mut self.env_writers, channel, id);
        }
    }

    /// The probe's footprint view: the cached node when the probe is
    /// stored in `db` unchanged, a transient build otherwise (a fresh
    /// submission or a customization candidate).
    fn probe_node(&self, db: &RuleDb, probe: &Rule) -> NodeInfo {
        if db.get(probe.id()) == Some(probe) {
            if let Some(node) = self.nodes.get(&probe.id()) {
                return node.clone();
            }
        }
        build_node(&self.env, db, probe, false)
    }

    /// Full multi-class analysis of `probe` against the rule set:
    /// blocking device-class conflicts (verdicts identical to
    /// [`find_conflicts`](crate::find_conflicts)) plus chain/loop,
    /// shadowing/redundancy, and environmental advisories.
    ///
    /// # Errors
    ///
    /// Returns [`ConflictError`] on solver overflow or dimension
    /// mismatch — the same inputs on which the brute-force scan errors.
    pub fn analyze(&mut self, db: &RuleDb, probe: &Rule) -> Result<GraphReport, ConflictError> {
        let sw = Stopwatch::start();
        ANALYSES.inc();
        self.sync(db);
        let pnode = self.probe_node(db, probe);
        let conflicts = self.device_conflicts(db, probe, &pnode)?;
        let mut advisories = Vec::new();
        self.probe_chains(probe, &pnode, &mut advisories);
        self.probe_shadowing(db, probe, &pnode, &mut advisories)?;
        self.probe_environmental(db, probe, &pnode, &mut advisories)?;
        ADVISORIES.add(advisories.len() as u64);
        ANALYZE_NS.record(&sw);
        Ok(GraphReport {
            conflicts,
            advisories,
        })
    }

    /// Device-class scan over the actuator cluster, footprint-pruned.
    fn device_conflicts(
        &mut self,
        db: &RuleDb,
        probe: &Rule,
        pnode: &NodeInfo,
    ) -> Result<Vec<Conflict>, ConflictError> {
        let candidates: Vec<RuleId> = self
            .actuators
            .get(probe.action().device())
            .map(|set| set.iter().copied().collect())
            .unwrap_or_default();
        let mut ctx: Option<ProbeContext<'_>> = None;
        let mut out = Vec::new();
        for id in candidates {
            if id == probe.id() {
                continue;
            }
            let Some(existing) = db.get(id) else { continue };
            if !existing.is_enabled() {
                continue;
            }
            PAIRS.inc();
            if !probe.action().conflicts_with(existing.action()) {
                PAIRS_PRUNED.inc();
                continue;
            }
            // Decide block-diagonal pairs from cached witnesses; the
            // node borrow must end before the checker (a sibling field)
            // is borrowed mutably below.
            let cheap = match (self.nodes.get(&id), &pnode.numeric) {
                (Some(node), Some(pn)) if pnode.sensors.is_disjoint(&node.sensors) => node
                    .numeric
                    .as_ref()
                    .map(|nn| cheap_pair(probe, &pn.witnesses, existing, &nn.witnesses)),
                _ => None,
            };
            match cheap {
                Some(verdict) => {
                    PAIRS_PRUNED.inc();
                    out.extend(verdict);
                }
                None => {
                    PAIRS_SOLVED.inc();
                    if ctx.is_none() {
                        ctx = Some(self.checker.probe_context(db, probe)?);
                    }
                    let ctx = ctx.as_ref().expect("just filled");
                    if let Some(conflict) = self.checker.check_pair(db, ctx, existing)? {
                        out.push(conflict);
                    }
                }
            }
        }
        Ok(out)
    }

    /// The rules a node's action can trigger: readers of its device's
    /// sensors, readers of the environment channels it moves, and
    /// listeners on the event channels it raises. Enabled rules only,
    /// ascending id, never the node itself.
    fn successors_of(&self, node: &NodeInfo, self_id: RuleId) -> BTreeSet<RuleId> {
        let mut out = BTreeSet::new();
        if let Some(readers) = self.device_readers.get(&node.device) {
            out.extend(readers.iter().copied());
        }
        for (channel, _) in &node.effects {
            if let Some(readers) = self.env_readers.get(channel) {
                out.extend(readers.iter().copied());
            }
        }
        for channel in &node.raises {
            if let Some(listeners) = self.event_readers.get(channel) {
                out.extend(listeners.iter().copied());
            }
        }
        out.remove(&self_id);
        out.retain(|id| self.nodes.get(id).is_some_and(|n| n.enabled));
        out
    }

    /// Whether `from`'s action can trigger the probe.
    fn edge_to(&self, from: &NodeInfo, to: &NodeInfo) -> bool {
        to.reads_devices.contains(&from.device)
            || from
                .effects
                .iter()
                .any(|(channel, _)| to.env_reads.contains(channel))
            || from
                .raises
                .iter()
                .any(|channel| to.event_channels.contains(channel))
    }

    /// Chain/loop detection from the probe: DFS over trigger edges
    /// (depth-capped); a path returning to the probe is a loop, a path
    /// of two or more edges is a chain. Self-loops (a thermostat's own
    /// negative feedback) are not reported.
    fn probe_chains(&self, probe: &Rule, pnode: &NodeInfo, out: &mut Vec<Advisory>) {
        let first = self.successors_of(pnode, probe.id());
        // Depth-first over stored successors, ascending ids for
        // determinism; the first cycle found wins.
        let mut stack: Vec<(RuleId, Vec<RuleId>)> = first
            .iter()
            .rev()
            .map(|&id| (id, vec![probe.id(), id]))
            .collect();
        let mut visited: BTreeSet<RuleId> = BTreeSet::new();
        let mut chain: Option<Vec<RuleId>> = None;
        while let Some((id, path)) = stack.pop() {
            let Some(node) = self.nodes.get(&id) else {
                continue;
            };
            if self.edge_to(node, pnode) {
                out.push(Advisory::Loop { cycle: path });
                return;
            }
            if path.len() >= 3 && chain.is_none() {
                chain = Some(path.clone());
            }
            if !visited.insert(id) || path.len() > CHAIN_DEPTH_CAP {
                continue;
            }
            for &next in self.successors_of(node, id).iter().rev() {
                if !path.contains(&next) {
                    let mut longer = path.clone();
                    longer.push(next);
                    stack.push((next, longer));
                }
            }
        }
        if let Some(path) = chain {
            out.push(Advisory::Chain { path });
        }
    }

    /// Shadowing/redundancy between the probe and its actuator cluster,
    /// both directions, first verdict per pair.
    fn probe_shadowing(
        &self,
        db: &RuleDb,
        probe: &Rule,
        pnode: &NodeInfo,
        out: &mut Vec<Advisory>,
    ) -> Result<(), ConflictError> {
        let Some(pn) = &pnode.numeric else {
            return Ok(());
        };
        let Some(cluster) = self.actuators.get(probe.action().device()) else {
            return Ok(());
        };
        for &id in cluster {
            if id == probe.id() {
                continue;
            }
            let Some(existing) = db.get(id) else { continue };
            let Some(node) = self.nodes.get(&id) else {
                continue;
            };
            if !node.enabled {
                continue;
            }
            let Some(en) = &node.numeric else { continue };
            if let Some(advisory) = shadow_verdict(probe, pn, existing, en)? {
                out.push(advisory);
            }
        }
        Ok(())
    }

    /// Environmental tug-of-war between the probe and writers of the
    /// same channels on other devices.
    fn probe_environmental(
        &self,
        db: &RuleDb,
        probe: &Rule,
        pnode: &NodeInfo,
        out: &mut Vec<Advisory>,
    ) -> Result<(), ConflictError> {
        for (channel, direction) in &pnode.effects {
            let Some(writers) = self.env_writers.get(channel) else {
                continue;
            };
            for &id in writers {
                if id == probe.id() {
                    continue;
                }
                let Some(node) = self.nodes.get(&id) else {
                    continue;
                };
                if !node.enabled || node.device == *probe.action().device() {
                    continue;
                }
                let opposite = node
                    .effects
                    .iter()
                    .find(|(c, _)| c == channel)
                    .is_some_and(|(_, d)| direction.opposes(*d));
                if !opposite {
                    continue;
                }
                if self.cosatisfiable(db, probe, pnode, id)? {
                    out.push(Advisory::Environmental {
                        rule_a: probe.id(),
                        rule_b: id,
                        channel: channel.clone(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Whether the probe's condition and stored rule `b_id`'s condition
    /// can hold together — the paper's co-satisfiability check without
    /// the action filter. Disjoint-footprint pairs are answered from
    /// cached witnesses; undecidable pairs (a node without solved
    /// systems) answer `true`, the over-reporting direction advisories can
    /// afford.
    fn cosatisfiable(
        &self,
        db: &RuleDb,
        a: &Rule,
        an: &NodeInfo,
        b_id: RuleId,
    ) -> Result<bool, ConflictError> {
        let Some(b) = db.get(b_id) else {
            return Ok(false);
        };
        let Some(bn) = self.nodes.get(&b_id) else {
            return Ok(false);
        };
        let (Some(x), Some(y)) = (&an.numeric, &bn.numeric) else {
            return Ok(true);
        };
        let disjoint = an.sensors.is_disjoint(&bn.sensors);
        for (i, ca) in a.dnf().conjuncts().iter().enumerate() {
            for (j, cb) in b.dnf().conjuncts().iter().enumerate() {
                if disjoint {
                    let live = x.witnesses.get(i).is_some_and(Option::is_some)
                        && y.witnesses.get(j).is_some_and(Option::is_some);
                    if live && discrete_compatible(ca.atoms().iter().chain(cb.atoms().iter())) {
                        return Ok(true);
                    }
                } else {
                    if !discrete_compatible(ca.atoms().iter().chain(cb.atoms().iter())) {
                        continue;
                    }
                    let (sys, _) =
                        merge_conjuncts(&x.systems[i], &y.systems[j]).map_err(RuleError::from)?;
                    if solve(&sys)?.is_feasible() {
                        return Ok(true);
                    }
                }
            }
        }
        Ok(false)
    }

    /// Whole-database advisory sweep (the `GET /conflicts` view): loops
    /// and chains per rule, shadowing/redundancy per actuator cluster,
    /// environmental tug-of-wars per channel. Deterministic order;
    /// loops are reported once, anchored at their smallest rule id.
    ///
    /// # Errors
    ///
    /// Returns [`ConflictError`] on solver overflow or dimension
    /// mismatch in an implication or co-satisfiability check.
    pub fn advisories(&mut self, db: &RuleDb) -> Result<Vec<Advisory>, ConflictError> {
        self.sync(db);
        let mut out = Vec::new();
        let mut ids: Vec<RuleId> = self.nodes.keys().copied().collect();
        ids.sort_unstable();

        // Chains and loops.
        for &id in &ids {
            let Some(node) = self.nodes.get(&id) else {
                continue;
            };
            if !node.enabled {
                continue;
            }
            let Some(rule) = db.get(id) else { continue };
            let mut found = Vec::new();
            self.probe_chains(rule, node, &mut found);
            for advisory in found {
                match &advisory {
                    // Each loop surfaces once, from its smallest member.
                    Advisory::Loop { cycle } if cycle.iter().min() == Some(&id) => {
                        out.push(advisory);
                    }
                    Advisory::Loop { .. } => {}
                    _ => out.push(advisory),
                }
            }
        }

        // Shadowing / redundancy within each actuator cluster.
        for cluster in self.actuators.values() {
            let members: Vec<RuleId> = cluster.iter().copied().collect();
            for (i, &a_id) in members.iter().enumerate() {
                for &b_id in &members[i + 1..] {
                    let (Some(a), Some(b)) = (db.get(a_id), db.get(b_id)) else {
                        continue;
                    };
                    let (Some(na), Some(nb)) = (self.nodes.get(&a_id), self.nodes.get(&b_id))
                    else {
                        continue;
                    };
                    if !na.enabled || !nb.enabled {
                        continue;
                    }
                    let (Some(an), Some(bn)) = (&na.numeric, &nb.numeric) else {
                        continue;
                    };
                    if let Some(advisory) = shadow_verdict(a, an, b, bn)? {
                        out.push(advisory);
                    }
                }
            }
        }

        // Environmental tug-of-wars.
        for (channel, writers) in &self.env_writers {
            let members: Vec<RuleId> = writers.iter().copied().collect();
            for (i, &a_id) in members.iter().enumerate() {
                let Some(na) = self.nodes.get(&a_id) else {
                    continue;
                };
                let Some(a) = db.get(a_id) else { continue };
                if !na.enabled {
                    continue;
                }
                let Some(da) = na.effects.iter().find(|(c, _)| c == channel).map(|e| e.1) else {
                    continue;
                };
                for &b_id in &members[i + 1..] {
                    let Some(nb) = self.nodes.get(&b_id) else {
                        continue;
                    };
                    if !nb.enabled || nb.device == na.device {
                        continue;
                    }
                    let opposite = nb
                        .effects
                        .iter()
                        .find(|(c, _)| c == channel)
                        .is_some_and(|(_, d)| da.opposes(*d));
                    if opposite && self.cosatisfiable(db, a, na, b_id)? {
                        out.push(Advisory::Environmental {
                            rule_a: a_id,
                            rule_b: b_id,
                            channel: channel.clone(),
                        });
                    }
                }
            }
        }
        ADVISORIES.add(out.len() as u64);
        Ok(out)
    }
}

/// The shadowing/redundancy verdict for one pair, trying `a ⇒ b` first,
/// then `b ⇒ a`. Same-device pairs with equal actions are redundancy,
/// pairs with conflicting actions are shadowing.
fn shadow_verdict(
    a: &Rule,
    an: &NumericInfo,
    b: &Rule,
    bn: &NumericInfo,
) -> Result<Option<Advisory>, ConflictError> {
    let classify = |covered: &Rule, by: &Rule| {
        if covered.action().conflicts_with(by.action()) {
            Advisory::Shadowing {
                rule: covered.id(),
                by: by.id(),
            }
        } else {
            Advisory::Redundancy {
                rule: covered.id(),
                duplicate_of: by.id(),
            }
        }
    };
    if condition_implies(a, an, b, bn)? {
        return Ok(Some(classify(a, b)));
    }
    if condition_implies(b, bn, a, an)? {
        return Ok(Some(classify(b, a)));
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::find_conflicts;
    use cadel_rule::{ActionSpec, Condition, ConstraintAtom, StateAtom, Verb};
    use cadel_types::{PersonId, Quantity, Unit, Value};

    fn sensor(device: &str, variable: &str, op: RelOp, n: i64, unit: Unit) -> Condition {
        Condition::Atom(Atom::Constraint(ConstraintAtom::new(
            SensorKey::new(DeviceId::new(device), variable),
            op,
            Quantity::from_integer(n, unit),
        )))
    }

    fn temp(op: RelOp, n: i64) -> Condition {
        sensor("thermo", "temperature", op, n, Unit::Celsius)
    }

    fn humid(op: RelOp, n: i64) -> Condition {
        sensor("hygro", "humidity", op, n, Unit::Percent)
    }

    fn rule(id: u64, cond: Condition, action: ActionSpec) -> Rule {
        Rule::builder(PersonId::new("tester"))
            .condition(cond)
            .action(action)
            .build(RuleId::new(id))
            .unwrap()
    }

    fn aircon_set(setpoint: i64) -> ActionSpec {
        ActionSpec::new(DeviceId::new("aircon"), Verb::TurnOn).with_setting(
            "temperature",
            Quantity::from_integer(setpoint, Unit::Celsius),
        )
    }

    fn assert_agrees_with_brute_force(db: &RuleDb, probe: &Rule) {
        let brute = find_conflicts(db, probe).unwrap();
        let graph = ConflictGraph::default().analyze(db, probe).unwrap();
        let key = |c: &Conflict| (c.rule_a(), c.rule_b(), c.conjunct_a(), c.conjunct_b());
        assert_eq!(
            brute.iter().map(key).collect::<Vec<_>>(),
            graph.conflicts.iter().map(key).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn shared_sensor_pairs_agree_with_brute_force() {
        // The paper's aircon trio: all three share thermo/hygro, so
        // every pair takes the solver path.
        let mut db = RuleDb::new();
        db.insert(rule(
            100,
            temp(RelOp::Gt, 25).and(humid(RelOp::Gt, 60)),
            aircon_set(24),
        ))
        .unwrap();
        db.insert(rule(
            101,
            temp(RelOp::Gt, 29).and(humid(RelOp::Gt, 75)),
            aircon_set(27),
        ))
        .unwrap();
        let probe = rule(
            200,
            temp(RelOp::Gt, 26).and(humid(RelOp::Gt, 65)),
            aircon_set(25),
        );
        assert_agrees_with_brute_force(&db, &probe);
    }

    #[test]
    fn disjoint_sensor_pairs_take_the_witness_path_and_agree() {
        // Probe and stored rules read entirely different sensors: the
        // graph decides these pairs from cached witnesses. Verdicts
        // (and first-hit conjunct indices) still match brute force.
        let mut db = RuleDb::new();
        db.insert(rule(
            1,
            sensor("lux-0", "luminance", RelOp::Lt, 200, Unit::Unitless),
            aircon_set(22),
        ))
        .unwrap();
        db.insert(rule(
            2,
            // Dead first conjunct (t>30 ∧ t<10), live second.
            sensor("t-2", "temperature", RelOp::Gt, 30, Unit::Celsius)
                .and(sensor("t-2", "temperature", RelOp::Lt, 10, Unit::Celsius))
                .or(humid(RelOp::Gt, 40)),
            aircon_set(26),
        ))
        .unwrap();
        db.insert(rule(
            3,
            // Entirely dead condition: never conflicts.
            sensor("p", "pressure", RelOp::Gt, 5, Unit::Unitless).and(sensor(
                "p",
                "pressure",
                RelOp::Lt,
                0,
                Unit::Unitless,
            )),
            aircon_set(18),
        ))
        .unwrap();
        let probe = rule(
            200,
            sensor("co2", "co2", RelOp::Gt, 800, Unit::Unitless),
            aircon_set(21),
        );
        assert_agrees_with_brute_force(&db, &probe);
        // Sanity: the conflicts really exist (rules 1 and 2 hit).
        let report = ConflictGraph::default().analyze(&db, &probe).unwrap();
        let partners: Vec<u64> = report.conflicts.iter().map(|c| c.rule_b().raw()).collect();
        assert_eq!(partners, vec![1, 2]);
        // Rule 2's dead conjunct is skipped: the hit is conjunct 1.
        assert_eq!(report.conflicts[1].conjunct_b(), 1);
    }

    #[test]
    fn chain_is_detected_through_device_state() {
        let mut db = RuleDb::new();
        // B: when the tv is on, turn on the stereo.
        db.insert(rule(
            2,
            Condition::Atom(Atom::State(StateAtom::new(
                DeviceId::new("tv"),
                "power",
                Value::Bool(true),
            ))),
            ActionSpec::new(DeviceId::new("stereo"), Verb::TurnOn),
        ))
        .unwrap();
        // C: when the stereo is on, dim the lamp.
        db.insert(rule(
            3,
            Condition::Atom(Atom::State(StateAtom::new(
                DeviceId::new("stereo"),
                "power",
                Value::Bool(true),
            ))),
            ActionSpec::new(DeviceId::new("projector"), Verb::TurnOn),
        ))
        .unwrap();
        // Probe A: hot evening → turn on the tv. A → B → C.
        let probe = rule(
            1,
            temp(RelOp::Gt, 25),
            ActionSpec::new(DeviceId::new("tv"), Verb::TurnOn),
        );
        let report = ConflictGraph::default().analyze(&db, &probe).unwrap();
        let chains: Vec<_> = report
            .advisories
            .iter()
            .filter(|a| a.class() == ConflictClass::Chain)
            .collect();
        assert_eq!(
            chains,
            vec![&Advisory::Chain {
                path: vec![RuleId::new(1), RuleId::new(2), RuleId::new(3)],
            }]
        );
    }

    #[test]
    fn environmental_feedback_loop_is_detected() {
        let mut db = RuleDb::new();
        // A: cold → heater on (env table: heater raises temperature).
        let heater = rule(
            10,
            temp(RelOp::Lt, 18),
            ActionSpec::new(DeviceId::new("heater-1"), Verb::TurnOn),
        );
        // B: hot → open the window (env table: lowers temperature, which
        // A reads → the edges close into a loop).
        db.insert(rule(
            11,
            temp(RelOp::Gt, 28),
            ActionSpec::new(DeviceId::new("window-south"), Verb::from_phrase("open")),
        ))
        .unwrap();
        db.insert(heater.clone()).unwrap();
        let report = ConflictGraph::default().analyze(&db, &heater).unwrap();
        let loops: Vec<_> = report
            .advisories
            .iter()
            .filter(|a| a.class() == ConflictClass::Loop)
            .collect();
        assert_eq!(
            loops,
            vec![&Advisory::Loop {
                cycle: vec![RuleId::new(10), RuleId::new(11)],
            }]
        );
    }

    #[test]
    fn shadowing_and_redundancy_are_distinguished() {
        let mut db = RuleDb::new();
        // Broad rule: t > 25 → aircon at 27.
        db.insert(rule(20, temp(RelOp::Gt, 25), aircon_set(27)))
            .unwrap();
        // Shadowed probe: t > 30 implies t > 25, conflicting setpoint.
        let shadowed = rule(21, temp(RelOp::Gt, 30), aircon_set(22));
        let report = ConflictGraph::default().analyze(&db, &shadowed).unwrap();
        assert!(report.advisories.contains(&Advisory::Shadowing {
            rule: RuleId::new(21),
            by: RuleId::new(20),
        }));
        // Redundant probe: same implication, identical action.
        let redundant = rule(22, temp(RelOp::Gt, 30), aircon_set(27));
        let report = ConflictGraph::default().analyze(&db, &redundant).unwrap();
        assert!(report.advisories.contains(&Advisory::Redundancy {
            rule: RuleId::new(22),
            duplicate_of: RuleId::new(20),
        }));
        // Distinct-sensor rules imply nothing (prefilter, zero solves).
        let unrelated = rule(23, humid(RelOp::Gt, 70), aircon_set(19));
        let report = ConflictGraph::default().analyze(&db, &unrelated).unwrap();
        assert!(report.advisories.iter().all(|a| !matches!(
            a.class(),
            ConflictClass::Shadowing | ConflictClass::Redundancy
        )));
    }

    #[test]
    fn environmental_conflict_is_cross_device_only() {
        let mut db = RuleDb::new();
        // Aircon cools when humid; heater heats when the lux is low.
        db.insert(rule(
            30,
            humid(RelOp::Gt, 50),
            ActionSpec::new(DeviceId::new("aircon-7"), Verb::TurnOn),
        ))
        .unwrap();
        let heater = rule(
            31,
            sensor("lux", "luminance", RelOp::Lt, 100, Unit::Unitless),
            ActionSpec::new(DeviceId::new("heater-2"), Verb::TurnOn),
        );
        let report = ConflictGraph::default().analyze(&db, &heater).unwrap();
        assert!(report.advisories.contains(&Advisory::Environmental {
            rule_a: RuleId::new(31),
            rule_b: RuleId::new(30),
            channel: "temperature".to_owned(),
        }));
        // A second heater opposing nothing reports nothing.
        let ally = rule(
            32,
            temp(RelOp::Lt, 10),
            ActionSpec::new(DeviceId::new("heater-3"), Verb::TurnOn),
        );
        db.insert(rule(
            33,
            temp(RelOp::Lt, 12),
            ActionSpec::new(DeviceId::new("radiator-1"), Verb::TurnOn),
        ))
        .unwrap();
        let report = ConflictGraph::default().analyze(&db, &ally).unwrap();
        assert!(!report
            .advisories
            .iter()
            .any(|a| a.class() == ConflictClass::Environmental
                && a.rules().contains(&RuleId::new(33))));
    }

    #[test]
    fn environmental_requires_cosatisfiable_conditions() {
        let mut db = RuleDb::new();
        // Shared sensor, disjoint bands: can never fight in practice.
        db.insert(rule(
            40,
            temp(RelOp::Gt, 28),
            ActionSpec::new(DeviceId::new("aircon-1"), Verb::TurnOn),
        ))
        .unwrap();
        let heater = rule(
            41,
            temp(RelOp::Lt, 10),
            ActionSpec::new(DeviceId::new("heater-1"), Verb::TurnOn),
        );
        let report = ConflictGraph::default().analyze(&db, &heater).unwrap();
        assert!(!report
            .advisories
            .iter()
            .any(|a| a.class() == ConflictClass::Environmental));
    }

    #[test]
    fn sync_follows_removal_and_disable() {
        let mut db = RuleDb::new();
        db.insert(rule(
            50,
            temp(RelOp::Gt, 25).and(humid(RelOp::Gt, 60)),
            aircon_set(24),
        ))
        .unwrap();
        let probe = rule(
            51,
            temp(RelOp::Gt, 26).and(humid(RelOp::Gt, 61)),
            aircon_set(20),
        );
        let mut graph = ConflictGraph::default();
        assert_eq!(graph.analyze(&db, &probe).unwrap().conflicts.len(), 1);
        assert_eq!(graph.node_count(), 1);
        // Disabling drops the conflict (fresh revision → node rebuild).
        let disabled = db.get(RuleId::new(50)).unwrap().clone().with_enabled(false);
        db.replace(disabled).unwrap();
        assert!(graph.analyze(&db, &probe).unwrap().conflicts.is_empty());
        // Removal drops the node and its memoized verdicts.
        db.remove(RuleId::new(50)).unwrap();
        assert!(graph.analyze(&db, &probe).unwrap().conflicts.is_empty());
        assert_eq!(graph.node_count(), 0);
        assert_eq!(graph.checker().cached_pairs(), 0);
    }

    #[test]
    fn sweep_reports_each_class_once() {
        let mut db = RuleDb::new();
        // Loop pair (heater vs. window via temperature).
        db.insert(rule(
            60,
            temp(RelOp::Lt, 18),
            ActionSpec::new(DeviceId::new("heater-1"), Verb::TurnOn),
        ))
        .unwrap();
        db.insert(rule(
            61,
            temp(RelOp::Gt, 28),
            ActionSpec::new(DeviceId::new("window-south"), Verb::from_phrase("open")),
        ))
        .unwrap();
        // Redundant pair on the stereo.
        db.insert(rule(
            62,
            humid(RelOp::Gt, 80),
            ActionSpec::new(DeviceId::new("stereo"), Verb::Play),
        ))
        .unwrap();
        db.insert(rule(
            63,
            humid(RelOp::Gt, 70),
            ActionSpec::new(DeviceId::new("stereo"), Verb::Play),
        ))
        .unwrap();
        // Environmental pair (aircon vs. radiator, different sensors).
        db.insert(rule(
            64,
            sensor("co2", "co2", RelOp::Gt, 900, Unit::Unitless),
            ActionSpec::new(DeviceId::new("aircon-1"), Verb::TurnOn),
        ))
        .unwrap();
        db.insert(rule(
            65,
            sensor("lux", "luminance", RelOp::Lt, 50, Unit::Unitless),
            ActionSpec::new(DeviceId::new("radiator-2"), Verb::TurnOn),
        ))
        .unwrap();
        let mut graph = ConflictGraph::default();
        let advisories = graph.advisories(&db).unwrap();
        let count = |class: ConflictClass| advisories.iter().filter(|a| a.class() == class).count();
        assert_eq!(count(ConflictClass::Loop), 1, "{advisories:?}");
        assert_eq!(count(ConflictClass::Redundancy), 1, "{advisories:?}");
        assert!(count(ConflictClass::Environmental) >= 1, "{advisories:?}");
        // Idempotent: a second sweep reports the same findings.
        assert_eq!(graph.advisories(&db).unwrap(), advisories);
    }
}
