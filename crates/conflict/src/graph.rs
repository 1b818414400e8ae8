//! The conflict graph: footprint-pruned, multi-class conflict detection
//! over the whole rule set.
//!
//! The paper's registration check compares the new rule against every
//! same-device rule with a Simplex feasibility solve per pair — fine for
//! a home with dozens of rules, quadratic pain for a dense one. The
//! [`ConflictGraph`] keeps a lightweight node per registered rule holding
//! its *footprints* (actuated device, sensors read, environment channels
//! read and written, event channels listened and raised) and the
//! per-conjunct constraint systems the [`RuleDb`] compiled for it, shared
//! rather than copied. Candidate pairs are clustered by those footprints,
//! and most pairs are decided **without any Simplex solve**:
//!
//! * only [`Atom::Constraint`] atoms contribute linear constraints, so
//!   when two rules' sensor footprints are disjoint their merged system
//!   is block-diagonal — joint feasibility is exactly "each side's
//!   conjunct is feasible on its own", which the graph answers from
//!   per-conjunct witnesses cached at node build time;
//! * pairs that do share sensors are decided by one merged solve of the
//!   two rules' conjunct systems, with the same semantics as
//!   [`check_conflict`](crate::check_conflict).
//!
//! [`ConflictGraph::analyze`] is the whole registration check of §4.4.
//! It lowers the probe once: the same per-conjunct solves that give the
//! probe's witnesses decide its consistency (exactly as
//! [`check_consistency`](crate::check_consistency), the oracle, does),
//! and a probe whose every conjunct is dead is reported inconsistent
//! before any pair is looked at.
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

use crate::check::{Conflict, ConsistencyReport};
use crate::checker::{cheap_pair, solve_each, solved_pair, Witnesses};
use crate::discrete::discrete_compatible;
use crate::env::{EnvDirection, EnvTable};
use crate::error::ConflictError;
use cadel_ir::{merge_conjuncts, CompiledConjunct};
use cadel_obs::{LazyCounter, LazyGauge, LazyHistogram, Stopwatch};
use cadel_rule::{compile_conjuncts, Atom, ChangeCursor, Conjunct, Rule, RuleDb, RuleError};
use cadel_simplex::{solve, Constraint, RelOp, VarId};
use cadel_types::{DeviceId, RuleId, SensorKey};
use std::collections::{btree_set, BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::iter::Peekable;
use std::ops::Bound;
use std::sync::Arc;

/// Whole-graph analyses (one per [`ConflictGraph::analyze`]).
static ANALYSES: LazyCounter = LazyCounter::new("conflict_graph_analyses_total");
/// Candidate same-device pairs considered across all analyses.
static PAIRS: LazyCounter = LazyCounter::new("conflict_graph_pairs_total");
/// Candidate pairs decided without a merged Simplex solve (action
/// filter or disjoint-footprint witness path).
static PAIRS_PRUNED: LazyCounter = LazyCounter::new("conflict_graph_pairs_pruned_total");
/// Candidate pairs decided by a merged Simplex solve (solver path).
static PAIRS_SOLVED: LazyCounter = LazyCounter::new("conflict_graph_simplex_pairs_total");
/// Solver-path pairs that found a conflict.
static PAIRS_CONFLICTING: LazyCounter = LazyCounter::new("conflict_pairs_conflicting_total");
/// Advisories produced by analyses and sweeps.
static ADVISORIES: LazyCounter = LazyCounter::new("conflict_graph_advisories_total");
/// Node (re)builds — one per new or changed enabled rule observed by
/// `sync`; zero when the rule base has not changed since the last one, and
/// zero for a disable, which drops the rule's node.
static REBUILDS: LazyCounter = LazyCounter::new("conflict_graph_rebuilds_total");
/// Rules currently held in the graph: the enabled stored rules.
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

/// The outcome of one graph analysis: the probe's own consistency,
/// blocking device-class conflicts, and non-blocking multi-class
/// advisories.
#[derive(Clone, Debug)]
pub struct GraphReport {
    /// Whether the probe's condition can hold at all (same verdict as
    /// [`check_consistency`](crate::check_consistency)). An inconsistent
    /// probe is analyzed no further: it has no conflicts and no
    /// advisories.
    pub consistency: ConsistencyReport,
    /// Device-class conflicts (same semantics as
    /// [`find_conflicts`](crate::find_conflicts) — these gate
    /// registration behind arbitration).
    pub conflicts: Vec<Conflict>,
    /// Non-blocking advisories across the other classes.
    pub advisories: Vec<Advisory>,
}

/// One rule's footprints — everything candidate clustering needs,
/// derived once per stored revision.
#[derive(Clone, Debug)]
struct NodeInfo {
    revision: u64,
    /// The actuated device.
    device: DeviceId,
    /// Sensors the condition (and until clause) reads — a conservative
    /// superset of the numeric footprint (it includes state-equality
    /// sensors), which only ever sends extra pairs to the solver, never
    /// skips one.
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
    /// The per-conjunct constraint systems, aligned with the rule's DNF.
    /// A stored rule's are the [`RuleDb`]'s own, shared.
    systems: Arc<[CompiledConjunct]>,
    /// `None` when a conjunct system errored in the solver — every
    /// device pair touching such a node takes the solver path, which
    /// reproduces brute force's error behavior exactly, and the advisory
    /// passes skip it.
    witnesses: Option<Witnesses>,
}

impl NodeInfo {
    /// Each environment channel the action moves, with the direction the
    /// table lists first for it.
    fn moves(&self) -> impl Iterator<Item = (&String, EnvDirection)> {
        self.effects
            .iter()
            .enumerate()
            .filter(|(i, (channel, _))| !self.effects[..*i].iter().any(|(c, _)| c == channel))
            .map(|(_, (channel, direction))| (channel, *direction))
    }
}

/// Builds the footprint node for `rule` from its condition and `until`
/// clause: the sensors of constraint and state atoms (through nested
/// `held for`) and the event channels listened on.
fn build_node(
    env: &EnvTable,
    rule: &Rule,
    revision: u64,
    systems: Arc<[CompiledConjunct]>,
    witnesses: Option<Witnesses>,
) -> NodeInfo {
    let mut sensors = BTreeSet::new();
    let mut event_channels = BTreeSet::new();
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
    let reads_devices = sensors.iter().map(|k| k.device().clone()).collect();
    let env_reads = sensors
        .iter()
        .map(|k| k.variable().to_ascii_lowercase())
        .collect();
    NodeInfo {
        revision,
        device: rule.action().device().clone(),
        sensors,
        reads_devices,
        env_reads,
        event_channels,
        effects: env.effects_of(rule.action()).to_vec(),
        raises: env.raised_channels(rule.action()).to_vec(),
        systems,
        witnesses,
    }
}

/// The §4.4 consistency verdict from per-conjunct witnesses: a conjunct
/// is dead when it is numerically infeasible or its discrete atoms are
/// incompatible — the rule [`check_consistency`](crate::check_consistency)
/// applies.
fn consistency_of(rule: &Rule, witnesses: &Witnesses) -> ConsistencyReport {
    let conjuncts = rule.dnf().conjuncts();
    let dead = conjuncts
        .iter()
        .zip(witnesses)
        .enumerate()
        .filter(|(_, (c, w))| w.is_none() || !discrete_compatible(c.atoms().iter()))
        .map(|(i, _)| i)
        .collect();
    ConsistencyReport::new(dead, conjuncts.len())
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
/// Every atom of `cb` other than a plain comparison — discrete atoms
/// and `held for` atoms alike — must appear verbatim in `ca`: the
/// numeric systems hold only a `held for` atom's inner comparison, not
/// its dwell time, so `t > 30` does not imply `t > 25 held for 10
/// minutes`. Plain comparisons use the solver: `sys(ca) ∧ ¬c` must be
/// infeasible for every constraint `c` of `cb`. The prefilter — every
/// sensor `cb` constrains must appear in `ca` with the same dimension —
/// answers the common distinct-sensor case with zero solves.
fn conjunct_implies(
    ca: &Conjunct,
    ca_sys: &CompiledConjunct,
    cb: &Conjunct,
    cb_sys: &CompiledConjunct,
) -> Result<bool, ConflictError> {
    for atom in cb.atoms() {
        if !matches!(atom, Atom::Constraint(_)) && !ca.atoms().contains(atom) {
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
    a_sys: &[CompiledConjunct],
    a_wit: &Witnesses,
    b: &Rule,
    b_sys: &[CompiledConjunct],
) -> Result<bool, ConflictError> {
    let mut any_live = false;
    for (i, ca) in a.dnf().conjuncts().iter().enumerate() {
        if a_wit.get(i).is_none_or(|w| w.is_none()) {
            continue; // dead conjunct: vacuously covered
        }
        any_live = true;
        let mut covered = false;
        for (j, cb) in b.dnf().conjuncts().iter().enumerate() {
            if conjunct_implies(ca, &a_sys[i], cb, &b_sys[j])? {
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
/// point calls [`ConflictGraph::sync`] first, which follows the
/// database's change feed and refreshes only the ids changed since the
/// last sync — so the graph stays correct across registration,
/// customization, removal, and whole-database replacement (replay,
/// import, a clone) without explicit invalidation hooks.
///
/// Only enabled rules have a node: a disabled rule conflicts with
/// nothing and triggers nothing, so no pass ever has to skip one.
#[derive(Clone, Debug)]
pub struct ConflictGraph {
    env: EnvTable,
    /// The feed position `nodes` reflects; `None` before the first sync.
    cursor: Option<ChangeCursor>,
    nodes: HashMap<RuleId, NodeInfo>,
    /// device → rules actuating it.
    actuators: BTreeMap<DeviceId, BTreeSet<RuleId>>,
    /// device → rules reading one of its sensors.
    device_readers: BTreeMap<DeviceId, BTreeSet<RuleId>>,
    /// environment channel → rules reading a sensor variable of that name.
    env_readers: BTreeMap<String, BTreeSet<RuleId>>,
    /// event channel → rules listening on it.
    event_readers: BTreeMap<String, BTreeSet<RuleId>>,
    /// (environment channel, direction) → rules whose action moves the
    /// channel that way, filed under the direction [`NodeInfo::moves`]
    /// gives, so a tug-of-war looks up only the opposing writers.
    env_writers: BTreeMap<(String, EnvDirection), BTreeSet<RuleId>>,
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
            env,
            cursor: None,
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

    /// Rules currently represented in the graph: the enabled rules of the
    /// database it last synced with.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Reconciles the graph with `db`: refreshes each id the database's
    /// change feed lists since the last sync, so an unchanged database
    /// costs one cursor comparison. When the feed cannot answer — the
    /// graph never synced, `db` is another database than last time (a
    /// clone or a rebuilt one), or the log overflowed — every id the
    /// graph or the database holds is refreshed instead.
    pub fn sync(&mut self, db: &RuleDb) {
        match self.cursor.and_then(|cursor| db.changes_since(cursor)) {
            Some(changed) => {
                for id in changed {
                    self.refresh(db, id);
                }
            }
            None => {
                let mut ids: Vec<RuleId> = self.nodes.keys().copied().collect();
                ids.extend(db.iter().map(Rule::id));
                for id in ids {
                    self.refresh(db, id);
                }
            }
        }
        self.cursor = Some(db.cursor());
        NODES.set(self.nodes.len() as i64);
    }

    /// Brings one rule's node in line with `db`: dropped when the rule is
    /// gone or disabled, rebuilt when its stored revision differs from the
    /// node's, left alone otherwise.
    fn refresh(&mut self, db: &RuleDb, id: RuleId) {
        let revision = db.revision(id);
        if self.nodes.get(&id).map(|n| n.revision) == revision {
            return;
        }
        if let Some(old) = self.nodes.remove(&id) {
            self.unindex(id, &old);
        }
        let enabled = db.get(id).filter(|rule| rule.is_enabled());
        let (Some(rule), Some(systems), Some(revision)) = (enabled, db.conjuncts(id), revision)
        else {
            return;
        };
        let systems = Arc::clone(systems);
        // A solver error leaves the node without witnesses; see
        // `NodeInfo::witnesses`.
        let witnesses = solve_each(&systems).ok();
        let node = build_node(&self.env, rule, revision, systems, witnesses);
        self.index(id, &node);
        self.nodes.insert(id, node);
        REBUILDS.inc();
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
        for (channel, direction) in node.moves() {
            self.env_writers
                .entry((channel.clone(), direction))
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
        for (channel, direction) in node.moves() {
            drop_from(&mut self.env_writers, &(channel.clone(), direction), id);
        }
    }

    /// The probe's node and consistency verdict, lowered once: its
    /// conjunct systems and their witnesses feed consistency, the device
    /// pass and every advisory.
    ///
    /// # Errors
    ///
    /// Returns [`ConflictError::Rule`] when a conjunct does not compile
    /// (a dimension clash) and [`ConflictError::Solve`] when a conjunct's
    /// solve fails — the inputs on which
    /// [`check_consistency`](crate::check_consistency) errors.
    fn probe_node(&self, probe: &Rule) -> Result<(NodeInfo, ConsistencyReport), ConflictError> {
        let systems: Arc<[CompiledConjunct]> = compile_conjuncts(probe)?.into();
        let witnesses = solve_each(&systems)?;
        let consistency = consistency_of(probe, &witnesses);
        let node = build_node(&self.env, probe, 0, systems, Some(witnesses));
        Ok((node, consistency))
    }

    /// The whole registration check of §4.4 for `probe`: its own
    /// consistency, then — for a consistent probe — blocking
    /// device-class conflicts (verdicts identical to
    /// [`find_conflicts`](crate::find_conflicts)) plus chain/loop,
    /// shadowing/redundancy, and environmental advisories.
    ///
    /// # Errors
    ///
    /// Returns [`ConflictError`] on solver overflow or dimension
    /// mismatch — the same inputs on which the brute-force
    /// [`check_consistency`](crate::check_consistency) and
    /// [`find_conflicts`](crate::find_conflicts) error.
    pub fn analyze(&mut self, db: &RuleDb, probe: &Rule) -> Result<GraphReport, ConflictError> {
        let sw = Stopwatch::start();
        ANALYSES.inc();
        let (pnode, consistency) = self.probe_node(probe)?;
        let mut report = GraphReport {
            consistency,
            conflicts: Vec::new(),
            advisories: Vec::new(),
        };
        if report.consistency.is_satisfiable() {
            self.sync(db);
            report.conflicts = self.device_conflicts(db, probe, &pnode)?;
            self.probe_chains(probe, &pnode, &mut report.advisories);
            self.probe_shadowing(db, probe, &pnode, &mut report.advisories)?;
            self.probe_environmental(db, probe, &pnode, &mut report.advisories)?;
            ADVISORIES.add(report.advisories.len() as u64);
        }
        ANALYZE_NS.record(&sw);
        Ok(report)
    }

    /// Device-class scan over the actuator cluster, footprint-pruned.
    fn device_conflicts(
        &self,
        db: &RuleDb,
        probe: &Rule,
        pnode: &NodeInfo,
    ) -> Result<Vec<Conflict>, ConflictError> {
        let Some(cluster) = self.actuators.get(probe.action().device()) else {
            return Ok(Vec::new());
        };
        let mut out = Vec::new();
        for &id in cluster {
            if id == probe.id() {
                continue;
            }
            let (Some(existing), Some(node)) = (db.get(id), self.nodes.get(&id)) else {
                continue;
            };
            PAIRS.inc();
            if !probe.action().conflicts_with(existing.action()) {
                PAIRS_PRUNED.inc();
                continue;
            }
            let verdict = match (&pnode.witnesses, &node.witnesses) {
                // Block-diagonal pairs are decided from cached witnesses.
                (Some(pw), Some(nw)) if pnode.sensors.is_disjoint(&node.sensors) => {
                    PAIRS_PRUNED.inc();
                    cheap_pair(probe, pw, existing, nw)
                }
                _ => {
                    PAIRS_SOLVED.inc();
                    let verdict = solved_pair(probe, &pnode.systems, existing, &node.systems)?;
                    if verdict.is_some() {
                        PAIRS_CONFLICTING.inc();
                    }
                    verdict
                }
            };
            out.extend(verdict);
        }
        Ok(out)
    }

    /// The rules a node's action can trigger — readers of its device's
    /// sensors, readers of the environment channels it moves, and
    /// listeners on the event channels it raises — walked lazily.
    fn successors(&self, node: &NodeInfo, self_id: RuleId) -> Successors<'_> {
        let mut sources = Vec::with_capacity(1 + node.effects.len() + node.raises.len());
        sources.extend(self.device_readers.get(&node.device));
        for (channel, _) in &node.effects {
            sources.extend(self.env_readers.get(channel));
        }
        for channel in &node.raises {
            sources.extend(self.event_readers.get(channel));
        }
        Successors {
            sources: sources.into_iter().map(|s| s.iter().peekable()).collect(),
            skip: self_id,
        }
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
    ///
    /// Depth-first over stored successors, ascending ids for
    /// determinism; the first cycle found wins. Each frame pulls its
    /// next successor only when the walk comes back to it, so a loop
    /// closed by the probe's first successor costs one step, not the
    /// probe's whole successor set.
    fn probe_chains(&self, probe: &Rule, pnode: &NodeInfo, out: &mut Vec<Advisory>) {
        let mut path = vec![probe.id()];
        let mut frames = vec![self.successors(pnode, probe.id())];
        let mut visited: BTreeSet<RuleId> = BTreeSet::new();
        let mut chain: Option<Vec<RuleId>> = None;
        while let Some(frame) = frames.last_mut() {
            let Some(id) = frame.find(|next| !path.contains(next)) else {
                frames.pop();
                path.pop();
                continue;
            };
            let node = &self.nodes[&id];
            path.push(id);
            if self.edge_to(node, pnode) {
                out.push(Advisory::Loop { cycle: path });
                return;
            }
            if path.len() >= 3 && chain.is_none() {
                chain = Some(path.clone());
            }
            if visited.insert(id) && path.len() <= CHAIN_DEPTH_CAP {
                frames.push(self.successors(node, id));
            } else {
                path.pop();
            }
        }
        if let Some(path) = chain {
            out.push(Advisory::Chain { path });
        }
    }

    /// The eager walk [`ConflictGraph::probe_chains`] replaced: it builds
    /// each successor set in full and pushes a path per successor. Kept
    /// as the oracle the lazy walk must match advisory for advisory.
    #[cfg(test)]
    fn probe_chains_eager(&self, probe: &Rule, pnode: &NodeInfo, out: &mut Vec<Advisory>) {
        let successors_of = |node: &NodeInfo, self_id: RuleId| -> BTreeSet<RuleId> {
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
            out
        };
        let first = successors_of(pnode, probe.id());
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
            for &next in successors_of(node, id).iter().rev() {
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
            if let Some(advisory) = shadow_verdict(probe, pnode, existing, node)? {
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
            let opposing = (channel.clone(), direction.opposite());
            let Some(writers) = self.env_writers.get(&opposing) else {
                continue;
            };
            for &id in writers {
                if id == probe.id() {
                    continue;
                }
                let Some(node) = self.nodes.get(&id) else {
                    continue;
                };
                if node.device == *probe.action().device() {
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
    /// cached witnesses; undecidable pairs (a node without witnesses)
    /// answer `true`, the over-reporting direction advisories can afford.
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
        let (Some(x), Some(y)) = (&an.witnesses, &bn.witnesses) else {
            return Ok(true);
        };
        let disjoint = an.sensors.is_disjoint(&bn.sensors);
        for (i, ca) in a.dnf().conjuncts().iter().enumerate() {
            for (j, cb) in b.dnf().conjuncts().iter().enumerate() {
                if disjoint {
                    let live = x.get(i).is_some_and(Option::is_some)
                        && y.get(j).is_some_and(Option::is_some);
                    if live && discrete_compatible(ca.atoms().iter().chain(cb.atoms().iter())) {
                        return Ok(true);
                    }
                } else {
                    if !discrete_compatible(ca.atoms().iter().chain(cb.atoms().iter())) {
                        continue;
                    }
                    let (sys, _) =
                        merge_conjuncts(&an.systems[i], &bn.systems[j]).map_err(RuleError::from)?;
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
            let node = &self.nodes[&id];
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
                    if let Some(advisory) = shadow_verdict(a, na, b, nb)? {
                        out.push(advisory);
                    }
                }
            }
        }

        // Environmental tug-of-wars: per channel, each writer against the
        // opposing writers with a larger id.
        let channels: BTreeSet<&String> = self.env_writers.keys().map(|(c, _)| c).collect();
        for channel in channels {
            let writers = |direction| self.env_writers.get(&(channel.clone(), direction));
            let mut members: Vec<(RuleId, EnvDirection)> = [EnvDirection::Up, EnvDirection::Down]
                .into_iter()
                .flat_map(|d| writers(d).into_iter().flatten().map(move |&id| (id, d)))
                .collect();
            members.sort_unstable();
            for (a_id, da) in members {
                let Some(na) = self.nodes.get(&a_id) else {
                    continue;
                };
                let Some(a) = db.get(a_id) else { continue };
                let Some(opposing) = writers(da.opposite()) else {
                    continue;
                };
                for &b_id in opposing.range((Bound::Excluded(a_id), Bound::Unbounded)) {
                    let Some(nb) = self.nodes.get(&b_id) else {
                        continue;
                    };
                    if nb.device == na.device {
                        continue;
                    }
                    if self.cosatisfiable(db, a, na, b_id)? {
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

/// The rules a node's action can trigger, in ascending id order: the
/// merge of its reader sets without duplicates, skipping the node itself.
struct Successors<'g> {
    sources: Vec<Peekable<btree_set::Iter<'g, RuleId>>>,
    skip: RuleId,
}

impl Iterator for Successors<'_> {
    type Item = RuleId;

    fn next(&mut self) -> Option<RuleId> {
        loop {
            let id = self
                .sources
                .iter_mut()
                .filter_map(|source| source.peek().map(|id| **id))
                .min()?;
            for source in &mut self.sources {
                source.next_if_eq(&&id);
            }
            if id != self.skip {
                return Some(id);
            }
        }
    }
}

/// The shadowing/redundancy verdict for one pair, trying `a ⇒ b` first,
/// then `b ⇒ a`. Same-device pairs with equal actions are redundancy,
/// pairs with conflicting actions are shadowing. A node without
/// witnesses (a solver error at build) reports nothing.
fn shadow_verdict(
    a: &Rule,
    an: &NodeInfo,
    b: &Rule,
    bn: &NodeInfo,
) -> Result<Option<Advisory>, ConflictError> {
    let (Some(aw), Some(bw)) = (&an.witnesses, &bn.witnesses) else {
        return Ok(None);
    };
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
    if condition_implies(a, &an.systems, aw, b, &bn.systems)? {
        return Ok(Some(classify(a, b)));
    }
    if condition_implies(b, &bn.systems, bw, a, &an.systems)? {
        return Ok(Some(classify(b, a)));
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{check_consistency, find_conflicts};
    use cadel_rule::{ActionSpec, Condition, ConstraintAtom, StateAtom, Verb};
    use cadel_types::{PersonId, Quantity, SimDuration, Unit, Value};

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

    fn assert_agrees_with_brute_force(db: &RuleDb, probe: &Rule) -> GraphReport {
        let brute = find_conflicts(db, probe).unwrap();
        let graph = ConflictGraph::default().analyze(db, probe).unwrap();
        let key = |c: &Conflict| (c.rule_a(), c.rule_b(), c.conjunct_a(), c.conjunct_b());
        assert_eq!(
            brute.iter().map(key).collect::<Vec<_>>(),
            graph.conflicts.iter().map(key).collect::<Vec<_>>(),
        );
        assert_eq!(graph.consistency, check_consistency(probe).unwrap());
        graph
    }

    #[test]
    fn shared_sensor_pairs_agree_with_brute_force() {
        // The paper's aircon trio plus a sub-zero rule: all share the
        // thermometer, so every pair takes the solver path.
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
        db.insert(rule(102, temp(RelOp::Lt, 0), aircon_set(20)))
            .unwrap();
        let probe = rule(
            200,
            temp(RelOp::Gt, 26).and(humid(RelOp::Gt, 65)),
            aircon_set(25),
        );
        let report = assert_agrees_with_brute_force(&db, &probe);
        let partners: Vec<u64> = report.conflicts.iter().map(|c| c.rule_b().raw()).collect();
        assert_eq!(partners, vec![100, 101]);
        // The merged solve unifies shared sensors like the oracle's
        // shared `VarPool`: witness ordering and content match too.
        let brute = find_conflicts(&db, &probe).unwrap();
        assert_eq!(brute, report.conflicts);
        assert_eq!(report.conflicts[0].witness().len(), 2);
    }

    #[test]
    fn uncompilable_probe_is_an_error() {
        // A probe whose conjunct clashes dimensions cannot be stored;
        // `analyze` refuses it exactly where the oracles do.
        let mut db = RuleDb::new();
        db.insert(rule(100, temp(RelOp::Gt, 25), aircon_set(27)))
            .unwrap();
        let reading = |n, unit| sensor("multi", "reading", RelOp::Gt, n, unit);
        let clash = reading(26, Unit::Celsius).and(reading(60, Unit::Percent));
        let probe = rule(300, clash, aircon_set(24));
        assert!(find_conflicts(&db, &probe).is_err());
        assert!(check_consistency(&probe).is_err());
        let err = ConflictGraph::default().analyze(&db, &probe).unwrap_err();
        assert!(matches!(
            err,
            ConflictError::Rule(RuleError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn inconsistent_probe_is_analyzed_no_further() {
        let mut db = RuleDb::new();
        db.insert(rule(100, temp(RelOp::Gt, 25), aircon_set(24)))
            .unwrap();
        let dead = temp(RelOp::Gt, 30).and(temp(RelOp::Lt, 20));
        let mut graph = ConflictGraph::default();
        let report = graph
            .analyze(&db, &rule(200, dead, aircon_set(25)))
            .unwrap();
        assert!(!report.consistency.is_satisfiable());
        assert!(report.conflicts.is_empty() && report.advisories.is_empty());
        // The verdict comes before the graph syncs with the database.
        assert_eq!(graph.node_count(), 0);
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
    fn held_for_dwell_is_not_dropped_from_implication() {
        let held = |op, n, minutes| {
            let Condition::Atom(atom) = temp(op, n) else {
                unreachable!()
            };
            Condition::Atom(Atom::held_for(atom, SimDuration::from_minutes(minutes)))
        };
        let implied = |db: &RuleDb, probe: Rule| {
            let mut both = db.clone();
            let report = ConflictGraph::default().analyze(db, &probe).unwrap();
            both.insert(probe).unwrap();
            let sweep = ConflictGraph::default().advisories(&both).unwrap();
            let implications = |a: &Advisory| {
                matches!(a, Advisory::Shadowing { .. } | Advisory::Redundancy { .. })
            };
            let found: Vec<Advisory> = report.advisories.into_iter().filter(implications).collect();
            assert_eq!(
                found,
                sweep.into_iter().filter(implications).collect::<Vec<_>>()
            );
            found
        };
        // Stored: t > 25 held for 10 minutes. It does not fire during its
        // first 10 minutes above 25, so none of these probes is implied.
        let mut db = RuleDb::new();
        db.insert(rule(20, held(RelOp::Gt, 25, 10), aircon_set(27)))
            .unwrap();
        assert_eq!(
            implied(&db, rule(21, temp(RelOp::Gt, 30), aircon_set(27))),
            []
        );
        assert_eq!(
            implied(&db, rule(22, temp(RelOp::Gt, 30), aircon_set(22))),
            []
        );
        assert_eq!(
            implied(&db, rule(23, held(RelOp::Gt, 30, 5), aircon_set(27))),
            []
        );
        // Sound: t > 30 held for 10 minutes does imply t > 25.
        let mut db = RuleDb::new();
        db.insert(rule(30, temp(RelOp::Gt, 25), aircon_set(27)))
            .unwrap();
        assert_eq!(
            implied(&db, rule(31, held(RelOp::Gt, 30, 10), aircon_set(27))),
            [Advisory::Redundancy {
                rule: RuleId::new(31),
                duplicate_of: RuleId::new(30),
            }]
        );
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
        // Disabling drops the conflict and the node.
        let rule = db.get(RuleId::new(50)).unwrap().clone();
        db.replace(rule.clone().with_enabled(false)).unwrap();
        assert!(graph.analyze(&db, &probe).unwrap().conflicts.is_empty());
        assert_eq!(graph.node_count(), 0);
        // Re-enabling builds it again; removal drops it.
        db.replace(rule).unwrap();
        assert_eq!(graph.analyze(&db, &probe).unwrap().conflicts.len(), 1);
        assert_eq!(graph.node_count(), 1);
        db.remove(RuleId::new(50)).unwrap();
        assert!(graph.analyze(&db, &probe).unwrap().conflicts.is_empty());
        assert_eq!(graph.node_count(), 0);
    }

    #[test]
    fn an_unchanged_base_rebuilds_nothing() {
        let mut db = RuleDb::new();
        db.insert(rule(70, temp(RelOp::Gt, 25), aircon_set(24)))
            .unwrap();
        let mut graph = ConflictGraph::default();
        graph.sync(&db);
        let built = graph.nodes[&RuleId::new(70)].revision;
        assert_eq!(db.changes_since(graph.cursor.unwrap()).unwrap().count(), 0);
        graph.sync(&db);
        assert_eq!(graph.nodes[&RuleId::new(70)].revision, built);
        // A clone is another database: the graph rescans it, and keeps
        // the nodes whose revision the clone shares.
        let clone = db.clone();
        graph.sync(&clone);
        assert_eq!(graph.node_count(), 1);
        assert_eq!(graph.cursor, Some(clone.cursor()));
    }

    /// A seeded xorshift generator for the churn test.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }

        fn chance(&mut self, percent: u64) -> bool {
            self.below(100) < percent
        }
    }

    /// The default table plus a doorbell that raises an event channel,
    /// so every trigger-edge kind appears.
    fn churn_env() -> EnvTable {
        EnvTable::default_home().with_entry("doorbell", Verb::TurnOn, &[], &["visitor"])
    }

    fn churn_atom(rng: &mut Rng) -> Condition {
        match rng.below(8) {
            0 => Condition::Atom(Atom::State(StateAtom::new(
                DeviceId::new(["tv", "stereo", "doorbell"][rng.below(3) as usize]),
                "power",
                Value::Bool(rng.chance(50)),
            ))),
            1 => Condition::Atom(Atom::Event(cadel_rule::EventAtom::new("visitor", "ring"))),
            n => {
                let (device, variable, unit) = [
                    ("thermo", "temperature", Unit::Celsius),
                    ("hygro", "humidity", Unit::Percent),
                    ("lux", "luminance", Unit::Unitless),
                ][(n % 3) as usize];
                let op = [RelOp::Lt, RelOp::Gt, RelOp::Ge][rng.below(3) as usize];
                sensor(device, variable, op, rng.below(40) as i64, unit)
            }
        }
    }

    fn churn_rule(rng: &mut Rng, id: u64) -> Rule {
        let mut cond = churn_atom(rng);
        if rng.chance(50) {
            cond = cond.and(churn_atom(rng));
        }
        if rng.chance(20) {
            cond = cond.or(churn_atom(rng));
        }
        let devices = [
            "aircon-1",
            "aircon-2",
            "heater-1",
            "window-a",
            "humidifier-1",
            "lamp-1",
            "tv",
            "stereo",
            "doorbell",
        ];
        let device = DeviceId::new(devices[rng.below(devices.len() as u64) as usize]);
        let verb = if rng.chance(75) {
            Verb::TurnOn
        } else {
            Verb::TurnOff
        };
        let mut action = ActionSpec::new(device, verb);
        if rng.chance(50) {
            let level = Quantity::from_integer(rng.below(3) as i64, Unit::Unitless);
            action = action.with_setting("level", level);
        }
        Rule::builder(PersonId::new("tester"))
            .condition(cond)
            .action(action)
            .enabled(rng.chance(85))
            .build(RuleId::new(id))
            .unwrap()
    }

    /// The environmental advisories of a probe and of the sweep, found by
    /// scanning every node instead of the direction-keyed writers.
    fn scanned_environmental(
        graph: &ConflictGraph,
        db: &RuleDb,
        probe: &Rule,
        pnode: &NodeInfo,
    ) -> (Vec<Advisory>, Vec<Advisory>) {
        let mut ids: Vec<RuleId> = graph.nodes.keys().copied().collect();
        ids.sort_unstable();
        let direction_of = |node: &NodeInfo, channel: &String| {
            node.effects.iter().find(|(c, _)| c == channel).map(|e| e.1)
        };
        let mut probed = Vec::new();
        for (channel, direction) in &pnode.effects {
            for &id in &ids {
                let node = &graph.nodes[&id];
                let opposes = direction_of(node, channel).is_some_and(|d| direction.opposes(d));
                if id != probe.id()
                    && opposes
                    && node.device != pnode.device
                    && graph.cosatisfiable(db, probe, pnode, id).unwrap()
                {
                    probed.push(Advisory::Environmental {
                        rule_a: probe.id(),
                        rule_b: id,
                        channel: channel.clone(),
                    });
                }
            }
        }
        let channels: BTreeSet<&String> = graph
            .nodes
            .values()
            .flat_map(|n| n.effects.iter().map(|(c, _)| c))
            .collect();
        let mut swept = Vec::new();
        for channel in channels {
            for (i, &a) in ids.iter().enumerate() {
                let na = &graph.nodes[&a];
                let Some(da) = direction_of(na, channel) else {
                    continue;
                };
                for &b in &ids[i + 1..] {
                    let nb = &graph.nodes[&b];
                    let opposes = direction_of(nb, channel).is_some_and(|d| da.opposes(d));
                    if opposes
                        && na.device != nb.device
                        && graph.cosatisfiable(db, db.get(a).unwrap(), na, b).unwrap()
                    {
                        swept.push(Advisory::Environmental {
                            rule_a: a,
                            rule_b: b,
                            channel: channel.clone(),
                        });
                    }
                }
            }
        }
        (probed, swept)
    }

    fn environmental(advisories: &[Advisory]) -> Vec<Advisory> {
        advisories
            .iter()
            .filter(|a| a.class() == ConflictClass::Environmental)
            .cloned()
            .collect()
    }

    /// What the churn test compared, so it can assert that the generator
    /// reaches every path.
    #[derive(Default)]
    struct Seen {
        loops: usize,
        chains: usize,
        rescans: usize,
        environmental: usize,
    }

    /// A long-lived graph against a fresh one on `db`: the same report for
    /// `probe` and the same sweep, a node for each enabled rule,
    /// environmental advisories equal to a scan of every node, and the
    /// lazy chain walk equal to the eager one from the probe and from
    /// every enabled stored rule, the only rules any caller walks from.
    fn check_against_fresh(
        graph: &mut ConflictGraph,
        db: &RuleDb,
        probe: &Rule,
        context: &str,
        seen: &mut Seen,
    ) {
        if graph.cursor.and_then(|c| db.changes_since(c)).is_none() {
            seen.rescans += 1;
        }
        let mut fresh = ConflictGraph::new(churn_env());
        let kept = graph.analyze(db, probe).unwrap();
        let anew = fresh.analyze(db, probe).unwrap();
        assert_eq!(kept.consistency, anew.consistency, "{context}");
        assert_eq!(kept.conflicts, anew.conflicts, "{context}");
        assert_eq!(kept.advisories, anew.advisories, "{context}");
        let swept = graph.advisories(db).unwrap();
        assert_eq!(swept, fresh.advisories(db).unwrap(), "{context}");
        let enabled: Vec<&Rule> = db.iter().filter(|rule| rule.is_enabled()).collect();
        assert_eq!(graph.node_count(), enabled.len(), "{context}");

        let (pnode, _) = graph.probe_node(probe).unwrap();
        if kept.consistency.is_satisfiable() {
            let (probed, scanned) = scanned_environmental(graph, db, probe, &pnode);
            assert_eq!(environmental(&kept.advisories), probed, "{context}");
            assert_eq!(environmental(&swept), scanned, "{context}");
            seen.environmental += probed.len() + scanned.len();
        }
        let stored = enabled
            .into_iter()
            .map(|rule| (rule, &graph.nodes[&rule.id()]));
        for (from, node) in std::iter::once((probe, &pnode)).chain(stored) {
            let (mut lazy, mut eager) = (Vec::new(), Vec::new());
            graph.probe_chains(from, node, &mut lazy);
            graph.probe_chains_eager(from, node, &mut eager);
            assert_eq!(lazy, eager, "{context}, walk from {}", from.id());
            for advisory in lazy {
                match advisory.class() {
                    ConflictClass::Loop => seen.loops += 1,
                    _ => seen.chains += 1,
                }
            }
        }
    }

    #[test]
    fn a_long_lived_graph_follows_churn_like_a_fresh_one() {
        let mut seen = Seen::default();
        for seed in 0..40u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
            let mut db = RuleDb::new();
            let mut graph = ConflictGraph::new(churn_env());
            let mut next_id = 1u64;
            for _ in 0..12 {
                db.insert(churn_rule(&mut rng, next_id)).unwrap();
                next_id += 1;
            }
            for step in 0..60u64 {
                let live: Vec<RuleId> = db.iter().map(Rule::id).collect();
                let pick = |rng: &mut Rng| live[rng.below(live.len() as u64) as usize];
                let op = rng.below(20);
                let context = format!("seed {seed}, step {step}, op {op}");
                match op {
                    _ if live.is_empty() || op < 6 => {
                        db.insert(churn_rule(&mut rng, next_id)).unwrap();
                        next_id += 1;
                    }
                    6..=9 => {
                        let id = pick(&mut rng);
                        db.replace(churn_rule(&mut rng, id.raw())).unwrap();
                    }
                    10..=12 => {
                        let id = pick(&mut rng);
                        let rule = db.get(id).unwrap().clone();
                        let enabled = rule.is_enabled();
                        db.replace(rule.with_enabled(!enabled)).unwrap();
                    }
                    13..=15 => {
                        db.remove(pick(&mut rng)).unwrap();
                    }
                    16..=17 => {
                        // A clone and its original diverge by one change
                        // each, so both stand at the same version. The
                        // graph sees the clone, then one of the two.
                        let mut fork = db.clone();
                        fork.insert(churn_rule(&mut rng, next_id)).unwrap();
                        db.insert(churn_rule(&mut rng, next_id + 1)).unwrap();
                        next_id += 2;
                        let probe = churn_rule(&mut rng, 100_000 + step);
                        let at = format!("{context}, clone");
                        check_against_fresh(&mut graph, &fork, &probe, &at, &mut seen);
                        if rng.chance(50) {
                            db = fork;
                        }
                    }
                    _ => {
                        // More changes than the log holds, ending where
                        // one rule is replaced for good.
                        let id = pick(&mut rng);
                        let rule = db.get(id).unwrap().clone();
                        for _ in 0..=cadel_rule::CHANGE_LOG_CAPACITY {
                            db.replace(rule.clone()).unwrap();
                        }
                        db.replace(churn_rule(&mut rng, id.raw())).unwrap();
                    }
                }
                // Probe with a new rule, or re-probe a live one (customize).
                let probe = if rng.chance(70) || db.is_empty() {
                    churn_rule(&mut rng, 100_000 + step)
                } else {
                    let live: Vec<&Rule> = db.iter().collect();
                    let rule = live[rng.below(live.len() as u64) as usize];
                    churn_rule(&mut rng, rule.id().raw())
                };
                check_against_fresh(&mut graph, &db, &probe, &context, &mut seen);
            }
        }
        // The generator reaches every path the comparison covers.
        let Seen {
            loops,
            chains,
            rescans,
            environmental,
        } = seen;
        assert!(
            loops > 1_000 && chains > 100,
            "loops {loops}, chains {chains}"
        );
        assert!(rescans > 40, "rescans {rescans}");
        assert!(environmental > 100, "environmental {environmental}");
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
