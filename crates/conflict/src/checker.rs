//! Incremental conflict detection over precompiled rule programs.
//!
//! [`find_conflicts`](crate::find_conflicts), the brute-force oracle,
//! recompiles every constraint system from the AST on each call. At
//! registration time that cost is paid once per *pair* of same-device
//! rules, every time any rule is added — the E2 workload grows
//! quadratically. [`ConflictChecker`] removes both redundancies:
//!
//! * **Precompiled systems.** Every rule the [`RuleDb`] stores has a
//!   compiled [`RuleProgram`]; its per-conjunct constraint systems are
//!   reused as-is, and joining two conjuncts is a variable-remap
//!   ([`merge_conjuncts`]) instead of two AST walks through a fresh
//!   `VarPool`.
//! * **Memoized verdicts.** Pairwise results are cached under
//!   `(rule, revision, rule, revision)`. The database stamps a fresh
//!   revision whenever a rule is (re)stored, so a cache hit is always
//!   current; re-registering a changed rule naturally misses.
//!
//! The cache is **bounded**: past [`ConflictChecker::capacity`] entries a
//! generation sweep drops the least-recently-used half
//! (`conflict_memo_evicted_total`), and [`ConflictChecker::evict_rule`]
//! drops every verdict touching a removed rule so churn cannot grow the
//! map without bound.
//!
//! A probe whose conjuncts do not compile (a dimension clash inside one
//! rule) is an error from [`ConflictChecker::probe_context`]; registration
//! refuses such a rule in [`check_consistency`](crate::check_consistency)
//! before any pair is checked.
//!
//! The per-pair entry points ([`ConflictChecker::probe_context`] +
//! [`ConflictChecker::check_pair`]) are the decision procedure under the
//! [`ConflictGraph`](crate::ConflictGraph): the graph prunes candidate
//! pairs by footprint and hands only the survivors here.

use crate::check::Conflict;
use crate::discrete::discrete_compatible;
use crate::error::ConflictError;
use cadel_ir::{merge_conjuncts, CompiledConjunct, RuleProgram};
use cadel_obs::LazyCounter;
use cadel_rule::{compile_conjuncts, Rule, RuleDb, RuleError};
use cadel_simplex::{solve, Solution};
use cadel_types::RuleId;
use std::collections::HashMap;
use std::sync::Arc;

/// Same-device rule pairs decided.
static PAIR_CHECKS: LazyCounter = LazyCounter::new("conflict_pair_checks_total");
/// Pairs answered from the memo cache.
static MEMO_HITS: LazyCounter = LazyCounter::new("conflict_memo_hits_total");
/// Pairs that had to be computed by the solver.
static MEMO_MISSES: LazyCounter = LazyCounter::new("conflict_memo_misses_total");
/// Computed pair verdicts that found a conflict.
static PAIRS_CONFLICTING: LazyCounter = LazyCounter::new("conflict_pairs_conflicting_total");
/// Memoized verdicts dropped by eviction (rule removal or cache sweep).
static MEMO_EVICTED: LazyCounter = LazyCounter::new("conflict_memo_evicted_total");

/// Default bound on memoized pairwise verdicts.
pub const DEFAULT_CACHE_CAPACITY: usize = 1 << 16;

#[derive(Clone, Debug)]
struct CacheEntry {
    verdict: Option<Conflict>,
    last_used: u64,
}

/// The compiled view of one probe rule, prepared once per scan by
/// [`ConflictChecker::probe_context`] and reused across
/// [`ConflictChecker::check_pair`] calls.
#[derive(Debug)]
pub struct ProbeContext<'a> {
    probe: &'a Rule,
    /// The database revision when the probe is stored there unchanged
    /// (enables memoization); `None` for an unstored/modified probe.
    rev: Option<u64>,
    systems: ProbeSystems,
}

/// Where a probe's conjunct systems come from.
#[derive(Debug)]
enum ProbeSystems {
    /// The probe is stored unchanged: its program's systems.
    Stored(Arc<RuleProgram>),
    /// An unstored or modified probe, compiled once for the scan.
    Compiled(Vec<CompiledConjunct>),
}

impl ProbeContext<'_> {
    fn conjuncts(&self) -> &[CompiledConjunct] {
        match &self.systems {
            ProbeSystems::Stored(program) => program.conjuncts(),
            ProbeSystems::Compiled(conjuncts) => conjuncts,
        }
    }
}

/// A conflict detector that reuses precompiled constraint systems and
/// memoizes pairwise verdicts across registrations.
///
/// Hold one checker alongside the [`RuleDb`] whose rules it checks; the
/// cache is keyed by the database's per-artifact revision stamps, so it
/// stays correct across removals and re-inserts without explicit
/// invalidation. Stale entries die by revision mismatch, are swept once
/// the cache outgrows its [`capacity`](ConflictChecker::capacity), and
/// can be dropped eagerly with [`ConflictChecker::evict_rule`].
#[derive(Clone, Debug)]
pub struct ConflictChecker {
    cache: HashMap<(RuleId, u64, RuleId, u64), CacheEntry>,
    capacity: usize,
    tick: u64,
}

impl Default for ConflictChecker {
    fn default() -> ConflictChecker {
        ConflictChecker::with_capacity(DEFAULT_CACHE_CAPACITY)
    }
}

impl ConflictChecker {
    /// Creates a checker with an empty verdict cache bounded at
    /// [`DEFAULT_CACHE_CAPACITY`] pairs.
    pub fn new() -> ConflictChecker {
        ConflictChecker::default()
    }

    /// Creates a checker whose memo cache holds at most `capacity`
    /// verdicts (0 disables memoization entirely).
    pub fn with_capacity(capacity: usize) -> ConflictChecker {
        ConflictChecker {
            cache: HashMap::new(),
            capacity,
            tick: 0,
        }
    }

    /// Number of memoized pairwise verdicts.
    pub fn cached_pairs(&self) -> usize {
        self.cache.len()
    }

    /// The bound on memoized verdicts.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Drops all memoized verdicts.
    pub fn clear(&mut self) {
        self.cache.clear();
    }

    /// Drops every memoized verdict involving `id` (either side of the
    /// pair). Call on rule removal so churn cannot grow the cache with
    /// dead entries. Returns the number of verdicts dropped.
    pub fn evict_rule(&mut self, id: RuleId) -> usize {
        let before = self.cache.len();
        self.cache.retain(|(a, _, b, _), _| *a != id && *b != id);
        let evicted = before - self.cache.len();
        MEMO_EVICTED.add(evicted as u64);
        evicted
    }

    /// Prepares the compiled view of `probe` for a scan: the stored
    /// program (and its revision, enabling memoization) when `db` holds
    /// the probe unchanged, a one-shot compilation of its conjunct systems
    /// otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`ConflictError::Rule`] when an unstored probe's conjuncts
    /// do not compile (a dimension clash inside one conjunct).
    pub fn probe_context<'a>(
        &self,
        db: &RuleDb,
        probe: &'a Rule,
    ) -> Result<ProbeContext<'a>, ConflictError> {
        // The probe is cacheable only when the database holds this exact
        // rule: its revision then keys the verdict. An unstored (or
        // since-modified) probe gets a one-shot compilation instead.
        let stored = match db.get(probe.id()) {
            Some(stored) if stored == probe => db.revision(probe.id()).zip(db.program(probe.id())),
            _ => None,
        };
        let (rev, systems) = match stored {
            Some((rev, program)) => (Some(rev), ProbeSystems::Stored(Arc::clone(program))),
            None => (None, ProbeSystems::Compiled(compile_conjuncts(probe)?)),
        };
        Ok(ProbeContext {
            probe,
            rev,
            systems,
        })
    }

    /// Decides one probe/existing pair: memoized verdict when both
    /// revisions are known, a solve over the precompiled systems
    /// otherwise. Semantics match [`check_conflict`](crate::check_conflict)
    /// exactly.
    ///
    /// The caller is responsible for candidate selection (same device,
    /// enabled, not the probe itself, stored in `db`) — this is the
    /// per-edge decision procedure under the conflict graph.
    ///
    /// # Errors
    ///
    /// Returns [`ConflictError`] on solver overflow or dimension mismatch,
    /// and [`RuleError::UnknownRule`] when `existing` is not stored in
    /// `db`.
    pub fn check_pair(
        &mut self,
        db: &RuleDb,
        ctx: &ProbeContext<'_>,
        existing: &Rule,
    ) -> Result<Option<Conflict>, ConflictError> {
        PAIR_CHECKS.inc();
        self.tick += 1;
        let probe = ctx.probe;
        let existing_rev = db.revision(existing.id());
        let key = match (ctx.rev, existing_rev) {
            (Some(pr), Some(er)) => Some((probe.id(), pr, existing.id(), er)),
            _ => None,
        };
        if let Some(key) = key {
            if let Some(entry) = self.cache.get_mut(&key) {
                MEMO_HITS.inc();
                entry.last_used = self.tick;
                return Ok(entry.verdict.clone());
            }
        }
        MEMO_MISSES.inc();
        let existing_program = db
            .program(existing.id())
            .ok_or(RuleError::UnknownRule(existing.id()))?;
        let verdict = check_conflict_compiled(
            probe,
            ctx.conjuncts(),
            existing,
            existing_program.conjuncts(),
        )?;
        if verdict.is_some() {
            PAIRS_CONFLICTING.inc();
        }
        if let Some(key) = key {
            self.insert_verdict(key, verdict.clone());
        }
        Ok(verdict)
    }

    fn insert_verdict(&mut self, key: (RuleId, u64, RuleId, u64), verdict: Option<Conflict>) {
        if self.capacity == 0 {
            return;
        }
        if self.cache.len() >= self.capacity {
            self.sweep();
        }
        self.cache.insert(
            key,
            CacheEntry {
                verdict,
                last_used: self.tick,
            },
        );
    }

    /// Generation sweep: drops at least the least-recently-used half of
    /// the cache so the map stays bounded under churn.
    fn sweep(&mut self) {
        let mut ticks: Vec<u64> = self.cache.values().map(|e| e.last_used).collect();
        ticks.sort_unstable();
        let cutoff = ticks[ticks.len() / 2];
        let before = self.cache.len();
        self.cache.retain(|_, e| e.last_used > cutoff);
        MEMO_EVICTED.add((before - self.cache.len()) as u64);
    }
}

/// Pairwise conflict check over precompiled conjunct systems; semantics
/// identical to [`check_conflict`](crate::check_conflict).
///
/// `a_sys` / `b_sys` must be the compiled systems of `a` / `b`, aligned
/// index-for-index with each rule's DNF (as produced by
/// [`compile_conjuncts`] or stored in a [`RuleProgram`]).
fn check_conflict_compiled(
    a: &Rule,
    a_sys: &[CompiledConjunct],
    b: &Rule,
    b_sys: &[CompiledConjunct],
) -> Result<Option<Conflict>, ConflictError> {
    if !a.action().conflicts_with(b.action()) {
        return Ok(None);
    }
    debug_assert_eq!(a.dnf().conjuncts().len(), a_sys.len());
    debug_assert_eq!(b.dnf().conjuncts().len(), b_sys.len());
    for (i, (ca, ca_sys)) in a.dnf().conjuncts().iter().zip(a_sys).enumerate() {
        for (j, (cb, cb_sys)) in b.dnf().conjuncts().iter().zip(b_sys).enumerate() {
            let atoms = ca.atoms().iter().chain(cb.atoms().iter());
            if !discrete_compatible(atoms) {
                continue;
            }
            // The merge unifies shared sensors exactly like a shared
            // VarPool would, with a's variables first — so the witness
            // ordering matches the brute-force oracle.
            let (system, keys) = merge_conjuncts(ca_sys, cb_sys).map_err(RuleError::from)?;
            if let Solution::Feasible(assignment) = solve(&system)? {
                let witness = keys
                    .into_iter()
                    .zip(assignment.iter())
                    .map(|(key, value)| (key, *value))
                    .collect();
                return Ok(Some(Conflict::new(a.id(), b.id(), i, j, witness)));
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::find_conflicts;
    use cadel_rule::{ActionSpec, Atom, Condition, ConstraintAtom, Verb};
    use cadel_simplex::RelOp;
    use cadel_types::{DeviceId, PersonId, Quantity, SensorKey, Unit};

    fn temp(op: RelOp, n: i64) -> Condition {
        Condition::Atom(Atom::Constraint(ConstraintAtom::new(
            SensorKey::new(DeviceId::new("thermo"), "temperature"),
            op,
            Quantity::from_integer(n, Unit::Celsius),
        )))
    }

    fn humid(op: RelOp, n: i64) -> Condition {
        Condition::Atom(Atom::Constraint(ConstraintAtom::new(
            SensorKey::new(DeviceId::new("hygro"), "humidity"),
            op,
            Quantity::from_integer(n, Unit::Percent),
        )))
    }

    fn aircon_at(owner: &str, setpoint: i64, cond: Condition, id: u64) -> Rule {
        Rule::builder(PersonId::new(owner))
            .condition(cond)
            .action(
                ActionSpec::new(DeviceId::new("aircon"), Verb::TurnOn).with_setting(
                    "temperature",
                    Quantity::from_integer(setpoint, Unit::Celsius),
                ),
            )
            .build(RuleId::new(id))
            .unwrap()
    }

    /// Every enabled same-device rule in `db` that conflicts with `probe`,
    /// decided pair by pair through the checker — the scan the conflict
    /// graph performs before footprint pruning.
    fn scan(
        checker: &mut ConflictChecker,
        db: &RuleDb,
        probe: &Rule,
    ) -> Result<Vec<Conflict>, ConflictError> {
        let ctx = checker.probe_context(db, probe)?;
        let mut conflicts = Vec::new();
        for existing in db.rules_for_device(probe.action().device()) {
            if existing.id() != probe.id() && existing.is_enabled() {
                conflicts.extend(checker.check_pair(db, &ctx, existing)?);
            }
        }
        Ok(conflicts)
    }

    /// Tom's rule from the paper, conflicting with Alan's and Emily's.
    fn paper_tom() -> Rule {
        aircon_at(
            "tom",
            25,
            temp(RelOp::Gt, 26).and(humid(RelOp::Gt, 65)),
            200,
        )
    }

    fn paper_db() -> RuleDb {
        let mut db = RuleDb::new();
        db.insert(aircon_at(
            "alan",
            24,
            temp(RelOp::Gt, 25).and(humid(RelOp::Gt, 60)),
            100,
        ))
        .unwrap();
        db.insert(aircon_at(
            "emily",
            27,
            temp(RelOp::Gt, 29).and(humid(RelOp::Gt, 75)),
            101,
        ))
        .unwrap();
        db.insert(aircon_at("x", 20, temp(RelOp::Lt, 0), 102))
            .unwrap();
        db
    }

    #[test]
    fn checker_agrees_with_plain_find_conflicts() {
        let db = paper_db();
        let tom = paper_tom();
        let plain = find_conflicts(&db, &tom).unwrap();
        let compiled = scan(&mut ConflictChecker::new(), &db, &tom).unwrap();
        assert_eq!(plain, compiled);
        let partners: Vec<u64> = compiled.iter().map(|c| c.rule_b().raw()).collect();
        assert_eq!(partners, vec![100, 101]);
        // Witness ordering and content match the shared-VarPool path too.
        assert_eq!(plain[0].witness(), compiled[0].witness());
        assert_eq!(compiled[0].witness().len(), 2);
    }

    #[test]
    fn unstored_probe_is_not_cached() {
        let db = paper_db();
        let tom = paper_tom();
        let mut checker = ConflictChecker::new();
        scan(&mut checker, &db, &tom).unwrap();
        assert_eq!(checker.cached_pairs(), 0);
    }

    #[test]
    fn stored_probe_memoizes_and_replays() {
        let mut db = paper_db();
        let tom = paper_tom();
        db.insert(tom.clone()).unwrap();
        let mut checker = ConflictChecker::new();
        let first = scan(&mut checker, &db, &tom).unwrap();
        assert_eq!(checker.cached_pairs(), 3); // one verdict per partner
        let second = scan(&mut checker, &db, &tom).unwrap();
        assert_eq!(first, second);
        assert_eq!(checker.cached_pairs(), 3); // pure replay, no growth
    }

    #[test]
    fn reinserting_a_changed_rule_misses_the_cache() {
        let mut db = paper_db();
        let tom = paper_tom();
        db.insert(tom.clone()).unwrap();
        let mut checker = ConflictChecker::new();
        assert_eq!(scan(&mut checker, &db, &tom).unwrap().len(), 2);

        // Replace Tom's rule with a condition disjoint from every stored
        // band (t>25, t>29, t<0): the fresh revision keys new cache
        // entries and the verdicts flip.
        let mild_tom = aircon_at("tom", 25, temp(RelOp::Gt, 10).and(temp(RelOp::Lt, 20)), 200);
        db.remove(RuleId::new(200)).unwrap();
        db.insert(mild_tom.clone()).unwrap();
        assert!(scan(&mut checker, &db, &mild_tom).unwrap().is_empty());
        checker.clear();
        assert_eq!(checker.cached_pairs(), 0);
    }

    #[test]
    fn uncompilable_probe_is_an_error() {
        // A probe whose conjunct clashes dimensions cannot be stored, and
        // the checker refuses it exactly where the oracle does.
        let db = paper_db();
        let clash = Condition::Atom(Atom::Constraint(ConstraintAtom::new(
            SensorKey::new(DeviceId::new("multi"), "reading"),
            RelOp::Gt,
            Quantity::from_integer(26, Unit::Celsius),
        )))
        .and(Condition::Atom(Atom::Constraint(ConstraintAtom::new(
            SensorKey::new(DeviceId::new("multi"), "reading"),
            RelOp::Gt,
            Quantity::from_integer(60, Unit::Percent),
        ))));
        let probe = aircon_at("alan", 24, clash, 300);
        assert!(find_conflicts(&db, &probe).is_err());
        let err = ConflictChecker::new()
            .probe_context(&db, &probe)
            .unwrap_err();
        assert!(matches!(
            err,
            ConflictError::Rule(RuleError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn unstored_existing_rule_is_an_error() {
        let db = paper_db();
        let tom = aircon_at("tom", 25, temp(RelOp::Gt, 26), 200);
        let ghost = aircon_at("ghost", 20, temp(RelOp::Gt, 20), 999);
        let mut checker = ConflictChecker::new();
        let ctx = checker.probe_context(&db, &tom).unwrap();
        assert_eq!(
            checker.check_pair(&db, &ctx, &ghost).unwrap_err(),
            ConflictError::Rule(RuleError::UnknownRule(RuleId::new(999)))
        );
    }

    #[test]
    fn evict_rule_drops_both_sides_of_the_pair() {
        let mut db = paper_db();
        let tom = paper_tom();
        db.insert(tom.clone()).unwrap();
        let mut checker = ConflictChecker::new();
        scan(&mut checker, &db, &tom).unwrap();
        assert_eq!(checker.cached_pairs(), 3);
        // Evicting a partner drops only its pair; evicting the probe
        // drops the rest.
        assert_eq!(checker.evict_rule(RuleId::new(100)), 1);
        assert_eq!(checker.cached_pairs(), 2);
        assert_eq!(checker.evict_rule(RuleId::new(200)), 2);
        assert_eq!(checker.cached_pairs(), 0);
    }

    #[test]
    fn churn_holds_the_cache_bounded() {
        // Register/remove churn across fresh revisions: an unbounded memo
        // map would grow by 3 entries per iteration (the dead revisions
        // never hit again); the bounded cache sweeps instead.
        let mut checker = ConflictChecker::with_capacity(8);
        let mut db = paper_db();
        for round in 0..50u64 {
            let tom = aircon_at(
                "tom",
                25,
                temp(RelOp::Gt, 26 + (round as i64 % 5)).and(humid(RelOp::Gt, 65)),
                200,
            );
            db.insert(tom.clone()).unwrap();
            scan(&mut checker, &db, &tom).unwrap();
            db.remove(RuleId::new(200)).unwrap();
            checker.evict_rule(RuleId::new(200));
            assert!(
                checker.cached_pairs() <= checker.capacity(),
                "cache grew past its bound: {} > {}",
                checker.cached_pairs(),
                checker.capacity()
            );
        }
    }

    #[test]
    fn sweep_keeps_recent_verdicts_usable() {
        // With a capacity smaller than one scan's pair count, the checker
        // still answers correctly — eviction affects cost, not verdicts.
        let mut db = paper_db();
        let tom = paper_tom();
        db.insert(tom.clone()).unwrap();
        let mut checker = ConflictChecker::with_capacity(2);
        let first = scan(&mut checker, &db, &tom).unwrap();
        assert!(checker.cached_pairs() <= 2);
        let second = scan(&mut checker, &db, &tom).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn zero_capacity_disables_memoization() {
        let mut db = paper_db();
        let tom = paper_tom();
        db.insert(tom.clone()).unwrap();
        let mut checker = ConflictChecker::with_capacity(0);
        assert_eq!(scan(&mut checker, &db, &tom).unwrap().len(), 2);
        assert_eq!(checker.cached_pairs(), 0);
    }
}
