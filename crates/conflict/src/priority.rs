//! Priority orders among conflicting rules.
//!
//! When the conflict check confirms that two registered rules can fire
//! together on one device, the framework asks the users for a priority
//! order (paper Fig. 7). Orders are *context-scoped*: "to the TV, Alan has
//! a higher priority than Tom in the context that Alan got home from work,
//! and at the same time Tom has a higher priority in the context that
//! today is Tom's birthday" (§3.2).
//!
//! Two representations are provided:
//!
//! * [`PriorityStore`] — the paper's simplified interface: per-device
//!   *total orders* (ranked lists), each optionally guarded by a context
//!   condition. Context-scoped orders are consulted before default ones.
//! * [`PriorityGraph`] — the general *partial order* of footnote 1:
//!   pairwise preferences with cycle rejection and topological
//!   linearization.

use crate::error::ConflictError;
use cadel_rule::Condition;
use cadel_types::{DeviceId, RuleId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A ranked list of rules for one device, optionally scoped to a context.
#[derive(Clone, Debug, PartialEq)]
pub struct PriorityOrder {
    device: DeviceId,
    context: Option<Condition>,
    ranking: Vec<RuleId>,
    label: Option<String>,
}

impl PriorityOrder {
    /// Creates an unconditional (default) order; highest priority first.
    pub fn new(device: DeviceId, ranking: Vec<RuleId>) -> PriorityOrder {
        PriorityOrder {
            device,
            context: None,
            ranking,
            label: None,
        }
    }

    /// Scopes the order to a context condition (builder style).
    #[must_use]
    pub fn in_context(mut self, context: Condition) -> PriorityOrder {
        self.context = Some(context);
        self
    }

    /// Attaches a human-readable label ("Alan got home from work").
    #[must_use]
    pub fn with_label(mut self, label: impl Into<String>) -> PriorityOrder {
        self.label = Some(label.into());
        self
    }

    /// The device this order arbitrates.
    pub fn device(&self) -> &DeviceId {
        &self.device
    }

    /// The guarding context, if any.
    pub fn context(&self) -> Option<&Condition> {
        self.context.as_ref()
    }

    /// The ranking, highest priority first.
    pub fn ranking(&self) -> &[RuleId] {
        &self.ranking
    }

    /// The label, if any.
    pub fn label(&self) -> Option<&str> {
        self.label.as_deref()
    }

    /// The position of a rule in the ranking (0 = highest), if ranked.
    pub fn rank_of(&self, rule: RuleId) -> Option<usize> {
        self.ranking.iter().position(|r| *r == rule)
    }
}

impl fmt::Display for PriorityOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "priority on {}: ", self.device)?;
        for (i, r) in self.ranking.iter().enumerate() {
            if i > 0 {
                f.write_str(" > ")?;
            }
            write!(f, "{r}")?;
        }
        if let Some(label) = &self.label {
            write!(f, " (when {label})")?;
        } else if self.context.is_some() {
            f.write_str(" (context-scoped)")?;
        }
        Ok(())
    }
}

/// The outcome of runtime arbitration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Resolution {
    /// An applicable order selected a winner.
    Winner(RuleId),
    /// No applicable order ranked any candidate — the framework must fall
    /// back to a policy or prompt the users (paper §4.4: "lets users ...
    /// follow or modify the current priority order").
    Unresolved(Vec<RuleId>),
}

impl Resolution {
    /// The winning rule, if resolved.
    pub fn winner(&self) -> Option<RuleId> {
        match self {
            Resolution::Winner(id) => Some(*id),
            Resolution::Unresolved(_) => None,
        }
    }
}

/// The set of registered priority orders.
///
/// Resolution consults context-scoped orders (in registration sequence)
/// before default orders, so a specific agreement ("while Alan just got
/// home") overrides the household default.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PriorityStore {
    orders: Vec<PriorityOrder>,
}

impl PriorityStore {
    /// Creates an empty store.
    pub fn new() -> PriorityStore {
        PriorityStore::default()
    }

    /// Registers an order; returns its index, stable for the store's
    /// lifetime (orders are never removed).
    pub fn add_order(&mut self, order: PriorityOrder) -> usize {
        self.orders.push(order);
        self.orders.len() - 1
    }

    /// Registers the linearization of a pairwise preference graph as an
    /// order for `device` — the bridge from the paper's footnote-1 partial
    /// orders to the total orders the runtime consumes.
    pub fn add_order_from_graph(
        &mut self,
        device: DeviceId,
        graph: &PriorityGraph,
        context: Option<Condition>,
    ) -> usize {
        let mut order = PriorityOrder::new(device, graph.linearize());
        if let Some(context) = context {
            order = order.in_context(context);
        }
        self.add_order(order)
    }

    /// All orders, registration sequence.
    pub fn orders(&self) -> &[PriorityOrder] {
        &self.orders
    }

    /// The orders that arbitrate `device`.
    pub fn orders_for_device(&self, device: &DeviceId) -> Vec<&PriorityOrder> {
        self.orders
            .iter()
            .filter(|o| o.device() == device)
            .collect()
    }

    /// Arbitrates among candidate rules that fired simultaneously on
    /// `device`.
    ///
    /// `context_holds` reports whether the guard of the context-scoped
    /// order at the given index (as returned by
    /// [`add_order`](PriorityStore::add_order)) currently holds; the engine
    /// evaluates the guard it compiled for that order against the live
    /// context store. It is called only for orders with a context.
    ///
    /// The first applicable order (context-scoped ones first) that ranks
    /// at least one candidate decides; among ranked candidates the lowest
    /// rank wins. Candidates a deciding order does not mention lose to the
    /// ones it ranks.
    pub fn resolve(
        &self,
        device: &DeviceId,
        candidates: &[RuleId],
        mut context_holds: impl FnMut(usize) -> bool,
    ) -> Resolution {
        if candidates.is_empty() {
            return Resolution::Unresolved(Vec::new());
        }
        if candidates.len() == 1 {
            return Resolution::Winner(candidates[0]);
        }
        let for_device = |scoped: bool| {
            self.orders
                .iter()
                .enumerate()
                .filter(move |(_, o)| o.device() == device && o.context().is_some() == scoped)
        };
        for (index, order) in for_device(true).chain(for_device(false)) {
            if order.context().is_some() && !context_holds(index) {
                continue;
            }
            let best = candidates
                .iter()
                .filter_map(|c| order.rank_of(*c).map(|rank| (rank, *c)))
                .min();
            if let Some((_, winner)) = best {
                return Resolution::Winner(winner);
            }
        }
        Resolution::Unresolved(candidates.to_vec())
    }
}

/// A partial order of pairwise preferences with cycle rejection
/// (footnote 1 of the paper: "in general, the partial order should be
/// defined among those conflicting rules").
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PriorityGraph {
    /// `edges[a]` contains `b` when `a` outranks `b`.
    edges: BTreeMap<RuleId, BTreeSet<RuleId>>,
}

impl PriorityGraph {
    /// Creates an empty graph.
    pub fn new() -> PriorityGraph {
        PriorityGraph::default()
    }

    /// Records that `winner` outranks `loser`.
    ///
    /// # Errors
    ///
    /// Returns [`ConflictError::PriorityCycle`] when the preference would
    /// make the order cyclic (the graph is left unchanged).
    pub fn add_preference(&mut self, winner: RuleId, loser: RuleId) -> Result<(), ConflictError> {
        if winner == loser || self.outranks(loser, winner) {
            return Err(ConflictError::PriorityCycle {
                a: winner,
                b: loser,
            });
        }
        self.edges.entry(winner).or_default().insert(loser);
        Ok(())
    }

    /// Whether `a` (transitively) outranks `b`.
    pub fn outranks(&self, a: RuleId, b: RuleId) -> bool {
        let mut stack = vec![a];
        let mut seen = BTreeSet::new();
        while let Some(current) = stack.pop() {
            if !seen.insert(current) {
                continue;
            }
            if let Some(next) = self.edges.get(&current) {
                if next.contains(&b) {
                    return true;
                }
                stack.extend(next.iter().copied());
            }
        }
        false
    }

    /// A total order consistent with the preferences (highest first).
    /// Rules never mentioned do not appear.
    pub fn linearize(&self) -> Vec<RuleId> {
        // Kahn's algorithm over the recorded nodes.
        let mut nodes: BTreeSet<RuleId> = self.edges.keys().copied().collect();
        for targets in self.edges.values() {
            nodes.extend(targets.iter().copied());
        }
        let mut indegree: BTreeMap<RuleId, usize> = nodes.iter().map(|n| (*n, 0)).collect();
        for targets in self.edges.values() {
            for t in targets {
                *indegree.get_mut(t).expect("target is a node") += 1;
            }
        }
        let mut ready: BTreeSet<RuleId> = indegree
            .iter()
            .filter(|(_, d)| **d == 0)
            .map(|(n, _)| *n)
            .collect();
        let mut out = Vec::with_capacity(nodes.len());
        while let Some(&node) = ready.iter().next() {
            ready.remove(&node);
            out.push(node);
            if let Some(targets) = self.edges.get(&node) {
                for t in targets {
                    let d = indegree.get_mut(t).expect("target is a node");
                    *d -= 1;
                    if *d == 0 {
                        ready.insert(*t);
                    }
                }
            }
        }
        debug_assert_eq!(out.len(), nodes.len(), "graph is acyclic by construction");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadel_rule::{Atom, EventAtom};

    fn id(n: u64) -> RuleId {
        RuleId::new(n)
    }

    fn ctx(name: &str) -> Condition {
        Condition::Atom(Atom::Event(EventAtom::new("person", name)))
    }

    fn tv() -> DeviceId {
        DeviceId::new("tv")
    }

    #[test]
    fn single_candidate_wins_by_default() {
        let store = PriorityStore::new();
        assert_eq!(
            store.resolve(&tv(), &[id(1)], |_| false),
            Resolution::Winner(id(1))
        );
        assert_eq!(
            store.resolve(&tv(), &[], |_| false),
            Resolution::Unresolved(vec![])
        );
    }

    #[test]
    fn default_order_resolves() {
        let mut store = PriorityStore::new();
        store.add_order(PriorityOrder::new(tv(), vec![id(2), id(1), id(3)]));
        let r = store.resolve(&tv(), &[id(1), id(3)], |_| false);
        assert_eq!(r.winner(), Some(id(1)));
    }

    #[test]
    fn context_scoped_order_overrides_default() {
        // Default: Tom's rule (1) over Alan's (2). But while "alan got home
        // from work" holds, Alan wins — the paper's scenario.
        let mut store = PriorityStore::new();
        store.add_order(PriorityOrder::new(tv(), vec![id(1), id(2)]));
        store.add_order(
            PriorityOrder::new(tv(), vec![id(2), id(1)])
                .in_context(ctx("alan got home from work"))
                .with_label("Alan got home from work"),
        );
        // Context off: default applies.
        let r = store.resolve(&tv(), &[id(1), id(2)], |_| false);
        assert_eq!(r.winner(), Some(id(1)));
        // Context on: scoped order takes precedence.
        let r = store.resolve(&tv(), &[id(1), id(2)], |_| true);
        assert_eq!(r.winner(), Some(id(2)));
    }

    #[test]
    fn scoped_orders_consulted_in_sequence() {
        // Emily's arrival outranks Alan's arrival because it was registered
        // first among the scoped orders whose context holds.
        let mut store = PriorityStore::new();
        store.add_order(
            PriorityOrder::new(tv(), vec![id(3), id(2), id(1)])
                .in_context(ctx("emily got home from shopping")),
        );
        store.add_order(
            PriorityOrder::new(tv(), vec![id(2), id(1)]).in_context(ctx("alan got home from work")),
        );
        let r = store.resolve(&tv(), &[id(1), id(2), id(3)], |_| true);
        assert_eq!(r.winner(), Some(id(3)));
        // The callback receives each order's store index: only Alan's
        // order (index 1) holding hands Alan the TV.
        let r = store.resolve(&tv(), &[id(1), id(2), id(3)], |order| order == 1);
        assert_eq!(r.winner(), Some(id(2)));
    }

    #[test]
    fn inapplicable_orders_are_skipped() {
        let mut store = PriorityStore::new();
        // Order for a different device.
        store.add_order(PriorityOrder::new(
            DeviceId::new("stereo"),
            vec![id(1), id(2)],
        ));
        // Order that ranks neither candidate.
        store.add_order(PriorityOrder::new(tv(), vec![id(7), id(8)]));
        let r = store.resolve(&tv(), &[id(1), id(2)], |_| true);
        assert_eq!(r, Resolution::Unresolved(vec![id(1), id(2)]));
    }

    #[test]
    fn partially_ranked_candidates() {
        // Order ranks only id(2): ranked candidates beat unranked ones.
        let mut store = PriorityStore::new();
        store.add_order(PriorityOrder::new(tv(), vec![id(2)]));
        let r = store.resolve(&tv(), &[id(1), id(2)], |_| false);
        assert_eq!(r.winner(), Some(id(2)));
    }

    #[test]
    fn order_display() {
        let o = PriorityOrder::new(tv(), vec![id(2), id(1)]).with_label("Alan got home");
        let s = o.to_string();
        assert!(s.contains("rule#2 > rule#1"));
        assert!(s.contains("Alan got home"));
    }

    #[test]
    fn graph_rejects_cycles() {
        let mut g = PriorityGraph::new();
        g.add_preference(id(1), id(2)).unwrap();
        g.add_preference(id(2), id(3)).unwrap();
        // 3 > 1 would close a cycle.
        let err = g.add_preference(id(3), id(1)).unwrap_err();
        assert!(matches!(err, ConflictError::PriorityCycle { .. }));
        // Self-preference is rejected too.
        assert!(g.add_preference(id(5), id(5)).is_err());
        // Graph unchanged: 1 still outranks 3 transitively.
        assert!(g.outranks(id(1), id(3)));
        assert!(!g.outranks(id(3), id(1)));
    }

    #[test]
    fn graph_linearizes_consistently() {
        let mut g = PriorityGraph::new();
        g.add_preference(id(3), id(2)).unwrap();
        g.add_preference(id(2), id(1)).unwrap();
        g.add_preference(id(3), id(1)).unwrap();
        let order = g.linearize();
        assert_eq!(order, vec![id(3), id(2), id(1)]);
    }

    #[test]
    fn graph_linearization_respects_all_edges() {
        let mut g = PriorityGraph::new();
        g.add_preference(id(10), id(1)).unwrap();
        g.add_preference(id(20), id(1)).unwrap();
        g.add_preference(id(10), id(20)).unwrap();
        let order = g.linearize();
        let pos = |r: RuleId| order.iter().position(|x| *x == r).unwrap();
        assert!(pos(id(10)) < pos(id(20)));
        assert!(pos(id(20)) < pos(id(1)));
    }

    #[test]
    fn graph_feeds_the_store() {
        // Pairwise household preferences linearize into a usable order.
        let mut g = PriorityGraph::new();
        g.add_preference(id(3), id(1)).unwrap();
        g.add_preference(id(3), id(2)).unwrap();
        g.add_preference(id(2), id(1)).unwrap();
        let mut store = PriorityStore::new();
        store.add_order_from_graph(tv(), &g, Some(ctx("weekend")));
        let r = store.resolve(&tv(), &[id(1), id(2), id(3)], |_| true);
        assert_eq!(r.winner(), Some(id(3)));
        // Context off: the scoped order does not apply.
        let r = store.resolve(&tv(), &[id(1), id(2), id(3)], |_| false);
        assert!(matches!(r, Resolution::Unresolved(_)));
    }
}
