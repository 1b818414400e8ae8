//! Priority orders among conflicting rules.
//!
//! When the conflict check confirms that two registered rules can fire
//! together on one device, the framework asks the users for a priority
//! order (paper Fig. 7). Orders are *context-scoped*: "to the TV, Alan has
//! a higher priority than Tom in the context that Alan got home from work,
//! and at the same time Tom has a higher priority in the context that
//! today is Tom's birthday" (§3.2).
//!
//! [`PriorityStore`] keeps the paper's simplified interface: per-device
//! *total orders* (ranked lists), each optionally guarded by a context
//! condition, at most one per device and context. Context-scoped orders
//! are consulted before default ones. The store indexes its orders by
//! device, so arbitrating one device visits only that device's orders.

use cadel_rule::Condition;
use cadel_types::{DeviceId, RuleId};
use std::collections::HashMap;
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
/// An order's *key* is its device plus its context: the store keeps at
/// most one order per key. Resolution consults context-scoped orders (in
/// registration sequence) before default orders, so a specific agreement
/// ("while Alan just got home") overrides the household default.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PriorityStore {
    orders: Vec<PriorityOrder>,
    /// Each device's order indices, in registration sequence.
    by_device: HashMap<DeviceId, Vec<usize>>,
}

impl PriorityStore {
    /// Creates an empty store.
    pub fn new() -> PriorityStore {
        PriorityStore::default()
    }

    /// Registers an order and returns its index. An order with the same
    /// device and an equal context is replaced in place, keeping its
    /// index; otherwise the order is appended. Indices are stable for the
    /// store's lifetime (orders are never removed).
    pub fn add_order(&mut self, order: PriorityOrder) -> usize {
        let indices = self.by_device.entry(order.device.clone()).or_default();
        let same_key = indices
            .iter()
            .copied()
            .find(|&index| self.orders[index].context == order.context);
        match same_key {
            Some(index) => {
                self.orders[index] = order;
                index
            }
            None => {
                indices.push(self.orders.len());
                self.orders.push(order);
                self.orders.len() - 1
            }
        }
    }

    /// The orders on one device with their store indices, in
    /// registration sequence.
    fn for_device<'a>(
        &'a self,
        device: &DeviceId,
    ) -> impl Iterator<Item = (usize, &'a PriorityOrder)> + Clone + 'a {
        self.by_device
            .get(device)
            .map_or(&[][..], Vec::as_slice)
            .iter()
            .map(|&index| (index, &self.orders[index]))
    }

    /// All orders, registration sequence.
    pub fn orders(&self) -> &[PriorityOrder] {
        &self.orders
    }

    /// Whether the pair `(a, b)` on `device` is *covered*: some order on
    /// the device ranks both. With one order per key, that order is the
    /// one [`resolve`](PriorityStore::resolve) consults for `{a, b}`
    /// whenever its context is the only one that holds (for an unscoped
    /// order, when no context holds). Outside a scoped order's context
    /// the pair falls back to the runtime's tie rule.
    pub fn covers(&self, device: &DeviceId, a: RuleId, b: RuleId) -> bool {
        self.for_device(device)
            .any(|(_, o)| o.rank_of(a).is_some() && o.rank_of(b).is_some())
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
        let orders = self.for_device(device);
        let scoped = orders.clone().filter(|(_, o)| o.context().is_some());
        let default = orders.filter(|(_, o)| o.context().is_none());
        for (index, order) in scoped.chain(default) {
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
    fn an_order_with_the_same_key_replaces_in_place() {
        let mut store = PriorityStore::new();
        let weekend = |ranking| PriorityOrder::new(tv(), ranking).in_context(ctx("weekend"));
        assert_eq!(
            store.add_order(PriorityOrder::new(tv(), vec![id(3), id(1)])),
            0
        );
        assert_eq!(store.add_order(weekend(vec![id(1)])), 1);
        // Same device and no context: replaces order 0 in place.
        let default = PriorityOrder::new(tv(), vec![id(2), id(1), id(3)]);
        assert_eq!(store.add_order(default), 0);
        // Same device and an equal context: replaces order 1.
        assert_eq!(store.add_order(weekend(vec![id(1), id(2)])), 1);
        // Another context, or another device, appends.
        let birthday = PriorityOrder::new(tv(), vec![id(2)]).in_context(ctx("birthday"));
        assert_eq!(store.add_order(birthday), 2);
        let stereo = PriorityOrder::new(DeviceId::new("stereo"), vec![id(2)]);
        assert_eq!(store.add_order(stereo), 3);
        assert_eq!(store.orders().len(), 4);
        assert_eq!(store.orders()[0].ranking(), &[id(2), id(1), id(3)]);
        // The replacing order decides every pair it ranks.
        let winner = |candidates: &[RuleId]| store.resolve(&tv(), candidates, |_| false).winner();
        assert_eq!(winner(&[id(1), id(2)]), Some(id(2)));
        assert_eq!(winner(&[id(1), id(3)]), Some(id(1)));
    }

    #[test]
    fn covers_needs_one_order_that_ranks_both() {
        let mut store = PriorityStore::new();
        store.add_order(PriorityOrder::new(tv(), vec![id(1), id(2)]));
        store.add_order(PriorityOrder::new(tv(), vec![id(3)]).in_context(ctx("weekend")));
        store.add_order(PriorityOrder::new(tv(), vec![id(2), id(4)]).in_context(ctx("birthday")));
        assert!(store.covers(&tv(), id(1), id(2)));
        assert!(store.covers(&tv(), id(2), id(1)));
        // A context-scoped order covers the pairs it ranks.
        assert!(store.covers(&tv(), id(4), id(2)));
        // Ranked only by different orders, or not at all: not covered.
        assert!(!store.covers(&tv(), id(1), id(4)));
        assert!(!store.covers(&tv(), id(1), id(3)));
        assert!(!store.covers(&tv(), id(1), id(5)));
        // An order covers pairs on its own device only.
        assert!(!store.covers(&DeviceId::new("stereo"), id(1), id(2)));
    }
}
