//! Consistency checking, conflict detection and priority management —
//! the paper's §4.4 "Consistency and Conflict Check Module".
//!
//! Four responsibilities:
//!
//! 1. **Inconsistency check**: when a rule is registered, decide whether
//!    its condition can hold at all. A condition whose every disjunct is
//!    unsatisfiable (numerically, via `cadel-simplex`, or discretely — e.g.
//!    the same person demanded in two rooms at once) is rejected so the
//!    user can fix it.
//! 2. **Conflict detection**: a new rule conflicts with an existing one
//!    when (a) both target the same device with *different* actions and
//!    (b) their conditions can hold *simultaneously*. Detection extracts
//!    same-device rules through the [`RuleDb`](cadel_rule::RuleDb) index
//!    and solves the concatenated constraint systems — exactly the
//!    procedure timed in experiment E2.
//! 3. **Priority management** ([`PriorityStore`]): when a conflict is
//!    confirmed, users rank the conflicting rules; rankings may be
//!    *context-scoped* ("Alan outranks Tom **when Alan got home from
//!    work**; Tom outranks Alan **when today is Tom's birthday**" — §3.2),
//!    with at most one order per device and context. A conflict is
//!    settled when [`PriorityStore::covers`] the pair, and the engine
//!    consults the store at runtime to arbitrate simultaneous firings.
//! 4. **The conflict graph** ([`ConflictGraph`]): the production path
//!    for 1 and 2. [`ConflictGraph::analyze`] lowers a submitted rule
//!    once and answers both checks from the same solves. Rules become
//!    footprint nodes (actuated device, sensors read, environment
//!    channels moved, events raised), candidate pairs are pruned by
//!    footprint before any Simplex solve, and three advisory classes
//!    beyond the paper's device class are detected: rule chains/loops,
//!    shadowing/redundancy, and cross-device environmental conflicts via
//!    the declarative [`EnvTable`]. The graph follows the rule
//!    database's change feed, so an analysis costs what the probe's
//!    neighbourhood costs, not what the home costs.
//!
//! [`check_consistency`], [`check_conflict`] and [`find_conflicts`] are the
//! brute-force oracles: they lower each rule through a fresh `VarPool` and
//! solve every same-device pair. Tests and benches compare the graph
//! against them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
mod checker;
pub mod discrete;
pub mod env;
pub mod error;
pub mod graph;
pub mod priority;

pub use check::{check_conflict, check_consistency, find_conflicts, Conflict, ConsistencyReport};
pub use discrete::discrete_compatible;
pub use env::{EnvDirection, EnvTable};
pub use error::ConflictError;
pub use graph::{Advisory, ConflictClass, ConflictGraph, GraphReport};
pub use priority::{PriorityOrder, PriorityStore, Resolution};
