//! Rule objects: the compiled intermediate representation of CADEL rules.
//!
//! The paper (§4.1) stresses that the rule execution module "does not
//! execute rules by interpreting CADEL descriptions" — each description is
//! compiled into an equivalent *rule object*. This crate defines that
//! object model:
//!
//! * [`Atom`] — the primitive facts a condition can test: linear
//!   [`ConstraintAtom`]s over sensor values, presence of people at places,
//!   device states, ambient events ("a baseball game is on air"), time
//!   windows, weekday/date guards, and duration-qualified atoms ("door is
//!   unlocked **for 1 hour**").
//! * [`Condition`] — an and/or tree over atoms with normalization to
//!   disjunctive normal form ([`Dnf`]), the form both the conflict checker
//!   and the runtime evaluator consume.
//! * [`ActionSpec`] — the device command a rule issues: a [`Verb`], the
//!   target device, and configuration [`Setting`]s ("with 25 degrees of
//!   temperature setting").
//! * [`Rule`] — condition + action + owner + metadata, built via
//!   [`RuleBuilder`].
//! * [`RuleDb`] — the home server's rule database with the per-device
//!   index used by conflict extraction (experiment E2) and JSON
//!   import/export (paper §4.3(iv)).
//! * [`VarPool`] — interning of [`cadel_types::SensorKey`]s into solver
//!   [`VarId`](cadel_simplex::VarId)s plus conversion of conjuncts into
//!   `cadel-simplex` constraint systems.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod action;
pub mod atom;
pub mod codec;
pub mod compile;
pub mod condition;
pub mod convert;
pub mod db;
pub mod error;
pub mod rule;

pub use action::{ActionSpec, Setting, Verb};
pub use atom::{Atom, ConstraintAtom, EventAtom, PresenceAtom, StateAtom, Subject};
pub use compile::{compile_condition, compile_conjunct, compile_conjuncts, compile_rule};
pub use condition::{Condition, Conjunct, Dnf};
pub use convert::VarPool;
pub use db::{ChangeCursor, RuleDb, RuleEntry, CHANGE_LOG_CAPACITY};
pub use error::RuleError;
pub use rule::{Rule, RuleBuilder};
