//! # cadel-ir — compiled rule objects
//!
//! The CADEL paper describes registered rules becoming "rule objects" inside
//! the framework: a resident, pre-processed form the rule processor executes
//! against incoming context, distinct from the textual rule the user wrote.
//! This crate is that form. A rule is lowered once, when it is registered,
//! into a [`RuleProgram`]. The rule database appends the program's
//! predicates and code to the shared [`ProgramArena`], whose span is the
//! rule's only stored executable form and is evaluated many times per
//! simulation step; of the program itself it keeps only the conjunct
//! systems. Lowering does three things:
//!
//! * names are interned — every sensor `(device, variable)` pair and event
//!   `(channel, name)` pattern is mapped to a dense `u32` slot by the shared
//!   [`Interner`], so evaluation never hashes strings;
//! * the condition is flattened — the condition tree becomes compact
//!   bytecode ([`CondCode`]) over a predicate table, preserving the source
//!   structure and short-circuit order exactly (required because `held_for`
//!   observation is stateful);
//! * numeric constraints are precompiled — each DNF conjunct's linear
//!   constraints are lowered once into a [`CompiledConjunct`] over local
//!   solver variables, which conflict checking merges pairwise via
//!   [`merge_conjuncts`] instead of re-deriving systems per comparison.
//!
//! The crate depends only on `cadel-types` and `cadel-simplex`; the engine
//! plugs in through the [`ContextView`] and [`HeldObserver`] traits, and the
//! rule crate owns the lowering from `Rule` to `RuleProgram`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod error;
pub mod eval;
pub mod interner;
pub mod program;

pub use arena::{ClockPred, ProgramArena, ProgramRef};
pub use error::IrError;
pub use eval::{eval_code, note_type_mismatch, ContextView, HeldObserver, SensorRead};
pub use interner::{ChannelSlot, EventSlot, Interner, PlaceSlot, SensorSlot, SharedInterner};
pub use program::{merge_conjuncts, CompiledConjunct, CondCode, Op, Pred, RuleProgram};
