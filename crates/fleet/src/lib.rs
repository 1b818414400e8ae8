//! Supervised multi-tenant fleet runtime.
//!
//! One CADEL deployment rarely stops at one home: an apartment block or
//! an operator fleet runs thousands of independent rule engines, each
//! with its own devices, users, rules, and WAL. This crate multiplexes
//! many independent [`HomeServer`] tenants over a fixed worker pool with
//! event-driven wakeups — only tenants with queued ingress are stepped —
//! and makes *supervision* the core contract:
//!
//! - **Panic isolation.** Every tenant step runs under `catch_unwind`;
//!   a panicking rule hook or device poisons only its own tenant.
//! - **Quarantine + WAL restart.** A tenant that panics, overruns the
//!   per-step deadline, or whose WAL stops accepting appends is
//!   quarantined (its in-memory state discarded) and automatically
//!   restarted from its own WAL segment via [`HomeServer::open_at`],
//!   within a strike budget.
//! - **Overload shedding.** Bounded per-tenant inboxes shed by the
//!   engine's own coalescing classification (a superseded sensor
//!   reading is droppable, an event-bearing payload is not), and a
//!   fleet-wide backpressure signal tells traffic sources to back off.
//! - **Wave-end durability.** Appends are buffered per tenant; the
//!   worker that stepped a tenant syncs its WAL before the wave returns,
//!   and a WAL with nothing new costs no system call. Runtime
//!   checkpoints are phased by tenant index, so a wave syncs only the
//!   tenants whose turn it is. A failing sync degrades to quarantining
//!   that tenant alone.
//!
//! Fleet health is observable end to end: state gauges, panic/restart/
//! shed counters, a step-latency histogram, and a per-tenant
//! noisy-neighbour rollup ([`cadel_obs::NoisyNeighbourRollup`]).
//!
//! ```
//! use cadel_fleet::{Fleet, FleetConfig};
//!
//! let dir = std::env::temp_dir().join(format!("fleet-doc-{}", std::process::id()));
//! let fleet = Fleet::new(&dir, FleetConfig::default());
//! assert!(fleet.is_empty());
//! assert_eq!(fleet.health().healthy, 0);
//! ```
//!
//! [`HomeServer`]: cadel_server::HomeServer
//! [`HomeServer::open_at`]: cadel_server::HomeServer::open_at

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod fleet;
pub mod tenant;

pub use config::FleetConfig;
pub use fleet::{
    Admission, Fleet, FleetError, FleetHealth, FleetStepReport, ShutdownReport, StepStatus,
    TenantStepOutcome,
};
pub use tenant::{Ingress, TenantBuilder, TenantParts, TenantState, TenantWorld};

// The step wave hands each ready tenant to one scoped worker thread, so
// everything a tenant owns must be Send. Assert it at compile time here
// rather than discovering it at each call site.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<cadel_server::HomeServer>();
    assert_send::<Ingress>();
    assert_send::<FleetConfig>();
};
