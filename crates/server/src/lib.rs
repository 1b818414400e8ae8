//! The CADEL home server.
//!
//! "We suppose that most functionalities of the proposed framework are
//! implemented in a home server(s). Any PC or set-top box can be a home
//! server." (paper §4.1)
//!
//! This crate assembles the framework's modules into that server:
//!
//! * [`HomeServer`] — the rule registration workflow (parse → compile →
//!   consistency check → conflict check → store, or refuse with the
//!   conflicts for [`HomeServer::arbitrate`] to settle with a priority
//!   order), rule import/export, and the engine step loop.
//! * [`GuidanceService`] — the retrieval/lookup service behind the rule
//!   description GUI of Figs 4–6 (devices by keyword/action/name/type/
//!   location; sensors by category, location, or user-defined word; the
//!   allowed actions of a device).
//! * [`UserRegistry`] — occupants and their private vocabularies layered
//!   over the shared household dictionary.
//! * [`RegistryResolver`] — the compiler's name environment backed by the
//!   live UPnP registry and the home topology.
//! * [`AccessControl`] — per-user device privileges (the paper's §6
//!   future work): observe/control/arbitrate capabilities scoped to a
//!   device, a device type, or the whole home.
//!
//! Observability for the whole pipeline lives in [`obs`] (re-exported
//! `cadel-obs`): install a collector with [`obs::install`], then query
//! [`HomeServer::metrics_snapshot`] for counters and latency histograms
//! from every stage. See `docs/OBSERVABILITY.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod error;
pub mod guidance;
mod persist;
pub mod resolver;
pub mod server;
pub mod users;

pub use access::{AccessControl, AccessDenied, Privilege, Scope};
pub use cadel_conflict::{
    Advisory, ConflictClass, ConflictError, EnvTable, GraphReport, PriorityOrder,
};
pub use error::ServerError;
pub use guidance::{DeviceQuery, GuidanceService, SensorMatch};
pub use resolver::RegistryResolver;
pub use server::{HomeServer, ImportReport, SubmitOutcome};
pub use users::{UserProfile, UserRegistry};

/// The observability layer (re-export of `cadel-obs`): collectors,
/// structured events, and the metrics registry every pipeline stage
/// records into.
pub use cadel_obs as obs;
pub use cadel_obs::{HistogramSummary, MetricsSnapshot};

/// The durable store (re-export of `cadel-store`): the write-ahead log
/// and snapshot machinery behind [`HomeServer::open_at`]
/// (`server::HomeServer::open_at`). See `docs/PERSISTENCE.md`.
pub use cadel_store as store;
pub use cadel_store::{RecoveryReport, Store, StoreError};
