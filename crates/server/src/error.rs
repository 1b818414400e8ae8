//! Home-server errors.

use crate::access::AccessDenied;
use cadel_conflict::ConflictError;
use cadel_engine::EngineError;
use cadel_lang::LangError;
use cadel_rule::RuleError;
use cadel_types::PersonId;
use cadel_upnp::UpnpError;
use std::error::Error;
use std::fmt;

/// Errors raised by the home server's workflows.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServerError {
    /// Parsing or compiling a CADEL sentence failed.
    Lang(LangError),
    /// The rule layer failed.
    Rule(RuleError),
    /// Consistency/conflict checking failed.
    Conflict(ConflictError),
    /// The execution engine failed.
    Engine(EngineError),
    /// A device interaction failed.
    Upnp(UpnpError),
    /// The referenced user is not registered.
    UnknownUser(PersonId),
    /// A user with this id already exists.
    DuplicateUser(PersonId),
    /// A priority order was refused and nothing was stored: it is on
    /// another device than the arbitrated rule, leaves that rule out,
    /// repeats an id, or would replace the order with the same device
    /// and context while leaving out a live rule that order ranked.
    OrderRefused(String),
    /// The access-control policy denied the operation.
    AccessDenied(AccessDenied),
    /// The durable store failed (WAL append/recovery/snapshot I/O, or a
    /// malformed persisted record). Carries the rendered store error so
    /// this enum stays cheaply clonable and comparable.
    Store(String),
    /// The server is read-only: a WAL append failed (disk full or other
    /// append I/O error) and durable mutations are rejected until the
    /// tenant is restarted against a healthy store. In-memory state is
    /// still consistent — the failed mutation was never applied.
    ReadOnly,
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Lang(e) => write!(f, "{e}"),
            ServerError::Rule(e) => write!(f, "rule error: {e}"),
            ServerError::Conflict(e) => write!(f, "conflict error: {e}"),
            ServerError::Engine(e) => write!(f, "engine error: {e}"),
            ServerError::Upnp(e) => write!(f, "device error: {e}"),
            ServerError::UnknownUser(p) => write!(f, "unknown user {p}"),
            ServerError::DuplicateUser(p) => write!(f, "user {p} already exists"),
            ServerError::OrderRefused(reason) => write!(f, "priority order refused: {reason}"),
            ServerError::AccessDenied(d) => write!(f, "access denied: {d}"),
            ServerError::Store(message) => write!(f, "store error: {message}"),
            ServerError::ReadOnly => {
                write!(f, "server is read-only after a failed wal append")
            }
        }
    }
}

impl Error for ServerError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServerError::Lang(e) => Some(e),
            ServerError::Rule(e) => Some(e),
            ServerError::Conflict(e) => Some(e),
            ServerError::Engine(e) => Some(e),
            ServerError::Upnp(e) => Some(e),
            ServerError::AccessDenied(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LangError> for ServerError {
    fn from(e: LangError) -> Self {
        ServerError::Lang(e)
    }
}

impl From<RuleError> for ServerError {
    fn from(e: RuleError) -> Self {
        ServerError::Rule(e)
    }
}

impl From<ConflictError> for ServerError {
    fn from(e: ConflictError) -> Self {
        ServerError::Conflict(e)
    }
}

impl From<EngineError> for ServerError {
    fn from(e: EngineError) -> Self {
        ServerError::Engine(e)
    }
}

impl From<UpnpError> for ServerError {
    fn from(e: UpnpError) -> Self {
        ServerError::Upnp(e)
    }
}

impl From<AccessDenied> for ServerError {
    fn from(e: AccessDenied) -> Self {
        ServerError::AccessDenied(e)
    }
}

impl From<cadel_store::StoreError> for ServerError {
    fn from(e: cadel_store::StoreError) -> Self {
        ServerError::Store(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_well_behaved() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<ServerError>();
        let e = ServerError::UnknownUser(PersonId::new("ghost"));
        assert!(e.to_string().contains("ghost"));
        assert!(e.source().is_none());
    }
}
