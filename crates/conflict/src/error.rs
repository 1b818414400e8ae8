//! Errors of the consistency/conflict layer.

use cadel_rule::RuleError;
use cadel_simplex::SolveError;
use std::error::Error;
use std::fmt;

/// Errors raised while checking rules.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConflictError {
    /// The rule layer reported a problem (dimension mismatch, DNF blowup).
    Rule(RuleError),
    /// The satisfiability solver failed (overflow, pivot limit).
    Solve(SolveError),
}

impl fmt::Display for ConflictError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConflictError::Rule(e) => write!(f, "rule error: {e}"),
            ConflictError::Solve(e) => write!(f, "solver error: {e}"),
        }
    }
}

impl Error for ConflictError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ConflictError::Rule(e) => Some(e),
            ConflictError::Solve(e) => Some(e),
        }
    }
}

impl From<RuleError> for ConflictError {
    fn from(e: RuleError) -> Self {
        ConflictError::Rule(e)
    }
}

impl From<SolveError> for ConflictError {
    fn from(e: SolveError) -> Self {
        ConflictError::Solve(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_well_behaved() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<ConflictError>();
    }

    #[test]
    fn sources_chain() {
        let e = ConflictError::from(SolveError::Overflow);
        assert!(e.source().is_some());
    }
}
