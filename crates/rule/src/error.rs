//! Errors produced while building, normalizing or storing rules.

use cadel_types::RuleId;
use std::error::Error;
use std::fmt;

/// Errors raised by the rule-object layer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RuleError {
    /// Normalizing a condition to DNF would exceed the conjunct budget —
    /// the condition is too complex to check or evaluate efficiently.
    ConditionTooComplex {
        /// Number of conjuncts the normalization would have produced.
        conjuncts: usize,
        /// The configured maximum.
        limit: usize,
    },
    /// A rule id was not found in the database.
    UnknownRule(RuleId),
    /// A rule with this id already exists (import collision).
    DuplicateRule(RuleId),
    /// A quantity with the wrong dimension was used as a threshold or
    /// setting (e.g. percent compared against a temperature sensor).
    DimensionMismatch {
        /// Human-readable description of where the mismatch occurred.
        context: String,
    },
    /// A rule was built without an action to perform.
    MissingAction,
    /// Import/export serialization failed.
    Serialization(String),
}

impl fmt::Display for RuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleError::ConditionTooComplex { conjuncts, limit } => write!(
                f,
                "condition expands to {conjuncts} conjuncts, exceeding the limit of {limit}"
            ),
            RuleError::UnknownRule(id) => write!(f, "no rule with id {id}"),
            RuleError::DuplicateRule(id) => write!(f, "a rule with id {id} already exists"),
            RuleError::DimensionMismatch { context } => {
                write!(f, "dimension mismatch: {context}")
            }
            RuleError::MissingAction => write!(f, "rule has no action"),
            RuleError::Serialization(msg) => write!(f, "serialization failed: {msg}"),
        }
    }
}

impl Error for RuleError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_well_behaved() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<RuleError>();
    }

    #[test]
    fn messages_mention_key_facts() {
        let e = RuleError::ConditionTooComplex {
            conjuncts: 1000,
            limit: 256,
        };
        assert!(e.to_string().contains("1000"));
        assert!(e.to_string().contains("256"));
        assert!(RuleError::UnknownRule(RuleId::new(3))
            .to_string()
            .contains("rule#3"));
    }
}
