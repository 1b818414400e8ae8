//! The rule object: a compiled, executable CADEL rule.

use crate::action::ActionSpec;
use crate::condition::{Condition, Dnf};
use crate::error::RuleError;
use cadel_types::{PersonId, RuleId};
use std::fmt;

/// A compiled rule: *when the condition holds, perform the action* —
/// optionally bounded by an `until` condition that releases the action.
///
/// Rules are immutable once built. The DNF of the condition is computed at
/// build time (so registration fails fast on over-complex conditions) and
/// cached inside the rule for the conflict checker and the runtime
/// evaluator.
///
/// # Example
///
/// ```
/// use cadel_rule::{Rule, ActionSpec, Verb, Condition, Atom, ConstraintAtom};
/// use cadel_simplex::RelOp;
/// use cadel_types::{DeviceId, PersonId, Quantity, RuleId, SensorKey, Unit};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let hot = Atom::Constraint(ConstraintAtom::new(
///     SensorKey::new(DeviceId::new("thermo"), "temperature"),
///     RelOp::Gt,
///     Quantity::from_integer(26, Unit::Celsius),
/// ));
/// let rule = Rule::builder(PersonId::new("tom"))
///     .condition(Condition::Atom(hot))
///     .action(ActionSpec::new(DeviceId::new("aircon"), Verb::TurnOn)
///         .with_setting("temperature", Quantity::from_integer(25, Unit::Celsius)))
///     .label("If it is hot, turn on the air conditioner with 25 degrees")
///     .build(RuleId::new(1))?;
/// assert_eq!(rule.owner().as_str(), "tom");
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Rule {
    id: RuleId,
    owner: PersonId,
    label: Option<String>,
    condition: Condition,
    dnf: Dnf,
    action: ActionSpec,
    until: Option<Condition>,
    enabled: bool,
}

impl Rule {
    /// Starts building a rule owned by `owner`.
    pub fn builder(owner: PersonId) -> RuleBuilder {
        RuleBuilder {
            owner,
            label: None,
            condition: Condition::True,
            action: None,
            until: None,
            enabled: true,
        }
    }

    /// The rule's identifier.
    pub fn id(&self) -> RuleId {
        self.id
    }

    /// The person who registered the rule.
    pub fn owner(&self) -> &PersonId {
        &self.owner
    }

    /// The human-readable source text (CADEL sentence), when recorded.
    pub fn label(&self) -> Option<&str> {
        self.label.as_deref()
    }

    /// The condition tree.
    pub fn condition(&self) -> &Condition {
        &self.condition
    }

    /// The condition in disjunctive normal form (cached at build time).
    pub fn dnf(&self) -> &Dnf {
        &self.dnf
    }

    /// The action performed when the condition holds.
    pub fn action(&self) -> &ActionSpec {
        &self.action
    }

    /// The optional release condition ("until 10 pm", "until nobody is in
    /// the room").
    pub fn until(&self) -> Option<&Condition> {
        self.until.as_ref()
    }

    /// Whether the rule participates in evaluation.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Returns a copy with the enabled flag changed.
    #[must_use]
    pub fn with_enabled(mut self, enabled: bool) -> Rule {
        self.enabled = enabled;
        self
    }

    /// Returns a copy re-identified with a new id and owner — the
    /// import/customize path of paper §4.3(iv): a user imports another
    /// user's rule and adapts it.
    #[must_use]
    pub fn reassigned(mut self, id: RuleId, owner: PersonId) -> Rule {
        self.id = id;
        self.owner = owner;
        self
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.label {
            Some(text) => write!(f, "{} [{}: {}]", self.id, self.owner, text),
            None => write!(
                f,
                "{} [{}: if {} then {}]",
                self.id, self.owner, self.condition, self.action
            ),
        }
    }
}

/// Incrementally configures a [`Rule`] (C-BUILDER).
#[derive(Clone, Debug)]
pub struct RuleBuilder {
    owner: PersonId,
    label: Option<String>,
    condition: Condition,
    action: Option<ActionSpec>,
    until: Option<Condition>,
    enabled: bool,
}

impl RuleBuilder {
    /// Sets the condition (replacing any previous one).
    #[must_use]
    pub fn condition(mut self, condition: Condition) -> RuleBuilder {
        self.condition = condition;
        self
    }

    /// Adds a conjunct to the existing condition.
    #[must_use]
    pub fn and_condition(mut self, condition: Condition) -> RuleBuilder {
        self.condition = std::mem::take(&mut self.condition).and(condition);
        self
    }

    /// Sets the action.
    #[must_use]
    pub fn action(mut self, action: ActionSpec) -> RuleBuilder {
        self.action = Some(action);
        self
    }

    /// Sets the release condition.
    #[must_use]
    pub fn until(mut self, until: Condition) -> RuleBuilder {
        self.until = Some(until);
        self
    }

    /// Records the original CADEL sentence for display and export.
    #[must_use]
    pub fn label(mut self, text: impl Into<String>) -> RuleBuilder {
        self.label = Some(text.into());
        self
    }

    /// Sets the initial enabled flag (default `true`).
    #[must_use]
    pub fn enabled(mut self, enabled: bool) -> RuleBuilder {
        self.enabled = enabled;
        self
    }

    /// Finalizes the rule under the given id.
    ///
    /// # Errors
    ///
    /// * [`RuleError::ConditionTooComplex`] if the condition's DNF exceeds
    ///   the conjunct budget.
    /// * [`RuleError::MissingAction`] if no action was supplied (a rule
    ///   without an action is meaningless).
    pub fn build(self, id: RuleId) -> Result<Rule, RuleError> {
        let action = self.action.ok_or(RuleError::MissingAction)?;
        let dnf = self.condition.to_dnf()?;
        Ok(Rule {
            id,
            owner: self.owner,
            label: self.label,
            condition: self.condition,
            dnf,
            action,
            until: self.until,
            enabled: self.enabled,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::{Atom, EventAtom};
    use crate::Verb;
    use cadel_types::DeviceId;

    fn event(name: &str) -> Condition {
        Condition::Atom(Atom::Event(EventAtom::new("tv-guide", name)))
    }

    fn tv_on() -> ActionSpec {
        ActionSpec::new(DeviceId::new("tv"), Verb::TurnOn)
    }

    #[test]
    fn builder_produces_rule_with_cached_dnf() {
        let rule = Rule::builder(PersonId::new("alan"))
            .condition(event("baseball game").or(event("highlights")))
            .action(tv_on())
            .label("When a baseball game is on air, turn on the TV")
            .build(RuleId::new(1))
            .unwrap();
        assert_eq!(rule.dnf().conjuncts().len(), 2);
        assert_eq!(rule.owner().as_str(), "alan");
        assert!(rule.is_enabled());
        assert!(rule.until().is_none());
        assert!(rule.to_string().contains("baseball"));
    }

    #[test]
    fn build_without_action_fails() {
        let err = Rule::builder(PersonId::new("tom"))
            .condition(event("x"))
            .build(RuleId::new(1))
            .unwrap_err();
        assert_eq!(err, RuleError::MissingAction);
        assert!(err.to_string().contains("no action"));
    }

    #[test]
    fn and_condition_accumulates() {
        let rule = Rule::builder(PersonId::new("tom"))
            .and_condition(event("a"))
            .and_condition(event("b"))
            .action(tv_on())
            .build(RuleId::new(2))
            .unwrap();
        assert_eq!(rule.condition().atom_count(), 2);
        assert_eq!(rule.dnf().conjuncts().len(), 1);
    }

    #[test]
    fn reassignment_for_import() {
        let rule = Rule::builder(PersonId::new("alan"))
            .condition(event("movie"))
            .action(tv_on())
            .build(RuleId::new(3))
            .unwrap();
        let imported = rule
            .clone()
            .reassigned(RuleId::new(9), PersonId::new("emily"));
        assert_eq!(imported.id(), RuleId::new(9));
        assert_eq!(imported.owner().as_str(), "emily");
        assert_eq!(imported.condition(), rule.condition());
    }

    #[test]
    fn enabled_toggle() {
        let rule = Rule::builder(PersonId::new("tom"))
            .condition(event("x"))
            .action(tv_on())
            .enabled(false)
            .build(RuleId::new(4))
            .unwrap();
        assert!(!rule.is_enabled());
        assert!(rule.with_enabled(true).is_enabled());
    }
}
