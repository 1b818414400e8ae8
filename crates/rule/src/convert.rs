//! Conversion of condition conjuncts into `cadel-simplex` systems.
//!
//! The brute-force conflict oracles in `cadel-conflict` work on numeric
//! constraint systems; this module interns sensor variables into dense
//! solver indices and extracts the linear constraints of a conjunct.
//! Non-numeric atoms (presence, events, device states, time windows) are
//! handled separately by the discrete compatibility checks in
//! `cadel-conflict`.

use crate::atom::Atom;
use crate::condition::Conjunct;
use crate::error::RuleError;
use cadel_simplex::{Constraint, LinExpr, VarId};
use cadel_types::unit::Dimension;
use cadel_types::SensorKey;
use std::collections::HashMap;

/// Interns [`SensorKey`]s into dense solver [`VarId`]s and tracks each
/// variable's physical dimension so that a humidity threshold can never be
/// silently compared against a temperature sensor.
///
/// # Example
///
/// ```
/// use cadel_rule::VarPool;
/// use cadel_types::{DeviceId, SensorKey};
///
/// let mut pool = VarPool::new();
/// let t = SensorKey::new(DeviceId::new("thermo"), "temperature");
/// let a = pool.var_for(&t);
/// let b = pool.var_for(&t);
/// assert_eq!(a, b); // stable interning
/// ```
#[derive(Clone, Debug, Default)]
pub struct VarPool {
    vars: HashMap<SensorKey, VarId>,
    keys: Vec<SensorKey>,
    dimensions: Vec<Option<Dimension>>,
}

impl VarPool {
    /// Creates an empty pool.
    pub fn new() -> VarPool {
        VarPool::default()
    }

    /// The solver variable for a sensor key, interning it on first use.
    pub fn var_for(&mut self, key: &SensorKey) -> VarId {
        if let Some(v) = self.vars.get(key) {
            return *v;
        }
        let v = VarId::new(self.keys.len() as u32);
        self.vars.insert(key.clone(), v);
        self.keys.push(key.clone());
        self.dimensions.push(None);
        v
    }

    /// The sensor key behind a solver variable, if interned.
    pub fn key_for(&self, var: VarId) -> Option<&SensorKey> {
        self.keys.get(var.index())
    }

    /// Number of interned variables.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Extracts the linear constraints of a conjunct, in the canonical unit
    /// of each dimension (temperatures in Celsius).
    ///
    /// `HeldFor`-qualified constraint atoms contribute their inner
    /// comparison: if the inner fact can hold at some instant, the
    /// duration-qualified fact can hold after it persists, so using the
    /// instantaneous form is the correct over-approximation for
    /// co-satisfiability.
    ///
    /// # Errors
    ///
    /// Returns [`RuleError::DimensionMismatch`] when the same sensor
    /// variable is constrained with incompatible dimensions.
    pub fn conjunct_constraints(
        &mut self,
        conjunct: &Conjunct,
    ) -> Result<Vec<Constraint>, RuleError> {
        let mut out = Vec::new();
        for atom in conjunct.atoms() {
            self.collect_atom(atom, &mut out)?;
        }
        Ok(out)
    }

    fn collect_atom(&mut self, atom: &Atom, out: &mut Vec<Constraint>) -> Result<(), RuleError> {
        match atom {
            Atom::Constraint(c) => {
                let var = self.var_for(c.sensor());
                let dim = c.threshold().dimension();
                let slot = &mut self.dimensions[var.index()];
                match slot {
                    None => *slot = Some(dim),
                    Some(existing) if *existing == dim => {}
                    Some(existing) => {
                        return Err(RuleError::DimensionMismatch {
                            context: format!(
                                "sensor {} constrained as {:?} and {:?}",
                                c.sensor(),
                                existing,
                                dim
                            ),
                        });
                    }
                }
                out.push(Constraint::new(
                    LinExpr::var(var),
                    c.op(),
                    c.threshold().canonical_value(),
                ));
            }
            Atom::HeldFor { inner, .. } => self.collect_atom(inner, out)?,
            // Discrete atoms carry no linear content.
            Atom::Presence(_)
            | Atom::State(_)
            | Atom::Event(_)
            | Atom::Time(_)
            | Atom::Weekday(_)
            | Atom::Date(_) => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::{ConstraintAtom, EventAtom};
    use cadel_simplex::{is_satisfiable, RelOp};
    use cadel_types::{DeviceId, Quantity, SimDuration, Unit};

    fn key(dev: &str, var: &str) -> SensorKey {
        SensorKey::new(DeviceId::new(dev), var)
    }

    fn gt(dev: &str, var: &str, n: i64, unit: Unit) -> Atom {
        Atom::Constraint(ConstraintAtom::new(
            key(dev, var),
            RelOp::Gt,
            Quantity::from_integer(n, unit),
        ))
    }

    #[test]
    fn interning_is_stable_and_dense() {
        let mut pool = VarPool::new();
        let a = pool.var_for(&key("thermo", "temperature"));
        let b = pool.var_for(&key("hygro", "humidity"));
        let a2 = pool.var_for(&key("thermo", "temperature"));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.key_for(a).unwrap(), &key("thermo", "temperature"));
        assert_eq!(pool.key_for(VarId::new(99)), None);
    }

    #[test]
    fn extracts_numeric_atoms_only() {
        let mut pool = VarPool::new();
        let conjunct = Conjunct::new(vec![
            gt("thermo", "temperature", 26, Unit::Celsius),
            Atom::Event(EventAtom::new("tv-guide", "news")),
            gt("hygro", "humidity", 65, Unit::Percent),
        ]);
        let cons = pool.conjunct_constraints(&conjunct).unwrap();
        assert_eq!(cons.len(), 2);
        assert!(is_satisfiable(&cons).unwrap());
    }

    #[test]
    fn fahrenheit_thresholds_land_in_celsius_coordinates() {
        let mut pool = VarPool::new();
        // temperature > 25 °C  and  temperature < 77 °F (= 25 °C):
        // exactly contradictory only if units are canonicalized.
        let conjunct = Conjunct::new(vec![
            gt("thermo", "temperature", 25, Unit::Celsius),
            Atom::Constraint(ConstraintAtom::new(
                key("thermo", "temperature"),
                RelOp::Lt,
                Quantity::from_integer(77, Unit::Fahrenheit),
            )),
        ]);
        let cons = pool.conjunct_constraints(&conjunct).unwrap();
        assert!(!is_satisfiable(&cons).unwrap());
    }

    #[test]
    fn held_for_contributes_inner_constraint() {
        let mut pool = VarPool::new();
        let conjunct = Conjunct::new(vec![Atom::held_for(
            gt("thermo", "temperature", 26, Unit::Celsius),
            SimDuration::from_minutes(10),
        )]);
        let cons = pool.conjunct_constraints(&conjunct).unwrap();
        assert_eq!(cons.len(), 1);
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let mut pool = VarPool::new();
        let conjunct = Conjunct::new(vec![
            gt("multi", "reading", 26, Unit::Celsius),
            gt("multi", "reading", 60, Unit::Percent),
        ]);
        let err = pool.conjunct_constraints(&conjunct).unwrap_err();
        assert!(matches!(err, RuleError::DimensionMismatch { .. }));
    }

    #[test]
    fn shared_pool_joins_rules_on_common_sensors() {
        // The E2 conflict check concatenates two rules' conjuncts in one
        // pool so shared sensors map to the same variable.
        let mut pool = VarPool::new();
        let tom = Conjunct::new(vec![gt("thermo", "temperature", 26, Unit::Celsius)]);
        let alan = Conjunct::new(vec![gt("thermo", "temperature", 25, Unit::Celsius)]);
        let mut sys = pool.conjunct_constraints(&tom).unwrap();
        sys.extend(pool.conjunct_constraints(&alan).unwrap());
        assert_eq!(pool.len(), 1);
        assert!(is_satisfiable(&sys).unwrap());
    }
}
