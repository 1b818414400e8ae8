//! Dense phase-1 simplex over exact rationals with ε-extended bounds.
//!
//! The feasibility question is encoded in standard form:
//!
//! 1. Every constraint is rewritten into `≤`-rows `Σ aⱼxⱼ ≤ b` where `b`
//!    is an [`EpsRational`] (strict inequalities subtract ε — see
//!    [`Constraint::to_le_rows`]).
//! 2. Free variables are split `x = x⁺ − x⁻` with `x⁺, x⁻ ≥ 0`.
//! 3. Each row gains a slack; rows with negative right-hand side are
//!    negated and gain an artificial variable.
//! 4. Phase-1 minimizes the sum of artificials with Bland's rule
//!    (anti-cycling). The system is feasible iff the minimum is exactly
//!    zero — including its ε part, which is what rejects `x < 5 ∧ x > 5`.
//!
//! When feasible, the basic solution is read back and the symbolic ε is
//! replaced by a concrete positive rational small enough to satisfy every
//! original constraint, yielding a checkable witness.

use crate::eps::EpsRational;
use crate::{Constraint, RelOp, Solution, SolveError};
use cadel_obs::{LazyCounter, LazyHistogram};
use cadel_types::Rational;

/// Total pivot operations performed across all phase-1 runs.
static PIVOTS: LazyCounter = LazyCounter::new("simplex_pivots_total");
/// Pivot count distribution per phase-1 run (how hard each system was).
static PIVOTS_PER_RUN: LazyHistogram = LazyHistogram::new("simplex_pivots_per_phase1");

/// Maximum pivots before conceding defeat. Bland's rule guarantees
/// termination, so this is purely a defensive bound against bugs.
fn pivot_limit(rows: usize, cols: usize) -> usize {
    10_000 + 50 * (rows + cols)
}

fn cmul(a: Rational, b: Rational) -> Result<Rational, SolveError> {
    a.checked_mul(b).ok_or(SolveError::Overflow)
}

fn csub(a: Rational, b: Rational) -> Result<Rational, SolveError> {
    a.checked_sub(b).ok_or(SolveError::Overflow)
}

/// The phase-1 tableau. Exposed for the ablation benchmarks; ordinary
/// callers should use [`solve_simplex`] or [`crate::solve`].
#[derive(Clone, Debug)]
pub struct Tableau {
    /// Coefficient matrix, `rows × cols`.
    matrix: Vec<Vec<Rational>>,
    /// Right-hand sides (ε-extended), one per row.
    rhs: Vec<EpsRational>,
    /// Phase-1 objective coefficients per column.
    obj: Vec<Rational>,
    /// Current phase-1 objective value (sum of artificials).
    obj_value: EpsRational,
    /// Basic variable (column index) per row.
    basis: Vec<usize>,
    /// Number of structural columns (2 per original variable).
    structural: usize,
    /// First artificial column index, or `cols` when none exist.
    first_artificial: usize,
    /// Number of original (free) variables.
    original_vars: usize,
}

impl Tableau {
    /// Builds the phase-1 tableau for a constraint system.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Overflow`] if constructing rows overflows.
    pub fn build(constraints: &[Constraint]) -> Result<Tableau, SolveError> {
        let original_vars = constraints
            .iter()
            .filter_map(|c| c.expr().max_var())
            .map(|v| v.index() + 1)
            .max()
            .unwrap_or(0);

        let mut le_rows = Vec::new();
        for c in constraints {
            le_rows.extend(c.to_le_rows());
        }

        let structural = 2 * original_vars;
        let num_rows = le_rows.len();
        let slack_base = structural;
        // Artificial columns are assigned lazily; first count them.
        let needs_artificial: Vec<bool> = le_rows.iter().map(|(_, b)| b.is_negative()).collect();
        let num_artificial = needs_artificial.iter().filter(|x| **x).count();
        let first_artificial = slack_base + num_rows;
        let cols = first_artificial + num_artificial;

        let mut matrix = vec![vec![Rational::ZERO; cols]; num_rows];
        let mut rhs = vec![EpsRational::ZERO; num_rows];
        let mut basis = vec![0usize; num_rows];
        let mut next_artificial = first_artificial;

        for (i, (expr, bound)) in le_rows.iter().enumerate() {
            let negate = needs_artificial[i];
            for (v, c) in expr.iter() {
                let c = if negate { -c } else { c };
                matrix[i][2 * v.index()] = c;
                matrix[i][2 * v.index() + 1] = -c;
            }
            // Slack: +1 normally, −1 after negation.
            matrix[i][slack_base + i] = if negate {
                -Rational::ONE
            } else {
                Rational::ONE
            };
            rhs[i] = if negate { -*bound } else { *bound };
            if negate {
                matrix[i][next_artificial] = Rational::ONE;
                basis[i] = next_artificial;
                next_artificial += 1;
            } else {
                basis[i] = slack_base + i;
            }
        }

        // Phase-1 objective: minimize W = Σ artificials.
        // Express W through the nonbasic variables: W = Σ_{art rows} bᵢ −
        // Σ_{art rows} Σⱼ Aᵢⱼ xⱼ  (excluding the artificial columns
        // themselves, whose reduced cost starts at zero).
        let mut obj = vec![Rational::ZERO; cols];
        let mut obj_value = EpsRational::ZERO;
        for i in 0..num_rows {
            if basis[i] >= first_artificial {
                for j in 0..first_artificial {
                    obj[j] = csub(obj[j], matrix[i][j])?;
                }
                obj_value = obj_value.checked_add(rhs[i])?;
            }
        }

        Ok(Tableau {
            matrix,
            rhs,
            obj,
            obj_value,
            basis,
            structural,
            first_artificial,
            original_vars,
        })
    }

    /// Runs phase-1 to optimality.
    ///
    /// Returns `true` when the system is feasible (minimal artificial sum
    /// is exactly zero).
    ///
    /// # Errors
    ///
    /// Returns [`SolveError`] on arithmetic overflow or if the defensive
    /// pivot limit is hit.
    pub fn run_phase1(&mut self) -> Result<bool, SolveError> {
        let mut performed: u64 = 0;
        let result = self.phase1_loop(&mut performed);
        PIVOTS.add(performed);
        PIVOTS_PER_RUN.observe(performed);
        result
    }

    fn phase1_loop(&mut self, performed: &mut u64) -> Result<bool, SolveError> {
        let rows = self.matrix.len();
        if rows == 0 {
            return Ok(true);
        }
        let cols = self.matrix[0].len();
        let limit = pivot_limit(rows, cols);

        for pivots in 0..=limit {
            // Bland: entering column = smallest index with negative reduced
            // cost, artificials excluded (they never re-enter).
            let entering = (0..self.first_artificial).find(|&j| self.obj[j].is_negative());
            let Some(entering) = entering else {
                // Optimal: feasible iff no residual artificial infeasibility.
                return Ok(self.obj_value.is_zero());
            };
            if pivots == limit {
                return Err(SolveError::IterationLimit { pivots });
            }

            // Ratio test over rows with positive pivot coefficient.
            let mut leaving: Option<(usize, EpsRational)> = None;
            for i in 0..rows {
                let a = self.matrix[i][entering];
                if !a.is_positive() {
                    continue;
                }
                let ratio = self.rhs[i].scale(a.recip())?;
                match &leaving {
                    None => leaving = Some((i, ratio)),
                    Some((best_row, best)) => {
                        // Bland tie-break: smaller basis column index.
                        if ratio < *best
                            || (ratio == *best && self.basis[i] < self.basis[*best_row])
                        {
                            leaving = Some((i, ratio));
                        }
                    }
                }
            }
            let Some((leave_row, _)) = leaving else {
                // Entering column unbounded below for W — cannot happen for
                // a sum-of-artificials objective, which is bounded by zero.
                // Treat defensively as optimality.
                return Ok(self.obj_value.is_zero());
            };

            self.pivot(leave_row, entering)?;
            *performed += 1;
        }
        unreachable!("loop always returns");
    }

    fn pivot(&mut self, row: usize, col: usize) -> Result<(), SolveError> {
        let rows = self.matrix.len();
        let pivot_val = self.matrix[row][col];
        debug_assert!(pivot_val.is_positive());
        let inv = pivot_val.recip();

        // Normalize the pivot row.
        for v in self.matrix[row].iter_mut() {
            *v = cmul(*v, inv)?;
        }
        self.rhs[row] = self.rhs[row].scale(inv)?;

        // Eliminate the column from all other rows.
        for i in 0..rows {
            if i == row {
                continue;
            }
            let factor = self.matrix[i][col];
            if factor.is_zero() {
                continue;
            }
            for j in 0..self.matrix[i].len() {
                let delta = cmul(factor, self.matrix[row][j])?;
                self.matrix[i][j] = csub(self.matrix[i][j], delta)?;
            }
            let delta = self.rhs[row].scale(factor)?;
            self.rhs[i] = self.rhs[i].checked_sub(delta)?;
        }

        // Eliminate from the objective row. Substituting the entering
        // variable x_e = rhs_r − Σ M_rj x_j into W = obj_value + Σ obj_j x_j
        // adds factor·rhs_r to the constant and subtracts factor·M_rj from
        // each coefficient.
        let factor = self.obj[col];
        if !factor.is_zero() {
            for j in 0..self.obj.len() {
                let delta = cmul(factor, self.matrix[row][j])?;
                self.obj[j] = csub(self.obj[j], delta)?;
            }
            let delta = self.rhs[row].scale(factor)?;
            self.obj_value = self.obj_value.checked_add(delta)?;
        }

        self.basis[row] = col;
        Ok(())
    }

    /// Reads the ε-extended values of the original variables out of the
    /// final basic solution (`x = x⁺ − x⁻`).
    pub fn symbolic_witness(&self) -> Vec<EpsRational> {
        let mut split = vec![EpsRational::ZERO; self.structural];
        for (i, &b) in self.basis.iter().enumerate() {
            if b < self.structural {
                split[b] = self.rhs[i];
            }
        }
        (0..self.original_vars)
            .map(|k| split[2 * k] - split[2 * k + 1])
            .collect()
    }
}

/// Chooses a concrete ε > 0 small enough that substituting it into the
/// symbolic witness satisfies every constraint, then returns the concrete
/// assignment.
fn concretize(
    constraints: &[Constraint],
    symbolic: &[EpsRational],
) -> Result<Vec<Rational>, SolveError> {
    // For each constraint, the left-hand side evaluates to A + B·ε.
    // Each case below either holds for every small ε or yields an upper
    // bound on ε; take the minimum (halved for safety against strictness).
    let mut epsilon = Rational::ONE;
    for con in constraints {
        let mut a = Rational::ZERO;
        let mut b = Rational::ZERO;
        for (v, c) in con.expr().iter() {
            let val = symbolic
                .get(v.index())
                .copied()
                .unwrap_or(EpsRational::ZERO);
            a = a
                .checked_add(cmul(c, val.real())?)
                .ok_or(SolveError::Overflow)?;
            b = b
                .checked_add(cmul(c, val.eps())?)
                .ok_or(SolveError::Overflow)?;
        }
        let gap = csub(a, con.rhs())?; // g(ε) = gap + B·ε, want g ⋈ 0.
        let bound = match con.op() {
            RelOp::Ge | RelOp::Gt => {
                // Need gap + Bε ≥ 0 (or > 0). Only B < 0 limits ε.
                if b.is_negative() && gap.is_positive() {
                    Some(gap.checked_div(-b).ok_or(SolveError::Overflow)?)
                } else {
                    None
                }
            }
            RelOp::Le | RelOp::Lt => {
                // Need gap + Bε ≤ 0 (or < 0). Only B > 0 limits ε.
                if b.is_positive() && gap.is_negative() {
                    Some((-gap).checked_div(b).ok_or(SolveError::Overflow)?)
                } else {
                    None
                }
            }
            RelOp::Eq => None, // symbolic equality forces gap = B = 0.
        };
        if let Some(t) = bound {
            // Halve to stay clear of strict boundaries.
            let t = t * Rational::new(1, 2);
            epsilon = epsilon.min(t);
        }
    }
    Ok(symbolic.iter().map(|v| v.substitute(epsilon)).collect())
}

/// Decides satisfiability with the full simplex and extracts a concrete
/// witness when feasible.
///
/// # Errors
///
/// Returns [`SolveError`] on exact-arithmetic overflow or pivot-limit
/// exhaustion.
pub fn solve_simplex(constraints: &[Constraint]) -> Result<Solution, SolveError> {
    let mut tableau = Tableau::build(constraints)?;
    if !tableau.run_phase1()? {
        return Ok(Solution::Infeasible);
    }
    let symbolic = tableau.symbolic_witness();
    let witness = concretize(constraints, &symbolic)?;
    Ok(Solution::Feasible(witness))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinExpr, VarId};

    fn r(n: i64) -> Rational {
        Rational::from_integer(n)
    }

    fn v(i: u32) -> LinExpr {
        LinExpr::var(VarId::new(i))
    }

    fn check_feasible(sys: &[Constraint]) -> Vec<Rational> {
        let sol = solve_simplex(sys).unwrap();
        let w = sol.witness().expect("expected feasible").to_vec();
        for con in sys {
            assert!(con.is_satisfied_by(&w), "{con} violated by witness {w:?}");
        }
        w
    }

    fn check_infeasible(sys: &[Constraint]) {
        assert!(!solve_simplex(sys).unwrap().is_feasible());
    }

    #[test]
    fn empty_is_feasible() {
        assert!(solve_simplex(&[]).unwrap().is_feasible());
    }

    #[test]
    fn single_bounds() {
        check_feasible(&[Constraint::new(v(0), RelOp::Ge, r(10))]);
        check_feasible(&[Constraint::new(v(0), RelOp::Lt, r(-10))]);
    }

    #[test]
    fn strict_point_infeasible_nonstrict_feasible() {
        check_infeasible(&[
            Constraint::new(v(0), RelOp::Gt, r(5)),
            Constraint::new(v(0), RelOp::Lt, r(5)),
        ]);
        let w = check_feasible(&[
            Constraint::new(v(0), RelOp::Ge, r(5)),
            Constraint::new(v(0), RelOp::Le, r(5)),
        ]);
        assert_eq!(w[0], r(5));
    }

    #[test]
    fn sum_constraint_infeasible() {
        check_infeasible(&[
            Constraint::new(v(0) + v(1), RelOp::Le, r(1)),
            Constraint::new(v(0), RelOp::Ge, r(1)),
            Constraint::new(v(1), RelOp::Ge, r(1)),
        ]);
    }

    #[test]
    fn sum_constraint_tight_feasible() {
        let w = check_feasible(&[
            Constraint::new(v(0) + v(1), RelOp::Le, r(2)),
            Constraint::new(v(0), RelOp::Ge, r(1)),
            Constraint::new(v(1), RelOp::Ge, r(1)),
        ]);
        assert_eq!(w[0] + w[1], r(2));
    }

    #[test]
    fn strict_sum_boundary_infeasible() {
        // x + y < 2 with x ≥ 1 and y ≥ 1 has no solution.
        check_infeasible(&[
            Constraint::new(v(0) + v(1), RelOp::Lt, r(2)),
            Constraint::new(v(0), RelOp::Ge, r(1)),
            Constraint::new(v(1), RelOp::Ge, r(1)),
        ]);
    }

    #[test]
    fn equalities_chain() {
        // x = y, y = z, x + z = 10  ⇒  x = y = z = 5.
        let w = check_feasible(&[
            Constraint::new(v(0) - v(1), RelOp::Eq, r(0)),
            Constraint::new(v(1) - v(2), RelOp::Eq, r(0)),
            Constraint::new(v(0) + v(2), RelOp::Eq, r(10)),
        ]);
        assert_eq!(w, vec![r(5), r(5), r(5)]);
    }

    #[test]
    fn inconsistent_equalities() {
        check_infeasible(&[
            Constraint::new(v(0), RelOp::Eq, r(3)),
            Constraint::new(v(0), RelOp::Eq, r(4)),
        ]);
    }

    #[test]
    fn negative_solutions_are_found() {
        // Free variables must go negative: x + y = -10, x ≤ 0, y ≤ -3.
        let w = check_feasible(&[
            Constraint::new(v(0) + v(1), RelOp::Eq, r(-10)),
            Constraint::new(v(0), RelOp::Le, r(0)),
            Constraint::new(v(1), RelOp::Le, r(-3)),
        ]);
        assert_eq!(w[0] + w[1], r(-10));
    }

    #[test]
    fn fractional_coefficients() {
        // x/2 + y/3 >= 1 and x + y <= 2 and x,y >= 0: x=2,y=0 works.
        let e = LinExpr::term(VarId::new(0), Rational::new(1, 2))
            + LinExpr::term(VarId::new(1), Rational::new(1, 3));
        check_feasible(&[
            Constraint::new(e, RelOp::Ge, r(1)),
            Constraint::new(v(0) + v(1), RelOp::Le, r(2)),
            Constraint::new(v(0), RelOp::Ge, r(0)),
            Constraint::new(v(1), RelOp::Ge, r(0)),
        ]);
    }

    #[test]
    fn redundant_constraints_are_harmless() {
        let mut sys = vec![Constraint::new(v(0) + v(1), RelOp::Le, r(100))];
        for k in 1..20 {
            sys.push(Constraint::new(v(0) + v(1), RelOp::Le, r(100 + k)));
            sys.push(Constraint::new(v(0), RelOp::Ge, r(-k)));
        }
        check_feasible(&sys);
    }

    #[test]
    fn strict_epsilon_composes_across_constraints() {
        // x > 0, y > 0, x + y < 1/1000 is feasible (tiny open simplex).
        check_feasible(&[
            Constraint::new(v(0), RelOp::Gt, r(0)),
            Constraint::new(v(1), RelOp::Gt, r(0)),
            Constraint::new(v(0) + v(1), RelOp::Lt, Rational::new(1, 1000)),
        ]);
    }

    #[test]
    fn paper_e2_shape_four_inequalities() {
        // E2 evaluates conjunctions of 4 inequalities (2 from each rule).
        let sys = [
            Constraint::new(v(0), RelOp::Gt, r(26)),
            Constraint::new(v(1), RelOp::Gt, r(65)),
            Constraint::new(v(0), RelOp::Gt, r(25)),
            Constraint::new(v(1), RelOp::Gt, r(60)),
        ];
        check_feasible(&sys);
    }

    const OPS: [RelOp; 5] = [RelOp::Le, RelOp::Lt, RelOp::Ge, RelOp::Gt, RelOp::Eq];

    /// A random constraint over up to `max_vars` variables: one or two
    /// terms with coefficients in [-5, 5], right-hand side in [-20, 20].
    fn arb_constraint(rng: &mut cadel_types::Rng, max_vars: u64) -> Constraint {
        let terms = 1 + rng.below(2);
        let expr = LinExpr::from_terms((0..terms).map(|_| {
            (
                VarId::new(rng.below(max_vars) as u32),
                r(rng.range_i64(-5, 5)),
            )
        }));
        Constraint::new(expr, *rng.pick(&OPS), r(rng.range_i64(-20, 20)))
    }

    fn arb_system(rng: &mut cadel_types::Rng, max_len: u64) -> Vec<Constraint> {
        let len = rng.below(max_len + 1);
        (0..len).map(|_| arb_constraint(rng, 3)).collect()
    }

    /// Soundness: whenever the simplex claims feasibility, its witness
    /// really satisfies every constraint.
    #[test]
    fn witness_is_sound_on_random_systems() {
        let mut rng = cadel_types::Rng::new(0x50D);
        for _ in 0..256 {
            let sys = arb_system(&mut rng, 7);
            if let Solution::Feasible(w) = solve_simplex(&sys).unwrap() {
                for con in &sys {
                    assert!(con.is_satisfied_by(&w), "{con} violated by {w:?}");
                }
            }
        }
    }

    /// Agreement: on univariate systems the simplex and the interval
    /// fast path return the same verdict.
    #[test]
    fn agrees_with_interval_solver_on_random_bounds() {
        let mut rng = cadel_types::Rng::new(0x1A7);
        for _ in 0..256 {
            let sys: Vec<Constraint> = (0..rng.below(10))
                .map(|_| {
                    Constraint::new(
                        v(rng.below(3) as u32),
                        *rng.pick(&OPS),
                        r(rng.range_i64(-20, 20)),
                    )
                })
                .collect();
            let simplex = solve_simplex(&sys).unwrap().is_feasible();
            let interval = crate::interval::solve_intervals(&sys)
                .unwrap()
                .is_feasible();
            assert_eq!(simplex, interval, "{sys:?}");
        }
    }

    /// Monotonicity: adding constraints never turns an infeasible system
    /// feasible.
    #[test]
    fn adding_constraints_preserves_infeasibility() {
        let mut rng = cadel_types::Rng::new(0x3070);
        for _ in 0..256 {
            let mut sys = arb_system(&mut rng, 5);
            sys.push(arb_constraint(&mut rng, 3));
            let before = solve_simplex(&sys).unwrap().is_feasible();
            sys.push(arb_constraint(&mut rng, 3));
            let after = solve_simplex(&sys).unwrap().is_feasible();
            assert!(before || !after, "{sys:?}");
        }
    }
}
