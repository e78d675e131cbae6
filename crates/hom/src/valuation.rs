//! Valuations: database homomorphisms whose image consists of constants only.
//!
//! A valuation assigns a constant to each null of an instance (paper §2.3). Applying
//! a valuation `v` to `D` yields the complete instance `v(D)`, the building block of
//! every semantics considered in the paper:
//! `⟦D⟧_CWA = { v(D) }`, `⟦D⟧_OWA = { D' ⊇ v(D) }`, and so on.
//!
//! The possible-world sets are infinite because `Const` is; the enumeration functions
//! here take an explicit, finite *constant budget* — the genericity argument for why a
//! bounded budget suffices as a certain-answer oracle is spelled out in `DESIGN.md §6`
//! and in the `nev-core::certain` module.

use std::collections::BTreeSet;

use nev_incomplete::{Constant, Instance, NullId, Value};

use crate::mapping::ValueMap;

/// Returns `true` iff `map` is a valuation *for `d`*: it binds every null of `d` to a
/// constant and does not move any constant.
pub fn is_valuation(map: &ValueMap, d: &Instance) -> bool {
    map.preserves_constants()
        && d.nulls()
            .iter()
            .all(|n| map.apply(&Value::Null(*n)).is_const())
}

/// Applies a valuation to an instance, producing the complete instance `v(D)`.
///
/// # Panics
/// Panics if `map` is not a valuation for `d` (the result would not be complete).
pub fn apply_valuation(map: &ValueMap, d: &Instance) -> Instance {
    assert!(
        is_valuation(map, d),
        "apply_valuation: mapping is not a valuation for the instance"
    );
    map.apply_instance(d)
}

/// A lazy odometer over the valuations of a list of nulls into a constant
/// budget: a mixed-radix counter whose digit `i` indexes the constant bound to
/// null `i`, yielding one [`ValueMap`] per step.
///
/// The first null is the fastest-moving digit, so the order is exactly that of
/// [`enumerate_valuations`] (which collects this iterator). Memory is
/// `O(#nulls + |budget|)` however many valuations remain: a consumer that
/// stops after the first valuation pays for one, not for `|budget|^#nulls`.
///
/// ```
/// use std::collections::BTreeSet;
/// use nev_hom::valuation::Valuations;
/// use nev_incomplete::builder::x;
/// use nev_incomplete::{inst, Constant};
///
/// let d = inst! { "R" => [[x(1), x(2)]] };
/// let budget: BTreeSet<Constant> = (1..=3).map(Constant::int).collect();
/// let mut valuations = Valuations::new(&d, &budget);
/// assert_eq!(valuations.size_hint(), (9, Some(9)));
/// valuations.next();
/// assert_eq!(valuations.count(), 8);
/// ```
#[derive(Clone, Debug)]
pub struct Valuations {
    nulls: Vec<NullId>,
    constants: Vec<Constant>,
    /// The digits of the next valuation; `None` once the counter has wrapped.
    digits: Option<Vec<usize>>,
}

impl Valuations {
    /// The valuations of the nulls of `d` into `budget`. With no nulls there is
    /// exactly one (empty) valuation; with nulls but an empty budget there is none.
    pub fn new(d: &Instance, budget: &BTreeSet<Constant>) -> Self {
        let nulls: Vec<NullId> = d.nulls().into_iter().collect();
        let constants: Vec<Constant> = budget.iter().cloned().collect();
        let digits = (nulls.is_empty() || !constants.is_empty()).then(|| vec![0; nulls.len()]);
        Valuations {
            nulls,
            constants,
            digits,
        }
    }
}

impl Iterator for Valuations {
    type Item = ValueMap;

    fn next(&mut self) -> Option<ValueMap> {
        let digits = self.digits.as_mut()?;
        let map = ValueMap::from_pairs(
            self.nulls
                .iter()
                .zip(digits.iter())
                .map(|(n, idx)| (Value::Null(*n), Value::Const(self.constants[*idx].clone()))),
        );
        // Advance the mixed-radix counter; wrapping past the last digit ends it.
        let mut pos = 0;
        loop {
            if pos == digits.len() {
                self.digits = None;
                break;
            }
            digits[pos] += 1;
            if digits[pos] < self.constants.len() {
                break;
            }
            digits[pos] = 0;
            pos += 1;
        }
        Some(map)
    }

    /// Exact while `|budget|^#nulls` fits a `usize`; beyond that the lower bound
    /// saturates and the upper bound is unknown (192 nulls must not overflow).
    fn size_hint(&self) -> (usize, Option<usize>) {
        let Some(digits) = &self.digits else {
            return (0, Some(0));
        };
        let base = self.constants.len();
        let total = u32::try_from(digits.len())
            .ok()
            .and_then(|n| base.checked_pow(n));
        let Some(total) = total else {
            return (usize::MAX, None);
        };
        // The rank of the next valuation, most significant digit last; it is
        // below `total`, so it cannot overflow either.
        let rank = digits.iter().rev().fold(0, |acc, d| acc * base + d);
        let remaining = total - rank;
        (remaining, Some(remaining))
    }
}

/// Enumerates **all** valuations of the nulls of `d` into the given constant budget,
/// collected from the [`Valuations`] odometer.
///
/// The number of valuations is `|budget|^|Null(D)|` and every one is held in
/// memory; streaming consumers use [`Valuations`] directly.
pub fn enumerate_valuations(d: &Instance, budget: &BTreeSet<Constant>) -> Vec<ValueMap> {
    Valuations::new(d, budget).collect()
}

/// The default constant budget for enumerating the CWA worlds of `d` up to
/// isomorphism fixing `Const(D) ∪ extra`: the constants of `d`, the given extra
/// constants (e.g. constants mentioned by the query), and one fresh constant per null.
pub fn standard_budget(d: &Instance, extra: &BTreeSet<Constant>) -> BTreeSet<Constant> {
    let mut budget = d.constants();
    budget.extend(extra.iter().cloned());
    let fresh = nev_incomplete::instance::fresh_constants(d.nulls().len(), &budget);
    budget.extend(fresh);
    budget
}

/// Enumerates the CWA worlds `v(D)` of `d` over the standard budget extended by
/// `extra` constants; deduplicates equal worlds.
pub fn enumerate_cwa_worlds(d: &Instance, extra: &BTreeSet<Constant>) -> Vec<Instance> {
    let budget = standard_budget(d, extra);
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for v in Valuations::new(d, &budget) {
        let world = v.apply_instance(d);
        if seen.insert(world.clone()) {
            out.push(world);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nev_incomplete::builder::{c, x};
    use nev_incomplete::inst;

    #[test]
    fn is_valuation_checks_nulls_and_constants() {
        let d = inst! { "R" => [[c(1), x(1)], [x(2), x(2)]] };
        let good = ValueMap::from_pairs([(x(1), c(4)), (x(2), c(1))]);
        assert!(is_valuation(&good, &d));
        let partial = ValueMap::from_pairs([(x(1), c(4))]);
        assert!(!is_valuation(&partial, &d));
        let to_null = ValueMap::from_pairs([(x(1), c(4)), (x(2), x(3))]);
        assert!(!is_valuation(&to_null, &d));
        let moves_const = ValueMap::from_pairs([(x(1), c(4)), (x(2), c(1)), (c(1), c(9))]);
        assert!(!is_valuation(&moves_const, &d));
    }

    #[test]
    fn apply_valuation_produces_complete_world() {
        let d = inst! { "R" => [[c(1), x(1)]] };
        let v = ValueMap::from_pairs([(x(1), c(7))]);
        let world = apply_valuation(&v, &d);
        assert!(world.is_complete());
        assert_eq!(world.fact_count(), 1);
    }

    #[test]
    #[should_panic(expected = "not a valuation")]
    fn apply_valuation_panics_on_non_valuation() {
        let d = inst! { "R" => [[x(1)]] };
        let not_val = ValueMap::new();
        let _ = apply_valuation(&not_val, &d);
    }

    #[test]
    fn enumerate_valuations_counts() {
        let d = inst! { "R" => [[x(1), x(2)]] };
        let budget: BTreeSet<Constant> = [Constant::int(1), Constant::int(2), Constant::int(3)]
            .into_iter()
            .collect();
        let vals = enumerate_valuations(&d, &budget);
        assert_eq!(vals.len(), 9); // 3^2
        for v in &vals {
            assert!(is_valuation(v, &d));
        }
        // No nulls: exactly one (empty) valuation, regardless of the budget.
        let complete = inst! { "R" => [[c(1)]] };
        assert_eq!(enumerate_valuations(&complete, &budget).len(), 1);
        assert_eq!(enumerate_valuations(&complete, &BTreeSet::new()).len(), 1);
        // Nulls but empty budget: no valuations.
        assert!(enumerate_valuations(&d, &BTreeSet::new()).is_empty());
    }

    /// The eager mixed-radix loop the odometer replaced, kept as its reference.
    fn eager_valuations(d: &Instance, budget: &BTreeSet<Constant>) -> Vec<ValueMap> {
        let nulls: Vec<NullId> = d.nulls().into_iter().collect();
        if budget.is_empty() && !nulls.is_empty() {
            return Vec::new();
        }
        let constants: Vec<Constant> = budget.iter().cloned().collect();
        let mut out = Vec::new();
        let mut current: Vec<usize> = vec![0; nulls.len()];
        loop {
            out.push(ValueMap::from_pairs(nulls.iter().zip(&current).map(
                |(n, idx)| (Value::Null(*n), Value::Const(constants[*idx].clone())),
            )));
            let mut pos = 0;
            loop {
                if pos == nulls.len() {
                    return out;
                }
                current[pos] += 1;
                if current[pos] < constants.len() {
                    break;
                }
                current[pos] = 0;
                pos += 1;
            }
        }
    }

    #[test]
    fn odometer_matches_the_eager_list_with_exact_size_hints() {
        let instances = [
            inst! { "R" => [[c(1)]] },
            inst! { "R" => [[x(1)]] },
            inst! { "R" => [[x(1), x(2)], [x(3), c(1)]] },
        ];
        for d in &instances {
            for width in 0..4 {
                let budget: BTreeSet<Constant> = (1..=width).map(Constant::int).collect();
                let eager = eager_valuations(d, &budget);
                let mut lazy = Valuations::new(d, &budget);
                for (i, expected) in eager.iter().enumerate() {
                    let left = eager.len() - i;
                    assert_eq!(lazy.size_hint(), (left, Some(left)), "{d} width={width}");
                    assert_eq!(lazy.next().as_ref(), Some(expected), "{d} width={width}");
                }
                assert_eq!(lazy.size_hint(), (0, Some(0)));
                assert!(lazy.next().is_none());
            }
        }
    }

    #[test]
    fn odometer_over_192_nulls_starts_at_once_without_overflow() {
        // 192 nulls over a budget of 192 fresh constants: 192^192 valuations,
        // which an eager list could never hold.
        let mut d = Instance::new();
        for i in 1..=192 {
            d.add_tuple("R", vec![x(i), c(1)])
                .expect("one arity throughout");
        }
        let budget = standard_budget(&d, &BTreeSet::new());
        let mut valuations = Valuations::new(&d, &budget);
        assert_eq!(valuations.size_hint(), (usize::MAX, None));
        let first = valuations.next().expect("a first valuation");
        assert!(is_valuation(&first, &d));
        assert_eq!(valuations.size_hint(), (usize::MAX, None));
    }

    #[test]
    fn standard_budget_has_fresh_constants_per_null() {
        let d = inst! { "R" => [[c(1), x(1)], [x(2), x(3)]] };
        let budget = standard_budget(&d, &BTreeSet::new());
        // 1 constant of D + 3 fresh ones.
        assert_eq!(budget.len(), 4);
        assert!(budget.contains(&Constant::int(1)));
        let extra: BTreeSet<Constant> = [Constant::int(42)].into_iter().collect();
        let budget = standard_budget(&d, &extra);
        assert_eq!(budget.len(), 5);
        assert!(budget.contains(&Constant::int(42)));
    }

    #[test]
    fn cwa_worlds_of_d0() {
        // D0 = {(⊥,⊥′),(⊥′,⊥)}: its CWA worlds are all {(c,c′),(c′,c)} with possibly c=c′.
        let d0 = inst! { "D" => [[x(1), x(2)], [x(2), x(1)]] };
        let worlds = enumerate_cwa_worlds(&d0, &BTreeSet::new());
        assert!(!worlds.is_empty());
        for w in &worlds {
            assert!(w.is_complete());
            // Each world is symmetric: (a,b) present iff (b,a) present.
            let rel = w.relation("D").unwrap();
            for t in rel.tuples() {
                let rev: Vec<Value> = t.values().iter().rev().cloned().collect();
                assert!(rel.contains(&rev.into_iter().collect()));
            }
            // Worlds have 1 or 2 tuples depending on whether the two nulls collapse.
            assert!(w.fact_count() == 1 || w.fact_count() == 2);
        }
        // Both shapes occur.
        assert!(worlds.iter().any(|w| w.fact_count() == 1));
        assert!(worlds.iter().any(|w| w.fact_count() == 2));
    }

    #[test]
    fn enumerate_cwa_worlds_deduplicates() {
        // Both nulls mapping to the same constants in different orders can produce the
        // same world; the enumeration deduplicates exact duplicates.
        let d = inst! { "R" => [[x(1)], [x(2)]] };
        let worlds = enumerate_cwa_worlds(&d, &BTreeSet::new());
        let unique: BTreeSet<_> = worlds.iter().cloned().collect();
        assert_eq!(worlds.len(), unique.len());
    }
}
