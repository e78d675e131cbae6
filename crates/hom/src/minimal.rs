//! `D`-minimal homomorphisms and valuations (paper §10).
//!
//! A database homomorphism `h` defined on `D` is **`D`-minimal** if no other database
//! homomorphism `g` on `D` has `g(D) ⊊ h(D)`; when `h` is a valuation we speak of a
//! `D`-minimal valuation. Minimal valuations define the semantics `⟦D⟧ᵐⁱⁿ_CWA` and
//! `⦅D⦆ᵐⁱⁿ_CWA`, which originate in the AI / data-exchange literature (Minker 1982,
//! Hernich 2011) and are the paper's running example of *non-saturated* semantics.

use std::collections::BTreeSet;

use nev_incomplete::{Constant, Instance};

use crate::mapping::ValueMap;
use crate::search::{exists_homomorphism, HomConfig};
use crate::valuation::{is_valuation, standard_budget, Valuations};

/// Returns `true` iff `image` is a ⊊-minimal homomorphic image of `d` among images of
/// *database* homomorphisms: there is no database homomorphism from `d` into a proper
/// subinstance of `image`.
///
/// `h` is `D`-minimal iff `h(D)` passes this test (the paper's definition quantifies
/// over homomorphisms `g` with `g(D) ⊊ h(D)`, and `g(D) ⊊ h(D)` holds for some `g`
/// exactly when `d` maps into `image` minus one tuple).
pub fn is_minimal_image(d: &Instance, image: &Instance) -> bool {
    for smaller in image.remove_one_tuple_variants() {
        if exists_homomorphism(d, &smaller, &HomConfig::database()) {
            return false;
        }
    }
    true
}

/// Returns `true` iff `h` is a `D`-minimal database homomorphism on `d`.
pub fn is_minimal_homomorphism(h: &ValueMap, d: &Instance) -> bool {
    h.preserves_constants() && is_minimal_image(d, &h.apply_instance(d))
}

/// Returns `true` iff `v` is a `D`-minimal valuation on `d`.
pub fn is_minimal_valuation(v: &ValueMap, d: &Instance) -> bool {
    is_valuation(v, d) && is_minimal_image(d, &v.apply_instance(d))
}

/// Enumerates the `D`-minimal valuations of `d` over the standard constant budget
/// extended by `extra` (see [`standard_budget`]).
pub fn enumerate_minimal_valuations(d: &Instance, extra: &BTreeSet<Constant>) -> Vec<ValueMap> {
    let budget = standard_budget(d, extra);
    Valuations::new(d, &budget)
        .filter(|v| is_minimal_image(d, &v.apply_instance(d)))
        .collect()
}

/// Enumerates the worlds of the (non-powerset) minimal-CWA semantics
/// `⟦D⟧ᵐⁱⁿ_CWA = { v(D) | v a D-minimal valuation }` over the standard budget,
/// deduplicating equal worlds.
pub fn enumerate_minimal_cwa_worlds(d: &Instance, extra: &BTreeSet<Constant>) -> Vec<Instance> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for v in enumerate_minimal_valuations(d, extra) {
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
    use crate::search::find_homomorphism;
    use nev_incomplete::builder::{c, x};
    use nev_incomplete::graph::{directed_cycle, disjoint_cycles, NodeKind};
    use nev_incomplete::inst;
    use nev_incomplete::Value;

    #[test]
    fn paper_example_non_minimal_valuation() {
        // §10: D = {(⊥,⊥),(⊥,⊥′)}, v(⊥)=1, v(⊥′)=2 is NOT minimal; v′(⊥)=v′(⊥′)=1 is.
        let d = inst! { "D" => [[x(1), x(1)], [x(1), x(2)]] };
        let v = ValueMap::from_pairs([(x(1), c(1)), (x(2), c(2))]);
        let v_prime = ValueMap::from_pairs([(x(1), c(1)), (x(2), c(1))]);
        assert!(!is_minimal_valuation(&v, &d));
        assert!(is_minimal_valuation(&v_prime, &d));
    }

    #[test]
    fn minimal_worlds_of_paper_example_are_loops() {
        // Every D-minimal valuation of {(⊥,⊥),(⊥,⊥′)} collapses ⊥′ onto ⊥, so minimal
        // CWA worlds are exactly the single self-loops {(c,c)}.
        let d = inst! { "D" => [[x(1), x(1)], [x(1), x(2)]] };
        let worlds = enumerate_minimal_cwa_worlds(&d, &BTreeSet::new());
        assert!(!worlds.is_empty());
        for w in &worlds {
            assert_eq!(w.fact_count(), 1);
            let t = w.relation("D").unwrap().tuples().next().unwrap().clone();
            assert_eq!(t.get(0), t.get(1));
        }
    }

    #[test]
    fn injective_valuations_on_cores_are_minimal() {
        // On a core with no constants, any injective valuation is minimal
        // (Proposition 10.4's saturation witness).
        let c3 = directed_cycle(3, NodeKind::Nulls, 0);
        let v = ValueMap::from_pairs(
            c3.nulls()
                .into_iter()
                .enumerate()
                .map(|(i, n)| (Value::Null(n), c(100 + i as i64))),
        );
        assert!(is_minimal_valuation(&v, &c3));
    }

    #[test]
    fn proposition_10_1_graph_counterexample() {
        // G = C4 + C6 and H = C3 + C2 are both cores, there is a strong onto
        // homomorphism G → H, but it is not G-minimal because G → C2.
        let g = disjoint_cycles(4, 6, NodeKind::Nulls);
        let h_target = {
            // C3 on constants 200.. and C2 on constants 300..
            let c3 = directed_cycle(3, NodeKind::Constants, 200);
            let c2 = directed_cycle(2, NodeKind::Constants, 300);
            c3.union(&c2).unwrap()
        };
        let hom = find_homomorphism(&g, &h_target, &HomConfig::database()).expect("G → C3+C2");
        // The image of that homomorphism is not a minimal image: G also maps into C2 alone.
        assert!(!is_minimal_homomorphism(&hom, &g));
        // Whereas mapping G into C2 alone *is* minimal (C2 has no proper subinstance
        // admitting a homomorphism from G).
        let c2 = directed_cycle(2, NodeKind::Constants, 300);
        let into_c2 = find_homomorphism(&g, &c2, &HomConfig::database()).expect("G → C2");
        assert!(is_minimal_homomorphism(&into_c2, &g));
    }

    #[test]
    fn minimal_valuation_count_on_independent_nulls() {
        // D = {(⊥1), (⊥2)} over a unary relation: a valuation is minimal iff it maps
        // both nulls to the same constant (image of size 1).
        let d = inst! { "R" => [[x(1)], [x(2)]] };
        let minimal = enumerate_minimal_valuations(&d, &BTreeSet::new());
        assert!(!minimal.is_empty());
        for v in &minimal {
            assert_eq!(v.apply(&x(1)), v.apply(&x(2)));
        }
        let worlds = enumerate_minimal_cwa_worlds(&d, &BTreeSet::new());
        for w in &worlds {
            assert_eq!(w.fact_count(), 1);
        }
    }

    #[test]
    fn constants_pin_minimal_images() {
        // D = {(1,⊥)}: every valuation produces a single tuple (1, c); all of them are
        // minimal because the image cannot shrink below one tuple.
        let d = inst! { "R" => [[c(1), x(1)]] };
        let budget = standard_budget(&d, &BTreeSet::new());
        for v in Valuations::new(&d, &budget) {
            assert!(is_minimal_valuation(&v, &d));
        }
    }

    #[test]
    fn non_db_mapping_is_not_minimal_homomorphism() {
        let d = inst! { "R" => [[c(1), x(1)]] };
        let moves_const = ValueMap::from_pairs([(c(1), c(2)), (x(1), c(2))]);
        assert!(!is_minimal_homomorphism(&moves_const, &d));
    }
}
