//! The concrete semantics of incompleteness and their possible worlds.
//!
//! A semantics `⟦·⟧` assigns to each incomplete database `D` a set of *complete*
//! databases, its possible worlds. The paper builds every semantics it studies in two
//! steps (§4.1): first apply valuations to nulls, then modify the result according to
//! a semantic relation `Rsem`. The six semantics implemented here are:
//!
//! | semantics | worlds |
//! |---|---|
//! | `⟦D⟧_CWA` | `v(D)` for a valuation `v` |
//! | `⟦D⟧_OWA` | complete `D' ⊇ v(D)` |
//! | `⟦D⟧_WCWA` | complete `D' ⊇ v(D)` with `adom(D') = adom(v(D))` |
//! | `⦅D⦆_CWA` | `v₁(D) ∪ … ∪ vₙ(D)`, `n ≥ 1` |
//! | `⟦D⟧ᵐⁱⁿ_CWA` | `v(D)` for a *D-minimal* valuation `v` |
//! | `⦅D⦆ᵐⁱⁿ_CWA` | unions of images of D-minimal valuations |
//!
//! Two interfaces are provided:
//!
//! * [`Semantics::contains_world`] — an **exact** membership test `D' ∈ ⟦D⟧`, using
//!   the homomorphism characterisations of Proposition 6.1 / Theorem 7.1 /
//!   Proposition 10.1;
//! * [`Semantics::enumerate_worlds`] — a **bounded** enumeration of worlds over a
//!   finite constant budget, the ground-truth oracle for certain answers. The budget
//!   and the approximation guarantees are documented in `DESIGN.md §6`: exact for the
//!   CWA family, a sound over-approximation of certain answers for OWA (and for WCWA /
//!   powerset widths beyond the configured caps).

use std::collections::BTreeSet;
use std::ops::{ControlFlow, Deref};
use std::sync::Arc;

use nev_hom::minimal::is_minimal_image;
use nev_hom::search::{
    all_homomorphisms, has_db_homomorphism, has_onto_db_homomorphism,
    has_strong_onto_db_homomorphism, HomConfig,
};
use nev_hom::valuation::Valuations;
use nev_hom::ValueMap;
use nev_incomplete::instance::fresh_constants;
use nev_incomplete::{Constant, Instance, Tuple, Value};

/// The six semantics of incompleteness studied in the paper.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Semantics {
    /// Open-world assumption `⟦·⟧_OWA`.
    Owa,
    /// Closed-world assumption `⟦·⟧_CWA`.
    Cwa,
    /// Weak closed-world assumption `⟦·⟧_WCWA` (Reiter 1977).
    Wcwa,
    /// Powerset closed-world semantics `⦅·⦆_CWA` (§7).
    PowersetCwa,
    /// Minimal-valuation closed-world semantics `⟦·⟧ᵐⁱⁿ_CWA` (§10).
    MinimalCwa,
    /// Minimal-valuation powerset semantics `⦅·⦆ᵐⁱⁿ_CWA` (Hernich 2011; §10).
    MinimalPowersetCwa,
}

impl Semantics {
    /// All six semantics, in the order of Figure 1.
    pub const ALL: [Semantics; 6] = [
        Semantics::Owa,
        Semantics::Wcwa,
        Semantics::Cwa,
        Semantics::PowersetCwa,
        Semantics::MinimalCwa,
        Semantics::MinimalPowersetCwa,
    ];

    /// Returns `true` for the semantics based on *minimal* valuations, which are not
    /// saturated (§9–§10) — their results hold over cores.
    pub fn is_minimal(self) -> bool {
        matches!(self, Semantics::MinimalCwa | Semantics::MinimalPowersetCwa)
    }

    /// Returns `true` for the powerset-based semantics (several valuations at once).
    pub fn is_powerset(self) -> bool {
        matches!(self, Semantics::PowersetCwa | Semantics::MinimalPowersetCwa)
    }

    /// The short name used in Figure 1 and in experiment logs.
    pub fn short_name(self) -> &'static str {
        match self {
            Semantics::Owa => "OWA",
            Semantics::Cwa => "CWA",
            Semantics::Wcwa => "WCWA",
            Semantics::PowersetCwa => "⦅ ⦆_CWA",
            Semantics::MinimalCwa => "⟦ ⟧min_CWA",
            Semantics::MinimalPowersetCwa => "⦅ ⦆min_CWA",
        }
    }

    /// Exact membership test: is the complete instance `world` a possible world of the
    /// incomplete instance `d` under this semantics?
    ///
    /// # Panics
    /// Panics if `world` is not complete.
    pub fn contains_world(self, d: &Instance, world: &Instance) -> bool {
        assert!(
            world.is_complete(),
            "possible worlds must be complete instances"
        );
        match self {
            // D' ∈ ⟦D⟧_OWA iff some valuation (= database homomorphism into a complete
            // instance) maps D into D'.
            Semantics::Owa => has_db_homomorphism(d, world),
            // D' ∈ ⟦D⟧_CWA iff D' = v(D) for some valuation, i.e. a strong onto
            // database homomorphism exists.
            Semantics::Cwa => has_strong_onto_db_homomorphism(d, world),
            // D' ∈ ⟦D⟧_WCWA iff some valuation h has h(D) ⊆ D' and adom(D') = adom(h(D)),
            // i.e. an onto database homomorphism exists.
            Semantics::Wcwa => has_onto_db_homomorphism(d, world),
            Semantics::PowersetCwa => covered_by_hom_images(d, world, false),
            Semantics::MinimalCwa => {
                has_strong_onto_db_homomorphism(d, world) && is_minimal_image(d, world)
            }
            Semantics::MinimalPowersetCwa => covered_by_hom_images(d, world, true),
        }
    }

    /// Enumerates a finite set of possible worlds of `d` under this semantics, within
    /// the given bounds. See the module documentation for the exactness guarantees.
    pub fn enumerate_worlds(self, d: &Instance, bounds: &WorldBounds) -> Vec<Instance> {
        let mut out = Vec::new();
        let mut seen = BTreeSet::new();
        for w in self.worlds(d, bounds) {
            if seen.insert(w.clone()) {
                out.push(w);
            }
        }
        out
    }

    /// Returns a lazy iterator over the bounded possible worlds of `d` under this
    /// semantics — the streaming primitive behind [`Semantics::for_each_world`],
    /// [`Semantics::enumerate_worlds`], the `engine` module's evaluation paths and
    /// the serve layer's pool oracle.
    ///
    /// Nothing is materialised up front: valuations come one at a time from the
    /// [`Valuations`] odometer, and each step builds one world (one valuation
    /// image, one image plus a set of extra facts, one union). Memory is
    /// `O(#nulls)` plus what a semantics must hold — the facts missing from the
    /// current image (OWA, WCWA), the images seen so far (the deduplicating
    /// variants) — so a consumer that exits on its first world (a Boolean
    /// check that met a counter-world, an emptied intersection) pays for one
    /// world however large `|budget|^#nulls` is. Worlds may be repeated; use
    /// [`Semantics::enumerate_worlds`] for a deduplicated list.
    pub fn worlds<'a>(self, d: &'a Instance, bounds: &WorldBounds) -> Worlds<'a> {
        Worlds::new(self, Source::Borrowed(d), bounds)
    }

    /// [`Semantics::worlds`] over a shared instance: the stream holds the `Arc`
    /// instead of a borrow, so it is `'static` and can move into pool tasks
    /// without copying the instance. Same worlds, same order.
    pub fn shared_worlds(self, d: Arc<Instance>, bounds: &WorldBounds) -> Worlds<'static> {
        Worlds::new(self, Source::Shared(d), bounds)
    }

    /// Streams the bounded possible worlds of `d` to `visitor`, stopping early if the
    /// visitor breaks. A thin closure-style wrapper around [`Semantics::worlds`];
    /// worlds may be repeated. Returns `Break` iff the visitor broke or the
    /// enumeration was truncated by [`WorldBounds::max_worlds`].
    pub fn for_each_world<F>(
        self,
        d: &Instance,
        bounds: &WorldBounds,
        mut visitor: F,
    ) -> ControlFlow<()>
    where
        F: FnMut(&Instance) -> ControlFlow<()>,
    {
        let mut worlds = self.worlds(d, bounds);
        for w in &mut worlds {
            visitor(&w)?;
        }
        if worlds.truncated() {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }
}

/// An iterator over the bounded possible worlds of an instance, created by
/// [`Semantics::worlds`] or [`Semantics::shared_worlds`].
///
/// Every step is incremental: the CWA family applies the next valuation, the
/// OWA/WCWA extension semantics add the next bounded set of missing facts to
/// the current valuation image, and the powerset semantics build one union per
/// step, drawing a new deduplicated image only when the next union needs it.
/// The iterator stops after [`WorldBounds::max_worlds`] items (see
/// [`Worlds::truncated`]).
pub struct Worlds<'a> {
    d: Source<'a>,
    emitted: usize,
    max_worlds: usize,
    /// A world beyond `max_worlds` was generated and suppressed.
    overflowed: bool,
    /// The underlying enumeration is exhausted (or the cap was hit).
    finished: bool,
    state: WorldsState,
}

/// The instance a [`Worlds`] stream enumerates.
enum Source<'a> {
    Borrowed(&'a Instance),
    Shared(Arc<Instance>),
}

impl Deref for Source<'_> {
    type Target = Instance;

    fn deref(&self) -> &Instance {
        match self {
            Source::Borrowed(d) => d,
            Source::Shared(d) => d,
        }
    }
}

enum WorldsState {
    /// CWA and minimal CWA: one world per valuation image.
    Images(Images),
    /// WCWA and OWA: every valuation image plus all bounded fact extensions over the
    /// image's active domain (WCWA) or the enlarged constant budget (OWA).
    Extensions {
        valuations: Valuations,
        /// Extra values extension tuples may use beyond the image's active domain.
        extension_domain: BTreeSet<Value>,
        /// OWA grows the domain with the budget; WCWA keeps `adom(v(D))`.
        grow_domain: bool,
        max_extra: usize,
        /// The current valuation image and the facts missing from it over the
        /// extension domain.
        image: Option<(Instance, Vec<(String, Tuple)>)>,
        /// The next set of missing facts to add, as ascending indices in the
        /// order of [`next_selection`] (the empty set first); `None` once the
        /// current image has no further extension.
        extra: Option<Vec<usize>>,
    },
    /// Powerset semantics: unions of at most `width` distinct valuation images.
    Unions {
        source: Images,
        /// The images drawn from `source` so far, in stream order.
        images: Vec<Instance>,
        width: usize,
        /// The next selection as ascending image indices. Read as the set bits
        /// of a binary number, selections run in increasing order, so a union
        /// that needs image `k` comes only after every union of images `< k`.
        /// `None` once the images ran out.
        next: Option<Vec<usize>>,
    },
}

/// The valuation images `v(D)` in odometer order, optionally deduplicated and
/// (for the minimal semantics) restricted to `D`-minimal images.
struct Images {
    valuations: Valuations,
    /// Images emitted so far; `None` when repeats are allowed.
    seen: Option<BTreeSet<Instance>>,
    minimal: bool,
}

impl Images {
    fn new(d: &Instance, budget: &BTreeSet<Constant>, dedup: bool, minimal: bool) -> Self {
        Images {
            valuations: Valuations::new(d, budget),
            seen: dedup.then(BTreeSet::new),
            minimal,
        }
    }

    fn next(&mut self, d: &Instance) -> Option<Instance> {
        loop {
            let world = self.valuations.next()?.apply_instance(d);
            let Some(seen) = &mut self.seen else {
                return Some(world);
            };
            // Deduplicate images before the (comparatively expensive) minimality
            // check: many valuations share an image.
            if seen.insert(world.clone()) && (!self.minimal || is_minimal_image(d, &world)) {
                return Some(world);
            }
        }
    }
}

impl<'a> Worlds<'a> {
    fn new(semantics: Semantics, d: Source<'a>, bounds: &WorldBounds) -> Self {
        let budget = bounds.budget_for(&d, semantics);
        let state = match semantics {
            Semantics::Cwa => WorldsState::Images(Images::new(&d, &budget, false, false)),
            Semantics::MinimalCwa => WorldsState::Images(Images::new(&d, &budget, true, true)),
            Semantics::Wcwa => WorldsState::Extensions {
                valuations: Valuations::new(&d, &budget),
                extension_domain: BTreeSet::new(),
                grow_domain: false,
                max_extra: bounds.wcwa_max_extra_tuples,
                image: None,
                extra: None,
            },
            Semantics::Owa => {
                let fresh: Vec<Constant> = {
                    let mut avoid = budget.clone();
                    avoid.extend(bounds.extra_constants.iter().cloned());
                    fresh_constants(bounds.owa_fresh_values, &avoid)
                };
                let mut extension_domain: BTreeSet<Value> =
                    budget.iter().cloned().map(Value::Const).collect();
                extension_domain.extend(fresh.into_iter().map(Value::Const));
                WorldsState::Extensions {
                    valuations: Valuations::new(&d, &budget),
                    extension_domain,
                    grow_domain: true,
                    max_extra: bounds.owa_max_extra_tuples,
                    image: None,
                    extra: None,
                }
            }
            Semantics::PowersetCwa | Semantics::MinimalPowersetCwa => WorldsState::Unions {
                source: Images::new(&d, &budget, true, semantics.is_minimal()),
                images: Vec::new(),
                width: bounds.union_width.max(1),
                next: Some(vec![0]),
            },
        };
        Worlds {
            d,
            emitted: 0,
            max_worlds: bounds.max_worlds,
            overflowed: false,
            finished: false,
            state,
        }
    }
}

impl Worlds<'_> {
    /// Returns `true` iff the iteration was genuinely cut short by
    /// [`WorldBounds::max_worlds`]: a further world existed beyond the cap and was
    /// suppressed. An enumeration that completes at exactly the cap is not
    /// truncated.
    pub fn truncated(&self) -> bool {
        self.overflowed
    }

    fn next_world(&mut self) -> Option<Instance> {
        let d: &Instance = &self.d;
        match &mut self.state {
            WorldsState::Images(images) => images.next(d),
            WorldsState::Extensions {
                valuations,
                extension_domain,
                grow_domain,
                max_extra,
                image,
                extra,
            } => loop {
                if let (Some((base, missing)), Some(selection)) = (image.as_ref(), extra.as_mut()) {
                    let world = add_facts(base, selection.iter().map(|&i| &missing[i]));
                    let more = *max_extra > 0 && {
                        next_selection(selection, *max_extra);
                        selection.last().is_some_and(|&top| top < missing.len())
                    };
                    if !more {
                        *extra = None;
                    }
                    return Some(world);
                }
                let base = valuations.next()?.apply_instance(d);
                let mut domain: BTreeSet<Value> = base.adom();
                if *grow_domain {
                    domain.extend(extension_domain.iter().cloned());
                }
                let missing = missing_tuples_over(&base, &domain);
                *image = Some((base, missing));
                *extra = Some(Vec::new());
            },
            WorldsState::Unions {
                source,
                images,
                width,
                next,
            } => {
                let combo = next.as_mut()?;
                let top = *combo.last().expect("selections are non-empty");
                if top == images.len() {
                    match source.next(d) {
                        Some(image) => images.push(image),
                        None => {
                            *next = None;
                            return None;
                        }
                    }
                }
                let mut world = Instance::empty_of_schema(&d.schema());
                for idx in combo.iter() {
                    world = world.union(&images[*idx]).expect("same schema");
                }
                next_selection(combo, *width);
                Some(world)
            }
        }
    }
}

/// Advances `combo` — ascending indices, read as the set bits of a binary
/// number — to the next larger number with at most `width ≥ 1` bits set.
fn next_selection(combo: &mut Vec<usize>, width: usize) {
    add_low_bit(combo, 0);
    // Too many bits: adding the lowest set bit clears its run of ones, the
    // smallest step that can reduce the count.
    while combo.len() > width {
        let low = combo[0];
        add_low_bit(combo, low);
    }
}

/// Adds `2^bit` to the number whose set bits are `combo`, given none below `bit`.
fn add_low_bit(combo: &mut Vec<usize>, bit: usize) {
    let run = combo
        .iter()
        .enumerate()
        .take_while(|&(i, &b)| b == bit + i)
        .count();
    combo.drain(..run);
    combo.insert(0, bit + run);
}

impl Iterator for Worlds<'_> {
    type Item = Instance;

    fn next(&mut self) -> Option<Instance> {
        if self.finished {
            return None;
        }
        let Some(world) = self.next_world() else {
            self.finished = true;
            return None;
        };
        if self.emitted >= self.max_worlds {
            // The cap is only a genuine truncation if this further world existed.
            self.overflowed = true;
            self.finished = true;
            return None;
        }
        self.emitted += 1;
        Some(world)
    }
}

impl std::fmt::Display for Semantics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.short_name())
    }
}

/// Error returned when parsing a [`Semantics`] from an unrecognised name.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseSemanticsError(pub String);

impl std::fmt::Display for ParseSemanticsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown semantics `{}` (expected one of: owa, wcwa, cwa, powerset-cwa, \
             minimal-cwa, minimal-powerset-cwa, or a Figure 1 short name)",
            self.0
        )
    }
}

impl std::error::Error for ParseSemanticsError {}

impl std::str::FromStr for Semantics {
    type Err = ParseSemanticsError;

    /// Parses both the Figure 1 short names (as printed by `Display`, so
    /// `to_string`/`parse` round-trips) and ASCII command-line spellings such as
    /// `owa`, `powerset-cwa` or `minimal_cwa` (case-insensitive, `-`/`_`
    /// interchangeable).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let trimmed = s.trim();
        // The exact Display forms first: they contain spaces and brackets.
        for sem in Semantics::ALL {
            if trimmed == sem.short_name() {
                return Ok(sem);
            }
        }
        let normalized: String = trimmed
            .to_ascii_lowercase()
            .chars()
            .map(|ch| if ch == '_' || ch == ' ' { '-' } else { ch })
            .collect();
        match normalized.as_str() {
            "owa" => Ok(Semantics::Owa),
            "cwa" => Ok(Semantics::Cwa),
            "wcwa" => Ok(Semantics::Wcwa),
            "powerset-cwa" | "pcwa" => Ok(Semantics::PowersetCwa),
            "minimal-cwa" | "min-cwa" => Ok(Semantics::MinimalCwa),
            "minimal-powerset-cwa" | "min-powerset-cwa" | "min-pcwa" => {
                Ok(Semantics::MinimalPowersetCwa)
            }
            _ => Err(ParseSemanticsError(trimmed.to_string())),
        }
    }
}

/// Bounds controlling the possible-world enumeration (see `DESIGN.md §6`).
#[derive(Clone, Debug)]
pub struct WorldBounds {
    /// Constants mentioned by the query under consideration; they enter the valuation
    /// budget so that genericity relative to them is respected.
    pub extra_constants: BTreeSet<Constant>,
    /// Powerset semantics: maximum number of valuation images unioned together.
    pub union_width: usize,
    /// OWA: number of extra fresh constants available to extension tuples.
    pub owa_fresh_values: usize,
    /// OWA: maximum number of extension tuples added on top of a valuation image.
    pub owa_max_extra_tuples: usize,
    /// WCWA: maximum number of extension tuples (within the active domain) added on
    /// top of a valuation image. Raising it towards the number of missing tuples makes
    /// the WCWA enumeration exact at an exponential cost.
    pub wcwa_max_extra_tuples: usize,
    /// Hard cap on the number of worlds visited (a safety valve for misconfigured
    /// experiments; hitting it truncates the enumeration).
    pub max_worlds: usize,
}

impl Default for WorldBounds {
    fn default() -> Self {
        WorldBounds {
            extra_constants: BTreeSet::new(),
            union_width: 2,
            owa_fresh_values: 1,
            owa_max_extra_tuples: 1,
            wcwa_max_extra_tuples: 3,
            max_worlds: 500_000,
        }
    }
}

impl WorldBounds {
    /// Bounds that additionally account for the constants mentioned by a query.
    pub fn for_query_constants(constants: BTreeSet<Constant>) -> Self {
        WorldBounds {
            extra_constants: constants,
            ..WorldBounds::default()
        }
    }

    /// A copy of these bounds with additional query constants in the budget — the
    /// single primitive behind [`crate::certain::bounds_for_query`] and
    /// `PreparedQuery::bounds`, so the derivation cannot diverge between the legacy
    /// and engine paths.
    pub fn extended_with<I>(&self, constants: I) -> WorldBounds
    where
        I: IntoIterator<Item = Constant>,
    {
        let mut bounds = self.clone();
        bounds.extra_constants.extend(constants);
        bounds
    }

    /// The valuation budget for an instance under a given semantics: its constants,
    /// the extra (query) constants, and one fresh constant per null — per unioned
    /// valuation for the powerset semantics, so that unions of `union_width`
    /// independent valuations are representable.
    pub fn budget_for(&self, d: &Instance, semantics: Semantics) -> BTreeSet<Constant> {
        let mut budget = d.constants();
        budget.extend(self.extra_constants.iter().cloned());
        let multiplier = if semantics.is_powerset() {
            self.union_width.max(1)
        } else {
            1
        };
        let fresh = fresh_constants(d.nulls().len() * multiplier, &budget);
        budget.extend(fresh);
        budget
    }
}

/// Is every tuple of `world` covered by the image of some database homomorphism
/// `d → world` (minimal ones only when `minimal` is set), with at least one such
/// homomorphism existing? This characterises membership in the powerset semantics and
/// (over arbitrary, possibly incomplete targets) the powerset ordering `⋐_CWA` of
/// Theorem 7.1.
pub(crate) fn covered_by_hom_images(d: &Instance, world: &Instance, minimal: bool) -> bool {
    let homs: Vec<ValueMap> = all_homomorphisms(d, world, &HomConfig::database());
    let unique_images: BTreeSet<Instance> = homs.iter().map(|h| h.apply_instance(d)).collect();
    let images: Vec<Instance> = unique_images
        .into_iter()
        .filter(|img| !minimal || is_minimal_image(d, img))
        .collect();
    if images.is_empty() {
        // With no nulls and d = world = empty this should still succeed via the empty
        // homomorphism; `all_homomorphisms` returns it, so images is non-empty unless
        // no homomorphism exists at all.
        return false;
    }
    let mut union = Instance::empty_of_schema(&d.schema());
    for img in &images {
        union = union.union(img).expect("same schema");
    }
    union.same_facts(world)
}

/// All tuples of the given arity over the listed domain values.
fn all_tuples_over(domain: &[Value], arity: usize) -> Vec<Tuple> {
    let mut partials: Vec<Vec<Value>> = vec![Vec::new()];
    for _ in 0..arity {
        let mut next = Vec::with_capacity(partials.len() * domain.len());
        for partial in &partials {
            for v in domain {
                let mut extended = partial.clone();
                extended.push(v.clone());
                next.push(extended);
            }
        }
        partials = next;
    }
    partials.into_iter().map(Tuple::new).collect()
}

/// All facts over `domain` (per relation of `base`'s schema) that are not already in
/// `base`.
fn missing_tuples_over(base: &Instance, domain: &BTreeSet<Value>) -> Vec<(String, Tuple)> {
    let domain: Vec<Value> = domain.iter().cloned().collect();
    let mut out = Vec::new();
    for rel in base.relations() {
        let arity = rel.arity();
        if domain.is_empty() && arity > 0 {
            continue;
        }
        for tuple in all_tuples_over(&domain, arity) {
            if !rel.contains(&tuple) {
                out.push((rel.name().to_string(), tuple));
            }
        }
    }
    out
}

fn add_facts<'t>(
    base: &Instance,
    extra: impl IntoIterator<Item = &'t (String, Tuple)>,
) -> Instance {
    let mut out = base.clone();
    for (rel, tuple) in extra {
        out.add_tuple(rel, tuple.clone())
            .expect("arity-consistent extension");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nev_incomplete::builder::{c, x};
    use nev_incomplete::inst;

    fn d0() -> Instance {
        inst! { "D" => [[x(1), x(2)], [x(2), x(1)]] }
    }

    #[test]
    fn membership_examples_from_section_2_3() {
        // ⟦D0⟧_CWA consists of all {(c,c'),(c',c)}; ⟦D0⟧_OWA of all complete instances
        // containing such a pair.
        let d0 = d0();
        let w1 = inst! { "D" => [[c(1), c(2)], [c(2), c(1)]] };
        let w2 = inst! { "D" => [[c(1), c(1)]] };
        let w3 = inst! { "D" => [[c(1), c(2)], [c(2), c(1)], [c(3), c(3)]] };
        assert!(Semantics::Cwa.contains_world(&d0, &w1));
        assert!(Semantics::Cwa.contains_world(&d0, &w2));
        assert!(!Semantics::Cwa.contains_world(&d0, &w3));
        assert!(Semantics::Owa.contains_world(&d0, &w3));
        assert!(Semantics::Owa.contains_world(&d0, &w1));
        // (3,3) uses a value outside adom of the valuation image {1,2}, so WCWA rejects it…
        assert!(!Semantics::Wcwa.contains_world(&d0, &w3));
        // …but adding (1,1) (within the active domain) is allowed under WCWA, not CWA.
        let w4 = inst! { "D" => [[c(1), c(2)], [c(2), c(1)], [c(1), c(1)]] };
        assert!(Semantics::Wcwa.contains_world(&d0, &w4));
        assert!(!Semantics::Cwa.contains_world(&d0, &w4));
    }

    #[test]
    fn wcwa_example_from_section_4_3() {
        // D = {(⊥,⊥′)}: {(1,2)} ∈ CWA; {(1,2),(2,1)} ∉ CWA but ∈ WCWA.
        let d = inst! { "R" => [[x(1), x(2)]] };
        let w_cwa = inst! { "R" => [[c(1), c(2)]] };
        let w_wcwa = inst! { "R" => [[c(1), c(2)], [c(2), c(1)]] };
        assert!(Semantics::Cwa.contains_world(&d, &w_cwa));
        assert!(!Semantics::Cwa.contains_world(&d, &w_wcwa));
        assert!(Semantics::Wcwa.contains_world(&d, &w_wcwa));
        assert!(Semantics::Owa.contains_world(&d, &w_wcwa));
    }

    #[test]
    fn powerset_membership() {
        // D = {(⊥1, ⊥2)}: {(1,2),(3,4)} is a union of two valuation images, hence in
        // ⦅D⦆_CWA, but is in neither CWA (single valuation) nor WCWA (adom grows).
        let d = inst! { "R" => [[x(1), x(2)]] };
        let w = inst! { "R" => [[c(1), c(2)], [c(3), c(4)]] };
        assert!(Semantics::PowersetCwa.contains_world(&d, &w));
        assert!(!Semantics::Cwa.contains_world(&d, &w));
        assert!(!Semantics::Wcwa.contains_world(&d, &w));
        // A world with a tuple no valuation image can produce is rejected.
        let bad = inst! { "R" => [[c(1), c(2)]], "S" => [[c(9)]] };
        assert!(!Semantics::PowersetCwa.contains_world(&d, &bad));
    }

    #[test]
    fn minimal_cwa_membership() {
        // D = {(⊥,⊥),(⊥,⊥′)} (§10): minimal valuations collapse ⊥′ into ⊥, so {(1,1)}
        // is a minimal world but {(1,1),(1,2)} is not.
        let d = inst! { "D" => [[x(1), x(1)], [x(1), x(2)]] };
        let collapsed = inst! { "D" => [[c(1), c(1)]] };
        let spread = inst! { "D" => [[c(1), c(1)], [c(1), c(2)]] };
        assert!(Semantics::MinimalCwa.contains_world(&d, &collapsed));
        assert!(!Semantics::MinimalCwa.contains_world(&d, &spread));
        assert!(Semantics::Cwa.contains_world(&d, &spread));
        assert!(Semantics::MinimalPowersetCwa.contains_world(&d, &collapsed));
        // A union of two distinct minimal images is in the minimal powerset semantics.
        let two_loops = inst! { "D" => [[c(1), c(1)], [c(2), c(2)]] };
        assert!(Semantics::MinimalPowersetCwa.contains_world(&d, &two_loops));
        assert!(!Semantics::MinimalCwa.contains_world(&d, &two_loops));
    }

    #[test]
    fn semantics_inclusions_on_enumerated_worlds() {
        // ⟦D⟧_CWA ⊆ ⟦D⟧_WCWA ⊆ ⟦D⟧_OWA (§4.3); minimal CWA ⊆ CWA; CWA ⊆ powerset CWA.
        let d = inst! { "R" => [[c(1), x(1)], [x(2), x(2)]] };
        let bounds = WorldBounds::default();
        let cwa = Semantics::Cwa.enumerate_worlds(&d, &bounds);
        for w in &cwa {
            assert!(Semantics::Wcwa.contains_world(&d, w));
            assert!(Semantics::Owa.contains_world(&d, w));
            assert!(Semantics::PowersetCwa.contains_world(&d, w));
        }
        let min_cwa = Semantics::MinimalCwa.enumerate_worlds(&d, &bounds);
        for w in &min_cwa {
            assert!(Semantics::Cwa.contains_world(&d, w));
        }
        assert!(min_cwa.len() <= cwa.len());
    }

    #[test]
    fn enumerated_worlds_are_members() {
        let d = inst! { "R" => [[c(1), x(1)]], "S" => [[x(1)]] };
        let bounds = WorldBounds {
            owa_max_extra_tuples: 1,
            ..WorldBounds::default()
        };
        for sem in Semantics::ALL {
            let worlds = sem.enumerate_worlds(&d, &bounds);
            assert!(!worlds.is_empty(), "{sem} produced no worlds");
            for w in &worlds {
                assert!(w.is_complete());
                assert!(
                    sem.contains_world(&d, w),
                    "{sem}: enumerated world not a member\n{w}"
                );
            }
        }
    }

    #[test]
    fn complete_instances_have_themselves_as_cwa_world() {
        let d = inst! { "R" => [[c(1), c(2)]] };
        let worlds = Semantics::Cwa.enumerate_worlds(&d, &WorldBounds::default());
        assert_eq!(worlds.len(), 1);
        assert!(worlds[0].same_facts(&d));
        for sem in Semantics::ALL {
            assert!(
                sem.contains_world(&d, &d),
                "{sem} must contain the complete instance itself"
            );
        }
    }

    #[test]
    fn owa_enumeration_contains_proper_extensions() {
        let d = inst! { "R" => [[x(1), x(1)]] };
        let bounds = WorldBounds {
            owa_max_extra_tuples: 1,
            ..WorldBounds::default()
        };
        let worlds = Semantics::Owa.enumerate_worlds(&d, &bounds);
        assert!(worlds.iter().any(|w| w.fact_count() == 1));
        assert!(worlds.iter().any(|w| w.fact_count() == 2));
    }

    #[test]
    fn world_count_of_d0_under_cwa() {
        // Two nulls, no constants: budget = 2 fresh constants (union width 1 would give 2,
        // default width 2 gives up to 4); either way every world has the symmetric shape.
        let d0 = d0();
        let bounds = WorldBounds {
            union_width: 1,
            ..WorldBounds::default()
        };
        let worlds = Semantics::Cwa.enumerate_worlds(&d0, &bounds);
        // Valuations over {f0, f1}: 4 of them; worlds collapse to 3 distinct instances
        // ({(f0,f0)}, {(f1,f1)}, {(f0,f1),(f1,f0)}).
        assert_eq!(worlds.len(), 3);
    }

    #[test]
    fn max_worlds_truncates() {
        let d = inst! { "R" => [[x(1), x(2), x(3)]] };
        let bounds = WorldBounds {
            max_worlds: 5,
            ..WorldBounds::default()
        };
        let worlds = Semantics::Cwa.enumerate_worlds(&d, &bounds);
        assert!(worlds.len() <= 5);
    }

    #[test]
    fn display_and_flags() {
        assert_eq!(Semantics::Owa.to_string(), "OWA");
        assert!(Semantics::MinimalCwa.is_minimal());
        assert!(!Semantics::Cwa.is_minimal());
        assert!(Semantics::PowersetCwa.is_powerset());
        assert!(Semantics::MinimalPowersetCwa.is_powerset());
        assert!(!Semantics::Wcwa.is_powerset());
        assert_eq!(Semantics::ALL.len(), 6);
    }

    #[test]
    #[should_panic(expected = "must be complete")]
    fn membership_requires_complete_world() {
        let d = d0();
        let incomplete = inst! { "D" => [[x(5), c(1)]] };
        Semantics::Cwa.contains_world(&d, &incomplete);
    }

    #[test]
    fn worlds_iterator_matches_for_each_world() {
        // The lazy iterator and the closure wrapper must stream identical worlds in
        // identical order, for every semantics.
        let d = inst! { "R" => [[c(1), x(1)]], "S" => [[x(1)]] };
        let bounds = WorldBounds {
            owa_max_extra_tuples: 1,
            ..WorldBounds::default()
        };
        for sem in Semantics::ALL {
            let via_iterator: Vec<Instance> = sem.worlds(&d, &bounds).collect();
            let mut via_closure = Vec::new();
            let _ = sem.for_each_world(&d, &bounds, |w| {
                via_closure.push(w.clone());
                ControlFlow::Continue(())
            });
            assert_eq!(via_iterator, via_closure, "{sem}");
            assert!(!via_iterator.is_empty(), "{sem}");
        }
    }

    #[test]
    fn worlds_iterator_respects_max_worlds_and_reports_truncation() {
        let d = inst! { "R" => [[x(1), x(2), x(3)]] };
        let bounds = WorldBounds {
            max_worlds: 5,
            ..WorldBounds::default()
        };
        let mut worlds = Semantics::Cwa.worlds(&d, &bounds);
        assert_eq!(worlds.by_ref().count(), 5);
        assert!(worlds.truncated());
        // An untruncated enumeration is not flagged.
        let small = inst! { "R" => [[c(1)]] };
        let mut all = Semantics::Cwa.worlds(&small, &WorldBounds::default());
        assert_eq!(all.by_ref().count(), 1);
        assert!(!all.truncated());
        // Completing at *exactly* the cap is not a truncation either: the single
        // CWA world of a complete instance under max_worlds = 1.
        let exact_bounds = WorldBounds {
            max_worlds: 1,
            ..WorldBounds::default()
        };
        let mut exact = Semantics::Cwa.worlds(&small, &exact_bounds);
        assert_eq!(exact.by_ref().count(), 1);
        assert!(!exact.truncated());
        let _ = exact.next();
        assert!(!exact.truncated(), "re-polling must not flip the flag");
    }

    /// All subsets of `items` of size at most `max_size` (including the empty subset),
    /// materialised as vectors of clones.
    fn subsets_up_to<T: Clone>(items: &[T], max_size: usize) -> Vec<Vec<T>> {
        let mut out = vec![Vec::new()];
        for item in items {
            let mut extended = Vec::new();
            for subset in &out {
                if subset.len() < max_size {
                    let mut bigger = subset.clone();
                    bigger.push(item.clone());
                    extended.push(bigger);
                }
            }
            out.extend(extended);
        }
        out
    }

    /// The eager construction the lazy stream replaced: the whole valuation
    /// list first, then (for the powerset semantics) every deduplicated image
    /// and every index combination, in the order the old code emitted them.
    fn eager_worlds(sem: Semantics, d: &Instance, bounds: &WorldBounds) -> Vec<Instance> {
        let budget = bounds.budget_for(d, sem);
        let valuations = nev_hom::enumerate_valuations(d, &budget);
        let images = || valuations.iter().map(|v| v.apply_instance(d));
        let extensions = |domain_extra: &BTreeSet<Value>, max_extra: usize| -> Vec<Instance> {
            images()
                .flat_map(|base| {
                    let mut domain = base.adom();
                    domain.extend(domain_extra.iter().cloned());
                    let candidates = missing_tuples_over(&base, &domain);
                    subsets_up_to(&candidates, max_extra)
                        .into_iter()
                        .map(move |extra| add_facts(&base, &extra))
                })
                .collect()
        };
        match sem {
            Semantics::Cwa => images().collect(),
            Semantics::MinimalCwa => {
                let mut seen = BTreeSet::new();
                images()
                    .filter(|w| seen.insert(w.clone()) && is_minimal_image(d, w))
                    .collect()
            }
            Semantics::Wcwa => extensions(&BTreeSet::new(), bounds.wcwa_max_extra_tuples),
            Semantics::Owa => {
                let mut avoid = budget.clone();
                avoid.extend(bounds.extra_constants.iter().cloned());
                let mut domain: BTreeSet<Value> =
                    budget.iter().cloned().map(Value::Const).collect();
                domain.extend(
                    fresh_constants(bounds.owa_fresh_values, &avoid)
                        .into_iter()
                        .map(Value::Const),
                );
                extensions(&domain, bounds.owa_max_extra_tuples)
            }
            Semantics::PowersetCwa | Semantics::MinimalPowersetCwa => {
                let mut seen = BTreeSet::new();
                let unique: Vec<Instance> = images().filter(|w| seen.insert(w.clone())).collect();
                let images: Vec<Instance> = unique
                    .into_iter()
                    .filter(|w| !sem.is_minimal() || is_minimal_image(d, w))
                    .collect();
                let indices: Vec<usize> = (0..images.len()).collect();
                subsets_up_to(&indices, bounds.union_width.max(1))
                    .into_iter()
                    .filter(|combo| !combo.is_empty())
                    .map(|combo| {
                        let mut world = Instance::empty_of_schema(&d.schema());
                        for idx in combo {
                            world = world.union(&images[idx]).expect("same schema");
                        }
                        world
                    })
                    .collect()
            }
        }
    }

    #[test]
    fn lazy_worlds_equal_the_eager_construction_world_for_world() {
        let instances = [
            inst! { "R" => [[c(1), c(2)]] },
            inst! { "R" => [[c(1), x(1)]], "S" => [[x(1)]] },
            inst! { "D" => [[x(1), x(1)], [x(1), x(2)]] },
            d0(),
        ];
        for d in &instances {
            // Widths and extension sizes from zero (images only) upwards.
            for (union_width, owa_extra, wcwa_extra) in [(1, 0, 0), (2, 1, 2), (3, 2, 3)] {
                let bounds = WorldBounds {
                    union_width,
                    owa_max_extra_tuples: owa_extra,
                    wcwa_max_extra_tuples: wcwa_extra,
                    ..WorldBounds::default()
                };
                for sem in Semantics::ALL {
                    let eager = eager_worlds(sem, d, &bounds);
                    assert!(!eager.is_empty(), "{sem} on {d}");
                    let mut lazy = sem.worlds(d, &bounds);
                    let streamed: Vec<Instance> = lazy.by_ref().collect();
                    assert_eq!(streamed, eager, "{sem} width={union_width} on {d}");
                    assert!(!lazy.truncated());
                    // Capped streams are a prefix of the eager list, flagged
                    // exactly when something was cut off; the shared stream
                    // yields the same worlds.
                    for cap in [0, 1, eager.len() / 2, eager.len()] {
                        let capped = WorldBounds {
                            max_worlds: cap,
                            ..bounds.clone()
                        };
                        let mut lazy = sem.shared_worlds(Arc::new(d.clone()), &capped);
                        let prefix: Vec<Instance> = lazy.by_ref().collect();
                        assert_eq!(prefix, eager[..cap], "{sem} cap={cap} on {d}");
                        assert_eq!(lazy.truncated(), cap < eager.len(), "{sem} cap={cap}");
                    }
                }
            }
        }
    }

    #[test]
    fn first_cwa_world_of_192_nulls_comes_at_once() {
        // 192^192 valuations: the eager list this stream replaced could never be
        // built (a 192-null EVAL was once OOM-killed materialising it).
        let mut d = Instance::new();
        for i in 1..=192 {
            d.add_tuple("R", vec![x(i), c(i64::from(i % 7))])
                .expect("one arity throughout");
        }
        let mut worlds = Semantics::Cwa.worlds(&d, &WorldBounds::default());
        let first = worlds.next().expect("a first world");
        assert!(first.is_complete());
        assert!(Semantics::Cwa.contains_world(&d, &first));
        assert!(worlds.next().is_some());
        // Every semantics starts streaming without enumerating valuations or
        // extension sets.
        for sem in Semantics::ALL {
            assert!(
                sem.worlds(&d, &WorldBounds::default()).next().is_some(),
                "{sem}"
            );
        }
    }

    #[test]
    fn semantics_from_str_round_trips() {
        for sem in Semantics::ALL {
            let rendered = sem.to_string();
            assert_eq!(rendered.parse::<Semantics>(), Ok(sem), "{rendered}");
        }
        assert_eq!("owa".parse::<Semantics>(), Ok(Semantics::Owa));
        assert_eq!(
            "Powerset_CWA".parse::<Semantics>(),
            Ok(Semantics::PowersetCwa)
        );
        assert_eq!(
            "minimal-cwa".parse::<Semantics>(),
            Ok(Semantics::MinimalCwa)
        );
        assert_eq!(
            "min-powerset-cwa".parse::<Semantics>(),
            Ok(Semantics::MinimalPowersetCwa)
        );
        let err = "nope".parse::<Semantics>().unwrap_err();
        assert!(err.to_string().contains("unknown semantics"));
    }
}
