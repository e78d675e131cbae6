//! The plan cache: parse + classify + compile once per distinct (query, semantics)
//! pair, not once per request.
//!
//! A [`PreparedQuery`] is the expensive per-query preparation the engine performs —
//! parsing, fragment classification, constant collection and relational-algebra
//! compilation (rule-optimised by `nev-opt`, so the cache stores the optimised
//! plan). Under service traffic the same query text arrives over and over, so the
//! cache keys an LRU on the **parsed query's canonical `Display` rendering ×
//! semantics** and stores the prepared query behind an `Arc` together with the
//! instance-independent half of the Figure 1 dispatch (the cell's
//! [`Expectation`]). Canonical keying means *every* superficial spelling
//! difference — whitespace, punctuation spacing (`exists u.R(u)` vs
//! `exists u . R(u)`), redundant parentheses — hits the same entry; each lookup
//! pays one parse, which is cheap next to the classification + compilation a
//! miss would repeat. The semantics is part of the key because the cached
//! dispatch metadata is per-cell; the `Arc<PreparedQuery>` itself is shared
//! across the semantics entries of the same canonical text, so compilation still
//! happens once per distinct query.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use nev_core::engine::{EngineError, PreparedQuery};
use nev_core::summary::{expectation, Expectation};
use nev_core::Semantics;
use nev_logic::{parse_query, Query};

/// A cached entry: the shared prepared query plus the Figure 1 cell guarantee for
/// the keyed semantics (the instance-independent part of plan dispatch).
#[derive(Clone, Debug)]
pub struct CachedPlan {
    /// The prepared (parsed, classified, compiled) query, shared across semantics.
    pub prepared: Arc<PreparedQuery>,
    /// The semantics this entry was keyed under.
    pub semantics: Semantics,
    /// `expectation(semantics, fragment)` — what Figure 1 guarantees for the cell.
    pub cell: Expectation,
}

/// A cache slot. It is inserted empty on the first miss, before preparation,
/// so concurrent misses on one key find it and wait for that one preparation
/// instead of each preparing the query again.
type Slot = Arc<OnceLock<CachedPlan>>;

struct Entry {
    slot: Slot,
    last_used: u64,
}

struct Inner {
    entries: HashMap<(String, Semantics), Entry>,
    /// Monotonic recency clock; bumped on every hit or insertion.
    clock: u64,
}

/// An LRU cache of [`CachedPlan`]s keyed on (canonical query rendering,
/// semantics).
///
/// ```
/// use nev_serve::cache::PlanCache;
/// use nev_core::Semantics;
///
/// let cache = PlanCache::new(64);
/// let a = cache.get_or_prepare("exists u .  R(u)", Semantics::Owa).unwrap();
/// // Same query modulo spelling — whitespace AND punctuation spacing: a cache
/// // hit sharing the same Arc.
/// let b = cache.get_or_prepare("exists u.R(u)", Semantics::Owa).unwrap();
/// assert!(std::sync::Arc::ptr_eq(&a.prepared, &b.prepared));
/// assert_eq!(cache.hits(), 1);
/// assert_eq!(cache.misses(), 1);
/// ```
#[derive(Debug)]
pub struct PlanCache {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner")
            .field("entries", &self.entries.len())
            .field("clock", &self.clock)
            .finish()
    }
}

/// Canonicalizes query text for cache keying: the text is parsed and the query's
/// `Display` rendering — a parse/render fixed point — becomes the key, so any
/// two spellings of the same query (whitespace, punctuation spacing, redundant
/// parentheses) occupy one cache slot. Returns the parsed query alongside the
/// key so a cache miss never re-parses.
pub fn canonical(text: &str) -> Result<(String, Query), EngineError> {
    let query = parse_query(text)?;
    Ok((query.to_string(), query))
}

impl PlanCache {
    /// A cache holding at most `capacity` (text, semantics) entries; a capacity of
    /// zero disables caching (every lookup prepares afresh).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                clock: 0,
            }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("cache lock poisoned")
            .entries
            .len()
    }

    /// Returns `true` iff the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        // relaxed: telemetry read; may lag concurrent bumps.
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far (each miss prepared a query).
    pub fn misses(&self) -> u64 {
        // relaxed: telemetry read; may lag concurrent bumps.
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted by the LRU policy so far.
    pub fn evictions(&self) -> u64 {
        // relaxed: telemetry read; may lag concurrent bumps.
        self.evictions.load(Ordering::Relaxed)
    }

    /// Looks up the (canonical `text`, `semantics`) entry, preparing and inserting
    /// it on a miss. Parse/classification errors are returned verbatim, cache
    /// nothing and count nothing.
    pub fn get_or_prepare(
        &self,
        text: &str,
        semantics: Semantics,
    ) -> Result<CachedPlan, EngineError> {
        self.get_or_prepare_with_status(text, semantics)
            .map(|(plan, _hit)| plan)
    }

    /// [`PlanCache::get_or_prepare`] reporting whether the entry was a cache
    /// hit (`true`) or had to be prepared on this call (`false`). The serve
    /// layer's request tracing uses the flag to replay parse/classify/compile
    /// timings only for requests that actually paid them.
    pub fn get_or_prepare_with_status(
        &self,
        text: &str,
        semantics: Semantics,
    ) -> Result<(CachedPlan, bool), EngineError> {
        let (canonical_text, query) = canonical(text)?;
        let key = (canonical_text, semantics);
        let slot = self.slot(&key);
        // Prepare outside the cache lock: classification + compilation is the
        // expensive part and must not serialise misses on different texts. The
        // slot makes concurrent misses on the *same* key single-flight: one
        // caller prepares, the others block on the slot and count as hits.
        let mut prepared_here = false;
        let plan = slot
            .get_or_init(|| {
                prepared_here = true;
                let (prepared, _reused) = self.shared_prepared(&key.0, query);
                CachedPlan {
                    cell: expectation(semantics, prepared.fragment()),
                    prepared,
                    semantics,
                }
            })
            .clone();
        let tally = if prepared_here {
            &self.misses
        } else {
            &self.hits
        };
        // relaxed: hit/miss tallies are telemetry only.
        tally.fetch_add(1, Ordering::Relaxed);
        Ok((plan, !prepared_here))
    }

    /// Warms the cache for `text` under **every** semantics (the `PREPARE`
    /// command): one parse + compile, six cell entries sharing the same `Arc`.
    /// Counts one hit when a semantics sibling already held the compiled query
    /// and one miss when it had to be compiled afresh — so the hit/miss counters
    /// reflect preparations actually performed, `PREPARE` and `EVAL` alike (with
    /// `capacity == 0` nothing is retained and every call is one miss).
    pub fn prepare_all(&self, text: &str) -> Result<Arc<PreparedQuery>, EngineError> {
        let (canonical_text, query) = canonical(text)?;
        let (prepared, reused) = self.shared_prepared(&canonical_text, query);
        if reused {
            // relaxed: hit/miss tallies are telemetry only.
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            // relaxed: hit/miss tallies are telemetry only.
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        for semantics in Semantics::ALL {
            let slot = self.slot(&(canonical_text.clone(), semantics));
            // An entry already filled (or being filled by a concurrent EVAL)
            // keeps its plan; an empty one takes this preparation.
            let _ = slot.set(CachedPlan {
                prepared: Arc::clone(&prepared),
                semantics,
                cell: expectation(semantics, prepared.fragment()),
            });
        }
        Ok(prepared)
    }

    /// An `Arc<PreparedQuery>` for the canonical text, reusing any
    /// semantics-sibling entry's `Arc` (so one query is compiled at most once
    /// while cached, and a re-prepared sibling re-joins the surviving `Arc`
    /// after an eviction). The flag reports whether a sibling was reused.
    fn shared_prepared(&self, canonical_text: &str, query: Query) -> (Arc<PreparedQuery>, bool) {
        {
            let inner = self.inner.lock().expect("cache lock poisoned");
            for sibling in Semantics::ALL {
                let key = (canonical_text.to_string(), sibling);
                if let Some(plan) = inner.entries.get(&key).and_then(|e| e.slot.get()) {
                    return (Arc::clone(&plan.prepared), true);
                }
            }
        }
        (Arc::new(PreparedQuery::new(query)), false)
    }

    /// The slot for `key`, marked most recently used and inserted empty when
    /// absent (evicting past capacity). With capacity zero nothing is retained
    /// and every call gets a fresh slot.
    fn slot(&self, key: &(String, Semantics)) -> Slot {
        if self.capacity == 0 {
            return Slot::default();
        }
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(entry) = inner.entries.get_mut(key) {
            entry.last_used = clock;
            return Arc::clone(&entry.slot);
        }
        let slot = Slot::default();
        inner.entries.insert(
            key.clone(),
            Entry {
                slot: Arc::clone(&slot),
                last_used: clock,
            },
        );
        while inner.entries.len() > self.capacity {
            // O(capacity) victim scan: capacities are small (hundreds), and the
            // scan runs only on insertions past capacity. The entry just
            // inserted is the most recent, so it is never the victim.
            let victim = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("non-empty over-capacity cache");
            inner.entries.remove(&victim);
            // relaxed: eviction tally is telemetry only.
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nev_logic::Fragment;

    #[test]
    fn canonical_keys_unify_spelling_variants() {
        let (a, _) = canonical("exists u.R(u)").unwrap();
        let (b, _) = canonical("  exists u .   R(u)  ").unwrap();
        let (c, _) = canonical("exists u . (R(u))").unwrap();
        assert_eq!(a, b, "punctuation spacing is not part of the key");
        assert_eq!(a, c, "redundant parentheses are not part of the key");
        let (other, _) = canonical("exists u . S(u)").unwrap();
        assert_ne!(a, other);
        assert!(canonical("exists u . R(u").is_err());
    }

    #[test]
    fn punctuation_spacing_variants_share_one_slot() {
        // Whitespace-collapsing keys used to give `exists u.R(u)` and
        // `exists u . R(u)` two slots for one plan; canonical keys fix the
        // hit rate: four spellings, one miss, three hits.
        let cache = PlanCache::new(16);
        for text in [
            "exists u . R(u)",
            "exists u.R(u)",
            "exists  u .  R(u)",
            "exists u . (R(u))",
        ] {
            cache.get_or_prepare(text, Semantics::Owa).unwrap();
        }
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 3);
    }

    #[test]
    fn hits_share_the_prepared_arc_across_semantics() {
        let cache = PlanCache::new(16);
        let owa = cache
            .get_or_prepare("forall u . exists v . D(u, v)", Semantics::Owa)
            .unwrap();
        let cwa = cache
            .get_or_prepare("forall u .  exists v . D(u, v)", Semantics::Cwa)
            .unwrap();
        // Different cells…
        assert_ne!(owa.cell, cwa.cell);
        assert_eq!(owa.prepared.fragment(), Fragment::Positive);
        // …but one compilation: the sibling entry's Arc is reused.
        assert!(Arc::ptr_eq(&owa.prepared, &cwa.prepared));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn prepare_all_warms_every_semantics_row() {
        let cache = PlanCache::new(16);
        let prepared = cache.prepare_all("exists u v . D(u, v)").unwrap();
        assert_eq!(cache.len(), Semantics::ALL.len());
        for semantics in Semantics::ALL {
            let hit = cache
                .get_or_prepare("exists u v . D(u, v)", semantics)
                .unwrap();
            assert!(Arc::ptr_eq(&hit.prepared, &prepared));
        }
        assert_eq!(cache.hits(), Semantics::ALL.len() as u64);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let cache = PlanCache::new(2);
        cache
            .get_or_prepare("exists u . A(u)", Semantics::Owa)
            .unwrap();
        cache
            .get_or_prepare("exists u . B(u)", Semantics::Owa)
            .unwrap();
        // Touch A so B is the LRU victim.
        cache
            .get_or_prepare("exists u . A(u)", Semantics::Owa)
            .unwrap();
        cache
            .get_or_prepare("exists u . C(u)", Semantics::Owa)
            .unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        // A survived, B did not.
        cache
            .get_or_prepare("exists u . A(u)", Semantics::Owa)
            .unwrap();
        assert_eq!(cache.hits(), 2);
        cache
            .get_or_prepare("exists u . B(u)", Semantics::Owa)
            .unwrap();
        assert_eq!(cache.misses(), 4, "B was re-prepared after eviction");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = PlanCache::new(0);
        cache
            .get_or_prepare("exists u . A(u)", Semantics::Owa)
            .unwrap();
        cache
            .get_or_prepare("exists u . A(u)", Semantics::Owa)
            .unwrap();
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn zero_capacity_prepare_all_keeps_counters_honest() {
        let cache = PlanCache::new(0);
        let a = cache.prepare_all("exists u . A(u)").unwrap();
        let b = cache.prepare_all("exists u . A(u)").unwrap();
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.hits(), 0);
        assert_eq!(
            cache.misses(),
            2,
            "nothing is retained, so every PREPARE compiles afresh"
        );
        assert!(!Arc::ptr_eq(&a, &b), "no sibling entry to share with");
    }

    #[test]
    fn sibling_eviction_keeps_the_shared_arc_and_counters_consistent() {
        // Capacity 3 < 6 semantics rows: prepare_all inserts six siblings and
        // the LRU immediately evicts the three oldest.
        let cache = PlanCache::new(3);
        let prepared = cache.prepare_all("exists u . A(u)").unwrap();
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.evictions(), 3);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        // An evicted sibling misses but re-joins the *surviving* Arc — one
        // compilation total, no divergent plans.
        let evicted = cache
            .get_or_prepare("exists u . A(u)", Semantics::ALL[0])
            .unwrap();
        assert!(Arc::ptr_eq(&evicted.prepared, &prepared));
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        // A surviving sibling is a genuine hit on the same Arc.
        let survivor = cache
            .get_or_prepare("exists u . A(u)", Semantics::ALL[5])
            .unwrap();
        assert!(Arc::ptr_eq(&survivor.prepared, &prepared));
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
        // A warm re-PREPARE is one hit (the sibling Arc), not six.
        let again = cache.prepare_all("exists u . A(u)").unwrap();
        assert!(Arc::ptr_eq(&again, &prepared));
        assert_eq!((cache.hits(), cache.misses()), (2, 2));
        assert_eq!(cache.len(), 3, "capacity is still respected");
    }

    #[test]
    fn concurrent_misses_on_one_key_prepare_once() {
        // Eight first lookups of one text released together: the slot inserted
        // by the first makes the rest wait for its preparation, so exactly one
        // miss however the threads interleave.
        let cache = Arc::new(PlanCache::new(16));
        let start = Arc::new(std::sync::Barrier::new(8));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    cache
                        .get_or_prepare("forall u . exists v . D(u, v)", Semantics::Owa)
                        .expect("valid query")
                        .prepared
                })
            })
            .collect();
        let prepared: Vec<_> = threads
            .into_iter()
            .map(|t| t.join().expect("lookup thread"))
            .collect();
        assert!(prepared.iter().all(|p| Arc::ptr_eq(p, &prepared[0])));
        assert_eq!((cache.hits(), cache.misses()), (7, 1));
    }

    #[test]
    fn parse_errors_surface_and_cache_nothing() {
        let cache = PlanCache::new(8);
        assert!(cache
            .get_or_prepare("exists u . R(u", Semantics::Owa)
            .is_err());
        assert!(cache.prepare_all("exists u . R(u").is_err());
        assert!(cache.is_empty());
    }
}
