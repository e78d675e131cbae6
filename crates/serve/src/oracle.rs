//! The parallel bounded oracle: one lazy possible-world stream drained by the
//! whole worker pool, with early-exit cancellation.
//!
//! On non-guaranteed Figure 1 cells the engine must intersect the query's answers
//! over the bounded world enumeration — the one expensive path left after the
//! certified cells went compiled-naïve. The intersection is associative and
//! commutative, and (in the `{()} / ∅` Boolean encoding) uniform across arities, so
//! it parallelises cleanly. Work is pulled, not pushed (the dispatch of
//! morsel-driven execution, Leis et al., SIGMOD 2014):
//!
//! 1. one [`Semantics::shared_worlds`] stream sits behind a mutex; it holds the
//!    catalog's `Arc<Instance>`, generates each world on demand and never
//!    materialises the valuation space;
//! 2. a runner locks the stream, takes the next `chunk` worlds, unlocks, and
//!    intersects [`PreparedQuery::answers_in_world`] over them — so one runner
//!    generates worlds while the others evaluate theirs;
//! 3. each chunk's intersection is folded into one shared accumulator. The
//!    moment it goes empty (for a Boolean query: a counter-world was found) a
//!    cancellation flag is raised, and every runner stops taking worlds.
//!
//! The calling thread drains the first chunk itself, generating each world
//! only after the previous one was evaluated. A request whose stream ends, or
//! whose answer empties, inside that chunk never touches the pool and
//! generates no world past its exit; every other request pays one dispatch of
//! `workers + 1` runners, the caller among them.
//!
//! **The verdict is scheduling-independent.** If any world refutes a tuple, the
//! final intersection excludes it no matter which runner saw the world first; if the
//! intersection ever goes empty the result is the empty set on every schedule; and
//! if no early exit triggers, every enumerated world was intersected, which is
//! exactly the sequential result. The same argument makes `truncated` exact: a
//! run that never emptied drained the whole capped stream, just as the
//! sequential oracle does. `worlds_considered` *is* schedule-dependent (a
//! cancelled run may have evaluated a few more or fewer worlds) — it is telemetry,
//! not part of the answer. The property suite checks parallel ≡ sequential verdicts
//! across every fragment, and the determinism suite checks byte-identical answers at
//! 0, 1, 2 and 8 workers.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use nev_core::engine::{CertainEngine, PreparedQuery};
use nev_core::{Semantics, Worlds};
use nev_exec::ExecStats;
use nev_incomplete::{Constant, Instance, Tuple};

use crate::pool::WorkerPool;

/// Worlds a runner takes from the shared stream per lock. Small enough that the
/// stream lock is held briefly and cancellation is seen within a few worlds,
/// large enough to amortise the lock and the fold; fixed so runs are
/// reproducible. It is also the most worlds a request answers without the pool.
pub const DEFAULT_CHUNK: usize = 32;

/// The outcome of one parallel oracle run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OracleOutcome {
    /// The certain answers over the bounded enumeration (Boolean queries use the
    /// `{()} / ∅` encoding). Identical to the sequential oracle's answer.
    pub certain: BTreeSet<Tuple>,
    /// Worlds actually evaluated (telemetry; schedule-dependent under early exit).
    pub worlds_considered: usize,
    /// Chunks taken from the world stream.
    pub chunks: usize,
    /// Whether early-exit cancellation fired.
    pub cancelled: bool,
    /// Whether the world stream was cut off by the world cap with the verdict
    /// still drawing on it. A cancelled run exited on definitive evidence (a
    /// counter-world, an emptied intersection), so it is never truncated; an
    /// exhausted run over a capped stream is an over-approximation and is.
    pub truncated: bool,
    /// Aggregated executor counters across all per-world evaluations.
    pub exec: ExecStats,
}

/// Intersects `query`'s answers over the bounded worlds of `d` under `semantics`,
/// draining one shared world stream `chunk` worlds at a time across the pool.
/// Uses `engine` only for its world bounds; plan dispatch is the caller's
/// business (run this exactly where the engine would pick
/// `EvalPlan::BoundedEnumeration`).
pub fn parallel_certain_answers(
    pool: &WorkerPool,
    engine: &CertainEngine,
    d: &Arc<Instance>,
    semantics: Semantics,
    query: &Arc<PreparedQuery>,
    chunk: usize,
) -> OracleOutcome {
    let bounds = query.bounds(engine.bounds());
    let run = Arc::new(Run {
        allowed: query.allowed_constants(d),
        query: Arc::clone(query),
        chunk: chunk.max(1),
        worlds: Mutex::new(semantics.shared_worlds(Arc::clone(d), &bounds)),
        fold: Mutex::new(Fold::default()),
        cancel: AtomicBool::new(false),
    });
    // The first chunk runs here, generating each world only once the previous
    // one left the intersection non-empty: nothing else holds the stream yet,
    // and a refuting first world then costs exactly one world.
    let more = {
        let mut worlds = run.worlds.lock().expect("world stream poisoned");
        run.fold_chunk(worlds.by_ref().take(run.chunk))
    };
    if more {
        let runners = vec![(); pool.workers() + 1];
        pool.run(runners, {
            let run = Arc::clone(&run);
            move |_, ()| while run.step() {}
        });
    }
    // relaxed: read after the pool batch joined; every runner has quiesced.
    let cancelled = run.cancel.load(Ordering::Relaxed);
    let truncated = !cancelled
        && run
            .worlds
            .lock()
            .expect("world stream poisoned")
            .truncated();
    let fold = std::mem::take(&mut *run.fold.lock().expect("oracle fold poisoned"));
    // `acc` is still `None` only when no world was evaluated at all; mirror the
    // sequential oracle exactly: a Boolean query is vacuously certain over an empty
    // enumeration, a k-ary intersection is empty.
    let certain = fold
        .acc
        .unwrap_or_else(|| nev_core::engine::boolean_answers(query.is_boolean()));
    OracleOutcome {
        certain,
        worlds_considered: fold.worlds,
        chunks: fold.chunks,
        cancelled,
        truncated,
        exec: fold.exec,
    }
}

/// The state one oracle run shares between its runners.
struct Run {
    query: Arc<PreparedQuery>,
    allowed: BTreeSet<Constant>,
    chunk: usize,
    worlds: Mutex<Worlds<'static>>,
    fold: Mutex<Fold>,
    cancel: AtomicBool,
}

/// The intersection so far, and the telemetry of the chunks folded into it.
#[derive(Default)]
struct Fold {
    /// `None` until the first world has been folded in.
    acc: Option<BTreeSet<Tuple>>,
    worlds: usize,
    chunks: usize,
    exec: ExecStats,
}

impl Run {
    /// A runner's unit of work: takes the next chunk under the stream lock,
    /// then evaluates it unlocked. Returns `false` once there is nothing left
    /// to do: the stream ended or the intersection went empty.
    fn step(&self) -> bool {
        // relaxed: advisory flag — a late observer only does spare work.
        if self.cancel.load(Ordering::Relaxed) {
            return false;
        }
        let batch: Vec<Instance> = {
            let mut worlds = self.worlds.lock().expect("world stream poisoned");
            worlds.by_ref().take(self.chunk).collect()
        };
        self.fold_chunk(batch)
    }

    /// Intersects the answers over `worlds` (at most one chunk), stopping where
    /// that intersection or the shared one is empty, and folds the result into
    /// the shared accumulator. Returns whether a full chunk went by without
    /// emptying it, i.e. whether more work may remain.
    fn fold_chunk(&self, worlds: impl IntoIterator<Item = Instance>) -> bool {
        let mut exec = ExecStats::new();
        let mut acc: Option<BTreeSet<Tuple>> = None;
        let mut evaluated = 0usize;
        for world in worlds {
            // relaxed: advisory cancellation probe; a missed flag costs one extra world.
            if self.cancel.load(Ordering::Relaxed) {
                // Another chunk already refuted everything; whatever we intersected
                // so far is still a sound factor, so fold it rather than discard it.
                break;
            }
            evaluated += 1;
            let answers = self
                .query
                .answers_in_world(&world, &self.allowed, &mut exec);
            let next = intersect(acc.take(), answers);
            let empty = next.is_empty();
            acc = Some(next);
            if empty {
                break;
            }
        }
        if evaluated == 0 {
            return false;
        }
        let mut fold = self.fold.lock().expect("oracle fold poisoned");
        fold.worlds += evaluated;
        fold.chunks += 1;
        fold.exec.merge(&exec);
        if let Some(partial) = acc {
            let next = intersect(fold.acc.take(), partial);
            if next.is_empty() {
                // relaxed: advisory flag — a late observer only does spare work.
                self.cancel.store(true, Ordering::Relaxed);
            }
            fold.acc = Some(next);
        }
        // relaxed: advisory flag; a stale `false` costs one more empty step.
        evaluated == self.chunk && !self.cancel.load(Ordering::Relaxed)
    }
}

/// `prev ∩ next`, where `None` stands for "no world yet" (the identity).
fn intersect(prev: Option<BTreeSet<Tuple>>, next: BTreeSet<Tuple>) -> BTreeSet<Tuple> {
    match prev {
        None => next,
        Some(prev) => prev.intersection(&next).cloned().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nev_core::WorldBounds;
    use nev_incomplete::builder::{c, x};
    use nev_incomplete::inst;

    const WORKER_COUNTS: [usize; 4] = [0, 1, 2, 8];

    fn pool() -> WorkerPool {
        WorkerPool::new(3)
    }

    fn engine() -> CertainEngine {
        CertainEngine::new()
    }

    fn outcome(d: &Instance, semantics: Semantics, text: &str, chunk: usize) -> OracleOutcome {
        let engine = engine();
        let query = Arc::new(engine.prepare(text).expect("valid query"));
        let d = Arc::new(d.clone());
        parallel_certain_answers(&pool(), &engine, &d, semantics, &query, chunk)
    }

    #[test]
    fn matches_the_sequential_oracle_on_the_owa_counterexample() {
        let d0 = inst! { "D" => [[x(1), x(2)], [x(2), x(1)]] };
        let text = "forall u . exists v . D(u, v)";
        for chunk in [1, 2, 7, 64] {
            let parallel = outcome(&d0, Semantics::Owa, text, chunk);
            let sequential = engine()
                .compare(&d0, Semantics::Owa, &engine().prepare(text).unwrap())
                .certain;
            assert_eq!(parallel.certain, sequential, "chunk={chunk}");
            assert!(parallel.certain.is_empty());
            assert!(parallel.cancelled, "a counter-world exists");
        }
    }

    #[test]
    fn matches_the_sequential_oracle_on_kary_queries() {
        // Two nulls and tight extension bounds keep the WCWA enumeration small;
        // the cross-fragment sweep lives in the release-mode determinism suite.
        let d = Arc::new(inst! {
            "R" => [[c(1), x(1)], [x(1), c(2)]],
        });
        let text = "Q(x, y) :- exists z . R(x, z) & R(z, y)";
        let bounds = WorldBounds {
            owa_max_extra_tuples: 1,
            wcwa_max_extra_tuples: 1,
            ..WorldBounds::default()
        };
        for semantics in [Semantics::Owa, Semantics::Cwa, Semantics::Wcwa] {
            let engine = CertainEngine::with_bounds(bounds.clone());
            let query = Arc::new(engine.prepare(text).expect("valid query"));
            let parallel = parallel_certain_answers(&pool(), &engine, &d, semantics, &query, 8);
            let sequential = engine.certain_answers(&d, semantics, &query);
            assert_eq!(parallel.certain, sequential, "{semantics}");
            assert!(!parallel.certain.is_empty(), "{semantics}");
            assert!(!parallel.cancelled, "{semantics}: every world keeps (1,2)");
            assert!(parallel.worlds_considered > 0);
            assert!(parallel.chunks > 0);
        }
    }

    #[test]
    fn zero_worlds_is_vacuously_certain_for_boolean_queries() {
        // A complete instance under CWA has exactly one world; trivially certain.
        let d = Arc::new(inst! { "R" => [[c(1)]] });
        let parallel = outcome(&d, Semantics::Cwa, "exists u . R(u)", 4);
        assert_eq!(parallel.certain.len(), 1);
        assert_eq!(parallel.worlds_considered, 1);
        // An empty enumeration (max_worlds = 0) matches the sequential oracle:
        // vacuously true for Boolean queries, empty for k-ary ones.
        let engine = CertainEngine::with_bounds(WorldBounds {
            max_worlds: 0,
            ..WorldBounds::default()
        });
        let boolean = Arc::new(engine.prepare("exists u . R(u)").unwrap());
        let kary = Arc::new(engine.prepare("Q(u) :- R(u)").unwrap());
        for query in [&boolean, &kary] {
            let out = parallel_certain_answers(&pool(), &engine, &d, Semantics::Cwa, query, 4);
            let sequential = engine.certain_answers(&d, Semantics::Cwa, query);
            assert_eq!(out.certain, sequential);
            assert_eq!(out.worlds_considered, 0);
        }
    }

    #[test]
    fn respects_the_engine_world_bounds() {
        let d = Arc::new(inst! { "R" => [[x(1), x(2), x(3)]] });
        let engine = CertainEngine::with_bounds(WorldBounds {
            max_worlds: 5,
            ..WorldBounds::default()
        });
        let query = Arc::new(engine.prepare("exists u v w . R(u, v, w)").unwrap());
        let out = parallel_certain_answers(&pool(), &engine, &d, Semantics::Cwa, &query, 2);
        assert!(out.worlds_considered <= 5);
        assert_eq!(out.certain.len(), 1, "every truncated world satisfies ∃R");
        assert!(out.truncated, "a sixth world existed beyond the cap");
    }

    #[test]
    fn capped_streams_match_the_sequential_oracle_at_every_worker_count() {
        let d = Arc::new(inst! {
            "R" => [[c(1), x(1)], [x(1), x(2)], [x(2), c(2)]],
        });
        let texts = [
            "exists u . R(u, u)",
            "forall u . exists v . R(u, v)",
            "Q(u) :- exists v . R(u, v)",
            "Q(u, v) :- R(u, v)",
        ];
        let pools: Vec<WorkerPool> = WORKER_COUNTS.into_iter().map(WorkerPool::new).collect();
        let (mut truncated, mut exact) = (0, 0);
        for max_worlds in [1, 2, 3, 7, 40] {
            let engine = CertainEngine::with_bounds(WorldBounds {
                max_worlds,
                owa_max_extra_tuples: 1,
                wcwa_max_extra_tuples: 1,
                ..WorldBounds::default()
            });
            for text in texts {
                let query = Arc::new(engine.prepare(text).expect("valid query"));
                for semantics in Semantics::ALL {
                    let sequential = engine.compare(&d, semantics, &query);
                    if sequential.truncated {
                        truncated += 1;
                    } else {
                        exact += 1;
                    }
                    for pool in &pools {
                        for chunk in [1, 3, 32] {
                            let out = parallel_certain_answers(
                                pool, &engine, &d, semantics, &query, chunk,
                            );
                            let context = format!(
                                "{text} under {semantics}, max_worlds={max_worlds}, \
                                 workers={} chunk={chunk}",
                                pool.workers()
                            );
                            assert_eq!(out.certain, sequential.certain, "{context}");
                            assert_eq!(out.truncated, sequential.truncated, "{context}");
                        }
                    }
                }
            }
        }
        assert!(
            truncated > 0 && exact > 0,
            "{truncated} truncated, {exact} exact"
        );
    }

    #[test]
    fn an_intersection_emptied_across_chunks_still_exits_early() {
        // ⊥9 is the slowest odometer digit over the budget {1, 2, f0…f3}: the
        // first 216 worlds all answer {1}, the next 216 all answer {2}, so every
        // chunk of 8 is non-empty on its own and only the fold empties.
        let d = Arc::new(inst! {
            "R" => [[x(9)]],
            "S" => [[c(1)], [c(2)]],
            "T" => [[x(1), x(2), x(3)]],
        });
        let engine = engine();
        let query = Arc::new(engine.prepare("Q(u) :- R(u)").expect("valid query"));
        let chunk = 8;
        let bounds = query.bounds(engine.bounds());
        let stream_len = Semantics::Cwa.worlds(&d, &bounds).count();
        assert_eq!(stream_len, 6usize.pow(4));
        let allowed = query.allowed_constants(&d);
        let per_world: Vec<BTreeSet<Tuple>> = Semantics::Cwa
            .worlds(&d, &bounds)
            .take(432)
            .map(|w| query.answers_in_world(&w, &allowed, &mut ExecStats::new()))
            .collect();
        for (i, chunk_answers) in per_world.chunks(chunk).enumerate() {
            let own = chunk_answers
                .iter()
                .cloned()
                .reduce(|a, b| a.intersection(&b).cloned().collect())
                .expect("non-empty chunk");
            assert!(!own.is_empty(), "chunk {i} empties on its own");
        }
        for workers in WORKER_COUNTS {
            let pool = WorkerPool::new(workers);
            let out = parallel_certain_answers(&pool, &engine, &d, Semantics::Cwa, &query, chunk);
            assert!(out.certain.is_empty(), "workers={workers}");
            assert!(out.cancelled, "workers={workers}");
            assert!(!out.truncated, "workers={workers}");
            assert!(
                out.worlds_considered < stream_len / 2,
                "workers={workers}: {} of {stream_len} worlds",
                out.worlds_considered
            );
        }
        assert!(engine
            .certain_answers(&d, Semantics::Cwa, &query)
            .is_empty());
    }
}
