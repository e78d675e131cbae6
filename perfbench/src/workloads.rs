//! The four seeded workloads. Each is a function of the seed alone: instance
//! contents, query spellings and request order vary with the seed, while the
//! shapes that set a request's cost (relation sizes, null counts, constants per
//! instance, the share of each request class) are fixed, so two seeds load the
//! same layers equally.

use nev_core::Semantics;
use nev_incomplete::{Instance, Tuple, Value};

/// A workload: named instances (each with the versions a `LOAD` in the cycle
/// may swap in; version 0 is loaded at set-up) and a request cycle replayed
/// until the timed window closes.
pub struct Workload {
    pub instances: Vec<(String, Vec<Instance>)>,
    pub cycle: Vec<Request>,
    /// Request lines written before the first response is read: 1 is a strict
    /// request/response loop, more pipelines a fixed window on the connection.
    pub window: usize,
}

/// One request of a cycle.
pub enum Request {
    Eval {
        instance: usize,
        semantics: Semantics,
        query: String,
    },
    /// Replace the instance with one of its versions.
    Load { instance: usize, version: usize },
}

pub const NAMES: [&str; 4] = [
    "compiled_join",
    "oracle_exhaust",
    "oracle_refute",
    "mixed_serving",
];

pub fn build(name: &str, seed: u64) -> Option<Workload> {
    let mut rng = Rng::new(seed ^ fnv(name));
    Some(match name {
        "compiled_join" => compiled_join(&mut rng),
        "oracle_exhaust" => oracle_exhaust(&mut rng),
        "oracle_refute" => oracle_refute(&mut rng),
        "mixed_serving" => mixed_serving(&mut rng),
        _ => return None,
    })
}

/// Certified compiled join passes over nine instances of 2,000 to 6,000
/// tuples per relation (4,000 on average, ~12k facts): every request is a
/// plan-cache hit whose cost is interning, index builds, scans, joins and
/// rendering the answer set.
///
/// The sizes are graded evenly so request costs spread continuously over a
/// 3× range instead of sitting at one value. A shared 2-vCPU Xeon host was
/// measured switching between two speed states about 1.6× apart; on a single
/// cost class the median latency jumps between the two states' values from
/// run to run, while on an even spread wider than that ratio it moves
/// smoothly with the share of time spent in each.
fn compiled_join(rng: &mut Rng) -> Workload {
    const SIZES: [usize; 9] = [2000, 2500, 3000, 3500, 4000, 4500, 5000, 5500, 6000];
    let instances = SIZES
        .iter()
        .enumerate()
        .map(|(i, &tuples)| (format!("j{i}"), vec![join_instance(rng, tuples)]))
        .collect();
    // The three rotations of one chain over the identically generated `R`,
    // `S` and `T`: on one instance they cost the same in distribution. Each
    // is ∃Pos, so both OWA and CWA certify it.
    let chains = [("R", "S", "T"), ("S", "T", "R"), ("T", "R", "S")];
    let mut cycle = Vec::new();
    for semantics in [Semantics::Cwa, Semantics::Owa] {
        for (a, b, c) in chains {
            for instance in 0..SIZES.len() {
                let [x, y, z, w] = rng.var_names();
                cycle.push(Request::Eval {
                    instance,
                    semantics,
                    query: format!(
                        "Q({x}, {w}) :- exists {y} {z} . {a}({x}, {y}) & {b}({y}, {z}) & {c}({z}, {w})"
                    ),
                });
            }
        }
    }
    rng.shuffle(&mut cycle);
    Workload {
        instances,
        cycle,
        window: 1,
    }
}

/// `R`, `S`, `T` with `tuples` binary facts each over a constant pool of
/// `tuples / 2` values, 15 % of positions a fresh null.
fn join_instance(rng: &mut Rng, tuples: usize) -> Instance {
    let pool = (tuples / 2) as u64;
    let mut instance = Instance::new();
    let mut next_null = 0u32;
    for relation in ["R", "S", "T"] {
        for _ in 0..tuples {
            let mut value = || {
                if rng.below(100) < 15 {
                    next_null += 1;
                    Value::null(next_null)
                } else {
                    Value::int(1 + rng.below(pool) as i64)
                }
            };
            let row = vec![value(), value()];
            instance
                .add_tuple(relation, Tuple::new(row))
                .expect("binary relation");
        }
    }
    instance
}

/// Unary instances of three nulls and 9 to 13 constants, queried under WCWA
/// with sentences the symbolic ladder leaves open and every world satisfies:
/// the oracle never exits early, so a request evaluates exactly
/// (constants + 3)^3 worlds — 1,728 to 4,096. World count and world size
/// grow together, so request costs step evenly over a ~3× range (see
/// `compiled_join` for why one cost class would make the median jump). Each
/// instance gets six spellings, so the warm-up inside `setup_s` answers 30
/// requests.
fn oracle_exhaust(rng: &mut Rng) -> Workload {
    const CONSTANTS: [usize; 5] = [9, 10, 11, 12, 13];
    let instances: Vec<(String, Vec<Instance>)> = CONSTANTS
        .iter()
        .enumerate()
        .map(|(i, &constants)| (format!("e{i}"), vec![unary_instance(rng, 3, constants)]))
        .collect();
    let mut cycle = Vec::new();
    for instance in 0..instances.len() {
        // `P`, `S` and `T` are absent from the instance, so `¬P(u)` holds in
        // every world and the sentence is certainly true.
        for absent in ["P", "S", "T", "P", "S", "T"] {
            let [u, ..] = rng.var_names();
            let query = if rng.below(2) == 0 {
                format!("exists {u} . R({u}) & !{absent}({u})")
            } else {
                format!("exists {u} . !{absent}({u}) & R({u})")
            };
            cycle.push(Request::Eval {
                instance,
                semantics: Semantics::Wcwa,
                query,
            });
        }
    }
    rng.shuffle(&mut cycle);
    Workload {
        instances,
        cycle,
        window: 1,
    }
}

/// Six-null unary instances queried under CWA with "two distinct elements"
/// sentences: the first world (every null valued alike) refutes them, so a
/// request costs the up-front materialisation of all 6^6 valuations. Each
/// instance gets twelve spellings, so the warm-up inside `setup_s` answers 48
/// requests.
fn oracle_refute(rng: &mut Rng) -> Workload {
    let instances = (0..4)
        .map(|i| (format!("f{i}"), vec![unary_instance(rng, 6, 0)]))
        .collect();
    let mut cycle = Vec::new();
    for instance in 0..4 {
        for _ in 0..12 {
            let [u, v, ..] = rng.var_names();
            cycle.push(Request::Eval {
                instance,
                semantics: Semantics::Cwa,
                query: format!("exists {u} {v} . R({u}) & R({v}) & !({u} = {v})"),
            });
        }
    }
    rng.shuffle(&mut cycle);
    Workload {
        instances,
        cycle,
        window: 1,
    }
}

/// `R(?a);…;R(c);…` over `nulls` distinct null labels and `constants`
/// distinct integers, both seeded.
fn unary_instance(rng: &mut Rng, nulls: usize, constants: usize) -> Instance {
    let mut values: Vec<Value> = Vec::new();
    while values.len() < nulls + constants {
        let draw = 1 + rng.below(1000);
        let value = if values.len() < nulls {
            Value::null(draw as u32)
        } else {
            Value::int(draw as i64)
        };
        if !values.contains(&value) {
            values.push(value);
        }
    }
    let mut instance = Instance::new();
    for value in values {
        instance
            .add_tuple("R", Tuple::new(vec![value]))
            .expect("unary relation");
    }
    instance
}

/// Request classes of `mixed_serving`, with their exact count per 49 `EVAL`s
/// (every 50th request of the cycle is a `LOAD`).
const MIXED_CLASSES: [(MixedClass, usize); 5] = [
    (MixedClass::Compiled, 25),
    (MixedClass::Normalized, 8),
    (MixedClass::Symbolic, 8),
    (MixedClass::Minimal, 6),
    (MixedClass::Oracle, 2),
];

/// Of each 49 `EVAL`s of `mixed_serving`, how many reuse a hot spelling; the
/// rest are spelled afresh and miss the plan cache.
const MIXED_HOT: usize = 24;

/// Variables of the longest `mixed_serving` query: long enough that parsing,
/// analysing and compiling a fresh text cost about as much as answering it
/// on a tiny instance, so the miss path carries weight.
const CHAIN: usize = 7;

#[derive(Clone, Copy)]
enum MixedClass {
    Compiled,
    Normalized,
    Symbolic,
    Minimal,
    Oracle,
}

/// Tiny instances and many distinct, long query texts: 24 of 49 requests
/// reuse a small hot set of texts, the rest are spelled afresh each time, so
/// the 256-entry plan cache serves a fixed share and misses the rest. Every
/// class costs 0.05 to 0.3 ms on either path. Requests go out in pipelined
/// windows of 16, so a request's latency is the server work queued ahead of it
/// in its window, and a `LOAD` that swaps an instance version replaces every
/// 50th request.
fn mixed_serving(rng: &mut Rng) -> Workload {
    const INSTANCES: usize = 8;
    // `LOAD`s swap the first four instances only; the oracle requests go to
    // the other four, so the worlds they enumerate do not depend on where in
    // the cycle they fall.
    const SWAPPED: usize = 4;
    // About 5,000 distinct texts, so the warm-up pass inside `setup_s` is
    // long next to the jitter of spawning `nevd`.
    const CYCLE: usize = 9600;
    let instances: Vec<(String, Vec<Instance>)> = (0..INSTANCES)
        .map(|i| {
            let base = tiny_instance(rng);
            let mut swapped = base.clone();
            swapped
                .add_tuple("R", Tuple::new(vec![Value::int(4), Value::int(4)]))
                .expect("binary relation");
            (format!("m{i}"), vec![base, swapped])
        })
        .collect();

    // Each block of 49 EVALs holds every class, and hot and fresh spellings,
    // in their exact counts.
    let mut evals: Vec<(MixedClass, bool)> = Vec::new();
    while evals.len() < CYCLE {
        let mut classes: Vec<MixedClass> = MIXED_CLASSES
            .iter()
            .flat_map(|&(class, n)| std::iter::repeat_n(class, n))
            .collect();
        let mut hot: Vec<bool> = (0..classes.len()).map(|i| i < MIXED_HOT).collect();
        rng.shuffle(&mut classes);
        rng.shuffle(&mut hot);
        evals.extend(classes.into_iter().zip(hot));
    }
    // A small hot set of spellings per template, fixed for the run.
    let hot: Vec<Vec<Vec<String>>> = (0..TEMPLATES)
        .map(|_| (0..2).map(|_| rng.names(CHAIN)).collect())
        .collect();

    let mut cycle = Vec::with_capacity(CYCLE);
    let mut versions = [0usize; INSTANCES];
    let mut loads = 0usize;
    let mut oracles = 0usize;
    let mut next_eval = evals.into_iter();
    for position in 0..CYCLE {
        if position % 50 == 49 {
            // Each instance is swapped an even number of times per cycle, so
            // every pass of the cycle starts from the set-up versions.
            let instance = loads % SWAPPED;
            versions[instance] ^= 1;
            loads += 1;
            cycle.push(Request::Load {
                instance,
                version: versions[instance],
            });
            continue;
        }
        let (class, hot_spelling) = next_eval.next().expect("enough EVAL slots");
        let (template, semantics, instance) = match class {
            MixedClass::Oracle => {
                // The two oracle templates alternate, so their mix is exact.
                oracles += 1;
                (
                    6 + oracles % 2,
                    Semantics::Cwa,
                    SWAPPED + rng.below((INSTANCES - SWAPPED) as u64) as usize,
                )
            }
            _ => {
                let (template, semantics) = mixed_template(rng, class);
                (template, semantics, rng.below(INSTANCES as u64) as usize)
            }
        };
        let names = if hot_spelling {
            hot[template][rng.below(2) as usize].clone()
        } else {
            rng.names(CHAIN)
        };
        cycle.push(Request::Eval {
            instance,
            semantics,
            query: render_template(template, &names),
        });
    }
    assert_eq!(loads % (2 * SWAPPED), 0, "cycle restores versions");
    Workload {
        instances,
        cycle,
        window: 16,
    }
}

/// Number of query templates of `mixed_serving`.
const TEMPLATES: usize = 8;

/// Picks a template and semantics of the class. Dispatch follows from
/// Figure 1 and the symbolic ladder, not from running the program:
/// ∃Pos is certified everywhere; a double negation normalizes to ∃Pos; a
/// conjunction of guarded universals under OWA/WCWA/powerset CWA is closed by
/// the sandwich; Pos under minimal CWA needs the core check. (Oracle requests
/// — FO under CWA with a negated atom the ladder cannot settle — are picked
/// by the caller.)
fn mixed_template(rng: &mut Rng, class: MixedClass) -> (usize, Semantics) {
    let any = [Semantics::Owa, Semantics::Cwa, Semantics::Wcwa];
    match class {
        MixedClass::Compiled => (rng.below(2) as usize, any[rng.below(3) as usize]),
        MixedClass::Normalized => (2 + rng.below(2) as usize, Semantics::Owa),
        MixedClass::Symbolic => (
            4,
            [Semantics::Owa, Semantics::Wcwa, Semantics::PowersetCwa][rng.below(3) as usize],
        ),
        MixedClass::Minimal => (5, Semantics::MinimalCwa),
        MixedClass::Oracle => unreachable!("oracle templates alternate"),
    }
}

/// `R(v0, v1) & R(v1, v2) & …` over the first `n` names.
fn chain(v: &[String], n: usize) -> String {
    (1..n)
        .map(|i| format!("R({}, {})", v[i - 1], v[i]))
        .collect::<Vec<_>>()
        .join(" & ")
}

fn render_template(template: usize, v: &[String]) -> String {
    let bound = |from: usize, to: usize| v[from..to].join(" ");
    match template {
        0 => format!(
            "Q({}) :- exists {} . {} & S({})",
            v[0],
            bound(1, CHAIN),
            chain(v, CHAIN),
            v[CHAIN - 1]
        ),
        1 => format!(
            "Q({}) :- exists {} . S({}) & {}",
            v[0],
            bound(1, CHAIN),
            v[0],
            chain(v, CHAIN)
        ),
        2 => format!(
            "Q({}) :- !!exists {} . {} & S({})",
            v[0],
            bound(1, CHAIN),
            chain(v, CHAIN),
            v[CHAIN - 1]
        ),
        3 => format!(
            "!!(exists {} . S({}) & {})",
            bound(0, CHAIN),
            v[0],
            chain(v, CHAIN)
        ),
        4 => (0..4)
            .map(|i| {
                let (x, y) = (&v[i], &v[i + 1]);
                format!("(forall {x} . S({x}) -> exists {y} . R({x}, {y}))")
            })
            .collect::<Vec<_>>()
            .join(" & "),
        5 => format!(
            "forall {} . exists {} . {} | S({})",
            v[0],
            bound(1, 5),
            chain(v, 5),
            v[0]
        ),
        6 => format!("Q({x}) :- S({x}) & !R({x}, {x})", x = v[0]),
        7 => format!(
            "exists {x} . S({x}) & !(exists {y} . R({x}, {y}))",
            x = v[0],
            y = v[1]
        ),
        _ => unreachable!("template index below TEMPLATES"),
    }
}

/// `R(?a,1); R(2,?a); R(?b,?b); S(?b); S(3)` with seeded null labels `a < b`.
/// Every such instance is a core — no other value `v` has both `R(v,1)` and
/// `R(2,v)`, or both `R(v,v)` and `S(v)`, also after the swapped version adds
/// `R(4,4)` — so the minimal-CWA requests always take the certified path after
/// the core check. The structure is fixed, and world enumeration orders
/// nulls and constants alike on every seed, so an oracle request stops at the
/// same world whatever the seed.
fn tiny_instance(rng: &mut Rng) -> Instance {
    let a = Value::null(1 + rng.below(500) as u32);
    let b = Value::null(501 + rng.below(500) as u32);
    let mut instance = Instance::new();
    for (relation, row) in [
        ("R", vec![a.clone(), Value::int(1)]),
        ("R", vec![Value::int(2), a]),
        ("R", vec![b.clone(), b.clone()]),
        ("S", vec![b]),
        ("S", vec![Value::int(3)]),
    ] {
        instance
            .add_tuple(relation, Tuple::new(row))
            .expect("consistent arity");
    }
    instance
}

/// SplitMix64: a small, fixed generator, so a seed means the same inputs on
/// every build.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// `n` distinct variable names, e.g. `v3n17`.
    fn names(&mut self, n: usize) -> Vec<String> {
        (0..n)
            .map(|i| format!("v{i}n{}", self.below(100_000)))
            .collect()
    }

    /// Four distinct variable names, e.g. `x17`.
    fn var_names(&mut self) -> [String; 4] {
        let mut names: Vec<String> = Vec::with_capacity(4);
        for letter in ["x", "y", "z", "w"] {
            names.push(format!("{letter}{}", self.below(100_000)));
        }
        names.try_into().expect("four names")
    }
}

fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
