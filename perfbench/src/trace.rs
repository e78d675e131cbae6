//! The traced run: the per-layer split of the same requests.
//!
//! One phase replays the cycle, one request at a time, on three servers that
//! each start from the set-up state:
//!
//! * **live** — `nevd` over TCP, for the client latency, the server's own
//!   time inside those requests (its request-latency histogram in `METRICS`)
//!   and the `STATS` deltas (plan mix, worlds, cache use) of the phase;
//! * **plain** — an in-process `ServeState` answering with `handle_line`, for
//!   `serve.handle_us` and `serve.load_us`;
//! * **traced** — an in-process `ServeState` answering each `EVAL` the way
//!   `handle_line` does — `parse_command`, `ServeState::eval_with_trace`,
//!   `EvalResponse::render` — with a timer around the wire calls. The server's
//!   own trace spans (cache probe, exec with its scan / join phases, symbolic
//!   ladder, pool oracle) give the rest of the split.
//!
//! The three answer every step in turn, in an order that runs through all six
//! permutations, so host drift and the wake-up of another server's threads
//! fall on all alike. Two in-process `ServeState`s, which see every step,
//! swap the plain and traced roles every six steps: two instances of the same
//! server were measured 10 % apart on `oracle_exhaust`, and the swap keeps
//! that out of the comparison. Every response is checked.
//!
//! `wire.rtt_us` is the live server's client latency less its own time inside
//! the same requests, per `EVAL`. `obs.trace_overhead_us` is the median over
//! `EVAL` steps of the traced path's time less the `handle_line` time of the
//! same step. Layer times are means per `EVAL` (total time in the layer ÷
//! requests), so the children of the traced path add up to its wall time and
//! the remainder is `obs.unattributed_us`. Spans are whole microseconds, as
//! the server records them.
//!
//! Splits the server does not trace — the parse inside every plan-cache
//! probe, `CertainEngine::plan`, `nev_hom::is_core`, `InternedInstance::new`,
//! the exec counters and the sequential oracle's valuations / world
//! generation / per-world evaluation —
//! are extra calls on the traced server's instance and prepared query, made
//! after the step and outside every timed call. They are reported, not added.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::time::{Duration, Instant};

use nev_core::engine::{EvalPlan, PreparedQuery};
use nev_core::summary::Expectation;
use nev_core::Semantics;
use nev_exec::{ExecStats, ExecTimings, InternedInstance};
use nev_incomplete::{Instance, Tuple};
use nev_obs::{Stage, Trace};
use nev_serve::cache::canonical;
use nev_serve::state::{PlanKind, ServeConfig, ServeState};
use nev_serve::wire::{parse_command, Command};

use crate::e2e;
use crate::nevd::{Conn, Nevd};
use crate::script::{Script, Step};
use crate::{median, Env, Metric, Outcome, Tally};

/// The orders in which the three servers answer a step, used in turn.
const ORDERS: [[usize; 3]; 6] = [
    [0, 1, 2],
    [1, 2, 0],
    [2, 0, 1],
    [0, 2, 1],
    [2, 1, 0],
    [1, 0, 2],
];

/// The timed parts of a traced `EVAL`, in order. Their means add up to the
/// traced path's wall time less `obs.unattributed_us`.
const CHILDREN: [&str; 6] = [
    "wire.parse",
    "serve.cache_probe",
    "exec.pass",
    "symbolic",
    "runtime.oracle_pool",
    "wire.render",
];

pub fn run(env: &Env, script: &Script, tally: &mut Tally) -> io::Result<Outcome> {
    let config = || ServeConfig {
        workers: env.workers,
        ..ServeConfig::default()
    };
    let nevd = Nevd::spawn(&env.nevd, env.workers)?;
    let mut conn = Conn::connect(&nevd.addr)?;
    let states = [ServeState::new(config()), ServeState::new(config())];
    let mut layers = Layers::default();
    let mut client_us = 0.0;
    let mut overhead_us = Vec::new();
    let mut handle_us = Vec::new();
    let mut load_us = Vec::new();

    for step in script.setup.iter().chain(&script.warmup) {
        let response = tally.send(&mut conn, step)?;
        tally.check(step, &response);
        for state in &states {
            let start = Instant::now();
            let response = state.handle_line(&step.line);
            if step.is_load {
                load_us.push(start.elapsed().as_secs_f64() * 1e6);
            }
            tally.check(step, &response);
        }
    }
    let before = e2e::stats(&mut conn)?;
    let (served_before, served_count_before) = conn.eval_time()?;
    let budget = Duration::from_secs_f64(env.seconds);
    let start = Instant::now();
    let mut i = 0usize;
    while i == 0 || start.elapsed() < budget {
        let step = &script.cycle[i % script.cycle.len()];
        let swap = i / ORDERS.len() % 2;
        let (plain, traced) = (&states[swap], &states[1 - swap]);
        let (mut client, mut handle, mut traced_us) = (0.0, 0.0, 0.0);
        for party in ORDERS[i % ORDERS.len()] {
            let begin = Instant::now();
            let response = match party {
                0 => tally.send(&mut conn, step)?,
                1 => plain.handle_line(&step.line),
                _ if step.is_load => traced.handle_line(&step.line),
                _ => layers.eval(traced, step),
            };
            let took = begin.elapsed().as_secs_f64() * 1e6;
            match party {
                0 => client = took,
                1 => handle = took,
                _ => traced_us = took,
            }
            tally.check(step, &response);
        }
        if step.is_load {
            load_us.push(handle);
        } else {
            client_us += client;
            overhead_us.push(traced_us - handle);
            handle_us.push(handle);
            layers.split(traced, step);
        }
        i += 1;
    }
    let after = e2e::stats(&mut conn)?;
    let (served_after, served_count_after) = conn.eval_time()?;
    Conn::quit(conn);
    Nevd::stop(nevd);

    if served_count_after - served_count_before != layers.evals as f64 {
        return Err(io::Error::other(
            "METRICS request count disagrees with the EVALs sent",
        ));
    }
    let shape = e2e::shape(&before, &after);
    let delta = |k: &str| {
        after.get(k).copied().unwrap_or(0) as f64 - before.get(k).copied().unwrap_or(0) as f64
    };
    let hits = delta("cache_hits");
    let cache_hit_ratio = hits / (hits + delta("cache_misses")).max(1.0);
    let evals = layers.evals.max(1) as f64;
    let us = |k: &str| layers.us.get(k).copied().unwrap_or(0.0) / evals;
    let count = |k: &str| layers.counts.get(k).copied().unwrap_or(0) as f64;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let children: f64 = CHILDREN.iter().map(|k| us(k)).sum();
    let sequential_oracle =
        us("oracle.valuations") + us("oracle.worldgen") + us("oracle.world_eval");
    let traced_wall = us("wall");
    let handle = mean(&handle_us);

    let mut metrics = vec![
        Metric::new("wire.parse_us", us("wire.parse"), "us"),
        Metric::new("wire.render_us", us("wire.render"), "us"),
        Metric::new(
            "wire.rtt_us",
            (client_us - (served_after - served_before)) / evals,
            "us",
        ),
        Metric::new("serve.handle_us", handle, "us"),
        Metric::new("serve.load_us", mean(&load_us), "us"),
        Metric::new("serve.cache_probe_us", us("serve.cache_probe"), "us"),
        Metric::new("serve.cache_hit_ratio", cache_hit_ratio, "ratio"),
        Metric::new("core.prepare_us", us("core.prepare"), "us"),
        Metric::new("logic.parse_us", us("logic.parse"), "us"),
        Metric::new("core.classify_us", us("core.classify"), "us"),
        Metric::new("analyze.normalize_us", us("analyze.normalize"), "us"),
        Metric::new("exec.compile_us", us("exec.compile"), "us"),
        Metric::new("core.plan_us", us("core.plan"), "us"),
        Metric::new("hom.is_core_us", us("hom.is_core"), "us"),
        Metric::new("exec.pass_us", us("exec.pass"), "us"),
        Metric::new("exec.intern_us", us("exec.intern"), "us"),
        Metric::new("exec.scan_us", us("exec.scan"), "us"),
        Metric::new("exec.join_build_us", us("exec.join_build"), "us"),
        Metric::new("exec.join_probe_us", us("exec.join_probe"), "us"),
        Metric::new(
            "exec.rows_scanned",
            count("exec.rows_scanned") / evals,
            "count",
        ),
        Metric::new(
            "exec.hash_probes",
            count("exec.hash_probes") / evals,
            "count",
        ),
        Metric::new("symbolic.us", us("symbolic"), "us"),
        Metric::new(
            "symbolic.settled_ratio",
            ratio(count("symbolic.settled"), count("symbolic.attempted")),
            "ratio",
        ),
        Metric::new("oracle.valuations_us", us("oracle.valuations"), "us"),
        Metric::new("oracle.worldgen_us", us("oracle.worldgen"), "us"),
        Metric::new("oracle.world_eval_us", us("oracle.world_eval"), "us"),
        Metric::new(
            "oracle.worlds_per_req",
            count("oracle.worlds") / evals,
            "count",
        ),
        Metric::new("runtime.oracle_pool_us", us("runtime.oracle_pool"), "us"),
        Metric::new(
            "runtime.speedup",
            ratio(sequential_oracle, us("runtime.oracle_pool")),
            "ratio",
        ),
        Metric::new("obs.unattributed_us", traced_wall - children, "us"),
        Metric::new("obs.trace_overhead_us", median(&mut overhead_us), "us"),
    ];
    for (name, value) in &shape {
        metrics.push(Metric::new(&format!("stats.{name}"), *value, "count"));
    }
    Ok((metrics, shape))
}

/// Accumulated layer times (µs) and counts of the traced server's `EVAL`s.
#[derive(Default)]
struct Layers {
    us: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, u64>,
    evals: u64,
    /// The last `EVAL`'s trace, plan-cache outcome and answer kind, for
    /// [`Layers::split`].
    last: Option<(Trace, bool, PlanKind)>,
}

impl Layers {
    fn add(&mut self, layer: &'static str, us: f64) {
        *self.us.entry(layer).or_default() += us;
    }

    fn time<T>(&mut self, layer: &'static str, call: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = call();
        self.add(layer, start.elapsed().as_secs_f64() * 1e6);
        out
    }

    fn count(&mut self, counter: &'static str, n: u64) {
        *self.counts.entry(counter).or_default() += n;
    }

    /// One `EVAL` line through the calls `handle_line` makes, with the wire
    /// calls timed and the server's trace kept.
    fn eval(&mut self, state: &ServeState, step: &Step) -> String {
        let start = Instant::now();
        let misses = state.cache().misses();
        let command = self.time("wire.parse", || parse_command(&step.line));
        let Ok(Command::Eval {
            name,
            semantics,
            query,
        }) = command
        else {
            return format!("ERR unexpected parse {command:?}");
        };
        let Ok(semantics) = semantics.parse::<Semantics>() else {
            return format!("ERR unknown semantics `{semantics}`");
        };
        let (response, trace) = match state.eval_with_trace(&name, semantics, &query) {
            Ok(found) => found,
            Err(e) => return format!("ERR {e}"),
        };
        let line = self.time("wire.render", || format!("OK {}", response.render()));
        self.add("wall", start.elapsed().as_secs_f64() * 1e6);
        self.evals += 1;
        self.last = Some((trace, state.cache().misses() > misses, response.plan));
        line
    }

    /// Books the last `EVAL`'s spans and makes the untraced splits.
    fn split(&mut self, state: &ServeState, step: &Step) {
        let Some((trace, missed, answered)) = self.last.take() else {
            return;
        };
        let span = |stage| trace.stage_us(stage) as f64;
        self.add("serve.cache_probe", span(Stage::CacheProbe));
        self.add("exec.pass", span(Stage::Exec));
        self.add("exec.scan", span(Stage::Scan));
        self.add("exec.join_build", span(Stage::JoinBuild));
        self.add("exec.join_probe", span(Stage::JoinProbe));
        self.add("symbolic", span(Stage::Symbolic));
        self.add("runtime.oracle_pool", span(Stage::OracleWorlds));

        let Ok(Command::Eval {
            name,
            semantics,
            query,
        }) = parse_command(&step.line)
        else {
            return;
        };
        let (Some(d), Ok(semantics)) = (state.catalog().get(&name), semantics.parse()) else {
            return;
        };
        let _ = self.time("logic.parse", || canonical(&query));
        let Ok(plan) = state.cache().get_or_prepare(&query, semantics) else {
            return;
        };
        let prepared = &plan.prepared;
        if missed {
            let prep = prepared.prep_timings();
            self.add("core.prepare", span(Stage::CacheProbe));
            self.add("core.classify", prep.classify_us as f64);
            self.add("analyze.normalize", prep.analyze_us as f64);
            self.add("exec.compile", prep.compile_us as f64);
        }
        if plan.cell == Expectation::WorksOverCores {
            self.time("hom.is_core", || nev_hom::is_core(&d));
        }
        let dispatch = self.time("core.plan", || state.engine().plan(&d, semantics, prepared));
        match dispatch {
            EvalPlan::CompiledNaive(_)
            | EvalPlan::CertifiedNaive(_)
            | EvalPlan::NormalizedNaive(_) => {
                let compiled = if dispatch.is_normalized() && prepared.normalization_changed() {
                    prepared.normalized_compiled()
                } else {
                    prepared.compiled()
                };
                let interned = self.time("exec.intern", || InternedInstance::new(&d));
                if let Some(compiled) = compiled {
                    let mut stats = ExecStats::new();
                    compiled.execute_interned_timed(
                        &std::sync::Arc::new(interned),
                        true,
                        &mut stats,
                        &mut ExecTimings::default(),
                        state.engine().exec_options(),
                    );
                    self.count("exec.rows_scanned", stats.rows_scanned);
                    self.count("exec.hash_probes", stats.hash_probes);
                }
            }
            EvalPlan::Symbolic(_) | EvalPlan::BoundedEnumeration => {
                self.count("symbolic.attempted", 1);
                match answered {
                    PlanKind::Symbolic => self.count("symbolic.settled", 1),
                    PlanKind::Oracle => self.sequential_oracle(state, &d, semantics, prepared),
                    _ => {}
                }
            }
        }
    }

    /// The bounded oracle run sequentially and split into its parts: the
    /// valuation list, building each world, and evaluating the query in it,
    /// stopping where the intersection of answers empties.
    fn sequential_oracle(
        &mut self,
        state: &ServeState,
        d: &Instance,
        semantics: Semantics,
        prepared: &PreparedQuery,
    ) {
        let bounds = prepared.bounds(state.engine().bounds());
        let budget = bounds.budget_for(d, semantics);
        let valuations = self.time("oracle.valuations", || {
            nev_hom::enumerate_valuations(d, &budget)
        });
        drop(valuations);
        let allowed = prepared.allowed_constants(d);
        let mut worlds = semantics.worlds(d, &bounds);
        let mut exec = ExecStats::new();
        let mut certain: Option<BTreeSet<Tuple>> = None;
        let mut count = 0;
        while let Some(world) = self.time("oracle.worldgen", || worlds.next()) {
            count += 1;
            let answers = self.time("oracle.world_eval", || {
                prepared.answers_in_world(&world, &allowed, &mut exec)
            });
            let next = match certain.take() {
                None => answers,
                Some(prev) => prev.intersection(&answers).cloned().collect(),
            };
            let empty = next.is_empty();
            certain = Some(next);
            if empty {
                break;
            }
        }
        self.count("oracle.worlds", count);
    }
}
