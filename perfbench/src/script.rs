//! A workload rendered as protocol lines, each with the exact response it
//! must get. Reference answers come from a bare in-process
//! `CertainEngine::evaluate` — none of the serve layer's cache, pool or
//! parallel oracle — computed once per distinct request before anything is
//! timed, so checking a response during a run is a string comparison.

use std::collections::HashMap;

use nev_core::engine::{CertainEngine, EvalPlan, PreparedQuery};
use nev_core::Semantics;
use nev_serve::client::semantics_spelling;
use nev_serve::state::ServeConfig;
use nev_serve::wire::{render_answers, render_instance};

use crate::workloads::{Request, Workload};

/// A protocol line and the response it must get.
#[derive(Clone)]
pub struct Step {
    pub line: String,
    pub expected: String,
    pub is_load: bool,
}

pub struct Script {
    /// `LOAD`s of every instance's version 0.
    pub setup: Vec<Step>,
    /// Every distinct `EVAL` of the cycle once, against the set-up versions.
    pub warmup: Vec<Step>,
    /// The request cycle, replayed in order until the window closes.
    pub cycle: Vec<Step>,
    pub window: usize,
}

impl Script {
    pub fn new(workload: &Workload) -> Script {
        let engine = CertainEngine::with_bounds(ServeConfig::default().bounds);
        let mut references: HashMap<(usize, usize, Semantics, String), String> = HashMap::new();
        let mut expect = |instance: usize, version: usize, semantics: Semantics, query: &str| {
            references
                .entry((instance, version, semantics, query.to_string()))
                .or_insert_with(|| {
                    let d = &workload.instances[instance].1[version];
                    reference(&engine, d, semantics, query)
                })
                .clone()
        };
        let load = |instance: usize, version: usize, verb: &str| {
            let (name, versions) = &workload.instances[instance];
            let d = &versions[version];
            Step {
                line: format!("LOAD {name} {}", render_instance(d)),
                expected: format!("OK {verb} {name} facts={}", d.fact_count()),
                is_load: true,
            }
        };
        let eval_line = |instance: usize, semantics: Semantics, query: &str| {
            format!(
                "EVAL {} {} {query}",
                workload.instances[instance].0,
                semantics_spelling(semantics)
            )
        };

        let setup = (0..workload.instances.len())
            .map(|i| load(i, 0, "loaded"))
            .collect();
        let mut versions = vec![0usize; workload.instances.len()];
        let mut cycle = Vec::with_capacity(workload.cycle.len());
        let mut warmup: Vec<Step> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for request in &workload.cycle {
            match request {
                Request::Load { instance, version } => {
                    versions[*instance] = *version;
                    cycle.push(load(*instance, *version, "replaced"));
                }
                Request::Eval {
                    instance,
                    semantics,
                    query,
                } => {
                    let line = eval_line(*instance, *semantics, query);
                    if seen.insert(line.clone()) {
                        warmup.push(Step {
                            line: line.clone(),
                            expected: expect(*instance, 0, *semantics, query),
                            is_load: false,
                        });
                    }
                    cycle.push(Step {
                        line,
                        expected: expect(*instance, versions[*instance], *semantics, query),
                        is_load: false,
                    });
                }
            }
        }
        assert!(
            versions.iter().all(|&v| v == 0),
            "a cycle must end on the set-up versions"
        );
        Script {
            setup,
            warmup,
            cycle,
            window: workload.window,
        }
    }
}

/// The exact `EVAL` response the service must give.
fn reference(
    engine: &CertainEngine,
    d: &nev_incomplete::Instance,
    semantics: Semantics,
    query: &str,
) -> String {
    let prepared = match PreparedQuery::parse(query) {
        Ok(prepared) => prepared,
        Err(e) => return format!("ERR {e}"),
    };
    let evaluation = engine.evaluate(d, semantics, &prepared);
    let plan = match evaluation.plan {
        EvalPlan::CompiledNaive(_) => "compiled",
        EvalPlan::CertifiedNaive(_) => "certified",
        EvalPlan::NormalizedNaive(_) => "normalized",
        EvalPlan::Symbolic(_) => "symbolic",
        EvalPlan::BoundedEnumeration => "oracle",
    };
    format!(
        "OK plan={plan} certain={}{}",
        render_answers(&evaluation.certain),
        if evaluation.truncated {
            " truncated=true"
        } else {
            ""
        }
    )
}
