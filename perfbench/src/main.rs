//! The `nevd` benchmark client.
//!
//! ```text
//! nev-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!               --nevd PATH --clock-ticks HZ [--commit SHA]
//! ```
//!
//! `--trace 0` starts `nevd` with `--workers` equal to the host's parallelism,
//! drives the workload over TCP for `S` seconds and prints the end-to-end
//! metrics; `--trace 1` replays the same requests in-process and prints the
//! per-layer split. Either way the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`, preceded by a provenance
//! line. `perfbench/run.py` builds both binaries and supplies the paths.

mod e2e;
mod nevd;
mod script;
mod trace;
mod workloads;

use std::io;
use std::process::ExitCode;

use crate::nevd::Conn;
use crate::script::{Script, Step};

/// Run settings shared by both modes.
pub struct Env {
    pub nevd: String,
    pub workers: usize,
    pub seconds: f64,
    pub clock_ticks: u64,
}

/// Set-ups timed per end-to-end run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// A run's metrics and its per-`EVAL` shape counters.
pub type Outcome = (Vec<Metric>, Vec<(String, f64)>);

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// Attempted and failed operations. A failure is an `ERR`, a response that
/// differs from its reference, an unexpected `truncated=true`, or a lost
/// connection; failures are counted, never retried or skipped.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, step: &Step, response: &str) {
        self.attempted += 1;
        if response != step.expected || response.contains("truncated=true") {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!(
                    "MISMATCH {}\n  got      {}\n  expected {}",
                    clip(&step.line),
                    clip(response),
                    clip(&step.expected)
                );
            }
        }
    }

    /// A request whose response never arrived.
    pub fn lost(&mut self, step: &Step, error: &io::Error) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("LOST {} ({error})", clip(&step.line));
    }

    /// Sends one step, counting it as lost if the connection fails.
    pub fn send(&mut self, conn: &mut Conn, step: &Step) -> io::Result<String> {
        conn.send(&step.line).inspect_err(|e| self.lost(step, e))
    }
}

fn clip(text: &str) -> String {
    const MAX: usize = 200;
    match text.char_indices().nth(MAX) {
        Some((at, _)) => format!("{}… ({} bytes)", &text[..at], text.len()),
        None => text.to_string(),
    }
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile by linear interpolation between closest ranks.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = q * (values.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (rank - lo as f64)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    nevd: String,
    clock_ticks: u64,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        nevd: String::new(),
        clock_ticks: 100,
        commit: "unknown".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            "--nevd" => args.nevd = value.clone(),
            "--clock-ticks" => args.clock_ticks = value.parse().map_err(|_| bad())?,
            "--commit" => args.commit = value.clone(),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if args.nevd.is_empty() {
        return Err("--nevd is required".to_string());
    }
    if args.seconds <= 0.0 || args.clock_ticks == 0 {
        return Err("--seconds and --clock-ticks must be positive".to_string());
    }
    Ok(args)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_string(text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("nev-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = workloads::build(&args.workload, args.seed) else {
        eprintln!(
            "nev-perfbench: unknown workload `{}` (one of {})",
            args.workload,
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env = Env {
        nevd: args.nevd.clone(),
        workers: nproc,
        seconds: args.seconds,
        clock_ticks: args.clock_ticks,
    };
    let script = Script::new(&workload);
    let mut tally = Tally::default();
    let outcome = if args.trace {
        trace::run(&env, &script, &mut tally)
    } else {
        e2e::run(&env, &script, &mut tally)
    };
    let (metrics, shape) = match outcome {
        Ok(found) => found,
        Err(e) => {
            eprintln!("nev-perfbench: run ended early: {e}");
            if tally.failed == 0 {
                // The run ended without a failed request (e.g. `nevd` did
                // not start): the run itself is the failed operation.
                tally.attempted += 1;
                tally.failed += 1;
            }
            (Vec::new(), Vec::new())
        }
    };
    let correct = tally.failed == 0;

    let shape_json: Vec<String> = shape
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_number(*v)))
        .collect();
    println!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"commit\": {}, \
         \"nproc\": {nproc}, \"cpu\": {}, \"workers\": {}, \"seconds\": {}, \"setups\": {SETUPS}, \
         \"cycle\": {}, \"distinct_evals\": {}, \"window\": {}}}, \"per_eval\": {{{}}}}}",
        json_string(&args.workload),
        args.seed,
        u8::from(args.trace),
        json_string(&args.commit),
        json_string(&cpu_model()),
        env.workers,
        json_number(env.seconds),
        script.cycle.len(),
        script.warmup.len(),
        script.window,
        shape_json.join(", ")
    );
    let metrics_json: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        metrics_json.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
