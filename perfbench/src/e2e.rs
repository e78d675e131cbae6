//! The end-to-end run: a live `nevd` driven over TCP by this one client
//! thread, every response checked against its reference.

use std::collections::BTreeMap;
use std::io;
use std::time::{Duration, Instant};

use crate::nevd::{Conn, Nevd};
use crate::script::{Script, Step};
use crate::{median, quantile, Env, Metric, Outcome, Tally, SETUPS};

/// One complete set-up: spawn `nevd`, `LOAD` every instance and answer each
/// distinct request once, in the workload's windows. Returns the server, its
/// connection and the time the set-up took, in seconds.
fn set_up(env: &Env, script: &Script, tally: &mut Tally) -> io::Result<(Nevd, Conn, f64)> {
    let start = Instant::now();
    let nevd = Nevd::spawn(&env.nevd, env.workers)?;
    let mut conn = Conn::connect(&nevd.addr)?;
    let mut response = String::new();
    for steps in [&script.setup, &script.warmup] {
        for window in steps.chunks(script.window) {
            if let Err(e) = conn.write_lines(window.iter().map(|s| s.line.as_str())) {
                tally.lost(&window[0], &e);
                return Err(e);
            }
            for step in window {
                if let Err(e) = conn.read_line(&mut response) {
                    tally.lost(step, &e);
                    return Err(e);
                }
                tally.check(step, &response);
            }
        }
    }
    Ok((nevd, conn, start.elapsed().as_secs_f64()))
}

/// `STATS` as a counter map.
pub fn stats(conn: &mut Conn) -> io::Result<BTreeMap<String, u64>> {
    let line = conn.send("STATS")?;
    Ok(line
        .split_whitespace()
        .filter_map(|kv| kv.split_once('='))
        .filter_map(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
        .collect())
}

/// Counter deltas per `EVAL` between two `STATS` maps — the workload's shape
/// (plan mix, worlds per request, cache use), reported beside the metrics.
pub fn shape(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>) -> Vec<(String, f64)> {
    let delta = |k: &str| {
        after.get(k).copied().unwrap_or(0) as f64 - before.get(k).copied().unwrap_or(0) as f64
    };
    let evals = delta("evals").max(1.0);
    [
        "compiled",
        "certified",
        "normalized_upgrades",
        "symbolic",
        "oracle",
        "worlds",
        "oracle_cancelled",
        "morsels",
        "parallel_joins",
        "truncated",
        "cache_hits",
        "cache_misses",
    ]
    .iter()
    .map(|k| (k.to_string(), delta(k) / evals))
    .collect()
}

/// Replays the cycle from `position` in windows of `script.window` lines
/// until `budget` has passed (at least one whole window), checking every
/// response and pushing each request's latency (µs). Returns the elapsed
/// time and leaves `position` at the next step. A lost connection ends the
/// replay with an error after counting its request as failed.
fn replay(
    conn: &mut Conn,
    script: &Script,
    budget: Duration,
    position: &mut usize,
    tally: &mut Tally,
    latencies: &mut Vec<f64>,
) -> io::Result<Duration> {
    let cycle = &script.cycle;
    let window = script.window;
    let mut response = String::new();
    let start = Instant::now();
    loop {
        let steps: Vec<&Step> = (0..window)
            .map(|k| &cycle[(*position + k) % cycle.len()])
            .collect();
        *position = (*position + window) % cycle.len();
        let sent = Instant::now();
        if let Err(e) = conn.write_lines(steps.iter().map(|s| s.line.as_str())) {
            tally.lost(steps[0], &e);
            return Err(e);
        }
        for step in steps {
            if let Err(e) = conn.read_line(&mut response) {
                tally.lost(step, &e);
                return Err(e);
            }
            latencies.push(sent.elapsed().as_secs_f64() * 1e6);
            tally.check(step, &response);
        }
        if start.elapsed() >= budget {
            return Ok(start.elapsed());
        }
    }
}

/// The whole end-to-end run; returns the metrics and the shape counters.
///
/// The timed window is cut into [`SETUPS`] equal segments, and one set-up
/// precedes each: the first keeps its server for the window, the others are
/// made on a server of their own and stopped again while the kept one idles.
/// So the set-ups sample the host over the whole run, as the window does,
/// and `setup_s` is their median.
pub fn run(env: &Env, script: &Script, tally: &mut Tally) -> io::Result<Outcome> {
    let (nevd, mut conn, first) = set_up(env, script, tally)?;
    let mut setups = vec![first];
    let before = stats(&mut conn)?;
    let ticks_before = nevd.cpu_ticks()?;
    let segment = Duration::from_secs_f64(env.seconds / SETUPS as f64);
    let mut elapsed = Duration::ZERO;
    let mut position = 0;
    let mut latencies = Vec::new();
    for k in 0..SETUPS {
        if k > 0 {
            let (other, other_conn, took) = set_up(env, script, tally)?;
            Conn::quit(other_conn);
            Nevd::stop(other);
            setups.push(took);
        }
        elapsed += replay(
            &mut conn,
            script,
            segment,
            &mut position,
            tally,
            &mut latencies,
        )?;
    }
    let ticks = nevd.cpu_ticks()? - ticks_before;
    let completed = latencies.len() as f64;
    let after = stats(&mut conn)?;
    let rss_kib = nevd.peak_rss_kib()?;
    Conn::quit(conn);
    Nevd::stop(nevd);
    eprintln!("set-ups (s): {setups:.4?}");

    let metrics = vec![
        Metric::new("throughput_rps", completed / elapsed.as_secs_f64(), "1/s"),
        Metric::new("latency_p50_us", quantile(&mut latencies, 0.50), "us"),
        Metric::new("latency_p95_us", quantile(&mut latencies, 0.95), "us"),
        Metric::new(
            "cpu_ms_per_req",
            ticks as f64 * 1000.0 / env.clock_ticks as f64 / completed,
            "ms",
        ),
        Metric::new("server_rss_mb", rss_kib as f64 / 1024.0, "MiB"),
        Metric::new("setup_s", median(&mut setups), "s"),
    ];
    Ok((metrics, shape(&before, &after)))
}
