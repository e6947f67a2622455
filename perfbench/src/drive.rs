//! The untraced closed loop: one client drives `ServerCore::handle_line`
//! in-process, sending each line only after the previous response has
//! returned, and times every call.

use crate::workload::{Step, Workload};
use crate::{calib, payload};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use whynot_relation::json::Json;
use whynot_server::{ServerConfig, ServerCore};

/// Executor worker threads: the machine's available parallelism.
pub fn executor_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The served configuration: defaults (queue depth 64, unlimited cache
/// budget, fair share 2) with durability on under `dir`.
pub fn config(dir: &Path) -> ServerConfig {
    ServerConfig {
        threads: Some(executor_threads()),
        snapshot_dir: Some(dir.display().to_string()),
        ..ServerConfig::default()
    }
}

/// Removes a state directory left by an earlier repetition.
pub fn clear_dir(dir: &Path) {
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("remove benchmark state directory");
    }
}

/// Timed restarts per repetition: at least this many, and more until
/// they took [`RESTART_MIN_S`] (a millisecond restart needs more
/// samples). An untimed restart goes first, so every timed one evicts a
/// freshly loaded session rather than the stream's warm caches; `load`
/// replays the same snapshot and WAL each time, so every timed restart
/// does the same work.
const RESTARTS_MIN: usize = 3;
const RESTART_MIN_S: f64 = 0.1;

/// One repetition: a fresh server set up, the whole stream, restarts.
pub struct Rep {
    pub setup_s: f64,
    pub setup_scale: f64,
    /// Per line: call start and end, ns of stream time.
    pub times: Vec<(u64, u64)>,
    /// Per line: the machine-speed time scale (see `calib`).
    pub line_scale: Vec<f64>,
    pub responses: Vec<Vec<String>>,
    pub restart_s: Vec<f64>,
    pub restart_scale: f64,
    pub probes_before: Vec<String>,
    pub probes_after: Vec<String>,
    /// Setup, restart and probe lines that were refused.
    pub failures: usize,
}

/// The payload of a line's first response.
pub fn first_payload(out: &[String]) -> String {
    out.first().and_then(|l| Json::parse(l).ok()).map_or_else(
        || payload::error("no-response"),
        |d| payload::from_response(&d),
    )
}

fn is_ok(out: &[String]) -> bool {
    out.len() == 1 && out[0].starts_with("{\"ok\":true")
}

/// Sets up a fresh server with every tenant resident; returns it with
/// the elapsed seconds and the number of refused `create`s.
pub fn setup(w: &Workload, dir: &Path) -> (ServerCore, f64, usize) {
    clear_dir(dir);
    let start = Instant::now();
    let mut server = ServerCore::new(config(dir));
    let mut failures = 0;
    for t in &w.tenants {
        let mut out = server.handle_line(&format!("create {}", t.name));
        for line in t.definition.lines() {
            out.extend(server.handle_line(line));
        }
        out.extend(server.handle_line("end"));
        failures += usize::from(!is_ok(&out));
    }
    (server, start.elapsed().as_secs_f64(), failures)
}

/// Runs one repetition. The calibration is timed before set-up, every
/// 100 ms of stream time (the clock pauses meanwhile) and after the
/// restarts; every line gets the time scale of the calibrations around it.
pub fn run_rep(w: &Workload, dir: &Path) -> Rep {
    let before_setup = calib::calibrate();
    let (mut server, setup_s, mut failures) = setup(w, dir);
    let mut times = Vec::with_capacity(w.lines.len());
    let mut responses = Vec::with_capacity(w.lines.len());
    let mut pacer = calib::Pacer::start();
    let setup_scale = calib::scale(before_setup, pacer.first());
    for (i, line) in w.lines.iter().enumerate() {
        pacer.tick(i);
        let start = pacer.now();
        let out = server.handle_line(line);
        times.push((start, pacer.now()));
        responses.push(out);
    }
    let (line_scale, after_stream) = pacer.finish(w.lines.len());
    let probe = |server: &mut ServerCore| -> Vec<String> {
        w.probe_lines
            .iter()
            .map(|l| first_payload(&server.handle_line(l)))
            .collect()
    };
    let probes_before = probe(&mut server);
    let mut restart = |server: &mut ServerCore| -> f64 {
        let start = Instant::now();
        let mut outs = Vec::new();
        for t in &w.tenants {
            outs.push(server.handle_line(&format!("evict {}", t.name)));
        }
        for t in &w.tenants {
            outs.push(server.handle_line(&format!("load {}", t.name)));
        }
        let secs = start.elapsed().as_secs_f64();
        failures += outs.iter().filter(|o| !is_ok(o)).count();
        secs
    };
    restart(&mut server);
    let mut restart_s: Vec<f64> = Vec::new();
    while restart_s.len() < RESTARTS_MIN || restart_s.iter().sum::<f64>() < RESTART_MIN_S {
        restart_s.push(restart(&mut server));
    }
    let after_restart = calib::calibrate();
    let probes_after = probe(&mut server);
    drop(server);
    clear_dir(dir);
    Rep {
        setup_s,
        setup_scale,
        times,
        line_scale,
        responses,
        restart_s,
        restart_scale: calib::scale(after_stream, after_restart),
        probes_before,
        probes_after,
        failures,
    }
}

/// The per-step payloads a stream's responses carry (`None` for `run`),
/// resolving `run` results back to their `enqueue` through the ticket.
pub struct WirePayloads {
    pub steps: Vec<Option<String>>,
    /// `queue-full` rejections.
    pub rejections: usize,
    /// `run` lines without an `ok` summary.
    pub bad_runs: usize,
    /// Response bytes over all lines.
    pub bytes: usize,
}

pub fn wire_payloads(steps: &[Step], responses: &[Vec<String>]) -> WirePayloads {
    let mut out = WirePayloads {
        steps: vec![None; steps.len()],
        rejections: 0,
        bad_runs: 0,
        bytes: 0,
    };
    let mut ticket_step: HashMap<i128, usize> = HashMap::new();
    for (i, (step, lines)) in steps.iter().zip(responses).enumerate() {
        out.bytes += lines.iter().map(|l| l.len() + 1).sum::<usize>();
        match step {
            Step::Ask { .. } | Step::Mutate { .. } => out.steps[i] = Some(first_payload(lines)),
            Step::Enqueue { .. } => {
                let doc = lines.first().and_then(|l| Json::parse(l).ok());
                match doc
                    .as_ref()
                    .and_then(|d| d.get("ticket"))
                    .and_then(Json::as_int)
                {
                    Some(ticket) => {
                        ticket_step.insert(ticket, i);
                    }
                    None => {
                        let p = first_payload(lines);
                        out.rejections += usize::from(p == payload::error("queue-full"));
                        out.steps[i] = Some(p);
                    }
                }
            }
            Step::Run => {
                let mut summary_ok = false;
                for line in lines {
                    let Ok(doc) = Json::parse(line) else { continue };
                    match doc.get("command").and_then(Json::as_str) {
                        Some("result") => {
                            let step = doc
                                .get("ticket")
                                .and_then(Json::as_int)
                                .and_then(|t| ticket_step.remove(&t));
                            if let Some(j) = step {
                                out.steps[j] = Some(payload::from_response(&doc));
                            }
                        }
                        Some("run") => summary_ok = doc.get("ok") == Some(&Json::Bool(true)),
                        _ => {}
                    }
                }
                out.bad_runs += usize::from(!summary_ok);
            }
        }
    }
    out
}

/// Latency samples derived from one repetition's call times, each
/// multiplied by the time scale of the line it starts at.
#[derive(Default)]
pub struct Samples {
    /// Question latency, µs: an `ask`/`contrast` call, or an `enqueue`
    /// call's start to the return of the `run` that answers it.
    pub ask_us: Vec<f64>,
    pub mutate_us: Vec<f64>,
    /// A `mutate` call's start to the return of the answer to the next
    /// question on that tenant, µs.
    pub mutate_to_answer_us: Vec<f64>,
    pub run_ms: Vec<f64>,
    /// `enqueue` return to the return of the `run` that answers it, ms.
    pub queue_wait_ms: Vec<f64>,
    pub questions: usize,
    /// Stream time: the sum of every line's scaled call time, s.
    pub line_s: f64,
}

pub fn samples(steps: &[Step], times: &[(u64, u64)], scale: &[f64]) -> Samples {
    let mut s = Samples::default();
    // When each step's answer returns: its own end, or for an `enqueue`
    // the end of the next `run`.
    let mut answered = vec![0u64; steps.len()];
    let mut next_run_end = u64::MAX;
    for i in (0..steps.len()).rev() {
        if matches!(steps[i], Step::Run) {
            next_run_end = times[i].1;
        }
        answered[i] = match steps[i] {
            Step::Enqueue { .. } => next_run_end,
            _ => times[i].1,
        };
    }
    let mut next_answer: HashMap<usize, u64> = HashMap::new();
    let mut m2a = Vec::new();
    for i in (0..steps.len()).rev() {
        let (start, end) = times[i];
        let us = |ns: u64| ns as f64 / 1e3 * scale[i];
        match &steps[i] {
            Step::Ask { tenant, .. } | Step::Enqueue { tenant, .. } => {
                if answered[i] != u64::MAX {
                    s.ask_us.push(us(answered[i] - start));
                    if matches!(steps[i], Step::Enqueue { .. }) {
                        s.queue_wait_ms.push(us(answered[i] - end) / 1e3);
                    }
                }
                s.questions += 1;
                next_answer.insert(*tenant, answered[i]);
            }
            Step::Mutate { tenant, .. } => {
                s.mutate_us.push(us(end - start));
                if let Some(&a) = next_answer.get(tenant) {
                    if a != u64::MAX {
                        m2a.push(us(a - start));
                    }
                }
            }
            Step::Run => s.run_ms.push(us(end - start) / 1e3),
        }
        s.line_s += us(end - start) / 1e6;
    }
    s.mutate_to_answer_us = m2a;
    s
}

/// The benchmark's scratch directory inside the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from("perfbench").join("out")
}

#[cfg(test)]
mod tests {
    use super::*;
    use whynot_relation::Delta;

    #[test]
    fn enqueued_questions_are_timed_to_their_run() {
        let steps = vec![
            Step::Enqueue {
                tenant: 0,
                query: 0,
                tuple: vec![],
            },
            Step::Mutate {
                tenant: 1,
                delta: Delta::new(),
            },
            Step::Enqueue {
                tenant: 1,
                query: 0,
                tuple: vec![],
            },
            Step::Run,
        ];
        let times = vec![(0, 10), (10, 30), (30, 40), (40, 1040)];
        let s = samples(&steps, &times, &[1.0; 4]);
        assert_eq!(s.ask_us, vec![1.01, 1.04]);
        assert_eq!(s.mutate_us, vec![0.02]);
        // The mutate on tenant 1 is answered when the run returns.
        assert_eq!(s.mutate_to_answer_us, vec![1.03]);
        assert_eq!(s.run_ms, vec![0.001]);
        assert_eq!(s.questions, 2);
        assert!((s.line_s - 1040e-9).abs() < 1e-15);
        let doubled = samples(&steps, &times, &[2.0; 4]);
        assert_eq!(doubled.ask_us, vec![2.02, 2.08]);
    }
}
