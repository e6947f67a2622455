//! Closed-loop `whynot-server` benchmark with a per-crate layer split.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload steady_ask --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. The untraced run (`--trace 0`) drives
//! `ServerCore::handle_line` in-process and reports the end-to-end
//! metrics; the traced run (`--trace 1`) also replays the stream through
//! spans around the public calls `handle_line` makes and reports the
//! per-layer metrics. Every response is checked against a direct
//! `WhyNotSession` replay once the clock has stopped. The last line of
//! standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`; the
//! command exits non-zero when any answer differs.

mod calib;
mod drive;
mod payload;
mod reference;
mod stats;
mod trace;
mod workload;

use stats::{median, percentile, sorted};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use trace::{Mirror, Tracer};
use workload::{Step, Workload};

/// A run stops starting repetitions after this many seconds, so it ends
/// well inside its time limit whatever the machine.
const HARD_STOP_S: f64 = 110.0;
/// `setup_s` is a median over at least this many set-ups.
const MIN_SETUPS: usize = 9;
/// Repetitions a run makes at least.
const MIN_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Reported metrics, in output order: name → (value, unit).
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A JSON number with every digit Rust's shortest round-trip form has.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn json_str(s: &str) -> String {
    whynot_relation::json::Json::str(s).to_string()
}

/// Peak resident set size of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn online_cpus() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

/// The one-line record of what ran where.
fn describe(w: &Workload) -> String {
    let questions = w.steps.iter().filter(|s| s.is_question()).count();
    let mutations = w
        .steps
        .iter()
        .filter(|s| matches!(s, Step::Mutate { .. }))
        .count();
    format!(
        "# input {{\"workload\": {}, \"seed\": {}, \"tenants\": {}, \"facts\": {}, \"steps\": {}, \
         \"questions\": {questions}, \"mutations\": {mutations}, \"repeat_share\": {}, \"why\": {}}}\n\
         # machine {{\"nproc\": {}, \"available_parallelism\": {}, \"executor_threads\": {}, \
         \"cpu\": {}, \"rustc\": {}, \"wal_flush\": \"append per mutate, no fsync\", \
         \"load\": \"closed loop, one client, in-process ServerCore::handle_line\"}}",
        json_str(w.name),
        w.seed,
        w.tenants.len(),
        w.facts(),
        w.steps.len(),
        num(w.repeat_share()),
        json_str(w.why),
        online_cpus(),
        drive::executor_threads(),
        drive::executor_threads(),
        json_str(&cpu_model()),
        json_str(env!("PERFBENCH_RUSTC")),
    )
}

/// What the untraced repetitions measured. The question percentiles and
/// rate are taken per repetition (every repetition asks at least 1000
/// questions, so ten samples lie beyond its 99th percentile) and then the
/// median over repetitions, so a burst of machine noise during a few
/// repetitions does not move them. The mutate medians pool the samples
/// of every repetition: `lub_contrast` mutates too rarely for a median
/// per repetition.
#[derive(Default)]
struct Untraced {
    ask_samples: usize,
    mutate_us: Vec<f64>,
    run_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    rep_ask_p50: Vec<f64>,
    rep_ask_p99: Vec<f64>,
    raw_ask_p50: Vec<f64>,
    raw_qps: Vec<f64>,
    /// Per repetition: the median time scale of its lines (see `calib`).
    scales: Vec<f64>,
    mutate_to_answer_us: Vec<f64>,
    rep_qps: Vec<f64>,
    /// Per repetition: scaled stream time, s.
    line_s: Vec<f64>,
    /// Unscaled stream time of all repetitions, s: the run's budget.
    stream_s: f64,
    setup_s: Vec<f64>,
    restart_s: Vec<f64>,
    reps: usize,
    attempted: usize,
    failed: usize,
    rejections: usize,
    response_bytes: usize,
    comparator_ok: bool,
    rss_mb: f64,
}

impl Untraced {
    fn enough(&self, seconds: f64) -> bool {
        self.reps >= MIN_REPS && self.stream_s >= seconds
    }
}

fn p50(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 50.0).unwrap_or(f64::NAN)
}

/// Runs untraced repetitions until `seconds` of stream time have passed,
/// checking each one against the reference as soon as its clock stops.
fn untraced(
    w: &Workload,
    reference: &reference::Reference,
    dir: &Path,
    seconds: f64,
    clock: Instant,
) -> Untraced {
    let mut u = Untraced::default();
    while !u.enough(seconds) && (u.reps == 0 || clock.elapsed().as_secs_f64() < HARD_STOP_S) {
        let rep = drive::run_rep(w, dir);
        let s = drive::samples(&w.steps, &rep.times, &rep.line_scale);
        let raw = drive::samples(&w.steps, &rep.times, &vec![1.0; rep.times.len()]);
        u.raw_ask_p50.push(p50(&raw.ask_us));
        u.raw_qps.push(raw.questions as f64 / raw.line_s);
        u.ask_samples += s.ask_us.len();
        u.rep_ask_p50.push(p50(&s.ask_us));
        u.rep_ask_p99
            .push(percentile(&sorted(s.ask_us.clone()), 99.0).unwrap_or(f64::NAN));
        u.rep_qps.push(s.questions as f64 / s.line_s);
        u.scales.push(median(&rep.line_scale));
        eprintln!(
            "rep {} t={:.1}s scale {:.3} ask_p50_us raw {} scaled {}",
            u.reps,
            clock.elapsed().as_secs_f64(),
            u.scales[u.reps],
            num(u.raw_ask_p50[u.reps]),
            num(u.rep_ask_p50[u.reps]),
        );
        u.line_s.push(s.line_s);
        u.stream_s += raw.line_s;
        u.mutate_us.extend(s.mutate_us);
        u.mutate_to_answer_us.extend(s.mutate_to_answer_us);
        u.run_ms.extend(s.run_ms);
        u.queue_wait_ms.extend(s.queue_wait_ms);
        u.setup_s.push(rep.setup_s * rep.setup_scale);
        u.restart_s
            .extend(rep.restart_s.iter().map(|r| r * rep.restart_scale));
        let c = check(
            w,
            reference,
            &rep.responses,
            &rep.probes_before,
            &rep.probes_after,
        );
        if u.reps == 0 {
            u.comparator_ok = c.comparator_ok;
            u.response_bytes = c.response_bytes;
        }
        u.failed += c.failed + rep.failures;
        u.rejections += c.rejections;
        u.attempted += w.lines.len()
            + 2 * w.probe_lines.len()
            + w.tenants.len() * (1 + 2 * (rep.restart_s.len() + 1));
        u.reps += 1;
    }
    while u.setup_s.len() < MIN_SETUPS {
        let before = calib::calibrate();
        let (server, secs, failures) = drive::setup(w, dir);
        drop(server);
        let after = calib::calibrate();
        u.setup_s.push(secs * calib::scale(before, after));
        u.failed += failures;
        u.attempted += w.tenants.len();
    }
    drive::clear_dir(dir);
    u.rss_mb = peak_rss_mb();
    u
}

/// The outcome of checking one stream's responses against the reference.
struct Checked {
    failed: usize,
    rejections: usize,
    response_bytes: usize,
    /// Whether the comparator flagged a deliberately altered answer.
    comparator_ok: bool,
}

/// Compares a stream's answers, ticket by ticket, and the restart probes
/// before and after the restart, with the reference.
fn check(
    w: &Workload,
    reference: &reference::Reference,
    responses: &[Vec<String>],
    probes_before: &[String],
    probes_after: &[String],
) -> Checked {
    let wire = drive::wire_payloads(&w.steps, responses);
    let bad = payload::mismatches(&reference.steps, &wire.steps);
    for &i in bad.iter().take(3) {
        eprintln!(
            "perfbench: mismatch at step {i}: {}\n  expected {:?}\n  got      {:?}",
            w.lines[i], reference.steps[i], wire.steps[i]
        );
    }
    let probe_bad = (0..reference.probes.len())
        .filter(|&i| {
            probes_before.get(i) != Some(&reference.probes[i])
                || probes_after.get(i) != Some(&reference.probes[i])
        })
        .count();
    if probe_bad > 0 {
        eprintln!("perfbench: {probe_bad} restart probes differ from the reference");
    }
    Checked {
        failed: bad.len() + wire.bad_runs + probe_bad,
        rejections: wire.rejections,
        response_bytes: wire.bytes,
        comparator_ok: payload::comparator_catches_altered_answer(&reference.steps, &wire.steps),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let clock = Instant::now();
    let Some(w) = Workload::build(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload {:?} (expected one of {:?})",
            args.workload,
            workload::NAMES
        );
        std::process::exit(2);
    };
    println!("{}", describe(&w));
    let out = drive::out_dir();
    std::fs::create_dir_all(&out).expect("create perfbench/out");
    let dir = out.join(format!("state-{}", std::process::id()));

    // The reference is computed before any timing and kept as compact
    // payload strings; each repetition is checked as soon as it ends.
    let reference = reference::replay(&w);
    // The traced run keeps half its time for the span replay.
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let u = untraced(&w, &reference, &dir, budget, clock);
    let (mut attempted, mut failed) = (u.attempted, u.failed);
    if !u.comparator_ok {
        eprintln!("perfbench: the parity comparator missed a deliberately altered answer");
    }

    let mut m = Metrics::default();
    if args.trace {
        let t = traced(&w, &reference, &dir, args.seconds / 2.0, clock);
        attempted += t.attempted;
        failed += t.failed;
        layer_metrics(&mut m, &w, &u, &t);
    } else {
        m.put("ask_p50_us", median(&u.rep_ask_p50), "us");
        m.put("ask_p99_us", median(&u.rep_ask_p99), "us");
        m.put("mutate_p50_us", p50(&u.mutate_us), "us");
        m.put("mutate_to_answer_p50_us", p50(&u.mutate_to_answer_us), "us");
        m.put("questions_per_s", median(&u.rep_qps), "1/s");
        m.put("restart_s", median(&u.restart_s), "s");
        m.put("setup_s", median(&u.setup_s), "s");
        m.put("peak_rss_mb", u.rss_mb, "MB");
        println!(
            "# samples ask={} mutate={} run={} reps={} setups={} restarts={}",
            u.ask_samples,
            u.mutate_us.len(),
            u.run_ms.len(),
            u.reps,
            u.setup_s.len(),
            u.restart_s.len()
        );
        println!(
            "# unscaled ask_p50_us {} us, questions_per_s {} 1/s; time scale median {} (min {}, max {})",
            num(median(&u.raw_ask_p50)),
            num(median(&u.raw_qps)),
            num(median(&u.scales)),
            num(u.scales.iter().copied().fold(f64::INFINITY, f64::min)),
            num(u.scales.iter().copied().fold(0.0, f64::max)),
        );
        if let Some(p99) = percentile(&sorted(u.mutate_us.clone()), 99.0) {
            println!("# mutate_p99_us {} us", num(p99));
        }
        if !u.run_ms.is_empty() {
            let run = sorted(u.run_ms.clone());
            println!(
                "# run_p50_ms {} ms, run_p95_ms {} ms, server.queue_wait_ms p50 {} ms",
                num(percentile(&run, 50.0).unwrap_or(f64::NAN)),
                num(percentile(&run, 95.0).unwrap_or(f64::NAN)),
                num(p50(&u.queue_wait_ms)),
            );
        }
    }

    let failed = failed.min(attempted);
    let correct = u.comparator_ok && failed == 0;
    println!(
        "# failed_ops_share {} ({failed} of {attempted} lines)",
        num(failed as f64 / attempted.max(1) as f64)
    );
    for (n, v, unit) in &m.0 {
        println!("# {n} {} {unit}", num(*v));
    }
    println!("# wall_s {}", num(clock.elapsed().as_secs_f64()));
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        m.json()
    );
    if !correct {
        std::process::exit(1);
    }
}

/// What the traced repetitions measured: per `layer.name` self times
/// (median over repetitions) and the counts of the last repetition.
struct Traced {
    line: BTreeMap<String, (usize, u64)>,
    setup: BTreeMap<String, (usize, u64)>,
    restart: BTreeMap<String, (usize, u64)>,
    counts: trace::Counts,
    stats: Vec<whynot_core::SessionStats>,
    attempted: usize,
    failed: usize,
}

fn traced(
    w: &Workload,
    reference: &reference::Reference,
    dir: &Path,
    seconds: f64,
    clock: Instant,
) -> Traced {
    type Names = BTreeMap<String, (usize, u64)>;
    let mut reps: Vec<(Names, Names, Names)> = Vec::new();
    let (mut spent, mut attempted, mut failed) = (0.0, 0usize, 0usize);
    let mut last: Option<(Tracer, trace::Counts, Vec<whynot_core::SessionStats>)> = None;
    while reps.len() < MIN_REPS || (spent < seconds && clock.elapsed().as_secs_f64() < HARD_STOP_S)
    {
        drive::clear_dir(dir);
        let before_setup = calib::calibrate();
        let mut mirror = Mirror::new(drive::config(dir));
        let mut setup_tr = Tracer::default();
        failed += usize::from(mirror.setup(&mut setup_tr, w).is_err());
        let mut tr = Tracer::default();
        let mut responses = Vec::with_capacity(w.lines.len());
        let mut pacer = calib::Pacer::start();
        let setup_scale = calib::scale(before_setup, pacer.first());
        for (i, line) in w.lines.iter().enumerate() {
            pacer.tick(i);
            tr.req = i as u32;
            responses.push(mirror.line(&mut tr, line));
        }
        spent += pacer.now() as f64 / 1e9;
        let (line_scale, after_stream) = pacer.finish(w.lines.len());
        let stats = mirror.stats();
        let mut untimed = Tracer::default();
        let mut probe = |mirror: &mut Mirror| -> Vec<String> {
            w.probe_lines
                .iter()
                .map(|l| drive::first_payload(&mirror.line(&mut untimed, l)))
                .collect()
        };
        let before = probe(&mut mirror);
        let mut restart_tr = Tracer::default();
        failed += usize::from(mirror.restart(&mut restart_tr).is_err());
        let restart_scale = calib::scale(after_stream, calib::calibrate());
        let after = probe(&mut mirror);
        failed += check(w, reference, &responses, &before, &after).failed;
        attempted += w.lines.len() + 2 * w.probe_lines.len() + 2 * w.tenants.len();
        drive::clear_dir(dir);
        reps.push((
            trace::by_name(&tr.spans, |req| line_scale[req as usize]),
            trace::by_name(&setup_tr.spans, |_| setup_scale),
            trace::by_name(&restart_tr.spans, |_| restart_scale),
        ));
        last = Some((tr, std::mem::take(&mut mirror.counts), stats));
    }
    let (spans, counts, stats) = last.expect("one traced repetition ran");
    let path = drive::out_dir().join(format!("spans-{}.tsv", w.name));
    match spans.write_tsv(&path) {
        Ok(()) => println!("# spans of the last traced stream: {}", path.display()),
        Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
    }
    let med = |pick: fn(&(Names, Names, Names)) -> &Names| -> Names {
        pick(&reps[0])
            .iter()
            .map(|(k, (n, _))| {
                let ns: Vec<f64> = reps
                    .iter()
                    .map(|r| pick(r).get(k).map_or(0.0, |e| e.1 as f64))
                    .collect();
                (k.clone(), (*n, median(&ns) as u64))
            })
            .collect()
    };
    Traced {
        line: med(|r| &r.0),
        setup: med(|r| &r.1),
        restart: med(|r| &r.2),
        counts,
        stats,
        attempted,
        failed,
    }
}

/// The per-layer metrics of a traced run, named by crate.
fn layer_metrics(m: &mut Metrics, w: &Workload, u: &Untraced, t: &Traced) {
    let total = |names: &BTreeMap<String, (usize, u64)>, key: &str| {
        names.get(key).map_or(0.0, |e| e.1 as f64)
    };
    let line = |key: &str| total(&t.line, key);
    let lines = w.lines.len() as f64;
    let questions = w.steps.iter().filter(|s| s.is_question()).count() as f64;
    let mutations = w
        .steps
        .iter()
        .filter(|s| matches!(s, Step::Mutate { .. }))
        .count() as f64;
    let tenants = w.tenants.len() as f64;
    let untraced_ns = median(&u.line_s) * 1e9;
    // Named-layer time: every span below the per-line root.
    let child_ns: f64 = t
        .line
        .iter()
        .filter(|(k, _)| k.as_str() != "server.line")
        .map(|(_, e)| e.1 as f64)
        .sum();
    let core_answer: f64 = [
        "core.exhaustive",
        "core.incremental",
        "core.contrast",
        "core.ontology_difference",
        "core.batch",
    ]
    .iter()
    .map(|k| line(k))
    .sum();
    let sum_stats =
        |f: fn(&whynot_core::SessionStats) -> usize| t.stats.iter().map(f).sum::<usize>() as f64;
    let batches = &t.counts.batches;
    let busy: Vec<f64> = batches
        .iter()
        .map(|b| b.iter().filter(|w| w.questions > 0).count() as f64)
        .collect();
    let imbalance: Vec<f64> = batches
        .iter()
        .map(|b| {
            let max = b.iter().map(|w| w.questions).max().unwrap_or(0) as f64;
            let mean = b.iter().map(|w| w.questions).sum::<usize>() as f64 / b.len().max(1) as f64;
            if mean > 0.0 {
                max / mean
            } else {
                0.0
            }
        })
        .collect();
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };

    m.put(
        "server.dispatch_self_us",
        line("server.line") / lines / 1e3,
        "us",
    );
    m.put(
        "server.serialize_us",
        line("server.serialize") / lines / 1e3,
        "us",
    );
    m.put(
        "server.response_bytes",
        u.response_bytes as f64 / lines,
        "bytes",
    );
    m.put(
        "server.wal_append_us",
        line("server.wal_append") / mutations / 1e3,
        "us",
    );
    m.put("server.rejections", u.rejections as f64, "count");
    m.put(
        "server.definition_ms",
        total(&t.setup, "server.definition") / tenants / 1e6,
        "ms",
    );
    m.put(
        "server.session_build_ms",
        total(&t.setup, "server.session_build") / tenants / 1e6,
        "ms",
    );
    m.put(
        "server.snapshot_write_ms",
        total(&t.setup, "server.snapshot_write") / tenants / 1e6,
        "ms",
    );
    m.put(
        "server.load_ms",
        total(&t.restart, "server.load") / tenants / 1e6,
        "ms",
    );
    m.put(
        "server.replay_ms",
        total(&t.restart, "server.replay") / tenants / 1e6,
        "ms",
    );
    m.put(
        "relation.request_parse_us",
        line("relation.request_parse") / questions / 1e3,
        "us",
    );
    m.put(
        "relation.delta_decode_us",
        line("relation.delta_decode") / mutations / 1e3,
        "us",
    );
    let evals = t.line.get("relation.ucq_eval").map_or(0, |e| e.0) as f64;
    m.put(
        "relation.ucq_eval_us",
        line("relation.ucq_eval") / evals.max(1.0) / 1e3,
        "us",
    );
    m.put("relation.ucq_evals", evals, "count");
    m.put(
        "relation.answer_cache_miss_ratio",
        evals / questions,
        "ratio",
    );
    m.put("core.answer_us", core_answer / questions / 1e3, "us");
    m.put(
        "core.apply_delta_us",
        line("core.apply_delta") / mutations / 1e3,
        "us",
    );
    m.put(
        "core.delta_invalidated",
        t.counts.delta_invalidated as f64,
        "count",
    );
    m.put(
        "core.delta_retained",
        t.counts.delta_retained as f64,
        "count",
    );
    m.put("core.lubs_repaired", t.counts.lubs_repaired as f64, "count");
    m.put(
        "core.lubs_recomputed",
        t.counts.lubs_recomputed as f64,
        "count",
    );
    m.put(
        "core.cache_evictions",
        sum_stats(|s| s.cache_evictions),
        "count",
    );
    m.put(
        "concepts.lub_column_builds",
        sum_stats(|s| s.lub_column_builds),
        "count",
    );
    m.put(
        "concepts.cached_lubs",
        sum_stats(|s| s.cached_lubs),
        "count",
    );
    m.put("parallel.batch_workers", mean(&busy), "count");
    m.put("parallel.worker_imbalance", mean(&imbalance), "ratio");
    m.put("trace.coverage", child_ns / untraced_ns, "ratio");
    m.put(
        "trace.overhead",
        (line("server.line") + child_ns) / untraced_ns,
        "ratio",
    );

    println!("# self time per layer.name over one traced stream (median of repetitions)");
    for (k, (n, ns)) in &t.line {
        println!(
            "#   {k:<26} calls {n:>7}  self {:>10.3} ms  mean {:>9.3} us",
            *ns as f64 / 1e6,
            *ns as f64 / 1e3 / (*n).max(1) as f64
        );
    }
}
