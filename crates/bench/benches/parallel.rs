//! Algorithm 1 batches: `WhyNotSession::answer_batch_with` at 1/2/4/8
//! executor threads against the sequential session loop (one
//! `session.exhaustive(q)` call per question) on the batched city
//! workload. Answer parity is asserted before anything is timed.
//!
//! `answer_batch_with` runs the per-question loop on the calling thread
//! whatever the executor (the session's conflict cache beats a fan-out),
//! so every row should read ≈1×; a row far from it means the batch entry
//! point grew overhead the loop does not pay. The lub-driven fan-outs
//! that do scale are measured by the `contrast` bench.
//!
//! Run with `cargo bench -p whynot-bench --bench parallel`. Results land
//! in `BENCH_parallel.json` at the workspace root, including the
//! machine's `available_parallelism`.

use whynot_bench::median_ns;
use whynot_core::{Executor, WhyNotSession};
use whynot_scenarios::generators::{batched_city_workload, BatchedWorkload};

/// The sequential reference: one session, one question at a time.
fn sequential_session(w: &BatchedWorkload) -> usize {
    let session = WhyNotSession::new(&w.ontology, &w.schema, &w.instance);
    w.questions
        .iter()
        .filter(|q| !session.exhaustive(q).expect("valid workload").is_empty())
        .count()
}

/// The Algorithm 1 batch entry point on a given executor.
fn batched_session(w: &BatchedWorkload, exec: &Executor) -> usize {
    let session = WhyNotSession::new(&w.ontology, &w.schema, &w.instance);
    session
        .answer_batch_with(exec, &w.questions)
        .into_iter()
        .filter(|r| !r.as_ref().expect("valid workload").is_empty())
        .count()
}

fn main() {
    let hardware = std::thread::available_parallelism().map_or(1, usize::from);
    let thread_counts = [1usize, 2, 4, 8];
    let runs = 5;
    let mut rows: Vec<String> = Vec::new();

    // The batched city workload.
    let (cities, regions, n_questions) = (192usize, 8usize, 200usize);
    let w = batched_city_workload(cities, regions, n_questions, 42);
    println!(
        "answer_batch: {n_questions} questions over {cities} cities \
         (hardware threads: {hardware})"
    );
    println!("{:>8} {:>14} {:>9}", "threads", "batch (ms)", "speedup");

    // Parity first: every thread count must reproduce the sequential
    // answers bit for bit (the full equality is asserted in the test
    // suite; the bench cross-checks the summary).
    let reference = sequential_session(&w);
    for &t in &thread_counts {
        assert_eq!(
            batched_session(&w, &Executor::with_threads(t)),
            reference,
            "parity broke at {t} threads"
        );
    }

    let t_seq = median_ns(
        || {
            std::hint::black_box(sequential_session(&w));
        },
        runs,
    );
    println!("{:>8} {:>14.3} {:>8.2}x", "seq", t_seq / 1e6, 1.0);
    let mut speedup_at = std::collections::BTreeMap::new();
    for &t in &thread_counts {
        let exec = Executor::with_threads(t);
        let t_batch = median_ns(
            || {
                std::hint::black_box(batched_session(&w, &exec));
            },
            runs,
        );
        let speedup = t_seq / t_batch;
        speedup_at.insert(t, speedup);
        println!("{t:>8} {:>14.3} {speedup:>8.2}x", t_batch / 1e6);
        rows.push(format!(
            "  {{\"bench\": \"answer_batch\", \"workload\": \"batched_city_workload\", \
             \"cities\": {cities}, \"questions\": {n_questions}, \"threads\": {t}, \
             \"sequential_ns\": {t_seq:.0}, \"batch_ns\": {t_batch:.0}, \
             \"speedup\": {speedup:.2}}}"
        ));
    }

    let json = format!(
        "{{\n\"bench\": \"parallel\",\n\"unit\": \"ns median of {runs}\",\n\
         \"available_parallelism\": {hardware},\n\"single_core\": {},\n\
         \"results\": [\n{}\n],\n\
         \"batch_speedup_at_4_threads\": {:.2},\n\
         \"note\": \"answer_batch runs the per-question exhaustive loop on the \
         calling thread whatever the executor (the session's conflict cache \
         beats a fan-out that rebuilds it per worker), so every speedup \
         should read about 1x\"\n}}\n",
        hardware == 1,
        rows.join(",\n"),
        speedup_at.get(&4).copied().unwrap_or(0.0),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_parallel.json");
    std::fs::write(path, &json).expect("write BENCH_parallel.json");
    println!("\nwrote {path}");
}
