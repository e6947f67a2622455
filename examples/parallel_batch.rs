//! Batched why-not service: one `WhyNotSession` answering whole question
//! slices. Algorithm 1 batches run sequentially on the calling thread
//! (the session's conflict cache beats a fan-out); the lub-driven batches
//! (Algorithm 2, contrast) fan out across scoped worker threads — both
//! with bit-for-bit the same answers the sequential loop produces.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example parallel_batch
//! # or pin the worker count of the lub-driven batches:
//! WHYNOT_THREADS=4 cargo run --release --example parallel_batch
//! ```

use std::time::Instant;
use whynot::core::{
    display_explanation, Executor, LubKind, SessionError, WhyNotSession, THREADS_ENV,
};
use whynot::relation::Value;
use whynot::scenarios::generators::batched_city_workload;

fn main() -> Result<(), SessionError> {
    // One instance (a 96-city train network over 8 regions), 120
    // questions at arities 1–3 — the interactive-service shape, where
    // wall-clock latency per batch is the product metric.
    let w = batched_city_workload(96, 8, 120, 7);
    let exec = Executor::new(); // honors WHYNOT_THREADS
    println!(
        "96 cities, {} questions, {} worker thread(s) (set {} to change)\n",
        w.questions.len(),
        exec.threads(),
        THREADS_ENV,
    );

    // Algorithm 1: the batch is the per-question `exhaustive` loop, so
    // it matches a separate sequential session answer for answer.
    let sequential = WhyNotSession::new(&w.ontology, &w.schema, &w.instance);
    let mut expected = Vec::new();
    for q in &w.questions {
        expected.push(sequential.exhaustive(q)?);
    }
    let session = WhyNotSession::new(&w.ontology, &w.schema, &w.instance);
    let t0 = Instant::now();
    let results = session.answer_batch_with(&exec, &w.questions);
    let t_batch = t0.elapsed();
    for (got, want) in results.iter().zip(&expected) {
        assert_eq!(got.as_ref().expect("workload questions are valid"), want);
    }
    let stats = session.stats();
    println!(
        "answer_batch (Algorithm 1, calling thread): {t_batch:>8.2?}  (identical answers)\n\
         evaluations: {} (= concepts, not questions × concepts); workers: {}\n",
        stats.evaluations,
        session.last_batch_workers().len()
    );

    // Algorithm 2: the batch fans out over one frozen lub-column view,
    // with worker-local memos merged back into the session caches.
    let t1 = Instant::now();
    let mut expected_incr = Vec::new();
    for q in &w.questions {
        expected_incr.push(sequential.incremental(q, LubKind::SelectionFree)?);
    }
    let t_seq = t1.elapsed();
    let t2 = Instant::now();
    let incr = session.incremental_batch_with(&exec, &w.questions, LubKind::SelectionFree);
    let t_fan = t2.elapsed();
    for (got, want) in incr.iter().zip(&expected_incr) {
        assert_eq!(got.as_ref().expect("workload questions are valid"), want);
    }
    println!(
        "sequential incremental loop: {t_seq:>8.2?}\n\
         incremental_batch (fan-out): {t_fan:>8.2?}  (identical answers)\nper-worker share:"
    );
    for ws in session.last_batch_workers() {
        println!(
            "  worker {}: {} questions, {} lubs computed",
            ws.worker, ws.questions, ws.lubs_computed
        );
    }

    let first = incr[0].as_ref().expect("valid question");
    let tuple: Vec<String> = w.questions[0].tuple.iter().map(Value::to_string).collect();
    println!(
        "\nwhy not ⟨{}⟩ (w.r.t. OI)?\n  {}",
        tuple.join(", "),
        display_explanation(
            &whynot::core::InstanceOntology::new(w.schema.clone(), w.instance.clone()),
            first
        )
    );
    println!(
        "lub column builds: {} (≤ schema attributes, at every thread count)",
        session.stats().lub_column_builds
    );
    Ok(())
}
