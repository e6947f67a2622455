//! Standalone parallel contrast batches: many questions, one frozen
//! lub column view, no session required.
//!
//! The per-question work of a contrastive search touches only
//! `(schema, I)`-derived state — the lub columns and extension
//! evaluations over `K = adom(I) ∪ ā` — so a batch fans out perfectly:
//! build one pooled [`LubEngine`], [`freeze`](LubEngine::freeze) its
//! column view, and run every question against the shared view on the
//! `whynot-parallel` executor. Results are bit-identical to the
//! sequential per-question path ([`contrast_instance`]) at every thread
//! count, because lubs and extensions are pure in the instance (the
//! pool only affects interning).
//!
//! Batches that cannot gain skip the freeze entirely: a single question,
//! or a single-thread executor, runs the sequential path unchanged.

use std::sync::Arc;
use whynot_concepts::LubEngine;
use whynot_core::{
    contrast_instance, contrast_with, ContrastAnswer, ContrastQuestion, Executor, LubKind,
    SessionError,
};
use whynot_relation::{Instance, Schema};

/// [`contrast_batch_with`] on the ambient executor (the
/// `WHYNOT_THREADS` knob).
pub fn contrast_batch(
    schema: &Schema,
    inst: &Instance,
    questions: &[ContrastQuestion],
    kind: LubKind,
) -> Vec<Result<ContrastAnswer, SessionError>> {
    contrast_batch_with(&Executor::new(), schema, inst, questions, kind)
}

/// One-shot contrastive answers for a whole question slice, fanned out
/// over `exec` against a single frozen lub view. Per-question results
/// equal [`contrast_instance`] in order, at every thread count.
pub fn contrast_batch_with(
    exec: &Executor,
    schema: &Schema,
    inst: &Instance,
    questions: &[ContrastQuestion],
    kind: LubKind,
) -> Vec<Result<ContrastAnswer, SessionError>> {
    // Two questions already amortize the freeze.
    if exec.threads() <= 1 || questions.len() < 2 {
        return questions
            .iter()
            .map(|q| contrast_instance(schema, inst, q, kind))
            .collect();
    }
    // One pool interning every question's missing constants: a superset
    // of any per-question pool, which extensions are indifferent to.
    let pool = inst.const_pool_with(questions.iter().flat_map(|q| q.missing.iter().cloned()));
    let engine = LubEngine::with_pool(schema, inst, Arc::clone(&pool));
    let view = engine.freeze();
    exec.par_map(questions, |q| {
        contrast_with(&view, schema, inst, &pool, q, kind)
    })
}
