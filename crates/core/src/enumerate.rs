//! Extensions beyond the paper's core algorithms.
//!
//! * [`incremental_search_balanced`] — Algorithm 2 with round-robin
//!   position growth. The paper's Algorithm 2 saturates position 1 before
//!   touching position 2, which can yield lopsided most-general
//!   explanations (one component climbing to `⊤` while the other stays a
//!   nominal). Growing positions alternately produces the balanced
//!   explanations the paper's examples display. Both variants return
//!   verified MGEs — the MGE set simply has many members.
//!
//! * [`enumerate_mges_instance`] — a bounded enumeration of *distinct*
//!   most-general explanations w.r.t. `OI`. The paper's conclusion poses
//!   polynomial-delay MGE enumeration as an open problem; this
//!   implementation is an honest heuristic: it reruns the incremental
//!   search under permuted growth orders (seeded, deterministic) and
//!   deduplicates by extension tuple, so every returned explanation is a
//!   checked MGE, but completeness of the enumeration is not guaranteed.
//!
//! * [`enumerate_mges_instance_parallel`] — the same enumeration with
//!   the permuted reruns fanned out across an
//!   [`Executor`](whynot_parallel::Executor)'s workers. All reruns share
//!   one frozen [`LubView`](whynot_concepts::LubView) (columns interned
//!   once, read-only across threads), results land in rerun order, and
//!   deduplication happens in that same order — so the output is
//!   bit-for-bit the sequential enumeration's (proven by tests).

use crate::incremental::{engine_lub, outside_adom, LubKind};
use crate::whynot::{Blockers, Explanation, WhyNotInstance};
use std::collections::BTreeSet;
use std::sync::Arc;
use whynot_concepts::{Extension, LsConcept, LubEngine, LubProvider};
use whynot_parallel::Executor;
use whynot_relation::Value;

/// Algorithm 2 with round-robin growth: positions absorb constants in an
/// interleaved order, so no position can monopolize the generalization
/// budget. Output is a most-general explanation w.r.t. `OI` (same
/// guarantee as the paper's order — maximality is order-independent, the
/// *choice* of MGE is not).
pub fn incremental_search_balanced(wn: &WhyNotInstance, kind: LubKind) -> Explanation<LsConcept> {
    let adom: Vec<Value> = wn.instance.active_domain().into_iter().collect();
    let positions: Vec<usize> = (0..wn.arity()).collect();
    let pool = wn.instance.const_pool_with(wn.tuple.iter().cloned());
    let engine = LubEngine::with_pool(&wn.schema, &wn.instance, Arc::clone(&pool));
    grow_with_order(wn, kind, &engine, &adom, &positions, true)
}

/// The shared growth engine: processes `(position, constant)` pairs either
/// round-robin (`balanced`) or position-major like the paper, visiting
/// positions in the supplied order. The constants are `adom` in the
/// given order, then the tuple's constants outside it (as in
/// `incremental_search_core`). The caller supplies the pooled lub engine
/// so reruns under permuted orders (the MGE enumeration) share one set of
/// interned columns.
fn grow_with_order(
    wn: &WhyNotInstance,
    kind: LubKind,
    engine: &impl LubProvider,
    adom: &[Value],
    positions: &[usize],
    balanced: bool,
) -> Explanation<LsConcept> {
    let m = wn.arity();
    debug_assert_eq!(positions.len(), m);
    // One interned pool per growth run (see `incremental_search_kind`),
    // shared with the lub engine's column sets.
    let pool = engine.pool();
    let mut support: Vec<BTreeSet<Value>> = wn
        .tuple
        .iter()
        .map(|a| [a.clone()].into_iter().collect())
        .collect();
    let mut concepts: Vec<LsConcept> = support
        .iter()
        .map(|x| engine_lub(engine, kind, x))
        .collect();
    let exts: Vec<Extension> = concepts
        .iter()
        .map(|c| c.extension_in(&wn.instance, pool))
        .collect();
    let mut guard = Blockers::new(wn.question(), pool, exts);
    let outside = outside_adom(adom, &wn.tuple);
    let sweep = || adom.iter().chain(outside.iter().copied());

    let mut try_grow = |j: usize, b: &Value| {
        if guard.ext(j).contains(b) {
            return;
        }
        let mut grown = support[j].clone();
        grown.insert(b.clone());
        let candidate = engine_lub(engine, kind, &grown);
        if guard.try_accept(j, candidate.extension_in(&wn.instance, pool)) {
            concepts[j] = candidate;
            support[j] = grown;
        }
    };

    if balanced {
        for b in sweep() {
            for &j in positions {
                try_grow(j, b);
            }
        }
    } else {
        for &j in positions {
            for b in sweep() {
                try_grow(j, b);
            }
        }
    }
    Explanation::new(concepts)
}

/// Enumerates distinct most-general explanations w.r.t. `OI` by rerunning
/// the growth engine under `tries` different deterministic constant
/// orders (both balanced and position-major), deduplicating by the tuple
/// of extensions. Every element of the result is a genuine MGE; the list
/// is not guaranteed exhaustive (the paper leaves complete enumeration
/// open).
pub fn enumerate_mges_instance(
    wn: &WhyNotInstance,
    kind: LubKind,
    tries: usize,
) -> Vec<Explanation<LsConcept>> {
    let pool = wn.instance.const_pool_with(wn.tuple.iter().cloned());
    // One lub engine for the whole enumeration: every rerun under a
    // permuted growth order probes the same interned column sets.
    let engine = LubEngine::with_pool(&wn.schema, &wn.instance, Arc::clone(&pool));
    let schedule = growth_schedule(wn, tries);
    let runs: Vec<Explanation<LsConcept>> = schedule
        .iter()
        .map(|g| grow_with_order(wn, kind, &engine, &g.order, &g.positions, g.balanced))
        .collect();
    dedup_runs(wn, &pool, runs)
}

/// [`enumerate_mges_instance`] with the permuted reruns fanned out across
/// the executor's workers. Every rerun probes one frozen
/// [`LubView`](whynot_concepts::LubView) — the `(rel, attr)` column sets
/// are interned exactly once for the whole enumeration, then shared
/// read-only — and the output is **identical** to the sequential
/// enumeration at every thread count: reruns land by schedule index and
/// deduplication runs in schedule order.
pub fn enumerate_mges_instance_parallel(
    wn: &WhyNotInstance,
    kind: LubKind,
    tries: usize,
    exec: &Executor,
) -> Vec<Explanation<LsConcept>> {
    let pool = wn.instance.const_pool_with(wn.tuple.iter().cloned());
    let engine = LubEngine::with_pool(&wn.schema, &wn.instance, Arc::clone(&pool));
    // Freeze-then-fan-out: columns are interned here, once, on this
    // thread; workers only read.
    let view = engine.freeze();
    let schedule = growth_schedule(wn, tries);
    let runs = exec.par_map(&schedule, |g| {
        grow_with_order(wn, kind, &view, &g.order, &g.positions, g.balanced)
    });
    dedup_runs(wn, &pool, runs)
}

/// One rerun's growth order: the domain permutation (shared — each
/// permutation is materialized once per try, not once per entry), the
/// position visit order, and the interleaving flag.
struct GrowthOrder {
    order: Arc<Vec<Value>>,
    positions: Vec<usize>,
    balanced: bool,
}

/// The deterministic rerun schedule shared by the sequential and parallel
/// enumerations (same combinations, same order).
fn growth_schedule(wn: &WhyNotInstance, tries: usize) -> Vec<GrowthOrder> {
    let base: Vec<Value> = wn.instance.active_domain().into_iter().collect();
    let mut schedule = Vec::new();
    for t in 0..tries.max(1) {
        // Deterministic rotation + stride permutation of the domain.
        let mut order = base.clone();
        if !order.is_empty() {
            let n = order.len();
            let stride = 1 + t % n.max(1);
            let mut permuted = Vec::with_capacity(n);
            let mut idx = t % n;
            for _ in 0..n {
                permuted.push(order[idx].clone());
                idx = (idx + stride) % n;
            }
            // The stride walk may revisit; fall back to rotation when the
            // stride is not coprime with n.
            let unique: BTreeSet<&Value> = permuted.iter().collect();
            if unique.len() == n {
                order = permuted;
            } else {
                order.rotate_left(t % n);
            }
        }
        // Rotate the position-visit order too: which position gets to
        // absorb constants first determines which maximal tuple the greedy
        // converges to.
        let order = Arc::new(order);
        let m = wn.arity().max(1);
        for rot in 0..m {
            let positions: Vec<usize> = (0..wn.arity()).map(|j| (j + rot) % m).collect();
            for balanced in [true, false] {
                schedule.push(GrowthOrder {
                    order: Arc::clone(&order),
                    positions: positions.clone(),
                    balanced,
                });
            }
        }
    }
    schedule
}

/// Deduplicates reruns by extension tuple **in rerun order** (first
/// occurrence wins, exactly as the sequential loop always did), then
/// sorts the survivors.
fn dedup_runs(
    wn: &WhyNotInstance,
    pool: &Arc<whynot_relation::ConstPool>,
    runs: Vec<Explanation<LsConcept>>,
) -> Vec<Explanation<LsConcept>> {
    let mut seen: BTreeSet<Vec<Extension>> = BTreeSet::new();
    let mut out: Vec<Explanation<LsConcept>> = Vec::new();
    for e in runs {
        let key: Vec<Extension> = e
            .concepts
            .iter()
            .map(|c| c.extension_in(&wn.instance, pool))
            .collect();
        if seen.insert(key) {
            out.push(e);
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::check_mge_instance;
    use whynot_relation::{Atom, Cq, Instance, SchemaBuilder, Term, Ucq, Var};

    fn s(x: &str) -> Value {
        Value::str(x)
    }

    fn paper_like_wn() -> WhyNotInstance {
        let mut b = SchemaBuilder::new();
        let tc = b.relation("TC", ["from", "to"]);
        let schema = b.finish().unwrap();
        let mut inst = Instance::new();
        for (a, c) in [
            ("Amsterdam", "Berlin"),
            ("Berlin", "Rome"),
            ("Berlin", "Amsterdam"),
            ("New York", "San Francisco"),
            ("San Francisco", "Santa Cruz"),
            ("Tokyo", "Kyoto"),
        ] {
            inst.insert(tc, vec![s(a), s(c)]);
        }
        let (x, y, z) = (Var(0), Var(1), Var(2));
        let q = Ucq::single(Cq::new(
            [Term::Var(x), Term::Var(y)],
            [
                Atom::new(tc, [Term::Var(x), Term::Var(z)]),
                Atom::new(tc, [Term::Var(z), Term::Var(y)]),
            ],
            [],
        ));
        WhyNotInstance::new(schema, inst, q, vec![s("Amsterdam"), s("New York")]).unwrap()
    }

    #[test]
    fn balanced_output_is_a_verified_mge() {
        let wn = paper_like_wn();
        for kind in [LubKind::SelectionFree, LubKind::WithSelections] {
            let e = incremental_search_balanced(&wn, kind);
            assert!(check_mge_instance(&wn, &e, kind), "{kind:?}: {e:?}");
        }
    }

    #[test]
    fn balanced_differs_from_position_major_here() {
        // Position-major lets the first component reach ⊤; the balanced
        // order keeps both components finite on this data.
        let wn = paper_like_wn();
        let balanced = incremental_search_balanced(&wn, LubKind::SelectionFree);
        let ext0 = balanced.concepts[0].extension(&wn.instance);
        let ext1 = balanced.concepts[1].extension(&wn.instance);
        assert!(ext0.len().is_some() || ext1.len().is_some());
    }

    #[test]
    fn enumeration_yields_multiple_distinct_mges() {
        let wn = paper_like_wn();
        let all = enumerate_mges_instance(&wn, LubKind::SelectionFree, 6);
        assert!(!all.is_empty());
        for e in &all {
            assert!(check_mge_instance(&wn, e, LubKind::SelectionFree));
        }
        // Distinctness by extension tuple.
        let keys: BTreeSet<Vec<Extension>> = all
            .iter()
            .map(|e| {
                e.concepts
                    .iter()
                    .map(|c| c.extension(&wn.instance))
                    .collect()
            })
            .collect();
        assert_eq!(keys.len(), all.len());
    }

    #[test]
    fn enumeration_handles_single_try() {
        let wn = paper_like_wn();
        let one = enumerate_mges_instance(&wn, LubKind::SelectionFree, 1);
        assert!(!one.is_empty());
    }

    #[test]
    fn parallel_enumeration_is_bit_for_bit_sequential() {
        let wn = paper_like_wn();
        for kind in [LubKind::SelectionFree, LubKind::WithSelections] {
            let sequential = enumerate_mges_instance(&wn, kind, 6);
            for threads in [1, 2, 4, 8] {
                let exec = Executor::with_threads(threads);
                assert_eq!(
                    enumerate_mges_instance_parallel(&wn, kind, 6, &exec),
                    sequential,
                    "{kind:?} diverged at {threads} threads"
                );
            }
        }
    }
}
