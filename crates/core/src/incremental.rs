//! Algorithm 2 — INCREMENTAL SEARCH (paper §5.2): computing one
//! most-general explanation w.r.t. the instance-derived ontology `OI`
//! without materializing it.
//!
//! The algorithm maintains a *support set* `Xj` per position, starting at
//! the singleton `{aj}`, and repeatedly tries to grow it by one constant
//! of `K = adom(I) ∪ ā` (Prop 5.1: `adom(I)` first, then the tuple's
//! constants outside it); the candidate concept is always `lub_I(Xj)` —
//! the least concept containing the support set — so accepting a growth
//! step can only generalize. [`incremental_search`] works in selection-free
//! `LS` (Theorem 5.3: PTIME); [`incremental_search_with_selections`] uses
//! `lubσ` (Theorem 5.4: EXPTIME, PTIME for bounded schema arity).
//!
//! [`check_mge_instance`] is the CHECK-MGE W.R.T. `OI` procedure
//! (Proposition 5.2), built from the same growth probes.
//!
//! All growth probes run through a pooled
//! [`LubEngine`](whynot_concepts::LubEngine) sharing the search's
//! `ConstPool`: the `(rel, attr)` column sets behind Lemmas 5.1/5.2 are
//! interned once per run, not re-materialized per probed constant.
//!
//! Each probe's explanation test goes through the
//! [`Blockers`](crate::whynot::Blockers) guard rather than a scan of
//! `Ans`: position `j`'s blocker set `B_j` (the `t[j]` of answers every
//! other position still admits) is built once in O(|Ans|·m), and a probe
//! is one word-parallel disjointness test against the candidate's
//! extension. Accepting a candidate dirties the other positions' sets;
//! in the paper's position-major order that is one rebuild per position,
//! so the test costs O(m·|Ans|·m) per search instead of
//! O(m·|K|·|Ans|·m). Every probe still computes its lub and extension.

use crate::derived::InstanceOntology;
use crate::whynot::{Blockers, Explanation, QuestionRef, WhyNotInstance};
use std::collections::BTreeSet;
use std::sync::Arc;
use whynot_concepts::{Extension, LsConcept, LubEngine, LubProvider};
use whynot_relation::{ConstPool, Value};

/// Which `lub` operator drives the search (i.e. which `LS` fragment the
/// resulting explanation lives in).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum LubKind {
    /// Selection-free `LS` (Lemma 5.1, PTIME).
    SelectionFree,
    /// Full `LS` with selections (Lemma 5.2).
    WithSelections,
}

/// One growth probe through a pooled lub provider (the lazily caching
/// [`LubEngine`] or its frozen [`LubView`](whynot_concepts::LubView)):
/// the provider owns the interned column sets, so repeated probes never
/// re-materialize columns.
pub(crate) fn engine_lub<P: LubProvider + ?Sized>(
    engine: &P,
    kind: LubKind,
    x: &BTreeSet<Value>,
) -> LsConcept {
    match kind {
        LubKind::SelectionFree => engine.try_lub(x),
        LubKind::WithSelections => engine.try_lub_sigma(x),
    }
    // lint: allow(no-panic-in-lib) — Algorithm 2 grows supports from
    // singletons, and the session validates its inputs in `bind`, so every
    // probe reaching this internal helper is non-empty.
    .expect("lub of an empty support set is undefined")
}

/// Algorithm 2 (INCREMENTAL SEARCH): a most-general explanation for the
/// why-not instance w.r.t. `OI` in selection-free `LS` (Theorem 5.3).
///
/// Always succeeds: the nominal-based starting point is an explanation
/// (the trivial explanation always exists in a language with nominals,
/// §5.2).
pub fn incremental_search(wn: &WhyNotInstance) -> Explanation<LsConcept> {
    incremental_search_kind(wn, LubKind::SelectionFree)
}

/// Algorithm 2 with selections (INCREMENTAL SEARCH ALGORITHM WITH
/// SELECTIONS): a most-general explanation w.r.t. `OI` in full `LS`
/// (Theorem 5.4).
pub fn incremental_search_with_selections(wn: &WhyNotInstance) -> Explanation<LsConcept> {
    incremental_search_kind(wn, LubKind::WithSelections)
}

/// The shared engine, parameterized by the lub operator.
pub fn incremental_search_kind(wn: &WhyNotInstance, kind: LubKind) -> Explanation<LsConcept> {
    let schema = &wn.schema;
    let inst = &wn.instance;
    // One interned pool for the whole search: every candidate extension
    // is a bitset over adom(I) ∪ ā, so the per-step explanation checks
    // run word-parallel — and the lub engine's column sets index the
    // same pool, interned once for every growth probe of the run.
    let pool = inst.const_pool_with(wn.tuple.iter().cloned());
    let engine = LubEngine::with_pool(schema, inst, Arc::clone(&pool));
    let adom: Vec<Value> = inst.active_domain().into_iter().collect();
    incremental_search_core(
        &adom,
        &pool,
        wn.question(),
        &mut |x| engine_lub(&engine, kind, x),
        &mut |c| c.extension_in(inst, &pool),
    )
}

/// Algorithm 2's growth loop over a borrowed question and caller-supplied
/// lub / extension providers. The one-shot path passes plain closures; a
/// [`WhyNotSession`](crate::WhyNotSession) passes memoizing ones, so
/// repeated support sets and concepts across a question batch are
/// computed once. `pool` is the pool `ext_of` interns into; the
/// [`Blockers`] sets share it, so each probe is word-parallel.
///
/// Each position sweeps `adom(I)` and then the tuple's own constants
/// outside it: Prop 5.1 restricts explanations to `K = adom(I) ∪ ā`, and
/// a missing constant outside `adom(I)` can be absorbed at another
/// position (e.g. `q(x,y) <- R(x), R(y)` over an empty `R` with tuple
/// `(g1, g2)`: `{g1}` grows to `{g1, g2}`). Without that tail the result
/// can fail [`check_mge_instance`].
pub(crate) fn incremental_search_core(
    adom: &[Value],
    pool: &Arc<ConstPool>,
    q: QuestionRef<'_>,
    lub_of: &mut dyn FnMut(&BTreeSet<Value>) -> LsConcept,
    ext_of: &mut dyn FnMut(&LsConcept) -> Extension,
) -> Explanation<LsConcept> {
    let m = q.arity();
    // Line 2: support sets start at the singletons {aj}.
    let mut support: Vec<BTreeSet<Value>> = q
        .tuple
        .iter()
        .map(|a| [a.clone()].into_iter().collect())
        .collect();
    // Line 3: first candidate explanation — the lubs of the singletons.
    let mut concepts: Vec<LsConcept> = support.iter().map(&mut *lub_of).collect();
    let exts: Vec<Extension> = concepts.iter().map(&mut *ext_of).collect();
    let mut guard = Blockers::new(q, pool, exts);
    let outside = outside_adom(adom, q.tuple);

    // Lines 4–11: per position, try to absorb each uncovered constant of
    // K into the support set.
    for j in 0..m {
        for b in adom.iter().chain(outside.iter().copied()) {
            if guard.ext(j).contains(b) {
                continue; // line 5's set difference, re-evaluated live
            }
            // Lines 6–8: the more general candidate at position j.
            let mut grown = support[j].clone();
            grown.insert(b.clone());
            let candidate = lub_of(&grown);
            // Line 9: keep it only if the tuple stays an explanation.
            if guard.try_accept(j, ext_of(&candidate)) {
                concepts[j] = candidate;
                support[j] = grown;
            }
        }
    }
    Explanation::new(concepts)
}

/// The tuple's distinct constants outside `adom`, ascending: the tail of
/// every growth sweep, completing Prop 5.1's `K = adom(I) ∪ ā` (`adom`
/// may be in any order — the enumeration sweeps permutations of it).
pub(crate) fn outside_adom<'v>(adom: &[Value], tuple: &'v [Value]) -> Vec<&'v Value> {
    let outside: BTreeSet<&Value> = tuple.iter().filter(|a| !adom.contains(a)).collect();
    outside.into_iter().collect()
}

/// CHECK-MGE W.R.T. `OI` (Definition 5.7, Proposition 5.2): whether `e`
/// is a most-general explanation w.r.t. the instance-derived ontology.
///
/// Probes every single-position generalization `lub(ext(Cj) ∪ {b})` for
/// constants `b` outside the current extension: if none yields a strictly
/// more general explanation, `e` is maximal. Runs in PTIME for
/// selection-free `LS` and (by Lemma 5.2) for bounded schema arity with
/// selections.
pub fn check_mge_instance(wn: &WhyNotInstance, e: &Explanation<LsConcept>, kind: LubKind) -> bool {
    let oi = InstanceOntology::new(wn.schema.clone(), wn.instance.clone());
    if !crate::whynot::is_explanation(&oi, wn, e) {
        return false;
    }
    let schema = &wn.schema;
    let inst = &wn.instance;
    let pool = inst.const_pool_with(wn.tuple.iter().cloned());
    let engine = LubEngine::with_pool(schema, inst, Arc::clone(&pool));
    // Candidate growth constants: adom plus the missing tuple (Prop 5.1's
    // constant restriction K).
    let k_consts = wn.restriction_constants();
    check_mge_instance_core(
        &k_consts,
        &pool,
        wn.question(),
        e,
        &mut |x| engine_lub(&engine, kind, x),
        &mut |c| c.extension_in(inst, &pool),
    )
}

/// The generalization-probe loop of CHECK-MGE W.R.T. `OI`, over a borrowed
/// question and caller-supplied lub / extension providers. Assumes the
/// caller has already verified that `e` *is* an explanation (the probes
/// only decide maximality).
pub(crate) fn check_mge_instance_core(
    k_consts: &BTreeSet<Value>,
    pool: &Arc<ConstPool>,
    q: QuestionRef<'_>,
    e: &Explanation<LsConcept>,
    lub_of: &mut dyn FnMut(&BTreeSet<Value>) -> LsConcept,
    ext_of: &mut dyn FnMut(&LsConcept) -> Extension,
) -> bool {
    let exts: Vec<Extension> = e.concepts.iter().map(&mut *ext_of).collect();
    let mut guard = Blockers::new(q, pool, exts);
    for j in 0..e.len() {
        // The universal extension (⊤) cannot be generalized.
        let Some(current) = guard.ext(j).as_finite().map(|s| s.to_btree_set()) else {
            continue;
        };
        for b in k_consts {
            if current.contains(b) {
                continue;
            }
            let mut grown = current.clone();
            grown.insert(b.clone());
            let candidate = lub_of(&grown);
            // Strictly more general by construction: ⊇ current ∪ {b}.
            if guard.admits(j, &ext_of(&candidate)) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::whynot::{exts_form_explanation, is_explanation};
    use whynot_concepts::LsAtom;
    use whynot_relation::{Atom, Cq, Instance, RelId, SchemaBuilder, Term, Ucq, Var};

    fn s(x: &str) -> Value {
        Value::str(x)
    }

    /// The Figure 1/2 data schema and instance (base relations only, so
    /// the derived concepts range over Cities and Train-Connections), and
    /// Example 3.4's why-not question.
    fn paper_wn() -> (WhyNotInstance, RelId, RelId) {
        let mut b = SchemaBuilder::new();
        let cities = b.relation("Cities", ["name", "population", "country", "continent"]);
        let tc = b.relation("Train-Connections", ["city_from", "city_to"]);
        let schema = b.finish().unwrap();
        let mut inst = Instance::new();
        for (name, pop, country, continent) in [
            ("Amsterdam", 779_808, "Netherlands", "Europe"),
            ("Berlin", 3_502_000, "Germany", "Europe"),
            ("Rome", 2_753_000, "Italy", "Europe"),
            ("New York", 8_337_000, "USA", "N.America"),
            ("San Francisco", 837_442, "USA", "N.America"),
            ("Santa Cruz", 59_946, "USA", "N.America"),
            ("Tokyo", 13_185_000, "Japan", "Asia"),
            ("Kyoto", 1_400_000, "Japan", "Asia"),
        ] {
            inst.insert(
                cities,
                vec![s(name), Value::int(pop), s(country), s(continent)],
            );
        }
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
        let wn = WhyNotInstance::new(schema, inst, q, vec![s("Amsterdam"), s("New York")]).unwrap();
        (wn, cities, tc)
    }

    #[test]
    fn incremental_output_is_an_explanation() {
        let (wn, ..) = paper_wn();
        let oi = InstanceOntology::new(wn.schema.clone(), wn.instance.clone());
        let e = incremental_search(&wn);
        assert!(is_explanation(&oi, &wn, &e));
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn incremental_output_is_most_general() {
        let (wn, ..) = paper_wn();
        let e = incremental_search(&wn);
        assert!(check_mge_instance(&wn, &e, LubKind::SelectionFree), "{e:?}");
    }

    #[test]
    fn incremental_with_selections_is_most_general() {
        let (wn, ..) = paper_wn();
        let e = incremental_search_with_selections(&wn);
        let oi = InstanceOntology::new(wn.schema.clone(), wn.instance.clone());
        assert!(is_explanation(&oi, &wn, &e));
        assert!(
            check_mge_instance(&wn, &e, LubKind::WithSelections),
            "{e:?}"
        );
    }

    #[test]
    fn incremental_generalizes_beyond_the_nominals() {
        let (wn, ..) = paper_wn();
        let e = incremental_search(&wn);
        // Position 0 grows past {Amsterdam}. In fact the paper's greedy
        // position order lets it absorb *every* constant here — position 1
        // ({New York}) alone already excludes all four answers — so the
        // first concept climbs to ⊤ (extension Universal). That lopsided
        // tuple is a legitimate most-general explanation w.r.t. OI.
        let ext0 = e.concepts[0].extension(&wn.instance);
        let grew = matches!(ext0, Extension::Universal) || ext0.len().unwrap_or(0) > 1;
        assert!(grew, "{:?}", e.concepts[0]);
        // …and the concepts are genuinely selection-free.
        assert!(e.concepts.iter().all(LsConcept::is_selection_free));
    }

    #[test]
    fn selections_refine_the_selection_free_result() {
        let (wn, ..) = paper_wn();
        let plain = incremental_search(&wn);
        let with_sel = incremental_search_with_selections(&wn);
        // Both are explanations; the σ-variant may use selections.
        let oi = InstanceOntology::new(wn.schema.clone(), wn.instance.clone());
        assert!(is_explanation(&oi, &wn, &plain));
        assert!(is_explanation(&oi, &wn, &with_sel));
    }

    #[test]
    fn check_mge_rejects_the_trivial_explanation() {
        let (wn, ..) = paper_wn();
        // The all-nominals explanation E6 = ⟨{Amsterdam}, {New York}⟩ is an
        // explanation but not most general.
        let e = Explanation::new([
            LsConcept::nominal(s("Amsterdam")),
            LsConcept::nominal(s("New York")),
        ]);
        let oi = InstanceOntology::new(wn.schema.clone(), wn.instance.clone());
        assert!(is_explanation(&oi, &wn, &e));
        assert!(!check_mge_instance(&wn, &e, LubKind::SelectionFree));
        assert!(!check_mge_instance(&wn, &e, LubKind::WithSelections));
    }

    #[test]
    fn check_mge_rejects_non_explanations() {
        let (wn, cities, _) = paper_wn();
        let e = Explanation::new([LsConcept::proj(cities, 0), LsConcept::proj(cities, 0)]);
        assert!(!check_mge_instance(&wn, &e, LubKind::SelectionFree));
    }

    #[test]
    fn supports_grow_monotonically_into_lub_extensions() {
        let (wn, ..) = paper_wn();
        let e = incremental_search(&wn);
        // Every aj is in its concept's extension (Definition 3.2 first
        // condition), and extensions avoid the answers (second condition).
        let exts: Vec<Extension> = e
            .concepts
            .iter()
            .map(|c| c.extension(&wn.instance))
            .collect();
        assert!(exts_form_explanation(&exts, &wn));
    }

    #[test]
    fn nominal_start_appears_when_nothing_generalizes() {
        // A why-not instance where any generalization hits the answers:
        // two constants, the other one is the answer.
        let mut b = SchemaBuilder::new();
        let r = b.relation("R", ["x"]);
        let schema = b.finish().unwrap();
        let mut inst = Instance::new();
        inst.insert(r, vec![s("a")]);
        inst.insert(r, vec![s("miss")]);
        let q = Ucq::single(Cq::new(
            [Term::Var(Var(0))],
            [Atom::new(r, [Term::Var(Var(0))])],
            [],
        ));
        // Why is "miss" not in q(I)? It IS in q(I)… use a fresh constant.
        let wn = WhyNotInstance::new(schema, inst, q, vec![s("ghost")]).unwrap();
        let e = incremental_search(&wn);
        // "ghost" is outside every column, so the lub is its nominal ⊓ ⊤
        // only — and no b ∈ adom can be absorbed without hitting Ans
        // (any column concept containing a or miss includes an answer).
        let ext = e.concepts[0].extension(&wn.instance);
        assert_eq!(ext, Extension::finite([s("ghost")]));
        assert!(e.concepts[0]
            .parts()
            .any(|p| matches!(p, LsAtom::Nominal(_))));
    }
}
