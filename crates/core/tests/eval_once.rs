//! The extension engine's contract: `Ontology::extension` runs at most
//! once per (concept, instance) inside the search algorithms.
//!
//! A counting wrapper ontology records every `extension` call per
//! concept; the seed implementation evaluated each concept once per
//! answer position in `exhaustive_search` (m× too often) and twice per
//! subsumed ordered pair in `consistent_with` (O(n²) evaluations). With
//! the memoizing [`EvalContext`](whynot_core::EvalContext) both are
//! capped at one evaluation per concept.

use std::cell::RefCell;
use std::collections::BTreeMap;
use whynot_concepts::Extension;
use whynot_core::{
    check_mge, consistent_with, exhaustive_search, find_explanation, ConceptName, EvalContext,
    Explanation, ExplicitOntology, FiniteOntology, Ontology, WhyNotInstance, WhyNotQuestion,
    WhyNotSession,
};
use whynot_relation::{Atom, Cq, Instance, SchemaBuilder, Term, Ucq, Value, Var};

/// Wraps an ontology and counts `extension` evaluations per concept.
struct CountingOntology {
    inner: ExplicitOntology,
    calls: RefCell<BTreeMap<ConceptName, usize>>,
}

impl CountingOntology {
    fn new(inner: ExplicitOntology) -> Self {
        CountingOntology {
            inner,
            calls: RefCell::new(BTreeMap::new()),
        }
    }

    fn max_calls(&self) -> usize {
        self.calls.borrow().values().copied().max().unwrap_or(0)
    }

    fn total_calls(&self) -> usize {
        self.calls.borrow().values().sum()
    }

    fn reset(&self) {
        self.calls.borrow_mut().clear();
    }
}

impl Ontology for CountingOntology {
    type Concept = ConceptName;

    fn subsumed(&self, sub: &ConceptName, sup: &ConceptName) -> bool {
        self.inner.subsumed(sub, sup)
    }

    fn extension(&self, c: &ConceptName, inst: &Instance) -> Extension {
        *self.calls.borrow_mut().entry(c.clone()).or_insert(0) += 1;
        self.inner.extension(c, inst)
    }

    fn concept_name(&self, c: &ConceptName) -> String {
        self.inner.concept_name(c)
    }
}

impl FiniteOntology for CountingOntology {
    fn concepts(&self) -> Vec<ConceptName> {
        self.inner.concepts()
    }
}

fn s(x: &str) -> Value {
    Value::str(x)
}

/// The Figure 3 ontology and Example 3.4 question (arity 2, so a
/// per-position candidate build would evaluate every concept twice).
fn fixture() -> (CountingOntology, WhyNotInstance) {
    let o = ExplicitOntology::builder()
        .concept(
            "City",
            [
                "Amsterdam",
                "Berlin",
                "Rome",
                "New York",
                "San Francisco",
                "Santa Cruz",
                "Tokyo",
                "Kyoto",
            ],
        )
        .concept("European-City", ["Amsterdam", "Berlin", "Rome"])
        .concept("Dutch-City", ["Amsterdam"])
        .concept("US-City", ["New York", "San Francisco", "Santa Cruz"])
        .concept("East-Coast-City", ["New York"])
        .concept("West-Coast-City", ["Santa Cruz", "San Francisco"])
        .edge("European-City", "City")
        .edge("Dutch-City", "European-City")
        .edge("US-City", "City")
        .edge("East-Coast-City", "US-City")
        .edge("West-Coast-City", "US-City")
        .build();

    let mut b = SchemaBuilder::new();
    let tc = b.relation("Train-Connections", ["city_from", "city_to"]);
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
    let wn = WhyNotInstance::new(schema, inst, q, vec![s("Amsterdam"), s("New York")]).unwrap();
    (CountingOntology::new(o), wn)
}

#[test]
fn exhaustive_search_evaluates_each_concept_at_most_once() {
    let (o, wn) = fixture();
    let mges = exhaustive_search(&o, &wn);
    assert!(!mges.is_empty(), "sanity: the paper's example has MGEs");
    assert_eq!(
        o.max_calls(),
        1,
        "a concept was re-evaluated: {:?}",
        o.calls.borrow()
    );
    // And no more total evaluations than concepts exist.
    assert!(o.total_calls() <= o.concepts().len());
}

#[test]
fn find_explanation_evaluates_each_concept_at_most_once() {
    let (o, wn) = fixture();
    assert!(find_explanation(&o, &wn).is_some());
    assert_eq!(o.max_calls(), 1, "{:?}", o.calls.borrow());
}

#[test]
fn consistent_with_evaluates_each_concept_at_most_once() {
    let (o, wn) = fixture();
    assert!(consistent_with(&o, &wn.instance));
    assert_eq!(o.max_calls(), 1, "{:?}", o.calls.borrow());
    assert_eq!(o.total_calls(), o.concepts().len());

    // Also on an inconsistent ontology (early exit still never
    // re-evaluates).
    let bad = CountingOntology::new(
        ExplicitOntology::builder()
            .concept("Sub", ["a", "b"])
            .concept("Sup", ["a"])
            .edge("Sub", "Sup")
            .build(),
    );
    assert!(!consistent_with(&bad, &Instance::new()));
    assert!(bad.max_calls() <= 1);
}

#[test]
fn check_mge_evaluates_each_concept_at_most_once() {
    let (o, wn) = fixture();
    let e = Explanation::new([
        ConceptName::new("European-City"),
        ConceptName::new("US-City"),
    ]);
    assert!(check_mge(&o, &wn, &e));
    assert_eq!(o.max_calls(), 1, "{:?}", o.calls.borrow());
}

#[test]
fn session_batch_evaluates_each_concept_at_most_once_total() {
    // The batch-level eval-once contract: answering N questions through
    // one `WhyNotSession` runs the ontology's extension function at most
    // once per concept *in total* — not once per question. (The fixture's
    // single-question algorithms already guarantee once per question;
    // this is the strictly stronger session guarantee.)
    let (o, wn) = fixture();
    let schema = wn.schema.clone();
    let inst = wn.instance.clone();
    let session = WhyNotSession::new(&o, &schema, &inst);
    let tuples = [
        vec![s("Amsterdam"), s("New York")],
        vec![s("Rome"), s("Tokyo")],
        vec![s("Kyoto"), s("Amsterdam")],
        vec![s("Santa Cruz"), s("Berlin")],
        vec![s("Tokyo"), s("Santa Cruz")],
    ];
    let mut answered = 0usize;
    for t in &tuples {
        let q = WhyNotQuestion::new(wn.query.clone(), t.clone());
        let _ = session.exhaustive(&q).unwrap();
        let _ = session.find_explanation(&q).unwrap();
        let _ = session.card_maximal_greedy(&q).unwrap();
        answered += 3;
    }
    assert_eq!(session.questions_answered(), answered);
    assert_eq!(
        o.max_calls(),
        1,
        "a concept was re-evaluated across the batch: {:?}",
        o.calls.borrow()
    );
    assert_eq!(o.total_calls(), o.concepts().len());
    assert_eq!(session.evaluations(), o.concepts().len());
    // The answer set was computed once for the whole batch too.
    assert_eq!(session.stats().cached_queries, 1);
}

/// A `Sync` counting ontology (atomic-free: one `Mutex`ed map) for the
/// parallel batch paths, which require `O: Sync`.
struct SyncCountingOntology {
    inner: ExplicitOntology,
    calls: std::sync::Mutex<BTreeMap<ConceptName, usize>>,
}

impl SyncCountingOntology {
    fn new(inner: ExplicitOntology) -> Self {
        SyncCountingOntology {
            inner,
            calls: std::sync::Mutex::new(BTreeMap::new()),
        }
    }

    fn max_calls(&self) -> usize {
        self.calls
            .lock()
            .unwrap()
            .values()
            .copied()
            .max()
            .unwrap_or(0)
    }

    fn total_calls(&self) -> usize {
        self.calls.lock().unwrap().values().sum()
    }
}

impl Ontology for SyncCountingOntology {
    type Concept = ConceptName;

    fn subsumed(&self, sub: &ConceptName, sup: &ConceptName) -> bool {
        self.inner.subsumed(sub, sup)
    }

    fn extension(&self, c: &ConceptName, inst: &Instance) -> Extension {
        *self.calls.lock().unwrap().entry(c.clone()).or_insert(0) += 1;
        self.inner.extension(c, inst)
    }

    fn concept_name(&self, c: &ConceptName) -> String {
        self.inner.concept_name(c)
    }
}

impl FiniteOntology for SyncCountingOntology {
    fn concepts(&self) -> Vec<ConceptName> {
        self.inner.concepts()
    }
}

#[test]
fn parallel_batch_evaluates_each_concept_at_most_once_total() {
    // The eval-once contract holds for batches at every thread count:
    // `answer_batch` runs the session's cached Algorithm 1 path on the
    // calling thread, so the one-pass extension table is the only place
    // `ext` is ever evaluated.
    let (counting, wn) = fixture();
    let o = SyncCountingOntology::new(counting.inner);
    let schema = wn.schema.clone();
    let inst = wn.instance.clone();
    let questions: Vec<WhyNotQuestion> = [
        vec![s("Amsterdam"), s("New York")],
        vec![s("Rome"), s("Tokyo")],
        vec![s("Kyoto"), s("Amsterdam")],
        vec![s("Santa Cruz"), s("Berlin")],
        vec![s("Tokyo"), s("Santa Cruz")],
    ]
    .into_iter()
    .map(|t| WhyNotQuestion::new(wn.query.clone(), t))
    .collect();
    for threads in [1, 2, 4] {
        let session = WhyNotSession::new(&o, &schema, &inst);
        let exec = whynot_core::Executor::with_threads(threads);
        let results = session.answer_batch_with(&exec, &questions);
        assert!(results.iter().all(|r| r.is_ok()));
        // Another batch on the same session re-evaluates nothing.
        let again = session.answer_batch_with(&exec, &questions);
        assert_eq!(results, again);
        assert_eq!(session.evaluations(), o.concepts().len());
        assert_eq!(session.stats().batches, 2);
    }
    // Three sessions ran: 3 × one-eval-per-concept, never more.
    assert_eq!(o.max_calls(), 3, "a worker evaluated a concept");
    assert_eq!(o.total_calls(), 3 * o.concepts().len());
}

#[test]
fn eval_context_reports_its_evaluation_count() {
    let (o, wn) = fixture();
    o.reset();
    let ctx = EvalContext::new(&o, &wn.instance);
    let concepts = o.concepts();
    for c in &concepts {
        ctx.extension(c);
        ctx.extension(c); // cache hit
    }
    assert_eq!(ctx.evaluations(), concepts.len());
    assert_eq!(o.total_calls(), concepts.len());
    assert_eq!(o.max_calls(), 1);
}
