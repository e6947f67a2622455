//! Why-not instances and explanations (paper Definitions 3.2, 3.3, 5.1).

use crate::ontology::Ontology;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;
use whynot_concepts::{Extension, ValueSet};
use whynot_relation::{ConstPool, Instance, RelError, Schema, Tuple, Ucq, Value};

/// A why-not instance `(S, I, q, Ans, a)` (Definition 5.1): the answer set
/// `Ans = q(I)` is part of the input — the paper's problems never charge
/// for query evaluation.
#[derive(Clone, Debug)]
pub struct WhyNotInstance {
    /// The schema `S` (with its integrity constraints).
    pub schema: Schema,
    /// The instance `I` (views already materialized where applicable).
    pub instance: Instance,
    /// The query `q` (a union of conjunctive queries; a plain CQ is a
    /// single-disjunct union).
    pub query: Ucq,
    /// The precomputed answers `Ans = q(I)`.
    pub ans: BTreeSet<Tuple>,
    /// The missing tuple `a ∉ Ans`.
    pub tuple: Tuple,
}

impl WhyNotInstance {
    /// Builds a why-not instance, evaluating the query to obtain `Ans` and
    /// validating that the missing tuple really is missing.
    pub fn new(
        schema: Schema,
        instance: Instance,
        query: Ucq,
        tuple: Tuple,
    ) -> Result<Self, RelError> {
        query.validate(&schema)?;
        if tuple.len() != query.arity() {
            return Err(RelError::Invalid(format!(
                "why-not tuple has arity {}, query has arity {}",
                tuple.len(),
                query.arity()
            )));
        }
        let ans = query.eval(&instance);
        if ans.contains(&tuple) {
            return Err(RelError::Invalid(
                "the tuple is among the answers — nothing to explain".into(),
            ));
        }
        Ok(WhyNotInstance {
            schema,
            instance,
            query,
            ans,
            tuple,
        })
    }

    /// Builds a why-not instance from a precomputed answer set (the literal
    /// Definition 5.1 interface).
    pub fn with_answers(
        schema: Schema,
        instance: Instance,
        query: Ucq,
        ans: BTreeSet<Tuple>,
        tuple: Tuple,
    ) -> Result<Self, RelError> {
        if ans.contains(&tuple) {
            return Err(RelError::Invalid(
                "the tuple is among the answers — nothing to explain".into(),
            ));
        }
        Ok(WhyNotInstance {
            schema,
            instance,
            query,
            ans,
            tuple,
        })
    }

    /// The arity `m` of the question.
    pub fn arity(&self) -> usize {
        self.tuple.len()
    }

    /// The set of constants `K = adom(I) ∪ {a1, …, am}` that Prop 5.1
    /// allows explanations to be restricted to.
    pub fn restriction_constants(&self) -> BTreeSet<Value> {
        let mut k = self.instance.active_domain();
        k.extend(self.tuple.iter().cloned());
        k
    }

    /// The question-specific part of this instance as a borrowed
    /// [`QuestionRef`] (what the search cores actually consume — the
    /// schema and instance are carried separately by the evaluation
    /// context or session).
    pub fn question(&self) -> QuestionRef<'_> {
        QuestionRef {
            ans: &self.ans,
            tuple: &self.tuple,
        }
    }
}

/// The question-dependent slice of a why-not instance: the precomputed
/// answers `Ans` and the missing tuple `a`.
///
/// The search algorithms only ever touch the schema and instance through
/// an evaluation context (extensions, lubs, candidate lists) — everything
/// else they need is here. Splitting this view out is what lets a
/// [`WhyNotSession`](crate::WhyNotSession) pin `(ontology, instance)`
/// once and stream many questions through the same caches.
#[derive(Clone, Copy, Debug)]
pub struct QuestionRef<'q> {
    /// The precomputed answers `Ans = q(I)`.
    pub ans: &'q BTreeSet<Tuple>,
    /// The missing tuple `a ∉ Ans`.
    pub tuple: &'q Tuple,
}

impl QuestionRef<'_> {
    /// The arity `m` of the question.
    pub fn arity(&self) -> usize {
        self.tuple.len()
    }
}

/// A tuple of concepts `(C1, …, Cm)` proposed as an explanation
/// (Definition 3.2).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Explanation<C> {
    /// One concept per answer position.
    pub concepts: Vec<C>,
}

impl<C> Explanation<C> {
    /// Builds an explanation from concepts.
    pub fn new(concepts: impl IntoIterator<Item = C>) -> Self {
        Explanation {
            concepts: concepts.into_iter().collect(),
        }
    }

    /// Number of positions.
    pub fn len(&self) -> usize {
        self.concepts.len()
    }

    /// Whether the explanation has no positions.
    pub fn is_empty(&self) -> bool {
        self.concepts.is_empty()
    }
}

impl<C: fmt::Display> fmt::Display for Explanation<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, c) in self.concepts.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "⟩")
    }
}

/// Renders an explanation through the ontology's concept printer.
pub fn display_explanation<O: Ontology>(ontology: &O, e: &Explanation<O::Concept>) -> String {
    let parts: Vec<String> = e
        .concepts
        .iter()
        .map(|c| ontology.concept_name(c))
        .collect();
    format!("⟨{}⟩", parts.join(", "))
}

/// The per-position extensions of an explanation over the why-not
/// instance's database.
pub fn explanation_extensions<O: Ontology>(
    ontology: &O,
    wn: &WhyNotInstance,
    e: &Explanation<O::Concept>,
) -> Vec<Extension> {
    e.concepts
        .iter()
        .map(|c| ontology.extension(c, &wn.instance))
        .collect()
}

/// Definition 3.2: `(C1,…,Cm)` explains `a ∉ Ans` iff every `ai` lies in
/// `ext(Ci, I)` and the extension product avoids `Ans` entirely.
pub fn is_explanation<O: Ontology>(
    ontology: &O,
    wn: &WhyNotInstance,
    e: &Explanation<O::Concept>,
) -> bool {
    if e.len() != wn.arity() {
        return false;
    }
    let exts = explanation_extensions(ontology, wn, e);
    exts_form_explanation(&exts, wn)
}

/// The extension-level core of Definition 3.2 (reused by the search
/// algorithms, which cache extensions).
pub fn exts_form_explanation(exts: &[Extension], wn: &WhyNotInstance) -> bool {
    exts_form_explanation_q(exts, wn.question())
}

/// [`exts_form_explanation`] against a borrowed [`QuestionRef`] (the
/// session-layer entry point).
pub fn exts_form_explanation_q(exts: &[Extension], q: QuestionRef<'_>) -> bool {
    for (ext, a_i) in exts.iter().zip(q.tuple) {
        if !ext.contains(a_i) {
            return false;
        }
    }
    // Product disjointness: every answer tuple escapes on some position.
    q.ans
        .iter()
        .all(|t| t.iter().zip(exts).any(|(v, ext)| !ext.contains(v)))
}

/// The admission guard of every single-position growth loop: decides
/// whether replacing one position's extension keeps a tuple of
/// extensions an explanation, without rescanning `Ans` per probe.
///
/// For position `j` the *blocker set* is
/// `B_j = { t[j] : t ∈ Ans, t[i] ∈ ext_i for all i ≠ j }` — the answers
/// that only position `j` still excludes. While the current tuple is an
/// explanation, a candidate extension keeps it one iff it contains `a_j`
/// and is disjoint from `B_j` (so `⊤` passes iff `B_j = ∅`): the verdict
/// equals [`exts_form_explanation_q`] with `exts[j]` replaced.
///
/// Cost: `B_j` is built lazily in O(|Ans|·m) membership probes and then
/// serves every probe at `j` as one word-parallel AND over `pool` (the
/// search or session pool the candidates are interned into; answer
/// values outside it — e.g. from a head constant — land in the set's
/// overflow, so the test stays exact, and a candidate over another pool
/// takes the per-value path). Accepting a candidate at `j` changes
/// `ext_j`, which every other `B_i` reads, so it marks those dirty; they
/// are rebuilt on their next probe.
pub(crate) struct Blockers<'q> {
    q: QuestionRef<'q>,
    pool: Arc<ConstPool>,
    exts: Vec<Extension>,
    /// `B_j` per position; `None` while dirty.
    sets: Vec<Option<ValueSet>>,
}

impl<'q> Blockers<'q> {
    /// A guard over `exts`, which must form an explanation for `q`, with
    /// blocker sets interned into `pool`.
    pub(crate) fn new(q: QuestionRef<'q>, pool: &Arc<ConstPool>, exts: Vec<Extension>) -> Self {
        debug_assert!(
            exts_form_explanation_q(&exts, q),
            "a growth loop starts from an explanation"
        );
        let sets = exts.iter().map(|_| None).collect();
        Blockers {
            q,
            pool: Arc::clone(pool),
            exts,
            sets,
        }
    }

    /// The current extension at position `j`.
    pub(crate) fn ext(&self, j: usize) -> &Extension {
        &self.exts[j]
    }

    /// Whether replacing position `j`'s extension by `candidate` yields
    /// an explanation.
    pub(crate) fn admits(&mut self, j: usize, candidate: &Extension) -> bool {
        if !candidate.contains(&self.q.tuple[j]) {
            return false;
        }
        let (q, pool, exts) = (self.q, &self.pool, &self.exts);
        let blockers = self.sets[j].get_or_insert_with(|| {
            let mut set = ValueSet::empty_in(Arc::clone(pool));
            for t in q.ans {
                let others_admit = t
                    .iter()
                    .zip(exts)
                    .enumerate()
                    .all(|(i, (v, ext))| i == j || ext.contains(v));
                if others_admit {
                    set.insert_ref(&t[j]);
                }
            }
            set
        });
        match candidate {
            Extension::Universal => blockers.is_empty(),
            Extension::Finite(c) => blockers.is_disjoint(c),
        }
    }

    /// [`admits`](Self::admits), and on success installs `candidate` at
    /// position `j` (dirtying every other position's blocker set).
    pub(crate) fn try_accept(&mut self, j: usize, candidate: Extension) -> bool {
        if !self.admits(j, &candidate) {
            return false;
        }
        self.exts[j] = candidate;
        for (i, set) in self.sets.iter_mut().enumerate() {
            if i != j {
                *set = None;
            }
        }
        true
    }
}

/// Definition 3.3: `e1 ≤O e2` (componentwise subsumption).
pub fn less_general<O: Ontology>(
    ontology: &O,
    e1: &Explanation<O::Concept>,
    e2: &Explanation<O::Concept>,
) -> bool {
    e1.len() == e2.len()
        && e1
            .concepts
            .iter()
            .zip(&e2.concepts)
            .all(|(c1, c2)| ontology.subsumed(c1, c2))
}

/// Definition 3.3: `e1 <O e2` (strictly less general).
pub fn strictly_less_general<O: Ontology>(
    ontology: &O,
    e1: &Explanation<O::Concept>,
    e2: &Explanation<O::Concept>,
) -> bool {
    less_general(ontology, e1, e2) && !less_general(ontology, e2, e1)
}

/// Explanation equivalence `e1 ≡O e2` (§6).
pub fn equivalent_explanations<O: Ontology>(
    ontology: &O,
    e1: &Explanation<O::Concept>,
    e2: &Explanation<O::Concept>,
) -> bool {
    less_general(ontology, e1, e2) && less_general(ontology, e2, e1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use whynot_relation::{Atom, Cq, SchemaBuilder, Term, Var};

    fn s(x: &str) -> Value {
        Value::str(x)
    }

    fn fixture() -> WhyNotInstance {
        let mut b = SchemaBuilder::new();
        let tc = b.relation("TC", ["from", "to"]);
        let schema = b.finish().unwrap();
        let mut inst = Instance::new();
        inst.insert(tc, vec![s("A"), s("B")]);
        inst.insert(tc, vec![s("B"), s("C")]);
        let (x, y, z) = (Var(0), Var(1), Var(2));
        let q = Ucq::single(Cq::new(
            [Term::Var(x), Term::Var(y)],
            [
                Atom::new(tc, [Term::Var(x), Term::Var(z)]),
                Atom::new(tc, [Term::Var(z), Term::Var(y)]),
            ],
            [],
        ));
        WhyNotInstance::new(schema, inst, q, vec![s("A"), s("Z")]).unwrap()
    }

    #[test]
    fn construction_computes_answers() {
        let wn = fixture();
        assert_eq!(wn.ans.len(), 1);
        assert!(wn.ans.contains(&vec![s("A"), s("C")]));
        assert_eq!(wn.arity(), 2);
        let k = wn.restriction_constants();
        assert!(k.contains(&s("Z"))); // the missing tuple's constant
        assert!(k.contains(&s("A")));
    }

    #[test]
    fn construction_rejects_present_tuples() {
        let mut b = SchemaBuilder::new();
        let tc = b.relation("TC", ["from", "to"]);
        let schema = b.finish().unwrap();
        let mut inst = Instance::new();
        inst.insert(tc, vec![s("A"), s("B")]);
        let q = Ucq::single(Cq::new(
            [Term::Var(Var(0)), Term::Var(Var(1))],
            [Atom::new(tc, [Term::Var(Var(0)), Term::Var(Var(1))])],
            [],
        ));
        assert!(WhyNotInstance::new(schema, inst, q, vec![s("A"), s("B")]).is_err());
    }

    #[test]
    fn construction_rejects_arity_mismatch() {
        let mut b = SchemaBuilder::new();
        let tc = b.relation("TC", ["from", "to"]);
        let schema = b.finish().unwrap();
        let q = Ucq::single(Cq::new(
            [Term::Var(Var(0)), Term::Var(Var(1))],
            [Atom::new(tc, [Term::Var(Var(0)), Term::Var(Var(1))])],
            [],
        ));
        assert!(WhyNotInstance::new(schema, Instance::new(), q, vec![s("A")]).is_err());
    }

    /// A small deterministic generator for the property test's draws.
    struct Lcg(u64);

    impl Lcg {
        fn pick(&mut self, n: usize) -> usize {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((self.0 >> 33) % n as u64) as usize
        }

        /// `⊤` one draw in eight; otherwise a random subset of `universe`,
        /// over `pool` or (one draw in four) over a private pool.
        fn extension(&mut self, pool: &Arc<ConstPool>, universe: &[Value]) -> Extension {
            if self.pick(8) == 0 {
                return Extension::Universal;
            }
            let members: Vec<Value> = universe
                .iter()
                .filter(|_| self.pick(3) == 0)
                .cloned()
                .collect();
            if self.pick(4) == 0 {
                Extension::finite(members)
            } else {
                Extension::finite_in(Arc::clone(pool), members)
            }
        }
    }

    /// The full-scan verdict with `exts[j]` replaced by `candidate`.
    fn full_scan(exts: &[Extension], j: usize, candidate: &Extension, q: QuestionRef<'_>) -> bool {
        let mut replaced = exts.to_vec();
        replaced[j] = candidate.clone();
        exts_form_explanation_q(&replaced, q)
    }

    #[test]
    fn blockers_agree_with_the_full_scan_on_random_scenarios() {
        let (ghost, head) = (s("ghost"), s("head"));
        for seed in 0..300u64 {
            let sc = whynot_scenarios::generators::random_scenario(seed);
            let inst = sc.instance();
            let pool = inst.const_pool();
            let mut ans = sc.query.eval(&inst);
            let adom: Vec<Value> = inst.active_domain().into_iter().collect();
            // An answer carrying a head constant outside the pool, as
            // `q(x, "head") <- …` would produce.
            ans.insert(vec![adom[0].clone(), head.clone()]);
            let mut universe = adom.clone();
            universe.extend([ghost.clone(), head.clone()]);
            let mut rng = Lcg(seed);
            let tuple = vec![
                universe[rng.pick(universe.len())].clone(),
                universe[rng.pick(universe.len())].clone(),
            ];
            if ans.contains(&tuple) {
                continue;
            }
            let q = QuestionRef {
                ans: &ans,
                tuple: &tuple,
            };

            // Random explanations (each position forced to admit its
            // a_i) and arbitrary candidates, several probes per guard.
            for _ in 0..12 {
                let exts: Vec<Extension> = tuple
                    .iter()
                    .map(|a| match rng.extension(&pool, &universe) {
                        Extension::Finite(mut set) => {
                            set.insert(a.clone());
                            Extension::Finite(set)
                        }
                        top => top,
                    })
                    .collect();
                if !exts_form_explanation_q(&exts, q) {
                    continue;
                }
                let mut guard = Blockers::new(q, &pool, exts.clone());
                for _ in 0..6 {
                    let j = rng.pick(2);
                    let candidate = rng.extension(&pool, &universe);
                    assert_eq!(
                        guard.admits(j, &candidate),
                        full_scan(&exts, j, &candidate, q),
                        "seed {seed}: {exts:?}[{j}] := {candidate:?}"
                    );
                }
            }

            // Balanced growth from the nominals: every probe re-checked
            // after earlier accepts dirtied the other positions.
            let mut exts: Vec<Extension> = tuple
                .iter()
                .map(|a| Extension::finite_in(Arc::clone(&pool), [a.clone()]))
                .collect();
            let mut guard = Blockers::new(q, &pool, exts.clone());
            for b in &universe {
                for j in 0..2 {
                    let candidate = match (&exts[j], rng.pick(10)) {
                        (_, 0) => Extension::Universal,
                        (Extension::Universal, _) => continue,
                        (Extension::Finite(set), _) => {
                            let mut grown = set.clone();
                            grown.insert(b.clone());
                            Extension::Finite(grown)
                        }
                    };
                    let expect = full_scan(&exts, j, &candidate, q);
                    assert_eq!(
                        guard.try_accept(j, candidate.clone()),
                        expect,
                        "seed {seed}: {exts:?}[{j}] := {candidate:?}"
                    );
                    if expect {
                        exts[j] = candidate;
                    }
                    assert_eq!(guard.ext(j), &exts[j]);
                }
            }
        }
    }

    #[test]
    fn display_uses_angle_brackets() {
        let e = Explanation::new(["EU-City".to_string(), "US-City".to_string()]);
        assert_eq!(e.to_string(), "⟨EU-City, US-City⟩");
        assert_eq!(e.len(), 2);
        assert!(!e.is_empty());
    }
}
