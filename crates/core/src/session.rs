//! The batched why-not service layer: one pinned `(ontology, instance)`
//! pair, many questions.
//!
//! The paper frames why-not explanation as a single `(q, I, a)` question,
//! but a deployed explanation service fields *streams* of questions
//! against one instance — and almost everything the algorithms compute is
//! question-independent. A [`WhyNotSession`] pins the pair once and
//! answers an arbitrary sequence of [`WhyNotQuestion`]s, reusing across
//! questions everything that does not depend on the question:
//!
//! | cache | keyed by | serves |
//! |---|---|---|
//! | concept extensions | concept (via [`EvalContext`]) | every algorithm; ≤ 1 `ext(c, I)` eval per concept **per session**, not per question |
//! | the extension table + [`ConstPool`] | — (built once) | Algorithm 1 candidates, `>card` lists, word-parallel membership |
//! | answer sets `q(I)` | the query `q` | repeated queries with different missing tuples evaluate `q` once; each cached set gets a session-unique id |
//! | candidate concept indices | the position constant `aᵢ` | Algorithm 1 / `>card` per-position candidate lists |
//! | answer probes + conflict bitsets | `(answer-set id, position[, concept])` | Algorithm 1's per-candidate conflict masks — question-independent, so the per-question build is a cache probe and a word copy per candidate |
//! | `lub` / `lubσ` results | `(`[`LubKind`]`, support set)` | Algorithm 2's growth probes and MGE checks w.r.t. `OI` |
//! | the pooled [`LubEngine`] columns | `(rel, attr)` (built once) | every lub-cache miss — fresh support sets probe interned column bitsets, never re-materialized columns |
//! | `LS`-concept extensions | the concept | Algorithm 2's per-step explanation checks |
//! | contrastive answers | `(query, missing, foil, `[`LubKind`]`)` | repeated contrast questions |
//!
//! Every budgeted cache (answers, candidates, probes, conflicts, lubs,
//! `LS` extensions, contrast) is one instance of the crate's `Lru` type,
//! capped by the session's [`CacheBudget`]. Probe and conflict entries
//! are keyed by the answer set's id, not its address: evicting or
//! invalidating an answer set purges them with it, and a later answer
//! set never reuses the id. The concept-extension memo and the two
//! built-once structures are not budgeted.
//!
//! Validation happens at the service boundary: a malformed question
//! (wrong arity, unknown relation, nullary tuple, tuple already answered)
//! returns a [`SessionError`] and leaves the session fully usable — it
//! never panics and never poisons the caches.
//!
//! # Examples
//!
//! ```
//! use whynot_core::{ExplicitOntology, WhyNotQuestion, WhyNotSession};
//! use whynot_relation::{Atom, Cq, Instance, SchemaBuilder, Term, Ucq, Value, Var};
//!
//! let ontology = ExplicitOntology::builder()
//!     .concept("City", ["Amsterdam", "Berlin", "New York"])
//!     .concept("European-City", ["Amsterdam", "Berlin"])
//!     .concept("US-City", ["New York"])
//!     .edge("European-City", "City")
//!     .edge("US-City", "City")
//!     .build();
//! let mut b = SchemaBuilder::new();
//! let tc = b.relation("TC", ["from", "to"]);
//! let schema = b.finish().unwrap();
//! let mut instance = Instance::new();
//! instance.insert(tc, vec![Value::str("Amsterdam"), Value::str("Berlin")]);
//!
//! let session = WhyNotSession::new(&ontology, &schema, &instance);
//! let q = Ucq::single(Cq::new(
//!     [Term::Var(Var(0)), Term::Var(Var(1))],
//!     [Atom::new(tc, [Term::Var(Var(0)), Term::Var(Var(1))])],
//!     [],
//! ));
//! // Two questions, one query evaluation, one extension pass.
//! let e1 = session.exhaustive(&WhyNotQuestion::new(
//!     q.clone(),
//!     [Value::str("New York"), Value::str("Amsterdam")],
//! ))?;
//! let e2 = session.exhaustive(&WhyNotQuestion::new(
//!     q,
//!     [Value::str("New York"), Value::str("Berlin")],
//! ))?;
//! // "New York is a US city, and no US city has an outgoing train."
//! assert!(!e1.is_empty() && !e2.is_empty());
//! // The batch-level eval-once contract: both questions together ran the
//! // ontology's extension function at most once per concept.
//! assert!(session.evaluations() <= 3);
//! assert_eq!(session.questions_answered(), 2);
//! # Ok::<(), whynot_core::SessionError>(())
//! ```

use crate::cache::{Lru, Slot};
use crate::context::EvalContext;
use crate::contrast::{
    contrast_core, restriction_values, validate_contrast, ContrastAnswer, ContrastQuestion,
};
use crate::exhaustive;
use crate::incremental::{check_mge_instance_core, engine_lub, incremental_search_core, LubKind};
use crate::ontology::{FiniteOntology, Ontology};
use crate::variations;
use crate::whynot::{exts_form_explanation_q, Explanation, QuestionRef};
use std::cell::{Cell, OnceCell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;
use whynot_concepts::{kernels, Extension, ExtensionTable, LsConcept, LubEngine, Probe};
use whynot_parallel::Executor;
use whynot_relation::{ConstPool, Delta, Instance, RelError, RelId, Schema, Tuple, Ucq, Value};

/// One question of a batched stream: the query `q` and the missing tuple
/// `a`. The schema, instance, and answer set all live in the
/// [`WhyNotSession`] — the session evaluates (and caches) `Ans = q(I)`
/// itself.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WhyNotQuestion {
    /// The query `q` (a union of conjunctive queries).
    pub query: Ucq,
    /// The missing tuple `a`, expected outside `q(I)`.
    pub tuple: Tuple,
}

impl WhyNotQuestion {
    /// Builds a question from a query and the missing tuple.
    pub fn new(query: Ucq, tuple: impl IntoIterator<Item = Value>) -> Self {
        WhyNotQuestion {
            query,
            tuple: tuple.into_iter().collect(),
        }
    }
}

/// Why a question was rejected at the service boundary. Every variant is
/// recoverable: the session stays fully usable for the next question.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SessionError {
    /// The query failed schema validation, or its arity disagrees with
    /// the tuple's.
    Invalid(RelError),
    /// The tuple is among the answers — there is nothing to explain.
    TupleIsAnswer(Tuple),
    /// The question has arity 0: no position to attach a concept to, and
    /// no non-empty support set to take a `lub` of.
    Nullary,
    /// A `lub` of an empty support set was requested (see
    /// [`WhyNotSession::lub`]).
    EmptySupport,
    /// A contrastive question named a foil that is not among the answers
    /// — there is no contrast to draw.
    FoilNotAnswer(Tuple),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Invalid(e) => write!(f, "invalid question: {e}"),
            SessionError::TupleIsAnswer(t) => {
                write!(
                    f,
                    "the tuple {t:?} is among the answers — nothing to explain"
                )
            }
            SessionError::Nullary => write!(f, "nullary questions have no positions to explain"),
            SessionError::EmptySupport => {
                write!(f, "the lub of an empty support set is undefined")
            }
            SessionError::FoilNotAnswer(t) => {
                write!(
                    f,
                    "the foil {t:?} is not among the answers — no contrast to draw"
                )
            }
        }
    }
}

impl std::error::Error for SessionError {}

impl From<RelError> for SessionError {
    fn from(e: RelError) -> Self {
        SessionError::Invalid(e)
    }
}

/// One memoized `lub` / `lubσ` result, validated lazily against the
/// session's delta journal: `epoch` is the journal length at the last
/// validation, and `pooled` records whether the support was fully pooled
/// then (an unpooled support has a nominal-only, instance-independent
/// lub that no delta can invalidate). [`WhyNotSession::apply_delta`]
/// never touches these entries — [`WhyNotSession::cached_lub`] repairs a
/// stale entry on its next access, so the many supports a question
/// stream never revisits cost nothing per delta.
#[derive(Clone)]
struct LubEntry {
    concept: LsConcept,
    pooled: bool,
    epoch: usize,
}

/// A question validated and bound against the session's instance: the
/// answer set is resolved (possibly from cache) and the tuple is known to
/// be missing. `Send + Sync` (the answer set is behind an `Arc`), so a
/// batch of bound questions can fan out across workers.
struct BoundQuestion {
    ans: Arc<BTreeSet<Tuple>>,
    /// The answer set's id in the answers cache, which keys its probe and
    /// conflict entries; `None` when the set is not cached (budget 0), so
    /// those caches are bypassed.
    ans_id: Option<u64>,
    tuple: Tuple,
}

impl BoundQuestion {
    fn view(&self) -> QuestionRef<'_> {
        QuestionRef {
            ans: &self.ans,
            tuple: &self.tuple,
        }
    }
}

/// A contrastive question validated and bound: the full answer set is
/// resolved (from cache when possible), the foil's membership verified,
/// and the residual set `Ans \ {foil}` materialized for the foil-aligned
/// search. `Send + Sync`, so a contrast batch can fan out.
struct BoundContrast {
    /// The full answer set — the ontology-difference path indexes the
    /// foil's conflict bit against it.
    ans: Arc<BTreeSet<Tuple>>,
    /// Its id in the answers cache (see [`BoundQuestion::ans_id`]).
    ans_id: Option<u64>,
    /// `Ans \ {foil}`: the answers the foil-aligned MGE must avoid.
    residual: Arc<BTreeSet<Tuple>>,
    missing: Tuple,
    foil: Tuple,
}

impl BoundContrast {
    /// The residual question the lub-driven cores consume.
    fn view(&self) -> QuestionRef<'_> {
        QuestionRef {
            ans: &self.residual,
            tuple: &self.missing,
        }
    }
}

/// One question of a lub-driven batch after the sequential bind phase
/// (see [`WhyNotSession::lub_fan_out`]).
enum Prepared<B, T> {
    /// Already resolved sequentially: a cache hit or a binding error.
    Done(Result<T, SessionError>),
    /// Bound and waiting for the fan-out.
    Run(B),
}

/// Usage counters of a session (see [`WhyNotSession::stats`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SessionStats {
    /// Questions successfully bound (validation passed).
    pub questions: usize,
    /// `ext(c, I)` evaluations of the wrapped ontology — the batch-level
    /// eval-once contract bounds this by the number of concepts,
    /// independent of the number of questions.
    pub evaluations: usize,
    /// Distinct queries whose answer sets are cached.
    pub cached_queries: usize,
    /// Distinct position constants whose candidate lists are cached.
    pub cached_candidates: usize,
    /// Distinct `(query, position, concept)` conflict bitsets cached for
    /// Algorithm 1 (question-independent: keyed by the query's answers,
    /// not the missing tuple).
    pub cached_conflicts: usize,
    /// Distinct `(kind, support)` pairs whose lubs are cached.
    pub cached_lubs: usize,
    /// Distinct `LS` concepts whose extensions are cached (Algorithm 2's
    /// candidates, including rejected growth probes).
    pub cached_ls_extensions: usize,
    /// Distinct `(query, missing, foil, kind)` contrastive answers
    /// cached.
    pub cached_contrasts: usize,
    /// `(rel, attr)` column sets interned by the pooled lub engine —
    /// bounded by the schema's total attribute count for the session's
    /// whole lifetime, however many questions were answered.
    pub lub_column_builds: usize,
    /// Parallel batches run ([`WhyNotSession::answer_batch`] /
    /// [`WhyNotSession::incremental_batch`] calls).
    pub batches: usize,
    /// Questions that went through a parallel batch fan-out (included in
    /// `questions` too — batches bind through the same validation path).
    pub batch_questions: usize,
    /// [`apply_delta`](WhyNotSession::apply_delta) calls accepted
    /// (including no-ops).
    pub deltas: usize,
    /// Cache entries invalidated by deltas, summed over all calls (see
    /// [`DeltaStats::invalidated`]).
    pub delta_invalidated: usize,
    /// Cache entries that survived deltas, summed over all calls (see
    /// [`DeltaStats::retained`]).
    pub delta_retained: usize,
    /// The [`ConstPool`] generation: 0 at construction, bumped by each
    /// delta that introduced constants outside the current pool.
    pub pool_generation: u64,
    /// Total cache entries evicted under the session's [`CacheBudget`]
    /// (see [`WhyNotSession::evictions`] for the per-cache breakdown).
    pub cache_evictions: usize,
}

/// What one [`WhyNotSession::apply_delta`] call did to each session
/// cache: how much was invalidated (dropped, re-evaluated, or repaired)
/// versus retained across the mutation. A no-op delta returns the
/// all-zero default — nothing is invalidated.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DeltaStats {
    /// Relations whose fact set effectively changed.
    pub changed_relations: usize,
    /// Facts present after the delta that were absent before.
    pub facts_inserted: usize,
    /// Facts absent after the delta that were present before.
    pub facts_deleted: usize,
    /// Whether the delta introduced constants outside the pool (forcing a
    /// generation bump; retained interned caches were bit-remapped).
    pub generation_bumped: bool,
    /// Memoized `ext(c, I)` entries dropped because the concept's
    /// [`signature`](Ontology::signature) intersects the changed
    /// relations.
    pub extensions_dropped: usize,
    /// Memoized `ext(c, I)` entries that survived.
    pub extensions_retained: usize,
    /// Extension-table entries re-evaluated (dirty signatures).
    pub table_reevaluated: usize,
    /// Extension-table entries carried over unchanged (or bit-remapped
    /// across a generation bump).
    pub table_retained: usize,
    /// Cached answer sets dropped because the query mentions a changed
    /// relation.
    pub answers_dropped: usize,
    /// Cached answer sets that survived.
    pub answers_retained: usize,
    /// Per-constant candidate lists dropped (any dirty concept can
    /// reshuffle every list).
    pub candidates_dropped: usize,
    /// Per-constant candidate lists that survived.
    pub candidates_retained: usize,
    /// Interned answer probes dropped (their answer set died, or a
    /// generation bump re-numbered every id).
    pub probes_dropped: usize,
    /// Interned answer probes that survived.
    pub probes_retained: usize,
    /// Conflict bitsets dropped (answer set died or concept dirty).
    pub conflicts_dropped: usize,
    /// Conflict bitsets that survived (they are value-semantic — safe
    /// across generation bumps).
    pub conflicts_retained: usize,
    /// Cached lubs scheduled for recomputation from scratch (their
    /// support gained pooled constants in the new generation, which can
    /// grow the lub beyond its nominal atoms). The recompute itself runs
    /// lazily, on the entry's next access.
    pub lubs_recomputed: usize,
    /// Cached lubs scheduled for atom-level repair: unchanged relations'
    /// atoms kept, changed relations' contributions re-derived against
    /// the engine's fresh columns. The repair itself runs lazily, on the
    /// entry's next access — supports a question stream never revisits
    /// cost nothing.
    pub lubs_repaired: usize,
    /// Cached lubs untouched (support not fully pooled — the result is
    /// nominal-only and instance-independent).
    pub lubs_retained: usize,
    /// `LS`-concept extensions dropped (the concept reads a changed
    /// relation).
    pub ls_extensions_dropped: usize,
    /// `LS`-concept extensions that survived.
    pub ls_extensions_retained: usize,
    /// Lub-engine column sets dropped (their relation changed).
    pub lub_columns_dropped: usize,
    /// Lub-engine column sets retained (id-remapped across a bump).
    pub lub_columns_retained: usize,
    /// Cached contrastive answers dropped. A contrast entry certifies
    /// *maximality* against the full column set, so any effective delta
    /// can invalidate it (a new covering atom anywhere can admit a more
    /// general separator) — the classification is all-or-nothing:
    /// everything drops on an effective delta, everything survives a
    /// no-op.
    pub contrast_dropped: usize,
}

impl DeltaStats {
    /// Total cache entries the delta invalidated: everything dropped,
    /// re-evaluated, repaired, or recomputed.
    pub fn invalidated(&self) -> usize {
        self.extensions_dropped
            + self.table_reevaluated
            + self.answers_dropped
            + self.candidates_dropped
            + self.probes_dropped
            + self.conflicts_dropped
            + self.lubs_recomputed
            + self.lubs_repaired
            + self.ls_extensions_dropped
            + self.lub_columns_dropped
            + self.contrast_dropped
    }

    /// Total cache entries that survived the delta intact (possibly
    /// bit-remapped into a new pool generation, never re-evaluated).
    pub fn retained(&self) -> usize {
        self.extensions_retained
            + self.table_retained
            + self.answers_retained
            + self.candidates_retained
            + self.probes_retained
            + self.conflicts_retained
            + self.lubs_retained
            + self.ls_extensions_retained
            + self.lub_columns_retained
    }
}

/// Per-worker counters of the most recent parallel batch (see
/// [`WhyNotSession::last_batch_workers`]): together with
/// [`SessionStats`], these pin the session invariants under parallelism —
/// however the questions spread over workers, `evaluations` stays bounded
/// by the concept count and `lub_column_builds` by the schema's attribute
/// count, because both happen in the sequential freeze phase.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct WorkerStats {
    /// The worker id (in `0..threads`).
    pub worker: usize,
    /// Questions this worker answered in the batch.
    pub questions: usize,
    /// Lubs this worker computed against the frozen column view
    /// (Algorithm 2 batches only; 0 for exhaustive batches).
    pub lubs_computed: usize,
}

/// The entry cap on each of a session's budgeted memo caches — the
/// knob a long-running service (see `whynot-server`) turns to bound
/// memory.
///
/// The cap applies to every budgeted cache alike: answer sets,
/// candidate lists, answer probes, conflict bitsets, lubs (per
/// [`LubKind`]), `LS`-concept extensions and contrastive answers. The
/// default is [`unlimited`](CacheBudget::unlimited): every cache is
/// append-only for the session's lifetime. A finite cap bounds the entry
/// count; inserting past it evicts the least-recently-used entries
/// first (recency stamps are unique, so the victim is deterministic).
/// Evicting an answer set also evicts the probe and conflict entries
/// keyed by its id. A cap of 0 disables caching entirely — every probe
/// recomputes, answers stay correct, the session just loses its reuse
/// advantage.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheBudget {
    entries: usize,
}

impl CacheBudget {
    /// No limits — the append-only default.
    pub const fn unlimited() -> Self {
        CacheBudget::uniform(usize::MAX)
    }

    /// The same entry cap on every cache.
    pub const fn uniform(n: usize) -> Self {
        CacheBudget { entries: n }
    }

    /// The entry cap of each budgeted cache (`usize::MAX` when
    /// unlimited).
    pub const fn entries(&self) -> usize {
        self.entries
    }
}

impl Default for CacheBudget {
    fn default() -> Self {
        CacheBudget::unlimited()
    }
}

/// How many entries each cache has evicted to stay inside its
/// [`CacheBudget`] (see [`WhyNotSession::evictions`]). Entries dropped
/// because a delta invalidated them are counted by [`DeltaStats`], not
/// here — eviction is purely a memory-pressure event.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct EvictionStats {
    /// Answer sets evicted.
    pub answers: usize,
    /// Candidate index lists evicted.
    pub candidates: usize,
    /// Probe vectors evicted (including cascade purges when their
    /// answer set was evicted).
    pub probes: usize,
    /// Conflict bitsets evicted (including cascade purges).
    pub conflicts: usize,
    /// Lub entries evicted.
    pub lubs: usize,
    /// `LS`-concept extensions evicted.
    pub ls_extensions: usize,
    /// Contrastive answers evicted.
    pub contrast: usize,
}

impl EvictionStats {
    /// Total entries evicted across every cache.
    pub fn total(&self) -> usize {
        self.answers
            + self.candidates
            + self.probes
            + self.conflicts
            + self.lubs
            + self.ls_extensions
            + self.contrast
    }
}

/// An interned conflict bitset and its popcount, shared out of the
/// session's conflict cache.
type ConflictBits = Arc<(Vec<u64>, usize)>;

/// A cached answer set with its session-unique id.
type IdAnswers = (u64, Arc<BTreeSet<Tuple>>);

/// One position's interned answer probes, shared out of the probe cache.
type Probes = Arc<Vec<Probe>>;

/// One batch worker's lub and `LS`-extension memos.
type Memos = (
    BTreeMap<BTreeSet<Value>, LsConcept>,
    BTreeMap<LsConcept, Extension>,
);

/// The contrast cache key: `(query, missing, foil, kind slot)`.
type ContrastKey = (Ucq, Tuple, Tuple, usize);

/// A batched why-not service over one pinned `(ontology, instance)` pair.
///
/// See the [module docs](self) for the cache inventory and an example.
/// Methods that run Algorithm 1 / CHECK-MGE / the `>card` searches
/// require [`FiniteOntology`]; Algorithm 2 and its MGE check (which work
/// w.r.t. the instance-derived ontology `OI`) are available for any
/// ontology type.
pub struct WhyNotSession<'a, O: Ontology> {
    schema: &'a Schema,
    ctx: EvalContext<'a, O>,
    /// `adom(I)` in ascending value order (Algorithm 2's growth order).
    adom: OnceCell<Vec<Value>>,
    /// The concept list and its one-pass extension table (finite
    /// ontologies only), built on first use.
    finite: OnceCell<(Vec<O::Concept>, ExtensionTable)>,
    /// Candidate concept indices keyed by position constant (`Arc` so a
    /// batch can share the lists).
    candidates: RefCell<Lru<Value, Arc<Vec<usize>>>>,
    /// Answer sets keyed by query, each with its session-unique id.
    answers: RefCell<Lru<Ucq, IdAnswers>>,
    /// The id the next cached answer set gets.
    next_answer_id: Cell<u64>,
    /// Interned answer probes keyed by `(answer-set id, position)`: the
    /// `pool.id_of` binary searches for one position's answer column are
    /// paid once per query, not once per question.
    probes: RefCell<Lru<(u64, usize), Probes>>,
    /// Algorithm 1 conflict bitsets (with their popcounts) keyed by
    /// `(answer-set id, position, concept index)`. A candidate's conflict
    /// bits depend on the query's answers and the concept — *not* on
    /// the missing tuple — so questions sharing a query reuse them
    /// wholesale; the per-question work drops to a cache probe and a
    /// word copy per surviving candidate.
    conflicts: RefCell<Lru<(u64, usize, usize), ConflictBits>>,
    /// The pooled lub engine behind the lub cache: one interned column
    /// set per `(rel, attr)` for the whole session, built on the first
    /// lub miss.
    lub_engine: OnceCell<LubEngine<'a>>,
    /// `lub` / `lubσ` results keyed by support set, one cache per
    /// [`LubKind`] (so hits probe by reference, without cloning the
    /// support set — Algorithm 2's growth loop is lub-dominated). A
    /// parallel batch snapshots them in O(1).
    lubs: [RefCell<Lru<BTreeSet<Value>, LubEntry>>; 2],
    /// The effective change set of every accepted delta, in order: the
    /// journal lazy lub repair replays. An entry with `epoch == len` is
    /// current; a stale one re-derives exactly the relations in
    /// `lub_log[epoch..]` on its next access.
    lub_log: RefCell<Vec<BTreeSet<RelId>>>,
    /// `LS`-concept extensions (Algorithm 2's candidates) keyed by
    /// concept, interned into the session pool.
    ls_exts: RefCell<Lru<LsConcept, Extension>>,
    /// Contrastive answers. Dropped wholesale by any effective delta (see
    /// [`DeltaStats::contrast_dropped`]): the stored separators and
    /// foil-aligned MGE are certified *maximal* against the full lub
    /// column set, which any relation change can extend.
    contrast: RefCell<Lru<ContrastKey, Arc<ContrastAnswer>>>,
    /// The entry cap of every cache above.
    budget: CacheBudget,
    /// The LRU clock: bumped on every cache touch, so recency stamps are
    /// unique and eviction picks a deterministic victim.
    clock: Cell<u64>,
    questions: Cell<usize>,
    /// Delta accounting: calls accepted, entries invalidated, entries
    /// retained (summed over calls; see [`DeltaStats`]).
    deltas: Cell<usize>,
    delta_invalidated: Cell<usize>,
    delta_retained: Cell<usize>,
    /// The executor the lub-driven batches fan out on; `None` means each
    /// batch call builds a default one from `WHYNOT_THREADS` / the
    /// machine parallelism.
    executor: Option<Executor>,
    batches: Cell<usize>,
    batch_questions: Cell<usize>,
    /// Per-worker counters of the most recent batch.
    worker_stats: RefCell<Vec<WorkerStats>>,
}

fn kind_slot(kind: LubKind) -> usize {
    match kind {
        LubKind::SelectionFree => 0,
        LubKind::WithSelections => 1,
    }
}

impl<'a, O: Ontology> WhyNotSession<'a, O> {
    /// Opens a session over `(ontology, instance)`. Construction interns
    /// `adom(I)` into the shared pool (one instance sweep); everything
    /// else — extensions, answer sets, candidates, lubs — is computed
    /// lazily as questions arrive.
    ///
    /// The memo caches live as long as the session. Long-lived services
    /// bound them with [`set_cache_budget`](WhyNotSession::set_cache_budget)
    /// (LRU eviction) or recycle sessions periodically —
    /// [`stats`](WhyNotSession::stats) exposes the cache sizes.
    ///
    /// The instance is snapshotted (cheaply — instances share interned
    /// storage), so its borrow ends with this call; only the ontology
    /// and schema must outlive the session.
    pub fn new(ontology: &'a O, schema: &'a Schema, instance: &Instance) -> Self {
        let cap = CacheBudget::unlimited().entries();
        WhyNotSession {
            schema,
            ctx: EvalContext::new(ontology, instance),
            adom: OnceCell::new(),
            finite: OnceCell::new(),
            candidates: RefCell::new(Lru::new(cap)),
            answers: RefCell::new(Lru::new(cap)),
            next_answer_id: Cell::new(0),
            probes: RefCell::new(Lru::new(cap)),
            conflicts: RefCell::new(Lru::new(cap)),
            lub_engine: OnceCell::new(),
            lubs: [RefCell::new(Lru::new(cap)), RefCell::new(Lru::new(cap))],
            lub_log: RefCell::new(Vec::new()),
            ls_exts: RefCell::new(Lru::new(cap)),
            contrast: RefCell::new(Lru::new(cap)),
            budget: CacheBudget::unlimited(),
            clock: Cell::new(0),
            questions: Cell::new(0),
            deltas: Cell::new(0),
            delta_invalidated: Cell::new(0),
            delta_retained: Cell::new(0),
            executor: None,
            batches: Cell::new(0),
            batch_questions: Cell::new(0),
            worker_stats: RefCell::new(Vec::new()),
        }
    }

    /// Pins an executor for this session's lub-driven batches: every
    /// [`incremental_batch`](WhyNotSession::incremental_batch) /
    /// [`contrast_batch`](WhyNotSession::contrast_batch) call fans out on
    /// it instead of building one from `WHYNOT_THREADS`. Algorithm 1
    /// (single questions and [`answer_batch`](WhyNotSession::answer_batch)
    /// alike) always runs on the calling thread.
    pub fn set_executor(&mut self, exec: Executor) {
        self.executor = Some(exec);
    }

    /// Sets the cache budget and trims every cache down to it at once,
    /// least-recently-used entries first (trimmed entries are counted in
    /// [`evictions`](WhyNotSession::evictions)). The default is
    /// [`CacheBudget::unlimited`]; a budget of 0 disables caching without
    /// affecting answers.
    pub fn set_cache_budget(&mut self, budget: CacheBudget) {
        self.budget = budget;
        let cap = budget.entries();
        let dead = self.answers.get_mut().set_cap(cap);
        self.evict_answer_entries(&dead);
        self.candidates.get_mut().set_cap(cap);
        self.probes.get_mut().set_cap(cap);
        self.conflicts.get_mut().set_cap(cap);
        for lubs in &mut self.lubs {
            lubs.get_mut().set_cap(cap);
        }
        self.contrast.get_mut().set_cap(cap);
        self.ls_exts.get_mut().set_cap(cap);
    }

    /// The session's current [`CacheBudget`].
    pub fn cache_budget(&self) -> CacheBudget {
        self.budget
    }

    /// Per-cache counts of LRU evictions under the budget (all zero for
    /// the unlimited default).
    pub fn evictions(&self) -> EvictionStats {
        EvictionStats {
            answers: self.answers.borrow().evicted(),
            candidates: self.candidates.borrow().evicted(),
            probes: self.probes.borrow().evicted(),
            conflicts: self.conflicts.borrow().evicted(),
            lubs: self.lubs.iter().map(|l| l.borrow().evicted()).sum(),
            ls_extensions: self.ls_exts.borrow().evicted(),
            contrast: self.contrast.borrow().evicted(),
        }
    }

    /// The next unique recency stamp.
    fn clock_tick(&self) -> u64 {
        let t = self.clock.get() + 1;
        self.clock.set(t);
        t
    }

    /// Evicts the probe and conflict entries of evicted answer sets.
    fn evict_answer_entries(&self, dead: &[(Ucq, IdAnswers)]) {
        if dead.is_empty() {
            return;
        }
        let ids: BTreeSet<u64> = dead.iter().map(|(_, (id, _))| *id).collect();
        self.probes
            .borrow_mut()
            .evict_if(|(id, _)| ids.contains(id));
        self.conflicts
            .borrow_mut()
            .evict_if(|(id, _, _)| ids.contains(id));
    }

    /// The pinned executor, if [`set_executor`](WhyNotSession::set_executor)
    /// was called.
    pub fn executor(&self) -> Option<Executor> {
        self.executor
    }

    /// The executor a batch call will actually run on.
    fn batch_executor(&self) -> Executor {
        self.executor.unwrap_or_default()
    }

    /// Per-worker counters of the most recent parallel batch (empty until
    /// the first batch). Worker attribution is scheduling-dependent; the
    /// *sum* over workers is not.
    pub fn last_batch_workers(&self) -> Vec<WorkerStats> {
        self.worker_stats.borrow().clone()
    }

    /// Batch accounting: one more batch, its question count, which
    /// worker handled each question, and (for lub-driven batches) how
    /// many lubs each worker computed.
    fn record_batch(&self, workers: usize, question_workers: &[usize], worker_lubs: &[usize]) {
        let mut stats: Vec<WorkerStats> = (0..workers)
            .map(|worker| WorkerStats {
                worker,
                lubs_computed: worker_lubs.get(worker).copied().unwrap_or(0),
                ..WorkerStats::default()
            })
            .collect();
        for &worker in question_workers {
            stats[worker].questions += 1;
        }
        self.batches.set(self.batches.get() + 1);
        self.batch_questions
            .set(self.batch_questions.get() + question_workers.len());
        *self.worker_stats.borrow_mut() = stats;
    }

    /// The pinned ontology.
    pub fn ontology(&self) -> &'a O {
        self.ctx.ontology()
    }

    /// The pinned schema.
    pub fn schema(&self) -> &'a Schema {
        self.schema
    }

    /// The pinned instance (the latest snapshot after any
    /// [`apply_delta`](WhyNotSession::apply_delta) calls).
    pub fn instance(&self) -> &Instance {
        self.ctx.instance()
    }

    /// The shared pool every cached extension is interned into (`adom(I)`;
    /// out-of-domain constants are handled exactly via the extensions'
    /// overflow sets).
    pub fn pool(&self) -> &Arc<ConstPool> {
        self.ctx.pool()
    }

    /// How many times the wrapped ontology's extension function has run —
    /// the batch-level eval-once contract bounds this by the number of
    /// concepts, no matter how many questions the session has answered.
    pub fn evaluations(&self) -> usize {
        self.ctx.evaluations()
    }

    /// Questions successfully bound so far.
    pub fn questions_answered(&self) -> usize {
        self.questions.get()
    }

    /// A snapshot of the session's usage counters.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            questions: self.questions.get(),
            evaluations: self.ctx.evaluations(),
            cached_queries: self.answers.borrow().len(),
            cached_candidates: self.candidates.borrow().len(),
            cached_conflicts: self.conflicts.borrow().len(),
            cached_lubs: self.lubs.iter().map(|m| m.borrow().len()).sum(),
            cached_ls_extensions: self.ls_exts.borrow().len(),
            cached_contrasts: self.contrast.borrow().len(),
            cache_evictions: self.evictions().total(),
            lub_column_builds: self.lub_engine.get().map_or(0, LubEngine::column_builds),
            batches: self.batches.get(),
            batch_questions: self.batch_questions.get(),
            deltas: self.deltas.get(),
            delta_invalidated: self.delta_invalidated.get(),
            delta_retained: self.delta_retained.get(),
            pool_generation: self.ctx.generation(),
        }
    }

    /// Applies a tuple-level [`Delta`] to the pinned instance **in
    /// place**, invalidating only the cache entries the changed relations
    /// can actually affect. Everything else — unrelated extensions,
    /// answer sets, conflict bitsets, lub results, interned columns, the
    /// scratch arena — survives, so a long-lived session absorbs
    /// mutations without restarting from cold caches.
    ///
    /// Invalidation is keyed on the delta's *effective* change set (a
    /// mutation that cancels out touches nothing) intersected with each
    /// cache entry's relation footprint: the ontology's
    /// [`signature`](Ontology::signature) for concept extensions, the
    /// query's atoms for answer sets, the `LS` concept's atoms for lubs
    /// and their extensions. Constants never seen before trigger a
    /// [`ConstPool`] generation bump; retained interned caches are then
    /// bridged with one bit-remap each, never re-evaluated.
    ///
    /// A malformed delta (unknown relation, arity mismatch) is rejected
    /// with [`SessionError::Invalid`] before anything is touched.
    ///
    /// # Examples
    ///
    /// ```
    /// use whynot_core::{ExplicitOntology, SessionError, WhyNotQuestion, WhyNotSession};
    /// use whynot_relation::{Atom, Cq, Delta, Instance, SchemaBuilder, Term, Ucq, Value, Var};
    ///
    /// let ontology = ExplicitOntology::builder()
    ///     .concept("City", ["Amsterdam", "Berlin", "New York"])
    ///     .concept("European-City", ["Amsterdam", "Berlin"])
    ///     .concept("US-City", ["New York"])
    ///     .edge("European-City", "City")
    ///     .edge("US-City", "City")
    ///     .build();
    /// let mut b = SchemaBuilder::new();
    /// let tc = b.relation("TC", ["from", "to"]);
    /// let schema = b.finish().unwrap();
    /// let mut instance = Instance::new();
    /// instance.insert(tc, vec![Value::str("Amsterdam"), Value::str("Berlin")]);
    ///
    /// let mut session = WhyNotSession::new(&ontology, &schema, &instance);
    /// let q = Ucq::single(Cq::new(
    ///     [Term::Var(Var(0)), Term::Var(Var(1))],
    ///     [Atom::new(tc, [Term::Var(Var(0)), Term::Var(Var(1))])],
    ///     [],
    /// ));
    /// // "Why is there no train from New York to Amsterdam?"
    /// let question = WhyNotQuestion::new(q, [Value::str("New York"), Value::str("Amsterdam")]);
    /// assert!(!session.exhaustive(&question)?.is_empty());
    ///
    /// // Insert the missing connection live: the very next question sees it.
    /// let mut delta = Delta::new();
    /// delta.insert(tc, vec![Value::str("New York"), Value::str("Amsterdam")]);
    /// let stats = session.apply_delta(&delta)?;
    /// assert_eq!(stats.facts_inserted, 1);
    /// // The query's answer set was dropped (it reads TC) …
    /// assert_eq!(stats.answers_dropped, 1);
    /// // … but the explicit ontology's extensions are instance-independent
    /// // and all survived.
    /// assert_eq!(stats.extensions_dropped, 0);
    /// assert!(matches!(
    ///     session.exhaustive(&question),
    ///     Err(SessionError::TupleIsAnswer(_))
    /// ));
    /// # Ok::<(), SessionError>(())
    /// ```
    pub fn apply_delta(&mut self, delta: &Delta) -> Result<DeltaStats, SessionError> {
        delta.check(self.schema)?;
        let outcome = self.instance().apply_delta(delta);
        self.deltas.set(self.deltas.get() + 1);
        if outcome.is_noop() {
            return Ok(DeltaStats::default());
        }
        let changed = outcome.changed;
        let mut stats = DeltaStats {
            changed_relations: changed.len(),
            facts_inserted: outcome.inserted,
            facts_deleted: outcome.deleted,
            ..DeltaStats::default()
        };

        // 1. The evaluation context: per-concept extension memo, pool
        // generation, scratch arena (which survives untouched).
        let ctx_delta = self.ctx.apply_delta(
            &outcome.instance,
            &changed,
            outcome.inserted_constants.iter().cloned(),
        );
        let map = ctx_delta.map;
        stats.generation_bumped = map.is_some();
        stats.extensions_dropped = ctx_delta.extensions_dropped;
        stats.extensions_retained = ctx_delta.extensions_retained;
        let pool = Arc::clone(self.ctx.pool());

        // 2. adom(I): any effective delta can change it.
        self.adom.take();

        // 3. The finite index: re-evaluate only dirty entries, bridge the
        // clean ones across the (possible) generation bump.
        let mut dirty: Vec<bool> = Vec::new();
        if let Some((concepts, table)) = self.finite.take() {
            dirty = concepts
                .iter()
                .map(|c| self.ontology().signature(c).intersects(&changed))
                .collect();
            let (table, reevaluated, retained) =
                table.refreshed(Arc::clone(&pool), map.as_ref(), &dirty, |i| {
                    self.ctx.extension(&concepts[i])
                });
            stats.table_reevaluated = reevaluated;
            stats.table_retained = retained;
            self.finite
                .set((concepts, table))
                // lint: allow(no-panic-in-lib) — the cell was emptied by the
                // `take()` this branch is guarded on, so `set` cannot fail.
                .expect("finite cell was taken");
        }
        let any_concept_dirty = dirty.iter().any(|&d| d);

        // 4. Candidate lists: membership of *any* dirty concept can
        // reshuffle every per-constant list.
        (stats.candidates_dropped, stats.candidates_retained) =
            self.candidates.get_mut().retain(|_, _| !any_concept_dirty);

        // 5. Answer sets: drop exactly the queries that read a changed
        // relation, remembering the dying ids so their probe and conflict
        // entries drop with them.
        let mut dead_ids = BTreeSet::<u64>::new();
        (stats.answers_dropped, stats.answers_retained) =
            self.answers.get_mut().retain(|q, (id, _)| {
                let reads_changed = q.rels().iter().any(|r| changed.contains(r));
                if reads_changed {
                    dead_ids.insert(*id);
                }
                !reads_changed
            });

        // 6. Answer probes: invalid wholesale on a generation bump (ids
        // were re-numbered), otherwise they die with their answer set.
        let bumped = map.is_some();
        (stats.probes_dropped, stats.probes_retained) = self
            .probes
            .get_mut()
            .retain(|(id, _), _| !bumped && !dead_ids.contains(id));

        // 7. Conflict bitsets are value-semantic (answer index →
        // membership): they survive generation bumps, and die only with
        // their answer set or their concept.
        (stats.conflicts_dropped, stats.conflicts_retained) =
            self.conflicts.get_mut().retain(|(id, _, k), _| {
                !dead_ids.contains(id) && !dirty.get(*k).copied().unwrap_or(true)
            });

        // 8. The lub engine: changed relations' columns drop, retained
        // ones are id-remapped across a bump. (If lubs were cached the
        // engine necessarily exists — misses build it.)
        if let Some(engine) = self.lub_engine.get_mut() {
            let repool = map.as_ref().map(|m| (&pool, m));
            let (cols_retained, cols_dropped) =
                engine.apply_delta(&outcome.instance, &changed, repool);
            stats.lub_columns_retained = cols_retained;
            stats.lub_columns_dropped = cols_dropped;
        }

        // 9. Cached lubs: repaired *lazily*, not discarded. A lub is the
        // nominal of its support plus per-relation contributions; the
        // contributions of unchanged relations stay exact, but a changed
        // relation can both lose and *gain* atoms, so every pooled entry
        // needs its changed relations re-derived. Doing that here would
        // be O(cache) engine work per delta — and the cache accumulates
        // every support a question stream ever probed, most of which are
        // never probed again. Instead the change set is appended to the
        // delta journal and a stale entry is repaired on its next access
        // (see `cached_lub`); this loop only classifies, for the stats:
        // pooled entries are scheduled for repair, unpooled ones have
        // nominal-only (instance-independent) lubs and stay valid as
        // they are — unless this delta's generation bump just pooled
        // their support, which forces a recompute (the lub can grow
        // relation atoms it never had).
        self.lub_log.get_mut().push(changed.clone());
        for lubs in &self.lubs {
            for (support, entry) in lubs.borrow().iter() {
                if entry.pooled {
                    stats.lubs_repaired += 1;
                } else if bumped && support.iter().all(|v| pool.id_of(v).is_some()) {
                    stats.lubs_recomputed += 1;
                } else {
                    stats.lubs_retained += 1;
                }
            }
        }

        // 10. LS-concept extensions: an extension reads exactly its
        // concept's relations (nominals read none).
        (stats.ls_extensions_dropped, stats.ls_extensions_retained) =
            self.ls_exts.get_mut().retain(|c, ext| {
                if c.rels().iter().any(|r| changed.contains(r)) {
                    return false;
                }
                if let Some(m) = &map {
                    *ext = ext.reinterned_via(&pool, m);
                }
                true
            });

        // 11. Contrastive answers: the cached separators and foil-aligned
        // MGEs are certified *maximal* against the full lub column set —
        // a change to any relation can mint a new covering atom that
        // admits a strictly more general result, so there is no sound
        // per-entry retention test short of recomputing. Effective
        // deltas drop the cache wholesale (no-ops returned early above
        // and retain everything); the per-position *ontology* difference
        // is not cached here at all — it reuses the candidate and
        // conflict caches, which are selectively retained in 4/7.
        (stats.contrast_dropped, _) = self.contrast.get_mut().retain(|_, _| false);

        self.delta_invalidated
            .set(self.delta_invalidated.get() + stats.invalidated());
        self.delta_retained
            .set(self.delta_retained.get() + stats.retained());
        Ok(stats)
    }

    /// The session's pooled lub engine, built (empty) on first use; its
    /// column sets share the session pool, so they are interned at most
    /// once per `(rel, attr)` across the whole question stream.
    fn lub_engine(&self) -> &LubEngine<'a> {
        self.lub_engine.get_or_init(|| {
            LubEngine::with_pool(self.schema, self.ctx.instance(), Arc::clone(self.pool()))
        })
    }

    /// The answers `q(I)`, evaluated once per distinct query. Returned
    /// behind an `Arc` (not an `Rc`): answer sets are part of the state a
    /// parallel batch shares read-only across workers, and `Arc` keeps
    /// the public signature thread-safe.
    pub fn answers(&self, query: &Ucq) -> Arc<BTreeSet<Tuple>> {
        self.cached_answers(query).1
    }

    /// [`answers`](Self::answers) with the set's id in the answers cache
    /// (`None` when the budget keeps it out of the cache).
    fn cached_answers(&self, query: &Ucq) -> (Option<u64>, Arc<BTreeSet<Tuple>>) {
        if let Some((id, hit)) = self.answers.borrow().get(query, self.clock_tick()) {
            return (Some(*id), Arc::clone(hit));
        }
        let ans = Arc::new(query.eval(self.instance()));
        if self.budget.entries() == 0 {
            return (None, ans);
        }
        let id = self.next_answer_id.get();
        self.next_answer_id.set(id + 1);
        let dead = self.answers.borrow_mut().insert(
            query.clone(),
            (id, Arc::clone(&ans)),
            self.clock_tick(),
        );
        self.evict_answer_entries(&dead);
        (Some(id), ans)
    }

    /// `lub_I(X)` / `lubσ_I(X)` over the pinned instance, memoized by
    /// `(kind, support)`. The documented service-boundary behaviour for
    /// malformed requests: an empty support set returns
    /// [`SessionError::EmptySupport`] instead of panicking.
    pub fn lub(&self, kind: LubKind, support: &BTreeSet<Value>) -> Result<LsConcept, SessionError> {
        if support.is_empty() {
            return Err(SessionError::EmptySupport);
        }
        Ok(self.cached_lub(kind, support))
    }

    /// The memoized lub for a support set known to be non-empty. Hits
    /// probe the per-kind map by reference; only a miss clones the
    /// support set (as the inserted key) and runs the pooled
    /// [`LubEngine`], whose column sets are interned once per session. A
    /// hit left stale by [`apply_delta`](WhyNotSession::apply_delta) is
    /// revalidated here against the delta journal first — see
    /// [`revalidate_lub`](WhyNotSession::revalidate_lub).
    fn cached_lub(&self, kind: LubKind, support: &BTreeSet<Value>) -> LsConcept {
        let epoch = self.lub_log.borrow().len();
        let slot = &self.lubs[kind_slot(kind)];
        let stale = match slot.borrow().get(support, self.clock_tick()) {
            Some(entry) if entry.epoch == epoch => return entry.concept.clone(),
            Some(entry) => Some(entry.clone()),
            None => None,
        };
        if let Some(entry) = stale {
            return self.revalidate_lub(kind, support, entry, epoch);
        }
        let engine = self.lub_engine();
        let computed = match kind {
            LubKind::SelectionFree => engine.try_lub(support),
            LubKind::WithSelections => engine.try_lub_sigma(support),
        }
        // lint: allow(no-panic-in-lib) — `bind` rejects empty supports with
        // `SessionError::EmptySupport` before any lub is cached or computed.
        .expect("support checked non-empty");
        let entry = LubEntry {
            concept: computed.clone(),
            pooled: self.support_pooled(support),
            epoch,
        };
        slot.borrow_mut()
            .insert(support.clone(), entry, self.clock_tick());
        computed
    }

    /// Whether every constant of `support` is interned in the session
    /// pool. An unpooled support cannot occur in any relation, so its
    /// lub is the bare nominal — instance-independent until a generation
    /// bump pools it.
    fn support_pooled(&self, support: &BTreeSet<Value>) -> bool {
        let pool = self.pool();
        support.iter().all(|v| pool.id_of(v).is_some())
    }

    /// Brings one stale lub cache entry up to `epoch` (the current delta
    /// journal length): a still-unpooled support keeps its nominal-only
    /// concept as is; a support that was pooled at its last validation
    /// keeps the atoms of untouched relations and re-derives exactly the
    /// relations the journal names since then; a support the journal
    /// window *newly* pooled is recomputed from scratch (its lub can
    /// grow relation atoms it never had). The repaired `entry` is stored
    /// back as the most recently used.
    fn revalidate_lub(
        &self,
        kind: LubKind,
        support: &BTreeSet<Value>,
        mut entry: LubEntry,
        epoch: usize,
    ) -> LsConcept {
        let pooled_now = self.support_pooled(support);
        let engine = self.lub_engine();
        if !pooled_now {
            // Still nominal-only: nothing the deltas did can reach it.
        } else if entry.pooled {
            let pending: BTreeSet<RelId> = self.lub_log.borrow()[entry.epoch..]
                .iter()
                .flat_map(|s| s.iter().copied())
                .collect();
            let mut atoms: Vec<_> = entry
                .concept
                .parts()
                .filter(|a| a.rel().is_none_or(|r| !pending.contains(&r)))
                .cloned()
                .collect();
            for &rel in &pending {
                atoms.extend(match kind {
                    LubKind::SelectionFree => engine.covering_atoms(rel, support),
                    LubKind::WithSelections => engine.box_atoms(rel, support),
                });
            }
            entry.concept = LsConcept::from_atoms(atoms);
        } else {
            entry.concept = match kind {
                LubKind::SelectionFree => engine.try_lub(support),
                LubKind::WithSelections => engine.try_lub_sigma(support),
            }
            // lint: allow(no-panic-in-lib) — every cached support passed the
            // non-emptiness validation in `bind` when it was first computed.
            .expect("cached supports are non-empty");
        }
        entry.pooled = pooled_now;
        entry.epoch = epoch;
        let concept = entry.concept.clone();
        self.lubs[kind_slot(kind)]
            .borrow_mut()
            .insert(support.clone(), entry, self.clock_tick());
        concept
    }

    /// Revalidates every stale lub of `kind` in one sweep — the batch
    /// paths call this before snapshotting the cache for their workers,
    /// who read it immutably and could not repair entries themselves.
    /// Supports are revalidated in ascending order, because each
    /// revalidation stamps its entry's recency.
    fn flush_stale_lubs(&self, kind: LubKind) {
        let epoch = self.lub_log.borrow().len();
        let mut stale: Vec<(BTreeSet<Value>, LubEntry)> = self.lubs[kind_slot(kind)]
            .borrow()
            .iter()
            .filter(|(_, e)| e.epoch != epoch)
            .map(|(s, e)| (s.clone(), e.clone()))
            .collect();
        stale.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
        for (support, entry) in stale {
            self.revalidate_lub(kind, &support, entry, epoch);
        }
    }

    /// The extension of an `LS` concept over the pinned instance,
    /// memoized and interned into the session pool.
    fn ls_extension(&self, c: &LsConcept) -> Extension {
        if let Some(hit) = self.ls_exts.borrow().get(c, self.clock_tick()) {
            return hit.clone();
        }
        let ext = c.extension_in(self.instance(), self.pool());
        self.ls_exts
            .borrow_mut()
            .insert(c.clone(), ext.clone(), self.clock_tick());
        ext
    }

    /// `adom(I)` in ascending order, computed once.
    fn adom(&self) -> &[Value] {
        self.adom
            .get_or_init(|| self.instance().active_domain().into_iter().collect())
    }

    /// Validates a question and resolves its answer set (from cache when
    /// the query has been seen before).
    fn bind(&self, q: &WhyNotQuestion) -> Result<BoundQuestion, SessionError> {
        q.query.validate(self.schema)?;
        if q.tuple.is_empty() {
            return Err(SessionError::Nullary);
        }
        if q.tuple.len() != q.query.arity() {
            return Err(SessionError::Invalid(RelError::Invalid(format!(
                "why-not tuple has arity {}, query has arity {}",
                q.tuple.len(),
                q.query.arity()
            ))));
        }
        let (ans_id, ans) = self.cached_answers(&q.query);
        if ans.contains(&q.tuple) {
            return Err(SessionError::TupleIsAnswer(q.tuple.clone()));
        }
        self.questions.set(self.questions.get() + 1);
        Ok(BoundQuestion {
            ans,
            ans_id,
            tuple: q.tuple.clone(),
        })
    }

    /// Algorithm 2 (INCREMENTAL SEARCH) w.r.t. the instance-derived
    /// ontology `OI`, with session-cached lubs and extensions.
    pub fn incremental(
        &self,
        q: &WhyNotQuestion,
        kind: LubKind,
    ) -> Result<Explanation<LsConcept>, SessionError> {
        let bound = self.bind(q)?;
        Ok(incremental_search_core(
            self.adom(),
            self.pool(),
            bound.view(),
            &mut |x| self.cached_lub(kind, x),
            &mut |c| self.ls_extension(c),
        ))
    }

    /// CHECK-MGE W.R.T. `OI` (Proposition 5.2) through the session caches.
    pub fn check_mge_instance(
        &self,
        q: &WhyNotQuestion,
        e: &Explanation<LsConcept>,
        kind: LubKind,
    ) -> Result<bool, SessionError> {
        let bound = self.bind(q)?;
        let view = bound.view();
        if e.len() != view.arity() {
            return Ok(false);
        }
        let exts: Vec<Extension> = e.concepts.iter().map(|c| self.ls_extension(c)).collect();
        if !exts_form_explanation_q(&exts, view) {
            return Ok(false);
        }
        // Prop 5.1's constant restriction K = adom(I) ∪ ā.
        let mut k_consts: BTreeSet<Value> = self.adom().iter().cloned().collect();
        k_consts.extend(bound.tuple.iter().cloned());
        Ok(check_mge_instance_core(
            &k_consts,
            self.pool(),
            view,
            e,
            &mut |x| self.cached_lub(kind, x),
            &mut |c| self.ls_extension(c),
        ))
    }

    /// [`incremental`](WhyNotSession::incremental) over a whole question
    /// slice, fanned out across the session executor's workers
    /// (freeze-then-fan-out): every question is bound sequentially, the
    /// pooled [`LubEngine`] is frozen into a read-only column view (all
    /// `(rel, attr)` column interning happens here, at most once per
    /// session), each worker runs Algorithm 2's growth loop against the
    /// view with worker-local lub/extension memos, and the memos merge
    /// back into the session caches so later questions still hit them.
    ///
    /// Per-question results — explanations *and* errors — are identical
    /// to calling [`incremental`](WhyNotSession::incremental) on each
    /// question in order, at every thread count (lubs and extensions are
    /// pure in the pinned instance; memoization only changes speed).
    pub fn incremental_batch(
        &self,
        questions: &[WhyNotQuestion],
        kind: LubKind,
    ) -> Vec<Result<Explanation<LsConcept>, SessionError>> {
        self.incremental_batch_with(&self.batch_executor(), questions, kind)
    }

    /// [`incremental_batch`](WhyNotSession::incremental_batch) on an
    /// explicit executor.
    pub fn incremental_batch_with(
        &self,
        exec: &Executor,
        questions: &[WhyNotQuestion],
        kind: LubKind,
    ) -> Vec<Result<Explanation<LsConcept>, SessionError>> {
        let prepared: Vec<Prepared<BoundQuestion, Explanation<LsConcept>>> = questions
            .iter()
            .map(|q| match self.bind(q) {
                Err(e) => Prepared::Done(Err(e)),
                Ok(b) => Prepared::Run(b),
            })
            .collect();
        self.lub_fan_out(exec, kind, &prepared, |adom, pool, b, lub_of, ext_of| {
            incremental_search_core(adom, pool, b.view(), lub_of, ext_of)
        })
    }

    /// The freeze-then-fan-out behind every lub-driven batch
    /// ([`incremental_batch_with`](Self::incremental_batch_with) and
    /// [`contrast_batch_with`](Self::contrast_batch_with)). `prepared`
    /// holds the batch after the caller's sequential bind phase; `core`
    /// answers one bound question from `adom(I)`, the session pool, a lub
    /// provider and an `LS`-extension provider interning into that pool.
    ///
    /// 1. **Freeze** (sequential): the pooled [`LubEngine`] is forced and
    ///    frozen into a read-only column view — all `(rel, attr)` column
    ///    interning happens here, at most once per session, whatever the
    ///    thread count. Stale lubs of `kind` are repaired first (workers
    ///    share the snapshot immutably and cannot repair entries), then
    ///    the warm lub and `LS`-extension caches are snapshotted in O(1)
    ///    (`Arc` pointer clones), so a warm session keeps its reuse
    ///    advantage inside the batch.
    /// 2. **Fan out**: each worker runs `core` against the frozen view
    ///    with worker-local lub/extension memos; results land by question
    ///    index.
    /// 3. **Merge** (sequential): the worker-local memos fold back into
    ///    the session caches in key order, whatever the thread count
    ///    (all values are equal by purity), the caches are trimmed to the
    ///    budget, and the batch is tallied per worker.
    ///
    /// A batch with nothing to run (empty, or only hits and rejections)
    /// skips the freeze — the sequential path would not have interned
    /// columns either — and tallies its questions on worker 0.
    fn lub_fan_out<B, T>(
        &self,
        exec: &Executor,
        kind: LubKind,
        prepared: &[Prepared<B, T>],
        core: impl Fn(
                &[Value],
                &Arc<ConstPool>,
                &B,
                &mut dyn FnMut(&BTreeSet<Value>) -> LsConcept,
                &mut dyn FnMut(&LsConcept) -> Extension,
            ) -> T
            + Sync,
    ) -> Vec<Result<T, SessionError>>
    where
        B: Sync,
        T: Clone + Send + Sync,
    {
        if !prepared.iter().any(|p| matches!(p, Prepared::Run(_))) {
            self.record_batch(exec.threads(), &vec![0; prepared.len()], &[]);
            return prepared
                .iter()
                .filter_map(|p| match p {
                    Prepared::Done(r) => Some(r.clone()),
                    Prepared::Run(_) => None,
                })
                .collect();
        }
        // Phase 1 (sequential): freeze the shared read-only state.
        let adom = self.adom();
        let view = self.lub_engine().freeze();
        let inst = self.instance();
        let pool = Arc::clone(self.pool());
        self.flush_stale_lubs(kind);
        let epoch = self.lub_log.borrow().len();
        let warm_lubs = self.lubs[kind_slot(kind)].borrow().snapshot();
        let warm_exts = self.ls_exts.borrow().snapshot();

        // Worker-local memos: one slot per worker, shared across all of
        // that worker's questions (the mutex is uncontended — each
        // worker only ever locks its own slot).
        let slots: Vec<std::sync::Mutex<Memos>> = (0..exec.threads())
            .map(|_| std::sync::Mutex::new(Memos::default()))
            .collect();

        // Phase 2: pure fan-out. Only `Send + Sync` state is captured
        // (the session itself — `RefCell`s and all — is not).
        let outcomes: Vec<(usize, Result<T, SessionError>)> =
            exec.par_map_with_worker(prepared.len(), |worker, i| match &prepared[i] {
                Prepared::Done(r) => (worker, r.clone()),
                Prepared::Run(b) => {
                    // lint: allow(no-panic-in-lib) — a slot is poisoned only
                    // if a sibling worker panicked, and the executor re-raises
                    // that panic after join; this expect can never be the
                    // first failure the caller sees.
                    let mut memos = slots[worker].lock().expect("uncontended worker slot");
                    let (lubs, exts) = &mut *memos;
                    let answer = core(
                        adom,
                        &pool,
                        b,
                        &mut |x| match warm_lubs
                            .get(x)
                            .map(|e| &e.value().concept)
                            .or_else(|| lubs.get(x))
                        {
                            Some(hit) => hit.clone(),
                            None => {
                                let c = engine_lub(&view, kind, x);
                                lubs.insert(x.clone(), c.clone());
                                c
                            }
                        },
                        &mut |c| match warm_exts.get(c).map(Slot::value).or_else(|| exts.get(c)) {
                            Some(hit) => hit.clone(),
                            None => {
                                let ext = c.extension_in(inst, &pool);
                                exts.insert(c.clone(), ext.clone());
                                ext
                            }
                        },
                    );
                    (worker, Ok(answer))
                }
            });

        // Phase 3 (sequential): merge the worker memos into the session
        // caches and tally per-worker counters. The snapshots drop first
        // so the merge mutates the live caches in place instead of
        // copying them.
        drop(warm_lubs);
        drop(warm_exts);
        let memos: Vec<Memos> = slots
            .into_iter()
            // lint: allow(no-panic-in-lib) — scoped workers joined before
            // this line; a poisoned slot implies a worker panic that the
            // executor already propagated.
            .map(|slot| slot.into_inner().expect("workers joined"))
            .collect();
        let per_worker_lubs: Vec<usize> = memos.iter().map(|(lubs, _)| lubs.len()).collect();
        self.merge_memos(kind, epoch, memos);
        let question_workers: Vec<usize> = outcomes.iter().map(|&(worker, _)| worker).collect();
        self.record_batch(exec.threads(), &question_workers, &per_worker_lubs);
        outcomes.into_iter().map(|(_, result)| result).collect()
    }

    /// Folds a batch's worker memos into the lub cache of `kind` and the
    /// `LS`-extension cache, then trims both to the budget once. The
    /// memos merge as one union in key order (values are equal by
    /// purity): which worker computed what depends on scheduling, but the
    /// union and so the recency stamps do not.
    fn merge_memos(&self, kind: LubKind, epoch: usize, memos: Vec<Memos>) {
        let mut union = Memos::default();
        for (lubs, exts) in memos {
            union.0.extend(lubs);
            union.1.extend(exts);
        }
        let mut lub_cache = self.lubs[kind_slot(kind)].borrow_mut();
        for (support, concept) in union.0 {
            let entry = LubEntry {
                concept,
                pooled: self.support_pooled(&support),
                epoch,
            };
            lub_cache.insert_if_absent(support, entry, self.clock_tick());
        }
        lub_cache.trim();
        let mut ext_cache = self.ls_exts.borrow_mut();
        for (c, ext) in union.1 {
            ext_cache.insert_if_absent(c, ext, self.clock_tick());
        }
        ext_cache.trim();
    }

    /// The contrast cache key of a question under one [`LubKind`].
    fn contrast_key(q: &ContrastQuestion, kind: LubKind) -> ContrastKey {
        (
            q.query.clone(),
            q.missing.clone(),
            q.foil.clone(),
            kind_slot(kind),
        )
    }

    /// The cached contrastive answer under `key`, if any.
    fn contrast_hit(&self, key: &ContrastKey) -> Option<Arc<ContrastAnswer>> {
        self.contrast
            .borrow()
            .get(key, self.clock_tick())
            .map(Arc::clone)
    }

    /// Validates a contrastive question and resolves both its answer set
    /// (cached per query) and the residual set `Ans \ {foil}`.
    fn bind_contrast(&self, q: &ContrastQuestion) -> Result<BoundContrast, SessionError> {
        q.query.validate(self.schema)?;
        let (ans_id, ans) = self.cached_answers(&q.query);
        let residual = Arc::new(validate_contrast(&q.query, &q.missing, &q.foil, &ans)?);
        self.questions.set(self.questions.get() + 1);
        Ok(BoundContrast {
            ans,
            ans_id,
            residual,
            missing: q.missing.clone(),
            foil: q.foil.clone(),
        })
    }

    /// The contrastive answer — per-position difference separators plus
    /// the foil-aligned MGE (see [`ContrastAnswer`]) — through the
    /// session's lub and extension caches, memoized by
    /// `(query, missing, foil, kind)`. A cache hit skips binding
    /// entirely (the entry can only exist while the instance is
    /// unchanged — every effective delta drops the cache), so hits do
    /// not count toward [`questions_answered`](Self::questions_answered).
    pub fn contrast(
        &self,
        q: &ContrastQuestion,
        kind: LubKind,
    ) -> Result<Arc<ContrastAnswer>, SessionError> {
        let key = Self::contrast_key(q, kind);
        if let Some(hit) = self.contrast_hit(&key) {
            return Ok(hit);
        }
        let bound = self.bind_contrast(q)?;
        let k_vals = restriction_values(self.adom().iter().cloned(), &bound.missing);
        let answer = Arc::new(contrast_core(
            &k_vals,
            self.pool(),
            bound.view(),
            &bound.foil,
            &mut |x| self.cached_lub(kind, x),
            &mut |c| self.ls_extension(c),
        ));
        self.contrast
            .borrow_mut()
            .insert(key, Arc::clone(&answer), self.clock_tick());
        Ok(answer)
    }

    /// [`contrast`](WhyNotSession::contrast) over a whole question
    /// slice, fanned out across the session executor's workers.
    pub fn contrast_batch(
        &self,
        questions: &[ContrastQuestion],
        kind: LubKind,
    ) -> Vec<Result<Arc<ContrastAnswer>, SessionError>> {
        self.contrast_batch_with(&self.batch_executor(), questions, kind)
    }

    /// [`contrast_batch`](WhyNotSession::contrast_batch) on an explicit
    /// executor: probe the contrast cache and bind the misses
    /// sequentially, run the two contrast cores through the same
    /// freeze-then-fan-out as
    /// [`incremental_batch_with`](WhyNotSession::incremental_batch_with),
    /// then store the computed answers in question order. Per-question
    /// results are identical to calling
    /// [`contrast`](WhyNotSession::contrast) on each question in order,
    /// at every thread count.
    pub fn contrast_batch_with(
        &self,
        exec: &Executor,
        questions: &[ContrastQuestion],
        kind: LubKind,
    ) -> Vec<Result<Arc<ContrastAnswer>, SessionError>> {
        let prepared: Vec<Prepared<BoundContrast, Arc<ContrastAnswer>>> = questions
            .iter()
            .map(|q| {
                if let Some(hit) = self.contrast_hit(&Self::contrast_key(q, kind)) {
                    return Prepared::Done(Ok(hit));
                }
                match self.bind_contrast(q) {
                    Err(e) => Prepared::Done(Err(e)),
                    Ok(b) => Prepared::Run(b),
                }
            })
            .collect();
        let outcomes = self.lub_fan_out(exec, kind, &prepared, |adom, pool, b, lub_of, ext_of| {
            let k_vals = restriction_values(adom.iter().cloned(), &b.missing);
            Arc::new(contrast_core(
                &k_vals,
                pool,
                b.view(),
                &b.foil,
                lub_of,
                ext_of,
            ))
        });
        let mut cache = self.contrast.borrow_mut();
        for ((q, p), result) in questions.iter().zip(&prepared).zip(&outcomes) {
            if let (Prepared::Run(_), Ok(answer)) = (p, result) {
                let key = Self::contrast_key(q, kind);
                cache.insert_if_absent(key, Arc::clone(answer), self.clock_tick());
            }
        }
        cache.trim();
        outcomes
    }
}

impl<O: FiniteOntology> WhyNotSession<'_, O> {
    /// The concept list and its extension table, built on first use —
    /// this is the one place the session pays the full `ext` sweep, and
    /// it pays it exactly once for the whole question stream.
    fn finite_index(&self) -> &(Vec<O::Concept>, ExtensionTable) {
        self.finite.get_or_init(|| {
            let all = self.ctx.concepts();
            let table = self.ctx.table(&all);
            (all, table)
        })
    }

    /// Candidate concept indices for one position constant, memoized:
    /// which concepts' extensions contain `a`. Depends only on `a` — not
    /// on the query or the rest of the tuple — so the cache carries
    /// across questions.
    fn indices_for(&self, a: &Value) -> Arc<Vec<usize>> {
        if let Some(hit) = self.candidates.borrow().get(a, self.clock_tick()) {
            return Arc::clone(hit);
        }
        let (all, table) = self.finite_index();
        let idxs = Arc::new(exhaustive::candidate_indices(table, all.len(), a));
        self.candidates
            .borrow_mut()
            .insert(a.clone(), Arc::clone(&idxs), self.clock_tick());
        idxs
    }

    /// The pre-interned probes for position `i` of a bound question's
    /// answer column, cached per `(answer-set id, position)` (see the
    /// `probes` field docs).
    fn probes_for(&self, bound: &BoundQuestion, i: usize) -> Probes {
        let key = bound.ans_id.map(|id| (id, i));
        if let Some(key) = &key {
            if let Some(hit) = self.probes.borrow().get(key, self.clock_tick()) {
                return Arc::clone(hit);
            }
        }
        let (_, table) = self.finite_index();
        let probes: Probes = Arc::new(bound.ans.iter().map(|t| table.probe(&t[i])).collect());
        if let Some(key) = key {
            self.probes
                .borrow_mut()
                .insert(key, Arc::clone(&probes), self.clock_tick());
        }
        probes
    }

    /// Concept `k`'s Algorithm 1 conflict bitset (and its popcount) at
    /// position `i`, cached per `(answer-set id, position, concept)` (see
    /// the `conflicts` field docs): bit `j` is set iff answer `j`'s
    /// value at position `i` lies in the concept's extension.
    fn conflict_bits_for(&self, bound: &BoundQuestion, i: usize, k: usize) -> ConflictBits {
        let key = bound.ans_id.map(|id| (id, i, k));
        if let Some(key) = &key {
            if let Some(hit) = self.conflicts.borrow().get(key, self.clock_tick()) {
                return Arc::clone(hit);
            }
        }
        let (_, table) = self.finite_index();
        let probes = self.probes_for(bound, i);
        let mut bits = vec![0u64; bound.ans.len().div_ceil(64)];
        for (j, (t, probe)) in bound.ans.iter().zip(probes.iter()).enumerate() {
            if table.entry_contains(k, probe, &t[i]) {
                bits[j / 64] |= 1 << (j % 64);
            }
        }
        let count = kernels::count_ones(&bits);
        let entry = Arc::new((bits, count));
        if let Some(key) = key {
            self.conflicts
                .borrow_mut()
                .insert(key, Arc::clone(&entry), self.clock_tick());
        }
        entry
    }

    /// Algorithm 1's per-position candidates for a bound question,
    /// assembled from the session caches: candidate index lists (per
    /// constant), probes (per query and position), and conflict bitsets
    /// (per query, position, and concept). Steady state does no probing
    /// at all — each position costs its cache lookups plus one arena
    /// word-copy per candidate. Candidates come out ordered ascending by
    /// conflict popcount, exactly like the one-shot
    /// `exhaustive::build_candidates` (whose sort key `(count, list
    /// position)` this reproduces — `indices_for` lists are ascending),
    /// so session answers stay bit-for-bit equal to the one-shot path.
    fn cached_candidates_for(
        &self,
        bound: &BoundQuestion,
    ) -> Option<Vec<exhaustive::Candidates<O::Concept>>> {
        let (all, _) = self.finite_index();
        let words = bound.ans.len().div_ceil(64);
        let arena = self.ctx.scratch();
        let mut out = Vec::with_capacity(bound.tuple.len());
        for (i, a_i) in bound.tuple.iter().enumerate() {
            let idxs = self.indices_for(a_i);
            if idxs.is_empty() {
                exhaustive::recycle_candidates(arena, out);
                return None;
            }
            let mut entries: Vec<(usize, ConflictBits)> = idxs
                .iter()
                .map(|&k| (k, self.conflict_bits_for(bound, i, k)))
                .collect();
            entries.sort_by_key(|(k, e)| (e.1, *k));
            let concepts = entries.iter().map(|(k, _)| all[*k].clone()).collect();
            let conflicts = entries
                .iter()
                .map(|(_, e)| {
                    let mut buf = arena.take(words);
                    buf.copy_from_slice(&e.0);
                    buf
                })
                .collect();
            out.push(exhaustive::Candidates {
                concepts,
                conflicts,
            });
        }
        Some(out)
    }

    /// Algorithm 1 (EXHAUSTIVE SEARCH): all most-general explanations for
    /// the question w.r.t. the pinned finite ontology. The per-position
    /// candidates come from the session's conflict-bit cache (see
    /// [`stats`](WhyNotSession::stats)'s `cached_conflicts`): questions
    /// sharing a query rebuild nothing but a word copy per candidate.
    pub fn exhaustive(
        &self,
        q: &WhyNotQuestion,
    ) -> Result<Vec<Explanation<O::Concept>>, SessionError> {
        let bound = self.bind(q)?;
        let arena = self.ctx.scratch();
        let Some(candidates) = self.cached_candidates_for(&bound) else {
            return Ok(Vec::new());
        };
        let found = exhaustive::run_exhaustive(&candidates, bound.view(), arena);
        exhaustive::recycle_candidates(arena, candidates);
        Ok(exhaustive::retain_most_general(self.ontology(), found))
    }

    /// EXISTENCE-OF-EXPLANATION: one explanation, if any exists.
    pub fn find_explanation(
        &self,
        q: &WhyNotQuestion,
    ) -> Result<Option<Explanation<O::Concept>>, SessionError> {
        let bound = self.bind(q)?;
        let arena = self.ctx.scratch();
        let Some(candidates) = self.cached_candidates_for(&bound) else {
            return Ok(None);
        };
        let found = exhaustive::run_find_one(&candidates, bound.view(), arena);
        exhaustive::recycle_candidates(arena, candidates);
        Ok(found)
    }

    /// Whether any explanation exists for the question.
    pub fn explanation_exists(&self, q: &WhyNotQuestion) -> Result<bool, SessionError> {
        Ok(self.find_explanation(q)?.is_some())
    }

    /// CHECK-MGE (Theorem 5.1(1)): whether `e` is a most-general
    /// explanation for the question.
    pub fn check_mge(
        &self,
        q: &WhyNotQuestion,
        e: &Explanation<O::Concept>,
    ) -> Result<bool, SessionError> {
        let bound = self.bind(q)?;
        // Building the index up front caches every concept's extension —
        // the replacement loop then never evaluates anything fresh.
        let (all, _) = self.finite_index();
        Ok(exhaustive::check_mge_with(&self.ctx, all, bound.view(), e))
    }

    /// An exact `>card`-maximal explanation (Proposition 6.4's exponential
    /// reference algorithm) through the session caches.
    pub fn card_maximal_exact(
        &self,
        q: &WhyNotQuestion,
    ) -> Result<Option<Explanation<O::Concept>>, SessionError> {
        let bound = self.bind(q)?;
        let (all, table) = self.finite_index();
        let Some(lists) =
            variations::candidate_lists_with(all, table, |a| self.indices_for(a), bound.view())
        else {
            return Ok(None);
        };
        Ok(variations::run_card_maximal_exact(&lists, bound.view()))
    }

    /// The greedy `>card` heuristic through the session caches.
    pub fn card_maximal_greedy(
        &self,
        q: &WhyNotQuestion,
    ) -> Result<Option<Explanation<O::Concept>>, SessionError> {
        let bound = self.bind(q)?;
        let (all, table) = self.finite_index();
        let Some(lists) =
            variations::candidate_lists_with(all, table, |a| self.indices_for(a), bound.view())
        else {
            return Ok(None);
        };
        Ok(variations::run_card_maximal_greedy(&lists, bound.view()))
    }

    /// Algorithm 1 over a whole question slice: the
    /// [`exhaustive`](WhyNotSession::exhaustive) path on each question in
    /// order, on the calling thread. The batch is still counted in
    /// [`stats`](WhyNotSession::stats) (`batches`, `batch_questions`),
    /// and [`last_batch_workers`](WhyNotSession::last_batch_workers)
    /// reports one worker that answered every question.
    pub fn answer_batch(
        &self,
        questions: &[WhyNotQuestion],
    ) -> Vec<Result<Vec<Explanation<O::Concept>>, SessionError>> {
        let results = questions.iter().map(|q| self.exhaustive(q)).collect();
        self.record_batch(1, &vec![0; questions.len()], &[]);
        results
    }

    /// [`answer_batch`](WhyNotSession::answer_batch); the executor is
    /// unused. Algorithm 1 runs on the calling thread because the
    /// session's conflict cache beats a fan-out: warm questions cost a
    /// cache probe and a word copy per candidate, while workers would
    /// have to rebuild those bitsets (see `BENCH_parallel.json`).
    pub fn answer_batch_with(
        &self,
        _exec: &Executor,
        questions: &[WhyNotQuestion],
    ) -> Vec<Result<Vec<Explanation<O::Concept>>, SessionError>> {
        self.answer_batch(questions)
    }

    /// Per-position subsumption-maximal *named* separators: for each
    /// position `i`, every finite-ontology concept `C` with
    /// `foil[i] ∈ ext(C)` and `missing[i] ∉ ext(C)` that no other such
    /// concept strictly extension-subsumes. Equal to the free function
    /// [`crate::ontology_difference`] but routed through the session's
    /// conflict bitsets and candidate index: "`foil[i] ∈ ext(C_k)`" is
    /// bit `j*` of the cached conflict word for `(i, k)` (where `j*` is
    /// the foil's rank in the ordered answer set), and
    /// "`missing[i] ∉ ext(C_k)`" is a binary search miss on the cached
    /// per-value candidate list.
    pub fn contrast_ontology_difference(
        &self,
        q: &ContrastQuestion,
    ) -> Result<Vec<Vec<O::Concept>>, SessionError> {
        let bound = self.bind_contrast(q)?;
        let Some(foil_idx) = bound.ans.iter().position(|t| t == &bound.foil) else {
            // Unreachable after `bind_contrast`, but stay panic-free.
            return Err(SessionError::FoilNotAnswer(bound.foil.clone()));
        };
        // Conflict bitsets are keyed by the *legacy* bound question: they
        // describe membership against the full answer set, whose order
        // determines which bit is the foil's.
        let legacy = BoundQuestion {
            ans: Arc::clone(&bound.ans),
            ans_id: bound.ans_id,
            tuple: bound.missing.clone(),
        };
        let (all, _) = self.finite_index();
        let mut out: Vec<Vec<O::Concept>> = Vec::with_capacity(bound.missing.len());
        for i in 0..bound.missing.len() {
            let excluded = self.indices_for(&bound.missing[i]);
            let mut separators: Vec<(O::Concept, Extension)> = Vec::new();
            for (k, concept) in all.iter().enumerate() {
                let bits = self.conflict_bits_for(&legacy, i, k);
                let foil_in = (bits.0[foil_idx / 64] >> (foil_idx % 64)) & 1 == 1;
                if foil_in && excluded.binary_search(&k).is_err() {
                    separators.push((concept.clone(), self.ctx.extension(concept)));
                }
            }
            out.push(crate::contrast::retain_ext_maximal(separators));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::{check_mge, exhaustive_search, find_explanation};
    use crate::explicit::ExplicitOntology;
    use crate::incremental::{check_mge_instance, incremental_search_kind};
    use crate::whynot::WhyNotInstance;
    use whynot_relation::{Atom, Cq, SchemaBuilder, Term, Var};

    fn s(x: &str) -> Value {
        Value::str(x)
    }

    /// The Figure 3 ontology with the Example 3.4 instance, as a
    /// (ontology, schema, instance) triple the session can pin.
    fn fixture() -> (ExplicitOntology, Schema, Instance, whynot_relation::RelId) {
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
        (o, schema, inst, tc)
    }

    fn two_hop(tc: whynot_relation::RelId) -> Ucq {
        let (x, y, z) = (Var(0), Var(1), Var(2));
        Ucq::single(Cq::new(
            [Term::Var(x), Term::Var(y)],
            [
                Atom::new(tc, [Term::Var(x), Term::Var(z)]),
                Atom::new(tc, [Term::Var(z), Term::Var(y)]),
            ],
            [],
        ))
    }

    fn one_hop(tc: whynot_relation::RelId) -> Ucq {
        let (x, y) = (Var(0), Var(1));
        Ucq::single(Cq::new(
            [Term::Var(x), Term::Var(y)],
            [Atom::new(tc, [Term::Var(x), Term::Var(y)])],
            [],
        ))
    }

    #[test]
    fn session_matches_fresh_contexts_per_question() {
        let (o, schema, inst, tc) = fixture();
        let session = WhyNotSession::new(&o, &schema, &inst);
        let questions = [
            WhyNotQuestion::new(two_hop(tc), [s("Amsterdam"), s("New York")]),
            WhyNotQuestion::new(two_hop(tc), [s("Rome"), s("Tokyo")]),
            WhyNotQuestion::new(one_hop(tc), [s("Amsterdam"), s("New York")]),
            WhyNotQuestion::new(one_hop(tc), [s("Kyoto"), s("Amsterdam")]),
        ];
        for q in &questions {
            let fresh = WhyNotInstance::new(
                schema.clone(),
                inst.clone(),
                q.query.clone(),
                q.tuple.clone(),
            )
            .unwrap();
            assert_eq!(
                session.exhaustive(q).unwrap(),
                exhaustive_search(&o, &fresh),
                "exhaustive disagrees on {:?}",
                q.tuple
            );
            let found = session.find_explanation(q).unwrap();
            assert_eq!(found.is_some(), find_explanation(&o, &fresh).is_some());
            for kind in [LubKind::SelectionFree, LubKind::WithSelections] {
                let via_session = session.incremental(q, kind).unwrap();
                let via_fresh = incremental_search_kind(&fresh, kind);
                assert_eq!(via_session, via_fresh, "incremental({kind:?}) disagrees");
                assert_eq!(
                    session.check_mge_instance(q, &via_session, kind).unwrap(),
                    check_mge_instance(&fresh, &via_fresh, kind)
                );
            }
        }
    }

    #[test]
    fn scratch_arena_reaches_steady_state_across_questions() {
        let (o, schema, inst, tc) = fixture();
        let session = WhyNotSession::new(&o, &schema, &inst);
        let tuples = [
            [s("Amsterdam"), s("New York")],
            [s("Rome"), s("Tokyo")],
            [s("Kyoto"), s("Amsterdam")],
            [s("Santa Cruz"), s("Berlin")],
        ];
        // Warm up on the first question, then require that later
        // questions of the same shape draw every word buffer from the
        // arena's free list instead of the allocator.
        let warm = WhyNotQuestion::new(two_hop(tc), tuples[0].clone());
        let _ = session.exhaustive(&warm).unwrap();
        let _ = session.find_explanation(&warm).unwrap();
        let after_warmup = session.ctx.scratch().allocations();
        for t in &tuples[1..] {
            let q = WhyNotQuestion::new(two_hop(tc), t.clone());
            let _ = session.exhaustive(&q).unwrap();
            let _ = session.find_explanation(&q).unwrap();
        }
        assert_eq!(
            session.ctx.scratch().allocations(),
            after_warmup,
            "steady-state questions should be allocation-free"
        );
        assert!(session.ctx.scratch().reuses() > 0);
    }

    #[test]
    fn batch_eval_once_across_questions() {
        let (o, schema, inst, tc) = fixture();
        let session = WhyNotSession::new(&o, &schema, &inst);
        let tuples = [
            [s("Amsterdam"), s("New York")],
            [s("Rome"), s("Tokyo")],
            [s("Kyoto"), s("Amsterdam")],
            [s("Santa Cruz"), s("Berlin")],
        ];
        for t in &tuples {
            let q = WhyNotQuestion::new(two_hop(tc), t.clone());
            let _ = session.exhaustive(&q).unwrap();
            let _ = session.find_explanation(&q).unwrap();
            let _ = session.card_maximal_greedy(&q).unwrap();
        }
        // 6 concepts, 4 questions, 3 algorithms each — still ≤ 1
        // evaluation per concept in total.
        assert_eq!(session.evaluations(), 6);
        assert_eq!(session.questions_answered(), 12);
        // One distinct query → one cached answer set.
        assert_eq!(session.stats().cached_queries, 1);
    }

    #[test]
    fn lub_columns_are_interned_at_most_once_per_session() {
        let (o, schema, inst, tc) = fixture();
        let session = WhyNotSession::new(&o, &schema, &inst);
        // Before any lub ran, no columns were built.
        assert_eq!(session.stats().lub_column_builds, 0);
        let tuples = [
            [s("Amsterdam"), s("New York")],
            [s("Rome"), s("Tokyo")],
            [s("Kyoto"), s("Amsterdam")],
            [s("Santa Cruz"), s("Berlin")],
        ];
        for t in &tuples {
            let q = WhyNotQuestion::new(two_hop(tc), t.clone());
            for kind in [LubKind::SelectionFree, LubKind::WithSelections] {
                let e = session.incremental(&q, kind).unwrap();
                let _ = session.check_mge_instance(&q, &e, kind).unwrap();
            }
        }
        // One relation of arity 2: at most 2 column sets, ever — the
        // whole batch of growth probes shares the interned columns.
        let stats = session.stats();
        assert_eq!(stats.lub_column_builds, 2);
        assert!(stats.cached_lubs > 2, "the batch did exercise the lubs");
    }

    #[test]
    fn check_mge_through_the_session() {
        let (o, schema, inst, tc) = fixture();
        let session = WhyNotSession::new(&o, &schema, &inst);
        let q = WhyNotQuestion::new(two_hop(tc), [s("Amsterdam"), s("New York")]);
        let fresh = WhyNotInstance::new(
            schema.clone(),
            inst.clone(),
            q.query.clone(),
            q.tuple.clone(),
        )
        .unwrap();
        for e in exhaustive_search(&o, &fresh) {
            assert!(session.check_mge(&q, &e).unwrap());
            assert!(check_mge(&o, &fresh, &e));
        }
        let not_mge = Explanation::new([o.concept_expect("Dutch-City"), o.concept_expect("City")]);
        assert_eq!(
            session.check_mge(&q, &not_mge).unwrap(),
            check_mge(&o, &fresh, &not_mge)
        );
    }

    #[test]
    fn malformed_questions_error_and_leave_the_session_usable() {
        let (o, schema, inst, tc) = fixture();
        let session = WhyNotSession::new(&o, &schema, &inst);
        // Arity mismatch.
        let bad_arity = WhyNotQuestion::new(two_hop(tc), [s("Amsterdam")]);
        assert!(matches!(
            session.exhaustive(&bad_arity),
            Err(SessionError::Invalid(_))
        ));
        // Nullary question.
        let nullary = WhyNotQuestion::new(two_hop(tc), []);
        assert_eq!(session.exhaustive(&nullary), Err(SessionError::Nullary));
        // A tuple that IS an answer.
        let answered = WhyNotQuestion::new(two_hop(tc), [s("Amsterdam"), s("Rome")]);
        assert!(matches!(
            session.incremental(&answered, LubKind::SelectionFree),
            Err(SessionError::TupleIsAnswer(_))
        ));
        // Empty-support lub at the service boundary: an error, not a panic.
        assert_eq!(
            session.lub(LubKind::SelectionFree, &BTreeSet::new()),
            Err(SessionError::EmptySupport)
        );
        // None of that poisoned the caches: a well-formed question works.
        let good = WhyNotQuestion::new(two_hop(tc), [s("Amsterdam"), s("New York")]);
        assert!(!session.exhaustive(&good).unwrap().is_empty());
        // Failed bindings are not counted as answered questions.
        assert_eq!(session.questions_answered(), 1);
    }

    #[test]
    fn out_of_domain_tuple_constants_are_handled_exactly() {
        // The session pool covers adom(I) only; ghost constants flow
        // through the extensions' overflow sets.
        let (o, schema, inst, tc) = fixture();
        let session = WhyNotSession::new(&o, &schema, &inst);
        let ghost = WhyNotQuestion::new(two_hop(tc), [s("Gotham"), s("Berlin")]);
        assert!(session.exhaustive(&ghost).unwrap().is_empty());
        assert!(!session.explanation_exists(&ghost).unwrap());
        // Algorithm 2 still succeeds: the nominal {Gotham} explains it.
        let e = session.incremental(&ghost, LubKind::SelectionFree).unwrap();
        let fresh =
            WhyNotInstance::new(schema.clone(), inst.clone(), ghost.query, ghost.tuple).unwrap();
        assert_eq!(e, incremental_search_kind(&fresh, LubKind::SelectionFree));
    }

    #[test]
    fn incremental_results_pass_check_mge_with_tuple_constants_outside_adom() {
        // `q(x, y) <- R(x), R(y)` with a missing tuple whose constants lie
        // (partly) outside adom(I): Algorithm 2 must also sweep them, or
        // the result is an explanation that CHECK-MGE rejects.
        let mut b = SchemaBuilder::new();
        let r = b.relation("R", ["x"]);
        let schema = b.finish().unwrap();
        let o = ExplicitOntology::builder().build();
        let query = Ucq::single(Cq::new(
            [Term::Var(Var(0)), Term::Var(Var(1))],
            [
                Atom::new(r, [Term::Var(Var(0))]),
                Atom::new(r, [Term::Var(Var(1))]),
            ],
            [],
        ));
        let mut with_c = Instance::new();
        with_c.insert(r, vec![s("c")]);
        let cases = [
            (Instance::new(), [s("g1"), s("g2")]),
            (with_c, [s("c"), s("g")]),
        ];
        for (inst, tuple) in cases {
            let q = WhyNotQuestion::new(query.clone(), tuple.clone());
            let wn = WhyNotInstance::new(schema.clone(), inst.clone(), query.clone(), tuple.into())
                .unwrap();
            for kind in [LubKind::SelectionFree, LubKind::WithSelections] {
                let one_shot = incremental_search_kind(&wn, kind);
                assert!(
                    check_mge_instance(&wn, &one_shot, kind),
                    "{kind:?}: {one_shot:?}"
                );
                let session = WhyNotSession::new(&o, &schema, &inst);
                let via_session = session.incremental(&q, kind).unwrap();
                assert!(check_mge_instance(&wn, &via_session, kind));
                assert_eq!(session.check_mge_instance(&q, &via_session, kind), Ok(true));
                for threads in [1, 2] {
                    let session = WhyNotSession::new(&o, &schema, &inst);
                    let exec = Executor::with_threads(threads);
                    let batch =
                        session.incremental_batch_with(&exec, std::slice::from_ref(&q), kind);
                    let e = batch[0].as_ref().unwrap();
                    assert!(
                        check_mge_instance(&wn, e, kind),
                        "{kind:?} at {threads}: {e:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn answer_batch_matches_sequential_at_every_thread_count() {
        let (o, schema, inst, tc) = fixture();
        let questions = vec![
            WhyNotQuestion::new(two_hop(tc), [s("Amsterdam"), s("New York")]),
            WhyNotQuestion::new(two_hop(tc), [s("Rome"), s("Tokyo")]),
            WhyNotQuestion::new(one_hop(tc), [s("Amsterdam"), s("New York")]),
            WhyNotQuestion::new(one_hop(tc), [s("Kyoto"), s("Amsterdam")]),
            // A malformed question mid-batch: the error must land at its
            // index without perturbing its neighbours.
            WhyNotQuestion::new(two_hop(tc), [s("Amsterdam")]),
            WhyNotQuestion::new(two_hop(tc), [s("Gotham"), s("Berlin")]),
        ];
        // The sequential reference, question by question.
        let reference = WhyNotSession::new(&o, &schema, &inst);
        let expected: Vec<_> = questions.iter().map(|q| reference.exhaustive(q)).collect();
        for threads in [1, 2, 4, 8] {
            let session = WhyNotSession::new(&o, &schema, &inst);
            let exec = Executor::with_threads(threads);
            let got = session.answer_batch_with(&exec, &questions);
            assert_eq!(got, expected, "batch diverged at {threads} threads");
            // The eval-once invariant holds at every thread count: all
            // evaluations happened in the one-pass extension table.
            assert_eq!(session.evaluations(), 6);
            let stats = session.stats();
            assert_eq!(stats.batches, 1);
            assert_eq!(stats.batch_questions, questions.len());
            // Algorithm 1 batches run on the calling thread: one worker,
            // whatever the executor.
            let workers = session.last_batch_workers();
            assert_eq!(workers.len(), 1);
            assert_eq!(
                workers.iter().map(|w| w.questions).sum::<usize>(),
                questions.len()
            );
        }
    }

    #[test]
    fn incremental_batch_matches_sequential_at_every_thread_count() {
        let (o, schema, inst, tc) = fixture();
        let questions = vec![
            WhyNotQuestion::new(two_hop(tc), [s("Amsterdam"), s("New York")]),
            WhyNotQuestion::new(two_hop(tc), [s("Rome"), s("Tokyo")]),
            WhyNotQuestion::new(two_hop(tc), [s("Kyoto"), s("Amsterdam")]),
            WhyNotQuestion::new(two_hop(tc), [s("Amsterdam"), s("Rome")]), // is an answer
            WhyNotQuestion::new(one_hop(tc), [s("Santa Cruz"), s("Berlin")]),
        ];
        for kind in [LubKind::SelectionFree, LubKind::WithSelections] {
            let reference = WhyNotSession::new(&o, &schema, &inst);
            let expected: Vec<_> = questions
                .iter()
                .map(|q| reference.incremental(q, kind))
                .collect();
            for threads in [1, 2, 4] {
                let session = WhyNotSession::new(&o, &schema, &inst);
                let exec = Executor::with_threads(threads);
                let got = session.incremental_batch_with(&exec, &questions, kind);
                assert_eq!(got, expected, "{kind:?} diverged at {threads} threads");
                // Column interning happened in the freeze phase, once per
                // (rel, attr) — the thread count cannot inflate it.
                let stats = session.stats();
                assert_eq!(stats.lub_column_builds, 2);
                // The merged worker memos leave the same caches a
                // sequential run would have built.
                assert_eq!(stats.cached_lubs, reference.stats().cached_lubs);
                assert_eq!(
                    stats.cached_ls_extensions,
                    reference.stats().cached_ls_extensions
                );
                let lubs_total: usize = session
                    .last_batch_workers()
                    .iter()
                    .map(|w| w.lubs_computed)
                    .sum();
                assert!(lubs_total > 0, "the batch did compute lubs");
            }
        }
    }

    /// Under a finite budget, which lubs survive a batch merge decides
    /// later hits and evictions, so the survivors must not depend on how
    /// the batch's questions were spread over workers.
    #[test]
    fn budgeted_memo_merges_do_not_depend_on_the_worker_split() {
        let (o, schema, inst, _) = fixture();
        let reference = WhyNotSession::new(&o, &schema, &inst);
        let kind = LubKind::SelectionFree;
        let memo = |cities: &[&str]| -> Memos {
            let lubs = cities
                .iter()
                .map(|c| {
                    let support: BTreeSet<Value> = [s(c)].into();
                    let lub = reference.lub(kind, &support).unwrap();
                    (support, lub)
                })
                .collect();
            (lubs, BTreeMap::new())
        };
        let survivors = |memos: Vec<Memos>| {
            let mut session = WhyNotSession::new(&o, &schema, &inst);
            session.set_cache_budget(CacheBudget::uniform(2));
            session.merge_memos(kind, 0, memos);
            let lubs = session.lubs[kind_slot(kind)].borrow();
            let mut kept: Vec<BTreeSet<Value>> = lubs.iter().map(|(k, _)| k.clone()).collect();
            kept.sort();
            (kept, lubs.evicted())
        };
        let one_worker = survivors(vec![memo(&["Amsterdam", "Berlin", "Kyoto", "Rome"])]);
        assert_eq!(one_worker.1, 2);
        for split in [
            vec![memo(&["Amsterdam", "Berlin"]), memo(&["Kyoto", "Rome"])],
            vec![memo(&["Kyoto", "Rome"]), memo(&["Amsterdam", "Berlin"])],
            vec![
                memo(&["Berlin", "Rome"]),
                memo(&[]),
                memo(&["Amsterdam", "Kyoto"]),
            ],
        ] {
            assert_eq!(survivors(split), one_worker);
        }
    }

    #[test]
    fn error_only_batches_do_not_freeze_the_lub_engine() {
        // An empty batch, or one where every question fails validation,
        // must not intern any lub columns — matching the sequential
        // path, which never reaches Algorithm 2 for such questions.
        let (o, schema, inst, tc) = fixture();
        let session = WhyNotSession::new(&o, &schema, &inst);
        let exec = Executor::with_threads(2);
        assert!(session
            .incremental_batch_with(&exec, &[], LubKind::SelectionFree)
            .is_empty());
        let bad = vec![
            WhyNotQuestion::new(two_hop(tc), [s("Amsterdam")]), // arity
            WhyNotQuestion::new(two_hop(tc), [s("Amsterdam"), s("Rome")]), // is answer
        ];
        let results = session.incremental_batch_with(&exec, &bad, LubKind::SelectionFree);
        assert!(results.iter().all(Result::is_err));
        assert_eq!(session.stats().lub_column_builds, 0);
        assert_eq!(session.stats().batches, 2);
        // One real question then interns columns as usual.
        let good = WhyNotQuestion::new(two_hop(tc), [s("Amsterdam"), s("New York")]);
        let mixed = session.incremental_batch_with(&exec, &[good], LubKind::SelectionFree);
        assert!(mixed[0].is_ok());
        assert_eq!(session.stats().lub_column_builds, 2);
    }

    #[test]
    fn repeat_incremental_batches_hit_the_warm_caches() {
        // The second identical batch must be served from the caches the
        // first batch merged back — workers compute zero fresh lubs.
        let (o, schema, inst, tc) = fixture();
        let session = WhyNotSession::new(&o, &schema, &inst);
        let questions = vec![
            WhyNotQuestion::new(two_hop(tc), [s("Amsterdam"), s("New York")]),
            WhyNotQuestion::new(two_hop(tc), [s("Rome"), s("Tokyo")]),
        ];
        let exec = Executor::with_threads(2);
        let first = session.incremental_batch_with(&exec, &questions, LubKind::SelectionFree);
        let computed_first: usize = session
            .last_batch_workers()
            .iter()
            .map(|w| w.lubs_computed)
            .sum();
        assert!(computed_first > 0);
        let again = session.incremental_batch_with(&exec, &questions, LubKind::SelectionFree);
        assert_eq!(first, again);
        let computed_again: usize = session
            .last_batch_workers()
            .iter()
            .map(|w| w.lubs_computed)
            .sum();
        assert_eq!(computed_again, 0, "warm caches were ignored");
    }

    #[test]
    fn batches_and_sequential_questions_interleave() {
        // A batch must leave the session fully usable — and warmed — for
        // later sequential questions, and vice versa.
        let (o, schema, inst, tc) = fixture();
        let mut session = WhyNotSession::new(&o, &schema, &inst);
        session.set_executor(Executor::with_threads(2));
        assert_eq!(session.executor(), Some(Executor::with_threads(2)));
        let q1 = WhyNotQuestion::new(two_hop(tc), [s("Amsterdam"), s("New York")]);
        let q2 = WhyNotQuestion::new(two_hop(tc), [s("Rome"), s("Tokyo")]);
        let solo = session.exhaustive(&q1).unwrap();
        let batch = session.answer_batch(&[q1.clone(), q2.clone()]);
        assert_eq!(batch[0].as_ref().unwrap(), &solo);
        let after = session.exhaustive(&q2).unwrap();
        assert_eq!(batch[1].as_ref().unwrap(), &after);
        // Still one distinct query, still ≤ 1 eval per concept.
        assert_eq!(session.evaluations(), 6);
        assert_eq!(session.stats().cached_queries, 1);
        assert_eq!(session.stats().batches, 1);
    }

    /// A minimal finite ontology with honest per-relation signatures:
    /// one concept per relation, whose extension is that relation's
    /// first column. Lets the delta tests pin *which* caches a mutation
    /// of one relation may touch.
    struct ColumnOntology {
        rels: Vec<whynot_relation::RelId>,
    }

    impl Ontology for ColumnOntology {
        type Concept = whynot_relation::RelId;

        fn subsumed(&self, sub: &Self::Concept, sup: &Self::Concept) -> bool {
            sub == sup
        }

        fn extension(&self, c: &Self::Concept, inst: &Instance) -> Extension {
            Extension::finite(inst.tuples(*c).map(|t| t[0].clone()))
        }

        fn signature(&self, c: &Self::Concept) -> crate::ontology::ConceptSignature {
            crate::ontology::ConceptSignature::Rels([*c].into())
        }
    }

    impl FiniteOntology for ColumnOntology {
        fn concepts(&self) -> Vec<Self::Concept> {
            self.rels.clone()
        }
    }

    /// Two relations with disjoint queries: the playground where a delta
    /// on `R` must leave every `S`-keyed cache entry alone. `R` holds
    /// `{a, b}`; binary `S` holds `{(c, a)}`, so the concept extensions
    /// (first columns) are `{a, b}` and `{c}`.
    fn two_rel_fixture() -> (
        ColumnOntology,
        Schema,
        Instance,
        whynot_relation::RelId,
        whynot_relation::RelId,
    ) {
        let mut b = SchemaBuilder::new();
        let r = b.relation("R", ["x"]);
        let s_rel = b.relation("S", ["x", "y"]);
        let schema = b.finish().unwrap();
        let mut inst = Instance::new();
        inst.insert(r, vec![s("a")]);
        inst.insert(r, vec![s("b")]);
        inst.insert(s_rel, vec![s("c"), s("a")]);
        let o = ColumnOntology {
            rels: vec![r, s_rel],
        };
        (o, schema, inst, r, s_rel)
    }

    /// `q(x) :- R(x)` — answers `{a, b}`; asking why-not `c` gives the
    /// `S` concept (extension `{c}`) as a conflict-free candidate.
    fn r_query(rel: whynot_relation::RelId) -> Ucq {
        Ucq::single(Cq::new(
            [Term::Var(Var(0))],
            [Atom::new(rel, [Term::Var(Var(0))])],
            [],
        ))
    }

    /// `q(x) :- S(y, x)` — answers `{a}`; asking why-not `c` again uses
    /// the `S` concept, and its conflict bitset survives `R`-deltas.
    fn s_query(rel: whynot_relation::RelId) -> Ucq {
        Ucq::single(Cq::new(
            [Term::Var(Var(0))],
            [Atom::new(rel, [Term::Var(Var(1)), Term::Var(Var(0))])],
            [],
        ))
    }

    #[test]
    fn delta_invalidates_only_the_changed_relations_caches() {
        let (o, schema, inst, r, s_rel) = two_rel_fixture();
        let mut session = WhyNotSession::new(&o, &schema, &inst);
        // Warm every finite-path cache for both relations.
        let q_r = WhyNotQuestion::new(r_query(r), [s("c")]);
        let q_s = WhyNotQuestion::new(s_query(s_rel), [s("c")]);
        let _ = session.exhaustive(&q_r).unwrap();
        let _ = session.exhaustive(&q_s).unwrap();
        let evals_before = session.evaluations();
        let s_answers_before = session.answers(&q_s.query);

        // Mutate R only, with a constant the pool already holds.
        let mut delta = Delta::new();
        delta.insert(r, vec![s("c")]);
        let stats = session.apply_delta(&delta).unwrap();

        assert!(!stats.generation_bumped);
        assert_eq!(stats.changed_relations, 1);
        // Exactly the R concept was dropped and re-evaluated; S survived.
        assert_eq!(
            (stats.extensions_dropped, stats.extensions_retained),
            (1, 1)
        );
        assert_eq!((stats.table_reevaluated, stats.table_retained), (1, 1));
        // Exactly the R query's answers (and probes) died.
        assert_eq!((stats.answers_dropped, stats.answers_retained), (1, 1));
        assert_eq!((stats.probes_dropped, stats.probes_retained), (1, 1));
        // Conflict bitsets keyed by the dead answer set or the dirty
        // concept died; the (S answers, S concept) one survived.
        assert_eq!(stats.conflicts_retained, 1);
        // The S answer set is literally the same allocation.
        assert!(Arc::ptr_eq(&session.answers(&q_s.query), &s_answers_before));
        // Re-evaluation cost: one `ext` call (the R concept), not a sweep.
        assert_eq!(session.evaluations(), evals_before + 1);
        assert_eq!(session.stats().deltas, 1);

        // Parity with a fresh session over the mutated instance — the
        // delta made `c` an answer of the R query, so both sessions must
        // now reject that question identically.
        let now = session.instance().clone();
        let fresh = WhyNotSession::new(&o, &schema, &now);
        assert_eq!(
            session.exhaustive(&q_r),
            Err(SessionError::TupleIsAnswer(vec![s("c")]))
        );
        for q in [&q_r, &q_s] {
            assert_eq!(session.exhaustive(q), fresh.exhaustive(q));
        }
    }

    #[test]
    fn noop_delta_invalidates_nothing() {
        let (o, schema, inst, r, s_rel) = two_rel_fixture();
        let mut session = WhyNotSession::new(&o, &schema, &inst);
        let q_r = WhyNotQuestion::new(r_query(r), [s("c")]);
        let _ = session.exhaustive(&q_r).unwrap();
        let before = session.stats();
        let answers_before = session.answers(&q_r.query);

        let mut delta = Delta::new();
        delta.insert(r, vec![s("a")]); // already present
        delta.delete(s_rel, vec![s("zz"), s("zz")]); // absent
        let stats = session.apply_delta(&delta).unwrap();

        assert_eq!(stats, DeltaStats::default());
        assert_eq!(stats.invalidated(), 0);
        let after = session.stats();
        assert_eq!(after.evaluations, before.evaluations);
        assert_eq!(after.cached_queries, before.cached_queries);
        assert_eq!(after.cached_conflicts, before.cached_conflicts);
        assert_eq!(after.pool_generation, 0);
        assert_eq!(after.deltas, 1);
        assert!(Arc::ptr_eq(&session.answers(&q_r.query), &answers_before));
    }

    #[test]
    fn generation_bump_bridges_retained_caches() {
        let (o, schema, inst, r, s_rel) = two_rel_fixture();
        let mut session = WhyNotSession::new(&o, &schema, &inst);
        let q_r = WhyNotQuestion::new(r_query(r), [s("c")]);
        let q_s = WhyNotQuestion::new(s_query(s_rel), [s("c")]);
        let _ = session.exhaustive(&q_r).unwrap();
        let _ = session.exhaustive(&q_s).unwrap();

        // A brand-new constant lands in R: the pool grows a generation.
        let mut delta = Delta::new();
        delta.insert(r, vec![s("fresh")]);
        let stats = session.apply_delta(&delta).unwrap();

        assert!(stats.generation_bumped);
        assert_eq!(session.stats().pool_generation, 1);
        // The S extension was bridged, not re-evaluated …
        assert_eq!(stats.extensions_retained, 1);
        assert_eq!(stats.table_reevaluated, 1);
        // … but probes hold raw pool ids, so a bump drops them all.
        assert_eq!(stats.probes_retained, 0);
        assert_eq!(stats.probes_dropped, 2);
        // Conflict bits are value-semantic: the S entry survived the bump.
        assert_eq!(stats.conflicts_retained, 1);
        assert!(session.pool().contains(&s("fresh")));

        let now = session.instance().clone();
        let fresh = WhyNotSession::new(&o, &schema, &now);
        for q in [&q_r, &q_s] {
            assert_eq!(session.exhaustive(q).unwrap(), fresh.exhaustive(q).unwrap());
        }
        // The bridged caches answer later questions without extra evals.
        let fresh_q = WhyNotQuestion::new(s_query(s_rel), [s("fresh")]);
        assert_eq!(
            session.exhaustive(&fresh_q).unwrap(),
            fresh.exhaustive(&fresh_q).unwrap()
        );
    }

    #[test]
    fn delta_repairs_cached_lubs_instead_of_dropping_them() {
        let (o, schema, inst, tc) = fixture();
        let mut session = WhyNotSession::new(&o, &schema, &inst);
        let q = WhyNotQuestion::new(two_hop(tc), [s("Amsterdam"), s("New York")]);
        for kind in [LubKind::SelectionFree, LubKind::WithSelections] {
            let _ = session.incremental(&q, kind).unwrap();
        }
        let warmed = session.stats().cached_lubs;
        assert!(warmed > 0);

        let mut delta = Delta::new();
        delta.insert(tc, vec![s("Kyoto"), s("Tokyo")]);
        let stats = session.apply_delta(&delta).unwrap();
        // Every pooled cached lub was repaired in place (the one changed
        // relation's atoms recomputed, nominals kept); none recomputed
        // from scratch, none dropped.
        assert_eq!(stats.lubs_repaired + stats.lubs_retained, warmed);
        assert_eq!(stats.lubs_recomputed, 0);
        assert!(stats.lubs_repaired > 0);
        assert_eq!(session.stats().cached_lubs, warmed);
        // Engine columns for the single relation were dropped, none kept.
        assert_eq!(stats.lub_columns_retained, 0);

        // Each repaired entry equals what a cold engine computes.
        let now = session.instance().clone();
        let fresh = WhyNotSession::new(&o, &schema, &now);
        for kind in [LubKind::SelectionFree, LubKind::WithSelections] {
            assert_eq!(
                session.incremental(&q, kind).unwrap(),
                fresh.incremental(&q, kind).unwrap()
            );
            let support: BTreeSet<Value> = [s("Amsterdam"), s("Berlin")].into();
            assert_eq!(
                session.lub(kind, &support).unwrap(),
                fresh.lub(kind, &support).unwrap()
            );
        }
    }

    #[test]
    fn card_maximal_matches_free_functions() {
        let (o, schema, inst, tc) = fixture();
        let session = WhyNotSession::new(&o, &schema, &inst);
        let q = WhyNotQuestion::new(two_hop(tc), [s("Amsterdam"), s("New York")]);
        let fresh = WhyNotInstance::new(
            schema.clone(),
            inst.clone(),
            q.query.clone(),
            q.tuple.clone(),
        )
        .unwrap();
        assert_eq!(
            session.card_maximal_exact(&q).unwrap(),
            crate::variations::card_maximal_exact(&o, &fresh)
        );
        assert_eq!(
            session.card_maximal_greedy(&q).unwrap(),
            crate::variations::card_maximal_greedy(&o, &fresh)
        );
    }

    /// A cache budget of 0 disables every cache but changes no answer:
    /// the acceptance bar for the server's memory bounding. Covers a
    /// mid-stream delta, so the budget interacts with invalidation too.
    #[test]
    fn zero_budget_still_answers_correctly() {
        let (o, schema, inst, tc) = fixture();
        let mut reference = WhyNotSession::new(&o, &schema, &inst);
        let mut capped = WhyNotSession::new(&o, &schema, &inst);
        capped.set_cache_budget(CacheBudget::uniform(0));
        let questions = [
            WhyNotQuestion::new(two_hop(tc), [s("Amsterdam"), s("New York")]),
            WhyNotQuestion::new(two_hop(tc), [s("Rome"), s("Tokyo")]),
            WhyNotQuestion::new(one_hop(tc), [s("Kyoto"), s("Amsterdam")]),
            WhyNotQuestion::new(two_hop(tc), [s("Amsterdam"), s("Rome")]), // is an answer
        ];
        let mut delta = Delta::new();
        delta.insert(tc, vec![s("Kyoto"), s("Tokyo")]);
        for stage in 0..2 {
            if stage == 1 {
                reference.apply_delta(&delta).unwrap();
                capped.apply_delta(&delta).unwrap();
            }
            for q in &questions {
                assert_eq!(reference.exhaustive(q), capped.exhaustive(q));
                assert_eq!(reference.find_explanation(q), capped.find_explanation(q));
                assert_eq!(
                    reference.incremental(q, LubKind::SelectionFree),
                    capped.incremental(q, LubKind::SelectionFree)
                );
                assert_eq!(
                    reference.incremental(q, LubKind::WithSelections),
                    capped.incremental(q, LubKind::WithSelections)
                );
                assert_eq!(
                    reference.card_maximal_exact(q),
                    capped.card_maximal_exact(q)
                );
                assert_eq!(
                    reference.card_maximal_greedy(q),
                    capped.card_maximal_greedy(q)
                );
            }
        }
        // Every cache stayed empty the whole run.
        let stats = capped.stats();
        assert_eq!(stats.cached_queries, 0);
        assert_eq!(stats.cached_candidates, 0);
        assert_eq!(stats.cached_conflicts, 0);
        assert_eq!(stats.cached_lubs, 0);
        assert_eq!(stats.cached_ls_extensions, 0);
    }

    /// Finite budgets bound every cache, evict LRU-first, and count
    /// evictions; answers stay identical to an unlimited session.
    #[test]
    fn lru_eviction_bounds_caches_and_counts() {
        let (o, schema, inst, tc) = fixture();
        let reference = WhyNotSession::new(&o, &schema, &inst);
        let mut capped = WhyNotSession::new(&o, &schema, &inst);
        capped.set_cache_budget(CacheBudget::uniform(2));
        let tuples = [
            [s("Amsterdam"), s("New York")],
            [s("Rome"), s("Tokyo")],
            [s("Kyoto"), s("Amsterdam")],
            [s("Berlin"), s("Kyoto")],
            [s("Santa Cruz"), s("Berlin")],
        ];
        for t in &tuples {
            let q2 = WhyNotQuestion::new(two_hop(tc), t.clone());
            let q1 = WhyNotQuestion::new(one_hop(tc), t.clone());
            assert_eq!(reference.exhaustive(&q2), capped.exhaustive(&q2));
            assert_eq!(reference.exhaustive(&q1), capped.exhaustive(&q1));
            assert_eq!(
                reference.incremental(&q2, LubKind::SelectionFree),
                capped.incremental(&q2, LubKind::SelectionFree)
            );
        }
        let stats = capped.stats();
        assert!(stats.cached_queries <= 2);
        assert!(stats.cached_candidates <= 2);
        assert!(stats.cached_conflicts <= 2);
        assert!(stats.cached_lubs <= 4, "2 per kind");
        assert!(stats.cached_ls_extensions <= 2);
        let ev = capped.evictions();
        assert!(ev.candidates > 0, "5 distinct constants through budget 2");
        assert!(ev.lubs > 0);
        assert_eq!(stats.cache_evictions, ev.total());
        assert!(stats.cache_evictions > 0);
        // The unlimited reference evicted nothing.
        assert_eq!(reference.stats().cache_evictions, 0);
        assert_eq!(reference.evictions(), EvictionStats::default());
    }

    /// Recency is honoured: touching an entry saves it from eviction,
    /// and cached answer sets keep their identity across hits.
    #[test]
    fn lru_eviction_prefers_least_recently_used() {
        let (o, schema, inst, tc) = fixture();
        let mut session = WhyNotSession::new(&o, &schema, &inst);
        session.set_cache_budget(CacheBudget::uniform(2));
        let q_two = two_hop(tc);
        let q_one = one_hop(tc);
        let three = Ucq::single(Cq::new(
            [Term::Var(Var(0)), Term::Var(Var(1))],
            [
                Atom::new(tc, [Term::Var(Var(0)), Term::Var(Var(2))]),
                Atom::new(tc, [Term::Var(Var(2)), Term::Var(Var(3))]),
                Atom::new(tc, [Term::Var(Var(3)), Term::Var(Var(1))]),
            ],
            [],
        ));
        let a_two = session.answers(&q_two);
        let _a_one = session.answers(&q_one);
        // Touch `q_two`: `q_one` becomes the LRU entry.
        assert!(Arc::ptr_eq(&session.answers(&q_two), &a_two));
        // Inserting a third answer set evicts `q_one`, not `q_two`.
        let _ = session.answers(&three);
        assert_eq!(session.evictions().answers, 1);
        assert!(
            Arc::ptr_eq(&session.answers(&q_two), &a_two),
            "recently-touched entry survived"
        );
        assert_eq!(session.stats().cached_queries, 2);
    }

    /// `set_cache_budget` trims a warm session immediately, and the
    /// cascade purges id-keyed entries with their answer set.
    #[test]
    fn set_budget_trims_warm_session() {
        let (o, schema, inst, tc) = fixture();
        let mut session = WhyNotSession::new(&o, &schema, &inst);
        for t in [
            [s("Amsterdam"), s("New York")],
            [s("Rome"), s("Tokyo")],
            [s("Kyoto"), s("Amsterdam")],
        ] {
            let q = WhyNotQuestion::new(two_hop(tc), t.clone());
            session.exhaustive(&q).unwrap();
            let q = WhyNotQuestion::new(one_hop(tc), t);
            session.exhaustive(&q).unwrap();
            session
                .incremental(
                    &WhyNotQuestion::new(two_hop(tc), [s("Berlin"), s("Kyoto")]),
                    LubKind::WithSelections,
                )
                .unwrap();
        }
        let warm = session.stats();
        assert!(warm.cached_queries >= 2);
        assert!(warm.cached_conflicts > 1);
        session.set_cache_budget(CacheBudget::uniform(1));
        let trimmed = session.stats();
        assert!(trimmed.cached_queries <= 1);
        assert!(trimmed.cached_candidates <= 1);
        assert!(trimmed.cached_conflicts <= 1);
        assert!(trimmed.cached_lubs <= 2);
        assert!(trimmed.cached_ls_extensions <= 1);
        assert!(session.evictions().total() > 0);
        // Still answers correctly after the trim.
        let fresh = WhyNotSession::new(&o, &schema, &inst);
        let q = WhyNotQuestion::new(two_hop(tc), [s("Amsterdam"), s("New York")]);
        assert_eq!(fresh.exhaustive(&q), session.exhaustive(&q));
    }

    /// The paper-style contrast pair over the two-hop query: reachable
    /// `(Amsterdam, Rome)` answers while `(Amsterdam, New York)` does
    /// not.
    fn contrast_pair(tc: whynot_relation::RelId) -> ContrastQuestion {
        ContrastQuestion::new(
            two_hop(tc),
            [s("Amsterdam"), s("New York")],
            [s("Amsterdam"), s("Rome")],
        )
    }

    /// Session contrast ≡ the one-shot free function for both lub
    /// kinds; a repeat is a cache hit sharing the same `Arc`.
    #[test]
    fn contrast_matches_one_shot() {
        let (o, schema, inst, tc) = fixture();
        let session = WhyNotSession::new(&o, &schema, &inst);
        let q = contrast_pair(tc);
        for kind in [LubKind::SelectionFree, LubKind::WithSelections] {
            let via_session = session.contrast(&q, kind).unwrap();
            let one_shot = crate::contrast::contrast_instance(&schema, &inst, &q, kind).unwrap();
            assert_eq!(*via_session, one_shot, "contrast({kind:?}) disagrees");
            let hit = session.contrast(&q, kind).unwrap();
            assert!(Arc::ptr_eq(&via_session, &hit), "cache hit shares the Arc");
        }
        assert_eq!(session.stats().cached_contrasts, 2);
        // Validation errors surface through the session path too.
        let bad = ContrastQuestion::new(
            two_hop(tc),
            [s("Amsterdam"), s("New York")],
            [s("Tokyo"), s("Berlin")],
        );
        assert!(matches!(
            session.contrast(&bad, LubKind::SelectionFree),
            Err(SessionError::FoilNotAnswer(_))
        ));
    }

    /// A contrast batch is bit-identical to asking sequentially, at
    /// every thread count, with errors held in place.
    #[test]
    fn contrast_batch_matches_sequential() {
        let (o, schema, inst, tc) = fixture();
        let questions = [
            contrast_pair(tc),
            // An invalid entry: the foil is not an answer.
            ContrastQuestion::new(
                two_hop(tc),
                [s("Amsterdam"), s("New York")],
                [s("Tokyo"), s("Berlin")],
            ),
            ContrastQuestion::new(
                two_hop(tc),
                [s("Tokyo"), s("Santa Cruz")],
                [s("New York"), s("Santa Cruz")],
            ),
            // A duplicate of the first: resolved from cache mid-batch
            // on the sequential path, deduplicated afterwards here.
            contrast_pair(tc),
        ];
        for kind in [LubKind::SelectionFree, LubKind::WithSelections] {
            let sequential = WhyNotSession::new(&o, &schema, &inst);
            let expected: Vec<_> = questions
                .iter()
                .map(|q| sequential.contrast(q, kind))
                .collect();
            for threads in [1, 4] {
                let session = WhyNotSession::new(&o, &schema, &inst);
                let exec = Executor::with_threads(threads);
                let got = session.contrast_batch_with(&exec, &questions, kind);
                assert_eq!(got.len(), expected.len());
                for (g, e) in got.iter().zip(&expected) {
                    match (g, e) {
                        (Ok(g), Ok(e)) => assert_eq!(**g, **e, "threads={threads}"),
                        (Err(g), Err(e)) => assert_eq!(g, e),
                        _ => panic!("Ok/Err mismatch at threads={threads}"),
                    }
                }
                // Two distinct cacheable questions: the error entry is
                // never stored and the duplicate collapses onto its key.
                assert_eq!(session.stats().cached_contrasts, 2, "dedup on store");
                // A rerun of the same batch is all cache hits: values
                // unchanged, and the duplicate now shares the single
                // stored entry.
                let again = session.contrast_batch_with(&exec, &questions, kind);
                for (g, a) in got.iter().zip(&again) {
                    if let (Ok(g), Ok(a)) = (g, a) {
                        assert_eq!(**g, **a, "rerun should agree");
                    }
                }
                if let (Ok(first), Ok(last)) = (&again[0], &again[3]) {
                    assert!(Arc::ptr_eq(first, last), "warm duplicate shares the Arc");
                }
            }
        }
    }

    /// Both lub-driven batches on a session warmed before a delta equal
    /// a fresh session's per-question answers at every thread count:
    /// the shared fan-out flushes the lubs the delta left stale before
    /// its workers read the snapshot.
    #[test]
    fn lub_batches_after_a_delta_match_a_fresh_session() {
        let (o, schema, inst, tc) = fixture();
        let questions = vec![
            WhyNotQuestion::new(two_hop(tc), [s("Amsterdam"), s("New York")]),
            WhyNotQuestion::new(two_hop(tc), [s("Rome"), s("Tokyo")]),
            WhyNotQuestion::new(one_hop(tc), [s("Santa Cruz"), s("Berlin")]),
            WhyNotQuestion::new(one_hop(tc), [s("Kyoto"), s("Tokyo")]), // an answer after the delta
        ];
        let contrasts = vec![
            contrast_pair(tc),
            ContrastQuestion::new(
                two_hop(tc),
                [s("Tokyo"), s("Santa Cruz")],
                [s("New York"), s("Santa Cruz")],
            ),
        ];
        let mut delta = Delta::new();
        delta.insert(tc, vec![s("Kyoto"), s("Tokyo")]);
        delta.insert(tc, vec![s("Rome"), s("Kyoto")]);
        delta.delete(tc, vec![s("Berlin"), s("Amsterdam")]);
        for kind in [LubKind::SelectionFree, LubKind::WithSelections] {
            for threads in [1, 2, 4] {
                let mut session = WhyNotSession::new(&o, &schema, &inst);
                for q in &questions {
                    let _ = session.incremental(q, kind);
                }
                for q in &contrasts {
                    let _ = session.contrast(q, kind);
                }
                assert!(session.stats().cached_lubs > 0, "warmed before the delta");
                session.apply_delta(&delta).unwrap();

                let now = session.instance().clone();
                let fresh = WhyNotSession::new(&o, &schema, &now);
                let exec = Executor::with_threads(threads);
                let expected: Vec<_> = questions
                    .iter()
                    .map(|q| fresh.incremental(q, kind))
                    .collect();
                assert!(
                    expected[3].is_err(),
                    "the delta made the last tuple an answer"
                );
                assert_eq!(
                    session.incremental_batch_with(&exec, &questions, kind),
                    expected,
                    "incremental {kind:?} diverged at {threads} threads"
                );
                let expected: Vec<_> = contrasts.iter().map(|q| fresh.contrast(q, kind)).collect();
                assert_eq!(
                    session.contrast_batch_with(&exec, &contrasts, kind),
                    expected,
                    "contrast {kind:?} diverged at {threads} threads"
                );
            }
        }
    }

    /// The bitset-backed session ontology difference ≡ the free
    /// function's direct extension scan.
    #[test]
    fn contrast_ontology_difference_matches_free_function() {
        let (o, schema, inst, tc) = fixture();
        let session = WhyNotSession::new(&o, &schema, &inst);
        let q = contrast_pair(tc);
        let via_session = session.contrast_ontology_difference(&q).unwrap();
        let free = crate::contrast::ontology_difference(&o, &inst, &q.missing, &q.foil);
        assert_eq!(via_session, free);
        // Position 1 separates Rome from New York: European-City is the
        // unique maximal named separator.
        assert_eq!(via_session[1].len(), 1);
        assert_eq!(format!("{}", via_session[1][0]), "European-City");
    }

    /// Any effective delta drops the whole contrast cache (maximality
    /// is certified against the full column set); a no-op keeps it.
    #[test]
    fn delta_drops_contrast_cache() {
        let (o, schema, inst, tc) = fixture();
        let mut session = WhyNotSession::new(&o, &schema, &inst);
        let q = contrast_pair(tc);
        let before = session.contrast(&q, LubKind::SelectionFree).unwrap();
        assert_eq!(session.stats().cached_contrasts, 1);

        // A no-op delta (deleting an absent fact) retains everything.
        let mut noop = Delta::new();
        noop.delete(tc, vec![s("Rome"), s("Tokyo")]);
        let stats = session.apply_delta(&noop).unwrap();
        assert_eq!(stats.contrast_dropped, 0);
        let hit = session.contrast(&q, LubKind::SelectionFree).unwrap();
        assert!(Arc::ptr_eq(&before, &hit), "no-op delta keeps the cache");

        // An effective delta drops the cache and changes the answer:
        // Rome–Tokyo opens a second Amsterdam two-hop target.
        let mut delta = Delta::new();
        delta.insert(tc, vec![s("Rome"), s("Tokyo")]);
        let stats = session.apply_delta(&delta).unwrap();
        assert_eq!(stats.contrast_dropped, 1);
        assert_eq!(session.stats().cached_contrasts, 0);
        let after = session.contrast(&q, LubKind::SelectionFree).unwrap();
        let fresh_inst = session.instance().clone();
        let fresh =
            crate::contrast::contrast_instance(&schema, &fresh_inst, &q, LubKind::SelectionFree)
                .unwrap();
        assert_eq!(*after, fresh, "recompute sees the new instance");
    }

    /// The contrast cache obeys its budget: LRU eviction past the cap,
    /// counted, and budget 0 disables caching entirely.
    #[test]
    fn contrast_cache_honours_budget() {
        let (o, schema, inst, tc) = fixture();
        let mut session = WhyNotSession::new(&o, &schema, &inst);
        session.set_cache_budget(CacheBudget::uniform(1));
        let q = contrast_pair(tc);
        session.contrast(&q, LubKind::SelectionFree).unwrap();
        session.contrast(&q, LubKind::WithSelections).unwrap();
        assert_eq!(session.stats().cached_contrasts, 1);
        assert_eq!(session.evictions().contrast, 1);
        session.set_cache_budget(CacheBudget::uniform(0));
        assert_eq!(session.stats().cached_contrasts, 0);
        let a = session.contrast(&q, LubKind::SelectionFree).unwrap();
        let b = session.contrast(&q, LubKind::SelectionFree).unwrap();
        assert!(!Arc::ptr_eq(&a, &b), "budget 0 disables the cache");
        assert_eq!(a, b, "…but answers stay equal");
    }
}
