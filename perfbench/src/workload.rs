//! The three workloads: seeded inputs (tenant definitions plus a
//! closed-loop line stream) built from the repository's scenario
//! generators. Every step is kept twice — as the protocol line the
//! server receives and as the structured question or delta the direct
//! reference replay answers — so the reference never goes through the
//! wire parsers it checks.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use whynot_core::{ExplicitOntology, WhyNotQuestion};
use whynot_relation::wire::delta_to_json;
use whynot_relation::{Delta, Instance, RelId, Schema, SchemaBuilder, Tuple, Ucq, Value};
use whynot_scenarios::generators::{
    city_name, city_query_shapes, modal_mutation_stream, mutation_stream,
};
use whynot_scenarios::retail::{retail_scenario, stock_query};
use whynot_server::definition_text;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["steady_ask", "churn_drain", "lub_contrast"];

/// The question algorithms the workloads use.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Algo {
    /// Algorithm 1 (`exhaustive`).
    Exhaustive,
    /// Algorithm 2 with selection-free lubs (`incremental`).
    Incremental,
    /// Contrastive question with selection-free lubs (`contrast`).
    Contrast,
}

/// One step of a stream.
pub enum Step {
    /// A synchronous question line (`ask …` or `contrast …`).
    Ask {
        tenant: usize,
        algo: Algo,
        query: usize,
        tuple: Tuple,
        foil: Option<Tuple>,
    },
    /// `enqueue <tenant> exhaustive | …`, answered by the next `run`.
    Enqueue {
        tenant: usize,
        query: usize,
        tuple: Tuple,
    },
    /// `mutate <tenant> | <delta json>`.
    Mutate { tenant: usize, delta: Delta },
    /// `run`: drain every queue.
    Run,
}

impl Step {
    /// Whether the step poses a question.
    pub fn is_question(&self) -> bool {
        matches!(self, Step::Ask { .. } | Step::Enqueue { .. })
    }

    /// The tenant a step addresses (`None` for `run`).
    pub fn tenant(&self) -> Option<usize> {
        match self {
            Step::Ask { tenant, .. }
            | Step::Enqueue { tenant, .. }
            | Step::Mutate { tenant, .. } => Some(*tenant),
            Step::Run => None,
        }
    }
}

/// One tenant's starting state.
pub struct TenantInput {
    pub name: String,
    pub ontology: ExplicitOntology,
    pub schema: Schema,
    pub instance: Instance,
    /// The `create` body: definition lines between `create` and `end`.
    pub definition: String,
    /// The tenant's standing queries: the structured query and its rule
    /// text on the wire.
    pub queries: Vec<(Ucq, String)>,
}

impl TenantInput {
    fn new(name: String, ontology: ExplicitOntology, schema: Schema, instance: Instance) -> Self {
        let definition = definition_text(&schema, &ontology, &instance);
        // The definition grammar names attributes positionally (`a0`,
        // `a1`, …), and `LS` concepts print attribute names, so the
        // reference uses the schema the server parses: same relations in
        // the same id order, positional attribute names.
        let mut b = SchemaBuilder::new();
        for rel in schema.rel_ids() {
            b.relation_arity(schema.name(rel), schema.arity(rel));
        }
        let schema = b.finish().expect("a renamed well-formed schema");
        TenantInput {
            name,
            ontology,
            schema,
            instance,
            definition,
            queries: Vec::new(),
        }
    }

    /// The structured question of an ask/enqueue step.
    pub fn question(&self, query: usize, tuple: &Tuple) -> WhyNotQuestion {
        WhyNotQuestion::new(self.queries[query].0.clone(), tuple.iter().cloned())
    }
}

/// A generated workload.
pub struct Workload {
    pub name: &'static str,
    pub seed: u64,
    pub tenants: Vec<TenantInput>,
    /// The timed stream.
    pub steps: Vec<Step>,
    /// `steps` rendered as protocol lines, one per step.
    pub lines: Vec<String>,
    /// Questions asked of every tenant right before `evict` and right
    /// after `load`, to check that a restart changes no answer.
    pub probes: Vec<Step>,
    pub probe_lines: Vec<String>,
    /// Why the workload exists (one sentence).
    pub why: &'static str,
}

impl Workload {
    /// Builds the named workload from a seed.
    pub fn build(name: &str, seed: u64) -> Option<Workload> {
        let mut w = match name {
            "steady_ask" => steady_ask(seed),
            "churn_drain" => churn_drain(seed),
            "lub_contrast" => lub_contrast(seed),
            _ => return None,
        };
        w.lines = w.steps.iter().map(|s| w.render(s)).collect();
        w.probe_lines = w.probes.iter().map(|s| w.render(s)).collect();
        Some(w)
    }

    /// Renders a step as a protocol line.
    pub fn render(&self, step: &Step) -> String {
        let values = |t: &Tuple| {
            t.iter()
                .map(Value::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        };
        match step {
            Step::Ask {
                tenant,
                algo,
                query,
                tuple,
                foil,
            } => {
                let t = &self.tenants[*tenant];
                let rule = &t.queries[*query].1;
                match (algo, foil) {
                    (Algo::Contrast, Some(foil)) => format!(
                        "contrast {} | {rule} | {} | {}",
                        t.name,
                        values(tuple),
                        values(foil)
                    ),
                    (Algo::Incremental, _) => {
                        format!("ask {} incremental | {rule} | {}", t.name, values(tuple))
                    }
                    _ => format!("ask {} exhaustive | {rule} | {}", t.name, values(tuple)),
                }
            }
            Step::Enqueue {
                tenant,
                query,
                tuple,
            } => {
                let t = &self.tenants[*tenant];
                format!(
                    "enqueue {} exhaustive | {} | {}",
                    t.name,
                    t.queries[*query].1,
                    values(tuple)
                )
            }
            Step::Mutate { tenant, delta } => {
                let t = &self.tenants[*tenant];
                format!("mutate {} | {}", t.name, delta_to_json(&t.schema, delta))
            }
            Step::Run => "run".to_string(),
        }
    }

    /// Facts across all tenants' starting instances.
    pub fn facts(&self) -> usize {
        self.tenants.iter().map(|t| t.instance.len()).sum()
    }

    /// Share of questions whose `(tenant, algorithm, query, tuple, foil)`
    /// repeats an earlier question of the stream — the only share that
    /// answer-reuse caching can speed up.
    pub fn repeat_share(&self) -> f64 {
        let mut seen = HashSet::new();
        let (mut questions, mut repeats) = (0usize, 0usize);
        for step in &self.steps {
            let key = match step {
                Step::Ask {
                    tenant,
                    algo,
                    query,
                    tuple,
                    foil,
                } => (*tenant, *algo, *query, tuple.clone(), foil.clone()),
                Step::Enqueue {
                    tenant,
                    query,
                    tuple,
                } => (*tenant, Algo::Exhaustive, *query, tuple.clone(), None),
                _ => continue,
            };
            questions += 1;
            if !seen.insert(key) {
                repeats += 1;
            }
        }
        repeats as f64 / questions.max(1) as f64
    }
}

/// The wire rule text of [`city_query_shapes`] shape `shape` over `rel`.
fn city_rule(shape: usize, rel: &str) -> String {
    match shape {
        0 => format!("q(X, Y) <- {rel}(X, Z), {rel}(Z, Y)"),
        1 => format!("q(X) <- {rel}(X, Z), {rel}(Z, X)"),
        _ => format!("q(X, Y, Z) <- {rel}(X, Y), {rel}(Y, Z)"),
    }
}

/// A relation's live fact set, mirrored while the stream is generated so
/// that deletions pick existing facts and contrast pairs stay valid.
struct LiveRel {
    rel: RelId,
    facts: Vec<Tuple>,
    present: HashSet<Tuple>,
}

impl LiveRel {
    fn new(instance: &Instance, rel: RelId) -> Self {
        let facts: Vec<Tuple> = instance.tuples(rel).cloned().collect();
        let present = facts.iter().cloned().collect();
        LiveRel {
            rel,
            facts,
            present,
        }
    }

    fn insert(&mut self, t: Tuple) {
        if self.present.insert(t.clone()) {
            self.facts.push(t);
        }
    }

    fn delete(&mut self, t: &Tuple) {
        if self.present.remove(t) {
            let i = self
                .facts
                .iter()
                .position(|f| f == t)
                .expect("present facts are listed");
            self.facts.swap_remove(i);
        }
    }

    /// Adds one edit to `delta`: 4/10 insert an absent tuple, 4/10
    /// delete an existing fact, 1/10 insert a tuple with a brand-new
    /// constant (a pool generation bump downstream) and 1/10 an
    /// insert-then-delete pair that cancels. Nine edits in ten change the
    /// instance, so a mutate's median cost is that of an effective edit.
    fn mutate(
        &mut self,
        delta: &mut Delta,
        rng: &mut StdRng,
        random: &mut impl FnMut(&mut StdRng) -> Tuple,
        fresh: &mut impl FnMut(&mut StdRng) -> Tuple,
    ) {
        match rng.gen_range(0..10u32) {
            0..=3 => {
                let t = loop {
                    let t = random(rng);
                    if !self.present.contains(&t) {
                        break t;
                    }
                };
                delta.insert(self.rel, t.clone());
                self.insert(t);
            }
            4..=7 if !self.facts.is_empty() => {
                let t = self.facts[rng.gen_range(0..self.facts.len())].clone();
                delta.delete(self.rel, t.clone());
                self.delete(&t);
            }
            4..=8 => {
                let t = fresh(rng);
                delta.insert(self.rel, t.clone());
                self.insert(t);
            }
            _ => {
                let t = fresh(rng);
                delta.insert(self.rel, t.clone());
                delta.delete(self.rel, t);
            }
        }
    }
}

fn city_tuple(rng: &mut StdRng, cities: usize, arity: usize) -> Tuple {
    (0..arity)
        .map(|_| Value::str(city_name(rng.gen_range(0..cities))))
        .collect()
}

/// A city edit source: random edges between known cities, and fresh
/// "ghost" cities for the new-constant edits.
fn city_edits(
    cities: usize,
) -> (
    impl FnMut(&mut StdRng) -> Tuple,
    impl FnMut(&mut StdRng) -> Tuple,
) {
    let mut ghosts = 0usize;
    (
        move |rng: &mut StdRng| city_tuple(rng, cities, 2),
        move |rng: &mut StdRng| {
            ghosts += 1;
            vec![
                Value::str(format!("ghost{ghosts:05}")),
                Value::str(city_name(rng.gen_range(0..cities))),
            ]
        },
    )
}

const STEADY_CITIES: usize = 384;
const STEADY_REGIONS: usize = 12;
const STEADY_MODES: usize = 48;
/// One step in this many mutates (2 %).
const STEADY_MUTATE_EVERY: usize = 50;
const STEADY_STEPS: usize = 15_000;

/// One tenant over `modal_mutation_stream`'s 48 transport modes; asks
/// cycle the three city query shapes across the modes, and every 50th
/// step mutates one mode.
fn steady_ask(seed: u64) -> Workload {
    let base = modal_mutation_stream(STEADY_CITIES, STEADY_REGIONS, STEADY_MODES, 0, 0, seed);
    let rels: Vec<RelId> = base.schema.rel_ids().collect();
    let mut tenant = TenantInput::new("t0".into(), base.ontology, base.schema, base.instance);
    for (m, &rel) in rels.iter().enumerate() {
        let name = tenant.schema.name(rel).to_string();
        tenant.queries.push((
            city_query_shapes(rel)[m % 3].clone(),
            city_rule(m % 3, &name),
        ));
    }
    let mut live: Vec<LiveRel> = rels
        .iter()
        .map(|&r| LiveRel::new(&tenant.instance, r))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x57ea_d7a5);
    let (mut random, mut fresh) = city_edits(STEADY_CITIES);
    let mut steps = Vec::with_capacity(STEADY_STEPS);
    for step in 0..STEADY_STEPS {
        if step % STEADY_MUTATE_EVERY == STEADY_MUTATE_EVERY - 1 {
            let mode = rng.gen_range(0..STEADY_MODES);
            let mut delta = Delta::new();
            for _ in 0..rng.gen_range(1..4usize) {
                live[mode].mutate(&mut delta, &mut rng, &mut random, &mut fresh);
            }
            steps.push(Step::Mutate { tenant: 0, delta });
        } else {
            let query = step % STEADY_MODES;
            let arity = tenant.queries[query].0.arity();
            steps.push(Step::Ask {
                tenant: 0,
                algo: Algo::Exhaustive,
                query,
                tuple: city_tuple(&mut rng, STEADY_CITIES, arity),
                foil: None,
            });
        }
    }
    let probes = (0..16)
        .map(|i| Step::Ask {
            tenant: 0,
            algo: Algo::Exhaustive,
            query: (i * 7) % STEADY_MODES,
            tuple: city_tuple(
                &mut rng,
                STEADY_CITIES,
                tenant.queries[(i * 7) % STEADY_MODES].0.arity(),
            ),
            foil: None,
        })
        .collect();
    Workload {
        name: "steady_ask",
        seed,
        tenants: vec![tenant],
        steps,
        lines: Vec::new(),
        probes,
        probe_lines: Vec::new(),
        why: "Read-heavy steady state: asks mostly hit the session caches, so wire parsing, \
              dispatch and serialization are a large share of each answer.",
    }
}

const CHURN_TENANTS: usize = 4;
const CHURN_CITIES: usize = 192;
const CHURN_REGIONS: usize = 8;
const CHURN_ROUNDS: usize = 424;
/// One `run` per this many rounds: with at most one question per tenant
/// per round the default queue depth (64) is never reached.
pub const CHURN_DRAIN_EVERY: usize = 8;

/// Four tenants over `mutation_stream` city networks, round-robin: each
/// round gives every tenant one step (two rounds in five mutate, the
/// others `enqueue`, staggered across tenants),
/// and every eighth round ends with a `run`.
fn churn_drain(seed: u64) -> Workload {
    let mut tenants = Vec::new();
    for t in 0..CHURN_TENANTS {
        let base = mutation_stream(
            CHURN_CITIES,
            CHURN_REGIONS,
            0,
            seed.wrapping_mul(CHURN_TENANTS as u64)
                .wrapping_add(t as u64),
        );
        let tc = base
            .schema
            .rel("Train-Connections")
            .expect("city network relation");
        let mut tenant =
            TenantInput::new(format!("t{t}"), base.ontology, base.schema, base.instance);
        for (shape, q) in city_query_shapes(tc).into_iter().enumerate() {
            tenant
                .queries
                .push((q, city_rule(shape, "Train-Connections")));
        }
        tenants.push(tenant);
    }
    let mut live: Vec<LiveRel> = tenants
        .iter()
        .map(|t| {
            LiveRel::new(
                &t.instance,
                t.schema.rel("Train-Connections").expect("relation"),
            )
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc4a2_0d7a);
    let (mut random, mut fresh) = city_edits(CHURN_CITIES);
    let mut steps = Vec::new();
    for round in 0..CHURN_ROUNDS {
        for (t, live) in live.iter_mut().enumerate() {
            if (round + t) % 5 < 2 {
                let mut delta = Delta::new();
                for _ in 0..rng.gen_range(1..4usize) {
                    live.mutate(&mut delta, &mut rng, &mut random, &mut fresh);
                }
                steps.push(Step::Mutate { tenant: t, delta });
            } else {
                let query = round % 3;
                let arity = tenants[t].queries[query].0.arity();
                steps.push(Step::Enqueue {
                    tenant: t,
                    query,
                    tuple: city_tuple(&mut rng, CHURN_CITIES, arity),
                });
            }
        }
        if round % CHURN_DRAIN_EVERY == CHURN_DRAIN_EVERY - 1 || round == CHURN_ROUNDS - 1 {
            steps.push(Step::Run);
        }
    }
    let probes = (0..CHURN_TENANTS * 4)
        .map(|i| {
            let (tenant, query) = (i % CHURN_TENANTS, i % 3);
            Step::Ask {
                tenant,
                algo: Algo::Exhaustive,
                query,
                tuple: city_tuple(
                    &mut rng,
                    CHURN_CITIES,
                    tenants[tenant].queries[query].0.arity(),
                ),
                foil: None,
            }
        })
        .collect();
    Workload {
        name: "churn_drain",
        seed,
        tenants,
        steps,
        lines: Vec::new(),
        probes,
        probe_lines: Vec::new(),
        why: "Write-heavy and multi-tenant: every delta invalidates the relation, so UCQ \
              re-evaluation, apply_delta, the WAL and the fair-share batch drain do the work.",
    }
}

const RETAIL_PRODUCTS: usize = 96;
const RETAIL_STORES: usize = 48;
const RETAIL_CATEGORIES: usize = 8;
const RETAIL_REGIONS: usize = 4;
const RETAIL_PAIRS: usize = 500;
const RETAIL_CATALOG_SEED: u64 = 0x007e_7a11;
/// A mutate precedes every this-many-th pair (3 % of the lines).
const RETAIL_MUTATE_EVERY: usize = 16;

/// One retail tenant; each pair sends `contrast` and then `ask …
/// incremental` for the same missing tuple. Pairs are drawn from the
/// live instance (the foil a stocked pair, the missing tuple an
/// unstocked one), so every question is valid when it is asked.
fn lub_contrast(seed: u64) -> Workload {
    // The catalog is fixed and the seed draws the stream: with 500 pairs
    // per stream, a seeded catalog moved the medians more than the
    // stream did.
    let sc = retail_scenario(
        RETAIL_PRODUCTS,
        RETAIL_STORES,
        RETAIL_CATEGORIES,
        RETAIL_REGIONS,
        RETAIL_CATALOG_SEED,
    );
    let schema = sc.why_not.schema.clone();
    let stock = schema.rel("Stock").expect("retail relation");
    let mut tenant = TenantInput::new(
        "t0".into(),
        sc.ontology,
        schema,
        sc.why_not.instance.clone(),
    );
    tenant
        .queries
        .push((stock_query(stock), "q(P, S) <- Stock(P, S)".to_string()));
    let mut live = LiveRel::new(&tenant.instance, stock);
    let pair = |rng: &mut StdRng| -> Tuple {
        vec![
            Value::str(format!("P{:04}", rng.gen_range(0..RETAIL_PRODUCTS))),
            Value::str(format!("S{:03}", rng.gen_range(0..RETAIL_STORES))),
        ]
    };
    let mut ghosts = 0usize;
    let mut fresh = |rng: &mut StdRng| -> Tuple {
        ghosts += 1;
        vec![
            Value::str(format!("G{ghosts:04}")),
            Value::str(format!("S{:03}", rng.gen_range(0..RETAIL_STORES))),
        ]
    };
    let mut random = pair;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1ab_c047);
    let draw_pair = |rng: &mut StdRng, live: &LiveRel| -> [Step; 2] {
        let foil = live.facts[rng.gen_range(0..live.facts.len())].clone();
        let missing = loop {
            let t = pair(rng);
            if !live.present.contains(&t) {
                break t;
            }
        };
        [
            Step::Ask {
                tenant: 0,
                algo: Algo::Contrast,
                query: 0,
                tuple: missing.clone(),
                foil: Some(foil),
            },
            Step::Ask {
                tenant: 0,
                algo: Algo::Incremental,
                query: 0,
                tuple: missing,
                foil: None,
            },
        ]
    };
    let mut steps = Vec::new();
    for p in 0..RETAIL_PAIRS {
        if p % RETAIL_MUTATE_EVERY == RETAIL_MUTATE_EVERY - 1 {
            let mut delta = Delta::new();
            live.mutate(&mut delta, &mut rng, &mut random, &mut fresh);
            steps.push(Step::Mutate { tenant: 0, delta });
        }
        steps.extend(draw_pair(&mut rng, &live));
    }
    // Probes are drawn against the final live state, so they are valid
    // questions when the restart check asks them.
    let probes = (0..8).flat_map(|_| draw_pair(&mut rng, &live)).collect();
    Workload {
        name: "lub_contrast",
        seed,
        tenants: vec![tenant],
        steps,
        lines: Vec::new(),
        probes,
        probe_lines: Vec::new(),
        why: "Algorithm 2 lub growth, the contrast separators and lazy lub repair do the work; \
              wire parsing and serialization are a small share.",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::samples_needed;

    #[test]
    fn every_stream_supports_a_p99_and_is_seed_deterministic() {
        for name in NAMES {
            let a = Workload::build(name, 7).unwrap();
            let questions = a.steps.iter().filter(|s| s.is_question()).count();
            assert!(
                questions >= samples_needed(99.0),
                "{name}: {questions} questions"
            );
            let b = Workload::build(name, 7).unwrap();
            assert_eq!(a.lines, b.lines, "{name}: same seed, same lines");
            let c = Workload::build(name, 8).unwrap();
            assert_ne!(a.lines, c.lines, "{name}: another seed, other lines");
        }
    }
}
