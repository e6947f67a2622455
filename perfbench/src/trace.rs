//! The traced run: spans timed from the benchmark's own code around the
//! public calls `ServerCore::handle_line` makes, replayed in the same
//! order by [`Mirror`]. The spans of a line share a request id; each
//! span names its parent, and a span's self time is its duration minus
//! its children's.

use crate::payload;
use crate::workload::Workload;
use std::collections::{BTreeMap, VecDeque};
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;
use whynot_concepts::parse_value;
use whynot_core::{
    CacheBudget, ContrastQuestion, Executor, ExplicitOntology, LubKind, SessionStats,
    WhyNotQuestion, WhyNotSession, WorkerStats,
};
use whynot_relation::json::{Json, JsonObj};
use whynot_relation::wire::delta_from_json;
use whynot_relation::{parse_query, Tuple};
use whynot_server::tenant::{intern_definition, TenantCore};
use whynot_server::{
    explanation_to_json, ls_explanation_to_json, Durability, ServerConfig, ServerError,
};

/// One timed interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub req: u32,
    pub parent: Option<usize>,
    pub layer: &'static str,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// An in-memory span recorder; spans are kept until the run ends.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    pub req: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            req: 0,
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, layer: &'static str, name: &'static str) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            req: self.req,
            parent: self.open.last().copied(),
            layer,
            name,
            start,
            end: start,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost span.
    pub fn exit(&mut self, id: usize) {
        let end = self.now();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end = end;
    }

    /// Times `f` as one leaf span and returns its result.
    pub fn time<R>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(layer, name);
        let r = f();
        self.exit(id);
        r
    }

    /// Writes the spans as tab-separated rows.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "req\tid\tparent\tlayer\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.req, s.layer, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Each span's self time: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p] += s.ns();
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| s.ns().saturating_sub(c))
        .collect()
}

/// Self time summed per `layer.name`, with call counts; each span's time
/// is multiplied by the time scale of its request.
pub fn by_name(spans: &[Span], scale: impl Fn(u32) -> f64) -> BTreeMap<String, (usize, u64)> {
    let mut out: BTreeMap<String, (usize, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(format!("{}.{}", s.layer, s.name)).or_default();
        e.0 += 1;
        e.1 += (own as f64 * scale(s.req)) as u64;
    }
    out
}

/// Counters the mirror reads at the same call boundaries it times.
#[derive(Default)]
pub struct Counts {
    pub delta_invalidated: usize,
    pub delta_retained: usize,
    pub lubs_repaired: usize,
    pub lubs_recomputed: usize,
    /// `last_batch_workers` after every batch.
    pub batches: Vec<Vec<WorkerStats>>,
}

struct MirrorTenant {
    core: TenantCore,
    session: WhyNotSession<'static, ExplicitOntology>,
    queue: VecDeque<(u64, WhyNotQuestion)>,
    seq: u64,
}

/// A replay of `ServerCore`'s dispatch, calling the same public
/// functions in the same order with a span around each call. It serves
/// only the commands the workloads send.
pub struct Mirror {
    config: ServerConfig,
    exec: Executor,
    durability: Durability,
    tenants: BTreeMap<String, MirrorTenant>,
    next_ticket: u64,
    pub counts: Counts,
}

fn ok(command: &str) -> JsonObj {
    JsonObj::new().field("ok", true).field("command", command)
}

fn rejection(e: &ServerError, command: &str) -> JsonObj {
    JsonObj::new()
        .field("ok", false)
        .field("command", command)
        .field("kind", e.kind())
        .field("error", e.to_string())
}

fn values(text: &str) -> Tuple {
    text.split(',').map(parse_value).collect()
}

/// The answer of one question, before serialization.
enum Answer {
    All(Vec<whynot_core::Explanation<whynot_core::ConceptName>>),
    Ls(whynot_core::Explanation<whynot_concepts::LsConcept>),
    Contrast(
        std::sync::Arc<whynot_core::ContrastAnswer>,
        Vec<Vec<whynot_core::ConceptName>>,
    ),
}

impl Mirror {
    pub fn new(config: ServerConfig) -> Self {
        let exec = Executor::with_threads(config.threads.unwrap_or(1));
        let durability = Durability::new(config.snapshot_dir.clone().expect("durable config"));
        Mirror {
            config,
            exec,
            durability,
            tenants: BTreeMap::new(),
            next_ticket: 0,
            counts: Counts::default(),
        }
    }

    fn budget(&self) -> CacheBudget {
        self.config.session_budget()
    }

    /// `create … end` for every tenant: definition parse, session build
    /// and the initial snapshot.
    pub fn setup(&mut self, tr: &mut Tracer, w: &Workload) -> Result<(), ServerError> {
        for (i, t) in w.tenants.iter().enumerate() {
            tr.req = i as u32;
            let (core, instance) =
                tr.time("server", "definition", || intern_definition(&t.definition))?;
            let session = tr.time("server", "session_build", || {
                let mut s = WhyNotSession::new(core.ontology, core.schema, &instance);
                s.set_executor(self.exec);
                s.set_cache_budget(self.budget());
                s
            });
            tr.time("server", "snapshot_write", || {
                self.durability
                    .write_snapshot(&t.name, core.stripped, core.schema, &instance, 0)
            })?;
            self.tenants.insert(
                t.name.clone(),
                MirrorTenant {
                    core,
                    session,
                    queue: VecDeque::new(),
                    seq: 0,
                },
            );
        }
        Ok(())
    }

    /// `evict` then `load` of every tenant: snapshot read, definition
    /// re-intern, session build and WAL replay.
    pub fn restart(&mut self, tr: &mut Tracer) -> Result<(), ServerError> {
        let names: Vec<String> = self.tenants.keys().cloned().collect();
        self.tenants.clear();
        for (i, name) in names.iter().enumerate() {
            tr.req = i as u32;
            let loaded = tr.time("server", "load", || self.durability.load(name))?;
            let (core, _) = tr.time("server", "definition", || {
                intern_definition(&loaded.definition.stripped)
            })?;
            let mut session = tr.time("server", "session_build", || {
                let mut s = WhyNotSession::new(core.ontology, core.schema, &loaded.instance);
                s.set_executor(self.exec);
                s.set_cache_budget(self.budget());
                s
            });
            let seq = tr.time("server", "replay", || {
                let mut seq = loaded.snapshot_seq;
                for (record_seq, delta) in &loaded.wal {
                    session.apply_delta(delta)?;
                    seq = *record_seq;
                }
                Ok::<u64, whynot_core::SessionError>(seq)
            })?;
            self.tenants.insert(
                name.clone(),
                MirrorTenant {
                    core,
                    session,
                    queue: VecDeque::new(),
                    seq,
                },
            );
        }
        Ok(())
    }

    /// Session counters summed over tenants.
    pub fn stats(&self) -> Vec<SessionStats> {
        self.tenants.values().map(|t| t.session.stats()).collect()
    }

    /// One protocol line, traced under a root `server.line` span.
    pub fn line(&mut self, tr: &mut Tracer, line: &str) -> Vec<String> {
        let root = tr.enter("server", "line");
        let trimmed = line.trim();
        let (command, rest) = match trimmed.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (trimmed, ""),
        };
        let out = match command {
            "ask" => vec![self.ask(tr, rest, "ask")],
            "contrast" => match rest.split_once('|') {
                Some((tenant, tail)) => {
                    vec![self.ask(
                        tr,
                        &format!("{} contrast |{tail}", tenant.trim()),
                        "contrast",
                    )]
                }
                None => vec![self.respond(
                    tr,
                    Err(ServerError::Protocol("contrast".into())),
                    "contrast",
                )],
            },
            "enqueue" => {
                let r = self.enqueue(tr, rest);
                vec![self.respond(tr, r, "enqueue")]
            }
            "mutate" => {
                let r = self.mutate(tr, rest);
                vec![self.respond(tr, r, "mutate")]
            }
            "run" => self.run(tr),
            other => vec![self.respond(
                tr,
                Err(ServerError::Protocol(format!(
                    "command {other:?} is not mirrored"
                ))),
                other,
            )],
        };
        tr.exit(root);
        out
    }

    fn respond(&self, tr: &mut Tracer, r: Result<JsonObj, ServerError>, command: &str) -> String {
        tr.time("server", "serialize", || match r {
            Ok(obj) => obj.build().to_string(),
            Err(e) => rejection(&e, command).build().to_string(),
        })
    }

    /// Parses `<tenant> <algo> | <query> | <missing>[ | <foil>]`.
    fn parse(
        &self,
        tr: &mut Tracer,
        rest: &str,
    ) -> Result<(String, String, WhyNotQuestion, Option<Tuple>), ServerError> {
        let mut parts = rest.splitn(3, '|');
        let head = parts.next().unwrap_or("").trim();
        let (query_text, tail) = match (parts.next(), parts.next()) {
            (Some(q), Some(m)) => (q.trim(), m.trim()),
            _ => return Err(ServerError::Protocol("malformed question".into())),
        };
        let (tenant, algo) = head
            .split_once(char::is_whitespace)
            .ok_or_else(|| ServerError::Protocol("missing algorithm".into()))?;
        let (tenant, algo) = (tenant.trim().to_string(), algo.trim().to_string());
        let schema = self
            .tenants
            .get(&tenant)
            .ok_or_else(|| ServerError::NoSuchTenant(tenant.clone()))?
            .core
            .schema;
        let (question, foil) = tr
            .time("relation", "request_parse", || {
                let (missing, foil) = match (algo.as_str(), tail.split_once('|')) {
                    ("contrast", Some((m, f))) => (values(m.trim()), Some(values(f.trim()))),
                    _ => (values(tail), None),
                };
                parse_query(schema, query_text).map(|q| (WhyNotQuestion::new(q, missing), foil))
            })
            .map_err(|e| ServerError::Invalid(format!("query: {e}")))?;
        Ok((tenant, algo, question, foil))
    }

    /// `answers` ahead of the algorithm: it fills the cache the
    /// algorithm's binding step reads, so UCQ evaluation is timed on its
    /// own and the algorithm span holds only the search. The span is
    /// `relation.ucq_eval` when the call evaluated the query and
    /// `relation.answers_cached` when it hit the cache.
    fn eval_answers(&self, tr: &mut Tracer, tenant: &str, q: &WhyNotQuestion) {
        let Some(t) = self.tenants.get(tenant) else {
            return;
        };
        let before = t.session.stats().cached_queries;
        let id = tr.enter("relation", "answers_cached");
        t.session.answers(&q.query);
        tr.exit(id);
        // The answer cache grew: this call evaluated the UCQ.
        if t.session.stats().cached_queries > before {
            tr.spans[id].name = "ucq_eval";
        }
    }

    fn answer_one(
        &self,
        tr: &mut Tracer,
        t: &MirrorTenant,
        algo: &str,
        q: &WhyNotQuestion,
        foil: Option<Tuple>,
    ) -> Result<Answer, ServerError> {
        let s = &t.session;
        Ok(match algo {
            "exhaustive" => Answer::All(tr.time("core", "exhaustive", || s.exhaustive(q))?),
            "incremental" => Answer::Ls(tr.time("core", "incremental", || {
                s.incremental(q, LubKind::SelectionFree)
            })?),
            "contrast" => {
                let cq = ContrastQuestion::new(
                    q.query.clone(),
                    q.tuple.clone(),
                    foil.unwrap_or_default(),
                );
                let a = tr.time("core", "contrast", || {
                    s.contrast(&cq, LubKind::SelectionFree)
                })?;
                let named = tr.time("core", "ontology_difference", || {
                    s.contrast_ontology_difference(&cq)
                })?;
                Answer::Contrast(a, named)
            }
            other => {
                return Err(ServerError::Protocol(format!(
                    "algorithm {other:?} is not mirrored"
                )))
            }
        })
    }

    fn attach(t: &MirrorTenant, obj: JsonObj, answer: &Answer) -> JsonObj {
        let s = &t.session;
        match answer {
            Answer::All(es) => obj.field(
                "explanations",
                Json::Arr(
                    es.iter()
                        .map(|e| explanation_to_json(s.ontology(), e))
                        .collect(),
                ),
            ),
            Answer::Ls(e) => obj.field("explanation", ls_explanation_to_json(s.schema(), e)),
            Answer::Contrast(a, named) => {
                let (d, f, o) = payload::contrast_fields(s, a, named, ls_explanation_to_json);
                obj.field("difference", d)
                    .field("foil_mge", f)
                    .field("ontology_difference", o)
            }
        }
    }

    fn ask(&mut self, tr: &mut Tracer, rest: &str, command: &str) -> String {
        let (tenant, algo, q, foil) = match self.parse(tr, rest) {
            Ok(p) => p,
            Err(e) => return self.respond(tr, Err(e), command),
        };
        self.eval_answers(tr, &tenant, &q);
        let t = &self.tenants[&tenant];
        let answer = self.answer_one(tr, t, &algo, &q, foil);
        tr.time("server", "serialize", || match answer {
            Ok(a) => Self::attach(
                t,
                ok(command)
                    .field("tenant", tenant.as_str())
                    .field("algo", algo.as_str()),
                &a,
            )
            .build()
            .to_string(),
            Err(e) => rejection(&e, command).build().to_string(),
        })
    }

    fn enqueue(&mut self, tr: &mut Tracer, rest: &str) -> Result<JsonObj, ServerError> {
        let (tenant, _algo, q, _) = self.parse(tr, rest)?;
        let depth = self.config.queue_depth;
        let ticket = self.next_ticket;
        let t = self
            .tenants
            .get_mut(&tenant)
            .ok_or_else(|| ServerError::NoSuchTenant(tenant.clone()))?;
        if t.queue.len() >= depth {
            return Err(ServerError::QueueFull { tenant, depth });
        }
        t.queue.push_back((ticket, q));
        self.next_ticket += 1;
        Ok(ok("enqueue")
            .field("tenant", tenant.as_str())
            .field("ticket", ticket)
            .field("queued", t.queue.len()))
    }

    fn mutate(&mut self, tr: &mut Tracer, rest: &str) -> Result<JsonObj, ServerError> {
        let (tenant, text) = rest
            .split_once('|')
            .ok_or_else(|| ServerError::Protocol("expected `<tenant> | <delta json>`".into()))?;
        let tenant = tenant.trim().to_string();
        let t = self
            .tenants
            .get_mut(&tenant)
            .ok_or_else(|| ServerError::NoSuchTenant(tenant.clone()))?;
        let schema = t.core.schema;
        let delta = tr
            .time("relation", "delta_decode", || {
                Json::parse(text.trim()).and_then(|doc| delta_from_json(schema, &doc))
            })
            .map_err(|e| ServerError::Invalid(format!("delta: {e}")))?;
        let seq = t.seq + 1;
        let durability = &self.durability;
        tr.time("server", "wal_append", || {
            durability.append_wal(&tenant, schema, seq, &delta)
        })?;
        let stats = tr.time("core", "apply_delta", || t.session.apply_delta(&delta))?;
        t.seq = seq;
        self.counts.delta_invalidated += stats.invalidated();
        self.counts.delta_retained += stats.retained();
        self.counts.lubs_repaired += stats.lubs_repaired;
        self.counts.lubs_recomputed += stats.lubs_recomputed;
        Ok(ok("mutate")
            .field("tenant", tenant.as_str())
            .field("seq", seq)
            .field("inserted", stats.facts_inserted)
            .field("deleted", stats.facts_deleted)
            .field("changed_relations", stats.changed_relations)
            .field("invalidated", stats.invalidated())
            .field("retained", stats.retained()))
    }

    /// The fair-share drain: tenants in name order, at most `fair_share`
    /// tickets each per round; a share of several questions is answered
    /// as one executor batch.
    fn run(&mut self, tr: &mut Tracer) -> Vec<String> {
        let mut out = Vec::new();
        let share = self.config.fair_share.max(1);
        let names: Vec<String> = self.tenants.keys().cloned().collect();
        let (mut completed, mut rounds) = (0usize, 0usize);
        loop {
            let mut progressed = false;
            for name in &names {
                let take = self.tenants[name].queue.len().min(share);
                if take == 0 {
                    continue;
                }
                progressed = true;
                let batch: Vec<(u64, WhyNotQuestion)> = self
                    .tenants
                    .get_mut(name)
                    .map(|t| t.queue.drain(..take).collect())
                    .unwrap_or_default();
                completed += batch.len();
                for (_, q) in &batch {
                    self.eval_answers(tr, name, q);
                }
                let t = &self.tenants[name];
                let results: Vec<Result<Answer, ServerError>> = if batch.len() > 1 {
                    let questions: Vec<WhyNotQuestion> =
                        batch.iter().map(|(_, q)| q.clone()).collect();
                    let answers = tr.time("core", "batch", || {
                        t.session.answer_batch_with(&self.exec, &questions)
                    });
                    self.counts.batches.push(t.session.last_batch_workers());
                    answers
                        .into_iter()
                        .map(|r| r.map(Answer::All).map_err(ServerError::from))
                        .collect()
                } else {
                    vec![self.answer_one(tr, t, "exhaustive", &batch[0].1, None)]
                };
                for ((ticket, _), r) in batch.iter().zip(results) {
                    let line = tr.time("server", "serialize", || {
                        let base = ok("result")
                            .field("ticket", *ticket)
                            .field("tenant", name.as_str())
                            .field("algo", "exhaustive");
                        match r {
                            Ok(a) => Self::attach(t, base, &a).build().to_string(),
                            Err(e) => rejection(&e, "result")
                                .field("ticket", *ticket)
                                .field("tenant", name.as_str())
                                .field("algo", "exhaustive")
                                .build()
                                .to_string(),
                        }
                    });
                    out.push(line);
                }
            }
            if !progressed {
                break;
            }
            rounds += 1;
        }
        out.push(
            self.respond(
                tr,
                Ok(ok("run")
                    .field("completed", completed)
                    .field("rounds", rounds)),
                "run",
            ),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            req: 0,
            parent,
            layer: "server",
            name: "x",
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 40, 70),
            span(Some(2), 45, 50),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 25, 5]);
        // Self times partition the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_spans_and_keeps_request_ids() {
        let mut tr = Tracer {
            req: 7,
            ..Tracer::default()
        };
        let root = tr.enter("server", "line");
        let v = tr.time("relation", "request_parse", || 41 + 1);
        tr.exit(root);
        assert_eq!(v, 42);
        assert_eq!(tr.spans.len(), 2);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert!(tr.spans.iter().all(|s| s.req == 7 && s.end >= s.start));
        let names = by_name(&tr.spans, |_| 1.0);
        assert_eq!(names["relation.request_parse"].0, 1);
    }
}
