//! The untimed reference: the same stream answered by direct
//! `WhyNotSession` calls, with none of the serving layer in the way,
//! under the server's deferred-drain semantics (mutations apply at once,
//! enqueued questions are answered at the next `run`, against the
//! instance as it is then).

use crate::payload;
use crate::workload::{Algo, Step, TenantInput, Workload};
use whynot_core::{ContrastQuestion, ExplicitOntology, LubKind, WhyNotSession};
use whynot_relation::json::Json;

/// Expected payloads: one per step (`None` for `run`) and one per probe.
pub struct Reference {
    pub steps: Vec<Option<String>>,
    pub probes: Vec<String>,
}

/// Answers one question step directly.
pub fn answer(
    session: &WhyNotSession<'_, ExplicitOntology>,
    tenant: &TenantInput,
    step: &Step,
) -> String {
    let (algo, query, tuple, foil) = match step {
        Step::Ask {
            algo,
            query,
            tuple,
            foil,
            ..
        } => (*algo, *query, tuple, foil.as_ref()),
        Step::Enqueue { query, tuple, .. } => (Algo::Exhaustive, *query, tuple, None),
        _ => unreachable!("only question steps are answered"),
    };
    let q = tenant.question(query, tuple);
    match algo {
        Algo::Exhaustive => match session.exhaustive(&q) {
            Ok(es) => payload::explanations(&Json::Arr(
                es.iter()
                    .map(|e| payload::names(&tenant.ontology, e))
                    .collect(),
            )),
            Err(e) => payload::session_error(e),
        },
        Algo::Incremental => match session.incremental(&q, LubKind::SelectionFree) {
            Ok(e) => payload::explanation(&payload::ls_names(&tenant.schema, &e)),
            Err(e) => payload::session_error(e),
        },
        Algo::Contrast => {
            let cq = ContrastQuestion::new(q.query, q.tuple, foil.cloned().unwrap_or_default());
            let answered = session.contrast(&cq, LubKind::SelectionFree).and_then(|a| {
                let named = session.contrast_ontology_difference(&cq)?;
                Ok(payload::contrast_fields(
                    session,
                    &a,
                    &named,
                    payload::ls_names,
                ))
            });
            match answered {
                Ok((d, f, o)) => payload::contrast(&d, &f, &o),
                Err(e) => payload::session_error(e),
            }
        }
    }
}

/// Replays the workload's stream and probes against direct sessions.
pub fn replay(w: &Workload) -> Reference {
    let mut sessions: Vec<WhyNotSession<'_, ExplicitOntology>> = w
        .tenants
        .iter()
        .map(|t| WhyNotSession::new(&t.ontology, &t.schema, &t.instance))
        .collect();
    let mut steps: Vec<Option<String>> = vec![None; w.steps.len()];
    let mut buffered: Vec<usize> = Vec::new();
    for (i, step) in w.steps.iter().enumerate() {
        match step {
            Step::Ask { tenant, .. } => {
                steps[i] = Some(answer(&sessions[*tenant], &w.tenants[*tenant], step));
            }
            Step::Enqueue { .. } => buffered.push(i),
            Step::Mutate { tenant, delta } => {
                steps[i] = Some(match sessions[*tenant].apply_delta(delta) {
                    Ok(s) => payload::mutate(
                        s.facts_inserted as i128,
                        s.facts_deleted as i128,
                        s.changed_relations as i128,
                    ),
                    Err(e) => payload::session_error(e),
                });
            }
            Step::Run => {
                for j in buffered.drain(..) {
                    let t = w.steps[j].tenant().expect("questions address a tenant");
                    steps[j] = Some(answer(&sessions[t], &w.tenants[t], &w.steps[j]));
                }
            }
        }
    }
    let probes = w
        .probes
        .iter()
        .map(|p| {
            let t = p.tenant().expect("probes address a tenant");
            answer(&sessions[t], &w.tenants[t], p)
        })
        .collect();
    Reference { steps, probes }
}
