//! The comparable payload of an answer, and the parity comparator.
//!
//! A payload is a canonical string: the explanation array, the three
//! contrast fields, the mutate counts that do not depend on cache state,
//! or the error kind. The direct reference renders payloads from
//! session results; the wire side extracts them from response lines.

use whynot_concepts::LsConcept;
use whynot_core::{
    ConceptName, ContrastAnswer, Explanation, ExplicitOntology, Ontology, WhyNotSession,
};
use whynot_relation::json::Json;
use whynot_relation::Schema;
use whynot_server::ServerError;

/// `explanations=[…]` for Algorithm 1.
pub fn explanations(arr: &Json) -> String {
    format!("explanations={arr}")
}

/// `explanation=…` for Algorithm 2.
pub fn explanation(e: &Json) -> String {
    format!("explanation={e}")
}

/// The three contrast fields.
pub fn contrast(difference: &Json, foil_mge: &Json, ontology_difference: &Json) -> String {
    format!("difference={difference};foil_mge={foil_mge};ontology_difference={ontology_difference}")
}

/// A rejection, by wire kind.
pub fn error(kind: &str) -> String {
    format!("error={kind}")
}

/// The instance-level outcome of a mutate.
pub fn mutate(inserted: i128, deleted: i128, changed: i128) -> String {
    format!("mutate ins={inserted} del={deleted} changed={changed}")
}

/// An Algorithm 1 explanation as its array of concept names, rendered
/// here rather than by the server's serializer, so that a serializer
/// defect shows as a mismatch.
pub fn names(ontology: &ExplicitOntology, e: &Explanation<ConceptName>) -> Json {
    Json::Arr(
        e.concepts
            .iter()
            .map(|c| Json::str(ontology.concept_name(c)))
            .collect(),
    )
}

/// An `LS`-concept explanation as its array of concept strings.
pub fn ls_names(schema: &Schema, e: &Explanation<LsConcept>) -> Json {
    Json::Arr(
        e.concepts
            .iter()
            .map(|c| Json::str(c.display(schema).to_string()))
            .collect(),
    )
}

/// The wire fields of a contrast answer: the lub separators, the
/// foil-aligned MGE (rendered by `render_ls`) and the named
/// ontology-level difference.
pub fn contrast_fields(
    session: &WhyNotSession<'_, ExplicitOntology>,
    answer: &ContrastAnswer,
    named: &[Vec<ConceptName>],
    render_ls: fn(&Schema, &Explanation<LsConcept>) -> Json,
) -> (Json, Json, Json) {
    let schema = session.schema();
    let ontology = session.ontology();
    let difference = Json::Arr(
        answer
            .difference
            .iter()
            .map(|c| match c {
                Some(c) => Json::str(c.display(schema).to_string()),
                None => Json::Null,
            })
            .collect(),
    );
    let foil_mge = match &answer.foil_mge {
        Some(e) => render_ls(schema, e),
        None => Json::Null,
    };
    let ontology_difference = Json::Arr(
        named
            .iter()
            .map(|cs| {
                Json::Arr(
                    cs.iter()
                        .map(|c| Json::str(ontology.concept_name(c)))
                        .collect(),
                )
            })
            .collect(),
    );
    (difference, foil_mge, ontology_difference)
}

/// The payload of one answered response object (`ask`, `contrast`,
/// `result` or `mutate`).
pub fn from_response(doc: &Json) -> String {
    if doc.get("ok").and_then(Json::as_bool) != Some(true) {
        return error(doc.get("kind").and_then(Json::as_str).unwrap_or("?"));
    }
    if let Some(arr) = doc.get("explanations") {
        return explanations(arr);
    }
    if let Some(e) = doc.get("explanation") {
        return explanation(e);
    }
    if let (Some(d), Some(f), Some(o)) = (
        doc.get("difference"),
        doc.get("foil_mge"),
        doc.get("ontology_difference"),
    ) {
        return contrast(d, f, o);
    }
    let count = |k: &str| doc.get(k).and_then(Json::as_int).unwrap_or(-1);
    mutate(
        count("inserted"),
        count("deleted"),
        count("changed_relations"),
    )
}

/// The payload of a session error.
pub fn session_error(e: whynot_core::SessionError) -> String {
    error(ServerError::from(e).kind())
}

/// Indices where `got` differs from `expected` (a missing answer counts).
pub fn mismatches(expected: &[Option<String>], got: &[Option<String>]) -> Vec<usize> {
    (0..expected.len().max(got.len()))
        .filter(|&i| expected.get(i).cloned().flatten() != got.get(i).cloned().flatten())
        .collect()
}

/// The parity self-check: alters the first expected answer and confirms
/// the comparator flags exactly that position.
pub fn comparator_catches_altered_answer(
    expected: &[Option<String>],
    got: &[Option<String>],
) -> bool {
    let Some(i) = expected.iter().position(Option::is_some) else {
        return false;
    };
    let mut altered = expected.to_vec();
    if let Some(p) = altered[i].as_mut() {
        p.push('!');
    }
    let before = mismatches(expected, got);
    let after = mismatches(&altered, got);
    after.contains(&i) && !before.contains(&i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparator_flags_an_altered_answer() {
        let expected = vec![
            Some(explanations(&Json::Arr(vec![Json::str("Europe")]))),
            None,
            Some(error("tuple-is-answer")),
        ];
        let got = expected.clone();
        assert!(mismatches(&expected, &got).is_empty());
        assert!(comparator_catches_altered_answer(&expected, &got));

        let mut wrong = got.clone();
        wrong[2] = Some(error("queue-full"));
        assert_eq!(mismatches(&expected, &wrong), vec![2]);
        wrong.pop();
        assert_eq!(
            mismatches(&expected, &wrong),
            vec![2],
            "a missing answer counts"
        );
    }

    #[test]
    fn wire_payloads_match_reference_rendering() {
        let doc =
            Json::parse(r#"{"ok":true,"command":"ask","explanations":[["Europe","Region1"]]}"#)
                .unwrap();
        let arr = Json::Arr(vec![Json::Arr(vec![
            Json::str("Europe"),
            Json::str("Region1"),
        ])]);
        assert_eq!(from_response(&doc), explanations(&arr));
        let doc =
            Json::parse(r#"{"ok":false,"command":"ask","kind":"foil-not-answer","error":"x"}"#)
                .unwrap();
        assert_eq!(from_response(&doc), error("foil-not-answer"));
        let doc = Json::parse(
            r#"{"ok":true,"command":"mutate","seq":3,"inserted":1,"deleted":0,"changed_relations":1,"invalidated":4,"retained":9}"#,
        )
        .unwrap();
        assert_eq!(from_response(&doc), mutate(1, 0, 1));
    }
}
