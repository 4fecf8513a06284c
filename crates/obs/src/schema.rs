//! Minimal JSON Schema validator.
//!
//! CI validates emitted Chrome traces and run reports against checked-in
//! schemas (`schemas/*.schema.json`). With no external dependencies, this
//! module implements the subset of JSON Schema those schemas use: `type`
//! (string or array of strings), `required`, `properties`, `items`, `enum`,
//! and `minItems`. Unknown keywords are ignored, as the spec requires.

use crate::json::Json;

/// Validates `doc` against `schema`, returning every violation as a
/// `path: message` string. Empty result means the document conforms.
pub fn validate(schema: &Json, doc: &Json) -> Vec<String> {
    let mut errors = Vec::new();
    check(schema, doc, "$", &mut errors);
    errors
}

fn type_matches(name: &str, doc: &Json) -> bool {
    match name {
        "null" => matches!(doc, Json::Null),
        "boolean" => matches!(doc, Json::Bool(_)),
        "number" => matches!(doc, Json::Num(_) | Json::Int(_)),
        "integer" => matches!(doc, Json::Int(_)) || matches!(doc, Json::Num(n) if n.fract() == 0.0),
        "string" => matches!(doc, Json::Str(_)),
        "array" => matches!(doc, Json::Arr(_)),
        "object" => matches!(doc, Json::Obj(_)),
        _ => false,
    }
}

fn check(schema: &Json, doc: &Json, path: &str, errors: &mut Vec<String>) {
    if let Some(ty) = schema.get("type") {
        let names: Vec<&str> = match ty {
            Json::Str(s) => vec![s.as_str()],
            Json::Arr(items) => items.iter().filter_map(Json::as_str).collect(),
            _ => Vec::new(),
        };
        if !names.is_empty() && !names.iter().any(|n| type_matches(n, doc)) {
            errors.push(format!(
                "{path}: expected type {}, got {}",
                names.join("|"),
                doc.type_name()
            ));
            return; // structural keywords below assume the right type
        }
    }
    if let Some(Json::Arr(options)) = schema.get("enum") {
        if !options.contains(doc) {
            errors.push(format!("{path}: value not in enum"));
        }
    }
    if let Some(Json::Arr(required)) = schema.get("required") {
        for key in required.iter().filter_map(Json::as_str) {
            if doc.get(key).is_none() {
                errors.push(format!("{path}: missing required key \"{key}\""));
            }
        }
    }
    if let (Some(Json::Obj(props)), Json::Obj(_)) = (schema.get("properties"), doc) {
        for (key, sub) in props {
            if let Some(value) = doc.get(key) {
                check(sub, value, &format!("{path}.{key}"), errors);
            }
        }
    }
    if let (Some(items_schema), Json::Arr(items)) = (schema.get("items"), doc) {
        for (i, item) in items.iter().enumerate() {
            check(items_schema, item, &format!("{path}[{i}]"), errors);
        }
    }
    if let (Some(min), Json::Arr(items)) = (schema.get("minItems").and_then(Json::as_num), doc) {
        if (items.len() as f64) < min {
            errors.push(format!("{path}: fewer than {min} items"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    const SCHEMA: &str = r#"{
        "type": "object",
        "required": ["schema", "events"],
        "properties": {
            "schema": {"type": "string", "enum": ["v1"]},
            "events": {
                "type": "array",
                "minItems": 1,
                "items": {
                    "type": "object",
                    "required": ["name", "ts"],
                    "properties": {
                        "name": {"type": "string"},
                        "ts": {"type": "integer"}
                    }
                }
            }
        }
    }"#;

    #[test]
    fn conforming_document_passes() {
        let schema = parse(SCHEMA).unwrap();
        let doc = parse(r#"{"schema":"v1","events":[{"name":"run","ts":12}]}"#).unwrap();
        assert_eq!(validate(&schema, &doc), Vec::<String>::new());
    }

    #[test]
    fn violations_are_reported_with_paths() {
        let schema = parse(SCHEMA).unwrap();
        let doc = parse(r#"{"schema":"v2","events":[{"name":7,"ts":1.5}]}"#).unwrap();
        let errors = validate(&schema, &doc);
        assert!(errors
            .iter()
            .any(|e| e.contains("$.schema") && e.contains("enum")));
        assert!(errors.iter().any(|e| e.contains("$.events[0].name")));
        assert!(errors.iter().any(|e| e.contains("$.events[0].ts")));
    }

    #[test]
    fn missing_required_and_empty_array() {
        let schema = parse(SCHEMA).unwrap();
        let doc = parse(r#"{"schema":"v1","events":[]}"#).unwrap();
        let errors = validate(&schema, &doc);
        assert_eq!(errors, vec!["$.events: fewer than 1 items".to_string()]);
        let doc = parse(r#"{"schema":"v1"}"#).unwrap();
        let errors = validate(&schema, &doc);
        assert!(errors[0].contains("missing required key \"events\""));
    }

    #[test]
    fn wrong_root_type_short_circuits() {
        let schema = parse(SCHEMA).unwrap();
        let doc = parse("[1,2]").unwrap();
        let errors = validate(&schema, &doc);
        assert_eq!(errors.len(), 1);
        assert!(errors[0].contains("expected type object"));
    }
}
