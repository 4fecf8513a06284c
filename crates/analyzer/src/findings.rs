//! Finding type, deterministic ordering, and the JSONL output format.
//!
//! The JSON shape is pinned by `schemas/analyzer-findings.schema.json`
//! (`mlpart-analyzer-findings-v1`): one object per line, fields in fixed
//! order, findings sorted by `(file, line, check)` — so two runs over the
//! same tree produce byte-identical output, and CI diffs are meaningful.

/// One rule violation at a specific source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path with forward slashes, e.g.
    /// `crates/fm/src/engine.rs`.
    pub file: String,
    /// 1-indexed line number.
    pub line: usize,
    /// The violated rule, e.g. `default-hasher` or `panic-unwrap`.
    pub check: &'static str,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// Name of the enclosing function, when the outline found one.
    pub context: Option<String>,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.check, self.snippet
        )?;
        if let Some(ctx) = &self.context {
            write!(f, " (in fn {ctx})")?;
        }
        Ok(())
    }
}

impl Finding {
    /// Renders the finding as one `mlpart-analyzer-findings-v1` JSON line.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(128);
        s.push_str("{\"v\":1,\"file\":\"");
        json_escape_into(&self.file, &mut s);
        s.push_str("\",\"line\":");
        s.push_str(&self.line.to_string());
        s.push_str(",\"check\":\"");
        json_escape_into(self.check, &mut s);
        s.push_str("\",\"snippet\":\"");
        json_escape_into(&self.snippet, &mut s);
        s.push('"');
        if let Some(ctx) = &self.context {
            s.push_str(",\"context\":\"");
            json_escape_into(ctx, &mut s);
            s.push('"');
        }
        s.push('}');
        s
    }
}

/// Sorts findings into the canonical order and drops duplicates that point
/// at the same `(file, line, check)` (e.g. an aliased import whose `use`
/// line names both the original and the alias).
pub fn canonicalize(findings: &mut Vec<Finding>) {
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.check, a.snippet.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.check,
            b.snippet.as_str(),
        ))
    });
    findings.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.check == b.check);
}

/// Escapes `s` for inclusion in a JSON string literal.
fn json_escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_shape() {
        let f = Finding {
            file: "crates/fm/src/engine.rs".into(),
            line: 7,
            check: "panic-unwrap",
            snippet: "x.unwrap()".into(),
            context: Some("apply_move".into()),
        };
        assert_eq!(
            f.to_json(),
            "{\"v\":1,\"file\":\"crates/fm/src/engine.rs\",\"line\":7,\
             \"check\":\"panic-unwrap\",\"snippet\":\"x.unwrap()\",\
             \"context\":\"apply_move\"}"
        );
    }

    #[test]
    fn json_escapes_quotes_and_newlines() {
        let f = Finding {
            file: "a.rs".into(),
            line: 1,
            check: "panic-expect",
            snippet: "x.expect(\"bad \\ value\")".into(),
            context: None,
        };
        let j = f.to_json();
        assert!(j.contains("\\\"bad \\\\ value\\\""));
        assert!(!j.contains("\"context\""));
    }

    /// Every check name the passes can emit must be listed in the committed
    /// schema's enum, so `--format json` output always validates.
    #[test]
    fn schema_enum_covers_every_check() {
        let schema = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../../schemas/analyzer-findings.schema.json"),
        )
        .expect("schemas/analyzer-findings.schema.json exists");
        assert!(schema.contains("mlpart-analyzer-findings-v1"));
        for check in [
            "panic-unwrap",
            "panic-expect",
            "panic-macro",
            "panic-index",
            "default-hasher",
            "entropy-rng",
            "wall-clock",
            "id-truncation",
            "debug-print",
        ] {
            assert!(
                schema.contains(&format!("\"{check}\"")),
                "schema enum is missing {check}"
            );
        }
    }

    #[test]
    fn canonical_order_and_dedup() {
        let mk = |file: &str, line, check: &'static str| Finding {
            file: file.into(),
            line,
            check,
            snippet: String::new(),
            context: None,
        };
        let mut v = vec![
            mk("b.rs", 1, "wall-clock"),
            mk("a.rs", 9, "wall-clock"),
            mk("a.rs", 2, "default-hasher"),
            mk("a.rs", 2, "default-hasher"),
        ];
        canonicalize(&mut v);
        assert_eq!(v.len(), 3);
        assert_eq!(v[0].file, "a.rs");
        assert_eq!(v[0].line, 2);
        assert_eq!(v[2].file, "b.rs");
    }
}
