//! Source-scan lints, re-hosted on the real lexer ([`crate::lexer`]) and
//! item parser ([`crate::items`]): panics-in-library-code and leftover
//! debug markers (`RA3xx`), the telemetry-coverage audit (`RA209`), the
//! event-name/provenance hygiene audit (`RA210`), and — through
//! [`crate::dataflow`] — the token-level dataflow lints (`RA4xx`).
//!
//! Because every pass works on tokens, needles inside string literals,
//! raw strings, char literals and (nested) block comments can no longer
//! produce false positives; the old line scanner's `concat!` needle
//! obfuscation is gone for the same reason.

use crate::callgraph::{macro_sites, Workspace};
use crate::diag::Diagnostic;
use crate::items::{parse_file, FileItems};
use crate::lexer::TokenKind;
use std::path::{Path, PathBuf};

/// Directories never scanned (test/bench/example code may unwrap freely;
/// vendored shims are third-party stand-ins).
const SKIP_DIRS: &[&str] = &[
    "target", ".git", "tests", "benches", "examples", "vendor", ".github",
];

/// Parse every non-test `.rs` file under `root` into a [`Workspace`].
pub fn parse_workspace(root: &Path) -> Workspace {
    let mut files = Vec::new();
    collect_rust_files(root, &mut files);
    files.sort();
    let mut ws = Workspace::default();
    for f in files {
        if let Ok(content) = std::fs::read_to_string(&f) {
            let rel = f.strip_prefix(root).unwrap_or(&f).display().to_string();
            ws.files.push(parse_file(&rel, &content));
        }
    }
    ws
}

/// Scan every non-test `.rs` file under `root` (expected: workspace
/// root): per-file `RA3xx`/`RA209`/`RA210` plus the cross-file `RA4xx`
/// dataflow lints.
pub fn scan_workspace(root: &Path) -> Vec<Diagnostic> {
    let ws = parse_workspace(root);
    let mut out = Vec::new();
    for file in &ws.files {
        out.extend(scan_items(file));
    }
    out.extend(crate::dataflow::lint_dataflow(&ws));
    out
}

fn collect_rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref())
                && !name.starts_with('.')
                && !is_workspace_root(&path)
            {
                collect_rust_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Whether `dir` holds a `Cargo.toml` that declares a `[workspace]`
/// table: a separate workspace nested in the tree (e.g. a benchmark
/// package), whose call graph is not this workspace's.
fn is_workspace_root(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|manifest| {
        manifest.lines().any(|line| {
            let line = line.trim();
            line == "[workspace]" || line.starts_with("[workspace.")
        })
    })
}

/// Scan one file's contents (`rel` is the path used in locations),
/// treating it as a one-file workspace for the dataflow lints. Library
/// callers with many files should use [`scan_workspace`] so the call
/// graph sees cross-file edges.
pub fn scan_file(rel: &str, content: &str) -> Vec<Diagnostic> {
    let mut ws = Workspace::default();
    ws.files.push(parse_file(rel, content));
    let mut out = scan_items(&ws.files[0]);
    out.extend(crate::dataflow::lint_dataflow(&ws));
    out
}

/// Whether the token at `k` is inside test code (a `#[cfg(test)]` /
/// `#[test]` function body). Tokens outside any function body count as
/// library code.
fn in_test_code(file: &FileItems, k: usize) -> bool {
    file.enclosing_fn(k).is_some_and(|f| f.in_test)
}

/// The trimmed source line a token sits on, for diagnostics messages.
fn line_text(file: &FileItems, line: u32) -> &str {
    file.lexed
        .src
        .lines()
        .nth(line.saturating_sub(1) as usize)
        .unwrap_or("")
        .trim()
}

/// Per-file passes: `RA301`–`RA303`, `RA209`, `RA210`.
fn scan_items(file: &FileItems) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let lexed = &file.lexed;
    let n = lexed.tokens.len();

    // RA301: `.unwrap()` / `.expect(` in non-test code.
    for k in 0..n {
        if lexed.kind(k) != Some(TokenKind::Ident) || !lexed.is_punct(k + 1, '(') {
            continue;
        }
        let name = lexed.text(k);
        if (name == "unwrap" || name == "expect")
            && lexed.is_punct(k.wrapping_sub(1), '.')
            && !in_test_code(file, k)
        {
            let line = lexed.line(k);
            out.push(
                Diagnostic::new(
                    "RA301",
                    format!(
                        "panicking call in library code: `{}`",
                        line_text(file, line)
                    ),
                    format!("{}:{line}", file.file),
                )
                .with_note("prefer a Result or a documented # Panics contract"),
            );
        }
    }

    // RA302 / RA303: leftover macros.
    for site in macro_sites(lexed, 0..n) {
        if in_test_code(file, site.token) {
            continue;
        }
        let loc = format!("{}:{}", file.file, site.line);
        match site.name.as_str() {
            "todo" | "unimplemented" => out.push(Diagnostic::new(
                "RA302",
                "todo!/unimplemented! left in source",
                loc,
            )),
            "dbg" => out.push(Diagnostic::new("RA303", "dbg! left in source", loc)),
            _ => {}
        }
    }

    // RA209: telemetry coverage of public hot-path entry points.
    for f in &file.fns {
        if f.in_test || !f.is_pub || f.body.is_empty() || !telemetry_entry_point(&f.name) {
            continue;
        }
        let has_span = macro_sites(lexed, f.body.clone())
            .iter()
            .any(|m| m.name == "span")
            || f.body.clone().any(|k| {
                lexed.is_ident(k, "span")
                    && (lexed.is_punct(k.wrapping_sub(1), ':') || lexed.is_punct(k + 1, '!'))
            });
        if !has_span {
            out.push(
                Diagnostic::new(
                    "RA209",
                    format!("public entry point `{}` opens no tracing span", f.name),
                    format!("{}:{}", file.file, f.line),
                )
                .with_note("open a span first: `let _span = recipe_obs::span!(\"stage.name\");`"),
            );
        }
    }

    // RA210 (names): string literals handed to span/metric/instant
    // registration sites must be lowercase dot-separated.
    for k in 0..n {
        if lexed.kind(k) != Some(TokenKind::Ident) || in_test_code(file, k) {
            continue;
        }
        let name = lexed.text(k);
        let lit = if name == "span" && lexed.is_punct(k + 1, '!') && lexed.is_punct(k + 2, '(') {
            k + 3
        } else if NAME_SITES.contains(&name) && lexed.is_punct(k + 1, '(') {
            k + 2
        } else {
            continue;
        };
        if lexed.kind(lit) != Some(TokenKind::StrLit) {
            continue;
        }
        let text = lexed.text(lit);
        let event_name = text.get(1..text.len().saturating_sub(1)).unwrap_or("");
        if !hygienic_event_name(event_name) {
            out.push(
                Diagnostic::new(
                    "RA210",
                    format!("event name {event_name:?} is not lowercase dot-separated"),
                    format!("{}:{}", file.file, lexed.line(lit)),
                )
                .with_note(
                    "name spans/metrics/instants with dot-joined [a-z0-9_] segments, \
                     e.g. `ner.decode.tokens`",
                ),
            );
        }
    }

    // RA210 (coverage): explain-reachable decision sites must record
    // provenance somewhere in their bodies.
    for f in &file.fns {
        if f.in_test || f.body.is_empty() || !provenance_site(&f.name) {
            continue;
        }
        let has_provenance = f.body.clone().any(|k| {
            lexed.kind(k) == Some(TokenKind::Ident) && lexed.text(k).contains("provenance")
        });
        if !has_provenance {
            out.push(
                Diagnostic::new(
                    "RA210",
                    format!(
                        "explain-reachable decision site `{}` records no provenance",
                        f.name
                    ),
                    format!("{}:{}", file.file, f.line),
                )
                .with_note(
                    "record the decision when recipe_obs::provenance::enabled(), so \
                     `--explain` keeps seeing it",
                ),
            );
        }
    }

    out
}

/// Metric/instant registration methods whose first argument is an event
/// name literal (the `span!` macro is handled separately).
const NAME_SITES: &[&str] = &[
    "counter",
    "gauge",
    "histogram",
    "latency_histogram",
    "count_histogram",
    "series",
    "instant",
];

/// Names the RA209 telemetry audit treats as instrumented entry points:
/// the runtime-parameterised hot paths (`*_rt`), the extraction and
/// recipe-modelling surface, and the compiled decode/tag kernels.
fn telemetry_entry_point(name: &str) -> bool {
    name.ends_with("_rt")
        || name.starts_with("extract_")
        || name.starts_with("model_recipe")
        || matches!(
            name,
            "model_text" | "decode" | "predict_ids_into" | "tag_into"
        )
}

/// RA210 name hygiene: lowercase dot-separated segments of `[a-z0-9_]+`,
/// so timelines and metric reports group consistently.
fn hygienic_event_name(name: &str) -> bool {
    !name.is_empty()
        && name.split('.').all(|seg| {
            !seg.is_empty()
                && seg
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
}

/// Names the RA210 provenance audit treats as explain-reachable decision
/// sites: the compiled decode/tag kernels, the event-frame filter, and
/// every memoized lookup (`*_memo`).
fn provenance_site(name: &str) -> bool {
    name.ends_with("_memo") || matches!(name, "viterbi_into" | "tag_into" | "events_from_analysis")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_workspaces_are_not_scanned() {
        let root =
            std::env::temp_dir().join(format!("recipe_analyze_nested_ws_{}", std::process::id()));
        let write = |rel: &str, text: &str| {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().expect("file has a parent")).expect("mkdir");
            std::fs::write(path, text).expect("write fixture");
        };
        let unwrap_src = "pub fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n";
        write("Cargo.toml", "[workspace]\nmembers = [\"crates/*\"]\n");
        write("crates/lib/Cargo.toml", "[package]\nname = \"lib\"\n");
        write("crates/lib/src/lib.rs", unwrap_src);
        write(
            "bench/Cargo.toml",
            "[package]\nname = \"bench\"\n\n[workspace]\n",
        );
        write("bench/src/main.rs", unwrap_src);
        let diags = scan_workspace(&root);
        let _ = std::fs::remove_dir_all(&root);
        let locations: Vec<&str> = diags.iter().map(|d| d.location.as_str()).collect();
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "RA301");
        assert!(
            locations[0].starts_with("crates/lib/src/lib.rs"),
            "{locations:?}"
        );
    }

    #[test]
    fn flags_unwrap_outside_tests() {
        let src = "fn f() {\n    let x = y.unwrap();\n}\n";
        let diags = scan_file("lib.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "RA301");
        assert_eq!(diags[0].location, "lib.rs:2");
    }

    #[test]
    fn ignores_unwrap_inside_cfg_test_module() {
        let src = "\
fn f() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let x = y.unwrap();
        assert!(todo_marker());
    }
}
fn g() { h.expect(\"boom\"); }
";
        let diags = scan_file("lib.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].location, "lib.rs:10");
    }

    #[test]
    fn flags_todo_and_dbg() {
        let src = "fn f() {\n    todo!(\"later\");\n    dbg!(x);\n}\n";
        let diags = scan_file("m.rs", src);
        let codes: Vec<_> = diags.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"RA302"));
        assert!(codes.contains(&"RA303"));
    }

    #[test]
    fn comments_do_not_fire() {
        let src = "fn f() {\n    // x.unwrap() would be wrong here\n}\n";
        assert!(scan_file("m.rs", src).is_empty());
    }

    #[test]
    fn string_literals_do_not_fire() {
        // The regression class the lexer re-host fixes: needles inside
        // string literals, raw strings and block comments.
        let src = r####"
fn f() -> String {
    let msg = "call x.unwrap() then todo!(later) and dbg!(x)";
    let raw = r#"even .expect("here") is fine"#;
    /* and todo!()
       inside /* nested */ block comments */
    format!("{msg}{raw}")
}
"####;
        assert!(
            scan_file("m.rs", src).is_empty(),
            "{:?}",
            scan_file("m.rs", src)
        );
    }

    #[test]
    fn flags_uninstrumented_entry_point() {
        let src = "\
impl M {
    pub fn decode(&self, xs: &[u32]) -> Vec<usize> {
        xs.iter().map(|x| *x as usize).collect()
    }
}
";
        let diags = scan_file("m.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "RA209");
        assert_eq!(diags[0].location, "m.rs:2");
        assert!(diags[0].message.contains("decode"), "{diags:?}");
    }

    #[test]
    fn span_macro_satisfies_telemetry_coverage() {
        let src = "\
pub fn minimize_rt(x: &mut [f64]) -> f64 {
    let _span = recipe_obs::span!(\"opt.minimize\");
    x.iter().sum()
}
pub fn model_text(t: &str) -> usize {
    let _g = span!(\"pipeline.model_text\");
    t.len()
}
";
        assert!(scan_file("m.rs", src).is_empty());
    }

    #[test]
    fn telemetry_coverage_skips_tests_traits_and_other_fns() {
        let src = "\
pub trait Decoder {
    fn decode(&self) -> usize;
}
pub fn helper(x: usize) -> usize { x }
#[cfg(test)]
mod tests {
    pub fn extract_everything() -> usize { 7 }
}
";
        assert!(
            scan_file("m.rs", src).is_empty(),
            "{:?}",
            scan_file("m.rs", src)
        );
    }

    #[test]
    fn a_span_mentioned_in_a_string_does_not_satisfy_ra209() {
        let src = "\
pub fn decode(xs: &[u32]) -> usize {
    let _hint = \"recipe_obs::span!(\\\"x\\\") would go here\";
    xs.len()
}
";
        let diags = scan_file("m.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "RA209");
    }

    #[test]
    fn flags_unhygienic_event_names() {
        let src = "fn f() {\n    let _s = recipe_obs::span!(\"Mix.Phase\");\n}\n";
        let diags = scan_file("m.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "RA210");
        assert!(diags[0].message.contains("Mix.Phase"), "{diags:?}");

        for bad in ["ner..decode", "ner-decode", "", "ner.decode "] {
            let src = format!("fn f() {{\n    reg.counter(\"{bad}\");\n}}\n");
            let diags = scan_file("m.rs", &src);
            assert_eq!(diags.len(), 1, "{bad:?}: {diags:?}");
            assert_eq!(diags[0].code, "RA210");
        }
    }

    #[test]
    fn hygienic_event_names_pass_and_tests_are_exempt() {
        let src = "\
fn f() {
    let _s = span!(\"events.sentence\");
    reg.latency_histogram(\"latency.phrase_s\");
}
#[cfg(test)]
mod tests {
    fn t() { reg.counter(\"X\"); }
}
";
        assert!(
            scan_file("m.rs", src).is_empty(),
            "{:?}",
            scan_file("m.rs", src)
        );
    }

    #[test]
    fn flags_provenance_free_decision_sites() {
        let src = "\
fn viterbi_into(xs: &[u32]) -> usize {
    xs.len()
}
pub fn lookup_memo(k: &str) -> usize {
    k.len()
}
";
        let diags = scan_file("m.rs", src);
        let ra210: Vec<_> = diags.iter().filter(|d| d.code == "RA210").collect();
        assert_eq!(ra210.len(), 2, "{diags:?}");
        assert!(ra210[0].message.contains("viterbi_into"), "{diags:?}");
        assert!(ra210[1].message.contains("lookup_memo"), "{diags:?}");
    }

    #[test]
    fn provenance_calls_satisfy_the_coverage_audit() {
        let src = "\
fn tag_into(xs: &[u32]) -> usize {
    let explain = recipe_obs::provenance::enabled();
    xs.len() + explain as usize
}
fn entry_memo(k: &str) -> usize {
    record_cache_provenance(\"cache.ingredient\", k, \"hit\");
    k.len()
}
fn other_helper(k: &str) -> usize {
    k.len()
}
";
        assert!(
            scan_file("m.rs", src).is_empty(),
            "{:?}",
            scan_file("m.rs", src)
        );
    }

    #[test]
    fn multiline_signature_is_audited() {
        let src = "\
pub fn extract_sentence_events(
    a: usize,
    b: usize,
) -> usize {
    a + b
}
";
        let diags = scan_file("m.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "RA209");
        assert_eq!(diags[0].location, "m.rs:1");
    }
}
