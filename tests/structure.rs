//! Structural gates over the source tree: text rules no compiler or test
//! of behaviour would catch, checked with std-only file walks so that
//! `cargo test` enforces them.
//!
//! Each gate names what it protects and, on failure, the offending lines.

use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// Every `.rs` file under `rel` (or `rel` itself when it is a file), as
/// repo-relative paths in sorted order, skipping directories named `skip`.
fn rust_files(rel: &str, skip: Option<&str>) -> Vec<String> {
    fn walk(dir: &Path, skip: Option<&str>, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if skip.is_none_or(|s| entry.file_name() != s) {
                    walk(&path, skip, out);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let base = root();
    let start = base.join(rel);
    let mut found = Vec::new();
    if start.is_file() {
        found.push(start);
    } else {
        walk(&start, skip, &mut found);
    }
    let mut files: Vec<String> = found
        .iter()
        .map(|p| {
            p.strip_prefix(&base)
                .unwrap_or(p)
                .to_string_lossy()
                .replace('\\', "/")
        })
        .collect();
    files.sort();
    files
}

/// The lines of `text` before its first `#[cfg(test)]` line, numbered from 1.
fn non_test_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines()
        .enumerate()
        .take_while(|(_, l)| !l.contains("#[cfg(test)]"))
        .map(|(i, l)| (i + 1, l))
}

fn is_word(c: Option<char>) -> bool {
    c.is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// `needle` occurs in `line` as a whole word.
fn has_word(line: &str, needle: &str) -> bool {
    line.match_indices(needle).any(|(i, _)| {
        !is_word(line[..i].chars().next_back()) && !is_word(line[i + needle.len()..].chars().next())
    })
}

/// Calls of the function `name` in `line` (`set_name(` is another function).
fn calls(line: &str, name: &str) -> usize {
    let call = format!("{name}(");
    line.match_indices(&call)
        .filter(|(i, _)| !is_word(line[..*i].chars().next_back()))
        .count()
}

/// Production-path panic hygiene: no `.unwrap()` / `.expect(` in non-test
/// code of the gateway-facing crates (wire, governor), the observability
/// crate (its statement table folds every statement), the engine, the
/// replica HA modules, the target-profile registry and capability modules,
/// the feature registry, the value codec both ends of the wire use, and the
/// backend contract's result type.
#[test]
fn no_unwrap_or_expect_on_production_paths() {
    let sources = [
        "crates/wire/src",
        "crates/governor/src",
        "crates/obs/src",
        "crates/engine/src",
        "crates/core/src/replicate.rs",
        "crates/core/src/repair.rs",
        "crates/core/src/targets.rs",
        "crates/core/src/capability.rs",
        "crates/xtra/src/feature.rs",
        "crates/xtra/src/datum.rs",
        "crates/core/src/backend.rs",
    ];
    let mut failures = Vec::new();
    for src in sources {
        let mut offenders = Vec::new();
        for file in rust_files(src, None) {
            let text = read(&file);
            for (n, line) in non_test_lines(&text) {
                if line.contains(".unwrap()") || line.contains(".expect(") {
                    offenders.push(format!("{file}:{n}: {line}"));
                }
            }
        }
        if !offenders.is_empty() {
            failures.push(format!(
                "unwrap/expect in non-test code under {src}:\n{}",
                offenders.join("\n")
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// One evaluation context per operator, not per row: no copy of the outer
/// scope stack in the engine, and no `EvalContext` literal outside eval.rs,
/// whose constructors build the stack once and let `set_row` swap the row.
/// No key vector per row either: joins, GROUP BY and window partitions
/// number their keys in `keys::KeyIndex`, not in a `HashMap<Vec<Datum>, _>`.
/// And one hasher: the engine's row and value sets hash with
/// `keys::KeyState`, not with the default SipHash. And one predicate path
/// in every row loop: outside its tests, exec.rs evaluates filters and
/// join residuals through `compile::Predicate`, never `eval_truth`.
#[test]
fn the_engine_evaluates_rows_in_one_context_with_one_hasher() {
    let default_hashed = |line: &str| {
        line.contains("HashSet<&Row>")
            || line.contains("HashSet<Datum>")
            || line.match_indices("HashMap<&Row, ").any(|(i, m)| {
                let rest = &line[i + m.len()..];
                let name = rest.chars().take_while(char::is_ascii_alphabetic).count();
                name > 0 && rest[name..].starts_with('>')
            })
    };
    let mut offenders = Vec::new();
    for file in rust_files("crates/engine/src", None) {
        let text = read(&file);
        for (i, line) in text.lines().enumerate() {
            let n = i + 1;
            if line.contains("outer.to_vec()")
                || (line.contains("EvalContext {") && file != "crates/engine/src/eval.rs")
                || line.contains("HashMap<Vec<Datum>")
                || default_hashed(line)
            {
                offenders.push(format!("{file}:{n}:{line}"));
            }
        }
    }
    let exec = "crates/engine/src/exec.rs";
    for (n, line) in non_test_lines(&read(exec)) {
        if line.contains("eval_truth(") {
            offenders.push(format!("{exec}:{n}: {line}"));
        }
    }
    assert!(
        offenders.is_empty(),
        "per-row evaluation context, key vector, default-hashed set or eval_truth row loop in crates/engine/src:\n{}",
        offenders.join("\n")
    );
}

/// The `bytes` shim inlines its methods like the crate it stands in for. The
/// benchmark builds with the default release profile (no LTO, 16 codegen
/// units), where a method of another crate is inlined only if it says
/// `#[inline]`; without it, every value the wire codec reads or writes is a
/// cross-crate call. Every `fn` with a body outside the tests carries it on
/// the line before.
#[test]
fn the_bytes_shim_inlines_every_method() {
    let shim = "crates/shims/bytes/src/lib.rs";
    let text = read(shim);
    let mut prev = "";
    let mut offenders = Vec::new();
    for (n, line) in non_test_lines(&text) {
        let body = line.trim_start();
        let sig = body.strip_prefix("pub ").unwrap_or(body);
        let is_fn = sig
            .strip_prefix("fn ")
            .is_some_and(|name| name.starts_with(|c: char| c.is_ascii_lowercase() || c == '_'));
        if is_fn && !line.trim_end().ends_with(';') && prev.trim() != "#[inline]" {
            offenders.push(format!("{shim}:{n}: {line}"));
        }
        prev = line;
    }
    assert!(
        offenders.is_empty(),
        "fn without #[inline] in {shim}:\n{}",
        offenders.join("\n")
    );
}

/// One lowering path: every statement, executed or previewed (`translate()`,
/// cache revalidation, the cache's splice probe, EXPLAIN), is bound, lowered
/// and checked by one call each in the cross compiler, so no check, emulation
/// or counter can drift between copies of the pipeline. `serialize_plan`
/// appears twice: the lowering, and the orphan-DROP journal of a failed
/// recursion cleanup.
#[test]
fn one_lowering_path() {
    let cc = "crates/core/src/crosscompiler.rs";
    let text = read(cc);
    let lines = |needles: &[&str]| {
        text.lines()
            .filter(|l| needles.iter().any(|n| l.contains(n)))
            .count()
    };
    let once: [(&str, &[&str]); 4] = [
        ("Binder::new", &["Binder::new"]),
        ("check_serialized", &["check_serialized"]),
        ("\\.transform(\\|run_all(", &[".transform(", "run_all("]),
        ("self\\.peel_fetch_limit(", &["self.peel_fetch_limit("]),
    ];
    for (pattern, needles) in once {
        let n = lines(needles);
        assert_eq!(
            n, 1,
            "{cc}: '{pattern}' appears {n} times; the one lowering path has it once"
        );
    }
    let n = lines(&["serialize_plan"]);
    assert!(
        n <= 2,
        "{cc}: serialize_plan appears {n} times; lowering and the orphan journal need 2"
    );
}

/// One fingerprint per statement: the cache's fast path lexes the request,
/// and a statement that needs its fingerprint otherwise (the cache fill,
/// the provenance record) lexes its text at most once, in one place.
#[test]
fn one_fingerprint_per_statement() {
    let cc = "crates/core/src/crosscompiler.rs";
    let n: usize = read(cc).lines().map(|l| calls(l, "fingerprint")).sum();
    assert!(
        n <= 2,
        "{cc}: fingerprint( appears {n} times; the fast path and the statement's one lexing need 2"
    );
}

/// Every registered hyperq_* metric family must be documented in the
/// DESIGN.md inventory table. Pull quoted family-name literals out of the
/// source (suffix-filtered: spill-file name prefixes and other non-metric
/// literals share the hyperq_ namespace) and require each in the table.
#[test]
fn every_metric_family_is_in_the_design_inventory() {
    const SUFFIXES: [&str; 8] = [
        "_total",
        "_seconds",
        "_state",
        "_entries",
        "_inflight",
        "_depth",
        "_queries",
        "_active",
    ];
    let mut families = std::collections::BTreeSet::new();
    for file in rust_files("src", None)
        .into_iter()
        .chain(rust_files("crates", None))
    {
        let text = read(&file);
        let mut rest = text.as_str();
        while let Some(i) = rest.find("\"hyperq_") {
            let tail = &rest[i + 1..];
            let len = tail
                .find(|c: char| !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'))
                .unwrap_or(tail.len());
            if tail[len..].starts_with('"') {
                families.insert(tail[..len].to_string());
                rest = &tail[len + 1..];
            } else {
                rest = tail;
            }
        }
    }
    families.retain(|f| SUFFIXES.iter().any(|s| f.ends_with(s)));
    assert!(!families.is_empty(), "metric inventory grep found nothing");
    let design = read("DESIGN.md");
    for family in families {
        assert!(
            design.contains(&format!("`{family}`")),
            "metric family {family} missing from the DESIGN.md inventory"
        );
    }
}

/// No unsafe code outside the vendored shims: every workspace crate roots
/// a `#![forbid(unsafe_code)]`, and nothing sneaks an `unsafe` block in.
#[test]
fn no_unsafe_code_outside_the_shims() {
    for lib in [
        "src/lib.rs",
        "crates/xtra/src/lib.rs",
        "crates/parser/src/lib.rs",
        "crates/core/src/lib.rs",
        "crates/engine/src/lib.rs",
        "crates/wire/src/lib.rs",
        "crates/workload/src/lib.rs",
        "crates/obs/src/lib.rs",
        "crates/bench/src/lib.rs",
        "crates/governor/src/lib.rs",
        "crates/assess/src/lib.rs",
    ] {
        assert!(
            read(lib).contains("#![forbid(unsafe_code)]"),
            "missing #![forbid(unsafe_code)] in {lib}"
        );
    }
    let mut offenders = Vec::new();
    for file in rust_files("src", Some("shims"))
        .into_iter()
        .chain(rust_files("crates", Some("shims")))
    {
        for (i, line) in read(&file).lines().enumerate() {
            if has_word(line, "unsafe") && !line.contains("unsafe_code") {
                offenders.push(format!("{file}:{}:{line}", i + 1));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "unsafe code found outside crates/shims\n{}",
        offenders.join("\n")
    );
}

/// One answer to "is this request a read?": the lowering's, carried in
/// `RequestContext::kind`. No text classifier of SQL comes back to route or
/// retry requests, and the replica set does not parse what it routes.
#[test]
fn requests_are_classified_by_the_lowering_alone() {
    let classifiers = [["from", "_sql"].concat(), ["is_read", "_only"].concat()];
    let mut offenders = Vec::new();
    for dir in ["src", "crates", "tests", "examples"] {
        for file in rust_files(dir, Some("shims")) {
            for (i, line) in read(&file).lines().enumerate() {
                if classifiers.iter().any(|c| line.contains(c.as_str())) {
                    offenders.push(format!("{file}:{}:{line}", i + 1));
                }
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "a SQL text classifier is back:\n{}",
        offenders.join("\n")
    );
    let replicate = "crates/core/src/replicate.rs";
    assert!(
        !read(replicate).contains("hyperq_parser"),
        "{replicate} parses what it routes"
    );
}
