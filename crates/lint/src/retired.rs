//! Rule 7, **retired-concept**: a concept the workspace deleted stays
//! deleted. The table is `crates/lint/retired.txt` (its header gives the
//! format), built into the linter: each entry names a concept, the literal
//! text that would bring it back, where that text may not appear, the files
//! exempt from it and the paths that must not exist. Every line of a file
//! in scope is searched, comments and manifests included; the table itself,
//! the linter's sources and `target` directories are not.

use crate::Violation;
use std::path::Path;

const TABLE: &str = include_str!("../retired.txt");

/// One entry of the table.
#[derive(Default)]
struct Retired {
    concept: &'static str,
    /// Each literal, and whether it must end where an identifier ends.
    patterns: Vec<(String, bool)>,
    paths: Vec<&'static str>,
    exclude: Vec<&'static str>,
    absent: Vec<&'static str>,
}

/// The table's entries; panics on a malformed line, which the unit tests
/// would have caught.
fn table() -> Vec<Retired> {
    let mut entries: Vec<Retired> = Vec::new();
    for line in TABLE.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line.split_once(' ').unwrap_or((line, ""));
        let value = value.trim();
        if key == "concept" {
            entries.push(Retired {
                concept: value,
                ..Retired::default()
            });
            continue;
        }
        let entry = entries
            .last_mut()
            .expect("a `concept` line starts the table");
        match key {
            "text" | "word" => entry
                .patterns
                .push((value.replace("\\t", "\t"), key == "word")),
            "in" => entry.paths.extend(value.split_whitespace()),
            "except" => entry.exclude.extend(value.split_whitespace()),
            "absent" => entry.absent.extend(value.split_whitespace()),
            _ => panic!("retired.txt: unknown key in `{line}`"),
        }
    }
    entries
}

/// Runs the table over the repository at `root`, appending every hit to
/// `out`.
pub(crate) fn scan(root: &Path, out: &mut Vec<Violation>) {
    let table = table();
    let mut files = Vec::new();
    for top in ["crates", "tests", "examples", "Cargo.toml"] {
        collect_files(&root.join(top), root, &mut files);
    }
    for rel in &files {
        if let Ok(bytes) = std::fs::read(root.join(rel)) {
            hits(&table, rel, &String::from_utf8_lossy(&bytes), out);
        }
    }
    for entry in &table {
        for gone in entry.absent.iter().filter(|gone| root.join(gone).exists()) {
            out.push(violation(gone, 0, gone, &format!("`{gone}`"), entry));
        }
    }
}

fn violation(path: &str, line: usize, content: &str, what: &str, entry: &Retired) -> Violation {
    Violation {
        rule: "retired-concept",
        path: path.to_string(),
        line,
        content: content.trim().to_string(),
        message: format!("{what} brings back {}", entry.concept),
    }
}

/// Appends the hits in `text`, the file `rel`, of every entry whose scope
/// holds it.
fn hits(table: &[Retired], rel: &str, text: &str, out: &mut Vec<Violation>) {
    let basename = rel.rsplit('/').next().unwrap_or(rel);
    for entry in table {
        if entry.exclude.contains(&basename) || !entry.paths.iter().any(|p| in_scope(rel, p)) {
            continue;
        }
        for (idx, line) in text.lines().enumerate() {
            for (pat, word) in &entry.patterns {
                if matches(line, pat, *word) {
                    out.push(violation(rel, idx + 1, line, &format!("`{pat}`"), entry));
                }
            }
        }
    }
}

/// True when `rel` is the file `scope` or lies below the directory `scope`.
fn in_scope(rel: &str, scope: &str) -> bool {
    let mut parts = rel.split('/');
    scope
        .split('/')
        .all(|want| parts.next().is_some_and(|got| want == "*" || want == got))
}

fn matches(line: &str, pat: &str, word: bool) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    if !word || !pat.ends_with(ident) {
        return line.contains(pat);
    }
    line.match_indices(pat)
        .any(|(at, _)| !line[at + pat.len()..].starts_with(ident))
}

fn collect_files(path: &Path, root: &Path, out: &mut Vec<String>) {
    let Ok(rel) = path.strip_prefix(root) else {
        return;
    };
    let own = ["crates/lint/src", "crates/lint/retired.txt"];
    if rel.ends_with("target") || own.iter().any(|own| rel == Path::new(own)) {
        return;
    }
    if path.is_file() {
        out.push(rel.to_string_lossy().replace('\\', "/"));
    } else {
        for entry in std::fs::read_dir(path).into_iter().flatten().flatten() {
            collect_files(&entry.path(), root, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fired(rel: &str, text: &str) -> usize {
        let mut out = Vec::new();
        hits(&table(), rel, text, &mut out);
        out.len()
    }

    /// Every pattern of every entry fires in every path of its scope (a
    /// directory's stands for a file below it), in code and in comments.
    #[test]
    fn every_entry_fires_on_its_retired_names() {
        let table = table();
        assert!(table.len() >= 13, "{} entries", table.len());
        for entry in &table {
            assert!(!entry.patterns.is_empty() && !entry.paths.is_empty());
            for mut rel in entry.paths.iter().map(|p| p.replace('*', "core")) {
                if !rel.contains('.') {
                    rel.push_str("/fixture.rs");
                }
                for (pat, _) in &entry.patterns {
                    for text in [format!("let x = {pat} ;"), format!("// {pat}")] {
                        let concept = entry.concept;
                        assert!(fired(&rel, &text) > 0, "{concept}: `{text}` in {rel}");
                    }
                }
            }
        }
    }

    #[test]
    fn exempt_files_other_scopes_and_longer_names_do_not_fire() {
        assert_eq!(fired("crates/graph/src/builder.rs", "fn peel("), 1);
        assert_eq!(fired("crates/graph/src/kcore.rs", "fn peel("), 0);
        assert_eq!(fired("crates/engine/src/reference.rs", "fn peel("), 0);
        assert_eq!(fired("crates/graph/tests/peel.rs", "fn peel("), 0);
        assert_eq!(fired("crates/engine/src/mine.rs", "tau_split"), 0);
        assert_eq!(fired("crates/lint/allowlist.txt", "# hot-path sites"), 0);
        assert_eq!(fired("crates/core/src/root_task.rs", "fn peel_round("), 0);
        assert_eq!(fired("crates/graph/src/subgraph.rs", "fn compacted("), 0);
        // Without `word`, a longer name is the retired one renamed.
        assert_eq!(fired("crates/core/src/x.rs", "fn pair_round_ends("), 1);
    }

    #[test]
    fn a_retired_directory_fires_when_it_exists() {
        let root = std::env::temp_dir().join(format!("qcm-lint-retired-{}", std::process::id()));
        std::fs::create_dir_all(root.join("crates/core/src")).unwrap();
        std::fs::write(root.join("crates/core/src/lib.rs"), "pub fn ok() {}\n").unwrap();
        let (mut clean, mut back) = (Vec::new(), Vec::new());
        scan(&root, &mut clean);
        std::fs::create_dir_all(root.join("crates/parallel")).unwrap();
        scan(&root, &mut back);
        let _ = std::fs::remove_dir_all(&root);
        assert!(clean.is_empty(), "{clean:?}");
        let paths: Vec<&str> = back.iter().map(|v| v.path.as_str()).collect();
        assert_eq!(paths, ["crates/parallel"]);
    }
}
