//! `qcm-lint`: the workspace invariant linter.
//!
//! A deliberately hand-rolled, line-based source scanner (no `syn`, no
//! proc-macro machinery — the build environment vendors no parser), so
//! every rule is conservative and textual. Seven rules:
//!
//! 1. **sync-facade** — no direct `std::sync::` / `std::thread::`
//!    references outside `crates/sync` and `vendor/`.
//!    All concurrency goes through the `qcm-sync` facade, which is what
//!    makes the whole workspace model-checkable.
//! 2. **ordering-justification** — every memory-ordering choice
//!    (`Ordering::Relaxed` … `Ordering::SeqCst`) in library sources
//!    must carry a `// ordering:` justification on the same line or in
//!    the contiguous comment/code block immediately above it.
//! 3. **hot-path** — the mining inner-loop modules must not allocate,
//!    `unwrap()`, `expect()`, `panic!` or shift a list by `remove(0)`
//!    outside their `#[cfg(test)]` regions.
//! 4. **no-stray-print** — no `println!`/`eprintln!`/`dbg!` in library
//!    crates; user-facing output belongs to `crates/cli` and
//!    `crates/bench`.
//! 5. **clock-facade** — no direct `std::time::Instant` outside
//!    `crates/obs` (which owns the trace epoch), `crates/bench` and
//!    `crates/cli`; library code imports `qcm_obs::clock` so spans and
//!    measurements share one clock.
//! 6. **net-boundary** — no `std::net::` outside `crates/http`, the one
//!    front door. Mining, service, CLI and bench layers stay socket-free,
//!    so the entire wire surface is reviewable in one crate.
//! 7. **retired-concept** — a deleted concept (a second miner, peel
//!    kernel, task assembly or Algorithm 1 path, a kernel selector, a
//!    grandfathered hot-path site, …) does not come back; one table in
//!    [`retired`].
//!
//! Violations of rules 1–6 are matched against a shrink-only allowlist
//! (`crates/lint/allowlist.txt`); a retired concept never is. Unknown
//! violations fail; stale entries also fail until removed (`--ratchet`
//! rewrites the file, dropping them — it never adds entries). `cargo
//! test -p qcm-lint` runs the source rules over the repository.
//!
//! Subcommands:
//! * `qcm-lint` — run the source rules.
//! * `qcm-lint vendor-hash` — print a SHA-256 manifest of `vendor/`.
//! * `qcm-lint vendor-check` — compare that manifest against the
//!   committed `vendor/MANIFEST.sha256`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod retired;
mod sha256;

/// Directories (relative to the repo root) whose `.rs` files are scanned.
const SCAN_ROOTS: &[&str] = &["crates", "tests", "examples"];

/// Path prefixes exempt from every source rule: the facade itself (it
/// wraps `std::sync` by design), the vendored stand-ins, and this
/// linter (whose rule tables textually contain the forbidden patterns).
const EXEMPT_PREFIXES: &[&str] = &["crates/sync", "crates/lint", "vendor", "target"];

/// Crates allowed to print: the CLI and the bench harness own stdout.
const PRINT_OK_PREFIXES: &[&str] = &["crates/cli", "crates/bench"];

/// Crates allowed to name `std::time::Instant` directly: the clock facade
/// itself (`qcm_obs::clock` re-exports it) and the measurement layers.
const INSTANT_OK_PREFIXES: &[&str] = &["crates/obs", "crates/bench", "crates/cli"];

/// Crates allowed to open sockets: the HTTP front door.
const NET_OK_PREFIXES: &[&str] = &["crates/http"];

/// Basenames of the mining hot-path modules (rule 3).
const HOT_PATH_FILES: &[&str] = &[
    "recursive_mine.rs",
    "iterative_bounding.rs",
    "bounds.rs",
    "cover.rs",
    "critical.rs",
    "degrees.rs",
    "path_degrees.rs",
    "quasiclique.rs",
    "rules.rs",
    "bitset.rs",
];

/// Allocation, panic and O(n)-shift markers forbidden on the hot path.
const HOT_PATH_FORBIDDEN: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "Vec::new",
    "Vec::with_capacity",
    "vec![",
    ".to_vec()",
    ".collect()",
    ".collect::",
    "Box::new",
    "String::new",
    "String::from",
    "format!(",
    ".to_string()",
    ".to_owned()",
    // An O(n) shift per tree node has no place in the hot path: walk a
    // cursor instead.
    ".remove(0)",
];

/// Memory-ordering variants whose use demands a justification.
const ORDERING_VARIANTS: &[&str] = &[
    "Ordering::Relaxed",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
    "Ordering::SeqCst",
];

#[derive(Debug)]
struct Violation {
    rule: &'static str,
    path: String,
    line: usize,
    content: String,
    message: String,
}

impl Violation {
    /// The allowlist key: rule, path and *content* (not the line
    /// number, which drifts with every edit above the site).
    fn key(&self) -> String {
        format!("{}\t{}\t{}", self.rule, self.path, self.content)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root = PathBuf::from(".");
    let mut ratchet = false;
    let mut subcommand: Option<String> = None;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--root" => match iter.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("qcm-lint: --root needs a directory");
                    return ExitCode::from(2);
                }
            },
            "--ratchet" => ratchet = true,
            "vendor-hash" | "vendor-check" => subcommand = Some(arg),
            "--help" | "-h" => {
                println!("usage: qcm-lint [--root DIR] [--ratchet] [vendor-hash | vendor-check]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("qcm-lint: unknown argument '{other}' (see --help)");
                return ExitCode::from(2);
            }
        }
    }

    match subcommand.as_deref() {
        Some("vendor-hash") => match vendor_manifest(&root) {
            Ok(manifest) => {
                print!("{manifest}");
                ExitCode::SUCCESS
            }
            Err(err) => {
                eprintln!("qcm-lint: {err}");
                ExitCode::from(2)
            }
        },
        Some("vendor-check") => vendor_check(&root),
        Some(_) => unreachable!("parsed above"),
        None => ExitCode::from(run_source_rules(&root, ratchet)),
    }
}

// ---- source rules ----------------------------------------------------

/// Runs the source rules over the repository at `root`; the exit status.
fn run_source_rules(root: &Path, ratchet: bool) -> u8 {
    let mut files = Vec::new();
    for scan in SCAN_ROOTS {
        collect_rs_files(&root.join(scan), root, &mut files);
    }
    files.sort();

    let mut violations = Vec::new();
    for rel in &files {
        if EXEMPT_PREFIXES.iter().any(|p| rel.starts_with(p)) {
            continue;
        }
        let text = match std::fs::read_to_string(root.join(rel)) {
            Ok(t) => t,
            Err(err) => {
                eprintln!("qcm-lint: cannot read {rel}: {err}");
                return 2;
            }
        };
        scan_file(rel, &text, &mut violations);
    }

    let allowlist_path = root.join("crates/lint/allowlist.txt");
    let allowlist = load_allowlist(&allowlist_path);

    let mut used: BTreeMap<String, usize> = BTreeMap::new();
    let mut retired_hits = Vec::new();
    retired::scan(root, &mut retired_hits);
    let mut fresh: Vec<&Violation> = retired_hits.iter().collect();
    for v in &violations {
        let key = v.key();
        if allowlist.contains(&key) {
            *used.entry(key).or_insert(0) += 1;
        } else {
            fresh.push(v);
        }
    }

    let mut failed = false;
    if !fresh.is_empty() {
        failed = true;
        eprintln!("qcm-lint: {} violation(s):\n", fresh.len());
        for v in &fresh {
            eprintln!("  [{}] {}:{}", v.rule, v.path, v.line);
            eprintln!("      {}", v.content);
            eprintln!("      {}\n", v.message);
        }
    }

    let stale: Vec<&String> = allowlist
        .iter()
        .filter(|k| !used.contains_key(*k))
        .collect();
    if !stale.is_empty() {
        if ratchet {
            let kept: Vec<&str> = allowlist
                .iter()
                .filter(|k| used.contains_key(*k))
                .map(String::as_str)
                .collect();
            let mut out = allowlist_header();
            for k in &kept {
                out.push_str(k);
                out.push('\n');
            }
            if let Err(err) = std::fs::write(&allowlist_path, out) {
                eprintln!("qcm-lint: cannot rewrite allowlist: {err}");
                return 2;
            }
            println!(
                "qcm-lint: ratcheted allowlist down by {} entr{} ({} remain)",
                stale.len(),
                if stale.len() == 1 { "y" } else { "ies" },
                kept.len()
            );
        } else {
            failed = true;
            eprintln!(
                "qcm-lint: {} stale allowlist entr{} — the violation no longer \
                 exists, so the entry must go (run `qcm-lint --ratchet`):\n",
                stale.len(),
                if stale.len() == 1 { "y" } else { "ies" }
            );
            for k in &stale {
                eprintln!("  {k}");
            }
        }
    }

    if failed {
        eprintln!(
            "\nThe allowlist ({}) only shrinks: fix new violations instead of \
             adding entries.",
            allowlist_path.display()
        );
        1
    } else {
        println!(
            "qcm-lint: clean — {} file(s) scanned, {} grandfathered site(s) remain",
            files.len(),
            used.values().sum::<usize>()
        );
        0
    }
}

fn collect_rs_files(dir: &Path, root: &Path, out: &mut Vec<String>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs_files(&path, root, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
}

/// Per-line classification shared by all rules. `code` is the line with
/// line comments stripped; lines inside block comments come out empty.
struct CodeLine {
    code: String,
    raw: String,
}

fn strip_comments(text: &str) -> Vec<CodeLine> {
    let mut in_block = false;
    text.lines()
        .map(|raw| {
            let mut code = String::with_capacity(raw.len());
            let bytes = raw.as_bytes();
            let mut i = 0;
            while i < bytes.len() {
                if in_block {
                    if raw[i..].starts_with("*/") {
                        in_block = false;
                        i += 2;
                    } else {
                        i += 1;
                    }
                } else if raw[i..].starts_with("/*") {
                    in_block = true;
                    i += 2;
                } else if raw[i..].starts_with("//") {
                    break;
                } else {
                    code.push(raw[i..].chars().next().expect("in-bounds char"));
                    i += raw[i..].chars().next().map_or(1, char::len_utf8);
                }
            }
            CodeLine {
                code,
                raw: raw.to_string(),
            }
        })
        .collect()
}

fn scan_file(rel: &str, text: &str, out: &mut Vec<Violation>) {
    let lines = strip_comments(text);
    let in_src = rel.contains("/src/");
    let basename = rel.rsplit('/').next().unwrap_or(rel);

    // The hot-path and ordering rules stop at the first `#[cfg(test)]`:
    // test modules sit at the bottom of their files in this workspace,
    // and tests are free to allocate and assert.
    let test_cutoff = lines
        .iter()
        .position(|l| l.code.contains("#[cfg(test)]"))
        .unwrap_or(lines.len());

    for (idx, line) in lines.iter().enumerate() {
        let code = &line.code;
        if code.trim().is_empty() {
            continue;
        }

        // Rule 1: sync-facade policy (all scanned files).
        for pat in ["std::sync::", "std::thread::"] {
            if code.contains(pat) {
                out.push(Violation {
                    rule: "sync-facade",
                    path: rel.to_string(),
                    line: idx + 1,
                    content: code.trim().to_string(),
                    message: format!(
                        "direct `{pat}` reference; import from `qcm_sync` instead \
                         (the facade is what makes this code model-checkable)"
                    ),
                });
            }
        }
        if code.contains("use qcm_sync::atomic::Ordering::") {
            out.push(Violation {
                rule: "ordering-justification",
                path: rel.to_string(),
                line: idx + 1,
                content: code.trim().to_string(),
                message: "import `Ordering` and spell the variant at each call site \
                          so the justification comment sits next to the choice"
                    .to_string(),
            });
        }

        // Rule 2: ordering justifications (library sources, non-test).
        if in_src && idx < test_cutoff {
            let uses_ordering = ORDERING_VARIANTS.iter().any(|v| code.contains(v));
            if uses_ordering && !ordering_justified(&lines, idx) {
                out.push(Violation {
                    rule: "ordering-justification",
                    path: rel.to_string(),
                    line: idx + 1,
                    content: code.trim().to_string(),
                    message: "memory-ordering choice without a `// ordering:` \
                              justification on the line or in the contiguous \
                              block above"
                        .to_string(),
                });
            }
        }

        // Rule 3: hot-path hygiene (non-test regions of the listed files).
        if in_src && HOT_PATH_FILES.contains(&basename) && idx < test_cutoff {
            for pat in HOT_PATH_FORBIDDEN {
                if code.contains(pat) {
                    out.push(Violation {
                        rule: "hot-path",
                        path: rel.to_string(),
                        line: idx + 1,
                        content: code.trim().to_string(),
                        message: format!(
                            "`{pat}` in a mining hot-path module; use the scratch \
                             arena / error returns instead"
                        ),
                    });
                }
            }
        }

        // Rule 5: clock facade — wall-clock readings go through
        // `qcm_obs::clock`, so span timestamps and timing measurements
        // share one epoch. (Matches brace imports too: any line that
        // names both `std::time::` and `Instant`.)
        if in_src
            && idx < test_cutoff
            && !INSTANT_OK_PREFIXES.iter().any(|p| rel.starts_with(p))
            && code.contains("std::time::")
            && code.contains("Instant")
        {
            out.push(Violation {
                rule: "clock-facade",
                path: rel.to_string(),
                line: idx + 1,
                content: code.trim().to_string(),
                message: "direct `std::time::Instant`; import from \
                          `qcm_obs::clock` so traces and timings share one \
                          epoch"
                    .to_string(),
            });
        }

        // Rule 6: net boundary — the wire surface lives in one crate.
        if !NET_OK_PREFIXES.iter().any(|p| rel.starts_with(p)) && code.contains("std::net::") {
            out.push(Violation {
                rule: "net-boundary",
                path: rel.to_string(),
                line: idx + 1,
                content: code.trim().to_string(),
                message: "direct `std::net::` outside crates/http; expose \
                          the behaviour through `qcm_http::Api` instead of \
                          opening a socket here"
                    .to_string(),
            });
        }

        // Rule 4: no stray prints in library crates.
        if in_src && !PRINT_OK_PREFIXES.iter().any(|p| rel.starts_with(p)) {
            for pat in ["println!", "eprintln!", "print!(", "eprint!(", "dbg!("] {
                if code.contains(pat) && idx < test_cutoff {
                    out.push(Violation {
                        rule: "no-stray-print",
                        path: rel.to_string(),
                        line: idx + 1,
                        content: code.trim().to_string(),
                        message: format!(
                            "`{pat}` in a library crate; route output through the \
                             CLI/bench layers or a returned value"
                        ),
                    });
                }
            }
        }
    }
}

/// True when line `idx` (0-based) carries or inherits a `// ordering:`
/// justification: on the same line, or anywhere in the contiguous run
/// of non-blank lines directly above it.
fn ordering_justified(lines: &[CodeLine], idx: usize) -> bool {
    if lines[idx].raw.contains("// ordering:") {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let raw = &lines[i].raw;
        if raw.trim().is_empty() {
            return false;
        }
        if raw.contains("// ordering:") {
            return true;
        }
    }
    false
}

// ---- allowlist -------------------------------------------------------

fn allowlist_header() -> String {
    let mut s = String::new();
    let _ = writeln!(s, "# qcm-lint allowlist — grandfathered violations.");
    let _ = writeln!(s, "# Format: rule<TAB>path<TAB>offending line (trimmed).");
    let _ = writeln!(
        s,
        "# This file only shrinks: remove entries as sites are fixed"
    );
    let _ = writeln!(s, "# (`qcm-lint --ratchet` drops stale ones). Never add.");
    s
}

fn load_allowlist(path: &Path) -> Vec<String> {
    match std::fs::read_to_string(path) {
        Ok(text) => text
            .lines()
            .map(str::trim_end)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(String::from)
            .collect(),
        Err(_) => Vec::new(),
    }
}

// ---- vendor integrity ------------------------------------------------

fn vendor_manifest(root: &Path) -> Result<String, String> {
    let vendor = root.join("vendor");
    let mut files = Vec::new();
    collect_all_files(&vendor, &mut files)
        .map_err(|err| format!("cannot walk {}: {err}", vendor.display()))?;
    files.sort();
    let mut out = String::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        if rel == "vendor/MANIFEST.sha256" {
            continue;
        }
        let bytes = std::fs::read(&path).map_err(|err| format!("cannot read {rel}: {err}"))?;
        let _ = writeln!(out, "{}  {}", sha256::hex_digest(&bytes), rel);
    }
    Ok(out)
}

fn collect_all_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_all_files(&path, out)?;
        } else {
            out.push(path);
        }
    }
    Ok(())
}

fn vendor_check(root: &Path) -> ExitCode {
    let manifest_path = root.join("vendor/MANIFEST.sha256");
    let committed = match std::fs::read_to_string(&manifest_path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!(
                "qcm-lint: cannot read {} ({err}); generate it with \
                 `qcm-lint vendor-hash > vendor/MANIFEST.sha256`",
                manifest_path.display()
            );
            return ExitCode::from(2);
        }
    };
    let actual = match vendor_manifest(root) {
        Ok(m) => m,
        Err(err) => {
            eprintln!("qcm-lint: {err}");
            return ExitCode::from(2);
        }
    };
    let parse = |text: &str| -> BTreeMap<String, String> {
        text.lines()
            .filter_map(|l| l.split_once("  "))
            .map(|(hash, path)| (path.to_string(), hash.to_string()))
            .collect()
    };
    let want = parse(&committed);
    let got = parse(&actual);
    let mut failed = false;
    for (path, hash) in &got {
        match want.get(path) {
            None => {
                failed = true;
                eprintln!("qcm-lint: vendor file NOT in manifest: {path}");
            }
            Some(expected) if expected != hash => {
                failed = true;
                eprintln!("qcm-lint: vendor file MODIFIED: {path}");
            }
            Some(_) => {}
        }
    }
    for path in want.keys() {
        if !got.contains_key(path) {
            failed = true;
            eprintln!("qcm-lint: vendor file MISSING: {path}");
        }
    }
    if failed {
        eprintln!(
            "\nVendored stand-ins are frozen; regenerate the manifest only as \
             part of a reviewed vendor change."
        );
        ExitCode::FAILURE
    } else {
        println!("qcm-lint: vendor manifest OK ({} files)", got.len());
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    /// The repository passes every source rule; a failure prints each
    /// violation.
    #[test]
    fn the_repository_passes_the_source_rules() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        assert_eq!(super::run_source_rules(&root, false), 0);
    }

    /// Only the HTTP crate may open a socket; the bench harness may not.
    #[test]
    fn net_boundary_admits_only_the_http_crate() {
        let fired = |rel: &str| {
            let mut out = Vec::new();
            super::scan_file(rel, "use std::net::TcpStream;\n", &mut out);
            out.iter().filter(|v| v.rule == "net-boundary").count()
        };
        assert_eq!(fired("crates/bench/src/runner.rs"), 1);
        assert_eq!(fired("crates/http/src/server.rs"), 0);
    }
}
