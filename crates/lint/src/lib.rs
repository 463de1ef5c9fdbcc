//! # sskel-lint — offline, workspace-aware invariant linter
//!
//! The repository's core contracts — typed `WireError`/`SocketError`
//! instead of panics on adversarial bytes, byte-identical cross-engine
//! traces, audited `unsafe` — are *universally quantified*: they must
//! hold for every input, not just the inputs the test suite happens to
//! sample. This crate turns them into a static gate. It walks every
//! first-party source file (`crates/*/src`, `src/`, `tests/`; the
//! vendored stand-ins under `vendor/` are exempt) with a small
//! hand-rolled lexer — no `syn`, no network, no dependencies — and
//! enforces four rule families:
//!
//! | rule | what it checks |
//! |---|---|
//! | `panic-discipline` (R1) | no panic constructs or slice indexing in never-panic zones |
//! | `safety-comment` / `forbid-unsafe` (R2) | every `unsafe` has a `SAFETY:` comment; zero-unsafe crates carry `#![forbid(unsafe_code)]` |
//! | `determinism` (R3) | no wall clocks, hash-order iteration or unseeded RNG in trace-affecting code |
//! | `atomic-ordering` (R4) | every `Ordering::*` use carries an `// ordering:` argument in the barrier, shard-worker, socket and multiplex protocol files |
//!
//! Run it as `cargo run -p sskel-lint` (exit 0 = clean, exit 1 = findings
//! as `file:line · rule · message`); it also runs inside tier-1 as the
//! `tests/lint_gate.rs` integration test. The rule catalog, zone map and
//! escape-hatch grammar are documented in `docs/STATIC_ANALYSIS.md`.
//!
//! `WireError` lives in `sskel-model`; this crate only names it in prose
//! — the linter deliberately depends on nothing in the workspace.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::fmt;
use std::path::{Path, PathBuf};

mod lexer;
pub mod rules;

pub use rules::{analyze, check_crate_unsafe_policy, rule, FileReport};

/// One diagnostic, printed as `file:line · rule · message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (see [`rules::rule`]).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} · {} · {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A never-panic zone: one file, optionally narrowed to named functions.
#[derive(Debug, Clone)]
pub struct Zone {
    /// Workspace-relative path suffix (e.g. `crates/model/src/wire.rs`).
    pub file: &'static str,
    /// `None` = the whole file (minus test code); `Some(fns)` = only the
    /// bodies of functions with these names (closures inside included).
    pub fns: Option<&'static [&'static str]>,
}

/// Per-file rule switches, resolved from [`Config`] for one path.
#[derive(Debug, Clone, Default)]
pub struct FileConfig {
    /// R1 zone: `None` = file not zoned, `Some(None)` = whole file,
    /// `Some(Some(fns))` = the named functions only.
    pub panic_zone: Option<Option<&'static [&'static str]>>,
    /// R3 applies to this file.
    pub determinism: bool,
    /// R3 exemption for `Instant`/`SystemTime` (socket timeout plumbing).
    pub allow_time: bool,
    /// R4 applies to this file.
    pub ordering: bool,
}

/// The workspace rule set. [`Config::default`] encodes this repository's
/// zone map (documented in `docs/STATIC_ANALYSIS.md`); tests construct
/// custom configs to exercise the machinery in isolation.
#[derive(Debug, Clone)]
pub struct Config {
    /// R1 zones.
    pub never_panic_zones: Vec<Zone>,
    /// R3 files: path-suffix or directory-prefix (ends with `/`) matches,
    /// paired with the `allow_time` flag.
    pub determinism_paths: Vec<(&'static str, bool)>,
    /// R3 exemptions: path suffixes excluded even when a directory prefix
    /// matches (test-support code that is not trace-affecting).
    pub determinism_exempt: Vec<&'static str>,
    /// R4 files (path suffixes).
    pub ordering_files: Vec<&'static str>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            never_panic_zones: vec![
                // The wire codec: every byte of it sits between an
                // adversarial buffer and the round loop.
                Zone {
                    file: "crates/model/src/wire.rs",
                    fns: None,
                },
                // The fault plane's decode/open paths (frame envelope,
                // stream parser, batch reader). Seal/tamper machinery is
                // not zoned: it runs on bytes we produced.
                Zone {
                    file: "crates/model/src/fault.rs",
                    fns: Some(&[
                        "open",
                        "feed",
                        "mid_packet",
                        "try_next",
                        "compact",
                        "read_varint",
                        "next_frame",
                    ]),
                },
                // The socket engine's reader and handshake threads: they
                // parse bytes a hostile peer controls.
                Zone {
                    file: "crates/model/src/engine/socket.rs",
                    fns: Some(&[
                        "next_event",
                        "reader_loop",
                        "connect_mesh",
                        "accept_mesh",
                        "read_hello",
                    ]),
                },
                // Crash-recovery restore/replay paths; the journal resume
                // entry point parses on-disk bytes a crashed (or hostile)
                // writer controls.
                Zone {
                    file: "crates/model/src/engine/recovery.rs",
                    fns: Some(&["recover", "resume_from_journal"]),
                },
                // The durable run store: every decode path in it reads
                // adversarial input (a journal file is whatever is on
                // disk after a kill).
                Zone {
                    file: "crates/model/src/journal.rs",
                    fns: None,
                },
                // Snapshot restore validates 11 malformed-input classes
                // with typed errors; keep it that way.
                Zone {
                    file: "crates/core/src/alg1.rs",
                    fns: Some(&["restore"]),
                },
            ],
            determinism_paths: vec![
                ("crates/graph/src/", false),
                ("crates/core/src/", false),
                ("crates/predicates/src/", false),
                ("crates/model/src/", false),
                // Socket timeout plumbing legitimately reads the clock;
                // hash containers and unseeded RNG stay banned.
                ("crates/model/src/engine/socket.rs", true),
            ],
            determinism_exempt: vec![
                // Feature-gated test support (seed plumbing, proptest
                // strategies): not trace-affecting by construction.
                "crates/model/src/testutil.rs",
            ],
            ordering_files: vec![
                "crates/model/src/sync.rs",
                "crates/model/src/engine/multiplex.rs",
                // The shard worker's decided flags and the socket
                // engine's abort flag.
                "crates/model/src/engine/sharded.rs",
                "crates/model/src/engine/socket.rs",
            ],
        }
    }
}

impl Config {
    /// Resolves the switches for one workspace-relative path.
    pub fn file_config(&self, rel_path: &str) -> FileConfig {
        let mut fc = FileConfig::default();
        for z in &self.never_panic_zones {
            if rel_path.ends_with(z.file) {
                fc.panic_zone = Some(z.fns);
            }
        }
        let exempt = self
            .determinism_exempt
            .iter()
            .any(|e| rel_path.ends_with(e));
        if !exempt {
            for (p, allow_time) in &self.determinism_paths {
                let hit = if p.ends_with('/') {
                    rel_path.contains(p)
                } else {
                    rel_path.ends_with(p)
                };
                if hit {
                    fc.determinism = true;
                    // The most specific (suffix) match wins the flag.
                    if !p.ends_with('/') || !fc.allow_time {
                        fc.allow_time = *allow_time;
                    }
                }
            }
        }
        fc.ordering = self.ordering_files.iter().any(|f| rel_path.ends_with(f));
        fc
    }
}

/// Summary of one workspace pass.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, sorted by `(file, line, rule)`.
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// `true` iff the pass found nothing.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Lints one in-memory source file under `config`, using `rel_path` both
/// for zone resolution and in findings. This is the entry point the
/// fixture suite drives.
pub fn lint_source(rel_path: &str, source: &str, config: &Config) -> Vec<Finding> {
    analyze(rel_path, source, &config.file_config(rel_path)).findings
}

/// Lints the whole workspace rooted at `root` under the default config:
/// every `.rs` file below `crates/*/src` and `src/`, the top-level
/// integration tests in `tests/`, plus the crate-level `unsafe` policy
/// for each first-party crate. `vendor/`, `target/` and per-crate
/// `tests/` directories (which include this crate's violation fixtures)
/// are not walked.
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let config = Config::default();
    let mut report = Report::default();

    // First-party crates: `crates/*` with a `src/` dir, plus the root
    // package (whose library lives in `src/`).
    let mut crate_src_dirs: Vec<PathBuf> = Vec::new();
    let mut entries: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for dir in entries {
        let src = dir.join("src");
        if src.is_dir() {
            crate_src_dirs.push(src);
        }
    }
    crate_src_dirs.push(root.join("src"));

    for src_dir in &crate_src_dirs {
        let mut files = Vec::new();
        collect_rs_files(src_dir, &mut files)?;
        let mut has_unsafe = false;
        for f in &files {
            let rel = rel_label(root, f);
            let source = std::fs::read_to_string(f)?;
            let fr = analyze(&rel, &source, &config.file_config(&rel));
            has_unsafe |= fr.has_unsafe;
            report.findings.extend(fr.findings);
            report.files_scanned += 1;
        }
        let lib = src_dir.join("lib.rs");
        if lib.is_file() {
            let rel = rel_label(root, &lib);
            let source = std::fs::read_to_string(&lib)?;
            report
                .findings
                .extend(check_crate_unsafe_policy(&rel, &source, has_unsafe));
        }
    }

    // Workspace-level integration tests: no zones apply there, but the
    // SAFETY audit does, and the walk proves the files lex.
    let tests_dir = root.join("tests");
    if tests_dir.is_dir() {
        let mut files = Vec::new();
        collect_rs_files(&tests_dir, &mut files)?;
        for f in &files {
            let rel = rel_label(root, f);
            let source = std::fs::read_to_string(f)?;
            let fr = analyze(&rel, &source, &config.file_config(&rel));
            report.findings.extend(fr.findings);
            report.files_scanned += 1;
        }
    }

    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

/// Recursively collects `.rs` files, sorted for deterministic output.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative, `/`-separated label for findings.
fn rel_label(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}
