//! The documentation layer must not rot: every relative markdown link and
//! every `path:line` source anchor in `README.md` and `docs/*.md` has to
//! point at a file that exists in the repository (and at a line that the
//! file actually has). `docs/ARCHITECTURE.md` promises line-accurate
//! anchors per commit — this test is what enforces the "file still exists
//! and is long enough" half of that promise mechanically; reviewers only
//! need to eyeball that the line still shows the named item. Every `.md`
//! file named in that prose, or in a `//` comment of the Rust sources, has
//! to exist too.
//!
//! CI runs this test as its own step (see `.github/workflows/ci.yml`), so
//! a PR that moves or deletes a referenced file fails fast.

use std::path::PathBuf;

/// Repository root (this integration test lives in `<root>/tests`).
fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The markdown files whose links are load-bearing.
fn doc_files() -> Vec<PathBuf> {
    let root = repo_root();
    let mut files = vec![root.join("README.md")];
    let docs = root.join("docs");
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&docs)
        .expect("docs/ directory exists")
        .map(|e| e.expect("readable docs/ entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "md"))
        .collect();
    entries.sort();
    files.extend(entries);
    files
}

/// Extracts the targets of inline markdown links `[text](target)`.
fn markdown_link_targets(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while i + 1 < bytes.len() {
        if bytes[i] == b']' && bytes[i + 1] == b'(' {
            let start = i + 2;
            if let Some(rel_end) = text[start..].find(')') {
                out.push(text[start..start + rel_end].to_owned());
                i = start + rel_end;
            }
        }
        i += 1;
    }
    out
}

/// Characters that may appear inside a repo path mentioned in prose.
fn is_path_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '/' | '.' | '_' | '-')
}

/// Extracts `(path, optional line)` source anchors from prose: maximal
/// path-character runs starting with a known top-level directory, with an
/// optional `:line` or `:line-line` suffix (as used by ARCHITECTURE.md).
fn source_anchors(text: &str) -> Vec<(String, Option<u64>)> {
    const PREFIXES: [&str; 7] = [
        "crates/",
        "src/",
        "docs/",
        "examples/",
        "tests/",
        "vendor/",
        ".github/",
    ];
    let mut out = Vec::new();
    for prefix in PREFIXES {
        let mut from = 0;
        while let Some(pos) = text[from..].find(prefix) {
            let start = from + pos;
            // Must not be the tail of a longer path (e.g. `crates/core/src/`
            // matching the `src/` prefix) or of a word.
            let prev = text[..start].chars().next_back();
            if prev.is_some_and(is_path_char) {
                from = start + prefix.len();
                continue;
            }
            let rest = &text[start..];
            let end = rest.find(|c| !is_path_char(c)).unwrap_or(rest.len());
            let mut path = rest[..end].trim_end_matches('.').to_owned();
            let mut line = None;
            // optional `:NN` or `:NN-MM` suffix
            let after = &rest[path.len()..];
            if let Some(num) = after.strip_prefix(':') {
                let digits: String = num.chars().take_while(char::is_ascii_digit).collect();
                if !digits.is_empty() {
                    line = Some(digits.parse::<u64>().expect("checked digits"));
                }
            }
            // glob mentions like `crates/bench/src/bin/` + `*.rs` leave a
            // trailing directory path — that is fine, directories count.
            if path.ends_with('/') {
                path.pop();
            }
            if !path.is_empty() {
                out.push((path, line));
            }
            from = start + end.max(1);
        }
    }
    out
}

/// The Rust sources whose comments may cite markdown files: every `.rs`
/// file under `crates/`, `src/`, `tests/` and `examples/`.
fn rust_files() -> Vec<PathBuf> {
    fn walk(dir: &std::path::Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries {
            let path = entry.expect("readable directory entry").path();
            if path.is_dir() && !path.ends_with("target") {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let root = repo_root();
    let mut out = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        walk(&root.join(dir), &mut out);
    }
    out.sort();
    out
}

/// The comment part of each line of Rust source that has one: the text
/// from the first `//` on (which covers `//!` and `///`), skipping a `//`
/// that sits inside a string literal (an odd number of unescaped quotes
/// before it).
fn comments(source: &str) -> Vec<&str> {
    source
        .lines()
        .filter_map(|line| {
            let at = line
                .match_indices("//")
                .map(|(i, _)| i)
                .find(|&i| line[..i].replace("\\\"", "").matches('"').count() % 2 == 0)?;
            Some(&line[at..])
        })
        .collect()
}

/// Extracts the markdown file names mentioned in `text`: maximal
/// path-character runs ending in `.md` whose last component has a stem.
fn md_names(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (at, _) in text.match_indices(".md") {
        let end = at + ".md".len();
        if text[end..].chars().next().is_some_and(is_path_char) {
            continue;
        }
        let start = text[..at]
            .char_indices()
            .rev()
            .take_while(|&(_, c)| is_path_char(c))
            .last()
            .map_or(at, |(i, _)| i);
        let name = &text[start..end];
        // A bare `.md` (the tail of a `docs/*.md` glob) names no file.
        if name.rsplit('/').next().is_none_or(|file| file == ".md") {
            continue;
        }
        out.push(name.to_owned());
    }
    out
}

#[test]
fn markdown_links_point_at_existing_paths() {
    let root = repo_root();
    let mut broken = Vec::new();
    for file in doc_files() {
        let text = std::fs::read_to_string(&file).expect("doc file is readable");
        let dir = file.parent().expect("doc file has a parent");
        for target in markdown_link_targets(&text) {
            // External links and intra-document anchors are out of scope.
            if target.starts_with("http://")
                || target.starts_with("https://")
                || target.starts_with('#')
                || target.starts_with("mailto:")
            {
                continue;
            }
            let path = target.split('#').next().unwrap_or(&target);
            if path.is_empty() {
                continue;
            }
            let resolved = dir.join(path);
            if !resolved.exists() {
                broken.push(format!(
                    "{}: link target `{target}` does not exist",
                    file.strip_prefix(&root).unwrap_or(&file).display()
                ));
            }
        }
    }
    assert!(
        broken.is_empty(),
        "broken markdown links:\n{}",
        broken.join("\n")
    );
}

#[test]
fn source_anchors_point_at_existing_files_and_lines() {
    let root = repo_root();
    let mut broken = Vec::new();
    for file in doc_files() {
        let text = std::fs::read_to_string(&file).expect("doc file is readable");
        let rel = file.strip_prefix(&root).unwrap_or(&file).to_owned();
        for (path, line) in source_anchors(&text) {
            let resolved = root.join(&path);
            if !resolved.exists() {
                broken.push(format!("{}: `{path}` does not exist", rel.display()));
                continue;
            }
            if let Some(line) = line {
                let target = std::fs::read_to_string(&resolved).expect("anchored file is readable");
                let lines = target.lines().count() as u64;
                if line == 0 || line > lines {
                    broken.push(format!(
                        "{}: `{path}:{line}` is out of range (file has {lines} lines)",
                        rel.display()
                    ));
                }
            }
        }
    }
    assert!(
        broken.is_empty(),
        "broken source anchors:\n{}",
        broken.join("\n")
    );
}

#[test]
fn cited_markdown_files_exist() {
    let root = repo_root();
    let mut cited: Vec<(PathBuf, String)> = Vec::new();
    for file in doc_files() {
        let text = std::fs::read_to_string(&file).expect("doc file is readable");
        cited.extend(md_names(&text).into_iter().map(|n| (file.clone(), n)));
    }
    for file in rust_files() {
        let text = std::fs::read_to_string(&file).expect("source file is readable");
        for comment in comments(&text) {
            cited.extend(md_names(comment).into_iter().map(|n| (file.clone(), n)));
        }
    }
    let mut broken = Vec::new();
    for (file, name) in cited {
        let dir = file.parent().expect("cited from a file in a directory");
        if ![
            root.join(&name),
            root.join("docs").join(&name),
            dir.join(&name),
        ]
        .iter()
        .any(|p| p.exists())
        {
            let rel = file.strip_prefix(&root).unwrap_or(&file).display();
            broken.push(format!("{rel}: cites `{name}`, which does not exist"));
        }
    }
    assert!(
        broken.is_empty(),
        "citations of missing markdown files:\n{}",
        broken.join("\n")
    );
}

#[test]
fn extractors_parse_the_expected_shapes() {
    let text = "See [map](../docs/ARCHITECTURE.md) and `crates/core/src/alg1.rs:92` \
                (also `crates/core/src/approx.rs:213-216`, plus plain crates/graph \
                and the glob crates/bench/src/bin/*.rs).";
    assert_eq!(
        markdown_link_targets(text),
        vec!["../docs/ARCHITECTURE.md".to_owned()]
    );
    let anchors = source_anchors(text);
    assert!(anchors.contains(&("crates/core/src/alg1.rs".to_owned(), Some(92))));
    assert!(anchors.contains(&("crates/core/src/approx.rs".to_owned(), Some(213))));
    assert!(anchors.contains(&("crates/graph".to_owned(), None)));
    assert!(anchors.contains(&("crates/bench/src/bin".to_owned(), None)));

    let prose = "See `docs/TESTING.md`, [map](../docs/ARCHITECTURE.md), README.md, \
                 every docs/*.md and the .mdx file x.mdx.";
    assert_eq!(
        md_names(prose),
        vec!["docs/TESTING.md", "../docs/ARCHITECTURE.md", "README.md"]
    );
    // Built at run time, so this file's own comment scan does not see it.
    let source = "let url = \"http:SSx/A.md\"; SS see B.md\nSS/ C.md\nlet d = 1;".replace('S', "/");
    assert_eq!(comments(&source), vec!["// see B.md", "/// C.md"]);
}
