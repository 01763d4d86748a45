//! Source-size report: `size_report [DIR ...]` (default `crates src`) counts,
//! over every `.rs` file below the directories, the non-blank lines outside
//! `#[cfg(test)] mod` blocks and, of those, the lines declaring a `pub` fn,
//! struct, enum, trait, type, const, static, mod or use (`pub(crate)` is not
//! counted). A test block runs from its `#[cfg(test)]` line to the first
//! line holding only `}` at the `mod` line's indent (rustfmt layout).
//! Informational only: no gate reads the numbers.

use std::path::{Path, PathBuf};

const ITEMS: [&str; 9] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "use",
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = std::fs::read_dir(dir).into_iter().flatten().flatten();
    for path in entries.map(|e| e.path()) {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// `(non-test lines, public items)` of one source file.
fn count(source: &str) -> (usize, usize) {
    let (mut lines, mut items) = (0, 0);
    let mut test_block_end: Option<String> = None;
    let mut after_cfg_test = false;
    for line in source.lines() {
        let trimmed = line.trim();
        if let Some(end) = &test_block_end {
            if line == end {
                test_block_end = None;
            }
            continue;
        }
        if after_cfg_test && (trimmed.starts_with("mod ") || trimmed.starts_with("pub mod ")) {
            let indent = &line[..line.len() - line.trim_start().len()];
            test_block_end = Some(format!("{indent}}}"));
            lines -= 1; // the `#[cfg(test)]` line belongs to the block
            after_cfg_test = false;
            continue;
        }
        after_cfg_test = trimmed == "#[cfg(test)]";
        if trimmed.is_empty() {
            continue;
        }
        lines += 1;
        let item = trimmed
            .strip_prefix("pub ")
            .and_then(|r| r.split_whitespace().next());
        items += usize::from(item.is_some_and(|w| ITEMS.contains(&w)));
    }
    (lines, items)
}

fn main() {
    let mut dirs: Vec<String> = std::env::args().skip(1).collect();
    if dirs.is_empty() {
        dirs = vec!["crates".into(), "src".into()];
    }
    let mut files = Vec::new();
    for dir in &dirs {
        rust_files(Path::new(dir), &mut files);
    }
    let (mut lines, mut items) = (0, 0);
    for file in &files {
        let source = std::fs::read_to_string(file).expect("source files are readable");
        let (l, i) = count(&source);
        lines += l;
        items += i;
    }
    println!("files {}", files.len());
    println!("non-test lines {lines}");
    println!("public items {items}");
}
