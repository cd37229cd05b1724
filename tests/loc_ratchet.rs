//! The size ratchet: no crate's non-test source may grow past its entry
//! in `LOC.json` at the repository root.
//!
//! Counting rule, per `.rs` file under `crates/<crate>/src`:
//! * a file counts its lines up to its first top-level
//!   `#[cfg(test)]` module (an inline `mod tests { .. }` or a
//!   `mod name;` declaration), and all of them when it has none;
//! * a file reached only through a `#[cfg(test)] mod name;`
//!   declaration (`ldms/src/daemon/sweep_oracle.rs`), or nested below
//!   such a file, counts as test and adds nothing.
//!
//! `crates/pipebench`, the benchmark, is not counted. A change that
//! shrinks a crate lowers its entry; one that must grow it raises the
//! entry and says in CHANGES.md what the lines bought.

use iosim_util::json;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Lines of `text` before its first top-level `#[cfg(test)]` module.
fn non_test_lines(text: &str) -> usize {
    let lines: Vec<&str> = text.lines().collect();
    lines
        .windows(2)
        .position(|w| w[0] == "#[cfg(test)]" && w[1].starts_with("mod "))
        .unwrap_or(lines.len())
}

/// The file holding the module that declares `file`, with the name it
/// is declared under; `None` for a crate root.
fn parent_module(src: &Path, file: &Path) -> Option<(PathBuf, String)> {
    let stem = file.file_stem()?.to_str()?;
    let dir = file.parent()?;
    let (name, dir) = if stem == "mod" {
        (dir.file_name()?.to_str()?, dir.parent()?)
    } else {
        (stem, dir)
    };
    if dir == src {
        if matches!(stem, "lib" | "main") {
            return None;
        }
        return Some((src.join("lib.rs"), name.to_string()));
    }
    if dir == src.join("bin") {
        return None;
    }
    let flat = dir.with_extension("rs");
    let parent = if flat.exists() {
        flat
    } else {
        dir.join("mod.rs")
    };
    Some((parent, name.to_string()))
}

/// True when `file` is compiled only into test builds.
fn test_only(src: &Path, file: &Path) -> bool {
    let Some((parent, name)) = parent_module(src, file) else {
        return false;
    };
    let text = fs::read_to_string(&parent).unwrap_or_default();
    let lines: Vec<&str> = text.lines().map(str::trim).collect();
    let declared_for_tests = lines.windows(2).any(|w| {
        w[0] == "#[cfg(test)]"
            && w[1]
                .split_whitespace()
                .skip_while(|t| t.starts_with("pub"))
                .eq(["mod", &format!("{name};")])
    });
    declared_for_tests || test_only(src, &parent)
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Non-test lines per crate directory name.
fn count() -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for entry in fs::read_dir(repo_root().join("crates")).expect("crates/") {
        let dir = entry.expect("crate directory").path();
        let name = dir.file_name().unwrap().to_string_lossy().into_owned();
        let src = dir.join("src");
        if name == "pipebench" || !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        rust_files(&src, &mut files);
        let lines = files
            .iter()
            .filter(|f| !test_only(&src, f))
            .map(|f| non_test_lines(&fs::read_to_string(f).expect("readable source")))
            .sum();
        counts.insert(name, lines);
    }
    counts
}

#[test]
fn no_crate_grows_past_its_loc_entry() {
    let path = repo_root().join("LOC.json");
    let text = fs::read_to_string(&path).expect("LOC.json at the repository root");
    let doc = json::parse(&text).expect("LOC.json parses");
    let allowed = doc
        .as_object()
        .expect("LOC.json is an object of crate: lines");
    let counts = count();
    let mut failures = Vec::new();
    for (name, &lines) in &counts {
        match allowed.get(name).and_then(|v| v.as_u64()) {
            None => failures.push(format!(
                "crate `{name}` ({lines} lines) has no LOC.json entry"
            )),
            Some(max) if lines as u64 > max => failures.push(format!(
                "crate `{name}` has {lines} non-test lines, {} over its LOC.json entry of {max}",
                lines as u64 - max
            )),
            Some(_) => {}
        }
    }
    for name in allowed.keys().filter(|n| !counts.contains_key(*n)) {
        failures.push(format!(
            "LOC.json names `{name}`, which is not a counted crate"
        ));
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn test_only_modules_count_as_test() {
    let src = repo_root().join("crates/ldms/src");
    assert!(test_only(&src, &src.join("daemon/sweep_oracle.rs")));
    assert!(!test_only(&src, &src.join("daemon.rs")));
    assert!(!test_only(&src, &src.join("lib.rs")));
    let daemon = fs::read_to_string(src.join("daemon.rs")).expect("daemon.rs");
    let counted = non_test_lines(&daemon);
    assert!(counted < daemon.lines().count());
    assert!(daemon
        .lines()
        .nth(counted)
        .is_some_and(|l| l == "#[cfg(test)]"));
}
