//! The size ratchet: no crate's non-test source may grow past its entry
//! in `LOC.json` at the repository root, and no file's non-test part
//! may exceed [`FILE_LIMIT`] lines unless `LOC.json` lists it.
//!
//! Counting rule, per `.rs` file under `crates/<crate>/src`:
//! * a file counts its lines up to its first top-level
//!   `#[cfg(test)]` module (an inline `mod tests { .. }` or a
//!   `mod name;` declaration), and all of them when it has none;
//! * a file reached only through a `#[cfg(test)] mod name;`
//!   declaration (`ldms/src/daemon/sweep_oracle.rs`), or nested below
//!   such a file, counts as test and adds nothing.
//!
//! `LOC.json` holds `crates`, each crate's allowed total, and `files`,
//! the allowed count of every file over the limit by its path from the
//! repository root. `crates/pipebench`, the benchmark, is not counted.
//! A change that shrinks a crate or a listed file lowers its entry, and
//! drops a file's entry once the file is back under the limit; one
//! that must grow a crate raises the entry and says in CHANGES.md what
//! the lines bought. A listed file may not grow.

use iosim_util::json;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Non-test lines a file may have without a `LOC.json` entry.
const FILE_LIMIT: usize = 1_000;

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

/// Non-test lines of every counted file, by crate directory name, then
/// by path from the repository root.
fn count() -> BTreeMap<String, BTreeMap<String, usize>> {
    let root = repo_root();
    let mut counts = BTreeMap::new();
    for entry in fs::read_dir(root.join("crates")).expect("crates/") {
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
            .map(|f| {
                let path = f.strip_prefix(&root).expect("under the root");
                let text = fs::read_to_string(f).expect("readable source");
                (path.to_string_lossy().into_owned(), non_test_lines(&text))
            })
            .collect();
        counts.insert(name, lines);
    }
    counts
}

/// One section of `LOC.json`: name → allowed lines.
fn allowed(section: &str) -> BTreeMap<String, u64> {
    let path = repo_root().join("LOC.json");
    let text = fs::read_to_string(&path).expect("LOC.json at the repository root");
    let doc = json::parse(&text).expect("LOC.json parses");
    doc.get(section)
        .and_then(|s| s.as_object())
        .unwrap_or_else(|| panic!("LOC.json has an object `{section}` of name: lines"))
        .iter()
        .map(|(name, v)| (name.clone(), v.as_u64().expect("a line count")))
        .collect()
}

#[test]
fn no_crate_grows_past_its_loc_entry() {
    let allowed = allowed("crates");
    let counts: BTreeMap<String, usize> = count()
        .into_iter()
        .map(|(name, files)| (name, files.values().sum()))
        .collect();
    let mut failures = Vec::new();
    for (name, &lines) in &counts {
        match allowed.get(name) {
            None => failures.push(format!(
                "crate `{name}` ({lines} lines) has no LOC.json entry"
            )),
            Some(&max) if lines as u64 > max => failures.push(format!(
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
fn no_file_grows_past_the_file_limit() {
    let allowed = allowed("files");
    let counts: BTreeMap<String, usize> = count().into_values().flatten().collect();
    let mut failures = Vec::new();
    for (path, &lines) in &counts {
        match allowed.get(path) {
            None if lines > FILE_LIMIT => failures.push(format!(
                "`{path}` has {lines} non-test lines, over the {FILE_LIMIT}-line limit, \
                 and no LOC.json entry"
            )),
            Some(&max) if lines as u64 > max => failures.push(format!(
                "`{path}` has {lines} non-test lines, {} over its LOC.json entry of {max}",
                lines as u64 - max
            )),
            Some(_) if lines <= FILE_LIMIT => failures.push(format!(
                "`{path}` is back under the {FILE_LIMIT}-line limit ({lines}): \
                 drop its LOC.json entry"
            )),
            _ => {}
        }
    }
    for path in allowed.keys().filter(|p| !counts.contains_key(*p)) {
        failures.push(format!(
            "LOC.json lists `{path}`, which is not a counted file"
        ));
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn test_only_modules_count_as_test() {
    let src = repo_root().join("crates/ldms/src");
    assert!(test_only(&src, &src.join("daemon/sweep_oracle.rs")));
    for module in [
        "lib.rs",
        "daemon.rs",
        "daemon/recovery.rs",
        "daemon/route.rs",
        "daemon/telemetry.rs",
        "network.rs",
    ] {
        assert!(
            !test_only(&src, &src.join(module)),
            "{module} is not test-only"
        );
    }
    let daemon = fs::read_to_string(src.join("daemon.rs")).expect("daemon.rs");
    let counted = non_test_lines(&daemon);
    assert!(counted < daemon.lines().count());
    assert!(daemon
        .lines()
        .nth(counted)
        .is_some_and(|l| l == "#[cfg(test)]"));
}
