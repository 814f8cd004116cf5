//! The mutation checklist's runner. Every row of `tests/mutants.tsv`
//! plants one defect in a copy of the tree under `target/mutants/`, and
//! the row's refuting test must then fail. A mutant whose test still
//! passes survives, and any survivor fails this run:
//!
//! ```text
//! cargo test --test mutants -- --ignored --nocapture
//! ```
//!
//! The copy is made once and each mutant is planted and reverted in
//! turn, so the builds after the first are incremental. A row whose
//! line no longer holds its text, or whose mutant does not build, is an
//! error rather than a kill: it proves nothing about the test.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

const CHECKLIST: &str = include_str!("mutants.tsv");

struct Mutant<'a> {
    id: &'a str,
    file: &'a str,
    line: usize,
    original: &'a str,
    replacement: &'a str,
    /// `tests/<target>.rs::<test fn>` for a root test, or
    /// `crates/<crate>/tests/<target>.rs::<test fn>` for a crate's.
    test: &'a str,
}

fn checklist() -> Vec<Mutant<'static>> {
    CHECKLIST
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| match l.split('\t').collect::<Vec<_>>()[..] {
            [id, file, line, original, replacement, test] => Mutant {
                id,
                file,
                line: line.parse().expect("line number"),
                original,
                replacement,
                test,
            },
            _ => panic!("a checklist row has six tab-separated fields: {l}"),
        })
        .collect()
}

/// Copy the workspace, minus build output and history, to `to`.
fn copy_tree(from: &Path, to: &Path) {
    fs::create_dir_all(to).expect("create the copy");
    for entry in fs::read_dir(from).expect("read the tree") {
        let entry = entry.expect("directory entry");
        let name = entry.file_name();
        if name == "target" || name == ".git" {
            continue;
        }
        let (src, dst) = (entry.path(), to.join(&name));
        if entry.file_type().expect("file type").is_dir() {
            copy_tree(&src, &dst);
        } else {
            fs::copy(&src, &dst).expect("copy a file");
        }
    }
}

/// `cargo test` of `target` in `tree`, running only the test `name`,
/// or building without running when `name` is `None`; true when cargo
/// succeeds.
fn cargo_test(tree: &Path, target: &Target, name: Option<&str>) -> bool {
    let mut cargo = Command::new(env!("CARGO"));
    cargo.args(["test", "--offline", "-q", "--test", target.name]);
    if let Some(manifest) = &target.manifest {
        cargo.args(["--manifest-path", manifest]);
    }
    match name {
        Some(name) => cargo.args(["--", "--exact", name]),
        None => cargo.arg("--no-run"),
    };
    cargo
        .current_dir(tree)
        .env("CARGO_TARGET_DIR", tree.join("target"))
        .status()
        .expect("run cargo")
        .success()
}

/// An integration test target: its name, and the manifest of the crate
/// it belongs to when that is not the root package.
struct Target<'a> {
    name: &'a str,
    manifest: Option<String>,
}

/// The test target and test name of `[crates/<crate>/]tests/<target>.rs::<name>`.
fn refuting_test<'a>(m: &Mutant<'a>) -> (Target<'a>, &'a str) {
    let (file, name) = m.test.split_once("::").expect("file::test");
    let (dir, target) = file
        .strip_suffix(".rs")
        .and_then(|f| f.rsplit_once("tests/"))
        .expect("an integration test");
    let manifest = (!dir.is_empty()).then(|| format!("{dir}Cargo.toml"));
    let target = Target {
        name: target,
        manifest,
    };
    (target, name)
}

#[test]
#[ignore = "builds the workspace once per mutant; run nightly"]
fn every_planted_mutant_is_killed() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let tree: PathBuf = root.join("target/mutants/tree");
    let _ = fs::remove_dir_all(&tree);
    copy_tree(root, &tree);
    // A test that fails on the unmutated tree would "kill" anything.
    for m in checklist() {
        let (target, name) = refuting_test(&m);
        assert!(
            cargo_test(&tree, &target, Some(name)),
            "{}: {} fails before any mutant is planted",
            m.id,
            m.test
        );
    }
    let mut survivors = Vec::new();
    for m in checklist() {
        let path = tree.join(m.file);
        let pristine = fs::read_to_string(&path).expect("read the mutated file");
        let mut lines: Vec<String> = pristine.lines().map(str::to_owned).collect();
        let line = &mut lines[m.line - 1];
        assert!(
            line.contains(m.original),
            "{}: {}:{} no longer holds `{}`",
            m.id,
            m.file,
            m.line,
            m.original
        );
        *line = line.replacen(m.original, m.replacement, 1);
        fs::write(&path, lines.join("\n") + "\n").expect("plant the mutant");

        let (target, name) = refuting_test(&m);
        let built = cargo_test(&tree, &target, None);
        let killed = built && !cargo_test(&tree, &target, Some(name));
        fs::write(&path, &pristine).expect("revert the mutant");
        assert!(built, "{}: the mutant does not build", m.id);
        println!(
            "{:<24} {}",
            m.id,
            if killed { "killed" } else { "SURVIVED" }
        );
        if !killed {
            survivors.push(m.id);
        }
    }
    assert!(survivors.is_empty(), "surviving mutants: {survivors:?}");
}
