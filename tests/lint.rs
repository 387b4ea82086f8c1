//! Repo lints over the workspace crates under `crates/`.
//!
//! * No ad-hoc seed derivation. Every stochastic stream must derive its
//!   seed through `drive_seed::SeedTree`; xor-a-magic-constant expressions
//!   like the old `seed ^ 0x5f5f` collide silently and are impossible to
//!   audit. The lint walks every Rust source file under `crates/` and fails
//!   with file:line locations if the pattern reappears.
//! * No unused dependencies. Every `[dependencies]` entry of a crate's
//!   manifest must be named in code under that crate's `src/`, so a
//!   dependency cannot outlive its last use. Likewise every
//!   `[workspace.dependencies]` entry must be a dependency of the root
//!   package or of some crate under `crates/`.

use std::fs;
use std::path::{Path, PathBuf};

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn no_magic_constant_seed_xors_in_crates() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut sources = Vec::new();
    rust_sources(&root, &mut sources);
    assert!(
        sources.len() > 10,
        "expected a populated crates/ tree, found {} files",
        sources.len()
    );

    let mut offenders = Vec::new();
    for path in &sources {
        let text = fs::read_to_string(path).expect("readable source");
        for (i, line) in text.lines().enumerate() {
            // Doc comments may mention the outlawed idiom by name; only
            // code counts.
            let code = line.split("//").next().unwrap_or("");
            if code.contains("seed ^ 0x") || code.contains("seed^0x") {
                offenders.push(format!("{}:{}: {}", path.display(), i + 1, line.trim()));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "magic-constant seed derivations found (use drive_seed::SeedTree):\n{}",
        offenders.join("\n")
    );
}

/// The keys of the given `[section]`s of a Cargo manifest, in file order.
fn section_keys(manifest: &str, sections: &[&str]) -> Vec<String> {
    let mut names = Vec::new();
    let mut in_section = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_section = sections.contains(&line);
        } else if in_section && !line.is_empty() && !line.starts_with('#') {
            let key = line.split(['=', '.']).next().unwrap_or("").trim();
            names.push(key.to_string());
        }
    }
    names
}

/// Whether `code` names the crate `ident` as a path root (`ident::`),
/// not as the tail of a longer identifier.
fn names_crate(code: &str, ident: &str) -> bool {
    let needle = format!("{ident}::");
    code.match_indices(&needle).any(|(at, _)| {
        !code[..at]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
    })
}

/// The directories under `crates/` that hold a Cargo manifest, sorted.
fn crate_dirs() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut crates: Vec<PathBuf> = fs::read_dir(&root)
        .expect("readable crates/")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    crates.sort();
    assert!(crates.len() > 5, "expected a populated crates/ tree");
    crates
}

#[test]
fn every_crate_dependency_is_used() {
    let crates = crate_dirs();
    let mut unused = Vec::new();
    for dir in &crates {
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).expect("readable manifest");
        let mut sources = Vec::new();
        rust_sources(&dir.join("src"), &mut sources);
        let mut code = String::new();
        for path in &sources {
            for line in fs::read_to_string(path).expect("readable source").lines() {
                // Only code counts: a doc comment naming a crate is not a use.
                code.push_str(line.split("//").next().unwrap_or(""));
                code.push('\n');
            }
        }
        for dep in section_keys(&manifest, &["[dependencies]"]) {
            if !names_crate(&code, &dep.replace('-', "_")) {
                unused.push(format!("{}: {dep}", dir.join("Cargo.toml").display()));
            }
        }
    }
    assert!(
        unused.is_empty(),
        "dependencies never referenced in their crate's src/ (remove them):\n{}",
        unused.join("\n")
    );
}

#[test]
fn every_workspace_dependency_is_used() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root_manifest = fs::read_to_string(root.join("Cargo.toml")).expect("readable manifest");
    let declared = section_keys(&root_manifest, &["[workspace.dependencies]"]);
    assert!(
        declared.len() > 5,
        "expected populated [workspace.dependencies]"
    );

    let dep_sections = [
        "[dependencies]",
        "[dev-dependencies]",
        "[build-dependencies]",
    ];
    let mut used = section_keys(&root_manifest, &dep_sections);
    for dir in crate_dirs() {
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).expect("readable manifest");
        used.extend(section_keys(&manifest, &dep_sections));
    }
    let unused: Vec<&String> = declared.iter().filter(|d| !used.contains(d)).collect();
    assert!(
        unused.is_empty(),
        "[workspace.dependencies] entries no package depends on (remove them): {unused:?}"
    );
}
