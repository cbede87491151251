//! The replay determinism contract is clippy configuration
//! (docs/DETERMINISM.md): the root manifest denies six lints, every
//! package whose code the journal replay re-executes opts into them, and
//! `clippy.toml` names the banned types and methods. `cargo clippy
//! --all-targets -- -D warnings` enforces the contract; these tests pin
//! the configuration, so dropping a piece of it fails `cargo test` too.
//! The manifests are read as text: only the lines the contract needs.

use std::path::Path;

/// The packages (directories under `crates/`) the journal replay
/// re-executes.
const REPLAY_PACKAGES: [&str; 11] = [
    "core",
    "dgl",
    "dgms",
    "fabric",
    "ilm",
    "journal",
    "lint",
    "scheduler",
    "simgrid",
    "triggers",
    "xml",
];

/// The lints `[workspace.lints.clippy]` must deny.
const DENIED_LINTS: [&str; 6] = [
    "disallowed_types",
    "disallowed_methods",
    "iter_over_hash_type",
    "float_cmp",
    "allow_attributes",
    "allow_attributes_without_reason",
];

/// `disallowed-types`: hash collections and their seeded hasher
/// (DGA001), the wall clock (DGA002), OS entropy (DGA003).
const DISALLOWED_TYPES: [&str; 5] = [
    "std::collections::HashMap",
    "std::collections::HashSet",
    "std::collections::hash_map::RandomState",
    "std::time::SystemTime",
    "rand::rngs::OsRng",
];

/// `disallowed-methods`: wall-clock reads (DGA002), ambient entropy
/// (DGA003) and the environment (DGA004).
const DISALLOWED_METHODS: [&str; 15] = [
    "std::time::Instant::now",
    "std::time::SystemTime::now",
    "std::time::SystemTime::elapsed",
    "std::time::SystemTime::duration_since",
    "rand::thread_rng",
    "rand::random",
    "rand::SeedableRng::from_entropy",
    "std::env::var",
    "std::env::var_os",
    "std::env::vars",
    "std::env::vars_os",
    "std::env::args",
    "std::env::args_os",
    "std::env::current_dir",
    "std::env::temp_dir",
];

fn repo_file(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The `key = value` pairs of one `[name]` table, comments and blank
/// lines skipped; empty when the table is absent.
fn table(toml: &str, name: &str) -> Vec<(String, String)> {
    let header = format!("[{name}]");
    toml.lines()
        .map(str::trim)
        .skip_while(|line| *line != header)
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .filter_map(|line| line.split_once('='))
        .map(|(key, value)| (key.trim().to_owned(), value.trim().to_owned()))
        .collect()
}

/// The `path = "…"` entries of the `key = [ … ]` array in clippy.toml.
fn listed_paths(config: &str, key: &str) -> Vec<String> {
    let start = format!("{key} = [");
    config
        .lines()
        .map(str::trim)
        .skip_while(|line| *line != start)
        .skip(1)
        .take_while(|line| *line != "]")
        .filter_map(|line| line.split("path = \"").nth(1)?.split('"').next())
        .map(str::to_owned)
        .collect()
}

#[test]
fn the_workspace_denies_every_contract_lint() {
    let lints = table(&repo_file("Cargo.toml"), "workspace.lints.clippy");
    for lint in DENIED_LINTS {
        assert!(
            lints.contains(&(lint.to_owned(), "\"deny\"".to_owned())),
            "[workspace.lints.clippy] must set {lint} = \"deny\"; it has {lints:?}"
        );
    }
}

#[test]
fn every_replay_package_opts_into_the_contract() {
    for package in REPLAY_PACKAGES {
        let manifest = repo_file(&format!("crates/{package}/Cargo.toml"));
        assert_eq!(
            table(&manifest, "lints"),
            [("workspace".to_owned(), "true".to_owned())],
            "crates/{package}/Cargo.toml must opt in with `[lints] workspace = true`"
        );
    }
}

#[test]
fn clippy_toml_lists_every_disallowed_path() {
    let config = repo_file("clippy.toml");
    for (key, expected) in [
        ("disallowed-types", &DISALLOWED_TYPES[..]),
        ("disallowed-methods", &DISALLOWED_METHODS[..]),
    ] {
        let listed = listed_paths(&config, key);
        for path in expected {
            assert!(
                listed.iter().any(|p| p == path),
                "clippy.toml `{key}` must list {path}; it lists {listed:?}"
            );
        }
    }
}
