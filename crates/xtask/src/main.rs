//! Workspace automation: the offline source lint.
//!
//! `cargo run -p xtask -- lint` runs the offline static-analysis pass
//! over every crate: it needs no network, no rustc invocation, and no
//! third-party dependencies, so it works in the most restricted CI
//! sandbox. The backend is `commorder-analyze`: a lossless token-stream
//! lexer plus layering/determinism/telemetry-name passes. It
//! complements (not replaces) `cargo clippy` with the workspace
//! deny-list: clippy enforces expression-level lints, the analyzer
//! enforces the *policy* invariants a lint pass can't express —
//! crate-header pragmas, manifest opt-ins, the panic-free-library rule
//! with its documented allowlist, the layering DAG, and report-path
//! determinism.
//!
//! `cargo run -p xtask -- lint --fix-allowlist` mechanically removes
//! allowlist entries the analyzer reports as unused (`XT0702`) before
//! printing the report, so the allowlist never accretes dead rows.

#![forbid(unsafe_code)]

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use commorder_analyze::workspace::prune_allowlist;
use commorder_analyze::{analyze_workspace, codes, AnalyzerConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(
            &workspace_root(),
            args.iter().any(|a| a == "--json"),
            args.iter().any(|a| a == "--fix-allowlist"),
        ),
        _ => {
            eprintln!("usage: cargo run -p xtask -- <task>");
            eprintln!();
            eprintln!("tasks:");
            eprintln!("  lint [--json] [--fix-allowlist]");
            eprintln!("          offline static-analysis pass over all workspace crates;");
            eprintln!("          --fix-allowlist prunes XT0702-unused allowlist entries first");
            ExitCode::FAILURE
        }
    }
}

/// Runs the analyzer over the workspace and prints the report; the
/// process fails when any error-severity finding is present. With
/// `fix_allowlist`, stale (`XT0702`) allowlist entries are pruned from
/// the allowlist file before the reported run.
fn lint(root: &Path, json: bool, fix_allowlist: bool) -> ExitCode {
    if fix_allowlist {
        match prune_stale_allowlist_entries(root) {
            Ok(0) => eprintln!("xtask lint: allowlist has no unused entries"),
            Ok(n) => eprintln!("xtask lint: pruned {n} unused allowlist entr{}", plural(n)),
            Err(e) => {
                eprintln!("xtask lint: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let report = match analyze_workspace(root, &AnalyzerConfig::default()) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    if json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
    }
    if report.errors() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Runs the analyzer once to locate `XT0702` findings, then rewrites
/// the allowlist file with those lines removed. Returns the number of
/// pruned entries.
fn prune_stale_allowlist_entries(root: &Path) -> Result<usize, String> {
    let config = AnalyzerConfig::default();
    let report = analyze_workspace(root, &config)?;
    let stale: BTreeSet<u32> = report
        .findings
        .iter()
        .filter(|f| f.code == codes::ALLOWLIST_UNUSED && f.file == config.allowlist_rel)
        .map(|f| f.line)
        .collect();
    if stale.is_empty() {
        return Ok(0);
    }
    let path = root.join(&config.allowlist_rel);
    let text =
        fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    fs::write(&path, prune_allowlist(&text, &stale))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(stale.len())
}

/// "y"/"ies" suffix for the prune message.
fn plural(n: usize) -> &'static str {
    if n == 1 {
        "y"
    } else {
        "ies"
    }
}

/// The workspace root: two levels above this crate's manifest.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map_or(manifest.clone(), Path::to_path_buf)
}
