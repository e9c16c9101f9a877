//! `commorder-analyze`: token-stream semantic source analysis for the
//! commorder workspace.
//!
//! The crate replaces the old line-regex lint with a real (if small)
//! program analysis. A zero-dependency lossless [`lexer`] turns each
//! source file into a spanned token stream; [`items`] extracts the
//! structural facts the passes share (`#[cfg(test)]` regions,
//! `macro_rules!` bodies, `use` trees, path chains); and four passes
//! produce findings with stable `XT` codes from [`codes`]:
//!
//! 1. [`source_rules`] — the call-site, crate-header, and doc rules
//!    (`XT0001`–`XT0301`), now immune to string/comment false
//!    positives;
//! 2. [`layering`] — inter-crate and intra-crate dependency graphs
//!    from `use`/path tokens, checked against a declared layer table
//!    with Tarjan SCC cycle reports (`XT0401`–`XT0404`);
//! 3. [`determinism`] — nondeterminism hazards in modules reachable
//!    from `render_json`/`Pipeline` (`XT0501`–`XT0504`);
//! 4. [`telemetry_names`] — `span!`/`counter!`/`gauge!`/`observe!`
//!    string literals diffed against the `names.rs` registry
//!    (`XT0601`–`XT0604`);
//! 5. [`callgraph`] — a workspace-wide symbol table and
//!    intra-workspace call graph with seeded reachability, feeding
//! 6. [`concurrency`] — the concurrency-safety audit of the engine
//!    crates plus worker-reachability rules (`XT0901`–`XT0905`), and
//! 7. [`effects`] — interprocedural effect inference: a fixed-point
//!    bottom-up effect lattice (allocates/locks/panics/does_io/
//!    nondeterministic/unsafe) over the call-graph SCC condensation
//!    with shortest-witness provenance, driving the hot-path
//!    allocation lint over loops of functions reachable from the
//!    simulate/reorder/replay seeds (`XT0801`–`XT0804`) and the
//!    inferred-effect rules (`XT1001`–`XT1005`).
//!
//! [`invariants`] asserts the call graph's and the lattice's contract
//! on the in-memory report data.
//!
//! Audited exceptions live in an allowlist file (one justified
//! `(code, file)` pair per line); allowlist hygiene is itself checked
//! (`XT0701`/`XT0702`). Entry point: [`analyze_workspace`] with an
//! [`AnalyzerConfig`] (the [`Default`] config describes the commorder
//! workspace). The analyzer self-hosts: `cargo run -p xtask -- lint`
//! runs it over this very crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod codes;
pub mod concurrency;
pub mod determinism;
pub mod effects;
pub mod findings;
pub mod invariants;
pub mod items;
pub mod layering;
pub mod lexer;
pub mod model;
pub mod source_rules;
pub mod telemetry_names;
pub mod workspace;

pub use findings::{AnalysisReport, Finding, Severity};
pub use lexer::{lex, Token, TokenKind};
pub use workspace::{analyze_workspace, AnalyzerConfig};
