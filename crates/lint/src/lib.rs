//! `pixel-lint` — workspace-specific static analysis for the PIXEL
//! reproduction.
//!
//! Off-the-shelf tools cannot check the invariants this reproduction's
//! credibility rests on, so this crate does, with a zero-dependency,
//! std-only analyzer built on a lightweight Rust tokenizer (no `syn`):
//!
//! * **D-rules (determinism)** — artifacts are pinned bitwise by the
//!   snapshot-equivalence tests, so library code must not read wall
//!   clocks (`D001`) or the process environment (`D004`), must not let
//!   hash-iteration order reach artifact output (`D002`), and must not
//!   compare floats for exact equality against literals (`D003`).
//! * **A-rules (architecture)** — all design-specific cost logic lives
//!   in the `DesignModel` backends: no `match` on `Design` outside
//!   `crates/core/src/{model,omac}` (`A001`) and no cross-backend
//!   reference between the `ee`/`oe`/`oo` modules (`A002`).
//! * **U-rules (unit hygiene)** — public functions in the modelling
//!   crates whose parameter or return names claim a physical quantity
//!   (`*_energy`, `*_area`, `*_ns`, ...) must carry `pixel-units`
//!   newtypes, not bare `f64` (`U001`) — the discipline DSENT imposes
//!   on its technology models.
//! * **O-rules (observability hygiene)** — metric names handed to the
//!   `pixel_obs` recording functions must follow the lowercase
//!   dot-namespaced `crate.subsystem.metric` scheme (`O001`), so the
//!   profile tables and traces stay uniform.
//! * **P-rules (panic hygiene)** — non-test library code must not
//!   `unwrap()` / `expect()` / `panic!` (`P001`–`P003`) unless the line
//!   carries a justified `// lint:allow(P001) reason` suppression.
//!
//! On top of the per-file lexer sits a lightweight item parser
//! (module tree, `use` graph, fn items, name-resolved call sites) that
//! powers the structural rule families:
//!
//! * **G-rules (dependency graph)** — the workspace crate graph must be
//!   acyclic (`G001`), respect the documented layering (`G002`), keep
//!   the layer-0 leaves dependency-free (`G003`), keep the
//!   `ee`/`oe`/`oo` backends isolated even transitively (`G004`),
//!   reach every library module from a bin, test, bench or example
//!   (`G005`), and reach every library `pub fn` from one over the call
//!   graph, its own file's unit tests not counting (`G006`); the graph
//!   is rendered as the snapshot-pinned `reproduce archgraph` artifact.
//! * **P1xx (transitive panic paths)** — panic-capable expressions
//!   *reachable* from artifact entry points via the call graph
//!   (`P101`–`P103` mirror `P001`–`P003` and share their suppressions;
//!   `P104` adds arithmetic slice indexing).
//! * **C-rules (concurrency determinism)** — thread spawns outside the
//!   sanctioned engines (`C001`), mutable global state outside obs and
//!   the documented knobs (`C002`), completion-order accumulation in
//!   `thread::scope` merges (`C003`), and hash collections reachable
//!   from artifact paths (`C004`, D002 lifted to the use graph).
//! * **Meta rules** — malformed suppressions (`X001`), stale
//!   suppressions (`X002`, under `--unused-suppressions`), and spec
//!   drift between the rule set and `DESIGN.md` (`S001`).
//!
//! Findings can be grandfathered in `lint-baseline.toml` (kept empty in
//! this repository) and are reported in human or `--format json` form.
//! See `DESIGN.md` §11 for the rule catalogue and §14 for the
//! structural model and its documented limits.

pub mod baseline;
pub mod callgraph;
pub mod cli;
pub mod diag;
pub mod graph;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod walk;
pub mod workspace;

pub use diag::{Finding, RuleInfo, RULES};
pub use rules::{analyze_scan, analyze_source};
pub use workspace::{analyze_files, analyze_sources, AnalysisOptions, WorkspaceReport};
