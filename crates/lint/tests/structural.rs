//! Fixture tests for the structural rule families: each G/P1xx/C/S/X002
//! rule gets a positive fixture (the violation fires), a suppressed
//! fixture (a justified `lint:allow` clears it), and a negative fixture
//! (conforming code stays clean) — all through the public
//! [`pixel_lint::analyze_sources`] pipeline, exactly as the CLI runs it.

use pixel_lint::{analyze_sources, AnalysisOptions, WorkspaceReport};

fn analyze(sources: &[(&str, &str)]) -> WorkspaceReport {
    analyze_sources(sources, &AnalysisOptions::default())
}

fn rules_in(report: &WorkspaceReport, file: &str) -> Vec<&'static str> {
    report
        .findings
        .iter()
        .filter(|f| f.file == file)
        .map(|f| f.rule)
        .collect()
}

fn fired(report: &WorkspaceReport, rule: &str) -> bool {
    report.findings.iter().any(|f| f.rule == rule)
}

// ---------------------------------------------------------------- G-rules

#[test]
fn g001_flags_a_crate_cycle() {
    let r = analyze(&[
        (
            "crates/core/src/lib.rs",
            "use pixel_serve::wire::frame;\npub fn a() {}\n",
        ),
        (
            "crates/serve/src/lib.rs",
            "use pixel_core::config::Cfg;\npub mod wire;\n",
        ),
        ("crates/serve/src/wire.rs", "pub fn frame() {}\n"),
    ]);
    assert!(fired(&r, "G001"), "core <-> serve cycle: {:?}", r.findings);
}

#[test]
fn g002_flags_an_upward_layer_edge() {
    let r = analyze(&[
        (
            "crates/dnn/src/lib.rs",
            "use pixel_core::config::Cfg;\npub fn a() {}\n",
        ),
        ("crates/core/src/lib.rs", "pub mod config;\n"),
        ("crates/core/src/config.rs", "pub struct Cfg;\n"),
    ]);
    assert!(
        fired(&r, "G002"),
        "dnn (layer 1) -> core (layer 2): {:?}",
        r.findings
    );
}

#[test]
fn g003_takes_precedence_over_g002_for_leaves() {
    let r = analyze(&[
        (
            "crates/units/src/lib.rs",
            "use pixel_obs::span;\npub fn a() {}\n",
        ),
        ("crates/obs/src/lib.rs", "pub fn span() {}\n"),
    ]);
    assert!(fired(&r, "G003"), "units is a leaf: {:?}", r.findings);
    assert!(!fired(&r, "G002"), "G003 subsumes G002: {:?}", r.findings);
}

#[test]
fn g004_flags_transitive_backend_coupling() {
    // ee -> shared -> oo: no direct reference (A002 stays quiet), but
    // the transitive path must trip G004.
    let r = analyze(&[
        (
            "crates/core/src/model/ee.rs",
            "use crate::model::shared::helper;\npub fn cost() { helper(); }\n",
        ),
        (
            "crates/core/src/model/shared.rs",
            "use crate::model::oo::weight;\npub fn helper() { weight(); }\n",
        ),
        ("crates/core/src/model/oo.rs", "pub fn weight() {}\n"),
        (
            "crates/core/src/model/mod.rs",
            "pub mod ee;\npub mod oo;\npub mod shared;\n",
        ),
    ]);
    let g004: Vec<_> = r.findings.iter().filter(|f| f.rule == "G004").collect();
    assert!(!g004.is_empty(), "{:?}", r.findings);
    assert_eq!(g004[0].file, "crates/core/src/model/ee.rs");
    assert!(g004[0].message.contains("shared.rs"), "{}", g004[0].message);
    assert!(!fired(&r, "A002"), "no direct edge: {:?}", r.findings);
}

#[test]
fn g004_registry_mod_does_not_couple_backends() {
    // The registry mod.rs legitimately declares every backend; paths
    // through it must not count as coupling.
    let r = analyze(&[
        (
            "crates/core/src/model/ee.rs",
            "use crate::model::Registry;\npub fn cost() {}\n",
        ),
        ("crates/core/src/model/oo.rs", "pub fn weight() {}\n"),
        (
            "crates/core/src/model/mod.rs",
            "pub mod ee;\npub mod oo;\npub struct Registry;\n",
        ),
    ]);
    assert!(!fired(&r, "G004"), "{:?}", r.findings);
}

#[test]
fn conforming_downward_edges_stay_clean() {
    let r = analyze(&[
        (
            "crates/serve/src/lib.rs",
            "use pixel_core::config::Cfg;\npub fn a() {}\n",
        ),
        ("crates/core/src/lib.rs", "pub mod config;\n"),
        ("crates/core/src/config.rs", "pub struct Cfg;\n"),
    ]);
    for rule in ["G001", "G002", "G003", "G004"] {
        assert!(!fired(&r, rule), "{rule} misfired: {:?}", r.findings);
    }
}

fn g005_files(report: &WorkspaceReport) -> Vec<&str> {
    report
        .findings
        .iter()
        .filter(|f| f.rule == "G005")
        .map(|f| f.file.as_str())
        .collect()
}

#[test]
fn g005_flags_a_library_module_no_target_reaches() {
    let r = analyze(&[
        ("crates/core/src/island.rs", "pub fn f() {}\n"),
        ("crates/core/src/lib.rs", "pub mod island;\npub mod used;\n"),
        ("crates/core/src/used.rs", "pub fn f() {}\n"),
        (
            "tests/t.rs",
            "use pixel_core::used::f;\n#[test]\nfn t() { f(); }\n",
        ),
    ]);
    assert_eq!(
        g005_files(&r),
        ["crates/core/src/island.rs"],
        "{:?}",
        r.findings
    );
    let g005 = r.findings.iter().find(|f| f.rule == "G005");
    assert!(g005.is_some_and(|f| f.line == 1 && f.message.contains("`pixel_core::island`")));
}

#[test]
fn g005_resolves_meta_crate_paths() {
    let r = analyze(&[
        ("crates/core/src/lib.rs", "pub mod x;\n"),
        ("crates/core/src/x.rs", "pub fn f() {}\n"),
        ("examples/demo.rs", "fn main() { pixel::core::x::f(); }\n"),
        ("src/lib.rs", "pub use pixel_core as core;\n"),
    ]);
    assert!(g005_files(&r).is_empty(), "{:?}", r.findings);
}

#[test]
fn g005_resolves_a_child_mod_bare_head() {
    let r = analyze(&[
        ("crates/core/src/lib.rs", "pub mod model;\n"),
        ("crates/core/src/model/ee.rs", "pub fn cost() {}\n"),
        (
            "crates/core/src/model/mod.rs",
            "mod ee;\npub fn cost() { ee::cost(); }\n",
        ),
        ("tests/t.rs", "use pixel_core::model::cost;\n"),
    ]);
    assert!(g005_files(&r).is_empty(), "{:?}", r.findings);
}

#[test]
fn g005_resolves_an_imported_module_name() {
    let r = analyze(&[
        ("crates/dnn/src/lib.rs", "pub mod zoo;\n"),
        ("crates/dnn/src/zoo/lenet.rs", "pub fn build() {}\n"),
        ("crates/dnn/src/zoo/mod.rs", "pub mod lenet;\n"),
        (
            "examples/demo.rs",
            "use pixel_dnn::zoo;\nfn main() { zoo::lenet::build(); }\n",
        ),
    ]);
    assert!(g005_files(&r).is_empty(), "{:?}", r.findings);
}

#[test]
fn g005_counts_examples_benches_tests_and_bins_as_targets() {
    for target in [
        "examples/demo.rs",
        "examples/benchmark/src/main.rs",
        "crates/bench/benches/b.rs",
        "tests/t.rs",
        "crates/serve/src/bin/served.rs",
    ] {
        let r = analyze(&[
            ("crates/core/src/lib.rs", "pub mod x;\n"),
            ("crates/core/src/x.rs", "pub fn f() {}\n"),
            (target, "use pixel_core::x::f;\nfn main() { f(); }\n"),
        ]);
        assert!(g005_files(&r).is_empty(), "{target}: {:?}", r.findings);
    }
}

#[test]
fn g005_ignores_uses_inside_cfg_test() {
    let r = analyze(&[
        (
            "crates/core/src/a.rs",
            "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    use crate::b::g;\n}\n",
        ),
        ("crates/core/src/b.rs", "pub fn g() {}\n"),
        ("crates/core/src/lib.rs", "pub mod a;\npub mod b;\n"),
        ("tests/t.rs", "use pixel_core::a::f;\n"),
    ]);
    assert_eq!(g005_files(&r), ["crates/core/src/b.rs"], "{:?}", r.findings);
}

#[test]
fn g005_never_flags_a_crate_root() {
    let r = analyze(&[
        ("crates/core/src/lib.rs", "pub fn f() {}\n"),
        ("src/lib.rs", "pub use pixel_core as core;\n"),
        ("tests/t.rs", "#[test]\nfn t() {}\n"),
    ]);
    assert!(g005_files(&r).is_empty(), "{:?}", r.findings);
}

#[test]
fn g005_stays_off_in_a_tree_without_targets() {
    let r = analyze(&[
        ("crates/core/src/island.rs", "pub fn f() {}\n"),
        ("crates/core/src/lib.rs", "pub mod island;\n"),
    ]);
    assert!(!fired(&r, "G005"), "{:?}", r.findings);
}

fn g006_fns(report: &WorkspaceReport) -> Vec<(&str, u32)> {
    report
        .findings
        .iter()
        .filter(|f| f.rule == "G006")
        .map(|f| (f.file.as_str(), f.line))
        .collect()
}

/// `crates/core/src/x.rs`: `used` (line 1) is what `tests/t.rs` calls;
/// `lonely` (line 2) is called only by the file's own unit test.
const OWN_TEST_ONLY: &str = "pub fn used() {}\npub fn lonely() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { super::lonely(); }\n}\n";

#[test]
fn g006_flags_a_pub_fn_only_its_own_tests_call() {
    let r = analyze(&[
        ("crates/core/src/lib.rs", "pub mod x;\n"),
        ("crates/core/src/x.rs", OWN_TEST_ONLY),
        ("tests/t.rs", "fn main() { pixel_core::x::used(); }\n"),
    ]);
    assert_eq!(
        g006_fns(&r),
        [("crates/core/src/x.rs", 2)],
        "{:?}",
        r.findings
    );
    let g006 = r.findings.iter().find(|f| f.rule == "G006");
    assert!(g006.is_some_and(|f| f.message.contains("`lonely`")));
}

#[test]
fn g006_flags_a_pub_fn_reached_only_through_a_flagged_one() {
    let r = analyze(&[
        ("crates/core/src/lib.rs", "pub mod x;\npub mod y;\n"),
        (
            "crates/core/src/x.rs",
            OWN_TEST_ONLY
                .replace(
                    "pub fn lonely() {}",
                    "pub fn lonely() { crate::y::helper(); }",
                )
                .as_str(),
        ),
        ("crates/core/src/y.rs", "pub fn helper() {}\n"),
        ("tests/t.rs", "fn main() { pixel_core::x::used(); }\n"),
    ]);
    assert_eq!(
        g006_fns(&r),
        [("crates/core/src/x.rs", 2), ("crates/core/src/y.rs", 1)],
        "{:?}",
        r.findings
    );
}

#[test]
fn g006_counts_tests_examples_and_other_files_tests_as_reaching() {
    for (user, text) in [
        (
            "tests/t.rs",
            "#[test]\nfn t() { pixel_core::x::lonely(); }\n",
        ),
        (
            "examples/demo.rs",
            "use pixel_core::x::lonely;\nfn main() { lonely(); }\n",
        ),
        (
            "examples/benchmark/src/main.rs",
            "fn main() { pixel::core::x::lonely(); }\n",
        ),
        (
            "crates/serve/tests/p.rs",
            "#[test]\nfn t() { pixel_core::x::lonely(); }\n",
        ),
        (
            "crates/core/src/z.rs",
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { crate::x::lonely(); }\n}\n",
        ),
    ] {
        let r = analyze(&[
            ("crates/core/src/lib.rs", "pub mod x;\npub mod z;\n"),
            ("crates/core/src/x.rs", OWN_TEST_ONLY),
            ("tests/u.rs", "fn main() { pixel_core::x::used(); }\n"),
            (user, text),
        ]);
        assert!(g006_fns(&r).is_empty(), "{user}: {:?}", r.findings);
    }
}

#[test]
fn g006_roots_trait_impls_called_without_their_names() {
    let r = analyze(&[
        ("crates/core/src/lib.rs", "pub mod x;\n"),
        (
            "crates/core/src/x.rs",
            "pub struct S;\npub fn label() -> &'static str { \"s\" }\nimpl std::fmt::Display for S {\n    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {\n        f.write_str(label())\n    }\n}\n",
        ),
        ("tests/t.rs", "#[test]\nfn t() { let _ = pixel_core::x::S.to_string(); }\n"),
    ]);
    assert!(g006_fns(&r).is_empty(), "{:?}", r.findings);
}

#[test]
fn g006_counts_a_fn_passed_as_a_value() {
    for call in [
        "v.iter().map(Tensor::data).count()",
        "v.iter().map(data).count()",
        "[data].len()",
        "{ let e = Entry { run: data }; v.len() }",
        "match v.len() { _ => data }",
        "{ let f = { data }; v.len() }",
        "v.iter().map(|_| data).count()",
    ] {
        let r = analyze(&[
            ("crates/core/src/lib.rs", "pub mod x;\n"),
            (
                "crates/core/src/x.rs",
                &format!("pub struct Tensor;\nimpl Tensor {{\n    pub fn data(&self) -> u32 {{ 0 }}\n}}\npub fn data(_: &Tensor) -> u32 {{ 0 }}\npub fn total(v: &[Tensor]) -> usize {{ {call} }}\n"),
            ),
            ("tests/t.rs", "#[test]\nfn t() { pixel_core::x::total(&[]); }\n"),
        ]);
        assert!(g006_fns(&r).is_empty(), "{call}: {:?}", r.findings);
    }
}

#[test]
fn g006_skips_restricted_visibility_and_trees_without_targets() {
    let hidden = analyze(&[
        ("crates/core/src/lib.rs", "pub mod x;\n"),
        ("crates/core/src/x.rs", "pub(crate) fn a() {}\nfn b() {}\n"),
        ("tests/t.rs", "#[test]\nfn t() {}\n"),
    ]);
    assert!(g006_fns(&hidden).is_empty(), "{:?}", hidden.findings);
    let untargeted = analyze(&[
        ("crates/core/src/lib.rs", "pub mod x;\n"),
        ("crates/core/src/x.rs", OWN_TEST_ONLY),
    ]);
    assert!(!fired(&untargeted, "G006"), "{:?}", untargeted.findings);
}

// ---------------------------------------------------------------- P1xx

#[test]
fn p101_flags_unwrap_reachable_from_a_bin() {
    let r = analyze(&[
        (
            "crates/bench/src/bin/tool.rs",
            "fn main() { pixel_core::helper::risky(); }\n",
        ),
        (
            "crates/core/src/helper.rs",
            "pub fn risky() { std::fs::read(\"x\").unwrap(); }\n",
        ),
        ("crates/core/src/lib.rs", "pub mod helper;\n"),
    ]);
    let p101: Vec<_> = r.findings.iter().filter(|f| f.rule == "P101").collect();
    assert_eq!(p101.len(), 1, "{:?}", r.findings);
    assert_eq!(p101[0].file, "crates/core/src/helper.rs");
    assert!(p101[0].message.contains("main"), "{}", p101[0].message);
}

#[test]
fn p001_suppression_carries_over_to_p101() {
    let r = analyze(&[
        (
            "crates/bench/src/bin/tool.rs",
            "fn main() { pixel_core::helper::risky(); }\n",
        ),
        (
            "crates/core/src/helper.rs",
            "pub fn risky() {\n    // lint:allow(P001) fixture: the read is infallible here\n    std::fs::read(\"x\").unwrap();\n}\n",
        ),
        ("crates/core/src/lib.rs", "pub mod helper;\n"),
    ]);
    assert!(!fired(&r, "P001"), "{:?}", r.findings);
    assert!(!fired(&r, "P101"), "carryover: {:?}", r.findings);
}

#[test]
fn p102_flags_expect_reachable_from_an_entry_lib_surface() {
    let r = analyze(&[(
        "crates/serve/src/machine.rs",
        "pub fn step() { inner(); }\nfn inner() { opt().expect(\"set\"); }\nfn opt() -> Option<u32> { None }\n",
    )]);
    assert!(fired(&r, "P102"), "{:?}", r.findings);
}

#[test]
fn p103_flags_panic_reachable_from_a_bin() {
    let r = analyze(&[(
        "crates/serve/src/bin/served.rs",
        "fn main() { fail(); }\nfn fail() { panic!(\"boom\"); }\n",
    )]);
    assert!(fired(&r, "P103"), "{:?}", r.findings);
}

#[test]
fn p104_flags_reachable_arithmetic_indexing_and_suppression_clears_it() {
    let hot = "pub fn run(v: &[u32], i: usize) -> u32 { v[i + 1] }\n";
    let r = analyze(&[("crates/fleet/src/sim.rs", hot)]);
    assert!(fired(&r, "P104"), "{:?}", r.findings);

    let suppressed = "// lint:allow(P104) fixture: i + 1 < v.len() is the documented contract\npub fn run(v: &[u32], i: usize) -> u32 { v[i + 1] }\n";
    let r = analyze(&[("crates/fleet/src/sim.rs", suppressed)]);
    assert!(!fired(&r, "P104"), "{:?}", r.findings);
}

#[test]
fn unreachable_panics_do_not_become_p1xx() {
    // A lexical P001 still fires, but no entry point reaches the fn, so
    // the transitive rule must stay quiet.
    let r = analyze(&[
        (
            "crates/core/src/island.rs",
            "pub fn island() { opt().unwrap(); }\nfn opt() -> Option<u32> { None }\n",
        ),
        ("crates/core/src/lib.rs", "pub mod island;\n"),
    ]);
    assert!(fired(&r, "P001"), "{:?}", r.findings);
    assert!(!fired(&r, "P101"), "{:?}", r.findings);
}

// ---------------------------------------------------------------- C-rules

#[test]
fn c001_flags_thread_spawn_outside_sanctioned_modules() {
    let src = "pub fn go() { std::thread::spawn(|| {}); }\n";
    let r = analyze(&[("crates/core/src/engine.rs", src)]);
    assert_eq!(rules_in(&r, "crates/core/src/engine.rs"), vec!["C001"]);

    // The sanctioned sweep engine may spawn.
    let r = analyze(&[("crates/core/src/sweep.rs", src)]);
    assert!(!fired(&r, "C001"), "{:?}", r.findings);

    // A justified suppression clears it elsewhere.
    let suppressed =
        "pub fn go() {\n    // lint:allow(C001) fixture: scoped helper joins before returning\n    std::thread::spawn(|| {});\n}\n";
    let r = analyze(&[("crates/core/src/engine.rs", suppressed)]);
    assert!(!fired(&r, "C001"), "{:?}", r.findings);
}

#[test]
fn c002_flags_mutable_global_state() {
    // `static mut` is never acceptable, even in a sanctioned file.
    let r = analyze(&[("crates/obs/src/registry.rs", "static mut COUNT: u32 = 0;\n")]);
    assert!(fired(&r, "C002"), "{:?}", r.findings);

    // Interior-mutable statics are flagged outside the sanctioned set...
    let locked = "static CACHE: std::sync::Mutex<u32> = std::sync::Mutex::new(0);\n";
    let r = analyze(&[("crates/core/src/state.rs", locked)]);
    assert!(fired(&r, "C002"), "{:?}", r.findings);

    // ... and sanctioned inside obs (the metrics registry lives there).
    let r = analyze(&[("crates/obs/src/registry.rs", locked)]);
    assert!(!fired(&r, "C002"), "{:?}", r.findings);
}

#[test]
fn c003_flags_completion_order_accumulation() {
    let src = "pub fn total(xs: &[u64]) -> u64 {\n    let mut sum = 0u64;\n    std::thread::scope(|s| {\n        let hs: Vec<_> = xs.iter().map(|x| s.spawn(move || *x)).collect();\n        for h in hs {\n            sum += h.join().unwrap_or(0);\n        }\n    });\n    sum\n}\n";
    let r = analyze(&[("crates/core/src/sweep.rs", src)]);
    assert!(fired(&r, "C003"), "{:?}", r.findings);

    // Collecting into a Vec and folding afterwards is the sanctioned
    // spawn-order merge.
    let folded = "pub fn total(xs: &[u64]) -> u64 {\n    let parts = std::thread::scope(|s| {\n        let hs: Vec<_> = xs.iter().map(|x| s.spawn(move || *x)).collect();\n        hs.into_iter().map(|h| h.join().unwrap_or(0)).collect::<Vec<_>>()\n    });\n    parts.iter().sum()\n}\n";
    let r = analyze(&[("crates/core/src/sweep.rs", folded)]);
    assert!(!fired(&r, "C003"), "{:?}", r.findings);
}

#[test]
fn c004_flags_hash_collections_reachable_from_artifact_paths() {
    let util = "use std::collections::HashMap;\npub struct Cache { pub map: HashMap<u32, u32> }\n";
    let reached = [
        (
            "crates/serve/src/lib.rs",
            "use pixel_core::util::Cache;\npub fn a() {}\n",
        ),
        ("crates/core/src/util.rs", util),
        ("crates/core/src/lib.rs", "pub mod util;\n"),
    ];
    let r = analyze(&reached);
    let c004: Vec<_> = r.findings.iter().filter(|f| f.rule == "C004").collect();
    assert_eq!(c004.len(), 1, "{:?}", r.findings);
    assert_eq!(c004[0].file, "crates/core/src/util.rs");

    // The same file with no edge from the artifact/report paths is out
    // of C004's jurisdiction (D002 never applied to it either).
    let r = analyze(&[
        ("crates/core/src/util.rs", util),
        ("crates/core/src/lib.rs", "pub mod util;\n"),
    ]);
    assert!(!fired(&r, "C004"), "{:?}", r.findings);

    // A justified suppression on the import line clears it.
    let suppressed = "// lint:allow(C004) fixture: per-key reads only, order never leaves\nuse std::collections::HashMap;\npub struct Cache { pub map: HashMap<u32, u32> }\n";
    let mut sources = reached;
    sources[1] = ("crates/core/src/util.rs", suppressed);
    let r = analyze(&sources);
    assert!(!fired(&r, "C004"), "{:?}", r.findings);
}

// ---------------------------------------------------------------- meta

#[test]
fn s001_flags_spec_drift_in_both_directions() {
    // A catalogue that documents a bogus rule and misses real ones.
    let opts = AnalysisOptions {
        design_md: Some("The catalogue: D001 and the imaginary S999.\n"),
        ..AnalysisOptions::default()
    };
    let r = analyze_sources(&[("crates/core/src/lib.rs", "pub fn a() {}\n")], &opts);
    let s001: Vec<_> = r.findings.iter().filter(|f| f.rule == "S001").collect();
    assert!(
        s001.iter().any(|f| f.message.contains("S999")),
        "undocumented bogus id: {:?}",
        r.findings
    );
    assert!(
        s001.iter()
            .any(|f| f.message.contains("missing from the DESIGN.md catalogue")),
        "missing implemented ids: {:?}",
        r.findings
    );
    assert!(s001.iter().all(|f| f.file == "DESIGN.md"));
}

#[test]
fn x002_flags_stale_suppressions_only_when_asked() {
    let sources = [(
        "crates/core/src/quiet.rs",
        "// lint:allow(D001) fixture: nothing here reads a clock\npub fn a() {}\n",
    )];
    let r = analyze_sources(&sources, &AnalysisOptions::default());
    assert!(!fired(&r, "X002"), "off by default: {:?}", r.findings);

    let opts = AnalysisOptions {
        unused_suppressions: true,
        ..AnalysisOptions::default()
    };
    let r = analyze_sources(&sources, &opts);
    let x002: Vec<_> = r.findings.iter().filter(|f| f.rule == "X002").collect();
    assert_eq!(x002.len(), 1, "{:?}", r.findings);
    assert!(x002[0].message.contains("D001"), "{}", x002[0].message);
}

#[test]
fn x002_spares_suppressions_that_suppress_something() {
    let opts = AnalysisOptions {
        unused_suppressions: true,
        ..AnalysisOptions::default()
    };
    let r = analyze_sources(
        &[(
            "crates/core/src/busy.rs",
            "pub fn risky() {\n    // lint:allow(P001) fixture: infallible by construction\n    opt().unwrap();\n}\nfn opt() -> Option<u32> { None }\n",
        )],
        &opts,
    );
    assert!(!fired(&r, "X002"), "{:?}", r.findings);
    assert!(!fired(&r, "P001"), "{:?}", r.findings);
}

// ------------------------------------------------------------ determinism

#[test]
fn findings_and_archgraph_are_jobs_invariant() {
    // A workspace large enough to split into chunks, with violations in
    // several files; every worker count must agree byte for byte.
    let sources: &[(&str, &str)] = &[
        (
            "crates/core/src/engine.rs",
            "pub fn go() { std::thread::spawn(|| {}); }\n",
        ),
        (
            "crates/core/src/island.rs",
            "pub fn island() { opt().unwrap(); }\nfn opt() -> Option<u32> { None }\n",
        ),
        (
            "crates/core/src/lib.rs",
            "pub mod engine;\npub mod island;\n",
        ),
        (
            "crates/dnn/src/lib.rs",
            "use pixel_core::engine::go;\npub fn a() {}\n",
        ),
        (
            "crates/fleet/src/sim.rs",
            "pub fn run(v: &[u32], i: usize) -> u32 { v[i + 1] }\n",
        ),
        ("crates/units/src/lib.rs", "use pixel_obs::span;\n"),
    ];
    let base = analyze_sources(sources, &AnalysisOptions::default());
    assert!(!base.findings.is_empty());
    for jobs in [2usize, 4, 9] {
        let opts = AnalysisOptions {
            jobs,
            ..AnalysisOptions::default()
        };
        let r = analyze_sources(sources, &opts);
        assert_eq!(r.findings, base.findings, "findings differ at jobs {jobs}");
        assert_eq!(
            pixel_lint::graph::render_archgraph(&r.graph),
            pixel_lint::graph::render_archgraph(&base.graph),
            "archgraph differs at jobs {jobs}"
        );
    }
}
