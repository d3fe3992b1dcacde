//! Pinned-output equivalence: every paper artifact rendered through the
//! `DesignModel` backends and the memoized sweep engine must reproduce
//! the pre-refactor outputs bit for bit, serially and in parallel.
//!
//! The snapshots were captured from the `reproduce` binary before the
//! cost models moved behind the backend trait (`reproduce <key>`, header
//! line stripped); `serve` was pinned when the serving simulator landed.
//! `noise`, `audit` and `pam` pin the artifacts that reach the optical
//! signal types and the bit-true OMAC engines; they were captured before
//! on-off-keyed pulse trains gained their packed form. `power`,
//! `ablation`, `scaling`, `weights`, `counts` and `roofline` were
//! captured before the engines gained their load/fire block interface,
//! so every `reproduce` artifact key is now pinned.
//! Any divergence — a reordered float addition, a worker-count-dependent
//! result — fails here with a diff.

use pixel_core::sweep::set_default_jobs;

/// Artifact key, renderer, and its pinned pre-refactor output.
type Snapshot = (&'static str, fn() -> String, &'static str);

const SNAPSHOTS: [Snapshot; 21] = [
    (
        "table1",
        pixel_bench::table1,
        include_str!("snapshots/table1.txt"),
    ),
    (
        "fig4",
        pixel_bench::fig4,
        include_str!("snapshots/fig4.txt"),
    ),
    (
        "fig5",
        pixel_bench::fig5,
        include_str!("snapshots/fig5.txt"),
    ),
    (
        "fig6",
        pixel_bench::fig6,
        include_str!("snapshots/fig6.txt"),
    ),
    (
        "fig7",
        pixel_bench::fig7,
        include_str!("snapshots/fig7.txt"),
    ),
    (
        "fig8",
        pixel_bench::fig8,
        include_str!("snapshots/fig8.txt"),
    ),
    (
        "fig9",
        pixel_bench::fig9,
        include_str!("snapshots/fig9.txt"),
    ),
    (
        "fig10",
        pixel_bench::fig10,
        include_str!("snapshots/fig10.txt"),
    ),
    (
        "table2",
        pixel_bench::table2,
        include_str!("snapshots/table2.txt"),
    ),
    (
        "serve",
        pixel_bench::serve,
        include_str!("snapshots/serve.txt"),
    ),
    (
        "flightrec",
        pixel_bench::flightrec,
        include_str!("snapshots/flightrec.txt"),
    ),
    (
        "fleet",
        pixel_bench::fleet,
        include_str!("snapshots/fleet.txt"),
    ),
    (
        "noise",
        pixel_bench::noise,
        include_str!("snapshots/noise.txt"),
    ),
    (
        "audit",
        pixel_bench::audit,
        include_str!("snapshots/audit.txt"),
    ),
    ("pam", pixel_bench::pam, include_str!("snapshots/pam.txt")),
    (
        "power",
        pixel_bench::power,
        include_str!("snapshots/power.txt"),
    ),
    (
        "ablation",
        pixel_bench::ablation,
        include_str!("snapshots/ablation.txt"),
    ),
    (
        "scaling",
        pixel_bench::scaling,
        include_str!("snapshots/scaling.txt"),
    ),
    (
        "weights",
        pixel_bench::weights,
        include_str!("snapshots/weights.txt"),
    ),
    (
        "counts",
        pixel_bench::counts,
        include_str!("snapshots/counts.txt"),
    ),
    (
        "roofline",
        pixel_bench::roofline,
        include_str!("snapshots/roofline.txt"),
    ),
];

fn first_diff(actual: &str, expected: &str) -> String {
    for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        if a != e {
            return format!(
                "first diff at line {}:\n  got:      {a}\n  expected: {e}",
                i + 1
            );
        }
    }
    format!(
        "line counts differ: got {}, expected {}",
        actual.lines().count(),
        expected.lines().count()
    )
}

/// One test body for both worker counts: `set_default_jobs` is process
/// global, so the serial and 4-worker passes share a single `#[test]`.
#[test]
fn artifacts_match_pre_refactor_snapshots_serial_and_parallel() {
    for jobs in [1usize, 4] {
        set_default_jobs(Some(jobs));
        for (key, render, snapshot) in SNAPSHOTS {
            // The snapshots carry the trailing newline `reproduce` prints
            // after each artifact.
            let actual = format!("{}\n", render());
            assert_eq!(
                actual,
                snapshot,
                "{key} diverged from its pre-refactor snapshot at --jobs {jobs}; {}",
                first_diff(&actual, snapshot)
            );
        }
    }
    set_default_jobs(None);
}
