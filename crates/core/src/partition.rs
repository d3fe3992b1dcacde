//! Fabric partitioning: concurrent multi-network inference.
//!
//! §III-C(iii): "With two-dimensional connectivity, each row or column
//! can be individually utilized/driven to solve a neural network
//! problem." This module evaluates that claim: the tile grid's rows are
//! divided among independent inference jobs, each job runs on its row
//! share, and the resulting makespan is compared against running the jobs
//! back-to-back on the whole fabric.

use crate::accelerator::Accelerator;
use crate::config::AcceleratorConfig;
use pixel_dnn::network::Network;
use pixel_units::Time;

/// One job's placement: which network runs on how many rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Network name.
    pub network: String,
    /// Rows (of the tile grid) assigned.
    pub rows: usize,
    /// Job latency on that share.
    pub latency: Time,
}

/// Result of a partitioned run.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionReport {
    /// Per-job placements.
    pub placements: Vec<Placement>,
    /// Concurrent makespan (slowest job).
    pub makespan: Time,
    /// Sequential baseline (jobs back-to-back on the full fabric).
    pub sequential: Time,
}

impl PartitionReport {
    /// Throughput gain of partitioning: sequential time over makespan.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.sequential / self.makespan
    }
}

/// Latency of `network` when given `rows` of a `grid_rows`-row fabric.
fn latency_on_rows(
    base: &AcceleratorConfig,
    grid_rows: usize,
    rows: usize,
    network: &Network,
) -> Time {
    let tiles_share = (base.tiles * rows / grid_rows).max(1);
    Accelerator::new(base.with_tiles(tiles_share))
        .evaluate(network)
        .total_latency()
}

/// Evaluates an explicit row assignment (one entry per job, rows must sum
/// to at most `grid_rows`).
///
/// # Panics
///
/// Panics if the assignment is empty, a job gets zero rows, or the rows
/// oversubscribe the grid.
#[must_use]
pub fn evaluate_partition(
    base: &AcceleratorConfig,
    grid_rows: usize,
    jobs: &[(&Network, usize)],
) -> PartitionReport {
    assert!(!jobs.is_empty(), "at least one job");
    let total_rows: usize = jobs.iter().map(|(_, r)| r).sum();
    assert!(
        total_rows <= grid_rows,
        "jobs oversubscribe the grid: {total_rows} rows assigned, {grid_rows} available"
    );
    assert!(jobs.iter().all(|&(_, r)| r > 0), "every job needs a row");

    let placements: Vec<Placement> = jobs
        .iter()
        .map(|&(net, rows)| Placement {
            network: net.name().to_owned(),
            rows,
            latency: latency_on_rows(base, grid_rows, rows, net),
        })
        .collect();
    let makespan = placements
        .iter()
        .map(|p| p.latency)
        .fold(Time::ZERO, Time::max);
    let sequential = jobs
        .iter()
        .map(|&(net, _)| Accelerator::new(*base).evaluate(net).total_latency())
        .sum();
    PartitionReport {
        placements,
        makespan,
        sequential,
    }
}

/// Greedy workload-proportional row assignment: each job gets rows in
/// proportion to its total multiply count (at least one).
///
/// # Panics
///
/// Panics if there are more jobs than rows.
#[must_use]
pub fn proportional_rows(grid_rows: usize, jobs: &[&Network]) -> Vec<usize> {
    assert!(jobs.len() <= grid_rows, "more jobs than rows");
    let work: Vec<u64> = jobs
        .iter()
        .map(|n| pixel_dnn::analysis::network_totals(n).mul)
        .collect();
    let total: u64 = work.iter().sum::<u64>().max(1);
    // Start everyone at one row, distribute the rest largest-remainder.
    let mut rows = vec![1usize; jobs.len()];
    let mut remaining = grid_rows - jobs.len();
    while remaining > 0 {
        // Give the next row to the job with the highest work-per-row.
        let (idx, _) = rows
            .iter()
            .enumerate()
            .max_by(|(i, &ra), (j, &rb)| {
                let a = work[*i] * rb as u64;
                let b = work[*j] * ra as u64;
                a.cmp(&b)
            })
            // lint:allow(P002) rows is non-empty: the grid has at least one row
            .expect("non-empty");
        rows[idx] += 1;
        remaining -= 1;
    }
    debug_assert_eq!(rows.iter().sum::<usize>(), grid_rows);
    let _ = total;
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Design;
    use pixel_dnn::zoo;

    fn base() -> AcceleratorConfig {
        AcceleratorConfig::new(Design::Oo, 4, 16).with_tiles(16)
    }

    #[test]
    fn equal_jobs_split_evenly_match_sequential() {
        // Two identical jobs on half the fabric each ≈ running them
        // back-to-back on the whole fabric (linear tile scaling).
        let net = zoo::lenet();
        let report = evaluate_partition(&base(), 4, &[(&net, 2), (&net, 2)]);
        let ratio = report.speedup();
        assert!((ratio - 1.0).abs() < 0.15, "speedup {ratio}");
    }

    #[test]
    fn unbalanced_jobs_benefit_from_proportional_rows() {
        let big = zoo::zfnet();
        let small = zoo::lenet();
        let naive = evaluate_partition(&base(), 4, &[(&big, 2), (&small, 2)]);
        let rows = proportional_rows(4, &[&big, &small]);
        assert!(rows[0] > rows[1], "big job gets more rows: {rows:?}");
        let tuned = evaluate_partition(&base(), 4, &[(&big, rows[0]), (&small, rows[1])]);
        assert!(
            tuned.makespan < naive.makespan,
            "tuned {} vs naive {}",
            tuned.makespan.as_millis(),
            naive.makespan.as_millis()
        );
        // With linear tile scaling a partition cannot beat sequential
        // throughput; the floor is the big job's row share (3/4 here).
        // Its win is isolation plus the small job's turnaround, which no
        // longer waits for the big one.
        assert!(tuned.speedup() > 0.7, "speedup {}", tuned.speedup());
        let small_alone = tuned
            .placements
            .iter()
            .find(|p| p.network == "LeNet")
            .unwrap()
            .latency;
        assert!(
            small_alone < tuned.sequential,
            "the small job finishes well before the sequential batch"
        );
    }

    #[test]
    fn proportional_rows_cover_the_grid() {
        let nets = zoo::all_networks();
        let refs: Vec<&Network> = nets.iter().collect();
        let rows = proportional_rows(12, &refs);
        assert_eq!(rows.len(), 6);
        assert_eq!(rows.iter().sum::<usize>(), 12);
        assert!(rows.iter().all(|&r| r >= 1));
    }

    #[test]
    #[should_panic(expected = "oversubscribe")]
    fn oversubscription_rejected() {
        let net = zoo::lenet();
        // 3 + 2 rows on a 4-row grid.
        let _ = evaluate_partition(&base(), 4, &[(&net, 3), (&net, 2)]);
    }
}
