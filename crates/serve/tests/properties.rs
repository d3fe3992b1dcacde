//! Property tests for the serving simulator: queue invariants under
//! randomized traffic, the histogram percentile estimator against a
//! sorted reference, the one-scan percentile set against per-quantile
//! queries, exact histogram merging (merge-of-two must equal
//! the histogram of the concatenated stream), the latency decomposition
//! recombining bitwise into the aggregate, and bitwise determinism of
//! the full saturation sweep across worker counts and repeated runs.

use pixel_core::config::{AcceleratorConfig, Design};
use pixel_core::model::EvalContext;
use pixel_core::sweep::SweepEngine;
use pixel_serve::arrivals::{Request, Workload};
use pixel_serve::percentile::{exact_percentile, LatencyHistogram, DEFAULT_SUB_BITS};
use pixel_serve::queue::{AdmissionQueue, ShedPolicy};
use pixel_serve::saturation::{render_curves, saturation_sweep, SweepSpec};
use pixel_serve::sim::{simulate, simulate_with_flightrec, ServeConfig};
use pixel_serve::LatencyBreakdown;
use pixel_units::rng::SplitMix64;
use pixel_units::{Time, VirtInstant};

/// Replays a random offer/take trace against the queue and checks the
/// conservation and ordering invariants a bounded FIFO must keep.
fn check_queue_invariants(seed: u64, shed: ShedPolicy) {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let capacity = 1 + (rng.next_u64() % 32) as usize;
    let mut queue = AdmissionQueue::new(capacity, shed);
    let mut clock = VirtInstant::EPOCH;
    let mut offered: u64 = 0;
    let mut shed_seen: u64 = 0;
    let mut taken: Vec<Request> = Vec::new();
    for id in 0..4000u64 {
        clock += Time::new(rng.next_f64());
        if rng.next_f64() < 0.7 {
            offered += 1;
            let request = Request {
                id,
                tenant: 0,
                network: (rng.next_u64() % 3) as usize,
                arrival: clock,
            };
            if queue.offer(clock, request).is_some() {
                shed_seen += 1;
            }
        } else {
            let max = 1 + (rng.next_u64() % 8) as usize;
            let batch = queue.take_batch(clock, max);
            assert!(batch.len() <= max);
            assert!(
                batch.windows(2).all(|w| w[0].network == w[1].network),
                "mixed-network batch"
            );
            taken.extend(batch);
        }
        assert!(queue.depth() <= capacity, "depth exceeds capacity");
        assert!(queue.max_depth() <= capacity);
    }
    // Conservation: every offered request was admitted or shed, and
    // every admitted one is either taken or still waiting.
    assert_eq!(queue.shed_count(), shed_seen);
    match shed {
        // DropNewest never admits the victim.
        ShedPolicy::DropNewest => assert_eq!(queue.admitted(), offered - shed_seen),
        // DropOldest admits everything and evicts waiting requests.
        ShedPolicy::DropOldest => assert_eq!(queue.admitted(), offered),
    }
    let in_flight = queue.depth() as u64;
    let evicted = match shed {
        ShedPolicy::DropNewest => 0,
        ShedPolicy::DropOldest => shed_seen,
    };
    assert_eq!(
        taken.len() as u64 + in_flight + evicted,
        queue.admitted(),
        "admitted = taken + waiting + evicted"
    );
    // FIFO: ids leave in strictly increasing admission order except
    // across network boundaries — but within one network they must be
    // strictly increasing.
    for net in 0..3 {
        let ids: Vec<u64> = taken
            .iter()
            .filter(|r| r.network == net)
            .map(|r| r.id)
            .collect();
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "FIFO broken for network {net}"
        );
    }
}

#[test]
fn queue_invariants_hold_under_random_traffic() {
    for seed in 0..8 {
        check_queue_invariants(seed, ShedPolicy::DropNewest);
        check_queue_invariants(seed ^ 0xdead_beef, ShedPolicy::DropOldest);
    }
}

#[test]
fn histogram_percentiles_track_the_sorted_reference() {
    // Relative bucket error is bounded by 2^-sub_bits; allow twice that
    // plus one unit for the integer midpoint rounding.
    let tolerance = 2.0 / f64::from(1u32 << DEFAULT_SUB_BITS);
    for seed in 0..6u64 {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut hist = LatencyHistogram::new(DEFAULT_SUB_BITS);
        let mut values: Vec<u64> = Vec::new();
        for _ in 0..5000 {
            // Log-uniform values spanning nanoseconds to ~1000 s.
            let magnitude = (rng.next_f64() * 40.0).exp();
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let v = magnitude as u64;
            values.push(v);
            hist.record(v);
        }
        values.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
            let exact = exact_percentile(&values, q);
            let approx = hist.percentile(q);
            #[allow(clippy::cast_precision_loss)]
            let bound = exact as f64 * tolerance + 1.0;
            #[allow(clippy::cast_precision_loss)]
            let err = (approx as f64 - exact as f64).abs();
            assert!(
                err <= bound,
                "seed {seed} q {q}: approx {approx} vs exact {exact} (err {err}, bound {bound})"
            );
        }
    }
}

/// Below `2^(sub_bits+1)` every bucket is one unit wide, so the
/// histogram's nearest-rank selection must agree with the sorted
/// reference *exactly* — any off-by-one in the rank computation shows
/// up undamped by quantization. Boundary quantiles `q = k/n` sit right
/// on the `ceil` edge of the rank rule and are the cases most likely
/// to break.
#[test]
fn percentile_rank_selection_is_exact_in_unit_buckets() {
    let limit = 1u64 << (DEFAULT_SUB_BITS + 1);
    for seed in 0..4u64 {
        let mut rng = SplitMix64::seed_from_u64(0x9e7c ^ seed);
        // Power-of-two counts make q = k/n representable exactly in
        // binary floating point, so ceil(q·n) lands on the boundary
        // with no rounding slack.
        let n = 1usize << (4 + seed % 4);
        let mut hist = LatencyHistogram::new(DEFAULT_SUB_BITS);
        let mut values: Vec<u64> = (0..n).map(|_| rng.next_u64() % limit).collect();
        for &v in &values {
            hist.record(v);
        }
        values.sort_unstable();
        #[allow(clippy::cast_precision_loss)]
        for k in 0..=n {
            let q = k as f64 / n as f64;
            let expected = exact_percentile(&values, q);
            assert_eq!(
                hist.percentile(q),
                expected,
                "seed {seed} n {n} boundary q {q}"
            );
            // Nudged just past the boundary the rank must step to the
            // next order statistic (same one for the k = n endpoint).
            let nudged = (q + 1e-9).min(1.0);
            assert_eq!(
                hist.percentile(nudged),
                exact_percentile(&values, nudged),
                "seed {seed} n {n} nudged q {nudged}"
            );
        }
    }
}

/// Degenerate and endpoint cases: a single sample answers that sample
/// at every quantile, and q = 0 / q = 1 pin to the recorded extremes
/// even when the distribution spans coarse buckets.
#[test]
fn percentile_endpoints_pin_to_recorded_extremes() {
    for value in [0u64, 1, 255, 256, 12_345, 1 << 40, u64::MAX] {
        let mut hist = LatencyHistogram::new(DEFAULT_SUB_BITS);
        hist.record(value);
        for q in [0.0, 0.25, 0.5, 0.75, 0.999, 1.0] {
            assert_eq!(hist.percentile(q), value, "single sample {value} q {q}");
        }
    }
    let mut rng = SplitMix64::seed_from_u64(0xf1f0);
    let mut hist = LatencyHistogram::new(DEFAULT_SUB_BITS);
    let values: Vec<u64> = (0..500)
        .map(|_| rng.next_u64() >> (rng.next_u64() % 48))
        .collect();
    for &v in &values {
        hist.record(v);
    }
    assert_eq!(hist.percentile(0.0), *values.iter().min().unwrap());
    assert_eq!(hist.percentile(1.0), *values.iter().max().unwrap());
}

/// Log-uniform values spanning ~12 orders of magnitude, the way
/// latencies do (nanoseconds to minutes).
fn latency_like_values(rng: &mut SplitMix64, n: usize) -> Vec<u64> {
    (0..n)
        .map(|_| {
            let magnitude = rng.next_u64() % 41;
            rng.next_u64() % (1u64 << magnitude).max(1)
        })
        .collect()
}

fn histogram_of(values: &[u64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::default();
    for &v in values {
        h.record(v);
    }
    h
}

/// The rank grid the merge properties are checked against.
const RANKS: [f64; 11] = [
    0.0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.999, 1.0,
];

#[test]
fn merge_of_two_equals_histogram_of_concatenation() {
    for seed in [1u64, 7, 42, 2026, 0xdead_beef] {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let a = latency_like_values(&mut rng, 500);
        let b = latency_like_values(&mut rng, 313);
        let concat: Vec<u64> = a.iter().chain(&b).copied().collect();

        let mut merged = histogram_of(&a);
        merged.merge(&histogram_of(&b));
        let whole = histogram_of(&concat);

        // Structural equality pins every bucket plus count/min/max/sum.
        assert_eq!(merged, whole, "seed {seed}");
        assert_eq!(merged.count(), whole.count());
        assert_eq!(merged.sum(), whole.sum());
        // Every rank query answers identically.
        for q in RANKS {
            assert_eq!(
                merged.percentile(q),
                whole.percentile(q),
                "seed {seed} rank {q}"
            );
        }
    }
}

#[test]
fn merge_with_empty_is_identity_in_both_directions() {
    let mut rng = SplitMix64::seed_from_u64(99);
    let full = histogram_of(&latency_like_values(&mut rng, 64));

    let mut left = full.clone();
    left.merge(&LatencyHistogram::default());
    assert_eq!(left, full);

    let mut right = LatencyHistogram::default();
    right.merge(&full);
    assert_eq!(right, full);
}

#[test]
fn self_merge_doubles_multiplicities_without_moving_ranks() {
    let mut rng = SplitMix64::seed_from_u64(5);
    let sample = latency_like_values(&mut rng, 128);
    let one = histogram_of(&sample);
    let doubled: Vec<u64> = sample.iter().chain(&sample).copied().collect();
    let mut merged = one.clone();
    merged.merge(&one);
    assert_eq!(merged, histogram_of(&doubled));
    for q in RANKS {
        assert_eq!(merged.percentile(q), one.percentile(q), "rank {q}");
    }
}

#[test]
#[should_panic(expected = "sub_bits")]
fn merge_rejects_mismatched_resolutions() {
    let mut a = LatencyHistogram::new(7);
    a.record(1);
    let mut b = LatencyHistogram::new(8);
    b.record(1);
    a.merge(&b);
}

/// The quantile set a report reads (p50/p95/p99/p99.9) between the two
/// endpoints.
const SET: [f64; 6] = [0.0, 0.5, 0.95, 0.99, 0.999, 1.0];

fn assert_set_matches_single_queries(hist: &LatencyHistogram, label: &str) {
    let set = hist.percentiles(SET);
    for (q, value) in SET.into_iter().zip(set) {
        assert_eq!(value, hist.percentile(q), "{label} q {q}");
    }
}

#[test]
fn one_scan_percentile_set_equals_per_quantile_queries() {
    assert_eq!(LatencyHistogram::default().percentiles(SET), [0; 6]);
    for value in [0u64, 1, 127, 128, 12_345, 130_000_000_000, u64::MAX] {
        let single = histogram_of(&[value]);
        assert_eq!(single.percentiles(SET), [value; 6], "single {value}");
    }
    for seed in 0..16u64 {
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0x5e7);
        // Queue waits: most requests start service at once.
        let waits: Vec<u64> = (0..400)
            .map(|_| {
                if rng.next_f64() < 0.6 {
                    0
                } else {
                    rng.next_u64() % 5_000_000
                }
            })
            .collect();
        // Fleet sojourns: log-uniform over 0..=1.3e11 ns, both ends hit.
        let mut sojourns: Vec<u64> = (0..400)
            .map(|_| {
                let magnitude = rng.next_u64() % 38;
                (rng.next_u64() % (1u64 << magnitude)).min(130_000_000_000)
            })
            .collect();
        sojourns.extend([0, 130_000_000_000]);
        let waits = histogram_of(&waits);
        let sojourns = histogram_of(&sojourns);
        let mut merged = waits.clone();
        merged.merge(&sojourns);
        assert_set_matches_single_queries(&waits, &format!("waits seed {seed}"));
        assert_set_matches_single_queries(&sojourns, &format!("sojourns seed {seed}"));
        assert_set_matches_single_queries(&merged, &format!("merged seed {seed}"));
    }
}

#[test]
#[should_panic(expected = "quantile")]
fn percentile_set_rejects_out_of_range_quantile_on_an_empty_histogram() {
    let _ = LatencyHistogram::default().percentiles([0.5, 1.5]);
}

#[test]
#[should_panic(expected = "ascending")]
fn percentile_set_rejects_a_descending_set() {
    let _ = histogram_of(&[1, 2, 3]).percentiles([0.9, 0.5]);
}

/// The acceptance bar for the latency decomposition: merging the
/// per-tenant (and per-network) breakdowns of an overloaded run must
/// reconstruct the aggregate breakdown *bitwise*, and wait + service
/// must sum to the sojourn exactly in integer nanoseconds.
#[test]
fn per_population_breakdowns_recombine_into_the_aggregate() {
    let workload = Workload::paper_mix();
    let ctx = EvalContext::new();
    let accel = AcceleratorConfig::new(Design::Oo, 4, 16);
    // Offered well past the OO fabric's capacity so the run sheds:
    // shed requests must not leak into any latency histogram.
    let config = ServeConfig::new(accel, 20.0, 600, 7);
    let (report, flight) = simulate_with_flightrec(&workload, &ctx, &config, 256);
    assert!(report.dropped > 0, "want an overloaded run");
    assert!(report.completed > 0);

    let mut from_tenants = LatencyBreakdown::default();
    for b in &flight.tenants {
        from_tenants.merge(b);
    }
    assert_eq!(from_tenants, flight.overall, "tenant merge diverged");

    let mut from_networks = LatencyBreakdown::default();
    for b in &flight.networks {
        from_networks.merge(b);
    }
    assert_eq!(from_networks, flight.overall, "network merge diverged");

    // Count and integer-sum identities of the decomposition.
    assert_eq!(flight.overall.count(), report.completed);
    assert_eq!(
        flight.overall.wait.sum() + flight.overall.service.sum(),
        flight.overall.sojourn.sum(),
    );
    // The recombined rank queries agree with the aggregate everywhere.
    for q in RANKS {
        assert_eq!(
            from_tenants.sojourn.percentile(q),
            flight.overall.sojourn.percentile(q),
            "rank {q}"
        );
    }
}

#[test]
fn simulation_conserves_requests_across_policies_and_loads() {
    let workload = Workload::paper_mix();
    let ctx = EvalContext::new();
    for design in Design::ALL {
        for rate in [0.3, 1.5, 40.0] {
            for shed in [ShedPolicy::DropNewest, ShedPolicy::DropOldest] {
                let mut config =
                    ServeConfig::new(AcceleratorConfig::new(design, 4, 16), rate, 500, 11);
                config.shed = shed;
                let report = simulate(&workload, &ctx, &config);
                assert_eq!(
                    report.completed + report.dropped,
                    report.arrivals,
                    "{design} rate {rate} {}",
                    shed.label()
                );
                let tenant_total: u64 = report.tenants.iter().map(|t| t.completed).sum();
                assert_eq!(tenant_total, report.completed, "tenant accounting");
            }
        }
    }
}

/// The acceptance bar for the serve artifact: the rendered sweep is
/// bitwise identical at `--jobs 1` and `--jobs 4`, and across repeated
/// runs at the same seed.
#[test]
fn saturation_sweep_is_bitwise_identical_across_worker_counts() {
    let workload = Workload::paper_mix();
    let mut spec = SweepSpec::artifact(99);
    spec.loads = vec![0.5, 0.95, 1.15];
    spec.requests = 800;
    let render = |jobs: usize| {
        let engine = SweepEngine::new(jobs);
        render_curves(
            &workload,
            &spec,
            &saturation_sweep(&engine, &workload, &spec),
        )
    };
    let serial = render(1);
    let parallel = render(4);
    let repeat = render(4);
    assert_eq!(serial, parallel, "worker count changed the artifact");
    assert_eq!(parallel, repeat, "repeated run changed the artifact");

    let mut other = spec.clone();
    other.seed = 100;
    let engine = SweepEngine::new(2);
    let reseeded = render_curves(
        &workload,
        &other,
        &saturation_sweep(&engine, &workload, &other),
    );
    assert_ne!(serial, reseeded, "seed must matter");
}
