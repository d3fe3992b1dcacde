//! Per-tenant SLOs and pressure-gated admission at the router.
//!
//! Each tenant carries a [`TenantSlo`]: a p99 sojourn target (checked
//! against the measured per-tenant p99 at the end of the run), a
//! weighted-fair share, and a priority class. The router's
//! [`AdmissionControl`] turns those into an admission decision *before*
//! routing:
//!
//! * **Uncontended** (fleet queue pressure below the soft watermark):
//!   everything is admitted — SLOs cost nothing when the fleet keeps up.
//! * **Pressured** (soft ≤ pressure < hard): weighted-fair credits.
//!   Every pressured arrival mints one credit, split across tenants in
//!   proportion to their weights; admitting a request spends one
//!   credit. Long-run admitted throughput per tenant converges to its
//!   weight share; unused credit is capped so an idle tenant cannot
//!   bank an unbounded burst.
//! * **Critical** (pressure ≥ hard): only the highest priority class
//!   still present is admitted at all (on top of its credit), shedding
//!   best-effort traffic to protect latency-sensitive tenants.
//!
//! Deterministic by construction: credits are plain arithmetic over
//! the arrival sequence; no clocks, no randomness.

/// One tenant's serving objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantSlo {
    /// Target 99th-percentile sojourn time.
    pub p99_target: pixel_units::Time,
    /// Weighted-fair share under pressure (relative to other tenants).
    pub weight: f64,
    /// Priority class; *higher* survives the hard watermark.
    pub priority: u8,
}

/// The artifact's SLO set for [`Workload::paper_mix`]'s three tenants
/// (vision-api, mobile, batch-lab), calibrated against the committed
/// single-fabric saturation curves so attainment flips within the
/// swept load grid rather than trivially passing or failing.
///
/// [`Workload::paper_mix`]: pixel_serve::arrivals::Workload::paper_mix
#[must_use]
pub fn paper_slos() -> Vec<TenantSlo> {
    vec![
        // vision-api: latency-sensitive bulk traffic.
        TenantSlo {
            p99_target: pixel_units::Time::new(20.0),
            weight: 0.5,
            priority: 1,
        },
        // mobile: interactive, tightest target, survives overload.
        TenantSlo {
            p99_target: pixel_units::Time::new(8.0),
            weight: 0.3,
            priority: 2,
        },
        // batch-lab: best-effort research traffic.
        TenantSlo {
            p99_target: pixel_units::Time::new(120.0),
            weight: 0.2,
            priority: 0,
        },
    ]
}

/// Weighted-fair, priority-aware admission gate (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionControl {
    slos: Vec<TenantSlo>,
    credits: Vec<f64>,
    weight_total: f64,
    top_priority: u8,
    shed: Vec<u64>,
}

impl AdmissionControl {
    /// Queue pressure at which weighted-fair crediting kicks in.
    pub const SOFT_PRESSURE: f64 = 0.60;
    /// Queue pressure at which only the top priority class survives.
    pub const HARD_PRESSURE: f64 = 0.90;
    /// Most credit a tenant can bank (in requests).
    const CREDIT_CAP: f64 = 8.0;

    /// An admission gate over `slos` (indexed like the workload's
    /// tenants).
    ///
    /// # Panics
    ///
    /// Panics if `slos` is empty or the weights do not sum to a
    /// positive value.
    #[must_use]
    pub fn new(slos: &[TenantSlo]) -> Self {
        assert!(!slos.is_empty(), "need at least one tenant SLO");
        let weight_total: f64 = slos.iter().map(|s| s.weight).sum();
        assert!(weight_total > 0.0, "tenant weights must sum positive");
        let top_priority = slos.iter().map(|s| s.priority).max().unwrap_or(0);
        Self {
            slos: slos.to_vec(),
            credits: vec![Self::CREDIT_CAP; slos.len()],
            weight_total,
            top_priority,
            shed: vec![0; slos.len()],
        }
    }

    /// Decides one arrival from `tenant` under the given fleet queue
    /// `pressure` (aggregate routable queue depth over aggregate
    /// routable capacity, in `[0, 1]`). Returns whether to admit;
    /// rejected requests are counted per tenant.
    pub fn admit(&mut self, tenant: usize, pressure: f64) -> bool {
        if pressure < Self::SOFT_PRESSURE {
            return true;
        }
        // Mint one credit per pressured arrival, split by weight.
        for (credit, slo) in self.credits.iter_mut().zip(&self.slos) {
            *credit = (*credit + slo.weight / self.weight_total).min(Self::CREDIT_CAP);
        }
        if pressure >= Self::HARD_PRESSURE && self.slos[tenant].priority < self.top_priority {
            self.shed[tenant] += 1;
            return false;
        }
        if self.credits[tenant] >= 1.0 {
            self.credits[tenant] -= 1.0;
            true
        } else {
            self.shed[tenant] += 1;
            false
        }
    }

    /// Requests rejected at the router, per tenant.
    #[must_use]
    pub fn shed(&self) -> &[u64] {
        &self.shed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_admits_everything() {
        let mut gate = AdmissionControl::new(&paper_slos());
        for tenant in [0, 1, 2, 0, 1, 2] {
            assert!(gate.admit(tenant, 0.1));
        }
        assert_eq!(gate.shed.iter().sum::<u64>(), 0);
    }

    #[test]
    fn pressured_admission_tracks_weighted_fair_credit_inflow() {
        let slos = paper_slos();
        let mut gate = AdmissionControl::new(&slos);
        // A long pressured phase with arrivals round-robining over
        // tenants: each *offers* 1/3 of traffic, but credit inflow is
        // split .5/.3/.2. Tenant 0's inflow (0.5 per arrival × 3
        // arrivals/round) exceeds its demand (1/round), so it admits
        // everything; tenants 1 and 2 are credit-constrained and
        // throttle to 0.9 and 0.6 admits per round respectively.
        let rounds = 3000u64;
        let mut admitted = [0u64; 3];
        for i in 0..rounds * 3 {
            let tenant = (i % 3) as usize;
            if gate.admit(tenant, 0.7) {
                admitted[tenant] += 1;
            }
        }
        #[allow(clippy::cast_precision_loss)]
        let per_round = |t: usize| admitted[t] as f64 / rounds as f64;
        assert!(per_round(0) > 0.99, "unconstrained tenant admits all");
        assert!((per_round(1) - 0.9).abs() < 0.02, "got {}", per_round(1));
        assert!((per_round(2) - 0.6).abs() < 0.02, "got {}", per_round(2));
        // Constrained tenants split bandwidth by weight ratio.
        #[allow(clippy::cast_precision_loss)]
        let ratio = admitted[1] as f64 / admitted[2] as f64;
        assert!((ratio - 1.5).abs() < 0.05, "ratio {ratio}");
        let total: u64 = admitted.iter().sum();
        assert_eq!(
            gate.shed.iter().sum::<u64>(),
            rounds * 3 - total,
            "every rejection is counted"
        );
    }

    #[test]
    fn hard_pressure_admits_only_the_top_priority_class() {
        let mut gate = AdmissionControl::new(&paper_slos());
        // Burn the initial credit grants first.
        for _ in 0..64 {
            let _ = gate.admit(0, 0.95);
            let _ = gate.admit(1, 0.95);
            let _ = gate.admit(2, 0.95);
        }
        let mut admitted = [0u64; 3];
        for _ in 0..300 {
            for (tenant, count) in admitted.iter_mut().enumerate() {
                if gate.admit(tenant, 0.95) {
                    *count += 1;
                }
            }
        }
        assert_eq!(admitted[0], 0, "priority 1 shed at the hard watermark");
        assert_eq!(admitted[2], 0, "priority 0 shed at the hard watermark");
        assert!(admitted[1] > 0, "top priority keeps flowing");
    }

    #[test]
    fn idle_tenant_credit_is_capped() {
        let mut gate = AdmissionControl::new(&paper_slos());
        // Tenant 2 idles through a long pressured phase...
        for _ in 0..10_000 {
            let _ = gate.admit(0, 0.7);
        }
        // ...then bursts: the banked backlog is bounded by the cap (≈9
        // admits), after which it throttles to its 0.2/arrival inflow.
        let mut burst = 0u64;
        for _ in 0..100 {
            if gate.admit(2, 0.7) {
                burst += 1;
            }
        }
        assert!(burst <= 30, "burst {burst}: banked credit was not capped");
        assert!(burst >= 9, "burst {burst}: the cap grant went missing");
    }
}
