//! Memoizing evaluation context for the analytic models.
//!
//! Every sweep point in the evaluation re-derives the same quantities:
//! the per-operation energies and the firing-round service time depend
//! only on `(design, lanes, bits/lane, tiles, clocks, overrides)`, and
//! the §IV-B op counts depend only on the network. [`EvalContext`]
//! caches both behind mutex-protected maps, so a sweep that visits the
//! same configuration or network twice pays the derivation once. Cache
//! traffic is counted through `pixel-obs` (`eval.cache_hit`,
//! `eval.cache_miss`, `eval.counts_hit`, `eval.counts_miss`); the
//! `reproduce --profile` run surfaces the totals.
//!
//! The context is `Sync`: the parallel sweep executor in
//! [`crate::sweep`] shares one context across its workers, so a value
//! derived by one worker is a cache hit for the rest.

use crate::accelerator::{LayerReport, NetworkReport};
use crate::config::AcceleratorConfig;
use crate::energy::{self, OperationEnergies};
use crate::latency;
use crate::overrides::ModelOverrides;
use pixel_dnn::analysis::{analyze_network, ComputeCounts};
use pixel_dnn::network::Network;
// HashMap iteration order never reaches any artifact: both caches are
// read per-key (and `len()` for stats), so nondeterministic ordering
// cannot leak into reports. Audited for the D002 hash-order invariant.
// lint:allow(C004) per-key cache reads only; iteration order never leaves this file
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Cache key: every model input that the derived quantities depend on,
/// with floats keyed by their bit patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct DerivedKey {
    design: crate::config::Design,
    lanes: usize,
    bits: u32,
    tiles: usize,
    native_bits: u32,
    clock_bits: [u64; 2],
    override_bits: [u64; 5],
}

impl DerivedKey {
    fn new(config: &AcceleratorConfig, overrides: &ModelOverrides) -> Self {
        Self {
            design: config.design,
            lanes: config.lanes,
            bits: config.bits_per_lane,
            tiles: config.tiles,
            native_bits: config.native_bits,
            clock_bits: [
                config.clocks.electrical_hz.to_bits(),
                config.clocks.optical_hz.to_bits(),
            ],
            override_bits: [
                overrides.mrr_energy_scale.to_bits(),
                overrides.oo_add_fixed_scale.to_bits(),
                overrides.oe_conversion_scale.to_bits(),
                overrides.resync_cycles.to_bits(),
                overrides.ee_cycles_per_bit.to_bits(),
            ],
        }
    }
}

/// The memoized derivation of one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Derived {
    ops: OperationEnergies,
    cycles_per_firing: f64,
}

/// The memoized §IV-B op-count analyses, keyed by network name.
type CountsCache = HashMap<String, Arc<Vec<ComputeCounts>>>;

/// A memoizing handle on the analytic evaluation.
///
/// Construct one per sweep (or share one across sweeps with the same
/// [`ModelOverrides`]); it is cheap when cold and `Sync` when shared.
#[derive(Debug, Default)]
pub struct EvalContext {
    overrides: ModelOverrides,
    derived: Mutex<HashMap<DerivedKey, Derived>>,
    counts: Mutex<CountsCache>,
}

impl EvalContext {
    /// A context over the calibrated model.
    #[must_use]
    pub fn new() -> Self {
        Self::with_overrides(ModelOverrides::calibrated())
    }

    /// A context over an explicitly overridden model.
    #[must_use]
    pub fn with_overrides(overrides: ModelOverrides) -> Self {
        Self {
            overrides,
            derived: Mutex::new(HashMap::new()),
            counts: Mutex::new(HashMap::new()),
        }
    }

    /// The overrides every derivation in this context uses.
    #[must_use]
    pub fn overrides(&self) -> &ModelOverrides {
        &self.overrides
    }

    fn derived(&self, config: &AcceleratorConfig) -> Derived {
        let key = DerivedKey::new(config, &self.overrides);
        let mut cache = self
            .derived
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(hit) = cache.get(&key) {
            pixel_obs::add("eval.cache_hit", 1);
            return *hit;
        }
        pixel_obs::add("eval.cache_miss", 1);
        let model = config.design.model();
        let value = Derived {
            ops: model.operation_energies(config, &self.overrides),
            cycles_per_firing: model.cycles_per_firing(config, &self.overrides),
        };
        cache.insert(key, value);
        value
    }

    /// Memoized per-operation energies of a configuration.
    #[must_use]
    pub fn operation_energies(&self, config: &AcceleratorConfig) -> OperationEnergies {
        self.derived(config).ops
    }

    /// Memoized firing-round service time of a configuration.
    #[must_use]
    pub fn cycles_per_firing(&self, config: &AcceleratorConfig) -> f64 {
        self.derived(config).cycles_per_firing
    }

    /// Memoized §IV-B op counts of a network.
    ///
    /// Keyed by network name: the evaluated zoo gives each architecture a
    /// unique canonical name.
    #[must_use]
    pub fn network_counts(&self, network: &Network) -> Arc<Vec<ComputeCounts>> {
        let mut cache = self
            .counts
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(hit) = cache.get(network.name()) {
            pixel_obs::add("eval.counts_hit", 1);
            return Arc::clone(hit);
        }
        pixel_obs::add("eval.counts_miss", 1);
        let counts = Arc::new(analyze_network(network));
        cache.insert(network.name().to_owned(), Arc::clone(&counts));
        counts
    }

    /// Evaluates a network through the memoized derivations.
    #[must_use]
    pub fn evaluate(&self, config: &AcceleratorConfig, network: &Network) -> NetworkReport {
        pixel_obs::add("dse.model_evals", 1);
        let derived = self.derived(config);
        let layers = self
            .network_counts(network)
            .iter()
            .map(|counts| LayerReport {
                name: counts.name.clone(),
                energy: energy::breakdown_from_ops(&derived.ops, counts),
                latency: latency::layer_latency_from_cycles(
                    config,
                    derived.cycles_per_firing,
                    counts,
                ),
                counts: counts.clone(),
            })
            .collect();
        NetworkReport {
            network: network.name().to_owned(),
            config: *config,
            layers,
        }
    }

    /// Service time and dynamic energy of one `batch`-sized dispatch —
    /// the serving simulator's per-batch cost, derived through the
    /// memoized evaluation (paper FC convention) and the pipeline-fill
    /// batching model of [`crate::throughput`].
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    #[must_use]
    pub fn batch_service(
        &self,
        config: &AcceleratorConfig,
        network: &Network,
        batch: usize,
    ) -> crate::throughput::BatchService {
        let cost = crate::throughput::PipelineCost::of(&self.evaluate(config, network));
        crate::throughput::BatchService {
            batch,
            latency: cost.latency(batch),
            energy: cost.energy(batch),
        }
    }

    /// Number of distinct configurations derived so far.
    #[must_use]
    pub fn derived_entries(&self) -> usize {
        self.derived
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accelerator::Accelerator;
    use crate::config::Design;
    use pixel_dnn::zoo;

    #[test]
    fn context_matches_the_direct_path_bitwise() {
        let ctx = EvalContext::new();
        let net = zoo::lenet();
        for design in Design::ALL {
            for bits in [4u32, 16] {
                let cfg = AcceleratorConfig::new(design, 4, bits);
                let direct = Accelerator::new(cfg).evaluate(&net);
                let cached = ctx.evaluate(&cfg, &net);
                assert_eq!(direct, cached, "{design} b={bits}");
                // Second pass hits the cache and stays identical.
                assert_eq!(ctx.evaluate(&cfg, &net), cached, "{design} b={bits}");
            }
        }
    }

    #[test]
    fn derivations_are_cached_per_configuration() {
        let ctx = EvalContext::new();
        let cfg = AcceleratorConfig::new(Design::Oo, 4, 16);
        let a = ctx.operation_energies(&cfg);
        let b = ctx.operation_energies(&cfg);
        assert_eq!(a, b);
        assert_eq!(ctx.derived_entries(), 1);
        let _ = ctx.cycles_per_firing(&AcceleratorConfig::new(Design::Ee, 4, 16));
        assert_eq!(ctx.derived_entries(), 2);
    }

    #[test]
    fn overrides_flow_into_the_derivations() {
        let calibrated = EvalContext::new();
        let scaled = EvalContext::with_overrides(ModelOverrides::worked_example_mrr());
        let cfg = AcceleratorConfig::new(Design::Oe, 4, 16);
        let base = calibrated.operation_energies(&cfg).mul;
        let boosted = scaled.operation_energies(&cfg).mul;
        assert!((boosted / base - 5.0).abs() < 1e-12);
    }

    #[test]
    fn network_counts_are_shared() {
        let ctx = EvalContext::new();
        let net = zoo::zfnet();
        let a = ctx.network_counts(&net);
        let b = ctx.network_counts(&net);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.len(), 8);
    }
}
