//! Energy-model validation by counting: the bit-true engines tally every
//! device event they perform, and those tallies must equal the closed
//! forms the analytic energy model multiplies by. This closes the loop
//! between simulation activity and the charged energy.

use pixel::core::calibration::{pj, K_MRR_PJ_PER_BIT};
use pixel::core::config::{AcceleratorConfig, Design};
use pixel::core::energy::OperationEnergies;
use pixel::core::omac::{ActivityTally, OeMac, OoMac};
use pixel::dnn::inference::{MacEngine, PerWindow};
use pixel::units::rng::SplitMix64;

/// What one inner product of `neurons` and `synapses` through `mac`'s
/// device walk counts, read as every tally is: load, fire, finish.
fn counted(mac: &dyn MacEngine, neurons: &[u64], synapses: &[u64]) -> ActivityTally {
    let per_window = PerWindow(mac);
    let mut loaded = per_window.load(synapses, synapses.len());
    loaded.fire(neurons, &mut [0]);
    loaded.finish()
}

#[test]
fn oe_activity_matches_energy_model_forms() {
    // The model charges an optical multiply 2·K·b² because the word's b
    // bits stream for b synapse-bit cycles: counted MRR slots per
    // multiply must equal b².
    for (lanes, bits, muls) in [(4usize, 8u32, 12usize), (2, 4, 6), (8, 16, 8)] {
        let mac = OeMac::new(lanes, bits);
        let mut rng = SplitMix64::seed_from_u64(u64::from(bits));
        let limit = (1u64 << bits) - 1;
        let n: Vec<u64> = (0..muls).map(|_| rng.range_u64(0, limit)).collect();
        let s: Vec<u64> = (0..muls).map(|_| rng.range_u64(0, limit)).collect();
        let activity = counted(&mac, &n, &s);

        // Padded to full lanes: the hardware gates every lane every cycle.
        let padded = muls.div_ceil(lanes) * lanes;
        let expected_slots = (padded as u64) * u64::from(bits) * u64::from(bits);
        assert_eq!(
            activity.mrr_slots, expected_slots,
            "lanes={lanes} bits={bits} muls={muls}"
        );
        // One o/e conversion per lane per synapse-bit cycle.
        assert_eq!(activity.oe_conversions, (padded as u64) * u64::from(bits));
        // One accumulate per partial product.
        assert_eq!(activity.cla_ops, (padded as u64) * u64::from(bits));
    }
}

#[test]
fn oo_activity_matches_energy_model_forms() {
    for (lanes, bits, muls) in [(4usize, 8u32, 10usize), (1, 4, 5)] {
        let mac = OoMac::new(lanes, bits);
        let mut rng = SplitMix64::seed_from_u64(7);
        let limit = (1u64 << bits) - 1;
        let n: Vec<u64> = (0..muls).map(|_| rng.range_u64(0, limit)).collect();
        let s: Vec<u64> = (0..muls).map(|_| rng.range_u64(0, limit)).collect();
        let activity = counted(&mac, &n, &s);

        let padded = (muls.div_ceil(lanes) * lanes) as u64;
        // b² MRR slots per multiply — same optical AND as OE.
        assert_eq!(
            activity.mrr_slots,
            padded * u64::from(bits) * u64::from(bits)
        );
        // Exactly one o/e conversion per multiply (the OO design's big
        // structural win over OE's b conversions): the model charges o/e
        // per word, and the count confirms it.
        assert_eq!(activity.oe_conversions, padded);
        // One electrical accumulate per product — the residual electrical
        // add the OO energy model's fixed term covers.
        assert_eq!(activity.cla_ops, padded);
        // The combined train spans 2b−1 slots (product width).
        assert_eq!(activity.mzi_slots, padded * u64::from(2 * bits - 1));
        assert_eq!(
            activity.comparator_decisions,
            padded * u64::from(2 * bits - 1)
        );
    }
}

#[test]
fn oo_does_b_times_fewer_conversions_than_oe() {
    // The structural reason Table II's OO add is half of OE's: the MZI
    // chain collapses b per-cycle conversions into one per word.
    let bits = 8u32;
    let n: Vec<u64> = vec![200; 8];
    let s: Vec<u64> = vec![131; 8];
    let oe = OeMac::new(4, bits);
    let oo = OoMac::new(4, bits);
    let (oe, oo) = (counted(&oe, &n, &s), counted(&oo, &n, &s));
    assert_eq!(oe.oe_conversions, u64::from(bits) * oo.oe_conversions);
    // Identical optical AND activity.
    assert_eq!(oe.mrr_slots, oo.mrr_slots);
}

#[test]
fn counted_mrr_slots_price_to_the_charged_multiply_energy() {
    // Pricing each counted MRR slot at its two rings (2·K_MRR) must give
    // exactly the multiply energy the analytic model charges.
    let cases = [
        (Design::Oe, 4usize, 8u32),
        (Design::Oe, 2, 4),
        (Design::Oe, 8, 16),
        (Design::Oo, 4, 8),
    ];
    for (design, lanes, bits) in cases {
        let config = AcceleratorConfig::new(design, lanes, bits);
        let mac = design.model().functional_engine(&config);
        // Full lanes of full-scale words, so padding adds no slots.
        let multiplies = 12usize.div_ceil(lanes) * lanes;
        let word = vec![(1u64 << bits) - 1; multiplies];
        let activity = counted(mac.as_ref(), &word, &word);

        let priced = pj(2.0 * K_MRR_PJ_PER_BIT) * activity.mrr_slots as f64;
        let charged = OperationEnergies::for_config(&config).mul * multiplies as f64;
        assert!(
            (priced / charged - 1.0).abs() < 1e-12,
            "{design:?} lanes={lanes} bits={bits}: priced {priced:?} vs charged {charged:?}"
        );
    }
}
