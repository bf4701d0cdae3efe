//! Kernel-equivalence suite: the bit-sliced Monte-Carlo kernels must be
//! bit-identical to their retained scalar oracles — same outputs, same
//! RNG draw sequences — at lane/bit counts that straddle the 64-lane
//! word boundary and under arbitrary fault-campaign masks.
//!
//! These are the cross-crate integration twins of the per-module
//! differential proptests; the CI kernel-equivalence matrix additionally
//! runs the whole figure pipeline under `--features scalar-kernels` and
//! diffs manifests, but this suite localizes a divergence to a kernel.

use mosaic_fec::ReedSolomon;
use mosaic_link::prbs::{Prbs, PrbsBank};
use mosaic_link::scrambler::Scrambler;
use mosaic_link::striping::LaneStream;
use mosaic_sim::inject::BitErrorInjector;
use mosaic_sim::montecarlo::{run_rs_channel_dense_with, run_rs_channel_sparse_with, SlicerPoint};
use mosaic_sim::rng::DetRng;
use mosaic_sim::sweep::Exec;
use proptest::prelude::*;

/// The boundary counts the issue pins: below/at/above one word, plus a
/// many-word case.
const BOUNDARY_COUNTS: [usize; 5] = [1, 63, 64, 65, 1024];

fn slicer_point() -> SlicerPoint {
    // A mid-BER operating point (unequal rail noises) so both error and
    // no-error branches are exercised.
    SlicerPoint {
        i1: 1.0e-5,
        i0: 1.0e-6,
        s1: 3.0e-6,
        s0: 2.0e-6,
        threshold: 4.6e-6,
    }
}

#[test]
fn slicer_sliced_matches_scalar_at_boundary_counts() {
    let point = slicer_point();
    for &bits in &BOUNDARY_COUNTS {
        let mut rng_s = DetRng::substream(7, "kernel-eq-slicer");
        let mut rng_r = rng_s.clone();
        let sliced = point.count_errors_sliced(bits as u64, &mut rng_s);
        let scalar = point.count_errors_scalar(bits as u64, &mut rng_r);
        assert_eq!(sliced, scalar, "error count diverged at {bits} bits");
        assert_eq!(
            rng_s.next_u64(),
            rng_r.next_u64(),
            "RNG stream position diverged at {bits} bits"
        );
    }
}

#[test]
fn prbs_bank_matches_scalar_lanes_at_boundary_counts() {
    for &lanes in &BOUNDARY_COUNTS {
        let gens: Vec<Prbs> = (0..lanes)
            .map(|l| Prbs::prbs31().with_seed(1 + l as u64 * 0x9E37))
            .collect();
        let mut bank = PrbsBank::new(&gens);
        let mut scalars = gens;
        let mut slab = vec![0u64; bank.words()];
        for step in 0..200 {
            bank.next_bits(&mut slab);
            for (l, g) in scalars.iter_mut().enumerate() {
                assert_eq!(
                    ((slab[l / 64] >> (l % 64)) & 1) as u8,
                    g.next_bit(),
                    "lane {l}/{lanes} step {step}"
                );
            }
            if lanes % 64 != 0 {
                assert_eq!(slab[lanes / 64] >> (lanes % 64), 0, "tail lanes dirty");
            }
        }
    }
}

#[test]
fn injector_sliced_matches_scalar_at_boundary_counts() {
    for &words in &BOUNDARY_COUNTS {
        let rng = DetRng::substream(11, "kernel-eq-inject");
        let mut inj_s = BitErrorInjector::new(2e-3, rng.clone());
        let mut inj_r = BitErrorInjector::new(2e-3, rng);
        let mut buf_s = vec![0u64; words];
        let mut buf_r = vec![0u64; words];
        let flips_s = inj_s.corrupt_words_sliced(&mut buf_s);
        let flips_r = inj_r.corrupt_words_scalar(&mut buf_r);
        assert_eq!(flips_s, flips_r, "flip count diverged at {words} words");
        assert_eq!(buf_s, buf_r, "flip positions diverged at {words} words");
        assert_eq!((inj_s.bits, inj_s.errors), (inj_r.bits, inj_r.errors));
    }
}

/// The codes the RS channel pair runs over: RS(15,11), RS(31,23), KR4
/// and KP4.
fn channel_code(which: usize) -> ReedSolomon {
    match which {
        0 => ReedSolomon::new(4, 15, 11),
        1 => ReedSolomon::new(8, 31, 23),
        2 => ReedSolomon::kr4(),
        _ => ReedSolomon::kp4(),
    }
}

#[test]
fn rs_channel_sparse_matches_dense_through_miscorrections() {
    // Weak codes at harsh BERs, so every tally branch of the
    // error-pattern channel meets the oracle: RS(15,11) fails and
    // miscorrects often, and one in 16 random words of RS(3,1) over
    // GF(4) is a codeword, so error patterns that are themselves
    // codewords (the Clean miscorrection) are common too.
    let exec = Exec::with_threads(1);
    for (rs, ber) in [
        (ReedSolomon::new(4, 15, 11), 5e-2),
        (ReedSolomon::new(2, 3, 1), 0.2),
    ] {
        let dense = run_rs_channel_dense_with(&exec, &rs, ber, 4000, 3);
        let sparse = run_rs_channel_sparse_with(&exec, &rs, ber, 4000, 3);
        assert!(dense.failures > 0 && dense.miscorrected > 0, "{dense:?}");
        assert_eq!(sparse, dense, "RS({}, {})", rs.n(), rs.k());
    }
}

proptest! {
    /// Slicer: sliced == scalar for arbitrary bit counts (weighted toward
    /// the word-boundary cases) from arbitrary stream positions.
    #[test]
    fn slicer_equivalence_random(
        seed in any::<u64>(),
        bits in prop_oneof![
            Just(1u64), Just(63), Just(64), Just(65), Just(1024),
            1u64..2048,
        ],
    ) {
        let point = slicer_point();
        let mut rng_s = DetRng::new(seed);
        let mut rng_r = rng_s.clone();
        prop_assert_eq!(
            point.count_errors_sliced(bits, &mut rng_s),
            point.count_errors_scalar(bits, &mut rng_r)
        );
        prop_assert_eq!(rng_s.next_u64(), rng_r.next_u64());
    }

    /// Slicer with rejection vs the scalar loop over random operating
    /// points: asymmetric thresholds, rail spacings up to 12 sigma, and
    /// degenerate points where rejection must switch itself off.
    #[test]
    fn slicer_rejection_matches_scalar_over_points(
        seed in any::<u64>(),
        bits in prop_oneof![Just(1u64), Just(64), Just(65), 1u64..3000],
        snr in 0.0f64..12.0,
        skew in -0.95f64..0.95,
        sigma_ratio in 0.25f64..4.0,
        degenerate in 0usize..8,
    ) {
        let mut point = SlicerPoint {
            i1: 5e-6 + snr * 1e-6 * sigma_ratio,
            i0: 5e-6 - snr * 1e-6,
            s1: 1e-6 * sigma_ratio,
            s0: 1e-6,
            threshold: 0.0,
        };
        point.threshold = 5e-6 + skew * snr * 1e-6 * if skew > 0.0 { sigma_ratio } else { 1.0 };
        match degenerate {
            0 => point.threshold = point.i1 + 1e-7,
            1 => point.s0 = 0.0,
            2 => point.s1 = f64::NAN,
            3 => point.threshold = f64::NAN,
            _ => {}
        }
        let mut rng_s = DetRng::new(seed);
        let mut rng_r = rng_s.clone();
        prop_assert_eq!(
            point.count_errors_sliced(bits, &mut rng_s),
            point.count_errors_scalar(bits, &mut rng_r)
        );
        prop_assert_eq!(rng_s.next_u64(), rng_r.next_u64());
    }

    /// RS channel: the error-pattern channel must tally every `CodedRun`
    /// field exactly as the encode-and-decode oracle, across codes,
    /// BERs up to 5e-2 and codeword counts 0, 1 and 401.
    #[test]
    fn rs_channel_sparse_matches_dense(
        which in 0usize..4,
        ber in prop_oneof![Just(0.0), Just(1e-4), Just(2.4e-4), Just(5e-2), 1e-5f64..5e-2],
        codewords in prop_oneof![Just(0u64), Just(1), Just(401)],
        seed in any::<u64>(),
        threads in 1usize..=2,
    ) {
        let rs = channel_code(which);
        let exec = Exec::with_threads(threads);
        prop_assert_eq!(
            run_rs_channel_sparse_with(&exec, &rs, ber, codewords, seed),
            run_rs_channel_dense_with(&exec, &rs, ber, codewords, seed)
        );
    }

    /// Corruption under arbitrary fault-campaign masks: a lane stream
    /// with an arbitrary marker/data mask, corrupted by the bitmap-run
    /// batched path, must equal the word-at-a-time oracle (markers never
    /// consume stream positions in either).
    #[test]
    fn lane_corruption_equivalence_under_masks(
        seed in any::<u64>(),
        ber in prop_oneof![Just(0.0), Just(1e-4), Just(5e-3), Just(0.3)],
        mask in proptest::collection::vec(any::<bool>(), 1..300),
        rounds in 1usize..3,
    ) {
        let rng = DetRng::new(seed);
        let mut inj_batched = BitErrorInjector::new(ber, rng.clone());
        let mut inj_oracle = BitErrorInjector::new(ber, rng);
        let mut lane = LaneStream::new();
        for (i, &marker) in mask.iter().enumerate() {
            if marker {
                lane.push_marker(i as u32);
            } else {
                lane.push_data(0x0123_4567_89AB_CDEF ^ i as u64);
            }
        }
        let mut lane_oracle = lane.clone();
        for _ in 0..rounds {
            let flips = inj_batched.corrupt_lane(&mut lane);
            let mut oracle_flips = 0u64;
            for i in 0..lane_oracle.len() {
                if !lane_oracle.is_marker(i) {
                    oracle_flips += inj_oracle.corrupt_word(&mut lane_oracle.words_mut().0[i]) as u64;
                }
            }
            prop_assert_eq!(flips, oracle_flips);
            prop_assert_eq!(&lane, &lane_oracle);
            prop_assert_eq!(
                (inj_batched.bits, inj_batched.errors),
                (inj_oracle.bits, inj_oracle.errors)
            );
        }
    }

    /// Scrambler word kernels from arbitrary register states: outputs and
    /// end states must match the bit loop.
    #[test]
    fn scrambler_equivalence_random(
        words in proptest::collection::vec(any::<u64>(), 1..32),
    ) {
        let mut tx_s = Scrambler::new();
        let mut tx_r = Scrambler::new();
        let mut rx_s = Scrambler::new();
        let mut rx_r = Scrambler::new();
        for &w in &words {
            let line_s = tx_s.scramble_word_sliced(w);
            let line_r = tx_r.scramble_word_scalar(w);
            prop_assert_eq!(line_s, line_r);
            prop_assert_eq!(rx_s.descramble_word_sliced(line_s), rx_r.descramble_word_scalar(line_r));
        }
    }
}
