//! Monte-Carlo receiver and coded-channel simulation.
//!
//! Two jobs:
//!
//! 1. **Validate the analytic BER model** (F4): sample actual Gaussian
//!    noise at the decision circuit, count actual errors, and compare
//!    against `mosaic_phy::ber`'s closed form.
//! 2. **Validate the analytic FEC math** (F10): push real bits through the
//!    real RS/BCH decoders under injected errors and compare measured
//!    post-FEC rates against `mosaic_fec::analysis`.

use crate::inject::BitErrorInjector;
use crate::rng::{Bernoulli, DetRng};
use crate::sweep::{chunk_count, chunk_len, Exec, TrialCtx, TrialPlan};
use mosaic_fec::rs::{DecodeOutcome, ReedSolomon};
use mosaic_fec::DecodeScratch;
use mosaic_phy::ber::OokReceiver;
use mosaic_units::Power;

/// Fixed Monte-Carlo chunk: bits per parallel task in the OOK slicer
/// simulation. A call-site constant (never derived from the thread
/// count), so the task decomposition — and therefore the output — is
/// identical at every `MOSAIC_THREADS` setting.
pub const OOK_CHUNK_BITS: u64 = 65_536;

/// Raw `u64` draws per slicer bit: the transmit decision, then the two
/// Box-Muller uniforms.
const DRAWS_PER_BIT: usize = 3;

/// Result of a Monte-Carlo BER measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BerMeasurement {
    /// Bits simulated.
    pub bits: u64,
    /// Errors observed.
    pub errors: u64,
    /// Point estimate.
    pub ber: f64,
    /// 95 % Wilson confidence interval (lo, hi).
    pub ci95: (f64, f64),
}

impl BerMeasurement {
    /// Build a measurement from raw counts. Zero bits is a defined
    /// no-information result (`ber = 0.0`, CI `(0.0, 1.0)`), not a
    /// division by zero.
    pub fn from_counts(bits: u64, errors: u64) -> Self {
        let ber = if bits == 0 {
            0.0
        } else {
            errors as f64 / bits as f64
        };
        BerMeasurement {
            bits,
            errors,
            ber,
            ci95: wilson_ci(errors, bits),
        }
    }
}

/// Wilson score interval for a binomial proportion (robust at zero
/// observed errors, unlike the normal approximation).
///
/// Zero trials carry no information: the interval is the vacuous
/// `(0.0, 1.0)` rather than a panic, matching the workspace's
/// never-panic API posture.
pub fn wilson_ci(errors: u64, trials: u64) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    let z = 1.96f64;
    let n = trials as f64;
    let p = errors as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    ((center - half).max(0.0), (center + half).min(1.0))
}

/// Decision-circuit operating point for the OOK slicer: rail currents,
/// rail noises, and the optimum threshold between them.
///
/// Public so the kernel-equivalence proptests (sliced vs scalar, at lane
/// counts that straddle the 64-bit word boundary) can drive the slicer
/// directly; figure code goes through [`simulate_ook_ber_par`].
#[derive(Debug, Clone, Copy)]
pub struct SlicerPoint {
    /// One-rail photocurrent (A).
    pub i1: f64,
    /// Zero-rail photocurrent (A).
    pub i0: f64,
    /// One-rail noise sigma (A).
    pub s1: f64,
    /// Zero-rail noise sigma (A).
    pub s0: f64,
    /// Decision threshold (A).
    pub threshold: f64,
}

impl SlicerPoint {
    /// Operating point of a receiver at a given average power.
    pub fn of(rx: &OokReceiver, avg_power: Power) -> Self {
        let (p1, p0) = rx.levels(avg_power);
        let i1 = rx.pd.photocurrent(p1) + rx.pd.dark_current_a;
        let i0 = rx.pd.photocurrent(p0) + rx.pd.dark_current_a;
        let s1 = rx.noise.total_a(i1);
        let s0 = rx.noise.total_a(i0);
        // Optimum threshold for unequal noises.
        let threshold = (s0 * i1 + s1 * i0) / (s0 + s1);
        SlicerPoint {
            i1,
            i0,
            s1,
            s0,
            threshold,
        }
    }

    /// Closed-form BER of this operating point: the *exact* mean of the
    /// estimator [`SlicerPoint::count_errors`] samples,
    /// `(Q(d1) + Q(d0)) / 2` with `d1 = (i1 − threshold)/s1` and
    /// `d0 = (threshold − i0)/s0`.
    ///
    /// Error-budget note (DESIGN §12): this is *not* the single-Q
    /// approximation `Q((i1 − i0)/(s1 + s0))` that
    /// [`OokReceiver::ber_at`] reports — at the optimum threshold the
    /// two agree to within a few percent, which is exactly the model
    /// mismatch the Monte-Carlo column of F4 makes visible. The adaptive
    /// analytic tier therefore uses this two-sided form, whose only
    /// deviation from a correct kernel's measurement is sampling noise.
    pub fn model_ber(&self) -> f64 {
        let d1 = (self.i1 - self.threshold) / self.s1;
        let d0 = (self.threshold - self.i0) / self.s0;
        0.5 * (mosaic_phy::math::normal_tail(d1) + mosaic_phy::math::normal_tail(d0))
    }

    /// Slice `bits` noisy samples from `rng`, returning the error count.
    ///
    /// Dispatches to the block kernel with rejection by default, or to
    /// the retained scalar loop under `--features scalar-kernels`. Error
    /// counts and RNG draw sequences are bit-identical either way (pinned
    /// by the `sliced_slicer_matches_scalar_reference` proptest).
    #[inline]
    pub fn count_errors(&self, bits: u64, rng: &mut DetRng) -> u64 {
        #[cfg(feature = "scalar-kernels")]
        {
            self.count_errors_scalar(bits, rng)
        }
        #[cfg(not(feature = "scalar-kernels"))]
        {
            self.count_errors_sliced(bits, rng)
        }
    }

    /// Block slicer kernel with rejection before Box-Muller (DESIGN
    /// §11.4).
    ///
    /// The draw pass bulk-fills the block's raw words (three per bit, in
    /// the scalar loop's exact order: transmit decision, then the two
    /// Box-Muller uniforms) with one [`DetRng::fill_u64`] call, so the
    /// stream position after every block is the scalar loop's. Each bit
    /// then first compares its `u1` draw with [`SlicerPoint::reject_cut`]:
    /// a bit above the cut has `|z| ≤ √(−2 ln u₁)` below both rail
    /// distances, so it cannot be an error whatever its transmit bit and
    /// `u₂` are, and is skipped. The rest run the identical transforms
    /// ([`Bernoulli::decide`], [`DetRng::standard_normal_of`]) and the
    /// exact float compare `level + sigma·z > threshold` of the scalar
    /// loop, so the error count is identical.
    #[cfg_attr(all(not(test), feature = "scalar-kernels"), allow(dead_code))]
    pub fn count_errors_sliced(&self, bits: u64, rng: &mut DetRng) -> u64 {
        const BLOCK: usize = 256;
        let cut = self.reject_cut();
        let mut draws = [0u64; DRAWS_PER_BIT * BLOCK];
        let mut errors = 0u64;
        let mut remaining = bits;
        while remaining > 0 {
            let len = remaining.min(BLOCK as u64) as usize;
            let block = &mut draws[..DRAWS_PER_BIT * len];
            rng.fill_u64(block);
            errors += self.count_block(block, cut);
            remaining -= len as u64;
        }
        errors
    }

    /// Errors among the bits of one block of raw draws (three per bit),
    /// skipping every bit whose `u1` draw has `(d >> 11) > cut`. With
    /// `cut = u64::MAX` nothing is skipped.
    fn count_block(&self, draws: &[u64], cut: u64) -> u64 {
        let half = Bernoulli::new(0.5);
        let mut errors = 0u64;
        for d in draws.chunks_exact(DRAWS_PER_BIT) {
            if d[1] >> 11 > cut {
                continue;
            }
            let one = half.decide(d[0]);
            let (level, sigma) = if one {
                (self.i1, self.s1)
            } else {
                (self.i0, self.s0)
            };
            let sample = level + sigma * DetRng::standard_normal_of(d[1], d[2]);
            errors += u64::from((sample > self.threshold) != one);
        }
        errors
    }

    /// The rejection cut on a bit's `u1` draw: every draw with
    /// `(d >> 11) > cut` gives a sample that cannot cross the threshold.
    ///
    /// The bound: `u₁ ≥ (d >> 11)·2⁻⁵³` and `|z| ≤ √(−2 ln u₁)`, so an
    /// error needs `u₁ ≤ exp(−r²/2)`, with `r` the smaller rail distance
    /// in sigmas. Each rail's distance is shrunk by the float error of
    /// the compare, `4ε·(|level| + |threshold|)` with `ε = 2⁻⁵³`, then
    /// by a relative `2⁻²⁰` that covers the rounding of ln, sqrt, the
    /// products and the divisions (a few ε each); the exponential gets
    /// another relative `2⁻²⁰`. The margins cost a share of about
    /// `r²·2⁻²⁰` of the bits that could have been skipped. When `r` is
    /// not finite and positive (threshold outside the rails, a zero or
    /// NaN sigma) nothing is skipped.
    fn reject_cut(&self) -> u64 {
        const EPS: f64 = f64::EPSILON / 2.0;
        const MARGIN: f64 = 1.0 / (1u64 << 20) as f64;
        // A rail's shrunk distance, or NaN when its sigma is not a
        // positive normal float.
        let rail = |gap: f64, level: f64, sigma: f64| {
            if !(sigma.is_normal() && sigma > 0.0) {
                return f64::NAN;
            }
            (gap - 4.0 * EPS * (level.abs() + self.threshold.abs())) / sigma * (1.0 - MARGIN)
        };
        let r1 = rail(self.i1 - self.threshold, self.i1, self.s1);
        let r0 = rail(self.threshold - self.i0, self.i0, self.s0);
        // Explicit tests rather than `f64::min`, which would drop a NaN.
        if !(r1.is_finite() && r1 > 0.0 && r0.is_finite() && r0 > 0.0) {
            return u64::MAX;
        }
        let r = if r1 < r0 { r1 } else { r0 };
        let u = ((-0.5 * r * r).exp() * (1.0 + MARGIN)).min(1.0);
        (u * (1u64 << 53) as f64) as u64
    }

    /// The retained scalar slicer: one bit at a time, the differential
    /// oracle for [`SlicerPoint::count_errors_sliced`]. Active as the
    /// `count_errors` path under `--features scalar-kernels`.
    #[cfg_attr(not(any(test, feature = "scalar-kernels")), allow(dead_code))]
    pub fn count_errors_scalar(&self, bits: u64, rng: &mut DetRng) -> u64 {
        let mut errors = 0u64;
        for _ in 0..bits {
            let (level, sigma, is_one) = if rng.chance(0.5) {
                (self.i1, self.s1, true)
            } else {
                (self.i0, self.s0, false)
            };
            let sample = level + sigma * rng.standard_normal();
            let decided_one = sample > self.threshold;
            if decided_one != is_one {
                errors += 1;
            }
        }
        errors
    }
}

/// Simulate an OOK slicer: per bit, pick a level (equiprobable 0/1), add
/// the level-dependent Gaussian noise, and threshold at the optimum point.
/// This is the physical process the Q-factor formula models; the test
/// suite checks they agree.
///
/// Sequential, single-stream form; the sweep-engine form is
/// [`simulate_ook_ber_par`].
pub fn simulate_ook_ber(
    rx: &OokReceiver,
    avg_power: Power,
    bits: u64,
    rng: &mut DetRng,
) -> BerMeasurement {
    let point = SlicerPoint::of(rx, avg_power);
    let errors = point.count_errors(bits, rng);
    BerMeasurement::from_counts(bits, errors)
}

/// Parallel OOK slicer simulation: `bits` are split into fixed
/// [`OOK_CHUNK_BITS`]-sized tasks, chunk `c` drawing from the
/// counter-derived stream `(seed, "ook-ber", c)`. Error counters
/// accumulate per chunk and are summed in chunk order, so the result is
/// bit-identical at every thread count for a given seed.
pub fn simulate_ook_ber_par(
    exec: &Exec,
    rx: &OokReceiver,
    avg_power: Power,
    bits: u64,
    seed: u64,
) -> BerMeasurement {
    let point = SlicerPoint::of(rx, avg_power);
    let chunks = chunk_count(bits, OOK_CHUNK_BITS);
    // Exact integer sum over chunk counters: no intermediate collection,
    // thread-count invariant by the fold's commutativity contract.
    let errors = TrialPlan::new()
        .trials(chunks)
        .seed(seed)
        .label("ook-ber")
        .sum(exec, |ctx| {
            let mut rng = ctx.rng();
            point.count_errors(chunk_len(ctx.trial(), bits, OOK_CHUNK_BITS), &mut rng)
        });
    BerMeasurement::from_counts(bits, errors)
}

/// Result of a coded-channel Monte-Carlo run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodedRun {
    /// Codewords pushed through.
    pub codewords: u64,
    /// Codewords that decoded (clean or corrected).
    pub decoded: u64,
    /// Codewords that failed (detected uncorrectable).
    pub failures: u64,
    /// Codewords that "decoded" to the wrong codeword (silent
    /// miscorrection — possible when errors exceed t; rate ~1/t!).
    pub miscorrected: u64,
    /// Pre-FEC bit errors injected.
    pub pre_fec_bit_errors: u64,
    /// Bits transmitted.
    pub bits: u64,
    /// Residual data-symbol errors after decoding (from failed words).
    pub residual_symbol_errors: u64,
}

impl CodedRun {
    /// Measured codeword failure probability (detected + miscorrected).
    /// Zero codewords is a defined no-information result (`0.0`), as in
    /// [`BerMeasurement::from_counts`].
    pub fn failure_prob(&self) -> f64 {
        if self.codewords == 0 {
            return 0.0;
        }
        (self.failures + self.miscorrected) as f64 / self.codewords as f64
    }

    /// Measured pre-FEC BER; `0.0` when no bit was sent.
    pub fn pre_ber(&self) -> f64 {
        if self.bits == 0 {
            return 0.0;
        }
        self.pre_fec_bit_errors as f64 / self.bits as f64
    }
}

/// Push `codewords` random RS codewords through a BER-`ber` channel and
/// decode them, counting real failures. Runs on the ambient
/// (`MOSAIC_THREADS`) execution context; see [`run_rs_channel_with`].
pub fn run_rs_channel(rs: &ReedSolomon, ber: f64, codewords: u64, seed: u64) -> CodedRun {
    run_rs_channel_with(&Exec::from_env(), rs, ber, codewords, seed)
}

/// Per-worker working set of the RS channel: decode scratch plus the
/// data, word and error-support buffers, reused across every codeword
/// the worker processes — zero heap allocation per word in steady state.
#[derive(Debug, Clone, Default)]
pub struct RsChannelScratch {
    decode: DecodeScratch,
    data: Vec<u16>,
    word: Vec<u16>,
    support: Vec<usize>,
}

impl RsChannelScratch {
    /// Empty scratch; buffers are sized by the first codeword.
    pub fn new() -> Self {
        Self::default()
    }

    /// One codeword through the channel, decoded as a bare error pattern
    /// (DESIGN §11.4): `inj` corrupts an all-zero word, recording the
    /// flipped symbols, and [`ReedSolomon::decode_error_pattern`] decodes
    /// it. Every [`CodedRun`] field is a function of the error pattern
    /// alone, so this tallies exactly what the encode-and-decode step of
    /// [`run_rs_channel_dense_with`] tallies for any sent data:
    /// * no flip: decoded, with no decode call;
    /// * `Corrected` with the whole support cleared: decoded. The word is
    ///   then a codeword with at most t nonzero symbols, so it is zero;
    /// * `Clean` with a flip (the pattern is itself a codeword) or any
    ///   other `Corrected`: a miscorrection to a nonzero codeword, whose
    ///   data part is nonzero because the code is systematic;
    /// * `Failure`: the pattern is left as it was.
    ///
    /// Residual data-symbol errors are the nonzero data symbols of the
    /// final pattern. The word is all-zero again on return.
    pub fn sparse_codeword(
        &mut self,
        rs: &ReedSolomon,
        inj: &mut BitErrorInjector,
        acc: &mut CodedRun,
    ) {
        let m = rs.symbol_bits();
        if self.word.len() != rs.n() {
            self.word.clear();
            self.word.resize(rs.n(), 0);
            // At most one support entry per symbol: sized once, never grown.
            self.support.reserve(rs.n());
        }
        acc.codewords += 1;
        acc.bits += rs.n() as u64 * m as u64;
        let flips = inj.corrupt_symbols_tracked(&mut self.word, m, &mut self.support);
        acc.pre_fec_bit_errors += flips;
        if flips == 0 {
            acc.decoded += 1;
            return;
        }
        let outcome = rs
            .decode_error_pattern(&mut self.word, &self.support, &mut self.decode)
            .expect("injected pattern has the code's length and an ascending support");
        match outcome {
            DecodeOutcome::Corrected(_) if self.support.iter().all(|&i| self.word[i] == 0) => {
                acc.decoded += 1;
                return;
            }
            DecodeOutcome::Failure => acc.failures += 1,
            DecodeOutcome::Clean | DecodeOutcome::Corrected(_) => acc.miscorrected += 1,
        }
        acc.residual_symbol_errors +=
            self.word[..rs.k()].iter().filter(|&&v| v != 0).count() as u64;
        self.word.fill(0);
    }

    /// One codeword through the channel the direct way: `data_rng` draws
    /// the data, the codeword is encoded, `inj` corrupts it and the
    /// decoded data is compared with what was sent. The differential
    /// oracle for [`RsChannelScratch::sparse_codeword`].
    fn dense_codeword(
        &mut self,
        rs: &ReedSolomon,
        data_rng: &mut DetRng,
        inj: &mut BitErrorInjector,
        acc: &mut CodedRun,
    ) {
        let m = rs.symbol_bits();
        let mask = ((1u32 << m) - 1) as u16;
        self.data.clear();
        self.data
            .extend((0..rs.k()).map(|_| (data_rng.next_u64() as u16) & mask));
        rs.try_encode_into(&self.data, &mut self.word)
            .expect("simulated data block has the code's exact length");
        acc.codewords += 1;
        acc.pre_fec_bit_errors += inj.corrupt_symbols(&mut self.word, m);
        acc.bits += rs.n() as u64 * m as u64;
        let outcome = rs
            .decode_scratch(&mut self.word, &mut self.decode)
            .expect("simulated codeword has the code's exact length");
        let residual = || {
            self.word[..rs.k()]
                .iter()
                .zip(&self.data)
                .filter(|(a, b)| a != b)
                .count() as u64
        };
        match outcome {
            DecodeOutcome::Clean | DecodeOutcome::Corrected(_) => {
                if self.word[..rs.k()] == self.data[..] {
                    acc.decoded += 1;
                } else {
                    // Beyond-capacity miscorrection to a different valid
                    // codeword — inherent to bounded-distance decoding.
                    acc.miscorrected += 1;
                    acc.residual_symbol_errors += residual();
                }
            }
            DecodeOutcome::Failure => {
                acc.failures += 1;
                acc.residual_symbol_errors += residual();
            }
        }
    }
}

/// [`run_rs_channel`] on an explicit execution context.
///
/// Each codeword is an independent task: word `w` draws its noise from
/// stream `(seed, "rs-noise", w)` (and, on the dense path, its data from
/// `(seed, "rs-data", w)`), and the per-word counters fold by exact
/// integer addition — so the totals are bit-identical at every thread
/// count. (Restarting the injector's geometric skip at each word keeps
/// errors i.i.d. Bernoulli(`ber`), which is all the channel model
/// promises.)
///
/// Dispatches to the error-pattern channel
/// ([`run_rs_channel_sparse_with`]) by default, or to the retained
/// encode-and-decode channel ([`run_rs_channel_dense_with`]) under
/// `--features scalar-kernels`. The streams are counter-based, so
/// skipping the data draws moves no noise draw, and every field is
/// identical either way (pinned by the kernel-equivalence suite).
pub fn run_rs_channel_with(
    exec: &Exec,
    rs: &ReedSolomon,
    ber: f64,
    codewords: u64,
    seed: u64,
) -> CodedRun {
    #[cfg(feature = "scalar-kernels")]
    {
        run_rs_channel_dense_with(exec, rs, ber, codewords, seed)
    }
    #[cfg(not(feature = "scalar-kernels"))]
    {
        run_rs_channel_sparse_with(exec, rs, ber, codewords, seed)
    }
}

/// The RS channel decoding bare error patterns: no data draws, no encode,
/// sparse syndromes (see [`RsChannelScratch::sparse_codeword`]).
#[cfg_attr(all(not(test), feature = "scalar-kernels"), allow(dead_code))]
pub fn run_rs_channel_sparse_with(
    exec: &Exec,
    rs: &ReedSolomon,
    ber: f64,
    codewords: u64,
    seed: u64,
) -> CodedRun {
    rs_channel_fold(exec, ber, codewords, seed, |_, st, inj, acc| {
        st.sparse_codeword(rs, inj, acc)
    })
}

/// The retained encode-and-decode RS channel, the differential oracle
/// for [`run_rs_channel_sparse_with`]. Active as the
/// `run_rs_channel_with` path under `--features scalar-kernels`.
#[cfg_attr(not(any(test, feature = "scalar-kernels")), allow(dead_code))]
pub fn run_rs_channel_dense_with(
    exec: &Exec,
    rs: &ReedSolomon,
    ber: f64,
    codewords: u64,
    seed: u64,
) -> CodedRun {
    rs_channel_fold(exec, ber, codewords, seed, |ctx, st, inj, acc| {
        st.dense_codeword(rs, &mut ctx.stream("rs-data"), inj, acc)
    })
}

/// The codeword fan-out both RS channels share: one task per codeword,
/// each with its own `"rs-noise"` injector, counters summed exactly.
fn rs_channel_fold(
    exec: &Exec,
    ber: f64,
    codewords: u64,
    seed: u64,
    word: impl Fn(&TrialCtx, &mut RsChannelScratch, &mut BitErrorInjector, &mut CodedRun) + Sync,
) -> CodedRun {
    let zero = || CodedRun {
        codewords: 0,
        decoded: 0,
        failures: 0,
        miscorrected: 0,
        pre_fec_bit_errors: 0,
        bits: 0,
        residual_symbol_errors: 0,
    };
    let mut out = TrialPlan::new().trials(codewords).seed(seed).fold(
        exec,
        RsChannelScratch::new,
        zero,
        |ctx, st, acc| {
            let mut inj = BitErrorInjector::new(ber, ctx.stream("rs-noise"));
            word(ctx, st, &mut inj, acc);
        },
        |total, part| {
            total.codewords += part.codewords;
            total.decoded += part.decoded;
            total.failures += part.failures;
            total.miscorrected += part.miscorrected;
            total.pre_fec_bit_errors += part.pre_fec_bit_errors;
            total.bits += part.bits;
            total.residual_symbol_errors += part.residual_symbol_errors;
        },
    );
    debug_assert_eq!(out.codewords, codewords);
    out.codewords = codewords;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_fec::analysis::rs_performance;
    use mosaic_phy::noise::NoiseBudget;
    use mosaic_phy::photodiode::Photodiode;
    use mosaic_units::Frequency;

    fn mosaic_rx() -> OokReceiver {
        OokReceiver {
            pd: Photodiode::silicon_blue(),
            noise: NoiseBudget {
                thermal_a: 3.0e-12 * (1.4e9f64).sqrt(),
                bandwidth: Frequency::from_ghz(1.4),
                rin_db_per_hz: None,
            },
            extinction_ratio: 6.0,
        }
    }

    #[test]
    fn monte_carlo_matches_analytic_ber() {
        // Pick a power where BER ≈ 1e-3 so 2M bits give tight statistics.
        let rx = mosaic_rx();
        let p = rx.sensitivity(1e-3).unwrap();
        let mut rng = DetRng::new(2024);
        let m = simulate_ook_ber(&rx, p, 2_000_000, &mut rng);
        let analytic = rx.ber_at(p);
        assert!(
            m.ci95.0 <= analytic && analytic <= m.ci95.1,
            "analytic {analytic} outside CI {:?} (measured {})",
            m.ci95,
            m.ber
        );
    }

    #[test]
    fn wilson_interval_sane() {
        let (lo, hi) = wilson_ci(0, 1000);
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0 && hi < 0.01);
        let (lo, hi) = wilson_ci(500, 1000);
        assert!(lo < 0.5 && 0.5 < hi);
        assert!(hi - lo < 0.07);
    }

    #[test]
    fn zero_trials_is_defined_not_a_panic() {
        assert_eq!(wilson_ci(0, 0), (0.0, 1.0));
        let m = BerMeasurement::from_counts(0, 0);
        assert_eq!(m.ber, 0.0);
        assert_eq!(m.ci95, (0.0, 1.0));
        assert_eq!(m.bits, 0);
        assert_eq!(m.errors, 0);
    }

    #[test]
    fn zero_codeword_run_ratios_are_defined() {
        let rs = ReedSolomon::new(8, 31, 23);
        for run in [
            run_rs_channel_sparse_with(&Exec::with_threads(1), &rs, 1e-2, 0, 3),
            run_rs_channel_dense_with(&Exec::with_threads(1), &rs, 1e-2, 0, 3),
        ] {
            assert_eq!((run.codewords, run.bits), (0, 0));
            assert_eq!(run.failure_prob(), 0.0);
            assert_eq!(run.pre_ber(), 0.0);
        }
    }

    /// A slicer point `snr` sigmas from each rail on average, with the
    /// threshold moved `skew` of the way towards the one rail and
    /// unequal rail noises.
    fn skewed_point(snr: f64, skew: f64) -> SlicerPoint {
        SlicerPoint {
            i1: 10e-6 + snr * 1.1e-6,
            i0: 10e-6 - snr * 0.9e-6,
            s1: 1.1e-6,
            s0: 0.9e-6,
            threshold: 10e-6 + skew * snr * 1e-6,
        }
    }

    /// Points where rejection must be off: threshold outside the rails,
    /// zero, negative or NaN sigma, NaN threshold.
    fn degenerate_points() -> Vec<SlicerPoint> {
        let base = skewed_point(4.0, 0.0);
        vec![
            SlicerPoint {
                threshold: base.i1 + 1e-6,
                ..base
            },
            SlicerPoint {
                threshold: base.i0 - 1e-6,
                ..base
            },
            SlicerPoint { s1: 0.0, ..base },
            SlicerPoint { s0: -1e-6, ..base },
            SlicerPoint {
                s1: f64::NAN,
                ..base
            },
            SlicerPoint {
                threshold: f64::NAN,
                ..base
            },
        ]
    }

    #[test]
    fn degenerate_points_reject_nothing() {
        for point in degenerate_points() {
            assert_eq!(point.reject_cut(), u64::MAX, "{point:?}");
        }
    }

    #[test]
    fn reject_cut_tracks_the_box_muller_bound() {
        // Symmetric point r sigmas from both rails: the cut sits at
        // exp(−r²/2), loosened only by the documented margins.
        for r in [1.0f64, 3.0, 5.0, 8.0] {
            let point = SlicerPoint {
                i1: 1.0 + r,
                i0: 1.0 - r,
                s1: 1.0,
                s0: 1.0,
                threshold: 1.0,
            };
            // Skipped draws are those with u₁ ≥ (cut + 1)·2⁻⁵³.
            let cut = point.reject_cut();
            let first_skipped = (cut + 1) as f64 / (1u64 << 53) as f64;
            let bound = (-0.5 * r * r).exp();
            assert!(
                first_skipped > bound && cut as f64 / (1u64 << 53) as f64 <= bound * (1.0 + 1e-4),
                "r={r}: cut {cut} vs bound {bound:e}"
            );
        }
    }

    #[test]
    fn rejected_draws_right_at_the_cut_are_never_errors() {
        // Draws one either side of the cut, with u₂ = 0 (z = +√(−2 ln u₁))
        // and u₂ = ½ (z = −√(−2 ln u₁)), the extremes of Box-Muller, and
        // both transmit bits: skipping must change no count.
        let tx_draws = [0u64, u64::MAX]; // a one, then a zero
        for snr in [0.5f64, 1.0, 2.0, 3.0, 4.5, 6.0, 8.0, 12.0] {
            for skew in [-0.8f64, -0.3, 0.0, 0.3, 0.8] {
                let point = skewed_point(snr, skew);
                let cut = point.reject_cut();
                assert!(cut < 1u64 << 53, "snr {snr} skew {skew}: nothing rejected");
                for m in cut.saturating_sub(2)..=(cut + 3).min((1u64 << 53) - 1) {
                    for u2 in [0u64, 1u64 << 63] {
                        for tx in tx_draws {
                            let draws = [tx, (m << 11) | 0x7FF, u2];
                            assert_eq!(
                                point.count_block(&draws, cut),
                                point.count_block(&draws, u64::MAX),
                                "snr {snr} skew {skew} m {m} (cut {cut}) u2 {u2:#x} tx {tx:#x}"
                            );
                        }
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn sliced_slicer_matches_scalar_reference(
            seed in 0u64..500,
            bits in 0u64..2000,
            snr in 0.0f64..12.0,
            skew in -0.9f64..0.9,
            degenerate in 0usize..12,
        ) {
            // The rejecting slicer must reproduce the scalar loop
            // exactly: same error count AND same final RNG state (so
            // downstream draws are unaffected). `snr` spaces the rails in
            // units of the noise sigma, sweeping error rates from ~0.5 to
            // far below anything a run can observe; `skew` moves the
            // threshold off centre; half the cases use a degenerate point.
            let points = degenerate_points();
            let point = points
                .get(degenerate)
                .copied()
                .unwrap_or_else(|| skewed_point(snr, skew));
            let mut rng_sliced = DetRng::new(seed);
            let mut rng_ref = DetRng::new(seed);
            let sliced = point.count_errors_sliced(bits, &mut rng_sliced);
            let scalar = point.count_errors_scalar(bits, &mut rng_ref);
            proptest::prop_assert_eq!(sliced, scalar);
            proptest::prop_assert_eq!(rng_sliced.next_u64(), rng_ref.next_u64());
        }
    }

    #[test]
    fn rs_channel_failure_rate_matches_analytic() {
        // A weak code at a harsh BER so failures are common enough to
        // measure in few words: RS(31,23) t=4 at BER 2e-2.
        let rs = ReedSolomon::new(8, 31, 23);
        let ber = 2e-2;
        let run = run_rs_channel(&rs, ber, 2000, 7);
        let analytic = rs_performance(rs.n(), rs.t(), rs.symbol_bits(), ber);
        let measured = run.failure_prob();
        let expected = analytic.codeword_failure_prob;
        assert!(
            (measured / expected - 1.0).abs() < 0.25,
            "measured {measured} vs analytic {expected}"
        );
        // Pre-FEC BER should be close to target.
        assert!((run.pre_ber() / ber - 1.0).abs() < 0.05);
    }

    #[test]
    fn clean_channel_never_fails() {
        let rs = ReedSolomon::new(8, 31, 23);
        let run = run_rs_channel(&rs, 0.0, 100, 1);
        assert_eq!(run.failures, 0);
        assert_eq!(run.decoded, 100);
    }

    #[test]
    fn deterministic_across_runs() {
        let rs = ReedSolomon::new(8, 31, 23);
        let a = run_rs_channel(&rs, 1e-2, 300, 5);
        let b = run_rs_channel(&rs, 1e-2, 300, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn ook_par_is_thread_count_invariant() {
        let rx = mosaic_rx();
        let p = rx.sensitivity(1e-3).unwrap();
        // Non-multiple of the chunk size to exercise the short tail chunk.
        let bits = 3 * OOK_CHUNK_BITS + 1234;
        let seq = simulate_ook_ber_par(&Exec::with_threads(1), &rx, p, bits, 99);
        for threads in [2, 4, 16] {
            let par = simulate_ook_ber_par(&Exec::with_threads(threads), &rx, p, bits, 99);
            assert_eq!(seq, par, "threads={threads}");
        }
        // And the statistics still agree with the analytic model.
        let analytic = rx.ber_at(p);
        assert!(
            seq.ci95.0 <= analytic && analytic <= seq.ci95.1,
            "analytic {analytic} outside CI {:?}",
            seq.ci95
        );
    }

    #[test]
    fn rs_channel_is_thread_count_invariant() {
        let rs = ReedSolomon::new(8, 31, 23);
        let seq = run_rs_channel_with(&Exec::with_threads(1), &rs, 2e-2, 401, 13);
        for threads in [2, 8] {
            let par = run_rs_channel_with(&Exec::with_threads(threads), &rs, 2e-2, 401, 13);
            assert_eq!(seq, par, "threads={threads}");
        }
    }
}
