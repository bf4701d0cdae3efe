//! `montecarlo`: full-fidelity OOK BER points with the F4 receiver, a
//! KP4 Reed–Solomon coded channel at several pre-FEC BERs, and the two
//! pool-survival samplers. Only the bit-sliced kernels and the
//! reliability samplers run; the `link` and `netsim` crates do not.

use super::{Outcome, Workload};
use crate::trace::Tracer;
use crate::util::{agrees_with, Digest, SplitMix};
use mosaic::reliability_model::channel_fit;
use mosaic_fec::{ReedSolomon, KP4_BER_THRESHOLD};
use mosaic_phy::ber::OokReceiver;
use mosaic_phy::noise::NoiseBudget;
use mosaic_phy::photodiode::Photodiode;
use mosaic_phy::tia::Tia;
use mosaic_reliability::montecarlo::simulate_pool_no_repair_with;
use mosaic_reliability::system::KofN;
use mosaic_reliability::weibull::{
    pool_survival_weibull_analytic, pool_survival_weibull_with, Weibull,
};
use mosaic_sim::fidelity::{ook_ber_with_fidelity, FidelityController, FidelityMode, Tier};
use mosaic_sim::montecarlo::{run_rs_channel_with, SlicerPoint};
use mosaic_sim::sweep::Exec;
use mosaic_units::{Duration, Power};

/// Bits per OOK BER point.
pub const OOK_BITS: u64 = 2_000_000;
/// Codewords per RS point.
pub const RS_CODEWORDS: u64 = 4_000;
/// Pre-FEC BERs of the RS points (around the KP4 threshold).
pub const RS_BERS: [f64; 3] = [1e-4, 2.4e-4, 5e-4];
/// Trials per pool-sampler call.
pub const POOL_TRIALS: u64 = 100_000;
/// Active channels of the sampled pool (as in F6/F15).
pub const POOL_K: usize = 428;
/// Provisioned channels of the sampled pool.
pub const POOL_N: usize = 432;
/// Width of the Wilson acceptance band, in multiples of the 95 % half-width.
const SLACK: f64 = 3.0;

/// The F4 OOK receiver at `rate_gbps`.
pub fn receiver(rate_gbps: f64) -> OokReceiver {
    let tia = Tia::low_speed(rate_gbps);
    OokReceiver {
        pd: Photodiode::silicon_blue(),
        noise: NoiseBudget {
            thermal_a: tia.rms_noise_current(),
            bandwidth: tia.bandwidth,
            rin_db_per_hz: None,
        },
        extinction_ratio: 6.0,
    }
}

/// The F4 sweep powers whose model BER is above 5e-7 (the measured
/// series of F4).
pub fn ber_powers(rx: &OokReceiver) -> Vec<Power> {
    (-300..=-210)
        .step_by(10)
        .map(|t| Power::from_dbm(t as f64 / 10.0))
        .filter(|&p| rx.ber_at(p) > 5e-7)
        .collect()
}

/// The workload's inputs.
pub struct MonteCarlo {
    rx: OokReceiver,
    powers: Vec<Power>,
    rs: ReedSolomon,
    /// One generated seed per call, in call order.
    seeds: Vec<u64>,
}

impl MonteCarlo {
    /// Receiver, sweep powers, code and per-call seeds.
    pub fn setup(seed: u64) -> Self {
        let rx = receiver(2.0);
        let powers = ber_powers(&rx);
        let mut g = SplitMix::new(seed, 0x6d63);
        let seeds = (0..powers.len() + RS_BERS.len() + 2)
            .map(|_| g.next_u64())
            .collect();
        MonteCarlo {
            rx,
            powers,
            rs: ReedSolomon::kp4(),
            seeds,
        }
    }

    /// Run every call at 1/`div` of the full size.
    fn pass(&self, exec: &Exec, tr: &mut Tracer, rep: u64, div: u64) -> Outcome {
        let mut out = Outcome::default();
        let mut digest = Digest::default();
        let mut seeds = self.seeds.iter().copied();
        let mut next_seed = move || seeds.next().unwrap_or(0);
        let ctrl = FidelityController::new(FidelityMode::Full);
        let bits = OOK_BITS / div;
        for (i, &p) in self.powers.iter().enumerate() {
            let seed = next_seed();
            let o = tr.span(
                "sim.ook_ber_with_fidelity",
                || format!("montecarlo/ook{i}/{rep}"),
                |_| ook_ber_with_fidelity(&ctrl, exec, &self.rx, p, KP4_BER_THRESHOLD, bits, seed),
            );
            let model = SlicerPoint::of(&self.rx, p).model_ber();
            let errors = (o.ber * o.trials as f64).round() as u64;
            out.checks.check(
                o.tier == Tier::FullMc
                    && o.trials == bits
                    && agrees_with(model, errors, o.trials, SLACK),
                || format!("ook point {i}: ber {:.3e} vs model {model:.3e}", o.ber),
            );
            digest.mix_f64(o.ber);
            digest.mix(o.trials);
        }
        let codewords = RS_CODEWORDS / div;
        for (i, &ber) in RS_BERS.iter().enumerate() {
            let seed = next_seed();
            let run = tr.span(
                "sim.run_rs_channel_with",
                || format!("montecarlo/rs{i}/{rep}"),
                |_| run_rs_channel_with(exec, &self.rs, ber, codewords, seed),
            );
            out.checks.check(
                run.codewords == codewords
                    && run.decoded + run.failures + run.miscorrected == codewords
                    && agrees_with(ber, run.pre_fec_bit_errors, run.bits, SLACK),
                || {
                    format!(
                        "rs point {i}: {} codewords of {codewords}, pre-FEC {:.3e} vs {ber:.3e}",
                        run.codewords,
                        run.pre_ber()
                    )
                },
            );
            for v in [
                run.codewords,
                run.decoded,
                run.failures,
                run.miscorrected,
                run.pre_fec_bit_errors,
                run.bits,
                run.residual_symbol_errors,
            ] {
                digest.mix(v);
            }
            digest.mix_f64(run.pre_ber());
            digest.mix_f64(run.failure_prob());
        }
        let trials = POOL_TRIALS / div;
        let seven = Duration::from_years(7.0);
        let seed = next_seed();
        let pool = tr.span(
            "reliability.simulate_pool_no_repair_with",
            || format!("montecarlo/pool/{rep}"),
            |_| {
                simulate_pool_no_repair_with(
                    exec,
                    POOL_K,
                    POOL_N,
                    channel_fit(),
                    seven,
                    trials,
                    seed,
                )
            },
        );
        let closed = KofN::new(POOL_K, POOL_N, channel_fit()).survival(seven);
        out.checks.check(
            pool.trials == trials
                && agrees_with(
                    1.0 - closed,
                    pool.trials - pool.survived,
                    pool.trials,
                    SLACK,
                ),
            || {
                format!(
                    "pool sampler: {:.5} vs closed form {closed:.5}",
                    pool.survival()
                )
            },
        );
        digest.mix(pool.trials);
        digest.mix(pool.survived);
        let seed = next_seed();
        let wear = Weibull::matching_fit_at(channel_fit(), 2.5, seven);
        let twelve = Duration::from_years(12.0);
        let s = tr.span(
            "reliability.pool_survival_weibull_with",
            || format!("montecarlo/weibull/{rep}"),
            |_| pool_survival_weibull_with(exec, POOL_K, POOL_N, wear, twelve, trials, seed),
        );
        let closed = pool_survival_weibull_analytic(POOL_K, POOL_N, wear, twelve);
        let died = trials - (s * trials as f64).round() as u64;
        out.checks
            .check(agrees_with(1.0 - closed, died, trials, SLACK), || {
                format!("weibull sampler: {s:.5} vs closed form {closed:.5}")
            });
        digest.mix_f64(s);
        out.digest = digest.value();
        out
    }
}

impl Workload for MonteCarlo {
    fn run(&mut self, exec: &Exec, tr: &mut Tracer, rep: u64) -> Outcome {
        self.pass(exec, tr, rep, 1)
    }

    fn small(&mut self, exec: &Exec) -> Outcome {
        self.pass(exec, &mut Tracer::new(false), 0, 20)
    }

    fn throughput(&self) -> Option<(&'static str, &'static str)> {
        None
    }

    fn describe(&self) -> String {
        format!(
            "{} OOK points x {OOK_BITS} bits, {} RS(544,514) points x {RS_CODEWORDS} codewords, \
             2 pool samplers x {POOL_TRIALS} trials",
            self.powers.len(),
            RS_BERS.len()
        )
    }
}
