//! Fault-campaign execution: drive a [`FaultCampaign`] against a link
//! with (or without) the graceful-degradation controller and measure
//! delivered throughput and availability.
//!
//! This is the quantitative engine behind experiment F17 and the
//! evidence for claims C3/C6: the same generated fault schedule is
//! replayed twice — once against a static lane map (faulted channels
//! stay faulted) and once with [`DegradeController`] sparing, remapping,
//! and shedding lanes — and the two delivered-throughput curves are
//! compared.
//!
//! **Determinism.** The runner itself draws no random numbers: channel
//! error counts are expectation values (`ber · bits`) and frame delivery
//! is the post-FEC success probability, both pure functions of the
//! campaign schedule. All randomness lives in
//! [`FaultCampaign::generate`], whose per-channel `DetRng` substreams
//! are scheduling-independent — so a campaign run is bit-identical at
//! any thread count by construction.
//!
//! **Bounded by logical epochs.** A run executes exactly
//! `config.epochs` controller epochs — a *logical* budget, not a wall
//! clock — so campaign trials terminate deterministically and the
//! module stays clean under lint rule R2 (no `Instant`/`SystemTime`
//! outside telemetry).

use crate::faults::{CampaignConfig, FaultCampaign};
use crate::telemetry;
use mosaic_link::degrade::{state_tag, DegradeConfig, DegradeController};

/// Parameters of one campaign replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignRunConfig {
    /// Logical lanes the link is provisioned to carry.
    pub logical_lanes: usize,
    /// Physical channels (surplus over `logical_lanes` is the spare pool).
    pub physical_channels: usize,
    /// Bits each physical channel carries per epoch (feeds the BER
    /// monitors and the delivery model).
    pub bits_per_epoch: u64,
    /// Frame size in bits for the delivery model.
    pub frame_bits: u64,
    /// Healthy-channel baseline BER.
    pub base_ber: f64,
    /// Post-FEC correctable BER: lanes at or below this deliver
    /// perfectly; excess BER decays frame success exponentially.
    pub correctable_ber: f64,
    /// Fault-arrival process parameters.
    pub campaign: CampaignConfig,
    /// Controller policy (ignored when `controller` is false).
    pub degrade: DegradeConfig,
    /// Run with the graceful-degradation controller?
    pub controller: bool,
}

impl Default for CampaignRunConfig {
    fn default() -> Self {
        CampaignRunConfig {
            logical_lanes: 12,
            physical_channels: 16,
            bits_per_epoch: 8192,
            frame_bits: 4096,
            base_ber: 1e-6,
            correctable_ber: 1e-3,
            campaign: CampaignConfig::default(),
            degrade: DegradeConfig::default(),
            controller: true,
        }
    }
}

/// Aggregate outcome of one campaign replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignOutcome {
    /// Epochs executed (the logical budget).
    pub epochs: usize,
    /// Mean delivered fraction of the provisioned aggregate rate.
    pub delivered_fraction: f64,
    /// Fraction of epochs delivering ≥ 90 % of provisioned rate.
    pub availability: f64,
    /// Fault events the campaign injected.
    pub fault_events: usize,
    /// Spares the controller activated (0 without controller).
    pub spares_activated: usize,
    /// Logical lanes shed after spare exhaustion (0 without controller).
    pub lost_lanes: usize,
    /// Controller transitions fired (0 without controller).
    pub transitions: usize,
    /// Rate fraction still provisioned when the run ended.
    pub final_rate_fraction: f64,
}

/// Monitor-visible BER of a channel under a fault effect: deaths read as
/// half-random slicing, skew reads as gross misalignment errors.
fn monitor_ber(base: f64, effect: &crate::faults::ChannelEffect) -> f64 {
    if effect.dead {
        return 0.5;
    }
    let skew_penalty = if effect.skew_epochs > 0 { 0.25 } else { 0.0 };
    (base + effect.extra_ber + skew_penalty).min(0.5)
}

/// Post-FEC frame-delivery probability for a lane at `ber`: perfect at
/// or below the correctable floor, exponential decay above it, zero
/// while dead or realigning after a skew jump.
fn delivery(ber: f64, effect: &crate::faults::ChannelEffect, cfg: &CampaignRunConfig) -> f64 {
    if effect.dead || effect.skew_epochs > 0 {
        return 0.0;
    }
    let excess = (ber - cfg.correctable_ber).max(0.0);
    (-excess * cfg.frame_bits as f64).exp()
}

/// Replay the campaign generated from `(config.campaign, seed)` against
/// the link and return the aggregate outcome.
///
/// Telemetry: bumps `campaign.fault_events`, per-destination-state
/// `campaign.transition.{state}` counters, `campaign.spares_activated`,
/// and `campaign.lost_lanes` — all deterministic values, safe for the
/// value-checked manifest diff.
pub fn run_campaign(
    config: &CampaignRunConfig,
    seed: u64,
) -> mosaic_units::Result<CampaignOutcome> {
    let campaign = FaultCampaign::generate(config.campaign, seed);
    let epochs = config.campaign.epochs;
    let logical = config.logical_lanes;
    let mut controller = if config.controller {
        Some(DegradeController::try_new(
            logical,
            config.physical_channels,
            config.degrade,
        )?)
    } else {
        None
    };
    // Static assignment for the no-controller baseline.
    let static_assignment: Vec<usize> = (0..logical).collect();

    let mut delivered_sum = 0.0;
    let mut available_epochs = 0usize;
    for epoch in 0..epochs {
        // Feed every physical channel's monitor and fault reports.
        if let Some(ctl) = controller.as_mut() {
            for ch in 0..config.physical_channels {
                let effect = campaign.effect_at(ch, epoch);
                let ber = monitor_ber(config.base_ber, &effect);
                let errors = (ber * config.bits_per_epoch as f64) as u64;
                ctl.record(ch, config.bits_per_epoch, errors);
                if effect.dead {
                    ctl.mark_dead(ch);
                }
            }
            ctl.step();
        }
        // Deliverability of the lanes actually carried this epoch.
        // A lane whose channel is dead (and could not be remapped)
        // contributes zero delivery on its own; no separate carried-lane
        // bookkeeping needed.
        let assignment: &[usize] = match controller.as_ref() {
            Some(ctl) => ctl.lane_map().assignment(),
            None => &static_assignment,
        };
        let mut epoch_delivered = 0.0;
        for &ch in assignment.iter() {
            let effect = campaign.effect_at(ch, epoch);
            let ber = monitor_ber(config.base_ber, &effect);
            epoch_delivered += delivery(ber, &effect, config);
        }
        let fraction = if logical == 0 {
            0.0
        } else {
            epoch_delivered / logical as f64
        };
        delivered_sum += fraction;
        if fraction >= 0.9 {
            available_epochs += 1;
        }
    }

    telemetry::counter_add("campaign.fault_events", campaign.events().len() as u64);
    let (spares_activated, lost_lanes, transitions, final_rate_fraction) = match controller.as_mut()
    {
        Some(ctl) => {
            let drained = ctl.drain_transitions();
            if telemetry::active() {
                for t in &drained {
                    telemetry::counter_add(&format!("campaign.transition.{}", state_tag(t.to)), 1);
                }
            }
            if ctl.spares_activated() > 0 {
                telemetry::counter_add("campaign.spares_activated", ctl.spares_activated() as u64);
            }
            if ctl.lost_lanes() > 0 {
                telemetry::counter_add("campaign.lost_lanes", ctl.lost_lanes() as u64);
            }
            (
                ctl.spares_activated(),
                ctl.lost_lanes(),
                drained.len(),
                ctl.rate_fraction(),
            )
        }
        None => (0, 0, 0, 1.0),
    };

    Ok(CampaignOutcome {
        epochs,
        delivered_fraction: if epochs == 0 {
            0.0
        } else {
            delivered_sum / epochs as f64
        },
        availability: if epochs == 0 {
            0.0
        } else {
            available_epochs as f64 / epochs as f64
        },
        fault_events: campaign.events().len(),
        spares_activated,
        lost_lanes,
        transitions,
        final_rate_fraction,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(rate: f64, controller: bool) -> CampaignRunConfig {
        CampaignRunConfig {
            campaign: CampaignConfig {
                channels: 16,
                epochs: 400,
                faults_per_kilo_epoch: rate,
                max_duration: 32,
                permanent_fraction: 0.3,
            },
            controller,
            ..CampaignRunConfig::default()
        }
    }

    #[test]
    fn fault_free_campaign_delivers_everything() {
        let out = run_campaign(&cfg(0.0, true), 1).unwrap();
        assert!((out.delivered_fraction - 1.0).abs() < 1e-12, "{out:?}");
        assert_eq!(out.availability, 1.0);
        assert_eq!(out.fault_events, 0);
        assert_eq!(out.transitions, 0);
    }

    #[test]
    fn controller_beats_static_map_under_faults() {
        // Permanent-heavy fault mix: this is the regime sparing exists
        // for (dead channels stay dead under a static map).
        let mk = |controller| CampaignRunConfig {
            campaign: CampaignConfig {
                channels: 16,
                epochs: 400,
                faults_per_kilo_epoch: 3.0,
                max_duration: 32,
                permanent_fraction: 0.7,
            },
            controller,
            ..CampaignRunConfig::default()
        };
        let seed = 11;
        let with = run_campaign(&mk(true), seed).unwrap();
        let without = run_campaign(&mk(false), seed).unwrap();
        assert_eq!(with.fault_events, without.fault_events);
        assert!(with.fault_events > 0);
        assert!(
            with.delivered_fraction > without.delivered_fraction,
            "controller should win under permanent faults: {with:?} vs {without:?}"
        );
        assert!(with.spares_activated > 0, "{with:?}");
    }

    #[test]
    fn outcome_is_reproducible() {
        let a = run_campaign(&cfg(3.0, true), 5).unwrap();
        let b = run_campaign(&cfg(3.0, true), 5).unwrap();
        assert_eq!(a, b);
        let c = run_campaign(&cfg(3.0, true), 6).unwrap();
        assert_ne!(a, c);
    }
}
