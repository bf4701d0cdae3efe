//! Graceful-degradation controller: the link-layer policy that turns
//! per-channel BER telemetry into sparing, remapping, and rate back-off
//! decisions.
//!
//! Mosaic's reliability claims (C3/C6) depend on the link *riding
//! through* component faults rather than dying with them: a failed
//! microLED or fiber core is replaced by a hot spare invisibly to the
//! host, and when the spare pool runs dry the link sheds logical lanes —
//! degrading aggregate rate gracefully instead of going down. This
//! module implements that policy as a per-channel state machine:
//!
//! ```text
//! Active ──ber>suspect──▶ Suspect ──ber>quarantine or dwell──▶ Quarantined
//!   ▲                        │                                     │
//!   └──ber<clear (hyst.)─────┘                  spare available ───┤── no spare
//!                                                      ▼           ▼
//!                                                   Spared ──▶  Retired
//!                                                     (dwell)  (terminal)
//! ```
//!
//! Hysteresis (`clear_ber < suspect_ber`) prevents flapping between
//! Active and Suspect on a channel sitting near threshold. `Retired` is
//! terminal by construction — no match arm leaves it — which the
//! property tests pin down.
//!
//! The controller is deliberately telemetry-agnostic: it *records*
//! [`Transition`]s as plain data and the simulation layer (which owns
//! the process-global telemetry collector) drains them into counters.
//! The dependency points link → sim at the workspace level, so the link
//! crate cannot call the sim's telemetry directly.

use crate::lanes::{FailureKind, LaneHealth, LaneMap};

/// Controller state of one physical channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CtlState {
    /// In service (or idle in the spare pool), BER nominal.
    Active,
    /// BER crossed the suspect threshold; under observation.
    Suspect,
    /// Condemned this epoch; awaiting spare activation or retirement.
    Quarantined,
    /// Out of service, its logical lane carried by an activated spare.
    Spared,
    /// Permanently out of service. Terminal: no transition leaves it.
    Retired,
}

/// Why a transition fired (emitted alongside every [`Transition`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cause {
    /// Windowed BER rose above the suspect threshold.
    BerAboveSuspect,
    /// Windowed BER rose above the quarantine threshold.
    BerAboveQuarantine,
    /// Suspect dwell limit expired without the BER clearing.
    SuspectTimeout,
    /// BER stayed below the clear threshold long enough (hysteresis).
    BerCleared,
    /// A hard-dead report arrived from the fault model / loss-of-light.
    ExternalDead,
    /// A spare was activated and the lane remapped.
    SpareActivated,
    /// No spare remained; the logical lane was shed (rate back-off).
    SparesExhausted,
    /// A spared channel aged out of the recovery window.
    SparedAgedOut,
}

/// One state-machine transition, recorded as data for the sim layer to
/// drain into telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// Controller epoch the transition fired in.
    pub epoch: usize,
    /// Physical channel that transitioned.
    pub channel: usize,
    /// State before.
    pub from: CtlState,
    /// State after.
    pub to: CtlState,
    /// Why.
    pub cause: Cause,
}

/// Thresholds and dwell times of the degradation policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradeConfig {
    /// BER-monitor window size in bits.
    pub window_bits: u64,
    /// Completed windows of history the monitor retains.
    pub max_windows: usize,
    /// Enter Suspect above this windowed BER.
    pub suspect_ber: f64,
    /// Return Suspect → Active below this (must be `< suspect_ber`).
    pub clear_ber: f64,
    /// Escalate straight to Quarantined above this (`>= suspect_ber`).
    pub quarantine_ber: f64,
    /// Epochs a channel may dwell in Suspect before forced escalation.
    pub suspect_dwell_limit: usize,
    /// Consecutive clean epochs required to clear Suspect.
    pub clear_epochs: usize,
    /// Epochs a Spared channel lingers before it is Retired for good.
    pub spared_dwell_limit: usize,
}

impl Default for DegradeConfig {
    fn default() -> Self {
        // Conservative by default: only near-dead channels (monitor BER
        // ≳ 0.2, i.e. loss of light or gross misalignment) are condemned
        // immediately; elevated-but-live channels sit in Suspect long
        // enough for transient faults to clear, so spares are spent on
        // persistent damage, not storms.
        DegradeConfig {
            window_bits: 4096,
            max_windows: 4,
            suspect_ber: 1e-4,
            clear_ber: 1e-5,
            quarantine_ber: 0.2,
            suspect_dwell_limit: 128,
            clear_epochs: 4,
            spared_dwell_limit: 32,
        }
    }
}

impl DegradeConfig {
    /// Validate the threshold ordering and dwell parameters.
    pub fn validate(&self) -> mosaic_units::Result<()> {
        if !(self.clear_ber < self.suspect_ber && self.suspect_ber <= self.quarantine_ber) {
            return Err(mosaic_units::MosaicError::invalid_config(
                "degrade_thresholds",
                format!(
                    "need clear < suspect <= quarantine, got {} / {} / {}",
                    self.clear_ber, self.suspect_ber, self.quarantine_ber
                ),
            ));
        }
        if self.clear_epochs == 0 || self.suspect_dwell_limit == 0 {
            return Err(mosaic_units::MosaicError::invalid_config(
                "degrade_dwell",
                "clear_epochs and suspect_dwell_limit must be >= 1",
            ));
        }
        Ok(())
    }
}

#[derive(Debug, Clone)]
struct ChannelCtl {
    state: CtlState,
    health: LaneHealth,
    /// First epoch the channel spends wholly in its current state: the
    /// dwell at epoch `e` is `e + 1 - entered`. Set on every transition,
    /// so a channel that does not change costs no per-epoch write.
    entered: usize,
    /// Consecutive epochs below `clear_ber` while Suspect.
    clean_streak: usize,
    /// Hard-dead report pending for the next `step()`.
    pending_dead: bool,
}

/// A fixed-width set of channel indices, one bit per channel, sized at
/// construction for any channel count.
#[derive(Debug, Clone)]
struct ChannelSet {
    words: Vec<u64>,
}

impl ChannelSet {
    fn with_channels(n: usize) -> Self {
        ChannelSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Empty the set, then insert `0..n`.
    fn reset_to_prefix(&mut self, n: usize) {
        for (w, word) in self.words.iter_mut().enumerate() {
            let lo = w * 64;
            *word = match n.saturating_sub(lo) {
                0 => 0,
                k if k >= 64 => u64::MAX,
                k => (1 << k) - 1,
            };
        }
    }
}

/// Per-epoch roll-up returned by [`DegradeController::step`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochSummary {
    /// Epoch just processed.
    pub epoch: usize,
    /// Transitions fired this epoch.
    pub transitions: usize,
    /// Channels per state after the epoch, indexed
    /// Active/Suspect/Quarantined/Spared/Retired.
    pub by_state: [usize; 5],
    /// Fraction of the provisioned aggregate rate still delivered
    /// (`carried logical lanes / provisioned logical lanes`).
    pub rate_fraction: f64,
}

/// The per-link degradation controller.
///
/// [`DegradeController::step`] is event-driven: it visits only the
/// *hot* channels — those recorded, reported dead or swapped into
/// service since the last step, plus every Suspect and Spared channel
/// (their dwell and clean streak advance each epoch). Any other channel
/// is Active with an unchanged monitor and service status, or Retired,
/// so a full scan would fire nothing on it.
#[derive(Debug, Clone)]
pub struct DegradeController {
    cfg: DegradeConfig,
    map: LaneMap,
    channels: Vec<ChannelCtl>,
    /// Channels `step` must visit.
    hot: ChannelSet,
    /// Mirror of `map.assignment()` membership.
    in_service: ChannelSet,
    /// Channels per state, kept current by every transition.
    by_state: [usize; 5],
    transitions: Vec<Transition>,
    epoch: usize,
    provisioned_spares: usize,
    spares_activated: usize,
    lost_lanes: usize,
}

impl DegradeController {
    /// Controller over `logical` lanes carried on `physical` channels
    /// (the surplus is the spare pool), with the given policy.
    pub fn try_new(
        logical: usize,
        physical: usize,
        cfg: DegradeConfig,
    ) -> mosaic_units::Result<Self> {
        cfg.validate()?;
        let map = LaneMap::try_new(logical, physical)?;
        let mut channels = Vec::with_capacity(physical);
        for _ in 0..physical {
            channels.push(ChannelCtl {
                state: CtlState::Active,
                health: LaneHealth::try_new(cfg.window_bits, cfg.max_windows)?,
                entered: 0,
                clean_streak: 0,
                pending_dead: false,
            });
        }
        let mut in_service = ChannelSet::with_channels(physical);
        in_service.reset_to_prefix(logical);
        Ok(DegradeController {
            cfg,
            map,
            channels,
            hot: ChannelSet::with_channels(physical),
            in_service,
            by_state: [physical, 0, 0, 0, 0],
            transitions: Vec::new(),
            epoch: 0,
            provisioned_spares: physical - logical,
            spares_activated: 0,
            lost_lanes: 0,
        })
    }

    /// Feed one epoch's error observation for a physical channel.
    pub fn record(&mut self, physical: usize, bits: u64, errors: u64) {
        if let Some(ch) = self.channels.get_mut(physical) {
            ch.health.record(bits, errors);
            self.hot.insert(physical);
        }
    }

    /// Report a hard failure (loss of light / loss of lock) on a
    /// physical channel; processed at the next [`DegradeController::step`].
    pub fn mark_dead(&mut self, physical: usize) {
        if let Some(ch) = self.channels.get_mut(physical) {
            ch.pending_dead = true;
            self.hot.insert(physical);
        }
    }

    fn transition(&mut self, channel: usize, to: CtlState, cause: Cause) {
        let epoch = self.epoch;
        let ch = &mut self.channels[channel];
        self.transitions.push(Transition {
            epoch,
            channel,
            from: ch.state,
            to,
            cause,
        });
        self.by_state[ch.state as usize] -= 1;
        self.by_state[to as usize] += 1;
        ch.state = to;
        ch.entered = epoch + 1;
        ch.clean_streak = 0;
    }

    /// Process one controller epoch: evaluate every hot channel's
    /// monitor in ascending index order, fire transitions, activate
    /// spares / shed lanes for quarantined channels, and return the
    /// epoch roll-up.
    pub fn step(&mut self) -> EpochSummary {
        let epoch = self.epoch;
        let t0 = self.transitions.len();
        let mut quarantined = false;
        for w in 0..self.hot.words.len() {
            let mut bits = self.hot.words[w];
            let mut keep = bits;
            while bits != 0 {
                let bit = bits & bits.wrapping_neg();
                bits ^= bit;
                let idx = w * 64 + bit.trailing_zeros() as usize;
                match self.evaluate(idx) {
                    CtlState::Suspect | CtlState::Spared => {}
                    CtlState::Quarantined => quarantined = true,
                    CtlState::Active | CtlState::Retired => keep ^= bit,
                }
            }
            self.hot.words[w] = keep;
        }
        if quarantined {
            self.resolve_quarantines();
        }
        self.epoch += 1;
        EpochSummary {
            epoch,
            transitions: self.transitions.len() - t0,
            by_state: self.by_state,
            rate_fraction: self.rate_fraction(),
        }
    }

    /// Run one channel's state machine for this epoch and return the
    /// state it ends in. Quarantined is resolved by the caller.
    fn evaluate(&mut self, idx: usize) -> CtlState {
        let cfg = self.cfg;
        let in_service = self.in_service.contains(idx);
        let ch = &mut self.channels[idx];
        let dwell = self.epoch + 1 - ch.entered;
        let dead = std::mem::take(&mut ch.pending_dead);
        let fire = match ch.state {
            // Retired is terminal; Quarantined resolves in the same step
            // it was entered, so neither re-evaluates monitor state here.
            CtlState::Retired | CtlState::Quarantined => None,
            CtlState::Spared => (dwell >= cfg.spared_dwell_limit)
                .then_some((CtlState::Retired, Cause::SparedAgedOut)),
            CtlState::Active => {
                if dead {
                    Some((CtlState::Quarantined, Cause::ExternalDead))
                } else if in_service && ch.health.degraded(cfg.quarantine_ber) {
                    Some((CtlState::Quarantined, Cause::BerAboveQuarantine))
                } else if in_service && ch.health.degraded(cfg.suspect_ber) {
                    Some((CtlState::Suspect, Cause::BerAboveSuspect))
                } else {
                    None
                }
            }
            CtlState::Suspect => {
                let ber = ch.health.ber().unwrap_or(0.0);
                if dead {
                    Some((CtlState::Quarantined, Cause::ExternalDead))
                } else if ch.health.degraded(cfg.quarantine_ber) {
                    Some((CtlState::Quarantined, Cause::BerAboveQuarantine))
                } else if ber < cfg.clear_ber {
                    ch.clean_streak += 1;
                    (ch.clean_streak >= cfg.clear_epochs)
                        .then_some((CtlState::Active, Cause::BerCleared))
                } else {
                    ch.clean_streak = 0;
                    (dwell >= cfg.suspect_dwell_limit)
                        .then_some((CtlState::Quarantined, Cause::SuspectTimeout))
                }
            }
        };
        if let Some((to, cause)) = fire {
            self.transition(idx, to, cause);
        }
        self.channels[idx].state
    }

    /// Resolve this epoch's quarantines in ascending channel order:
    /// activate a spare or shed the lane. Only hot channels can be
    /// Quarantined.
    fn resolve_quarantines(&mut self) {
        for w in 0..self.hot.words.len() {
            let mut bits = self.hot.words[w];
            while bits != 0 {
                let bit = bits & bits.wrapping_neg();
                bits ^= bit;
                let idx = w * 64 + bit.trailing_zeros() as usize;
                if self.channels[idx].state != CtlState::Quarantined {
                    continue;
                }
                match self.map.fail_channel(idx, FailureKind::Degraded) {
                    Ok(Some(lane)) => {
                        self.spares_activated += 1;
                        // The spare is now in service: its monitor, fed
                        // while it idled in the pool, counts from the
                        // next step on.
                        let spare = self.map.physical_for(lane);
                        self.in_service.remove(idx);
                        self.in_service.insert(spare);
                        self.hot.insert(spare);
                        self.transition(idx, CtlState::Spared, Cause::SpareActivated);
                    }
                    Ok(None) => {
                        // Was an idle spare (or already retired): no remap
                        // happened, the channel just leaves the pool.
                        self.hot.remove(idx);
                        self.transition(idx, CtlState::Retired, Cause::ExternalDead);
                    }
                    Err(_no_spares) => {
                        self.lost_lanes += 1;
                        self.hot.remove(idx);
                        self.transition(idx, CtlState::Retired, Cause::SparesExhausted);
                    }
                }
            }
        }
    }

    /// Return the controller to its just-constructed state — all
    /// channels Active with clean monitors, full spare pool, empty
    /// transition log, epoch zero — without releasing any allocation.
    ///
    /// Hyperfleet rebuild tickets model a hardware swap: the replacement
    /// link starts fresh, but the simulation reuses the controller so
    /// the inner event loop stays allocation-free.
    pub fn reset(&mut self) {
        for ch in &mut self.channels {
            ch.state = CtlState::Active;
            ch.health.reset();
            ch.entered = 0;
            ch.clean_streak = 0;
            ch.pending_dead = false;
        }
        self.map.reset();
        self.hot.reset_to_prefix(0);
        self.in_service.reset_to_prefix(self.map.logical_lanes());
        self.by_state = [self.channels.len(), 0, 0, 0, 0];
        self.transitions.clear();
        self.epoch = 0;
        self.spares_activated = 0;
        self.lost_lanes = 0;
    }

    /// Current state of a physical channel (`Retired` for out-of-range
    /// indices, the conservative reading).
    pub fn state(&self, physical: usize) -> CtlState {
        self.channels
            .get(physical)
            .map(|c| c.state)
            .unwrap_or(CtlState::Retired)
    }

    /// Number of channels currently in `state`.
    pub fn channels_in(&self, state: CtlState) -> usize {
        self.by_state[state as usize]
    }

    /// The live logical-lane → physical-channel map.
    pub fn lane_map(&self) -> &LaneMap {
        &self.map
    }

    /// Spares activated so far (never exceeds the provisioned pool).
    pub fn spares_activated(&self) -> usize {
        self.spares_activated
    }

    /// Spare channels provisioned at construction.
    pub fn provisioned_spares(&self) -> usize {
        self.provisioned_spares
    }

    /// Logical lanes shed after spare exhaustion.
    pub fn lost_lanes(&self) -> usize {
        self.lost_lanes
    }

    /// Fraction of the provisioned aggregate rate still delivered.
    pub fn rate_fraction(&self) -> f64 {
        let logical = self.map.logical_lanes();
        if logical == 0 {
            return 0.0;
        }
        (logical - self.lost_lanes.min(logical)) as f64 / logical as f64
    }

    /// Epochs processed so far.
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// All transitions recorded so far.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Drain the transition log (the sim layer feeds these to telemetry).
    pub fn drain_transitions(&mut self) -> Vec<Transition> {
        std::mem::take(&mut self.transitions)
    }
}

/// Stable lowercase tag for a state (used in telemetry counter names).
pub fn state_tag(s: CtlState) -> &'static str {
    match s {
        CtlState::Active => "active",
        CtlState::Suspect => "suspect",
        CtlState::Quarantined => "quarantined",
        CtlState::Spared => "spared",
        CtlState::Retired => "retired",
    }
}

/// The full-scan controller the event-driven [`DegradeController::step`]
/// replaced, kept verbatim as the differential oracle: every epoch it
/// bumps every channel's dwell, rescans every channel against the lane
/// map and recounts the states.
#[cfg(test)]
mod reference {
    use super::{Cause, CtlState, DegradeConfig, EpochSummary, Transition};
    use crate::lanes::{FailureKind, LaneHealth, LaneMap};

    #[derive(Debug, Clone)]
    struct ChannelCtl {
        state: CtlState,
        health: LaneHealth,
        dwell: usize,
        clean_streak: usize,
        pending_dead: bool,
    }

    #[derive(Debug, Clone)]
    pub struct FullScanController {
        cfg: DegradeConfig,
        map: LaneMap,
        channels: Vec<ChannelCtl>,
        transitions: Vec<Transition>,
        epoch: usize,
        spares_activated: usize,
        lost_lanes: usize,
    }

    impl FullScanController {
        pub fn try_new(
            logical: usize,
            physical: usize,
            cfg: DegradeConfig,
        ) -> mosaic_units::Result<Self> {
            cfg.validate()?;
            let map = LaneMap::try_new(logical, physical)?;
            let mut channels = Vec::with_capacity(physical);
            for _ in 0..physical {
                channels.push(ChannelCtl {
                    state: CtlState::Active,
                    health: LaneHealth::try_new(cfg.window_bits, cfg.max_windows)?,
                    dwell: 0,
                    clean_streak: 0,
                    pending_dead: false,
                });
            }
            Ok(FullScanController {
                cfg,
                map,
                channels,
                transitions: Vec::new(),
                epoch: 0,
                spares_activated: 0,
                lost_lanes: 0,
            })
        }

        pub fn record(&mut self, physical: usize, bits: u64, errors: u64) {
            if let Some(ch) = self.channels.get_mut(physical) {
                ch.health.record(bits, errors);
            }
        }

        pub fn mark_dead(&mut self, physical: usize) {
            if let Some(ch) = self.channels.get_mut(physical) {
                ch.pending_dead = true;
            }
        }

        fn transition(
            transitions: &mut Vec<Transition>,
            epoch: usize,
            channel: usize,
            ch: &mut ChannelCtl,
            to: CtlState,
            cause: Cause,
        ) {
            transitions.push(Transition {
                epoch,
                channel,
                from: ch.state,
                to,
                cause,
            });
            ch.state = to;
            ch.dwell = 0;
            ch.clean_streak = 0;
        }

        pub fn step(&mut self) -> EpochSummary {
            let epoch = self.epoch;
            let t0 = self.transitions.len();
            for idx in 0..self.channels.len() {
                let in_service = self.map.assignment().contains(&idx);
                let ch = &mut self.channels[idx];
                ch.dwell += 1;
                let dead = std::mem::take(&mut ch.pending_dead);
                let t = &mut self.transitions;
                match ch.state {
                    CtlState::Retired | CtlState::Quarantined => {}
                    CtlState::Spared => {
                        if ch.dwell >= self.cfg.spared_dwell_limit {
                            let to = CtlState::Retired;
                            Self::transition(t, epoch, idx, ch, to, Cause::SparedAgedOut);
                        }
                    }
                    CtlState::Active => {
                        let q = CtlState::Quarantined;
                        if dead {
                            Self::transition(t, epoch, idx, ch, q, Cause::ExternalDead);
                        } else if in_service && ch.health.degraded(self.cfg.quarantine_ber) {
                            Self::transition(t, epoch, idx, ch, q, Cause::BerAboveQuarantine);
                        } else if in_service && ch.health.degraded(self.cfg.suspect_ber) {
                            let to = CtlState::Suspect;
                            Self::transition(t, epoch, idx, ch, to, Cause::BerAboveSuspect);
                        }
                    }
                    CtlState::Suspect => {
                        let ber = ch.health.ber().unwrap_or(0.0);
                        if dead || ch.health.degraded(self.cfg.quarantine_ber) {
                            let cause = if dead {
                                Cause::ExternalDead
                            } else {
                                Cause::BerAboveQuarantine
                            };
                            Self::transition(t, epoch, idx, ch, CtlState::Quarantined, cause);
                        } else if ber < self.cfg.clear_ber {
                            ch.clean_streak += 1;
                            if ch.clean_streak >= self.cfg.clear_epochs {
                                let to = CtlState::Active;
                                Self::transition(t, epoch, idx, ch, to, Cause::BerCleared);
                            }
                        } else {
                            ch.clean_streak = 0;
                            if ch.dwell >= self.cfg.suspect_dwell_limit {
                                let to = CtlState::Quarantined;
                                Self::transition(t, epoch, idx, ch, to, Cause::SuspectTimeout);
                            }
                        }
                    }
                }
            }
            for idx in 0..self.channels.len() {
                if self.channels[idx].state != CtlState::Quarantined {
                    continue;
                }
                let (to, cause) = match self.map.fail_channel(idx, FailureKind::Degraded) {
                    Ok(Some(_lane)) => {
                        self.spares_activated += 1;
                        (CtlState::Spared, Cause::SpareActivated)
                    }
                    Ok(None) => (CtlState::Retired, Cause::ExternalDead),
                    Err(_no_spares) => {
                        self.lost_lanes += 1;
                        (CtlState::Retired, Cause::SparesExhausted)
                    }
                };
                let ch = &mut self.channels[idx];
                Self::transition(&mut self.transitions, epoch, idx, ch, to, cause);
            }
            self.epoch += 1;
            let mut by_state = [0usize; 5];
            for ch in &self.channels {
                by_state[ch.state as usize] += 1;
            }
            EpochSummary {
                epoch,
                transitions: self.transitions.len() - t0,
                by_state,
                rate_fraction: self.rate_fraction(),
            }
        }

        pub fn reset(&mut self) {
            for ch in &mut self.channels {
                ch.state = CtlState::Active;
                ch.health.reset();
                ch.dwell = 0;
                ch.clean_streak = 0;
                ch.pending_dead = false;
            }
            self.map.reset();
            self.transitions.clear();
            self.epoch = 0;
            self.spares_activated = 0;
            self.lost_lanes = 0;
        }

        pub fn state(&self, physical: usize) -> CtlState {
            self.channels
                .get(physical)
                .map(|c| c.state)
                .unwrap_or(CtlState::Retired)
        }

        pub fn lane_map(&self) -> &LaneMap {
            &self.map
        }

        pub fn spares_activated(&self) -> usize {
            self.spares_activated
        }

        pub fn lost_lanes(&self) -> usize {
            self.lost_lanes
        }

        pub fn rate_fraction(&self) -> f64 {
            let logical = self.map.logical_lanes();
            if logical == 0 {
                return 0.0;
            }
            (logical - self.lost_lanes.min(logical)) as f64 / logical as f64
        }

        pub fn transitions(&self) -> &[Transition] {
            &self.transitions
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn quick_cfg() -> DegradeConfig {
        DegradeConfig {
            window_bits: 1000,
            max_windows: 2,
            suspect_ber: 1e-3,
            clear_ber: 1e-4,
            quarantine_ber: 1e-1,
            suspect_dwell_limit: 3,
            clear_epochs: 2,
            spared_dwell_limit: 4,
        }
    }

    #[test]
    fn config_validation_rejects_bad_ordering() {
        let bad = DegradeConfig {
            clear_ber: 1e-2,
            suspect_ber: 1e-3,
            ..DegradeConfig::default()
        };
        assert!(bad.validate().is_err());
        assert!(DegradeConfig::default().validate().is_ok());
    }

    #[test]
    fn healthy_channels_stay_active() {
        let mut ctl = DegradeController::try_new(4, 6, quick_cfg()).unwrap();
        for _ in 0..10 {
            for ch in 0..6 {
                ctl.record(ch, 2000, 0);
            }
            ctl.step();
        }
        assert!(ctl.transitions().is_empty());
        assert_eq!(ctl.rate_fraction(), 1.0);
    }

    #[test]
    fn degraded_channel_walks_to_spared() {
        let mut ctl = DegradeController::try_new(4, 6, quick_cfg()).unwrap();
        // Channel 1 runs at BER 1e-2: above suspect, below quarantine.
        for _ in 0..8 {
            for ch in 0..6 {
                let errors = if ch == 1 { 20 } else { 0 };
                ctl.record(ch, 2000, errors);
            }
            ctl.step();
            if ctl.state(1) == CtlState::Spared {
                break;
            }
        }
        assert_eq!(ctl.state(1), CtlState::Spared);
        assert_eq!(ctl.spares_activated(), 1);
        assert!(!ctl.lane_map().assignment().contains(&1));
        // The walk went Active → Suspect → Quarantined → Spared.
        let path: Vec<CtlState> = ctl
            .transitions()
            .iter()
            .filter(|t| t.channel == 1)
            .map(|t| t.to)
            .collect();
        assert_eq!(
            path,
            vec![CtlState::Suspect, CtlState::Quarantined, CtlState::Spared]
        );
    }

    #[test]
    fn hysteresis_clears_a_recovering_channel() {
        let mut ctl = DegradeController::try_new(2, 3, quick_cfg()).unwrap();
        // One bad burst puts channel 0 in Suspect...
        ctl.record(0, 2000, 10);
        ctl.record(1, 2000, 0);
        ctl.step();
        assert_eq!(ctl.state(0), CtlState::Suspect);
        // ...then clean traffic dilutes the windowed BER below clear_ber
        // and the channel returns to Active after clear_epochs.
        for _ in 0..20 {
            ctl.record(0, 50_000, 0);
            ctl.record(1, 2000, 0);
            ctl.step();
            if ctl.state(0) == CtlState::Active {
                break;
            }
        }
        assert_eq!(ctl.state(0), CtlState::Active);
        assert_eq!(ctl.spares_activated(), 0);
    }

    #[test]
    fn spare_exhaustion_sheds_lanes_and_backs_off_rate() {
        let mut ctl = DegradeController::try_new(4, 5, quick_cfg()).unwrap();
        // Kill three channels outright: 1 spare absorbs the first, the
        // other two shed lanes.
        for ch in [0, 1, 2] {
            ctl.mark_dead(ch);
        }
        ctl.step();
        assert_eq!(ctl.spares_activated(), 1);
        assert_eq!(ctl.lost_lanes(), 2);
        assert!((ctl.rate_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn spared_channels_age_into_retired() {
        let mut ctl = DegradeController::try_new(2, 4, quick_cfg()).unwrap();
        ctl.mark_dead(0);
        ctl.step();
        assert_eq!(ctl.state(0), CtlState::Spared);
        for _ in 0..quick_cfg().spared_dwell_limit + 1 {
            ctl.step();
        }
        assert_eq!(ctl.state(0), CtlState::Retired);
    }

    #[test]
    fn reset_restores_pristine_state() {
        let fresh = DegradeController::try_new(4, 6, quick_cfg()).unwrap();
        let mut ctl = fresh.clone();
        // Abuse: kill enough channels to spare and shed.
        for ch in [0, 1, 2, 3] {
            ctl.mark_dead(ch);
        }
        ctl.step();
        assert!(ctl.spares_activated() > 0);
        assert!(!ctl.transitions().is_empty());
        ctl.reset();
        assert_eq!(ctl.epoch(), 0);
        assert_eq!(ctl.spares_activated(), 0);
        assert_eq!(ctl.lost_lanes(), 0);
        assert!(ctl.transitions().is_empty());
        assert_eq!(ctl.lane_map(), fresh.lane_map());
        for ch in 0..6 {
            assert_eq!(ctl.state(ch), CtlState::Active);
        }
        // A reset controller behaves exactly like a fresh one.
        let mut again = fresh.clone();
        ctl.mark_dead(2);
        again.mark_dead(2);
        let a = ctl.step();
        let b = again.step();
        assert_eq!(a, b);
        assert_eq!(ctl.transitions(), again.transitions());
    }

    #[test]
    fn state_counts_track_transitions() {
        let mut ctl = DegradeController::try_new(70, 100, quick_cfg()).unwrap();
        assert_eq!(ctl.channels_in(CtlState::Active), 100);
        ctl.mark_dead(3);
        ctl.mark_dead(80);
        ctl.record(65, 2000, 20);
        ctl.step();
        // 3 swapped for a spare, spare 80 died in the pool, 65 is Suspect.
        assert_eq!(ctl.channels_in(CtlState::Spared), 1);
        assert_eq!(ctl.channels_in(CtlState::Retired), 1);
        assert_eq!(ctl.channels_in(CtlState::Suspect), 1);
        assert_eq!(ctl.channels_in(CtlState::Active), 97);
        assert_eq!(ctl.state(65), CtlState::Suspect);
        ctl.reset();
        assert_eq!(ctl.channels_in(CtlState::Active), 100);
    }

    #[test]
    fn swapped_in_spare_is_judged_on_its_pool_history() {
        // Spare 5 degrades while idle: out of service, so it stays Active.
        let mut ctl = DegradeController::try_new(4, 6, quick_cfg()).unwrap();
        ctl.record(5, 2000, 20);
        ctl.step();
        assert_eq!(ctl.state(5), CtlState::Active);
        // Channel 0 dies and spare 5 takes its lane; with no new record,
        // the next step still sees 5's bad window and suspects it.
        ctl.mark_dead(0);
        ctl.step();
        assert_eq!(ctl.lane_map().physical_for(0), 5);
        ctl.step();
        assert_eq!(ctl.state(5), CtlState::Suspect);
    }

    fn random_cfg(window_bits: u64, max_windows: usize, knobs: u64) -> DegradeConfig {
        let unit = |shift: u32| ((knobs >> shift) & 0xFF) as f64 / 255.0;
        let clear_ber = 10f64.powf(-1.0 - 5.0 * unit(0));
        let suspect_ber = clear_ber * 10f64.powf(0.05 + 2.0 * unit(8));
        DegradeConfig {
            window_bits,
            max_windows,
            suspect_ber,
            clear_ber,
            quarantine_ber: suspect_ber * 10f64.powf(2.0 * unit(16)),
            suspect_dwell_limit: 1 + ((knobs >> 24) % 10) as usize,
            clear_epochs: 1 + ((knobs >> 32) % 6) as usize,
            spared_dwell_limit: ((knobs >> 40) % 9) as usize,
        }
    }

    /// Errors for `bits` at a BER of about `2^-k` (none for `k >= 20`).
    fn errors_at(bits: u64, k: u64) -> u64 {
        if k >= 20 {
            0
        } else {
            bits >> k
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// The event-driven step is the full scan, epoch for epoch: same
        /// summaries, transition log, states, lane map and counters over
        /// random geometries (past one bitset word), policies and
        /// record / mark_dead / step / reset scripts, out-of-range
        /// channels included.
        #[test]
        fn event_driven_step_matches_full_scan(
            physical in 1usize..131,
            spare_seed in 0usize..1000,
            window_bits in 1u64..3000,
            max_windows in 1usize..5,
            knobs: u64,
            // Packed op: low 6 bits = kind, then channel, bits, BER shift.
            script in proptest::collection::vec(any::<u64>(), 1..300),
        ) {
            let logical = physical - spare_seed % (physical.min(12) + 1);
            let cfg = random_cfg(window_bits, max_windows, knobs);
            prop_assert!(cfg.validate().is_ok());
            let mut ctl = DegradeController::try_new(logical, physical, cfg).unwrap();
            let mut oracle = reference::FullScanController::try_new(logical, physical, cfg).unwrap();
            for word in script {
                let ch = ((word >> 8) & 0xFF) as usize % (physical + 3);
                let bits = (word >> 16) & 0xFFF;
                let k = (word >> 28) & 31;
                match word & 63 {
                    0..=23 => {
                        let errors = errors_at(bits, k);
                        ctl.record(ch, bits, errors);
                        oracle.record(ch, bits, errors);
                    }
                    24..=27 => {
                        // Every channel reports, each at its own BER.
                        for c in 0..physical {
                            let errors = errors_at(bits, (k + c as u64 * 7) % 32);
                            ctl.record(c, bits, errors);
                            oracle.record(c, bits, errors);
                        }
                    }
                    28..=30 => {
                        ctl.mark_dead(ch);
                        oracle.mark_dead(ch);
                    }
                    31 => {
                        ctl.reset();
                        oracle.reset();
                    }
                    _ => prop_assert_eq!(ctl.step(), oracle.step()),
                }
                prop_assert_eq!(ctl.transitions(), oracle.transitions());
                for c in 0..physical + 2 {
                    prop_assert_eq!(ctl.state(c), oracle.state(c), "channel {}", c);
                }
                prop_assert_eq!(ctl.lane_map(), oracle.lane_map());
                prop_assert_eq!(ctl.spares_activated(), oracle.spares_activated());
                prop_assert_eq!(ctl.lost_lanes(), oracle.lost_lanes());
                prop_assert_eq!(ctl.rate_fraction().to_bits(), oracle.rate_fraction().to_bits());
            }
        }
    }

    proptest! {
        /// ISSUE acceptance: the machine never transitions out of
        /// Retired, and never activates more spares than provisioned.
        #[test]
        fn retired_is_terminal_and_spares_bounded(
            logical in 1usize..10,
            extra in 0usize..6,
            // Packed abuse script: low byte = channel, next byte =
            // errors, bit 16 = hard-kill (the vendored proptest stub has
            // no tuple strategies).
            script in proptest::collection::vec(0u64..(1u64 << 17), 1..120),
        ) {
            let physical = logical + extra;
            let mut ctl =
                DegradeController::try_new(logical, physical, quick_cfg()).unwrap();
            for word in script {
                let ch = (word & 0xFF) as usize % physical;
                let errors = (word >> 8) & 0xFF;
                let kill = (word >> 16) & 1 == 1;
                ctl.record(ch, 2000, errors);
                if kill {
                    ctl.mark_dead(ch);
                }
                ctl.step();
            }
            for t in ctl.transitions() {
                prop_assert_ne!(t.from, CtlState::Retired, "left Retired: {:?}", t);
            }
            prop_assert!(ctl.spares_activated() <= ctl.provisioned_spares());
            // Lane map invariants survive arbitrary abuse.
            let mut a = ctl.lane_map().assignment().to_vec();
            a.sort_unstable();
            let n = a.len();
            a.dedup();
            prop_assert_eq!(a.len(), n, "duplicate assignment");
        }
    }
}
