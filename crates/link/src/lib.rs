//! The Mosaic digital link layer: a protocol-agnostic gearbox.
//!
//! The paper's hardware contribution includes an FPGA gearbox that makes
//! hundreds of slow optical channels look like a standard pluggable to the
//! host: N fast host lanes are striped over M slow channels, survive
//! per-channel skew, and keep running when individual channels die by
//! remapping onto spare cores. This crate implements that logic as real,
//! executable code — the simulator pushes actual bytes through it.
//!
//! * [`prbs`] — PRBS7/15/31 pattern generators and error-counting checkers
//!   (the link's self-test and per-lane BER monitoring substrate);
//! * [`scrambler`] — the 64b/66b self-synchronizing scrambler
//!   (x⁵⁸ + x³⁹ + 1) for DC balance and transition density;
//! * [`pcs`] — 64b/66b block coding (sync headers, data/idle blocks);
//! * [`framing`] — CRC-32-framed transport so corruption is *detected*
//!   end-to-end, never silently passed up;
//! * [`striping`] — the word distributor and the alignment-marker based
//!   deskewer/reassembler;
//! * [`lanes`] — per-lane health monitors and the spare-channel map;
//! * [`degrade`] — the graceful-degradation controller (per-channel
//!   state machine driving sparing, remap, and rate back-off);
//! * [`gearbox`] — the assembled TX/RX pipeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod degrade;
pub mod framing;
pub mod gearbox;
pub mod lanes;
pub mod pcs;
pub mod prbs;
pub mod scrambler;
pub mod striping;

pub use degrade::{Cause, CtlState, DegradeConfig, DegradeController, EpochSummary, Transition};
pub use framing::{frame_into, parse_frame, Frame, FrameError};
pub use gearbox::{
    scan_frames, scan_frames_into, FrameSlot, Gearbox, RxBatch, RxReport, RxScratch, TxScratch,
};
pub use lanes::{FailureKind, LaneHealth, LaneMap, NoSpares};
pub use striping::{DeskewError, DeskewScratch, Deskewer, Distributor, LaneStream, StripeConfig};

/// The workspace error type, re-exported for link-layer callers.
pub use mosaic_units::{MosaicError, Result};
