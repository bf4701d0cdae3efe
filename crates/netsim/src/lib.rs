//! Datacenter fleet modeling for the Mosaic reproduction (experiment T2).
//!
//! The paper motivates Mosaic at fleet scale: most datacenter links are
//! short (intra-rack and in-row), exactly the 2–50 m band where Mosaic
//! wins, so replacing the optics there moves real megawatts and real
//! repair tickets. This crate builds that argument end to end:
//!
//! * [`topology`] — parametric 3-tier Clos/fat-tree link inventories with
//!   per-tier link-length mixes;
//! * [`assignment`] — technology-selection policies mapping each link to
//!   the cheapest candidate that reaches (per `mosaic::compare`);
//! * [`fleet`] — fleet-wide power, energy/bit and failure-rate rollups;
//! * [`failure_sim`] — a multi-year discrete-event failure/repair
//!   simulation over the whole fleet;
//! * [`hyperfleet`] — the sharded, event-sourced fleet engine: 10⁶+
//!   links with per-channel fault campaigns feeding per-link degrade
//!   controllers, memory bounded by shard size, kill/resume-safe.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assignment;
pub mod failure_sim;
pub mod fleet;
pub mod hyperfleet;
pub mod topology;

pub use assignment::{assign, Policy};
pub use failure_sim::ClassFailureProcess;
pub use fleet::FleetReport;
pub use hyperfleet::{FleetRollup, HyperClass, HyperFleetConfig, HyperFleetReport};
pub use topology::{ClosTopology, LinkClass, RailTopology};
