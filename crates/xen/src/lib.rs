//! # cloudchar-xen
//!
//! Xen-style virtualization substrate for the `cloudchar` testbed,
//! modelling the paper's Xen 3.1.2 deployment: a driver domain (dom0)
//! owning the physical devices, guest domains with up to two VCPUs and
//! 2 GB of RAM, the credit scheduler dividing physical cores among
//! domains, and paravirtualized split-driver disk and network paths that
//! charge dom0 CPU time and amplify physical device traffic.
//!
//! The observable consequences — dom0 performing work beyond the guests'
//! own demands, guests over-reporting CPU cycles, physical disk traffic
//! exceeding virtual traffic — are exactly the effects Sections 4.1 and
//! 4.2 of the paper measure.

#![warn(missing_docs)]

pub mod domain;
pub mod hypervisor;
pub mod overhead;
pub mod sched;

pub use domain::{DomId, Domain, DomainConfig, VbdStats, VifStats};
pub use hypervisor::{Completion, Hypervisor, NetDirection};
pub use overhead::OverheadModel;
pub use sched::{Allocation, CreditScheduler, Demand, Quantum, SchedParams};
