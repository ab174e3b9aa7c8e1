//! `rmf` — Resource Manager beyond the Firewall (the paper's §2).
//!
//! RMF makes computing resources *inside* a deny-based firewall usable
//! from a Globus gatekeeper running *outside* it:
//!
//! * the **gatekeeper** + per-job **job managers** run outside
//!   ([`gatekeeper`]);
//! * a **resource allocator** daemon runs inside and picks resources
//!   ([`allocator`]);
//! * a **Q server** runs on every resource and forks job processes
//!   ([`qsys`]);
//! * a **Q client**, created by the job manager, bridges the two
//!   worlds; the firewall "must be configured to allow communications
//!   between the Q client and the resource allocator, and the Q client
//!   and the Q server" — fixed, well-known ports
//!   ([`allocator::ALLOCATOR_PORT`], [`qsys::QSERVER_PORT`]), built by
//!   [`rmf_site_policy`];
//! * inputs/outputs move as GASS files ([`gass`]);
//! * job requests are RSL expressions ([`rsl`]).
//!
//! The six-step execution flow of the paper's Figure 2 is recorded in
//! a [`job::FlowTrace`] and asserted by the integration tests.

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
pub mod allocator;
pub mod error;
pub mod exec;
pub mod gass;
pub mod gatekeeper;
pub mod job;
pub mod qsys;
pub mod rsl;
pub mod wire;

pub use allocator::{Allocation, AllocatorState, ResourceAllocator, ResourceInfo, ALLOCATOR_PORT};
pub use error::RmfError;
pub use exec::{ExecCtx, ExecRegistry};
pub use gass::{GassStore, GassUrl, StripedTransfer};
pub use gatekeeper::{job_status, submit_job, wait_job, Gatekeeper};
pub use job::{FlowTrace, JobId, JobState};
pub use qsys::{QClient, QServer, QSERVER_PORT};
pub use rsl::{JobRequest, RslError};
pub use wire::Record;

use firewall::{Direction, HostRef, HostSet, Policy, PortSet, Rule};

/// Build the paper's RMF-compatible site policy: deny-based inbound,
/// allow-based outbound, with exactly the fixed inbound holes the Q
/// system needs (allocator port + one Q server port per resource).
/// Each `(host, port)` in `holes` admits inbound TCP to that port of
/// that host alone; a deployment that runs the proxy too lists
/// `(inner host, nxport)` among them.
pub fn rmf_site_policy(name: &str, holes: &[(HostRef, u16)]) -> Policy {
    holes.iter().fold(Policy::typical(name), |p, (host, port)| {
        p.push(Rule::allow(Direction::Inbound).dst(HostSet::One(*host), PortSet::One(*port)))
    })
}
