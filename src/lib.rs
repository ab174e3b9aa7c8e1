//! # WACS — a firewall-compliant Globus-style wide-area cluster system
//!
//! A from-scratch Rust reproduction of *"Performance Evaluation of a
//! Firewall-compliant Globus-based Wide-area Cluster System"* (Tanaka,
//! Sato, Nakada, Sekiguchi, Hirano — HPDC 2000).
//!
//! The workspace implements the paper's full stack twice over:
//!
//! * **real sockets** — every daemon (outer/inner proxy servers,
//!   gatekeeper, resource allocator, Q servers, MPI ranks) runs as a
//!   thread over a firewall-*guarded* loopback network
//!   ([`firewall::vnet`]), so deny-based policies actually refuse the
//!   connections they would refuse on the wire;
//! * **virtual time** — a deterministic discrete-event simulator
//!   ([`netsim`]) with the paper's calibrated testbed
//!   ([`wacs_core::testbed`]) regenerates the wide-area measurements
//!   (Tables 2 and 4-6).
//!
//! ## Crates
//!
//! | crate | paper artifact |
//! |---|---|
//! | [`firewall`] | deny/allow-based border policies + guarded loopback network |
//! | [`netsim`] | the wide-area testbed substrate (DES) |
//! | [`nexus_proxy`] | **the Nexus Proxy** (outer/inner relay servers, §3) |
//! | [`nexus`] | Nexus-style startpoint/endpoint communication |
//! | [`rmf`] | **RMF** — Resource Manager beyond the Firewall (§2) |
//! | [`gridmpi`] | MPICH-G-style MPI over nexus |
//! | [`knapsack`] | the 0-1 knapsack master/slave workload (§4) |
//! | [`wacs_core`] | testbed description, calibration, experiment harness |
//!
//! ## Quick taste
//!
//! ```
//! use wacs::prelude::*;
//!
//! // A deny-in firewall admits nothing inbound…
//! let net = VNet::new();
//! let inside = net.add_site("inside", Some(Policy::typical("inside")));
//! let outside = net.add_site("outside", None);
//! net.add_host("server", inside);
//! net.add_host("client", outside);
//! let _listener = net.bind("server", 5000).unwrap();
//! assert!(net.dial("client", "server", 5000).is_err());
//! ```
//!
//! See `examples/` for the proxy, RMF, and wide-area MPI in action,
//! and `crates/bench`'s `paper` bin for every table and figure.

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
pub use firewall;
pub use gridmpi;
pub use knapsack;
pub use netsim;
pub use nexus;
pub use nexus_proxy;
pub use rmf;
pub use wacs_core;
pub use wacs_obs;

/// The most common imports for building a firewall-compliant cluster.
pub mod prelude {
    pub use firewall::vnet::VNet;
    pub use firewall::{Policy, NXPORT, OUTER_PORT};
    pub use gridmpi::{run_world, Comm, RankSpec};
    pub use knapsack::{Instance, ParParams};
    pub use nexus::{NexusContext, PortPolicy};
    pub use nexus_proxy::{
        nx_proxy_bind, nx_proxy_connect, Deployment, InnerConfig, InnerServer, OuterConfig,
        OuterServer, ProxyEnv,
    };
    pub use rmf::{
        rmf_site_policy, submit_job, wait_job, ExecRegistry, FlowTrace, GassStore, Gatekeeper,
        JobState, QServer, ResourceAllocator, ResourceInfo,
    };
    pub use wacs_core::{
        decompose, pingpong, run_knapsack, run_knapsack_with_faults, sequential_baseline,
        table2_report, Decomposition, FaultConfig, FaultRun, FirewallMode, KnapsackRun,
        Mode as PpMode, Pair as PpPair, PaperTestbed, System,
    };
    pub use wacs_obs::{Registry, RegistrySnapshot};
}
