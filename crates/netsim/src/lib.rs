//! `netsim` — a deterministic discrete-event network simulator.
//!
//! This crate is the substrate substituting for the paper's physical
//! testbed (two Japanese research sites joined by a 1.5 Mbps WAN, each
//! LAN behind a deny-based border firewall). It provides:
//!
//! * virtual time ([`time`]) and a deterministic event queue ([`event`]);
//! * an explicit network graph with sites, hosts, switches and links,
//!   plus latency-weighted shortest-path routing ([`topology`]);
//! * a sim-TCP connection layer with listeners, ephemeral ports,
//!   chunked store-and-forward transfers, per-link FIFO contention and
//!   firewall filtering at every site boundary ([`engine`], [`flow`]);
//! * an actor model for simulated processes ([`actor`]);
//! * seeded fault injection — probabilistic loss with transport
//!   retransmit, actor crash/restart ([`fault`]);
//! * statistics ([`stats`]) and protocol traces ([`trace`]).
//!
//! Every run is a pure function of `(topology, actors, seed)`; the
//! `deterministic_runs` test pins this property.
//!
//! ```
//! use netsim::prelude::*;
//!
//! let mut topo = Topology::new();
//! let site = topo.add_site("lab", None);
//! let a = topo.add_host("a", site);
//! let b = topo.add_host("b", site);
//! topo.add_link(a, b, SimDuration::from_micros(100), 12.5e6);
//!
//! struct Hello;
//! impl Actor for Hello {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_>) {
//!         ctx.listen(7).unwrap();
//!     }
//! }
//!
//! let mut sim = Simulator::new(topo, 42);
//! sim.spawn(b, Box::new(Hello));
//! sim.run();
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
pub mod actor;
pub mod engine;
pub mod event;
pub mod fault;
pub mod flow;
pub mod obs;
pub mod rng;
pub mod stats;
pub mod time;
pub mod topology;
pub mod trace;

/// Convenient glob import for simulation code.
pub mod prelude {
    pub use crate::actor::{Actor, ActorId, Delivery, FlowEvent, Payload, SendError};
    pub use crate::engine::{Ctx, Simulator};
    pub use crate::fault::{FaultPlan, RestartFactory};
    pub use crate::flow::{CloseReason, FlowId, PortError, RefuseReason};
    pub use crate::rng::SimRng;
    pub use crate::stats::Stats;
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::topology::{LinkId, NodeId, SiteId, Topology};
}

pub use prelude::*;
