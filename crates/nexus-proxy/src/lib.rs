//! `nexus-proxy` — the Nexus Proxy: TCP relaying beyond a deny-based
//! firewall (the paper's §3).
//!
//! The proxy consists of two daemons:
//!
//! * the **outer server**, outside the firewall, which accepts relay
//!   requests from inside clients (outbound connections are allowed)
//!   and from remote peers (it is publicly reachable);
//! * the **inner server**, inside the firewall, listening on the single
//!   opened inbound port (`nxport`, privileged), which completes
//!   *passive* relays by dialing the registered client on the LAN.
//!
//! Unlike SOCKS, the scheme supports **passive opens**: `NXProxyBind`
//! publishes a rendezvous port on the outer server, and arriving peers
//! are bridged peer → outer → inner → client. That is the property the
//! paper needed and SOCKS lacks.
//!
//! The servers' decisions live once, in the sans-IO [`core`]; two
//! drivers run them:
//!
//! * **real sockets** ([`outer`], [`inner`], [`client`]) — daemons as
//!   threads over the firewall-guarded loopback [`firewall::vnet`],
//!   deployed as the paper deploys them by [`Deployment`];
//! * **virtual time** ([`sim`]) — `netsim` actors with an explicit
//!   relay cost model, used for the wide-area experiments.

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
pub mod client;
#[cfg(test)]
mod client_conformance;
#[cfg(test)]
mod conformance;
pub mod core;
mod deploy;
pub mod frame;
pub mod hook;
pub mod inner;
pub mod liveness;
pub mod outer;
pub mod pool;
pub mod protocol;
mod pump;
pub mod shard;
pub mod sim;
pub mod stats;
pub mod stripe;
mod wire;
mod workers;

pub use client::{
    nx_proxy_bind, nx_proxy_connect, retry_blocking, FleetRouter, NxListener, ProxyEnv,
};
pub use core::{RetryPolicy, REPLY_DEADLINE};
pub use deploy::Deployment;
pub use frame::write_all_parts;
pub use hook::{DialHook, DialInterposer, DialLeg};
pub use inner::{InnerConfig, InnerServer};
pub use liveness::{
    AdmissionGate, AdmissionLimits, AdmissionReject, BreakerConfig, BreakerState, CircuitBreaker,
    HeartbeatConfig, HeartbeatMonitor,
};
pub use outer::{OuterConfig, OuterServer};
pub use pool::{BufferPool, PoolConfig};
pub use protocol::{CtrlMsg, Msg};
pub use shard::{
    bind_key, member_tag, GenerationWitness, ShardMap, ShardRoute, ShardRouter, ShardStats,
};
pub use stats::{ProxySnapshot, ProxyStats};
pub use stripe::{
    interposed_lane_dial, send_striped, Accept, Reassembler, SendReport, StripeError, StripeFrame,
    StripePlan, StripeReceiver, StripeStats, DEFAULT_CHUNK_BYTES, MAX_CHUNK_BYTES, MAX_STRIPES,
    MAX_STRIPE_FRAME,
};
pub use workers::{Workers, PARKED};
