//! The per-process Nexus context: which logical host we are, how we
//! reach the world (directly or via the Nexus Proxy), and which port
//! policy our listeners use.

use crate::endpoint::Endpoint;
use crate::ports::{PortAllocator, PortPolicy};
use crate::startpoint::{InProcExchange, Startpoint};
use firewall::vnet::VNet;
use nexus_proxy::{retry_blocking, ProxyEnv, RetryPolicy};
use std::io;
use std::sync::Arc;

/// Everything a Nexus process needs to communicate.
#[derive(Clone)]
pub struct NexusContext {
    net: VNet,
    host: String,
    env: ProxyEnv,
    ports: Arc<PortAllocator>,
    inproc: InProcExchange,
}

impl NexusContext {
    /// A context for a process on logical `host`, talking directly
    /// (no proxy) with dynamic ports — Globus 1.0 behaviour.
    pub fn direct(net: VNet, host: impl Into<String>) -> Self {
        NexusContext {
            net,
            host: host.into(),
            env: ProxyEnv::direct(),
            ports: Arc::new(PortAllocator::new(PortPolicy::Dynamic)),
            inproc: InProcExchange::new(),
        }
    }

    /// A context routed through the Nexus Proxy — the paper's patched
    /// Globus with `NEXUS_PROXY_OUTER_SERVER` set.
    pub fn via_proxy(net: VNet, host: impl Into<String>, outer: (impl Into<String>, u16)) -> Self {
        NexusContext {
            net,
            host: host.into(),
            env: ProxyEnv::via(outer.0, outer.1),
            ports: Arc::new(PortAllocator::new(PortPolicy::Dynamic)),
            inproc: InProcExchange::new(),
        }
    }

    /// Use a clamped listener port range — the Globus 1.1
    /// `TCP_MIN_PORT`/`TCP_MAX_PORT` alternative.
    pub fn with_port_policy(mut self, policy: PortPolicy) -> Self {
        self.ports = Arc::new(PortAllocator::new(policy));
        self
    }

    /// Share one in-proc exchange between contexts so co-located
    /// processes (threads) can bypass the socket stack, the way Nexus
    /// used shared-memory protocol modules within a node.
    pub fn with_shared_inproc(mut self, exchange: InProcExchange) -> Self {
        self.inproc = exchange;
        self
    }

    pub fn net(&self) -> &VNet {
        &self.net
    }

    pub fn host(&self) -> &str {
        &self.host
    }

    pub fn proxy_env(&self) -> &ProxyEnv {
        &self.env
    }

    pub fn port_policy(&self) -> PortPolicy {
        self.ports.policy()
    }

    pub(crate) fn inproc(&self) -> &InProcExchange {
        &self.inproc
    }

    /// Create a message endpoint (the passive side): binds a listener
    /// according to the port policy, registers with the proxy when
    /// configured, and starts the acceptor. The endpoint's
    /// `advertised()` address is what remote startpoints attach to.
    pub fn endpoint(&self) -> io::Result<Endpoint> {
        Endpoint::create(self)
    }

    /// Attach a startpoint to a remote endpoint (the active side).
    pub fn attach(&self, dst: (&str, u16)) -> io::Result<Startpoint> {
        Startpoint::attach(self, dst)
    }

    /// Attach with retries under `policy` — MPI-style startup where the
    /// peer's endpoint may not exist yet. Firewall denials are never
    /// transient: they fail at once.
    pub fn attach_retry(&self, dst: (&str, u16), policy: RetryPolicy) -> io::Result<Startpoint> {
        retry_blocking(
            policy,
            |_| self.attach(dst),
            |e: &io::Error| e.kind() != io::ErrorKind::PermissionDenied,
        )
    }

    pub(crate) fn next_listen_candidates(&self) -> Vec<u16> {
        self.ports.candidates(32)
    }
}
