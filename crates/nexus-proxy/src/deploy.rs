//! The paper's real-socket deployment (Fig. 5), built in one place:
//! site `rwcp` behind a deny-based firewall whose one inbound hole is
//! `nxport` on the inner server's host, the outer servers in site
//! `dmz`, site `etl` open. Every test, example, figure and chaos cell
//! that runs the proxy over [`VNet`] starts it here, so the deployment
//! is written once.
//!
//! Dropping a [`Deployment`] drops its daemons, and a dropped daemon
//! cuts its live relays and joins every thread it started (`wire.rs`):
//! once the drop returns, nothing of the deployment runs.

use crate::{InnerConfig, InnerServer, OuterConfig, OuterServer, ProxyEnv};
use firewall::vnet::VNet;
use firewall::Policy;
use std::io;

/// A running deployment: one inner server and one or more outer
/// servers (a fleet passes several configs) over one [`VNet`].
pub struct Deployment {
    pub net: VNet,
    inner: InnerServer,
    outers: Vec<OuterServer>,
    inner_cfg: InnerConfig,
    outer_cfgs: Vec<OuterConfig>,
}

impl Deployment {
    /// Build the sites, with the `inside` hosts in `rwcp` and the
    /// `outside` hosts in `etl`, and start the daemons: the inner server
    /// on its own host in `rwcp`, then each outer server, in order, on
    /// its own host in `dmz`, pointed at the inner server. Nothing else
    /// binds a port, so the ports a caller binds next are the ones it
    /// would get after starting the daemons by hand.
    pub fn start(
        inside: impl IntoIterator<Item = impl Into<String>>,
        outside: impl IntoIterator<Item = impl Into<String>>,
        inner: InnerConfig,
        outers: Vec<OuterConfig>,
    ) -> io::Result<Deployment> {
        let net = VNet::new();
        let [rwcp, dmz, etl] = ["rwcp", "dmz", "etl"].map(|site| net.add_site(site, None));
        for host in inside {
            net.add_host(host, rwcp);
        }
        let inner_ref = net.add_host(inner.host.clone(), rwcp);
        for o in &outers {
            net.add_host(o.host.clone(), dmz);
        }
        for host in outside {
            net.add_host(host, etl);
        }
        let policy = Policy::typical_with_nxport("rwcp", inner_ref, inner.nxport);
        net.reload_policy(rwcp, policy);
        let outer_cfgs: Vec<OuterConfig> = outers
            .into_iter()
            .map(|o| o.with_inner(inner.host.clone(), inner.nxport))
            .collect();
        Ok(Deployment {
            inner: InnerServer::start(net.clone(), inner.clone())?,
            outers: outer_cfgs
                .iter()
                .map(|cfg| OuterServer::start(net.clone(), cfg.clone()))
                .collect::<io::Result<_>>()?,
            net,
            inner_cfg: inner,
            outer_cfgs,
        })
    }

    /// [`start`](Self::start) with default configs: the inner server
    /// on `rwcp-inner` and one outer server on `rwcp-outer`.
    pub fn paper(
        inside: impl IntoIterator<Item = impl Into<String>>,
        outside: impl IntoIterator<Item = impl Into<String>>,
    ) -> io::Result<Deployment> {
        let outer = OuterConfig::new("rwcp-outer");
        Self::start(inside, outside, InnerConfig::new("rwcp-inner"), vec![outer])
    }

    pub fn inner(&self) -> &InnerServer {
        &self.inner
    }

    /// The first outer server: the only one outside a fleet.
    pub fn outer(&self) -> &OuterServer {
        &self.outers[0]
    }

    /// Every outer server, in the order their configs were given.
    pub fn outers(&self) -> &[OuterServer] {
        &self.outers
    }

    /// How an inside client reaches the world: through the first outer
    /// server.
    pub fn env(&self) -> ProxyEnv {
        let first = &self.outer_cfgs[0];
        ProxyEnv::via(first.host.clone(), first.params.ctrl_port)
    }

    /// Kill the inner server where it stands, as a killed process dies:
    /// its relays and control sessions are cut. It stays dead, its
    /// counters readable, until [`restart_inner`](Self::restart_inner).
    pub fn kill_inner(&self) {
        self.inner.daemon.tear_down();
    }

    /// Kill the inner server, if it still runs, and start a fresh one
    /// from the same config on the same host.
    pub fn restart_inner(&mut self) -> io::Result<()> {
        self.inner.daemon.tear_down();
        self.inner = InnerServer::start(self.net.clone(), self.inner_cfg.clone())?;
        Ok(())
    }

    /// [`kill_inner`](Self::kill_inner) for outer server `i`.
    // lint:allow(unused-pub) the fleet failover test kills a shard for good
    pub fn kill_outer(&self, i: usize) {
        self.outers[i].daemon.tear_down();
    }

    /// [`restart_inner`](Self::restart_inner) for outer server `i`.
    pub fn restart_outer(&mut self, i: usize) -> io::Result<()> {
        self.outers[i].daemon.tear_down();
        self.outers[i] = OuterServer::start(self.net.clone(), self.outer_cfgs[i].clone())?;
        Ok(())
    }
}
