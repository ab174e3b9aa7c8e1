//! The paper's experimental environment (Figure 5) as data, plus the
//! four Table 3 systems.
//!
//! ```text
//!   RWCP site (deny-in firewall)          DMZ             ETL site (open)
//!   ┌──────────────────────────┐   ┌──────────────┐   ┌──────────────────┐
//!   │ rwcp-sun (E450, 4 CPU)   │   │  rwcp-outer  │   │ etl-sun (E450,6) │
//!   │ compas0..7 (PPro SMP)    ├───┤  (Ultra 80)  ├───┤ etl-o2k (O2K,16) │
//!   │ rwcp-inner (E450, 2 CPU) │gw │              │IMnet 1.5Mbps        │
//!   └──────────────────────────┘   └──────────────┘   └──────────────────┘
//! ```

use crate::calibration as cal;
use firewall::Policy;
use netsim::engine::Simulator;
use netsim::prelude::*;
use nexus_proxy::sim::{RelayModel, SimInnerServer, SimOuterServer, SimProxyEnv};
use wacs_obs::Registry;

/// Number of COMPaS nodes (8 quad-processor Pentium Pro SMPs).
pub const COMPAS_NODES: usize = 8;

/// The nxport hole used by the proxy pair.
pub const NXPORT: u16 = firewall::NXPORT;

/// Control port of the outer server.
pub const OUTER_CTRL_PORT: u16 = firewall::OUTER_PORT;

/// The built testbed: topology plus the node ids experiments need.
#[derive(Debug, Clone)]
pub struct PaperTestbed {
    pub topo: Topology,
    pub rwcp_site: SiteId,
    pub dmz_site: SiteId,
    pub etl_site: SiteId,
    pub rwcp_sun: NodeId,
    pub compas: Vec<NodeId>,
    pub rwcp_inner: NodeId,
    pub rwcp_outer: NodeId,
    pub etl_sun: NodeId,
    pub etl_o2k: NodeId,
}

/// Firewall condition for a build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FirewallMode {
    /// The production configuration: deny-in with only the nxport hole.
    DenyInWithNxport,
    /// "We have temporarily changed the configuration of the firewall
    /// to enable direct communication" — the measurement baseline.
    TemporarilyOpen,
    /// The Globus 1.1 alternative the paper critiques: open an inbound
    /// listener port range on every inside host
    /// (`TCP_MIN_PORT`/`TCP_MAX_PORT`). Fast, but the exposure is the
    /// whole range.
    PortRangeOpen { lo: u16, hi: u16 },
}

impl PaperTestbed {
    /// Build the Figure 5 environment.
    pub fn build(mode: FirewallMode) -> PaperTestbed {
        let mut topo = Topology::new();
        let rwcp_site = topo.add_site("RWCP", None); // policy patched below
        let dmz_site = topo.add_site("RWCP-DMZ", None);
        let etl_site = topo.add_site("ETL", None);

        let rwcp_sun = topo.add_host_with_cpu("rwcp-sun", rwcp_site, cal::cpu::SUN_E450, 4);
        let compas: Vec<NodeId> = (0..COMPAS_NODES)
            .map(|i| {
                topo.add_host_with_cpu(format!("compas{i}"), rwcp_site, cal::cpu::PENTIUM_PRO, 4)
            })
            .collect();
        let rwcp_inner = topo.add_host_with_cpu("rwcp-inner", rwcp_site, cal::cpu::SUN_E450, 2);
        let rwcp_sw = topo.add_switch("rwcp-sw", rwcp_site);
        let rwcp_gw = topo.add_switch("rwcp-gw", dmz_site);
        let rwcp_outer = topo.add_host_with_cpu("rwcp-outer", dmz_site, cal::cpu::SUN_E450, 2);
        let etl_sw = topo.add_switch("etl-sw", etl_site);
        let etl_sun = topo.add_host_with_cpu("etl-sun", etl_site, cal::cpu::SUN_E450, 6);
        let etl_o2k = topo.add_host_with_cpu("etl-o2k", etl_site, cal::cpu::O2K_R10K, 16);

        let us = SimDuration::from_micros;
        let lan_lat = us(cal::LAN_HOP_LATENCY_US);
        topo.add_link(rwcp_sun, rwcp_sw, lan_lat, cal::LAN_BANDWIDTH);
        for &c in &compas {
            topo.add_link(c, rwcp_sw, lan_lat, cal::LAN_BANDWIDTH);
        }
        topo.add_link(rwcp_inner, rwcp_sw, lan_lat, cal::LAN_BANDWIDTH);
        topo.add_link(rwcp_sw, rwcp_gw, lan_lat, cal::LAN_BANDWIDTH);
        topo.add_link(rwcp_outer, rwcp_gw, lan_lat, cal::LAN_BANDWIDTH);
        topo.add_link(
            rwcp_gw,
            etl_sw,
            SimDuration::from_millis(cal::WAN_LATENCY_MS) + us(cal::WAN_LATENCY_EXTRA_US),
            cal::WAN_BANDWIDTH,
        );
        topo.add_link(etl_sw, etl_sun, lan_lat, cal::LAN_BANDWIDTH);
        topo.add_link(etl_sw, etl_o2k, lan_lat, cal::LAN_BANDWIDTH);

        topo.sites[rwcp_site.0 as usize].policy = match mode {
            FirewallMode::DenyInWithNxport => {
                Some(Policy::typical_with_nxport("RWCP", rwcp_inner.0, NXPORT))
            }
            FirewallMode::TemporarilyOpen => None,
            FirewallMode::PortRangeOpen { lo, hi } => {
                Some(Policy::typical_with_port_range("RWCP", lo, hi))
            }
        };

        PaperTestbed {
            topo,
            rwcp_site,
            dmz_site,
            etl_site,
            rwcp_sun,
            compas,
            rwcp_inner,
            rwcp_outer,
            etl_sun,
            etl_o2k,
        }
    }

    /// ASCII rendering of the environment (regenerates Figure 5 as a
    /// validated description: names, CPUs, links, policies).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Experimental environment (paper Fig. 5)\n");
        for (i, site) in self.topo.sites.iter().enumerate() {
            let fw = match &site.policy {
                Some(p) => format!(
                    "firewall: {} (inbound holes: {})",
                    p.name,
                    p.inbound_exposure()
                ),
                None => "no firewall".to_string(),
            };
            out.push_str(&format!("site {} — {fw}\n", site.name));
            for n in &self.topo.nodes {
                if n.site.0 as usize == i {
                    match n.kind {
                        netsim::topology::NodeKind::Host => out.push_str(&format!(
                            "  host {:<12} {:>2} cpu × {:>7.0} nodes/s\n",
                            n.name, n.cpus, n.cpu_rate
                        )),
                        netsim::topology::NodeKind::Switch => {
                            out.push_str(&format!("  switch {}\n", n.name))
                        }
                    }
                }
            }
        }
        out.push_str("links:\n");
        for l in &self.topo.links {
            out.push_str(&format!(
                "  {:<24} {:>9} lat, {:>10.0} B/s\n",
                l.name, l.latency, l.bandwidth
            ));
        }
        out
    }
}

/// The one virtual-time deployment every paper experiment runs on: the
/// Figure 5 testbed under a firewall mode, a seeded simulator recording
/// into a registry, and, under [`FirewallMode::DenyInWithNxport`], the
/// relay pair (outer server on `rwcp-outer`, inner on `rwcp-inner`).
pub struct PaperWorld {
    pub tb: PaperTestbed,
    pub sim: Simulator,
    /// The outer server's actor, when the relay pair is deployed.
    pub outer: Option<ActorId>,
    model: RelayModel,
    registry: Registry,
}

impl PaperWorld {
    /// Build the world. The relay pair is spawned before anything else,
    /// so its actor ids are the same in every experiment.
    pub fn build(mode: FirewallMode, seed: u64, model: RelayModel, registry: Registry) -> Self {
        let tb = PaperTestbed::build(mode);
        let mut sim = Simulator::new(tb.topo.clone(), seed);
        sim.install_obs(registry.clone());
        let mut world = PaperWorld {
            tb,
            sim,
            outer: None,
            model,
            registry,
        };
        if mode == FirewallMode::DenyInWithNxport {
            let outer = world.outer_factory()();
            world.outer = Some(world.sim.spawn(world.tb.rwcp_outer, outer));
            let inner = SimInnerServer::new(NXPORT, model).with_obs(&world.registry);
            world.sim.spawn(world.tb.rwcp_inner, Box::new(inner));
        }
        world
    }

    /// Builds a fresh outer server, as `FaultPlan::crash_restart` wants
    /// for the revived actor.
    pub fn outer_factory(&self) -> impl FnMut() -> Box<dyn Actor> + 'static {
        let (inner, model, registry) = (
            (self.tb.rwcp_inner, NXPORT),
            self.model,
            self.registry.clone(),
        );
        move || {
            Box::new(SimOuterServer::new(OUTER_CTRL_PORT, Some(inner), model).with_obs(&registry))
        }
    }

    /// How an actor on `host` reaches its peers: an RWCP host goes via
    /// the outer server when the pair is deployed; every other host
    /// (and every host without the pair) dials directly.
    pub fn env(&self, host: NodeId) -> SimProxyEnv {
        if self.outer.is_some() && self.tb.topo.site_of(host) == self.tb.rwcp_site {
            SimProxyEnv::via((self.tb.rwcp_outer, OUTER_CTRL_PORT))
        } else {
            SimProxyEnv::direct()
        }
    }
}

/// One rank placement: which host, and which Table 3 cluster label it
/// reports under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankPlace {
    pub host: NodeId,
    pub group: String,
}

/// The four systems of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// "8 processors, 1 processor on each node" of COMPaS.
    Compas,
    /// "8 processors on ETL-O2K."
    EtlO2k,
    /// "RWCP-Sun + COMPaS: total 12 processors, 4 on RWCP-Sun and 8 on
    /// COMPaS."
    LocalArea,
    /// "RWCP-Sun + COMPaS + ETL-O2K: total 20 processors."
    WideArea,
}

impl System {
    pub const ALL: [System; 4] = [
        System::Compas,
        System::EtlO2k,
        System::LocalArea,
        System::WideArea,
    ];

    pub fn name(self) -> &'static str {
        match self {
            System::Compas => "COMPaS",
            System::EtlO2k => "ETL-O2K",
            System::LocalArea => "Local-area Cluster",
            System::WideArea => "Wide-area Cluster",
        }
    }

    /// Rank placements (rank 0 = master first). Mirrors Table 3.
    pub fn ranks(self, tb: &PaperTestbed) -> Vec<RankPlace> {
        let mut v = Vec::new();
        let mut push = |host: NodeId, group: &str, n: usize| {
            for _ in 0..n {
                v.push(RankPlace {
                    host,
                    group: group.to_string(),
                });
            }
        };
        match self {
            System::Compas => {
                for &c in &tb.compas {
                    push(c, "COMPaS", 1);
                }
            }
            System::EtlO2k => push(tb.etl_o2k, "ETL-O2K", 8),
            System::LocalArea => {
                push(tb.rwcp_sun, "RWCP-Sun", 4);
                for &c in &tb.compas {
                    push(c, "COMPaS", 1);
                }
            }
            System::WideArea => {
                push(tb.rwcp_sun, "RWCP-Sun", 4);
                for &c in &tb.compas {
                    push(c, "COMPaS", 1);
                }
                push(tb.etl_o2k, "ETL-O2K", 8);
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_matches_figure5_inventory() {
        let tb = PaperTestbed::build(FirewallMode::DenyInWithNxport);
        assert_eq!(tb.compas.len(), 8);
        assert_eq!(tb.topo.node(tb.rwcp_sun).cpus, 4);
        assert_eq!(tb.topo.node(tb.etl_sun).cpus, 6);
        assert_eq!(tb.topo.node(tb.etl_o2k).cpus, 16);
        assert_eq!(tb.topo.node(tb.rwcp_inner).cpus, 2);
        // RWCP firewalled, ETL open.
        assert!(tb.topo.site(tb.rwcp_site).policy.is_some());
        assert!(tb.topo.site(tb.etl_site).policy.is_none());
    }

    #[test]
    fn temporarily_open_removes_the_firewall() {
        let tb = PaperTestbed::build(FirewallMode::TemporarilyOpen);
        assert!(tb.topo.site(tb.rwcp_site).policy.is_none());
    }

    #[test]
    fn routes_cross_expected_sites() {
        let tb = PaperTestbed::build(FirewallMode::DenyInWithNxport);
        // rwcp-sun → etl-sun crosses RWCP → DMZ → ETL.
        let path = tb.topo.route(tb.rwcp_sun, tb.etl_sun).unwrap();
        let crossings = tb.topo.site_crossings(tb.rwcp_sun, &path);
        assert_eq!(
            crossings,
            vec![(tb.rwcp_site, tb.dmz_site), (tb.dmz_site, tb.etl_site)]
        );
        // rwcp-sun → compas0 stays inside RWCP.
        let path = tb.topo.route(tb.rwcp_sun, tb.compas[0]).unwrap();
        assert!(tb.topo.site_crossings(tb.rwcp_sun, &path).is_empty());
    }

    #[test]
    fn wan_is_the_bottleneck_to_etl() {
        let tb = PaperTestbed::build(FirewallMode::TemporarilyOpen);
        let path = tb.topo.route(tb.rwcp_sun, tb.etl_sun).unwrap();
        assert_eq!(
            tb.topo.path_bandwidth(&path),
            crate::calibration::WAN_BANDWIDTH
        );
    }

    #[test]
    fn table3_processor_counts() {
        let tb = PaperTestbed::build(FirewallMode::DenyInWithNxport);
        assert_eq!(System::Compas.ranks(&tb).len(), 8);
        assert_eq!(System::EtlO2k.ranks(&tb).len(), 8);
        assert_eq!(System::LocalArea.ranks(&tb).len(), 12);
        assert_eq!(System::WideArea.ranks(&tb).len(), 20);
        // Master of the multi-cluster systems is on RWCP-Sun.
        assert_eq!(System::WideArea.ranks(&tb)[0].host, tb.rwcp_sun);
        assert_eq!(System::LocalArea.ranks(&tb)[0].group, "RWCP-Sun");
    }

    #[test]
    fn render_mentions_everything() {
        let tb = PaperTestbed::build(FirewallMode::DenyInWithNxport);
        let r = tb.render();
        for name in ["rwcp-sun", "compas7", "rwcp-outer", "etl-o2k", "IMnet"] {
            // IMnet is implicit: check the WAN link by its node names.
            if name == "IMnet" {
                assert!(r.contains("rwcp-gw<->etl-sw"), "{r}");
            } else {
                assert!(r.contains(name), "missing {name} in:\n{r}");
            }
        }
    }
}
