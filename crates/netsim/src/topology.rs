//! Network topology: sites, hosts, switches, links, and static routing.
//!
//! The model matches the paper's Figure 5: each *site* (RWCP, ETL) owns
//! a LAN of hosts behind an optional border firewall; sites meet on a
//! WAN segment. We represent the graph explicitly — hosts and switches
//! are nodes, cables are duplex links — and route with Dijkstra on link
//! latency, so a packet's hop sequence (and therefore which firewalls
//! it crosses) falls out of the graph rather than being asserted.

use crate::time::SimDuration;
use firewall::Policy;

/// Index of any node (host or switch) in the topology graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Index of a site (firewall domain).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SiteId(pub u16);

/// Index of a duplex link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId(pub u32);

/// What kind of node this is. Only hosts run actors and terminate
/// flows; switches only forward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    Host,
    Switch,
}

/// A node in the graph.
#[derive(Debug, Clone)]
pub struct Node {
    pub name: String,
    pub kind: NodeKind,
    pub site: SiteId,
    /// Relative compute rate for workload modelling (work units per
    /// simulated second per processor). Zero for switches.
    pub cpu_rate: f64,
    /// Number of processors (the paper's hosts range from 1-way PC
    /// nodes to a 16-CPU Origin 2000).
    pub cpus: u32,
}

/// A full-duplex link. Each direction has independent capacity.
#[derive(Debug, Clone)]
pub struct Link {
    pub a: NodeId,
    pub b: NodeId,
    /// One-way propagation + forwarding latency.
    pub latency: SimDuration,
    /// Effective goodput in bytes/second. We calibrate this to the
    /// paper's *measured direct* throughput (TCP goodput), not the wire
    /// rate — see `wacs-core::calibration`.
    pub bandwidth: f64,
    pub name: String,
}

/// A site: a named firewall domain.
#[derive(Debug, Clone)]
pub struct Site {
    pub name: String,
    /// `None` means the site is open (no border firewall) — like ETL's
    /// public hosts in the paper.
    pub policy: Option<Policy>,
}

/// The static network description.
#[derive(Debug, Default, Clone)]
pub struct Topology {
    pub nodes: Vec<Node>,
    pub links: Vec<Link>,
    pub sites: Vec<Site>,
    adjacency: Vec<Vec<(NodeId, LinkId)>>,
}

impl Topology {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add_site(&mut self, name: impl Into<String>, policy: Option<Policy>) -> SiteId {
        let id = SiteId(self.sites.len() as u16);
        self.sites.push(Site {
            name: name.into(),
            policy,
        });
        id
    }

    pub fn add_host(&mut self, name: impl Into<String>, site: SiteId) -> NodeId {
        self.add_node(name, NodeKind::Host, site, 1.0, 1)
    }

    pub fn add_host_with_cpu(
        &mut self,
        name: impl Into<String>,
        site: SiteId,
        cpu_rate: f64,
        cpus: u32,
    ) -> NodeId {
        self.add_node(name, NodeKind::Host, site, cpu_rate, cpus)
    }

    pub fn add_switch(&mut self, name: impl Into<String>, site: SiteId) -> NodeId {
        self.add_node(name, NodeKind::Switch, site, 0.0, 0)
    }

    fn add_node(
        &mut self,
        name: impl Into<String>,
        kind: NodeKind,
        site: SiteId,
        cpu_rate: f64,
        cpus: u32,
    ) -> NodeId {
        assert!(
            (site.0 as usize) < self.sites.len(),
            "site {site:?} not defined"
        );
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            name: name.into(),
            kind,
            site,
            cpu_rate,
            cpus,
        });
        self.adjacency.push(Vec::new());
        id
    }

    /// Add a full-duplex link.
    pub fn add_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        latency: SimDuration,
        bandwidth_bytes_per_sec: f64,
    ) -> LinkId {
        assert!(a != b, "self-links are not allowed");
        assert!(
            bandwidth_bytes_per_sec > 0.0,
            "link needs positive bandwidth"
        );
        let id = LinkId(self.links.len() as u32);
        let name = format!("{}<->{}", self.node(a).name, self.node(b).name);
        self.links.push(Link {
            a,
            b,
            latency,
            bandwidth: bandwidth_bytes_per_sec,
            name,
        });
        self.adjacency[a.0 as usize].push((b, id));
        self.adjacency[b.0 as usize].push((a, id));
        id
    }

    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0 as usize]
    }

    pub fn site(&self, id: SiteId) -> &Site {
        &self.sites[id.0 as usize]
    }

    pub fn site_of(&self, node: NodeId) -> SiteId {
        self.node(node).site
    }

    /// Shortest path (by cumulative latency, hops as tie-break) from
    /// `src` to `dst`, as the sequence of links to traverse. Returns
    /// `None` if disconnected.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Option<Vec<LinkId>> {
        if src == dst {
            return Some(Vec::new());
        }
        // Dijkstra over (latency_ns, hops).
        let n = self.nodes.len();
        let mut dist: Vec<(u64, u32)> = vec![(u64::MAX, u32::MAX); n];
        let mut prev: Vec<Option<(NodeId, LinkId)>> = vec![None; n];
        let mut heap = std::collections::BinaryHeap::new();
        dist[src.0 as usize] = (0, 0);
        heap.push(std::cmp::Reverse(((0u64, 0u32), src)));
        while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
            if d > dist[u.0 as usize] {
                continue;
            }
            if u == dst {
                break;
            }
            for &(v, lid) in &self.adjacency[u.0 as usize] {
                let w = self.link(lid).latency.nanos();
                let nd = (d.0 + w, d.1 + 1);
                if nd < dist[v.0 as usize] {
                    dist[v.0 as usize] = nd;
                    prev[v.0 as usize] = Some((u, lid));
                    heap.push(std::cmp::Reverse((nd, v)));
                }
            }
        }
        if dist[dst.0 as usize].0 == u64::MAX {
            return None;
        }
        let mut path = Vec::new();
        let mut cur = dst;
        while cur != src {
            // A finite distance guarantees a predecessor; treat a broken
            // chain as unroutable rather than aborting.
            let (p, lid) = prev[cur.0 as usize]?;
            path.push(lid);
            cur = p;
        }
        path.reverse();
        Some(path)
    }

    /// Node sequence (including endpoints) corresponding to a link path
    /// starting at `src`.
    pub fn path_nodes(&self, src: NodeId, path: &[LinkId]) -> Vec<NodeId> {
        let mut nodes = vec![src];
        let mut cur = src;
        for &lid in path {
            let l = self.link(lid);
            cur = if l.a == cur { l.b } else { l.a };
            nodes.push(cur);
        }
        nodes
    }

    /// Sum of one-way latencies along a route.
    pub fn path_latency(&self, path: &[LinkId]) -> SimDuration {
        SimDuration(path.iter().map(|&l| self.link(l).latency.nanos()).sum())
    }

    /// Minimum bandwidth along a route (`f64::INFINITY` for the empty
    /// path, i.e. a host talking to itself).
    pub fn path_bandwidth(&self, path: &[LinkId]) -> f64 {
        path.iter()
            .map(|&l| self.link(l).bandwidth)
            .fold(f64::INFINITY, f64::min)
    }

    /// Ordered list of site boundaries a path crosses, as
    /// `(from_site, to_site)` pairs, for firewall evaluation.
    pub fn site_crossings(&self, src: NodeId, path: &[LinkId]) -> Vec<(SiteId, SiteId)> {
        let nodes = self.path_nodes(src, path);
        nodes
            .windows(2)
            .filter_map(|w| {
                let (sa, sb) = (self.site_of(w[0]), self.site_of(w[1]));
                (sa != sb).then_some((sa, sb))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    /// Two sites: [h0 - sw1] -lan- gw? simple line h0-s0-s1-h1.
    fn line() -> (Topology, NodeId, NodeId) {
        let mut t = Topology::new();
        let site_a = t.add_site("a", None);
        let site_b = t.add_site("b", None);
        let h0 = t.add_host("h0", site_a);
        let s0 = t.add_switch("s0", site_a);
        let s1 = t.add_switch("s1", site_b);
        let h1 = t.add_host("h1", site_b);
        t.add_link(h0, s0, ms(1), 1e6);
        t.add_link(s0, s1, ms(10), 1e5);
        t.add_link(s1, h1, ms(1), 1e6);
        (t, h0, h1)
    }

    #[test]
    fn route_on_a_line() {
        let (t, h0, h1) = line();
        let path = t.route(h0, h1).unwrap();
        assert_eq!(path.len(), 3);
        assert_eq!(t.path_latency(&path), ms(12));
        assert_eq!(t.path_bandwidth(&path), 1e5);
        let nodes = t.path_nodes(h0, &path);
        assert_eq!(nodes.len(), 4);
        assert_eq!(nodes[0], h0);
        assert_eq!(nodes[3], h1);
    }

    #[test]
    fn route_to_self_is_empty() {
        let (t, h0, _) = line();
        let path = t.route(h0, h0).unwrap();
        assert!(path.is_empty());
        assert_eq!(t.path_latency(&path), SimDuration::ZERO);
        assert!(t.path_bandwidth(&path).is_infinite());
    }

    #[test]
    fn disconnected_nodes_have_no_route() {
        let mut t = Topology::new();
        let s = t.add_site("a", None);
        let h0 = t.add_host("h0", s);
        let h1 = t.add_host("h1", s);
        assert!(t.route(h0, h1).is_none());
    }

    #[test]
    fn dijkstra_prefers_lower_latency() {
        let mut t = Topology::new();
        let s = t.add_site("a", None);
        let h0 = t.add_host("h0", s);
        let h1 = t.add_host("h1", s);
        let mid = t.add_switch("mid", s);
        // Direct but slow link vs two-hop fast path.
        t.add_link(h0, h1, ms(30), 1e6);
        t.add_link(h0, mid, ms(5), 1e6);
        t.add_link(mid, h1, ms(5), 1e6);
        let path = t.route(h0, h1).unwrap();
        assert_eq!(path.len(), 2);
        assert_eq!(t.path_latency(&path), ms(10));
    }

    #[test]
    fn site_crossings_detected() {
        let (t, h0, h1) = line();
        let path = t.route(h0, h1).unwrap();
        let xs = t.site_crossings(h0, &path);
        assert_eq!(xs, vec![(SiteId(0), SiteId(1))]);
        // And none within a site.
        let (t2, h0b, _) = line();
        let p2 = t2.route(h0b, h0b).unwrap();
        assert!(t2.site_crossings(h0b, &p2).is_empty());
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn self_link_rejected() {
        let mut t = Topology::new();
        let s = t.add_site("a", None);
        let h = t.add_host("h", s);
        t.add_link(h, h, ms(1), 1e6);
    }
}
