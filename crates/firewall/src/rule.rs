//! Filtering rules: match sets over hosts, ports and protocols, plus the
//! verdicts a filter can return.

/// Opaque host identifier.
///
/// The simulator maps its `HostId` into this; the real-socket stack maps
/// logical host names. The firewall itself never interprets the value
/// beyond equality/range membership.
pub type HostRef = u32;

/// One endpoint of a (potential) flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Endpoint {
    pub host: HostRef,
    pub port: u16,
}

impl Endpoint {
    pub const fn new(host: HostRef, port: u16) -> Self {
        Endpoint { host, port }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "h{}:{}", self.host, self.port)
    }
}

/// Transport protocol selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Proto {
    Tcp,
    Udp,
    Any,
}

impl Proto {
    /// Does `self` (a rule's selector) cover `packet` (a concrete proto)?
    pub fn covers(self, packet: Proto) -> bool {
        matches!(self, Proto::Any) || self == packet
    }
}

/// Direction of a packet relative to the protected (inside) network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// From the outside world into the protected site.
    Inbound,
    /// From the protected site toward the outside world.
    Outbound,
}

impl Direction {
    pub fn flip(self) -> Direction {
        match self {
            Direction::Inbound => Direction::Outbound,
            Direction::Outbound => Direction::Inbound,
        }
    }
}

/// A set of hosts a rule can match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostSet {
    Any,
    One(HostRef),
    Range(HostRef, HostRef),
    List(Vec<HostRef>),
}

impl HostSet {
    pub fn contains(&self, h: HostRef) -> bool {
        match self {
            HostSet::Any => true,
            HostSet::One(x) => *x == h,
            HostSet::Range(lo, hi) => (*lo..=*hi).contains(&h),
            HostSet::List(v) => v.contains(&h),
        }
    }
}

/// A set of ports a rule can match.
///
/// `Range` is the shape used by the Globus 1.1 `TCP_MIN_PORT` /
/// `TCP_MAX_PORT` workaround the paper critiques: opening the whole
/// listener range inbound is "basically the same as the allow based
/// firewall".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PortSet {
    Any,
    One(u16),
    Range(u16, u16),
    List(Vec<u16>),
}

impl PortSet {
    pub fn contains(&self, p: u16) -> bool {
        match self {
            PortSet::Any => true,
            PortSet::One(x) => *x == p,
            PortSet::Range(lo, hi) => (*lo..=*hi).contains(&p),
            PortSet::List(v) => v.contains(&p),
        }
    }

    /// Number of ports in the set (saturating; `Any` is 65536).
    pub fn width(&self) -> u32 {
        match self {
            PortSet::Any => 65536,
            PortSet::One(_) => 1,
            PortSet::Range(lo, hi) => {
                if hi >= lo {
                    u32::from(hi - lo) + 1
                } else {
                    0
                }
            }
            PortSet::List(v) => v.len() as u32,
        }
    }
}

/// Rule action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    Allow,
    Deny,
}

/// Final verdict returned by [`crate::Firewall::filter_open`] and
/// [`crate::Firewall::filter_data`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Passed by an explicit rule or by the default action.
    Pass,
    /// Passed because the packet belongs to an established, tracked flow.
    PassEstablished,
    /// Dropped.
    Drop,
}

impl Verdict {
    pub fn passed(self) -> bool {
        !matches!(self, Verdict::Drop)
    }
}

/// A single filtering rule. First matching rule wins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    pub action: Action,
    pub direction: Direction,
    pub proto: Proto,
    pub src_hosts: HostSet,
    pub src_ports: PortSet,
    pub dst_hosts: HostSet,
    pub dst_ports: PortSet,
    /// Human-readable annotation, surfaced by the audit log.
    pub label: String,
}

impl Rule {
    /// Allow-everything-in-`direction` skeleton, to be refined with the
    /// builder methods below.
    pub fn allow(direction: Direction) -> Rule {
        Rule {
            action: Action::Allow,
            direction,
            proto: Proto::Any,
            src_hosts: HostSet::Any,
            src_ports: PortSet::Any,
            dst_hosts: HostSet::Any,
            dst_ports: PortSet::Any,
            label: String::new(),
        }
    }

    pub fn proto(mut self, p: Proto) -> Rule {
        self.proto = p;
        self
    }

    pub fn src(mut self, hosts: HostSet, ports: PortSet) -> Rule {
        self.src_hosts = hosts;
        self.src_ports = ports;
        self
    }

    pub fn dst(mut self, hosts: HostSet, ports: PortSet) -> Rule {
        self.dst_hosts = hosts;
        self.dst_ports = ports;
        self
    }

    pub fn label(mut self, l: impl Into<String>) -> Rule {
        self.label = l.into();
        self
    }

    /// Does this rule match a concrete packet?
    pub fn matches(
        &self,
        direction: Direction,
        proto: Proto,
        src: Endpoint,
        dst: Endpoint,
    ) -> bool {
        self.direction == direction
            && self.proto.covers(proto)
            && self.src_hosts.contains(src.host)
            && self.src_ports.contains(src.port)
            && self.dst_hosts.contains(dst.host)
            && self.dst_ports.contains(dst.port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep(h: HostRef, p: u16) -> Endpoint {
        Endpoint::new(h, p)
    }

    #[test]
    fn host_set_membership() {
        assert!(HostSet::Any.contains(7));
        assert!(HostSet::One(7).contains(7));
        assert!(!HostSet::One(7).contains(8));
        assert!(HostSet::Range(3, 9).contains(3));
        assert!(HostSet::Range(3, 9).contains(9));
        assert!(!HostSet::Range(3, 9).contains(10));
        assert!(HostSet::List(vec![1, 5]).contains(5));
        assert!(!HostSet::List(vec![1, 5]).contains(2));
    }

    #[test]
    fn port_set_membership_and_width() {
        assert!(PortSet::Any.contains(0));
        assert_eq!(PortSet::Any.width(), 65536);
        assert_eq!(PortSet::One(80).width(), 1);
        assert_eq!(PortSet::Range(1000, 1999).width(), 1000);
        assert_eq!(PortSet::Range(5, 4).width(), 0);
        assert_eq!(PortSet::List(vec![1, 2, 3]).width(), 3);
    }

    #[test]
    fn proto_covering() {
        assert!(Proto::Any.covers(Proto::Tcp));
        assert!(Proto::Tcp.covers(Proto::Tcp));
        assert!(!Proto::Tcp.covers(Proto::Udp));
    }

    #[test]
    fn rule_builder_and_match() {
        let r = Rule::allow(Direction::Inbound)
            .proto(Proto::Tcp)
            .dst(HostSet::One(3), PortSet::One(911))
            .label("nxport hole");
        assert!(r.matches(Direction::Inbound, Proto::Tcp, ep(9, 40000), ep(3, 911)));
        // Wrong direction.
        assert!(!r.matches(Direction::Outbound, Proto::Tcp, ep(9, 40000), ep(3, 911)));
        // Wrong destination port.
        assert!(!r.matches(Direction::Inbound, Proto::Tcp, ep(9, 40000), ep(3, 912)));
        // Wrong destination host.
        assert!(!r.matches(Direction::Inbound, Proto::Tcp, ep(9, 40000), ep(4, 911)));
        // Udp not covered by Tcp selector.
        assert!(!r.matches(Direction::Inbound, Proto::Udp, ep(9, 40000), ep(3, 911)));
    }

    #[test]
    fn verdicts() {
        assert!(Verdict::Pass.passed());
        assert!(Verdict::PassEstablished.passed());
        assert!(!Verdict::Drop.passed());
    }
}
