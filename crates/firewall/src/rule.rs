//! Filtering rules: match sets over destination hosts and ports, plus
//! the verdicts a filter can return. Every flow in this system is a
//! TCP connection, and every hole the paper opens names a destination
//! (`nxport` on the inner host, the RMF ports, Globus 1.1's port
//! range), so a rule matches on direction and destination alone.

/// Opaque host identifier.
///
/// The simulator maps its `HostId` into this; the real-socket stack maps
/// logical host names. The firewall itself never interprets the value
/// beyond equality.
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

/// Direction of a packet relative to the protected (inside) network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// From the outside world into the protected site.
    Inbound,
    /// From the protected site toward the outside world.
    Outbound,
}

/// The hosts a rule matches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostSet {
    Any,
    One(HostRef),
}

impl HostSet {
    pub fn contains(&self, h: HostRef) -> bool {
        match self {
            HostSet::Any => true,
            HostSet::One(x) => *x == h,
        }
    }
}

/// The ports a rule matches.
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
}

impl PortSet {
    pub fn contains(&self, p: u16) -> bool {
        match self {
            PortSet::Any => true,
            PortSet::One(x) => *x == p,
            PortSet::Range(lo, hi) => (*lo..=*hi).contains(&p),
        }
    }

    /// Number of ports in the set (`Any` is 65536).
    pub fn width(&self) -> u32 {
        match self {
            PortSet::Any => 65536,
            PortSet::One(_) => 1,
            PortSet::Range(lo, hi) => (u32::from(*hi) + 1).saturating_sub(u32::from(*lo)),
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
    pub dst_hosts: HostSet,
    pub dst_ports: PortSet,
}

impl Rule {
    /// Allow-everything-in-`direction` skeleton, to be narrowed with
    /// [`dst`](Self::dst).
    pub fn allow(direction: Direction) -> Rule {
        Rule {
            action: Action::Allow,
            direction,
            dst_hosts: HostSet::Any,
            dst_ports: PortSet::Any,
        }
    }

    pub fn dst(mut self, hosts: HostSet, ports: PortSet) -> Rule {
        self.dst_hosts = hosts;
        self.dst_ports = ports;
        self
    }

    /// Does this rule match a packet travelling `direction` to `dst`?
    pub fn matches(&self, direction: Direction, dst: Endpoint) -> bool {
        self.direction == direction
            && self.dst_hosts.contains(dst.host)
            && self.dst_ports.contains(dst.port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_set_membership_and_width() {
        let globus = PortSet::Range(1000, 1999);
        assert!(globus.contains(1000) && globus.contains(1999));
        assert!(!globus.contains(999) && !globus.contains(2000));
        assert_eq!(globus.width(), 1000);
        assert_eq!(PortSet::Range(5, 4).width(), 0);
        assert_eq!(PortSet::One(80).width(), 1);
        assert_eq!(PortSet::Any.width(), 65536);
    }

    #[test]
    fn rule_builder_and_match() {
        let r = Rule::allow(Direction::Inbound).dst(HostSet::One(3), PortSet::One(911));
        assert!(r.matches(Direction::Inbound, Endpoint::new(3, 911)));
        assert!(!r.matches(Direction::Outbound, Endpoint::new(3, 911)));
        assert!(!r.matches(Direction::Inbound, Endpoint::new(3, 912)));
        assert!(!r.matches(Direction::Inbound, Endpoint::new(4, 911)));
    }

    #[test]
    fn verdicts() {
        assert!(Verdict::Pass.passed());
        assert!(Verdict::PassEstablished.passed());
        assert!(!Verdict::Drop.passed());
    }
}
