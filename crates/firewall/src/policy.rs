//! Policies (ordered rule lists + defaults) and the stateful
//! [`Firewall`] that applies them.

use crate::audit::{AuditLog, AuditRecord};
use crate::conntrack::ConnTracker;
use crate::rule::{Action, Direction, Endpoint, HostSet, PortSet, Proto, Rule, Verdict};

/// A stateless policy: ordered rules and per-direction default actions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Policy {
    pub rules: Vec<Rule>,
    pub default_inbound: Action,
    pub default_outbound: Action,
    pub name: String,
}

impl Policy {
    /// Allow-based configuration: everything open by default in both
    /// directions; callers add explicit `Deny` rules to close ports.
    pub fn allow_based(name: impl Into<String>) -> Policy {
        Policy {
            rules: Vec::new(),
            default_inbound: Action::Allow,
            default_outbound: Action::Allow,
            name: name.into(),
        }
    }

    /// Deny-based configuration: everything closed by default in both
    /// directions; callers add explicit `Allow` rules to open ports.
    pub fn deny_based(name: impl Into<String>) -> Policy {
        Policy {
            rules: Vec::new(),
            default_inbound: Action::Deny,
            default_outbound: Action::Deny,
            name: name.into(),
        }
    }

    /// The paper's *typical* configuration (§1): deny-based inbound,
    /// allow-based outbound.
    pub fn typical(name: impl Into<String>) -> Policy {
        Policy {
            rules: Vec::new(),
            default_inbound: Action::Deny,
            default_outbound: Action::Allow,
            name: name.into(),
        }
    }

    /// An unfirewalled site (the paper's ETL hosts are directly
    /// reachable from RWCP): everything passes.
    pub fn open(name: impl Into<String>) -> Policy {
        Policy::allow_based(name)
    }

    /// Typical policy with the proxy hole punched: inbound TCP to
    /// `inner_host:nxport` is allowed, as the paper requires —
    /// "only the communication port from the outer server to the inner
    /// server must be opened in advance".
    pub fn typical_with_nxport(name: impl Into<String>, inner_host: u32, nxport: u16) -> Policy {
        Policy::typical(name).push(
            Rule::allow(Direction::Inbound)
                .proto(Proto::Tcp)
                .dst(HostSet::One(inner_host), PortSet::One(nxport))
                .label("nxport: outer->inner relay hole"),
        )
    }

    /// The Globus 1.1 alternative the paper critiques: open an inbound
    /// port *range* (`TCP_MIN_PORT..=TCP_MAX_PORT`) on every inside
    /// host, which "is basically the same as the allow based firewall".
    pub fn typical_with_port_range(name: impl Into<String>, lo: u16, hi: u16) -> Policy {
        Policy::typical(name).push(
            Rule::allow(Direction::Inbound)
                .proto(Proto::Tcp)
                .dst(HostSet::Any, PortSet::Range(lo, hi))
                .label("globus1.1: TCP_MIN_PORT..TCP_MAX_PORT opened"),
        )
    }

    /// Append a rule (builder style).
    pub fn push(mut self, rule: Rule) -> Policy {
        self.rules.push(rule);
        self
    }

    /// Stateless evaluation: first matching rule wins, else the
    /// per-direction default applies. Returns the action plus the label
    /// of the deciding rule.
    pub fn evaluate(
        &self,
        direction: Direction,
        proto: Proto,
        src: Endpoint,
        dst: Endpoint,
    ) -> (Action, &str) {
        for rule in &self.rules {
            if rule.matches(direction, proto, src, dst) {
                return (rule.action, rule.label.as_str());
            }
        }
        let action = match direction {
            Direction::Inbound => self.default_inbound,
            Direction::Outbound => self.default_outbound,
        };
        (action, "<default>")
    }

    /// Total inbound exposure: number of (host-agnostic) inbound ports
    /// explicitly allowed. A crude security metric used by the
    /// port-range-vs-proxy ablation.
    pub fn inbound_exposure(&self) -> u32 {
        self.rules
            .iter()
            .filter(|r| r.action == Action::Allow && r.direction == Direction::Inbound)
            .map(|r| r.dst_ports.width())
            .sum()
    }
}

/// A stateful firewall instance: policy + connection tracker + audit log.
#[derive(Debug)]
pub struct Firewall {
    policy: Policy,
    tracker: ConnTracker,
    audit: AuditLog,
}

impl Firewall {
    pub fn new(policy: Policy) -> Self {
        Firewall {
            policy,
            tracker: ConnTracker::new(),
            audit: AuditLog::default(),
        }
    }

    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// Replace the policy (the paper "temporarily changed the
    /// configuration of the firewall" for direct-path measurements;
    /// tests exercise exactly this). The connection table survives a
    /// reload, as on a real filter.
    pub fn reload(&mut self, policy: Policy) {
        self.policy = policy;
    }

    pub fn audit(&self) -> &AuditLog {
        &self.audit
    }

    pub fn tracker(&self) -> &ConnTracker {
        &self.tracker
    }

    /// Filter a connection-opening packet (TCP SYN analogue). On pass,
    /// the flow is entered into the connection table so replies and
    /// subsequent data pass statefully.
    pub fn filter_open(
        &mut self,
        direction: Direction,
        proto: Proto,
        src: Endpoint,
        dst: Endpoint,
    ) -> Verdict {
        let (action, label) = self.policy.evaluate(direction, proto, src, dst);
        let verdict = match action {
            Action::Allow => {
                self.tracker.establish(src, dst, proto);
                Verdict::Pass
            }
            Action::Deny => Verdict::Drop,
        };
        self.audit.push(AuditRecord {
            direction,
            proto,
            src,
            dst,
            verdict,
            rule: label.to_string(),
        });
        verdict
    }

    /// Filter a mid-flow data packet: established flows pass regardless
    /// of direction; otherwise the rule set decides (a pass here does
    /// *not* create state — only opens do).
    pub fn filter_data(
        &mut self,
        direction: Direction,
        proto: Proto,
        src: Endpoint,
        dst: Endpoint,
    ) -> Verdict {
        let verdict = if self.tracker.is_established(src, dst, proto) {
            Verdict::PassEstablished
        } else {
            match self.policy.evaluate(direction, proto, src, dst).0 {
                Action::Allow => Verdict::Pass,
                Action::Deny => Verdict::Drop,
            }
        };
        let rule = match verdict {
            Verdict::PassEstablished => "<established>".to_string(),
            _ => self
                .policy
                .evaluate(direction, proto, src, dst)
                .1
                .to_string(),
        };
        self.audit.push(AuditRecord {
            direction,
            proto,
            src,
            dst,
            verdict,
            rule,
        });
        verdict
    }

    /// Tear down a tracked flow (FIN/RST analogue).
    pub fn close(&mut self, src: Endpoint, dst: Endpoint, proto: Proto) {
        self.tracker.teardown(src, dst, proto);
    }

    /// Flush the connection table (an operator hard-reset: established
    /// flows lose their stateful exemption immediately).
    pub fn flush_conntrack(&mut self) {
        self.tracker.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep(h: u32, p: u16) -> Endpoint {
        Endpoint::new(h, p)
    }

    #[test]
    fn typical_policy_denies_inbound_allows_outbound() {
        let p = Policy::typical("site");
        assert_eq!(
            p.evaluate(Direction::Inbound, Proto::Tcp, ep(9, 1), ep(1, 80))
                .0,
            Action::Deny
        );
        assert_eq!(
            p.evaluate(Direction::Outbound, Proto::Tcp, ep(1, 1), ep(9, 80))
                .0,
            Action::Allow
        );
    }

    #[test]
    fn first_match_wins() {
        let p = Policy::typical("site")
            .push(
                Rule::allow(Direction::Inbound)
                    .dst(HostSet::Any, PortSet::One(911))
                    .label("open"),
            )
            .push(
                Rule {
                    action: Action::Deny,
                    ..Rule::allow(Direction::Inbound)
                }
                .dst(HostSet::Any, PortSet::One(911))
                .label("shadowed"),
            );
        let (a, label) = p.evaluate(Direction::Inbound, Proto::Tcp, ep(9, 1), ep(1, 911));
        assert_eq!(a, Action::Allow);
        assert_eq!(label, "open");
    }

    #[test]
    fn nxport_hole_only_reaches_inner_host() {
        let p = Policy::typical_with_nxport("rwcp", 3, 911);
        assert_eq!(
            p.evaluate(Direction::Inbound, Proto::Tcp, ep(9, 50000), ep(3, 911))
                .0,
            Action::Allow
        );
        // Same port on another host: denied.
        assert_eq!(
            p.evaluate(Direction::Inbound, Proto::Tcp, ep(9, 50000), ep(4, 911))
                .0,
            Action::Deny
        );
        // Another port on the inner host: denied.
        assert_eq!(
            p.evaluate(Direction::Inbound, Proto::Tcp, ep(9, 50000), ep(3, 912))
                .0,
            Action::Deny
        );
    }

    #[test]
    fn exposure_metric_favours_proxy_over_port_range() {
        let proxy = Policy::typical_with_nxport("rwcp", 3, 911);
        let range = Policy::typical_with_port_range("rwcp", 10000, 11000);
        assert_eq!(proxy.inbound_exposure(), 1);
        assert_eq!(range.inbound_exposure(), 1001);
        assert!(proxy.inbound_exposure() < range.inbound_exposure());
    }

    #[test]
    fn stateful_reply_passes_through_deny_in() {
        let mut fw = Firewall::new(Policy::typical("rwcp"));
        // Inside host opens outward: allowed, flow tracked.
        assert!(fw
            .filter_open(Direction::Outbound, Proto::Tcp, ep(1, 40000), ep(9, 80))
            .passed());
        // Reply data comes inbound: passes as established.
        assert_eq!(
            fw.filter_data(Direction::Inbound, Proto::Tcp, ep(9, 80), ep(1, 40000)),
            Verdict::PassEstablished
        );
        // Unrelated inbound data: dropped.
        assert_eq!(
            fw.filter_data(Direction::Inbound, Proto::Tcp, ep(9, 81), ep(1, 40000)),
            Verdict::Drop
        );
        // After close, the reply path shuts.
        fw.close(ep(1, 40000), ep(9, 80), Proto::Tcp);
        assert_eq!(
            fw.filter_data(Direction::Inbound, Proto::Tcp, ep(9, 80), ep(1, 40000)),
            Verdict::Drop
        );
    }

    #[test]
    fn inbound_open_dropped_under_typical() {
        let mut fw = Firewall::new(Policy::typical("rwcp"));
        assert_eq!(
            fw.filter_open(Direction::Inbound, Proto::Tcp, ep(9, 40000), ep(1, 5000)),
            Verdict::Drop
        );
        // Drop creates no state: a "reply" in the other direction is a
        // fresh outbound open, which is allowed — but the original
        // inbound flow never passes.
        assert!(fw.tracker().is_empty());
        assert_eq!(fw.audit().dropped(), 1);
    }

    #[test]
    fn reload_keeps_connection_table() {
        let mut fw = Firewall::new(Policy::allow_based("rwcp"));
        fw.filter_open(Direction::Inbound, Proto::Tcp, ep(9, 40000), ep(1, 5000));
        assert_eq!(fw.tracker().len(), 1);
        fw.reload(Policy::typical("rwcp"));
        // Existing flow still passes; new ones do not.
        assert_eq!(
            fw.filter_data(Direction::Inbound, Proto::Tcp, ep(9, 40000), ep(1, 5000)),
            Verdict::PassEstablished
        );
        assert_eq!(
            fw.filter_open(Direction::Inbound, Proto::Tcp, ep(9, 40001), ep(1, 5001)),
            Verdict::Drop
        );
    }
}
