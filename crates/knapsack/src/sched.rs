//! The master-slave self-scheduling core (§4.3), sans-IO: every
//! scheduling decision of the parallel knapsack, made once, for drivers
//! that only move [`Msg`]s and charge time ([`crate::par`] over
//! `gridmpi`, [`crate::sim`] as `netsim` actors). Where links die,
//! delivery is at-least-once ([`Master::gone`], [`Slave::gone`]): a
//! duplicate traversal costs time, a lost subtree would cost the optimum.

use crate::instance::Instance;
use crate::node::{branch_batch, BranchCounters, Node};
use crate::stats::{RankStats, RunResult};
use std::collections::VecDeque;
use std::io;

/// Scheduling parameters (the paper's `interval`, `stealunit`,
/// `backunit`; they "varied … and took the best combination").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParParams {
    pub interval: u32,
    pub steal_unit: u32,
    pub back_unit: u32,
    /// Estimated *work* (tree nodes) on a slave's stack beyond which it
    /// returns surplus — the paper's "too many nodes on the stack", as a
    /// subtree-size estimate: raw length is bounded by the tree depth
    /// and misses a hoarded near-root subtree. `0` = 64 × `interval`.
    pub back_threshold_nodes: u64,
    pub prune: bool,
    /// Items are ratio-sorted (enables the tight greedy bound).
    pub sorted: bool,
}

/// Table 4's combination and the one parameter set: Tables 4-6 run it,
/// and so does every real `par_run` that sets no grain of its own. The
/// grain is coarse because each steal costs a relay round trip: the
/// benchmark's proxied two-rank n = 26 solve steals about a tenth as
/// often as at interval 1024, stealunit 4. It is not the sweep's
/// winner: `paper ablation_sweep --items 26` names 4096/8 (42.3 s
/// proxied), against 44.4 s and a 7.6 % proxy overhead here. Table 4
/// keeps 8192/32 because any other value moves the Table 4-6 goldens;
/// ROADMAP item 17 owns that decision.
impl Default for ParParams {
    fn default() -> Self {
        ParParams {
            interval: 8192,
            steal_unit: 32,
            back_unit: 16,
            back_threshold_nodes: 0,
            prune: false,
            sorted: false,
        }
    }
}

/// Resolve the automatic back-pressure threshold (estimated nodes).
pub fn effective_back_threshold(params: &ParParams) -> u64 {
    match params.back_threshold_nodes {
        0 => 64 * u64::from(params.interval),
        t => t,
    }
}

/// Estimated nodes remaining under one stack entry (full-subtree
/// upper bound: `2^(n - index)`; exact for the no-pruning instance,
/// an overestimate under pruning — conservative for back-pressure).
fn node_work_estimate(node: &Node, n: usize) -> u64 {
    1u64 << n.saturating_sub(node.index as usize).min(62)
}

/// Pick how many *bottom* (shallowest) nodes to return so the
/// remaining estimate (saturating) drops to ~half the threshold,
/// capped at `back_unit` and never emptying the stack.
pub fn back_send_count(stack: &[Node], n: usize, threshold: u64, back_unit: u32) -> usize {
    let estimate = |acc: u64, nd| acc.saturating_add(node_work_estimate(nd, n));
    let mut est = stack.iter().fold(0, estimate);
    if est <= threshold {
        return 0;
    }
    let max_take = (back_unit as usize).min(stack.len().saturating_sub(1));
    let mut take = 0;
    while take < max_take && est > threshold / 2 {
        est = est.saturating_sub(node_work_estimate(&stack[take], n));
        take += 1;
    }
    take
}

/// The protocol: a slave `Steal`s when dry, the master ships `Nodes`,
/// a slave sends surplus `Back`, the master's `Done` asks for `Stats`.
/// `best` rides along so the incumbent spreads with the work.
#[derive(Debug, Clone, PartialEq)]
#[rustfmt::skip]
pub enum Msg {
    Steal { best: u64 },
    Nodes { best: u64, nodes: Vec<Node> },
    Back { best: u64, nodes: Vec<Node> },
    Done,
    Stats(Box<RankStats>),
}

const TAG_STEAL: i32 = 10;
const TAG_NODES: i32 = 11;
const TAG_BACK: i32 = 12;
const TAG_DONE: i32 = 13;
const TAG_STATS: i32 = 14;

impl Msg {
    /// Modelled wire size in bytes (drives virtual-time transfers).
    pub fn wire_size(&self) -> u64 {
        match self {
            Msg::Steal { .. } => 16,
            Msg::Nodes { nodes, .. } | Msg::Back { nodes, .. } => {
                16 + nodes.len() as u64 * Node::WIRE_BYTES
            }
            Msg::Done => 8,
            Msg::Stats(_) => 64,
        }
    }

    /// Tag and payload on a real link: big-endian `u64` words (a node
    /// is `index, value, capacity`); a report's words are followed by
    /// `host`, a NUL and `group`.
    pub fn encode(&self) -> (i32, Vec<u8>) {
        let shipment = |best: u64, nodes: &[Node]| {
            let w = nodes.iter().map(|n| [n.index.into(), n.value, n.capacity]);
            words(std::iter::once(best).chain(w.flatten()))
        };
        match self {
            Msg::Steal { best } => (TAG_STEAL, words([*best])),
            Msg::Nodes { best, nodes } => (TAG_NODES, shipment(*best, nodes)),
            Msg::Back { best, nodes } => (TAG_BACK, shipment(*best, nodes)),
            Msg::Done => (TAG_DONE, Vec::new()),
            Msg::Stats(r) => {
                let head = [
                    r.rank.into(),
                    r.traversed,
                    r.steals,
                    r.back_sends,
                    r.local_best,
                ];
                let text = format!("{}\0{}", r.host, r.group);
                (TAG_STATS, [words(head), text.into_bytes()].concat())
            }
        }
    }

    /// Inverse of [`Msg::encode`] for an instance of `n` items. A node
    /// indexed past `n` is refused here, before the branch operation
    /// would index the item table with it.
    pub fn decode(tag: i32, payload: &[u8], n: usize) -> io::Result<Msg> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let shipment = |bytes: &[u8]| {
            let w = unwords(bytes).filter(|w| w.len() % 3 == 1);
            let Some((&best, rest)) = w.as_deref().and_then(<[u64]>::split_first) else {
                return Err(bad("malformed node shipment"));
            };
            let node = |c: &[u64]| match u32::try_from(c[0]) {
                Ok(index) if index as usize <= n => Ok(Node {
                    index,
                    value: c[1],
                    capacity: c[2],
                }),
                _ => Err(bad(&format!("node index {} past {n} items", c[0]))),
            };
            Ok((
                best,
                rest.chunks_exact(3).map(node).collect::<io::Result<_>>()?,
            ))
        };
        match tag {
            TAG_STEAL => match unwords(payload).as_deref() {
                Some(&[best]) => Ok(Msg::Steal { best }),
                _ => Err(bad("malformed steal request")),
            },
            TAG_NODES => shipment(payload).map(|(best, nodes)| Msg::Nodes { best, nodes }),
            TAG_BACK => shipment(payload).map(|(best, nodes)| Msg::Back { best, nodes }),
            TAG_DONE => Ok(Msg::Done),
            TAG_STATS => {
                let (head, text) = payload.split_at_checked(40).unwrap_or_default();
                let w = unwords(head).filter(|w| w.len() == 5);
                let text = std::str::from_utf8(text)
                    .ok()
                    .and_then(|t| t.split_once('\0'));
                let (Some(w), Some((host, group))) = (w, text) else {
                    return Err(bad("malformed stats report"));
                };
                Ok(Msg::Stats(Box::new(RankStats {
                    rank: u32::try_from(w[0]).map_err(|_| bad("malformed stats report"))?,
                    host: host.into(),
                    group: group.into(),
                    traversed: w[1],
                    steals: w[2],
                    back_sends: w[3],
                    local_best: w[4],
                })))
            }
            other => Err(bad(&format!("unknown knapsack tag {other}"))),
        }
    }
}

fn words(values: impl IntoIterator<Item = u64>) -> Vec<u8> {
    values.into_iter().flat_map(u64::to_be_bytes).collect()
}

fn unwords(bytes: &[u8]) -> Option<Vec<u64>> {
    let (words, rest) = bytes.as_chunks::<8>();
    rest.is_empty()
        .then(|| words.iter().map(|w| u64::from_be_bytes(*w)).collect())
}

/// One rank's share of the search, and what it reports.
#[derive(Debug, Default)]
struct Search {
    params: ParParams,
    stack: Vec<Node>,
    best: u64,
    counters: BranchCounters,
    /// Steal requests sent (slave) or served (master).
    steals: u64,
    back_sends: u64,
}

impl Search {
    /// The one place params enter a search: an `interval` of 0 would
    /// make every batch empty while the stack holds work, and a
    /// `steal_unit` of 0 every served batch, so each runs as 1.
    fn new(params: ParParams) -> Self {
        let interval = params.interval.max(1);
        let steal_unit = params.steal_unit.max(1);
        Search {
            params: ParParams {
                interval,
                steal_unit,
                ..params
            },
            ..Search::default()
        }
    }

    /// One batch: the branch operation `interval` times, or until the
    /// stack drains. Returns how many ran.
    fn work(&mut self, inst: &Instance) -> u32 {
        let p = &self.params;
        let (stack, best, c) = (&mut self.stack, &mut self.best, &mut self.counters);
        let ops = branch_batch(inst, stack, best, c, p.prune, p.sorted, p.interval.into());
        // At most `interval`, a `u32`.
        ops as u32
    }

    fn take(&mut self, best: u64, nodes: Vec<Node>) {
        self.best = self.best.max(best);
        self.stack.extend(nodes);
    }

    fn report(&self, rank: u32, host: &str, group: &str) -> RankStats {
        RankStats {
            rank,
            host: host.into(),
            group: group.into(),
            traversed: self.counters.traversed,
            steals: self.steals,
            back_sends: self.back_sends,
            local_best: self.best,
        }
    }
}

fn unexpected(who: &str, msg: &Msg) -> io::Error {
    let what = format!("{who} got an unexpected {msg:?}");
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// What [`Master::on_msg`] made of a message, for the driver: send the
/// `Reply` back (`Done`, to a slave that missed it); a slave is
/// `Waiting` (serve, then ask [`Master::finish`]); nodes `Returned`
/// (serve, keep working); a `Report` (ask [`Master::result`]).
#[derive(Debug, PartialEq)]
pub enum Heard {
    Reply(Msg),
    Waiting,
    Returned,
    Report,
}

/// The master (rank 0), generic over how its driver names a slave's
/// link: a rank on sockets, a flow in virtual time. It branches
/// `interval` times per [`work`](Master::work), then
/// [`serve`](Master::serve)s waiting slaves in arrival order.
#[derive(Debug)]
pub struct Master<P> {
    search: Search,
    nslaves: usize,
    peers: Vec<P>,
    pending: VecDeque<P>,
    /// Batches shipped but not yet known received: a slave speaks again
    /// only once it holds its batch, so any message confirms receipt.
    outstanding: Vec<(P, Vec<Node>)>,
    finished: bool,
    reports: Vec<RankStats>,
    published: bool,
}

impl<P: Copy + PartialEq> Master<P> {
    pub fn new(inst: &Instance, params: ParParams, nslaves: usize) -> Self {
        let mut search = Search::new(params);
        search.stack.push(Node::root(inst));
        Master {
            search,
            nslaves,
            peers: Vec::new(),
            pending: VecDeque::new(),
            outstanding: Vec::new(),
            finished: false,
            reports: Vec::new(),
            published: false,
        }
    }

    /// A slave is reachable as `peer` (again, after [`Master::gone`]).
    pub fn joined(&mut self, peer: P) {
        self.peers.push(peer);
    }

    /// One batch on `inst` (the instance `new` got); returns its size.
    pub fn work(&mut self, inst: &Instance) -> u32 {
        self.search.work(inst)
    }

    pub fn has_work(&self) -> bool {
        !self.search.stack.is_empty()
    }

    pub fn on_msg(&mut self, from: P, msg: Msg) -> io::Result<Heard> {
        self.outstanding.retain(|(p, _)| *p != from);
        Ok(match msg {
            Msg::Steal { best } => {
                self.search.best = self.search.best.max(best);
                if self.finished {
                    return Ok(Heard::Reply(Msg::Done));
                }
                self.pending.push_back(from);
                Heard::Waiting
            }
            Msg::Back { best, nodes } => {
                self.search.take(best, nodes);
                Heard::Returned
            }
            Msg::Stats(rs) => {
                // A slave resends its report after a post-Done reconnect.
                if !self.reports.iter().any(|r| r.rank == rs.rank) {
                    self.reports.push(*rs);
                }
                Heard::Report
            }
            other => return Err(unexpected("master", &other)),
        })
    }

    /// The next waiting slave and its `steal_unit` nodes off the top of
    /// the stack; call until `None`.
    pub fn serve(&mut self) -> Option<(P, Msg)> {
        let (stack, best) = (&mut self.search.stack, self.search.best);
        let peer = *self.pending.front().filter(|_| !stack.is_empty())?;
        self.pending.pop_front();
        let take = (self.search.params.steal_unit as usize).min(stack.len());
        let nodes = stack.split_off(stack.len() - take);
        self.outstanding.retain(|(p, _)| *p != peer);
        self.outstanding.push((peer, nodes.clone()));
        self.search.steals += 1;
        Some((peer, Msg::Nodes { best, nodes }))
    }

    /// The batch just served to `peer` could not be sent: keep it.
    pub fn unsent(&mut self, peer: P) {
        if self.requeue(peer) {
            self.search.steals -= 1;
        }
    }

    /// `peer`'s link died: forget it, re-queue a batch it may not have
    /// received. The slave joins again under a new name.
    pub fn gone(&mut self, peer: P) {
        self.pending.retain(|&p| p != peer);
        self.peers.retain(|&p| p != peer);
        self.requeue(peer);
    }

    fn requeue(&mut self, peer: P) -> bool {
        let i = self.outstanding.iter().position(|(p, _)| *p == peer);
        let nodes = i.map(|i| self.outstanding.remove(i).1);
        self.search.stack.extend(nodes.iter().flatten());
        nodes.is_some()
    }

    /// The finish rule: the stack is empty and every slave has joined
    /// and waits. The first time it holds, the `Done` broadcast.
    pub fn finish(&mut self) -> Option<Vec<(P, Msg)>> {
        let n = self.nslaves;
        let idle = self.search.stack.is_empty() && self.peers.len() == n && self.pending.len() == n;
        if self.finished || !idle {
            return None;
        }
        self.finished = true;
        Some(self.peers.iter().map(|&p| (p, Msg::Done)).collect())
    }

    /// The result, once every slave has reported after the finish;
    /// `host`, `group` and `elapsed_secs` are the master's.
    pub fn result(&mut self, host: &str, group: &str, elapsed_secs: f64) -> Option<RunResult> {
        if !self.finished || self.published || self.reports.len() != self.nslaves {
            return None;
        }
        self.published = true;
        let mut ranks = vec![self.search.report(0, host, group)];
        ranks.append(&mut self.reports);
        ranks.sort_by_key(|r| r.rank);
        let best = ranks.iter().map(|r| r.local_best).max().unwrap_or(0);
        Some(RunResult {
            best,
            elapsed_secs,
            ranks,
        })
    }
}

/// A slave: it branches until dry, then steals, and returns a
/// [`surplus`](Slave::surplus) when its stack holds too much work.
#[derive(Debug)]
pub struct Slave {
    search: Search,
    n: usize,
    rank: u32,
    group: String,
    /// Copies of what went Back since `Done`: the master may not have it.
    retained: Vec<Node>,
    done: bool,
}

impl Slave {
    pub fn new(inst: &Instance, params: ParParams, rank: u32, group: impl Into<String>) -> Self {
        Slave {
            search: Search::new(params),
            n: inst.n(),
            rank,
            group: group.into(),
            retained: Vec::new(),
            done: false,
        }
    }

    /// The first message on a fresh link from `host`: the report if
    /// `Done` already came, else a steal request.
    pub fn hello(&mut self, host: &str) -> Msg {
        if self.done {
            self.report(host)
        } else {
            self.steal()
        }
    }

    pub fn steal(&mut self) -> Msg {
        self.search.steals += 1;
        let best = self.search.best;
        Msg::Steal { best }
    }

    /// One batch on `inst`; returns its size.
    pub fn work(&mut self, inst: &Instance) -> u32 {
        self.search.work(inst)
    }

    pub fn has_work(&self) -> bool {
        !self.search.stack.is_empty()
    }

    /// Back-pressure after a batch: the bottom (largest-subtree) nodes,
    /// when the stack holds too much estimated work.
    pub fn surplus(&mut self) -> Option<Msg> {
        let s = &mut self.search;
        let threshold = effective_back_threshold(&s.params);
        let take = back_send_count(&s.stack, self.n, threshold, s.params.back_unit);
        if take == 0 {
            return None;
        }
        let nodes: Vec<Node> = s.stack.drain(..take).collect();
        self.retained.extend_from_slice(&nodes);
        s.back_sends += 1;
        let best = s.best;
        Some(Msg::Back { best, nodes })
    }

    /// A message from the master, on `host`; `Some` is the answer.
    pub fn on_msg(&mut self, msg: Msg, host: &str) -> io::Result<Option<Msg>> {
        match msg {
            Msg::Nodes { best, nodes } => self.search.take(best, nodes),
            Msg::Done => {
                self.done = true;
                self.retained.clear();
                return Ok(Some(self.report(host)));
            }
            other => return Err(unexpected("slave", &other)),
        }
        Ok(None)
    }

    /// The link died: take back what went Back. Rejoin with `hello`.
    pub fn gone(&mut self) {
        self.search.stack.append(&mut self.retained);
    }

    pub fn done(&self) -> bool {
        self.done
    }

    fn report(&self, host: &str) -> Msg {
        Msg::Stats(Box::new(self.search.report(self.rank, host, &self.group)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn work_estimate_and_back_send_count() {
        let n = 20;
        let deep = Node {
            index: 18,
            value: 0,
            capacity: 5,
        };
        let shallow = Node {
            index: 1,
            value: 0,
            capacity: 5,
        };
        assert_eq!(node_work_estimate(&deep, n), 4);
        assert_eq!(node_work_estimate(&shallow, n), 1 << 19);
        // A stack of deep nodes never triggers.
        let quiet = vec![deep; 10];
        assert_eq!(back_send_count(&quiet, n, 1000, 16), 0);
        // One hoarded shallow node triggers, is offered back (bottom
        // first), and the stack is never fully drained.
        let hoard = vec![shallow, deep, deep];
        let k = back_send_count(&hoard, n, 1000, 16);
        assert!(k >= 1, "hoard should trigger");
        assert!(k < hoard.len(), "never empty the stack");
        // back_unit caps the shipment.
        let many = vec![shallow; 8];
        assert!(back_send_count(&many, n, 1000, 3) <= 3);
        // Estimates saturate rather than overflow for huge depths.
        let huge = Node {
            index: 0,
            value: 0,
            capacity: 0,
        };
        assert_eq!(back_send_count(&[huge; 4], 80, u64::MAX - 1, 16), 2);
    }

    fn node(index: u32, value: u64, capacity: u64) -> Node {
        Node {
            index,
            value,
            capacity,
        }
    }

    #[test]
    fn messages_roundtrip_on_the_wire() {
        let stats = RankStats {
            rank: 3,
            host: "h3".into(),
            group: "COMPaS".into(),
            traversed: 10,
            steals: 2,
            back_sends: 1,
            local_best: 9,
        };
        for msg in [
            Msg::Steal { best: 5 },
            Msg::Nodes {
                best: 77,
                nodes: vec![node(1, 2, 3), node(4, 5, 6)],
            },
            Msg::Back {
                best: 1,
                nodes: vec![node(4, 0, 0)],
            },
            Msg::Done,
            Msg::Stats(Box::new(stats)),
        ] {
            let (tag, payload) = msg.encode();
            assert_eq!(Msg::decode(tag, &payload, 4).unwrap(), msg);
        }
        // The words the real path has always sent.
        assert_eq!(Msg::Steal { best: 5 }.encode(), (10, words([5])));
        assert_eq!(
            Msg::Nodes {
                best: 7,
                nodes: vec![node(1, 2, 3)]
            }
            .encode(),
            (11, words([7, 1, 2, 3]))
        );
        assert_eq!(Msg::Done.encode(), (13, Vec::new()));
        // 2 words: malformed.
        assert!(Msg::decode(11, &[0u8; 16], 4).is_err());
        assert!(Msg::decode(14, &[0u8; 40], 4).is_err());
        assert!(Msg::decode(99, &[], 4).is_err());
    }

    #[test]
    fn shipments_naming_a_node_past_the_items_are_refused() {
        for tag in [TAG_NODES, TAG_BACK] {
            // index == n is a leaf: fine.
            assert!(Msg::decode(tag, &words([0, 4, 0, 0]), 4).is_ok());
            for index in [5, u64::from(u32::MAX) + 1, u64::MAX] {
                let err = Msg::decode(tag, &words([0, 1, 0, 0, index, 0, 0]), 4).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{index}");
            }
        }
    }

    /// splitmix64: a seeded delivery order without a dependency.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// One live link between the master and slave `slave`: what each
    /// side has sent and the other not yet received, in order.
    struct Link {
        slave: usize,
        up: VecDeque<Msg>,
        down: VecDeque<Msg>,
    }

    #[derive(Clone, Copy)]
    enum Step {
        MasterWork,
        SlaveWork(usize),
        Join(usize),
        Up(u32),
        Down(u32),
        Kill(u32),
    }

    /// One master and `k` slaves over in-memory links, every step
    /// (a batch on some rank, one delivery on some link, a link death)
    /// picked by `seed`. A slave whose link died keeps working and
    /// joins again under a new link once its stack is dry. Returns the
    /// result, or `None` if the run did not end within a step budget.
    fn interleave(
        n: usize,
        params: ParParams,
        k: usize,
        deaths: u32,
        seed: u64,
    ) -> Option<RunResult> {
        let inst = Instance::no_pruning(n);
        let mut rng = Rng(seed);
        let mut master = Master::new(&inst, params, k);
        let mut slaves: Vec<Slave> = (1..=k)
            .map(|r| Slave::new(&inst, params, r as u32, "g"))
            .collect();
        let host = |i: usize| format!("h{}", i + 1);
        let mut link_of: Vec<Option<u32>> = vec![None; k];
        let mut links: BTreeMap<u32, Link> = BTreeMap::new();
        let mut next_link = 0u32;
        let mut deaths_left = deaths;
        for _ in 0..2_000_000 {
            let mut steps = Vec::new();
            if master.has_work() {
                steps.push(Step::MasterWork);
            }
            for (i, s) in slaves.iter().enumerate() {
                if s.has_work() {
                    steps.push(Step::SlaveWork(i));
                } else if link_of[i].is_none() {
                    steps.push(Step::Join(i));
                }
            }
            for (&id, l) in &links {
                if !l.up.is_empty() {
                    steps.push(Step::Up(id));
                }
                if !l.down.is_empty() {
                    steps.push(Step::Down(id));
                }
            }
            if deaths_left > 0 && !links.is_empty() && rng.below(64) == 0 {
                let ids: Vec<u32> = links.keys().copied().collect();
                steps = vec![Step::Kill(ids[rng.below(ids.len())])];
            }
            let step = steps[rng.below(steps.len())];
            match step {
                Step::MasterWork => {
                    master.work(&inst);
                }
                Step::SlaveWork(i) => {
                    let s = &mut slaves[i];
                    s.work(&inst);
                    if let Some(id) = link_of[i] {
                        let up = &mut links.get_mut(&id).unwrap().up;
                        up.extend(s.surplus());
                        if !s.has_work() {
                            up.push_back(s.steal());
                        }
                    }
                }
                Step::Join(i) => {
                    next_link += 1;
                    master.joined(next_link);
                    link_of[i] = Some(next_link);
                    let hello = slaves[i].hello(&host(i));
                    links.insert(
                        next_link,
                        Link {
                            slave: i,
                            up: VecDeque::from([hello]),
                            down: VecDeque::new(),
                        },
                    );
                }
                Step::Up(id) => {
                    let msg = links.get_mut(&id).unwrap().up.pop_front().unwrap();
                    if let Heard::Reply(reply) = master.on_msg(id, msg).unwrap() {
                        links.get_mut(&id).unwrap().down.push_back(reply);
                    }
                }
                Step::Down(id) => {
                    let l = links.get_mut(&id).unwrap();
                    let msg = l.down.pop_front().unwrap();
                    l.up.extend(slaves[l.slave].on_msg(msg, &host(l.slave)).unwrap());
                }
                Step::Kill(id) => {
                    deaths_left -= 1;
                    let l = links.remove(&id).unwrap();
                    link_of[l.slave] = None;
                    master.gone(id);
                    slaves[l.slave].gone();
                }
            }
            // The master serves and asks the finish rule after every step.
            while let Some((id, msg)) = master.serve() {
                links.get_mut(&id).unwrap().down.push_back(msg);
            }
            if !master.has_work() {
                for (id, msg) in master.finish().into_iter().flatten() {
                    links.get_mut(&id).unwrap().down.push_back(msg);
                }
            }
            if let Some(rr) = master.result("h0", "g", 0.0) {
                return Some(rr);
            }
        }
        None
    }

    #[test]
    fn seeded_interleavings_find_the_optimum_and_terminate() {
        let n = 12;
        let optimum = Instance::no_pruning(n).total_profit();
        let full = Instance::full_tree_nodes(n);
        // A threshold above the whole tree: nothing is ever sent back.
        let base = ParParams {
            interval: 4,
            steal_unit: 3,
            back_threshold_nodes: full,
            ..ParParams::default()
        };
        let backs = ParParams {
            back_threshold_nodes: 16,
            back_unit: 2,
            ..base
        };
        let mut duplicated = 0;
        for (params, expect_backs) in [(base, false), (backs, true)] {
            for seed in 0..24 {
                for deaths in [0, 6] {
                    let what = format!("seed {seed}, {deaths} deaths, {params:?}");
                    let rr = interleave(n, params, 3, deaths, seed)
                        .unwrap_or_else(|| panic!("did not terminate: {what}"));
                    assert_eq!(rr.best, optimum, "{what}");
                    assert_eq!(rr.ranks.len(), 4, "{what}");
                    if deaths == 0 {
                        assert_eq!(rr.total_traversed(), full, "{what}");
                    } else {
                        assert!(rr.total_traversed() >= full, "lost a subtree: {what}");
                        duplicated += usize::from(rr.total_traversed() > full);
                    }
                    let sent_back: u64 = rr.ranks.iter().map(|r| r.back_sends).sum();
                    assert_eq!(
                        sent_back > 0,
                        expect_backs,
                        "{what}: {sent_back} Back shipments"
                    );
                }
            }
        }
        // Deaths did strike work in flight, and it was re-queued.
        assert!(duplicated > 0);
    }
}
