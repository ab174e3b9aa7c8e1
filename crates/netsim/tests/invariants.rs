//! Property tests on simulator invariants: conservation (every sent
//! message is delivered exactly once on open topologies), per-flow
//! FIFO ordering, routing sanity on random topologies, and run
//! determinism under arbitrary parameters.
//!
//! Cases come from a seeded [`SimRng`] stream, so the sweep is
//! deterministic and reproducible offline.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use netsim::prelude::*;
use std::sync::Arc;
use wacs_sync::Mutex;

/// Random connected topology: `n` hosts hung off a random tree of
/// switches; returns (topo, hosts).
fn random_topology(
    n_hosts: usize,
    n_switches: usize,
    edges_extra: &[(usize, usize)],
    lat_us: &[u64],
) -> (Topology, Vec<NodeId>) {
    let mut topo = Topology::new();
    let site = topo.add_site("world", None);
    let switches: Vec<NodeId> = (0..n_switches.max(1))
        .map(|i| topo.add_switch(format!("s{i}"), site))
        .collect();
    // Tree over switches.
    for i in 1..switches.len() {
        let parent = (i - 1) / 2;
        let lat = SimDuration::from_micros(lat_us[i % lat_us.len()].clamp(10, 5000));
        topo.add_link(switches[i], switches[parent], lat, 5e6);
    }
    // Extra cross edges (may create cycles; Dijkstra must cope).
    for &(a, b) in edges_extra {
        let (a, b) = (a % switches.len(), b % switches.len());
        if a != b && topo.route(switches[a], switches[b]).map(|p| p.len()) != Some(1) {
            topo.add_link(
                switches[a],
                switches[b],
                SimDuration::from_micros(lat_us[(a + b) % lat_us.len()].clamp(10, 5000)),
                5e6,
            );
        }
    }
    let hosts: Vec<NodeId> = (0..n_hosts)
        .map(|i| {
            let h = topo.add_host(format!("h{i}"), site);
            let sw = switches[i % switches.len()];
            topo.add_link(
                h,
                sw,
                SimDuration::from_micros(lat_us[i % lat_us.len()].clamp(10, 5000)),
                8e6,
            );
            h
        })
        .collect();
    (topo, hosts)
}

/// `len` random values in `[lo, hi)`.
fn vec_in(rng: &mut SimRng, len: usize, lo: u64, hi: u64) -> Vec<u64> {
    (0..len).map(|_| lo + rng.below(hi - lo)).collect()
}

type Recorded = Arc<Mutex<Vec<u64>>>;

/// Receiver that records the sequence numbers it gets.
struct Sink {
    port: u16,
    got: Recorded,
    expect: u64,
}

impl Actor for Sink {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.listen(self.port).unwrap();
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Delivery) {
        let seq = msg.expect::<u64>();
        self.got.lock().push(seq);
        if self.got.lock().len() as u64 == self.expect {
            ctx.stop_simulation();
        }
    }
}

/// Sender that fires `count` sequenced messages with varying sizes.
struct Source {
    dst: (NodeId, u16),
    count: u64,
    sizes: Vec<u64>,
}

impl Actor for Source {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.connect(self.dst, 0);
    }
    fn on_flow(&mut self, ctx: &mut Ctx<'_>, ev: FlowEvent) {
        if let FlowEvent::Connected { flow, .. } = ev {
            for i in 0..self.count {
                let size = self.sizes[(i as usize) % self.sizes.len()];
                ctx.send(flow, size, i).unwrap();
            }
        }
    }
}

/// Conservation + FIFO: `count` messages on one flow arrive exactly
/// once each, in order, regardless of topology shape, latencies and
/// message sizes.
#[test]
fn delivery_conservation_and_fifo() {
    let mut rng = SimRng::seed_from_u64(0xf1f0);
    for _ in 0..24 {
        let n_switches = 1 + rng.below(5) as usize;
        let n_extra = rng.below(4) as usize;
        let extra: Vec<(usize, usize)> = (0..n_extra)
            .map(|_| (rng.below(6) as usize, rng.below(6) as usize))
            .collect();
        let n_lat = 1 + rng.below(3) as usize;
        let lat_us = vec_in(&mut rng, n_lat, 10, 5000);
        let n_sizes = 1 + rng.below(4) as usize;
        let sizes = vec_in(&mut rng, n_sizes, 0, 100_000);
        let count = 1 + rng.below(39);
        let seed = rng.next_u64();

        let (topo, hosts) = random_topology(2, n_switches, &extra, &lat_us);
        let mut sim = Simulator::new(topo, seed);
        let got: Recorded = Arc::default();
        sim.spawn(
            hosts[1],
            Box::new(Sink {
                port: 7,
                got: got.clone(),
                expect: count,
            }),
        );
        sim.spawn(
            hosts[0],
            Box::new(Source {
                dst: (hosts[1], 7),
                count,
                sizes,
            }),
        );
        sim.run();
        let got = got.lock().clone();
        assert_eq!(
            got.len() as u64,
            count,
            "every message delivered exactly once"
        );
        assert!(
            got.windows(2).all(|w| w[0] < w[1]),
            "per-flow FIFO: {got:?}"
        );
        assert_eq!(sim.stats().messages_sent, count);
        assert_eq!(sim.stats().messages_delivered, count);
    }
}

/// Routing sanity on random graphs: routes exist between all host
/// pairs, are symmetric in cost, and path_nodes endpoints match.
#[test]
fn routing_sane() {
    let mut rng = SimRng::seed_from_u64(0x40d7e);
    for _ in 0..24 {
        let n_hosts = 2 + rng.below(4) as usize;
        let n_switches = 1 + rng.below(6) as usize;
        let n_extra = rng.below(5) as usize;
        let extra: Vec<(usize, usize)> = (0..n_extra)
            .map(|_| (rng.below(7) as usize, rng.below(7) as usize))
            .collect();
        let n_lat = 1 + rng.below(3) as usize;
        let lat_us = vec_in(&mut rng, n_lat, 10, 5000);

        let (topo, hosts) = random_topology(n_hosts, n_switches, &extra, &lat_us);
        for &a in &hosts {
            for &b in &hosts {
                if a == b {
                    continue;
                }
                let p = topo.route(a, b).expect("connected topology");
                let nodes = topo.path_nodes(a, &p);
                assert_eq!(nodes[0], a);
                assert_eq!(*nodes.last().unwrap(), b);
                // Cost symmetry (links are duplex with equal latency).
                let q = topo.route(b, a).unwrap();
                assert_eq!(topo.path_latency(&p), topo.path_latency(&q));
            }
        }
    }
}

/// Determinism: identical inputs produce identical event counts,
/// final times, and delivery sequences.
#[test]
fn runs_are_deterministic() {
    let mut rng = SimRng::seed_from_u64(0xde7e);
    for _ in 0..24 {
        let n_switches = 1 + rng.below(4) as usize;
        let n_lat = 1 + rng.below(2) as usize;
        let lat_us = vec_in(&mut rng, n_lat, 10, 3000);
        let n_sizes = 1 + rng.below(3) as usize;
        let sizes = vec_in(&mut rng, n_sizes, 0, 50_000);
        let count = 1 + rng.below(19);
        let seed = rng.next_u64();

        let run = || {
            let (topo, hosts) = random_topology(2, n_switches, &[], &lat_us);
            let mut sim = Simulator::new(topo, seed);
            let got: Recorded = Arc::default();
            sim.spawn(
                hosts[1],
                Box::new(Sink {
                    port: 7,
                    got: got.clone(),
                    expect: count,
                }),
            );
            sim.spawn(
                hosts[0],
                Box::new(Source {
                    dst: (hosts[1], 7),
                    count,
                    sizes: sizes.clone(),
                }),
            );
            let end = sim.run();
            let events = sim.stats().events_processed;
            let seqs = got.lock().clone();
            (end, events, seqs)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }
}
