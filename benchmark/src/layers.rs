//! Per-layer measurements of the traced pass that do not depend on the
//! workload: counter and histogram deltas read from the daemons' public
//! snapshots, the floor cost of each layer timed by calling its public
//! functions directly, and the cost of relays that sit open and silent.

use crate::cells::{self, StreamCtl, MIB};
use crate::gen::{self, Rng};
use crate::host;
use crate::outcome::Outcome;
use crate::run::Config;
use crate::stats;
use crate::topo::{self, Deployment, Server, INSIDE, OUTER, OUTSIDE};
use crate::trace::Tracer;
use firewall::OUTER_PORT;
use knapsack::{seq_solve, Instance, SolveMode};
use nexus::NexusContext;
use nexus_proxy::{
    bind_key, member_tag, BufferPool, Msg, PoolConfig, ProxySnapshot, Reassembler, ShardMap,
    StripeFrame, StripePlan,
};
use rmf::GassStore;
use std::hint::black_box;
use std::io;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use wacs_obs::hist::bucket_representative;
use wacs_obs::RegistrySnapshot;

const FLOOR_ECHO_PORT: u16 = 7100;
const FLOOR_STREAM_PORT: u16 = 7101;

/// The daemons' counters and histograms at one instant.
pub struct Snap {
    outer: ProxySnapshot,
    inner: ProxySnapshot,
    outer_obs: RegistrySnapshot,
    all_obs: RegistrySnapshot,
}

impl Snap {
    pub fn take(dep: &Deployment) -> Snap {
        let mut outer = ProxySnapshot::default();
        let mut outer_obs = RegistrySnapshot::default();
        for o in &dep.outers {
            let s = o.stats();
            outer.relayed_bytes += s.relayed_bytes;
            outer.connects_ok += s.connects_ok;
            outer.relays_ok += s.relays_ok;
            outer.relays_failed += s.relays_failed;
            outer.busy_rejected += s.busy_rejected;
            outer.idle_reaped += s.idle_reaped;
            outer.pool_hits += s.pool_hits;
            outer.pool_misses += s.pool_misses;
            outer.pump_segments += s.pump_segments;
            outer.pump_coalesced_writes += s.pump_coalesced_writes;
            outer_obs.merge(&o.obs_snapshot());
        }
        let mut all_obs = outer_obs.clone();
        all_obs.merge(&dep.inner.obs_snapshot());
        Snap {
            outer,
            inner: dep.inner.stats(),
            outer_obs,
            all_obs,
        }
    }

    pub fn pump_segments(&self) -> u64 {
        self.outer.pump_segments + self.inner.pump_segments
    }
}

/// p50 (us) of the samples a histogram gained between two snapshots.
fn hist_p50_us(before: &RegistrySnapshot, after: &RegistrySnapshot, name: &str) -> f64 {
    let Some(a) = after.histograms.get(name) else {
        return 0.0;
    };
    let earlier = |idx: u16| {
        before
            .histograms
            .get(name)
            .and_then(|b| b.buckets.iter().find(|(i, _)| *i == idx))
            .map_or(0, |(_, c)| *c)
    };
    let gained: Vec<(u16, u64)> = a
        .buckets
        .iter()
        .map(|&(i, c)| (i, c.saturating_sub(earlier(i))))
        .collect();
    let total: u64 = gained.iter().map(|(_, c)| c).sum();
    let rank = total.div_ceil(2);
    let mut seen = 0;
    for (idx, c) in gained {
        seen += c;
        if c > 0 && seen >= rank {
            return bucket_representative(usize::from(idx)) as f64 / 1e3;
        }
    }
    0.0
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Layer metrics every workload has: what the daemons counted between
/// `before` and `after`. `delivered` is the payload the benchmark saw
/// arrive end to end over proxied paths in that time.
fn counters(before: &Snap, after: &Snap, delivered: u64, out: &mut Outcome) {
    let d = |f: fn(&ProxySnapshot) -> u64| {
        (
            f(&after.outer) - f(&before.outer),
            f(&after.inner) - f(&before.inner),
        )
    };
    let both = |f: fn(&ProxySnapshot) -> u64| {
        let (o, i) = d(f);
        o + i
    };
    for (metric, hist) in [
        ("outer.connect_req_p50_us", "proxy.connect_req_ns"),
        ("outer.bind_req_p50_us", "proxy.bind_req_ns"),
        ("outer.relay_bridge_p50_us", "proxy.relay_bridge_ns"),
        (
            "outer.control_handshake_p50_us",
            "proxy.control_handshake_ns",
        ),
    ] {
        out.set(
            metric,
            hist_p50_us(&before.outer_obs, &after.outer_obs, hist),
        );
    }
    out.set(
        "pump.segment_p50_us",
        hist_p50_us(&before.all_obs, &after.all_obs, "proxy.pump_segment_ns"),
    );
    out.set("outer.busy_rejected", d(|s| s.busy_rejected).0 as f64);
    out.set("outer.idle_reaped", d(|s| s.idle_reaped).0 as f64);
    out.set("inner.relays_failed", both(|s| s.relays_failed) as f64);
    out.set(
        "outer.relayed_amplification",
        ratio(d(|s| s.relayed_bytes).0, delivered),
    );
    let segments = both(|s| s.pump_segments);
    out.set(
        "pump.bytes_per_segment",
        ratio(both(|s| s.relayed_bytes), segments),
    );
    out.set(
        "pump.coalesced_share",
        ratio(both(|s| s.pump_coalesced_writes), segments),
    );
    let (hits, misses) = (both(|s| s.pool_hits), both(|s| s.pool_misses));
    out.set("pool.hit_ratio", ratio(hits, hits + misses));
    let relays = d(|s| s.connects_ok).0 + both(|s| s.relays_ok);
    out.set("pool.misses_per_relay", ratio(misses, relays));
}

/// Everything in this file, in the order the traced pass of every
/// workload ends with.
pub fn all(
    dep: &Deployment,
    before: &Snap,
    delivered: u64,
    cfg: &Config,
    out: &mut Outcome,
) -> io::Result<()> {
    counters(before, &Snap::take(dep), delivered, out);
    idle(dep, cfg.seed, cfg.window(0.15), out)?;
    floors(dep, cfg.seed, out)
}

/// Time `f` over `iters` calls; nanoseconds per call.
fn ns_per_call(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let t = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

fn mibps(bytes: usize, elapsed: Duration) -> f64 {
    bytes as f64 / MIB as f64 / elapsed.as_secs_f64()
}

/// Floor cost of each layer, by calling its public functions with
/// seeded inputs and checking what comes back. Fixed iteration counts.
fn floors(dep: &Deployment, seed: u64, out: &mut Outcome) -> io::Result<()> {
    // vnet: guarded dial, round trip and stream with no relay at all.
    {
        let echo = Server::outside(&dep.net, FLOOR_ECHO_PORT, false, topo::echo_handler)?;
        let mut dials = Vec::with_capacity(500);
        for _ in 0..500 {
            let t = Instant::now();
            let s = dep.net.dial(INSIDE, OUTSIDE, FLOOR_ECHO_PORT);
            dials.push(t.elapsed().as_nanos() as f64 / 1e3);
            out.check(s.is_ok(), "vnet dial");
        }
        let payload = gen::payload(seed, "floor-echo", 64);
        let mut s = dep.dial_direct(FLOOR_ECHO_PORT)?;
        let mut buf = [0u8; 64];
        let mut rtts = Vec::with_capacity(3000);
        for _ in 0..3000 {
            let t = Instant::now();
            let same = cells::echo_once(&mut s, &payload, &mut buf)?;
            rtts.push(t.elapsed().as_nanos() as f64 / 1e3);
            out.check(same, "vnet echo");
        }
        drop(s);
        drop(echo);
        out.set("vnet.dial_p50_us", stats::percentile(&dials, 0.5));
        out.set("vnet.rtt_p50_us", stats::percentile(&rtts, 0.5));

        let ctl = Arc::new(StreamCtl::new());
        let sink_ctl = ctl.clone();
        let sink = Server::outside(&dep.net, FLOOR_STREAM_PORT, true, move |mut s| {
            let _ = cells::stream_sink(&mut s, &sink_ctl);
        })?;
        let chunk = gen::payload(seed, "floor-stream", MIB);
        let mut s = dep.dial_direct(FLOOR_STREAM_PORT)?;
        let t = Instant::now();
        let sent = cells::stream_send(&mut s, &chunk, &ctl, &mut Tracer::new(false), |n| {
            if n >= 256 {
                ctl.stop.store(true, Ordering::Relaxed);
            }
        })?;
        out.set("vnet.stream_MiBps", mibps(sent as usize * MIB, t.elapsed()));
        out.check(!ctl.mismatch.load(Ordering::SeqCst), "vnet stream checksum");
        drop(s);
        drop(sink);
    }

    // protocol: every Msg variant, decode(encode(m)) == m.
    {
        let mix = gen::msg_mix(seed, 1200);
        let reps = 50u64;
        let mut frames = Vec::with_capacity(mix.len());
        let enc = ns_per_call(reps, |_| {
            frames.clear();
            frames.extend(
                mix.iter()
                    .map(|m| black_box(m).encode().unwrap_or_default()),
            );
        });
        let mut decoded = Vec::with_capacity(mix.len());
        let dec = ns_per_call(reps, |_| {
            decoded.clear();
            decoded.extend(frames.iter().map(|f| Msg::decode(black_box(&f[4..])).ok()));
        });
        out.set("protocol.encode_ns", enc / mix.len() as f64);
        out.set("protocol.decode_ns", dec / mix.len() as f64);
        let same = decoded.iter().zip(&mix).all(|(d, m)| d.as_ref() == Some(m));
        out.check(same && decoded.len() == mix.len(), "protocol round trip");
    }

    // pool: take and return one segment, one thread.
    {
        let pool = BufferPool::new(PoolConfig::default());
        drop(pool.get_seg());
        let per = ns_per_call(1_000_000, |_| drop(black_box(pool.get_seg())));
        out.set("pool.get_put_ns", per);
        out.check(pool.retained() == 1, "pool retains its one segment");
    }

    // stripe: frame codec, reassembly in order and shuffled, and the
    // in-memory GASS staging path built on both.
    {
        let total = 16 * MIB;
        let data = gen::payload(seed, "floor-stripe", total);
        let plan = StripePlan::new(total as u64, 2, 64 * 1024).map_err(io::Error::from)?;
        let mut frames: Vec<StripeFrame> = (0..plan.chunk_count())
            .map(|idx| {
                let at = plan.offset_of(idx) as usize;
                StripeFrame::Data {
                    transfer: 1,
                    stripe: plan.stripe_of(idx),
                    seq: plan.seq_of(idx),
                    offset: at as u64,
                    bytes: data[at..at + plan.len_of(idx) as usize].to_vec(),
                }
            })
            .collect();
        let reps = 8;
        let t = Instant::now();
        for _ in 0..reps {
            for f in &frames {
                black_box(f.encode().map_err(io::Error::from)?);
            }
        }
        out.set("stripe.encode_MiBps", mibps(total * reps, t.elapsed()));

        let reassemble = |frames: &[StripeFrame], out: &mut Outcome| -> io::Result<f64> {
            let t = Instant::now();
            for _ in 0..reps {
                let mut rx = Reassembler::new(1, 0, plan);
                for f in frames {
                    rx.accept(f).map_err(io::Error::from)?;
                }
                let whole = rx.into_payload().map_err(io::Error::from)?;
                out.check(whole == data, "stripe reassembly");
            }
            Ok(mibps(total * reps, t.elapsed()))
        };
        let in_order = reassemble(&frames, out)?;
        out.set("stripe.reassemble_MiBps", in_order);
        let mut rng = Rng::new(seed, "floor-shuffle");
        for i in (1..frames.len()).rev() {
            frames.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let shuffled = reassemble(&frames, out)?;
        out.set("stripe.reassemble_shuffled_MiBps", shuffled);

        let store = GassStore::new();
        store.put("rwcp", "in", data.clone());
        let t = Instant::now();
        for _ in 0..4 {
            store.transfer_with("gass://rwcp/in", "etl", "out", 2)?;
        }
        out.set("stripe.gass_transfer_MiBps", mibps(total * 4, t.elapsed()));
        out.check(
            store.get("etl", "out").as_ref() == Some(&data),
            "gass staged copy",
        );
    }

    // shard: owner lookup in an 8-member map.
    {
        let tags = (0..8)
            .map(|i| member_tag(&bind_key(&format!("outer{i}"), OUTER_PORT)))
            .collect();
        let map = ShardMap::new(1, tags);
        let keys: Vec<Vec<u8>> = (0..1024u16).map(|p| bind_key(INSIDE, p)).collect();
        let mut owners = [0u64; 8];
        let per = ns_per_call(200_000, |i| {
            if let Some(o) = map.owner(black_box(&keys[i as usize % keys.len()])) {
                owners[o] += 1;
            }
        });
        out.set("shard.owner_ns", per);
        out.check(owners.iter().all(|&n| n > 0), "every shard owns some key");
    }

    // nexus: attach to a proxied endpoint and send it 1 KiB messages.
    {
        let inside = NexusContext::via_proxy(dep.net.clone(), INSIDE, (OUTER, OUTER_PORT));
        let outside = NexusContext::direct(dep.net.clone(), OUTSIDE);
        let ep = inside.endpoint()?;
        let (host, port) = ep.advertised();
        let msg = gen::payload(seed, "floor-nexus", 1024);
        let mut attach = Vec::new();
        let mut send = Vec::new();
        for _ in 0..100 {
            let t = Instant::now();
            let sp = outside.attach((host, port))?;
            attach.push(t.elapsed().as_nanos() as f64 / 1e3);
            for _ in 0..20 {
                let t = Instant::now();
                sp.send(&msg)?;
                send.push(t.elapsed().as_nanos() as f64 / 1e3);
                let got = ep.recv_timeout(Duration::from_secs(10))?;
                out.check(got.as_deref() == Some(&msg[..]), "nexus delivery");
            }
        }
        out.set("nexus.attach_p50_us", stats::percentile(&attach, 0.5));
        out.set("nexus.send_p50_us", stats::percentile(&send, 0.5));
    }

    // knapsack: one thread, no communication: the compute ceiling.
    {
        let inst = Instance::no_pruning(24);
        let t = Instant::now();
        let (best, _) = seq_solve(&inst, SolveMode::Exhaustive);
        let rate = Instance::full_tree_nodes(24) as f64 / 1e6 / t.elapsed().as_secs_f64();
        out.set("knapsack.seq_Mnodes_per_s", rate);
        out.check(best == inst.total_profit(), "knapsack optimum");
    }
    Ok(())
}

/// Two relays open and silent for `window`: the threads each one holds
/// and the CPU the process burns while nothing moves.
fn idle(dep: &Deployment, seed: u64, window: Duration, out: &mut Outcome) -> io::Result<()> {
    let (sink, adv) = Server::inside(dep, true, topo::echo_handler)?;
    let threads_before = host::threads();
    let payload = gen::payload(seed, "idle", 64);
    let mut buf = [0u8; 64];
    let mut peers = Vec::new();
    for _ in 0..2 {
        let mut s = dep.dial_rendezvous(&adv)?;
        out.attempted += 1;
        if !cells::echo_once(&mut s, &payload, &mut buf)? {
            out.fail("idle: echo mismatch".to_string());
        }
        peers.push(s);
    }
    // Two of the new threads are the sink's own connection handlers.
    let held = host::threads() as f64 - threads_before as f64 - 2.0;
    out.set("outer.threads_per_relay", held / 2.0);
    let cpu = host::cpu_us();
    thread::sleep(window);
    let burnt_ms = (host::cpu_us() - cpu) / 1e3;
    out.set("pump.idle_cpu_ms_per_s", burnt_ms / window.as_secs_f64());
    drop(peers);
    drop(sink);
    Ok(())
}
