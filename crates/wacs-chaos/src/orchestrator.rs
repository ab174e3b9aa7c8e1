//! Chaos scenario orchestration over the real socket stack.
//!
//! A [`ChaosSuite`] runs one *cell* per [`FaultClass`]:
//!
//! * the six interposer classes drive echo round-trips through a real
//!   firewalled world (client inside the policy site, outer server in
//!   the DMZ, sink outside) with a [`ChaosInterposer`] on the client's
//!   control leg;
//! * `rolling_restart` restarts every shard of a 2-member outer fleet
//!   mid-striped-transfer (lanes throttled through the interposer so
//!   the transfer straddles the restarts);
//! * `inner_restart` kills and restarts the inner daemon under live
//!   passive-relay load.
//!
//! Recovery-time objectives land in the **timing** registry as
//! `wacs.chaos.recovery_ns.<class>` histograms. Per class:
//!
//! * fatal faults (`rst`, `blackhole`): first failed op → next
//!   successful op;
//! * degraded faults (`stall`, `throttle`, `delayed_fin`,
//!   `split_merge`): duration of the faulted op itself;
//! * restarts: daemon kill → first successful op through the restarted
//!   daemon.
//!
//! Decision-side facts (op counts, fault schedules, invariant
//! verdicts) land in the **drill** registry, which is byte-identical
//! across same-seed runs — the property ci.sh's determinism gate
//! checks. Restart cells register their interposer in the timing
//! registry instead: their retry counts depend on real failover
//! timing and must not pollute the deterministic snapshot.

use crate::interpose::{pace_until, ChaosInterposer};
use crate::invariants::{fnv64, InvariantLedger};
use crate::profile::{ChaosProfile, FaultClass, FaultParams, FaultRule};
use firewall::vnet::VNet;
use firewall::{Policy, NXPORT, OUTER_PORT};
use netsim::SimRng;
use nexus_proxy::{
    interposed_lane_dial, nx_proxy_bind, nx_proxy_connect, send_striped, BreakerConfig, DialLeg,
    FleetRouter, GenerationWitness, InnerConfig, InnerServer, OuterConfig, OuterServer, ProxyEnv,
    StripePlan, StripeReceiver,
};
use std::io::{self, Read, Write};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use wacs_obs::{Counter, Histogram, Registry, RegistrySnapshot};

const SINK_PORT: u16 = 7341;
const PROBE_PORT: u16 = 7342;
const PROBE_LEN: usize = 1024;
const FLEET_HOSTS: [&str; 2] = ["rwcp-outer-a", "rwcp-outer-b"];

/// Suite knobs. [`SuiteConfig::smoke`] is the CI-sized suite; a
/// larger run builds the struct directly.
#[derive(Debug, Clone, Copy)]
pub struct SuiteConfig {
    pub seed: u64,
    /// Successful echo ops per interposer cell.
    pub ops: u64,
    /// Echo payload bytes per op.
    pub payload: usize,
    /// Total striped-transfer bytes (rolling-restart cell).
    pub stripe_payload: usize,
    /// Per-lane throttle rate, bytes/s (keeps the transfer straddling
    /// the restarts).
    pub lane_rate: u64,
}

impl SuiteConfig {
    pub fn smoke(seed: u64) -> SuiteConfig {
        SuiteConfig {
            seed,
            ops: 4,
            payload: 8 * 1024,
            stripe_payload: 192 * 1024,
            lane_rate: 256 * 1024,
        }
    }
}

/// What one chaos cell did and how the stack fared.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    pub class: FaultClass,
    /// Successful operations (echo round-trips / transfers / probes).
    pub ops: u64,
    /// Total attempts including faulted failures.
    pub attempts: u64,
    /// Faults scheduled by the profile (or restarts performed).
    pub faults: u64,
    /// Recoveries measured into the RTO histogram.
    pub recoveries: u64,
    /// Payload bytes moved end to end (both directions).
    pub bytes: u64,
    pub payload_ok: bool,
    pub leaked_relays: u64,
    pub leaked_admission: u64,
    pub completed: bool,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
}

impl CellOutcome {
    fn failed(class: FaultClass) -> CellOutcome {
        CellOutcome {
            class,
            ops: 0,
            attempts: 0,
            faults: 0,
            recoveries: 0,
            bytes: 0,
            payload_ok: false,
            leaked_relays: 0,
            leaked_admission: 0,
            completed: false,
            p50_ns: 0,
            p95_ns: 0,
            p99_ns: 0,
        }
    }
}

/// Deterministic per-cell payload.
fn payload_for(seed: u64, class: FaultClass, len: usize) -> Vec<u8> {
    let mut rng = SimRng::seed_from_u64(seed ^ fnv64(class.name().as_bytes()));
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Record the wall-clock nanoseconds since `since` into `hist`.
fn record_elapsed(hist: &Histogram, since: Instant) {
    hist.record(u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX));
}

/// Poll `cond` until true or `timeout` passes.
fn wait_for(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if cond() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        pace_until(Instant::now() + Duration::from_millis(2));
    }
}

/// The single-outer firewalled world every interposer cell runs in.
fn real_world() -> VNet {
    let net = VNet::new();
    let rwcp = net.add_site("rwcp", Some(Policy::typical("rwcp")));
    let dmz = net.add_site("dmz", None);
    let etl = net.add_site("etl", None);
    net.add_host("rwcp-sun", rwcp);
    let inner_ref = net.add_host("rwcp-inner", rwcp);
    net.add_host("rwcp-outer", dmz);
    net.add_host("etl-sun", etl);
    net.reload_policy(rwcp, Policy::typical_with_nxport("rwcp", inner_ref, NXPORT));
    net
}

/// The 2-shard fleet world for the rolling-restart cell.
fn fleet_world() -> VNet {
    let net = VNet::new();
    let rwcp = net.add_site("rwcp", Some(Policy::typical("rwcp")));
    let dmz = net.add_site("dmz", None);
    let etl = net.add_site("etl", None);
    net.add_host("rwcp-sun", rwcp);
    let inner_ref = net.add_host("rwcp-inner", rwcp);
    for h in FLEET_HOSTS {
        net.add_host(h, dmz);
    }
    net.add_host("etl-sun", etl);
    net.reload_policy(rwcp, Policy::typical_with_nxport("rwcp", inner_ref, NXPORT));
    net
}

fn fleet_members() -> Vec<(String, u16)> {
    FLEET_HOSTS
        .iter()
        .map(|h| ((*h).to_string(), OUTER_PORT))
        .collect()
}

/// Fixed-length echo sink outside the firewall: each connection reads
/// exactly `len` bytes and writes them back.
fn start_echo_sink(net: &VNet, host: &str, port: u16, len: usize) -> io::Result<()> {
    let l = net.bind(host, port)?;
    thread::spawn(move || {
        while let Ok((mut s, _)) = l.accept() {
            thread::spawn(move || {
                let _ = s.set_read_timeout(Some(Duration::from_secs(10)));
                let mut buf = vec![0u8; len];
                if s.read_exact(&mut buf).is_ok() {
                    let _ = s.write_all(&buf);
                }
            });
        }
    });
    Ok(())
}

/// One echo round-trip through the proxy path.
fn echo_op(
    net: &VNet,
    env: &ProxyEnv,
    from: &str,
    dst: (&str, u16),
    payload: &[u8],
) -> io::Result<Vec<u8>> {
    let mut s = nx_proxy_connect(net, env, from, dst)?;
    s.set_read_timeout(Some(Duration::from_secs(10)))?;
    s.write_all(payload)?;
    let mut buf = vec![0u8; payload.len()];
    s.read_exact(&mut buf)?;
    Ok(buf)
}

/// The chaos scenario runner. Holds the two registries and the
/// invariant ledger; each `run_cell` builds its own isolated world.
pub struct ChaosSuite {
    cfg: SuiteConfig,
    drill: Registry,
    timing: Registry,
    ledger: InvariantLedger,
    ops_counter: Counter,
    restarts_counter: Counter,
}

impl ChaosSuite {
    pub fn new(cfg: SuiteConfig) -> ChaosSuite {
        let drill = Registry::new();
        let timing = Registry::new();
        let ledger = InvariantLedger::in_registry(&drill);
        let ops_counter = drill.counter("wacs.chaos.ops");
        let restarts_counter = drill.counter("wacs.chaos.restarts");
        ChaosSuite {
            cfg,
            drill,
            timing,
            ledger,
            ops_counter,
            restarts_counter,
        }
    }

    pub fn config(&self) -> SuiteConfig {
        self.cfg
    }

    /// The deterministic decision/verdict snapshot (the one ci.sh
    /// diffs byte-for-byte across same-seed runs).
    pub fn drill_snapshot(&self) -> RegistrySnapshot {
        self.drill.snapshot()
    }

    /// Wall-clock recovery measurements (feeds bench percentiles).
    // lint:allow(unused-pub) the one reader of wacs.chaos.recovery_ns, kept for ROADMAP items 1 and 2
    pub fn timing_snapshot(&self) -> RegistrySnapshot {
        self.timing.snapshot()
    }

    pub fn ledger(&self) -> &InvariantLedger {
        &self.ledger
    }

    fn rto_histogram(&self, class: FaultClass) -> Histogram {
        self.timing
            .histogram(&format!("wacs.chaos.recovery_ns.{}", class.name()))
    }

    /// Run every cell, [`FaultClass::ALL`] order.
    pub fn run_all(&self) -> Vec<CellOutcome> {
        FaultClass::ALL.iter().map(|c| self.run_cell(*c)).collect()
    }

    pub fn run_cell(&self, class: FaultClass) -> CellOutcome {
        let res = match class {
            FaultClass::RollingRestart => self.rolling_restart_cell(),
            FaultClass::InnerRestart => self.inner_restart_cell(),
            _ => self.interposed_cell(class),
        };
        match res {
            Ok(cell) => cell,
            Err(e) => {
                self.ledger
                    .check(&format!("{class} cell aborted: {e}"), false);
                CellOutcome::failed(class)
            }
        }
    }

    fn finish(
        &self,
        class: FaultClass,
        mut cell: CellOutcome,
        outers: &[&OuterServer],
    ) -> CellOutcome {
        for outer in outers {
            self.ledger
                .check_quiesced(class.name(), outer, Duration::from_secs(5));
            cell.leaked_relays += outer.active_relays() as u64;
            cell.leaked_admission += u64::from(outer.admission_active());
        }
        let hist = self.rto_histogram(class);
        cell.p50_ns = hist.quantile(0.50).unwrap_or(0);
        cell.p95_ns = hist.quantile(0.95).unwrap_or(0);
        cell.p99_ns = hist.quantile(0.99).unwrap_or(0);
        cell
    }

    /// One cell for an interposer fault class: every other dial on the
    /// client control leg is faulted (`period` 2), the rest pass clean.
    fn interposed_cell(&self, class: FaultClass) -> io::Result<CellOutcome> {
        let net = real_world();
        let outer = OuterServer::start(net.clone(), OuterConfig::new("rwcp-outer"))?;
        let payload = payload_for(self.cfg.seed, class, self.cfg.payload);
        start_echo_sink(&net, "etl-sun", SINK_PORT, payload.len())?;

        let params = FaultParams {
            cut_range: (512, (self.cfg.payload as u64 / 2).max(1024)),
            stall: Duration::from_millis(50),
            rate: (self.cfg.payload as u64 * 6).max(64 * 1024),
            fin_delay: Duration::from_millis(40),
            max_seg: 7,
        };
        let profile = ChaosProfile::new(self.cfg.seed)
            .with_rule(FaultRule::every(DialLeg::ClientCtrl, class, 2).with_params(params));
        let interposer = ChaosInterposer::new(profile.clone(), &self.drill);
        let env = ProxyEnv::via("rwcp-outer", OUTER_PORT).with_dial_hook(interposer.hook());
        let hist = self.rto_histogram(class);

        let mut cell = CellOutcome::failed(class);
        let mut fail_started: Option<Instant> = None;
        let mut payload_ok = true;
        let max_attempts = self.cfg.ops * 6;
        while cell.ops < self.cfg.ops && cell.attempts < max_attempts {
            let seq = cell.attempts;
            cell.attempts += 1;
            let faulted = profile.decide(DialLeg::ClientCtrl, seq).is_some();
            let t0 = Instant::now();
            match echo_op(&net, &env, "rwcp-sun", ("etl-sun", SINK_PORT), &payload) {
                Ok(got) => {
                    cell.ops += 1;
                    cell.bytes += 2 * payload.len() as u64;
                    payload_ok &= self.ledger.check_payload(class.name(), &payload, &got);
                    self.ops_counter.inc();
                    if let Some(f0) = fail_started.take() {
                        record_elapsed(&hist, f0);
                        cell.recoveries += 1;
                    } else if faulted {
                        // Degraded op: the RTO is the op's own duration.
                        record_elapsed(&hist, t0);
                        cell.recoveries += 1;
                    }
                }
                Err(_) => {
                    if fail_started.is_none() {
                        fail_started = Some(t0);
                    }
                }
            }
        }
        cell.faults = (0..cell.attempts)
            .filter(|s| profile.decide(DialLeg::ClientCtrl, *s).is_some())
            .count() as u64;
        cell.payload_ok = payload_ok;
        cell.completed = cell.ops == self.cfg.ops;
        self.ledger
            .check(&format!("{class} cell completed all ops"), cell.completed);
        Ok(self.finish(class, cell, &[&outer]))
    }

    /// Rolling restart of the 2-shard outer fleet mid-striped-transfer.
    fn rolling_restart_cell(&self) -> io::Result<CellOutcome> {
        let class = FaultClass::RollingRestart;
        let net = fleet_world();
        let members = fleet_members();
        let mk_cfg = |idx: usize| {
            OuterConfig::new(FLEET_HOSTS[idx])
                .with_fleet(members.clone(), idx)
                .with_breaker(BreakerConfig {
                    threshold: 2,
                    cooldown: Duration::from_millis(40),
                })
        };
        let mut fleet: Vec<Option<OuterServer>> = (0..members.len())
            .map(|idx| OuterServer::start(net.clone(), mk_cfg(idx)).map(Some))
            .collect::<io::Result<_>>()?;
        let router = FleetRouter::new(
            members.clone(),
            BreakerConfig {
                threshold: 2,
                cooldown: Duration::from_millis(50),
            },
        );
        let witness = GenerationWitness::new();
        witness.observe(router.generation());

        // Probe sink (restart-recovery measurement) and stripe sink.
        start_echo_sink(&net, "etl-sun", PROBE_PORT, PROBE_LEN)?;
        let receiver = Arc::new(StripeReceiver::new());
        let stripe_sink = net.bind("etl-sun", SINK_PORT)?;
        let rcv = receiver.clone();
        thread::spawn(move || {
            while let Ok((s, _)) = stripe_sink.accept() {
                let rcv = rcv.clone();
                thread::spawn(move || {
                    let _ = s.set_read_timeout(Some(Duration::from_secs(10)));
                    // Mid-frame EOF on a killed lane is expected; the
                    // dedup in the receiver absorbs the resend.
                    let _ = rcv.feed(s, None);
                });
            }
        });

        // Lane throttle via the interposer so the transfer straddles
        // both restarts. Retry counts here depend on real failover
        // timing, so the interposer registers in the TIMING registry —
        // never in the deterministic drill snapshot.
        let lane_profile = ChaosProfile::new(self.cfg.seed).with_rule(
            FaultRule::every(DialLeg::StripeLane, FaultClass::Throttle, 1).with_params(
                FaultParams {
                    rate: self.cfg.lane_rate,
                    ..FaultParams::default()
                },
            ),
        );
        let lane_ip = ChaosInterposer::new(lane_profile, &self.timing);
        let env = ProxyEnv::via_fleet(router.clone());
        let payload = payload_for(self.cfg.seed, class, self.cfg.stripe_payload);
        let plan = StripePlan::new(payload.len() as u64, 4, 16 * 1024)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, format!("{e:?}")))?;

        let sender = {
            let net = net.clone();
            let env = env.clone();
            let hook = lane_ip.hook();
            let payload = payload.clone();
            thread::spawn(move || {
                let dial = interposed_lane_dial(Some(&hook), "rwcp-sun", |_stripe, _attempt| {
                    nx_proxy_connect(&net, &env, "rwcp-sun", ("etl-sun", SINK_PORT))
                });
                send_striped(&payload, &plan, 1, 7, 16, None, dial)
            })
        };

        let mut cell = CellOutcome::failed(class);
        let hist = self.rto_histogram(class);
        let probe_payload = payload_for(self.cfg.seed, class, PROBE_LEN);
        for idx in 0..members.len() {
            pace_until(Instant::now() + Duration::from_millis(120));
            let t_kill = Instant::now();
            fleet[idx] = None; // drop: the shard dies with relays live
            let restarted = OuterServer::start(net.clone(), mk_cfg(idx))?;
            let generation = router.generation() + 1;
            router.install(generation, members.clone());
            for outer in fleet.iter().flatten() {
                outer.install_fleet(generation, members.clone());
            }
            restarted.install_fleet(generation, members.clone());
            fleet[idx] = Some(restarted);
            self.restarts_counter.inc();
            cell.faults += 1;
            witness.observe(router.generation());
            for outer in fleet.iter().flatten() {
                witness.observe(outer.fleet_generation());
            }

            // RTO: kill -> first successful op through the restarted
            // shard specifically.
            let probe_env = ProxyEnv::via(FLEET_HOSTS[idx], OUTER_PORT);
            let deadline = Instant::now() + Duration::from_secs(8);
            while Instant::now() < deadline {
                cell.attempts += 1;
                if let Ok(got) = echo_op(
                    &net,
                    &probe_env,
                    "rwcp-sun",
                    ("etl-sun", PROBE_PORT),
                    &probe_payload,
                ) {
                    record_elapsed(&hist, t_kill);
                    cell.recoveries += 1;
                    cell.ops += 1;
                    cell.bytes += 2 * PROBE_LEN as u64;
                    self.ops_counter.inc();
                    self.ledger
                        .check_payload("rolling_restart probe", &probe_payload, &got);
                    break;
                }
                pace_until(Instant::now() + Duration::from_millis(5));
            }
        }

        let report = sender
            .join()
            .map_err(|_| io::Error::other("stripe sender panicked"))??;
        let delivered = wait_for(Duration::from_secs(10), || receiver.result().is_some());
        self.ledger
            .check("rolling_restart transfer delivered", delivered);
        let mut payload_ok = false;
        if let Some((tag, got)) = receiver.result() {
            payload_ok = self
                .ledger
                .check_payload("rolling_restart transfer", &payload, &got)
                && tag == 7;
            cell.ops += 1;
            cell.bytes += got.len() as u64;
            self.ops_counter.inc();
        }
        cell.payload_ok = payload_ok;
        cell.completed = delivered && cell.recoveries == members.len() as u64;
        cell.bytes += report.bytes;
        self.ledger
            .check_generations("rolling_restart fleet", &witness);
        self.ledger
            .check("rolling_restart cell completed", cell.completed);
        let live: Vec<&OuterServer> = fleet.iter().flatten().collect();
        Ok(self.finish(class, cell, &live))
    }

    /// Kill and restart the inner daemon under live passive-relay load.
    fn inner_restart_cell(&self) -> io::Result<CellOutcome> {
        let class = FaultClass::InnerRestart;
        let net = real_world();
        let inner = InnerServer::start(net.clone(), InnerConfig::new("rwcp-inner"))?;
        let outer = OuterServer::start(
            net.clone(),
            OuterConfig::new("rwcp-outer")
                .with_inner("rwcp-inner", NXPORT)
                .with_heartbeat(nexus_proxy::HeartbeatConfig {
                    interval: Duration::from_millis(20),
                    timeout: Duration::from_millis(120),
                })
                .with_breaker(BreakerConfig {
                    threshold: 2,
                    cooldown: Duration::from_millis(40),
                }),
        )?;
        let env = ProxyEnv::via("rwcp-outer", OUTER_PORT);
        let listener = nx_proxy_bind(&net, &env, "rwcp-sun")?;
        let adv = listener.advertised.clone();
        let payload = payload_for(self.cfg.seed, class, PROBE_LEN);

        // The bound client echoes every accepted relay.
        thread::spawn(move || {
            while let Ok(mut s) = listener.accept() {
                thread::spawn(move || {
                    let _ = s.set_read_timeout(Some(Duration::from_secs(10)));
                    let mut buf = vec![0u8; PROBE_LEN];
                    if s.read_exact(&mut buf).is_ok() {
                        let _ = s.write_all(&buf);
                    }
                });
            }
        });

        let relay_op = |attempts: &mut u64| -> io::Result<Vec<u8>> {
            *attempts += 1;
            let mut s = net.dial("etl-sun", &adv.0, adv.1)?;
            s.set_read_timeout(Some(Duration::from_secs(10)))?;
            s.write_all(&payload)?;
            let mut buf = vec![0u8; payload.len()];
            s.read_exact(&mut buf)?;
            Ok(buf)
        };

        let mut cell = CellOutcome::failed(class);
        let hist = self.rto_histogram(class);
        let mut payload_ok = true;
        let pre_ops = (self.cfg.ops / 2).max(2);
        let post_ops = self.cfg.ops.saturating_sub(pre_ops).max(1);
        for _ in 0..pre_ops {
            let got = relay_op(&mut cell.attempts)?;
            payload_ok &= self
                .ledger
                .check_payload("inner_restart pre", &payload, &got);
            cell.ops += 1;
            cell.bytes += 2 * payload.len() as u64;
            self.ops_counter.inc();
        }

        let t_kill = Instant::now();
        drop(inner);
        let detected = wait_for(Duration::from_secs(5), || outer.stats().inner_deaths >= 1);
        self.ledger.check("inner_restart death detected", detected);
        let _inner2 = InnerServer::start(net.clone(), InnerConfig::new("rwcp-inner"))?;
        self.restarts_counter.inc();
        cell.faults += 1;

        // RTO: kill -> first successful passive relay through the
        // restarted inner daemon.
        let deadline = Instant::now() + Duration::from_secs(8);
        let mut recovered = false;
        while Instant::now() < deadline {
            if let Ok(got) = relay_op(&mut cell.attempts) {
                record_elapsed(&hist, t_kill);
                cell.recoveries += 1;
                recovered = true;
                payload_ok &= self
                    .ledger
                    .check_payload("inner_restart recovery", &payload, &got);
                cell.ops += 1;
                cell.bytes += 2 * payload.len() as u64;
                self.ops_counter.inc();
                break;
            }
            pace_until(Instant::now() + Duration::from_millis(5));
        }
        self.ledger.check("inner_restart recovered", recovered);

        for _ in 0..post_ops {
            let got = relay_op(&mut cell.attempts)?;
            payload_ok &= self
                .ledger
                .check_payload("inner_restart post", &payload, &got);
            cell.ops += 1;
            cell.bytes += 2 * payload.len() as u64;
            self.ops_counter.inc();
        }

        cell.payload_ok = payload_ok;
        cell.completed = recovered && cell.ops == pre_ops + 1 + post_ops;
        self.ledger
            .check("inner_restart cell completed", cell.completed);
        Ok(self.finish(class, cell, &[&outer]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_merge_cell_is_byte_exact() {
        let suite = ChaosSuite::new(SuiteConfig::smoke(11));
        let cell = suite.run_cell(FaultClass::SplitMerge);
        assert!(cell.completed, "{cell:?}");
        assert!(cell.payload_ok);
        assert_eq!(cell.leaked_relays, 0);
        assert_eq!(cell.leaked_admission, 0);
        assert!(cell.faults >= 1);
        assert!(suite.ledger().ok(), "{:?}", suite.ledger().violations());
    }

    #[test]
    fn blackhole_cell_measures_failure_to_success_recovery() {
        let suite = ChaosSuite::new(SuiteConfig::smoke(12));
        let cell = suite.run_cell(FaultClass::Blackhole);
        assert!(cell.completed, "{cell:?}");
        assert!(cell.recoveries >= 1, "{cell:?}");
        assert!(cell.attempts > cell.ops, "faulted dials must have failed");
        assert!(cell.p99_ns >= cell.p50_ns);
        assert!(cell.p50_ns > 0);
    }

    #[test]
    fn drill_snapshot_is_deterministic_across_same_seed_runs() {
        let run = |seed| {
            let suite = ChaosSuite::new(SuiteConfig::smoke(seed));
            suite.run_cell(FaultClass::Blackhole);
            suite.run_cell(FaultClass::SplitMerge);
            suite.drill_snapshot().to_json()
        };
        assert_eq!(run(33), run(33));
    }

    #[test]
    fn inner_restart_cell_recovers_relays() {
        let suite = ChaosSuite::new(SuiteConfig::smoke(13));
        let cell = suite.run_cell(FaultClass::InnerRestart);
        assert!(cell.completed, "{cell:?}");
        assert!(cell.recoveries == 1 && cell.faults == 1);
        assert!(cell.p50_ns > 0);
        assert!(suite.ledger().ok(), "{:?}", suite.ledger().violations());
    }

    #[test]
    fn rolling_restart_cell_survives_fleet_restarts() {
        let suite = ChaosSuite::new(SuiteConfig::smoke(14));
        let cell = suite.run_cell(FaultClass::RollingRestart);
        assert!(cell.completed, "{cell:?}");
        assert!(cell.payload_ok);
        assert_eq!(cell.faults, 2);
        assert_eq!(cell.recoveries, 2);
        assert!(suite.ledger().ok(), "{:?}", suite.ledger().violations());
    }
}
