//! Virtual-time master-slave knapsack: the `sched` core driven
//! by `netsim` actors, so wide-area timing (WAN latency, the Nexus Proxy
//! relays, heterogeneous CPU rates) shapes the execution — the driver
//! behind the paper's Tables 4-6. A batch of `ops` branch operations is
//! charged `ops / cpu_rate` virtual seconds; the search itself runs for
//! real, so node counts, steals and the optimum are exact. Flows die
//! here (proxy crashes, WAN loss), and the actors tell the core.

use crate::instance::Instance;
use crate::sched::{Heard, Master, Msg, ParParams, Slave};
use crate::stats::RunResult;
use netsim::prelude::*;
use nexus_proxy::sim::{NxActor, NxApp, NxClient, NxEvent, NxHandled, SimProxyEnv};
use std::sync::Arc;
use wacs_sync::Mutex;

/// Abort on a wiring bug in the actor plumbing (never a runtime input);
/// one place keeps every call site clean under the no-panic lint.
#[allow(clippy::panic)]
fn sim_bug(what: &str, detail: impl std::fmt::Debug) -> ! {
    panic!("knapsack sim wiring bug: {what}: {detail:?}") // lint:allow(unwrap-panic)
}

/// Cross-actor coordination and result channel.
#[derive(Default)]
pub struct SimShared {
    master_addr: Option<(NodeId, u16)>,
    pub result: Option<RunResult>,
    /// Proxy-layer retries (dial retries, re-binds) across all ranks.
    pub nx_retries: u64,
    /// Metrics registry of every actor in the run (and, via
    /// `Simulator::install_obs`, of the engine); virtual time only.
    pub obs: wacs_obs::Registry,
}

pub type Shared = Arc<Mutex<SimShared>>;

const WORK: u64 = 1;
const POLL: u64 = 2;

/// Send at the modelled size; `false` if the flow is already severed
/// (its `Closed` event is still in flight).
fn send(ctx: &mut Ctx<'_>, flow: FlowId, msg: Msg) -> bool {
    let size = msg.wire_size();
    ctx.send(flow, size, msg).is_ok()
}

/// The virtual time a batch of `ops` branch operations takes here.
fn cost(ctx: &Ctx<'_>, ops: u32) -> SimDuration {
    SimDuration::from_secs_f64(f64::from(ops) / ctx.cpu_rate().max(1.0))
}

/// The master actor (rank 0).
pub struct MasterActor {
    inst: Arc<Instance>,
    core: Master<FlowId>,
    shared: Shared,
    group: String,
    /// A bind has succeeded once (a failed *re*-bind is not a rig bug).
    ever_bound: bool,
    /// A WORK timer is pending: the last batch is still being charged.
    working: bool,
    started_at: SimTime,
}

impl MasterActor {
    /// The master, in the shell of a client on `env`.
    pub fn new(
        inst: Arc<Instance>,
        params: ParParams,
        env: SimProxyEnv,
        shared: Shared,
        group: impl Into<String>,
        nslaves: usize,
    ) -> NxActor<Self> {
        let core = Master::new(&inst, params, nslaves);
        let nx = NxClient::new(env).with_obs(&shared.lock().obs);
        let master = MasterActor {
            inst,
            core,
            shared,
            group: group.into(),
            ever_bound: false,
            working: false,
            started_at: SimTime::ZERO,
        };
        NxActor::new(nx, master)
    }

    fn schedule_work(&mut self, ctx: &mut Ctx<'_>, after: SimDuration) {
        if !self.working {
            self.working = true;
            ctx.set_timer(after, WORK);
        }
    }

    fn serve(&mut self, ctx: &mut Ctx<'_>) {
        while let Some((flow, msg)) = self.core.serve() {
            if !send(ctx, flow, msg) {
                self.core.unsent(flow); // the slave will re-steal
            }
        }
    }

    /// Ask the finish rule, once the last batch has been charged.
    fn maybe_finish(&mut self, nx: &NxClient, ctx: &mut Ctx<'_>) {
        if self.working {
            return;
        }
        for (flow, msg) in self.core.finish().into_iter().flatten() {
            send(ctx, flow, msg);
        }
        self.maybe_publish(nx, ctx);
    }

    fn maybe_publish(&mut self, nx: &NxClient, ctx: &mut Ctx<'_>) {
        let elapsed = ctx.now().since(self.started_at).as_secs_f64();
        let Some(result) = self.core.result(ctx.host_name(), &self.group, elapsed) else {
            return;
        };
        let mut sh = self.shared.lock();
        sh.nx_retries += nx.retries();
        sh.result = Some(result);
        drop(sh);
        ctx.stop_simulation();
    }

    fn handle_data(&mut self, nx: &NxClient, ctx: &mut Ctx<'_>, d: Delivery) {
        let flow = d.flow;
        match self.core.on_msg(flow, d.expect::<Msg>()) {
            Ok(Heard::Reply(msg)) => {
                send(ctx, flow, msg);
            }
            Ok(Heard::Waiting) => {
                self.serve(ctx);
                self.maybe_finish(nx, ctx);
            }
            Ok(Heard::Returned) => {
                self.serve(ctx);
                if self.core.has_work() {
                    self.schedule_work(ctx, SimDuration::ZERO);
                }
            }
            Ok(Heard::Report) => self.maybe_publish(nx, ctx),
            Err(e) => sim_bug("master got an unexpected message", e),
        }
    }
}

impl NxApp for MasterActor {
    fn name(&self) -> &str {
        "knapsack-master"
    }

    fn start(&mut self, nx: &mut NxClient, ctx: &mut Ctx<'_>) {
        self.started_at = ctx.now();
        if let Some(adv) = nx.bind(ctx) {
            self.ever_bound = true;
            self.shared.lock().master_addr = Some(adv);
        }
        self.schedule_work(ctx, SimDuration::ZERO);
    }

    fn timer(&mut self, nx: &mut NxClient, ctx: &mut Ctx<'_>, token: u64) {
        if token == WORK {
            self.working = false;
            let ops = self.core.work(&self.inst);
            self.serve(ctx);
            if ops > 0 {
                let after = cost(ctx, ops);
                self.schedule_work(ctx, after);
            } else {
                self.maybe_finish(nx, ctx);
            }
        }
    }

    fn handle(&mut self, nx: &mut NxClient, ctx: &mut Ctx<'_>, h: NxHandled) {
        match h {
            NxHandled::Event(NxEvent::Bound { advertised }) => {
                self.ever_bound = true;
                self.shared.lock().master_addr = Some(advertised);
            }
            // The outer server crashed: withdraw the dead rendezvous so
            // polling slaves wait for the fresh `Bound`.
            NxHandled::Event(NxEvent::BindLost) => self.shared.lock().master_addr = None,
            NxHandled::Event(NxEvent::Accepted { flow }) => self.core.joined(flow),
            // A failed *re*-bind (the relay stayed dead) degrades instead.
            NxHandled::Event(NxEvent::BindFailed) if !self.ever_bound => {
                sim_bug("master bind failed", ());
            }
            NxHandled::Data(d) => self.handle_data(nx, ctx, d),
            NxHandled::Flow(FlowEvent::Closed { flow, .. }) => {
                self.core.gone(flow);
                if self.core.has_work() {
                    self.schedule_work(ctx, SimDuration::ZERO);
                }
            }
            _ => {}
        }
    }
}

/// A slave actor.
pub struct SlaveActor {
    inst: Arc<Instance>,
    core: Slave,
    shared: Shared,
    master: Option<FlowId>,
    /// A dial is in flight (don't start another from a POLL tick).
    connecting: bool,
    working: bool,
    /// When the in-flight steal request left, for the steal-RTT
    /// histogram (`knapsack.steal_rtt_ns`, virtual nanos).
    steal_sent: Option<SimTime>,
    steal_rtt_ns: wacs_obs::Histogram,
}

impl SlaveActor {
    /// Slave `rank`, in the shell of a client on `env`.
    pub fn new(
        inst: Arc<Instance>,
        params: ParParams,
        env: SimProxyEnv,
        shared: Shared,
        rank: u32,
        group: impl Into<String>,
    ) -> NxActor<Self> {
        let sh = shared.lock();
        let nx = NxClient::new(env).with_obs(&sh.obs);
        let steal_rtt_ns = sh.obs.histogram("knapsack.steal_rtt_ns");
        drop(sh);
        let slave = SlaveActor {
            core: Slave::new(&inst, params, rank, group),
            inst,
            shared,
            master: None,
            connecting: false,
            working: false,
            steal_sent: None,
            steal_rtt_ns,
        };
        NxActor::new(nx, slave)
    }

    fn schedule_poll(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::from_millis(1), POLL);
    }

    fn start_work(&mut self, ctx: &mut Ctx<'_>) {
        if !self.working {
            self.working = true;
            ctx.set_timer(SimDuration::ZERO, WORK);
        }
    }

    fn on_work(&mut self, ctx: &mut Ctx<'_>) {
        self.working = false;
        let ops = self.core.work(&self.inst);
        // Surplus ships only while connected; during a master outage
        // it stays here (correct, just less balanced).
        if let Some(master) = self.master {
            if let Some(back) = self.core.surplus() {
                send(ctx, master, back);
            }
        }
        if self.core.has_work() {
            self.working = true;
            let after = cost(ctx, ops.max(1));
            ctx.set_timer(after, WORK);
        } else if let Some(master) = self.master {
            let steal = self.core.steal();
            if send(ctx, master, steal) {
                self.steal_sent = Some(ctx.now());
            }
        } else {
            // The master is restarting: poll for its (new) address.
            self.schedule_poll(ctx);
        }
    }
}

impl NxApp for SlaveActor {
    fn name(&self) -> &str {
        "knapsack-slave"
    }

    fn start(&mut self, _nx: &mut NxClient, ctx: &mut Ctx<'_>) {
        self.schedule_poll(ctx);
    }

    fn timer(&mut self, nx: &mut NxClient, ctx: &mut Ctx<'_>, token: u64) {
        if token == WORK {
            self.on_work(ctx);
        } else if token == POLL && self.master.is_none() && !self.connecting {
            let addr = self.shared.lock().master_addr;
            match addr {
                Some(dst) => {
                    self.connecting = true;
                    nx.connect(ctx, dst, 0);
                }
                None => self.schedule_poll(ctx),
            }
        }
    }

    fn handle(&mut self, nx: &mut NxClient, ctx: &mut Ctx<'_>, h: NxHandled) {
        let d = match h {
            NxHandled::Event(NxEvent::Connected { flow, .. }) => {
                self.connecting = false;
                self.master = Some(flow);
                let hello = self.core.hello(ctx.host_name());
                let steal = matches!(hello, Msg::Steal { .. });
                if send(ctx, flow, hello) && steal {
                    self.steal_sent = Some(ctx.now());
                }
                return;
            }
            // The relay chain (or the master) is down even after the
            // proxy layer's retries: poll for a re-published address.
            NxHandled::Event(NxEvent::Refused { .. }) => {
                self.connecting = false;
                self.schedule_poll(ctx);
                return;
            }
            NxHandled::Flow(FlowEvent::Closed { flow, .. }) if self.master == Some(flow) => {
                // An in-flight steal died with the flow: its RTT would
                // span the outage, not a round trip.
                self.master = None;
                self.steal_sent = None;
                self.core.gone();
                if self.core.has_work() {
                    self.start_work(ctx);
                }
                self.schedule_poll(ctx);
                return;
            }
            NxHandled::Data(d) => d,
            _ => return,
        };
        let flow = d.flow;
        let was_done = self.core.done();
        match self.core.on_msg(d.expect::<Msg>(), ctx.host_name()) {
            Ok(None) => {
                // A batch of nodes landed.
                if let Some(t0) = self.steal_sent.take() {
                    self.steal_rtt_ns.record(ctx.now().since(t0).nanos());
                }
                self.start_work(ctx);
            }
            Ok(Some(report)) => {
                if !was_done {
                    self.shared.lock().nx_retries += nx.retries();
                }
                send(ctx, flow, report);
            }
            Err(e) => sim_bug("slave got an unexpected message", e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::engine::Simulator;

    /// One open site, a master host and `k` slave hosts with the given
    /// relative CPU rates.
    fn run_sim(n_items: usize, slave_rates: &[f64], params: ParParams) -> RunResult {
        let mut topo = Topology::new();
        let site = topo.add_site("lab", None);
        let sw = topo.add_switch("sw", site);
        let master_host = topo.add_host_with_cpu("master", site, 2e5, 1);
        topo.add_link(master_host, sw, SimDuration::from_micros(100), 6.5e6);
        let mut slave_hosts = Vec::new();
        for (i, &rate) in slave_rates.iter().enumerate() {
            let h = topo.add_host_with_cpu(format!("slave{i}"), site, rate, 1);
            topo.add_link(h, sw, SimDuration::from_micros(100), 6.5e6);
            slave_hosts.push(h);
        }
        let inst = Arc::new(Instance::no_pruning(n_items));
        let shared: Shared = Arc::default();
        let mut sim = Simulator::new(topo, 42);
        sim.spawn(
            master_host,
            Box::new(MasterActor::new(
                inst.clone(),
                params,
                SimProxyEnv::direct(),
                shared.clone(),
                "Master",
                slave_rates.len(),
            )),
        );
        for (i, &h) in slave_hosts.iter().enumerate() {
            sim.spawn(
                h,
                Box::new(SlaveActor::new(
                    inst.clone(),
                    params,
                    SimProxyEnv::direct(),
                    shared.clone(),
                    (i + 1) as u32,
                    "Slaves",
                )),
            );
        }
        sim.run();
        let result = shared.lock().result.clone();
        result.expect("simulation did not produce a result")
    }

    fn fast_params() -> ParParams {
        ParParams {
            interval: 256,
            steal_unit: 8,
            ..ParParams::default()
        }
    }

    /// The paper's regime: work-per-steal must dwarf communication
    /// latency, which held on 2000-era CPUs. 2e5 nodes/s approximates
    /// that balance at our scaled-down tree sizes.
    const ERA_RATE: f64 = 2e5;

    #[test]
    fn sim_covers_entire_tree_and_finds_optimum() {
        let n = 12;
        let rr = run_sim(n, &[ERA_RATE, ERA_RATE], fast_params());
        let inst = Instance::no_pruning(n);
        assert_eq!(rr.best, inst.total_profit());
        assert_eq!(rr.total_traversed(), Instance::full_tree_nodes(n));
        assert!(rr.elapsed_secs > 0.0);
    }

    #[test]
    fn more_slaves_run_faster() {
        let n = 20;
        let t1 = run_sim(n, &[ERA_RATE], fast_params()).elapsed_secs;
        let t4 = run_sim(n, &[ERA_RATE; 4], fast_params()).elapsed_secs;
        assert!(
            t4 < t1 * 0.65,
            "4 slaves ({t4:.3}s) should beat 1 slave ({t1:.3}s)"
        );
    }

    #[test]
    fn equal_slaves_get_balanced_work() {
        let rr = run_sim(20, &[ERA_RATE; 4], fast_params());
        let counts: Vec<u64> = rr
            .ranks
            .iter()
            .filter(|r| r.rank != 0)
            .map(|r| r.traversed)
            .collect();
        let (mx, mn) = (*counts.iter().max().unwrap(), *counts.iter().min().unwrap());
        assert!(
            mx as f64 / (mn.max(1) as f64) < 5.0,
            "imbalanced: {counts:?}"
        );
    }

    #[test]
    fn heterogeneous_rates_balance_dynamically() {
        // A 4x faster slave should both traverse more nodes and steal
        // more often — self-scheduling adapts without static
        // partitioning.
        let rr = run_sim(20, &[4.0 * ERA_RATE, ERA_RATE], fast_params());
        let fast = rr.ranks.iter().find(|r| r.host == "slave0").unwrap();
        let slow = rr.ranks.iter().find(|r| r.host == "slave1").unwrap();
        assert!(
            fast.traversed > slow.traversed,
            "faster slave should do more work: {} vs {}",
            fast.traversed,
            slow.traversed
        );
        assert!(fast.steals >= slow.steals);
        // And the heterogeneous pair beats the homogeneous-slow pair.
        let slow_pair = run_sim(20, &[ERA_RATE, ERA_RATE], fast_params());
        assert!(rr.elapsed_secs < slow_pair.elapsed_secs);
    }

    /// A `steal_unit` of 0 runs as 1: served batches of 0 nodes would
    /// leave every slave stealing in a loop while the master searches
    /// alone.
    #[test]
    fn a_zero_steal_unit_runs_as_one() {
        let params = ParParams {
            steal_unit: 0,
            ..fast_params()
        };
        let rr = run_sim(12, &[ERA_RATE, ERA_RATE], params);
        let slaves = rr.ranks.iter().filter(|r| r.rank != 0);
        assert!(slaves.clone().all(|r| r.traversed > 0), "{:?}", rr.ranks);
        assert_eq!(rr.total_traversed(), Instance::full_tree_nodes(12));
    }

    #[test]
    fn master_with_no_slaves_solves_alone() {
        let rr = run_sim(10, &[], fast_params());
        assert_eq!(rr.best, Instance::no_pruning(10).total_profit());
        assert_eq!(rr.total_traversed(), Instance::full_tree_nodes(10));
    }

    #[test]
    fn deterministic_virtual_time() {
        let a = run_sim(12, &[1e6, 2e6], fast_params());
        let b = run_sim(12, &[1e6, 2e6], fast_params());
        assert_eq!(a.elapsed_secs, b.elapsed_secs);
        assert_eq!(a.ranks, b.ranks);
    }
}
