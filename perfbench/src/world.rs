//! The three workload worlds, assembled from the crates' public
//! constructors, and the checks every run ends in.
//!
//! Each world can be built plain (the timed pass) or with every layer
//! wrapped in a [`crate::prof`] delegate (the traced pass); both build the
//! same nodes, interfaces and links in the same order, so a traced run is
//! event-for-event the plain run.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use smapp::{ControllerRuntime, RefreshConfig, RefreshController};
use smapp_bench::scenarios::fleet;
use smapp_bench::sweep::fnv1a;
use smapp_mptcp::apps::{BulkSender, GetClient, GetProgress, GetServer, Sink};
use smapp_mptcp::{App, StackConfig};
use smapp_netlink::LatencyModel;
use smapp_pm::topo::{CLIENT_ADDR1, SERVER_ADDR};
use smapp_pm::{Host, NdiffportsPm};
use smapp_sim::{
    Addr, AddrPrefix, CollectorSink, Dir, InstallPolicy, LinkCfg, LinkId, LossModel, Netem,
    NetemScript, Node, NodeId, Oracle, Router, RunSummary, SimTime, Simulator, StopReason,
};

use crate::prof::{Layer, TimedApp, TimedNode, TimedPm, TimedSink, TimedUser};

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The fig2c world with a 20 MB transfer: 5 subflows, the refresh
    /// controller, 4 ECMP paths of 8 Mb/s with 10–40 ms delay.
    BulkEcmp,
    /// The fleet world: 400 clients × 4 chained 2 KB GETs, half on kernel
    /// ndiffports and half on the userspace refresh controller.
    ChurnFleet,
    /// `BulkEcmp` with 1% Bernoulli loss on every path.
    LossyEcmp,
}

impl Workload {
    /// Parse a workload name as `BENCHMARK.json` spells it.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "bulk_ecmp" => Some(Workload::BulkEcmp),
            "churn_fleet" => Some(Workload::ChurnFleet),
            "lossy_ecmp" => Some(Workload::LossyEcmp),
            _ => None,
        }
    }

    /// The name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkEcmp => "bulk_ecmp",
            Workload::ChurnFleet => "churn_fleet",
            Workload::LossyEcmp => "lossy_ecmp",
        }
    }

    /// World seeds each run of the timed and traced passes cycles through.
    /// How much work an ECMP world does depends on which paths its
    /// subflows hash onto, so those passes take the median over more
    /// worlds; every fleet world does the same work.
    pub fn worlds_per_run(self) -> u64 {
        match self {
            Workload::BulkEcmp | Workload::LossyEcmp => 8,
            Workload::ChurnFleet => 2,
        }
    }
}

/// Bytes the ECMP workloads transfer: a fifth of the paper's 100 MB file,
/// so that a run takes a fifth of a second and each world runs many times.
/// At 100 MB the work of a world seed varies by 10% (events, 32 seeds); at
/// 20 MB most seeds are within 1% of each other.
pub const BULK_BYTES: u64 = 20_000_000;
/// The paper's file, which the fig2c twin-parity run transfers.
pub const FIG2C_BYTES: u64 = 100_000_000;
/// Random loss on every path of `lossy_ecmp`.
pub const LOSSY_LOSS: f64 = 0.01;
/// Horizon of the ECMP worlds; the transfer stops the run long before.
const ECMP_HORIZON: SimTime = SimTime::from_secs(1200);

/// The `fleet` parameters of `churn_fleet`: a quarter of the work of
/// 800 clients × 8 GETs, so that a run takes a third of a second and each
/// world runs many times.
pub fn churn_params() -> fleet::Params {
    fleet::Params {
        clients: 400,
        gets: 4,
        response: 2048,
        ..Default::default()
    }
}

/// A built world, ready to run.
pub struct World {
    /// Which workload it is.
    workload: Workload,
    /// The seed it was built with.
    seed: u64,
    /// The simulation.
    sim: Simulator,
    /// Every link, in creation order.
    links: Vec<LinkId>,
    /// Chained-GET progress of every fleet client (empty for ECMP worlds).
    progress: Vec<Rc<RefCell<GetProgress>>>,
    /// Bytes an ECMP world transfers (0 for the fleet).
    bytes: u64,
    horizon: SimTime,
    traced: bool,
}

/// How a finished run went.
pub struct Outcome {
    /// The simulator's summary.
    pub summary: RunSummary,
    /// Wall seconds in the event loop.
    pub run_s: f64,
    /// Wall seconds in `smapp_pm::verify::conclude`.
    pub conclude_s: f64,
    /// Oracle and tap violations, and incomplete work; empty when clean.
    pub problems: Vec<String>,
    /// Fingerprint of the trajectory: the summary, every connection's
    /// taps and retransmissions, every link's counters and, on the fleet,
    /// every GET completion instant.
    pub digest: u64,
    /// Stream-tap bytes on the sending side, over all connections.
    pub tap_sent: u64,
    /// Stream-tap bytes on the receiving side, over all connections.
    pub tap_recvd: u64,
    /// Subflow-level retransmissions, over all connections.
    pub retransmits: u64,
    /// FNV-1a over the fleet's GET completion instants, as
    /// `fleet::FleetStats::completions_digest` computes it.
    pub completions_digest: u64,
}

impl Outcome {
    /// Wall seconds from the first event through the end of `conclude`.
    pub fn wall_s(&self) -> f64 {
        self.run_s + self.conclude_s
    }
}

fn node(inner: Box<dyn Node>, layer: Layer, traced: bool) -> Box<dyn Node> {
    if traced {
        Box::new(TimedNode::new(inner, layer))
    } else {
        inner
    }
}

fn app(inner: Box<dyn App>, traced: bool) -> Box<dyn App> {
    if traced {
        Box::new(TimedApp::new(inner))
    } else {
        inner
    }
}

/// Wrap a host's path manager and controller, then the host itself.
fn host(mut h: Host, traced: bool) -> Box<dyn Node> {
    if traced {
        let pm = std::mem::replace(&mut h.pm, Box::new(smapp_mptcp::NoopPm));
        h.pm = Box::new(TimedPm::new(pm));
        h.user = h
            .user
            .take()
            .map(|u| Box::new(TimedUser::new(u)) as Box<dyn smapp_netlink::UserProcess>);
    }
    node(Box::new(h), Layer::Host, traced)
}

fn refresh_client(name: String, n: u8) -> Host {
    Host::new(name, StackConfig::default()).with_user(
        ControllerRuntime::boxed(RefreshController::new(RefreshConfig {
            n,
            ..Default::default()
        })),
        LatencyModel::idle_host(),
    )
}

fn router_mut(sim: &mut Simulator, id: NodeId) -> &mut Router {
    sim.node_mut(id)
        .as_any_mut()
        .downcast_mut::<Router>()
        .expect("node is a Router")
}

/// Build `workload`'s world for `seed`; `traced` wraps every layer.
pub fn build(workload: Workload, seed: u64, traced: bool) -> World {
    build_sized(workload, seed, traced, BULK_BYTES)
}

/// [`build`], with an ECMP world transferring `bytes`.
fn build_sized(workload: Workload, seed: u64, traced: bool, bytes: u64) -> World {
    let mut world = match workload {
        Workload::BulkEcmp | Workload::LossyEcmp => ecmp(workload, seed, traced, bytes),
        Workload::ChurnFleet => churn(seed, traced),
    };
    let oracle: Box<dyn smapp_sim::TraceSink> = Box::new(Oracle::new());
    world.sim.core.set_trace(if traced {
        Box::new(TimedSink { inner: oracle })
    } else {
        oracle
    });
    world
}

/// The fig2c world, built the way `topo::ecmp` builds it; `lossy_ecmp`
/// adds random loss on the four paths.
fn ecmp(workload: Workload, seed: u64, traced: bool, bytes: u64) -> World {
    let loss = if workload == Workload::LossyEcmp {
        LossModel::Bernoulli(LOSSY_LOSS)
    } else {
        LossModel::None
    };
    let mut client = refresh_client("client".into(), 5);
    client.connect_at(
        SimTime::from_millis(10),
        None,
        SERVER_ADDR,
        80,
        app(
            Box::new(
                BulkSender::new(bytes)
                    .close_when_done()
                    .stop_sim_when_acked(),
            ),
            traced,
        ),
    );
    let mut server = Host::new("server", StackConfig::default());
    server.listen(
        80,
        Box::new(move || {
            app(
                Box::new(Sink {
                    close_on_eof: true,
                    ..Default::default()
                }),
                traced,
            )
        }),
    );

    let mut sim = Simulator::new(seed);
    let client_id = sim.add_node(host(client, traced));
    let server_id = sim.add_node(host(server, traced));
    let r1_id = sim.add_node(node(Box::new(Router::new(11)), Layer::Router, traced));
    let r2_id = sim.add_node(node(Box::new(Router::new(22)), Layer::Router, traced));

    let c_if = sim.add_iface(client_id, CLIENT_ADDR1, "eth0");
    let s_if = sim.add_iface(server_id, SERVER_ADDR, "eth0");
    let r1_c = sim.add_iface(r1_id, Addr::new(10, 0, 1, 254), "toC");
    let r2_s = sim.add_iface(r2_id, Addr::new(10, 0, 9, 254), "toS");
    let access = LinkCfg::mbps_ms(1000, 1);
    let mut links = vec![
        sim.connect(c_if, r1_c, access.clone()),
        sim.connect(r2_s, s_if, access),
    ];
    let mut r1_ups = Vec::new();
    let mut r2_ups = Vec::new();
    for i in 0..4u8 {
        let a = sim.add_iface(r1_id, Addr::new(10, 1, i, 1), "up");
        let b = sim.add_iface(r2_id, Addr::new(10, 1, i, 2), "down");
        let cfg = LinkCfg::mbps_ms(8, 10 * (u64::from(i) + 1)).loss(loss.clone());
        links.push(sim.connect(a, b, cfg));
        r1_ups.push(a);
        r2_ups.push(b);
    }
    let r1 = router_mut(&mut sim, r1_id);
    r1.add_route(prefix("10.0.9.0/24"), r1_ups);
    r1.add_route(prefix("10.0.1.0/24"), vec![r1_c]);
    let r2 = router_mut(&mut sim, r2_id);
    r2.add_route(prefix("10.0.1.0/24"), r2_ups);
    r2.add_route(prefix("10.0.9.0/24"), vec![r2_s]);

    World {
        workload,
        seed,
        sim,
        links,
        progress: Vec::new(),
        bytes,
        horizon: ECMP_HORIZON,
        traced,
    }
}

fn prefix(s: &str) -> AddrPrefix {
    s.parse().expect("valid prefix literal")
}

/// The fleet world, built the way `fleet::run_instrumented` builds it.
fn churn(seed: u64, traced: bool) -> World {
    let p = churn_params();
    let mut sim = Simulator::new(seed);

    let response = p.response;
    let mut server = Host::new("server", StackConfig::default());
    server.listen(
        80,
        Box::new(move || app(Box::new(GetServer::new(response)), traced)),
    );
    let server_id = sim.add_node(host(server, traced));
    let s_if = sim.add_iface(server_id, SERVER_ADDR, "eth0");

    let r1_id = sim.add_node(node(Box::new(Router::new(11)), Layer::Router, traced));
    let r2_id = sim.add_node(node(Box::new(Router::new(22)), Layer::Router, traced));
    let r2_s = sim.add_iface(r2_id, Addr::new(10, 0, 9, 254), "toS");
    let mut links = vec![sim.connect(r2_s, s_if, LinkCfg::mbps_ms(1000, 1))];

    let mut r1_ups = Vec::new();
    let mut r2_ups = Vec::new();
    for (i, cfg) in p.paths.iter().enumerate() {
        let a = sim.add_iface(r1_id, Addr::new(10, 1, i as u8, 1), "up");
        let b = sim.add_iface(r2_id, Addr::new(10, 1, i as u8, 2), "down");
        links.push(sim.connect(a, b, cfg.clone()));
        r1_ups.push(a);
        r2_ups.push(b);
    }

    let mut progress = Vec::with_capacity(p.clients);
    let mut client_ids = Vec::with_capacity(p.clients);
    let mut client_routes = Vec::with_capacity(p.clients);
    for i in 0..p.clients {
        let mut client = if i % 2 == 0 {
            Host::new(format!("c{i}"), StackConfig::default())
                .with_pm(Box::new(NdiffportsPm::new(p.n_subflows)))
        } else {
            refresh_client(format!("c{i}"), p.n_subflows)
        };
        let prog = Rc::new(RefCell::new(GetProgress::default()));
        client.connect_at(
            SimTime::from_millis(10) + p.stagger * i as u32,
            None,
            SERVER_ADDR,
            80,
            app(
                Box::new(GetClient {
                    remaining: p.gets - 1,
                    request_size: p.request,
                    dst: SERVER_ADDR,
                    dst_port: 80,
                    progress: Rc::clone(&prog),
                    stop_when_done: false,
                }),
                traced,
            ),
        );
        progress.push(prog);

        // One /24 per client from 10.16.0.0 up, as the fleet addresses them.
        let [a, b, c, _] = [10, 16 + (i / 200) as u8, (i % 200) as u8, 1];
        let client_id = sim.add_node(host(client, traced));
        client_ids.push(client_id);
        let c_if = sim.add_iface(client_id, Addr::new(a, b, c, 1), "eth0");
        let r_if = sim.add_iface(r1_id, Addr::new(a, b, c, 254), "toC");
        links.push(sim.connect(c_if, r_if, p.access.clone()));
        client_routes.push((AddrPrefix::new(Addr::new(a, b, c, 1), 24), r_if));
    }

    let r1 = router_mut(&mut sim, r1_id);
    r1.add_route(prefix("10.0.9.0/24"), r1_ups);
    for (pfx, iface) in client_routes {
        r1.add_route(pfx, vec![iface]);
    }
    let r2 = router_mut(&mut sim, r2_id);
    r2.add_route(prefix("10.0.9.0/24"), vec![r2_s]);
    r2.add_route(prefix("10.0.0.0/8"), r2_ups);

    // Sockdiag probes: each client mid-transfer, then fleet-wide at 500 ms.
    let after = p.probe_after.expect("the fleet default probes");
    let mut script = NetemScript::new();
    for (i, &id) in client_ids.iter().enumerate() {
        let connect = SimTime::from_millis(10) + p.stagger * i as u32;
        script.add(connect + after, Netem::peer(id).probe());
        script.add(SimTime::from_millis(500), Netem::peer(id).probe());
    }
    sim.install(script, InstallPolicy::Sort)
        .expect("Sort never rejects");

    // The fleet's 1 Hz watchdog: stop once every GET has completed.
    let expected = p.clients as u64 * u64::from(p.gets);
    let watch = Rc::new(progress.clone());
    for t in 1..=(p.horizon.as_secs_f64().ceil() as u64) {
        let watch = Rc::clone(&watch);
        sim.at(SimTime::from_secs(t), move |core| {
            let done: u64 = watch.iter().map(|c| u64::from(c.borrow().completed)).sum();
            if done >= expected {
                core.request_stop();
            }
        });
    }

    World {
        workload: Workload::ChurnFleet,
        seed,
        sim,
        links,
        progress,
        bytes: 0,
        horizon: p.horizon,
        traced,
    }
}

impl World {
    /// Which nodes are hosts, by node index (for the traced sink).
    pub fn host_mask(&self) -> Vec<bool> {
        self.sim
            .node_ids()
            .map(|id| self.sim.node(id).as_any().is::<Host>())
            .collect()
    }

    /// Run to completion and check everything: the wire oracle, the stream
    /// taps, that the work finished, and the trajectory's fingerprint.
    pub fn run(mut self) -> Outcome {
        let t0 = Instant::now();
        let summary = self.sim.run_until(self.horizon);
        let t1 = Instant::now();
        if self.traced {
            // `conclude` looks for the oracle itself: unwrap it.
            let mut sink = self.sim.core.take_trace().expect("a sink is installed");
            let timed = sink
                .as_any_mut()
                .downcast_mut::<TimedSink>()
                .expect("traced worlds install a TimedSink");
            let oracle = std::mem::replace(&mut timed.inner, Box::new(CollectorSink::default()));
            self.sim.core.set_trace(oracle);
        }
        let verdict =
            smapp_pm::verify::conclude(&mut self.sim, &summary, self.workload.name(), self.seed);
        let t2 = Instant::now();
        let mut out = self.fold(summary, verdict.violations);
        out.run_s = t1.duration_since(t0).as_secs_f64();
        out.conclude_s = t2.duration_since(t1).as_secs_f64();
        out
    }

    /// Read the finished world back: completion checks and the digest.
    /// Times are left for the caller to fill in.
    fn fold(&self, summary: RunSummary, mut problems: Vec<String>) -> Outcome {
        let tag = format!("[{} seed={}]", self.workload.name(), self.seed);
        let mut d: Vec<u8> = Vec::with_capacity(4096);
        let mut put = |v: u64| d.extend_from_slice(&v.to_le_bytes());
        put(summary.events);
        put(summary.ended_at.as_nanos());
        put(summary.peak_queue as u64);
        put(summary.reason as u64);
        let (mut tap_sent, mut tap_recvd, mut retransmits) = (0, 0, 0);
        for id in self.sim.node_ids() {
            let Some(h) = self.sim.node(id).as_any().downcast_ref::<Host>() else {
                continue;
            };
            put(h.diag.probes);
            for c in h.stack.connections() {
                let (s, r) = (&c.stats.tap_sent, &c.stats.tap_recvd);
                tap_sent += s.count;
                tap_recvd += r.count;
                for v in [u64::from(c.token), s.count, s.fnv, r.count, r.fnv] {
                    put(v);
                }
                put(c.stats.reinjections);
                for sid in 0..c.subflow_count() {
                    let sf = c.subflow(sid as u8).expect("subflow ids are dense");
                    retransmits += sf.stats.retrans;
                    put(sf.stats.retrans);
                    put(sf.stats.bytes_acked);
                }
            }
        }
        for &l in &self.links {
            for dir in [Dir::AtoB, Dir::BtoA] {
                let st = self.sim.core.link_stats(l, dir);
                for v in [
                    st.enqueued,
                    st.delivered,
                    st.dropped_queue,
                    st.dropped_random,
                    st.bytes_delivered,
                ] {
                    put(v);
                }
            }
        }
        let mut completions = Vec::with_capacity(self.progress.len() * 72);
        let mut completed = 0u64;
        for prog in &self.progress {
            let prog = prog.borrow();
            completed += u64::from(prog.completed);
            for t in &prog.completions {
                completions.extend_from_slice(&t.as_nanos().to_le_bytes());
            }
            completions.push(0xFF);
        }
        let completions_digest = fnv1a(&completions);
        d.extend_from_slice(&completions_digest.to_le_bytes());

        match self.workload {
            Workload::BulkEcmp | Workload::LossyEcmp => {
                if summary.reason != StopReason::Requested || tap_recvd != self.bytes {
                    problems.push(format!(
                        "{tag} incomplete transfer: {tap_recvd} of {} bytes, stop {:?}",
                        self.bytes, summary.reason
                    ));
                }
            }
            Workload::ChurnFleet => {
                let p = churn_params();
                let expected = p.clients as u64 * u64::from(p.gets);
                if summary.reason != StopReason::Requested || completed != expected {
                    problems.push(format!(
                        "{tag} incomplete GETs: {completed} of {expected}, stop {:?}",
                        summary.reason
                    ));
                }
            }
        }
        Outcome {
            summary,
            run_s: 0.0,
            conclude_s: 0.0,
            problems,
            digest: fnv1a(&d),
            tap_sent,
            tap_recvd,
            retransmits,
            completions_digest,
        }
    }
}

/// Twin parity: the hand-built world must be the scenario's world. On
/// `bulk_ecmp`, seed 100 with the paper's 100 MB file must reproduce the
/// recorded fig2c baseline; on
/// `churn_fleet`, `seed` must match `fleet::run_instrumented` on the same
/// parameters (events, end time and every GET completion instant).
/// Returns the mismatches, or `None` for `lossy_ecmp`, which has no
/// scenario twin.
pub fn twin_parity(workload: Workload, seed: u64) -> Option<Vec<String>> {
    let mut bad = Vec::new();
    match workload {
        Workload::BulkEcmp => {
            let base = &smapp_bench::perf::FIG2C_BASELINE;
            let seed = smapp_bench::perf::FIG2C_SEEDS[0];
            let out = build_sized(workload, seed, false, FIG2C_BYTES).run();
            bad.extend(out.problems);
            let got = (out.summary.events, out.summary.ended_at.as_nanos());
            let want = (base.events[0], base.ended_at_ns[0]);
            if got != want {
                bad.push(format!(
                    "bulk_ecmp seed {seed}: (events, end ns) {got:?} != fig2c baseline {want:?}"
                ));
            }
        }
        Workload::ChurnFleet => {
            let out = build(workload, seed, false).run();
            bad.extend(out.problems);
            // The scenario panics on an oracle violation; count it instead.
            let twin = std::panic::catch_unwind(|| fleet::run_instrumented(&churn_params(), seed));
            let Ok((summary, stats)) = twin else {
                bad.push(format!(
                    "churn_fleet seed {seed}: fleet::run_instrumented panicked"
                ));
                return Some(bad);
            };
            let got = (
                out.summary.events,
                out.summary.ended_at,
                out.completions_digest,
            );
            let want = (summary.events, summary.ended_at, stats.completions_digest);
            if got != want {
                bad.push(format!(
                    "churn_fleet seed {seed}: (events, end, completions) {got:?} != fleet {want:?}"
                ));
            }
        }
        Workload::LossyEcmp => return None,
    }
    Some(bad)
}
