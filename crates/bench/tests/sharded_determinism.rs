//! Determinism contract of the simulation engine.
//!
//! The engine promises byte-identical digests for every `(workers,
//! shards)` combination: RNG streams key on node id, every event's
//! order key is fixed when it is created, effects that cross nodes take
//! effect a fixed lookahead later, and the partition only chooses
//! *where* an LP executes, never *what* it observes. These properties
//! pin that contract over two topology families (random geometric
//! graphs with latencies drawn from node placement, and the paper's
//! star overlay under a full discovery), both with and without a
//! generated chaos plan in flight, and over the chaos and federation
//! campaigns' scripted fault plans.

use std::time::Duration;

use nb_bench::{chaos, federation};
use nb_broker::TopologyKind;
use nb_discovery::scenario::ScenarioBuilder;
use nb_net::wan::{BLOOMINGTON, CARDIFF, FSU, NCSA, UMN};
use nb_net::{
    impl_actor_any, Actor, ChaosProfile, ChaosTargets, ClockProfile, Context, FaultPlan, Incoming,
    LinkSpec, NodeId, RealmId, ShardedSim,
};
use nb_wire::addr::well_known;
use nb_wire::{Endpoint, GroupId, Message};
use proptest::prelude::*;

/// Pings a fixed peer on a timer cadence, echoes pings back as pongs:
/// enough traffic to exercise RNG streams, timers and cross-shard
/// delivery without any protocol machinery on top.
struct Gossip {
    peer: NodeId,
    rounds_left: u32,
    pongs: u32,
}

impl Actor for Gossip {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        ctx.set_timer(Duration::from_millis(50), 1);
    }

    fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
        match event {
            Incoming::Timer { token: 1 } => {
                let ping = Message::Ping {
                    nonce: self.rounds_left as u64,
                    sent_at: ctx.now().as_micros(),
                    reply_to: Endpoint::new(ctx.me(), well_known::PING),
                };
                ctx.send_udp(
                    well_known::PING,
                    Endpoint::new(self.peer, well_known::PING),
                    &ping,
                );
                if self.rounds_left > 0 {
                    self.rounds_left -= 1;
                    ctx.set_timer(Duration::from_millis(120), 1);
                }
            }
            Incoming::Datagram { to_port, msg, .. } => {
                if let Message::Ping { nonce, sent_at, reply_to } = *msg.message() {
                    let pong = Message::Pong {
                        nonce,
                        echoed_sent_at: sent_at,
                        responder: ctx.me(),
                    };
                    ctx.send_udp(to_port, reply_to, &pong);
                } else if let Message::Pong { .. } = msg.message() {
                    self.pongs += 1;
                }
            }
            _ => {}
        }
    }

    impl_actor_any!();
}

/// Builds a random geometric deployment from `points` (one node per
/// point, pairwise latency a function of squared distance), runs it
/// for six virtual seconds — optionally under a generated chaos plan —
/// and returns `(digest, events_processed)`.
fn geometric_fingerprint(
    seed: u64,
    points: &[(u16, u16)],
    chaos: bool,
    workers: usize,
    shards: usize,
) -> (u64, u64) {
    let mut sim = ShardedSim::new(seed);
    sim.set_workers(workers);
    sim.set_shards(shards);
    let mut nodes: Vec<NodeId> = Vec::new();
    for (i, _) in points.iter().enumerate() {
        // Node 0 has no predecessor and gossips with itself (loopback
        // stays inside its own LP); node i pings node i-1.
        let peer = *nodes.last().unwrap_or(&NodeId(0));
        let rounds = if i == 0 { 0 } else { 12 };
        let node = sim.add_node(
            &format!("geo-{i}"),
            RealmId(i as u16 % 3),
            Box::new(Gossip { peer, rounds_left: rounds, pongs: 0 }),
        );
        nodes.push(node);
    }
    // Geometric latencies: every pair's link is derived from where the
    // two nodes landed, so the latency structure (and with it the
    // conservative lookahead) varies per generated instance.
    for i in 0..nodes.len() {
        for j in (i + 1)..nodes.len() {
            let (xi, yi) = points[i];
            let (xj, yj) = points[j];
            let dx = (xi as i64 - xj as i64).unsigned_abs();
            let dy = (yi as i64 - yj as i64).unsigned_abs();
            let micros = 200 + (dx * dx + dy * dy) * 40;
            let spec = LinkSpec::wan(Duration::from_micros(micros)).with_loss(0.001);
            sim.network_mut().set_link(nodes[i], nodes[j], spec);
        }
    }
    if chaos {
        let targets = ChaosTargets {
            bdns: vec![nodes[0]],
            brokers: nodes[1..nodes.len() - 1].to_vec(),
            clients: vec![*nodes.last().expect("nodes")],
        };
        let plan =
            FaultPlan::generate(seed, &ChaosProfile::light(), &targets, Duration::from_secs(4));
        sim.apply_fault_plan(&plan);
    }
    sim.run_for(Duration::from_secs(6));
    (sim.digest(), sim.events_processed())
}

/// Builds the paper's star scenario on the sharded engine and returns
/// `(digest, events, now_ns)`. Without chaos it runs one full
/// discovery; with chaos it applies a generated plan over the booted
/// deployment and lets it fight through.
fn star_fingerprint(
    seed: u64,
    site: usize,
    chaos: bool,
    workers: usize,
    shards: usize,
) -> (u64, u64) {
    let mut scenario = ScenarioBuilder::new(TopologyKind::Star, site, seed).build();
    scenario.sim.set_workers(workers);
    scenario.sim.set_shards(shards);
    if chaos {
        let targets = ChaosTargets {
            bdns: scenario.bdn.into_iter().collect(),
            brokers: scenario.brokers.clone(),
            clients: vec![scenario.client],
        };
        let plan =
            FaultPlan::generate(seed, &ChaosProfile::light(), &targets, Duration::from_secs(8));
        scenario.sim.apply_fault_plan(&plan);
        scenario.sim.run_for(Duration::from_secs(12));
    } else {
        let _ = scenario.run_discovery_once();
    }
    (scenario.digest(), scenario.sim.events_processed())
}

fn client_sites() -> impl Strategy<Value = usize> {
    prop_oneof![Just(BLOOMINGTON), Just(UMN), Just(NCSA), Just(FSU), Just(CARDIFF)]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Random geometric topologies: the digest is invariant to both
    /// the worker count and the shard count, chaos plan or not.
    #[test]
    fn geometric_digest_invariant_across_workers_and_shards(
        seed in any::<u64>(),
        points in prop::collection::vec((0u16..100, 0u16..100), 4..8),
        chaos in any::<bool>(),
    ) {
        let reference = geometric_fingerprint(seed, &points, chaos, 1, 1);
        for &(workers, shards) in &[(2usize, 2usize), (4, 4), (1, 3), (4, 1)] {
            let got = geometric_fingerprint(seed, &points, chaos, workers, shards);
            prop_assert_eq!(
                got, reference,
                "diverged at workers={} shards={} chaos={}", workers, shards, chaos
            );
        }
    }

    /// The paper's star overlay under a full discovery (or a chaos
    /// plan): same invariance on the real protocol stack.
    #[test]
    fn star_digest_invariant_across_workers_and_shards(
        seed in any::<u64>(),
        site in client_sites(),
        chaos in any::<bool>(),
    ) {
        let reference = star_fingerprint(seed, site, chaos, 1, 1);
        for &(workers, shards) in &[(2usize, 2usize), (4, 4), (4, 2)] {
            let got = star_fingerprint(seed, site, chaos, workers, shards);
            prop_assert_eq!(
                got, reference,
                "diverged at workers={} shards={} chaos={}", workers, shards, chaos
            );
        }
    }
}

/// A fixed-seed repeat of the same invocation is also stable from run
/// to run — no hidden global state leaks into the sharded engine.
#[test]
fn repeat_sharded_invocations_are_stable() {
    let points = [(3u16, 4u16), (40, 8), (80, 77), (12, 60), (55, 30)];
    let first = geometric_fingerprint(9, &points, true, 4, 4);
    let second = geometric_fingerprint(9, &points, true, 4, 4);
    assert_eq!(first, second);
}

/// The worker counts every fixed input below is checked at.
const WORKERS: [usize; 3] = [1, 2, 4];

/// Asserts `run(workers)` agrees with `run(1)` at every count in
/// [`WORKERS`].
fn assert_worker_invariant<T: PartialEq + std::fmt::Debug>(what: &str, run: impl Fn(usize) -> T) {
    let reference = run(1);
    for workers in &WORKERS[1..] {
        assert_eq!(run(*workers), reference, "{what} diverged at {workers} workers");
    }
}

/// Fig 9's setup: the star overlay with a Bloomington client, seed 11.
#[test]
fn fig9_digest_invariant_across_workers() {
    assert_worker_invariant("fig9", |workers| star_fingerprint(11, BLOOMINGTON, false, workers, workers));
}

/// The chaos campaign's scripted seed-11 plan: crashes with state-loss
/// respawns, a one-way partition and a packet-fault window, plus a
/// clock step on an entity. The digest covers boot, the fault storm and
/// the recovery window.
#[test]
fn chaos_seed_11_scripted_plan_invariant_across_workers() {
    assert_worker_invariant("chaos seed 11", |workers| {
        let mut dep = chaos::build_deployment(11);
        dep.sim.set_workers(workers);
        dep.sim.run_for(Duration::from_secs(12));
        let plan = chaos::acceptance_plan(&dep)
            .clock_step_at(Duration::from_secs(30), dep.entities[1], 250_000_000)
            .sorted();
        dep.sim.apply_fault_plan(&plan);
        dep.sim.run_for(Duration::from_secs(120));
        let stats = dep.sim.stats();
        (dep.sim.digest(), dep.sim.events_processed(), stats.datagrams_duplicated, stats.unreachable_partitioned)
    });
}

/// The federation campaign's scripted plan: two of three BDNs lost, a
/// permanent broker loss and a stale replica's return.
#[test]
fn federation_scripted_plan_invariant_across_workers() {
    assert_worker_invariant("federation", |workers| {
        let mut dep = federation::build_deployment(2005);
        dep.sim.set_workers(workers);
        dep.sim.run_for(Duration::from_secs(12));
        let plan = federation::acceptance_plan(&dep);
        dep.sim.apply_fault_plan(&plan);
        dep.sim.run_for(Duration::from_secs(90));
        (dep.sim.digest(), dep.sim.events_processed())
    });
}

/// Joins `group` on start and multicasts into it at the same instant.
struct JoinThenCast {
    group: GroupId,
    heard: u32,
}

impl Actor for JoinThenCast {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        ctx.join_group(self.group);
        let ping = Message::Ping {
            nonce: ctx.me().0 as u64,
            sent_at: 0,
            reply_to: Endpoint::new(ctx.me(), well_known::PING),
        };
        ctx.send_multicast(well_known::PING, self.group, well_known::PING, &ping);
        // A second multicast one second later, long after every join.
        ctx.set_timer(Duration::from_secs(1), 1);
    }

    fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
        match event {
            Incoming::Timer { token: 1 } => {
                let ping = Message::Ping {
                    nonce: 0,
                    sent_at: 0,
                    reply_to: Endpoint::new(ctx.me(), well_known::PING),
                };
                ctx.send_multicast(well_known::PING, self.group, well_known::PING, &ping);
            }
            Incoming::Datagram { .. } => self.heard += 1,
            _ => {}
        }
    }

    impl_actor_any!();
}

/// Every node joins and multicasts at the same instant. A join takes
/// effect one lookahead later at every worker count, so the start-up
/// multicasts reach nobody and the later ones reach every other member.
#[test]
fn same_instant_join_then_multicast_invariant_across_workers() {
    assert_worker_invariant("join-then-multicast", |workers| {
        let mut sim = ShardedSim::with_clock_profile(11, ClockProfile::perfect());
        sim.set_workers(workers);
        sim.network_mut().intra_realm_spec = LinkSpec::lan().with_loss(0.0);
        sim.set_multicast_enabled(true);
        let group = GroupId(3);
        let nodes: Vec<NodeId> = (0..5)
            .map(|i| sim.add_node(&format!("m{i}"), RealmId(0), Box::new(JoinThenCast { group, heard: 0 })))
            .collect();
        sim.run_for(Duration::from_secs(2));
        let heard: Vec<u32> = nodes.iter().map(|&n| sim.actor::<JoinThenCast>(n).expect("actor").heard).collect();
        assert_eq!(heard, vec![4; 5], "only the later multicasts are heard, by every other member");
        (sim.digest(), sim.events_processed(), heard)
    });
}
