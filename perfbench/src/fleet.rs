//! The two scale workloads on the sharded engine: `scale_discovery`
//! (control plane, boot to a fully attached fleet) and `scale_pubsub`
//! (data plane, an open-loop publish schedule over an attached mesh).
//!
//! Deployments are built here rather than through
//! `nb_bench::scale::build_tier` so every actor can be wrapped in a
//! [`Tap`]; the construction follows `build_tier` step for step.

use std::collections::{BTreeMap, HashSet};
use std::time::Duration;

use nb_broker::{BrokerConfig, MachineProfile};
use nb_discovery::bdn::{Bdn, BdnConfig};
use nb_discovery::{
    DiscoveryBrokerActor, DiscoveryConfig, Entity, EntityState, PhaseTimes, ResponsePolicy,
    RetryPolicy,
};
use nb_net::topogen::{TopologyKind, TopologySpec};
use nb_net::{Actor, ClockProfile, LinkSpec, ShardedSim, SimTime};
use nb_wire::{NodeId, RealmId, Topic, TopicFilter};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::clock::thread_cpu_ns;
use crate::report::{percentile, ratio, Check, Marks, Metric};
use crate::tap::{new_sink, publish_payload, Delivery, LayerStats, Role, SharedSink, Tap};
use crate::{Measured, RunOut};

/// Executor groups, as in `repro scale`.
const SHARDS: usize = 8;
/// Boot window before the first entity starts discovering.
const BOOT: Duration = Duration::from_secs(5);
const INJECTION_POINTS: usize = 2;
const INJECT_SPACING: Duration = Duration::from_micros(500);
/// Minimum gap between two requests landing on one BDN (as in
/// `repro scale`: 2.5x the per-request injection service time).
const PER_BDN_SPACING_US: u64 = 2_500;
/// Attach poll step. Attach times are exact (taken by the entity
/// probe), so the step only bounds how far past the last attach the
/// run goes; it is short so a traced invocation alternates its copies
/// finely through the attach, and so `run.py`, which reads the host's
/// speed after every step, reads it every fraction of a host second.
const POLL_STEP: Duration = Duration::from_millis(25);
/// Polls past the last start before the fleet is declared stuck (60 s).
const MAX_EXTRA_POLLS: usize = 2_400;
/// Entity keepalive period, as `nb_bench::scale::build_tier` sets it.
const KEEPALIVE: Duration = Duration::from_secs(60);
/// The WAN instance both scale workloads run on (the seed deals out the
/// subscriptions), so their run-to-run spread measures the program
/// rather than the graph.
const TOPOLOGY_SEED: u64 = 2005;

/// One deployment shape.
#[derive(Debug, Clone, Copy)]
pub struct FleetSpec {
    pub kind: TopologyKind,
    pub brokers: usize,
    pub entities: usize,
    /// Join every generated edge to the broker overlay: one mesh with
    /// cycles. Otherwise only intra-region edges join, so floods stay
    /// region-scoped as in `repro scale`.
    pub full_mesh: bool,
    /// Topic slots, dealt out evenly over the entities.
    pub topic_pool: usize,
    pub flush: Duration,
    pub dedup: usize,
}

/// A built deployment.
pub struct Fleet {
    pub spec: FleetSpec,
    pub sim: ShardedSim,
    pub bdns: Vec<NodeId>,
    pub brokers: Vec<NodeId>,
    pub entities: Vec<NodeId>,
    /// Overlay component of each broker (index-aligned with `brokers`).
    pub component: Vec<usize>,
    /// Subscription topic slot of each entity.
    pub slot_of: Vec<usize>,
    pub sink: SharedSink,
}

fn find(uf: &mut [usize], mut x: usize) -> usize {
    while uf[x] != x {
        uf[x] = uf[uf[x]];
        x = uf[x];
    }
    x
}

fn wrap(
    actor: Box<dyn Actor>,
    role: Role,
    index: u32,
    traced: bool,
    null_ns: u64,
    sink: &SharedSink,
) -> Box<dyn Actor> {
    if traced || role == Role::Entity {
        Box::new(Tap::new(actor, role, index, traced, null_ns, sink.clone()))
    } else {
        actor
    }
}

fn topic_filter(slot: usize) -> TopicFilter {
    TopicFilter::parse(&format!("bench/t{slot}/**")).expect("pool filter parses")
}

fn topic(slot: usize, publisher: usize) -> Topic {
    Topic::parse(&format!("bench/t{slot}/e{publisher}")).expect("pool topic parses")
}

/// Builds a deployment: WAN topology, one BDN per region, the broker
/// overlay, then the entity fleet with staggered starts.
pub fn build(spec: FleetSpec, seed: u64, traced: bool, null_ns: u64) -> Fleet {
    let topo = TopologySpec::new(spec.kind, spec.brokers, TOPOLOGY_SEED).generate();
    let regions = topo.regions;
    let sink = new_sink(spec.entities);
    let mut sim = ShardedSim::with_clock_profile(seed, ClockProfile::perfect());
    sim.network_mut().intra_realm_spec = LinkSpec::lan().with_loss(0.0);
    sim.network_mut().inter_realm_spec = LinkSpec::wan(Duration::from_millis(25)).with_loss(0.0);

    let bdn_cfg = |attached: Vec<NodeId>| BdnConfig {
        attached_brokers: attached,
        auto_attach: false,
        per_send_delay: INJECT_SPACING,
        ad_ttl: Duration::from_secs(600),
        ping_interval: Duration::from_secs(120),
        ..BdnConfig::default()
    };
    let bdns: Vec<NodeId> = (0..regions)
        .map(|r| {
            let actor = wrap(
                Box::new(Bdn::new(bdn_cfg(Vec::new()))),
                Role::Bdn,
                0,
                traced,
                null_ns,
                &sink,
            );
            sim.add_node(&format!("bdn{r}"), RealmId(r as u16), actor)
        })
        .collect();

    // Overlay dial lists: the higher-index end of each edge dials the
    // lower one. A chain fallback joins split pieces: within a region
    // (region-scoped overlay) or across the whole graph (full mesh).
    let mut dials: Vec<Vec<usize>> = vec![Vec::new(); spec.brokers];
    let mut uf: Vec<usize> = (0..spec.brokers).collect();
    for &(a, b, _) in &topo.edges {
        if !spec.full_mesh && topo.region_of[a] != topo.region_of[b] {
            continue;
        }
        let (lo, hi) = (a.min(b), a.max(b));
        dials[hi].push(lo);
        let (ra, rb) = (find(&mut uf, lo), find(&mut uf, hi));
        uf[ra.max(rb)] = ra.min(rb);
    }
    let scope = |i: usize| if spec.full_mesh { 0 } else { topo.region_of[i] };
    let mut prev: Vec<Option<usize>> = vec![None; regions];
    for (i, dial) in dials.iter_mut().enumerate() {
        let s = scope(i);
        if let Some(p) = prev[s] {
            let (ra, rb) = (find(&mut uf, p), find(&mut uf, i));
            if ra != rb {
                dial.push(p);
                uf[ra.max(rb)] = ra.min(rb);
            }
        }
        prev[s] = Some(i);
    }
    let component: Vec<usize> = (0..spec.brokers).map(|i| find(&mut uf, i)).collect();

    let mut brokers: Vec<NodeId> = Vec::with_capacity(spec.brokers);
    for (i, dial) in dials.iter_mut().enumerate() {
        dial.sort_unstable();
        dial.dedup();
        let region = topo.region_of[i];
        let cfg = BrokerConfig {
            hostname: format!("b{i}"),
            machine: MachineProfile::default_2005(),
            neighbors: dial.iter().map(|&j| brokers[j]).collect(),
            ..BrokerConfig::default()
        };
        let mut actor = DiscoveryBrokerActor::new(cfg, vec![bdns[region]], ResponsePolicy::open());
        actor.advertiser.set_readvertise(Duration::from_secs(120));
        let actor = wrap(Box::new(actor), Role::Broker, 0, traced, null_ns, &sink);
        brokers.push(sim.add_node(&format!("b{i}"), RealmId(region as u16), actor));
    }
    topo.install(sim.network_mut(), &brokers);

    let mut injection: Vec<Vec<NodeId>> = vec![Vec::new(); regions];
    for (i, &b) in brokers.iter().enumerate() {
        let r = topo.region_of[i];
        if injection[r].len() < INJECTION_POINTS {
            injection[r].push(b);
        }
    }
    for (r, &bdn) in bdns.iter().enumerate() {
        let attached = std::mem::take(&mut injection[r]);
        *sim.actor_mut::<Bdn>(bdn).expect("bdn actor") = Bdn::new(bdn_cfg(attached));
    }

    let discovery = DiscoveryConfig {
        collection_window: Duration::from_millis(600),
        max_responses: 6,
        target_set_size: 2,
        ping_count: 1,
        ping_window: Duration::from_millis(300),
        ack_timeout: Duration::from_millis(800),
        retransmits_per_bdn: 2,
        multicast_enabled: false,
        backoff: Some(RetryPolicy::new(
            Duration::from_millis(500),
            2.0,
            Duration::from_secs(8),
            0.2,
        )),
        ..DiscoveryConfig::default()
    };
    let stagger = stagger(regions);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_70b1c);
    let mut slot_of: Vec<usize> = (0..spec.entities).map(|i| i % spec.topic_pool).collect();
    slot_of.shuffle(&mut rng);
    let entities: Vec<NodeId> = (0..spec.entities)
        .map(|i| {
            let region = i % regions;
            let mut cfg = discovery.clone();
            cfg.bdns = vec![bdns[region]];
            let mut entity = Entity::new(cfg, vec![topic_filter(slot_of[i])]);
            entity.set_keepalive_interval(KEEPALIVE);
            entity.set_flush_interval(spec.flush);
            entity.set_dedup_capacity(spec.dedup, spec.dedup);
            entity.set_start_delay(BOOT + stagger * i as u32);
            let actor = wrap(
                Box::new(entity),
                Role::Entity,
                i as u32,
                traced,
                null_ns,
                &sink,
            );
            sim.add_node(&format!("e{i}"), RealmId(region as u16), actor)
        })
        .collect();
    sim.set_workers(1);
    sim.set_shards(SHARDS);
    Fleet {
        spec,
        sim,
        bdns,
        brokers,
        entities,
        component,
        slot_of,
        sink,
    }
}

/// Entity start stagger, as in `repro scale`: each BDN sees a request
/// every [`PER_BDN_SPACING_US`].
fn stagger(regions: usize) -> Duration {
    Duration::from_micros((PER_BDN_SPACING_US / regions.max(1) as u64).max(100))
}

impl Fleet {
    fn entity(&self, i: usize) -> &Entity {
        self.sim
            .actor::<Entity>(self.entities[i])
            .expect("entity actor")
    }

    /// The live broker entity `i` is attached to, if any.
    fn attached_broker(&self, i: usize) -> Option<usize> {
        match self.entity(i).state() {
            EntityState::Attached(b) if self.sim.is_up(b) => {
                self.brokers.iter().position(|&x| x == b)
            }
            _ => None,
        }
    }

    fn attached_count(&self) -> usize {
        (0..self.entities.len())
            .filter(|&i| matches!(self.entity(i).state(), EntityState::Attached(b) if self.sim.is_up(b)))
            .count()
    }

    /// Runs the boot window, then polls until attach is over, each
    /// step between `label.<i>` markers.
    pub fn boot_and_attach(&mut self, marks: &mut Marks, label: &str) {
        let mut extra = 0;
        for i in 0.. {
            let events0 = self.sim.events_processed();
            marks.begin(&format!("{label}.{i}"));
            self.sim.run_for(if i == 0 { BOOT } else { POLL_STEP });
            let over = i > 0 && self.attach_over(&mut extra);
            marks.end(
                &format!("{label}.{i}"),
                self.sim.events_processed() - events0,
            );
            if over {
                break;
            }
        }
    }

    /// Called after each attach poll: whether every entity is attached,
    /// or the fleet is stuck well past the last start (`extra` counts
    /// the polls past it).
    fn attach_over(&self, extra: &mut usize) -> bool {
        let n = self.entities.len();
        let last_start = SimTime::ZERO + BOOT + stagger(self.bdns.len()) * n as u32;
        if self.sim.now() >= last_start {
            *extra += 1;
        }
        self.attached_count() == n || *extra > MAX_EXTRA_POLLS
    }

    /// Crashes the broker the first attached entity uses (tests: a
    /// fault the failure accounting must see).
    pub fn crash_one_broker(&mut self) {
        if let Some(b) = (0..self.entities.len()).find_map(|i| self.attached_broker(i)) {
            self.sim.crash(self.brokers[b]);
        }
    }

    /// Queues one benchmark publish from entity `i` on topic `slot`,
    /// due now.
    pub fn publish(&mut self, i: usize, seq: u32, slot: usize) {
        let payload = publish_payload(i as u32, seq, self.sim.now());
        self.sim
            .actor_mut::<Entity>(self.entities[i])
            .expect("entity actor")
            .queue_publish(topic(slot, i), payload);
    }
}

/// One publish the workload issued.
#[derive(Debug, Clone, Copy)]
struct Publish {
    publisher: usize,
    seq: u32,
    slot: usize,
}

/// Discovery outcome metrics over every entity's first completed
/// discovery, plus attach time and failure accounting.
fn discovery_metrics(fleet: &Fleet, out: &mut RunOut, phases: &mut Vec<PhaseTimes>) {
    let n = fleet.entities.len();
    let mut totals: Vec<u64> = Vec::with_capacity(n);
    let mut failed = 0u64;
    let mut responses = 0u64;
    for i in 0..n {
        let e = fleet.entity(i);
        let first = e.discovery().completed.iter().find(|o| o.chosen.is_some());
        match first {
            Some(o) => {
                totals.push(o.phases.total().as_nanos() as u64);
                phases.push(o.phases);
            }
            None => failed += 1,
        }
        if first.is_some() && fleet.attached_broker(i).is_none() {
            failed += 1;
        }
        responses += e
            .discovery()
            .completed
            .iter()
            .map(|o| o.responses_received as u64)
            .sum::<u64>();
    }
    totals.sort_unstable();
    let sink = fleet.sink.lock().expect("sink lock");
    let attach_max = sink.attached_at.iter().copied().max().unwrap_or(u64::MAX);
    drop(sink);
    let (mut sent, mut dup, mut rejected) = (0u64, 0u64, 0u64);
    for &b in &fleet.brokers {
        let a = fleet
            .sim
            .actor::<DiscoveryBrokerActor>(b)
            .expect("broker actor");
        sent += a.responder.responses_sent;
        dup += a.responder.duplicates_suppressed;
        rejected += a.responder.rejected_by_policy;
    }
    out.virt(
        "discovery_p50_ms",
        percentile(&totals, 50, 100) as f64 / 1e6,
        "ms",
    );
    out.virt(
        "discovery_p99_ms",
        percentile(&totals, 99, 100) as f64 / 1e6,
        "ms",
    );
    out.virt("discovery.samples", totals.len() as f64, "count");
    out.virt(
        "discovery_fail_frac",
        failed as f64 / n.max(1) as f64,
        "frac",
    );
    let all_attached = attach_max != u64::MAX;
    out.virt(
        "time_to_all_attached_s",
        if all_attached {
            attach_max as f64 / 1e9
        } else {
            f64::NAN
        },
        "s",
    );
    out.virt(
        "responder.dup_frac",
        ratio(dup, dup + sent + rejected),
        "frac",
    );
    out.virt(
        "discovery.response_use_frac",
        ratio(responses, sent),
        "frac",
    );
    out.attempted += n as u64;
    out.failed += failed;
    out.checks.push(Check {
        name: "every entity attached".into(),
        ok: failed == 0 && all_attached,
        detail: format!("{} of {n} discoveries failed or ended unattached", failed),
    });
}

/// Delivery accounting: expected deliveries come from the workload's
/// own subscription table (same topic slot, attached in the
/// publisher's overlay component, publisher excluded).
fn delivery_metrics(fleet: &Fleet, publishes: &[Publish], out: &mut RunOut) {
    let n = fleet.entities.len();
    let pool = fleet.spec.topic_pool;
    let home: Vec<Option<usize>> = (0..n)
        .map(|i| fleet.attached_broker(i).map(|b| fleet.component[b]))
        .collect();
    let mut by_slot: Vec<Vec<usize>> = vec![Vec::new(); pool];
    for i in 0..n {
        by_slot[fleet.slot_of[i]].push(i);
    }
    let sink = fleet.sink.lock().expect("sink lock");
    let mut got: BTreeMap<(u32, u32, u32), Delivery> = BTreeMap::new();
    let mut duplicates = 0u64;
    for d in &sink.deliveries {
        if got.insert((d.publisher, d.seq, d.subscriber), *d).is_some() {
            duplicates += 1;
        }
    }
    let foreign = sink.foreign_deliveries;
    drop(sink);
    let mut expected = 0u64;
    let mut lat: Vec<u64> = Vec::new();
    let mut seen: HashSet<(u32, u32, u32)> = HashSet::new();
    for p in publishes {
        let Some(c) = home[p.publisher] else {
            continue; // an unattached publisher is a failed discovery
        };
        for &s in &by_slot[p.slot] {
            if s == p.publisher || home[s] != Some(c) {
                continue;
            }
            expected += 1;
            let key = (p.publisher as u32, p.seq, s as u32);
            if let Some(d) = got.get(&key) {
                seen.insert(key);
                lat.push(d.recv_ns - d.due_ns);
            }
        }
    }
    let unexpected = got.len() as u64 - seen.len() as u64;
    let missed = expected - lat.len() as u64;
    lat.sort_unstable();
    out.virt(
        "delivery_p50_ms",
        percentile(&lat, 50, 100) as f64 / 1e6,
        "ms",
    );
    out.virt(
        "delivery_p99_ms",
        percentile(&lat, 99, 100) as f64 / 1e6,
        "ms",
    );
    out.virt("delivery.samples", lat.len() as f64, "count");
    out.virt("delivery_miss_frac", ratio(missed, expected), "frac");
    out.attempted += expected;
    out.failed += missed;
    out.checks.push(Check {
        name: "every expected delivery arrived exactly once".into(),
        ok: missed == 0 && duplicates == 0 && unexpected == 0 && foreign == 0,
        detail: format!(
            "{expected} expected, {missed} missed, {duplicates} duplicated, {unexpected} unexpected, {foreign} unparsable"
        ),
    });
}

fn broker_metrics(fleet: &Fleet, out: &mut RunOut, base: (u64, u64)) {
    let (routed, dup) = broker_counters(fleet);
    let (routed, dup) = (routed - base.0, dup - base.1);
    out.virt("broker.event_dup_frac", ratio(dup, dup + routed), "frac");
    let stats = fleet.sim.stats();
    let events = fleet.sim.events_processed();
    out.virt(
        "wire_bytes_per_entity",
        stats.bytes_delivered as f64 / fleet.entities.len() as f64,
        "B",
    );
    out.virt(
        "net.bytes_per_event",
        ratio(stats.bytes_delivered, events),
        "B",
    );
    out.virt("shard.events", out.events as f64, "count");
}

fn broker_counters(fleet: &Fleet) -> (u64, u64) {
    fleet.brokers.iter().fold((0, 0), |(r, d), &b| {
        let a = fleet
            .sim
            .actor::<DiscoveryBrokerActor>(b)
            .expect("broker actor");
        (
            r + a.broker.events_routed,
            d + a.broker.duplicates_suppressed,
        )
    })
}

fn finish(fleet: &Fleet, out: &mut RunOut, phases: &[PhaseTimes], build_ns: u64) {
    out.digest = fleet.sim.digest();
    for (name, value) in [
        ("scenario.build_us", build_ns as f64 / 1e3),
        ("scenario.run_us", out.run_for_ns as f64 / 1e3),
        ("security.validate_us", 0.0),
        ("security.seal_open_us", 0.0),
    ] {
        out.layer_times.push(Metric {
            name: name.into(),
            value,
            unit: "us",
        });
    }
    let sink = fleet.sink.lock().expect("sink lock");
    out.layers = sink.layers.clone();
    drop(sink);
    out.virt.extend(crate::report::phase_p50s(phases));
}

// --------------------------------------------------------------------
// scale_discovery
// --------------------------------------------------------------------

/// One entity in this many publishes once after attach (the sparse
/// sample `repro scale` sends).
const SPARSE_PUBLISH_EVERY: usize = 509;
/// Seconds of the steady window after the sparse publishes.
const SPARSE_SECONDS: u32 = 10;

pub fn discovery_spec(entities: usize, brokers: usize) -> FleetSpec {
    FleetSpec {
        kind: TopologyKind::HierarchicalIsp,
        brokers,
        entities,
        full_mesh: false,
        topic_pool: 256,
        flush: Duration::from_secs(2),
        dedup: 64,
    }
}

/// Options the tests use to inject a fault.
#[derive(Debug, Clone, Copy, Default)]
pub struct Faults {
    /// Crash the broker of one attached entity right after attach
    /// (`paper_figures`: every broker of the suite's first run, before
    /// its discovery).
    pub crash_one_broker: bool,
}

/// Where a `scale_discovery` pass is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Boot,
    /// Polling for a fully attached fleet; `extra` counts polls past
    /// the last entity start.
    Attach {
        extra: usize,
    },
    /// The steady window after the sparse publishes, in seconds left.
    Window {
        left: u32,
    },
    Done,
}

/// `scale_discovery`: set-up is the deployment build (repeated
/// `setup_reps` times, the last one kept). A measured pass runs from
/// boot to a fully attached fleet, then the sparse publishes and a
/// 10 s window; each step is one boot, poll or window second. Later
/// passes run a fresh deployment and must reproduce pass 0's digest,
/// from which every other number is taken.
pub struct DiscoveryRun {
    spec: FleetSpec,
    seed: u64,
    traced: bool,
    null_ns: u64,
    faults: Faults,
    fleet: Option<Fleet>,
    stage: Stage,
    passes_left: usize,
    live0: u64,
    build_ns: u64,
    retained: u64,
    publishes: Vec<Publish>,
    pass: RunOut,
    first: Option<RunOut>,
    mismatched: usize,
}

impl DiscoveryRun {
    #[allow(clippy::too_many_arguments)]
    pub fn setup(
        spec: FleetSpec,
        seed: u64,
        traced: bool,
        setup_reps: usize,
        passes: usize,
        faults: Faults,
        marks: &mut Marks,
        prefix: &str,
    ) -> DiscoveryRun {
        let null_ns = crate::clock::null_interval_ns();
        let live0 = nb_bench::codec::live_bytes();
        let mut fleet = None;
        let mut build_ns = 0;
        for k in 0..setup_reps.max(1) {
            drop(fleet.take());
            marks.begin(&format!("{prefix}setup.{k}"));
            let t0 = thread_cpu_ns();
            fleet = Some(build(spec, seed, traced, null_ns));
            build_ns = thread_cpu_ns() - t0;
            marks.end(&format!("{prefix}setup.{k}"), 0);
        }
        DiscoveryRun {
            spec,
            seed,
            traced,
            null_ns,
            faults,
            fleet,
            stage: Stage::Boot,
            passes_left: passes.max(1),
            live0,
            build_ns,
            retained: 0,
            publishes: Vec::new(),
            pass: RunOut::default(),
            first: None,
            mismatched: 0,
        }
    }

    /// One step of the pass; returns the next stage.
    fn advance(&mut self, fleet: &mut Fleet) -> Stage {
        let mut run_for = |fleet: &mut Fleet, d: Duration| {
            let t0 = thread_cpu_ns();
            fleet.sim.run_for(d);
            self.pass.run_for_ns += thread_cpu_ns() - t0;
        };
        match self.stage {
            Stage::Boot => {
                run_for(fleet, BOOT);
                Stage::Attach { extra: 0 }
            }
            Stage::Attach { mut extra } => {
                run_for(fleet, POLL_STEP);
                if !fleet.attach_over(&mut extra) {
                    return Stage::Attach { extra };
                }
                self.retained = nb_bench::codec::live_bytes().saturating_sub(self.live0);
                if self.faults.crash_one_broker {
                    fleet.crash_one_broker();
                }
                for i in (0..fleet.entities.len()).step_by(SPARSE_PUBLISH_EVERY) {
                    let slot = fleet.slot_of[i];
                    fleet.publish(i, 0, slot);
                    self.publishes.push(Publish {
                        publisher: i,
                        seq: 0,
                        slot,
                    });
                }
                Stage::Window {
                    left: SPARSE_SECONDS,
                }
            }
            Stage::Window { left } => {
                run_for(fleet, Duration::from_secs(1));
                if left > 1 {
                    Stage::Window { left: left - 1 }
                } else {
                    Stage::Done
                }
            }
            Stage::Done => unreachable!("a finished pass takes no step"),
        }
    }

    /// Harvests a finished pass: pass 0 gives every number, later
    /// passes only their digest.
    fn end_pass(&mut self, fleet: Fleet) {
        let mut pass = std::mem::take(&mut self.pass);
        let publishes = std::mem::take(&mut self.publishes);
        match &self.first {
            Some(first) => self.mismatched += usize::from(fleet.sim.digest() != first.digest),
            None => {
                pass.events = fleet.sim.events_processed();
                let mut phases = Vec::new();
                discovery_metrics(&fleet, &mut pass, &mut phases);
                delivery_metrics(&fleet, &publishes, &mut pass);
                broker_metrics(&fleet, &mut pass, (0, 0));
                pass.host.push(Metric {
                    name: "retained_bytes_per_entity".into(),
                    value: self.retained as f64 / self.spec.entities as f64,
                    unit: "B",
                });
                finish(&fleet, &mut pass, &phases, self.build_ns);
                self.first = Some(pass);
            }
        }
        self.passes_left -= 1;
        self.stage = Stage::Boot;
    }
}

impl Measured for DiscoveryRun {
    fn step(&mut self, marks: &mut Marks, label: &str) -> bool {
        if self.passes_left == 0 {
            return false;
        }
        let mut fleet = match self.fleet.take() {
            Some(f) => f,
            None => build(self.spec, self.seed, self.traced, self.null_ns),
        };
        marks.begin(label);
        let (cpu0, allocs0) = (thread_cpu_ns(), nb_bench::codec::alloc_count());
        let events0 = fleet.sim.events_processed();
        self.stage = self.advance(&mut fleet);
        self.pass.cpu_ns += thread_cpu_ns() - cpu0;
        self.pass.allocs += nb_bench::codec::alloc_count() - allocs0;
        marks.end(label, fleet.sim.events_processed() - events0);
        if self.stage == Stage::Done {
            self.end_pass(fleet);
        } else {
            self.fleet = Some(fleet);
        }
        true
    }

    fn finish(self: Box<Self>) -> RunOut {
        let mut out = self.first.expect("at least one pass");
        out.checks.push(Check {
            name: "every pass reproduces the first pass's digest".into(),
            ok: self.mismatched == 0,
            detail: format!("{} later passes differed", self.mismatched),
        });
        out
    }
}

// --------------------------------------------------------------------
// scale_pubsub
// --------------------------------------------------------------------

/// Publish schedule granularity: publishes are due on slot boundaries.
const SLOT: Duration = Duration::from_millis(10);
/// Every entity publishes once per period (open loop).
const PERIOD_SLOTS: usize = 500;
/// One measured window, in slots (0.1 s of virtual time, under 0.1 s of
/// host time, so `run.py` reads the host's speed often).
const WINDOW_SLOTS: usize = 10;
/// Quiet tail after the last window so in-flight events land.
const DRAIN: Duration = Duration::from_secs(2);

pub fn pubsub_spec(entities: usize, brokers: usize) -> FleetSpec {
    FleetSpec {
        kind: TopologyKind::RandomGeometric,
        brokers,
        entities,
        full_mesh: true,
        topic_pool: 64,
        flush: Duration::from_millis(50),
        dedup: 256,
    }
}

/// `scale_pubsub`: set-up is build + boot + attach (repeated
/// `setup_reps` times, the last kept); each measured step is one
/// 0.1 s window of the open-loop schedule, and a quiet drain is
/// the last step. Every entity publishes once per `PERIOD_SLOTS`
/// slots, at a seeded offset, cycling its topic slot so each publish
/// reaches a different subscriber group.
pub struct PubsubRun {
    fleet: Fleet,
    windows: usize,
    next: usize,
    /// Entities due at each slot of the period.
    due: Vec<Vec<usize>>,
    seqs: Vec<u32>,
    publishes: Vec<Publish>,
    base: (u64, u64),
    events0: u64,
    retained: u64,
    build_ns: u64,
    out: RunOut,
}

impl PubsubRun {
    #[allow(clippy::too_many_arguments)]
    pub fn setup(
        spec: FleetSpec,
        seed: u64,
        traced: bool,
        setup_reps: usize,
        windows: usize,
        faults: Faults,
        marks: &mut Marks,
        prefix: &str,
    ) -> PubsubRun {
        let null_ns = crate::clock::null_interval_ns();
        let mut fleet = None;
        let (mut build_ns, mut retained) = (0, 0);
        for k in 0..setup_reps.max(1) {
            drop(fleet.take());
            let label = format!("{prefix}setup.{k}");
            marks.begin(&format!("{label}.build"));
            let live0 = nb_bench::codec::live_bytes();
            let t0 = thread_cpu_ns();
            let mut f = build(spec, seed, traced, null_ns);
            build_ns = thread_cpu_ns() - t0;
            marks.end(&format!("{label}.build"), 0);
            f.boot_and_attach(marks, &label);
            retained = nb_bench::codec::live_bytes().saturating_sub(live0);
            fleet = Some(f);
        }
        let mut fleet = fleet.expect("built");
        // The set-up's taps already timed the attach; the measured
        // phase starts from clean layer totals.
        fleet.sink.lock().expect("sink lock").layers = LayerStats::default();
        if faults.crash_one_broker {
            fleet.crash_one_broker();
        }
        // The seed deals the period's slots out evenly: entity `i`
        // publishes whenever the slot counter hits its offset.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0b5e_55ed);
        let mut offset: Vec<usize> = (0..spec.entities).map(|i| i % PERIOD_SLOTS).collect();
        offset.shuffle(&mut rng);
        let mut due: Vec<Vec<usize>> = vec![Vec::new(); PERIOD_SLOTS];
        for (i, &o) in offset.iter().enumerate() {
            due[o].push(i);
        }
        let base = broker_counters(&fleet);
        let events0 = fleet.sim.events_processed();
        PubsubRun {
            fleet,
            windows,
            next: 0,
            due,
            seqs: vec![0; spec.entities],
            publishes: Vec::new(),
            base,
            events0,
            retained,
            build_ns,
            out: RunOut::default(),
        }
    }

    fn timed_run_for(&mut self, d: Duration) {
        let t0 = thread_cpu_ns();
        self.fleet.sim.run_for(d);
        self.out.run_for_ns += thread_cpu_ns() - t0;
    }

    fn window(&mut self, w: usize) {
        let pool = self.fleet.spec.topic_pool;
        for s in 0..WINDOW_SLOTS {
            let slot_no = w * WINDOW_SLOTS + s;
            for k in 0..self.due[slot_no % PERIOD_SLOTS].len() {
                let i = self.due[slot_no % PERIOD_SLOTS][k];
                let seq = self.seqs[i];
                self.seqs[i] += 1;
                let slot = (self.fleet.slot_of[i] + 1 + seq as usize * 7) % pool;
                self.fleet.publish(i, seq, slot);
                self.publishes.push(Publish {
                    publisher: i,
                    seq,
                    slot,
                });
            }
            self.timed_run_for(SLOT);
        }
    }
}

impl Measured for PubsubRun {
    fn step(&mut self, marks: &mut Marks, label: &str) -> bool {
        if self.next > self.windows {
            return false;
        }
        marks.begin(label);
        let (cpu0, allocs0) = (thread_cpu_ns(), nb_bench::codec::alloc_count());
        let events0 = self.fleet.sim.events_processed();
        if self.next < self.windows {
            self.window(self.next);
        } else {
            self.timed_run_for(DRAIN);
        }
        self.next += 1;
        self.out.cpu_ns += thread_cpu_ns() - cpu0;
        self.out.allocs += nb_bench::codec::alloc_count() - allocs0;
        marks.end(label, self.fleet.sim.events_processed() - events0);
        true
    }

    fn finish(self: Box<Self>) -> RunOut {
        let PubsubRun {
            fleet,
            publishes,
            mut out,
            ..
        } = *self;
        out.events = fleet.sim.events_processed() - self.events0;
        let mut phases = Vec::new();
        discovery_metrics(&fleet, &mut out, &mut phases);
        delivery_metrics(&fleet, &publishes, &mut out);
        broker_metrics(&fleet, &mut out, self.base);
        out.host.push(Metric {
            name: "retained_bytes_per_entity".into(),
            value: self.retained as f64 / fleet.spec.entities as f64,
            unit: "B",
        });
        finish(&fleet, &mut out, &phases, self.build_ns);
        out
    }
}
