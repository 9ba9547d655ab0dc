//! `repro scale` — the seeded WAN scale campaign (ROADMAP item 1's
//! population axis) plus the slab A/B micro-suite.
//!
//! The paper's evaluation stops at five sites and a handful of brokers;
//! this campaign drives the *same* protocol stack — BDN registration,
//! discovery, attach, pub/sub steady state — through the sharded engine
//! at 1e2–1e3 brokers and 1e3–1e5 entities (1e6 reachable via
//! `--entities`), over generated WAN topologies
//! ([`nb_net::topogen`]): the paper's star and linear shapes as
//! degenerate tiers, a random-geometric mesh, and a hierarchical
//! ISP-like shape with regional gateways.
//!
//! The report (`BENCH_scale.json`) follows the federation playbook: it
//! is a pure function of `(tier list, seed)` and contains **no
//! wall-clock fields**, so two invocations at any worker counts emit
//! byte-identical JSON — `tools/bench.sh scale` runs the campaign at 1
//! and 4 workers and byte-compares the files. Peak events/sec and the
//! A/B wall-time columns go to stdout only.
//!
//! The A/B suite times the slab sweep's three named structures against
//! their pre-fix O(n) forms at campaign population (same logical op,
//! layouts differ):
//!
//! 1. `broker_interest_snapshot` — the per-rebroadcast
//!    `interest.keys().cloned().collect()` clone vs the memoized
//!    `Arc<[TopicFilter]>` snapshot ([`nb_broker::Broker`]),
//! 2. `bdn_lease_cache` — the per-round registry walk
//!    ([`Bdn::registry_digest`] + [`Bdn::live_lease_records`]) vs the
//!    generation-checked [`Bdn::cached_registry_digest`],
//! 3. `dense_node_table` — `BTreeMap<NodeId, _>` lookup + iteration vs
//!    the slab-indexed [`nb_broker::DenseNodeTable`].

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nb_broker::{BrokerConfig, DenseNodeTable, MachineProfile};
use nb_discovery::bdn::{Bdn, BdnConfig};
use nb_discovery::{
    DiscoveryBrokerActor, DiscoveryConfig, Entity, EntityState, ResponsePolicy, RetryPolicy,
};
use nb_net::topogen::{TopologyKind as WanKind, TopologySpec};
use nb_net::{Actor, ClockProfile, Context, Incoming, LinkSpec, ShardedSim, SimTime};
use nb_wire::{BrokerAdvertisement, Endpoint, Message, NodeId, Port, RealmId, Topic, TopicFilter, WireMsg};

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Topics the entity population shares; entity `i` subscribes to pool
/// slot `i % TOPIC_POOL`, so steady-state fan-out stays bounded as the
/// population grows.
pub const TOPIC_POOL: usize = 256;
/// One entity in `PUBLISH_EVERY` publishes during the steady-state
/// window (deterministic sample, prime so it cycles the topic pool).
pub const PUBLISH_EVERY: usize = 509;
/// Executor groups every tier is partitioned into (fixed so the 1- and
/// 4-worker invocations plan the identical partition).
pub const SCALE_SHARDS: usize = 8;
/// Boot window before the first entity starts discovering.
const BOOT: Duration = Duration::from_secs(5);
/// Injection points per BDN (closest/farthest, paper §4); the overlay
/// flood carries the request to every other broker in the component.
const INJECTION_POINTS: usize = 2;
/// BDN pacing between queued injections.
const INJECT_SPACING: Duration = Duration::from_micros(500);
/// Minimum gap between two discovery requests landing on the same BDN
/// (2.5x the per-request injection service time, so the inject queue
/// stays stable at any population).
const PER_BDN_SPACING_US: u64 = 2_500;

/// Entity start stagger for a tier: entity `i` begins at
/// `BOOT + i·stagger`. Entities are dealt round-robin over regions, so
/// one BDN sees every `regions`-th start; the stagger is set so each
/// BDN's request inter-arrival stays at [`PER_BDN_SPACING_US`].
fn tier_stagger(regions: usize) -> Duration {
    Duration::from_micros((PER_BDN_SPACING_US / regions.max(1) as u64).max(100))
}
/// Attach-poll step; `time_to_all_attached_us` is quantised to it.
const POLL_STEP: Duration = Duration::from_secs(5);
/// Steady-state pub/sub window after the fleet is attached.
const STEADY_STATE: Duration = Duration::from_secs(10);
/// Attach polls abandoned after this many steps past the last start.
const MAX_EXTRA_POLLS: usize = 24;

/// One campaign tier: a topology family at a population.
#[derive(Debug, Clone, Copy)]
pub struct TierSpec {
    /// Tier name (JSON + stdout row label).
    pub name: &'static str,
    /// Generator family.
    pub kind: WanKind,
    /// Broker count.
    pub brokers: usize,
    /// Entity count.
    pub entities: usize,
}

/// Tier selection, `--tier small|large|all`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierSelection {
    /// The CI gate tiers: degenerate shapes plus the 1e4-entity mesh.
    Small,
    /// The acceptance tier: 1e3 brokers / 1e5 entities, ISP-shaped.
    Large,
    /// Both.
    All,
}

/// The default campaign tiers for a selection.
pub fn default_tiers(selection: TierSelection) -> Vec<TierSpec> {
    let small = [
        TierSpec { name: "star_1e2_2e3", kind: WanKind::Star, brokers: 100, entities: 2_000 },
        TierSpec { name: "linear_1e2_2e3", kind: WanKind::Linear, brokers: 100, entities: 2_000 },
        TierSpec {
            name: "geo_1e2_1e4",
            kind: WanKind::RandomGeometric,
            brokers: 100,
            entities: 10_000,
        },
    ];
    let large = [TierSpec {
        name: "isp_1e3_1e5",
        kind: WanKind::HierarchicalIsp,
        brokers: 1_000,
        entities: 100_000,
    }];
    match selection {
        TierSelection::Small => small.to_vec(),
        TierSelection::Large => large.to_vec(),
        TierSelection::All => small.iter().chain(large.iter()).copied().collect(),
    }
}

/// A built tier deployment on the sharded engine.
pub struct ScaleDeployment {
    /// The sharded simulator.
    pub sim: ShardedSim,
    /// One BDN per topology region.
    pub bdns: Vec<NodeId>,
    /// The broker overlay, index-aligned with the generated topology.
    pub brokers: Vec<NodeId>,
    /// The entity fleet.
    pub entities: Vec<NodeId>,
    /// Digest of the generated topology ([`nb_net::WanTopology::digest`]).
    pub topology_digest: u64,
    /// Regions (== realms == BDNs).
    pub regions: usize,
}

/// Builds one tier: generate the WAN topology, then one BDN per region,
/// then the broker overlay (brokers advertise only to their in-region
/// BDN, so each registry and each discovery fan-out stays
/// region-bounded as the tier grows), then the entity fleet with
/// staggered starts and stretched keepalive/flush cadences.
pub fn build_tier(spec: &TierSpec, seed: u64) -> ScaleDeployment {
    let topo = TopologySpec::new(spec.kind, spec.brokers, seed).generate();
    let topology_digest = topo.digest();
    let regions = topo.regions;
    let mut sim = ShardedSim::with_clock_profile(seed, ClockProfile::perfect());
    sim.network_mut().intra_realm_spec = LinkSpec::lan().with_loss(0.0);
    sim.network_mut().inter_realm_spec =
        LinkSpec::wan(Duration::from_millis(25)).with_loss(0.0);

    // BDNs first (brokers need their ids to advertise at); injection
    // lists are patched once broker ids exist, scenario-builder style.
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
            sim.add_node(&format!("bdn{r}"), RealmId(r as u16), Box::new(Bdn::new(bdn_cfg(Vec::new()))))
        })
        .collect();

    // Overlay dial lists: for each generated edge the higher-index
    // broker dials the lower one, which already exists when it boots.
    // Only intra-region edges join the *broker* overlay — discovery
    // floods are region-scoped (each region runs its own BDN), so the
    // per-request flood cost is O(region), not O(topology), and the
    // campaign stays linear in the entity count. Cross-region edges
    // still become network links below (`topo.install`), carrying
    // advertisement and steady-state traffic.
    let mut dials: Vec<Vec<usize>> = vec![Vec::new(); spec.brokers];
    let mut uf: Vec<usize> = (0..spec.brokers).collect();
    fn find(uf: &mut Vec<usize>, mut x: usize) -> usize {
        while uf[x] != x {
            uf[x] = uf[uf[x]];
            x = uf[x];
        }
        x
    }
    for &(a, b, _) in &topo.edges {
        if topo.region_of[a] != topo.region_of[b] {
            continue;
        }
        let (lo, hi) = (a.min(b), a.max(b));
        dials[hi].push(lo);
        let (ra, rb) = (find(&mut uf, lo), find(&mut uf, hi));
        uf[ra.max(rb)] = ra.min(rb);
    }
    // Chain fallback: a region whose intra-region subgraph is split
    // (possible for the geometric family) gets consecutive same-region
    // brokers linked until each region's overlay is one component.
    let mut prev_in_region: Vec<Option<usize>> = vec![None; regions];
    for i in 0..spec.brokers {
        let r = topo.region_of[i];
        if let Some(p) = prev_in_region[r] {
            let (ra, rb) = (find(&mut uf, p), find(&mut uf, i));
            if ra != rb {
                dials[i].push(p);
                uf[ra.max(rb)] = ra.min(rb);
            }
        }
        prev_in_region[r] = Some(i);
    }
    let mut brokers: Vec<NodeId> = Vec::with_capacity(spec.brokers);
    for i in 0..spec.brokers {
        dials[i].sort_unstable();
        dials[i].dedup();
        let region = topo.region_of[i];
        let neighbors: Vec<NodeId> = dials[i].iter().map(|&j| brokers[j]).collect();
        let cfg = BrokerConfig {
            hostname: format!("b{i}"),
            machine: MachineProfile::default_2005(),
            neighbors,
            ..BrokerConfig::default()
        };
        let mut actor =
            DiscoveryBrokerActor::new(cfg, vec![bdns[region]], ResponsePolicy::open());
        actor.advertiser.set_readvertise(Duration::from_secs(120));
        brokers.push(sim.add_node(&format!("b{i}"), RealmId(region as u16), Box::new(actor)));
    }
    topo.install(sim.network_mut(), &brokers);

    // Patch injection lists: the first INJECTION_POINTS brokers of each
    // region. The flood through the broker overlay reaches the rest, so
    // the per-request injection cost stays O(1) as the tier grows.
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
    let entities: Vec<NodeId> = (0..spec.entities)
        .map(|i| {
            let region = i % regions;
            let mut cfg = discovery.clone();
            cfg.bdns = vec![bdns[region]];
            let filter = TopicFilter::parse(&format!("scale/t{}/**", i % TOPIC_POOL))
                .expect("pool filter parses");
            let mut entity = Entity::new(cfg, vec![filter]);
            entity.set_keepalive_interval(Duration::from_secs(60));
            entity.set_flush_interval(Duration::from_secs(2));
            entity.set_dedup_capacity(64, 64);
            entity.set_start_delay(BOOT + tier_stagger(regions) * i as u32);
            sim.add_node(&format!("e{i}"), RealmId(region as u16), Box::new(entity))
        })
        .collect();

    ScaleDeployment { sim, bdns, brokers, entities, topology_digest, regions }
}

/// Everything one tier run produced. Wall time is carried for stdout
/// but never serialised — the JSON stays a pure function of the seed.
#[derive(Debug, Clone)]
pub struct TierOutcome {
    /// Tier name.
    pub name: String,
    /// Generator family name.
    pub topology: &'static str,
    /// Broker count.
    pub brokers: usize,
    /// Entity count.
    pub entities: usize,
    /// Regions (realms/BDNs).
    pub regions: usize,
    /// Topology digest (structure witness).
    pub topology_digest: u64,
    /// Engine run digest ([`ShardedSim::digest`]); the byte-compare gate
    /// rests on this field being worker-count-invariant.
    pub digest: u64,
    /// Engine events processed.
    pub events: u64,
    /// Entities attached to a live broker at the end.
    pub attached: usize,
    /// Virtual µs until every entity was attached (quantised to the
    /// poll step); 0 when the fleet never fully attached.
    pub time_to_all_attached_us: u64,
    /// Discovery-latency percentiles over completed first discoveries,
    /// virtual µs.
    pub discovery_p50_us: u64,
    /// 99th percentile.
    pub discovery_p99_us: u64,
    /// 99.9th percentile.
    pub discovery_p999_us: u64,
    /// First discoveries completed (percentile sample size).
    pub discoveries: usize,
    /// Steady-state publishes issued.
    pub publishes: u64,
    /// Steady-state events delivered to subscribers.
    pub deliveries: u64,
    /// Entity failovers (should be 0 — nothing faults in this campaign).
    pub failovers: u64,
    /// Network payload bytes delivered, divided by the entity count.
    pub wire_bytes_per_entity: u64,
    /// Heap bytes the deployment build retained, divided by the entity
    /// count (counting allocator; 0 when not installed).
    pub mem_bytes_per_entity: u64,
    /// Whether the counting allocator was active for the memory column.
    pub alloc_counting: bool,
    /// Wall milliseconds for the whole tier (stdout only).
    pub wall_ms: f64,
}

impl TierOutcome {
    /// Peak engine throughput for the stdout table.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_ms > 0.0 { self.events as f64 / (self.wall_ms / 1e3) } else { 0.0 }
    }
}

fn percentile(sorted: &[u64], num: usize, den: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) * num) / den;
    sorted[idx]
}

/// Runs one tier at `workers` event workers. Every reported field except
/// `wall_ms` is virtual-time-derived and therefore identical for every
/// worker count — that is the campaign's determinism contract.
pub fn run_tier(spec: &TierSpec, seed: u64, workers: usize) -> TierOutcome {
    let wall = Instant::now();
    let live0 = crate::codec::live_bytes();
    let mut dep = build_tier(spec, seed);
    let live1 = crate::codec::live_bytes();
    let alloc_counting = live1 > live0;
    dep.sim.set_workers(workers.max(1));
    dep.sim.set_shards(SCALE_SHARDS);

    // Boot: brokers link up and advertise; BDNs fill their registries.
    dep.sim.run_for(BOOT);

    // Attach: poll in fixed steps until the fleet is attached. The last
    // entity starts at BOOT + entities·STAGGER; allow a bounded number
    // of extra polls past that before giving up.
    let last_start = BOOT + tier_stagger(dep.regions) * spec.entities as u32;
    let mut polls_past_start = 0usize;
    let mut attached;
    loop {
        dep.sim.run_for(POLL_STEP);
        attached = dep
            .entities
            .iter()
            .filter(|&&e| {
                matches!(
                    dep.sim.actor::<Entity>(e).expect("entity").state(),
                    EntityState::Attached(b) if dep.sim.is_up(b)
                )
            })
            .count();
        if attached == dep.entities.len() {
            break;
        }
        if dep.sim.now() >= SimTime::ZERO + last_start {
            polls_past_start += 1;
            if polls_past_start > MAX_EXTRA_POLLS {
                break;
            }
        }
    }
    let time_to_all_attached_us =
        if attached == dep.entities.len() { dep.sim.now().as_micros() } else { 0 };

    // Steady state: a deterministic sample of the fleet publishes one
    // event each; subscribers sharing the topic slot receive it.
    let mut publishers = 0u64;
    for (i, &e) in dep.entities.iter().enumerate() {
        if i % PUBLISH_EVERY != 0 {
            continue;
        }
        publishers += 1;
        let topic = Topic::parse(&format!("scale/t{}/e{i}", i % TOPIC_POOL))
            .expect("pool topic parses");
        dep.sim
            .actor_mut::<Entity>(e)
            .expect("entity")
            .queue_publish(topic, vec![0xA5; 32]);
    }
    dep.sim.run_for(STEADY_STATE);

    // Harvest. Iterations run in node-id order, so every fold below is
    // deterministic.
    let mut latencies: Vec<u64> = Vec::with_capacity(dep.entities.len());
    let mut publishes = 0u64;
    let mut deliveries = 0u64;
    let mut failovers = 0u64;
    for &e in &dep.entities {
        let entity = dep.sim.actor::<Entity>(e).expect("entity");
        if let Some(outcome) = entity.discovery().completed.first() {
            latencies.push(outcome.phases.total().as_micros() as u64);
        }
        publishes += entity.published;
        deliveries += entity.received.len() as u64;
        failovers += entity.failovers;
    }
    latencies.sort_unstable();
    let stats = dep.sim.stats();
    debug_assert!(publishes >= publishers, "queued publishes must flush");
    TierOutcome {
        name: spec.name.to_string(),
        topology: spec.kind.name(),
        brokers: spec.brokers,
        entities: spec.entities,
        regions: dep.regions,
        topology_digest: dep.topology_digest,
        digest: dep.sim.digest(),
        events: dep.sim.events_processed(),
        attached,
        time_to_all_attached_us,
        discovery_p50_us: percentile(&latencies, 50, 100),
        discovery_p99_us: percentile(&latencies, 99, 100),
        discovery_p999_us: percentile(&latencies, 999, 1000),
        discoveries: latencies.len(),
        publishes,
        deliveries,
        failovers,
        wire_bytes_per_entity: stats.bytes_delivered / spec.entities.max(1) as u64,
        mem_bytes_per_entity: live1.saturating_sub(live0) / spec.entities.max(1) as u64,
        alloc_counting,
        wall_ms: wall.elapsed().as_secs_f64() * 1e3,
    }
}

// --------------------------------------------------------------------
// The slab A/B micro-suite.
// --------------------------------------------------------------------

/// One structure timed legacy vs slab at campaign population.
#[derive(Debug, Clone)]
pub struct AbResult {
    /// Structure name.
    pub name: &'static str,
    /// Population the structure held.
    pub n: usize,
    /// Rounds timed (after oracle verification).
    pub rounds: usize,
    /// Pre-fix layout: nanoseconds per op.
    pub legacy_ns_per_op: f64,
    /// Slab layout: nanoseconds per op.
    pub slab_ns_per_op: f64,
    /// Whether the slab path reproduced the legacy path's answer.
    pub oracle_match: bool,
}

impl AbResult {
    /// Legacy-over-slab per-op cost ratio.
    pub fn speedup(&self) -> f64 {
        if self.slab_ns_per_op > 0.0 { self.legacy_ns_per_op / self.slab_ns_per_op } else { 0.0 }
    }
}

/// A no-op [`Context`] so the A/B suite can drive real actors (the BDN)
/// without an engine. Sends vanish; time is advanced by the caller.
struct AbCtx {
    now: SimTime,
    rng: StdRng,
}

impl AbCtx {
    fn new(seed: u64) -> AbCtx {
        AbCtx { now: SimTime::ZERO + Duration::from_secs(1), rng: StdRng::seed_from_u64(seed) }
    }
}

impl Context for AbCtx {
    fn me(&self) -> NodeId {
        NodeId(u32::MAX)
    }
    fn realm(&self) -> RealmId {
        RealmId(0)
    }
    fn now(&self) -> SimTime {
        self.now
    }
    fn utc_micros(&self) -> u64 {
        self.now.as_micros()
    }
    fn clock_synced(&self) -> bool {
        true
    }
    fn raw_local_micros(&self) -> u64 {
        self.now.as_micros()
    }
    fn set_clock_estimate_ns(&mut self, _est_offset_ns: i64) {}
    fn send_udp(&mut self, _from_port: Port, _to: Endpoint, _msg: &Message) {}
    fn send_stream(&mut self, _from_port: Port, _to: Endpoint, _msg: &Message) {}
    fn send_multicast(
        &mut self,
        _from_port: Port,
        _group: nb_wire::GroupId,
        _to_port: Port,
        _msg: &Message,
    ) {
    }
    fn join_group(&mut self, _group: nb_wire::GroupId) {}
    fn leave_group(&mut self, _group: nb_wire::GroupId) {}
    fn set_timer(&mut self, _delay: Duration, _token: u64) {}
    fn cancel_timer(&mut self, _token: u64) {}
    fn rng(&mut self) -> &mut dyn RngCore {
        &mut self.rng
    }
}

/// A/B 1: the per-rebroadcast interest-filter list. Legacy is the exact
/// expression `broker.rs` shipped (`keys().cloned().collect()` per
/// link-up); slab is the memoized snapshot clone the fix installed.
fn ab_interest_snapshot(n: usize, rounds: usize) -> AbResult {
    let interest: BTreeMap<TopicFilter, u32> = (0..n)
        .map(|i| (TopicFilter::parse(&format!("ab/s{i}/**")).expect("filter parses"), 1u32))
        .collect();
    let snapshot: Arc<[TopicFilter]> = interest.keys().cloned().collect();
    let oracle: Vec<TopicFilter> = interest.keys().cloned().collect();
    let oracle_match =
        snapshot.len() == oracle.len() && snapshot.iter().eq(oracle.iter());

    let t = Instant::now();
    let mut legacy_sink = 0usize;
    for _ in 0..rounds {
        let filters: Vec<TopicFilter> = interest.keys().cloned().collect();
        legacy_sink = legacy_sink.wrapping_add(filters.len());
    }
    let legacy_ns = t.elapsed().as_nanos() as f64 / rounds as f64;

    let t = Instant::now();
    let mut slab_sink = 0usize;
    for _ in 0..rounds {
        let filters = Arc::clone(&snapshot);
        slab_sink = slab_sink.wrapping_add(filters.len());
    }
    let slab_ns = t.elapsed().as_nanos() as f64 / rounds as f64;
    assert_eq!(legacy_sink, slab_sink, "interest A/B loops diverged");
    AbResult {
        name: "broker_interest_snapshot",
        n,
        rounds,
        legacy_ns_per_op: legacy_ns,
        slab_ns_per_op: slab_ns,
        oracle_match,
    }
}

/// A/B 2: the per-federation-round registry digest over a real [`Bdn`]
/// holding `n` live leases. Legacy is the full walk the anti-entropy
/// round used to pay ([`Bdn::registry_digest`] plus the
/// [`Bdn::live_lease_records`] Vec rebuild); slab is the
/// generation-checked [`Bdn::cached_registry_digest`].
fn ab_bdn_lease_cache(n: usize, rounds: usize) -> AbResult {
    let mut ctx = AbCtx::new(11);
    let mut bdn = Bdn::new(BdnConfig {
        ad_ttl: Duration::from_secs(3_600),
        auto_attach: false,
        ..BdnConfig::default()
    });
    for i in 0..n {
        let ad = BrokerAdvertisement {
            broker: NodeId(i as u32),
            hostname: format!("b{i}"),
            logical_address: format!("nb://scale/{i}"),
            realm: RealmId((i % 16) as u16),
            transports: vec![],
            geography: None,
            institution: None,
            issued_at_utc: 1_000_000 + i as u64,
        };
        bdn.on_incoming(
            Incoming::Stream {
                from: Endpoint::new(NodeId(i as u32), Port(1)),
                to_port: Port(2),
                msg: WireMsg::new(Message::Advertisement(ad)),
            },
            &mut ctx,
        );
    }
    let now = ctx.now();
    let oracle_match = bdn.cached_registry_digest(now) == bdn.registry_digest(now)
        && bdn.live_entries(now) == n;

    let t = Instant::now();
    let mut legacy_sink = 0u64;
    for _ in 0..rounds {
        let digest = bdn.registry_digest(now);
        let records = bdn.live_lease_records(now);
        legacy_sink = legacy_sink.wrapping_add(digest ^ records.len() as u64);
    }
    let legacy_ns = t.elapsed().as_nanos() as f64 / rounds as f64;

    let t = Instant::now();
    let mut slab_sink = 0u64;
    for _ in 0..rounds {
        let digest = bdn.cached_registry_digest(now);
        slab_sink = slab_sink.wrapping_add(digest ^ n as u64);
    }
    let slab_ns = t.elapsed().as_nanos() as f64 / rounds as f64;
    assert_eq!(legacy_sink, slab_sink, "lease-cache A/B loops diverged");
    AbResult {
        name: "bdn_lease_cache",
        n,
        rounds,
        legacy_ns_per_op: legacy_ns,
        slab_ns_per_op: slab_ns,
        oracle_match,
    }
}

/// A/B 3: the broker's per-node link/client state at `n` nodes —
/// `BTreeMap<NodeId, u64>` vs the slab-indexed [`DenseNodeTable`]. One
/// op is a lookup sweep plus a full in-order iteration fold, the two
/// access patterns `route_deduped` and `heartbeat_tick` perform.
fn ab_dense_node_table(n: usize, rounds: usize) -> AbResult {
    let btree: BTreeMap<NodeId, u64> = (0..n).map(|i| (NodeId(i as u32), i as u64)).collect();
    let mut slab: DenseNodeTable<u64> = DenseNodeTable::with_capacity(n);
    for i in 0..n {
        slab.insert(NodeId(i as u32), i as u64);
    }
    let oracle_match = slab.len() == btree.len()
        && slab.iter().zip(btree.iter()).all(|((sn, sv), (bn, bv))| sn == *bn && sv == bv);

    // LCG probe sequence, same for both layouts.
    let probe = |mut state: u64| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state, NodeId((state >> 33) as u32 % n.max(1) as u32))
    };

    let t = Instant::now();
    let mut legacy_sink = 0u64;
    for r in 0..rounds {
        let mut state = r as u64;
        for _ in 0..64 {
            let (next, id) = probe(state);
            state = next;
            legacy_sink = legacy_sink.wrapping_add(*btree.get(&id).expect("probe in range"));
        }
        for (id, v) in btree.iter() {
            legacy_sink = legacy_sink.wrapping_add(u64::from(id.0) ^ *v);
        }
    }
    let legacy_ns = t.elapsed().as_nanos() as f64 / rounds as f64;

    let t = Instant::now();
    let mut slab_sink = 0u64;
    for r in 0..rounds {
        let mut state = r as u64;
        for _ in 0..64 {
            let (next, id) = probe(state);
            state = next;
            slab_sink = slab_sink.wrapping_add(*slab.get(id).expect("probe in range"));
        }
        for (id, v) in slab.iter() {
            slab_sink = slab_sink.wrapping_add(u64::from(id.0) ^ *v);
        }
    }
    let slab_ns = t.elapsed().as_nanos() as f64 / rounds as f64;
    assert_eq!(legacy_sink, slab_sink, "node-table A/B loops diverged");
    AbResult {
        name: "dense_node_table",
        n,
        rounds,
        legacy_ns_per_op: legacy_ns,
        slab_ns_per_op: slab_ns,
        oracle_match,
    }
}

/// Runs the three-structure A/B suite at population `n` (clamped to
/// 1e3..=1e5 so tiny smoke runs still measure something and 1e6 runs
/// don't stall on the legacy columns).
pub fn run_ab_suite(n: usize) -> Vec<AbResult> {
    let n = n.clamp(1_000, 100_000);
    // Legacy ops are O(n); scale rounds down as n grows so each column
    // stays in check while small-n rounds stay statistically sane.
    let rounds = (4_000_000 / n).clamp(8, 512);
    vec![
        ab_interest_snapshot(n, rounds),
        ab_bdn_lease_cache(n, rounds),
        ab_dense_node_table(n, rounds),
    ]
}

// --------------------------------------------------------------------
// The campaign report.
// --------------------------------------------------------------------

/// The whole campaign: tier outcomes plus the A/B oracle verdicts.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// Root seed.
    pub seed: u64,
    /// Per-tier outcomes, tier-list order.
    pub tiers: Vec<TierOutcome>,
    /// The A/B suite (wall columns stdout-only; oracles in JSON).
    pub ab: Vec<AbResult>,
}

impl ScaleReport {
    /// Did every tier fully attach and every A/B oracle hold?
    pub fn passed(&self) -> bool {
        self.tiers.iter().all(|t| t.attached == t.entities && t.failovers == 0)
            && self.ab.iter().all(|a| a.oracle_match)
    }

    /// Renders the campaign as JSON. Deliberately free of wall-clock
    /// fields (and of the worker count): the bytes are a pure function
    /// of `(tier list, seed)`, which `tools/bench.sh scale` asserts by
    /// byte-comparing the 1- and 4-worker invocations' files.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"campaign\": \"scale\",\n");
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"passed\": {},\n", self.passed()));
        out.push_str("  \"tiers\": [\n");
        for (i, t) in self.tiers.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"topology\": \"{}\", \
                 \"population\": {{\"brokers\": {}, \"entities\": {}, \"regions\": {}}},\n",
                t.name, t.topology, t.brokers, t.entities, t.regions
            ));
            out.push_str(&format!(
                "     \"topology_digest\": \"{:016x}\", \"digest\": \"{:016x}\", \
                 \"events\": {},\n",
                t.topology_digest, t.digest, t.events
            ));
            out.push_str(&format!(
                "     \"attached\": {}, \"time_to_all_attached_us\": {}, \
                 \"failovers\": {},\n",
                t.attached, t.time_to_all_attached_us, t.failovers
            ));
            out.push_str(&format!(
                "     \"discovery_us\": {{\"p50\": {}, \"p99\": {}, \"p999\": {}, \
                 \"samples\": {}}},\n",
                t.discovery_p50_us, t.discovery_p99_us, t.discovery_p999_us, t.discoveries
            ));
            out.push_str(&format!(
                "     \"publishes\": {}, \"deliveries\": {},\n",
                t.publishes, t.deliveries
            ));
            out.push_str(&format!(
                "     \"wire_bytes_per_entity\": {}, \"mem_bytes_per_entity\": {}, \
                 \"alloc_counting\": {}}}{}\n",
                t.wire_bytes_per_entity,
                t.mem_bytes_per_entity,
                t.alloc_counting,
                if i + 1 < self.tiers.len() { "," } else { "" },
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"ab\": [\n");
        for (i, a) in self.ab.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"n\": {}, \"rounds\": {}, \"oracle_match\": {}}}{}\n",
                a.name,
                a.n,
                a.rounds,
                a.oracle_match,
                if i + 1 < self.ab.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }
}

/// Runs the campaign: every tier in order at `workers` event workers,
/// then the A/B suite at the largest tier's population.
pub fn run_campaign(tiers: &[TierSpec], seed: u64, workers: usize) -> ScaleReport {
    let outcomes: Vec<TierOutcome> =
        tiers.iter().map(|t| run_tier(t, seed, workers)).collect();
    let ab_n = tiers.iter().map(|t| t.entities).max().unwrap_or(10_000);
    ScaleReport { seed, tiers: outcomes, ab: run_ab_suite(ab_n) }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny tier the test suite can afford.
    fn smoke_tier() -> TierSpec {
        TierSpec { name: "smoke", kind: WanKind::RandomGeometric, brokers: 20, entities: 60 }
    }

    #[test]
    fn smoke_tier_attaches_and_is_deterministic() {
        let spec = smoke_tier();
        let a = run_tier(&spec, 2005, 1);
        assert_eq!(a.attached, spec.entities, "fleet must fully attach");
        assert!(a.time_to_all_attached_us > 0);
        assert_eq!(a.discoveries, spec.entities);
        assert!(a.discovery_p50_us > 0);
        assert!(a.discovery_p50_us <= a.discovery_p99_us);
        assert!(a.discovery_p99_us <= a.discovery_p999_us);
        assert_eq!(a.failovers, 0);
        let b = run_tier(&spec, 2005, 2);
        assert_eq!(a.digest, b.digest, "digest must not move with the worker count");
        assert_eq!(a.events, b.events);
        assert_eq!(a.time_to_all_attached_us, b.time_to_all_attached_us);
        assert_eq!(
            (a.discovery_p50_us, a.discovery_p99_us, a.discovery_p999_us),
            (b.discovery_p50_us, b.discovery_p99_us, b.discovery_p999_us)
        );
        assert_eq!(a.deliveries, b.deliveries);
        assert_eq!(a.wire_bytes_per_entity, b.wire_bytes_per_entity);
    }

    #[test]
    fn steady_state_delivers_to_topic_sharers() {
        // 60 entities, PUBLISH_EVERY=509 → exactly one publisher (e0);
        // every entity in pool slot 0 (e0 only at 60 < 256... none but
        // the publisher's own slot) — use a bigger fleet to see fan-out.
        let spec =
            TierSpec { name: "pubsub", kind: WanKind::Star, brokers: 10, entities: 300 };
        let out = run_tier(&spec, 7, 1);
        assert_eq!(out.attached, spec.entities);
        // e0 publishes on slot 0; entities 0 and 256 subscribe slot 0.
        assert!(out.publishes >= 1, "the sampled publisher must flush");
        assert!(out.deliveries >= 1, "topic sharers must receive the publish");
    }

    #[test]
    fn ab_suite_oracles_hold_at_test_population() {
        for r in run_ab_suite(1_000) {
            assert!(r.oracle_match, "{}: slab answer diverged from legacy", r.name);
            assert!(r.legacy_ns_per_op > 0.0);
            assert!(r.slab_ns_per_op > 0.0);
        }
    }

    #[test]
    fn report_json_is_wall_free_and_balanced() {
        let spec = smoke_tier();
        let report = run_campaign(&[spec], 3, 1);
        let json = report.to_json();
        assert!(json.contains("\"campaign\": \"scale\""));
        assert!(json.contains("\"population\""));
        assert!(json.contains("\"oracle_match\": true"));
        assert!(!json.contains("wall"), "wall-clock fields must stay out of the report");
        assert!(!json.contains("ns_per_op"), "A/B wall columns are stdout-only");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}

