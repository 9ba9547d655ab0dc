//! `repro federation` — seeded BDN-loss campaigns over a federated
//! deployment.
//!
//! Where the chaos campaign (`chaos.rs`) proves discovery survives the
//! loss of its *single* BDN only because broker heartbeats repopulate
//! the registry, this campaign federates **three** BDNs running
//! anti-entropy (DESIGN.md §14) and kills up to n−1 of them. Each
//! scenario builds the same testbed (three federated BDNs spread over
//! three realms, six brokers on a star overlay, four entities whose
//! BDN rotation spans the whole federation), installs a [`FaultPlan`]
//! — scripted for scenario 0, drawn from [`FaultPlan::generate`] for
//! the rest — and checks three invariants:
//!
//! 1. **attached** — every entity ends the run attached to a live
//!    broker, even though its originally-preferred BDN may have spent
//!    most of the run dead (discovery success must be 100%),
//! 2. **cross_bdn_convergence** — once faults stop and the system
//!    quiesces, every live BDN reports the same registry digest
//!    ([`Bdn::registry_digest`]): anti-entropy reconverged the
//!    federation, including tombstone sets,
//! 3. **no_resurrection** — no live BDN holds a lease that one of its
//!    own tombstones retires, and no entity is attached to a broker the
//!    federation has tombstoned: a dead broker's advertisement must not
//!    crawl back out of a stale replica.
//!
//! Scenario 0 is the acceptance scenario: BDN 2 is crashed early
//! *preserving* its state and revived mid-run, so it rejoins holding a
//! registry from before a broker was permanently lost — the exact
//! stale-replica push that tombstones exist to block. BDN 1 is crashed
//! and later restarted *losing* its state, so for a window only one of
//! three BDNs is alive (k = n−1 loss) and every discovery in that
//! window must be served by the survivor. The whole campaign is a pure
//! function of its base seed; the JSON report contains no wall-clock
//! measurements, so two runs with the same seed — at any worker count —
//! produce byte-identical reports.

use std::time::Duration;

use nb_broker::{BrokerConfig, MachineProfile, Topology, TopologyKind};
use nb_discovery::bdn::{Bdn, BdnConfig};
use nb_discovery::{
    DiscoveryBrokerActor, DiscoveryConfig, Entity, EntityState, FederationConfig,
    FederationStats, ResponsePolicy, RetryPolicy,
};
use nb_net::{
    ChaosProfile, ChaosTargets, ClockProfile, FaultPlan, LinkSpec, ShardedSim,
};
use nb_wire::{NodeId, RealmId, Topic, TopicFilter};

/// Federated BDNs in the campaign testbed.
pub const N_BDNS: usize = 3;
/// Brokers in the campaign testbed.
pub const N_BROKERS: usize = 6;
/// Entities in the campaign testbed.
pub const N_ENTITIES: usize = 4;
/// Realms the nodes are spread over.
const N_REALMS: u16 = 3;
/// Anti-entropy round period (also the convergence-probe step).
const ROUND_INTERVAL: Duration = Duration::from_secs(2);
/// Horizon handed to [`FaultPlan::generate`] for randomized scenarios.
const GEN_HORIZON: Duration = Duration::from_secs(90);
/// Convergence probes abandoned after this many rounds.
const MAX_CONVERGENCE_ROUNDS: u64 = 30;

/// The built campaign testbed.
pub struct FederationDeployment {
    /// The simulator (owns every actor).
    pub sim: ShardedSim,
    /// The three federated BDNs.
    pub bdns: Vec<NodeId>,
    /// The six brokers.
    pub brokers: Vec<NodeId>,
    /// The four entities.
    pub entities: Vec<NodeId>,
}

/// Builds the testbed: three federated BDNs first (short 30 s
/// advertisement leases, strict lease mode, 2 s anti-entropy rounds),
/// then the brokers (10 s re-advertisement heartbeats to *every* BDN,
/// so origin stamps agree across replicas), then the entities (one
/// configured BDN each, extended to the full federation via
/// [`Entity::federate_bdns`]). Every restartable node gets a respawn
/// factory so `lose_state` restarts rebuild it from configuration
/// alone.
pub fn build_deployment(seed: u64) -> FederationDeployment {
    let mut sim = ShardedSim::with_clock_profile(seed, ClockProfile::perfect());
    sim.network_mut().intra_realm_spec = LinkSpec::lan().with_loss(0.0005);
    sim.network_mut().inter_realm_spec =
        LinkSpec::wan(Duration::from_millis(12)).with_loss(0.001);

    // BDN node ids are only known after `add_node`, but the federation
    // peer list needs all of them — add placeholders first, then swap in
    // the real configuration (the scenario-builder idiom).
    let bdns: Vec<NodeId> = (0..N_BDNS)
        .map(|i| {
            sim.add_node(
                &format!("bdn{i}"),
                RealmId(i as u16 % N_REALMS),
                Box::new(Bdn::new(BdnConfig::default())),
            )
        })
        .collect();
    for &b in &bdns {
        let cfg = BdnConfig {
            ad_ttl: Duration::from_secs(30),
            ping_interval: Duration::from_secs(5),
            require_lease: true,
            federation: Some(FederationConfig {
                peers: bdns.clone(),
                round_interval: ROUND_INTERVAL,
                tombstone_ttl: Duration::from_secs(300),
                seed,
                ..FederationConfig::default()
            }),
            ..BdnConfig::default()
        };
        *sim.actor_mut::<Bdn>(b).expect("bdn actor") = Bdn::new(cfg.clone());
        sim.set_respawn(b, Box::new(move || Box::new(Bdn::new(cfg.clone()))));
    }

    let heartbeat = Duration::from_secs(10);
    let topo = Topology::build(TopologyKind::Star, N_BROKERS);
    let mut brokers: Vec<NodeId> = Vec::new();
    for (i, dials) in topo.dial_lists().into_iter().enumerate() {
        let neighbors: Vec<NodeId> = dials.iter().map(|&j| brokers[j]).collect();
        let cfg = BrokerConfig {
            hostname: format!("b{i}"),
            machine: MachineProfile::default_2005(),
            neighbors,
            ..BrokerConfig::default()
        };
        let ad_targets = bdns.clone();
        let mut actor =
            DiscoveryBrokerActor::new(cfg.clone(), ad_targets.clone(), ResponsePolicy::open());
        actor.advertiser.set_readvertise(heartbeat);
        let node = sim.add_node(&format!("b{i}"), RealmId(i as u16 % N_REALMS), Box::new(actor));
        sim.set_respawn(
            node,
            Box::new(move || {
                let mut fresh = DiscoveryBrokerActor::new(
                    cfg.clone(),
                    ad_targets.clone(),
                    ResponsePolicy::open(),
                );
                fresh.advertiser.set_readvertise(heartbeat);
                Box::new(fresh)
            }),
        );
        brokers.push(node);
    }

    let discovery = DiscoveryConfig {
        bdns: Vec::new(), // one home BDN per entity, set below
        collection_window: Duration::from_millis(1500),
        max_responses: 10,
        target_set_size: 3,
        ping_window: Duration::from_millis(500),
        ack_timeout: Duration::from_millis(600),
        retransmits_per_bdn: 2,
        backoff: Some(RetryPolicy::new(
            Duration::from_millis(400),
            2.0,
            Duration::from_secs(5),
            0.2,
        )),
        ..DiscoveryConfig::default()
    };
    let filter = TopicFilter::parse("fed/**").expect("valid filter");
    let entities: Vec<NodeId> = (0..N_ENTITIES)
        .map(|i| {
            let mut cfg = discovery.clone();
            // Each entity is configured with a single home BDN; the
            // federation extends its rotation, so its retry budget
            // ((retransmits+1) × BDNs) spans every replica.
            cfg.bdns = vec![bdns[i % N_BDNS]];
            let mut entity = Entity::new(cfg, vec![filter.clone()]);
            entity.set_retry_policy(RetryPolicy::new(
                Duration::from_secs(2),
                2.0,
                Duration::from_secs(15),
                0.2,
            ));
            entity.federate_bdns(&bdns);
            sim.add_node(&format!("e{i}"), RealmId(i as u16 % N_REALMS), Box::new(entity))
        })
        .collect();

    FederationDeployment { sim, bdns, brokers, entities }
}

/// The scripted acceptance plan, built around the stale-replica
/// resurrection hazard:
///
/// * t=20 s: BDN 2 crashes **preserving state** (a frozen replica),
/// * t=25 s: BDN 1 crashes — two of three BDNs are now dead, every
///   discovery must be served by BDN 0 alone,
/// * t=30 s: broker 5 crashes permanently — its lease expires at the
///   survivor and becomes a tombstone,
/// * t=42 s: BDN 2 revives still holding its pre-crash registry (with
///   broker 5's old lease) and rejoins anti-entropy — the tombstone
///   must block the ghost,
/// * t=50 s: BDN 1 restarts **losing state** and must be repopulated
///   entirely by anti-entropy,
/// * t=55 s: a one-way flap severs BDN 0 → BDN 1 for 8 s, exercising
///   sync under partial partition.
pub fn acceptance_plan(dep: &FederationDeployment) -> FaultPlan {
    FaultPlan::new()
        .crash_at(Duration::from_secs(20), dep.bdns[2])
        .crash_at(Duration::from_secs(25), dep.bdns[1])
        .crash_at(Duration::from_secs(30), dep.brokers[5])
        .restart_at(Duration::from_secs(42), dep.bdns[2], false)
        .restart_at(Duration::from_secs(50), dep.bdns[1], true)
        .one_way_flap_at(
            Duration::from_secs(55),
            dep.bdns[0],
            dep.bdns[1],
            Duration::from_secs(8),
        )
        .sorted()
}

/// One invariant checker's verdict.
#[derive(Debug, Clone)]
pub struct InvariantResult {
    /// Checker name (`attached`, `cross_bdn_convergence`, `no_resurrection`).
    pub name: &'static str,
    /// Whether the invariant held.
    pub passed: bool,
    /// Deterministic evidence (counts and node names, no wall time).
    pub detail: String,
}

/// Federation counters reported for one BDN.
#[derive(Debug, Clone)]
pub struct BdnReport {
    /// The BDN's node name.
    pub name: String,
    /// Whether the BDN was up when the run ended.
    pub up: bool,
    /// Live leases held at the end of the run ([`Bdn::live_entries`]).
    pub live_leases: usize,
    /// Anti-entropy counters.
    pub stats: FederationStats,
    /// Malformed (or oversized) sync payloads rejected (D004).
    pub malformed_messages: u64,
}

/// Everything one scenario run produced.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Scenario name (`scripted_bdn_federation_loss` or `generated_<profile>`).
    pub name: String,
    /// The seed the deployment and (for generated plans) the schedule
    /// were drawn from.
    pub seed: u64,
    /// Faults in the installed plan.
    pub faults: usize,
    /// FNV-1a digest of the plan's canonical description.
    pub plan_digest: u64,
    /// The three invariant verdicts.
    pub invariants: Vec<InvariantResult>,
    /// Anti-entropy rounds of quiescence it took for every live BDN to
    /// report the same registry digest (0 = already converged;
    /// [`MAX_CONVERGENCE_ROUNDS`] = never).
    pub convergence_rounds: u64,
    /// Entities attached to a live broker when the run ended.
    pub attached: usize,
    /// Entities in the deployment (discovery success = attached/total).
    pub total_entities: usize,
    /// Rediscoveries entities performed because a broker went silent.
    pub failovers: u64,
    /// Per-BDN federation counters.
    pub bdn_reports: Vec<BdnReport>,
    /// Sends dropped on a severed (one- or two-way) path.
    pub unreachable_partitioned: u64,
}

impl ScenarioResult {
    /// Did every invariant hold?
    pub fn passed(&self) -> bool {
        self.invariants.iter().all(|i| i.passed)
    }
}

/// A whole campaign: scenario 0 scripted, the rest generated.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Base seed; scenario `i` runs under `base_seed + i`.
    pub base_seed: u64,
    /// Per-scenario outcomes.
    pub scenarios: Vec<ScenarioResult>,
}

impl CampaignReport {
    /// Did every scenario pass every invariant?
    pub fn passed(&self) -> bool {
        self.scenarios.iter().all(|s| s.passed())
    }

    /// Renders the campaign as JSON. Deliberately free of wall-clock
    /// fields: the report is a pure function of the base seed, which
    /// the determinism tests assert byte-for-byte at 1 and 4 workers.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"campaign\": \"federation\",\n");
        out.push_str(&format!("  \"base_seed\": {},\n", self.base_seed));
        out.push_str(&format!("  \"scenarios\": {},\n", self.scenarios.len()));
        out.push_str(&format!("  \"passed\": {},\n", self.passed()));
        out.push_str("  \"results\": [\n");
        for (i, s) in self.scenarios.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"seed\": {}, \"faults\": {}, \
                 \"plan_digest\": \"{:016x}\", \"passed\": {},\n",
                s.name, s.seed, s.faults, s.plan_digest, s.passed()
            ));
            out.push_str("     \"invariants\": [\n");
            for (j, inv) in s.invariants.iter().enumerate() {
                out.push_str(&format!(
                    "       {{\"name\": \"{}\", \"passed\": {}, \"detail\": \"{}\"}}{}\n",
                    inv.name,
                    inv.passed,
                    inv.detail.replace('\\', "\\\\").replace('"', "\\\""),
                    if j + 1 < s.invariants.len() { "," } else { "" },
                ));
            }
            out.push_str("     ],\n");
            out.push_str(&format!(
                "     \"stats\": {{\"convergence_rounds\": {}, \"attached\": {}, \
                 \"total_entities\": {}, \"failovers\": {}, \
                 \"unreachable_partitioned\": {}}},\n",
                s.convergence_rounds,
                s.attached,
                s.total_entities,
                s.failovers,
                s.unreachable_partitioned,
            ));
            out.push_str("     \"federation\": [\n");
            for (j, b) in s.bdn_reports.iter().enumerate() {
                out.push_str(&format!(
                    "       {{\"name\": \"{}\", \"up\": {}, \"live_leases\": {}, \
                     \"rounds_run\": {}, \"digests_matched\": {}, \
                     \"digests_mismatched\": {}, \"entries_pushed\": {}, \
                     \"entries_pulled\": {}, \"tombstones_applied\": {}, \
                     \"tombstones_expired\": {}, \"resurrections_blocked\": {}, \
                     \"malformed_messages\": {}}}{}\n",
                    b.name,
                    b.up,
                    b.live_leases,
                    b.stats.rounds_run,
                    b.stats.digests_matched,
                    b.stats.digests_mismatched,
                    b.stats.entries_pushed,
                    b.stats.entries_pulled,
                    b.stats.tombstones_applied,
                    b.stats.tombstones_expired,
                    b.stats.resurrections_blocked,
                    b.malformed_messages,
                    if j + 1 < s.bdn_reports.len() { "," } else { "" },
                ));
            }
            out.push_str(&format!(
                "     ]}}{}\n",
                if i + 1 < self.scenarios.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }
}

/// FNV-1a over the plan's canonical description.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Live BDNs' registry digests at the simulator's current instant.
/// `None` for a digest means the BDN is down (excluded from agreement).
fn live_digests(dep: &FederationDeployment) -> Vec<(NodeId, u64)> {
    let now = dep.sim.now();
    dep.bdns
        .iter()
        .filter(|&&b| dep.sim.is_up(b))
        .filter_map(|&b| dep.sim.actor::<Bdn>(b).map(|bdn| (b, bdn.registry_digest(now))))
        .collect()
}

/// Runs one scenario under `seed`: boot and attach, a round of traffic,
/// the fault plan, a recovery window, a second round of traffic, then a
/// quiescent convergence probe (stepping one anti-entropy round at a
/// time) and the invariant checks.
pub fn run_scenario(
    name: &str,
    seed: u64,
    make_plan: &dyn Fn(&FederationDeployment) -> FaultPlan,
) -> ScenarioResult {
    let mut dep = build_deployment(seed);

    // Boot: everyone discovers and attaches; the federation runs a few
    // clean anti-entropy rounds.
    dep.sim.run_for(Duration::from_secs(12));

    // Round 1 of traffic (exercises the pub/sub path before faults).
    for (i, &e) in dep.entities.iter().enumerate() {
        let topic = Topic::parse(&format!("fed/round1/e{i}")).expect("valid topic");
        dep.sim.actor_mut::<Entity>(e).expect("entity").queue_publish(topic, vec![i as u8]);
    }
    dep.sim.run_for(Duration::from_secs(4));

    // The storm.
    let plan = make_plan(&dep);
    let digest = fnv1a64(plan.describe().as_bytes());
    let faults = plan.len();
    let last_fault = plan.events().iter().map(|e| e.at).max().unwrap_or_default();
    dep.sim.apply_fault_plan(&plan);
    dep.sim.run_for(last_fault + Duration::from_secs(10));

    // Recovery: keepalives notice dead brokers (6 s), stranded retries
    // back off to a 15 s cap, heartbeats refresh 30 s leases, and the
    // lease a permanently-dead broker left behind expires and becomes a
    // tombstone that anti-entropy must propagate.
    dep.sim.run_for(Duration::from_secs(60));

    // Round 2 of traffic against the healed deployment.
    for (i, &e) in dep.entities.iter().enumerate() {
        let topic = Topic::parse(&format!("fed/round2/e{i}")).expect("valid topic");
        dep.sim.actor_mut::<Entity>(e).expect("entity").queue_publish(topic, vec![i as u8]);
    }
    dep.sim.run_for(Duration::from_secs(8));

    // Convergence probe: step one anti-entropy round at a time until
    // every live BDN reports the same registry digest.
    let mut convergence_rounds = 0u64;
    let mut converged = false;
    while convergence_rounds <= MAX_CONVERGENCE_ROUNDS {
        let digests = live_digests(&dep);
        if !digests.is_empty() && digests.iter().all(|&(_, d)| d == digests[0].1) {
            converged = true;
            break;
        }
        if convergence_rounds == MAX_CONVERGENCE_ROUNDS {
            break;
        }
        dep.sim.run_for(ROUND_INTERVAL);
        convergence_rounds += 1;
    }

    // Invariant 1: every entity attached to a live broker (100%
    // discovery success despite k = n−1 BDN loss).
    let mut attached_ok = true;
    let mut attached = 0usize;
    let mut attached_detail = String::new();
    for &e in &dep.entities {
        let entity = dep.sim.actor::<Entity>(e).expect("entity");
        let verdict = match entity.state() {
            EntityState::Attached(b) if dep.sim.is_up(b) => {
                attached += 1;
                format!("{}->{}", dep.sim.node_name(e), dep.sim.node_name(b))
            }
            EntityState::Attached(b) => {
                attached_ok = false;
                format!("{}->DOWN({})", dep.sim.node_name(e), dep.sim.node_name(b))
            }
            other => {
                attached_ok = false;
                format!("{}={:?}", dep.sim.node_name(e), other)
            }
        };
        if !attached_detail.is_empty() {
            attached_detail.push(' ');
        }
        attached_detail.push_str(&verdict);
    }

    // Invariant 2: the live federation agrees on one registry digest.
    let digests = live_digests(&dep);
    let convergence_detail = if converged {
        format!(
            "{} live BDNs agree on {:016x} after {} rounds",
            digests.len(),
            digests.first().map(|&(_, d)| d).unwrap_or(0),
            convergence_rounds
        )
    } else {
        let mut parts = String::new();
        for &(b, d) in &digests {
            if !parts.is_empty() {
                parts.push(' ');
            }
            parts.push_str(&format!("{}={:016x}", dep.sim.node_name(b), d));
        }
        format!("diverged after {MAX_CONVERGENCE_ROUNDS} rounds: {parts}")
    };

    // Invariant 3: no resurrection — no live BDN holds a lease its own
    // tombstone retires, and no entity rides a tombstoned broker.
    let now = dep.sim.now();
    let mut resurrection_ok = true;
    let mut resurrection_detail = String::new();
    let mut total_tombstones = 0usize;
    for &b in &dep.bdns {
        if !dep.sim.is_up(b) {
            continue;
        }
        let Some(bdn) = dep.sim.actor::<Bdn>(b) else { continue };
        let Some(fed) = bdn.federation() else { continue };
        for (&broker, &t) in fed.tombstones() {
            total_tombstones += 1;
            let ghost = bdn
                .registered(broker)
                .is_some_and(|reg| now <= reg.expires_at && reg.ad.issued_at_utc <= t);
            if ghost {
                resurrection_ok = false;
                resurrection_detail.push_str(&format!(
                    "{} resurrected at {} ",
                    dep.sim.node_name(broker),
                    dep.sim.node_name(b)
                ));
            }
            for &e in &dep.entities {
                let entity = dep.sim.actor::<Entity>(e).expect("entity");
                if entity.broker() == Some(broker) && !dep.sim.is_up(broker) {
                    resurrection_ok = false;
                    resurrection_detail.push_str(&format!(
                        "{} attached to tombstoned {} ",
                        dep.sim.node_name(e),
                        dep.sim.node_name(broker)
                    ));
                }
            }
        }
    }
    if resurrection_ok {
        resurrection_detail = format!("{total_tombstones} tombstones, 0 ghosts");
    }

    let failovers: u64 = dep
        .entities
        .iter()
        .map(|&e| dep.sim.actor::<Entity>(e).expect("entity").failovers)
        .sum();
    let bdn_reports: Vec<BdnReport> = dep
        .bdns
        .iter()
        .map(|&b| {
            let up = dep.sim.is_up(b);
            let (live_leases, stats, malformed) = dep
                .sim
                .actor::<Bdn>(b)
                .map(|bdn| {
                    (
                        bdn.live_entries(now),
                        bdn.federation().map(|f| f.stats).unwrap_or_default(),
                        bdn.malformed_messages,
                    )
                })
                .unwrap_or_default();
            BdnReport {
                name: dep.sim.node_name(b).to_string(),
                up,
                live_leases,
                stats,
                malformed_messages: malformed,
            }
        })
        .collect();
    let stats = dep.sim.stats();
    ScenarioResult {
        name: name.to_string(),
        seed,
        faults,
        plan_digest: digest,
        invariants: vec![
            InvariantResult { name: "attached", passed: attached_ok, detail: attached_detail },
            InvariantResult {
                name: "cross_bdn_convergence",
                passed: converged,
                detail: convergence_detail,
            },
            InvariantResult {
                name: "no_resurrection",
                passed: resurrection_ok,
                detail: resurrection_detail.trim_end().to_string(),
            },
        ],
        convergence_rounds,
        attached,
        total_entities: dep.entities.len(),
        failovers,
        bdn_reports,
        unreachable_partitioned: stats.unreachable_partitioned,
    }
}

/// Runs scenario `i` of a campaign rooted at `base_seed`: scenario 0
/// is the scripted acceptance plan, scenario `i > 0` draws a
/// randomized plan (BDNs included in the crash targets) from seed
/// `base_seed + i`, alternating the light and heavy profiles. Each
/// scenario is a pure function of `(base_seed, i)` alone — the
/// property that lets campaigns shard across worker threads without
/// changing a byte of the report.
pub fn run_campaign_scenario(base_seed: u64, i: usize) -> ScenarioResult {
    let seed = base_seed.wrapping_add(i as u64);
    if i == 0 {
        run_scenario("scripted_bdn_federation_loss", seed, &acceptance_plan)
    } else {
        let profile = if i % 2 == 1 { ChaosProfile::light() } else { ChaosProfile::heavy() };
        let name = if i % 2 == 1 { "generated_light" } else { "generated_heavy" };
        run_scenario(name, seed, &move |dep: &FederationDeployment| {
            let targets = ChaosTargets {
                bdns: dep.bdns.clone(),
                brokers: dep.brokers.clone(),
                clients: dep.entities.clone(),
            };
            FaultPlan::generate(seed, &profile, &targets, GEN_HORIZON)
        })
    }
}

/// Runs a campaign of `scenarios` runs from `base_seed` on one worker.
pub fn run_campaign(base_seed: u64, scenarios: usize) -> CampaignReport {
    run_campaign_with_workers(base_seed, scenarios, 1)
}

/// Scenario-parallel campaign: scenarios are independent deployments,
/// so they shard across `workers` threads and merge back in scenario
/// order. The report is a pure function of `(base_seed, scenarios)` —
/// byte-identical for every worker count — which the worker-pinned
/// digest test in `tests/federation_campaign.rs` asserts at 1 and 4
/// workers.
pub fn run_campaign_with_workers(
    base_seed: u64,
    scenarios: usize,
    workers: usize,
) -> CampaignReport {
    let results = crate::parallel::ParallelExecutor::with_workers(workers)
        .run(scenarios, |i| run_campaign_scenario(base_seed, i));
    CampaignReport { base_seed, scenarios: results }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acceptance_plan_kills_n_minus_one_bdns() {
        let dep = build_deployment(7);
        let plan = acceptance_plan(&dep);
        // 2 BDN crashes + 1 broker crash + 2 restarts + flap (2 events).
        assert_eq!(plan.len(), 7);
        let text = plan.describe();
        assert!(text.contains("restart node=1 lose_state=true"), "BDN 1 loses state:\n{text}");
        assert!(text.contains("restart node=2 lose_state=false"), "BDN 2 keeps state:\n{text}");
    }

    #[test]
    fn scripted_scenario_passes_all_invariants() {
        let r = run_scenario("scripted_bdn_federation_loss", 2005, &acceptance_plan);
        for inv in &r.invariants {
            assert!(inv.passed, "{} failed: {}", inv.name, inv.detail);
        }
        assert_eq!(r.attached, N_ENTITIES, "100% discovery success under n-1 BDN loss");
        let tombstones_applied: u64 =
            r.bdn_reports.iter().map(|b| b.stats.tombstones_applied).sum();
        assert!(tombstones_applied >= 1, "the dead broker's tombstone propagated: {r:?}");
        let pulled: u64 = r.bdn_reports.iter().map(|b| b.stats.entries_pulled).sum();
        assert!(pulled >= 1, "anti-entropy repopulated the state-lossy BDN: {r:?}");
    }
}
