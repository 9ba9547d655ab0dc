//! # nb-bench
//!
//! The reproduction harness: one function per table/figure of the paper,
//! shared between the `repro` binary and the Criterion benches. Each
//! experiment follows the paper's protocol — "the discovery process was
//! carried out 120 times and the first 100 results were selected after
//! removing outliers" (§9) — and reports the same five metrics (mean,
//! standard deviation, maximum, minimum, error).

pub mod chaos;
pub mod codec;
pub mod federation;
pub mod parallel;
pub mod report;
pub mod routing;
pub mod scale;

use std::time::{Duration, Instant};

use crate::parallel::{seeded, ParallelExecutor};
use nb_broker::TopologyKind;
use nb_discovery::scenario::ScenarioBuilder;
use nb_discovery::{DiscoveryOutcome, SelectionWeights};
use nb_net::wan::{SiteIdx, WanModel, BLOOMINGTON, CARDIFF, FSU, NCSA, UMN};
use nb_security::{open_envelope, seal_envelope, Authority, Certificate, Identity};
use nb_util::stats::{paper_protocol, Summary};
use nb_util::Uuid;
use nb_wire::{Credential, DiscoveryRequest, Endpoint, Message, NodeId, Port, RealmId};

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs in the paper's protocol.
pub const PAPER_RUNS: usize = 120;
/// Samples kept after outlier trimming.
pub const PAPER_KEEP: usize = 100;

/// Renders the Table-1 machine inventory.
pub fn table1() -> String {
    WanModel::paper().to_string()
}

/// Renders the topology diagram figures (1, 8, 10).
pub fn topology_figure(kind: TopologyKind) -> String {
    let wan = WanModel::paper();
    let labels: Vec<String> = [1usize, 2, 3, 4, 5] // broker sites
        .iter()
        .map(|&s| wan.site(s).name.to_string())
        .collect();
    let topo = nb_broker::Topology::build(kind, 5);
    topo.render_ascii(kind, &labels)
}

/// Runs `runs` discoveries in the given topology with the client at
/// `client_site`, returning the raw outcomes.
///
/// Run `i` is an independent deployment seeded `seed.wrapping_add(i)`,
/// sharded across worker threads; the output is identical to a serial
/// loop over the same seeds (see [`parallel::ParallelExecutor`]).
pub fn run_topology(
    kind: TopologyKind,
    client_site: SiteIdx,
    seed: u64,
    runs: usize,
) -> Vec<DiscoveryOutcome> {
    let builder = ScenarioBuilder::new(kind, client_site, seed);
    ParallelExecutor::new().run_discoveries(seed, runs, seeded(&builder))
}

/// The sub-activity percentage breakdown (Figures 2, 9, 11): average
/// share of total discovery time per phase over the paper protocol.
pub fn figure_breakdown(kind: TopologyKind, seed: u64, runs: usize) -> Vec<(&'static str, f64)> {
    let outcomes = run_topology(kind, BLOOMINGTON, seed, runs);
    let totals: Vec<f64> =
        outcomes.iter().map(|o| o.phases.total().as_secs_f64() * 1e3).collect();
    let kept = keep_indices(&totals, PAPER_KEEP);
    let labels = ["issue+ack", "await responses", "selection", "ping measurement", "connect"];
    let mut sums = [0.0f64; 5];
    let mut total_sum = 0.0;
    for &i in &kept {
        let p = &outcomes[i].phases;
        sums[0] += p.issue.as_secs_f64();
        sums[1] += p.collect.as_secs_f64();
        sums[2] += p.select.as_secs_f64();
        sums[3] += p.ping.as_secs_f64();
        sums[4] += p.connect.as_secs_f64();
        total_sum += p.total().as_secs_f64();
    }
    labels
        .iter()
        .zip(sums.iter())
        .map(|(&l, &s)| (l, if total_sum > 0.0 { s / total_sum } else { 0.0 }))
        .collect()
}

/// Total discovery time statistics with the client at `client_site`
/// (Figures 3–7: FSU, Cardiff, UMN, NCSA, Bloomington over the
/// unconnected topology).
pub fn figure_site_times(client_site: SiteIdx, seed: u64, runs: usize) -> Summary {
    let outcomes = run_topology(TopologyKind::Unconnected, client_site, seed, runs);
    summarize_totals(&outcomes)
}

/// Multicast-only discovery time statistics (Figure 12): no BDN, only
/// the brokers inside the client's lab realm are reachable.
pub fn figure_multicast(seed: u64, runs: usize, local_brokers: usize) -> Summary {
    let builder = ScenarioBuilder::multicast(seed, local_brokers);
    let outcomes = ParallelExecutor::new().run_discoveries(seed, runs, seeded(&builder));
    assert!(
        outcomes.iter().all(|o| o.used_multicast),
        "figure 12 must exercise the multicast path"
    );
    summarize_totals(&outcomes)
}

/// Per-figure client-site list, paper order (Figures 3–7).
pub fn site_figures() -> [(u32, SiteIdx, &'static str); 5] {
    [
        (3, FSU, "FSU, FL"),
        (4, CARDIFF, "Cardiff, UK"),
        (5, UMN, "UMN, MN"),
        (6, NCSA, "NCSA, UIUC, IL"),
        (7, BLOOMINGTON, "Bloomington, IN"),
    ]
}

fn summarize_totals(outcomes: &[DiscoveryOutcome]) -> Summary {
    let totals_ms: Vec<f64> = outcomes
        .iter()
        .filter(|o| o.chosen.is_some())
        .map(|o| o.phases.total().as_secs_f64() * 1e3)
        .collect();
    let kept = paper_protocol(&totals_ms, PAPER_KEEP);
    Summary::of(&kept).expect("non-empty sample")
}

/// Indices of the samples the paper protocol keeps (3σ trim, first 100).
fn keep_indices(samples: &[f64], keep: usize) -> Vec<usize> {
    let Some(s) = Summary::of(samples) else {
        return Vec::new();
    };
    let keep_all = samples.len() < 3 || s.std_dev == 0.0;
    samples
        .iter()
        .enumerate()
        .filter(|(_, &x)| keep_all || (x - s.mean).abs() <= 3.0 * s.std_dev)
        .map(|(i, _)| i)
        .take(keep)
        .collect()
}

// --------------------------------------------------------------------
// Security cost figures (13, 14) — wall-clock measurements of real work.
// --------------------------------------------------------------------

/// Test fixtures for the security measurements.
pub struct SecurityFixture {
    /// The certificate authority.
    pub ca: Authority,
    /// Client identity (request sender).
    pub client: Identity,
    /// Broker identity (request recipient).
    pub broker: Identity,
    /// A representative discovery request message.
    pub request: Message,
    /// RNG for nonces.
    pub rng: StdRng,
}

impl SecurityFixture {
    /// Builds CA, identities and a sample request.
    pub fn new(seed: u64) -> SecurityFixture {
        let mut rng = StdRng::seed_from_u64(seed);
        let ca = Authority::new_root("GridServiceLocator Root CA", 0, u64::MAX, &mut rng);
        let client = Identity::issued_by("discovery-client", &ca, &mut rng);
        let broker = Identity::issued_by("broker-indy", &ca, &mut rng);
        let request = Message::Discovery(DiscoveryRequest {
            request_id: Uuid::from_u128(7),
            requester: NodeId(9),
            hostname: "client.bloomington.in".into(),
            realm: RealmId(0),
            reply_to: Endpoint::new(NodeId(9), Port(5060)),
            transports: vec![],
            credentials: Some(Credential {
                principal: "discovery-client".into(),
                token: vec![0xAB; 16],
            }),
            issued_at_utc: 1_120_000_000_000_000,
        });
        SecurityFixture { ca, client, broker, request, rng }
    }

    /// The client's certificate chain.
    pub fn client_chain(&self) -> &[Certificate] {
        &self.client.chain
    }
}

/// Figure 13: time to validate a client's X.509-style certificate chain.
pub fn figure_cert_validation(seed: u64, iters: usize) -> Summary {
    let fx = SecurityFixture::new(seed);
    let now = 1_000_000u64;
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        Certificate::validate_chain(fx.client_chain(), &fx.ca.root_cert, now)
            .expect("valid chain");
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let kept = paper_protocol(&samples, PAPER_KEEP.min(iters));
    Summary::of(&kept).expect("non-empty")
}

/// Figure 14: time to sign + encrypt a discovery request and later
/// decrypt + verify it.
pub fn figure_sign_encrypt(seed: u64, iters: usize) -> Summary {
    let mut fx = SecurityFixture::new(seed);
    let now = 1_000_000u64;
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        let env = seal_envelope(&fx.request, &fx.client, fx.broker.public(), &mut fx.rng);
        let opened = open_envelope(&env, &fx.broker, &fx.ca.root_cert, now).expect("opens");
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
        assert_eq!(opened, fx.request);
    }
    let kept = paper_protocol(&samples, PAPER_KEEP.min(iters));
    Summary::of(&kept).expect("non-empty")
}

// --------------------------------------------------------------------
// Ablations beyond the paper.
// --------------------------------------------------------------------

/// Sweep of the collection timeout (§9's timeout trade-off): returns
/// `(timeout_ms, mean total_ms, mean responses)` rows. `max_responses`
/// is set above the broker count so the window length binds.
pub fn ablation_timeout(seed: u64, runs: usize) -> Vec<(u64, f64, f64)> {
    let mut rows = Vec::new();
    for timeout_ms in [250u64, 500, 1000, 2000, 4000] {
        let mut builder = ScenarioBuilder::new(TopologyKind::Star, BLOOMINGTON, seed);
        builder.discovery.collection_window = Duration::from_millis(timeout_ms);
        builder.discovery.max_responses = 100; // window-bound
        let outcomes = ParallelExecutor::new().run_discoveries(seed, runs, seeded(&builder));
        let mean_total = mean(outcomes.iter().map(|o| o.phases.total().as_secs_f64() * 1e3));
        let mean_resp = mean(outcomes.iter().map(|o| o.responses_received as f64));
        rows.push((timeout_ms, mean_total, mean_resp));
    }
    rows
}

/// Sweep of the max-responses cap: `(cap, mean total_ms, mean responses)`.
pub fn ablation_max_responses(seed: u64, runs: usize) -> Vec<(usize, f64, f64)> {
    let mut rows = Vec::new();
    for cap in [1usize, 2, 3, 5, 100] {
        let mut builder = ScenarioBuilder::new(TopologyKind::Star, BLOOMINGTON, seed);
        builder.discovery.max_responses = cap;
        let outcomes = ParallelExecutor::new().run_discoveries(seed, runs, seeded(&builder));
        let mean_total = mean(outcomes.iter().map(|o| o.phases.total().as_secs_f64() * 1e3));
        let mean_resp = mean(outcomes.iter().map(|o| o.responses_received as f64));
        rows.push((cap, mean_total, mean_resp));
    }
    rows
}

/// Weighting ablation: how often each broker site wins under different
/// weight presets. Returns `(preset, Vec<(site name, wins)>)`.
pub fn ablation_weights(seed: u64, runs: usize) -> Vec<(&'static str, Vec<(String, usize)>)> {
    let presets: [(&'static str, SelectionWeights); 3] = [
        ("default", SelectionWeights::default()),
        ("proximity-only", SelectionWeights::proximity_only()),
        ("load-only", SelectionWeights::load_only()),
    ];
    let wan = WanModel::paper();
    let mut out = Vec::new();
    for (name, weights) in presets {
        let mut builder = ScenarioBuilder::new(TopologyKind::Star, BLOOMINGTON, seed);
        builder.discovery.weights = weights;
        let outcomes = ParallelExecutor::new().run_discoveries(seed, runs, seeded(&builder));
        // Broker ids and sites are fixed by the builder config, not the
        // seed, so one reference deployment maps winners to sites.
        let scenario = builder.build();
        let mut wins: Vec<(String, usize)> = Vec::new();
        for o in &outcomes {
            if let Some(chosen) = o.chosen {
                let site = scenario.site_of_broker(chosen).expect("broker site");
                let label = wan.site(site).name.to_string();
                match wins.iter_mut().find(|(l, _)| *l == label) {
                    Some((_, c)) => *c += 1,
                    None => wins.push((label, 1)),
                }
            }
        }
        wins.sort_by_key(|(_, c)| std::cmp::Reverse(*c));
        out.push((name, wins));
    }
    out
}

/// Broker-count scaling: `(n_brokers, kind, mean total_ms)` rows across
/// the three paper topologies. Extra brokers cycle over the WAN sites.
pub fn ablation_scale(seed: u64, runs: usize) -> Vec<(usize, &'static str, f64)> {
    let kinds = [TopologyKind::Unconnected, TopologyKind::Star, TopologyKind::Linear];
    let site_cycle = [1usize, 2, 3, 4, 5];
    let mut rows = Vec::new();
    for n in [5usize, 10, 20] {
        for kind in kinds {
            let mut builder = ScenarioBuilder::new(kind, BLOOMINGTON, seed);
            builder.broker_sites = (0..n).map(|i| site_cycle[i % site_cycle.len()]).collect();
            builder.discovery.max_responses = n;
            let outcomes = ParallelExecutor::new().run_discoveries(seed, runs, seeded(&builder));
            let mean_total =
                mean(outcomes.iter().map(|o| o.phases.total().as_secs_f64() * 1e3));
            rows.push((n, kind.label(), mean_total));
        }
    }
    rows
}

/// UDP-loss sensitivity sweep (the §5.2 design rationale: responses are
/// UDP and loss filters distant brokers). Returns
/// `(loss_factor, success_rate, mean responses, mean total_ms)` rows over
/// the unconnected topology.
pub fn ablation_loss(seed: u64, runs: usize) -> Vec<(f64, f64, f64, f64)> {
    let mut rows = Vec::new();
    for factor in [0.0, 1.0, 10.0, 50.0, 200.0] {
        let mut builder = ScenarioBuilder::new(TopologyKind::Unconnected, BLOOMINGTON, seed);
        builder.loss_factor = factor;
        // Bound the windows so heavy loss doesn't stall the sweep.
        builder.discovery.collection_window = Duration::from_millis(1500);
        builder.discovery.ping_window = Duration::from_millis(500);
        builder.discovery.ack_timeout = Duration::from_millis(400);
        builder.discovery.retransmits_per_bdn = 3;
        let outcomes = ParallelExecutor::new().run_discoveries(seed, runs, seeded(&builder));
        let successes = outcomes.iter().filter(|o| o.chosen.is_some()).count();
        let mean_resp = mean(outcomes.iter().map(|o| o.responses_received as f64));
        let mean_total = mean(
            outcomes
                .iter()
                .filter(|o| o.chosen.is_some())
                .map(|o| o.phases.total().as_secs_f64() * 1e3),
        );
        rows.push((factor, successes as f64 / runs as f64, mean_resp, mean_total));
    }
    rows
}

/// Clock-residual sensitivity sweep (the paper's §5 claim that 1–20 ms
/// NTP accuracy yields "a very good estimate" of network delay).
///
/// The full protocol is robust to clock error because the UDP **ping
/// phase re-measures** precise RTTs (§6) — an ablation in itself. To
/// isolate the timestamp-based estimate, selection is pinned to pure
/// estimated proximity with a target set of one (no ping
/// disambiguation). Node residuals are sampled once per deployment, so
/// the sweep runs `seeds` independent deployments per profile. Returns
/// `(residual label, nearest-chosen rate, mean estimate error ms)`.
pub fn ablation_clock(base_seed: u64, seeds: u64) -> Vec<(&'static str, f64, f64)> {
    use nb_net::ClockProfile;
    let profiles: [(&'static str, ClockProfile); 4] = [
        ("perfect", ClockProfile::perfect()),
        ("paper 1-20ms", ClockProfile::paper()),
        (
            "loose 50-200ms",
            ClockProfile {
                min_residual: Duration::from_millis(50),
                max_residual: Duration::from_millis(200),
                ..ClockProfile::paper()
            },
        ),
        (
            "broken 0.5-2s",
            ClockProfile {
                min_residual: Duration::from_millis(500),
                max_residual: Duration::from_millis(2000),
                ..ClockProfile::paper()
            },
        ),
    ];
    let wan = WanModel::paper();
    let mut rows = Vec::new();
    for (label, clock) in profiles {
        // One independent deployment per seed, sharded across workers.
        let samples = ParallelExecutor::new().run(seeds as usize, |i| {
            let mut builder =
                ScenarioBuilder::new(TopologyKind::Star, BLOOMINGTON, base_seed + i as u64);
            builder.clock = clock;
            builder.discovery.weights = SelectionWeights::proximity_only();
            builder.discovery.target_set_size = 1; // no ping disambiguation
            let mut scenario = builder.build();
            let outcome = scenario.run_discovery_once();
            outcome.chosen.map(|chosen| {
                // Estimate error: measured ping RTT/2 is ground truth-ish;
                // compare against the true one-way latency of the chosen
                // site instead (exact in the model).
                let site = scenario.site_of_broker(chosen).unwrap();
                let true_one_way = wan.one_way(BLOOMINGTON, site).as_secs_f64() * 1e3;
                let nearest_one_way = wan.one_way(BLOOMINGTON, 1).as_secs_f64() * 1e3;
                // Indianapolis (site 1) is the true nearest.
                (site == 1, true_one_way - nearest_one_way)
            })
        });
        let hits = samples.iter().flatten().filter(|(nearest, _)| *nearest).count();
        let est_err_ms: Vec<f64> = samples.iter().flatten().map(|(_, e)| *e).collect();
        rows.push((label, hits as f64 / seeds as f64, mean(est_err_ms.into_iter())));
    }
    rows
}

/// Overlay-shape ablation beyond the paper's three: compares mean
/// discovery time and waiting share across all built-in topologies at 10
/// brokers. Returns `(kind, mean total_ms, wait share, diameter)`.
pub fn ablation_topology(seed: u64, runs: usize) -> Vec<(&'static str, f64, f64, Option<usize>)> {
    let site_cycle = [1usize, 2, 3, 4, 5];
    let n = 10;
    let mut rows = Vec::new();
    for kind in TopologyKind::ALL {
        let mut builder = ScenarioBuilder::new(kind, BLOOMINGTON, seed);
        builder.broker_sites = (0..n).map(|i| site_cycle[i % site_cycle.len()]).collect();
        builder.discovery.max_responses = n;
        let mut scenario = builder.build();
        let diameter = scenario.topology.diameter();
        let outcomes = scenario.run_discovery(runs);
        let mean_total = mean(outcomes.iter().map(|o| o.phases.total().as_secs_f64() * 1e3));
        let wait_share = {
            let wait: f64 = outcomes.iter().map(|o| o.phases.collect.as_secs_f64()).sum();
            let total: f64 = outcomes.iter().map(|o| o.phases.total().as_secs_f64()).sum();
            if total > 0.0 { wait / total } else { 0.0 }
        };
        rows.push((kind.label(), mean_total, wait_share, diameter));
    }
    rows
}

/// Bulk-transfer scaling over the overlay: how long moving a dataset
/// from a producer behind broker A to a consumer behind broker B takes,
/// with and without LZSS compression, under the 10 Mbit/s WAN bandwidth
/// model. Returns `(size_bytes, compressed, fragments, virtual_ms)`.
pub fn ablation_bulk(seed: u64) -> Vec<(usize, bool, usize, f64)> {
    use nb_broker::{BrokerActor, BrokerConfig, PubSubClient};
    use nb_net::{ClockProfile, LinkSpec, ShardedSim};
    use nb_services::compress::compress_payload;
    use nb_services::fragment::fragment_payload;
    use nb_wire::{RealmId, Topic, TopicFilter, Wire};

    let mut rows = Vec::new();
    for size in [64 * 1024usize, 256 * 1024, 1024 * 1024] {
        for compressed in [false, true] {
            let mut sim = ShardedSim::with_clock_profile(seed, ClockProfile::perfect());
            sim.network_mut().inter_realm_spec =
                LinkSpec::wan(Duration::from_millis(20)).with_loss(0.0);
            let a = sim.add_node(
                "a",
                RealmId(0),
                Box::new(BrokerActor::new(BrokerConfig::default())),
            );
            let b = sim.add_node(
                "b",
                RealmId(1),
                Box::new(BrokerActor::new(BrokerConfig {
                    neighbors: vec![a],
                    ..BrokerConfig::default()
                })),
            );
            let filter = TopicFilter::parse("bulk/**").unwrap();
            let rx = sim.add_node("rx", RealmId(1), Box::new(PubSubClient::new(b, vec![filter])));
            let tx = sim.add_node("tx", RealmId(0), Box::new(PubSubClient::new(a, vec![])));
            sim.run_for(Duration::from_secs(3));

            // A log-like payload (compressible).
            let dataset =
                b"2005-06-29T12:00:00Z,sensor-42,temperature,21.5,C\n".repeat(size / 50);
            let wire_payload =
                if compressed { compress_payload(&dataset) } else { dataset.clone() };
            let frags =
                fragment_payload(nb_util::Uuid::from_u128(1), &wire_payload, 1400);
            let n_frags = frags.len();
            let start = sim.now();
            {
                let sender = sim.actor_mut::<PubSubClient>(tx).unwrap();
                for f in frags {
                    sender.queue_publish(
                        Topic::parse("bulk/data").unwrap(),
                        f.to_bytes().to_vec(),
                    );
                }
            }
            // Run until every fragment lands (fine-grained steps so the
            // reported duration is not quantised by the polling).
            let mut waited = 0u32;
            loop {
                sim.run_for(Duration::from_millis(2));
                let got = sim.actor::<PubSubClient>(rx).unwrap().received.len();
                if got >= n_frags {
                    break;
                }
                waited += 1;
                assert!(waited < 600_000, "bulk transfer stalled at {got}/{n_frags}");
            }
            let elapsed = (sim.now() - start).as_secs_f64() * 1e3;
            rows.push((dataset.len(), compressed, n_frags, elapsed));
        }
    }
    rows
}

fn mean(iter: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = iter.collect();
    if v.is_empty() {
        f64::NAN
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

// --------------------------------------------------------------------
// Self-verification: the paper's qualitative claims as checks.
// --------------------------------------------------------------------

/// One shape claim verified against fresh measurements.
#[derive(Debug, Clone)]
pub struct ShapeCheck {
    /// What the paper claims.
    pub claim: &'static str,
    /// Evidence measured this run.
    pub evidence: String,
    /// Whether the claim held.
    pub passed: bool,
}

/// Re-measures every qualitative claim of the evaluation at reduced run
/// counts and reports pass/fail per claim (`repro check`).
pub fn shape_checks(seed: u64, runs: usize) -> Vec<ShapeCheck> {
    let mut out = Vec::new();
    let wait = |kind| -> f64 {
        figure_breakdown(kind, seed, runs)
            .iter()
            .find(|(l, _)| *l == "await responses")
            .map(|(_, s)| *s)
            .unwrap_or(0.0)
    };
    let breakdown_max = |kind| -> (&'static str, f64) {
        figure_breakdown(kind, seed, runs)
            .into_iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap()
    };
    let (wu, wl, ws) =
        (wait(TopologyKind::Unconnected), wait(TopologyKind::Linear), wait(TopologyKind::Star));
    out.push(ShapeCheck {
        claim: "waiting share ranks unconnected > linear > star (Figs 2/9/11)",
        evidence: format!("unconnected {:.0}%, linear {:.0}%, star {:.0}%", wu * 100.0, wl * 100.0, ws * 100.0),
        passed: wu > wl && wl > ws,
    });
    for (kind, fig) in [
        (TopologyKind::Unconnected, "Fig 2"),
        (TopologyKind::Star, "Fig 9"),
        (TopologyKind::Linear, "Fig 11"),
    ] {
        let (label, share) = breakdown_max(kind);
        out.push(ShapeCheck {
            claim: match fig {
                "Fig 2" => "Fig 2: the maximum time is spent awaiting responses (unconnected)",
                "Fig 9" => "Fig 9: the maximum time is spent awaiting responses (star)",
                _ => "Fig 11: the maximum time is spent awaiting responses (linear)",
            },
            evidence: format!("max slice = {label} at {:.0}%", share * 100.0),
            passed: label == "await responses",
        });
    }
    let cardiff = figure_site_times(CARDIFF, seed, runs).mean;
    let others: Vec<(f64, &str)> = site_figures()
        .into_iter()
        .filter(|(_, s, _)| *s != CARDIFF)
        .map(|(_, s, l)| (figure_site_times(s, seed, runs).mean, l))
        .collect();
    let worst_other = others.iter().cloned().fold((0.0, ""), |a, b| if b.0 > a.0 { b } else { a });
    out.push(ShapeCheck {
        claim: "Figs 3-7: the transatlantic client (Cardiff) is slowest",
        evidence: format!("cardiff {:.0} ms vs next-worst {} {:.0} ms", cardiff, worst_other.1, worst_other.0),
        passed: cardiff > worst_other.0,
    });
    let mc = figure_multicast(seed, runs, 2).mean;
    let blo = figure_site_times(BLOOMINGTON, seed, runs).mean;
    out.push(ShapeCheck {
        claim: "Fig 12: multicast-only discovery is fast (local realm only)",
        evidence: format!("multicast {mc:.0} ms vs BDN-path {blo:.0} ms"),
        passed: mc < blo && mc < 200.0,
    });
    let cert = figure_cert_validation(seed, 100).mean;
    let env = figure_sign_encrypt(seed, 100).mean;
    out.push(ShapeCheck {
        claim: "Figs 13/14: security costs are small relative to discovery time",
        evidence: format!("validate {cert:.3} ms, sign+encrypt+extract {env:.3} ms"),
        passed: cert > 0.0 && env > 0.0 && env < blo / 10.0,
    });
    let scale = ablation_scale(seed, (runs / 4).max(3));
    let get = |n: usize, k: &str| scale.iter().find(|(nn, kk, _)| *nn == n && *kk == k).map(|(_, _, t)| *t).unwrap_or(f64::NAN);
    let (u5, u20) = (get(5, "unconnected"), get(20, "unconnected"));
    let (s5, s20) = (get(5, "star"), get(20, "star"));
    out.push(ShapeCheck {
        claim: "scaling: the BDN's O(N) distribution grows with broker count; the star overlay does not",
        evidence: format!(
            "unconnected 5→20 brokers: {u5:.0}→{u20:.0} ms; star: {s5:.0}→{s20:.0} ms"
        ),
        passed: u20 > u5 * 1.5 && s20 < s5 * 1.4,
    });
    out
}

/// Formats a [`Summary`] as the paper's metric table.
pub fn format_summary(title: &str, s: &Summary) -> String {
    format!(
        "{title}\n\
         {:<18} {:>12}\n\
         {:<18} {:>12.3}\n\
         {:<18} {:>12.3}\n\
         {:<18} {:>12.3}\n\
         {:<18} {:>12.3}\n\
         {:<18} {:>12.3}\n",
        "Metric", "Time (ms)", "Mean", s.mean, "Std deviation", s.std_dev, "Maximum", s.max,
        "Minimum", s.min, "Error", s.error
    )
}

/// Formats a breakdown as percentage rows.
pub fn format_breakdown(title: &str, rows: &[(&'static str, f64)]) -> String {
    let mut out = format!("{title}\n");
    for (label, share) in rows {
        out.push_str(&format!("  {:<18} {:>6.1} %\n", label, share * 100.0));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_shares_sum_to_one() {
        let rows = figure_breakdown(TopologyKind::Star, 1, 10);
        let sum: f64 = rows.iter().map(|(_, s)| s).sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
    }

    #[test]
    fn waiting_share_ordering_matches_paper() {
        // §9: waiting dominates in the unconnected topology; the star
        // topology reduces it significantly; linear sits between.
        let wait = |kind| {
            figure_breakdown(kind, 7, 30)
                .iter()
                .find(|(l, _)| *l == "await responses")
                .map(|(_, s)| *s)
                .unwrap()
        };
        let unconnected = wait(TopologyKind::Unconnected);
        let star = wait(TopologyKind::Star);
        let linear = wait(TopologyKind::Linear);
        assert!(
            unconnected > star,
            "unconnected wait share {unconnected:.2} must exceed star {star:.2}"
        );
        assert!(linear > star, "linear wait share {linear:.2} must exceed star {star:.2}");
        assert!(unconnected > 0.4, "waiting must dominate unconnected, got {unconnected:.2}");
    }

    #[test]
    fn cardiff_clients_take_longest() {
        // The transatlantic client must be the slowest of all five sites
        // (Figures 3-7's robust ordering); intra-US differences are
        // within noise because the BDN's O(N) distribution cost is
        // client-independent.
        let cardiff = figure_site_times(CARDIFF, 11, 20).mean;
        for (fig, site, label) in site_figures() {
            if site == CARDIFF {
                continue;
            }
            let mean = figure_site_times(site, 11, 20).mean;
            assert!(
                cardiff > mean,
                "fig{fig} {label}: cardiff {cardiff:.1} must exceed {mean:.1}"
            );
        }
    }

    #[test]
    fn multicast_discovery_is_fast_and_local() {
        let s = figure_multicast(13, 20, 2);
        // Only lab brokers answer: LAN RTTs, no BDN hop — a few ms.
        assert!(s.mean < 100.0, "multicast mean {} ms", s.mean);
        assert!(s.min >= 0.0);
    }

    #[test]
    fn security_figures_are_positive_and_small() {
        let cert = figure_cert_validation(1, 50);
        assert!(cert.mean > 0.0);
        assert!(cert.mean < 50.0, "cert validation {} ms", cert.mean);
        let env = figure_sign_encrypt(1, 50);
        assert!(env.mean > 0.0);
        assert!(env.mean < 100.0, "sign+encrypt {} ms", env.mean);
    }

    #[test]
    fn timeout_ablation_monotone_total() {
        let rows = ablation_timeout(3, 5);
        assert_eq!(rows.len(), 5);
        assert!(rows.last().unwrap().1 > rows.first().unwrap().1);
    }

    #[test]
    fn loss_ablation_degrades_gracefully() {
        let rows = ablation_loss(9, 12);
        assert_eq!(rows.len(), 5);
        let lossless = rows[0];
        let heavy = rows[4];
        assert_eq!(lossless.0, 0.0);
        assert!((lossless.1 - 1.0).abs() < 1e-9, "lossless runs always succeed");
        assert!(
            heavy.2 <= lossless.2,
            "response count must not grow with loss ({} vs {})",
            heavy.2,
            lossless.2
        );
    }

    #[test]
    fn clock_ablation_accuracy_degrades_with_residual() {
        let rows = ablation_clock(9, 12);
        assert_eq!(rows.len(), 4);
        let perfect = rows[0].1;
        let broken = rows[3].1;
        assert!(
            perfect >= broken,
            "perfect clocks ({perfect}) must pick the nearest at least as often as broken \
             clocks ({broken})"
        );
        // Even perfect clocks see broker service-time jitter in the
        // estimate, so the bar is "clearly better", not "always right".
        assert!(perfect >= 0.5, "perfect clocks mostly pick the nearest, got {perfect}");
        assert!(
            perfect - broken >= 0.2,
            "±0.5-2s residuals must visibly corrupt proximity selection \
             (perfect {perfect} vs broken {broken})"
        );
    }

    #[test]
    fn bulk_ablation_compression_wins_on_the_wan() {
        let rows = ablation_bulk(6);
        assert_eq!(rows.len(), 6);
        for pair in rows.chunks(2) {
            let (size, comp0, _, t_raw) = pair[0];
            let (_, comp1, _, t_lz) = pair[1];
            assert!(!comp0 && comp1);
            assert!(
                t_lz < t_raw,
                "{size}B: compressed transfer ({t_lz:.0} ms) must beat raw ({t_raw:.0} ms)"
            );
        }
        // Raw transfer time grows roughly with size (bandwidth-bound).
        let t64 = rows[0].3;
        let t1m = rows[4].3;
        assert!(t1m > t64 * 4.0, "1 MiB ({t1m:.0} ms) ≫ 64 KiB ({t64:.0} ms)");
    }

    #[test]
    fn topology_ablation_covers_all_kinds() {
        let rows = ablation_topology(4, 6);
        assert_eq!(rows.len(), TopologyKind::ALL.len());
        let get = |k: &str| *rows.iter().find(|(kk, ..)| *kk == k).unwrap();
        let (_, unconnected, ..) = get("unconnected");
        let (_, star, _, star_diam) = get("star");
        assert!(unconnected > star, "overlay dissemination beats O(N) distribution");
        assert_eq!(star_diam, Some(2));
        assert_eq!(get("unconnected").3, None, "no overlay, no diameter");
        // Denser overlays (smaller diameter) disseminate no slower than
        // the chain.
        let (_, linear, _, linear_diam) = get("linear");
        let (_, ring, ..) = get("ring");
        assert_eq!(linear_diam, Some(9));
        assert!(ring <= linear * 1.1, "ring halves the worst-case hop count");
    }

    #[test]
    fn weight_ablation_produces_winners() {
        let rows = ablation_weights(5, 10);
        assert_eq!(rows.len(), 3);
        for (preset, wins) in &rows {
            let total: usize = wins.iter().map(|(_, c)| c).sum();
            assert_eq!(total, 10, "{preset}: every run must have a winner");
        }
    }
}
