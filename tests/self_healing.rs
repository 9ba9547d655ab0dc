//! Overlay self-healing: a partitioned broker rediscovers its way back
//! into the network (§8.3's "incorporation of brokers" applied to
//! partition repair).

use std::time::Duration;

use nb::broker::{BrokerConfig, MachineProfile, PubSubClient};
use nb::discovery::bdn::{Bdn, BdnConfig};
use nb::discovery::{DiscoveryConfig, JoiningBroker, ResponsePolicy};
use nb::net::{ClockProfile, LinkSpec, ShardedSim};
use nb::wire::{NodeId, RealmId, Topic, TopicFilter};

fn discovery_cfg(bdn: NodeId) -> DiscoveryConfig {
    DiscoveryConfig {
        bdns: vec![bdn],
        collection_window: Duration::from_millis(1200),
        max_responses: 3,
        ping_window: Duration::from_millis(400),
        ack_timeout: Duration::from_millis(500),
        ..DiscoveryConfig::default()
    }
}

#[test]
fn partitioned_brokers_relink_through_discovery() {
    let mut sim = ShardedSim::with_clock_profile(91, ClockProfile::perfect());
    sim.network_mut().intra_realm_spec = LinkSpec::lan().with_loss(0.0);
    let bdn = sim.add_node("bdn", RealmId(0), Box::new(Bdn::new(BdnConfig::default())));

    // A chain built from joining brokers: anchor <- mid <- edge. Each
    // joins by discovery, so the chain assembles itself.
    let mk = |name: &str, bdn| {
        Box::new(JoiningBroker::new(
            BrokerConfig {
                hostname: name.to_string(),
                machine: MachineProfile::default_2005(),
                ..BrokerConfig::default()
            },
            vec![bdn],
            ResponsePolicy::open(),
            discovery_cfg(bdn),
        ))
    };
    let anchor = sim.add_node("anchor", RealmId(0), mk("anchor", bdn));
    sim.run_for(Duration::from_secs(2));
    let mid = sim.add_node("mid", RealmId(0), mk("mid", bdn));
    sim.run_for(Duration::from_secs(6));
    let edge = sim.add_node("edge", RealmId(0), mk("edge", bdn));
    sim.run_for(Duration::from_secs(8));

    // All three are in one component (each joined *somebody*).
    for (n, label) in [(mid, "mid"), (edge, "edge")] {
        assert!(sim.actor::<JoiningBroker>(n).unwrap().joined(), "{label} joined");
    }

    // Find a broker whose death would hurt, and kill it: crash whichever
    // broker `edge` is linked to (its only connection if the chain formed
    // linearly). If edge linked straight to anchor, crash anchor instead.
    let edge_peer = sim.actor::<JoiningBroker>(edge).unwrap().joined_to.unwrap();
    sim.crash(edge_peer);
    // Heartbeats (2s × 3) notice, the heal timer (5s) fires, discovery
    // runs against the survivors.
    sim.run_for(Duration::from_secs(40));

    let survivors: Vec<NodeId> =
        [anchor, mid, edge].into_iter().filter(|&n| n != edge_peer).collect();
    assert_eq!(survivors.len(), 2);
    let healer = sim.actor::<JoiningBroker>(edge).unwrap();
    assert!(healer.heals >= 1, "edge must have healed (heals = {})", healer.heals);
    assert!(
        healer.inner.broker.num_links() >= 1,
        "edge re-linked (links = {})",
        healer.inner.broker.num_links()
    );
    let new_peer = healer.joined_to.expect("rejoined");
    assert_ne!(new_peer, edge_peer, "not the corpse");

    // Pub/sub works across the healed overlay: a client on each survivor.
    let filter = TopicFilter::parse("healed/**").unwrap();
    let sub = sim.add_node(
        "sub",
        RealmId(0),
        Box::new(PubSubClient::new(survivors[0], vec![filter])),
    );
    let publisher =
        sim.add_node("pub", RealmId(0), Box::new(PubSubClient::new(survivors[1], vec![])));
    sim.run_for(Duration::from_secs(2));
    sim.actor_mut::<PubSubClient>(publisher)
        .unwrap()
        .queue_publish(Topic::parse("healed/ok").unwrap(), vec![1]);
    sim.run_for(Duration::from_secs(3));
    assert_eq!(
        sim.actor::<PubSubClient>(sub).unwrap().received.len(),
        1,
        "traffic flows across the healed link"
    );
}

#[test]
fn healing_survives_a_failed_attempt() {
    // Regression: a heal attempt that fails (every path down) must not
    // permanently disable healing — once the infrastructure returns, the
    // broker re-links.
    let mut sim = ShardedSim::with_clock_profile(92, ClockProfile::perfect());
    sim.network_mut().intra_realm_spec = LinkSpec::lan().with_loss(0.0);
    let bdn = sim.add_node("bdn", RealmId(0), Box::new(Bdn::new(BdnConfig::default())));
    let anchor = sim.add_node(
        "anchor",
        RealmId(0),
        Box::new(JoiningBroker::new(
            BrokerConfig { hostname: "anchor".into(), ..BrokerConfig::default() },
            vec![bdn],
            ResponsePolicy::open(),
            discovery_cfg(bdn),
        )),
    );
    sim.run_for(Duration::from_secs(2));
    let mut cfg = discovery_cfg(bdn);
    cfg.ack_timeout = Duration::from_millis(300);
    cfg.retransmits_per_bdn = 1;
    cfg.collection_window = Duration::from_millis(600);
    cfg.ping_window = Duration::from_millis(300);
    let edge = sim.add_node(
        "edge",
        RealmId(0),
        Box::new(JoiningBroker::new(
            BrokerConfig { hostname: "edge".into(), ..BrokerConfig::default() },
            vec![bdn],
            ResponsePolicy::open(),
            cfg,
        )),
    );
    sim.run_for(Duration::from_secs(6));
    assert!(sim.actor::<JoiningBroker>(edge).unwrap().joined(), "initial join");

    // Total blackout: both the anchor and the BDN die. The edge's heal
    // attempts all fail.
    sim.crash(anchor);
    sim.crash(bdn);
    sim.run_for(Duration::from_secs(60));
    {
        let e = sim.actor::<JoiningBroker>(edge).unwrap();
        assert!(e.heals >= 1, "healing attempted during the blackout");
        assert!(!e.joined(), "nothing to join during the blackout");
    }

    // The infrastructure returns; a later heal round must succeed.
    sim.revive(anchor);
    sim.revive(bdn);
    sim.run_for(Duration::from_secs(180)); // re-advertisement (120s) + heal ticks
    let e = sim.actor::<JoiningBroker>(edge).unwrap();
    assert!(
        e.joined(),
        "healing must recover after a failed attempt (heals = {}, finder {:?})",
        e.heals,
        e.finder().phase()
    );
    assert!(e.inner.broker.num_links() >= 1);
}
