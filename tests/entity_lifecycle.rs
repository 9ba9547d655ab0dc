//! The full entity life cycle over the simulator: discover → attach →
//! pub/sub → broker failure → rediscover → resume, and the services
//! composition (replay after reattachment).

use std::time::Duration;

use nb::broker::{BrokerConfig, MachineProfile};
use nb::discovery::bdn::{Bdn, BdnConfig};
use nb::discovery::{
    DiscoveryBrokerActor, DiscoveryConfig, Entity, EntityState, ResponsePolicy,
};
use nb::net::{ClockProfile, LinkSpec, ShardedSim};
use nb::wire::{NodeId, RealmId, Topic, TopicFilter};

struct World {
    sim: ShardedSim,
    bdn: NodeId,
    brokers: Vec<NodeId>,
}

fn world(seed: u64, n_brokers: usize) -> World {
    let mut sim = ShardedSim::with_clock_profile(seed, ClockProfile::perfect());
    sim.network_mut().intra_realm_spec = LinkSpec::lan().with_loss(0.0);
    sim.network_mut().inter_realm_spec =
        LinkSpec::wan(Duration::from_millis(8)).with_loss(0.0);
    let bdn = sim.add_node("bdn", RealmId(0), Box::new(Bdn::new(BdnConfig::default())));
    let mut brokers = Vec::new();
    for i in 0..n_brokers {
        let neighbors = if i == 0 { vec![] } else { vec![brokers[0]] };
        let cfg = BrokerConfig {
            hostname: format!("b{i}.local"),
            machine: MachineProfile::default_2005(),
            neighbors,
            ..BrokerConfig::default()
        };
        let actor = DiscoveryBrokerActor::new(cfg, vec![bdn], ResponsePolicy::open());
        brokers.push(sim.add_node(&format!("b{i}"), RealmId(0), Box::new(actor)));
    }
    World { sim, bdn, brokers }
}

fn entity_cfg(bdn: NodeId, max_responses: usize) -> DiscoveryConfig {
    DiscoveryConfig {
        bdns: vec![bdn],
        collection_window: Duration::from_millis(1200),
        max_responses,
        ping_window: Duration::from_millis(400),
        ack_timeout: Duration::from_millis(500),
        ..DiscoveryConfig::default()
    }
}

#[test]
fn entity_discovers_attaches_and_exchanges_events() {
    let mut w = world(61, 2);
    let filter = TopicFilter::parse("telemetry/**").unwrap();
    let subscriber = w.sim.add_node(
        "sub",
        RealmId(0),
        Box::new(Entity::new(entity_cfg(w.bdn, 2), vec![filter])),
    );
    let publisher =
        w.sim.add_node("pub", RealmId(0), Box::new(Entity::new(entity_cfg(w.bdn, 2), vec![])));
    w.sim.run_for(Duration::from_secs(5));
    assert!(matches!(
        w.sim.actor::<Entity>(subscriber).unwrap().state(),
        EntityState::Attached(_)
    ));
    assert!(matches!(
        w.sim.actor::<Entity>(publisher).unwrap().state(),
        EntityState::Attached(_)
    ));
    // Publish through the publisher's broker; routing crosses the overlay
    // if the two entities attached to different brokers.
    for i in 0..5u8 {
        w.sim
            .actor_mut::<Entity>(publisher)
            .unwrap()
            .queue_publish(Topic::parse("telemetry/cpu").unwrap(), vec![i]);
    }
    w.sim.run_for(Duration::from_secs(3));
    let sub = w.sim.actor::<Entity>(subscriber).unwrap();
    assert_eq!(sub.received.len(), 5, "every event delivered");
    let pub_ = w.sim.actor::<Entity>(publisher).unwrap();
    assert_eq!(pub_.published, 5);
}

#[test]
fn entity_fails_over_when_its_broker_dies() {
    let mut w = world(62, 2);
    let filter = TopicFilter::parse("news/**").unwrap();
    let subscriber = w.sim.add_node(
        "sub",
        RealmId(0),
        Box::new(Entity::new(entity_cfg(w.bdn, 2), vec![filter])),
    );
    let publisher =
        w.sim.add_node("pub", RealmId(0), Box::new(Entity::new(entity_cfg(w.bdn, 2), vec![])));
    w.sim.run_for(Duration::from_secs(5));
    let first_broker = w.sim.actor::<Entity>(subscriber).unwrap().broker().expect("attached");

    // Kill the subscriber's broker; keepalives (2s × 3 misses) notice.
    w.sim.crash(first_broker);
    w.sim.run_for(Duration::from_secs(30));
    let entity = w.sim.actor::<Entity>(subscriber).unwrap();
    assert!(entity.failovers >= 1, "keepalive loss must trigger failover");
    let second_broker = entity.broker().expect("reattached");
    assert_ne!(second_broker, first_broker, "attached to the survivor");
    assert_eq!(entity.attachments.len(), 2);

    // Subscriptions resumed: a fresh publish still reaches it. The
    // publisher may share the dead broker — check and let it fail over
    // too before publishing.
    w.sim.run_for(Duration::from_secs(10));
    w.sim
        .actor_mut::<Entity>(publisher)
        .unwrap()
        .queue_publish(Topic::parse("news/world").unwrap(), vec![7]);
    w.sim.run_for(Duration::from_secs(5));
    let sub = w.sim.actor::<Entity>(subscriber).unwrap();
    assert_eq!(sub.received.len(), 1, "subscription survived the failover");
}

#[test]
fn stranded_entity_retries_and_recovers() {
    let mut w = world(63, 1);
    // Everything is down from the start.
    let broker = w.brokers[0];
    w.sim.crash(broker);
    w.sim.crash(w.bdn);
    let mut cfg = entity_cfg(w.bdn, 1);
    cfg.retransmits_per_bdn = 1;
    cfg.collection_window = Duration::from_millis(600);
    cfg.ping_window = Duration::from_millis(300);
    let entity_node = w.sim.add_node("e", RealmId(0), Box::new(Entity::new(cfg, vec![])));
    w.sim.run_for(Duration::from_secs(8));
    // At this point the entity is either stranded (between backoff
    // retries) or mid-retry — never attached.
    let state = w.sim.actor::<Entity>(entity_node).unwrap().state();
    assert!(
        matches!(state, EntityState::Stranded | EntityState::Discovering),
        "must not be attached during the outage, got {state:?}"
    );
    assert!(w.sim.actor::<Entity>(entity_node).unwrap().discovery().runs_started >= 1);

    // The infrastructure returns; the backoff retry must find it.
    w.sim.revive(broker);
    w.sim.revive(w.bdn);
    w.sim.run_for(Duration::from_secs(40));
    let entity = w.sim.actor::<Entity>(entity_node).unwrap();
    assert!(
        matches!(entity.state(), EntityState::Attached(_)),
        "recovered after the outage, state {:?} (runs {})",
        entity.state(),
        entity.discovery().runs_started
    );
}
