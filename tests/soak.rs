//! Soak test: a large, churning deployment end to end. 30 brokers on a
//! random overlay, a BDN, 12 entities publishing and subscribing, five
//! broker crashes mid-run — every surviving entity must end attached and
//! still receiving events.

use std::time::Duration;

use nb::broker::{BrokerConfig, MachineProfile, Topology};
use nb::discovery::bdn::{Bdn, BdnConfig};
use nb::discovery::{DiscoveryBrokerActor, DiscoveryConfig, Entity, ResponsePolicy};
use nb::net::{ClockProfile, LinkSpec, ShardedSim};
use nb::wire::{NodeId, RealmId, Topic, TopicFilter};

const N_BROKERS: usize = 30;
const N_ENTITIES: usize = 12;

#[test]
fn large_churning_overlay_keeps_every_entity_attached() {
    let mut sim = ShardedSim::with_clock_profile(2005, ClockProfile::perfect());
    sim.network_mut().intra_realm_spec = LinkSpec::lan().with_loss(0.0005);
    sim.network_mut().inter_realm_spec =
        LinkSpec::wan(Duration::from_millis(10)).with_loss(0.001);

    let bdn = sim.add_node("bdn", RealmId(0), Box::new(Bdn::new(BdnConfig::default())));

    // Random connected overlay with some chords, brokers spread over 3
    // realms.
    let topo = {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        Topology::random(N_BROKERS, 8, &mut rng)
    };
    let mut brokers: Vec<NodeId> = Vec::new();
    for (i, dials) in topo.dial_lists().into_iter().enumerate() {
        let neighbors = dials.iter().map(|&j| brokers[j]).collect();
        let cfg = BrokerConfig {
            hostname: format!("b{i}"),
            machine: MachineProfile::default_2005(),
            neighbors,
            ..BrokerConfig::default()
        };
        let actor = DiscoveryBrokerActor::new(cfg, vec![bdn], ResponsePolicy::open());
        brokers.push(sim.add_node(
            &format!("b{i}"),
            RealmId((i % 3) as u16),
            Box::new(actor),
        ));
    }

    let cfg = DiscoveryConfig {
        bdns: vec![bdn],
        collection_window: Duration::from_millis(1500),
        max_responses: 10,
        target_set_size: 5,
        ping_window: Duration::from_millis(500),
        ack_timeout: Duration::from_millis(600),
        ..DiscoveryConfig::default()
    };
    let filter = TopicFilter::parse("soak/**").unwrap();
    let entities: Vec<NodeId> = (0..N_ENTITIES)
        .map(|i| {
            sim.add_node(
                &format!("e{i}"),
                RealmId((i % 3) as u16),
                Box::new(Entity::new(cfg.clone(), vec![filter.clone()])),
            )
        })
        .collect();

    // Everyone discovers and attaches.
    sim.run_for(Duration::from_secs(10));
    for &e in &entities {
        assert!(
            sim.actor::<Entity>(e).unwrap().broker().is_some(),
            "{} attached",
            sim.node_name(e)
        );
    }

    // A round of traffic: entity 0 publishes, all others receive.
    sim.actor_mut::<Entity>(entities[0])
        .unwrap()
        .queue_publish(Topic::parse("soak/round/1").unwrap(), vec![1]);
    sim.run_for(Duration::from_secs(5));
    for &e in &entities[1..] {
        assert_eq!(
            sim.actor::<Entity>(e).unwrap().received.len(),
            1,
            "{} got round 1",
            sim.node_name(e)
        );
    }

    // Crash five brokers, including some that entities are attached to.
    let mut victims: Vec<NodeId> = entities
        .iter()
        .take(3)
        .filter_map(|&e| sim.actor::<Entity>(e).unwrap().broker())
        .collect();
    victims.push(brokers[0]);
    victims.push(brokers[N_BROKERS - 1]);
    victims.sort_unstable();
    victims.dedup();
    for &v in &victims {
        sim.crash(v);
    }
    // Let heartbeats tear down links, keepalives notice, entities
    // rediscover, and the BDN expire nothing yet (TTL 300s).
    sim.run_for(Duration::from_secs(60));

    for &e in &entities {
        let entity = sim.actor::<Entity>(e).unwrap();
        let broker = entity.broker().unwrap_or_else(|| {
            panic!("{} must be reattached, state {:?}", sim.node_name(e), entity.state())
        });
        assert!(!victims.contains(&broker), "{} attached to a corpse", sim.node_name(e));
    }

    // Crashing five brokers may have split the overlay (links are not
    // self-healing): a second round of traffic must reach exactly the
    // entities whose brokers share the publisher's surviving component.
    let component_of = |start: NodeId| -> Vec<NodeId> {
        let idx_of = |n: NodeId| brokers.iter().position(|&b| b == n);
        let Some(start_idx) = idx_of(start) else { return vec![] };
        let mut seen = [false; N_BROKERS];
        let mut stack = vec![start_idx];
        seen[start_idx] = true;
        while let Some(i) = stack.pop() {
            for nb in topo.neighbors(i) {
                if !seen[nb] && !victims.contains(&brokers[nb]) {
                    seen[nb] = true;
                    stack.push(nb);
                }
            }
        }
        (0..N_BROKERS).filter(|&i| seen[i]).map(|i| brokers[i]).collect()
    };
    let pub_broker = sim.actor::<Entity>(entities[0]).unwrap().broker().unwrap();
    let reachable = component_of(pub_broker);
    sim.actor_mut::<Entity>(entities[0])
        .unwrap()
        .queue_publish(Topic::parse("soak/round/2").unwrap(), vec![2]);
    sim.run_for(Duration::from_secs(8));
    let mut in_component = 0;
    for &e in &entities[1..] {
        let entity = sim.actor::<Entity>(e).unwrap();
        let broker = entity.broker().unwrap();
        let got = entity.received.len();
        if reachable.contains(&broker) {
            in_component += 1;
            assert_eq!(got, 2, "{} shares the component; must get round 2", sim.node_name(e));
        } else {
            assert_eq!(got, 1, "{} is partitioned away; round 2 cannot arrive", sim.node_name(e));
        }
    }
    assert!(in_component >= 1, "the component must contain other entities");

    // Sanity on the system's bookkeeping.
    let stats = sim.stats();
    assert!(stats.datagrams_delivered > 100);
    assert!(stats.stream_delivered > 100);
    assert!(stats.dropped_node_down > 0, "crashes produced drops");
}
