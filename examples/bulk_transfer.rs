//! Bulk transfer with the substrate services: a large dataset is
//! compressed, fragmented to MTU-sized events, published through the
//! broker overlay, and reassembled + decompressed at the consumer — the
//! "(de)compression of large payloads, fragmentation and coalescing of
//! large datasets" services of §1.
//!
//! ```sh
//! cargo run --release --example bulk_transfer
//! ```

use std::time::Duration;

use nb::broker::{BrokerActor, BrokerConfig, PubSubClient};
use nb::net::{ClockProfile, LinkSpec, ShardedSim};
use nb::services::compress::{compress_payload, compression_ratio, decompress_payload};
use nb::services::fragment::{fragment_payload, Fragment, Reassembler};
use nb::util::Uuid;
use nb::wire::{RealmId, Topic, TopicFilter, Wire};

fn main() {
    let mut sim = ShardedSim::with_clock_profile(5, ClockProfile::perfect());
    sim.network_mut().inter_realm_spec = LinkSpec::wan(Duration::from_millis(20)).with_loss(0.0);
    let a = sim.add_node("broker-a", RealmId(0), Box::new(BrokerActor::new(BrokerConfig::default())));
    let b = sim.add_node(
        "broker-b",
        RealmId(1),
        Box::new(BrokerActor::new(BrokerConfig { neighbors: vec![a], ..BrokerConfig::default() })),
    );
    let filter = TopicFilter::parse("datasets/**").unwrap();
    let consumer = sim.add_node("consumer", RealmId(1), Box::new(PubSubClient::new(b, vec![filter])));
    let producer = sim.add_node("producer", RealmId(0), Box::new(PubSubClient::new(a, vec![])));
    sim.run_for(Duration::from_secs(2));

    // A 200 KiB synthetic "sensor log" — repetitive, so it compresses.
    let dataset = b"2005-06-29T12:00:00Z,sensor-42,temperature,21.5,C\n".repeat(4096);
    println!("dataset: {} bytes", dataset.len());
    let envelope = compress_payload(&dataset);
    println!(
        "compressed: {} bytes (ratio {:.2})",
        envelope.len(),
        compression_ratio(&dataset)
    );
    let frags = fragment_payload(Uuid::from_u128(7), &envelope, 1400);
    println!("fragments: {} × ≤1400 B", frags.len());
    let n = frags.len();
    {
        let p = sim.actor_mut::<PubSubClient>(producer).unwrap();
        for f in frags {
            p.queue_publish(Topic::parse("datasets/sensors").unwrap(), f.to_bytes().to_vec());
        }
    }
    sim.run_for(Duration::from_secs(10));

    let received = sim.actor::<PubSubClient>(consumer).unwrap().received.clone();
    println!("consumer received {} fragment events", received.len());
    assert_eq!(received.len(), n);
    let mut reassembler = Reassembler::new(Duration::from_secs(60), 8);
    let mut rebuilt = None;
    for ev in &received {
        let frag = Fragment::from_bytes(&ev.payload).expect("fragment");
        if let Some(p) = reassembler.accept(frag, sim.now()) {
            rebuilt = Some(p);
        }
    }
    let restored = decompress_payload(&rebuilt.expect("coalesced")).expect("decompressed");
    assert_eq!(restored, dataset);
    println!(
        "dataset reassembled and verified: {} bytes across the overlay in {:?} of virtual time",
        restored.len(),
        sim.now()
    );
}
