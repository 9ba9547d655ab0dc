//! The substrate services composed over the live overlay: compressed +
//! fragmented bulk transfer through brokers, reliable delivery across a
//! lossy WAN path, and replay for late joiners.

use std::time::Duration;

use nb::broker::{BrokerActor, BrokerConfig, PubSubClient};
use nb::net::{impl_actor_any, Actor, ClockProfile, Context, Incoming, LinkSpec, ShardedSim};
use nb::services::compress::{compress_payload, decompress_payload};
use nb::services::fragment::{fragment_payload, Fragment, Reassembler};
use nb::services::replay::ReplayService;
use nb::services::{ReliableReceiver, ReliableSender};
use nb::util::Uuid;
use nb::wire::addr::well_known;
use nb::wire::{Endpoint, Event, Message, NodeId, Port, RealmId, Topic, TopicFilter, Wire};

fn quiet_sim(seed: u64) -> ShardedSim {
    let mut sim = ShardedSim::with_clock_profile(seed, ClockProfile::perfect());
    sim.network_mut().intra_realm_spec = LinkSpec::lan().with_loss(0.0);
    sim.network_mut().inter_realm_spec = LinkSpec::wan(Duration::from_millis(12)).with_loss(0.0);
    sim
}

#[test]
fn compressed_fragmented_bulk_transfer_over_the_overlay() {
    let mut sim = quiet_sim(71);
    let a = sim.add_node("a", RealmId(0), Box::new(BrokerActor::new(BrokerConfig::default())));
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

    // A large, compressible dataset: compress, then fragment to 1 KiB
    // chunks, publishing each chunk as its own event.
    let dataset = b"field,value\ntemperature,21.5\npressure,101.3\n".repeat(800);
    let envelope = compress_payload(&dataset);
    assert!(envelope.len() < dataset.len() / 2, "dataset should compress well");
    let frags = fragment_payload(Uuid::from_u128(99), &envelope, 1024);
    let n_frags = frags.len();
    assert!(n_frags > 3, "need a real multi-fragment transfer");
    {
        let sender = sim.actor_mut::<PubSubClient>(tx).unwrap();
        for f in frags {
            sender.queue_publish(Topic::parse("bulk/dataset").unwrap(), f.to_bytes().to_vec());
        }
    }
    sim.run_for(Duration::from_secs(5));

    let receiver = sim.actor::<PubSubClient>(rx).unwrap();
    assert_eq!(receiver.received.len(), n_frags, "every fragment-event arrived");
    let mut reassembler = Reassembler::new(Duration::from_secs(60), 8);
    let mut rebuilt = None;
    for ev in &receiver.received {
        let frag = Fragment::from_bytes(&ev.payload).expect("valid fragment");
        if let Some(payload) = reassembler.accept(frag, sim.now()) {
            rebuilt = Some(payload);
        }
    }
    let rebuilt = rebuilt.expect("dataset reassembled");
    assert_eq!(decompress_payload(&rebuilt).unwrap(), dataset);
}

/// An actor streaming payloads reliably to a peer over a lossy UDP path.
struct ReliablePipe {
    tx: Option<ReliableSender>,
    rx: ReliableReceiver,
    payloads_to_send: Vec<Vec<u8>>,
    received: Vec<nb::wire::Bytes>,
}

impl Actor for ReliablePipe {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        if self.tx.is_some() {
            ctx.set_timer(Duration::from_millis(20), 1);
        }
    }
    fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
        if let Some(tx) = &mut self.tx {
            if tx.handle(&event, ctx) {
                return;
            }
        }
        self.received.extend(self.rx.handle(&event, ctx));
        if let Incoming::Timer { token: 1 } = event {
            if let (Some(tx), Some(payload)) =
                (self.tx.as_mut(), self.payloads_to_send.pop())
            {
                tx.send(payload, ctx);
                ctx.set_timer(Duration::from_millis(20), 1);
            }
        }
    }
    impl_actor_any!();
}

#[test]
fn reliable_channel_carries_fragments_across_a_lossy_wan() {
    const CHAN: Uuid = Uuid::from_u128(0xBEEF);
    const PORT: Port = Port(7100);
    let mut sim = quiet_sim(72);
    // 20% loss across the WAN path.
    sim.network_mut().inter_realm_spec =
        LinkSpec::wan(Duration::from_millis(12)).with_loss(0.2);

    let receiver_node = sim.add_node(
        "rx",
        RealmId(1),
        Box::new(ReliablePipe {
            tx: None,
            rx: ReliableReceiver::new(CHAN, PORT),
            payloads_to_send: vec![],
            received: vec![],
        }),
    );
    // Ship a fragmented dataset, newest-first pop order => reverse now.
    let dataset: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
    let mut payloads: Vec<Vec<u8>> =
        fragment_payload(Uuid::from_u128(1), &dataset, 2048)
            .into_iter()
            .map(|f| f.to_bytes().to_vec())
            .collect();
    payloads.reverse(); // popped from the back while sending
    let n = payloads.len();
    let _sender_node = sim.add_node(
        "tx",
        RealmId(0),
        Box::new(ReliablePipe {
            tx: Some(ReliableSender::new(
                CHAN,
                Endpoint::new(receiver_node, PORT),
                PORT,
                Duration::from_millis(100),
                2,
            )),
            rx: ReliableReceiver::new(Uuid::from_u128(0), PORT),
            payloads_to_send: payloads,
            received: vec![],
        }),
    );
    sim.run_for(Duration::from_secs(30));
    let rx = sim.actor::<ReliablePipe>(receiver_node).unwrap();
    assert_eq!(rx.received.len(), n, "all fragments delivered despite 20% loss");
    let mut reassembler = Reassembler::new(Duration::from_secs(600), 4);
    let mut rebuilt = None;
    for payload in &rx.received {
        let frag = Fragment::from_bytes(payload).unwrap();
        if let Some(p) = reassembler.accept(frag, sim.now()) {
            rebuilt = Some(p);
        }
    }
    assert_eq!(rebuilt.expect("reassembled"), dataset);
}

/// A publisher actor that records everything it publishes into a replay
/// service and answers replay requests.
struct ReplayPublisher {
    service: ReplayService,
    to_publish: Vec<(Topic, Vec<u8>)>,
}

impl Actor for ReplayPublisher {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        // "Publish" locally: record into the store (this node acts as the
        // event source of record).
        for (topic, payload) in self.to_publish.drain(..) {
            let ev = Event {
                id: Uuid::random(ctx.rng()),
                topic,
                source: ctx.me(),
                payload: payload.into(),
            };
            self.service.store.record(ev);
        }
    }
    fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
        self.service.handle(&event, ctx);
    }
    impl_actor_any!();
}

/// A late joiner that asks for a replay and records what arrives.
struct LateJoiner {
    publisher: NodeId,
    got: Vec<Event>,
}

impl Actor for LateJoiner {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        let req = Message::ReplayRequest {
            filter: TopicFilter::parse("metrics/**").unwrap(),
            limit: 3,
            reply_to: Endpoint::new(ctx.me(), well_known::BROKER),
        };
        ctx.send_udp(well_known::BROKER, Endpoint::new(self.publisher, well_known::BROKER), &req);
    }
    fn on_incoming(&mut self, event: Incoming, _ctx: &mut dyn Context) {
        if let Incoming::Datagram { msg, .. } = event {
            if let Message::Publish(ev) = msg.into_message() {
                self.got.push(ev);
            }
        }
    }
    impl_actor_any!();
}

#[test]
fn late_joiner_replays_recent_events() {
    let mut sim = quiet_sim(73);
    let to_publish: Vec<(Topic, Vec<u8>)> = (0..6u8)
        .map(|i| (Topic::parse("metrics/cpu").unwrap(), vec![i]))
        .chain(std::iter::once((Topic::parse("other/x").unwrap(), vec![99])))
        .collect();
    let publisher = sim.add_node(
        "pub",
        RealmId(0),
        Box::new(ReplayPublisher { service: ReplayService::new(16), to_publish }),
    );
    sim.run_for(Duration::from_secs(1));
    let late = sim.add_node("late", RealmId(0), Box::new(LateJoiner { publisher, got: vec![] }));
    sim.run_for(Duration::from_secs(2));
    let joiner = sim.actor::<LateJoiner>(late).unwrap();
    // limit=3 keeps the newest three matching events. They travel as
    // independent UDP datagrams, so arrival order is not guaranteed.
    assert_eq!(joiner.got.len(), 3);
    let mut payloads: Vec<u8> = joiner.got.iter().map(|e| e.payload[0]).collect();
    payloads.sort_unstable();
    assert_eq!(payloads, vec![3, 4, 5]);
    let service = &sim.actor::<ReplayPublisher>(publisher).unwrap().service;
    assert_eq!(service.requests_served, 1);
    assert_eq!(service.events_replayed, 3);
}
