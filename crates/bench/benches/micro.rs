//! Micro-benchmarks for the building blocks: wire codec, topic matching,
//! dedup caches, selection, cryptography and the simulation engine.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use nb_discovery::{shortlist, weigh, Candidate, SelectionWeights};
use nb_security::{
    decrypt_cbc, encrypt_cbc, hmac_sha256, open_envelope, seal_envelope, sha256, sign, verify,
    Certificate, KeyPair,
};
use nb_util::{BoundedDedup, RateMeter, RingBuffer, Uuid};
use nb_wire::message::TransportEndpoint;
use nb_wire::{
    DiscoveryResponse, Endpoint, Message, NodeId, Port, RealmId, Topic, TopicFilter,
    TransportKind, UsageMetrics, Wire,
};

use nb_bench::SecurityFixture;

use rand::rngs::StdRng;
use rand::SeedableRng;

fn sample_response(broker: u32) -> DiscoveryResponse {
    DiscoveryResponse {
        request_id: Uuid::from_u128(7),
        broker: NodeId(broker),
        hostname: "webis.msi.umn.edu".into(),
        realm: RealmId(2),
        transports: vec![
            TransportEndpoint { kind: TransportKind::Tcp, port: Port(5045) },
            TransportEndpoint { kind: TransportKind::Udp, port: Port(5061) },
        ],
        issued_at_utc: 1_120_000_000_000_000,
        metrics: UsageMetrics {
            active_connections: 12,
            num_links: 3,
            cpu_load_permille: 250,
            total_memory: 1 << 30,
            used_memory: 200 << 20,
        },
    }
}

fn bench_codec(c: &mut Criterion) {
    let msg = Message::Response(sample_response(5));
    let bytes = msg.to_bytes();
    let mut g = c.benchmark_group("codec");
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("encode_response", |b| b.iter(|| black_box(&msg).to_bytes()));
    g.bench_function("decode_response", |b| {
        b.iter(|| Message::from_bytes(black_box(&bytes)).unwrap())
    });
    g.finish();
}

fn bench_topics(c: &mut Criterion) {
    let topic = Topic::parse("Services/BrokerDiscoveryNodes/BrokerAdvertisement").unwrap();
    let exact = TopicFilter::exact(&topic);
    let wild = TopicFilter::parse("Services/*/BrokerAdvertisement").unwrap();
    let deep = TopicFilter::parse("Services/**").unwrap();
    let mut g = c.benchmark_group("topics");
    g.bench_function("match_exact", |b| b.iter(|| exact.matches(black_box(&topic))));
    g.bench_function("match_star", |b| b.iter(|| wild.matches(black_box(&topic))));
    g.bench_function("match_doublestar", |b| b.iter(|| deep.matches(black_box(&topic))));
    g.finish();
}

fn bench_dedup(c: &mut Criterion) {
    let mut g = c.benchmark_group("dedup");
    g.bench_function("insert_fresh_cap1000", |b| {
        let mut d = BoundedDedup::new(1000);
        let mut i: u64 = 0;
        b.iter(|| {
            i += 1;
            d.check_and_insert(i)
        });
    });
    g.bench_function("suppress_duplicate", |b| {
        let mut d = BoundedDedup::new(1000);
        d.check_and_insert(7u64);
        b.iter(|| d.check_and_insert(black_box(7u64)));
    });
    g.finish();
}

fn bench_util(c: &mut Criterion) {
    let mut g = c.benchmark_group("util");
    g.bench_function("ring_push", |b| {
        let mut r = RingBuffer::new(1024);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            r.push(i)
        });
    });
    g.bench_function("rate_record", |b| {
        let mut m = RateMeter::new(1_000_000_000, 8192);
        let mut t = 0u64;
        b.iter(|| {
            t += 1000;
            m.record(t)
        });
    });
    g.finish();
}

fn bench_selection(c: &mut Criterion) {
    let weights = SelectionWeights::default();
    let candidates: Vec<Candidate> = (0..100)
        .map(|i| Candidate {
            response: sample_response(i),
            est_delay_us: i64::from(i) * 997,
            weight: 0.0,
        })
        .collect();
    let mut g = c.benchmark_group("selection");
    g.bench_function("weigh", |b| {
        let m = sample_response(1).metrics;
        b.iter(|| weigh(black_box(&m), 25_000, &weights))
    });
    g.bench_function("shortlist_100", |b| {
        b.iter(|| shortlist(candidates.clone(), &weights, 32, 10))
    });
    g.finish();
}

fn bench_crypto(c: &mut Criterion) {
    let data = vec![0xA5u8; 1024];
    let key16 = [7u8; 16];
    let iv = [9u8; 8];
    let mut rng = StdRng::seed_from_u64(1);
    let keys = KeyPair::generate(&mut rng);
    let sig = sign(&keys, &data, &mut rng);
    let fx = SecurityFixture::new(2);

    let mut g = c.benchmark_group("crypto");
    g.throughput(Throughput::Bytes(1024));
    g.bench_function("sha256_1k", |b| b.iter(|| sha256(black_box(&data))));
    g.bench_function("hmac_1k", |b| b.iter(|| hmac_sha256(b"key", black_box(&data))));
    g.bench_function("xtea_cbc_encrypt_1k", |b| {
        b.iter(|| encrypt_cbc(&key16, &iv, black_box(&data)))
    });
    let ct = encrypt_cbc(&key16, &iv, &data);
    g.bench_function("xtea_cbc_decrypt_1k", |b| {
        b.iter(|| decrypt_cbc(&key16, &iv, black_box(&ct)).unwrap())
    });
    g.finish();

    let mut g = c.benchmark_group("signatures");
    g.bench_function("schnorr_sign", |b| {
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| sign(&keys, black_box(&data), &mut rng))
    });
    g.bench_function("schnorr_verify", |b| {
        b.iter(|| assert!(verify(keys.public, black_box(&data), &sig)))
    });
    g.bench_function("cert_chain_validate", |b| {
        b.iter(|| {
            Certificate::validate_chain(fx.client_chain(), &fx.ca.root_cert, 1_000_000).unwrap()
        })
    });
    g.bench_function("envelope_seal_open", |b| {
        let mut rng = StdRng::seed_from_u64(4);
        b.iter(|| {
            let env = seal_envelope(&fx.request, &fx.client, fx.broker.public(), &mut rng);
            open_envelope(&env, &fx.broker, &fx.ca.root_cert, 1_000_000).unwrap()
        })
    });
    g.finish();
}

fn bench_services(c: &mut Criterion) {
    use nb_services::compress::{compress_payload, decompress_payload};
    use nb_services::fragment::{fragment_payload, Reassembler};
    use nb_net::SimTime;

    let text = b"2005-06-29T12:00:00Z,sensor-42,temperature,21.5,C\n".repeat(100);
    let env = compress_payload(&text);
    let mut g = c.benchmark_group("services");
    g.throughput(Throughput::Bytes(text.len() as u64));
    g.bench_function("lzss_compress_5k_text", |b| b.iter(|| compress_payload(black_box(&text))));
    g.bench_function("lzss_decompress_5k_text", |b| {
        b.iter(|| decompress_payload(black_box(&env)).unwrap())
    });
    let payload = vec![0xAAu8; 64 * 1024];
    g.bench_function("fragment_reassemble_64k", |b| {
        b.iter(|| {
            let frags = fragment_payload(Uuid::from_u128(1), black_box(&payload), 1400);
            let mut r = Reassembler::new(std::time::Duration::from_secs(60), 4);
            let mut out = None;
            for f in frags {
                if let Some(p) = r.accept(f, SimTime::ZERO) {
                    out = Some(p);
                }
            }
            out.unwrap()
        })
    });
    g.finish();
}

fn bench_sim_engine(c: &mut Criterion) {
    use nb_net::runtime::{Actor, Context, Incoming};
    use nb_net::{ClockProfile, ShardedSim};
    use std::time::Duration;

    // A pair of actors bouncing a datagram back and forth 10^4 times:
    // measures raw engine event throughput including codec round-trips.
    struct Bouncer {
        peer: Option<NodeId>,
    }
    impl Actor for Bouncer {
        fn on_start(&mut self, ctx: &mut dyn Context) {
            if let Some(peer) = self.peer {
                let ping =
                    Message::Ping { nonce: 0, sent_at: 0, reply_to: Endpoint::new(ctx.me(), Port(1)) };
                ctx.send_udp(Port(1), Endpoint::new(peer, Port(1)), &ping);
            }
        }
        fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
            let Incoming::Datagram { from, msg, .. } = event else { return };
            if let Message::Ping { nonce, .. } = *msg.message() {
                if nonce >= 10_000 {
                    return;
                }
                let ping = Message::Ping {
                    nonce: nonce + 1,
                    sent_at: 0,
                    reply_to: Endpoint::new(ctx.me(), Port(1)),
                };
                ctx.send_udp(Port(1), from, &ping);
            }
        }
        nb_net::impl_actor_any!();
    }

    // Event queue under pure timer load: one actor schedules N timer
    // events up front (schedule) and the engine drains them all (pop).
    // Sized at 10^5 and 10^6 to expose any superlinear queue behavior.
    // Tokens cycle through a small set — the per-node timer slab is
    // designed for a handful of live tokens, so distinct-token floods
    // would measure the slab scan, not the queue.
    struct TimerFlood {
        timers: u64,
    }
    impl Actor for TimerFlood {
        fn on_start(&mut self, ctx: &mut dyn Context) {
            for t in 0..self.timers {
                ctx.set_timer(Duration::from_micros(t + 1), t % 16);
            }
        }
        fn on_incoming(&mut self, _event: Incoming, _ctx: &mut dyn Context) {}
        nb_net::impl_actor_any!();
    }

    let mut g = c.benchmark_group("event_queue");
    for timers in [100_000u64, 1_000_000] {
        g.throughput(Throughput::Elements(timers));
        g.bench_function(&format!("schedule_pop_{timers}"), |b| {
            b.iter(|| {
                let mut sim = ShardedSim::with_clock_profile(1, ClockProfile::perfect());
                sim.add_node("t", RealmId(0), Box::new(TimerFlood { timers }));
                sim.run_for(Duration::from_micros(timers + 1));
                let processed = sim.events_processed();
                assert!(processed >= timers);
                processed
            })
        });
    }
    g.finish();

    c.bench_function("sim_engine_10k_events", |b| {
        b.iter(|| {
            let mut sim = ShardedSim::with_clock_profile(1, ClockProfile::perfect());
            sim.network_mut().intra_realm_spec =
                nb_net::LinkSpec::lan().with_loss(0.0).with_jitter(Duration::ZERO);
            let a = sim.add_node("a", RealmId(0), Box::new(Bouncer { peer: None }));
            sim.add_node("b", RealmId(0), Box::new(Bouncer { peer: Some(a) }));
            sim.run_for(Duration::from_secs(60));
            sim.events_processed()
        })
    });
}

criterion_group!(
    benches,
    bench_codec,
    bench_topics,
    bench_dedup,
    bench_util,
    bench_selection,
    bench_crypto,
    bench_services,
    bench_sim_engine
);
criterion_main!(benches);
