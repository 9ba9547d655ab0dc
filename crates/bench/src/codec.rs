//! Codec micro-bench: the zero-copy wire path vs the full-decode oracle.
//!
//! Three measurements over a seeded frame population (`Publish` events
//! with mixed topic/payload sizes plus `Discovery` requests — the two
//! kinds the overlay floods):
//!
//! * **peek vs full decode** — `frame::peek` reads kind/UUID/topic-length
//!   at fixed offsets; the oracle is `decode_framed`, which parses the
//!   whole body the way the pre-peek receive path did. Every peeked
//!   header is asserted equal to the decoded one while timing, so a
//!   baseline is only published from a run that also witnessed oracle
//!   equality.
//! * **forward-bytes vs re-encode** — relaying one received frame to
//!   [`LINK_FAN_OUT`] neighbour links, per outgoing hop. The zero-copy
//!   side is [`WireMsg::forward_hop`] once (copy the frame, patch the
//!   4-byte prelude) plus a `Bytes` refcount clone per link; the oracle
//!   replays what the pre-zero-copy broker did — decode the frame, then
//!   re-encode the message for every link it sends on.
//! * **allocations per delivery** — a 32-way fan-out of one received
//!   event, counted by the bench binary's counting allocator: the
//!   encode-once path clones a `Bytes` handle per recipient, the legacy
//!   path re-encoded per recipient.
//!
//! `repro codec` emits the result as `BENCH_codec.json`;
//! `tools/bench.sh codec` gates peek ≥ 5x and forward ≥ 3x at seed 11.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use nb_wire::frame::{decode_framed, frame_message, peek, DEFAULT_TTL, PRELUDE_LEN};
use nb_wire::{
    Bytes, DiscoveryRequest, Endpoint, Event, Message, NodeId, Port, RealmId, SymTabWriter, Topic,
    TopicFilter, Wire, WireMsg,
};
use nb_util::Uuid;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Recipients in the fan-out allocation measurement.
pub const FAN_OUT: usize = 32;

/// Neighbour links one relayed frame fans out to in the forwarding
/// measurement (a mid-degree overlay node).
pub const LINK_FAN_OUT: usize = 4;

/// Frames in the generated population.
const FRAMES: usize = 256;

/// Timing rounds over the population.
const ROUNDS: u64 = 400;

/// Messages per flush epoch in the v1-vs-v2 link A/B (what one broker
/// dispatch queues onto a link before the engine flushes).
pub const BATCH: usize = 16;

/// Flush epochs measured per fan-out in the A/B.
const EPOCHS: usize = 64;

/// Timing rounds over the A/B population.
const AB_ROUNDS: u64 = 50;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-backed allocator counting every allocation. The `repro`
/// binary installs it as its `#[global_allocator]`; libraries and tests
/// never do, so [`CodecReport::alloc_counting`] records whether the
/// per-delivery numbers are real or were skipped.
pub struct CountingAlloc;

// SAFETY: delegates verbatim to `System`; the counter updates have no
// effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let (old, new) = (layout.size() as u64, new_size as u64);
        if new >= old {
            LIVE_BYTES.fetch_add(new - old, Ordering::Relaxed);
        } else {
            LIVE_BYTES.fetch_sub(old - new, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations observed so far (0 forever unless [`CountingAlloc`] is
/// the process's global allocator).
pub fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Heap bytes currently live (allocated minus freed). The scale suite's
/// memory-per-entity column is the *difference* between two quiescent
/// readings, so the binary's own baseline cancels out.
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Whether allocation counting is live in this process.
fn counting_active() -> bool {
    let before = alloc_count();
    let probe = vec![0u8; 64];
    std::hint::black_box(&probe);
    alloc_count() != before
}

/// One fan-out's v1-vs-v2 comparison: a broker repeatedly flushing
/// [`BATCH`]-message control-plane epochs to `fan_out` overlay links.
/// The v1 side encodes each message once and pays one framed copy per
/// link; the v2 side keeps a symbol table per link and coalesces each
/// epoch into one multi-frame segment per link.
#[derive(Debug, Clone)]
pub struct AbResult {
    /// Links each epoch fans out to.
    pub fan_out: usize,
    /// v1 wire bytes per delivered message (prelude + body).
    pub v1_bytes_per_delivery: f64,
    /// v2 wire bytes per delivered message (segment bytes / frames).
    pub v2_bytes_per_delivery: f64,
    /// Mean frames coalesced into one segment.
    pub frames_per_segment: f64,
    /// v1 path: encode once + one `Bytes` clone per link, ns/delivery.
    pub v1_encode_ns_per_delivery: f64,
    /// v2 path: per-link segment encode, ns/delivery.
    pub v2_encode_ns_per_delivery: f64,
}

impl AbResult {
    /// v1-over-v2 bytes-per-delivery ratio (the headline compaction
    /// number `tools/bench.sh codec` gates on).
    pub fn bytes_reduction(&self) -> f64 {
        if self.v2_bytes_per_delivery > 0.0 {
            self.v1_bytes_per_delivery / self.v2_bytes_per_delivery
        } else {
            0.0
        }
    }
}

/// The codec baseline emitted as `BENCH_codec.json`.
#[derive(Debug, Clone)]
pub struct CodecReport {
    /// Seed the frame population was generated from.
    pub seed: u64,
    /// Frames in the population.
    pub frames: usize,
    /// Timed operations behind each per-frame number.
    pub ops: u64,
    /// `frame::peek`, nanoseconds per frame.
    pub peek_ns_per_frame: f64,
    /// `decode_framed` (full body parse), nanoseconds per frame.
    pub decode_ns_per_frame: f64,
    /// `WireMsg::forward_hop` once + a `Bytes` clone per link,
    /// nanoseconds per outgoing hop at [`LINK_FAN_OUT`] links.
    pub forward_ns_per_hop: f64,
    /// Legacy decode once + re-encode per link, ns per outgoing hop.
    pub reencode_ns_per_hop: f64,
    /// Allocations per delivered copy, encode-once fan-out.
    pub allocs_per_delivery_forward: f64,
    /// Allocations per delivered copy, re-encode-per-recipient fan-out.
    pub allocs_per_delivery_reencode: f64,
    /// Whether the counting allocator was installed (false in library
    /// tests, where the per-delivery numbers read 0).
    pub alloc_counting: bool,
    /// v1-vs-v2 link A/B at 4-way fan-out.
    pub ab_fan4: AbResult,
    /// v1-vs-v2 link A/B at [`FAN_OUT`]-way (32) fan-out.
    pub ab_fan32: AbResult,
}

impl CodecReport {
    /// Full-decode-over-peek ratio.
    pub fn peek_speedup(&self) -> f64 {
        if self.peek_ns_per_frame > 0.0 {
            self.decode_ns_per_frame / self.peek_ns_per_frame
        } else {
            0.0
        }
    }

    /// Re-encode-over-forward ratio.
    pub fn forward_speedup(&self) -> f64 {
        if self.forward_ns_per_hop > 0.0 {
            self.reencode_ns_per_hop / self.forward_ns_per_hop
        } else {
            0.0
        }
    }

    /// Renders the report as JSON (hand-rolled, same style as the
    /// discovery and routing baselines).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"suite\": \"codec-wire-path\",\n");
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"frames\": {},\n", self.frames));
        out.push_str(&format!("  \"ops\": {},\n", self.ops));
        out.push_str(&format!("  \"peek_ns_per_frame\": {:.1},\n", self.peek_ns_per_frame));
        out.push_str(&format!("  \"decode_ns_per_frame\": {:.1},\n", self.decode_ns_per_frame));
        out.push_str(&format!("  \"peek_speedup\": {:.2},\n", self.peek_speedup()));
        out.push_str(&format!("  \"link_fan_out\": {},\n", LINK_FAN_OUT));
        out.push_str(&format!("  \"forward_ns_per_hop\": {:.1},\n", self.forward_ns_per_hop));
        out.push_str(&format!("  \"reencode_ns_per_hop\": {:.1},\n", self.reencode_ns_per_hop));
        out.push_str(&format!("  \"forward_speedup\": {:.2},\n", self.forward_speedup()));
        out.push_str(&format!("  \"fan_out\": {},\n", FAN_OUT));
        out.push_str(&format!(
            "  \"allocs_per_delivery_forward\": {:.2},\n",
            self.allocs_per_delivery_forward
        ));
        out.push_str(&format!(
            "  \"allocs_per_delivery_reencode\": {:.2},\n",
            self.allocs_per_delivery_reencode
        ));
        out.push_str(&format!("  \"alloc_counting\": {},\n", self.alloc_counting));
        out.push_str(&format!("  \"v2_batch\": {},\n", BATCH));
        out.push_str(&format!("  \"v2_epochs\": {},\n", EPOCHS));
        for ab in [&self.ab_fan4, &self.ab_fan32] {
            let p = format!("fan{}", ab.fan_out);
            out.push_str(&format!(
                "  \"{p}_v1_bytes_per_delivery\": {:.2},\n",
                ab.v1_bytes_per_delivery
            ));
            out.push_str(&format!(
                "  \"{p}_v2_bytes_per_delivery\": {:.2},\n",
                ab.v2_bytes_per_delivery
            ));
            out.push_str(&format!("  \"{p}_bytes_reduction\": {:.2},\n", ab.bytes_reduction()));
            out.push_str(&format!(
                "  \"{p}_frames_per_segment\": {:.2},\n",
                ab.frames_per_segment
            ));
            out.push_str(&format!(
                "  \"{p}_v1_encode_ns_per_delivery\": {:.1},\n",
                ab.v1_encode_ns_per_delivery
            ));
            out.push_str(&format!(
                "  \"{p}_v2_encode_ns_per_delivery\": {:.1},\n",
                ab.v2_encode_ns_per_delivery
            ));
        }
        out.push_str(&format!("  \"bytes_reduction\": {:.2}\n", self.ab_fan32.bytes_reduction()));
        out.push_str("}\n");
        out
    }
}

fn topic(rng: &mut StdRng) -> Topic {
    let depth = rng.gen_range(2..=4usize);
    let raw = (0..depth)
        .map(|lvl| format!("l{lvl}s{:02}", rng.gen_range(0..40)))
        .collect::<Vec<_>>()
        .join("/");
    Topic::parse(&raw).expect("generated topic is valid")
}

/// The seeded frame population: ~75% `Publish` with payloads spanning
/// the sizes the overlay actually moves (16 B sensor readings to 4 KiB
/// blobs), ~25% `Discovery` floods.
fn population(rng: &mut StdRng) -> Vec<Bytes> {
    (0..FRAMES)
        .map(|i| {
            let msg = if i % 4 == 3 {
                Message::Discovery(DiscoveryRequest {
                    request_id: Uuid::random(rng),
                    requester: NodeId(rng.gen_range(1..100)),
                    hostname: format!("host-{i}.lab"),
                    realm: RealmId(1),
                    reply_to: Endpoint::new(NodeId(rng.gen_range(1..100)), Port(5060)),
                    transports: vec![],
                    credentials: None,
                    issued_at_utc: rng.gen_range(0..1_000_000),
                })
            } else {
                let len = [16usize, 128, 1024, 4096][i % 4];
                let payload: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                Message::Publish(Event {
                    id: Uuid::random(rng),
                    topic: topic(rng),
                    source: NodeId(rng.gen_range(1..100)),
                    payload: payload.into(),
                })
            };
            frame_message(&msg, DEFAULT_TTL, 0)
        })
        .collect()
}

/// Fixed epoch base the A/B's delta timestamps encode against (the sim
/// keys real segments on flush-time; the bench pins one).
const AB_BASE_UTC: u64 = 1_100_000_000_000_000;

/// The control-plane message mix a broker link actually carries between
/// publishes of bulk data: small sensor readings on a bounded topic
/// pool, heartbeats, interest advertisements, discovery floods. Small
/// messages are where framing overhead dominates, so this is the
/// population the v2 compaction is aimed at.
fn control_population(rng: &mut StdRng) -> Vec<Message> {
    (0..BATCH * EPOCHS)
        .map(|i| match i % 5 {
            0 | 1 => {
                let raw = format!(
                    "devices/rack{:02}/sensor{:02}/reading",
                    rng.gen_range(0..3usize),
                    rng.gen_range(0..6usize)
                );
                let len = rng.gen_range(16..=32usize);
                let payload: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                Message::Publish(Event {
                    id: Uuid::random(rng),
                    topic: Topic::parse(&raw).expect("generated topic is valid"),
                    source: NodeId(rng.gen_range(1..100)),
                    payload: payload.into(),
                })
            }
            2 => Message::Heartbeat {
                from: NodeId(rng.gen_range(1..100)),
                seq: rng.gen_range(0..1000),
            },
            3 => Message::Subscribe {
                filter: TopicFilter::parse(&format!(
                    "devices/rack{:02}/**",
                    rng.gen_range(0..3usize)
                ))
                .expect("generated filter is valid"),
                origin: NodeId(rng.gen_range(1..100)),
                seq: rng.gen_range(0..1000),
            },
            _ => Message::Discovery(DiscoveryRequest {
                request_id: Uuid::random(rng),
                requester: NodeId(rng.gen_range(1..100)),
                hostname: format!("host-{:02}.lab", rng.gen_range(0..20)),
                realm: RealmId(1),
                reply_to: Endpoint::new(NodeId(rng.gen_range(1..100)), Port(5060)),
                transports: vec![],
                credentials: None,
                issued_at_utc: AB_BASE_UTC + rng.gen_range(0..5_000u64),
            }),
        })
        .collect()
}

/// Measures one fan-out of the v1-vs-v2 link A/B over `msgs`.
fn run_ab(msgs: &[Message], fan_out: usize) -> AbResult {
    let deliveries = (msgs.len() * fan_out) as f64;

    // Oracle equality up front: the segment stream one link receives
    // decodes back to exactly the sent messages, so the published
    // compaction numbers come from a run that witnessed round-trip
    // correctness.
    {
        let mut w = SymTabWriter::new();
        let mut r = nb_wire::SymTabReader::new();
        for epoch in msgs.chunks(BATCH) {
            let items: Vec<(u8, u8, &Message)> =
                epoch.iter().map(|m| (DEFAULT_TTL, 0, m)).collect();
            let (seg, _) = nb_wire::v2::encode_segment(&items, AB_BASE_UTC, &mut w);
            let frames = nb_wire::v2::decode_segment(&seg, &mut r).expect("bench segment decodes");
            assert_eq!(frames.len(), epoch.len());
            for (f, m) in frames.iter().zip(epoch) {
                assert_eq!(&f.msg, m, "v2 segment diverged from the sent message");
            }
        }
    }

    // Encoded sizes are a pure function of the population: tally them
    // once. The v1 side charges one framed copy (prelude + body) per
    // message per link; the v2 side charges each link its own segment
    // stream against that link's symbol table.
    let v1_total: u64 =
        msgs.iter().map(|m| (PRELUDE_LEN + m.to_bytes().len()) as u64).sum::<u64>()
            * fan_out as u64;
    let mut writers: Vec<SymTabWriter> = (0..fan_out).map(|_| SymTabWriter::new()).collect();
    let mut v2_total = 0u64;
    let mut segments = 0u64;
    let mut frames = 0u64;
    for epoch in msgs.chunks(BATCH) {
        let items: Vec<(u8, u8, &Message)> = epoch.iter().map(|m| (DEFAULT_TTL, 0, m)).collect();
        for w in &mut writers {
            let (seg, lens) = nb_wire::v2::encode_segment(&items, AB_BASE_UTC, w);
            v2_total += seg.len() as u64;
            segments += 1;
            frames += lens.len() as u64;
        }
    }

    // Throughput: the v1 fan-out encodes once and clones the shared
    // frame per link; the v2 fan-out must encode per link (each link's
    // symbol table is its own). Timed on the now-warm tables, the
    // steady state a long-lived link runs in.
    let mut sink = 0usize;
    let t = Instant::now();
    for _ in 0..AB_ROUNDS {
        for m in msgs {
            let frame = frame_message(m, DEFAULT_TTL, 0);
            for _ in 0..fan_out {
                sink = sink.wrapping_add(std::hint::black_box(frame.clone()).len());
            }
        }
    }
    let v1_ns = t.elapsed().as_nanos() as f64 / (AB_ROUNDS as f64 * deliveries);

    let t = Instant::now();
    for _ in 0..AB_ROUNDS {
        for epoch in msgs.chunks(BATCH) {
            let items: Vec<(u8, u8, &Message)> =
                epoch.iter().map(|m| (DEFAULT_TTL, 0, m)).collect();
            for w in &mut writers {
                let (seg, _) = nb_wire::v2::encode_segment(&items, AB_BASE_UTC, w);
                sink = sink.wrapping_add(std::hint::black_box(seg).len());
            }
        }
    }
    let v2_ns = t.elapsed().as_nanos() as f64 / (AB_ROUNDS as f64 * deliveries);
    assert!(sink > 0);

    AbResult {
        fan_out,
        v1_bytes_per_delivery: v1_total as f64 / deliveries,
        v2_bytes_per_delivery: v2_total as f64 / deliveries,
        frames_per_segment: frames as f64 / segments as f64,
        v1_encode_ns_per_delivery: v1_ns,
        v2_encode_ns_per_delivery: v2_ns,
    }
}

/// Runs the suite. The seed fixes the frame population, so reruns
/// measure the same workload.
pub fn run_codec_bench(seed: u64) -> CodecReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let frames = population(&mut rng);
    let ops = ROUNDS * frames.len() as u64;

    // Oracle equality up front: every peeked header must agree with the
    // full decode (also warms caches evenly for both timed loops).
    for frame in &frames {
        let (header, msg) = decode_framed(frame).expect("generated frame decodes");
        assert_eq!(peek(frame).unwrap(), header, "peek diverged from decode_framed");
        assert_eq!(
            WireMsg::new(msg).peek().tag,
            header.tag,
            "header tag diverged from the decoded body"
        );
    }

    let mut sink = 0usize;
    let t = Instant::now();
    for _ in 0..ROUNDS {
        for frame in &frames {
            sink = sink.wrapping_add(peek(frame).unwrap().tag as usize);
        }
    }
    let peek_ns = t.elapsed().as_nanos() as f64 / ops as f64;

    let t = Instant::now();
    for _ in 0..ROUNDS {
        for frame in &frames {
            let (header, msg) = decode_framed(frame).unwrap();
            sink = sink.wrapping_add(header.tag as usize + msg.kind().len());
        }
    }
    let decode_ns = t.elapsed().as_nanos() as f64 / ops as f64;

    // Relaying each received frame to LINK_FAN_OUT links, both ways.
    // The received handles are built outside the timed loops: the hop
    // under measurement starts from an already-received message,
    // exactly like a broker's relay path.
    let received: Vec<WireMsg> =
        frames.iter().map(|f| WireMsg::from_frame(f.clone()).expect("frame decodes")).collect();
    for wm in &received {
        let fwd = wm.forward_hop().expect("fresh TTL forwards");
        let rebuilt = frame_message(wm.message(), wm.ttl() - 1, wm.hops() + 1);
        assert_eq!(fwd.frame(), &rebuilt, "forwarded frame diverged from the re-encode oracle");
    }
    let hops = ops * LINK_FAN_OUT as u64;

    let t = Instant::now();
    for _ in 0..ROUNDS {
        for wm in &received {
            // Patch the prelude once, then one refcount clone per link
            // (what `send_stream_wire` does per recipient).
            let fwd = wm.forward_hop().unwrap();
            let frame = fwd.frame();
            for _ in 0..LINK_FAN_OUT {
                sink = sink.wrapping_add(std::hint::black_box(frame.clone()).len());
            }
        }
    }
    let forward_ns = t.elapsed().as_nanos() as f64 / hops as f64;

    let t = Instant::now();
    for _ in 0..ROUNDS {
        for frame in &frames {
            // The pre-zero-copy relay: decode the received frame, then
            // re-encode the message for every link it goes out on.
            let (header, msg) = decode_framed(frame).unwrap();
            for _ in 0..LINK_FAN_OUT {
                let rebuilt =
                    frame_message(&msg, header.ttl - 1, header.hops.saturating_add(1));
                sink = sink.wrapping_add(std::hint::black_box(rebuilt).len());
            }
        }
    }
    let reencode_ns = t.elapsed().as_nanos() as f64 / hops as f64;

    // Allocations per delivered copy across a FAN_OUT-way fan-out of
    // every received frame.
    let alloc_counting = counting_active();
    let deliveries = (frames.len() * FAN_OUT) as f64;

    let before = alloc_count();
    for wm in &received {
        let fwd = wm.forward_hop().unwrap();
        let frame = fwd.frame();
        for _ in 0..FAN_OUT {
            // What `send_stream_wire` does per recipient: clone the
            // shared handle.
            sink = sink.wrapping_add(std::hint::black_box(frame.clone()).len());
        }
    }
    let allocs_forward = (alloc_count() - before) as f64 / deliveries;

    let before = alloc_count();
    for frame in &frames {
        for _ in 0..FAN_OUT {
            // The pre-zero-copy fan-out: decode once per recipient and
            // rebuild the outgoing bytes from scratch.
            let (header, msg) = decode_framed(frame).unwrap();
            let rebuilt =
                frame_message(&msg, header.ttl - 1, header.hops.saturating_add(1));
            sink = sink.wrapping_add(std::hint::black_box(rebuilt).len());
        }
    }
    let allocs_reencode = (alloc_count() - before) as f64 / deliveries;

    // Keep the optimizer honest about the measured loops.
    assert!(sink > 0);

    // The v1-vs-v2 link A/B runs over its own control-plane population,
    // reseeded so the mix is independent of the frame population above.
    let mut ab_rng = StdRng::seed_from_u64(seed ^ 0x5e9_ab);
    let control = control_population(&mut ab_rng);
    let ab_fan4 = run_ab(&control, 4);
    let ab_fan32 = run_ab(&control, FAN_OUT);

    CodecReport {
        seed,
        frames: frames.len(),
        ops,
        peek_ns_per_frame: peek_ns,
        decode_ns_per_frame: decode_ns,
        forward_ns_per_hop: forward_ns,
        reencode_ns_per_hop: reencode_ns,
        allocs_per_delivery_forward: allocs_forward,
        allocs_per_delivery_reencode: allocs_reencode,
        alloc_counting,
        ab_fan4,
        ab_fan32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_is_internally_consistent() {
        let report = run_codec_bench(7);
        assert_eq!(report.frames, FRAMES);
        assert!(report.peek_ns_per_frame > 0.0);
        assert!(report.decode_ns_per_frame > 0.0);
        assert!(report.forward_ns_per_hop > 0.0);
        assert!(report.reencode_ns_per_hop > 0.0);
        // No counting allocator in the test harness.
        assert!(!report.alloc_counting);
    }

    #[test]
    fn json_carries_every_field() {
        let report = run_codec_bench(7);
        let json = report.to_json();
        for key in [
            "\"suite\": \"codec-wire-path\"",
            "\"peek_ns_per_frame\"",
            "\"decode_ns_per_frame\"",
            "\"peek_speedup\"",
            "\"forward_ns_per_hop\"",
            "\"reencode_ns_per_hop\"",
            "\"forward_speedup\"",
            "\"allocs_per_delivery_forward\"",
            "\"allocs_per_delivery_reencode\"",
            "\"alloc_counting\": false",
            "\"v2_batch\"",
            "\"fan4_v1_bytes_per_delivery\"",
            "\"fan4_v2_bytes_per_delivery\"",
            "\"fan4_bytes_reduction\"",
            "\"fan4_frames_per_segment\"",
            "\"fan32_v1_bytes_per_delivery\"",
            "\"fan32_v2_bytes_per_delivery\"",
            "\"fan32_bytes_reduction\"",
            "\"fan32_frames_per_segment\"",
            "\"bytes_reduction\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn ab_bytes_are_deterministic_and_fan_out_invariant() {
        let a = run_codec_bench(11);
        let b = run_codec_bench(11);
        // Encoded sizes are a pure function of the seed (timings are
        // not): this is what lets `tools/bench.sh codec` diff the
        // committed baseline's byte columns against a fresh run.
        assert_eq!(a.ab_fan32.v1_bytes_per_delivery, b.ab_fan32.v1_bytes_per_delivery);
        assert_eq!(a.ab_fan32.v2_bytes_per_delivery, b.ab_fan32.v2_bytes_per_delivery);
        // Per-delivery bytes don't depend on fan-out (every link gets an
        // identical segment stream); the fan-out axis is a throughput
        // axis, not a size axis.
        assert_eq!(a.ab_fan4.v1_bytes_per_delivery, a.ab_fan32.v1_bytes_per_delivery);
        assert_eq!(a.ab_fan4.v2_bytes_per_delivery, a.ab_fan32.v2_bytes_per_delivery);
        assert_eq!(a.ab_fan32.frames_per_segment, BATCH as f64);
    }

    #[test]
    fn fan32_bytes_reduction_clears_the_shipping_gate_at_seed_11() {
        let report = run_codec_bench(11);
        let reduction = report.ab_fan32.bytes_reduction();
        assert!(
            reduction >= 1.5,
            "v2 bytes/delivery reduction {reduction:.2} under the 1.5x gate \
             (v1 {:.1} B, v2 {:.1} B)",
            report.ab_fan32.v1_bytes_per_delivery,
            report.ab_fan32.v2_bytes_per_delivery
        );
    }
}
