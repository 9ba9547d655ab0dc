//! A wall-clock runtime for the same actors the simulator drives.
//!
//! Each node runs on its own thread; a central *wire* thread applies the
//! [`NetworkModel`] (latency, jitter, loss, realm-scoped multicast,
//! stream ordering + connection setup) to every message using a timer
//! heap, exactly like the discrete-event engine does in virtual time.
//! This proves the protocol stack is runtime-agnostic and powers the
//! runnable examples.

use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use nb_wire::{frame_message, Endpoint, GroupId, Message, NodeId, Port, RealmId, WireMsg, DEFAULT_TTL};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::clock::{ClockProfile, ClockState};
use crate::link::{DatagramFate, NetworkModel, StreamBook};
use crate::runtime::{Actor, Context, Incoming};
use crate::shard::NetStats;
use crate::time::SimTime;

enum NodeMsg {
    Event(Incoming),
    Stop,
}

/// Wire-thread operations. Message ops carry the full wire frame
/// (4-byte prelude + body); senders that already hold a [`WireMsg`]
/// clone its cached frame instead of encoding again.
enum WireOp {
    Datagram { from: Endpoint, to: Endpoint, bytes: Bytes },
    Stream { from: Endpoint, to: Endpoint, bytes: Bytes },
    Multicast { from: Endpoint, group: GroupId, to_port: Port, bytes: Bytes },
    ClockSync { node: NodeId, at: Instant },
    Stop,
}

struct Shared {
    network: Mutex<NetworkModel>,
    clocks: Mutex<HashMap<NodeId, ClockState>>,
    node_txs: Mutex<HashMap<NodeId, Sender<NodeMsg>>>,
    stats: Mutex<NetStats>,
    epoch: Instant,
    /// Multiplies every modelled latency (e.g. 0.1 runs WAN scenarios 10×
    /// faster in tests).
    time_scale: f64,
}

impl Shared {
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    fn scaled(&self, d: Duration) -> Duration {
        d.mul_f64(self.time_scale)
    }
}

struct Due {
    at: Instant,
    seq: u64,
    node: NodeId,
    incoming: Incoming,
}

impl PartialEq for Due {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Due {}
impl PartialOrd for Due {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Due {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

/// Per-node bookkeeping: display name, inbox, and the join handle that
/// yields the actor back at shutdown.
type NodeHandle = (String, Sender<NodeMsg>, JoinHandle<Box<dyn Actor>>);

/// The threaded runtime.
pub struct ThreadedNet {
    shared: Arc<Shared>,
    wire_tx: Sender<WireOp>,
    wire_join: Option<JoinHandle<()>>,
    /// Ordered so shutdown stops and joins nodes in id order, giving the
    /// teardown a deterministic sequence (and D002-clean iteration).
    nodes: BTreeMap<NodeId, NodeHandle>,
    next_node: u32,
    seed: u64,
}

impl ThreadedNet {
    /// A runtime with real-time latencies.
    pub fn new(seed: u64) -> ThreadedNet {
        ThreadedNet::with_time_scale(seed, 1.0)
    }

    /// A runtime whose modelled latencies are multiplied by `time_scale`.
    pub fn with_time_scale(seed: u64, time_scale: f64) -> ThreadedNet {
        let shared = Arc::new(Shared {
            network: Mutex::new(NetworkModel::new()),
            clocks: Mutex::new(HashMap::new()),
            node_txs: Mutex::new(HashMap::new()),
            stats: Mutex::new(NetStats::default()),
            epoch: Instant::now(),
            time_scale,
        });
        let (wire_tx, wire_rx) = unbounded();
        let wire_shared = Arc::clone(&shared);
        let wire_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let wire_join = std::thread::Builder::new()
            .name("nb-wire".into())
            .spawn(move || wire_thread(wire_shared, wire_rx, wire_seed))
            .expect("spawn wire thread");
        ThreadedNet {
            shared,
            wire_tx,
            wire_join: Some(wire_join),
            nodes: BTreeMap::new(),
            next_node: 0,
            seed,
        }
    }

    /// Mutates the network model (links, partitions, defaults).
    pub fn configure_network(&self, f: impl FnOnce(&mut NetworkModel)) {
        f(&mut self.shared.network.lock());
    }

    /// Time since the runtime epoch.
    pub fn now(&self) -> SimTime {
        self.shared.now()
    }

    /// Snapshot of the wire thread's traffic counters.
    pub fn stats(&self) -> NetStats {
        self.shared.stats.lock().clone()
    }

    /// A node's current UTC estimate, if it exists.
    pub fn utc_of(&self, node: NodeId) -> Option<u64> {
        let now = self.shared.now();
        self.shared.clocks.lock().get(&node).map(|c| c.utc_micros(now))
    }

    /// Adds a node running `actor` with the given clock profile.
    pub fn add_node(
        &mut self,
        name: &str,
        realm: RealmId,
        profile: ClockProfile,
        actor: Box<dyn Actor>,
    ) -> NodeId {
        let id = NodeId(self.next_node);
        self.next_node += 1;
        let mut seed_rng = StdRng::seed_from_u64(self.seed ^ u64::from(id.0).wrapping_mul(0xD6E8_FEB8));
        let clock = profile.sample(self.shared.now(), &mut seed_rng);
        let sync_delay = clock.sync_at - self.shared.now();
        self.shared.clocks.lock().insert(id, clock);
        self.shared.network.lock().register_node(id, realm);

        let (tx, rx) = unbounded();
        self.shared.node_txs.lock().insert(id, tx.clone());
        let shared = Arc::clone(&self.shared);
        let wire_tx = self.wire_tx.clone();
        let node_seed = self.seed ^ (u64::from(id.0) << 32) ^ 0xABCD;
        let join = std::thread::Builder::new()
            .name(format!("nb-node-{}", name))
            .spawn(move || node_thread(id, realm, shared, wire_tx, rx, actor, node_seed))
            .expect("spawn node thread");
        // Schedule the modeled NTP sync completion.
        let _ = self
            .wire_tx
            .send(WireOp::ClockSync { node: id, at: Instant::now() + sync_delay });
        self.nodes.insert(id, (name.to_string(), tx, join));
        id
    }

    /// Delivers an [`Incoming`] straight to a node (harness stimulus).
    pub fn inject(&self, node: NodeId, incoming: Incoming) {
        if let Some((_, tx, _)) = self.nodes.get(&node) {
            let _ = tx.send(NodeMsg::Event(incoming));
        }
    }

    /// Stops every thread and returns the actors for inspection.
    pub fn shutdown(mut self) -> HashMap<NodeId, Box<dyn Actor>> {
        let _ = self.wire_tx.send(WireOp::Stop);
        if let Some(j) = self.wire_join.take() {
            let _ = j.join();
        }
        let mut out = HashMap::new();
        for (id, (_name, tx, join)) in std::mem::take(&mut self.nodes) {
            let _ = tx.send(NodeMsg::Stop);
            if let Ok(actor) = join.join() {
                out.insert(id, actor);
            }
        }
        out
    }
}

impl Drop for ThreadedNet {
    fn drop(&mut self) {
        let _ = self.wire_tx.send(WireOp::Stop);
        if let Some(j) = self.wire_join.take() {
            let _ = j.join();
        }
        for (_, (_, tx, _)) in self.nodes.iter() {
            let _ = tx.send(NodeMsg::Stop);
        }
        for (_, (_, _, join)) in std::mem::take(&mut self.nodes) {
            let _ = join.join();
        }
    }
}

fn wire_thread(shared: Arc<Shared>, rx: Receiver<WireOp>, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut heap: BinaryHeap<Due> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut streams = StreamBook::new();

    let push = |heap: &mut BinaryHeap<Due>, seq: &mut u64, at, node, incoming| {
        heap.push(Due { at, seq: *seq, node, incoming });
        *seq += 1;
    };

    loop {
        // Deliver everything due.
        let now = Instant::now();
        while heap.peek().is_some_and(|d| d.at <= now) {
            let due = heap.pop().unwrap();
            if matches!(due.incoming, Incoming::ClockSynced) {
                if let Some(c) = shared.clocks.lock().get_mut(&due.node) {
                    c.mark_synced();
                }
            }
            let txs = shared.node_txs.lock();
            if let Some(tx) = txs.get(&due.node) {
                let _ = tx.send(NodeMsg::Event(due.incoming));
            }
        }
        let timeout = heap
            .peek()
            .map(|d| d.at.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_millis(50));
        let op = match rx.recv_timeout(timeout) {
            Ok(op) => op,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return,
        };
        match op {
            WireOp::Stop => return,
            WireOp::ClockSync { node, at } => {
                // The flag flip and the ClockSynced delivery both happen
                // when this entry pops from the heap.
                push(&mut heap, &mut seq, at, node, Incoming::ClockSynced);
            }
            WireOp::Datagram { from, to, bytes } => {
                let net = shared.network.lock();
                let fate = net.datagram_fate(from.node, to.node, &mut rng);
                let tx = net
                    .spec_between(from.node, to.node)
                    .map(|s| s.transmission_delay(bytes.len()))
                    .unwrap_or_default();
                drop(net);
                {
                    let mut st = shared.stats.lock();
                    st.datagrams_sent += 1;
                    match fate {
                        DatagramFate::Lost => st.datagrams_lost += 1,
                        DatagramFate::Unreachable => st.unreachable += 1,
                        DatagramFate::Deliver(_) => {
                            st.datagrams_delivered += 1;
                            st.bytes_delivered += bytes.len() as u64;
                        }
                    }
                }
                if let DatagramFate::Deliver(lat) = fate {
                    if let Ok(msg) = WireMsg::from_frame(bytes) {
                        *shared.stats.lock().by_kind.entry(msg.kind()).or_insert(0) += 1;
                        let at = Instant::now() + shared.scaled(lat + tx);
                        push(
                            &mut heap,
                            &mut seq,
                            at,
                            to.node,
                            Incoming::Datagram { from, to_port: to.port, msg },
                        );
                    }
                }
            }
            WireOp::Stream { from, to, bytes } => {
                let (lat, tx) = {
                    let net = shared.network.lock();
                    (
                        net.stream_latency(from.node, to.node, &mut rng),
                        net.spec_between(from.node, to.node)
                            .map(|s| s.transmission_delay(bytes.len()))
                            .unwrap_or_default(),
                    )
                };
                if let Some(lat) = lat.map(|l| l + tx) {
                    let frame_len = bytes.len();
                    if let Ok(msg) = WireMsg::from_frame(bytes) {
                        {
                            let mut st = shared.stats.lock();
                            st.stream_delivered += 1;
                            st.bytes_delivered += frame_len as u64;
                            *st.by_kind.entry(msg.kind()).or_insert(0) += 1;
                        }
                        let now_sim = shared.now();
                        let arrival =
                            streams.delivery_time(from, to, now_sim, shared.scaled(lat));
                        let delay = arrival - now_sim;
                        let at = Instant::now() + delay;
                        push(
                            &mut heap,
                            &mut seq,
                            at,
                            to.node,
                            Incoming::Stream { from, to_port: to.port, msg },
                        );
                    }
                }
            }
            WireOp::Multicast { from, group, to_port, bytes } => {
                let recipients = {
                    let net = shared.network.lock();
                    net.multicast_recipients(group, from.node)
                };
                // Decode once for the whole fan-out; each recipient gets
                // a refcount clone of the same WireMsg.
                let Ok(msg) = WireMsg::from_frame(bytes) else {
                    continue;
                };
                for r in recipients {
                    let fate = shared.network.lock().datagram_fate(from.node, r, &mut rng);
                    if let DatagramFate::Deliver(lat) = fate {
                        let at = Instant::now() + shared.scaled(lat);
                        push(
                            &mut heap,
                            &mut seq,
                            at,
                            r,
                            Incoming::Datagram { from, to_port, msg: msg.clone() },
                        );
                    }
                }
            }
        }
    }
}

struct TimerEntry {
    at: Instant,
    token: u64,
    epoch: u64,
}
impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.token == other.token && self.epoch == other.epoch
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.at.cmp(&self.at).then(other.token.cmp(&self.token))
    }
}

#[derive(Default)]
struct TimerSet {
    heap: BinaryHeap<TimerEntry>,
    epochs: HashMap<u64, u64>,
}

impl TimerSet {
    fn set(&mut self, at: Instant, token: u64) {
        let e = self.epochs.entry(token).or_insert(0);
        *e += 1;
        self.heap.push(TimerEntry { at, token, epoch: *e });
    }

    fn cancel(&mut self, token: u64) {
        if let Some(e) = self.epochs.get_mut(&token) {
            *e += 1;
        }
    }

    fn next_due(&mut self) -> Option<Instant> {
        // Drop stale entries from the front first.
        while let Some(top) = self.heap.peek() {
            if self.epochs.get(&top.token) == Some(&top.epoch) {
                return Some(top.at);
            }
            self.heap.pop();
        }
        None
    }

    fn pop_due(&mut self, now: Instant) -> Vec<u64> {
        let mut fired = Vec::new();
        while let Some(top) = self.heap.peek() {
            if top.at > now {
                break;
            }
            let entry = self.heap.pop().unwrap();
            if self.epochs.get(&entry.token) == Some(&entry.epoch) {
                fired.push(entry.token);
            }
        }
        fired
    }
}

struct ThreadCtx<'a> {
    node: NodeId,
    realm: RealmId,
    shared: &'a Arc<Shared>,
    wire_tx: &'a Sender<WireOp>,
    rng: &'a mut StdRng,
    timers: &'a mut TimerSet,
}

impl Context for ThreadCtx<'_> {
    fn me(&self) -> NodeId {
        self.node
    }

    fn realm(&self) -> RealmId {
        self.realm
    }

    fn now(&self) -> SimTime {
        self.shared.now()
    }

    fn utc_micros(&self) -> u64 {
        let now = self.shared.now();
        self.shared.clocks.lock().get(&self.node).map_or(0, |c| c.utc_micros(now))
    }

    fn clock_synced(&self) -> bool {
        self.shared.clocks.lock().get(&self.node).is_some_and(|c| c.synced)
    }

    fn raw_local_micros(&self) -> u64 {
        let now = self.shared.now();
        self.shared
            .clocks
            .lock()
            .get(&self.node)
            .map_or(crate::time::true_utc_micros(now), |c| c.raw_local_micros(now))
    }

    fn set_clock_estimate_ns(&mut self, est_offset_ns: i64) {
        if let Some(c) = self.shared.clocks.lock().get_mut(&self.node) {
            c.set_estimate_ns(est_offset_ns);
        }
    }

    fn send_udp(&mut self, from_port: Port, to: Endpoint, msg: &Message) {
        let _ = self.wire_tx.send(WireOp::Datagram {
            from: Endpoint::new(self.node, from_port),
            to,
            bytes: frame_message(msg, DEFAULT_TTL, 0),
        });
    }

    fn send_stream(&mut self, from_port: Port, to: Endpoint, msg: &Message) {
        let _ = self.wire_tx.send(WireOp::Stream {
            from: Endpoint::new(self.node, from_port),
            to,
            bytes: frame_message(msg, DEFAULT_TTL, 0),
        });
    }

    fn send_udp_wire(&mut self, from_port: Port, to: Endpoint, msg: &WireMsg) {
        let _ = self.wire_tx.send(WireOp::Datagram {
            from: Endpoint::new(self.node, from_port),
            to,
            bytes: msg.frame().clone(),
        });
    }

    fn send_stream_wire(&mut self, from_port: Port, to: Endpoint, msg: &WireMsg) {
        let _ = self.wire_tx.send(WireOp::Stream {
            from: Endpoint::new(self.node, from_port),
            to,
            bytes: msg.frame().clone(),
        });
    }

    fn send_multicast(&mut self, from_port: Port, group: GroupId, to_port: Port, msg: &Message) {
        let _ = self.wire_tx.send(WireOp::Multicast {
            from: Endpoint::new(self.node, from_port),
            group,
            to_port,
            bytes: frame_message(msg, DEFAULT_TTL, 0),
        });
    }

    fn join_group(&mut self, group: GroupId) {
        self.shared.network.lock().join_group(group, self.node);
    }

    fn leave_group(&mut self, group: GroupId) {
        self.shared.network.lock().leave_group(group, self.node);
    }

    fn set_timer(&mut self, delay: Duration, token: u64) {
        self.timers.set(Instant::now() + delay, token);
    }

    fn cancel_timer(&mut self, token: u64) {
        self.timers.cancel(token);
    }

    fn rng(&mut self) -> &mut dyn RngCore {
        self.rng
    }
}

fn node_thread(
    id: NodeId,
    realm: RealmId,
    shared: Arc<Shared>,
    wire_tx: Sender<WireOp>,
    rx: Receiver<NodeMsg>,
    mut actor: Box<dyn Actor>,
    seed: u64,
) -> Box<dyn Actor> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut timers = TimerSet::default();
    {
        let mut ctx = ThreadCtx {
            node: id,
            realm,
            shared: &shared,
            wire_tx: &wire_tx,
            rng: &mut rng,
            timers: &mut timers,
        };
        actor.on_start(&mut ctx);
    }
    loop {
        // Fire any due timers first.
        let fired = timers.pop_due(Instant::now());
        for token in fired {
            let mut ctx = ThreadCtx {
                node: id,
                realm,
                shared: &shared,
                wire_tx: &wire_tx,
                rng: &mut rng,
                timers: &mut timers,
            };
            actor.on_incoming(Incoming::Timer { token }, &mut ctx);
        }
        let timeout = timers
            .next_due()
            .map(|at| at.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_millis(50));
        match rx.recv_timeout(timeout) {
            Ok(NodeMsg::Event(incoming)) => {
                let mut ctx = ThreadCtx {
                    node: id,
                    realm,
                    shared: &shared,
                    wire_tx: &wire_tx,
                    rng: &mut rng,
                    timers: &mut timers,
                };
                actor.on_incoming(incoming, &mut ctx);
            }
            Ok(NodeMsg::Stop) | Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {}
        }
    }
    actor
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impl_actor_any;
    use crate::link::LinkSpec;
    use nb_wire::addr::well_known;

    #[derive(Default)]
    struct Echo {
        pings: u32,
    }
    impl Actor for Echo {
        fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
            if let Incoming::Datagram { to_port, msg, .. } = event {
                if let Message::Ping { nonce, sent_at, reply_to } = *msg.message() {
                    self.pings += 1;
                    ctx.send_udp(
                        to_port,
                        reply_to,
                        &Message::Pong { nonce, echoed_sent_at: sent_at, responder: ctx.me() },
                    );
                }
            }
        }
        impl_actor_any!();
    }

    struct Pinger {
        target: NodeId,
        rtts_us: Vec<u64>,
        sent: HashMap<u64, SimTime>,
    }
    impl Actor for Pinger {
        fn on_start(&mut self, ctx: &mut dyn Context) {
            for nonce in 0..3u64 {
                self.sent.insert(nonce, ctx.now());
                ctx.send_udp(
                    well_known::PING,
                    Endpoint::new(self.target, well_known::PING),
                    &Message::Ping {
                        nonce,
                        sent_at: ctx.now().as_micros(),
                        reply_to: Endpoint::new(ctx.me(), well_known::PING),
                    },
                );
            }
        }
        fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
            if let Incoming::Datagram { msg, .. } = event {
                if let Message::Pong { nonce, .. } = msg.message() {
                    let rtt = ctx.now() - self.sent[nonce];
                    self.rtts_us.push(rtt.as_micros() as u64);
                }
            }
        }
        impl_actor_any!();
    }

    #[test]
    fn threaded_ping_pong_observes_modelled_latency() {
        let mut net = ThreadedNet::new(7);
        net.configure_network(|n| {
            n.inter_realm_spec = LinkSpec::wan(Duration::from_millis(10)).with_loss(0.0);
        });
        let echo = net.add_node("echo", RealmId(0), ClockProfile::perfect(), Box::new(Echo::default()));
        let pinger = net.add_node(
            "pinger",
            RealmId(1),
            ClockProfile::perfect(),
            Box::new(Pinger { target: echo, rtts_us: Vec::new(), sent: HashMap::new() }),
        );
        std::thread::sleep(Duration::from_millis(400));
        let actors = net.shutdown();
        let p = actors[&pinger].as_any().downcast_ref::<Pinger>().unwrap();
        assert_eq!(p.rtts_us.len(), 3, "all pongs received");
        for rtt in &p.rtts_us {
            assert!(*rtt >= 20_000, "rtt {rtt}µs below 2× one-way");
            assert!(*rtt < 100_000, "rtt {rtt}µs absurdly high");
        }
        let e = actors[&echo].as_any().downcast_ref::<Echo>().unwrap();
        assert_eq!(e.pings, 3);
    }

    #[test]
    fn timers_fire_and_cancel() {
        struct T {
            fired: Vec<u64>,
        }
        impl Actor for T {
            fn on_start(&mut self, ctx: &mut dyn Context) {
                ctx.set_timer(Duration::from_millis(30), 1);
                ctx.set_timer(Duration::from_millis(60), 2);
                ctx.cancel_timer(2);
                ctx.set_timer(Duration::from_millis(90), 3);
            }
            fn on_incoming(&mut self, event: Incoming, _ctx: &mut dyn Context) {
                if let Incoming::Timer { token } = event {
                    self.fired.push(token);
                }
            }
            impl_actor_any!();
        }
        let mut net = ThreadedNet::new(1);
        let n = net.add_node("t", RealmId(0), ClockProfile::perfect(), Box::new(T { fired: vec![] }));
        std::thread::sleep(Duration::from_millis(250));
        let actors = net.shutdown();
        let t = actors[&n].as_any().downcast_ref::<T>().unwrap();
        assert_eq!(t.fired, vec![1, 3]);
    }

    #[test]
    fn multicast_reaches_same_realm_only() {
        #[derive(Default)]
        struct Listener {
            got: u32,
        }
        impl Actor for Listener {
            fn on_start(&mut self, ctx: &mut dyn Context) {
                ctx.join_group(GroupId(5));
            }
            fn on_incoming(&mut self, event: Incoming, _ctx: &mut dyn Context) {
                if let Incoming::Datagram { msg, .. } = &event {
                    if matches!(msg.message(), Message::Heartbeat { .. }) {
                        self.got += 1;
                    }
                }
            }
            impl_actor_any!();
        }
        struct Caster;
        impl Actor for Caster {
            fn on_start(&mut self, ctx: &mut dyn Context) {
                // Give listeners a beat to join, then cast.
                ctx.set_timer(Duration::from_millis(50), 1);
            }
            fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
                if matches!(event, Incoming::Timer { token: 1 }) {
                    let hb = Message::Heartbeat { from: ctx.me(), seq: 0 };
                    ctx.send_multicast(Port(1), GroupId(5), Port(1), &hb);
                }
            }
            impl_actor_any!();
        }
        let mut net = ThreadedNet::new(3);
        net.configure_network(|n| {
            n.intra_realm_spec = LinkSpec::lan().with_loss(0.0);
        });
        let same = net.add_node("same", RealmId(0), ClockProfile::perfect(), Box::new(Listener::default()));
        let other = net.add_node("other", RealmId(1), ClockProfile::perfect(), Box::new(Listener::default()));
        net.add_node("caster", RealmId(0), ClockProfile::perfect(), Box::new(Caster));
        std::thread::sleep(Duration::from_millis(300));
        let actors = net.shutdown();
        assert_eq!(actors[&same].as_any().downcast_ref::<Listener>().unwrap().got, 1);
        assert_eq!(actors[&other].as_any().downcast_ref::<Listener>().unwrap().got, 0);
    }

    #[test]
    fn clock_sync_event_arrives() {
        struct W {
            synced: bool,
        }
        impl Actor for W {
            fn on_incoming(&mut self, event: Incoming, _ctx: &mut dyn Context) {
                if matches!(event, Incoming::ClockSynced) {
                    self.synced = true;
                }
            }
            impl_actor_any!();
        }
        let profile = ClockProfile {
            max_true_offset: Duration::from_millis(100),
            min_residual: Duration::from_millis(1),
            max_residual: Duration::from_millis(5),
            min_sync_delay: Duration::from_millis(50),
            max_sync_delay: Duration::from_millis(80),
        };
        let mut net = ThreadedNet::new(4);
        let n = net.add_node("w", RealmId(0), profile, Box::new(W { synced: false }));
        std::thread::sleep(Duration::from_millis(300));
        let actors = net.shutdown();
        assert!(actors[&n].as_any().downcast_ref::<W>().unwrap().synced);
    }
}
