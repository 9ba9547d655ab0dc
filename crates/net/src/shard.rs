//! The discrete-event simulation engine.
//!
//! Seeded and fully deterministic: every figure, campaign and scale
//! tier runs on [`ShardedSim`]. Nodes are [`Actor`]s. Every node is its
//! own logical process (LP) with a private RNG stream (seeded from the
//! root seed and the node id, see `node_seed`), stream and wire books,
//! v2 symbol tables, trace buffer and traffic counters. The
//! engine owns virtual time and the [`NetworkModel`], and dispatches
//! [`Incoming`] events through a [`Context`] implementation.
//!
//! # Event order
//!
//! Every event is keyed `(time, origin node, origin's emission
//! counter)`: the node whose dispatch created it, and how many events
//! that node had created before. Events the harness creates (start-up,
//! injections, node-scoped faults) take their target node as origin.
//! Each LP pops its queue in key order. The key is fixed when the event
//! is created, so an LP's event sequence never depends on when, or by
//! which worker, the event reached its queue.
//!
//! Two effects reach beyond the node that causes them, so they take
//! effect at a fixed later virtual time rather than at once: a
//! `join_group`/`leave_group` at `t` changes multicast membership at
//! `t + lookahead`, and a crash at `t` resets the peers' stream
//! connections, wire clocks and v2 symbol tables for the crashed node at
//! `t + lookahead` (the crashed node resets its own at `t`). These
//! *global operations*, like partitions and packet-fault windows, apply
//! before any event at or after their time.
//!
//! # Lookahead and execution
//!
//! The lookahead `L` is [`NetworkModel::min_cross_node_latency`] (at
//! least 1 ns). No delivery between two distinct nodes arrives sooner
//! than `L` after it was sent: jitter, bandwidth serialisation and
//! stream setup only add time, and the engine clamps the degenerate
//! zero-latency case up to `L`. So an event at `t` can affect another LP
//! no earlier than `t + L`.
//!
//! Pending events live only in their LP's queue. A min-heap over the
//! LPs, keyed by each LP's head event and re-keyed in place when a head
//! changes, finds the earliest event of the run and the LPs with work
//! below a horizon. Both modes share it.
//!
//! * **One worker** runs the head of the LP with the smallest key (a
//!   total order, since `(origin, counter)` is unique), then queues
//!   what the event emitted on its destination LPs. There are no epochs
//!   and no barriers.
//! * **Several workers** run barrier-synchronous epochs (Chandy/Misra/
//!   Bryant conservative lookahead). With `m` the earliest pending
//!   event, every LP runs its events below `H = m + L` (capped at the
//!   next global operation and the deadline) in parallel. Cross-LP sends
//!   buffer in the sender's outbox and move to their destination queues
//!   at the barrier; global operations created in the epoch are
//!   scheduled there too.
//!
//! Both modes run the same per-LP event sequences over the same network
//! state, so results and the [`ShardedSim::digest`] are byte-identical at
//! every worker and shard count. A [`ShardPlan`] only decides which
//! worker runs which LP, never what the LPs compute.
//!
//! # Hot-path layout
//!
//! Node ids are assigned densely from zero, so LPs live in a slab
//! indexed by `NodeId`. Timers use a small per-LP generation slab:
//! re-arming or cancelling a token bumps its generation, and a firing
//! whose generation no longer matches is discarded on pop. Delivered
//! payloads travel as [`WireMsg`] (the decoded message plus its shared,
//! lazily encoded frame) with the body size computed at most once per
//! logical send: fan-outs clone the handle, never the bytes.
//!
//! # Wire v2
//!
//! With [`ShardedSim::set_wire_v2`], [`Context::send_stream_v2`] queues
//! per directed link on the sending LP; one LP dispatch is one flush
//! epoch, after which each link's queue is encoded against the sending
//! LP's symbol-table writer and packed into segments. The receiving LP
//! decodes them against its reader for that peer.
//!
//! Threading is confined to [`ShardedSim`]'s multi-worker epoch loop: a
//! worker pool on the crossbeam channel shim, moving whole LP groups
//! through channels each epoch. Workers share nothing mutable (they own
//! the LPs they were handed and borrow an immutable snapshot of the
//! network), which is why this module and [`crate::threaded`] are the
//! only sanctioned homes for thread primitives in nb-net (lint rule
//! D008).

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel;
use nb_wire::v2 as wire_v2;
use nb_wire::{
    Bytes, Endpoint, GroupId, Message, NodeId, Port, RealmId, SymTabReader, SymTabWriter, WireMsg,
};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::chaos::{Fault, FaultPlan, PacketFaults};
use crate::clock::{ClockProfile, ClockState};
use crate::link::{DatagramFate, NetworkModel, StreamBook, WireBook};
use crate::runtime::{Actor, Context, Incoming};
use crate::time::SimTime;

/// Builds a fresh actor for a node restarted with state loss. `Send`,
/// because the factory lives inside its node's logical process, which
/// migrates across worker threads.
pub type ShardRespawnFn = Box<dyn FnMut() -> Box<dyn Actor> + Send>;

/// One delivered message, recorded when tracing is enabled.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Delivery time.
    pub at: SimTime,
    /// Sender endpoint.
    pub from: Endpoint,
    /// Receiver endpoint.
    pub to: Endpoint,
    /// Message kind label.
    pub kind: &'static str,
    /// Encoded size in bytes.
    pub bytes: usize,
    /// Whether it travelled on a stream (true) or as a datagram.
    pub stream: bool,
}

/// Configuration for the opt-in v2 wire codec on stream links.
///
/// When installed (see [`ShardedSim::set_wire_v2`]),
/// [`Context::send_stream_v2`] sends queue per directed link and
/// coalesce into one multi-frame segment per flush epoch. An epoch is
/// one LP dispatch, so everything an actor sends to a link while
/// handling one event shares a segment. `None` (the default) leaves
/// every send on the v1 per-message path, with no extra RNG draws.
#[derive(Debug, Clone, Copy)]
pub struct WireV2Config {
    /// Segment byte budget: a segment closes once its frames' combined
    /// encoded size would exceed this (a single oversized frame still
    /// travels, alone in its segment).
    pub max_segment_bytes: usize,
    /// Maximum frames coalesced into one segment.
    pub max_segment_frames: usize,
}

impl Default for WireV2Config {
    fn default() -> Self {
        WireV2Config { max_segment_bytes: 16 * 1024, max_segment_frames: 64 }
    }
}

/// Aggregate traffic counters, useful for assertions and overhead tables.
#[derive(Debug, Default, Clone)]
pub struct NetStats {
    /// Datagrams handed to the network.
    pub datagrams_sent: u64,
    /// Datagrams delivered.
    pub datagrams_delivered: u64,
    /// Datagrams lost to the loss model.
    pub datagrams_lost: u64,
    /// Sends with no path (partition/unknown node); the sum of the two
    /// per-fate counters below.
    pub unreachable: u64,
    /// Unreachable sends whose path was severed by a partition
    /// (symmetric or one-way).
    pub unreachable_partitioned: u64,
    /// Unreachable sends with no route at all (unregistered peer).
    pub unreachable_no_path: u64,
    /// Stream messages delivered.
    pub stream_delivered: u64,
    /// Total payload bytes moved (delivered messages only).
    pub bytes_delivered: u64,
    /// Deliveries dropped because the destination node was down.
    pub dropped_node_down: u64,
    /// Extra copies injected by the duplication fault.
    pub datagrams_duplicated: u64,
    /// Datagrams dropped by the corruption fault (checksum failures).
    pub datagrams_corrupted: u64,
    /// Datagrams held back by the reordering fault.
    pub datagrams_reordered: u64,
    /// Coalesced v2 segments handed to the network.
    pub segments_sent: u64,
    /// Coalesced v2 segments delivered.
    pub segments_delivered: u64,
    /// Stream messages that travelled inside delivered v2 segments
    /// (each also counts in `stream_delivered`).
    pub frames_coalesced: u64,
    /// Delivered segments discarded because they failed to decode; the
    /// receive path surfaces these as a counter, never a panic.
    pub segment_decode_errors: u64,
    /// Delivered message counts by message kind.
    /// Ordered so that `Debug`/report rendering of per-kind counts is
    /// deterministic (lint rule D002).
    pub by_kind: BTreeMap<&'static str, u64>,
}

impl NetStats {
    /// Folds `other` into `self`. The engine keeps one counter set per
    /// logical process and merges them in node order, so the aggregate
    /// is independent of worker count.
    pub fn merge(&mut self, other: &NetStats) {
        self.datagrams_sent += other.datagrams_sent;
        self.datagrams_delivered += other.datagrams_delivered;
        self.datagrams_lost += other.datagrams_lost;
        self.unreachable += other.unreachable;
        self.unreachable_partitioned += other.unreachable_partitioned;
        self.unreachable_no_path += other.unreachable_no_path;
        self.stream_delivered += other.stream_delivered;
        self.bytes_delivered += other.bytes_delivered;
        self.dropped_node_down += other.dropped_node_down;
        self.datagrams_duplicated += other.datagrams_duplicated;
        self.datagrams_corrupted += other.datagrams_corrupted;
        self.datagrams_reordered += other.datagrams_reordered;
        self.segments_sent += other.segments_sent;
        self.segments_delivered += other.segments_delivered;
        self.frames_coalesced += other.frames_coalesced;
        self.segment_decode_errors += other.segment_decode_errors;
        for (kind, count) in &other.by_kind {
            *self.by_kind.entry(kind).or_insert(0) += count;
        }
    }
}

/// The RNG seed of `node`'s stream under root `seed`. The node id is
/// spread over all 64 bits first: with a plain `seed ^ id`, runs whose
/// seeds differ only in the low bits (a figure's consecutive run seeds)
/// would draw from the same few streams, dealt to different nodes.
fn node_seed(seed: u64, node: NodeId) -> u64 {
    seed ^ (node.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn mix(h: &mut u64, x: u64) {
    *h ^= x;
    *h = h.wrapping_mul(FNV_PRIME);
}

/// Mixes a string eight bytes at a time (the last word zero-padded),
/// then its length.
fn mix_str(h: &mut u64, s: &str) {
    let mut words = s.as_bytes().chunks_exact(8);
    for word in &mut words {
        mix(h, u64::from_le_bytes(word.try_into().expect("eight bytes")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let word = tail.iter().rev().fold(0u64, |w, &b| w << 8 | b as u64);
        mix(h, word);
    }
    mix(h, s.len() as u64);
}

/// Assignment of logical processes (nodes) to executor groups.
///
/// Greedy min-cut over link latencies, Kruskal-style: all node pairs
/// are visited from the lowest-latency link upwards and their clusters
/// merged while the combined size stays within `ceil(n / shards)`, so
/// the links left *cut* are the highest-latency ones and chatty
/// low-latency clusters — brokers behind the same switch — co-locate.
/// Clusters are then dealt into groups in ascending order of their
/// smallest node id, splitting only at capacity boundaries. The plan is
/// a pure function of the network model, so it is identical on every
/// run — but even a pathological plan cannot change results, only wall
/// time: grouping decides *where* an LP executes, never *what* it sees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// Number of executor groups.
    pub shards: usize,
    /// `assignment[node_id] = group index`.
    pub assignment: Vec<usize>,
}

/// Above this node count the planner stops materialising all O(n²)
/// pairs and clusters from the *sparse* view of the model instead:
/// explicit link overrides plus a per-realm chain. Both paths are pure
/// functions of the model, and the plan never affects results — only
/// which worker runs which LP.
const DENSE_PARTITION_NODES: usize = 2048;

/// Union-find `find` with path halving. Roots are kept at the smallest
/// member id (see `union` below), matching the label-relabel scheme the
/// dense planner historically used, so cluster identity — and therefore
/// the dealt assignment — is unchanged by the union-find rewrite.
fn uf_find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

impl ShardPlan {
    /// Partitions `nodes` logical processes into at most `shards` groups.
    pub fn partition(net: &NetworkModel, nodes: usize, shards: usize) -> ShardPlan {
        let shards = shards.clamp(1, nodes.max(1));
        let cap = nodes.div_ceil(shards);
        // Candidate edges, cheapest link first; ties break on the pair's
        // ids so the ordering is total and deterministic.
        let mut edges: Vec<(Duration, usize, usize)> = Vec::new();
        if nodes <= DENSE_PARTITION_NODES {
            // Every reachable pair (the historical exact path).
            for a in 0..nodes {
                for b in (a + 1)..nodes {
                    if let Some(spec) = net.spec_between(NodeId(a as u32), NodeId(b as u32)) {
                        edges.push((spec.latency, a, b));
                    }
                }
            }
        } else {
            // Sparse path: a realm's members form an intra-realm-latency
            // chain (enough connectivity to co-locate the realm without
            // materialising its clique), plus every explicit override.
            let mut prev_by_realm: BTreeMap<RealmId, usize> = BTreeMap::new();
            for (n, realm) in net.registered_nodes() {
                let idx = n.0 as usize;
                if idx >= nodes {
                    continue;
                }
                if let Some(prev) = prev_by_realm.insert(realm, idx) {
                    edges.push((net.intra_realm_spec.latency, prev, idx));
                }
            }
            for (a, b, spec) in net.link_overrides() {
                let (ai, bi) = (a.0 as usize, b.0 as usize);
                if a == b || ai >= nodes || bi >= nodes {
                    continue;
                }
                edges.push((spec.latency, ai, bi));
            }
        }
        edges.sort();
        // Kruskal-style greedy merge under the capacity bound, on a
        // union-find whose roots stay at each cluster's smallest id.
        let mut parent: Vec<usize> = (0..nodes).collect();
        let mut sizes: Vec<usize> = vec![1; nodes];
        let mut count = nodes;
        for (_, a, b) in edges {
            if count <= shards {
                break;
            }
            let (ra, rb) = (uf_find(&mut parent, a), uf_find(&mut parent, b));
            if ra == rb || sizes[ra] + sizes[rb] > cap {
                continue;
            }
            let (keep, gone) = (ra.min(rb), ra.max(rb));
            parent[gone] = keep;
            sizes[keep] += sizes[gone];
            count -= 1;
        }
        // Flatten clusters (ordered by smallest member id, members
        // ascending) and deal sequentially into capacity-`cap` groups:
        // cluster members stay adjacent, so a cluster splits across
        // groups only when a capacity boundary forces it.
        let mut order: Vec<(usize, usize)> = Vec::with_capacity(nodes);
        for v in 0..nodes {
            let root = uf_find(&mut parent, v);
            order.push((root, v));
        }
        order.sort_unstable();
        let mut assignment = vec![0usize; nodes];
        for (dealt, &(_, v)) in order.iter().enumerate() {
            assignment[v] = dealt / cap;
        }
        ShardPlan { shards, assignment }
    }
}

/// An event in one LP's private queue. These carry no node id: the
/// queue they sit in *is* the node.
enum LpEvent {
    Deliver { from: Endpoint, to_port: Port, msg: WireMsg, len: usize, stream: bool },
    /// One coalesced v2 segment arriving on a stream link; decoded (and
    /// split back into frames) at delivery against the receiving LP's
    /// symbol table for the sender.
    DeliverSegment { from: Endpoint, to_port: Port, seg: Bytes, len: usize },
    Timer { token: u64, generation: u64 },
    ClockSync,
    Start,
    Inject { incoming: Incoming },
    Fault { fault: Fault },
}

impl LpEvent {
    /// Faults execute on schedule even while their target is stalled.
    fn defers_under_stall(&self) -> bool {
        !matches!(self, LpEvent::Fault { .. })
    }
}

/// An event's order key `(time, origin node, origin's emission
/// counter)` packed into one integer: the time in nanoseconds in the
/// high 64 bits, then the origin in 24 bits and the counter in 40, so
/// comparing keys is one integer comparison. `(origin, counter)` is
/// unique per event, so the key is a total order over every event of
/// the run, and restricted to one LP it is that LP's order.
type Key = u128;

/// Node ids must fit the key's 24-bit origin field.
const MAX_NODES: usize = 1 << 24;
/// Emission counters must fit the key's 40-bit counter field.
const MAX_EMITTED: u64 = 1 << 40;

/// A queued event. `seq` is the low half of its [`Key`]: origin and
/// emission counter.
struct Queued {
    at: SimTime,
    seq: u64,
    ev: LpEvent,
}

/// The time half of a key.
fn key_time(key: Key) -> SimTime {
    SimTime::from_nanos((key >> 64) as u64)
}

impl Queued {
    fn key(&self) -> Key {
        (self.at.as_nanos() as u128) << 64 | self.seq as u128
    }
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Queued {}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Queued {
    // Reversed so the BinaryHeap pops the smallest key first.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// Order key of a global operation: `(at, origin node, origin's
/// emission counter)`, with [`HARNESS`] as the origin of operations the
/// harness schedules.
type OpKey = (SimTime, u32, u64);

/// Origin of harness-scheduled global operations; sorts after every
/// node at the same instant.
const HARNESS: u32 = u32::MAX;

/// An operation on state no single LP owns. It applies before any event
/// at or after its time, with every LP at rest.
enum GlobalOp {
    /// A network-scoped fault: partitions and packet-fault windows.
    Fault(Fault),
    Join(NodeId, GroupId),
    Leave(NodeId, GroupId),
    /// `node` crashed: every other LP forgets its stream connections,
    /// wire clocks and v2 symbol tables for it.
    ResetPeer(NodeId),
}

/// What an LP reads, but does not own, while it runs an event.
#[derive(Clone, Copy)]
struct Env<'a> {
    net: &'a NetworkModel,
    pf: PacketFaults,
    v2: Option<WireV2Config>,
    lookahead: Duration,
}

/// One logical process: a node plus every piece of engine state that
/// only it touches. `Send`, so whole LPs migrate between workers.
struct Lp {
    id: NodeId,
    name: String,
    realm: RealmId,
    clock: ClockState,
    up: bool,
    /// Events addressed to this node are deferred until this instant
    /// (stop-the-world stall fault; `ZERO` = not stalled).
    stalled_until: SimTime,
    /// Generation slab for timers: `(token, generation)`. Nodes arm a
    /// handful of distinct tokens, so a linear scan beats hashing.
    timers: Vec<(u64, u64)>,
    actor: Option<Box<dyn Actor>>,
    respawn: Option<ShardRespawnFn>,
    queue: BinaryHeap<Queued>,
    /// Events (and global operations) this LP has created: the last
    /// component of their order keys.
    emitted: u64,
    /// Private RNG stream, seeded by `node_seed(root seed, node id)`: a
    /// function of the node's identity, never of which worker runs it.
    rng: StdRng,
    streams: StreamBook,
    wires: WireBook,
    stats: NetStats,
    events_processed: u64,
    digest: u64,
    /// Local virtual time: the timestamp of the event being run.
    now: SimTime,
    /// Events this LP created during the current dispatch, for itself
    /// or for other LPs, waiting to be queued: `(destination, event)`.
    outbox: Vec<(u32, Queued)>,
    ops: Vec<(OpKey, GlobalOp)>,
    /// Messages queued by [`Context::send_stream_v2`] this dispatch,
    /// per `(local port, destination)`; BTree-keyed so the flush walks
    /// links in a deterministic order.
    v2_pending: BTreeMap<(Port, Endpoint), Vec<WireMsg>>,
    /// Sending half of each outgoing link's topic symbol table.
    v2_enc: BTreeMap<NodeId, SymTabWriter>,
    /// Receiving half of each incoming link's topic symbol table.
    v2_dec: BTreeMap<NodeId, SymTabReader>,
    trace: Option<Vec<TraceRecord>>,
}

impl Lp {
    fn new(id: NodeId, name: &str, realm: RealmId, clock: ClockState, rng: StdRng) -> Lp {
        Lp {
            id,
            name: name.to_string(),
            realm,
            clock,
            up: true,
            stalled_until: SimTime::ZERO,
            timers: Vec::new(),
            actor: None,
            respawn: None,
            queue: BinaryHeap::new(),
            emitted: 0,
            rng,
            streams: StreamBook::new(),
            wires: WireBook::new(),
            stats: NetStats::default(),
            events_processed: 0,
            digest: FNV_OFFSET,
            now: SimTime::ZERO,
            outbox: Vec::new(),
            ops: Vec::new(),
            v2_pending: BTreeMap::new(),
            v2_enc: BTreeMap::new(),
            v2_dec: BTreeMap::new(),
            trace: None,
        }
    }

    fn next_ctr(&mut self) -> u64 {
        let ctr = self.emitted;
        assert!(ctr < MAX_EMITTED, "emission counter overflows the event key");
        self.emitted += 1;
        ctr
    }

    /// Keys an event this LP (or the harness, on its behalf) created.
    fn keyed(&mut self, at: SimTime, ev: LpEvent) -> Queued {
        let seq = (self.id.0 as u64) << 40 | self.next_ctr();
        Queued { at, seq, ev }
    }

    /// The key of this LP's next event.
    fn head_key(&self) -> Option<Key> {
        self.queue.peek().map(Queued::key)
    }

    /// Emits an event for this LP itself.
    fn enqueue(&mut self, at: SimTime, ev: LpEvent) {
        let q = self.keyed(at, ev);
        self.outbox.push((self.id.0, q));
    }

    /// Emits a delivery. One to another LP arrives no sooner than one
    /// lookahead from now; self-sends never cross an LP boundary, which
    /// is why the loopback spec is excluded from the lookahead.
    fn route(&mut self, at: SimTime, to: NodeId, ev: LpEvent, lookahead: Duration) {
        let at = if to == self.id { at } else { at.max(self.now + lookahead) };
        let q = self.keyed(at, ev);
        self.outbox.push((to.0, q));
    }

    /// Schedules a global operation one lookahead from now.
    fn push_op(&mut self, op: GlobalOp, lookahead: Duration) {
        let key = (self.now + lookahead, self.id.0, self.next_ctr());
        self.ops.push((key, op));
    }

    /// Bumps (or creates at 1) the token's generation; returns it.
    fn arm_timer(&mut self, token: u64) -> u64 {
        for slot in &mut self.timers {
            if slot.0 == token {
                slot.1 += 1;
                return slot.1;
            }
        }
        self.timers.push((token, 1));
        1
    }

    /// Invalidates any in-flight firing of `token`.
    fn cancel_timer(&mut self, token: u64) {
        for slot in &mut self.timers {
            if slot.0 == token {
                slot.1 += 1;
                return;
            }
        }
    }

    fn timer_live(&self, token: u64, generation: u64) -> bool {
        self.timers.iter().any(|&(t, g)| t == token && g == generation)
    }

    /// Runs this LP's events strictly below `horizon`. Within an epoch
    /// the LP is causally closed: nothing another LP does this epoch can
    /// reach it before `horizon`.
    fn process_until(&mut self, horizon: SimTime, env: Env<'_>) {
        while self.queue.peek().is_some_and(|top| top.at < horizon) {
            let ev = self.queue.pop().expect("peeked");
            let mark = self.outbox.len();
            self.handle(ev, env);
            // Events for this LP itself may fall inside the epoch: queue
            // them now. The rest wait for the barrier.
            let mut i = mark;
            while i < self.outbox.len() {
                if self.outbox[i].0 == self.id.0 {
                    let (_, q) = self.outbox.swap_remove(i);
                    self.queue.push(q);
                } else {
                    i += 1;
                }
            }
        }
    }

    /// Runs one event, then flushes the v2 sends its dispatch queued.
    fn handle(&mut self, q: Queued, env: Env<'_>) {
        debug_assert!(q.at >= self.now, "time went backwards");
        self.now = q.at;
        // A stalled node is frozen mid-world: everything addressed to it
        // is parked until the stall ends, then replayed in arrival order
        // (fresh keys preserve relative order). Deferral is not
        // "processing", so the event counter is untouched.
        if q.ev.defers_under_stall() && self.stalled_until > q.at {
            let until = self.stalled_until;
            self.enqueue(until, q.ev);
            return;
        }
        self.events_processed += 1;
        digest_event(&mut self.digest, q.at, &q.ev);
        self.process(q.ev, env);
        self.flush_v2(env);
    }

    fn process(&mut self, ev: LpEvent, env: Env<'_>) {
        match ev {
            LpEvent::Start => {
                if self.up {
                    self.with_actor(env, |actor, ctx| actor.on_start(ctx));
                }
            }
            LpEvent::ClockSync => {
                self.clock.mark_synced();
                if self.up {
                    self.dispatch(env, Incoming::ClockSynced);
                }
            }
            LpEvent::Timer { token, generation } => {
                if self.up && self.timer_live(token, generation) {
                    self.dispatch(env, Incoming::Timer { token });
                }
            }
            LpEvent::Inject { incoming } => {
                if self.up {
                    self.dispatch(env, incoming);
                }
            }
            LpEvent::Fault { fault } => self.apply_local_fault(fault, env.lookahead),
            LpEvent::Deliver { from, to_port, msg, len, stream } => {
                if !self.up {
                    self.stats.dropped_node_down += 1;
                    return;
                }
                self.stats.bytes_delivered += len as u64;
                self.record(from, to_port, msg.kind(), len, stream);
                if stream {
                    self.stats.stream_delivered += 1;
                    // Accepting the first framed message establishes the
                    // connection server-side too, so replies on the same
                    // port pair skip the setup RTTs (the sender's book
                    // already charged them).
                    self.streams.mark_established(Endpoint::new(self.id, to_port), from);
                    self.dispatch(env, Incoming::Stream { from, to_port, msg });
                } else {
                    self.stats.datagrams_delivered += 1;
                    self.dispatch(env, Incoming::Datagram { from, to_port, msg });
                }
            }
            LpEvent::DeliverSegment { from, to_port, seg, len } => {
                if !self.up {
                    self.stats.dropped_node_down += 1;
                    return;
                }
                let reader = self.v2_dec.entry(from.node).or_default();
                let Ok(frames) = wire_v2::decode_segment(&seg, reader) else {
                    // A bad segment is dropped whole; decode_segment
                    // rolled the symbol table back, so later segments on
                    // the link still decode.
                    self.stats.segment_decode_errors += 1;
                    return;
                };
                self.stats.segments_delivered += 1;
                self.stats.frames_coalesced += frames.len() as u64;
                // Bandwidth was paid once for the whole segment.
                self.stats.bytes_delivered += len as u64;
                self.streams.mark_established(Endpoint::new(self.id, to_port), from);
                for f in frames {
                    self.stats.stream_delivered += 1;
                    self.record(from, to_port, f.msg.kind(), f.encoded_len, true);
                    let mut msg = WireMsg::from_decoded(f.msg, f.ttl, f.hops);
                    msg.set_encoded_len(f.encoded_len);
                    self.dispatch(env, Incoming::Stream { from, to_port, msg });
                }
            }
        }
    }

    /// Counts one delivered message by kind, and traces it if enabled.
    fn record(&mut self, from: Endpoint, to_port: Port, kind: &'static str, bytes: usize, stream: bool) {
        *self.stats.by_kind.entry(kind).or_insert(0) += 1;
        if let Some(trace) = &mut self.trace {
            let to = Endpoint::new(self.id, to_port);
            trace.push(TraceRecord { at: self.now, from, to, kind, bytes, stream });
        }
    }

    /// Node-scoped faults, delivered through this LP's own queue.
    fn apply_local_fault(&mut self, fault: Fault, lookahead: Duration) {
        match fault {
            Fault::Crash { .. } => self.crash_local(lookahead),
            Fault::Restart { lose_state, .. } => {
                if self.up {
                    self.crash_local(lookahead);
                }
                if lose_state {
                    if let Some(factory) = self.respawn.as_mut() {
                        self.actor = Some(factory());
                    }
                }
                self.up = true;
                let now = self.now;
                self.enqueue(now, LpEvent::Start);
            }
            Fault::Stall { dur, .. } => {
                let until = self.now + dur;
                if until > self.stalled_until {
                    self.stalled_until = until;
                }
            }
            Fault::ClockStep { delta_ns, .. } => self.clock.step_ns(delta_ns),
            // Network-scoped faults are global operations and never
            // reach an LP queue.
            _ => {}
        }
    }

    /// Takes the node down and forgets its own connection state now; its
    /// peers forget theirs one lookahead later.
    fn crash_local(&mut self, lookahead: Duration) {
        self.crash_books();
        let id = self.id;
        self.push_op(GlobalOp::ResetPeer(id), lookahead);
    }

    /// Marks the LP down and drops every connection it holds.
    fn crash_books(&mut self) {
        self.up = false;
        // Bump rather than clear: clearing would restart generations at
        // 1 after a revive, letting a pre-crash in-flight firing collide
        // with a freshly armed timer.
        for slot in &mut self.timers {
            slot.1 += 1;
        }
        let id = self.id;
        self.streams.reset_node(id);
        self.wires.reset_node(id);
        // v2 symbol tables live on the stream connections: a revived
        // node renegotiates from empty tables.
        self.v2_enc.clear();
        self.v2_dec.clear();
    }

    /// Forgets this LP's connection state towards a crashed `peer`.
    fn forget_peer(&mut self, peer: NodeId) {
        self.streams.reset_node(peer);
        self.wires.reset_node(peer);
        self.v2_enc.remove(&peer);
        self.v2_dec.remove(&peer);
    }

    fn dispatch(&mut self, env: Env<'_>, incoming: Incoming) {
        self.with_actor(env, |actor, ctx| actor.on_incoming(incoming, ctx));
    }

    fn with_actor(&mut self, env: Env<'_>, f: impl FnOnce(&mut dyn Actor, &mut dyn Context)) {
        let Some(mut actor) = self.actor.take() else {
            return;
        };
        {
            let mut ctx = LpCtx { lp: self, env };
            f(actor.as_mut(), &mut ctx);
        }
        self.actor = Some(actor);
    }

    /// Ends the flush epoch: every link with queued v2 sends gets its
    /// messages encoded against the link's symbol table, packed greedily
    /// into segments under the configured byte/frame budgets, and
    /// scheduled for delivery.
    fn flush_v2(&mut self, env: Env<'_>) {
        if self.v2_pending.is_empty() {
            return;
        }
        let Some(cfg) = env.v2 else {
            // Config removed with sends still queued: nothing sane to
            // encode them against; drop rather than silently fall back.
            self.v2_pending.clear();
            return;
        };
        let base = self.now.as_micros();
        let pending = std::mem::take(&mut self.v2_pending);
        for ((from_port, to), msgs) in pending {
            let from = Endpoint::new(self.id, from_port);
            // Reachability is stable within one flush epoch, so probe it
            // (and sample the first latency) once per link. An
            // unreachable link drops the whole batch *before* any symbol
            // definitions are minted, so the peer never desyncs.
            let Some(first_lat) = env.net.stream_latency(self.id, to.node, &mut self.rng) else {
                let n = msgs.len() as u64;
                self.stats.unreachable += n;
                if env.net.path_blocked(self.id, to.node) {
                    self.stats.unreachable_partitioned += n;
                } else {
                    self.stats.unreachable_no_path += n;
                }
                continue;
            };
            let syms = self.v2_enc.entry(to.node).or_default();
            let mut segments: Vec<Bytes> = Vec::new();
            let mut cur: Vec<Bytes> = Vec::new();
            let mut cur_bytes = 0usize;
            for m in &msgs {
                let frame = wire_v2::encode_v2_frame(m.ttl(), m.hops(), m.message(), base, syms);
                if !cur.is_empty()
                    && (cur.len() >= cfg.max_segment_frames
                        || cur_bytes + frame.len() > cfg.max_segment_bytes)
                {
                    segments.push(wire_v2::build_segment(base, &cur));
                    cur.clear();
                    cur_bytes = 0;
                }
                cur_bytes += frame.len();
                cur.push(frame);
            }
            if !cur.is_empty() {
                segments.push(wire_v2::build_segment(base, &cur));
            }
            let spec = env.net.spec_between(self.id, to.node).expect("stream latency implies a path");
            let mut first_lat = Some(first_lat);
            for seg in segments {
                let lat = match first_lat.take() {
                    Some(lat) => lat,
                    None => env
                        .net
                        .stream_latency(self.id, to.node, &mut self.rng)
                        .expect("reachability is stable within a flush epoch"),
                };
                let len = seg.len();
                self.stats.segments_sent += 1;
                let serialized_at = self.wires.serialize(self.id, to.node, self.now, len, &spec);
                let at = self.streams.delivery_time(from, to, serialized_at, lat);
                let ev = LpEvent::DeliverSegment { from, to_port: to.port, seg, len };
                self.route(at, to.node, ev, env.lookahead);
            }
        }
    }
}

/// Folds one processed event into the LP's running FNV-1a digest, a
/// word at a time. The encoding is positional (tag first, then fields),
/// so distinct event shapes can never collide by concatenation.
fn digest_event(h: &mut u64, at: SimTime, ev: &LpEvent) {
    // Tag in the low byte, sender node and port above it.
    let sender = |tag: u64, from: &Endpoint| tag | (from.node.0 as u64) << 8 | (from.port.0 as u64) << 40;
    mix(h, at.as_nanos());
    match ev {
        LpEvent::Start => mix(h, 1),
        LpEvent::ClockSync => mix(h, 2),
        LpEvent::Timer { token, generation } => {
            mix(h, 3);
            mix(h, *token);
            mix(h, *generation);
        }
        LpEvent::Inject { incoming } => match incoming {
            Incoming::Datagram { from, to_port, msg } | Incoming::Stream { from, to_port, msg } => {
                let stream = matches!(incoming, Incoming::Stream { .. });
                mix(h, sender(4, from));
                mix(h, to_port.0 as u64 | (stream as u64) << 16);
                mix_str(h, msg.kind());
            }
            Incoming::Timer { token } => {
                mix(h, 5);
                mix(h, *token);
            }
            Incoming::ClockSynced => mix(h, 6),
        },
        LpEvent::Fault { fault } => {
            mix(h, 7);
            mix_str(h, &fault.to_string());
        }
        LpEvent::Deliver { from, to_port, msg, len, stream } => {
            mix(h, sender(8, from));
            mix(h, to_port.0 as u64 | (*stream as u64) << 16 | (*len as u64) << 17);
            mix_str(h, msg.kind());
        }
        LpEvent::DeliverSegment { from, to_port, len, .. } => {
            mix(h, sender(9, from));
            mix(h, to_port.0 as u64 | (*len as u64) << 17);
        }
    }
}

struct LpCtx<'a> {
    lp: &'a mut Lp,
    env: Env<'a>,
}

impl LpCtx<'_> {
    /// Sends one datagram. `msg` is shared across a multicast fan-out;
    /// `len` caches the body size so the fan-out serialises at most once
    /// no matter how many recipients the group has.
    fn send_datagram(&mut self, from: Endpoint, to: Endpoint, msg: &WireMsg, len: &mut Option<usize>) {
        let (net, lp) = (self.env.net, &mut *self.lp);
        lp.stats.datagrams_sent += 1;
        // Sends to down nodes still roll the dice and schedule delivery;
        // the up-check happens at delivery time so RNG consumption does
        // not depend on destination state.
        match net.datagram_fate(from.node, to.node, &mut lp.rng) {
            DatagramFate::Unreachable => {
                lp.stats.unreachable += 1;
                if net.path_blocked(from.node, to.node) {
                    lp.stats.unreachable_partitioned += 1;
                } else {
                    lp.stats.unreachable_no_path += 1;
                }
            }
            DatagramFate::Lost => lp.stats.datagrams_lost += 1,
            DatagramFate::Deliver(lat) => {
                // Bandwidth accounting charges the body length (frame
                // minus prelude).
                let len = *len.get_or_insert_with(|| msg.body_len());
                // Serialisation onto the wire (bandwidth model), then the
                // sampled propagation latency.
                let spec = net.spec_between(from.node, to.node).expect("deliverable implies a path");
                let serialized_at = lp.wires.serialize(from.node, to.node, lp.now, len, &spec);
                let mut at = serialized_at + lat;
                let mut duplicate_at = None;
                let f = self.env.pf;
                if f.is_active() {
                    // Fixed roll order (corrupt, reorder, duplicate) so a
                    // given fault window consumes an identical RNG stream
                    // regardless of which probabilities are zero.
                    let extra_ns = f.extra_delay.as_nanos() as u64;
                    if f.corrupt > 0.0 && lp.rng.gen::<f64>() < f.corrupt {
                        // Arrived with a bad checksum: the wire was paid
                        // for, the receiver drops it.
                        lp.stats.datagrams_corrupted += 1;
                        return;
                    }
                    if f.reorder > 0.0 && lp.rng.gen::<f64>() < f.reorder {
                        lp.stats.datagrams_reordered += 1;
                        if extra_ns > 0 {
                            at += Duration::from_nanos(lp.rng.gen_range(0..=extra_ns));
                        }
                    }
                    if f.duplicate > 0.0 && lp.rng.gen::<f64>() < f.duplicate {
                        lp.stats.datagrams_duplicated += 1;
                        let extra = if extra_ns > 0 {
                            Duration::from_nanos(lp.rng.gen_range(0..=extra_ns))
                        } else {
                            Duration::ZERO
                        };
                        duplicate_at = Some(at + extra);
                    }
                }
                let lookahead = self.env.lookahead;
                let deliver = |msg: WireMsg| LpEvent::Deliver {
                    from,
                    to_port: to.port,
                    msg,
                    len,
                    stream: false,
                };
                lp.route(at, to.node, deliver(msg.clone()), lookahead);
                if let Some(dup_at) = duplicate_at {
                    lp.route(dup_at, to.node, deliver(msg.clone()), lookahead);
                }
            }
        }
    }
}

impl Context for LpCtx<'_> {
    fn me(&self) -> NodeId {
        self.lp.id
    }

    fn realm(&self) -> RealmId {
        self.lp.realm
    }

    fn now(&self) -> SimTime {
        self.lp.now
    }

    fn utc_micros(&self) -> u64 {
        self.lp.clock.utc_micros(self.lp.now)
    }

    fn clock_synced(&self) -> bool {
        self.lp.clock.synced
    }

    fn raw_local_micros(&self) -> u64 {
        self.lp.clock.raw_local_micros(self.lp.now)
    }

    fn set_clock_estimate_ns(&mut self, est_offset_ns: i64) {
        self.lp.clock.set_estimate_ns(est_offset_ns);
    }

    fn send_udp(&mut self, from_port: Port, to: Endpoint, msg: &Message) {
        let wire = WireMsg::new(msg.clone());
        self.send_udp_wire(from_port, to, &wire);
    }

    fn send_stream(&mut self, from_port: Port, to: Endpoint, msg: &Message) {
        let wire = WireMsg::new(msg.clone());
        self.send_stream_wire(from_port, to, &wire);
    }

    fn send_udp_wire(&mut self, from_port: Port, to: Endpoint, msg: &WireMsg) {
        let from = Endpoint::new(self.lp.id, from_port);
        let mut len = None;
        self.send_datagram(from, to, msg, &mut len);
    }

    fn send_stream_wire(&mut self, from_port: Port, to: Endpoint, msg: &WireMsg) {
        let (net, lp) = (self.env.net, &mut *self.lp);
        let from = Endpoint::new(lp.id, from_port);
        let Some(lat) = net.stream_latency(from.node, to.node, &mut lp.rng) else {
            lp.stats.unreachable += 1;
            return;
        };
        let len = msg.body_len();
        let spec = net.spec_between(from.node, to.node).expect("stream latency implies a path");
        let serialized_at = lp.wires.serialize(from.node, to.node, lp.now, len, &spec);
        let at = lp.streams.delivery_time(from, to, serialized_at, lat);
        let ev = LpEvent::Deliver { from, to_port: to.port, msg: msg.clone(), len, stream: true };
        lp.route(at, to.node, ev, self.env.lookahead);
    }

    fn send_stream_v2(&mut self, from_port: Port, to: Endpoint, msg: &WireMsg) {
        if self.env.v2.is_none() {
            // v2 not installed: identical to the v1 stream path, down to
            // the RNG draws.
            self.send_stream_wire(from_port, to, msg);
            return;
        }
        self.lp.v2_pending.entry((from_port, to)).or_default().push(msg.clone());
    }

    fn send_multicast(&mut self, from_port: Port, group: GroupId, to_port: Port, msg: &Message) {
        let from = Endpoint::new(self.lp.id, from_port);
        let recipients = self.env.net.multicast_recipients(group, self.lp.id);
        // One shared handle and at most one serialisation for the whole
        // fan-out, however many members the group has.
        let wire = WireMsg::new(msg.clone());
        let mut len = None;
        for r in recipients {
            let to = Endpoint::new(r, to_port);
            self.send_datagram(from, to, &wire, &mut len);
        }
    }

    fn join_group(&mut self, group: GroupId) {
        let id = self.lp.id;
        self.lp.push_op(GlobalOp::Join(id, group), self.env.lookahead);
    }

    fn leave_group(&mut self, group: GroupId) {
        let id = self.lp.id;
        self.lp.push_op(GlobalOp::Leave(id, group), self.env.lookahead);
    }

    fn set_timer(&mut self, delay: Duration, token: u64) {
        let generation = self.lp.arm_timer(token);
        let at = self.lp.now + delay;
        self.lp.enqueue(at, LpEvent::Timer { token, generation });
    }

    fn cancel_timer(&mut self, token: u64) {
        self.lp.cancel_timer(token);
    }

    fn rng(&mut self) -> &mut dyn RngCore {
        &mut self.lp.rng
    }
}

/// One epoch's worth of work handed to a worker: the LPs of one group,
/// an immutable network snapshot and the horizon. Ownership-passing:
/// nothing here is shared mutably across threads.
struct EpochTask {
    gidx: usize,
    lps: Vec<Lp>,
    /// Slots (within `lps`) that actually have events this epoch; the
    /// worker touches only these, so a mostly-idle group costs O(active)
    /// rather than O(group).
    active_slots: Vec<usize>,
    net: Arc<NetworkModel>,
    pf: PacketFaults,
    v2: Option<WireV2Config>,
    lookahead: Duration,
    horizon: SimTime,
}

/// The LPs with pending events, in a binary min-heap on their head
/// event's key. Each such LP has exactly one entry, and `pos` finds it,
/// so a head that changes is re-keyed in place.
#[derive(Default)]
struct Heads {
    heap: Vec<(Key, u32)>,
    /// `pos[node]`: the node's index in `heap`, or `ABSENT`.
    pos: Vec<u32>,
    /// Scratch stack for [`Heads::below`].
    walk: Vec<usize>,
}

const ABSENT: u32 = u32::MAX;

impl Heads {
    /// The LP with the smallest head key, and that key.
    fn first(&self) -> Option<(Key, u32)> {
        self.heap.first().copied()
    }

    /// Sets `node`'s head key to `key` (`None`: no pending event).
    fn set(&mut self, node: u32, key: Option<Key>) {
        let n = node as usize;
        if self.pos.len() <= n {
            self.pos.resize(n + 1, ABSENT);
        }
        let at = self.pos[n];
        match (key, at) {
            (None, ABSENT) => {}
            (None, at) => {
                self.pos[n] = ABSENT;
                let last = self.heap.pop().expect("indexed node");
                if (at as usize) < self.heap.len() {
                    self.place(at as usize, last);
                }
            }
            (Some(key), ABSENT) => {
                self.heap.push((key, node));
                self.place(self.heap.len() - 1, (key, node));
            }
            (Some(key), at) => self.place(at as usize, (key, node)),
        }
    }

    /// Puts `entry` at index `i` and restores the heap order around it.
    fn place(&mut self, mut i: usize, entry: (Key, u32)) {
        while i > 0 && self.heap[(i - 1) / 2].0 > entry.0 {
            self.move_to(i, self.heap[(i - 1) / 2]);
            i = (i - 1) / 2;
        }
        loop {
            let left = 2 * i + 1;
            let right = left + 1;
            let child = if right < self.heap.len() && self.heap[right].0 < self.heap[left].0 { right } else { left };
            if child >= self.heap.len() || entry.0 <= self.heap[child].0 {
                break;
            }
            self.move_to(i, self.heap[child]);
            i = child;
        }
        self.move_to(i, entry);
    }

    fn move_to(&mut self, i: usize, entry: (Key, u32)) {
        self.heap[i] = entry;
        self.pos[entry.1 as usize] = i as u32;
    }

    /// Appends every node whose head key is below `bound` to `out`: a
    /// walk of the heap that stops at the first entry not below it on
    /// each path, so it costs O(nodes found).
    fn below(&mut self, bound: Key, out: &mut Vec<u32>) {
        self.walk.clear();
        self.walk.push(0);
        while let Some(i) = self.walk.pop() {
            if i < self.heap.len() && self.heap[i].0 < bound {
                out.push(self.heap[i].1);
                self.walk.push(2 * i + 1);
                self.walk.push(2 * i + 2);
            }
        }
    }
}

/// Queues `q` on `lp`, re-keying the LP if `q` becomes its head.
fn push_event(lp: &mut Lp, q: Queued, heads: &mut Heads) {
    let key = q.key();
    if lp.head_key().is_none_or(|head| key < head) {
        heads.set(lp.id.0, Some(key));
    }
    lp.queue.push(q);
}

/// The simulator: virtual time, logical processes, network.
pub struct ShardedSim {
    seed: u64,
    now: SimTime,
    lps: Vec<Lp>,
    network: Arc<NetworkModel>,
    clock_profile: ClockProfile,
    packet_faults: PacketFaults,
    /// The opt-in v2 compact stream codec; `None` (the default) keeps
    /// every send on the v1 path and rolls no extra RNG.
    wire_v2: Option<WireV2Config>,
    tracing: bool,
    /// Scheduled global operations in key order.
    global: BTreeMap<OpKey, GlobalOp>,
    gseq: u64,
    /// The index over the LP queues, which hold every pending event.
    heads: Heads,
    workers: usize,
    shards: Option<usize>,
    /// Cached [`NetworkModel::min_cross_node_latency`] (≥ 1 ns); dropped
    /// whenever the model is handed out mutably.
    lookahead: Option<Duration>,
    /// Cached shard plan for the multi-worker loop, with the node and
    /// shard counts it was computed for.
    plan: Option<(usize, usize, ShardPlan)>,
}

impl ShardedSim {
    /// A simulator with the given RNG root seed and the paper's clock
    /// profile. Defaults to one worker: parallelism is opt-in.
    pub fn new(seed: u64) -> ShardedSim {
        ShardedSim::with_clock_profile(seed, ClockProfile::paper())
    }

    /// A simulator whose nodes all use `profile` for their clocks.
    pub fn with_clock_profile(seed: u64, profile: ClockProfile) -> ShardedSim {
        ShardedSim {
            seed,
            now: SimTime::ZERO,
            lps: Vec::new(),
            network: Arc::new(NetworkModel::new()),
            clock_profile: profile,
            packet_faults: PacketFaults::none(),
            wire_v2: None,
            tracing: false,
            global: BTreeMap::new(),
            gseq: 0,
            heads: Heads::default(),
            workers: 1,
            shards: None,
            lookahead: None,
            plan: None,
        }
    }

    /// Sets the worker-thread count (≥ 1). Results are identical for
    /// every value; only wall time changes.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// Pins the executor-group count independently of the worker count
    /// (by default one group per worker). Results are identical for
    /// every value.
    pub fn set_shards(&mut self, shards: usize) {
        self.shards = Some(shards.max(1));
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Aggregated traffic counters, folded over LPs in node order.
    pub fn stats(&self) -> NetStats {
        let mut total = NetStats::default();
        for lp in &self.lps {
            total.merge(&lp.stats);
        }
        total
    }

    /// Events processed since construction, summed over LPs.
    pub fn events_processed(&self) -> u64 {
        self.lps.iter().map(|lp| lp.events_processed).sum()
    }

    /// The run digest: an FNV-1a fold, in node order, of every LP's
    /// event-stream digest and event count. Byte-identical across
    /// worker and shard counts; the determinism gate in
    /// `tools/bench.sh shards` compares exactly this value.
    pub fn digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for lp in &self.lps {
            mix(&mut h, lp.id.0 as u64);
            mix(&mut h, lp.events_processed);
            mix(&mut h, lp.digest);
        }
        h
    }

    /// Starts recording every delivered message (see [`TraceRecord`]).
    pub fn enable_trace(&mut self) {
        self.tracing = true;
        for lp in &mut self.lps {
            lp.trace.get_or_insert_with(Vec::new);
        }
    }

    /// Takes the recorded trace, leaving recording enabled. Each LP
    /// records its own deliveries; they merge in (time, receiving node)
    /// order, each LP's records keeping their delivery order.
    pub fn take_trace(&mut self) -> Vec<TraceRecord> {
        let mut all: Vec<TraceRecord> = Vec::new();
        for lp in &mut self.lps {
            if let Some(t) = &mut lp.trace {
                all.append(t);
            }
        }
        all.sort_by_key(|r| (r.at, r.to.node));
        all
    }

    /// The static network model (latencies, partitions, groups).
    /// Handing out the mutable borrow drops the cached lookahead and
    /// shard plan: the caller may be about to change what they are
    /// derived from.
    pub fn network_mut(&mut self) -> &mut NetworkModel {
        self.lookahead = None;
        self.plan = None;
        Arc::make_mut(&mut self.network)
    }

    /// Read-only network model.
    pub fn network(&self) -> &NetworkModel {
        &self.network
    }

    /// Adds a node running `actor` in `realm`. Its `on_start` runs at
    /// the current virtual time; its clock follows the simulator's
    /// profile.
    pub fn add_node(&mut self, name: &str, realm: RealmId, actor: Box<dyn Actor>) -> NodeId {
        let profile = self.clock_profile;
        self.add_node_with_clock(name, realm, profile, actor)
    }

    /// Adds a node with an explicit clock profile. The node's clock is
    /// sampled from its *own* RNG stream (first draws), so it is a pure
    /// function of (seed, node id).
    pub fn add_node_with_clock(
        &mut self,
        name: &str,
        realm: RealmId,
        profile: ClockProfile,
        actor: Box<dyn Actor>,
    ) -> NodeId {
        assert!(self.lps.len() < MAX_NODES, "node id overflows the event key");
        let id = NodeId(self.lps.len() as u32);
        let mut rng = StdRng::seed_from_u64(node_seed(self.seed, id));
        let clock = profile.sample(self.now, &mut rng);
        let sync_at = clock.sync_at;
        Arc::make_mut(&mut self.network).register_node(id, realm);
        let mut lp = Lp::new(id, name, realm, clock, rng);
        lp.now = self.now;
        lp.actor = Some(actor);
        if self.tracing {
            lp.trace = Some(Vec::new());
        }
        for (at, ev) in [(self.now, LpEvent::Start), (sync_at, LpEvent::ClockSync)] {
            let q = lp.keyed(at, ev);
            lp.queue.push(q);
        }
        self.heads.set(id.0, lp.head_key());
        self.lps.push(lp);
        id
    }

    /// Queues a harness-created event on `node`'s LP.
    fn enqueue(&mut self, node: NodeId, at: SimTime, ev: LpEvent) {
        if let Some(lp) = self.lps.get_mut(node.0 as usize) {
            let q = lp.keyed(at, ev);
            push_event(lp, q, &mut self.heads);
        }
    }

    /// Human-readable node name.
    pub fn node_name(&self, node: NodeId) -> &str {
        self.lps.get(node.0 as usize).map_or("?", |lp| lp.name.as_str())
    }

    /// The node's UTC estimate right now (what its protocol code sees).
    pub fn utc_of(&self, node: NodeId) -> Option<u64> {
        self.lps.get(node.0 as usize).map(|lp| lp.clock.utc_micros(self.now))
    }

    /// Immutable access to a node's actor, downcast to `T`.
    pub fn actor<T: 'static>(&self, node: NodeId) -> Option<&T> {
        self.lps.get(node.0 as usize)?.actor.as_ref()?.as_any().downcast_ref::<T>()
    }

    /// Mutable access to a node's actor, downcast to `T`.
    pub fn actor_mut<T: 'static>(&mut self, node: NodeId) -> Option<&mut T> {
        self.lps.get_mut(node.0 as usize)?.actor.as_mut()?.as_any_mut().downcast_mut::<T>()
    }

    /// Whether the node is currently up.
    pub fn is_up(&self, node: NodeId) -> bool {
        self.lps.get(node.0 as usize).is_some_and(|lp| lp.up)
    }

    /// Marks a node down at once (harness time): queued and future
    /// deliveries and timers are dropped until [`ShardedSim::revive`],
    /// and every stream connection involving it is reset on both ends.
    pub fn crash(&mut self, node: NodeId) {
        for lp in &mut self.lps {
            if lp.id == node {
                lp.crash_books();
            } else {
                lp.forget_peer(node);
            }
        }
    }

    /// Revives a crashed node and re-runs its `on_start`.
    pub fn revive(&mut self, node: NodeId) {
        if let Some(lp) = self.lps.get_mut(node.0 as usize) {
            lp.up = true;
        }
        let now = self.now;
        self.enqueue(node, now, LpEvent::Start);
    }

    /// Registers the factory that rebuilds `node`'s actor when it is
    /// restarted with state loss.
    pub fn set_respawn(&mut self, node: NodeId, factory: ShardRespawnFn) {
        if let Some(lp) = self.lps.get_mut(node.0 as usize) {
            lp.respawn = Some(factory);
        }
    }

    /// Restarts a node: crash (if still up) then revive. With
    /// `lose_state` the actor is replaced by a fresh instance from the
    /// node's respawn factory first: registries, caches and all other
    /// volatile actor state are lost, modelling a process restart rather
    /// than a network blip. Without a registered factory the restart
    /// degrades to a state-preserving revive. The node keeps its
    /// identity, realm and hardware clock either way.
    pub fn restart(&mut self, node: NodeId, lose_state: bool) {
        if self.is_up(node) {
            self.crash(node);
        }
        if lose_state {
            if let Some(lp) = self.lps.get_mut(node.0 as usize) {
                if let Some(factory) = lp.respawn.as_mut() {
                    lp.actor = Some(factory());
                }
            }
        }
        self.revive(node);
    }

    /// Queues every fault in `plan`, offset from the current virtual
    /// time. Node-scoped faults land in the owning node's queue;
    /// network-scoped ones become global operations. A plan plus a seed
    /// fully determines the run.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        for ev in plan.events() {
            let at = self.now + ev.at;
            self.schedule_fault_at(at, ev.fault.clone());
        }
    }

    /// Queues a single fault after `delay`.
    pub fn schedule_fault(&mut self, delay: Duration, fault: Fault) {
        let at = self.now + delay;
        self.schedule_fault_at(at, fault);
    }

    fn schedule_fault_at(&mut self, at: SimTime, fault: Fault) {
        match fault {
            Fault::Crash { node }
            | Fault::Restart { node, .. }
            | Fault::Stall { node, .. }
            | Fault::ClockStep { node, .. } => self.enqueue(node, at, LpEvent::Fault { fault }),
            _ => {
                self.global.insert((at, HARNESS, self.gseq), GlobalOp::Fault(fault));
                self.gseq += 1;
            }
        }
    }

    /// Sets the per-datagram fault probabilities immediately (plans do
    /// this via [`Fault::SetPacketFaults`]).
    pub fn set_packet_faults(&mut self, faults: PacketFaults) {
        self.packet_faults = faults;
    }

    /// Enables or disables multicast delivery network-wide (see
    /// [`NetworkModel::multicast_enabled`]).
    pub fn set_multicast_enabled(&mut self, enabled: bool) {
        Arc::make_mut(&mut self.network).multicast_enabled = enabled;
    }

    /// Installs (or removes) the opt-in v2 compact stream codec. With
    /// `None`, the default, [`Context::send_stream_v2`] degrades to the
    /// v1 per-message path and no extra RNG is drawn.
    pub fn set_wire_v2(&mut self, cfg: Option<WireV2Config>) {
        self.wire_v2 = cfg;
    }

    /// Whether the v2 compact stream codec is installed.
    pub fn wire_v2_enabled(&self) -> bool {
        self.wire_v2.is_some()
    }

    /// Queues an [`Incoming`] for delivery to `node` after `delay`
    /// (harness-driven stimulus, e.g. kicking off a discovery).
    pub fn inject(&mut self, node: NodeId, delay: Duration, incoming: Incoming) {
        let at = self.now + delay;
        self.enqueue(node, at, LpEvent::Inject { incoming });
    }

    /// Runs for `d` of virtual time.
    pub fn run_for(&mut self, d: Duration) {
        let deadline = self.now + d;
        self.run_until(deadline);
    }

    /// Runs until virtual time reaches `deadline`, processing every
    /// event scheduled at or before it.
    pub fn run_until(&mut self, deadline: SimTime) {
        let lookahead = *self
            .lookahead
            .get_or_insert_with(|| self.network.min_cross_node_latency().max(Duration::from_nanos(1)));
        let n = self.lps.len();
        let shard_count = self.shards.unwrap_or(self.workers).clamp(1, n.max(1));
        if self.workers == 1 || shard_count == 1 {
            self.run_serial(deadline, lookahead);
        } else {
            if !self.plan.as_ref().is_some_and(|p| p.0 == n && p.1 == shard_count) {
                self.plan = Some((n, shard_count, ShardPlan::partition(&self.network, n, shard_count)));
            }
            let plan = self.plan.as_ref().expect("just ensured").2.clone();
            let workers = self.workers.min(plan.shards);
            self.run_epochs(deadline, lookahead, &plan, workers);
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Pops the due global operation, if one is at or before both
    /// `deadline` and the next event `next`.
    fn due_op(&mut self, next: Option<SimTime>, deadline: SimTime) -> Option<GlobalOp> {
        let (&(at, _, _), _) = self.global.first_key_value()?;
        if at > deadline || next.is_some_and(|t| at > t) {
            return None;
        }
        self.now = self.now.max(at);
        self.global.pop_first().map(|(_, op)| op)
    }

    /// The one-worker loop: always run the LP whose head event has the
    /// smallest key. What it emits goes straight into the LP queues, and
    /// global operations run as soon as their time comes up.
    fn run_serial(&mut self, deadline: SimTime, lookahead: Duration) {
        loop {
            let next = self.heads.first();
            let next_at = next.map(|(key, _)| key_time(key));
            if let Some(op) = self.due_op(next_at, deadline) {
                apply_op(&mut self.network, &mut self.packet_faults, op, self.lps.iter_mut());
                continue;
            }
            let (Some((_, node)), Some(at)) = (next, next_at.filter(|&t| t <= deadline)) else {
                break;
            };
            self.now = at;
            let env = Env {
                net: &self.network,
                pf: self.packet_faults,
                v2: self.wire_v2,
                lookahead,
            };
            let lp = &mut self.lps[node as usize];
            let q = lp.queue.pop().expect("indexed head");
            lp.handle(q, env);
            self.heads.set(node, lp.head_key());
            if !lp.ops.is_empty() {
                self.global.extend(lp.ops.drain(..));
            }
            if !lp.outbox.is_empty() {
                let mut outbox = std::mem::take(&mut lp.outbox);
                for (to, q) in outbox.drain(..) {
                    push_event(&mut self.lps[to as usize], q, &mut self.heads);
                }
                self.lps[node as usize].outbox = outbox;
            }
        }
    }

    /// The multi-worker epoch loop. Whole LP groups travel through
    /// channels: a worker owns the group for the duration of one epoch
    /// and hands it back, so there is no shared mutable state at all;
    /// the coordinator is the only thread alive at every barrier.
    fn run_epochs(&mut self, deadline: SimTime, lookahead: Duration, plan: &ShardPlan, workers: usize) {
        let n = self.lps.len();
        // Deal the LPs out to their executor groups. `index[node]` maps
        // back to `(group, slot)`.
        let mut groups: Vec<Vec<Lp>> = (0..plan.shards).map(|_| Vec::new()).collect();
        let mut index = vec![(0usize, 0usize); n];
        for (node, lp) in self.lps.drain(..).enumerate() {
            let g = plan.assignment[node];
            index[node] = (g, groups[g].len());
            groups[g].push(lp);
        }
        let mut heads = std::mem::take(&mut self.heads);
        let mut active: Vec<u32> = Vec::new();
        let (task_tx, task_rx) = channel::unbounded::<EpochTask>();
        let (result_tx, result_rx) = channel::unbounded::<(usize, Vec<Lp>, Vec<usize>)>();
        // Per-group active-slot buckets, reused across epochs.
        let mut group_slots: Vec<Vec<usize>> = (0..groups.len()).map(|_| Vec::new()).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let task_rx = task_rx.clone();
                let result_tx = result_tx.clone();
                scope.spawn(move || {
                    while let Ok(mut task) = task_rx.recv() {
                        let env = Env {
                            net: &task.net,
                            pf: task.pf,
                            v2: task.v2,
                            lookahead: task.lookahead,
                        };
                        for &slot in &task.active_slots {
                            task.lps[slot].process_until(task.horizon, env);
                        }
                        if result_tx.send((task.gidx, task.lps, task.active_slots)).is_err() {
                            break;
                        }
                    }
                });
            }
            loop {
                let Some(horizon) = self.next_epoch(&mut groups, &mut heads, deadline, lookahead, &mut active)
                else {
                    break;
                };
                for &node in &active {
                    let (g, s) = index[node as usize];
                    group_slots[g].push(s);
                }
                let mut outstanding = 0usize;
                for (gidx, slots) in group_slots.iter_mut().enumerate() {
                    if slots.is_empty() {
                        continue;
                    }
                    let sent = task_tx.send(EpochTask {
                        gidx,
                        lps: std::mem::take(&mut groups[gidx]),
                        active_slots: std::mem::take(slots),
                        net: Arc::clone(&self.network),
                        pf: self.packet_faults,
                        v2: self.wire_v2,
                        lookahead,
                        horizon,
                    });
                    assert!(sent.is_ok(), "workers outlive the epoch loop");
                    outstanding += 1;
                }
                for _ in 0..outstanding {
                    let (gidx, lps, slots) = result_rx.recv().expect("worker returns its group");
                    groups[gidx] = lps;
                    for slot in slots {
                        let lp = &groups[gidx][slot];
                        heads.set(lp.id.0, lp.head_key());
                    }
                }
                self.barrier(&mut groups, &index, &active, &mut heads);
                let reached = horizon.min(deadline);
                if self.now < reached {
                    self.now = reached;
                }
            }
            drop(task_tx);
        });
        // Put the LPs back in node order.
        self.heads = heads;
        let mut slots: Vec<Option<Lp>> = (0..n).map(|_| None).collect();
        for lp in groups.into_iter().flatten() {
            let i = lp.id.0 as usize;
            slots[i] = Some(lp);
        }
        self.lps = slots.into_iter().map(|s| s.expect("every LP returns")).collect();
    }

    /// Finds the next epoch's horizon *and* its active set (the sorted
    /// node ids whose head event lies below the horizon), applying due
    /// global operations first. Returns `None` when nothing remains at
    /// or before `deadline`.
    ///
    /// Safety sketch: let `m` be the earliest pending event anywhere
    /// and `L` the lookahead. Any event executing at `t ∈ [m, H)` with
    /// `H = m + L` can only schedule a cross-LP delivery or a global
    /// operation at `t + L ≥ H`, so nothing the epoch produces lands
    /// inside it. The horizon additionally never crosses the next global
    /// operation nor `deadline` (events *at* the deadline run, hence the
    /// +1 ns).
    fn next_epoch(
        &mut self,
        groups: &mut [Vec<Lp>],
        heads: &mut Heads,
        deadline: SimTime,
        lookahead: Duration,
        active: &mut Vec<u32>,
    ) -> Option<SimTime> {
        loop {
            let m = heads.first().map(|(key, _)| key_time(key));
            if let Some(op) = self.due_op(m, deadline) {
                apply_op(&mut self.network, &mut self.packet_faults, op, groups.iter_mut().flatten());
                continue;
            }
            let m = m?;
            if m > deadline {
                return None;
            }
            let mut horizon = (m + lookahead).min(deadline + Duration::from_nanos(1));
            if let Some((&(at, _, _), _)) = self.global.first_key_value() {
                horizon = horizon.min(at);
            }
            active.clear();
            heads.below((horizon.as_nanos() as Key) << 64, active);
            active.sort_unstable();
            return Some(horizon);
        }
    }

    /// The epoch barrier: moves every active LP's outbox into its
    /// destination queues and its global operations into the schedule.
    /// Event keys were fixed at emission, so the walk order does not
    /// matter.
    fn barrier(&mut self, groups: &mut [Vec<Lp>], index: &[(usize, usize)], active: &[u32], heads: &mut Heads) {
        for &node in active {
            let (g, i) = index[node as usize];
            let lp = &mut groups[g][i];
            for (key, op) in lp.ops.drain(..) {
                self.global.insert(key, op);
            }
            for (to, q) in std::mem::take(&mut lp.outbox) {
                let (dg, di) = index[to as usize];
                push_event(&mut groups[dg][di], q, heads);
            }
        }
    }
}

/// Applies a global operation with every LP at rest.
fn apply_op<'a>(
    network: &mut Arc<NetworkModel>,
    packet_faults: &mut PacketFaults,
    op: GlobalOp,
    lps: impl Iterator<Item = &'a mut Lp>,
) {
    match op {
        GlobalOp::Fault(fault) => match fault {
            Fault::Partition { a, b } => Arc::make_mut(network).partition(a, b),
            Fault::Heal { a, b } => Arc::make_mut(network).heal(a, b),
            Fault::PartitionOneWay { from, to } => Arc::make_mut(network).partition_one_way(from, to),
            Fault::HealOneWay { from, to } => Arc::make_mut(network).heal_one_way(from, to),
            Fault::SetPacketFaults { faults } => *packet_faults = faults,
            Fault::ClearPacketFaults => *packet_faults = PacketFaults::none(),
            // Node-scoped faults are routed to LP queues when they are
            // scheduled and never reach here.
            _ => {}
        },
        GlobalOp::Join(node, group) => Arc::make_mut(network).join_group(group, node),
        GlobalOp::Leave(node, group) => Arc::make_mut(network).leave_group(group, node),
        GlobalOp::ResetPeer(node) => {
            for lp in lps {
                if lp.id != node {
                    lp.forget_peer(node);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosProfile, ChaosTargets};
    use crate::impl_actor_any;
    use crate::link::LinkSpec;
    use crate::runtime::IdleActor;
    use nb_wire::addr::well_known;
    use std::collections::HashMap;

    /// Echoes every ping as a pong from the same port.
    #[derive(Default)]
    struct Echo {
        pings_seen: u32,
    }

    impl Actor for Echo {
        fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
            if let Incoming::Datagram { to_port, msg, .. } = event {
                if let Message::Ping { nonce, sent_at, reply_to } = *msg.message() {
                    self.pings_seen += 1;
                    let pong =
                        Message::Pong { nonce, echoed_sent_at: sent_at, responder: ctx.me() };
                    ctx.send_udp(to_port, reply_to, &pong);
                }
            }
        }
        impl_actor_any!();
    }

    /// Sends pings on start, records the pong RTTs by its local clock.
    struct Pinger {
        target: NodeId,
        rtts: Vec<Duration>,
        sent: HashMap<u64, SimTime>,
        timer_fired: u32,
    }

    impl Pinger {
        fn new(target: NodeId) -> Pinger {
            Pinger { target, rtts: Vec::new(), sent: HashMap::new(), timer_fired: 0 }
        }
    }

    impl Actor for Pinger {
        fn on_start(&mut self, ctx: &mut dyn Context) {
            for nonce in 0..5u64 {
                let ping = Message::Ping {
                    nonce,
                    sent_at: ctx.now().as_micros(),
                    reply_to: Endpoint::new(ctx.me(), well_known::PING),
                };
                self.sent.insert(nonce, ctx.now());
                ctx.send_udp(well_known::PING, Endpoint::new(self.target, well_known::PING), &ping);
            }
            ctx.set_timer(Duration::from_secs(1), 7);
        }

        fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
            match event {
                Incoming::Datagram { msg, .. } => {
                    if let Message::Pong { nonce, .. } = msg.message() {
                        let sent = self.sent[nonce];
                        self.rtts.push(ctx.now() - sent);
                    }
                }
                Incoming::Timer { token: 7 } => self.timer_fired += 1,
                _ => {}
            }
        }
        impl_actor_any!();
    }

    fn lossless(sim: &mut ShardedSim) {
        sim.network_mut().local_spec = LinkSpec::local().with_loss(0.0);
        sim.network_mut().intra_realm_spec = LinkSpec::lan().with_loss(0.0);
        sim.network_mut().inter_realm_spec =
            LinkSpec::wan(Duration::from_millis(40)).with_loss(0.0);
    }

    /// A lossless, perfect-clock simulator at `workers` workers and as
    /// many shards: the engine under test at one configuration.
    fn quiet(seed: u64, workers: usize) -> ShardedSim {
        let mut sim = ShardedSim::with_clock_profile(seed, ClockProfile::perfect());
        sim.set_workers(workers);
        sim.set_shards(workers);
        lossless(&mut sim);
        sim
    }

    /// Three echo/pinger pairs spread over three realms, paper clocks,
    /// a light chaos plan: a workload exercising RNG streams, timers,
    /// faults and cross-realm traffic.
    fn mixed_workload(workers: usize, shards: usize) -> (u64, u64, u64) {
        let mut sim = ShardedSim::new(42);
        sim.set_workers(workers);
        sim.set_shards(shards);
        let mut echoes = Vec::new();
        for i in 0..3u32 {
            let echo = sim.add_node(&format!("echo-{i}"), RealmId(0), Box::new(Echo::default()));
            sim.set_respawn(echo, Box::new(|| Box::new(Echo::default())));
            echoes.push(echo);
        }
        let mut pingers = Vec::new();
        for (i, &echo) in echoes.iter().enumerate() {
            let realm = RealmId(1 + (i as u16 % 2));
            let p = sim.add_node(&format!("pinger-{i}"), realm, Box::new(Pinger::new(echo)));
            pingers.push(p);
        }
        let targets = ChaosTargets { bdns: vec![echoes[0]], brokers: echoes[1..].to_vec(), clients: pingers };
        let plan =
            FaultPlan::generate(42, &ChaosProfile::light(), &targets, Duration::from_secs(6));
        sim.apply_fault_plan(&plan);
        sim.run_for(Duration::from_secs(8));
        (sim.digest(), sim.events_processed(), sim.stats().datagrams_delivered)
    }

    #[test]
    fn digest_invariant_across_workers_and_shards() {
        let reference = mixed_workload(1, 1);
        for (workers, shards) in [(1, 2), (2, 2), (4, 4), (1, 4), (4, 2), (3, 3), (2, 6)] {
            assert_eq!(
                mixed_workload(workers, shards),
                reference,
                "diverged at workers={workers} shards={shards}"
            );
        }
    }

    #[test]
    fn ping_pong_rtt_matches_link_latency() {
        for workers in [1, 2] {
            let mut sim = quiet(1, workers);
            let echo = sim.add_node("echo", RealmId(0), Box::new(Echo::default()));
            let pinger = sim.add_node("pinger", RealmId(1), Box::new(Pinger::new(echo)));
            sim.run_for(Duration::from_secs(2));
            let p: &Pinger = sim.actor(pinger).unwrap();
            assert_eq!(p.rtts.len(), 5);
            let spec = sim.network().inter_realm_spec;
            for rtt in &p.rtts {
                assert!(*rtt >= spec.latency * 2, "rtt {rtt:?}");
                assert!(*rtt <= (spec.latency + spec.jitter) * 2, "rtt {rtt:?}");
            }
            assert_eq!(p.timer_fired, 1);
            let e: &Echo = sim.actor(echo).unwrap();
            assert_eq!(e.pings_seen, 5);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut sim = ShardedSim::new(seed);
            let echo = sim.add_node("echo", RealmId(0), Box::new(Echo::default()));
            let pinger = sim.add_node("pinger", RealmId(1), Box::new(Pinger::new(echo)));
            sim.run_for(Duration::from_secs(2));
            let p: &Pinger = sim.actor(pinger).unwrap();
            (p.rtts.clone(), sim.stats().datagrams_delivered)
        };
        assert_eq!(run(99), run(99));
        // and (overwhelmingly likely) different across seeds
        assert_ne!(run(1).0, run(2).0);
    }

    #[test]
    fn crash_drops_traffic_and_revive_restores() {
        for workers in [1, 2] {
            let mut sim = quiet(3, workers);
            let echo = sim.add_node("echo", RealmId(0), Box::new(Echo::default()));
            let pinger = sim.add_node("pinger", RealmId(0), Box::new(Pinger::new(echo)));
            sim.crash(echo);
            assert!(!sim.is_up(echo));
            sim.run_for(Duration::from_secs(2));
            let p: &Pinger = sim.actor(pinger).unwrap();
            assert!(p.rtts.is_empty());
            assert!(sim.stats().dropped_node_down > 0);
            sim.revive(echo);
            assert!(sim.is_up(echo));
            // A fresh pinger run against the revived echo succeeds.
            let pinger2 = sim.add_node("pinger2", RealmId(0), Box::new(Pinger::new(echo)));
            sim.run_for(Duration::from_secs(2));
            let p2: &Pinger = sim.actor(pinger2).unwrap();
            assert_eq!(p2.rtts.len(), 5);
        }
    }

    #[test]
    fn cancelled_timers_do_not_fire() {
        struct Canceller {
            fired: bool,
        }
        impl Actor for Canceller {
            fn on_start(&mut self, ctx: &mut dyn Context) {
                ctx.set_timer(Duration::from_millis(100), 1);
                ctx.cancel_timer(1);
                ctx.set_timer(Duration::from_millis(50), 2);
            }
            fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
                match event {
                    Incoming::Timer { token: 1 } => self.fired = true,
                    Incoming::Timer { token: 2 } => {
                        // re-arm then cancel again: still must not fire
                        ctx.set_timer(Duration::from_millis(10), 1);
                        ctx.cancel_timer(1);
                    }
                    _ => {}
                }
            }
            impl_actor_any!();
        }
        let mut sim = ShardedSim::new(5);
        let n = sim.add_node("c", RealmId(0), Box::new(Canceller { fired: false }));
        sim.run_for(Duration::from_secs(1));
        assert!(!sim.actor::<Canceller>(n).unwrap().fired);
    }

    #[test]
    fn rearming_timer_replaces_previous() {
        struct Rearm {
            fire_times: Vec<SimTime>,
        }
        impl Actor for Rearm {
            fn on_start(&mut self, ctx: &mut dyn Context) {
                ctx.set_timer(Duration::from_millis(100), 9);
                ctx.set_timer(Duration::from_millis(200), 9); // replaces
            }
            fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
                if let Incoming::Timer { token: 9 } = event {
                    self.fire_times.push(ctx.now());
                }
            }
            impl_actor_any!();
        }
        let mut sim = ShardedSim::new(5);
        let n = sim.add_node("r", RealmId(0), Box::new(Rearm { fire_times: vec![] }));
        sim.run_for(Duration::from_secs(1));
        let a: &Rearm = sim.actor(n).unwrap();
        assert_eq!(a.fire_times.len(), 1);
        assert_eq!(a.fire_times[0].as_millis(), 200);
    }

    #[test]
    fn clock_sync_event_delivered_and_utc_tightens() {
        struct SyncWatcher {
            synced_at: Option<SimTime>,
            err_after_us: Option<i64>,
        }
        impl Actor for SyncWatcher {
            fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
                if let Incoming::ClockSynced = event {
                    self.synced_at = Some(ctx.now());
                    self.err_after_us =
                        Some(ctx.utc_micros() as i64 - crate::time::true_utc_micros(ctx.now()) as i64);
                }
            }
            impl_actor_any!();
        }
        let mut sim = ShardedSim::new(17);
        let n = sim.add_node("w", RealmId(0), Box::new(SyncWatcher { synced_at: None, err_after_us: None }));
        sim.run_for(Duration::from_secs(6));
        let w: &SyncWatcher = sim.actor(n).unwrap();
        let ms = w.synced_at.expect("sync event").as_millis();
        assert!((3000..=5000).contains(&ms), "synced at {ms}ms");
        let after = w.err_after_us.unwrap().unsigned_abs();
        assert!((1_000..=20_000).contains(&after), "post-sync error {after}µs");
    }

    #[test]
    fn run_until_advances_time_even_when_idle() {
        let mut sim = ShardedSim::new(0);
        sim.add_node("idle", RealmId(0), Box::new(IdleActor));
        sim.run_until(SimTime::from_secs(30));
        assert_eq!(sim.now(), SimTime::from_secs(30));
    }

    #[test]
    fn stats_track_kinds() {
        let mut sim = quiet(1, 1);
        let echo = sim.add_node("echo", RealmId(0), Box::new(Echo::default()));
        sim.add_node("pinger", RealmId(0), Box::new(Pinger::new(echo)));
        sim.run_for(Duration::from_secs(2));
        assert_eq!(sim.stats().by_kind["ping"], 5);
        assert_eq!(sim.stats().by_kind["pong"], 5);
        assert!(sim.stats().bytes_delivered > 0);
    }

    #[test]
    fn events_processed_counts_every_event() {
        let mut sim = quiet(1, 1);
        let echo = sim.add_node("echo", RealmId(0), Box::new(Echo::default()));
        sim.add_node("pinger", RealmId(0), Box::new(Pinger::new(echo)));
        assert_eq!(sim.events_processed(), 0);
        sim.run_for(Duration::from_secs(2));
        // 2 starts + 2 clock syncs + 5 pings + 5 pongs + 1 timer.
        assert_eq!(sim.events_processed(), 15);
    }

    #[test]
    fn lossy_restart_rebuilds_actor_from_respawn_factory() {
        for workers in [1, 2] {
            let mut sim = quiet(9, workers);
            let echo = sim.add_node("echo", RealmId(0), Box::new(Echo::default()));
            sim.set_respawn(echo, Box::new(|| Box::new(Echo::default())));
            sim.add_node("pinger", RealmId(0), Box::new(Pinger::new(echo)));
            sim.run_for(Duration::from_secs(2));
            assert_eq!(sim.actor::<Echo>(echo).unwrap().pings_seen, 5);
            // State-preserving restart keeps the counter...
            sim.restart(echo, false);
            assert_eq!(sim.actor::<Echo>(echo).unwrap().pings_seen, 5);
            // ...a lossy restart wipes it.
            sim.restart(echo, true);
            assert_eq!(sim.actor::<Echo>(echo).unwrap().pings_seen, 0);
            // And the rebuilt actor still serves traffic.
            sim.run_for(Duration::from_secs(1));
            let pinger2 = sim.add_node("pinger2", RealmId(0), Box::new(Pinger::new(echo)));
            sim.run_for(Duration::from_secs(2));
            assert_eq!(sim.actor::<Pinger>(pinger2).unwrap().rtts.len(), 5);
        }
    }

    #[test]
    fn stall_defers_delivery_until_it_ends() {
        for workers in [1, 2] {
            let mut sim = quiet(4, workers);
            let echo = sim.add_node("echo", RealmId(0), Box::new(Echo::default()));
            let pinger = sim.add_node("pinger", RealmId(0), Box::new(Pinger::new(echo)));
            // Freeze the echo node for 3 s starting before the pings land.
            sim.schedule_fault(Duration::ZERO, Fault::Stall { node: echo, dur: Duration::from_secs(3) });
            sim.run_for(Duration::from_secs(1));
            assert_eq!(sim.actor::<Echo>(echo).unwrap().pings_seen, 0, "stalled node is frozen");
            sim.run_for(Duration::from_secs(4));
            let p: &Pinger = sim.actor(pinger).unwrap();
            assert_eq!(sim.actor::<Echo>(echo).unwrap().pings_seen, 5, "deferred events replay");
            assert_eq!(p.rtts.len(), 5);
            for rtt in &p.rtts {
                assert!(*rtt >= Duration::from_secs(3), "replies waited out the stall: {rtt:?}");
            }
        }
    }

    #[test]
    fn packet_duplication_delivers_extra_copies() {
        let mut sim = quiet(6, 1);
        let echo = sim.add_node("echo", RealmId(0), Box::new(Echo::default()));
        sim.add_node("pinger", RealmId(0), Box::new(Pinger::new(echo)));
        sim.set_packet_faults(PacketFaults {
            duplicate: 1.0,
            corrupt: 0.0,
            reorder: 0.0,
            extra_delay: Duration::from_millis(5),
        });
        sim.run_for(Duration::from_secs(2));
        // Every ping arrives twice, so the echo answers 10 pongs (each
        // also duplicated in flight).
        assert_eq!(sim.actor::<Echo>(echo).unwrap().pings_seen, 10);
        assert!(sim.stats().datagrams_duplicated >= 10);
        assert_eq!(sim.stats().datagrams_delivered, sim.stats().datagrams_sent * 2);
    }

    #[test]
    fn packet_corruption_drops_and_counts() {
        let mut sim = quiet(6, 1);
        let echo = sim.add_node("echo", RealmId(0), Box::new(Echo::default()));
        sim.add_node("pinger", RealmId(0), Box::new(Pinger::new(echo)));
        sim.set_packet_faults(PacketFaults {
            duplicate: 0.0,
            corrupt: 1.0,
            reorder: 0.0,
            extra_delay: Duration::ZERO,
        });
        sim.run_for(Duration::from_secs(2));
        assert_eq!(sim.actor::<Echo>(echo).unwrap().pings_seen, 0);
        assert_eq!(sim.stats().datagrams_corrupted, 5);
        assert_eq!(sim.stats().datagrams_delivered, 0);
    }

    #[test]
    fn packet_fault_window_via_global_fault_is_deterministic() {
        let run = |workers: usize| {
            let mut sim = quiet(6, workers);
            sim.set_shards(4);
            let echo = sim.add_node("echo", RealmId(0), Box::new(Echo::default()));
            sim.add_node("pinger", RealmId(1), Box::new(Pinger::new(echo)));
            sim.schedule_fault(
                Duration::ZERO,
                Fault::SetPacketFaults { faults: PacketFaults::unruly() },
            );
            sim.schedule_fault(Duration::from_secs(1), Fault::ClearPacketFaults);
            sim.run_for(Duration::from_secs(3));
            (sim.digest(), sim.events_processed())
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn one_way_partition_blocks_single_direction_and_is_counted() {
        let mut sim = quiet(2, 1);
        let echo = sim.add_node("echo", RealmId(0), Box::new(Echo::default()));
        let pinger = sim.add_node("pinger", RealmId(0), Box::new(Pinger::new(echo)));
        // Block only the reply direction: pings arrive, pongs vanish.
        sim.network_mut().partition_one_way(echo, pinger);
        sim.run_for(Duration::from_secs(2));
        assert_eq!(sim.actor::<Echo>(echo).unwrap().pings_seen, 5);
        assert!(sim.actor::<Pinger>(pinger).unwrap().rtts.is_empty());
        assert_eq!(sim.stats().unreachable_partitioned, 5);
        assert_eq!(sim.stats().unreachable, 5);
        sim.network_mut().heal_one_way(echo, pinger);
        let pinger2 = sim.add_node("pinger2", RealmId(0), Box::new(Pinger::new(echo)));
        sim.run_for(Duration::from_secs(2));
        assert_eq!(sim.actor::<Pinger>(pinger2).unwrap().rtts.len(), 5);
    }

    #[test]
    fn fault_plan_runs_are_deterministic_and_seed_sensitive() {
        let run = |seed: u64, workers: usize| {
            let mut sim = ShardedSim::new(seed);
            sim.set_workers(workers);
            let echo = sim.add_node("echo", RealmId(0), Box::new(Echo::default()));
            sim.set_respawn(echo, Box::new(|| Box::new(Echo::default())));
            let pinger = sim.add_node("pinger", RealmId(1), Box::new(Pinger::new(echo)));
            let targets = ChaosTargets { bdns: vec![echo], brokers: vec![], clients: vec![pinger] };
            let plan =
                FaultPlan::generate(seed, &ChaosProfile::light(), &targets, Duration::from_secs(10));
            let desc = plan.describe();
            sim.apply_fault_plan(&plan);
            sim.run_for(Duration::from_secs(12));
            (desc, sim.stats().datagrams_delivered, sim.events_processed(), sim.digest())
        };
        assert_eq!(run(77, 1), run(77, 1), "same seed, same schedule, same outcome");
        assert_eq!(run(77, 1), run(77, 2), "and the same at two workers");
        assert_ne!(run(77, 1).0, run(78, 1).0, "plans follow the seed");
    }

    #[test]
    fn shard_plan_co_locates_chatty_pairs_and_balances() {
        let mut net = NetworkModel::new();
        for i in 0..4u32 {
            net.register_node(NodeId(i), RealmId(i as u16));
        }
        // Nodes 0 and 3 sit behind the same fast link.
        net.set_link(NodeId(0), NodeId(3), LinkSpec::local());
        let plan = ShardPlan::partition(&net, 4, 2);
        assert_eq!(plan, ShardPlan::partition(&net, 4, 2), "plan is deterministic");
        assert_eq!(plan.assignment[0], plan.assignment[3], "chatty pair co-locates");
        for g in 0..2 {
            let size = plan.assignment.iter().filter(|&&a| a == g).count();
            assert!(size <= 2, "group {g} holds {size} > cap");
        }
    }

    #[test]
    fn heads_index_tracks_every_rekey() {
        // Random inserts, re-keys up and down, and removals, checked
        // after each step against a plain map of the same entries.
        let mut heads = Heads::default();
        let mut model: BTreeMap<u32, Key> = BTreeMap::new();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..5_000 {
            let node = rng.gen_range(0..40u32);
            let key = if rng.gen_bool(0.2) { None } else { Some((rng.gen_range(0..1_000u64) as Key) << 64 | node as Key) };
            heads.set(node, key);
            match key {
                Some(k) => model.insert(node, k),
                None => model.remove(&node),
            };
            let smallest = model.iter().map(|(&n, &k)| (k, n)).min();
            assert_eq!(heads.first(), smallest);
            let bound = (rng.gen_range(0..1_000u64) as Key) << 64;
            let mut below = Vec::new();
            heads.below(bound, &mut below);
            below.sort_unstable();
            let expected: Vec<u32> = model.iter().filter(|(_, &k)| k < bound).map(|(&n, _)| n).collect();
            assert_eq!(below, expected);
        }
    }

    /// Joins a group on start; multicasts into it after `cast_after`.
    struct Caster {
        group: GroupId,
        cast_after: Duration,
        heard: u32,
    }

    impl Actor for Caster {
        fn on_start(&mut self, ctx: &mut dyn Context) {
            ctx.join_group(self.group);
            ctx.set_timer(self.cast_after, 1);
        }
        fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
            match event {
                Incoming::Timer { token: 1 } => {
                    let ping = Message::Ping {
                        nonce: ctx.me().0 as u64,
                        sent_at: 0,
                        reply_to: Endpoint::new(ctx.me(), well_known::PING),
                    };
                    ctx.send_multicast(well_known::PING, self.group, well_known::PING, &ping);
                }
                Incoming::Datagram { .. } => self.heard += 1,
                _ => {}
            }
        }
        impl_actor_any!();
    }

    #[test]
    fn multicast_join_takes_effect_one_lookahead_later() {
        let group = GroupId(7);
        for workers in [1, 2] {
            let mut sim = quiet(8, workers);
            sim.set_multicast_enabled(true);
            let lookahead = sim.network().min_cross_node_latency();
            // `early` multicasts at the instant everyone joins: nobody
            // is a member yet. `late` waits out the lookahead.
            let early = sim.add_node("early", RealmId(0), Box::new(Caster { group, cast_after: Duration::ZERO, heard: 0 }));
            let late = sim.add_node("late", RealmId(0), Box::new(Caster { group, cast_after: lookahead, heard: 0 }));
            sim.run_for(Duration::from_secs(1));
            assert_eq!(sim.actor::<Caster>(early).unwrap().heard, 1, "late's multicast reaches early");
            assert_eq!(sim.actor::<Caster>(late).unwrap().heard, 0, "same-instant multicast precedes the join");
        }
    }

    /// Stream-sends one ping to `peer` on every timer tick.
    struct Streamer {
        peer: NodeId,
        sent: u32,
    }

    impl Actor for Streamer {
        fn on_start(&mut self, ctx: &mut dyn Context) {
            ctx.set_timer(Duration::from_millis(1), 1);
        }
        fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
            if let Incoming::Timer { token: 1 } = event {
                let ping = Message::Ping { nonce: 0, sent_at: 0, reply_to: Endpoint::new(ctx.me(), well_known::PING) };
                ctx.send_stream(well_known::PING, Endpoint::new(self.peer, well_known::PING), &ping);
                self.sent += 1;
                ctx.set_timer(Duration::from_millis(100), 1);
            }
        }
        impl_actor_any!();
    }

    #[test]
    fn crash_resets_peer_streams_one_lookahead_later() {
        // The sender pays connection setup (two extra one-way trips) on
        // its first message, and again once its peer's crash reaches its
        // end of the connection, one lookahead after the crash. A send
        // at the crash instant still uses the old connection.
        for workers in [1, 2] {
            let mut sim = quiet(10, workers);
            let sink = sim.add_node("sink", RealmId(1), Box::new(IdleActor));
            let src = sim.add_node("src", RealmId(0), Box::new(Streamer { peer: sink, sent: 0 }));
            sim.enable_trace();
            sim.schedule_fault(Duration::from_millis(201), Fault::Restart { node: sink, lose_state: false });
            sim.run_for(Duration::from_millis(750));
            let one_way = sim.network().inter_realm_spec.latency;
            let setup: Vec<bool> = sim
                .take_trace()
                .iter()
                .filter(|r| r.from.node == src)
                .enumerate()
                .map(|(k, r)| {
                    // Send k left at 1 + 100 k ms.
                    let sent = SimTime::from_millis(1 + 100 * k as u64);
                    r.at - sent >= one_way * 3
                })
                .collect();
            assert_eq!(setup, [true, false, false, true, false, false, false, false], "workers={workers}");
            assert_eq!(sim.actor::<Streamer>(src).unwrap().sent, 8);
        }
    }

    #[test]
    fn trace_merges_per_node_records_in_time_order() {
        let mut sim = quiet(1, 2);
        sim.enable_trace();
        let echo = sim.add_node("echo", RealmId(0), Box::new(Echo::default()));
        let pinger = sim.add_node("pinger", RealmId(1), Box::new(Pinger::new(echo)));
        sim.run_for(Duration::from_secs(2));
        let trace = sim.take_trace();
        assert_eq!(trace.len(), 10);
        assert!(trace.windows(2).all(|w| (w[0].at, w[0].to.node) <= (w[1].at, w[1].to.node)));
        assert_eq!(trace.iter().filter(|r| r.to.node == pinger && r.kind == "pong").count(), 5);
        assert!(sim.take_trace().is_empty(), "taking drains the buffers");
    }

    /// Sends `count` publishes on the same topic to `target` via the v2
    /// stream path in one dispatch, then `count` more on a later timer
    /// (a second flush epoch on a now-warm symbol table).
    struct V2Burst {
        target: NodeId,
        count: u32,
    }

    impl V2Burst {
        fn burst(&self, first_id: u128, ctx: &mut dyn Context) {
            for i in 0..self.count {
                let msg = Message::Publish(nb_wire::Event {
                    id: nb_util::Uuid::from_u128(first_id + i as u128),
                    topic: nb_wire::Topic::parse("sensors/room/alpha").unwrap(),
                    source: ctx.me(),
                    payload: Bytes::from_static(b"1"),
                });
                ctx.send_stream_v2(
                    well_known::BROKER,
                    Endpoint::new(self.target, well_known::BROKER),
                    &WireMsg::new(msg),
                );
            }
        }
    }

    impl Actor for V2Burst {
        fn on_start(&mut self, ctx: &mut dyn Context) {
            self.burst(1, ctx);
            ctx.set_timer(Duration::from_secs(1), 1);
        }

        fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
            if let Incoming::Timer { token: 1 } = event {
                self.burst(1000, ctx);
            }
        }
        impl_actor_any!();
    }

    /// Records every stream message it receives, in arrival order.
    #[derive(Default)]
    struct StreamSink {
        got: Vec<(u128, usize)>,
    }

    impl Actor for StreamSink {
        fn on_incoming(&mut self, event: Incoming, _ctx: &mut dyn Context) {
            if let Incoming::Stream { msg, .. } = event {
                if let Message::Publish(ev) = msg.message() {
                    self.got.push((ev.id.as_u128(), msg.body_len()));
                }
            }
        }
        impl_actor_any!();
    }

    #[test]
    fn v2_streams_coalesce_deliver_in_order_and_warm_symbols_shrink() {
        for workers in [1, 2] {
            let mut sim = quiet(8, workers);
            sim.set_wire_v2(Some(WireV2Config::default()));
            let sink = sim.add_node("sink", RealmId(0), Box::new(StreamSink::default()));
            sim.add_node("burst", RealmId(0), Box::new(V2Burst { target: sink, count: 6 }));
            sim.run_for(Duration::from_secs(3));
            let got = &sim.actor::<StreamSink>(sink).unwrap().got;
            assert_eq!(got.len(), 12, "every frame dispatched");
            let ids: Vec<u128> = got.iter().map(|(id, _)| *id).collect();
            let want: Vec<u128> = (1..=6).chain(1000..1006).collect();
            assert_eq!(ids, want, "frames arrive in send order across epochs");
            // One dispatch's burst coalesces into one segment: two
            // dispatches, two segments, twelve frames.
            let stats = sim.stats();
            assert_eq!(stats.segments_sent, 2);
            assert_eq!(stats.segments_delivered, 2);
            assert_eq!(stats.frames_coalesced, 12);
            assert_eq!(stats.stream_delivered, 12);
            assert_eq!(stats.segment_decode_errors, 0);
            // The first frame of epoch one paid for the symbol
            // definition; every later frame on the warm table is smaller,
            // and all are smaller than the v1 encoding of the message.
            let v1 = WireMsg::new(Message::Publish(nb_wire::Event {
                id: nb_util::Uuid::from_u128(1),
                topic: nb_wire::Topic::parse("sensors/room/alpha").unwrap(),
                source: NodeId(1),
                payload: Bytes::from_static(b"1"),
            }))
            .body_len();
            assert!(got[0].1 < v1, "cold v2 frame {} < v1 body {v1}", got[0].1);
            assert!(got[1].1 < got[0].1, "warm frame drops the symbol definition");
            for (_, len) in &got[1..] {
                assert_eq!(*len, got[1].1, "warm frames are uniformly compact");
            }
        }
    }

    #[test]
    fn v2_disabled_send_stream_v2_is_plain_v1() {
        let run = |v2: bool| {
            let mut sim = quiet(8, 1);
            let sink = sim.add_node("sink", RealmId(0), Box::new(StreamSink::default()));
            sim.add_node("burst", RealmId(0), Box::new(V2Burst { target: sink, count: 6 }));
            if v2 {
                // Installed and removed again before anything runs.
                sim.set_wire_v2(Some(WireV2Config::default()));
                sim.set_wire_v2(None);
            }
            sim.run_for(Duration::from_secs(3));
            assert!(!sim.wire_v2_enabled());
            let got = sim.actor::<StreamSink>(sink).unwrap().got.clone();
            (got, sim.stats().segments_sent, sim.stats().stream_delivered, sim.digest())
        };
        let (got, segments, delivered, digest) = run(false);
        assert_eq!(got.len(), 12);
        assert_eq!(segments, 0, "no segments without the config");
        assert_eq!(delivered, 12);
        // Every delivery is charged the v1 body length.
        assert!(got.iter().all(|(_, len)| *len == got[0].1));
        assert_eq!(run(true).3, digest, "v2 off runs the v1 path exactly");
    }

    #[test]
    fn v2_segment_budget_splits_bursts() {
        let mut sim = quiet(8, 1);
        sim.set_wire_v2(Some(WireV2Config { max_segment_bytes: 16 * 1024, max_segment_frames: 4 }));
        let sink = sim.add_node("sink", RealmId(0), Box::new(StreamSink::default()));
        sim.add_node("burst", RealmId(0), Box::new(V2Burst { target: sink, count: 6 }));
        sim.run_for(Duration::from_millis(500));
        // 6 frames under a 4-frame budget: 4 + 2.
        assert_eq!(sim.stats().segments_sent, 2);
        assert_eq!(sim.stats().frames_coalesced, 6);
        assert_eq!(sim.actor::<StreamSink>(sink).unwrap().got.len(), 6);
    }

    #[test]
    fn v2_crash_resets_link_symbol_tables() {
        for workers in [1, 2] {
            let mut sim = quiet(8, workers);
            sim.set_wire_v2(Some(WireV2Config::default()));
            let sink = sim.add_node("sink", RealmId(0), Box::new(StreamSink::default()));
            let burst = sim.add_node("burst", RealmId(0), Box::new(V2Burst { target: sink, count: 3 }));
            sim.set_respawn(burst, Box::new(move || Box::new(V2Burst { target: sink, count: 3 })));
            sim.run_for(Duration::from_millis(500));
            let cold = sim.actor::<StreamSink>(sink).unwrap().got[0].1;
            let warm = sim.actor::<StreamSink>(sink).unwrap().got[1].1;
            assert!(warm < cold);
            // Restart the sender: its link state (and the sink's reader)
            // is torn down, so the next burst re-ships the symbol
            // definition and still decodes cleanly.
            sim.restart(burst, true);
            sim.run_for(Duration::from_millis(500));
            let got = &sim.actor::<StreamSink>(sink).unwrap().got;
            assert_eq!(got.len(), 6);
            assert_eq!(got[3].1, cold, "post-restart first frame redefines the symbol");
            assert_eq!(got[4].1, warm);
            assert_eq!(sim.stats().segment_decode_errors, 0);
        }
    }
}
