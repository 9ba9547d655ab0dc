//! Actor wrappers: the delivery probe every scale run uses, and the
//! per-layer timing the traced run adds on top.
//!
//! A [`Tap`] owns the real actor and forwards every call to it. Its
//! `as_any` hands out the inner actor, so `sim.actor::<Entity>()` keeps
//! working on a wrapped node. Entities are always wrapped: after each
//! dispatch the tap records the first virtual time the entity is
//! attached and drains `Entity::received` into the shared [`Sink`],
//! stamped with the virtual receive time. That observation is the same
//! in the untraced and the traced run, so both produce the same virtual
//! metrics. In the traced run every node is wrapped and each dispatch is
//! timed in thread CPU time, with the `Context` send calls counted (and
//! one in `SEND_SAMPLE` timed) through [`SendTap`].

use std::any::Any;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use nb_discovery::{Entity, EntityState};
use nb_net::{Actor, Context, Incoming, SimTime};
use nb_wire::topic::{BDN_ADVERTISEMENT_TOPIC, DISCOVERY_REQUEST_TOPIC};
use nb_wire::{Endpoint, GroupId, Message, NodeId, Port, RealmId, WireMsg};
use rand::RngCore;

use crate::clock::thread_cpu_ns;

/// One in this many `Context` sends is timed; every send is counted.
const SEND_SAMPLE: u64 = 8;

/// The node roles the trace separates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Entity = 0,
    Broker = 1,
    Bdn = 2,
}

pub const ROLES: usize = 3;

/// What a dispatch handled, from the incoming event's message kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Timer = 0,
    /// A discovery response (entity side).
    Response = 1,
    /// Ping/pong RTT measurement.
    Ping = 2,
    /// A data-plane publish.
    Event = 3,
    /// Discovery plane: flooded requests, acks, advertisements.
    Discovery = 4,
    /// Broker overlay maintenance: link handshakes, heartbeats,
    /// subscription propagation.
    Link = 5,
    /// Client plane: connect, subscribe, keepalive.
    Client = 6,
    Other = 7,
}

pub const KINDS: usize = 8;

fn classify(event: &Incoming) -> Kind {
    let msg = match event {
        Incoming::Timer { .. } => return Kind::Timer,
        Incoming::ClockSynced => return Kind::Other,
        Incoming::Datagram { msg, .. } | Incoming::Stream { msg, .. } => msg.message(),
    };
    match msg {
        Message::Publish(ev) => {
            let t = ev.topic.as_str();
            if t == DISCOVERY_REQUEST_TOPIC || t == BDN_ADVERTISEMENT_TOPIC {
                Kind::Discovery
            } else {
                Kind::Event
            }
        }
        Message::Response(_) => Kind::Response,
        Message::Ping { .. } | Message::Pong { .. } => Kind::Ping,
        Message::Discovery(_)
        | Message::DiscoveryAck { .. }
        | Message::Advertisement(_)
        | Message::BdnAdvertisement { .. } => Kind::Discovery,
        Message::LinkHello { .. }
        | Message::LinkAccept { .. }
        | Message::LinkClose { .. }
        | Message::Heartbeat { .. }
        | Message::Subscribe { .. }
        | Message::Unsubscribe { .. } => Kind::Link,
        Message::ClientConnect { .. }
        | Message::ClientConnectAck { .. }
        | Message::ClientSubscribe { .. }
        | Message::ClientUnsubscribe { .. }
        | Message::ClientDisconnect { .. } => Kind::Client,
        _ => Kind::Other,
    }
}

/// Timed-dispatch totals, indexed `[role][kind]` where both apply.
#[derive(Debug, Default, Clone)]
pub struct LayerStats {
    /// CPU ns inside `on_incoming`, sends included, clock cost removed.
    pub dispatch_ns: [[u64; KINDS]; ROLES],
    pub dispatches: [[u64; KINDS]; ROLES],
    /// Allocations made during dispatches (sends included).
    pub allocs: [u64; ROLES],
    /// Every `Context` send made from inside a dispatch.
    pub sends: [u64; ROLES],
    /// The timed subset of `sends` and its CPU ns.
    pub sampled_sends: [u64; ROLES],
    pub sampled_send_ns: [u64; ROLES],
    /// CPU ns the wrappers spent on their own work around the timed
    /// dispatches: classifying, counting, clock reads, the sink update.
    pub tap_ns: u64,
}

impl LayerStats {
    pub fn role_dispatches(&self, role: Role) -> u64 {
        self.dispatches[role as usize].iter().sum()
    }

    pub fn role_dispatch_ns(&self, role: Role) -> u64 {
        self.dispatch_ns[role as usize].iter().sum()
    }

    /// Estimated CPU ns spent in the sends a role made (sampled mean
    /// times count).
    pub fn role_send_ns(&self, role: Role) -> f64 {
        let r = role as usize;
        if self.sampled_sends[r] == 0 {
            return 0.0;
        }
        self.sampled_send_ns[r] as f64 / self.sampled_sends[r] as f64 * self.sends[r] as f64
    }

    /// Mean self ns per dispatch over `kinds`: dispatch time minus the
    /// role's estimated send time, spread over its dispatches in
    /// proportion to their dispatch time.
    pub fn self_ns_per_dispatch(&self, role: Role, kinds: &[Kind]) -> f64 {
        let r = role as usize;
        let total_ns = self.role_dispatch_ns(role) as f64;
        let n: u64 = kinds.iter().map(|&k| self.dispatches[r][k as usize]).sum();
        if n == 0 || total_ns <= 0.0 {
            return 0.0;
        }
        let ns: u64 = kinds.iter().map(|&k| self.dispatch_ns[r][k as usize]).sum();
        let self_share = 1.0 - self.role_send_ns(role) / total_ns;
        ns as f64 * self_share.max(0.0) / n as f64
    }

    pub fn total_dispatch_ns(&self) -> u64 {
        (0..ROLES)
            .map(|r| self.dispatch_ns[r].iter().sum::<u64>())
            .sum()
    }

    pub fn total_sends(&self) -> u64 {
        self.sends.iter().sum()
    }

    pub fn total_send_ns(&self) -> f64 {
        [Role::Entity, Role::Broker, Role::Bdn]
            .iter()
            .map(|&r| self.role_send_ns(r))
            .sum()
    }
}

/// One event delivered to a subscriber, decoded from the benchmark's
/// payload layout (see [`publish_payload`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    pub subscriber: u32,
    pub publisher: u32,
    pub seq: u32,
    pub due_ns: u64,
    pub recv_ns: u64,
}

/// What every tap of one deployment reports into.
#[derive(Debug, Default)]
pub struct Sink {
    pub layers: LayerStats,
    pub deliveries: Vec<Delivery>,
    /// First virtual ns each entity was attached (`u64::MAX`: never).
    pub attached_at: Vec<u64>,
    /// Delivered payloads that did not parse as a benchmark payload.
    pub foreign_deliveries: u64,
}

pub type SharedSink = Arc<Mutex<Sink>>;

pub fn new_sink(entities: usize) -> SharedSink {
    Arc::new(Mutex::new(Sink {
        attached_at: vec![u64::MAX; entities],
        ..Sink::default()
    }))
}

/// The benchmark's publish payload: publisher index, sequence number
/// and the virtual time the publish was due, padded to 32 bytes.
pub fn publish_payload(publisher: u32, seq: u32, due: SimTime) -> Vec<u8> {
    let mut p = Vec::with_capacity(32);
    p.extend_from_slice(&publisher.to_le_bytes());
    p.extend_from_slice(&seq.to_le_bytes());
    p.extend_from_slice(&due.as_nanos().to_le_bytes());
    p.resize(32, 0xA5);
    p
}

fn parse_payload(p: &[u8]) -> Option<(u32, u32, u64)> {
    let publisher = u32::from_le_bytes(p.get(0..4)?.try_into().ok()?);
    let seq = u32::from_le_bytes(p.get(4..8)?.try_into().ok()?);
    let due = u64::from_le_bytes(p.get(8..16)?.try_into().ok()?);
    Some((publisher, seq, due))
}

/// The wrapper actor.
pub struct Tap {
    inner: Box<dyn Actor>,
    role: Role,
    /// Entity index (entities only).
    index: u32,
    traced: bool,
    attached: bool,
    null_ns: u64,
    send_seq: u64,
    sink: SharedSink,
}

impl Tap {
    pub fn new(
        inner: Box<dyn Actor>,
        role: Role,
        index: u32,
        traced: bool,
        null_ns: u64,
        sink: SharedSink,
    ) -> Tap {
        Tap {
            inner,
            role,
            index,
            traced,
            attached: false,
            null_ns,
            send_seq: 0,
            sink,
        }
    }

    /// Times one dispatch. `w0` is the clock read the wrapper took on
    /// entry, before any of its own work; everything from there to the
    /// final read that is not the dispatch is charged to `tap_ns`.
    fn timed(
        &mut self,
        w0: u64,
        kind: Kind,
        ctx: &mut dyn Context,
        call: impl FnOnce(&mut dyn Actor, &mut dyn Context),
    ) {
        let mut tap = SendTap {
            inner: ctx,
            seq: &mut self.send_seq,
            null_ns: self.null_ns,
            sends: 0,
            sampled: 0,
            sampled_ns: 0,
        };
        let a0 = nb_bench::codec::alloc_count();
        let t0 = thread_cpu_ns();
        call(self.inner.as_mut(), &mut tap);
        let elapsed = thread_cpu_ns() - t0;
        let allocs = nb_bench::codec::alloc_count() - a0;
        let (sends, sampled, sampled_ns) = (tap.sends, tap.sampled, tap.sampled_ns);
        // Remove the clock reads themselves: this interval's, and the
        // pair around each timed send inside it (one read's cost falls
        // inside the send's own interval and is removed there).
        let ns = elapsed.saturating_sub(self.null_ns * (1 + 2 * sampled));
        let (r, k) = (self.role as usize, kind as usize);
        let mut sink = self
            .sink
            .lock()
            .expect("sink lock: a tap panicked mid-update");
        let l = &mut sink.layers;
        l.dispatch_ns[r][k] += ns;
        l.dispatches[r][k] += 1;
        l.allocs[r] += allocs;
        l.sends[r] += sends;
        l.sampled_sends[r] += sampled;
        l.sampled_send_ns[r] += sampled_ns;
        // The wrapper's span runs from the entry read to this one; one
        // more read's cost falls outside it (the halves of the two reads
        // on its far sides).
        let span = thread_cpu_ns() - w0 + self.null_ns;
        l.tap_ns += span.saturating_sub(ns);
    }

    /// Entity probe: first attach time and delivered events.
    fn observe(&mut self, now: SimTime) {
        let Some(entity) = self.inner.as_any_mut().downcast_mut::<Entity>() else {
            return;
        };
        let newly_attached = !self.attached && matches!(entity.state(), EntityState::Attached(_));
        if !newly_attached && entity.received.is_empty() {
            return;
        }
        let mut sink = self
            .sink
            .lock()
            .expect("sink lock: a tap panicked mid-update");
        if newly_attached {
            self.attached = true;
            sink.attached_at[self.index as usize] = now.as_nanos();
        }
        for ev in entity.received.drain(..) {
            match parse_payload(&ev.payload) {
                Some((publisher, seq, due_ns)) => sink.deliveries.push(Delivery {
                    subscriber: self.index,
                    publisher,
                    seq,
                    due_ns,
                    recv_ns: now.as_nanos(),
                }),
                None => sink.foreign_deliveries += 1,
            }
        }
    }
}

impl Actor for Tap {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        if self.traced {
            let w0 = thread_cpu_ns();
            self.timed(w0, Kind::Other, ctx, |a, c| a.on_start(c));
        } else {
            self.inner.on_start(ctx);
        }
        if self.role == Role::Entity {
            self.observe(ctx.now());
        }
    }

    fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
        if self.traced {
            let w0 = thread_cpu_ns();
            let kind = classify(&event);
            self.timed(w0, kind, ctx, |a, c| a.on_incoming(event, c));
        } else {
            self.inner.on_incoming(event, ctx);
        }
        if self.role == Role::Entity {
            self.observe(ctx.now());
        }
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// A `Context` that forwards every call and counts (and samples the CPU
/// time of) the sends. Every method is forwarded explicitly, including
/// the ones with default bodies, so the wrapped actor takes exactly the
/// send path it would take unwrapped.
struct SendTap<'a> {
    inner: &'a mut dyn Context,
    seq: &'a mut u64,
    null_ns: u64,
    sends: u64,
    sampled: u64,
    sampled_ns: u64,
}

impl SendTap<'_> {
    fn send(&mut self, f: impl FnOnce(&mut dyn Context)) {
        self.sends += 1;
        *self.seq += 1;
        if self.seq.is_multiple_of(SEND_SAMPLE) {
            let t0 = thread_cpu_ns();
            f(self.inner);
            self.sampled_ns += (thread_cpu_ns() - t0).saturating_sub(self.null_ns);
            self.sampled += 1;
        } else {
            f(self.inner);
        }
    }
}

impl Context for SendTap<'_> {
    fn me(&self) -> NodeId {
        self.inner.me()
    }
    fn realm(&self) -> RealmId {
        self.inner.realm()
    }
    fn now(&self) -> SimTime {
        self.inner.now()
    }
    fn utc_micros(&self) -> u64 {
        self.inner.utc_micros()
    }
    fn clock_synced(&self) -> bool {
        self.inner.clock_synced()
    }
    fn raw_local_micros(&self) -> u64 {
        self.inner.raw_local_micros()
    }
    fn set_clock_estimate_ns(&mut self, est_offset_ns: i64) {
        self.inner.set_clock_estimate_ns(est_offset_ns)
    }
    fn send_udp(&mut self, from_port: Port, to: Endpoint, msg: &Message) {
        self.send(|c| c.send_udp(from_port, to, msg))
    }
    fn send_stream(&mut self, from_port: Port, to: Endpoint, msg: &Message) {
        self.send(|c| c.send_stream(from_port, to, msg))
    }
    fn send_udp_wire(&mut self, from_port: Port, to: Endpoint, msg: &WireMsg) {
        self.send(|c| c.send_udp_wire(from_port, to, msg))
    }
    fn send_stream_wire(&mut self, from_port: Port, to: Endpoint, msg: &WireMsg) {
        self.send(|c| c.send_stream_wire(from_port, to, msg))
    }
    fn send_stream_v2(&mut self, from_port: Port, to: Endpoint, msg: &WireMsg) {
        self.send(|c| c.send_stream_v2(from_port, to, msg))
    }
    fn send_multicast(&mut self, from_port: Port, group: GroupId, to_port: Port, msg: &Message) {
        self.send(|c| c.send_multicast(from_port, group, to_port, msg))
    }
    fn join_group(&mut self, group: GroupId) {
        self.inner.join_group(group)
    }
    fn leave_group(&mut self, group: GroupId) {
        self.inner.leave_group(group)
    }
    fn set_timer(&mut self, delay: Duration, token: u64) {
        self.inner.set_timer(delay, token)
    }
    fn cancel_timer(&mut self, token: u64) {
        self.inner.cancel_timer(token)
    }
    fn rng(&mut self) -> &mut dyn RngCore {
        self.inner.rng()
    }
}
