//! The broker state machine.
//!
//! A broker maintains overlay **links** to neighbouring brokers and
//! **client** connections, routes published events to interested parties
//! (subscription-based routing with split-horizon interest propagation),
//! and *floods* events on configured system topics — the mechanism the
//! discovery scheme uses so that "the request can reach each broker
//! connected in the network" (paper §10) — with UUID duplicate
//! suppression bounding the cost (paper §4's last-1000 cache).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use nb_util::{BoundedDedup, Uuid};
use nb_wire::addr::well_known;
use nb_wire::{Endpoint, Event, Message, NodeId, Topic, TopicFilter, WireMsg, FLAG_V2_CAPABLE};

use nb_net::{impl_actor_any, Actor, Context, Incoming, SimTime};

use crate::metrics::{MachineProfile, UsageMeter};
use crate::tables::DenseNodeTable;
use crate::topics::{Destination, SubscriptionTable};

/// Timer token namespace reserved by the broker (owners embedding a
/// [`Broker`] must not use tokens with this prefix).
pub const BROKER_TIMER_BASE: u64 = 0xB00B_0000_0000_0000;
const TIMER_HEARTBEAT: u64 = BROKER_TIMER_BASE | 1;

/// Static broker configuration.
#[derive(Debug, Clone)]
pub struct BrokerConfig {
    /// Hostname reported in advertisements and responses.
    pub hostname: String,
    /// NaradaBrokering logical address within the overlay.
    pub logical_address: String,
    /// Host machine model (memory, CPU scale).
    pub machine: MachineProfile,
    /// Capacity of the event/request duplicate-suppression caches
    /// (paper default: 1000, configurable).
    pub dedup_capacity: usize,
    /// Interval between link heartbeats.
    pub heartbeat_interval: Duration,
    /// Consecutive missed heartbeats before a link is declared dead.
    pub heartbeat_misses: u32,
    /// Brokers to establish overlay links to at start.
    pub neighbors: Vec<NodeId>,
    /// System topics whose events are flooded to every link and surfaced
    /// to the owning actor.
    pub flood_topics: Vec<TopicFilter>,
    /// Maximum concurrent client connections (`None` = unlimited).
    pub max_clients: Option<u32>,
    /// Announce v2 wire-codec capability on link handshakes and use the
    /// compact batched stream path towards peers that announced it too.
    /// Off by default; links to v1-only peers (and all client traffic)
    /// stay on the v1 path either way.
    pub wire_v2: bool,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig {
            hostname: "broker.local".into(),
            logical_address: "nb://default/broker".into(),
            machine: MachineProfile::default_2005(),
            dedup_capacity: 1000,
            heartbeat_interval: Duration::from_secs(2),
            heartbeat_misses: 3,
            neighbors: Vec::new(),
            flood_topics: Vec::new(),
            max_clients: None,
            wire_v2: false,
        }
    }
}

impl BrokerConfig {
    /// Loads overrides from a parsed configuration file. Recognised keys:
    /// `broker.hostname`, `broker.logical_address`,
    /// `broker.dedup.capacity`, `broker.heartbeat.interval.ms`,
    /// `broker.heartbeat.misses`, `broker.max_clients`,
    /// `broker.wire.v2`.
    pub fn apply_config(mut self, cfg: &nb_util::Config) -> Result<Self, nb_util::ConfigError> {
        if let Some(h) = cfg.get("broker.hostname") {
            self.hostname = h.to_string();
        }
        if let Some(a) = cfg.get("broker.logical_address") {
            self.logical_address = a.to_string();
        }
        self.dedup_capacity = cfg.get_u64("broker.dedup.capacity", self.dedup_capacity as u64)? as usize;
        self.heartbeat_interval = Duration::from_millis(
            cfg.get_u64("broker.heartbeat.interval.ms", self.heartbeat_interval.as_millis() as u64)?,
        );
        self.heartbeat_misses =
            cfg.get_u64("broker.heartbeat.misses", u64::from(self.heartbeat_misses))? as u32;
        let max = cfg.get_u64("broker.max_clients", 0)?;
        if max > 0 {
            self.max_clients = Some(max as u32);
        }
        self.wire_v2 = cfg.get_bool("broker.wire.v2", self.wire_v2)?;
        Ok(self)
    }
}

#[derive(Debug)]
struct LinkState {
    endpoint: Endpoint,
    established: bool,
    last_heard: SimTime,
    /// Whether the peer announced v2 wire-codec capability on its
    /// handshake; only then does traffic to it take the batched path.
    peer_v2: bool,
}

#[derive(Debug)]
struct ClientState {
    endpoint: Endpoint,
}

/// Where interest in one filter comes from.
#[derive(Debug, Default, Clone)]
struct InterestState {
    /// Registrations from locally connected clients (and the owner).
    local: usize,
    /// Registrations learned from each overlay link.
    links: BTreeMap<NodeId, usize>,
}

impl InterestState {
    fn total(&self) -> usize {
        self.local + self.links.values().sum::<usize>()
    }

    /// Interest visible to neighbour `l`: everything except what `l`
    /// itself told us (per-neighbour split horizon).
    fn excluding(&self, l: NodeId) -> usize {
        self.local + self.links.iter().filter(|(&n, _)| n != l).map(|(_, c)| c).sum::<usize>()
    }
}

/// The broker state machine. Embed it in an actor and feed it events via
/// [`Broker::handle`]; system-topic events it saw are returned for the
/// owner to act on.
pub struct Broker {
    cfg: BrokerConfig,
    links: DenseNodeTable<LinkState>,
    clients: DenseNodeTable<ClientState>,
    subs: SubscriptionTable,
    /// Per-filter interest sources (local clients + per-link counts),
    /// driving per-neighbour split-horizon advertisement: filter `F` is
    /// advertised to neighbour `L` iff interest *excluding L's own
    /// contribution* is non-zero. Ordered maps keep message emission
    /// deterministic under a fixed seed.
    interest: BTreeMap<TopicFilter, InterestState>,
    /// Memoized sorted snapshot of `interest`'s key set, shared (not
    /// cloned) by the link-up reconcile sweep; invalidated whenever a
    /// filter enters or leaves the interest map. `interest_filters` is
    /// the uncached oracle it is tested against.
    interest_snapshot: Option<Arc<[TopicFilter]>>,
    /// Which (neighbour, filter) advertisements are currently active.
    advertised: BTreeSet<(NodeId, TopicFilter)>,
    event_dedup: BoundedDedup<Uuid>,
    meter: UsageMeter,
    hb_seq: u64,
    /// Events routed through this broker (observability).
    pub events_routed: u64,
    /// Duplicate events suppressed (observability).
    pub duplicates_suppressed: u64,
}

impl Broker {
    /// A broker from `cfg`.
    pub fn new(cfg: BrokerConfig) -> Broker {
        let meter = UsageMeter::new(cfg.machine);
        let dedup = cfg.dedup_capacity;
        Broker {
            cfg,
            links: DenseNodeTable::new(),
            clients: DenseNodeTable::new(),
            subs: SubscriptionTable::new(),
            interest: BTreeMap::new(),
            interest_snapshot: None,
            advertised: BTreeSet::new(),
            event_dedup: BoundedDedup::new(dedup),
            meter,
            hb_seq: 0,
            events_routed: 0,
            duplicates_suppressed: 0,
        }
    }

    /// The broker's configuration.
    pub fn config(&self) -> &BrokerConfig {
        &self.cfg
    }

    /// Established overlay link count.
    pub fn num_links(&self) -> u32 {
        self.links.values().filter(|l| l.established).count() as u32
    }

    /// Connected client count.
    pub fn num_clients(&self) -> u32 {
        self.clients.len() as u32
    }

    /// Whether an established link to `peer` exists.
    pub fn is_linked(&self, peer: NodeId) -> bool {
        self.links.get(peer).is_some_and(|l| l.established)
    }

    /// Whether `client` is connected.
    pub fn has_client(&self, client: NodeId) -> bool {
        self.clients.contains_key(client)
    }

    /// Overrides the client-connection cap at runtime (tests and
    /// operational tooling; takes effect for subsequent connects).
    pub fn set_max_clients_for_test(&mut self, max: Option<u32>) {
        self.cfg.max_clients = max;
    }

    /// Diagnostic and oracle: the distinct filters in this broker's
    /// aggregate interest, sorted — rebuilt from scratch on every call.
    /// The hot path uses [`Broker::shared_interest_filters`] instead;
    /// the two must always agree (see `interest_snapshot_tracks_oracle`).
    pub fn interest_filters(&self) -> Vec<TopicFilter> {
        self.interest.keys().cloned().collect()
    }

    /// The memoized shared snapshot of the interest filter set. Rebuilt
    /// only after a filter entered or left the map; every other call is
    /// one `Arc` bump instead of the per-rebroadcast
    /// `keys().cloned().collect()` the flood path used to pay.
    pub fn shared_interest_filters(&mut self) -> Arc<[TopicFilter]> {
        if self.interest_snapshot.is_none() {
            self.interest_snapshot = Some(self.interest.keys().cloned().collect());
        }
        Arc::clone(self.interest_snapshot.as_ref().expect("memoized above"))
    }

    /// Diagnostic: destinations whose filters match `topic`.
    pub fn destinations_for(&self, topic: &Topic) -> Vec<crate::topics::Destination> {
        self.subs.matches_uncached(topic)
    }

    /// Current usage metric snapshot (paper §5.1(c)).
    pub fn metrics(&mut self, ctx: &mut dyn Context) -> nb_wire::UsageMetrics {
        let subs = self.subs.len() as u32;
        self.meter.snapshot(ctx.now(), self.num_clients(), self.num_links(), subs)
    }

    /// Sends a link handshake message, announcing v2 wire capability on
    /// the frame prelude when this broker is configured for it. The
    /// flags byte is outside the body, so a v1 peer decodes the message
    /// unchanged and simply never reciprocates.
    fn send_handshake(&self, to: Endpoint, msg: Message, ctx: &mut dyn Context) {
        let mut wire = WireMsg::new(msg);
        if self.cfg.wire_v2 {
            wire = wire.with_flags(FLAG_V2_CAPABLE);
        }
        ctx.send_stream_wire(well_known::BROKER, to, &wire);
    }

    /// Call from the owning actor's `on_start`.
    pub fn on_start(&mut self, ctx: &mut dyn Context) {
        for peer in self.cfg.neighbors.clone() {
            let hello = Message::LinkHello { from: ctx.me(), realm: ctx.realm() };
            self.send_handshake(Endpoint::new(peer, well_known::BROKER), hello, ctx);
        }
        ctx.set_timer(self.cfg.heartbeat_interval, TIMER_HEARTBEAT);
    }

    /// Opens a link to `peer` at runtime (topology growth).
    pub fn link_to(&mut self, peer: NodeId, ctx: &mut dyn Context) {
        let hello = Message::LinkHello { from: ctx.me(), realm: ctx.realm() };
        self.send_handshake(Endpoint::new(peer, well_known::BROKER), hello, ctx);
    }

    /// Publishes an event originating at this broker itself (the owner's
    /// services use this, e.g. a BDN flooding a discovery request).
    pub fn publish_local(
        &mut self,
        topic: Topic,
        payload: impl Into<Bytes>,
        ctx: &mut dyn Context,
    ) -> Vec<Event> {
        let id = Uuid::random(ctx.rng());
        let ev = Event { id, topic, source: ctx.me(), payload: payload.into() };
        self.route_event(ev, None, ctx)
    }

    /// Feeds one incoming runtime event; returns any system-topic events
    /// that were routed (for the owning actor to act on).
    pub fn handle(&mut self, event: Incoming, ctx: &mut dyn Context) -> Vec<Event> {
        match event {
            Incoming::Stream { from, to_port, msg } if to_port == well_known::BROKER => {
                self.handle_stream(from, msg, ctx)
            }
            Incoming::Timer { token } if token == TIMER_HEARTBEAT => {
                self.heartbeat_tick(ctx);
                Vec::new()
            }
            _ => Vec::new(),
        }
    }

    fn handle_stream(
        &mut self,
        from: Endpoint,
        msg: WireMsg,
        ctx: &mut dyn Context,
    ) -> Vec<Event> {
        if let Some(link) = self.links.get_mut(from.node) {
            link.last_heard = ctx.now();
        }
        // Peek-dedup fast path (paper §4's last-1000 cache): a `Publish`
        // frame carries its event UUID at a fixed header offset, so a
        // duplicate is recognised and dropped from the header alone —
        // no traversal of the decoded event, no per-field work. A fresh
        // event continues into `route_deduped`, which must NOT insert
        // into the cache again.
        let header = msg.peek();
        if header.is_publish() {
            let id = header.uuid.expect("publish frames carry an event id");
            if !self.event_dedup.check_and_insert(id) {
                self.duplicates_suppressed += 1;
                return Vec::new();
            }
            return self.route_deduped(msg, Some(from.node), ctx);
        }
        // Capability bits live in the frame prelude; capture them before
        // the message is unwrapped.
        let peer_v2 = self.cfg.wire_v2 && msg.flags() & FLAG_V2_CAPABLE != 0;
        match msg.into_message() {
            Message::LinkHello { from: peer, .. } => {
                let accept = Message::LinkAccept { from: ctx.me(), realm: ctx.realm() };
                self.send_handshake(Endpoint::new(peer, well_known::BROKER), accept, ctx);
                self.link_up(peer, peer_v2, ctx);
            }
            Message::LinkAccept { from: peer, .. } => {
                self.link_up(peer, peer_v2, ctx);
            }
            Message::LinkClose { from: peer } => {
                self.link_down(peer, ctx);
            }
            Message::Heartbeat { .. } => { /* freshness already recorded */ }
            Message::Subscribe { filter, .. }
                if self.links.contains_key(from.node) => {
                    let first = self.subs.subscribe(Destination::Link(from.node), filter.clone());
                    if first {
                        self.interest_gained(filter, Some(from.node), ctx);
                    }
                }
            Message::Unsubscribe { filter, .. }
                if self.links.contains_key(from.node) => {
                    let gone = self.subs.unsubscribe(Destination::Link(from.node), &filter);
                    if gone {
                        self.interest_lost(filter, Some(from.node), ctx);
                    }
                }
            Message::ClientConnect { client, reply_port } => {
                let accepted = self
                    .cfg
                    .max_clients
                    .is_none_or(|max| (self.clients.len() as u32) < max);
                if accepted {
                    self.clients
                        .insert(client, ClientState { endpoint: Endpoint::new(client, reply_port) });
                }
                let ack = Message::ClientConnectAck { broker: ctx.me(), accepted };
                ctx.send_stream(well_known::BROKER, Endpoint::new(client, reply_port), &ack);
            }
            Message::ClientSubscribe { filter }
                if self.clients.contains_key(from.node) => {
                    let first = self.subs.subscribe(Destination::Client(from.node), filter.clone());
                    if first {
                        self.interest_gained(filter, None, ctx);
                    }
                }
            Message::ClientUnsubscribe { filter }
                if self.clients.contains_key(from.node) => {
                    let gone = self.subs.unsubscribe(Destination::Client(from.node), &filter);
                    if gone {
                        self.interest_lost(filter, None, ctx);
                    }
                }
            Message::ClientDisconnect { client }
                if self.clients.remove(client).is_some() => {
                    for filter in self.subs.remove_destination(Destination::Client(client)) {
                        self.interest_lost(filter, None, ctx);
                    }
                }
            _ => {}
        }
        Vec::new()
    }

    fn link_up(&mut self, peer: NodeId, peer_v2: bool, ctx: &mut dyn Context) {
        let now = ctx.now();
        let entry = self.links.get_or_insert_with(peer, || LinkState {
            endpoint: Endpoint::new(peer, well_known::BROKER),
            established: false,
            last_heard: now,
            peer_v2: false,
        });
        // Capability can only be granted by a handshake frame; a repeat
        // handshake may upgrade an existing link but never downgrades it.
        entry.peer_v2 |= peer_v2;
        if entry.established {
            return;
        }
        entry.established = true;
        entry.last_heard = now;
        // Sync interest to the new neighbour. The shared snapshot makes
        // this O(1) allocations instead of cloning every filter on each
        // peer (re)advertisement; `reconcile_advertisements` never
        // changes the filter *set*, so the snapshot stays valid across
        // the sweep.
        let filters = self.shared_interest_filters();
        for filter in filters.iter() {
            self.reconcile_advertisements(filter, ctx);
        }
    }

    fn link_down(&mut self, peer: NodeId, ctx: &mut dyn Context) {
        if self.links.remove(peer).is_none() {
            return;
        }
        self.advertised.retain(|(p, _)| *p != peer);
        // Drop every interest contribution learned from that link, then
        // reconcile the affected filters towards the survivors.
        let filters = self.subs.remove_destination(Destination::Link(peer));
        for filter in filters {
            if let Some(state) = self.interest.get_mut(&filter) {
                state.links.remove(&peer);
                if state.total() == 0 {
                    self.interest.remove(&filter);
                    self.interest_snapshot = None;
                }
            }
            self.reconcile_advertisements(&filter, ctx);
        }
    }

    /// Registers one interest source for `filter` (a local client when
    /// `source` is `None`, otherwise the link it arrived on) and
    /// reconciles the per-neighbour advertisements.
    fn interest_gained(&mut self, filter: TopicFilter, source: Option<NodeId>, ctx: &mut dyn Context) {
        if !self.interest.contains_key(&filter) {
            self.interest_snapshot = None;
        }
        let state = self.interest.entry(filter.clone()).or_default();
        match source {
            None => state.local += 1,
            Some(l) => *state.links.entry(l).or_insert(0) += 1,
        }
        self.reconcile_advertisements(&filter, ctx);
    }

    /// Withdraws one interest source for `filter` and reconciles.
    fn interest_lost(&mut self, filter: TopicFilter, source: Option<NodeId>, ctx: &mut dyn Context) {
        let Some(state) = self.interest.get_mut(&filter) else {
            return;
        };
        match source {
            None => state.local = state.local.saturating_sub(1),
            Some(l) => {
                if let Some(c) = state.links.get_mut(&l) {
                    *c -= 1;
                    if *c == 0 {
                        state.links.remove(&l);
                    }
                }
            }
        }
        if state.total() == 0 {
            self.interest.remove(&filter);
            self.interest_snapshot = None;
        }
        self.reconcile_advertisements(&filter, ctx);
    }

    /// Brings the per-neighbour advertisement state of `filter` in line
    /// with the interest sources: neighbour `L` should see the filter
    /// advertised iff interest excluding `L` is non-zero.
    fn reconcile_advertisements(&mut self, filter: &TopicFilter, ctx: &mut dyn Context) {
        let me = ctx.me();
        let peers: Vec<(NodeId, Endpoint, bool, bool)> = self
            .links
            .iter()
            .map(|(p, l)| (p, l.endpoint, l.established, l.peer_v2))
            .collect();
        for (peer, endpoint, established, peer_v2) in peers {
            if !established {
                continue;
            }
            let should = self
                .interest
                .get(filter)
                .is_some_and(|state| state.excluding(peer) > 0);
            let key = (peer, filter.clone());
            let is = self.advertised.contains(&key);
            if should == is {
                continue;
            }
            self.hb_seq += 1;
            let seq = self.hb_seq;
            let msg = if should {
                self.advertised.insert(key);
                Message::Subscribe { filter: filter.clone(), origin: me, seq }
            } else {
                self.advertised.remove(&key);
                Message::Unsubscribe { filter: filter.clone(), origin: me, seq }
            };
            if peer_v2 {
                ctx.send_stream_v2(well_known::BROKER, endpoint, &WireMsg::new(msg));
            } else {
                ctx.send_stream(well_known::BROKER, endpoint, &msg);
            }
        }
    }

    fn is_flood_topic(&self, topic: &Topic) -> bool {
        self.cfg.flood_topics.iter().any(|f| f.matches(topic))
    }

    /// Routes a locally originated event: dedup-inserts its UUID, then
    /// hands off to the shared zero-copy dispatch.
    fn route_event(
        &mut self,
        ev: Event,
        source: Option<NodeId>,
        ctx: &mut dyn Context,
    ) -> Vec<Event> {
        if !self.event_dedup.check_and_insert(ev.id) {
            self.duplicates_suppressed += 1;
            return Vec::new();
        }
        self.route_deduped(WireMsg::new(Message::Publish(ev)), source, ctx)
    }

    /// Dispatches an event already admitted past the duplicate cache.
    /// The frame is encoded (at most) once: local client deliveries
    /// reuse `msg`'s handle verbatim, and every link forward shares one
    /// hop-bumped copy whose body bytes are the original frame's — only
    /// the 4-byte prelude is re-stamped.
    fn route_deduped(
        &mut self,
        msg: WireMsg,
        source: Option<NodeId>,
        ctx: &mut dyn Context,
    ) -> Vec<Event> {
        self.events_routed += 1;
        self.meter.record_message(ctx.now());

        let Message::Publish(ev) = msg.message() else {
            return Vec::new();
        };
        let flood = self.is_flood_topic(&ev.topic);
        // One memoized trie lookup; the shared set detaches the borrow on
        // `subs` so dispatch below can consult clients/links freely.
        let matched = self.subs.matches(&ev.topic);
        // `None` when the TTL is spent: local deliveries still happen
        // (they are terminal), link forwards stop.
        let fwd = msg.forward_hop();
        // Local clients whose filters match always get a copy.
        for &dest in matched.iter() {
            match dest {
                Destination::Client(c) => {
                    if Some(c) == source {
                        continue;
                    }
                    if let Some(client) = self.clients.get(c) {
                        ctx.send_stream_wire(well_known::BROKER, client.endpoint, &msg);
                    }
                }
                Destination::Link(l) => {
                    if flood {
                        continue; // flooding below covers every link
                    }
                    if Some(l) == source {
                        continue;
                    }
                    if let (Some(link), Some(fwd)) = (self.links.get(l), fwd.as_ref()) {
                        if link.established {
                            if link.peer_v2 {
                                ctx.send_stream_v2(well_known::BROKER, link.endpoint, fwd);
                            } else {
                                ctx.send_stream_wire(well_known::BROKER, link.endpoint, fwd);
                            }
                        }
                    }
                }
            }
        }
        if flood {
            if let Some(fwd) = fwd.as_ref() {
                for (peer, link) in self.links.iter() {
                    if !link.established || Some(peer) == source {
                        continue;
                    }
                    if link.peer_v2 {
                        ctx.send_stream_v2(well_known::BROKER, link.endpoint, fwd);
                    } else {
                        ctx.send_stream_wire(well_known::BROKER, link.endpoint, fwd);
                    }
                }
            }
            let Message::Publish(ev) = msg.into_message() else {
                unreachable!("checked above");
            };
            return vec![ev];
        }
        Vec::new()
    }

    fn heartbeat_tick(&mut self, ctx: &mut dyn Context) {
        self.hb_seq += 1;
        let seq = self.hb_seq;
        let deadline = self.cfg.heartbeat_interval * self.cfg.heartbeat_misses;
        let now = ctx.now();
        let mut dead: Vec<NodeId> = Vec::new();
        for (peer, link) in self.links.iter() {
            if !link.established {
                continue;
            }
            if now - link.last_heard > deadline {
                dead.push(peer);
            } else {
                let hb = Message::Heartbeat { from: ctx.me(), seq };
                if link.peer_v2 {
                    ctx.send_stream_v2(well_known::BROKER, link.endpoint, &WireMsg::new(hb));
                } else {
                    ctx.send_stream(well_known::BROKER, link.endpoint, &hb);
                }
            }
        }
        dead.sort_unstable();
        for peer in dead {
            self.link_down(peer, ctx);
        }
        ctx.set_timer(self.cfg.heartbeat_interval, TIMER_HEARTBEAT);
    }
}

/// A standalone broker actor (no attached services); flood-topic events
/// it routes are counted but otherwise dropped.
pub struct BrokerActor {
    /// The wrapped broker.
    pub broker: Broker,
    /// Flood-topic events surfaced to this actor.
    pub surfaced: Vec<Event>,
}

impl BrokerActor {
    /// Wraps a new broker built from `cfg`.
    pub fn new(cfg: BrokerConfig) -> BrokerActor {
        BrokerActor { broker: Broker::new(cfg), surfaced: Vec::new() }
    }
}

impl Actor for BrokerActor {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        self.broker.on_start(ctx);
    }
    fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
        let surfaced = self.broker.handle(event, ctx);
        self.surfaced.extend(surfaced);
    }
    impl_actor_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use nb_net::{ClockProfile, LinkSpec, ShardedSim};
    use nb_wire::RealmId;

    fn quiet_sim() -> ShardedSim {
        let mut sim = ShardedSim::with_clock_profile(1234, ClockProfile::perfect());
        sim.network_mut().intra_realm_spec = LinkSpec::lan().with_loss(0.0);
        sim.network_mut().inter_realm_spec =
            LinkSpec::wan(Duration::from_millis(10)).with_loss(0.0);
        sim
    }

    fn broker_cfg(neighbors: Vec<NodeId>) -> BrokerConfig {
        BrokerConfig { neighbors, ..BrokerConfig::default() }
    }

    #[test]
    fn links_establish_both_ways() {
        let mut sim = quiet_sim();
        let a = sim.add_node("a", RealmId(0), Box::new(BrokerActor::new(broker_cfg(vec![]))));
        let b_cfg = broker_cfg(vec![a]);
        let b = sim.add_node("b", RealmId(0), Box::new(BrokerActor::new(b_cfg)));
        sim.run_for(Duration::from_secs(1));
        assert!(sim.actor::<BrokerActor>(a).unwrap().broker.is_linked(b));
        assert!(sim.actor::<BrokerActor>(b).unwrap().broker.is_linked(a));
        assert_eq!(sim.actor::<BrokerActor>(a).unwrap().broker.num_links(), 1);
    }

    #[test]
    fn heartbeats_detect_dead_peer() {
        let mut sim = quiet_sim();
        let a = sim.add_node("a", RealmId(0), Box::new(BrokerActor::new(broker_cfg(vec![]))));
        let b = sim.add_node("b", RealmId(0), Box::new(BrokerActor::new(broker_cfg(vec![a]))));
        sim.run_for(Duration::from_secs(1));
        assert!(sim.actor::<BrokerActor>(a).unwrap().broker.is_linked(b));
        sim.crash(b);
        sim.run_for(Duration::from_secs(30));
        assert!(!sim.actor::<BrokerActor>(a).unwrap().broker.is_linked(b));
        assert_eq!(sim.actor::<BrokerActor>(a).unwrap().broker.num_links(), 0);
    }

    #[test]
    fn flood_topic_reaches_every_broker_in_a_chain_once() {
        let mut sim = quiet_sim();
        let flood = TopicFilter::parse("Services/**").unwrap();
        let mk = |neighbors: Vec<NodeId>| {
            let mut cfg = broker_cfg(neighbors);
            cfg.flood_topics = vec![flood.clone()];
            Box::new(BrokerActor::new(cfg))
        };
        // chain a - b - c - d
        let a = sim.add_node("a", RealmId(0), mk(vec![]));
        let b = sim.add_node("b", RealmId(0), mk(vec![a]));
        let c = sim.add_node("c", RealmId(0), mk(vec![b]));
        let d = sim.add_node("d", RealmId(0), mk(vec![c]));
        sim.run_for(Duration::from_secs(1));
        // Publish a system event through a client attached to broker a.
        let topic = Topic::parse("Services/BrokerDiscoveryNodes/DiscoveryRequest").unwrap();
        use crate::client::PubSubClient;
        let client = sim.add_node(
            "client",
            RealmId(0),
            Box::new(PubSubClient::new(a, vec![])),
        );
        sim.run_for(Duration::from_secs(1));
        let ev_payload = b"request".to_vec();
        {
            let cl = sim.actor_mut::<PubSubClient>(client).unwrap();
            cl.queue_publish(topic.clone(), ev_payload);
        }
        sim.run_for(Duration::from_secs(2));
        for (node, label) in [(a, "a"), (b, "b"), (c, "c"), (d, "d")] {
            let surfaced = &sim.actor::<BrokerActor>(node).unwrap().surfaced;
            assert_eq!(surfaced.len(), 1, "broker {label} surfaced {}", surfaced.len());
            assert_eq!(surfaced[0].topic, topic);
        }
    }

    #[test]
    fn subscription_routing_across_two_brokers() {
        use crate::client::PubSubClient;
        let mut sim = quiet_sim();
        let a = sim.add_node("a", RealmId(0), Box::new(BrokerActor::new(broker_cfg(vec![]))));
        let b = sim.add_node("b", RealmId(0), Box::new(BrokerActor::new(broker_cfg(vec![a]))));
        let sub_filter = TopicFilter::parse("sports/*").unwrap();
        let subscriber =
            sim.add_node("sub", RealmId(0), Box::new(PubSubClient::new(a, vec![sub_filter])));
        let publisher = sim.add_node("pub", RealmId(0), Box::new(PubSubClient::new(b, vec![])));
        sim.run_for(Duration::from_secs(2));
        {
            let p = sim.actor_mut::<PubSubClient>(publisher).unwrap();
            p.queue_publish(Topic::parse("sports/nba").unwrap(), b"42".to_vec());
            p.queue_publish(Topic::parse("news/world").unwrap(), b"x".to_vec());
        }
        sim.run_for(Duration::from_secs(2));
        let s = sim.actor::<PubSubClient>(subscriber).unwrap();
        assert_eq!(s.received.len(), 1, "only the matching event arrives");
        assert_eq!(s.received[0].topic.as_str(), "sports/nba");
        assert_eq!(&s.received[0].payload[..], b"42");
    }

    #[test]
    fn duplicate_events_suppressed_in_a_cycle() {
        let mut sim = quiet_sim();
        let flood = TopicFilter::parse("sys/**").unwrap();
        let mk = |neighbors: Vec<NodeId>, flood: TopicFilter| {
            let mut cfg = broker_cfg(neighbors);
            cfg.flood_topics = vec![flood];
            Box::new(BrokerActor::new(cfg))
        };
        // triangle a - b - c - a
        let a = sim.add_node("a", RealmId(0), mk(vec![], flood.clone()));
        let b = sim.add_node("b", RealmId(0), mk(vec![a], flood.clone()));
        let c = sim.add_node("c", RealmId(0), mk(vec![a, b], flood.clone()));
        sim.run_for(Duration::from_secs(1));
        use crate::client::PubSubClient;
        let client = sim.add_node("cl", RealmId(0), Box::new(PubSubClient::new(a, vec![])));
        sim.run_for(Duration::from_secs(1));
        sim.actor_mut::<PubSubClient>(client)
            .unwrap()
            .queue_publish(Topic::parse("sys/x").unwrap(), vec![1]);
        sim.run_for(Duration::from_secs(2));
        for node in [a, b, c] {
            assert_eq!(sim.actor::<BrokerActor>(node).unwrap().surfaced.len(), 1);
        }
        let total_dupes: u64 = [a, b, c]
            .iter()
            .map(|n| sim.actor::<BrokerActor>(*n).unwrap().broker.duplicates_suppressed)
            .sum();
        assert!(total_dupes >= 1, "the cycle must have produced suppressed duplicates");
    }

    #[test]
    fn client_connect_limit_enforced() {
        use crate::client::PubSubClient;
        let mut sim = quiet_sim();
        let mut cfg = broker_cfg(vec![]);
        cfg.max_clients = Some(1);
        let broker = sim.add_node("bk", RealmId(0), Box::new(BrokerActor::new(cfg)));
        let c1 = sim.add_node("c1", RealmId(0), Box::new(PubSubClient::new(broker, vec![])));
        sim.run_for(Duration::from_secs(1));
        let c2 = sim.add_node("c2", RealmId(0), Box::new(PubSubClient::new(broker, vec![])));
        sim.run_for(Duration::from_secs(1));
        assert!(sim.actor::<PubSubClient>(c1).unwrap().connected());
        assert!(!sim.actor::<PubSubClient>(c2).unwrap().connected());
        assert_eq!(sim.actor::<BrokerActor>(broker).unwrap().broker.num_clients(), 1);
    }

    #[test]
    fn metrics_reflect_connections_and_links() {
        use crate::client::PubSubClient;
        let mut sim = quiet_sim();
        let a = sim.add_node("a", RealmId(0), Box::new(BrokerActor::new(broker_cfg(vec![]))));
        let _b = sim.add_node("b", RealmId(0), Box::new(BrokerActor::new(broker_cfg(vec![a]))));
        let _c1 = sim.add_node("c1", RealmId(0), Box::new(PubSubClient::new(a, vec![])));
        let _c2 = sim.add_node("c2", RealmId(0), Box::new(PubSubClient::new(a, vec![])));
        sim.run_for(Duration::from_secs(2));
        let actor = sim.actor_mut::<BrokerActor>(a).unwrap();
        assert_eq!(actor.broker.num_clients(), 2);
        assert_eq!(actor.broker.num_links(), 1);
    }

    #[test]
    fn v2_links_negotiate_and_route_through_segments() {
        use crate::client::PubSubClient;
        let mut sim = quiet_sim();
        sim.set_wire_v2(Some(nb_net::WireV2Config::default()));
        let mk = |neighbors: Vec<NodeId>| {
            let cfg = BrokerConfig { wire_v2: true, ..broker_cfg(neighbors) };
            Box::new(BrokerActor::new(cfg))
        };
        let a = sim.add_node("a", RealmId(0), mk(vec![]));
        let b = sim.add_node("b", RealmId(0), mk(vec![a]));
        let sub_filter = TopicFilter::parse("sports/*").unwrap();
        let subscriber =
            sim.add_node("sub", RealmId(0), Box::new(PubSubClient::new(a, vec![sub_filter])));
        let publisher = sim.add_node("pub", RealmId(0), Box::new(PubSubClient::new(b, vec![])));
        sim.run_for(Duration::from_secs(2));
        assert!(sim.actor::<BrokerActor>(a).unwrap().broker.is_linked(b));
        {
            let p = sim.actor_mut::<PubSubClient>(publisher).unwrap();
            p.queue_publish(Topic::parse("sports/nba").unwrap(), b"42".to_vec());
        }
        sim.run_for(Duration::from_secs(8));
        let s = sim.actor::<PubSubClient>(subscriber).unwrap();
        assert_eq!(s.received.len(), 1, "event crossed the v2 link");
        assert_eq!(s.received[0].topic.as_str(), "sports/nba");
        // Broker-to-broker traffic (interest advertisement, heartbeats,
        // the forwarded publish) travelled in coalesced segments...
        assert!(sim.stats().segments_delivered > 0, "no segments crossed the overlay");
        assert!(sim.stats().frames_coalesced > 0);
        assert_eq!(sim.stats().segment_decode_errors, 0);
    }

    #[test]
    fn v1_peer_on_a_v2_broker_stays_on_v1() {
        let mut sim = quiet_sim();
        sim.set_wire_v2(Some(nb_net::WireV2Config::default()));
        // Only `b` is v2-configured; `a` never announces, so the link
        // negotiates down to v1 and no segments flow.
        let a = sim.add_node("a", RealmId(0), Box::new(BrokerActor::new(broker_cfg(vec![]))));
        let b_cfg = BrokerConfig { wire_v2: true, ..broker_cfg(vec![a]) };
        let b = sim.add_node("b", RealmId(0), Box::new(BrokerActor::new(b_cfg)));
        sim.run_for(Duration::from_secs(10));
        assert!(sim.actor::<BrokerActor>(a).unwrap().broker.is_linked(b));
        assert!(sim.actor::<BrokerActor>(b).unwrap().broker.is_linked(a));
        assert_eq!(sim.stats().segments_sent, 0, "mixed-version link must stay v1");
    }

    #[test]
    fn interest_snapshot_tracks_oracle() {
        use crate::client::PubSubClient;
        let mut sim = quiet_sim();
        let a = sim.add_node("a", RealmId(0), Box::new(BrokerActor::new(broker_cfg(vec![]))));
        let b = sim.add_node("b", RealmId(0), Box::new(BrokerActor::new(broker_cfg(vec![a]))));
        let f1 = TopicFilter::parse("sports/*").unwrap();
        let f2 = TopicFilter::parse("news/**").unwrap();
        let _s1 = sim.add_node("s1", RealmId(0), Box::new(PubSubClient::new(a, vec![f1])));
        let _s2 = sim.add_node("s2", RealmId(0), Box::new(PubSubClient::new(b, vec![f2])));
        sim.run_for(Duration::from_secs(2));
        // Growth: both brokers hold local + link-learned interest.
        for node in [a, b] {
            let broker = &mut sim.actor_mut::<BrokerActor>(node).unwrap().broker;
            let snap = broker.shared_interest_filters();
            assert_eq!(snap.to_vec(), broker.interest_filters(), "snapshot == oracle after growth");
            assert_eq!(snap.len(), 2);
            // A second call shares the same allocation (memoized).
            assert!(Arc::ptr_eq(&snap, &broker.shared_interest_filters()));
        }
        // Shrink: kill b, let a's heartbeats reap the link and its
        // interest contribution — the snapshot must follow.
        sim.crash(b);
        sim.run_for(Duration::from_secs(30));
        let broker = &mut sim.actor_mut::<BrokerActor>(a).unwrap().broker;
        let oracle = broker.interest_filters();
        assert_eq!(oracle.len(), 1, "link-learned filter must be gone");
        assert_eq!(broker.shared_interest_filters().to_vec(), oracle, "snapshot == oracle after shrink");
    }

    #[test]
    fn config_file_overrides_apply() {
        let cfg_text = "\
broker.hostname = complexity.ucs.indiana.edu
broker.dedup.capacity = 64
broker.heartbeat.interval.ms = 500
broker.heartbeat.misses = 5
broker.max_clients = 7
broker.wire.v2 = true
";
        let parsed = nb_util::Config::parse(cfg_text).unwrap();
        let cfg = BrokerConfig::default().apply_config(&parsed).unwrap();
        assert_eq!(cfg.hostname, "complexity.ucs.indiana.edu");
        assert_eq!(cfg.dedup_capacity, 64);
        assert_eq!(cfg.heartbeat_interval, Duration::from_millis(500));
        assert_eq!(cfg.heartbeat_misses, 5);
        assert_eq!(cfg.max_clients, Some(7));
        assert!(cfg.wire_v2);
    }
}
