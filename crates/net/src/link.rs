//! Link models: latency, jitter, loss, realm-scoped multicast membership
//! and TCP-like stream bookkeeping.
//!
//! The model is deliberately simple and explicit — discovery time is
//! dominated by propagation latency, datagram loss and topology, so those
//! are what we model. Loss applies to datagrams only; streams are
//! reliable but pay connection setup (one RTT on first use) and preserve
//! per-connection ordering.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use nb_wire::{Endpoint, GroupId, NodeId, RealmId};
use rand::Rng;

use crate::time::SimTime;

/// One direction of a network path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Base one-way latency.
    pub latency: Duration,
    /// Uniform jitter: each packet adds `U(0, jitter)`.
    pub jitter: Duration,
    /// Probability an individual datagram is lost.
    pub loss: f64,
    /// Link bandwidth in bytes/second (`None` = unlimited). Messages pay
    /// a serialisation delay of `len / bandwidth`, and back-to-back sends
    /// from the same node to the same peer queue behind one another.
    pub bandwidth: Option<u64>,
}

impl LinkSpec {
    /// Loopback within a single machine.
    pub fn local() -> LinkSpec {
        LinkSpec {
            latency: Duration::from_micros(20),
            jitter: Duration::from_micros(10),
            loss: 0.0,
            bandwidth: None,
        }
    }

    /// A LAN hop within one realm (100 Mbit/s, 2005-era switched LAN).
    pub fn lan() -> LinkSpec {
        LinkSpec {
            latency: Duration::from_micros(300),
            jitter: Duration::from_micros(150),
            loss: 0.0005,
            bandwidth: Some(12_500_000),
        }
    }

    /// A WAN path with the given one-way latency. Jitter scales to 10% of
    /// latency; loss grows with distance (~0.1% per 25 ms), modelling the
    /// paper's observation that responses crossing more router hops are
    /// likelier to be lost. Bandwidth defaults to 10 Mbit/s (a 2005-era
    /// academic WAN path's per-flow share).
    pub fn wan(one_way: Duration) -> LinkSpec {
        let ms = one_way.as_secs_f64() * 1e3;
        LinkSpec {
            latency: one_way,
            jitter: one_way.mul_f64(0.10),
            loss: (0.001 * ms / 25.0).min(0.05),
            bandwidth: Some(1_250_000),
        }
    }

    /// Serialisation delay for a message of `len` bytes.
    pub fn transmission_delay(&self, len: usize) -> Duration {
        match self.bandwidth {
            None => Duration::ZERO,
            Some(bw) => Duration::from_nanos(
                ((len as u128).saturating_mul(1_000_000_000) / u128::from(bw.max(1))) as u64,
            ),
        }
    }

    /// Replaces the loss probability.
    pub fn with_loss(mut self, loss: f64) -> LinkSpec {
        self.loss = loss;
        self
    }

    /// Replaces the jitter.
    pub fn with_jitter(mut self, jitter: Duration) -> LinkSpec {
        self.jitter = jitter;
        self
    }

    /// Samples a one-way latency for one packet.
    pub fn sample_latency<R: Rng + ?Sized>(&self, rng: &mut R) -> Duration {
        let j = self.jitter.as_nanos() as u64;
        if j == 0 {
            self.latency
        } else {
            self.latency + Duration::from_nanos(rng.gen_range(0..=j))
        }
    }

    /// Samples whether a datagram is lost.
    pub fn sample_loss<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        self.loss > 0.0 && rng.gen::<f64>() < self.loss
    }
}

/// The outcome of sending one datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatagramFate {
    /// Delivered after the given one-way delay.
    Deliver(Duration),
    /// Lost in transit.
    Lost,
    /// No path (partition or unknown node).
    Unreachable,
}

/// The static network model: who is where, and what the paths look like.
///
/// All interior collections are ordered (`BTreeMap`/`BTreeSet`) so that
/// every sweep or fan-out over them is deterministic regardless of
/// insertion history (lint rule D002).
#[derive(Debug, Clone)]
pub struct NetworkModel {
    realms: BTreeMap<NodeId, RealmId>,
    overrides: BTreeMap<(NodeId, NodeId), LinkSpec>,
    partitions: BTreeSet<(NodeId, NodeId)>,
    /// Directed severed paths `(from, to)` — asymmetric partitions where
    /// traffic one way is black-holed while replies still flow.
    directed_partitions: BTreeSet<(NodeId, NodeId)>,
    groups: BTreeMap<GroupId, BTreeSet<NodeId>>,
    /// Path used within a node (loopback).
    pub local_spec: LinkSpec,
    /// Default path between nodes sharing a realm.
    pub intra_realm_spec: LinkSpec,
    /// Default path between realms (overridden per pair for WAN scenarios).
    pub inter_realm_spec: LinkSpec,
    /// Whether multicast delivery works at all. Networks without
    /// multicast routing (the common WAN case in the paper) set this
    /// false: sends succeed but reach nobody.
    pub multicast_enabled: bool,
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel::new()
    }
}

impl NetworkModel {
    /// A model with loopback/LAN/WAN defaults and no nodes.
    pub fn new() -> NetworkModel {
        NetworkModel {
            realms: BTreeMap::new(),
            overrides: BTreeMap::new(),
            partitions: BTreeSet::new(),
            directed_partitions: BTreeSet::new(),
            groups: BTreeMap::new(),
            local_spec: LinkSpec::local(),
            intra_realm_spec: LinkSpec::lan(),
            inter_realm_spec: LinkSpec::wan(Duration::from_millis(40)),
            multicast_enabled: true,
        }
    }

    /// Registers a node in a realm. Must be called before traffic flows.
    pub fn register_node(&mut self, node: NodeId, realm: RealmId) {
        self.realms.insert(node, realm);
    }

    /// The realm a node lives in, if registered.
    pub fn realm_of(&self, node: NodeId) -> Option<RealmId> {
        self.realms.get(&node).copied()
    }

    fn key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Overrides the path between `a` and `b` (symmetric).
    pub fn set_link(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) {
        self.overrides.insert(Self::key(a, b), spec);
    }

    /// Severs the path between `a` and `b` (fault injection).
    pub fn partition(&mut self, a: NodeId, b: NodeId) {
        self.partitions.insert(Self::key(a, b));
    }

    /// Restores a severed path.
    pub fn heal(&mut self, a: NodeId, b: NodeId) {
        self.partitions.remove(&Self::key(a, b));
    }

    /// Whether `a`↔`b` is currently severed.
    pub fn is_partitioned(&self, a: NodeId, b: NodeId) -> bool {
        self.partitions.contains(&Self::key(a, b))
    }

    /// Severs only the directed path `from -> to` (asymmetric fault:
    /// `to` can still send back to `from`).
    pub fn partition_one_way(&mut self, from: NodeId, to: NodeId) {
        self.directed_partitions.insert((from, to));
    }

    /// Restores the directed path `from -> to`.
    pub fn heal_one_way(&mut self, from: NodeId, to: NodeId) {
        self.directed_partitions.remove(&(from, to));
    }

    /// Whether traffic `from -> to` is blocked by any partition,
    /// symmetric or directed.
    pub fn path_blocked(&self, from: NodeId, to: NodeId) -> bool {
        self.is_partitioned(from, to) || self.directed_partitions.contains(&(from, to))
    }

    /// The effective path spec for traffic `a -> b`, or `None` when
    /// unreachable (partitioned or unregistered).
    pub fn spec_between(&self, a: NodeId, b: NodeId) -> Option<LinkSpec> {
        if self.path_blocked(a, b) {
            return None;
        }
        if let Some(s) = self.overrides.get(&Self::key(a, b)) {
            return Some(*s);
        }
        if a == b {
            return Some(self.local_spec);
        }
        let (ra, rb) = (self.realm_of(a)?, self.realm_of(b)?);
        Some(if ra == rb { self.intra_realm_spec } else { self.inter_realm_spec })
    }

    /// Rolls the dice for one datagram from `a` to `b`.
    pub fn datagram_fate<R: Rng + ?Sized>(&self, a: NodeId, b: NodeId, rng: &mut R) -> DatagramFate {
        match self.spec_between(a, b) {
            None => DatagramFate::Unreachable,
            Some(spec) => {
                if spec.sample_loss(rng) {
                    DatagramFate::Lost
                } else {
                    DatagramFate::Deliver(spec.sample_latency(rng))
                }
            }
        }
    }

    /// Samples a one-way latency for a reliable stream message (no loss;
    /// retransmission cost is folded into jitter). Streams need both
    /// directions — ACKs must flow — so a directed partition either way
    /// stalls them.
    pub fn stream_latency<R: Rng + ?Sized>(
        &self,
        a: NodeId,
        b: NodeId,
        rng: &mut R,
    ) -> Option<Duration> {
        if self.directed_partitions.contains(&(b, a)) {
            return None;
        }
        self.spec_between(a, b).map(|spec| spec.sample_latency(rng))
    }

    /// Adds `node` to `group`.
    pub fn join_group(&mut self, group: GroupId, node: NodeId) {
        self.groups.entry(group).or_default().insert(node);
    }

    /// Removes `node` from `group`.
    pub fn leave_group(&mut self, group: GroupId, node: NodeId) {
        if let Some(members) = self.groups.get_mut(&group) {
            members.remove(&node);
        }
    }

    /// Scales the loss probability of every path (defaults and per-pair
    /// overrides) by `factor`, clamping at 1.0. Used by loss-sensitivity
    /// ablations.
    pub fn scale_loss(&mut self, factor: f64) {
        let scale = |spec: &mut LinkSpec| spec.loss = (spec.loss * factor).clamp(0.0, 1.0);
        scale(&mut self.local_spec);
        scale(&mut self.intra_realm_spec);
        scale(&mut self.inter_realm_spec);
        for spec in self.overrides.values_mut() {
            scale(spec);
        }
    }

    /// The smallest base latency any message between two *distinct*
    /// nodes can experience: the minimum over the intra-realm and
    /// inter-realm defaults and every distinct-pair override. This is
    /// the conservative lookahead window of the sharded engine
    /// ([`crate::shard::ShardedSim`]): no event executed at time `t` can
    /// schedule a cross-node delivery earlier than `t + min_latency`
    /// (jitter, bandwidth serialisation and stream setup only add
    /// delay). The loopback spec is deliberately excluded — self-sends
    /// never cross a shard boundary.
    pub fn min_cross_node_latency(&self) -> Duration {
        let mut min = self.intra_realm_spec.latency.min(self.inter_realm_spec.latency);
        for ((a, b), spec) in &self.overrides {
            if a != b && spec.latency < min {
                min = spec.latency;
            }
        }
        min
    }

    /// Explicit per-pair link overrides, ascending by normalised
    /// `(low, high)` key. Sparse-topology consumers — the shard planner
    /// above ~2k nodes, topology generators — walk this instead of
    /// probing all O(n²) pairs through [`NetworkModel::spec_between`].
    pub fn link_overrides(&self) -> impl Iterator<Item = (NodeId, NodeId, &LinkSpec)> + '_ {
        self.overrides.iter().map(|(&(a, b), s)| (a, b, s))
    }

    /// Registered nodes and their realms, ascending by node id.
    pub fn registered_nodes(&self) -> impl Iterator<Item = (NodeId, RealmId)> + '_ {
        self.realms.iter().map(|(&n, &r)| (n, r))
    }

    /// Multicast recipients for a sender: members of `group` in the
    /// sender's realm, excluding the sender itself. Multicast never
    /// crosses realms.
    pub fn multicast_recipients(&self, group: GroupId, sender: NodeId) -> Vec<NodeId> {
        if !self.multicast_enabled {
            return Vec::new();
        }
        let Some(sender_realm) = self.realm_of(sender) else {
            return Vec::new();
        };
        let Some(members) = self.groups.get(&group) else {
            return Vec::new();
        };
        // `members` is a BTreeSet, so iteration is already ascending:
        // the fan-out order is deterministic without an explicit sort.
        members
            .iter()
            .copied()
            .filter(|&n| n != sender && self.realm_of(n) == Some(sender_realm))
            .collect()
    }
}

/// Per directed node pair, the instant the sender's wire is free: a
/// message of `len` bytes occupies the wire for `transmission_delay(len)`
/// starting no earlier than the previous message finished serialising.
#[derive(Debug, Default, Clone)]
pub struct WireBook {
    free_at: BTreeMap<(NodeId, NodeId), SimTime>,
}

impl WireBook {
    /// An idle wire book.
    pub fn new() -> WireBook {
        WireBook::default()
    }

    /// Computes when a `len`-byte message sent at `now` finishes
    /// serialising onto the wire, updating the book.
    pub fn serialize(
        &mut self,
        from: NodeId,
        to: NodeId,
        now: SimTime,
        len: usize,
        spec: &LinkSpec,
    ) -> SimTime {
        let tx = spec.transmission_delay(len);
        let entry = self.free_at.entry((from, to)).or_insert(SimTime::ZERO);
        let start = if *entry > now { *entry } else { now };
        let done = start + tx;
        *entry = done;
        done
    }

    /// Drops queueing state involving `node` (crash/restart).
    pub fn reset_node(&mut self, node: NodeId) {
        self.free_at.retain(|(a, b), _| *a != node && *b != node);
    }
}

/// Dynamic per-runtime stream (TCP) state: which connections are
/// established and the ordering clamp per direction.
#[derive(Debug, Default, Clone)]
pub struct StreamBook {
    established: BTreeSet<(Endpoint, Endpoint)>,
    last_arrival: BTreeMap<(Endpoint, Endpoint), SimTime>,
}

impl StreamBook {
    /// A book with no connections.
    pub fn new() -> StreamBook {
        StreamBook::default()
    }

    /// Computes the arrival time of a stream message sent `now` with a
    /// sampled `one_way` latency, charging connection setup (two extra
    /// one-way trips: SYN + SYN-ACK) on first use of the pair and
    /// enforcing in-order delivery per direction.
    pub fn delivery_time(
        &mut self,
        from: Endpoint,
        to: Endpoint,
        now: SimTime,
        one_way: Duration,
    ) -> SimTime {
        let key = (from, to);
        let mut arrival = now + one_way;
        if !self.established.contains(&key) {
            // Full-duplex: establishing a->b also establishes b->a.
            self.established.insert(key);
            self.established.insert((to, from));
            arrival += one_way + one_way;
        }
        if let Some(&last) = self.last_arrival.get(&key) {
            if arrival < last {
                arrival = last;
            }
        }
        self.last_arrival.insert(key, arrival);
        arrival
    }

    /// Whether `from -> to` has an established connection.
    pub fn is_established(&self, from: Endpoint, to: Endpoint) -> bool {
        self.established.contains(&(from, to))
    }

    /// Records `a <-> b` as established without charging setup, in both
    /// directions. The engine keeps one book per node: the sender's book
    /// charges the handshake, and the receiver marks the pair established
    /// when the first framed message arrives (accepting a connection
    /// establishes it server-side), so its replies skip the setup RTTs.
    pub fn mark_established(&mut self, a: Endpoint, b: Endpoint) {
        // Both directions always enter and leave the book together, so
        // a known `a -> b` means `b -> a` is there too.
        if self.established.insert((a, b)) {
            self.established.insert((b, a));
        }
    }

    /// Drops all connection state involving `node` (crash/restart).
    pub fn reset_node(&mut self, node: NodeId) {
        self.established.retain(|(a, b)| a.node != node && b.node != node);
        self.last_arrival.retain(|(a, b), _| a.node != node && b.node != node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nb_wire::Port;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn model_with(n: u32) -> NetworkModel {
        let mut m = NetworkModel::new();
        for i in 0..n {
            m.register_node(NodeId(i), RealmId((i % 2) as u16));
        }
        m
    }

    #[test]
    fn defaults_by_realm() {
        let m = model_with(4);
        // 0 and 2 share realm 0 -> LAN
        assert_eq!(m.spec_between(NodeId(0), NodeId(2)).unwrap(), m.intra_realm_spec);
        // 0 and 1 differ -> WAN
        assert_eq!(m.spec_between(NodeId(0), NodeId(1)).unwrap(), m.inter_realm_spec);
        // loopback
        assert_eq!(m.spec_between(NodeId(0), NodeId(0)).unwrap(), m.local_spec);
        // unregistered
        assert!(m.spec_between(NodeId(0), NodeId(99)).is_none());
    }

    #[test]
    fn overrides_and_partitions() {
        let mut m = model_with(2);
        let fast = LinkSpec::wan(Duration::from_millis(5));
        m.set_link(NodeId(0), NodeId(1), fast);
        assert_eq!(m.spec_between(NodeId(1), NodeId(0)).unwrap(), fast);
        m.partition(NodeId(0), NodeId(1));
        assert!(m.spec_between(NodeId(0), NodeId(1)).is_none());
        assert_eq!(m.datagram_fate(NodeId(0), NodeId(1), &mut rng()), DatagramFate::Unreachable);
        m.heal(NodeId(0), NodeId(1));
        assert_eq!(m.spec_between(NodeId(0), NodeId(1)).unwrap(), fast);
    }

    #[test]
    fn latency_sampling_within_bounds() {
        let spec = LinkSpec::wan(Duration::from_millis(50));
        let mut r = rng();
        for _ in 0..1000 {
            let l = spec.sample_latency(&mut r);
            assert!(l >= spec.latency);
            assert!(l <= spec.latency + spec.jitter);
        }
    }

    #[test]
    fn loss_rate_roughly_matches() {
        let spec = LinkSpec::local().with_loss(0.3);
        let mut r = rng();
        let lost = (0..20_000).filter(|_| spec.sample_loss(&mut r)).count();
        let rate = lost as f64 / 20_000.0;
        assert!((rate - 0.3).abs() < 0.02, "observed loss {rate}");
    }

    #[test]
    fn wan_loss_grows_with_distance() {
        let near = LinkSpec::wan(Duration::from_millis(5));
        let far = LinkSpec::wan(Duration::from_millis(100));
        assert!(far.loss > near.loss);
        assert!(far.loss <= 0.05);
    }

    #[test]
    fn multicast_is_realm_scoped_and_excludes_sender() {
        let mut m = model_with(6); // realms: even->0, odd->1
        let g = GroupId(9);
        for i in 0..6 {
            m.join_group(g, NodeId(i));
        }
        let got = m.multicast_recipients(g, NodeId(0));
        assert_eq!(got, vec![NodeId(2), NodeId(4)]);
        m.leave_group(g, NodeId(2));
        assert_eq!(m.multicast_recipients(g, NodeId(0)), vec![NodeId(4)]);
        // sender not in the group still reaches members in its realm
        assert_eq!(m.multicast_recipients(g, NodeId(4)), vec![NodeId(0)]);
    }

    #[test]
    fn stream_book_charges_setup_once() {
        let mut book = StreamBook::new();
        let a = Endpoint::new(NodeId(0), Port(1));
        let b = Endpoint::new(NodeId(1), Port(2));
        let lat = Duration::from_millis(10);
        let t1 = book.delivery_time(a, b, SimTime::ZERO, lat);
        assert_eq!(t1.as_millis(), 30); // 1 data + 2 setup trips
        let t2 = book.delivery_time(a, b, t1, lat);
        assert_eq!(t2.as_millis(), 40); // established now
        // reverse direction was established by the handshake
        let t3 = book.delivery_time(b, a, SimTime::from_millis(35), lat);
        assert_eq!(t3.as_millis(), 45);
    }

    #[test]
    fn stream_book_enforces_ordering() {
        let mut book = StreamBook::new();
        let a = Endpoint::new(NodeId(0), Port(1));
        let b = Endpoint::new(NodeId(1), Port(2));
        let t1 = book.delivery_time(a, b, SimTime::ZERO, Duration::from_millis(50));
        // Second message sent later but with much lower sampled latency
        // must not overtake the first.
        let t2 = book.delivery_time(a, b, SimTime::from_millis(60), Duration::from_millis(1));
        assert!(t2 >= t1);
    }

    #[test]
    fn stream_book_reset_node_forces_new_handshake() {
        let mut book = StreamBook::new();
        let a = Endpoint::new(NodeId(0), Port(1));
        let b = Endpoint::new(NodeId(1), Port(2));
        book.delivery_time(a, b, SimTime::ZERO, Duration::from_millis(10));
        assert!(book.is_established(a, b));
        book.reset_node(NodeId(1));
        assert!(!book.is_established(a, b));
        let t = book.delivery_time(a, b, SimTime::from_millis(100), Duration::from_millis(10));
        assert_eq!(t.as_millis(), 130); // setup charged again
    }
}

#[cfg(test)]
mod bandwidth_tests {
    use super::*;
    use nb_wire::NodeId;
    use std::time::Duration;

    #[test]
    fn transmission_delay_math() {
        let spec = LinkSpec::lan(); // 12.5 MB/s
        assert_eq!(spec.transmission_delay(0), Duration::ZERO);
        assert_eq!(spec.transmission_delay(12_500_000), Duration::from_secs(1));
        assert_eq!(spec.transmission_delay(1_250), Duration::from_micros(100));
        let unlimited = LinkSpec::local();
        assert_eq!(unlimited.transmission_delay(1 << 30), Duration::ZERO);
    }

    #[test]
    fn wire_book_serialises_back_to_back_sends() {
        let mut book = WireBook::new();
        let spec = LinkSpec::wan(Duration::from_millis(10)); // 1.25 MB/s
        let (a, b) = (NodeId(0), NodeId(1));
        // Two 125 KB messages sent at t=0: the second queues behind the
        // first (100 ms serialisation each).
        let d1 = book.serialize(a, b, SimTime::ZERO, 125_000, &spec);
        let d2 = book.serialize(a, b, SimTime::ZERO, 125_000, &spec);
        assert_eq!(d1.as_millis(), 100);
        assert_eq!(d2.as_millis(), 200);
        // A different destination has its own wire.
        let d3 = book.serialize(a, NodeId(2), SimTime::ZERO, 125_000, &spec);
        assert_eq!(d3.as_millis(), 100);
        // After the wire drains, sends start fresh.
        let d4 = book.serialize(a, b, SimTime::from_millis(500), 125_000, &spec);
        assert_eq!(d4.as_millis(), 600);
    }

    #[test]
    fn wire_book_reset_clears_node_state() {
        let mut book = WireBook::new();
        let spec = LinkSpec::wan(Duration::from_millis(10));
        book.serialize(NodeId(0), NodeId(1), SimTime::ZERO, 1_250_000, &spec); // busy 1s
        book.reset_node(NodeId(1));
        let d = book.serialize(NodeId(0), NodeId(1), SimTime::ZERO, 1_250, &spec);
        assert_eq!(d.as_millis(), 1, "queue state was cleared");
    }
}
