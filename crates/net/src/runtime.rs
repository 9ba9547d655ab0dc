//! The actor abstraction all protocol logic is written against.
//!
//! Brokers, BDNs, discovery clients, NTP servers — every node is an
//! [`Actor`]: a state machine that reacts to [`Incoming`] events and acts
//! on the world exclusively through a [`Context`]. The same actor code
//! runs unmodified under the discrete-event engine ([`crate::shard::ShardedSim`])
//! and the wall-clock threaded runtime ([`crate::threaded::ThreadedNet`]).

use std::any::Any;
use std::time::Duration;

use nb_wire::{Endpoint, GroupId, Message, NodeId, Port, RealmId, WireMsg};
use rand::RngCore;

use crate::time::SimTime;

/// An event delivered to an actor.
#[derive(Debug, Clone)]
pub enum Incoming {
    /// A UDP or multicast datagram arrived.
    Datagram {
        /// The sender's endpoint (source node + source port).
        from: Endpoint,
        /// The local port it arrived on.
        to_port: Port,
        /// The decoded payload, still attached to its wire frame so the
        /// receiver can peek or re-forward without re-encoding.
        msg: WireMsg,
    },
    /// One framed message arrived on a reliable (TCP-like) stream.
    Stream {
        /// The sender's endpoint.
        from: Endpoint,
        /// The local port it arrived on.
        to_port: Port,
        /// The decoded payload, still attached to its wire frame.
        msg: WireMsg,
    },
    /// A timer set via [`Context::set_timer`] fired.
    Timer {
        /// The caller-chosen token identifying the timer.
        token: u64,
    },
    /// The node's NTP service finished initialising; UTC estimates are
    /// now accurate to the configured residual.
    ClockSynced,
}

/// A node's interface to the world. Implemented by both runtimes.
pub trait Context {
    /// This node's identity.
    fn me(&self) -> NodeId;

    /// This node's network realm.
    fn realm(&self) -> RealmId;

    /// The node-local *monotonic* clock. Correct for measuring durations;
    /// not comparable across nodes.
    fn now(&self) -> SimTime;

    /// The node's current UTC estimate, in microseconds. Before NTP sync
    /// this can be off by seconds; afterwards by the NTP residual
    /// (1–20 ms under the paper's profile).
    fn utc_micros(&self) -> u64;

    /// Whether the node's NTP service has finished initialising.
    fn clock_synced(&self) -> bool;

    /// The node's *raw* local clock (µs), uncorrected by any NTP
    /// estimate. This is what a wire-level NTP client timestamps its
    /// exchanges with.
    fn raw_local_micros(&self) -> u64;

    /// Overrides the clock-offset estimate (ns). Used by the wire-level
    /// NTP client once it has computed an offset from server exchanges.
    fn set_clock_estimate_ns(&mut self, est_offset_ns: i64);

    /// Sends `msg` as an unreliable datagram from local `from_port`.
    fn send_udp(&mut self, from_port: Port, to: Endpoint, msg: &Message);

    /// Sends `msg` on a reliable, ordered stream from local `from_port`.
    /// Connection setup (one extra RTT) is modelled on first use of a
    /// `(local endpoint, remote endpoint)` pair.
    fn send_stream(&mut self, from_port: Port, to: Endpoint, msg: &Message);

    /// Sends an already-wrapped [`WireMsg`] as a datagram. Fan-out paths
    /// use this so the frame is encoded once and every send clones the
    /// handle. The default delegates to [`Context::send_udp`] (decoded
    /// message, legacy encode) so test doubles keep working unmodified;
    /// both runtimes override it with a zero-copy path.
    fn send_udp_wire(&mut self, from_port: Port, to: Endpoint, msg: &WireMsg) {
        self.send_udp(from_port, to, msg.message());
    }

    /// Stream counterpart of [`Context::send_udp_wire`].
    fn send_stream_wire(&mut self, from_port: Port, to: Endpoint, msg: &WireMsg) {
        self.send_stream(from_port, to, msg.message());
    }

    /// Sends on a reliable stream, preferring the negotiated v2 compact
    /// codec: when the runtime has v2 enabled, messages queued to the
    /// same link within one dispatch coalesce into multi-frame segments
    /// and topic symbols sync lazily per link. Callers use this only
    /// for peers that announced v2 capability on their link handshake.
    /// The default falls back to the per-message v1 stream path, so
    /// runtimes and test doubles without v2 support keep working
    /// unmodified.
    fn send_stream_v2(&mut self, from_port: Port, to: Endpoint, msg: &WireMsg) {
        self.send_stream_wire(from_port, to, msg);
    }

    /// Multicasts `msg` to every member of `group` within this node's
    /// realm. Cross-realm members never receive it (paper §9: "multicast
    /// was disabled for network traffic outside the lab").
    fn send_multicast(&mut self, from_port: Port, group: GroupId, to_port: Port, msg: &Message);

    /// Joins a multicast group (idempotent).
    fn join_group(&mut self, group: GroupId);

    /// Leaves a multicast group.
    fn leave_group(&mut self, group: GroupId);

    /// Arms a one-shot timer firing `delay` from now, identified by
    /// `token`. Re-arming an armed token replaces it.
    fn set_timer(&mut self, delay: Duration, token: u64);

    /// Cancels the timer with `token`, if armed.
    fn cancel_timer(&mut self, token: u64);

    /// Deterministic per-run randomness.
    fn rng(&mut self) -> &mut dyn RngCore;
}

/// A protocol state machine bound to one node.
pub trait Actor: Send + 'static {
    /// Invoked once when the node starts.
    fn on_start(&mut self, _ctx: &mut dyn Context) {}

    /// Invoked for every incoming event.
    fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context);

    /// Downcasting support so harnesses can inspect actor state after a
    /// run. Implementations are one-liners returning `self`.
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcasting support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Implements the two `as_any` boilerplate methods for an actor type.
#[macro_export]
macro_rules! impl_actor_any {
    () => {
        fn as_any(&self) -> &dyn ::std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn ::std::any::Any {
            self
        }
    };
}

/// A no-op actor: joins nothing, answers nothing. Handy as a placeholder
/// node in topology tests.
#[derive(Debug, Default)]
pub struct IdleActor;

impl Actor for IdleActor {
    fn on_incoming(&mut self, _event: Incoming, _ctx: &mut dyn Context) {}
    impl_actor_any!();
}
