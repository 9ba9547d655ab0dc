//! Reliable delivery over lossy datagram transports.
//!
//! The substrate's "reliable delivery" service (§1, reference \[5\] of the
//! paper): a sequenced channel between one sender and one receiver.
//! Payloads carry monotonically increasing sequence numbers; the
//! receiver delivers them **in order, exactly once**, acknowledging with
//! a cumulative sequence number; the sender retransmits everything
//! unacknowledged on a timer. Both halves are embeddable state machines
//! in the style of `nb_net::ntp::NtpClient`.

use std::collections::BTreeMap;
use std::time::Duration;

use bytes::Bytes;
use nb_util::Uuid;
use nb_wire::{Endpoint, Message, Port};

use nb_net::{Context, Incoming};

/// The sending half of a reliable channel.
#[derive(Debug)]
pub struct ReliableSender {
    channel: Uuid,
    peer: Endpoint,
    from_port: Port,
    retransmit_after: Duration,
    timer_token: u64,
    next_seq: u64,
    unacked: BTreeMap<u64, Bytes>,
    timer_armed: bool,
    /// Payloads handed to [`ReliableSender::send`].
    pub sent: u64,
    /// Retransmissions performed.
    pub retransmitted: u64,
    /// Highest cumulative ack received.
    pub acked_through: u64,
}

impl ReliableSender {
    /// A sender on `channel` towards `peer`, transmitting from
    /// `from_port` and retransmitting unacked payloads every
    /// `retransmit_after` (timer identified by `timer_token`).
    pub fn new(
        channel: Uuid,
        peer: Endpoint,
        from_port: Port,
        retransmit_after: Duration,
        timer_token: u64,
    ) -> ReliableSender {
        ReliableSender {
            channel,
            peer,
            from_port,
            retransmit_after,
            timer_token,
            next_seq: 1,
            unacked: BTreeMap::new(),
            timer_armed: false,
            sent: 0,
            retransmitted: 0,
            acked_through: 0,
        }
    }

    /// Number of payloads awaiting acknowledgement.
    pub fn in_flight(&self) -> usize {
        self.unacked.len()
    }

    /// Whether everything sent has been acknowledged.
    pub fn fully_acked(&self) -> bool {
        self.unacked.is_empty()
    }

    /// Sends `payload` with the next sequence number. The bytes are
    /// stored behind a refcounted handle, so retransmissions and the
    /// retained copy share one buffer.
    pub fn send(&mut self, payload: impl Into<Bytes>, ctx: &mut dyn Context) -> u64 {
        let payload: Bytes = payload.into();
        let seq = self.next_seq;
        self.next_seq += 1;
        self.sent += 1;
        let msg = Message::ReliableData { channel: self.channel, seq, payload: payload.clone() };
        ctx.send_udp(self.from_port, self.peer, &msg);
        self.unacked.insert(seq, payload);
        self.arm(ctx);
        seq
    }

    fn arm(&mut self, ctx: &mut dyn Context) {
        if !self.timer_armed {
            self.timer_armed = true;
            ctx.set_timer(self.retransmit_after, self.timer_token);
        }
    }

    /// Feeds an event; returns `true` if it belonged to this channel.
    pub fn handle(&mut self, event: &Incoming, ctx: &mut dyn Context) -> bool {
        match event {
            Incoming::Datagram { msg, .. }
                if matches!(*msg.message(),
                    Message::ReliableAck { channel, .. } if channel == self.channel) =>
            {
                let Message::ReliableAck { cumulative, .. } = *msg.message() else {
                    return false;
                };
                self.acked_through = self.acked_through.max(cumulative);
                self.unacked = self.unacked.split_off(&(cumulative + 1));
                true
            }
            Incoming::Timer { token } if *token == self.timer_token => {
                self.timer_armed = false;
                if !self.unacked.is_empty() {
                    for (&seq, payload) in &self.unacked {
                        let msg = Message::ReliableData {
                            channel: self.channel,
                            seq,
                            payload: payload.clone(),
                        };
                        ctx.send_udp(self.from_port, self.peer, &msg);
                        self.retransmitted += 1;
                    }
                    self.arm(ctx);
                }
                true
            }
            _ => false,
        }
    }
}

/// The receiving half of a reliable channel.
#[derive(Debug)]
pub struct ReliableReceiver {
    channel: Uuid,
    from_port: Port,
    expected: u64,
    out_of_order: BTreeMap<u64, Bytes>,
    /// Payloads delivered in order.
    pub delivered: u64,
    /// Duplicate transmissions discarded.
    pub duplicates: u64,
}

impl ReliableReceiver {
    /// A receiver for `channel`, acking from `from_port`.
    pub fn new(channel: Uuid, from_port: Port) -> ReliableReceiver {
        ReliableReceiver {
            channel,
            from_port,
            expected: 1,
            out_of_order: BTreeMap::new(),
            delivered: 0,
            duplicates: 0,
        }
    }

    /// Highest contiguously delivered sequence number.
    pub fn cumulative(&self) -> u64 {
        self.expected - 1
    }

    /// Feeds an event; returns the in-order payloads this datagram
    /// released (empty for out-of-order/duplicate/foreign traffic).
    pub fn handle(&mut self, event: &Incoming, ctx: &mut dyn Context) -> Vec<Bytes> {
        let Incoming::Datagram { from, msg, .. } = event else {
            return Vec::new();
        };
        let Message::ReliableData { channel, seq, payload } = msg.message() else {
            return Vec::new();
        };
        if *channel != self.channel {
            return Vec::new();
        }
        let mut released = Vec::new();
        if *seq < self.expected || self.out_of_order.contains_key(seq) {
            self.duplicates += 1;
        } else {
            self.out_of_order.insert(*seq, payload.clone());
            while let Some(p) = self.out_of_order.remove(&self.expected) {
                released.push(p);
                self.expected += 1;
                self.delivered += 1;
            }
        }
        // Always (re)ack the cumulative point — lost acks are recovered
        // by the next data arrival.
        let ack = Message::ReliableAck { channel: self.channel, cumulative: self.cumulative() };
        ctx.send_udp(self.from_port, *from, &ack);
        released
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nb_net::{impl_actor_any, Actor, ClockProfile, LinkSpec, ShardedSim};
    use nb_wire::RealmId;

    const CHAN: Uuid = Uuid::from_u128(0xC44);
    const PORT: Port = Port(7000);

    struct SenderActor {
        tx: ReliableSender,
        to_send: u32,
        sent_so_far: u32,
    }
    impl Actor for SenderActor {
        fn on_start(&mut self, ctx: &mut dyn Context) {
            ctx.set_timer(Duration::from_millis(10), 1);
        }
        fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
            if self.tx.handle(&event, ctx) {
                return;
            }
            if let Incoming::Timer { token: 1 } = event {
                if self.sent_so_far < self.to_send {
                    let payload = vec![self.sent_so_far as u8; 16];
                    self.tx.send(payload, ctx);
                    self.sent_so_far += 1;
                    ctx.set_timer(Duration::from_millis(10), 1);
                }
            }
        }
        impl_actor_any!();
    }

    struct ReceiverActor {
        rx: ReliableReceiver,
        got: Vec<Bytes>,
    }
    impl Actor for ReceiverActor {
        fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
            self.got.extend(self.rx.handle(&event, ctx));
        }
        impl_actor_any!();
    }

    fn run(loss: f64, count: u32, seed: u64) -> (Vec<Bytes>, u64, u64) {
        let mut sim = ShardedSim::with_clock_profile(seed, ClockProfile::perfect());
        sim.network_mut().intra_realm_spec =
            LinkSpec::lan().with_loss(loss).with_jitter(Duration::from_millis(5));
        let rx_node = sim.add_node(
            "rx",
            RealmId(0),
            Box::new(ReceiverActor { rx: ReliableReceiver::new(CHAN, PORT), got: vec![] }),
        );
        let tx_node = sim.add_node(
            "tx",
            RealmId(0),
            Box::new(SenderActor {
                tx: ReliableSender::new(
                    CHAN,
                    Endpoint::new(rx_node, PORT),
                    PORT,
                    Duration::from_millis(50),
                    2,
                ),
                to_send: count,
                sent_so_far: 0,
            }),
        );
        sim.run_for(Duration::from_secs(30));
        let rx = sim.actor::<ReceiverActor>(rx_node).unwrap();
        let tx = sim.actor::<SenderActor>(tx_node).unwrap();
        assert!(tx.tx.fully_acked(), "{} still in flight", tx.tx.in_flight());
        (rx.got.clone(), tx.tx.retransmitted, rx.rx.duplicates)
    }

    #[test]
    fn lossless_channel_delivers_in_order_without_retransmission() {
        let (got, retransmitted, dupes) = run(0.0, 40, 1);
        assert_eq!(got.len(), 40);
        for (i, p) in got.iter().enumerate() {
            assert_eq!(p, &vec![i as u8; 16]);
        }
        assert_eq!(retransmitted, 0);
        assert_eq!(dupes, 0);
    }

    #[test]
    fn heavy_loss_still_delivers_everything_exactly_once_in_order() {
        let (got, retransmitted, _dupes) = run(0.35, 60, 2);
        assert_eq!(got.len(), 60, "every payload arrives");
        for (i, p) in got.iter().enumerate() {
            assert_eq!(p, &vec![i as u8; 16], "in-order at {i}");
        }
        assert!(retransmitted > 0, "loss must have forced retransmissions");
    }

    #[test]
    fn foreign_channels_are_ignored() {
        let mut sim = ShardedSim::with_clock_profile(3, ClockProfile::perfect());
        sim.network_mut().intra_realm_spec = LinkSpec::lan().with_loss(0.0);
        let rx_node = sim.add_node(
            "rx",
            RealmId(0),
            Box::new(ReceiverActor { rx: ReliableReceiver::new(CHAN, PORT), got: vec![] }),
        );
        // A sender on a *different* channel.
        let other = Uuid::from_u128(0xDEAD);
        let _tx = sim.add_node(
            "tx",
            RealmId(0),
            Box::new(SenderActor {
                tx: ReliableSender::new(
                    other,
                    Endpoint::new(rx_node, PORT),
                    PORT,
                    Duration::from_millis(50),
                    2,
                ),
                to_send: 5,
                sent_so_far: 0,
            }),
        );
        sim.run_for(Duration::from_secs(2));
        let rx = sim.actor::<ReceiverActor>(rx_node).unwrap();
        assert!(rx.got.is_empty(), "foreign-channel data must not be delivered");
    }
}
