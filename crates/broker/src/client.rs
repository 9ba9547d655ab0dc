//! A publish/subscribe client actor.
//!
//! Connects to a broker over the stream transport, registers its
//! subscriptions, and publishes queued events. Harnesses queue publishes
//! from outside ([`PubSubClient::queue_publish`]); a short flush timer
//! picks them up.

use std::collections::VecDeque;
use std::time::Duration;

use nb_util::Uuid;
use nb_wire::addr::well_known;
use nb_wire::{Endpoint, Event, Message, NodeId, Topic, TopicFilter};

use nb_net::{impl_actor_any, Actor, Context, Incoming};

const TIMER_FLUSH: u64 = 0xC11E_0000_0000_0001;
const TIMER_RECONNECT: u64 = 0xC11E_0000_0000_0002;
const FLUSH_INTERVAL: Duration = Duration::from_millis(50);
const CONNECT_RETRY: Duration = Duration::from_secs(2);

/// A client entity attached to one broker.
pub struct PubSubClient {
    broker: NodeId,
    filters: Vec<TopicFilter>,
    connected: bool,
    awaiting_ack: bool,
    outbox: VecDeque<(Topic, Vec<u8>)>,
    /// Events delivered to this client.
    pub received: Vec<Event>,
    /// Events published so far.
    pub published: u64,
}

impl PubSubClient {
    /// A client that connects to `broker` and subscribes to `filters`.
    pub fn new(broker: NodeId, filters: Vec<TopicFilter>) -> PubSubClient {
        PubSubClient {
            broker,
            filters,
            connected: false,
            awaiting_ack: false,
            outbox: VecDeque::new(),
            received: Vec::new(),
            published: 0,
        }
    }

    /// Whether the broker accepted the connection.
    pub fn connected(&self) -> bool {
        self.connected
    }

    /// The broker this client targets.
    pub fn broker(&self) -> NodeId {
        self.broker
    }

    /// Queues an event for publication on the next flush tick.
    pub fn queue_publish(&mut self, topic: Topic, payload: Vec<u8>) {
        self.outbox.push_back((topic, payload));
    }

    fn broker_endpoint(&self) -> Endpoint {
        Endpoint::new(self.broker, well_known::BROKER)
    }

    fn try_connect(&mut self, ctx: &mut dyn Context) {
        self.awaiting_ack = true;
        let connect = Message::ClientConnect { client: ctx.me(), reply_port: well_known::BROKER };
        ctx.send_stream(well_known::BROKER, self.broker_endpoint(), &connect);
        ctx.set_timer(CONNECT_RETRY, TIMER_RECONNECT);
    }

    fn flush(&mut self, ctx: &mut dyn Context) {
        while let Some((topic, payload)) = self.outbox.pop_front() {
            let ev =
                Event { id: Uuid::random(ctx.rng()), topic, source: ctx.me(), payload: payload.into() };
            ctx.send_stream(well_known::BROKER, self.broker_endpoint(), &Message::Publish(ev));
            self.published += 1;
        }
    }
}

impl Actor for PubSubClient {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        self.try_connect(ctx);
        ctx.set_timer(FLUSH_INTERVAL, TIMER_FLUSH);
    }

    fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
        match event {
            Incoming::Stream { msg, .. } => match msg.into_message() {
                Message::ClientConnectAck { accepted, .. } => {
                    self.awaiting_ack = false;
                    if accepted && !self.connected {
                        self.connected = true;
                        ctx.cancel_timer(TIMER_RECONNECT);
                        for filter in self.filters.clone() {
                            let sub = Message::ClientSubscribe { filter };
                            ctx.send_stream(well_known::BROKER, self.broker_endpoint(), &sub);
                        }
                    }
                }
                Message::Publish(ev) => {
                    self.received.push(ev);
                }
                _ => {}
            },
            Incoming::Timer { token: TIMER_FLUSH } => {
                if self.connected {
                    self.flush(ctx);
                }
                ctx.set_timer(FLUSH_INTERVAL, TIMER_FLUSH);
            }
            Incoming::Timer { token: TIMER_RECONNECT }
                if !self.connected => {
                    self.try_connect(ctx);
                }
            _ => {}
        }
    }

    impl_actor_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::{BrokerActor, BrokerConfig};
    use nb_net::{ClockProfile, LinkSpec, ShardedSim};
    use nb_wire::RealmId;

    #[test]
    fn client_reconnects_after_lost_connect() {
        // The broker comes up only after the client's first attempt; the
        // retry timer must eventually connect it. (We simulate the broker
        // being down by partitioning, then healing.)
        let mut sim = ShardedSim::with_clock_profile(7, ClockProfile::perfect());
        sim.network_mut().intra_realm_spec = LinkSpec::lan().with_loss(0.0);
        let broker =
            sim.add_node("bk", RealmId(0), Box::new(BrokerActor::new(BrokerConfig::default())));
        let client = sim.add_node("cl", RealmId(0), Box::new(PubSubClient::new(broker, vec![])));
        sim.network_mut().partition(broker, client);
        sim.run_for(Duration::from_secs(3));
        assert!(!sim.actor::<PubSubClient>(client).unwrap().connected());
        sim.network_mut().heal(broker, client);
        sim.run_for(Duration::from_secs(5));
        assert!(sim.actor::<PubSubClient>(client).unwrap().connected());
    }

    #[test]
    fn self_publish_not_echoed_back() {
        let mut sim = ShardedSim::with_clock_profile(8, ClockProfile::perfect());
        sim.network_mut().intra_realm_spec = LinkSpec::lan().with_loss(0.0);
        let broker =
            sim.add_node("bk", RealmId(0), Box::new(BrokerActor::new(BrokerConfig::default())));
        let filter = TopicFilter::parse("a/**").unwrap();
        let client =
            sim.add_node("cl", RealmId(0), Box::new(PubSubClient::new(broker, vec![filter])));
        sim.run_for(Duration::from_secs(1));
        sim.actor_mut::<PubSubClient>(client)
            .unwrap()
            .queue_publish(Topic::parse("a/b").unwrap(), vec![1]);
        sim.run_for(Duration::from_secs(1));
        let c = sim.actor::<PubSubClient>(client).unwrap();
        assert_eq!(c.published, 1);
        assert!(c.received.is_empty(), "publisher must not receive its own event");
    }

    #[test]
    fn two_subscribers_same_broker_both_receive() {
        let mut sim = ShardedSim::with_clock_profile(9, ClockProfile::perfect());
        sim.network_mut().intra_realm_spec = LinkSpec::lan().with_loss(0.0);
        let broker =
            sim.add_node("bk", RealmId(0), Box::new(BrokerActor::new(BrokerConfig::default())));
        let filter = TopicFilter::parse("t").unwrap();
        let s1 = sim.add_node("s1", RealmId(0), Box::new(PubSubClient::new(broker, vec![filter.clone()])));
        let s2 = sim.add_node("s2", RealmId(0), Box::new(PubSubClient::new(broker, vec![filter])));
        let p = sim.add_node("p", RealmId(0), Box::new(PubSubClient::new(broker, vec![])));
        sim.run_for(Duration::from_secs(1));
        sim.actor_mut::<PubSubClient>(p).unwrap().queue_publish(Topic::parse("t").unwrap(), vec![9]);
        sim.run_for(Duration::from_secs(1));
        assert_eq!(sim.actor::<PubSubClient>(s1).unwrap().received.len(), 1);
        assert_eq!(sim.actor::<PubSubClient>(s2).unwrap().received.len(), 1);
    }
}
