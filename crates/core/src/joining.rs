//! A broker that joins the overlay through discovery.
//!
//! The problem statement's second case (§1.1): *"an entity may wish to
//! add a broker to this network. In both these cases it is essential for
//! the entity to discover a broker"*. A [`JoiningBroker`] is a full
//! discovery-enabled broker whose embedded finder runs the discovery
//! protocol and then opens an **overlay link** to the chosen broker —
//! after which the newcomer participates in routing, floods discovery
//! requests, answers them, and (per §8.3) is preferentially selected by
//! subsequent discoveries thanks to its fresh usage metrics.

use std::time::Duration;

use nb_broker::BrokerConfig;
use nb_wire::NodeId;

use nb_net::{impl_actor_any, Actor, Context, Incoming};

use crate::broker_actor::DiscoveryBrokerActor;
use crate::client::{DiscoveryClient, Phase};
use crate::config::DiscoveryConfig;
use crate::policy::ResponsePolicy;

const TIMER_HEAL: u64 = 0x4EA1_0000_0000_0001;
const HEAL_CHECK: Duration = Duration::from_secs(5);

/// A broker that finds its attachment point via discovery.
pub struct JoiningBroker {
    /// The full broker (routing + responder + advertiser).
    pub inner: DiscoveryBrokerActor,
    /// The embedded discovery state machine, configured with
    /// `join_as_broker = true`.
    finder: DiscoveryClient,
    /// The broker this node linked to, once joined.
    pub joined_to: Option<NodeId>,
    /// Self-healing: when the established link count drops below this,
    /// discovery runs again and a fresh overlay link is opened (§8.3's
    /// "incorporation of brokers" applied to partition repair). `0`
    /// disables healing.
    pub heal_below: u32,
    /// Healing rounds performed.
    pub heals: u64,
    /// Set once the first join succeeds; healing retries (including
    /// after failed heal attempts) are gated on this, not on the
    /// transient `joined_to`.
    ever_joined: bool,
}

impl JoiningBroker {
    /// A joining broker: `cfg`/`bdns`/`policy` configure the broker side
    /// (it advertises to `bdns` once up), `discovery` drives the join.
    /// `discovery.join_as_broker` is forced on.
    pub fn new(
        cfg: BrokerConfig,
        bdns: Vec<NodeId>,
        policy: ResponsePolicy,
        mut discovery: DiscoveryConfig,
    ) -> JoiningBroker {
        discovery.join_as_broker = true;
        JoiningBroker {
            inner: DiscoveryBrokerActor::new(cfg, bdns, policy),
            finder: DiscoveryClient::new(discovery),
            joined_to: None,
            heal_below: 1,
            heals: 0,
            ever_joined: false,
        }
    }

    /// Whether the join completed.
    pub fn joined(&self) -> bool {
        self.joined_to.is_some()
    }

    /// The embedded finder (observability).
    pub fn finder(&self) -> &DiscoveryClient {
        &self.finder
    }

    fn check_join(&mut self) {
        if self.joined_to.is_none() && self.finder.phase() == Phase::Done {
            self.joined_to = self.finder.outcome().and_then(|o| o.chosen);
            if self.joined_to.is_some() {
                self.ever_joined = true;
            }
        }
    }

    fn heal_tick(&mut self, ctx: &mut dyn Context) {
        if self.heal_below > 0
            && self.inner.broker.num_links() < self.heal_below
            && matches!(self.finder.phase(), Phase::Idle | Phase::Done | Phase::Failed)
            && self.ever_joined
        {
            // We had joined once but the overlay has since shrunk under
            // us: rediscover and re-link.
            self.heals += 1;
            self.joined_to = None;
            self.finder.begin(ctx);
        }
        ctx.set_timer(HEAL_CHECK, TIMER_HEAL);
    }
}

impl Actor for JoiningBroker {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        self.inner.on_start(ctx);
        self.finder.on_start(ctx);
        ctx.set_timer(HEAL_CHECK, TIMER_HEAL);
    }

    fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
        if matches!(event, Incoming::Timer { token: TIMER_HEAL }) {
            self.heal_tick(ctx);
            return;
        }
        // Both halves see every event: the finder consumes discovery
        // traffic (acks, responses, pongs, the LinkAccept that seals the
        // join), the broker half consumes overlay traffic — including
        // that same LinkAccept, which establishes its side of the link.
        self.finder.on_incoming(event.clone(), ctx);
        self.check_join();
        self.inner.on_incoming(event, ctx);
    }

    impl_actor_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bdn::{Bdn, BdnConfig};
    use nb_broker::MachineProfile;
    use nb_net::{ClockProfile, LinkSpec, ShardedSim};
    use nb_wire::RealmId;
    use std::time::Duration;

    fn discovery_cfg(bdn: NodeId) -> DiscoveryConfig {
        DiscoveryConfig {
            bdns: vec![bdn],
            collection_window: Duration::from_millis(1200),
            max_responses: 2,
            ping_window: Duration::from_millis(400),
            ack_timeout: Duration::from_millis(500),
            ..DiscoveryConfig::default()
        }
    }

    #[test]
    fn a_new_broker_discovers_and_links_into_the_overlay() {
        let mut sim = ShardedSim::with_clock_profile(81, ClockProfile::perfect());
        sim.network_mut().intra_realm_spec = LinkSpec::lan().with_loss(0.0);
        sim.network_mut().inter_realm_spec =
            LinkSpec::wan(Duration::from_millis(10)).with_loss(0.0);
        let bdn = sim.add_node("bdn", RealmId(0), Box::new(Bdn::new(BdnConfig::default())));
        let b0 = sim.add_node(
            "b0",
            RealmId(0),
            Box::new(DiscoveryBrokerActor::new(
                BrokerConfig { hostname: "b0".into(), ..BrokerConfig::default() },
                vec![bdn],
                ResponsePolicy::open(),
            )),
        );
        let _b1 = sim.add_node(
            "b1",
            RealmId(1), // farther away
            Box::new(DiscoveryBrokerActor::new(
                BrokerConfig {
                    hostname: "b1".into(),
                    neighbors: vec![b0],
                    ..BrokerConfig::default()
                },
                vec![bdn],
                ResponsePolicy::open(),
            )),
        );
        sim.run_for(Duration::from_secs(2));

        // The newcomer joins from the same realm as b0.
        let newcomer = sim.add_node(
            "newcomer",
            RealmId(0),
            Box::new(JoiningBroker::new(
                BrokerConfig {
                    hostname: "new.broker".into(),
                    machine: MachineProfile::default_2005(),
                    ..BrokerConfig::default()
                },
                vec![bdn],
                ResponsePolicy::open(),
                discovery_cfg(bdn),
            )),
        );
        sim.run_for(Duration::from_secs(8));

        let joining = sim.actor::<JoiningBroker>(newcomer).unwrap();
        assert!(joining.joined(), "join completed (finder {:?})", joining.finder().phase());
        assert_eq!(joining.joined_to, Some(b0), "linked to the nearest broker");
        assert!(joining.inner.broker.is_linked(b0), "overlay link up on the newcomer's side");
        let b0_actor = sim.actor::<DiscoveryBrokerActor>(b0).unwrap();
        assert!(b0_actor.broker.is_linked(newcomer), "…and on the existing broker's side");

        // The newcomer now participates in discovery: a later client run
        // receives a response from it too.
        use crate::client::DiscoveryClient;
        let client = sim.add_node(
            "client",
            RealmId(0),
            Box::new(DiscoveryClient::with_auto_start(
                DiscoveryConfig { max_responses: 3, ..discovery_cfg(bdn) },
                true,
            )),
        );
        sim.run_for(Duration::from_secs(6));
        let outcome = sim
            .actor::<DiscoveryClient>(client)
            .unwrap()
            .outcome()
            .cloned()
            .expect("client discovery finished");
        assert_eq!(outcome.responses_received, 3, "the newcomer answered as well");
        assert!(outcome.chosen.is_some());
    }
}
