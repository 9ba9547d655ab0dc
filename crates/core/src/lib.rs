//! # nb-discovery
//!
//! The paper's contribution: **discovery of brokers in distributed
//! messaging infrastructures**. A node joining the system (client or new
//! broker) finds the *nearest, least-loaded* broker through Broker
//! Discovery Nodes (BDNs), topic-flooded discovery requests, UDP
//! responses carrying NTP timestamps and usage metrics, weighted
//! target-set selection and UDP ping refinement — with multicast and
//! cached-target fallbacks when no BDN is reachable.
//!
//! Module map (paper section in parentheses):
//!
//! * [`config`] — discovery configuration: BDN lists, collection window,
//!   response caps, target-set size, selection weights (§3, §9),
//! * [`selection`] — delay estimation from NTP timestamps, the weighting
//!   formula, target-set shortlisting, final ping-based choice (§6, §9),
//! * [`policy`] — broker response policies: credentials and realm
//!   restrictions (§5, §7, §9.1),
//! * [`advertiser`] — broker advertisements, direct and topic-based
//!   dissemination, private-BDN handling (§2),
//! * [`responder`] — the broker-side responder: request dedup (last-1000
//!   cache), response construction, UDP delivery, multicast listening
//!   (§4, §5),
//! * [`bdn`] — the Broker Discovery Node actor: registry, RTT
//!   measurement, closest/farthest-first request injection, acks (§2–§4),
//! * [`client`] — the requesting node's discovery state machine with
//!   per-phase timing (the sub-activity breakdown of Figures 2/9/11),
//!   retransmission, BDN failover, multicast fallback and the cached
//!   target set for reconnects (§3, §6, §7),
//! * [`broker_actor`] — the combined actor: pub/sub broker + responder +
//!   advertiser,
//! * [`scenario`] — harness builders assembling the paper's WAN testbed
//!   topologies inside the simulator (§9).

pub mod advertiser;
pub mod bdn;
pub mod broker_actor;
pub mod client;
pub mod config;
pub mod entity;
pub mod federation;
pub mod joining;
pub mod policy;
pub mod responder;
pub mod scenario;
pub mod selection;

/// Parses a compile-time well-known topic constant. Lives outside the
/// protocol-handler files so the actors can pre-build topics at
/// construction time instead of parsing (and potentially panicking) on
/// every receive path (lint rule D004).
pub(crate) fn well_known_topic(s: &str) -> nb_wire::Topic {
    nb_wire::Topic::parse(s).expect("well-known topic constant")
}

/// Parses a compile-time well-known topic filter (see
/// [`well_known_topic`]).
pub(crate) fn well_known_filter(s: &str) -> nb_wire::TopicFilter {
    nb_wire::TopicFilter::parse(s).expect("well-known topic-filter constant")
}

pub use advertiser::Advertiser;
pub use bdn::{Bdn, BdnConfig};
pub use broker_actor::DiscoveryBrokerActor;
pub use client::{DiscoveryClient, DiscoveryOutcome, Phase, PhaseTimes};
pub use config::{DiscoveryConfig, RetryPolicy, SelectionWeights};
pub use entity::{Entity, EntityState};
pub use federation::{Federation, FederationConfig, FederationStats, LeaseBook, LeaseOutcome};
pub use joining::JoiningBroker;
pub use policy::ResponsePolicy;
pub use responder::Responder;
pub use scenario::{Scenario, ScenarioBuilder};
pub use selection::{estimate_delay_us, shortlist, weigh, Candidate};
