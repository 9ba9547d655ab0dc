//! # nb-net
//!
//! The network substrate every protocol in this workspace runs on. It
//! replaces the paper's five-site WAN testbed (Table 1) with a faithful,
//! deterministic model:
//!
//! * [`time`] — virtual time ([`SimTime`]),
//! * [`clock`] — per-node clocks with true offsets and NTP-estimated
//!   offsets (the paper's "every node is within 1–20 msecs" guarantee is a
//!   *model parameter* here, not an assumption),
//! * [`runtime`] — the [`Actor`]/[`Context`] abstraction all protocol
//!   logic is written against,
//! * [`link`] — link latency/jitter/loss models, TCP-like ordering and
//!   connection setup, realm-scoped multicast,
//! * [`shard`] — the seeded discrete-event engine behind every figure,
//!   campaign and scale tier: one logical process per node, run on one
//!   worker or in conservative-lookahead epochs on several, with
//!   byte-identical digests at every worker/shard count (DESIGN.md §13),
//! * [`threaded`] — a wall-clock runtime driving the *same* actors with
//!   real threads and channels (examples + integration tests),
//! * [`wan`] — the Table-1 site inventory and its latency matrix,
//! * [`ntp`] — an actual NTP request/response protocol implementation for
//!   nodes that estimate their clock offset on the wire instead of by
//!   model fiat.

pub mod chaos;
pub mod clock;
pub mod link;
pub mod ntp;
pub mod runtime;
pub mod shard;
pub mod threaded;
pub mod time;
pub mod topogen;
pub mod wan;

pub use chaos::{ChaosProfile, ChaosScheduler, ChaosTargets, Fault, FaultPlan, PacketFaults, TimedFault};
pub use clock::{ClockProfile, ClockState};
pub use link::{LinkSpec, NetworkModel};
pub use runtime::{Actor, Context, Incoming};
pub use shard::{NetStats, ShardPlan, ShardRespawnFn, ShardedSim, TraceRecord, WireV2Config};
pub use threaded::ThreadedNet;
pub use time::SimTime;
pub use topogen::{TopologyKind, TopologySpec, WanTopology};
pub use wan::{Site, WanModel};

/// Re-export of the wire-level address types for convenience.
pub use nb_wire::{Endpoint, GroupId, NodeId, Port, RealmId};
