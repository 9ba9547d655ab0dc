//! A wire-level NTP implementation.
//!
//! The paper's nodes run an NTP service that computes local clock offsets
//! within 3–5 s of node start (§5). The simulator can model that outcome
//! directly ([`crate::clock::ClockProfile`]), but this module also
//! implements the *protocol*: an [`NtpServer`] actor answering time
//! requests, and an embeddable [`NtpClient`] that runs the classic
//! four-timestamp exchange
//!
//! ```text
//! offset = ((t1 - t0) + (t2 - t3)) / 2
//! delay  = (t3 - t0) - (t2 - t1)
//! ```
//!
//! over several rounds, keeps the minimum-delay sample (standard NTP
//! clock-filter behaviour), and installs the resulting offset estimate
//! into the node's clock. The residual error then comes from genuine path
//! jitter/asymmetry rather than model fiat.

use std::time::Duration;

use nb_wire::addr::well_known;
use nb_wire::{Endpoint, Message, NodeId, Port};

use crate::impl_actor_any;
use crate::runtime::{Actor, Context, Incoming};

/// A time server: answers [`Message::NtpRequest`] datagrams on the NTP
/// port with its own UTC estimate (give it a perfect clock to make it a
/// stratum-1 reference).
#[derive(Debug, Default)]
pub struct NtpServer {
    /// Requests answered (observability for tests).
    pub served: u64,
}

impl Actor for NtpServer {
    fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
        if let Incoming::Datagram { msg, to_port, .. } = event {
            if let Message::NtpRequest { client_transmit, reply_to } = *msg.message() {
                self.served += 1;
                let server_receive = ctx.utc_micros();
                // Transmit immediately; receive and transmit are one reading
                // apart in this model (service time is negligible vs. path).
                let resp = Message::NtpResponse {
                    client_transmit,
                    server_receive,
                    server_transmit: ctx.utc_micros(),
                };
                ctx.send_udp(to_port, reply_to, &resp);
            }
        }
    }
    impl_actor_any!();
}

/// Progress of an [`NtpClient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NtpPhase {
    /// Not started.
    Idle,
    /// Rounds in flight.
    Sampling,
    /// Offset installed into the node clock.
    Done,
}

/// An embeddable NTP client sub-state-machine.
///
/// Owners call [`NtpClient::start`] from their `on_start` and forward
/// every event to [`NtpClient::handle`]; it returns `true` when the event
/// was consumed. The client sends one request per round, retransmitting
/// on its round timer if a response is lost, and installs the
/// minimum-delay offset after the final round.
#[derive(Debug)]
pub struct NtpClient {
    server: Endpoint,
    rounds: u32,
    interval: Duration,
    timer_token: u64,
    rounds_fired: u32,
    /// Best (lowest-delay) sample so far: `(delay_us, offset_us)`.
    best: Option<(i64, i64)>,
    /// Samples actually received (observability).
    pub samples: Vec<(i64, i64)>,
    /// Current phase.
    pub phase: NtpPhase,
}

impl NtpClient {
    /// A client of `server`, sampling `rounds` times spaced by
    /// `interval`, using `timer_token` for its round timer.
    pub fn new(server: NodeId, rounds: u32, interval: Duration, timer_token: u64) -> NtpClient {
        NtpClient {
            server: Endpoint::new(server, well_known::NTP),
            rounds: rounds.max(1),
            interval,
            timer_token,
            rounds_fired: 0,
            best: None,
            samples: Vec::new(),
            phase: NtpPhase::Idle,
        }
    }

    /// The local UDP port used for the exchange.
    fn local_port() -> Port {
        well_known::NTP
    }

    /// Kicks off sampling.
    pub fn start(&mut self, ctx: &mut dyn Context) {
        self.phase = NtpPhase::Sampling;
        self.send_round(ctx);
    }

    fn send_round(&mut self, ctx: &mut dyn Context) {
        self.rounds_fired += 1;
        let req = Message::NtpRequest {
            client_transmit: ctx.raw_local_micros(),
            reply_to: Endpoint::new(ctx.me(), Self::local_port()),
        };
        ctx.send_udp(Self::local_port(), self.server, &req);
        ctx.set_timer(self.interval, self.timer_token);
    }

    fn finish(&mut self, ctx: &mut dyn Context) {
        self.phase = NtpPhase::Done;
        ctx.cancel_timer(self.timer_token);
        if let Some((_delay, offset_us)) = self.best {
            // `offset` estimates (server_utc - client_raw); the clock
            // stores the estimate of (client_raw - utc).
            ctx.set_clock_estimate_ns(-(offset_us.saturating_mul(1_000)));
        }
    }

    /// Feeds an event; returns `true` if it belonged to the NTP exchange.
    pub fn handle(&mut self, event: &Incoming, ctx: &mut dyn Context) -> bool {
        if self.phase != NtpPhase::Sampling {
            return false;
        }
        match event {
            Incoming::Datagram { msg, .. } => {
                let Message::NtpResponse { client_transmit, server_receive, server_transmit } =
                    *msg.message()
                else {
                    return false;
                };
                let t0 = client_transmit as i64;
                let t1 = server_receive as i64;
                let t2 = server_transmit as i64;
                let t3 = ctx.raw_local_micros() as i64;
                let delay = (t3 - t0) - (t2 - t1);
                let offset = ((t1 - t0) + (t2 - t3)) / 2;
                self.samples.push((delay, offset));
                if self.best.is_none_or(|(d, _)| delay < d) {
                    self.best = Some((delay, offset));
                }
                if self.rounds_fired >= self.rounds {
                    self.finish(ctx);
                }
                true
            }
            Incoming::Timer { token } if *token == self.timer_token => {
                if self.rounds_fired >= self.rounds {
                    // Final round's response was lost; settle for what we
                    // have (or remain unsynced if we have nothing).
                    if self.best.is_some() {
                        self.finish(ctx);
                    } else {
                        self.send_round(ctx);
                    }
                } else {
                    self.send_round(ctx);
                }
                true
            }
            _ => false,
        }
    }
}

/// A standalone actor wrapping [`NtpClient`] (for tests and for nodes
/// whose only job is timekeeping).
#[derive(Debug)]
pub struct NtpClientActor {
    /// The embedded client.
    pub client: NtpClient,
}

impl NtpClientActor {
    /// Samples `server` five times, 200 ms apart.
    pub fn new(server: NodeId) -> NtpClientActor {
        NtpClientActor { client: NtpClient::new(server, 5, Duration::from_millis(200), 0xA7B0) }
    }
}

impl Actor for NtpClientActor {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        self.client.start(ctx);
    }
    fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
        self.client.handle(&event, ctx);
    }
    impl_actor_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ClockProfile;
    use crate::link::LinkSpec;
    use crate::shard::ShardedSim;
    use nb_wire::RealmId;

    fn run_sync(seed: u64, loss: f64) -> (i64, NtpPhase, usize) {
        // Clock profile with large true offsets but *no* modeled sync:
        // the protocol must do the work.
        let profile = ClockProfile {
            max_true_offset: Duration::from_secs(1),
            min_residual: Duration::ZERO,
            max_residual: Duration::ZERO,
            // Modeled sync far in the future so it never interferes.
            min_sync_delay: Duration::from_secs(86_400),
            max_sync_delay: Duration::from_secs(86_400),
        };
        let mut sim = ShardedSim::with_clock_profile(seed, profile);
        sim.network_mut().inter_realm_spec =
            LinkSpec::wan(Duration::from_millis(25)).with_loss(loss);
        let server =
            sim.add_node_with_clock("time", RealmId(0), ClockProfile::perfect(), Box::new(NtpServer::default()));
        let client = sim.add_node("client", RealmId(1), Box::new(NtpClientActor::new(server)));
        sim.run_for(Duration::from_secs(10));
        let utc = sim.utc_of(client).unwrap() as i64;
        let truth = crate::time::true_utc_micros(sim.now()) as i64;
        let phase = sim.actor::<NtpClientActor>(client).unwrap().client.phase;
        let nsamples = sim.actor::<NtpClientActor>(client).unwrap().client.samples.len();
        (utc - truth, phase, nsamples)
    }

    #[test]
    fn protocol_sync_reaches_paper_accuracy() {
        for seed in 0..10 {
            let (err_us, phase, _) = run_sync(seed, 0.0);
            assert_eq!(phase, NtpPhase::Done, "seed {seed}");
            assert!(
                err_us.unsigned_abs() <= 20_000,
                "seed {seed}: residual {err_us}µs above the paper's 20ms band"
            );
        }
    }

    #[test]
    fn survives_response_loss() {
        let (err_us, phase, nsamples) = run_sync(3, 0.4);
        assert_eq!(phase, NtpPhase::Done);
        assert!(nsamples >= 1);
        assert!(err_us.unsigned_abs() <= 20_000, "residual {err_us}µs");
    }

    #[test]
    fn server_counts_requests() {
        let mut sim = ShardedSim::with_clock_profile(9, ClockProfile::perfect());
        sim.network_mut().inter_realm_spec =
            LinkSpec::wan(Duration::from_millis(5)).with_loss(0.0);
        let server = sim.add_node("time", RealmId(0), Box::new(NtpServer::default()));
        sim.add_node("c1", RealmId(1), Box::new(NtpClientActor::new(server)));
        sim.add_node("c2", RealmId(1), Box::new(NtpClientActor::new(server)));
        sim.run_for(Duration::from_secs(5));
        assert_eq!(sim.actor::<NtpServer>(server).unwrap().served, 10);
    }

    #[test]
    fn offset_math_on_known_values() {
        // t0=100 (client), t1=1100, t2=1100 (server), t3=140 (client):
        // delay = 40 - 0 = 40, offset = (1000 + 960)/2 = 980.
        let t0 = 100i64;
        let t1 = 1100i64;
        let t2 = 1100i64;
        let t3 = 140i64;
        let delay = (t3 - t0) - (t2 - t1);
        let offset = ((t1 - t0) + (t2 - t3)) / 2;
        assert_eq!(delay, 40);
        assert_eq!(offset, 980);
    }
}
