//! # lucent-netsim
//!
//! A deterministic, discrete-event, packet-level network simulator.
//!
//! Everything the measurement study in *Where The Light Gets In* does to a
//! network happens through packets: TTL manipulation, TCP state, forged
//! injections, packet races. This crate provides exactly that substrate —
//! nodes exchanging [`lucent_packet::Packet`] values over latency links
//! under a virtual clock — and nothing higher. TCP stacks, DNS resolvers,
//! web servers and censorship middleboxes are separate crates implementing
//! the [`Node`] trait.
//!
//! Design points (in the smoltcp tradition):
//!
//! * **Deterministic**: one event queue ordered by `(time, sequence)` —
//!   a calendar queue ([`sched`]) whose pop order is provably identical
//!   to a binary heap's; every source of randomness is an explicitly
//!   seeded RNG owned by the node that needs it. The same seed replays
//!   the same packet trace. In-flight packets live in a slab ([`slab`])
//!   so queued events stay small.
//! * **Event-driven**: nodes implement [`Node::on_packet`]/[`Node::on_timer`]
//!   and never block. External drivers (the measurement harness) poke nodes
//!   through [`Network::wake`] and downcasting accessors, then step the
//!   clock.
//! * **No global state**: a [`Network`] is a plain value; tests build dozens.

#![deny(missing_docs)]

pub mod network;
pub mod node;
pub mod router;
pub mod routing;
pub mod sched;
pub mod slab;
pub mod time;
pub mod trace;

pub use network::{DropReason, Network};
pub use node::{IfaceId, Node, NodeCtx, NodeId, WAKE};
pub use sched::{CalendarQueue, Scheduled};
pub use slab::PacketSlab;
pub use router::RouterNode;
pub use time::{SimDuration, SimRng, SimTime};
pub use trace::{Dir, TraceEntry, TraceHandle};

// The telemetry handle travels with the network; re-exported so node
// crates need not name `lucent-obs` for the common case.
pub use lucent_obs::Telemetry;
