//! The Firefly RPC runtime.
//!
//! This crate is the reproduction's equivalent of the Firefly RPC runtime
//! plus the RPC-relevant parts of the Nub (the Firefly kernel): the custom
//! RPC packet exchange protocol layered on IP/UDP, the shared call table
//! with **direct thread wakeup from the receive path** — and no wakeup
//! at all where the thread that waits can be the thread that receives —
//! bind-time transport selection, retransmission with implicit
//! acknowledgements, and multi-packet calls and results.
//!
//! # Architecture (mirrors §3.1 of the paper)
//!
//! ```text
//!  caller program ──▶ caller stub ──▶ Starter    (take the activity's
//!                                                 slot: its frames)
//!                                  ─▶ marshal    (firefly-idl engines)
//!                                  ─▶ Transporter(register in call table,
//!                                                 send, receive the result
//!                                                 itself or await wakeup,
//!                                                 retransmit on timeout)
//!                                  ─▶ unmarshal
//!                                  ─▶ Ender      (give the slot back)
//!
//!  holder of the receive role (the "Ethernet interrupt routine": a
//!  waiting caller, else the endpoint's resident receiver — see `role`):
//!      recv → validate headers + UDP checksum → look up call table
//!           → complete its own waiting call, no wakeup       (fast path)
//!           → wake another waiting caller thread directly    (fast path)
//!           → run a measured-short single-packet call itself (fast path,
//!                                             resident receiver only)
//!           → or hand a call packet to an idle server thread (fast path)
//!           → or queue for the slow path when nobody waits
//!
//!  executing thread ──▶ Receiver ──▶ server stub ─▶ service procedure
//!                    ◀── marshal results into the result packet ◀──
//! ```
//!
//! An [`Endpoint`] owns one transport, one buffer pool, one receive role
//! with its resident receiver thread, the server threads it takes on
//! demand, a caller-side call table and a server-side dispatcher; its
//! threads come from, and go back to, the process's idle RPC threads
//! (`reservoir`). It can act as
//! caller and server simultaneously, like a Firefly. [`Client`]s are
//! created by binding an interface to a remote endpoint; services are
//! exported with [`Endpoint::export`].
//!
//! Three transports are provided, chosen at bind time exactly as in the
//! paper ("Firefly RPC allows choosing from several different transport
//! mechanisms at RPC bind time"):
//!
//! * [`transport::UdpTransport`] — real UDP sockets (inter-process or
//!   inter-machine); the full 74-/1514-byte frame travels as the datagram
//!   payload so byte-level accounting matches the paper,
//! * [`transport::LoopbackNet`] — a deterministic in-process Ethernet
//!   segment with configurable loss, duplication, corruption and delay for
//!   protocol testing,
//! * [`local`] — same-machine shared-memory RPC (the paper's third
//!   transport; its `Null()` takes 937 µs on the Firefly versus 2660 µs
//!   remote).
//!
//! # Examples
//!
//! ```
//! use firefly_rpc::{Endpoint, Config, ServiceBuilder};
//! use firefly_idl::{test_interface, Value};
//! use firefly_rpc::transport::LoopbackNet;
//!
//! let net = LoopbackNet::new();
//! let server = Endpoint::new(net.station(1), Config::default()).unwrap();
//! let caller = Endpoint::new(net.station(2), Config::default()).unwrap();
//!
//! let service = ServiceBuilder::new(test_interface())
//!     .on_call("Null", |_args, _w| Ok(()))
//!     .on_call("MaxResult", |_args, w| {
//!         w.next_bytes(1440)?.fill(0xab);
//!         Ok(())
//!     })
//!     .on_call("MaxArg", |_args, _w| Ok(()))
//!     .build()
//!     .unwrap();
//! server.export(service).unwrap();
//!
//! let client = caller.bind(&test_interface(), server.address()).unwrap();
//! client.call("Null", &[]).unwrap();
//! // The caller passes its variable `b` for the VAR OUT argument; only
//! // its identity matters — the value travels back in the result packet.
//! let b = Value::char_array(1440);
//! let r = client.call("MaxResult", &[b]).unwrap();
//! assert_eq!(r[0].as_bytes().unwrap().len(), 1440);
//! ```

// No unsafe anywhere in this crate — see DESIGN.md ("Unsafe policy").
#![forbid(unsafe_code)]

pub mod auth;
pub mod binder;
pub mod calltable;
pub mod client;
pub mod config;
pub mod endpoint;
pub mod error;
pub mod fragment;
pub mod local;
pub mod packet;
pub(crate) mod reservoir;
pub mod role;
pub(crate) mod send;
pub mod server;
pub mod service;
pub mod shard;
pub mod stats;
pub mod trace;
pub mod transport;
pub mod witness;

pub use client::Client;
pub use config::Config;
pub use endpoint::Endpoint;
pub use error::RpcError;
pub use service::{Service, ServiceBuilder};
pub use stats::RpcStats;
pub use trace::{TraceRecord, TraceReport, Tracer};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, RpcError>;
