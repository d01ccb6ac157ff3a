//! Umbrella crate for the Firefly RPC reproduction.
//!
//! Re-exports every workspace crate under one roof and hosts the
//! cross-crate examples (`examples/`) and integration tests (`tests/`):
//!
//! * [`wire`] — packet formats and the Internet checksum,
//! * [`pool`] — the shared packet-buffer pool,
//! * [`idl`] — Modula-2+ interfaces, marshalling and stub generation,
//! * [`rpc`] — the RPC runtime and its transports,
//! * [`sim`] — the discrete-event Firefly simulator,
//! * [`metrics`] — measurement utilities,
//! * [`generated`] — build-time generated typed stubs for the paper's
//!   `Test` interface, produced by `build.rs` through
//!   [`idl::codegen`](firefly_idl::codegen) exactly the way the Firefly
//!   stub compiler produced Modula-2+ stubs.

#![forbid(unsafe_code)]

pub use firefly_idl as idl;
pub use firefly_metrics as metrics;
pub use firefly_pool as pool;
pub use firefly_rpc as rpc;
pub use firefly_sim as sim;
pub use firefly_wire as wire;

/// Typed stubs for the paper's `Test` interface, generated at build time.
///
/// Contains `TestClient<C>` (the caller stub over any
/// [`idl::RpcCall`] — [`rpc::Client`] and [`rpc::local::LocalClient`]
/// are two), `TestServer` (the service trait) and `dispatch_test` (the
/// server stub); see `tests/typed_stubs.rs` for the end-to-end wiring.
pub mod generated {
    include!(concat!(env!("OUT_DIR"), "/test_stubs.rs"));
}
