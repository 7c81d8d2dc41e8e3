//! `ix-serve`: the fleet-scale multi-tenant serving layer.
//!
//! One InvarNet-X [`ix_core::Engine`] diagnoses one deployment. A big
//! data platform operator runs thousands of them — one per cluster,
//! customer or pipeline — each ticking at the paper's 10-second cadence
//! and idle the rest of the time. This crate turns that shape into a
//! serving problem and solves it three layers deep:
//!
//! - **[`Fleet`]** — N tenant slots, each a lazily-materialized engine
//!   keyed by [`TenantId`], all sharing one sweep pool. A configurable
//!   high-water mark bounds the warm set: the least-recently-used tenant
//!   is evicted by moving its engine's state out — trained models,
//!   per-context runs, queued ticks and lifetime tick counter, as the
//!   engine holds them ([`ix_core::EngineImage`]) — kept in memory, or
//!   written as a row-free `IXHIST01` snapshot (see [`TenantSnapshot`]).
//!   Warming back up moves that state into a fresh engine, a window's
//!   worth per context however old the tenant, which continues
//!   *bit-identically*, as if the teardown never happened.
//!   Evictions and warms are declared engine events
//!   ([`ix_core::EngineEvent::TenantEvicted`] /
//!   [`ix_core::EngineEvent::TenantWarmed`]), never silent.
//! - **`IXSRV01`** ([`wire`]) — a length-prefixed binary protocol:
//!   versioned request frames carry a tenant id, an op
//!   (ingest / drain / diagnose / health / snapshot) and a payload;
//!   response frames carry a stable `u16` status where `1..=99` is
//!   [`ix_core::ErrorCode`] verbatim and `100..` is serving-layer
//!   conditions. Ticks, drains and diagnoses travel as binary payloads
//!   (one codec, floats as raw bits, so a served tick spends no time on
//!   text); a payload starting with `{` still gets the JSON shape back.
//!   Both directions are bounded: a frame, count or length over what
//!   the bytes can hold is rejected before allocation.
//! - **TCP serving** ([`ServerHandle`] / [`ServeClient`]) — a
//!   thread-per-core accept loop over a shared fleet, one bounded frame
//!   buffer per connection (reused across requests, and resumed when a
//!   frame stalls mid-way), overload routed through each engine's
//!   [`ix_core::OverloadPolicy`] so sheds surface as events and
//!   statuses, never as dropped bytes.

#![warn(missing_docs)]

mod client;
mod error;
mod fleet;
mod server;
mod snapshot;
mod tenant;
pub mod wire;

pub use client::ServeClient;
pub use error::{
    ServeError, STATUS_FRAME_TOO_LARGE, STATUS_IO, STATUS_OK, STATUS_OVERLOADED, STATUS_PROTOCOL,
    STATUS_SERVE_BASE, STATUS_SNAPSHOT, STATUS_UNKNOWN_OP, STATUS_UNKNOWN_TENANT, STATUS_VERSION,
};
pub use fleet::{Fleet, FleetBuilder, FleetStatus};
pub use server::{handle_request, ServerBuilder, ServerHandle};
pub use snapshot::{ContextState, TenantSnapshot, SNAPSHOT_VERSION};
pub use tenant::{TenantId, MAX_TENANT_ID_BYTES};
