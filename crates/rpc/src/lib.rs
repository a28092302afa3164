//! In-process RPC fabric for EvoStore — the Mochi/Thallium/Mercury
//! substitute.
//!
//! Provides the primitives the repository is built on (§4.3):
//! two-sided RPCs served by bounded per-endpoint thread pools, or by the
//! calling thread for a [`Lane::Caller`] method ([`fabric`]), and
//! one-sided bulk transfers over registered memory regions (the RDMA
//! path).
//!
//! Fault tolerance is layered on top: [`fault`] injects failures
//! (errors, delays, reply loss, down endpoints) at the dispatch and
//! bulk-read boundaries — opt-in, zero overhead when unused — and
//! [`resilient`] is the policy-driven typed call surface (`unary`,
//! `fan_out`, `broadcast` — one function per shape, each taking an
//! optional trace handle, all three one overlapped dispatch engine) with
//! bounded-backoff retries, per-call deadlines and metrics. Walking a
//! replica chain belongs to the caller. [`method`] declares each RPC once —
//! wire name, request and reply bound in a [`Method`] marker — and the
//! call shapes and [`Endpoint::serve`] are keyed by that marker.

pub mod codec;
pub mod fabric;
pub mod fault;
pub mod method;
pub mod resilient;

pub use codec::{decode, encode};
pub use fabric::{
    BulkHandle, Endpoint, EndpointId, Fabric, FabricStats, Handler, Lane, RpcError, SegmentedRegion,
};
pub use fault::{FaultAction, FaultPlan, FaultRule, FaultStats, FaultWindow};
pub use method::Method;
pub use resilient::{
    broadcast, fan_out, unary, LegResults, RetryPolicy, RpcMetrics, RpcStats, TraceHandle,
};
