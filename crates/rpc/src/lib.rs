//! In-process RPC fabric for EvoStore — the Mochi/Thallium/Mercury
//! substitute.
//!
//! Provides the primitives the repository is built on (§4.3):
//! two-sided RPCs served by bounded per-endpoint thread pools
//! ([`fabric`]) and one-sided bulk transfers over registered memory
//! regions (the RDMA path).
//!
//! Fault tolerance is layered on top: [`fault`] injects failures
//! (errors, delays, reply loss, down endpoints) at the dispatch and
//! bulk-read boundaries — opt-in, zero overhead when unused — and
//! [`resilient`] is the policy-driven typed call surface (`unary`,
//! `fan_out`, `broadcast`) with bounded-backoff retries, per-call
//! deadlines and metrics.

pub mod codec;
pub mod fabric;
pub mod fault;
pub mod resilient;

pub use codec::{call_typed, decode, encode, typed_handler};
pub use fabric::{BulkHandle, Endpoint, EndpointId, Fabric, Handler, RpcError, SegmentedRegion};
pub use fault::{FaultAction, FaultPlan, FaultRule, FaultStats, FaultWindow};
pub use resilient::{
    broadcast, broadcast_traced, fan_out, fan_out_traced, unary, unary_failover,
    unary_failover_traced, unary_traced, LegResults, RetryPolicy, RpcMetrics, TraceHandle,
};
