//! Observability for EvoStore: traces, metrics, and flight recorders.
//!
//! Three pieces, all dependency-free (vendored-offline-safe) so every
//! other crate can use them:
//!
//! * **Tracing** ([`trace`]) — a [`TraceContext`] propagated through the
//!   RPC envelope so each client operation yields a span tree covering
//!   the client call, every resilient retry attempt, and the
//!   provider-side handler, timestamped by a pluggable [`TimeSource`]
//!   ([`clock`]: wall clock live, virtual clock under simulation).
//! * **Metrics** ([`registry`]) — a [`MetricsRegistry`] unifying the
//!   per-island counters behind one [`RegistrySnapshot`] with JSON and
//!   Prometheus-text exposition; every island declares its counters
//!   once, as a [`counter_set!`] table ([`telemetry`]).
//! * **Flight recording** ([`recorder`]) — bounded per-node rings of
//!   recent spans/faults/failovers ([`FlightRecorder`]) merged into a
//!   causal postmortem after a chaos run, plus a [`SlowOpLog`] retaining
//!   over-threshold operations verbatim with their child breakdown.
//!
//! A deployment's [`ObsHub`] holds every source, recorder and slow-op log
//! attached to it weakly: whoever created one owns it, and a dropped one
//! leaves the hub.

//!
//! PR 9 turned the passive counters into an active telemetry pipeline:
//!
//! * **SLO engine** ([`slo`]) — per-op-class latency objectives with
//!   deterministic multi-window burn-rate evaluation.
//! * **Resource ledger** ([`ledger`]) — ambient per-op cost cells
//!   folded into per-class [`OpLedger`] aggregates.
//! * **Exposition server** ([`serve`]) — a dependency-free HTTP
//!   responder for `/metrics`, `/slo`, `/traces/recent`, `/flight`.

pub mod clock;
pub mod ledger;
pub mod recorder;
pub mod registry;
pub mod serve;
pub mod slo;
pub mod telemetry;
pub mod trace;

pub use clock::{MonotonicClock, TimeSource, VirtualClock};
pub use ledger::{CostsSnapshot, LedgerEntry, OpCosts, OpLedger};
pub use recorder::{FlightEvent, FlightRecorder, SlowOp, SlowOpLog};
pub use registry::{
    Exemplar, HistogramSummary, Metric, MetricValue, MetricsRegistry, MetricsSource, ObsHub,
    RegistrySnapshot,
};
pub use serve::{ObsServer, ObsServerBuilder};
pub use slo::{SloEngine, SloSpec, SloStatus, WindowStatus};
pub use telemetry::{Computed, Counter, LatencyHistogram};
pub use trace::{
    current_trace, render_span_tree, set_current_trace, span_depth, Span, SpanRecord, TraceContext,
    Tracer,
};
