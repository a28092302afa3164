//! EvoStore: a distributed repository for evolving deep-learning models.
//!
//! Rust reproduction of *EvoStore: Towards Scalable Storage of Evolving
//! Learning Models* (HPDC'24). The repository stores models derived from
//! each other through transfer learning at leaf-layer tensor granularity:
//!
//! * **incremental storage** — a derived model uploads only the tensors it
//!   changed; frozen layers are shared with their owners
//!   ([`owner_map::OwnerMap`]);
//! * **fine-grained distributed I/O** — tensors are consolidated per write
//!   and placed by static hashing of the model id, moved through one-sided
//!   bulk transfers ([`provider`], [`client`]);
//! * **scalable LCP queries** — best-ancestor search runs provider-side as
//!   a broadcast + reduce over local parallel scans;
//! * **distributed garbage collection** — per-tensor reference counts let
//!   models retire without destroying tensors their descendants inherit;
//! * **provenance** — owner maps + global write ordering answer
//!   contributor, lineage and common-ancestor queries.
//!
//! Start with [`deployment::Deployment`] to spin up providers, then use
//! [`client::EvoStoreClient`].

pub mod cache;
pub mod client;
pub mod delivery;
pub mod deployment;
pub mod messages;
pub mod methods;
pub mod owner_map;
pub mod par;
pub mod policy;
pub mod provider;
pub mod records;
pub mod replication;
pub mod repository;
pub mod telemetry;
pub mod watch;

pub use cache::{CachingClient, TensorCache};
pub use client::{
    random_tensors, Degraded, EvoError, EvoStoreClient, EvoStoreClientBuilder, LoadedModel,
    RetireOutcome, StoreOutcome, TelemetryLevel,
};
pub use delivery::{CatalogChange, DeliveryHub};
pub use deployment::{BackendKind, Deployment, DeploymentConfig, FABRIC_FLIGHT_EVENTS};
pub use messages::ProviderStats;
pub use owner_map::{OwnerMap, VertexOwner};
pub use policy::StorePolicy;
pub use provider::{CatalogSnapshot, ModelRecord, Provider, ProviderState};
pub use replication::ReplicationPolicy;
pub use repository::{
    trained_tensors, FetchOutcome, ModelRepository, RetireOutcomeStats, StoreOutcomeStats,
};
pub use telemetry::{ClientTelemetry, LatencyHistogram};
pub use watch::{AppliedEvent, ModelWatcher, WatchConfig, WatchStats};
