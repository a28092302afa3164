//! The model delivery plane — EvoStore's answer to the TensorHub
//! scenario where N workers all pull the *same* new model version at
//! once (RL weight refresh, inference-fleet rollout).
//!
//! This crate holds the deployment-independent pieces:
//!
//! - [`SubscriptionFilter`] — what a subscriber is interested in ("new
//!   version of model X", "any descendant of X", "anything extending
//!   architecture prefix P"), matched provider-side against each
//!   catalog publication;
//! - [`ModelEvent`] / [`SubscriberQueue`] — sequence-numbered store and
//!   retire notifications in a bounded per-subscriber queue with an
//!   explicit overflow marker (dropped events surface as a typed
//!   `EventsLost`, never silently);
//! - [`BroadcastTree`] — the deterministic fanout-F tree over the
//!   subscribers of one release, giving every subscriber an upstream
//!   *fetch chain* (tree parent, grandparent, ..., provider) so one
//!   release costs ~O(log N) provider egress instead of O(N);
//! - [`wire`] — the `deliver.*` RPC messages (their method names are
//!   bound to them in `evostore-core`'s method table);
//! - [`DeliverMetrics`] / [`DeliverStats`] — the provider-side counter
//!   block surfaced through `ProviderStats` and the ObsHub registry.
//!
//! The provider-side matching engine (`DeliveryHub`) and the
//! client-side watcher (`ModelWatcher`) live in `evostore-core`, which
//! owns the catalog and cache types they drive.

pub mod event;
pub mod filter;
pub mod metrics;
pub mod tree;
pub mod wire;

pub use event::{EventKind, ModelEvent, SubscriberQueue};
pub use filter::SubscriptionFilter;
pub use metrics::{DeliverMetrics, DeliverStats};
pub use tree::BroadcastTree;
pub use wire::{
    EventAck, EventPush, PeerFetchReply, PeerFetchRequest, SubscribeReply, SubscribeRequest,
    UnsubscribeReply, UnsubscribeRequest,
};
