//! Wire types of the `deliver.*` RPC family.
//!
//! Subscriptions and event pushes are ordinary typed two-sided RPCs;
//! peer segment exchange rides the one-sided bulk plane — a
//! [`PeerFetchReply`] names an exposed bulk region (raw handle) plus
//! the manifest addressing each serialized tensor inside it, exactly
//! like the provider read path, so a sibling fetch is byte-identical
//! to a provider fetch.

use evostore_tensor::{ManifestEntry, ModelId};
use serde::{Deserialize, Serialize};

use crate::event::ModelEvent;
use crate::filter::SubscriptionFilter;

/// Register interest in catalog changes on one provider.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SubscribeRequest {
    /// What to match.
    pub filter: SubscriptionFilter,
    /// Fabric endpoint the provider pushes `deliver.event` to.
    pub subscriber: u32,
    /// Bound on undelivered events queued provider-side; overflow
    /// drops oldest-first and surfaces as `EventsLost`.
    pub queue_capacity: usize,
    /// When set, immediately enqueue a `Stored` event for every
    /// *currently cataloged* record matching the filter with a
    /// timestamp strictly greater than this — the replay path after a
    /// gap or a provider restart (sequence numbers reset with the
    /// subscription; record timestamps are durable).
    pub replay_after: Option<u64>,
}

/// Subscription accepted.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SubscribeReply {
    /// Provider-assigned subscription id (scope: that provider).
    pub sub_id: u64,
    /// The provider's endpoint id (the root of every fetch chain).
    pub provider: u32,
}

/// Drop a subscription.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UnsubscribeRequest {
    /// The id returned by subscribe.
    pub sub_id: u64,
}

/// Unsubscribe outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UnsubscribeReply {
    /// False when the id was unknown (already dropped).
    pub removed: bool,
}

/// One delivery push: the front of a subscription's queue.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EventPush {
    /// Which subscription this push serves.
    pub sub_id: u64,
    /// The pushing provider's endpoint id.
    pub provider: u32,
    /// Set when events below the batch were dropped by queue overflow:
    /// the lowest lost sequence number. The subscriber surfaces this
    /// as a typed `EventsLost` instead of a silent gap.
    pub lost_from: Option<u64>,
    /// Queued events, oldest first, sequence-numbered.
    pub events: Vec<ModelEvent>,
}

/// Cumulative acknowledgement for one push.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EventAck {
    /// The subscriber's cursor after applying the push: every sequence
    /// number below this is processed and may be retired from the
    /// queue. Duplicates below the cursor are acknowledged without
    /// being re-applied (exactly-once per `(subscriber, seq)`).
    pub next_expected: u64,
}

/// Ask a peer subscriber for a model's serialized weights.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PeerFetchRequest {
    /// The model whose weights are wanted.
    pub model: ModelId,
}

/// Peer answer: not ready yet (still fetching upstream itself), or a
/// bulk region + manifest the caller reads one-sidedly. The region
/// stays exposed for the lifetime of the peer's cached copy — callers
/// must *not* release the handle.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PeerFetchReply {
    /// Whether the peer holds (and exposes) the weights.
    pub ready: bool,
    /// Manifest of the exposed region (empty when not ready).
    pub manifest: Vec<ManifestEntry>,
    /// Raw bulk handle of the exposed region (0 when not ready).
    pub bulk: u64,
}
