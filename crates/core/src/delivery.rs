//! Provider-side delivery hub: subscription matching against catalog
//! publications, per-subscriber bounded queues, and the asynchronous
//! pump that pushes `deliver.event` RPCs.
//!
//! Every [`ProviderState::mutate_catalog`] publication hands the hub
//! the snapshot it just published plus the [`CatalogChange`] log the
//! mutation produced. The hub matches each change against every live
//! subscription (walking ancestor chains and architecture prefixes
//! through the *snapshot*, so matching sees exactly the state the rest
//! of the deployment sees), plans one deterministic [`BroadcastTree`]
//! per release over the matched subscriber endpoints, and enqueues
//! sequence-numbered events. A dedicated pump thread — never a fabric
//! service thread, so an event push can trigger a prefetch that calls
//! straight back into this provider without deadlocking the service
//! pool — drains the queues with bounded retry and reaps subscribers
//! that stay unreachable.
//!
//! [`ProviderState::mutate_catalog`]: crate::provider::ProviderState

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use evostore_deliver::{
    BroadcastTree, DeliverMetrics, DeliverStats, EventKind, EventPush, ModelEvent, SubscribeReply,
    SubscribeRequest, SubscriberQueue, SubscriptionFilter, UnsubscribeReply, UnsubscribeRequest,
};
use evostore_graph::CompactGraph;
use evostore_obs::Tracer;
use evostore_rpc::{fan_out, EndpointId, Fabric, RetryPolicy, TraceHandle};
use evostore_tensor::ModelId;

use crate::methods;
use crate::provider::CatalogSnapshot;

/// One entry of a catalog mutation's change log, recorded by
/// `Catalog::insert` / `Catalog::remove` and drained at publication.
/// Retirements capture the record fields they need for matching, since
/// the record is gone from the published snapshot.
#[derive(Debug, Clone)]
pub enum CatalogChange {
    /// A record was inserted (store, sync, recovery).
    Stored {
        /// The cataloged model.
        model: ModelId,
    },
    /// A record was removed.
    Retired {
        /// The retired model.
        model: ModelId,
        /// Its recorded parent.
        parent: Option<ModelId>,
        /// Its architecture (for prefix filters).
        graph: Arc<CompactGraph>,
        /// Its recorded quality.
        quality: f64,
        /// Its record timestamp.
        timestamp: u64,
    },
}

/// Events per `deliver.event` push.
const PUSH_BATCH: usize = 64;
/// Consecutive failed pushes before a subscriber is declared dead and
/// its subscription reaped (pending events count as dropped).
const DEAD_AFTER: u32 = 8;
/// Base backoff between pushes to a failing subscriber.
const PUSH_BACKOFF: Duration = Duration::from_millis(10);
/// Pump idle poll (also bounds shutdown latency).
const PUMP_IDLE: Duration = Duration::from_millis(20);
/// Ancestor-chain walk bound (matches the provenance API's own bound).
const MAX_ANCESTOR_WALK: usize = 64;
/// Subscription queue capacity bounds.
const MAX_QUEUE_CAP: usize = 65_536;

/// One live subscription.
struct Subscription {
    filter: SubscriptionFilter,
    subscriber: u32,
    queue: SubscriberQueue,
    /// Catalog-replay backlog, fed into the bounded queue as acks free
    /// space. Kept outside the queue: the bound protects against slow
    /// *live* consumption, while replay is regenerable catalog state —
    /// pouring it in all at once would overflow the very window a
    /// resubscribe is trying to recover.
    replay: std::collections::VecDeque<ModelEvent>,
    consecutive_failures: u32,
    backoff_until: Option<Instant>,
}

impl Subscription {
    /// Move replay backlog into the queue while there is room; returns
    /// the number of events enqueued (they get live sequence numbers).
    fn fill_from_replay(&mut self) -> u64 {
        let mut moved = 0u64;
        while self.queue.free() > 0 {
            let Some(ev) = self.replay.pop_front() else {
                break;
            };
            self.queue.enqueue(ev);
            moved += 1;
        }
        moved
    }
}

#[derive(Default)]
struct HubInner {
    subs: HashMap<u64, Subscription>,
    next_id: u64,
}

/// One push job collected from the queues (sent outside the lock).
struct PushJob {
    sub_id: u64,
    subscriber: u32,
    lost_from: Option<u64>,
    events: Vec<ModelEvent>,
}

/// The per-provider delivery hub.
pub struct DeliveryHub {
    fabric: Arc<Fabric>,
    /// The owning provider's endpoint (root of every fetch chain).
    provider_ep: u32,
    fanout: usize,
    push_retry: RetryPolicy,
    inner: Mutex<HubInner>,
    wake: Condvar,
    stop: AtomicBool,
    pump: Mutex<Option<JoinHandle<()>>>,
    /// Lock-free live-subscription count (fast path: publications with
    /// no subscribers skip the hub lock entirely).
    sub_count: AtomicU64,
    metrics: DeliverMetrics,
    /// Span factory for pump pushes (`deliver.push` roots).
    tracer: Tracer,
}

impl DeliveryHub {
    /// Hub for the provider at endpoint `provider_ep` with the given
    /// broadcast fanout.
    pub fn new(
        fabric: Arc<Fabric>,
        provider_ep: u32,
        fanout: usize,
        tracer: Tracer,
    ) -> DeliveryHub {
        DeliveryHub {
            fabric,
            provider_ep,
            fanout: fanout.max(1),
            // The pump is its own retry loop (unacked events re-push
            // with backoff), so each attempt goes out once with a
            // bounded deadline.
            push_retry: RetryPolicy::no_retry().with_timeout(Duration::from_secs(5)),
            inner: Mutex::new(HubInner::default()),
            wake: Condvar::new(),
            stop: AtomicBool::new(false),
            pump: Mutex::new(None),
            sub_count: AtomicU64::new(0),
            metrics: DeliverMetrics::default(),
            tracer,
        }
    }

    /// The configured broadcast fanout.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Delivery counters snapshot.
    pub fn stats(&self) -> DeliverStats {
        self.metrics.snapshot()
    }

    // ---- subscription management ----------------------------------------

    /// Register a subscription; when `replay_after` is set, seed the
    /// queue with a `Stored` event for every cataloged record matching
    /// the filter with a timestamp strictly greater than it (ordered by
    /// timestamp, then model id — deterministic replay).
    pub fn subscribe(
        self: &Arc<Self>,
        req: SubscribeRequest,
        snap: &CatalogSnapshot,
    ) -> SubscribeReply {
        let queue = SubscriberQueue::new(req.queue_capacity.clamp(1, MAX_QUEUE_CAP));
        let mut replay: Vec<ModelEvent> = Vec::new();
        if let Some(after) = req.replay_after {
            let mut matched: Vec<(u64, ModelId)> = snap
                .records()
                .filter(|&(model, rec)| {
                    rec.timestamp > after
                        && req
                            .filter
                            .matches(model, &ancestor_chain(snap, rec.parent), &rec.graph)
                })
                .map(|(model, rec)| (rec.timestamp, model))
                .collect();
            matched.sort_unstable();
            for (_, model) in matched {
                let rec = snap.get(model).expect("record came from this snapshot");
                replay.push(ModelEvent {
                    seq: 0,
                    kind: EventKind::Stored,
                    model,
                    parent: rec.parent,
                    quality: rec.quality,
                    timestamp: rec.timestamp,
                    // Replays are not a coordinated release: fetch
                    // straight from the provider.
                    fetch_chain: vec![self.provider_ep],
                });
            }
        }
        let (sub_id, published) = {
            let mut inner = self.inner.lock().expect("hub lock");
            let sub_id = inner.next_id;
            inner.next_id += 1;
            let mut sub = Subscription {
                filter: req.filter,
                subscriber: req.subscriber,
                queue,
                replay: replay.into(),
                consecutive_failures: 0,
                backoff_until: None,
            };
            let published = sub.fill_from_replay();
            inner.subs.insert(sub_id, sub);
            (sub_id, published)
        };
        let live = self.sub_count.fetch_add(1, Ordering::Relaxed) + 1;
        self.metrics.subscriptions.set(live);
        self.metrics.events_published.add(published);
        self.ensure_pump();
        self.wake.notify_all();
        SubscribeReply {
            sub_id,
            provider: self.provider_ep,
        }
    }

    /// Drop a subscription.
    pub fn unsubscribe(&self, req: UnsubscribeRequest) -> UnsubscribeReply {
        let removed = self
            .inner
            .lock()
            .expect("hub lock")
            .subs
            .remove(&req.sub_id)
            .is_some();
        if removed {
            let live = self.sub_count.fetch_sub(1, Ordering::Relaxed) - 1;
            self.metrics.subscriptions.set(live);
        }
        UnsubscribeReply { removed }
    }

    // ---- publication matching -------------------------------------------

    /// Match a publication's change log against every live subscription
    /// and enqueue events. Called by `mutate_catalog` while the catalog
    /// write lock is still held, so the event order every subscriber
    /// observes is exactly the publication order. Cost with zero
    /// subscribers is one atomic load.
    pub fn on_publication(&self, snap: &CatalogSnapshot, changes: &[CatalogChange]) {
        if self.sub_count.load(Ordering::Relaxed) == 0 {
            return;
        }
        let mut inner = self.inner.lock().expect("hub lock");
        if inner.subs.is_empty() {
            return;
        }
        let mut published = 0u64;
        let mut overflow = 0u64;
        let mut any = false;
        for change in changes {
            // Resolve the changed record's matching inputs.
            let (kind, model, parent, graph, quality, timestamp) = match change {
                CatalogChange::Stored { model } => match snap.get(*model) {
                    // Already gone again from this snapshot (stored and
                    // retired inside one batched mutation): the retire
                    // change carries the notification.
                    None => continue,
                    Some(rec) => (
                        EventKind::Stored,
                        *model,
                        rec.parent,
                        Arc::clone(&rec.graph),
                        rec.quality,
                        rec.timestamp,
                    ),
                },
                CatalogChange::Retired {
                    model,
                    parent,
                    graph,
                    quality,
                    timestamp,
                } => (
                    EventKind::Retired,
                    *model,
                    *parent,
                    Arc::clone(graph),
                    *quality,
                    *timestamp,
                ),
            };
            let ancestors = ancestor_chain(snap, parent);
            let matched: Vec<u64> = inner
                .subs
                .iter()
                .filter(|(_, s)| s.filter.matches(model, &ancestors, &graph))
                .map(|(&id, _)| id)
                .collect();
            if matched.is_empty() {
                continue;
            }
            // Stored events get a broadcast tree over the matched
            // subscriber endpoints; retirements carry no payload.
            let tree = (kind == EventKind::Stored).then(|| {
                let eps: Vec<u32> = matched.iter().map(|id| inner.subs[id].subscriber).collect();
                let tree = BroadcastTree::plan(&eps, self.fanout, model.0);
                self.metrics.releases.add(1);
                self.metrics.tree_depth.set(tree.depth() as u64);
                self.metrics.tree_width.set(tree.len() as u64);
                tree
            });
            for id in matched {
                let sub = inner.subs.get_mut(&id).expect("matched above");
                let fetch_chain = match &tree {
                    Some(t) => t
                        .position(sub.subscriber)
                        .map(|pos| t.fetch_chain(pos, self.provider_ep))
                        .unwrap_or_else(|| vec![self.provider_ep]),
                    None => Vec::new(),
                };
                overflow += sub.queue.enqueue(ModelEvent {
                    seq: 0,
                    kind,
                    model,
                    parent,
                    quality,
                    timestamp,
                    fetch_chain,
                });
                published += 1;
                any = true;
            }
        }
        drop(inner);
        self.metrics.events_published.add(published);
        self.metrics.events_dropped.add(overflow);
        if any {
            self.wake.notify_all();
        }
    }

    // ---- delivery pump ---------------------------------------------------

    /// Start the pump thread if it is not running yet.
    fn ensure_pump(self: &Arc<Self>) {
        let mut pump = self.pump.lock().expect("pump lock");
        if pump.is_none() && !self.stop.load(Ordering::Relaxed) {
            let hub = Arc::clone(self);
            *pump = Some(
                std::thread::Builder::new()
                    .name(format!("deliver-pump-{}", self.provider_ep))
                    .spawn(move || hub.pump_loop())
                    .expect("spawn delivery pump"),
            );
        }
    }

    /// Stop the pump and wait for it (provider shutdown).
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
        self.wake.notify_all();
        let handle = self.pump.lock().expect("pump lock").take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }

    fn pump_loop(self: Arc<Self>) {
        while !self.stop.load(Ordering::Relaxed) {
            let jobs = {
                let mut inner = self.inner.lock().expect("hub lock");
                loop {
                    if self.stop.load(Ordering::Relaxed) {
                        return;
                    }
                    let jobs = Self::collect_jobs(&mut inner);
                    if !jobs.is_empty() {
                        break jobs;
                    }
                    let (guard, _) = self.wake.wait_timeout(inner, PUMP_IDLE).expect("hub lock");
                    inner = guard;
                }
            };
            self.push_jobs(jobs);
        }
    }

    /// Snapshot one push batch per due subscription (queues unchanged;
    /// acks retire events afterwards).
    fn collect_jobs(inner: &mut HubInner) -> Vec<PushJob> {
        let now = Instant::now();
        inner
            .subs
            .iter()
            .filter(|(_, s)| s.queue.pending_len() > 0 && s.backoff_until.is_none_or(|t| t <= now))
            .map(|(&sub_id, s)| {
                let (lost_from, events) = s.queue.batch(PUSH_BATCH);
                PushJob {
                    sub_id,
                    subscriber: s.subscriber,
                    lost_from,
                    events,
                }
            })
            .collect()
    }

    /// Push the collected batches in parallel and apply acks/failures.
    fn push_jobs(&self, jobs: Vec<PushJob>) {
        let legs: Vec<(EndpointId, EventPush)> = jobs
            .iter()
            .map(|j| {
                (
                    EndpointId(j.subscriber),
                    EventPush {
                        sub_id: j.sub_id,
                        provider: self.provider_ep,
                        lost_from: j.lost_from,
                        events: j.events.clone(),
                    },
                )
            })
            .collect();
        self.metrics.event_pushes.add(legs.len() as u64);
        // One `deliver.push` root span per pump round; every push
        // attempt files a child under it.
        let root = self.tracer.start_root("deliver.push");
        let results = fan_out(
            &self.fabric,
            &legs,
            methods::Event,
            &self.push_retry,
            None,
            Some(&TraceHandle::new(&self.tracer, root.ctx())),
        );
        let mut inner = self.inner.lock().expect("hub lock");
        for (job, (_, result)) in jobs.iter().zip(results) {
            let Some(sub) = inner.subs.get_mut(&job.sub_id) else {
                continue; // unsubscribed mid-push
            };
            match result {
                Ok(ack) => {
                    let acked = sub.queue.ack(ack.next_expected);
                    let refilled = sub.fill_from_replay();
                    sub.consecutive_failures = 0;
                    sub.backoff_until = None;
                    self.metrics.events_delivered.add(acked);
                    self.metrics.events_published.add(refilled);
                }
                Err(_) => {
                    sub.consecutive_failures += 1;
                    self.metrics.push_failures.add(1);
                    if sub.consecutive_failures >= DEAD_AFTER {
                        let pending = (sub.queue.pending_len() + sub.replay.len()) as u64;
                        inner.subs.remove(&job.sub_id);
                        let live = self.sub_count.fetch_sub(1, Ordering::Relaxed) - 1;
                        self.metrics.subscriptions.set(live);
                        self.metrics.events_dropped.add(pending);
                    } else {
                        sub.backoff_until =
                            Some(Instant::now() + PUSH_BACKOFF * sub.consecutive_failures.min(8));
                    }
                }
            }
        }
        root.finish();
    }
}

/// Walk a record's ancestor chain through the snapshot, nearest parent
/// first, bounded and cycle-safe. Chains crossing provider boundaries
/// are followed as far as the local catalog reaches.
fn ancestor_chain(snap: &CatalogSnapshot, mut parent: Option<ModelId>) -> Vec<ModelId> {
    let mut chain = Vec::new();
    while let Some(p) = parent {
        if chain.len() >= MAX_ANCESTOR_WALK || chain.contains(&p) {
            break;
        }
        chain.push(p);
        parent = snap.get(p).and_then(|r| r.parent);
    }
    chain
}
