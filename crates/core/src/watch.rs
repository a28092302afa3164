//! Client-side delivery plane: the [`ModelWatcher`].
//!
//! A watcher attaches to a [`CachingClient`], registers its own fabric
//! endpoint, and subscribes to every provider with one
//! [`SubscriptionFilter`]. Providers push sequence-numbered
//! [`ModelEvent`]s; the watcher
//!
//! * applies them **exactly once** per `(provider, seq)` — duplicates
//!   (retried pushes) are acknowledged without re-applying, and gaps
//!   surface as typed [`EvoError::EventsLost`] plus an automatic
//!   replaying resubscribe keyed on the durable record timestamp;
//! * keeps the tensor cache honest — a `Stored` or `Retired` event for
//!   a model immediately invalidates every cached tensor owned by the
//!   superseded version;
//! * prefetches released weights along the event's *fetch chain* — the
//!   provider-rooted broadcast tree position assigned to this
//!   subscriber. The watcher tries its tree parent (a peer subscriber)
//!   first and walks up the chain on failure; the chain always ends at
//!   the provider, so a release lands even if every peer is down;
//! * serves the fetched weights onward to its own tree children over
//!   the one-sided bulk plane (`deliver.fetch`), so one release costs
//!   the provider ~fanout payloads instead of one per subscriber.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use evostore_deliver::{
    EventAck, EventKind, EventPush, ModelEvent, PeerFetchReply, PeerFetchRequest, SubscribeRequest,
    SubscriptionFilter, UnsubscribeRequest,
};
use evostore_obs::{counter_set, current_trace, ObsHub, SloEngine, Tracer};
use evostore_rpc::{
    unary, BulkHandle, Endpoint, EndpointId, Fabric, Method, RetryPolicy, RpcError,
};
use evostore_tensor::{rope, write_tensor_segments, ModelId, TensorData, TensorKey};
use parking_lot::Mutex;

use crate::cache::CachingClient;
use crate::client::{EvoError, Result};
use crate::messages::ManifestEntry;
use crate::methods;
use crate::records::{pack, read_entry};

/// Service threads of a watcher's endpoint: one applies event pushes
/// while another serves peer fetches.
const WATCHER_SERVICE_THREADS: usize = 2;

/// Poll interval while a tree parent is still fetching upstream.
const PEER_POLL: Duration = Duration::from_millis(2);

/// Watcher tuning knobs. A watcher always resubscribes with replay when
/// it detects a sequence gap or an `EventsLost` marker.
#[derive(Debug, Clone)]
pub struct WatchConfig {
    /// Provider-side bound on undelivered events for this subscriber.
    pub queue_capacity: usize,
    /// Fetch released weights into the cache on `Stored` events.
    pub prefetch: bool,
    /// Expose fetched weights to tree children over `deliver.fetch`.
    pub serve_peers: bool,
    /// Follow the event's broadcast-tree fetch chain (peers first);
    /// `false` fetches every release straight from the provider — the
    /// unicast baseline the `deliver_ab` bench compares against.
    pub use_fetch_chain: bool,
    /// Initial replay point: `Some(ts)` replays every cataloged record
    /// newer than `ts` on subscribe (use `Some(0)` for "everything").
    pub replay_after: Option<u64>,
    /// Polls before giving up on a parent and walking up the chain.
    pub peer_poll_attempts: usize,
}

impl Default for WatchConfig {
    fn default() -> Self {
        WatchConfig {
            queue_capacity: 256,
            prefetch: true,
            serve_peers: true,
            use_fetch_chain: true,
            replay_after: None,
            peer_poll_attempts: 500,
        }
    }
}

/// One event the watcher has applied (test/diagnostic log).
#[derive(Debug, Clone)]
pub struct AppliedEvent {
    /// The model the event names.
    pub model: ModelId,
    /// Stored or retired.
    pub kind: EventKind,
    /// Sequence number within the subscription.
    pub seq: u64,
    /// The provider endpoint that pushed it.
    pub provider: u32,
    /// Where the weights came from (`None`: no prefetch ran).
    pub source: Option<FetchSource>,
}

/// Where a prefetch got its bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchSource {
    /// Every tensor was already cached.
    Cache,
    /// Fetched from a peer subscriber (the tree parent at this endpoint).
    Peer(u32),
    /// Fetched from the provider.
    Provider,
}

counter_set! {
    /// What one watcher has done; bumped by its drain and fetch paths.
    struct WatchTelemetry;
    /// Watcher counters snapshot.
    pub struct WatchStats {
        /// Events applied (stores + retires), exactly once each.
        events_applied: atomic sum counter "evostore_deliver_events_applied",
        /// Duplicate events skipped (already below the cursor).
        events_duplicate: atomic sum counter "evostore_deliver_events_duplicate",
        /// Sequence gaps / loss markers observed.
        gaps: atomic sum counter "evostore_deliver_gaps",
        /// Retire events among the applied.
        retires_applied: atomic sum counter "evostore_deliver_retires_applied",
        /// Prefetches satisfied by a peer subscriber.
        peer_fetches: atomic sum counter "evostore_deliver_peer_fetches",
        /// Prefetches satisfied by the provider.
        provider_fetches: atomic sum counter "evostore_deliver_provider_fetches",
        /// Payload bytes pulled from peers.
        peer_bytes_fetched: atomic sum counter "evostore_deliver_peer_bytes_fetched",
        /// Payload bytes pulled from providers — the provider egress this
        /// watcher is responsible for.
        provider_bytes_fetched: atomic sum counter "evostore_deliver_provider_egress_bytes",
        /// Payload bytes this watcher served onward to its tree children.
        peer_bytes_served: atomic sum counter "evostore_deliver_peer_bytes_served",
        /// Tensors a prefetch found already cached.
        cache_hits_on_fetch: atomic sum counter "evostore_deliver_cache_hits_on_fetch",
        /// Retired with the provider chunk exchange: always 0. Kept
        /// registered until the benchmark stops reading it.
        chunk_bytes_reused: atomic sum counter "evostore_deliver_chunk_bytes_reused",
        /// Event receipt → weights cached, per prefetched release.
        time_to_weights: histogram "evostore_deliver_time_to_weights_us",
    }
}

/// Cursor into one provider's event stream.
struct SubCursor {
    sub_id: u64,
    /// Next sequence number this watcher will apply; everything below
    /// is processed (the cumulative ack).
    next_expected: u64,
    /// Highest record timestamp applied — the durable replay key a
    /// resubscribe hands back to the provider.
    last_ts: u64,
}

/// A model this watcher holds serialized and exposed for its children.
struct ServedModel {
    manifest: Vec<ManifestEntry>,
    bulk: u64,
    bytes: u64,
}

#[derive(Default)]
struct WatchLog {
    applied: Vec<AppliedEvent>,
    errors: Vec<EvoError>,
}

struct WatcherInner {
    client: CachingClient,
    fabric: Arc<Fabric>,
    self_ep: u32,
    cfg: WatchConfig,
    filter: SubscriptionFilter,
    /// Fail-fast policy for peer polls (chain failover is the retry).
    peer_retry: RetryPolicy,
    /// Client retry policy for control-plane calls (subscribe).
    retry: RetryPolicy,
    subs: Mutex<HashMap<u32, SubCursor>>,
    log: Mutex<WatchLog>,
    served: Mutex<HashMap<ModelId, ServedModel>>,
    telemetry: WatchTelemetry,
    tracer: Arc<Tracer>,
    /// SLO engine fed with per-event time-to-weights (op class
    /// `deliver`); present when the watcher attached under an [`ObsHub`].
    slo: Option<Arc<SloEngine>>,
}

/// A live subscription endpoint: see the module docs.
pub struct ModelWatcher {
    inner: Arc<WatcherInner>,
    endpoint: Endpoint,
}

impl ModelWatcher {
    /// Attach a watcher to `client`'s deployment: create an endpoint on
    /// the client's fabric, register the `deliver.event` /
    /// `deliver.fetch` handlers, and subscribe to every provider with
    /// `filter`. When an [`ObsHub`] is passed, the watcher's
    /// `evostore_deliver_*` counters register with it under node
    /// `watcher{endpoint}`.
    pub fn attach(
        client: CachingClient,
        filter: SubscriptionFilter,
        cfg: WatchConfig,
        obs: Option<&ObsHub>,
    ) -> Result<ModelWatcher> {
        let fabric = Arc::clone(client.inner().fabric());
        let endpoint = fabric.create_endpoint(WATCHER_SERVICE_THREADS);
        let self_ep = endpoint.id().0;
        let retry = client.inner().retry_policy().clone();
        let tracer = Arc::clone(client.inner().tracer());
        let inner = Arc::new(WatcherInner {
            client,
            fabric,
            self_ep,
            cfg,
            filter,
            peer_retry: RetryPolicy::no_retry().with_timeout(Duration::from_secs(1)),
            retry,
            subs: Mutex::new(HashMap::new()),
            log: Mutex::new(WatchLog::default()),
            served: Mutex::new(HashMap::new()),
            telemetry: WatchTelemetry::default(),
            tracer,
            slo: obs.map(|hub| Arc::clone(hub.slo())),
        });

        let w = Arc::clone(&inner);
        endpoint.serve(methods::Event, move |push| {
            w.traced("deliver.apply", |w| w.handle_event(push))
        });
        let w = Arc::clone(&inner);
        endpoint.serve(methods::PeerFetch, move |req| {
            w.traced(methods::PeerFetch::METHOD, |w| Ok(w.handle_peer_fetch(req)))
        });

        if let Some(hub) = obs {
            let node = format!("watcher{self_ep}");
            let w = Arc::clone(&inner);
            hub.registry()
                .register(move || w.telemetry.snapshot().rows(&[("client", &node)]));
        }

        let watcher = ModelWatcher { inner, endpoint };
        watcher.inner.subscribe_all()?;
        Ok(watcher)
    }

    /// The watcher's fabric endpoint id (its address in fetch chains).
    pub fn endpoint_id(&self) -> EndpointId {
        self.endpoint.id()
    }

    /// The caching client the watcher feeds.
    pub fn client(&self) -> &CachingClient {
        &self.inner.client
    }

    /// Events applied so far, in application order.
    pub fn applied(&self) -> Vec<AppliedEvent> {
        self.inner.log.lock().applied.clone()
    }

    /// Drain the error log (typed `EventsLost`, failed prefetches).
    pub fn take_errors(&self) -> Vec<EvoError> {
        std::mem::take(&mut self.inner.log.lock().errors)
    }

    /// Counters snapshot.
    pub fn stats(&self) -> WatchStats {
        self.inner.telemetry.snapshot()
    }

    /// Poll until `pred` holds or `timeout` elapses; returns whether the
    /// predicate was met.
    pub fn wait_until(&self, timeout: Duration, pred: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if pred() {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for ModelWatcher {
    fn drop(&mut self) {
        self.inner.shutdown();
    }
}

impl WatcherInner {
    /// Run `f` under a span joined to the pusher's trace when the RPC
    /// envelope carried one (mirrors the provider-side handler pattern).
    fn traced<T>(
        self: &Arc<Self>,
        name: &'static str,
        f: impl FnOnce(&Arc<Self>) -> std::result::Result<T, String>,
    ) -> std::result::Result<T, String> {
        let Some(parent) = current_trace() else {
            return f(self);
        };
        let mut span = self.tracer.start_child(parent, name, Some(self.self_ep));
        let out = {
            let _g = evostore_obs::set_current_trace(Some(span.ctx()));
            f(self)
        };
        if let Err(e) = &out {
            span.fail(e.clone());
        }
        span.finish();
        out
    }

    /// One untraced typed call from this watcher's endpoint.
    fn call<M: Method>(
        &self,
        target: EndpointId,
        method: M,
        req: &M::Request,
        retry: &RetryPolicy,
    ) -> std::result::Result<M::Reply, RpcError> {
        unary(&self.fabric, target, method, req, retry, None, None)
    }

    // ---- subscription lifecycle -----------------------------------------

    fn subscribe_all(self: &Arc<Self>) -> Result<()> {
        for &provider in self.client.inner().provider_endpoints() {
            self.subscribe_to(provider, self.cfg.replay_after)?;
        }
        Ok(())
    }

    fn subscribe_to(&self, provider: EndpointId, replay_after: Option<u64>) -> Result<()> {
        let req = SubscribeRequest {
            filter: self.filter.clone(),
            subscriber: self.self_ep,
            queue_capacity: self.cfg.queue_capacity,
            replay_after,
        };
        let reply = self.call(provider, methods::Subscribe, &req, &self.retry)?;
        self.subs.lock().insert(
            provider.0,
            SubCursor {
                sub_id: reply.sub_id,
                next_expected: 0,
                last_ts: replay_after.unwrap_or(0),
            },
        );
        Ok(())
    }

    /// Drop and re-create the subscription on one provider, replaying
    /// every record newer than `replay_from` — the gap recovery path.
    /// Callers pass the last timestamp applied *before* the gap, so the
    /// lost window is inside the replay even when later events already
    /// advanced the cursor past it.
    fn resubscribe(&self, provider: u32, replay_from: u64) {
        let old = self.subs.lock().remove(&provider);
        if let Some(c) = old {
            let _ = self.call(
                EndpointId(provider),
                methods::Unsubscribe,
                &UnsubscribeRequest { sub_id: c.sub_id },
                &self.peer_retry,
            );
        }
        if let Err(e) = self.subscribe_to(EndpointId(provider), Some(replay_from)) {
            self.log.lock().errors.push(e);
        }
    }

    fn shutdown(&self) {
        let subs: Vec<(u32, u64)> = self
            .subs
            .lock()
            .iter()
            .map(|(&p, c)| (p, c.sub_id))
            .collect();
        for (provider, sub_id) in subs {
            let _ = self.call(
                EndpointId(provider),
                methods::Unsubscribe,
                &UnsubscribeRequest { sub_id },
                &self.peer_retry,
            );
        }
        let served: Vec<ServedModel> = self.served.lock().drain().map(|(_, s)| s).collect();
        for s in served {
            self.fabric.bulk_release(BulkHandle(s.bulk));
        }
    }

    // ---- event application ----------------------------------------------

    /// Apply one push: advance the cursor exactly once per sequence
    /// number, surface gaps as typed errors, and prefetch outside the
    /// cursor lock.
    fn handle_event(self: &Arc<Self>, push: EventPush) -> std::result::Result<EventAck, String> {
        let mut to_apply: Vec<ModelEvent> = Vec::new();
        let mut need_resub = false;
        let resub_from;
        let ack = {
            let mut subs = self.subs.lock();
            let Some(cursor) = subs.get_mut(&push.provider) else {
                // The subscribe reply hasn't landed the cursor yet (a
                // replay push can race it) or the watcher is shutting
                // down. Refuse the push: the pump re-delivers with
                // backoff; acking here would drain events unseen.
                return Err("subscription not registered yet".into());
            };
            if cursor.sub_id != push.sub_id {
                return Err("subscription superseded".into());
            }
            // The replay point a gap recovery must use: everything
            // applied *before* this push is safe, nothing in it is.
            resub_from = cursor.last_ts;
            if let Some(from) = push.lost_from {
                if from >= cursor.next_expected {
                    self.telemetry.gaps.add(1);
                    self.log
                        .lock()
                        .errors
                        .push(EvoError::EventsLost { from_seq: from });
                    need_resub = true;
                }
            }
            for ev in push.events {
                if ev.seq < cursor.next_expected {
                    // Duplicate (a retried push): acknowledged, never
                    // re-applied.
                    self.telemetry.events_duplicate.add(1);
                    continue;
                }
                if ev.seq > cursor.next_expected {
                    self.telemetry.gaps.add(1);
                    self.log.lock().errors.push(EvoError::EventsLost {
                        from_seq: cursor.next_expected,
                    });
                    need_resub = true;
                }
                cursor.next_expected = ev.seq + 1;
                cursor.last_ts = cursor.last_ts.max(ev.timestamp);
                to_apply.push(ev);
            }
            cursor.next_expected
        };
        for ev in to_apply {
            self.apply(ev, push.provider);
        }
        if need_resub {
            self.resubscribe(push.provider, resub_from);
        }
        Ok(EventAck { next_expected: ack })
    }

    /// Apply one event: invalidate superseded cache state, then (for
    /// stores, when prefetching) pull the weights along the fetch chain.
    fn apply(self: &Arc<Self>, ev: ModelEvent, provider: u32) {
        let started = Instant::now();
        // A new version or a retirement supersedes whatever this model
        // had cached; drop it before anything can read it stale. Serving
        // state for the model is superseded with it.
        self.client.cache().invalidate_owner(ev.model);
        self.drop_served(ev.model);
        let mut source = None;
        match ev.kind {
            EventKind::Retired => {
                self.telemetry.retires_applied.add(1);
            }
            EventKind::Stored => {
                if self.cfg.prefetch {
                    let outcome = self.fetch_weights(&ev, provider);
                    if let Some(slo) = &self.slo {
                        slo.record(
                            "deliver",
                            started.elapsed().as_micros() as u64,
                            outcome.is_ok(),
                        );
                    }
                    match outcome {
                        Ok(s) => {
                            source = Some(s);
                            self.telemetry.time_to_weights.record(started.elapsed());
                        }
                        Err(e) => self.log.lock().errors.push(e),
                    }
                }
            }
        }
        self.telemetry.events_applied.add(1);
        self.log.lock().applied.push(AppliedEvent {
            model: ev.model,
            kind: ev.kind,
            seq: ev.seq,
            provider,
            source,
        });
    }

    // ---- weight fetching (peer-assisted) --------------------------------

    /// Pull a released model's tensors into the cache, trying each hop
    /// of the event's fetch chain in order (tree parent first, provider
    /// last), then expose the serialized bytes for this watcher's own
    /// tree children.
    fn fetch_weights(self: &Arc<Self>, ev: &ModelEvent, provider: u32) -> Result<FetchSource> {
        let meta = self.client.inner().get_meta(ev.model)?;
        let keys = meta.owner_map.all_tensor_keys();
        let (mut have, missing) = self.client.cache().get_batch(&keys);
        self.telemetry.cache_hits_on_fetch.add(have.len() as u64);
        let mut source = FetchSource::Cache;
        // Records that arrived from a peer, kept as the ropes they arrived
        // as to be served onward without re-encoding.
        let mut raw_segments: HashMap<TensorKey, Vec<Bytes>> = HashMap::new();
        if !missing.is_empty() {
            let chain: Vec<u32> = if self.cfg.use_fetch_chain && !ev.fetch_chain.is_empty() {
                ev.fetch_chain.clone()
            } else {
                vec![provider]
            };
            let last = chain.len() - 1;
            let mut fetched = false;
            let mut chain_err = None;
            for (i, &hop) in chain.iter().enumerate() {
                let from_provider = i == last;
                let outcome = if from_provider {
                    self.fetch_from_provider(&missing, &mut have)
                        .map(|()| FetchSource::Provider)
                } else {
                    self.fetch_from_peer(hop, ev.model, &missing, &mut have, &mut raw_segments)
                        .map(|()| FetchSource::Peer(hop))
                };
                match outcome {
                    Ok(s) => {
                        source = s;
                        fetched = true;
                        break;
                    }
                    // Dead or still-empty hop: fail over one level up
                    // the chain — this is how the tree re-forms around
                    // a downed interior peer without re-planning.
                    Err(e) => chain_err = Some(e),
                }
            }
            if !fetched {
                return Err(
                    chain_err.unwrap_or_else(|| EvoError::Protocol("empty fetch chain".into()))
                );
            }
        }
        if self.cfg.serve_peers {
            self.expose(ev.model, &keys, &have, &raw_segments);
        }
        Ok(source)
    }

    /// Fetch `missing` straight from the deployment (placement-routed
    /// reads); counts toward provider egress.
    fn fetch_from_provider(
        &self,
        missing: &[TensorKey],
        have: &mut HashMap<TensorKey, TensorData>,
    ) -> Result<()> {
        let fetched = self.client.inner().fetch_tensors(missing)?;
        let bytes: u64 = fetched.values().map(|t| t.byte_len() as u64).sum();
        self.telemetry.provider_fetches.add(1);
        self.telemetry.provider_bytes_fetched.add(bytes);
        for (k, t) in fetched {
            self.client.cache().put(k, t.clone());
            have.insert(k, t);
        }
        Ok(())
    }

    /// Fetch `missing` from a peer subscriber: poll `deliver.fetch`
    /// until the peer holds the model (it may still be fetching
    /// upstream itself), then read its exposed bulk region one-sidedly.
    fn fetch_from_peer(
        &self,
        peer: u32,
        model: ModelId,
        missing: &[TensorKey],
        have: &mut HashMap<TensorKey, TensorData>,
        raw_segments: &mut HashMap<TensorKey, Vec<Bytes>>,
    ) -> Result<()> {
        let req = PeerFetchRequest { model };
        let mut reply: Option<PeerFetchReply> = None;
        for _ in 0..self.cfg.peer_poll_attempts.max(1) {
            let r = self.call(EndpointId(peer), methods::PeerFetch, &req, &self.peer_retry)?;
            if r.ready {
                reply = Some(r);
                break;
            }
            std::thread::sleep(PEER_POLL);
        }
        let reply = reply.ok_or(EvoError::Unavailable {
            endpoint: EndpointId(peer),
        })?;
        // The region is the peer's for as long as it serves the model: read,
        // never withdrawn.
        let region = self.fabric.bulk_get_vec(BulkHandle(reply.bulk))?;
        let wanted: std::collections::HashSet<TensorKey> = missing.iter().copied().collect();
        let mut bytes = 0u64;
        for entry in &reply.manifest {
            if !wanted.contains(&entry.key) {
                continue;
            }
            // Full deserialization validates the record (checksums);
            // a corrupt peer copy surfaces instead of propagating.
            let (raw, tensor) = read_entry(entry, &region)?;
            bytes += entry.len;
            self.client.cache().put(entry.key, tensor.clone());
            have.insert(entry.key, tensor);
            raw_segments.insert(entry.key, raw);
        }
        if missing.iter().any(|k| !have.contains_key(k)) {
            return Err(EvoError::Protocol(format!(
                "peer {peer} manifest missing tensors of {model}"
            )));
        }
        self.telemetry.peer_fetches.add(1);
        self.telemetry.peer_bytes_fetched.add(bytes);
        Ok(())
    }

    /// Expose a model's serialized tensors for this watcher's tree
    /// children. Records fetched from a peer are re-exposed as the same
    /// ropes; cache/provider tensors are encoded here once, a large one as
    /// a rope around its own payload.
    fn expose(
        &self,
        model: ModelId,
        keys: &[TensorKey],
        have: &HashMap<TensorKey, TensorData>,
        raw_segments: &HashMap<TensorKey, Vec<Bytes>>,
    ) {
        let mut records: Vec<Vec<Bytes>> = Vec::with_capacity(keys.len());
        for key in keys {
            records.push(match (raw_segments.get(key), have.get(key)) {
                (Some(raw), _) => raw.clone(),
                (None, Some(t)) => write_tensor_segments(t).segments().to_vec(),
                (None, None) => return, // incomplete set: don't serve it
            });
        }
        let (manifest, segments) =
            pack(keys.iter().copied().zip(records.iter().map(Vec::as_slice)));
        let bytes = rope::len(&segments) as u64;
        // Owned by this watcher's endpoint: if the watcher dies, the
        // region reports Unavailable and children fail over up-chain.
        let handle = self
            .fabric
            .bulk_expose_vec_owned(segments, EndpointId(self.self_ep));
        let prev = self.served.lock().insert(
            model,
            ServedModel {
                manifest,
                bulk: handle.0,
                bytes,
            },
        );
        if let Some(old) = prev {
            self.fabric.bulk_release(BulkHandle(old.bulk));
        }
    }

    fn drop_served(&self, model: ModelId) {
        if let Some(old) = self.served.lock().remove(&model) {
            self.fabric.bulk_release(BulkHandle(old.bulk));
        }
    }

    /// Serve a child's `deliver.fetch`: point it at the exposed region,
    /// or tell it to poll again (`ready: false`) while this watcher is
    /// still fetching upstream itself.
    fn handle_peer_fetch(&self, req: PeerFetchRequest) -> PeerFetchReply {
        match self.served.lock().get(&req.model) {
            Some(s) => {
                self.telemetry.peer_bytes_served.add(s.bytes);
                PeerFetchReply {
                    ready: true,
                    manifest: s.manifest.clone(),
                    bulk: s.bulk,
                }
            }
            None => PeerFetchReply {
                ready: false,
                manifest: Vec::new(),
                bulk: 0,
            },
        }
    }
}
