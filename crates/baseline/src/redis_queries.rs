//! Redis-Queries: the centralized metadata-server baseline (§5.2).
//!
//! A single server stores DL model architectures as JSON key-value pairs
//! and answers LCP queries by iterating over *every* stored pair —
//! deserializing each architecture on every query — under a global
//! reader-writer lock. Add/retire follow the paper's protocol exactly:
//!
//! * **add**: acquire the global writer lock; try the
//!   architecture-specific registration — if the architecture is new the
//!   caller must write the weights file and then *publish*; if it already
//!   exists only the reference count is bumped and no weights are
//!   written;
//! * **retire**: writer lock, decrement; at zero the architecture is
//!   unpublished and its weights file must be freed by the caller;
//! * **query**: reader lock held across the whole catalog iteration; the
//!   best match is pinned (refcount+1) until the caller finishes
//!   transferring weights.
//!
//! The deliberate centralization + JSON decode per visited entry + global
//! lock are what Fig 5 measures against EvoStore's decentralized scan.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use evostore_graph::{lcp, CompactGraph, LcpResult};
use evostore_rpc::{Endpoint, EndpointId, Fabric, Method, RetryPolicy, RpcError};
use evostore_tensor::{ContentHash, ModelId};
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

/// One registered architecture.
struct Entry {
    /// JSON-serialized architecture (decoded on every query visit).
    json: String,
    /// Representative model (first registrant).
    model: ModelId,
    quality: f64,
    /// Reference count: registrations + in-flight query pins.
    refs: AtomicU64,
    published: bool,
    weights_path: String,
}

#[derive(Default)]
struct Catalog {
    by_sig: HashMap<ContentHash, Entry>,
    by_model: HashMap<ModelId, ContentHash>,
}

/// Server state.
pub struct RedisState {
    catalog: RwLock<Catalog>,
    queries_served: AtomicU64,
    entries_visited: AtomicU64,
}

/// Reply to `begin_add`.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct BeginAddReply {
    /// True when the architecture is new: the caller must write the
    /// weights file and then call `publish`.
    pub need_weights: bool,
}

/// Reply to `retire`.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct RetireReply {
    /// Weights file to free, when the last reference dropped.
    pub free_weights: Option<String>,
}

/// Reply to an LCP query.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RedisLcpReply {
    /// Best match, pinned until `unpin`.
    pub best: Option<RedisLcpCandidate>,
    /// Entries visited (each one JSON-decoded).
    pub scanned: usize,
}

/// A pinned best match.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RedisLcpCandidate {
    /// Representative model of the matched architecture.
    pub model: ModelId,
    /// Its quality.
    pub quality: f64,
    /// LCP against the query graph.
    pub lcp: LcpResult,
    /// Where its weights live on the PFS.
    pub weights_path: String,
}

/// Requests.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BeginAddRequest {
    /// Registering model.
    pub model: ModelId,
    /// Its architecture (stored as JSON server-side).
    pub graph: CompactGraph,
    /// Quality metric.
    pub quality: f64,
    /// Weights path the caller will write.
    pub weights_path: String,
}

/// Publish / retire / unpin by model id.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelRef {
    /// Target model.
    pub model: ModelId,
}

/// LCP query request.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RedisLcpRequest {
    /// Candidate graph.
    pub graph: CompactGraph,
}

/// Server statistics.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, Default)]
pub struct RedisStats {
    /// Registered architectures.
    pub entries: usize,
    /// Metadata bytes (JSON payloads).
    pub metadata_bytes: u64,
    /// Queries served so far.
    pub queries: u64,
    /// Total entries visited across all queries.
    pub visited: u64,
}

impl RedisState {
    /// Fresh server state.
    pub fn new() -> Arc<RedisState> {
        Arc::new(RedisState {
            catalog: RwLock::new(Catalog::default()),
            queries_served: AtomicU64::new(0),
            entries_visited: AtomicU64::new(0),
        })
    }

    /// The add protocol's first half (global writer lock).
    pub fn begin_add(&self, req: BeginAddRequest) -> Result<BeginAddReply, String> {
        let sig = req.graph.arch_signature();
        let mut cat = self.catalog.write();
        if cat.by_model.contains_key(&req.model) {
            return Err(format!("model {} already registered", req.model));
        }
        cat.by_model.insert(req.model, sig);
        match cat.by_sig.get_mut(&sig) {
            Some(entry) => {
                // Architecture-specific lock "fails": already registered —
                // bump the count, no weights write needed.
                entry.refs.fetch_add(1, Ordering::Relaxed);
                Ok(BeginAddReply {
                    need_weights: false,
                })
            }
            None => {
                cat.by_sig.insert(
                    sig,
                    Entry {
                        json: req.graph.to_json(),
                        model: req.model,
                        quality: req.quality,
                        refs: AtomicU64::new(1),
                        published: false,
                        weights_path: req.weights_path,
                    },
                );
                Ok(BeginAddReply { need_weights: true })
            }
        }
    }

    /// Publish after the weights hit the PFS (writer lock reacquired).
    pub fn publish(&self, req: ModelRef) -> Result<(), String> {
        let mut cat = self.catalog.write();
        let sig = *cat
            .by_model
            .get(&req.model)
            .ok_or_else(|| format!("model {} unknown", req.model))?;
        let entry = cat
            .by_sig
            .get_mut(&sig)
            .ok_or_else(|| format!("architecture of {} missing", req.model))?;
        entry.published = true;
        Ok(())
    }

    /// Retire a model (writer lock; frees storage at refcount zero).
    pub fn retire(&self, req: ModelRef) -> Result<RetireReply, String> {
        let mut cat = self.catalog.write();
        let sig = cat
            .by_model
            .remove(&req.model)
            .ok_or_else(|| format!("model {} unknown", req.model))?;
        let entry = cat
            .by_sig
            .get_mut(&sig)
            .ok_or_else(|| format!("architecture of {} missing", req.model))?;
        let left = entry.refs.fetch_sub(1, Ordering::Relaxed) - 1;
        if left == 0 {
            let path = entry.weights_path.clone();
            cat.by_sig.remove(&sig);
            Ok(RetireReply {
                free_weights: Some(path),
            })
        } else {
            Ok(RetireReply { free_weights: None })
        }
    }

    /// Drop a query pin.
    pub fn unpin(&self, req: ModelRef) -> Result<RetireReply, String> {
        // A pin is a reference without a by_model registration.
        let mut cat = self.catalog.write();
        let sig = cat
            .by_sig
            .iter()
            .find(|(_, e)| e.model == req.model)
            .map(|(s, _)| *s);
        match sig {
            Some(sig) => {
                let entry = cat.by_sig.get_mut(&sig).expect("just found");
                let left = entry.refs.fetch_sub(1, Ordering::Relaxed) - 1;
                if left == 0 {
                    let path = entry.weights_path.clone();
                    cat.by_sig.remove(&sig);
                    Ok(RetireReply {
                        free_weights: Some(path),
                    })
                } else {
                    Ok(RetireReply { free_weights: None })
                }
            }
            None => Err(format!("model {} not pinned/registered", req.model)),
        }
    }

    /// The LCP query: reader lock across the full catalog iteration,
    /// JSON-decoding every published entry (the measured slowness), then
    /// pinning the winner.
    pub fn query_lcp(&self, req: RedisLcpRequest) -> Result<RedisLcpReply, String> {
        self.queries_served.fetch_add(1, Ordering::Relaxed);
        let cat = self.catalog.read();
        let mut scanned = 0usize;
        let mut best: Option<(&Entry, LcpResult)> = None;
        for entry in cat.by_sig.values() {
            if !entry.published {
                continue;
            }
            scanned += 1;
            // The Redis API returns serialized values: every visit pays a
            // full JSON decode.
            let Ok(candidate) = CompactGraph::from_json(&entry.json) else {
                continue;
            };
            let r = lcp(&req.graph, &candidate);
            if r.is_empty() {
                continue;
            }
            let better = match &best {
                None => true,
                Some((be, br)) => {
                    r.len() > br.len()
                        || (r.len() == br.len()
                            && (entry.quality > be.quality
                                || (entry.quality == be.quality && entry.model < be.model)))
                }
            };
            if better {
                best = Some((entry, r));
            }
        }
        self.entries_visited
            .fetch_add(scanned as u64, Ordering::Relaxed);
        let reply = best.map(|(entry, lcp)| {
            // Pin the winner until the caller finishes the transfer.
            entry.refs.fetch_add(1, Ordering::Relaxed);
            RedisLcpCandidate {
                model: entry.model,
                quality: entry.quality,
                lcp,
                weights_path: entry.weights_path.clone(),
            }
        });
        Ok(RedisLcpReply {
            best: reply,
            scanned,
        })
    }

    /// Server statistics.
    pub fn stats(&self) -> RedisStats {
        let cat = self.catalog.read();
        RedisStats {
            entries: cat.by_sig.len(),
            metadata_bytes: cat.by_sig.values().map(|e| e.json.len() as u64).sum(),
            queries: self.queries_served.load(Ordering::Relaxed),
            visited: self.entries_visited.load(Ordering::Relaxed),
        }
    }
}

/// The server's RPC surface, declared once (`tools/check.sh` keeps the
/// wire names out of every other file).
pub mod methods {
    use super::*;

    evostore_rpc::rpc_methods! {
        /// Register an architecture (first half of add).
        BeginAdd = "redis.begin_add": BeginAddRequest => BeginAddReply;
        /// Publish after the weights are on the PFS.
        Publish = "redis.publish": ModelRef => ();
        /// Retire a model.
        Retire = "redis.retire": ModelRef => RetireReply;
        /// Drop a query pin.
        Unpin = "redis.unpin": ModelRef => RetireReply;
        /// LCP query.
        Query = "redis.query_lcp": RedisLcpRequest => RedisLcpReply;
        /// Server statistics (the model id is ignored).
        Stats = "redis.stats": ModelRef => RedisStats;
    }
}

/// One attempt of `method` against the server at `target`: the baseline
/// has no retries to measure, so every caller runs under
/// [`RetryPolicy::no_retry`].
pub fn call<M: Method>(
    fabric: &Fabric,
    target: EndpointId,
    method: M,
    req: &M::Request,
) -> Result<M::Reply, RpcError> {
    evostore_rpc::unary(
        fabric,
        target,
        method,
        req,
        &RetryPolicy::no_retry(),
        None,
        None,
    )
}

/// A running Redis-Queries server on the fabric.
pub struct RedisServer {
    /// Shared state (direct access for tests/benches).
    pub state: Arc<RedisState>,
    endpoint: Endpoint,
}

impl RedisServer {
    /// Spawn the server with `service_threads` request threads (a single
    /// "dedicated node").
    pub fn spawn(fabric: &Arc<Fabric>, service_threads: usize) -> RedisServer {
        let endpoint = fabric.create_endpoint(service_threads);
        let state = RedisState::new();

        let s = Arc::clone(&state);
        endpoint.serve(methods::BeginAdd, move |r| s.begin_add(r));
        let s = Arc::clone(&state);
        endpoint.serve(methods::Publish, move |r| s.publish(r));
        let s = Arc::clone(&state);
        endpoint.serve(methods::Retire, move |r| s.retire(r));
        let s = Arc::clone(&state);
        endpoint.serve(methods::Unpin, move |r| s.unpin(r));
        let s = Arc::clone(&state);
        endpoint.serve(methods::Query, move |r| s.query_lcp(r));
        let s = Arc::clone(&state);
        endpoint.serve(methods::Stats, move |_| Ok(s.stats()));

        RedisServer { state, endpoint }
    }

    /// The server's fabric address.
    pub fn endpoint_id(&self) -> EndpointId {
        self.endpoint.id()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evostore_graph::{flatten, layered_model, GenomeSpace};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn graph(n: usize) -> CompactGraph {
        flatten(&layered_model(n * 1024, n)).unwrap()
    }

    #[test]
    fn add_publish_query_retire_cycle() {
        let state = RedisState::new();
        let g = graph(4);
        let r = state
            .begin_add(BeginAddRequest {
                model: ModelId(1),
                graph: g.clone(),
                quality: 0.8,
                weights_path: "/m1.h5".into(),
            })
            .unwrap();
        assert!(r.need_weights);

        // Unpublished models are invisible to queries.
        let q = state
            .query_lcp(RedisLcpRequest { graph: g.clone() })
            .unwrap();
        assert!(q.best.is_none());

        state.publish(ModelRef { model: ModelId(1) }).unwrap();
        let q = state
            .query_lcp(RedisLcpRequest { graph: g.clone() })
            .unwrap();
        let best = q.best.unwrap();
        assert_eq!(best.model, ModelId(1));
        assert_eq!(best.lcp.len(), g.len());
        // The query pinned the entry; unpin releases it.
        state.unpin(ModelRef { model: ModelId(1) }).unwrap();

        let retired = state.retire(ModelRef { model: ModelId(1) }).unwrap();
        assert_eq!(retired.free_weights, Some("/m1.h5".into()));
        assert_eq!(state.stats().entries, 0);
    }

    #[test]
    fn identical_architectures_deduplicate() {
        let state = RedisState::new();
        let g = graph(4);
        let first = state
            .begin_add(BeginAddRequest {
                model: ModelId(1),
                graph: g.clone(),
                quality: 0.8,
                weights_path: "/m1.h5".into(),
            })
            .unwrap();
        assert!(first.need_weights);
        let second = state
            .begin_add(BeginAddRequest {
                model: ModelId(2),
                graph: g.clone(),
                quality: 0.9,
                weights_path: "/m2.h5".into(),
            })
            .unwrap();
        assert!(!second.need_weights, "same architecture: no second write");
        assert_eq!(state.stats().entries, 1);

        // Retiring one keeps the shared entry; retiring both frees it.
        let r1 = state.retire(ModelRef { model: ModelId(1) }).unwrap();
        assert_eq!(r1.free_weights, None);
        let r2 = state.retire(ModelRef { model: ModelId(2) }).unwrap();
        assert_eq!(r2.free_weights, Some("/m1.h5".into()));
    }

    #[test]
    fn query_pin_defers_reclamation() {
        let state = RedisState::new();
        let g = graph(3);
        state
            .begin_add(BeginAddRequest {
                model: ModelId(1),
                graph: g.clone(),
                quality: 0.5,
                weights_path: "/m1.h5".into(),
            })
            .unwrap();
        state.publish(ModelRef { model: ModelId(1) }).unwrap();
        let q = state.query_lcp(RedisLcpRequest { graph: g }).unwrap();
        assert!(q.best.is_some());

        // Retire while the query pin is live: storage must NOT be freed.
        let r = state.retire(ModelRef { model: ModelId(1) }).unwrap();
        assert_eq!(r.free_weights, None, "pin protects the weights");
        // The unpin is now the last reference and frees storage.
        let u = state.unpin(ModelRef { model: ModelId(1) }).unwrap();
        assert_eq!(u.free_weights, Some("/m1.h5".into()));
    }

    #[test]
    fn query_scans_all_published_entries() {
        let state = RedisState::new();
        let space = GenomeSpace::tiny();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for i in 0..20u64 {
            let g = flatten(&space.materialize(&space.sample(&mut rng))).unwrap();
            state
                .begin_add(BeginAddRequest {
                    model: ModelId(i),
                    graph: g,
                    quality: 0.5,
                    weights_path: format!("/m{i}.h5"),
                })
                .unwrap();
            state.publish(ModelRef { model: ModelId(i) }).unwrap();
        }
        let probe = flatten(&space.materialize(&space.sample(&mut rng))).unwrap();
        let q = state.query_lcp(RedisLcpRequest { graph: probe }).unwrap();
        // Entries may dedup identical architectures; scanned = live ones.
        assert_eq!(q.scanned, state.stats().entries);
        assert!(state.stats().visited >= q.scanned as u64);
    }

    #[test]
    fn rpc_surface_works() {
        let fabric = evostore_rpc::Fabric::new();
        let server = RedisServer::spawn(&fabric, 2);
        let g = graph(3);
        let reply = call(
            &fabric,
            server.endpoint_id(),
            methods::BeginAdd,
            &BeginAddRequest {
                model: ModelId(9),
                graph: g.clone(),
                quality: 0.4,
                weights_path: "/m9.h5".into(),
            },
        )
        .unwrap();
        assert!(reply.need_weights);
        call(
            &fabric,
            server.endpoint_id(),
            methods::Publish,
            &ModelRef { model: ModelId(9) },
        )
        .unwrap();
        let q = call(
            &fabric,
            server.endpoint_id(),
            methods::Query,
            &RedisLcpRequest { graph: g },
        )
        .unwrap();
        assert!(q.best.is_some());
    }

    #[test]
    fn duplicate_model_registration_rejected() {
        let state = RedisState::new();
        let g = graph(2);
        state
            .begin_add(BeginAddRequest {
                model: ModelId(1),
                graph: g.clone(),
                quality: 0.5,
                weights_path: "/a".into(),
            })
            .unwrap();
        assert!(state
            .begin_add(BeginAddRequest {
                model: ModelId(1),
                graph: g,
                quality: 0.5,
                weights_path: "/b".into(),
            })
            .is_err());
    }
}
