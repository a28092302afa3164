//! Stores: pin the inherited tensors, push the consolidated new ones to
//! the model's replica chain, and attach optimizer state.

use super::calls::{settle, take_legs};
use super::*;

impl EvoStoreClient {
    /// Store a model given its owner map and the tensors it owns itself.
    ///
    /// Protocol (§4.1): (1) pin every inherited tensor by incrementing its
    /// reference count on *every replica* hosting a copy — in parallel;
    /// (2) push the consolidated new tensors plus metadata to the model's
    /// replica chain (primary assigns the write stamp, mirrors receive
    /// it). If the store fails after pinning, the pins that applied are
    /// rolled back.
    pub fn store_model(
        &self,
        graph: CompactGraph,
        owner_map: OwnerMap,
        parent: Option<ModelId>,
        quality: f64,
        new_tensors: &HashMap<TensorKey, TensorData>,
    ) -> Result<StoreOutcome> {
        self.with_root_op("store", "store_model", &self.telemetry.store, move || {
            // 1. Pin inherited tensors on every replica. Pins are strict —
            // all-or-fail — because a replica that misses a pin would
            // reclaim a tensor the new model still references.
            let inherited = owner_map.inherited().flat_map(|(_, o)| o.tensor_keys());
            let pins: Vec<(EndpointId, RefsRequest)> = self
                .replication
                .group_by_replicas(inherited, self.providers.len())
                .map(|(idx, keys)| (self.providers[idx], RefsRequest::new(keys)))
                .collect();
            let mut pinned = Vec::new();
            if !pins.is_empty() {
                let legs = settle(self.fan_out(&pins, methods::IncrRefs));
                pinned = take_legs(pins, legs.ok.iter().map(|&(i, _)| i));
                // Propagate the pin failure as-is (a transient error means
                // the whole store is retryable by the caller), rolling back
                // only the legs that actually applied.
                if let Some(e) = legs.first_error() {
                    self.unpin(pinned);
                    return Err(e);
                }
            }

            // 2. Consolidate and push.
            let result = self.push_store(graph, owner_map, parent, quality, new_tensors);

            // 3. Roll back pins on failure.
            if result.is_err() {
                self.unpin(pinned);
            }
            result
        })
    }

    fn push_store(
        &self,
        graph: CompactGraph,
        owner_map: OwnerMap,
        parent: Option<ModelId>,
        quality: f64,
        new_tensors: &HashMap<TensorKey, TensorData>,
    ) -> Result<StoreOutcome> {
        let model = owner_map.model;
        // Deterministic order for reproducible layouts.
        let mut tensors: Vec<(TensorKey, &TensorData)> =
            new_tensors.iter().map(|(key, t)| (*key, t)).collect();
        tensors.sort_unstable_by_key(|(key, _)| *key);
        let (manifest, bulk) = self.expose_tensors(&tensors);
        let tensors_written = manifest.len();
        evostore_obs::ledger::add_chunks_touched(tensors_written as u64);
        evostore_obs::ledger::add_bytes_out(manifest.iter().map(|e| e.len).sum());

        let req = StoreModelRequest {
            model,
            graph,
            owner_map,
            parent,
            quality,
            manifest,
            bulk: bulk.0,
            timestamp: None,
        };
        // First leg: walk the chain until one replica accepts and
        // assigns the write stamp. Remaining members then mirror the
        // stamped record; a mirror leg that fails transiently leaves the
        // model under-replicated (recorded in telemetry, healed by
        // [`crate::deployment::Deployment::repair`]) rather than failing
        // the store. The bulk region stays exposed until every leg has
        // settled — mirrors read it too.
        let chain = self.replicas_of(model);
        let outcome = (|| -> Result<StoreOutcome> {
            let store = |target| self.unary(target, methods::Store, &req);
            let (served_by, reply) =
                self.fail_over(&chain, methods::Store::METHOD, store(chain[0]), store)?;
            let mirrors: Vec<(EndpointId, StoreModelRequest)> = chain
                .iter()
                .filter(|&&ep| ep != served_by)
                .map(|&ep| {
                    (
                        ep,
                        StoreModelRequest {
                            timestamp: Some(reply.timestamp),
                            ..req.clone()
                        },
                    )
                })
                .collect();
            if !mirrors.is_empty() {
                let legs = settle(self.fan_out(&mirrors, methods::Store));
                if let Some((_, e)) = legs.permanent {
                    return Err(e);
                }
                self.telemetry
                    .under_replicated_stores
                    .add(legs.transient.len() as u64);
            }
            Ok(StoreOutcome {
                bytes_written: reply.bytes_stored,
                tensors_written,
                timestamp: reply.timestamp,
            })
        })();
        self.fabric.bulk_release(bulk);
        outcome
    }

    /// The producer half of every store: encode each tensor as a record
    /// (the check, plus the copy for tensors too small to borrow, shared
    /// out per tensor — [`par::map`]), pack the records and expose them as
    /// they are, one vectored bulk region. A large tensor's record is a
    /// rope around its own payload buffer: no staging copy, no
    /// consolidation memcpy. The caller releases the region once every
    /// leg that reads it has settled.
    fn expose_tensors(
        &self,
        tensors: &[(TensorKey, &TensorData)],
    ) -> (Vec<ManifestEntry>, BulkHandle) {
        let payload_bytes = tensors.iter().map(|(_, t)| t.byte_len()).sum();
        let records: Vec<Record> =
            par::map(tensors, payload_bytes, |(_, t)| write_tensor_segments(t));
        let (manifest, segments) = pack(
            tensors
                .iter()
                .zip(&records)
                .map(|((key, _), record)| (*key, record.segments())),
        );
        self.telemetry
            .bulk_segments_exposed
            .add(segments.len() as u64);
        (manifest, self.fabric.bulk_expose_vec(segments))
    }

    /// Store a from-scratch model with randomly initialized parameters.
    pub fn store_fresh<R: Rng + ?Sized>(
        &self,
        model: ModelId,
        graph: &CompactGraph,
        quality: f64,
        rng: &mut R,
    ) -> Result<StoreOutcome> {
        let owner_map = OwnerMap::fresh(model, graph);
        let tensors = random_tensors(model, graph, rng);
        self.store_model(graph.clone(), owner_map, None, quality, &tensors)
    }

    /// Attach optimizer state to an already-stored model (supports
    /// resuming the original training — the paper's stated extension).
    /// Tensors are keyed by their position in `moments`.
    pub fn store_optimizer_state(
        &self,
        model: ModelId,
        moments: &[TensorData],
    ) -> Result<StoreOutcome> {
        let hist = &self.telemetry.optimizer;
        self.with_root_op("optimizer", "store_optimizer_state", hist, || {
            // The optimizer namespace: vertex = u32::MAX sentinel.
            let tensors: Vec<(TensorKey, &TensorData)> = moments
                .iter()
                .enumerate()
                .map(|(i, t)| (TensorKey::new(model, VertexId(u32::MAX), i as u32), t))
                .collect();
            let (manifest, bulk) = self.expose_tensors(&tensors);
            let tensors_written = manifest.len();
            evostore_obs::ledger::add_chunks_touched(tensors_written as u64);
            evostore_obs::ledger::add_bytes_out(manifest.iter().map(|e| e.len).sum());
            let req = StoreOptimizerRequest {
                model,
                manifest,
                bulk: bulk.0,
            };
            // Every replica keeps its own optimizer copy. One success is
            // required; a failed mirror leaves the attachment
            // under-replicated (healed by repair's optimizer-aware digest
            // comparison) — a permanent failure too: a mirror that missed
            // the model's store answers "model not found", which with a
            // successful sibling leg is under-replication, not a caller
            // error.
            let chain = self.replicas_of(model);
            let legs: Vec<_> = chain.iter().map(|&ep| (ep, req.clone())).collect();
            let mut legs = settle(self.fan_out(&legs, methods::StoreOptimizer));
            self.fabric.bulk_release(bulk);
            if legs.ok.is_empty() {
                return Err(match legs.permanent {
                    Some((_, e)) => e,
                    None => EvoError::PartialFailure { failed: chain },
                });
            }
            self.telemetry
                .under_replicated_stores
                .add((chain.len() - legs.ok.len()) as u64);
            let (_, reply) = legs.ok.swap_remove(0);
            Ok(StoreOutcome {
                bytes_written: reply.bytes_stored,
                tensors_written,
                timestamp: reply.timestamp,
            })
        })
    }
}

/// Materialize random parameters for every vertex of `graph`, keyed as a
/// fresh model owned by `model`.
pub fn random_tensors<R: Rng + ?Sized>(
    model: ModelId,
    graph: &CompactGraph,
    rng: &mut R,
) -> HashMap<TensorKey, TensorData> {
    let mut out = HashMap::new();
    for v in graph.vertex_ids() {
        for spec in graph.param_specs(v) {
            out.insert(
                TensorKey::new(model, VertexId(v.0), spec.slot),
                spec.random(rng),
            );
        }
    }
    out
}
