//! One model's re-replication from a source provider to a target: the
//! chunk-negotiated leg of the chunked substrate and the materialized
//! backstop.

use std::collections::HashSet;
use std::sync::Arc;

use evostore_obs::ledger::install_costs;
use evostore_obs::OpCosts;
use evostore_rpc::{BulkHandle, EndpointId, Fabric, Method, RetryPolicy, RpcError, TraceHandle};
use evostore_tensor::{ModelId, TensorKey};

use super::Deployment;
use crate::messages::{
    GetMetaRequest, HaveChunksReply, HaveChunksRequest, ModelMetaReply, ReadChunksRequest,
    ReadTensorsRequest, SyncChunksRequest, SyncModelRequest, TransferManifestReply,
    TransferManifestRequest,
};
use crate::methods;
use crate::policy::StorePolicy;
use crate::records::pushed_chunks;

impl Deployment {
    /// Copy one record (metadata + the payloads its chain hosts) from
    /// provider `source` to provider `target`. Returns `Ok(false)` when
    /// the source no longer serves the payloads (lost beyond the
    /// replication factor).
    ///
    /// The deployment's [`StorePolicy`] picks the leg. Whole records ship
    /// materialized over `SYNC_MODEL`. The chunked substrate negotiates:
    /// it asks the source how the stored bytes decompose
    /// (`TRANSFER_MANIFEST`), probes the target's possession set
    /// (`HAVE_CHUNKS`), and ships only the missing chunks (`READ_CHUNKS`
    /// → `SYNC_CHUNKS`), deltas as stored; a delta base missing on the
    /// target, a delta whose header depth would not hold there, or a
    /// failed leg falls back to the materialized `SYNC_MODEL`, which is
    /// the correctness backstop.
    ///
    /// The whole leg is accounted as one `transfer` op in the
    /// deployment ledger and as a `transfer.sync_model` span tree whose
    /// children are the negotiation round-trips.
    pub(super) fn sync_model_to(
        &self,
        model: ModelId,
        optimizer_keys: &[TensorKey],
        source: usize,
        target: usize,
        retry: &RetryPolicy,
    ) -> Result<bool, String> {
        let costs = OpCosts::new();
        let mut root = self.tracer.start_root("transfer.sync_model");
        let out = {
            let _costs = install_costs(Some(Arc::clone(&costs)));
            Transfer {
                fabric: &self.fabric,
                model,
                source,
                target,
                src: self.provider_ids[source],
                dst: self.provider_ids[target],
                chunked: self.policy != StorePolicy::Whole,
                retry,
                trace: TraceHandle::new(&self.tracer, root.ctx()),
            }
            .run(optimizer_keys)
        };
        self.ledger.finish_op("transfer", out.is_ok(), &costs);
        // Credit the same movement to the enclosing repair op (the
        // transfer cell replaced the repair cell while installed).
        let s = costs.snapshot();
        evostore_obs::ledger::add_bytes_in(s.bytes_in);
        evostore_obs::ledger::add_bytes_out(s.bytes_out);
        evostore_obs::ledger::add_chunks_touched(s.chunks_touched);
        if let Err(e) = &out {
            root.fail(e.to_string());
        }
        root.finish();
        out
    }
}

/// One model's re-replication from provider `source` to provider
/// `target`: what every leg of the transfer shares.
struct Transfer<'a> {
    fabric: &'a Fabric,
    model: ModelId,
    source: usize,
    target: usize,
    src: EndpointId,
    dst: EndpointId,
    /// The deployment stores chunks and deltas: negotiate before falling
    /// back to materialized records.
    chunked: bool,
    retry: &'a RetryPolicy,
    /// Attempt spans of every leg hang under the transfer's root span.
    trace: TraceHandle<'a>,
}

impl Transfer<'_> {
    /// One round-trip of the transfer, retried per its policy.
    fn call<M: Method>(
        &self,
        to: EndpointId,
        method: M,
        req: &M::Request,
    ) -> Result<M::Reply, RpcError> {
        evostore_rpc::unary(
            self.fabric,
            to,
            method,
            req,
            self.retry,
            None,
            Some(&self.trace),
        )
    }

    fn run(&self, optimizer_keys: &[TensorKey]) -> Result<bool, String> {
        let (model, source) = (self.model, self.source);
        let meta = self
            .call(self.src, methods::GetMeta, &GetMetaRequest { model })
            .map_err(|e| format!("get_meta({model}) from provider {source}: {e}"))?;
        // Ship only what the target's replica role needs: the model's
        // self-owned tensors plus its optimizer copy. Inherited keys
        // belong to their owners' chains and are synced with those
        // records.
        let mut keys: Vec<TensorKey> = meta
            .owner_map
            .all_tensor_keys()
            .into_iter()
            .filter(|k| k.owner == model)
            .collect();
        keys.extend_from_slice(optimizer_keys);
        // Anything short of a completed negotiation — declined (missing
        // delta base) or failed mid-flight — falls through to the
        // materialized backstop.
        if self.chunked {
            if let Some(done) = self.negotiated(&meta, &keys) {
                return Ok(done);
            }
        }
        self.records(&meta, &keys)
    }

    /// The chunked substrate's path. `None` means negotiation declined
    /// or a leg of it failed, and the caller should ship materialized
    /// payloads.
    fn negotiated(&self, meta: &ModelMetaReply, keys: &[TensorKey]) -> Option<bool> {
        // 1. How do the source's stored records decompose?
        let request = TransferManifestRequest {
            keys: keys.to_vec(),
        };
        let manifest = self
            .call(self.src, methods::TransferManifest, &request)
            .ok()?;
        // Union of the chunk hashes to probe (dedup, source order) and
        // the delta bases that must already sit on the target (bases
        // riding along in this shipment fence themselves).
        let shipped: HashSet<TensorKey> = keys.iter().copied().collect();
        let mut hashes: Vec<[u8; 16]> = Vec::new();
        let mut seen: HashSet<[u8; 16]> = HashSet::new();
        for r in &manifest.records {
            for h in &r.hashes {
                if seen.insert(*h) {
                    hashes.push(*h);
                }
            }
        }
        let mut base_keys: Vec<TensorKey> = manifest
            .records
            .iter()
            .filter_map(|r| r.delta_base)
            .filter(|b| !shipped.contains(b))
            .collect();
        base_keys.sort_unstable();
        base_keys.dedup();
        // 2. Probe the receiver's possession set.
        let probe = HaveChunksRequest {
            hashes: hashes.clone(),
            keys: base_keys,
        };
        let have = self.call(self.dst, methods::HaveChunks, &probe).ok()?;
        // Every delta base must be on the target (or in this shipment),
        // or shipping the delta as stored would strand the chain.
        if have.have_records.iter().any(|ok| !ok) {
            return None;
        }
        self.chunks(meta, &manifest, &hashes, &have)
    }

    /// Chunk-negotiated leg: pull only the chunks the target reported
    /// missing from the source and install the records manifest-level —
    /// no tensor is materialized on either side.
    fn chunks(
        &self,
        meta: &ModelMetaReply,
        manifest: &TransferManifestReply,
        hashes: &[[u8; 16]],
        have: &HaveChunksReply,
    ) -> Option<bool> {
        let missing: Vec<[u8; 16]> = hashes
            .iter()
            .zip(&have.have_chunks)
            .filter(|(_, held)| !**held)
            .map(|(h, _)| *h)
            .collect();
        let (lens, segments) = if missing.is_empty() {
            (Vec::new(), Vec::new())
        } else {
            let request = ReadChunksRequest {
                hashes: missing.clone(),
            };
            let read = self.call(self.src, methods::ReadChunks, &request).ok()?;
            let region = self.fabric.bulk_take(BulkHandle(read.bulk)).ok()?;
            // A source that answers with other chunks than the ones asked
            // for is caught here, not on the target.
            let chunks = pushed_chunks(&missing, &read.lens, &region).ok()?;
            evostore_obs::ledger::add_bytes_in(region.len() as u64);
            evostore_obs::ledger::add_chunks_touched(chunks.len() as u64);
            (read.lens, chunks)
        };
        let moved: u64 = lens.iter().sum();
        let out = self.fabric.bulk_expose_vec(segments);
        let result = self.call(
            self.dst,
            methods::SyncChunks,
            &SyncChunksRequest {
                model: self.model,
                graph: meta.graph.clone(),
                owner_map: meta.owner_map.clone(),
                parent: meta.parent,
                quality: meta.quality,
                timestamp: meta.timestamp,
                records: manifest.records.clone(),
                pushed: missing,
                lens,
                bulk: out.0,
            },
        );
        self.fabric.bulk_release(out);
        // A rejected manifest (e.g. a chunk the target claimed got
        // reclaimed concurrently) is left to the materialized backstop.
        result.ok()?;
        evostore_obs::ledger::add_bytes_out(moved);
        Some(true)
    }

    /// Materialized leg: read the records from the source and relay them
    /// to the target over `SYNC_MODEL` — the pulled rope is re-exposed as
    /// it is, so the manifest carries over unchanged and no byte is
    /// copied in between. The source materializes every record, which is
    /// correct on either substrate at O(model bytes) cost. `Ok(false)`:
    /// the source catalogs the record but lost its payloads.
    fn records(&self, meta: &ModelMetaReply, keys: &[TensorKey]) -> Result<bool, String> {
        let (model, source, target) = (self.model, self.source, self.target);
        let request = ReadTensorsRequest {
            keys: keys.to_vec(),
        };
        let read = match self.call(self.src, methods::Read, &request) {
            Ok(r) => r,
            // Lost payloads (e.g. a crash between legs) are reported, not
            // failed on.
            Err(e) if !e.is_transient() => return Ok(false),
            Err(e) => return Err(format!("read payloads of {model} from {source}: {e}")),
        };
        let region = self
            .fabric
            .bulk_take(BulkHandle(read.bulk))
            .map_err(|e| format!("bulk pull for {model}: {e}"))?;
        evostore_obs::ledger::add_bytes_in(region.len() as u64);
        evostore_obs::ledger::add_chunks_touched(read.manifest.len() as u64);
        let out = self.fabric.bulk_expose_vec(region.segments().to_vec());
        let result = self.call(
            self.dst,
            methods::SyncModel,
            &SyncModelRequest {
                model,
                graph: meta.graph.clone(),
                owner_map: meta.owner_map.clone(),
                parent: meta.parent,
                quality: meta.quality,
                timestamp: meta.timestamp,
                manifest: read.manifest,
                bulk: out.0,
            },
        );
        self.fabric.bulk_release(out);
        result.map_err(|e| format!("sync_model({model}) to provider {target}: {e}"))?;
        evostore_obs::ledger::add_bytes_out(region.len() as u64);
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::ReadChunksReply;
    use bytes::Bytes;
    use evostore_obs::{FlightRecorder, MonotonicClock, TimeSource, Tracer};

    /// Regression: the chunk-negotiated leg returned through `?` ahead of
    /// its `bulk_release` when the source's `lens` overran the region it
    /// exposed, leaving that region — and the chunk buffers it pins —
    /// registered for good. A stand-in source lies about `lens`.
    #[test]
    fn a_lying_read_chunks_reply_leaks_no_region() {
        let fabric = Fabric::new();
        let source = fabric.create_endpoint(1);
        let chunk = Bytes::from_static(b"eight by");
        let hash = evostore_tensor::ContentHash::of_bytes(&chunk).to_bytes();
        {
            let (fabric, chunk) = (Arc::clone(&fabric), chunk.clone());
            source.serve(methods::ReadChunks, move |_| {
                Ok(ReadChunksReply {
                    lens: vec![chunk.len() as u64 + 8],
                    bulk: fabric.bulk_expose_vec(vec![chunk.clone()]).0,
                })
            });
        }
        let wall: Arc<dyn TimeSource> = Arc::new(MonotonicClock::default());
        let tracer = Tracer::new(Arc::new(FlightRecorder::new("repair", 16, wall)));
        let root = tracer.start_root("transfer.sync_model");
        let retry = RetryPolicy::no_retry();
        let transfer = Transfer {
            fabric: &fabric,
            model: ModelId(1),
            source: 0,
            target: 1,
            src: source.id(),
            dst: EndpointId(u32::MAX),
            chunked: true,
            retry: &retry,
            trace: TraceHandle::new(&tracer, root.ctx()),
        };
        let mut arch = evostore_graph::Architecture::new("one-layer");
        arch.add_layer(evostore_graph::LayerConfig::new(
            "in",
            evostore_graph::LayerKind::Input { shape: vec![1] },
        ));
        let g = evostore_graph::flatten(&arch).unwrap();
        let meta = ModelMetaReply {
            owner_map: crate::owner_map::OwnerMap::fresh(ModelId(1), &g),
            graph: g,
            parent: None,
            quality: 0.0,
            timestamp: 1,
        };
        let manifest = TransferManifestReply {
            records: Vec::new(),
        };
        let have = HaveChunksReply {
            have_chunks: vec![false],
            have_records: Vec::new(),
        };
        let baseline = fabric.bulk_regions();
        assert_eq!(transfer.chunks(&meta, &manifest, &[hash], &have), None);
        assert_eq!(fabric.bulk_regions(), baseline);
    }
}
