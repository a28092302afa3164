//! Reads: metadata and tensors along the replica chain, whole models,
//! optimizer state and provenance.

use super::*;

impl EvoStoreClient {
    /// Fetch model metadata, failing over along the replica chain.
    pub fn get_meta(&self, model: ModelId) -> Result<ModelMetaReply> {
        let req = GetMetaRequest { model };
        let chain = self.replicas_of(model);
        let read = |target| self.unary(target, methods::GetMeta, &req);
        self.read_over(&chain, methods::GetMeta::METHOD, read(chain[0]), read)
    }

    /// Fetch an arbitrary set of tensors, grouped by owning chain: one
    /// `READ` per group's primary, all in flight at once, then each reply
    /// pulled via one-sided bulk reads and decoded on this thread. A group
    /// whose primary is down, missed the write, or returned a corrupt
    /// payload fails over to the successor replicas.
    pub fn fetch_tensors(&self, keys: &[TensorKey]) -> Result<HashMap<TensorKey, TensorData>> {
        self.with_root_op("fetch", "fetch_tensors", &self.telemetry.fetch, || {
            let n = self.providers.len();
            let mut groups: HashMap<usize, Vec<TensorKey>> = HashMap::new();
            for key in keys {
                groups
                    .entry(key.owner.provider_for(n))
                    .or_default()
                    .push(*key);
            }
            let (chains, reads): (Vec<Vec<EndpointId>>, Vec<(EndpointId, ReadTensorsRequest)>) =
                groups
                    .into_iter()
                    .map(|(primary, keys)| {
                        let chain = self.chain_at(primary);
                        let read = (chain[0], ReadTensorsRequest { keys });
                        (chain, read)
                    })
                    .unzip();
            let replies = self.fan_out(&reads, methods::Read);
            // Every group settles before an error surfaces: each reply's
            // region is withdrawn only by its pull.
            let fetched: Vec<Result<Vec<(TensorKey, TensorData)>>> = chains
                .iter()
                .zip(&reads)
                .zip(replies)
                .map(|((chain, (_, req)), (_, reply))| {
                    let primary = reply
                        .map_err(EvoError::from)
                        .and_then(|r| self.pull_read(r));
                    self.read_over(chain, methods::Read::METHOD, primary, |target| {
                        self.pull_read(self.unary(target, methods::Read, req)?)
                    })
                })
                .collect();
            let mut out = HashMap::with_capacity(keys.len());
            for group in fetched {
                out.extend(group?);
            }
            Ok(out)
        })
    }

    /// Pull one `READ` reply, charging its records to the op's ledger.
    fn pull_read(&self, reply: ReadTensorsReply) -> Result<Vec<(TensorKey, TensorData)>> {
        evostore_obs::ledger::add_chunks_touched(reply.manifest.len() as u64);
        evostore_obs::ledger::add_bytes_in(reply.manifest.iter().map(|e| e.len).sum());
        self.pull_tensors(reply)
    }

    /// The reader half of every read reply: pull the region the provider
    /// exposed (the provider holds one segment per memory-resident record,
    /// so the "pull" is a segment-list clone) and withdraw it, then decode
    /// and integrity-check every manifest entry, shared out per tensor
    /// ([`par::map`]). A record the provider holds as a rope arrives as
    /// one: its payload segment becomes the tensor's buffer.
    fn pull_tensors(&self, reply: ReadTensorsReply) -> Result<Vec<(TensorKey, TensorData)>> {
        let region = self.fabric.bulk_take(BulkHandle(reply.bulk))?;
        par::map(&reply.manifest, region.len(), |entry| {
            read_entry(entry, &region).map(|(_, tensor)| (entry.key, tensor))
        })
        .into_iter()
        .collect()
    }

    /// Fetch the tensors of an LCP prefix from the ancestor (the transfer
    /// step). Returns the ancestor's metadata and the fetched tensors,
    /// keyed by their owner-map keys.
    pub fn fetch_prefix(
        &self,
        best: &LcpCandidate,
    ) -> Result<(ModelMetaReply, HashMap<TensorKey, TensorData>)> {
        let meta = self.get_meta(best.model)?;
        let tensors = self.fetch_tensors(&prefix_keys(best, &meta.owner_map)?)?;
        Ok((meta, tensors))
    }

    /// Load a complete model: metadata plus every tensor, resolved through
    /// its single owner map (no lineage walk, §4.1).
    pub fn load_model(&self, model: ModelId) -> Result<LoadedModel> {
        let meta = self.get_meta(model)?;
        let keys = meta.owner_map.all_tensor_keys();
        let tensors = self.fetch_tensors(&keys)?;
        Ok(LoadedModel {
            graph: meta.graph,
            owner_map: meta.owner_map,
            tensors,
            parent: meta.parent,
            quality: meta.quality,
        })
    }

    /// Read a contiguous element range of one stored tensor without
    /// transferring the rest of it (fine-grain partial access). Returns a
    /// 1-D tensor holding exactly the requested elements.
    pub fn fetch_tensor_slice(
        &self,
        key: TensorKey,
        elem_offset: u64,
        elem_count: u64,
    ) -> Result<TensorData> {
        let req = ReadRangeRequest {
            key,
            elem_offset,
            elem_count,
        };
        let chain = self.replicas_of(key.owner);
        let read = |target| {
            let reply = self.unary(target, methods::ReadRange, &req)?;
            // A flat buffer is what a tensor is made of: the one gather on
            // this path, and a copy only when the range spans segments of
            // the stored record.
            let payload = self.fabric.bulk_take(BulkHandle(reply.bulk))?.to_bytes();
            let dtype = evostore_tensor::DType::from_tag(reply.dtype_tag)
                .ok_or_else(|| EvoError::Protocol(format!("bad dtype tag {}", reply.dtype_tag)))?;
            TensorData::from_bytes(dtype, vec![elem_count as usize], payload)
                .ok_or_else(|| EvoError::Protocol("range length mismatch".into()))
        };
        self.read_over(&chain, methods::ReadRange::METHOD, read(chain[0]), read)
    }

    /// Fetch a model's optimizer state, in the order it was stored.
    /// Empty when the model has none. Served by the first replica that
    /// can, like [`EvoStoreClient::fetch_tensors`].
    pub fn load_optimizer_state(&self, model: ModelId) -> Result<Vec<TensorData>> {
        let hist = &self.telemetry.optimizer;
        self.with_root_op("optimizer", "load_optimizer_state", hist, || {
            let req = LoadOptimizerRequest { model };
            let chain = self.replicas_of(model);
            let read = |target| self.pull_read(self.unary(target, methods::LoadOptimizer, &req)?);
            let mut moments =
                self.read_over(&chain, methods::LoadOptimizer::METHOD, read(chain[0]), read)?;
            moments.sort_unstable_by_key(|(key, _)| key.slot);
            Ok(moments.into_iter().map(|(_, t)| t).collect())
        })
    }

    /// The transfer-learning chain of `model`, oldest last:
    /// `[model, parent, grandparent, ...]`.
    pub fn lineage(&self, model: ModelId) -> Result<Vec<ModelId>> {
        let mut chain = vec![model];
        let mut cur = model;
        loop {
            let meta = self.get_meta(cur)?;
            match meta.parent {
                Some(p) => {
                    if chain.contains(&p) {
                        return Err(EvoError::Protocol(format!("lineage cycle at {p}")));
                    }
                    chain.push(p);
                    cur = p;
                }
                None => return Ok(chain),
            }
        }
    }

    /// Most recent common ancestor of two models (by lineage walk).
    /// Returns `None` when the lineages are disjoint.
    pub fn most_recent_common_ancestor(&self, a: ModelId, b: ModelId) -> Result<Option<ModelId>> {
        let la = self.lineage(a)?;
        let lb: std::collections::HashSet<ModelId> = self.lineage(b)?.into_iter().collect();
        Ok(la.into_iter().find(|m| lb.contains(m)))
    }

    /// Which ancestors contributed tensors to `model`, with vertex counts
    /// and global write-order stamps — a pure owner-map read, no lineage
    /// walk (§4.1, "Owner Maps as a Foundation for Provenance").
    pub fn contributors(&self, model: ModelId) -> Result<Vec<(ModelId, usize, u64)>> {
        let meta = self.get_meta(model)?;
        let mut out = Vec::new();
        for (owner, count) in meta.owner_map.contribution_counts() {
            let ts = if owner == model {
                meta.timestamp
            } else {
                self.get_meta(owner)?.timestamp
            };
            out.push((owner, count, ts));
        }
        // Chronological order of contribution (the transfer chain order).
        out.sort_by_key(|&(_, _, ts)| ts);
        Ok(out)
    }
}

/// The ancestor's tensor keys under `best`'s prefix (the transfer step of
/// both [`EvoStoreClient::fetch_prefix`] and the caching client's). The
/// candidate comes off the wire or from the caller and may not fit the
/// ancestor as stored (a stale query, a forged candidate): a prefix vertex
/// past the match table or without a match, or a match past the
/// ancestor's owner map, is a protocol error, never a panic.
pub(crate) fn prefix_keys(best: &LcpCandidate, owner_map: &OwnerMap) -> Result<Vec<TensorKey>> {
    let mut keys = Vec::new();
    for &gv in &best.lcp.prefix {
        let av = match best.lcp.match_in_ancestor.get(gv.0 as usize) {
            Some(&Some(av)) => av,
            Some(None) => {
                return Err(EvoError::Protocol(format!(
                    "prefix vertex {gv} has no ancestor match"
                )))
            }
            None => {
                return Err(EvoError::Protocol(format!(
                    "prefix vertex {gv} is past the match table ({} vertices)",
                    best.lcp.match_in_ancestor.len()
                )))
            }
        };
        if av.0 as usize >= owner_map.len() {
            return Err(EvoError::Protocol(format!(
                "LCP match {av} out of bounds for ancestor {} ({} vertices) — stale query?",
                best.model,
                owner_map.len()
            )));
        }
        keys.extend(owner_map.vertex(av).tensor_keys());
    }
    Ok(keys)
}
