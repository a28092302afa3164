//! Reference counts: the distributed-GC primitive (§4.1). A record is
//! referenced by every model whose owner map names it and by every local
//! delta encoded against it. Increments pin, decrements retire, and the
//! refs sync installs the one recount — by `repair` and, after a
//! restart, by `reopen`. Every physical drop goes through the one release
//! path, [`ProviderState::release`].

use std::collections::HashMap;

use evostore_tensor::TensorKey;

use super::delta::chain_step;
use super::ProviderState;
use crate::messages::{RefsReply, RefsRequest, SyncRefsReply, SyncRefsRequest};
use crate::policy::MAX_CHAIN_DEPTH;

/// How many applied refs-operation ids a provider remembers for duplicate
/// suppression. Must comfortably exceed (in-flight refs ops) ×
/// (retry attempts) so a retried leg always finds its first delivery in
/// the cache; beyond that window a duplicate would re-apply.
const REFS_OP_MEMORY: usize = 65_536;

/// Bounded memo of applied [`RefsRequest`]s: `op_id` → the reply the
/// first delivery produced. Evicts in insertion order at
/// [`REFS_OP_MEMORY`].
#[derive(Default)]
pub(super) struct RefsOpCache {
    replies: HashMap<u64, RefsReply>,
    order: std::collections::VecDeque<u64>,
}

impl RefsOpCache {
    pub(super) fn get(&self, op_id: u64) -> Option<RefsReply> {
        self.replies.get(&op_id).cloned()
    }

    pub(super) fn record(&mut self, op_id: u64, reply: RefsReply) {
        if self.replies.insert(op_id, reply).is_none() {
            self.order.push_back(op_id);
            while self.order.len() > REFS_OP_MEMORY {
                if let Some(evicted) = self.order.pop_front() {
                    self.replies.remove(&evicted);
                }
            }
        }
    }
}

impl ProviderState {
    /// The release path: drop one reference on `key`. At zero the record
    /// is deleted and, when it was a delta, its base is released in turn
    /// — a cascade no longer than the `u8` chain depth, since every hop
    /// deletes a record. Returns how many records were deleted.
    pub(super) fn release(&self, key: TensorKey) -> Result<usize, String> {
        let _drops = self.drops.lock();
        self.release_held(key)
    }

    /// [`ProviderState::release`] with `drops` already held.
    pub(super) fn release_held(&self, key: TensorKey) -> Result<usize, String> {
        let mut reclaimed = 0;
        let mut next = Some(key);
        while let Some(key) = next {
            let enc = key.encode();
            // Read the base before the last decrement deletes the record.
            let base = match self.tensors.refs(&enc) {
                1 => self.delta_base(key)?,
                _ => None,
            };
            if self.tensors.decr(&enc).map_err(|e| format!("{key}: {e}"))? > 0 {
                break;
            }
            reclaimed += 1;
            next = base;
        }
        Ok(reclaimed)
    }

    /// Delete `key` whatever its count, releasing its base as the release
    /// path does. `drops` must be held.
    fn drop_held(&self, key: TensorKey) -> Result<usize, String> {
        self.tensors
            .set_refs(&key.encode(), 1)
            .map_err(|e| format!("drop {key}: {e}"))?;
        self.release_held(key)
    }

    /// Handle reference-count increments (pinning a new descendant's
    /// inherited tensors).
    ///
    /// Idempotent per [`RefsRequest::op_id`]: a retry of an operation that
    /// already applied (its reply was lost in flight) is answered from
    /// cache without touching the counts.
    pub fn handle_incr_refs(&self, req: RefsRequest) -> Result<RefsReply, String> {
        if let Some(reply) = self.refs_ops.lock().get(req.op_id) {
            return Ok(reply);
        }
        // Check-then-apply: a missing tensor indicates the ancestor was
        // retired between query and pin; the whole request fails and the
        // client re-queries.
        for key in &req.keys {
            if !self.tensors.contains(&key.encode()) {
                return Err(format!("tensor {key} no longer stored (ancestor retired?)"));
            }
        }
        for key in &req.keys {
            self.tensors
                .incr(&key.encode())
                .map_err(|e| format!("incr {key}: {e}"))?;
        }
        let reply = RefsReply {
            applied: req.keys.len(),
            reclaimed: 0,
        };
        self.refs_ops.lock().record(req.op_id, reply.clone());
        Ok(reply)
    }

    /// Handle reference-count decrements (model retirement); tensors whose
    /// count reaches zero are reclaimed, with any base they release.
    ///
    /// Idempotent per [`RefsRequest::op_id`] (see
    /// [`ProviderState::handle_incr_refs`]) — essential here, because a
    /// duplicated decrement would drop a shared tensor's count to zero
    /// and delete data still referenced by live models.
    pub fn handle_decr_refs(&self, req: RefsRequest) -> Result<RefsReply, String> {
        if let Some(reply) = self.refs_ops.lock().get(req.op_id) {
            return Ok(reply);
        }
        // Check-then-apply so a malformed request fails whole: no keys
        // decremented when any key is unknown.
        for key in &req.keys {
            if !self.tensors.contains(&key.encode()) {
                return Err(format!("decr {key}: not stored"));
            }
        }
        let mut reclaimed = 0usize;
        for key in &req.keys {
            reclaimed += self.release(*key).map_err(|e| format!("decr {key}: {e}"))?;
        }
        let reply = RefsReply {
            applied: req.keys.len(),
            reclaimed,
        };
        self.refs_ops.lock().record(req.op_id, reply.clone());
        Ok(reply)
    }

    /// The one recount: the count every `listed` key — and, with
    /// `hosted`, every hosted one — should hold: its owner-map count from
    /// the census (`listed`; 0 when unlisted) plus one per local delta
    /// encoded against it.
    fn recount(
        &self,
        listed: Vec<(TensorKey, u64)>,
        deltas: &[(TensorKey, TensorKey, u8)],
        hosted: bool,
    ) -> HashMap<TensorKey, u64> {
        let mut counts: HashMap<TensorKey, u64> = HashMap::new();
        if hosted {
            counts.extend(self.hosted_tensor_keys().into_iter().map(|key| (key, 0)));
        }
        counts.extend(listed);
        for (_, base, _) in deltas {
            if let Some(count) = counts.get_mut(base) {
                *count += 1;
            }
        }
        counts
    }

    /// Handle a refs sync: install the recount of every listed key and,
    /// with `prune_unlisted`, of every hosted one too, so that a record
    /// no model and no local delta references is deleted (`repair` sets
    /// it only when it saw every provider's digest; `reopen` always).
    pub fn handle_sync_refs(&self, req: SyncRefsRequest) -> Result<SyncRefsReply, String> {
        let _drops = self.drops.lock();
        let counts = self.recount(req.entries, &self.deltas()?, req.prune_unlisted);
        // Every count is installed before anything is dropped: a drop
        // releases its base, whose count must already be the true one.
        let (mut adjusted, mut missing) = (0usize, 0usize);
        let mut drops = Vec::new();
        for (key, want) in counts {
            let enc = key.encode();
            if want == 0 && self.tensors.contains(&enc) {
                drops.push(key);
                continue;
            }
            match self.tensors.set_refs(&enc, want) {
                Ok(prev) if prev != want => adjusted += 1,
                Ok(_) => {}
                Err(_) => missing += 1,
            }
        }
        let mut removed = 0usize;
        for key in drops {
            removed += self.drop_held(key)?;
        }
        Ok(SyncRefsReply {
            adjusted,
            removed,
            missing,
        })
    }

    /// `gc_audit`'s check of this provider against the census's `listed`
    /// owner-map counts: the refcounts and the store agree; every listed
    /// key is hosted; every delta's base is hosted and its chain keeps the
    /// chain rule; every hosted key is placed here, referenced by
    /// something and counted as the recount says.
    pub fn audit_refs(&self, listed: Vec<(TensorKey, u64)>) -> Result<(), String> {
        self.tensors.audit()?;
        let i = self.index;
        let hosted = |key: &TensorKey| self.tensors.contains(&key.encode());
        let deltas = self.deltas()?;
        let depths: HashMap<TensorKey, u8> =
            deltas.iter().map(|&(d, _, depth)| (d, depth)).collect();
        for &(delta, base, depth) in &deltas {
            if !hosted(&base) {
                return Err(format!(
                    "delta {delta} on provider {i} is encoded against {base}, which is not \
                     hosted there"
                ));
            }
            let base_depth = depths.get(&base).copied().unwrap_or(0);
            if !chain_step(depth, base_depth) {
                return Err(format!(
                    "delta {delta} on provider {i}: header depth {depth} on a base at depth \
                     {base_depth} (chains are at most {MAX_CHAIN_DEPTH} deep)"
                ));
            }
        }
        for (key, want) in self.recount(listed, &deltas, true) {
            if !hosted(&key) {
                return Err(format!(
                    "tensor {key} missing on replica provider {i} — run repair()"
                ));
            }
            if want == 0 {
                return Err(format!(
                    "tensor {key} hosted on provider {i} but referenced by no model and no delta"
                ));
            }
            let refs = self.tensor_refs(key);
            if refs != want {
                return Err(format!(
                    "tensor {key} on provider {i}: refcount {refs}, but models and local \
                     deltas hold {want} references"
                ));
            }
            if !self.places_here(key.owner) {
                return Err(format!(
                    "tensor {key} hosted off its replica chain on provider {i}"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    //! The one reclamation rule, driven through the provider's own steps:
    //! a store's steps interleaved with its parent's retirement, replayed
    //! in order on one thread, and `gc_audit` over delta links.

    use std::collections::HashMap;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    use bytes::Bytes;
    use evostore_graph::{flatten, Activation, Architecture, CompactGraph, LayerConfig, LayerKind};
    use evostore_tensor::{is_delta, write_tensor, ModelId, TensorData, TensorKey};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    use crate::messages::{RefsRequest, RetireMetaRequest};
    use crate::owner_map::OwnerMap;
    use crate::provider::{ModelRecord, ProviderState};
    use crate::{random_tensors, Deployment, DeploymentConfig, StorePolicy};

    fn seq(units: &[u32]) -> CompactGraph {
        let mut a = Architecture::new("seq");
        let mut prev = a.add_layer(LayerConfig::new(
            "in",
            LayerKind::Input {
                shape: vec![units[0]],
            },
        ));
        let mut inf = units[0];
        for (i, &u) in units.iter().enumerate().skip(1) {
            prev = a.chain(
                prev,
                LayerConfig::new(
                    format!("d{i}"),
                    LayerKind::Dense {
                        in_features: inf,
                        units: u,
                        activation: Activation::ReLU,
                    },
                ),
            );
            inf = u;
        }
        flatten(&a).unwrap()
    }

    /// One provider on the chunked + delta substrate holding a parent, and
    /// a child whose every tensor is a sparse perturbation of the
    /// parent's at the same vertex/slot (a fresh owner map: every tensor
    /// is the child's own).
    struct Lineage {
        dep: Deployment,
        graph: CompactGraph,
        parent: ModelId,
        child: ModelId,
        child_tensors: HashMap<TensorKey, TensorData>,
    }

    impl Lineage {
        fn new() -> Lineage {
            let dep = Deployment::new(DeploymentConfig {
                providers: 1,
                store_policy: StorePolicy::chunked_with_delta(),
                ..Default::default()
            });
            let graph = seq(&[8, 32, 32, 8]);
            let mut rng = ChaCha8Rng::seed_from_u64(61);
            let (parent, child) = (ModelId(1), ModelId(2));
            let parent_tensors = random_tensors(parent, &graph, &mut rng);
            dep.client()
                .store_model(
                    graph.clone(),
                    OwnerMap::fresh(parent, &graph),
                    None,
                    0.5,
                    &parent_tensors,
                )
                .unwrap();
            let child_tensors = parent_tensors
                .iter()
                .map(|(k, t)| {
                    let key = TensorKey::new(child, k.vertex, k.slot);
                    (key, t.perturbed_sparse(&mut rng, 0.05))
                })
                .collect();
            Lineage {
                dep,
                graph,
                parent,
                child,
                child_tensors,
            }
        }

        fn state(&self) -> Arc<ProviderState> {
            self.dep.provider_states().remove(0)
        }

        /// The child's records, as a store's validation hands them on.
        fn child_records(&self) -> Vec<(TensorKey, Vec<Bytes>)> {
            let mut keys: Vec<TensorKey> = self.child_tensors.keys().copied().collect();
            keys.sort();
            keys.into_iter()
                .map(|k| (k, vec![write_tensor(&self.child_tensors[&k])]))
                .collect()
        }

        /// The parent's owner map, as the store's parent lookup reads it.
        fn parent_map(&self, state: &ProviderState) -> OwnerMap {
            state.catalog.read().records[&self.parent].owner_map.clone()
        }

        /// The parent's retirement as a client issues it: `RETIRE_META`,
        /// then `DECR_REFS` over every key its owner map names.
        fn retire_parent(&self, state: &ProviderState) {
            let reply = state
                .handle_retire_meta(RetireMetaRequest { model: self.parent })
                .unwrap();
            state
                .handle_decr_refs(RefsRequest::new(reply.owner_map.all_tensor_keys()))
                .unwrap();
        }

        /// The store's last step: catalog the child.
        fn catalog_child(&self, state: &ProviderState) {
            let record = ModelRecord {
                graph: Arc::new(self.graph.clone()),
                owner_map: OwnerMap::fresh(self.child, &self.graph),
                parent: Some(self.parent),
                quality: 0.6,
                timestamp: state.clock.fetch_add(1, Ordering::Relaxed),
                optimizer_keys: Vec::new(),
            };
            state.mutate_catalog(|c| c.insert(self.child, record));
        }

        /// The child reads back byte-identical and every count audits.
        fn check(&self) {
            let loaded = self.dep.client().load_model(self.child).unwrap();
            assert_eq!(loaded.tensors, self.child_tensors);
            self.dep.gc_audit().unwrap();
        }
    }

    /// The race a retire used to win: it lands on the provider's other
    /// service thread after the child's records were encoded against the
    /// parent's tensors and before they are put. The encoder's pins keep
    /// every base alive, as a retained base held by its one dependent.
    #[test]
    fn a_retire_between_encode_and_put_leaves_every_base_retained() {
        let l = Lineage::new();
        let state = l.state();
        let parent_map = l.parent_map(&state);
        let records = l.child_records();
        let deltas = state.encode_records(&records, &parent_map).unwrap();
        assert!(deltas.iter().any(Option::is_some), "the child encodes");
        l.retire_parent(&state);
        state.put_records(records, deltas).unwrap();
        l.catalog_child(&state);
        for (delta, base) in state.delta_links().unwrap() {
            assert_eq!(base.owner, l.parent, "{delta}");
            assert_eq!(state.tensor_refs(base), 1, "retained base {base}");
        }
        l.check();
    }

    /// The same retire landing between the parent lookup and the encoder:
    /// every pin fails, and the child lands raw.
    #[test]
    fn a_retire_before_the_pin_stores_the_child_raw() {
        let l = Lineage::new();
        let state = l.state();
        let parent_map = l.parent_map(&state);
        let records = l.child_records();
        l.retire_parent(&state);
        let deltas = state.encode_records(&records, &parent_map).unwrap();
        assert!(deltas.iter().all(Option::is_none));
        state.put_records(records, deltas).unwrap();
        l.catalog_child(&state);
        for key in l.child_tensors.keys() {
            assert!(!is_delta(&state.tensors.get(&key.encode()).unwrap()));
        }
        assert_eq!(state.hosted_tensor_keys().len(), l.child_tensors.len());
        l.check();
    }

    /// A child stored through the client, and its parent retired: every
    /// delta's base is retained.
    fn retired_parent() -> (Lineage, Vec<(TensorKey, TensorKey)>) {
        let l = Lineage::new();
        let client = l.dep.client();
        client
            .store_model(
                l.graph.clone(),
                OwnerMap::fresh(l.child, &l.graph),
                Some(l.parent),
                0.6,
                &l.child_tensors,
            )
            .unwrap();
        client.retire_model(l.parent).unwrap();
        let links = l.state().delta_links().unwrap();
        assert!(!links.is_empty());
        (l, links)
    }

    /// `gc_audit` counts a retained base by its local dependents.
    #[test]
    fn gc_audit_counts_a_retained_base_by_its_dependents() {
        let (l, links) = retired_parent();
        let state = l.state();
        for (_, base) in &links {
            let dependents = links.iter().filter(|(_, b)| b == base).count() as u64;
            assert_eq!(state.tensor_refs(*base), dependents, "{base}");
        }
        l.check();
    }

    /// `gc_audit` names a base deleted under a live delta.
    #[test]
    fn gc_audit_names_a_base_deleted_under_a_live_delta() {
        let (l, links) = retired_parent();
        let (_, base) = links[0];
        l.state().tensors.set_refs(&base.encode(), 0).unwrap();
        let err = l.dep.gc_audit().unwrap_err();
        assert!(err.contains(&base.to_string()), "{err}");
    }
}
