//! Reference counts: the distributed-GC primitive (§4.1). Increments
//! pin a new descendant's inherited tensors, decrements retire them,
//! the refs sync installs authoritative counts during repair, and the
//! recovery replay rebuilds counts after a restart. Every path that can
//! drop a record fences its delta dependents first
//! (`ProviderState::before_reclaim`).

use std::collections::HashMap;

use evostore_tensor::TensorKey;

use super::ProviderState;
use crate::messages::{RefsReply, RefsRequest, SyncRefsReply, SyncRefsRequest};

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
    /// count reaches zero are reclaimed.
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
            let enc = key.encode();
            if self.tensors.refs(&enc) == 1 {
                self.before_reclaim(&enc)
                    .map_err(|e| format!("decr {key}: {e}"))?;
            }
            match self.tensors.decr(&enc) {
                Ok(0) => reclaimed += 1,
                Ok(_) => {}
                Err(e) => return Err(format!("decr {key}: {e}")),
            }
        }
        let reply = RefsReply {
            applied: req.keys.len(),
            reclaimed,
        };
        self.refs_ops.lock().record(req.op_id, reply.clone());
        Ok(reply)
    }

    /// Handle a refs sync: set every listed hosted key to its
    /// authoritative count; optionally delete unlisted tensors (only
    /// when the repair pass saw every provider's digest).
    pub fn handle_sync_refs(&self, req: SyncRefsRequest) -> Result<SyncRefsReply, String> {
        let mut adjusted = 0usize;
        let mut missing = 0usize;
        let mut listed = std::collections::HashSet::with_capacity(req.entries.len());
        for (key, want) in &req.entries {
            listed.insert(*key);
            let enc = key.encode();
            if *want == 0 {
                let _ = self.before_reclaim(&enc);
            }
            match self.tensors.set_refs(&enc, *want) {
                Ok(prev) => {
                    if prev != *want {
                        adjusted += 1;
                    }
                }
                Err(_) => missing += 1,
            }
        }
        let mut removed = 0usize;
        if req.prune_unlisted {
            for key in self.hosted_tensor_keys() {
                if listed.contains(&key) {
                    continue;
                }
                let enc = key.encode();
                let _ = self.before_reclaim(&enc);
                if self.tensors.set_refs(&enc, 0).is_ok() {
                    removed += 1;
                }
            }
        }
        Ok(SyncRefsReply {
            adjusted,
            removed,
            missing,
        })
    }

    /// Directly bump a hosted tensor's reference count (recovery replay).
    pub fn replay_ref(&self, key: TensorKey) -> Result<(), String> {
        self.tensors
            .incr_adopted(&key.encode())
            .map_err(|e| format!("replay ref {key}: {e}"))?;
        Ok(())
    }

    /// Drop tensors whose replayed reference count stayed at zero,
    /// re-basing any deltas that depend on them first.
    pub fn purge_orphan_tensors(&self) -> Result<usize, String> {
        let bases: Vec<Vec<u8>> = self.delta_deps.lock().keys().cloned().collect();
        for enc in bases {
            if self.tensors.refs(&enc) == 0 && self.tensors.contains(&enc) {
                self.before_reclaim(&enc)?;
            }
        }
        self.tensors.purge_zero_refs().map_err(|e| e.to_string())
    }
}
